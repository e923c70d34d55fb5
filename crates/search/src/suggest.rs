//! "Did you mean" spelling suggestions over the index vocabulary.
//!
//! When a query term matches nothing, the search box proposes the
//! most-frequent vocabulary term within a small edit distance — standard
//! behaviour for a search UI of the demo's vintage, implemented with a
//! banded Damerau–Levenshtein distance so the vocabulary scan stays cheap.

use std::collections::BTreeMap;

/// A vocabulary with document frequencies, queryable for near matches.
#[derive(Debug, Default, PartialEq)]
pub struct SpellSuggester {
    /// term → frequency weight.
    vocab: BTreeMap<String, usize>,
}

impl SpellSuggester {
    /// Creates an empty suggester.
    pub fn new() -> SpellSuggester {
        SpellSuggester::default()
    }

    /// Adds (or bumps) a vocabulary term.
    pub fn add(&mut self, term: &str, weight: usize) {
        *self.vocab.entry(term.to_lowercase()).or_insert(0) += weight;
    }

    /// Number of distinct terms.
    pub fn len(&self) -> usize {
        self.vocab.len()
    }

    /// True when the vocabulary is empty.
    pub fn is_empty(&self) -> bool {
        self.vocab.is_empty()
    }

    /// True if the exact term is known.
    pub fn contains(&self, term: &str) -> bool {
        self.vocab.contains_key(&term.to_lowercase())
    }

    /// Best correction for `term` within `max_distance` edits, or `None` if
    /// the term is already known or nothing is close. Ties break toward the
    /// more frequent term, then lexicographically.
    pub fn suggest(&self, term: &str, max_distance: usize) -> Option<String> {
        let term = term.to_lowercase();
        if self.vocab.contains_key(&term) || term.is_empty() {
            return None;
        }
        let mut best: Option<(usize, usize, &str)> = None; // (dist, -freq via Reverse cmp, term)
        for (cand, &freq) in &self.vocab {
            // Cheap length pre-filter.
            if cand.chars().count().abs_diff(term.chars().count()) > max_distance {
                continue;
            }
            let Some(d) = damerau_levenshtein_capped(&term, cand, max_distance) else {
                continue;
            };
            if d == 0 {
                return None;
            }
            let better = match &best {
                None => true,
                Some((bd, bf, bt)) => {
                    d < *bd || (d == *bd && (freq > *bf || (freq == *bf && cand.as_str() < *bt)))
                }
            };
            if better {
                best = Some((d, freq, cand));
            }
        }
        best.map(|(_, _, t)| t.to_owned())
    }

    /// Suggests a corrected multi-term query; `None` when every term is
    /// already known (nothing to fix).
    pub fn suggest_query(&self, query: &str, max_distance: usize) -> Option<String> {
        let mut changed = false;
        let corrected: Vec<String> = query
            .split_whitespace()
            .map(|t| match self.suggest(t, max_distance) {
                Some(fix) => {
                    changed = true;
                    fix
                }
                None => t.to_lowercase(),
            })
            .collect();
        changed.then(|| corrected.join(" "))
    }
}

/// Damerau–Levenshtein distance (adjacent transpositions count 1), returning
/// `None` when the distance certainly exceeds `cap`.
pub fn damerau_levenshtein_capped(a: &str, b: &str, cap: usize) -> Option<usize> {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    if a.len().abs_diff(b.len()) > cap {
        return None;
    }
    let mut prev2: Vec<usize> = Vec::new();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    for i in 1..=a.len() {
        let mut cur = vec![0usize; b.len() + 1];
        cur[0] = i;
        let mut row_min = cur[0];
        for j in 1..=b.len() {
            let cost = usize::from(a[i - 1] != b[j - 1]);
            let mut d = (prev[j] + 1).min(cur[j - 1] + 1).min(prev[j - 1] + cost);
            if i > 1 && j > 1 && a[i - 1] == b[j - 2] && a[i - 2] == b[j - 1] {
                d = d.min(prev2[j - 2] + 1);
            }
            cur[j] = d;
            row_min = row_min.min(d);
        }
        if row_min > cap {
            return None; // every continuation only grows
        }
        prev2 = std::mem::replace(&mut prev, cur);
    }
    let d = prev[b.len()];
    (d <= cap).then_some(d)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn suggester() -> SpellSuggester {
        let mut s = SpellSuggester::new();
        s.add("temperature", 30);
        s.add("temperament", 2);
        s.add("wind", 20);
        s.add("wind_speed", 15);
        s.add("snow", 25);
        s
    }

    #[test]
    fn distance_basics() {
        assert_eq!(damerau_levenshtein_capped("abc", "abc", 2), Some(0));
        assert_eq!(damerau_levenshtein_capped("abc", "abd", 2), Some(1));
        assert_eq!(
            damerau_levenshtein_capped("abc", "acb", 2),
            Some(1),
            "transposition"
        );
        assert_eq!(damerau_levenshtein_capped("abc", "ab", 2), Some(1));
        assert_eq!(damerau_levenshtein_capped("kitten", "sitting", 3), Some(3));
        assert_eq!(
            damerau_levenshtein_capped("short", "muchlongerword", 2),
            None
        );
        assert_eq!(
            damerau_levenshtein_capped("abcdef", "ghijkl", 2),
            None,
            "capped early"
        );
    }

    #[test]
    fn suggests_common_correction() {
        let s = suggester();
        assert_eq!(s.suggest("temperatur", 2), Some("temperature".into()));
        assert_eq!(
            s.suggest("tempertaure", 2),
            Some("temperature".into()),
            "transposition"
        );
        assert_eq!(s.suggest("snwo", 2), Some("snow".into()));
    }

    #[test]
    fn known_terms_need_no_correction() {
        let s = suggester();
        assert_eq!(s.suggest("temperature", 2), None);
        assert_eq!(s.suggest("WIND", 2), None, "case-insensitive");
    }

    #[test]
    fn frequency_breaks_ties() {
        let mut s = SpellSuggester::new();
        s.add("cart", 1);
        s.add("card", 100);
        // "carx" is distance 1 from both; the frequent one wins.
        assert_eq!(s.suggest("carx", 2), Some("card".into()));
    }

    #[test]
    fn far_terms_get_nothing() {
        let s = suggester();
        assert_eq!(s.suggest("zzzzzzz", 2), None);
        assert_eq!(s.suggest("", 2), None);
    }

    #[test]
    fn query_level_suggestion() {
        let s = suggester();
        assert_eq!(
            s.suggest_query("temperatur snwo", 2),
            Some("temperature snow".into())
        );
        assert_eq!(s.suggest_query("wind snow", 2), None, "all terms known");
        // Mixed: one fixable, one hopeless (kept as-is).
        assert_eq!(
            s.suggest_query("snwo zzzzzzz", 2),
            Some("snow zzzzzzz".into())
        );
    }
}
