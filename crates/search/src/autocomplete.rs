//! Prefix-trie autocomplete for the advanced search form.
//!
//! The paper's query interface offers "autocomplete features" over titles,
//! attributes, and values. The trie stores weighted entries and returns the
//! top-k completions for a prefix, heaviest first.

use std::collections::BTreeMap;

/// A weighted prefix trie over strings.
#[derive(Debug, Default, PartialEq)]
pub struct Autocomplete {
    root: Node,
    len: usize,
}

#[derive(Debug, Default, PartialEq)]
struct Node {
    children: BTreeMap<char, Node>,
    /// Weight if a complete entry terminates here.
    terminal: Option<f64>,
    /// Max terminal weight in this subtree (for pruned top-k descent).
    best: f64,
}

impl Autocomplete {
    /// Creates an empty trie.
    pub fn new() -> Autocomplete {
        Autocomplete::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts an entry with a weight (e.g. page popularity / frequency).
    /// Re-inserting replaces the weight.
    pub fn insert(&mut self, entry: &str, weight: f64) {
        let lower = entry.to_lowercase();
        let mut node = &mut self.root;
        node.best = node.best.max(weight);
        for c in lower.chars() {
            node = node.children.entry(c).or_default();
            node.best = node.best.max(weight);
        }
        if node.terminal.is_none() {
            self.len += 1;
        }
        node.terminal = Some(weight);
    }

    /// Top-`k` completions for `prefix`, ordered by descending weight then
    /// lexicographically. Matching is case-insensitive; returned strings are
    /// the lowercased entries.
    pub fn complete(&self, prefix: &str, k: usize) -> Vec<(String, f64)> {
        let lower = prefix.to_lowercase();
        let mut node = &self.root;
        for c in lower.chars() {
            match node.children.get(&c) {
                Some(n) => node = n,
                None => return Vec::new(),
            }
        }
        let mut out: Vec<(String, f64)> = Vec::new();
        collect(node, &mut lower.clone(), &mut out, k);
        out.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.0.cmp(&b.0))
        });
        out.truncate(k);
        out
    }

    /// True if the exact entry exists.
    pub fn contains(&self, entry: &str) -> bool {
        let lower = entry.to_lowercase();
        let mut node = &self.root;
        for c in lower.chars() {
            match node.children.get(&c) {
                Some(n) => node = n,
                None => return false,
            }
        }
        node.terminal.is_some()
    }
}

/// Depth-first collection with subtree-max pruning: a subtree whose best
/// weight can't beat the current k-th candidate is skipped.
fn collect(node: &Node, buf: &mut String, out: &mut Vec<(String, f64)>, k: usize) {
    if out.len() >= k {
        let kth = out.iter().map(|(_, w)| *w).fold(f64::INFINITY, f64::min);
        if node.best <= kth && out.len() >= k * 4 {
            return;
        }
    }
    if let Some(w) = node.terminal {
        out.push((buf.clone(), w));
    }
    for (c, child) in &node.children {
        buf.push(*c);
        collect(child, buf, out, k);
        buf.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trie() -> Autocomplete {
        let mut t = Autocomplete::new();
        t.insert("temperature", 10.0);
        t.insert("temp_probe", 3.0);
        t.insert("tempest", 1.0);
        t.insert("wind_speed", 7.0);
        t.insert("Weissfluhjoch", 5.0);
        t
    }

    #[test]
    fn completes_by_weight() {
        let t = trie();
        let got = t.complete("temp", 2);
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].0, "temperature");
        assert_eq!(got[1].0, "temp_probe");
    }

    #[test]
    fn case_insensitive() {
        let t = trie();
        assert_eq!(t.complete("WEISS", 5).len(), 1);
        assert!(t.contains("weissfluhjoch"));
        assert!(t.contains("Weissfluhjoch"));
    }

    #[test]
    fn no_matches() {
        let t = trie();
        assert!(t.complete("zzz", 5).is_empty());
        assert!(!t.contains("tem"));
    }

    #[test]
    fn empty_prefix_returns_global_top() {
        let t = trie();
        let got = t.complete("", 3);
        assert_eq!(got[0].0, "temperature");
        assert_eq!(got.len(), 3);
    }

    #[test]
    fn reinsert_updates_weight() {
        let mut t = trie();
        assert_eq!(t.len(), 5);
        t.insert("tempest", 99.0);
        assert_eq!(t.len(), 5);
        assert_eq!(t.complete("temp", 1)[0].0, "tempest");
    }

    #[test]
    fn exact_entry_is_its_own_completion() {
        let t = trie();
        let got = t.complete("wind_speed", 5);
        assert_eq!(got, vec![("wind_speed".to_string(), 7.0)]);
    }
}
