//! Property-based tests for the search substrate.

use proptest::prelude::*;
use sensormeta_search::{
    damerau_levenshtein_capped, highlight, normalize, tokenize, Autocomplete, SearchIndex,
};
use std::collections::BTreeMap;

/// BM25 by definition, with the index's default parameters: per query
/// term in order, per document containing it, the term's contribution is
/// added to the document's score — the reference the index's doc-id scores
/// must equal bit for bit.
fn reference_bm25(docs: &[String], query: &str) -> BTreeMap<usize, f64> {
    let (k1, b) = (1.2, 0.75);
    let streams: Vec<Vec<String>> = docs.iter().map(|d| tokenize(d)).collect();
    let n = streams.len() as f64;
    let total: usize = streams.iter().map(Vec::len).sum();
    let avg = (total as f64 / n).max(f64::MIN_POSITIVE);
    let mut scores = BTreeMap::new();
    for term in tokenize(query) {
        let tfs: Vec<(usize, usize)> = streams
            .iter()
            .enumerate()
            .map(|(d, s)| (d, s.iter().filter(|t| **t == term).count()))
            .filter(|&(_, tf)| tf > 0)
            .collect();
        let df = tfs.len() as f64;
        let idf = (((n - df + 0.5) / (df + 0.5)) + 1.0).ln();
        for (d, tf) in tfs {
            let tf = tf as f64;
            let dl = streams[d].len() as f64;
            let denom = tf + k1 * (1.0 - b + b * dl / avg);
            *scores.entry(d).or_insert(0.0) += idf * tf * (k1 + 1.0) / denom;
        }
    }
    scores
}

fn arb_doc() -> impl Strategy<Value = String> {
    prop::collection::vec("[a-z]{1,8}", 1..30).prop_map(|words| words.join(" "))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Tokenization is idempotent under normalization: normalizing a
    /// normalized term changes nothing.
    #[test]
    fn normalize_idempotent(word in "[a-zA-Z_]{1,16}") {
        let once = normalize(&word);
        prop_assert_eq!(normalize(&once), once.clone());
    }

    /// Every token of a document is findable by searching for it.
    #[test]
    fn every_token_is_searchable(doc in arb_doc()) {
        let mut ix = SearchIndex::new();
        ix.add_document("d", &doc);
        for token in tokenize(&doc) {
            let hits = ix.search(&token, 10);
            prop_assert!(!hits.is_empty(), "token {token} not found");
            prop_assert_eq!(&hits[0].key, "d");
        }
    }

    /// Conjunctive results are a subset of disjunctive results, and phrase
    /// results a subset of conjunctive.
    #[test]
    fn search_mode_subsets(docs in prop::collection::vec(arb_doc(), 1..12),
                           qa in "[a-z]{1,6}", qb in "[a-z]{1,6}") {
        let mut ix = SearchIndex::new();
        for (i, d) in docs.iter().enumerate() {
            ix.add_document(&format!("d{i}"), d);
        }
        let query = format!("{qa} {qb}");
        let or_keys: Vec<String> = ix.search(&query, 100).into_iter().map(|h| h.key).collect();
        let and_keys: Vec<String> =
            ix.search_all_terms(&query, 100).into_iter().map(|h| h.key).collect();
        let phrase_keys: Vec<String> =
            ix.phrase(&query, 100).into_iter().map(|h| h.key).collect();
        for k in &and_keys {
            prop_assert!(or_keys.contains(k), "AND ⊄ OR: {k}");
        }
        for k in &phrase_keys {
            prop_assert!(and_keys.contains(k), "PHRASE ⊄ AND: {k}");
        }
    }

    /// Document replacement behaves like building a fresh index.
    #[test]
    fn replacement_equals_fresh(doc1 in arb_doc(), doc2 in arb_doc(), probe in "[a-z]{1,6}") {
        let mut replaced = SearchIndex::new();
        replaced.add_document("d", &doc1);
        replaced.add_document("d", &doc2);
        let mut fresh = SearchIndex::new();
        fresh.add_document("d", &doc2);
        let a: Vec<_> = replaced.search(&probe, 10);
        let b: Vec<_> = fresh.search(&probe, 10);
        prop_assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            prop_assert!((x.score - y.score).abs() < 1e-9);
        }
        prop_assert_eq!(replaced.term_count(), fresh.term_count());
    }

    /// Autocomplete returns exactly the inserted entries with a matching
    /// prefix, ordered by weight.
    #[test]
    fn autocomplete_sound_and_complete(entries in prop::collection::btree_map(
        "[a-z]{1,10}", 0.0f64..100.0, 1..20), prefix in "[a-z]{0,3}")
    {
        let mut trie = Autocomplete::new();
        for (e, w) in &entries {
            trie.insert(e, *w);
        }
        let got = trie.complete(&prefix, entries.len());
        let want: BTreeMap<&String, f64> = entries
            .iter()
            .filter(|(e, _)| e.starts_with(&prefix))
            .map(|(e, w)| (e, *w))
            .collect();
        prop_assert_eq!(got.len(), want.len());
        for (s, w) in &got {
            prop_assert_eq!(want.get(s), Some(w));
        }
        for pair in got.windows(2) {
            prop_assert!(pair[0].1 >= pair[1].1, "weight order");
        }
    }

    /// Edit distance is a metric: symmetric, zero iff equal, triangle-ish
    /// under the cap.
    #[test]
    fn edit_distance_metric(a in "[a-z]{0,8}", b in "[a-z]{0,8}") {
        let cap = 16usize;
        let ab = damerau_levenshtein_capped(&a, &b, cap).unwrap();
        let ba = damerau_levenshtein_capped(&b, &a, cap).unwrap();
        prop_assert_eq!(ab, ba);
        prop_assert_eq!(ab == 0, a == b);
        prop_assert!(ab <= a.len().max(b.len()));
    }

    /// Highlighting never loses or duplicates non-marker characters.
    #[test]
    fn highlight_preserves_text(doc in arb_doc(), q in "[a-z]{1,6}") {
        let marked = highlight(&doc, &q, "«", "»");
        let stripped: String = marked.chars().filter(|c| *c != '«' && *c != '»').collect();
        prop_assert_eq!(stripped, doc);
    }

    /// The doc-id score maps equal BM25 by definition bit for bit, and the
    /// ranked searches are those scores sorted (best first, ties by doc):
    /// whole (`k = usize::MAX`) and cut at `k`. Query terms repeat, so a
    /// document's score sums one term more than once.
    #[test]
    fn doc_id_scores_are_what_search_ranks(
        docs in prop::collection::vec(
            prop::collection::vec("[a-e]{1,2}", 1..12).prop_map(|w| w.join(" ")),
            1..16,
        ),
        words in prop::collection::vec("[a-f]{1,2}", 1..5),
        repeat in any::<bool>(),
        k in 0usize..6,
    ) {
        let mut ix = SearchIndex::new();
        for (i, d) in docs.iter().enumerate() {
            prop_assert_eq!(ix.add_document(&format!("d{i}"), d), i);
        }
        let mut query = words.join(" ");
        if repeat {
            query = format!("{query} {}", words[0]);
        }
        let bits = |scores: &[(usize, f64)]| -> Vec<(usize, u64)> {
            scores.iter().map(|&(d, s)| (d, s.to_bits())).collect()
        };
        let reference = reference_bm25(&docs, &query);
        let terms = tokenize(&query);
        let all: Vec<(usize, f64)> = reference
            .iter()
            .map(|(&d, &s)| (d, s))
            .filter(|&(d, _)| {
                let doc = tokenize(&docs[d]);
                terms.iter().all(|t| doc.contains(t))
            })
            .collect();
        let reference: Vec<(usize, f64)> = reference.into_iter().collect();
        for (scores, expected, ranked, top) in [
            (ix.try_scores(&query), &reference, ix.search(&query, usize::MAX), ix.search(&query, k)),
            (
                ix.try_scores_all_terms(&query),
                &all,
                ix.search_all_terms(&query, usize::MAX),
                ix.search_all_terms(&query, k),
            ),
        ] {
            let scores = scores.expect("no deadline");
            prop_assert_eq!(bits(&scores), bits(expected), "query {:?}", query);
            let mut sorted = scores.clone();
            sorted.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
            let hits: Vec<(usize, f64)> = ranked.iter().map(|h| (h.doc, h.score)).collect();
            prop_assert_eq!(bits(&hits), bits(&sorted), "query {:?}", query);
            for h in &ranked {
                prop_assert_eq!(&h.key, &format!("d{}", h.doc));
            }
            prop_assert_eq!(&top[..], &ranked[..k.min(ranked.len())]);
        }
    }
}
