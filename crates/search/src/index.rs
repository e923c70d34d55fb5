//! Positional inverted index with BM25 ranking.

use crate::tokenize::tokenize;
use sensormeta_par::Pool;
use sensormeta_resil::{self as resil, Interrupt};
use std::collections::BTreeMap;

/// Documents per parallel tokenize chunk in [`SearchIndex::build_in`]
/// (fixed: chunk boundaries must not depend on the thread count).
const DOC_CHUNK: usize = 32;

/// Document identifier (dense, assigned at add time).
pub type DocId = usize;

/// One term's postings: per-document positions.
#[derive(Debug, Default, Clone, PartialEq)]
struct Posting {
    /// (doc, positions within doc), sorted by doc.
    docs: Vec<(DocId, Vec<u32>)>,
}

/// BM25 parameters.
#[derive(Debug, Clone, Copy)]
pub struct Bm25Params {
    /// Term-frequency saturation (typical 1.2).
    pub k1: f64,
    /// Length normalization (typical 0.75).
    pub b: f64,
}

impl Default for Bm25Params {
    fn default() -> Self {
        Bm25Params { k1: 1.2, b: 0.75 }
    }
}

/// Checkpoint site name for cooperative cancellation in scoring loops.
const CHECKPOINT_SITE: &str = "search_postings";

/// Postings scanned between deadline checkpoints on the checked paths.
const POSTINGS_PER_CHECK: usize = 1024;

/// A positional inverted index over external string keys.
#[derive(Debug, Default, PartialEq)]
pub struct SearchIndex {
    /// External key (page title) per doc.
    keys: Vec<String>,
    key_ids: BTreeMap<String, DocId>,
    postings: BTreeMap<String, Posting>,
    doc_len: Vec<u32>,
    total_len: u64,
}

/// A scored hit.
#[derive(Debug, Clone, PartialEq)]
pub struct Hit {
    /// Document id.
    pub doc: DocId,
    /// External key.
    pub key: String,
    /// BM25 score.
    pub score: f64,
}

impl SearchIndex {
    /// Creates an empty index.
    pub fn new() -> SearchIndex {
        SearchIndex::default()
    }

    /// Number of documents.
    pub fn doc_count(&self) -> usize {
        self.keys.len()
    }

    /// Number of distinct terms.
    pub fn term_count(&self) -> usize {
        self.postings.len()
    }

    /// External key of a document.
    pub fn key(&self, doc: DocId) -> &str {
        &self.keys[doc]
    }

    /// Doc id of an external key.
    pub fn doc_of(&self, key: &str) -> Option<DocId> {
        self.key_ids.get(key).copied()
    }

    /// Adds (or replaces) a document. Replacement re-tokenizes from scratch;
    /// the old postings are removed first.
    pub fn add_document(&mut self, key: &str, text: &str) -> DocId {
        self.add_tokenized(key, tokenize(text))
    }

    /// Adds (or replaces) a document from an already-tokenized term stream —
    /// the merge half of [`SearchIndex::build_in`], where tokenization runs
    /// in parallel but postings are merged serially in document order.
    pub fn add_tokenized(&mut self, key: &str, terms: Vec<String>) -> DocId {
        sensormeta_obs::counter("search_docs_indexed_total").inc();
        let doc = match self.key_ids.get(key) {
            Some(&d) => {
                self.remove_postings(d);
                d
            }
            None => {
                let d = self.keys.len();
                self.keys.push(key.to_owned());
                self.key_ids.insert(key.to_owned(), d);
                self.doc_len.push(0);
                d
            }
        };
        self.total_len += terms.len() as u64;
        self.doc_len[doc] = terms.len() as u32;
        for (pos, term) in terms.into_iter().enumerate() {
            let posting = self.postings.entry(term).or_default();
            match posting.docs.binary_search_by_key(&doc, |(d, _)| *d) {
                Ok(ix) => posting.docs[ix].1.push(pos as u32),
                Err(ix) => posting.docs.insert(ix, (doc, vec![pos as u32])),
            }
        }
        doc
    }

    /// Builds an index from a document batch on the global pool: per-document
    /// tokenization (the CPU-bound half) fans out across threads, then the
    /// postings merge runs serially in input order — so the result is
    /// byte-identical to calling [`SearchIndex::add_document`] in a loop.
    pub fn build(docs: &[(String, String)]) -> SearchIndex {
        SearchIndex::build_in(Pool::global(), docs)
    }

    /// [`SearchIndex::build`] on an explicit pool.
    pub fn build_in(pool: &Pool, docs: &[(String, String)]) -> SearchIndex {
        let token_streams =
            pool.par_map_collect(docs, DOC_CHUNK, |(_, text)| tokenize(text.as_str()));
        let mut ix = SearchIndex::new();
        for ((key, _), terms) in docs.iter().zip(token_streams) {
            ix.add_tokenized(key, terms);
        }
        ix
    }

    /// This index over a renumbered corpus, re-tokenizing only the
    /// documents that changed. `keys` are the new corpus's keys in doc-id
    /// order; `kept[old]` is the new id of an old document whose postings
    /// carry over, or `None` to drop them (a document deleted or about to
    /// be re-added); `docs` holds `(new id, text)` of every document to
    /// tokenize afresh, in ascending id order. One pass over the posting
    /// lists renumbers and filters them and merges the fresh documents' in
    /// by doc id. When `kept` preserves the old order, the result equals
    /// [`SearchIndex::build`] over the new corpus: the same postings,
    /// positions, lengths and totals.
    pub fn patched(
        &self,
        keys: Vec<String>,
        kept: &[Option<DocId>],
        docs: &[(DocId, String)],
    ) -> SearchIndex {
        sensormeta_obs::counter("search_docs_indexed_total").add(docs.len() as u64);
        let mut doc_len = vec![0u32; keys.len()];
        for (old, &new) in kept.iter().enumerate() {
            if let Some(new) = new {
                doc_len[new] = self.doc_len[old];
            }
        }
        // The fresh documents' postings, each list in doc order.
        let mut fresh: BTreeMap<String, Vec<(DocId, Vec<u32>)>> = BTreeMap::new();
        for (doc, text) in docs {
            let terms = tokenize(text);
            doc_len[*doc] = terms.len() as u32;
            for (pos, term) in terms.into_iter().enumerate() {
                let list = fresh.entry(term).or_default();
                match list.last_mut() {
                    Some((d, positions)) if d == doc => positions.push(pos as u32),
                    _ => list.push((*doc, vec![pos as u32])),
                }
            }
        }
        let mut fresh = fresh.into_iter().peekable();
        let mut postings: Vec<(String, Posting)> = Vec::with_capacity(self.postings.len());
        for (term, posting) in &self.postings {
            while let Some(entry) = fresh.next_if(|(t, _)| t < term) {
                postings.push((entry.0, Posting { docs: entry.1 }));
            }
            let carried = posting
                .docs
                .iter()
                .filter_map(|(doc, positions)| Some((kept[*doc]?, positions.clone())));
            let docs: Vec<(DocId, Vec<u32>)> = match fresh.next_if(|(t, _)| t == term) {
                Some((_, added)) => merge_by_doc(carried, added),
                None => carried.collect(),
            };
            if !docs.is_empty() {
                postings.push((term.clone(), Posting { docs }));
            }
        }
        postings.extend(fresh.map(|(term, docs)| (term, Posting { docs })));
        SearchIndex {
            key_ids: keys
                .iter()
                .enumerate()
                .map(|(i, k)| (k.clone(), i))
                .collect(),
            keys,
            postings: postings.into_iter().collect(),
            total_len: doc_len.iter().map(|&len| u64::from(len)).sum(),
            doc_len,
        }
    }

    /// Order-sensitive FNV-1a fingerprint of the full index contents (keys,
    /// document lengths, terms, postings and positions). Used by the
    /// determinism tests to assert that parallel and serial builds produce
    /// identical indexes.
    pub fn fingerprint(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf29ce484222325;
        const FNV_PRIME: u64 = 0x100000001b3;
        let mut h = FNV_OFFSET;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(FNV_PRIME);
            }
        };
        for key in &self.keys {
            eat(key.as_bytes());
            eat(&[0xff]);
        }
        for &len in &self.doc_len {
            eat(&len.to_le_bytes());
        }
        eat(&self.total_len.to_le_bytes());
        for (term, posting) in &self.postings {
            eat(term.as_bytes());
            eat(&[0xfe]);
            for (doc, positions) in &posting.docs {
                eat(&(*doc as u64).to_le_bytes());
                for &p in positions {
                    eat(&p.to_le_bytes());
                }
            }
        }
        h
    }

    fn remove_postings(&mut self, doc: DocId) {
        self.total_len -= u64::from(self.doc_len[doc]);
        self.doc_len[doc] = 0;
        self.postings.retain(|_, p| {
            if let Ok(ix) = p.docs.binary_search_by_key(&doc, |(d, _)| *d) {
                p.docs.remove(ix);
            }
            !p.docs.is_empty()
        });
    }

    fn avg_len(&self) -> f64 {
        if self.keys.is_empty() {
            0.0
        } else {
            self.total_len as f64 / self.keys.len() as f64
        }
    }

    fn idf(&self, df: usize) -> f64 {
        let n = self.keys.len() as f64;
        // BM25+-style floor keeps very common terms from zeroing out.
        (((n - df as f64 + 0.5) / (df as f64 + 0.5)) + 1.0).ln()
    }

    /// BM25 keyword search (disjunctive): scores every document matching at
    /// least one query term; documents matching more terms score higher.
    pub fn search(&self, query: &str, k: usize) -> Vec<Hit> {
        self.search_with(query, k, Bm25Params::default())
    }

    /// BM25 search with explicit parameters. Uncancellable: runs to
    /// completion regardless of the ambient deadline (see
    /// [`SearchIndex::try_scores`] for the cooperative variant).
    pub fn search_with(&self, query: &str, k: usize, params: Bm25Params) -> Vec<Hit> {
        // The unchecked pass never hits a checkpoint, so Err is unreachable.
        self.score_disjunctive(query, params, false)
            .map(|scores| self.top_k(scores, k))
            .unwrap_or_default()
    }

    /// The raw BM25 score of every document matching at least one query
    /// term, in doc-id order, with default parameters: what
    /// [`SearchIndex::search`] ranks, without making a [`Hit`] (or cloning a
    /// key) per document. Observes the ambient resil deadline (and chaos
    /// plan) between query terms and every `POSTINGS_PER_CHECK` (1024)
    /// scanned postings, so an expired request stops burning CPU mid-scan.
    pub fn try_scores(&self, query: &str) -> Result<Vec<(DocId, f64)>, Interrupt> {
        self.score_disjunctive(query, Bm25Params::default(), true)
    }

    /// [`SearchIndex::try_scores`] restricted to documents containing every
    /// query term: what [`SearchIndex::search_all_terms`] ranks.
    pub fn try_scores_all_terms(&self, query: &str) -> Result<Vec<(DocId, f64)>, Interrupt> {
        self.score_conjunctive(query, true)
    }

    fn score_disjunctive(
        &self,
        query: &str,
        params: Bm25Params,
        checked: bool,
    ) -> Result<Vec<(DocId, f64)>, Interrupt> {
        let _timing = sensormeta_obs::span("search_score");
        sensormeta_obs::counter("search_queries_total").inc();
        let terms = tokenize(query);
        if terms.is_empty() {
            return Ok(Vec::new());
        }
        let postings = terms.iter().map(|term| {
            if checked {
                resil::checkpoint(CHECKPOINT_SITE)?;
            }
            Ok(self.postings.get(term))
        });
        self.accumulate(postings, params, checked)
    }

    /// Sums the BM25 contribution of each posting list's documents, list by
    /// list in the order given (so a document's score adds up in query-term
    /// order, bit for bit as a map keyed by doc would), into a dense
    /// per-document array. Returns the documents reached, in doc-id order.
    fn accumulate<'a>(
        &self,
        postings: impl Iterator<Item = Result<Option<&'a Posting>, Interrupt>>,
        params: Bm25Params,
        checked: bool,
    ) -> Result<Vec<(DocId, f64)>, Interrupt> {
        let avg = self.avg_len().max(f64::MIN_POSITIVE);
        let mut scores = vec![0.0f64; self.keys.len()];
        let mut reached = vec![false; self.keys.len()];
        let mut scanned = 0usize;
        for posting in postings {
            let Some(posting) = posting? else {
                continue;
            };
            let idf = self.idf(posting.docs.len());
            for (doc, positions) in &posting.docs {
                scanned += 1;
                if checked && scanned.is_multiple_of(POSTINGS_PER_CHECK) {
                    resil::checkpoint(CHECKPOINT_SITE)?;
                }
                let tf = positions.len() as f64;
                let dl = f64::from(self.doc_len[*doc]);
                let denom = tf + params.k1 * (1.0 - params.b + params.b * dl / avg);
                scores[*doc] += idf * tf * (params.k1 + 1.0) / denom;
                reached[*doc] = true;
            }
        }
        Ok(scores
            .into_iter()
            .zip(reached)
            .enumerate()
            .filter_map(|(doc, (score, reached))| reached.then_some((doc, score)))
            .collect())
    }

    /// Conjunctive search: only documents containing *all* query terms.
    /// Uncancellable; see [`SearchIndex::try_scores_all_terms`].
    pub fn search_all_terms(&self, query: &str, k: usize) -> Vec<Hit> {
        // The unchecked pass never hits a checkpoint, so Err is unreachable.
        self.score_conjunctive(query, false)
            .map(|scores| self.top_k(scores, k))
            .unwrap_or_default()
    }

    fn score_conjunctive(
        &self,
        query: &str,
        checked: bool,
    ) -> Result<Vec<(DocId, f64)>, Interrupt> {
        let terms = tokenize(query);
        if terms.is_empty() {
            return Ok(Vec::new());
        }
        let mut candidate: Option<Vec<DocId>> = None;
        for term in &terms {
            if checked {
                resil::checkpoint(CHECKPOINT_SITE)?;
            }
            let docs: Vec<DocId> = self
                .postings
                .get(term)
                .map(|p| p.docs.iter().map(|(d, _)| *d).collect())
                .unwrap_or_default();
            candidate = Some(match candidate {
                None => docs,
                Some(prev) => intersect_sorted(&prev, &docs),
            });
            if candidate.as_ref().is_some_and(Vec::is_empty) {
                return Ok(Vec::new());
            }
        }
        let allowed = candidate.unwrap_or_default();
        let mut scores = self.score_disjunctive(query, Bm25Params::default(), checked)?;
        scores.retain(|(doc, _)| allowed.binary_search(doc).is_ok());
        Ok(scores)
    }

    /// Exact phrase search using positional postings.
    pub fn phrase(&self, phrase: &str, k: usize) -> Vec<Hit> {
        let terms = tokenize(phrase);
        if terms.is_empty() {
            return Vec::new();
        }
        if terms.len() == 1 {
            return self.search(&terms[0], k);
        }
        let postings: Option<Vec<&Posting>> = terms.iter().map(|t| self.postings.get(t)).collect();
        let Some(postings) = postings else {
            return Vec::new();
        };
        let mut docs = postings[0].docs.iter().map(|(d, _)| *d).collect::<Vec<_>>();
        for p in &postings[1..] {
            let next: Vec<DocId> = p.docs.iter().map(|(d, _)| *d).collect();
            docs = intersect_sorted(&docs, &next);
        }
        let mut hits = Vec::new();
        for doc in docs {
            // `doc` came from intersecting every posting list, so each lookup
            // succeeds; a failed one just drops the doc from the result.
            let Some(pos_lists) = postings
                .iter()
                .map(|p| {
                    p.docs
                        .binary_search_by_key(&doc, |(d, _)| *d)
                        .ok()
                        .map(|ix| &p.docs[ix].1)
                })
                .collect::<Option<Vec<&Vec<u32>>>>()
            else {
                continue;
            };
            let count = pos_lists[0]
                .iter()
                .filter(|&&start| {
                    pos_lists[1..]
                        .iter()
                        .enumerate()
                        .all(|(off, list)| list.binary_search(&(start + off as u32 + 1)).is_ok())
                })
                .count();
            if count > 0 {
                hits.push(Hit {
                    doc,
                    key: self.keys[doc].clone(),
                    score: count as f64,
                });
            }
        }
        hits.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        hits.truncate(k);
        hits
    }

    /// The `k` best of `scores` (in doc-id order) by descending score, ties
    /// by doc id, as hits: only those `k` get their key cloned, and only
    /// they are sorted.
    fn top_k(&self, mut scores: Vec<(DocId, f64)>, k: usize) -> Vec<Hit> {
        let order = |a: &(DocId, f64), b: &(DocId, f64)| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0));
        if k < scores.len() {
            scores.select_nth_unstable_by(k, order);
            scores.truncate(k);
        }
        scores.sort_unstable_by(order);
        scores
            .into_iter()
            .map(|(doc, score)| Hit {
                key: self.keys[doc].clone(),
                doc,
                score,
            })
            .collect()
    }

    /// Iterates all indexed terms with their document frequencies — the
    /// vocabulary feed for spell suggestion.
    pub fn terms(&self) -> impl Iterator<Item = (&str, usize)> {
        self.postings
            .iter()
            .map(|(t, p)| (t.as_str(), p.docs.len()))
    }

    /// Document frequency of a term (after normalization).
    pub fn doc_frequency(&self, term: &str) -> usize {
        self.postings
            .get(&crate::tokenize::normalize(term))
            .map(|p| p.docs.len())
            .unwrap_or(0)
    }
}

/// The union of two posting lists sorted by doc id with no doc in common,
/// sorted by doc id.
fn merge_by_doc(
    a: impl Iterator<Item = (DocId, Vec<u32>)>,
    b: Vec<(DocId, Vec<u32>)>,
) -> Vec<(DocId, Vec<u32>)> {
    let mut b = b.into_iter().peekable();
    let mut out = Vec::new();
    for entry in a {
        while let Some(earlier) = b.next_if(|(doc, _)| *doc < entry.0) {
            out.push(earlier);
        }
        out.push(entry);
    }
    out.extend(b);
    out
}

/// Intersection of two sorted DocId lists.
fn intersect_sorted(a: &[DocId], b: &[DocId]) -> Vec<DocId> {
    let mut out = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn index() -> SearchIndex {
        let mut ix = SearchIndex::new();
        ix.add_document(
            "Deployment:wfj_temp",
            "A temperature sensor deployed at Weissfluhjoch measuring air temperature",
        );
        ix.add_document(
            "Deployment:wfj_wind",
            "Wind speed sensor at Weissfluhjoch station",
        );
        ix.add_document(
            "Fieldsite:Davos",
            "Davos field site with snow and temperature monitoring",
        );
        ix
    }

    #[test]
    fn basic_relevance_order() {
        let ix = index();
        let hits = ix.search("temperature", 10);
        assert_eq!(hits.len(), 2);
        // Doc with tf=2 and shorter relative presence wins.
        assert_eq!(hits[0].key, "Deployment:wfj_temp");
    }

    #[test]
    fn multi_term_or_semantics() {
        let ix = index();
        let hits = ix.search("temperature wind", 10);
        assert_eq!(hits.len(), 3);
    }

    #[test]
    fn conjunctive_search() {
        let ix = index();
        let hits = ix.search_all_terms("temperature weissfluhjoch", 10);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].key, "Deployment:wfj_temp");
        assert!(ix.search_all_terms("temperature zermatt", 10).is_empty());
    }

    #[test]
    fn phrase_search_uses_positions() {
        let ix = index();
        let hits = ix.phrase("wind speed", 10);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].key, "Deployment:wfj_wind");
        // Terms present but not adjacent in this order:
        assert!(ix.phrase("speed wind", 10).is_empty());
    }

    #[test]
    fn replacement_removes_old_terms() {
        let mut ix = index();
        ix.add_document("Deployment:wfj_temp", "now a humidity probe");
        assert_eq!(ix.search("temperature", 10).len(), 1, "only Davos remains");
        let hits = ix.search("humidity", 10);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].key, "Deployment:wfj_temp");
        assert_eq!(ix.doc_count(), 3, "replacement does not grow the corpus");
    }

    #[test]
    fn empty_query_and_unknown_terms() {
        let ix = index();
        assert!(ix.search("", 5).is_empty());
        assert!(ix.search("zzzunknown", 5).is_empty());
        assert_eq!(ix.doc_frequency("temperature"), 2);
        assert_eq!(ix.doc_frequency("zzz"), 0);
    }

    #[test]
    fn stemming_bridges_query_and_doc() {
        let ix = index();
        // "sensors" (plural) finds docs with "sensor".
        assert!(!ix.search("sensors", 5).is_empty());
        // "monitoring" vs "monitor".
        assert!(!ix.search("monitor", 5).is_empty());
    }

    #[test]
    fn idf_prefers_rare_terms() {
        let ix = index();
        // "davos" appears once, "weissfluhjoch" twice; a query with both
        // should rank the Davos doc highest for the rare-term match only if
        // scores reflect idf. Just assert rare-term idf > common-term idf.
        let rare = ix.idf(1);
        let common = ix.idf(2);
        assert!(rare > common);
    }

    #[test]
    fn batch_build_equals_sequential_adds() {
        let docs: Vec<(String, String)> = (0..90)
            .map(|i| {
                (
                    format!("Page:{i}"),
                    format!("sensor number {i} measuring temperature at site {}", i % 7),
                )
            })
            .collect();
        let mut sequential = SearchIndex::new();
        for (key, text) in &docs {
            sequential.add_document(key, text);
        }
        for threads in [1, 2, 7] {
            let built = SearchIndex::build_in(&Pool::new(threads), &docs);
            assert_eq!(built.fingerprint(), sequential.fingerprint(), "{threads}");
            assert_eq!(built.doc_count(), sequential.doc_count());
            assert_eq!(built.term_count(), sequential.term_count());
        }
    }

    #[test]
    fn patched_equals_a_fresh_build() {
        let doc = |key: &str, text: &str| (key.to_owned(), text.to_owned());
        let before = vec![
            doc("b", "snow depth sensor at the snow station"),
            doc("d", "wind speed sensor"),
            doc("f", "temperature probe in snow"),
        ];
        // `a` and `e` are new, `d` is rewritten, `f` is gone.
        let after = vec![
            doc("a", "a fresh snow gauge"),
            doc("b", "snow depth sensor at the snow station"),
            doc("d", "humidity sensor replacing wind"),
            doc("e", "zzz unique term"),
        ];
        let old = SearchIndex::build_in(&Pool::new(1), &before);
        let keys: Vec<String> = after.iter().map(|(k, _)| k.clone()).collect();
        let docs: Vec<(DocId, String)> = [0, 2, 3].map(|i| (i, after[i].1.clone())).to_vec();
        let patched = old.patched(keys, &[Some(1), None, None], &docs);
        let built = SearchIndex::build_in(&Pool::new(1), &after);
        assert_eq!(patched, built);
        assert_eq!(patched.fingerprint(), built.fingerprint());
    }

    #[test]
    fn fingerprint_tracks_content() {
        let a = index();
        let mut b = index();
        assert_eq!(a.fingerprint(), b.fingerprint());
        b.add_document("Fieldsite:New", "fresh snow data");
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn try_scores_honors_ambient_deadline() {
        let ix = index();
        // No deadline: what the unchecked path ranks.
        assert_eq!(
            ix.top_k(ix.try_scores("temperature").expect("no budget set"), 10),
            ix.search("temperature", 10)
        );
        assert_eq!(
            ix.top_k(
                ix.try_scores_all_terms("temperature weissfluhjoch")
                    .expect("no budget set"),
                10
            ),
            ix.search_all_terms("temperature weissfluhjoch", 10)
        );
        // Expired deadline: the checked paths interrupt, the unchecked
        // paths still complete.
        let _scope = sensormeta_resil::deadline_scope(sensormeta_resil::Deadline::within(
            std::time::Duration::ZERO,
        ));
        std::thread::sleep(std::time::Duration::from_millis(2));
        assert_eq!(
            ix.try_scores("temperature"),
            Err(Interrupt::DeadlineExceeded)
        );
        assert_eq!(
            ix.try_scores_all_terms("temperature wind"),
            Err(Interrupt::DeadlineExceeded)
        );
        assert_eq!(ix.search("temperature", 10).len(), 2);
    }
}
