//! The triple store: dictionary-encoded triples under SPO/POS/OSP indexes.

use crate::term::{Term, TermDict, TermId};
use std::collections::BTreeSet;
use std::ops::Bound;
use std::sync::Arc;

/// A triple of interned term ids.
pub type IdTriple = (TermId, TermId, TermId);

/// An optionally-bound triple pattern over ids (`None` = wildcard).
pub type IdPattern = (Option<TermId>, Option<TermId>, Option<TermId>);

/// A dictionary-encoded RDF graph with three full orderings, so every
/// pattern shape is answered by a range scan on its best index.
///
/// The dictionary and all three orderings sit behind `Arc`, so cloning the
/// store (an MVCC reader version) is four refcount bumps; a writer's next
/// mutation copies only the structures it touches (`Arc::make_mut`).
#[derive(Debug, Default, Clone)]
pub struct TripleStore {
    dict: Arc<TermDict>,
    spo: Arc<BTreeSet<(TermId, TermId, TermId)>>,
    pos: Arc<BTreeSet<(TermId, TermId, TermId)>>,
    osp: Arc<BTreeSet<(TermId, TermId, TermId)>>,
}

impl TripleStore {
    /// Creates an empty store.
    pub fn new() -> TripleStore {
        TripleStore::default()
    }

    /// Number of triples.
    pub fn len(&self) -> usize {
        self.spo.len()
    }

    /// True when the store holds no triples.
    pub fn is_empty(&self) -> bool {
        self.spo.is_empty()
    }

    /// Access to the term dictionary.
    pub fn dict(&self) -> &TermDict {
        &self.dict
    }

    /// Interns a term (exposed for query preparation).
    pub fn intern(&mut self, term: Term) -> TermId {
        Arc::make_mut(&mut self.dict).intern(term)
    }

    /// Inserts a triple of terms. Returns true if it was new.
    pub fn insert(&mut self, s: Term, p: Term, o: Term) -> bool {
        let dict = Arc::make_mut(&mut self.dict);
        let s = dict.intern(s);
        let p = dict.intern(p);
        let o = dict.intern(o);
        self.insert_ids((s, p, o))
    }

    /// Inserts an id triple. Returns true if it was new.
    pub fn insert_ids(&mut self, (s, p, o): IdTriple) -> bool {
        if !Arc::make_mut(&mut self.spo).insert((s, p, o)) {
            return false;
        }
        Arc::make_mut(&mut self.pos).insert((p, o, s));
        Arc::make_mut(&mut self.osp).insert((o, s, p));
        debug_assert!(
            self.pos.len() == self.spo.len() && self.osp.len() == self.spo.len(),
            "index orderings diverged on insert"
        );
        true
    }

    /// Removes a triple of terms. Returns true if it existed.
    pub fn remove(&mut self, s: &Term, p: &Term, o: &Term) -> bool {
        let (Some(s), Some(p), Some(o)) =
            (self.dict.id_of(s), self.dict.id_of(p), self.dict.id_of(o))
        else {
            return false;
        };
        if !Arc::make_mut(&mut self.spo).remove(&(s, p, o)) {
            return false;
        }
        Arc::make_mut(&mut self.pos).remove(&(p, o, s));
        Arc::make_mut(&mut self.osp).remove(&(o, s, p));
        debug_assert!(
            self.pos.len() == self.spo.len() && self.osp.len() == self.spo.len(),
            "index orderings diverged on remove"
        );
        true
    }

    /// Removes every triple with the given subject. Returns the count.
    pub fn remove_subject(&mut self, s: &Term) -> usize {
        let Some(sid) = self.dict.id_of(s) else {
            return 0;
        };
        let doomed: Vec<IdTriple> = self.match_ids((Some(sid), None, None)).collect();
        if !doomed.is_empty() {
            let spo = Arc::make_mut(&mut self.spo);
            let pos = Arc::make_mut(&mut self.pos);
            let osp = Arc::make_mut(&mut self.osp);
            for (s, p, o) in &doomed {
                spo.remove(&(*s, *p, *o));
                pos.remove(&(*p, *o, *s));
                osp.remove(&(*o, *s, *p));
            }
        }
        doomed.len()
    }

    /// True if the exact triple is present.
    pub fn contains(&self, s: &Term, p: &Term, o: &Term) -> bool {
        match (self.dict.id_of(s), self.dict.id_of(p), self.dict.id_of(o)) {
            (Some(s), Some(p), Some(o)) => self.spo.contains(&(s, p, o)),
            _ => false,
        }
    }

    /// Matches a pattern of ids, choosing the index whose sort order makes the
    /// bound prefix contiguous.
    pub fn match_ids(&self, pattern: IdPattern) -> Box<dyn Iterator<Item = IdTriple> + '_> {
        let (s, p, o) = pattern;
        match (s, p, o) {
            // Fully bound: membership test.
            (Some(s), Some(p), Some(o)) => {
                if self.spo.contains(&(s, p, o)) {
                    Box::new(std::iter::once((s, p, o)))
                } else {
                    Box::new(std::iter::empty())
                }
            }
            // S bound (P maybe): SPO index.
            (Some(s), p, o) => Box::new(
                range2(&self.spo, s, p)
                    .filter(move |(_, _, to)| o.is_none_or(|o| *to == o))
                    .copied(),
            ),
            // P bound: POS index.
            (None, Some(p), o) => Box::new(range2(&self.pos, p, o).map(|(p, o, s)| (*s, *p, *o))),
            // Only O bound: OSP index.
            (None, None, Some(o)) => {
                Box::new(range2(&self.osp, o, None).map(|(o, s, p)| (*s, *p, *o)))
            }
            // Nothing bound: full scan.
            (None, None, None) => Box::new(self.spo.iter().copied()),
        }
    }

    /// Matches a pattern of terms, decoding results back to terms.
    pub fn match_terms(
        &self,
        s: Option<&Term>,
        p: Option<&Term>,
        o: Option<&Term>,
    ) -> Vec<(Term, Term, Term)> {
        let to_id = |t: Option<&Term>| -> Option<Option<TermId>> {
            match t {
                None => Some(None),
                // A term that was never interned matches nothing.
                Some(t) => self.dict.id_of(t).map(Some),
            }
        };
        let (Some(s), Some(p), Some(o)) = (to_id(s), to_id(p), to_id(o)) else {
            return Vec::new();
        };
        self.match_ids((s, p, o))
            .filter_map(|(s, p, o)| {
                // Index invariants guarantee every id is interned; skip rather
                // than panic if a corrupted store ever violates that.
                Some((
                    self.dict.term(s)?.clone(),
                    self.dict.term(p)?.clone(),
                    self.dict.term(o)?.clone(),
                ))
            })
            .collect()
    }

    /// All distinct subjects.
    pub fn subjects(&self) -> Vec<TermId> {
        let mut out: Vec<TermId> = Vec::new();
        for (s, _, _) in self.spo.iter() {
            if out.last() != Some(s) {
                out.push(*s);
            }
        }
        out
    }

    /// All distinct predicates with their triple counts (used by the
    /// recommendation engine's property scoring).
    pub fn predicate_counts(&self) -> Vec<(TermId, usize)> {
        let mut out: Vec<(TermId, usize)> = Vec::new();
        for (p, _, _) in self.pos.iter() {
            match out.last_mut() {
                Some((last, n)) if last == p => *n += 1,
                _ => out.push((*p, 1)),
            }
        }
        out
    }

    /// Iterates all triples in SPO order.
    pub fn iter(&self) -> impl Iterator<Item = IdTriple> + '_ {
        self.spo.iter().copied()
    }

    /// Deep structural check (fsck): the three index orderings must hold the
    /// same triple set, every id must resolve in the dictionary, and the
    /// dictionary must be a bijection. Returns every violated invariant.
    pub fn check_invariants(&self) -> Result<(), Vec<String>> {
        let mut problems = Vec::new();
        if self.pos.len() != self.spo.len() || self.osp.len() != self.spo.len() {
            problems.push(format!(
                "index cardinalities disagree: spo={} pos={} osp={}",
                self.spo.len(),
                self.pos.len(),
                self.osp.len()
            ));
        }
        for &(s, p, o) in self.spo.iter() {
            if !self.pos.contains(&(p, o, s)) {
                problems.push(format!("triple ({s:?}, {p:?}, {o:?}) missing from POS"));
            }
            if !self.osp.contains(&(o, s, p)) {
                problems.push(format!("triple ({s:?}, {p:?}, {o:?}) missing from OSP"));
            }
            for id in [s, p, o] {
                if self.dict.term(id).is_none() {
                    problems.push(format!("dangling term id {id:?} in triple"));
                }
            }
        }
        // With equal cardinalities and spo ⊆ pos, spo ⊆ osp, the sets are
        // identical — no reverse sweep needed.
        for (id, term) in self.dict.iter() {
            match self.dict.id_of(term) {
                Some(back) if back == id => {}
                Some(back) => problems.push(format!(
                    "dictionary not a bijection: {term} interns to {back:?} but is stored at {id:?}"
                )),
                None => problems.push(format!(
                    "dictionary not a bijection: {term} at {id:?} has no reverse mapping"
                )),
            }
        }
        if problems.is_empty() {
            Ok(())
        } else {
            Err(problems)
        }
    }
}

/// Range over a BTreeSet of id-triples where the first component equals `a`
/// and, if given, the second equals `b`.
fn range2(
    set: &BTreeSet<(TermId, TermId, TermId)>,
    a: TermId,
    b: Option<TermId>,
) -> impl Iterator<Item = &(TermId, TermId, TermId)> {
    let min = TermId(0);
    let lo = match b {
        Some(b) => (a, b, min),
        None => (a, min, min),
    };
    set.range((Bound::Included(lo), Bound::Unbounded))
        .take_while(move |(x, y, _)| *x == a && b.is_none_or(|b| *y == b))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> TripleStore {
        let mut st = TripleStore::new();
        let wfj = Term::iri("ex:wfj");
        let davos = Term::iri("ex:davos");
        let kind = Term::iri("ex:hasSensor");
        let loc = Term::iri("ex:locatedIn");
        st.insert(wfj.clone(), kind.clone(), Term::lit("temperature"));
        st.insert(wfj.clone(), kind.clone(), Term::lit("wind"));
        st.insert(wfj.clone(), loc.clone(), Term::lit("GR"));
        st.insert(davos.clone(), kind.clone(), Term::lit("temperature"));
        st.insert(davos, loc, Term::lit("GR"));
        st
    }

    #[test]
    fn insert_dedupes() {
        let mut st = TripleStore::new();
        assert!(st.insert(Term::iri("a"), Term::iri("b"), Term::lit("c")));
        assert!(!st.insert(Term::iri("a"), Term::iri("b"), Term::lit("c")));
        assert_eq!(st.len(), 1);
    }

    #[test]
    fn pattern_shapes_agree() {
        let st = store();
        // s?? — all triples about wfj.
        assert_eq!(
            st.match_terms(Some(&Term::iri("ex:wfj")), None, None).len(),
            3
        );
        // ?p? — all hasSensor triples.
        assert_eq!(
            st.match_terms(None, Some(&Term::iri("ex:hasSensor")), None)
                .len(),
            3
        );
        // ??o — everything pointing at "GR".
        assert_eq!(st.match_terms(None, None, Some(&Term::lit("GR"))).len(), 2);
        // sp? — wfj's sensors.
        assert_eq!(
            st.match_terms(
                Some(&Term::iri("ex:wfj")),
                Some(&Term::iri("ex:hasSensor")),
                None
            )
            .len(),
            2
        );
        // ?po — who has temperature.
        assert_eq!(
            st.match_terms(
                None,
                Some(&Term::iri("ex:hasSensor")),
                Some(&Term::lit("temperature"))
            )
            .len(),
            2
        );
        // spo exact.
        assert!(st.contains(
            &Term::iri("ex:davos"),
            &Term::iri("ex:locatedIn"),
            &Term::lit("GR")
        ));
        // full scan.
        assert_eq!(st.match_terms(None, None, None).len(), 5);
    }

    #[test]
    fn unknown_terms_match_nothing() {
        let st = store();
        assert!(st
            .match_terms(Some(&Term::iri("ex:nowhere")), None, None)
            .is_empty());
        assert!(!st.contains(&Term::iri("x"), &Term::iri("y"), &Term::lit("z")));
    }

    #[test]
    fn remove_keeps_indexes_consistent() {
        let mut st = store();
        assert!(st.remove(
            &Term::iri("ex:wfj"),
            &Term::iri("ex:hasSensor"),
            &Term::lit("wind")
        ));
        assert!(!st.remove(
            &Term::iri("ex:wfj"),
            &Term::iri("ex:hasSensor"),
            &Term::lit("wind")
        ));
        assert_eq!(st.len(), 4);
        // All three indexes agree after removal.
        assert_eq!(
            st.match_terms(None, None, Some(&Term::lit("wind"))).len(),
            0
        );
        assert_eq!(
            st.match_terms(None, Some(&Term::iri("ex:hasSensor")), None)
                .len(),
            2
        );
    }

    #[test]
    fn remove_subject_removes_all() {
        let mut st = store();
        assert_eq!(st.remove_subject(&Term::iri("ex:wfj")), 3);
        assert_eq!(st.len(), 2);
        assert_eq!(st.remove_subject(&Term::iri("ex:wfj")), 0);
    }

    #[test]
    fn predicate_counts() {
        let st = store();
        let counts = st.predicate_counts();
        let total: usize = counts.iter().map(|(_, n)| n).sum();
        assert_eq!(total, 5);
        assert_eq!(counts.len(), 2);
    }

    #[test]
    fn subjects_deduped() {
        let st = store();
        assert_eq!(st.subjects().len(), 2);
    }

    #[test]
    fn fsck_detects_corruption() {
        let st = store();
        assert_eq!(st.check_invariants(), Ok(()));

        // A triple smuggled into SPO alone desynchronizes the orderings.
        let mut lopsided = store();
        let s = lopsided.intern(Term::iri("ex:rogue"));
        let p = lopsided.intern(Term::iri("ex:p"));
        let o = lopsided.intern(Term::lit("x"));
        Arc::make_mut(&mut lopsided.spo).insert((s, p, o));
        let problems = lopsided.check_invariants().unwrap_err();
        assert!(
            problems
                .iter()
                .any(|m| m.contains("cardinalities disagree")),
            "{problems:?}"
        );
        assert!(
            problems.iter().any(|m| m.contains("missing from POS")),
            "{problems:?}"
        );

        // A triple referencing an id the dictionary never issued.
        let mut dangling = store();
        let ghost = TermId(9999);
        Arc::make_mut(&mut dangling.spo).insert((ghost, ghost, ghost));
        Arc::make_mut(&mut dangling.pos).insert((ghost, ghost, ghost));
        Arc::make_mut(&mut dangling.osp).insert((ghost, ghost, ghost));
        let problems = dangling.check_invariants().unwrap_err();
        assert!(
            problems.iter().any(|m| m.contains("dangling term id")),
            "{problems:?}"
        );
    }
}
