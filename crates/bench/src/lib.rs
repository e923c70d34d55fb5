//! Shared inputs for the Criterion benches in `benches/`: the Fig. 3
//! PageRank instance and the synthetic corpus loaded into a repository.

use sensormeta_rank::{PageRankProblem, TransitionMatrix};
use sensormeta_smr::{PageDraft, Smr};
use sensormeta_workload::{barabasi_albert, generate_corpus, CorpusConfig};

/// The standard Fig. 3 PageRank instance at a given size.
pub fn fig3_problem(n: usize) -> PageRankProblem {
    let g = barabasi_albert(n, 3, 0.15, 2011);
    PageRankProblem::new(TransitionMatrix::from_graph(&g))
}

/// Tolerance used throughout the Fig. 3 reproduction.
pub const FIG3_TOL: f64 = 1e-9;

/// A repository bulk-loaded with the default synthetic corpus at
/// `institutions` institutions (seed 2011).
pub fn corpus_smr(institutions: usize) -> Smr {
    let pages = generate_corpus(&CorpusConfig {
        institutions,
        ..CorpusConfig::default()
    });
    let mut smr = Smr::new();
    let report = smr.bulk_load(pages.into_iter().map(|p| {
        let mut d = PageDraft::new(p.title, p.namespace).body(p.body);
        d.annotations = p.annotations;
        d.links = p.links;
        d.tags = p.tags;
        d
    }));
    assert!(report.errors.is_empty(), "{:?}", report.errors);
    smr
}
