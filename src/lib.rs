//! # sensormeta
//!
//! Umbrella crate for the reproduction of *"Advanced Search, Visualization
//! and Tagging of Sensor Metadata"* (Paparrizos, Jeung, Aberer — ICDE 2011):
//! re-exports every subsystem so downstream users can depend on one crate.
//!
//! - [`relstore`] — embedded relational engine (the MySQL stand-in)
//! - [`rdf`] — triple store + SPARQL subset (the RDF export stand-in)
//! - [`graph`] — shared graph toolkit
//! - [`rank`] — double-link PageRank, six solvers, recommendations
//! - [`smr`] — the Sensor Metadata Repository (semantic wiki layer)
//! - [`search`] — BM25 full-text, autocomplete, facets
//! - [`query`] — the Query Management module (SQL + SPARQL + ranking + ACL)
//! - [`tagging`] — the Dynamic Tagging System (cosine graphs, Bron–Kerbosch, Eq. 6)
//! - [`viz`] — SVG charts, maps, graphs, hypergraphs, tag clouds
//! - [`server`] — the demo HTTP application
//! - [`workload`] — synthetic Swiss-Experiment corpus & web-graph generators
//! - [`obs`] — metrics, spans and Prometheus-style exposition
//! - [`par`] — deterministic work-chunked thread pool behind the hot paths
//! - [`cache`] — epoch-invalidated result cache shared by query and tagging
//!
//! ```
//! use sensormeta::smr::{PageDraft, Smr};
//! use sensormeta::query::{QueryEngine, SearchForm};
//!
//! let mut smr = Smr::new();
//! smr.create_page(PageDraft::new("Deployment:d1", "Deployment")
//!     .body("wind sensor")).unwrap();
//! let engine = QueryEngine::open(smr).unwrap();
//! assert_eq!(engine.search(&SearchForm::keywords("wind"), None).unwrap().items.len(), 1);
//! ```

#![warn(missing_docs)]

pub use sensormeta_cache as cache;
pub use sensormeta_cluster as cluster;
pub use sensormeta_graph as graph;
pub use sensormeta_obs as obs;
pub use sensormeta_par as par;
pub use sensormeta_query as query;
pub use sensormeta_rank as rank;
pub use sensormeta_rdf as rdf;
pub use sensormeta_relstore as relstore;
pub use sensormeta_resil as resil;
pub use sensormeta_search as search;
pub use sensormeta_server as server;
pub use sensormeta_smr as smr;
pub use sensormeta_tagging as tagging;
pub use sensormeta_viz as viz;
pub use sensormeta_workload as workload;

/// Builds an [`smr::Smr`] pre-loaded with the synthetic Swiss-Experiment
/// corpus at the given scale — the quickest path to a populated system.
pub fn demo_repository(cfg: &workload::CorpusConfig) -> smr::Smr {
    let mut repo = smr::Smr::new();
    let report = repo.bulk_load(workload::generate_corpus(cfg).into_iter().map(|p| {
        let mut d = smr::PageDraft::new(p.title, p.namespace).body(p.body);
        d.annotations = p.annotations;
        d.links = p.links;
        d.tags = p.tags;
        d
    }));
    debug_assert!(report.errors.is_empty(), "{:?}", report.errors);
    repo
}
