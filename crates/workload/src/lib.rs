//! # sensormeta-workload
//!
//! Deterministic synthetic workloads standing in for the Swiss Experiment
//! platform's live data: web-link graphs for the ranking experiments
//! (Barabási–Albert with dangling injection, Erdős–Rényi), the paper's
//! double-link structure with partial semantic coverage, a full
//! metadata-page corpus (institutions → projects → field sites →
//! deployments), and keyword query workloads. Everything reproduces exactly
//! from a seed.

#![warn(missing_docs)]
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::print_stdout,
    clippy::print_stderr,
    clippy::dbg_macro,
    clippy::float_cmp
)]

pub mod corpus;
pub mod webgraph;

pub use corpus::{generate_corpus, query_workload, CorpusConfig, PageSpec};
pub use webgraph::{barabasi_albert, double_link_pair, erdos_renyi};
