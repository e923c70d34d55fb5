//! # sensormeta-graph
//!
//! Shared graph toolkit: CSR directed graphs for the ranking kernels,
//! label↔id mapping for metadata page graphs, set-adjacency undirected
//! graphs for tag-similarity structures, and common algorithms (Tarjan SCC,
//! degree statistics, degeneracy ordering).

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
#![warn(missing_debug_implementations)]

pub mod algo;
pub mod csr;
pub mod labeled;
pub mod undirected;

pub use algo::{degree_histogram, powerlaw_exponent, tarjan_scc};
pub use csr::CsrGraph;
pub use labeled::LabeledGraph;
pub use undirected::UndirectedGraph;
