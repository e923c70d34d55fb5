//! # sensormeta-tagging
//!
//! The paper's Dynamic Tagging System (Section IV, Fig. 4): a tag store fed
//! from the SMR, cosine-similarity matrix transformation with the 0.5
//! threshold, tag graphs, Bron–Kerbosch maximal-clique enumeration (naive /
//! pivoting / degeneracy variants), the Eq. 6 font-size formula with its
//! clique-promotion term, and a cloud cache stamped with the tag version.
//!
//! ```
//! use sensormeta_tagging::{TagStore, CloudParams, compute_cloud};
//!
//! let mut store = TagStore::new();
//! store.ingest([("page1", "snow"), ("page2", "snow"), ("page2", "avalanche")]);
//! let cloud = compute_cloud(&store, &CloudParams::default());
//! assert_eq!(cloud.entries.len(), 2);
//! ```

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

pub mod cache;
pub mod clique;
pub mod cloud;
pub mod fontsize;
pub mod similarity;
pub mod store;
pub mod suggest;
pub mod symmatrix;

pub use cache::CloudCache;
pub use clique::{
    brute_force_maximal_cliques, clique_membership, maximal_cliques, BkStats, BkVariant,
};
pub use cloud::{compute_cloud, CloudParams, TagCloud, TagEntry};
pub use fontsize::{font_size, font_size_frequency_only, FontScale, FontSizeInput};
pub use similarity::{
    check_similarity_graph, cosine, similarity_graph, similarity_graph_from, similarity_matrix,
    similarity_matrix_in, DEFAULT_THRESHOLD,
};
pub use store::TagStore;
pub use suggest::{suggest_tags, TagSuggestion};
pub use symmatrix::SymMatrix;
