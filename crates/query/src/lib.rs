//! # sensormeta-query
//!
//! The Query Management module of the paper's architecture (Fig. 1): the
//! advanced-search form model, privilege enforcement, combined SQL, SPARQL
//! and full-text execution over the SMR, PageRank-blended ranking (solved
//! with Gauss-Seidel over the double-link structure), faceting, and the
//! recommendation mechanism.
//!
//! ```
//! use sensormeta_query::{QueryEngine, SearchForm};
//! use sensormeta_smr::{PageDraft, Smr};
//!
//! let mut smr = Smr::new();
//! smr.create_page(PageDraft::new("Deployment:wfj", "Deployment")
//!     .body("temperature sensor")).unwrap();
//! let engine = QueryEngine::open(smr).unwrap();
//! let out = engine.search(&SearchForm::keywords("temperature"), None).unwrap();
//! assert_eq!(out.items[0].title, "Deployment:wfj");
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

pub mod acl;
pub mod engine;
pub mod error;
mod facts;
pub mod form;
pub mod result;

pub use acl::{Acl, PUBLIC_GROUP};
pub use engine::{QueryEngine, RankBlend, ScatterTrace, SearchOptions, ShardPartial};
pub use error::{QueryError, Result};
pub use form::{CondOp, Condition, SearchForm, SortBy};
pub use result::{FacetCount, QueryOutput, RecommendedPage, ResultItem};
