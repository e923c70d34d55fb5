//! # sensormeta-smr
//!
//! The Sensor Metadata Repository: a semantic-wiki metadata store in the
//! style of the paper's Semantic-MediaWiki deployment. Pages carry
//! (attribute, value) annotations, wiki links, tags, and revisioned bodies;
//! the relational engine is the system of record and every annotation/link
//! is mirrored into an RDF store so queries run as a combination of SQL and
//! SPARQL. Includes the bulk-loading interface (JSON-lines and CSV).
//!
//! ```
//! use sensormeta_smr::{Smr, PageDraft};
//!
//! let mut smr = Smr::new();
//! smr.create_page(
//!     PageDraft::new("Deployment:wfj_temp", "Deployment")
//!         .annotate("measuresQuantity", "temperature")
//!         .tag("snow"),
//! ).unwrap();
//! assert_eq!(smr.page_count(), 1);
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

pub mod error;
pub mod page;
pub mod repo;

pub use error::{Result, SmrError};
pub use page::{parse_csv, parse_jsonl, BulkReport, Page, PageDraft};
pub use repo::{link_graphs_of, push_out_edges, sql_escape, sql_float, RepoStats, Smr};
