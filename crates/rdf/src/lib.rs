//! # sensormeta-rdf
//!
//! A dictionary-encoded RDF triple store with SPO/POS/OSP indexes, a
//! Turtle-subset parser/serializer, and a SPARQL-subset query engine
//! (BGP joins, FILTER, OPTIONAL, ORDER BY/LIMIT/OFFSET/DISTINCT).
//!
//! In the paper's architecture this crate plays the role of the RDF graph
//! export of Semantic MediaWiki: metadata annotations are mirrored here and
//! queried "using a combination of SQL and SPARQL".
//!
//! ```
//! use sensormeta_rdf::{TripleStore, Term, load_turtle, parse_sparql, evaluate};
//!
//! let mut store = TripleStore::new();
//! load_turtle(&mut store, r#"
//!     @prefix ex: <http://e/> .
//!     ex:wfj ex:elev 2693 .
//!     ex:davos ex:elev 1594 .
//! "#).unwrap();
//! let q = parse_sparql(
//!     "PREFIX ex: <http://e/> SELECT ?s WHERE { ?s ex:elev ?e . FILTER(?e > 2000) }"
//! ).unwrap();
//! let sols = evaluate(&store, &q).unwrap();
//! assert_eq!(sols.len(), 1);
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
    clippy::float_cmp,
    clippy::cast_possible_truncation
)]
#![warn(missing_debug_implementations)]

pub mod error;
pub mod sparql;
pub mod store;
pub mod term;
pub mod turtle;

pub use error::{RdfError, Result};
pub use sparql::ast::SelectQuery;
pub use sparql::exec::{evaluate, Solutions};
pub use sparql::parser::parse_sparql;
pub use store::TripleStore;
pub use term::{Term, TermDict, TermId};
pub use turtle::{load_turtle, parse_turtle, to_turtle};
