//! # sensormeta-search
//!
//! Full-text search substrate for metadata pages: tokenizer with light
//! stemming, positional inverted index with BM25 scoring (disjunctive,
//! conjunctive and phrase modes), weighted prefix-trie autocomplete, and
//! spelling suggestions.
//!
//! ```
//! use sensormeta_search::SearchIndex;
//!
//! let mut ix = SearchIndex::new();
//! ix.add_document("Deployment:wfj", "temperature sensor at Weissfluhjoch");
//! let hits = ix.search("temperature", 5);
//! assert_eq!(hits[0].key, "Deployment:wfj");
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

pub mod autocomplete;
pub mod highlight;
pub mod index;
pub mod suggest;
pub mod tokenize;

pub use autocomplete::Autocomplete;
pub use highlight::{highlight, highlight_html};
pub use index::{Bm25Params, DocId, Hit, SearchIndex};
pub use suggest::{damerau_levenshtein_capped, SpellSuggester};
pub use tokenize::{normalize, tokenize};
