//! # sensormeta-server
//!
//! The demo web application of the paper's Section V: an HTTP/1.1 server
//! written directly on `std::net` exposing the advanced search interface
//! (keyword + structured conditions + autocomplete), per-page views, the
//! bulk-loading interface, live visualizations (bar, pie, clustered map,
//! association graph, hypergraph) and real-time tag clouds.
//!
//! Start one with [`serve`]; see `examples/demo_server.rs` at the workspace
//! root for an end-to-end run over the synthetic Swiss-Experiment corpus.

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
#![allow(
    clippy::disallowed_methods,
    reason = "the server owns its accept loop and its connection handler threads"
)]

pub mod app;
pub mod http;
pub mod server;

pub use app::{App, AppConfig};
pub use http::{parse_query, url_decode, url_encode, Request, Response};
pub use server::{serve, serve_with, ServeConfig, Server, DEFAULT_WORKERS};
