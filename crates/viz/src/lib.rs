//! # sensormeta-viz
//!
//! Pure-Rust SVG visualization of search results, standing in for the
//! external services the demo wired together (Google Maps / Charts APIs,
//! GraphViz, the HyperGraph applet): bar/pie/line charts, clustered map
//! plots with match-degree coloring, force-directed and layered digraph
//! rendering, radial hypergraph browser snapshots, and tag clouds with
//! clique coloring.

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

pub mod chart;
pub mod graphviz;
pub mod hypergraph;
pub mod layout;
pub mod map;
pub mod svg;
pub mod tagcloud;

pub use chart::{bar_chart, line_chart, pie_chart, Datum};
pub use graphviz::{classify_by_neighbors, render_digraph, GraphLayout, GraphNode};
pub use hypergraph::{radial_embedding, render_hypergraph, HyperNode};
pub use layout::{force_layout, layered_layout, Positions};
pub use map::{cluster_markers, map_plot, Cluster, MapMarker, MapOptions};
pub use svg::{escape, match_degree_color, palette_color, SvgDoc, PALETTE};
pub use tagcloud::render_tag_cloud;
