//! # sensormeta-rank
//!
//! The paper's ranking layer: PageRank over the **double linking structure**
//! of metadata pages (semantic RDF-property links + ordinary hyperlinks),
//! with the eigen formulation (Eq. 3) and the linear-system formulation
//! (Eq. 5) solved by six iterative methods — power iteration, Jacobi,
//! Gauss–Seidel, restarted GMRES, Arnoldi, and BiCGSTAB — plus the
//! property-authority recommendation mechanism.
//!
//! ```
//! use sensormeta_graph::CsrGraph;
//! use sensormeta_rank::{PageRankProblem, TransitionMatrix, Solver, GaussSeidel};
//!
//! let g = CsrGraph::from_edges(3, &[(0, 1), (1, 2), (2, 0)], false);
//! let p = PageRankProblem::new(TransitionMatrix::from_graph(&g));
//! let r = GaussSeidel.solve(&p, 1e-10, 1000);
//! assert!(r.converged);
//! assert!((r.x.iter().sum::<f64>() - 1.0).abs() < 1e-9);
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

pub mod problem;
pub mod recommend;
pub mod solvers;

pub use problem::{PageRankProblem, TransitionMatrix};
pub use recommend::{Recommendation, Recommender};
pub use solvers::{
    all_solvers, Arnoldi, BiCgStab, GaussSeidel, Gmres, Jacobi, PowerIteration, SolveResult,
    Solver, Sor,
};
