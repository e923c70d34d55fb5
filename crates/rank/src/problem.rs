//! PageRank problem setup: transition matrices and the double-link model.
//!
//! Following the paper's Section III, the web graph adjacency matrix `A` is
//! row-normalized into `P` (`P_ij = A_ij / deg(i)`); dangling rows are patched
//! with a distribution `u` (Eq. 1) and teleportation is mixed in with
//! coefficient `c` (Eq. 2). The solvers work with the substochastic `Pᵀ`
//! stored explicitly in weighted CSR form (in-links with weights), which both
//! matvec-style methods (power, GMRES, BiCGSTAB, Arnoldi) and sweep-style
//! methods (Jacobi, Gauss–Seidel) can consume.
//!
//! The paper's non-trivial extension is the **double-link structure**: every
//! metadata page participates in a semantic (RDF property) link graph and a
//! plain hyperlink graph, and "not all of the metadata pages have semantic
//! attributes", so the two must be combined per page. [`TransitionMatrix::double_link`]
//! blends the two row distributions with weight `alpha`, falling back to
//! whichever structure a page actually has.

use sensormeta_graph::CsrGraph;
use sensormeta_par::Pool;

/// Rows per parallel matvec chunk. Fixed: chunk boundaries are part of the
/// determinism contract (see `sensormeta-par`), so results are bit-for-bit
/// identical at every thread count.
const ROW_CHUNK: usize = 512;
/// Elements per parallel reduction chunk (same contract).
const SUM_CHUNK: usize = 2048;

/// Transposed, row-substochastic transition matrix in weighted CSR form:
/// for each node `i`, the list of `(j, P_ji)` in-links. Dangling rows of `P`
/// are all-zero here; solvers handle them via normalization or an explicit
/// dangling correction.
#[derive(Debug, Clone)]
pub struct TransitionMatrix {
    n: usize,
    /// Row offsets into `src`/`weight` for each target node.
    offsets: Vec<usize>,
    /// Source node of each in-link.
    src: Vec<u32>,
    /// Transition probability P[src → target].
    weight: Vec<f64>,
    /// Nodes whose row of `P` sums to zero (dangling).
    dangling: Vec<usize>,
}

impl TransitionMatrix {
    /// Builds `Pᵀ` from a directed graph with uniform out-link weights.
    pub fn from_graph(g: &CsrGraph) -> TransitionMatrix {
        let n = g.node_count();
        let mut entries: Vec<Vec<(u32, f64)>> = vec![Vec::new(); n];
        for u in 0..n {
            let deg = g.out_degree(u);
            if deg == 0 {
                continue;
            }
            let w = 1.0 / deg as f64;
            for &v in g.neighbors(u) {
                entries[v].push((u as u32, w));
            }
        }
        Self::from_entries(n, entries, g.dangling_nodes())
    }

    /// Builds the paper's double-link transition: for each page, the
    /// out-distribution is `alpha`·(semantic links) + `(1−alpha)`·(hyperlinks),
    /// with full weight given to whichever structure exists when the other is
    /// missing. A page with neither is dangling.
    pub fn double_link(semantic: &CsrGraph, hyperlink: &CsrGraph, alpha: f64) -> TransitionMatrix {
        assert_eq!(
            semantic.node_count(),
            hyperlink.node_count(),
            "both link graphs must cover the same page set"
        );
        assert!((0.0..=1.0).contains(&alpha), "alpha must be in [0,1]");
        let n = semantic.node_count();
        let mut entries: Vec<Vec<(u32, f64)>> = vec![Vec::new(); n];
        let mut dangling = Vec::new();
        for u in 0..n {
            let ds = semantic.out_degree(u);
            let dh = hyperlink.out_degree(u);
            let (ws, wh) = match (ds, dh) {
                (0, 0) => {
                    dangling.push(u);
                    continue;
                }
                (_, 0) => (1.0, 0.0),
                (0, _) => (0.0, 1.0),
                _ => (alpha, 1.0 - alpha),
            };
            if ws > 0.0 {
                let w = ws / ds as f64;
                for &v in semantic.neighbors(u) {
                    entries[v].push((u as u32, w));
                }
            }
            if wh > 0.0 {
                let w = wh / dh as f64;
                for &v in hyperlink.neighbors(u) {
                    entries[v].push((u as u32, w));
                }
            }
        }
        Self::from_entries(n, entries, dangling)
    }

    fn from_entries(
        n: usize,
        entries: Vec<Vec<(u32, f64)>>,
        dangling: Vec<usize>,
    ) -> TransitionMatrix {
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0usize);
        let mut src = Vec::new();
        let mut weight = Vec::new();
        for mut row in entries {
            // Merge parallel entries (same source appearing in both link
            // structures pointing to the same target).
            row.sort_by_key(|(s, _)| *s);
            let mut merged: Vec<(u32, f64)> = Vec::with_capacity(row.len());
            for (s, w) in row {
                match merged.last_mut() {
                    Some((ls, lw)) if *ls == s => *lw += w,
                    _ => merged.push((s, w)),
                }
            }
            for (s, w) in merged {
                src.push(s);
                weight.push(w);
            }
            offsets.push(src.len());
        }
        TransitionMatrix {
            n,
            offsets,
            src,
            weight,
            dangling,
        }
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of stored transitions.
    pub fn nnz(&self) -> usize {
        self.src.len()
    }

    /// The dangling node list (indicator `d` of Eq. 1).
    pub fn dangling(&self) -> &[usize] {
        &self.dangling
    }

    /// Computes `y = Pᵀ x` (substochastic; dangling mass is dropped and must
    /// be re-injected by the caller when needed) on the global pool.
    pub fn matvec(&self, x: &[f64], y: &mut [f64]) {
        self.matvec_in(Pool::global(), x, y);
    }

    /// [`Self::matvec`] on an explicit pool: the output rows are partitioned
    /// into fixed-size chunks and filled in parallel. Each row is written by
    /// exactly one chunk, so the result is identical to a serial loop.
    pub fn matvec_in(&self, pool: &Pool, x: &[f64], y: &mut [f64]) {
        debug_assert_eq!(x.len(), self.n);
        debug_assert_eq!(y.len(), self.n);
        pool.par_chunks_mut(y, ROW_CHUNK, |_, base, rows| {
            for (r, yi) in rows.iter_mut().enumerate() {
                let i = base + r;
                let mut acc = 0.0;
                for k in self.offsets[i]..self.offsets[i + 1] {
                    acc += self.weight[k] * x[self.src[k] as usize];
                }
                *yi = acc;
            }
        });
    }

    /// In-links of node `i` as `(source, weight)` pairs — the access pattern
    /// Gauss–Seidel sweeps need.
    pub fn in_links(&self, i: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        (self.offsets[i]..self.offsets[i + 1]).map(move |k| (self.src[k] as usize, self.weight[k]))
    }

    /// Sum of dangling components of `x` (`dᵀx` of Eq. 4).
    pub fn dangling_mass(&self, x: &[f64]) -> f64 {
        self.dangling_mass_in(Pool::global(), x)
    }

    /// [`Self::dangling_mass`] on an explicit pool (deterministic chunked
    /// reduction).
    pub fn dangling_mass_in(&self, pool: &Pool, x: &[f64]) -> f64 {
        pool.par_sum(self.dangling.len(), SUM_CHUNK, |k| x[self.dangling[k]])
    }

    /// Verifies column-stochasticity of `Pᵀ` up to dangling columns; test
    /// support.
    pub fn check_substochastic(&self, tol: f64) -> bool {
        let mut colsum = vec![0.0f64; self.n];
        for i in 0..self.n {
            for k in self.offsets[i]..self.offsets[i + 1] {
                colsum[self.src[k] as usize] += self.weight[k];
            }
        }
        let is_dangling: Vec<bool> = {
            let mut v = vec![false; self.n];
            for &d in &self.dangling {
                v[d] = true;
            }
            v
        };
        colsum.iter().enumerate().all(|(j, &s)| {
            if is_dangling[j] {
                s.abs() < tol
            } else {
                (s - 1.0).abs() < tol
            }
        })
    }
}

/// A complete PageRank instance: matrix, teleportation coefficient `c`
/// (Eq. 2; the paper notes `0.85 ≤ c < 1` in practice), and the
/// teleportation/dangling distribution `u` (uniform unless personalized).
#[derive(Debug, Clone)]
pub struct PageRankProblem {
    /// The transposed transition matrix.
    pub matrix: TransitionMatrix,
    /// Teleportation coefficient `c`.
    pub c: f64,
    /// Teleportation distribution `u` (sums to 1).
    pub u: Vec<f64>,
}

impl PageRankProblem {
    /// Standard problem: uniform teleportation, `c = 0.85`.
    pub fn new(matrix: TransitionMatrix) -> PageRankProblem {
        Self::with_c(matrix, 0.85)
    }

    /// Problem with explicit `c`.
    pub fn with_c(matrix: TransitionMatrix, c: f64) -> PageRankProblem {
        assert!((0.0..1.0).contains(&c), "teleportation c must be in [0,1)");
        let n = matrix.n();
        let u = vec![1.0 / n.max(1) as f64; n];
        PageRankProblem { matrix, c, u }
    }

    /// Personalized problem: `u` is normalized to sum 1.
    pub fn personalized(matrix: TransitionMatrix, c: f64, mut u: Vec<f64>) -> PageRankProblem {
        assert_eq!(u.len(), matrix.n());
        let sum: f64 = u.iter().sum();
        assert!(sum > 0.0, "personalization vector must have positive mass");
        for v in &mut u {
            *v /= sum;
        }
        PageRankProblem { matrix, c, u }
    }

    /// Number of pages.
    pub fn n(&self) -> usize {
        self.matrix.n()
    }

    /// One full Google-matrix application: `y = (P″)ᵀ x` of Eq. 3, i.e.
    /// `c·Pᵀx + c·u·(dᵀx) + (1−c)·u·(eᵀx)`, on the global pool.
    pub fn google_matvec(&self, x: &[f64], y: &mut [f64]) {
        self.google_matvec_in(Pool::global(), x, y);
    }

    /// [`Self::google_matvec`] on an explicit pool. The matvec, the two
    /// mass reductions and the teleportation mix each run as deterministic
    /// chunked regions.
    pub fn google_matvec_in(&self, pool: &Pool, x: &[f64], y: &mut [f64]) {
        self.matrix.matvec_in(pool, x, y);
        let dangling = self.matrix.dangling_mass_in(pool, x);
        let total = pool.par_sum(x.len(), SUM_CHUNK, |i| x[i]);
        let correction = self.c * dangling + (1.0 - self.c) * total;
        let c = self.c;
        let u = &self.u;
        pool.par_chunks_mut(y, ROW_CHUNK, |_, base, ys| {
            for (r, yi) in ys.iter_mut().enumerate() {
                *yi = c * *yi + correction * u[base + r];
            }
        });
    }

    /// Residual of a candidate solution under the eigen formulation:
    /// `‖(P″)ᵀ x − x‖₁` for the L1-normalized `x`.
    pub fn residual(&self, x: &[f64]) -> f64 {
        self.residual_in(Pool::global(), x)
    }

    /// [`Self::residual`] on an explicit pool.
    pub fn residual_in(&self, pool: &Pool, x: &[f64]) -> f64 {
        let sum: f64 = x.iter().sum();
        if sum <= 0.0 {
            return f64::INFINITY;
        }
        let xn: Vec<f64> = x.iter().map(|v| v / sum).collect();
        let mut y = vec![0.0; self.n()];
        self.google_matvec_in(pool, &xn, &mut y);
        pool.par_sum(y.len(), SUM_CHUNK, |i| (y[i] - xn[i]).abs())
    }
}

#[cfg(test)]
#[allow(
    clippy::float_cmp,
    reason = "the tests compare bit-identical floats on purpose"
)]
mod tests {
    use super::*;

    fn chain_with_dangling() -> CsrGraph {
        // 0 → 1 → 2 (2 dangling), 0 → 2
        CsrGraph::from_edges(3, &[(0, 1), (0, 2), (1, 2)], false)
    }

    #[test]
    fn matrix_shape_and_dangling() {
        let m = TransitionMatrix::from_graph(&chain_with_dangling());
        assert_eq!(m.n(), 3);
        assert_eq!(m.nnz(), 3);
        assert_eq!(m.dangling(), &[2]);
        assert!(m.check_substochastic(1e-12));
    }

    #[test]
    fn matvec_distributes_rank() {
        let m = TransitionMatrix::from_graph(&chain_with_dangling());
        let x = vec![1.0, 0.0, 0.0];
        let mut y = vec![0.0; 3];
        m.matvec(&x, &mut y);
        assert_eq!(y, vec![0.0, 0.5, 0.5]);
    }

    #[test]
    fn google_matvec_preserves_total_mass() {
        let m = TransitionMatrix::from_graph(&chain_with_dangling());
        let p = PageRankProblem::new(m);
        let x = vec![1.0 / 3.0; 3];
        let mut y = vec![0.0; 3];
        p.google_matvec(&x, &mut y);
        let sum: f64 = y.iter().sum();
        assert!(
            (sum - 1.0).abs() < 1e-12,
            "P'' is stochastic, mass preserved"
        );
    }

    #[test]
    fn double_link_blends_structures() {
        // Page 0 has both structures; page 1 only hyperlinks; page 2 neither.
        let sem = CsrGraph::from_edges(3, &[(0, 1)], false);
        let hyp = CsrGraph::from_edges(3, &[(0, 2), (1, 2)], false);
        let m = TransitionMatrix::double_link(&sem, &hyp, 0.7);
        assert_eq!(m.dangling(), &[2]);
        assert!(m.check_substochastic(1e-12));
        // Row 0 of P: 0.7 to page 1 (semantic), 0.3 to page 2 (hyperlink).
        let x = vec![1.0, 0.0, 0.0];
        let mut y = vec![0.0; 3];
        m.matvec(&x, &mut y);
        assert!((y[1] - 0.7).abs() < 1e-12);
        assert!((y[2] - 0.3).abs() < 1e-12);
    }

    #[test]
    fn double_link_fallback_when_one_missing() {
        let sem = CsrGraph::from_edges(2, &[], false);
        let hyp = CsrGraph::from_edges(2, &[(0, 1)], false);
        let m = TransitionMatrix::double_link(&sem, &hyp, 0.9);
        let x = vec![1.0, 0.0];
        let mut y = vec![0.0; 2];
        m.matvec(&x, &mut y);
        assert!((y[1] - 1.0).abs() < 1e-12, "hyperlink gets full weight");
    }

    #[test]
    fn double_link_merges_parallel_edges() {
        // Same edge in both structures: weights must merge into one entry.
        let sem = CsrGraph::from_edges(2, &[(0, 1)], false);
        let hyp = CsrGraph::from_edges(2, &[(0, 1)], false);
        let m = TransitionMatrix::double_link(&sem, &hyp, 0.5);
        assert_eq!(m.nnz(), 1);
        let x = vec![1.0, 0.0];
        let mut y = vec![0.0; 2];
        m.matvec(&x, &mut y);
        assert!((y[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn personalization_normalizes() {
        let m = TransitionMatrix::from_graph(&chain_with_dangling());
        let p = PageRankProblem::personalized(m, 0.85, vec![2.0, 0.0, 2.0]);
        assert!((p.u.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert_eq!(p.u[1], 0.0);
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn bad_alpha_panics() {
        let g = CsrGraph::from_edges(1, &[], false);
        TransitionMatrix::double_link(&g, &g, 1.5);
    }
}
