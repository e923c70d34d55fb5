//! Restarted GMRES (Generalized Minimum Residual) on the linear system.

use super::{apply_a, dot, norm2, rhs, stop_requested, SolveResult, Solver, VEC_CHUNK};
use crate::problem::PageRankProblem;
use sensormeta_par::Pool;

/// GMRES(m): builds an orthonormal Krylov basis of `A = I − cPᵀ` with Arnoldi
/// (modified Gram–Schmidt), reduces the Hessenberg least-squares problem with
/// Givens rotations, and restarts every `restart` steps. One iteration = one
/// inner Arnoldi step = one matvec. Residual: relative `‖b − Ax‖₂ / ‖b‖₂`,
/// available for free from the rotated right-hand side.
#[derive(Debug, Clone, Copy)]
pub struct Gmres {
    /// Restart length `m`.
    pub restart: usize,
}

impl Default for Gmres {
    fn default() -> Self {
        Gmres { restart: 30 }
    }
}

impl Solver for Gmres {
    fn name(&self) -> &'static str {
        "GMRES"
    }

    fn solve_in(
        &self,
        pool: &Pool,
        problem: &PageRankProblem,
        tol: f64,
        max_iter: usize,
    ) -> SolveResult {
        let n = problem.n();
        let m = self.restart.max(1);
        let b = rhs(problem);
        let bnorm = norm2(pool, &b).max(f64::MIN_POSITIVE);
        let mut x = problem.u.clone();
        let mut residuals = Vec::new();
        let mut matvecs = 0usize;
        let mut iterations = 0usize;
        let mut converged = false;
        let mut interrupted = false;

        'outer: while iterations < max_iter {
            if stop_requested() {
                interrupted = true;
                break;
            }
            // r = b − A x
            let mut r = vec![0.0; n];
            apply_a(pool, problem, &x, &mut r);
            matvecs += 1;
            {
                let b = &b;
                pool.par_chunks_mut(&mut r, VEC_CHUNK, |_, base, rs| {
                    for (k, ri) in rs.iter_mut().enumerate() {
                        *ri = b[base + k] - *ri;
                    }
                });
            }
            let beta = norm2(pool, &r);
            if beta / bnorm < tol {
                converged = true;
                break;
            }
            // Krylov basis V, Hessenberg H (column-major: h[j] has j+2 entries).
            let mut v: Vec<Vec<f64>> = Vec::with_capacity(m + 1);
            v.push(r.iter().map(|ri| ri / beta).collect());
            let mut h: Vec<Vec<f64>> = Vec::with_capacity(m);
            // Givens rotations (cs, sn) and rotated rhs g.
            let mut cs = vec![0.0f64; m];
            let mut sn = vec![0.0f64; m];
            let mut g = vec![0.0f64; m + 1];
            g[0] = beta;
            let mut inner_used = 0usize;

            for j in 0..m {
                if iterations >= max_iter {
                    break;
                }
                if stop_requested() {
                    // Fall through to back-substitution so the Krylov work
                    // already done still improves the returned iterate.
                    interrupted = true;
                    break;
                }
                let mut w = vec![0.0; n];
                apply_a(pool, problem, &v[j], &mut w);
                matvecs += 1;
                iterations += 1;
                let mut hj = vec![0.0f64; j + 2];
                for (i, vi) in v.iter().enumerate().take(j + 1) {
                    let d = dot(pool, &w, vi);
                    hj[i] = d;
                    pool.par_chunks_mut(&mut w, VEC_CHUNK, |_, base, ws| {
                        for (k, wk) in ws.iter_mut().enumerate() {
                            *wk -= d * vi[base + k];
                        }
                    });
                }
                let wnorm = norm2(pool, &w);
                hj[j + 1] = wnorm;
                // Apply accumulated rotations to the new column.
                for i in 0..j {
                    let t = cs[i] * hj[i] + sn[i] * hj[i + 1];
                    hj[i + 1] = -sn[i] * hj[i] + cs[i] * hj[i + 1];
                    hj[i] = t;
                }
                // New rotation to annihilate hj[j+1].
                let denom = (hj[j] * hj[j] + hj[j + 1] * hj[j + 1]).sqrt();
                if denom > 0.0 {
                    cs[j] = hj[j] / denom;
                    sn[j] = hj[j + 1] / denom;
                } else {
                    cs[j] = 1.0;
                    sn[j] = 0.0;
                }
                hj[j] = cs[j] * hj[j] + sn[j] * hj[j + 1];
                hj[j + 1] = 0.0;
                g[j + 1] = -sn[j] * g[j];
                g[j] *= cs[j];
                h.push(hj);
                inner_used = j + 1;
                let rel = g[j + 1].abs() / bnorm;
                residuals.push(rel);
                if rel < tol {
                    converged = true;
                    break;
                }
                // xlint: allow(float-eq) — exact IEEE test: only a zero norm cannot be divided by below
                if wnorm == 0.0 {
                    // Lucky breakdown: exact solution in this subspace.
                    converged = true;
                    break;
                }
                v.push(w.iter().map(|wk| wk / wnorm).collect());
            }

            // Back-substitute H y = g over the used columns.
            if inner_used > 0 {
                let k = inner_used;
                let mut y = vec![0.0f64; k];
                for i in (0..k).rev() {
                    let mut acc = g[i];
                    for (jj, yj) in y.iter().enumerate().take(k).skip(i + 1) {
                        acc -= h[jj][i] * yj;
                    }
                    y[i] = acc / h[i][i];
                }
                // x += V y, chunked over elements; per-element accumulation
                // stays in basis order, so the update is deterministic.
                let v = &v;
                let y = &y;
                pool.par_chunks_mut(&mut x, VEC_CHUNK, |_, base, xs| {
                    for (r, xi) in xs.iter_mut().enumerate() {
                        let i = base + r;
                        for (j, yj) in y.iter().enumerate() {
                            *xi += yj * v[j][i];
                        }
                    }
                });
            }
            if converged || interrupted {
                break 'outer;
            }
        }
        SolveResult::finish(
            self.name(),
            x,
            iterations,
            matvecs,
            residuals,
            converged,
            interrupted,
        )
    }
}
