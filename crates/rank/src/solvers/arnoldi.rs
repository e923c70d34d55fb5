//! Restarted Arnoldi iteration for the PageRank eigenproblem.

use super::{dot, norm2, stop_requested, SolveResult, Solver, VEC_CHUNK};
use crate::problem::PageRankProblem;
use sensormeta_par::Pool;

/// Arnoldi method specialised for PageRank (Golub & Greif's refined variant):
/// because the dominant eigenvalue of the Google matrix is known to be exactly
/// 1, each restart builds an `m`-step Krylov subspace of `(P″)ᵀ` and takes as
/// the new iterate `x = V·y` where `y` minimizes `‖(H̄ − E₁)y‖₂` — the
/// smallest right singular vector of the shifted Hessenberg matrix. One
/// iteration = one matvec; the residual `‖(P″)ᵀx − x‖₂` is recorded once per
/// restart.
#[derive(Debug, Clone, Copy)]
pub struct Arnoldi {
    /// Krylov subspace dimension per restart.
    pub subspace: usize,
}

impl Default for Arnoldi {
    fn default() -> Self {
        Arnoldi { subspace: 12 }
    }
}

impl Solver for Arnoldi {
    fn name(&self) -> &'static str {
        "Arnoldi"
    }

    fn solve_in(
        &self,
        pool: &Pool,
        problem: &PageRankProblem,
        tol: f64,
        max_iter: usize,
    ) -> SolveResult {
        let n = problem.n();
        let m = self.subspace.max(2).min(n.max(2));
        let mut x = problem.u.clone();
        let mut residuals = Vec::new();
        let mut matvecs = 0usize;
        let mut converged = false;
        let mut interrupted = false;

        while matvecs < max_iter {
            if stop_requested() {
                interrupted = true;
                break;
            }
            // Normalize the start vector (L2 for the orthogonal basis).
            let xnorm = norm2(pool, &x).max(f64::MIN_POSITIVE);
            let mut v: Vec<Vec<f64>> = vec![x.iter().map(|e| e / xnorm).collect()];
            // H̄ is (m+1) × m, stored column-major.
            let mut h: Vec<Vec<f64>> = Vec::with_capacity(m);
            let mut used = 0usize;
            for j in 0..m {
                if matvecs >= max_iter {
                    break;
                }
                if stop_requested() {
                    // The basis built so far still yields an improved
                    // iterate below.
                    interrupted = true;
                    break;
                }
                let mut w = vec![0.0; n];
                problem.google_matvec_in(pool, &v[j], &mut w);
                matvecs += 1;
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
                h.push(hj);
                used = j + 1;
                if wnorm < 1e-14 {
                    break; // invariant subspace found
                }
                v.push(w.iter().map(|wk| wk / wnorm).collect());
            }
            if used == 0 {
                break;
            }
            // y = argmin ‖(H̄ − E₁)y‖ over unit y, where E₁ stacks I_used over 0.
            let y = smallest_singular_vector(&h, used);
            // New iterate x = V y, signed so the dominant mass is positive.
            // Chunked over elements; per-element accumulation stays in basis
            // order, keeping the update deterministic.
            let mut newx = vec![0.0f64; n];
            {
                let v = &v;
                let y = &y;
                pool.par_chunks_mut(&mut newx, VEC_CHUNK, |_, base, xs| {
                    for (r, xi) in xs.iter_mut().enumerate() {
                        let i = base + r;
                        for (j, yj) in y.iter().enumerate() {
                            *xi += yj * v[j][i];
                        }
                    }
                });
            }
            if newx.iter().sum::<f64>() < 0.0 {
                for e in &mut newx {
                    *e = -*e;
                }
            }
            // PageRank is nonnegative; clamp tiny negative round-off.
            for e in &mut newx {
                if *e < 0.0 {
                    *e = 0.0;
                }
            }
            x = newx;
            let res = problem.residual_in(pool, &x);
            residuals.push(res);
            if res < tol {
                converged = true;
                break;
            }
            if interrupted {
                break;
            }
        }
        let iterations = matvecs;
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

/// Smallest right singular vector of `(H̄ − E₁)`, where `h` holds the first
/// `used` Hessenberg columns (column j has j+2 entries) and `E₁` is the
/// identity padded with a zero row. Computed by inverse iteration on the
/// Gram matrix with a dense LU solve — the matrix is at most
/// `subspace × subspace`, so cost is negligible next to the matvecs.
fn smallest_singular_vector(h: &[Vec<f64>], used: usize) -> Vec<f64> {
    let m = used;
    // Dense (m+1) × m of (H̄ − E1).
    let mut a = vec![vec![0.0f64; m]; m + 1];
    for (j, col) in h.iter().enumerate().take(m) {
        for (i, &v) in col.iter().enumerate() {
            a[i][j] = v;
        }
        a[j][j] -= 1.0;
    }
    // Gram matrix B = AᵀA (m×m, SPD up to rank deficiency).
    let mut bmat = vec![vec![0.0f64; m]; m];
    for p in 0..m {
        for q in 0..m {
            let mut acc = 0.0;
            for row in &a {
                acc += row[p] * row[q];
            }
            bmat[p][q] = acc;
        }
    }
    // Shift for invertibility.
    let trace: f64 = (0..m).map(|i| bmat[i][i]).sum();
    let eps = (trace / m as f64).max(1e-30) * 1e-12;
    for (i, row) in bmat.iter_mut().enumerate().take(m) {
        row[i] += eps;
        let _ = i;
    }
    // Inverse iteration.
    let mut y = vec![1.0 / (m as f64).sqrt(); m];
    for _ in 0..25 {
        let z = dense_solve(&bmat, &y);
        // Serial norm: the vector is at most `subspace` long.
        let znorm = z
            .iter()
            .map(|e| e * e)
            .sum::<f64>()
            .sqrt()
            .max(f64::MIN_POSITIVE);
        let next: Vec<f64> = z.iter().map(|e| e / znorm).collect();
        let delta: f64 = next.iter().zip(&y).map(|(a, b)| (a - b).abs()).sum();
        y = next;
        if delta < 1e-14 {
            break;
        }
    }
    y
}

/// Solves a small dense system by Gaussian elimination with partial pivoting.
fn dense_solve(mat: &[Vec<f64>], b: &[f64]) -> Vec<f64> {
    let m = b.len();
    let mut a: Vec<Vec<f64>> = mat.to_vec();
    let mut x = b.to_vec();
    for col in 0..m {
        // Pivot.
        let piv = (col..m)
            .max_by(|&i, &j| {
                a[i][col]
                    .abs()
                    .partial_cmp(&a[j][col].abs())
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .unwrap_or(col); // col..m is non-empty; col itself is a no-op swap
        a.swap(col, piv);
        x.swap(col, piv);
        let d = a[col][col];
        if d.abs() < 1e-300 {
            continue; // singular direction; leave as-is
        }
        for row in col + 1..m {
            let f = a[row][col] / d;
            // xlint: allow(float-eq) — exact IEEE test: a zero multiplier leaves the row as it is
            if f == 0.0 {
                continue;
            }
            #[allow(clippy::needless_range_loop)]
            for k in col..m {
                a[row][k] -= f * a[col][k];
            }
            x[row] -= f * x[col];
        }
    }
    for col in (0..m).rev() {
        let d = a[col][col];
        if d.abs() < 1e-300 {
            x[col] = 0.0;
            continue;
        }
        let mut acc = x[col];
        #[allow(clippy::needless_range_loop)]
        for k in col + 1..m {
            acc -= a[col][k] * x[k];
        }
        x[col] = acc / d;
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_solve_identity() {
        let a = vec![vec![1.0, 0.0], vec![0.0, 2.0]];
        let x = dense_solve(&a, &[3.0, 8.0]);
        assert!((x[0] - 3.0).abs() < 1e-12);
        assert!((x[1] - 4.0).abs() < 1e-12);
    }

    #[test]
    fn dense_solve_requires_pivoting() {
        // Zero on the initial diagonal forces a row swap.
        let a = vec![vec![0.0, 1.0], vec![1.0, 0.0]];
        let x = dense_solve(&a, &[5.0, 7.0]);
        assert!((x[0] - 7.0).abs() < 1e-12);
        assert!((x[1] - 5.0).abs() < 1e-12);
    }
}
