//! Packed symmetric matrix: one flat allocation for the upper triangle.
//!
//! The tag-similarity matrix is symmetric with a unit diagonal, so storing
//! the full dense `n × n` as `Vec<Vec<f64>>` wastes half the memory and
//! costs `n` allocations. [`SymMatrix`] packs the upper triangle
//! (diagonal included) row-major into a single `Vec<f64>` — and because
//! that flat array enumerates the `(i ≤ j)` pairs contiguously, fixed-size
//! chunks of it are exactly the disjoint work units the parallel fill in
//! [`crate::similarity::similarity_matrix_in`] needs.

/// A symmetric `n × n` matrix stored as the packed row-major upper
/// triangle: entry `(i, j)` with `i ≤ j` lives at
/// `i·n − i·(i−1)/2 + (j − i)`.
#[derive(Debug, Clone, PartialEq)]
pub struct SymMatrix {
    n: usize,
    data: Vec<f64>,
}

impl SymMatrix {
    /// An `n × n` zero matrix (one allocation of `n·(n+1)/2` floats).
    pub fn zeros(n: usize) -> SymMatrix {
        SymMatrix {
            n,
            data: vec![0.0; n * (n + 1) / 2],
        }
    }

    /// Matrix dimension.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of stored entries (`n·(n+1)/2`).
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True for the `0 × 0` matrix.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Entry `(i, j)`; symmetric, so argument order is irrelevant.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        assert!(
            i < self.n && j < self.n,
            "index ({i}, {j}) out of {}",
            self.n
        );
        let (i, j) = if i <= j { (i, j) } else { (j, i) };
        self.data[Self::flat_index(self.n, i, j)]
    }

    /// Sets entry `(i, j)` (and its mirror).
    pub fn set(&mut self, i: usize, j: usize, value: f64) {
        assert!(
            i < self.n && j < self.n,
            "index ({i}, {j}) out of {}",
            self.n
        );
        let (i, j) = if i <= j { (i, j) } else { (j, i) };
        let k = Self::flat_index(self.n, i, j);
        self.data[k] = value;
    }

    /// Flat index of `(i, j)` with `i ≤ j`.
    fn flat_index(n: usize, i: usize, j: usize) -> usize {
        debug_assert!(i <= j && j < n);
        i * n - i * (i + 1) / 2 + j
    }

    /// Inverse of the packed flat index: the `(i, j)` pair (with `i ≤ j`)
    /// stored at flat offset `k` of an `n × n` packed matrix. Binary search
    /// over row offsets — deterministic, used by the parallel pair fill.
    pub fn coords_for(n: usize, k: usize) -> (usize, usize) {
        debug_assert!(k < n * (n + 1) / 2);
        // offset(i) = flat_index(n, i, i) is strictly increasing in i; find
        // the largest i with offset(i) <= k.
        let offset = |i: usize| i * n - i * (i + 1) / 2 + i;
        let (mut lo, mut hi) = (0usize, n);
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            if offset(mid) <= k {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        (lo, lo + (k - offset(lo)))
    }

    /// The packed storage, flat-indexed; see [`Self::coords_for`].
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable packed storage for bulk fills.
    pub(crate) fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }
}

#[cfg(test)]
#[allow(
    clippy::float_cmp,
    reason = "the tests compare bit-identical floats on purpose"
)]
mod tests {
    use super::*;

    #[test]
    fn set_get_roundtrip_and_symmetry() {
        let mut m = SymMatrix::zeros(4);
        m.set(1, 3, 0.25);
        m.set(2, 0, 0.5);
        assert_eq!(m.get(3, 1), 0.25);
        assert_eq!(m.get(1, 3), 0.25);
        assert_eq!(m.get(0, 2), 0.5);
        assert_eq!(m.get(2, 2), 0.0);
        assert_eq!(m.len(), 10);
    }

    #[test]
    fn coords_roundtrip_every_flat_index() {
        for n in [1usize, 2, 3, 7, 20] {
            let mut k = 0usize;
            for i in 0..n {
                for j in i..n {
                    assert_eq!(SymMatrix::coords_for(n, k), (i, j), "n={n} k={k}");
                    k += 1;
                }
            }
            assert_eq!(k, n * (n + 1) / 2);
        }
    }

    #[test]
    fn empty_matrix() {
        let m = SymMatrix::zeros(0);
        assert!(m.is_empty());
        assert_eq!(m.n(), 0);
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn out_of_range_panics() {
        SymMatrix::zeros(3).get(0, 3);
    }
}
