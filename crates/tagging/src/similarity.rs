//! The Matrix Transformation module: cosine similarity between tags.
//!
//! Each tag is a binary vector over pages; two tags are "considered similar
//! for a threshold above 50%" (the paper's default). The resulting 0/1
//! matrix is handed to the Graph module as an undirected tag graph.
//!
//! Page sets are **sorted slices** (`&[usize]`), so the cosine kernel is a
//! cache-friendly sorted-merge intersection, and the `O(n²)` pair fill is
//! partitioned into fixed-size chunks of the packed [`SymMatrix`] triangle
//! and computed in parallel with bit-deterministic results.

use crate::symmatrix::SymMatrix;
use sensormeta_graph::UndirectedGraph;
use sensormeta_par::Pool;

/// The paper's similarity threshold.
pub const DEFAULT_THRESHOLD: f64 = 0.5;

/// Tag pairs per parallel fill chunk (fixed: determinism contract of
/// `sensormeta-par` — boundaries never depend on the thread count).
const PAIR_CHUNK: usize = 4096;

/// Cosine similarity of two page sets (binary occurrence vectors):
/// `|A ∩ B| / sqrt(|A|·|B|)`. Both slices must be sorted ascending (as
/// produced by [`crate::TagStore::incidence`]); the intersection is a
/// two-pointer sorted merge.
pub fn cosine(a: &[usize], b: &[usize]) -> f64 {
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    debug_assert!(a.windows(2).all(|w| w[0] < w[1]), "unsorted page set");
    debug_assert!(b.windows(2).all(|w| w[0] < w[1]), "unsorted page set");
    let mut inter = 0usize;
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                inter += 1;
                i += 1;
                j += 1;
            }
        }
    }
    // sqrt(|A|)·sqrt(|B|) can round just below |A∩B| for identical sets,
    // nudging the quotient above 1; clamp to the mathematical range.
    (inter as f64 / ((a.len() as f64).sqrt() * (b.len() as f64).sqrt())).min(1.0)
}

/// Computes the full tag-similarity matrix (packed symmetric) on the
/// global pool.
pub fn similarity_matrix(sets: &[Vec<usize>]) -> SymMatrix {
    similarity_matrix_in(Pool::global(), sets)
}

/// [`similarity_matrix`] on an explicit pool. The packed upper triangle is
/// a flat pair array, so fixed-size chunks of it are disjoint `&mut`
/// ranges filled in parallel; each entry is computed exactly once, making
/// the result identical at every thread count.
pub fn similarity_matrix_in(pool: &Pool, sets: &[Vec<usize>]) -> SymMatrix {
    let n = sets.len();
    let mut m = SymMatrix::zeros(n);
    pool.par_chunks_mut(m.data_mut(), PAIR_CHUNK, |_, base, chunk| {
        for (off, slot) in chunk.iter_mut().enumerate() {
            let (i, j) = SymMatrix::coords_for(n, base + off);
            *slot = if i == j {
                1.0
            } else {
                cosine(&sets[i], &sets[j])
            };
        }
    });
    m
}

/// Thresholds the similarity matrix into the undirected tag graph
/// ("1 denotes a link from one tag to another and 0 denotes no linking").
/// Computes the matrix (in parallel) and delegates to
/// [`similarity_graph_from`] — callers that already hold the matrix should
/// use that directly instead of recomputing every cosine.
pub fn similarity_graph(sets: &[Vec<usize>], threshold: f64) -> UndirectedGraph {
    similarity_graph_from(&similarity_matrix(sets), threshold)
}

/// Thresholds an already-computed similarity matrix into the tag graph.
pub fn similarity_graph_from(m: &SymMatrix, threshold: f64) -> UndirectedGraph {
    let n = m.n();
    let mut g = UndirectedGraph::new(n);
    for i in 0..n {
        for j in i + 1..n {
            if m.get(i, j) > threshold {
                g.add_edge(i, j);
            }
        }
    }
    g
}

/// Deep semantic check (fsck) of a thresholded tag graph against the page
/// sets it was built from: the graph must be structurally sound (symmetric,
/// loop-free, in range), every cosine must lie in `[0, 1]`, and an edge must
/// exist exactly when the similarity exceeds the threshold. Recomputes each
/// cosine directly from the page sets — deliberately independent of the
/// [`SymMatrix`] fill — using the same kernel the shared path uses.
/// Returns every violated invariant.
pub fn check_similarity_graph(
    sets: &[Vec<usize>],
    threshold: f64,
    g: &UndirectedGraph,
) -> Result<(), Vec<String>> {
    let mut problems = g.check_invariants().err().unwrap_or_default();
    if g.node_count() != sets.len() {
        problems.push(format!(
            "graph has {} nodes for {} tag sets",
            g.node_count(),
            sets.len()
        ));
        return Err(problems);
    }
    for i in 0..sets.len() {
        for j in i + 1..sets.len() {
            let s = cosine(&sets[i], &sets[j]);
            if !(0.0..=1.0).contains(&s) || s.is_nan() {
                problems.push(format!("cosine({i}, {j}) = {s} outside [0, 1]"));
            }
            let should_link = s > threshold;
            if should_link != g.has_edge(i, j) {
                problems.push(format!(
                    "edge ({i}, {j}) disagrees with cosine {s:.4} at threshold {threshold}"
                ));
            }
        }
    }
    if problems.is_empty() {
        Ok(())
    } else {
        Err(problems)
    }
}

#[cfg(test)]
#[allow(
    clippy::float_cmp,
    reason = "the tests compare bit-identical floats on purpose"
)]
mod tests {
    use super::*;

    fn set(v: &[usize]) -> Vec<usize> {
        let mut s = v.to_vec();
        s.sort_unstable();
        s.dedup();
        s
    }

    #[test]
    fn cosine_identical_and_disjoint() {
        let a = set(&[1, 2, 3]);
        assert!((cosine(&a, &a) - 1.0).abs() < 1e-12);
        assert_eq!(cosine(&a, &set(&[4, 5])), 0.0);
        assert_eq!(cosine(&a, &set(&[])), 0.0);
    }

    #[test]
    fn cosine_partial_overlap() {
        // |A∩B|=1, |A|=2, |B|=2 → 1/2.
        let s = cosine(&set(&[1, 2]), &set(&[2, 3]));
        assert!((s - 0.5).abs() < 1e-12);
    }

    #[test]
    fn matrix_is_symmetric_with_unit_diagonal() {
        let sets = vec![set(&[0, 1]), set(&[1, 2]), set(&[5])];
        let m = similarity_matrix(&sets);
        for i in 0..sets.len() {
            assert!((m.get(i, i) - 1.0).abs() < 1e-12);
            for j in 0..sets.len() {
                assert!((m.get(i, j) - m.get(j, i)).abs() < 1e-12);
                assert!((m.get(i, j) - cosine(&sets[i], &sets[j])).abs() < 1e-12 || i == j);
            }
        }
    }

    #[test]
    fn graph_uses_strict_threshold() {
        // Similarity exactly 0.5 must NOT create an edge ("above 50%").
        let sets = vec![set(&[1, 2]), set(&[2, 3]), set(&[1, 2, 3])];
        let g = similarity_graph(&sets, DEFAULT_THRESHOLD);
        assert!(!g.has_edge(0, 1), "cos=0.5 exactly, excluded");
        // cos({1,2},{1,2,3}) = 2/sqrt(6) ≈ 0.816 > 0.5.
        assert!(g.has_edge(0, 2));
        assert!(g.has_edge(1, 2));
    }

    #[test]
    fn graph_from_matrix_matches_direct_build() {
        let sets = vec![set(&[1, 2]), set(&[2, 3]), set(&[1, 2, 3]), set(&[9])];
        let m = similarity_matrix(&sets);
        let from_matrix = similarity_graph_from(&m, DEFAULT_THRESHOLD);
        assert_eq!(
            check_similarity_graph(&sets, DEFAULT_THRESHOLD, &from_matrix),
            Ok(())
        );
    }

    #[test]
    fn empty_input() {
        let g = similarity_graph(&[], DEFAULT_THRESHOLD);
        assert_eq!(g.node_count(), 0);
    }

    #[test]
    fn fsck_detects_corruption() {
        let sets = vec![set(&[1, 2]), set(&[2, 3]), set(&[1, 2, 3]), set(&[9])];
        let g = similarity_graph(&sets, DEFAULT_THRESHOLD);
        assert_eq!(check_similarity_graph(&sets, DEFAULT_THRESHOLD, &g), Ok(()));

        // An extra edge the similarities do not justify.
        let mut extra = g.clone();
        extra.add_edge(0, 3);
        let problems = check_similarity_graph(&sets, DEFAULT_THRESHOLD, &extra).unwrap_err();
        assert!(
            problems.iter().any(|m| m.contains("edge (0, 3)")),
            "{problems:?}"
        );

        // A missing edge (rebuild at a higher threshold, check at the lower).
        let sparse = similarity_graph(&sets, 0.99);
        let problems = check_similarity_graph(&sets, DEFAULT_THRESHOLD, &sparse).unwrap_err();
        assert!(
            problems.iter().any(|m| m.contains("disagrees")),
            "{problems:?}"
        );

        // Node-count mismatch is reported rather than panicking.
        let problems = check_similarity_graph(&sets[..2], DEFAULT_THRESHOLD, &g).unwrap_err();
        assert!(
            problems.iter().any(|m| m.contains("nodes for")),
            "{problems:?}"
        );
    }
}
