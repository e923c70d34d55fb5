//! Recommendation of related metadata pages.
//!
//! The paper embeds "a recommendation mechanism … based on the combination of
//! query inputs and properties that are high-scored by the PageRank
//! algorithm". The model: every page carries a set of semantic properties;
//! a property's authority is the PageRank mass of the pages carrying it; a
//! candidate page is recommended when it shares authoritative properties with
//! the query's seed pages, weighted by the candidate's own PageRank.

/// A page→properties incidence plus PageRank scores.
///
/// Property ids are dense small integers (the engine's attribute ids): the
/// authority table is a vector indexed by them.
#[derive(Debug, Default)]
pub struct Recommender {
    /// Properties per page (dense page ids).
    page_props: Vec<Vec<u32>>,
    /// PageRank score per page.
    scores: Vec<f64>,
    /// Authority per property id: Σ PageRank of carrying pages, `None` for
    /// an id no page carries.
    prop_authority: Vec<Option<f64>>,
}

/// One recommendation.
#[derive(Debug, Clone, PartialEq)]
pub struct Recommendation {
    /// Recommended page id.
    pub page: usize,
    /// Combined relevance score.
    pub score: f64,
    /// Properties shared with the seed set that contributed.
    pub shared_properties: Vec<u32>,
}

/// Recommendation order: score descending, then page ascending.
fn rank_order(a: (f64, usize), b: (f64, usize)) -> std::cmp::Ordering {
    b.0.partial_cmp(&a.0)
        .unwrap_or(std::cmp::Ordering::Equal)
        .then(a.1.cmp(&b.1))
}

impl Recommender {
    /// Builds the recommender from per-page property lists and PageRank
    /// scores (same indexing).
    pub fn new(page_props: Vec<Vec<u32>>, scores: Vec<f64>) -> Recommender {
        assert_eq!(page_props.len(), scores.len());
        let props = page_props
            .iter()
            .flatten()
            .map(|&p| p as usize + 1)
            .max()
            .unwrap_or(0);
        let mut prop_authority: Vec<Option<f64>> = vec![None; props];
        for (page, props) in page_props.iter().enumerate() {
            for &p in props {
                *prop_authority[p as usize].get_or_insert(0.0) += scores[page];
            }
        }
        Recommender {
            page_props,
            scores,
            prop_authority,
        }
    }

    /// Number of pages.
    pub fn page_count(&self) -> usize {
        self.page_props.len()
    }

    /// Authority of a property (0 if unknown).
    pub fn property_authority(&self, prop: u32) -> f64 {
        self.prop_authority
            .get(prop as usize)
            .copied()
            .flatten()
            .unwrap_or(0.0)
    }

    /// Properties ordered by descending authority — "properties that are
    /// scored high by the PageRank algorithm".
    pub fn top_properties(&self, k: usize) -> Vec<(u32, f64)> {
        let mut props: Vec<(u32, f64)> = self
            .prop_authority
            .iter()
            .enumerate()
            .filter_map(|(p, a)| a.map(|a| (p as u32, a)))
            .collect();
        props.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.0.cmp(&b.0))
        });
        props.truncate(k);
        props
    }

    /// Recommends up to `k` pages related to the `seeds` (query-result pages),
    /// excluding the seeds themselves.
    ///
    /// One pass over the incidence scores every candidate without
    /// allocating and keeps a bounded top-k; shared properties are listed
    /// for the winners only.
    pub fn recommend(&self, seeds: &[usize], k: usize) -> Vec<Recommendation> {
        // Authority of each property some seed carries, by property id.
        let mut seed_authority: Vec<Option<f64>> = vec![None; self.prop_authority.len()];
        let mut any_seed_property = false;
        for &s in seeds {
            if let Some(props) = self.page_props.get(s) {
                for &p in props {
                    seed_authority[p as usize] = Some(self.property_authority(p));
                    any_seed_property = true;
                }
            }
        }
        if !any_seed_property || k == 0 {
            return Vec::new();
        }
        let mut seed_pages = seeds.to_vec();
        seed_pages.sort_unstable();
        // Best first, at most `k` entries of (score, page).
        let mut top: Vec<(f64, usize)> = Vec::with_capacity(k + 1);
        for (page, props) in self.page_props.iter().enumerate() {
            if seed_pages.binary_search(&page).is_ok() {
                continue;
            }
            // Sum in property order, duplicates included, as the score has
            // always been summed.
            let mut shares = false;
            let mut prop_score = 0.0;
            for &p in props {
                if let Some(auth) = seed_authority[p as usize] {
                    shares = true;
                    prop_score += auth;
                }
            }
            if !shares {
                continue;
            }
            let cand = (prop_score * self.scores[page], page);
            if top.len() == k && rank_order(cand, top[k - 1]).is_ge() {
                continue;
            }
            let at = top.partition_point(|&e| rank_order(e, cand).is_le());
            top.insert(at, cand);
            top.truncate(k);
        }
        top.into_iter()
            .map(|(score, page)| Recommendation {
                page,
                score,
                shared_properties: self.page_props[page]
                    .iter()
                    .copied()
                    .filter(|&p| seed_authority[p as usize].is_some())
                    .collect(),
            })
            .collect()
    }

    /// The full-scan recommender the top-k pass replaced: a candidate list
    /// for every page, one sort, then truncation. Kept as the reference
    /// the property test compares against.
    #[cfg(test)]
    fn recommend_reference(&self, seeds: &[usize], k: usize) -> Vec<Recommendation> {
        use std::collections::{HashMap, HashSet};
        let seed_set: HashSet<usize> = seeds.iter().copied().collect();
        let mut seed_props: HashMap<u32, f64> = HashMap::new();
        for &s in seeds {
            if let Some(props) = self.page_props.get(s) {
                for &p in props {
                    seed_props.insert(p, self.property_authority(p));
                }
            }
        }
        if seed_props.is_empty() {
            return Vec::new();
        }
        let mut out: Vec<Recommendation> = Vec::new();
        for (page, props) in self.page_props.iter().enumerate() {
            if seed_set.contains(&page) {
                continue;
            }
            let mut shared = Vec::new();
            let mut prop_score = 0.0;
            for &p in props {
                if let Some(&auth) = seed_props.get(&p) {
                    shared.push(p);
                    prop_score += auth;
                }
            }
            if shared.is_empty() {
                continue;
            }
            out.push(Recommendation {
                page,
                score: prop_score * self.scores[page],
                shared_properties: shared,
            });
        }
        out.sort_by(|a, b| rank_order((a.score, a.page), (b.score, b.page)));
        out.truncate(k);
        out
    }
}

#[cfg(test)]
#[allow(
    clippy::float_cmp,
    reason = "the tests compare bit-identical floats on purpose"
)]
mod tests {
    use super::*;

    /// Pages: 0,1 share prop 10; 2 shares prop 10 too but low rank;
    /// 3 has unrelated prop 20.
    fn fixture() -> Recommender {
        Recommender::new(
            vec![vec![10, 20], vec![10], vec![10], vec![20]],
            vec![0.4, 0.3, 0.1, 0.2],
        )
    }

    #[test]
    fn property_authority_sums_pagerank() {
        let r = fixture();
        assert!((r.property_authority(10) - 0.8).abs() < 1e-12);
        assert!((r.property_authority(20) - 0.6).abs() < 1e-12);
        assert_eq!(r.property_authority(99), 0.0);
    }

    #[test]
    fn top_properties_ordered() {
        let r = fixture();
        let top = r.top_properties(2);
        assert_eq!(top[0].0, 10);
        assert_eq!(top[1].0, 20);
    }

    #[test]
    fn recommend_excludes_seeds_and_ranks_by_score() {
        let r = fixture();
        let recs = r.recommend(&[1], 10);
        let pages: Vec<usize> = recs.iter().map(|r| r.page).collect();
        assert!(!pages.contains(&1));
        // Page 0 (rank .4, shares 10) beats page 2 (rank .1, shares 10).
        assert_eq!(pages[0], 0);
        assert!(pages.contains(&2));
        // Page 3 shares nothing with the seed.
        assert!(!pages.contains(&3));
    }

    #[test]
    fn recommend_respects_k() {
        let r = fixture();
        assert_eq!(r.recommend(&[1], 1).len(), 1);
    }

    #[test]
    fn empty_seed_or_unknown_page() {
        let r = fixture();
        assert!(r.recommend(&[], 5).is_empty());
        assert!(r.recommend(&[999], 5).is_empty());
    }

    #[test]
    fn shared_properties_reported() {
        let r = fixture();
        let recs = r.recommend(&[0], 10);
        let rec3 = recs.iter().find(|r| r.page == 3).expect("page 3 shares 20");
        assert_eq!(rec3.shared_properties, vec![20]);
    }
}

#[cfg(test)]
mod top_k_equivalence {
    use super::*;
    use proptest::prelude::*;

    /// A PageRank score; some exact zeros so zero-authority properties and
    /// zero-score candidates occur.
    fn score() -> impl Strategy<Value = f64> {
        prop_oneof![Just(0.0), 0.0f64..1.0, 0.0f64..1e-3]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn top_k_matches_the_full_sort(
            pages in prop::collection::vec(
                (prop::collection::vec(0u32..12, 0..6), score()),
                0..40,
            ),
            seeds in prop::collection::vec(0usize..45, 0..6),
            k in 0usize..12,
        ) {
            let (props, scores): (Vec<Vec<u32>>, Vec<f64>) = pages.into_iter().unzip();
            let r = Recommender::new(props, scores);
            let got = r.recommend(&seeds, k);
            let want = r.recommend_reference(&seeds, k);
            prop_assert_eq!(&got, &want);
            let bits = |v: &[Recommendation]| -> Vec<u64> {
                v.iter().map(|x| x.score.to_bits()).collect()
            };
            prop_assert_eq!(bits(&got), bits(&want));
        }
    }
}
