//! Hash partitioning and the published shard set.

use sensormeta_obs as obs;
use sensormeta_query::{QueryEngine, QueryError, QueryOutput, Result, ScatterTrace, SearchForm};
use sensormeta_smr::{PageDraft, Smr};
use sensormeta_tx::{Mvcc, Snapshot};
use std::collections::HashSet;

/// Hash partitioning of the store's pages.
///
/// Page placement uses an FNV-1a hash of the SMR page id, so it is stable
/// across rebuilds of derived structures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardMap {
    shards: usize,
}

impl ShardMap {
    /// A map over `shards` partitions (clamped to at least 1).
    pub fn new(shards: usize) -> ShardMap {
        ShardMap {
            shards: shards.max(1),
        }
    }

    /// Number of partitions.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The shard owning an SMR page id.
    pub fn shard_of(&self, page_id: i64) -> usize {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = FNV_OFFSET;
        for b in page_id.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(FNV_PRIME);
        }
        (h % self.shards as u64) as usize
    }
}

/// N in-process shards of one repository, published as one value: the
/// coordinator engine *and* its partition views sit in a single MVCC cell,
/// so a request pins exactly one generation of both.
///
/// Shards partition *storage and per-document work*; ranking statistics
/// stay collection-global (the views share the full index, PageRank vector,
/// recommender and facts table by `Arc`). A view's own store answers only
/// the form's conditions: assembly reads the shared facts table, and the
/// coordinator reads the bodies of the shown results from the whole store. Searching is the engine's own executor
/// ([`QueryEngine::search_traced`]) — the same code the single store runs
/// over its one view — which is what makes [`ShardSet::search`]
/// byte-identical to [`QueryEngine::search_uncached`]; the cluster test
/// suite asserts it at 1, 2 and 4 shards.
pub struct ShardSet {
    map: ShardMap,
    /// The whole-corpus engine carrying its partition views.
    version: Mvcc<QueryEngine>,
}

impl ShardSet {
    /// Partitions `primary`'s repository into `shards` shard views and
    /// publishes them with their coordinator.
    pub fn build(primary: &QueryEngine, shards: usize) -> Result<ShardSet> {
        let map = ShardMap::new(shards);
        Ok(ShardSet {
            map,
            version: Mvcc::new(Self::partition(primary, map)?),
        })
    }

    /// Re-partitions from the primary's current state and publishes the
    /// result as the next version — the write path after a primary commit.
    /// The coordinator carries the primary's generation, which the
    /// primary's rebuild already dated.
    pub fn republish(&self, primary: &QueryEngine) -> Result<()> {
        let next = Self::partition(primary, self.map)?;
        self.version.begin().publish(next);
        obs::counter("cluster_republish_total").inc();
        Ok(())
    }

    fn partition(primary: &QueryEngine, map: ShardMap) -> Result<QueryEngine> {
        let _span = obs::span("cluster_partition");
        let n = map.shards();
        let mut buckets: Vec<Vec<PageDraft>> = (0..n).map(|_| Vec::new()).collect();
        let mut owned: Vec<HashSet<usize>> = (0..n).map(|_| HashSet::new()).collect();
        let pages = primary.smr().pages()?;
        let titles: Vec<String> = pages.iter().map(|p| p.title.clone()).collect();
        for page in pages {
            let shard = map.shard_of(page.id);
            if let Some(dense) = primary.dense_id(&page.title) {
                owned[shard].insert(dense);
            }
            buckets[shard].push(PageDraft::from(page));
        }
        let partitions = buckets
            .into_iter()
            .zip(owned)
            .map(|(drafts, owned)| {
                let mut partition = Smr::new();
                let report = partition.bulk_load(drafts);
                if let Some(e) = report.errors.first() {
                    return Err(QueryError::Internal(format!(
                        "shard partition load failed: {e:?}"
                    )));
                }
                // The IRI/literal rule holds against the whole corpus, so an
                // `eq` on a page-naming value misses every shard's literals
                // alike and falls back to SQL everywhere, as on one store.
                partition.mirror_titles(titles.iter().map(String::as_str));
                Ok((partition, owned))
            })
            .collect::<Result<Vec<_>>>()?;
        primary.with_partitions(partitions)
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.map.shards()
    }

    /// A snapshot of the published version: the coordinator (whole-corpus)
    /// engine, whose searches scatter over this set's shards.
    pub fn coordinator(&self) -> Snapshot<QueryEngine> {
        self.version.snapshot()
    }

    /// Scatter-gather search: fans the form out to every shard on the
    /// global pool and merges the partials into one output. Byte-identical
    /// to the single store's `search_uncached` for the same corpus.
    pub fn search(&self, form: &SearchForm, user: Option<&str>) -> Result<QueryOutput> {
        Ok(self.search_traced(form, user)?.0)
    }

    /// [`ShardSet::search`] plus a [`ScatterTrace`] of per-task service
    /// times (in-process shards stand in for cluster nodes, so per-task
    /// time, not single-box wall clock, is what scales with shard count).
    pub fn search_traced(
        &self,
        form: &SearchForm,
        user: Option<&str>,
    ) -> Result<(QueryOutput, ScatterTrace)> {
        self.coordinator().search_traced(form, user)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_of_is_stable_and_in_range() {
        let map = ShardMap::new(4);
        for id in 0..1000i64 {
            let s = map.shard_of(id);
            assert!(s < 4);
            assert_eq!(s, map.shard_of(id));
        }
        // All shards get some pages for a reasonable id spread.
        let mut seen = HashSet::new();
        for id in 0..1000i64 {
            seen.insert(map.shard_of(id));
        }
        assert_eq!(seen.len(), 4);
    }
}
