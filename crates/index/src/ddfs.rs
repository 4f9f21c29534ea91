//! DDFS-style exact deduplication index (Zhu et al., FAST'08), as
//! implemented by Destor's "exact, locality-based" mode.

use std::collections::{HashMap, VecDeque};

use hidestore_hash::Fingerprint;
use hidestore_storage::{ContainerId, VersionId};

use crate::bloom::BloomFilter;
use crate::{FingerprintIndex, INDEX_ENTRY_BYTES};

/// Default number of container fingerprint sets held in the locality cache.
const DEFAULT_CACHE_CONTAINERS: usize = 64;

/// Exact deduplication with the three DDFS techniques:
///
/// 1. **Summary vector** — an in-memory Bloom filter over every stored
///    fingerprint; most unique chunks are answered without disk I/O.
/// 2. **Locality-preserved caching** — when a disk lookup finds a chunk in
///    container *C*, *C*'s whole fingerprint set is prefetched into an LRU
///    cache, so the duplicate run that follows hits memory.
/// 3. **On-disk full index** — consulted only on cache miss + Bloom
///    positive; every consultation increments [`disk_lookups`].
///
/// DDFS never misses a duplicate, so it attains the maximum deduplication
/// ratio (paper Figure 8), but its full index grows with every unique chunk
/// (paper Figure 10) and its lookup traffic grows as locality degrades over
/// versions (paper Figure 9).
///
/// [`disk_lookups`]: FingerprintIndex::disk_lookups
#[derive(Debug)]
pub struct DdfsIndex {
    bloom: BloomFilter,
    /// The "on-disk" full index: fingerprint → container. Accesses counted.
    full_index: HashMap<Fingerprint, ContainerId>,
    /// The "on-disk" container-metadata map used for prefetching.
    container_meta: HashMap<ContainerId, Vec<Fingerprint>>,
    /// LRU of prefetched container fingerprint sets.
    cache: HashMap<Fingerprint, ContainerId>,
    cache_order: VecDeque<ContainerId>,
    cache_members: HashMap<ContainerId, Vec<Fingerprint>>,
    cache_capacity: usize,
    disk_lookups: u64,
}

impl Default for DdfsIndex {
    fn default() -> Self {
        Self::new()
    }
}

impl DdfsIndex {
    /// Creates a DDFS index with the default locality-cache size.
    pub fn new() -> Self {
        Self::with_cache_containers(DEFAULT_CACHE_CONTAINERS)
    }

    /// Creates a DDFS index caching up to `cache_containers` container
    /// fingerprint sets.
    ///
    /// # Panics
    ///
    /// Panics if `cache_containers == 0`.
    pub fn with_cache_containers(cache_containers: usize) -> Self {
        assert!(
            cache_containers > 0,
            "cache must hold at least one container"
        );
        DdfsIndex {
            bloom: BloomFilter::with_capacity(1 << 20, 0.01),
            full_index: HashMap::new(),
            container_meta: HashMap::new(),
            cache: HashMap::new(),
            cache_order: VecDeque::new(),
            cache_members: HashMap::new(),
            cache_capacity: cache_containers,
            disk_lookups: 0,
        }
    }

    fn prefetch_container(&mut self, container: ContainerId) {
        if self.cache_members.contains_key(&container) {
            return;
        }
        let members = self
            .container_meta
            .get(&container)
            .cloned()
            .unwrap_or_default();
        for fp in &members {
            self.cache.insert(*fp, container);
        }
        self.cache_members.insert(container, members);
        self.cache_order.push_back(container);
        while self.cache_order.len() > self.cache_capacity {
            let Some(evicted) = self.cache_order.pop_front() else {
                break;
            };
            if let Some(members) = self.cache_members.remove(&evicted) {
                for fp in members {
                    // Only drop mappings still pointing at the evicted
                    // container (a fingerprint may have been re-cached).
                    if self.cache.get(&fp) == Some(&evicted) {
                        self.cache.remove(&fp);
                    }
                }
            }
        }
    }

    fn lookup_one(&mut self, fp: &Fingerprint) -> Option<ContainerId> {
        if let Some(&cid) = self.cache.get(fp) {
            return Some(cid);
        }
        if !self.bloom.contains(fp) {
            // Summary vector: definitely not stored, no disk access needed.
            return None;
        }
        // Bloom positive: consult the on-disk full index.
        self.disk_lookups += 1;
        match self.full_index.get(fp).copied() {
            Some(cid) => {
                self.prefetch_container(cid);
                Some(cid)
            }
            None => None, // Bloom false positive.
        }
    }
}

impl FingerprintIndex for DdfsIndex {
    fn begin_version(&mut self, _version: VersionId) {}

    fn process_segment(&mut self, segment: &[(Fingerprint, u32)]) -> Vec<Option<ContainerId>> {
        segment.iter().map(|(fp, _)| self.lookup_one(fp)).collect()
    }

    fn record_chunk(&mut self, fingerprint: Fingerprint, _size: u32, container: ContainerId) {
        if self.full_index.contains_key(&fingerprint) {
            return;
        }
        self.bloom.insert(&fingerprint);
        self.full_index.insert(fingerprint, container);
        self.container_meta
            .entry(container)
            .or_default()
            .push(fingerprint);
    }

    fn end_version(&mut self) {}

    fn disk_lookups(&self) -> u64 {
        self.disk_lookups
    }

    fn index_table_bytes(&self) -> usize {
        // The paper's Figure 10 charges DDFS for its full index: one entry
        // per unique chunk.
        self.full_index.len() * INDEX_ENTRY_BYTES + self.bloom.memory_bytes()
    }

    fn name(&self) -> &'static str {
        "ddfs"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp(n: u64) -> Fingerprint {
        Fingerprint::synthetic(n)
    }

    fn seg(range: std::ops::Range<u64>) -> Vec<(Fingerprint, u32)> {
        range.map(|i| (fp(i), 4096)).collect()
    }

    #[test]
    fn unique_chunks_do_not_touch_disk() {
        let mut idx = DdfsIndex::new();
        idx.begin_version(VersionId::new(1));
        let decisions = idx.process_segment(&seg(0..100));
        assert!(decisions.iter().all(Option::is_none));
        // All answered by the Bloom filter (modulo rare false positives).
        assert!(idx.disk_lookups() <= 2, "lookups: {}", idx.disk_lookups());
    }

    #[test]
    fn duplicates_found_with_one_lookup_per_container_run() {
        let mut idx = DdfsIndex::new();
        idx.begin_version(VersionId::new(1));
        let s = seg(0..100);
        idx.process_segment(&s);
        // Store all 100 chunks in container 1 (a physical-locality run).
        for (f, sz) in &s {
            idx.record_chunk(*f, *sz, ContainerId::new(1));
        }
        idx.end_version();

        idx.begin_version(VersionId::new(2));
        let decisions = idx.process_segment(&s);
        assert!(decisions.iter().all(|d| *d == Some(ContainerId::new(1))));
        // First chunk misses cache -> 1 disk lookup, prefetch covers the rest.
        assert_eq!(idx.disk_lookups(), 1);
    }

    #[test]
    fn fragmentation_costs_more_lookups() {
        // Same 100 chunks scattered across 50 containers: restoring locality
        // in the cache needs a lookup per distinct container.
        let mut idx = DdfsIndex::with_cache_containers(4);
        idx.begin_version(VersionId::new(1));
        let s = seg(0..100);
        idx.process_segment(&s);
        for (i, (f, sz)) in s.iter().enumerate() {
            idx.record_chunk(*f, *sz, ContainerId::new((i % 50 + 1) as u32));
        }
        idx.end_version();
        idx.begin_version(VersionId::new(2));
        idx.process_segment(&s);
        assert!(idx.disk_lookups() >= 50, "lookups: {}", idx.disk_lookups());
    }

    #[test]
    fn record_is_idempotent() {
        let mut idx = DdfsIndex::new();
        idx.record_chunk(fp(1), 10, ContainerId::new(1));
        idx.record_chunk(fp(1), 10, ContainerId::new(2));
        assert_eq!(idx.full_index.len(), 1);
        idx.begin_version(VersionId::new(1));
        let d = idx.process_segment(&[(fp(1), 10)]);
        assert_eq!(d[0], Some(ContainerId::new(1)));
    }

    #[test]
    fn cache_eviction_keeps_correctness() {
        let mut idx = DdfsIndex::with_cache_containers(2);
        // 10 containers with 10 chunks each.
        for c in 0..10u32 {
            for i in 0..10u64 {
                idx.record_chunk(fp(c as u64 * 10 + i), 100, ContainerId::new(c + 1));
            }
        }
        idx.begin_version(VersionId::new(2));
        // Scan everything twice; all duplicates must still be found.
        for _ in 0..2 {
            let s = seg(0..100);
            let d = idx.process_segment(&s);
            assert!(d.iter().all(Option::is_some));
        }
    }

    #[test]
    fn index_bytes_grow_with_unique_chunks() {
        let mut idx = DdfsIndex::new();
        let base = idx.index_table_bytes();
        for i in 0..1000 {
            idx.record_chunk(fp(i), 100, ContainerId::new(1));
        }
        assert_eq!(idx.index_table_bytes() - base, 1000 * INDEX_ENTRY_BYTES);
    }
}
