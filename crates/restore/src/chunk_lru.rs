//! Chunk-granular LRU restore cache.

use std::collections::HashMap;
use std::io::Write;

use hidestore_hash::Fingerprint;
use hidestore_storage::ContainerStore;

use crate::{RestoreCache, RestoreEntry, RestoreError, RestoreReport};

/// Chunk-by-chunk restore with an LRU cache of individual chunks.
///
/// On a miss the whole container is read (one counted read) and *all* its
/// chunks are inserted, evicting least-recently-used chunks once the byte
/// budget is exceeded. Compared with [`crate::ContainerLru`], memory is spent
/// on chunks rather than container slots, which tolerates fragmentation
/// better — the paper's §2.3 cites this family as the chunk-based caching
/// baseline.
#[derive(Debug)]
pub struct ChunkLru {
    capacity_bytes: usize,
    cache: HashMap<Fingerprint, Vec<u8>>,
    order: Vec<Fingerprint>,
    cached_bytes: usize,
}

impl ChunkLru {
    /// Creates a chunk cache with the given byte budget.
    ///
    /// # Panics
    ///
    /// Panics if `capacity_bytes == 0`.
    pub fn new(capacity_bytes: usize) -> Self {
        assert!(capacity_bytes > 0, "cache budget must be non-zero");
        ChunkLru {
            capacity_bytes,
            cache: HashMap::new(),
            order: Vec::new(),
            cached_bytes: 0,
        }
    }

    fn touch(&mut self, fp: Fingerprint) {
        if let Some(pos) = self.order.iter().position(|&f| f == fp) {
            self.order.remove(pos);
        }
        self.order.push(fp);
    }

    fn insert(&mut self, fp: Fingerprint, data: Vec<u8>) {
        if self.cache.contains_key(&fp) {
            self.touch(fp);
            return;
        }
        self.cached_bytes += data.len();
        self.cache.insert(fp, data);
        self.touch(fp);
        while self.cached_bytes > self.capacity_bytes && self.order.len() > 1 {
            let evict = self.order.remove(0);
            if let Some(old) = self.cache.remove(&evict) {
                self.cached_bytes -= old.len();
            }
        }
    }
}

impl RestoreCache for ChunkLru {
    fn restore(
        &mut self,
        plan: &[RestoreEntry],
        store: &dyn ContainerStore,
        out: &mut dyn Write,
    ) -> Result<RestoreReport, RestoreError> {
        self.cache.clear();
        self.order.clear();
        self.cached_bytes = 0;
        let mut bytes = 0u64;
        let mut hits = 0u64;
        let mut misses = 0u64;
        for entry in plan {
            if let Some(data) = self.cache.get(&entry.fingerprint) {
                out.write_all(data)?;
                bytes += data.len() as u64;
                self.touch(entry.fingerprint);
                hits += 1;
            } else {
                misses += 1;
                let container = store.read(entry.container)?;
                let needed =
                    container
                        .get(&entry.fingerprint)
                        .ok_or(RestoreError::MissingChunk {
                            fingerprint: entry.fingerprint,
                            container: entry.container,
                        })?;
                out.write_all(needed)?;
                bytes += needed.len() as u64;
                for (fp, chunk) in container.iter() {
                    self.insert(fp, chunk.to_vec());
                }
            }
        }
        Ok(RestoreReport {
            bytes_restored: bytes,
            container_reads: misses,
            cache_hits: hits,
            cache_misses: misses,
            ..RestoreReport::default()
        })
    }

    fn name(&self) -> &'static str {
        "chunk-lru"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::{interleaved_fixture, sequential_fixture};

    #[test]
    fn holds_hot_chunks_across_container_evictions() {
        // Interleaved plan, cache large enough for all chunks: one read per
        // container even though access order thrashes container caches.
        let (store, plan, _) = interleaved_fixture(8, 8, 256);
        let mut cache = ChunkLru::new(8 * 8 * 256 + 1024);
        let report = cache.restore(&plan, &store, &mut Vec::new()).unwrap();
        assert_eq!(report.container_reads, 8);
    }

    #[test]
    fn tiny_budget_still_correct() {
        let (store, plan, expect) = interleaved_fixture(4, 8, 256);
        let mut cache = ChunkLru::new(300); // barely more than one chunk
        let mut out = Vec::new();
        cache.restore(&plan, &store, &mut out).unwrap();
        assert_eq!(out, expect);
    }

    #[test]
    fn eviction_respects_budget() {
        let (store, plan, _) = sequential_fixture(4, 8, 256);
        let mut cache = ChunkLru::new(1024);
        cache.restore(&plan, &store, &mut Vec::new()).unwrap();
        assert!(cache.cached_bytes <= 1024 || cache.order.len() == 1);
    }

    #[test]
    fn repeated_chunk_in_plan_hits_cache() {
        let (store, mut plan, _) = sequential_fixture(1, 4, 256);
        // Restore the same chunk many times.
        let first = plan[0];
        plan.extend(std::iter::repeat_n(first, 50));
        let mut cache = ChunkLru::new(1 << 20);
        let report = cache.restore(&plan, &store, &mut Vec::new()).unwrap();
        assert_eq!(report.container_reads, 1);
        assert_eq!(report.bytes_restored, (4 + 50) as u64 * 256);
    }
}
