//! Chunk-granular LRU restore cache.

use std::sync::Arc;

use hidestore_storage::Container;

use crate::assembler::{ChunkCache, Policy};
use crate::RestoreEntry;

/// Chunk-by-chunk restore with an LRU cache of individual chunks.
///
/// On a miss the whole container is read (one counted read) and *all* its
/// chunks are inserted, evicting least-recently-used chunks once the byte
/// budget is exceeded. A hit, or reading a container that holds a chunk
/// already kept, makes that chunk the most recently used. Compared with [`crate::ContainerLru`], memory is spent
/// on chunks rather than container slots, which tolerates fragmentation
/// better — the paper's §2.3 cites this family as the chunk-based caching
/// baseline.
#[derive(Debug)]
pub struct ChunkLru {
    cache: ChunkCache,
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
            cache: ChunkCache::new(capacity_bytes),
        }
    }
}

impl Policy for ChunkLru {
    fn start(&mut self, _plan: &[RestoreEntry]) {
        self.cache = ChunkCache::new(self.cache.budget);
    }

    fn lookup(&mut self, plan: &[RestoreEntry], at: usize) -> Option<&[u8]> {
        self.cache.touch(plan[at].fingerprint);
        self.cache.get(&plan[at].fingerprint)
    }

    fn admit(&mut self, _plan: &[RestoreEntry], _at: usize, container: &Arc<Container>) {
        for (fp, chunk) in container.iter() {
            self.cache.touch(fp);
            self.cache.insert(fp, chunk);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::{interleaved_fixture, sequential_fixture};
    use crate::RestoreCache;

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
