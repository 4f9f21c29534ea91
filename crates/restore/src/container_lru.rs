//! Container-granular LRU restore cache — the classic scheme the paper's
//! §2.3 describes first.

use std::sync::Arc;

use hidestore_storage::{Container, ContainerId};

use crate::assembler::Policy;
use crate::RestoreEntry;

/// Chunk-by-chunk restore with an LRU cache of whole containers.
///
/// Exploits the logical locality of backup streams: a container read for one
/// chunk probably holds the next several chunks too. Its weakness — the one
/// motivating the paper — is that as fragmentation grows, each cached
/// container contributes only a few useful chunks, so cache slots are wasted
/// on mostly-irrelevant data.
///
/// # Examples
///
/// ```
/// use hidestore_restore::{ContainerLru, RestoreCache};
/// use hidestore_storage::MemoryContainerStore;
///
/// let mut cache = ContainerLru::new(64);
/// let store = MemoryContainerStore::new();
/// let report = cache.restore(&[], &store, &mut Vec::new()).unwrap();
/// assert_eq!(report.container_reads, 0);
/// ```
#[derive(Debug)]
pub struct ContainerLru {
    capacity: usize,
    /// Cached containers, least recently used first.
    cache: Vec<(ContainerId, Arc<Container>)>,
}

impl ContainerLru {
    /// Creates a cache holding up to `capacity` containers.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache must hold at least one container");
        ContainerLru {
            capacity,
            cache: Vec::new(),
        }
    }
}

impl Policy for ContainerLru {
    fn start(&mut self, _plan: &[RestoreEntry]) {
        self.cache.clear();
    }

    fn lookup(&mut self, plan: &[RestoreEntry], at: usize) -> Option<&[u8]> {
        let pos = self
            .cache
            .iter()
            .position(|(id, _)| *id == plan[at].container)?;
        let used = self.cache.remove(pos);
        self.cache.push(used);
        self.cache[self.cache.len() - 1]
            .1
            .get(&plan[at].fingerprint)
    }

    fn admit(&mut self, plan: &[RestoreEntry], at: usize, container: &Arc<Container>) {
        if self.cache.len() == self.capacity {
            self.cache.remove(0);
        }
        self.cache.push((plan[at].container, Arc::clone(container)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::{interleaved_fixture, sequential_fixture};
    use crate::RestoreCache;

    #[test]
    fn cache_hit_avoids_rereads() {
        let (store, plan, _) = sequential_fixture(4, 8, 256);
        let mut cache = ContainerLru::new(4);
        let report = cache.restore(&plan, &store, &mut Vec::new()).unwrap();
        assert_eq!(report.container_reads, 4);
    }

    #[test]
    fn thrashing_when_cache_too_small() {
        // Interleaved access across 8 containers with a 2-container cache:
        // nearly every access misses.
        let (store, plan, _) = interleaved_fixture(8, 8, 256);
        let mut cache = ContainerLru::new(2);
        let report = cache.restore(&plan, &store, &mut Vec::new()).unwrap();
        assert!(
            report.container_reads > 32,
            "expected thrashing, got {} reads",
            report.container_reads
        );
    }

    #[test]
    fn big_cache_fixes_interleaving() {
        let (store, plan, _) = interleaved_fixture(8, 8, 256);
        let mut cache = ContainerLru::new(8);
        let report = cache.restore(&plan, &store, &mut Vec::new()).unwrap();
        assert_eq!(report.container_reads, 8);
    }

    #[test]
    fn reuse_across_restores_resets_state() {
        let (store, plan, expect) = sequential_fixture(2, 4, 128);
        let mut cache = ContainerLru::new(2);
        for _ in 0..2 {
            let mut out = Vec::new();
            cache.restore(&plan, &store, &mut out).unwrap();
            assert_eq!(out, expect);
        }
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_capacity_rejected() {
        ContainerLru::new(0);
    }
}
