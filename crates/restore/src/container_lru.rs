//! Container-granular LRU restore cache — the classic scheme the paper's
//! §2.3 describes first.

use std::collections::HashMap;
use std::io::Write;
use std::sync::Arc;

use hidestore_storage::{Container, ContainerId, ContainerStore};

use crate::{RestoreCache, RestoreEntry, RestoreError, RestoreReport};

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
///
/// let cache = ContainerLru::new(64);
/// assert_eq!(cache.name(), "container-lru");
/// ```
#[derive(Debug)]
pub struct ContainerLru {
    capacity: usize,
    cache: HashMap<ContainerId, Arc<Container>>,
    order: Vec<ContainerId>,
    hits: u64,
    misses: u64,
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
            cache: HashMap::new(),
            order: Vec::new(),
            hits: 0,
            misses: 0,
        }
    }

    fn touch(&mut self, id: ContainerId) {
        if let Some(pos) = self.order.iter().position(|&c| c == id) {
            self.order.remove(pos);
        }
        self.order.push(id);
    }

    fn fetch(
        &mut self,
        id: ContainerId,
        store: &dyn ContainerStore,
    ) -> Result<Arc<Container>, RestoreError> {
        if let Some(c) = self.cache.get(&id).cloned() {
            self.touch(id);
            self.hits += 1;
            return Ok(c);
        }
        self.misses += 1;
        let container = store.read(id)?;
        self.cache.insert(id, Arc::clone(&container));
        self.touch(id);
        while self.cache.len() > self.capacity {
            let evict = self.order.remove(0);
            self.cache.remove(&evict);
        }
        Ok(container)
    }
}

impl RestoreCache for ContainerLru {
    fn restore(
        &mut self,
        plan: &[RestoreEntry],
        store: &dyn ContainerStore,
        out: &mut dyn Write,
    ) -> Result<RestoreReport, RestoreError> {
        self.cache.clear();
        self.order.clear();
        self.hits = 0;
        self.misses = 0;
        let mut bytes = 0u64;
        for entry in plan {
            let container = self.fetch(entry.container, store)?;
            let data = container
                .get(&entry.fingerprint)
                .ok_or(RestoreError::MissingChunk {
                    fingerprint: entry.fingerprint,
                    container: entry.container,
                })?;
            out.write_all(data)?;
            bytes += data.len() as u64;
        }
        Ok(RestoreReport {
            bytes_restored: bytes,
            container_reads: self.misses,
            cache_hits: self.hits,
            cache_misses: self.misses,
            ..RestoreReport::default()
        })
    }

    fn name(&self) -> &'static str {
        "container-lru"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::{interleaved_fixture, sequential_fixture};

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
