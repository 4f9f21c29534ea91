//! Belady's optimal container cache — an offline upper bound on what any
//! container-granular caching scheme can achieve, used as a reference line
//! in restore experiments.

use std::collections::{BTreeSet, HashMap, VecDeque};
use std::io::Write;
use std::sync::Arc;

use hidestore_storage::{Container, ContainerId, ContainerStore};

use crate::{RestoreCache, RestoreEntry, RestoreError, RestoreReport};

/// Optimal (clairvoyant) container cache.
///
/// Holds up to `capacity` containers and, when full, evicts the container
/// whose next use in the remaining plan is farthest away (never-used-again
/// first) — Belady's MIN algorithm, realizable here because the restore
/// plan is fully known in advance from the recipe. No online scheme
/// (LRU, chunk cache, FAA at equal memory) can need fewer reads, so this
/// gives experiments a floor on container reads at each cache size.
#[derive(Debug)]
pub struct BeladyCache {
    capacity: usize,
}

impl BeladyCache {
    /// Creates the optimal cache holding up to `capacity` containers.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache must hold at least one container");
        BeladyCache { capacity }
    }
}

impl RestoreCache for BeladyCache {
    fn restore(
        &mut self,
        plan: &[RestoreEntry],
        store: &dyn ContainerStore,
        out: &mut dyn Write,
    ) -> Result<RestoreReport, RestoreError> {
        // Precompute, for each container, the queue of positions at which it
        // is needed.
        let mut uses: HashMap<ContainerId, VecDeque<usize>> = HashMap::new();
        for (i, entry) in plan.iter().enumerate() {
            uses.entry(entry.container).or_default().push_back(i);
        }
        // Cache state plus an index of (next_use, container) for O(log n)
        // farthest-victim selection.
        let mut cached: HashMap<ContainerId, Arc<Container>> = HashMap::new();
        let mut next_use: BTreeSet<(usize, ContainerId)> = BTreeSet::new();
        const NEVER: usize = usize::MAX;

        let mut bytes = 0u64;
        let mut hits = 0u64;
        let mut misses = 0u64;
        for (i, entry) in plan.iter().enumerate() {
            // Advance this container's use queue past position i.
            let queue = uses.entry(entry.container).or_default();
            while queue.front().is_some_and(|&p| p <= i) {
                queue.pop_front();
            }
            let upcoming = queue.front().copied().unwrap_or(NEVER);

            let container = if let Some(c) = cached.get(&entry.container) {
                hits += 1;
                // Re-key its position in the eviction index.
                if let Some(old_key) = next_use
                    .iter()
                    .find(|&&(_, c2)| c2 == entry.container)
                    .copied()
                {
                    next_use.remove(&old_key);
                }
                next_use.insert((upcoming, entry.container));
                Arc::clone(c)
            } else {
                misses += 1;
                let c = store.read(entry.container)?;
                if cached.len() >= self.capacity {
                    // Evict the farthest-in-future container.
                    if let Some(victim) = next_use.iter().next_back().copied() {
                        next_use.remove(&victim);
                        cached.remove(&victim.1);
                    }
                }
                cached.insert(entry.container, Arc::clone(&c));
                next_use.insert((upcoming, entry.container));
                c
            };
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
            container_reads: misses,
            cache_hits: hits,
            cache_misses: misses,
            ..RestoreReport::default()
        })
    }

    fn name(&self) -> &'static str {
        "belady"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::{interleaved_fixture, sequential_fixture};
    use crate::ContainerLru;

    #[test]
    fn restores_exact_bytes() {
        let (store, plan, expect) = interleaved_fixture(6, 10, 256);
        let mut out = Vec::new();
        BeladyCache::new(3)
            .restore(&plan, &store, &mut out)
            .unwrap();
        assert_eq!(out, expect);
    }

    #[test]
    fn never_worse_than_lru_at_equal_capacity() {
        for capacity in [2usize, 3, 4, 6] {
            let (s1, plan, _) = interleaved_fixture(8, 12, 128);
            let (s2, _, _) = interleaved_fixture(8, 12, 128);
            let opt = BeladyCache::new(capacity)
                .restore(&plan, &s1, &mut Vec::new())
                .unwrap()
                .container_reads;
            let lru = ContainerLru::new(capacity)
                .restore(&plan, &s2, &mut Vec::new())
                .unwrap()
                .container_reads;
            assert!(opt <= lru, "capacity {capacity}: belady {opt} > lru {lru}");
        }
    }

    #[test]
    fn sequential_plan_is_one_read_per_container() {
        let (store, plan, _) = sequential_fixture(5, 8, 128);
        let report = BeladyCache::new(1)
            .restore(&plan, &store, &mut Vec::new())
            .unwrap();
        assert_eq!(report.container_reads, 5);
    }

    #[test]
    fn full_capacity_reads_each_container_once() {
        let (store, plan, _) = interleaved_fixture(8, 12, 128);
        let report = BeladyCache::new(8)
            .restore(&plan, &store, &mut Vec::new())
            .unwrap();
        assert_eq!(report.container_reads, 8);
    }

    #[test]
    fn classic_belady_beats_lru_on_cyclic_access() {
        // Cyclic sweep over k+1 containers with a k-sized cache: LRU misses
        // every access, Belady does far better.
        let (s1, plan, _) = interleaved_fixture(4, 16, 64);
        let (s2, _, _) = interleaved_fixture(4, 16, 64);
        let opt = BeladyCache::new(3)
            .restore(&plan, &s1, &mut Vec::new())
            .unwrap()
            .container_reads;
        let lru = ContainerLru::new(3)
            .restore(&plan, &s2, &mut Vec::new())
            .unwrap()
            .container_reads;
        assert!(opt < lru, "belady {opt} vs lru {lru}");
    }
}
