//! Belady's optimal container cache — an offline upper bound on what any
//! container-granular caching scheme can achieve, used as a reference line
//! in restore experiments.

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

use hidestore_storage::{Container, ContainerId};

use crate::assembler::Policy;
use crate::RestoreEntry;

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
    /// Per plan position, the next position naming the same container
    /// (`usize::MAX` for none).
    next: Vec<usize>,
    /// Cached containers with their next use.
    cached: HashMap<ContainerId, (usize, Arc<Container>)>,
    /// `(next use, container)` of every cached container: the last is the
    /// victim.
    by_next_use: BTreeSet<(usize, ContainerId)>,
}

impl BeladyCache {
    /// Creates the optimal cache holding up to `capacity` containers.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache must hold at least one container");
        BeladyCache {
            capacity,
            next: Vec::new(),
            cached: HashMap::new(),
            by_next_use: BTreeSet::new(),
        }
    }
}

impl Policy for BeladyCache {
    fn start(&mut self, plan: &[RestoreEntry]) {
        self.cached.clear();
        self.by_next_use.clear();
        self.next.clear();
        self.next.resize(plan.len(), usize::MAX);
        let mut later = HashMap::new();
        for (at, entry) in plan.iter().enumerate().rev() {
            if let Some(next) = later.insert(entry.container, at) {
                self.next[at] = next;
            }
        }
    }

    fn lookup(&mut self, plan: &[RestoreEntry], at: usize) -> Option<&[u8]> {
        let id = plan[at].container;
        let (next, container) = self.cached.get_mut(&id)?;
        self.by_next_use.remove(&(*next, id));
        *next = self.next[at];
        self.by_next_use.insert((*next, id));
        container.get(&plan[at].fingerprint)
    }

    fn admit(&mut self, plan: &[RestoreEntry], at: usize, container: &Arc<Container>) {
        if self.cached.len() >= self.capacity {
            if let Some((_, victim)) = self.by_next_use.pop_last() {
                self.cached.remove(&victim);
            }
        }
        let id = plan[at].container;
        self.cached
            .insert(id, (self.next[at], Arc::clone(container)));
        self.by_next_use.insert((self.next[at], id));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::{interleaved_fixture, sequential_fixture};
    use crate::ContainerLru;
    use crate::RestoreCache;

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
