//! The active container pool — the "chunk filter" of §4.2.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

use hidestore_hash::Fingerprint;
use hidestore_storage::{Container, ContainerId};

use crate::composite::ACTIVE_ID_BASE;

/// Outcome of an end-of-version pool compaction (§4.2, Figure 6).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompactionReport {
    /// Sparse containers whose chunks were migrated and merged.
    pub containers_merged: u64,
    /// Chunks moved during merging.
    pub chunks_moved: u64,
    /// Bytes of dead space reclaimed (from removals and merging).
    pub bytes_reclaimed: u64,
}

/// The pool of active containers holding the hot chunks of recent versions.
///
/// Active containers are *dynamic*: unique chunks are appended during
/// deduplication, cold chunks are removed at version end, and sparse
/// containers are merged so the hot set stays physically dense — the
/// mechanism that gives new backup versions their physical locality.
///
/// Container IDs handed out by the pool live in their own number space
/// (`1, 2, …`); the containers themselves carry
/// [`ContainerId`]s offset by [`ACTIVE_ID_BASE`] so they can coexist with
/// archival IDs inside one restore plan.
///
/// The pool tracks what changed since the last save, by pool-local ID:
/// the containers added to, removed from or compacted in place, and the
/// containers emptied or merged away. The two sets are disjoint.
#[derive(Debug)]
pub struct ActivePool {
    capacity: usize,
    /// Shared with the restore views that snapshot them; a mutation copies
    /// a container only while such a view is still alive.
    containers: BTreeMap<u32, Arc<Container>>,
    /// The container currently accepting inserts.
    open: Option<u32>,
    next_cid: u32,
    fp_index: HashMap<Fingerprint, u32>,
    /// Pooled containers whose bytes changed since the last save.
    changed: BTreeSet<u32>,
    /// IDs removed from the pool since the last save.
    dropped: BTreeSet<u32>,
}

impl ActivePool {
    /// Creates a pool of containers with the given capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "container capacity must be non-zero");
        ActivePool {
            capacity,
            containers: BTreeMap::new(),
            open: None,
            next_cid: 1,
            fp_index: HashMap::new(),
            changed: BTreeSet::new(),
            dropped: BTreeSet::new(),
        }
    }

    /// Records that container `cid` (present in the pool) changed. A
    /// dropped ID that holds a container again is published, not removed.
    pub(crate) fn touch(&mut self, cid: u32) {
        self.changed.insert(cid);
        self.dropped.remove(&cid);
    }

    /// Takes container `cid` out of the pool and records the drop.
    fn drop_container(&mut self, cid: u32) -> Option<Container> {
        let container = self.containers.remove(&cid)?;
        if self.open == Some(cid) {
            self.open = None;
        }
        self.changed.remove(&cid);
        self.dropped.insert(cid);
        Some(Arc::unwrap_or_clone(container))
    }

    /// Appends a chunk, returning the active container ID now holding it.
    /// If the fingerprint is already pooled, returns its existing location.
    pub fn add(&mut self, fp: Fingerprint, data: &[u8]) -> u32 {
        if let Some(&cid) = self.fp_index.get(&fp) {
            return cid;
        }
        loop {
            let cid = match self.open {
                Some(cid) => cid,
                None => {
                    let cid = self.next_cid;
                    self.next_cid += 1;
                    self.containers.insert(
                        cid,
                        Arc::new(Container::new(
                            ContainerId::new(ACTIVE_ID_BASE + cid),
                            self.capacity,
                        )),
                    );
                    self.open = Some(cid);
                    cid
                }
            };
            let Some(container) = self.containers.get_mut(&cid) else {
                // The open marker pointed at a container that no longer
                // exists (it was merged away); clear it and retry.
                self.open = None;
                continue;
            };
            if Arc::make_mut(container).try_add(fp, data) {
                self.fp_index.insert(fp, cid);
                self.touch(cid);
                return cid;
            }
            // Full: it stays in the pool (still hot), but stops receiving.
            self.open = None;
        }
    }

    /// Removes a chunk (cold demotion), returning its content.
    pub fn remove(&mut self, fp: &Fingerprint) -> Option<Vec<u8>> {
        let cid = self.fp_index.remove(fp)?;
        let container = Arc::make_mut(self.containers.get_mut(&cid)?);
        let data = container.get(fp).map(<[u8]>::to_vec);
        container.remove(fp);
        if container.is_empty() {
            self.drop_container(cid);
        } else {
            self.touch(cid);
        }
        data
    }

    /// The active container ID holding `fp`, if pooled.
    pub fn locate(&self, fp: &Fingerprint) -> Option<u32> {
        self.fp_index.get(fp).copied()
    }

    /// Chunk content by fingerprint.
    pub fn get(&self, fp: &Fingerprint) -> Option<&[u8]> {
        let cid = self.fp_index.get(fp)?;
        self.containers.get(cid).and_then(|c| c.get(fp))
    }

    /// A read-only snapshot of one active container for restore, by pool-
    /// local ID. The container is shared, not copied: a later mutation of
    /// the pool copies it only if the snapshot is still alive.
    pub fn snapshot(&self, cid: u32) -> Option<Arc<Container>> {
        self.containers.get(&cid).map(Arc::clone)
    }

    /// Merges sparse containers (utilization below `threshold`) and compacts
    /// dead space, per Figure 6. Returns the report and the relocation map
    /// (fingerprint → new pool-local CID) the fingerprint cache needs.
    pub fn compact(&mut self, threshold: f64) -> (CompactionReport, HashMap<Fingerprint, u32>) {
        self.compact_with_order(threshold, &HashMap::new())
    }

    /// [`ActivePool::compact`] with a stream-order hint: migrating chunks
    /// are packed in ascending `rank` (their position in the newest backup
    /// stream), so the merged containers line up with the order a restore
    /// of the newest version will read them — the physical locality the
    /// paper's §4.2 compaction exists to create. Chunks without a rank
    /// (present only in older history) are packed last.
    pub fn compact_with_order(
        &mut self,
        threshold: f64,
        rank: &HashMap<Fingerprint, u32>,
    ) -> (CompactionReport, HashMap<Fingerprint, u32>) {
        let mut report = CompactionReport::default();
        let sparse_ids: Vec<u32> = self
            .containers
            .iter()
            .filter(|(_, c)| c.utilization() < threshold)
            .map(|(&cid, _)| cid)
            .collect();
        let mut relocations = HashMap::new();
        if sparse_ids.len() >= 2 {
            // Migrate all chunks of sparse containers into fresh containers,
            // packed tightly in stream order (falling back to the original
            // physical order for unranked chunks).
            let mut migrating: Vec<(Fingerprint, Vec<u8>)> = Vec::new();
            for &cid in &sparse_ids {
                let Some(container) = self.drop_container(cid) else {
                    continue;
                };
                report.containers_merged += 1;
                report.bytes_reclaimed += (container.used_bytes() - container.live_bytes()) as u64;
                for (fp, data) in container.drain_chunks() {
                    self.fp_index.remove(&fp);
                    migrating.push((fp, data));
                }
            }
            if !rank.is_empty() {
                let mut keyed: Vec<(u32, usize)> = migrating
                    .iter()
                    .enumerate()
                    .map(|(i, (fp, _))| (rank.get(fp).copied().unwrap_or(u32::MAX), i))
                    .collect();
                keyed.sort_unstable();
                let mut reordered = Vec::with_capacity(migrating.len());
                let mut taken: Vec<Option<(Fingerprint, Vec<u8>)>> =
                    migrating.into_iter().map(Some).collect();
                for (_, i) in keyed {
                    if let Some(item) = taken[i].take() {
                        reordered.push(item);
                    }
                }
                migrating = reordered;
            }
            for (fp, data) in migrating {
                let new_cid = self.add(fp, &data);
                relocations.insert(fp, new_cid);
                report.chunks_moved += 1;
            }
        }
        // In-place compaction of remaining containers with dead bytes (does
        // not change CIDs).
        for (&cid, container) in &mut self.containers {
            let dead = container.used_bytes() - container.live_bytes();
            if dead > 0 {
                report.bytes_reclaimed += dead as u64;
                Arc::make_mut(container).compact_in_place();
                self.changed.insert(cid);
            }
        }
        (report, relocations)
    }

    /// Number of containers in the pool.
    pub fn container_count(&self) -> usize {
        self.containers.len()
    }

    /// Total live bytes pooled.
    pub fn live_bytes(&self) -> u64 {
        self.containers
            .values()
            .map(|c| c.live_bytes() as u64)
            .sum()
    }

    /// Number of chunks pooled.
    pub fn chunk_count(&self) -> usize {
        self.fp_index.len()
    }

    /// Pool-local IDs of all active containers.
    pub fn container_ids(&self) -> Vec<u32> {
        self.containers.keys().copied().collect()
    }

    /// Iterates over `(pool-local id, container)` pairs in ascending ID
    /// order — the borrow-only view integrity checkers use to inspect the
    /// pool without cloning container snapshots.
    pub fn containers(&self) -> impl Iterator<Item = (u32, &Container)> {
        self.containers.iter().map(|(&cid, c)| (cid, &**c))
    }

    /// The containers added to, removed from or compacted in place since
    /// the last [`ActivePool::mark_saved`], as `(pool-local id, container)`
    /// in ascending ID order.
    pub(crate) fn changed(&self) -> impl Iterator<Item = (u32, &Container)> {
        self.changed
            .iter()
            .filter_map(|&cid| Some((cid, &**self.containers.get(&cid)?)))
    }

    /// Pool-local IDs of the containers emptied or merged away since the
    /// last [`ActivePool::mark_saved`], ascending. None is in the pool.
    pub(crate) fn dropped(&self) -> impl Iterator<Item = u32> + '_ {
        self.dropped.iter().copied()
    }

    /// Forgets the tracked changes: the caller has persisted the pool.
    pub(crate) fn mark_saved(&mut self) {
        self.changed.clear();
        self.dropped.clear();
    }

    /// Rebuilds a pool from persisted containers (repository reopen). The
    /// containers must carry the [`ACTIVE_ID_BASE`]-offset IDs they were
    /// snapshotted with; a container outside the active ID space is reported
    /// as an error naming the offending ID. The pool has no tracked changes.
    pub fn from_containers(capacity: usize, containers: Vec<Container>) -> Result<Self, String> {
        let mut pool = ActivePool::new(capacity);
        for container in containers {
            let Some(cid) = container.id().get().checked_sub(ACTIVE_ID_BASE) else {
                return Err(format!(
                    "container {} is not an active-pool snapshot",
                    container.id()
                ));
            };
            pool.next_cid = pool.next_cid.max(cid + 1);
            for fp in container.fingerprints() {
                pool.fp_index.insert(fp, cid);
            }
            pool.containers.insert(cid, Arc::new(container));
        }
        Ok(pool)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp(n: u64) -> Fingerprint {
        Fingerprint::synthetic(n)
    }

    #[test]
    fn add_locate_get() {
        let mut pool = ActivePool::new(1024);
        let cid = pool.add(fp(1), b"hello");
        assert_eq!(pool.locate(&fp(1)), Some(cid));
        assert_eq!(pool.get(&fp(1)), Some(&b"hello"[..]));
        assert_eq!(pool.chunk_count(), 1);
    }

    #[test]
    fn duplicate_add_returns_existing_location() {
        let mut pool = ActivePool::new(1024);
        let a = pool.add(fp(1), b"x");
        let b = pool.add(fp(1), b"x");
        assert_eq!(a, b);
        assert_eq!(pool.chunk_count(), 1);
    }

    #[test]
    fn full_container_rolls_over() {
        let mut pool = ActivePool::new(64);
        let a = pool.add(fp(1), &[1; 40]);
        let b = pool.add(fp(2), &[2; 40]);
        assert_ne!(a, b);
        assert_eq!(pool.container_count(), 2);
    }

    #[test]
    fn remove_returns_content_and_unindexes() {
        let mut pool = ActivePool::new(1024);
        pool.add(fp(1), b"data");
        let data = pool.remove(&fp(1)).unwrap();
        assert_eq!(data, b"data");
        assert_eq!(pool.locate(&fp(1)), None);
        assert!(pool.remove(&fp(1)).is_none());
    }

    #[test]
    fn empty_container_dropped_after_last_removal() {
        let mut pool = ActivePool::new(1024);
        pool.add(fp(1), b"only");
        pool.remove(&fp(1));
        assert_eq!(pool.container_count(), 0);
    }

    #[test]
    fn compaction_merges_sparse_containers() {
        let mut pool = ActivePool::new(100);
        // Fill three containers, then remove most chunks to make them sparse.
        for i in 0..6u64 {
            pool.add(fp(i), &[i as u8; 45]);
        }
        assert_eq!(pool.container_count(), 3);
        for i in [0u64, 2, 4] {
            pool.remove(&fp(i));
        }
        let (report, relocations) = pool.compact(0.6);
        assert!(report.containers_merged >= 2, "{report:?}");
        assert_eq!(pool.container_count(), 2); // 3 chunks of 45B -> 2 containers of 100B
                                               // Every surviving chunk remains readable and relocations point right.
        for i in [1u64, 3, 5] {
            let data = pool.get(&fp(i)).unwrap();
            assert_eq!(data, &[i as u8; 45][..]);
            if let Some(&new_cid) = relocations.get(&fp(i)) {
                assert_eq!(pool.locate(&fp(i)), Some(new_cid));
            }
        }
    }

    #[test]
    fn compaction_noop_when_dense() {
        let mut pool = ActivePool::new(100);
        pool.add(fp(1), &[1; 90]);
        let (report, relocations) = pool.compact(0.5);
        assert_eq!(report.containers_merged, 0);
        assert!(relocations.is_empty());
    }

    #[test]
    fn snapshot_exposes_container_with_offset_id() {
        let mut pool = ActivePool::new(1024);
        let cid = pool.add(fp(1), b"snap");
        let snap = pool.snapshot(cid).unwrap();
        assert_eq!(snap.id().get(), ACTIVE_ID_BASE + cid);
        assert_eq!(snap.get(&fp(1)), Some(&b"snap"[..]));
    }

    fn changed_ids(pool: &ActivePool) -> Vec<u32> {
        pool.changed().map(|(cid, _)| cid).collect()
    }

    #[test]
    fn add_and_remove_mark_the_container_they_touch() {
        let mut pool = ActivePool::new(64);
        let a = pool.add(fp(1), &[1; 30]);
        assert_eq!(pool.add(fp(3), &[3; 20]), a);
        let b = pool.add(fp(2), &[2; 40]);
        assert_eq!(changed_ids(&pool), [a, b]);
        pool.mark_saved();
        assert!(changed_ids(&pool).is_empty());

        // A duplicate add changes nothing.
        pool.add(fp(1), &[1; 30]);
        assert!(changed_ids(&pool).is_empty());
        // A removal that leaves chunks behind marks the container.
        pool.remove(&fp(3));
        assert_eq!(changed_ids(&pool), [a]);
        // Emptying a container drops it instead.
        pool.remove(&fp(2));
        assert_eq!(pool.dropped().collect::<Vec<_>>(), [b]);
        assert_eq!(changed_ids(&pool), [a]);
        pool.mark_saved();
        assert_eq!(pool.dropped().count(), 0);
    }

    #[test]
    fn compaction_marks_merges_refills_and_in_place_compactions() {
        let mut pool = ActivePool::new(100);
        for i in 0..6u64 {
            pool.add(fp(i), &[i as u8; 45]);
        }
        let ids = pool.container_ids();
        for i in [0u64, 2, 4] {
            pool.remove(&fp(i));
        }
        pool.mark_saved();
        let (report, _) = pool.compact(0.6);
        assert!(report.containers_merged >= 2, "{report:?}");
        let dropped: Vec<u32> = pool.dropped().collect();
        assert_eq!(dropped.len() as u64, report.containers_merged);
        assert!(dropped.iter().all(|cid| ids.contains(cid)));
        // Every container still pooled got the merged chunks or was
        // compacted in place.
        assert_eq!(changed_ids(&pool), pool.container_ids());
    }

    #[test]
    fn in_place_compaction_of_a_loaded_container_marks_it() {
        // A snapshot persisted with dead bytes: nothing is added to or
        // removed from it, yet compaction rewrites its bytes.
        let mut container = Container::new(ContainerId::new(ACTIVE_ID_BASE + 1), 1024);
        container.try_add(fp(1), &[1; 100]);
        container.try_add(fp(2), &[2; 100]);
        container.remove(&fp(2));
        let mut pool = ActivePool::from_containers(1024, vec![container]).unwrap();
        assert!(changed_ids(&pool).is_empty(), "a rebuilt pool is clean");
        pool.compact(0.01);
        assert_eq!(changed_ids(&pool), [1]);
    }

    #[test]
    fn live_bytes_tracks_removals() {
        let mut pool = ActivePool::new(1024);
        pool.add(fp(1), &[0; 100]);
        pool.add(fp(2), &[0; 50]);
        assert_eq!(pool.live_bytes(), 150);
        pool.remove(&fp(1));
        assert_eq!(pool.live_bytes(), 50);
    }
}
