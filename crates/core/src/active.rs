//! The active container pool — the "chunk filter" of §4.2 — and the one
//! table of the hot set, which is also the fingerprint cache of §4.1.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

use hidestore_hash::Fingerprint;
use hidestore_storage::{Container, ContainerId, Recipe, VersionId};

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

/// How a chunk of the version being backed up relates to the hot set
/// (Figure 5's three cases).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Classification {
    /// Case 1: not pooled — a new unique chunk; the caller stores it with
    /// [`ActivePool::add`].
    Unique,
    /// Case 2: pooled and last seen in an earlier version — a duplicate,
    /// now known to be hot and stamped with the current version.
    HotFromPrevious,
    /// Case 3: already seen in the current version; nothing to do.
    AlreadyCurrent,
}

/// The pool's record of one hot chunk: Figure 5's cache entry (size and
/// active container) plus the version that last held it.
#[derive(Debug, Clone, Copy)]
struct HotChunk {
    /// Pool-local ID of the active container holding the chunk.
    cid: u32,
    /// Chunk size in bytes.
    size: u32,
    /// The last version whose stream held the chunk; 0 when no version has
    /// been stamped on it since the pool was rebuilt.
    seen: u32,
    /// The chunk's first position in version `seen`'s stream.
    rank: u32,
    /// Whether this instance's ingest front end cut and fingerprinted the
    /// pooled bytes (see [`ActivePool::known`]); never set on load.
    known: bool,
}

/// The pool of active containers holding the hot chunks of recent versions.
///
/// Active containers are *dynamic*: unique chunks are appended during
/// deduplication, cold chunks are removed at version end, and sparse
/// containers are merged so the hot set stays physically dense — the
/// mechanism that gives new backup versions their physical locality.
///
/// The pool's index is the only per-chunk table of the hot set: each
/// pooled fingerprint maps to its container, its size, the last version
/// that held it and its first position in that version's stream. The
/// paper's `T2`, `T1` (and `T0` at depth 2) are that version stamp: the
/// chunks seen in the current version, and those last seen one (or two)
/// versions back. There is no on-disk full index behind it (§4.1).
///
/// Container IDs handed out by the pool live in their own number space
/// (`1, 2, …`); the containers themselves carry
/// [`ContainerId`]s offset by [`ACTIVE_ID_BASE`] so they can coexist with
/// archival IDs inside one restore plan.
///
/// The pool tracks what changed since the last save, by pool-local ID:
/// the containers added to, removed from or compacted in place, and the
/// containers emptied or merged away. The two sets are disjoint.
///
/// # Examples
///
/// ```
/// use hidestore_core::{ActivePool, Classification};
/// use hidestore_hash::Fingerprint;
/// use hidestore_storage::VersionId;
///
/// let (v1, v2) = (VersionId::new(1), VersionId::new(2));
/// let mut pool = ActivePool::new(1024);
/// let fp = Fingerprint::of(b"chunk");
/// assert_eq!(pool.classify(fp, v1, 0), Classification::Unique);
/// pool.add(fp, b"chunk", v1, 0);
/// assert_eq!(pool.classify(fp, v1, 3), Classification::AlreadyCurrent);
/// assert_eq!(pool.classify(fp, v2, 0), Classification::HotFromPrevious);
/// ```
#[derive(Debug)]
pub struct ActivePool {
    capacity: usize,
    /// Shared with the restore views that snapshot them; a mutation copies
    /// a container only while such a view is still alive.
    containers: BTreeMap<u32, Arc<Container>>,
    /// The container currently accepting inserts.
    open: Option<u32>,
    next_cid: u32,
    hot: HashMap<Fingerprint, HotChunk>,
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
            hot: HashMap::new(),
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

    /// Classifies a chunk at position `rank` of `version`'s stream (Figure
    /// 5) in one lookup. A pooled chunk last seen in an earlier version is
    /// stamped with `version` and `rank`.
    pub fn classify(&mut self, fp: Fingerprint, version: VersionId, rank: u32) -> Classification {
        match self.hot.get_mut(&fp) {
            None => Classification::Unique,
            Some(chunk) if chunk.seen == version.get() => Classification::AlreadyCurrent,
            Some(chunk) => {
                chunk.seen = version.get();
                chunk.rank = rank;
                Classification::HotFromPrevious
            }
        }
    }

    /// Appends a unique chunk first seen at position `rank` of `version`'s
    /// stream, returning the active container ID now holding it. If the
    /// fingerprint is already pooled, returns its existing location.
    pub fn add(&mut self, fp: Fingerprint, data: &[u8], version: VersionId, rank: u32) -> u32 {
        self.insert(fp, data, version, rank, false)
    }

    /// [`ActivePool::add`], recording whether the ingest front end of this
    /// instance just cut and fingerprinted `data` (see
    /// [`ActivePool::known`]).
    pub(crate) fn insert(
        &mut self,
        fp: Fingerprint,
        data: &[u8],
        version: VersionId,
        rank: u32,
        known: bool,
    ) -> u32 {
        if let Some(chunk) = self.hot.get(&fp) {
            return chunk.cid;
        }
        let cid = self.place(fp, data);
        self.hot.insert(
            fp,
            HotChunk {
                cid,
                size: data.len() as u32,
                seen: version.get(),
                rank,
                known,
            },
        );
        cid
    }

    /// Records that the ingest front end just cut `data` and fingerprinted
    /// it as `fp`: a pooled `fp` whose pooled bytes equal `data` becomes
    /// known. Pooled bytes that differ (a corrupt container loaded at open)
    /// stay unknown.
    pub(crate) fn vouch(&mut self, fp: &Fingerprint, data: &[u8]) {
        let Some(chunk) = self.hot.get_mut(fp) else {
            return;
        };
        if !chunk.known {
            let pooled = self.containers.get(&chunk.cid).and_then(|c| c.get(fp));
            chunk.known = pooled == Some(data);
        }
    }

    /// The known pooled chunks as `(fingerprint, bytes)`, in unspecified
    /// order: those whose bytes this instance's ingest front end cut and
    /// fingerprinted itself — added by `HiDeStore::backup`, or found equal
    /// to a chunk it had just scanned and hashed. Chunks loaded at open, or
    /// added by [`ActivePool::add`] or `HiDeStore::backup_trace`, are not
    /// known until then, so no pooled byte of unknown origin can steer a
    /// cut or a fingerprint (DESIGN.md §8.6).
    pub(crate) fn known(&self) -> impl Iterator<Item = (Fingerprint, &[u8])> + '_ {
        self.hot
            .iter()
            .filter(|(_, chunk)| chunk.known)
            .filter_map(|(fp, chunk)| Some((*fp, self.containers.get(&chunk.cid)?.get(fp)?)))
    }

    /// Writes a chunk's bytes into the open container, opening a new one
    /// when it is full, and returns the container's ID. The index is the
    /// caller's to update.
    fn place(&mut self, fp: Fingerprint, data: &[u8]) -> u32 {
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
                self.touch(cid);
                return cid;
            }
            // Full: it stays in the pool (still hot), but stops receiving.
            self.open = None;
        }
    }

    /// Removes a chunk (cold demotion).
    pub fn remove(&mut self, fp: &Fingerprint) {
        let Some(HotChunk { cid, .. }) = self.hot.remove(fp) else {
            return;
        };
        let Some(container) = self.containers.get_mut(&cid) else {
            return;
        };
        let container = Arc::make_mut(container);
        container.remove(fp);
        if container.is_empty() {
            self.drop_container(cid);
        } else {
            self.touch(cid);
        }
    }

    /// The active container ID holding `fp`, if pooled.
    pub fn locate(&self, fp: &Fingerprint) -> Option<u32> {
        self.hot.get(fp).map(|chunk| chunk.cid)
    }

    /// Whether `fp` is pooled and `version`'s stream held it.
    pub(crate) fn seen_in(&self, fp: &Fingerprint, version: VersionId) -> bool {
        self.hot
            .get(fp)
            .is_some_and(|chunk| chunk.seen == version.get())
    }

    /// Every pooled chunk as `(fingerprint, pool-local container ID)`, in
    /// unspecified order.
    pub fn hot_chunks(&self) -> impl Iterator<Item = (Fingerprint, u32)> + '_ {
        self.hot.iter().map(|(&fp, chunk)| (fp, chunk.cid))
    }

    /// The cold set at the end of `version` with `depth` versions of
    /// history: the chunks last seen at `version - depth` or earlier, as
    /// `(fingerprint, size)` in (container, fingerprint) order — the
    /// demotion order, which approximates the old physical layout. For
    /// depth 1 these are "the chunks remaining in T1" (§4.1). In normal
    /// operation every one was last seen at exactly `version - depth`; an
    /// older or missing stamp marks a chunk a failed demotion, a degraded
    /// open or a prune below `depth` left pooled, and it goes cold too.
    pub(crate) fn cold(&self, version: VersionId, depth: usize) -> Vec<(Fingerprint, u32)> {
        let depth = u32::try_from(depth).unwrap_or(u32::MAX);
        let Some(last_seen) = version.get().checked_sub(depth).filter(|&w| w > 0) else {
            return Vec::new();
        };
        let mut cold: Vec<(u32, Fingerprint, u32)> = self
            .hot
            .iter()
            .filter(|(_, chunk)| chunk.seen <= last_seen)
            .map(|(&fp, chunk)| (chunk.cid, fp, chunk.size))
            .collect();
        cold.sort_unstable();
        cold.into_iter().map(|(_, fp, size)| (fp, size)).collect()
    }

    /// Stamps every pooled chunk of `recipe` as last seen in its version.
    /// Reopening a repository stamps the newest recipes oldest first, so
    /// each chunk ends up stamped with the newest one that holds it.
    pub(crate) fn stamp(&mut self, recipe: &Recipe) {
        let version = recipe.version().get();
        for entry in recipe.entries() {
            if let Some(chunk) = self.hot.get_mut(&entry.fingerprint) {
                chunk.seen = version;
            }
        }
    }

    /// Chunk content by fingerprint.
    pub fn get(&self, fp: &Fingerprint) -> Option<&[u8]> {
        let chunk = self.hot.get(fp)?;
        self.containers.get(&chunk.cid).and_then(|c| c.get(fp))
    }

    /// A read-only snapshot of one active container for restore, by pool-
    /// local ID. The container is shared, not copied: a later mutation of
    /// the pool copies it only if the snapshot is still alive.
    pub fn snapshot(&self, cid: u32) -> Option<Arc<Container>> {
        self.containers.get(&cid).map(Arc::clone)
    }

    /// Merges sparse containers (utilization below `threshold`) and compacts
    /// dead space, per Figure 6. Migrating chunks are packed in the order
    /// `version`'s stream first held them, so the merged containers line up
    /// with the order a restore of the newest version reads them — the
    /// physical locality the paper's §4.2 compaction exists to create.
    /// Chunks `version` did not hold (present only in older history) are
    /// packed last, in their physical order. Moved chunks keep their
    /// entries; only the container changes.
    pub fn compact_with_order(&mut self, threshold: f64, version: VersionId) -> CompactionReport {
        let mut report = CompactionReport::default();
        let sparse_ids: Vec<u32> = self
            .containers
            .iter()
            .filter(|(_, c)| c.utilization() < threshold)
            .map(|(&cid, _)| cid)
            .collect();
        if sparse_ids.len() >= 2 {
            let mut migrating: Vec<(Fingerprint, Vec<u8>)> = Vec::new();
            for &cid in &sparse_ids {
                let Some(container) = self.drop_container(cid) else {
                    continue;
                };
                report.containers_merged += 1;
                report.bytes_reclaimed += (container.used_bytes() - container.live_bytes()) as u64;
                migrating.extend(container.drain_chunks());
            }
            // Stable: chunks of equal rank keep their physical order.
            migrating.sort_by_cached_key(|(fp, _)| match self.hot.get(fp) {
                Some(chunk) if chunk.seen == version.get() => chunk.rank,
                _ => u32::MAX,
            });
            for (fp, data) in migrating {
                let cid = self.place(fp, &data);
                if let Some(chunk) = self.hot.get_mut(&fp) {
                    chunk.cid = cid;
                }
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
        report
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
        self.hot.len()
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
    /// as an error naming the offending ID. The pool has no tracked changes,
    /// and no chunk is stamped with a version yet.
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
            for (fp, _, size) in container.entry_locations() {
                let chunk = HotChunk {
                    cid,
                    size,
                    seen: 0,
                    rank: 0,
                    known: false,
                };
                pool.hot.insert(fp, chunk);
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

    fn v(n: u32) -> VersionId {
        VersionId::new(n)
    }

    /// Backs up the chunks `ids` (100 bytes each) as `version`: Figure 5
    /// per chunk, then the end-of-version demotion at `depth`. Returns the
    /// demoted chunk ids, sorted.
    fn backup(pool: &mut ActivePool, version: u32, ids: &[u64], depth: usize) -> Vec<u64> {
        for (i, &id) in (0u32..).zip(ids) {
            if pool.classify(fp(id), v(version), i) == Classification::Unique {
                pool.add(fp(id), &[id as u8; 100], v(version), i);
            }
        }
        let cold = pool.cold(v(version), depth);
        for (fp, _) in &cold {
            pool.remove(fp);
        }
        let mut ids: Vec<u64> = cold
            .iter()
            .map(|(f, _)| u64::from_be_bytes(f.as_bytes()[..8].try_into().unwrap()))
            .collect();
        ids.sort_unstable();
        ids
    }

    #[test]
    fn three_cases_of_figure_5() {
        let mut pool = ActivePool::new(1024);
        // Version 1: A unique, stored.
        assert_eq!(pool.classify(fp(1), v(1), 0), Classification::Unique);
        let cid = pool.add(fp(1), b"A", v(1), 0);
        // Same version again: case 3.
        assert_eq!(
            pool.classify(fp(1), v(1), 5),
            Classification::AlreadyCurrent
        );
        // Version 2: last seen in version 1 -> case 2, restamped.
        assert_eq!(
            pool.classify(fp(1), v(2), 0),
            Classification::HotFromPrevious
        );
        assert!(pool.seen_in(&fp(1), v(2)) && !pool.seen_in(&fp(1), v(1)));
        // Second time within version 2: now case 3.
        assert_eq!(
            pool.classify(fp(1), v(2), 1),
            Classification::AlreadyCurrent
        );
        assert_eq!(pool.locate(&fp(1)), Some(cid));
    }

    #[test]
    fn cold_chunks_are_the_t1_leftovers() {
        let mut pool = ActivePool::new(1024);
        assert!(
            backup(&mut pool, 1, &[0, 1, 2, 3], 1).is_empty(),
            "nothing cold after the first version"
        );
        // Version 2 re-uses chunks 0 and 1 only.
        assert_eq!(backup(&mut pool, 2, &[0, 1], 1), [2, 3]);
        assert_eq!(pool.chunk_count(), 2);
    }

    #[test]
    fn cold_set_is_in_container_then_fingerprint_order_with_sizes() {
        let mut pool = ActivePool::new(250);
        for id in [5u64, 4, 3, 2, 1] {
            pool.add(fp(id), &[0; 100], v(1), 0);
        }
        let cold = pool.cold(v(2), 1);
        let by_place: Vec<(u32, Fingerprint)> = cold
            .iter()
            .map(|&(f, size)| {
                assert_eq!(size, 100);
                (pool.locate(&f).unwrap(), f)
            })
            .collect();
        let mut sorted = by_place.clone();
        sorted.sort_unstable();
        assert_eq!(by_place, sorted);
        assert_eq!(cold.len(), 5);
    }

    #[test]
    fn depth_two_delays_cold_demotion() {
        let mut pool = ActivePool::new(1024);
        assert!(backup(&mut pool, 1, &[1], 2).is_empty());
        // Version 2 without chunk 1: with depth 2 it is *not* yet cold.
        assert!(backup(&mut pool, 2, &[], 2).is_empty());
        // Version 3 without chunk 1: now it falls off the history.
        assert_eq!(backup(&mut pool, 3, &[], 2), [1]);
    }

    #[test]
    fn depth_two_rescues_skipping_chunks() {
        // The macos pattern (Figure 3d): a chunk absent from one version but
        // present in the next must stay deduplicable with depth 2.
        let mut pool = ActivePool::new(1024);
        backup(&mut pool, 1, &[1], 2);
        backup(&mut pool, 2, &[], 2); // version without the chunk
        assert_eq!(
            pool.classify(fp(1), v(3), 0),
            Classification::HotFromPrevious
        );
    }

    #[test]
    fn a_stamp_at_or_before_v_minus_depth_is_cold() {
        // A chunk a failed demotion left behind keeps an older stamp: the
        // next end of version demotes it with the chunks that just went
        // cold, unless that version held it once more.
        let mut pool = ActivePool::new(1024);
        pool.add(fp(1), b"left", v(1), 0);
        pool.add(fp(2), b"last", v(2), 1);
        assert_eq!(pool.cold(v(3), 2), [(fp(1), 4)]);
        assert_eq!(pool.cold(v(3), 1).len(), 2);
        assert_eq!(
            pool.classify(fp(1), v(3), 0),
            Classification::HotFromPrevious
        );
        assert_eq!(pool.cold(v(3), 1), [(fp(2), 4)]);
    }

    #[test]
    fn stamping_recipes_marks_the_newest_holder() {
        let mut pool = ActivePool::new(1024);
        pool.add(fp(1), b"a", v(1), 0);
        pool.add(fp(2), b"b", v(1), 1);
        let mut pool =
            ActivePool::from_containers(1024, pool.containers().map(|(_, c)| c.clone()).collect())
                .unwrap();
        assert_eq!(pool.cold(v(2), 1).len(), 2, "an unstamped chunk is cold");
        let recipe = |version: u32, ids: &[u64]| {
            let mut r = Recipe::new(v(version));
            for &id in ids {
                r.push(hidestore_storage::RecipeEntry::new(
                    fp(id),
                    1,
                    hidestore_storage::Cid::ACTIVE,
                ));
            }
            r
        };
        pool.stamp(&recipe(4, &[1, 2, 9]));
        pool.stamp(&recipe(5, &[2]));
        assert!(pool.seen_in(&fp(1), v(4)) && pool.seen_in(&fp(2), v(5)));
        assert_eq!(pool.cold(v(6), 2), [(fp(1), 1)]);
    }

    #[test]
    fn add_locate_get() {
        let mut pool = ActivePool::new(1024);
        let cid = pool.add(fp(1), b"hello", v(1), 0);
        assert_eq!(pool.locate(&fp(1)), Some(cid));
        assert_eq!(pool.get(&fp(1)), Some(&b"hello"[..]));
        assert_eq!(pool.chunk_count(), 1);
        assert_eq!(pool.hot_chunks().collect::<Vec<_>>(), [(fp(1), cid)]);
    }

    #[test]
    fn duplicate_add_returns_existing_location() {
        let mut pool = ActivePool::new(1024);
        let a = pool.add(fp(1), b"x", v(1), 0);
        let b = pool.add(fp(1), b"x", v(1), 1);
        assert_eq!(a, b);
        assert_eq!(pool.chunk_count(), 1);
    }

    #[test]
    fn full_container_rolls_over() {
        let mut pool = ActivePool::new(64);
        let a = pool.add(fp(1), &[1; 40], v(1), 0);
        let b = pool.add(fp(2), &[2; 40], v(1), 1);
        assert_ne!(a, b);
        assert_eq!(pool.container_count(), 2);
    }

    #[test]
    fn remove_unindexes() {
        let mut pool = ActivePool::new(1024);
        pool.add(fp(1), b"data", v(1), 0);
        pool.remove(&fp(1));
        assert_eq!(pool.locate(&fp(1)), None);
        assert_eq!(pool.get(&fp(1)), None);
        pool.remove(&fp(1));
    }

    #[test]
    fn empty_container_dropped_after_last_removal() {
        let mut pool = ActivePool::new(1024);
        pool.add(fp(1), b"only", v(1), 0);
        pool.remove(&fp(1));
        assert_eq!(pool.container_count(), 0);
    }

    #[test]
    fn compaction_merges_sparse_containers() {
        let mut pool = ActivePool::new(100);
        // Fill three containers, then remove most chunks to make them sparse.
        for i in 0..6u64 {
            pool.add(fp(i), &[i as u8; 45], v(1), i as u32);
        }
        assert_eq!(pool.container_count(), 3);
        for i in [0u64, 2, 4] {
            pool.remove(&fp(i));
        }
        let report = pool.compact_with_order(0.6, v(1));
        assert!(report.containers_merged >= 2, "{report:?}");
        assert_eq!(pool.container_count(), 2); // 3 chunks of 45B -> 2 containers of 100B
                                               // Every surviving chunk remains readable where the index says.
        for i in [1u64, 3, 5] {
            let data = pool.get(&fp(i)).unwrap();
            assert_eq!(data, &[i as u8; 45][..]);
            let cid = pool.locate(&fp(i)).unwrap();
            assert!(pool.snapshot(cid).unwrap().contains(&fp(i)));
        }
    }

    #[test]
    fn compaction_packs_the_current_stream_order_first() {
        // Three chunks of 30 bytes fill a container: [0 1 2] [3 4 5] [6 7].
        let mut pool = ActivePool::new(100);
        for i in 0..8u64 {
            pool.add(fp(i), &[i as u8; 30], v(1), i as u32);
        }
        pool.remove(&fp(2));
        pool.remove(&fp(3));
        // Version 2 holds chunks 6, 1, 5 in that order; 0, 4 and 7 only
        // belong to version 1.
        for (rank, id) in (0u32..).zip([6u64, 1, 5]) {
            pool.classify(fp(id), v(2), rank);
        }
        let report = pool.compact_with_order(0.7, v(2));
        assert_eq!((report.containers_merged, report.chunks_moved), (3, 6));
        let order: Vec<Fingerprint> = pool
            .containers()
            .flat_map(|(_, c)| c.iter().map(|(f, _)| f).collect::<Vec<_>>())
            .collect();
        assert_eq!(order, [6, 1, 5, 0, 4, 7].map(fp));
    }

    #[test]
    fn compaction_noop_when_dense() {
        let mut pool = ActivePool::new(100);
        pool.add(fp(1), &[1; 90], v(1), 0);
        let report = pool.compact_with_order(0.5, v(1));
        assert_eq!(report.containers_merged, 0);
        assert_eq!(report.chunks_moved, 0);
    }

    #[test]
    fn snapshot_exposes_container_with_offset_id() {
        let mut pool = ActivePool::new(1024);
        let cid = pool.add(fp(1), b"snap", v(1), 0);
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
        let a = pool.add(fp(1), &[1; 30], v(1), 0);
        assert_eq!(pool.add(fp(3), &[3; 20], v(1), 1), a);
        let b = pool.add(fp(2), &[2; 40], v(1), 2);
        assert_eq!(changed_ids(&pool), [a, b]);
        pool.mark_saved();
        assert!(changed_ids(&pool).is_empty());

        // A duplicate add changes nothing.
        pool.add(fp(1), &[1; 30], v(1), 3);
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
            pool.add(fp(i), &[i as u8; 45], v(1), i as u32);
        }
        let ids = pool.container_ids();
        for i in [0u64, 2, 4] {
            pool.remove(&fp(i));
        }
        pool.mark_saved();
        let report = pool.compact_with_order(0.6, v(1));
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
        pool.compact_with_order(0.01, v(1));
        assert_eq!(changed_ids(&pool), [1]);
    }

    #[test]
    fn live_bytes_tracks_removals() {
        let mut pool = ActivePool::new(1024);
        pool.add(fp(1), &[0; 100], v(1), 0);
        pool.add(fp(2), &[0; 50], v(1), 1);
        assert_eq!(pool.live_bytes(), 150);
        pool.remove(&fp(1));
        assert_eq!(pool.live_bytes(), 50);
    }
}
