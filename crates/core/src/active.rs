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
/// the containers chunks were placed into, whose files the save writes;
/// the entries removed from every other container, which keeps its file
/// while the meta lists them; and the containers emptied or merged away,
/// whose files the save removes.
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
    /// Pooled containers the next save writes: chunks were placed into
    /// them since their file was written (or they have none yet), the open
    /// found their file under another name, or their file holds more dead
    /// bytes than a kept file may.
    unwritten: BTreeSet<u32>,
    /// What each container's file holds beyond the container, for the
    /// containers whose file holds anything beyond it.
    dead: BTreeMap<u32, DeadEntries>,
    /// IDs removed from the pool since the last save.
    dropped: BTreeSet<u32>,
}

/// The difference between a container's file and the container: the
/// entries the file lists that the pool removed since the file was
/// written, and the file's dead bytes (those entries' bytes, plus any the
/// file was written with).
#[derive(Debug, Clone, Default)]
struct DeadEntries {
    fingerprints: BTreeSet<Fingerprint>,
    bytes: usize,
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
            unwritten: BTreeSet::new(),
            dead: BTreeMap::new(),
            dropped: BTreeSet::new(),
        }
    }

    /// Records that the next save must write container `cid` (present in
    /// the pool). A dropped ID that holds a container again is published,
    /// not removed.
    pub(crate) fn touch(&mut self, cid: u32) {
        self.unwritten.insert(cid);
        self.dropped.remove(&cid);
    }

    /// Takes container `cid` out of the pool and records the drop.
    fn drop_container(&mut self, cid: u32) -> Option<Arc<Container>> {
        let container = self.containers.remove(&cid)?;
        if self.open == Some(cid) {
            self.open = None;
        }
        self.unwritten.remove(&cid);
        self.dead.remove(&cid);
        self.dropped.insert(cid);
        Some(container)
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

    /// Removes a chunk (cold demotion). The container's file keeps the
    /// chunk's entry, which becomes one of its dead entries.
    pub fn remove(&mut self, fp: &Fingerprint) {
        let Some(HotChunk { cid, size, .. }) = self.hot.remove(fp) else {
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
            let dead = self.dead.entry(cid).or_default();
            dead.fingerprints.insert(*fp);
            dead.bytes += size as usize;
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
            let merged: Vec<Arc<Container>> = sparse_ids
                .iter()
                .filter_map(|&cid| self.drop_container(cid))
                .collect();
            for container in &merged {
                report.containers_merged += 1;
                report.bytes_reclaimed += (container.used_bytes() - container.live_bytes()) as u64;
            }
            // The merged containers are out of the pool: their chunks are
            // placed straight from them, not copied aside first.
            let mut migrating: Vec<(Fingerprint, &[u8])> =
                merged.iter().flat_map(|c| c.iter()).collect();
            // Stable: chunks of equal rank keep their physical order.
            migrating.sort_by_cached_key(|(fp, _)| match self.hot.get(fp) {
                Some(chunk) if chunk.seen == version.get() => chunk.rank,
                _ => u32::MAX,
            });
            for (fp, data) in migrating {
                let cid = self.place(fp, data);
                if let Some(chunk) = self.hot.get_mut(&fp) {
                    chunk.cid = cid;
                }
                report.chunks_moved += 1;
            }
        }
        report.bytes_reclaimed += self.compact_in_place(threshold);
        report
    }

    /// Compacts every container holding dead bytes in place (no chunk
    /// changes container) and returns the bytes reclaimed. A container
    /// keeps its file, whose dead entries the meta lists, only while that
    /// file holds at most (1 − `threshold`) × capacity dead bytes. Every
    /// container at or above the threshold meets that by construction; one
    /// left below it is written afresh by the next save.
    pub(crate) fn compact_in_place(&mut self, threshold: f64) -> u64 {
        let mut reclaimed = 0;
        for container in self.containers.values_mut() {
            let dead = container.used_bytes() - container.live_bytes();
            if dead > 0 {
                reclaimed += dead as u64;
                Arc::make_mut(container).compact_in_place();
            }
        }
        let max_dead = (1.0 - threshold) * self.capacity as f64;
        for (&cid, dead) in &self.dead {
            if dead.bytes as f64 > max_dead {
                self.unwritten.insert(cid);
            }
        }
        reclaimed
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

    /// The containers the next save writes, as `(pool-local id,
    /// container)` in ascending ID order: those chunks were placed into
    /// since their file was written (or that have none), those the open
    /// found under another name, and those whose file holds more dead bytes
    /// than a kept file may (see [`ActivePool::compact_in_place`]). Every
    /// other container keeps its file.
    pub(crate) fn unwritten(&self) -> impl Iterator<Item = (u32, &Container)> {
        self.unwritten
            .iter()
            .filter_map(|&cid| Some((cid, &**self.containers.get(&cid)?)))
    }

    /// The dead entries of every kept file, as `(pool-local id,
    /// fingerprints)` in ascending ID and fingerprint order: the entries
    /// the file lists that the pool removed since the file was written.
    pub(crate) fn dead_entries(&self) -> impl Iterator<Item = (u32, Vec<Fingerprint>)> + '_ {
        self.dead
            .iter()
            .filter(|(cid, dead)| !dead.fingerprints.is_empty() && !self.unwritten.contains(cid))
            .map(|(&cid, dead)| (cid, dead.fingerprints.iter().copied().collect()))
    }

    /// Pool-local IDs of the containers emptied or merged away since the
    /// last [`ActivePool::mark_saved`], ascending. None is in the pool.
    pub(crate) fn dropped(&self) -> impl Iterator<Item = u32> + '_ {
        self.dropped.iter().copied()
    }

    /// Forgets the tracked changes: the caller has written every
    /// [`ActivePool::unwritten`] container and recorded the
    /// [`ActivePool::dead_entries`] of the others.
    pub(crate) fn mark_saved(&mut self) {
        for cid in std::mem::take(&mut self.unwritten) {
            self.dead.remove(&cid);
        }
        self.dropped.clear();
    }

    /// Rebuilds a pool from persisted containers (repository reopen) and
    /// the dead entries the meta lists for them by pool-local ID. Each
    /// container loses its dead entries and is compacted, so the pool
    /// equals the one that saved the files; the files keep those entries
    /// until a save writes them afresh. The containers must carry the
    /// [`ACTIVE_ID_BASE`]-offset IDs they were snapshotted with; a
    /// container outside the active ID space is reported as an error naming
    /// the offending ID. No chunk is stamped with a version yet.
    pub fn from_containers(
        capacity: usize,
        containers: Vec<Container>,
        mut dead: BTreeMap<u32, Vec<Fingerprint>>,
    ) -> Result<Self, String> {
        let mut pool = ActivePool::new(capacity);
        for mut container in containers {
            let Some(cid) = container.id().get().checked_sub(ACTIVE_ID_BASE) else {
                return Err(format!(
                    "container {} is not an active-pool snapshot",
                    container.id()
                ));
            };
            pool.next_cid = pool.next_cid.max(cid + 1);
            let fingerprints: BTreeSet<Fingerprint> = dead
                .remove(&cid)
                .unwrap_or_default()
                .into_iter()
                .filter(|fp| container.remove(fp))
                .collect();
            let bytes = container.used_bytes() - container.live_bytes();
            if bytes > 0 {
                container.compact_in_place();
                pool.dead.insert(
                    cid,
                    DeadEntries {
                        fingerprints,
                        bytes,
                    },
                );
            }
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
        let mut pool = ActivePool::from_containers(
            1024,
            pool.containers().map(|(_, c)| c.clone()).collect(),
            BTreeMap::new(),
        )
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

    fn unwritten_ids(pool: &ActivePool) -> Vec<u32> {
        pool.unwritten().map(|(cid, _)| cid).collect()
    }

    fn dead_entries(pool: &ActivePool) -> Vec<(u32, Vec<Fingerprint>)> {
        pool.dead_entries().collect()
    }

    #[test]
    fn placement_marks_a_container_and_removal_lists_a_dead_entry() {
        let mut pool = ActivePool::new(64);
        let a = pool.add(fp(1), &[1; 30], v(1), 0);
        assert_eq!(pool.add(fp(3), &[3; 20], v(1), 1), a);
        let b = pool.add(fp(2), &[2; 40], v(1), 2);
        assert_eq!(unwritten_ids(&pool), [a, b]);
        pool.mark_saved();
        assert!(unwritten_ids(&pool).is_empty());

        // A duplicate add changes nothing.
        pool.add(fp(1), &[1; 30], v(1), 3);
        assert!(unwritten_ids(&pool).is_empty());
        // A removal that leaves chunks behind keeps the file and lists the
        // removed entry.
        pool.remove(&fp(3));
        assert!(unwritten_ids(&pool).is_empty());
        assert_eq!(dead_entries(&pool), [(a, vec![fp(3)])]);
        // Emptying a container drops it instead.
        pool.remove(&fp(2));
        assert_eq!(pool.dropped().collect::<Vec<_>>(), [b]);
        pool.mark_saved();
        assert_eq!(pool.dropped().count(), 0);
        // The kept file still lists the entry after the save.
        assert_eq!(dead_entries(&pool), [(a, vec![fp(3)])]);
    }

    #[test]
    fn placing_into_a_kept_container_writes_it_afresh() {
        let mut pool = ActivePool::new(100);
        let a = pool.add(fp(1), &[1; 30], v(1), 0);
        pool.add(fp(2), &[2; 20], v(1), 1);
        pool.mark_saved();
        pool.remove(&fp(2));
        assert_eq!(pool.add(fp(3), &[3; 10], v(1), 2), a, "a is still open");
        assert_eq!(unwritten_ids(&pool), [a]);
        assert!(dead_entries(&pool).is_empty(), "a is written afresh");
        pool.mark_saved();
        pool.remove(&fp(3));
        assert_eq!(
            dead_entries(&pool),
            [(a, vec![fp(3)])],
            "the old file's dead entry went with it"
        );
    }

    #[test]
    fn compaction_writes_merge_targets_and_keeps_files_compacted_in_place() {
        let mut pool = ActivePool::new(100);
        let sizes = [45, 45, 45, 45, 80, 10];
        for (i, &size) in (0u64..).zip(&sizes) {
            pool.add(fp(i), &vec![i as u8; size], v(1), i as u32);
        }
        let [a, b, c]: [u32; 3] = pool.container_ids().try_into().unwrap();
        pool.mark_saved();
        // a and b go sparse; c loses 10 of 90 bytes and stays dense.
        for i in [0u64, 2, 5] {
            pool.remove(&fp(i));
        }
        let report = pool.compact_with_order(0.6, v(1));
        assert_eq!((report.containers_merged, report.chunks_moved), (2, 2));
        assert_eq!(pool.dropped().collect::<Vec<_>>(), [a, b]);
        // The merged chunks overflow c into a new container, the only one
        // written; c is compacted in memory and keeps its file.
        let d = pool.locate(&fp(1)).unwrap();
        assert!(d > c && pool.locate(&fp(3)) == Some(d));
        assert_eq!(unwritten_ids(&pool), [d]);
        assert_eq!(dead_entries(&pool), [(c, vec![fp(5)])]);
        let kept = pool.snapshot(c).unwrap();
        assert_eq!((kept.used_bytes(), kept.live_bytes()), (80, 80));
    }

    #[test]
    fn a_kept_file_past_the_dead_byte_bound_is_written_afresh() {
        let mut pool = ActivePool::new(100);
        let a = pool.add(fp(1), &[1; 50], v(1), 0);
        pool.add(fp(2), &[2; 40], v(1), 1);
        pool.mark_saved();
        pool.remove(&fp(2));
        // 40 dead bytes: kept at threshold 0.5, written afresh at 0.7.
        pool.compact_in_place(0.5);
        assert!(unwritten_ids(&pool).is_empty());
        pool.compact_in_place(0.7);
        assert_eq!(unwritten_ids(&pool), [a]);
        assert!(dead_entries(&pool).is_empty());
    }

    #[test]
    fn a_loaded_container_drops_its_dead_entries_and_compacts() {
        // A file written with dead bytes, whose meta lists one more dead
        // entry: the pool holds only the live chunk, compacted.
        let mut container = Container::new(ContainerId::new(ACTIVE_ID_BASE + 1), 1024);
        for i in 1..=3u64 {
            container.try_add(fp(i), &[i as u8; 100]);
        }
        container.remove(&fp(2));
        let dead = BTreeMap::from([(1, vec![fp(3), fp(9)])]);
        let mut pool = ActivePool::from_containers(1024, vec![container], dead).unwrap();
        assert_eq!(pool.get(&fp(1)), Some(&[1; 100][..]));
        assert_eq!(pool.chunk_count(), 1);
        let loaded = pool.snapshot(1).unwrap();
        assert_eq!((loaded.used_bytes(), loaded.live_bytes()), (100, 100));
        assert!(
            unwritten_ids(&pool).is_empty(),
            "a rebuilt pool keeps its files"
        );
        assert_eq!(dead_entries(&pool), [(1, vec![fp(3)])]);
        // The file holds 200 dead bytes.
        pool.compact_in_place(0.5);
        assert!(unwritten_ids(&pool).is_empty());
        pool.compact_in_place(0.95);
        assert_eq!(unwritten_ids(&pool), [1]);
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
