//! Container stores with I/O accounting.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::container::{Container, ContainerId};
use crate::error::StorageError;

/// Counted I/O statistics.
///
/// The paper's restore metric (*speed factor*, §5.3) and its throughput
/// metric (*lookup requests per GB*, §5.2.2) are both counts, chosen
/// precisely so results don't depend on device speed. Every store tallies
/// these.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoStats {
    /// Number of whole-container reads served.
    pub container_reads: u64,
    /// Number of containers written (sealed) to the store.
    pub container_writes: u64,
    /// Number of containers deleted.
    pub container_deletes: u64,
    /// Bytes of container data read.
    pub bytes_read: u64,
    /// Bytes of container data written.
    pub bytes_written: u64,
}

impl IoStats {
    /// Component-wise difference, for measuring a phase:
    /// `after.since(&before)`.
    pub fn since(&self, earlier: &IoStats) -> IoStats {
        IoStats {
            container_reads: self.container_reads - earlier.container_reads,
            container_writes: self.container_writes - earlier.container_writes,
            container_deletes: self.container_deletes - earlier.container_deletes,
            bytes_read: self.bytes_read - earlier.bytes_read,
            bytes_written: self.bytes_written - earlier.bytes_written,
        }
    }
}

/// The live counters behind [`ContainerStore::stats`]. Atomic, so a read
/// through `&self` counts itself and any number of readers can share a
/// store; [`IoCounters::snapshot`] is what `stats()` returns.
#[derive(Debug, Default)]
pub(crate) struct IoCounters {
    container_reads: AtomicU64,
    container_writes: AtomicU64,
    container_deletes: AtomicU64,
    bytes_read: AtomicU64,
    bytes_written: AtomicU64,
}

impl IoCounters {
    pub(crate) fn count_read(&self, bytes: u64) {
        self.container_reads.fetch_add(1, Ordering::Relaxed);
        self.bytes_read.fetch_add(bytes, Ordering::Relaxed);
    }

    pub(crate) fn count_write(&self, bytes: u64) {
        self.container_writes.fetch_add(1, Ordering::Relaxed);
        self.bytes_written.fetch_add(bytes, Ordering::Relaxed);
    }

    pub(crate) fn count_delete(&self) {
        self.container_deletes.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn snapshot(&self) -> IoStats {
        IoStats {
            container_reads: self.container_reads.load(Ordering::Relaxed),
            container_writes: self.container_writes.load(Ordering::Relaxed),
            container_deletes: self.container_deletes.load(Ordering::Relaxed),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
        }
    }
}

/// A store of sealed containers, the persistent layer of the backup system.
///
/// `read` returns an `Arc<Container>` so restore caches can retain containers
/// without copying 4 MiB buffers. Every `read` call counts as one container
/// I/O even if the implementation has the container in memory: the counted
/// cost model is the experiment's ground truth (see crate docs).
///
/// Reads take `&self` and are still counted: a store keeps its counters in
/// atomics, so restores, scrubs and audits share one store instance — and
/// may run concurrently — while only writes, removals and
/// [`ContainerStore::reset_stats`] need `&mut`.
///
/// Containers are **written once**: a store adds a container under a fresh
/// ID and later removes it, never overwrites it, so a committed recipe
/// keeps finding the chunks its containers were written with. Maintenance
/// that repacks chunks writes fresh containers and removes the old ones.
pub trait ContainerStore {
    /// Seals `container` into the store.
    ///
    /// # Errors
    ///
    /// Returns [`StorageError::DuplicateContainer`] if the ID already exists.
    fn write(&mut self, container: Container) -> Result<(), StorageError>;

    /// Reads a container, counting one container read.
    ///
    /// # Errors
    ///
    /// Returns [`StorageError::ContainerNotFound`] for unknown IDs.
    fn read(&self, id: ContainerId) -> Result<Arc<Container>, StorageError>;

    /// Whether the store holds `id`.
    fn contains(&self, id: ContainerId) -> bool;

    /// Deletes a container (used when expiring backup versions).
    ///
    /// # Errors
    ///
    /// Returns [`StorageError::ContainerNotFound`] for unknown IDs.
    fn remove(&mut self, id: ContainerId) -> Result<(), StorageError>;

    /// All container IDs, ascending.
    fn ids(&self) -> Vec<ContainerId>;

    /// Counted I/O so far.
    fn stats(&self) -> IoStats;

    /// Zeroes the counters (e.g. between backup and restore phases).
    fn reset_stats(&mut self);

    /// Number of containers held.
    fn len(&self) -> usize {
        self.ids().len()
    }

    /// Whether the store is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// In-memory container store for deterministic experiments.
///
/// # Examples
///
/// ```
/// use hidestore_storage::{Container, ContainerId, ContainerStore, MemoryContainerStore};
///
/// let mut store = MemoryContainerStore::new();
/// store.write(Container::new(ContainerId::new(1), 1024))?;
/// assert_eq!(store.len(), 1);
/// assert_eq!(store.stats().container_writes, 1);
/// # Ok::<(), hidestore_storage::StorageError>(())
/// ```
#[derive(Debug, Default)]
pub struct MemoryContainerStore {
    containers: BTreeMap<ContainerId, Arc<Container>>,
    counters: IoCounters,
}

impl MemoryContainerStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total live bytes across all containers (for dedup-ratio accounting).
    pub fn total_live_bytes(&self) -> u64 {
        self.containers
            .values()
            .map(|c| c.live_bytes() as u64)
            .sum()
    }

    /// Total capacity-consuming bytes (live + dead) across containers.
    pub fn total_used_bytes(&self) -> u64 {
        self.containers
            .values()
            .map(|c| c.used_bytes() as u64)
            .sum()
    }

    /// Replaces an existing container in place, not counted as a write.
    /// Only the in-memory Destor baseline's mark-sweep GC uses it; it is
    /// not a [`ContainerStore`] method, so no durable store can overwrite
    /// a container.
    ///
    /// # Errors
    ///
    /// Returns [`StorageError::ContainerNotFound`] if the ID is absent.
    pub fn replace(&mut self, container: Container) -> Result<(), StorageError> {
        let id = container.id();
        if !self.containers.contains_key(&id) {
            return Err(StorageError::ContainerNotFound(id));
        }
        self.containers.insert(id, Arc::new(container));
        Ok(())
    }
}

impl ContainerStore for MemoryContainerStore {
    fn write(&mut self, container: Container) -> Result<(), StorageError> {
        if self.containers.contains_key(&container.id()) {
            return Err(StorageError::DuplicateContainer(container.id()));
        }
        self.counters.count_write(container.used_bytes() as u64);
        self.containers.insert(container.id(), Arc::new(container));
        Ok(())
    }

    fn read(&self, id: ContainerId) -> Result<Arc<Container>, StorageError> {
        let container = self
            .containers
            .get(&id)
            .cloned()
            .ok_or(StorageError::ContainerNotFound(id))?;
        self.counters.count_read(container.used_bytes() as u64);
        Ok(container)
    }

    fn contains(&self, id: ContainerId) -> bool {
        self.containers.contains_key(&id)
    }

    fn remove(&mut self, id: ContainerId) -> Result<(), StorageError> {
        self.containers
            .remove(&id)
            .ok_or(StorageError::ContainerNotFound(id))?;
        self.counters.count_delete();
        Ok(())
    }

    fn ids(&self) -> Vec<ContainerId> {
        self.containers.keys().copied().collect()
    }

    fn stats(&self) -> IoStats {
        self.counters.snapshot()
    }

    fn reset_stats(&mut self) {
        self.counters = IoCounters::default();
    }

    fn len(&self) -> usize {
        self.containers.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hidestore_hash::Fingerprint;

    fn container_with(id: u32, n_chunks: u64) -> Container {
        let mut c = Container::new(ContainerId::new(id), 4096);
        for i in 0..n_chunks {
            c.try_add(
                Fingerprint::synthetic(id as u64 * 1000 + i),
                &[id as u8; 16],
            );
        }
        c
    }

    #[test]
    fn write_read_counts() {
        let mut s = MemoryContainerStore::new();
        s.write(container_with(1, 4)).unwrap();
        s.write(container_with(2, 4)).unwrap();
        let c = s.read(ContainerId::new(1)).unwrap();
        assert_eq!(c.chunk_count(), 4);
        s.read(ContainerId::new(1)).unwrap();
        let stats = s.stats();
        assert_eq!(stats.container_writes, 2);
        assert_eq!(stats.container_reads, 2);
        assert_eq!(stats.bytes_written, 128);
        assert_eq!(stats.bytes_read, 128);
    }

    #[test]
    fn duplicate_write_rejected() {
        let mut s = MemoryContainerStore::new();
        s.write(container_with(1, 1)).unwrap();
        assert!(matches!(
            s.write(container_with(1, 1)),
            Err(StorageError::DuplicateContainer(_))
        ));
    }

    #[test]
    fn missing_read_and_remove_error() {
        let mut s = MemoryContainerStore::new();
        assert!(matches!(
            s.read(ContainerId::new(9)),
            Err(StorageError::ContainerNotFound(_))
        ));
        assert!(s.remove(ContainerId::new(9)).is_err());
    }

    #[test]
    fn remove_deletes_and_counts() {
        let mut s = MemoryContainerStore::new();
        s.write(container_with(1, 1)).unwrap();
        s.remove(ContainerId::new(1)).unwrap();
        assert!(!s.contains(ContainerId::new(1)));
        assert_eq!(s.stats().container_deletes, 1);
        assert!(s.is_empty());
    }

    #[test]
    fn replace_swaps_without_write_count() {
        let mut s = MemoryContainerStore::new();
        s.write(container_with(1, 1)).unwrap();
        let writes_before = s.stats().container_writes;
        s.replace(container_with(1, 3)).unwrap();
        assert_eq!(s.stats().container_writes, writes_before);
        assert_eq!(s.read(ContainerId::new(1)).unwrap().chunk_count(), 3);
        assert!(s.replace(container_with(5, 1)).is_err());
    }

    #[test]
    fn ids_sorted() {
        let mut s = MemoryContainerStore::new();
        for id in [3u32, 1, 2] {
            s.write(container_with(id, 1)).unwrap();
        }
        let ids: Vec<u32> = s.ids().iter().map(|i| i.get()).collect();
        assert_eq!(ids, vec![1, 2, 3]);
    }

    #[test]
    fn stats_since() {
        let mut s = MemoryContainerStore::new();
        s.write(container_with(1, 1)).unwrap();
        let before = s.stats();
        s.read(ContainerId::new(1)).unwrap();
        let delta = s.stats().since(&before);
        assert_eq!(delta.container_reads, 1);
        assert_eq!(delta.container_writes, 0);
    }

    #[test]
    fn reset_stats_zeroes() {
        let mut s = MemoryContainerStore::new();
        s.write(container_with(1, 1)).unwrap();
        s.reset_stats();
        assert_eq!(s.stats(), IoStats::default());
    }

    #[test]
    fn total_live_bytes_tracks_removals() {
        let mut s = MemoryContainerStore::new();
        s.write(container_with(1, 4)).unwrap();
        assert_eq!(s.total_live_bytes(), 64);
        assert_eq!(s.total_used_bytes(), 64);
    }
}
