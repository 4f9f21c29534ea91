//! A read-only view unifying archival and active containers for restore.

use std::cell::Cell;
use std::sync::Arc;

use hidestore_storage::{Container, ContainerId, ContainerStore, IoStats, StorageError};

use crate::active::ActivePool;

/// Container IDs at or above this value denote *active* containers served
/// from the [`ActivePool`]; lower IDs are archival containers in the backing
/// store. `2^30` leaves both spaces ample room.
pub const ACTIVE_ID_BASE: u32 = 1 << 30;

/// A [`ContainerStore`] view over an archival store plus the active pool,
/// so the standard restore caches (FAA, ALACC, …) work unmodified on
/// HiDeStore's two-tier layout. Reads of active containers are counted like
/// any other container read — the paper's speed factor charges them equally.
///
/// The view borrows both tiers shared, so any number of views — one per
/// concurrent restore — read one repository at once; its
/// [`ContainerStore::stats`] are the reads made through this view alone.
/// Writes and removals are rejected: restore is read-only.
#[derive(Debug)]
pub struct CompositeStore<'a, S> {
    archival: &'a S,
    active: &'a ActivePool,
    reads: Cell<IoStats>,
}

impl<'a, S: ContainerStore> CompositeStore<'a, S> {
    /// Builds the view.
    pub fn new(archival: &'a S, active: &'a ActivePool) -> Self {
        CompositeStore {
            archival,
            active,
            reads: Cell::default(),
        }
    }
}

impl<S: ContainerStore> ContainerStore for CompositeStore<'_, S> {
    fn write(&mut self, container: Container) -> Result<(), StorageError> {
        Err(StorageError::Corrupt(format!(
            "restore view is read-only; attempted write of container {}",
            container.id()
        )))
    }

    fn read(&self, id: ContainerId) -> Result<Arc<Container>, StorageError> {
        let container = if id.get() >= ACTIVE_ID_BASE {
            self.active
                .snapshot(id.get() - ACTIVE_ID_BASE)
                .ok_or(StorageError::ContainerNotFound(id))?
        } else {
            self.archival.read(id)?
        };
        let mut reads = self.reads.get();
        reads.container_reads += 1;
        reads.bytes_read += container.used_bytes() as u64;
        self.reads.set(reads);
        Ok(container)
    }

    fn remove(&mut self, id: ContainerId) -> Result<(), StorageError> {
        Err(StorageError::Corrupt(format!(
            "restore view is read-only; attempted removal of container {id}"
        )))
    }

    fn ids(&self) -> Vec<ContainerId> {
        let mut ids = self.archival.ids();
        ids.extend(
            self.active
                .container_ids()
                .into_iter()
                .map(|cid| ContainerId::new(ACTIVE_ID_BASE + cid)),
        );
        ids
    }

    fn stats(&self) -> IoStats {
        self.reads.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hidestore_hash::Fingerprint;
    use hidestore_storage::{MemoryContainerStore, VersionId};

    fn fixture() -> (MemoryContainerStore, ActivePool) {
        let mut archival = MemoryContainerStore::new();
        let mut c = Container::new(ContainerId::new(1), 1024);
        c.try_add(Fingerprint::synthetic(1), b"archival chunk");
        archival.write(c).unwrap();
        let mut pool = ActivePool::new(1024);
        pool.add(
            Fingerprint::synthetic(2),
            b"active chunk",
            VersionId::new(1),
            0,
        );
        (archival, pool)
    }

    #[test]
    fn reads_route_by_id_space() {
        let (archival, pool) = fixture();
        let view = CompositeStore::new(&archival, &pool);
        let a = view.read(ContainerId::new(1)).unwrap();
        assert!(a.contains(&Fingerprint::synthetic(1)));
        let b = view.read(ContainerId::new(ACTIVE_ID_BASE + 1)).unwrap();
        assert!(b.contains(&Fingerprint::synthetic(2)));
        assert_eq!(view.stats().container_reads, 2);
    }

    #[test]
    fn missing_active_container_errors() {
        let (archival, pool) = fixture();
        let view = CompositeStore::new(&archival, &pool);
        assert!(view.read(ContainerId::new(ACTIVE_ID_BASE + 99)).is_err());
    }

    #[test]
    fn writes_rejected() {
        let (archival, pool) = fixture();
        let mut view = CompositeStore::new(&archival, &pool);
        let c = Container::new(ContainerId::new(7), 64);
        assert!(view.write(c).is_err());
        assert!(view.remove(ContainerId::new(1)).is_err());
    }

    #[test]
    fn ids_cover_both_spaces() {
        let (archival, pool) = fixture();
        let view = CompositeStore::new(&archival, &pool);
        let ids = view.ids();
        assert!(ids.contains(&ContainerId::new(1)));
        assert!(ids.contains(&ContainerId::new(ACTIVE_ID_BASE + 1)));
        assert!(!ids.contains(&ContainerId::new(55)));
    }
}
