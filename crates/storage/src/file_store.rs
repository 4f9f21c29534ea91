//! File-backed container store: one file per container under a directory.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use hidestore_failpoint::{RealVfs, Vfs};

use crate::container::{Container, ContainerId};
use crate::error::StorageError;
use crate::names::RepoFile;
use crate::store::{ContainerStore, IoCounters, IoStats};

/// On-disk container store.
///
/// Each container is written as `c<id>.ctr` in the store directory using the
/// [`Container::encode`] format. Reopening the directory recovers the set of
/// stored containers, so a backup repository survives process restarts — this
/// is what makes the reproduction a real backup system rather than only a
/// simulator.
///
/// Writes are crash-safe: the container is staged as a hidden `.c<id>.tmp`
/// file, fsynced, renamed into place, and the directory entry is fsynced, so
/// a crash can never leave a half-written `c<id>.ctr` visible. Stale tmp
/// files from an interrupted write are swept on open.
///
/// The store is generic over the [`Vfs`] io-shim so crash-consistency tests
/// can inject faults into *the same code path* production uses; the default
/// [`RealVfs`] monomorphizes every operation to a direct `std::fs` call.
///
/// # Examples
///
/// ```no_run
/// use hidestore_storage::{Container, ContainerId, ContainerStore, FileContainerStore, CONTAINER_CAPACITY};
///
/// let mut store = FileContainerStore::open("/tmp/backup-repo")?;
/// store.write(Container::new(ContainerId::new(1), CONTAINER_CAPACITY))?;
/// # Ok::<(), hidestore_storage::StorageError>(())
/// ```
#[derive(Debug)]
pub struct FileContainerStore<V: Vfs = RealVfs> {
    dir: PathBuf,
    ids: BTreeSet<ContainerId>,
    counters: IoCounters,
    vfs: V,
    defer_removals: bool,
    deferred: Vec<ContainerId>,
}

impl FileContainerStore {
    /// Opens (creating if necessary) a container store directory and indexes
    /// the containers already present.
    ///
    /// # Errors
    ///
    /// Fails if the directory cannot be created or listed, or if a container
    /// file has an unparsable name.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self, StorageError> {
        Self::open_with(dir, RealVfs)
    }
}

impl<V: Vfs> FileContainerStore<V> {
    /// Opens the store through an explicit [`Vfs`] — the fault-injection
    /// entry point. Production code uses [`FileContainerStore::open`].
    ///
    /// Stale `.c<id>.tmp` files left behind by an interrupted
    /// [`ContainerStore::write`] are removed here: they were never renamed
    /// into place, so they are invisible to the index and must not
    /// accumulate on disk.
    ///
    /// # Errors
    ///
    /// Fails if the directory cannot be created or listed, or if a container
    /// file has an unparsable name.
    pub fn open_with(dir: impl AsRef<Path>, vfs: V) -> Result<Self, StorageError> {
        let dir = dir.as_ref().to_path_buf();
        vfs.create_dir_all(&dir)?;
        let mut ids = BTreeSet::new();
        let mut stale_tmp: Vec<PathBuf> = Vec::new();
        for path in vfs.read_dir(&dir)? {
            let Some(name) = path.file_name().map(|n| n.to_string_lossy().into_owned()) else {
                continue;
            };
            if RepoFile::Archival.matches(&name) {
                let id = RepoFile::Archival.parse(&name).ok_or_else(|| {
                    StorageError::Corrupt(format!("bad container file name: {name}"))
                })?;
                ids.insert(ContainerId::new(id));
            } else if name.starts_with(".c") && name.ends_with(".tmp") {
                stale_tmp.push(path);
            }
        }
        for tmp in stale_tmp {
            vfs.remove_file(&tmp)?;
        }
        Ok(FileContainerStore {
            dir,
            ids,
            counters: IoCounters::default(),
            vfs,
            defer_removals: false,
            deferred: Vec::new(),
        })
    }

    /// The directory backing this store.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The [`Vfs`] this store performs its I/O through.
    pub fn vfs(&self) -> &V {
        &self.vfs
    }

    /// The on-disk path of container `id` (whether or not it exists).
    pub fn path_of(&self, id: ContainerId) -> PathBuf {
        self.dir.join(RepoFile::Archival.name(id.get()))
    }

    /// Switches removal handling. With deferral on, [`ContainerStore::remove`]
    /// drops the container from the index but leaves its file on disk,
    /// queueing the ID for [`FileContainerStore::take_deferred`] — the
    /// transactional save turns the queue into journaled removals so a crash
    /// between a delete and the next save never leaves committed recipes
    /// pointing at vanished containers.
    pub fn set_deferred_removals(&mut self, defer: bool) {
        self.defer_removals = defer;
    }

    /// Container IDs removed since the last call, in removal order. The
    /// files are still on disk; the caller owns unlinking them now.
    pub fn take_deferred(&mut self) -> Vec<ContainerId> {
        std::mem::take(&mut self.deferred)
    }

    /// IDs currently queued for deferred removal.
    pub fn deferred_removals(&self) -> &[ContainerId] {
        &self.deferred
    }

    /// Drops `id` from the index without touching its file — used when the
    /// caller has moved the file elsewhere (e.g. into quarantine).
    ///
    /// Returns whether the ID was present.
    pub fn forget(&mut self, id: ContainerId) -> bool {
        self.ids.remove(&id)
    }

    /// Decode-verifies every indexed container file, returning the IDs that
    /// are unreadable or structurally corrupt along with the reason.
    ///
    /// Does not count toward [`IoStats`]: this is an integrity scan, not
    /// restore traffic.
    pub fn verify_containers(&self) -> Vec<(ContainerId, String)> {
        let mut bad = Vec::new();
        for &id in &self.ids {
            match self.vfs.read(&self.path_of(id)) {
                Ok(bytes) => {
                    if let Err(reason) = Container::decode(bytes) {
                        bad.push((id, reason));
                    }
                }
                Err(err) => bad.push((id, format!("unreadable: {err}"))),
            }
        }
        bad
    }
}

impl<V: Vfs> ContainerStore for FileContainerStore<V> {
    fn write(&mut self, container: Container) -> Result<(), StorageError> {
        let id = container.id();
        if self.ids.contains(&id) {
            return Err(StorageError::DuplicateContainer(id));
        }
        let encoded = container.encode();
        let tmp = self.dir.join(format!(".c{}.tmp", id.get()));
        self.vfs.write(&tmp, &encoded)?;
        self.vfs.sync_file(&tmp)?;
        self.vfs.rename(&tmp, &self.path_of(id))?;
        // Make the rename durable: without syncing the directory entry a
        // crash can forget a container the caller believes is sealed.
        self.vfs.sync_dir(&self.dir)?;
        self.ids.insert(id);
        self.counters.count_write(encoded.len() as u64);
        Ok(())
    }

    fn read(&self, id: ContainerId) -> Result<Arc<Container>, StorageError> {
        if !self.ids.contains(&id) {
            return Err(StorageError::ContainerNotFound(id));
        }
        let bytes = self.vfs.read(&self.path_of(id))?;
        let len = bytes.len() as u64;
        let container = Container::decode(bytes).map_err(StorageError::Corrupt)?;
        self.counters.count_read(len);
        Ok(Arc::new(container))
    }

    fn remove(&mut self, id: ContainerId) -> Result<(), StorageError> {
        if !self.ids.remove(&id) {
            return Err(StorageError::ContainerNotFound(id));
        }
        if self.defer_removals {
            self.deferred.push(id);
        } else {
            self.vfs.remove_file(&self.path_of(id))?;
            self.vfs.sync_dir(&self.dir)?;
        }
        self.counters.count_delete();
        Ok(())
    }

    fn ids(&self) -> Vec<ContainerId> {
        self.ids.iter().copied().collect()
    }

    fn stats(&self) -> IoStats {
        self.counters.snapshot()
    }

    fn len(&self) -> usize {
        self.ids.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hidestore_hash::Fingerprint;
    use std::fs;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("hidestore-filestore-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sample_container(id: u32) -> Container {
        let mut c = Container::new(ContainerId::new(id), 4096);
        for i in 0..10u64 {
            c.try_add(Fingerprint::synthetic(id as u64 * 100 + i), &[i as u8; 64]);
        }
        c
    }

    #[test]
    fn write_read_round_trip() {
        let dir = temp_dir("roundtrip");
        let mut s = FileContainerStore::open(&dir).unwrap();
        s.write(sample_container(1)).unwrap();
        let c = s.read(ContainerId::new(1)).unwrap();
        assert_eq!(c.chunk_count(), 10);
        assert_eq!(c.get(&Fingerprint::synthetic(103)), Some(&[3u8; 64][..]));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reopen_recovers_index() {
        let dir = temp_dir("reopen");
        {
            let mut s = FileContainerStore::open(&dir).unwrap();
            s.write(sample_container(1)).unwrap();
            s.write(sample_container(2)).unwrap();
        }
        let s = FileContainerStore::open(&dir).unwrap();
        assert_eq!(s.len(), 2);
        assert!(s.ids().contains(&ContainerId::new(2)));
        assert_eq!(s.read(ContainerId::new(2)).unwrap().chunk_count(), 10);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn remove_deletes_file() {
        let dir = temp_dir("remove");
        let mut s = FileContainerStore::open(&dir).unwrap();
        s.write(sample_container(1)).unwrap();
        s.remove(ContainerId::new(1)).unwrap();
        assert!(!dir.join("c1.ctr").exists());
        assert!(s.read(ContainerId::new(1)).is_err());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn deferred_remove_keeps_file_until_taken() {
        let dir = temp_dir("deferred");
        let mut s = FileContainerStore::open(&dir).unwrap();
        s.write(sample_container(1)).unwrap();
        s.set_deferred_removals(true);
        s.remove(ContainerId::new(1)).unwrap();
        // Logically gone, physically still on disk.
        assert!(!s.ids().contains(&ContainerId::new(1)));
        assert!(s.read(ContainerId::new(1)).is_err());
        assert!(dir.join("c1.ctr").exists());
        assert_eq!(s.deferred_removals(), &[ContainerId::new(1)]);
        assert_eq!(s.take_deferred(), vec![ContainerId::new(1)]);
        assert!(s.take_deferred().is_empty());
        assert_eq!(s.stats().container_deletes, 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn open_sweeps_stale_tmp_files() {
        let dir = temp_dir("sweep");
        {
            let mut s = FileContainerStore::open(&dir).unwrap();
            s.write(sample_container(1)).unwrap();
        }
        // Simulate a crash mid-write: a torn tmp file next to a good one.
        fs::write(dir.join(".c7.tmp"), b"half a contai").unwrap();
        let s = FileContainerStore::open(&dir).unwrap();
        assert!(!dir.join(".c7.tmp").exists(), "stale tmp not swept");
        assert_eq!(s.len(), 1);
        assert!(s.ids().contains(&ContainerId::new(1)));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn forget_drops_index_entry_only() {
        let dir = temp_dir("forget");
        let mut s = FileContainerStore::open(&dir).unwrap();
        s.write(sample_container(1)).unwrap();
        assert!(s.forget(ContainerId::new(1)));
        assert!(!s.forget(ContainerId::new(1)));
        assert!(!s.ids().contains(&ContainerId::new(1)));
        assert!(dir.join("c1.ctr").exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn verify_containers_flags_corruption() {
        let dir = temp_dir("verify");
        let mut s = FileContainerStore::open(&dir).unwrap();
        s.write(sample_container(1)).unwrap();
        s.write(sample_container(2)).unwrap();
        assert!(s.verify_containers().is_empty());
        // Truncate one container behind the store's back.
        let bytes = fs::read(dir.join("c2.ctr")).unwrap();
        fs::write(dir.join("c2.ctr"), &bytes[..bytes.len() / 2]).unwrap();
        let bad = s.verify_containers();
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].0, ContainerId::new(2));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn duplicate_write_rejected() {
        let dir = temp_dir("dup");
        let mut s = FileContainerStore::open(&dir).unwrap();
        s.write(sample_container(1)).unwrap();
        assert!(matches!(
            s.write(sample_container(1)),
            Err(StorageError::DuplicateContainer(_))
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stats_counted() {
        let dir = temp_dir("stats");
        let mut s = FileContainerStore::open(&dir).unwrap();
        s.write(sample_container(1)).unwrap();
        s.read(ContainerId::new(1)).unwrap();
        let st = s.stats();
        assert_eq!((st.container_writes, st.container_reads), (1, 1));
        assert!(st.bytes_written > 640);
        fs::remove_dir_all(&dir).unwrap();
    }
}
