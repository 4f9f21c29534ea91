//! [`RepositoryHandle`] — the open/save lifecycle owner for long-lived
//! processes.
//!
//! The CLI opens a repository, runs one operation, saves, and exits; the
//! `hds-served` daemon instead keeps a repository open for hours while many
//! connections operate on it concurrently. The handle centralizes the rules
//! that make that safe:
//!
//! * **One writer, many readers.** Mutations (`backup`, `prune`, `flatten`,
//!   …) run under an exclusive lock and are immediately persisted with the
//!   atomic commit journal from [`crate::HiDeStore::save_repository`].
//!   Every read — listings, restores, scrubs — runs against the one
//!   in-memory instance under a shared lock, so reads proceed concurrently
//!   with each other and never observe a half-applied mutation. Container
//!   reads take `&self` (the stores count them in atomics), so a read never
//!   reopens the repository and never moves or renames a file.
//! * **Rollback on failure.** If a mutation — or its save — fails, the
//!   on-disk repository is untouched (the journal guarantees the save is
//!   all-or-nothing), but the in-memory instance may hold the failed
//!   mutation. The handle discards it by reopening from disk, restoring
//!   memory/disk agreement; [`RepositoryHandle::rollbacks`] counts how
//!   often that happened.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{RwLock, RwLockReadGuard, RwLockWriteGuard};

use hidestore_failpoint::{RealVfs, Vfs};
use hidestore_storage::FileContainerStore;

use crate::config::HiDeStoreConfig;
use crate::system::{HiDeStore, HiDeStoreError};

/// A thread-safe, long-lived handle to an on-disk repository. See the
/// module docs for the locking and rollback rules.
///
/// Generic over the [`Vfs`] so fault-injection tests can drive the
/// rollback-reopen path (and prove the poisoned state) through
/// [`hidestore_failpoint::FaultVfs`]; production callers use the
/// [`RealVfs`] default.
pub struct RepositoryHandle<V: Vfs = RealVfs> {
    dir: PathBuf,
    vfs: V,
    /// `None` only after a rollback reopen itself failed — the handle is
    /// then poisoned and every operation reports it, because neither the
    /// in-memory state nor a fresh open can be trusted.
    state: RwLock<Option<HiDeStore<FileContainerStore<V>>>>,
    rollbacks: AtomicU64,
}

impl RepositoryHandle<RealVfs> {
    /// Opens the repository at `dir`, reading its `config` file and running
    /// journal recovery.
    ///
    /// # Errors
    ///
    /// [`HiDeStoreError::Config`] for a missing/invalid config file, or the
    /// errors of [`HiDeStore::open_repository`].
    pub fn open(dir: impl AsRef<Path>) -> Result<Self, HiDeStoreError> {
        Self::open_with(dir, RealVfs)
    }
}

impl<V: Vfs> RepositoryHandle<V> {
    /// [`RepositoryHandle::open`] through an explicit [`Vfs`] — the
    /// fault-injection entry point. Every filesystem operation of the
    /// handle's lifecycle (open, reads, save, rollback reopen) goes
    /// through `vfs`.
    ///
    /// # Errors
    ///
    /// As [`RepositoryHandle::open`].
    pub fn open_with(dir: impl AsRef<Path>, vfs: V) -> Result<Self, HiDeStoreError> {
        let dir = dir.as_ref().to_path_buf();
        let config = HiDeStoreConfig::load_from_with(&dir, &vfs)?;
        let (system, _report) = HiDeStore::open_repository_with(config, &dir, vfs.clone())?;
        Ok(RepositoryHandle {
            dir,
            vfs,
            state: RwLock::new(Some(system)),
            rollbacks: AtomicU64::new(0),
        })
    }

    /// The repository directory this handle serves.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// How many failed mutations were rolled back by reopening from disk.
    pub fn rollbacks(&self) -> u64 {
        self.rollbacks.load(Ordering::Relaxed)
    }

    fn read_guard(&self) -> RwLockReadGuard<'_, Option<HiDeStore<FileContainerStore<V>>>> {
        // The Option inside the lock carries the poison state explicitly, so
        // a lock poisoned by a panicking reader is safe to re-enter.
        self.state.read().unwrap_or_else(|e| e.into_inner())
    }

    fn write_guard(&self) -> RwLockWriteGuard<'_, Option<HiDeStore<FileContainerStore<V>>>> {
        self.state.write().unwrap_or_else(|e| e.into_inner())
    }

    /// Runs a read-only closure against the shared in-memory instance under
    /// the read lock: listings, statistics, restores and scrubs, all
    /// concurrently with each other.
    ///
    /// # Errors
    ///
    /// [`HiDeStoreError::Poisoned`] if the handle is poisoned.
    pub fn read<R>(
        &self,
        f: impl FnOnce(&HiDeStore<FileContainerStore<V>>) -> R,
    ) -> Result<R, HiDeStoreError> {
        let guard = self.read_guard();
        match guard.as_ref() {
            Some(system) => Ok(f(system)),
            None => Err(HiDeStoreError::Poisoned),
        }
    }

    // A forward to `read` kept only because `hdsbench/src/served.rs`
    // (frozen) still calls it.
    #[doc(hidden)]
    pub fn read_snapshot<R>(
        &self,
        f: impl FnOnce(&HiDeStore<FileContainerStore<V>>) -> Result<R, HiDeStoreError>,
    ) -> Result<R, HiDeStoreError> {
        self.read(f)?
    }

    /// Runs a mutating closure under the exclusive lock and persists the
    /// result with [`HiDeStore::save_repository`]. If the closure or the
    /// save fails, the in-memory instance is rolled back by reopening the
    /// (journal-guaranteed intact) on-disk state, and the original error is
    /// returned.
    ///
    /// # Errors
    ///
    /// The closure's error or the save's, with the in-memory state rolled
    /// back either way. If even the rollback reopen fails, the handle is
    /// poisoned and subsequent operations fail fast with
    /// [`HiDeStoreError::Poisoned`].
    pub fn write<R>(
        &self,
        f: impl FnOnce(&mut HiDeStore<FileContainerStore<V>>) -> Result<R, HiDeStoreError>,
    ) -> Result<R, HiDeStoreError> {
        self.write_checked(|_| Ok(()), f)
    }

    /// [`RepositoryHandle::write`] with an admission check that runs under
    /// the same exclusive lock *before* the mutation. A failing `check`
    /// refuses the mutation without touching anything: no rollback, no
    /// reopen, no [`RepositoryHandle::rollbacks`] bump — the in-memory
    /// instance is exactly as committed. Quota enforcement uses this so a
    /// refused backup is a cheap read, not a rollback, and so the check
    /// and the mutation are atomic against concurrent writers.
    ///
    /// # Errors
    ///
    /// `check`'s error (nothing mutated), or as
    /// [`RepositoryHandle::write`] once the mutation begins.
    pub fn write_checked<R>(
        &self,
        check: impl FnOnce(&HiDeStore<FileContainerStore<V>>) -> Result<(), HiDeStoreError>,
        f: impl FnOnce(&mut HiDeStore<FileContainerStore<V>>) -> Result<R, HiDeStoreError>,
    ) -> Result<R, HiDeStoreError> {
        let mut guard = self.write_guard();
        let Some(system) = guard.as_mut() else {
            return Err(HiDeStoreError::Poisoned);
        };
        check(system)?;
        let result = f(system).and_then(|r| {
            system.save_repository(&self.dir)?;
            Ok(r)
        });
        if let Err(e) = result {
            // The mutation (or its save) failed. Disk still holds the last
            // committed state; discard the dirty in-memory instance.
            self.rollbacks.fetch_add(1, Ordering::Relaxed);
            let config = *system.config();
            match HiDeStore::open_repository_with(config, &self.dir, self.vfs.clone()) {
                Ok((fresh, _report)) => *guard = Some(fresh),
                Err(_) => *guard = None,
            }
            return Err(e);
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hidestore_failpoint::{FaultKind, FaultVfs, OpKind};
    use hidestore_restore::Faa;
    use hidestore_storage::VersionId;

    fn noise(len: usize, seed: u64) -> Vec<u8> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 32) as u8
            })
            .collect()
    }

    fn restore<V: Vfs>(handle: &RepositoryHandle<V>, version: u32) -> Vec<u8> {
        handle
            .read(|s| {
                let mut out = Vec::new();
                s.restore(VersionId::new(version), &mut Faa::new(1 << 20), &mut out)
                    .map(|_| out)
            })
            .unwrap()
            .unwrap()
    }

    fn temp(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("hidestore-handle-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn init_repo(dir: &Path) {
        let config = HiDeStoreConfig::small_for_tests();
        config.save_to(dir).unwrap();
        let mut system = HiDeStore::open_repository(config, dir).unwrap();
        system.save_repository(dir).unwrap();
    }

    #[test]
    fn open_requires_config() {
        let dir = temp("noconfig");
        match RepositoryHandle::open(&dir).err() {
            Some(HiDeStoreError::Config(msg)) => assert!(msg.contains("not a hidestore")),
            other => panic!("expected Config error, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn write_persists_and_reads_see_it() {
        let dir = temp("write");
        init_repo(&dir);
        let handle = RepositoryHandle::open(&dir).unwrap();
        let stats = handle.write(|s| s.backup(&vec![42u8; 50_000])).unwrap();
        assert_eq!(stats.version.get(), 1);
        let versions = handle.read(|s| s.versions()).unwrap();
        assert_eq!(versions, vec![VersionId::new(1)]);
        assert_eq!(restore(&handle, 1), vec![42u8; 50_000]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_mutation_rolls_back_memory() {
        let dir = temp("rollback");
        init_repo(&dir);
        let handle = RepositoryHandle::open(&dir).unwrap();
        handle.write(|s| s.backup(&vec![1u8; 20_000])).unwrap();
        // A mutation that backs up and then errors: the version must not
        // survive in memory or on disk.
        let err = handle.write(|s| {
            s.backup(&vec![2u8; 20_000])?;
            Err::<(), _>(HiDeStoreError::UnknownVersion(VersionId::new(99)))
        });
        assert!(matches!(err, Err(HiDeStoreError::UnknownVersion(_))));
        assert_eq!(handle.rollbacks(), 1);
        let versions = handle.read(|s| s.versions()).unwrap();
        assert_eq!(versions, vec![VersionId::new(1)], "rolled back in memory");
        // And the next mutation gets the expected version number.
        let stats = handle.write(|s| s.backup(&vec![3u8; 20_000])).unwrap();
        assert_eq!(stats.version.get(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A fault that makes the mutation's save fail AND (crash semantics:
    /// every vfs op after the armed site fails too) makes the rollback
    /// reopen fail must poison the handle: every subsequent operation
    /// fast-fails with the typed [`HiDeStoreError::Poisoned`], never a
    /// half-trusted instance.
    #[test]
    fn failed_rollback_poisons_the_handle_with_typed_error() {
        let dir = temp("poison");
        init_repo(&dir);
        // Counting run: how many vfs ops does the open itself take? The
        // armed run fails the first op after that, i.e. the first I/O of
        // the mutation/save.
        let counting = FaultVfs::counting();
        let probe = RepositoryHandle::open_with(&dir, counting.clone()).unwrap();
        let open_ops = counting.ops();
        drop(probe);

        let vfs = FaultVfs::armed(open_ops, FaultKind::Error);
        let handle = RepositoryHandle::open_with(&dir, vfs.clone()).unwrap();
        let err = handle.write(|s| s.backup(&vec![5u8; 40_000]));
        assert!(err.is_err(), "the armed fault must fail the mutation");
        assert!(vfs.crashed(), "the armed site must have fired");
        assert_eq!(handle.rollbacks(), 1);
        // The rollback reopen also failed (crashed vfs), so the handle is
        // poisoned: reads and writes all fast-fail typed.
        assert!(matches!(
            handle.read(|s| s.versions()),
            Err(HiDeStoreError::Poisoned)
        ));
        assert!(matches!(
            handle.write(|s| s.backup(b"more")),
            Err(HiDeStoreError::Poisoned)
        ));
        let msg = HiDeStoreError::Poisoned.to_string();
        assert!(msg.contains("poisoned"), "display names the state: {msg}");
        // The repository on disk is still intact: a fresh handle over the
        // real filesystem opens and serves reads.
        let fresh = RepositoryHandle::open(&dir).unwrap();
        assert_eq!(fresh.read(|s| s.versions()).unwrap(), vec![]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn write_checked_refuses_without_rollback() {
        let dir = temp("checked");
        init_repo(&dir);
        let handle = RepositoryHandle::open(&dir).unwrap();
        handle.write(|s| s.backup(&vec![1u8; 10_000])).unwrap();
        // A failing check refuses before anything mutates: no new version,
        // no rollback, and the error passes through verbatim.
        let err = handle.write_checked(
            |s| {
                Err(HiDeStoreError::QuotaExceeded {
                    what: "versions",
                    used: s.versions().len() as u64,
                    limit: 1,
                })
            },
            |s| s.backup(&vec![2u8; 10_000]),
        );
        assert!(matches!(
            err,
            Err(HiDeStoreError::QuotaExceeded {
                what: "versions",
                used: 1,
                limit: 1
            })
        ));
        assert_eq!(handle.rollbacks(), 0, "a refused check is not a rollback");
        assert_eq!(handle.read(|s| s.versions()).unwrap().len(), 1);
        // A passing check lets the mutation commit normally.
        let stats = handle
            .write_checked(|_| Ok(()), |s| s.backup(&vec![3u8; 10_000]))
            .unwrap();
        assert_eq!(stats.version.get(), 2);
        // And a failing mutation after a passing check still rolls back.
        let err = handle.write_checked(
            |_| Ok(()),
            |s| {
                s.backup(&vec![4u8; 10_000])?;
                Err::<(), _>(HiDeStoreError::UnknownVersion(VersionId::new(77)))
            },
        );
        assert!(matches!(err, Err(HiDeStoreError::UnknownVersion(_))));
        assert_eq!(handle.rollbacks(), 1);
        assert_eq!(handle.read(|s| s.versions()).unwrap().len(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A read through the handle runs on the open instance: restoring V1
    /// and scrubbing read archival containers and nothing else — no
    /// directory listing, no rename into quarantine, no recipe, active-pool
    /// or meta file.
    #[test]
    fn handle_reads_touch_only_containers() {
        let dir = temp("reads");
        init_repo(&dir);
        let vfs = FaultVfs::counting();
        let handle = RepositoryHandle::open_with(&dir, vfs.clone()).unwrap();
        let versions: Vec<Vec<u8>> = (0..3).map(|i| noise(60_000, 40 + i)).collect();
        for data in &versions {
            handle.write(|s| s.backup(data)).unwrap();
        }
        let before = vfs.trace().len();
        assert_eq!(restore(&handle, 1), versions[0]);
        assert!(handle.read(|s| s.scrub()).unwrap().unwrap().is_clean());
        let trace = vfs.trace();
        let reads = &trace[before..];
        assert!(
            !reads.is_empty(),
            "V1's chunks went cold: its restore reads archival containers"
        );
        for op in reads {
            let name = op.path.file_name().unwrap().to_string_lossy();
            assert!(
                op.kind == OpKind::Read
                    && op.path.parent() == Some(dir.join("archival").as_path())
                    && name.starts_with('c')
                    && name.ends_with(".ctr"),
                "a read touched more than a container: {op:?}"
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn concurrent_readers_and_writers() {
        let dir = temp("concurrent");
        init_repo(&dir);
        let handle = RepositoryHandle::open(&dir).unwrap();
        let first = noise(30_000, 9);
        handle.write(|s| s.backup(&first)).unwrap();
        let later: Vec<Vec<u8>> = (0..5).map(|i| noise(10_000 + i, 10 + i as u64)).collect();
        std::thread::scope(|scope| {
            for _ in 0..3 {
                scope.spawn(|| {
                    for _ in 0..5 {
                        assert_eq!(restore(&handle, 1), first);
                    }
                });
            }
            scope.spawn(|| {
                for data in &later {
                    handle.write(|s| s.backup(data)).unwrap();
                }
            });
        });
        assert_eq!(handle.read(|s| s.versions()).unwrap().len(), 6);
        assert_eq!(restore(&handle, 1), first);
        for (i, data) in later.iter().enumerate() {
            assert_eq!(&restore(&handle, i as u32 + 2), data);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
