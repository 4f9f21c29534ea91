//! The fault-injecting [`Vfs`]: deterministic operation counting, one armed
//! fault, and crash semantics (everything after the fault fails too).

use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crate::vfs::{RealVfs, Vfs};

/// What kind of filesystem operation a failpoint site performed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// Whole-file read ([`Vfs::read`]).
    Read,
    /// Whole-file create + write ([`Vfs::write`]).
    Write,
    /// File-content fsync ([`Vfs::sync_file`]).
    SyncFile,
    /// Atomic rename ([`Vfs::rename`]).
    Rename,
    /// Directory-entry fsync ([`Vfs::sync_dir`]).
    SyncDir,
    /// File unlink ([`Vfs::remove_file`]).
    RemoveFile,
    /// Recursive directory creation ([`Vfs::create_dir_all`]).
    CreateDirAll,
    /// Directory listing ([`Vfs::read_dir`]).
    ReadDir,
    /// Recursive directory removal ([`Vfs::remove_dir_all`]).
    RemoveDirAll,
    /// Entry stat without following symlinks ([`Vfs::symlink_metadata`]).
    SymlinkMetadata,
    /// Symlink target read ([`Vfs::read_link`]).
    ReadLink,
    /// Symlink creation ([`Vfs::symlink`]).
    Symlink,
    /// Permission-bit update ([`Vfs::set_mode`]).
    SetMode,
    /// Mtime update ([`Vfs::set_mtime`]).
    SetMtime,
}

/// One numbered operation observed by a [`FaultVfs`].
///
/// A counting run collects these; the harness then replays the workload once
/// per record with that site armed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpRecord {
    /// Zero-based site index (the value [`FaultVfs::armed`] takes).
    pub index: u64,
    /// The operation performed at this site.
    pub kind: OpKind,
    /// Primary path of the operation (destination path for renames).
    pub path: PathBuf,
    /// Payload length for [`OpKind::Write`] sites, `0` otherwise. Torn-write
    /// variants pick a truncation point below this.
    pub len: usize,
}

/// How an armed failpoint site fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The operation performs no I/O and returns an injected error.
    Error,
    /// Only for [`Vfs::write`] sites: persist the first `k` bytes of the
    /// payload (a torn write), then fail. For non-write operations this
    /// behaves like [`FaultKind::Error`].
    Torn(usize),
}

#[derive(Debug)]
struct PlanState {
    /// Next site index to assign.
    ops: u64,
    /// Site to fail at, if any.
    armed: Option<(u64, FaultKind)>,
    /// Set once the armed fault has fired: the simulated process is dead and
    /// every later operation fails without touching the disk.
    crashed: bool,
    /// Every op observed so far (counting runs read this back).
    trace: Vec<OpRecord>,
}

/// A [`Vfs`] wrapping the real filesystem with deterministic fault injection.
///
/// Clones share one plan: a store holding several clones still counts a
/// single global operation sequence and dies as a single process when the
/// armed fault fires.
#[derive(Debug, Clone)]
pub struct FaultVfs {
    real: RealVfs,
    plan: Arc<Mutex<PlanState>>,
}

impl FaultVfs {
    /// A vfs that never fails but numbers and records every operation —
    /// used to enumerate the failpoint sites of a workload.
    #[must_use]
    pub fn counting() -> Self {
        Self::with_plan(None)
    }

    /// A vfs whose `site`-th operation (zero-based) fails with `kind`,
    /// after which the instance is [`crashed`](Self::crashed).
    #[must_use]
    pub fn armed(site: u64, kind: FaultKind) -> Self {
        Self::with_plan(Some((site, kind)))
    }

    fn with_plan(armed: Option<(u64, FaultKind)>) -> Self {
        Self {
            real: RealVfs,
            plan: Arc::new(Mutex::new(PlanState {
                ops: 0,
                armed,
                crashed: false,
                trace: Vec::new(),
            })),
        }
    }

    fn plan(&self) -> MutexGuard<'_, PlanState> {
        // The plan is plain counters; a panicking holder cannot leave it
        // inconsistent, so a poisoned lock is safe to re-enter.
        self.plan.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Number of operations observed so far.
    #[must_use]
    pub fn ops(&self) -> u64 {
        self.plan().ops
    }

    /// Whether the armed fault has fired. Once true, every subsequent
    /// operation fails without performing any I/O — the simulated process
    /// is dead.
    #[must_use]
    pub fn crashed(&self) -> bool {
        self.plan().crashed
    }

    /// The numbered operations observed so far (counting-run output).
    #[must_use]
    pub fn trace(&self) -> Vec<OpRecord> {
        self.plan().trace.clone()
    }

    fn injected_error(site: u64, kind: OpKind) -> io::Error {
        io::Error::other(format!(
            "injected fault at failpoint site {site} ({kind:?})"
        ))
    }

    fn crashed_error() -> io::Error {
        io::Error::other("process crashed at an earlier failpoint site")
    }

    /// Numbers one operation. Returns what the op must do: `Ok(None)` run
    /// normally, `Ok(Some(k))` tear the write at byte `k` then fail,
    /// `Err(_)` fail immediately (crashed, or armed with a plain error).
    fn step(&self, kind: OpKind, path: &Path, len: usize) -> io::Result<Option<usize>> {
        let mut plan = self.plan();
        if plan.crashed {
            return Err(Self::crashed_error());
        }
        let index = plan.ops;
        plan.ops += 1;
        plan.trace.push(OpRecord {
            index,
            kind,
            path: path.to_path_buf(),
            len,
        });
        match plan.armed {
            Some((site, fault)) if site == index => {
                plan.crashed = true;
                match fault {
                    FaultKind::Torn(k) if kind == OpKind::Write => Ok(Some(k)),
                    _ => Err(Self::injected_error(site, kind)),
                }
            }
            _ => Ok(None),
        }
    }
}

impl Vfs for FaultVfs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.step(OpKind::Read, path, 0)?;
        self.real.read(path)
    }

    fn write(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        match self.step(OpKind::Write, path, data.len())? {
            None => self.real.write(path, data),
            Some(k) => {
                // Torn write: persist a prefix, then report failure. The
                // prefix length is clamped so every site admits a torn
                // variant regardless of payload size.
                let k = k.min(data.len());
                self.real.write(path, &data[..k])?;
                Err(Self::injected_error(
                    self.ops().saturating_sub(1),
                    OpKind::Write,
                ))
            }
        }
    }

    fn sync_file(&self, path: &Path) -> io::Result<()> {
        self.step(OpKind::SyncFile, path, 0)?;
        self.real.sync_file(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.step(OpKind::Rename, to, 0)?;
        self.real.rename(from, to)
    }

    fn sync_dir(&self, path: &Path) -> io::Result<()> {
        self.step(OpKind::SyncDir, path, 0)?;
        self.real.sync_dir(path)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.step(OpKind::RemoveFile, path, 0)?;
        self.real.remove_file(path)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.step(OpKind::CreateDirAll, path, 0)?;
        self.real.create_dir_all(path)
    }

    fn read_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>> {
        self.step(OpKind::ReadDir, path, 0)?;
        self.real.read_dir(path)
    }

    fn remove_dir_all(&self, path: &Path) -> io::Result<()> {
        self.step(OpKind::RemoveDirAll, path, 0)?;
        self.real.remove_dir_all(path)
    }

    fn exists(&self, path: &Path) -> bool {
        // Not a failpoint site: existence checks perform no durable I/O and
        // a crashed process cannot observe anything anyway.
        self.real.exists(path)
    }

    fn symlink_metadata(&self, path: &Path) -> io::Result<crate::vfs::VfsMetadata> {
        self.step(OpKind::SymlinkMetadata, path, 0)?;
        self.real.symlink_metadata(path)
    }

    fn read_link(&self, path: &Path) -> io::Result<PathBuf> {
        self.step(OpKind::ReadLink, path, 0)?;
        self.real.read_link(path)
    }

    fn symlink(&self, target: &Path, link: &Path) -> io::Result<()> {
        self.step(OpKind::Symlink, link, 0)?;
        self.real.symlink(target, link)
    }

    fn set_mode(&self, path: &Path, mode: u32) -> io::Result<()> {
        self.step(OpKind::SetMode, path, 0)?;
        self.real.set_mode(path, mode)
    }

    fn set_mtime(&self, path: &Path, secs: i64, nanos: u32) -> io::Result<()> {
        self.step(OpKind::SetMtime, path, 0)?;
        self.real.set_mtime(path, secs, nanos)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("fp-fault-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn counting_records_sites_in_order() {
        let dir = scratch("count");
        let v = FaultVfs::counting();
        v.write(&dir.join("a"), b"one").unwrap();
        v.sync_file(&dir.join("a")).unwrap();
        v.rename(&dir.join("a"), &dir.join("b")).unwrap();
        let trace = v.trace();
        assert_eq!(v.ops(), 3);
        assert_eq!(
            trace.iter().map(|r| (r.index, r.kind)).collect::<Vec<_>>(),
            vec![
                (0, OpKind::Write),
                (1, OpKind::SyncFile),
                (2, OpKind::Rename)
            ]
        );
        assert_eq!(trace[0].len, 3);
        assert!(!v.crashed());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn armed_error_fails_site_and_crashes_rest() {
        let dir = scratch("armed");
        let v = FaultVfs::armed(1, FaultKind::Error);
        v.write(&dir.join("a"), b"one").unwrap();
        assert!(v.write(&dir.join("b"), b"two").is_err());
        assert!(v.crashed());
        // Nothing after the crash reaches the disk.
        assert!(v.write(&dir.join("c"), b"three").is_err());
        assert!(v.read(&dir.join("a")).is_err());
        assert!(!dir.join("b").exists());
        assert!(!dir.join("c").exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_write_persists_prefix() {
        let dir = scratch("torn");
        let v = FaultVfs::armed(0, FaultKind::Torn(2));
        assert!(v.write(&dir.join("a"), b"hello").is_err());
        assert_eq!(fs::read(dir.join("a")).unwrap(), b"he");
        assert!(v.crashed());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_on_non_write_acts_like_error() {
        let dir = scratch("torn-sync");
        let v = FaultVfs::armed(0, FaultKind::Torn(2));
        assert!(v.sync_dir(&dir).is_err());
        assert!(v.crashed());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn clones_share_one_process() {
        let dir = scratch("clone");
        let v = FaultVfs::armed(1, FaultKind::Error);
        let w = v.clone();
        v.write(&dir.join("a"), b"x").unwrap();
        assert!(w.write(&dir.join("b"), b"y").is_err());
        assert!(v.crashed() && w.crashed());
        fs::remove_dir_all(&dir).unwrap();
    }
}
