//! The one fault plan: a shared operation counter, at most one armed site,
//! and the trace of every numbered operation, on the disk side and the wire
//! side alike.

use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// What kind of operation a numbered site performed: one of the fourteen
/// [`Vfs`](crate::Vfs) operations, or a socket read or write.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// Whole-file read ([`Vfs::read`](crate::Vfs::read)).
    Read,
    /// Whole-file create + write ([`Vfs::write`](crate::Vfs::write)).
    Write,
    /// File-content fsync ([`Vfs::sync_file`](crate::Vfs::sync_file)).
    SyncFile,
    /// Atomic rename ([`Vfs::rename`](crate::Vfs::rename)).
    Rename,
    /// Directory-entry fsync ([`Vfs::sync_dir`](crate::Vfs::sync_dir)).
    SyncDir,
    /// File unlink ([`Vfs::remove_file`](crate::Vfs::remove_file)).
    RemoveFile,
    /// Recursive directory creation
    /// ([`Vfs::create_dir_all`](crate::Vfs::create_dir_all)).
    CreateDirAll,
    /// Directory listing ([`Vfs::read_dir`](crate::Vfs::read_dir)).
    ReadDir,
    /// Recursive directory removal
    /// ([`Vfs::remove_dir_all`](crate::Vfs::remove_dir_all)).
    RemoveDirAll,
    /// Entry stat without following symlinks
    /// ([`Vfs::symlink_metadata`](crate::Vfs::symlink_metadata)).
    SymlinkMetadata,
    /// Symlink target read ([`Vfs::read_link`](crate::Vfs::read_link)).
    ReadLink,
    /// Symlink creation ([`Vfs::symlink`](crate::Vfs::symlink)).
    Symlink,
    /// Permission-bit update ([`Vfs::set_mode`](crate::Vfs::set_mode)).
    SetMode,
    /// Mtime update ([`Vfs::set_mtime`](crate::Vfs::set_mtime)).
    SetMtime,
    /// A socket read through a [`Socket`](crate::Socket).
    WireRead,
    /// A socket write through a [`Socket`](crate::Socket).
    WireWrite,
}

impl OpKind {
    /// Whether this is a socket operation rather than a filesystem one.
    pub(crate) fn is_wire(self) -> bool {
        matches!(self, OpKind::WireRead | OpKind::WireWrite)
    }
}

/// One numbered operation observed by a [`Plan`].
///
/// A counting run collects these; the harness then replays the workload once
/// per record with that site armed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpRecord {
    /// Zero-based site index (the value [`Plan::armed`] takes).
    pub index: u64,
    /// The operation performed at this site.
    pub kind: OpKind,
    /// Primary path of a filesystem operation (destination path for
    /// renames); empty for wire operations.
    pub path: PathBuf,
    /// Payload length of a [`OpKind::Write`] (torn-write variants pick a
    /// truncation point below it) and bytes requested by a wire operation;
    /// `0` otherwise.
    pub len: usize,
}

/// How an armed site fails. A variant that means nothing on one side acts
/// as [`FaultKind::Error`] there.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The operation moves no bytes and fails: an injected I/O error on the
    /// disk, a cut (`ConnectionReset`) on the wire.
    Error,
    /// Disk only: a [`Vfs::write`](crate::Vfs::write) persists the first
    /// `k` bytes of its payload (a torn write), then fails.
    Torn(usize),
    /// Wire only: about half the requested bytes move, then the stream
    /// dies — the peer holds a torn frame prefix.
    Short,
    /// Wire only: the peer goes silent; the operation fails with
    /// `TimedOut`, as a kernel deadline would report.
    BlackHole,
    /// Wire only: the operation stalls for the duration, then proceeds.
    /// The stream survives.
    Delay(Duration),
}

#[derive(Debug)]
struct State {
    /// Next site index to assign.
    ops: u64,
    /// Site to fail at, if any.
    armed: Option<(u64, FaultKind)>,
    /// The kind of operation the armed fault fired on, once it has.
    fired: Option<OpKind>,
    /// Every op observed so far (counting runs read this back).
    trace: Vec<OpRecord>,
}

/// A shared, cloneable fault plan: one operation sequence numbered across
/// every [`FaultVfs`](crate::FaultVfs) and [`Socket`](crate::Socket) that
/// holds a clone, with at most one armed site.
///
/// Where the armed fault fires decides what it kills:
///
/// * on a filesystem operation, the simulated process dies: every later
///   filesystem operation of the plan fails without touching the disk and
///   without being numbered;
/// * on a wire operation, only that socket dies; later connections run
///   clean, so a caller that connects again can prove it converges.
///
/// Neither kind stops the other side.
#[derive(Clone)]
pub struct Plan {
    state: Arc<Mutex<State>>,
}

impl fmt::Debug for Plan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.lock();
        f.debug_struct("Plan")
            .field("ops", &s.ops)
            .field("armed", &s.armed)
            .field("fired", &s.fired)
            .finish()
    }
}

impl Plan {
    /// A plan that never faults but numbers and records every operation —
    /// used to enumerate the sites of a workload.
    #[must_use]
    pub fn counting() -> Self {
        Self::with_armed(None)
    }

    /// A plan whose `site`-th operation (zero-based) suffers `fault`.
    #[must_use]
    pub fn armed(site: u64, fault: FaultKind) -> Self {
        Self::with_armed(Some((site, fault)))
    }

    fn with_armed(armed: Option<(u64, FaultKind)>) -> Self {
        Plan {
            state: Arc::new(Mutex::new(State {
                ops: 0,
                armed,
                fired: None,
                trace: Vec::new(),
            })),
        }
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        // The plan is plain counters; a panicking holder cannot leave it
        // inconsistent, so a poisoned lock is safe to re-enter.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Number of operations observed so far.
    #[must_use]
    pub fn ops(&self) -> u64 {
        self.lock().ops
    }

    /// Whether the armed fault has fired.
    #[must_use]
    pub fn fired(&self) -> bool {
        self.lock().fired.is_some()
    }

    /// The numbered operations observed so far (counting-run output).
    #[must_use]
    pub fn trace(&self) -> Vec<OpRecord> {
        self.lock().trace.clone()
    }

    /// Numbers one operation and returns the index it assigned, plus the
    /// fault to inject when that index is the armed site. A filesystem
    /// operation after a fault fired on the filesystem side fails here,
    /// unnumbered: the simulated process is dead.
    pub(crate) fn step(
        &self,
        kind: OpKind,
        path: &Path,
        len: usize,
    ) -> io::Result<(u64, Option<FaultKind>)> {
        let mut s = self.lock();
        if !kind.is_wire() && s.fired.is_some_and(|k| !k.is_wire()) {
            return Err(io::Error::other(
                "process crashed at an earlier failpoint site",
            ));
        }
        let index = s.ops;
        s.ops += 1;
        s.trace.push(OpRecord {
            index,
            kind,
            path: path.to_path_buf(),
            len,
        });
        let fault = match s.armed {
            Some((site, fault)) if site == index => {
                s.fired = Some(kind);
                Some(fault)
            }
            _ => None,
        };
        Ok((index, fault))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FaultVfs, Socket, Vfs};
    use std::fs;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("fp-plan-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// A loopback socket pair, both ends wrapped by `plan`.
    fn pair(plan: &Plan) -> (Socket, Socket) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let a = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (b, _) = listener.accept().unwrap();
        (
            Socket::new(a, Some(plan.clone())),
            Socket::new(b, Some(plan.clone())),
        )
    }

    #[test]
    fn one_plan_numbers_disk_and_wire_ops_in_order() {
        let dir = scratch("joint");
        let plan = Plan::counting();
        let vfs = FaultVfs::new(plan.clone());
        let (mut a, mut b) = pair(&plan);
        vfs.write(&dir.join("f"), b"abc").unwrap();
        a.write_all(b"ping").unwrap();
        let mut buf = [0u8; 4];
        b.read_exact(&mut buf).unwrap();
        vfs.sync_file(&dir.join("f")).unwrap();
        let trace = plan.trace();
        let kinds: Vec<OpKind> = trace.iter().map(|r| r.kind).collect();
        // TCP may split the read, so only its first op is pinned.
        assert_eq!(
            &kinds[..3],
            [OpKind::Write, OpKind::WireWrite, OpKind::WireRead]
        );
        assert_eq!(kinds.last(), Some(&OpKind::SyncFile));
        assert!(kinds[2..kinds.len() - 1]
            .iter()
            .all(|k| *k == OpKind::WireRead));
        assert!(trace.iter().enumerate().all(|(i, r)| r.index == i as u64));
        assert_eq!(plan.ops(), trace.len() as u64);
        assert_eq!((trace[0].len, trace[1].len), (3, 4));
        assert!(trace[1].path.as_os_str().is_empty());
        assert!(!plan.fired());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_wire_fault_leaves_the_disk_working() {
        let dir = scratch("wire-fault");
        let plan = Plan::armed(0, FaultKind::Error);
        let vfs = FaultVfs::new(plan.clone());
        let (mut a, _b) = pair(&plan);
        assert!(a.write_all(b"x").is_err());
        assert!(plan.fired());
        vfs.write(&dir.join("f"), b"still here").unwrap();
        assert_eq!(vfs.read(&dir.join("f")).unwrap(), b"still here");
        assert_eq!(plan.ops(), 3, "the disk ops after the cut are numbered");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_disk_fault_crashes_the_disk_and_leaves_streams_working() {
        let dir = scratch("disk-fault");
        let plan = Plan::armed(0, FaultKind::Error);
        let vfs = FaultVfs::new(plan.clone());
        let (mut a, mut b) = pair(&plan);
        assert!(vfs.write(&dir.join("f"), b"x").is_err());
        assert!(plan.fired());
        assert!(
            vfs.read(&dir.join("f")).is_err(),
            "dead processes do no disk I/O"
        );
        assert_eq!(plan.ops(), 1, "crashed disk ops are not numbered");
        a.write_all(b"wire").unwrap();
        let mut buf = [0u8; 4];
        b.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"wire");
        assert!(plan.ops() >= 3, "wire ops after the crash are numbered");
        fs::remove_dir_all(&dir).unwrap();
    }
}
