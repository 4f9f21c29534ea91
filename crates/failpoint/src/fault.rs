//! The fault-injecting [`Vfs`]: every filesystem operation is a numbered
//! site of a [`Plan`], and a fault that fires here crashes the simulated
//! process (everything after it fails too).

use std::io;
use std::path::{Path, PathBuf};

use crate::plan::{FaultKind, OpKind, Plan};
use crate::vfs::{RealVfs, Vfs, VfsMetadata};

/// A [`Vfs`] over the real filesystem whose operations are numbered, and
/// possibly failed, by a shared [`Plan`].
///
/// Clones share the plan: a store holding several clones still counts a
/// single global operation sequence and dies as a single process when the
/// armed fault fires. A [`FaultKind::Torn`] fault on a write persists a
/// prefix before failing; every other fault, and `Torn` on any other
/// operation, fails the operation without touching the disk.
#[derive(Debug, Clone)]
pub struct FaultVfs {
    plan: Plan,
}

impl FaultVfs {
    /// A vfs whose operations `plan` numbers.
    #[must_use]
    pub fn new(plan: Plan) -> Self {
        FaultVfs { plan }
    }

    /// The plan numbering this vfs's operations.
    #[must_use]
    pub fn plan(&self) -> &Plan {
        &self.plan
    }

    /// Numbers one operation and fails it if it is the armed site.
    fn step(&self, kind: OpKind, path: &Path) -> io::Result<()> {
        match self.plan.step(kind, path, 0)? {
            (_, None) => Ok(()),
            (index, Some(_)) => Err(injected_error(index, kind)),
        }
    }
}

fn injected_error(site: u64, kind: OpKind) -> io::Error {
    io::Error::other(format!(
        "injected fault at failpoint site {site} ({kind:?})"
    ))
}

impl Vfs for FaultVfs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.step(OpKind::Read, path)?;
        RealVfs.read(path)
    }

    fn write(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        match self.plan.step(OpKind::Write, path, data.len())? {
            (_, None) => RealVfs.write(path, data),
            (index, Some(FaultKind::Torn(k))) => {
                // Torn write: persist a prefix, then report failure. The
                // prefix length is clamped so every site admits a torn
                // variant regardless of payload size.
                RealVfs.write(path, &data[..k.min(data.len())])?;
                Err(injected_error(index, OpKind::Write))
            }
            (index, Some(_)) => Err(injected_error(index, OpKind::Write)),
        }
    }

    fn sync_file(&self, path: &Path) -> io::Result<()> {
        self.step(OpKind::SyncFile, path)?;
        RealVfs.sync_file(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.step(OpKind::Rename, to)?;
        RealVfs.rename(from, to)
    }

    fn sync_dir(&self, path: &Path) -> io::Result<()> {
        self.step(OpKind::SyncDir, path)?;
        RealVfs.sync_dir(path)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.step(OpKind::RemoveFile, path)?;
        RealVfs.remove_file(path)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.step(OpKind::CreateDirAll, path)?;
        RealVfs.create_dir_all(path)
    }

    fn read_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>> {
        self.step(OpKind::ReadDir, path)?;
        RealVfs.read_dir(path)
    }

    fn remove_dir_all(&self, path: &Path) -> io::Result<()> {
        self.step(OpKind::RemoveDirAll, path)?;
        RealVfs.remove_dir_all(path)
    }

    fn exists(&self, path: &Path) -> bool {
        // Not a failpoint site: existence checks perform no durable I/O and
        // a crashed process cannot observe anything anyway.
        RealVfs.exists(path)
    }

    fn symlink_metadata(&self, path: &Path) -> io::Result<VfsMetadata> {
        self.step(OpKind::SymlinkMetadata, path)?;
        RealVfs.symlink_metadata(path)
    }

    fn read_link(&self, path: &Path) -> io::Result<PathBuf> {
        self.step(OpKind::ReadLink, path)?;
        RealVfs.read_link(path)
    }

    fn symlink(&self, target: &Path, link: &Path) -> io::Result<()> {
        self.step(OpKind::Symlink, link)?;
        RealVfs.symlink(target, link)
    }

    fn set_mode(&self, path: &Path, mode: u32) -> io::Result<()> {
        self.step(OpKind::SetMode, path)?;
        RealVfs.set_mode(path, mode)
    }

    fn set_mtime(&self, path: &Path, secs: i64, nanos: u32) -> io::Result<()> {
        self.step(OpKind::SetMtime, path)?;
        RealVfs.set_mtime(path, secs, nanos)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;
    use std::time::Duration;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("fp-fault-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn counting_records_sites_in_order() {
        let dir = scratch("count");
        let v = FaultVfs::new(Plan::counting());
        v.write(&dir.join("a"), b"one").unwrap();
        v.sync_file(&dir.join("a")).unwrap();
        v.rename(&dir.join("a"), &dir.join("b")).unwrap();
        let trace = v.plan().trace();
        assert_eq!(v.plan().ops(), 3);
        assert_eq!(
            trace.iter().map(|r| (r.index, r.kind)).collect::<Vec<_>>(),
            vec![
                (0, OpKind::Write),
                (1, OpKind::SyncFile),
                (2, OpKind::Rename)
            ]
        );
        assert_eq!(trace[0].len, 3);
        assert!(!v.plan().fired());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn armed_error_fails_site_and_crashes_rest() {
        let dir = scratch("armed");
        let v = FaultVfs::new(Plan::armed(1, FaultKind::Error));
        v.write(&dir.join("a"), b"one").unwrap();
        assert!(v.write(&dir.join("b"), b"two").is_err());
        assert!(v.plan().fired());
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
        let v = FaultVfs::new(Plan::armed(1, FaultKind::Torn(2)));
        v.write(&dir.join("z"), b"whole").unwrap();
        let err = v.write(&dir.join("a"), b"hello").unwrap_err();
        assert!(err.to_string().contains("site 1 "), "{err}");
        assert_eq!(fs::read(dir.join("a")).unwrap(), b"he");
        assert!(v.plan().fired());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_on_non_write_acts_like_error() {
        let dir = scratch("torn-sync");
        let v = FaultVfs::new(Plan::armed(0, FaultKind::Torn(2)));
        assert!(v.sync_dir(&dir).is_err());
        assert!(v.plan().fired());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wire_only_faults_act_like_error() {
        let dir = scratch("wire-only");
        for fault in [
            FaultKind::Short,
            FaultKind::BlackHole,
            FaultKind::Delay(Duration::ZERO),
        ] {
            let v = FaultVfs::new(Plan::armed(0, fault));
            assert!(v.write(&dir.join("a"), b"hello").is_err(), "{fault:?}");
            assert!(!dir.join("a").exists(), "{fault:?}");
            assert!(v.plan().fired());
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn clones_share_one_process() {
        let dir = scratch("clone");
        let v = FaultVfs::new(Plan::armed(1, FaultKind::Error));
        let w = v.clone();
        v.write(&dir.join("a"), b"x").unwrap();
        assert!(w.write(&dir.join("b"), b"y").is_err());
        assert!(v.plan().fired() && w.plan().fired());
        fs::remove_dir_all(&dir).unwrap();
    }
}
