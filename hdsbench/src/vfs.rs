//! An in-memory, counting [`Vfs`]: the filesystem the local workloads'
//! repositories live on.
//!
//! The benchmark may only write inside its checkout, and the checkout sits
//! on whatever device the machine has. On this sandbox's disk the same
//! many-commit ingest ran at 15–32 MiB/s from one run to the next — flush
//! latency and small-file metadata traffic are the device's, not the
//! program's. So timings run against memory, where they repeat, and the
//! device-facing behaviour is reported as exact counts: files and bytes
//! written, flushes issued, containers read. The program still issues every
//! flush it would on disk; here a flush is a counted no-op, as on tmpfs.

use std::collections::BTreeMap;
use std::io;
use std::ops::Bound;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};

use hidestore_failpoint::{Vfs, VfsEntryKind, VfsMetadata};

/// Plain-value copy of the I/O counters at one instant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VfsCounts {
    /// `write` calls.
    pub files_written: u64,
    /// Σ payload bytes of `write` calls.
    pub bytes_written: u64,
    /// `sync_file` + `sync_dir` calls.
    pub fsyncs: u64,
    /// `read` calls on `*.ctr` container files.
    pub containers_read: u64,
}

impl VfsCounts {
    /// Counter growth since `earlier`.
    #[must_use]
    pub fn since(&self, earlier: &VfsCounts) -> VfsCounts {
        VfsCounts {
            files_written: self.files_written - earlier.files_written,
            bytes_written: self.bytes_written - earlier.bytes_written,
            fsyncs: self.fsyncs - earlier.fsyncs,
            containers_read: self.containers_read - earlier.containers_read,
        }
    }
}

#[derive(Debug, Clone)]
enum Kind {
    File(Vec<u8>),
    Dir,
    Symlink(PathBuf),
}

#[derive(Debug, Clone)]
struct Node {
    kind: Kind,
    mode: u32,
    mtime: (i64, u32),
}

#[derive(Debug, Default)]
struct State {
    /// Every entry by full path. `Path`'s ordering is component-wise, so a
    /// directory's descendants sit contiguously right after it.
    nodes: BTreeMap<PathBuf, Node>,
    counts: VfsCounts,
    /// Logical clock stamping new entries: mtimes depend on the order of
    /// operations, never on the wall clock.
    clock: i64,
}

impl State {
    fn stamp(&mut self, kind: Kind, mode: u32) -> Node {
        self.clock += 1;
        Node {
            kind,
            mode,
            mtime: (self.clock, 0),
        }
    }

    fn descendants(&self, dir: &Path) -> Vec<PathBuf> {
        self.nodes
            .range::<Path, _>((Bound::Excluded(dir), Bound::Unbounded))
            .map(|(path, _)| path)
            .take_while(|path| path.starts_with(dir))
            .cloned()
            .collect()
    }

    fn is_dir(&self, path: &Path) -> bool {
        matches!(
            self.nodes.get(path),
            Some(Node {
                kind: Kind::Dir,
                ..
            })
        )
    }

    fn node_mut(&mut self, path: &Path) -> io::Result<&mut Node> {
        self.nodes.get_mut(path).ok_or_else(|| not_found(path))
    }
}

fn not_found(path: &Path) -> io::Error {
    io::Error::new(
        io::ErrorKind::NotFound,
        format!(
            "{}: no such entry in the in-memory filesystem",
            path.display()
        ),
    )
}

/// The in-memory [`Vfs`]; clones share one tree and one set of counters.
#[derive(Debug, Clone, Default)]
pub struct MemVfs {
    state: Arc<Mutex<State>>,
}

impl MemVfs {
    /// An empty filesystem with all counters at zero.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        // Every update below leaves the map valid at every step, so a panic
        // elsewhere while the lock was held cannot have broken it.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The counters now.
    #[must_use]
    pub fn counts(&self) -> VfsCounts {
        self.lock().counts
    }

    /// Calls `f(path, contents)` for every regular file under `dir`, in path
    /// order. Not counted as reads: this is the harness looking, not the
    /// program.
    pub fn for_each_file(&self, dir: &Path, mut f: impl FnMut(&Path, &[u8])) {
        let state = self.lock();
        let below = state
            .nodes
            .range::<Path, _>((Bound::Excluded(dir), Bound::Unbounded))
            .take_while(|(path, _)| path.starts_with(dir));
        for (path, node) in below {
            if let Kind::File(data) = &node.kind {
                f(path, data);
            }
        }
    }

    /// Total bytes of the regular files under `dir`.
    #[must_use]
    pub fn bytes_under(&self, dir: &Path) -> u64 {
        let mut total = 0;
        self.for_each_file(dir, |_, data| total += data.len() as u64);
        total
    }
}

impl Vfs for MemVfs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let mut state = self.lock();
        let data = match state.nodes.get(path) {
            Some(Node {
                kind: Kind::File(data),
                ..
            }) => data.clone(),
            _ => return Err(not_found(path)),
        };
        if path.extension().is_some_and(|ext| ext == "ctr") {
            state.counts.containers_read += 1;
        }
        Ok(data)
    }

    fn write(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        let mut state = self.lock();
        if !path.parent().is_some_and(|parent| state.is_dir(parent)) || state.is_dir(path) {
            return Err(not_found(path));
        }
        state.counts.files_written += 1;
        state.counts.bytes_written += data.len() as u64;
        let node = state.stamp(Kind::File(data.to_vec()), 0o644);
        state.nodes.insert(path.to_path_buf(), node);
        Ok(())
    }

    fn sync_file(&self, path: &Path) -> io::Result<()> {
        let mut state = self.lock();
        if !state.nodes.contains_key(path) {
            return Err(not_found(path));
        }
        state.counts.fsyncs += 1;
        Ok(())
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let mut state = self.lock();
        let node = state.nodes.remove(from).ok_or_else(|| not_found(from))?;
        for old in state.descendants(from) {
            let moved = state.nodes.remove(&old).expect("listed under the lock");
            let rest = old.strip_prefix(from).expect("descendant of `from`");
            state.nodes.insert(to.join(rest), moved);
        }
        state.nodes.insert(to.to_path_buf(), node);
        Ok(())
    }

    fn sync_dir(&self, _path: &Path) -> io::Result<()> {
        // Like `RealVfs`, a directory that cannot be opened is not an error.
        self.lock().counts.fsyncs += 1;
        Ok(())
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        let mut state = self.lock();
        if state.is_dir(path) {
            return Err(io::Error::other(format!(
                "{} is a directory",
                path.display()
            )));
        }
        state
            .nodes
            .remove(path)
            .map(drop)
            .ok_or_else(|| not_found(path))
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        let mut state = self.lock();
        for dir in path.ancestors() {
            if state.is_dir(dir) {
                break;
            }
            if state.nodes.contains_key(dir) {
                return Err(io::Error::other(format!(
                    "{} is not a directory",
                    dir.display()
                )));
            }
            let node = state.stamp(Kind::Dir, 0o755);
            state.nodes.insert(dir.to_path_buf(), node);
        }
        Ok(())
    }

    fn read_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>> {
        let state = self.lock();
        if !state.is_dir(path) {
            return Err(not_found(path));
        }
        let mut children = state.descendants(path);
        children.retain(|child| child.parent() == Some(path));
        Ok(children)
    }

    fn remove_dir_all(&self, path: &Path) -> io::Result<()> {
        let mut state = self.lock();
        if !state.is_dir(path) {
            return Err(not_found(path));
        }
        for entry in state.descendants(path) {
            state.nodes.remove(&entry);
        }
        state.nodes.remove(path);
        Ok(())
    }

    fn exists(&self, path: &Path) -> bool {
        self.lock().nodes.contains_key(path)
    }

    fn symlink_metadata(&self, path: &Path) -> io::Result<VfsMetadata> {
        let state = self.lock();
        let node = state.nodes.get(path).ok_or_else(|| not_found(path))?;
        let (kind, len) = match &node.kind {
            Kind::File(data) => (VfsEntryKind::File, data.len() as u64),
            Kind::Dir => (VfsEntryKind::Dir, 0),
            Kind::Symlink(_) => (VfsEntryKind::Symlink, 0),
        };
        Ok(VfsMetadata {
            kind,
            len,
            mode: node.mode,
            mtime_secs: node.mtime.0,
            mtime_nanos: node.mtime.1,
        })
    }

    fn read_link(&self, path: &Path) -> io::Result<PathBuf> {
        match self.lock().nodes.get(path) {
            Some(Node {
                kind: Kind::Symlink(target),
                ..
            }) => Ok(target.clone()),
            _ => Err(not_found(path)),
        }
    }

    fn symlink(&self, target: &Path, link: &Path) -> io::Result<()> {
        let mut state = self.lock();
        if state.nodes.contains_key(link) {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                format!("{} exists", link.display()),
            ));
        }
        let node = state.stamp(Kind::Symlink(target.to_path_buf()), 0o777);
        state.nodes.insert(link.to_path_buf(), node);
        Ok(())
    }

    fn set_mode(&self, path: &Path, mode: u32) -> io::Result<()> {
        self.lock().node_mut(path)?.mode = mode;
        Ok(())
    }

    fn set_mtime(&self, path: &Path, secs: i64, nanos: u32) -> io::Result<()> {
        self.lock().node_mut(path)?.mtime = (secs, nanos);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn behaves_like_a_filesystem_and_counts() {
        let vfs = MemVfs::new();
        let root = Path::new("/r");
        assert!(vfs.write(&root.join("f"), b"x").is_err(), "no parent yet");
        vfs.create_dir_all(&root.join("a/b")).unwrap();
        vfs.write(&root.join("a/b/two.ctr"), b"22").unwrap();
        vfs.write(&root.join("a/one"), b"1").unwrap();
        vfs.write(&root.join("a!"), b"!!").unwrap();
        vfs.sync_file(&root.join("a/one")).unwrap();
        vfs.sync_dir(&root.join("a")).unwrap();

        assert_eq!(
            vfs.read_dir(&root.join("a")).unwrap(),
            vec![root.join("a/b"), root.join("a/one")]
        );
        assert_eq!(vfs.read(&root.join("a/b/two.ctr")).unwrap(), b"22");
        assert_eq!(vfs.bytes_under(&root.join("a")), 3);

        vfs.rename(&root.join("a"), &root.join("z")).unwrap();
        assert!(!vfs.exists(&root.join("a/one")));
        assert_eq!(vfs.read(&root.join("z/b/two.ctr")).unwrap(), b"22");
        assert!(
            vfs.exists(&root.join("a!")),
            "sibling untouched by the move"
        );
        vfs.remove_dir_all(&root.join("z")).unwrap();
        assert!(vfs.read(&root.join("z/one")).is_err());

        let counts = vfs.counts();
        assert_eq!((counts.files_written, counts.bytes_written), (3, 5));
        assert_eq!((counts.fsyncs, counts.containers_read), (2, 2));
    }
}
