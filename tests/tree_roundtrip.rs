//! Tree backup/restore round trips against real on-disk trees.
//!
//! Covers: byte- and metadata-identical round trips (permission bits,
//! mtimes, symlink targets, empty files and directories, odd-but-valid
//! names), seeded random trees, exclude pruning, provably-partial subtree
//! restore (`container_reads` proportionality), error resilience on both
//! the backup side (unreadable source) and the restore side (failing
//! destination writes), and type errors for non-tree versions.

use std::io;
use std::path::{Path, PathBuf};

use hidestore::core::{HiDeStore, HiDeStoreConfig};
use hidestore::failpoint::{RealVfs, Vfs, VfsEntryKind};
use hidestore::storage::{MemoryContainerStore, VersionId};
use hidestore::tree::{
    backup_tree, restore_tree, ExcludeSet, TreeBackupOptions, TreeError, TreeRestoreOptions,
};

/// A unique scratch directory, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("hds-tree-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
    }

    fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn small_system() -> HiDeStore<MemoryContainerStore> {
    HiDeStore::new(
        HiDeStoreConfig {
            avg_chunk_size: 1024,
            container_capacity: 16 * 1024,
            ..HiDeStoreConfig::default()
        },
        MemoryContainerStore::new(),
    )
}

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

/// Recursively compares two trees: same entries, kinds, bytes, symlink
/// targets, permission bits, and mtimes (symlinks compare target only).
fn assert_trees_equal(a: &Path, b: &Path) {
    let vfs = RealVfs;
    let ma = vfs.symlink_metadata(a).unwrap();
    let mb = vfs.symlink_metadata(b).unwrap();
    assert_eq!(ma.kind, mb.kind, "kind mismatch: {}", a.display());
    match ma.kind {
        VfsEntryKind::Symlink => {
            assert_eq!(
                vfs.read_link(a).unwrap(),
                vfs.read_link(b).unwrap(),
                "symlink target mismatch: {}",
                a.display()
            );
            return;
        }
        VfsEntryKind::File => {
            assert_eq!(
                vfs.read(a).unwrap(),
                vfs.read(b).unwrap(),
                "content mismatch: {}",
                a.display()
            );
        }
        VfsEntryKind::Dir => {}
        VfsEntryKind::Other => panic!("unexpected kind at {}", a.display()),
    }
    assert_eq!(ma.mode, mb.mode, "mode mismatch: {}", a.display());
    assert_eq!(
        (ma.mtime_secs, ma.mtime_nanos),
        (mb.mtime_secs, mb.mtime_nanos),
        "mtime mismatch: {}",
        a.display()
    );
    if ma.kind == VfsEntryKind::Dir {
        let ca = vfs.read_dir(a).unwrap();
        let cb = vfs.read_dir(b).unwrap();
        let na: Vec<_> = ca.iter().filter_map(|p| p.file_name()).collect();
        let nb: Vec<_> = cb.iter().filter_map(|p| p.file_name()).collect();
        assert_eq!(na, nb, "children mismatch: {}", a.display());
        for (pa, pb) in ca.iter().zip(cb.iter()) {
            assert_trees_equal(pa, pb);
        }
    }
}

fn write_file(path: &Path, data: &[u8]) {
    std::fs::create_dir_all(path.parent().unwrap()).unwrap();
    std::fs::write(path, data).unwrap();
}

/// Pins every entry of a tree to deterministic modes and mtimes so the
/// metadata round trip is exact and meaningful. Directories are stamped
/// children-first so the stamping itself does not dirty parent mtimes.
fn stamp_metadata(root: &Path) {
    let vfs = RealVfs;
    fn walk(vfs: &RealVfs, path: &Path, depth: u64, dirs: &mut Vec<PathBuf>) {
        let meta = vfs.symlink_metadata(path).unwrap();
        match meta.kind {
            VfsEntryKind::Dir => {
                for child in vfs.read_dir(path).unwrap() {
                    walk(vfs, &child, depth + 1, dirs);
                }
                dirs.push(path.to_path_buf());
            }
            VfsEntryKind::File => {
                let mode = if meta.len.is_multiple_of(2) {
                    0o640
                } else {
                    0o755
                };
                vfs.set_mode(path, mode).unwrap();
                vfs.set_mtime(
                    path,
                    1_600_000_000 + depth as i64,
                    123_000_000 + meta.len as u32,
                )
                .unwrap();
            }
            _ => {}
        }
    }
    let mut dirs = Vec::new();
    walk(&vfs, root, 0, &mut dirs);
    for (i, dir) in dirs.iter().enumerate() {
        vfs.set_mode(dir, 0o750).unwrap();
        vfs.set_mtime(dir, 1_500_000_000 + i as i64, 42).unwrap();
    }
}

/// Builds a fixed tree exercising every supported entry shape.
fn build_fixture(root: &Path) {
    write_file(&root.join("README"), b"top-level file\n");
    write_file(&root.join("src/main.rs"), &noise(5000, 1));
    write_file(&root.join("src/lib.rs"), &noise(3000, 2));
    write_file(&root.join("src/empty.rs"), b"");
    write_file(&root.join("a b/odd name.txt"), b"spaces are fine");
    write_file(&root.join("a b/\u{e9}tude"), b"unicode name");
    // Sibling ordering trap: '+' < '/' bytewise, but the walk descends.
    write_file(&root.join("a/inner"), b"child of a");
    write_file(&root.join("a+x"), b"sibling after a's subtree");
    std::fs::create_dir_all(root.join("empty-dir")).unwrap();
    #[cfg(unix)]
    {
        std::os::unix::fs::symlink("src/main.rs", root.join("link-rel")).unwrap();
        std::os::unix::fs::symlink("/nonexistent/target", root.join("link-dangling")).unwrap();
    }
    stamp_metadata(root);
}

#[test]
fn fixture_tree_round_trips_bytes_and_metadata() {
    let scratch = Scratch::new("fixture");
    let src = scratch.path("src");
    build_fixture(&src);

    let mut system = small_system();
    let vfs = RealVfs;
    let report = backup_tree(&mut system, &vfs, &src, &TreeBackupOptions::default()).unwrap();
    assert!(report.is_complete(), "skipped: {:?}", report.skipped);
    assert_eq!(report.files, 8);
    assert!(report.dirs >= 5); // root, src, "a b", a, empty-dir
    #[cfg(unix)]
    assert_eq!(report.symlinks, 2);

    let dest = scratch.path("dest");
    let restored = restore_tree(
        &system,
        &vfs,
        report.stats.version,
        &dest,
        &TreeRestoreOptions::default(),
    )
    .unwrap();
    assert!(restored.is_complete(), "skipped: {:?}", restored.skipped);
    assert_eq!(restored.files, report.files);
    assert_eq!(restored.dirs, report.dirs);
    assert_eq!(restored.symlinks, report.symlinks);
    assert_eq!(restored.bytes_restored, report.content_bytes);
    assert_trees_equal(&src, &dest);
}

/// Seeded random trees: nested dirs, empty files/dirs, symlinks, odd names.
fn build_random_tree(root: &Path, seed: u64) {
    let names = [
        "alpha",
        "b",
        "c.txt",
        "d e",
        "UPPER",
        "z-9",
        "_u",
        "...",
        "x+y",
        "\u{3b1}\u{3b2}",
    ];
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    fn populate(dir: &Path, depth: u32, names: &[&str], next: &mut impl FnMut() -> u64) {
        std::fs::create_dir_all(dir).unwrap();
        let children = 1 + (next() % 4) as usize;
        for i in 0..children {
            let name = format!("{}{i}", names[(next() % names.len() as u64) as usize]);
            let path = dir.join(&name);
            match next() % 5 {
                0 if depth < 3 => populate(&path, depth + 1, names, next),
                1 => std::fs::create_dir_all(&path).unwrap(), // empty dir
                2 => write_file(&path, b""),                  // empty file
                #[cfg(unix)]
                3 => std::os::unix::fs::symlink("../somewhere", &path).unwrap(),
                _ => {
                    let len = (next() % 8192) as usize;
                    let body = noise(len, next());
                    write_file(&path, &body);
                }
            }
        }
    }
    populate(root, 0, &names, &mut next);
    stamp_metadata(root);
}

#[test]
fn seeded_random_trees_round_trip() {
    for seed in [7, 99, 1234, 777_777] {
        let scratch = Scratch::new(&format!("rand{seed}"));
        let src = scratch.path("src");
        build_random_tree(&src, seed);

        let mut system = small_system();
        let vfs = RealVfs;
        let report = backup_tree(&mut system, &vfs, &src, &TreeBackupOptions::default()).unwrap();
        assert!(report.is_complete(), "seed {seed}: {:?}", report.skipped);

        let dest = scratch.path("dest");
        let restored = restore_tree(
            &system,
            &vfs,
            report.stats.version,
            &dest,
            &TreeRestoreOptions::default(),
        )
        .unwrap();
        assert!(
            restored.is_complete(),
            "seed {seed}: {:?}",
            restored.skipped
        );
        assert_trees_equal(&src, &dest);
    }
}

#[test]
fn subtree_restore_reads_fewer_containers_and_lands_at_dest() {
    let scratch = Scratch::new("subtree");
    let src = scratch.path("src");
    // A lot of incompressible data outside the subtree of interest.
    for i in 0..40 {
        write_file(&src.join(format!("big/file{i:02}")), &noise(4096, 1000 + i));
    }
    write_file(&src.join("small/needle.txt"), b"just this one\n");
    stamp_metadata(&src);

    let mut system = small_system();
    let vfs = RealVfs;
    let report = backup_tree(&mut system, &vfs, &src, &TreeBackupOptions::default()).unwrap();
    assert!(report.is_complete());
    let version = report.stats.version;

    let full_dest = scratch.path("full");
    let full = restore_tree(
        &system,
        &vfs,
        version,
        &full_dest,
        &TreeRestoreOptions::default(),
    )
    .unwrap();
    assert!(full.is_complete());
    assert_trees_equal(&src, &full_dest);

    let sub_dest = scratch.path("sub");
    let sub = restore_tree(
        &system,
        &vfs,
        version,
        &sub_dest,
        &TreeRestoreOptions {
            subtree: Some("/small".to_string()),
            ..TreeRestoreOptions::default()
        },
    )
    .unwrap();
    assert!(sub.is_complete());
    assert_eq!(sub.files, 1);
    assert_trees_equal(&src.join("small"), &sub_dest);
    assert!(
        sub.container_reads < full.container_reads,
        "subtree restore should be partial: {} < {}",
        sub.container_reads,
        full.container_reads
    );

    // A single-file subtree lands the file directly at the destination.
    let file_dest = scratch.path("one-file");
    let one = restore_tree(
        &system,
        &vfs,
        version,
        &file_dest,
        &TreeRestoreOptions {
            subtree: Some("/small/needle.txt".to_string()),
            ..TreeRestoreOptions::default()
        },
    )
    .unwrap();
    assert!(one.is_complete());
    assert_eq!(one.files, 1);
    assert_eq!(std::fs::read(&file_dest).unwrap(), b"just this one\n");
}

#[test]
fn excludes_prune_files_and_subtrees() {
    let scratch = Scratch::new("exclude");
    let src = scratch.path("src");
    write_file(&src.join("keep.txt"), b"keep");
    write_file(&src.join("debug.log"), b"drop");
    write_file(&src.join("deep/also.log"), b"drop");
    write_file(&src.join("target/artifact.bin"), &noise(2048, 5));
    write_file(&src.join("deep/keep2.txt"), b"keep too");

    let mut system = small_system();
    let vfs = RealVfs;
    let options = TreeBackupOptions {
        excludes: ExcludeSet::new(["*.log", "/target"]).unwrap(),
    };
    let report = backup_tree(&mut system, &vfs, &src, &options).unwrap();
    assert!(report.is_complete());
    assert_eq!(report.excluded, 3); // two logs + the target dir (whole subtree)
    assert_eq!(report.files, 2);

    let dest = scratch.path("dest");
    restore_tree(
        &system,
        &vfs,
        report.stats.version,
        &dest,
        &TreeRestoreOptions::default(),
    )
    .unwrap();
    assert!(dest.join("keep.txt").exists());
    assert!(dest.join("deep/keep2.txt").exists());
    assert!(!dest.join("debug.log").exists());
    assert!(!dest.join("deep/also.log").exists());
    assert!(!dest.join("target").exists());
}

/// A [`Vfs`] that fails reads or writes on paths containing a marker —
/// the test stand-in for an unreadable file or a full/broken destination
/// (root can read anything, so permission bits cannot model this).
#[derive(Clone, Debug)]
struct DenyVfs {
    inner: RealVfs,
    marker: &'static str,
    deny_reads: bool,
    deny_writes: bool,
}

impl DenyVfs {
    fn denied(&self, path: &Path) -> bool {
        path.to_string_lossy().contains(self.marker)
    }

    fn fail<T>(&self) -> io::Result<T> {
        Err(io::Error::other("injected failure"))
    }
}

impl Vfs for DenyVfs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        if self.deny_reads && self.denied(path) {
            return self.fail();
        }
        self.inner.read(path)
    }
    fn write(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        if self.deny_writes && self.denied(path) {
            return self.fail();
        }
        self.inner.write(path, data)
    }
    fn sync_file(&self, path: &Path) -> io::Result<()> {
        self.inner.sync_file(path)
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.inner.rename(from, to)
    }
    fn sync_dir(&self, path: &Path) -> io::Result<()> {
        self.inner.sync_dir(path)
    }
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.inner.remove_file(path)
    }
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.inner.create_dir_all(path)
    }
    fn read_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>> {
        self.inner.read_dir(path)
    }
    fn remove_dir_all(&self, path: &Path) -> io::Result<()> {
        self.inner.remove_dir_all(path)
    }
    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }
    fn symlink_metadata(&self, path: &Path) -> io::Result<hidestore::failpoint::VfsMetadata> {
        self.inner.symlink_metadata(path)
    }
    fn read_link(&self, path: &Path) -> io::Result<PathBuf> {
        self.inner.read_link(path)
    }
    fn symlink(&self, target: &Path, link: &Path) -> io::Result<()> {
        self.inner.symlink(target, link)
    }
    fn set_mode(&self, path: &Path, mode: u32) -> io::Result<()> {
        self.inner.set_mode(path, mode)
    }
    fn set_mtime(&self, path: &Path, secs: i64, nanos: u32) -> io::Result<()> {
        self.inner.set_mtime(path, secs, nanos)
    }
}

#[test]
fn unreadable_source_file_is_skipped_not_fatal() {
    let scratch = Scratch::new("deny-read");
    let src = scratch.path("src");
    write_file(&src.join("good1.txt"), b"fine");
    write_file(&src.join("secret-unreadable.txt"), b"cannot read me");
    write_file(&src.join("good2.txt"), &noise(3000, 9));
    stamp_metadata(&src);

    let mut system = small_system();
    let deny = DenyVfs {
        inner: RealVfs,
        marker: "secret-unreadable",
        deny_reads: true,
        deny_writes: false,
    };
    let report = backup_tree(&mut system, &deny, &src, &TreeBackupOptions::default()).unwrap();
    assert!(!report.is_complete());
    assert_eq!(report.skipped.len(), 1);
    assert_eq!(report.skipped[0].apath, "/secret-unreadable.txt");
    assert_eq!(report.files, 2);

    // Every other file restores byte- and metadata-identical.
    let dest = scratch.path("dest");
    let restored = restore_tree(
        &system,
        &RealVfs,
        report.stats.version,
        &dest,
        &TreeRestoreOptions::default(),
    )
    .unwrap();
    assert!(restored.is_complete());
    assert!(!dest.join("secret-unreadable.txt").exists());
    assert_trees_equal(&src.join("good1.txt"), &dest.join("good1.txt"));
    assert_trees_equal(&src.join("good2.txt"), &dest.join("good2.txt"));
}

#[test]
fn failing_destination_write_is_skipped_not_fatal() {
    let scratch = Scratch::new("deny-write");
    let src = scratch.path("src");
    write_file(&src.join("ok-a.txt"), b"alpha");
    write_file(&src.join("cursed.txt"), b"will not land");
    write_file(&src.join("ok-b.txt"), &noise(2500, 11));
    stamp_metadata(&src);

    let mut system = small_system();
    let report = backup_tree(&mut system, &RealVfs, &src, &TreeBackupOptions::default()).unwrap();
    assert!(report.is_complete());

    let dest = scratch.path("dest");
    let deny = DenyVfs {
        inner: RealVfs,
        marker: "cursed",
        deny_reads: false,
        deny_writes: true,
    };
    let restored = restore_tree(
        &system,
        &deny,
        report.stats.version,
        &dest,
        &TreeRestoreOptions::default(),
    )
    .unwrap();
    assert!(!restored.is_complete());
    assert_eq!(restored.skipped.len(), 1);
    assert_eq!(restored.skipped[0].apath, "/cursed.txt");
    assert_eq!(restored.files, 2);
    assert!(!dest.join("cursed.txt").exists());
    assert!(!dest.join("cursed.txt.hds-tmp").exists(), "staging residue");
    assert_trees_equal(&src.join("ok-a.txt"), &dest.join("ok-a.txt"));
    assert_trees_equal(&src.join("ok-b.txt"), &dest.join("ok-b.txt"));
}

#[test]
fn non_tree_version_and_bad_subtree_are_typed_errors() {
    let scratch = Scratch::new("errors");
    let src = scratch.path("src");
    write_file(&src.join("f"), b"tree data");

    let mut system = small_system();
    let vfs = RealVfs;
    // A plain (non-tree) backup is rejected by restore_tree.
    system.backup(&noise(9000, 3)).unwrap();
    let err = restore_tree(
        &system,
        &vfs,
        VersionId::new(1),
        &scratch.path("d1"),
        &TreeRestoreOptions::default(),
    )
    .unwrap_err();
    assert!(matches!(err, TreeError::NotATreeBackup(_)), "{err}");

    let report = backup_tree(&mut system, &vfs, &src, &TreeBackupOptions::default()).unwrap();
    let err = restore_tree(
        &system,
        &vfs,
        report.stats.version,
        &scratch.path("d2"),
        &TreeRestoreOptions {
            subtree: Some("/no/such/entry".to_string()),
            ..TreeRestoreOptions::default()
        },
    )
    .unwrap_err();
    assert!(matches!(err, TreeError::SubtreeNotFound(_)), "{err}");

    // Backing up a file (not a directory) is rejected.
    let err = backup_tree(
        &mut system,
        &vfs,
        &src.join("f"),
        &TreeBackupOptions::default(),
    )
    .unwrap_err();
    assert!(matches!(err, TreeError::NotADirectory(_)), "{err}");
}
