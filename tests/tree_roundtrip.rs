//! Tree backup/restore round trips against real on-disk trees.
//!
//! Covers: byte- and metadata-identical round trips (permission bits,
//! mtimes, symlink targets, empty files and directories, odd-but-valid
//! names), seeded random trees, exclude pruning, provably-partial subtree
//! restore (`container_reads` proportionality), container reads no worse
//! than a stream restore of the same version and equal to what the store
//! served, error resilience on both the backup side (unreadable source) and
//! the restore side (failing destination writes and metadata, an unreadable
//! archival container), and type errors for non-tree versions.

use std::io;
use std::path::{Path, PathBuf};

use hidestore::core::{HiDeStore, HiDeStoreConfig, ACTIVE_ID_BASE, RESTORE_AREA_BYTES};
use hidestore::failpoint::{RealVfs, Vfs, VfsEntryKind};
use hidestore::restore::Faa;
use hidestore::storage::{ContainerId, ContainerStore, MemoryContainerStore, VersionId};
use hidestore::tree::manifest::{decode_stream_header, STREAM_HEADER_LEN};
use hidestore::tree::{
    backup_tree, restore_tree, EntryPayload, ExcludeSet, TreeBackupOptions, TreeError,
    TreeManifest, TreeRestoreOptions,
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

fn small_config() -> HiDeStoreConfig {
    HiDeStoreConfig {
        avg_chunk_size: 1024,
        container_capacity: 16 * 1024,
        ..HiDeStoreConfig::default()
    }
}

fn small_system() -> HiDeStore<MemoryContainerStore> {
    HiDeStore::new(small_config(), MemoryContainerStore::new())
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
    deny_set_mode: bool,
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
        if self.deny_set_mode && self.denied(path) {
            return self.fail();
        }
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
        deny_set_mode: false,
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
        deny_set_mode: false,
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
fn failing_directory_metadata_is_skipped_under_its_apath() {
    let scratch = Scratch::new("dir-meta");
    let src = scratch.path("src");
    write_file(&src.join("plain.txt"), b"lands fine");
    std::fs::create_dir_all(src.join("sealed")).unwrap();
    stamp_metadata(&src);

    let mut system = small_system();
    let report = backup_tree(&mut system, &RealVfs, &src, &TreeBackupOptions::default()).unwrap();
    assert!(report.is_complete());

    let deny = DenyVfs {
        inner: RealVfs,
        marker: "sealed",
        deny_reads: false,
        deny_writes: false,
        deny_set_mode: true,
    };
    let restored = restore_tree(
        &system,
        &deny,
        report.stats.version,
        &scratch.path("dest"),
        &TreeRestoreOptions::default(),
    )
    .unwrap();
    assert_eq!(restored.skipped.len(), 1, "{:?}", restored.skipped);
    assert_eq!(restored.skipped[0].apath, "/sealed");
    assert!(
        restored.skipped[0].reason.starts_with("directory metadata"),
        "{}",
        restored.skipped[0]
    );
    assert_eq!(restored.files, 1);
}

/// Each chunk of `version`'s stream as `(start, end, container)`, plus the
/// stream itself.
fn stream_layout<S: ContainerStore>(
    system: &HiDeStore<S>,
    version: VersionId,
) -> (Vec<(u64, u64, ContainerId)>, Vec<u8>) {
    let mut at = 0;
    let spans = system
        .restore_plan(version)
        .unwrap()
        .iter()
        .map(|e| {
            at += u64::from(e.size);
            (at - u64::from(e.size), at, e.container)
        })
        .collect();
    let mut stream = Vec::new();
    system
        .restore(version, &mut Faa::new(RESTORE_AREA_BYTES), &mut stream)
        .unwrap();
    (spans, stream)
}

#[test]
fn unreadable_archival_container_skips_only_the_files_it_holds() {
    let scratch = Scratch::new("lost-container");
    let src = scratch.path("src");
    let files = 16;
    for i in 0..files {
        write_file(&src.join(format!("f{i:02}")), &noise(4096, 200 + i));
    }
    stamp_metadata(&src);

    let repo = scratch.path("repo");
    let mut system = HiDeStore::open_repository(small_config(), &repo).unwrap();
    let report = backup_tree(&mut system, &RealVfs, &src, &TreeBackupOptions::default()).unwrap();
    assert!(report.is_complete());
    let v1 = report.stats.version;
    // V2 rewrites every other file, so V1's copies of them turn cold and
    // are demoted into archival containers on disk.
    for i in (0..files).step_by(2) {
        std::fs::write(src.join(format!("f{i:02}")), noise(4096, 300 + i)).unwrap();
    }
    stamp_metadata(&src);
    backup_tree(&mut system, &RealVfs, &src, &TreeBackupOptions::default()).unwrap();

    let (spans, stream) = stream_layout(&system, v1);
    let manifest_len = decode_stream_header(&stream).unwrap() as u64;
    let content_base = STREAM_HEADER_LEN + manifest_len;
    let manifest =
        TreeManifest::decode(&stream[STREAM_HEADER_LEN as usize..][..manifest_len as usize])
            .unwrap();
    let containers_of = |start: u64, end: u64| -> Vec<ContainerId> {
        spans
            .iter()
            .filter(|&&(s, e, _)| s < end && start < e)
            .map(|&(_, _, c)| c)
            .collect()
    };
    // The victim holds some of V1's file content but none of the header or
    // manifest, which every restore of V1 must read.
    let framing = containers_of(0, content_base);
    let victim = spans
        .iter()
        .map(|&(_, _, c)| c)
        .find(|c| c.get() < ACTIVE_ID_BASE && !framing.contains(c))
        .expect("an archival container holding only file content");
    let file_ranges: Vec<(String, u64, u64)> = manifest
        .entries
        .iter()
        .filter_map(|e| match e.payload {
            EntryPayload::File { offset, size } => Some((e.apath.clone(), offset, size)),
            _ => None,
        })
        .collect();
    let lost: Vec<&str> = file_ranges
        .iter()
        .filter(|(_, offset, size)| {
            containers_of(content_base + offset, content_base + offset + size).contains(&victim)
        })
        .map(|(apath, _, _)| apath.as_str())
        .collect();
    assert!(
        !lost.is_empty() && lost.len() < file_ranges.len(),
        "{lost:?}"
    );

    // Truncate the container behind the open instance's back.
    let path = system.archival().path_of(victim);
    let len = std::fs::metadata(&path).unwrap().len();
    std::fs::OpenOptions::new()
        .write(true)
        .open(&path)
        .unwrap()
        .set_len(len / 2)
        .unwrap();

    let dest = scratch.path("dest");
    let restored =
        restore_tree(&system, &RealVfs, v1, &dest, &TreeRestoreOptions::default()).unwrap();
    let mut skipped: Vec<&str> = restored.skipped.iter().map(|s| s.apath.as_str()).collect();
    skipped.sort_unstable();
    assert_eq!(skipped, lost);
    for skip in &restored.skipped {
        assert!(skip.reason.starts_with("content unrestorable"), "{skip}");
    }
    assert_eq!(restored.files as usize, file_ranges.len() - lost.len());
    for (apath, offset, size) in &file_ranges {
        let path = dest.join(&apath[1..]);
        if lost.contains(&apath.as_str()) {
            assert!(!path.exists(), "{apath} restored from a lost container");
        } else {
            let start = (content_base + offset) as usize;
            assert_eq!(
                std::fs::read(&path).unwrap(),
                &stream[start..start + *size as usize],
                "{apath}"
            );
        }
    }
    let residue = std::fs::read_dir(&dest)
        .unwrap()
        .filter(|e| {
            e.as_ref()
                .unwrap()
                .file_name()
                .to_string_lossy()
                .ends_with(".hds-tmp")
        })
        .count();
    assert_eq!(residue, 0, "staging residue");
}

#[test]
fn full_restore_reads_no_more_containers_than_a_stream_restore() {
    let scratch = Scratch::new("read-count");
    let src = scratch.path("src");
    for i in 0..40 {
        write_file(
            &src.join(format!("d{}/file{i:02}", i % 4)),
            &noise(4096, 600 + i),
        );
    }
    stamp_metadata(&src);

    let mut system = small_system();
    let report = backup_tree(&mut system, &RealVfs, &src, &TreeBackupOptions::default()).unwrap();
    assert!(report.is_complete());
    let version = report.stats.version;

    let stream = system
        .restore(version, &mut Faa::new(RESTORE_AREA_BYTES), &mut io::sink())
        .unwrap();
    assert!(
        stream.container_reads >= 5,
        "{} reads",
        stream.container_reads
    );
    let dest = scratch.path("dest");
    let tree = restore_tree(
        &system,
        &RealVfs,
        version,
        &dest,
        &TreeRestoreOptions::default(),
    )
    .unwrap();
    assert!(tree.is_complete(), "{:?}", tree.skipped);
    assert_trees_equal(&src, &dest);
    // Two extra passes at most: the stream header, then the manifest.
    assert!(
        tree.container_reads <= stream.container_reads + 2,
        "tree restore read {} containers, stream restore {}",
        tree.container_reads,
        stream.container_reads
    );
}

#[test]
fn reported_reads_equal_the_reads_the_archival_store_served() {
    let scratch = Scratch::new("archival-reads");
    let (old, new) = (scratch.path("old"), scratch.path("new"));
    for i in 0..20 {
        write_file(&old.join(format!("old{i:02}")), &noise(3000, 700 + i));
        write_file(&new.join(format!("new{i:02}")), &noise(3000, 800 + i));
    }
    stamp_metadata(&old);
    stamp_metadata(&new);

    let mut system = small_system();
    let options = TreeBackupOptions::default();
    let v1 = backup_tree(&mut system, &RealVfs, &old, &options).unwrap();
    // A second tree sharing no bytes demotes every chunk of the first.
    backup_tree(&mut system, &RealVfs, &new, &options).unwrap();
    let v1 = v1.stats.version;
    let (spans, _) = stream_layout(&system, v1);
    assert!(spans.iter().all(|&(_, _, c)| c.get() < ACTIVE_ID_BASE));

    let before = system.archival().stats().container_reads;
    let dest = scratch.path("dest");
    let restored =
        restore_tree(&system, &RealVfs, v1, &dest, &TreeRestoreOptions::default()).unwrap();
    assert!(restored.is_complete(), "{:?}", restored.skipped);
    assert_trees_equal(&old, &dest);
    let served = system.archival().stats().container_reads - before;
    assert!(served > 0);
    assert_eq!(restored.container_reads, served);
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
