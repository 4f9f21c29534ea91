//! The repository's bytes as a wall.
//!
//! Every on-disk format — containers, recipes, the meta file, the commit
//! journal and tree manifests — is pinned two ways:
//!
//! * **Lifecycle digests.** One scripted lifecycle runs the way the CLI
//!   would, one open + operation + save per step: 8 workload versions
//!   (kernel at history depth 1, and macos at depth 2, the paper's setting
//!   for skip-a-version data), a tree backup whose source has explicit
//!   modes and mtimes, prune, flatten and recluster. After every step the SHA-1 of the sorted list of
//!   (relative path, bytes) of the whole repository must equal the recorded
//!   constant. A change that must not move bytes leaves every constant
//!   green; a constant moves only in a change whose CHANGES entry names the
//!   step and the reason.
//! * **Compatibility.** `tests/fixtures/repository/` is a small repository
//!   committed as written, left mid-save with a committed journal. Every
//!   later build must roll it forward, audit it clean and restore every
//!   version byte for byte. A format change either keeps reading these
//!   bytes or says in CHANGES why the fixture was rewritten (by
//!   `write_fixture`, run with `--ignored`).

use std::fs;
use std::num::NonZeroU32;
use std::path::{Path, PathBuf};

use hidestore::core::{HiDeStore, HiDeStoreConfig, JournalRecovery};
use hidestore::failpoint::{FaultKind, FaultVfs, OpKind, Plan, RealVfs, Vfs, VfsEntryKind};
use hidestore::fsck::SystemAuditor;
use hidestore::hash::Sha1;
use hidestore::restore::Faa;
use hidestore::storage::{ContainerStore, FileContainerStore, VersionId};
use hidestore::tree::{backup_tree, restore_tree, TreeBackupOptions, TreeRestoreOptions};
use hidestore::workloads::{Profile, VersionStream};

/// A unique scratch directory, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("hds-repo-golden-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
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

/// Every regular file under `dir`, as `/`-separated relative paths.
fn files_under(dir: &Path, rel: &str, out: &mut Vec<String>) {
    for entry in fs::read_dir(dir).unwrap() {
        let entry = entry.unwrap();
        let name = entry.file_name().to_string_lossy().into_owned();
        let rel = if rel.is_empty() {
            name
        } else {
            format!("{rel}/{name}")
        };
        if entry.file_type().unwrap().is_dir() {
            files_under(&entry.path(), &rel, out);
        } else {
            out.push(rel);
        }
    }
}

/// SHA-1 over the sorted (relative path, bytes) list of every file in the
/// repository at `dir`, as hex.
fn repo_digest(dir: &Path) -> String {
    let mut files = Vec::new();
    files_under(dir, "", &mut files);
    files.sort();
    let mut sha = Sha1::new();
    for rel in &files {
        let bytes = fs::read(dir.join(rel)).unwrap();
        sha.update(rel.as_bytes());
        sha.update(&[0]);
        sha.update(&(bytes.len() as u64).to_le_bytes());
        sha.update(&bytes);
    }
    sha.finalize().iter().map(|b| format!("{b:02x}")).collect()
}

/// A small source tree whose every mode and mtime is set explicitly, so a
/// tree backup's manifest does not depend on the umask or the clock.
fn tree_source(root: &Path) {
    let vfs = RealVfs;
    let files: [(&str, Vec<u8>); 4] = [
        ("README", b"a tree backup pinned by its bytes\n".to_vec()),
        ("data/blob.bin", noise(1_500, 41)),
        ("src/lib/util.rs", noise(700, 42)),
        ("src/main.rs", noise(900, 43)),
    ];
    for dir in ["", "data", "empty", "src", "src/lib"] {
        vfs.create_dir_all(&root.join(dir)).unwrap();
    }
    for (i, (rel, bytes)) in (0u32..).zip(&files) {
        let path = root.join(rel);
        vfs.write(&path, bytes).unwrap();
        vfs.set_mode(&path, 0o640 + (i % 2) * 4).unwrap();
        vfs.set_mtime(&path, 1_600_000_000 + i64::from(i), 250 * i)
            .unwrap();
    }
    // Directories last, deepest first: writing into one moves its mtime.
    for (i, dir) in (0u32..).zip(["src/lib", "src", "empty", "data", ""]) {
        let path = root.join(dir);
        vfs.set_mode(&path, 0o755 - (i % 2) * 0o50).unwrap();
        vfs.set_mtime(&path, 1_500_000_000 + i64::from(i), 0)
            .unwrap();
    }
}

/// One CLI command: open the repository at `dir` from its config, run
/// `op`, save.
fn step(dir: &Path, op: impl FnOnce(&mut HiDeStore<FileContainerStore>)) {
    let config = HiDeStoreConfig::load_from(dir).unwrap();
    let mut hds = HiDeStore::open_repository(config, dir).unwrap();
    op(&mut hds);
    hds.save_repository(dir).unwrap();
}

/// Runs the scripted lifecycle at `history_depth` over `profile`'s versions
/// and compares the repository's digest after every step with `golden`.
fn lifecycle(history_depth: usize, profile: Profile, golden: &[(&str, &str)]) {
    let scratch = Scratch::new(&format!("hidestore-{history_depth}"));
    let (dir, source) = (scratch.0.join("repo"), scratch.0.join("source"));
    let mut seen: Vec<(String, String)> = Vec::new();
    let mut record = |step: String| seen.push((step, repo_digest(&dir)));

    fs::create_dir_all(&dir).unwrap();
    HiDeStoreConfig {
        avg_chunk_size: 1024,
        container_capacity: 16 * 1024,
        history_depth,
        ..HiDeStoreConfig::default()
    }
    .save_to(&dir)
    .unwrap();
    step(&dir, |_| {});
    record("init".into());

    let spec = profile.spec().scaled(96 << 10, 8);
    for (v, data) in (1..).zip(VersionStream::new(spec, 34).all_versions()) {
        step(&dir, |hds| {
            hds.backup(&data).unwrap();
        });
        record(format!("backup V{v}"));
    }

    tree_source(&source);
    step(&dir, |hds| {
        let report = backup_tree(hds, &RealVfs, &source, &TreeBackupOptions::default()).unwrap();
        assert!(report.is_complete());
    });
    record("backup-tree V9".into());

    step(&dir, |hds| {
        hds.prune_keep_last(NonZeroU32::new(6).unwrap()).unwrap();
    });
    record("prune 6".into());
    step(&dir, |hds| {
        hds.flatten_recipes();
    });
    record("flatten".into());
    step(&dir, |hds| {
        hds.recluster_archival().unwrap();
    });
    record("recluster".into());

    let expected: Vec<(String, String)> = golden
        .iter()
        .map(|&(s, d)| (s.to_string(), d.to_string()))
        .collect();
    if seen != expected {
        let table: String = seen
            .iter()
            .zip(golden.iter().map(Some).chain(std::iter::repeat(None)))
            .map(|((step, digest), want)| {
                let mark = if want == Some(&(step.as_str(), digest.as_str())) {
                    "  "
                } else {
                    "!!"
                };
                format!("{mark} (\"{step}\", \"{digest}\"),\n")
            })
            .collect();
        panic!("depth {history_depth}: repository bytes moved (!! = step differs from the record):\n{table}");
    }
}

const HIDESTORE: &[(&str, &str)] = &[
    ("init", "b8cb05dee44932947c6ef68249d0eaa5357ed486"),
    ("backup V1", "5ca626f8498b79250769215da9c5f2ebc39b2639"),
    ("backup V2", "87d75ee33f11a950aafaf1445c8847f0e9652567"),
    ("backup V3", "d29022bee4401d7188ad7e075f63a09b50cd5154"),
    ("backup V4", "95a2ad754bde53d502a055720df572fb303ebacc"),
    ("backup V5", "3769b9bf18d2d413ee670bb7faa50e70b8c79e9d"),
    ("backup V6", "6859efb8041490ad026a1fc33b687a0d8cbe6933"),
    ("backup V7", "6897d7038cedd4fa516d63351632e716dd393736"),
    ("backup V8", "d4c1ee70b83e6c70cb9ec1fd3b68f30b14543dbc"),
    ("backup-tree V9", "fb4477219fa47d49766d23c2d84b9f1968ea3548"),
    ("prune 6", "0c19415cdc9600fc979f19260906c56140614181"),
    ("flatten", "d16c30f73b8170ab439e7a4d71398e0bb078382e"),
    ("recluster", "d3b6f12d6696d57169f4ba8b467d43bd84ecb5b1"),
];

#[test]
fn hidestore_lifecycle_writes_the_recorded_bytes() {
    lifecycle(1, Profile::Kernel, HIDESTORE);
}

const HIDESTORE_DEPTH_2: &[(&str, &str)] = &[
    ("init", "fdb2ef82773bcbe2482cd826d2c02e670c862514"),
    ("backup V1", "f715009aebcb4004de175013839af95838f1ec08"),
    ("backup V2", "148b057dbba12625f3ab49dba7164d8b54952ae6"),
    ("backup V3", "17484c3560d8436f767e31796235901c213080fb"),
    ("backup V4", "a072249a28efb6d042d2a7a58fdc808f374406e9"),
    ("backup V5", "a0b94b160ba2f57a09ec8187d53fa8fbdffde943"),
    ("backup V6", "5c38e808c83f652f838da9f17a37a0d651453c78"),
    ("backup V7", "021aec4bb49d7d876c8b28e77c8b96c4153c6da0"),
    ("backup V8", "aa18eca22fe771db4cbef8c54b148d922d20b1e1"),
    ("backup-tree V9", "5a6896b4ecf37afafcbfc40b60980b32228da7ca"),
    ("prune 6", "be52c37f0d45c89c4eba6e4d4271fe350ca7a645"),
    ("flatten", "fca57d2d2a2fefc19fbca7c9105e65bd249e7b20"),
    ("recluster", "ab0e54286c5717a409df017c1ec510c12e26b3d2"),
];

#[test]
fn hidestore_depth_2_lifecycle_writes_the_recorded_bytes() {
    lifecycle(2, Profile::Macos, HIDESTORE_DEPTH_2);
}

/// The committed compatibility repository.
fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/repository")
}

fn fixture_config() -> HiDeStoreConfig {
    HiDeStoreConfig {
        avg_chunk_size: 256,
        container_capacity: 4 * 1024,
        ..HiDeStoreConfig::default()
    }
}

/// The byte streams of the fixture's versions 1, 2 and 4; version 3 is a
/// tree backup of [`tree_source`].
fn fixture_streams() -> [Vec<u8>; 3] {
    let v1 = noise(3_000, 1);
    let mut v2 = v1.clone();
    v2[1_000..1_300].copy_from_slice(&noise(300, 2));
    let mut v4 = v2.clone();
    v4[2_200..2_500].copy_from_slice(&noise(300, 4));
    [v1, v2, v4]
}

/// Writes the fixture into `dir` through `vfs`: versions 1–3 saved, then
/// version 4 backed up and saved. Returns the final save's outcome — an
/// armed `vfs` fails it after its commit record is durable.
fn write_fixture_with<V: Vfs>(dir: &Path, source: &Path, vfs: V) -> bool {
    fs::create_dir_all(dir).unwrap();
    fixture_config().save_to(dir).unwrap();
    let [v1, v2, v4] = fixture_streams();
    let (mut hds, _) = HiDeStore::open_repository_with(fixture_config(), dir, vfs).unwrap();
    for data in [&v1, &v2] {
        hds.backup(data).unwrap();
        hds.save_repository(dir).unwrap();
    }
    backup_tree(&mut hds, &RealVfs, source, &TreeBackupOptions::default()).unwrap();
    hds.save_repository(dir).unwrap();
    hds.backup(&v4).unwrap();
    hds.save_repository(dir).is_ok()
}

/// Rewrites `tests/fixtures/repository/`: the fixture's lifecycle, crashed
/// at the first publish rename of the last save, so the committed
/// repository carries a pending journal that every open must roll forward.
#[test]
#[ignore = "rewrites the committed fixture; run only for a format change named in CHANGES"]
fn write_fixture() {
    let scratch = Scratch::new("write-fixture");
    let source = scratch.0.join("source");
    tree_source(&source);

    let dry = FaultVfs::new(Plan::counting());
    assert!(write_fixture_with(
        &scratch.0.join("dry"),
        &source,
        dry.clone()
    ));
    let trace = dry.plan().trace();
    let commit = trace
        .iter()
        .rposition(|op| op.kind == OpKind::Write && op.path.ends_with("staging/COMMIT"))
        .expect("the last save writes a commit record");
    let publish = trace[commit..]
        .iter()
        .find(|op| op.kind == OpKind::Rename)
        .expect("the last save publishes")
        .index;

    let dir = fixture_dir();
    let _ = fs::remove_dir_all(&dir);
    let armed = FaultVfs::new(Plan::armed(publish, FaultKind::Error));
    assert!(!write_fixture_with(&dir, &source, armed));
    assert!(dir.join("staging/COMMIT").exists());
}

/// Compares the restored tree at `got` with the source at `want`: entries,
/// bytes, permission bits and mtimes.
fn assert_same_tree(want: &Path, got: &Path) {
    let vfs = RealVfs;
    let (mw, mg) = (
        vfs.symlink_metadata(want).unwrap(),
        vfs.symlink_metadata(got).unwrap(),
    );
    assert_eq!(
        (mw.kind, mw.mode, mw.mtime_secs, mw.mtime_nanos),
        (mg.kind, mg.mode, mg.mtime_secs, mg.mtime_nanos),
        "{}",
        got.display()
    );
    if mw.kind == VfsEntryKind::Dir {
        let names = |p: &Path| -> Vec<_> {
            vfs.read_dir(p)
                .unwrap()
                .iter()
                .map(|c| c.file_name().unwrap().to_owned())
                .collect()
        };
        assert_eq!(names(want), names(got), "{}", got.display());
        for name in names(want) {
            assert_same_tree(&want.join(&name), &got.join(&name));
        }
    } else {
        assert_eq!(fs::read(want).unwrap(), fs::read(got).unwrap());
    }
}

#[test]
fn committed_fixture_rolls_forward_verifies_clean_and_restores_every_version() {
    let scratch = Scratch::new("fixture");
    let (dir, source, out) = (
        scratch.0.join("repo"),
        scratch.0.join("source"),
        scratch.0.join("out"),
    );
    let mut files = Vec::new();
    files_under(&fixture_dir(), "", &mut files);
    for rel in files {
        let to = dir.join(&rel);
        fs::create_dir_all(to.parent().unwrap()).unwrap();
        fs::copy(fixture_dir().join(&rel), to).unwrap();
    }

    let config = HiDeStoreConfig::load_from(&dir).unwrap();
    let (hds, report) = HiDeStore::open_repository_with(config, &dir, RealVfs).unwrap();
    assert_eq!(report.journal, JournalRecovery::RolledForward);
    assert!(report.quarantined.is_empty(), "{:?}", report.quarantined);
    assert!(
        hds.archival().len() > 0,
        "the fixture has archival containers"
    );
    let audit = SystemAuditor::new().audit(&hds);
    assert!(audit.is_clean(), "{:?}", audit.findings);

    assert_eq!(
        hds.versions(),
        (1..=4).map(VersionId::new).collect::<Vec<_>>()
    );
    let [v1, v2, v4] = fixture_streams();
    for (v, want) in [(1, v1), (2, v2), (4, v4)] {
        let mut got = Vec::new();
        hds.restore(VersionId::new(v), &mut Faa::new(1 << 16), &mut got)
            .unwrap();
        assert!(got == want, "V{v} restores byte for byte");
    }
    tree_source(&source);
    restore_tree(
        &hds,
        &RealVfs,
        VersionId::new(3),
        &out,
        &TreeRestoreOptions::default(),
    )
    .unwrap();
    assert_same_tree(&source, &out);
}
