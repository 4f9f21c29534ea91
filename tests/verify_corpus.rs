//! Verdict corpus for `hidestore verify`: one on-disk repository per damage
//! case, verified through the CLI locally and, where the damage is made
//! under a running daemon, remotely. Each case pins the exit code and the
//! set of containers the `CORRUPT: container N:` lines name.
//!
//! The expected verdicts are the ones the repository's former integrity
//! scrub gave on exactly these cases: whatever it flagged, `verify` must
//! flag (exit 1) naming the same container, and whatever it passed,
//! `verify` must pass (exit 0).

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

use hidestore::core::{HiDeStore, HiDeStoreConfig};
use hidestore::failpoint::{FaultKind, FaultVfs, OpKind};
use hidestore::server::{serve, RemoteClient, ServerConfig};
use hidestore::storage::{Container, ContainerStore, VersionId};

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

/// A unique scratch directory, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("hds-verify-corpus-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

fn config() -> HiDeStoreConfig {
    HiDeStoreConfig {
        avg_chunk_size: 1024,
        container_capacity: 16 * 1024,
        ..HiDeStoreConfig::default()
    }
}

/// Writes the repository's `config`, as `hidestore init` does.
fn init(dir: &Path) {
    fs::create_dir_all(dir).unwrap();
    config().save_to(dir).unwrap();
}

/// Four churned versions, saved: cold chunks reach the archival store and
/// every older version reads some of them.
fn churned_repo(dir: &Path) {
    init(dir);
    let mut hds = HiDeStore::open_repository(config(), dir).unwrap();
    let mut data = noise(60_000, 11);
    for round in 0..4u64 {
        hds.backup(&data).unwrap();
        let start = (round as usize * 9_000) % 50_000;
        data[start..start + 7_000].copy_from_slice(&noise(7_000, 500 + round));
    }
    hds.save_repository(dir).unwrap();
}

fn archival_file(dir: &Path, id: u32) -> PathBuf {
    dir.join("archival").join(format!("c{id}.ctr"))
}

fn lowest_archival(dir: &Path) -> u32 {
    fs::read_dir(dir.join("archival"))
        .unwrap()
        .filter_map(|e| {
            let name = e.unwrap().file_name().to_string_lossy().into_owned();
            name.strip_prefix('c')?
                .strip_suffix(".ctr")?
                .parse::<u32>()
                .ok()
        })
        .min()
        .expect("cold chunks reached the archival store")
}

/// Flips the last byte of a container file: the data section is encoded
/// last, so this corrupts one chunk payload and nothing else.
fn flip_last_byte(path: &Path) {
    let mut bytes = fs::read(path).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x01;
    fs::write(path, bytes).unwrap();
}

fn truncate_half(path: &Path) {
    let bytes = fs::read(path).unwrap();
    fs::write(path, &bytes[..bytes.len() / 2]).unwrap();
}

/// The outcome of one `hidestore verify`: exit code and the containers its
/// `CORRUPT: container N:` lines name.
#[derive(Debug, PartialEq, Eq)]
struct Verdict {
    exit: i32,
    named: BTreeSet<u32>,
}

impl Verdict {
    fn clean() -> Self {
        Verdict {
            exit: 0,
            named: BTreeSet::new(),
        }
    }

    fn corrupt(container: u32) -> Self {
        Verdict {
            exit: 1,
            named: BTreeSet::from([container]),
        }
    }
}

fn verify(args: &[&str]) -> Verdict {
    let out = Command::new(env!("CARGO_BIN_EXE_hidestore"))
        .arg("verify")
        .args(args)
        .output()
        .expect("binary launches");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let named = stderr
        .lines()
        .filter_map(|line| {
            line.strip_prefix("CORRUPT: container ")?
                .split(':')
                .next()?
                .parse()
                .ok()
        })
        .collect();
    Verdict {
        exit: out.status.code().expect("exited"),
        named,
    }
}

fn verify_local(dir: &Path) -> Verdict {
    verify(&[dir.to_str().unwrap()])
}

/// Starts a daemon on `dir`, has it open the repository, damages the
/// repository under it with `damage`, and returns the remote verdict.
fn verify_remote_after(dir: &Path, damage: impl FnOnce()) -> Verdict {
    let daemon = serve(
        dir,
        ServerConfig {
            quiet: true,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    RemoteClient::connect(daemon.addr())
        .unwrap()
        .list()
        .unwrap();
    damage();
    let verdict = verify(&["--remote", &daemon.addr().to_string()]);
    daemon.shutdown_and_join();
    verdict
}

#[test]
fn untouched_repository_passes() {
    let scratch = Scratch::new("clean");
    churned_repo(&scratch.0);
    assert_eq!(verify_local(&scratch.0), Verdict::clean());
    assert_eq!(verify_remote_after(&scratch.0, || {}), Verdict::clean());
}

#[test]
fn bit_flipped_chunk_fails_naming_its_container() {
    let scratch = Scratch::new("bitflip");
    churned_repo(&scratch.0);
    let victim = lowest_archival(&scratch.0);
    let path = archival_file(&scratch.0, victim);
    assert_eq!(
        verify_remote_after(&scratch.0, || flip_last_byte(&path)),
        Verdict::corrupt(victim)
    );
    assert_eq!(verify_local(&scratch.0), Verdict::corrupt(victim));
}

#[test]
fn truncated_container_fails_naming_it_local_and_remote() {
    let scratch = Scratch::new("truncated");
    churned_repo(&scratch.0);
    let victim = lowest_archival(&scratch.0);
    let path = archival_file(&scratch.0, victim);
    assert_eq!(
        verify_remote_after(&scratch.0, || truncate_half(&path)),
        Verdict::corrupt(victim)
    );
    assert!(path.exists(), "a daemon read verb moved the container");
    // The local open quarantines the file; the versions that read it no
    // longer restore.
    assert_eq!(verify_local(&scratch.0), Verdict::corrupt(victim));
    assert!(!path.exists());
}

/// A container replaced by a same-id copy that lost a chunk V1 reads:
/// every chunk left re-hashes and every plan resolves, yet V1 cannot
/// restore.
#[test]
fn container_missing_a_referenced_chunk_fails_naming_it() {
    let scratch = Scratch::new("missing-chunk");
    churned_repo(&scratch.0);
    let victim = {
        let hds = HiDeStore::open_repository(config(), &scratch.0).unwrap();
        let lost = hds
            .restore_plan(VersionId::new(1))
            .unwrap()
            .into_iter()
            .find(|e| hds.archival().contains(e.container))
            .expect("V1 reads an archival container after churn");
        let original = hds.archival().read(lost.container).unwrap();
        let mut copy = Container::new(original.id(), original.capacity());
        copy.set_version_tag(original.version_tag());
        for (fp, bytes) in original.iter().filter(|&(fp, _)| fp != lost.fingerprint) {
            assert!(copy.try_add(fp, bytes));
        }
        fs::write(
            archival_file(&scratch.0, lost.container.get()),
            copy.encode(),
        )
        .unwrap();
        lost.container.get()
    };
    assert_eq!(verify_local(&scratch.0), Verdict::corrupt(victim));
}

/// An earlier open quarantined a truncated container; every later open
/// still knows, and the versions that depended on it still fail.
#[test]
fn quarantined_dependency_fails_naming_it() {
    let scratch = Scratch::new("quarantined-dep");
    churned_repo(&scratch.0);
    let victim = lowest_archival(&scratch.0);
    truncate_half(&archival_file(&scratch.0, victim));
    let (_, report) = HiDeStore::open_repository_report(config(), &scratch.0).unwrap();
    assert_eq!(report.quarantined.len(), 1);
    assert_eq!(verify_local(&scratch.0), Verdict::corrupt(victim));
}

/// A corrupt recipe is quarantined at open: its version is gone, and no
/// container is to blame.
#[test]
fn quarantined_recipe_fails_naming_no_container() {
    let scratch = Scratch::new("quarantined-recipe");
    churned_repo(&scratch.0);
    fs::write(scratch.0.join("recipes").join("r1.rcp"), b"not a recipe").unwrap();
    assert_eq!(verify_local(&scratch.0), Verdict::corrupt(0));
}

/// Containers a backup wrote before its save never committed are
/// quarantined at open; no committed version references them.
#[test]
fn uncommitted_residue_in_quarantine_passes() {
    let scratch = Scratch::new("residue");
    init(&scratch.0);
    {
        let mut hds = HiDeStore::open_repository(config(), &scratch.0).unwrap();
        hds.backup(&noise(80_000, 60)).unwrap();
        hds.save_repository(&scratch.0).unwrap();
        hds.backup(&noise(80_000, 61)).unwrap();
        assert!(hds.archival().len() > 0, "V1's chunks went cold");
    }
    assert_eq!(verify_local(&scratch.0), Verdict::clean());
    assert!(scratch.0.join("quarantine").exists());
}

/// A backup dies on a torn archival write; the next open recovers, the
/// backup is retried and saved.
#[test]
fn recovered_failed_backup_passes() {
    let v1 = noise(80_000, 70);
    let v2 = noise(80_000, 71);
    let first_archival_write = {
        let dry = Scratch::new("failed-backup-dry");
        let vfs = FaultVfs::counting();
        let (mut hds, _) = HiDeStore::open_repository_with(config(), &dry.0, vfs.clone()).unwrap();
        hds.backup(&v1).unwrap();
        hds.save_repository(&dry.0).unwrap();
        let from = vfs.ops() as usize;
        hds.backup(&v2).unwrap();
        let trace = vfs.trace();
        trace[from..]
            .iter()
            .find(|op| op.kind == OpKind::Write && op.path.starts_with(dry.0.join("archival")))
            .map(|op| (op.index, op.len))
            .expect("V2 demotes V1's chunks")
    };

    let scratch = Scratch::new("failed-backup");
    init(&scratch.0);
    {
        let (site, len) = first_archival_write;
        let vfs = FaultVfs::armed(site, FaultKind::Torn(len / 2));
        let (mut hds, _) = HiDeStore::open_repository_with(config(), &scratch.0, vfs).unwrap();
        hds.backup(&v1).unwrap();
        hds.save_repository(&scratch.0).unwrap();
        assert!(hds.backup(&v2).is_err(), "the torn write fails the backup");
    }
    let mut hds = HiDeStore::open_repository(config(), &scratch.0).unwrap();
    hds.backup(&v2).unwrap();
    hds.save_repository(&scratch.0).unwrap();
    drop(hds);
    assert_eq!(verify_local(&scratch.0), Verdict::clean());
}
