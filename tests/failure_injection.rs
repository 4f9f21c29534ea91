//! Failure injection, in two families:
//!
//! 1. **Flaky store** — the container store fails mid-operation and the
//!    system must degrade safely: a failed backup never corrupts the
//!    versions already retained.
//! 2. **Corruption injection** — an on-disk repository is tampered with in
//!    four targeted ways (payload bit flip, container truncation, dangling
//!    recipe CID, recipe-chain cycle) and `SystemAuditor` must report
//!    exactly the injected damage — and nothing on an untouched store. A
//!    seeded sweep of recipe-CID rewrites, under each kind of quarantine,
//!    checks that a restore fails exactly for the versions the audit
//!    reports an error for.

use std::collections::BTreeSet;
use std::num::NonZeroU32;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use hidestore::fsck::{FindingKind, Severity, SystemAuditor};
use hidestore::hash::Fingerprint;
use hidestore::server::{serve, view, RemoteClient, ServerConfig};
use hidestore::storage::FileContainerStore;

use hidestore::core::chain::ResolveError;
use hidestore::core::{HiDeStore, HiDeStoreConfig, HiDeStoreError, QuarantinedArtifact};
use hidestore::dedup::{BackupPipeline, PipelineConfig};
use hidestore::index::DdfsIndex;
use hidestore::restore::Faa;
use hidestore::rewriting::NoRewrite;
use hidestore::storage::{
    Cid, Container, ContainerId, ContainerStore, IoStats, MemoryContainerStore, StorageError,
    VersionId,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A store that fails every write once `fail_after_writes` have succeeded.
#[derive(Debug)]
struct FlakyStore {
    inner: MemoryContainerStore,
    writes: Arc<AtomicU64>,
    fail_after_writes: u64,
}

impl FlakyStore {
    fn new(fail_after_writes: u64) -> Self {
        FlakyStore {
            inner: MemoryContainerStore::new(),
            writes: Arc::new(AtomicU64::new(0)),
            fail_after_writes,
        }
    }

    fn disarm(&mut self) {
        self.fail_after_writes = u64::MAX;
    }
}

impl ContainerStore for FlakyStore {
    fn write(&mut self, container: Container) -> Result<(), StorageError> {
        let n = self.writes.fetch_add(1, Ordering::SeqCst);
        if n >= self.fail_after_writes {
            return Err(StorageError::Io(std::io::Error::other(
                "injected write failure",
            )));
        }
        self.inner.write(container)
    }

    fn read(&self, id: ContainerId) -> Result<std::sync::Arc<Container>, StorageError> {
        self.inner.read(id)
    }

    fn remove(&mut self, id: ContainerId) -> Result<(), StorageError> {
        self.inner.remove(id)
    }

    fn ids(&self) -> Vec<ContainerId> {
        self.inner.ids()
    }

    fn stats(&self) -> IoStats {
        self.inner.stats()
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

fn hds_config() -> HiDeStoreConfig {
    HiDeStoreConfig {
        avg_chunk_size: 1024,
        container_capacity: 16 * 1024,
        ..HiDeStoreConfig::default()
    }
}

#[test]
fn hidestore_failed_demotion_preserves_old_versions() {
    // Fail on every archival write from the start: the first demotion (at
    // the end of version 2) errors out.
    let mut hds = HiDeStore::new(hds_config(), FlakyStore::new(0));
    let v1 = noise(100_000, 1);
    let v2 = noise(100_000, 2); // fully different: everything of v1 goes cold
    hds.backup(&v1).unwrap();
    let err = hds.backup(&v2).unwrap_err();
    assert!(err.to_string().contains("injected"), "{err}");

    // Both versions must still restore byte-exact from the intact pool.
    hds.archival_mut().disarm();
    for (v, expect) in [(1u32, &v1), (2, &v2)] {
        let mut out = Vec::new();
        hds.restore(VersionId::new(v), &mut Faa::new(1 << 18), &mut out)
            .unwrap_or_else(|e| panic!("V{v} must survive the failed demotion: {e}"));
        assert_eq!(&out, expect, "V{v}");
    }
}

#[test]
fn hidestore_recovers_on_next_backup_after_failure() {
    // One failed demotion, then the store heals: subsequent backups work
    // and the whole history remains restorable.
    let mut hds = HiDeStore::new(hds_config(), FlakyStore::new(0));
    let v1 = noise(80_000, 3);
    let v2 = noise(80_000, 4);
    let mut v3 = v2.clone();
    v3.extend_from_slice(&noise(5_000, 5));
    hds.backup(&v1).unwrap();
    hds.backup(&v2).unwrap_err();
    hds.archival_mut().disarm();
    hds.backup(&v3).unwrap();
    for (v, expect) in [(1u32, &v1), (2, &v2), (3, &v3)] {
        let mut out = Vec::new();
        hds.restore(VersionId::new(v), &mut Faa::new(1 << 18), &mut out)
            .unwrap_or_else(|e| panic!("V{v}: {e}"));
        assert_eq!(&out, expect, "V{v}");
    }
}

#[test]
fn chunks_a_failed_demotion_left_pooled_are_hot_when_seen_again() {
    // V1's chunks go cold at the end of V2, whose demotion fails: they stay
    // pooled. When V3 holds them again they are hot, not unique, so V3
    // stores nothing and the whole history still restores.
    let mut hds = HiDeStore::new(hds_config(), FlakyStore::new(0));
    let v1 = noise(80_000, 6);
    let v2 = noise(80_000, 7);
    hds.backup(&v1).unwrap();
    hds.backup(&v2).unwrap_err();
    hds.archival_mut().disarm();
    let s3 = hds.backup(&v1).unwrap();
    assert_eq!((s3.stored_bytes, s3.stored_chunks), (0, 0));
    assert!(s3.cold_chunks > 0, "V2's chunks go cold at the end of V3");
    for (v, expect) in [(1u32, &v1), (2, &v2), (3, &v1)] {
        let mut out = Vec::new();
        hds.restore(VersionId::new(v), &mut Faa::new(1 << 18), &mut out)
            .unwrap_or_else(|e| panic!("V{v}: {e}"));
        assert_eq!(&out, expect, "V{v}");
    }
    let report = SystemAuditor::new().audit(&hds);
    assert!(report.is_clean(), "{report}");
}

#[test]
fn chunks_a_failed_demotion_left_pooled_go_cold_with_the_next_demotion() {
    // V1's chunks go cold at the end of V2, whose demotion fails: they stay
    // pooled. V3 of fresh bytes demotes them with V2's, so the pool holds
    // exactly V3's chunks, and V1's recipe, which the failed demotion left
    // unsettled, now points at their archival copies.
    let mut hds = HiDeStore::new(hds_config(), FlakyStore::new(0));
    let versions = [noise(80_000, 8), noise(80_000, 9), noise(80_000, 10)];
    hds.backup(&versions[0]).unwrap();
    hds.backup(&versions[1]).unwrap_err();
    hds.archival_mut().disarm();
    let s3 = hds.backup(&versions[2]).unwrap();
    assert_eq!(pooled(&hds), hot_set(&hds, s3.version, 1));
    for (v, expect) in (1u32..).zip(&versions) {
        let mut out = Vec::new();
        hds.restore(VersionId::new(v), &mut Faa::new(1 << 18), &mut out)
            .unwrap_or_else(|e| panic!("V{v}: {e}"));
        assert_eq!(&out, expect, "V{v}");
    }
    let report = SystemAuditor::new().audit(&hds);
    assert!(report.is_clean(), "{report}");
}

/// A prune below the history depth expires a version whose chunks are
/// still pooled. Only that version held them, so they leave the pool with
/// it: after a save and a reopen, the next backup demotes nothing and
/// writes no archival container.
#[test]
fn chunks_only_a_pruned_version_held_leave_the_pool() {
    let scratch = Scratch::new("pruned-below-depth");
    let dir = &scratch.0;
    let config = HiDeStoreConfig {
        history_depth: 2,
        ..hds_config()
    };
    let (v1, v2) = (noise(60_000, 61), noise(60_000, 62));
    let mut hds = HiDeStore::open_repository(config, dir).expect("open repository");
    hds.backup(&v1).expect("backup V1");
    hds.backup(&v2).expect("backup V2");
    let pruned = hds
        .prune_keep_last(NonZeroU32::new(1).unwrap())
        .expect("prune")
        .expect("V1 expires");
    assert_eq!(pruned.versions_removed, 1);
    hds.save_repository(dir).expect("save repository");
    drop(hds);

    let mut hds = reopen_with(config, dir);
    let s3 = hds.backup(&v2).expect("backup V3");
    assert_eq!((s3.cold_chunks, s3.cold_bytes), (0, 0));
    assert_eq!(s3.archival_containers_sealed, 0);
    hds.save_repository(dir).expect("save repository");
    assert!(archival_container_files(dir).is_empty());
    assert_eq!(pooled(&hds), hot_set(&hds, s3.version, 2));
    for v in [2u32, 3] {
        let mut out = Vec::new();
        hds.restore(VersionId::new(v), &mut Faa::new(1 << 18), &mut out)
            .unwrap_or_else(|e| panic!("V{v}: {e}"));
        assert!(out == v2, "V{v} bytes");
    }
    let report = SystemAuditor::new().audit(&hds);
    assert!(report.is_clean(), "{report}");
}

/// The fingerprints in `hds`'s active pool.
fn pooled<S: ContainerStore>(hds: &HiDeStore<S>) -> BTreeSet<Fingerprint> {
    hds.pool().hot_chunks().map(|(fp, _)| fp).collect()
}

/// The hot set at the end of `newest` with `depth` versions of history:
/// the distinct fingerprints of the retained recipes among the newest
/// `depth` versions.
fn hot_set<S: ContainerStore>(
    hds: &HiDeStore<S>,
    newest: VersionId,
    depth: usize,
) -> BTreeSet<Fingerprint> {
    hds.recipes()
        .iter()
        .filter(|r| r.version().get() + depth as u32 > newest.get())
        .flat_map(|r| r.entries().iter().map(|e| e.fingerprint))
        .collect()
}

/// A degraded open that quarantined the newest recipe leaves the older
/// versions chained through it unrestorable, but not the repository: two
/// more backups succeed, are saved, and restore byte-exact — before and
/// after a reopen — at history depth 1 and 2.
#[test]
fn backups_after_losing_the_newest_recipe_restore_byte_exact() {
    for depth in [1, 2] {
        let scratch = Scratch::new(&format!("lost-newest-recipe-{depth}"));
        let dir = &scratch.0;
        let config = HiDeStoreConfig {
            history_depth: depth,
            ..hds_config()
        };
        // Five versions, each a small edit of the one before, so every
        // older recipe chains forward into its successor.
        let mut versions = vec![noise(60_000, 41)];
        for round in 0..4u64 {
            let mut next = versions.last().unwrap().clone();
            let start = 5_000 + round as usize * 11_000;
            next[start..start + 4_000].copy_from_slice(&noise(4_000, 42 + round));
            versions.push(next);
        }
        let mut hds = HiDeStore::open_repository(config, dir).expect("open repository");
        for data in &versions[..3] {
            hds.backup(data).expect("backup");
        }
        hds.save_repository(dir).expect("save repository");
        drop(hds);
        std::fs::write(recipe_file(dir, 3), b"not a recipe").expect("corrupt r3.rcp");

        let mut hds = HiDeStore::open_repository(config, dir).expect("degraded open");
        let lost = QuarantinedArtifact::Recipe(VersionId::new(3));
        let quarantined: Vec<_> = hds.quarantine().iter().map(|e| &e.artifact).collect();
        assert_eq!(quarantined, [&lost], "depth {depth}");
        for data in &versions[3..] {
            let stats = hds.backup(data).expect("backup after the degraded open");
            // What the open left unstamped or stamped too old goes cold
            // with this backup's demotion.
            assert!(
                pooled(&hds) == hot_set(&hds, stats.version, depth),
                "depth {depth}: the pool after {} is not the hot set",
                stats.version
            );
            hds.save_repository(dir)
                .expect("save after the degraded open");
        }

        let check = |hds: &HiDeStore<FileContainerStore>, when: &str| {
            for v in 1..=2u32 {
                match hds.restore(VersionId::new(v), &mut Faa::new(1 << 18), &mut Vec::new()) {
                    Err(HiDeStoreError::PartialRestore { quarantined, .. }) => {
                        assert_eq!(
                            quarantined,
                            std::slice::from_ref(&lost),
                            "depth {depth} {when}: V{v}"
                        )
                    }
                    other => {
                        panic!("depth {depth} {when}: V{v} must fail naming r3, got {other:?}")
                    }
                }
            }
            for v in 4..=5u32 {
                let mut out = Vec::new();
                hds.restore(VersionId::new(v), &mut Faa::new(1 << 18), &mut out)
                    .unwrap_or_else(|e| panic!("depth {depth} {when}: V{v}: {e}"));
                assert!(
                    out == versions[v as usize - 1],
                    "depth {depth} {when}: V{v} bytes"
                );
            }
            // The auditor's errors are the lost recipe and the two
            // versions chained through it; nothing else.
            let report = SystemAuditor::new().audit(hds);
            let errors: Vec<_> = report
                .findings
                .iter()
                .filter(|f| f.severity == Severity::Error)
                .map(|f| match &f.kind {
                    FindingKind::QuarantinedArtifact { artifact, .. } => (0, artifact),
                    FindingKind::QuarantinedRef { version, artifact } => (*version, artifact),
                    other => panic!("depth {depth} {when}: unexpected error {other}"),
                })
                .collect();
            assert_eq!(
                errors,
                [(0, &lost), (1, &lost), (2, &lost)],
                "depth {depth} {when}"
            );
        };
        check(&hds, "after the backups");
        drop(hds);
        check(&reopen_with(config, dir), "after a reopen");
    }
}

/// `stats` on a degraded repository: after a degraded open quarantined the
/// newest recipe, every listed version has a row exactly when its restore
/// plan builds, and is listed as lost exactly when its plan fails as a
/// partial restore — locally and through a daemon serving the directory.
#[test]
fn stats_lists_the_versions_a_quarantined_recipe_took() {
    let scratch = Scratch::new("degraded-stats");
    let dir = &scratch.0;
    // V1 = A+B, V2 = B+C, V3 = C+D: V1 resolves through V2 to archival
    // containers, while V2 still chains into V3 for C.
    let [a, b, c, d] = [51, 52, 53, 54].map(|seed| noise(30_000, seed));
    let mut hds = HiDeStore::open_repository(hds_config(), dir).expect("open repository");
    for halves in [[&a[..], &b], [&b, &c], [&c, &d]] {
        hds.backup(&halves.concat()).expect("backup");
    }
    hds.save_repository(dir).expect("save repository");
    drop(hds);
    hds_config()
        .save_to(dir)
        .expect("save config for the daemon");
    std::fs::write(recipe_file(dir, 3), b"not a recipe").expect("corrupt r3.rcp");

    let hds = reopen(dir);
    let stats = view::stats_response(&hds).expect("stats on a degraded repository");
    let rows: Vec<u32> = stats.versions.iter().map(|row| row.version).collect();
    for v in hds.versions() {
        let plan = hds.restore_plan(v);
        assert_eq!(rows.contains(&v.get()), plan.is_ok(), "{v}: row");
        assert_eq!(
            stats.lost.contains(&v.get()),
            matches!(plan, Err(HiDeStoreError::PartialRestore { .. })),
            "{v}: lost"
        );
    }
    assert_eq!(
        (rows.as_slice(), stats.lost.as_slice()),
        ([1].as_slice(), [2].as_slice())
    );
    drop(hds);

    let handle = serve(
        dir,
        ServerConfig {
            quiet: true,
            ..ServerConfig::default()
        },
    )
    .expect("serve the degraded repository");
    let remote = RemoteClient::connect(handle.addr())
        .and_then(|mut client| client.stats())
        .expect("remote stats on a degraded repository");
    handle.shutdown_and_join();
    assert_eq!(remote, stats);
}

#[test]
fn pipeline_failed_backup_preserves_old_versions() {
    let mut p = BackupPipeline::new(
        PipelineConfig {
            avg_chunk_size: 1024,
            container_capacity: 16 * 1024,
            segment_chunks: 32,
            ..PipelineConfig::default()
        },
        DdfsIndex::new(),
        NoRewrite::new(),
        FlakyStore::new(10),
    );
    let v1 = noise(100_000, 7);
    p.backup(&v1).unwrap();
    // A big unique version blows past the write budget.
    let err = p.backup(&noise(400_000, 8)).unwrap_err();
    assert!(err.to_string().contains("injected"), "{err}");
    p.store_mut().disarm();
    let mut out = Vec::new();
    p.restore(VersionId::new(1), &mut Faa::new(1 << 18), &mut out)
        .unwrap();
    assert_eq!(out, v1, "V1 must survive the failed ingest");
}

/// A container swapped for a same-ID copy that lost a chunk a retained
/// version reads: every chunk left still matches its fingerprint and every
/// plan still resolves, yet the version cannot restore. The audit must say
/// so, and `verify`'s summary must name the container.
#[test]
fn audit_flags_a_container_missing_a_referenced_chunk() {
    let mut hds = HiDeStore::new(hds_config(), MemoryContainerStore::new());
    let mut data = noise(60_000, 11);
    for round in 0..4u64 {
        hds.backup(&data).unwrap();
        let start = (round as usize * 9_000) % 50_000;
        data[start..start + 7_000].copy_from_slice(&noise(7_000, 500 + round));
    }
    assert!(SystemAuditor::new().audit(&hds).is_clean());

    let archival = hds.archival().ids();
    let lost = hds
        .restore_plan(VersionId::new(1))
        .unwrap()
        .into_iter()
        .find(|e| archival.contains(&e.container))
        .expect("V1 reads an archival container after churn");
    let original = hds.archival().read(lost.container).unwrap();
    let mut copy = Container::new(original.id(), original.capacity());
    copy.set_version_tag(original.version_tag());
    for (fp, bytes) in original.iter().filter(|&(fp, _)| fp != lost.fingerprint) {
        assert!(copy.try_add(fp, bytes));
    }
    hds.archival_mut().replace(copy).unwrap();
    assert!(hds
        .restore(VersionId::new(1), &mut Faa::new(1 << 18), &mut Vec::new())
        .is_err());

    let audit = SystemAuditor::new().audit(&hds);
    assert!(
        audit.findings.iter().any(|f| matches!(
            f.kind,
            FindingKind::ArchivalChunkMissing { version: 1, container, .. }
                if container == lost.container.get()
        )),
        "{:#?}",
        audit.findings
    );
    let summary = view::verify_response(&audit);
    assert!(
        summary
            .corrupt_chunks
            .iter()
            .any(|(id, what)| *id == lost.container.get() && what.contains("recipe V1")),
        "{:?}",
        summary.corrupt_chunks
    );
}

#[test]
fn audit_passes_after_recovered_failure() {
    let mut hds = HiDeStore::new(hds_config(), FlakyStore::new(0));
    hds.backup(&noise(60_000, 9)).unwrap();
    hds.backup(&noise(60_000, 10)).unwrap_err();
    hds.archival_mut().disarm();
    hds.backup(&noise(60_000, 11)).unwrap();
    let report = SystemAuditor::new().audit(&hds);
    assert!(report.is_clean(), "{report}");
}

// ---------------------------------------------------------------------------
// Corruption injection against on-disk repositories, audited by the fsck
// library API.
// ---------------------------------------------------------------------------

/// A unique scratch directory, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!(
            "hds-failure-injection-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Builds a repo with enough churn that cold chunks reach the archival
/// store, then saves it.
fn build_churned_repo(dir: &Path) {
    let mut hds = HiDeStore::open_repository(hds_config(), dir).expect("open repository");
    let mut data = noise(60_000, 11);
    for round in 0..4u64 {
        hds.backup(&data).expect("backup");
        let start = (round as usize * 9_000) % 50_000;
        let patch = noise(7_000, 500 + round);
        data[start..start + patch.len()].copy_from_slice(&patch);
    }
    hds.save_repository(dir).expect("save repository");
}

/// Builds a repo of two *identical* versions (so V1's recipe chains into V2
/// and nothing is demoted), then saves it.
fn build_chained_repo(dir: &Path) {
    let mut hds = HiDeStore::open_repository(hds_config(), dir).expect("open repository");
    let data = noise(40_000, 23);
    hds.backup(&data).expect("backup v1");
    hds.backup(&data).expect("backup v2");
    hds.save_repository(dir).expect("save repository");
}

fn reopen(dir: &Path) -> HiDeStore<FileContainerStore> {
    reopen_with(hds_config(), dir)
}

fn reopen_with(config: HiDeStoreConfig, dir: &Path) -> HiDeStore<FileContainerStore> {
    HiDeStore::open_repository(config, dir).expect("reopen repository")
}

fn archival_container_files(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir.join("archival"))
        .expect("archival dir")
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "ctr"))
        .collect();
    files.sort();
    files
}

fn recipe_file(dir: &Path, version: u32) -> PathBuf {
    dir.join("recipes").join(format!("r{version}.rcp"))
}

/// Recipe layout: 12-byte header (`HDSR` + u32 version + u32 count), then
/// 28-byte entries (20-byte fingerprint + u32 size + i32 cid, both LE).
const RECIPE_HEADER: usize = 12;
const RECIPE_ENTRY: usize = 28;
const ENTRY_CID_OFFSET: usize = 24;

/// Overwrites the CID of entry `idx` in a recipe file.
fn patch_recipe_cid(path: &Path, idx: usize, cid: i32) {
    let mut bytes = std::fs::read(path).expect("read recipe");
    let at = RECIPE_HEADER + idx * RECIPE_ENTRY + ENTRY_CID_OFFSET;
    bytes[at..at + 4].copy_from_slice(&cid.to_le_bytes());
    std::fs::write(path, bytes).expect("write recipe");
}

/// Index of the first entry in a recipe file whose CID is a positive
/// (archival) reference.
fn first_archival_entry(path: &Path) -> Option<usize> {
    let bytes = std::fs::read(path).expect("read recipe");
    let n = (bytes.len() - RECIPE_HEADER) / RECIPE_ENTRY;
    (0..n).find(|i| {
        let at = RECIPE_HEADER + i * RECIPE_ENTRY + ENTRY_CID_OFFSET;
        let mut word = [0u8; 4];
        word.copy_from_slice(&bytes[at..at + 4]);
        i32::from_le_bytes(word) > 0
    })
}

#[test]
fn untouched_store_audits_clean() {
    let scratch = Scratch::new("clean");
    build_churned_repo(&scratch.0);
    let hds = reopen(&scratch.0);
    let report = SystemAuditor::new().audit(&hds);
    assert!(
        report.is_clean(),
        "expected zero findings, got:\n{report:#?}"
    );
    assert!(report.containers_checked > 0);
    assert!(report.chunks_checked > 0);
    assert_eq!(report.recipes_checked, 4);
}

#[test]
fn flipped_payload_byte_is_reported_as_hash_mismatch() {
    let scratch = Scratch::new("bitflip");
    build_churned_repo(&scratch.0);
    // The data section is encoded last, so the file's final byte belongs to
    // some chunk's payload.
    let victim = archival_container_files(&scratch.0)
        .into_iter()
        .next()
        .expect("an archival container");
    let mut bytes = std::fs::read(&victim).expect("read container");
    let last = bytes.len() - 1;
    bytes[last] ^= 0x01;
    std::fs::write(&victim, bytes).expect("write container");

    let hds = reopen(&scratch.0);
    let report = SystemAuditor::new().audit(&hds);
    assert!(!report.is_clean(), "corruption must be detected");
    assert!(
        report
            .findings
            .iter()
            .all(|f| matches!(f.kind, FindingKind::ChunkHashMismatch { .. })),
        "only the injected hash mismatch may be reported:\n{:#?}",
        report.findings
    );
    assert_eq!(report.findings.len(), 1, "exactly one chunk was corrupted");
}

#[test]
fn truncated_container_is_quarantined_and_contained() {
    let scratch = Scratch::new("truncate");
    build_churned_repo(&scratch.0);
    let victim = archival_container_files(&scratch.0)
        .into_iter()
        .next()
        .expect("an archival container");
    let bytes = std::fs::read(&victim).expect("read container");
    std::fs::write(&victim, &bytes[..bytes.len() / 2]).expect("truncate container");

    // Degraded-mode open: the damaged container is moved to quarantine/
    // instead of failing the open or poisoning every restore.
    let hds = reopen(&scratch.0);
    assert_eq!(hds.quarantine().len(), 1, "{:?}", hds.quarantine());
    let victim_name = victim.file_name().expect("container file name");
    assert!(
        scratch.0.join("quarantine").join(victim_name).exists(),
        "the damaged file must be preserved in quarantine/"
    );
    assert!(!victim.exists(), "and gone from archival/");

    // The audit reports the damage as *contained*: the quarantined file is
    // a warning, and every error is a version that depends on it — never a
    // fresh integrity error such as a dangling reference.
    let report = SystemAuditor::new().audit(&hds);
    assert!(report.count(Severity::Error) > 0, "{report}");
    assert!(
        report.findings.iter().all(|f| match f.kind {
            FindingKind::QuarantinedArtifact { .. } => f.severity == Severity::Warning,
            FindingKind::QuarantinedRef { .. } => f.severity == Severity::Error,
            _ => false,
        }),
        "only quarantine findings may be reported:\n{:#?}",
        report.findings
    );

    // The newest version never references archival containers; it restores.
    let latest = *hds.versions().last().expect("versions retained");
    let mut out = Vec::new();
    hds.restore(latest, &mut Faa::new(1 << 18), &mut out)
        .expect("newest version must survive the quarantine");

    // Versions that depended on the container fail with a typed partial
    // restore naming it — never a wrong-data success.
    let mut partial = 0;
    for v in hds.versions() {
        let mut out = Vec::new();
        match hds.restore(v, &mut Faa::new(1 << 18), &mut out) {
            Ok(_) => {}
            Err(HiDeStoreError::PartialRestore {
                version,
                quarantined,
            }) => {
                assert_eq!(version, v);
                assert!(
                    quarantined
                        .iter()
                        .any(|a| matches!(a, QuarantinedArtifact::ArchivalContainer(_))),
                    "the lost container must be named: {quarantined:?}"
                );
                partial += 1;
            }
            Err(other) => panic!("V{v} must fail as PartialRestore, got: {other}"),
        }
    }
    assert!(partial > 0, "some version depended on the lost container");
}

#[test]
fn dangling_recipe_cid_is_reported() {
    let scratch = Scratch::new("dangle");
    build_churned_repo(&scratch.0);
    // Point V1's first archival reference at a container that was never
    // written.
    let r1 = recipe_file(&scratch.0, 1);
    let idx = first_archival_entry(&r1).expect("V1 has an archival entry after churn");
    patch_recipe_cid(&r1, idx, 9_999);

    let hds = reopen(&scratch.0);
    let report = SystemAuditor::new().audit(&hds);
    assert!(!report.is_clean());
    assert!(
        report.findings.iter().all(|f| matches!(
            f.kind,
            FindingKind::DanglingArchivalRef {
                version: 1,
                container: 9_999,
                ..
            }
        )),
        "only the injected dangling reference may be reported:\n{:#?}",
        report.findings
    );
    assert_eq!(report.findings.len(), 1);
}

#[test]
fn chain_cycle_is_reported() {
    let scratch = Scratch::new("cycle");
    build_chained_repo(&scratch.0);
    // V1's entries are all chained forward to V2 (cid -2). Rewriting V2's
    // first entry to chain back to V1 (cid -1) closes a cycle — and is also
    // a backward hop, violating version ordering.
    let r2 = recipe_file(&scratch.0, 2);
    patch_recipe_cid(&r2, 0, -1);

    let hds = reopen(&scratch.0);
    let report = SystemAuditor::new().audit(&hds);
    assert!(!report.is_clean());
    assert!(
        report.findings.iter().all(|f| matches!(
            f.kind,
            FindingKind::ChainCycle { .. } | FindingKind::ChainNotVersionOrdered { .. }
        )),
        "only chain findings may be reported:\n{:#?}",
        report.findings
    );
    assert!(
        report
            .findings
            .iter()
            .any(|f| matches!(f.kind, FindingKind::ChainCycle { .. })),
        "the cycle itself must be among the findings:\n{:#?}",
        report.findings
    );
}

/// A first chain hop to an *older* version — whose recipe does hold the
/// chunk, archived — must not resolve: restore and the auditor both refuse
/// it.
#[test]
fn backward_first_chain_hop_is_refused_by_restore_and_audit() {
    let scratch = Scratch::new("backward-hop");
    let dir = &scratch.0;
    // A, B, A: V1's copy of A goes cold at the end of V2 (archival), and V3
    // stores A again in the active pool.
    let a = noise(60_000, 31);
    let b = noise(60_000, 32);
    let mut hds = HiDeStore::open_repository(hds_config(), dir).expect("open repository");
    for data in [&a, &b, &a] {
        hds.backup(data).expect("backup");
    }
    hds.save_repository(dir).expect("save repository");
    let r1 = recipe_file(dir, 1);
    assert_eq!(first_archival_entry(&r1), Some(0), "V1's A is archival");
    // V3's first entry is V1's first chunk: chain it back to V1.
    patch_recipe_cid(
        &recipe_file(dir, 3),
        0,
        Cid::chained(VersionId::new(1)).raw(),
    );

    let hds = reopen(dir);
    let result = hds.restore(VersionId::new(3), &mut Faa::new(1 << 18), &mut Vec::new());
    assert!(
        matches!(
            result,
            Err(HiDeStoreError::Resolve(ResolveError::BrokenChain { .. }))
        ),
        "restore must refuse the backward hop, got {result:?}"
    );
    let report = SystemAuditor::new().audit(&hds);
    assert!(
        report.findings.iter().any(|f| f.severity == Severity::Error
            && matches!(
                f.kind,
                FindingKind::ChainNotVersionOrdered {
                    version: 3,
                    from: 3,
                    to: 1,
                    ..
                }
            )),
        "{:#?}",
        report.findings
    );
}

/// One way of rewriting a recipe entry's CID in the agreement test.
#[derive(Debug, Clone, Copy)]
enum CidPatch {
    MissingArchival,
    OtherContainer,
    Active,
    OlderVersion,
    SameVersion,
    NewerVersion,
    MissingVersion,
    TwoVersionCycle,
}

/// What degraded-mode recovery finds in the agreement test's repository.
#[derive(Debug, Clone, Copy)]
enum Quarantine {
    Nothing,
    OneRecipe,
    OneArchivalContainer,
}

fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).expect("create copy");
    for entry in std::fs::read_dir(from).expect("read dir") {
        let entry = entry.expect("dir entry");
        let target = to.join(entry.file_name());
        if entry.file_type().expect("file type").is_dir() {
            copy_dir(&entry.path(), &target);
        } else {
            std::fs::copy(entry.path(), &target).expect("copy file");
        }
    }
}

/// The CID rewrites one [`CidPatch`] makes in `base`'s recipes, as
/// `(version, entry index, new cid)`.
fn cid_patches(
    base: &HiDeStore<FileContainerStore>,
    patch: CidPatch,
    rng: &mut StdRng,
) -> Vec<(u32, usize, i32)> {
    let newest = base.versions().last().expect("versions").get();
    let version = match patch {
        CidPatch::OlderVersion => rng.gen_range(2..=newest),
        CidPatch::NewerVersion => rng.gen_range(1..newest),
        _ => rng.gen_range(1..=newest),
    };
    let entries = |v: u32| {
        base.recipes()
            .get(VersionId::new(v))
            .expect("recipe")
            .entries()
    };
    let idx = rng.gen_range(0..entries(version).len());
    let chained = |v: u32| Cid::chained(VersionId::new(v)).raw();
    let cid = match patch {
        CidPatch::MissingArchival => 9_999,
        CidPatch::OtherContainer => {
            let current = entries(version)[idx].cid.as_archival();
            let others: Vec<ContainerId> = base
                .archival()
                .ids()
                .into_iter()
                .filter(|&id| Some(id) != current)
                .collect();
            others[rng.gen_range(0..others.len())].get() as i32
        }
        CidPatch::Active => 0,
        CidPatch::OlderVersion => chained(rng.gen_range(1..version)),
        CidPatch::SameVersion => chained(version),
        CidPatch::NewerVersion => chained(rng.gen_range(version + 1..=newest)),
        CidPatch::MissingVersion => chained(newest + 7),
        CidPatch::TwoVersionCycle => {
            // A chunk two consecutive versions both hold, each chained to
            // the other.
            let shared: Vec<(u32, usize, usize)> = (1..newest)
                .flat_map(|v| {
                    entries(v).iter().enumerate().filter_map(move |(i, e)| {
                        let j = entries(v + 1)
                            .iter()
                            .position(|n| n.fingerprint == e.fingerprint)?;
                        Some((v, i, j))
                    })
                })
                .collect();
            let (v, i, j) = shared[rng.gen_range(0..shared.len())];
            return vec![(v, i, chained(v + 1)), (v + 1, j, chained(v))];
        }
    };
    vec![(version, idx, cid)]
}

/// Five versions: A, then an unrelated B, then three successive edits of
/// A. A's first copies go cold behind B and the edits store them again, so
/// the oldest recipe holds archived copies of chunks newer recipes chain
/// forward: a backward hop there lands on a real location.
fn build_agreement_repo(dir: &Path) {
    let mut hds = HiDeStore::open_repository(hds_config(), dir).expect("open repository");
    let mut data = noise(60_000, 11);
    hds.backup(&data).expect("backup A");
    hds.backup(&noise(60_000, 12)).expect("backup B");
    for round in 0..3u64 {
        let start = 5_000 + round as usize * 17_000;
        data[start..start + 7_000].copy_from_slice(&noise(7_000, 600 + round));
        hds.backup(&data).expect("backup an edit of A");
    }
    hds.save_repository(dir).expect("save repository");
}

/// Restore and the auditor follow recipe chains through one walk, so they
/// must agree on every damaged repository: `restore(v)` fails exactly when
/// the audit has an `Error` finding for `v` (one whose `version` is `v`, or
/// `v`'s quarantined recipe). Each seeded trial rewrites one recipe entry's
/// CID, with nothing, one recipe or one archival container quarantined, and
/// a restore that succeeds must be byte-exact.
#[test]
fn restore_fails_exactly_when_the_audit_has_an_error_for_the_version() {
    let scratch = Scratch::new("agreement");
    let base_dir = scratch.0.join("base");
    build_agreement_repo(&base_dir);
    let base = reopen(&base_dir);
    let versions: Vec<VersionId> = base.versions();
    let originals: Vec<Vec<u8>> = versions
        .iter()
        .map(|&v| {
            let mut out = Vec::new();
            base.restore(v, &mut Faa::new(1 << 18), &mut out)
                .expect("the base repository restores");
            out
        })
        .collect();
    let patches = [
        CidPatch::MissingArchival,
        CidPatch::OtherContainer,
        CidPatch::Active,
        CidPatch::OlderVersion,
        CidPatch::SameVersion,
        CidPatch::NewerVersion,
        CidPatch::MissingVersion,
        CidPatch::TwoVersionCycle,
    ];
    let quarantines = [
        Quarantine::Nothing,
        Quarantine::OneRecipe,
        Quarantine::OneArchivalContainer,
    ];
    let mut trial = 0;
    for seed in 0..3u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        for patch in patches {
            for quarantine in quarantines {
                trial += 1;
                let dir = scratch.0.join(format!("trial-{trial}"));
                copy_dir(&base_dir, &dir);
                let edits = cid_patches(&base, patch, &mut rng);
                for &(v, idx, cid) in &edits {
                    patch_recipe_cid(&recipe_file(&dir, v), idx, cid);
                }
                match quarantine {
                    Quarantine::Nothing => {}
                    Quarantine::OneRecipe => {
                        let v = versions[rng.gen_range(0..versions.len())].get();
                        std::fs::write(recipe_file(&dir, v), b"not a recipe").expect("corrupt");
                    }
                    Quarantine::OneArchivalContainer => {
                        let files = archival_container_files(&dir);
                        let victim = &files[rng.gen_range(0..files.len())];
                        let bytes = std::fs::read(victim).expect("read container");
                        std::fs::write(victim, &bytes[..bytes.len() / 2]).expect("truncate");
                    }
                }

                let hds = reopen(&dir);
                let report = SystemAuditor::new().audit(&hds);
                let failing: BTreeSet<u32> = report
                    .findings
                    .iter()
                    .filter(|f| f.severity == Severity::Error)
                    .filter_map(|f| match &f.kind {
                        FindingKind::QuarantinedArtifact {
                            artifact: QuarantinedArtifact::Recipe(v),
                            ..
                        } => Some(v.get()),
                        FindingKind::DanglingArchivalRef { version, .. }
                        | FindingKind::ArchivalChunkMissing { version, .. }
                        | FindingKind::ActiveChunkMissingFromPool { version, .. }
                        | FindingKind::MissingChainTarget { version, .. }
                        | FindingKind::ChainBrokenAt { version, .. }
                        | FindingKind::ChainNotVersionOrdered { version, .. }
                        | FindingKind::ChainCycle { version, .. }
                        | FindingKind::QuarantinedRef { version, .. } => Some(*version),
                        _ => None,
                    })
                    .collect();
                let what = format!("trial {trial}: {patch:?} {edits:?}, {quarantine:?}");
                for (&v, original) in versions.iter().zip(&originals) {
                    let mut out = Vec::new();
                    let restored = hds.restore(v, &mut Faa::new(1 << 18), &mut out);
                    assert_eq!(
                        restored.is_err(),
                        failing.contains(&v.get()),
                        "{what}: V{v} restore {restored:?} against audit\n{report}\n{:#?}",
                        report.findings
                    );
                    if restored.is_ok() {
                        assert!(out == *original, "{what}: V{v} restored wrong bytes");
                    }
                }
                drop(hds);
                let _ = std::fs::remove_dir_all(&dir);
            }
        }
    }
}
