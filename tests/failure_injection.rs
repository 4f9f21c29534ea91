//! Failure injection, in two families:
//!
//! 1. **Flaky store** — the container store fails mid-operation and the
//!    system must degrade safely: a failed backup never corrupts the
//!    versions already retained.
//! 2. **Corruption injection** — an on-disk repository is tampered with in
//!    four targeted ways (payload bit flip, container truncation, dangling
//!    recipe CID, recipe-chain cycle) and `SystemAuditor` must report
//!    exactly the injected damage — and nothing on an untouched store.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use hidestore::fsck::{FindingKind, Severity, SystemAuditor};
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

    fn contains(&self, id: ContainerId) -> bool {
        self.inner.contains(id)
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

    fn reset_stats(&mut self) {
        self.inner.reset_stats()
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
/// plan still resolves, yet the version cannot restore. `scrub` must say so
/// and name the container, and the auditor must agree.
#[test]
fn scrub_and_audit_flag_a_container_missing_a_referenced_chunk() {
    let mut hds = HiDeStore::new(hds_config(), MemoryContainerStore::new());
    let mut data = noise(60_000, 11);
    for round in 0..4u64 {
        hds.backup(&data).unwrap();
        let start = (round as usize * 9_000) % 50_000;
        data[start..start + 7_000].copy_from_slice(&noise(7_000, 500 + round));
    }
    assert!(hds.scrub().unwrap().is_clean());

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
    hds.archival_mut().replace(copy).unwrap();
    assert!(hds
        .restore(VersionId::new(1), &mut Faa::new(1 << 18), &mut Vec::new())
        .is_err());

    let scrub = hds.scrub().unwrap();
    assert!(!scrub.is_clean());
    assert!(
        scrub
            .corrupt_chunks
            .iter()
            .any(|(id, what)| *id == lost.container.get() && what.contains("cannot restore V1")),
        "{:?}",
        scrub.corrupt_chunks
    );
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
}

#[test]
fn scrub_passes_after_recovered_failure() {
    let mut hds = HiDeStore::new(hds_config(), FlakyStore::new(0));
    hds.backup(&noise(60_000, 9)).unwrap();
    hds.backup(&noise(60_000, 10)).unwrap_err();
    hds.archival_mut().disarm();
    hds.backup(&noise(60_000, 11)).unwrap();
    let report = hds.scrub().unwrap();
    assert!(report.is_clean(), "{:?}", report.corrupt_chunks);
}

// ---------------------------------------------------------------------------
// Corruption injection against on-disk repositories, audited by hds-fsck's
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
    HiDeStore::open_repository(hds_config(), dir).expect("reopen repository")
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

    // The audit reports the damage as *contained*: quarantine warnings, no
    // fresh integrity errors.
    let report = SystemAuditor::new().audit(&hds);
    assert!(!report.is_clean());
    assert_eq!(
        report.count(Severity::Error),
        0,
        "quarantined damage must not surface as errors:\n{:#?}",
        report.findings
    );
    assert!(
        report.findings.iter().all(|f| matches!(
            f.kind,
            FindingKind::QuarantinedArtifact { .. } | FindingKind::QuarantinedRef { .. }
        )),
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
/// chunk, archived — must not resolve: restore, scrub and the auditor all
/// refuse it.
#[test]
fn backward_first_chain_hop_is_refused_by_restore_scrub_and_audit() {
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
    let v3 = VersionId::new(3);
    for (what, result) in [
        (
            "restore",
            hds.restore(v3, &mut Faa::new(1 << 18), &mut Vec::new())
                .map(drop),
        ),
        ("scrub", hds.scrub().map(drop)),
    ] {
        assert!(
            matches!(
                result,
                Err(HiDeStoreError::Resolve(ResolveError::BrokenChain { .. }))
            ),
            "{what} must refuse the backward hop, got {result:?}"
        );
    }
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
