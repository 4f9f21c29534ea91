//! Crash-consistency matrix: enumerate every filesystem operation in a full
//! open → backup → save → delete lifecycle (and in the maintenance
//! lifecycle that adds a recluster pass), crash at each
//! one, reopen, and require the repository to come back *clean* in exactly
//! one of the states a save boundary could have left — never a torn mix.
//!
//! "Clean" is checked three ways after every crash:
//!
//! 1. reopening succeeds (degraded-mode recovery resolves the journal and
//!    quarantines uncommitted residue instead of failing),
//! 2. `SystemAuditor` reports no `Error`-severity findings (only quarantine
//!    warnings are tolerated — contained damage, not integrity loss),
//! 3. the set of retained versions *and their restored bytes* equals one of
//!    the pre-computed save-boundary states.
//!
//! The fault injection runs through [`hidestore::failpoint::FaultVfs`]: a
//! counting run numbers every filesystem operation of the scripted
//! sequence, then one run per site crashes there (all I/O after the fault
//! fails, modeling process death). Torn-write variants re-run every write
//! site persisting only a prefix of the payload.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use hidestore::core::{
    write_staged, HiDeStore, HiDeStoreConfig, HiDeStoreError, JournalRecovery, OpenReport,
    QuarantinedArtifact,
};
use hidestore::failpoint::{FaultKind, FaultVfs, OpKind, Plan, RealVfs, Vfs};
use hidestore::fsck::{FindingKind, Severity, SystemAuditor};
use hidestore::hash::{crc32, PARALLEL_MIN_BYTES};
use hidestore::restore::Faa;
use hidestore::storage::VersionId;

/// A unique scratch directory, removed on drop. The process-wide sequence
/// number keeps parallel tests that share a tag (the targeted-crash helpers
/// below) out of each other's directories.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "hds-crash-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
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

fn config() -> HiDeStoreConfig {
    HiDeStoreConfig {
        avg_chunk_size: 1024,
        container_capacity: 16 * 1024,
        ..HiDeStoreConfig::default()
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

/// The three version payloads of the scripted sequence: churned evolutions
/// of one base, so each backup demotes cold chunks into archival containers.
fn version_payloads() -> Vec<Vec<u8>> {
    let mut data = noise(30_000, 1);
    let mut out = Vec::new();
    for round in 0..3u64 {
        out.push(data.clone());
        let start = (round as usize * 7_000) % 20_000;
        let patch = noise(6_000, 100 + round);
        data[start..start + patch.len()].copy_from_slice(&patch);
    }
    out
}

/// The scripted lifecycle under test. `saves` caps how many save boundaries
/// run (used to build the reference states); `usize::MAX` runs everything:
/// three backup+save rounds, then delete_expired(V1) + save.
fn run_sequence<V: Vfs>(dir: &Path, vfs: V, saves: usize) -> Result<(), HiDeStoreError> {
    run_sequence_of(dir, vfs, saves, &version_payloads())
}

/// [`run_sequence`] over explicit payloads, so the matrix can also run
/// versions that cross the front end's one-thread crossover.
fn run_sequence_of<V: Vfs>(
    dir: &Path,
    vfs: V,
    saves: usize,
    payloads: &[Vec<u8>],
) -> Result<(), HiDeStoreError> {
    let (mut hds, _) = HiDeStore::open_repository_with(config(), dir, vfs)?;
    let mut done = 0;
    for data in payloads {
        if done >= saves {
            return Ok(());
        }
        hds.backup(data)?;
        hds.save_repository(dir)?;
        done += 1;
    }
    if done >= saves {
        return Ok(());
    }
    hds.delete_expired(VersionId::new(1))?;
    hds.save_repository(dir)?;
    Ok(())
}

/// Reopens `dir` and captures its logical state: version -> CRC-32 of the
/// restored bytes. Also asserts the audit carries no `Error` finding and
/// nothing beyond quarantine warnings.
fn reopen_and_check(dir: &Path, context: &str) -> (BTreeMap<u32, u32>, OpenReport) {
    reopen_and_check_with(config(), dir, context)
}

/// [`reopen_and_check`] for a repository written with `config`.
fn reopen_and_check_with(
    config: HiDeStoreConfig,
    dir: &Path,
    context: &str,
) -> (BTreeMap<u32, u32>, OpenReport) {
    let (hds, report) = HiDeStore::open_repository_with(config, dir, RealVfs)
        .unwrap_or_else(|e| panic!("{context}: reopen after crash must succeed: {e}"));
    let audit = SystemAuditor::new().audit(&hds);
    assert_eq!(
        audit.count(Severity::Error),
        0,
        "{context}: audit must be error-free, got:\n{:#?}",
        audit.findings
    );
    assert!(
        audit.findings.iter().all(|f| matches!(
            f.kind,
            FindingKind::QuarantinedArtifact { .. } | FindingKind::QuarantinedRef { .. }
        )),
        "{context}: only quarantine warnings tolerated, got:\n{:#?}",
        audit.findings
    );
    let mut state = BTreeMap::new();
    for v in hds.versions() {
        let mut out = Vec::new();
        hds.restore(v, &mut Faa::new(1 << 18), &mut out)
            .unwrap_or_else(|e| panic!("{context}: retained {v} must restore: {e}"));
        state.insert(v.get(), crc32(&out));
    }
    (state, report)
}

/// The states a crash is allowed to land in: one per save boundary (0 saves
/// = fresh repository, up through the full sequence).
fn boundary_states(tag: &str) -> Vec<BTreeMap<u32, u32>> {
    boundary_states_of(tag, &version_payloads())
}

/// [`boundary_states`] of the sequence over explicit payloads.
fn boundary_states_of(tag: &str, payloads: &[Vec<u8>]) -> Vec<BTreeMap<u32, u32>> {
    (0..=4)
        .map(|saves| {
            let scratch = Scratch::new(&format!("{tag}-boundary-{saves}"));
            run_sequence_of(&scratch.0, hidestore::failpoint::RealVfs, saves, payloads)
                .expect("unfaulted boundary build");
            reopen_and_check(&scratch.0, &format!("boundary {saves}")).0
        })
        .collect()
}

fn assert_at_boundary(state: &BTreeMap<u32, u32>, boundaries: &[BTreeMap<u32, u32>], ctx: &str) {
    assert!(
        boundaries.contains(state),
        "{ctx}: recovered state {:?} matches no save boundary {:?}",
        state,
        boundaries
            .iter()
            .map(|b| b.keys().collect::<Vec<_>>())
            .collect::<Vec<_>>()
    );
}

/// One crash run: arm the fault, run the sequence (it must fail — the crash
/// model kills every op after the fault), reopen, check.
fn crash_at(site: u64, kind: FaultKind, boundaries: &[BTreeMap<u32, u32>], tag: &str) {
    let scratch = Scratch::new(&format!("{tag}-site-{site}"));
    let vfs = FaultVfs::new(Plan::armed(site, kind));
    let result = run_sequence(&scratch.0, vfs.clone(), usize::MAX);
    assert!(
        vfs.plan().fired(),
        "{tag} site {site}: the fault must have fired"
    );
    assert!(
        result.is_err(),
        "{tag} site {site}: a crashed sequence cannot succeed"
    );
    let ctx = format!("{tag} site {site}");
    let (state, _) = reopen_and_check(&scratch.0, &ctx);
    assert_at_boundary(&state, boundaries, &ctx);
}

#[test]
fn crash_matrix_every_site() {
    // Counting run: number every filesystem op of the full sequence.
    let scratch = Scratch::new("count");
    let vfs = FaultVfs::new(Plan::counting());
    run_sequence(&scratch.0, vfs.clone(), usize::MAX).expect("counting run");
    let total = vfs.plan().ops();
    assert!(
        total > 50,
        "sequence too small to be interesting: {total} ops"
    );
    drop(scratch);

    let boundaries = boundary_states("matrix");
    for site in 0..total {
        crash_at(site, FaultKind::Error, &boundaries, "matrix");
    }
}

#[test]
fn crash_matrix_torn_writes() {
    // Same matrix, but every write site persists only half its payload
    // before the crash — the torn-write model of a power failure.
    let scratch = Scratch::new("torn-count");
    let vfs = FaultVfs::new(Plan::counting());
    run_sequence(&scratch.0, vfs.clone(), usize::MAX).expect("counting run");
    let writes: Vec<(u64, usize)> = vfs
        .plan()
        .trace()
        .into_iter()
        .filter(|op| op.kind == OpKind::Write && op.len >= 2)
        .map(|op| (op.index, op.len))
        .collect();
    assert!(!writes.is_empty());
    drop(scratch);

    let boundaries = boundary_states("torn");
    for (site, len) in writes {
        crash_at(site, FaultKind::Torn(len / 2), &boundaries, "torn");
    }
}

/// Seeded pseudo-random variant: random payload shapes, random crash sites.
/// Vendored xorshift64* keeps it deterministic without external crates.
#[test]
fn crash_matrix_seeded_random_sites() {
    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }
    }
    let mut rng = Rng(0x9E37_79B9_7F4A_7C15);

    let scratch = Scratch::new("seeded-count");
    let vfs = FaultVfs::new(Plan::counting());
    run_sequence(&scratch.0, vfs.clone(), usize::MAX).expect("counting run");
    let total = vfs.plan().ops();
    let trace = vfs.plan().trace();
    drop(scratch);

    let boundaries = boundary_states("seeded");
    for trial in 0..24 {
        let site = rng.next() % total;
        // Half the trials tear the write (if the site is one) at a random
        // offset; the rest crash with a plain error.
        let kind = match trace.iter().find(|op| op.index == site) {
            Some(op) if op.kind == OpKind::Write && op.len > 0 && trial % 2 == 0 => {
                FaultKind::Torn((rng.next() % op.len as u64) as usize)
            }
            _ => FaultKind::Error,
        };
        crash_at(site, kind, &boundaries, "seeded");
    }
}

/// Payloads that cross the front end's crossover: V1 hashes on one thread,
/// V2 grows past `PARALLEL_MIN_BYTES` so it hashes on several (on a
/// multi-core machine), V3 is churned and stays above.
fn crossover_payloads() -> Vec<Vec<u8>> {
    let mut data = noise(30_000, 1);
    let mut out = vec![data.clone()];
    data.extend_from_slice(&noise(PARALLEL_MIN_BYTES, 2));
    out.push(data.clone());
    data[40_000..46_000].copy_from_slice(&noise(6_000, 3));
    out.push(data);
    out
}

/// The matrix through a sequence whose backups cross the front end's
/// one-thread crossover: the front end only changes *who computes* the in-memory
/// state, never the state itself, so the filesystem op trace must be
/// deterministic run to run and recovery must land on a save boundary.
#[test]
fn crash_matrix_threaded_backup_variant() {
    let payloads = crossover_payloads();

    // Two counting runs must produce the same op trace (paths compared
    // relative to each run's scratch directory).
    let traces: Vec<_> = (0..2)
        .map(|run| {
            let scratch = Scratch::new(&format!("mt-count-{run}"));
            let vfs = FaultVfs::new(Plan::counting());
            run_sequence_of(&scratch.0, vfs.clone(), usize::MAX, &payloads)
                .expect("mt counting run");
            vfs.plan()
                .trace()
                .into_iter()
                .map(|op| {
                    let path = op
                        .path
                        .strip_prefix(&scratch.0)
                        .unwrap_or(&op.path)
                        .to_path_buf();
                    (op.index, op.kind, path, op.len)
                })
                .collect::<Vec<_>>()
        })
        .collect();
    assert_eq!(
        traces[0], traces[1],
        "the threaded front end made the filesystem op trace nondeterministic"
    );
    let mt_trace = &traces[0];

    // Seeded crash-site sample through the crossing sequence; recovery must
    // land on one of its save boundaries.
    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }
    }
    let mut rng = Rng(0x5EED_CAFE);
    let boundaries = boundary_states_of("mt", &payloads);
    let total = mt_trace.len() as u64;
    for trial in 0..12 {
        let site = rng.next() % total;
        let kind = match mt_trace.iter().find(|op| op.0 == site) {
            Some(&(_, kind, _, len)) if kind == OpKind::Write && len > 0 && trial % 2 == 0 => {
                FaultKind::Torn((rng.next() % len as u64) as usize)
            }
            _ => FaultKind::Error,
        };
        let scratch = Scratch::new(&format!("mt-site-{site}"));
        let vfs = FaultVfs::new(Plan::armed(site, kind));
        let result = run_sequence_of(&scratch.0, vfs.clone(), usize::MAX, &payloads);
        assert!(
            vfs.plan().fired() && result.is_err(),
            "mt site {site}: the fault must fire and fail the sequence"
        );
        let ctx = format!("mt site {site}");
        let (state, _) = reopen_and_check(&scratch.0, &ctx);
        assert_at_boundary(&state, &boundaries, &ctx);
    }
}

// ---------------------------------------------------------------------------
// Archival re-clustering crashed at every site: it writes fresh containers
// and defers removing the old ones to the next save.
// ---------------------------------------------------------------------------

/// Containers small enough that one version's cold set spans several, so
/// re-clustering has multi-container tag groups to repack.
fn recluster_config() -> HiDeStoreConfig {
    HiDeStoreConfig {
        container_capacity: 8 * 1024,
        ..config()
    }
}

/// Churned versions whose 16 KB edits demote two or more containers' worth
/// of cold chunks per version.
fn recluster_payloads() -> Vec<Vec<u8>> {
    let mut data = noise(40_000, 9);
    let mut out = Vec::new();
    for round in 0..3u64 {
        out.push(data.clone());
        let start = (round as usize * 11_000) % 24_000;
        data[start..start + 16_000].copy_from_slice(&noise(16_000, 300 + round));
    }
    out
}

/// The scripted maintenance lifecycle: one backup+save round per payload,
/// then `recluster_archival` + save, then delete_expired(V1) + save — five
/// save boundaries for three payloads. Returns the tag groups the recluster
/// pass repacked (0 when it did not run).
fn run_pass_sequence<V: Vfs>(
    dir: &Path,
    vfs: V,
    saves: usize,
    config: HiDeStoreConfig,
    payloads: &[Vec<u8>],
) -> Result<u64, HiDeStoreError> {
    let (mut hds, _) = HiDeStore::open_repository_with(config, dir, vfs)?;
    let mut done = 0;
    for data in payloads {
        if done >= saves {
            return Ok(0);
        }
        hds.backup(data)?;
        hds.save_repository(dir)?;
        done += 1;
    }
    if done >= saves {
        return Ok(0);
    }
    let tag_groups = hds.recluster_archival()?.tag_groups;
    hds.save_repository(dir)?;
    done += 1;
    if done >= saves {
        return Ok(tag_groups);
    }
    hds.delete_expired(VersionId::new(1))?;
    hds.save_repository(dir)?;
    Ok(tag_groups)
}

/// Crashes the maintenance lifecycle at every filesystem op site: recovery
/// must land exactly on a save boundary — a crash mid-pass either rolls
/// back (fresh-id containers quarantined as residue) or rolls forward
/// (journaled removals applied), never a torn mix. The audit bar is
/// [`reopen_and_check`]'s: no errors, nothing beyond quarantine warnings.
fn sweep_pass_every_site(tag: &str, config: HiDeStoreConfig, payloads: &[Vec<u8>]) {
    let scratch = Scratch::new(&format!("{tag}-count"));
    let vfs = FaultVfs::new(Plan::counting());
    let tag_groups = run_pass_sequence(&scratch.0, vfs.clone(), usize::MAX, config, payloads)
        .expect("counting run");
    let total = vfs.plan().ops();
    assert!(total > 50, "{tag}: sequence too small: {total} ops");
    assert!(
        tag_groups > 0,
        "{tag}: no multi-container tag group to repack"
    );
    drop(scratch);

    let boundaries: Vec<BTreeMap<u32, u32>> = (0..=payloads.len() + 2)
        .map(|saves| {
            let scratch = Scratch::new(&format!("{tag}-boundary-{saves}"));
            let real = hidestore::failpoint::RealVfs;
            run_pass_sequence(&scratch.0, real, saves, config, payloads)
                .expect("unfaulted boundary build");
            reopen_and_check_with(config, &scratch.0, &format!("{tag} boundary {saves}")).0
        })
        .collect();

    for site in 0..total {
        let scratch = Scratch::new(&format!("{tag}-site-{site}"));
        let vfs = FaultVfs::new(Plan::armed(site, FaultKind::Error));
        let result = run_pass_sequence(&scratch.0, vfs.clone(), usize::MAX, config, payloads);
        assert!(
            vfs.plan().fired() && result.is_err(),
            "{tag} site {site}: the fault must fire and fail the sequence"
        );
        let ctx = format!("{tag} site {site}");
        let (state, _) = reopen_and_check_with(config, &scratch.0, &ctx);
        assert_at_boundary(&state, &boundaries, &ctx);
    }
}

/// The recluster lifecycle: committed containers are never overwritten, so
/// a crash anywhere in the pass or its save keeps every committed version.
#[test]
fn crash_matrix_recluster_every_site() {
    sweep_pass_every_site("recluster", recluster_config(), &recluster_payloads());
}

/// Re-clustering dropped before its save — a crash, or a save that failed —
/// leaves the committed layout intact: every committed version restores
/// byte-exact and each fresh container sits in quarantine as residue.
#[test]
fn recluster_dropped_before_save_keeps_committed_versions() {
    let scratch = Scratch::new("recluster-unsaved");
    let config = HiDeStoreConfig {
        avg_chunk_size: 1024,
        container_capacity: 8 * 1024,
        ..HiDeStoreConfig::small_for_tests()
    };
    let mut data = noise(200_000, 41);
    let mut snapshots = Vec::new();
    let rewritten = {
        let mut hds = HiDeStore::open_repository(config, &scratch.0).expect("open");
        for round in 0..8u64 {
            hds.backup(&data).expect("backup");
            snapshots.push(data.clone());
            let start = (round as usize * 23_000) % 150_000;
            data[start..start + 20_000].copy_from_slice(&noise(20_000, 900 + round));
        }
        hds.save_repository(&scratch.0).expect("save");
        let report = hds.recluster_archival().expect("recluster");
        assert!(report.containers_rewritten > 0, "{report:?}");
        report.containers_rewritten
    };

    let (hds, open) = HiDeStore::open_repository_with(config, &scratch.0, RealVfs).expect("reopen");
    for (i, snapshot) in snapshots.iter().enumerate() {
        let v = VersionId::new(i as u32 + 1);
        let mut out = Vec::new();
        hds.restore(v, &mut Faa::new(1 << 18), &mut out)
            .unwrap_or_else(|e| panic!("committed {v} must restore: {e}"));
        assert!(out == *snapshot, "{v} restored wrong bytes");
    }
    let audit = SystemAuditor::new().audit(&hds);
    assert_eq!(audit.count(Severity::Error), 0, "{:#?}", audit.findings);
    assert_eq!(
        open.quarantined.len() as u64,
        rewritten,
        "{:?}",
        open.quarantined
    );
    assert!(open
        .quarantined
        .iter()
        .all(|q| matches!(q.artifact, QuarantinedArtifact::ArchivalContainer(_))));
}

// ---------------------------------------------------------------------------
// Targeted commit-protocol cases: the three classically wrong crash windows.
// ---------------------------------------------------------------------------

/// Locates interesting sites within the *second* save of a two-save
/// sequence: the COMMIT record write, the first publish rename after it, and
/// the first directory fsync after the last publish rename.
fn second_save_sites() -> (u64, u64, u64, usize) {
    let scratch = Scratch::new("targeted-count");
    let vfs = FaultVfs::new(Plan::counting());
    run_sequence(&scratch.0, vfs.clone(), 2).expect("counting run");
    let trace = vfs.plan().trace();
    let commit_writes: Vec<&hidestore::failpoint::OpRecord> = trace
        .iter()
        .filter(|op| op.kind == OpKind::Write && op.path.ends_with("COMMIT"))
        .collect();
    assert_eq!(commit_writes.len(), 2, "one COMMIT per save");
    let commit = commit_writes[1];
    let renames_after: Vec<u64> = trace
        .iter()
        .filter(|op| op.kind == OpKind::Rename && op.index > commit.index)
        .map(|op| op.index)
        .collect();
    assert!(
        !renames_after.is_empty(),
        "the publish renames staged files"
    );
    let first_rename = renames_after[0];
    let last_rename = *renames_after.last().expect("non-empty");
    let sync_after_publish = trace
        .iter()
        .find(|op| op.kind == OpKind::SyncDir && op.index > last_rename)
        .expect("publish fsyncs the touched directories")
        .index;
    (commit.index, first_rename, sync_after_publish, commit.len)
}

fn two_save_boundaries() -> (BTreeMap<u32, u32>, BTreeMap<u32, u32>) {
    let b1 = {
        let s = Scratch::new("targeted-b1");
        run_sequence(&s.0, hidestore::failpoint::RealVfs, 1).expect("build");
        reopen_and_check(&s.0, "targeted boundary 1").0
    };
    let b2 = {
        let s = Scratch::new("targeted-b2");
        run_sequence(&s.0, hidestore::failpoint::RealVfs, 2).expect("build");
        reopen_and_check(&s.0, "targeted boundary 2").0
    };
    (b1, b2)
}

fn targeted_crash(site: u64, kind: FaultKind, tag: &str) -> (BTreeMap<u32, u32>, OpenReport) {
    let scratch = Scratch::new(tag);
    let vfs = FaultVfs::new(Plan::armed(site, kind));
    let result = run_sequence(&scratch.0, vfs.clone(), 2);
    assert!(
        vfs.plan().fired() && result.is_err(),
        "{tag}: fault must fire"
    );
    reopen_and_check(&scratch.0, tag)
}

#[test]
fn torn_commit_record_rolls_back_to_pre_save_state() {
    let (commit_site, _, _, commit_len) = second_save_sites();
    let (b1, _) = two_save_boundaries();
    // Half a COMMIT record on disk: its trailing CRC cannot validate, so the
    // transaction never committed and recovery must discard it.
    let (state, report) =
        targeted_crash(commit_site, FaultKind::Torn(commit_len / 2), "torn-commit");
    assert_eq!(report.journal, JournalRecovery::RolledBack);
    assert_eq!(state, b1, "a torn commit record must land pre-save");
}

#[test]
fn crash_before_publish_rolls_forward() {
    let (_, first_rename, _, _) = second_save_sites();
    let (_, b2) = two_save_boundaries();
    // The fsynced COMMIT record is the commit point: dying before the first
    // publish rename must still surface the *new* state after recovery.
    let (state, report) = targeted_crash(first_rename, FaultKind::Error, "pre-publish");
    assert_eq!(report.journal, JournalRecovery::RolledForward);
    assert_eq!(state, b2, "a committed transaction must roll forward");
}

#[test]
fn crash_after_publish_before_dir_fsync_rolls_forward() {
    let (_, _, sync_site, _) = second_save_sites();
    let (_, b2) = two_save_boundaries();
    // Every staged file is renamed into place but no directory fsync has
    // happened: the journal is still present, so replaying the (idempotent)
    // apply completes the publish.
    let (state, report) = targeted_crash(sync_site, FaultKind::Error, "post-publish");
    assert_eq!(report.journal, JournalRecovery::RolledForward);
    assert_eq!(state, b2, "replayed publish must complete");
}

// ---------------------------------------------------------------------------
// Restore under container-read faults.
// ---------------------------------------------------------------------------

/// A fault at any container read of a restore must surface a typed error
/// and — because restore output stages to `<path>.tmp` and only renames on
/// success — leave neither a partial output file nor the staging file
/// behind.
#[test]
fn restore_read_fault_fails_typed_and_leaves_no_partial_output() {
    let scratch = Scratch::new("restore-fault");
    run_sequence(&scratch.0, hidestore::failpoint::RealVfs, 3).expect("build repo");

    // Counting pass: number the filesystem reads of open + one restore of the oldest (most archival-dependent) version.
    let vfs = FaultVfs::new(Plan::counting());
    let outfile = scratch.0.join("restored.bin");
    let restore_once = |vfs: FaultVfs, out: &Path| -> Result<(), HiDeStoreError> {
        let (hds, _) = HiDeStore::open_repository_with(config(), &scratch.0, vfs)?;
        write_staged(out, |w| {
            hds.restore(VersionId::new(1), &mut Faa::new(1 << 18), w)
        })?;
        Ok(())
    };
    restore_once(vfs.clone(), &outfile).expect("unfaulted restore");
    let expected = std::fs::read(&outfile).expect("restored output exists");
    assert!(!expected.is_empty());
    std::fs::remove_file(&outfile).expect("clean up reference output");
    let container_reads: Vec<u64> = vfs
        .plan()
        .trace()
        .into_iter()
        .filter(|op| op.kind == OpKind::Read && op.path.extension().is_some_and(|x| x == "ctr"))
        .map(|op| op.index)
        .collect();
    assert!(
        container_reads.len() > 2,
        "restore must read containers through the vfs: {container_reads:?}"
    );

    // Fault every container-read site. Early sites fault reads issued
    // during open/recovery; later ones hit the restore scheme's own reads —
    // all must fail typed with no output file residue.
    for site in container_reads {
        let vfs = FaultVfs::new(Plan::armed(site, FaultKind::Error));
        let err =
            restore_once(vfs.clone(), &outfile).expect_err("a faulted restore cannot succeed");
        assert!(
            vfs.plan().fired(),
            "site {site}: the container-read fault must fire"
        );
        assert!(
            matches!(err, HiDeStoreError::Storage(_) | HiDeStoreError::Restore(_)),
            "site {site}: expected a typed storage/restore error, got: {err}"
        );
        assert!(
            !outfile.exists(),
            "site {site}: failed restore left a partial output file"
        );
        assert!(
            !scratch.0.join("restored.bin.tmp").exists(),
            "site {site}: failed restore left its staging file"
        );
    }

    // And with the faults gone, the same restore succeeds again.
    restore_once(FaultVfs::new(Plan::counting()), &outfile).expect("post-fault restore");
    assert_eq!(
        std::fs::read(&outfile).expect("restored output"),
        expected,
        "recovered restore must reproduce the reference bytes"
    );
}

// ---------------------------------------------------------------------------
// Tree lifecycle: the same crash discipline for directory-tree backups.
// ---------------------------------------------------------------------------

/// Builds the small source tree the matrix backs up: nested dirs, an empty
/// file, an empty dir, and a symlink — every entry shape the manifest
/// stores. Built with `std::fs`, so fixture construction adds no ops to the
/// faulted sequence.
fn build_tree_fixture(src: &Path) {
    for (rel, seed, len) in [
        ("notes.txt", 21u64, 2_500usize),
        ("src/alpha.rs", 22, 5_000),
        ("src/beta.rs", 23, 3_000),
        ("src/deep/gamma.rs", 24, 4_000),
        ("empty.dat", 25, 0),
    ] {
        let path = src.join(rel);
        std::fs::create_dir_all(path.parent().expect("fixture parent")).expect("fixture dirs");
        std::fs::write(&path, noise(len, seed)).expect("fixture file");
    }
    std::fs::create_dir_all(src.join("bare-dir")).expect("fixture empty dir");
    #[cfg(unix)]
    std::os::unix::fs::symlink("src/alpha.rs", src.join("link")).expect("fixture symlink");
}

/// The scripted tree lifecycle: open → backup-tree ×2 (identical source, so
/// the second round exercises dedup against the first) → restore-tree V1.
/// Source reads, repository I/O, and destination writes all flow through
/// the same `vfs`. Returns whether every per-entry operation completed —
/// a crashed run must come back `Err` *or* `Ok(false)` (tree ops skip
/// failing entries instead of aborting).
fn run_tree_sequence<V: Vfs>(
    repo: &Path,
    src: &Path,
    dest: &Path,
    vfs: V,
    saves: usize,
) -> Result<bool, String> {
    use hidestore::tree::{backup_tree, restore_tree, TreeBackupOptions, TreeRestoreOptions};
    let (mut hds, _) =
        HiDeStore::open_repository_with(config(), repo, vfs.clone()).map_err(|e| e.to_string())?;
    let mut complete = true;
    let mut done = 0;
    for _ in 0..2 {
        if done >= saves {
            return Ok(complete);
        }
        let report = backup_tree(&mut hds, &vfs, src, &TreeBackupOptions::default())
            .map_err(|e| e.to_string())?;
        complete &= report.is_complete();
        hds.save_repository(repo).map_err(|e| e.to_string())?;
        done += 1;
    }
    if done >= saves {
        return Ok(complete);
    }
    let report = restore_tree(
        &hds,
        &vfs,
        VersionId::new(1),
        dest,
        &TreeRestoreOptions::default(),
    )
    .map_err(|e| e.to_string())?;
    complete &= report.is_complete();
    Ok(complete)
}

/// Every non-staging file that made it into `dest` must byte-match its
/// source counterpart, and every symlink its target — a crashed restore may
/// be a *prefix* of the tree (plus `.hds-tmp` staging residue), but never a
/// torn or renamed-but-wrong file.
fn assert_dest_is_clean_prefix(src: &Path, dest: &Path) {
    if !dest.exists() {
        return;
    }
    fn walk(src: &Path, dest: &Path) {
        for entry in std::fs::read_dir(dest).expect("read dest dir") {
            let entry = entry.expect("dest entry");
            let name = entry.file_name();
            if name.to_string_lossy().ends_with(".hds-tmp") {
                continue; // staging residue of the crash — allowed
            }
            let d = entry.path();
            let s = src.join(&name);
            let meta = std::fs::symlink_metadata(&d).expect("dest lstat");
            if meta.file_type().is_symlink() {
                assert_eq!(
                    std::fs::read_link(&d).expect("dest link"),
                    std::fs::read_link(&s).expect("src link"),
                    "symlink target mismatch at {}",
                    d.display()
                );
            } else if meta.is_dir() {
                walk(&s, &d);
            } else {
                assert_eq!(
                    std::fs::read(&d).expect("dest file"),
                    std::fs::read(&s).expect("src file"),
                    "restored file differs from source at {}",
                    d.display()
                );
            }
        }
    }
    walk(src, dest);
}

#[test]
fn crash_matrix_tree_lifecycle() {
    let fixture = Scratch::new("tree-src");
    let src = fixture.0.join("tree");
    build_tree_fixture(&src);

    // Counting run: number every op of the full tree lifecycle.
    let scratch = Scratch::new("tree-count");
    let vfs = FaultVfs::new(Plan::counting());
    let complete = run_tree_sequence(
        &scratch.0.join("repo"),
        &src,
        &scratch.0.join("dest"),
        vfs.clone(),
        usize::MAX,
    )
    .expect("counting run");
    assert!(complete, "unfaulted tree lifecycle must be complete");
    let total = vfs.plan().ops();
    assert!(
        total > 80,
        "tree sequence too small to be interesting: {total} ops"
    );
    drop(scratch);

    // Repository boundary states: 0, 1, or 2 tree backups saved (the
    // restore phase never mutates the repository).
    let boundaries: Vec<BTreeMap<u32, u32>> = (0..=2)
        .map(|saves| {
            let s = Scratch::new(&format!("tree-boundary-{saves}"));
            run_tree_sequence(
                &s.0.join("repo"),
                &src,
                &s.0.join("dest"),
                hidestore::failpoint::RealVfs,
                saves,
            )
            .expect("unfaulted boundary build");
            reopen_and_check(&s.0.join("repo"), &format!("tree boundary {saves}")).0
        })
        .collect();

    for site in 0..total {
        let s = Scratch::new(&format!("tree-site-{site}"));
        let repo = s.0.join("repo");
        let dest = s.0.join("dest");
        let vfs = FaultVfs::new(Plan::armed(site, FaultKind::Error));
        let result = run_tree_sequence(&repo, &src, &dest, vfs.clone(), usize::MAX);
        assert!(
            vfs.plan().fired(),
            "tree site {site}: the fault must have fired"
        );
        match result {
            Err(_) => {}
            Ok(complete) => assert!(
                !complete,
                "tree site {site}: a crashed lifecycle cannot be complete"
            ),
        }
        let ctx = format!("tree site {site}");
        let (state, _) = reopen_and_check(&repo, &ctx);
        assert_at_boundary(&state, &boundaries, &ctx);
        assert_dest_is_clean_prefix(&src, &dest);
    }
}
