//! Cross-component integration: combinations that no single crate's unit
//! tests exercise — audited, byte-exact restores over HiDeStore's two-tier
//! layout, the Belady bound against HiDeStore's layout, recluster +
//! deletion + persistence interacting on one repository, and the audit the
//! daemon's `Verify` runs touching nothing but containers.

use hidestore::core::{HiDeStore, HiDeStoreConfig, RepositoryHandle};
use hidestore::failpoint::{FaultVfs, OpKind};
use hidestore::fsck::SystemAuditor;
use hidestore::restore::{BeladyCache, ChunkLru, Faa, RestoreCache};
use hidestore::storage::{FileContainerStore, MemoryContainerStore, VersionId};
use hidestore::workloads::{Profile, VersionStream};

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
        container_capacity: 32 * 1024,
        ..HiDeStoreConfig::default()
    }
}

fn ingest(n: u32, seed: u64) -> (HiDeStore<MemoryContainerStore>, Vec<Vec<u8>>) {
    let versions =
        VersionStream::new(Profile::Kernel.spec().scaled(800_000, n), seed).all_versions();
    let mut hds = HiDeStore::new(hds_config(), MemoryContainerStore::new());
    for v in &versions {
        hds.backup(v).unwrap();
    }
    (hds, versions)
}

#[test]
fn verified_restore_over_hidestore_two_tier_layout() {
    let (hds, versions) = ingest(5, 1);
    // Every version restores byte-exactly, including chunks served from the
    // active pool through the composite store, and every stored chunk in
    // both tiers matches its fingerprint.
    for (i, expect) in versions.iter().enumerate() {
        let mut out = Vec::new();
        hds.restore(
            VersionId::new(i as u32 + 1),
            &mut Faa::new(1 << 18),
            &mut out,
        )
        .unwrap_or_else(|e| panic!("restore of V{} failed: {e}", i + 1));
        assert_eq!(&out, expect);
    }
    let audit = SystemAuditor::new().audit(&hds);
    assert!(audit.is_clean(), "{audit}");
}

#[test]
fn belady_bound_holds_on_hidestore_layout() {
    let (mut hds, versions) = ingest(6, 2);
    hds.flatten_recipes();
    let newest = VersionId::new(versions.len() as u32);
    let reads = |hds: &mut HiDeStore<MemoryContainerStore>, cache: &mut dyn RestoreCache| {
        hds.restore(newest, cache, &mut std::io::sink())
            .unwrap()
            .container_reads
    };
    // At equal container budgets, the clairvoyant cache can never need more
    // reads than LRU-family schemes — also true on the two-tier layout.
    let budget = 4;
    let optimal = reads(&mut hds, &mut BeladyCache::new(budget));
    let chunk_lru = reads(&mut hds, &mut ChunkLru::new(budget * 32 * 1024));
    assert!(
        optimal <= chunk_lru,
        "belady {optimal} reads > chunk-lru {chunk_lru}"
    );
}

#[test]
fn recluster_then_delete_then_persist_round_trip() {
    // The three maintenance operations compose on a real on-disk repository.
    let dir = std::env::temp_dir().join(format!("hidestore-cross-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let versions = VersionStream::new(Profile::Gcc.spec().scaled(600_000, 6), 5).all_versions();
    {
        let mut hds = HiDeStore::open_repository(hds_config(), &dir).unwrap();
        for v in &versions {
            hds.backup(v).unwrap();
        }
        hds.recluster_archival().unwrap();
        hds.delete_expired(VersionId::new(2)).unwrap();
        hds.save_repository(&dir).unwrap();
    }
    let reopened = HiDeStore::open_repository(hds_config(), &dir).unwrap();
    assert_eq!(reopened.versions().len(), 4);
    for v in 3..=6u32 {
        let mut out = Vec::new();
        reopened
            .restore(VersionId::new(v), &mut Faa::new(1 << 18), &mut out)
            .unwrap_or_else(|e| panic!("V{v} after recluster+delete+reopen: {e}"));
        assert_eq!(&out, &versions[(v - 1) as usize], "V{v}");
    }
    let audit = SystemAuditor::new().audit(&reopened);
    assert!(audit.is_clean(), "{audit}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn incremental_ingest_into_file_repository() {
    // backup + a bare FileContainerStore (no repository open/save): the
    // ingest path against real container files.
    let dir = std::env::temp_dir().join(format!("hidestore-stream-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = FileContainerStore::open(&dir).unwrap();
    let mut hds = HiDeStore::new(hds_config(), store);
    let v1 = noise(300_000, 9);
    let mut v2 = v1.clone();
    v2[40_000..60_000].copy_from_slice(&noise(20_000, 10));

    hds.backup(&v1).unwrap();
    let s2 = hds.backup(&v2).unwrap();
    assert!(s2.stored_bytes < 60_000, "incremental ingest");
    for (v, expect) in [(1u32, &v1), (2, &v2)] {
        let mut out = Vec::new();
        hds.restore(VersionId::new(v), &mut Faa::new(1 << 18), &mut out)
            .unwrap();
        assert_eq!(&out, expect, "V{v}");
    }
    let audit = SystemAuditor::new().audit(&hds);
    assert!(audit.is_clean(), "{audit}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn trace_and_content_interleave_in_one_hidestore() {
    // A repository can mix trace-driven and content-driven versions; all
    // bookkeeping (dedup ratio, deletion) stays consistent.
    use hidestore::hash::Fingerprint;
    let mut hds = HiDeStore::new(hds_config(), MemoryContainerStore::new());
    let trace: Vec<(Fingerprint, u32)> = (0..500u64)
        .map(|i| (Fingerprint::synthetic(i), 1024))
        .collect();
    hds.backup_trace(&trace).unwrap();
    let data = noise(200_000, 11);
    hds.backup(&data).unwrap();
    hds.backup_trace(&trace).unwrap(); // trace chunks went cold, re-stored
    assert_eq!(hds.versions().len(), 3);
    let mut out = Vec::new();
    hds.restore(VersionId::new(2), &mut Faa::new(1 << 18), &mut out)
        .unwrap();
    assert_eq!(out, data, "content version sandwiched between traces");
    hds.delete_expired(VersionId::new(1)).unwrap();
    let mut out = Vec::new();
    hds.restore(VersionId::new(3), &mut Faa::new(1 << 18), &mut out)
        .unwrap();
    assert_eq!(out.len(), 500 * 1024);
}

/// The daemon's `Verify` audits its tenant's open instance under the
/// handle's read lock: the audit reads archival containers and nothing
/// else — no directory listing, no rename into quarantine, no recipe,
/// active-pool or meta file.
#[test]
fn audit_through_the_handle_touches_only_containers() {
    let dir = std::env::temp_dir().join(format!("hidestore-audit-reads-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    HiDeStoreConfig::small_for_tests().save_to(&dir).unwrap();
    let vfs = FaultVfs::counting();
    let handle = RepositoryHandle::open_with(&dir, vfs.clone()).unwrap();
    for i in 0..3 {
        handle.write(|s| s.backup(&noise(60_000, 40 + i))).unwrap();
    }
    let before = vfs.trace().len();
    let audit = handle.read(|s| SystemAuditor::new().audit(s)).unwrap();
    assert!(audit.is_clean(), "{audit}");
    let trace = vfs.trace();
    let reads = &trace[before..];
    assert!(!reads.is_empty(), "V1's chunks went cold into containers");
    for op in reads {
        let name = op.path.file_name().unwrap().to_string_lossy();
        assert!(
            op.kind == OpKind::Read
                && op.path.parent() == Some(dir.join("archival").as_path())
                && name.starts_with('c')
                && name.ends_with(".ctr"),
            "the audit touched more than a container: {op:?}"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
