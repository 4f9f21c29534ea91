//! Differential suite for the restore schemes on the one restore path.
//!
//! `scheme.restore(plan, store, out)` against the archival + active view is
//! the only way a version is restored, so the schemes are compared with each
//! other and with the device underneath them. For every scheme × cache
//! capacity, over a fresh (2-version) repository and a heavily fragmented
//! one (20 mutated versions, recipes flattened), restoring the
//! most-relocated oldest version and the newest:
//!
//! * every scheme restores data byte-identical to the original;
//! * every scheme × capacity reads and hits exactly what `GOLDEN` recorded;
//! * the reported reads are the device's reads — the archival store serves
//!   no more container reads than `RestoreReport::container_reads` says, and
//!   exactly that many when the plan names no active container;
//! * `BeladyCache` (the optimal reference) never reads more than
//!   `ContainerLru` at equal slots;
//! * FAA and ALACC reads are non-increasing in capacity;
//! * a byte range of a version restores the matching slice of the full
//!   restore, reading no more containers than it;
//! * a reopened on-disk repository, whose containers are decoded from their
//!   files, restores every version with the reads of a memory-backed one.

use std::collections::HashMap;
use std::path::{Path, PathBuf};

use hidestore::core::{
    HiDeStore, HiDeStoreConfig, HiDeStoreError, QuarantinedArtifact, ACTIVE_ID_BASE,
};
use hidestore::dedup::{BackupPipeline, PipelineConfig};
use hidestore::index::DdfsIndex;
use hidestore::restore::{
    Alacc, BeladyCache, ChunkLru, ContainerLru, Faa, RestoreCache, RestoreReport,
};
use hidestore::rewriting::NoRewrite;
use hidestore::storage::{ContainerStore, FileContainerStore, MemoryContainerStore, VersionId};
use hidestore::workloads::{Profile, VersionStream};

const CHUNK: usize = 1024;
const CONTAINER: usize = 32 * 1024;

fn hds_config() -> HiDeStoreConfig {
    HiDeStoreConfig {
        avg_chunk_size: CHUNK,
        container_capacity: CONTAINER,
        ..HiDeStoreConfig::default()
    }
}

/// Capacity sweep, smallest first: every scheme at a degenerate single-slot
/// cache, a two-slot cache, and a cache big enough to hold the working set.
/// (`slots` parameterizes container-granular schemes, `bytes` the
/// chunk/area-granular ones.)
const CAPACITIES: [(&str, usize, usize); 3] = [
    ("cap1", 1, CHUNK + 1),
    ("cap2", 2, 2 * CHUNK),
    ("large", 64, 1 << 20),
];

fn make_scheme(kind: &str, slots: usize, bytes: usize) -> Box<dyn RestoreCache> {
    match kind {
        "container-lru" => Box::new(ContainerLru::new(slots)),
        "chunk-lru" => Box::new(ChunkLru::new(bytes)),
        "faa" => Box::new(Faa::new(bytes)),
        "alacc" => Box::new(Alacc::new(bytes.div_ceil(2), bytes.div_ceil(2))),
        "belady" => Box::new(BeladyCache::new(slots)),
        other => unreachable!("unknown scheme {other}"),
    }
}

const SCHEMES: [&str; 5] = ["container-lru", "chunk-lru", "faa", "alacc", "belady"];

/// `(container_reads, cache_hits)` per scheme × capacity.
type SchemeCells = [[(u64, u64); 3]; 5];

/// The exact `(container_reads, cache_hits)` of every restore
/// [`assert_matrix`] runs: per tag, one row per scheme in [`SCHEMES`] order,
/// one pair per capacity in [`CAPACITIES`] order. Recorded when each scheme
/// still ran its own restore loop, so a change to how the schemes share
/// their reads must leave every pair as it is.
const GOLDEN: [(&str, SchemeCells); 10] = [
    (
        "fresh V1",
        [
            [(48, 155), (14, 189), (9, 194)],
            [(200, 3), (196, 7), (9, 194)],
            [(197, 0), (139, 0), (9, 0)],
            [(196, 7), (151, 7), (9, 0)],
            [(48, 155), (10, 193), (9, 194)],
        ],
    ),
    (
        "fresh V2",
        [
            [(7, 196), (7, 196), (7, 196)],
            [(196, 7), (191, 12), (7, 196)],
            [(197, 0), (131, 0), (7, 0)],
            [(196, 7), (140, 7), (7, 0)],
            [(7, 196), (7, 196), (7, 196)],
        ],
    ),
    (
        "fragmented V1",
        [
            [(107, 43), (94, 56), (26, 124)],
            [(149, 1), (149, 1), (25, 125)],
            [(150, 0), (141, 0), (26, 0)],
            [(146, 4), (137, 5), (26, 0)],
            [(107, 43), (76, 74), (26, 124)],
        ],
    ),
    (
        "fragmented V10",
        [
            [(106, 40), (97, 49), (20, 126)],
            [(145, 1), (143, 3), (20, 126)],
            [(145, 0), (128, 0), (20, 0)],
            [(133, 13), (121, 9), (20, 0)],
            [(106, 40), (80, 66), (20, 126)],
        ],
    ),
    (
        "fragmented V20",
        [
            [(36, 102), (6, 132), (5, 133)],
            [(134, 4), (130, 8), (5, 133)],
            [(135, 0), (97, 0), (5, 0)],
            [(134, 4), (101, 4), (5, 0)],
            [(36, 102), (5, 133), (5, 133)],
        ],
    ),
    (
        "fragmented+cold V1",
        [
            [(107, 43), (94, 56), (26, 124)],
            [(149, 1), (149, 1), (25, 125)],
            [(150, 0), (141, 0), (26, 0)],
            [(146, 4), (137, 5), (26, 0)],
            [(107, 43), (76, 74), (26, 124)],
        ],
    ),
    (
        "fragmented+cold V10",
        [
            [(106, 40), (97, 49), (20, 126)],
            [(145, 1), (143, 3), (20, 126)],
            [(145, 0), (128, 0), (20, 0)],
            [(132, 14), (121, 9), (20, 0)],
            [(106, 40), (80, 66), (20, 126)],
        ],
    ),
    (
        "fragmented+cold V20",
        [
            [(36, 102), (6, 132), (5, 133)],
            [(136, 2), (133, 5), (5, 133)],
            [(135, 0), (97, 0), (5, 0)],
            [(129, 9), (97, 9), (5, 0)],
            [(36, 102), (5, 133), (5, 133)],
        ],
    ),
    (
        "ddfs V1",
        [
            [(5, 153), (5, 153), (5, 153)],
            [(153, 5), (148, 10), (5, 153)],
            [(157, 0), (96, 0), (5, 0)],
            [(153, 5), (103, 5), (5, 0)],
            [(5, 153), (5, 153), (5, 153)],
        ],
    ),
    (
        "ddfs V6",
        [
            [(90, 72), (65, 97), (10, 152)],
            [(158, 4), (155, 7), (10, 152)],
            [(160, 0), (123, 0), (10, 0)],
            [(157, 5), (131, 5), (10, 0)],
            [(90, 72), (51, 111), (10, 152)],
        ],
    ),
];

/// Runs one version through every scheme × capacity, asserts the
/// module-level properties and the exact reads and hits of [`GOLDEN`]. `restore_once` restores the version through the
/// given cache and returns the report with the container-read delta of the
/// store underneath; `store_only` says the plan names no active container,
/// so that delta must *equal* the reported reads.
fn assert_matrix(
    tag: &str,
    expect: &[u8],
    store_only: bool,
    mut restore_once: impl FnMut(&mut dyn RestoreCache, &mut Vec<u8>) -> (RestoreReport, u64),
) {
    let golden = GOLDEN
        .iter()
        .find(|(t, _)| *t == tag)
        .unwrap_or_else(|| panic!("{tag}: no golden row"))
        .1;
    let mut reads = HashMap::new();
    for (scheme, golden) in SCHEMES.into_iter().zip(golden) {
        for ((cap_tag, slots, bytes), golden) in CAPACITIES.into_iter().zip(golden) {
            let tag = format!("{tag}/{scheme}/{cap_tag}");
            let mut out = Vec::new();
            let (report, device_reads) =
                restore_once(make_scheme(scheme, slots, bytes).as_mut(), &mut out);
            assert_eq!(out, expect, "{tag}: bytes differ from original");
            assert_eq!(report.bytes_restored, expect.len() as u64, "{tag}");
            assert_eq!(report.cache_misses, report.container_reads, "{tag}");
            assert!(
                device_reads <= report.container_reads,
                "{tag}: device served {device_reads} reads, report says {}",
                report.container_reads
            );
            if store_only {
                assert_eq!(device_reads, report.container_reads, "{tag}");
            }
            assert_eq!(
                (report.container_reads, report.cache_hits),
                golden,
                "{tag}: (container_reads, cache_hits) moved from the recorded pair"
            );
            reads.insert((scheme, cap_tag), report.container_reads);
        }
    }
    for (cap_tag, _, _) in CAPACITIES {
        assert!(
            reads[&("belady", cap_tag)] <= reads[&("container-lru", cap_tag)],
            "{tag}/{cap_tag}: belady {} reads > container-lru {}",
            reads[&("belady", cap_tag)],
            reads[&("container-lru", cap_tag)]
        );
    }
    for scheme in ["faa", "alacc"] {
        for pair in CAPACITIES.windows(2) {
            let (small, large) = (pair[0].0, pair[1].0);
            assert!(
                reads[&(scheme, large)] <= reads[&(scheme, small)],
                "{tag}/{scheme}: {large} reads {} > {small} reads {}",
                reads[&(scheme, large)],
                reads[&(scheme, small)]
            );
        }
    }
}

/// [`assert_matrix`] over `versions_to_check` of a HiDeStore repository.
/// Returns how many of those versions had a plan naming no active container.
fn assert_scheme_matrix(
    repo_tag: &str,
    hds: &mut HiDeStore<MemoryContainerStore>,
    originals: &[Vec<u8>],
    versions_to_check: &[u32],
) -> usize {
    let mut archival_only_versions = 0;
    for &v in versions_to_check {
        let version = VersionId::new(v);
        let plan = hds.restore_plan(version).expect("plan");
        let archival_only = plan.iter().all(|e| e.container.get() < ACTIVE_ID_BASE);
        archival_only_versions += usize::from(archival_only);
        assert_matrix(
            &format!("{repo_tag} V{v}"),
            &originals[(v - 1) as usize],
            archival_only,
            |cache, out| {
                let before = hds.archival().stats();
                let report = hds.restore(version, cache, out).expect("restore");
                let device = hds.archival().stats().since(&before);
                (report, device.container_reads)
            },
        );
    }
    archival_only_versions
}

/// Fresh repository: two lightly-mutated versions, nothing flattened.
#[test]
fn fresh_repository_schemes_agree() {
    let originals = VersionStream::new(Profile::Kernel.spec().scaled(200_000, 2), 7).all_versions();
    let mut hds = HiDeStore::new(hds_config(), MemoryContainerStore::new());
    for v in &originals {
        hds.backup(v).unwrap();
    }
    let newest = originals.len() as u32;
    let archival_only = assert_scheme_matrix("fresh", &mut hds, &originals, &[1, newest]);
    assert_eq!(archival_only, 0, "a fresh repository serves hot chunks");
}

/// Heavily fragmented repository: 20 mutated versions, recipes flattened —
/// old versions read through many relocated archival containers. A final
/// unrelated version then turns every earlier chunk cold, so the old
/// versions' plans name archival containers only and the reported reads
/// must equal the device's reads exactly.
#[test]
fn fragmented_repository_schemes_agree() {
    let mut originals =
        VersionStream::new(Profile::Macos.spec().scaled(150_000, 20), 29).all_versions();
    let mut hds = HiDeStore::new(hds_config(), MemoryContainerStore::new());
    for v in &originals {
        hds.backup(v).unwrap();
    }
    hds.flatten_recipes();
    let newest = originals.len() as u32;
    let old = [1, newest / 2, newest];
    assert_scheme_matrix("fragmented", &mut hds, &originals, &old);

    let unrelated = VersionStream::new(Profile::Gcc.spec().scaled(150_000, 1), 5).all_versions();
    hds.backup(&unrelated[0]).unwrap();
    hds.flatten_recipes();
    originals.extend(unrelated);
    let archival_only = assert_scheme_matrix("fragmented+cold", &mut hds, &originals, &old);
    assert_eq!(
        archival_only,
        old.len(),
        "every chunk of the old versions went cold: plans must be archival-only"
    );
}

/// The Destor-style baseline has no active pool, so on every scheme ×
/// capacity the reads a `BackupPipeline::restore` reports are exactly the
/// reads its container store served.
#[test]
fn baseline_pipeline_reads_are_the_stores_reads() {
    let originals = VersionStream::new(Profile::Kernel.spec().scaled(150_000, 6), 3).all_versions();
    let mut ddfs = BackupPipeline::new(
        PipelineConfig {
            avg_chunk_size: CHUNK,
            container_capacity: CONTAINER,
            segment_chunks: 32,
            ..PipelineConfig::default()
        },
        DdfsIndex::new(),
        NoRewrite::new(),
        MemoryContainerStore::new(),
    );
    for v in &originals {
        ddfs.backup(v).unwrap();
    }
    for v in [1, originals.len() as u32] {
        assert_matrix(
            &format!("ddfs V{v}"),
            &originals[(v - 1) as usize],
            true,
            |cache, out| {
                let before = ddfs.store().stats();
                let report = ddfs
                    .restore(VersionId::new(v), cache, out)
                    .expect("restore");
                let device = ddfs.store().stats().since(&before);
                (report, device.container_reads)
            },
        );
    }
}

/// Byte ranges of one version restore as exact slices of the full restore
/// under every scheme × capacity: the empty range, the first byte, a range
/// across a chunk edge, one across a container edge, the last byte and the
/// whole version. Each reads no more containers than the full restore, and
/// the version is archival-only, so each range's reported reads are exactly
/// the reads the archival store served.
#[test]
fn byte_ranges_restore_exact_slices_under_every_scheme() {
    let versions = VersionStream::new(Profile::Kernel.spec().scaled(150_000, 2), 41).all_versions();
    let mut hds = HiDeStore::new(hds_config(), MemoryContainerStore::new());
    for v in &versions {
        hds.backup(v).unwrap();
    }
    // An unrelated version turns every earlier chunk cold.
    let unrelated = VersionStream::new(Profile::Gcc.spec().scaled(100_000, 1), 43).all_versions();
    hds.backup(&unrelated[0]).unwrap();
    hds.flatten_recipes();
    let version = VersionId::new(versions.len() as u32);
    let original = &versions[versions.len() - 1];

    let plan = hds.restore_plan(version).unwrap();
    assert!(plan.iter().all(|e| e.container.get() < ACTIVE_ID_BASE));
    let mut edges = Vec::new();
    let mut at = 0u64;
    for pair in plan.windows(2) {
        at += u64::from(pair[0].size);
        edges.push((at, pair[0].container != pair[1].container));
    }
    let chunk_edge = edges.iter().find(|&&(_, crosses)| !crosses).unwrap().0;
    let container_edge = edges.iter().find(|&&(_, crosses)| crosses).unwrap().0;
    let len = original.len() as u64;
    let ranges = [
        ("empty", 0..0),
        ("first byte", 0..1),
        ("chunk edge", chunk_edge - 3..chunk_edge + 3),
        ("container edge", container_edge - 5..container_edge + 5),
        ("last byte", len - 1..len),
        ("whole", 0..len),
    ];

    let resolved = hds.resolve(version).unwrap();
    assert_eq!(resolved.total_bytes(), len);
    for scheme in SCHEMES {
        for (cap_tag, slots, bytes) in CAPACITIES {
            let mut full_out = Vec::new();
            let full = hds
                .restore(
                    version,
                    make_scheme(scheme, slots, bytes).as_mut(),
                    &mut full_out,
                )
                .unwrap();
            assert_eq!(&full_out, original, "{scheme}/{cap_tag}");
            for (range_tag, range) in ranges.clone() {
                let tag = format!("{scheme}/{cap_tag}/{range_tag}");
                let mut out = Vec::new();
                let before = hds.archival().stats();
                let report = resolved
                    .restore_range(
                        range.clone(),
                        make_scheme(scheme, slots, bytes).as_mut(),
                        &mut out,
                    )
                    .unwrap();
                let device = hds.archival().stats().since(&before);
                assert_eq!(
                    out,
                    full_out[range.start as usize..range.end as usize],
                    "{tag}"
                );
                assert_eq!(report.bytes_restored, range.end - range.start, "{tag}");
                assert!(
                    report.container_reads <= full.container_reads,
                    "{tag}: {} reads, the full restore {}",
                    report.container_reads,
                    full.container_reads
                );
                assert_eq!(device.container_reads, report.container_reads, "{tag}");
            }
        }
    }
    let past_end =
        resolved.restore_range(len - 1..len + 1, &mut Faa::new(1 << 20), &mut Vec::new());
    assert!(
        matches!(past_end, Err(HiDeStoreError::RangeOutOfBounds { .. })),
        "{past_end:?}"
    );
}

// ---------------------------------------------------------------------------
// Edge-case regressions.
// ---------------------------------------------------------------------------

/// A zero-byte backup has an empty restore plan; every scheme restores it
/// to zero bytes without touching the store.
#[test]
fn empty_version_restores_under_every_scheme() {
    let mut hds = HiDeStore::new(hds_config(), MemoryContainerStore::new());
    hds.backup(&[]).unwrap();
    for scheme in SCHEMES {
        let mut cache = make_scheme(scheme, 1, CHUNK + 1);
        let mut out = Vec::new();
        let before = hds.archival().stats();
        let report = hds
            .restore(VersionId::new(1), cache.as_mut(), &mut out)
            .unwrap_or_else(|e| panic!("{scheme}: {e}"));
        assert!(out.is_empty(), "{scheme}");
        assert_eq!(report.bytes_restored, 0, "{scheme}");
        assert_eq!(report.container_reads, 0, "{scheme}");
        assert_eq!(hds.archival().stats(), before, "{scheme}");
    }
}

/// A version of a single chunk exercises the one-entry plan.
#[test]
fn single_chunk_version_restores_under_every_scheme() {
    let mut hds = HiDeStore::new(hds_config(), MemoryContainerStore::new());
    let data = vec![0xA5u8; 64]; // far below the minimum chunk size
    hds.backup(&data).unwrap();
    for scheme in SCHEMES {
        let mut cache = make_scheme(scheme, 1, CHUNK + 1);
        let mut out = Vec::new();
        let report = hds
            .restore(VersionId::new(1), cache.as_mut(), &mut out)
            .unwrap_or_else(|e| panic!("{scheme}: {e}"));
        assert_eq!(out, data, "{scheme}");
        assert_eq!(report.container_reads, 1, "{scheme}");
    }
}

/// Degenerate single-slot caches evict on every container transition: over
/// a fragmented old version they really thrash and still restore exact
/// bytes.
#[test]
fn capacity_one_caches_thrash_and_still_restore_exactly() {
    let originals =
        VersionStream::new(Profile::Kernel.spec().scaled(120_000, 6), 13).all_versions();
    let mut hds = HiDeStore::new(hds_config(), MemoryContainerStore::new());
    for v in &originals {
        hds.backup(v).unwrap();
    }
    hds.flatten_recipes();
    for scheme in ["container-lru", "chunk-lru"] {
        let mut cache = make_scheme(scheme, 1, CHUNK + 1);
        let mut out = Vec::new();
        let report = hds
            .restore(VersionId::new(1), cache.as_mut(), &mut out)
            .unwrap();
        assert_eq!(out, originals[0], "{scheme}");
        // A capacity-1 cache over a fragmented old version really thrashes.
        assert!(
            report.container_reads > hds.archival().ids().len() as u64 / 2,
            "{scheme}: expected a thrashing plan, got {} reads",
            report.container_reads
        );
    }
}

/// A unique scratch directory, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!(
            "hds-restore-differential-{tag}-{}",
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

fn build_churned_repo(dir: &Path) {
    let mut hds = HiDeStore::open_repository(hds_config(), dir).expect("open repository");
    let versions = VersionStream::new(Profile::Kernel.spec().scaled(120_000, 5), 31).all_versions();
    for v in &versions {
        hds.backup(v).expect("backup");
    }
    hds.save_repository(dir).expect("save repository");
}

/// A plan referencing a quarantined archival container must surface the
/// typed `PartialRestore`, raised at plan resolution before any container
/// is read.
#[test]
fn quarantined_dependency_fails_typed() {
    let scratch = Scratch::new("quarantine");
    build_churned_repo(&scratch.0);

    // Truncate one archival container on disk; the degraded reopen moves it
    // to quarantine/.
    let mut files: Vec<PathBuf> = std::fs::read_dir(scratch.0.join("archival"))
        .expect("archival dir")
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "ctr"))
        .collect();
    files.sort();
    let victim = files.into_iter().next().expect("an archival container");
    let bytes = std::fs::read(&victim).expect("read container");
    std::fs::write(&victim, &bytes[..bytes.len() / 2]).expect("truncate container");

    let hds: HiDeStore<FileContainerStore> =
        HiDeStore::open_repository(hds_config(), &scratch.0).expect("degraded reopen");
    assert_eq!(hds.quarantine().len(), 1, "{:?}", hds.quarantine());

    let mut partial = 0;
    for v in hds.versions() {
        let mut out = Vec::new();
        let before = hds.archival().stats();
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
                assert!(out.is_empty(), "V{v}: refused before writing");
                assert_eq!(
                    hds.archival().stats(),
                    before,
                    "V{v}: refused before reading"
                );
                partial += 1;
            }
            Err(other) => panic!("V{v}: expected PartialRestore, got: {other}"),
        }
    }
    assert!(partial > 0, "some version depended on the lost container");
}

/// Restores `version` of `hds` through `cache` and returns the bytes, the
/// reported container reads and the reads the archival store served.
fn restore_counted<S: ContainerStore>(
    hds: &HiDeStore<S>,
    version: VersionId,
    cache: &mut dyn RestoreCache,
) -> (Vec<u8>, u64, u64) {
    let mut out = Vec::new();
    let before = hds.archival().stats();
    let report = hds.restore(version, cache, &mut out).expect("restore");
    let device = hds.archival().stats().since(&before);
    (out, report.container_reads, device.container_reads)
}

/// The file-backed read path under every scheme × capacity. A fragmented
/// stream is backed up into an on-disk repository, which is then reopened,
/// so archival reads and the active pool both come through
/// `Container::decode` of the file's bytes. Every version restores
/// byte-exact, with the reads — reported and served — of a memory-backed
/// instance given the same inputs.
#[test]
fn file_backed_repository_reads_like_the_memory_one() {
    let originals = VersionStream::new(Profile::Macos.spec().scaled(150_000, 8), 29).all_versions();
    let scratch = Scratch::new("file-backed");
    let mut memory = HiDeStore::new(hds_config(), MemoryContainerStore::new());
    {
        let mut disk = HiDeStore::open_repository(hds_config(), &scratch.0).expect("open");
        for v in &originals {
            disk.backup(v).expect("backup");
            memory.backup(v).expect("backup");
        }
        disk.save_repository(&scratch.0).expect("save repository");
    }
    let disk: HiDeStore<FileContainerStore> =
        HiDeStore::open_repository(hds_config(), &scratch.0).expect("reopen");
    assert!(disk.quarantine().is_empty(), "{:?}", disk.quarantine());

    let mut archival_reads = 0;
    for (v, expect) in (1u32..).zip(&originals) {
        let version = VersionId::new(v);
        for scheme in SCHEMES {
            for (cap_tag, slots, bytes) in CAPACITIES {
                let tag = format!("V{v}/{scheme}/{cap_tag}");
                let cache = || make_scheme(scheme, slots, bytes);
                let (out, reported, served) = restore_counted(&disk, version, cache().as_mut());
                assert_eq!(&out, expect, "{tag}: bytes differ from original");
                let (out, mem_reported, mem_served) =
                    restore_counted(&memory, version, cache().as_mut());
                assert_eq!(&out, expect, "{tag}: memory instance differs from original");
                assert_eq!(
                    (reported, served),
                    (mem_reported, mem_served),
                    "{tag}: (reported, served) reads differ from the memory instance"
                );
                archival_reads += served;
            }
        }
    }
    assert!(archival_reads > 0, "the restores read archival containers");
}
