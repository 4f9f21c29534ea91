//! Integration tests asserting the *shape* of the paper's headline results
//! at test scale: who wins, in which direction, with which trade-off. The
//! full-scale numbers live in the `hidestore-bench` experiment binaries and
//! EXPERIMENTS.md.

use hidestore::chunking::{chunk_spans, ChunkerKind};
use hidestore::core::{HiDeStore, HiDeStoreConfig};
use hidestore::dedup::{gc, BackupPipeline, PipelineConfig};
use hidestore::hash::{Fingerprint, PARALLEL_MIN_BYTES};
use hidestore::index::{DdfsIndex, SiloConfig, SiloIndex};
use hidestore::restore::Faa;
use hidestore::rewriting::{Capping, NoRewrite, RewritePolicy};
use hidestore::storage::{ContainerStore, MemoryContainerStore, VersionId};
use hidestore::workloads::{Profile, VersionStream};

const CHUNK: usize = 1024;
const CONTAINER: usize = 64 * 1024;
const FAA_AREA: usize = 8 * CONTAINER;

fn pipeline_config() -> PipelineConfig {
    PipelineConfig {
        avg_chunk_size: CHUNK,
        container_capacity: CONTAINER,
        segment_chunks: 32,
        ..PipelineConfig::default()
    }
}

fn hds_config() -> HiDeStoreConfig {
    HiDeStoreConfig {
        avg_chunk_size: CHUNK,
        container_capacity: CONTAINER,
        ..HiDeStoreConfig::default()
    }
}

fn kernel_versions(n: u32) -> Vec<Vec<u8>> {
    VersionStream::new(Profile::Kernel.spec().scaled(2 << 20, n), 42).all_versions()
}

/// Figure 8's core claim: HiDeStore matches exact deduplication while
/// rewriting schemes lose ratio.
#[test]
fn hidestore_dedup_ratio_matches_exact_and_beats_rewriting() {
    let versions = kernel_versions(10);

    let mut hds = HiDeStore::new(hds_config(), MemoryContainerStore::new());
    for v in &versions {
        hds.backup(v).unwrap();
    }
    let mut ddfs = BackupPipeline::new(
        pipeline_config(),
        DdfsIndex::new(),
        NoRewrite::new(),
        MemoryContainerStore::new(),
    );
    for v in &versions {
        ddfs.backup(v).unwrap();
    }
    let mut capped = BackupPipeline::new(
        pipeline_config(),
        SiloIndex::new(SiloConfig::default()),
        Capping::new(4),
        MemoryContainerStore::new(),
    );
    for v in &versions {
        capped.backup(v).unwrap();
    }

    let hds_ratio = hds.run_stats().dedup_ratio();
    let ddfs_ratio = ddfs.run_stats().dedup_ratio();
    let capped_ratio = capped.run_stats().dedup_ratio();
    assert!(
        (ddfs_ratio - hds_ratio).abs() < 0.01,
        "HiDeStore {hds_ratio:.4} must match DDFS {ddfs_ratio:.4}"
    );
    assert!(
        hds_ratio > capped_ratio,
        "HiDeStore {hds_ratio:.4} must beat SiLo+Capping {capped_ratio:.4}"
    );
    assert!(
        capped.rewriter().rewritten_bytes() > 0,
        "capping should have rewritten"
    );
}

/// Figure 11's core claim: after many versions, HiDeStore restores the
/// *newest* version faster (higher speed factor) than the no-rewrite
/// baseline, while the *oldest* version is where it sacrifices.
#[test]
fn hidestore_restores_newest_version_with_fewer_reads() {
    // Enough versions for real fragmentation, and an assembly area covering
    // the whole stream so the read count is exactly the number of distinct
    // containers the version's layout touches.
    let versions = kernel_versions(14);
    let newest = VersionId::new(versions.len() as u32);
    let area = versions.last().map(Vec::len).unwrap_or(0) + CONTAINER;

    let mut hds = HiDeStore::new(hds_config(), MemoryContainerStore::new());
    for v in &versions {
        hds.backup(v).unwrap();
    }
    hds.flatten_recipes();
    let hds_sf = hds
        .restore(newest, &mut Faa::new(area), &mut std::io::sink())
        .unwrap()
        .speed_factor();

    let mut baseline = BackupPipeline::new(
        pipeline_config(),
        DdfsIndex::new(),
        NoRewrite::new(),
        MemoryContainerStore::new(),
    );
    for v in &versions {
        baseline.backup(v).unwrap();
    }
    let base_sf = baseline
        .restore(newest, &mut Faa::new(area), &mut std::io::sink())
        .unwrap()
        .speed_factor();

    assert!(
        hds_sf > base_sf,
        "newest version: HiDeStore speed factor {hds_sf:.3} must beat baseline {base_sf:.3}"
    );
}

/// The baseline's fragmentation grows over versions (paper §2.3): the
/// newest version's speed factor decreases monotonically-ish over time.
#[test]
fn baseline_speed_factor_degrades_over_versions() {
    let versions = kernel_versions(10);
    let mut baseline = BackupPipeline::new(
        pipeline_config(),
        DdfsIndex::new(),
        NoRewrite::new(),
        MemoryContainerStore::new(),
    );
    for v in &versions {
        baseline.backup(v).unwrap();
    }
    let sf = |p: &mut BackupPipeline<_, _, _>, v: u32| {
        p.restore(
            VersionId::new(v),
            &mut Faa::new(FAA_AREA),
            &mut std::io::sink(),
        )
        .unwrap()
        .speed_factor()
    };
    let early = sf(&mut baseline, 2);
    let late = sf(&mut baseline, versions.len() as u32);
    assert!(
        late < early,
        "fragmentation must grow: V2 sf {early:.3} vs newest sf {late:.3}"
    );
}

/// Figure 3's observation: chunks absent from the current version rarely
/// recur — the tag count drops once and then stays flat.
#[test]
fn version_tag_decay_is_one_step() {
    let versions = kernel_versions(6);
    let mut chunker = ChunkerKind::Tttd.build(CHUNK);
    let mut tags: std::collections::HashMap<Fingerprint, u32> = std::collections::HashMap::new();
    let mut v1_counts = Vec::new();
    for (i, data) in versions.iter().enumerate() {
        for span in chunk_spans(chunker.as_mut(), data) {
            tags.insert(Fingerprint::of(&data[span]), i as u32 + 1);
        }
        v1_counts.push(tags.values().filter(|&&t| t == 1).count());
    }
    // Big drop from after-V1 to after-V2…
    assert!(
        v1_counts[1] * 2 < v1_counts[0],
        "V1 tag count {} -> {} is not a sharp drop",
        v1_counts[0],
        v1_counts[1]
    );
    // …then essentially flat (within 10%).
    let floor = v1_counts[1].max(1);
    for (i, &c) in v1_counts.iter().enumerate().skip(2) {
        assert!(
            c * 10 >= floor * 9 && c <= floor,
            "after V{}: V1 tag count {c} moved away from plateau {floor}",
            i + 1
        );
    }
}

/// Figure 9's claim: HiDeStore's index traffic is bounded by the previous
/// recipe and does not grow with the store, unlike DDFS under a scaled
/// cache.
#[test]
fn hidestore_lookups_flat_ddfs_lookups_grow() {
    let versions = kernel_versions(10);
    let mut hds = HiDeStore::new(hds_config(), MemoryContainerStore::new());
    for v in &versions {
        hds.backup(v).unwrap();
    }
    let hds_stats = hds.version_stats();
    let early = hds_stats[2].lookup_requests;
    let late = hds_stats[9].lookup_requests;
    assert!(
        late <= early * 2,
        "HiDeStore lookups must stay bounded: V3 {early} vs V10 {late}"
    );

    let mut ddfs = BackupPipeline::new(
        pipeline_config(),
        DdfsIndex::with_cache_containers(2),
        NoRewrite::new(),
        MemoryContainerStore::new(),
    );
    for v in &versions {
        ddfs.backup(v).unwrap();
    }
    let rows = ddfs.version_stats();
    let ddfs_late = rows[9].lookup_requests;
    assert!(
        ddfs_late > late,
        "late versions: DDFS lookups {ddfs_late} must exceed HiDeStore {late}"
    );
}

/// §5.5: HiDeStore deletion reclaims space without GC and leaves survivors
/// intact; a baseline must run mark-sweep to do the same.
#[test]
fn deletion_without_gc_vs_mark_sweep() {
    let versions = kernel_versions(9);

    let mut hds = HiDeStore::new(hds_config(), MemoryContainerStore::new());
    for v in &versions {
        hds.backup(v).unwrap();
    }
    let report = hds.delete_expired(VersionId::new(3)).unwrap();
    assert!(report.containers_dropped > 0);
    for v in 4..=9u32 {
        let mut out = Vec::new();
        hds.restore(VersionId::new(v), &mut Faa::new(FAA_AREA), &mut out)
            .unwrap();
        assert_eq!(out, versions[(v - 1) as usize]);
    }

    let mut ddfs = BackupPipeline::new(
        pipeline_config(),
        DdfsIndex::new(),
        NoRewrite::new(),
        MemoryContainerStore::new(),
    );
    for v in &versions {
        ddfs.backup(v).unwrap();
    }
    let mut recipes = std::mem::take(ddfs.recipes_mut());
    let expired: Vec<VersionId> = (1..=3).map(VersionId::new).collect();
    let mut next_id = 500_000;
    let gc_report =
        gc::mark_sweep(&expired, &mut recipes, ddfs.store_mut(), 0.4, &mut next_id).unwrap();
    *ddfs.recipes_mut() = recipes;
    // The GC had to scan every container; HiDeStore touched only the
    // tag-matched ones.
    assert!(gc_report.containers_scanned as usize >= ddfs.store().ids().len());
    for v in 4..=9u32 {
        let mut out = Vec::new();
        ddfs.restore(VersionId::new(v), &mut Faa::new(FAA_AREA), &mut out)
            .unwrap();
        assert_eq!(out, versions[(v - 1) as usize]);
    }
}

/// §5.3 at equal cache budget: after a fragmented multi-version history,
/// restoring the newest version from HiDeStore's physically-local layout
/// reads strictly fewer containers than from the DDFS baseline's
/// fragmented one — with the *same* restore scheme and cache size on both.
#[test]
fn hidestore_reads_fewer_containers_than_ddfs_at_equal_cache() {
    use hidestore::restore::ContainerLru;

    let versions = kernel_versions(12);
    let newest = VersionId::new(versions.len() as u32);

    let mut hds = HiDeStore::new(hds_config(), MemoryContainerStore::new());
    for v in &versions {
        hds.backup(v).unwrap();
    }
    hds.flatten_recipes();

    let mut ddfs = BackupPipeline::new(
        pipeline_config(),
        DdfsIndex::new(),
        NoRewrite::new(),
        MemoryContainerStore::new(),
    );
    for v in &versions {
        ddfs.backup(v).unwrap();
    }

    for capacity in [2usize, 8] {
        let hds_reads = hds
            .restore(
                newest,
                &mut ContainerLru::new(capacity),
                &mut std::io::sink(),
            )
            .unwrap()
            .container_reads;
        let ddfs_reads = ddfs
            .restore(
                newest,
                &mut ContainerLru::new(capacity),
                &mut std::io::sink(),
            )
            .unwrap()
            .container_reads;
        assert!(
            hds_reads < ddfs_reads,
            "cache {capacity}: HiDeStore {hds_reads} reads must be strictly \
             fewer than DDFS {ddfs_reads}"
        );
    }
}

/// Restore correctness is front-end-independent: repositories built from
/// versions below, at, and above the front end's one-thread crossover all restore
/// every version byte-identical.
#[test]
fn new_schemes_restore_byte_identical_across_input_sizes() {
    for bytes in [256 << 10, PARALLEL_MIN_BYTES, 2 << 20] {
        let versions =
            VersionStream::new(Profile::Kernel.spec().scaled(bytes, 6), 42).all_versions();
        let mut hds = HiDeStore::new(hds_config(), MemoryContainerStore::new());
        for v in &versions {
            hds.backup(v).unwrap();
        }
        for (i, data) in versions.iter().enumerate() {
            let mut out = Vec::new();
            hds.restore(
                VersionId::new(i as u32 + 1),
                &mut Faa::new(FAA_AREA),
                &mut out,
            )
            .unwrap();
            assert_eq!(&out, data, "{bytes} B V{}", i + 1);
        }
    }
}

/// Growing the cache can only help: FAA's container reads are monotone
/// non-increasing in the assembly-area size, and ALACC's in its chunk-cache
/// budget, over the baseline's fragmented newest version.
#[test]
fn faa_and_alacc_reads_monotone_nonincreasing_with_capacity() {
    use hidestore::restore::Alacc;

    let versions = kernel_versions(10);
    let newest = VersionId::new(versions.len() as u32);
    let mut ddfs = BackupPipeline::new(
        pipeline_config(),
        DdfsIndex::new(),
        NoRewrite::new(),
        MemoryContainerStore::new(),
    );
    for v in &versions {
        ddfs.backup(v).unwrap();
    }

    let mut faa_reads = Vec::new();
    for factor in [1usize, 2, 4, 8, 16] {
        let reads = ddfs
            .restore(
                newest,
                &mut Faa::new(factor * CONTAINER),
                &mut std::io::sink(),
            )
            .unwrap()
            .container_reads;
        faa_reads.push((factor, reads));
    }
    for pair in faa_reads.windows(2) {
        assert!(
            pair[1].1 <= pair[0].1,
            "FAA reads must not grow with the area: {faa_reads:?}"
        );
    }
    assert!(
        faa_reads.last().unwrap().1 < faa_reads[0].1,
        "the sweep must show an actual improvement: {faa_reads:?}"
    );

    let mut alacc_reads = Vec::new();
    for factor in [1usize, 2, 4, 8, 16] {
        // Fixed split: the area stays put, only the chunk cache grows.
        let mut alacc = Alacc::new(CONTAINER, factor * CONTAINER).with_fixed_split();
        let reads = ddfs
            .restore(newest, &mut alacc, &mut std::io::sink())
            .unwrap()
            .container_reads;
        alacc_reads.push((factor, reads));
    }
    for pair in alacc_reads.windows(2) {
        assert!(
            pair[1].1 <= pair[0].1,
            "ALACC reads must not grow with the cache: {alacc_reads:?}"
        );
    }
    assert!(
        alacc_reads.last().unwrap().1 < alacc_reads[0].1,
        "the sweep must show an actual improvement: {alacc_reads:?}"
    );
}
