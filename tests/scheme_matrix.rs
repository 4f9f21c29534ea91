//! The full cross-product: every fingerprint index × every rewriting policy
//! must ingest and restore a versioned workload byte-exactly. This is the
//! configuration net that catches composition bugs between phases.

use hidestore::dedup::{BackupPipeline, PipelineConfig};
use hidestore::index::{FingerprintIndex, IndexKind};
use hidestore::restore::Faa;
use hidestore::rewriting::{Capping, Cbr, CflRewrite, Fbw, NoRewrite, RewritePolicy};
use hidestore::storage::{MemoryContainerStore, VersionId};
use hidestore::workloads::{Profile, VersionStream};

const CHUNK: usize = 1024;
const CONTAINER: usize = 32 * 1024;

fn rewriters() -> Vec<(&'static str, Box<dyn RewritePolicy>)> {
    vec![
        ("none", Box::new(NoRewrite::new())),
        ("capping", Box::new(Capping::new(4))),
        ("cbr", Box::new(Cbr::default())),
        ("cfl", Box::new(CflRewrite::new(0.6, CONTAINER as u64))),
        (
            "fbw",
            Box::new(Fbw::new((4 * CONTAINER) as u64, 0.05, CONTAINER as u64)),
        ),
    ]
}

#[test]
fn every_index_rewriter_combination_round_trips() {
    let versions = VersionStream::new(Profile::Kernel.spec().scaled(600_000, 4), 19).all_versions();
    for index_kind in IndexKind::ALL {
        for (rewriter_name, rewriter) in rewriters() {
            let tag = format!("{index_kind}+{rewriter_name}");
            let mut p = BackupPipeline::new(
                PipelineConfig {
                    avg_chunk_size: CHUNK,
                    container_capacity: CONTAINER,
                    segment_chunks: 32,
                    ..PipelineConfig::default()
                },
                index_kind.build(),
                rewriter,
                MemoryContainerStore::new(),
            );
            for v in &versions {
                p.backup(v)
                    .unwrap_or_else(|e| panic!("{tag}: backup failed: {e}"));
            }
            for (i, expect) in versions.iter().enumerate() {
                let mut out = Vec::new();
                p.restore(
                    VersionId::new(i as u32 + 1),
                    &mut Faa::new(1 << 18),
                    &mut out,
                )
                .unwrap_or_else(|e| panic!("{tag}: restore V{} failed: {e}", i + 1));
                assert_eq!(&out, expect, "{tag}: V{} bytes differ", i + 1);
            }
            // Sanity on the run's accounting.
            let run = p.run_stats();
            assert_eq!(run.versions, versions.len() as u32, "{tag}");
            assert!(run.dedup_ratio() > 0.0, "{tag}: no dedup at all?");
            assert!(
                run.stored_bytes <= run.logical_bytes,
                "{tag}: stored more than logical"
            );
        }
    }
}

/// The dedup-scheme × restore-cache sweep on full repositories: every
/// [`hidestore::core::DedupMode`] must ingest, persist, pass the auditor
/// after *every* save and after every out-of-line pass, and restore
/// byte-exactly under every cache scheme.
#[test]
fn every_dedup_mode_and_cache_scheme_round_trips_audit_clean() {
    use hidestore::core::{DedupMode, HiDeStore, HiDeStoreConfig};
    use hidestore::fsck::{Severity, SystemAuditor};
    use hidestore::restore::{Alacc, ContainerLru, RestoreCache};
    use hidestore::storage::FileContainerStore;

    let versions = VersionStream::new(Profile::Macos.spec().scaled(400_000, 4), 37).all_versions();
    type CacheFactory = fn() -> Box<dyn RestoreCache>;
    let caches: Vec<(&str, CacheFactory)> = vec![
        ("faa", || Box::new(Faa::new(1 << 18))),
        ("lru", || Box::new(ContainerLru::new(8))),
        ("alacc", || Box::new(Alacc::new(1 << 16, 1 << 18))),
    ];

    for scheme in DedupMode::ALL {
        let dir =
            std::env::temp_dir().join(format!("hds-scheme-matrix-{scheme}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = HiDeStoreConfig {
            avg_chunk_size: CHUNK,
            container_capacity: CONTAINER,
            ..HiDeStoreConfig::default()
        }
        .with_scheme(scheme);

        let audit_clean = |hds: &mut HiDeStore<FileContainerStore>, ctx: &str| {
            let report = SystemAuditor::new().audit(hds);
            assert_eq!(
                report.count(Severity::Error),
                0,
                "{ctx}: audit errors:\n{:#?}",
                report.findings
            );
        };

        let mut hds = HiDeStore::open_repository(config, &dir).unwrap();
        for (i, v) in versions.iter().enumerate() {
            hds.backup(v).unwrap();
            hds.save_repository(&dir).unwrap();
            audit_clean(&mut hds, &format!("{scheme}: after save {}", i + 1));
        }
        if scheme.is_out_of_line() {
            let report = hds.out_of_line_pass().unwrap();
            hds.save_repository(&dir).unwrap();
            audit_clean(&mut hds, &format!("{scheme}: after pass {report:?}"));
        }
        for (cache_name, make_cache) in &caches {
            for (i, expect) in versions.iter().enumerate() {
                let mut out = Vec::new();
                let mut cache = make_cache();
                hds.restore(VersionId::new(i as u32 + 1), cache.as_mut(), &mut out)
                    .unwrap_or_else(|e| {
                        panic!("{scheme}+{cache_name}: restore V{} failed: {e}", i + 1)
                    });
                assert_eq!(&out, expect, "{scheme}+{cache_name}: V{} differs", i + 1);
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn rewriting_trades_space_for_locality_across_indexes() {
    // For each index, the no-rewrite run must store no more than the
    // rewriting runs (rewriting only ever adds bytes).
    let versions = VersionStream::new(Profile::Gcc.spec().scaled(600_000, 4), 23).all_versions();
    for index_kind in IndexKind::ALL {
        let stored = |rewriter: Box<dyn RewritePolicy>| {
            let mut p = BackupPipeline::new(
                PipelineConfig {
                    avg_chunk_size: CHUNK,
                    container_capacity: CONTAINER,
                    segment_chunks: 32,
                    ..PipelineConfig::default()
                },
                index_kind.build(),
                rewriter,
                MemoryContainerStore::new(),
            );
            for v in &versions {
                p.backup(v).unwrap();
            }
            p.run_stats().stored_bytes
        };
        let baseline = stored(Box::new(NoRewrite::new()));
        let capped = stored(Box::new(Capping::new(2)));
        assert!(
            capped >= baseline,
            "{index_kind}: capping stored {capped} < baseline {baseline}"
        );
    }
}

#[test]
fn index_exactness_ordering_holds() {
    // DDFS (exact) must never catch fewer duplicates than the near-exact
    // schemes on the same stream.
    let versions =
        VersionStream::new(Profile::Fslhomes.spec().scaled(600_000, 5), 29).all_versions();
    let stored = |kind: IndexKind| {
        let mut p = BackupPipeline::new(
            PipelineConfig {
                avg_chunk_size: CHUNK,
                container_capacity: CONTAINER,
                segment_chunks: 32,
                ..PipelineConfig::default()
            },
            kind.build(),
            NoRewrite::new(),
            MemoryContainerStore::new(),
        );
        for v in &versions {
            p.backup(v).unwrap();
        }
        p.run_stats().stored_bytes
    };
    let ddfs = stored(IndexKind::Ddfs);
    for kind in [IndexKind::Sparse, IndexKind::Silo] {
        assert!(
            stored(kind) >= ddfs,
            "{kind} stored less than exact deduplication"
        );
    }
}

#[test]
fn index_memory_ordering_holds() {
    // Index-table footprints: DDFS (per chunk) > sparse (per hook) and
    // silo (per segment).
    let versions = VersionStream::new(Profile::Kernel.spec().scaled(800_000, 3), 31).all_versions();
    let bytes = |kind: IndexKind| {
        let mut p = BackupPipeline::new(
            PipelineConfig {
                avg_chunk_size: CHUNK,
                container_capacity: CONTAINER,
                segment_chunks: 32,
                ..PipelineConfig::default()
            },
            kind.build(),
            NoRewrite::new(),
            MemoryContainerStore::new(),
        );
        for v in &versions {
            p.backup(v).unwrap();
        }
        p.index().index_table_bytes()
    };
    let ddfs = bytes(IndexKind::Ddfs);
    for kind in [IndexKind::Sparse, IndexKind::Silo] {
        let b = bytes(kind);
        assert!(b < ddfs, "{kind}: {b} >= ddfs {ddfs}");
    }
}
