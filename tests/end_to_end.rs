//! End-to-end integration tests: every backup scheme × every restore cache
//! must reproduce the original bytes across multi-version workloads.

use hidestore::core::{HiDeStore, HiDeStoreConfig};
use hidestore::dedup::{BackupPipeline, PipelineConfig};
use hidestore::index::{
    DdfsIndex, FingerprintIndex, SiloConfig, SiloIndex, SparseConfig, SparseIndex,
};
use hidestore::restore::{Alacc, ChunkLru, ContainerLru, Faa, RestoreCache};
use hidestore::rewriting::{Capping, Cbr, CflRewrite, Fbw, NoRewrite, RewritePolicy};
use hidestore::storage::{MemoryContainerStore, VersionId};
use hidestore::workloads::{Profile, VersionStream};

const CHUNK: usize = 1024;
const CONTAINER: usize = 64 * 1024;

fn pipeline_config() -> PipelineConfig {
    PipelineConfig {
        avg_chunk_size: CHUNK,
        container_capacity: CONTAINER,
        segment_chunks: 32,
        ..PipelineConfig::default()
    }
}

fn hds_config(depth: usize) -> HiDeStoreConfig {
    HiDeStoreConfig {
        avg_chunk_size: CHUNK,
        container_capacity: CONTAINER,
        history_depth: depth,
        ..HiDeStoreConfig::default()
    }
}

fn workload(profile: Profile, seed: u64) -> Vec<Vec<u8>> {
    VersionStream::new(profile.spec().scaled(1 << 20, 5), seed).all_versions()
}

/// Each restore cache, labelled for assertion messages.
fn restore_caches() -> Vec<(&'static str, Box<dyn RestoreCache>)> {
    vec![
        ("container-lru", Box::new(ContainerLru::new(6))),
        ("chunk-lru", Box::new(ChunkLru::new(256 * 1024))),
        ("faa", Box::new(Faa::new(256 * 1024))),
        ("alacc", Box::new(Alacc::new(128 * 1024, 128 * 1024))),
    ]
}

fn assert_pipeline_round_trips(
    index: Box<dyn FingerprintIndex>,
    rewriter: Box<dyn RewritePolicy>,
    tag: &str,
) {
    let versions = workload(Profile::Kernel, 11);
    let mut p = BackupPipeline::new(
        pipeline_config(),
        index,
        rewriter,
        MemoryContainerStore::new(),
    );
    for v in &versions {
        p.backup(v).unwrap();
    }
    for (i, expect) in versions.iter().enumerate() {
        for (name, mut cache) in restore_caches() {
            let mut out = Vec::new();
            p.restore(VersionId::new(i as u32 + 1), cache.as_mut(), &mut out)
                .unwrap_or_else(|e| panic!("{tag}/{name}: restore V{} failed: {e}", i + 1));
            assert_eq!(&out, expect, "{tag}/{name}: V{} bytes differ", i + 1);
        }
    }
}

#[test]
fn ddfs_round_trips_all_caches() {
    assert_pipeline_round_trips(
        Box::new(DdfsIndex::new()),
        Box::new(NoRewrite::new()),
        "ddfs",
    );
}

#[test]
fn sparse_round_trips_all_caches() {
    assert_pipeline_round_trips(
        Box::new(SparseIndex::new(SparseConfig::default())),
        Box::new(NoRewrite::new()),
        "sparse",
    );
}

#[test]
fn silo_round_trips_all_caches() {
    assert_pipeline_round_trips(
        Box::new(SiloIndex::new(SiloConfig::default())),
        Box::new(NoRewrite::new()),
        "silo",
    );
}

#[test]
fn capping_round_trips_all_caches() {
    assert_pipeline_round_trips(
        Box::new(DdfsIndex::new()),
        Box::new(Capping::new(4)),
        "capping",
    );
}

#[test]
fn cbr_round_trips_all_caches() {
    assert_pipeline_round_trips(Box::new(DdfsIndex::new()), Box::new(Cbr::default()), "cbr");
}

#[test]
fn cfl_round_trips_all_caches() {
    assert_pipeline_round_trips(
        Box::new(DdfsIndex::new()),
        Box::new(CflRewrite::new(0.6, CONTAINER as u64)),
        "cfl",
    );
}

#[test]
fn fbw_round_trips_all_caches() {
    assert_pipeline_round_trips(
        Box::new(DdfsIndex::new()),
        Box::new(Fbw::new((4 * CONTAINER) as u64, 0.05, CONTAINER as u64)),
        "fbw",
    );
}

#[test]
fn hidestore_round_trips_all_caches_all_profiles() {
    for profile in Profile::ALL {
        let versions = workload(profile, 23);
        let depth = if profile == Profile::Macos { 2 } else { 1 };
        let mut hds = HiDeStore::new(hds_config(depth), MemoryContainerStore::new());
        for v in &versions {
            hds.backup(v).unwrap();
        }
        for (i, expect) in versions.iter().enumerate() {
            for (name, mut cache) in restore_caches() {
                let mut out = Vec::new();
                hds.restore(VersionId::new(i as u32 + 1), cache.as_mut(), &mut out)
                    .unwrap_or_else(|e| panic!("{profile}/{name}: restore V{} failed: {e}", i + 1));
                assert_eq!(&out, expect, "{profile}/{name}: V{} bytes differ", i + 1);
            }
        }
    }
}

#[test]
fn hidestore_round_trips_after_flatten_and_more_backups() {
    // Interleave flatten passes with further backups: the chain maintenance
    // must stay consistent.
    let versions = workload(Profile::Gcc, 31);
    let mut hds = HiDeStore::new(hds_config(1), MemoryContainerStore::new());
    for (i, v) in versions.iter().enumerate() {
        hds.backup(v).unwrap();
        if i % 2 == 1 {
            hds.flatten_recipes();
        }
    }
    for (i, expect) in versions.iter().enumerate() {
        let mut out = Vec::new();
        hds.restore(
            VersionId::new(i as u32 + 1),
            &mut Faa::new(1 << 20),
            &mut out,
        )
        .unwrap();
        assert_eq!(&out, expect, "V{}", i + 1);
    }
}

#[test]
fn hidestore_depth2_on_flapping_workload() {
    let versions = workload(Profile::Macos, 47);
    let mut hds = HiDeStore::new(hds_config(2), MemoryContainerStore::new());
    for v in &versions {
        hds.backup(v).unwrap();
    }
    // The flapping files mean consecutive versions alternate; depth 2 must
    // still dedup them (ratio close to exact dedup).
    let mut ddfs = BackupPipeline::new(
        pipeline_config(),
        DdfsIndex::new(),
        NoRewrite::new(),
        MemoryContainerStore::new(),
    );
    for v in &versions {
        ddfs.backup(v).unwrap();
    }
    let gap = ddfs.run_stats().dedup_ratio() - hds.run_stats().dedup_ratio();
    assert!(
        gap < 0.02,
        "depth-2 HiDeStore lost {gap:.3} dedup ratio vs exact on macos-like workload"
    );
}

#[test]
fn mixed_scheme_stores_are_independent() {
    // Two systems over the same workload: results must not interfere (no
    // global state anywhere).
    let versions = workload(Profile::Kernel, 3);
    let mut a = HiDeStore::new(hds_config(1), MemoryContainerStore::new());
    let mut b = HiDeStore::new(hds_config(1), MemoryContainerStore::new());
    for v in &versions {
        a.backup(v).unwrap();
        b.backup(v).unwrap();
    }
    assert_eq!(a.run_stats(), b.run_stats());
}
