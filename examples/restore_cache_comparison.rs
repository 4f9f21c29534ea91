//! Compares the restore caching schemes — container LRU, chunk LRU, FAA,
//! ALACC — against Belady's optimal container cache on a deliberately
//! fragmented backup, at equal memory budgets.
//!
//! Run with: `cargo run --release --example restore_cache_comparison`

use hidestore::dedup::{BackupPipeline, PipelineConfig};
use hidestore::index::DdfsIndex;
use hidestore::restore::{Alacc, BeladyCache, ChunkLru, ContainerLru, Faa, RestoreCache};
use hidestore::rewriting::NoRewrite;
use hidestore::storage::{MemoryContainerStore, VersionId};
use hidestore::workloads::{Profile, VersionStream};

const CONTAINER: usize = 128 * 1024;
const BUDGET: usize = 8 * CONTAINER; // same memory for every scheme

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Ten versions of an evolving tree produce a fragmented final version.
    let versions = VersionStream::new(Profile::Gcc.spec().scaled(6 << 20, 10), 3).all_versions();
    let mut pipeline = BackupPipeline::new(
        PipelineConfig {
            avg_chunk_size: 2048,
            container_capacity: CONTAINER,
            segment_chunks: 64,
            ..PipelineConfig::default()
        },
        DdfsIndex::new(),
        NoRewrite::new(),
        MemoryContainerStore::new(),
    );
    for v in &versions {
        pipeline.backup(v)?;
    }
    let newest = VersionId::new(versions.len() as u32);
    println!(
        "restoring V{} ({:.1} MB) after {} versions of churn; memory budget {} KiB\n",
        newest.get(),
        versions.last().map(Vec::len).unwrap_or(0) as f64 / (1 << 20) as f64,
        versions.len(),
        BUDGET >> 10,
    );

    let schemes: Vec<(&str, Box<dyn RestoreCache>)> = vec![
        (
            "container-lru",
            Box::new(ContainerLru::new(BUDGET / CONTAINER)),
        ),
        ("chunk-lru", Box::new(ChunkLru::new(BUDGET))),
        ("faa", Box::new(Faa::new(BUDGET))),
        ("alacc", Box::new(Alacc::new(BUDGET / 2, BUDGET / 2))),
        ("belady", Box::new(BeladyCache::new(BUDGET / CONTAINER))),
    ];
    println!(
        "{:<16} {:>16} {:>14}",
        "scheme", "container reads", "speed factor"
    );
    for (name, mut scheme) in schemes {
        let report = pipeline.restore(newest, scheme.as_mut(), &mut std::io::sink())?;
        println!(
            "{:<16} {:>16} {:>10.3} MB/rd",
            name,
            report.container_reads,
            report.speed_factor(),
        );
    }
    println!(
        "\nbelady is the offline optimum for container-granular caching: no online scheme \
         at this budget can read fewer containers."
    );
    Ok(())
}
