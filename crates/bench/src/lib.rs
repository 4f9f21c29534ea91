#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Experiment harness for the HiDeStore reproduction.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the paper's
//! evaluation (§5); this library holds the shared machinery: scaled workload
//! generation, scheme runners, and plain-text/CSV reporting. See DESIGN.md's
//! experiment index for the mapping.
//!
//! Scale is controlled by environment variables so the same binaries serve
//! quick smoke runs and full experiments:
//!
//! * `HIDESTORE_MB` — version-1 size per workload in MiB (default 24);
//! * `HIDESTORE_VERSIONS` — number of backup versions (default 16);
//! * `HIDESTORE_SEED` — workload RNG seed (default 42).

use std::collections::HashMap;
use std::fs;
use std::io::Write as _;
use std::path::Path;
use std::time::Duration;

use hidestore_chunking::{chunk_spans, ChunkerKind};
use hidestore_core::{DedupMode, HiDeStore, HiDeStoreConfig};
use hidestore_dedup::{gc, BackupPipeline, PipelineConfig};
use hidestore_hash::Fingerprint;
use hidestore_index::{
    DdfsIndex, FingerprintIndex, SiloConfig, SiloIndex, SparseConfig, SparseIndex,
};
use hidestore_restore::{Alacc, ContainerLru, Faa};
use hidestore_rewriting::{Capping, Fbw, NoRewrite, RewritePolicy};
use hidestore_storage::{MemoryContainerStore, VersionId};
use hidestore_workloads::{Profile, VersionStream};

/// Experiment scale knobs.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Bytes of the first version of each workload.
    pub bytes: usize,
    /// Number of backup versions.
    pub versions: u32,
    /// Container capacity in bytes.
    pub container: usize,
    /// Target average chunk size in bytes.
    pub chunk: usize,
    /// Workload seed.
    pub seed: u64,
}

impl Default for Scale {
    fn default() -> Self {
        Scale {
            bytes: 24 << 20,
            versions: 16,
            container: 1 << 20,
            chunk: 4096,
            seed: 42,
        }
    }
}

impl Scale {
    /// Reads `HIDESTORE_MB` / `HIDESTORE_VERSIONS` / `HIDESTORE_SEED` from
    /// the environment, falling back to the defaults.
    pub fn from_env() -> Self {
        let mut scale = Scale::default();
        if let Ok(mb) = std::env::var("HIDESTORE_MB") {
            if let Ok(mb) = mb.parse::<usize>() {
                scale.bytes = mb << 20;
            }
        }
        if let Ok(v) = std::env::var("HIDESTORE_VERSIONS") {
            if let Ok(v) = v.parse::<u32>() {
                scale.versions = v.max(2);
            }
        }
        if let Ok(s) = std::env::var("HIDESTORE_SEED") {
            if let Ok(s) = s.parse::<u64>() {
                scale.seed = s;
            }
        }
        scale
    }

    /// A very small scale for integration tests.
    pub fn tiny() -> Self {
        Scale {
            bytes: 2 << 20,
            versions: 6,
            container: 128 << 10,
            chunk: 2048,
            seed: 7,
        }
    }

    /// Pipeline configuration matching this scale.
    pub fn pipeline_config(&self) -> PipelineConfig {
        PipelineConfig {
            chunker: ChunkerKind::Tttd,
            avg_chunk_size: self.chunk,
            container_capacity: self.container,
            segment_chunks: 128,
        }
    }

    /// HiDeStore configuration matching this scale; `profile` selects the
    /// history depth (2 for macos, per §4.1).
    pub fn hidestore_config(&self, profile: Profile) -> HiDeStoreConfig {
        HiDeStoreConfig {
            chunker: ChunkerKind::Tttd,
            avg_chunk_size: self.chunk,
            container_capacity: self.container,
            compact_threshold: 0.95,
            history_depth: if profile == Profile::Macos { 2 } else { 1 },
            ..HiDeStoreConfig::default()
        }
    }
}

/// Generates all version streams of `profile` at this scale.
pub fn workload_versions(profile: Profile, scale: Scale) -> Vec<Vec<u8>> {
    let spec = profile.spec().scaled(scale.bytes, scale.versions);
    VersionStream::new(spec, scale.seed).all_versions()
}

/// The deduplication schemes of Figures 8–10.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DedupScheme {
    /// Exact deduplication (Zhu et al.).
    Ddfs,
    /// Sparse Indexing (Lillibridge et al.).
    Sparse,
    /// SiLo (Xia et al.).
    Silo,
    /// SiLo with Capping rewriting (the paper's "capping" bars).
    SiloCapping,
    /// SiLo with FBW rewriting (the paper's "ALACC" rewriting bars).
    SiloFbw,
    /// HiDeStore.
    HiDeStore,
}

impl DedupScheme {
    /// Display label matching the paper's legends.
    pub fn label(self) -> &'static str {
        match self {
            DedupScheme::Ddfs => "DDFS",
            DedupScheme::Sparse => "SparseIndex",
            DedupScheme::Silo => "SiLo",
            DedupScheme::SiloCapping => "SiLo+Capping",
            DedupScheme::SiloFbw => "SiLo+FBW",
            DedupScheme::HiDeStore => "HiDeStore",
        }
    }

    /// The schemes shown in Figure 8.
    pub const FIG8: [DedupScheme; 6] = [
        DedupScheme::Ddfs,
        DedupScheme::Sparse,
        DedupScheme::Silo,
        DedupScheme::SiloCapping,
        DedupScheme::SiloFbw,
        DedupScheme::HiDeStore,
    ];

    /// The schemes shown in Figures 9 and 10.
    pub const FIG9: [DedupScheme; 4] = [
        DedupScheme::Ddfs,
        DedupScheme::Sparse,
        DedupScheme::Silo,
        DedupScheme::HiDeStore,
    ];
}

/// One per-version result row shared by the dedup-side experiments.
#[derive(Debug, Clone, Copy)]
pub struct VersionRow {
    /// Backup version number (1-based).
    pub version: u32,
    /// Logical bytes of this version.
    pub logical_bytes: u64,
    /// Cumulative deduplication ratio after this version.
    pub cum_dedup_ratio: f64,
    /// Index disk lookups per GB for this version (Figure 9).
    pub lookups_per_gb: f64,
    /// Index table bytes per MB of cumulative data (Figure 10).
    pub index_bytes_per_mb: f64,
}

/// Full result of running one dedup scheme over a workload.
#[derive(Debug, Clone)]
pub struct DedupRun {
    /// Scheme that produced the rows.
    pub scheme: DedupScheme,
    /// Per-version rows.
    pub rows: Vec<VersionRow>,
    /// Final cumulative dedup ratio (the Figure 8 bar).
    pub dedup_ratio: f64,
}

fn boxed_index(scheme: DedupScheme) -> Box<dyn FingerprintIndex> {
    // Cache sizes are scaled with the experiment: the paper's datasets hold
    // tens of thousands of containers against caches of a few dozen, so at
    // our MB scale the caches must likewise cover only a small fraction of
    // the store or every scheme degenerates to "everything fits in RAM".
    match scheme {
        DedupScheme::Ddfs => Box::new(DdfsIndex::with_cache_containers(4)),
        DedupScheme::Sparse => Box::new(SparseIndex::new(SparseConfig {
            max_champions: 2,
            ..SparseConfig::default()
        })),
        DedupScheme::Silo | DedupScheme::SiloCapping | DedupScheme::SiloFbw => {
            Box::new(SiloIndex::new(SiloConfig {
                cached_blocks: 4,
                ..SiloConfig::default()
            }))
        }
        DedupScheme::HiDeStore => unreachable!("HiDeStore does not run in the baseline pipeline"),
    }
}

fn boxed_rewriter(scheme: DedupScheme, scale: Scale) -> Box<dyn RewritePolicy> {
    match scheme {
        DedupScheme::SiloCapping => Box::new(Capping::new(8)),
        DedupScheme::SiloFbw => Box::new(Fbw::new(
            (8 * scale.container) as u64,
            0.05,
            scale.container as u64,
        )),
        _ => Box::new(NoRewrite::new()),
    }
}

/// Runs a dedup scheme over the version streams, collecting the Figure 8–10
/// metrics.
pub fn run_dedup_scheme(
    scheme: DedupScheme,
    versions: &[Vec<u8>],
    scale: Scale,
    profile: Profile,
) -> DedupRun {
    let mut rows = Vec::with_capacity(versions.len());
    let mut cum_logical = 0u64;
    let mut cum_stored = 0u64;
    if scheme == DedupScheme::HiDeStore {
        let mut hds = HiDeStore::new(scale.hidestore_config(profile), MemoryContainerStore::new());
        for data in versions {
            let s = hds.backup(data).expect("memory store cannot fail");
            cum_logical += s.logical_bytes;
            cum_stored += s.stored_bytes;
            rows.push(VersionRow {
                version: s.version.get(),
                logical_bytes: s.logical_bytes,
                cum_dedup_ratio: ratio(cum_logical, cum_stored),
                lookups_per_gb: s.lookups_per_gb(),
                // Paper accounting (§5.2.3): HiDeStore keeps no persistent
                // index table — the previous recipe serves as its index and
                // recipes exist in every scheme — so its Figure 10 bar is 0.
                index_bytes_per_mb: 0.0,
            });
        }
        let dedup_ratio = hds.run_stats().dedup_ratio();
        return DedupRun {
            scheme,
            rows,
            dedup_ratio,
        };
    }
    let mut pipeline = BackupPipeline::new(
        scale.pipeline_config(),
        boxed_index(scheme),
        boxed_rewriter(scheme, scale),
        MemoryContainerStore::new(),
    );
    for data in versions {
        let s = pipeline.backup(data).expect("memory store cannot fail");
        cum_logical += s.logical_bytes;
        cum_stored += s.stored_bytes;
        rows.push(VersionRow {
            version: s.version.get(),
            logical_bytes: s.logical_bytes,
            cum_dedup_ratio: ratio(cum_logical, cum_stored),
            lookups_per_gb: s.lookups_per_gb(),
            index_bytes_per_mb: s.index_table_bytes as f64
                / (cum_logical as f64 / (1024.0 * 1024.0)),
        });
    }
    let dedup_ratio = pipeline.run_stats().dedup_ratio();
    DedupRun {
        scheme,
        rows,
        dedup_ratio,
    }
}

fn ratio(logical: u64, stored: u64) -> f64 {
    if logical == 0 {
        return 0.0;
    }
    1.0 - stored as f64 / logical as f64
}

/// The restore-side schemes of Figure 11.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RestoreScheme {
    /// No rewriting, FAA restore cache (the paper's baseline).
    Baseline,
    /// Capping rewriting, FAA restore cache.
    Capping,
    /// FBW rewriting with the ALACC restore cache (the paper's strongest
    /// baseline combination).
    AlaccFbw,
    /// HiDeStore with FAA.
    HiDeStore,
}

impl RestoreScheme {
    /// Display label matching the paper's legends.
    pub fn label(self) -> &'static str {
        match self {
            RestoreScheme::Baseline => "Baseline(FAA)",
            RestoreScheme::Capping => "Capping(FAA)",
            RestoreScheme::AlaccFbw => "ALACC+FBW",
            RestoreScheme::HiDeStore => "HiDeStore",
        }
    }

    /// All Figure 11 series.
    pub const ALL: [RestoreScheme; 4] = [
        RestoreScheme::Baseline,
        RestoreScheme::Capping,
        RestoreScheme::AlaccFbw,
        RestoreScheme::HiDeStore,
    ];
}

/// Per-version speed factors after ingesting the whole workload.
#[derive(Debug, Clone)]
pub struct RestoreRun {
    /// Scheme that produced the series.
    pub scheme: RestoreScheme,
    /// `(version, speed factor MB/container-read)` pairs.
    pub speed_factors: Vec<(u32, f64)>,
    /// Final deduplication ratio of the underlying store (context for the
    /// locality-vs-space trade-off).
    pub dedup_ratio: f64,
}

/// Backs up every version with the scheme, then restores each version and
/// records its speed factor (Figure 11's x-axis is the restored version).
pub fn run_restore_scheme(
    scheme: RestoreScheme,
    versions: &[Vec<u8>],
    scale: Scale,
    profile: Profile,
) -> RestoreRun {
    let faa_area = 8 * scale.container;
    match scheme {
        RestoreScheme::HiDeStore => {
            let mut hds =
                HiDeStore::new(scale.hidestore_config(profile), MemoryContainerStore::new());
            for data in versions {
                hds.backup(data).expect("memory store cannot fail");
            }
            // §4.3: Algorithm 1 runs offline before restores.
            hds.flatten_recipes();
            let mut speed_factors = Vec::new();
            for v in 1..=versions.len() as u32 {
                let mut cache = Faa::new(faa_area);
                let report = hds
                    .restore(VersionId::new(v), &mut cache, &mut std::io::sink())
                    .expect("restore of retained version");
                speed_factors.push((v, report.speed_factor()));
            }
            RestoreRun {
                scheme,
                speed_factors,
                dedup_ratio: hds.run_stats().dedup_ratio(),
            }
        }
        _ => {
            let (index, rewriter): (Box<dyn FingerprintIndex>, Box<dyn RewritePolicy>) =
                match scheme {
                    RestoreScheme::Baseline => {
                        (Box::new(DdfsIndex::new()), Box::new(NoRewrite::new()))
                    }
                    RestoreScheme::Capping => (
                        Box::new(SiloIndex::new(SiloConfig::default())),
                        Box::new(Capping::new(8)),
                    ),
                    RestoreScheme::AlaccFbw => (
                        Box::new(SiloIndex::new(SiloConfig::default())),
                        Box::new(Fbw::new(
                            (8 * scale.container) as u64,
                            0.05,
                            scale.container as u64,
                        )),
                    ),
                    RestoreScheme::HiDeStore => unreachable!("handled above"),
                };
            let mut pipeline = BackupPipeline::new(
                scale.pipeline_config(),
                index,
                rewriter,
                MemoryContainerStore::new(),
            );
            for data in versions {
                pipeline.backup(data).expect("memory store cannot fail");
            }
            let mut speed_factors = Vec::new();
            for v in 1..=versions.len() as u32 {
                let report = if scheme == RestoreScheme::AlaccFbw {
                    let mut cache = Alacc::new(faa_area / 2, faa_area / 2);
                    pipeline.restore(VersionId::new(v), &mut cache, &mut std::io::sink())
                } else {
                    let mut cache = Faa::new(faa_area);
                    pipeline.restore(VersionId::new(v), &mut cache, &mut std::io::sink())
                }
                .expect("restore of retained version");
                speed_factors.push((v, report.speed_factor()));
            }
            RestoreRun {
                scheme,
                speed_factors,
                dedup_ratio: pipeline.run_stats().dedup_ratio(),
            }
        }
    }
}

/// One scheme's row in the cross-scheme comparison (DESIGN.md §14): where
/// each design pays its deduplication cost — inline on the backup path
/// (DDFS, HiDeStore) or deferred to an out-of-line pass (RevDedup, Hybrid).
#[derive(Debug, Clone)]
pub struct SchemeCompareRow {
    /// Display label.
    pub label: &'static str,
    /// Final deduplication ratio over live stored bytes, measured *after*
    /// the out-of-line pass where the scheme has one.
    pub dedup_ratio: f64,
    /// Container reads restoring the newest version through an 8-container
    /// LRU — the same cache for every scheme.
    pub newest_reads: u64,
    /// Index probes paid on the backup path, in each scheme's own unit:
    /// fingerprint-table misses for HiDeStore, whole-segment lookups for
    /// RevDedup/Hybrid, on-disk index lookups for DDFS. Comparable within a
    /// scheme across versions, not across schemes.
    pub ingest_lookups: u64,
    /// Wall-clock time ingesting every version.
    pub ingest_time: Duration,
    /// Wall-clock time of the out-of-line pass (zero for inline schemes).
    pub pass_time: Duration,
    /// Bytes reclaimed by the out-of-line pass (zero for inline schemes).
    pub pass_reclaimed: u64,
}

/// Runs the cross-scheme comparison on one workload: every
/// [`DedupMode`] through the full HiDeStore system plus the DDFS baseline
/// through the pipeline, all restored through an equal-capacity cache.
pub fn run_scheme_comparison(
    versions: &[Vec<u8>],
    scale: Scale,
    profile: Profile,
) -> Vec<SchemeCompareRow> {
    let newest = VersionId::new(versions.len() as u32);
    let mut rows = Vec::new();
    for mode in DedupMode::ALL {
        let config = scale.hidestore_config(profile).with_scheme(mode);
        let mut hds = HiDeStore::new(config, MemoryContainerStore::new());
        let t = std::time::Instant::now();
        for data in versions {
            hds.backup(data).expect("memory store cannot fail");
        }
        let ingest_time = t.elapsed();
        let ingest_lookups = hds.version_stats().iter().map(|s| s.lookup_requests).sum();
        let (pass_time, pass_reclaimed) = if mode.is_out_of_line() {
            let t = std::time::Instant::now();
            let report = hds.out_of_line_pass().expect("memory store cannot fail");
            (t.elapsed(), report.bytes_reclaimed)
        } else {
            // §4.3: the inline scheme's offline step is Algorithm 1 instead.
            hds.flatten_recipes();
            (Duration::ZERO, 0)
        };
        let live = hds.archival().total_live_bytes() + hds.pool().live_bytes();
        let logical = hds.run_stats().logical_bytes;
        let mut cache = ContainerLru::new(8);
        let report = hds
            .restore(newest, &mut cache, &mut std::io::sink())
            .expect("restore of retained version");
        rows.push(SchemeCompareRow {
            label: match mode {
                DedupMode::HiDeStore => "HiDeStore",
                DedupMode::RevDedup => "RevDedup",
                DedupMode::Hybrid => "Hybrid",
            },
            dedup_ratio: ratio(logical, live),
            newest_reads: report.container_reads,
            ingest_lookups,
            ingest_time,
            pass_time,
            pass_reclaimed,
        });
    }
    // DDFS baseline for context, under the same restore cache.
    let mut pipeline = BackupPipeline::new(
        scale.pipeline_config(),
        boxed_index(DedupScheme::Ddfs),
        NoRewrite::new(),
        MemoryContainerStore::new(),
    );
    let t = std::time::Instant::now();
    for data in versions {
        pipeline.backup(data).expect("memory store cannot fail");
    }
    let ingest_time = t.elapsed();
    let ingest_lookups = pipeline
        .version_stats()
        .iter()
        .map(|s| s.disk_lookups)
        .sum();
    let mut cache = ContainerLru::new(8);
    let report = pipeline
        .restore(newest, &mut cache, &mut std::io::sink())
        .expect("restore of retained version");
    rows.push(SchemeCompareRow {
        label: "DDFS",
        dedup_ratio: pipeline.run_stats().dedup_ratio(),
        newest_reads: report.container_reads,
        ingest_lookups,
        ingest_time,
        pass_time: Duration::ZERO,
        pass_reclaimed: 0,
    });
    rows
}

/// Figure 3: the heuristic experiment. Tags every chunk with the most recent
/// version containing it (infinite buffer) and counts, after each version,
/// how many chunks still carry each tag. `matrix[after][tag]` with 1-based
/// indices flattened to 0-based.
pub fn version_tag_matrix(versions: &[Vec<u8>], scale: Scale) -> Vec<Vec<u64>> {
    let mut chunker = ChunkerKind::Tttd.build(scale.chunk);
    let mut tags: HashMap<Fingerprint, u32> = HashMap::new();
    let mut matrix = Vec::with_capacity(versions.len());
    for (i, data) in versions.iter().enumerate() {
        let v = i as u32 + 1;
        for span in chunk_spans(chunker.as_mut(), data) {
            tags.insert(Fingerprint::of(&data[span]), v);
        }
        let mut counts = vec![0u64; versions.len()];
        for &tag in tags.values() {
            counts[(tag - 1) as usize] += 1;
        }
        matrix.push(counts);
    }
    matrix
}

/// Figure 12 + §5.5: HiDeStore maintenance overheads for one workload.
#[derive(Debug, Clone, Copy)]
pub struct OverheadRow {
    /// Mean per-version time updating the previous recipe(s).
    pub mean_recipe_update: Duration,
    /// Mean per-version time demoting cold chunks and merging containers.
    pub mean_chunk_move: Duration,
    /// Time of one full Algorithm 1 flatten pass at the end.
    pub flatten_time: Duration,
    /// HiDeStore deletion time for expiring the oldest third of versions.
    pub hidestore_delete: Duration,
    /// Mark-sweep GC time for the same expiry on the DDFS baseline.
    pub gc_delete: Duration,
}

/// Measures HiDeStore's overheads (Figure 12) and the deletion comparison
/// (§5.5) on one workload.
pub fn run_overheads(versions: &[Vec<u8>], scale: Scale, profile: Profile) -> OverheadRow {
    // HiDeStore side.
    let mut hds = HiDeStore::new(scale.hidestore_config(profile), MemoryContainerStore::new());
    for data in versions {
        hds.backup(data).expect("memory store cannot fail");
    }
    let stats = hds.version_stats();
    let n = stats.len().max(1) as u32;
    let mean_recipe_update = stats.iter().map(|s| s.recipe_update_time).sum::<Duration>() / n;
    let mean_chunk_move = stats.iter().map(|s| s.chunk_move_time).sum::<Duration>() / n;
    let (_, flatten_time) = hds.flatten_recipes();
    let expire_to = (versions.len() as u32 / 3).max(1);
    let t = std::time::Instant::now();
    hds.delete_expired(VersionId::new(expire_to))
        .expect("deletion of old versions");
    let hidestore_delete = t.elapsed();

    // Baseline side: same workload through DDFS, deleted via mark-sweep.
    let mut pipeline = BackupPipeline::new(
        scale.pipeline_config(),
        DdfsIndex::new(),
        NoRewrite::new(),
        MemoryContainerStore::new(),
    );
    for data in versions {
        pipeline.backup(data).expect("memory store cannot fail");
    }
    let expired: Vec<VersionId> = (1..=expire_to).map(VersionId::new).collect();
    let mut recipes = std::mem::take(pipeline.recipes_mut());
    let mut next_id = 1_000_000;
    let t = std::time::Instant::now();
    gc::mark_sweep(
        &expired,
        &mut recipes,
        pipeline.store_mut(),
        0.4,
        &mut next_id,
    )
    .expect("gc of memory store");
    let gc_delete = t.elapsed();

    OverheadRow {
        mean_recipe_update,
        mean_chunk_move,
        flatten_time,
        hidestore_delete,
        gc_delete,
    }
}

/// Prints a fixed-width table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let line = |cells: Vec<String>| {
        let mut out = String::new();
        for (i, cell) in cells.iter().enumerate() {
            out.push_str(&format!("{:>width$}  ", cell, width = widths[i]));
        }
        println!("{}", out.trim_end());
    };
    line(headers.iter().map(|h| h.to_string()).collect());
    for row in rows {
        line(row.clone());
    }
}

/// Writes rows as CSV under `results/`.
pub fn write_csv(name: &str, headers: &[&str], rows: &[Vec<String>]) {
    let dir = Path::new("results");
    if fs::create_dir_all(dir).is_err() {
        return;
    }
    let path = dir.join(format!("{name}.csv"));
    let Ok(mut f) = fs::File::create(&path) else {
        return;
    };
    let _ = writeln!(f, "{}", headers.join(","));
    for row in rows {
        let _ = writeln!(f, "{}", row.join(","));
    }
    eprintln!("wrote {}", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_from_env_defaults() {
        let s = Scale::default();
        assert_eq!(s.versions, 16);
        s.pipeline_config().validate();
        for p in Profile::ALL {
            assert!(s.hidestore_config(p).validate().is_ok());
        }
    }

    #[test]
    fn macos_gets_depth_two() {
        let s = Scale::tiny();
        assert_eq!(s.hidestore_config(Profile::Macos).history_depth, 2);
        assert_eq!(s.hidestore_config(Profile::Kernel).history_depth, 1);
    }

    #[test]
    fn dedup_runs_produce_rows_for_each_version() {
        let scale = Scale::tiny();
        let versions = workload_versions(Profile::Kernel, scale);
        let run = run_dedup_scheme(DedupScheme::Ddfs, &versions, scale, Profile::Kernel);
        assert_eq!(run.rows.len(), versions.len());
        assert!(
            run.dedup_ratio > 0.5,
            "kernel tiny ratio {}",
            run.dedup_ratio
        );
        let hds = run_dedup_scheme(DedupScheme::HiDeStore, &versions, scale, Profile::Kernel);
        assert_eq!(hds.rows.len(), versions.len());
    }

    #[test]
    fn restore_runs_cover_all_versions() {
        let scale = Scale::tiny();
        let versions = workload_versions(Profile::Kernel, scale);
        for scheme in [RestoreScheme::Baseline, RestoreScheme::HiDeStore] {
            let run = run_restore_scheme(scheme, &versions, scale, Profile::Kernel);
            assert_eq!(
                run.speed_factors.len(),
                versions.len(),
                "{}",
                scheme.label()
            );
            assert!(run.speed_factors.iter().all(|&(_, sf)| sf > 0.0));
        }
    }

    #[test]
    fn scheme_comparison_covers_all_schemes() {
        let scale = Scale::tiny();
        let versions = workload_versions(Profile::Kernel, scale);
        let rows = run_scheme_comparison(&versions, scale, Profile::Kernel);
        let labels: Vec<&str> = rows.iter().map(|r| r.label).collect();
        assert_eq!(labels, ["HiDeStore", "RevDedup", "Hybrid", "DDFS"]);
        for row in &rows {
            assert!(row.newest_reads > 0, "{}: no container reads", row.label);
            assert!(row.dedup_ratio > 0.0, "{}: no dedup at all", row.label);
        }
        // RevDedup's coarse inline pass leaves fine-grained duplicates for
        // the out-of-line pass to reclaim. (Hybrid dedups against the
        // previous version inline, so a linearly-evolving workload can
        // legitimately leave its pass nothing to do.)
        let rev = rows.iter().find(|r| r.label == "RevDedup").unwrap();
        assert!(rev.pass_reclaimed > 0, "RevDedup pass reclaimed nothing");
    }

    #[test]
    fn version_tag_matrix_shape() {
        let scale = Scale::tiny();
        let versions = workload_versions(Profile::Kernel, scale);
        let matrix = version_tag_matrix(&versions, scale);
        assert_eq!(matrix.len(), versions.len());
        // After version k, tags can only be 1..=k.
        for (i, row) in matrix.iter().enumerate() {
            for (tag_idx, &count) in row.iter().enumerate() {
                if tag_idx > i {
                    assert_eq!(count, 0, "after V{} tag V{}", i + 1, tag_idx + 1);
                }
            }
            // The most recent tag dominates.
            assert!(row[i] > 0);
        }
    }

    #[test]
    fn overheads_measured() {
        let scale = Scale::tiny();
        let versions = workload_versions(Profile::Kernel, scale);
        let row = run_overheads(&versions, scale, Profile::Kernel);
        // HiDeStore deletion must be cheap relative to mark-sweep GC.
        assert!(row.hidestore_delete <= row.gc_delete * 4);
    }
}
