//! The one backup record: per-version and per-run statistics for every
//! scheme — the Destor baselines of [`crate::BackupPipeline`] and HiDeStore
//! — and the quantities behind the paper's Figures 8–10 and 12.

use std::time::Duration;

use hidestore_storage::VersionId;

/// Statistics for one backed-up version. A field a scheme has no use for
/// is 0.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VersionStats {
    /// The backup version these stats describe.
    pub version: VersionId,
    /// Logical bytes of the backup stream.
    pub logical_bytes: u64,
    /// Bytes physically stored for this version (unique + rewritten chunks).
    pub stored_bytes: u64,
    /// Total chunks in the stream.
    pub chunks: u64,
    /// Chunks stored (unique + rewritten), the count behind `stored_bytes`.
    pub stored_chunks: u64,
    /// Index lookup requests attributable to this version (Figure 9's
    /// unit): on-disk index lookups for the baselines, the previous
    /// recipe's prefetch for HiDeStore (§5.2.2).
    pub lookup_requests: u64,
    /// Of `stored_bytes`, duplicates rewritten for locality (rewriting
    /// baselines only).
    pub rewritten_bytes: u64,
    /// Persistent index table size after this version, in bytes (Figure
    /// 10). HiDeStore keeps none: the previous recipe serves as its index
    /// (§5.2.3).
    pub index_table_bytes: u64,
    /// HiDeStore's fingerprint-cache footprint after this version — 28
    /// bytes per hot-set entry.
    /// Transient working memory bounded by two versions' metadata (§4.1),
    /// not a persistent index.
    pub fingerprint_cache_bytes: u64,
    /// Cold chunks HiDeStore demoted to archival containers at version end.
    pub cold_chunks: u64,
    /// Bytes demoted.
    pub cold_bytes: u64,
    /// Archival containers HiDeStore sealed for this version.
    pub archival_containers_sealed: u64,
    /// Sparse active containers merged during compaction.
    pub containers_merged: u64,
    /// Time spent updating the previous recipe(s) (Figure 12).
    pub recipe_update_time: Duration,
    /// Time spent demoting cold chunks and merging containers (Figure 12).
    pub chunk_move_time: Duration,
}

impl VersionStats {
    /// The record of `version` with every count zero, for a scheme to fill.
    pub fn new(version: VersionId) -> Self {
        VersionStats {
            version,
            logical_bytes: 0,
            stored_bytes: 0,
            chunks: 0,
            stored_chunks: 0,
            lookup_requests: 0,
            rewritten_bytes: 0,
            index_table_bytes: 0,
            fingerprint_cache_bytes: 0,
            cold_chunks: 0,
            cold_bytes: 0,
            archival_containers_sealed: 0,
            containers_merged: 0,
            recipe_update_time: Duration::ZERO,
            chunk_move_time: Duration::ZERO,
        }
    }

    /// Lookup requests per GB of logical data — the paper's Figure 9 metric.
    pub fn lookups_per_gb(&self) -> f64 {
        if self.logical_bytes == 0 {
            return 0.0;
        }
        self.lookup_requests as f64 / (self.logical_bytes as f64 / (1024.0 * 1024.0 * 1024.0))
    }

    /// Fraction of this version's bytes that were eliminated.
    pub fn dedup_ratio(&self) -> f64 {
        dedup_ratio(self.logical_bytes, self.stored_bytes)
    }
}

/// Cumulative statistics across the versions a pipeline or a HiDeStore
/// instance backed up.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RunStats {
    /// Versions backed up.
    pub versions: u32,
    /// Total logical bytes across versions.
    pub logical_bytes: u64,
    /// Total physically stored bytes.
    pub stored_bytes: u64,
    /// Total rewritten (duplicate) bytes among the stored bytes.
    pub rewritten_bytes: u64,
    /// Total chunks processed.
    pub chunks: u64,
    /// Total index lookup requests (Figure 9's unit).
    pub lookup_requests: u64,
}

impl RunStats {
    /// The totals of `versions`.
    pub fn of(versions: &[VersionStats]) -> Self {
        versions
            .iter()
            .fold(RunStats::default(), |run, v| RunStats {
                versions: run.versions + 1,
                logical_bytes: run.logical_bytes + v.logical_bytes,
                stored_bytes: run.stored_bytes + v.stored_bytes,
                rewritten_bytes: run.rewritten_bytes + v.rewritten_bytes,
                chunks: run.chunks + v.chunks,
                lookup_requests: run.lookup_requests + v.lookup_requests,
            })
    }

    /// The paper's deduplication ratio (Figure 8): eliminated bytes divided
    /// by total bytes. Higher is better; exact dedup gives the maximum.
    pub fn dedup_ratio(&self) -> f64 {
        dedup_ratio(self.logical_bytes, self.stored_bytes)
    }
}

/// Eliminated bytes over logical bytes; 0 for an empty stream.
fn dedup_ratio(logical_bytes: u64, stored_bytes: u64) -> f64 {
    if logical_bytes == 0 {
        return 0.0;
    }
    1.0 - stored_bytes as f64 / logical_bytes as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> VersionStats {
        VersionStats {
            logical_bytes: 1 << 30,
            stored_bytes: 1 << 28,
            rewritten_bytes: 1 << 20,
            chunks: 1000,
            stored_chunks: 250,
            lookup_requests: 500,
            ..VersionStats::new(VersionId::new(1))
        }
    }

    #[test]
    fn lookups_per_gb_normalizes() {
        assert!((sample().lookups_per_gb() - 500.0).abs() < 1e-9);
    }

    #[test]
    fn dedup_ratio_is_eliminated_fraction() {
        assert!((sample().dedup_ratio() - 0.75).abs() < 1e-9);
    }

    #[test]
    fn run_stats_sum_the_versions() {
        let run = RunStats::of(&[sample(), sample()]);
        assert_eq!(run.versions, 2);
        assert_eq!(run.logical_bytes, 2 << 30);
        assert_eq!(run.lookup_requests, 1000);
        assert!((run.dedup_ratio() - 0.75).abs() < 1e-9);
        assert_eq!(RunStats::of(&[]), RunStats::default());
    }

    #[test]
    fn zero_byte_version_is_safe() {
        let z = VersionStats::new(VersionId::new(1));
        assert_eq!(z.lookups_per_gb(), 0.0);
        assert_eq!(z.dedup_ratio(), 0.0);
        assert_eq!(RunStats::of(&[z]).dedup_ratio(), 0.0);
    }
}
