//! Per-version and per-run statistics: the quantities behind the paper's
//! Figures 8–11.

use hidestore_storage::VersionId;

/// Statistics for one backed-up version.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VersionStats {
    /// The backup version these stats describe.
    pub version: VersionId,
    /// Logical bytes of the backup stream.
    pub logical_bytes: u64,
    /// Bytes physically stored for this version (unique + rewritten chunks).
    pub stored_bytes: u64,
    /// Of `stored_bytes`, bytes that were duplicates rewritten for locality.
    pub rewritten_bytes: u64,
    /// Total chunks in the stream.
    pub chunks: u64,
    /// Chunks stored (unique + rewritten).
    pub stored_chunks: u64,
    /// On-disk index lookups attributable to this version (Figure 9).
    pub disk_lookups: u64,
    /// Index table size after this version, in bytes (Figure 10).
    pub index_table_bytes: u64,
}

impl VersionStats {
    /// Lookup requests per GB of logical data — the paper's Figure 9 metric.
    pub fn lookups_per_gb(&self) -> f64 {
        if self.logical_bytes == 0 {
            return 0.0;
        }
        self.disk_lookups as f64 / (self.logical_bytes as f64 / (1024.0 * 1024.0 * 1024.0))
    }

    /// Index bytes per MB of logical data — the paper's Figure 10 metric.
    pub fn index_bytes_per_mb(&self) -> f64 {
        if self.logical_bytes == 0 {
            return 0.0;
        }
        self.index_table_bytes as f64 / (self.logical_bytes as f64 / (1024.0 * 1024.0))
    }

    /// Fraction of this version's bytes that were eliminated.
    pub fn dedup_ratio(&self) -> f64 {
        if self.logical_bytes == 0 {
            return 0.0;
        }
        1.0 - self.stored_bytes as f64 / self.logical_bytes as f64
    }
}

/// Cumulative statistics across all versions backed up by a pipeline.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BackupRunStats {
    /// Total logical bytes across versions.
    pub logical_bytes: u64,
    /// Total physically stored bytes.
    pub stored_bytes: u64,
    /// Total rewritten (duplicate) bytes among the stored bytes.
    pub rewritten_bytes: u64,
    /// Total chunks processed.
    pub chunks: u64,
    /// Versions backed up.
    pub versions: u32,
}

impl BackupRunStats {
    /// The paper's deduplication ratio (Figure 8): eliminated bytes divided
    /// by total bytes. Higher is better; exact dedup gives the maximum.
    pub fn dedup_ratio(&self) -> f64 {
        if self.logical_bytes == 0 {
            return 0.0;
        }
        1.0 - self.stored_bytes as f64 / self.logical_bytes as f64
    }

    /// Accumulates one version's stats.
    pub fn absorb(&mut self, v: &VersionStats) {
        self.logical_bytes += v.logical_bytes;
        self.stored_bytes += v.stored_bytes;
        self.rewritten_bytes += v.rewritten_bytes;
        self.chunks += v.chunks;
        self.versions += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> VersionStats {
        VersionStats {
            version: VersionId::new(1),
            logical_bytes: 1 << 30,
            stored_bytes: 1 << 28,
            rewritten_bytes: 1 << 20,
            chunks: 1000,
            stored_chunks: 250,
            disk_lookups: 500,
            index_table_bytes: 1 << 20,
        }
    }

    #[test]
    fn lookups_per_gb_normalizes() {
        assert!((sample().lookups_per_gb() - 500.0).abs() < 1e-9);
    }

    #[test]
    fn index_bytes_per_mb_normalizes() {
        assert!((sample().index_bytes_per_mb() - 1024.0).abs() < 1e-9);
    }

    #[test]
    fn dedup_ratio_is_eliminated_fraction() {
        assert!((sample().dedup_ratio() - 0.75).abs() < 1e-9);
    }

    #[test]
    fn run_stats_absorb() {
        let mut run = BackupRunStats::default();
        run.absorb(&sample());
        run.absorb(&sample());
        assert_eq!(run.versions, 2);
        assert_eq!(run.logical_bytes, 2 << 30);
        assert!((run.dedup_ratio() - 0.75).abs() < 1e-9);
    }

    #[test]
    fn zero_byte_version_is_safe() {
        let z = VersionStats {
            logical_bytes: 0,
            stored_bytes: 0,
            ..sample()
        };
        assert_eq!(z.lookups_per_gb(), 0.0);
        assert_eq!(z.dedup_ratio(), 0.0);
    }
}
