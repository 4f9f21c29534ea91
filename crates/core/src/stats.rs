//! HiDeStore statistics: deduplication accounting plus the overhead
//! latencies of Figure 12 and the deletion report of §5.5.

use std::time::Duration;

use hidestore_storage::VersionId;

/// Statistics for one HiDeStore backup.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HiDeStoreVersionStats {
    /// The version backed up.
    pub version: VersionId,
    /// Logical bytes of the stream.
    pub logical_bytes: u64,
    /// Bytes of new unique chunks written into active containers.
    pub stored_bytes: u64,
    /// Chunks in the stream.
    pub chunks: u64,
    /// New unique chunks.
    pub unique_chunks: u64,
    /// Cold chunks demoted to archival containers at version end.
    pub cold_chunks: u64,
    /// Bytes demoted.
    pub cold_bytes: u64,
    /// Archival containers sealed at this version end.
    pub archival_containers_sealed: u64,
    /// Sparse active containers merged during compaction.
    pub containers_merged: u64,
    /// Equivalent index-lookup requests spent prefetching the previous
    /// recipe into `T1` (Figure 9's unit; §5.2.2).
    pub lookup_requests: u64,
    /// Fingerprint-cache footprint after this version: the paper's 28 bytes
    /// per entry of the active pool's hot-set table. This is *transient
    /// working memory* bounded by two versions' metadata (§4.1), not a
    /// persistent index table: HiDeStore's Figure 10 contribution is zero
    /// because the previous recipe doubles as its "index".
    pub fingerprint_cache_bytes: u64,
    /// Time spent updating the previous recipe(s) (Figure 12).
    pub recipe_update_time: Duration,
    /// Time spent demoting cold chunks and merging containers (Figure 12).
    pub chunk_move_time: Duration,
}

impl HiDeStoreVersionStats {
    /// Fraction of this version's bytes eliminated by deduplication.
    pub fn dedup_ratio(&self) -> f64 {
        if self.logical_bytes == 0 {
            return 0.0;
        }
        1.0 - self.stored_bytes as f64 / self.logical_bytes as f64
    }

    /// Lookup requests per GB of logical data (Figure 9 metric).
    pub fn lookups_per_gb(&self) -> f64 {
        if self.logical_bytes == 0 {
            return 0.0;
        }
        self.lookup_requests as f64 / (self.logical_bytes as f64 / (1024.0 * 1024.0 * 1024.0))
    }

    /// Fingerprint-cache bytes per MB of logical data. HiDeStore's
    /// *persistent* index overhead (the paper's Figure 10 metric) is zero;
    /// this reports the bounded working-memory cost for completeness.
    pub fn cache_bytes_per_mb(&self) -> f64 {
        if self.logical_bytes == 0 {
            return 0.0;
        }
        self.fingerprint_cache_bytes as f64 / (self.logical_bytes as f64 / (1024.0 * 1024.0))
    }
}

/// Cumulative statistics across a HiDeStore run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HiDeStoreRunStats {
    /// Total logical bytes backed up.
    pub logical_bytes: u64,
    /// Total bytes physically written as unique chunks.
    pub stored_bytes: u64,
    /// Total chunks processed.
    pub chunks: u64,
    /// Versions backed up.
    pub versions: u32,
}

impl HiDeStoreRunStats {
    /// Deduplication ratio: eliminated bytes over total bytes (Figure 8).
    /// HiDeStore never rewrites duplicates, so this matches exact
    /// deduplication up to cold chunks that recur after leaving the cache.
    pub fn dedup_ratio(&self) -> f64 {
        if self.logical_bytes == 0 {
            return 0.0;
        }
        1.0 - self.stored_bytes as f64 / self.logical_bytes as f64
    }

    /// Accumulates one version.
    pub fn absorb(&mut self, v: &HiDeStoreVersionStats) {
        self.logical_bytes += v.logical_bytes;
        self.stored_bytes += v.stored_bytes;
        self.chunks += v.chunks;
        self.versions += 1;
    }
}

/// Outcome of expiring old versions (§4.5 / §5.5).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DeletionReport {
    /// Versions whose recipes were removed.
    pub versions_removed: u32,
    /// Archival containers dropped wholesale by version tag.
    pub containers_dropped: u64,
    /// Bytes reclaimed.
    pub bytes_reclaimed: u64,
    /// Wall-clock time of the whole deletion.
    pub elapsed: Duration,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_stats_dedup_ratio() {
        let mut run = HiDeStoreRunStats::default();
        run.absorb(&HiDeStoreVersionStats {
            version: VersionId::new(1),
            logical_bytes: 1000,
            stored_bytes: 1000,
            chunks: 10,
            unique_chunks: 10,
            cold_chunks: 0,
            cold_bytes: 0,
            archival_containers_sealed: 0,
            containers_merged: 0,
            lookup_requests: 0,
            fingerprint_cache_bytes: 280,
            recipe_update_time: Duration::ZERO,
            chunk_move_time: Duration::ZERO,
        });
        run.absorb(&HiDeStoreVersionStats {
            version: VersionId::new(2),
            logical_bytes: 1000,
            stored_bytes: 0,
            chunks: 10,
            unique_chunks: 0,
            cold_chunks: 0,
            cold_bytes: 0,
            archival_containers_sealed: 0,
            containers_merged: 0,
            lookup_requests: 1,
            fingerprint_cache_bytes: 280,
            recipe_update_time: Duration::ZERO,
            chunk_move_time: Duration::ZERO,
        });
        assert!((run.dedup_ratio() - 0.5).abs() < 1e-9);
        assert_eq!(run.versions, 2);
    }

    #[test]
    fn per_version_metrics_normalize() {
        let v = HiDeStoreVersionStats {
            version: VersionId::new(1),
            logical_bytes: 1 << 30,
            stored_bytes: 0,
            chunks: 0,
            unique_chunks: 0,
            cold_chunks: 0,
            cold_bytes: 0,
            archival_containers_sealed: 0,
            containers_merged: 0,
            lookup_requests: 250,
            fingerprint_cache_bytes: 2 << 20,
            recipe_update_time: Duration::ZERO,
            chunk_move_time: Duration::ZERO,
        };
        assert!((v.lookups_per_gb() - 250.0).abs() < 1e-9);
        assert!((v.cache_bytes_per_mb() - 2048.0).abs() < 1e-9);
    }
}
