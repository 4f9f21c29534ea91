//! The deletion report of §5.5. A backup reports the one
//! [`hidestore_dedup::VersionStats`] record every scheme shares.

use std::time::Duration;

// Exists only because `hdsbench/src/workload.rs` (frozen) names the
// per-version record by its old HiDeStore-only name.
#[doc(hidden)]
pub type HiDeStoreVersionStats = hidestore_dedup::VersionStats;

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
