//! Fragmentation analysis: quantifying §2.3's chunk-fragmentation problem.
//!
//! The paper motivates HiDeStore with the observation that deduplication
//! scatters each stream's chunks over ever more containers. A version's
//! physical layout is its restore plan, so this module has one measure over
//! a plan: the **Chunk Fragmentation Level** (CFL — the related-work metric
//! of Nam et al.: optimal container count divided by actual) and the mean
//! bytes each touched container contributes. Both the baselines
//! (`BackupPipeline::restore_plan`) and HiDeStore (`HiDeStore::restore_plan`)
//! are measured through it.

use std::collections::HashSet;

use hidestore_restore::RestoreEntry;

/// Fragmentation metrics of one version's restore plan.
#[derive(Debug, Clone, PartialEq)]
pub struct FragmentationReport {
    /// Chunk Fragmentation Level: `optimal / actual` container count,
    /// capped at 1.0, where optimal is `ceil(logical bytes / container
    /// capacity)`. 1.0 = perfectly clustered; small values = heavily
    /// fragmented.
    pub cfl: f64,
    /// Mean bytes each referenced container contributes to the stream —
    /// the "useful bytes per container read" a cache can hope for.
    pub mean_bytes_per_container: f64,
}

/// Measures the fragmentation of a resolved restore `plan`, where every
/// chunk carries the container that physically holds it, given the
/// container capacity in force.
///
/// # Examples
///
/// ```
/// use hidestore_dedup::analysis::analyze_plan;
/// use hidestore_hash::Fingerprint;
/// use hidestore_restore::RestoreEntry;
/// use hidestore_storage::ContainerId;
///
/// let plan: Vec<RestoreEntry> = (0..8u64)
///     .map(|i| {
///         let container = ContainerId::new(1 + (i % 2) as u32);
///         RestoreEntry::new(Fingerprint::synthetic(i), 1024, container)
///     })
///     .collect();
/// let report = analyze_plan(&plan, 8 * 1024);
/// assert!((report.cfl - 0.5).abs() < 1e-9); // 1 optimal vs 2 actual
/// ```
pub fn analyze_plan(plan: &[RestoreEntry], container_capacity: usize) -> FragmentationReport {
    let logical_bytes: u64 = plan.iter().map(|e| u64::from(e.size)).sum();
    let containers = plan
        .iter()
        .map(|e| e.container)
        .collect::<HashSet<_>>()
        .len();
    if containers == 0 {
        return FragmentationReport {
            cfl: 1.0,
            mean_bytes_per_container: 0.0,
        };
    }
    let optimal = (logical_bytes as usize)
        .div_ceil(container_capacity.max(1))
        .max(1);
    FragmentationReport {
        cfl: (optimal as f64 / containers as f64).min(1.0),
        mean_bytes_per_container: logical_bytes as f64 / containers as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hidestore_hash::Fingerprint;
    use hidestore_storage::ContainerId;

    fn plan_over(containers: &[u32], chunk_size: u32) -> Vec<RestoreEntry> {
        (0u64..)
            .zip(containers)
            .map(|(i, &c)| {
                RestoreEntry::new(Fingerprint::synthetic(i), chunk_size, ContainerId::new(c))
            })
            .collect()
    }

    #[test]
    fn perfectly_clustered_stream_has_cfl_one() {
        // 8 chunks of 1 KiB in one 8 KiB container.
        let report = analyze_plan(&plan_over(&[1; 8], 1024), 8 * 1024);
        assert!((report.cfl - 1.0).abs() < 1e-9);
        assert!((report.mean_bytes_per_container - 8192.0).abs() < 1e-9);
    }

    #[test]
    fn scattered_stream_has_low_cfl() {
        // 8 chunks in 8 different containers where 1 would suffice.
        let report = analyze_plan(&plan_over(&[1, 2, 3, 4, 5, 6, 7, 8], 1024), 8 * 1024);
        assert!((report.cfl - 0.125).abs() < 1e-9);
        assert!((report.mean_bytes_per_container - 1024.0).abs() < 1e-9);
    }

    #[test]
    fn analyze_plan_counts_physical_containers() {
        // 3 KiB over two containers, either of which could hold it all.
        let report = analyze_plan(&plan_over(&[1, 1, 7], 1024), 4096);
        assert!((report.cfl - 0.5).abs() < 1e-9);
        assert!((report.mean_bytes_per_container - 1536.0).abs() < 1e-9);
    }

    #[test]
    fn empty_plan_is_safe() {
        let report = analyze_plan(&[], 4096);
        assert!((report.cfl - 1.0).abs() < 1e-9);
        assert_eq!(report.mean_bytes_per_container, 0.0);
    }
}
