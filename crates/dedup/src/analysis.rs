//! Fragmentation analysis: quantifying §2.3's chunk-fragmentation problem.
//!
//! The paper motivates HiDeStore with the observation that deduplication
//! scatters each stream's chunks over ever more containers. This module
//! measures that directly from recipes: per version, the number of distinct
//! containers referenced, the **Chunk Fragmentation Level** (CFL — the
//! related-work metric of Nam et al.: optimal container count divided by
//! actual), and the container-contribution histogram that explains why
//! container caches stop working (each cached container holds fewer and
//! fewer useful chunks).

use std::collections::HashMap;

use hidestore_storage::{ContainerId, Recipe};

/// Fragmentation metrics of one backup stream's recipe.
#[derive(Debug, Clone, PartialEq)]
pub struct FragmentationReport {
    /// Logical bytes of the stream.
    pub logical_bytes: u64,
    /// Distinct containers the recipe references.
    pub containers_referenced: usize,
    /// The minimum number of containers that could hold the stream
    /// (`ceil(logical_bytes / container_capacity)`).
    pub optimal_containers: usize,
    /// Chunk Fragmentation Level: `optimal / actual`, capped at 1.0.
    /// 1.0 = perfectly clustered; small values = heavily fragmented.
    pub cfl: f64,
    /// Mean bytes each referenced container contributes to the stream —
    /// the "useful bytes per container read" a cache can hope for.
    pub mean_bytes_per_container: f64,
    /// The Gini-style skew of container contributions in `[0, 1)`:
    /// 0 = every container contributes equally, →1 = a few containers carry
    /// almost everything while many contribute a sliver (the fragmentation
    /// tail that thrashes caches).
    pub contribution_skew: f64,
}

/// Computes fragmentation metrics for `recipe` given the container capacity
/// in force. Entries must be resolved to archival containers (run
/// Algorithm 1 first for HiDeStore recipes); `ACTIVE`/chained entries are
/// grouped under their sign as pseudo-containers.
///
/// # Examples
///
/// ```
/// use hidestore_dedup::analysis::analyze_recipe;
/// use hidestore_storage::{Cid, ContainerId, Recipe, RecipeEntry, VersionId};
/// use hidestore_hash::Fingerprint;
///
/// let mut r = Recipe::new(VersionId::new(1));
/// for i in 0..8u64 {
///     r.push(RecipeEntry::new(
///         Fingerprint::synthetic(i),
///         1024,
///         Cid::archival(ContainerId::new(1 + (i % 2) as u32)),
///     ));
/// }
/// let report = analyze_recipe(&r, 8 * 1024);
/// assert_eq!(report.containers_referenced, 2);
/// assert!((report.cfl - 0.5).abs() < 1e-9); // 1 optimal vs 2 actual
/// ```
pub fn analyze_recipe(recipe: &Recipe, container_capacity: usize) -> FragmentationReport {
    let mut contribution: HashMap<i64, u64> = HashMap::new();
    for entry in recipe.entries() {
        let key = match entry.cid.as_archival() {
            Some(c) => c.get() as i64,
            None => entry.cid.raw() as i64 - i64::from(u32::MAX), // pseudo-container
        };
        *contribution.entry(key).or_default() += entry.size as u64;
    }
    let logical_bytes = recipe.total_bytes();
    let containers_referenced = contribution.len();
    let optimal_containers = ((logical_bytes as usize).div_ceil(container_capacity.max(1))).max(1);
    let cfl = if containers_referenced == 0 {
        1.0
    } else {
        (optimal_containers as f64 / containers_referenced as f64).min(1.0)
    };
    let mean_bytes_per_container = if containers_referenced == 0 {
        0.0
    } else {
        logical_bytes as f64 / containers_referenced as f64
    };
    FragmentationReport {
        logical_bytes,
        containers_referenced,
        optimal_containers,
        cfl,
        mean_bytes_per_container,
        contribution_skew: gini(contribution.values().copied()),
    }
}

/// Gini coefficient of a set of non-negative contributions.
fn gini(values: impl Iterator<Item = u64>) -> f64 {
    let mut v: Vec<u64> = values.collect();
    if v.len() <= 1 {
        return 0.0;
    }
    v.sort_unstable();
    let n = v.len() as f64;
    let total: u64 = v.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let weighted: f64 = v
        .iter()
        .enumerate()
        .map(|(i, &x)| (i as f64 + 1.0) * x as f64)
        .sum();
    ((2.0 * weighted) / (n * total as f64) - (n + 1.0) / n).max(0.0)
}

/// Computes fragmentation metrics for a fully *resolved* restore plan —
/// `(size, container)` pairs where every chunk has its physical container
/// (e.g. the output of HiDeStore's chain resolution, where hot chunks map
/// to active-pool containers). Use this instead of [`analyze_recipe`] when
/// recipes contain `ACTIVE` entries, which a recipe-only analysis cannot
/// attribute to physical containers.
pub fn analyze_plan(
    entries: impl IntoIterator<Item = (u32, ContainerId)>,
    container_capacity: usize,
) -> FragmentationReport {
    let mut contribution: HashMap<ContainerId, u64> = HashMap::new();
    let mut logical_bytes = 0u64;
    for (size, container) in entries {
        logical_bytes += size as u64;
        *contribution.entry(container).or_default() += size as u64;
    }
    let containers_referenced = contribution.len();
    let optimal_containers = ((logical_bytes as usize).div_ceil(container_capacity.max(1))).max(1);
    let cfl = if containers_referenced == 0 {
        1.0
    } else {
        (optimal_containers as f64 / containers_referenced as f64).min(1.0)
    };
    let mean_bytes_per_container = if containers_referenced == 0 {
        0.0
    } else {
        logical_bytes as f64 / containers_referenced as f64
    };
    FragmentationReport {
        logical_bytes,
        containers_referenced,
        optimal_containers,
        cfl,
        mean_bytes_per_container,
        contribution_skew: gini(contribution.values().copied()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hidestore_hash::Fingerprint;
    use hidestore_storage::{Cid, RecipeEntry, VersionId};

    fn recipe_over(containers: &[u32], chunk_size: u32) -> Recipe {
        let mut r = Recipe::new(VersionId::new(1));
        for (i, &c) in containers.iter().enumerate() {
            r.push(RecipeEntry::new(
                Fingerprint::synthetic(i as u64),
                chunk_size,
                Cid::archival(ContainerId::new(c)),
            ));
        }
        r
    }

    #[test]
    fn perfectly_clustered_stream_has_cfl_one() {
        // 8 chunks of 1 KiB in one 8 KiB container.
        let r = recipe_over(&[1; 8], 1024);
        let report = analyze_recipe(&r, 8 * 1024);
        assert_eq!(report.containers_referenced, 1);
        assert!((report.cfl - 1.0).abs() < 1e-9);
        assert_eq!(report.contribution_skew, 0.0);
    }

    #[test]
    fn scattered_stream_has_low_cfl() {
        // 8 chunks in 8 different containers where 1 would suffice.
        let r = recipe_over(&[1, 2, 3, 4, 5, 6, 7, 8], 1024);
        let report = analyze_recipe(&r, 8 * 1024);
        assert_eq!(report.containers_referenced, 8);
        assert!((report.cfl - 0.125).abs() < 1e-9);
        assert!((report.mean_bytes_per_container - 1024.0).abs() < 1e-9);
    }

    #[test]
    fn skew_detects_long_tails() {
        // One container carries 9 chunks, nine containers carry 1 each.
        let mut layout = vec![1u32; 9];
        layout.extend(2..=10);
        let r = recipe_over(&layout, 1024);
        let skewed = analyze_recipe(&r, 1 << 20).contribution_skew;
        let uniform =
            analyze_recipe(&recipe_over(&[1, 2, 3, 4, 5, 6], 1024), 1 << 20).contribution_skew;
        assert!(
            skewed > uniform + 0.2,
            "skewed {skewed:.3} vs uniform {uniform:.3}"
        );
    }

    #[test]
    fn analyze_plan_counts_physical_containers() {
        let plan = vec![
            (1024u32, ContainerId::new(1)),
            (1024, ContainerId::new(1)),
            (1024, ContainerId::new(7)),
        ];
        let report = analyze_plan(plan, 4096);
        assert_eq!(report.containers_referenced, 2);
        assert_eq!(report.logical_bytes, 3072);
    }

    #[test]
    fn empty_recipe_is_safe() {
        let r = Recipe::new(VersionId::new(1));
        let report = analyze_recipe(&r, 4096);
        assert_eq!(report.containers_referenced, 0);
        assert!((report.cfl - 1.0).abs() < 1e-9);
    }
}
