//! Traditional expired-version deletion: chunk liveness detection plus
//! mark-sweep garbage collection.
//!
//! The paper (§4.5, §5.5) contrasts HiDeStore's free deletion with what
//! conventional systems must do: a deleted version's chunks may be shared
//! with surviving versions, so the system must **mark** every chunk
//! referenced by a surviving recipe, then **sweep** containers, dropping
//! dead chunks and copying the survivors of sparse containers into fresh
//! ones (updating every affected recipe). This module implements that
//! baseline so the deletion experiment has its comparator.

use std::collections::{HashMap, HashSet};

use hidestore_hash::Fingerprint;
use hidestore_storage::{
    ContainerBuilder, ContainerId, ContainerStore, MemoryContainerStore, RecipeStore, StorageError,
    VersionId,
};

/// Outcome of a mark-sweep collection.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcReport {
    /// Containers examined during the sweep.
    pub containers_scanned: u64,
    /// Containers dropped entirely (no live chunks).
    pub containers_dropped: u64,
    /// Containers rewritten to evict dead chunks.
    pub containers_compacted: u64,
    /// Chunks reclaimed.
    pub chunks_reclaimed: u64,
    /// Bytes reclaimed.
    pub bytes_reclaimed: u64,
    /// Recipe entries whose container reference was updated.
    pub recipe_entries_updated: u64,
}

/// Deletes `expired` versions from `recipes` and garbage-collects `store`.
///
/// The mark phase walks every surviving recipe (cost proportional to total
/// retained metadata — this is the expense the paper's §5.5 highlights). The
/// sweep phase drops fully-dead containers and compacts containers whose
/// live fraction fell below `compact_threshold` by merging their survivors
/// into fresh containers, rewriting affected recipe entries. A container
/// that stays dense is compacted where it stands
/// ([`MemoryContainerStore::replace`]): this comparator models the
/// in-memory Destor baseline only, which is why it takes that store type.
///
/// # Errors
///
/// Fails if the container store rejects an operation mid-sweep; containers
/// already processed stay processed.
pub fn mark_sweep(
    expired: &[VersionId],
    recipes: &mut RecipeStore,
    store: &mut MemoryContainerStore,
    compact_threshold: f64,
    next_container_id: &mut u32,
) -> Result<GcReport, StorageError> {
    let mut report = GcReport::default();

    for &v in expired {
        recipes.remove(v);
    }

    // Mark: every fingerprint referenced by a surviving recipe is live.
    let mut live: HashSet<Fingerprint> = HashSet::new();
    for recipe in recipes.iter() {
        for entry in recipe.entries() {
            live.insert(entry.fingerprint);
        }
    }

    // Sweep: scan every container.
    let mut relocations: HashMap<Fingerprint, ContainerId> = HashMap::new();
    let mut merge: Option<ContainerBuilder> = None;
    for id in store.ids() {
        report.containers_scanned += 1;
        let container = store.read(id)?;
        let dead: Vec<Fingerprint> = container
            .fingerprints()
            .filter(|fp| !live.contains(fp))
            .collect();
        if dead.is_empty() {
            continue;
        }
        if dead.len() == container.chunk_count() {
            // Entirely dead: drop it.
            report.containers_dropped += 1;
            report.chunks_reclaimed += dead.len() as u64;
            report.bytes_reclaimed += container.live_bytes() as u64;
            store.remove(id)?;
            continue;
        }
        let mut modified = (*container).clone();
        for fp in &dead {
            report.chunks_reclaimed += 1;
            modified.remove(fp);
        }
        report.bytes_reclaimed += (modified.used_bytes() - modified.live_bytes()) as u64;
        if modified.utilization() < compact_threshold {
            // Sparse: migrate live chunks into the merge target.
            report.containers_compacted += 1;
            let builder = merge.get_or_insert_with(|| {
                ContainerBuilder::new(*next_container_id, container.capacity())
            });
            for (fp, data) in modified.drain_chunks() {
                let (cid, full) = builder.append(fp, &data);
                *next_container_id = builder.next_id();
                relocations.insert(fp, cid);
                if let Some(full) = full {
                    store.write(full)?;
                }
            }
            store.remove(id)?;
        } else {
            modified.compact_in_place();
            store.replace(modified)?;
        }
    }
    if let Some(last) = merge.and_then(|mut builder| builder.take_open()) {
        store.write(last)?;
    }

    // Fix surviving recipes that referenced migrated chunks.
    report.recipe_entries_updated = recipes.relocate_archival(&relocations);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BackupPipeline, PipelineConfig};
    use hidestore_index::DdfsIndex;
    use hidestore_restore::Faa;
    use hidestore_rewriting::NoRewrite;
    use hidestore_storage::MemoryContainerStore;

    fn noise(len: usize, seed: u64) -> Vec<u8> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 32) as u8
            })
            .collect()
    }

    fn build_three_versions() -> (
        BackupPipeline<DdfsIndex, NoRewrite, MemoryContainerStore>,
        Vec<Vec<u8>>,
    ) {
        let mut p = BackupPipeline::new(
            PipelineConfig::small_for_tests(),
            DdfsIndex::new(),
            NoRewrite::new(),
            MemoryContainerStore::new(),
        );
        let mut datasets = Vec::new();
        let mut data = noise(120_000, 11);
        for round in 0..3u64 {
            p.backup(&data).unwrap();
            datasets.push(data.clone());
            let start = (round as usize * 30_000) % 80_000;
            let patch = noise(10_000, 500 + round);
            data[start..start + 10_000].copy_from_slice(&patch);
        }
        (p, datasets)
    }

    #[test]
    fn deleting_oldest_keeps_survivors_restorable() {
        let (mut p, datasets) = build_three_versions();
        let mut next_id = 10_000;
        let mut recipes = std::mem::take(p.recipes_mut());
        let report = mark_sweep(
            &[VersionId::new(1)],
            &mut recipes,
            p.store_mut(),
            0.4,
            &mut next_id,
        )
        .unwrap();
        *p.recipes_mut() = recipes;
        assert!(report.containers_scanned > 0);
        for v in 2..=3u32 {
            let mut out = Vec::new();
            p.restore(VersionId::new(v), &mut Faa::new(1 << 20), &mut out)
                .unwrap();
            assert_eq!(out, datasets[(v - 1) as usize], "version {v}");
        }
    }

    #[test]
    fn exclusive_chunks_reclaimed() {
        let (mut p, _) = build_three_versions();
        let stored_before: usize = p.store().ids().len();
        let mut next_id = 10_000;
        let mut recipes = std::mem::take(p.recipes_mut());
        let report = mark_sweep(
            &[VersionId::new(1)],
            &mut recipes,
            p.store_mut(),
            0.4,
            &mut next_id,
        )
        .unwrap();
        *p.recipes_mut() = recipes;
        assert!(report.chunks_reclaimed > 0, "v1-exclusive chunks must die");
        let _ = stored_before;
    }

    #[test]
    fn deleting_all_versions_empties_store() {
        let (mut p, _) = build_three_versions();
        let mut next_id = 10_000;
        let mut recipes = std::mem::take(p.recipes_mut());
        let versions: Vec<VersionId> = recipes.versions();
        let report = mark_sweep(&versions, &mut recipes, p.store_mut(), 0.4, &mut next_id).unwrap();
        assert_eq!(p.store().ids().len(), 0);
        assert!(report.containers_dropped > 0);
    }

    #[test]
    fn gc_with_no_expired_versions_reclaims_nothing() {
        let (mut p, _) = build_three_versions();
        let mut next_id = 10_000;
        let mut recipes = std::mem::take(p.recipes_mut());
        let report = mark_sweep(&[], &mut recipes, p.store_mut(), 0.4, &mut next_id).unwrap();
        *p.recipes_mut() = recipes;
        assert_eq!(report.chunks_reclaimed, 0);
        assert_eq!(report.containers_dropped, 0);
    }
}
