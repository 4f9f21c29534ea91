//! Offline archival re-clustering — an extension beyond the paper.
//!
//! HiDeStore deliberately sacrifices *old* versions' restore locality
//! (§5.3): cold chunks are demoted in demotion order, so an old version's
//! chunks end up interleaved with other versions' cold chunks across the
//! archival containers sealed at the same time. Because the demotion tag
//! also drives deletion, the archival layout can be **re-clustered offline**
//! without touching any invariant: within each version-tag group, chunks
//! are repacked in the order of the oldest surviving recipe that references
//! them. Restores of old versions then read each tag group's containers
//! mostly sequentially.
//!
//! Each multi-container group is copied into fresh containers (new IDs,
//! same tag) and its old containers are removed, so the group's stored
//! bytes — and the deduplication ratio — are unchanged once the next save
//! commits; containers keep their version tags, so §4.5 deletion stays a
//! tag-ranged container drop. Committed containers are never overwritten:
//! a crash before that save leaves the fresh ones as quarantined residue
//! and the committed layout intact (DESIGN.md §7.5).

use std::collections::HashMap;

use hidestore_hash::Fingerprint;
use hidestore_storage::{ContainerId, ContainerStore};

use crate::system::{HiDeStore, HiDeStoreError};

/// Outcome of [`HiDeStore::recluster_archival`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReclusterReport {
    /// Version-tag groups processed.
    pub tag_groups: u64,
    /// Fresh containers written (each group's old ones are removed).
    pub containers_rewritten: u64,
    /// Chunks copied into the fresh containers.
    pub chunks_moved: u64,
    /// Recipe entries updated to the new locations.
    pub recipe_entries_updated: u64,
}

impl<S: ContainerStore> HiDeStore<S> {
    /// Re-clusters the archival containers offline (see module docs): within
    /// every version-tag group, chunks are repacked in the read order of the
    /// oldest surviving recipe referencing them, and all recipes are updated
    /// to the new container IDs. Improves old-version restore locality with
    /// no deduplication-ratio cost; deletion semantics are unchanged.
    ///
    /// Recipe chains are flattened first (Algorithm 1), as in any offline
    /// maintenance pass.
    ///
    /// # Errors
    ///
    /// Fails if the container store rejects a read or write mid-pass.
    pub fn recluster_archival(&mut self) -> Result<ReclusterReport, HiDeStoreError> {
        self.flatten_recipes();
        let mut report = ReclusterReport::default();

        // Read order: for each archival-resident fingerprint, the oldest
        // surviving recipe referencing it and its position there.
        let mut order: HashMap<Fingerprint, (u32, u32)> = HashMap::new();
        for recipe in self.recipes().iter() {
            let v = recipe.version().get();
            for (pos, entry) in recipe.entries().iter().enumerate() {
                if entry.cid.as_archival().is_some() {
                    order.entry(entry.fingerprint).or_insert((v, pos as u32));
                }
            }
        }

        // Group archival containers by version tag.
        let mut groups: HashMap<u32, Vec<ContainerId>> = HashMap::new();
        for id in self.archival().ids() {
            let container = self.archival().read(id)?;
            groups.entry(container.version_tag()).or_default().push(id);
        }

        let mut relocations: HashMap<Fingerprint, ContainerId> = HashMap::new();
        let mut tags: Vec<u32> = groups.keys().copied().collect();
        tags.sort_unstable();
        for tag in tags {
            let ids = &groups[&tag];
            if ids.len() < 2 {
                // A single container per tag is already as clustered as it
                // can get.
                continue;
            }
            report.tag_groups += 1;
            // Pull every chunk of the group.
            let mut chunks: Vec<(Fingerprint, Vec<u8>)> = Vec::new();
            for &id in ids {
                let container = self.archival().read(id)?;
                chunks.extend(container.drain_chunks());
            }
            // Repack in recipe read order; unreferenced chunks last (they
            // belong to already-expired references and will die with the
            // tag group).
            chunks.sort_by_key(|(fp, _)| order.get(fp).copied().unwrap_or((u32::MAX, u32::MAX)));
            report.chunks_moved += chunks.len() as u64;
            // The group is written afresh under new IDs and the same tag;
            // its old containers leave through the deferred-removal queue,
            // so a crash before the next save still restores every
            // committed version from them.
            let (homes, sealed) = self.pack_archival(tag, chunks)?;
            relocations.extend(homes);
            report.containers_rewritten += sealed;
            for &id in ids {
                self.archival_mut().remove(id)?;
            }
        }

        // Point every recipe at the new homes.
        report.recipe_entries_updated = self.recipes_mut_internal().relocate_archival(&relocations);
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HiDeStoreConfig;
    use hidestore_restore::Faa;
    use hidestore_storage::{MemoryContainerStore, VersionId};

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

    fn churned_system() -> (HiDeStore<MemoryContainerStore>, Vec<Vec<u8>>) {
        let mut hds = HiDeStore::new(
            HiDeStoreConfig {
                avg_chunk_size: 1024,
                // Small containers so each version's cold set spans several,
                // giving the recluster pass real multi-container tag groups.
                container_capacity: 8 * 1024,
                ..HiDeStoreConfig::small_for_tests()
            },
            MemoryContainerStore::new(),
        );
        let mut snapshots = Vec::new();
        let mut data = noise(200_000, 41);
        for round in 0..8u64 {
            hds.backup(&data).unwrap();
            snapshots.push(data.clone());
            let start = (round as usize * 23_000) % 150_000;
            data[start..start + 20_000].copy_from_slice(&noise(20_000, 900 + round));
        }
        (hds, snapshots)
    }

    #[test]
    fn recluster_preserves_every_version() {
        let (mut hds, snapshots) = churned_system();
        let report = hds.recluster_archival().unwrap();
        assert!(report.chunks_moved > 0, "{report:?}");
        for (i, snapshot) in snapshots.iter().enumerate() {
            let mut out = Vec::new();
            hds.restore(
                VersionId::new(i as u32 + 1),
                &mut Faa::new(1 << 18),
                &mut out,
            )
            .unwrap();
            assert_eq!(&out, snapshot, "V{} after recluster", i + 1);
        }
    }

    #[test]
    fn recluster_improves_or_preserves_old_version_reads() {
        let (mut hds, _) = churned_system();
        let reads = |hds: &mut HiDeStore<MemoryContainerStore>, v: u32| {
            let mut cache = Faa::new(1 << 18);
            hds.restore(VersionId::new(v), &mut cache, &mut std::io::sink())
                .unwrap()
                .container_reads
        };
        hds.flatten_recipes();
        let before: u64 = (1..=4u32).map(|v| reads(&mut hds, v)).sum();
        hds.recluster_archival().unwrap();
        let after: u64 = (1..=4u32).map(|v| reads(&mut hds, v)).sum();
        assert!(
            after <= before,
            "old-version reads should not regress: {before} -> {after}"
        );
    }

    #[test]
    fn recluster_is_space_neutral() {
        let (mut hds, _) = churned_system();
        let live_before: u64 = {
            let store = hds.archival();
            store.total_live_bytes()
        };
        hds.recluster_archival().unwrap();
        assert_eq!(hds.archival().total_live_bytes(), live_before);
    }

    #[test]
    fn deletion_still_safe_after_recluster() {
        let (mut hds, snapshots) = churned_system();
        hds.recluster_archival().unwrap();
        hds.delete_expired(VersionId::new(4)).unwrap();
        for v in 5..=8u32 {
            let mut out = Vec::new();
            hds.restore(VersionId::new(v), &mut Faa::new(1 << 18), &mut out)
                .unwrap();
            assert_eq!(&out, &snapshots[(v - 1) as usize], "survivor V{v}");
        }
    }

    #[test]
    fn recluster_twice_is_stable() {
        let (mut hds, snapshots) = churned_system();
        hds.recluster_archival().unwrap();
        let second = hds.recluster_archival().unwrap();
        // The second pass finds everything already in order: entries may be
        // rewritten but restores stay correct.
        let _ = second;
        let mut out = Vec::new();
        hds.restore(VersionId::new(1), &mut Faa::new(1 << 18), &mut out)
            .unwrap();
        assert_eq!(out, snapshots[0]);
    }
}
