//! Out-of-line deduplication: the hybrid mode — an extension beyond the
//! paper.
//!
//! HiDeStore deduplicates *inline* and keeps the newest version hot. The
//! hybrid inline/out-of-line scheme (`init --scheme hybrid`, persisted in
//! the repository config as [`DedupMode::Hybrid`]) attacks the same goal
//! from the other side: exact chunk-level inline dedup, but only against an
//! in-memory map of the *previous* version (no on-disk fingerprint index);
//! duplicates against older versions are deferred to
//! [`HiDeStore::out_of_line_pass`], which keeps the newest version's copy of
//! every chunk.
//!
//! The scheme writes chunks straight into version-tagged archival
//! containers and emits recipes with direct archival references — the
//! active pool, fingerprint cache, and recipe chains stay empty/unused, so
//! restore, persistence, and fsck work unchanged.
//!
//! ## Crash safety of the out-of-line pass
//!
//! The pass never overwrites a container in place. Shrunken containers are
//! rebuilt under **fresh** archival IDs (uncommitted until the next saved
//! transaction — a crash quarantines them as residue and the committed
//! layout still restores every version), and old containers are removed
//! through the store's deferred-removal queue, which the next
//! `save_repository` journals atomically with the repointed recipes.

use std::collections::{HashMap, HashSet};
use std::ops::Range;
use std::time::Instant;

use hidestore_dedup::VersionStats;
use hidestore_hash::{Fingerprint, FINGERPRINT_LEN};
use hidestore_storage::{
    Cid, ContainerId, ContainerStore, Recipe, RecipeEntry, RecipeStore, VersionId,
};

use crate::config::DedupMode;
use crate::stats::DeletionReport;
use crate::system::{HiDeStore, HiDeStoreError};

/// The hybrid mode's inline-dedup state: the *newest* ingested version's
/// chunk fingerprint → container map. Derived state — rebuilt from the
/// newest recipe on open and after every backup or maintenance pass, never
/// persisted.
#[derive(Debug, Default)]
pub(crate) struct SchemeState {
    chunks: HashMap<Fingerprint, ContainerId>,
}

impl SchemeState {
    /// Rebuilds the map from the newest retained recipe's archival entries
    /// (every entry, for scheme-written recipes).
    pub(crate) fn rebuild(mode: DedupMode, recipes: &RecipeStore) -> SchemeState {
        let mut state = SchemeState::default();
        if !mode.is_out_of_line() {
            return state;
        }
        let Some(recipe) = recipes.latest_version().and_then(|v| recipes.get(v)) else {
            return state;
        };
        for e in recipe.entries() {
            if let Some(cid) = e.cid.as_archival() {
                state.chunks.insert(e.fingerprint, cid);
            }
        }
        state
    }

    /// Approximate memory footprint of the inline map (the scheme
    /// equivalent of HiDeStore's fingerprint-cache bytes).
    pub(crate) fn table_bytes(&self) -> u64 {
        let entry = FINGERPRINT_LEN + std::mem::size_of::<ContainerId>();
        (self.chunks.len() * entry) as u64
    }
}

/// Outcome of [`HiDeStore::out_of_line_pass`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OutOfLineReport {
    /// Duplicate chunk copies removed from the archival containers.
    pub duplicate_chunks_removed: u64,
    /// Bytes those duplicates occupied.
    pub bytes_reclaimed: u64,
    /// Replacement containers written (under fresh IDs).
    pub containers_rewritten: u64,
    /// Containers dropped entirely (every chunk was a duplicate copy).
    pub containers_removed: u64,
    /// Recipe entries repointed at canonical chunk locations.
    pub recipe_entries_updated: u64,
    /// Bytes of *surviving* chunks copied while rebuilding containers:
    /// rewrite traffic, not new user data.
    pub rewritten_bytes: u64,
    /// Wall-clock time of the pass.
    pub elapsed: std::time::Duration,
}

impl<S: ContainerStore> HiDeStore<S> {
    /// Ingest path for the hybrid mode: inline dedup of single chunks
    /// against the previous version only, everything else written straight
    /// into version-tagged archival containers, and a recipe of direct
    /// archival references.
    pub(crate) fn run_backup_out_of_line(
        &mut self,
        data: &[u8],
        spans: &[Range<usize>],
        fingerprints: &[Fingerprint],
    ) -> Result<VersionStats, HiDeStoreError> {
        let version = self.alloc_version();
        let logical_bytes = data.len() as u64;

        // Inline classification against the previous version's chunk map:
        // one lookup per chunk.
        let placements: Vec<Option<ContainerId>> = fingerprints
            .iter()
            .map(|fp| self.scheme_state().chunks.get(fp).copied())
            .collect();
        let lookup_requests = fingerprints.len() as u64;

        // Store pass: the first copy of every unplaced chunk goes into
        // fresh archival containers tagged with this version; later
        // duplicates within the version reuse it.
        let mut first_copies: Vec<usize> = Vec::new();
        let mut seen: HashSet<Fingerprint> = HashSet::new();
        for (i, fp) in fingerprints.iter().enumerate() {
            if placements[i].is_none() && seen.insert(*fp) {
                first_copies.push(i);
            }
        }
        let (stored, sealed) = self.pack_archival(
            version.get(),
            first_copies
                .iter()
                .map(|&i| (fingerprints[i], &data[spans[i].clone()])),
        )?;
        let stored_bytes: u64 = first_copies.iter().map(|&i| spans[i].len() as u64).sum();
        let mut recipe = Recipe::new(version);
        for (i, (&fp, span)) in fingerprints.iter().zip(spans).enumerate() {
            let cid = placements[i].unwrap_or_else(|| stored[&fp]);
            recipe.push(RecipeEntry::new(fp, span.len() as u32, Cid::archival(cid)));
        }
        self.recipes_mut_internal().insert(recipe);
        // The version just ingested becomes the next one's inline target.
        self.rebuild_scheme_state();

        let stats = VersionStats {
            logical_bytes,
            stored_bytes,
            chunks: fingerprints.len() as u64,
            stored_chunks: first_copies.len() as u64,
            lookup_requests,
            fingerprint_cache_bytes: self.scheme_state().table_bytes(),
            archival_containers_sealed: sealed,
            ..VersionStats::new(version)
        };
        self.record_version_stats(stats);
        Ok(stats)
    }

    /// Runs the out-of-line deduplication pass (the hybrid scheme's
    /// deferred fine-grained dedup): every fingerprint keeps exactly one
    /// canonical copy — the **newest** version's — duplicate copies in
    /// older containers are dropped, containers that shrank are rebuilt
    /// under fresh IDs, and all recipes are repointed. The newest backup's
    /// physical layout is untouched, so its restore locality is preserved;
    /// the pass trades a burst of offline I/O for the deduplication the
    /// scheme skipped at ingest.
    ///
    /// Crash-safe by construction (see module docs): replacement containers
    /// use fresh uncommitted IDs and removals are deferred, so an interrupted
    /// pass rolls back to the last saved boundary.
    ///
    /// # Errors
    ///
    /// Fails for repositories initialised with `--scheme hidestore` (which
    /// deduplicates inline and has nothing to do out of line) and on
    /// container-store I/O errors.
    pub fn out_of_line_pass(&mut self) -> Result<OutOfLineReport, HiDeStoreError> {
        if !self.config().scheme.is_out_of_line() {
            return Err(HiDeStoreError::Config(
                "scheme \"hidestore\" deduplicates inline and has no out-of-line pass \
                 (init with --scheme hybrid)"
                    .into(),
            ));
        }
        let start = Instant::now();
        let mut report = OutOfLineReport::default();

        // Canonical location per fingerprint: the newest version's copy
        // wins, so the pass preserves the latest backup's layout.
        let mut canonical: HashMap<Fingerprint, ContainerId> = HashMap::new();
        let mut versions = self.recipes().versions();
        versions.reverse();
        for &v in &versions {
            let Some(recipe) = self.recipes().get(v) else {
                continue;
            };
            for entry in recipe.entries() {
                if let Some(cid) = entry.cid.as_archival() {
                    canonical.entry(entry.fingerprint).or_insert(cid);
                }
            }
        }

        // Sweep the containers: a chunk survives only where it is some
        // fingerprint's canonical home. Containers that lost chunks are
        // rebuilt under fresh IDs; fully duplicate ones are dropped.
        let mut relocations: HashMap<Fingerprint, ContainerId> = HashMap::new();
        for id in self.archival_mut().ids() {
            let container = self.archival_mut().read(id)?;
            let tag = container.version_tag();
            let chunks = container.drain_chunks();
            drop(container);
            let (keep, dropped): (Vec<_>, Vec<_>) = chunks
                .into_iter()
                .partition(|(fp, _)| canonical.get(fp) == Some(&id));
            if dropped.is_empty() {
                continue;
            }
            report.duplicate_chunks_removed += dropped.len() as u64;
            report.bytes_reclaimed += dropped.iter().map(|(_, d)| d.len() as u64).sum::<u64>();
            if keep.is_empty() {
                self.archival_mut().remove(id)?;
                report.containers_removed += 1;
                continue;
            }
            report.rewritten_bytes += keep.iter().map(|(_, d)| d.len() as u64).sum::<u64>();
            let (homes, sealed) = self.pack_archival(tag, keep)?;
            relocations.extend(homes);
            report.containers_rewritten += sealed;
            self.archival_mut().remove(id)?;
        }

        // Repoint every archival recipe entry at its canonical — and
        // possibly relocated — home.
        canonical.extend(relocations);
        report.recipe_entries_updated = self.recipes_mut_internal().relocate_archival(&canonical);

        self.rebuild_scheme_state();
        report.elapsed = start.elapsed();
        Ok(report)
    }

    /// §4.5 deletion for the hybrid scheme. Tag-ranged container
    /// drops are unsafe here — newer versions deduplicate *inline* against
    /// older containers — so expiry is reference-based instead: recipes up
    /// to `up_to` are dropped, then every container no surviving recipe
    /// references is removed whole. Still no chunk-liveness detection; the
    /// out-of-line pass is what compacts partially dead containers.
    pub(crate) fn delete_expired_out_of_line(
        &mut self,
        up_to: VersionId,
    ) -> Result<DeletionReport, HiDeStoreError> {
        let start = Instant::now();
        let mut report = DeletionReport::default();
        for v in self.recipes().versions() {
            if v <= up_to {
                self.recipes_mut_internal().remove(v);
                report.versions_removed += 1;
            }
        }
        let mut referenced: HashSet<ContainerId> = HashSet::new();
        for recipe in self.recipes().iter() {
            for entry in recipe.entries() {
                if let Some(cid) = entry.cid.as_archival() {
                    referenced.insert(cid);
                }
            }
        }
        for id in self.archival_mut().ids() {
            if referenced.contains(&id) {
                continue;
            }
            let container = self.archival_mut().read(id)?;
            report.bytes_reclaimed += container.live_bytes() as u64;
            drop(container);
            self.archival_mut().remove(id)?;
            report.containers_dropped += 1;
        }
        report.elapsed = start.elapsed();
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HiDeStoreConfig;
    use hidestore_restore::Faa;
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

    fn evolve(data: &mut Vec<u8>, round: u64) {
        let start = (round as usize * 17_000) % (data.len().saturating_sub(9_000).max(1));
        let patch = noise(8_000.min(data.len() - start), 7_000 + round);
        data[start..start + patch.len()].copy_from_slice(&patch);
        data.extend_from_slice(&noise(1000, 9_000 + round));
    }

    fn system(mode: DedupMode) -> HiDeStore<MemoryContainerStore> {
        HiDeStore::new(
            HiDeStoreConfig::small_for_tests().with_scheme(mode),
            MemoryContainerStore::new(),
        )
    }

    fn versions(n: u64) -> Vec<Vec<u8>> {
        let mut data = noise(150_000, 31);
        let mut out = Vec::new();
        for round in 0..n {
            out.push(data.clone());
            evolve(&mut data, round);
        }
        out
    }

    /// The macos flapping pattern: an evolving base plus an extra block
    /// present only in every other version. The recurring extra chunks are
    /// re-stored on each reappearance (the previous version lacked them),
    /// which is exactly the duplication the out-of-line pass exists to
    /// reclaim.
    fn flapping_versions(n: u64) -> Vec<Vec<u8>> {
        let mut data = noise(120_000, 34);
        let extra = noise(40_000, 35);
        let mut out = Vec::new();
        for round in 0..n {
            let mut v = data.clone();
            if round % 2 == 0 {
                v.extend_from_slice(&extra);
            }
            out.push(v);
            evolve(&mut data, round);
        }
        out
    }

    fn restore_all(hds: &mut HiDeStore<MemoryContainerStore>, snapshots: &[Vec<u8>]) {
        for (i, snapshot) in snapshots.iter().enumerate() {
            let mut out = Vec::new();
            hds.restore(
                VersionId::new(i as u32 + 1),
                &mut Faa::new(1 << 20),
                &mut out,
            )
            .unwrap();
            assert_eq!(&out, snapshot, "version {}", i + 1);
        }
    }

    #[test]
    fn out_of_line_pass_reclaims_duplicates_and_preserves_restores() {
        let mut hds = system(DedupMode::Hybrid);
        let snapshots = flapping_versions(6);
        for v in &snapshots {
            hds.backup(v).unwrap();
        }
        let before = hds.archival().total_live_bytes();
        let old_ids: HashSet<ContainerId> = hds.archival().ids().into_iter().collect();
        let report = hds.out_of_line_pass().unwrap();
        assert!(
            report.duplicate_chunks_removed > 0,
            "flapping versions must leave duplicates"
        );
        assert_eq!(
            hds.archival().total_live_bytes(),
            before - report.bytes_reclaimed,
            "reclaim accounting"
        );
        // The rebuilt containers are exactly the ones under fresh IDs, and
        // they hold exactly the surviving bytes the pass copied.
        let rebuilt: u64 = hds
            .archival()
            .ids()
            .into_iter()
            .filter(|id| !old_ids.contains(id))
            .map(|id| hds.archival().read(id).unwrap().live_bytes() as u64)
            .sum();
        assert!(rebuilt > 0, "{report:?}");
        assert_eq!(report.rewritten_bytes, rebuilt, "rewrite accounting");
        restore_all(&mut hds, &snapshots);
    }

    #[test]
    fn out_of_line_pass_is_idempotent() {
        let mut hds = system(DedupMode::Hybrid);
        let snapshots = versions(5);
        for v in &snapshots {
            hds.backup(v).unwrap();
        }
        hds.out_of_line_pass().unwrap();
        let second = hds.out_of_line_pass().unwrap();
        assert_eq!(second.duplicate_chunks_removed, 0, "{second:?}");
        assert_eq!(second.containers_rewritten, 0, "{second:?}");
        restore_all(&mut hds, &snapshots);
    }

    #[test]
    fn hybrid_post_pass_matches_exact_dedup() {
        let mut hds = system(DedupMode::Hybrid);
        let snapshots = flapping_versions(6);
        let mut unique: std::collections::HashMap<Fingerprint, u64> =
            std::collections::HashMap::new();
        for v in &snapshots {
            hds.backup(v).unwrap();
        }
        hds.out_of_line_pass().unwrap();
        // Exact dedup lower bound: every distinct chunk exactly once.
        for recipe in hds.recipes().iter() {
            for e in recipe.entries() {
                unique.insert(e.fingerprint, e.size as u64);
            }
        }
        let exact_bytes: u64 = unique.values().sum();
        assert_eq!(
            hds.archival().total_live_bytes(),
            exact_bytes,
            "after the pass every distinct chunk is stored exactly once"
        );
    }

    #[test]
    fn newest_version_layout_untouched_by_pass() {
        let mut hds = system(DedupMode::Hybrid);
        let snapshots = versions(5);
        for v in &snapshots {
            hds.backup(v).unwrap();
        }
        let newest = *hds.versions().last().unwrap();
        let reads = |hds: &mut HiDeStore<MemoryContainerStore>| {
            hds.archival_mut().reset_stats();
            hds.restore(newest, &mut Faa::new(1 << 20), &mut std::io::sink())
                .unwrap();
            hds.archival().stats().container_reads
        };
        let before = reads(&mut hds);
        hds.out_of_line_pass().unwrap();
        let after = reads(&mut hds);
        assert!(
            after <= before,
            "the pass must not hurt the newest version: {before} -> {after}"
        );
    }

    #[test]
    fn out_of_line_delete_preserves_survivors() {
        let mut hds = system(DedupMode::Hybrid);
        let snapshots = versions(6);
        for v in &snapshots {
            hds.backup(v).unwrap();
        }
        hds.out_of_line_pass().unwrap();
        let report = hds.delete_expired(VersionId::new(3)).unwrap();
        assert_eq!(report.versions_removed, 3);
        for v in 4..=6u32 {
            let mut out = Vec::new();
            hds.restore(VersionId::new(v), &mut Faa::new(1 << 20), &mut out)
                .unwrap();
            assert_eq!(&out, &snapshots[(v - 1) as usize], "survivor V{v}");
        }
    }

    #[test]
    fn inline_scheme_rejects_pass() {
        let mut hds = system(DedupMode::HiDeStore);
        hds.backup(&noise(50_000, 33)).unwrap();
        let err = hds.out_of_line_pass().unwrap_err();
        assert!(matches!(err, HiDeStoreError::Config(_)), "{err}");
    }

    #[test]
    fn scheme_backups_keep_pool_and_cache_empty() {
        let mut hds = system(DedupMode::Hybrid);
        for v in versions(3) {
            hds.backup(&v).unwrap();
        }
        assert_eq!(hds.pool().container_count(), 0);
        for recipe in hds.recipes().iter() {
            for e in recipe.entries() {
                assert!(e.cid.as_archival().is_some(), "direct refs only");
            }
        }
    }
}
