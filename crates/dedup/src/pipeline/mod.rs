//! The backup and restore pipeline.
//!
//! The module is split by stage: [`front_end`] chunks and fingerprints a
//! stream (on one thread or several, chosen from the machine and the
//! input) and [`commit`] holds the single-threaded index/rewrite/container
//! stage. `HiDeStore::backup` calls the same front end. See `DESIGN.md` §8.

mod commit;
mod front_end;
mod known;

pub use front_end::{chunk_fingerprints, chunk_fingerprints_known, chunk_fingerprints_on};
pub use known::KnownChunks;

use std::fmt;
use std::io::Write;

use hidestore_chunking::Chunker;
use hidestore_hash::Fingerprint;
use hidestore_index::FingerprintIndex;
use hidestore_restore::{RestoreCache, RestoreEntry, RestoreError, RestoreReport};
use hidestore_rewriting::RewritePolicy;
use hidestore_storage::{ContainerBuilder, ContainerStore, RecipeStore, StorageError, VersionId};

use crate::config::PipelineConfig;
use crate::stats::{RunStats, VersionStats};
use commit::CommitState;

/// Errors from backup or restore runs.
#[derive(Debug)]
pub enum PipelineError {
    /// The container store failed.
    Storage(StorageError),
    /// A restore failed.
    Restore(RestoreError),
    /// A restore was requested for an unknown version.
    UnknownVersion(VersionId),
    /// A recipe entry was not fully resolved to an archival container —
    /// baseline recipes never chain, so this indicates corruption.
    UnresolvedRecipeEntry {
        /// The version whose recipe held the bad entry.
        version: VersionId,
        /// The chunk whose location was not archival.
        fingerprint: Fingerprint,
    },
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Storage(e) => write!(f, "storage error: {e}"),
            PipelineError::Restore(e) => write!(f, "restore error: {e}"),
            PipelineError::UnknownVersion(v) => write!(f, "no recipe for version {v}"),
            PipelineError::UnresolvedRecipeEntry {
                version,
                fingerprint,
            } => write!(
                f,
                "recipe for {version} holds a non-archival location for chunk {fingerprint}"
            ),
        }
    }
}

impl std::error::Error for PipelineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PipelineError::Storage(e) => Some(e),
            PipelineError::Restore(e) => Some(e),
            PipelineError::UnknownVersion(_) | PipelineError::UnresolvedRecipeEntry { .. } => None,
        }
    }
}

impl From<StorageError> for PipelineError {
    fn from(e: StorageError) -> Self {
        PipelineError::Storage(e)
    }
}

impl From<RestoreError> for PipelineError {
    fn from(e: RestoreError) -> Self {
        PipelineError::Restore(e)
    }
}

/// The Destor-style backup pipeline: chunk → fingerprint → index → rewrite →
/// store → recipe, over pluggable phase implementations.
///
/// Chunking and fingerprinting run in [`chunk_fingerprints`], which may hash
/// on several threads; indexing, rewriting and container filling stay on the
/// calling thread in stream order, so the repository produced does not
/// depend on how many cores the machine has.
///
/// See the crate docs for an end-to-end example.
pub struct BackupPipeline<I, R, S> {
    config: PipelineConfig,
    chunker: Box<dyn Chunker + Send + Sync>,
    index: I,
    rewriter: R,
    store: S,
    builder: ContainerBuilder,
    recipes: RecipeStore,
    next_version: u32,
    version_stats: Vec<VersionStats>,
}

impl<I: FingerprintIndex, R: RewritePolicy, S: ContainerStore> BackupPipeline<I, R, S> {
    /// Builds a pipeline from phase implementations.
    ///
    /// # Panics
    ///
    /// Panics if `config` is invalid (see [`PipelineConfig::validate`]).
    pub fn new(config: PipelineConfig, index: I, rewriter: R, store: S) -> Self {
        let checked = config.validate();
        assert!(checked.is_ok(), "invalid PipelineConfig: {checked:?}");
        let chunker = config.chunker.build(config.avg_chunk_size);
        BackupPipeline {
            chunker,
            index,
            rewriter,
            store,
            builder: ContainerBuilder::new(1, config.container_capacity),
            recipes: RecipeStore::new(),
            next_version: 1,
            version_stats: Vec::new(),
            config,
        }
    }

    /// Backs up one version (the full stream content).
    ///
    /// # Errors
    ///
    /// Fails if the container store rejects a write.
    pub fn backup(&mut self, data: &[u8]) -> Result<VersionStats, PipelineError> {
        let (spans, fingerprints) = chunk_fingerprints(data, self.chunker.as_mut());
        let version = VersionId::new(self.next_version);
        self.next_version += 1;
        self.index.begin_version(version);
        self.rewriter.begin_version(version);
        let lookups_before = self.index.disk_lookups();
        let rewritten_before = self.rewriter.rewritten_bytes();
        let logical_bytes = data.len() as u64;

        // Phases 3-6, segment by segment, on this thread.
        let seg_len = self.config.segment_chunks;
        let mut commit = CommitState::new(
            &mut self.index,
            &mut self.rewriter,
            &mut self.store,
            &mut self.builder,
            version,
        );
        for seg_start in (0..fingerprints.len()).step_by(seg_len) {
            let seg_end = (seg_start + seg_len).min(fingerprints.len());
            commit.commit_segment(
                data,
                &spans[seg_start..seg_end],
                &fingerprints[seg_start..seg_end],
            )?;
        }
        let outcome = commit.finish()?;

        self.index.end_version();
        self.rewriter.end_version();
        let stats = VersionStats {
            logical_bytes,
            stored_bytes: outcome.stored_bytes,
            chunks: fingerprints.len() as u64,
            stored_chunks: outcome.stored_chunks,
            lookup_requests: self.index.disk_lookups() - lookups_before,
            rewritten_bytes: self.rewriter.rewritten_bytes() - rewritten_before,
            index_table_bytes: self.index.index_table_bytes() as u64,
            ..VersionStats::new(version)
        };
        self.recipes.insert(outcome.recipe);
        self.version_stats.push(stats);
        Ok(stats)
    }

    /// `version`'s restore plan: its recipe's entries, each with the
    /// archival container holding the chunk (baseline recipes never chain).
    ///
    /// # Errors
    ///
    /// Fails for unknown versions, or for a recipe entry that is not
    /// archival (corruption).
    pub fn restore_plan(&self, version: VersionId) -> Result<Vec<RestoreEntry>, PipelineError> {
        let recipe = self
            .recipes
            .get(version)
            .ok_or(PipelineError::UnknownVersion(version))?;
        recipe
            .entries()
            .iter()
            .map(|e| {
                let cid = e
                    .cid
                    .as_archival()
                    .ok_or(PipelineError::UnresolvedRecipeEntry {
                        version,
                        fingerprint: e.fingerprint,
                    })?;
                Ok(RestoreEntry::new(e.fingerprint, e.size, cid))
            })
            .collect()
    }

    /// Restores `version` through the given restore cache, writing the
    /// stream to `out` and reporting the counted reads / speed factor.
    ///
    /// # Errors
    ///
    /// Fails for unknown versions or storage/assembly errors.
    pub fn restore(
        &self,
        version: VersionId,
        cache: &mut dyn RestoreCache,
        out: &mut dyn Write,
    ) -> Result<RestoreReport, PipelineError> {
        Ok(cache.restore(&self.restore_plan(version)?, &self.store, out)?)
    }

    /// Cumulative statistics across the whole run: the sum of
    /// [`BackupPipeline::version_stats`].
    pub fn run_stats(&self) -> RunStats {
        RunStats::of(&self.version_stats)
    }

    /// Per-version statistics, in backup order.
    pub fn version_stats(&self) -> &[VersionStats] {
        &self.version_stats
    }

    /// The recipe store (for GC and inspection).
    pub fn recipes(&self) -> &RecipeStore {
        &self.recipes
    }

    /// Mutable recipe store access (used by deletion/GC).
    pub fn recipes_mut(&mut self) -> &mut RecipeStore {
        &mut self.recipes
    }

    /// The container store.
    pub fn store(&self) -> &S {
        &self.store
    }

    /// Mutable container store access.
    pub fn store_mut(&mut self) -> &mut S {
        &mut self.store
    }

    /// The index phase implementation.
    pub fn index(&self) -> &I {
        &self.index
    }

    /// The rewriting phase implementation.
    pub fn rewriter(&self) -> &R {
        &self.rewriter
    }

    /// Versions currently retained.
    pub fn versions(&self) -> Vec<VersionId> {
        self.recipes.versions()
    }
}

impl<I: fmt::Debug, R: fmt::Debug, S: fmt::Debug> fmt::Debug for BackupPipeline<I, R, S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BackupPipeline")
            .field("config", &self.config)
            .field("index", &self.index)
            .field("rewriter", &self.rewriter)
            .field("store", &self.store)
            .field("versions", &self.recipes.len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hidestore_index::DdfsIndex;
    use hidestore_restore::Faa;
    use hidestore_rewriting::{Capping, NoRewrite};
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

    fn ddfs_pipeline() -> BackupPipeline<DdfsIndex, NoRewrite, MemoryContainerStore> {
        BackupPipeline::new(
            PipelineConfig::small_for_tests(),
            DdfsIndex::new(),
            NoRewrite::new(),
            MemoryContainerStore::new(),
        )
    }

    #[test]
    fn backup_restore_round_trip() {
        let mut p = ddfs_pipeline();
        let data = noise(200_000, 1);
        p.backup(&data).unwrap();
        let mut out = Vec::new();
        p.restore(VersionId::new(1), &mut Faa::new(1 << 20), &mut out)
            .unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn second_identical_version_stores_nothing() {
        let mut p = ddfs_pipeline();
        let data = noise(150_000, 2);
        let s1 = p.backup(&data).unwrap();
        let s2 = p.backup(&data).unwrap();
        assert!(s1.stored_bytes > 0);
        assert_eq!(s2.stored_bytes, 0);
        assert!((s2.dedup_ratio() - 1.0).abs() < 1e-9);
        // Both versions restore correctly.
        for v in 1..=2 {
            let mut out = Vec::new();
            p.restore(VersionId::new(v), &mut Faa::new(1 << 20), &mut out)
                .unwrap();
            assert_eq!(out, data, "version {v}");
        }
    }

    #[test]
    fn modified_version_stores_only_changes_approximately() {
        let mut p = ddfs_pipeline();
        let mut data = noise(200_000, 3);
        p.backup(&data).unwrap();
        // Modify 5% in the middle.
        let patch = noise(10_000, 99);
        data[100_000..110_000].copy_from_slice(&patch);
        let s2 = p.backup(&data).unwrap();
        assert!(
            s2.stored_bytes < 40_000,
            "stored {} bytes for a 10k change",
            s2.stored_bytes
        );
        let mut out = Vec::new();
        p.restore(VersionId::new(2), &mut Faa::new(1 << 20), &mut out)
            .unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn intra_version_duplicates_stored_once() {
        let mut p = ddfs_pipeline();
        let block = noise(50_000, 4);
        let mut data = block.clone();
        data.extend_from_slice(&block);
        data.extend_from_slice(&block);
        let s = p.backup(&data).unwrap();
        assert!(
            s.stored_bytes < block.len() as u64 + 10_000,
            "stored {} for thrice-repeated block of {}",
            s.stored_bytes,
            block.len()
        );
        let mut out = Vec::new();
        p.restore(VersionId::new(1), &mut Faa::new(1 << 20), &mut out)
            .unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn capping_rewrites_and_still_restores() {
        let mut p = BackupPipeline::new(
            PipelineConfig::small_for_tests(),
            DdfsIndex::new(),
            Capping::new(2),
            MemoryContainerStore::new(),
        );
        // Build fragmentation: several versions with partial changes.
        let mut data = noise(150_000, 5);
        for round in 0..5u64 {
            p.backup(&data).unwrap();
            let start = (round as usize * 20_000) % 120_000;
            let patch = noise(8_000, 1000 + round);
            data[start..start + 8_000].copy_from_slice(&patch);
        }
        let last = p.backup(&data).unwrap();
        let _ = last;
        assert!(
            p.rewriter().rewritten_bytes() > 0,
            "capping should have rewritten on a fragmented stream"
        );
        let mut out = Vec::new();
        let latest = *p.versions().last().unwrap();
        p.restore(latest, &mut Faa::new(1 << 20), &mut out).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn version_stats_accumulate() {
        let mut p = ddfs_pipeline();
        let data = noise(100_000, 7);
        p.backup(&data).unwrap();
        p.backup(&data).unwrap();
        assert_eq!(p.version_stats().len(), 2);
        assert_eq!(p.run_stats().versions, 2);
        assert_eq!(p.run_stats().logical_bytes, 200_000);
        assert!(p.run_stats().dedup_ratio() > 0.45);
    }

    #[test]
    fn restore_unknown_version_errors() {
        let p = ddfs_pipeline();
        let err = p
            .restore(VersionId::new(5), &mut Faa::new(1024), &mut Vec::new())
            .unwrap_err();
        assert!(matches!(err, PipelineError::UnknownVersion(_)));
    }

    #[test]
    fn containers_sealed_at_version_end() {
        let mut p = ddfs_pipeline();
        p.backup(&noise(100_000, 8)).unwrap();
        // All stored bytes must be readable: no chunk trapped in an unsealed
        // open container.
        let ids = p.store().ids();
        assert!(!ids.is_empty());
        let mut out = Vec::new();
        p.restore(VersionId::new(1), &mut Faa::new(1 << 20), &mut out)
            .unwrap();
    }

    #[test]
    fn backup_above_the_crossover_round_trips() {
        let mut p = ddfs_pipeline();
        let data = noise(hidestore_hash::PARALLEL_MIN_BYTES + 50_000, 11);
        p.backup(&data).unwrap();
        let mut out = Vec::new();
        p.restore(VersionId::new(1), &mut Faa::new(1 << 20), &mut out)
            .unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn empty_backup_is_valid() {
        let mut p = ddfs_pipeline();
        let s = p.backup(&[]).unwrap();
        assert_eq!(s.chunks, 0);
        let mut out = Vec::new();
        p.restore(VersionId::new(1), &mut Faa::new(1024), &mut out)
            .unwrap();
        assert!(out.is_empty());
    }
}
