//! The HiDeStore system: backup, restore, flatten, delete.

use std::collections::{BTreeSet, HashMap, HashSet};
use std::fmt;
use std::io::Write;
use std::num::NonZeroU32;
use std::time::Instant;

use hidestore_chunking::Chunker;
use hidestore_hash::Fingerprint;
use hidestore_restore::{
    RestoreCache, RestoreConcurrency, RestoreEntry, RestoreError, RestoreReport,
};
use hidestore_storage::{
    Cid, Container, ContainerBuilder, ContainerId, ContainerStore, Recipe, RecipeEntry,
    RecipeStore, StorageError, VersionId,
};

use crate::active::ActivePool;
use crate::cache::{CacheEntry, Classification, FingerprintCache};
use crate::chain::{self, ResolveError};
use crate::composite::{CompositeStore, ACTIVE_ID_BASE};
use crate::config::HiDeStoreConfig;
use crate::persist::{QuarantineEntry, QuarantinedArtifact};
use crate::scheme::SchemeState;
use crate::stats::{DeletionReport, HiDeStoreRunStats, HiDeStoreVersionStats, ScrubReport};

/// Size in bytes of one index-lookup I/O unit: the previous recipe's
/// prefetch is charged in these units, the same units as the traditional
/// schemes' index lookups (§5.2.2).
const LOOKUP_UNIT_BYTES: u64 = 4096;

/// Errors from HiDeStore operations.
#[derive(Debug)]
pub enum HiDeStoreError {
    /// The archival container store failed.
    Storage(StorageError),
    /// Restore assembly failed.
    Restore(RestoreError),
    /// Recipe-chain resolution failed (indicates corruption).
    Resolve(ResolveError),
    /// An operation referenced a version with no recipe.
    UnknownVersion(VersionId),
    /// `delete_expired` was asked to remove the newest version(s).
    CannotExpireNewest {
        /// The requested expiry bound.
        requested: VersionId,
        /// The newest retained version.
        newest: VersionId,
    },
    /// The repository's configuration file is missing, unreadable, or
    /// invalid.
    Config(String),
    /// A [`crate::RepositoryHandle`] is poisoned: a failed mutation could
    /// not be rolled back by reopening from disk, so neither the in-memory
    /// state nor a fresh open can be trusted. Every subsequent operation on
    /// the handle fails fast with this error.
    Poisoned,
    /// A mutation was refused because it would push the repository past a
    /// tenant quota. Raised by the pre-mutation check of
    /// [`crate::RepositoryHandle::write_checked`], so nothing was changed
    /// and nothing needs rolling back.
    QuotaExceeded {
        /// Which limit was hit (`"bytes"` or `"versions"`).
        what: &'static str,
        /// Current usage before the refused mutation.
        used: u64,
        /// The configured limit.
        limit: u64,
    },
    /// The requested version depends on artifacts that degraded-mode
    /// recovery quarantined; versions without quarantined dependencies
    /// still restore normally.
    PartialRestore {
        /// The version that cannot be fully restored.
        version: VersionId,
        /// The quarantined artifacts the version depends on.
        quarantined: Vec<QuarantinedArtifact>,
    },
}

impl fmt::Display for HiDeStoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HiDeStoreError::Storage(e) => write!(f, "storage error: {e}"),
            HiDeStoreError::Restore(e) => write!(f, "restore error: {e}"),
            HiDeStoreError::Resolve(e) => write!(f, "recipe resolution error: {e}"),
            HiDeStoreError::UnknownVersion(v) => write!(f, "no recipe for version {v}"),
            HiDeStoreError::CannotExpireNewest { requested, newest } => write!(
                f,
                "cannot expire up to {requested}: newest version {newest} must be retained"
            ),
            HiDeStoreError::Config(msg) => write!(f, "configuration error: {msg}"),
            HiDeStoreError::Poisoned => write!(
                f,
                "repository handle is poisoned: a failed mutation could not be \
                 rolled back by reopening from disk"
            ),
            HiDeStoreError::QuotaExceeded { what, used, limit } => {
                write!(f, "quota exceeded: {used} of {limit} {what} already used")
            }
            HiDeStoreError::PartialRestore {
                version,
                quarantined,
            } => {
                write!(f, "cannot restore {version}: depends on quarantined ")?;
                for (i, artifact) in quarantined.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{artifact}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for HiDeStoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            HiDeStoreError::Storage(e) => Some(e),
            HiDeStoreError::Restore(e) => Some(e),
            HiDeStoreError::Resolve(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StorageError> for HiDeStoreError {
    fn from(e: StorageError) -> Self {
        HiDeStoreError::Storage(e)
    }
}

impl From<RestoreError> for HiDeStoreError {
    fn from(e: RestoreError) -> Self {
        HiDeStoreError::Restore(e)
    }
}

impl From<ResolveError> for HiDeStoreError {
    fn from(e: ResolveError) -> Self {
        HiDeStoreError::Resolve(e)
    }
}

/// The HiDeStore backup system (see crate docs for the design summary and an
/// end-to-end example).
pub struct HiDeStore<S> {
    config: HiDeStoreConfig,
    chunker: Box<dyn Chunker + Send + Sync>,
    cache: FingerprintCache,
    pool: ActivePool,
    archival: S,
    recipes: RecipeStore,
    next_version: u32,
    next_archival_id: u32,
    run_stats: HiDeStoreRunStats,
    version_stats: Vec<HiDeStoreVersionStats>,
    quarantined: Vec<QuarantineEntry>,
    scheme: SchemeState,
    out_of_line_rewritten_bytes: u64,
    /// Repository-relative artifact files the open found holding nothing
    /// under their own name; the next save removes them (see `persist`).
    stray_files: Vec<String>,
}

impl<S: ContainerStore> HiDeStore<S> {
    /// Creates a HiDeStore instance over an archival container store.
    ///
    /// # Panics
    ///
    /// Panics if `config` is invalid (see [`HiDeStoreConfig::validate`]).
    pub fn new(config: HiDeStoreConfig, archival: S) -> Self {
        let checked = config.validate();
        assert!(checked.is_ok(), "invalid HiDeStoreConfig: {checked:?}");
        let chunker = config.chunker.build(config.avg_chunk_size);
        HiDeStore {
            chunker,
            cache: FingerprintCache::new(config.history_depth),
            pool: ActivePool::new(config.container_capacity),
            archival,
            recipes: RecipeStore::new(),
            next_version: 1,
            next_archival_id: 1,
            run_stats: HiDeStoreRunStats::default(),
            version_stats: Vec::new(),
            quarantined: Vec::new(),
            scheme: SchemeState::default(),
            out_of_line_rewritten_bytes: 0,
            stray_files: Vec::new(),
            config,
        }
    }

    /// Backs up one version.
    ///
    /// This is the whole §4 pipeline: classify against the double-hash
    /// cache, stage unique chunks in active containers, then at version end
    /// demote the cold set to archival containers, merge sparse active
    /// containers, and update the previous recipe(s).
    ///
    /// # Errors
    ///
    /// Fails if the archival store rejects a write.
    pub fn backup(&mut self, data: &[u8]) -> Result<HiDeStoreVersionStats, HiDeStoreError> {
        // The shared front end: inline or staged by core count and input
        // size, the same spans and fingerprints either way.
        let (spans, fingerprints) =
            hidestore_dedup::chunk_fingerprints(data, self.chunker.as_mut());
        let sizes: Vec<u32> = spans.iter().map(|s| s.len() as u32).collect();
        self.run_backup(&fingerprints, &sizes, |i| {
            std::borrow::Cow::Borrowed(&data[spans[i].clone()])
        })
    }

    /// Backs up one version given as a chunk *trace* — `(fingerprint,
    /// size)` pairs with no content. Chunk bodies are synthesized filler
    /// (see [`hidestore_storage::synthetic_chunk`]), enabling counted
    /// experiments at the paper's version counts (100+) without generating,
    /// chunking, or hashing real data; content verification does not apply.
    ///
    /// # Errors
    ///
    /// Fails if the archival store rejects a write.
    pub fn backup_trace(
        &mut self,
        trace: &[(Fingerprint, u32)],
    ) -> Result<HiDeStoreVersionStats, HiDeStoreError> {
        let fingerprints: Vec<Fingerprint> = trace.iter().map(|&(fp, _)| fp).collect();
        let sizes: Vec<u32> = trace.iter().map(|&(_, size)| size).collect();
        self.run_backup(&fingerprints, &sizes, |i| {
            std::borrow::Cow::Owned(hidestore_storage::synthetic_chunk(trace[i].0, trace[i].1))
        })
    }

    fn run_backup<'a>(
        &mut self,
        fingerprints: &[Fingerprint],
        sizes: &[u32],
        content: impl Fn(usize) -> std::borrow::Cow<'a, [u8]>,
    ) -> Result<HiDeStoreVersionStats, HiDeStoreError> {
        // The out-of-line schemes (RevDedup, hybrid) bypass the cache/pool
        // pipeline entirely and ingest straight into archival containers.
        if self.config.scheme.is_out_of_line() {
            return self.run_backup_out_of_line(fingerprints, sizes, &content);
        }
        let version = VersionId::new(self.next_version);
        self.next_version += 1;
        let logical_bytes: u64 = sizes.iter().map(|&s| s as u64).sum();

        // §5.2.2: HiDeStore's only index traffic is prefetching the previous
        // recipe into T1, charged in lookup-request units.
        let lookup_requests = version
            .prev()
            .and_then(|p| self.recipes.get(p))
            .map(|r| (r.encoded_len() as u64).div_ceil(LOOKUP_UNIT_BYTES))
            .unwrap_or(0);

        let mut recipe = Recipe::new(version);
        let mut stored_bytes = 0u64;
        let mut unique_chunks = 0u64;
        let mut current_fps: HashSet<Fingerprint> = HashSet::with_capacity(fingerprints.len());
        // Stream-order ranks guide the end-of-version compaction (§4.2).
        let mut stream_rank: HashMap<Fingerprint, u32> = HashMap::with_capacity(fingerprints.len());

        for (i, (&fp, &size)) in fingerprints.iter().zip(sizes).enumerate() {
            stream_rank.entry(fp).or_insert(i as u32);
            match self.cache.classify(fp) {
                Classification::Unique => {
                    let chunk = content(i);
                    let active_cid = self.pool.add(fp, &chunk);
                    self.cache
                        .insert_current(fp, CacheEntry { size, active_cid });
                    stored_bytes += size as u64;
                    unique_chunks += 1;
                }
                Classification::HotFromPrevious(_) | Classification::AlreadyCurrent(_) => {}
            }
            current_fps.insert(fp);
            recipe.push(RecipeEntry::new(fp, size, Cid::ACTIVE));
        }
        self.recipes.insert(recipe);

        // End of version: demote the cold set and compact the pool.
        let move_start = Instant::now();
        let cold = self.cache.advance_version();
        let (moved, sealed) = self.demote_cold(&cold, version)?;
        let cold_bytes: u64 = cold.values().map(|e| e.size as u64).sum();
        let (compaction, relocations) = self
            .pool
            .compact_with_order(self.config.compact_threshold, &stream_rank);
        self.cache.apply_relocations(&relocations);
        let chunk_move_time = move_start.elapsed();

        // Update the previous recipe(s) (§4.3).
        let recipe_start = Instant::now();
        chain::update_previous_recipes(
            &mut self.recipes,
            version,
            &moved,
            &current_fps,
            self.config.history_depth,
        );
        let recipe_update_time = recipe_start.elapsed();

        let stats = HiDeStoreVersionStats {
            version,
            logical_bytes,
            stored_bytes,
            chunks: fingerprints.len() as u64,
            unique_chunks,
            cold_chunks: cold.len() as u64,
            cold_bytes,
            archival_containers_sealed: sealed,
            containers_merged: compaction.containers_merged,
            lookup_requests,
            fingerprint_cache_bytes: self.cache.memory_bytes() as u64,
            recipe_update_time,
            chunk_move_time,
        };
        self.run_stats.absorb(&stats);
        self.version_stats.push(stats);
        Ok(stats)
    }

    /// Moves the cold chunks out of the active pool into fresh archival
    /// containers tagged with `version` (§4.2's filter).
    fn demote_cold(
        &mut self,
        cold: &HashMap<Fingerprint, CacheEntry>,
        version: VersionId,
    ) -> Result<(HashMap<Fingerprint, ContainerId>, u64), HiDeStoreError> {
        // Deterministic demotion order approximating the old physical
        // layout: by (active container, fingerprint).
        let mut ordered: Vec<(u32, Fingerprint)> = cold
            .keys()
            .map(|fp| (self.pool.locate(fp).unwrap_or(u32::MAX), *fp))
            .collect();
        ordered.sort_unstable();

        // Copy-then-remove: contents are *copied* into archival containers
        // and the copies fully persisted before anything leaves the pool.
        // If a store write fails mid-demotion, already-written containers
        // are unreferenced orphans (harmless; a later deletion sweeps their
        // tag) and every retained version still restores from the intact
        // pool. The pool is lent out for the copy so the packer can borrow
        // the store mutably while reading chunks straight from it.
        let pool = std::mem::replace(
            &mut self.pool,
            ActivePool::new(self.config.container_capacity),
        );
        let packed = self.pack_archival(
            version.get(),
            ordered.iter().filter_map(|(_, fp)| {
                let data = pool.get(fp);
                // A cold entry not in the pool would indicate cache/pool
                // divergence; skip defensively (debug builds assert).
                debug_assert!(data.is_some(), "cold chunk {fp} missing from pool");
                Some((*fp, data?))
            }),
        );
        self.pool = pool;
        let (moved, sealed) = packed?;
        // Every archival copy is durable: now the originals can leave the
        // active pool.
        for (_, fp) in &ordered {
            self.pool.remove(fp);
        }
        Ok((moved, sealed))
    }

    /// Packs `chunks`, in order, into fresh archival containers tagged
    /// `tag` — the one way an archival container is filled. Each container
    /// is written as soon as it seals, under IDs drawn from the archival
    /// counter, and never overwritten afterwards. Returns each chunk's new
    /// home and the number of containers written.
    ///
    /// Callers pass chunks that are unique within the call, each no larger
    /// than a container (`HiDeStoreConfig::validate` guarantees that), so
    /// the builder neither dedups nor panics.
    pub(crate) fn pack_archival<D: AsRef<[u8]>>(
        &mut self,
        tag: u32,
        chunks: impl IntoIterator<Item = (Fingerprint, D)>,
    ) -> Result<(HashMap<Fingerprint, ContainerId>, u64), HiDeStoreError> {
        let mut builder =
            ContainerBuilder::new(self.next_archival_id, self.config.container_capacity);
        builder.set_version_tag(tag);
        let mut homes = HashMap::new();
        let mut sealed = 0;
        for (fp, data) in chunks {
            let (cid, full) = builder.append(fp, data.as_ref());
            // Advance the counter with every container opened, so IDs
            // already on disk are never handed out again even if a write
            // below fails.
            self.next_archival_id = builder.next_id();
            homes.insert(fp, cid);
            if let Some(full) = full {
                self.archival.write(full)?;
                sealed += 1;
            }
        }
        if let Some(last) = builder.take_open() {
            self.archival.write(last)?;
            sealed += 1;
        }
        Ok((homes, sealed))
    }

    /// Restores `version` through any restore cache, resolving the recipe
    /// chain and serving hot chunks from the active containers (§4.4).
    ///
    /// # Errors
    ///
    /// Fails for unknown versions, broken chains (corruption), or storage
    /// errors. When the repository was opened in degraded mode and the
    /// version depends on quarantined artifacts, fails with
    /// [`HiDeStoreError::PartialRestore`] naming them — versions without
    /// quarantined dependencies are unaffected.
    pub fn restore(
        &self,
        version: VersionId,
        cache: &mut dyn RestoreCache,
        out: &mut dyn Write,
    ) -> Result<RestoreReport, HiDeStoreError> {
        let entries = self.resolve_restore_entries(version)?;
        let view = CompositeStore::new(&self.archival, &self.pool);
        Ok(cache.restore(&entries, &view, out)?)
    }

    /// Restores `version` to `path`, staging the output in `<path>.tmp`
    /// (`.tmp` appended to the full file name) and renaming it into place
    /// only on success, so a failed restore — e.g. a fault in a container
    /// read — never leaves a partial output file behind.
    ///
    /// # Errors
    ///
    /// The errors of [`HiDeStore::restore`], plus I/O errors creating,
    /// writing, or renaming the output file. On error the temporary file is
    /// removed.
    pub fn restore_to_path(
        &self,
        version: VersionId,
        cache: &mut dyn RestoreCache,
        path: &std::path::Path,
    ) -> Result<RestoreReport, HiDeStoreError> {
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = std::path::PathBuf::from(tmp);
        let io_err = |e: std::io::Error| HiDeStoreError::Storage(StorageError::Io(e));
        let result = (|| {
            let mut file = std::fs::File::create(&tmp).map_err(io_err)?;
            let report = self.restore(version, cache, &mut file)?;
            file.sync_all().map_err(io_err)?;
            drop(file);
            std::fs::rename(&tmp, path).map_err(io_err)?;
            Ok(report)
        })();
        if result.is_err() {
            // Best-effort cleanup; the original error is what matters.
            let _ = std::fs::remove_file(&tmp);
        }
        result
    }

    /// Resolves `version`'s recipe chain into its flat restore plan without
    /// restoring anything: one [`RestoreEntry`] per recipe entry, in stream
    /// order, each carrying the container that physically holds the chunk.
    ///
    /// Layered consumers (the tree subsystem's subtree-selective restore,
    /// audits) use the plan to map byte ranges of the version stream onto
    /// the exact containers they must read.
    ///
    /// # Errors
    ///
    /// Exactly the resolution errors of [`HiDeStore::restore`]: unknown
    /// versions, broken chains, quarantined dependencies.
    pub fn restore_plan(&self, version: VersionId) -> Result<Vec<RestoreEntry>, HiDeStoreError> {
        self.resolve_restore_entries(version)
    }

    /// Restores an arbitrary slice of plan entries (from
    /// [`HiDeStore::restore_plan`]) through a restore cache, writing the
    /// chunks to `out` in slice order. Container reads are counted exactly
    /// like a full restore, so partial restores are provably proportional
    /// to the data they touch.
    ///
    /// # Errors
    ///
    /// Storage errors reading the referenced containers.
    pub fn restore_entries(
        &self,
        entries: &[RestoreEntry],
        cache: &mut dyn RestoreCache,
        out: &mut dyn Write,
        // Ignored; `hdsbench/src/stream.rs` (frozen) still passes one.
        _conc: &RestoreConcurrency,
    ) -> Result<RestoreReport, HiDeStoreError> {
        let view = CompositeStore::new(&self.archival, &self.pool);
        Ok(cache.restore(entries, &view, out)?)
    }

    /// Resolves `version`'s recipe chain into a flat restore plan, checking
    /// quarantined dependencies first (degraded-mode repositories).
    fn resolve_restore_entries(
        &self,
        version: VersionId,
    ) -> Result<Vec<RestoreEntry>, HiDeStoreError> {
        if self.recipes.get(version).is_none() {
            // A quarantined recipe is a *known* version whose recipe was
            // pulled, not an unknown one.
            if self
                .quarantined
                .iter()
                .any(|e| matches!(e.artifact, QuarantinedArtifact::Recipe(v) if v == version))
            {
                return Err(HiDeStoreError::PartialRestore {
                    version,
                    quarantined: vec![QuarantinedArtifact::Recipe(version)],
                });
            }
            return Err(HiDeStoreError::UnknownVersion(version));
        }
        let deps = self.quarantined_dependencies(version);
        if !deps.is_empty() {
            return Err(HiDeStoreError::PartialRestore {
                version,
                quarantined: deps,
            });
        }
        let plan = match chain::resolve_plan(&self.recipes, &self.pool, version) {
            Ok(plan) => plan,
            // A chunk missing from the pool while active containers sit in
            // quarantine: the pool snapshot lost that chunk with them.
            Err(e @ ResolveError::NotInPool(_)) => {
                let lost: Vec<QuarantinedArtifact> = self
                    .quarantined
                    .iter()
                    .filter(|q| matches!(q.artifact, QuarantinedArtifact::ActiveContainer(_)))
                    .map(|q| q.artifact.clone())
                    .collect();
                if lost.is_empty() {
                    return Err(e.into());
                }
                return Err(HiDeStoreError::PartialRestore {
                    version,
                    quarantined: lost,
                });
            }
            Err(e) => return Err(e.into()),
        };
        Ok(plan
            .into_iter()
            .map(|(fp, size, cid)| RestoreEntry::new(fp, size, cid))
            .collect())
    }

    /// Walks `version`'s recipe chain and collects every quarantined
    /// artifact it (transitively) depends on: quarantined chain-target
    /// recipes and quarantined archival containers referenced by entries.
    fn quarantined_dependencies(&self, version: VersionId) -> Vec<QuarantinedArtifact> {
        if self.quarantined.is_empty() {
            return Vec::new();
        }
        let lost_recipes: HashSet<VersionId> = self
            .quarantined
            .iter()
            .filter_map(|e| match e.artifact {
                QuarantinedArtifact::Recipe(v) => Some(v),
                _ => None,
            })
            .collect();
        let lost_archival: HashSet<ContainerId> = self
            .quarantined
            .iter()
            .filter_map(|e| match e.artifact {
                QuarantinedArtifact::ArchivalContainer(id) => Some(id),
                _ => None,
            })
            .collect();
        let mut deps: BTreeSet<QuarantinedArtifact> = BTreeSet::new();
        let mut visited: HashSet<VersionId> = HashSet::new();
        let mut stack = vec![version];
        while let Some(v) = stack.pop() {
            if !visited.insert(v) {
                continue;
            }
            if lost_recipes.contains(&v) {
                deps.insert(QuarantinedArtifact::Recipe(v));
                continue;
            }
            let Some(recipe) = self.recipes.get(v) else {
                continue;
            };
            for entry in recipe.entries() {
                if let Some(cid) = entry.cid.as_archival() {
                    if lost_archival.contains(&cid) {
                        deps.insert(QuarantinedArtifact::ArchivalContainer(cid));
                    }
                } else if let Some(w) = entry.cid.as_chained() {
                    stack.push(w);
                }
            }
        }
        deps.into_iter().collect()
    }

    /// Runs Algorithm 1 offline, collapsing all recipe chains. Returns the
    /// number of entries rewritten and the elapsed time (Figure 12's
    /// recipe-update overhead at restore time).
    pub fn flatten_recipes(&mut self) -> (u64, std::time::Duration) {
        let start = Instant::now();
        let updated = chain::flatten_recipes(&mut self.recipes);
        (updated, start.elapsed())
    }

    /// The `prune <keep-last-N>` rule of the CLI and the daemon: the newest
    /// version id to expire so that the newest `keep` ids remain, or `None`
    /// when the repository is empty or its newest id is at most `keep`.
    pub fn prune_cutoff(&self, keep: NonZeroU32) -> Option<VersionId> {
        self.recipes
            .latest_version()
            .filter(|newest| newest.get() > keep.get())
            .map(|newest| VersionId::new(newest.get() - keep.get()))
    }

    /// Expires everything older than the newest `keep` version ids through
    /// [`HiDeStore::delete_expired`]. Returns `None`, changing nothing,
    /// when [`HiDeStore::prune_cutoff`] finds nothing to expire.
    ///
    /// # Errors
    ///
    /// As [`HiDeStore::delete_expired`].
    pub fn prune_keep_last(
        &mut self,
        keep: NonZeroU32,
    ) -> Result<Option<DeletionReport>, HiDeStoreError> {
        self.prune_cutoff(keep)
            .map(|up_to| self.delete_expired(up_to))
            .transpose()
    }

    /// Expires all versions up to and including `up_to` (§4.5): recipes are
    /// dropped and archival containers whose version tag shows they hold
    /// only expired chunks are removed wholesale — no chunk-liveness
    /// detection, no garbage collection.
    ///
    /// # Errors
    ///
    /// Fails if `up_to` would expire the newest retained version, or if the
    /// store rejects a removal. After removal the surviving recipes are
    /// verified to reference no dropped container (corruption check).
    pub fn delete_expired(&mut self, up_to: VersionId) -> Result<DeletionReport, HiDeStoreError> {
        let newest = self
            .recipes
            .latest_version()
            .ok_or(HiDeStoreError::UnknownVersion(up_to))?;
        if up_to >= newest {
            return Err(HiDeStoreError::CannotExpireNewest {
                requested: up_to,
                newest,
            });
        }
        // The out-of-line schemes deduplicate newer versions against older
        // containers inline, so tag-ranged drops would tear live data; they
        // expire by reference counting whole containers instead.
        if self.config.scheme.is_out_of_line() {
            return self.delete_expired_out_of_line(up_to);
        }
        let start = Instant::now();
        let mut report = DeletionReport::default();
        for v in self.recipes.versions() {
            if v <= up_to {
                self.recipes.remove(v);
                report.versions_removed += 1;
            }
        }
        // Containers tagged t hold chunks whose most recent version is
        // t - history_depth; they are expired iff t - depth <= up_to.
        let tag_bound = up_to.get() + self.config.history_depth as u32;
        let mut dropped: HashSet<ContainerId> = HashSet::new();
        for id in self.archival.ids() {
            let container = self.archival.read(id)?;
            if container.version_tag() != 0 && container.version_tag() <= tag_bound {
                report.bytes_reclaimed += container.live_bytes() as u64;
                self.archival.remove(id)?;
                dropped.insert(id);
                report.containers_dropped += 1;
            }
        }
        // Corruption check: no surviving recipe may reference a dropped
        // container.
        for recipe in self.recipes.iter() {
            for entry in recipe.entries() {
                if let Some(cid) = entry.cid.as_archival() {
                    if dropped.contains(&cid) {
                        return Err(HiDeStoreError::Resolve(ResolveError::BrokenChain {
                            fingerprint: entry.fingerprint,
                            version: recipe.version(),
                        }));
                    }
                }
            }
        }
        report.elapsed = start.elapsed();
        Ok(report)
    }

    /// Verifies repository integrity: every archival and active container's
    /// chunks are re-hashed against their fingerprints, and every retained
    /// version — and every version whose recipe sits in quarantine — must
    /// resolve to a plan [`HiDeStore::restore`] accepts.
    ///
    /// Damage is *recorded* in [`ScrubReport::corrupt_chunks`], never
    /// skipped, so one scrub enumerates all of it: a chunk that fails its
    /// fingerprint, an archival container that cannot be read or decoded,
    /// a version whose plan names a chunk its container does not hold (or
    /// a container that could not be read), and a version `restore` refuses
    /// with [`HiDeStoreError::PartialRestore`] (a quarantined dependency or
    /// recipe, or a pool chunk lost with a quarantined active container).
    /// Quarantined artifacts that no such version depends on — the residue
    /// of an uncommitted save — are not damage.
    ///
    /// # Errors
    ///
    /// Fails if a recipe chain is broken without any quarantine to explain
    /// it.
    pub fn scrub(&self) -> Result<ScrubReport, HiDeStoreError> {
        let mut report = ScrubReport::default();
        // Every (container, chunk) pair a readable container holds: what a
        // restore plan may name.
        let mut held: HashSet<(ContainerId, Fingerprint)> = HashSet::new();
        let mut check = |report: &mut ScrubReport, container: &Container| {
            report.containers_checked += 1;
            for (fp, data) in container.iter() {
                report.chunks_checked += 1;
                held.insert((container.id(), fp));
                if Fingerprint::of(data) != fp {
                    let what = format!("chunk {fp} does not match its fingerprint");
                    report.corrupt_chunks.push((container.id().get(), what));
                }
            }
        };
        for id in self.archival.ids() {
            match self.archival.read(id) {
                Ok(container) => check(&mut report, &container),
                Err(e) => report.corrupt_chunks.push((id.get(), e.to_string())),
            }
        }
        for (_, container) in self.pool.containers() {
            check(&mut report, container);
        }
        let lost_recipes = self.quarantined.iter().filter_map(|e| match e.artifact {
            QuarantinedArtifact::Recipe(v) => Some(v),
            _ => None,
        });
        let versions: BTreeSet<VersionId> =
            self.versions().into_iter().chain(lost_recipes).collect();
        for version in versions {
            let e = match self.resolve_restore_entries(version) {
                Ok(plan) => {
                    let missing = plan
                        .iter()
                        .find(|e| !held.contains(&(e.container, e.fingerprint)));
                    match missing {
                        None => report.recipes_checked += 1,
                        Some(e) => report.corrupt_chunks.push((
                            e.container.get(),
                            format!(
                                "cannot restore {version}: chunk {} is not in container {}",
                                e.fingerprint, e.container
                            ),
                        )),
                    }
                    continue;
                }
                Err(e) => e,
            };
            let HiDeStoreError::PartialRestore { quarantined, .. } = &e else {
                return Err(e);
            };
            let container = quarantined.iter().find_map(|a| match a {
                QuarantinedArtifact::ArchivalContainer(id) => Some(id.get()),
                QuarantinedArtifact::ActiveContainer(cid) => Some(ACTIVE_ID_BASE + cid),
                _ => None,
            });
            report
                .corrupt_chunks
                .push((container.unwrap_or(0), e.to_string()));
        }
        Ok(report)
    }

    /// Cumulative statistics.
    pub fn run_stats(&self) -> HiDeStoreRunStats {
        self.run_stats
    }

    /// Cumulative bytes of surviving chunks *copied* while rebuilding
    /// containers during [`HiDeStore::out_of_line_pass`] runs. Rewrite
    /// traffic, not new user data — reported separately so ingest
    /// accounting stays honest. Like [`HiDeStore::run_stats`], this is a
    /// per-instance counter, not persisted across reopens.
    pub fn out_of_line_rewritten_bytes(&self) -> u64 {
        self.out_of_line_rewritten_bytes
    }

    /// Per-version statistics in backup order.
    pub fn version_stats(&self) -> &[HiDeStoreVersionStats] {
        &self.version_stats
    }

    /// Retained versions, ascending.
    pub fn versions(&self) -> Vec<VersionId> {
        self.recipes.versions()
    }

    /// The recipe store.
    pub fn recipes(&self) -> &RecipeStore {
        &self.recipes
    }

    /// The active container pool.
    pub fn pool(&self) -> &ActivePool {
        &self.pool
    }

    /// The archival container store.
    pub fn archival(&self) -> &S {
        &self.archival
    }

    /// Mutable archival store access (e.g. to reset I/O statistics between
    /// experiment phases).
    pub fn archival_mut(&mut self) -> &mut S {
        &mut self.archival
    }

    /// The configuration in force.
    pub fn config(&self) -> &HiDeStoreConfig {
        &self.config
    }

    /// The double-hash fingerprint cache (§4.1).
    pub fn fingerprint_cache(&self) -> &FingerprintCache {
        &self.cache
    }

    /// The id the next backup will get: every retained version and every
    /// container tag is below it.
    pub fn next_version(&self) -> u32 {
        self.next_version
    }

    /// Artifacts quarantined by degraded-mode recovery when this instance
    /// was opened from disk (empty for in-memory systems and clean opens).
    pub fn quarantine(&self) -> &[QuarantineEntry] {
        &self.quarantined
    }

    /// Records what degraded-mode recovery quarantined (see `persist`).
    pub(crate) fn set_quarantine(&mut self, quarantined: Vec<QuarantineEntry>) {
        self.quarantined = quarantined;
    }

    /// Swaps in persisted state on repository reopen (see `persist`).
    pub(crate) fn restore_persistent_state(
        &mut self,
        next_version: u32,
        next_archival_id: u32,
        recipes: RecipeStore,
        pool_containers: Vec<Container>,
    ) -> Result<(), HiDeStoreError> {
        self.pool = ActivePool::from_containers(self.config.container_capacity, pool_containers)
            .map_err(|msg| HiDeStoreError::Storage(StorageError::Corrupt(msg)))?;
        self.cache = crate::persist::rebuild_cache(&recipes, &self.pool, self.config.history_depth);
        self.recipes = recipes;
        self.next_version = next_version.max(1);
        self.next_archival_id = next_archival_id.max(1);
        self.rebuild_scheme_state();
        Ok(())
    }

    pub(crate) fn recipes_mut_internal(&mut self) -> &mut RecipeStore {
        &mut self.recipes
    }

    /// The artifact files the next save removes besides the dropped
    /// versions and containers.
    pub(crate) fn stray_files(&self) -> &[String] {
        &self.stray_files
    }

    /// Records that the repository directory holds this instance's state:
    /// the recipe store and the pool forget their tracked changes.
    pub(crate) fn mark_saved(&mut self) {
        self.recipes.mark_saved();
        self.pool.mark_saved();
        self.stray_files.clear();
    }

    /// Records what the directory this instance was just opened from
    /// holds. Every loaded item sits under its own name, except the recipes
    /// of `versions` and the active containers `cids`: the next save writes
    /// those under their own names and removes the `strays`.
    pub(crate) fn mark_opened(
        &mut self,
        versions: &[VersionId],
        cids: &[u32],
        strays: Vec<String>,
    ) {
        self.mark_saved();
        for &version in versions {
            // A mutable borrow marks the recipe changed.
            let _ = self.recipes.get_mut(version);
        }
        for &cid in cids {
            self.pool.touch(cid);
        }
        self.stray_files = strays;
    }

    pub(crate) fn next_archival_raw(&self) -> u32 {
        self.next_archival_id
    }

    /// Allocates the next version number (out-of-line ingest path).
    pub(crate) fn alloc_version(&mut self) -> VersionId {
        let v = VersionId::new(self.next_version);
        self.next_version += 1;
        v
    }

    /// Absorbs one version's statistics into the running totals.
    pub(crate) fn record_version_stats(&mut self, stats: HiDeStoreVersionStats) {
        self.run_stats.absorb(&stats);
        self.version_stats.push(stats);
    }

    /// The out-of-line schemes' inline-dedup tables (see `scheme`).
    pub(crate) fn scheme_state(&self) -> &SchemeState {
        &self.scheme
    }

    /// Re-derives the scheme tables from the newest retained recipe — after
    /// every out-of-line backup, maintenance pass, and repository open.
    pub(crate) fn rebuild_scheme_state(&mut self) {
        self.scheme = SchemeState::rebuild(self.config.scheme, &self.recipes);
    }

    /// Accumulates rewrite traffic from an out-of-line pass.
    pub(crate) fn add_out_of_line_rewritten_bytes(&mut self, bytes: u64) {
        self.out_of_line_rewritten_bytes += bytes;
    }
}

impl<S: fmt::Debug> fmt::Debug for HiDeStore<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HiDeStore")
            .field("config", &self.config)
            .field("versions", &self.recipes.len())
            .field("active_containers", &self.pool.container_count())
            .field("archival", &self.archival)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hidestore_restore::{Alacc, ContainerLru, Faa};
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

    fn system() -> HiDeStore<MemoryContainerStore> {
        HiDeStore::new(
            HiDeStoreConfig::small_for_tests(),
            MemoryContainerStore::new(),
        )
    }

    /// Evolves `data` like a software upgrade: overwrite a region, append a
    /// little.
    fn evolve(data: &mut Vec<u8>, round: u64) {
        let start = (round as usize * 17_000) % (data.len().saturating_sub(9_000).max(1));
        let patch = noise(8_000.min(data.len() - start), 7_000 + round);
        data[start..start + patch.len()].copy_from_slice(&patch);
        data.extend_from_slice(&noise(1000, 9_000 + round));
    }

    #[test]
    fn single_version_round_trip() {
        let mut hds = system();
        let data = noise(150_000, 1);
        let stats = hds.backup(&data).unwrap();
        assert_eq!(stats.logical_bytes, 150_000);
        assert!(stats.unique_chunks > 0);
        let mut out = Vec::new();
        hds.restore(VersionId::new(1), &mut Faa::new(1 << 20), &mut out)
            .unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn multi_version_round_trip_all_versions() {
        let mut hds = system();
        let mut data = noise(120_000, 2);
        let mut snapshots = Vec::new();
        for round in 0..6u64 {
            hds.backup(&data).unwrap();
            snapshots.push(data.clone());
            evolve(&mut data, round);
        }
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
    fn identical_versions_store_nothing_new() {
        let mut hds = system();
        let data = noise(100_000, 3);
        let s1 = hds.backup(&data).unwrap();
        let s2 = hds.backup(&data).unwrap();
        assert!(s1.stored_bytes > 0);
        assert_eq!(s2.stored_bytes, 0);
        assert_eq!(s2.cold_chunks, 0, "everything stays hot");
        assert!(hds.run_stats().dedup_ratio() > 0.49);
    }

    #[test]
    fn cold_chunks_demoted_to_tagged_archival_containers() {
        let mut hds = system();
        let a = noise(80_000, 4);
        let b = noise(80_000, 5); // completely different content
        hds.backup(&a).unwrap();
        hds.backup(&b).unwrap();
        let s2 = &hds.version_stats()[1];
        assert!(s2.cold_chunks > 0, "version 1's chunks must go cold");
        assert!(s2.archival_containers_sealed > 0);
        // Version tags are set to the demoting version (2).
        let ids = hds.archival.ids();
        assert!(!ids.is_empty());
        for id in ids {
            let c = hds.archival.read(id).unwrap();
            assert_eq!(c.version_tag(), 2);
        }
    }

    #[test]
    fn newest_version_restores_mostly_from_active_containers() {
        let mut hds = system();
        let mut data = noise(150_000, 6);
        for round in 0..5u64 {
            hds.backup(&data).unwrap();
            evolve(&mut data, round);
        }
        hds.backup(&data).unwrap();
        let latest = *hds.versions().last().unwrap();
        hds.archival_mut().reset_stats();
        let mut out = Vec::new();
        let report = hds
            .restore(latest, &mut Faa::new(1 << 20), &mut out)
            .unwrap();
        assert_eq!(out, data);
        // The newest version's chunks are all hot, hence in the pool:
        // archival reads must be zero.
        assert_eq!(hds.archival().stats().container_reads, 0);
        assert!(report.container_reads > 0, "active containers still count");
    }

    #[test]
    fn restore_works_through_any_cache_scheme() {
        let mut hds = system();
        let mut data = noise(100_000, 7);
        for round in 0..4u64 {
            hds.backup(&data).unwrap();
            evolve(&mut data, round);
        }
        for v in 1..=4u32 {
            for cache in [
                &mut ContainerLru::new(8) as &mut dyn RestoreCache,
                &mut Faa::new(1 << 20),
                &mut Alacc::new(1 << 20, 1 << 20),
            ] {
                let mut out = Vec::new();
                hds.restore(VersionId::new(v), cache, &mut out).unwrap();
                assert!(!out.is_empty(), "V{v} via {}", cache.name());
            }
        }
    }

    #[test]
    fn flatten_then_restore_old_versions() {
        let mut hds = system();
        let mut data = noise(120_000, 8);
        let mut snapshots = Vec::new();
        for round in 0..5u64 {
            hds.backup(&data).unwrap();
            snapshots.push(data.clone());
            evolve(&mut data, round);
        }
        let (updated, _) = hds.flatten_recipes();
        assert!(updated > 0, "chains should have existed");
        for (i, snapshot) in snapshots.iter().enumerate() {
            let mut out = Vec::new();
            hds.restore(
                VersionId::new(i as u32 + 1),
                &mut Faa::new(1 << 20),
                &mut out,
            )
            .unwrap();
            assert_eq!(&out, snapshot, "after flatten, version {}", i + 1);
        }
        // Post-flatten invariant: chains are at most one hop, and the hop
        // target's entry for that chunk is never itself chained.
        for recipe in hds.recipes().iter() {
            for entry in recipe.entries() {
                if let Some(w) = entry.cid.as_chained() {
                    let target = hds.recipes().get(w).expect("chain target retained");
                    let target_entry = target
                        .entries()
                        .iter()
                        .find(|e| e.fingerprint == entry.fingerprint)
                        .expect("chain target contains the chunk");
                    assert!(
                        target_entry.cid.as_chained().is_none(),
                        "flatten left a multi-hop chain"
                    );
                }
            }
        }
    }

    #[test]
    fn delete_expired_drops_containers_and_preserves_survivors() {
        let mut hds = system();
        let mut data = noise(120_000, 9);
        let mut snapshots = Vec::new();
        for round in 0..6u64 {
            hds.backup(&data).unwrap();
            snapshots.push(data.clone());
            evolve(&mut data, round);
        }
        let containers_before = hds.archival().ids().len();
        let report = hds.delete_expired(VersionId::new(3)).unwrap();
        assert_eq!(report.versions_removed, 3);
        assert!(
            report.containers_dropped > 0,
            "had {containers_before} containers"
        );
        for v in 4..=6u32 {
            let mut out = Vec::new();
            hds.restore(VersionId::new(v), &mut Faa::new(1 << 20), &mut out)
                .unwrap();
            assert_eq!(&out, &snapshots[(v - 1) as usize], "survivor V{v}");
        }
        assert_eq!(hds.versions().len(), 3);
    }

    #[test]
    fn delete_newest_rejected() {
        let mut hds = system();
        hds.backup(&noise(50_000, 10)).unwrap();
        let err = hds.delete_expired(VersionId::new(1)).unwrap_err();
        assert!(matches!(err, HiDeStoreError::CannotExpireNewest { .. }));
    }

    #[test]
    fn dedup_ratio_matches_exact_on_upgrade_streams() {
        // HiDeStore's claim: no dedup-ratio loss on versioned workloads.
        let mut hds = system();
        let mut data = noise(150_000, 11);
        for round in 0..8u64 {
            hds.backup(&data).unwrap();
            evolve(&mut data, round);
        }
        // Upper bound: total unique content across versions. Each evolve
        // changes ~9KB of 150KB; exact dedup stores roughly
        // 150KB + 8 * ~12KB (chunk boundaries amplify). HiDeStore must be in
        // the same regime, far above naive storage.
        let ratio = hds.run_stats().dedup_ratio();
        assert!(ratio > 0.70, "dedup ratio {ratio}");
    }

    #[test]
    fn lookup_requests_bounded_by_previous_recipe() {
        let mut hds = system();
        let data = noise(100_000, 12);
        hds.backup(&data).unwrap();
        let s2 = hds.backup(&data).unwrap();
        let prev_len = hds.recipes().get(VersionId::new(1)).unwrap().encoded_len();
        assert_eq!(
            s2.lookup_requests,
            (prev_len as u64).div_ceil(4096),
            "lookups are exactly the prefetch cost"
        );
    }

    #[test]
    fn depth_two_handles_skipping_chunks() {
        let cfg = HiDeStoreConfig::small_for_tests().with_history_depth(2);
        let mut hds = HiDeStore::new(cfg, MemoryContainerStore::new());
        let common = noise(60_000, 13);
        let extra = noise(30_000, 14);
        // V1 = common+extra, V2 = common only, V3 = common+extra again
        // (the macos pattern of Figure 3d).
        let mut v1 = common.clone();
        v1.extend_from_slice(&extra);
        hds.backup(&v1).unwrap();
        hds.backup(&common).unwrap();
        let s3 = hds.backup(&v1).unwrap();
        // With depth 2 the extra chunks were still cached: nothing re-stored.
        assert_eq!(
            s3.stored_bytes, 0,
            "depth-2 cache must rescue skipped chunks"
        );
        let mut out = Vec::new();
        hds.restore(VersionId::new(3), &mut Faa::new(1 << 20), &mut out)
            .unwrap();
        assert_eq!(out, v1);
    }

    #[test]
    fn version_stats_overheads_recorded() {
        let mut hds = system();
        let a = noise(100_000, 15);
        let b = noise(100_000, 16);
        hds.backup(&a).unwrap();
        let s2 = hds.backup(&b).unwrap();
        // Times are measured; at minimum they are present (may be ~zero on
        // fast machines, but cold demotion happened so moves were real).
        assert!(s2.cold_chunks > 0);
        assert!(s2.chunk_move_time.as_nanos() > 0);
    }
}

#[cfg(test)]
mod trace_tests {
    use super::*;
    use hidestore_restore::Faa;
    use hidestore_storage::MemoryContainerStore;

    fn trace(ids: std::ops::Range<u64>) -> Vec<(Fingerprint, u32)> {
        ids.map(|i| (Fingerprint::synthetic(i), 2048)).collect()
    }

    fn system() -> HiDeStore<MemoryContainerStore> {
        HiDeStore::new(
            HiDeStoreConfig::small_for_tests(),
            MemoryContainerStore::new(),
        )
    }

    #[test]
    fn trace_backup_full_lifecycle() {
        let mut hds = system();
        // Three versions with 10% churn each.
        hds.backup_trace(&trace(0..1000)).unwrap();
        let mut v2 = trace(100..1000);
        v2.extend(trace(10_000..10_100));
        hds.backup_trace(&v2).unwrap();
        let mut v3 = v2.clone();
        v3.truncate(900);
        v3.extend(trace(20_000..20_100));
        let s3 = hds.backup_trace(&v3).unwrap();
        assert!(
            s3.stored_bytes <= 100 * 2048,
            "only the churned chunks stored"
        );

        // Every version restores (synthetic filler, correct sizes).
        for v in 1..=3u32 {
            let mut out = Vec::new();
            let report = hds
                .restore(VersionId::new(v), &mut Faa::new(1 << 18), &mut out)
                .unwrap();
            assert_eq!(report.bytes_restored, out.len() as u64);
        }
        // Cold demotion happened for the churned chunks.
        assert!(hds.version_stats()[1].cold_chunks > 0);
        // Deletion still works.
        hds.delete_expired(VersionId::new(1)).unwrap();
        assert_eq!(hds.versions().len(), 2);
    }

    #[test]
    fn trace_dedup_ratio_matches_identity_overlap() {
        let mut hds = system();
        let v = trace(0..2000);
        hds.backup_trace(&v).unwrap();
        hds.backup_trace(&v).unwrap();
        assert!((hds.run_stats().dedup_ratio() - 0.5).abs() < 1e-9);
    }
}
