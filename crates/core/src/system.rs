//! The HiDeStore system: backup, restore, flatten, delete.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;
use std::io::{self, BufWriter, Write};
use std::num::NonZeroU32;
use std::ops::Range;
use std::path::Path;
use std::time::Instant;

use hidestore_chunking::Chunker;
use hidestore_dedup::{KnownChunks, RunStats, VersionStats};
use hidestore_hash::Fingerprint;
use hidestore_restore::{
    RestoreCache, RestoreConcurrency, RestoreEntry, RestoreError, RestoreReport,
};
use hidestore_storage::{
    Cid, Container, ContainerBuilder, ContainerId, ContainerStore, Recipe, RecipeEntry,
    RecipeStore, StorageError, VersionId,
};

use crate::active::{ActivePool, Classification};
use crate::chain::{self, ResolveError};
use crate::composite::CompositeStore;
use crate::config::HiDeStoreConfig;
use crate::persist::{QuarantineEntry, QuarantinedArtifact};
use crate::stats::DeletionReport;

/// Size in bytes of one index-lookup I/O unit: the previous recipe's
/// prefetch is charged in these units, the same units as the traditional
/// schemes' index lookups (§5.2.2).
const LOOKUP_UNIT_BYTES: u64 = 4096;

/// Bytes the paper charges per fingerprint-cache entry: a 20-byte
/// fingerprint, a 4-byte container ID and a 4-byte size (§4.1).
const CACHE_ENTRY_BYTES: u64 = 28;

/// Bytes of output one FAA area assembles in the restores the CLI, the
/// daemon, tree restore and the auditor run: each container a restore
/// needs is read once per area.
pub const RESTORE_AREA_BYTES: usize = 32 << 20;

/// Bytes [`write_staged`] buffers before each write to its file. Restore
/// writes chunk by chunk, so this, not the chunk size, sets how many bytes
/// each `write(2)` carries.
const STAGED_WRITE_BYTES: usize = 1 << 20;

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
    /// A byte-range restore asked for bytes outside the version's stream.
    RangeOutOfBounds {
        /// The requested range.
        range: Range<u64>,
        /// The version's stream length.
        len: u64,
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
            HiDeStoreError::RangeOutOfBounds { range, len } => write!(
                f,
                "byte range {}..{} lies outside the {len}-byte version",
                range.start, range.end
            ),
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

impl From<io::Error> for HiDeStoreError {
    fn from(e: io::Error) -> Self {
        HiDeStoreError::Storage(StorageError::Io(e))
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

/// The verdict of [`HiDeStore::scrub`], the benchmark harness's check.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scrubbed(bool);

impl Scrubbed {
    /// Whether every chunk re-hashed and every version resolved.
    pub fn is_clean(&self) -> bool {
        self.0
    }
}

/// The HiDeStore backup system (see crate docs for the design summary and an
/// end-to-end example).
pub struct HiDeStore<S> {
    config: HiDeStoreConfig,
    chunker: Box<dyn Chunker + Send + Sync>,
    pool: ActivePool,
    archival: S,
    recipes: RecipeStore,
    next_version: u32,
    next_archival_id: u32,
    version_stats: Vec<VersionStats>,
    quarantined: Vec<QuarantineEntry>,
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
            pool: ActivePool::new(config.container_capacity),
            archival,
            recipes: RecipeStore::new(),
            next_version: 1,
            next_archival_id: 1,
            version_stats: Vec::new(),
            quarantined: Vec::new(),
            stray_files: Vec::new(),
            config,
        }
    }

    /// Backs up one version.
    ///
    /// This is the whole §4 pipeline: classify against the hot set, stage
    /// unique chunks in active containers, then at version end
    /// demote the cold set to archival containers, merge sparse active
    /// containers, and update the previous recipe(s).
    ///
    /// # Errors
    ///
    /// Fails if the archival store rejects a write.
    pub fn backup(&mut self, data: &[u8]) -> Result<VersionStats, HiDeStoreError> {
        // The shared front end: on one thread or several by core count and
        // input size, the same spans and fingerprints either way. The pooled
        // chunks this instance cut and fingerprinted itself are emitted
        // without a scan or a hash where the stream repeats them.
        let known = KnownChunks::new(self.chunker.as_ref(), self.pool.known());
        let (spans, fingerprints) =
            hidestore_dedup::chunk_fingerprints_known(data, self.chunker.as_mut(), &known);
        self.run_backup(data, &spans, &fingerprints, true)
    }

    // Exists only because `hdsbench/src/stream.rs` (frozen) replays ingest
    // through it on a shadow instance that is never restored or audited:
    // the chunks are `(fingerprint, size)` pairs over a zero-filled stream.
    #[doc(hidden)]
    pub fn backup_trace(
        &mut self,
        trace: &[(Fingerprint, u32)],
    ) -> Result<VersionStats, HiDeStoreError> {
        let fingerprints: Vec<Fingerprint> = trace.iter().map(|&(fp, _)| fp).collect();
        let mut spans = Vec::with_capacity(trace.len());
        let mut end = 0;
        for &(_, size) in trace {
            spans.push(end..end + size as usize);
            end += size as usize;
        }
        self.run_backup(&vec![0; end], &spans, &fingerprints, false)
    }

    /// Ingests one version: chunk `i` is `data[spans[i]]`, fingerprinted
    /// as `fingerprints[i]`. `cut_here` says this instance's front end cut
    /// and fingerprinted `data` with its own chunker, so the pooled chunks
    /// holding those bytes become known (see [`ActivePool::known`]).
    fn run_backup(
        &mut self,
        data: &[u8],
        spans: &[Range<usize>],
        fingerprints: &[Fingerprint],
        cut_here: bool,
    ) -> Result<VersionStats, HiDeStoreError> {
        let version = VersionId::new(self.next_version);
        self.next_version += 1;
        let logical_bytes = data.len() as u64;

        // §5.2.2: HiDeStore's only index traffic is prefetching the previous
        // recipe (T1), charged in lookup-request units.
        let lookup_requests = version
            .prev()
            .and_then(|p| self.recipes.get(p))
            .map(|r| (r.encoded_len() as u64).div_ceil(LOOKUP_UNIT_BYTES))
            .unwrap_or(0);

        let mut recipe = Recipe::new(version);
        let mut stored_bytes = 0u64;
        let mut stored_chunks = 0u64;

        // Each chunk's stream position is its rank: the end-of-version
        // compaction packs in the order this version first held them.
        for (i, (&fp, span)) in (0u32..).zip(fingerprints.iter().zip(spans)) {
            let size = span.len() as u32;
            let bytes = &data[span.clone()];
            if self.pool.classify(fp, version, i) == Classification::Unique {
                self.pool.insert(fp, bytes, version, i, cut_here);
                stored_bytes += u64::from(size);
                stored_chunks += 1;
            } else if cut_here {
                self.pool.vouch(&fp, bytes);
            }
            recipe.push(RecipeEntry::new(fp, size, Cid::ACTIVE));
        }
        self.recipes.insert(recipe);

        // End of version: demote the cold set and compact the pool.
        let move_start = Instant::now();
        let cold = self.pool.cold(version, self.config.history_depth);
        let (moved, sealed) = self.demote_cold(&cold, version)?;
        let cold_bytes: u64 = cold.iter().map(|&(_, size)| u64::from(size)).sum();
        let compaction = self
            .pool
            .compact_with_order(self.config.compact_threshold, version);
        let chunk_move_time = move_start.elapsed();

        // Update the previous recipe(s) (§4.3).
        let recipe_start = Instant::now();
        chain::update_previous_recipes(
            &mut self.recipes,
            version,
            &moved,
            &self.pool,
            self.config.history_depth,
        );
        let recipe_update_time = recipe_start.elapsed();

        let stats = VersionStats {
            logical_bytes,
            stored_bytes,
            chunks: fingerprints.len() as u64,
            stored_chunks,
            lookup_requests,
            fingerprint_cache_bytes: self.pool.chunk_count() as u64 * CACHE_ENTRY_BYTES,
            cold_chunks: cold.len() as u64,
            cold_bytes,
            archival_containers_sealed: sealed,
            containers_merged: compaction.containers_merged,
            recipe_update_time,
            chunk_move_time,
            ..VersionStats::new(version)
        };
        self.version_stats.push(stats);
        Ok(stats)
    }

    /// Moves the cold chunks, in [`ActivePool::cold`]'s order, out of the
    /// active pool into fresh archival containers tagged with `version`
    /// (§4.2's filter).
    fn demote_cold(
        &mut self,
        cold: &[(Fingerprint, u32)],
        version: VersionId,
    ) -> Result<(HashMap<Fingerprint, ContainerId>, u64), HiDeStoreError> {
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
            cold.iter().filter_map(|(fp, _)| Some((*fp, pool.get(fp)?))),
        );
        self.pool = pool;
        let (moved, sealed) = packed?;
        // Every archival copy is durable: now the originals can leave the
        // active pool.
        for (fp, _) in cold {
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
    /// chain and serving hot chunks from the active containers (§4.4): the
    /// whole-range case of [`ResolvedVersion::restore_range`].
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
        let resolved = self.resolve(version)?;
        resolved.restore_range(0..resolved.total_bytes(), cache, out)
    }

    /// Resolves `version` once for byte-range restores: its restore plan
    /// and the stream offset at which each chunk starts.
    ///
    /// # Errors
    ///
    /// The resolution errors of [`HiDeStore::restore`]: unknown versions,
    /// broken chains, quarantined dependencies.
    pub fn resolve(&self, version: VersionId) -> Result<ResolvedVersion<'_, S>, HiDeStoreError> {
        let plan = self.restore_plan(version)?;
        let mut offsets = Vec::with_capacity(plan.len() + 1);
        let mut total = 0u64;
        offsets.push(0);
        for e in &plan {
            total += u64::from(e.size);
            offsets.push(total);
        }
        Ok(ResolvedVersion {
            system: self,
            version,
            plan,
            offsets,
        })
    }

    /// Resolves `version`'s recipe chain into its flat restore plan without
    /// restoring anything: one [`RestoreEntry`] per recipe entry, in stream
    /// order, each carrying the container that physically holds the chunk.
    /// It is the one way a retained version becomes a container plan:
    /// restore, `stats` and the fragmentation table all read it.
    ///
    /// Byte-range readers use [`HiDeStore::resolve`] instead, which keeps
    /// the plan together with its offsets.
    ///
    /// # Errors
    ///
    /// Exactly the resolution errors of [`HiDeStore::restore`]: unknown
    /// versions, broken chains, and — in a degraded-mode repository, before
    /// any other error — the quarantined artifacts its entries resolve
    /// through, as a partial restore.
    pub fn restore_plan(&self, version: VersionId) -> Result<Vec<RestoreEntry>, HiDeStoreError> {
        chain::build_plan(&self.recipes, &self.pool, &self.quarantined, version)
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
        let start = Instant::now();
        let mut report = DeletionReport::default();
        for v in self.recipes.versions() {
            if v <= up_to {
                self.recipes.remove(v);
                report.versions_removed += 1;
            }
        }
        self.drop_unheld_pool_chunks();
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

    /// Removes from the active pool every chunk no retained recipe holds.
    /// A prune below the history depth leaves such chunks pooled; the next
    /// backup would otherwise demote them into archival containers that no
    /// recipe references. A quarantined recipe (or an unrecognized
    /// quarantined file) might hold any pooled chunk, so while one exists
    /// nothing is removed. The pool is then compacted in place, as at the
    /// end of a backup, so the containers that only lost chunks keep their
    /// files.
    fn drop_unheld_pool_chunks(&mut self) {
        if self.quarantined.iter().any(|q| {
            matches!(
                q.artifact,
                QuarantinedArtifact::Recipe(_) | QuarantinedArtifact::Unrecognized(_)
            )
        }) {
            return;
        }
        let held: HashSet<Fingerprint> = self
            .recipes
            .iter()
            .flat_map(|r| r.entries().iter().map(|e| e.fingerprint))
            .collect();
        let unheld: Vec<Fingerprint> = self
            .pool
            .hot_chunks()
            .map(|(fp, _)| fp)
            .filter(|fp| !held.contains(fp))
            .collect();
        for fp in &unheld {
            self.pool.remove(fp);
        }
        self.pool.compact_in_place(self.config.compact_threshold);
    }

    /// Whether every chunk re-hashes to its fingerprint and every retained
    /// version resolves onto chunks its containers hold. Not the integrity
    /// checker — that is `hidestore_fsck::SystemAuditor`, behind
    /// `hidestore verify` and the daemon's `Verify` — but the end-of-round
    /// check of the benchmark harness, which builds without the fsck crate.
    ///
    /// # Errors
    ///
    /// Fails if an archival container cannot be read or a version does not
    /// resolve.
    #[doc(hidden)]
    pub fn scrub(&self) -> Result<Scrubbed, HiDeStoreError> {
        let mut held: HashSet<(ContainerId, Fingerprint)> = HashSet::new();
        let mut clean = true;
        let mut check = |container: &Container| {
            for (fp, data) in container.iter() {
                held.insert((container.id(), fp));
                clean &= Fingerprint::of(data) == fp;
            }
        };
        for id in self.archival.ids() {
            check(&*self.archival.read(id)?);
        }
        self.pool.containers().for_each(|(_, c)| check(c));
        for version in self.versions() {
            let plan = self.restore_plan(version)?;
            clean &= plan
                .iter()
                .all(|e| held.contains(&(e.container, e.fingerprint)));
        }
        Ok(Scrubbed(clean))
    }

    /// Cumulative statistics: the sum of [`HiDeStore::version_stats`].
    pub fn run_stats(&self) -> RunStats {
        RunStats::of(&self.version_stats)
    }

    /// Per-version statistics in backup order.
    pub fn version_stats(&self) -> &[VersionStats] {
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

    /// Logical bytes of every retained version: what a byte quota counts
    /// and `tenant list` reports.
    pub fn retained_bytes(&self) -> u64 {
        self.recipes.iter().map(|recipe| recipe.total_bytes()).sum()
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
        dead_entries: BTreeMap<u32, Vec<Fingerprint>>,
    ) -> Result<(), HiDeStoreError> {
        self.pool = ActivePool::from_containers(
            self.config.container_capacity,
            pool_containers,
            dead_entries,
        )
        .map_err(|msg| HiDeStoreError::Storage(StorageError::Corrupt(msg)))?;
        crate::persist::stamp_hot_set(&recipes, &mut self.pool, self.config.history_depth);
        self.recipes = recipes;
        self.next_version = next_version.max(1);
        self.next_archival_id = next_archival_id.max(1);
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

/// A version resolved for byte-range restores (see [`HiDeStore::resolve`]):
/// its restore plan plus prefix sums over the chunk sizes, so any byte range
/// maps onto exactly the chunks — and therefore the containers — that cover
/// it. This is the one way to read part of a version: tree restore, the
/// auditor's manifest check and the daemon's resumed restores all use it.
pub struct ResolvedVersion<'a, S> {
    system: &'a HiDeStore<S>,
    version: VersionId,
    plan: Vec<RestoreEntry>,
    /// `plan.len() + 1` prefix sums of chunk sizes: chunk `i` covers stream
    /// bytes `[offsets[i], offsets[i + 1])`.
    offsets: Vec<u64>,
}

impl<S: ContainerStore> ResolvedVersion<'_, S> {
    /// The version this was resolved from.
    pub fn version(&self) -> VersionId {
        self.version
    }

    /// The version's stream length in bytes.
    pub fn total_bytes(&self) -> u64 {
        self.offsets.last().copied().unwrap_or(0)
    }

    /// Restores stream bytes `range` through `cache` into `out`. Only the
    /// chunks that overlap the range are restored, and the first and last
    /// of them are trimmed, so `out` receives exactly the range. An empty
    /// range reads nothing. The report counts this range's reads alone, and
    /// its `bytes_restored` is what reached `out`.
    ///
    /// # Errors
    ///
    /// [`HiDeStoreError::RangeOutOfBounds`] if `range` is not inside
    /// `0..total_bytes()`; otherwise the storage and restore errors of
    /// [`HiDeStore::restore`].
    pub fn restore_range(
        &self,
        range: Range<u64>,
        cache: &mut dyn RestoreCache,
        out: &mut dyn Write,
    ) -> Result<RestoreReport, HiDeStoreError> {
        let len = self.total_bytes();
        if range.start > range.end || range.end > len {
            return Err(HiDeStoreError::RangeOutOfBounds { range, len });
        }
        if range.is_empty() {
            return Ok(RestoreReport::default());
        }
        // The chunk holding the first byte; one past the last chunk that
        // overlaps the range.
        let first = self.offsets.partition_point(|&o| o <= range.start) - 1;
        let last = self.offsets.partition_point(|&o| o < range.end);
        let mut trim = Trim {
            skip: range.start - self.offsets[first],
            left: range.end - range.start,
            out,
        };
        let view = CompositeStore::new(&self.system.archival, &self.system.pool);
        let mut report = cache.restore(&self.plan[first..last], &view, &mut trim)?;
        report.bytes_restored = range.end - range.start - trim.left;
        Ok(report)
    }
}

/// Forwards bytes `[skip, skip + left)` of what is written through it and
/// drops the rest: the trim of a range's first and last chunk.
struct Trim<'a> {
    skip: u64,
    left: u64,
    out: &'a mut dyn Write,
}

impl Write for Trim<'_> {
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        let dropped = self.skip.min(data.len() as u64) as usize;
        self.skip -= dropped as u64;
        let kept = &data[dropped..];
        let kept = &kept[..self.left.min(kept.len() as u64) as usize];
        self.out.write_all(kept)?;
        self.left -= kept.len() as u64;
        Ok(data.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        self.out.flush()
    }
}

/// Writes the file at `path` through a staging file `<path>.tmp` (`.tmp`
/// appended to the full file name): `fill` writes the contents, which are
/// then synced and renamed into place. On every error path — `fill`'s own,
/// the sync, or the rename — the staging file is removed, so a failed
/// write never leaves a partial file behind. The CLI's `restore` writes
/// through it, locally and through a daemon.
///
/// # Errors
///
/// `fill`'s error, or the I/O error creating, syncing or renaming the file.
pub fn write_staged<T, E: From<io::Error>>(
    path: &Path,
    fill: impl FnOnce(&mut dyn Write) -> Result<T, E>,
) -> Result<T, E> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    let result = (|| {
        let mut out = BufWriter::with_capacity(STAGED_WRITE_BYTES, std::fs::File::create(&tmp)?);
        let value = fill(&mut out)?;
        out.into_inner().map_err(|e| e.into_error())?.sync_all()?;
        std::fs::rename(&tmp, path)?;
        Ok(value)
    })();
    if result.is_err() {
        // Best-effort cleanup; the original error is what matters.
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use hidestore_chunking::ChunkerKind;
    use hidestore_restore::{Alacc, ContainerLru, Faa};
    use hidestore_storage::{MemoryContainerStore, RepoFile};

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
        assert!(stats.stored_chunks > 0);
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
        let before = hds.archival().stats();
        let mut out = Vec::new();
        let report = hds
            .restore(latest, &mut Faa::new(1 << 20), &mut out)
            .unwrap();
        assert_eq!(out, data);
        // The newest version's chunks are all hot, hence in the pool:
        // archival reads must be zero.
        assert_eq!(hds.archival().stats().since(&before).container_reads, 0);
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
            for (name, cache) in [
                (
                    "container-lru",
                    &mut ContainerLru::new(8) as &mut dyn RestoreCache,
                ),
                ("faa", &mut Faa::new(1 << 20)),
                ("alacc", &mut Alacc::new(1 << 20, 1 << 20)),
            ] {
                let mut out = Vec::new();
                hds.restore(VersionId::new(v), cache, &mut out).unwrap();
                assert!(!out.is_empty(), "V{v} via {name}");
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
        let cfg = HiDeStoreConfig {
            history_depth: 2,
            ..HiDeStoreConfig::small_for_tests()
        };
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
    fn fingerprint_cache_bytes_are_28_per_hot_chunk() {
        let mut hds = system();
        let s1 = hds.backup(&noise(100_000, 17)).unwrap();
        assert!(s1.stored_chunks > 0);
        assert_eq!(s1.fingerprint_cache_bytes, 28 * s1.stored_chunks);
        // Completely different data: version 1's chunks go cold and leave
        // the table.
        let s2 = hds.backup(&noise(100_000, 18)).unwrap();
        assert_eq!(s2.cold_chunks, s1.stored_chunks);
        assert_eq!(s2.fingerprint_cache_bytes, 28 * s2.stored_chunks);
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

    /// Everything an ingest leaves behind: recipes, the pool's containers
    /// and the archival containers, as encoded bytes.
    type State = (
        Vec<Recipe>,
        Vec<(u32, Vec<u8>)>,
        Vec<(ContainerId, Vec<u8>)>,
    );

    fn state<S: ContainerStore>(hds: &HiDeStore<S>) -> State {
        let pool = hds.pool().containers().map(|(cid, c)| (cid, c.encode()));
        let archival = hds.archival().ids().into_iter().map(|id| {
            let c = hds.archival().read(id).unwrap();
            (id, c.encode())
        });
        (
            hds.recipes().iter().cloned().collect(),
            pool.collect(),
            archival.collect(),
        )
    }

    /// Ingests `data` cut and hashed by the reference front end, with
    /// nothing known and nothing vouched for.
    fn reference_backup<S: ContainerStore>(hds: &mut HiDeStore<S>, data: &[u8]) {
        let spans = hidestore_chunking::chunk_spans(hds.chunker.as_mut(), data);
        let fps: Vec<Fingerprint> = spans
            .iter()
            .map(|s| Fingerprint::of(&data[s.clone()]))
            .collect();
        hds.run_backup(data, &spans, &fps, false).unwrap();
    }

    fn copy_dir(from: &std::path::Path, to: &std::path::Path) {
        std::fs::create_dir_all(to).unwrap();
        for entry in std::fs::read_dir(from).unwrap() {
            let entry = entry.unwrap();
            let dest = to.join(entry.file_name());
            if entry.file_type().unwrap().is_dir() {
                copy_dir(&entry.path(), &dest);
            } else {
                std::fs::copy(entry.path(), dest).unwrap();
            }
        }
    }

    /// A pooled chunk whose bytes were corrupted on disk never becomes
    /// known: not at open, and not when a backup scans its fingerprint's
    /// true bytes. Backing up the true bytes, then the corrupted ones,
    /// leaves exactly what the reference front end leaves.
    #[test]
    fn a_corrupt_pooled_chunk_never_steers_a_cut_or_a_fingerprint() {
        let base = std::env::temp_dir().join(format!("hidestore-known-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        let (dir, ref_dir) = (base.join("real"), base.join("reference"));
        let config = HiDeStoreConfig::small_for_tests();
        let v1 = noise(200_000, 41);
        let mut hds = HiDeStore::open_repository(config, &dir).unwrap();
        hds.backup(&v1).unwrap();
        hds.save_repository(&dir).unwrap();
        // A chunk whose end is a confirmed cut, and a flip in its middle
        // that moves no cut: the corrupted stream is cut like the original.
        let spans = hidestore_chunking::chunk_spans(hds.chunker.as_mut(), &v1);
        let (span, corrupt) = spans[spans.len() / 2..]
            .iter()
            .find_map(|span| {
                let mut corrupt = v1.clone();
                corrupt[span.start + span.len() / 2] ^= 0x20;
                let same = hidestore_chunking::chunk_spans(hds.chunker.as_mut(), &corrupt) == spans
                    && hds.chunker.cut_confirmed(&corrupt[span.clone()]);
                same.then_some((span.clone(), corrupt))
            })
            .unwrap();
        drop(hds);
        let chunk = &v1[span.clone()];
        let file = std::fs::read_dir(dir.join(RepoFile::Active.dir()))
            .unwrap()
            .map(|e| e.unwrap().path())
            .find(|p| {
                let bytes = std::fs::read(p).unwrap();
                bytes.windows(chunk.len()).any(|w| w == chunk)
            })
            .unwrap();
        let mut bytes = std::fs::read(&file).unwrap();
        let at = bytes.windows(chunk.len()).position(|w| w == chunk).unwrap();
        bytes[at + chunk.len() / 2] ^= 0x20;
        std::fs::write(&file, bytes).unwrap();
        copy_dir(&dir, &ref_dir);

        let mut real = HiDeStore::open_repository(config, &dir).unwrap();
        let mut reference = HiDeStore::open_repository(config, &ref_dir).unwrap();
        let pooled = Fingerprint::of(chunk);
        assert_eq!(real.pool().get(&pooled), Some(&corrupt[span.clone()]));
        assert_eq!(real.pool().known().count(), 0, "nothing loaded is known");
        for (v, data) in [(2, &v1), (3, &corrupt)] {
            real.backup(data).unwrap();
            reference_backup(&mut reference, data);
            assert!(state(&real) == state(&reference), "V{v}");
            if v == 2 {
                // Every chunk the scan vouched for, but the corrupt one.
                let known: Vec<Fingerprint> = real.pool().known().map(|(fp, _)| fp).collect();
                assert_eq!(known.len(), real.pool().chunk_count() - 1);
                assert!(!known.contains(&pooled));
            }
        }
        std::fs::remove_dir_all(&base).unwrap();
    }

    /// The zero-filled chunks `backup_trace` pools are never known, so a
    /// later `backup` of real bytes — zero blocks included, which a fixed
    /// chunker confirms — leaves what the reference front end leaves; the
    /// chunks that backup scanned itself are then predicted in the next.
    #[test]
    fn a_trace_shadow_never_steers_a_cut_or_a_fingerprint() {
        for chunker in [ChunkerKind::Tttd, ChunkerKind::Fixed] {
            let config = HiDeStoreConfig {
                chunker,
                ..HiDeStoreConfig::small_for_tests()
            };
            let v1 = noise(100_000, 51);
            let mut v2 = vec![0u8; 16 << 10];
            v2.extend_from_slice(&v1);
            let spans = hidestore_chunking::chunk_spans(config.chunker.build(1024).as_mut(), &v1);
            let trace: Vec<(Fingerprint, u32)> = spans
                .iter()
                .map(|s| (Fingerprint::of(&v1[s.clone()]), s.len() as u32))
                .collect();
            let mut real = HiDeStore::new(config, MemoryContainerStore::new());
            let mut reference = HiDeStore::new(config, MemoryContainerStore::new());
            real.backup_trace(&trace).unwrap();
            reference.backup_trace(&trace).unwrap();
            for v in [2, 3] {
                real.backup(&v2).unwrap();
                reference_backup(&mut reference, &v2);
                assert!(state(&real) == state(&reference), "{chunker} V{v}");
                // Only what `backup` stored itself is known: no chunk of
                // the trace, whose pooled bytes are zeros.
                let traced = |fp: &Fingerprint| trace.iter().any(|(t, _)| t == fp);
                assert!(real.pool().known().all(|(fp, _)| !traced(&fp)), "{chunker}");
                assert!(real.pool().known().count() > 0, "{chunker}");
            }
        }
    }
}
