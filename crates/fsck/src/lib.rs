#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Cross-layer invariant checker for HiDeStore repositories.
//!
//! HiDeStore's correctness rests on invariants that span three layers —
//! recipes, the active container pool, and the archival container store —
//! plus the in-memory fingerprint cache:
//!
//! 1. **Reference integrity** — every recipe entry's CID resolves, possibly
//!    through a recipe chain, to a container that actually holds the chunk.
//! 2. **Content integrity** — every stored chunk's payload re-hashes to its
//!    20-byte fingerprint.
//! 3. **Structural integrity** — each container's metadata section agrees
//!    with its data section: entry offsets/lengths in bounds, live entries
//!    non-overlapping, live-byte accounting exact.
//! 4. **ID-space disjointness** — archival containers live below
//!    [`ACTIVE_ID_BASE`], active-pool snapshots at or above it, so one
//!    restore plan can mix both without collision.
//! 5. **Chain sanity** — recipe chains only point *forward* (to strictly
//!    newer versions), are acyclic, and never dangle.
//! 6. **Cold accounting** — archival chunks referenced by no recipe are
//!    tolerated only in version-tagged containers (the documented
//!    failed-demotion case, reclaimed by tag-ranged deletion); an orphan in
//!    an untagged container would leak forever.
//!
//! [`SystemAuditor`] walks all of it and reports each violation as a typed
//! [`Finding`] with a [`Severity`] — it never panics on corrupt input, so a
//! single audit pass enumerates *all* damage. The `hds-fsck` binary runs the
//! same auditor against an on-disk repository directory.
//!
//! **Crash-recovery awareness**: repositories opened from disk may carry
//! state left by degraded-mode recovery — artifacts moved to `quarantine/`
//! ([`FindingKind::QuarantinedArtifact`]) and recipe references that resolve
//! into them ([`FindingKind::QuarantinedRef`]). Both are reported at
//! [`Severity::Warning`]: the damage is real but already contained, and
//! every version without quarantined dependencies still restores. The
//! `hds-fsck` binary additionally reports an interrupted save transaction
//! pending in `staging/` ([`FindingKind::PendingJournal`]) by scanning the
//! directory *before* opening it (opening resolves the transaction).
//!
//! # Examples
//!
//! ```
//! use hidestore_core::{HiDeStore, HiDeStoreConfig};
//! use hidestore_fsck::SystemAuditor;
//! use hidestore_storage::MemoryContainerStore;
//!
//! let mut system = HiDeStore::new(
//!     HiDeStoreConfig::small_for_tests(),
//!     MemoryContainerStore::new(),
//! );
//! system.backup(b"some data to back up and audit afterwards")?;
//! let report = SystemAuditor::new().audit(&system);
//! assert!(report.is_clean(), "{report}");
//! # Ok::<(), hidestore_core::HiDeStoreError>(())
//! ```

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::Arc;

use hidestore_core::chain::resolve_plan;
use hidestore_core::{ActivePool, HiDeStore, QuarantinedArtifact as CoreArtifact, ACTIVE_ID_BASE};
use hidestore_hash::Fingerprint;
use hidestore_storage::{Cid, Container, ContainerId, ContainerStore, RecipeStore};
use hidestore_tree::manifest::{
    decode_stream_header, is_tree_stream, EntryPayload, TreeManifest, STREAM_HEADER_LEN,
};

/// How bad a [`Finding`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Suspicious or wasteful, but every retained version still restores
    /// correctly (e.g. a stale cache entry, a leaked orphan chunk).
    Warning,
    /// An invariant is broken: some restore would fail or return wrong data,
    /// or metadata no longer describes the physical layout.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// The specific invariant violation a [`Finding`] reports.
///
/// Container IDs are raw `u32`s (archival IDs below [`ACTIVE_ID_BASE`],
/// active-pool snapshot IDs at or above it); versions are raw recipe
/// version numbers.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum FindingKind {
    /// A container listed by the store could not be read or decoded.
    UnreadableContainer {
        /// The unreadable container's ID.
        id: u32,
        /// The storage-layer error message.
        detail: String,
    },
    /// A container sits in the wrong ID space (an archival container at or
    /// above [`ACTIVE_ID_BASE`], or a pool container whose ID does not match
    /// its pool slot).
    IdSpaceViolation {
        /// The offending container ID.
        id: u32,
        /// Whether the container was found on the archival side.
        archival: bool,
    },
    /// A container metadata entry points past the end of the data section.
    EntryOutOfBounds {
        /// The container holding the bad entry.
        container: u32,
        /// The chunk whose entry is out of bounds.
        fingerprint: Fingerprint,
        /// The entry's byte offset.
        offset: u32,
        /// The entry's byte length.
        length: u32,
        /// The data section's actual size.
        data_len: u64,
    },
    /// Two live metadata entries of one container overlap in the data
    /// section.
    EntryOverlap {
        /// The container holding the overlapping entries.
        container: u32,
        /// One of the overlapping chunks.
        a: Fingerprint,
        /// The other overlapping chunk.
        b: Fingerprint,
    },
    /// A chunk's payload does not re-hash to its fingerprint.
    ChunkHashMismatch {
        /// The container holding the corrupt chunk.
        container: u32,
        /// The expected fingerprint.
        fingerprint: Fingerprint,
    },
    /// A container's recorded live-byte count disagrees with the sum of its
    /// entry lengths.
    AccountingMismatch {
        /// The container with inconsistent accounting.
        container: u32,
        /// The container's own live-byte figure.
        recorded: u64,
        /// The sum of entry lengths the auditor computed.
        computed: u64,
    },
    /// An archival container's version tag is newer than any version the
    /// system has assigned — tag-ranged deletion would misjudge it.
    FutureVersionTag {
        /// The container with the anomalous tag.
        container: u32,
        /// The tag found.
        tag: u32,
        /// The system's next (not yet assigned) version number.
        next_version: u32,
    },
    /// A recipe entry references an archival container the store does not
    /// have.
    DanglingArchivalRef {
        /// The version whose recipe holds the entry.
        version: u32,
        /// The referenced chunk.
        fingerprint: Fingerprint,
        /// The missing container ID.
        container: u32,
    },
    /// A referenced archival container exists but does not hold the chunk.
    ArchivalChunkMissing {
        /// The version whose recipe holds the entry.
        version: u32,
        /// The chunk the container should hold.
        fingerprint: Fingerprint,
        /// The container that lacks it.
        container: u32,
    },
    /// A recipe entry marked `ACTIVE` references a chunk absent from the
    /// active pool.
    ActiveChunkMissingFromPool {
        /// The version whose recipe holds the entry.
        version: u32,
        /// The missing chunk.
        fingerprint: Fingerprint,
    },
    /// A chained recipe entry points at a version with no retained recipe.
    MissingChainTarget {
        /// The version whose recipe chain broke.
        version: u32,
        /// The chunk being resolved.
        fingerprint: Fingerprint,
        /// The chained-to version that has no recipe.
        target: u32,
    },
    /// A chain hop landed in a recipe that does not contain the chunk.
    ChainBrokenAt {
        /// The version whose entry started the walk.
        version: u32,
        /// The chunk being resolved.
        fingerprint: Fingerprint,
        /// The recipe that lacks the chunk.
        at: u32,
    },
    /// A chain hop points backward or sideways (target version not strictly
    /// newer) — forward-only chains are what makes resolution finite.
    ChainNotVersionOrdered {
        /// The version whose entry started the walk.
        version: u32,
        /// The chunk being resolved.
        fingerprint: Fingerprint,
        /// The version the bad hop left from.
        from: u32,
        /// The version the bad hop points to.
        to: u32,
    },
    /// Following a chain revisited a version — the chain is cyclic and the
    /// chunk unresolvable.
    ChainCycle {
        /// The version whose entry started the walk.
        version: u32,
        /// The chunk whose chain cycles.
        fingerprint: Fingerprint,
    },
    /// A fingerprint-cache entry disagrees with the pool (chunk gone, or
    /// pooled in a different container than the cache believes).
    StaleCacheEntry {
        /// The cached chunk.
        fingerprint: Fingerprint,
        /// The pool-local container ID the cache records.
        cached_cid: u32,
    },
    /// An unreferenced archival chunk lives in an *untagged* container:
    /// tag-ranged deletion will never reclaim it.
    OrphanUntagged {
        /// The untagged container holding the orphan.
        container: u32,
        /// The orphaned chunk.
        fingerprint: Fingerprint,
    },
    /// Degraded-mode recovery moved a repository artifact to `quarantine/`
    /// when the repository was opened (corrupt, unreadable, or residue of an
    /// uncommitted save).
    QuarantinedArtifact {
        /// What was quarantined (e.g. "archival container 3").
        artifact: String,
        /// Why recovery pulled it.
        reason: String,
    },
    /// A recipe entry resolves into a quarantined artifact. The damage is
    /// already contained — the affected version fails restore with a typed
    /// partial-restore error naming its lost dependencies — so this is a
    /// warning, not a fresh integrity error.
    QuarantinedRef {
        /// The version whose recipe holds the entry.
        version: u32,
        /// The chunk that resolves into quarantine.
        fingerprint: Fingerprint,
        /// The quarantined artifact it resolves to.
        artifact: String,
    },
    /// An interrupted save transaction is pending in `staging/`. Reported by
    /// the offline `hds-fsck` scan; opening the repository resolves it (roll
    /// forward if the commit record is valid, roll back otherwise).
    PendingJournal {
        /// What the pending transaction looks like and how open will
        /// resolve it.
        detail: String,
    },
    /// A version carries the tree-stream magic but its manifest does not
    /// decode (truncated, malformed, or inconsistent with the stream).
    TreeManifestCorrupt {
        /// The tree-backup version.
        version: u32,
        /// What failed to decode.
        detail: String,
    },
    /// A tree-manifest file entry points at a content range beyond the end
    /// of the version stream — restoring that file would fail.
    DanglingTreeRef {
        /// The tree-backup version.
        version: u32,
        /// The file's apath within the tree.
        apath: String,
        /// Claimed content offset.
        offset: u64,
        /// Claimed content length.
        size: u64,
    },
}

/// One invariant violation found by [`SystemAuditor`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// How bad it is.
    pub severity: Severity,
    /// What exactly is wrong.
    pub kind: FindingKind,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: ", self.severity)?;
        match &self.kind {
            FindingKind::UnreadableContainer { id, detail } => {
                write!(f, "container {id} unreadable: {detail}")
            }
            FindingKind::IdSpaceViolation { id, archival } => {
                let side = if *archival {
                    "archival store"
                } else {
                    "active pool"
                };
                write!(f, "container {id} is in the wrong ID space for the {side}")
            }
            FindingKind::EntryOutOfBounds {
                container,
                fingerprint,
                offset,
                length,
                data_len,
            } => {
                write!(
                    f,
                    "container {container} entry {fingerprint} spans {offset}+{length}, \
                     past data section of {data_len} bytes"
                )
            }
            FindingKind::EntryOverlap { container, a, b } => {
                write!(f, "container {container} entries {a} and {b} overlap")
            }
            FindingKind::ChunkHashMismatch {
                container,
                fingerprint,
            } => {
                write!(f, "container {container} chunk {fingerprint} fails re-hash")
            }
            FindingKind::AccountingMismatch {
                container,
                recorded,
                computed,
            } => {
                write!(
                    f,
                    "container {container} records {recorded} live bytes but entries \
                     sum to {computed}"
                )
            }
            FindingKind::FutureVersionTag {
                container,
                tag,
                next_version,
            } => {
                write!(
                    f,
                    "container {container} tagged with version {tag}, but the next \
                     version to be assigned is {next_version}"
                )
            }
            FindingKind::DanglingArchivalRef {
                version,
                fingerprint,
                container,
            } => {
                write!(
                    f,
                    "recipe V{version} chunk {fingerprint} references missing archival \
                     container {container}"
                )
            }
            FindingKind::ArchivalChunkMissing {
                version,
                fingerprint,
                container,
            } => {
                write!(
                    f,
                    "recipe V{version} chunk {fingerprint} not held by archival \
                     container {container}"
                )
            }
            FindingKind::ActiveChunkMissingFromPool {
                version,
                fingerprint,
            } => {
                write!(
                    f,
                    "recipe V{version} chunk {fingerprint} marked active but absent \
                     from the pool"
                )
            }
            FindingKind::MissingChainTarget {
                version,
                fingerprint,
                target,
            } => {
                write!(
                    f,
                    "recipe V{version} chunk {fingerprint} chains to V{target}, which \
                     has no recipe"
                )
            }
            FindingKind::ChainBrokenAt {
                version,
                fingerprint,
                at,
            } => {
                write!(
                    f,
                    "recipe V{version} chunk {fingerprint} chain broke at V{at} (chunk \
                     not in that recipe)"
                )
            }
            FindingKind::ChainNotVersionOrdered {
                version,
                fingerprint,
                from,
                to,
            } => {
                write!(
                    f,
                    "recipe V{version} chunk {fingerprint} chain hop V{from} -> V{to} \
                     is not forward"
                )
            }
            FindingKind::ChainCycle {
                version,
                fingerprint,
            } => {
                write!(f, "recipe V{version} chunk {fingerprint} chain is cyclic")
            }
            FindingKind::StaleCacheEntry {
                fingerprint,
                cached_cid,
            } => {
                write!(
                    f,
                    "cache entry {fingerprint} -> active container {cached_cid} \
                     disagrees with the pool"
                )
            }
            FindingKind::OrphanUntagged {
                container,
                fingerprint,
            } => {
                write!(
                    f,
                    "orphan chunk {fingerprint} in untagged container {container} can \
                     never be reclaimed"
                )
            }
            FindingKind::QuarantinedArtifact { artifact, reason } => {
                write!(f, "{artifact} was quarantined at open: {reason}")
            }
            FindingKind::QuarantinedRef {
                version,
                fingerprint,
                artifact,
            } => {
                write!(
                    f,
                    "recipe V{version} chunk {fingerprint} resolves into quarantined \
                     {artifact}; restoring V{version} reports a partial-restore error"
                )
            }
            FindingKind::PendingJournal { detail } => {
                write!(f, "interrupted save transaction in staging/: {detail}")
            }
            FindingKind::TreeManifestCorrupt { version, detail } => {
                write!(f, "V{version} tree manifest is corrupt: {detail}")
            }
            FindingKind::DanglingTreeRef {
                version,
                apath,
                offset,
                size,
            } => {
                write!(
                    f,
                    "V{version} tree entry {apath} claims content bytes \
                     {offset}..{} beyond the stream's content region",
                    offset + size
                )
            }
        }
    }
}

/// What [`SystemAuditor`] should check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AuditOptions {
    /// Re-hash every chunk payload against its fingerprint. On by default;
    /// turn off for trace-driven repositories, whose synthetic chunk bodies
    /// intentionally do not hash back to their fingerprints.
    pub verify_content: bool,
}

impl Default for AuditOptions {
    fn default() -> Self {
        AuditOptions {
            verify_content: true,
        }
    }
}

/// The outcome of one audit pass: every finding plus coverage counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AuditReport {
    /// All violations found, in discovery order.
    pub findings: Vec<Finding>,
    /// Containers inspected (archival + pool).
    pub containers_checked: u64,
    /// Chunk payloads re-hashed.
    pub chunks_checked: u64,
    /// Recipes walked.
    pub recipes_checked: u64,
    /// Recipe entries resolved.
    pub entries_checked: u64,
    /// Archival chunks referenced by no recipe (tolerated in tagged
    /// containers; see [`FindingKind::OrphanUntagged`]).
    pub orphan_chunks: u64,
    /// Total bytes of those orphan chunks.
    pub orphan_bytes: u64,
    /// Tree-backup manifests decoded and range-checked (versions carrying
    /// the tree-stream magic).
    pub tree_manifests_checked: u64,
}

impl AuditReport {
    /// True when no findings were recorded (of any severity).
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Number of findings at the given severity.
    pub fn count(&self, severity: Severity) -> usize {
        self.findings
            .iter()
            .filter(|f| f.severity == severity)
            .count()
    }

    /// The worst severity present, or `None` when clean.
    pub fn max_severity(&self) -> Option<Severity> {
        self.findings.iter().map(|f| f.severity).max()
    }

    fn push(&mut self, severity: Severity, kind: FindingKind) {
        self.findings.push(Finding { severity, kind });
    }
}

impl fmt::Display for AuditReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "checked {} containers, {} chunks, {} recipes ({} entries); \
             {} orphan chunks ({} bytes)",
            self.containers_checked,
            self.chunks_checked,
            self.recipes_checked,
            self.entries_checked,
            self.orphan_chunks,
            self.orphan_bytes
        )?;
        if self.findings.is_empty() {
            write!(f, "clean: all invariants hold")
        } else {
            write!(
                f,
                "{} finding(s): {} error(s), {} warning(s)",
                self.findings.len(),
                self.count(Severity::Error),
                self.count(Severity::Warning)
            )
        }
    }
}

/// Walks a HiDeStore instance and verifies every cross-layer invariant,
/// reporting violations as typed [`Finding`]s instead of panicking.
#[derive(Debug, Clone, Default)]
pub struct SystemAuditor {
    options: AuditOptions,
}

impl SystemAuditor {
    /// An auditor with default options (content verification on).
    pub fn new() -> Self {
        SystemAuditor::default()
    }

    /// An auditor with explicit options.
    pub fn with_options(options: AuditOptions) -> Self {
        SystemAuditor { options }
    }

    /// Audits a whole system (the usual entry point).
    pub fn audit<S: ContainerStore>(&self, system: &HiDeStore<S>) -> AuditReport {
        let (recipes, pool, archival) = (system.recipes(), system.pool(), system.archival());
        let next_version = system.next_version();
        let mut report = AuditReport::default();

        // Phase 0 — quarantine ledger: everything degraded-mode recovery
        // moved aside at open is surfaced as a warning, and indexed so the
        // recipe walk can distinguish "resolves into quarantine" (contained,
        // warning) from fresh integrity damage (error).
        let mut quarantine = QuarantineIndex::default();
        for entry in system.quarantine() {
            report.push(
                Severity::Warning,
                FindingKind::QuarantinedArtifact {
                    artifact: entry.artifact.to_string(),
                    reason: entry.reason.clone(),
                },
            );
            match &entry.artifact {
                CoreArtifact::ArchivalContainer(id) => {
                    quarantine.archival.insert(id.get());
                }
                CoreArtifact::ActiveContainer(_) => quarantine.active = true,
                CoreArtifact::Recipe(v) => {
                    quarantine.recipes.insert(v.get());
                }
                CoreArtifact::Unrecognized(_) => {}
            }
        }

        // Phase 1 — archival sweep: readability, ID space, structure,
        // content. Record each container's contents for the reference and
        // orphan phases.
        let mut archival_fps: HashMap<u32, HashMap<Fingerprint, u32>> = HashMap::new();
        let mut archival_tags: HashMap<u32, u32> = HashMap::new();
        let mut unreadable: HashSet<u32> = HashSet::new();
        for id in archival.ids() {
            let raw = id.get();
            let container = match archival.read(id) {
                Ok(c) => c,
                Err(e) => {
                    unreadable.insert(raw);
                    report.push(
                        Severity::Error,
                        FindingKind::UnreadableContainer {
                            id: raw,
                            detail: e.to_string(),
                        },
                    );
                    continue;
                }
            };
            report.containers_checked += 1;
            if raw >= ACTIVE_ID_BASE {
                report.push(
                    Severity::Error,
                    FindingKind::IdSpaceViolation {
                        id: raw,
                        archival: true,
                    },
                );
            }
            if container.version_tag() >= next_version && container.version_tag() != 0 {
                report.push(
                    Severity::Warning,
                    FindingKind::FutureVersionTag {
                        container: raw,
                        tag: container.version_tag(),
                        next_version,
                    },
                );
            }
            self.check_container(&container, raw, &mut report);
            archival_tags.insert(raw, container.version_tag());
            archival_fps.insert(
                raw,
                container
                    .entry_locations()
                    .map(|(fp, _, len)| (fp, len))
                    .collect(),
            );
        }

        // Phase 2 — active pool sweep: each pooled container must carry the
        // ACTIVE_ID_BASE-offset ID of its pool slot, and pass the same
        // structure/content checks.
        for (cid, container) in pool.containers() {
            report.containers_checked += 1;
            let raw = container.id().get();
            if raw != ACTIVE_ID_BASE.wrapping_add(cid) {
                report.push(
                    Severity::Error,
                    FindingKind::IdSpaceViolation {
                        id: raw,
                        archival: false,
                    },
                );
            }
            self.check_container(container, raw, &mut report);
        }

        // Phase 3 — recipe walk: every entry must resolve through the chain
        // to a real physical location, with forward-only, acyclic hops.
        // Terminal archival locations feed the orphan accounting.
        let mut referenced: HashSet<(u32, Fingerprint)> = HashSet::new();
        let mut chain_maps: HashMap<u32, HashMap<Fingerprint, Cid>> = HashMap::new();
        for v in recipes.versions() {
            let Some(recipe) = recipes.get(v) else {
                continue;
            };
            report.recipes_checked += 1;
            for entry in recipe.entries() {
                report.entries_checked += 1;
                walk_entry(
                    recipes,
                    pool,
                    v.get(),
                    entry.fingerprint,
                    entry.cid,
                    &archival_fps,
                    &unreadable,
                    &quarantine,
                    &mut chain_maps,
                    &mut referenced,
                    &mut report,
                );
            }
        }

        // Phase 4 — orphan accounting: archival chunks referenced by no
        // recipe. Tolerated (counted) in tagged containers, which tag-ranged
        // deletion eventually drops; a finding in untagged ones.
        for (&container, fps) in &archival_fps {
            let tag = archival_tags.get(&container).copied().unwrap_or(0);
            for (&fp, &len) in fps {
                if referenced.contains(&(container, fp)) {
                    continue;
                }
                report.orphan_chunks += 1;
                report.orphan_bytes += len as u64;
                if tag == 0 {
                    report.push(
                        Severity::Warning,
                        FindingKind::OrphanUntagged {
                            container,
                            fingerprint: fp,
                        },
                    );
                }
            }
        }

        // Phase 5 — cache/pool agreement: every cached entry must point at
        // the pool container actually holding the chunk.
        for (_table, fp, entry) in system.fingerprint_cache().entries() {
            match pool.locate(&fp) {
                Some(cid) if cid == entry.active_cid => {}
                _ => {
                    report.push(
                        Severity::Warning,
                        FindingKind::StaleCacheEntry {
                            fingerprint: fp,
                            cached_cid: entry.active_cid,
                        },
                    );
                }
            }
        }

        // Phase 6 — tree streams: a version whose stream opens with the
        // tree-backup magic must decode to a valid manifest, and every file
        // entry's content range must lie inside the stream — a dangling
        // range means that file is unrestorable even though every chunk is
        // intact. Versions whose plans fail to resolve were already
        // reported by phase 3 and are skipped here.
        let mut tree_containers: HashMap<u32, Arc<Container>> = HashMap::new();
        for v in recipes.versions() {
            let Ok(plan) = resolve_plan(recipes, pool, v) else {
                continue;
            };
            audit_tree_stream(
                v.get(),
                &plan,
                pool,
                archival,
                &mut tree_containers,
                &mut report,
            );
        }

        report
    }

    /// Structural + content checks for one container (either side).
    fn check_container(&self, container: &Container, raw_id: u32, report: &mut AuditReport) {
        let data_len = container.used_bytes() as u64;
        let mut spans: Vec<(u32, u32, Fingerprint)> = Vec::with_capacity(container.chunk_count());
        let mut live_sum = 0u64;
        for (fp, off, len) in container.entry_locations() {
            if off as u64 + len as u64 > data_len {
                report.push(
                    Severity::Error,
                    FindingKind::EntryOutOfBounds {
                        container: raw_id,
                        fingerprint: fp,
                        offset: off,
                        length: len,
                        data_len,
                    },
                );
                continue;
            }
            live_sum += len as u64;
            spans.push((off, len, fp));
        }
        spans.sort_unstable_by_key(|&(off, len, _)| (off, len));
        for pair in spans.windows(2) {
            let (a_off, a_len, a_fp) = pair[0];
            let (b_off, _, b_fp) = pair[1];
            if a_off as u64 + a_len as u64 > b_off as u64 {
                report.push(
                    Severity::Error,
                    FindingKind::EntryOverlap {
                        container: raw_id,
                        a: a_fp,
                        b: b_fp,
                    },
                );
            }
        }
        if live_sum != container.live_bytes() as u64 {
            report.push(
                Severity::Error,
                FindingKind::AccountingMismatch {
                    container: raw_id,
                    recorded: container.live_bytes() as u64,
                    computed: live_sum,
                },
            );
        }
        if self.options.verify_content {
            for (fp, data) in container.iter() {
                report.chunks_checked += 1;
                if Fingerprint::of(data) != fp {
                    report.push(
                        Severity::Error,
                        FindingKind::ChunkHashMismatch {
                            container: raw_id,
                            fingerprint: fp,
                        },
                    );
                }
            }
        }
    }
}

/// What degraded-mode recovery quarantined at open, indexed so the recipe
/// walk can classify resolution failures that land in quarantine as
/// contained (warning) rather than fresh damage (error).
#[derive(Debug, Default)]
struct QuarantineIndex {
    /// Quarantined archival container IDs.
    archival: HashSet<u32>,
    /// Whether any active-pool snapshot was quarantined (the pool then
    /// legitimately lacks the chunks that lived in it).
    active: bool,
    /// Versions whose recipes were quarantined.
    recipes: HashSet<u32>,
}

/// Resolves one recipe entry through the chain, reporting every violation on
/// the way. Terminal archival locations are recorded in `referenced` for the
/// orphan-accounting phase.
#[allow(clippy::too_many_arguments)]
fn walk_entry(
    recipes: &RecipeStore,
    pool: &ActivePool,
    version: u32,
    fp: Fingerprint,
    start: Cid,
    archival_fps: &HashMap<u32, HashMap<Fingerprint, u32>>,
    unreadable: &HashSet<u32>,
    quarantine: &QuarantineIndex,
    chain_maps: &mut HashMap<u32, HashMap<Fingerprint, Cid>>,
    referenced: &mut HashSet<(u32, Fingerprint)>,
    report: &mut AuditReport,
) {
    let mut visited: HashSet<u32> = HashSet::new();
    visited.insert(version);
    let mut at = version;
    let mut cid = start;
    loop {
        if let Some(archival) = cid.as_archival() {
            let c = archival.get();
            match archival_fps.get(&c) {
                Some(fps) if fps.contains_key(&fp) => {
                    referenced.insert((c, fp));
                }
                Some(_) => {
                    report.push(
                        Severity::Error,
                        FindingKind::ArchivalChunkMissing {
                            version,
                            fingerprint: fp,
                            container: c,
                        },
                    );
                }
                // An unreadable container's damage is already reported once;
                // don't cascade a dangling-reference finding per entry.
                None if unreadable.contains(&c) => {}
                // The container is in quarantine: the reference is expected
                // to dangle, and restore reports it as a partial-restore
                // dependency — contained, so a warning.
                None if quarantine.archival.contains(&c) => {
                    report.push(
                        Severity::Warning,
                        FindingKind::QuarantinedRef {
                            version,
                            fingerprint: fp,
                            artifact: format!("archival container {c}"),
                        },
                    );
                }
                None => {
                    report.push(
                        Severity::Error,
                        FindingKind::DanglingArchivalRef {
                            version,
                            fingerprint: fp,
                            container: c,
                        },
                    );
                }
            }
            return;
        }
        if cid.is_active() {
            if pool.locate(&fp).is_none() {
                if quarantine.active {
                    // A quarantined pool snapshot took its chunks with it.
                    report.push(
                        Severity::Warning,
                        FindingKind::QuarantinedRef {
                            version,
                            fingerprint: fp,
                            artifact: "a quarantined active-pool snapshot".to_string(),
                        },
                    );
                } else {
                    report.push(
                        Severity::Error,
                        FindingKind::ActiveChunkMissingFromPool {
                            version,
                            fingerprint: fp,
                        },
                    );
                }
            }
            return;
        }
        let Some(target) = cid.as_chained() else {
            return;
        };
        let w = target.get();
        if w <= at {
            report.push(
                Severity::Error,
                FindingKind::ChainNotVersionOrdered {
                    version,
                    fingerprint: fp,
                    from: at,
                    to: w,
                },
            );
        }
        if !visited.insert(w) {
            report.push(
                Severity::Error,
                FindingKind::ChainCycle {
                    version,
                    fingerprint: fp,
                },
            );
            return;
        }
        if let std::collections::hash_map::Entry::Vacant(slot) = chain_maps.entry(w) {
            match recipes.get(target) {
                Some(r) => {
                    slot.insert(r.entries().iter().map(|e| (e.fingerprint, e.cid)).collect());
                }
                // Chain target sits in quarantine: expected to be missing.
                None if quarantine.recipes.contains(&w) => {
                    report.push(
                        Severity::Warning,
                        FindingKind::QuarantinedRef {
                            version,
                            fingerprint: fp,
                            artifact: format!("recipe of version {w}"),
                        },
                    );
                    return;
                }
                None => {
                    report.push(
                        Severity::Error,
                        FindingKind::MissingChainTarget {
                            version,
                            fingerprint: fp,
                            target: w,
                        },
                    );
                    return;
                }
            }
        }
        let Some(&next) = chain_maps.get(&w).and_then(|m| m.get(&fp)) else {
            report.push(
                Severity::Error,
                FindingKind::ChainBrokenAt {
                    version,
                    fingerprint: fp,
                    at: w,
                },
            );
            return;
        };
        at = w;
        cid = next;
    }
}

/// Audits one version's stream as a possible tree backup: decodes the
/// manifest if the tree magic is present, and range-checks every file
/// entry against the content region. Fetches only the containers that
/// cover the header and manifest (reusing them across versions through
/// `containers`), never the whole stream.
fn audit_tree_stream<S: ContainerStore>(
    version: u32,
    plan: &[(Fingerprint, u32, ContainerId)],
    pool: &ActivePool,
    archival: &S,
    containers: &mut HashMap<u32, Arc<Container>>,
    report: &mut AuditReport,
) {
    let mut offsets: Vec<u64> = Vec::with_capacity(plan.len() + 1);
    let mut total = 0u64;
    offsets.push(0);
    for &(_, size, _) in plan {
        total += size as u64;
        offsets.push(total);
    }
    if total < STREAM_HEADER_LEN {
        return;
    }
    let corrupt = |detail: String| Finding {
        severity: Severity::Error,
        kind: FindingKind::TreeManifestCorrupt { version, detail },
    };
    let header = match fetch_stream_range(
        plan,
        &offsets,
        pool,
        archival,
        containers,
        0,
        STREAM_HEADER_LEN,
    ) {
        Ok(h) => h,
        // Unresolvable chunks were already reported by earlier phases.
        Err(_) => return,
    };
    if !is_tree_stream(&header) {
        return;
    }
    report.tree_manifests_checked += 1;
    let manifest_len = match decode_stream_header(&header) {
        Ok(len) => len as u64,
        Err(e) => {
            report.findings.push(corrupt(e.to_string()));
            return;
        }
    };
    if STREAM_HEADER_LEN + manifest_len > total {
        report.findings.push(corrupt(format!(
            "manifest length {manifest_len} exceeds stream of {total} bytes"
        )));
        return;
    }
    let bytes = match fetch_stream_range(
        plan,
        &offsets,
        pool,
        archival,
        containers,
        STREAM_HEADER_LEN,
        manifest_len,
    ) {
        Ok(b) => b,
        Err(e) => {
            report.findings.push(corrupt(e));
            return;
        }
    };
    let manifest = match TreeManifest::decode(&bytes) {
        Ok(m) => m,
        Err(e) => {
            report.findings.push(corrupt(e.to_string()));
            return;
        }
    };
    let content_len = total - STREAM_HEADER_LEN - manifest_len;
    for entry in &manifest.entries {
        if let EntryPayload::File { offset, size } = entry.payload {
            if offset + size > content_len {
                report.push(
                    Severity::Error,
                    FindingKind::DanglingTreeRef {
                        version,
                        apath: entry.apath.clone(),
                        offset,
                        size,
                    },
                );
            }
        }
    }
}

/// Reassembles stream bytes `[start, start + len)` from the chunks of a
/// resolved plan, reading archival containers at most once each.
fn fetch_stream_range<S: ContainerStore>(
    plan: &[(Fingerprint, u32, ContainerId)],
    offsets: &[u64],
    pool: &ActivePool,
    archival: &S,
    containers: &mut HashMap<u32, Arc<Container>>,
    start: u64,
    len: u64,
) -> Result<Vec<u8>, String> {
    let mut out = Vec::with_capacity(len as usize);
    let end = start + len;
    let first = offsets.partition_point(|&o| o <= start) - 1;
    for (i, &(fp, _, container)) in plan.iter().enumerate().skip(first) {
        if offsets[i] >= end {
            break;
        }
        let raw = container.get();
        let chunk: &[u8] = if raw >= ACTIVE_ID_BASE {
            pool.get(&fp)
                .ok_or_else(|| format!("chunk {fp} missing from the active pool"))?
        } else {
            if let std::collections::hash_map::Entry::Vacant(slot) = containers.entry(raw) {
                let c = archival
                    .read(container)
                    .map_err(|e| format!("container {raw} unreadable: {e}"))?;
                slot.insert(c);
            }
            containers
                .get(&raw)
                .and_then(|c| c.get(&fp))
                .ok_or_else(|| format!("chunk {fp} missing from container {raw}"))?
        };
        let chunk_start = offsets[i];
        let lo = start.saturating_sub(chunk_start).min(chunk.len() as u64) as usize;
        let hi = (end - chunk_start).min(chunk.len() as u64) as usize;
        out.extend_from_slice(&chunk[lo..hi]);
    }
    if out.len() as u64 != len {
        return Err(format!(
            "stream range fetch returned {} of {len} bytes",
            out.len()
        ));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hidestore_core::HiDeStoreConfig;
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

    fn system() -> HiDeStore<MemoryContainerStore> {
        HiDeStore::new(
            HiDeStoreConfig::small_for_tests(),
            MemoryContainerStore::new(),
        )
    }

    #[test]
    fn fresh_system_is_clean() {
        let hds = system();
        let report = SystemAuditor::new().audit(&hds);
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.containers_checked, 0);
    }

    #[test]
    fn multi_version_lifecycle_is_clean() {
        let mut hds = system();
        let mut data = noise(120_000, 1);
        for round in 0..6u64 {
            hds.backup(&data).unwrap();
            let start = (round as usize * 17_000) % 100_000;
            let patch = noise(8_000, 100 + round);
            data[start..start + patch.len()].copy_from_slice(&patch);
        }
        let report = SystemAuditor::new().audit(&hds);
        assert!(report.is_clean(), "{report}");
        assert!(report.containers_checked > 0);
        assert!(report.chunks_checked > 0);
        assert_eq!(report.recipes_checked, 6);
    }

    #[test]
    fn clean_after_flatten_and_delete() {
        let mut hds = system();
        let mut data = noise(120_000, 2);
        for round in 0..6u64 {
            hds.backup(&data).unwrap();
            let start = (round as usize * 13_000) % 100_000;
            let patch = noise(9_000, 200 + round);
            data[start..start + patch.len()].copy_from_slice(&patch);
        }
        hds.flatten_recipes();
        hds.delete_expired(VersionId::new(2)).unwrap();
        let report = SystemAuditor::new().audit(&hds);
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn trace_mode_audits_clean_without_content_verification() {
        let mut hds = system();
        let trace: Vec<(Fingerprint, u32)> = (0..500u64)
            .map(|i| (Fingerprint::synthetic(i), 2048))
            .collect();
        hds.backup_trace(&trace).unwrap();
        let mut churned = trace[50..].to_vec();
        churned.extend((1000..1050u64).map(|i| (Fingerprint::synthetic(i), 2048)));
        hds.backup_trace(&churned).unwrap();
        let report = SystemAuditor::with_options(AuditOptions {
            verify_content: false,
        })
        .audit(&hds);
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.chunks_checked, 0, "content verification was off");
        // With verification on, synthetic filler necessarily fails re-hash.
        let verified = SystemAuditor::new().audit(&hds);
        assert!(!verified.is_clean());
        assert!(verified
            .findings
            .iter()
            .all(|f| matches!(f.kind, FindingKind::ChunkHashMismatch { .. })));
    }

    #[test]
    fn tree_backup_audits_clean_and_is_counted() {
        use hidestore_tree::manifest::{ManifestEntry, TreeManifest};

        let mut hds = system();
        // An ordinary (non-tree) version is not counted as a tree manifest.
        hds.backup(&noise(60_000, 3)).unwrap();
        // A well-formed tree stream: root dir + one file covering the
        // content region exactly.
        let contents = noise(50_000, 4);
        let manifest = TreeManifest {
            entries: vec![
                ManifestEntry {
                    apath: "/".to_string(),
                    mode: 0o755,
                    mtime_secs: 1,
                    mtime_nanos: 0,
                    payload: EntryPayload::Dir,
                },
                ManifestEntry {
                    apath: "/data".to_string(),
                    mode: 0o644,
                    mtime_secs: 2,
                    mtime_nanos: 0,
                    payload: EntryPayload::File {
                        offset: 0,
                        size: contents.len() as u64,
                    },
                },
            ],
        };
        hds.backup(&manifest.encode_stream(&contents)).unwrap();
        let report = SystemAuditor::new().audit(&hds);
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.tree_manifests_checked, 1);
    }

    #[test]
    fn dangling_tree_ref_and_corrupt_manifest_are_findings() {
        use hidestore_tree::manifest::{ManifestEntry, TreeManifest, STREAM_MAGIC};

        let mut hds = system();
        // V1: a manifest whose file extent overruns the content region.
        let contents = noise(30_000, 5);
        let manifest = TreeManifest {
            entries: vec![
                ManifestEntry {
                    apath: "/".to_string(),
                    mode: 0o755,
                    mtime_secs: 1,
                    mtime_nanos: 0,
                    payload: EntryPayload::Dir,
                },
                ManifestEntry {
                    apath: "/overrun".to_string(),
                    mode: 0o644,
                    mtime_secs: 2,
                    mtime_nanos: 0,
                    payload: EntryPayload::File {
                        offset: 0,
                        size: contents.len() as u64 + 999,
                    },
                },
            ],
        };
        hds.backup(&manifest.encode_stream(&contents)).unwrap();
        // V2: tree magic followed by an undecodable manifest.
        let mut bogus = Vec::new();
        bogus.extend_from_slice(&STREAM_MAGIC);
        bogus.extend_from_slice(&64u32.to_le_bytes());
        bogus.extend_from_slice(&noise(40_000, 6));
        hds.backup(&bogus).unwrap();

        let report = SystemAuditor::new().audit(&hds);
        assert_eq!(report.tree_manifests_checked, 2);
        assert!(report.findings.iter().any(|f| matches!(
            &f.kind,
            FindingKind::DanglingTreeRef { version: 1, apath, .. } if apath == "/overrun"
        )));
        assert!(report
            .findings
            .iter()
            .any(|f| matches!(&f.kind, FindingKind::TreeManifestCorrupt { version: 2, .. })));
        assert_eq!(report.max_severity(), Some(Severity::Error));
    }

    #[test]
    fn report_severity_helpers() {
        let mut report = AuditReport::default();
        assert_eq!(report.max_severity(), None);
        report.push(
            Severity::Warning,
            FindingKind::StaleCacheEntry {
                fingerprint: Fingerprint::synthetic(1),
                cached_cid: 1,
            },
        );
        assert_eq!(report.max_severity(), Some(Severity::Warning));
        report.push(
            Severity::Error,
            FindingKind::ChainCycle {
                version: 1,
                fingerprint: Fingerprint::synthetic(2),
            },
        );
        assert_eq!(report.max_severity(), Some(Severity::Error));
        assert_eq!(report.count(Severity::Error), 1);
        assert_eq!(report.count(Severity::Warning), 1);
        assert!(Severity::Error > Severity::Warning);
    }
}
