#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Cross-layer invariant checker for HiDeStore repositories.
//!
//! HiDeStore's correctness rests on invariants that span three layers —
//! recipes, the active container pool, and the archival container store.
//! The fingerprint cache is the pool's own index, so it cannot disagree
//! with the pool:
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
//!    newer versions), are acyclic, and never dangle. Entries are walked by
//!    restore's own [`ChainWalker`], so a version fails to restore exactly
//!    when an Error finding names it.
//! 6. **Cold accounting** — archival chunks referenced by no recipe are
//!    tolerated only in version-tagged containers (the documented
//!    failed-demotion case, reclaimed by tag-ranged deletion); an orphan in
//!    an untagged container would leak forever.
//!
//! [`SystemAuditor`] walks all of it and reports each violation as a typed
//! [`Finding`] with a [`Severity`] — it never panics on corrupt input, so a
//! single audit pass enumerates *all* damage. It is the repository's one
//! integrity checker: `hidestore verify` runs it on a local repository and
//! the daemon's `Verify` verb on its open instance, and both exit 1 exactly
//! when some finding is a [`Severity::Error`].
//!
//! **Crash-recovery awareness**: repositories opened from disk may carry
//! state left by degraded-mode recovery — artifacts moved to `quarantine/`
//! ([`FindingKind::QuarantinedArtifact`]) and versions that resolve into
//! them ([`FindingKind::QuarantinedRef`], named by the function restore's
//! partial-restore error uses). A lost recipe or dependency is an error;
//! quarantined residue that no version references is a warning. `hidestore
//! verify` additionally reports an interrupted save transaction pending in
//! `staging/` ([`FindingKind::PendingJournal`]) by scanning the directory
//! *before* opening it (opening resolves the transaction).
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

use hidestore_core::chain::{self, ChainWalker, Location, WalkError};
use hidestore_core::{HiDeStore, QuarantinedArtifact as CoreArtifact, ACTIVE_ID_BASE};
use hidestore_hash::Fingerprint;
use hidestore_storage::{Container, ContainerStore};
use hidestore_tree::{read_manifest, EntryPayload, TreeError};

/// How bad a [`Finding`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Suspicious or wasteful, but every retained version still restores
    /// correctly (e.g. a leaked orphan chunk).
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
    /// uncommitted save). A quarantined recipe is an error: its version is
    /// gone. Any other artifact is a warning by itself; the versions that
    /// depend on it are reported as [`FindingKind::QuarantinedRef`].
    QuarantinedArtifact {
        /// What was quarantined.
        artifact: CoreArtifact,
        /// Why recovery pulled it.
        reason: String,
    },
    /// A version resolves into a quarantined artifact, so restoring it fails
    /// with a typed partial-restore error naming its lost dependencies.
    /// Reported once per version and artifact.
    QuarantinedRef {
        /// The version that no longer restores.
        version: u32,
        /// The quarantined artifact it depends on.
        artifact: CoreArtifact,
    },
    /// An interrupted save transaction is pending in `staging/`. Reported by
    /// `hidestore verify`, which scans before it opens the repository;
    /// opening resolves it (roll forward if the commit record is valid, roll
    /// back otherwise).
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
        write!(f, "{}: {}", self.severity, self.kind)
    }
}

impl fmt::Display for FindingKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
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
            FindingKind::QuarantinedRef { version, artifact } => {
                write!(
                    f,
                    "V{version} depends on quarantined {artifact}; restoring V{version} \
                     reports a partial-restore error"
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
pub struct SystemAuditor;

impl SystemAuditor {
    /// An auditor. Every audit re-hashes every chunk payload.
    pub fn new() -> Self {
        SystemAuditor
    }

    /// Audits a whole system (the usual entry point).
    pub fn audit<S: ContainerStore>(&self, system: &HiDeStore<S>) -> AuditReport {
        let (recipes, pool, archival) = (system.recipes(), system.pool(), system.archival());
        let next_version = system.next_version();
        let mut report = AuditReport::default();

        // Phase 0 — quarantine ledger: everything degraded-mode recovery
        // moved aside at open is surfaced. A lost recipe is a lost version;
        // the versions that resolve into any other artifact are reported by
        // the recipe walk.
        for entry in system.quarantine() {
            let severity = match entry.artifact {
                CoreArtifact::Recipe(_) => Severity::Error,
                _ => Severity::Warning,
            };
            report.push(
                severity,
                FindingKind::QuarantinedArtifact {
                    artifact: entry.artifact.clone(),
                    reason: entry.reason.clone(),
                },
            );
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
        // restore follows to a real physical location, with forward-only,
        // acyclic hops. A walk that ends in quarantine names the version's
        // lost dependency instead of the hole it leaves, once per (version,
        // artifact): one lost container must not cascade into a finding per
        // entry. Terminal archival locations feed the orphan accounting.
        let mut referenced: HashSet<(u32, Fingerprint)> = HashSet::new();
        let mut lost_refs: HashSet<(u32, CoreArtifact)> = HashSet::new();
        let mut walker = ChainWalker::new(recipes, pool);
        for recipe in recipes.iter() {
            report.recipes_checked += 1;
            let version = recipe.version().get();
            for entry in recipe.entries() {
                report.entries_checked += 1;
                let fingerprint = entry.fingerprint;
                let end = walker.walk(recipe.version(), entry);
                for &(from, to) in walker.backward_hops() {
                    report.push(
                        Severity::Error,
                        FindingKind::ChainNotVersionOrdered {
                            version,
                            fingerprint,
                            from: from.get(),
                            to: to.get(),
                        },
                    );
                }
                let kind = match end {
                    Ok(Location::Pool(_)) => continue,
                    Ok(Location::Archival(id)) => {
                        let container = id.get();
                        match archival_fps.get(&container) {
                            Some(fps) if fps.contains_key(&fingerprint) => {
                                referenced.insert((container, fingerprint));
                                continue;
                            }
                            Some(_) => FindingKind::ArchivalChunkMissing {
                                version,
                                fingerprint,
                                container,
                            },
                            // An unreadable container's damage is already
                            // reported once.
                            None if unreadable.contains(&container) => continue,
                            None => FindingKind::DanglingArchivalRef {
                                version,
                                fingerprint,
                                container,
                            },
                        }
                    }
                    Err(WalkError::NotInPool) => FindingKind::ActiveChunkMissingFromPool {
                        version,
                        fingerprint,
                    },
                    Err(WalkError::MissingRecipe(target)) => FindingKind::MissingChainTarget {
                        version,
                        fingerprint,
                        target: target.get(),
                    },
                    Err(WalkError::BrokenAt(at)) => FindingKind::ChainBrokenAt {
                        version,
                        fingerprint,
                        at: at.get(),
                    },
                    Err(WalkError::Cycle(_)) => FindingKind::ChainCycle {
                        version,
                        fingerprint,
                    },
                };
                match chain::quarantined_cause(system.quarantine(), &end) {
                    Some(artifact) => {
                        if lost_refs.insert((version, artifact.clone())) {
                            report.push(
                                Severity::Error,
                                FindingKind::QuarantinedRef { version, artifact },
                            );
                        }
                    }
                    None => report.push(Severity::Error, kind),
                }
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

        // Phase 5 — tree streams: a version whose stream opens with the
        // tree-backup magic must decode to a valid manifest, and every file
        // entry's content range must lie inside the stream — a dangling
        // range means that file is unrestorable even though every chunk is
        // intact. Only the containers under the header and manifest are
        // read. Versions that do not resolve, or whose framing chunks
        // cannot be read, were already reported by phases 2 and 3.
        for v in recipes.versions() {
            let Ok(stream) = system.resolve(v) else {
                continue;
            };
            let version = v.get();
            match read_manifest(&stream) {
                Ok(tree) => {
                    report.tree_manifests_checked += 1;
                    let content_len = tree.contents.end - tree.contents.start;
                    for entry in tree.manifest.entries {
                        if let EntryPayload::File { offset, size } = entry.payload {
                            if offset + size > content_len {
                                report.push(
                                    Severity::Error,
                                    FindingKind::DanglingTreeRef {
                                        version,
                                        apath: entry.apath,
                                        offset,
                                        size,
                                    },
                                );
                            }
                        }
                    }
                }
                Err(TreeError::Corrupt(detail)) => {
                    report.tree_manifests_checked += 1;
                    report.push(
                        Severity::Error,
                        FindingKind::TreeManifestCorrupt { version, detail },
                    );
                }
                Err(_) => {}
            }
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
        use hidestore_failpoint::RealVfs;
        use hidestore_tree::manifest::{ManifestEntry, TreeManifest, STREAM_MAGIC};
        use hidestore_tree::{restore_tree, TreeRestoreOptions};

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
        let framed = |manifest_len: u32, rest: Vec<u8>| {
            let mut stream = STREAM_MAGIC.to_vec();
            stream.extend_from_slice(&manifest_len.to_le_bytes());
            stream.extend(rest);
            stream
        };
        // V2: tree magic followed by an undecodable manifest.
        hds.backup(&framed(64, noise(40_000, 6))).unwrap();
        // V3: the magic and half a manifest length — a header cut short.
        hds.backup(&framed(64, Vec::new())[..6]).unwrap();
        // V4: a manifest length past the end of the stream.
        hds.backup(&framed(1 << 20, noise(20_000, 7))).unwrap();

        let report = SystemAuditor::new().audit(&hds);
        assert_eq!(report.tree_manifests_checked, 3);
        assert!(report.findings.iter().any(|f| matches!(
            &f.kind,
            FindingKind::DanglingTreeRef { version: 1, apath, .. } if apath == "/overrun"
        )));
        // V3 is too short to carry a header: not a tree backup, so it is
        // neither counted nor a finding.
        let corrupt: Vec<u32> = report
            .findings
            .iter()
            .filter_map(|f| match f.kind {
                FindingKind::TreeManifestCorrupt { version, .. } => Some(version),
                _ => None,
            })
            .collect();
        assert_eq!(corrupt, [2, 4], "{report}");
        assert_eq!(report.max_severity(), Some(Severity::Error));

        // The restore refuses the same streams with the matching errors.
        let dest = std::env::temp_dir().join(format!("hds-fsck-tree-{}", std::process::id()));
        let restore = |v: u32| {
            restore_tree(
                &hds,
                &RealVfs,
                VersionId::new(v),
                &dest,
                &TreeRestoreOptions::default(),
            )
        };
        assert!(matches!(restore(2), Err(TreeError::Corrupt(_))));
        assert!(matches!(restore(3), Err(TreeError::NotATreeBackup(v)) if v.get() == 3));
        let past_end = restore(4);
        assert!(
            matches!(&past_end, Err(TreeError::Corrupt(d)) if d.contains("exceeds stream")),
            "{past_end:?}"
        );
        assert!(!dest.exists(), "a refused restore creates no destination");
    }

    #[test]
    fn report_severity_helpers() {
        let mut report = AuditReport::default();
        assert_eq!(report.max_severity(), None);
        report.push(
            Severity::Warning,
            FindingKind::OrphanUntagged {
                container: 1,
                fingerprint: Fingerprint::synthetic(1),
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
