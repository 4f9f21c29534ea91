//! Repository persistence: save a HiDeStore instance's state to a directory
//! and reopen it later — the restart story of a real backup appliance.
//!
//! Layout under the repository root:
//!
//! ```text
//! repo/
//!   archival/      container files (managed by FileContainerStore)
//!   active/        active-pool containers, same binary format
//!   recipes/       r<version>.rcp files
//!   staging/       in-flight save transaction (absent when quiescent)
//!   quarantine/    artifacts moved aside by degraded-mode recovery
//!   hidestore.meta counters, history depth and the active files' dead
//!                  entries, CRC-guarded
//! ```
//!
//! Saves are **transactional** (see [`crate::journal`]): every file of a save
//! is staged, fsynced, and published under a checksummed commit record, so a
//! crash at any point leaves the repository openable in either the pre-save
//! or the post-save state — never a mix. Saves cost **what changed**: the
//! recipe store marks every recipe it changes, adds or drops, and the active
//! pool every container chunks were placed into or that it dropped, so a
//! save stages only the marked files and the meta and removes only the
//! dropped ones, listing no directory. An active container that only lost
//! chunks keeps its file: the meta lists the file's dead entries (those the
//! pool removed since the file was written), and the open drops them and
//! compacts the container in memory, so the reopened pool equals the one
//! that saved. A kept file holds at most (1 − `compact_threshold`) ×
//! capacity dead bytes; past that it is written afresh. The open, which
//! lists `recipes/` and `active/` anyway, records the artifact files that
//! hold nothing under their own name; the first save removes them and
//! rewrites what was loaded from them under its own name.
//! Opens are **degraded-mode**:
//! unreadable or corrupt containers and recipes are moved to `quarantine/`
//! and reported (see [`OpenReport`]) instead of aborting the open; versions
//! that do not depend on quarantined artifacts restore normally, the rest
//! fail with [`HiDeStoreError::PartialRestore`] naming their lost
//! dependencies.
//!
//! The hot set's version stamps are *not* persisted: per the paper (§4.1),
//! the previous version's table `T1` is rebuilt by prefetching the newest
//! recipe(s); the active pool already holds each chunk's location.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::path::{Path, PathBuf};

use hidestore_failpoint::{RealVfs, Vfs};
use hidestore_hash::{default_hash_threads, map_ordered, Fingerprint};
use hidestore_proto::wire::{ByteReader, ByteWriter, DecodeError};
use hidestore_storage::{
    Container, ContainerId, ContainerStore, FileContainerStore, RecipeStore, RepoFile,
    StorageError, VersionId,
};

use crate::active::ActivePool;
use crate::composite::ACTIVE_ID_BASE;
use crate::config::HiDeStoreConfig;
use crate::journal::{self, CommitRecord, JournalRecovery};
use crate::system::{HiDeStore, HiDeStoreError};

const META_FILE: &str = "hidestore.meta";
/// The meta format while some kept active file has dead entries: magic,
/// three LE u32 counters, the dead-entry table (u32 file count; per kept
/// file in pool-local ID order: u32 ID, u32 entry count, the 20-byte
/// fingerprints in ascending order), then a CRC-32 over everything before
/// it. A torn or bit-flipped meta fails the CRC check and is reported as
/// corrupt instead of misparsed.
const META_MAGIC: &[u8; 4] = b"HDS3";

/// The meta format without dead entries: the magic, the three counters and
/// the CRC-32, 20 bytes in all. A repository that keeps no file with dead
/// entries stays readable by builds that know only this form, and one that
/// does is refused by them instead of reopening chunks that went cold.
const META_MAGIC_V2: &[u8; 4] = b"HDS2";

/// Below this many encoded bytes of changed recipes and active containers, a
/// save encodes its files on the calling thread: spawning a helper costs
/// more than it saves (DESIGN §8.3).
const PARALLEL_ENCODE_MIN_BYTES: usize = 512 << 10;

/// Appends the bytes of one file a save stages to a buffer.
type Encoder<'a> = Box<dyn Fn(&mut ByteWriter) + Sync + 'a>;

/// Directory quarantined artifacts are moved into.
pub(crate) const QUARANTINE_DIR: &str = "quarantine";

/// What a repository's `hidestore.meta` file holds, readable without
/// opening the full repository.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct RepositoryMeta {
    /// Next version number to assign (retained versions are below this).
    pub next_version: u32,
    /// Next archival container ID to assign.
    pub next_archival: u32,
    /// The history depth the repository was written with.
    pub history_depth: u32,
    /// Per kept active file, by pool-local ID: the entries the file lists
    /// that the pool removed since it was written (see
    /// [`ActivePool::from_containers`]).
    pub dead_entries: BTreeMap<u32, Vec<Fingerprint>>,
}

impl RepositoryMeta {
    /// Reads the meta file of the repository at `dir` through `vfs`.
    /// Returns `Ok(None)` when no meta file exists (a fresh or never-saved
    /// repository).
    ///
    /// # Errors
    ///
    /// Fails on filesystem errors or a corrupt (torn, bit-flipped, or
    /// unrecognized) meta file.
    pub fn read_with<V: Vfs>(
        dir: impl AsRef<Path>,
        vfs: &V,
    ) -> Result<Option<Self>, HiDeStoreError> {
        let meta_path = dir.as_ref().join(META_FILE);
        if !vfs.exists(&meta_path) {
            return Ok(None);
        }
        let bytes = vfs.read(&meta_path).map_err(StorageError::from)?;
        Self::decode(&bytes).map(Some).map_err(|why| {
            HiDeStoreError::Storage(StorageError::Corrupt(format!(
                "bad repository meta file: {why}"
            )))
        })
    }

    /// Parses what [`RepositoryMeta::encode`] wrote.
    fn decode(bytes: &[u8]) -> Result<Self, String> {
        let with_table = if bytes.starts_with(META_MAGIC) {
            true
        } else if bytes.starts_with(META_MAGIC_V2) {
            false
        } else {
            return Err("unrecognized magic".into());
        };
        let body = journal::unseal(bytes).ok_or("payload checksum mismatch (torn write?)")?;
        let mut r = ByteReader::new(body);
        let meta = (|| {
            r.array::<4>()?;
            let mut meta = RepositoryMeta {
                next_version: r.u32()?,
                next_archival: r.u32()?,
                history_depth: r.u32()?,
                dead_entries: BTreeMap::new(),
            };
            if with_table {
                for _ in 0..r.count_within("dead-entry files", 8)? {
                    let cid = r.u32()?;
                    let fingerprints = (0..r.count_within("dead entries", 20)?)
                        .map(|_| r.array().map(Fingerprint::from_bytes))
                        .collect::<Result<_, _>>()?;
                    meta.dead_entries.insert(cid, fingerprints);
                }
            }
            r.finish()?;
            Ok::<_, DecodeError>(meta)
        })();
        meta.map_err(|e| e.to_string())
    }

    /// Serializes in the CRC-guarded format [`RepositoryMeta::read_with`]
    /// accepts: `HDS2` without dead entries, `HDS3` with them.
    pub fn encode(&self) -> Vec<u8> {
        let entries: usize = self.dead_entries.values().map(Vec::len).sum();
        let mut w = ByteWriter::with_capacity(24 + 8 * self.dead_entries.len() + 20 * entries);
        let with_table = !self.dead_entries.is_empty();
        w.raw(if with_table {
            META_MAGIC
        } else {
            META_MAGIC_V2
        });
        w.u32(self.next_version);
        w.u32(self.next_archival);
        w.u32(self.history_depth);
        if with_table {
            w.len_u32(self.dead_entries.len());
            for (&cid, fingerprints) in &self.dead_entries {
                w.u32(cid);
                w.len_u32(fingerprints.len());
                for fp in fingerprints {
                    w.raw(fp.as_bytes());
                }
            }
        }
        journal::seal(w)
    }
}

/// A repository artifact that degraded-mode recovery moved aside because it
/// could not be read or decoded (or, for containers, was provably written
/// by a save that never committed).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum QuarantinedArtifact {
    /// An archival container file (`archival/c<id>.ctr`).
    ArchivalContainer(ContainerId),
    /// An active-pool snapshot file (`active/a<cid>.ctr`), by pool-local ID.
    ActiveContainer(u32),
    /// A recipe file (`recipes/r<version>.rcp`).
    Recipe(VersionId),
    /// A file whose name did not parse as any known artifact.
    Unrecognized(String),
}

impl fmt::Display for QuarantinedArtifact {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QuarantinedArtifact::ArchivalContainer(id) => {
                write!(f, "archival container {}", id.get())
            }
            QuarantinedArtifact::ActiveContainer(cid) => write!(f, "active container {cid}"),
            QuarantinedArtifact::Recipe(v) => write!(f, "recipe of {v}"),
            QuarantinedArtifact::Unrecognized(name) => write!(f, "file '{name}'"),
        }
    }
}

/// One artifact moved to `quarantine/` during a degraded open: what it was,
/// where it now lives, and why it was pulled.
#[derive(Debug, Clone)]
pub struct QuarantineEntry {
    /// The artifact, as identified from its file name.
    pub artifact: QuarantinedArtifact,
    /// Where the file now lives (inside the quarantine directory).
    pub path: PathBuf,
    /// Why it was quarantined.
    pub reason: String,
}

/// What [`HiDeStore::open_repository_with`] found and fixed while opening:
/// journal recovery outcome and every artifact quarantined this open.
#[derive(Debug)]
pub struct OpenReport {
    /// Whether an interrupted save transaction was rolled forward or back.
    pub journal: JournalRecovery,
    /// Artifacts moved to `quarantine/` by this open.
    pub quarantined: Vec<QuarantineEntry>,
}

/// An interrupted save transaction found on disk, and what opening the
/// repository will do with it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PendingJournal {
    /// The commit record is valid: open will complete the publish.
    RollForward {
        /// Files the transaction still has to publish.
        publishes: usize,
        /// Files the transaction removes.
        removals: usize,
    },
    /// No valid commit record: open will discard the staging tree.
    RollBack,
}

/// The interrupted save transaction (a leftover `staging/`) in the
/// repository at `dir`, inspected *without* opening (and therefore without
/// recovering) the repository — this is how `hidestore verify` reports a
/// pending journal before [`HiDeStore::open_repository`] resolves it.
pub fn repository_recovery_state(dir: impl AsRef<Path>) -> Option<PendingJournal> {
    let vfs = RealVfs;
    let dir = dir.as_ref();
    if !vfs.exists(&journal::staging_dir(dir)) {
        return None;
    }
    let record = vfs
        .read(&journal::commit_path(dir))
        .ok()
        .and_then(|bytes| CommitRecord::decode(&bytes));
    Some(match record {
        Some(r) => PendingJournal::RollForward {
            publishes: r.publish.len(),
            removals: r.remove.len(),
        },
        None => PendingJournal::RollBack,
    })
}

/// Moves `src` into the quarantine directory, fsyncing both directories so
/// the move survives a crash. Returns the new location.
fn quarantine_file<V: Vfs>(
    vfs: &V,
    quarantine_dir: &Path,
    src: &Path,
) -> Result<PathBuf, StorageError> {
    vfs.create_dir_all(quarantine_dir)?;
    let name = src
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "artifact".into());
    let dest = quarantine_dir.join(name);
    vfs.rename(src, &dest)?;
    if let Some(parent) = src.parent() {
        vfs.sync_dir(parent)?;
    }
    vfs.sync_dir(quarantine_dir)?;
    Ok(dest)
}

/// Identifies a recipe file from its name for quarantine reporting.
fn recipe_artifact(path: &Path) -> QuarantinedArtifact {
    let name = file_name(path);
    RepoFile::Recipe
        .parse(&name)
        .map_or(QuarantinedArtifact::Unrecognized(name), |v| {
            QuarantinedArtifact::Recipe(VersionId::new(v))
        })
}

/// Identifies any quarantined file from its name (`c<id>.ctr` archival,
/// `a<cid>.ctr` active snapshot, `r<v>.rcp` recipe).
fn quarantined_artifact_of(path: &Path) -> QuarantinedArtifact {
    let name = file_name(path);
    if let Some(id) = RepoFile::Archival.parse(&name) {
        return QuarantinedArtifact::ArchivalContainer(ContainerId::new(id));
    }
    if let Some(cid) = RepoFile::Active.parse(&name) {
        return QuarantinedArtifact::ActiveContainer(cid);
    }
    recipe_artifact(path)
}

impl HiDeStore<FileContainerStore> {
    /// Opens (or initializes) a persistent repository at `dir`.
    ///
    /// A fresh directory becomes an empty repository; an existing one is
    /// reloaded: recipes, active containers, counters, and the fingerprint
    /// cache rebuilt from the newest recipes. An interrupted save
    /// transaction is rolled forward or back first, and unreadable/corrupt
    /// artifacts are quarantined rather than failing the open — see
    /// [`HiDeStore::open_repository_with`], whose [`OpenReport`] says what
    /// recovery did.
    ///
    /// # Errors
    ///
    /// Fails on an invalid `config` (see [`HiDeStoreConfig::validate`]),
    /// filesystem errors, a corrupt meta file, or a history-depth mismatch.
    pub fn open_repository(
        config: HiDeStoreConfig,
        dir: impl AsRef<Path>,
    ) -> Result<Self, HiDeStoreError> {
        Ok(Self::open_repository_with(config, dir, RealVfs)?.0)
    }
}

impl<V: Vfs> HiDeStore<FileContainerStore<V>> {
    /// [`HiDeStore::open_repository`] through an explicit [`Vfs`] — the
    /// fault-injection entry point. Every filesystem operation of the open
    /// (journal recovery included) goes through `vfs`.
    ///
    /// # Errors
    ///
    /// Same as [`HiDeStore::open_repository`].
    pub fn open_repository_with(
        config: HiDeStoreConfig,
        dir: impl AsRef<Path>,
        vfs: V,
    ) -> Result<(Self, OpenReport), HiDeStoreError> {
        config.validate()?;
        let dir = dir.as_ref();
        vfs.create_dir_all(dir).map_err(StorageError::from)?;

        // 1. Resolve any interrupted save transaction before reading
        // anything: after this, the on-disk state is exactly the pre-save
        // or post-save repository.
        let journal_outcome = journal::recover(dir, &vfs)?;
        let quarantine_dir = dir.join(QUARANTINE_DIR);
        let mut quarantined: Vec<QuarantineEntry> = Vec::new();

        // 1b. Quarantine is durable: artifacts moved aside by an earlier
        // open stay lost until an operator resolves them, so their entries
        // are reconstructed from the directory — restores that depend on
        // them keep failing with `PartialRestore` on every reopen, not just
        // the one that performed the quarantine.
        if vfs.exists(&quarantine_dir) {
            for path in vfs.read_dir(&quarantine_dir).map_err(StorageError::from)? {
                quarantined.push(QuarantineEntry {
                    artifact: quarantined_artifact_of(&path),
                    path: path.clone(),
                    reason: "quarantined by an earlier open".into(),
                });
            }
        }

        // 2. Counters (CRC-guarded; a corrupt meta is a hard error — without
        // trustworthy counters nothing else can be interpreted).
        let meta = RepositoryMeta::read_with(dir, &vfs)?;

        // 3. Archival store (sweeps stale tmp files). Removals are deferred
        // from here on: `delete_expired` must not unlink container files
        // before the save that commits the matching recipe drops.
        let mut archival =
            FileContainerStore::open_with(dir.join(RepoFile::Archival.dir()), vfs.clone())?;
        archival.set_deferred_removals(true);

        // 4. Uncommitted residue: containers numbered at or above the
        // committed next-archival counter were written by a backup whose
        // save never committed. No committed recipe can reference them, so
        // they are quarantined, restoring the exact committed state.
        let archival_bound = meta.as_ref().map_or(1, |m| m.next_archival);
        for id in archival.ids() {
            if id.get() >= archival_bound {
                let dest = quarantine_file(&vfs, &quarantine_dir, &archival.path_of(id))?;
                archival.forget(id);
                quarantined.push(QuarantineEntry {
                    artifact: QuarantinedArtifact::ArchivalContainer(id),
                    path: dest,
                    reason: format!(
                        "container id {} >= committed next-archival {archival_bound} \
                         (residue of an uncommitted save)",
                        id.get()
                    ),
                });
            }
        }

        // 5. Decode-verify what remains; corrupt or unreadable containers
        // are quarantined instead of failing every restore that walks past
        // them.
        for (id, why) in archival.verify_containers() {
            let dest = quarantine_file(&vfs, &quarantine_dir, &archival.path_of(id))?;
            archival.forget(id);
            quarantined.push(QuarantineEntry {
                artifact: QuarantinedArtifact::ArchivalContainer(id),
                path: dest,
                reason: why,
            });
        }

        let mut system = HiDeStore::new(config, archival);
        let Some(meta) = meta else {
            // Nothing is loaded without a meta file: the first save removes
            // every recipe and snapshot file left in the directory.
            system.mark_opened(&[], &[], artifact_files(&vfs, dir)?);
            system.set_quarantine(quarantined.clone());
            return Ok((
                system,
                OpenReport {
                    journal: journal_outcome,
                    quarantined,
                },
            ));
        };
        if meta.history_depth as usize != system.config().history_depth {
            return Err(HiDeStoreError::Storage(StorageError::Corrupt(format!(
                "repository was written with history depth {}, \
                 reopened with {}",
                meta.history_depth,
                system.config().history_depth
            ))));
        }

        // 6. Recipes, per-file: a corrupt recipe quarantines that version
        // and the rest of the repository opens normally.
        let recipe_report =
            RecipeStore::load_dir_report_with(dir.join(RepoFile::Recipe.dir()), &vfs)?;
        for (path, err) in recipe_report.failed {
            let artifact = recipe_artifact(&path);
            let dest = quarantine_file(&vfs, &quarantine_dir, &path)?;
            quarantined.push(QuarantineEntry {
                artifact,
                path: dest,
                reason: err.to_string(),
            });
        }
        // Artifact files that hold nothing under their own name, which the
        // first save removes, and what was loaded from them, which it
        // writes under its own name.
        let mut strays: Vec<String> = Vec::new();
        let mut renamed_versions: Vec<VersionId> = Vec::new();
        let mut renamed_cids: Vec<u32> = Vec::new();
        for (path, version) in &recipe_report.misnamed {
            strays.push(format!("{}/{}", RepoFile::Recipe.dir(), file_name(path)));
            renamed_versions.push(*version);
        }

        // 7. Active pool, per-file likewise.
        let active_dir = dir.join(RepoFile::Active.dir());
        let stray = |name: &str| format!("{}/{name}", RepoFile::Active.dir());
        let mut pool_containers: Vec<Container> = Vec::new();
        if vfs.exists(&active_dir) {
            for path in vfs.read_dir(&active_dir).map_err(StorageError::from)? {
                let name = file_name(&path);
                let Some(cid) = RepoFile::Active.parse(&name) else {
                    if RepoFile::Active.matches(&name) {
                        strays.push(stray(&name));
                    }
                    continue;
                };
                let decoded = vfs
                    .read(&path)
                    .map_err(|e| format!("unreadable: {e}"))
                    .and_then(Container::decode);
                match decoded {
                    Ok(container) => {
                        let own = container.id().get().checked_sub(ACTIVE_ID_BASE);
                        if name != RepoFile::Active.name(cid) || own != Some(cid) {
                            strays.push(stray(&name));
                            renamed_cids.extend(own);
                        }
                        pool_containers.push(container);
                    }
                    Err(reason) => {
                        let dest = quarantine_file(&vfs, &quarantine_dir, &path)?;
                        quarantined.push(QuarantineEntry {
                            artifact: QuarantinedArtifact::ActiveContainer(cid),
                            path: dest,
                            reason,
                        });
                    }
                }
            }
        }

        system.restore_persistent_state(
            meta.next_version,
            meta.next_archival,
            recipe_report.store,
            pool_containers,
            meta.dead_entries,
        )?;
        system.mark_opened(&renamed_versions, &renamed_cids, strays);
        system.set_quarantine(quarantined.clone());
        Ok((
            system,
            OpenReport {
                journal: journal_outcome,
                quarantined,
            },
        ))
    }

    /// Saves the repository state so [`HiDeStore::open_repository`] can
    /// resume it: recipes, active containers, and counters. Archival
    /// containers are already on disk (the store is file-backed); container
    /// removals deferred by `delete_expired` are committed here.
    ///
    /// `dir` is the directory the instance was opened from: its archival
    /// store already lives there. The save publishes only what changed
    /// since the open or the last save: the recipes and active containers
    /// the recipe store and the pool marked, plus the meta file, which
    /// lists the dead entries of every active file kept. It removes only
    /// the versions and containers they dropped and the stray files the
    /// open found — no directory is listed. The tracked changes are
    /// forgotten only after the publish succeeds, so a failed save is
    /// retried in full.
    ///
    /// The save is atomic: every file is staged under `staging/`, fsynced,
    /// and published under a checksummed commit record. A crash at any
    /// point leaves the repository reopening as either the pre-save or the
    /// post-save state (see the private `journal` module).
    ///
    /// # Errors
    ///
    /// Fails on filesystem errors.
    pub fn save_repository(&mut self, dir: impl AsRef<Path>) -> Result<(), HiDeStoreError> {
        let vfs = self.archival().vfs().clone();
        let dir = dir.as_ref();
        vfs.create_dir_all(dir).map_err(StorageError::from)?;
        // A transaction left behind by an earlier interrupted save in this
        // process resolves exactly like it would at open.
        journal::recover(dir, &vfs)?;

        let staging = journal::staging_dir(dir);
        let mut record = CommitRecord::default();

        // Assemble the new file set and the removal set. The deferred
        // archival queue is only drained after the commit succeeds, so a
        // failed save retries those removals.
        let (recipes, pool) = (self.recipes(), self.pool());
        let mut files: Vec<(String, usize, Encoder<'_>)> = Vec::new();
        for recipe in recipes.changed() {
            let path = RepoFile::Recipe.path(recipe.version().get());
            let encode = Box::new(|w: &mut ByteWriter| recipe.encode_into(w));
            files.push((path, recipe.encoded_len(), encode));
        }
        for (cid, container) in pool.unwritten() {
            let encode = Box::new(|w: &mut ByteWriter| container.encode_into(w));
            files.push((RepoFile::Active.path(cid), container.encoded_len(), encode));
        }
        // Encoding touches no file, so it runs in parallel; every
        // filesystem op below stays on this thread, in this order.
        // The buffers are allocated here: memory a helper thread allocates
        // stays with its allocator arena once freed, adding to the
        // process's resident set.
        let total: usize = files.iter().map(|(_, len, _)| len).sum();
        let threads = if total < PARALLEL_ENCODE_MIN_BYTES {
            1
        } else {
            default_hash_threads()
        };
        let writers: Vec<_> = files
            .iter()
            .map(|(_, len, encode)| (ByteWriter::with_capacity(*len), encode))
            .collect();
        let encoded = map_ordered(writers, threads, |(mut w, encode)| {
            encode(&mut w);
            w.into_bytes()
        });
        let mut staged: Vec<(String, Vec<u8>)> = files
            .into_iter()
            .zip(encoded)
            .map(|((rel, _, _), bytes)| (rel, bytes))
            .collect();
        record.remove = recipes
            .removed()
            .map(|v| RepoFile::Recipe.path(v.get()))
            .collect();
        record
            .remove
            .extend(pool.dropped().map(|cid| RepoFile::Active.path(cid)));
        record.remove.extend_from_slice(self.stray_files());
        let meta = RepositoryMeta {
            next_version: self.next_version(),
            next_archival: self.next_archival_raw(),
            history_depth: self.config().history_depth as u32,
            dead_entries: pool.dead_entries().collect(),
        };
        staged.push((META_FILE.to_string(), meta.encode()));
        for &id in self.archival().deferred_removals() {
            record.remove.push(RepoFile::Archival.path(id.get()));
        }

        // Stage: write + fsync every file, then fsync the staged
        // directories and the repository root (making `staging/` itself
        // durable) before the commit record exists.
        let mut staged_dirs: BTreeSet<PathBuf> = BTreeSet::new();
        staged_dirs.insert(staging.clone());
        for (rel, bytes) in staged {
            let path = staging.join(&rel);
            if let Some(parent) = path.parent() {
                vfs.create_dir_all(parent).map_err(StorageError::from)?;
                staged_dirs.insert(parent.to_path_buf());
            }
            vfs.write(&path, &bytes).map_err(StorageError::from)?;
            vfs.sync_file(&path).map_err(StorageError::from)?;
            record.publish.push(rel);
        }
        for d in &staged_dirs {
            vfs.sync_dir(d).map_err(StorageError::from)?;
        }
        vfs.sync_dir(dir).map_err(StorageError::from)?;

        // Commit: the fsynced record is the commit point.
        let commit = journal::commit_path(dir);
        vfs.write(&commit, &record.encode())
            .map_err(StorageError::from)?;
        vfs.sync_file(&commit).map_err(StorageError::from)?;
        vfs.sync_dir(&staging).map_err(StorageError::from)?;

        // Publish. From here on a crash is rolled *forward* at next open.
        journal::apply(dir, &vfs, &record)?;
        self.archival_mut().take_deferred();
        self.mark_saved();
        Ok(())
    }
}

/// The final component of `path`, lossily as UTF-8.
fn file_name(path: &Path) -> String {
    path.file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_default()
}

/// Every `recipes/r*.rcp` and `active/a*.ctr` file under `dir`, as
/// repository-relative paths.
fn artifact_files<V: Vfs>(vfs: &V, dir: &Path) -> Result<Vec<String>, StorageError> {
    let mut files = Vec::new();
    for kind in [RepoFile::Recipe, RepoFile::Active] {
        let sub_dir = dir.join(kind.dir());
        if !vfs.exists(&sub_dir) {
            continue;
        }
        for path in vfs.read_dir(&sub_dir)? {
            let name = file_name(&path);
            if kind.matches(&name) {
                files.push(format!("{}/{name}", kind.dir()));
            }
        }
    }
    Ok(files)
}

/// Stamps each pooled chunk with the newest of the newest `depth` recipes
/// that holds it, per §4.1: those recipes are the prefetched history
/// tables, and the pool already knows where each chunk lives.
pub(crate) fn stamp_hot_set(recipes: &RecipeStore, pool: &mut ActivePool, depth: usize) {
    let Some(latest) = recipes.latest_version() else {
        return;
    };
    let older = u32::try_from(depth.saturating_sub(1)).unwrap_or(u32::MAX);
    let oldest = latest.get().saturating_sub(older).max(1);
    for w in oldest..=latest.get() {
        if let Some(recipe) = recipes.get(VersionId::new(w)) {
            pool.stamp(recipe);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hidestore_failpoint::{FaultKind, FaultVfs, OpKind, OpRecord, Plan, VfsMetadata};
    use hidestore_restore::Faa;
    use std::fs;
    use std::io;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    fn recipe_path(version: VersionId) -> String {
        RepoFile::Recipe.path(version.get())
    }

    fn active_name(cid: u32) -> String {
        RepoFile::Active.name(cid)
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("hidestore-persist-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn config() -> HiDeStoreConfig {
        HiDeStoreConfig {
            avg_chunk_size: 1024,
            container_capacity: 32 * 1024,
            ..HiDeStoreConfig::default()
        }
    }

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

    #[test]
    fn fresh_repository_is_empty() {
        let dir = temp_dir("fresh");
        let system = HiDeStore::open_repository(config(), &dir).unwrap();
        assert!(system.versions().is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn save_reopen_restores_old_versions() {
        let dir = temp_dir("roundtrip");
        let v1 = noise(100_000, 1);
        let mut v2 = v1.clone();
        v2[10_000..14_000].copy_from_slice(&noise(4000, 2));
        {
            let mut system = HiDeStore::open_repository(config(), &dir).unwrap();
            system.backup(&v1).unwrap();
            system.backup(&v2).unwrap();
            system.save_repository(&dir).unwrap();
        }
        let reopened = HiDeStore::open_repository(config(), &dir).unwrap();
        assert_eq!(reopened.versions().len(), 2);
        for (i, expect) in [&v1, &v2].into_iter().enumerate() {
            let mut out = Vec::new();
            reopened
                .restore(
                    VersionId::new(i as u32 + 1),
                    &mut Faa::new(1 << 18),
                    &mut out,
                )
                .unwrap();
            assert_eq!(&out, expect, "V{} after reopen", i + 1);
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn dedup_continues_across_restart() {
        let dir = temp_dir("continue");
        let v1 = noise(100_000, 3);
        let mut v2 = v1.clone();
        v2.extend_from_slice(&noise(5000, 4));
        {
            let mut system = HiDeStore::open_repository(config(), &dir).unwrap();
            system.backup(&v1).unwrap();
            system.save_repository(&dir).unwrap();
        }
        let mut reopened = HiDeStore::open_repository(config(), &dir).unwrap();
        let stats = reopened.backup(&v2).unwrap();
        // The rebuilt T1 must recognize v1's chunks: only the tail is new.
        assert!(
            stats.stored_bytes < 20_000,
            "stored {} bytes after restart — cache not rebuilt",
            stats.stored_bytes
        );
        let mut out = Vec::new();
        reopened
            .restore(VersionId::new(2), &mut Faa::new(1 << 18), &mut out)
            .unwrap();
        assert_eq!(out, v2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn version_numbering_continues() {
        let dir = temp_dir("numbering");
        {
            let mut system = HiDeStore::open_repository(config(), &dir).unwrap();
            system.backup(&noise(50_000, 5)).unwrap();
            system.save_repository(&dir).unwrap();
        }
        let mut reopened = HiDeStore::open_repository(config(), &dir).unwrap();
        let stats = reopened.backup(&noise(50_000, 6)).unwrap();
        assert_eq!(stats.version, VersionId::new(2));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn depth_mismatch_rejected() {
        let dir = temp_dir("depth");
        {
            let mut system = HiDeStore::open_repository(config(), &dir).unwrap();
            system.backup(&noise(50_000, 7)).unwrap();
            system.save_repository(&dir).unwrap();
        }
        let depth_2 = HiDeStoreConfig {
            history_depth: 2,
            ..config()
        };
        let err = HiDeStore::open_repository(depth_2, &dir).unwrap_err();
        assert!(err.to_string().contains("history depth"));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_meta_rejected() {
        let dir = temp_dir("meta");
        {
            let mut system = HiDeStore::open_repository(config(), &dir).unwrap();
            system.backup(&noise(50_000, 8)).unwrap();
            system.save_repository(&dir).unwrap();
        }
        fs::write(dir.join("hidestore.meta"), b"garbage").unwrap();
        assert!(HiDeStore::open_repository(config(), &dir).is_err());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_meta_detected_by_crc() {
        let dir = temp_dir("torn-meta");
        {
            let mut system = HiDeStore::open_repository(config(), &dir).unwrap();
            system.backup(&noise(50_000, 30)).unwrap();
            system.save_repository(&dir).unwrap();
        }
        let meta = fs::read(dir.join("hidestore.meta")).unwrap();
        assert_eq!(meta.len(), 20, "a meta without dead entries is 20 bytes");
        // A truncated meta must be corrupt, not misparsed.
        fs::write(dir.join("hidestore.meta"), &meta[..16]).unwrap();
        let err = HiDeStore::open_repository(config(), &dir).unwrap_err();
        assert!(err.to_string().contains("bad repository meta"), "{err}");
        // So must a bit flip inside the payload.
        let mut flipped = meta.clone();
        flipped[6] ^= 0x01;
        fs::write(dir.join("hidestore.meta"), &flipped).unwrap();
        let err = HiDeStore::open_repository(config(), &dir).unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checksumless_hdsm_meta_is_reported_corrupt() {
        let dir = temp_dir("hdsm-meta");
        {
            let mut system = HiDeStore::open_repository(config(), &dir).unwrap();
            system.backup(&noise(50_000, 31)).unwrap();
            system.save_repository(&dir).unwrap();
        }
        // The retired 16-byte form: `HDSM` + the same counters, no CRC.
        let meta = fs::read(dir.join("hidestore.meta")).unwrap();
        let mut hdsm = b"HDSM".to_vec();
        hdsm.extend_from_slice(&meta[4..16]);
        fs::write(dir.join("hidestore.meta"), hdsm).unwrap();
        let err = HiDeStore::open_repository(config(), &dir).unwrap_err();
        assert!(
            matches!(&err, HiDeStoreError::Storage(StorageError::Corrupt(_))),
            "{err:?}"
        );
        assert!(err.to_string().contains("bad repository meta"), "{err}");
        fs::remove_dir_all(&dir).unwrap();
    }

    /// The meta is the 20-byte `HDS2` form while no kept active file has
    /// dead entries, and `HDS3` with its dead-entry table once one has;
    /// both reopen to the pool that saved them.
    #[test]
    fn the_meta_lists_dead_entries_only_while_a_file_keeps_them() {
        let dir = temp_dir("meta-forms");
        let data = noise(200_000, 34);
        let config = HiDeStoreConfig {
            compact_threshold: 0.5,
            ..config()
        };
        let mut system = HiDeStore::open_repository(config, &dir).unwrap();
        system.backup(&data).unwrap();
        system.save_repository(&dir).unwrap();
        let meta = fs::read(dir.join("hidestore.meta")).unwrap();
        assert_eq!((&meta[..4], meta.len()), (&META_MAGIC_V2[..], 20));

        // A short edit sends a few chunks of full containers cold.
        let mut edited = data.clone();
        edited[100_000..102_000].copy_from_slice(&noise(2_000, 35));
        system.backup(&edited).unwrap();
        system.save_repository(&dir).unwrap();
        let kept: Vec<(u32, Vec<Fingerprint>)> = system.pool().dead_entries().collect();
        let dead: usize = kept.iter().map(|(_, f)| f.len()).sum();
        assert!(dead > 0, "some file keeps dead entries");
        let meta = fs::read(dir.join("hidestore.meta")).unwrap();
        let len = 24 + 8 * kept.len() + 20 * dead;
        assert_eq!((&meta[..4], meta.len()), (&META_MAGIC[..], len));
        let encoded = |s: &HiDeStore<FileContainerStore>| -> Vec<Vec<u8>> {
            s.pool().containers().map(|(_, c)| c.encode()).collect()
        };
        let reopened = HiDeStore::open_repository(config, &dir).unwrap();
        assert!(encoded(&reopened) == encoded(&system));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn save_leaves_no_staging_directory() {
        let dir = temp_dir("no-staging");
        let mut system = HiDeStore::open_repository(config(), &dir).unwrap();
        system.backup(&noise(60_000, 32)).unwrap();
        system.save_repository(&dir).unwrap();
        assert!(!dir.join("staging").exists());
        assert!(repository_recovery_state(&dir).is_none());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn quarantine_survives_reopen() {
        let dir = temp_dir("quarantine-durable");
        let v1 = noise(100_000, 50);
        let mut v2 = v1.clone();
        v2[20_000..28_000].copy_from_slice(&noise(8_000, 51));
        {
            let mut system = HiDeStore::open_repository(config(), &dir).unwrap();
            system.backup(&v1).unwrap();
            system.backup(&v2).unwrap();
            system.save_repository(&dir).unwrap();
        }
        // Corrupt one archival container; the next open quarantines it.
        let victim = fs::read_dir(dir.join("archival"))
            .unwrap()
            .flatten()
            .map(|e| e.path())
            .find(|p| p.extension().is_some_and(|e| e == "ctr"))
            .unwrap();
        let bytes = fs::read(&victim).unwrap();
        fs::write(&victim, &bytes[..bytes.len() / 2]).unwrap();
        {
            let (system, report) =
                HiDeStore::open_repository_with(config(), &dir, RealVfs).unwrap();
            assert_eq!(report.quarantined.len(), 1);
            assert_eq!(system.quarantine().len(), 1);
        }
        // A *second* open performs no new quarantine, yet must still know
        // about the artifact and keep degrading dependent restores.
        let (system, report) = HiDeStore::open_repository_with(config(), &dir, RealVfs).unwrap();
        assert_eq!(
            report.quarantined.len(),
            1,
            "quarantine entry reconstructed"
        );
        assert!(matches!(
            report.quarantined[0].artifact,
            QuarantinedArtifact::ArchivalContainer(_)
        ));
        let mut out = Vec::new();
        let err = system
            .restore(VersionId::new(1), &mut Faa::new(1 << 18), &mut out)
            .unwrap_err();
        assert!(
            matches!(err, HiDeStoreError::PartialRestore { .. }),
            "expected PartialRestore after reopen, got: {err}"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Containers a backup wrote before its save never committed are
    /// quarantined at open; no committed recipe references them, so the
    /// committed version restores on this open and every later one.
    #[test]
    fn uncommitted_residue_in_quarantine_leaves_the_committed_version_restorable() {
        let dir = temp_dir("residue");
        let v1 = noise(80_000, 60);
        {
            let mut system = HiDeStore::open_repository(config(), &dir).unwrap();
            system.backup(&v1).unwrap();
            system.save_repository(&dir).unwrap();
            // V1's chunks go cold: archival containers land on disk, but
            // the save that would commit them never runs.
            system.backup(&noise(80_000, 61)).unwrap();
            assert!(system.archival().len() > 0);
        }
        for _ in 0..2 {
            let system = HiDeStore::open_repository(config(), &dir).unwrap();
            assert!(
                !system.quarantine().is_empty(),
                "the residue is quarantined"
            );
            assert_eq!(system.versions(), [VersionId::new(1)]);
            let mut out = Vec::new();
            system
                .restore(VersionId::new(1), &mut Faa::new(1 << 18), &mut out)
                .unwrap();
            assert!(out == v1, "V1 survives the residue");
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn deferred_removals_commit_with_the_save() {
        let dir = temp_dir("deferred-rm");
        let mut data = noise(80_000, 33);
        {
            let mut system = HiDeStore::open_repository(config(), &dir).unwrap();
            for round in 0..4u64 {
                system.backup(&data).unwrap();
                let start = (round as usize * 13_000) % 60_000;
                let patch = noise(9_000, 40 + round);
                data[start..start + patch.len()].copy_from_slice(&patch);
            }
            system.save_repository(&dir).unwrap();
        }
        let mut system = HiDeStore::open_repository(config(), &dir).unwrap();
        let report = system.delete_expired(VersionId::new(2)).unwrap();
        assert!(report.containers_dropped > 0);
        // Deferred: the files are still on disk until the save commits.
        let on_disk = fs::read_dir(dir.join("archival")).unwrap().count();
        assert!(
            on_disk > system.archival().len(),
            "removed container files must survive until the save"
        );
        system.save_repository(&dir).unwrap();
        let on_disk = fs::read_dir(dir.join("archival")).unwrap().count();
        assert_eq!(on_disk, system.archival().len());
        fs::remove_dir_all(&dir).unwrap();
    }

    /// The repository-relative paths a save staged, from its slice of a
    /// counting trace: the writes under `staging/`, commit record excluded.
    fn staged_files(ops: &[OpRecord], dir: &Path) -> BTreeSet<String> {
        let staging = journal::staging_dir(dir);
        ops.iter()
            .filter(|op| op.kind == OpKind::Write)
            .filter_map(|op| op.path.strip_prefix(&staging).ok())
            .filter(|rel| *rel != Path::new(journal::COMMIT_FILE))
            .map(|rel| rel.to_string_lossy().into_owned())
            .collect()
    }

    /// A save costs what the backup changed, not what the repository
    /// holds: each save stages exactly the tracked changes — at most
    /// `depth + 1` recipes — lists no directory, and the 40th writes no
    /// more files than the 4th.
    #[test]
    fn commit_cost_does_not_grow_with_history() {
        let dir = temp_dir("commit-cost");
        let vfs = FaultVfs::new(Plan::counting());
        let (mut system, _) = HiDeStore::open_repository_with(config(), &dir, vfs.clone()).unwrap();
        let depth = system.config().history_depth;
        let mut data = noise(100_000, 70);
        let mut files_written = Vec::new();
        for round in 0..40u64 {
            let at = (round as usize * 7_919) % 90_000;
            data[at..at + 4_000].copy_from_slice(&noise(4_000, 100 + round));
            system.backup(&data).unwrap();
            let mut expect: BTreeSet<String> = system
                .recipes()
                .changed()
                .map(|r| recipe_path(r.version()))
                .collect();
            let recipes = expect.len();
            expect.extend(
                system
                    .pool()
                    .unwritten()
                    .map(|(cid, _)| format!("active/{}", active_name(cid))),
            );
            expect.insert(META_FILE.into());
            let from = vfs.plan().ops() as usize;
            system.save_repository(&dir).unwrap();
            let ops = &vfs.plan().trace()[from..];
            let save = round + 1;
            assert!(recipes <= depth + 1, "save {save} staged {recipes} recipes");
            assert_eq!(staged_files(ops, &dir), expect, "save {save}");
            assert!(
                ops.iter().all(|op| op.kind != OpKind::ReadDir),
                "save {save} listed a directory"
            );
            files_written.push(ops.iter().filter(|op| op.kind == OpKind::Write).count());
        }
        assert!(
            files_written[39] <= files_written[3],
            "files written per save: {files_written:?}"
        );

        // Flatten rewrites the chains of every recipe: the next save stages
        // them all.
        system.flatten_recipes();
        let from = vfs.plan().ops() as usize;
        system.save_repository(&dir).unwrap();
        let staged = staged_files(&vfs.plan().trace()[from..], &dir);
        let recipes = staged.iter().filter(|f| f.starts_with("recipes/")).count();
        assert_eq!(recipes, system.versions().len());
        drop(system);

        // Nothing changed since the open: the save stages only the meta.
        let (mut system, _) = HiDeStore::open_repository_with(config(), &dir, vfs.clone()).unwrap();
        let from = vfs.plan().ops() as usize;
        system.save_repository(&dir).unwrap();
        assert_eq!(
            staged_files(&vfs.plan().trace()[from..], &dir),
            BTreeSet::from([META_FILE.to_string()])
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A save large enough to encode its files on several threads still
    /// stages them in the serial order — recipes by version, then active
    /// containers by id, then the meta, then the commit record — and the
    /// record publishes them in that order. The save runs twice from the
    /// same start: counted, then crashed at its first publish rename, which
    /// leaves the staged files and the record on disk.
    #[test]
    fn parallel_encode_keeps_the_serial_save_order() {
        let config = HiDeStoreConfig {
            avg_chunk_size: 4096,
            container_capacity: 256 * 1024,
            ..HiDeStoreConfig::default()
        };
        let save = |tag: &str, plan: Plan| {
            let dir = temp_dir(tag);
            let vfs = FaultVfs::new(plan);
            let (mut system, _) =
                HiDeStore::open_repository_with(config, &dir, vfs.clone()).unwrap();
            let mut data = noise(3 << 20, 120);
            system.backup(&data).unwrap();
            data[1 << 20..2 << 20].copy_from_slice(&noise(1 << 20, 121));
            system.backup(&data).unwrap();
            let versions: BTreeSet<VersionId> =
                system.recipes().changed().map(|r| r.version()).collect();
            let cids: BTreeSet<u32> = system.pool().unwritten().map(|(cid, _)| cid).collect();
            let bytes: usize = system.pool().unwritten().map(|(_, c)| c.used_bytes()).sum();
            assert!(
                versions.len() >= 2 && cids.len() >= 4,
                "{versions:?} {cids:?}"
            );
            assert!(
                bytes >= PARALLEL_ENCODE_MIN_BYTES,
                "{bytes} bytes encode inline"
            );
            let mut order: Vec<String> = versions.into_iter().map(recipe_path).collect();
            order.extend(cids.into_iter().map(|cid| RepoFile::Active.path(cid)));
            order.push(META_FILE.to_string());
            let from = vfs.plan().ops() as usize;
            let saved = system.save_repository(&dir);
            (dir, vfs.plan().trace().split_off(from), saved, order)
        };

        let (dir, ops, saved, order) = save("save-order", Plan::counting());
        saved.unwrap();
        let staging = journal::staging_dir(&dir);
        let mut want: Vec<(OpKind, PathBuf)> = Vec::new();
        for path in order
            .iter()
            .map(|rel| staging.join(rel))
            .chain([journal::commit_path(&dir)])
        {
            want.push((OpKind::Write, path.clone()));
            want.push((OpKind::SyncFile, path));
        }
        let got: Vec<(OpKind, PathBuf)> = ops
            .iter()
            .filter(|op| matches!(op.kind, OpKind::Write | OpKind::SyncFile))
            .map(|op| (op.kind, op.path.clone()))
            .collect();
        assert_eq!(got, want);
        let first_rename = ops
            .iter()
            .find(|op| op.kind == OpKind::Rename)
            .unwrap()
            .index;
        fs::remove_dir_all(&dir).unwrap();

        let (dir, _, saved, order) = save("save-crc", Plan::armed(first_rename, FaultKind::Error));
        assert!(saved.is_err(), "the save crashes at its first rename");
        let record = CommitRecord::decode(&fs::read(journal::commit_path(&dir)).unwrap()).unwrap();
        assert_eq!(record.publish, order);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// The real filesystem, except that the first write into `staging/`
    /// after [`FailOnce::arm`] fails; later writes succeed again.
    #[derive(Debug, Clone, Default)]
    struct FailOnce {
        armed: Arc<AtomicBool>,
    }

    impl FailOnce {
        fn arm(&self) {
            self.armed.store(true, Ordering::SeqCst);
        }
    }

    impl Vfs for FailOnce {
        fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
            RealVfs.read(path)
        }
        fn write(&self, path: &Path, data: &[u8]) -> io::Result<()> {
            let staging = path.components().any(|c| c.as_os_str() == "staging");
            if staging && self.armed.swap(false, Ordering::SeqCst) {
                return Err(io::Error::other("injected staging write failure"));
            }
            RealVfs.write(path, data)
        }
        fn sync_file(&self, path: &Path) -> io::Result<()> {
            RealVfs.sync_file(path)
        }
        fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
            RealVfs.rename(from, to)
        }
        fn sync_dir(&self, path: &Path) -> io::Result<()> {
            RealVfs.sync_dir(path)
        }
        fn remove_file(&self, path: &Path) -> io::Result<()> {
            RealVfs.remove_file(path)
        }
        fn create_dir_all(&self, path: &Path) -> io::Result<()> {
            RealVfs.create_dir_all(path)
        }
        fn read_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>> {
            RealVfs.read_dir(path)
        }
        fn remove_dir_all(&self, path: &Path) -> io::Result<()> {
            RealVfs.remove_dir_all(path)
        }
        fn exists(&self, path: &Path) -> bool {
            RealVfs.exists(path)
        }
        fn symlink_metadata(&self, path: &Path) -> io::Result<VfsMetadata> {
            RealVfs.symlink_metadata(path)
        }
        fn read_link(&self, path: &Path) -> io::Result<PathBuf> {
            RealVfs.read_link(path)
        }
        fn symlink(&self, target: &Path, link: &Path) -> io::Result<()> {
            RealVfs.symlink(target, link)
        }
        fn set_mode(&self, path: &Path, mode: u32) -> io::Result<()> {
            RealVfs.set_mode(path, mode)
        }
        fn set_mtime(&self, path: &Path, secs: i64, nanos: u32) -> io::Result<()> {
            RealVfs.set_mtime(path, secs, nanos)
        }
    }

    /// A save that fails before its commit keeps the tracked changes, so
    /// retrying it on the same instance publishes everything the failed
    /// attempt would have: new recipes, rewritten predecessors, pool
    /// changes, the expired recipe and the deferred container removals.
    #[test]
    fn failed_save_keeps_its_changes_for_the_retry() {
        let dir = temp_dir("failed-save");
        let vfs = FailOnce::default();
        let (mut system, _) = HiDeStore::open_repository_with(config(), &dir, vfs.clone()).unwrap();
        let mut data = noise(80_000, 80);
        let mut versions = Vec::new();
        for round in 0..5u64 {
            system.backup(&data).unwrap();
            versions.push(data.clone());
            if round < 3 {
                system.save_repository(&dir).unwrap();
            }
            let at = (round as usize * 13_000) % 60_000;
            data[at..at + 9_000].copy_from_slice(&noise(9_000, 90 + round));
        }
        let report = system.delete_expired(VersionId::new(1)).unwrap();
        assert!(report.containers_dropped > 0);
        vfs.arm();
        assert!(
            system.save_repository(&dir).is_err(),
            "the armed staging write fails the save"
        );
        system.save_repository(&dir).unwrap();
        let on_disk = fs::read_dir(dir.join("archival")).unwrap().count();
        assert_eq!(
            on_disk,
            system.archival().len(),
            "deferred removals retried"
        );
        drop(system);

        let reopened = HiDeStore::open_repository(config(), &dir).unwrap();
        let retained: Vec<VersionId> = (2..=5).map(VersionId::new).collect();
        assert_eq!(reopened.versions(), retained);
        for v in retained {
            let mut out = Vec::new();
            reopened
                .restore(v, &mut Faa::new(1 << 18), &mut out)
                .unwrap();
            assert!(out == versions[v.get() as usize - 1], "{v} after the retry");
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Artifact files not named after what they hold are strays: the first
    /// save after the open removes them and writes what was loaded from
    /// them under its own name.
    #[test]
    fn first_save_after_opening_misnamed_files_repairs_them() {
        let dir = temp_dir("misnamed");
        let mut versions = Vec::new();
        let cid = {
            let mut system = HiDeStore::open_repository(config(), &dir).unwrap();
            let mut data = noise(60_000, 110);
            for round in 0..3u64 {
                system.backup(&data).unwrap();
                versions.push(data.clone());
                data[round as usize * 9_000..][..6_000].copy_from_slice(&noise(6_000, 111 + round));
            }
            system.save_repository(&dir).unwrap();
            system.pool().container_ids()[0]
        };
        let snapshot = dir.join("active").join(active_name(cid));
        let padded = dir.join("active").join(format!("a0{cid}.ctr"));
        fs::rename(dir.join("recipes/r3.rcp"), dir.join("recipes/r7.rcp")).unwrap();
        fs::rename(&snapshot, &padded).unwrap();
        fs::write(dir.join("active/ax.ctr"), b"stray").unwrap();
        {
            let mut system = HiDeStore::open_repository(config(), &dir).unwrap();
            system.save_repository(&dir).unwrap();
        }
        assert!(dir.join("recipes/r3.rcp").exists());
        assert!(!dir.join("recipes/r7.rcp").exists());
        assert!(snapshot.exists());
        assert!(!padded.exists());
        assert!(!dir.join("active/ax.ctr").exists());
        let reopened = HiDeStore::open_repository(config(), &dir).unwrap();
        for (i, expect) in versions.iter().enumerate() {
            let v = VersionId::new(i as u32 + 1);
            let mut out = Vec::new();
            reopened
                .restore(v, &mut Faa::new(1 << 18), &mut out)
                .unwrap();
            assert!(&out == expect, "{v} survives the misnamed files");
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Without a meta file nothing is loaded, so the first save removes
    /// every recipe and snapshot file left in the directory.
    #[test]
    fn first_save_without_meta_removes_leftover_artifacts() {
        let dir = temp_dir("no-meta-leftovers");
        fs::create_dir_all(dir.join("recipes")).unwrap();
        fs::create_dir_all(dir.join("active")).unwrap();
        fs::write(dir.join("recipes/r5.rcp"), b"leftover").unwrap();
        fs::write(dir.join("active/a40.ctr"), b"leftover").unwrap();
        fs::write(dir.join("active/notes.txt"), b"kept").unwrap();
        let mut system = HiDeStore::open_repository(config(), &dir).unwrap();
        system.save_repository(&dir).unwrap();
        assert!(!dir.join("recipes/r5.rcp").exists());
        assert!(!dir.join("active/a40.ctr").exists());
        assert!(dir.join("active/notes.txt").exists());
        let reopened = HiDeStore::open_repository(config(), &dir).unwrap();
        assert!(reopened.versions().is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }
}
