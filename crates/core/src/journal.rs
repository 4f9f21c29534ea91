//! The atomic multi-file commit journal behind `save_repository`.
//!
//! A repository save must replace several files (the recipes and
//! active-pool snapshots that changed since the last save, and
//! `hidestore.meta`) and delete others (expired recipes, dropped active
//! snapshots, deferred container removals) as one unit: a crash between any
//! two of those writes would otherwise leave a torn repository. The
//! protocol here is redo logging with single-file atomic renames as the
//! publish primitive:
//!
//! 1. every new file is written to `repo/staging/<relative path>` and
//!    fsynced (content *and* directories);
//! 2. a checksummed **commit record** (`staging/COMMIT`) naming every
//!    publish and removal is written and fsynced — this is the commit
//!    point;
//! 3. the record is applied: removals are unlinked, staged files are
//!    renamed over their targets, target directories are fsynced, and the
//!    staging tree (COMMIT first) is retired.
//!
//! Recovery on open inspects `staging/`: a valid commit record is **rolled
//! forward** (step 3 is idempotent — replayed removals tolerate missing
//! files, replayed publishes skip entries whose staged file is already
//! renamed away), anything else is **rolled back** by discarding the
//! staging tree, deleting the (invalid) commit record first so a crash
//! mid-rollback can never be misread as a committable transaction. Reopen
//! therefore always observes either the pre-save or the post-save state,
//! never a mix.

use std::collections::BTreeSet;
use std::io;
use std::path::{Path, PathBuf};

use hidestore_failpoint::Vfs;
use hidestore_hash::crc32;
use hidestore_proto::wire::{ByteReader, ByteWriter};
use hidestore_storage::StorageError;

/// Directory under the repository root holding the in-flight transaction.
pub(crate) const STAGING_DIR: &str = "staging";

/// The commit-record file name inside the staging directory.
pub(crate) const COMMIT_FILE: &str = "COMMIT";

const JOURNAL_MAGIC: &[u8; 4] = b"HDSJ";

/// What journal recovery found (and did) when the repository was opened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JournalRecovery {
    /// No interrupted transaction was present.
    Clean,
    /// A committed transaction was found and its publish was completed.
    RolledForward,
    /// An uncommitted transaction was found and discarded.
    RolledBack,
}

/// One file to publish from staging into the repository.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct PublishEntry {
    /// Path relative to the repository root (and to the staging root).
    pub rel: String,
    /// Staged payload length. Written for post-mortem inspection only:
    /// nothing reads it back, neither [`recover`] nor `hidestore verify`.
    pub len: u64,
    /// CRC-32 of the staged payload. Like `len`, written and never read:
    /// recovery trusts the record's own trailing CRC, not this one.
    pub crc: u32,
}

/// The commit record: the full intent of one repository-save transaction.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct CommitRecord {
    /// Files to rename from staging into the repository.
    pub publish: Vec<PublishEntry>,
    /// Repository-relative paths to unlink (stale recipes, expired
    /// containers whose removal was deferred to this commit).
    pub remove: Vec<String>,
}

impl CommitRecord {
    /// Serializes: magic, entry counts, entries, and a trailing CRC-32 over
    /// everything before it.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.raw(JOURNAL_MAGIC);
        w.len_u32(self.publish.len());
        w.len_u32(self.remove.len());
        for entry in &self.publish {
            w.string_u16(&entry.rel);
            w.u64(entry.len);
            w.u32(entry.crc);
        }
        for rel in &self.remove {
            w.string_u16(rel);
        }
        seal(w)
    }

    /// Parses [`CommitRecord::encode`] output. `None` means the record is
    /// torn or corrupt — the transaction never committed and must be rolled
    /// back.
    pub fn decode(bytes: &[u8]) -> Option<Self> {
        let mut r = ByteReader::new(unseal(bytes)?);
        if r.array().ok()? != *JOURNAL_MAGIC {
            return None;
        }
        // Smallest encodings: a publish entry is a 2-byte path length plus
        // its u64 length and u32 CRC, a removal the path length alone.
        let publish_count = r.count_within("publish entries", 14).ok()?;
        let remove_count = r.count_within("removals", 2).ok()?;
        let mut publish = Vec::with_capacity(publish_count);
        for _ in 0..publish_count {
            publish.push(PublishEntry {
                rel: r.string_u16().ok().filter(|rel| is_repo_relative(rel))?,
                len: r.u64().ok()?,
                crc: r.u32().ok()?,
            });
        }
        let remove = (0..remove_count)
            .map(|_| r.string_u16().ok().filter(|rel| is_repo_relative(rel)))
            .collect::<Option<_>>()?;
        r.finish().ok()?;
        Some(CommitRecord { publish, remove })
    }
}

/// Whether `rel` stays inside the repository: no empty (so no leading
/// `/`), `.` or `..` segment. A record naming any other path is corrupt.
fn is_repo_relative(rel: &str) -> bool {
    rel.split('/')
        .all(|seg| !seg.is_empty() && seg != "." && seg != "..")
}

/// Appends the CRC-32 of everything written so far: the trailer that seals
/// the commit record and the meta file.
pub(crate) fn seal(body: ByteWriter) -> Vec<u8> {
    let body = body.into_bytes();
    let mut w = ByteWriter::with_capacity(body.len() + 4);
    w.raw(&body);
    w.u32(crc32(&body));
    w.into_bytes()
}

/// The body [`seal`] sealed, or `None` when the trailer does not match
/// (a torn or bit-flipped file).
pub(crate) fn unseal(bytes: &[u8]) -> Option<&[u8]> {
    let (body, trailer) = bytes.split_at(bytes.len().checked_sub(4)?);
    (ByteReader::new(trailer).u32().ok()? == crc32(body)).then_some(body)
}

/// The staging directory of the repository at `repo`.
pub(crate) fn staging_dir(repo: &Path) -> PathBuf {
    repo.join(STAGING_DIR)
}

/// The commit-record path of the repository at `repo`.
pub(crate) fn commit_path(repo: &Path) -> PathBuf {
    staging_dir(repo).join(COMMIT_FILE)
}

fn ignore_not_found(result: io::Result<()>) -> io::Result<()> {
    match result {
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
        other => other,
    }
}

/// Inspects and resolves any interrupted transaction at `repo`. Called
/// before anything else reads the repository.
///
/// # Errors
///
/// Fails on filesystem errors, or if a committed record names a file that
/// is neither staged nor published (impossible under the crash model;
/// indicates external tampering).
pub(crate) fn recover<V: Vfs>(repo: &Path, vfs: &V) -> Result<JournalRecovery, StorageError> {
    let staging = staging_dir(repo);
    if !vfs.exists(&staging) {
        return Ok(JournalRecovery::Clean);
    }
    let commit = commit_path(repo);
    if vfs.exists(&commit) {
        let bytes = vfs.read(&commit)?;
        if let Some(record) = CommitRecord::decode(&bytes) {
            apply(repo, vfs, &record)?;
            return Ok(JournalRecovery::RolledForward);
        }
    }
    roll_back(repo, vfs)?;
    Ok(JournalRecovery::RolledBack)
}

/// Applies a durable commit record: removals, publishes, directory fsyncs,
/// then retirement of the staging tree. Idempotent — safe to replay after a
/// crash at any point inside it.
pub(crate) fn apply<V: Vfs>(
    repo: &Path,
    vfs: &V,
    record: &CommitRecord,
) -> Result<(), StorageError> {
    let staging = staging_dir(repo);
    for rel in &record.remove {
        ignore_not_found(vfs.remove_file(&repo.join(rel)))?;
    }
    for entry in &record.publish {
        let staged = staging.join(&entry.rel);
        let target = repo.join(&entry.rel);
        if vfs.exists(&staged) {
            if let Some(parent) = target.parent() {
                vfs.create_dir_all(parent)?;
            }
            vfs.rename(&staged, &target)?;
        } else if !vfs.exists(&target) {
            return Err(StorageError::Corrupt(format!(
                "commit record names '{}' but it is neither staged nor published",
                entry.rel
            )));
        }
    }
    // One fsync per touched directory makes every rename and unlink durable
    // before the journal is retired.
    let mut dirs: BTreeSet<PathBuf> = BTreeSet::new();
    dirs.insert(repo.to_path_buf());
    for rel in record
        .publish
        .iter()
        .map(|e| e.rel.as_str())
        .chain(record.remove.iter().map(String::as_str))
    {
        if let Some(parent) = repo.join(rel).parent() {
            dirs.insert(parent.to_path_buf());
        }
    }
    for d in &dirs {
        if vfs.exists(d) {
            vfs.sync_dir(d)?;
        }
    }
    retire_staging(repo, vfs)
}

/// Discards an uncommitted transaction. The commit record (if any — it was
/// invalid) goes first, so a crash mid-rollback re-enters rollback on the
/// next open rather than a partial roll-forward.
fn roll_back<V: Vfs>(repo: &Path, vfs: &V) -> Result<(), StorageError> {
    retire_staging(repo, vfs)
}

fn retire_staging<V: Vfs>(repo: &Path, vfs: &V) -> Result<(), StorageError> {
    let staging = staging_dir(repo);
    ignore_not_found(vfs.remove_file(&commit_path(repo)))?;
    vfs.sync_dir(&staging)?;
    vfs.remove_dir_all(&staging)?;
    vfs.sync_dir(repo)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record() -> CommitRecord {
        CommitRecord {
            publish: vec![
                PublishEntry {
                    rel: "recipes/r1.rcp".into(),
                    len: 40,
                    crc: 0xDEAD_BEEF,
                },
                PublishEntry {
                    rel: "hidestore.meta".into(),
                    len: 20,
                    crc: 7,
                },
            ],
            remove: vec!["archival/c3.ctr".into(), "recipes/r9.rcp".into()],
        }
    }

    #[test]
    fn encode_decode_round_trip() {
        let r = record();
        assert_eq!(CommitRecord::decode(&r.encode()), Some(r));
        let empty = CommitRecord::default();
        assert_eq!(CommitRecord::decode(&empty.encode()), Some(empty));
    }

    #[test]
    fn torn_record_rejected_at_every_length() {
        let enc = record().encode();
        for cut in 0..enc.len() {
            assert_eq!(
                CommitRecord::decode(&enc[..cut]),
                None,
                "torn at {cut} must not decode"
            );
        }
    }

    #[test]
    fn flipped_bit_rejected() {
        let mut enc = record().encode();
        for at in [0, 5, enc.len() / 2, enc.len() - 1] {
            enc[at] ^= 0x10;
            assert_eq!(CommitRecord::decode(&enc), None, "flip at {at}");
            enc[at] ^= 0x10;
        }
        assert!(
            CommitRecord::decode(&enc).is_some(),
            "restored record decodes"
        );
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut enc = record().encode();
        enc.push(0);
        assert_eq!(CommitRecord::decode(&enc), None);
    }

    #[test]
    fn unsafe_paths_rejected() {
        for rel in ["../evil", "/etc/passwd", "a//b", "", "a/./b"] {
            let r = CommitRecord {
                publish: vec![],
                remove: vec![rel.into()],
            };
            assert_eq!(
                CommitRecord::decode(&r.encode()),
                None,
                "path {rel:?} must be rejected"
            );
        }
    }
}
