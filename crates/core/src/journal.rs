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

/// The commit record's magic: repository-relative paths only.
const JOURNAL_MAGIC: &[u8; 4] = b"HDSK";

/// The first commit-record layout, still read: each publish path is
/// followed by the staged file's u64 length and u32 CRC-32, which nothing
/// ever read back.
const JOURNAL_MAGIC_V1: &[u8; 4] = b"HDSJ";

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

/// The commit record: the full intent of one repository-save transaction.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct CommitRecord {
    /// Repository-relative paths to rename from staging (the same relative
    /// path under `staging/`) into the repository.
    pub publish: Vec<String>,
    /// Repository-relative paths to unlink (stale recipes, expired
    /// containers whose removal was deferred to this commit).
    pub remove: Vec<String>,
}

impl CommitRecord {
    /// Serializes: magic, entry counts, the publish paths, the removal
    /// paths, and a trailing CRC-32 over everything before it.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.raw(JOURNAL_MAGIC);
        w.len_u32(self.publish.len());
        w.len_u32(self.remove.len());
        for rel in self.publish.iter().chain(&self.remove) {
            w.string_u16(rel);
        }
        seal(w)
    }

    /// Parses [`CommitRecord::encode`] output, or a record in the first
    /// layout. `None` means the record is torn or corrupt — the
    /// transaction never committed and must be rolled back.
    pub fn decode(bytes: &[u8]) -> Option<Self> {
        let mut r = ByteReader::new(unseal(bytes)?);
        let magic: [u8; 4] = r.array().ok()?;
        // A first-layout publish entry carries a u64 length and a u32 CRC
        // after its path; both are skipped.
        let publish_extra = match &magic {
            JOURNAL_MAGIC => 0,
            JOURNAL_MAGIC_V1 => 12,
            _ => return None,
        };
        // Smallest encodings: a path is its 2-byte length at least.
        let publish_count = r.count_within("publish entries", 2 + publish_extra).ok()?;
        let remove_count = r.count_within("removals", 2).ok()?;
        let path = |r: &mut ByteReader<'_>| r.string_u16().ok().filter(|rel| is_repo_relative(rel));
        let mut publish = Vec::with_capacity(publish_count);
        for _ in 0..publish_count {
            publish.push(path(&mut r)?);
            r.bytes(publish_extra).ok()?;
        }
        let remove = (0..remove_count)
            .map(|_| path(&mut r))
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
    for rel in &record.publish {
        let staged = staging.join(rel);
        let target = repo.join(rel);
        if vfs.exists(&staged) {
            if let Some(parent) = target.parent() {
                vfs.create_dir_all(parent)?;
            }
            vfs.rename(&staged, &target)?;
        } else if !vfs.exists(&target) {
            return Err(StorageError::Corrupt(format!(
                "commit record names '{rel}' but it is neither staged nor published"
            )));
        }
    }
    // One fsync per touched directory makes every rename and unlink durable
    // before the journal is retired.
    let mut dirs: BTreeSet<PathBuf> = BTreeSet::new();
    dirs.insert(repo.to_path_buf());
    for rel in record.publish.iter().chain(&record.remove) {
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
            publish: vec!["recipes/r1.rcp".into(), "hidestore.meta".into()],
            remove: vec!["archival/c3.ctr".into(), "recipes/r9.rcp".into()],
        }
    }

    /// [`record`] in the first layout, as older builds wrote it.
    fn first_layout() -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.raw(JOURNAL_MAGIC_V1);
        w.u32(2);
        w.u32(2);
        for (rel, len, crc) in [
            ("recipes/r1.rcp", 40, 0xDEAD_BEEF),
            ("hidestore.meta", 20, 7),
        ] {
            w.string_u16(rel);
            w.u64(len);
            w.u32(crc);
        }
        w.string_u16("archival/c3.ctr");
        w.string_u16("recipes/r9.rcp");
        seal(w)
    }

    #[test]
    fn encode_decode_round_trip() {
        let r = record();
        assert_eq!(CommitRecord::decode(&r.encode()), Some(r));
        let empty = CommitRecord::default();
        assert_eq!(CommitRecord::decode(&empty.encode()), Some(empty));
    }

    #[test]
    fn first_layout_records_still_decode() {
        let old = first_layout();
        assert_eq!(CommitRecord::decode(&old), Some(record()));
        assert!(
            record().encode().len() < old.len(),
            "no length or CRC per file"
        );
        for cut in 0..old.len() {
            assert_eq!(CommitRecord::decode(&old[..cut]), None, "torn at {cut}");
        }
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
