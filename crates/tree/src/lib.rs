//! Real filesystem trees as a first-class backup/restore workload.
//!
//! This crate turns a directory tree into one ordinary HiDeStore version:
//! the walk visits entries in deterministic apath order (depth-first,
//! bytewise-sorted names), a compact binary manifest captures per-entry
//! metadata (kind, permission bits, mtime, symlink targets, empty
//! directories), and the manifest plus the concatenated file contents are
//! fed through the existing chunk→dedup→container pipeline as a single
//! framed stream. Because the tree rides the normal version machinery it
//! inherits recipes, journaled crash safety, and fsck auditing for free.
//!
//! Restore plans from the manifest: it fetches the stream header and
//! manifest first, then reads only the byte ranges — and therefore only the
//! containers — the selected entries need, which makes subtree restore cost
//! proportional to the data restored rather than the size of the backup.
//! Contiguous file contents share one FAA pass, so a whole-tree restore
//! reads each container once per area, as a stream restore does. Files are
//! staged to `.hds-tmp` names as they complete and renamed into place, then
//! their metadata is reapplied.
//!
//! Known limits (deliberate, documented): hardlinks are stored as
//! independent files, extended attributes and ownership are not captured,
//! and entry names must be valid UTF-8.
//!
//! ```no_run
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use hidestore_failpoint::RealVfs;
//! use hidestore_tree::{backup_tree, restore_tree, TreeBackupOptions, TreeRestoreOptions};
//! # let mut system: hidestore_core::HiDeStore<hidestore_storage::MemoryContainerStore> =
//! #     unimplemented!();
//! let vfs = RealVfs;
//! let report = backup_tree(
//!     &mut system,
//!     &vfs,
//!     "/home/me/project".as_ref(),
//!     &TreeBackupOptions::default(),
//! )?;
//! restore_tree(
//!     &mut system,
//!     &vfs,
//!     report.stats.version,
//!     "/tmp/out".as_ref(),
//!     &TreeRestoreOptions::default(),
//! )?;
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::path::PathBuf;

use hidestore_core::HiDeStoreError;
use hidestore_storage::VersionId;

pub mod apath;
pub mod exclude;
pub mod manifest;

mod backup;
mod restore;

pub use backup::{backup_tree, TreeBackupOptions, TreeBackupReport};
pub use exclude::{ExcludeError, ExcludeSet};
pub use manifest::{EntryPayload, ManifestEntry, TreeManifest};
pub use restore::{restore_tree, TreeRestoreOptions, TreeRestoreReport, TMP_SUFFIX};

/// One entry that a backup or restore could not process. The operation
/// continues past it; callers surface the list and exit non-zero.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SkippedEntry {
    /// The entry's apath (or a best-effort description when the name itself
    /// was the problem).
    pub apath: String,
    /// Why the entry was skipped.
    pub reason: String,
}

impl fmt::Display for SkippedEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.apath, self.reason)
    }
}

/// Errors from tree backup and restore.
///
/// Per-entry problems are *not* errors — they land in the reports'
/// `skipped` lists. A `TreeError` means the operation as a whole could not
/// proceed.
#[derive(Debug)]
#[non_exhaustive]
pub enum TreeError {
    /// The tree root itself could not be read.
    Walk(PathBuf, String),
    /// The backup root is not a directory.
    NotADirectory(PathBuf),
    /// The underlying pipeline rejected the operation.
    System(HiDeStoreError),
    /// The version exists but does not carry the tree stream magic.
    NotATreeBackup(VersionId),
    /// The stream carries the magic but its manifest is malformed.
    Corrupt(String),
    /// The requested `--subtree` apath is not in the manifest.
    SubtreeNotFound(String),
    /// The restore destination root could not be created.
    Dest(PathBuf, String),
}

impl fmt::Display for TreeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TreeError::Walk(path, e) => {
                write!(f, "cannot read tree root {}: {e}", path.display())
            }
            TreeError::NotADirectory(path) => {
                write!(f, "{} is not a directory", path.display())
            }
            TreeError::System(e) => write!(f, "{e}"),
            TreeError::NotATreeBackup(v) => {
                write!(f, "version {v} is not a tree backup")
            }
            TreeError::Corrupt(detail) => write!(f, "corrupt tree manifest: {detail}"),
            TreeError::SubtreeNotFound(apath) => {
                write!(f, "subtree {apath:?} is not in this backup")
            }
            TreeError::Dest(path, e) => {
                write!(f, "cannot create destination {}: {e}", path.display())
            }
        }
    }
}

impl std::error::Error for TreeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TreeError::System(e) => Some(e),
            _ => None,
        }
    }
}

impl From<HiDeStoreError> for TreeError {
    fn from(e: HiDeStoreError) -> Self {
        TreeError::System(e)
    }
}
