//! Tree backup: walk, capture, and feed through the dedup pipeline.

use std::path::{Path, PathBuf};

use hidestore_core::{HiDeStore, VersionStats};
use hidestore_failpoint::{Vfs, VfsEntryKind};
use hidestore_storage::ContainerStore;

use crate::exclude::ExcludeSet;
use crate::manifest::{EntryPayload, ManifestEntry, TreeManifest};
use crate::{apath, SkippedEntry, TreeError};

/// Options for [`backup_tree`].
#[derive(Debug, Clone, Default)]
pub struct TreeBackupOptions {
    /// Entries (and, for directories, whole subtrees) to leave out.
    pub excludes: ExcludeSet,
}

/// The outcome of one tree backup.
#[derive(Debug, Clone)]
pub struct TreeBackupReport {
    /// The pipeline's per-version statistics (version id, dedup ratio, …).
    pub stats: VersionStats,
    /// Regular files stored.
    pub files: u64,
    /// Directories stored (including the root and empty ones).
    pub dirs: u64,
    /// Symlinks stored.
    pub symlinks: u64,
    /// Total file-content bytes stored (the content region's length).
    pub content_bytes: u64,
    /// Entries skipped by an exclude pattern (not an error).
    pub excluded: u64,
    /// Entries that could not be read: logged here, left out of the
    /// manifest, and reported by the CLI as a non-zero exit — the backup
    /// itself never aborts for one bad entry.
    pub skipped: Vec<SkippedEntry>,
}

impl TreeBackupReport {
    /// Whether every walkable entry made it into the backup.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.skipped.is_empty()
    }
}

/// One walked entry awaiting content capture.
struct PendingEntry {
    entry: ManifestEntry,
    /// Source path for file entries (content read happens after the walk).
    src: Option<PathBuf>,
}

/// Backs up the directory tree rooted at `root` as one new version.
///
/// The walk visits entries in apath order (depth-first, bytewise-sorted
/// names), applies `options.excludes`, and captures mtime, permission
/// bits, symlink targets, and empty directories. File contents are
/// concatenated (in apath order) behind the serialized manifest and fed
/// through the ordinary chunk→dedup→container pipeline, so the whole tree
/// is one recipe-backed version stream.
///
/// Per-entry resilience: an unreadable entry (stat, readdir, readlink, or
/// content read failure; unsupported kinds like fifos; names that are not
/// UTF-8) is recorded in [`TreeBackupReport::skipped`] and the walk
/// continues — one bad entry never aborts the backup.
///
/// # Errors
///
/// [`TreeError`] when `root` itself is unreadable or not a directory, or
/// when the pipeline rejects the stream. Individual entry failures are
/// *not* errors; see [`TreeBackupReport::skipped`].
pub fn backup_tree<S, V>(
    system: &mut HiDeStore<S>,
    vfs: &V,
    root: &Path,
    options: &TreeBackupOptions,
) -> Result<TreeBackupReport, TreeError>
where
    S: ContainerStore,
    V: Vfs,
{
    let root_meta = vfs
        .symlink_metadata(root)
        .map_err(|e| TreeError::Walk(root.to_path_buf(), e.to_string()))?;
    if root_meta.kind != VfsEntryKind::Dir {
        return Err(TreeError::NotADirectory(root.to_path_buf()));
    }

    let mut pending: Vec<PendingEntry> = vec![PendingEntry {
        entry: ManifestEntry {
            apath: apath::ROOT.to_string(),
            mode: root_meta.mode,
            mtime_secs: root_meta.mtime_secs,
            mtime_nanos: root_meta.mtime_nanos,
            payload: EntryPayload::Dir,
        },
        src: None,
    }];
    let mut skipped = Vec::new();
    let mut excluded = 0u64;
    walk_dir(
        vfs,
        root,
        apath::ROOT,
        options,
        &mut pending,
        &mut skipped,
        &mut excluded,
    );

    // Content capture: read file bodies in apath order. A failed read
    // demotes the entry to `skipped` — offsets stay contiguous because they
    // are assigned only on success, from the bytes actually read (the
    // authoritative size; the stat len may have raced a writer).
    let mut contents: Vec<u8> = Vec::new();
    let mut entries: Vec<ManifestEntry> = Vec::with_capacity(pending.len());
    let mut files = 0u64;
    let mut dirs = 0u64;
    let mut symlinks = 0u64;
    for p in pending {
        let mut entry = p.entry;
        match (&entry.payload, &p.src) {
            (EntryPayload::File { .. }, Some(src)) => match vfs.read(src) {
                Ok(bytes) => {
                    entry.payload = EntryPayload::File {
                        offset: contents.len() as u64,
                        size: bytes.len() as u64,
                    };
                    contents.extend_from_slice(&bytes);
                    files += 1;
                }
                Err(e) => {
                    skipped.push(SkippedEntry {
                        apath: entry.apath,
                        reason: format!("unreadable: {e}"),
                    });
                    continue;
                }
            },
            (EntryPayload::Dir, _) => dirs += 1,
            (EntryPayload::Symlink { .. }, _) => symlinks += 1,
            (EntryPayload::File { .. }, None) => continue,
        }
        entries.push(entry);
    }

    let manifest = TreeManifest { entries };
    let content_bytes = contents.len() as u64;
    let stream = manifest.encode_stream(&contents);
    drop(contents);
    let stats = system.backup(&stream).map_err(TreeError::System)?;
    Ok(TreeBackupReport {
        stats,
        files,
        dirs,
        symlinks,
        content_bytes,
        excluded,
        skipped,
    })
}

/// Walks one directory, pushing entries in apath order. Never fails: every
/// per-entry problem lands in `skipped`.
fn walk_dir<V: Vfs>(
    vfs: &V,
    dir: &Path,
    dir_apath: &str,
    options: &TreeBackupOptions,
    pending: &mut Vec<PendingEntry>,
    skipped: &mut Vec<SkippedEntry>,
    excluded: &mut u64,
) {
    let children = match vfs.read_dir(dir) {
        Ok(c) => c,
        Err(e) => {
            skipped.push(SkippedEntry {
                apath: dir_apath.to_string(),
                reason: format!("unreadable directory: {e}"),
            });
            return;
        }
    };
    // `Vfs::read_dir` returns entries sorted by name, which is exactly the
    // bytewise sibling order the manifest requires.
    for child in children {
        let Some(name) = child.file_name().and_then(|n| n.to_str()) else {
            skipped.push(SkippedEntry {
                apath: format!("{dir_apath}/<non-UTF-8 name>"),
                reason: "file name is not valid UTF-8".to_string(),
            });
            continue;
        };
        if !apath::valid_component(name) || name.len() > u16::MAX as usize {
            skipped.push(SkippedEntry {
                apath: apath::join(dir_apath, name),
                reason: "name is not a valid apath component".to_string(),
            });
            continue;
        }
        let child_apath = apath::join(dir_apath, name);
        if child_apath.len() > u16::MAX as usize {
            skipped.push(SkippedEntry {
                apath: child_apath,
                reason: "path too long for the manifest".to_string(),
            });
            continue;
        }
        if options.excludes.matches(&child_apath) {
            *excluded += 1;
            continue;
        }
        let meta = match vfs.symlink_metadata(&child) {
            Ok(m) => m,
            Err(e) => {
                skipped.push(SkippedEntry {
                    apath: child_apath,
                    reason: format!("unreadable: {e}"),
                });
                continue;
            }
        };
        let payload = match meta.kind {
            VfsEntryKind::Dir => EntryPayload::Dir,
            VfsEntryKind::File => EntryPayload::File { offset: 0, size: 0 },
            VfsEntryKind::Symlink => match vfs.read_link(&child) {
                Ok(target) => match target.to_str() {
                    Some(t) if !t.is_empty() && t.len() <= u16::MAX as usize => {
                        EntryPayload::Symlink {
                            target: t.to_string(),
                        }
                    }
                    _ => {
                        skipped.push(SkippedEntry {
                            apath: child_apath,
                            reason: "symlink target is empty, overlong, or not UTF-8".to_string(),
                        });
                        continue;
                    }
                },
                Err(e) => {
                    skipped.push(SkippedEntry {
                        apath: child_apath,
                        reason: format!("unreadable symlink: {e}"),
                    });
                    continue;
                }
            },
            VfsEntryKind::Other => {
                skipped.push(SkippedEntry {
                    apath: child_apath,
                    reason: "unsupported entry kind (fifo, socket, or device)".to_string(),
                });
                continue;
            }
        };
        let is_dir = matches!(payload, EntryPayload::Dir);
        let is_file = matches!(payload, EntryPayload::File { .. });
        pending.push(PendingEntry {
            entry: ManifestEntry {
                apath: child_apath.clone(),
                mode: meta.mode,
                mtime_secs: meta.mtime_secs,
                mtime_nanos: meta.mtime_nanos,
                payload,
            },
            src: is_file.then(|| child.clone()),
        });
        if is_dir {
            // Depth-first: a directory's subtree precedes its next sibling.
            walk_dir(
                vfs,
                &child,
                &child_apath,
                options,
                pending,
                skipped,
                excluded,
            );
        }
    }
}
