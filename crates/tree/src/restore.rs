//! Tree restore: full-tree and subtree-selective, planned from the
//! manifest so partial restores read only the containers they need.

use std::io::Write;
use std::path::{Path, PathBuf};

use hidestore_core::HiDeStore;
use hidestore_failpoint::Vfs;
use hidestore_restore::{Faa, RestoreEntry};
use hidestore_storage::{ContainerStore, VersionId};

use crate::manifest::{
    decode_stream_header, EntryPayload, TreeManifest, STREAM_HEADER_LEN, STREAM_MAGIC,
};
use crate::{apath, SkippedEntry, TreeError};

/// Suffix of the per-file staging name: every file is written to
/// `<name>.hds-tmp` and renamed into place only when complete, so a crashed
/// restore never leaves a truncated file under a final name.
pub const TMP_SUFFIX: &str = ".hds-tmp";

/// Options for [`restore_tree`].
#[derive(Debug, Clone)]
pub struct TreeRestoreOptions {
    /// Restore only this apath (a directory subtree, single file, or
    /// symlink) instead of the whole tree. The subtree root lands directly
    /// at the destination.
    pub subtree: Option<String>,
    /// Budget of the container cache shared across all per-file fetches.
    pub cache_bytes: usize,
}

impl Default for TreeRestoreOptions {
    fn default() -> Self {
        TreeRestoreOptions {
            subtree: None,
            cache_bytes: 32 << 20,
        }
    }
}

/// The outcome of one tree restore.
#[derive(Debug, Clone, Default)]
pub struct TreeRestoreReport {
    /// Regular files restored (content, permission bits, mtime).
    pub files: u64,
    /// Directories restored.
    pub dirs: u64,
    /// Symlinks recreated.
    pub symlinks: u64,
    /// File-content bytes written to the destination.
    pub bytes_restored: u64,
    /// Container reads performed across every fetch — the partiality
    /// metric: a subtree restore's count is proportional to the data it
    /// needed, not to the whole backup.
    pub container_reads: u64,
    /// Entries that could not be restored (undecodable content, destination
    /// I/O failure, metadata reapplication failure): logged here and
    /// reported by the CLI as a non-zero exit — never an abort.
    pub skipped: Vec<SkippedEntry>,
}

impl TreeRestoreReport {
    /// Whether every selected entry was restored with its metadata.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.skipped.is_empty()
    }
}

/// Restores `version` (a tree backup made by [`crate::backup_tree`]) under
/// the `dest` directory.
///
/// The restore plans from the manifest: it fetches the stream header and
/// manifest first, selects the requested entries, and then reads *only* the
/// byte ranges — and therefore only the containers — those entries need.
/// Every file is staged to `<name>.hds-tmp` and renamed into place, then
/// its permission bits and mtime are reapplied; directory metadata is
/// applied children-first after all content lands, so a parent's mtime is
/// not clobbered by writes beneath it.
///
/// Per-entry resilience: an entry whose chunks cannot be decoded or whose
/// destination write fails is recorded in [`TreeRestoreReport::skipped`]
/// and the restore continues with the next entry.
///
/// # Errors
///
/// [`TreeError`] when the version does not exist or is not a tree backup,
/// the manifest is corrupt, the requested subtree is absent, or the
/// destination root cannot be created. Individual entry failures are *not*
/// errors; see [`TreeRestoreReport::skipped`].
pub fn restore_tree<S, V>(
    system: &HiDeStore<S>,
    vfs: &V,
    version: VersionId,
    dest: &Path,
    options: &TreeRestoreOptions,
) -> Result<TreeRestoreReport, TreeError>
where
    S: ContainerStore,
    V: Vfs,
{
    let plan = system.restore_plan(version).map_err(TreeError::System)?;
    // Prefix sums: chunk i covers stream bytes [offsets[i], offsets[i+1]).
    let mut offsets: Vec<u64> = Vec::with_capacity(plan.len() + 1);
    let mut total = 0u64;
    offsets.push(0);
    for e in &plan {
        total += e.size as u64;
        offsets.push(total);
    }
    if total < STREAM_HEADER_LEN {
        return Err(TreeError::NotATreeBackup(version));
    }

    let mut fetcher = RangeFetcher {
        plan,
        offsets,
        total,
        cache: Faa::new(options.cache_bytes.max(1 << 16)),
        container_reads: 0,
    };

    let header = fetcher.fetch(system, 0, STREAM_HEADER_LEN)?;
    if header[..4] != STREAM_MAGIC {
        return Err(TreeError::NotATreeBackup(version));
    }
    let manifest_len =
        decode_stream_header(&header).map_err(|e| TreeError::Corrupt(e.to_string()))? as u64;
    if STREAM_HEADER_LEN + manifest_len > total {
        return Err(TreeError::Corrupt(format!(
            "manifest length {manifest_len} exceeds stream of {total} bytes"
        )));
    }
    let manifest_bytes = fetcher.fetch(system, STREAM_HEADER_LEN, manifest_len)?;
    let manifest =
        TreeManifest::decode(&manifest_bytes).map_err(|e| TreeError::Corrupt(e.to_string()))?;
    let content_base = STREAM_HEADER_LEN + manifest_len;
    let content_len = total - content_base;

    // Selection: the whole tree, or the subtree rooted at the given apath.
    let subtree = match &options.subtree {
        None => apath::ROOT.to_string(),
        Some(s) => {
            if !apath::valid(s) {
                return Err(TreeError::SubtreeNotFound(s.clone()));
            }
            if !manifest.entries.iter().any(|e| e.apath == *s) {
                return Err(TreeError::SubtreeNotFound(s.clone()));
            }
            s.clone()
        }
    };
    let selected: Vec<&crate::manifest::ManifestEntry> = manifest
        .entries
        .iter()
        .filter(|e| apath::is_or_under(&e.apath, &subtree))
        .collect();

    // Destination root: a directory for tree/subtree roots, the parent for
    // a single-file or single-symlink selection.
    let root_is_dir = selected
        .first()
        .is_some_and(|e| matches!(e.payload, EntryPayload::Dir));
    let dest_err = |e: std::io::Error| TreeError::Dest(dest.to_path_buf(), e.to_string());
    if root_is_dir {
        vfs.create_dir_all(dest).map_err(dest_err)?;
    } else if let Some(parent) = dest.parent() {
        if !parent.as_os_str().is_empty() {
            vfs.create_dir_all(parent).map_err(dest_err)?;
        }
    }

    let mut report = TreeRestoreReport::default();
    // Directories whose metadata is applied once everything beneath them
    // has landed (deepest entries last in walk order, so reverse order is
    // children-first).
    let mut dir_meta: Vec<(PathBuf, u32, i64, u32)> = Vec::new();

    for entry in &selected {
        let rel = apath::strip_prefix(&entry.apath, &subtree);
        let path = dest_path(dest, rel);
        match &entry.payload {
            EntryPayload::Dir => {
                if let Err(e) = vfs.create_dir_all(&path) {
                    report.skipped.push(SkippedEntry {
                        apath: entry.apath.clone(),
                        reason: format!("cannot create directory: {e}"),
                    });
                    continue;
                }
                report.dirs += 1;
                dir_meta.push((path, entry.mode, entry.mtime_secs, entry.mtime_nanos));
            }
            EntryPayload::File { offset, size } => {
                if offset + size > content_len {
                    report.skipped.push(SkippedEntry {
                        apath: entry.apath.clone(),
                        reason: format!(
                            "dangling content range {offset}+{size} beyond {content_len}"
                        ),
                    });
                    continue;
                }
                let bytes = if *size == 0 {
                    Vec::new()
                } else {
                    match fetcher.fetch(system, content_base + offset, *size) {
                        Ok(b) => b,
                        Err(e) => {
                            report.skipped.push(SkippedEntry {
                                apath: entry.apath.clone(),
                                reason: format!("content unrestorable: {e}"),
                            });
                            continue;
                        }
                    }
                };
                match place_file(
                    vfs,
                    &path,
                    &bytes,
                    entry.mode,
                    entry.mtime_secs,
                    entry.mtime_nanos,
                ) {
                    Ok(()) => {
                        report.files += 1;
                        report.bytes_restored += bytes.len() as u64;
                    }
                    Err(e) => {
                        report.skipped.push(SkippedEntry {
                            apath: entry.apath.clone(),
                            reason: format!("cannot write: {e}"),
                        });
                    }
                }
            }
            EntryPayload::Symlink { target } => {
                // Replace any stale entry so re-restores are idempotent.
                if vfs.exists(&path) || vfs.read_link(&path).is_ok() {
                    let _ = vfs.remove_file(&path);
                }
                match vfs.symlink(Path::new(target), &path) {
                    Ok(()) => report.symlinks += 1,
                    Err(e) => {
                        report.skipped.push(SkippedEntry {
                            apath: entry.apath.clone(),
                            reason: format!("cannot create symlink: {e}"),
                        });
                    }
                }
            }
        }
    }

    // Metadata for directories, children-first.
    for (path, mode, secs, nanos) in dir_meta.into_iter().rev() {
        if let Err(e) = vfs
            .set_mode(&path, mode)
            .and_then(|()| vfs.set_mtime(&path, secs, nanos))
        {
            report.skipped.push(SkippedEntry {
                apath: format!("{}", path.display()),
                reason: format!("directory metadata: {e}"),
            });
        }
    }

    report.container_reads = fetcher.container_reads;
    Ok(report)
}

/// Maps a destination-relative apath onto a filesystem path under `dest`.
fn dest_path(dest: &Path, rel: &str) -> PathBuf {
    let mut path = dest.to_path_buf();
    if rel != apath::ROOT {
        for component in rel.trim_start_matches('/').split('/') {
            path.push(component);
        }
    }
    path
}

/// Stages, publishes, and re-applies metadata for one file. Any failure
/// cleans up the staging file.
fn place_file<V: Vfs>(
    vfs: &V,
    path: &Path,
    bytes: &[u8],
    mode: u32,
    mtime_secs: i64,
    mtime_nanos: u32,
) -> std::io::Result<()> {
    let mut name = path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_default();
    name.push(TMP_SUFFIX);
    let tmp = path.with_file_name(name);
    let result = (|| {
        vfs.write(&tmp, bytes)?;
        vfs.sync_file(&tmp)?;
        vfs.rename(&tmp, path)?;
        vfs.set_mode(path, mode)?;
        vfs.set_mtime(path, mtime_secs, mtime_nanos)
    })();
    if result.is_err() {
        let _ = vfs.remove_file(&tmp);
    }
    result
}

/// Fetches arbitrary byte ranges of the version stream by restoring only
/// the chunk entries that cover them, through one shared container cache.
struct RangeFetcher {
    plan: Vec<RestoreEntry>,
    /// `plan.len() + 1` prefix sums of chunk sizes.
    offsets: Vec<u64>,
    total: u64,
    cache: Faa,
    container_reads: u64,
}

impl RangeFetcher {
    /// Restores stream bytes `[start, start + len)`.
    fn fetch<S: ContainerStore>(
        &mut self,
        system: &HiDeStore<S>,
        start: u64,
        len: u64,
    ) -> Result<Vec<u8>, TreeError> {
        if len == 0 {
            return Ok(Vec::new());
        }
        let end = start + len;
        debug_assert!(end <= self.total);
        // First chunk whose range contains `start`; one past the last chunk
        // overlapping `end`.
        let first = self.offsets.partition_point(|&o| o <= start) - 1;
        let last = self.offsets.partition_point(|&o| o < end);
        let entries = &self.plan[first..last];
        let mut sink = SkipTake {
            skip: start - self.offsets[first],
            want: len,
            buf: Vec::with_capacity(len as usize),
        };
        let report = system
            // Fourth argument: ignored, kept for the benchmark harness.
            .restore_entries(entries, &mut self.cache, &mut sink, &Default::default())
            .map_err(TreeError::System)?;
        self.container_reads += report.container_reads;
        if sink.buf.len() as u64 != len {
            return Err(TreeError::Corrupt(format!(
                "range fetch returned {} bytes, wanted {len}",
                sink.buf.len()
            )));
        }
        Ok(sink.buf)
    }
}

/// A writer that discards a leading `skip` bytes, captures `want` bytes,
/// and ignores the tail of the final chunk.
struct SkipTake {
    skip: u64,
    want: u64,
    buf: Vec<u8>,
}

impl Write for SkipTake {
    fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
        let len = data.len();
        let mut data = data;
        if self.skip > 0 {
            let drop = (self.skip).min(data.len() as u64) as usize;
            data = &data[drop..];
            self.skip -= drop as u64;
        }
        let have = self.buf.len() as u64;
        if have < self.want {
            let take = ((self.want - have) as usize).min(data.len());
            self.buf.extend_from_slice(&data[..take]);
        }
        Ok(len)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}
