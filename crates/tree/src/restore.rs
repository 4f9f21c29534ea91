//! Tree restore: full-tree and subtree-selective, planned from the
//! manifest so partial restores read only the containers they need.
//!
//! Every read is a byte range of the resolved version
//! ([`ResolvedVersion::restore_range`], core's one way to read part of a
//! version): [`read_manifest`] takes the header and the manifest, and the
//! content phase is one range per run of contiguous selected files (a
//! whole tree or a subtree is one run). Each container is read once per
//! FAA area and its bytes are scattered into the file being filled, which
//! is placed the moment it is complete.

use std::io::Write;
use std::ops::Range;
use std::path::{Path, PathBuf};

use hidestore_core::{HiDeStore, ResolvedVersion, RESTORE_AREA_BYTES};
use hidestore_failpoint::Vfs;
use hidestore_restore::Faa;
use hidestore_storage::{ContainerStore, VersionId};

use crate::manifest::{
    decode_stream_header, is_tree_stream, EntryPayload, ManifestEntry, ManifestError, TreeManifest,
    STREAM_HEADER_LEN,
};
use crate::{apath, SkippedEntry, TreeError};

/// Suffix of the per-file staging name: every file is written to
/// `<name>.hds-tmp` and renamed into place only when complete, so a crashed
/// restore never leaves a truncated file under a final name.
pub const TMP_SUFFIX: &str = ".hds-tmp";

/// Options for [`restore_tree`].
#[derive(Debug, Clone, Default)]
pub struct TreeRestoreOptions {
    /// Restore only this apath (a directory subtree, single file, or
    /// symlink) instead of the whole tree. The subtree root lands directly
    /// at the destination.
    pub subtree: Option<String>,
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
    /// Container reads performed across every pass — the partiality
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
/// The restore plans from the manifest: it resolves the version once,
/// reads the stream header and manifest through [`read_manifest`], selects
/// the requested entries, creates their directories and symlinks, and then
/// restores *only* the byte ranges — and therefore only the containers —
/// the selected files need. Files whose contents are contiguous in the
/// stream (all of them, for a whole tree or a subtree) share one FAA pass,
/// so each container is read once per 32 MiB area rather than once per
/// file. Every file is staged to `<name>.hds-tmp` as soon as its last byte
/// arrives, synced, renamed into place, and given its permission bits and
/// mtime; directory metadata is applied children-first after all content
/// lands, so a parent's mtime is not clobbered by writes beneath it.
///
/// Per-entry resilience: a destination failure skips only its entry. When
/// a pass fails on a container read, each file it had not yet placed is
/// retried on a pass of its own, so only the files whose chunks cannot be
/// read are skipped. Skips are recorded in [`TreeRestoreReport::skipped`]
/// and the restore continues.
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
    let version = system.resolve(version)?;
    let TreeStream {
        manifest,
        contents,
        container_reads,
    } = read_manifest(&version)?;
    let content_len = contents.end - contents.start;
    let mut stream = Stream {
        faa: Faa::new(RESTORE_AREA_BYTES),
        container_reads,
    };

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
    let selected: Vec<&ManifestEntry> = manifest
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
    let mut dir_meta: Vec<(&ManifestEntry, PathBuf)> = Vec::new();
    // Files in walk order, which is content order.
    let mut files: Vec<FileJob> = Vec::new();

    for &entry in &selected {
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
                dir_meta.push((entry, path));
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
                files.push(FileJob {
                    entry,
                    path,
                    start: contents.start + offset,
                    len: *size,
                });
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

    // Content: one pass per run of files that follow each other in the
    // stream; a whole tree or a subtree is one run, because manifest
    // extents are contiguous in walk order. A pass that fails leaves its
    // unplaced files to passes of their own, so a lost container costs
    // only the files it holds.
    for run in files.chunk_by(|a, b| a.start + a.len == b.start) {
        let lens: Vec<u64> = run.iter().map(|f| f.len).collect();
        let mut handed = 0;
        let outcome = stream.pass(&version, run[0].start, &lens, |i, bytes| {
            handed = i + 1;
            run[i].place(vfs, bytes, &mut report);
        });
        if outcome.is_err() {
            for file in &run[handed..] {
                let alone = stream.pass(&version, file.start, &[file.len], |_, bytes| {
                    file.place(vfs, bytes, &mut report);
                });
                if let Err(e) = alone {
                    report.skipped.push(SkippedEntry {
                        apath: file.entry.apath.clone(),
                        reason: format!("content unrestorable: {e}"),
                    });
                }
            }
        }
    }

    // Metadata for directories, children-first.
    for (entry, path) in dir_meta.into_iter().rev() {
        if let Err(e) = vfs
            .set_mode(&path, entry.mode)
            .and_then(|()| vfs.set_mtime(&path, entry.mtime_secs, entry.mtime_nanos))
        {
            report.skipped.push(SkippedEntry {
                apath: entry.apath.clone(),
                reason: format!("directory metadata: {e}"),
            });
        }
    }

    report.container_reads = stream.container_reads;
    Ok(report)
}

/// A selected regular file and where its bytes sit in the stream.
struct FileJob<'a> {
    entry: &'a ManifestEntry,
    path: PathBuf,
    /// Stream offset of the first content byte.
    start: u64,
    len: u64,
}

impl FileJob<'_> {
    /// Places the file's complete contents, recording the outcome.
    fn place<V: Vfs>(&self, vfs: &V, bytes: &[u8], report: &mut TreeRestoreReport) {
        let entry = self.entry;
        match place_file(
            vfs,
            &self.path,
            bytes,
            entry.mode,
            entry.mtime_secs,
            entry.mtime_nanos,
        ) {
            Ok(()) => {
                report.files += 1;
                report.bytes_restored += bytes.len() as u64;
            }
            Err(e) => report.skipped.push(SkippedEntry {
                apath: entry.apath.clone(),
                reason: format!("cannot write: {e}"),
            }),
        }
    }
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

/// A tree backup's manifest and where its file contents sit in the
/// version stream.
#[derive(Debug)]
pub struct TreeStream {
    /// The decoded manifest.
    pub manifest: TreeManifest,
    /// Stream bytes of the content region: a file entry's `offset` counts
    /// from `contents.start`.
    pub contents: Range<u64>,
    /// Container reads the header and manifest took.
    pub container_reads: u64,
}

/// Reads a tree backup's framing from its resolved version: the stream
/// header, its magic, the manifest length against the stream, and the
/// manifest itself, each byte range restored on its own so only the
/// containers under the header and manifest are read.
///
/// # Errors
///
/// [`TreeError::NotATreeBackup`] when the stream is shorter than the
/// header or lacks the tree magic; [`TreeError::Corrupt`] when the header
/// or manifest does not decode or the manifest runs past the stream;
/// [`TreeError::System`] when a chunk cannot be read.
pub fn read_manifest<S: ContainerStore>(
    version: &ResolvedVersion<'_, S>,
) -> Result<TreeStream, TreeError> {
    let total = version.total_bytes();
    let not_a_tree = || TreeError::NotATreeBackup(version.version());
    let corrupt = |e: ManifestError| TreeError::Corrupt(e.to_string());
    let mut faa = Faa::new(RESTORE_AREA_BYTES);
    let mut container_reads = 0;
    let mut read = |range: Range<u64>| -> Result<Vec<u8>, TreeError> {
        let mut bytes = Vec::new();
        container_reads += version
            .restore_range(range, &mut faa, &mut bytes)?
            .container_reads;
        Ok(bytes)
    };
    if total < STREAM_HEADER_LEN {
        return Err(not_a_tree());
    }
    let header = read(0..STREAM_HEADER_LEN)?;
    if !is_tree_stream(&header) {
        return Err(not_a_tree());
    }
    let manifest_end =
        STREAM_HEADER_LEN + u64::from(decode_stream_header(&header).map_err(corrupt)?);
    if manifest_end > total {
        return Err(TreeError::Corrupt(format!(
            "manifest length {} exceeds stream of {total} bytes",
            manifest_end - STREAM_HEADER_LEN
        )));
    }
    let manifest =
        TreeManifest::decode(&read(STREAM_HEADER_LEN..manifest_end)?).map_err(corrupt)?;
    Ok(TreeStream {
        manifest,
        contents: manifest_end..total,
        container_reads,
    })
}

/// The content passes' FAA and the container reads summed across every
/// pass of one tree restore.
struct Stream {
    faa: Faa,
    container_reads: u64,
}

impl Stream {
    /// One pass over the consecutive pieces of `lens` bytes starting at
    /// stream offset `start`: restores only the chunks covering them and
    /// calls `done(i, bytes)` the moment piece `i` is complete.
    ///
    /// A read failure or a stream that ends early is an error; the pieces
    /// handed to `done` before it stay handed.
    fn pass<S: ContainerStore>(
        &mut self,
        version: &ResolvedVersion<'_, S>,
        start: u64,
        lens: &[u64],
        done: impl FnMut(usize, &[u8]),
    ) -> Result<(), TreeError> {
        let want: u64 = lens.iter().sum();
        let mut sink = Scatter {
            lens,
            next: 0,
            buf: Vec::new(),
            done,
        };
        let report = version.restore_range(start..start + want, &mut self.faa, &mut sink)?;
        self.container_reads += report.container_reads;
        // Empty pieces after the last byte (or in a pass with no bytes).
        sink.settle();
        if sink.next < lens.len() {
            let got = lens[..sink.next].iter().sum::<u64>() + sink.buf.len() as u64;
            return Err(TreeError::Corrupt(format!(
                "range fetch returned {got} bytes, wanted {want}"
            )));
        }
        Ok(())
    }
}

/// The sink of every pass: gathers the consecutive pieces of `lens` bytes
/// one at a time and hands each to `done` as soon as it is complete.
struct Scatter<'a, F> {
    lens: &'a [u64],
    /// The piece being gathered.
    next: usize,
    buf: Vec<u8>,
    done: F,
}

impl<F: FnMut(usize, &[u8])> Scatter<'_, F> {
    /// Hands over every complete piece at the cursor, empty ones included.
    fn settle(&mut self) {
        while self.next < self.lens.len() && self.buf.len() as u64 == self.lens[self.next] {
            (self.done)(self.next, &self.buf);
            self.buf.clear();
            self.next += 1;
        }
    }
}

impl<F: FnMut(usize, &[u8])> Write for Scatter<'_, F> {
    fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
        let len = data.len();
        let mut data = data;
        while !data.is_empty() && self.next < self.lens.len() {
            let want = (self.lens[self.next] - self.buf.len() as u64) as usize;
            let take = want.min(data.len());
            self.buf.extend_from_slice(&data[..take]);
            data = &data[take..];
            self.settle();
        }
        Ok(len)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}
