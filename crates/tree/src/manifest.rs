//! The tree manifest: the versioned, fsck-auditable record of one tree
//! backup.
//!
//! A tree backup is stored as one ordinary version stream, so it rides the
//! existing recipe machinery unchanged — chunked, deduplicated, journaled,
//! and audited exactly like a byte-stream backup:
//!
//! ```text
//! "HDST" | manifest_len: u32 LE | manifest bytes | file contents …
//! ```
//!
//! The manifest (magic `HDSM`) lists every entry in apath order. File
//! entries carry `(offset, size)` into the *content region* (the bytes
//! after the manifest), which is the concatenation of all file bodies in
//! apath order. A restore therefore reads the stream prefix to get the
//! manifest, then maps any subset of files onto byte ranges — and via the
//! recipe's restore plan onto the exact containers holding them.

use std::fmt;

use hidestore_proto::wire::{ByteReader, ByteWriter, DecodeError};

use crate::apath;

/// Magic prefix of a tree-backup version stream.
pub const STREAM_MAGIC: [u8; 4] = *b"HDST";

/// Magic prefix of an encoded manifest.
pub const MANIFEST_MAGIC: [u8; 4] = *b"HDSM";

/// Length of the stream header (magic + manifest length).
pub const STREAM_HEADER_LEN: u64 = 8;

/// Manifest format version written by this crate.
const FORMAT_VERSION: u32 = 1;

/// The kind-specific payload of a manifest entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EntryPayload {
    /// A directory (possibly empty — empty directories are preserved).
    Dir,
    /// A regular file occupying `[offset, offset + size)` of the content
    /// region.
    File {
        /// Byte offset in the content region.
        offset: u64,
        /// Byte length.
        size: u64,
    },
    /// A symlink and its verbatim (possibly dangling) target.
    Symlink {
        /// The link target, byte-for-byte as read.
        target: String,
    },
}

/// One entry of a tree manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestEntry {
    /// The entry's apath (see [`crate::apath`]).
    pub apath: String,
    /// Unix permission bits (not meaningful for symlinks).
    pub mode: u32,
    /// Mtime whole seconds since the epoch.
    pub mtime_secs: i64,
    /// Mtime subsecond nanoseconds.
    pub mtime_nanos: u32,
    /// Kind-specific payload.
    pub payload: EntryPayload,
}

impl ManifestEntry {
    /// Single-byte kind tag used on the wire.
    fn kind_tag(&self) -> u8 {
        match self.payload {
            EntryPayload::Dir => 0,
            EntryPayload::File { .. } => 1,
            EntryPayload::Symlink { .. } => 2,
        }
    }
}

/// A decoded (or to-be-encoded) tree manifest.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TreeManifest {
    /// Entries in apath order, root first.
    pub entries: Vec<ManifestEntry>,
}

/// Why a manifest failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestError(pub String);

impl fmt::Display for ManifestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "corrupt tree manifest: {}", self.0)
    }
}

impl std::error::Error for ManifestError {}

impl From<DecodeError> for ManifestError {
    fn from(e: DecodeError) -> Self {
        ManifestError(e.to_string())
    }
}

impl TreeManifest {
    /// Encodes the manifest body (magic, version, count, entries).
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::with_capacity(16 + self.entries.len() * 48);
        w.raw(&MANIFEST_MAGIC);
        w.u32(FORMAT_VERSION);
        w.len_u32(self.entries.len());
        for e in &self.entries {
            w.u8(e.kind_tag());
            w.string_u16(&e.apath);
            w.u32(e.mode);
            w.i64(e.mtime_secs);
            w.u32(e.mtime_nanos);
            match &e.payload {
                EntryPayload::Dir => {}
                EntryPayload::File { offset, size } => {
                    w.u64(*offset);
                    w.u64(*size);
                }
                EntryPayload::Symlink { target } => w.string_u16(target),
            }
        }
        w.into_bytes()
    }

    /// Builds the full version stream: header, manifest, content region.
    #[must_use]
    pub fn encode_stream(&self, contents: &[u8]) -> Vec<u8> {
        let body = self.encode();
        let mut w = ByteWriter::with_capacity(8 + body.len() + contents.len());
        w.raw(&STREAM_MAGIC);
        w.len_u32(body.len());
        w.raw(&body);
        w.raw(contents);
        w.into_bytes()
    }

    /// Decodes and validates a manifest body.
    ///
    /// Validation: magic and format version, bounded lengths, valid apaths
    /// in strictly increasing walk order (root first), valid UTF-8
    /// throughout, and monotone non-overlapping file extents.
    ///
    /// # Errors
    ///
    /// [`ManifestError`] describing the first violation.
    pub fn decode(bytes: &[u8]) -> Result<Self, ManifestError> {
        let mut r = ByteReader::new(bytes);
        if r.array()? != MANIFEST_MAGIC {
            return Err(ManifestError("bad magic".into()));
        }
        let version = r.u32()?;
        if version != FORMAT_VERSION {
            return Err(ManifestError(format!("unknown format version {version}")));
        }
        // The smallest entry: kind, apath length, mode, mtime.
        let count = r.count_within("manifest entries", 19)?;
        let mut entries = Vec::with_capacity(count);
        let mut next_offset = 0u64;
        for i in 0..count {
            let at = |e: DecodeError| ManifestError(format!("entry {i}: {e}"));
            let tag = r.u8().map_err(at)?;
            let apath = r.string_u16().map_err(at)?;
            if !apath::valid(&apath) {
                return Err(ManifestError(format!("entry {i}: invalid apath {apath:?}")));
            }
            let mode = r.u32().map_err(at)?;
            let mtime_secs = r.i64().map_err(at)?;
            let mtime_nanos = r.u32().map_err(at)?;
            if mtime_nanos >= 1_000_000_000 {
                return Err(ManifestError(format!(
                    "entry {i} ({apath}): mtime nanos {mtime_nanos} out of range"
                )));
            }
            let payload = match tag {
                0 => EntryPayload::Dir,
                1 => {
                    let offset = r.u64().map_err(at)?;
                    let size = r.u64().map_err(at)?;
                    if offset != next_offset {
                        return Err(ManifestError(format!(
                            "entry {i} ({apath}): file extent starts at {offset}, \
                             expected contiguous {next_offset}"
                        )));
                    }
                    next_offset = offset
                        .checked_add(size)
                        .ok_or_else(|| ManifestError(format!("entry {i}: extent overflow")))?;
                    EntryPayload::File { offset, size }
                }
                2 => {
                    let target = r.string_u16().map_err(at)?;
                    if target.is_empty() {
                        return Err(ManifestError(format!("entry {i} ({apath}): empty target")));
                    }
                    EntryPayload::Symlink { target }
                }
                other => {
                    return Err(ManifestError(format!("entry {i}: unknown kind {other}")));
                }
            };
            entries.push(ManifestEntry {
                apath,
                mode,
                mtime_secs,
                mtime_nanos,
                payload,
            });
        }
        r.finish()?;
        // Ordering: root first, then strictly increasing walk order.
        if let Some(first) = entries.first() {
            if first.apath != apath::ROOT {
                return Err(ManifestError(format!(
                    "first entry is {:?}, expected the root",
                    first.apath
                )));
            }
        }
        for pair in entries.windows(2) {
            if apath::cmp(&pair[0].apath, &pair[1].apath) != std::cmp::Ordering::Less {
                return Err(ManifestError(format!(
                    "entries out of walk order: {:?} then {:?}",
                    pair[0].apath, pair[1].apath
                )));
            }
        }
        Ok(TreeManifest { entries })
    }
}

/// Parses the 8-byte stream header, returning the manifest length.
///
/// # Errors
///
/// [`ManifestError`] if the magic is absent (not a tree backup) or the
/// header is truncated.
pub fn decode_stream_header(bytes: &[u8]) -> Result<u32, ManifestError> {
    let mut r = ByteReader::new(bytes);
    if r.array()? != STREAM_MAGIC {
        return Err(ManifestError("stream magic absent".into()));
    }
    Ok(r.u32()?)
}

/// Whether a stream prefix carries the tree-backup magic.
#[must_use]
pub fn is_tree_stream(prefix: &[u8]) -> bool {
    prefix.starts_with(&STREAM_MAGIC)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(apath: &str, payload: EntryPayload) -> ManifestEntry {
        ManifestEntry {
            apath: apath.to_string(),
            mode: 0o644,
            mtime_secs: 1_700_000_000,
            mtime_nanos: 123,
            payload,
        }
    }

    fn sample() -> TreeManifest {
        TreeManifest {
            entries: vec![
                entry("/", EntryPayload::Dir),
                entry("/a", EntryPayload::Dir),
                entry(
                    "/a/f",
                    EntryPayload::File {
                        offset: 0,
                        size: 10,
                    },
                ),
                entry(
                    "/a/l",
                    EntryPayload::Symlink {
                        target: "f".to_string(),
                    },
                ),
                entry(
                    "/b",
                    EntryPayload::File {
                        offset: 10,
                        size: 0,
                    },
                ),
            ],
        }
    }

    #[test]
    fn encode_decode_round_trip() {
        let m = sample();
        let decoded = TreeManifest::decode(&m.encode()).unwrap();
        assert_eq!(decoded, m);
    }

    #[test]
    fn stream_framing_round_trips() {
        let m = sample();
        let stream = m.encode_stream(b"0123456789");
        assert!(is_tree_stream(&stream));
        let len = decode_stream_header(&stream).unwrap() as usize;
        let decoded = TreeManifest::decode(&stream[8..8 + len]).unwrap();
        assert_eq!(decoded, m);
        assert_eq!(&stream[8 + len..], b"0123456789");
    }

    #[test]
    fn decode_rejects_disorder_and_damage() {
        let mut m = sample();
        m.entries.swap(1, 4);
        assert!(TreeManifest::decode(&m.encode()).is_err());

        let good = sample().encode();
        assert!(TreeManifest::decode(&good[..good.len() - 1]).is_err());
        let mut bad_magic = good.clone();
        bad_magic[0] = b'X';
        assert!(TreeManifest::decode(&bad_magic).is_err());
        let mut trailing = good;
        trailing.push(0);
        assert!(TreeManifest::decode(&trailing).is_err());
    }

    #[test]
    fn decode_rejects_non_contiguous_extents() {
        let m = TreeManifest {
            entries: vec![
                entry("/", EntryPayload::Dir),
                entry("/f", EntryPayload::File { offset: 5, size: 1 }),
            ],
        };
        assert!(TreeManifest::decode(&m.encode()).is_err());
    }

    #[test]
    fn non_tree_streams_are_recognized() {
        assert!(!is_tree_stream(b"not"));
        assert!(!is_tree_stream(b"ABCD1234"));
        assert!(decode_stream_header(b"ABCD1234").is_err());
    }
}
