#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Fingerprint index schemes for the deduplication phase.
//!
//! Identifying whether an incoming chunk is a duplicate is the throughput
//! bottleneck of large-scale deduplication (paper §2.2): the full
//! fingerprint-to-location table outgrows RAM, so every scheme trades
//! deduplication *ratio* against *disk index lookups*. This crate implements
//! the three baseline schemes the paper compares against:
//!
//! * [`DdfsIndex`] — Zhu et al. (FAST'08): exact deduplication with an
//!   in-memory Bloom filter plus a locality-preserving container-metadata
//!   cache in front of the on-disk full index.
//! * [`SparseIndex`] — Lillibridge et al. (FAST'09): near-exact; samples
//!   "hook" fingerprints, picks champion segments, dedupes only against
//!   their manifests.
//! * [`SiloIndex`] — Xia et al. (ATC'11): near-exact; exploits similarity
//!   (a representative fingerprint per segment) and locality (segments
//!   grouped into blocks).
//!
//! All schemes implement [`FingerprintIndex`]. Lookups that would touch the
//! on-disk structure are **counted**, not timed: the paper's Figure 9 metric
//! is *lookup requests per GB*, and Figure 10's is *index bytes per MB of
//! data*, both exposed here via [`FingerprintIndex::disk_lookups`] and
//! [`FingerprintIndex::index_table_bytes`].
//!
//! # Examples
//!
//! ```
//! use hidestore_index::{DdfsIndex, FingerprintIndex};
//! use hidestore_hash::Fingerprint;
//! use hidestore_storage::{ContainerId, VersionId};
//!
//! let mut index = DdfsIndex::new();
//! index.begin_version(VersionId::new(1));
//! let fp = Fingerprint::of(b"chunk");
//! let segment = [(fp, 5u32)];
//! assert_eq!(index.process_segment(&segment), vec![None]); // unique
//! index.record_chunk(fp, 5, ContainerId::new(1));
//! index.end_version();
//!
//! index.begin_version(VersionId::new(2));
//! assert_eq!(index.process_segment(&segment), vec![Some(ContainerId::new(1))]);
//! ```

mod bloom;
mod ddfs;
mod silo;
mod sparse;

pub use ddfs::DdfsIndex;
pub use silo::{SiloConfig, SiloIndex};
pub use sparse::{SparseConfig, SparseIndex};

use hidestore_hash::Fingerprint;
use hidestore_storage::{ContainerId, VersionId};

/// A deduplication fingerprint index: decides, segment by segment, which
/// incoming chunks are duplicates and where the existing copies live.
///
/// The pipeline drives it as: `begin_version` → for each segment
/// `process_segment` then `record_chunk` for every chunk with its final
/// location → `end_version`.
pub trait FingerprintIndex {
    /// Called before the first segment of each backup version.
    fn begin_version(&mut self, version: VersionId);

    /// Classifies one segment of `(fingerprint, size)` pairs.
    ///
    /// Returns, per chunk and in order, `Some(container)` if the chunk is a
    /// duplicate of a chunk stored in `container`, or `None` if the index
    /// considers it unique (near-exact schemes may return `None` for true
    /// duplicates — that is exactly their deduplication-ratio loss).
    fn process_segment(&mut self, segment: &[(Fingerprint, u32)]) -> Vec<Option<ContainerId>>;

    /// Records the final location of a chunk of the current version —
    /// unique chunks after they are written, duplicates with their existing
    /// container — so the index can build manifests/blocks.
    fn record_chunk(&mut self, fingerprint: Fingerprint, size: u32, container: ContainerId);

    /// Called after the last segment of the version.
    fn end_version(&mut self);

    /// Number of on-disk index lookups performed so far (Figure 9 metric).
    fn disk_lookups(&self) -> u64;

    /// Current size in bytes of the scheme's index table (Figure 10 metric).
    fn index_table_bytes(&self) -> usize;

    /// Short scheme name for reports (e.g. `"ddfs"`).
    fn name(&self) -> &'static str;
}

/// Size in bytes of one full-index entry: 20-byte fingerprint plus an 8-byte
/// location, matching the paper's §2.2 accounting.
pub const INDEX_ENTRY_BYTES: usize = 28;

/// Identifier for choosing an index scheme from configuration, mirroring
/// `ChunkerKind`'s role for the chunking phase in `hidestore-chunking`.
///
/// # Examples
///
/// ```
/// use hidestore_index::IndexKind;
///
/// let mut index = IndexKind::Ddfs.build();
/// assert_eq!(index.name(), "ddfs");
/// # use hidestore_index::FingerprintIndex;
/// # index.begin_version(hidestore_storage::VersionId::new(1));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IndexKind {
    /// Exact deduplication (Zhu et al.).
    Ddfs,
    /// Sparse Indexing (Lillibridge et al.).
    Sparse,
    /// SiLo (Xia et al.).
    Silo,
}

impl IndexKind {
    /// Every selectable scheme.
    pub const ALL: [IndexKind; 3] = [IndexKind::Ddfs, IndexKind::Sparse, IndexKind::Silo];

    /// Builds a boxed index of this kind with default configuration.
    pub fn build(self) -> Box<dyn FingerprintIndex + Send> {
        match self {
            IndexKind::Ddfs => Box::new(DdfsIndex::new()),
            IndexKind::Sparse => Box::new(SparseIndex::new(SparseConfig::default())),
            IndexKind::Silo => Box::new(SiloIndex::new(SiloConfig::default())),
        }
    }
}

impl std::fmt::Display for IndexKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            IndexKind::Ddfs => "ddfs",
            IndexKind::Sparse => "sparse",
            IndexKind::Silo => "silo",
        };
        f.write_str(name)
    }
}

impl<T: FingerprintIndex + ?Sized> FingerprintIndex for Box<T> {
    fn begin_version(&mut self, version: VersionId) {
        (**self).begin_version(version)
    }

    fn process_segment(&mut self, segment: &[(Fingerprint, u32)]) -> Vec<Option<ContainerId>> {
        (**self).process_segment(segment)
    }

    fn record_chunk(&mut self, fingerprint: Fingerprint, size: u32, container: ContainerId) {
        (**self).record_chunk(fingerprint, size, container)
    }

    fn end_version(&mut self) {
        (**self).end_version()
    }

    fn disk_lookups(&self) -> u64 {
        (**self).disk_lookups()
    }

    fn index_table_bytes(&self) -> usize {
        (**self).index_table_bytes()
    }

    fn name(&self) -> &'static str {
        (**self).name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Shared behavioural tests run against every index implementation.
    fn exercise_exactness(index: &mut dyn FingerprintIndex) -> (usize, usize) {
        // Two identical versions: count how many of the second version's
        // chunks are recognized as duplicates.
        let chunks: Vec<(Fingerprint, u32)> = (0..400u64)
            .map(|i| (Fingerprint::synthetic(i), 4096u32))
            .collect();
        index.begin_version(VersionId::new(1));
        for (seg_idx, seg) in chunks.chunks(64).enumerate() {
            let d = index.process_segment(seg);
            for (j, ((fp, size), dup)) in seg.iter().zip(d).enumerate() {
                let cid =
                    dup.unwrap_or_else(|| ContainerId::new((seg_idx * 64 + j) as u32 / 100 + 1));
                index.record_chunk(*fp, *size, cid);
            }
        }
        index.end_version();

        index.begin_version(VersionId::new(2));
        let mut dup_count = 0;
        for seg in chunks.chunks(64) {
            let d = index.process_segment(seg);
            for ((fp, size), dup) in seg.iter().zip(d) {
                if let Some(c) = dup {
                    dup_count += 1;
                    index.record_chunk(*fp, *size, c);
                } else {
                    index.record_chunk(*fp, *size, ContainerId::new(99));
                }
            }
        }
        index.end_version();
        (dup_count, chunks.len())
    }

    #[test]
    fn ddfs_is_exact() {
        let mut idx = DdfsIndex::new();
        let (dups, total) = exercise_exactness(&mut idx);
        assert_eq!(dups, total, "DDFS must catch every duplicate");
    }

    #[test]
    fn sparse_is_near_exact_on_identical_versions() {
        let mut idx = SparseIndex::new(SparseConfig::default());
        let (dups, total) = exercise_exactness(&mut idx);
        assert!(dups * 10 >= total * 9, "sparse caught only {dups}/{total}");
    }

    #[test]
    fn silo_is_near_exact_on_identical_versions() {
        let mut idx = SiloIndex::new(SiloConfig::default());
        let (dups, total) = exercise_exactness(&mut idx);
        assert!(dups * 10 >= total * 9, "silo caught only {dups}/{total}");
    }

    #[test]
    fn index_kind_builds_every_scheme() {
        for kind in IndexKind::ALL {
            let mut index = kind.build();
            index.begin_version(VersionId::new(1));
            let seg = [(Fingerprint::synthetic(1), 100u32)];
            assert_eq!(index.process_segment(&seg), vec![None], "{kind}");
            index.record_chunk(Fingerprint::synthetic(1), 100, ContainerId::new(1));
            index.end_version();
            assert_eq!(kind.to_string(), index.name());
        }
    }

    #[test]
    fn all_names_distinct() {
        let names = [
            DdfsIndex::new().name(),
            SparseIndex::new(SparseConfig::default()).name(),
            SiloIndex::new(SiloConfig::default()).name(),
        ];
        let mut unique = names.to_vec();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len());
    }
}
