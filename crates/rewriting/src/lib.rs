#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Duplicate-chunk rewriting schemes.
//!
//! Rewriting (paper §2.3) fights chunk fragmentation at its source: some
//! duplicate chunks are written *again* into the current version's new
//! containers so a restore of that version touches fewer old containers. The
//! price is a lower deduplication ratio — the rewritten copies consume space
//! — which is exactly the trade-off HiDeStore avoids (Figure 8).
//!
//! Implemented policies, matching the paper's comparison set:
//!
//! * [`NoRewrite`] — the baseline: every duplicate is referenced.
//! * [`Capping`] — Lillibridge et al. (FAST'13): cap the number of old
//!   containers a segment may reference; rewrite duplicates from the
//!   least-useful containers beyond the cap.
//! * [`Cbr`] — Kaczmarczyk et al. (SYSTOR'12) content/context-based
//!   rewriting: rewrite duplicates whose container contributes too little to
//!   the current stream context ("rewrite utility"), under a global rewrite
//!   budget.
//! * [`CflRewrite`] — Nam et al.: monitor the Chunk Fragmentation Level
//!   (optimal container count ÷ actual container count) and rewrite
//!   selectively while CFL is below threshold.
//! * [`Fbw`] — Cao et al. (FAST'19): a sliding look-back window variant of
//!   capping that sets the rewrite decision from container utilization
//!   within the window, adapting the threshold to a rewrite budget.
//!
//! All policies implement [`RewritePolicy`]: the pipeline hands them each
//! segment *after* deduplication decisions and they answer, per chunk,
//! "reference the old copy" or "rewrite".

use hidestore_hash::Fingerprint;
use hidestore_storage::{ContainerId, VersionId};

mod capping;
mod cbr;
mod cfl;
mod fbw;

pub use capping::Capping;
pub use cbr::Cbr;
pub use cfl::CflRewrite;
pub use fbw::Fbw;

/// One deduplicated chunk of a segment, as seen by a rewrite policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentChunk {
    /// The chunk's fingerprint.
    pub fingerprint: Fingerprint,
    /// Chunk size in bytes.
    pub size: u32,
    /// `Some(container)` if the index found an existing copy, `None` if the
    /// chunk is unique (unique chunks can never be "rewritten" — they are
    /// written regardless).
    pub existing: Option<ContainerId>,
}

impl SegmentChunk {
    /// Convenience constructor.
    pub fn new(fingerprint: Fingerprint, size: u32, existing: Option<ContainerId>) -> Self {
        SegmentChunk {
            fingerprint,
            size,
            existing,
        }
    }
}

/// A rewriting policy: decides which duplicate chunks to write again for
/// restore locality.
pub trait RewritePolicy {
    /// Called before the first segment of each version.
    fn begin_version(&mut self, version: VersionId);

    /// For each chunk of `segment`, returns `true` if the chunk should be
    /// rewritten into a new container. Unique chunks (no existing copy) must
    /// be answered `false`; the pipeline stores them anyway.
    fn process_segment(&mut self, segment: &[SegmentChunk]) -> Vec<bool>;

    /// Called after the last segment of the version.
    fn end_version(&mut self);

    /// Total bytes of duplicate chunks rewritten so far (the deduplication-
    /// ratio loss shown in the paper's Figure 8).
    fn rewritten_bytes(&self) -> u64;
}

/// The baseline policy: never rewrite anything.
///
/// # Examples
///
/// ```
/// use hidestore_rewriting::{NoRewrite, RewritePolicy, SegmentChunk};
/// use hidestore_hash::Fingerprint;
/// use hidestore_storage::{ContainerId, VersionId};
///
/// let mut p = NoRewrite::new();
/// p.begin_version(VersionId::new(1));
/// let seg = [SegmentChunk::new(Fingerprint::of(b"x"), 4, Some(ContainerId::new(1)))];
/// assert_eq!(p.process_segment(&seg), vec![false]);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct NoRewrite {
    _private: (),
}

impl NoRewrite {
    /// Creates the baseline policy.
    pub fn new() -> Self {
        NoRewrite::default()
    }
}

impl RewritePolicy for NoRewrite {
    fn begin_version(&mut self, _version: VersionId) {}

    fn process_segment(&mut self, segment: &[SegmentChunk]) -> Vec<bool> {
        vec![false; segment.len()]
    }

    fn end_version(&mut self) {}

    fn rewritten_bytes(&self) -> u64 {
        0
    }
}

impl<T: RewritePolicy + ?Sized> RewritePolicy for Box<T> {
    fn begin_version(&mut self, version: VersionId) {
        (**self).begin_version(version)
    }

    fn process_segment(&mut self, segment: &[SegmentChunk]) -> Vec<bool> {
        (**self).process_segment(segment)
    }

    fn end_version(&mut self) {
        (**self).end_version()
    }

    fn rewritten_bytes(&self) -> u64 {
        (**self).rewritten_bytes()
    }
}

#[cfg(test)]
pub(crate) mod test_util {
    use super::*;

    /// Builds a segment where chunk `i` is a duplicate residing in container
    /// `containers[i]` (0 means unique).
    pub fn segment_from(containers: &[u32]) -> Vec<SegmentChunk> {
        containers
            .iter()
            .enumerate()
            .map(|(i, &c)| {
                SegmentChunk::new(
                    Fingerprint::synthetic(i as u64),
                    4096,
                    (c != 0).then(|| ContainerId::new(c)),
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::test_util::segment_from;
    use super::*;

    #[test]
    fn no_rewrite_never_rewrites() {
        let mut p = NoRewrite::new();
        p.begin_version(VersionId::new(1));
        let seg = segment_from(&[1, 2, 3, 0, 0, 4]);
        assert_eq!(p.process_segment(&seg), vec![false; 6]);
        p.end_version();
        assert_eq!(p.rewritten_bytes(), 0);
    }

    #[test]
    fn policies_never_rewrite_unique_chunks() {
        let seg = segment_from(&[0, 0, 0, 0]);
        let policies: Vec<Box<dyn RewritePolicy>> = vec![
            Box::new(NoRewrite::new()),
            Box::new(Capping::new(2)),
            Box::new(Cbr::default()),
            Box::new(CflRewrite::default()),
            Box::new(Fbw::default()),
        ];
        for (i, mut p) in policies.into_iter().enumerate() {
            p.begin_version(VersionId::new(1));
            let decisions = p.process_segment(&seg);
            assert_eq!(decisions, vec![false; 4], "policy {i}");
        }
    }
}
