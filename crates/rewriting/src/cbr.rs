//! CBR — context-based rewriting (Kaczmarczyk et al., SYSTOR'12).

use std::collections::HashMap;

use hidestore_storage::{ContainerId, VersionId};

use crate::{RewritePolicy, SegmentChunk};

/// Context-based rewriting.
///
/// For every duplicate, CBR compares the chunk's *stream context* (the bytes
/// around it in the backup stream) with its *disk context* (the container
/// holding the existing copy). If the container contributes only a small
/// fraction of the stream context — **low rewrite utility** — referencing it
/// would buy little and cost a seek, so the chunk is rewritten. To bound the
/// deduplication-ratio loss, rewrites are limited to a configurable fraction
/// of each version's bytes (the original paper uses 5%).
///
/// # Examples
///
/// ```
/// use hidestore_rewriting::{Cbr, RewritePolicy};
///
/// let p = Cbr::new(0.25, 0.05);
/// assert_eq!(p.rewritten_bytes(), 0);
/// ```
#[derive(Debug, Clone)]
pub struct Cbr {
    /// Rewrite duplicates whose container supplies less than this fraction
    /// of the stream-context bytes.
    utility_threshold: f64,
    /// Maximum fraction of a version's bytes that may be rewritten.
    budget_fraction: f64,
    version_bytes: u64,
    version_rewritten: u64,
    rewritten_bytes: u64,
}

impl Default for Cbr {
    fn default() -> Self {
        // SYSTOR'12 defaults: 70% minimal utility within the context window,
        // 5% rewrite budget. Our utility is measured against the stream
        // context, so the practical threshold is lower.
        Cbr::new(0.25, 0.05)
    }
}

impl Cbr {
    /// Creates a CBR policy.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < utility_threshold <= 1` and
    /// `0 < budget_fraction <= 1`.
    pub fn new(utility_threshold: f64, budget_fraction: f64) -> Self {
        assert!(
            utility_threshold > 0.0 && utility_threshold <= 1.0,
            "utility threshold must be in (0, 1]"
        );
        assert!(
            budget_fraction > 0.0 && budget_fraction <= 1.0,
            "budget fraction must be in (0, 1]"
        );
        Cbr {
            utility_threshold,
            budget_fraction,
            version_bytes: 0,
            version_rewritten: 0,
            rewritten_bytes: 0,
        }
    }
}

impl RewritePolicy for Cbr {
    fn begin_version(&mut self, _version: VersionId) {
        self.version_bytes = 0;
        self.version_rewritten = 0;
    }

    fn process_segment(&mut self, segment: &[SegmentChunk]) -> Vec<bool> {
        let segment_bytes: u64 = segment.iter().map(|c| c.size as u64).sum();
        self.version_bytes += segment_bytes;
        if segment_bytes == 0 {
            return vec![false; segment.len()];
        }
        // The segment *is* the stream context: utility of a container is the
        // fraction of context bytes it supplies.
        let mut supplied: HashMap<ContainerId, u64> = HashMap::new();
        for chunk in segment {
            if let Some(c) = chunk.existing {
                *supplied.entry(c).or_default() += chunk.size as u64;
            }
        }
        let budget = (self.version_bytes as f64 * self.budget_fraction) as u64;
        segment
            .iter()
            .map(|chunk| {
                let Some(c) = chunk.existing else {
                    return false;
                };
                let utility = supplied[&c] as f64 / segment_bytes as f64;
                if utility < self.utility_threshold
                    && self.version_rewritten + chunk.size as u64 <= budget
                {
                    self.version_rewritten += chunk.size as u64;
                    self.rewritten_bytes += chunk.size as u64;
                    true
                } else {
                    false
                }
            })
            .collect()
    }

    fn end_version(&mut self) {}

    fn rewritten_bytes(&self) -> u64 {
        self.rewritten_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::segment_from;

    #[test]
    fn low_utility_duplicates_rewritten() {
        let mut p = Cbr::new(0.3, 1.0);
        p.begin_version(VersionId::new(1));
        // Container 1 supplies 6/8 of the segment (75% utility, kept);
        // containers 2 and 3 supply 1/8 each (12.5%, rewritten).
        let seg = segment_from(&[1, 1, 1, 1, 1, 1, 2, 3]);
        let d = p.process_segment(&seg);
        assert_eq!(
            d,
            vec![false, false, false, false, false, false, true, true]
        );
    }

    #[test]
    fn budget_caps_rewrites() {
        // Budget of ~one chunk: only the first low-utility duplicate goes.
        let mut p = Cbr::new(0.9, 0.15);
        p.begin_version(VersionId::new(1));
        let seg = segment_from(&[1, 2, 3, 4, 5, 6, 7, 8]);
        let d = p.process_segment(&seg);
        assert_eq!(d.iter().filter(|&&r| r).count(), 1);
        assert_eq!(p.rewritten_bytes(), 4096);
    }

    #[test]
    fn budget_resets_per_version() {
        let mut p = Cbr::new(0.9, 0.15);
        let seg = segment_from(&[1, 2, 3, 4, 5, 6, 7, 8]);
        p.begin_version(VersionId::new(1));
        p.process_segment(&seg);
        p.end_version();
        p.begin_version(VersionId::new(2));
        let d = p.process_segment(&seg);
        assert_eq!(
            d.iter().filter(|&&r| r).count(),
            1,
            "fresh budget per version"
        );
    }

    #[test]
    fn high_utility_never_rewritten() {
        let mut p = Cbr::default();
        p.begin_version(VersionId::new(1));
        let seg = segment_from(&[1; 16]);
        assert_eq!(p.process_segment(&seg), vec![false; 16]);
        assert_eq!(p.rewritten_bytes(), 0);
    }

    #[test]
    #[should_panic(expected = "utility threshold")]
    fn bad_threshold_rejected() {
        Cbr::new(0.0, 0.05);
    }
}
