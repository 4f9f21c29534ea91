//! Capping (Lillibridge, Eshghi & Bhagwat, FAST'13).

use std::collections::HashMap;

use hidestore_storage::{ContainerId, VersionId};

use crate::{RewritePolicy, SegmentChunk};

/// Caps the number of old containers each segment may reference.
///
/// Per segment, containers are ranked by how many of the segment's bytes
/// they supply. The top `cap` containers keep their references; duplicates
/// whose containers rank below the cap are rewritten. A restore of this
/// segment therefore reads at most `cap` old containers plus the new
/// containers written for it — the paper's capping guarantee.
///
/// # Examples
///
/// ```
/// use hidestore_rewriting::{Capping, RewritePolicy};
/// use hidestore_storage::VersionId;
///
/// let mut p = Capping::new(10);
/// p.begin_version(VersionId::new(1));
/// assert_eq!(p.rewritten_bytes(), 0);
/// ```
#[derive(Debug, Clone)]
pub struct Capping {
    cap: usize,
    rewritten_bytes: u64,
    rewritten_chunks: u64,
}

impl Capping {
    /// Creates a capping policy allowing `cap` referenced old containers per
    /// segment.
    ///
    /// # Panics
    ///
    /// Panics if `cap == 0`.
    pub fn new(cap: usize) -> Self {
        assert!(cap > 0, "cap must be at least 1");
        Capping {
            cap,
            rewritten_bytes: 0,
            rewritten_chunks: 0,
        }
    }
}

impl RewritePolicy for Capping {
    fn begin_version(&mut self, _version: VersionId) {}

    fn process_segment(&mut self, segment: &[SegmentChunk]) -> Vec<bool> {
        // Rank containers by the bytes they contribute to this segment.
        let mut contribution: HashMap<ContainerId, u64> = HashMap::new();
        for chunk in segment {
            if let Some(c) = chunk.existing {
                *contribution.entry(c).or_default() += chunk.size as u64;
            }
        }
        let mut ranked: Vec<(ContainerId, u64)> = contribution.into_iter().collect();
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then(b.0.cmp(&a.0)));
        let kept: std::collections::HashSet<ContainerId> =
            ranked.iter().take(self.cap).map(|&(c, _)| c).collect();
        segment
            .iter()
            .map(|chunk| match chunk.existing {
                Some(c) if !kept.contains(&c) => {
                    self.rewritten_bytes += chunk.size as u64;
                    self.rewritten_chunks += 1;
                    true
                }
                _ => false,
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
    fn references_capped_to_top_containers() {
        let mut p = Capping::new(2);
        p.begin_version(VersionId::new(1));
        // Container 1 supplies 3 chunks, container 2 supplies 2, 3 and 4 one each.
        let seg = segment_from(&[1, 1, 1, 2, 2, 3, 4]);
        let d = p.process_segment(&seg);
        assert_eq!(d, vec![false, false, false, false, false, true, true]);
        assert_eq!(p.rewritten_chunks, 2);
        assert_eq!(p.rewritten_bytes(), 2 * 4096);
    }

    #[test]
    fn under_cap_segment_untouched() {
        let mut p = Capping::new(4);
        p.begin_version(VersionId::new(1));
        let seg = segment_from(&[1, 2, 3, 0]);
        assert_eq!(p.process_segment(&seg), vec![false; 4]);
        assert_eq!(p.rewritten_bytes(), 0);
    }

    #[test]
    fn lower_cap_rewrites_more() {
        let seg = segment_from(&[1, 2, 3, 4, 5, 6, 7, 8]);
        let mut strict = Capping::new(1);
        let mut loose = Capping::new(6);
        strict.begin_version(VersionId::new(1));
        loose.begin_version(VersionId::new(1));
        let strict_rewrites = strict.process_segment(&seg).iter().filter(|&&r| r).count();
        let loose_rewrites = loose.process_segment(&seg).iter().filter(|&&r| r).count();
        assert!(strict_rewrites > loose_rewrites);
        assert_eq!(strict_rewrites, 7);
        assert_eq!(loose_rewrites, 2);
    }

    #[test]
    fn deterministic_tie_break() {
        let seg = segment_from(&[1, 2]);
        let mut a = Capping::new(1);
        let mut b = Capping::new(1);
        a.begin_version(VersionId::new(1));
        b.begin_version(VersionId::new(1));
        assert_eq!(a.process_segment(&seg), b.process_segment(&seg));
    }

    #[test]
    #[should_panic(expected = "cap must be")]
    fn zero_cap_rejected() {
        Capping::new(0);
    }
}
