//! FBW — sliding look-back window rewriting (Cao, Wen, Wu & Du, FAST'19).
//!
//! The HiDeStore paper compares against this scheme as "FBW" [8] and, having
//! no released source, reimplemented it from the description — as do we.

use std::collections::{HashMap, VecDeque};

use hidestore_storage::{ContainerId, VersionId};

use crate::{RewritePolicy, SegmentChunk};

/// Sliding look-back window rewriting with an adaptive threshold.
///
/// Capping judges a container only by the *current* segment, so a container
/// that is heavily used by neighbouring segments can be unfairly rewritten.
/// FBW keeps a look-back window of the last `window_bytes` of stream and
/// judges each duplicate's container by its accumulated utilization over
/// window + current segment. Containers below the utilization threshold are
/// rewrite victims.
///
/// The threshold adapts per segment: if the rewrite ratio so far exceeds the
/// budget, the threshold is relaxed (fewer rewrites); if under-budget it is
/// tightened (more rewrites) — the "flexible" part of the scheme.
#[derive(Debug, Clone)]
pub struct Fbw {
    window_bytes: u64,
    budget_fraction: f64,
    /// Current utilization threshold (fraction of a container's capacity
    /// that must appear in the window for references to be kept).
    threshold: f64,
    container_capacity: u64,
    /// Look-back window: (container, bytes) per chunk, plus running totals.
    window: VecDeque<(Option<ContainerId>, u32)>,
    window_total: u64,
    utilization: HashMap<ContainerId, u64>,
    version_bytes: u64,
    version_rewritten: u64,
    rewritten_bytes: u64,
}

impl Default for Fbw {
    fn default() -> Self {
        Fbw::new(64 * 1024 * 1024, 0.02, 4 * 1024 * 1024)
    }
}

impl Fbw {
    /// Creates an FBW policy.
    ///
    /// * `window_bytes` — look-back window size,
    /// * `budget_fraction` — target fraction of version bytes to rewrite,
    /// * `container_capacity` — container size for utilization computation.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is zero/non-positive or `budget_fraction > 1`.
    pub fn new(window_bytes: u64, budget_fraction: f64, container_capacity: u64) -> Self {
        assert!(window_bytes > 0, "window must be non-zero");
        assert!(
            budget_fraction > 0.0 && budget_fraction <= 1.0,
            "budget fraction must be in (0, 1]"
        );
        assert!(
            container_capacity > 0,
            "container capacity must be non-zero"
        );
        Fbw {
            window_bytes,
            budget_fraction,
            threshold: 0.05,
            container_capacity,
            window: VecDeque::new(),
            window_total: 0,
            utilization: HashMap::new(),
            version_bytes: 0,
            version_rewritten: 0,
            rewritten_bytes: 0,
        }
    }

    fn push_window(&mut self, container: Option<ContainerId>, size: u32) {
        self.window.push_back((container, size));
        self.window_total += size as u64;
        if let Some(c) = container {
            *self.utilization.entry(c).or_default() += size as u64;
        }
        while self.window_total > self.window_bytes {
            let Some((old_container, old_size)) = self.window.pop_front() else {
                break;
            };
            self.window_total -= old_size as u64;
            if let Some(c) = old_container {
                if let Some(u) = self.utilization.get_mut(&c) {
                    *u = u.saturating_sub(old_size as u64);
                    if *u == 0 {
                        self.utilization.remove(&c);
                    }
                }
            }
        }
    }

    fn adapt_threshold(&mut self) {
        if self.version_bytes == 0 {
            return;
        }
        let ratio = self.version_rewritten as f64 / self.version_bytes as f64;
        if ratio > self.budget_fraction {
            // Over budget: demand less utilization before rewriting less...
            // i.e. lower the threshold so fewer containers qualify as victims.
            self.threshold = (self.threshold * 0.5).max(1e-4);
        } else if ratio < self.budget_fraction * 0.5 {
            // Well under budget: be more aggressive.
            self.threshold = (self.threshold * 1.5).min(0.5);
        }
    }
}

impl RewritePolicy for Fbw {
    fn begin_version(&mut self, _version: VersionId) {
        self.window.clear();
        self.window_total = 0;
        self.utilization.clear();
        self.version_bytes = 0;
        self.version_rewritten = 0;
    }

    fn process_segment(&mut self, segment: &[SegmentChunk]) -> Vec<bool> {
        // Pre-charge the current segment into the utilization map so the
        // look-back judgment covers window + current segment.
        for chunk in segment {
            if let Some(c) = chunk.existing {
                *self.utilization.entry(c).or_default() += chunk.size as u64;
            }
        }
        let min_bytes = (self.threshold * self.container_capacity as f64) as u64;
        let mut decisions = Vec::with_capacity(segment.len());
        for chunk in segment {
            self.version_bytes += chunk.size as u64;
            let rewrite = match chunk.existing {
                Some(c) => self.utilization.get(&c).copied().unwrap_or(0) < min_bytes,
                None => false,
            };
            if rewrite {
                self.version_rewritten += chunk.size as u64;
                self.rewritten_bytes += chunk.size as u64;
            }
            decisions.push(rewrite);
        }
        // Remove the pre-charge and replay the segment into the window
        // (kept references only — rewritten chunks now live in new
        // containers, so they no longer pull utilization toward the old one).
        for chunk in segment {
            if let Some(c) = chunk.existing {
                if let Some(u) = self.utilization.get_mut(&c) {
                    *u = u.saturating_sub(chunk.size as u64);
                    if *u == 0 {
                        self.utilization.remove(&c);
                    }
                }
            }
        }
        for (chunk, &rewritten) in segment.iter().zip(&decisions) {
            let container = if rewritten { None } else { chunk.existing };
            self.push_window(container, chunk.size);
        }
        self.adapt_threshold();
        decisions
    }

    fn end_version(&mut self) {}

    fn rewritten_bytes(&self) -> u64 {
        self.rewritten_bytes
    }

    fn name(&self) -> &'static str {
        "fbw"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::segment_from;

    #[test]
    fn isolated_references_rewritten() {
        let mut p = Fbw::new(1 << 20, 0.5, 64 * 4096);
        p.begin_version(VersionId::new(1));
        // One chunk from container 1 among uniques: utilization of container
        // 1 is 4096/(64*4096) ≈ 1.6% < default 5% threshold.
        let seg = segment_from(&[0, 0, 0, 1, 0, 0, 0, 0]);
        let d = p.process_segment(&seg);
        assert!(d[3]);
        assert!(p.rewritten_bytes() > 0);
    }

    #[test]
    fn well_used_containers_kept() {
        let mut p = Fbw::new(1 << 20, 0.5, 16 * 4096);
        p.begin_version(VersionId::new(1));
        // Container 1 supplies 8 chunks = 50% of a container: kept.
        let seg = segment_from(&[1; 8]);
        assert_eq!(p.process_segment(&seg), vec![false; 8]);
    }

    #[test]
    fn look_back_window_rescues_spanning_containers() {
        // Container 1 contributes little per segment but a lot across two
        // adjacent segments: the look-back window must keep it.
        let mut p = Fbw::new(1 << 20, 0.5, 16 * 4096);
        p.begin_version(VersionId::new(1));
        let seg_a = segment_from(&[1, 1, 1, 1, 0, 0, 0, 0]);
        assert_eq!(p.process_segment(&seg_a), vec![false; 8]);
        // Alone, 2 chunks = 12.5% of capacity... above 5% default; use a
        // bigger capacity so the solo segment would fail but window saves it.
        let mut q = Fbw::new(1 << 20, 0.5, 64 * 4096);
        q.begin_version(VersionId::new(1));
        q.process_segment(&segment_from(&[1, 1, 1, 1, 0, 0, 0, 0]));
        let d = q.process_segment(&segment_from(&[1, 0, 0, 0, 0, 0, 0, 0]));
        assert!(!d[0], "window utilization should keep container 1");
    }

    #[test]
    fn threshold_adapts_downward_when_over_budget() {
        let mut p = Fbw::new(1 << 20, 0.01, 1 << 22);
        p.begin_version(VersionId::new(1));
        let before = p.threshold;
        // Everything is a scattered duplicate: massive rewriting, way over
        // the 1% budget, so the threshold must drop.
        let refs: Vec<u32> = (1..=32).collect();
        p.process_segment(&segment_from(&refs));
        assert!(p.threshold < before);
    }

    #[test]
    fn window_eviction_keeps_totals_consistent() {
        let mut p = Fbw::new(8 * 4096, 0.5, 16 * 4096);
        p.begin_version(VersionId::new(1));
        for _ in 0..10 {
            p.process_segment(&segment_from(&[1, 1, 0, 0]));
        }
        assert!(p.window_total <= 8 * 4096);
        let sum: u64 = p.window.iter().map(|&(_, s)| s as u64).sum();
        assert_eq!(sum, p.window_total);
    }
}
