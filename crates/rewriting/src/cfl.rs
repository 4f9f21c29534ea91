//! CFL-based selective rewriting (Nam, Park & Du; the Chunk Fragmentation
//! Level monitor the paper cites as [27]).

use std::collections::HashMap;

use hidestore_storage::{ContainerId, VersionId};

use crate::{RewritePolicy, SegmentChunk};

/// Selective rewriting driven by the Chunk Fragmentation Level.
///
/// CFL is defined (paper §6) as the *optimal* chunk fragmentation — the
/// number of containers the stream would occupy if written contiguously —
/// divided by the *current* fragmentation — the number of containers it
/// actually references. CFL == 1 means perfect locality; low CFL means a
/// restore must touch many containers.
///
/// The monitor recomputes CFL as the version streams through. While CFL is
/// at or above the threshold, nothing is rewritten. When it falls below,
/// *selective rewrite* kicks in: duplicates from sparsely-contributing
/// containers are rewritten until CFL recovers.
#[derive(Debug, Clone)]
pub struct CflRewrite {
    threshold: f64,
    container_capacity: u64,
    /// Bytes processed in the current version.
    stream_bytes: u64,
    /// Containers referenced by the current version so far.
    referenced: HashMap<ContainerId, u64>,
    /// Containers newly written for this version (estimated from sizes).
    new_bytes: u64,
    rewritten_bytes: u64,
}

impl Default for CflRewrite {
    fn default() -> Self {
        CflRewrite::new(0.6, 4 * 1024 * 1024)
    }
}

impl CflRewrite {
    /// Creates a CFL monitor with the given CFL threshold and container
    /// capacity in bytes.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < threshold <= 1` and `container_capacity > 0`.
    pub fn new(threshold: f64, container_capacity: u64) -> Self {
        assert!(
            threshold > 0.0 && threshold <= 1.0,
            "threshold must be in (0, 1]"
        );
        assert!(
            container_capacity > 0,
            "container capacity must be non-zero"
        );
        CflRewrite {
            threshold,
            container_capacity,
            stream_bytes: 0,
            referenced: HashMap::new(),
            new_bytes: 0,
            rewritten_bytes: 0,
        }
    }

    /// The current chunk fragmentation level of the in-flight version.
    fn current_cfl(&self) -> f64 {
        let optimal = (self.stream_bytes as f64 / self.container_capacity as f64)
            .ceil()
            .max(1.0);
        let new_containers = (self.new_bytes as f64 / self.container_capacity as f64).ceil();
        let actual = (self.referenced.len() as f64 + new_containers).max(1.0);
        (optimal / actual).min(1.0)
    }
}

impl RewritePolicy for CflRewrite {
    fn begin_version(&mut self, _version: VersionId) {
        self.stream_bytes = 0;
        self.referenced.clear();
        self.new_bytes = 0;
    }

    fn process_segment(&mut self, segment: &[SegmentChunk]) -> Vec<bool> {
        // Rank this segment's containers: sparsely contributing ones are the
        // rewrite victims when CFL is unhealthy.
        let mut contribution: HashMap<ContainerId, u64> = HashMap::new();
        for chunk in segment {
            if let Some(c) = chunk.existing {
                *contribution.entry(c).or_default() += chunk.size as u64;
            }
        }
        let mut decisions = Vec::with_capacity(segment.len());
        for chunk in segment {
            self.stream_bytes += chunk.size as u64;
            match chunk.existing {
                None => {
                    self.new_bytes += chunk.size as u64;
                    decisions.push(false);
                }
                Some(c) => {
                    let cfl_unhealthy = self.current_cfl() < self.threshold;
                    // Victim test: container supplies < 10% of a container's
                    // worth of this segment.
                    let sparse = contribution[&c] * 10 < self.container_capacity;
                    if cfl_unhealthy && sparse {
                        self.rewritten_bytes += chunk.size as u64;
                        self.new_bytes += chunk.size as u64;
                        decisions.push(true);
                    } else {
                        *self.referenced.entry(c).or_insert(0) += chunk.size as u64;
                        decisions.push(false);
                    }
                }
            }
        }
        decisions
    }

    fn end_version(&mut self) {}

    fn rewritten_bytes(&self) -> u64 {
        self.rewritten_bytes
    }

    fn name(&self) -> &'static str {
        "cfl"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::segment_from;

    #[test]
    fn healthy_cfl_means_no_rewrites() {
        // All duplicates in one container: CFL stays 1.0.
        let mut p = CflRewrite::new(0.6, 16 * 4096);
        p.begin_version(VersionId::new(1));
        let seg = segment_from(&[1; 16]);
        assert_eq!(p.process_segment(&seg), vec![false; 16]);
        assert!((p.current_cfl() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn fragmentation_triggers_rewrites() {
        // Tiny containers + every duplicate from a different container:
        // CFL collapses and sparse victims get rewritten.
        let mut p = CflRewrite::new(0.8, 64 * 4096);
        p.begin_version(VersionId::new(1));
        let refs: Vec<u32> = (1..=64).collect();
        let d = p.process_segment(&segment_from(&refs));
        let rewrites = d.iter().filter(|&&r| r).count();
        assert!(rewrites > 32, "only {rewrites} rewrites");
        assert!(p.rewritten_bytes() > 0);
    }

    #[test]
    fn cfl_recovers_after_rewrites() {
        let mut p = CflRewrite::new(0.8, 64 * 4096);
        p.begin_version(VersionId::new(1));
        let refs: Vec<u32> = (1..=64).collect();
        p.process_segment(&segment_from(&refs));
        let cfl_after = p.current_cfl();
        // Without rewriting, 64 referenced containers for a one-container
        // stream would give CFL = 1/64. Rewriting must keep it far higher.
        assert!(cfl_after >= 0.25, "cfl {cfl_after}");
    }

    #[test]
    fn unique_chunks_count_toward_new_containers() {
        let mut p = CflRewrite::default();
        p.begin_version(VersionId::new(1));
        let seg = segment_from(&[0; 32]);
        assert_eq!(p.process_segment(&seg), vec![false; 32]);
        assert!((p.current_cfl() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn state_resets_between_versions() {
        let mut p = CflRewrite::new(0.8, 64 * 4096);
        p.begin_version(VersionId::new(1));
        let refs: Vec<u32> = (1..=64).collect();
        p.process_segment(&segment_from(&refs));
        p.end_version();
        p.begin_version(VersionId::new(2));
        assert!((p.current_cfl() - 1.0).abs() < 1e-9);
    }
}
