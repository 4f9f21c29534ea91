//! ALACC — Adaptive Look-Ahead Chunk Caching (Cao, Wen, Xie, Du; FAST'18).

use std::collections::HashSet;
use std::sync::Arc;

use hidestore_hash::Fingerprint;
use hidestore_storage::Container;

use crate::assembler::{split_by_bytes, ChunkCache, Policy};
use crate::RestoreEntry;

/// FAA combined with a look-ahead-managed chunk cache.
///
/// Like [`crate::Faa`], the plan is assembled area by area. Two additions,
/// following the FAST'18 design:
///
/// 1. **Chunk cache** — slots whose chunks are already cached are filled
///    without touching the store.
/// 2. **Look-ahead window** — when a container *is* read for the current
///    area, the window (the plan beyond the area) is consulted: chunks of
///    this container that will be needed again soon are copied into the
///    cache, so the later area won't re-read the container.
///
/// The memory split between assembly area and chunk cache adapts: when the
/// cache produced few hits in recent areas its budget shrinks in favour of a
/// larger area, and vice versa — the "adaptive" part of ALACC. Each restore
/// starts from the configured split.
#[derive(Debug)]
pub struct Alacc {
    area_bytes: usize,
    /// The configured area size, where each restore starts.
    first_area_bytes: usize,
    /// Total memory envelope (area + cache); the adaptive split preserves it.
    total_budget: usize,
    adaptive: bool,
    /// Evicts in insertion order; its budget is the cache's part of the
    /// split.
    cache: ChunkCache,
    /// Fingerprints in the window beyond the area being assembled.
    lookahead: HashSet<Fingerprint>,
}

impl Alacc {
    /// Creates an ALACC restorer with the given assembly-area size and chunk
    /// cache budget (bytes). Adaptation is enabled by default.
    ///
    /// # Panics
    ///
    /// Panics if either size is zero.
    pub fn new(area_bytes: usize, cache_budget: usize) -> Self {
        assert!(area_bytes > 0, "assembly area must be non-zero");
        assert!(cache_budget > 0, "cache budget must be non-zero");
        Alacc {
            area_bytes,
            first_area_bytes: area_bytes,
            total_budget: area_bytes + cache_budget,
            adaptive: true,
            cache: ChunkCache::new(cache_budget),
            lookahead: HashSet::new(),
        }
    }

    /// Disables the adaptive area/cache split (fixed configuration).
    pub fn with_fixed_split(mut self) -> Self {
        self.adaptive = false;
        self
    }
}

impl Policy for Alacc {
    fn start(&mut self, _plan: &[RestoreEntry]) {
        self.area_bytes = self.first_area_bytes;
        self.cache = ChunkCache::new(self.total_budget - self.first_area_bytes);
    }

    fn area_end(&mut self, plan: &[RestoreEntry], start: usize) -> usize {
        let end = split_by_bytes(plan, start, self.area_bytes);
        // Look-ahead window: as much of the following plan as two areas.
        let window_end = (end + 2 * (end - start).max(16)).min(plan.len());
        self.lookahead.clear();
        self.lookahead
            .extend(plan[end..window_end].iter().map(|e| e.fingerprint));
        end
    }

    fn lookup(&mut self, plan: &[RestoreEntry], at: usize) -> Option<&[u8]> {
        self.cache.get(&plan[at].fingerprint)
    }

    fn admit(&mut self, _plan: &[RestoreEntry], _at: usize, container: &Arc<Container>) {
        for (fp, chunk) in container.iter() {
            if self.lookahead.contains(&fp) {
                self.cache.insert(fp, chunk);
            }
        }
    }

    fn area_done(&mut self, hits: u64) {
        if !self.adaptive {
            return;
        }
        // Heuristic from the paper's adaptive algorithm: a productive cache
        // earns more memory, an idle cache cedes it to the assembly area.
        let (total, before) = (self.total_budget, self.cache.budget);
        let min_part = total / 8;
        if hits >= 4 {
            self.cache.budget = (before + total / 16).min(total - min_part);
        } else if hits == 0 {
            self.cache.budget = before.saturating_sub(total / 16).max(min_part);
        }
        self.area_bytes = total - self.cache.budget;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::{interleaved_fixture, sequential_fixture};
    use crate::{Faa, RestoreCache};

    #[test]
    fn beats_faa_on_cross_area_reuse() {
        // Interleaved plan with small areas: FAA re-reads containers every
        // area; ALACC's look-ahead cache retains upcoming chunks.
        let (store_a, plan, _) = interleaved_fixture(8, 16, 256);
        let (store_b, _, _) = interleaved_fixture(8, 16, 256);
        let area = 8 * 256; // one interleaved row per area
        let faa_reads = Faa::new(area)
            .restore(&plan, &store_a, &mut Vec::new())
            .unwrap()
            .container_reads;
        let alacc_reads = Alacc::new(area, 1 << 20)
            .with_fixed_split()
            .restore(&plan, &store_b, &mut Vec::new())
            .unwrap()
            .container_reads;
        assert!(
            alacc_reads < faa_reads,
            "alacc {alacc_reads} reads vs faa {faa_reads}"
        );
    }

    #[test]
    fn cache_hits_counted() {
        let (store, plan, _) = interleaved_fixture(4, 16, 256);
        let report = Alacc::new(4 * 256, 1 << 20)
            .with_fixed_split()
            .restore(&plan, &store, &mut Vec::new())
            .unwrap();
        assert!(report.cache_hits > 0);
    }

    #[test]
    fn adaptation_moves_the_split() {
        let (store, plan, _) = interleaved_fixture(8, 32, 256);
        let restore = |mut alacc: Alacc| alacc.restore(&plan, &store, &mut Vec::new()).unwrap();
        // The run mixes hit-rich and hit-free areas, so the adaptive policy
        // must move the split and restore unlike the fixed one.
        let adaptive = restore(Alacc::new(8 * 256, 8 * 256));
        let fixed = restore(Alacc::new(8 * 256, 8 * 256).with_fixed_split());
        assert_ne!(
            (adaptive.container_reads, adaptive.cache_hits),
            (fixed.container_reads, fixed.cache_hits)
        );
    }

    #[test]
    fn exact_output_with_adaptation() {
        let (store, plan, expect) = interleaved_fixture(6, 20, 128);
        let mut alacc = Alacc::new(1024, 2048);
        let mut out = Vec::new();
        alacc.restore(&plan, &store, &mut out).unwrap();
        assert_eq!(out, expect);
    }

    #[test]
    fn sequential_degenerates_to_faa() {
        let (store, plan, _) = sequential_fixture(8, 16, 256);
        let report = Alacc::new(1 << 20, 1 << 20)
            .restore(&plan, &store, &mut Vec::new())
            .unwrap();
        assert_eq!(report.container_reads, 8);
    }
}
