//! ALACC — Adaptive Look-Ahead Chunk Caching (Cao, Wen, Xie, Du; FAST'18).

use std::collections::{HashMap, HashSet};
use std::io::Write;

use hidestore_hash::Fingerprint;
use hidestore_storage::ContainerStore;

use crate::{RestoreCache, RestoreEntry, RestoreError, RestoreReport};

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
/// larger area, and vice versa — the "adaptive" part of ALACC.
#[derive(Debug)]
pub struct Alacc {
    area_bytes: usize,
    cache_budget: usize,
    /// Total memory envelope (area + cache); the adaptive split preserves it.
    total_budget: usize,
    adaptive: bool,
    cache: HashMap<Fingerprint, Vec<u8>>,
    order: Vec<Fingerprint>,
    cached_bytes: usize,
    /// Hits in the area being assembled (drives adaptation).
    area_hits: u64,
    hits_total: u64,
    /// Number of times the area/cache split actually changed.
    adaptations: u64,
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
            cache_budget,
            total_budget: area_bytes + cache_budget,
            adaptive: true,
            cache: HashMap::new(),
            order: Vec::new(),
            cached_bytes: 0,
            area_hits: 0,
            hits_total: 0,
            adaptations: 0,
        }
    }

    /// Disables the adaptive area/cache split (fixed configuration).
    pub fn with_fixed_split(mut self) -> Self {
        self.adaptive = false;
        self
    }

    fn cache_insert(&mut self, fp: Fingerprint, data: Vec<u8>) {
        if self.cache.contains_key(&fp) {
            return;
        }
        self.cached_bytes += data.len();
        self.cache.insert(fp, data);
        self.order.push(fp);
        while self.cached_bytes > self.cache_budget && self.order.len() > 1 {
            let evict = self.order.remove(0);
            if let Some(old) = self.cache.remove(&evict) {
                self.cached_bytes -= old.len();
            }
        }
    }

    fn adapt(&mut self) {
        if !self.adaptive {
            return;
        }
        // Heuristic from the paper's adaptive algorithm: a productive cache
        // earns more memory, an idle cache cedes it to the assembly area.
        let min_part = self.total_budget / 8;
        let before = self.cache_budget;
        if self.area_hits >= 4 {
            self.cache_budget =
                (self.cache_budget + self.total_budget / 16).min(self.total_budget - min_part);
        } else if self.area_hits == 0 {
            self.cache_budget = self
                .cache_budget
                .saturating_sub(self.total_budget / 16)
                .max(min_part);
        }
        if self.cache_budget != before {
            self.adaptations += 1;
        }
        self.area_bytes = self.total_budget - self.cache_budget;
        self.area_hits = 0;
    }

    fn split_area<'a>(&self, plan: &'a [RestoreEntry], start: usize) -> &'a [RestoreEntry] {
        let mut acc = 0usize;
        let mut end = start;
        while end < plan.len() {
            let sz = plan[end].size as usize;
            if acc + sz > self.area_bytes && end > start {
                break;
            }
            acc += sz;
            end += 1;
        }
        &plan[start..end]
    }
}

impl RestoreCache for Alacc {
    fn restore(
        &mut self,
        plan: &[RestoreEntry],
        store: &dyn ContainerStore,
        out: &mut dyn Write,
    ) -> Result<RestoreReport, RestoreError> {
        self.cache.clear();
        self.order.clear();
        self.cached_bytes = 0;
        self.hits_total = 0;
        self.area_hits = 0;
        self.adaptations = 0;
        let mut reads = 0u64;
        let mut bytes = 0u64;
        let mut pos = 0usize;
        while pos < plan.len() {
            let area = self.split_area(plan, pos);
            let area_len = area.len();
            // Look-ahead window: as much of the following plan as two areas.
            let window_end = (pos + area_len + 2 * area_len.max(16)).min(plan.len());
            let lookahead: HashSet<Fingerprint> = plan[pos + area_len..window_end]
                .iter()
                .map(|e| e.fingerprint)
                .collect();

            let mut offsets = Vec::with_capacity(area.len());
            let mut total = 0usize;
            for entry in area {
                offsets.push(total);
                total += entry.size as usize;
            }
            let mut buffer = vec![0u8; total];
            let mut unfilled: Vec<usize> = Vec::new();
            for (i, entry) in area.iter().enumerate() {
                if let Some(data) = self.cache.get(&entry.fingerprint) {
                    buffer[offsets[i]..offsets[i] + data.len()].copy_from_slice(data);
                    self.area_hits += 1;
                    self.hits_total += 1;
                } else {
                    unfilled.push(i);
                }
            }
            // Group remaining slots by container, read each once.
            let mut order_of_need: Vec<hidestore_storage::ContainerId> = Vec::new();
            let mut by_container: HashMap<hidestore_storage::ContainerId, Vec<usize>> =
                HashMap::new();
            for &i in &unfilled {
                let cid = area[i].container;
                if !by_container.contains_key(&cid) {
                    order_of_need.push(cid);
                }
                by_container.entry(cid).or_default().push(i);
            }
            for cid in order_of_need {
                let container = store.read(cid)?;
                reads += 1;
                for &slot in &by_container[&cid] {
                    let entry = &area[slot];
                    let data =
                        container
                            .get(&entry.fingerprint)
                            .ok_or(RestoreError::MissingChunk {
                                fingerprint: entry.fingerprint,
                                container: cid,
                            })?;
                    buffer[offsets[slot]..offsets[slot] + data.len()].copy_from_slice(data);
                }
                // Look-ahead: keep this container's soon-needed chunks.
                for (fp, data) in container.iter() {
                    if lookahead.contains(&fp) {
                        self.cache_insert(fp, data.to_vec());
                    }
                }
            }
            out.write_all(&buffer)?;
            bytes += total as u64;
            pos += area_len;
            self.adapt();
        }
        Ok(RestoreReport {
            bytes_restored: bytes,
            container_reads: reads,
            cache_hits: self.hits_total,
            cache_misses: reads,
            ..RestoreReport::default()
        })
    }

    fn name(&self) -> &'static str {
        "alacc"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::{interleaved_fixture, sequential_fixture};
    use crate::Faa;

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
        let mut alacc = Alacc::new(8 * 256, 8 * 256);
        alacc.restore(&plan, &store, &mut Vec::new()).unwrap();
        // The run mixes hit-rich and hit-free areas, so the adaptive policy
        // must have moved the split at least once.
        assert!(alacc.adaptations > 0);
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
