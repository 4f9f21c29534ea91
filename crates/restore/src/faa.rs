//! Forward Assembly Area (Lillibridge, Eshghi & Bhagwat, FAST'13).

use std::collections::HashMap;
use std::io::Write;

use hidestore_storage::{ContainerId, ContainerStore};

use crate::{RestoreCache, RestoreEntry, RestoreError, RestoreReport};

/// Forward-assembly restore.
///
/// The plan is processed in *areas* of up to `area_bytes` of output. For
/// each area, the recipe tells in advance which chunk goes at which offset,
/// so each needed container is read **exactly once per area** and every slot
/// it can fill is filled on that single read. This look-ahead is why FAA
/// beats plain LRU caching and why Destor uses it as the default restore
/// algorithm (the paper runs all non-ALACC schemes with FAA).
#[derive(Debug, Clone)]
pub struct Faa {
    area_bytes: usize,
}

impl Faa {
    /// Creates an FAA with the given assembly-area size in bytes.
    ///
    /// # Panics
    ///
    /// Panics if `area_bytes == 0`.
    pub fn new(area_bytes: usize) -> Self {
        assert!(area_bytes > 0, "assembly area must be non-zero");
        Faa { area_bytes }
    }

    /// The configured assembly-area size.
    pub fn area_bytes(&self) -> usize {
        self.area_bytes
    }

    /// Splits the plan into areas of at most `area_bytes` (a chunk larger
    /// than the area gets an area of its own).
    fn areas<'a>(&self, plan: &'a [RestoreEntry]) -> Vec<&'a [RestoreEntry]> {
        let mut areas = Vec::new();
        let mut start = 0;
        let mut acc = 0usize;
        for (i, entry) in plan.iter().enumerate() {
            if acc + entry.size as usize > self.area_bytes && i > start {
                areas.push(&plan[start..i]);
                start = i;
                acc = 0;
            }
            acc += entry.size as usize;
        }
        if start < plan.len() {
            areas.push(&plan[start..]);
        }
        areas
    }
}

impl RestoreCache for Faa {
    fn restore(
        &mut self,
        plan: &[RestoreEntry],
        store: &dyn ContainerStore,
        out: &mut dyn Write,
    ) -> Result<RestoreReport, RestoreError> {
        let mut reads = 0u64;
        let mut bytes = 0u64;
        for area in self.areas(plan) {
            // Slot layout of the area.
            let mut offsets = Vec::with_capacity(area.len());
            let mut total = 0usize;
            let mut by_container: HashMap<ContainerId, Vec<usize>> = HashMap::new();
            for (i, entry) in area.iter().enumerate() {
                offsets.push(total);
                total += entry.size as usize;
                by_container.entry(entry.container).or_default().push(i);
            }
            let mut buffer = vec![0u8; total];
            // Read containers in order of first need.
            let mut order: Vec<ContainerId> = Vec::new();
            for entry in area {
                if !order.contains(&entry.container) {
                    order.push(entry.container);
                }
            }
            for cid in order {
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
                    debug_assert_eq!(data.len(), entry.size as usize);
                    buffer[offsets[slot]..offsets[slot] + data.len()].copy_from_slice(data);
                }
            }
            out.write_all(&buffer)?;
            bytes += total as u64;
        }
        Ok(RestoreReport {
            bytes_restored: bytes,
            container_reads: reads,
            // FAA keeps no cache across areas: every counted read is a miss.
            cache_hits: 0,
            cache_misses: reads,
            ..RestoreReport::default()
        })
    }

    fn name(&self) -> &'static str {
        "faa"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::{interleaved_fixture, sequential_fixture};

    #[test]
    fn interleaved_plan_one_read_per_container_per_area() {
        // All 8*8 chunks fit in one area: interleaving costs nothing.
        let (store, plan, _) = interleaved_fixture(8, 8, 256);
        let mut faa = Faa::new(8 * 8 * 256);
        let report = faa.restore(&plan, &store, &mut Vec::new()).unwrap();
        assert_eq!(report.container_reads, 8);
    }

    #[test]
    fn small_area_rereads_containers() {
        // Area of one interleaved row: every area needs all 8 containers.
        let (store, plan, _) = interleaved_fixture(8, 8, 256);
        let mut faa = Faa::new(8 * 256);
        let report = faa.restore(&plan, &store, &mut Vec::new()).unwrap();
        assert_eq!(report.container_reads, 8 * 8);
    }

    #[test]
    fn areas_split_respects_byte_budget() {
        let (_, plan, _) = sequential_fixture(4, 4, 100);
        let faa = Faa::new(250);
        let areas = faa.areas(&plan);
        for area in &areas {
            let total: usize = area.iter().map(|e| e.size as usize).sum();
            assert!(total <= 250 || area.len() == 1);
        }
        let covered: usize = areas.iter().map(|a| a.len()).sum();
        assert_eq!(covered, plan.len());
    }

    #[test]
    fn oversized_chunk_gets_own_area() {
        let (_, plan, _) = sequential_fixture(1, 3, 1000);
        let faa = Faa::new(500);
        let areas = faa.areas(&plan);
        assert_eq!(areas.len(), 3);
        assert!(areas.iter().all(|a| a.len() == 1));
    }

    #[test]
    fn output_order_preserved_with_tiny_area() {
        let (store, plan, expect) = interleaved_fixture(4, 8, 128);
        let mut faa = Faa::new(300);
        let mut out = Vec::new();
        faa.restore(&plan, &store, &mut out).unwrap();
        assert_eq!(out, expect);
    }
}
