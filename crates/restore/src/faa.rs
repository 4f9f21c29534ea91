//! Forward Assembly Area (Lillibridge, Eshghi & Bhagwat, FAST'13).

use crate::assembler::{split_by_bytes, Policy};
use crate::RestoreEntry;

/// Forward-assembly restore.
///
/// The plan is processed in *areas* of up to `area_bytes` of output. For
/// each area, the recipe tells in advance which chunk goes at which offset,
/// so each needed container is read **exactly once per area** and every slot
/// it can fill is filled on that single read. This look-ahead is why FAA
/// beats plain LRU caching and why Destor uses it as the default restore
/// algorithm (the paper runs all non-ALACC schemes with FAA). FAA keeps
/// nothing across areas, so it never reports a cache hit.
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
}

impl Policy for Faa {
    fn area_end(&mut self, plan: &[RestoreEntry], start: usize) -> usize {
        split_by_bytes(plan, start, self.area_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::{interleaved_fixture, sequential_fixture};
    use crate::RestoreCache;

    /// The areas `faa` splits `plan` into.
    fn areas<'a>(faa: &mut Faa, plan: &'a [RestoreEntry]) -> Vec<&'a [RestoreEntry]> {
        let mut areas = Vec::new();
        let mut start = 0;
        while start < plan.len() {
            let end = faa.area_end(plan, start);
            areas.push(&plan[start..end]);
            start = end;
        }
        areas
    }

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
        let areas = areas(&mut Faa::new(250), &plan);
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
        let areas = areas(&mut Faa::new(500), &plan);
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
