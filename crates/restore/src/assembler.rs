//! The one restore assembler, and the policy trait every scheme implements.

use std::collections::{HashMap, VecDeque};
use std::io::Write;
use std::sync::Arc;

use hidestore_hash::Fingerprint;
use hidestore_storage::{Container, ContainerStore};

use crate::{RestoreCache, RestoreEntry, RestoreError, RestoreReport};

/// The decisions that make a restore scheme. A policy never reads the store
/// and never writes output: the assembler, its [`RestoreCache`]
/// implementation, does both. The defaults keep nothing and give each plan
/// entry an area of its own.
pub trait Policy {
    /// Short scheme name for reports (e.g. `"faa"`).
    const NAME: &'static str;

    /// Forgets what an earlier restore left and prepares for `plan`.
    fn start(&mut self, _plan: &[RestoreEntry]) {}

    /// One past the last position of the area that begins at `start`.
    fn area_end(&mut self, _plan: &[RestoreEntry], start: usize) -> usize {
        start + 1
    }

    /// Serves position `at`'s chunk from what the policy kept, or `None`
    /// for a miss.
    fn lookup(&mut self, _plan: &[RestoreEntry], _at: usize) -> Option<&[u8]> {
        None
    }

    /// Keeps what the policy wants of `container`, just read for the miss
    /// at position `at`.
    fn admit(&mut self, _plan: &[RestoreEntry], _at: usize, _container: &Arc<Container>) {}

    /// An area is written; `hits` of its positions were served by
    /// [`Policy::lookup`].
    fn area_done(&mut self, _hits: u64) {}
}

/// The assembler. The plan is restored area by area: each position the
/// policy cannot serve is a miss, and each container the area's misses name
/// is read once, in order of first need, filling every missed slot it
/// holds. A whole area is written as one buffer, so a failed area writes
/// nothing.
impl<P: Policy> RestoreCache for P {
    fn restore(
        &mut self,
        plan: &[RestoreEntry],
        store: &dyn ContainerStore,
        out: &mut dyn Write,
    ) -> Result<RestoreReport, RestoreError> {
        self.start(plan);
        let (mut reads, mut hits, mut bytes) = (0u64, 0u64, 0u64);
        // Every slot is filled before the area is written, so the buffer is
        // resized, never cleared.
        let mut area = Vec::new();
        // Per miss: the area's first miss in the same container, its own
        // position and its slot.
        let mut missed = Vec::new();
        let mut first_miss = HashMap::new();
        let mut start = 0;
        while start < plan.len() {
            let end = self.area_end(plan, start);
            area.resize(plan[start..end].iter().map(|e| e.size as usize).sum(), 0);
            missed.clear();
            first_miss.clear();
            let (mut slot_end, mut area_hits) = (0, 0);
            for at in start..end {
                let slot = slot_end..slot_end + plan[at].size as usize;
                slot_end = slot.end;
                let Some(chunk) = self.lookup(plan, at) else {
                    let first = *first_miss.entry(plan[at].container).or_insert(at);
                    missed.push((first, at, slot));
                    continue;
                };
                fill(&mut area[slot], &plan[at], Some(chunk))?;
                area_hits += 1;
            }
            missed.sort_by_key(|&(first, _, _)| first);
            for group in missed.chunk_by(|a, b| a.0 == b.0) {
                let container = store.read(plan[group[0].0].container)?;
                reads += 1;
                for (_, at, slot) in group {
                    let chunk = container.get(&plan[*at].fingerprint);
                    fill(&mut area[slot.clone()], &plan[*at], chunk)?;
                }
                self.admit(plan, group[0].0, &container);
            }
            out.write_all(&area)?;
            bytes += area.len() as u64;
            hits += area_hits;
            self.area_done(area_hits);
            start = end;
        }
        Ok(RestoreReport {
            bytes_restored: bytes,
            container_reads: reads,
            cache_hits: hits,
            cache_misses: reads,
            ..RestoreReport::default()
        })
    }

    fn name(&self) -> &'static str {
        P::NAME
    }
}

/// Copies `entry`'s chunk into its slot — the one check that the chunk
/// exists and is as long as the plan says.
fn fill(slot: &mut [u8], entry: &RestoreEntry, chunk: Option<&[u8]>) -> Result<(), RestoreError> {
    let chunk = chunk.ok_or(RestoreError::MissingChunk {
        fingerprint: entry.fingerprint,
        container: entry.container,
    })?;
    if chunk.len() != slot.len() {
        return Err(RestoreError::ChunkSizeMismatch {
            fingerprint: entry.fingerprint,
            container: entry.container,
            planned: entry.size,
            stored: chunk.len(),
        });
    }
    slot.copy_from_slice(chunk);
    Ok(())
}

/// One past the last entry of the area that begins at `start` and holds at
/// most `area_bytes` (a chunk larger than that gets an area of its own).
pub(crate) fn split_by_bytes(plan: &[RestoreEntry], start: usize, area_bytes: usize) -> usize {
    let mut acc = 0;
    let fit = plan[start..].iter().take_while(|e| {
        acc += e.size as usize;
        acc <= area_bytes
    });
    start + fit.count().max(1)
}

/// A chunk cache holding at most `budget` bytes (or one chunk larger than
/// it). It evicts the chunk at the front of its order first: the oldest
/// insertion, unless [`ChunkCache::touch`] moved a chunk to the back.
#[derive(Debug)]
pub(crate) struct ChunkCache {
    pub(crate) budget: usize,
    chunks: HashMap<Fingerprint, Vec<u8>>,
    order: VecDeque<Fingerprint>,
    bytes: usize,
}

impl ChunkCache {
    pub(crate) fn new(budget: usize) -> Self {
        ChunkCache {
            budget,
            chunks: HashMap::new(),
            order: VecDeque::new(),
            bytes: 0,
        }
    }

    pub(crate) fn get(&self, fp: &Fingerprint) -> Option<&[u8]> {
        self.chunks.get(fp).map(Vec::as_slice)
    }

    /// Keeps `chunk` unless it is already kept.
    pub(crate) fn insert(&mut self, fp: Fingerprint, chunk: &[u8]) {
        if self.chunks.contains_key(&fp) {
            return;
        }
        self.bytes += chunk.len();
        self.chunks.insert(fp, chunk.to_vec());
        self.order.push_back(fp);
        while self.bytes > self.budget && self.order.len() > 1 {
            let oldest = self.order.pop_front();
            if let Some(old) = oldest.and_then(|fp| self.chunks.remove(&fp)) {
                self.bytes -= old.len();
            }
        }
    }

    /// Makes a kept chunk the last to be evicted.
    pub(crate) fn touch(&mut self, fp: Fingerprint) {
        if let Some(pos) = self.order.iter().position(|&f| f == fp) {
            self.order.remove(pos);
            self.order.push_back(fp);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_cache_keeps_its_budget() {
        let mut cache = ChunkCache::new(1024);
        for i in 0..32 {
            cache.insert(Fingerprint::synthetic(i), &[0; 256]);
            assert!(cache.bytes <= 1024);
        }
        assert_eq!(cache.chunks.len(), 4);
    }

    #[test]
    fn chunk_cache_evicts_the_oldest_untouched_chunk() {
        let [a, b, c] = [1, 2, 3].map(Fingerprint::synthetic);
        for touched in [false, true] {
            let mut cache = ChunkCache::new(512);
            cache.insert(a, &[0; 256]);
            cache.insert(b, &[0; 256]);
            if touched {
                cache.touch(a);
            }
            cache.insert(c, &[0; 256]);
            assert_eq!(cache.get(&a).is_some(), touched, "touched {touched}");
            assert_eq!(cache.get(&b).is_some(), !touched, "touched {touched}");
        }
    }

    #[test]
    fn a_chunk_over_budget_is_kept_alone() {
        let mut cache = ChunkCache::new(100);
        cache.insert(Fingerprint::synthetic(1), &[0; 50]);
        cache.insert(Fingerprint::synthetic(2), &[0; 300]);
        assert_eq!(cache.chunks.len(), 1);
        assert!(cache.get(&Fingerprint::synthetic(2)).is_some());
    }
}
