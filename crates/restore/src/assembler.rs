//! The one restore assembler, and the policy trait every scheme implements.

use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::ops::Range;
use std::sync::Arc;

use hidestore_hash::Fingerprint;
use hidestore_storage::{Container, ContainerStore};

use crate::{RestoreCache, RestoreEntry, RestoreError, RestoreReport};

/// The decisions that make a restore scheme. A policy never reads the store
/// and never writes output: the assembler, its [`RestoreCache`]
/// implementation, does both. The defaults keep nothing and give each plan
/// entry an area of its own.
pub trait Policy {
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
/// is read once, in order of first need. Every chunk is checked, then
/// written from the policy's hit or the container just read: at once if it
/// is at the frontier, else when the frontier reaches it, pinned in its
/// container or copied aside until then. So a failed area may have written
/// a checked, in-order prefix of itself, never a byte at or past the
/// failing position.
impl<P: Policy> RestoreCache for P {
    fn restore(
        &mut self,
        plan: &[RestoreEntry],
        store: &dyn ContainerStore,
        out: &mut dyn Write,
    ) -> Result<RestoreReport, RestoreError> {
        self.start(plan);
        let (mut reads, mut hits, mut bytes) = (0u64, 0u64, 0u64);
        // The write frontier: `next` is the first position not yet written; a
        // chunk ahead of it waits in its slot, an `Early`, until it is reached.
        let (mut next, mut parked, mut slots) = (0, Vec::new(), Vec::new());
        // Per miss: the area's first miss in the same container and its own
        // position.
        let mut missed = Vec::new();
        let mut first_miss = HashMap::new();
        let mut start = 0;
        while start < plan.len() {
            let end = self.area_end(plan, start);
            let area_bytes = plan[start..end].iter().map(|e| e.size as usize).sum();
            // At most the area's bytes are copied: reserved once, never regrown.
            parked.clear();
            parked.reserve(area_bytes);
            slots.clear();
            slots.resize(end - start, None);
            // Bytes placed (written, copied or pinned), and the charge of the
            // pinned containers the assembler alone holds, taken with the first
            // chunk pinned and given back with the last written. FAA's bound: a
            // container is pinned only if charge and later copies fit the area.
            let (mut placed, mut pinned) = (0, 0);
            let charge =
                |c: &Arc<Container>| usize::from(Arc::strong_count(c) == 1) * c.used_bytes();
            let mut place = |at: usize, chunk: &[u8], from: Option<&Arc<Container>>| {
                placed += chunk.len();
                if at > next {
                    slots[at - start] = Some(match from {
                        Some(c) if parked.len() + pinned + charge(c) <= placed => {
                            pinned += charge(c);
                            Early::Pinned(Arc::clone(c))
                        }
                        _ => {
                            parked.extend_from_slice(chunk);
                            Early::Copied(parked.len() - chunk.len()..parked.len())
                        }
                    });
                    debug_assert!(parked.len() + pinned <= placed && placed <= area_bytes);
                    return Ok(());
                }
                out.write_all(chunk)?;
                next += 1;
                while let Some(early) = slots.get_mut(next - start).and_then(Option::take) {
                    match early {
                        Early::Copied(range) => out.write_all(&parked[range])?,
                        Early::Pinned(c) => {
                            out.write_all(checked(&plan[next], c.get(&plan[next].fingerprint))?)?;
                            pinned -= charge(&c);
                        }
                    }
                    next += 1;
                }
                Ok::<_, RestoreError>(())
            };
            missed.clear();
            first_miss.clear();
            let mut area_hits = 0;
            for at in start..end {
                let Some(chunk) = self.lookup(plan, at) else {
                    let first = *first_miss.entry(plan[at].container).or_insert(at);
                    missed.push((first, at));
                    continue;
                };
                place(at, checked(&plan[at], Some(chunk))?, None)?;
                area_hits += 1;
            }
            missed.sort_by_key(|&(first, _)| first);
            for group in missed.chunk_by(|a, b| a.0 == b.0) {
                let container = store.read(plan[group[0].0].container)?;
                reads += 1;
                for &(_, at) in group {
                    let chunk = container.get(&plan[at].fingerprint);
                    place(at, checked(&plan[at], chunk)?, Some(&container))?;
                }
                self.admit(plan, group[0].0, &container);
            }
            bytes += area_bytes as u64;
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
}

/// Where a chunk that reached the assembler ahead of the write frontier
/// waits: copied into the area's parked bytes, or pinned in the container
/// it was read from, which the slot keeps alive until then.
#[derive(Clone)]
enum Early {
    Copied(Range<usize>),
    Pinned(Arc<Container>),
}

/// Returns `entry`'s chunk once it is checked — the one check that the
/// chunk exists and is as long as the plan says. No byte reaches the output
/// without passing it.
fn checked<'c>(entry: &RestoreEntry, chunk: Option<&'c [u8]>) -> Result<&'c [u8], RestoreError> {
    let chunk = chunk.ok_or(RestoreError::MissingChunk {
        fingerprint: entry.fingerprint,
        container: entry.container,
    })?;
    if chunk.len() != entry.size as usize {
        return Err(RestoreError::ChunkSizeMismatch {
            fingerprint: entry.fingerprint,
            container: entry.container,
            planned: entry.size,
            stored: chunk.len(),
        });
    }
    Ok(chunk)
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
/// insertion, unless [`ChunkCache::touch`] moved a chunk to the back. Each
/// chunk keeps its key in the order, a rising number (`u64::MAX`: none yet).
#[derive(Debug, Default)]
pub(crate) struct ChunkCache {
    pub(crate) budget: usize,
    chunks: HashMap<Fingerprint, (u64, Vec<u8>)>,
    order: BTreeMap<u64, Fingerprint>,
    bytes: usize,
}

impl ChunkCache {
    pub(crate) fn new(budget: usize) -> Self {
        ChunkCache {
            budget,
            ..ChunkCache::default()
        }
    }

    pub(crate) fn get(&self, fp: &Fingerprint) -> Option<&[u8]> {
        self.chunks.get(fp).map(|(_, chunk)| chunk.as_slice())
    }

    /// Keeps `chunk` unless it is already kept.
    pub(crate) fn insert(&mut self, fp: Fingerprint, chunk: &[u8]) {
        if self.chunks.contains_key(&fp) {
            return;
        }
        self.bytes += chunk.len();
        self.chunks.insert(fp, (u64::MAX, chunk.to_vec()));
        self.touch(fp);
        while self.bytes > self.budget && self.order.len() > 1 {
            let oldest = self.order.pop_first();
            if let Some((_, old)) = oldest.and_then(|(_, fp)| self.chunks.remove(&fp)) {
                self.bytes -= old.len();
            }
        }
    }

    /// Makes a kept chunk the last to be evicted.
    pub(crate) fn touch(&mut self, fp: Fingerprint) {
        let back = self.order.last_key_value().map_or(0, |(&key, _)| key + 1);
        if let Some((key, _)) = self.chunks.get_mut(&fp) {
            self.order.remove(&std::mem::replace(key, back));
            self.order.insert(back, fp);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    /// The chunk cache as it was before its order was keyed: a queue that
    /// `touch` scans. It keeps chunk lengths, not bytes.
    #[derive(Default)]
    struct ScannedCache {
        budget: usize,
        chunks: HashMap<Fingerprint, usize>,
        order: VecDeque<Fingerprint>,
        bytes: usize,
    }

    impl ScannedCache {
        fn insert(&mut self, fp: Fingerprint, len: usize) {
            if self.chunks.contains_key(&fp) {
                return;
            }
            self.bytes += len;
            self.chunks.insert(fp, len);
            self.order.push_back(fp);
            while self.bytes > self.budget && self.order.len() > 1 {
                let oldest = self.order.pop_front();
                if let Some(old) = oldest.and_then(|fp| self.chunks.remove(&fp)) {
                    self.bytes -= old;
                }
            }
        }

        fn touch(&mut self, fp: Fingerprint) {
            if let Some(pos) = self.order.iter().position(|&f| f == fp) {
                self.order.remove(pos);
                self.order.push_back(fp);
            }
        }
    }

    /// Seeded runs of inserts, touches and gets over a few dozen chunks of
    /// many sizes keep exactly the chunks the scanned queue keeps, in the
    /// same order, after every operation.
    #[test]
    fn chunk_cache_evicts_like_the_scanned_queue() {
        for seed in 1..=6u64 {
            let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            let mut next = move |bound: usize| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 33) as usize % bound
            };
            let budget = 1 + next(8192);
            let mut cache = ChunkCache::new(budget);
            let mut scanned = ScannedCache {
                budget,
                ..ScannedCache::default()
            };
            for op in 0..4000 {
                let fp = Fingerprint::synthetic(next(48) as u64);
                match next(3) {
                    0 => {
                        let len = next(1200);
                        cache.insert(fp, &vec![len as u8; len]);
                        scanned.insert(fp, len);
                    }
                    1 => {
                        cache.touch(fp);
                        scanned.touch(fp);
                    }
                    _ => assert_eq!(
                        cache.get(&fp).map(<[u8]>::len),
                        scanned.chunks.get(&fp).copied(),
                        "seed {seed} op {op}"
                    ),
                }
                let order: Vec<Fingerprint> = cache.order.values().copied().collect();
                assert!(scanned.order == order, "seed {seed} op {op}");
                assert_eq!(cache.chunks.len(), order.len(), "seed {seed} op {op}");
                assert_eq!(cache.bytes, scanned.bytes, "seed {seed} op {op}");
            }
        }
    }

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
