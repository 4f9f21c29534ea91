#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Restore-phase caching schemes.
//!
//! Restoring a backup reads its recipe and fetches every chunk from the
//! container store. Because fragmented chunks scatter across many containers
//! (paper §2.3), the number of **container reads** dominates restore time;
//! the paper's §5.3 metric is the *speed factor* — mean MB restored per
//! container read — and all schemes here report it via [`RestoreReport`].
//!
//! Every scheme runs one assembler, the only restore path: it holds the only
//! store read, read count, chunk check and output write, so a report counts
//! exactly the reads the store served for it, even on a shared store. It
//! writes each checked chunk straight from the container or cache that
//! holds it once every earlier position is written. A chunk that arrives
//! before that waits pinned in its container; only a cache hit, or a chunk
//! of a container the area cannot afford to keep, is copied aside. A
//! scheme is a policy deciding where an area ends, what it serves from what
//! it kept, what it keeps of a container just read, and what it changes
//! once an area is done.
//!
//! Implemented schemes, matching the paper's comparison set:
//!
//! * [`ContainerLru`] — classic container-granular LRU cache.
//! * [`ChunkLru`] — chunk-granular LRU (holds hot chunks, not whole
//!   containers).
//! * [`Faa`] — Forward Assembly Area (Lillibridge et al., FAST'13): restores
//!   in fixed-size areas, reading each needed container exactly once per
//!   area. Destor's default restore algorithm, used by the paper for every
//!   scheme except ALACC.
//! * [`Alacc`] — Cao et al. (FAST'18): FAA plus an adaptive look-ahead
//!   chunk cache that retains chunks needed again beyond the current area.
//! * [`BeladyCache`] — the offline optimal container cache, a floor on the
//!   container-granular schemes' reads.
//!
//! # Examples
//!
//! ```
//! use hidestore_restore::{Faa, RestoreCache, RestoreEntry};
//! use hidestore_storage::{Container, ContainerId, ContainerStore, MemoryContainerStore};
//! use hidestore_hash::Fingerprint;
//!
//! let mut store = MemoryContainerStore::new();
//! let mut c = Container::new(ContainerId::new(1), 4096);
//! let fp = Fingerprint::of(b"data");
//! c.try_add(fp, b"data");
//! store.write(c)?;
//!
//! let plan = vec![RestoreEntry::new(fp, 4, ContainerId::new(1))];
//! let mut out = Vec::new();
//! let report = Faa::new(1 << 20).restore(&plan, &store, &mut out)?;
//! assert_eq!(out, b"data");
//! assert_eq!(report.container_reads, 1);
//! # Ok::<(), hidestore_restore::RestoreError>(())
//! ```

mod alacc;
mod assembler;
mod belady;
mod chunk_lru;
mod container_lru;
mod faa;

pub use alacc::Alacc;
pub use belady::BeladyCache;
pub use chunk_lru::ChunkLru;
pub use container_lru::ContainerLru;
pub use faa::Faa;

use std::fmt;
use std::io::Write;

use hidestore_hash::Fingerprint;
use hidestore_storage::{ContainerId, ContainerStore, StorageError};

/// One entry of a *resolved* restore plan: the chunk and the container that
/// physically holds it. (HiDeStore's recipe chains are resolved into this
/// form before restore; baseline recipes already are.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RestoreEntry {
    /// Chunk fingerprint.
    pub fingerprint: Fingerprint,
    /// Chunk size in bytes.
    pub size: u32,
    /// Container physically holding the chunk.
    pub container: ContainerId,
}

impl RestoreEntry {
    /// Convenience constructor.
    pub fn new(fingerprint: Fingerprint, size: u32, container: ContainerId) -> Self {
        RestoreEntry {
            fingerprint,
            size,
            container,
        }
    }
}

/// Outcome of a restore run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RestoreReport {
    /// Logical bytes written to the output stream.
    pub bytes_restored: u64,
    /// Whole-container reads issued to the store.
    pub container_reads: u64,
    /// Chunk requests the scheme served from its own cached state without
    /// touching the store (scheme-defined: cached containers for
    /// [`ContainerLru`]/[`BeladyCache`], cached chunks for
    /// [`ChunkLru`]/[`Alacc`]; always zero for the cache-less [`Faa`]).
    pub cache_hits: u64,
    /// Equal to [`RestoreReport::container_reads`] by construction: every
    /// miss is one read. Kept only because the benchmark harness reads it.
    pub cache_misses: u64,
    // Read by `hdsbench/src/stream.rs` (frozen) and nothing else; always zero.
    #[doc(hidden)]
    pub stage: RestoreStageCounters,
}

impl RestoreReport {
    /// The paper's §5.3 metric: mean MB restored per container read.
    /// Higher is better. Returns infinity for a zero-read restore.
    pub fn speed_factor(&self) -> f64 {
        if self.container_reads == 0 {
            return f64::INFINITY;
        }
        (self.bytes_restored as f64 / (1024.0 * 1024.0)) / self.container_reads as f64
    }
}

// Exists only because `hdsbench/src/stream.rs` (frozen) reads `prefetch_wasted`.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RestoreStageCounters {
    pub prefetch_wasted: u64,
}

// Exists only because `hdsbench/src/stream.rs` (frozen) passes one to `restore_entries`.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, Default)]
pub struct RestoreConcurrency;

impl RestoreConcurrency {
    #[doc(hidden)]
    pub fn serial() -> Self {
        RestoreConcurrency
    }
}

/// Errors during restore.
#[derive(Debug)]
pub enum RestoreError {
    /// A chunk was not present in the container the plan named.
    MissingChunk {
        /// The missing chunk.
        fingerprint: Fingerprint,
        /// The container that was expected to hold it.
        container: ContainerId,
    },
    /// A chunk's stored length disagrees with its plan entry's size.
    ChunkSizeMismatch {
        /// The chunk.
        fingerprint: Fingerprint,
        /// The container holding it.
        container: ContainerId,
        /// The size the plan entry gives.
        planned: u32,
        /// The length of the stored chunk.
        stored: usize,
    },
    /// The container store failed.
    Storage(StorageError),
    /// Writing the output stream failed.
    Io(std::io::Error),
}

impl fmt::Display for RestoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RestoreError::MissingChunk {
                fingerprint,
                container,
            } => write!(f, "chunk {fingerprint} not found in container {container}"),
            RestoreError::ChunkSizeMismatch {
                fingerprint,
                container,
                planned,
                stored,
            } => write!(
                f,
                "chunk {fingerprint} in container {container} holds {stored} bytes, the plan says {planned}"
            ),
            RestoreError::Storage(e) => write!(f, "container store error: {e}"),
            RestoreError::Io(e) => write!(f, "output write error: {e}"),
        }
    }
}

impl std::error::Error for RestoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RestoreError::Storage(e) => Some(e),
            RestoreError::Io(e) => Some(e),
            RestoreError::MissingChunk { .. } | RestoreError::ChunkSizeMismatch { .. } => None,
        }
    }
}

impl From<StorageError> for RestoreError {
    fn from(e: StorageError) -> Self {
        RestoreError::Storage(e)
    }
}

impl From<std::io::Error> for RestoreError {
    fn from(e: std::io::Error) -> Self {
        RestoreError::Io(e)
    }
}

/// A restore algorithm: assembles the stream described by `plan` from
/// `store` into `out`, minimizing container reads.
pub trait RestoreCache {
    /// Runs the restore.
    ///
    /// # Errors
    ///
    /// Fails if a container or chunk named by the plan is missing, if a
    /// chunk's length is not its plan entry's size, or if writing to `out`
    /// fails. What was written by then is a checked, in-order prefix of the
    /// stream that ends at or before the failing position: the areas before
    /// it, and possibly part of its own.
    fn restore(
        &mut self,
        plan: &[RestoreEntry],
        store: &dyn ContainerStore,
        out: &mut dyn Write,
    ) -> Result<RestoreReport, RestoreError>;

    /// Short scheme name for reports (e.g. `"faa"`).
    fn name(&self) -> &'static str;
}

#[cfg(test)]
pub(crate) mod test_util {
    use super::*;
    use hidestore_storage::{Container, MemoryContainerStore};

    /// Builds a store with `n_containers`, each holding `chunks_per`
    /// deterministic chunks, and the full sequential plan.
    pub fn sequential_fixture(
        n_containers: u32,
        chunks_per: u32,
        chunk_size: usize,
    ) -> (MemoryContainerStore, Vec<RestoreEntry>, Vec<u8>) {
        let mut store = MemoryContainerStore::new();
        let mut plan = Vec::new();
        let mut expect = Vec::new();
        for c in 1..=n_containers {
            let mut container =
                Container::new(ContainerId::new(c), chunks_per as usize * chunk_size);
            for i in 0..chunks_per {
                let data = vec![(c * 100 + i) as u8; chunk_size];
                let fp = Fingerprint::of(&data);
                container.try_add(fp, &data);
                plan.push(RestoreEntry::new(
                    fp,
                    chunk_size as u32,
                    ContainerId::new(c),
                ));
                expect.extend_from_slice(&data);
            }
            store.write(container).unwrap();
        }
        (store, plan, expect)
    }

    /// A fragmented plan: chunks alternate across all containers.
    pub fn interleaved_fixture(
        n_containers: u32,
        chunks_per: u32,
        chunk_size: usize,
    ) -> (MemoryContainerStore, Vec<RestoreEntry>, Vec<u8>) {
        let (store, plan, sequential) = sequential_fixture(n_containers, chunks_per, chunk_size);
        // Reorder round-robin across containers, and the expected bytes with it.
        let mut reordered = Vec::with_capacity(plan.len());
        let mut expect = Vec::with_capacity(sequential.len());
        for i in 0..chunks_per as usize {
            for c in 0..n_containers as usize {
                let k = c * chunks_per as usize + i;
                reordered.push(plan[k]);
                expect.extend_from_slice(&sequential[k * chunk_size..(k + 1) * chunk_size]);
            }
        }
        (store, reordered, expect)
    }
}

#[cfg(test)]
mod tests {
    use super::test_util::*;
    use super::*;
    use hidestore_storage::{Container, IoStats, MemoryContainerStore};
    use std::cell::{Cell, RefCell};
    use std::sync::{Arc, Weak};

    fn all_schemes() -> Vec<Box<dyn RestoreCache>> {
        vec![
            Box::new(ContainerLru::new(4)),
            Box::new(ChunkLru::new(1 << 20)),
            Box::new(Faa::new(1 << 20)),
            Box::new(Alacc::new(1 << 20, 1 << 20)),
            Box::new(BeladyCache::new(4)),
        ]
    }

    #[test]
    fn every_scheme_restores_exact_bytes_sequential() {
        for mut scheme in all_schemes() {
            let (store, plan, expect) = sequential_fixture(8, 16, 512);
            let mut out = Vec::new();
            let report = scheme.restore(&plan, &store, &mut out).unwrap();
            assert_eq!(out, expect, "{}", scheme.name());
            assert_eq!(report.bytes_restored, expect.len() as u64);
        }
    }

    #[test]
    fn every_scheme_restores_exact_bytes_interleaved() {
        for mut scheme in all_schemes() {
            let (store, plan, expect) = interleaved_fixture(8, 16, 512);
            let mut out = Vec::new();
            scheme.restore(&plan, &store, &mut out).unwrap();
            assert_eq!(out, expect, "{}", scheme.name());
        }
    }

    #[test]
    fn sequential_plan_needs_one_read_per_container() {
        for mut scheme in all_schemes() {
            let (store, plan, _) = sequential_fixture(8, 16, 512);
            let report = scheme.restore(&plan, &store, &mut Vec::new()).unwrap();
            assert_eq!(report.container_reads, 8, "{}", scheme.name());
        }
    }

    #[test]
    fn speed_factor_math() {
        let r = RestoreReport {
            bytes_restored: 8 * 1024 * 1024,
            container_reads: 4,
            ..RestoreReport::default()
        };
        assert!((r.speed_factor() - 2.0).abs() < 1e-9);
        let zero = RestoreReport {
            bytes_restored: 10,
            container_reads: 0,
            ..RestoreReport::default()
        };
        assert!(zero.speed_factor().is_infinite());
    }

    #[test]
    fn missing_chunk_reported() {
        let (store, mut plan, _) = sequential_fixture(2, 4, 128);
        plan[0].fingerprint = Fingerprint::synthetic(u64::MAX);
        for mut scheme in all_schemes() {
            let err = scheme.restore(&plan, &store, &mut Vec::new()).unwrap_err();
            assert!(
                matches!(err, RestoreError::MissingChunk { .. }),
                "{}: {err}",
                scheme.name()
            );
        }
    }

    /// A scheme instance restores the same plan the same way every time:
    /// nothing an earlier restore adapted or kept carries over.
    #[test]
    fn a_reused_scheme_restores_like_a_fresh_one() {
        let (store, plan, expect) = interleaved_fixture(8, 32, 256);
        let mut schemes = all_schemes();
        schemes.push(Box::new(Alacc::new(2048, 2048)));
        for mut scheme in schemes {
            let mut reports = Vec::new();
            for _ in 0..2 {
                let mut out = Vec::new();
                reports.push(scheme.restore(&plan, &store, &mut out).unwrap());
                assert_eq!(out, expect, "{}", scheme.name());
            }
            assert_eq!(reports[0], reports[1], "{}", scheme.name());
        }
    }

    /// A plan entry whose size disagrees with its stored chunk, by more or
    /// by fewer bytes, fails typed before any byte is written.
    #[test]
    fn chunk_size_mismatch_reported_and_nothing_written() {
        let (store, plan, _) = sequential_fixture(1, 1, 64);
        for planned in [66, 63] {
            let plan = [RestoreEntry {
                size: planned,
                ..plan[0]
            }];
            for mut scheme in all_schemes() {
                let mut out = Vec::new();
                let err = scheme.restore(&plan, &store, &mut out).unwrap_err();
                let RestoreError::ChunkSizeMismatch {
                    fingerprint,
                    container,
                    planned: p,
                    stored,
                } = err
                else {
                    panic!("{} planned {planned}: {err}", scheme.name());
                };
                assert_eq!(
                    (fingerprint, container, p, stored),
                    (plan[0].fingerprint, plan[0].container, planned, 64),
                    "{}",
                    scheme.name()
                );
                assert!(out.is_empty(), "{} planned {planned}", scheme.name());
            }
        }
    }

    /// Every scheme, plus FAA and ALACC with areas of a few positions, so
    /// an area spans several containers yet not the whole plan.
    fn schemes_with_small_areas(area_bytes: usize) -> Vec<Box<dyn RestoreCache>> {
        let mut schemes = all_schemes();
        schemes.push(Box::new(Faa::new(area_bytes)));
        schemes.push(Box::new(Alacc::new(area_bytes, area_bytes)));
        schemes
    }

    /// A chunk that is missing, or longer or shorter than its plan entry,
    /// late in a multi-container area fails typed, and what was written
    /// before is a prefix of the version that stops at or before the bad
    /// position: no unchecked and no out-of-order byte leaves the assembler.
    #[test]
    fn a_bad_chunk_late_in_an_area_fails_typed_after_a_checked_prefix() {
        let (store, plan, expect) = interleaved_fixture(4, 8, 256);
        // Position 28 lies in the container read first (its chunks ahead of
        // the frontier are parked when the check fails), 31 in the last.
        for bad in [28, 30, 31] {
            let offset = bad * 256;
            for fault in ["missing", "longer", "shorter"] {
                let mut plan = plan.clone();
                match fault {
                    "missing" => plan[bad].fingerprint = Fingerprint::synthetic(u64::MAX),
                    "longer" => plan[bad].size += 1,
                    _ => plan[bad].size -= 1,
                }
                for mut scheme in schemes_with_small_areas(12 * 256) {
                    let mut out = Vec::new();
                    let err = scheme.restore(&plan, &store, &mut out).unwrap_err();
                    let typed = match fault {
                        "missing" => matches!(err, RestoreError::MissingChunk { .. }),
                        _ => matches!(err, RestoreError::ChunkSizeMismatch { .. }),
                    };
                    let case = format!("{} {fault} at {bad}: {err}", scheme.name());
                    assert!(typed, "{case}");
                    assert!(out.len() <= offset, "{case}: wrote {} bytes", out.len());
                    assert_eq!(out, expect[..out.len()], "{case}");
                }
            }
        }
    }

    /// Seeded shuffled plans that repeat fingerprints inside one area, over
    /// chunks of many sizes in several containers, restore byte-exact under
    /// every scheme at every area size from one chunk to the whole plan.
    #[test]
    fn shuffled_plans_with_repeats_restore_exactly_at_every_area_size() {
        for seed in 1..=8u64 {
            let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            let mut next = move |bound: usize| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 33) as usize % bound
            };
            let mut store = MemoryContainerStore::new();
            let mut chunks = Vec::new();
            for c in 1..=5 {
                let mut container = Container::new(ContainerId::new(c), 1 << 16);
                for i in 0..10 {
                    let data: Vec<u8> = (0..1 + next(600)).map(|_| next(256) as u8).collect();
                    let fp = Fingerprint::synthetic(u64::from(c) * 100 + i);
                    assert!(container.try_add(fp, &data));
                    chunks.push((
                        RestoreEntry::new(fp, data.len() as u32, ContainerId::new(c)),
                        data,
                    ));
                }
                store.write(container).unwrap();
            }
            // Few distinct chunks, so each one recurs, often inside one area.
            let picks: Vec<usize> = (0..60).map(|_| next(20) * chunks.len() / 20).collect();
            let plan: Vec<RestoreEntry> = picks.iter().map(|&i| chunks[i].0).collect();
            let expect: Vec<u8> = picks.iter().flat_map(|&i| chunks[i].1.clone()).collect();
            for area_bytes in [1, 700, 3000, 9000, expect.len()] {
                let mut schemes = schemes_with_small_areas(area_bytes);
                schemes.push(Box::new(ContainerLru::new(1)));
                schemes.push(Box::new(ChunkLru::new(area_bytes)));
                schemes.push(Box::new(BeladyCache::new(2)));
                for mut scheme in schemes {
                    let mut out = Vec::new();
                    let report = scheme.restore(&plan, &store, &mut out).unwrap();
                    let case = format!("seed {seed} area {area_bytes} {}", scheme.name());
                    assert!(out == expect, "{case}");
                    assert_eq!(report.bytes_restored, expect.len() as u64, "{case}");
                }
            }
        }
    }

    #[test]
    fn missing_container_reported() {
        let (store, _, _) = sequential_fixture(1, 1, 64);
        let plan = vec![RestoreEntry::new(
            Fingerprint::synthetic(1),
            64,
            ContainerId::new(99),
        )];
        for mut scheme in all_schemes() {
            let err = scheme.restore(&plan, &store, &mut Vec::new()).unwrap_err();
            assert!(matches!(err, RestoreError::Storage(_)), "{}", scheme.name());
        }
    }

    #[test]
    fn empty_plan_is_trivial() {
        for mut scheme in all_schemes() {
            let (store, _, _) = sequential_fixture(1, 1, 64);
            let report = scheme.restore(&[], &store, &mut Vec::new()).unwrap();
            assert_eq!(report.bytes_restored, 0);
            assert_eq!(report.container_reads, 0);
        }
    }

    /// A shared store on which another reader's read lands between every
    /// two of ours.
    struct Busy(MemoryContainerStore);

    impl ContainerStore for Busy {
        fn write(&mut self, c: Container) -> Result<(), StorageError> {
            self.0.write(c)
        }
        fn read(&self, id: ContainerId) -> Result<Arc<Container>, StorageError> {
            self.0.read(id)?;
            self.0.read(id)
        }
        fn remove(&mut self, id: ContainerId) -> Result<(), StorageError> {
            self.0.remove(id)
        }
        fn ids(&self) -> Vec<ContainerId> {
            self.0.ids()
        }
        fn stats(&self) -> IoStats {
            self.0.stats()
        }
    }

    /// Every scheme reports the reads it issued, not the store's counter:
    /// other readers sharing the store leave the report unchanged.
    #[test]
    fn reports_count_only_their_own_reads_on_a_shared_store() {
        let (store, plan, expect) = interleaved_fixture(8, 16, 512);
        let busy = Busy(store);
        for (mut alone, mut shared) in all_schemes().into_iter().zip(all_schemes()) {
            let want = alone.restore(&plan, &busy.0, &mut Vec::new()).unwrap();
            let mut out = Vec::new();
            let got = shared.restore(&plan, &busy, &mut out).unwrap();
            assert_eq!(out, expect, "{}", shared.name());
            assert_eq!(
                got.container_reads,
                want.container_reads,
                "{}",
                shared.name()
            );
        }
    }

    /// A store like a file-backed one: every read hands out a fresh copy of
    /// the container that nothing else holds. It keeps a `Weak` to each copy
    /// and, after each read, notes the most bytes and containers alive.
    struct Unshared {
        store: MemoryContainerStore,
        handed: RefCell<Vec<Weak<Container>>>,
        most_alive: Cell<(usize, usize)>,
    }

    impl ContainerStore for Unshared {
        fn write(&mut self, c: Container) -> Result<(), StorageError> {
            self.store.write(c)
        }
        fn read(&self, id: ContainerId) -> Result<Arc<Container>, StorageError> {
            let copy = Arc::new(Container::clone(&*self.store.read(id)?));
            let mut handed = self.handed.borrow_mut();
            handed.retain(|c| c.strong_count() > 0);
            handed.push(Arc::downgrade(&copy));
            let alive = handed.iter().filter_map(Weak::upgrade);
            let bytes = alive.map(|c| c.used_bytes()).sum::<usize>();
            let (most_bytes, most) = self.most_alive.get();
            self.most_alive
                .set((most_bytes.max(bytes), most.max(handed.len())));
            Ok(copy)
        }
        fn remove(&mut self, id: ContainerId) -> Result<(), StorageError> {
            self.store.remove(id)
        }
        fn ids(&self) -> Vec<ContainerId> {
            self.store.ids()
        }
        fn stats(&self) -> IoStats {
            self.store.stats()
        }
    }

    /// FAA's memory bound holds while chunks are pinned. Restoring from a
    /// store whose every read is an unshared container, the containers alive
    /// after any read never hold more than the area's bytes plus one
    /// container, and the output is byte-exact; so it is from the shared
    /// store. The interleaved plan spreads each area over all 8 containers
    /// while an area holds the bytes of 2, so pinning every container read
    /// ahead of the frontier would break the bound. The other plan is
    /// sequential but for each container's last chunk swapped with the next
    /// one's first, so it does pin.
    #[test]
    fn pinned_containers_keep_the_area_plus_one_container_bound() {
        let container_bytes = 16 * 256;
        let area = 2 * container_bytes;
        let (_, mut broken, _) = sequential_fixture(8, 16, 256);
        for c in 0..7 {
            broken.swap(c * 16 + 15, c * 16 + 16);
        }
        let (store, interleaved, _) = interleaved_fixture(8, 16, 256);
        for (name, plan) in [("interleaved", interleaved), ("broken runs", broken)] {
            let chunk = |e: &RestoreEntry| {
                store
                    .read(e.container)
                    .unwrap()
                    .get(&e.fingerprint)
                    .map(<[u8]>::to_vec)
            };
            let expect: Vec<u8> = plan.iter().flat_map(|e| chunk(e).unwrap()).collect();
            let unshared = Unshared {
                store: interleaved_fixture(8, 16, 256).0,
                handed: RefCell::default(),
                most_alive: Cell::default(),
            };
            let schemes: [Box<dyn RestoreCache>; 2] = [
                Box::new(Faa::new(area)),
                Box::new(Alacc::new(area, area).with_fixed_split()),
            ];
            for mut scheme in schemes {
                let case = format!("{name} {}", scheme.name());
                for shared in [true, false] {
                    let store: &dyn ContainerStore = if shared { &store } else { &unshared };
                    let mut out = Vec::new();
                    scheme.restore(&plan, store, &mut out).unwrap();
                    assert!(out == expect, "{case} shared {shared}");
                }
                let (bytes, containers) = unshared.most_alive.take();
                assert!(
                    bytes <= area + container_bytes,
                    "{case}: {bytes} bytes alive"
                );
                if name == "broken runs" {
                    assert!(containers >= 2, "{case}: nothing pinned");
                }
            }
        }
    }
}
