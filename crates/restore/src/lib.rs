#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Restore-phase caching schemes.
//!
//! Restoring a backup reads its recipe and fetches every chunk from the
//! container store. Because fragmented chunks scatter across many containers
//! (paper §2.3), the number of **container reads** dominates restore time;
//! the paper's §5.3 metric is the *speed factor* — mean MB restored per
//! container read — and all schemes here report it via [`RestoreReport`].
//! A scheme reads the store directly ([`RestoreCache::restore`] is the only
//! restore path; there is no prefetch stage between them), so the reads it
//! reports are the reads the store served. Each scheme counts the reads it
//! issues itself, so a report stays exact while other readers share the
//! store.
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
mod belady;
mod chunk_lru;
mod container_lru;
mod faa;
mod verify;

pub use alacc::Alacc;
pub use belady::BeladyCache;
pub use chunk_lru::ChunkLru;
pub use container_lru::ContainerLru;
pub use faa::Faa;
pub use verify::VerifyingRestore;

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
    /// Cache misses — each one cost a container read, so this always equals
    /// [`RestoreReport::container_reads`] for the built-in schemes.
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
            } => {
                write!(f, "chunk {fingerprint} not found in container {container}")
            }
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
            RestoreError::MissingChunk { .. } => None,
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
    /// Fails if a container or chunk named by the plan is missing, or if
    /// writing to `out` fails. Bytes may have been partially written.
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
        let (store, mut plan, _) = sequential_fixture(n_containers, chunks_per, chunk_size);
        // Reorder: round-robin across containers.
        let mut reordered = Vec::with_capacity(plan.len());
        for i in 0..chunks_per as usize {
            for c in 0..n_containers as usize {
                reordered.push(plan[c * chunks_per as usize + i]);
            }
        }
        plan = reordered;
        // Rebuild the expected output by reading containers directly.
        let mut store = store;
        let mut expect = Vec::new();
        for e in &plan {
            let c = store.read(e.container).unwrap();
            expect.extend_from_slice(c.get(&e.fingerprint).unwrap());
        }
        store.reset_stats();
        (store, plan, expect)
    }
}

#[cfg(test)]
mod tests {
    use super::test_util::*;
    use super::*;
    use hidestore_storage::{Container, IoStats, MemoryContainerStore};
    use std::sync::Arc;

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
        fn contains(&self, id: ContainerId) -> bool {
            self.0.contains(id)
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
        fn reset_stats(&mut self) {
            self.0.reset_stats()
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
}
