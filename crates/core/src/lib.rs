#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! **HiDeStore** — the paper's contribution: a backup system that enhances
//! the *physical locality* of new backup versions during deduplication, so
//! restores of recent versions touch few containers, without rewriting
//! duplicate chunks (no deduplication-ratio loss) and without a full
//! fingerprint index (no index-lookup bottleneck).
//!
//! The design follows §4 of the paper:
//!
//! * **Fingerprint cache** (§4.1, [`ActivePool::classify`]) — the active
//!   pool's index is the one table of the hot set: each hot chunk's
//!   fingerprint, size, active container and the last version that held
//!   it. The paper's `T2` is the chunks stamped with the current version,
//!   `T1` those stamped with the previous one. A chunk last seen in `T1`
//!   is restamped when the current version holds it again; whatever is
//!   still stamped `T1` at the end of the version is *cold* — observed
//!   (Figure 3) to have negligible probability of ever recurring.
//! * **Chunk filter** (§4.2, [`ActivePool`]) — unique chunks are staged in
//!   *active containers*; at each version end the cold chunks are demoted to
//!   sealed *archival containers* and the sparse active containers are
//!   merged/compacted, keeping the hot set physically dense.
//! * **Recipe chain** (§4.3, [`chain`]) — recipes are written with CID 0
//!   (active); only the *previous* recipe is updated per backup (cold →
//!   archival CID, hot → negative CID pointing at the next recipe), and
//!   Algorithm 1 ([`chain::flatten_recipes`]) periodically collapses the
//!   chain offline.
//! * **Restore** (§4.4) — resolves the three CID states and feeds any
//!   [`hidestore_restore::RestoreCache`].
//! * **Deletion** (§4.5, [`HiDeStore::delete_expired`]) — expired versions
//!   drop whole archival containers by version tag; no liveness detection,
//!   no garbage collection.
//!
//! # Examples
//!
//! ```
//! use hidestore_core::{HiDeStore, HiDeStoreConfig};
//! use hidestore_restore::Faa;
//! use hidestore_storage::{MemoryContainerStore, VersionId};
//!
//! let mut system = HiDeStore::new(HiDeStoreConfig::small_for_tests(), MemoryContainerStore::new());
//! let v1 = vec![7u8; 100_000];
//! system.backup(&v1)?;
//! let mut v2 = v1.clone();
//! v2.extend_from_slice(b"new tail data");
//! system.backup(&v2)?;
//!
//! let mut out = Vec::new();
//! let report = system.restore(VersionId::new(2), &mut Faa::new(1 << 20), &mut out)?;
//! assert_eq!(out, v2);
//! assert!(report.speed_factor() > 0.0);
//! # Ok::<(), hidestore_core::HiDeStoreError>(())
//! ```

mod active;
pub mod chain;
mod composite;
mod config;
mod handle;
mod journal;
mod persist;
mod recluster;
mod stats;
mod system;

pub use active::{ActivePool, Classification, CompactionReport};
pub use composite::{CompositeStore, ACTIVE_ID_BASE};
pub use config::{HiDeStoreConfig, CONFIG_FILE};
pub use handle::RepositoryHandle;
pub use hidestore_dedup::{RunStats, VersionStats};
pub use journal::JournalRecovery;
pub use persist::{
    repository_recovery_state, OpenReport, PendingJournal, QuarantineEntry, QuarantinedArtifact,
};
pub use recluster::ReclusterReport;
pub use stats::{DeletionReport, HiDeStoreVersionStats};
pub use system::{write_staged, HiDeStore, HiDeStoreError, ResolvedVersion, RESTORE_AREA_BYTES};
