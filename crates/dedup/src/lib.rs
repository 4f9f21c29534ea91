#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Destor-style deduplication platform.
//!
//! The HiDeStore paper prototypes on **Destor** [1, 14], a research platform
//! structuring backup as a pipeline — chunking → fingerprinting → indexing →
//! rewriting → container storing → recipe writing — with pluggable
//! implementations of each phase. This crate is that platform: the
//! [`BackupPipeline`] composes any [`hidestore_index::FingerprintIndex`]
//! (DDFS, Sparse, SiLo) with any [`hidestore_rewriting::RewritePolicy`]
//! (none, CBR, CFL, Capping, FBW) over any
//! [`hidestore_storage::ContainerStore`], and restores through any
//! [`hidestore_restore::RestoreCache`]. Every baseline in the paper's
//! evaluation (§5) runs through this pipeline; HiDeStore itself modifies the
//! pipeline and lives in `hidestore-core`.
//!
//! Also here: [`gc`] — the traditional mark-sweep garbage collection that
//! baseline systems need when deleting expired versions (§5.5), implemented
//! so the paper's "deletion is almost free in HiDeStore" comparison has its
//! counterpart.
//!
//! # Examples
//!
//! ```
//! use hidestore_dedup::{BackupPipeline, PipelineConfig};
//! use hidestore_index::DdfsIndex;
//! use hidestore_rewriting::NoRewrite;
//! use hidestore_restore::Faa;
//! use hidestore_storage::{MemoryContainerStore, VersionId};
//!
//! let mut pipeline = BackupPipeline::new(
//!     PipelineConfig::small_for_tests(),
//!     DdfsIndex::new(),
//!     NoRewrite::new(),
//!     MemoryContainerStore::new(),
//! );
//! let data = vec![42u8; 100_000];
//! let stats = pipeline.backup(&data)?;
//! assert_eq!(stats.logical_bytes, 100_000);
//!
//! let mut out = Vec::new();
//! pipeline.restore(VersionId::new(1), &mut Faa::new(1 << 20), &mut out)?;
//! assert_eq!(out, data);
//! # Ok::<(), hidestore_dedup::PipelineError>(())
//! ```

pub mod analysis;
mod config;
pub mod gc;
mod pipeline;
mod stats;

pub use config::PipelineConfig;
pub use pipeline::{
    chunk_fingerprints, chunk_fingerprints_known, chunk_fingerprints_on, BackupPipeline,
    KnownChunks, PipelineError,
};
pub use stats::{RunStats, VersionStats};
