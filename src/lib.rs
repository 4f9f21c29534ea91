#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! **hidestore** — facade crate for the HiDeStore reproduction.
//!
//! This workspace reimplements, from scratch in Rust, the system described
//! in *"Improving the Restore Performance via Physical-Locality Middleware
//! for Backup Systems"* (Li, Hua, Cao, Zhang — Middleware 2020): the
//! **HiDeStore** deduplication backup system, together with the Destor-style
//! research platform and every baseline it is evaluated against.
//!
//! The facade re-exports the component crates:
//!
//! | module | contents |
//! |---|---|
//! | [`hash`] | SHA-1, CRC-32, [`hash::Fingerprint`] |
//! | [`chunking`] | Fixed, Rabin, TTTD, FastCDC, AE chunkers |
//! | [`storage`] | containers, stores (memory/file), recipes |
//! | [`index`] | DDFS, Sparse Indexing, SiLo |
//! | [`rewriting`] | CBR, CFL, Capping, FBW |
//! | [`restore`] | container/chunk LRU, FAA, ALACC |
//! | [`dedup`] | the baseline backup/restore pipeline + mark-sweep GC |
//! | [`core`] | HiDeStore itself |
//! | [`workloads`] | kernel / gcc / fslhomes / macos generators |
//! | [`fsck`] | cross-layer invariant checker ([`fsck::SystemAuditor`]) |
//! | [`failpoint`] | [`failpoint::Vfs`] io-shim + fault injection for crash testing |
//! | [`tree`] | real filesystem trees: apath-ordered walk, manifests, subtree restore |
//! | [`proto`] | framed wire protocol: versioned HELLO, CRC-guarded frames, typed messages |
//! | [`tenant`] | multi-tenant registry: tenant ids → isolated repositories via a bounded LRU |
//! | [`server`] | `hds-served` daemon + [`server::RemoteClient`] |
//!
//! # Quickstart
//!
//! ```
//! use hidestore::core::{HiDeStore, HiDeStoreConfig};
//! use hidestore::restore::Faa;
//! use hidestore::storage::{MemoryContainerStore, VersionId};
//!
//! let mut system = HiDeStore::new(
//!     HiDeStoreConfig::small_for_tests(),
//!     MemoryContainerStore::new(),
//! );
//! system.backup(b"version one of my data, chunked and deduplicated")?;
//! let mut out = Vec::new();
//! system.restore(VersionId::new(1), &mut Faa::new(1 << 20), &mut out)?;
//! assert_eq!(&out[..], b"version one of my data, chunked and deduplicated");
//! # Ok::<(), hidestore::core::HiDeStoreError>(())
//! ```

pub use hidestore_chunking as chunking;
pub use hidestore_core as core;
pub use hidestore_dedup as dedup;
pub use hidestore_failpoint as failpoint;
pub use hidestore_fsck as fsck;
pub use hidestore_hash as hash;
pub use hidestore_index as index;
pub use hidestore_netfault as netfault;
pub use hidestore_proto as proto;
pub use hidestore_restore as restore;
pub use hidestore_rewriting as rewriting;
pub use hidestore_server as server;
pub use hidestore_storage as storage;
pub use hidestore_tenant as tenant;
pub use hidestore_tree as tree;
pub use hidestore_workloads as workloads;

/// Commonly used items in one import.
///
/// # Examples
///
/// ```
/// use hidestore::prelude::*;
///
/// let fp = Fingerprint::of(b"chunk");
/// assert_eq!(fp.as_bytes().len(), 20);
/// ```
pub mod prelude {
    pub use hidestore_chunking::{chunk_spans, Chunker, ChunkerKind, TttdChunker};
    pub use hidestore_core::{HiDeStore, HiDeStoreConfig, HiDeStoreError};
    pub use hidestore_dedup::{BackupPipeline, PipelineConfig, PipelineError};
    pub use hidestore_hash::Fingerprint;
    pub use hidestore_index::{
        DdfsIndex, FingerprintIndex, SiloConfig, SiloIndex, SparseConfig, SparseIndex,
    };
    pub use hidestore_restore::{Alacc, ChunkLru, ContainerLru, Faa, RestoreCache, RestoreReport};
    pub use hidestore_rewriting::{Capping, Cbr, CflRewrite, Fbw, NoRewrite, RewritePolicy};
    pub use hidestore_storage::{
        Container, ContainerId, ContainerStore, FileContainerStore, MemoryContainerStore, Recipe,
        RecipeStore, VersionId,
    };
    pub use hidestore_workloads::{Profile, VersionStream, WorkloadSpec};
}
