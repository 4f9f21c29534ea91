#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Container and recipe storage substrate for the HiDeStore reproduction.
//!
//! Deduplication systems store unique chunks in fixed-capacity **containers**
//! (4 MiB in the paper, §2.1) on persistent storage, and describe each backup
//! stream with a **recipe**: a list of 28-byte entries (20-byte fingerprint,
//! 4-byte container ID, 4-byte size) naming where every chunk of the stream
//! lives. Restore performance is dominated by the number of *container reads*
//! (paper §2.3), so the [`ContainerStore`] implementations here count every
//! read and write in [`IoStats`] — the counted metrics (speed factor, lookups
//! per GB) are exactly the device-independent metrics the paper reports.
//!
//! Two stores are provided: [`MemoryContainerStore`] for fast deterministic
//! experiments, and [`FileContainerStore`], a real on-disk store with a
//! binary container format, used by the file-backed examples and tests.
//!
//! HiDeStore-specific notions also live here because they are storage-format
//! concepts: the three-state [`Cid`] encoding in recipes (§4.3: positive =
//! archival container, zero = active containers, negative = "look in recipe
//! of version `-cid`"), and container `version_tag`s used for O(1) deletion
//! of expired versions (§4.5).
//!
//! # Examples
//!
//! ```
//! use hidestore_storage::{Container, ContainerId, ContainerStore, MemoryContainerStore};
//! use hidestore_hash::Fingerprint;
//!
//! let mut store = MemoryContainerStore::new();
//! let mut container = Container::new(ContainerId::new(1), 4096);
//! let fp = Fingerprint::of(b"chunk data");
//! assert!(container.try_add(fp, b"chunk data"));
//! store.write(container)?;
//!
//! let read_back = store.read(ContainerId::new(1))?;
//! assert_eq!(read_back.get(&fp), Some(&b"chunk data"[..]));
//! assert_eq!(store.stats().container_reads, 1);
//! # Ok::<(), hidestore_storage::StorageError>(())
//! ```

mod builder;
mod container;
mod error;
mod file_store;
mod names;
mod recipe;
mod store;

pub use builder::ContainerBuilder;
pub use container::{Container, ContainerId, CONTAINER_CAPACITY};
pub use error::StorageError;
pub use file_store::FileContainerStore;
pub use names::RepoFile;
pub use recipe::{
    Cid, Recipe, RecipeEntry, RecipeLoadReport, RecipeStore, VersionId, RECIPE_ENTRY_LEN,
};
pub use store::{ContainerStore, IoStats, MemoryContainerStore};
