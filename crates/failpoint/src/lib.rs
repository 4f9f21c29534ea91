#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Deterministic fault injection for the disk and the wire.
//!
//! Backup repositories must survive a crash at *any* point of a save: the
//! paper's restart story (§4.1) assumes the appliance reopens with a
//! consistent repository. To prove that, every filesystem operation the
//! persistence layer performs goes through the [`Vfs`] io-shim trait, and
//! every socket read and write of the client and the daemon goes through
//! one [`Socket`] type, so the production path and the fault-injected path
//! are **the same code**:
//!
//! * [`RealVfs`] — a zero-sized passthrough to `std::fs`. Stores are generic
//!   over `V: Vfs` with `RealVfs` as the default, so the production build
//!   monomorphizes to direct `std::fs` calls.
//! * [`Plan`] — the one fault plan: a shared operation counter, at most one
//!   armed site with its [`FaultKind`], whether it has fired, and the trace
//!   of every numbered operation. [`FaultVfs`] and [`Socket`] each hold a
//!   plan and add only their I/O, so one plan can number a daemon's disk
//!   and wire operations in one sequence.
//!
//! A fault that fires on a filesystem operation crashes the simulated
//! process: every later filesystem operation of the plan fails too, so
//! nothing "after the crash" can leak to disk. A fault that fires on a wire
//! operation kills only its own socket; later connections run clean, so a
//! caller that connects again can prove the daemon and its repository came
//! through intact. Neither kind stops the other side.
//!
//! A harness first runs a workload under [`Plan::counting`] to enumerate
//! the sites (see [`Plan::trace`]), then replays it once per site with
//! [`Plan::armed`], and checks the recovery invariants.
//!
//! # Examples
//!
//! ```
//! use hidestore_failpoint::{FaultKind, FaultVfs, Plan, Vfs};
//!
//! let dir = std::env::temp_dir().join(format!("fp-doc-{}", std::process::id()));
//! let _ = std::fs::remove_dir_all(&dir);
//!
//! // Count the sites of a tiny workload.
//! let counting = Plan::counting();
//! let vfs = FaultVfs::new(counting.clone());
//! vfs.create_dir_all(&dir)?;
//! vfs.write(&dir.join("a"), b"hello")?;
//! assert_eq!(counting.ops(), 2);
//!
//! // Replay with site 1 (the write) armed: the write fails and the
//! // simulated process is dead afterwards.
//! let plan = Plan::armed(1, FaultKind::Error);
//! let vfs = FaultVfs::new(plan.clone());
//! vfs.create_dir_all(&dir)?;
//! assert!(vfs.write(&dir.join("a"), b"hello").is_err());
//! assert!(plan.fired());
//! assert!(vfs.read(&dir.join("a")).is_err(), "dead processes do no I/O");
//! # std::fs::remove_dir_all(&dir).ok();
//! # Ok::<(), std::io::Error>(())
//! ```

mod fault;
mod net;
mod plan;
mod vfs;

pub use fault::FaultVfs;
pub use net::Socket;
pub use plan::{FaultKind, OpKind, OpRecord, Plan};
pub use vfs::{mtime_to_system, system_to_mtime, RealVfs, Vfs, VfsEntryKind, VfsMetadata};
