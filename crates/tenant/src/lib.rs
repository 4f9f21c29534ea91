#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Multi-tenant sharding for HiDeStore: one root, many repositories.
//!
//! The paper's middleware pitch only matters at service scale, and a single
//! repository behind one writer lock cannot serve unrelated users — every
//! tenant's backup would serialize behind every other's. This crate shards
//! the service: a [`TenantRegistry`] maps validated
//! [`TenantId`](hidestore_proto::TenantId)s to *independent* repositories
//! under one root, so isolation is physical (separate directories, separate
//! containers, separate recipe chains) rather than a bookkeeping overlay.
//!
//! * **Lazy, bounded handles.** Repositories open on first use through a
//!   capacity-bounded LRU of live [`RepositoryHandle`]s. Eviction only
//!   considers *idle* handles — a slot some request still holds (its `Arc`
//!   count proves it) is never evicted, so an in-flight writer can never
//!   race a fresh handle on the same directory.
//! * **Per-tenant writer locks.** Each slot owns its repository's writer
//!   lock, so two tenants' mutations commit fully in parallel; only
//!   same-tenant mutations serialize.
//! * **Quotas.** A [`TenantQuota`] bounds retained versions and logical
//!   bytes. [`TenantQuota::admit`] runs inside the writer lock (via
//!   [`RepositoryHandle::write_checked`]) *before* the mutation, so a
//!   refusal is a cheap read — typed, permanent, and never a rollback.
//! * **Two mounts.** A *tenant root* serves `<root>/tenants/<id>/`, one
//!   repository per tenant, auto-created on first backup with the root's
//!   `config` (or the default config when the root has none). A *legacy
//!   mount* serves one existing repository as exactly the `default`
//!   tenant — the single-repository deployment.
//!
//! [`RepositoryHandle`]: hidestore_core::RepositoryHandle
//! [`RepositoryHandle::write_checked`]: hidestore_core::RepositoryHandle::write_checked

mod registry;

pub use registry::{
    RegistryOptions, TenantError, TenantQuota, TenantRegistry, TenantSlot, TENANTS_SUBDIR,
};
