//! Atomic server-wide counters and their printable snapshot, plus the
//! per-tenant counter table behind the `tenant stats` admin verb.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use hidestore_proto::{TenantId, TenantStatsEntry};

/// Lock-free counters every connection thread updates. Read them with
/// [`ServerStats::snapshot`].
#[derive(Debug, Default)]
pub struct ServerStats {
    /// Connections accepted by the listener.
    pub accepted: AtomicU64,
    /// Requests completed successfully.
    pub requests_ok: AtomicU64,
    /// Requests answered with an ERROR frame (or aborted by a transport
    /// failure mid-request).
    pub requests_failed: AtomicU64,
    /// Frames or streams refused for exceeding the configured size limits.
    pub rejected_oversize: AtomicU64,
    /// Connections dropped because the peer stayed silent past the
    /// read/write deadline.
    pub timed_out: AtomicU64,
    /// Mutations rolled back after a failure (the repository reloaded its
    /// committed on-disk state).
    pub rolled_back: AtomicU64,
    /// Payload bytes received in DATA frames.
    pub bytes_in: AtomicU64,
    /// Payload bytes sent in DATA frames.
    pub bytes_out: AtomicU64,
    /// Connections refused with a typed `busy` error because the
    /// admission gate found the worker queue full (load shedding).
    pub busy_rejected: AtomicU64,
    /// Per-tenant counter rows, created lazily on a tenant's first
    /// request. Tenants never share a row, so one tenant's traffic can
    /// never inflate another's counters.
    tenants: Mutex<BTreeMap<TenantId, Arc<TenantStats>>>,
}

impl ServerStats {
    /// Adds `n` to a counter.
    pub fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// Increments a counter by one.
    pub fn bump(counter: &AtomicU64) {
        Self::add(counter, 1);
    }

    /// A consistent-enough point-in-time copy for reporting.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            accepted: self.accepted.load(Ordering::Relaxed),
            requests_ok: self.requests_ok.load(Ordering::Relaxed),
            requests_failed: self.requests_failed.load(Ordering::Relaxed),
            rejected_oversize: self.rejected_oversize.load(Ordering::Relaxed),
            timed_out: self.timed_out.load(Ordering::Relaxed),
            rolled_back: self.rolled_back.load(Ordering::Relaxed),
            bytes_in: self.bytes_in.load(Ordering::Relaxed),
            bytes_out: self.bytes_out.load(Ordering::Relaxed),
            busy_rejected: self.busy_rejected.load(Ordering::Relaxed),
        }
    }

    /// The counter row for `tenant`, created on first use. Cheap to call
    /// per request: one short map lookup under a mutex, then lock-free
    /// atomic bumps on the returned row.
    pub fn tenant(&self, tenant: &TenantId) -> Arc<TenantStats> {
        let mut tenants = self.tenants.lock().unwrap_or_else(|e| e.into_inner());
        tenants
            .entry(tenant.clone())
            .or_insert_with(|| Arc::new(TenantStats::default()))
            .clone()
    }

    /// Point-in-time copies of every tenant's counters, sorted by tenant
    /// id.
    pub fn tenant_snapshots(&self) -> Vec<TenantStatsEntry> {
        let tenants = self.tenants.lock().unwrap_or_else(|e| e.into_inner());
        tenants.iter().map(|(t, s)| s.snapshot(t)).collect()
    }
}

/// Lock-free counters scoped to one tenant. A row exists from the
/// tenant's first request until the daemon exits; it survives LRU
/// eviction of the tenant's repository handle.
#[derive(Debug, Default)]
pub struct TenantStats {
    /// Requests for this tenant completed successfully.
    pub requests_ok: AtomicU64,
    /// Requests for this tenant answered with an ERROR frame (or aborted
    /// by a transport failure mid-request).
    pub requests_failed: AtomicU64,
    /// Payload bytes received in DATA frames for this tenant.
    pub bytes_in: AtomicU64,
    /// Payload bytes sent in DATA frames for this tenant.
    pub bytes_out: AtomicU64,
    /// This tenant's mutations rolled back after a failure.
    pub rolled_back: AtomicU64,
    /// Backups refused by this tenant's quota before anything mutated.
    pub quota_refused: AtomicU64,
}

impl TenantStats {
    /// A consistent-enough point-in-time copy for reporting, as `tenant`'s
    /// wire row.
    pub fn snapshot(&self, tenant: &TenantId) -> TenantStatsEntry {
        TenantStatsEntry {
            tenant: tenant.as_str().to_string(),
            requests_ok: self.requests_ok.load(Ordering::Relaxed),
            requests_failed: self.requests_failed.load(Ordering::Relaxed),
            bytes_in: self.bytes_in.load(Ordering::Relaxed),
            bytes_out: self.bytes_out.load(Ordering::Relaxed),
            rolled_back: self.rolled_back.load(Ordering::Relaxed),
            quota_refused: self.quota_refused.load(Ordering::Relaxed),
        }
    }
}

/// Plain-value copy of [`ServerStats`] at one instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsSnapshot {
    /// Connections accepted.
    pub accepted: u64,
    /// Requests completed successfully.
    pub requests_ok: u64,
    /// Requests that failed.
    pub requests_failed: u64,
    /// Oversize frames/streams rejected.
    pub rejected_oversize: u64,
    /// Connections timed out.
    pub timed_out: u64,
    /// Mutations rolled back.
    pub rolled_back: u64,
    /// DATA bytes received.
    pub bytes_in: u64,
    /// DATA bytes sent.
    pub bytes_out: u64,
    /// Connections shed with a `busy` refusal.
    pub busy_rejected: u64,
}

impl fmt::Display for StatsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "accepted={} ok={} failed={} rejected_oversize={} timed_out={} \
             rolled_back={} bytes_in={} bytes_out={} busy_rejected={}",
            self.accepted,
            self.requests_ok,
            self.requests_failed,
            self.rejected_oversize,
            self.timed_out,
            self.rolled_back,
            self.bytes_in,
            self.bytes_out,
            self.busy_rejected,
        )
    }
}
