//! Server-side resumable-session state.
//!
//! A backup interrupted mid-stream parks its received prefix here, keyed by
//! the client-generated [`SessionToken`]; the retrying client's
//! `BackupResume` finds the prefix and continues from the acknowledged
//! offset instead of re-sending everything. Tokens whose backup already
//! committed are remembered with their summary, so a retry that races the
//! commit acknowledgement is answered from the cache — the repository never
//! commits the same token twice.
//!
//! Both tables are bounded: at most `capacity` entries each (the daemon's
//! `MAX_SESSIONS`), evicting least-recently-used, and every entry expires
//! `ttl` after its last touch.
//! The bounds are the honest limit of the scheme — a client that comes back
//! after eviction or expiry simply starts over (backup) or re-transfers
//! (restore); correctness never depends on an entry still being present.

use std::time::{Duration, Instant};

use hidestore_proto::{BackupSummary, SessionToken, TenantId};

/// A parked, partially-received backup stream.
struct ParkedBackup {
    tenant: TenantId,
    token: SessionToken,
    data: Vec<u8>,
    total_len: u64,
    touched: Instant,
}

/// A committed token with the summary the original commit produced.
struct CommittedBackup {
    tenant: TenantId,
    token: SessionToken,
    summary: BackupSummary,
    touched: Instant,
}

/// LRU + TTL bounded tables of parked and committed backup sessions. One
/// instance lives behind a mutex in the server's shared state.
pub struct SessionTable {
    capacity: usize,
    ttl: Duration,
    /// Least-recently-used first.
    parked: Vec<ParkedBackup>,
    /// Least-recently-used first.
    committed: Vec<CommittedBackup>,
}

impl SessionTable {
    /// A table bounded to `capacity` parked (and `capacity`
    /// committed) entries, each expiring `ttl` after its last touch. A
    /// zero `ttl` never expires; `capacity` is clamped to at least 1.
    #[must_use]
    pub fn new(capacity: usize, ttl: Duration) -> Self {
        SessionTable {
            capacity: capacity.max(1),
            ttl,
            parked: Vec::new(),
            committed: Vec::new(),
        }
    }

    fn expired(&self, touched: Instant, now: Instant) -> bool {
        !self.ttl.is_zero() && now.duration_since(touched) >= self.ttl
    }

    /// Drops every entry whose TTL has elapsed. Called lazily from each
    /// mutating entry point, so an idle table still cannot hold dead
    /// sessions past one more access.
    fn sweep(&mut self, now: Instant) {
        let ttl = self.ttl;
        if ttl.is_zero() {
            return;
        }
        self.parked.retain(|p| now.duration_since(p.touched) < ttl);
        self.committed
            .retain(|c| now.duration_since(c.touched) < ttl);
    }

    /// Parks the received prefix of an interrupted backup. Entries are
    /// keyed by *(tenant, token)*: the token alone is client-chosen, so
    /// scoping by tenant is what stops one tenant's token from touching —
    /// or resuming into — another tenant's session. Replaces any previous
    /// entry for the key; evicts the least-recently-used entry when the
    /// table is full.
    pub fn park(&mut self, tenant: &TenantId, token: SessionToken, data: Vec<u8>, total_len: u64) {
        let now = Instant::now();
        self.sweep(now);
        self.parked
            .retain(|p| p.token != token || p.tenant != *tenant);
        if self.parked.len() >= self.capacity {
            self.parked.remove(0);
        }
        self.parked.push(ParkedBackup {
            tenant: tenant.clone(),
            token,
            data,
            total_len,
            touched: now,
        });
    }

    /// Removes and returns the parked prefix for `tenant`'s `token` (and
    /// its declared total length), if present and not expired.
    pub fn take(&mut self, tenant: &TenantId, token: SessionToken) -> Option<(Vec<u8>, u64)> {
        let now = Instant::now();
        self.sweep(now);
        let at = self
            .parked
            .iter()
            .position(|p| p.token == token && p.tenant == *tenant)?;
        let parked = self.parked.remove(at);
        Some((parked.data, parked.total_len))
    }

    /// Records that `tenant`'s `token` committed, caching the summary for
    /// duplicate-suppression. Any parked prefix for the key is dropped.
    pub fn record_committed(
        &mut self,
        tenant: &TenantId,
        token: SessionToken,
        summary: BackupSummary,
    ) {
        let now = Instant::now();
        self.sweep(now);
        self.parked
            .retain(|p| p.token != token || p.tenant != *tenant);
        self.committed
            .retain(|c| c.token != token || c.tenant != *tenant);
        if self.committed.len() >= self.capacity {
            self.committed.remove(0);
        }
        self.committed.push(CommittedBackup {
            tenant: tenant.clone(),
            token,
            summary,
            touched: now,
        });
    }

    /// The cached summary if `tenant`'s `token` already committed
    /// (refreshes its LRU position and TTL — a client actively retrying
    /// keeps its dedup window alive).
    pub fn committed(&mut self, tenant: &TenantId, token: SessionToken) -> Option<BackupSummary> {
        let now = Instant::now();
        let at = self
            .committed
            .iter()
            .position(|c| c.token == token && c.tenant == *tenant)?;
        if self.expired(self.committed[at].touched, now) {
            self.committed.remove(at);
            return None;
        }
        let mut entry = self.committed.remove(at);
        entry.touched = now;
        let summary = entry.summary;
        self.committed.push(entry);
        Some(summary)
    }

    /// Number of parked (incomplete) sessions currently held. The chaos
    /// suite asserts this returns to zero — no leaked sessions.
    #[must_use]
    pub fn open_sessions(&self) -> usize {
        self.parked.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tid(s: &str) -> TenantId {
        TenantId::new(s).unwrap()
    }

    fn summary(version: u32) -> BackupSummary {
        BackupSummary {
            version,
            logical_bytes: 10,
            stored_bytes: 10,
            chunks: 1,
            unique_chunks: 1,
            cold_chunks: 0,
        }
    }

    #[test]
    fn park_take_round_trip() {
        let a = tid("a");
        let mut t = SessionTable::new(4, Duration::ZERO);
        t.park(&a, [1; 16], vec![1, 2, 3], 10);
        assert_eq!(t.open_sessions(), 1);
        assert_eq!(t.take(&a, [1; 16]), Some((vec![1, 2, 3], 10)));
        assert_eq!(t.open_sessions(), 0);
        assert_eq!(t.take(&a, [1; 16]), None, "take is consuming");
    }

    #[test]
    fn same_token_different_tenants_never_collide() {
        // The token is client-chosen: two tenants may pick the same one.
        // Neither may see — or clobber — the other's session or dedup
        // cache through it.
        let (a, b) = (tid("a"), tid("b"));
        let mut t = SessionTable::new(8, Duration::ZERO);
        t.park(&a, [7; 16], vec![1, 1], 10);
        t.park(&b, [7; 16], vec![2, 2, 2], 20);
        assert_eq!(t.open_sessions(), 2, "distinct sessions, one token");
        assert_eq!(t.take(&a, [7; 16]), Some((vec![1, 1], 10)));
        assert_eq!(t.take(&b, [7; 16]), Some((vec![2, 2, 2], 20)));
        t.record_committed(&a, [9; 16], summary(5));
        assert_eq!(
            t.committed(&b, [9; 16]),
            None,
            "tenant B must not be answered from tenant A's dedup cache"
        );
        assert_eq!(t.committed(&a, [9; 16]).map(|s| s.version), Some(5));
    }

    #[test]
    fn park_replaces_same_token() {
        let a = tid("a");
        let mut t = SessionTable::new(4, Duration::ZERO);
        t.park(&a, [1; 16], vec![1], 10);
        t.park(&a, [1; 16], vec![1, 2], 10);
        assert_eq!(t.open_sessions(), 1);
        assert_eq!(t.take(&a, [1; 16]), Some((vec![1, 2], 10)));
    }

    #[test]
    fn lru_eviction_caps_the_table() {
        let a = tid("a");
        let mut t = SessionTable::new(2, Duration::ZERO);
        t.park(&a, [1; 16], vec![1], 1);
        t.park(&a, [2; 16], vec![2], 2);
        t.park(&a, [3; 16], vec![3], 3);
        assert_eq!(t.open_sessions(), 2);
        assert_eq!(t.take(&a, [1; 16]), None, "oldest was evicted");
        assert!(t.take(&a, [2; 16]).is_some());
        assert!(t.take(&a, [3; 16]).is_some());
    }

    #[test]
    fn committed_dedupes_and_drops_parked() {
        let a = tid("a");
        let mut t = SessionTable::new(4, Duration::ZERO);
        t.park(&a, [1; 16], vec![1], 10);
        t.record_committed(&a, [1; 16], summary(3));
        assert_eq!(t.open_sessions(), 0, "commit clears the parked prefix");
        assert_eq!(t.committed(&a, [1; 16]).map(|s| s.version), Some(3));
        assert_eq!(t.committed(&a, [2; 16]), None);
    }

    #[test]
    fn ttl_expires_entries() {
        let a = tid("a");
        let mut t = SessionTable::new(4, Duration::from_millis(20));
        t.park(&a, [1; 16], vec![1], 10);
        t.record_committed(&a, [2; 16], summary(1));
        std::thread::sleep(Duration::from_millis(40));
        assert_eq!(t.take(&a, [1; 16]), None, "parked entry expired");
        assert_eq!(t.committed(&a, [2; 16]), None, "committed entry expired");
        assert_eq!(t.open_sessions(), 0);
    }

    #[test]
    fn committed_refresh_keeps_active_token_alive() {
        let a = tid("a");
        let mut t = SessionTable::new(4, Duration::from_millis(60));
        t.record_committed(&a, [1; 16], summary(1));
        for _ in 0..3 {
            std::thread::sleep(Duration::from_millis(25));
            assert!(t.committed(&a, [1; 16]).is_some(), "each hit refreshes TTL");
        }
    }
}
