//! Retrying, resuming client: [`RetryPolicy`] backoff + [`RetryClient`].
//!
//! The plain [`RemoteClient`](crate::RemoteClient) is one connection: any
//! transport fault kills the operation. [`RetryClient`] wraps it with the
//! full fault-tolerance loop:
//!
//! * **Retry classification.** Only failures the protocol marks transient
//!   are retried: transport/frame errors (the connection died — refused,
//!   reset, timed out, torn mid-frame) and ERROR frames whose
//!   [`ErrorCode::is_retryable`] holds (`busy`, `shutting-down`,
//!   `timeout`). A typed `malformed`/`not-found`/`conflict` answer is a
//!   real answer and surfaces immediately.
//! * **Decorrelated-jitter backoff.** Each wait is drawn uniformly from
//!   `[base, prev * 3]`, clamped to `max_delay` — attempts from many
//!   clients decorrelate instead of stampeding in lockstep. A `Busy`
//!   refusal's `retry_after_ms` hint raises the floor of the next wait.
//! * **Budgets.** At most `max_attempts` connection attempts and
//!   `overall_deadline` wall time; each attempt runs under the policy's
//!   per-attempt I/O timeout.
//! * **Idempotency + resume.** [`RetryClient::backup`] generates one
//!   [`SessionToken`] for the whole operation and drives the protocol's
//!   `BackupResume` flow, so a retry continues from the server's
//!   acknowledged offset and a commit that raced the lost acknowledgement
//!   is answered from the server's dedup cache — never committed twice.
//!   [`RetryClient::restore`] keeps the bytes already received and resumes
//!   with `RestoreResume` at that offset, re-transferring only the tail.

use std::net::ToSocketAddrs;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant, SystemTime};

use hidestore_failpoint::{Plan, Socket};
use hidestore_proto::{BackupSummary, Limits, RestoreSummary, SessionToken, TenantId};

use crate::client::{ClientError, RemoteClient, DEFAULT_NET_TIMEOUT};

/// Backoff, deadline, and jitter parameters for [`RetryClient`].
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Lower bound of every backoff wait.
    pub base_delay: Duration,
    /// Upper clamp on any single backoff wait.
    pub max_delay: Duration,
    /// Per-attempt I/O deadline handed to each fresh connection
    /// (`Duration::ZERO` disables it).
    pub attempt_timeout: Duration,
    /// Total wall-clock budget across all attempts of one operation.
    pub overall_deadline: Duration,
    /// Maximum connection attempts per operation (at least 1).
    pub max_attempts: u32,
    /// Seed for the deterministic jitter stream (tests pin it).
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            base_delay: Duration::from_millis(50),
            max_delay: Duration::from_secs(2),
            attempt_timeout: DEFAULT_NET_TIMEOUT,
            overall_deadline: Duration::from_secs(60),
            max_attempts: 8,
            seed: 0x9E37_79B9_7F4A_7C15,
        }
    }
}

impl RetryPolicy {
    /// Variant with the given backoff range.
    #[must_use]
    pub fn with_delays(mut self, base: Duration, max: Duration) -> Self {
        self.base_delay = base;
        self.max_delay = max;
        self
    }

    /// Variant with the given overall deadline and attempt cap.
    #[must_use]
    pub fn with_budget(mut self, overall: Duration, max_attempts: u32) -> Self {
        self.overall_deadline = overall;
        self.max_attempts = max_attempts.max(1);
        self
    }

    /// Variant with the given jitter seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Runs `attempt` under this policy until it succeeds, fails
    /// non-retryably, or exhausts the attempt/deadline budget. Each call
    /// to `attempt` is one numbered try; `counters` records attempts,
    /// retries, and busy backoffs. Exposed so harnesses can script the
    /// attempt sequence without a live server.
    ///
    /// # Errors
    ///
    /// The last attempt's error once the budget is spent or the error is
    /// not retryable.
    pub fn run<T>(
        &self,
        counters: &mut RetryCounters,
        mut attempt: impl FnMut(u32) -> Result<T, ClientError>,
    ) -> Result<T, ClientError> {
        let started = Instant::now();
        let mut jitter = Jitter::new(self.seed);
        let mut prev_delay = self.base_delay;
        let max_attempts = self.max_attempts.max(1);
        let mut tries = 0u32;
        loop {
            tries += 1;
            counters.attempts += 1;
            let err = match attempt(tries) {
                Ok(value) => return Ok(value),
                Err(e) => e,
            };
            if !retryable(&err) || tries >= max_attempts {
                return Err(err);
            }
            let spent = started.elapsed();
            if spent >= self.overall_deadline {
                return Err(err);
            }
            counters.retries += 1;
            // Decorrelated jitter: uniform in [base, prev * 3], clamped.
            let hi = prev_delay
                .saturating_mul(3)
                .clamp(self.base_delay, self.max_delay);
            let mut delay = jitter.between(self.base_delay, hi);
            if let ClientError::Remote(w) = &err {
                if w.retry_after_ms > 0 {
                    counters.busy_backoffs += 1;
                    delay = delay.max(Duration::from_millis(u64::from(w.retry_after_ms)));
                }
            }
            prev_delay = delay;
            let remaining = self.overall_deadline.saturating_sub(spent);
            std::thread::sleep(delay.min(remaining));
        }
    }
}

/// Whether an error is worth a fresh attempt: transport/frame failures
/// (the connection is dead either way; the resumable protocol makes the
/// retry safe) and ERROR frames with a retryable [`ErrorCode`]. Protocol
/// violations and typed permanent answers are not retried.
///
/// [`ErrorCode`]: hidestore_proto::ErrorCode
#[must_use]
pub fn retryable(err: &ClientError) -> bool {
    match err {
        ClientError::Frame(_) => true,
        ClientError::Remote(e) => e.code.is_retryable(),
        ClientError::Protocol(_) => false,
    }
}

/// One successful resumed (or deduped) transfer leg, for asserting that a
/// resume re-transferred only the tail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResumeEvent {
    /// Byte offset the attempt continued from (`> 0` means bytes from an
    /// earlier attempt were NOT re-transferred).
    pub offset: u64,
    /// Bytes actually moved over the wire by this attempt.
    pub transferred: u64,
    /// Total logical bytes of the operation.
    pub total: u64,
    /// True when the server answered from its idempotency cache without
    /// accepting any bytes (the previous attempt had already committed).
    pub deduped: bool,
}

/// Observable accounting of one [`RetryClient`]'s lifetime.
#[derive(Debug, Clone, Default)]
pub struct RetryCounters {
    /// Connection attempts made (1 per try, including the first).
    pub attempts: u64,
    /// Attempts that followed a retryable failure.
    pub retries: u64,
    /// Backoffs whose floor was raised by a `Busy` `retry_after_ms` hint.
    pub busy_backoffs: u64,
    /// Every backup/restore attempt that completed with a non-zero resume
    /// offset or a dedup answer.
    pub resumes: Vec<ResumeEvent>,
}

/// A fault-tolerant client: reconnects, retries, and resumes operations
/// against a `hidestore serve` daemon according to a [`RetryPolicy`].
pub struct RetryClient {
    addr: String,
    policy: RetryPolicy,
    fault: Option<Plan>,
    tenant: TenantId,
    counters: RetryCounters,
}

impl RetryClient {
    /// A retrying client for the daemon at `addr` (resolved per attempt,
    /// so the daemon may restart on the same address between retries).
    #[must_use]
    pub fn new(addr: impl Into<String>, policy: RetryPolicy) -> Self {
        RetryClient {
            addr: addr.into(),
            policy,
            fault: None,
            tenant: TenantId::default_tenant(),
            counters: RetryCounters::default(),
        }
    }

    /// Variant whose every operation is addressed to `tenant`. Each
    /// attempt re-applies the tenant after its fresh handshake.
    #[must_use]
    pub fn with_tenant(mut self, tenant: TenantId) -> Self {
        self.tenant = tenant;
        self
    }

    /// Variant whose every connection is wrapped by `plan` — the chaos
    /// harness's hook for injecting client-side wire faults.
    #[must_use]
    pub fn with_fault(mut self, plan: Plan) -> Self {
        self.fault = Some(plan);
        self
    }

    /// The accounting accumulated so far.
    pub fn counters(&self) -> &RetryCounters {
        &self.counters
    }

    fn connect(&self) -> Result<RemoteClient, ClientError> {
        let addr = self
            .addr
            .to_socket_addrs()
            .map_err(ClientError::from)?
            .next()
            .ok_or_else(|| ClientError::Protocol(format!("{} resolves to nothing", self.addr)))?;
        let stream = Socket::connect(addr, self.fault.clone())?;
        let mut client =
            RemoteClient::handshake(stream, Limits::default(), self.policy.attempt_timeout)?;
        client.set_tenant(self.tenant.clone());
        Ok(client)
    }

    /// Pings the daemon, retrying per policy.
    ///
    /// # Errors
    ///
    /// The final attempt's error once retries are exhausted.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        let policy = self.policy.clone();
        let mut counters = std::mem::take(&mut self.counters);
        let result = policy.run(&mut counters, |_| {
            let mut client = self.connect()?;
            client.ping()
        });
        self.counters = counters;
        result
    }

    /// Fetches the version listing, retrying per policy.
    ///
    /// # Errors
    ///
    /// The final attempt's error once retries are exhausted.
    pub fn list(&mut self) -> Result<hidestore_proto::ListResponse, ClientError> {
        let policy = self.policy.clone();
        let mut counters = std::mem::take(&mut self.counters);
        let result = policy.run(&mut counters, |_| {
            let mut client = self.connect()?;
            client.list()
        });
        self.counters = counters;
        result
    }

    /// Streams `data` as a new backup version, retrying and resuming on
    /// transient failures. One idempotency token covers every attempt:
    /// the server continues from its acknowledged offset and never
    /// commits the token twice, even if the success acknowledgement
    /// itself was lost.
    ///
    /// # Errors
    ///
    /// The final attempt's error once retries are exhausted.
    pub fn backup(&mut self, data: &[u8]) -> Result<BackupSummary, ClientError> {
        let token = generate_token(self.policy.seed);
        let total = data.len() as u64;
        let policy = self.policy.clone();
        let mut counters = std::mem::take(&mut self.counters);
        let result = policy.run(&mut counters, |_| {
            let mut client = self.connect()?;
            let attempt = client.backup_resume(token, data)?;
            if attempt.resumed_at > 0 || attempt.deduped {
                self.counters.resumes.push(ResumeEvent {
                    offset: attempt.resumed_at,
                    transferred: attempt.sent,
                    total,
                    deduped: attempt.deduped,
                });
            }
            Ok(attempt.summary)
        });
        // Resume events recorded inside the closure landed on the (empty)
        // self.counters; merge them back under the swapped-out totals.
        counters.resumes.append(&mut self.counters.resumes);
        self.counters = counters;
        result
    }

    /// Restores `version` into a buffer, retrying and resuming on
    /// transient failures: bytes received before an interruption are kept
    /// and the next attempt asks the daemon to continue at that offset,
    /// so only the tail crosses the wire again.
    ///
    /// # Errors
    ///
    /// The final attempt's error once retries are exhausted.
    pub fn restore(&mut self, version: u32) -> Result<(Vec<u8>, RestoreSummary), ClientError> {
        let policy = self.policy.clone();
        let mut buf: Vec<u8> = Vec::new();
        let mut counters = std::mem::take(&mut self.counters);
        let result = policy.run(&mut counters, |_| {
            let offset = buf.len() as u64;
            let mut client = self.connect()?;
            let attempt = client.restore_resume(version, offset, &mut buf)?;
            if offset > 0 {
                self.counters.resumes.push(ResumeEvent {
                    offset,
                    transferred: attempt.received,
                    total: attempt.total_bytes,
                    deduped: false,
                });
            }
            Ok(attempt.summary)
        });
        counters.resumes.append(&mut self.counters.resumes);
        self.counters = counters;
        result.map(|summary| (buf, summary))
    }
}

/// Deterministic-enough unique token: a process-wide sequence number mixed
/// with the wall clock, the process id, and the policy seed through
/// splitmix64. Uniqueness (not unpredictability) is what the dedup
/// protocol needs.
pub(crate) fn generate_token(seed: u64) -> SessionToken {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    let nanos = SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    let a = splitmix64(seed ^ nanos);
    let b = splitmix64(a ^ seq.wrapping_mul(0xA24B_AED4_963E_E407) ^ u64::from(std::process::id()));
    let mut token = [0u8; 16];
    token[..8].copy_from_slice(&a.to_le_bytes());
    token[8..].copy_from_slice(&b.to_le_bytes());
    token
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Minimal deterministic uniform sampler for the jitter stream.
struct Jitter {
    state: u64,
}

impl Jitter {
    fn new(seed: u64) -> Self {
        Jitter {
            state: splitmix64(seed | 1),
        }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = splitmix64(self.state);
        self.state
    }

    /// Uniform duration in `[lo, hi]` (returns `lo` when the range is
    /// empty or inverted).
    fn between(&mut self, lo: Duration, hi: Duration) -> Duration {
        let (lo_n, hi_n) = (lo.as_nanos() as u64, hi.as_nanos() as u64);
        if hi_n <= lo_n {
            return lo;
        }
        let span = hi_n - lo_n;
        Duration::from_nanos(lo_n + self.next_u64() % (span + 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hidestore_proto::{ErrorCode, WireError};

    fn fast_policy() -> RetryPolicy {
        RetryPolicy::default()
            .with_delays(Duration::from_millis(1), Duration::from_millis(5))
            .with_budget(Duration::from_secs(10), 6)
            .with_seed(7)
    }

    #[test]
    fn scripted_shutting_down_attempts_then_succeeds() {
        // The satellite scenario at unit level: a daemon restarting under
        // the client answers `shutting-down` twice, then a live "server"
        // accepts. The policy must retry through both refusals.
        let policy = fast_policy();
        let mut counters = RetryCounters::default();
        let result = policy.run(&mut counters, |try_no| {
            if try_no <= 2 {
                Err(ClientError::Remote(WireError::new(
                    ErrorCode::ShuttingDown,
                    "daemon is draining",
                )))
            } else {
                Ok(try_no)
            }
        });
        assert_eq!(result.unwrap(), 3);
        assert_eq!(counters.attempts, 3);
        assert_eq!(counters.retries, 2);
    }

    #[test]
    fn non_retryable_errors_surface_immediately() {
        let policy = fast_policy();
        let mut counters = RetryCounters::default();
        let result: Result<(), _> = policy.run(&mut counters, |_| {
            Err(ClientError::Remote(WireError::new(
                ErrorCode::NotFound,
                "no such version",
            )))
        });
        assert!(matches!(result, Err(ClientError::Remote(_))));
        assert_eq!(counters.attempts, 1, "permanent answers are not retried");
        assert_eq!(counters.retries, 0);
    }

    #[test]
    fn attempt_budget_bounds_the_loop() {
        let policy = fast_policy().with_budget(Duration::from_secs(10), 3);
        let mut counters = RetryCounters::default();
        let result: Result<(), _> = policy.run(&mut counters, |_| {
            Err(ClientError::Frame(hidestore_proto::FrameError::Io(
                std::io::Error::from(std::io::ErrorKind::ConnectionRefused),
            )))
        });
        assert!(result.is_err());
        assert_eq!(counters.attempts, 3);
    }

    #[test]
    fn busy_hint_raises_backoff_floor_and_counts() {
        let policy = fast_policy();
        let mut counters = RetryCounters::default();
        let started = Instant::now();
        let result = policy.run(&mut counters, |try_no| {
            if try_no == 1 {
                Err(ClientError::Remote(WireError::busy(30, "queue full")))
            } else {
                Ok(())
            }
        });
        result.unwrap();
        assert_eq!(counters.busy_backoffs, 1);
        assert!(
            started.elapsed() >= Duration::from_millis(30),
            "the retry_after hint must floor the wait"
        );
    }

    #[test]
    fn retry_classification_matches_the_taxonomy() {
        let io = |kind: std::io::ErrorKind| {
            ClientError::Frame(hidestore_proto::FrameError::Io(std::io::Error::from(kind)))
        };
        assert!(retryable(&io(std::io::ErrorKind::ConnectionRefused)));
        assert!(retryable(&io(std::io::ErrorKind::ConnectionReset)));
        assert!(retryable(&io(std::io::ErrorKind::TimedOut)));
        for (code, want) in [
            (ErrorCode::ShuttingDown, true),
            (ErrorCode::Busy, true),
            (ErrorCode::Timeout, true),
            (ErrorCode::Malformed, false),
            (ErrorCode::NotFound, false),
            (ErrorCode::Conflict, false),
            (ErrorCode::Internal, false),
        ] {
            assert_eq!(
                retryable(&ClientError::Remote(WireError::new(code, "x"))),
                want,
                "{code}"
            );
        }
        assert!(!retryable(&ClientError::Protocol("nonsense".into())));
    }

    #[test]
    fn jitter_is_deterministic_and_in_range() {
        let lo = Duration::from_millis(10);
        let hi = Duration::from_millis(90);
        let mut a = Jitter::new(42);
        let mut b = Jitter::new(42);
        for _ in 0..100 {
            let x = a.between(lo, hi);
            assert_eq!(x, b.between(lo, hi), "same seed, same stream");
            assert!(x >= lo && x <= hi);
        }
        assert_eq!(a.between(hi, lo), hi, "inverted range collapses to lo");
    }

    #[test]
    fn tokens_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for _ in 0..1000 {
            assert!(seen.insert(generate_token(1)), "token collision");
        }
    }
}
