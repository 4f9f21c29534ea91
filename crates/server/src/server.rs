//! The `hds-served` daemon: a thread-per-connection TCP server over the
//! framed wire protocol.
//!
//! # Architecture
//!
//! ```text
//!             acceptor thread                 worker pool (N threads)
//!   TcpListener --accept--> sync_channel --recv--> handle_connection
//!                           (bounded; a full        |  HELLO version check
//!                            queue sheds with       |  request loop
//!                            `busy`)                |  per-request log line
//!                                                   v
//!                                          TenantRegistry
//!                                (tenant id -> RepositoryHandle via a
//!                                 bounded LRU; each tenant has its own
//!                                 writer lock, so only same-tenant
//!                                 mutations serialize — restores and
//!                                 listings run concurrently on the
//!                                 tenant's one open instance)
//! ```
//!
//! * **Robustness.** Every connection has read/write timeouts; frames and
//!   streams are size-limited; a torn frame, CRC mismatch, or mid-stream
//!   disconnect aborts only that request. Mutations go through
//!   [`RepositoryHandle::write`], so a failed backup/prune is rolled back
//!   (the journal keeps disk atomic, the handle reloads memory) and the
//!   repository stays `hds-fsck`-clean.
//! * **Graceful shutdown.** [`ServerHandle::request_shutdown`] (also
//!   triggered by the protocol's `Shutdown` request) stops the acceptor via
//!   a wake connection, lets in-flight requests finish, refuses queued
//!   connections with a typed `shutting-down` error, and joins every
//!   thread. Dropping an un-joined handle does the same. There is no
//!   signal handler — the workspace is std-only — but an unannounced
//!   SIGTERM/SIGKILL is still safe: the commit journal makes every mutation
//!   atomic, so the next open recovers the last committed state.

use std::fmt;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::num::NonZeroU32;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use hidestore_core::{HiDeStoreConfig, HiDeStoreError};
use hidestore_netfault::{AnyStream, NetPlan, NetStream};
use hidestore_proto::{
    read_frame, write_frame, ErrorCode, Frame, FrameError, FrameKind, Hello, Limits, PruneSummary,
    Request, Response, RestoreSummary, SessionToken, TenantId, TenantListEntry, TenantListResponse,
    TenantStatsEntry, TenantStatsResponse, VerifySummary, WireError,
};
use hidestore_restore::Faa;
use hidestore_storage::VersionId;
use hidestore_tenant::{RegistryOptions, TenantError, TenantQuota, TenantRegistry};

use crate::client::DEFAULT_NET_TIMEOUT;
use crate::session::SessionTable;
use crate::stats::{ServerStats, StatsSnapshot, TenantStats, TenantStatsSnapshot};
use crate::view;

/// Payload bytes per DATA frame when streaming restores to a client.
pub const DATA_CHUNK: usize = 256 * 1024;

/// Bytes of the restore cache each served restore gets (matches the local
/// CLI's default FAA cache).
const RESTORE_CACHE_BYTES: usize = 32 << 20;

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Address to bind, e.g. `127.0.0.1:0` for an ephemeral loopback port.
    pub bind: String,
    /// Worker threads (concurrent connections served). At least 1.
    pub workers: usize,
    /// Accepted connections the admission gate queues ahead of the
    /// workers; when it is full, further connections are shed with a
    /// retryable `busy` refusal instead of queueing without bound.
    pub queue_depth: usize,
    /// Per-connection read and write deadline (`--timeout SECS`), by
    /// default [`DEFAULT_NET_TIMEOUT`]; [`Duration::ZERO`] disables it.
    pub io_timeout: Duration,
    /// Frame/stream size limits enforced on everything received.
    pub limits: Limits,
    /// Suppress per-request log lines (tests, benchmarks).
    pub quiet: bool,
    /// Deterministic network fault plan applied to every served
    /// connection's wire I/O (chaos tests); `None` serves plain TCP.
    pub fault: Option<NetPlan>,
    /// Maximum parked resumable sessions held at once (LRU-evicted).
    pub max_sessions: usize,
    /// Idle lifetime of a parked/committed session entry; zero never
    /// expires.
    pub session_ttl: Duration,
    /// Backoff hint (milliseconds) sent with `busy` refusals.
    pub busy_retry_after_ms: u32,
    /// Serve the directory as a multi-tenant root (`<dir>/tenants/<id>/`,
    /// one repository per tenant) instead of a single repository served
    /// as the `default` tenant.
    pub tenants_root: bool,
    /// Soft cap on concurrently open tenant repository handles (tenant
    /// roots; clamped to at least 1). Idle handles beyond the cap are
    /// evicted least-recently-used.
    pub max_live_tenants: usize,
    /// Whether a backup against an absent tenant creates its repository
    /// from the template config (tenant roots only; read paths never
    /// create).
    pub auto_create_tenants: bool,
    /// Quota applied to every tenant without an explicit override. The
    /// zero default is unlimited.
    pub default_quota: TenantQuota,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            bind: "127.0.0.1:0".into(),
            workers: 4,
            queue_depth: 16,
            io_timeout: DEFAULT_NET_TIMEOUT,
            limits: Limits::default(),
            quiet: false,
            fault: None,
            max_sessions: 64,
            session_ttl: Duration::from_secs(300),
            busy_retry_after_ms: 100,
            tenants_root: false,
            max_live_tenants: 8,
            auto_create_tenants: true,
            default_quota: TenantQuota::UNLIMITED,
        }
    }
}

impl ServerConfig {
    /// Parses the daemon's command line — `<repo-dir>` followed by flags —
    /// for both entry points (`hds-served` and `hidestore serve`), returning
    /// the repository directory and the configuration.
    ///
    /// # Errors
    ///
    /// A one-line description of the usage error: missing repository
    /// directory, unknown flag, or a missing or out-of-range flag value.
    pub fn from_args(args: &[String]) -> Result<(String, ServerConfig), String> {
        fn number<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
            value
                .parse()
                .map_err(|_| format!("{flag} must be a number, got {value}"))
        }
        fn at_least_one(flag: &str, value: &str) -> Result<usize, String> {
            match number(flag, value)? {
                0 => Err(format!("{flag} must be >= 1, got {value}")),
                n => Ok(n),
            }
        }
        let mut it = args.iter();
        let repo = match it.next() {
            Some(repo) if !repo.starts_with('-') => repo.clone(),
            _ => return Err("serving needs a <repo-dir>".into()),
        };
        let mut bind = "127.0.0.1".to_string();
        let mut port: u16 = 0;
        let mut config = ServerConfig::default();
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--bind" => bind = value()?.clone(),
                "--port" => port = number(flag, value()?)?,
                "--workers" => config.workers = at_least_one(flag, value()?)?,
                "--quiet" => config.quiet = true,
                "--timeout" => config.io_timeout = Duration::from_secs(number(flag, value()?)?),
                "--tenants" => config.tenants_root = true,
                "--max-tenants" => config.max_live_tenants = at_least_one(flag, value()?)?,
                "--no-auto-tenants" => config.auto_create_tenants = false,
                "--quota-bytes" => config.default_quota.max_bytes = number(flag, value()?)?,
                "--quota-versions" => config.default_quota.max_versions = number(flag, value()?)?,
                other => return Err(format!("unknown option {other}")),
            }
        }
        config.bind = format!("{bind}:{port}");
        Ok((repo, config))
    }
}

/// Errors starting the daemon.
#[derive(Debug)]
pub enum ServerError {
    /// Binding or configuring the listener failed.
    Io(io::Error),
    /// Opening the repository failed.
    Repo(HiDeStoreError),
    /// Mounting the tenant registry failed.
    Tenant(TenantError),
}

impl fmt::Display for ServerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServerError::Io(e) => write!(f, "listener error: {e}"),
            ServerError::Repo(e) => write!(f, "repository error: {e}"),
            ServerError::Tenant(e) => write!(f, "tenant registry error: {e}"),
        }
    }
}

impl std::error::Error for ServerError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServerError::Io(e) => Some(e),
            ServerError::Repo(e) => Some(e),
            ServerError::Tenant(e) => Some(e),
        }
    }
}

impl From<io::Error> for ServerError {
    fn from(e: io::Error) -> Self {
        ServerError::Io(e)
    }
}

impl From<HiDeStoreError> for ServerError {
    fn from(e: HiDeStoreError) -> Self {
        ServerError::Repo(e)
    }
}

impl From<TenantError> for ServerError {
    fn from(e: TenantError) -> Self {
        ServerError::Tenant(e)
    }
}

/// State shared by the acceptor, the workers, and the handle.
struct Shared {
    /// Tenant id → repository handle, through a capacity-bounded LRU.
    /// Each tenant's slot owns its own writer lock and resumable-commit
    /// gate, so unrelated tenants' mutations commit in parallel.
    registry: TenantRegistry,
    /// Accepted connections waiting for a worker. The acceptor owns the
    /// sending side; when it exits, the workers drain what is queued and
    /// stop.
    queue: Mutex<Receiver<(TcpStream, SocketAddr)>>,
    shutdown: AtomicBool,
    stats: ServerStats,
    config: ServerConfig,
    addr: SocketAddr,
    /// Parked/committed resumable-session state, keyed by
    /// *(tenant, token)* (LRU + TTL bounded).
    sessions: Mutex<SessionTable>,
}

impl Shared {
    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    fn sessions(&self) -> MutexGuard<'_, SessionTable> {
        // The table holds plain data; a panicking holder cannot leave it
        // inconsistent, so a poisoned lock is safe to re-enter.
        self.sessions.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Sets the shutdown flag and pokes the blocking acceptor with a wake
    /// connection so it observes the flag immediately.
    fn trigger_shutdown(&self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        let mut wake = self.addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(std::net::IpAddr::from([127, 0, 0, 1]));
        }
        if let Ok(stream) = TcpStream::connect_timeout(&wake, Duration::from_secs(1)) {
            drop(stream);
        }
    }

    fn log(&self, line: fmt::Arguments<'_>) {
        if !self.config.quiet {
            eprintln!("hds-served: {line}");
        }
    }
}

/// A running daemon. Keep it to observe stats and to shut the server down;
/// dropping it without [`ServerHandle::join`] shuts the server down the
/// same graceful way and waits for it.
pub struct ServerHandle {
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the listener actually bound (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Point-in-time copy of the server counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.shared.stats.snapshot()
    }

    /// How many failed mutations the tenant repositories rolled back,
    /// summed across all tenants (including evicted handles).
    pub fn rollbacks(&self) -> u64 {
        self.shared.registry.rollbacks()
    }

    /// Point-in-time copies of every tenant's request counters, sorted by
    /// tenant id. The isolation suite asserts one tenant's traffic never
    /// bleeds into another tenant's row.
    pub fn tenant_stats(&self) -> Vec<(TenantId, TenantStatsSnapshot)> {
        self.shared.stats.tenant_snapshots()
    }

    /// Parked (incomplete) resumable sessions currently held. The chaos
    /// suite asserts this drains to zero.
    pub fn open_sessions(&self) -> usize {
        self.shared.sessions().open_sessions()
    }

    /// Begins a graceful shutdown: the acceptor stops, in-flight requests
    /// finish, queued connections are refused with `shutting-down`.
    /// Non-blocking; follow with [`ServerHandle::join`].
    pub fn request_shutdown(&self) {
        self.shared.trigger_shutdown();
    }

    /// Waits for the acceptor and every worker to finish (after a
    /// [`ServerHandle::request_shutdown`] or a protocol `Shutdown`
    /// request), returning the final counters.
    pub fn join(mut self) -> StatsSnapshot {
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        self.shared.stats.snapshot()
    }

    /// [`ServerHandle::request_shutdown`] followed by [`ServerHandle::join`].
    pub fn shutdown_and_join(self) -> StatsSnapshot {
        self.request_shutdown();
        self.join()
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if self.threads.is_empty() {
            return;
        }
        self.shared.trigger_shutdown();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// Opens the repository (or tenant root, with
/// [`ServerConfig::tenants_root`]) at `repo_dir` and serves it until
/// shutdown. A plain repository is served as exactly the `default` tenant
/// — the tenant a client that never names one addresses.
///
/// # Errors
///
/// Fails if the repository/tenant root cannot be mounted or the listener
/// cannot bind.
pub fn serve(
    repo_dir: impl AsRef<Path>,
    config: ServerConfig,
) -> Result<ServerHandle, ServerError> {
    let options = RegistryOptions {
        max_live: config.max_live_tenants,
        auto_create: config.auto_create_tenants,
        template: HiDeStoreConfig::default(),
        default_quota: config.default_quota,
    };
    let registry = if config.tenants_root {
        TenantRegistry::open_root(repo_dir, options)?
    } else {
        TenantRegistry::open_legacy(repo_dir, options)?
    };
    let listener = TcpListener::bind(&config.bind)?;
    let addr = listener.local_addr()?;
    let workers = config.workers.max(1);
    let queue_depth = config.queue_depth.max(1);
    let sessions = Mutex::new(SessionTable::new(config.max_sessions, config.session_ttl));
    let (tx, rx) = sync_channel(queue_depth);
    let shared = Arc::new(Shared {
        registry,
        queue: Mutex::new(rx),
        shutdown: AtomicBool::new(false),
        stats: ServerStats::default(),
        config,
        addr,
        sessions,
    });

    let mut threads = Vec::with_capacity(workers + 1);
    {
        let shared = Arc::clone(&shared);
        threads.push(std::thread::spawn(move || acceptor(&listener, &shared, tx)));
    }
    for _ in 0..workers {
        let shared = Arc::clone(&shared);
        threads.push(std::thread::spawn(move || worker(&shared)));
    }
    Ok(ServerHandle { shared, threads })
}

/// The body of both daemon entry points: [`serve`]s `repo_dir`, announces
/// the bound address on stdout, and blocks until a protocol `Shutdown`
/// request has drained the daemon.
///
/// # Errors
///
/// As [`serve`].
pub fn serve_until_shutdown(repo_dir: &str, config: ServerConfig) -> Result<(), ServerError> {
    let handle = serve(repo_dir, config)?;
    // Scripts block on this exact line to learn the bound (ephemeral) port.
    println!("hds-served listening on {}", handle.addr());
    let _ = io::stdout().flush();
    let stats = handle.join();
    eprintln!("hds-served: drained; final counters: {stats}");
    Ok(())
}

/// Accepts connections and queues them for the workers until shutdown.
/// Owning `tx` means the workers see end-of-stream however this returns.
fn acceptor(listener: &TcpListener, shared: &Shared, tx: SyncSender<(TcpStream, SocketAddr)>) {
    loop {
        match listener.accept() {
            Ok((stream, peer)) => {
                if shared.shutting_down() {
                    // Either the wake connection or a late client; both are
                    // dropped, and the listener closes with the loop.
                    break;
                }
                ServerStats::bump(&shared.stats.accepted);
                // Admission gate: never park on a saturated worker queue.
                // A full queue sheds the connection with a retryable
                // `busy` refusal carrying a backoff hint.
                match tx.try_send((stream, peer)) {
                    Ok(()) => {}
                    Err(TrySendError::Full((stream, _))) => {
                        ServerStats::bump(&shared.stats.busy_rejected);
                        shed_busy(stream, shared);
                    }
                    // The receiver lives in `shared`, so this cannot happen.
                    Err(TrySendError::Disconnected(_)) => break,
                }
            }
            Err(_) if shared.shutting_down() => break,
            Err(_) => {
                // Transient accept failure (e.g. aborted connection);
                // keep serving.
            }
        }
    }
}

/// Refuses an un-admitted connection with `busy` + a retry hint. Runs on
/// the acceptor thread under short deadlines, so a slow client cannot
/// stall admission for long.
fn shed_busy(stream: TcpStream, shared: &Shared) {
    let stream = AnyStream::wrap(stream, shared.config.fault.as_ref());
    let hint = shared.config.busy_retry_after_ms;
    refuse(
        stream,
        shared,
        WireError::busy(hint, "worker queue is full, retry later"),
    );
}

fn worker(shared: &Shared) {
    loop {
        // The guard drops at the end of this statement: holding it while
        // serving would let only one worker run at a time.
        let next = shared
            .queue
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .recv();
        let Ok((stream, peer)) = next else {
            return; // the acceptor exited and the queue is drained
        };
        let mut stream = AnyStream::wrap(stream, shared.config.fault.as_ref());
        if shared.shutting_down() {
            let err = WireError::new(ErrorCode::ShuttingDown, "daemon is draining for shutdown");
            refuse(stream, shared, err);
        } else {
            handle_connection(&mut stream, peer, shared);
        }
    }
}

/// Tells a client it will not be served — with a typed error instead of a
/// silently dropped connection. Consumes the client's HELLO first so the
/// refusal lands where the client expects the HELLO reply.
fn refuse<S: NetStream>(mut stream: S, shared: &Shared, err: WireError) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
    let _ = stream.set_write_timeout(Some(Duration::from_millis(200)));
    let _ = read_frame(&mut stream, &shared.config.limits);
    let _ = write_frame(&mut stream, FrameKind::Error, &err.encode());
}

/// Reads one frame, returning `Ok(None)` when the peer closed the
/// connection cleanly at a frame boundary.
fn read_frame_opt<S: NetStream>(
    stream: &mut S,
    limits: &Limits,
) -> Result<Option<Frame>, FrameError> {
    let mut first = [0u8; 1];
    loop {
        match stream.read(&mut first) {
            Ok(0) => return Ok(None),
            Ok(_) => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    let mut chained = (&first[..]).chain(&mut *stream);
    read_frame(&mut chained, limits).map(Some)
}

fn send_error<S: NetStream>(stream: &mut S, code: ErrorCode, message: impl Into<String>) {
    let err = WireError::new(code, message);
    let _ = write_frame(stream, FrameKind::Error, &err.encode());
}

/// Classifies a transport-level failure for the stats counters and log.
fn classify_transport(shared: &Shared, err: &FrameError) -> &'static str {
    if err.is_timeout() {
        ServerStats::bump(&shared.stats.timed_out);
        "timeout"
    } else {
        "disconnect"
    }
}

fn handle_connection<S: NetStream>(stream: &mut S, peer: SocketAddr, shared: &Shared) {
    let limits = shared.config.limits;
    let _ = stream.set_nodelay(true);
    let timeout = shared.config.io_timeout;
    let timeout = (!timeout.is_zero()).then_some(timeout);
    if stream.set_read_timeout(timeout).is_err() || stream.set_write_timeout(timeout).is_err() {
        return;
    }

    // HELLO version check. A connection that closes without a byte (port
    // probe, liveness poll) is not an event worth logging.
    match read_frame_opt(stream, &limits) {
        Ok(None) => return,
        Ok(Some(frame)) if frame.kind == FrameKind::Hello => {
            let client = match Hello::decode(&frame.payload) {
                Ok(h) => h,
                Err(e) => {
                    ServerStats::bump(&shared.stats.requests_failed);
                    send_error(stream, ErrorCode::Malformed, format!("bad HELLO: {e}"));
                    return;
                }
            };
            if Hello::current().negotiate(&client).is_none() {
                ServerStats::bump(&shared.stats.requests_failed);
                send_error(
                    stream,
                    ErrorCode::Unsupported,
                    format!(
                        "no common protocol version: client {}..={}, server speaks {}",
                        client.min_version,
                        client.max_version,
                        hidestore_proto::PROTO_VERSION,
                    ),
                );
                return;
            }
            if write_frame(stream, FrameKind::Hello, &Hello::current().encode()).is_err() {
                return;
            }
        }
        Ok(Some(frame)) => {
            ServerStats::bump(&shared.stats.requests_failed);
            send_error(
                stream,
                ErrorCode::Malformed,
                format!("expected HELLO, got {}", frame.kind),
            );
            return;
        }
        Err(e) => {
            let kind = classify_transport(shared, &e);
            shared.log(format_args!("peer={peer} req=hello result={kind} ({e})"));
            return;
        }
    }

    // Request loop: one frame opens each request; the connection persists
    // until the peer closes, errors, or the daemon drains.
    loop {
        let frame = match read_frame_opt(stream, &limits) {
            Ok(None) => return,
            Ok(Some(f)) => f,
            Err(e) => {
                let kind = classify_transport(shared, &e);
                // A torn frame aborts the connection; nothing was mutated.
                ServerStats::bump(&shared.stats.requests_failed);
                shared.log(format_args!("peer={peer} req=? result={kind} ({e})"));
                if e.is_timeout() {
                    // The peer went silent past the deadline: tell it with
                    // a typed error (the write side may still work)
                    // instead of silently dropping the stream.
                    send_error(stream, ErrorCode::Timeout, "request deadline exceeded");
                } else if !matches!(e, FrameError::Io(_)) {
                    send_error(stream, ErrorCode::Malformed, format!("{e}"));
                }
                return;
            }
        };
        if frame.kind != FrameKind::Request {
            ServerStats::bump(&shared.stats.requests_failed);
            send_error(
                stream,
                ErrorCode::Malformed,
                format!("expected REQUEST, got {}", frame.kind),
            );
            return;
        }
        // Every request names its tenant in the envelope. A hostile tenant
        // id (path traversal, bad charset) is rejected right here by the
        // decoder, before it can reach anything that touches a path.
        let (tenant, request) = match Request::decode_enveloped(&frame.payload) {
            Ok(pair) => pair,
            Err(e) => {
                ServerStats::bump(&shared.stats.requests_failed);
                send_error(stream, ErrorCode::Malformed, format!("bad request: {e}"));
                return;
            }
        };

        let started = Instant::now();
        let name = request.name();
        let shutdown_requested = matches!(request, Request::Shutdown);
        let tstats = shared.stats.tenant(&tenant);
        match dispatch(request, &tenant, &tstats, stream, shared) {
            Outcome::Ok { detail } => {
                ServerStats::bump(&shared.stats.requests_ok);
                ServerStats::bump(&tstats.requests_ok);
                shared.log(format_args!(
                    "peer={peer} tenant={tenant} req={name} dur_ms={} result=ok{detail}",
                    started.elapsed().as_millis(),
                ));
            }
            Outcome::Failed { code, message } => {
                ServerStats::bump(&shared.stats.requests_failed);
                ServerStats::bump(&tstats.requests_failed);
                shared.log(format_args!(
                    "peer={peer} tenant={tenant} req={name} dur_ms={} result=error code={code} \
                     msg={message:?}",
                    started.elapsed().as_millis(),
                ));
                send_error(stream, code, message);
            }
            Outcome::Transport(e) => {
                ServerStats::bump(&shared.stats.requests_failed);
                ServerStats::bump(&tstats.requests_failed);
                let kind = classify_transport(shared, &e);
                shared.log(format_args!(
                    "peer={peer} tenant={tenant} req={name} dur_ms={} result={kind} ({e})",
                    started.elapsed().as_millis(),
                ));
                if e.is_timeout() {
                    // The request overran its deadline mid-exchange: the
                    // peer gets a typed `timeout` before the connection
                    // closes, never a silent drop.
                    send_error(stream, ErrorCode::Timeout, "request deadline exceeded");
                }
                return;
            }
        }
        if shutdown_requested || shared.shutting_down() {
            return;
        }
    }
}

/// What one request dispatch produced.
enum Outcome {
    /// Response sent; `detail` is appended to the log line.
    Ok { detail: String },
    /// The request failed in a way the client can be told about.
    Failed { code: ErrorCode, message: String },
    /// The transport died mid-request; the connection is finished.
    Transport(FrameError),
}

fn repo_error_outcome(e: HiDeStoreError) -> Outcome {
    let code = match &e {
        HiDeStoreError::UnknownVersion(_) => ErrorCode::NotFound,
        HiDeStoreError::CannotExpireNewest { .. } => ErrorCode::Conflict,
        HiDeStoreError::PartialRestore { .. } => ErrorCode::Conflict,
        // A quota refusal is a typed permanent answer: retrying the same
        // backup cannot succeed until the tenant frees space, so the code
        // is deliberately non-retryable.
        HiDeStoreError::QuotaExceeded { .. } => ErrorCode::QuotaExceeded,
        _ => ErrorCode::Internal,
    };
    Outcome::Failed {
        code,
        message: e.to_string(),
    }
}

/// Maps a registry failure onto the wire: an absent tenant is the same
/// typed `not-found` an absent version gets; everything else is internal.
fn tenant_error_outcome(e: TenantError) -> Outcome {
    match e {
        TenantError::UnknownTenant(t) => Outcome::Failed {
            code: ErrorCode::NotFound,
            message: format!("unknown tenant {t}"),
        },
        TenantError::Repo(e) => repo_error_outcome(e),
        TenantError::Io(e) => Outcome::Failed {
            code: ErrorCode::Internal,
            message: format!("tenant root I/O error: {e}"),
        },
    }
}

/// Bumps the failure counters for a failed tenant mutation: a quota
/// refusal is an admission check (nothing mutated, nothing rolled back);
/// anything else was rolled back by the handle.
fn bump_mutation_failure(shared: &Shared, tstats: &TenantStats, e: &HiDeStoreError) {
    if matches!(e, HiDeStoreError::QuotaExceeded { .. }) {
        ServerStats::bump(&tstats.quota_refused);
    } else {
        ServerStats::bump(&shared.stats.rolled_back);
        ServerStats::bump(&tstats.rolled_back);
    }
}

fn send_response<S: NetStream>(stream: &mut S, response: &Response) -> Result<(), FrameError> {
    write_frame(stream, FrameKind::Response, &response.encode())
}

fn dispatch<S: NetStream>(
    request: Request,
    tenant: &TenantId,
    tstats: &TenantStats,
    stream: &mut S,
    shared: &Shared,
) -> Outcome {
    match request {
        Request::Ping => match send_response(stream, &Response::Pong) {
            Ok(()) => Outcome::Ok {
                detail: String::new(),
            },
            Err(e) => Outcome::Transport(e),
        },
        Request::BackupResume { token, total_len } => {
            serve_backup_resume(tenant, tstats, token, total_len, stream, shared)
        }
        Request::RestoreResume { version, offset } => {
            serve_restore(tenant, tstats, version, offset, stream, shared)
        }
        Request::List => {
            let slot = match shared.registry.get(tenant) {
                Ok(s) => s,
                Err(e) => return tenant_error_outcome(e),
            };
            let list = match slot.handle().read(view::list_response) {
                Ok(l) => l,
                Err(e) => return repo_error_outcome(e),
            };
            match send_response(stream, &Response::ListOk(list)) {
                Ok(()) => Outcome::Ok {
                    detail: String::new(),
                },
                Err(e) => Outcome::Transport(e),
            }
        }
        Request::Stats => {
            let slot = match shared.registry.get(tenant) {
                Ok(s) => s,
                Err(e) => return tenant_error_outcome(e),
            };
            let stats = match slot.handle().read(view::stats_response) {
                Ok(Ok(s)) => s,
                Ok(Err(e)) | Err(e) => return repo_error_outcome(e),
            };
            match send_response(stream, &Response::StatsOk(stats)) {
                Ok(()) => Outcome::Ok {
                    detail: String::new(),
                },
                Err(e) => Outcome::Transport(e),
            }
        }
        Request::Prune { keep_last } => serve_prune(tenant, tstats, keep_last, stream, shared),
        Request::Verify => serve_verify(tenant, stream, shared),
        Request::TenantList => serve_tenant_list(stream, shared),
        Request::TenantStats => serve_tenant_stats(stream, shared),
        Request::Shutdown => {
            // Acknowledge first, then trigger: the client gets its reply
            // even though the daemon is now draining.
            let result = send_response(stream, &Response::ShutdownOk);
            shared.trigger_shutdown();
            match result {
                Ok(()) => Outcome::Ok {
                    detail: " (draining)".into(),
                },
                Err(e) => Outcome::Transport(e),
            }
        }
    }
}

/// What receiving a backup's DATA stream produced.
enum BackupStream {
    /// END arrived; `data` holds the complete payload.
    Complete(Vec<u8>),
    /// The request failed in a way the client can be told about.
    Failed(Outcome),
    /// The transport died mid-stream; `data` holds the complete frames
    /// received before the failure (resumable).
    Interrupted { data: Vec<u8>, error: FrameError },
}

/// Receives DATA frames into `data` (which may already hold a resumed
/// prefix) until END, a failure, or a transport error.
fn receive_backup_stream<S: NetStream>(
    stream: &mut S,
    shared: &Shared,
    tstats: &TenantStats,
    mut data: Vec<u8>,
) -> BackupStream {
    let limits = shared.config.limits;
    loop {
        let frame = match read_frame(stream, &limits) {
            Ok(f) => f,
            Err(error) => return BackupStream::Interrupted { data, error },
        };
        match frame.kind {
            FrameKind::Data => {
                if data.len() as u64 + frame.payload.len() as u64 > limits.max_stream {
                    ServerStats::bump(&shared.stats.rejected_oversize);
                    return BackupStream::Failed(Outcome::Failed {
                        code: ErrorCode::TooLarge,
                        message: format!(
                            "backup stream exceeds the {}-byte limit",
                            limits.max_stream
                        ),
                    });
                }
                ServerStats::add(&shared.stats.bytes_in, frame.payload.len() as u64);
                ServerStats::add(&tstats.bytes_in, frame.payload.len() as u64);
                data.extend_from_slice(&frame.payload);
            }
            FrameKind::End => return BackupStream::Complete(data),
            other => {
                return BackupStream::Failed(Outcome::Failed {
                    code: ErrorCode::Malformed,
                    message: format!("expected DATA or END, got {other}"),
                })
            }
        }
    }
}

fn backup_summary_proto(
    stats: &hidestore_core::HiDeStoreVersionStats,
) -> hidestore_proto::BackupSummary {
    hidestore_proto::BackupSummary {
        version: stats.version.get(),
        logical_bytes: stats.logical_bytes,
        stored_bytes: stats.stored_bytes,
        chunks: stats.chunks,
        unique_chunks: stats.unique_chunks,
        cold_chunks: stats.cold_chunks,
    }
}

/// Parks an interrupted backup prefix unless the token already committed —
/// a stale worker (its client long gone) must not resurrect a session that
/// a faster retry already finished. One lock guard makes check-and-park
/// atomic against `record_committed`. Empty prefixes are dropped: there is
/// nothing to resume and no session worth holding.
fn park_if_uncommitted(
    shared: &Shared,
    tenant: &TenantId,
    token: SessionToken,
    data: Vec<u8>,
    total_len: u64,
) {
    if data.is_empty() {
        return;
    }
    let mut sessions = shared.sessions();
    if sessions.committed(tenant, token).is_none() {
        sessions.park(tenant, token, data, total_len);
    }
}

/// The backup path: resumable and idempotent.
///
/// The token is the client's name for the whole logical backup across all
/// its attempts. Commit exactly once: the committed-token cache answers
/// retries that lost the acknowledgement, the commit gate serializes the
/// check-then-commit window against a racing retry, and an interrupted
/// stream parks its prefix so the next attempt continues from the
/// acknowledged offset instead of starting over.
fn serve_backup_resume<S: NetStream>(
    tenant: &TenantId,
    tstats: &TenantStats,
    token: SessionToken,
    total_len: u64,
    stream: &mut S,
    shared: &Shared,
) -> Outcome {
    if total_len > shared.config.limits.max_stream {
        ServerStats::bump(&shared.stats.rejected_oversize);
        return Outcome::Failed {
            code: ErrorCode::TooLarge,
            message: format!(
                "backup stream exceeds the {}-byte limit",
                shared.config.limits.max_stream
            ),
        };
    }
    // Resolve the tenant before acknowledging anything: the client waits
    // for BackupAccepted before streaming, so a refusal here stays in
    // sync. Holding the slot `Arc` for the whole request also marks the
    // tenant busy — its handle cannot be LRU-evicted mid-backup.
    let slot = match shared.registry.get_or_create(tenant) {
        Ok(s) => s,
        Err(e) => return tenant_error_outcome(e),
    };
    // Already committed? Answer from the cache without accepting a byte —
    // the retried backup must never commit twice.
    if let Some(summary) = shared.sessions().committed(tenant, token) {
        ServerStats::bump(&shared.stats.dedup_hits);
        return match send_response(stream, &Response::BackupDone(summary)) {
            Ok(()) => Outcome::Ok {
                detail: format!(" version=V{} dedup=hit", summary.version),
            },
            Err(e) => Outcome::Transport(e),
        };
    }
    // Resume from the parked prefix if one survives; a prefix longer than
    // the declared total is a stale/mismatched session and is discarded.
    let parked = shared
        .sessions()
        .take(tenant, token)
        .map(|(data, _total)| data)
        .filter(|data| data.len() as u64 <= total_len)
        .unwrap_or_default();
    let offset = parked.len() as u64;
    if offset > 0 {
        ServerStats::bump(&shared.stats.sessions_resumed);
    }
    if let Err(e) = send_response(stream, &Response::BackupAccepted { offset }) {
        // The acknowledgement never left: keep the prefix for the retry.
        park_if_uncommitted(shared, tenant, token, parked, total_len);
        return Outcome::Transport(e);
    }
    let data = match receive_backup_stream(stream, shared, tstats, parked) {
        BackupStream::Complete(data) => data,
        BackupStream::Failed(outcome) => return outcome,
        BackupStream::Interrupted { data, error } => {
            // Park what arrived (complete frames only — the frame layer is
            // all-or-nothing) so the retry continues from here.
            park_if_uncommitted(shared, tenant, token, data, total_len);
            return Outcome::Transport(error);
        }
    };
    if data.len() as u64 != total_len {
        // The client's END disagrees with its own declared length; the
        // session is unusable, start over on the next attempt.
        return Outcome::Failed {
            code: ErrorCode::Malformed,
            message: format!(
                "backup stream length {} does not match the declared {total_len}",
                data.len()
            ),
        };
    }
    // Serialize the committed-check → commit → record window so a racing
    // retry of the same (tenant, token) observes either "not committed
    // yet" plus a held gate, or the cached summary — never a second
    // commit. The gate lives in the tenant's slot: same-tenant retries
    // serialize here, other tenants' commits do not.
    let gate = slot.commit_gate();
    if let Some(summary) = shared.sessions().committed(tenant, token) {
        drop(gate);
        ServerStats::bump(&shared.stats.dedup_hits);
        return match send_response(stream, &Response::BackupDone(summary)) {
            Ok(()) => Outcome::Ok {
                detail: format!(" version=V{} dedup=hit", summary.version),
            },
            Err(e) => Outcome::Transport(e),
        };
    }
    let quota = shared.registry.quota_for(tenant);
    let result = slot
        .handle()
        .write_checked(|s| quota.admit(s, data.len() as u64), |s| s.backup(&data));
    let outcome = match result {
        Ok(stats) => {
            let summary = backup_summary_proto(&stats);
            shared.sessions().record_committed(tenant, token, summary);
            match send_response(stream, &Response::BackupDone(summary)) {
                // Even if this acknowledgement is lost, the commit is
                // recorded: the retry gets a dedup answer, not a second
                // version.
                Ok(()) => Outcome::Ok {
                    detail: format!(
                        " version=V{} bytes={} stored={}",
                        summary.version, summary.logical_bytes, summary.stored_bytes
                    ),
                },
                Err(e) => Outcome::Transport(e),
            }
        }
        Err(e) => {
            // A repository failure is not transport loss: the data arrived
            // intact and the commit was refused (quota) or rolled back, so
            // nothing is parked and the client sees the typed
            // (non-retryable) error.
            bump_mutation_failure(shared, tstats, &e);
            repo_error_outcome(e)
        }
    };
    drop(gate);
    outcome
}

/// An `io::Write` that packages restore output into DATA frames.
struct DataFrameWriter<'a, S: NetStream> {
    stream: &'a mut S,
    buf: Vec<u8>,
    bytes_out: u64,
}

impl<'a, S: NetStream> DataFrameWriter<'a, S> {
    fn new(stream: &'a mut S) -> Self {
        DataFrameWriter {
            stream,
            buf: Vec::with_capacity(DATA_CHUNK),
            bytes_out: 0,
        }
    }

    fn emit(&mut self) -> io::Result<()> {
        if self.buf.is_empty() {
            return Ok(());
        }
        write_frame(self.stream, FrameKind::Data, &self.buf).map_err(|e| match e {
            FrameError::Io(e) => e,
            other => io::Error::other(other.to_string()),
        })?;
        self.bytes_out += self.buf.len() as u64;
        self.buf.clear();
        Ok(())
    }
}

impl<S: NetStream> Write for DataFrameWriter<'_, S> {
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        self.buf.extend_from_slice(data);
        if self.buf.len() >= DATA_CHUNK {
            self.emit()?;
        }
        Ok(data.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        self.emit()
    }
}

/// What happened inside the read closure of a served restore.
enum ServedRestore {
    Done {
        summary: RestoreSummary,
        bytes_out: u64,
    },
    RepoError(HiDeStoreError),
    /// The requested resume offset lies past the end of the version.
    BadOffset {
        total_bytes: u64,
    },
    Transport(io::Error),
}

/// An `io::Write` that discards the first `skip` bytes and forwards the
/// rest. A resumed restore replays the whole version through the restore
/// pipeline (the engine has no mid-version seek) but only re-transfers the
/// bytes after the client's acknowledged offset.
struct SkipWriter<W> {
    skip: u64,
    inner: W,
}

impl<W: Write> Write for SkipWriter<W> {
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        let len = data.len();
        let drop = (self.skip.min(len as u64)) as usize;
        self.skip -= drop as u64;
        if drop < len {
            self.inner.write_all(&data[drop..])?;
        }
        Ok(len)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

fn serve_restore<S: NetStream>(
    tenant: &TenantId,
    tstats: &TenantStats,
    version: u32,
    offset: u64,
    stream: &mut S,
    shared: &Shared,
) -> Outcome {
    if version == 0 {
        return Outcome::Failed {
            code: ErrorCode::NotFound,
            message: "version ids are 1-based".into(),
        };
    }
    let slot = match shared.registry.get(tenant) {
        Ok(s) => s,
        Err(e) => return tenant_error_outcome(e),
    };
    let v = VersionId::new(version);
    let served = slot.handle().read(|system| {
        let Some(recipe) = system.recipes().get(v) else {
            return ServedRestore::RepoError(HiDeStoreError::UnknownVersion(v));
        };
        let total_bytes = recipe.total_bytes();
        if offset > total_bytes {
            return ServedRestore::BadOffset { total_bytes };
        }
        if let Err(e) = send_response(stream, &Response::RestoreStarted { total_bytes }) {
            return ServedRestore::Transport(match e {
                FrameError::Io(e) => e,
                other => io::Error::other(other.to_string()),
            });
        }
        let mut writer = SkipWriter {
            skip: offset,
            inner: DataFrameWriter::new(stream),
        };
        let mut cache = Faa::new(RESTORE_CACHE_BYTES);
        match system
            .restore(v, &mut cache, &mut writer)
            .and_then(|report| {
                writer
                    .flush()
                    .map_err(|e| HiDeStoreError::Storage(hidestore_storage::StorageError::Io(e)))?;
                Ok(report)
            }) {
            Ok(report) => ServedRestore::Done {
                summary: RestoreSummary {
                    bytes_restored: report.bytes_restored,
                    container_reads: report.container_reads,
                    cache_hits: report.cache_hits,
                    cache_misses: report.cache_misses,
                },
                bytes_out: writer.inner.bytes_out,
            },
            Err(error) => ServedRestore::RepoError(error),
        }
    });
    if offset > 0 && matches!(served, Ok(ServedRestore::Done { .. })) {
        ServerStats::bump(&shared.stats.sessions_resumed);
    }
    match served {
        Ok(ServedRestore::Done { summary, bytes_out }) => {
            ServerStats::add(&shared.stats.bytes_out, bytes_out);
            ServerStats::add(&tstats.bytes_out, bytes_out);
            let finish = write_frame(stream, FrameKind::End, &[])
                .and_then(|()| send_response(stream, &Response::RestoreDone(summary)));
            match finish {
                Ok(()) => Outcome::Ok {
                    detail: format!(
                        " version=V{version} bytes={} reads={}",
                        summary.bytes_restored, summary.container_reads
                    ),
                },
                Err(e) => Outcome::Transport(e),
            }
        }
        // If DATA frames already went out, the ERROR frame tells the
        // client the stream is aborted (it discards its .tmp output).
        Ok(ServedRestore::RepoError(error)) => repo_error_outcome(error),
        Ok(ServedRestore::BadOffset { total_bytes }) => Outcome::Failed {
            code: ErrorCode::Conflict,
            message: format!(
                "resume offset {offset} is past the end of V{version} ({total_bytes} bytes)"
            ),
        },
        Ok(ServedRestore::Transport(e)) => Outcome::Transport(FrameError::Io(e)),
        Err(e) => repo_error_outcome(e),
    }
}

fn serve_prune<S: NetStream>(
    tenant: &TenantId,
    tstats: &TenantStats,
    keep_last: u32,
    stream: &mut S,
    shared: &Shared,
) -> Outcome {
    let Some(keep) = NonZeroU32::new(keep_last) else {
        return Outcome::Failed {
            code: ErrorCode::Conflict,
            message: "must keep at least one version".into(),
        };
    };
    let slot = match shared.registry.get(tenant) {
        Ok(s) => s,
        Err(e) => return tenant_error_outcome(e),
    };
    // A shared-lock check first, so a no-op prune neither blocks other
    // requests nor rewrites the repository; the write re-checks under the
    // exclusive lock.
    let summary = match slot.handle().read(|s| s.prune_cutoff(keep)) {
        Ok(None) => PruneSummary::default(),
        Ok(Some(_)) => match slot.handle().write(|s| s.prune_keep_last(keep)) {
            Ok(Some(report)) => PruneSummary {
                versions_removed: report.versions_removed,
                containers_dropped: report.containers_dropped,
                bytes_reclaimed: report.bytes_reclaimed,
            },
            Ok(None) => PruneSummary::default(),
            Err(e) => {
                bump_mutation_failure(shared, tstats, &e);
                return repo_error_outcome(e);
            }
        },
        Err(e) => return repo_error_outcome(e),
    };
    match send_response(stream, &Response::PruneOk(summary)) {
        Ok(()) => Outcome::Ok {
            detail: format!(" removed={}", summary.versions_removed),
        },
        Err(e) => Outcome::Transport(e),
    }
}

fn serve_verify<S: NetStream>(tenant: &TenantId, stream: &mut S, shared: &Shared) -> Outcome {
    let slot = match shared.registry.get(tenant) {
        Ok(s) => s,
        Err(e) => return tenant_error_outcome(e),
    };
    let report = slot.handle().read(|s| s.scrub()).and_then(|r| r);
    match report {
        Ok(report) => {
            let summary = VerifySummary {
                containers_checked: report.containers_checked,
                chunks_checked: report.chunks_checked,
                recipes_checked: report.recipes_checked,
                corrupt_chunks: report.corrupt_chunks.clone(),
            };
            let clean = summary.is_clean();
            match send_response(stream, &Response::VerifyOk(summary)) {
                Ok(()) => Outcome::Ok {
                    detail: format!(" clean={clean}"),
                },
                Err(e) => Outcome::Transport(e),
            }
        }
        Err(e) => repo_error_outcome(e),
    }
}

/// The `tenant list` admin verb: every initialized tenant with its
/// retained-version usage and whether its handle is currently live.
fn serve_tenant_list<S: NetStream>(stream: &mut S, shared: &Shared) -> Outcome {
    let tenants = match shared.registry.list() {
        Ok(t) => t,
        Err(e) => return tenant_error_outcome(e),
    };
    // Sized by growth, not up front: the tenant count comes from a
    // directory listing, which the wire-alloc wall treats as unbounded.
    let mut entries = Vec::new();
    for tenant in tenants {
        // Liveness before the usage read — the read itself makes the
        // tenant live.
        let live = shared.registry.is_live(&tenant);
        // Usage is best-effort: one unreadable (e.g. poisoned) tenant
        // reports zeros instead of failing the whole admin listing.
        let usage = shared.registry.get(&tenant).ok().and_then(|slot| {
            slot.handle()
                .read(|s| {
                    let versions = s.versions().len() as u64;
                    let bytes: u64 = s
                        .versions()
                        .iter()
                        .filter_map(|v| s.recipes().get(*v))
                        .map(|recipe| recipe.total_bytes())
                        .sum();
                    (versions, bytes)
                })
                .ok()
        });
        let (versions, logical_bytes) = usage.unwrap_or((0, 0));
        entries.push(TenantListEntry {
            tenant: tenant.as_str().to_string(),
            versions,
            logical_bytes,
            live,
        });
    }
    let count = entries.len();
    let response = Response::TenantListOk(TenantListResponse { tenants: entries });
    match send_response(stream, &response) {
        Ok(()) => Outcome::Ok {
            detail: format!(" tenants={count}"),
        },
        Err(e) => Outcome::Transport(e),
    }
}

/// The `tenant stats` admin verb: per-tenant request counters for every
/// tenant that has served a request this process lifetime.
fn serve_tenant_stats<S: NetStream>(stream: &mut S, shared: &Shared) -> Outcome {
    let entries: Vec<TenantStatsEntry> = shared
        .stats
        .tenant_snapshots()
        .into_iter()
        .map(|(tenant, s)| TenantStatsEntry {
            tenant: tenant.as_str().to_string(),
            requests_ok: s.requests_ok,
            requests_failed: s.requests_failed,
            bytes_in: s.bytes_in,
            bytes_out: s.bytes_out,
            rolled_back: s.rolled_back,
            quota_refused: s.quota_refused,
        })
        .collect();
    let count = entries.len();
    let response = Response::TenantStatsOk(TenantStatsResponse { tenants: entries });
    match send_response(stream, &response) {
        Ok(()) => Outcome::Ok {
            detail: format!(" tenants={count}"),
        },
        Err(e) => Outcome::Transport(e),
    }
}
