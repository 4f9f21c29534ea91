//! The daemon `hidestore serve` runs: a thread-per-connection TCP server
//! over the framed wire protocol.
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
//!   repository stays clean under `hidestore verify`.
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
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use hidestore_core::{HiDeStoreError, RESTORE_AREA_BYTES};
use hidestore_failpoint::{Plan, RealVfs, Socket, Vfs};
use hidestore_fsck::SystemAuditor;
use hidestore_proto::{
    read_frame, read_frame_into, write_frame, DataWriter, ErrorCode, Frame, FrameError, FrameKind,
    Hello, Limits, Request, Response, RestoreSummary, TenantId, TenantListEntry,
    TenantListResponse, TenantStatsEntry, TenantStatsResponse, WireError,
};
use hidestore_restore::Faa;
use hidestore_storage::VersionId;
use hidestore_tenant::{RegistryOptions, TenantError, TenantQuota, TenantRegistry};

use crate::client::DEFAULT_NET_TIMEOUT;
use crate::stats::{ServerStats, StatsSnapshot, TenantStats};
use crate::view;

/// Backoff hint (milliseconds) sent with `busy` refusals.
pub const BUSY_RETRY_AFTER_MS: u32 = 100;

/// Accepted connections the admission gate queues ahead of the workers;
/// when it is full, further connections are shed with a retryable `busy`
/// refusal instead of queueing without bound.
pub const QUEUE_DEPTH: usize = 16;

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Address to bind, e.g. `127.0.0.1:0` for an ephemeral loopback port.
    pub bind: String,
    /// Worker threads (concurrent connections served). At least 1.
    pub workers: usize,
    /// Per-connection read and write deadline (`--timeout SECS`), by
    /// default [`DEFAULT_NET_TIMEOUT`]; [`Duration::ZERO`] disables it.
    pub io_timeout: Duration,
    /// Frame/stream size limits enforced on everything received.
    pub limits: Limits,
    /// Suppress per-request log lines (tests, benchmarks).
    pub quiet: bool,
    /// Deterministic fault plan numbering every served connection's wire
    /// I/O (chaos tests); `None` serves plain TCP.
    pub fault: Option<Plan>,
    /// Serve the directory as a multi-tenant root (`<dir>/tenants/<id>/`,
    /// one repository per tenant) instead of a single repository served
    /// as the `default` tenant.
    pub tenants_root: bool,
    /// Soft cap on concurrently open tenant repository handles (tenant
    /// roots; clamped to at least 1). Idle handles beyond the cap are
    /// evicted least-recently-used.
    pub max_live_tenants: usize,
    /// Whether a backup against an absent tenant creates its repository
    /// from the tenant root's `config`, or the default config when the root
    /// has none (tenant roots only; read paths never create).
    pub auto_create_tenants: bool,
    /// Quota applied to every tenant, each against its own usage. The
    /// zero default is unlimited.
    pub default_quota: TenantQuota,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            bind: "127.0.0.1:0".into(),
            workers: 4,
            io_timeout: DEFAULT_NET_TIMEOUT,
            limits: Limits::default(),
            quiet: false,
            fault: None,
            tenants_root: false,
            max_live_tenants: 8,
            auto_create_tenants: true,
            default_quota: TenantQuota::UNLIMITED,
        }
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
struct Shared<V: Vfs> {
    /// Tenant id → repository handle, through a capacity-bounded LRU.
    /// Each tenant's slot owns its own writer lock, so unrelated tenants'
    /// mutations commit in parallel.
    registry: TenantRegistry<V>,
    /// Accepted connections waiting for a worker. The acceptor owns the
    /// sending side; when it exits, the workers drain what is queued and
    /// stop.
    queue: Mutex<Receiver<(TcpStream, SocketAddr)>>,
    shutdown: AtomicBool,
    stats: ServerStats,
    config: ServerConfig,
    addr: SocketAddr,
}

impl<V: Vfs> Shared<V> {
    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
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
pub struct ServerHandle<V: Vfs = RealVfs> {
    shared: Arc<Shared<V>>,
    threads: Vec<JoinHandle<()>>,
}

impl<V: Vfs> ServerHandle<V> {
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
    pub fn tenant_stats(&self) -> Vec<TenantStatsEntry> {
        self.shared.stats.tenant_snapshots()
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

impl<V: Vfs> Drop for ServerHandle<V> {
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
    serve_with(repo_dir, config, RealVfs, |_| RealVfs)
}

/// [`serve`] over explicit vfs plumbing, as in
/// [`TenantRegistry::open_root_with`]: `root_vfs` does the registry's own
/// filesystem work and `make_vfs` builds each tenant repository's Vfs —
/// the seam fault-injection tests hand a tenant a
/// [`FaultVfs`](hidestore_failpoint::FaultVfs) through.
///
/// # Errors
///
/// As [`serve`].
pub fn serve_with<V: Vfs + Sync + 'static>(
    repo_dir: impl AsRef<Path>,
    config: ServerConfig,
    root_vfs: V,
    make_vfs: impl Fn(&TenantId) -> V + Send + Sync + 'static,
) -> Result<ServerHandle<V>, ServerError> {
    let options = RegistryOptions {
        max_live: config.max_live_tenants,
        auto_create: config.auto_create_tenants,
    };
    let registry = if config.tenants_root {
        TenantRegistry::open_root_with(repo_dir, options, root_vfs, make_vfs)?
    } else {
        TenantRegistry::open_legacy_with(repo_dir, options, root_vfs, make_vfs)?
    };
    let listener = TcpListener::bind(&config.bind)?;
    let addr = listener.local_addr()?;
    let workers = config.workers.max(1);
    let (tx, rx) = sync_channel(QUEUE_DEPTH);
    let shared = Arc::new(Shared {
        registry,
        queue: Mutex::new(rx),
        shutdown: AtomicBool::new(false),
        stats: ServerStats::default(),
        config,
        addr,
    });

    let mut threads = Vec::with_capacity(workers + 1);
    {
        let shared = Arc::clone(&shared);
        threads.push(std::thread::spawn(move || shared.acceptor(&listener, tx)));
    }
    for _ in 0..workers {
        let shared = Arc::clone(&shared);
        threads.push(std::thread::spawn(move || worker(&shared)));
    }
    Ok(ServerHandle { shared, threads })
}

impl<V: Vfs> Shared<V> {
    /// Accepts connections and queues them for the workers until shutdown.
    /// Owning `tx` means the workers see end-of-stream however this returns.
    fn acceptor(&self, listener: &TcpListener, tx: SyncSender<(TcpStream, SocketAddr)>) {
        loop {
            match listener.accept() {
                Ok((stream, peer)) => {
                    if self.shutting_down() {
                        // Either the wake connection or a late client; both are
                        // dropped, and the listener closes with the loop.
                        break;
                    }
                    ServerStats::bump(&self.stats.accepted);
                    // Admission gate: never park on a saturated worker queue.
                    // A full queue sheds the connection with a retryable
                    // `busy` refusal carrying a backoff hint.
                    match tx.try_send((stream, peer)) {
                        Ok(()) => {}
                        Err(TrySendError::Full((stream, _))) => {
                            // `refuse`'s short deadlines keep a slow client
                            // from stalling admission for long.
                            ServerStats::bump(&self.stats.busy_rejected);
                            refuse(
                                Socket::new(stream, self.config.fault.clone()),
                                &self.config.limits,
                                WireError::busy(
                                    BUSY_RETRY_AFTER_MS,
                                    "worker queue is full, retry later",
                                ),
                            );
                        }
                        // The receiver lives in `self`, so this cannot happen.
                        Err(TrySendError::Disconnected(_)) => break,
                    }
                }
                Err(_) if self.shutting_down() => break,
                Err(_) => {
                    // Transient accept failure (e.g. aborted connection);
                    // keep serving.
                }
            }
        }
    }
}

fn worker<V: Vfs>(shared: &Shared<V>) {
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
        let mut stream = Socket::new(stream, shared.config.fault.clone());
        if shared.shutting_down() {
            let err = WireError::new(ErrorCode::ShuttingDown, "daemon is draining for shutdown");
            refuse(stream, &shared.config.limits, err);
        } else {
            handle_connection(&mut stream, peer, shared);
        }
    }
}

/// Tells a client it will not be served — with a typed error instead of a
/// silently dropped connection. Consumes the client's HELLO first so the
/// refusal lands where the client expects the HELLO reply.
fn refuse(mut stream: Socket, limits: &Limits, err: WireError) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
    let _ = stream.set_write_timeout(Some(Duration::from_millis(200)));
    let _ = read_frame(&mut stream, limits);
    let _ = write_frame(&mut stream, FrameKind::Error, &err.encode());
}

/// Reads one frame, returning `Ok(None)` when the peer closed the
/// connection cleanly at a frame boundary.
fn read_frame_opt(stream: &mut Socket, limits: &Limits) -> Result<Option<Frame>, FrameError> {
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

fn send_error(stream: &mut Socket, code: ErrorCode, message: impl Into<String>) {
    let err = WireError::new(code, message);
    let _ = write_frame(stream, FrameKind::Error, &err.encode());
}

/// Classifies a transport-level failure for the stats counters and log.
fn classify_transport<V: Vfs>(shared: &Shared<V>, err: &FrameError) -> &'static str {
    if err.is_timeout() {
        ServerStats::bump(&shared.stats.timed_out);
        "timeout"
    } else {
        "disconnect"
    }
}

fn handle_connection<V: Vfs>(stream: &mut Socket, peer: SocketAddr, shared: &Shared<V>) {
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
        // Only a verb that opens the tenant's repository counts under the
        // tenant: the daemon's own verbs count in the server totals alone,
        // so they never make a row for a tenant that has no repository.
        let tstats = match request {
            Request::Ping | Request::TenantList | Request::TenantStats | Request::Shutdown => {
                Arc::default()
            }
            _ => shared.stats.tenant(&tenant),
        };
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
fn bump_mutation_failure<V: Vfs>(shared: &Shared<V>, tstats: &TenantStats, e: &HiDeStoreError) {
    if matches!(e, HiDeStoreError::QuotaExceeded { .. }) {
        ServerStats::bump(&tstats.quota_refused);
    } else {
        ServerStats::bump(&shared.stats.rolled_back);
        ServerStats::bump(&tstats.rolled_back);
    }
}

fn send_response(stream: &mut Socket, response: &Response) -> Result<(), FrameError> {
    write_frame(stream, FrameKind::Response, &response.encode())
}

/// Sends `response`; `detail` is appended to the log line if it left.
fn reply(stream: &mut Socket, response: &Response, detail: String) -> Outcome {
    match send_response(stream, response) {
        Ok(()) => Outcome::Ok { detail },
        Err(e) => Outcome::Transport(e),
    }
}

fn dispatch<V: Vfs>(
    request: Request,
    tenant: &TenantId,
    tstats: &TenantStats,
    stream: &mut Socket,
    shared: &Shared<V>,
) -> Outcome {
    match request {
        Request::Ping => reply(stream, &Response::Pong, String::new()),
        Request::Backup { total_len } => serve_backup(tenant, tstats, total_len, stream, shared),
        Request::Restore { version } => serve_restore(tenant, tstats, version, stream, shared),
        Request::List => {
            let slot = match shared.registry.get(tenant) {
                Ok(s) => s,
                Err(e) => return tenant_error_outcome(e),
            };
            let list = match slot.handle().read(view::list_response) {
                Ok(l) => l,
                Err(e) => return repo_error_outcome(e),
            };
            reply(stream, &Response::ListOk(list), String::new())
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
            reply(stream, &Response::StatsOk(stats), String::new())
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

/// Receives the DATA frames of a backup declared `total_len` bytes long
/// until END. Each payload is read straight onto the end of the buffer,
/// which only ever gains whole, verified frames and never grows more than
/// one frame past `total_len`. A cut stream is dropped with its buffer:
/// nothing of it is kept or committed.
fn receive_backup_stream<V: Vfs>(
    stream: &mut Socket,
    shared: &Shared<V>,
    tstats: &TenantStats,
    total_len: u64,
) -> Result<Vec<u8>, Outcome> {
    let limits = shared.config.limits;
    let mut data = Vec::new();
    loop {
        let before = data.len();
        match read_frame_into(stream, &limits, &mut data).map_err(Outcome::Transport)? {
            FrameKind::Data => {
                let received = (data.len() - before) as u64;
                ServerStats::add(&shared.stats.bytes_in, received);
                ServerStats::add(&tstats.bytes_in, received);
                if data.len() as u64 > total_len {
                    return Err(Outcome::Failed {
                        code: ErrorCode::Malformed,
                        message: format!("backup stream passes its declared {total_len} bytes"),
                    });
                }
            }
            FrameKind::End => {
                data.truncate(before);
                return Ok(data);
            }
            other => {
                return Err(Outcome::Failed {
                    code: ErrorCode::Malformed,
                    message: format!("expected DATA or END, got {other}"),
                })
            }
        }
    }
}

/// The backup path: accept, receive the whole stream, commit once.
fn serve_backup<V: Vfs>(
    tenant: &TenantId,
    tstats: &TenantStats,
    total_len: u64,
    stream: &mut Socket,
    shared: &Shared<V>,
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
    if let Err(e) = send_response(stream, &Response::BackupAccepted) {
        return Outcome::Transport(e);
    }
    let data = match receive_backup_stream(stream, shared, tstats, total_len) {
        Ok(data) => data,
        Err(outcome) => return outcome,
    };
    if data.len() as u64 != total_len {
        return Outcome::Failed {
            code: ErrorCode::Malformed,
            message: format!(
                "backup stream length {} does not match the declared {total_len}",
                data.len()
            ),
        };
    }
    let quota = shared.config.default_quota;
    let result = slot
        .handle()
        .write_checked(|s| quota.admit(s, data.len() as u64), |s| s.backup(&data));
    match result {
        Ok(stats) => {
            // If this acknowledgement is lost, the version is committed
            // all the same: the client sees a transport error and can
            // list to find it.
            let summary = view::backup_summary(&stats);
            let detail = format!(
                " version=V{} bytes={} stored={}",
                summary.version, summary.logical_bytes, summary.stored_bytes
            );
            reply(stream, &Response::BackupDone(summary), detail)
        }
        Err(e) => {
            // A repository failure is not transport loss: the data arrived
            // intact and the commit was refused (quota) or rolled back, so
            // the client sees the typed error.
            bump_mutation_failure(shared, tstats, &e);
            repo_error_outcome(e)
        }
    }
}

/// What happened inside the read closure of a served restore.
enum ServedRestore {
    Done(RestoreSummary),
    RepoError(HiDeStoreError),
    Transport(io::Error),
}

/// The restore path: resolve, announce the length, stream the whole
/// version.
fn serve_restore<V: Vfs>(
    tenant: &TenantId,
    tstats: &TenantStats,
    version: u32,
    stream: &mut Socket,
    shared: &Shared<V>,
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
    let served = slot.handle().read(|system| {
        // Resolving first means a version that cannot be restored is
        // refused before any stream opens.
        let resolved = match system.resolve(VersionId::new(version)) {
            Ok(resolved) => resolved,
            Err(e) => return ServedRestore::RepoError(e),
        };
        let total_bytes = resolved.total_bytes();
        if let Err(e) = send_response(stream, &Response::RestoreStarted { total_bytes }) {
            return ServedRestore::Transport(match e {
                FrameError::Io(e) => e,
                other => io::Error::other(other.to_string()),
            });
        }
        let mut writer = DataWriter::new(&mut *stream);
        let mut cache = Faa::new(RESTORE_AREA_BYTES);
        match resolved
            .restore_range(0..total_bytes, &mut cache, &mut writer)
            .and_then(|report| {
                writer.flush()?;
                Ok(report)
            }) {
            Ok(report) => ServedRestore::Done(view::restore_summary(&report)),
            Err(error) => ServedRestore::RepoError(error),
        }
    });
    match served {
        Ok(ServedRestore::Done(summary)) => {
            ServerStats::add(&shared.stats.bytes_out, summary.bytes_restored);
            ServerStats::add(&tstats.bytes_out, summary.bytes_restored);
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
        Ok(ServedRestore::RepoError(error)) | Err(error) => repo_error_outcome(error),
        Ok(ServedRestore::Transport(e)) => Outcome::Transport(FrameError::Io(e)),
    }
}

fn serve_prune<V: Vfs>(
    tenant: &TenantId,
    tstats: &TenantStats,
    keep_last: u32,
    stream: &mut Socket,
    shared: &Shared<V>,
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
        Ok(None) => view::prune_summary(None),
        Ok(Some(_)) => match slot.handle().write(|s| s.prune_keep_last(keep)) {
            Ok(report) => view::prune_summary(report.as_ref()),
            Err(e) => {
                bump_mutation_failure(shared, tstats, &e);
                return repo_error_outcome(e);
            }
        },
        Err(e) => return repo_error_outcome(e),
    };
    reply(
        stream,
        &Response::PruneOk(summary),
        format!(" removed={}", summary.versions_removed),
    )
}

fn serve_verify<V: Vfs>(tenant: &TenantId, stream: &mut Socket, shared: &Shared<V>) -> Outcome {
    let slot = match shared.registry.get(tenant) {
        Ok(s) => s,
        Err(e) => return tenant_error_outcome(e),
    };
    match slot.handle().read(|s| SystemAuditor::new().audit(s)) {
        Ok(report) => {
            let summary = view::verify_response(&report);
            let clean = summary.is_clean();
            reply(
                stream,
                &Response::VerifyOk(summary),
                format!(" clean={clean}"),
            )
        }
        Err(e) => repo_error_outcome(e),
    }
}

/// The `tenant list` admin verb: every initialized tenant with its
/// retained-version usage and whether its handle is currently live.
fn serve_tenant_list<V: Vfs>(stream: &mut Socket, shared: &Shared<V>) -> Outcome {
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
                .read(|s| (s.versions().len() as u64, s.retained_bytes()))
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
    reply(stream, &response, format!(" tenants={count}"))
}

/// The `tenant stats` admin verb: per-tenant request counters for every
/// tenant that has served a request this process lifetime.
fn serve_tenant_stats<V: Vfs>(stream: &mut Socket, shared: &Shared<V>) -> Outcome {
    let entries = shared.stats.tenant_snapshots();
    let count = entries.len();
    let response = Response::TenantStatsOk(TenantStatsResponse { tenants: entries });
    reply(stream, &response, format!(" tenants={count}"))
}
