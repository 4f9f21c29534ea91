//! Chaos matrix for the remote stack: deterministic wire faults injected at
//! every operation index of a backup + restore workload, driven by the one
//! client, [`RemoteClient`], as a one-shot caller uses it.
//!
//! The discipline mirrors the crash matrix of `tests/crash_matrix.rs`: a
//! counting run enumerates the wire operations of the fault-free workload,
//! then the workload replays once per site with that site armed — cutting,
//! tearing, black-holing, or delaying the connection — on the client side
//! and again on the server side. Each operation of the workload either
//! succeeds byte-exact or fails with a transport error or a typed ERROR
//! frame, never a protocol violation. A failed operation is repaired the way
//! a one-shot caller would, once the daemon has closed the failed
//! connection: a failed restore runs again, and a failed backup runs again
//! only if a listing on a fresh connection shows it did not commit (its
//! acknowledgement may be what was lost). Every run must end in
//! the terminal state of the fault-free run: exactly the expected versions,
//! each restoring byte-identical, the repository fsck-clean with no leaked
//! `.tmp` files, and the daemon draining under a watchdog.
//!
//! The multi-tenant matrix repeats the discipline against a tenant root:
//! tenant A's client is armed at every operation index while tenant B runs
//! a clean concurrent workload — B's repository must come out untouched no
//! matter where A's connection dies.

use std::fs;
use std::io::Read;
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use hidestore::core::{HiDeStore, HiDeStoreConfig};
use hidestore::failpoint::{FaultKind, Plan, Socket};
use hidestore::fsck::SystemAuditor;
use hidestore::proto::{ErrorCode, Limits, TenantId};
use hidestore::server::{
    serve, ClientError, RemoteClient, ServerConfig, ServerHandle, BUSY_RETRY_AFTER_MS, QUEUE_DEPTH,
};
use hidestore::tenant::TENANTS_SUBDIR;

const PAYLOAD_A: usize = 40_000;
const PAYLOAD_B: usize = 26_000;

fn temp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hidestore-chaos-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn noise(len: usize, seed: u64) -> Vec<u8> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 32) as u8
        })
        .collect()
}

fn assert_no_tmp_files(dir: &Path) {
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in fs::read_dir(&d).unwrap().filter_map(Result::ok) {
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "tmp") {
                panic!("leaked temp file: {}", path.display());
            }
        }
    }
}

fn assert_fsck_clean(dir: &Path) {
    let config = HiDeStoreConfig::load_from(dir).unwrap();
    let system = HiDeStore::open_repository(config, dir).unwrap();
    let report = SystemAuditor::new().audit(&system);
    assert!(report.is_clean(), "{report}");
}

/// Joins the handle under a watchdog: a graceful shutdown that cannot
/// drain within the deadline means a leaked/stuck thread.
fn shutdown_with_watchdog(handle: ServerHandle) -> hidestore::server::StatsSnapshot {
    handle.request_shutdown();
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(handle.join());
    });
    rx.recv_timeout(Duration::from_secs(30))
        .expect("server threads must join after graceful shutdown")
}

/// The client's I/O deadline: a safety net only, since a fault on either
/// side kills its socket and the peer sees the connection close at once.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(10);

/// A failed operation must fail typed: a transport error or the daemon's
/// ERROR frame, never a reply that breaks the protocol.
fn assert_typed(what: &str, err: &ClientError) {
    assert!(
        matches!(err, ClientError::Frame(_) | ClientError::Remote(_)),
        "{what} failed untyped: {err}"
    );
}

/// Half-closes `watch` and reads until the daemon closes its side: the
/// daemon reads the end of the stream only after it has finished the
/// request in flight.
fn await_close(mut watch: TcpStream) {
    let _ = watch.shutdown(Shutdown::Write);
    let _ = watch.set_read_timeout(Some(CLIENT_TIMEOUT));
    let mut sink = [0u8; 4096];
    while matches!(watch.read(&mut sink), Ok(n) if n > 0) {}
}

/// A one-shot caller of one tenant: each operation on a fresh connection,
/// its socket numbered by `plan` when there is one.
struct Caller<'a> {
    addr: SocketAddr,
    plan: Option<&'a Plan>,
    tenant: TenantId,
}

impl Caller<'_> {
    /// Runs `op` once on a fresh connection: the constructor
    /// `connect_with` runs, handed a faulted socket. After a failure it
    /// waits until the daemon has closed the connection, so whatever the
    /// daemon still had buffered from it (a whole backup stream, say) is
    /// committed or dropped before the caller looks.
    fn once<T>(
        &self,
        op: impl FnOnce(&mut RemoteClient) -> Result<T, ClientError>,
    ) -> Result<T, ClientError> {
        let tcp = TcpStream::connect(self.addr)?;
        // A second handle on the connection, which a fault on the
        // `Socket` does not kill.
        let watch = tcp.try_clone()?;
        let socket = Socket::new(tcp, self.plan.cloned());
        let result = RemoteClient::handshake(socket, Limits::default(), CLIENT_TIMEOUT).and_then(
            |mut client| {
                client.set_tenant(self.tenant.clone());
                op(&mut client)
            },
        );
        if result.is_err() {
            await_close(watch);
        }
        result
    }

    /// Runs `op`, and once more after a failure, which must be typed. An
    /// armed site fires once, so the second attempt runs clean.
    fn twice<T>(&self, what: &str, op: impl Fn(&mut RemoteClient) -> Result<T, ClientError>) -> T {
        self.once(&op).unwrap_or_else(|err| {
            assert_typed(what, &err);
            self.once(&op).unwrap()
        })
    }

    /// How many versions the tenant holds; a tenant whose first backup
    /// never reached the daemon does not exist yet and holds none.
    fn versions(&self) -> usize {
        match self.once(|c| c.list()) {
            Ok(list) => list.versions.len(),
            Err(ClientError::Remote(e)) if e.code == ErrorCode::NotFound => 0,
            Err(e) => panic!("listing after a failed backup: {e}"),
        }
    }

    /// Backs `data` up as `version`: one attempt, and after a failure a
    /// listing decides whether the attempt committed (only its
    /// acknowledgement was lost) before backing up again.
    fn backup(&self, data: &[u8], version: u32) {
        let err = match self.once(|c| c.backup_bytes(data)) {
            Ok(summary) => {
                assert_eq!(summary.version, version, "a backup commits exactly once");
                return;
            }
            Err(err) => err,
        };
        assert_typed("backup", &err);
        let listed = self.versions();
        if listed == version as usize {
            return;
        }
        assert_eq!(listed, version as usize - 1, "a failed backup: {err}");
        let summary = self.once(|c| c.backup_bytes(data)).unwrap();
        assert_eq!(summary.version, version, "the second attempt commits it");
    }

    /// The reference workload: each payload backed up in turn, then each
    /// version restored byte-exact, then a listing that must hold exactly
    /// one version per payload.
    fn run_workload(&self, payloads: &[Vec<u8>]) {
        for (version, data) in (1..).zip(payloads) {
            self.backup(data, version);
        }
        for (version, data) in (1..).zip(payloads) {
            let out = self.twice("restore", |c| {
                let mut out = Vec::new();
                c.restore_to(version, &mut out).map(|_| out)
            });
            assert!(out == *data, "V{version} must restore byte-identical");
        }
        let list = self.twice("list", |c| c.list());
        assert_eq!(
            list.versions.len(),
            payloads.len(),
            "a backup must never commit twice: {list:?}"
        );
    }
}

fn start(dir: &Path, fault: Option<Plan>) -> ServerHandle {
    HiDeStoreConfig::small_for_tests().save_to(dir).unwrap();
    serve(
        dir,
        ServerConfig {
            quiet: true,
            // Short socket deadlines so a worker stuck on a half-dead peer
            // recovers well inside the shutdown watchdog.
            io_timeout: Duration::from_secs(5),
            fault,
            ..ServerConfig::default()
        },
    )
    .unwrap()
}

/// One chaos run: fresh repository + daemon, the workload under the given
/// fault plans, then the terminal-state audit.
fn run_and_audit(tag: &str, server_fault: Option<Plan>, client_fault: Option<Plan>) {
    let dir = temp(tag);
    let handle = start(&dir, server_fault);
    let caller = Caller {
        addr: handle.addr(),
        plan: client_fault.as_ref(),
        tenant: TenantId::default_tenant(),
    };
    caller.run_workload(&[noise(PAYLOAD_A, 1), noise(PAYLOAD_B, 2)]);
    shutdown_with_watchdog(handle);
    assert_no_tmp_files(&dir);
    assert_fsck_clean(&dir);
    fs::remove_dir_all(&dir).unwrap();
}

/// A replay that numbered past its armed site must have fired there: the
/// proof that the matrix reaches the sites it claims to sweep.
fn assert_fired_if_reached(plan: &Plan, site: u64) {
    assert!(
        plan.fired() || plan.ops() <= site,
        "site {site} was reached but never fired: {plan:?}"
    );
}

/// The fault flavor for a site, cycling through all four wire behaviours
/// (a cut, a short transfer, a black hole, a delay) so every kind is
/// exercised at many positions.
fn fault_for(site: u64) -> FaultKind {
    match site % 4 {
        0 => FaultKind::Error,
        1 => FaultKind::Short,
        2 => FaultKind::BlackHole,
        _ => FaultKind::Delay(Duration::from_millis(10)),
    }
}

#[test]
fn chaos_matrix_client_side() {
    // Enumerate the wire operations of the fault-free workload as the
    // client observes them.
    let counting = Plan::counting();
    run_and_audit("cli-count", None, Some(counting.clone()));
    let total = counting.ops();
    assert!(
        total > 20,
        "workload too small to be interesting: {total} ops"
    );

    // Replay once per site with that operation armed. Sites the replay
    // never reaches (TCP segmentation makes exact counts vary run to run)
    // simply pass as clean runs; a reached site must have fired.
    for site in 0..total {
        let plan = Plan::armed(site, fault_for(site));
        run_and_audit("cli-armed", None, Some(plan.clone()));
        assert_fired_if_reached(&plan, site);
    }
}

#[test]
fn chaos_matrix_server_side() {
    let counting = Plan::counting();
    run_and_audit("srv-count", Some(counting.clone()), None);
    let total = counting.ops();
    assert!(
        total > 20,
        "workload too small to be interesting: {total} ops"
    );

    for site in 0..total {
        let plan = Plan::armed(site, fault_for(site));
        run_and_audit("srv-armed", Some(plan.clone()), None);
        assert_fired_if_reached(&plan, site);
    }
}

/// One multi-tenant chaos run: a fresh tenant root, tenant B's clean
/// workload racing tenant A's faulted one. A must reach its terminal state
/// as a one-shot caller; B must be completely untouched — its restores
/// byte-identical, exactly its own versions retained, and its repository
/// fsck-clean.
fn run_tenant_chaos(tag: &str, client_fault: Option<Plan>) {
    let dir = temp(tag);
    HiDeStoreConfig::small_for_tests().save_to(&dir).unwrap();
    let handle = serve(
        &dir,
        ServerConfig {
            quiet: true,
            tenants_root: true,
            io_timeout: Duration::from_secs(5),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = handle.addr();

    std::thread::scope(|scope| {
        // Tenant B: clean, unfaulted workload racing A's chaos.
        let b = scope.spawn(move || {
            let bee = Caller {
                addr,
                plan: None,
                tenant: TenantId::new("bee").unwrap(),
            };
            bee.run_workload(&[noise(33_000, 21), noise(27_000, 22)]);
        });
        // Tenant A: the faulted workload.
        let aye = Caller {
            addr,
            plan: client_fault.as_ref(),
            tenant: TenantId::new("aye").unwrap(),
        };
        aye.run_workload(&[noise(PAYLOAD_A, 1)]);
        b.join().unwrap();
    });

    shutdown_with_watchdog(handle);
    assert_no_tmp_files(&dir);
    assert_fsck_clean(&dir.join(TENANTS_SUBDIR).join("aye"));
    assert_fsck_clean(&dir.join(TENANTS_SUBDIR).join("bee"));
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn chaos_matrix_tenant_faults_do_not_cross_tenants() {
    // Enumerate tenant A's wire operations fault-free (B races alongside,
    // but only A's client is counted/armed).
    let counting = Plan::counting();
    run_tenant_chaos("ten-count", Some(counting.clone()));
    let total = counting.ops();
    assert!(
        total > 10,
        "workload too small to be interesting: {total} ops"
    );

    // Replay once per site with that operation armed on tenant A's side.
    for site in 0..total {
        let plan = Plan::armed(site, fault_for(site));
        run_tenant_chaos("ten-armed", Some(plan.clone()));
        assert_fired_if_reached(&plan, site);
    }
}

#[test]
fn saturated_queue_sheds_load_with_retryable_busy() {
    let dir = temp("busy");
    HiDeStoreConfig::small_for_tests().save_to(&dir).unwrap();
    let handle = serve(
        &dir,
        ServerConfig {
            quiet: true,
            workers: 1,
            // Idle squatters below would otherwise pin the worker for the
            // full default deadline.
            io_timeout: Duration::from_secs(2),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = handle.addr();

    // Squat the single worker and every queue slot with idle connections
    // that never send a byte.
    let squatter_a = std::net::TcpStream::connect(addr).unwrap();
    std::thread::sleep(Duration::from_millis(200)); // worker picks up a
    let queued: Vec<_> = (0..QUEUE_DEPTH)
        .map(|_| std::net::TcpStream::connect(addr).unwrap())
        .collect();
    std::thread::sleep(Duration::from_millis(200)); // the rest park in the queue

    // The next connection must be shed with a typed, retryable `busy`
    // carrying the configured backoff hint — not queued, not dropped.
    let err = match RemoteClient::connect(addr) {
        Ok(_) => panic!("a saturated daemon must shed, not admit"),
        Err(e) => e,
    };
    match err {
        ClientError::Remote(e) => {
            assert_eq!(e.code, ErrorCode::Busy);
            assert_eq!(
                e.retry_after_ms, BUSY_RETRY_AFTER_MS,
                "the shed carries the hint: {e:?}"
            );
        }
        other => panic!("expected Remote(Busy), got {other}"),
    }

    // Once the squatters leave (their sockets close and the worker drains
    // them), normal service resumes: a plain client is admitted again
    // within a few of the hinted backoffs.
    drop(squatter_a);
    drop(queued);
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut client = loop {
        match RemoteClient::connect(addr) {
            Ok(client) => break client,
            Err(ClientError::Remote(e)) if e.code == ErrorCode::Busy => {
                assert!(Instant::now() < deadline, "the queue never drained");
                std::thread::sleep(Duration::from_millis(u64::from(e.retry_after_ms)));
            }
            Err(e) => panic!("expected admission or Remote(Busy), got {e}"),
        }
    };
    client.ping().unwrap();
    drop(client);

    let stats = shutdown_with_watchdog(handle);
    assert!(stats.busy_rejected >= 1, "the shed was counted: {stats}");
    assert_no_tmp_files(&dir);
    fs::remove_dir_all(&dir).unwrap();
}
