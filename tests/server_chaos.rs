//! Chaos matrix for the fault-tolerant remote stack: deterministic wire
//! faults injected at every operation index of a backup + restore workload,
//! driven by the retrying/resuming [`RetryClient`].
//!
//! The discipline mirrors the crash matrix of `tests/crash_matrix.rs`: a
//! counting run enumerates the wire operations of the fault-free workload,
//! then the workload replays once per site with that site armed — cutting,
//! tearing, black-holing, or delaying the connection — on the client side
//! and again on the server side. Every run must converge to a terminal
//! state byte-identical to the fault-free run: the restored payloads match,
//! exactly the expected versions exist (the idempotency token means a
//! retried backup never commits twice), the repository is fsck-clean with
//! no leaked `.tmp` files, no parked session survives, and the daemon still
//! drains under a watchdog.
//!
//! The multi-tenant matrix repeats the discipline against a tenant root:
//! tenant A's client is armed at every operation index while tenant B runs
//! a clean concurrent workload — B's repository must come out untouched no
//! matter where A's connection dies.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use hidestore::core::{HiDeStore, HiDeStoreConfig, ACTIVE_ID_BASE};
use hidestore::failpoint::{FaultKind, Plan};
use hidestore::fsck::SystemAuditor;
use hidestore::proto::{ErrorCode, TenantId};
use hidestore::server::{
    serve, ClientError, RemoteClient, RetryClient, RetryPolicy, ServerConfig, ServerHandle,
    BUSY_RETRY_AFTER_MS, QUEUE_DEPTH,
};
use hidestore::storage::{FileContainerStore, VersionId};
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

/// Tight backoffs so a full per-site sweep stays fast; the budget is still
/// generous enough that every single-shot fault converges.
fn fast_policy() -> RetryPolicy {
    RetryPolicy::default()
        .with_delays(Duration::from_millis(1), Duration::from_millis(10))
        .with_budget(Duration::from_secs(30), 10)
        .with_seed(11)
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

/// The reference workload: two backups, both restored back, and a listing.
/// Returns the restored bytes so callers can compare against the payloads.
fn run_workload(addr: std::net::SocketAddr, client_fault: Option<Plan>) -> (Vec<u8>, Vec<u8>) {
    let a = noise(PAYLOAD_A, 1);
    let b = noise(PAYLOAD_B, 2);
    let mut client = RetryClient::new(addr.to_string(), fast_policy());
    if let Some(plan) = client_fault {
        client = client.with_fault(plan);
    }
    let s1 = client.backup(&a).unwrap();
    assert_eq!(s1.version, 1, "first backup commits exactly once");
    let s2 = client.backup(&b).unwrap();
    assert_eq!(s2.version, 2, "second backup commits exactly once");
    let (ra, _) = client.restore(1).unwrap();
    let (rb, _) = client.restore(2).unwrap();
    let list = client.list().unwrap();
    assert_eq!(
        list.versions.len(),
        2,
        "retried backups must never duplicate a commit: {list:?}"
    );
    (ra, rb)
}

/// One chaos run: fresh repository + daemon, the workload under the given
/// fault plans, then the full terminal-state audit.
fn run_and_audit(tag: &str, server_fault: Option<Plan>, client_fault: Option<Plan>) {
    let dir = temp(tag);
    let handle = start(&dir, server_fault);
    let (ra, rb) = run_workload(handle.addr(), client_fault);
    assert_eq!(
        ra,
        noise(PAYLOAD_A, 1),
        "restored V1 must be byte-identical"
    );
    assert_eq!(
        rb,
        noise(PAYLOAD_B, 2),
        "restored V2 must be byte-identical"
    );
    assert_eq!(handle.open_sessions(), 0, "no leaked resumable sessions");
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
/// workload racing tenant A's faulted one. A must converge through its
/// retries; B must be completely untouched — its restores byte-identical,
/// exactly its own versions retained, and its repository fsck-clean.
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
            let b1 = noise(33_000, 21);
            let b2 = noise(27_000, 22);
            let mut client = RemoteClient::connect(addr)
                .unwrap()
                .with_tenant(TenantId::new("bee").unwrap())
                .unwrap();
            assert_eq!(client.backup_bytes(&b1).unwrap().version, 1);
            assert_eq!(client.backup_bytes(&b2).unwrap().version, 2);
            let mut out = Vec::new();
            client.restore_to(1, &mut out).unwrap();
            assert_eq!(out, b1, "tenant B's V1 must be untouched by A's faults");
            out.clear();
            client.restore_to(2, &mut out).unwrap();
            assert_eq!(out, b2, "tenant B's V2 must be untouched by A's faults");
            let list = client.list().unwrap();
            assert_eq!(list.versions.len(), 2, "no bleed into B's version space");
        });

        // Tenant A: the faulted workload, ridden by the retry loop.
        let a1 = noise(PAYLOAD_A, 1);
        let mut client = RetryClient::new(addr.to_string(), fast_policy())
            .with_tenant(TenantId::new("aye").unwrap());
        if let Some(plan) = client_fault {
            client = client.with_fault(plan);
        }
        let s1 = client.backup(&a1).unwrap();
        assert_eq!(s1.version, 1, "A's backup commits exactly once");
        let (ra, _) = client.restore(1).unwrap();
        assert_eq!(ra, a1, "A's restore must converge byte-identically");

        b.join().unwrap();
    });

    assert_eq!(handle.open_sessions(), 0, "no leaked resumable sessions");
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
fn resumed_restore_retransfers_only_the_tail() {
    let dir = temp("resume-tail");
    let handle = start(&dir, None);
    let addr = handle.addr();
    // Several DATA frames so a mid-stream cut leaves a meaningful prefix.
    let payload = noise(600_000, 9);
    let mut seeder = RetryClient::new(addr.to_string(), fast_policy());
    seeder.backup(&payload).unwrap();
    // An unrelated V2 turns every chunk of V1 cold, so V1 restores from
    // archival containers only.
    seeder.backup(&noise(100_000, 10)).unwrap();

    // Count the wire operations of one clean restore.
    let counting = Plan::counting();
    let mut counter =
        RetryClient::new(addr.to_string(), fast_policy()).with_fault(counting.clone());
    let (bytes, _) = counter.restore(1).unwrap();
    assert_eq!(bytes, payload);
    let total = counting.ops();

    // Walk the cut site forward until one lands mid-stream: the client then
    // holds a non-empty prefix and must resume — re-transferring only the
    // bytes after the acknowledged boundary, verified by the client's own
    // transfer counters.
    let mut exercised = false;
    for site in 0..total {
        let plan = Plan::armed(site, FaultKind::Error);
        let mut client = RetryClient::new(addr.to_string(), fast_policy()).with_fault(plan);
        let (bytes, summary) = client.restore(1).unwrap();
        assert_eq!(bytes, payload, "restore must converge byte-identically");
        assert_eq!(summary.bytes_restored, payload.len() as u64);
        let resumes = &client.counters().resumes;
        if let Some(ev) = resumes.iter().find(|e| e.offset > 0) {
            assert_eq!(resumes.len(), 1, "one fault, one resume: {resumes:?}");
            assert_eq!(ev.total, payload.len() as u64);
            assert_eq!(
                ev.transferred,
                ev.total - ev.offset,
                "the resumed leg must move only the tail: {ev:?}"
            );
            exercised = true;
            break;
        }
    }
    assert!(exercised, "no cut site interrupted the restore mid-stream");

    // A late resume restores only the tail, so it reads only the containers
    // under it: fewer than the full restore, for the same bytes and the
    // same whole-version `bytes_restored`.
    let mut direct = RemoteClient::connect(addr).unwrap();
    let mut full_bytes = Vec::new();
    let full = direct
        .restore_resume(1, 0, &mut full_bytes)
        .unwrap()
        .summary;
    assert_eq!(full_bytes, payload);
    let late = payload.len() * 3 / 4;
    let mut tail = Vec::new();
    let resumed = direct.restore_resume(1, late as u64, &mut tail).unwrap();
    assert_eq!(tail, payload[late..]);
    assert_eq!(resumed.summary.bytes_restored, full.bytes_restored);
    assert!(
        resumed.summary.container_reads < full.container_reads,
        "resumed leg read {} containers, the full restore {}",
        resumed.summary.container_reads,
        full.container_reads
    );
    drop(direct);

    let stats = shutdown_with_watchdog(handle);
    assert!(
        stats.sessions_resumed >= 1,
        "server counted the resume: {stats}"
    );
    assert_no_tmp_files(&dir);
    assert_fsck_clean(&dir);
    let config = HiDeStoreConfig::load_from(&dir).unwrap();
    let system: HiDeStore<FileContainerStore> = HiDeStore::open_repository(config, &dir).unwrap();
    let containers: BTreeSet<u32> = system
        .restore_plan(VersionId::new(1))
        .unwrap()
        .iter()
        .map(|e| e.container.get())
        .collect();
    assert!(
        containers.len() >= 4 && containers.iter().all(|&c| c < ACTIVE_ID_BASE),
        "V1 must span at least 4 archival containers: {containers:?}"
    );
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn retrying_client_rides_through_a_server_restart() {
    let dir = temp("restart");
    HiDeStoreConfig::small_for_tests().save_to(&dir).unwrap();
    let quiet = || ServerConfig {
        quiet: true,
        ..ServerConfig::default()
    };
    let payload = noise(80_000, 5);
    let handle = serve(&dir, quiet()).unwrap();
    let addr = handle.addr();
    {
        let mut client = RetryClient::new(addr.to_string(), fast_policy());
        client.backup(&payload).unwrap();
    }
    // Stop the daemon completely; every served connection above was closed
    // client-first, so the port is immediately rebindable.
    shutdown_with_watchdog(handle);

    // Restart on the SAME address after a visible down-window.
    let dir2 = dir.clone();
    let restarter = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(300));
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match serve(
                &dir2,
                ServerConfig {
                    bind: addr.to_string(),
                    ..quiet()
                },
            ) {
                Ok(handle) => return handle,
                Err(e) => {
                    assert!(Instant::now() < deadline, "could not rebind {addr}: {e}");
                    std::thread::sleep(Duration::from_millis(50));
                }
            }
        }
    });

    // Every attempt during the down-window is refused at connect; the
    // retry loop alone must carry the operation across the restart.
    let mut client = RetryClient::new(
        addr.to_string(),
        RetryPolicy::default()
            .with_delays(Duration::from_millis(10), Duration::from_millis(50))
            .with_budget(Duration::from_secs(20), 100)
            .with_seed(3),
    );
    let (bytes, _) = client.restore(1).unwrap();
    assert_eq!(bytes, payload, "state survives the restart");
    assert!(
        client.counters().retries > 0,
        "the down-window must have forced at least one retry: {:?}",
        client.counters()
    );

    let handle2 = restarter.join().unwrap();
    shutdown_with_watchdog(handle2);
    fs::remove_dir_all(&dir).unwrap();
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
            assert!(e.code.is_retryable(), "busy must be retryable");
            assert_eq!(
                e.retry_after_ms, BUSY_RETRY_AFTER_MS,
                "the shed carries the hint: {e:?}"
            );
        }
        other => panic!("expected Remote(Busy), got {other}"),
    }

    // Once the squatters leave (their sockets close, the worker times out
    // or sees EOF), normal service resumes.
    drop(squatter_a);
    drop(queued);
    let mut client = RetryClient::new(
        addr.to_string(),
        fast_policy().with_delays(Duration::from_millis(5), Duration::from_millis(50)),
    );
    client.ping().unwrap();

    let stats = shutdown_with_watchdog(handle);
    assert!(stats.busy_rejected >= 1, "the shed was counted: {stats}");
    assert_no_tmp_files(&dir);
    fs::remove_dir_all(&dir).unwrap();
}
