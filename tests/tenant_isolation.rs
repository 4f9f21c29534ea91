//! Cross-tenant isolation suite for the multi-tenant daemon.
//!
//! The core claim under test: tenants served from one root are *invisible*
//! to each other. Racing N tenants' interleaved workloads (backups,
//! restores, a prune) through one daemon must leave every tenant's
//! repository byte-identical to the repository a serial, single-tenant run
//! produces — same files, same bytes — with fsck clean per tenant, version
//! ids counted per tenant, and per-tenant server counters accounting each
//! tenant's own traffic exactly.
//!
//! The suite also pins the default and refusal edges: a client that never
//! names a tenant lands on `default`, byte-identical to one that names it
//! explicitly; an unknown tenant is a typed `NotFound` that creates nothing
//! on disk; and a quota refusal is a typed, *non-retryable* error that
//! `RetryClient` does not retry.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::time::Duration;

use hidestore::core::{HiDeStore, HiDeStoreConfig};
use hidestore::fsck::SystemAuditor;
use hidestore::proto::{ErrorCode, ListResponse, TenantId};
use hidestore::server::{
    serve, ClientError, RemoteClient, RetryClient, RetryPolicy, ServerConfig, ServerHandle,
};
use hidestore::tenant::{TenantQuota, TENANTS_SUBDIR};

const TENANTS: usize = 4;

fn temp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hidestore-tenant-{tag}-{}", std::process::id()));
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

fn tenant(name: &str) -> TenantId {
    TenantId::new(name).unwrap()
}

fn assert_fsck_clean(dir: &Path) {
    let config = HiDeStoreConfig::load_from(dir).unwrap();
    let system = HiDeStore::open_repository(config, dir).unwrap();
    let report = SystemAuditor::new().audit(&system);
    assert!(report.is_clean(), "{}: {report}", dir.display());
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

/// Starts a multi-tenant daemon over a fresh root. `max_live` below the
/// tenant count forces LRU eviction churn *during* the race, so the
/// isolation claim is tested across evict/reopen cycles too.
fn start_root(root: &Path, max_live: usize) -> ServerHandle {
    HiDeStoreConfig::small_for_tests().save_to(root).unwrap();
    serve(
        root,
        ServerConfig {
            quiet: true,
            tenants_root: true,
            max_live_tenants: max_live,
            io_timeout: Duration::from_secs(10),
            ..ServerConfig::default()
        },
    )
    .unwrap()
}

/// The i-th tenant's payloads. Lengths differ per tenant so byte-in/out
/// totals are unique fingerprints — any cross-tenant accounting bleed
/// shows up as a wrong sum.
fn payloads(i: usize) -> [Vec<u8>; 3] {
    let i = i as u64;
    [
        noise(30_000 + 1_000 * i as usize, 10 * i + 1),
        noise(22_000 + 500 * i as usize, 10 * i + 2),
        noise(34_000 + 700 * i as usize, 10 * i + 3),
    ]
}

/// One tenant's reference workload: two backups, both restored and
/// verified, a prune down to the newest, a third backup, its restore, and
/// a final listing. Returns the listing for cross-run comparison.
fn run_workload(addr: std::net::SocketAddr, id: &TenantId, i: usize) -> ListResponse {
    let [p1, p2, p3] = payloads(i);
    let mut client = RemoteClient::connect(addr)
        .unwrap()
        .with_tenant(id.clone())
        .unwrap();
    assert_eq!(client.backup_bytes(&p1).unwrap().version, 1, "{id}");
    assert_eq!(client.backup_bytes(&p2).unwrap().version, 2, "{id}");
    let mut out = Vec::new();
    client.restore_to(1, &mut out).unwrap();
    assert_eq!(out, p1, "{id}: V1 bytes");
    out.clear();
    client.restore_to(2, &mut out).unwrap();
    assert_eq!(out, p2, "{id}: V2 bytes");
    client.prune(1).unwrap();
    // Version ids keep counting per tenant after the prune.
    assert_eq!(client.backup_bytes(&p3).unwrap().version, 3, "{id}");
    out.clear();
    client.restore_to(3, &mut out).unwrap();
    assert_eq!(out, p3, "{id}: V3 bytes");
    client.list().unwrap()
}

/// Recursively collects `dir`'s files as relative-path → contents.
fn tree(dir: &Path) -> BTreeMap<PathBuf, Vec<u8>> {
    let mut out = BTreeMap::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in fs::read_dir(&d).unwrap().filter_map(Result::ok) {
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else {
                let rel = path.strip_prefix(dir).unwrap().to_path_buf();
                out.insert(rel, fs::read(&path).unwrap());
            }
        }
    }
    out
}

fn assert_trees_identical(a: &Path, b: &Path) {
    let ta = tree(a);
    let tb = tree(b);
    let names_a: Vec<_> = ta.keys().collect();
    let names_b: Vec<_> = tb.keys().collect();
    assert_eq!(
        names_a,
        names_b,
        "file sets diverge between {} and {}",
        a.display(),
        b.display()
    );
    for (rel, bytes) in &ta {
        assert_eq!(
            bytes,
            &tb[rel],
            "{} differs between {} and {}",
            rel.display(),
            a.display(),
            b.display()
        );
    }
}

/// The tentpole assertion: N tenants raced through one daemon end in
/// repositories byte-identical to serial single-tenant runs, fsck-clean,
/// with per-tenant version spaces and exact per-tenant counters.
///
/// Both runs keep every handle resident (`max_live` = N): physical file
/// names shift with *where* a handle's save/reopen cycle lands in the op
/// stream, so byte-identity is only meaningful when neither run evicts.
/// Isolation under eviction churn is covered separately below.
#[test]
fn raced_tenants_converge_to_serial_state() {
    // Reference: each tenant's workload run serially, one at a time.
    let serial = temp("serial");
    let handle = start_root(&serial, TENANTS);
    let addr = handle.addr();
    let mut serial_lists = Vec::new();
    for i in 0..TENANTS {
        serial_lists.push(run_workload(addr, &tenant(&format!("t{i}")), i));
    }
    shutdown_with_watchdog(handle);

    // Raced: the same workloads, all tenants concurrently.
    let raced = temp("raced");
    let handle = start_root(&raced, TENANTS);
    let addr = handle.addr();
    let raced_lists: Vec<ListResponse> = std::thread::scope(|scope| {
        let threads: Vec<_> = (0..TENANTS)
            .map(|i| scope.spawn(move || run_workload(addr, &tenant(&format!("t{i}")), i)))
            .collect();
        threads.into_iter().map(|t| t.join().unwrap()).collect()
    });

    // Per-tenant counters account each tenant's own traffic exactly: the
    // byte totals are per-tenant-unique, so any bleed breaks a sum. The
    // ok-counter is bumped after the response is written, so a client can
    // observe its reply just before the worker's increment lands — poll
    // briefly until all rows settle at the expected request count.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    let stats = loop {
        let stats = handle.tenant_stats();
        if stats.len() == TENANTS && stats.iter().all(|(_, s)| s.requests_ok >= 8) {
            break stats;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "per-tenant counters never settled: {stats:?}"
        );
        std::thread::sleep(Duration::from_millis(5));
    };
    for (id, snap) in &stats {
        let i: usize = id.as_str()[1..].parse().unwrap();
        let total: u64 = payloads(i).iter().map(|p| p.len() as u64).sum();
        assert_eq!(snap.bytes_in, total, "{id}: backup bytes");
        assert_eq!(snap.bytes_out, total, "{id}: restore bytes");
        // 3 backups + 3 restores + 1 prune + 1 list, nothing failed.
        assert_eq!(snap.requests_ok, 8, "{id}");
        assert_eq!(snap.requests_failed, 0, "{id}");
        assert_eq!(snap.rolled_back, 0, "{id}");
    }
    assert_eq!(handle.open_sessions(), 0, "no leaked sessions");
    shutdown_with_watchdog(handle);

    for i in 0..TENANTS {
        let name = format!("t{i}");
        // The listings agree between runs and hold exactly this tenant's
        // post-prune versions — version ids are counted per tenant.
        assert_eq!(serial_lists[i], raced_lists[i], "{name}: listing");
        let versions: Vec<u32> = raced_lists[i].versions.iter().map(|v| v.version).collect();
        assert_eq!(versions, [2, 3], "{name}: version space");

        let serial_dir = serial.join(TENANTS_SUBDIR).join(&name);
        let raced_dir = raced.join(TENANTS_SUBDIR).join(&name);
        assert_trees_identical(&serial_dir, &raced_dir);
        assert_fsck_clean(&raced_dir);
    }

    fs::remove_dir_all(&serial).unwrap();
    fs::remove_dir_all(&raced).unwrap();
}

/// Isolation must survive maximum LRU pressure: a single live slot forces
/// an evict/reopen cycle on nearly every request while N tenants race.
/// Physical layout legitimately varies with eviction timing, so this test
/// pins the *logical* state: every in-workload restore byte-matches (the
/// workload asserts it), listings hold exactly the per-tenant versions,
/// per-tenant counters account exactly, and every tenant is fsck-clean.
#[test]
fn eviction_churn_preserves_isolation() {
    let root = temp("churn");
    let handle = start_root(&root, 1);
    let addr = handle.addr();
    let lists: Vec<ListResponse> = std::thread::scope(|scope| {
        let threads: Vec<_> = (0..TENANTS)
            .map(|i| scope.spawn(move || run_workload(addr, &tenant(&format!("t{i}")), i)))
            .collect();
        threads.into_iter().map(|t| t.join().unwrap()).collect()
    });
    for (i, list) in lists.iter().enumerate() {
        let versions: Vec<u32> = list.versions.iter().map(|v| v.version).collect();
        assert_eq!(versions, [2, 3], "t{i}: version space");
        let [_, p2, p3] = payloads(i);
        let bytes: Vec<u64> = list.versions.iter().map(|v| v.bytes).collect();
        assert_eq!(bytes, [p2.len() as u64, p3.len() as u64], "t{i}: sizes");
    }
    assert_eq!(handle.open_sessions(), 0, "no leaked sessions");
    shutdown_with_watchdog(handle);
    for i in 0..TENANTS {
        assert_fsck_clean(&root.join(TENANTS_SUBDIR).join(format!("t{i}")));
    }
    fs::remove_dir_all(&root).unwrap();
}

/// A client that never calls `with_tenant` addresses the `default` tenant:
/// the same repository — byte for byte — that a client naming `default`
/// explicitly produces, and no other tenant appears.
#[test]
fn unaddressed_client_lands_on_the_default_tenant() {
    let payloads = [noise(48_000, 77), noise(31_000, 78)];
    let run = |tag: &str, explicit: bool| {
        let root = temp(tag);
        let handle = start_root(&root, 4);
        let mut client = RemoteClient::connect(handle.addr()).unwrap();
        if explicit {
            client = client.with_tenant(tenant("default")).unwrap();
        }
        assert!(client.tenant().is_default());
        for (i, payload) in payloads.iter().enumerate() {
            let version = i as u32 + 1;
            assert_eq!(client.backup_bytes(payload).unwrap().version, version);
            let mut out = Vec::new();
            client.restore_to(version, &mut out).unwrap();
            assert_eq!(&out, payload, "V{version}");
        }
        let list = client.tenant_list().unwrap();
        let names: Vec<&str> = list.tenants.iter().map(|t| t.tenant.as_str()).collect();
        assert_eq!(names, ["default"], "no other tenant was created");
        drop(client);
        shutdown_with_watchdog(handle);
        assert_fsck_clean(&root.join(TENANTS_SUBDIR).join("default"));
        root
    };
    let implicit = run("implicit-default", false);
    let explicit = run("explicit-default", true);
    assert_trees_identical(&implicit, &explicit);
    fs::remove_dir_all(&implicit).unwrap();
    fs::remove_dir_all(&explicit).unwrap();
}

/// With auto-creation off, an unknown tenant is a typed `NotFound` that
/// `RetryClient` does not retry — and nothing appears on disk.
#[test]
fn unknown_tenant_is_refused_without_side_effects() {
    let root = temp("stranger");
    HiDeStoreConfig::small_for_tests().save_to(&root).unwrap();
    let handle = serve(
        &root,
        ServerConfig {
            quiet: true,
            tenants_root: true,
            auto_create_tenants: false,
            ..ServerConfig::default()
        },
    )
    .unwrap();

    let mut client = RetryClient::new(handle.addr().to_string(), RetryPolicy::default())
        .with_tenant(tenant("stranger"));
    match client.backup(&noise(10_000, 1)).unwrap_err() {
        ClientError::Remote(e) => {
            assert_eq!(e.code, ErrorCode::NotFound, "{e:?}");
            assert!(!e.code.is_retryable());
        }
        other => panic!("expected Remote(NotFound), got {other}"),
    }
    assert_eq!(
        client.counters().attempts,
        1,
        "a permanent refusal must not be retried: {:?}",
        client.counters()
    );
    assert!(
        !root.join(TENANTS_SUBDIR).join("stranger").exists(),
        "a refused tenant must leave no directory behind"
    );
    drop(client);
    shutdown_with_watchdog(handle);
    fs::remove_dir_all(&root).unwrap();
}

/// A quota refusal is permanent: typed `QuotaExceeded`, no retry burned,
/// no rollback (the check runs before any mutation), and the tenant's
/// repository stays clean and readable.
#[test]
fn quota_refusal_is_permanent_and_clean() {
    let root = temp("quota");
    HiDeStoreConfig::small_for_tests().save_to(&root).unwrap();
    let handle = serve(
        &root,
        ServerConfig {
            quiet: true,
            tenants_root: true,
            default_quota: TenantQuota {
                max_bytes: 0,
                max_versions: 1,
            },
            ..ServerConfig::default()
        },
    )
    .unwrap();

    let payload = noise(20_000, 3);
    let mut client = RetryClient::new(handle.addr().to_string(), RetryPolicy::default())
        .with_tenant(tenant("alice"));
    client.backup(&payload).unwrap();
    match client.backup(&noise(5_000, 4)).unwrap_err() {
        ClientError::Remote(e) => {
            assert_eq!(e.code, ErrorCode::QuotaExceeded, "{e:?}");
            assert!(!e.code.is_retryable(), "quota refusals repeat identically");
        }
        other => panic!("expected Remote(QuotaExceeded), got {other}"),
    }
    assert_eq!(
        client.counters().attempts,
        2,
        "one attempt per backup, no retries: {:?}",
        client.counters()
    );
    // The refused mutation left the committed state fully readable.
    let (bytes, _) = client.restore(1).unwrap();
    assert_eq!(bytes, payload);
    drop(client);

    assert_eq!(handle.rollbacks(), 0, "refusal is not a rollback");
    let stats = handle.tenant_stats();
    let (_, alice) = stats
        .iter()
        .find(|(id, _)| id.as_str() == "alice")
        .expect("alice has a stats row");
    assert_eq!(alice.quota_refused, 1);
    shutdown_with_watchdog(handle);
    assert_fsck_clean(&root.join(TENANTS_SUBDIR).join("alice"));
    fs::remove_dir_all(&root).unwrap();
}
