//! Loopback differential test for the daemon (`hidestore serve`).
//!
//! N concurrent clients each stream their own evolving version sequence
//! into one daemon. Afterwards the repository must be `SystemAuditor`-clean,
//! every client must get its exact bytes back over the wire, and — the
//! differential half — a *local* repository fed the same payloads in the
//! globally committed order must agree with the served repository on every
//! version's restored bytes. The daemon serializes writers, so whatever
//! interleaving the clients raced into is equivalent to SOME serial order;
//! the assigned version numbers tell us which one.

use std::collections::BTreeMap;
use std::fs;
use std::path::PathBuf;
use std::sync::Mutex;

use hidestore::core::{HiDeStore, HiDeStoreConfig};
use hidestore::fsck::SystemAuditor;
use hidestore::server::{serve, RemoteClient, ServerConfig};

fn temp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hidestore-loopback-{tag}-{}", std::process::id()));
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

/// Client `c`'s generation `g`: a base stream mutated in place, so versions
/// within a client dedup against each other but not across clients.
fn payload(client: u64, generation: u64) -> Vec<u8> {
    let mut data = noise(180_000 + client as usize * 7_000, 1000 + client);
    let span = 30_000;
    let start = (generation as usize * 41_000) % (data.len() - span);
    data[start..start + span].copy_from_slice(&noise(span, 5000 + client * 10 + generation));
    data
}

#[test]
fn concurrent_clients_differential_against_local_path() {
    const CLIENTS: u64 = 4;
    const GENERATIONS: u64 = 3;

    let dir = temp("diff");
    let config = HiDeStoreConfig::small_for_tests();
    config.save_to(&dir).unwrap();
    let handle = serve(
        &dir,
        ServerConfig {
            quiet: true,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = handle.addr();

    // Phase 1: clients race their backups; each records which version id
    // the daemon assigned to which payload.
    let assigned: Mutex<BTreeMap<u32, (u64, u64)>> = Mutex::new(BTreeMap::new());
    std::thread::scope(|scope| {
        for client in 0..CLIENTS {
            let assigned = &assigned;
            scope.spawn(move || {
                let mut conn = RemoteClient::connect(addr).unwrap();
                for generation in 0..GENERATIONS {
                    let data = payload(client, generation);
                    let summary = conn.backup_bytes(&data).unwrap();
                    assert_eq!(summary.logical_bytes, data.len() as u64);
                    let prev = assigned
                        .lock()
                        .unwrap()
                        .insert(summary.version, (client, generation));
                    assert_eq!(prev, None, "daemon assigned a version id twice");
                }
            });
        }
    });
    let assigned = assigned.into_inner().unwrap();
    assert_eq!(assigned.len(), (CLIENTS * GENERATIONS) as usize);
    assert_eq!(
        assigned.keys().copied().collect::<Vec<_>>(),
        (1..=(CLIENTS * GENERATIONS) as u32).collect::<Vec<_>>(),
        "version ids must be dense"
    );

    // Phase 2: every client restores every one of its versions over the
    // wire, concurrently, and must get its exact payload back.
    std::thread::scope(|scope| {
        for client in 0..CLIENTS {
            let assigned = &assigned;
            scope.spawn(move || {
                let mut conn = RemoteClient::connect(addr).unwrap();
                for (&version, &(owner, generation)) in assigned {
                    if owner != client {
                        continue;
                    }
                    let mut out = Vec::new();
                    conn.restore_to(version, &mut out).unwrap();
                    assert_eq!(
                        out,
                        payload(owner, generation),
                        "client {client} V{version} round-trip"
                    );
                }
            });
        }
    });

    let stats = handle.shutdown_and_join();
    assert_eq!(stats.requests_failed, 0, "{stats}");
    assert_eq!(stats.rolled_back, 0, "{stats}");

    // Phase 3: the served repository is audit-clean...
    let served_config = HiDeStoreConfig::load_from(&dir).unwrap();
    let served = HiDeStore::open_repository(served_config, &dir).unwrap();
    let report = SystemAuditor::new().audit(&served);
    assert!(report.is_clean(), "{report}");

    // ...and differentially equal to a local repository fed the same
    // payloads in the committed order: same per-version restored bytes.
    let local_dir = temp("diff-local");
    let mut local =
        HiDeStore::open_repository(HiDeStoreConfig::small_for_tests(), &local_dir).unwrap();
    for (&version, &(client, generation)) in &assigned {
        let stats = local.backup(&payload(client, generation)).unwrap();
        assert_eq!(stats.version.get(), version);
    }
    for &version in assigned.keys() {
        let v = hidestore::storage::VersionId::new(version);
        let mut from_served = Vec::new();
        let mut from_local = Vec::new();
        let faa = || hidestore::restore::Faa::new(1 << 20);
        served.restore(v, &mut faa(), &mut from_served).unwrap();
        local.restore(v, &mut faa(), &mut from_local).unwrap();
        assert_eq!(
            from_served, from_local,
            "V{version} differs from local path"
        );
    }

    fs::remove_dir_all(&dir).unwrap();
    fs::remove_dir_all(&local_dir).unwrap();
}

/// `RemoteClient::restore_to_path` stages in `<path>.tmp` — `.tmp` appended
/// to the full file name, never substituted for the extension — so a sibling
/// that merely shares the stem is untouched, and a failed restore to a path
/// that itself ends in `.tmp` leaves the caller's previous file intact.
#[test]
fn remote_restore_staging_never_touches_other_files() {
    let dir = temp("staging");
    HiDeStoreConfig::small_for_tests().save_to(&dir).unwrap();
    let handle = serve(
        &dir,
        ServerConfig {
            quiet: true,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut conn = RemoteClient::connect(handle.addr()).unwrap();
    let data = payload(0, 0);
    conn.backup_bytes(&data).unwrap();

    let out_dir = temp("staging-out");
    let sibling = out_dir.join("a.tmp");
    fs::write(&sibling, b"unrelated sibling").unwrap();
    conn.restore_to_path(1, out_dir.join("a.bin")).unwrap();
    assert_eq!(fs::read(out_dir.join("a.bin")).unwrap(), data);
    assert_eq!(fs::read(&sibling).unwrap(), b"unrelated sibling");
    assert!(!out_dir.join("a.bin.tmp").exists());

    let keep = out_dir.join("keep.tmp");
    fs::write(&keep, b"previous good output").unwrap();
    conn.restore_to_path(99, &keep).unwrap_err();
    assert_eq!(fs::read(&keep).unwrap(), b"previous good output");
    assert!(!out_dir.join("keep.tmp.tmp").exists());

    drop(conn);
    handle.shutdown_and_join();
    fs::remove_dir_all(&dir).unwrap();
    fs::remove_dir_all(&out_dir).unwrap();
}
