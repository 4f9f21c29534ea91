//! `hds-served`: the HiDeStore network daemon and its client.
//!
//! This crate turns the local repository engine into a network service over
//! the framed wire protocol of `hidestore-proto`:
//!
//! * [`serve`] starts the daemon — a `TcpListener` acceptor feeding a
//!   bounded `std::sync::mpsc::sync_channel` of connections to a worker
//!   pool, each worker speaking the wire protocol over one connection at a
//!   time. The returned [`ServerHandle`] exposes the bound address, live
//!   [`StatsSnapshot`] counters, and graceful
//!   [`ServerHandle::request_shutdown`] / [`ServerHandle::join`], which
//!   dropping the handle also performs.
//! * [`RemoteClient`] is the matching blocking client used by the
//!   `--remote` CLI paths and the test/bench harnesses.
//! * [`view`] builds the protocol's `List`/`Stats` response types from a
//!   repository, shared by the daemon and the local CLI's `--json` output.
//!
//! Concurrency and crash-safety are delegated downward: tenant ids map to
//! independent repositories through a
//! [`hidestore_tenant::TenantRegistry`], each held in a
//! [`hidestore_core::RepositoryHandle`] (per-tenant writer lock, concurrent
//! readers on the one open instance, rollback-by-reopen on failed
//! mutations), and the
//! commit journal underneath keeps the on-disk state atomic even if the
//! daemon is killed mid-mutation. A plain repository (no tenant root) is
//! served as exactly the `default` tenant — the tenant a client addresses
//! until it names another.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod client;
mod retry;
mod server;
mod session;
pub mod stats;
pub mod view;

pub use client::{BackupAttempt, ClientError, RemoteClient, RestoreAttempt, DEFAULT_NET_TIMEOUT};
pub use retry::{retryable, ResumeEvent, RetryClient, RetryCounters, RetryPolicy};
pub use server::{
    serve, serve_until_shutdown, ServerConfig, ServerError, ServerHandle, DATA_CHUNK,
};
pub use session::SessionTable;
pub use stats::{ServerStats, StatsSnapshot, TenantStats, TenantStatsSnapshot};

#[cfg(test)]
mod tests {
    use super::*;
    use hidestore_core::HiDeStoreConfig;
    use hidestore_proto::ErrorCode;
    use std::path::{Path, PathBuf};

    fn temp(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("hidestore-served-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn init_repo(dir: &Path) {
        HiDeStoreConfig::small_for_tests().save_to(dir).unwrap();
    }

    fn quiet_config() -> ServerConfig {
        ServerConfig {
            quiet: true,
            ..ServerConfig::default()
        }
    }

    #[test]
    fn ping_round_trip_and_graceful_shutdown() {
        let dir = temp("ping");
        init_repo(&dir);
        let handle = serve(&dir, quiet_config()).unwrap();
        let addr = handle.addr();
        let mut client = RemoteClient::connect(addr).unwrap();
        assert!(client.tenant().is_default());
        client.ping().unwrap();
        client.shutdown().unwrap();
        let stats = handle.join();
        assert!(stats.requests_ok >= 2, "ping + shutdown: {stats}");
        // A post-shutdown connect must be refused.
        assert!(RemoteClient::connect(addr).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn backup_then_restore_round_trips_bytes() {
        let dir = temp("roundtrip");
        init_repo(&dir);
        let handle = serve(&dir, quiet_config()).unwrap();
        let payload: Vec<u8> = (0..600_000u32).map(|i| (i * 31 % 251) as u8).collect();
        let mut client = RemoteClient::connect(handle.addr()).unwrap();
        let summary = client.backup_bytes(&payload).unwrap();
        assert_eq!(summary.version, 1);
        assert_eq!(summary.logical_bytes, payload.len() as u64);
        let mut out = Vec::new();
        let restored = client.restore_to(1, &mut out).unwrap();
        assert_eq!(out, payload);
        assert_eq!(restored.bytes_restored, payload.len() as u64);
        let list = client.list().unwrap();
        assert_eq!(list.versions.len(), 1);
        assert_eq!(list.versions[0].bytes, payload.len() as u64);
        client.shutdown().unwrap();
        handle.join();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unknown_version_is_a_typed_not_found() {
        let dir = temp("notfound");
        init_repo(&dir);
        let handle = serve(&dir, quiet_config()).unwrap();
        let mut client = RemoteClient::connect(handle.addr()).unwrap();
        for version in [0u32, 7] {
            let err = client.restore_to(version, &mut Vec::new()).unwrap_err();
            match err {
                ClientError::Remote(e) => assert_eq!(e.code, ErrorCode::NotFound),
                other => panic!("expected Remote(NotFound), got {other}"),
            }
        }
        // The connection survives typed errors.
        client.ping().unwrap();
        client.shutdown().unwrap();
        handle.join();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn no_op_prune_leaves_the_repository_files_untouched() {
        fn mtimes(dir: &Path, out: &mut Vec<(PathBuf, std::time::SystemTime)>) {
            for entry in std::fs::read_dir(dir).unwrap() {
                let path = entry.unwrap().path();
                if path.is_dir() {
                    mtimes(&path, out);
                } else {
                    let modified = std::fs::metadata(&path).unwrap().modified().unwrap();
                    out.push((path, modified));
                }
            }
        }
        let dir = temp("noop-prune");
        init_repo(&dir);
        let handle = serve(&dir, quiet_config()).unwrap();
        let mut client = RemoteClient::connect(handle.addr()).unwrap();
        client.backup_bytes(&vec![7u8; 40_000]).unwrap();
        let mut before = Vec::new();
        mtimes(&dir, &mut before);
        before.sort();
        let summary = client.prune(1).unwrap();
        assert_eq!(summary.versions_removed, 0);
        let mut after = Vec::new();
        mtimes(&dir, &mut after);
        after.sort();
        assert_eq!(
            before, after,
            "a no-op prune must not rewrite the repository"
        );
        client.shutdown().unwrap();
        handle.join();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn oversize_backup_stream_is_rejected() {
        let dir = temp("oversize");
        init_repo(&dir);
        let config = ServerConfig {
            limits: hidestore_proto::Limits {
                max_stream: 10_000,
                ..hidestore_proto::Limits::default()
            },
            ..quiet_config()
        };
        let handle = serve(&dir, config).unwrap();
        let mut client = RemoteClient::connect(handle.addr()).unwrap();
        let err = client.backup_bytes(&vec![0u8; 50_000]).unwrap_err();
        match err {
            ClientError::Remote(e) => assert_eq!(e.code, ErrorCode::TooLarge),
            other => panic!("expected Remote(TooLarge), got {other}"),
        }
        let stats = handle.shutdown_and_join();
        assert_eq!(stats.rejected_oversize, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tenant_root_serves_isolated_tenants_with_quotas_and_admin_verbs() {
        let root = temp("tenants");
        // Root config: template for auto-created tenant repositories.
        HiDeStoreConfig::small_for_tests().save_to(&root).unwrap();
        let config = ServerConfig {
            tenants_root: true,
            default_quota: hidestore_tenant::TenantQuota {
                max_bytes: 0,
                max_versions: 2,
            },
            ..quiet_config()
        };
        let handle = serve(&root, config).unwrap();
        let addr = handle.addr();
        let tenant = |name: &str| hidestore_proto::TenantId::new(name).unwrap();

        let mut alice = RemoteClient::connect(addr)
            .unwrap()
            .with_tenant(tenant("alice"))
            .unwrap();
        let mut bob = RemoteClient::connect(addr)
            .unwrap()
            .with_tenant(tenant("bob"))
            .unwrap();
        // Independent version-id spaces: both first backups are V1.
        assert_eq!(alice.backup_bytes(&vec![0xAA; 40_000]).unwrap().version, 1);
        assert_eq!(bob.backup_bytes(&vec![0xBB; 20_000]).unwrap().version, 1);
        assert_eq!(alice.backup_bytes(&vec![0xAC; 10_000]).unwrap().version, 2);
        let mut out = Vec::new();
        bob.restore_to(1, &mut out).unwrap();
        assert_eq!(out, vec![0xBB; 20_000]);
        // Alice's second version is invisible to Bob.
        assert_eq!(bob.list().unwrap().versions.len(), 1);
        assert_eq!(alice.list().unwrap().versions.len(), 2);

        // Quota: Alice holds 2 versions, the default quota caps at 2.
        let err = alice.backup_bytes(&vec![0xAD; 5_000]).unwrap_err();
        match err {
            ClientError::Remote(e) => {
                assert_eq!(e.code, ErrorCode::QuotaExceeded);
                assert!(!e.code.is_retryable(), "quota refusals are permanent");
            }
            other => panic!("expected Remote(QuotaExceeded), got {other}"),
        }

        // Unknown tenant on a read path: typed not-found, nothing created.
        let mut ghost = RemoteClient::connect(addr)
            .unwrap()
            .with_tenant(tenant("ghost"))
            .unwrap();
        match ghost.list().unwrap_err() {
            ClientError::Remote(e) => assert_eq!(e.code, ErrorCode::NotFound),
            other => panic!("expected Remote(NotFound), got {other}"),
        }
        assert!(!root
            .join(hidestore_tenant::TENANTS_SUBDIR)
            .join("ghost")
            .exists());

        // Admin verbs.
        let mut admin = RemoteClient::connect(addr).unwrap();
        let list = admin.tenant_list().unwrap();
        let names: Vec<&str> = list.tenants.iter().map(|t| t.tenant.as_str()).collect();
        assert_eq!(names, ["alice", "bob"]);
        assert_eq!(list.tenants[0].versions, 2);
        assert_eq!(list.tenants[1].versions, 1);
        let stats = admin.tenant_stats().unwrap();
        let alice_row = stats
            .tenants
            .iter()
            .find(|t| t.tenant == "alice")
            .expect("alice has a stats row");
        assert_eq!(alice_row.quota_refused, 1);
        assert!(alice_row.bytes_in >= 50_000);
        let bob_row = stats.tenants.iter().find(|t| t.tenant == "bob").unwrap();
        assert_eq!(bob_row.quota_refused, 0, "no cross-tenant stats bleed");
        assert!(bob_row.bytes_out >= 20_000);

        assert_eq!(
            handle.rollbacks(),
            0,
            "a quota refusal must not roll anything back"
        );
        // Close the idle connections so the drain below does not wait out
        // their read deadlines.
        drop(alice);
        drop(bob);
        drop(ghost);
        admin.shutdown().unwrap();
        handle.join();
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn timeout_flag_sets_the_one_io_deadline() {
        let args = ["repo", "--timeout", "7"].map(String::from);
        let (repo, config) = ServerConfig::from_args(&args).unwrap();
        assert_eq!(repo, "repo");
        assert_eq!(config.io_timeout, std::time::Duration::from_secs(7));
    }

    #[test]
    fn drop_force_stops_the_server() {
        let dir = temp("drop");
        init_repo(&dir);
        let handle = serve(&dir, quiet_config()).unwrap();
        let addr = handle.addr();
        drop(handle);
        assert!(RemoteClient::connect(addr).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn connection_queued_when_the_handle_drops_is_refused_typed() {
        let dir = temp("drop-queued");
        init_repo(&dir);
        let config = ServerConfig {
            workers: 1,
            ..quiet_config()
        };
        let handle = serve(&dir, config).unwrap();
        let addr = handle.addr();
        // A holds the only worker; B waits in the queue behind it.
        let a = RemoteClient::connect(addr).unwrap();
        let b = std::thread::spawn(move || RemoteClient::connect(addr).map(drop));
        while handle.stats().accepted < 2 {
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        let dropper = std::thread::spawn(move || drop(handle));
        // The listener closes once the acceptor has seen the shutdown.
        while std::net::TcpStream::connect(addr).is_ok() {
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        drop(a);
        match b.join().unwrap() {
            Err(ClientError::Remote(e)) => assert_eq!(e.code, ErrorCode::ShuttingDown),
            other => panic!("expected Remote(ShuttingDown), got {other:?}"),
        }
        dropper.join().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
