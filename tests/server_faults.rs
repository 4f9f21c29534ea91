//! Fault matrix for the daemon (`hidestore serve`): disconnects and torn frames at every
//! frame boundary, during both backup and restore, and disk faults at every
//! filesystem operation of a served backup; plus the two edges of a whole
//! transfer: a stream longer than it declared, and a backup whose
//! acknowledgement is lost after it committed.
//!
//! For each cut point the daemon must (a) stay alive and keep answering
//! well-formed clients, (b) commit nothing from the aborted request, (c)
//! leave the repository audit-clean with no leaked `.tmp` files, and
//! (d) still shut down gracefully with every thread joined — watched by a
//! timeout so a stuck worker fails the test instead of hanging it.

use std::fs;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use hidestore::core::{write_staged, HiDeStore, HiDeStoreConfig};
use hidestore::failpoint::{FaultKind, FaultVfs, OpKind, Plan, Vfs};
use hidestore::fsck::{Severity, SystemAuditor};
use hidestore::proto::{
    encode_frame, read_frame, ErrorCode, Frame, FrameKind, Hello, Limits, Request, TenantId,
    WireError,
};
use hidestore::restore::Faa;
use hidestore::server::{serve, serve_with, ClientError, RemoteClient, ServerConfig, ServerHandle};
use hidestore::storage::VersionId;
use hidestore::tenant::TENANTS_SUBDIR;

fn temp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hidestore-faults-{tag}-{}", std::process::id()));
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

/// A REQUEST frame addressed to the `default` tenant.
fn request_frame(request: &Request) -> Vec<u8> {
    encode_frame(
        FrameKind::Request,
        &request.encode_with_tenant(&TenantId::default_tenant()),
    )
}

/// The full client-side byte stream of one backup, plus the frame
/// boundaries (cumulative offsets after each complete frame). The raw
/// client never reads `BackupAccepted`: TCP buffers the DATA frames behind
/// the request until the daemon reads them.
fn backup_session(payload: &[u8]) -> (Vec<u8>, Vec<usize>) {
    let mut bytes = Vec::new();
    let mut boundaries = vec![0];
    let mut push = |frame: Vec<u8>, bytes: &mut Vec<u8>| {
        bytes.extend_from_slice(&frame);
        boundaries.push(bytes.len());
    };
    push(
        encode_frame(FrameKind::Hello, &Hello::current().encode()),
        &mut bytes,
    );
    push(
        request_frame(&Request::Backup {
            total_len: payload.len() as u64,
        }),
        &mut bytes,
    );
    for chunk in payload.chunks(48 * 1024) {
        push(encode_frame(FrameKind::Data, chunk), &mut bytes);
    }
    push(encode_frame(FrameKind::End, &[]), &mut bytes);
    (bytes, boundaries)
}

/// Sends exactly `prefix` to the daemon, drains whatever it answers, then
/// cuts the connection.
fn send_and_cut(addr: std::net::SocketAddr, prefix: &[u8]) {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    if stream.write_all(prefix).is_err() {
        return; // daemon already rejected the torn stream — that's fine
    }
    let _ = stream.shutdown(std::net::Shutdown::Write);
    // Drain so an in-flight reply never blocks the worker on a full socket.
    let mut sink = [0u8; 4096];
    while matches!(stream.read(&mut sink), Ok(n) if n > 0) {}
}

/// The daemon still serves well-formed clients after a fault.
fn assert_alive(addr: std::net::SocketAddr) {
    let mut conn = RemoteClient::connect(addr).expect("daemon must survive the fault");
    conn.ping().expect("daemon must still answer");
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
fn shutdown_with_watchdog<V: Vfs + Sync + 'static>(
    handle: ServerHandle<V>,
) -> hidestore::server::StatsSnapshot {
    handle.request_shutdown();
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(handle.join());
    });
    rx.recv_timeout(Duration::from_secs(30))
        .expect("server threads must join after graceful shutdown")
}

fn start(dir: &Path) -> ServerHandle {
    HiDeStoreConfig::small_for_tests().save_to(dir).unwrap();
    serve(
        dir,
        ServerConfig {
            quiet: true,
            ..ServerConfig::default()
        },
    )
    .unwrap()
}

#[test]
fn backup_fault_matrix() {
    let dir = temp("backup");
    let handle = start(&dir);
    let addr = handle.addr();

    // Seed one good version so the repository is non-trivial.
    let seed_payload = noise(150_000, 1);
    let mut conn = RemoteClient::connect(addr).unwrap();
    conn.backup_bytes(&seed_payload).unwrap();
    drop(conn);

    let payload = noise(130_000, 2);
    let (bytes, boundaries) = backup_session(&payload);
    let session_len = boundaries[boundaries.len() - 1];

    // Cut at every frame boundary, and torn mid-frame just after each
    // boundary (inside the next frame's header and inside its payload).
    let mut cuts: Vec<usize> = Vec::new();
    for &b in &boundaries {
        for extra in [0usize, 1, 5, 40] {
            let cut = b + extra;
            if cut < session_len {
                cuts.push(cut);
            }
        }
    }
    for &cut in &cuts {
        send_and_cut(addr, &bytes[..cut]);
        assert_alive(addr);
    }

    // A corrupted (bit-flipped) frame mid-session must also abort cleanly.
    let mut corrupted = bytes.clone();
    corrupted[boundaries[2] + 9] ^= 0x40; // inside the first DATA frame
    send_and_cut(addr, &corrupted);
    assert_alive(addr);

    // None of the aborted sessions may have committed a version.
    let mut conn = RemoteClient::connect(addr).unwrap();
    let list = conn.list().unwrap();
    assert_eq!(
        list.versions.len(),
        1,
        "torn backups must not commit: {list:?}"
    );
    // And the daemon still accepts a full backup afterwards.
    let summary = conn.backup_bytes(&payload).unwrap();
    assert_eq!(summary.version, 2);
    let mut out = Vec::new();
    conn.restore_to(2, &mut out).unwrap();
    assert_eq!(out, payload);
    drop(conn);

    let stats = shutdown_with_watchdog(handle);
    assert!(stats.requests_failed > 0, "faults were counted: {stats}");
    assert_eq!(stats.rolled_back, 0, "no fault reached the repository");
    assert_no_tmp_files(&dir);
    assert_fsck_clean(&dir);
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn restore_fault_matrix() {
    let dir = temp("restore");
    let handle = start(&dir);
    let addr = handle.addr();

    let payload = noise(400_000, 3);
    let mut conn = RemoteClient::connect(addr).unwrap();
    conn.backup_bytes(&payload).unwrap();
    drop(conn);

    // The client side of a restore session, cut after each of its frames
    // (nothing, HELLO only, HELLO+REQUEST) — and for the full session,
    // cut while the daemon is mid-stream by reading only k bytes.
    let mut session = Vec::new();
    session.extend_from_slice(&encode_frame(FrameKind::Hello, &Hello::current().encode()));
    let hello_end = session.len();
    session.extend_from_slice(&request_frame(&Request::Restore { version: 1 }));
    for cut in [0, 3, hello_end, hello_end + 4, session.len()] {
        send_and_cut(addr, &session[..cut]);
        assert_alive(addr);
    }

    // Mid-stream client death: read 1 byte, 1 KiB, ~half the stream, then
    // vanish. The daemon's write fails or is discarded; either way it must
    // keep serving and mutate nothing.
    for read_bytes in [1usize, 1024, 200_000] {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream.write_all(&session).unwrap();
        let mut got = 0usize;
        let mut buf = [0u8; 4096];
        while got < read_bytes {
            match stream.read(&mut buf) {
                Ok(0) | Err(_) => break,
                Ok(n) => got += n,
            }
        }
        drop(stream);
        assert_alive(addr);
    }

    // The full stream still round-trips, and a client-side error path
    // leaves no .tmp behind on the client's side either.
    let mut conn = RemoteClient::connect(addr).unwrap();
    let mut out = Vec::new();
    conn.restore_to(1, &mut out).unwrap();
    assert_eq!(out, payload);
    let client_out = dir.join("client-out.bin");
    let err = write_staged(&client_out, |out| conn.restore_to(99, out)).unwrap_err();
    assert!(matches!(err, ClientError::Remote(_)), "{err}");
    assert!(!client_out.exists());
    write_staged(&client_out, |out| conn.restore_to(1, out)).unwrap();
    assert_eq!(fs::read(&client_out).unwrap(), payload);
    fs::remove_file(&client_out).unwrap();
    drop(conn);

    let stats = shutdown_with_watchdog(handle);
    assert_eq!(stats.rolled_back, 0, "restores never mutate: {stats}");
    assert_no_tmp_files(&dir);
    assert_fsck_clean(&dir);
    fs::remove_dir_all(&dir).unwrap();
}

/// Sends a HELLO offering `hello` and then `request_payload` as one REQUEST
/// frame, returning every frame the daemon answers before it hangs up.
fn raw_exchange(addr: std::net::SocketAddr, hello: Hello, request_payload: &[u8]) -> Vec<Frame> {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
        .write_all(&encode_frame(FrameKind::Hello, &hello.encode()))
        .unwrap();
    stream
        .write_all(&encode_frame(FrameKind::Request, request_payload))
        .unwrap();
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let mut frames = Vec::new();
    while let Ok(frame) = read_frame(&mut stream, &Limits::default()) {
        frames.push(frame);
    }
    frames
}

fn error_code(frame: &Frame) -> ErrorCode {
    assert_eq!(frame.kind, FrameKind::Error, "{frame:?}");
    WireError::decode(&frame.payload).unwrap().code
}

/// The dialects this build retired — an old build's HELLO range, bare
/// (un-enveloped) requests, the tokenless transfer tags 2 and 3, and the
/// resumable transfer tags 9 and 10 — are each refused with a typed ERROR
/// frame, counted as failed requests, create nothing on disk, and leave
/// the daemon serving.
#[test]
fn retired_dialects_are_refused_typed() {
    let root = temp("retired");
    HiDeStoreConfig::small_for_tests().save_to(&root).unwrap();
    let handle = serve(
        &root,
        ServerConfig {
            quiet: true,
            tenants_root: true,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = handle.addr();
    let failed = || handle.stats().requests_failed;

    // An old build offers 1..=3: refused at HELLO, before any request.
    let old_build = Hello {
        min_version: 1,
        max_version: 3,
    };
    let before = failed();
    let frames = raw_exchange(addr, old_build, &Request::Ping.encode());
    assert_eq!(frames.len(), 1, "{frames:?}");
    assert_eq!(error_code(&frames[0]), ErrorCode::Unsupported);
    assert_eq!(failed(), before + 1);
    assert_alive(addr);

    // A well-versioned peer that skips the envelope, or sends a retired
    // transfer tag inside one, gets HELLO back and then `malformed`.
    let default = TenantId::default_tenant();
    let retired = |bare: &[u8]| {
        let mut enveloped = Request::Ping.encode_with_tenant(&default);
        enveloped.pop();
        enveloped.extend_from_slice(bare);
        enveloped
    };
    // The resumable verbs: backup {token, total_len}, restore {version, offset}.
    let mut tag9 = vec![9u8];
    tag9.extend_from_slice(&[7; 16]);
    tag9.extend_from_slice(&1000u64.to_le_bytes());
    let mut tag10 = vec![10u8, 1, 0, 0, 0];
    tag10.extend_from_slice(&0u64.to_le_bytes());
    for payload in [
        Request::List.encode(),
        vec![2],
        retired(&[2]),
        retired(&[3, 1, 0, 0, 0]),
        retired(&tag9),
        retired(&tag10),
    ] {
        let before = failed();
        let frames = raw_exchange(addr, Hello::current(), &payload);
        assert_eq!(frames.len(), 2, "{payload:?}: {frames:?}");
        assert_eq!(frames[0].kind, FrameKind::Hello, "{payload:?}");
        assert_eq!(error_code(&frames[1]), ErrorCode::Malformed, "{payload:?}");
        assert_eq!(failed(), before + 1, "{payload:?}");
        assert_alive(addr);
    }

    // None of it reached the registry: no tenant — not even `default` —
    // was created.
    let created = fs::read_dir(root.join(TENANTS_SUBDIR))
        .map(|entries| entries.count())
        .unwrap_or(0);
    assert_eq!(created, 0, "refused dialects must not create tenants");

    shutdown_with_watchdog(handle);
    assert_no_tmp_files(&root);
    fs::remove_dir_all(&root).unwrap();
}

/// A backup stream may not run past the length its request declared: the
/// daemon refuses it with a typed `malformed` as soon as the DATA frames
/// pass it, without waiting for END (or for its socket deadline) and
/// without holding more than that one frame.
#[test]
fn a_stream_past_its_declared_length_is_refused_at_once() {
    let dir = temp("declared");
    let handle = start(&dir);
    let addr = handle.addr();

    let mut stream = TcpStream::connect(addr).unwrap();
    // Far inside the daemon's 30 s deadline: only the length check can
    // answer in time.
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let started = Instant::now();
    let mut bytes = encode_frame(FrameKind::Hello, &Hello::current().encode());
    bytes.extend_from_slice(&request_frame(&Request::Backup { total_len: 1_000 }));
    bytes.extend_from_slice(&encode_frame(FrameKind::Data, &noise(48 * 1024, 5)));
    stream.write_all(&bytes).unwrap();
    // No END, and the write side stays open: the daemon sees neither an
    // end of stream nor a torn frame.
    let mut frames = Vec::new();
    for _ in 0..3 {
        frames.push(read_frame(&mut stream, &Limits::default()).unwrap());
    }
    assert!(started.elapsed() < Duration::from_secs(5));
    assert_eq!(frames[0].kind, FrameKind::Hello);
    assert_eq!(frames[1].kind, FrameKind::Response);
    assert_eq!(error_code(&frames[2]), ErrorCode::Malformed);
    drop(stream);

    let mut conn = RemoteClient::connect(addr).unwrap();
    assert!(
        conn.list().unwrap().versions.is_empty(),
        "nothing committed"
    );
    drop(conn);
    let stats = shutdown_with_watchdog(handle);
    assert_eq!(stats.requests_failed, 1, "{stats}");
    assert_eq!(stats.timed_out, 0, "{stats}");
    assert_no_tmp_files(&dir);
    fs::remove_dir_all(&dir).unwrap();
}

/// A daemon over a fresh repository, its wire numbered by `plan`.
fn numbered_daemon(tag: &str, plan: Plan) -> (PathBuf, ServerHandle) {
    let dir = temp(tag);
    HiDeStoreConfig::small_for_tests().save_to(&dir).unwrap();
    let config = ServerConfig {
        quiet: true,
        fault: Some(plan),
        ..ServerConfig::default()
    };
    let handle = serve(&dir, config).unwrap();
    (dir, handle)
}

/// The acknowledgement of a committed backup is lost: the daemon commits,
/// then its write of `BackupDone` fails. The one-shot client gets a
/// transport error, yet the version is there — a fresh `list` shows V1,
/// which restores byte-exact — so a caller must list before backing up
/// again.
#[test]
fn a_lost_acknowledgement_leaves_the_backup_committed() {
    // One DATA frame well under a loopback segment, so the daemon's reads
    // (and with them the numbering) come out the same on every run.
    let payload = noise(20_000, 6);
    let counting = Plan::counting();
    let (dir, handle) = numbered_daemon("ack-count", counting.clone());
    let mut conn = RemoteClient::connect(handle.addr()).unwrap();
    conn.backup_bytes(&payload).unwrap();
    drop(conn);
    shutdown_with_watchdog(handle);
    fs::remove_dir_all(&dir).unwrap();
    // The daemon writes HELLO, BackupAccepted and BackupDone; the last
    // write is the acknowledgement.
    let writes: Vec<_> = counting
        .trace()
        .into_iter()
        .filter(|r| r.kind == OpKind::WireWrite)
        .collect();
    assert_eq!(writes.len(), 3, "{writes:?}");
    let ack = &writes[2];

    let plan = Plan::armed(ack.index, FaultKind::Error);
    let (dir, handle) = numbered_daemon("ack-lost", plan.clone());
    let addr = handle.addr();
    let mut conn = RemoteClient::connect(addr).unwrap();
    match conn.backup_bytes(&payload) {
        Err(ClientError::Frame(_)) => {}
        other => panic!("a lost acknowledgement is a transport error, got {other:?}"),
    }
    drop(conn);
    assert!(plan.fired(), "the armed site must be reached");
    let fired = &plan.trace()[ack.index as usize];
    assert_eq!((fired.kind, fired.len), (ack.kind, ack.len), "{fired:?}");

    let mut conn = RemoteClient::connect(addr).unwrap();
    let list = conn.list().unwrap();
    assert_eq!(list.versions.len(), 1, "the backup committed: {list:?}");
    assert_eq!(list.versions[0].version, 1);
    let mut out = Vec::new();
    conn.restore_to(1, &mut out).unwrap();
    assert!(out == payload, "V1 restores byte-exact");
    drop(conn);
    shutdown_with_watchdog(handle);
    assert_no_tmp_files(&dir);
    assert_fsck_clean(&dir);
    fs::remove_dir_all(&dir).unwrap();
}

/// What one served backup against a disk-faulted tenant left behind.
struct DiskFaultRun {
    /// Victim Vfs ops numbered once its repository was open.
    open_ops: u64,
    /// Whether the client was told the backup committed.
    committed: bool,
}

/// One daemon over a fresh tenant root: the `victim` tenant's repository
/// runs on `victim`'s plan, the `bystander`'s on a separate counting plan.
/// The victim lists (which opens its repository) and then backs up once;
/// the bystander then backs up and restores byte-exact. After shutdown both
/// repositories reopen on the real filesystem and are audited.
fn served_backup_on_faulted_disk(tag: &str, victim: Plan) -> DiskFaultRun {
    let root = temp(tag);
    HiDeStoreConfig::small_for_tests().save_to(&root).unwrap();
    let victim_dir = root.join(TENANTS_SUBDIR).join("victim");
    fs::create_dir_all(&victim_dir).unwrap();
    HiDeStoreConfig::small_for_tests()
        .save_to(&victim_dir)
        .unwrap();
    let bystander = Plan::counting();
    let handle = {
        let (victim, bystander) = (victim.clone(), bystander.clone());
        serve_with(
            &root,
            ServerConfig {
                quiet: true,
                tenants_root: true,
                io_timeout: Duration::from_secs(5),
                ..ServerConfig::default()
            },
            FaultVfs::new(Plan::counting()),
            move |t| match t.as_str() {
                "victim" => FaultVfs::new(victim.clone()),
                _ => FaultVfs::new(bystander.clone()),
            },
        )
        .unwrap()
    };
    let addr = handle.addr();
    let connect = |tenant: &str| {
        RemoteClient::connect_with(addr, Limits::default(), Duration::from_secs(10))
            .unwrap()
            .with_tenant(TenantId::new(tenant).unwrap())
            .unwrap()
    };

    let payload = noise(40_000, 31);
    let mut client = connect("victim");
    assert!(client.list().unwrap().versions.is_empty());
    let open_ops = victim.ops();
    let committed = match client.backup_bytes(&payload) {
        Ok(summary) => {
            assert_eq!(summary.version, 1, "{tag}");
            true
        }
        Err(ClientError::Remote(e)) => {
            assert_eq!(e.code, ErrorCode::Internal, "{tag}: {e}");
            false
        }
        Err(e) => panic!("{tag}: a disk fault must reach the client typed: {e}"),
    };
    if !committed {
        // The rollback reopen runs on the dead disk too, so the victim's
        // handle stays poisoned until the daemon restarts.
        match client.list() {
            Err(ClientError::Remote(e)) => assert_eq!(e.code, ErrorCode::Internal, "{tag}"),
            other => panic!(
                "{tag}: the victim must stay poisoned: {:?}",
                other.map(|_| ())
            ),
        }
    }
    drop(client);

    // The bystander's disk is untouched by the victim's fault.
    let other = noise(30_000, 32);
    let mut client = connect("bystander");
    assert_eq!(client.backup_bytes(&other).unwrap().version, 1, "{tag}");
    let mut out = Vec::new();
    client.restore_to(1, &mut out).unwrap();
    assert_eq!(out, other, "{tag}: the bystander restores byte-exact");
    drop(client);
    shutdown_with_watchdog(handle);
    assert!(!bystander.fired());

    let config = HiDeStoreConfig::load_from(&victim_dir).unwrap();
    let hds = HiDeStore::open_repository(config, &victim_dir)
        .unwrap_or_else(|e| panic!("{tag}: the victim must reopen: {e}"));
    assert_no_tmp_files(&root);
    assert!(
        !victim_dir.join("staging").exists(),
        "{tag}: staging residue"
    );
    let audit = SystemAuditor::new().audit(&hds);
    assert_eq!(audit.count(Severity::Error), 0, "{tag}: {audit}");
    let versions = hds.versions();
    assert!(versions.len() <= 1, "{tag}: {versions:?}");
    if committed {
        assert_eq!(versions, [VersionId::new(1)], "{tag}");
    }
    for v in versions {
        let mut out = Vec::new();
        hds.restore(v, &mut Faa::new(1 << 20), &mut out).unwrap();
        assert_eq!(out, payload, "{tag}: {v} restores byte-exact");
    }
    drop(hds);
    assert_fsck_clean(&root.join(TENANTS_SUBDIR).join("bystander"));
    fs::remove_dir_all(&root).unwrap();
    DiskFaultRun {
        open_ops,
        committed,
    }
}

/// Faults the daemon's disk while it serves: an error at every filesystem
/// operation of the victim tenant's backup (a fixed stride past 64 sites),
/// plus torn writes. The client gets a typed `internal` error or a success,
/// the bystander tenant keeps working, and the victim's repository reopens
/// clean. The victim's handle stays poisoned until the daemon restarts.
#[test]
fn daemon_disk_faults_stay_typed_and_tenant_local() {
    let counting = Plan::counting();
    let run = served_backup_on_faulted_disk("disk-count", counting.clone());
    assert!(run.committed, "the counting run commits");
    let trace = counting.trace();
    let sites: Vec<u64> = (run.open_ops..counting.ops()).collect();
    assert!(sites.len() > 10, "too few backup sites: {}", sites.len());
    let stride = sites.len().div_ceil(64);
    for &site in sites.iter().step_by(stride) {
        let plan = Plan::armed(site, FaultKind::Error);
        served_backup_on_faulted_disk(&format!("disk-err-{site}"), plan.clone());
        assert!(plan.fired(), "site {site} must be reached");
    }
    let writes: Vec<&_> = trace[run.open_ops as usize..]
        .iter()
        .filter(|r| r.kind == OpKind::Write && r.len > 1)
        .collect();
    assert!(!writes.is_empty());
    for r in writes.iter().step_by(writes.len().div_ceil(4)) {
        let plan = Plan::armed(r.index, FaultKind::Torn(r.len / 2));
        served_backup_on_faulted_disk(&format!("disk-torn-{}", r.index), plan.clone());
        assert!(plan.fired(), "write site {} must be reached", r.index);
    }
}
