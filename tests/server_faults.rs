//! Fault matrix for `hds-served`: disconnects and torn frames at every
//! frame boundary, during both backup and restore.
//!
//! For each cut point the daemon must (a) stay alive and keep answering
//! well-formed clients, (b) commit nothing from the aborted request, (c)
//! leave the repository `hds-fsck`-clean with no leaked `.tmp` files, and
//! (d) still shut down gracefully with every thread joined — watched by a
//! timeout so a stuck worker fails the test instead of hanging it.

use std::fs;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::time::Duration;

use hidestore::core::{HiDeStore, HiDeStoreConfig};
use hidestore::fsck::SystemAuditor;
use hidestore::proto::{
    encode_frame, read_frame, ErrorCode, Frame, FrameKind, Hello, Limits, Request, SessionToken,
    TenantId, WireError,
};
use hidestore::server::{serve, ClientError, RemoteClient, ServerConfig, ServerHandle};
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

/// The full client-side byte stream of one backup session under `token`,
/// plus the frame boundaries (cumulative offsets after each complete
/// frame). The raw client never reads `BackupAccepted`: a fresh token is
/// always accepted at offset 0, and TCP buffers the DATA frames behind it.
fn backup_session(payload: &[u8], token: SessionToken) -> (Vec<u8>, Vec<usize>) {
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
        request_frame(&Request::BackupResume {
            token,
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
fn shutdown_with_watchdog(handle: ServerHandle) -> hidestore::server::StatsSnapshot {
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
    let (_, boundaries) = backup_session(&payload, [0; 16]);
    let session_len = boundaries[boundaries.len() - 1];

    // Cut at every frame boundary, and torn mid-frame just after each
    // boundary (inside the next frame's header and inside its payload).
    // Every cut session carries its own token, as independent clients
    // would: none may resume into another's parked prefix.
    let mut cuts: Vec<usize> = Vec::new();
    for &b in &boundaries {
        for extra in [0usize, 1, 5, 40] {
            let cut = b + extra;
            if cut < session_len {
                cuts.push(cut);
            }
        }
    }
    let mut token: SessionToken = [0; 16];
    for &cut in &cuts {
        token[..8].copy_from_slice(&(cut as u64).to_le_bytes());
        let (bytes, _) = backup_session(&payload, token);
        send_and_cut(addr, &bytes[..cut]);
        assert_alive(addr);
    }

    // A corrupted (bit-flipped) frame mid-session must also abort cleanly.
    let (mut corrupted, _) = backup_session(&payload, [0xFF; 16]);
    corrupted[boundaries[2] + 9] ^= 0x40; // inside the first DATA frame
    send_and_cut(addr, &corrupted);
    assert_alive(addr);

    // Abandoned prefixes wait in the parked-session table (a retry with the
    // same token would resume them), bounded by `max_sessions`.
    let parked = handle.open_sessions();
    assert!(
        (1..=ServerConfig::default().max_sessions).contains(&parked),
        "{parked} parked sessions"
    );

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
    session.extend_from_slice(&request_frame(&Request::RestoreResume {
        version: 1,
        offset: 0,
    }));
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
    let err = conn.restore_to_path(99, &client_out).unwrap_err();
    assert!(matches!(err, ClientError::Remote(_)), "{err}");
    assert!(!client_out.exists());
    conn.restore_to_path(1, &client_out).unwrap();
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
/// (un-enveloped) requests, and the tokenless transfer tags 2 and 3 — are
/// each refused with a typed ERROR frame, counted as failed requests,
/// create nothing on disk, and leave the daemon serving.
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
    let mut tag2 = Request::Ping.encode_with_tenant(&default);
    *tag2.last_mut().unwrap() = 2;
    let mut tag3 = Request::Ping.encode_with_tenant(&default);
    tag3.pop();
    tag3.extend_from_slice(&[3, 1, 0, 0, 0]);
    for payload in [Request::List.encode(), vec![2], tag2, tag3] {
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
