//! [`RemoteClient`] — the blocking client side of the wire protocol.
//!
//! One client owns one connection: connect, exchange HELLO once, then issue
//! any number of requests. Every request sends one `REQUEST` frame (the
//! tenant envelope around the request) and reads
//! until the matching `RESPONSE` (streaming `DATA` frames in between for
//! backup/restore). An `ERROR` frame from the daemon surfaces as
//! [`ClientError::Remote`] with the typed code intact, and a reply that does
//! not fit the protocol state machine is [`ClientError::Protocol`].

use std::fmt;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::net::ToSocketAddrs;
use std::path::{Path, PathBuf};
use std::time::Duration;

use hidestore_netfault::{NetStream, RealStream};
use hidestore_proto::{
    read_frame, write_frame, BackupSummary, Frame, FrameError, FrameKind, Hello, Limits,
    ListResponse, PruneSummary, Request, Response, RestoreSummary, SessionToken, StatsResponse,
    TenantId, TenantListResponse, TenantStatsResponse, VerifySummary, WireError,
};

use crate::retry::generate_token;

/// Payload bytes per DATA frame when streaming a backup to the daemon.
const DATA_CHUNK: usize = 256 * 1024;

/// The per-I/O socket deadline both sides use unless told otherwise: the
/// client's `--remote-timeout` and the daemon's `--timeout` override it.
pub const DEFAULT_NET_TIMEOUT: Duration = Duration::from_secs(30);

/// Errors a [`RemoteClient`] operation can produce.
#[derive(Debug)]
pub enum ClientError {
    /// The transport failed or a frame was torn/corrupt.
    Frame(FrameError),
    /// The daemon answered with a typed ERROR frame.
    Remote(WireError),
    /// The daemon's reply broke the protocol state machine.
    Protocol(String),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Frame(e) => write!(f, "transport error: {e}"),
            ClientError::Remote(e) => write!(f, "server error: {e}"),
            ClientError::Protocol(msg) => write!(f, "protocol error: {msg}"),
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClientError::Frame(e) => Some(e),
            _ => None,
        }
    }
}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        ClientError::Frame(e)
    }
}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Frame(FrameError::Io(e))
    }
}

/// A negotiated connection to a daemon started by `hidestore serve`.
///
/// Generic over the [`NetStream`] transport so the chaos suite can drive a
/// client through a fault-injecting stream; production callers use the
/// plain-TCP [`RealStream`] default.
pub struct RemoteClient<S: NetStream = RealStream> {
    stream: S,
    limits: Limits,
    /// Tenant every request is addressed to (`default` until
    /// [`RemoteClient::set_tenant`] names another).
    tenant: TenantId,
}

impl RemoteClient<RealStream> {
    /// Connects to `addr` and performs HELLO negotiation with default
    /// limits and the [`DEFAULT_NET_TIMEOUT`] I/O deadline.
    ///
    /// # Errors
    ///
    /// Connection failures, torn frames, or a version-negotiation refusal.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, ClientError> {
        Self::connect_with(addr, Limits::default(), DEFAULT_NET_TIMEOUT)
    }

    /// [`RemoteClient::connect`] with explicit limits and I/O deadline
    /// (`Duration::ZERO` disables the deadline).
    ///
    /// # Errors
    ///
    /// Connection failures, torn frames, or a version-negotiation refusal.
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        limits: Limits,
        timeout: Duration,
    ) -> Result<Self, ClientError> {
        Self::handshake(RealStream::connect(addr)?, limits, timeout)
    }
}

impl<S: NetStream> RemoteClient<S> {
    /// Performs HELLO negotiation over an already-established transport.
    /// This is the generic entry point: the chaos suite hands it a
    /// fault-injecting stream, [`RemoteClient::connect_with`] a real TCP
    /// connection.
    ///
    /// # Errors
    ///
    /// Transport failures, torn frames, or a version-negotiation refusal.
    pub fn handshake(
        mut stream: S,
        limits: Limits,
        timeout: Duration,
    ) -> Result<Self, ClientError> {
        let timeout = (!timeout.is_zero()).then_some(timeout);
        stream.set_read_timeout(timeout)?;
        stream.set_write_timeout(timeout)?;
        let _ = stream.set_nodelay(true);
        let mut client = RemoteClient {
            stream,
            limits,
            tenant: TenantId::default_tenant(),
        };
        write_frame(
            &mut client.stream,
            FrameKind::Hello,
            &Hello::current().encode(),
        )?;
        let frame = client.read()?;
        match frame.kind {
            FrameKind::Hello => {
                let server = Hello::decode(&frame.payload)
                    .map_err(|e| ClientError::Protocol(format!("bad HELLO reply: {e}")))?;
                if Hello::current().negotiate(&server).is_none() {
                    return Err(ClientError::Protocol(format!(
                        "server offered unsupported version range {}..={}",
                        server.min_version, server.max_version
                    )));
                }
                Ok(client)
            }
            FrameKind::Error => Err(ClientError::Remote(decode_error_frame(&frame)?)),
            other => Err(ClientError::Protocol(format!(
                "expected HELLO reply, got {other}"
            ))),
        }
    }

    /// Addresses every subsequent request to `tenant`.
    pub fn set_tenant(&mut self, tenant: TenantId) {
        self.tenant = tenant;
    }

    /// Builder form of [`RemoteClient::set_tenant`].
    ///
    /// # Errors
    ///
    /// Never fails; the `Result` is the signature existing callers chain
    /// `?` on.
    pub fn with_tenant(mut self, tenant: TenantId) -> Result<Self, ClientError> {
        self.set_tenant(tenant);
        Ok(self)
    }

    /// The tenant requests are currently addressed to.
    pub fn tenant(&self) -> &TenantId {
        &self.tenant
    }

    fn read(&mut self) -> Result<Frame, ClientError> {
        Ok(read_frame(&mut self.stream, &self.limits)?)
    }

    fn send_request(&mut self, request: &Request) -> Result<(), ClientError> {
        let payload = request.encode_with_tenant(&self.tenant);
        write_frame(&mut self.stream, FrameKind::Request, &payload)?;
        Ok(())
    }

    /// Reads the next frame, expecting a RESPONSE (ERROR becomes
    /// [`ClientError::Remote`], anything else [`ClientError::Protocol`]).
    fn read_response(&mut self) -> Result<Response, ClientError> {
        let frame = self.read()?;
        match frame.kind {
            FrameKind::Response => Response::decode(&frame.payload)
                .map_err(|e| ClientError::Protocol(format!("bad response: {e}"))),
            FrameKind::Error => Err(ClientError::Remote(decode_error_frame(&frame)?)),
            other => Err(ClientError::Protocol(format!(
                "expected RESPONSE, got {other}"
            ))),
        }
    }

    /// Health check: sends `Ping`, expects `Pong`.
    ///
    /// # Errors
    ///
    /// Transport, remote, or protocol errors.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        self.send_request(&Request::Ping)?;
        match self.read_response()? {
            Response::Pong => Ok(()),
            other => Err(unexpected("Pong", &other)),
        }
    }

    /// Streams `data` to the daemon as a new backup version: a
    /// single-leg [`RemoteClient::backup_resume`] under a fresh token.
    ///
    /// # Errors
    ///
    /// Transport, remote (e.g. oversize stream), or protocol errors.
    pub fn backup_bytes(&mut self, data: &[u8]) -> Result<BackupSummary, ClientError> {
        Ok(self.backup_resume(generate_token(0), data)?.summary)
    }

    /// One leg of a resumable backup: offers `token` to the daemon, and —
    /// unless the token already committed — streams `data` from the
    /// daemon's acknowledged offset onward. Retrying callers pass the same
    /// token and the full `data` every time; only the unacknowledged tail
    /// crosses the wire, and the daemon never commits the token twice.
    ///
    /// # Errors
    ///
    /// Transport, remote, or protocol errors.
    pub fn backup_resume(
        &mut self,
        token: SessionToken,
        data: &[u8],
    ) -> Result<BackupAttempt, ClientError> {
        let total_len = data.len() as u64;
        self.send_request(&Request::BackupResume { token, total_len })?;
        let offset = match self.read_response()? {
            // The daemon recognized the token as already committed and
            // answered from its cache: nothing to send.
            Response::BackupDone(summary) => {
                return Ok(BackupAttempt {
                    resumed_at: total_len,
                    sent: 0,
                    deduped: true,
                    summary,
                })
            }
            Response::BackupAccepted { offset } => offset,
            other => return Err(unexpected("BackupAccepted", &other)),
        };
        if offset > total_len {
            return Err(ClientError::Protocol(format!(
                "daemon acknowledged {offset} bytes of a {total_len}-byte backup"
            )));
        }
        let tail = &data[offset as usize..];
        for chunk in tail.chunks(DATA_CHUNK.max(1)) {
            write_frame(&mut self.stream, FrameKind::Data, chunk)?;
        }
        write_frame(&mut self.stream, FrameKind::End, &[])?;
        match self.read_response()? {
            Response::BackupDone(summary) => Ok(BackupAttempt {
                resumed_at: offset,
                sent: tail.len() as u64,
                deduped: false,
                summary,
            }),
            other => Err(unexpected("BackupDone", &other)),
        }
    }

    /// Restores `version` into `out`, returning the daemon's restore
    /// summary: a single-leg [`RemoteClient::restore_resume`] from offset
    /// 0. An ERROR frame mid-stream aborts with the bytes written so far
    /// already in `out` (callers writing to a file should use
    /// [`RemoteClient::restore_to_path`], which cleans up for them).
    ///
    /// # Errors
    ///
    /// Transport, remote (unknown version, aborted stream), or protocol
    /// errors — and `out`'s own write errors.
    pub fn restore_to(
        &mut self,
        version: u32,
        out: &mut dyn Write,
    ) -> Result<RestoreSummary, ClientError> {
        Ok(self.restore_resume(version, 0, out)?.summary)
    }

    /// One leg of a resumable restore: asks the daemon for `version`
    /// starting at byte `offset`, appending only the tail to `out`. The
    /// first leg uses `offset == 0`; after an interruption the caller
    /// passes the byte count it already holds and the daemon skips that
    /// prefix, so interrupted restores re-transfer only what was lost.
    ///
    /// # Errors
    ///
    /// Transport, remote, or protocol errors (including an offset past the
    /// version's end) — and `out`'s own write errors.
    pub fn restore_resume(
        &mut self,
        version: u32,
        offset: u64,
        out: &mut dyn Write,
    ) -> Result<RestoreAttempt, ClientError> {
        self.send_request(&Request::RestoreResume { version, offset })?;
        let total_bytes = match self.read_response()? {
            Response::RestoreStarted { total_bytes } => total_bytes,
            other => return Err(unexpected("RestoreStarted", &other)),
        };
        if offset > total_bytes {
            return Err(ClientError::Protocol(format!(
                "daemon announced {total_bytes} bytes but accepted resume offset {offset}"
            )));
        }
        let mut received: u64 = 0;
        loop {
            let frame = self.read()?;
            match frame.kind {
                FrameKind::Data => {
                    received += frame.payload.len() as u64;
                    if received > self.limits.max_stream {
                        return Err(ClientError::Protocol(format!(
                            "restore stream exceeds the {}-byte limit",
                            self.limits.max_stream
                        )));
                    }
                    out.write_all(&frame.payload)?;
                }
                FrameKind::End => break,
                FrameKind::Error => return Err(ClientError::Remote(decode_error_frame(&frame)?)),
                other => {
                    return Err(ClientError::Protocol(format!(
                        "expected DATA/END, got {other}"
                    )))
                }
            }
        }
        match self.read_response()? {
            Response::RestoreDone(summary) => {
                if offset + received != total_bytes || summary.bytes_restored != total_bytes {
                    return Err(ClientError::Protocol(format!(
                        "resumed restore length mismatch: announced {total_bytes}, offset \
                         {offset} + received {received}, daemon reports {}",
                        summary.bytes_restored
                    )));
                }
                Ok(RestoreAttempt {
                    resumed_at: offset,
                    received,
                    total_bytes,
                    summary,
                })
            }
            other => Err(unexpected("RestoreDone", &other)),
        }
    }

    /// Restores `version` into the file at `path`, writing through
    /// `<path>.tmp` (`.tmp` appended to the full file name) and renaming
    /// only on success, so an aborted stream never leaves a truncated file
    /// behind.
    ///
    /// # Errors
    ///
    /// As [`RemoteClient::restore_to`], plus filesystem errors; the `.tmp`
    /// file is removed on every error path.
    pub fn restore_to_path(
        &mut self,
        version: u32,
        path: impl AsRef<Path>,
    ) -> Result<RestoreSummary, ClientError> {
        let path = path.as_ref();
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = PathBuf::from(tmp);
        let result = (|| {
            let file = File::create(&tmp)?;
            let mut writer = BufWriter::new(file);
            let summary = self.restore_to(version, &mut writer)?;
            writer.flush()?;
            writer
                .into_inner()
                .map_err(|e| io::Error::other(e.to_string()))?
                .sync_all()?;
            Ok(summary)
        })();
        match result {
            Ok(summary) => {
                std::fs::rename(&tmp, path)?;
                Ok(summary)
            }
            Err(e) => {
                let _ = std::fs::remove_file(&tmp);
                Err(e)
            }
        }
    }

    /// Fetches the version listing.
    ///
    /// # Errors
    ///
    /// Transport, remote, or protocol errors.
    pub fn list(&mut self) -> Result<ListResponse, ClientError> {
        self.send_request(&Request::List)?;
        match self.read_response()? {
            Response::ListOk(list) => Ok(list),
            other => Err(unexpected("ListOk", &other)),
        }
    }

    /// Fetches per-version locality statistics.
    ///
    /// # Errors
    ///
    /// Transport, remote, or protocol errors.
    pub fn stats(&mut self) -> Result<StatsResponse, ClientError> {
        self.send_request(&Request::Stats)?;
        match self.read_response()? {
            Response::StatsOk(stats) => Ok(stats),
            other => Err(unexpected("StatsOk", &other)),
        }
    }

    /// Expires all but the newest `keep_last` versions.
    ///
    /// # Errors
    ///
    /// Transport, remote (`keep_last == 0` is a conflict), or protocol
    /// errors.
    pub fn prune(&mut self, keep_last: u32) -> Result<PruneSummary, ClientError> {
        self.send_request(&Request::Prune { keep_last })?;
        match self.read_response()? {
            Response::PruneOk(summary) => Ok(summary),
            other => Err(unexpected("PruneOk", &other)),
        }
    }

    /// Fetches the daemon's tenant listing (admin verb).
    ///
    /// # Errors
    ///
    /// Transport, remote, or protocol errors.
    pub fn tenant_list(&mut self) -> Result<TenantListResponse, ClientError> {
        self.send_request(&Request::TenantList)?;
        match self.read_response()? {
            Response::TenantListOk(list) => Ok(list),
            other => Err(unexpected("TenantListOk", &other)),
        }
    }

    /// Fetches the daemon's per-tenant request counters (admin verb).
    ///
    /// # Errors
    ///
    /// Transport, remote, or protocol errors.
    pub fn tenant_stats(&mut self) -> Result<TenantStatsResponse, ClientError> {
        self.send_request(&Request::TenantStats)?;
        match self.read_response()? {
            Response::TenantStatsOk(stats) => Ok(stats),
            other => Err(unexpected("TenantStatsOk", &other)),
        }
    }

    /// Runs an integrity scrub on the daemon's repository.
    ///
    /// # Errors
    ///
    /// Transport, remote, or protocol errors.
    pub fn verify(&mut self) -> Result<VerifySummary, ClientError> {
        self.send_request(&Request::Verify)?;
        match self.read_response()? {
            Response::VerifyOk(summary) => Ok(summary),
            other => Err(unexpected("VerifyOk", &other)),
        }
    }

    /// Asks the daemon to drain and exit. The connection is spent after
    /// this call.
    ///
    /// # Errors
    ///
    /// Transport, remote, or protocol errors.
    pub fn shutdown(mut self) -> Result<(), ClientError> {
        self.send_request(&Request::Shutdown)?;
        match self.read_response()? {
            Response::ShutdownOk => Ok(()),
            other => Err(unexpected("ShutdownOk", &other)),
        }
    }
}

/// Transfer accounting of one [`RemoteClient::backup_resume`] leg.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackupAttempt {
    /// Offset the daemon acknowledged — bytes before it were NOT re-sent.
    pub resumed_at: u64,
    /// Bytes this leg actually streamed.
    pub sent: u64,
    /// True when the daemon answered from its idempotency cache (the
    /// token had already committed) without accepting any bytes.
    pub deduped: bool,
    /// The commit's summary (cached original on a dedup answer).
    pub summary: BackupSummary,
}

/// Transfer accounting of one [`RemoteClient::restore_resume`] leg.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RestoreAttempt {
    /// Offset this leg started at — bytes before it were NOT re-sent.
    pub resumed_at: u64,
    /// Bytes this leg actually received.
    pub received: u64,
    /// Total logical bytes of the version.
    pub total_bytes: u64,
    /// The daemon's restore summary (covers the full version).
    pub summary: RestoreSummary,
}

fn decode_error_frame(frame: &Frame) -> Result<WireError, ClientError> {
    WireError::decode(&frame.payload)
        .map_err(|e| ClientError::Protocol(format!("bad error frame: {e}")))
}

fn unexpected(wanted: &str, got: &Response) -> ClientError {
    ClientError::Protocol(format!("expected {wanted}, got {got:?}"))
}
