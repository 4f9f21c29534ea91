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
use std::io::{self, Write};
use std::net::ToSocketAddrs;
use std::time::Duration;

use hidestore_failpoint::Socket;
use hidestore_proto::{
    read_frame, read_frame_into, write_frame, BackupSummary, DataWriter, Frame, FrameError,
    FrameKind, Hello, Limits, ListResponse, PruneSummary, Request, Response, RestoreSummary,
    StatsResponse, TenantId, TenantListResponse, TenantStatsResponse, VerifySummary, WireError,
};

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
pub struct RemoteClient {
    stream: Socket,
    limits: Limits,
    /// Tenant every request is addressed to (`default` until
    /// [`RemoteClient::set_tenant`] names another).
    tenant: TenantId,
}

impl RemoteClient {
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
        Self::handshake(Socket::connect(addr, None)?, limits, timeout)
    }

    /// Performs HELLO negotiation over an already-connected socket with
    /// the given limits and I/O deadline ([`Duration::ZERO`] disables it):
    /// the constructor [`RemoteClient::connect_with`] calls with a plain
    /// socket, and the seam through which a test hands in a
    /// [`Socket`] numbered by a fault plan.
    ///
    /// # Errors
    ///
    /// Transport failures, torn frames, or a version-negotiation refusal.
    pub fn handshake(
        stream: Socket,
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
            FrameKind::Error => Err(ClientError::Remote(decode_error(&frame.payload)?)),
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
            FrameKind::Error => Err(ClientError::Remote(decode_error(&frame.payload)?)),
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

    /// Streams `data` to the daemon as a new backup version.
    ///
    /// A transport failure does not mean nothing committed: the daemon
    /// may have committed before the acknowledgement was lost, or may
    /// still commit the whole stream it had already received. A caller
    /// that wants the backup taken lists ([`RemoteClient::list`]) before
    /// sending it again.
    ///
    /// # Errors
    ///
    /// Transport, remote (e.g. oversize stream), or protocol errors.
    pub fn backup_bytes(&mut self, data: &[u8]) -> Result<BackupSummary, ClientError> {
        self.send_request(&Request::Backup {
            total_len: data.len() as u64,
        })?;
        match self.read_response()? {
            Response::BackupAccepted => {}
            other => return Err(unexpected("BackupAccepted", &other)),
        }
        let mut writer = DataWriter::new(&mut self.stream);
        writer.write_all(data)?;
        writer.flush()?;
        write_frame(&mut self.stream, FrameKind::End, &[])?;
        match self.read_response()? {
            Response::BackupDone(summary) => Ok(summary),
            other => Err(unexpected("BackupDone", &other)),
        }
    }

    /// Restores `version` into `out`, returning the daemon's restore
    /// summary. An ERROR frame mid-stream aborts with the bytes written so
    /// far already in `out` (callers writing to a file should stage it
    /// through [`hidestore_core::write_staged`], which cleans up for them).
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
        self.send_request(&Request::Restore { version })?;
        let total_bytes = match self.read_response()? {
            Response::RestoreStarted { total_bytes } => total_bytes,
            other => return Err(unexpected("RestoreStarted", &other)),
        };
        let mut received: u64 = 0;
        // Every frame of the stream is read into this one buffer.
        let mut payload = Vec::new();
        loop {
            payload.clear();
            match read_frame_into(&mut self.stream, &self.limits, &mut payload)? {
                FrameKind::Data => {
                    received += payload.len() as u64;
                    if received > self.limits.max_stream {
                        return Err(ClientError::Protocol(format!(
                            "restore stream exceeds the {}-byte limit",
                            self.limits.max_stream
                        )));
                    }
                    out.write_all(&payload)?;
                }
                FrameKind::End => break,
                FrameKind::Error => return Err(ClientError::Remote(decode_error(&payload)?)),
                other => {
                    return Err(ClientError::Protocol(format!(
                        "expected DATA/END, got {other}"
                    )))
                }
            }
        }
        match self.read_response()? {
            Response::RestoreDone(summary) => {
                if received != total_bytes || summary.bytes_restored != total_bytes {
                    return Err(ClientError::Protocol(format!(
                        "restore length mismatch: announced {total_bytes}, received \
                         {received}, daemon reports {}",
                        summary.bytes_restored
                    )));
                }
                Ok(summary)
            }
            other => Err(unexpected("RestoreDone", &other)),
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

fn decode_error(payload: &[u8]) -> Result<WireError, ClientError> {
    WireError::decode(payload).map_err(|e| ClientError::Protocol(format!("bad error frame: {e}")))
}

fn unexpected(wanted: &str, got: &Response) -> ClientError {
    ClientError::Protocol(format!("expected {wanted}, got {got:?}"))
}
