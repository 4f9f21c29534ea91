//! Message layer: the typed payloads carried inside frames.
//!
//! [`Hello`] rides in HELLO frames, [`Request`] in REQUEST frames,
//! [`Response`] in RESPONSE frames, and [`WireError`] in ERROR frames.
//! Every type encodes with [`encode`](Request::encode) and decodes with a
//! typed, panic-free [`decode`](Request::decode) that accounts for every
//! byte (trailing garbage is an error).

use std::fmt;

use crate::tenant::TenantId;
use crate::wire::{ByteReader, ByteWriter, DecodeError};

/// The one protocol version this build speaks: every request carries the
/// tenant envelope and every transfer moves a whole version. Both peers
/// offer exactly this version in their [`Hello`]; any other offered range
/// is refused with [`ErrorCode::Unsupported`].
pub const PROTO_VERSION: u16 = 7;

/// Magic prefix inside HELLO payloads, distinguishing a HiDeStore daemon
/// endpoint from an arbitrary TCP service.
pub const HELLO_MAGIC: [u8; 4] = *b"HDSP";

/// Version offer: the contiguous range of protocol versions the sender
/// speaks. Each side sends one; the connection proceeds only if
/// [`Hello::negotiate`] finds a shared version — which, with this build
/// offering `min = max =` [`PROTO_VERSION`], means the peer's range must
/// contain exactly that.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hello {
    /// Oldest version the sender accepts.
    pub min_version: u16,
    /// Newest version the sender speaks.
    pub max_version: u16,
}

impl Hello {
    /// The offer for this build: exactly [`PROTO_VERSION`].
    pub fn current() -> Self {
        Hello {
            min_version: PROTO_VERSION,
            max_version: PROTO_VERSION,
        }
    }

    /// Picks the newest version both offers share, or `None` when the
    /// ranges do not overlap (the connection must be refused).
    pub fn negotiate(&self, other: &Hello) -> Option<u16> {
        let low = self.min_version.max(other.min_version);
        let high = self.max_version.min(other.max_version);
        (low <= high).then_some(high)
    }

    /// Encodes this offer as a HELLO frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.raw(&HELLO_MAGIC);
        w.u16(self.min_version);
        w.u16(self.max_version);
        w.into_bytes()
    }

    /// Decodes a HELLO frame payload.
    ///
    /// # Errors
    ///
    /// Typed [`DecodeError`] on bad magic, truncation, or trailing bytes.
    pub fn decode(payload: &[u8]) -> Result<Self, DecodeError> {
        let mut r = ByteReader::new(payload);
        let mut magic = [0u8; 4];
        for byte in &mut magic {
            *byte = r.u8()?;
        }
        if magic != HELLO_MAGIC {
            return Err(DecodeError::BadMagic { what: "hello" });
        }
        let min_version = r.u16()?;
        let max_version = r.u16()?;
        r.finish()?;
        Ok(Hello {
            min_version,
            max_version,
        })
    }
}

/// A client request. `Backup` is followed (after the server's
/// [`Response::BackupAccepted`]) by a DATA stream terminated by END; every
/// other request is self-contained.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Liveness probe; the server answers [`Response::Pong`].
    Ping,
    /// List retained versions.
    List,
    /// Per-version fragmentation statistics.
    Stats,
    /// Expire all but the newest `keep_last` versions.
    Prune {
        /// How many newest versions to retain.
        keep_last: u32,
    },
    /// Integrity scrub of every container and recipe.
    Verify,
    /// Ask the daemon to shut down gracefully after in-flight requests
    /// drain.
    Shutdown,
    /// Back up a stream as the next version: the server answers
    /// [`Response::BackupAccepted`], the client streams DATA frames and
    /// END, and the server commits and answers [`Response::BackupDone`].
    Backup {
        /// Length of the stream the client will upload; the server refuses
        /// the backup as soon as the DATA frames pass it.
        total_len: u64,
    },
    /// Restore a whole version: the server answers
    /// [`Response::RestoreStarted`], streams DATA frames and END, then
    /// [`Response::RestoreDone`].
    Restore {
        /// The version to restore (1-based).
        version: u32,
    },
    /// List every tenant under the server's root with its
    /// version count and logical size. Admin verb — not scoped to the
    /// enveloped tenant.
    TenantList,
    /// Per-tenant server counters (requests, bytes, quota
    /// refusals). Admin verb — not scoped to the enveloped tenant.
    TenantStats,
}

/// First byte of every REQUEST payload: the tenant envelope
/// `0 | tenant-id string | inner request`. Request tags start at 1, so a
/// payload starting with any other byte is not an envelope and is rejected.
pub const TENANT_ENVELOPE_TAG: u8 = 0;

impl Request {
    /// Short name for log lines.
    pub fn name(&self) -> &'static str {
        match self {
            Request::Ping => "ping",
            Request::List => "list",
            Request::Stats => "stats",
            Request::Prune { .. } => "prune",
            Request::Verify => "verify",
            Request::Shutdown => "shutdown",
            Request::Backup { .. } => "backup",
            Request::Restore { .. } => "restore",
            Request::TenantList => "tenant-list",
            Request::TenantStats => "tenant-stats",
        }
    }

    /// Encodes the bare request (tag + fields) that
    /// [`Request::encode_with_tenant`] wraps. Tags 2, 3, 9 and 10 belonged
    /// to retired transfer verbs (tokenless, then resumable) and are never
    /// reused.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        match self {
            Request::Ping => w.u8(1),
            Request::List => w.u8(4),
            Request::Stats => w.u8(5),
            Request::Prune { keep_last } => {
                w.u8(6);
                w.u32(*keep_last);
            }
            Request::Verify => w.u8(7),
            Request::Shutdown => w.u8(8),
            Request::TenantList => w.u8(11),
            Request::TenantStats => w.u8(12),
            Request::Backup { total_len } => {
                w.u8(13);
                w.u64(*total_len);
            }
            Request::Restore { version } => {
                w.u8(14);
                w.u32(*version);
            }
        }
        w.into_bytes()
    }

    /// Encodes this request as a REQUEST frame payload: the tenant
    /// envelope `0 | tenant-id | bare request`.
    pub fn encode_with_tenant(&self, tenant: &TenantId) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.u8(TENANT_ENVELOPE_TAG);
        w.string(tenant.as_str());
        w.raw(&self.encode());
        w.into_bytes()
    }

    /// Decodes a REQUEST frame payload: the tenant envelope and the
    /// request inside it.
    ///
    /// # Errors
    ///
    /// Typed [`DecodeError`] on a missing envelope tag, unknown request
    /// tags, truncation, or trailing bytes;
    /// [`DecodeError::InvalidTenant`] when the envelope names an id that
    /// fails validation (including path-traversal attempts).
    pub fn decode_enveloped(payload: &[u8]) -> Result<(TenantId, Self), DecodeError> {
        let mut r = ByteReader::new(payload);
        let tag = r.u8()?;
        if tag != TENANT_ENVELOPE_TAG {
            return Err(DecodeError::BadTag {
                what: "tenant envelope",
                tag,
            });
        }
        let name = r.string()?;
        let tenant = TenantId::new(&name).map_err(DecodeError::InvalidTenant)?;
        let request = Request::decode(r.rest())?;
        Ok((tenant, request))
    }

    /// Decodes a bare request (the inverse of [`Request::encode`]).
    ///
    /// # Errors
    ///
    /// Typed [`DecodeError`] on unknown tags, truncation, or trailing bytes.
    pub fn decode(payload: &[u8]) -> Result<Self, DecodeError> {
        let mut r = ByteReader::new(payload);
        let req = match r.u8()? {
            1 => Request::Ping,
            4 => Request::List,
            5 => Request::Stats,
            6 => Request::Prune {
                keep_last: r.u32()?,
            },
            7 => Request::Verify,
            8 => Request::Shutdown,
            11 => Request::TenantList,
            12 => Request::TenantStats,
            13 => Request::Backup {
                total_len: r.u64()?,
            },
            14 => Request::Restore { version: r.u32()? },
            tag => {
                return Err(DecodeError::BadTag {
                    what: "request",
                    tag,
                })
            }
        };
        r.finish()?;
        Ok(req)
    }
}

/// Outcome of one remote backup, mirroring the local CLI's summary line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BackupSummary {
    /// The version id the backup was assigned (1-based).
    pub version: u32,
    /// Bytes in the backed-up stream.
    pub logical_bytes: u64,
    /// Unique bytes actually stored.
    pub stored_bytes: u64,
    /// Chunks in the stream.
    pub chunks: u64,
    /// Chunks stored for the first time.
    pub unique_chunks: u64,
    /// Chunks demoted to archival containers at version end.
    pub cold_chunks: u64,
}

/// Outcome of one remote restore.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RestoreSummary {
    /// Bytes streamed back to the client.
    pub bytes_restored: u64,
    /// Container reads the restore scheme issued.
    pub container_reads: u64,
    /// Restore-cache hits.
    pub cache_hits: u64,
    /// Restore-cache misses.
    pub cache_misses: u64,
}

/// One retained version in a [`ListResponse`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VersionEntry {
    /// Version id (1-based).
    pub version: u32,
    /// Logical bytes of the version.
    pub bytes: u64,
    /// Chunks in the version's recipe.
    pub chunks: u64,
}

/// Everything `hidestore list` shows, in wire/JSON-serializable form.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ListResponse {
    /// Retained versions, oldest first.
    pub versions: Vec<VersionEntry>,
    /// Sealed archival containers on disk.
    pub archival_containers: u64,
    /// Active (hot) containers in the pool.
    pub active_containers: u64,
    /// Chunks resident in the active pool.
    pub hot_chunks: u64,
}

/// One version's fragmentation statistics in a [`StatsResponse`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VersionStatsEntry {
    /// Version id (1-based).
    pub version: u32,
    /// Logical bytes of the version.
    pub bytes: u64,
    /// Chunks in the version's recipe.
    pub chunks: u64,
    /// Chunk-fragmentation level (containers touched / minimum possible).
    pub cfl: f64,
    /// Mean KiB of the version read per container touched.
    pub mean_kib_per_container: f64,
}

/// Everything `hidestore stats` shows, in wire/JSON-serializable form.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StatsResponse {
    /// Per-version fragmentation rows, oldest first.
    pub versions: Vec<VersionStatsEntry>,
    /// Versions without a row because their restore plan depends on
    /// quarantined artifacts (a degraded repository), oldest first.
    pub lost: Vec<u32>,
    /// Containers in the active pool.
    pub pool_containers: u64,
    /// Chunks in the active pool.
    pub pool_chunks: u64,
    /// Live bytes in the active pool.
    pub pool_live_bytes: u64,
}

/// Outcome of one remote prune.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PruneSummary {
    /// Versions expired.
    pub versions_removed: u32,
    /// Archival containers whose tags fell dead and were dropped.
    pub containers_dropped: u64,
    /// Bytes reclaimed.
    pub bytes_reclaimed: u64,
}

/// Outcome of one remote verify (integrity scrub).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct VerifySummary {
    /// Containers checked.
    pub containers_checked: u64,
    /// Chunks re-hashed.
    pub chunks_checked: u64,
    /// Recipes resolved.
    pub recipes_checked: u64,
    /// `(container id or 0, what is wrong)` of each damage the scrub found.
    pub corrupt_chunks: Vec<(u32, String)>,
}

impl VerifySummary {
    /// True when the scrub found nothing wrong.
    pub fn is_clean(&self) -> bool {
        self.corrupt_chunks.is_empty()
    }
}

/// One tenant in a [`TenantListResponse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantListEntry {
    /// The tenant's id.
    pub tenant: String,
    /// Versions the tenant's repository retains.
    pub versions: u64,
    /// Logical bytes across the tenant's retained versions.
    pub logical_bytes: u64,
    /// Whether the tenant's repository handle is currently live (resident
    /// in the server's LRU handle table).
    pub live: bool,
}

/// Answer to [`Request::TenantList`]: every tenant under the server's
/// root, sorted by id.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TenantListResponse {
    /// Tenants sorted by id.
    pub tenants: Vec<TenantListEntry>,
}

/// One tenant's server-side counters in a [`TenantStatsResponse`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TenantStatsEntry {
    /// The tenant's id.
    pub tenant: String,
    /// Requests answered successfully.
    pub requests_ok: u64,
    /// Requests answered with an ERROR frame.
    pub requests_failed: u64,
    /// Payload bytes received in backup streams.
    pub bytes_in: u64,
    /// Payload bytes sent in restore streams.
    pub bytes_out: u64,
    /// Failed mutations rolled back by reopening the repository.
    pub rolled_back: u64,
    /// Mutations refused because they would exceed the tenant's quota.
    pub quota_refused: u64,
}

/// Answer to [`Request::TenantStats`]: counters for every tenant that has
/// served at least one request since the daemon started, sorted by id.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TenantStatsResponse {
    /// Per-tenant counters sorted by id.
    pub tenants: Vec<TenantStatsEntry>,
}

/// A server response. Every request ends in exactly one RESPONSE (or
/// ERROR) frame; `Backup` is first acknowledged with `BackupAccepted`, and
/// `Restore` streams DATA frames between its `RestoreStarted` and
/// `RestoreDone`.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Answer to [`Request::Ping`].
    Pong,
    /// The uploaded stream was committed as a new version.
    BackupDone(BackupSummary),
    /// Restore accepted: DATA frames follow, then END, then
    /// [`Response::RestoreDone`].
    RestoreStarted {
        /// Total bytes the stream will carry.
        total_bytes: u64,
    },
    /// The restore stream completed; accounting attached.
    RestoreDone(RestoreSummary),
    /// Answer to [`Request::List`].
    ListOk(ListResponse),
    /// Answer to [`Request::Stats`].
    StatsOk(StatsResponse),
    /// Answer to [`Request::Prune`].
    PruneOk(PruneSummary),
    /// Answer to [`Request::Verify`].
    VerifyOk(VerifySummary),
    /// The daemon acknowledged [`Request::Shutdown`] and will exit once
    /// in-flight requests drain.
    ShutdownOk,
    /// A [`Request::Backup`] is accepted; the client streams its DATA
    /// frames and END.
    BackupAccepted,
    /// Answer to [`Request::TenantList`].
    TenantListOk(TenantListResponse),
    /// Answer to [`Request::TenantStats`].
    TenantStatsOk(TenantStatsResponse),
}

impl Response {
    /// Encodes this response as a RESPONSE frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        match self {
            Response::Pong => w.u8(1),
            Response::BackupDone(s) => {
                w.u8(2);
                w.u32(s.version);
                w.u64(s.logical_bytes);
                w.u64(s.stored_bytes);
                w.u64(s.chunks);
                w.u64(s.unique_chunks);
                w.u64(s.cold_chunks);
            }
            Response::RestoreStarted { total_bytes } => {
                w.u8(3);
                w.u64(*total_bytes);
            }
            Response::RestoreDone(s) => {
                w.u8(4);
                w.u64(s.bytes_restored);
                w.u64(s.container_reads);
                w.u64(s.cache_hits);
                w.u64(s.cache_misses);
            }
            Response::ListOk(list) => {
                w.u8(5);
                w.len_u32(list.versions.len());
                for v in &list.versions {
                    w.u32(v.version);
                    w.u64(v.bytes);
                    w.u64(v.chunks);
                }
                w.u64(list.archival_containers);
                w.u64(list.active_containers);
                w.u64(list.hot_chunks);
            }
            Response::StatsOk(stats) => {
                w.u8(6);
                w.len_u32(stats.versions.len());
                for v in &stats.versions {
                    w.u32(v.version);
                    w.u64(v.bytes);
                    w.u64(v.chunks);
                    w.f64(v.cfl);
                    w.f64(v.mean_kib_per_container);
                }
                w.len_u32(stats.lost.len());
                for &v in &stats.lost {
                    w.u32(v);
                }
                w.u64(stats.pool_containers);
                w.u64(stats.pool_chunks);
                w.u64(stats.pool_live_bytes);
            }
            Response::PruneOk(s) => {
                w.u8(7);
                w.u32(s.versions_removed);
                w.u64(s.containers_dropped);
                w.u64(s.bytes_reclaimed);
            }
            Response::VerifyOk(s) => {
                w.u8(8);
                w.u64(s.containers_checked);
                w.u64(s.chunks_checked);
                w.u64(s.recipes_checked);
                w.len_u32(s.corrupt_chunks.len());
                for (cid, fp) in &s.corrupt_chunks {
                    w.u32(*cid);
                    w.string(fp);
                }
            }
            Response::ShutdownOk => w.u8(9),
            Response::BackupAccepted => w.u8(10),
            Response::TenantListOk(list) => {
                w.u8(11);
                w.len_u32(list.tenants.len());
                for t in &list.tenants {
                    w.string(&t.tenant);
                    w.u64(t.versions);
                    w.u64(t.logical_bytes);
                    w.u8(u8::from(t.live));
                }
            }
            Response::TenantStatsOk(stats) => {
                w.u8(12);
                w.len_u32(stats.tenants.len());
                for t in &stats.tenants {
                    w.string(&t.tenant);
                    w.u64(t.requests_ok);
                    w.u64(t.requests_failed);
                    w.u64(t.bytes_in);
                    w.u64(t.bytes_out);
                    w.u64(t.rolled_back);
                    w.u64(t.quota_refused);
                }
            }
        }
        w.into_bytes()
    }

    /// Decodes a RESPONSE frame payload.
    ///
    /// # Errors
    ///
    /// Typed [`DecodeError`] on unknown tags, truncation, or trailing bytes.
    pub fn decode(payload: &[u8]) -> Result<Self, DecodeError> {
        let mut r = ByteReader::new(payload);
        let resp = match r.u8()? {
            1 => Response::Pong,
            2 => Response::BackupDone(BackupSummary {
                version: r.u32()?,
                logical_bytes: r.u64()?,
                stored_bytes: r.u64()?,
                chunks: r.u64()?,
                unique_chunks: r.u64()?,
                cold_chunks: r.u64()?,
            }),
            3 => Response::RestoreStarted {
                total_bytes: r.u64()?,
            },
            4 => Response::RestoreDone(RestoreSummary {
                bytes_restored: r.u64()?,
                container_reads: r.u64()?,
                cache_hits: r.u64()?,
                cache_misses: r.u64()?,
            }),
            5 => {
                let n = r.seq_len()?;
                let mut versions = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    versions.push(VersionEntry {
                        version: r.u32()?,
                        bytes: r.u64()?,
                        chunks: r.u64()?,
                    });
                }
                Response::ListOk(ListResponse {
                    versions,
                    archival_containers: r.u64()?,
                    active_containers: r.u64()?,
                    hot_chunks: r.u64()?,
                })
            }
            6 => {
                let n = r.seq_len()?;
                let mut versions = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    versions.push(VersionStatsEntry {
                        version: r.u32()?,
                        bytes: r.u64()?,
                        chunks: r.u64()?,
                        cfl: r.f64()?,
                        mean_kib_per_container: r.f64()?,
                    });
                }
                let n = r.seq_len()?;
                let mut lost = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    lost.push(r.u32()?);
                }
                Response::StatsOk(StatsResponse {
                    versions,
                    lost,
                    pool_containers: r.u64()?,
                    pool_chunks: r.u64()?,
                    pool_live_bytes: r.u64()?,
                })
            }
            7 => Response::PruneOk(PruneSummary {
                versions_removed: r.u32()?,
                containers_dropped: r.u64()?,
                bytes_reclaimed: r.u64()?,
            }),
            8 => {
                let containers_checked = r.u64()?;
                let chunks_checked = r.u64()?;
                let recipes_checked = r.u64()?;
                let n = r.seq_len()?;
                let mut corrupt_chunks = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    let cid = r.u32()?;
                    let fp = r.string()?;
                    corrupt_chunks.push((cid, fp));
                }
                Response::VerifyOk(VerifySummary {
                    containers_checked,
                    chunks_checked,
                    recipes_checked,
                    corrupt_chunks,
                })
            }
            9 => Response::ShutdownOk,
            10 => Response::BackupAccepted,
            11 => {
                let n = r.seq_len()?;
                let mut tenants = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    tenants.push(TenantListEntry {
                        tenant: r.string()?,
                        versions: r.u64()?,
                        logical_bytes: r.u64()?,
                        live: r.u8()? != 0,
                    });
                }
                Response::TenantListOk(TenantListResponse { tenants })
            }
            12 => {
                let n = r.seq_len()?;
                let mut tenants = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    tenants.push(TenantStatsEntry {
                        tenant: r.string()?,
                        requests_ok: r.u64()?,
                        requests_failed: r.u64()?,
                        bytes_in: r.u64()?,
                        bytes_out: r.u64()?,
                        rolled_back: r.u64()?,
                        quota_refused: r.u64()?,
                    });
                }
                Response::TenantStatsOk(TenantStatsResponse { tenants })
            }
            tag => {
                return Err(DecodeError::BadTag {
                    what: "response",
                    tag,
                })
            }
        };
        r.finish()?;
        Ok(resp)
    }
}

/// Machine-readable failure classes carried in ERROR frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The peer sent bytes that do not decode (bad frame, bad tag, CRC).
    Malformed,
    /// The peer's HELLO does not offer this build's protocol version.
    Unsupported,
    /// A frame or stream exceeded the server's size limits.
    TooLarge,
    /// The peer was silent past the read/write deadline.
    Timeout,
    /// The requested version does not exist.
    NotFound,
    /// The request conflicts with repository state (e.g. pruning every
    /// version).
    Conflict,
    /// The repository operation itself failed; the mutation was rolled
    /// back.
    Internal,
    /// The daemon is draining for shutdown and accepts no new requests.
    /// Retryable: the operator is restarting the daemon, not removing it.
    ShuttingDown,
    /// The daemon's admission gate is full and shed this connection.
    /// Retryable after the hint in [`WireError::retry_after_ms`].
    Busy,
    /// The mutation would exceed the tenant's quota (max bytes or max
    /// versions). Not retryable: the request will fail identically until
    /// the tenant prunes data or the operator raises the quota.
    QuotaExceeded,
}

impl ErrorCode {
    /// Wire value of this code.
    pub fn as_u16(self) -> u16 {
        match self {
            ErrorCode::Malformed => 1,
            ErrorCode::Unsupported => 2,
            ErrorCode::TooLarge => 3,
            ErrorCode::Timeout => 4,
            ErrorCode::NotFound => 5,
            ErrorCode::Conflict => 6,
            ErrorCode::Internal => 7,
            ErrorCode::ShuttingDown => 8,
            ErrorCode::Busy => 9,
            ErrorCode::QuotaExceeded => 10,
        }
    }

    /// Parses a wire value.
    pub fn from_u16(v: u16) -> Result<Self, DecodeError> {
        Ok(match v {
            1 => ErrorCode::Malformed,
            2 => ErrorCode::Unsupported,
            3 => ErrorCode::TooLarge,
            4 => ErrorCode::Timeout,
            5 => ErrorCode::NotFound,
            6 => ErrorCode::Conflict,
            7 => ErrorCode::Internal,
            8 => ErrorCode::ShuttingDown,
            9 => ErrorCode::Busy,
            10 => ErrorCode::QuotaExceeded,
            tag => {
                return Err(DecodeError::BadTag {
                    what: "error code",
                    tag: tag as u8,
                })
            }
        })
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            ErrorCode::Malformed => "malformed",
            ErrorCode::Unsupported => "unsupported",
            ErrorCode::TooLarge => "too-large",
            ErrorCode::Timeout => "timeout",
            ErrorCode::NotFound => "not-found",
            ErrorCode::Conflict => "conflict",
            ErrorCode::Internal => "internal",
            ErrorCode::ShuttingDown => "shutting-down",
            ErrorCode::Busy => "busy",
            ErrorCode::QuotaExceeded => "quota-exceeded",
        };
        f.write_str(name)
    }
}

/// A typed error travelling in an ERROR frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// Failure class.
    pub code: ErrorCode,
    /// Human-readable detail (never parsed by clients).
    pub message: String,
    /// Backoff hint in milliseconds for retryable codes (0 = no hint). A
    /// shedding server sets this on [`ErrorCode::Busy`] so clients spread
    /// their retries instead of stampeding.
    pub retry_after_ms: u32,
}

impl WireError {
    /// Builds an error with a formatted message and no retry hint.
    pub fn new(code: ErrorCode, message: impl Into<String>) -> Self {
        WireError {
            code,
            message: message.into(),
            retry_after_ms: 0,
        }
    }

    /// Builds a retryable `Busy` error carrying a backoff hint.
    pub fn busy(retry_after_ms: u32, message: impl Into<String>) -> Self {
        WireError {
            code: ErrorCode::Busy,
            message: message.into(),
            retry_after_ms,
        }
    }

    /// Encodes this error as an ERROR frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.u16(self.code.as_u16());
        w.string(&self.message);
        w.u32(self.retry_after_ms);
        w.into_bytes()
    }

    /// Decodes an ERROR frame payload.
    ///
    /// # Errors
    ///
    /// Typed [`DecodeError`] on unknown codes, truncation, or trailing
    /// bytes.
    pub fn decode(payload: &[u8]) -> Result<Self, DecodeError> {
        let mut r = ByteReader::new(payload);
        let code = ErrorCode::from_u16(r.u16()?)?;
        let message = r.string()?;
        let retry_after_ms = r.u32()?;
        r.finish()?;
        Ok(WireError {
            code,
            message,
            retry_after_ms,
        })
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.code, self.message)
    }
}

impl std::error::Error for WireError {}
