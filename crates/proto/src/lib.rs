#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Wire protocol for the HiDeStore network daemon (`hidestore serve`).
//!
//! The protocol is a length-prefixed binary framing over any reliable
//! byte stream (in practice TCP), spoken at exactly one version
//! ([`PROTO_VERSION`]):
//!
//! * [`frame`] — the CRC32-guarded frame layer: `magic | type | len |
//!   payload | crc32`, with [`Limits`] bounding frame and stream sizes so a
//!   hostile or corrupt peer cannot force unbounded allocation.
//! * [`message`] — the typed payloads: the [`Hello`] version check,
//!   [`Request`] / [`Response`] enums covering every CLI verb
//!   (backup/restore/list/stats/prune/verify/ping/shutdown plus the tenant
//!   admin verbs), and [`WireError`] with stable [`ErrorCode`]s. Every
//!   REQUEST payload is a tenant envelope ([`TenantId`] + request); both
//!   transfers are idempotent, resumable sessions.
//! * [`json`] — deterministic JSON serialization of [`ListResponse`] and
//!   [`StatsResponse`], shared by the CLI's `--json` flags so local and
//!   remote output cannot drift.
//!
//! # Connection lifecycle
//!
//! ```text
//! client                                          server
//!   | -- HELLO {4,4} ---------------------------------> |
//!   | <----------------------------- HELLO {4,4} ----- |  (or ERROR unsupported)
//!   | -- REQUEST [tenant] BackupResume{token,len} ----> |
//!   | <------------ RESPONSE BackupAccepted{offset} -- |  (token already
//!   | -- DATA* (data[offset..]) ----------------------> |   committed: cached
//!   | -- END -----------------------------------------> |   BackupDone, no DATA)
//!   | <----------------------- RESPONSE BackupDone --- |  (or ERROR)
//!   | -- REQUEST [tenant] RestoreResume{v,offset} ----> |
//!   | <------------------- RESPONSE RestoreStarted --- |
//!   | <--------------------------------------- DATA* - |  (bytes offset..)
//!   | <----------------------------------------- END - |
//!   | <---------------------- RESPONSE RestoreDone --- |  (mid-stream failure: ERROR)
//! ```
//!
//! A fresh transfer is the same exchange with a new token (backup) or
//! `offset = 0` (restore); a retry after a dropped connection repeats the
//! request and moves only the bytes the other side does not hold yet.
//!
//! Decoding is total: any byte sequence either decodes or yields a typed
//! [`DecodeError`] / [`FrameError`] — never a panic. Torn frames (a peer
//! vanishing mid-frame) surface as `UnexpectedEof` transport errors, and a
//! single flipped bit anywhere in a frame fails the CRC.

pub mod frame;
pub mod json;
pub mod message;
pub mod tenant;
pub mod wire;

pub use frame::{
    encode_frame, read_frame, write_frame, Frame, FrameError, FrameKind, Limits, FRAME_MAGIC,
    FRAME_OVERHEAD,
};
pub use message::{
    BackupSummary, ErrorCode, Hello, ListResponse, PruneSummary, Request, Response, RestoreSummary,
    SessionToken, StatsResponse, TenantListEntry, TenantListResponse, TenantStatsEntry,
    TenantStatsResponse, VerifySummary, VersionEntry, VersionStatsEntry, WireError, HELLO_MAGIC,
    PROTO_VERSION, TENANT_ENVELOPE_TAG,
};
pub use tenant::{TenantId, TenantIdError, DEFAULT_TENANT, MAX_TENANT_ID_LEN};
pub use wire::DecodeError;

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn sample_responses() -> Vec<Response> {
        vec![
            Response::Pong,
            Response::BackupDone(BackupSummary {
                version: 7,
                logical_bytes: 123_456,
                stored_bytes: 789,
                chunks: 42,
                unique_chunks: 17,
                cold_chunks: 5,
            }),
            Response::RestoreStarted {
                total_bytes: 1 << 33,
            },
            Response::RestoreDone(RestoreSummary {
                bytes_restored: 99,
                container_reads: 3,
                cache_hits: 2,
                cache_misses: 1,
            }),
            Response::ListOk(ListResponse {
                versions: vec![
                    VersionEntry {
                        version: 1,
                        bytes: 10,
                        chunks: 1,
                    },
                    VersionEntry {
                        version: 2,
                        bytes: 20,
                        chunks: 2,
                    },
                ],
                archival_containers: 3,
                active_containers: 1,
                hot_chunks: 8,
            }),
            Response::StatsOk(StatsResponse {
                versions: vec![VersionStatsEntry {
                    version: 1,
                    bytes: 10,
                    chunks: 1,
                    cfl: 0.75,
                    mean_kib_per_container: 3.5,
                }],
                pool_containers: 1,
                pool_chunks: 2,
                pool_live_bytes: 4096,
                out_of_line_rewritten_bytes: 99,
            }),
            Response::PruneOk(PruneSummary {
                versions_removed: 2,
                containers_dropped: 4,
                bytes_reclaimed: 1 << 20,
            }),
            Response::VerifyOk(VerifySummary {
                containers_checked: 10,
                chunks_checked: 100,
                recipes_checked: 5,
                corrupt_chunks: vec![(3, "deadbeef".into())],
            }),
            Response::ShutdownOk,
            Response::BackupAccepted { offset: 777 },
            Response::TenantListOk(TenantListResponse {
                tenants: vec![
                    TenantListEntry {
                        tenant: "alice".into(),
                        versions: 4,
                        logical_bytes: 1 << 16,
                        live: true,
                    },
                    TenantListEntry {
                        tenant: "bob".into(),
                        versions: 0,
                        logical_bytes: 0,
                        live: false,
                    },
                ],
            }),
            Response::TenantStatsOk(TenantStatsResponse {
                tenants: vec![TenantStatsEntry {
                    tenant: "alice".into(),
                    requests_ok: 12,
                    requests_failed: 3,
                    bytes_in: 1 << 20,
                    bytes_out: 1 << 21,
                    rolled_back: 1,
                    quota_refused: 2,
                }],
            }),
        ]
    }

    fn sample_requests() -> Vec<Request> {
        vec![
            Request::Ping,
            Request::List,
            Request::Stats,
            Request::Prune { keep_last: 2 },
            Request::Verify,
            Request::Shutdown,
            Request::BackupResume {
                token: [7; 16],
                total_len: 1 << 30,
            },
            Request::RestoreResume {
                version: 4,
                offset: 4096,
            },
            Request::TenantList,
            Request::TenantStats,
        ]
    }

    #[test]
    fn hello_negotiation() {
        let a = Hello {
            min_version: 1,
            max_version: 3,
        };
        let b = Hello {
            min_version: 2,
            max_version: 5,
        };
        assert_eq!(a.negotiate(&b), Some(3));
        assert_eq!(b.negotiate(&a), Some(3));
        let c = Hello {
            min_version: 4,
            max_version: 5,
        };
        assert_eq!(a.negotiate(&c), None, "disjoint ranges must not connect");
        assert_eq!(
            Hello::current().negotiate(&Hello::current()),
            Some(PROTO_VERSION)
        );
        // This build offers exactly one version: an old build's whole
        // range lies below it and must not connect.
        let old_build = Hello {
            min_version: 1,
            max_version: 3,
        };
        assert_eq!(Hello::current().negotiate(&old_build), None);
    }

    #[test]
    fn hello_round_trip_and_bad_magic() {
        let h = Hello::current();
        assert_eq!(Hello::decode(&h.encode()).unwrap(), h);
        let mut bad = h.encode();
        bad[0] ^= 0xFF;
        assert_eq!(
            Hello::decode(&bad),
            Err(DecodeError::BadMagic { what: "hello" })
        );
    }

    #[test]
    fn requests_round_trip() {
        for req in sample_requests() {
            let encoded = req.encode();
            assert_eq!(Request::decode(&encoded).unwrap(), req, "{req:?}");
        }
    }

    #[test]
    fn responses_round_trip() {
        for resp in sample_responses() {
            let encoded = resp.encode();
            assert_eq!(Response::decode(&encoded).unwrap(), resp, "{resp:?}");
        }
    }

    #[test]
    fn wire_errors_round_trip() {
        for code in [
            ErrorCode::Malformed,
            ErrorCode::Unsupported,
            ErrorCode::TooLarge,
            ErrorCode::Timeout,
            ErrorCode::NotFound,
            ErrorCode::Conflict,
            ErrorCode::Internal,
            ErrorCode::ShuttingDown,
            ErrorCode::Busy,
            ErrorCode::QuotaExceeded,
        ] {
            let err = WireError::new(code, format!("context for {code}"));
            assert_eq!(WireError::decode(&err.encode()).unwrap(), err);
        }
        // The retry hint survives a round trip and is not optional.
        let busy = WireError::busy(250, "queue full");
        assert_eq!(WireError::decode(&busy.encode()).unwrap(), busy);
        let mut hintless = busy.encode();
        hintless.truncate(hintless.len() - 4);
        assert!(matches!(
            WireError::decode(&hintless),
            Err(DecodeError::UnexpectedEof { .. })
        ));
        assert!(
            ErrorCode::Busy.is_retryable() && ErrorCode::ShuttingDown.is_retryable(),
            "load-shedding and shutdown refusals must invite a retry"
        );
        assert!(!ErrorCode::Malformed.is_retryable());
        assert!(
            !ErrorCode::QuotaExceeded.is_retryable(),
            "a quota refusal repeats identically — retrying it is pure waste"
        );
    }

    #[test]
    fn tenant_envelope_round_trips() {
        let tenant = TenantId::new("alice").unwrap();
        for req in sample_requests() {
            let enveloped = req.encode_with_tenant(&tenant);
            let (decoded_tenant, decoded) = Request::decode_enveloped(&enveloped).unwrap();
            assert_eq!(decoded_tenant, tenant, "{req:?}");
            assert_eq!(decoded, req, "{req:?}");
            // A bare payload is not a REQUEST: the envelope is mandatory.
            assert!(
                matches!(
                    Request::decode_enveloped(&req.encode()),
                    Err(DecodeError::BadTag {
                        what: "tenant envelope",
                        ..
                    })
                ),
                "{req:?}"
            );
        }
    }

    #[test]
    fn retired_transfer_tags_do_not_decode() {
        // Tags 2 (tokenless Backup) and 3 (tokenless Restore) are retired,
        // bare or enveloped, and never renumbered onto another verb.
        let tenant = TenantId::default_tenant();
        for bare in [vec![2u8], vec![3, 1, 0, 0, 0]] {
            assert_eq!(
                Request::decode(&bare),
                Err(DecodeError::BadTag {
                    what: "request",
                    tag: bare[0]
                })
            );
            let mut enveloped = Request::Ping.encode_with_tenant(&tenant);
            enveloped.pop();
            enveloped.extend_from_slice(&bare);
            assert_eq!(
                Request::decode_enveloped(&enveloped),
                Err(DecodeError::BadTag {
                    what: "request",
                    tag: bare[0]
                })
            );
        }
        assert_eq!(Request::Ping.encode(), [1]);
        assert_eq!(Request::List.encode(), [4]);
        assert_eq!(Request::TenantStats.encode(), [12]);
    }

    #[test]
    fn hostile_tenant_ids_rejected_at_decode() {
        // Hand-build envelopes naming ids TenantId::new would refuse; the
        // decoder must reject them with the typed error before dispatch.
        for bad in ["../escape", "a/b", "a\\b", "..", "", "UPPER", "-rf", ".git"] {
            let mut payload = vec![TENANT_ENVELOPE_TAG];
            payload.extend_from_slice(&(bad.len() as u32).to_le_bytes());
            payload.extend_from_slice(bad.as_bytes());
            payload.extend_from_slice(&Request::Ping.encode());
            assert!(
                matches!(
                    Request::decode_enveloped(&payload),
                    Err(DecodeError::InvalidTenant(_))
                ),
                "{bad:?} must be rejected"
            );
        }
        // An envelope with a valid tenant but garbage inner request still
        // fails typed.
        let mut payload = vec![TENANT_ENVELOPE_TAG];
        payload.extend_from_slice(&5u32.to_le_bytes());
        payload.extend_from_slice(b"alice");
        payload.push(0xEE);
        assert!(matches!(
            Request::decode_enveloped(&payload),
            Err(DecodeError::BadTag { .. })
        ));
        // A truncated envelope (torn mid-tenant-id) is a typed EOF.
        let enveloped = Request::List.encode_with_tenant(&TenantId::new("alice").unwrap());
        assert!(matches!(
            Request::decode_enveloped(&enveloped[..3]),
            Err(DecodeError::UnexpectedEof { .. })
        ));
    }

    #[test]
    fn trailing_bytes_rejected_at_message_layer() {
        let mut encoded = Request::Ping.encode();
        encoded.push(0);
        assert_eq!(
            Request::decode(&encoded),
            Err(DecodeError::TrailingBytes { remaining: 1 })
        );
    }

    /// Fuzz-ish corrupted-frame corpus: every sample message is framed,
    /// then attacked with random byte flips, truncations, insertions, and
    /// splices. Decoding must always return a typed error or — in the
    /// astronomically unlikely case a mutation preserves the CRC — a valid
    /// message; it must never panic or misbehave.
    #[test]
    fn corrupted_frame_corpus() {
        let mut frames: Vec<Vec<u8>> = Vec::new();
        let tenant = TenantId::new("fuzz-tenant").unwrap();
        for req in sample_requests() {
            frames.push(encode_frame(
                FrameKind::Request,
                &req.encode_with_tenant(&tenant),
            ));
        }
        for resp in sample_responses() {
            frames.push(encode_frame(FrameKind::Response, &resp.encode()));
        }
        frames.push(encode_frame(FrameKind::Hello, &Hello::current().encode()));
        frames.push(encode_frame(FrameKind::Data, &[0xA5; 300]));
        frames.push(encode_frame(FrameKind::End, &[]));
        frames.push(encode_frame(
            FrameKind::Error,
            &WireError::new(ErrorCode::Internal, "boom").encode(),
        ));

        let limits = Limits::default();
        let mut rng = StdRng::seed_from_u64(0x1DE5_70FE);
        let mut decoded_ok = 0u32;
        let mut rejected = 0u32;
        for frame in &frames {
            for _ in 0..200 {
                let mut mutated = frame.clone();
                match rng.gen_range(0usize..4) {
                    // Byte flip.
                    0 => {
                        let at = rng.gen_range(0usize..mutated.len());
                        mutated[at] ^= rng.gen_range(1u32..256) as u8;
                    }
                    // Truncation (torn frame).
                    1 => {
                        let keep = rng.gen_range(0usize..mutated.len());
                        mutated.truncate(keep);
                    }
                    // Insertion.
                    2 => {
                        let at = rng.gen_range(0usize..mutated.len() + 1);
                        mutated.insert(at, rng.gen_range(0u32..256) as u8);
                    }
                    // Splice: overwrite a window with random bytes.
                    _ => {
                        let at = rng.gen_range(0usize..mutated.len());
                        let len = rng.gen_range(1usize..16).min(mutated.len() - at);
                        for b in &mut mutated[at..at + len] {
                            *b = rng.gen_range(0u32..256) as u8;
                        }
                    }
                }
                match read_frame(&mut &mutated[..], &limits) {
                    Ok(frame) => {
                        // Mutation happened to produce a CRC-valid frame
                        // (e.g. flipped then spliced back). The payload must
                        // still decode or reject without panicking.
                        decoded_ok += 1;
                        match frame.kind {
                            FrameKind::Request => {
                                // The enveloped decoder is what the server
                                // actually runs; it must be total too.
                                let _ = Request::decode_enveloped(&frame.payload);
                            }
                            FrameKind::Response => {
                                let _ = Response::decode(&frame.payload);
                            }
                            FrameKind::Hello => {
                                let _ = Hello::decode(&frame.payload);
                            }
                            FrameKind::Error => {
                                let _ = WireError::decode(&frame.payload);
                            }
                            FrameKind::Data | FrameKind::End => {}
                        }
                    }
                    Err(_) => rejected += 1,
                }
            }
        }
        assert!(
            rejected > decoded_ok,
            "the corpus must overwhelmingly reject corruption \
             ({rejected} rejected, {decoded_ok} survived)"
        );
    }

    /// Multiple frames on one stream decode in sequence — the reader never
    /// consumes bytes beyond its own frame.
    #[test]
    fn frames_are_self_delimiting() {
        let mut stream = Vec::new();
        let list = Request::List.encode_with_tenant(&TenantId::default_tenant());
        stream.extend_from_slice(&encode_frame(FrameKind::Request, &list));
        stream.extend_from_slice(&encode_frame(FrameKind::Data, b"abc"));
        stream.extend_from_slice(&encode_frame(FrameKind::End, &[]));
        let mut cursor = &stream[..];
        let limits = Limits::default();
        assert_eq!(
            read_frame(&mut cursor, &limits).unwrap().kind,
            FrameKind::Request
        );
        let data = read_frame(&mut cursor, &limits).unwrap();
        assert_eq!(data.payload, b"abc");
        assert_eq!(
            read_frame(&mut cursor, &limits).unwrap().kind,
            FrameKind::End
        );
        assert!(cursor.is_empty());
    }
}
