//! The framing layer: every byte on an `hds-served` connection travels
//! inside a CRC-guarded, length-prefixed frame.
//!
//! ```text
//! +--------------+---------+----------------+------------------+-------------+
//! | magic "HD"   | type    | payload length | payload          | CRC32       |
//! | 2 B          | 1 B     | u32 LE         | length bytes     | u32 LE      |
//! +--------------+---------+----------------+------------------+-------------+
//! ```
//!
//! The CRC covers magic, type, length, and payload, so a torn or
//! bit-flipped frame is detected before its payload is interpreted. The
//! payload length is bounded by [`Limits::max_frame`]; a peer announcing a
//! larger frame is rejected without allocating.

use std::fmt;
use std::io::{self, Read, Write};

use hidestore_hash::{crc32, crc32_update};

use crate::wire::DecodeError;

/// The two magic bytes opening every frame.
pub const FRAME_MAGIC: [u8; 2] = *b"HD";

/// Bytes of framing overhead around a payload (magic + type + length + CRC).
pub const FRAME_OVERHEAD: usize = 2 + 1 + 4 + 4;

/// Frame kinds. The `type` byte on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// Version negotiation, first frame in each direction.
    Hello,
    /// A client request ([`crate::Request`]).
    Request,
    /// A server response ([`crate::Response`]).
    Response,
    /// A slice of a byte stream (backup upload or restore download).
    Data,
    /// End of a [`FrameKind::Data`] stream.
    End,
    /// A typed error ([`crate::WireError`]); terminates the request.
    Error,
}

impl FrameKind {
    /// Wire value of this kind.
    pub fn as_u8(self) -> u8 {
        match self {
            FrameKind::Hello => 1,
            FrameKind::Request => 2,
            FrameKind::Response => 3,
            FrameKind::Data => 4,
            FrameKind::End => 5,
            FrameKind::Error => 6,
        }
    }

    /// Parses a wire value.
    pub fn from_u8(v: u8) -> Result<Self, DecodeError> {
        Ok(match v {
            1 => FrameKind::Hello,
            2 => FrameKind::Request,
            3 => FrameKind::Response,
            4 => FrameKind::Data,
            5 => FrameKind::End,
            6 => FrameKind::Error,
            tag => return Err(DecodeError::BadTag { what: "frame", tag }),
        })
    }
}

impl fmt::Display for FrameKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            FrameKind::Hello => "HELLO",
            FrameKind::Request => "REQUEST",
            FrameKind::Response => "RESPONSE",
            FrameKind::Data => "DATA",
            FrameKind::End => "END",
            FrameKind::Error => "ERROR",
        };
        f.write_str(name)
    }
}

/// Size limits a peer enforces while decoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Limits {
    /// Maximum payload bytes in a single frame. Larger announcements are
    /// rejected before any allocation.
    pub max_frame: u32,
    /// Maximum total bytes in one streamed request body (the sum of DATA
    /// payloads between a REQUEST and its END).
    pub max_stream: u64,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            max_frame: 8 << 20,
            max_stream: 1 << 30,
        }
    }
}

/// A decoded frame: its kind and raw payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// What the payload contains.
    pub kind: FrameKind,
    /// The raw payload bytes (message-layer encoding, or stream data).
    pub payload: Vec<u8>,
}

/// Errors reading or writing frames.
#[derive(Debug)]
pub enum FrameError {
    /// The underlying transport failed (includes timeouts and peer
    /// disconnects, surfaced as `io::ErrorKind::UnexpectedEof` /
    /// `WouldBlock` / `TimedOut`).
    Io(io::Error),
    /// The bytes received do not form a valid frame.
    Decode(DecodeError),
    /// The frame arrived intact but its CRC32 did not match: the frame was
    /// corrupted (or torn) in transit.
    CrcMismatch {
        /// CRC announced by the sender.
        announced: u32,
        /// CRC computed over the received bytes.
        computed: u32,
    },
}

impl FrameError {
    /// True when the error is a transport timeout (the peer was silent past
    /// the configured read/write deadline).
    pub fn is_timeout(&self) -> bool {
        matches!(
            self,
            FrameError::Io(e) if matches!(
                e.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
            )
        )
    }
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "transport error: {e}"),
            FrameError::Decode(e) => write!(f, "malformed frame: {e}"),
            FrameError::CrcMismatch {
                announced,
                computed,
            } => write!(
                f,
                "frame CRC mismatch: announced {announced:#010x}, computed {computed:#010x}"
            ),
        }
    }
}

impl std::error::Error for FrameError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FrameError::Io(e) => Some(e),
            FrameError::Decode(e) => Some(e),
            FrameError::CrcMismatch { .. } => None,
        }
    }
}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

impl From<DecodeError> for FrameError {
    fn from(e: DecodeError) -> Self {
        FrameError::Decode(e)
    }
}

/// Encodes a frame into a standalone byte vector (header + payload + CRC).
pub fn encode_frame(kind: FrameKind, payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(FRAME_OVERHEAD + payload.len());
    buf.extend_from_slice(&FRAME_MAGIC);
    buf.push(kind.as_u8());
    // Saturate rather than truncate: a wrapped-around length would make the
    // receiver misparse the stream, while a saturated one fails the
    // receiver's max_frame check cleanly.
    let len = u32::try_from(payload.len()).unwrap_or(u32::MAX);
    buf.extend_from_slice(&len.to_le_bytes());
    buf.extend_from_slice(payload);
    let crc = crc32(&buf);
    buf.extend_from_slice(&crc.to_le_bytes());
    buf
}

/// Writes one frame to `w` and flushes it.
///
/// # Errors
///
/// Fails on transport errors.
pub fn write_frame(w: &mut impl Write, kind: FrameKind, payload: &[u8]) -> Result<(), FrameError> {
    let bytes = encode_frame(kind, payload);
    w.write_all(&bytes)?;
    w.flush()?;
    Ok(())
}

/// Reads exactly one frame from `r`, enforcing `limits.max_frame` and
/// verifying the CRC before the payload is surfaced.
///
/// # Errors
///
/// [`FrameError::Io`] on transport failure (a peer that disconnects
/// mid-frame surfaces as `UnexpectedEof` — a *torn frame*),
/// [`FrameError::Decode`] on bad magic / unknown type / oversized length,
/// and [`FrameError::CrcMismatch`] on corruption.
pub fn read_frame(r: &mut impl Read, limits: &Limits) -> Result<Frame, FrameError> {
    let mut header = [0u8; 7];
    r.read_exact(&mut header)?;
    if header[..2] != FRAME_MAGIC {
        return Err(DecodeError::BadMagic { what: "frame" }.into());
    }
    let kind_byte = header[2];
    let len = u32::from_le_bytes([header[3], header[4], header[5], header[6]]);
    if len > limits.max_frame {
        return Err(DecodeError::TooLong {
            what: "frame payload",
            announced: len as u64,
            max: limits.max_frame as u64,
        }
        .into());
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    let mut crc_bytes = [0u8; 4];
    r.read_exact(&mut crc_bytes)?;
    let announced = u32::from_le_bytes(crc_bytes);
    let computed = crc32_update(crc32(&header), &payload);
    if announced != computed {
        return Err(FrameError::CrcMismatch {
            announced,
            computed,
        });
    }
    // The type byte is validated only after the CRC: a corrupt frame is
    // reported as corruption, not as a mysterious unknown type.
    let kind = FrameKind::from_u8(kind_byte)?;
    Ok(Frame { kind, payload })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(kind: FrameKind, payload: &[u8]) -> Frame {
        let bytes = encode_frame(kind, payload);
        read_frame(&mut &bytes[..], &Limits::default()).expect("round trip")
    }

    #[test]
    fn frames_round_trip() {
        for kind in [
            FrameKind::Hello,
            FrameKind::Request,
            FrameKind::Response,
            FrameKind::Data,
            FrameKind::End,
            FrameKind::Error,
        ] {
            let f = round_trip(kind, b"payload bytes");
            assert_eq!(f.kind, kind);
            assert_eq!(f.payload, b"payload bytes");
        }
        assert_eq!(round_trip(FrameKind::End, b"").payload, b"");
    }

    #[test]
    fn oversized_frame_rejected_without_allocation() {
        let limits = Limits {
            max_frame: 16,
            ..Limits::default()
        };
        let bytes = encode_frame(FrameKind::Data, &[0u8; 17]);
        match read_frame(&mut &bytes[..], &limits) {
            Err(FrameError::Decode(DecodeError::TooLong { .. })) => {}
            other => panic!("expected TooLong, got {other:?}"),
        }
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let bytes = encode_frame(FrameKind::Request, b"abcdef");
        for i in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0x10;
            let result = read_frame(&mut &corrupt[..], &Limits::default());
            assert!(
                result.is_err(),
                "flipping byte {i} must not yield a valid frame"
            );
        }
    }

    #[test]
    fn every_truncation_is_a_torn_frame() {
        let bytes = encode_frame(FrameKind::Data, b"stream chunk");
        for cut in 0..bytes.len() {
            let result = read_frame(&mut &bytes[..cut], &Limits::default());
            assert!(
                matches!(result, Err(FrameError::Io(ref e)) if e.kind() == io::ErrorKind::UnexpectedEof),
                "truncating to {cut} bytes must surface a torn frame, got {result:?}"
            );
        }
    }

    #[test]
    fn timeout_classified() {
        let err = FrameError::Io(io::Error::new(io::ErrorKind::WouldBlock, "slow peer"));
        assert!(err.is_timeout());
        let err = FrameError::Io(io::Error::new(io::ErrorKind::UnexpectedEof, "gone"));
        assert!(!err.is_timeout());
    }
}
