//! The framing layer: every byte on a daemon connection travels
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
//!
//! Byte streams (a backup upload, a restore download) travel as DATA
//! frames of at most [`DATA_CHUNK`] payload bytes in both directions:
//! [`DataWriter`] builds each one in place, and [`read_frame_into`] appends
//! each payload to a buffer the caller reuses.

use std::fmt;
use std::io::{self, Read, Write};

use hidestore_hash::{crc32, crc32_update};

use crate::wire::DecodeError;

/// The two magic bytes opening every frame.
pub const FRAME_MAGIC: [u8; 2] = *b"HD";

/// Bytes of framing overhead around a payload (magic + type + length + CRC).
pub const FRAME_OVERHEAD: usize = HEADER + 4;

/// Bytes before the payload: magic, type and length.
const HEADER: usize = 2 + 1 + 4;

/// Payload bytes per DATA frame: a backup upload and a restore's output
/// are cut into frames of at most this many bytes.
pub const DATA_CHUNK: usize = 256 * 1024;

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

/// The header of a `kind` frame announcing `len` payload bytes.
fn header(kind: FrameKind, len: usize) -> [u8; HEADER] {
    // Saturate rather than truncate: a wrapped-around length would make the
    // receiver misparse the stream, while a saturated one fails the
    // receiver's max_frame check cleanly.
    let len = u32::try_from(len).unwrap_or(u32::MAX).to_le_bytes();
    let [m0, m1] = FRAME_MAGIC;
    [m0, m1, kind.as_u8(), len[0], len[1], len[2], len[3]]
}

/// Encodes a frame into a standalone byte vector (header + payload + CRC).
pub fn encode_frame(kind: FrameKind, payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(FRAME_OVERHEAD + payload.len());
    buf.extend_from_slice(&header(kind, payload.len()));
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

/// An [`io::Write`] that sends everything written to it as DATA frames of
/// at most [`DATA_CHUNK`] payload bytes.
///
/// Each frame is built in place in one reused buffer: the header in front,
/// the payload copied in once, the CRC appended when the frame goes out.
/// A full frame goes out before the next byte is taken, and `flush` sends
/// the partial one (an empty flush sends nothing). Every frame's bytes
/// equal [`encode_frame`]`(FrameKind::Data, payload)`. Dropping the writer
/// discards an unsent partial frame, so a failed stream never ends on a
/// frame its producer did not finish.
pub struct DataWriter<W: Write> {
    inner: W,
    /// The frame being built: header, then the payload so far.
    frame: Vec<u8>,
}

impl<W: Write> DataWriter<W> {
    /// A writer framing onto `inner`.
    pub fn new(inner: W) -> Self {
        let mut frame = Vec::with_capacity(FRAME_OVERHEAD + DATA_CHUNK);
        frame.extend_from_slice(&header(FrameKind::Data, 0));
        DataWriter { inner, frame }
    }

    /// Seals the frame being built, writes and flushes it, and starts the
    /// next one. Does nothing when no payload is pending.
    fn send(&mut self) -> io::Result<()> {
        let len = self.frame.len() - HEADER;
        if len == 0 {
            return Ok(());
        }
        self.frame[..HEADER].copy_from_slice(&header(FrameKind::Data, len));
        let crc = crc32(&self.frame);
        self.frame.extend_from_slice(&crc.to_le_bytes());
        let sent = self
            .inner
            .write_all(&self.frame)
            .and_then(|()| self.inner.flush());
        self.frame.truncate(HEADER);
        sent
    }
}

impl<W: Write> Write for DataWriter<W> {
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        if self.frame.len() == HEADER + DATA_CHUNK {
            self.send()?;
        }
        let n = data.len().min(HEADER + DATA_CHUNK - self.frame.len());
        self.frame.extend_from_slice(&data[..n]);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.send()
    }
}

/// Reads exactly one frame from `r`, enforcing `limits.max_frame` and
/// verifying the CRC before the payload is surfaced: [`read_frame_into`]
/// into a fresh buffer.
///
/// # Errors
///
/// As [`read_frame_into`].
pub fn read_frame(r: &mut impl Read, limits: &Limits) -> Result<Frame, FrameError> {
    let mut payload = Vec::new();
    let kind = read_frame_into(r, limits, &mut payload)?;
    Ok(Frame { kind, payload })
}

/// Reads exactly one frame from `r` and appends its payload to `buf`,
/// returning its kind. The length is checked against `limits.max_frame`
/// before `buf` grows, and the CRC before the kind is surfaced. On any
/// error `buf` is truncated back to its old length, so it only ever gains
/// whole, verified payloads.
///
/// # Errors
///
/// [`FrameError::Io`] on transport failure (a peer that disconnects
/// mid-frame surfaces as `UnexpectedEof` — a *torn frame*),
/// [`FrameError::Decode`] on bad magic / unknown type / oversized length,
/// and [`FrameError::CrcMismatch`] on corruption.
pub fn read_frame_into(
    r: &mut impl Read,
    limits: &Limits,
    buf: &mut Vec<u8>,
) -> Result<FrameKind, FrameError> {
    let start = buf.len();
    let read = append_frame(r, limits, buf, start);
    if read.is_err() {
        buf.truncate(start);
    }
    read
}

fn append_frame(
    r: &mut impl Read,
    limits: &Limits,
    buf: &mut Vec<u8>,
    start: usize,
) -> Result<FrameKind, FrameError> {
    let mut header = [0u8; HEADER];
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
    buf.resize(start + len as usize, 0);
    r.read_exact(&mut buf[start..])?;
    let mut crc_bytes = [0u8; 4];
    r.read_exact(&mut crc_bytes)?;
    let announced = u32::from_le_bytes(crc_bytes);
    let computed = crc32_update(crc32(&header), &buf[start..]);
    if announced != computed {
        return Err(FrameError::CrcMismatch {
            announced,
            computed,
        });
    }
    // The type byte is validated only after the CRC: a corrupt frame is
    // reported as corruption, not as a mysterious unknown type.
    Ok(FrameKind::from_u8(kind_byte)?)
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
    fn data_frame_bit_flips_at_crc_lane_edges_are_detected() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        // The CRC kernel's lane (`hidestore_hash::crc32`): 256 bytes, four
        // to a 1 KiB stride, so every stride edge is also a lane edge.
        const LANE: usize = 256;
        const HEADER: usize = 7;
        let mut rng = StdRng::seed_from_u64(0xDA7A_F12A);
        let mut payload = vec![0u8; 256 * 1024];
        rng.fill(&mut payload);
        let mut frame = encode_frame(FrameKind::Data, &payload);

        // The reader runs the CRC over the header, then over the payload
        // where it lies: lanes start at payload offsets.
        let (header, rest) = frame.split_at(HEADER);
        assert_eq!(
            crc32_update(crc32(header), &rest[..payload.len()]),
            crc32(&frame[..HEADER + payload.len()])
        );

        let mut flips: Vec<usize> = (0..=payload.len() / LANE)
            .flat_map(|edge| {
                let at = HEADER + edge * LANE;
                [at - 1, at, at + 1]
            })
            // The byte before the payload is the length's: flipping it is
            // a length error, not a CRC one.
            .filter(|&at| at >= HEADER)
            .collect();
        flips.extend((0..64).map(|_| HEADER + rng.gen_range(0..payload.len())));
        for at in flips {
            let bit = 1u8 << (at % 8);
            frame[at] ^= bit;
            let result = read_frame(&mut &frame[..], &Limits::default());
            assert!(
                matches!(result, Err(FrameError::CrcMismatch { .. })),
                "bit {bit:#04x} flipped at frame byte {at}: {result:?}"
            );
            frame[at] ^= bit;
        }
        assert_eq!(
            read_frame(&mut &frame[..], &Limits::default())
                .expect("clean frame")
                .payload,
            payload
        );
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

    /// Everything `chunks` yields, written through one [`DataWriter`] and
    /// flushed once.
    fn data_frames<'a>(chunks: impl IntoIterator<Item = &'a [u8]>) -> Vec<u8> {
        let mut wire = Vec::new();
        let mut writer = DataWriter::new(&mut wire);
        for chunk in chunks {
            writer.write_all(chunk).expect("write to memory");
        }
        writer.flush().expect("flush to memory");
        wire
    }

    #[test]
    fn data_writer_frames_equal_encode_frame_of_consecutive_chunks() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let mut rng = StdRng::seed_from_u64(0xDA7A_0043);
        let mut data = vec![0u8; 9 << 20];
        rng.fill(&mut data[..]);
        for len in [1, DATA_CHUNK - 1, DATA_CHUNK, DATA_CHUNK + 1, 9 << 20] {
            let data = &data[..len];
            let expected: Vec<u8> = data
                .chunks(DATA_CHUNK)
                .flat_map(|chunk| encode_frame(FrameKind::Data, chunk))
                .collect();
            assert_eq!(data_frames([data]), expected, "one write of {len} bytes");
            // Split writes that straddle frame edges frame the same.
            assert_eq!(
                data_frames(data.chunks(7 * 1024 + 3)),
                expected,
                "7 KiB writes of {len} bytes"
            );

            let mut wire = &expected[..];
            let mut payload = Vec::new();
            while !wire.is_empty() {
                payload.clear();
                let kind = read_frame_into(&mut wire, &Limits::default(), &mut payload);
                assert_eq!(kind.expect("clean frame"), FrameKind::Data);
                assert!(!payload.is_empty() && payload.len() <= DATA_CHUNK);
            }
        }
        let single: Vec<u8> = data_frames((0..3).map(|i| &data[i..=i]));
        assert_eq!(single, encode_frame(FrameKind::Data, &data[..3]));
    }

    #[test]
    fn an_empty_flush_writes_nothing() {
        assert!(data_frames([]).is_empty());
        assert!(data_frames([&[][..]]).is_empty());
        let mut wire = Vec::new();
        let mut writer = DataWriter::new(&mut wire);
        writer.write_all(&[7; DATA_CHUNK]).expect("write to memory");
        writer.flush().expect("flush to memory");
        writer.flush().expect("flush to memory");
        assert_eq!(wire, encode_frame(FrameKind::Data, &[7; DATA_CHUNK]));
    }

    #[test]
    fn read_frame_into_appends_after_existing_bytes() {
        let mut wire = encode_frame(FrameKind::Data, b"second");
        wire.extend_from_slice(&encode_frame(FrameKind::End, b""));
        let mut r = &wire[..];
        let mut buf = b"first ".to_vec();
        let limits = Limits::default();
        assert_eq!(
            read_frame_into(&mut r, &limits, &mut buf).unwrap(),
            FrameKind::Data
        );
        assert_eq!(buf, b"first second");
        assert_eq!(
            read_frame_into(&mut r, &limits, &mut buf).unwrap(),
            FrameKind::End
        );
        assert_eq!(buf, b"first second");
        assert!(r.is_empty());
    }

    #[test]
    fn a_failed_read_leaves_the_buffer_at_its_old_length() {
        let payload = [0x5Au8; 1000];
        let frame = encode_frame(FrameKind::Data, &payload);
        let crc_at = frame.len() - 4;
        let mut crc_flipped = frame.clone();
        crc_flipped[crc_at] ^= 1;
        let mut payload_flipped = frame.clone();
        payload_flipped[HEADER + 500] ^= 1;
        // A valid CRC over an unknown kind byte.
        let mut unknown = frame[..crc_at].to_vec();
        unknown[2] = 9;
        let crc = crc32(&unknown);
        unknown.extend_from_slice(&crc.to_le_bytes());
        let tight = Limits {
            max_frame: 999,
            ..Limits::default()
        };

        let cases: [(&str, &[u8], Limits); 6] = [
            ("torn payload", &frame[..HEADER + 600], Limits::default()),
            ("torn CRC", &frame[..crc_at + 2], Limits::default()),
            ("CRC flipped", &crc_flipped, Limits::default()),
            ("payload flipped", &payload_flipped, Limits::default()),
            ("unknown kind", &unknown, Limits::default()),
            ("over max_frame", &frame, tight),
        ];
        for (what, bytes, limits) in cases {
            let mut buf = b"earlier frames".to_vec();
            let result = read_frame_into(&mut &bytes[..], &limits, &mut buf);
            assert!(result.is_err(), "{what}: {result:?}");
            assert_eq!(buf, b"earlier frames", "{what}");
        }
        assert!(matches!(
            read_frame_into(&mut &unknown[..], &Limits::default(), &mut Vec::new()),
            Err(FrameError::Decode(DecodeError::BadTag { tag: 9, .. }))
        ));
    }

    #[test]
    fn timeout_classified() {
        let err = FrameError::Io(io::Error::new(io::ErrorKind::WouldBlock, "slow peer"));
        assert!(err.is_timeout());
        let err = FrameError::Io(io::Error::new(io::ErrorKind::UnexpectedEof, "gone"));
        assert!(!err.is_timeout());
    }
}
