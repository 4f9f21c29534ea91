//! Little-endian byte-level encoding shared by every protocol message and
//! every on-disk format: containers, recipes, the meta file, the commit
//! journal and tree manifests all read and write through
//! [`ByteWriter`]/[`ByteReader`].
//!
//! All multi-byte integers are little-endian. Wire strings are `u32`
//! length + UTF-8 bytes, on-disk path strings `u16` length + UTF-8 bytes;
//! sequences are `u32` count + elements. Floats travel as their IEEE-754
//! bit pattern (`f64::to_bits`).

use std::fmt;

use crate::tenant::TenantIdError;

/// Typed decoding failure. Every malformed input maps to one of these —
/// decoding never panics, whatever the bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The input ended before the announced structure was complete.
    UnexpectedEof {
        /// How many more bytes were needed.
        needed: usize,
        /// How many bytes remained.
        remaining: usize,
    },
    /// An enum tag byte had no defined meaning.
    BadTag {
        /// The message kind being decoded (for diagnostics).
        what: &'static str,
        /// The offending tag value.
        tag: u8,
    },
    /// A magic prefix did not match.
    BadMagic {
        /// The structure whose magic was wrong.
        what: &'static str,
    },
    /// A length field exceeded the permitted maximum.
    TooLong {
        /// The structure whose length was excessive.
        what: &'static str,
        /// The announced length.
        announced: u64,
        /// The permitted maximum.
        max: u64,
    },
    /// A string field was not valid UTF-8.
    BadUtf8,
    /// A tenant envelope named a tenant id that fails validation (empty,
    /// too long, path traversal, bad characters). Rejected here so a
    /// hostile id never reaches dispatch, let alone the filesystem.
    InvalidTenant(TenantIdError),
    /// Trailing bytes remained after a complete message was decoded.
    TrailingBytes {
        /// How many bytes were left over.
        remaining: usize,
    },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::UnexpectedEof { needed, remaining } => {
                write!(
                    f,
                    "unexpected end of input: needed {needed} more bytes, {remaining} left"
                )
            }
            DecodeError::BadTag { what, tag } => write!(f, "unknown {what} tag {tag}"),
            DecodeError::BadMagic { what } => write!(f, "bad {what} magic"),
            DecodeError::TooLong {
                what,
                announced,
                max,
            } => write!(f, "{what} length {announced} exceeds maximum {max}"),
            DecodeError::BadUtf8 => write!(f, "string field is not valid UTF-8"),
            DecodeError::InvalidTenant(err) => write!(f, "invalid tenant id: {err}"),
            DecodeError::TrailingBytes { remaining } => {
                write!(f, "{remaining} trailing bytes after message")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// Maximum encoded length accepted for a string field. Keeps a corrupt
/// length field from asking the decoder to allocate gigabytes.
pub const MAX_STRING_LEN: u32 = 1 << 20;

/// Maximum element count accepted for a sequence field.
pub const MAX_SEQ_LEN: u32 = 1 << 20;

/// The most [`ByteWriter::with_capacity`] reserves up front; a larger
/// encode grows the buffer on demand.
pub const MAX_PREALLOC: usize = 1 << 28;

/// Appends little-endian primitives to a byte buffer.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty writer with room for `capacity` bytes (at most
    /// [`MAX_PREALLOC`]), for encoders that know their exact size.
    pub fn with_capacity(capacity: usize) -> Self {
        ByteWriter {
            buf: Vec::with_capacity(capacity.min(MAX_PREALLOC)),
        }
    }

    /// Consumes the writer, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u16` little-endian.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u32` little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64` little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `i64` little-endian (two's complement).
    pub fn i64(&mut self, v: i64) {
        self.u64(v.cast_unsigned());
    }

    /// Appends an `f64` as its IEEE-754 bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Appends raw bytes with no length prefix.
    pub fn raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends a `usize` length or count as a `u32`, saturating instead of
    /// truncating on overflow. A saturated value always exceeds
    /// [`MAX_STRING_LEN`]/[`MAX_SEQ_LEN`], so the decoder rejects the frame
    /// with [`DecodeError::TooLong`] rather than silently reading a
    /// wrapped-around length (fail closed).
    pub fn len_u32(&mut self, n: usize) {
        self.u32(u32::try_from(n).unwrap_or(u32::MAX));
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn string(&mut self, s: &str) {
        self.len_u32(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Appends a `u16`-length-prefixed UTF-8 string. A string too long for
    /// the prefix announces `u16::MAX`, which [`ByteReader::string_u16`]
    /// rejects (fail closed, as for [`ByteWriter::len_u32`]).
    pub fn string_u16(&mut self, s: &str) {
        self.u16(u16::try_from(s.len()).unwrap_or(u16::MAX));
        self.buf.extend_from_slice(s.as_bytes());
    }
}

/// Reads little-endian primitives from a byte slice, tracking position.
#[derive(Debug)]
pub struct ByteReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Wraps `bytes` for sequential decoding.
    pub fn new(bytes: &'a [u8]) -> Self {
        ByteReader { bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Fails with [`DecodeError::TrailingBytes`] unless everything was
    /// consumed — decoding a complete message must account for every byte.
    pub fn finish(&self) -> Result<(), DecodeError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(DecodeError::TrailingBytes {
                remaining: self.remaining(),
            })
        }
    }

    /// Reads the next `n` bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError::UnexpectedEof {
                needed: n,
                remaining: self.remaining(),
            });
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads the next `N` bytes as an array (a magic, a fingerprint).
    pub fn array<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.bytes(N)?);
        Ok(out)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.bytes(1)?[0])
    }

    /// Reads a `u16` little-endian.
    pub fn u16(&mut self) -> Result<u16, DecodeError> {
        Ok(u16::from_le_bytes(self.array()?))
    }

    /// Reads a `u32` little-endian.
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// Reads a `u64` little-endian.
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// Reads an `i64` little-endian (two's complement).
    pub fn i64(&mut self) -> Result<i64, DecodeError> {
        Ok(i64::from_le_bytes(self.array()?))
    }

    /// Reads an `f64` from its IEEE-754 bit pattern.
    pub fn f64(&mut self) -> Result<f64, DecodeError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn string(&mut self) -> Result<String, DecodeError> {
        let len = self.u32()?;
        if len > MAX_STRING_LEN {
            return Err(DecodeError::TooLong {
                what: "string",
                announced: len as u64,
                max: MAX_STRING_LEN as u64,
            });
        }
        self.utf8(len as usize)
    }

    /// Reads a `u16`-length-prefixed UTF-8 string.
    pub fn string_u16(&mut self) -> Result<String, DecodeError> {
        let len = self.u16()?;
        if len == u16::MAX {
            return Err(DecodeError::TooLong {
                what: "string",
                announced: len.into(),
                max: (u16::MAX - 1).into(),
            });
        }
        self.utf8(len.into())
    }

    fn utf8(&mut self, len: usize) -> Result<String, DecodeError> {
        std::str::from_utf8(self.bytes(len)?)
            .map(str::to_owned)
            .map_err(|_| DecodeError::BadUtf8)
    }

    /// Consumes and returns every remaining byte. Used by envelope
    /// decoders that strip a prefix and hand the rest to an inner decoder.
    pub fn rest(&mut self) -> &'a [u8] {
        let slice = &self.bytes[self.pos..];
        self.pos = self.bytes.len();
        slice
    }

    /// Reads a sequence length prefix, bounded by [`MAX_SEQ_LEN`].
    pub fn seq_len(&mut self) -> Result<usize, DecodeError> {
        let len = self.u32()?;
        if len > MAX_SEQ_LEN {
            return Err(DecodeError::TooLong {
                what: "sequence",
                announced: len as u64,
                max: MAX_SEQ_LEN as u64,
            });
        }
        Ok(len as usize)
    }

    /// Reads a `u32` element count and checks that that many elements of
    /// at least `elem_len` bytes fit in what remains, so a corrupt count
    /// fails here instead of sizing an allocation.
    pub fn count_within(
        &mut self,
        what: &'static str,
        elem_len: usize,
    ) -> Result<usize, DecodeError> {
        let count = self.u32()?;
        let max = self.remaining() / elem_len.max(1);
        if count as usize > max {
            return Err(DecodeError::TooLong {
                what,
                announced: count.into(),
                max: max as u64,
            });
        }
        Ok(count as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = ByteWriter::new();
        w.u8(7);
        w.u16(0xBEEF);
        w.u32(0xDEAD_BEEF);
        w.u64(0x0123_4567_89AB_CDEF);
        w.f64(1.25);
        w.string("héllo");
        w.i64(-7);
        w.string_u16("apath/ü");
        w.raw(b"HDSC");
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 0xBEEF);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), 0x0123_4567_89AB_CDEF);
        assert_eq!(r.f64().unwrap(), 1.25);
        assert_eq!(r.string().unwrap(), "héllo");
        assert_eq!(r.i64().unwrap(), -7);
        assert_eq!(r.string_u16().unwrap(), "apath/ü");
        assert_eq!(&r.array::<4>().unwrap(), b"HDSC");
        r.finish().unwrap();
    }

    #[test]
    fn eof_is_typed() {
        let mut r = ByteReader::new(&[1, 2]);
        assert!(matches!(r.u32(), Err(DecodeError::UnexpectedEof { .. })));
    }

    #[test]
    fn oversized_string_rejected() {
        let mut w = ByteWriter::new();
        w.u32(MAX_STRING_LEN + 1);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert!(matches!(r.string(), Err(DecodeError::TooLong { .. })));
    }

    #[test]
    fn overlong_short_string_fails_closed() {
        let mut w = ByteWriter::new();
        w.string_u16(&"x".repeat(70_000));
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert!(matches!(r.string_u16(), Err(DecodeError::TooLong { .. })));
    }

    #[test]
    fn count_is_bounded_by_the_remaining_bytes() {
        let mut w = ByteWriter::new();
        w.u32(3);
        w.raw(&[0; 84]);
        let bytes = w.into_bytes();
        assert_eq!(ByteReader::new(&bytes).count_within("entries", 28), Ok(3));
        assert_eq!(
            ByteReader::new(&bytes[..87]).count_within("entries", 28),
            Err(DecodeError::TooLong {
                what: "entries",
                announced: 3,
                max: 2
            })
        );
        let mut w = ByteWriter::new();
        w.u32(u32::MAX);
        let bytes = w.into_bytes();
        assert!(ByteReader::new(&bytes).count_within("entries", 0).is_err());
    }

    #[test]
    fn invalid_utf8_rejected() {
        let mut w = ByteWriter::new();
        w.u32(2);
        w.raw(&[0xFF, 0xFE]);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.string(), Err(DecodeError::BadUtf8));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let r = ByteReader::new(&[0]);
        assert_eq!(r.finish(), Err(DecodeError::TrailingBytes { remaining: 1 }));
    }
}
