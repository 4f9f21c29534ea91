#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Cryptographic fingerprinting substrate for the HiDeStore reproduction.
//!
//! Chunk-based deduplication systems identify duplicate chunks by comparing
//! cryptographic digests ("fingerprints") instead of the chunk contents.
//! The HiDeStore paper (Middleware 2020, §2.1) uses 20-byte SHA-1
//! fingerprints, noting the probability of a hash collision is far below the
//! probability of a hardware error. This crate implements that digest,
//! [`Sha1`], from scratch (no external hashing dependency), the [`crc32`]
//! checksum that guards every on-disk and wire record, and the
//! [`Fingerprint`] newtype used as the key of every index structure in the
//! rest of the workspace.
//!
//! # Examples
//!
//! ```
//! use hidestore_hash::{Fingerprint, Sha1};
//!
//! let fp = Fingerprint::of(b"hello backup world");
//! assert_eq!(fp, Fingerprint::of(b"hello backup world"));
//! assert_ne!(fp, Fingerprint::of(b"a different chunk"));
//!
//! // Incremental hashing produces the same digest as one-shot hashing.
//! let mut hasher = Sha1::new();
//! hasher.update(b"hello ");
//! hasher.update(b"backup world");
//! assert_eq!(Fingerprint::from_bytes(hasher.finalize()), fp);
//! ```

mod crc32;
mod fingerprint;
mod parallel;
mod sha1;

pub use crc32::{crc32, crc32_update};
pub use fingerprint::{Fingerprint, ParseFingerprintError, FINGERPRINT_LEN};
pub use parallel::{default_hash_threads, fingerprints_parallel};
pub use sha1::Sha1;

/// Deterministic noise for the kernels' exact-output tests (xorshift64).
#[cfg(test)]
fn noise(len: usize) -> Vec<u8> {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    (0..len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 32) as u8
        })
        .collect()
}
