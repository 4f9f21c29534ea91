//! The 20-byte chunk fingerprint used as the key of every deduplication
//! index in the workspace.

use std::fmt;

use crate::Sha1;

/// Length in bytes of a [`Fingerprint`] (SHA-1 output width).
pub const FINGERPRINT_LEN: usize = 20;

/// A 20-byte SHA-1 chunk fingerprint.
///
/// Fingerprints identify chunks in recipes, containers, and every index
/// structure (DDFS full index, sparse index manifests, SiLo similarity table,
/// HiDeStore's T1/T2 hash tables). Two chunks with equal fingerprints are
/// treated as identical, following the standard deduplication assumption that
/// a SHA-1 collision is less likely than a hardware error (paper §2.1).
///
/// # Examples
///
/// ```
/// use hidestore_hash::Fingerprint;
///
/// let fp = Fingerprint::of(b"abc");
/// assert_eq!(fp.to_string(), "a9993e364706816aba3e25717850c26c9cd0d89d");
/// assert_eq!(fp, Fingerprint::from_bytes(*fp.as_bytes()));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Fingerprint([u8; FINGERPRINT_LEN]);

impl Fingerprint {
    /// Computes the SHA-1 fingerprint of `data`.
    pub fn of(data: &[u8]) -> Self {
        Fingerprint(Sha1::hash(data))
    }

    /// Wraps raw digest bytes as a fingerprint.
    pub const fn from_bytes(bytes: [u8; FINGERPRINT_LEN]) -> Self {
        Fingerprint(bytes)
    }

    /// Returns the underlying digest bytes.
    pub const fn as_bytes(&self) -> &[u8; FINGERPRINT_LEN] {
        &self.0
    }

    /// Returns the first 8 bytes as a `u64`, useful for sampling decisions
    /// (e.g. sparse-index hooks select fingerprints where
    /// `prefix64() % sample_rate == 0`).
    pub fn prefix64(&self) -> u64 {
        let mut prefix = [0u8; 8];
        prefix.copy_from_slice(&self.0[..8]);
        u64::from_be_bytes(prefix)
    }

    /// A deterministic fingerprint for tests and trace-driven simulations
    /// that don't hash real data: encodes `n` into the digest bytes.
    ///
    /// Distinct `n` always yield distinct fingerprints.
    pub fn synthetic(n: u64) -> Self {
        let mut bytes = [0u8; FINGERPRINT_LEN];
        bytes[..8].copy_from_slice(&n.to_be_bytes());
        // Mix into the tail so synthetic fingerprints don't all share a suffix,
        // which would bias sampling-based indexes.
        let mixed = n.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(31);
        bytes[8..16].copy_from_slice(&mixed.to_be_bytes());
        bytes[16..20].copy_from_slice(&(n as u32 ^ 0xDEAD_BEEF).to_be_bytes());
        Fingerprint(bytes)
    }
}

impl fmt::Debug for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Abbreviate: full 40-hex-char dumps make test output unreadable.
        write!(
            f,
            "Fingerprint({:02x}{:02x}{:02x}{:02x}..)",
            self.0[0], self.0[1], self.0[2], self.0[3]
        )
    }
}

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for b in &self.0 {
            write!(f, "{b:02x}")?;
        }
        Ok(())
    }
}

impl From<[u8; FINGERPRINT_LEN]> for Fingerprint {
    fn from(bytes: [u8; FINGERPRINT_LEN]) -> Self {
        Fingerprint(bytes)
    }
}

impl AsRef<[u8]> for Fingerprint {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn of_matches_sha1() {
        assert_eq!(Fingerprint::of(b"abc").as_bytes(), &Sha1::hash(b"abc"));
    }

    #[test]
    fn display_is_the_digest_in_lower_hex() {
        let fp = Fingerprint::of(b"round trip");
        let s = fp.to_string();
        assert_eq!(s.len(), 40);
        let hex: String = fp.as_bytes().iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(s, hex);
    }

    #[test]
    fn synthetic_distinct() {
        let a = Fingerprint::synthetic(1);
        let b = Fingerprint::synthetic(2);
        assert_ne!(a, b);
        assert_eq!(a, Fingerprint::synthetic(1));
    }

    #[test]
    fn prefix64_is_big_endian_prefix() {
        let mut bytes = [0u8; 20];
        bytes[..8].copy_from_slice(&42u64.to_be_bytes());
        assert_eq!(Fingerprint::from_bytes(bytes).prefix64(), 42);
    }

    #[test]
    fn debug_is_abbreviated_and_nonempty() {
        let dbg = format!("{:?}", Fingerprint::of(b"x"));
        assert!(dbg.starts_with("Fingerprint("));
        assert!(dbg.len() < 30);
    }

    #[test]
    fn ordering_is_lexicographic() {
        let lo = Fingerprint::from_bytes([0; 20]);
        let hi = Fingerprint::from_bytes([255; 20]);
        assert!(lo < hi);
    }
}
