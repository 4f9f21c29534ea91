//! A Bloom filter over chunk fingerprints — DDFS's in-memory "summary
//! vector" (Zhu et al., FAST'08) that eliminates disk lookups for most
//! unique chunks.

use hidestore_hash::Fingerprint;

/// Bloom filter keyed by [`Fingerprint`]s.
///
/// Uses the standard double-hashing construction `h_i = h1 + i * h2`; the two
/// base hashes are read directly from the fingerprint, which is already a
/// cryptographic digest, so no further mixing is needed.
#[derive(Debug, Clone)]
pub(crate) struct BloomFilter {
    bits: Vec<u64>,
    n_bits: u64,
    n_hashes: u32,
}

impl BloomFilter {
    /// Sizes the filter for `expected_items` at the given target false
    /// positive rate, using the standard optimal formulas.
    ///
    /// # Panics
    ///
    /// Panics if `expected_items == 0` or `fp_rate` is not in `(0, 1)`.
    pub fn with_capacity(expected_items: usize, fp_rate: f64) -> Self {
        assert!(expected_items > 0, "expected_items must be non-zero");
        assert!(fp_rate > 0.0 && fp_rate < 1.0, "fp_rate must be in (0, 1)");
        let ln2 = std::f64::consts::LN_2;
        let n_bits = ((expected_items as f64) * (-fp_rate.ln()) / (ln2 * ln2)).ceil() as u64;
        let n_bits = n_bits.max(64);
        let n_hashes = ((n_bits as f64 / expected_items as f64) * ln2)
            .round()
            .max(1.0) as u32;
        BloomFilter {
            bits: vec![0; n_bits.div_ceil(64) as usize],
            n_bits,
            n_hashes,
        }
    }

    fn positions(&self, fp: &Fingerprint) -> impl Iterator<Item = u64> + '_ {
        let bytes = fp.as_bytes();
        let mut word = [0u8; 8];
        word.copy_from_slice(&bytes[..8]);
        let h1 = u64::from_le_bytes(word);
        word.copy_from_slice(&bytes[8..16]);
        let h2 = u64::from_le_bytes(word) | 1;
        let n_bits = self.n_bits;
        (0..self.n_hashes as u64).map(move |i| h1.wrapping_add(i.wrapping_mul(h2)) % n_bits)
    }

    /// Inserts a fingerprint.
    pub fn insert(&mut self, fp: &Fingerprint) {
        let positions: Vec<u64> = self.positions(fp).collect();
        for pos in positions {
            self.bits[(pos / 64) as usize] |= 1 << (pos % 64);
        }
    }

    /// Whether the fingerprint *may* have been inserted (false positives
    /// possible at the configured rate, never false negatives).
    pub fn contains(&self, fp: &Fingerprint) -> bool {
        self.positions(fp)
            .all(|pos| self.bits[(pos / 64) as usize] & (1 << (pos % 64)) != 0)
    }

    /// Memory footprint of the bit array in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.bits.len() * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_false_negatives() {
        let mut b = BloomFilter::with_capacity(1000, 0.01);
        let fps: Vec<Fingerprint> = (0..1000).map(Fingerprint::synthetic).collect();
        for fp in &fps {
            b.insert(fp);
        }
        for fp in &fps {
            assert!(b.contains(fp));
        }
    }

    #[test]
    fn false_positive_rate_near_target() {
        let mut b = BloomFilter::with_capacity(10_000, 0.01);
        for i in 0..10_000 {
            b.insert(&Fingerprint::synthetic(i));
        }
        let false_positives = (10_000..110_000u64)
            .filter(|&i| b.contains(&Fingerprint::synthetic(i)))
            .count();
        let rate = false_positives as f64 / 100_000.0;
        assert!(rate < 0.03, "observed fp rate {rate}");
    }

    #[test]
    fn empty_filter_contains_nothing() {
        let b = BloomFilter::with_capacity(100, 0.01);
        assert!(!b.contains(&Fingerprint::synthetic(1)));
    }

    #[test]
    fn memory_scales_with_capacity() {
        let small = BloomFilter::with_capacity(1_000, 0.01);
        let large = BloomFilter::with_capacity(100_000, 0.01);
        assert!(large.memory_bytes() > small.memory_bytes() * 50);
    }

    #[test]
    #[should_panic(expected = "fp_rate")]
    fn invalid_rate_rejected() {
        BloomFilter::with_capacity(10, 1.5);
    }
}
