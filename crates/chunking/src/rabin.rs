//! Rabin-fingerprint content-defined chunking, as introduced by LBFS and
//! shipped by Destor as "rabin CDC".

use crate::rolling::CutScan;
use crate::Chunker;

/// Content-defined chunker driven by a windowed Rabin fingerprint.
///
/// A cut is declared at the first position (at least `min_size` into the
/// chunk) where `hash % divisor == divisor - 1`; the divisor equals the
/// target average size so the expected spacing between cuts is the average.
/// A hard `max_size` bound caps pathological inputs (e.g. long runs of a
/// single byte where the hash never matches).
///
/// # Examples
///
/// ```
/// use hidestore_chunking::{chunk_spans, Chunker, RabinChunker};
///
/// let mut chunker = RabinChunker::new(4096);
/// assert_eq!(chunker.min_size(), 1024);
/// assert_eq!(chunker.max_size(), 4096 * 8);
/// ```
#[derive(Debug, Clone)]
pub struct RabinChunker {
    scan: CutScan,
}

impl RabinChunker {
    /// Creates a Rabin chunker with target average chunk size `avg_size`.
    ///
    /// Minimum size is `avg_size / 4`, maximum is `avg_size * 8` — the
    /// conventional LBFS/Destor ratios.
    ///
    /// # Panics
    ///
    /// Panics if `avg_size < 64`.
    pub fn new(avg_size: usize) -> Self {
        Self::with_bounds(avg_size, avg_size / 4, avg_size * 8)
    }

    /// Creates a Rabin chunker with explicit minimum and maximum sizes.
    ///
    /// # Panics
    ///
    /// Panics if `avg_size < 64`, `min_size == 0`, or the bounds are not
    /// `min_size <= avg_size <= max_size`.
    pub fn with_bounds(avg_size: usize, min_size: usize, max_size: usize) -> Self {
        assert!(
            avg_size >= 64,
            "average chunk size must be at least 64 bytes"
        );
        assert!(min_size > 0, "minimum chunk size must be non-zero");
        assert!(
            min_size <= avg_size && avg_size <= max_size,
            "bounds must satisfy min <= avg <= max"
        );
        RabinChunker {
            scan: CutScan::new(min_size, max_size, avg_size as u64, None),
        }
    }
}

impl Chunker for RabinChunker {
    fn next_chunk_len(&mut self, data: &[u8]) -> usize {
        self.scan.next_chunk_len(data)
    }

    fn min_size(&self) -> usize {
        self.scan.min_size()
    }

    fn max_size(&self) -> usize {
        self.scan.max_size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk_spans;

    fn noise(len: usize) -> Vec<u8> {
        let mut state = 0x1234_5678_9ABC_DEF0u64;
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 32) as u8
            })
            .collect()
    }

    #[test]
    fn cuts_match_bit_serial_reference() {
        use crate::rolling::reference::{assert_same_cuts, Cut};
        let mut kinds = std::collections::BTreeSet::new();
        for avg in [64, 100, 1015, 1024, 4096, 8192, 65536] {
            let scan = RabinChunker::new(avg).scan;
            kinds.extend(assert_same_cuts(&scan, &format!("rabin {avg}")));
        }
        // min_size inside the window with explicit bounds too.
        let scan = RabinChunker::with_bounds(64, 1, 64).scan;
        kinds.extend(assert_same_cuts(&scan, "rabin 64 in 1..=64"));
        let all = [Cut::Main, Cut::Forced, Cut::Tail];
        assert!(kinds.iter().eq(&all), "cut kinds exercised: {kinds:?}");
    }

    #[test]
    fn constant_input_hits_max_size() {
        // A single repeated byte gives a constant rolling hash; unless that
        // value happens to match, every chunk is max-sized.
        let data = vec![0u8; 100_000];
        let mut c = RabinChunker::new(1024);
        let spans = chunk_spans(&mut c, &data);
        assert!(spans[..spans.len() - 1]
            .iter()
            .all(|s| s.len() == c.max_size() || s.len() >= c.min_size()));
    }

    #[test]
    fn average_in_expected_band() {
        let data = noise(2_000_000);
        let mut c = RabinChunker::new(4096);
        let spans = chunk_spans(&mut c, &data);
        let avg = data.len() / spans.len();
        assert!((2048..=8192).contains(&avg), "avg {avg}");
    }

    #[test]
    fn min_size_enforced() {
        let data = noise(500_000);
        let mut c = RabinChunker::new(1024);
        let spans = chunk_spans(&mut c, &data);
        for s in &spans[..spans.len() - 1] {
            assert!(s.len() >= 256);
        }
    }

    #[test]
    fn identical_suffixes_share_boundaries() {
        let shared = noise(300_000);
        let mut with_prefix = vec![0xEEu8; 1000];
        with_prefix.extend_from_slice(&shared);
        let mut c = RabinChunker::new(2048);
        let a: std::collections::HashSet<usize> = chunk_spans(&mut c, &shared)
            .iter()
            .map(|s| shared.len() - s.end)
            .collect();
        let b: std::collections::HashSet<usize> = chunk_spans(&mut c, &with_prefix)
            .iter()
            .map(|s| with_prefix.len() - s.end)
            .collect();
        let survived = a.intersection(&b).count();
        assert!(survived * 10 >= a.len() * 9, "{survived}/{}", a.len());
    }

    #[test]
    #[should_panic(expected = "bounds must satisfy")]
    fn invalid_bounds_rejected() {
        RabinChunker::with_bounds(1024, 4096, 512);
    }

    #[test]
    fn short_stream_is_one_chunk() {
        let mut c = RabinChunker::new(4096);
        assert_eq!(chunk_spans(&mut c, &noise(100)), vec![0..100]);
    }
}
