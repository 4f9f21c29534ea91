//! FastCDC chunking (Xia et al., USENIX ATC 2016): gear rolling hash with
//! normalized chunking.

use crate::rolling::{gear_step, spread_mask};
use crate::Chunker;

/// FastCDC content-defined chunker.
///
/// Three optimizations over Rabin CDC, per the paper:
///
/// 1. **Gear hash** — one shift+add table lookup per byte.
/// 2. **Cut-point skipping** — scanning starts at `min_size`.
/// 3. **Normalized chunking** — before the normal point (the target average
///    size), a *harder* mask (more bits) is used; after it, an *easier* mask,
///    pulling the chunk-size distribution toward the average.
///
/// # Examples
///
/// ```
/// use hidestore_chunking::{chunk_spans, Chunker, FastCdcChunker};
///
/// let mut c = FastCdcChunker::new(8192);
/// assert_eq!(c.min_size(), 2048);
/// assert_eq!(c.max_size(), 65536);
/// ```
#[derive(Debug, Clone)]
pub struct FastCdcChunker {
    min_size: usize,
    normal_size: usize,
    max_size: usize,
    mask_small: u64,
    mask_large: u64,
}

impl FastCdcChunker {
    /// Creates a FastCDC chunker with target average size `avg_size`.
    ///
    /// Minimum is `avg/4`, maximum `avg*8`, and the normalization level is 2
    /// bits as recommended by the paper.
    ///
    /// # Panics
    ///
    /// Panics if `avg_size < 64` or `avg_size` is not a power of two.
    pub fn new(avg_size: usize) -> Self {
        assert!(
            avg_size >= 64,
            "average chunk size must be at least 64 bytes"
        );
        assert!(
            avg_size.is_power_of_two(),
            "FastCDC average size must be a power of two"
        );
        let bits = avg_size.trailing_zeros();
        FastCdcChunker {
            min_size: avg_size / 4,
            normal_size: avg_size,
            max_size: avg_size * 8,
            // Harder mask before the normal point (bits+2), easier after (bits-2).
            mask_small: spread_mask(bits + 2),
            mask_large: spread_mask(bits - 2),
        }
    }
}

impl Chunker for FastCdcChunker {
    fn next_chunk_len(&mut self, data: &[u8]) -> usize {
        assert!(!data.is_empty(), "next_chunk_len requires non-empty data");
        if data.len() <= self.min_size {
            return data.len();
        }
        let limit = data.len().min(self.max_size);
        let normal = self.normal_size.min(limit);
        let mut hash = 0u64;
        let mut i = self.min_size;
        while i < normal {
            hash = gear_step(hash, data[i]);
            if hash & self.mask_small == 0 {
                return i + 1;
            }
            i += 1;
        }
        while i < limit {
            hash = gear_step(hash, data[i]);
            if hash & self.mask_large == 0 {
                return i + 1;
            }
            i += 1;
        }
        limit
    }

    fn min_size(&self) -> usize {
        self.min_size
    }

    fn max_size(&self) -> usize {
        self.max_size
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk_spans;

    fn noise(len: usize, seed: u64) -> Vec<u8> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
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
    fn normalized_distribution_concentrates_near_average() {
        let data = noise(4_000_000, 17);
        let mut c = FastCdcChunker::new(4096);
        let spans = chunk_spans(&mut c, &data);
        let avg = data.len() / spans.len();
        assert!((2048..=8192).contains(&avg), "avg {avg}");
        // Normalization: a majority of chunks lie within [avg/2, 2*avg].
        let near = spans
            .iter()
            .filter(|s| (2048..=8192).contains(&s.len()))
            .count();
        assert!(near * 2 > spans.len(), "{near}/{}", spans.len());
    }

    #[test]
    fn fastcdc_tighter_than_rabin() {
        // Normalized chunking should reduce size variance (lower coefficient
        // of variation, stddev ÷ mean) — the point of FastCDC's design.
        let data = noise(3_000_000, 0x1234_5678);
        let cv = |kind: crate::ChunkerKind| {
            let mut c = kind.build(4096);
            let lens: Vec<f64> = chunk_spans(c.as_mut(), &data)
                .iter()
                .map(|s| s.len() as f64)
                .collect();
            let mean = lens.iter().sum::<f64>() / lens.len() as f64;
            let var = lens.iter().map(|l| (l - mean).powi(2)).sum::<f64>() / lens.len() as f64;
            var.sqrt() / mean
        };
        let fastcdc = cv(crate::ChunkerKind::FastCdc);
        let rabin = cv(crate::ChunkerKind::Rabin);
        assert!(
            fastcdc < rabin,
            "fastcdc cv {fastcdc:.3} vs rabin {rabin:.3}"
        );
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_rejected() {
        FastCdcChunker::new(5000);
    }

    #[test]
    fn bounds_respected() {
        let data = noise(1_000_000, 23);
        let mut c = FastCdcChunker::new(1024);
        let spans = chunk_spans(&mut c, &data);
        for s in &spans[..spans.len() - 1] {
            assert!(s.len() >= c.min_size() && s.len() <= c.max_size());
        }
    }

    #[test]
    fn shift_resistant() {
        let shared = noise(500_000, 31);
        let mut shifted = vec![1u8, 2, 3];
        shifted.extend_from_slice(&shared);
        let mut c = FastCdcChunker::new(4096);
        let a: std::collections::HashSet<usize> = chunk_spans(&mut c, &shared)
            .iter()
            .map(|s| shared.len() - s.end)
            .collect();
        let b: std::collections::HashSet<usize> = chunk_spans(&mut c, &shifted)
            .iter()
            .map(|s| shifted.len() - s.end)
            .collect();
        let survived = a.intersection(&b).count();
        assert!(survived * 10 >= a.len() * 8, "{survived}/{}", a.len());
    }

    #[test]
    fn all_zero_input_forced_to_max() {
        let data = vec![0u8; 200_000];
        let mut c = FastCdcChunker::new(1024);
        let spans = chunk_spans(&mut c, &data);
        // Gear hash of zeros: deterministic, either finds a mask match at a
        // fixed offset or every chunk is max-size; either way all inner
        // chunks are equal length.
        let first = spans[0].len();
        for s in &spans[..spans.len() - 1] {
            assert_eq!(s.len(), first);
        }
    }
}
