//! TTTD — Two Thresholds, Two Divisors chunking (Eshghi & Tang, HP Labs
//! TR 2005-30). This is the chunking algorithm the HiDeStore prototype uses
//! (paper §5.1).

use crate::rolling::CutScan;
use crate::Chunker;

/// Two Thresholds Two Divisors content-defined chunker.
///
/// TTTD improves on plain Rabin CDC by adding a *backup divisor* `D'` (half
/// as selective as the main divisor `D`). While scanning, positions matching
/// the backup divisor are remembered; if the hard maximum threshold is
/// reached without a main-divisor match, the most recent backup match is used
/// instead of an arbitrary max-size cut, keeping more boundaries
/// content-defined and reducing chunk-size variance.
///
/// Parameter ratios follow the HP technical report, scaled to the requested
/// average size (the report's 460/2800/540/270 for ≈1 KiB average).
///
/// # Examples
///
/// ```
/// use hidestore_chunking::{chunk_spans, Chunker, TttdChunker};
///
/// let mut c = TttdChunker::new(4096);
/// let data: Vec<u8> = (0..100_000u32).map(|i| (i.wrapping_mul(2654435761) >> 24) as u8).collect();
/// let spans = chunk_spans(&mut c, &data);
/// assert!(spans.iter().all(|s| s.len() <= c.max_size()));
/// ```
#[derive(Debug, Clone)]
pub struct TttdChunker {
    scan: CutScan,
}

impl TttdChunker {
    /// Creates a TTTD chunker for the given target average chunk size.
    ///
    /// # Panics
    ///
    /// Panics if `avg_size < 64`.
    pub fn new(avg_size: usize) -> Self {
        assert!(
            avg_size >= 64,
            "average chunk size must be at least 64 bytes"
        );
        // HP TR 2005-30 parameters scale: Tmin=460, Tmax=2800, D=540, D'=270
        // for an average of ~1015 bytes.
        let scale = avg_size as f64 / 1015.0;
        let min_size = ((460.0 * scale) as usize).max(1);
        let max_size = (2800.0 * scale) as usize;
        let main_divisor = ((540.0 * scale) as u64).max(2);
        TttdChunker {
            scan: CutScan::new(
                min_size,
                max_size.max(min_size + 1),
                main_divisor,
                Some((main_divisor / 2).max(1)),
            ),
        }
    }
}

impl Chunker for TttdChunker {
    fn next_chunk_len(&mut self, data: &[u8]) -> usize {
        self.scan.next_chunk_len(data)
    }

    fn min_size(&self) -> usize {
        self.scan.min_size()
    }

    fn max_size(&self) -> usize {
        self.scan.max_size()
    }

    fn cut_confirmed(&self, chunk: &[u8]) -> bool {
        self.scan.cut_confirmed(chunk)
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
    fn cuts_match_bit_serial_reference() {
        use crate::rolling::reference::{assert_same_cuts, Cut};
        // 64 puts min_size (29) inside the window; 100 and 4096 give an odd
        // main divisor, so the backup divisor is not half of it.
        let all = [Cut::Main, Cut::Backup, Cut::Forced, Cut::Tail];
        for avg in [64, 100, 1015, 1024, 4096, 8192, 65536] {
            let scan = TttdChunker::new(avg).scan;
            let kinds = assert_same_cuts(&scan, &format!("tttd {avg}"));
            assert!(kinds.iter().eq(&all), "tttd {avg} cut kinds: {kinds:?}");
        }
    }

    #[test]
    fn parameters_are_the_ones_existing_repositories_were_cut_with() {
        // min, max, D, D' as computed before the scan was made table-driven;
        // a repository deduplicates only against chunks cut by the same rule.
        for (avg, params) in [
            (1024, (464, 2824, 544, Some(272))),
            (4096, (1856, 11299, 2179, Some(1089))),
            (8192, (3712, 22598, 4358, Some(2179))),
        ] {
            assert_eq!(TttdChunker::new(avg).scan.parameters(), params, "{avg}");
        }
    }

    #[test]
    fn parameters_scale_with_average() {
        let small = TttdChunker::new(1024);
        let large = TttdChunker::new(8192);
        assert!(large.min_size() > small.min_size());
        assert!(large.max_size() > small.max_size());
        assert!(small.min_size() < 1024 && small.max_size() > 1024);
    }

    #[test]
    fn average_near_target() {
        let data = noise(3_000_000, 42);
        let mut c = TttdChunker::new(4096);
        let spans = chunk_spans(&mut c, &data);
        let avg = data.len() / spans.len();
        assert!((2048..=8192).contains(&avg), "avg {avg}");
    }

    #[test]
    fn backup_divisor_reduces_forced_cuts() {
        // On random data, count chunks cut exactly at max_size. With the
        // backup divisor, forced cuts should be rare (<5%).
        let data = noise(2_000_000, 13);
        let mut c = TttdChunker::new(2048);
        let max = c.max_size();
        let spans = chunk_spans(&mut c, &data);
        let forced = spans.iter().filter(|s| s.len() == max).count();
        assert!(
            forced * 20 <= spans.len(),
            "{forced}/{} forced cuts",
            spans.len()
        );
    }

    #[test]
    fn min_enforced_except_tail() {
        let data = noise(400_000, 99);
        let mut c = TttdChunker::new(1024);
        let spans = chunk_spans(&mut c, &data);
        let min = c.min_size();
        for s in &spans[..spans.len() - 1] {
            assert!(s.len() >= min);
        }
    }

    #[test]
    fn deterministic() {
        let data = noise(150_000, 5);
        let mut c = TttdChunker::new(4096);
        let a = chunk_spans(&mut c, &data);
        let b = chunk_spans(&mut c, &data);
        assert_eq!(a, b);
    }

    #[test]
    fn tiny_input_single_chunk() {
        let mut c = TttdChunker::new(4096);
        assert_eq!(chunk_spans(&mut c, b"tiny"), vec![0..4]);
    }
}
