#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Content-defined chunking substrate for the HiDeStore reproduction.
//!
//! The deduplication pipeline (paper §2.1) divides backup streams into chunks
//! of 4–8 KiB on average using a chunking algorithm, then fingerprints each
//! chunk. The paper's prototype uses **TTTD** chunking; Destor (the platform
//! it extends) also ships Rabin-based CDC, and the paper's related-work
//! section lists FastCDC and AE. All five are implemented here:
//!
//! * [`FixedChunker`] — fixed-size blocks (no shift resistance; baseline),
//! * [`RabinChunker`] — classic Rabin-fingerprint CDC as in LBFS,
//! * [`TttdChunker`] — Two Thresholds Two Divisors (the paper's default),
//! * [`FastCdcChunker`] — gear-hash with normalized chunking,
//! * [`AeChunker`] — Asymmetric Extremum, a hash-comparison-free CDC.
//!
//! All chunkers implement the [`Chunker`] trait and are deterministic: the
//! same input always produces the same boundaries, which the rest of the
//! system relies on for reproducible experiments.
//!
//! # Examples
//!
//! ```
//! use hidestore_chunking::{Chunker, TttdChunker, chunk_spans};
//!
//! let data = vec![7u8; 100_000];
//! let mut chunker = TttdChunker::new(4096);
//! let spans = chunk_spans(&mut chunker, &data);
//! assert_eq!(spans.iter().map(|s| s.len()).sum::<usize>(), data.len());
//! ```

mod ae;
mod fastcdc;
mod fixed;
mod rabin;
pub mod rolling;
mod tttd;

pub use ae::AeChunker;
pub use fastcdc::FastCdcChunker;
pub use fixed::FixedChunker;
pub use rabin::RabinChunker;
pub use tttd::TttdChunker;

use std::ops::Range;

/// A chunking algorithm: cuts a stream into content-defined chunks.
///
/// Implementations are called with the *remaining* stream and return the
/// length of the next chunk. The trait is object-safe so pipelines can hold a
/// `Box<dyn Chunker>` selected from configuration.
pub trait Chunker {
    /// Returns the length of the next chunk at the front of `data`.
    ///
    /// `data` is the not-yet-chunked suffix of the stream. The returned
    /// length must be in `1..=data.len()`.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `data` is empty; callers must not pass
    /// an empty slice.
    fn next_chunk_len(&mut self, data: &[u8]) -> usize;

    /// Smallest chunk this chunker can emit (except for the stream tail).
    fn min_size(&self) -> usize;

    /// Largest chunk this chunker can emit.
    fn max_size(&self) -> usize;

    /// Resets any internal state so the chunker can process a new stream.
    fn reset(&mut self) {}
}

impl<T: Chunker + ?Sized> Chunker for Box<T> {
    fn next_chunk_len(&mut self, data: &[u8]) -> usize {
        (**self).next_chunk_len(data)
    }

    fn min_size(&self) -> usize {
        (**self).min_size()
    }

    fn max_size(&self) -> usize {
        (**self).max_size()
    }

    fn reset(&mut self) {
        (**self).reset()
    }
}

/// Splits `data` into chunk spans using `chunker`.
///
/// The spans are contiguous, non-empty, and cover `data` exactly.
///
/// # Examples
///
/// ```
/// use hidestore_chunking::{chunk_spans, FixedChunker};
///
/// let spans = chunk_spans(&mut FixedChunker::new(4), b"abcdefghij");
/// assert_eq!(spans, vec![0..4, 4..8, 8..10]);
/// ```
pub fn chunk_spans<C: Chunker + ?Sized>(chunker: &mut C, data: &[u8]) -> Vec<Range<usize>> {
    chunker.reset();
    let mut spans = Vec::new();
    let mut pos = 0;
    while pos < data.len() {
        let len = chunker.next_chunk_len(&data[pos..]);
        assert!(
            len >= 1 && pos + len <= data.len(),
            "chunker returned invalid length {len}"
        );
        spans.push(pos..pos + len);
        pos += len;
    }
    spans
}

/// Identifier for choosing a chunking algorithm from configuration, the way
/// Destor selects its chunking phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChunkerKind {
    /// Fixed-size chunking.
    Fixed,
    /// Rabin-fingerprint content-defined chunking.
    Rabin,
    /// Two Thresholds Two Divisors (the paper's default).
    Tttd,
    /// FastCDC normalized gear-hash chunking.
    FastCdc,
    /// Asymmetric Extremum chunking.
    Ae,
}

impl ChunkerKind {
    /// Builds a boxed chunker of this kind with the given average chunk size.
    ///
    /// # Examples
    ///
    /// ```
    /// use hidestore_chunking::{ChunkerKind, chunk_spans};
    ///
    /// let mut c = ChunkerKind::FastCdc.build(4096);
    /// let spans = chunk_spans(c.as_mut(), &vec![3u8; 50_000]);
    /// assert!(!spans.is_empty());
    /// ```
    pub fn build(self, avg_size: usize) -> Box<dyn Chunker + Send + Sync> {
        match self {
            ChunkerKind::Fixed => Box::new(FixedChunker::new(avg_size)),
            ChunkerKind::Rabin => Box::new(RabinChunker::new(avg_size)),
            ChunkerKind::Tttd => Box::new(TttdChunker::new(avg_size)),
            ChunkerKind::FastCdc => Box::new(FastCdcChunker::new(avg_size)),
            ChunkerKind::Ae => Box::new(AeChunker::new(avg_size)),
        }
    }

    /// All selectable kinds, for exhaustive experiments.
    pub const ALL: [ChunkerKind; 5] = [
        ChunkerKind::Fixed,
        ChunkerKind::Rabin,
        ChunkerKind::Tttd,
        ChunkerKind::FastCdc,
        ChunkerKind::Ae,
    ];
}

impl std::fmt::Display for ChunkerKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            ChunkerKind::Fixed => "fixed",
            ChunkerKind::Rabin => "rabin",
            ChunkerKind::Tttd => "tttd",
            ChunkerKind::FastCdc => "fastcdc",
            ChunkerKind::Ae => "ae",
        };
        f.write_str(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pseudo_random(len: usize, seed: u64) -> Vec<u8> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 24) as u8
            })
            .collect()
    }

    #[test]
    fn spans_cover_stream_for_all_kinds() {
        let data = pseudo_random(200_000, 7);
        for kind in ChunkerKind::ALL {
            let mut c = kind.build(4096);
            let spans = chunk_spans(c.as_mut(), &data);
            assert_eq!(spans.first().map(|s| s.start), Some(0), "{kind}");
            assert_eq!(spans.last().map(|s| s.end), Some(data.len()), "{kind}");
            for w in spans.windows(2) {
                assert_eq!(w[0].end, w[1].start, "{kind}: spans not contiguous");
            }
        }
    }

    #[test]
    fn all_kinds_respect_max_size() {
        let data = pseudo_random(300_000, 3);
        for kind in ChunkerKind::ALL {
            let mut c = kind.build(2048);
            let max = c.max_size();
            for span in chunk_spans(c.as_mut(), &data) {
                assert!(span.len() <= max, "{kind}: {} > {max}", span.len());
            }
        }
    }

    #[test]
    fn all_kinds_respect_min_size_except_tail() {
        let data = pseudo_random(300_000, 11);
        for kind in ChunkerKind::ALL {
            let mut c = kind.build(2048);
            let min = c.min_size();
            let spans = chunk_spans(c.as_mut(), &data);
            for span in &spans[..spans.len() - 1] {
                assert!(span.len() >= min, "{kind}: {} < {min}", span.len());
            }
        }
    }

    #[test]
    fn all_kinds_are_deterministic() {
        let data = pseudo_random(100_000, 5);
        for kind in ChunkerKind::ALL {
            let mut a = kind.build(4096);
            let mut b = kind.build(4096);
            assert_eq!(
                chunk_spans(a.as_mut(), &data),
                chunk_spans(b.as_mut(), &data),
                "{kind}"
            );
        }
    }

    #[test]
    fn content_defined_kinds_resist_shifts() {
        // Insert 100 bytes at the front; most boundaries (as offsets from the
        // *end*) must survive for content-defined chunkers. This is the whole
        // point of CDC (paper §2.2: boundary-shift problem).
        let data = pseudo_random(200_000, 9);
        let mut shifted = pseudo_random(100, 77);
        shifted.extend_from_slice(&data);
        for kind in [
            ChunkerKind::Rabin,
            ChunkerKind::Tttd,
            ChunkerKind::FastCdc,
            ChunkerKind::Ae,
        ] {
            let mut c = kind.build(4096);
            let cuts_a: std::collections::HashSet<usize> = chunk_spans(c.as_mut(), &data)
                .iter()
                .map(|s| data.len() - s.end)
                .collect();
            let cuts_b: std::collections::HashSet<usize> = chunk_spans(c.as_mut(), &shifted)
                .iter()
                .map(|s| shifted.len() - s.end)
                .collect();
            let survived = cuts_a.intersection(&cuts_b).count();
            assert!(
                survived * 2 >= cuts_a.len(),
                "{kind}: only {survived}/{} boundaries survived a prefix shift",
                cuts_a.len()
            );
        }
    }

    #[test]
    fn average_chunk_size_within_factor_of_target() {
        let data = pseudo_random(4_000_000, 21);
        for kind in ChunkerKind::ALL {
            let mut c = kind.build(4096);
            let spans = chunk_spans(c.as_mut(), &data);
            let avg = data.len() / spans.len();
            assert!(
                (1024..=16384).contains(&avg),
                "{kind}: average {avg} too far from 4096"
            );
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(ChunkerKind::Tttd.to_string(), "tttd");
        assert_eq!(ChunkerKind::FastCdc.to_string(), "fastcdc");
    }
}
