//! Parallel fingerprinting of chunked streams.
//!
//! Fingerprinting is one of the two per-byte CPU costs of ingest, next to
//! chunking; with the unrolled SHA-1 it is the smaller one (on
//! `bulk.kernel`, 0.17 s of hashing against 0.26 s of chunking per
//! traced round on a 2-core 2.1 GHz Xeon). This module hashes the chunks
//! of a stream on a scoped thread pool, producing exactly the same
//! fingerprints as the sequential loop.
//! The ingest path itself hashes in `hidestore_dedup::chunk_fingerprints`;
//! [`fingerprints_parallel`] remains for the benchmark harness's hash
//! replay, and [`default_hash_threads`] sizes both.

use std::ops::Range;

use crate::Fingerprint;

/// Computes the fingerprint of every `spans[i]` slice of `data`, in order,
/// using up to `threads` worker threads.
///
/// Falls back to the sequential loop for small inputs where thread spawn
/// overhead would dominate. The result is identical to
/// `spans.iter().map(|s| Fingerprint::of(&data[s]))`.
///
/// # Examples
///
/// ```
/// use hidestore_hash::{fingerprints_parallel, Fingerprint};
///
/// let data = vec![7u8; 10_000];
/// let spans = vec![0..5_000, 5_000..10_000];
/// let fps = fingerprints_parallel(&data, &spans, 4);
/// assert_eq!(fps[0], Fingerprint::of(&data[..5_000]));
/// ```
///
/// # Panics
///
/// Panics if a span is out of bounds for `data`.
pub fn fingerprints_parallel(
    data: &[u8],
    spans: &[Range<usize>],
    threads: usize,
) -> Vec<Fingerprint> {
    let threads = threads.max(1);
    if sequential_fallback(data.len(), spans.len(), threads) {
        return spans
            .iter()
            .map(|s| Fingerprint::of(&data[s.clone()]))
            .collect();
    }
    fingerprints_threaded(data, spans, threads)
}

/// Whether to hash on the calling thread instead of spawning workers: below
/// ~1 MiB of work per thread (or very few spans) the spawn cost outweighs
/// the parallelism.
fn sequential_fallback(data_len: usize, span_count: usize, threads: usize) -> bool {
    threads == 1 || span_count < 64 || data_len < threads << 20
}

/// The threaded path, unconditionally: spans are split into at most
/// `threads` contiguous blocks, each hashed by its own scoped worker into a
/// disjoint region of the output — so order is preserved by construction,
/// including when `threads` exceeds `spans.len()` (blocks of one span each).
fn fingerprints_threaded(data: &[u8], spans: &[Range<usize>], threads: usize) -> Vec<Fingerprint> {
    if spans.is_empty() {
        return Vec::new();
    }
    let mut out = vec![Fingerprint::default(); spans.len()];
    let chunk_len = spans.len().div_ceil(threads);
    std::thread::scope(|scope| {
        for (span_block, out_block) in spans.chunks(chunk_len).zip(out.chunks_mut(chunk_len)) {
            scope.spawn(move || {
                for (span, slot) in span_block.iter().zip(out_block.iter_mut()) {
                    *slot = Fingerprint::of(&data[span.clone()]);
                }
            });
        }
    });
    out
}

/// A sensible worker count for [`fingerprints_parallel`]: the machine's
/// available parallelism capped at 8 (hashing saturates memory bandwidth
/// beyond that).
pub fn default_hash_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get().min(8))
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spans_of(len: usize, step: usize) -> Vec<Range<usize>> {
        (0..len)
            .step_by(step)
            .map(|i| i..(i + step).min(len))
            .collect()
    }

    #[test]
    fn matches_sequential_small() {
        let data: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        let spans = spans_of(data.len(), 333);
        let par = fingerprints_parallel(&data, &spans, 4);
        let seq: Vec<Fingerprint> = spans
            .iter()
            .map(|s| Fingerprint::of(&data[s.clone()]))
            .collect();
        assert_eq!(par, seq);
    }

    #[test]
    fn matches_sequential_large() {
        let data: Vec<u8> = (0..8_000_000u32).map(|i| (i % 253) as u8).collect();
        let spans = spans_of(data.len(), 4096);
        let par = fingerprints_parallel(&data, &spans, 4);
        let seq: Vec<Fingerprint> = spans
            .iter()
            .map(|s| Fingerprint::of(&data[s.clone()]))
            .collect();
        assert_eq!(par, seq);
    }

    #[test]
    fn empty_spans() {
        assert!(fingerprints_parallel(b"abc", &[], 4).is_empty());
    }

    #[test]
    fn single_thread_path() {
        let data = vec![1u8; 1000];
        let spans = spans_of(1000, 100);
        let fps = fingerprints_parallel(&data, &spans, 1);
        assert_eq!(fps.len(), 10);
        // All chunks identical -> all fingerprints identical.
        assert!(fps.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn default_threads_positive() {
        assert!(default_hash_threads() >= 1);
    }

    #[test]
    fn fallback_threshold_is_one_mib_per_thread() {
        // Exactly at the cutoff (threads << 20 bytes) the threaded path
        // runs; one byte below it falls back to the sequential loop.
        for threads in [2usize, 4, 8] {
            let cutoff = threads << 20;
            assert!(
                sequential_fallback(cutoff - 1, 64, threads),
                "{threads} threads, one byte under the cutoff"
            );
            assert!(
                !sequential_fallback(cutoff, 64, threads),
                "{threads} threads, exactly at the cutoff"
            );
        }
    }

    #[test]
    fn fallback_on_few_spans_or_one_thread() {
        // 63 spans is sequential no matter how large the data is.
        assert!(sequential_fallback(usize::MAX, 63, 8));
        assert!(!sequential_fallback(usize::MAX, 64, 8));
        // One thread is always sequential.
        assert!(sequential_fallback(usize::MAX, 1 << 20, 1));
    }

    #[test]
    fn threshold_boundary_results_identical() {
        // Hash the same spans just below and just above the cutoff and
        // against the sequential loop: the answer must not depend on which
        // path ran.
        let threads = 2;
        let cutoff = threads << 20;
        for len in [cutoff - 1, cutoff] {
            let data: Vec<u8> = (0..len as u32).map(|i| (i % 249) as u8).collect();
            let spans = spans_of(len, len / 100);
            let got = fingerprints_parallel(&data, &spans, threads);
            let want: Vec<Fingerprint> = spans
                .iter()
                .map(|s| Fingerprint::of(&data[s.clone()]))
                .collect();
            assert_eq!(got, want, "len={len}");
        }
    }

    #[test]
    fn threaded_path_empty_spans() {
        assert!(fingerprints_threaded(b"abc", &[], 4).is_empty());
        assert!(fingerprints_parallel(&[], &[], 8).is_empty());
    }

    #[test]
    fn threaded_path_preserves_order_with_more_threads_than_spans() {
        // 10 distinct spans, 32 threads: every block holds one span, and
        // the output must still be in span order.
        let data: Vec<u8> = (0..1000u32).map(|i| (i % 241) as u8).collect();
        let spans = spans_of(data.len(), 100);
        assert!(spans.len() < 32);
        let got = fingerprints_threaded(&data, &spans, 32);
        let want: Vec<Fingerprint> = spans
            .iter()
            .map(|s| Fingerprint::of(&data[s.clone()]))
            .collect();
        assert_eq!(got, want);
    }
}
