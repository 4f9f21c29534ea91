//! Parallel fingerprinting of chunked streams, and the order-preserving
//! scoped map it runs on.
//!
//! Fingerprinting is one of the two per-byte CPU costs of ingest, next to
//! chunking. Since the two-lane chunk scan it is the larger one per byte on
//! one core: over 24 MiB of noise on a 2-core 2.1 GHz Xeon, SHA-1 hashes
//! 8 KiB chunks at 280–540 MiB/s and the 8 KiB TTTD scan cuts at
//! 780–790 MiB/s (DESIGN §8.4, §8.5). This module hashes the chunks of a
//! stream on scoped threads, producing exactly the same fingerprints as the
//! sequential loop.
//! The ingest path itself hashes in `hidestore_dedup::chunk_fingerprints`;
//! [`fingerprints_parallel`] remains for the benchmark harness's hash
//! replay. It runs on [`map_ordered`], as does `save_repository`'s encode
//! and checksum of a commit's files; [`default_hash_threads`] sizes all
//! three.

use std::ops::Range;
use std::sync::{Mutex, PoisonError};

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
    let threads = if sequential_fallback(data.len(), spans.len(), threads.max(1)) {
        1
    } else {
        threads
    };
    map_ordered(spans, threads, |s| Fingerprint::of(&data[s.clone()]))
}

/// Whether to hash on the calling thread instead of spawning workers: below
/// ~1 MiB of work per thread (or very few spans) the spawn cost outweighs
/// the parallelism.
fn sequential_fallback(data_len: usize, span_count: usize, threads: usize) -> bool {
    threads == 1 || span_count < 64 || data_len < threads << 20
}

/// `items.into_iter().map(f).collect()`, computed on up to `threads`
/// threads: the calling thread and scoped helpers each take the next item
/// until none is left, so items of very different cost still share the
/// work, and the results come back in item order. With `threads <= 1` or
/// at most one item it is that sequential loop, spawning nothing.
///
/// # Examples
///
/// ```
/// use hidestore_hash::{crc32, map_ordered};
///
/// let files = [vec![1u8; 10], vec![2u8; 100_000], vec![3u8; 7]];
/// let crcs = map_ordered(&files, 2, |f| crc32(f));
/// assert_eq!(crcs, files.iter().map(|f| crc32(f)).collect::<Vec<_>>());
/// ```
pub fn map_ordered<I, R>(items: I, threads: usize, f: impl Fn(I::Item) -> R + Sync) -> Vec<R>
where
    I: IntoIterator,
    I::IntoIter: ExactSizeIterator + Send,
    R: Send,
{
    let items = items.into_iter();
    let len = items.len();
    let helpers = threads.min(len).saturating_sub(1);
    if helpers == 0 {
        return items.map(f).collect();
    }
    let queue = Mutex::new(items.enumerate());
    let work = || {
        let mut done = Vec::new();
        loop {
            // Taking an item leaves the iterator whole, so a panic on
            // another thread cannot have broken it.
            let next = queue.lock().unwrap_or_else(PoisonError::into_inner).next();
            let Some((i, item)) = next else {
                return done;
            };
            done.push((i, f(item)));
        }
    };
    let mut slots: Vec<Option<R>> = std::iter::repeat_with(|| None).take(len).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..helpers).map(|_| scope.spawn(work)).collect();
        for (i, r) in work() {
            slots[i] = Some(r);
        }
        for handle in handles {
            // A helper's panic is the caller's: every item must come back.
            let done = handle
                .join()
                .unwrap_or_else(|p| std::panic::resume_unwind(p));
            for (i, r) in done {
                slots[i] = Some(r);
            }
        }
    });
    slots.into_iter().flatten().collect()
}

/// A sensible worker count for [`fingerprints_parallel`] and the other
/// per-byte work of a backup: the machine's available parallelism capped
/// at 8 (hashing saturates memory bandwidth beyond that).
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
    fn map_ordered_of_no_items_is_empty() {
        assert!(map_ordered(&[] as &[u8], 4, |&b| b).is_empty());
        assert!(fingerprints_parallel(&[], &[], 8).is_empty());
    }

    #[test]
    fn map_ordered_preserves_order_with_more_threads_than_items() {
        // 10 distinct spans, 32 threads: at most 10 threads run, and the
        // output must still be in span order.
        let data: Vec<u8> = (0..1000u32).map(|i| (i % 241) as u8).collect();
        let spans = spans_of(data.len(), 100);
        assert!(spans.len() < 32);
        let got = map_ordered(&spans, 32, |s| Fingerprint::of(&data[s.clone()]));
        let want: Vec<Fingerprint> = spans
            .iter()
            .map(|s| Fingerprint::of(&data[s.clone()]))
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn map_ordered_preserves_order_over_uneven_items() {
        // One item far costlier than the rest: whichever thread takes it,
        // the others drain the cheap ones, and the order still holds.
        let mut items: Vec<Vec<u8>> = (0..50u8).map(|i| vec![i; 64]).collect();
        items[3] = vec![7; 4 << 20];
        for threads in [1, 2, 3, 8] {
            let got = map_ordered(&items, threads, |b| crate::crc32(b));
            let want: Vec<u32> = items.iter().map(|b| crate::crc32(b)).collect();
            assert_eq!(got, want, "{threads} threads");
        }
    }

    #[test]
    #[should_panic(expected = "item 5")]
    fn map_ordered_raises_a_helper_panic() {
        let items: Vec<usize> = (0..64).collect();
        map_ordered(&items, 4, |&i| {
            assert!(i != 5, "item 5");
            i
        });
    }
}
