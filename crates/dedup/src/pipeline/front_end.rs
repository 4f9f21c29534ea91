//! The ingest front end: chunk → fingerprint, one function for every caller.
//!
//! [`chunk_fingerprints`] returns a stream's chunk spans and the fingerprint
//! of each, in stream order. It is the front half of both
//! [`crate::BackupPipeline::backup`] and `HiDeStore::backup`, and it decides
//! nothing about dedup or layout: the commit stage downstream sees the same
//! spans and fingerprints however they were computed, so the repository does
//! not depend on which branch ran.
//!
//! The branch is chosen from the machine and the input, never by a setting:
//!
//! * **inline** — `chunk_spans`, then `Fingerprint::of` per span, on the
//!   calling thread, when [`default_hash_threads`] is 1 or the input is
//!   shorter than [`STAGED_MIN_BYTES`];
//! * **staged** — otherwise. The calling thread chunks (boundaries depend on
//!   everything before them, so chunking is sequential) and hands segments
//!   of `SEGMENT_CHUNKS` spans through a bounded queue to
//!   `default_hash_threads()` hashing workers; the hashed segments are put
//!   back in stream order by sequence number:
//!
//! ```text
//!  calling thread ──queue──► fingerprint workers (×N) ──► sort by segment
//!  (chunking)                (pure per chunk)              sequence number
//! ```

use std::ops::Range;

use hidestore_chunking::{chunk_spans, Chunker};
use hidestore_hash::{default_hash_threads, Fingerprint};
use hidestore_sync::{BoundedQueue, ProducerGuard};

/// Inputs shorter than this run inline even on a multi-core machine: the
/// crossover measured in DESIGN.md §8. Below it the staged branch has few
/// segments to overlap, and when other backups already keep every core busy
/// its thread start-up and hand-offs cost 9–15 %; from here up it gains
/// ~50 % on an idle machine and costs ≤ 2 % on a saturated one.
pub const STAGED_MIN_BYTES: usize = 512 << 10;

/// Chunks per segment handed from the chunker to a hashing worker: small
/// enough that an input at the crossover (~64 chunks of 8 KiB) already
/// splits into four segments, so hashing overlaps chunking from the start.
/// The output is identical at any value.
const SEGMENT_CHUNKS: usize = 16;

/// Segments the chunker may run ahead of the hashing workers.
const QUEUE_DEPTH: usize = 4;

/// Chunk spans and the fingerprint of each, in stream order.
type Chunked = (Vec<Range<usize>>, Vec<Fingerprint>);

/// One hashed segment: `spans[i]` of the stream has `fingerprints[i]`.
struct Segment {
    seq: usize,
    spans: Vec<Range<usize>>,
    fingerprints: Vec<Fingerprint>,
}

/// Chunks `data` with `chunker` and fingerprints every chunk, returning the
/// spans and fingerprints in stream order — exactly what `chunk_spans`
/// followed by `Fingerprint::of` per span returns, inline or staged.
///
/// # Examples
///
/// ```
/// use hidestore_chunking::{chunk_spans, TttdChunker};
/// use hidestore_dedup::chunk_fingerprints;
/// use hidestore_hash::Fingerprint;
///
/// let data = vec![42u8; 64 * 1024];
/// let (spans, fps) = chunk_fingerprints(&data, &mut TttdChunker::new(1024));
/// assert_eq!(spans, chunk_spans(&mut TttdChunker::new(1024), &data));
/// assert_eq!(fps[0], Fingerprint::of(&data[spans[0].clone()]));
/// ```
///
/// # Panics
///
/// Panics if the chunker returns a length of 0 or past the end of `data`.
pub fn chunk_fingerprints(
    data: &[u8],
    chunker: &mut dyn Chunker,
) -> (Vec<Range<usize>>, Vec<Fingerprint>) {
    let workers = default_hash_threads();
    if workers == 1 || data.len() < STAGED_MIN_BYTES {
        let spans = chunk_spans(chunker, data);
        let fingerprints = spans
            .iter()
            .map(|s| Fingerprint::of(&data[s.clone()]))
            .collect();
        (spans, fingerprints)
    } else {
        staged_front_end(data, chunker, workers)
    }
}

/// The staged branch of [`chunk_fingerprints`] at an explicit worker count,
/// whatever the input length — the entry point `tests/pipeline_differential.rs`
/// sweeps worker counts through. Not a tuning knob: callers use
/// [`chunk_fingerprints`].
#[doc(hidden)]
pub fn staged_front_end(
    data: &[u8],
    chunker: &mut dyn Chunker,
    workers: usize,
) -> (Vec<Range<usize>>, Vec<Fingerprint>) {
    let (chunked, _waits) = run_staged(data, chunker, workers, QUEUE_DEPTH);
    chunked
}

/// The staged engine: the calling thread chunks and pushes segments into a
/// queue of `depth` slots, `workers` scoped threads hash them. Also returns
/// how often a thread waited on the queue, the backpressure the depth-1 unit
/// test asserts.
fn run_staged(
    data: &[u8],
    chunker: &mut dyn Chunker,
    workers: usize,
    depth: usize,
) -> (Chunked, u64) {
    let queue: BoundedQueue<(usize, Vec<Range<usize>>)> = BoundedQueue::new(depth, 1);
    let mut segments: Vec<Segment> = std::thread::scope(|scope| {
        let hashers: Vec<_> = (0..workers.max(1))
            .map(|_| scope.spawn(|| hash_segments(&queue, data)))
            .collect();
        {
            // Dropped on return or unwind, so the workers always drain.
            let _done = ProducerGuard(&queue);
            chunker.reset();
            let mut pos = 0;
            let mut seq = 0;
            let mut spans = Vec::with_capacity(SEGMENT_CHUNKS);
            while pos < data.len() {
                let len = chunker.next_chunk_len(&data[pos..]);
                assert!(
                    len >= 1 && pos + len <= data.len(),
                    "chunker returned invalid length {len}"
                );
                spans.push(pos..pos + len);
                pos += len;
                if spans.len() == SEGMENT_CHUNKS || pos == data.len() {
                    let segment = std::mem::replace(&mut spans, Vec::with_capacity(SEGMENT_CHUNKS));
                    // Nothing cancels this queue, so the push cannot fail.
                    let _ = queue.push((seq, segment));
                    seq += 1;
                }
            }
        }
        hashers
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    });
    segments.sort_unstable_by_key(|s| s.seq);
    let chunks = segments.iter().map(|s| s.spans.len()).sum();
    let mut spans = Vec::with_capacity(chunks);
    let mut fingerprints = Vec::with_capacity(chunks);
    for segment in segments {
        spans.extend(segment.spans);
        fingerprints.extend(segment.fingerprints);
    }
    let (blocked_full, blocked_empty) = queue.blocked_counts();
    ((spans, fingerprints), blocked_full + blocked_empty)
}

/// One hashing worker: fingerprints segments until the chunker is done.
fn hash_segments(queue: &BoundedQueue<(usize, Vec<Range<usize>>)>, data: &[u8]) -> Vec<Segment> {
    let mut done = Vec::new();
    while let Some((seq, spans)) = queue.pop() {
        let fingerprints = spans
            .iter()
            .map(|s| Fingerprint::of(&data[s.clone()]))
            .collect();
        done.push(Segment {
            seq,
            spans,
            fingerprints,
        });
    }
    done
}

#[cfg(test)]
mod tests {
    use super::*;
    use hidestore_chunking::{FixedChunker, TttdChunker};

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

    fn reference(data: &[u8]) -> Chunked {
        let spans = chunk_spans(&mut TttdChunker::new(1024), data);
        let fps = spans
            .iter()
            .map(|s| Fingerprint::of(&data[s.clone()]))
            .collect();
        (spans, fps)
    }

    /// Lengths that end exactly at the end of chunk `n` of `data`.
    fn end_of_chunk(data: &[u8], n: usize) -> usize {
        reference(data).0[n - 1].end
    }

    #[test]
    fn staged_matches_inline_at_every_segment_edge_and_worker_count() {
        let data = noise(300_000, 1);
        let one = end_of_chunk(&data, 1);
        let segment = end_of_chunk(&data, SEGMENT_CHUNKS);
        let segment_plus_one = end_of_chunk(&data, SEGMENT_CHUNKS + 1);
        for len in [
            0,
            1,
            one,
            segment - 1,
            segment,
            segment_plus_one,
            data.len(),
        ] {
            let want = reference(&data[..len]);
            for workers in [1, 2, 4, 8] {
                let got = staged_front_end(&data[..len], &mut TttdChunker::new(1024), workers);
                assert_eq!(got, want, "len={len} workers={workers}");
            }
        }
    }

    #[test]
    fn partial_tail_segment_preserved() {
        // 130 fixed chunks: whole segments and a partial tail.
        assert_ne!(130 % SEGMENT_CHUNKS, 0);
        let data = vec![7u8; 13_000];
        let (spans, fps) = staged_front_end(&data, &mut FixedChunker::new(100), 3);
        assert_eq!(spans.len(), 130);
        assert_eq!(fps.len(), 130);
        assert_eq!(spans.last(), Some(&(12_900..13_000)));
    }

    #[test]
    fn depth_one_queue_feels_backpressure_and_keeps_order() {
        let data = noise(2_000_000, 3);
        let (got, waits) = run_staged(&data, &mut TttdChunker::new(1024), 8, 1);
        assert_eq!(got, reference(&data));
        assert!(
            waits > 0,
            "a depth-1 queue cannot run without a single wait"
        );
    }
}
