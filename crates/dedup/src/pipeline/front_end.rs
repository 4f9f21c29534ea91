//! The ingest front end: chunk → fingerprint, one function for every caller.
//!
//! [`chunk_fingerprints_known`] returns a stream's chunk spans and the
//! fingerprint of each, in stream order. It is the front half of both
//! [`crate::BackupPipeline::backup`] and `HiDeStore::backup`, and it decides
//! nothing about dedup or layout: the commit stage downstream sees the same
//! spans and fingerprints however they were computed, so the repository does
//! not depend on which branch ran. [`chunk_fingerprints`] is the same call
//! with nothing known.
//!
//! At each chunk boundary there are three outcomes (DESIGN.md §8.6):
//!
//! * **predicted** — the stream continues with a chunk of the caller's
//!   [`KnownChunks`], byte for byte, and the chunker confirmed that chunk's
//!   end is a cut whatever follows: it is emitted with its known
//!   fingerprint, neither scanned nor hashed;
//! * **scanned** — otherwise the chunker finds the cut and the chunk is
//!   hashed, as with no known set at all;
//! * a candidate that shares the stream's first bytes but not all of them
//!   costs one comparison and falls through to the scan.
//!
//! The output is exactly `chunk_spans` followed by `Fingerprint::of` per
//! span, whatever is known. The branch is chosen from the machine and the
//! input, never by a setting:
//!
//! * **inline** — predict or chunk, then hash the scanned chunks, on the
//!   calling thread, when [`default_hash_threads`] is 1 or the input is
//!   shorter than [`STAGED_MIN_BYTES`];
//! * **staged** — otherwise. The calling thread predicts and chunks
//!   (boundaries depend on everything before them, so this is sequential)
//!   and hands segments of `SEGMENT_CHUNKS` spans through a bounded
//!   `sync_channel` to `default_hash_threads()` hashing workers, which hash
//!   the scanned ones; the segments are put back in stream order by
//!   sequence number:
//!
//! ```text
//!  calling thread ─channel─► fingerprint workers (×N) ──► sort by segment
//!  (predict, chunk)          (pure per chunk)              sequence number
//! ```

use std::ops::Range;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Mutex, PoisonError};

use hidestore_chunking::Chunker;
use hidestore_hash::{default_hash_threads, Fingerprint};

use super::known::KnownChunks;

/// Inputs shorter than this run inline even on a multi-core machine: the
/// crossover measured in DESIGN.md §8.3. Below it the staged branch has few
/// segments to overlap, and when other backups already keep every core busy
/// its thread start-up and hand-offs cost 18–25 %; here it gains 44 % on an
/// idle machine and costs 8 % on a saturated one, and from 2 MiB up nothing.
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

/// A chunk's span and, when it was predicted, its known fingerprint.
type Cut = (Range<usize>, Option<Fingerprint>);

/// One segment on its way to a hashing worker: its sequence number and cuts.
type Batch = (usize, Vec<Cut>);

/// One hashed segment: `spans[i]` of the stream has `fingerprints[i]`.
struct Segment {
    seq: usize,
    spans: Vec<Range<usize>>,
    fingerprints: Vec<Fingerprint>,
}

/// [`chunk_fingerprints_known`] with nothing known: exactly what
/// `chunk_spans` followed by `Fingerprint::of` per span returns, inline or
/// staged.
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
    chunk_fingerprints_known(data, chunker, &KnownChunks::default())
}

/// The ingest front end: chunks `data` with `chunker` and fingerprints every
/// chunk, returning the spans and fingerprints in stream order — exactly
/// what `chunk_spans` followed by `Fingerprint::of` per span returns, inline
/// or staged. Where the stream continues with a chunk of `known`, that
/// chunk is emitted with its known fingerprint instead of being scanned and
/// hashed; `known` must hold only chunks `chunker` itself cut (see
/// [`KnownChunks::new`]).
///
/// # Panics
///
/// Panics if the chunker returns a length of 0 or past the end of `data`.
pub fn chunk_fingerprints_known(
    data: &[u8],
    chunker: &mut dyn Chunker,
    known: &KnownChunks<'_>,
) -> (Vec<Range<usize>>, Vec<Fingerprint>) {
    let workers = default_hash_threads();
    if workers == 1 || data.len() < STAGED_MIN_BYTES {
        chunker.reset();
        let mut spans = Vec::new();
        let mut fingerprints = Vec::new();
        let mut pos = 0;
        while pos < data.len() {
            let (span, fingerprint) = next_cut(data, pos, chunker, known);
            pos = span.end;
            fingerprints.push(fingerprint.unwrap_or_else(|| Fingerprint::of(&data[span.clone()])));
            spans.push(span);
        }
        (spans, fingerprints)
    } else {
        run_staged(data, chunker, known, workers, QUEUE_DEPTH)
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
    run_staged(data, chunker, &KnownChunks::default(), workers, QUEUE_DEPTH)
}

/// The chunk at `pos`, a boundary of `data`: the known chunk the stream
/// continues with, with its fingerprint, else the chunker's cut.
fn next_cut(data: &[u8], pos: usize, chunker: &mut dyn Chunker, known: &KnownChunks<'_>) -> Cut {
    let rest = &data[pos..];
    if let Some((fingerprint, len)) = known.predict(rest) {
        return (pos..pos + len, Some(fingerprint));
    }
    let len = chunker.next_chunk_len(rest);
    assert!(
        len >= 1 && len <= rest.len(),
        "chunker returned invalid length {len}"
    );
    (pos..pos + len, None)
}

/// The staged engine: the calling thread chunks and sends segments through a
/// channel of `depth` slots, `workers` scoped threads hash them.
fn run_staged(
    data: &[u8],
    chunker: &mut dyn Chunker,
    known: &KnownChunks<'_>,
    workers: usize,
    depth: usize,
) -> Chunked {
    let (tx, rx) = sync_channel(depth);
    let rx = Mutex::new(rx);
    let mut segments: Vec<Segment> = std::thread::scope(|scope| {
        let hashers: Vec<_> = (0..workers.max(1))
            .map(|_| scope.spawn(|| hash_segments(&rx, data)))
            .collect();
        // Moving the sender in drops it on return or unwind, which ends the
        // workers' stream.
        chunk_segments(data, chunker, known, tx);
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
    (spans, fingerprints)
}

/// The chunker: sends `data`'s cuts in numbered segments of
/// `SEGMENT_CHUNKS`, blocking while the channel is full.
fn chunk_segments(
    data: &[u8],
    chunker: &mut dyn Chunker,
    known: &KnownChunks<'_>,
    tx: SyncSender<Batch>,
) {
    chunker.reset();
    let mut pos = 0;
    let mut seq = 0;
    let mut cuts = Vec::with_capacity(SEGMENT_CHUNKS);
    while pos < data.len() {
        let cut = next_cut(data, pos, chunker, known);
        pos = cut.0.end;
        cuts.push(cut);
        if cuts.len() == SEGMENT_CHUNKS || pos == data.len() {
            let segment = std::mem::replace(&mut cuts, Vec::with_capacity(SEGMENT_CHUNKS));
            // The receiver outlives this call, so the send cannot fail.
            let _ = tx.send((seq, segment));
            seq += 1;
        }
    }
}

/// One hashing worker: fingerprints the scanned chunks of segments until
/// the chunker is done.
fn hash_segments(rx: &Mutex<Receiver<Batch>>, data: &[u8]) -> Vec<Segment> {
    let mut done = Vec::new();
    loop {
        // The guard drops at the end of this statement, so workers hash in
        // parallel and only take turns receiving.
        let next = rx.lock().unwrap_or_else(PoisonError::into_inner).recv();
        let Ok((seq, cuts)) = next else {
            return done;
        };
        let (spans, fingerprints) = cuts
            .into_iter()
            .map(|(span, known)| {
                let fingerprint = known.unwrap_or_else(|| Fingerprint::of(&data[span.clone()]));
                (span, fingerprint)
            })
            .unzip();
        done.push(Segment {
            seq,
            spans,
            fingerprints,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::super::known::KNOWN_PREFIX;
    use super::*;
    use hidestore_chunking::{chunk_spans, ChunkerKind, FixedChunker, TttdChunker};

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
    fn depth_one_channel_keeps_order() {
        let data = noise(2_000_000, 3);
        let got = run_staged(
            &data,
            &mut TttdChunker::new(1024),
            &KnownChunks::default(),
            8,
            1,
        );
        assert_eq!(got, reference(&data));
    }

    /// Seeded edits of `data`: insertions, deletions, byte flips, zero
    /// runs written over or inserted, blocks repeated elsewhere, bytes
    /// appended after the old tail, and a few bytes cut off the end.
    fn edit(data: &[u8], seed: u64) -> Vec<u8> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move |below: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % below.max(1) as u64) as usize
        };
        let mut out = data.to_vec();
        for op in 0..12 {
            let at = next(out.len());
            match op % 7 {
                0 => {
                    let bytes = noise(1 + next(2_000), seed * 100 + op);
                    out.splice(at..at, bytes);
                }
                1 => {
                    let end = (at + 1 + next(3_000)).min(out.len());
                    out.drain(at..end);
                }
                2 => out[at] ^= 1 << next(8),
                3 => {
                    let end = (at + 100 + next(20_000)).min(out.len());
                    out[at..end].fill(0);
                    out.splice(at..at, vec![0; next(5_000)]);
                }
                4 => {
                    let from = next(out.len());
                    let end = (from + 1 + next(30_000)).min(out.len());
                    let block = out[from..end].to_vec();
                    out.splice(at..at, block);
                }
                5 => out.extend(noise(1 + next(5_000), seed * 100 + op)),
                _ => out.truncate(out.len() - next(64)),
            }
        }
        out
    }

    /// `chunk_spans` then `Fingerprint::of` with a fresh `kind` chunker.
    fn reference_of(kind: ChunkerKind, avg: usize, data: &[u8]) -> Chunked {
        let spans = chunk_spans(kind.build(avg).as_mut(), data);
        let fps = spans
            .iter()
            .map(|s| Fingerprint::of(&data[s.clone()]))
            .collect();
        (spans, fps)
    }

    /// With a known set built from every earlier version — what the active
    /// pool of a repository that backed them all up would offer — the front
    /// end returns the reference chunking of each edited version, inline
    /// and staged at 1, 2 and 8 workers; and most boundaries of a later
    /// version are predicted, so the check is not vacuous.
    #[test]
    fn known_chunks_change_nothing_but_the_work() {
        for (kind, avg) in [
            (ChunkerKind::Tttd, 1024),
            (ChunkerKind::Tttd, 64),
            (ChunkerKind::Rabin, 1024),
            (ChunkerKind::Fixed, 512),
        ] {
            let mut versions = vec![noise(250_000, avg as u64)];
            for seed in 1..6 {
                let next = edit(&versions[versions.len() - 1], seed);
                versions.push(next);
            }
            // Tails shorter than KNOWN_PREFIX and than min_size, after a
            // version that ran on past them.
            let last = versions[versions.len() - 1].clone();
            let spans = reference_of(kind, avg, &last).0;
            let min = kind.build(avg).min_size();
            for tail in [KNOWN_PREFIX / 2, min - 1] {
                versions.push(last[..spans[spans.len() / 2].end + tail].to_vec());
                versions.push(last.clone());
            }
            for i in 1..versions.len() {
                let case = format!("{kind} {avg}, version {i}");
                let chunker = kind.build(avg);
                let known = KnownChunks::new(
                    chunker.as_ref(),
                    versions[..i].iter().flat_map(|v| {
                        let (spans, fps) = reference_of(kind, avg, v);
                        fps.into_iter().zip(spans).map(move |(fp, s)| (fp, &v[s]))
                    }),
                );
                let data = &versions[i];
                let want = reference_of(kind, avg, data);
                let predicted = want
                    .0
                    .iter()
                    .filter(|s| known.predict(&data[s.start..]).is_some())
                    .count();
                // Fixed blocks do not resynchronise after a shift.
                let floor = match kind {
                    ChunkerKind::Fixed => 1,
                    _ => want.0.len() / 2 + 1,
                };
                assert!(predicted >= floor, "{case}: {predicted} predicted");
                assert!(data.len() < STAGED_MIN_BYTES, "{case} runs inline");
                let got = chunk_fingerprints_known(data, kind.build(avg).as_mut(), &known);
                assert_eq!(got, want, "{case} inline");
                for workers in [1, 2, 8] {
                    let got =
                        run_staged(data, kind.build(avg).as_mut(), &known, workers, QUEUE_DEPTH);
                    assert_eq!(got, want, "{case} staged, {workers} workers");
                }
            }
        }
    }
}
