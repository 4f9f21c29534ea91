//! The ingest front end: chunk → fingerprint, one function for every caller.
//!
//! [`chunk_fingerprints_known`] returns a stream's chunk spans and the
//! fingerprint of each, in stream order. It is the front half of both
//! [`crate::BackupPipeline::backup`] and `HiDeStore::backup`, and it decides
//! nothing about dedup or layout: the commit stage downstream sees the same
//! spans and fingerprints however many threads computed them, so the
//! repository does not depend on the machine. [`chunk_fingerprints`] is the
//! same call with nothing known.
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
//! span, whatever is known. It runs on `hidestore_hash::map_ordered`, the
//! program's one fan-out: the items are segments of `SEGMENT_CHUNKS` cuts,
//! predicted or chunked in the iterator's `next()` under the map's queue
//! lock (boundaries depend on everything before them, so this stays
//! sequential, on whichever thread holds the lock), and the map hashes a
//! segment's scanned chunks in parallel. The thread count comes from the
//! input, never from a setting: `hidestore_hash::threads_for`, one thread
//! below `PARALLEL_MIN_BYTES` (512 KiB) and `default_hash_threads()` at or
//! above it.
//!
//! ```text
//!  map_ordered threads (×N): lock ─► cut next segment ─► unlock ─► hash it
//!  results sorted by segment index ─► spans, fingerprints
//! ```

use std::ops::Range;

use hidestore_chunking::Chunker;
use hidestore_hash::{map_ordered, threads_for, Fingerprint};

use super::known::KnownChunks;

/// Chunks per segment, the unit one thread cuts and then hashes: small
/// enough that an input at the crossover (~64 chunks of 8 KiB) already
/// splits into four segments, so hashing overlaps chunking from the start.
/// The output is identical at any value.
const SEGMENT_CHUNKS: usize = 16;

/// [`chunk_fingerprints_known`] with nothing known: exactly what
/// `chunk_spans` followed by `Fingerprint::of` per span returns.
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
    chunker: &mut (dyn Chunker + Send),
) -> (Vec<Range<usize>>, Vec<Fingerprint>) {
    chunk_fingerprints_known(data, chunker, &KnownChunks::default())
}

/// The ingest front end: chunks `data` with `chunker` and fingerprints every
/// chunk, returning the spans and fingerprints in stream order — exactly
/// what `chunk_spans` followed by `Fingerprint::of` per span returns. Where
/// the stream continues with a chunk of `known`, that chunk is emitted with
/// its known fingerprint instead of being scanned and hashed; `known` must
/// hold only chunks `chunker` itself cut (see [`KnownChunks::new`]).
///
/// # Panics
///
/// Panics if the chunker returns a length of 0 or past the end of `data`.
pub fn chunk_fingerprints_known(
    data: &[u8],
    chunker: &mut (dyn Chunker + Send),
    known: &KnownChunks<'_>,
) -> (Vec<Range<usize>>, Vec<Fingerprint>) {
    chunk_fingerprints_on(data, chunker, known, threads_for(data.len()))
}

/// [`chunk_fingerprints_known`] on exactly `threads` threads, whatever the
/// input length — the same body, the entry point the tests sweep thread
/// counts through. Not a tuning knob: callers use
/// [`chunk_fingerprints_known`].
#[doc(hidden)]
pub fn chunk_fingerprints_on(
    data: &[u8],
    chunker: &mut (dyn Chunker + Send),
    known: &KnownChunks<'_>,
    threads: usize,
) -> (Vec<Range<usize>>, Vec<Fingerprint>) {
    chunker.reset();
    let mut pos = 0;
    let segments = std::iter::from_fn(|| {
        let mut cuts = Vec::with_capacity(SEGMENT_CHUNKS);
        while pos < data.len() && cuts.len() < SEGMENT_CHUNKS {
            let (span, fingerprint) = next_cut(data, pos, chunker, known);
            pos = span.end;
            cuts.push((span, fingerprint));
        }
        (!cuts.is_empty()).then_some(cuts)
    });
    let hashed = map_ordered(segments, threads, |cuts| {
        cuts.into_iter()
            .map(|(span, fingerprint)| {
                let fingerprint =
                    fingerprint.unwrap_or_else(|| Fingerprint::of(&data[span.clone()]));
                (span, fingerprint)
            })
            .collect::<Vec<_>>()
    });
    hashed.into_iter().flatten().unzip()
}

/// The chunk at `pos`, a boundary of `data`: the known chunk the stream
/// continues with, with its fingerprint, else the chunker's cut.
fn next_cut(
    data: &[u8],
    pos: usize,
    chunker: &mut dyn Chunker,
    known: &KnownChunks<'_>,
) -> (Range<usize>, Option<Fingerprint>) {
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

#[cfg(test)]
mod tests {
    use super::super::known::KNOWN_PREFIX;
    use super::*;
    use hidestore_chunking::{chunk_spans, ChunkerKind, FixedChunker, TttdChunker};
    use hidestore_hash::PARALLEL_MIN_BYTES;

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

    type Chunked = (Vec<Range<usize>>, Vec<Fingerprint>);

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

    /// [`chunk_fingerprints`] on exactly `threads` threads.
    fn on_threads(data: &[u8], chunker: &mut (dyn Chunker + Send), threads: usize) -> Chunked {
        chunk_fingerprints_on(data, chunker, &KnownChunks::default(), threads)
    }

    #[test]
    fn every_thread_count_matches_the_reference_at_every_segment_edge() {
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
            for threads in [1, 2, 4, 8] {
                let got = on_threads(&data[..len], &mut TttdChunker::new(1024), threads);
                assert_eq!(got, want, "len={len} threads={threads}");
            }
        }
    }

    #[test]
    fn partial_tail_segment_preserved() {
        // 130 fixed chunks: whole segments and a partial tail.
        assert_ne!(130 % SEGMENT_CHUNKS, 0);
        let data = vec![7u8; 13_000];
        let (spans, fps) = on_threads(&data, &mut FixedChunker::new(100), 3);
        assert_eq!(spans.len(), 130);
        assert_eq!(fps.len(), 130);
        assert_eq!(spans.last(), Some(&(12_900..13_000)));
    }

    /// A chunker that cuts nothing.
    struct Stuck;

    impl Chunker for Stuck {
        fn next_chunk_len(&mut self, _data: &[u8]) -> usize {
            0
        }
        fn min_size(&self) -> usize {
            1
        }
        fn max_size(&self) -> usize {
            1
        }
    }

    /// The chunker runs on whichever thread holds the queue lock; its
    /// invalid cut must still panic the caller, at every thread count.
    #[test]
    fn a_zero_length_cut_panics_at_every_thread_count() {
        let data = noise(300_000, 4);
        for threads in [1, 2, 8] {
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                on_threads(&data, &mut Stuck, threads)
            }));
            let payload = caught.expect_err("a zero-length cut must panic");
            let message = payload.downcast_ref::<String>().map_or("", String::as_str);
            assert!(
                message.starts_with("chunker returned invalid length 0"),
                "{threads} threads: {message:?}"
            );
        }
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
    /// end returns the reference chunking of each edited version, by its own
    /// thread choice and at 1, 2 and 8 threads; and most boundaries of a
    /// later version are predicted, so the check is not vacuous.
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
                assert!(data.len() < PARALLEL_MIN_BYTES, "{case} runs on one thread");
                let got = chunk_fingerprints_known(data, kind.build(avg).as_mut(), &known);
                assert_eq!(got, want, "{case}");
                for threads in [1, 2, 8] {
                    let got =
                        chunk_fingerprints_on(data, kind.build(avg).as_mut(), &known, threads);
                    assert_eq!(got, want, "{case}, {threads} threads");
                }
            }
        }
    }
}
