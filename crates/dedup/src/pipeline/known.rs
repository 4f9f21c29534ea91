//! The chunks the ingest front end may emit without scanning or hashing.
//!
//! A [`KnownChunks`] set borrows `(fingerprint, bytes)` pairs — in
//! `HiDeStore::backup`, the active pool's chunks that this instance itself
//! cut and fingerprinted — and indexes them by their first
//! `KNOWN_PREFIX` bytes. At a chunk boundary, [`KnownChunks::predict`]
//! returns the one whose bytes the stream continues with, if any. The
//! prediction is exact, not probable (DESIGN.md §8.6):
//!
//! * the candidate's bytes are compared with the stream's in full, so the
//!   known fingerprint is the SHA-1 of exactly the bytes emitted;
//! * only chunks the chunker's [`Chunker::cut_confirmed`] accepts are
//!   indexed, so the chunker would cut the stream at the candidate's end
//!   whatever follows it.

use hidestore_chunking::Chunker;
use hidestore_hash::Fingerprint;

/// Stream bytes looked up at each chunk boundary. A chunk shorter than this
/// is never known; a stream tail shorter than this is always scanned.
pub(crate) const KNOWN_PREFIX: usize = 16;

/// Candidates compared per boundary. Chunks that share their first
/// `KNOWN_PREFIX` bytes are rare outside runs of one byte value, whose
/// forced cuts `cut_confirmed` rejects anyway; the cap bounds the work a
/// boundary can cost when they are not.
const MAX_CANDIDATES: usize = 4;

/// One indexed chunk.
#[derive(Debug, Clone, Copy)]
struct Known<'a> {
    prefix: u128,
    fingerprint: Fingerprint,
    bytes: &'a [u8],
}

/// Chunks known by fingerprint and bytes, indexed by their first 16 bytes;
/// the empty set (`default()`) predicts nothing.
///
/// The index is one sorted vector of borrowed slices: building it copies
/// no chunk and allocates nothing per chunk.
///
/// # Examples
///
/// ```
/// use hidestore_chunking::{chunk_spans, TttdChunker};
/// use hidestore_dedup::{chunk_fingerprints, chunk_fingerprints_known, KnownChunks};
/// use hidestore_hash::Fingerprint;
///
/// let v1: Vec<u8> = (0..200_000u32).map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8).collect();
/// let mut chunker = TttdChunker::new(1024);
/// let spans = chunk_spans(&mut chunker, &v1);
/// let known = KnownChunks::new(
///     &chunker,
///     spans.iter().map(|s| (Fingerprint::of(&v1[s.clone()]), &v1[s.clone()])),
/// );
///
/// // A second version with one byte inserted: the same output as scanning
/// // and hashing every chunk.
/// let mut v2 = v1.clone();
/// v2.insert(100_000, 0xAB);
/// assert_eq!(
///     chunk_fingerprints_known(&v2, &mut chunker, &known),
///     chunk_fingerprints(&v2, &mut chunker),
/// );
/// ```
#[derive(Debug, Default)]
pub struct KnownChunks<'a> {
    /// Sorted by (prefix, fingerprint).
    entries: Vec<Known<'a>>,
}

impl<'a> KnownChunks<'a> {
    /// Indexes the `chunks` that `chunker` cut — each `(fingerprint,
    /// bytes)` with `fingerprint` the SHA-1 of `bytes`, emitted whole by
    /// this chunker from a boundary — keeping those at least 16 bytes long
    /// whose cut `chunker.cut_confirmed` accepts.
    ///
    /// Passing chunks of any other origin breaks the front end's
    /// exactness: the caller vouches for both facts.
    pub fn new(
        chunker: &dyn Chunker,
        chunks: impl IntoIterator<Item = (Fingerprint, &'a [u8])>,
    ) -> Self {
        let mut entries: Vec<Known<'a>> = chunks
            .into_iter()
            .filter_map(|(fingerprint, bytes)| {
                let prefix = u128::from_be_bytes(*bytes.first_chunk::<KNOWN_PREFIX>()?);
                chunker.cut_confirmed(bytes).then_some(Known {
                    prefix,
                    fingerprint,
                    bytes,
                })
            })
            .collect();
        entries.sort_unstable_by_key(|e| (e.prefix, e.fingerprint));
        KnownChunks { entries }
    }

    /// The known chunk `rest` — the stream from a chunk boundary on —
    /// begins with, as (fingerprint, length). At most `MAX_CANDIDATES`
    /// chunks sharing `rest`'s first `KNOWN_PREFIX` bytes are compared.
    pub(crate) fn predict(&self, rest: &[u8]) -> Option<(Fingerprint, usize)> {
        if self.entries.is_empty() {
            return None;
        }
        let prefix = u128::from_be_bytes(*rest.first_chunk::<KNOWN_PREFIX>()?);
        let first = self.entries.partition_point(|e| e.prefix < prefix);
        self.entries[first..]
            .iter()
            .take(MAX_CANDIDATES)
            .take_while(|e| e.prefix == prefix)
            .find(|e| rest.starts_with(e.bytes))
            .map(|e| (e.fingerprint, e.bytes.len()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hidestore_chunking::{chunk_spans, FastCdcChunker, FixedChunker, TttdChunker};

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

    fn index<'a>(
        chunker: &dyn Chunker,
        data: &'a [u8],
        spans: &[std::ops::Range<usize>],
    ) -> KnownChunks<'a> {
        KnownChunks::new(
            chunker,
            spans
                .iter()
                .map(|s| (Fingerprint::of(&data[s.clone()]), &data[s.clone()])),
        )
    }

    #[test]
    fn only_confirmed_chunks_of_at_least_the_prefix_are_indexed() {
        let data = noise(100_000, 1);
        let mut tttd = TttdChunker::new(1024);
        let spans = chunk_spans(&mut tttd, &data);
        let confirmed = spans
            .iter()
            .filter(|s| tttd.cut_confirmed(&data[(*s).clone()]))
            .count();
        assert!(confirmed > 0);
        assert_eq!(index(&tttd, &data, &spans).entries.len(), confirmed);
        // FastCDC confirms nothing; Fixed confirms every whole block but
        // not a tail, nor a block shorter than the prefix.
        let mut fastcdc = FastCdcChunker::new(1024);
        let spans = chunk_spans(&mut fastcdc, &data);
        assert!(index(&fastcdc, &data, &spans).entries.is_empty());
        let mut fixed = FixedChunker::new(1000);
        let spans = chunk_spans(&mut fixed, &data[..99_500]);
        assert_eq!(index(&fixed, &data, &spans).entries.len(), 99);
        let mut tiny = FixedChunker::new(KNOWN_PREFIX - 1);
        let spans = chunk_spans(&mut tiny, &data[..1500]);
        assert!(index(&tiny, &data, &spans).entries.is_empty());
    }

    #[test]
    fn prediction_needs_every_byte_and_stops_at_the_candidate_cap() {
        // Twelve fixed blocks that share their first KNOWN_PREFIX bytes and
        // differ in the last: only a full match predicts, and only the
        // first MAX_CANDIDATES in (prefix, fingerprint) order are tried.
        let blocks: Vec<Vec<u8>> = (0..12u8)
            .map(|i| {
                let mut b = noise(64, 9);
                b[63] = i;
                b
            })
            .collect();
        let fixed = FixedChunker::new(64);
        let known = KnownChunks::new(
            &fixed,
            blocks.iter().map(|b| (Fingerprint::of(b), b.as_slice())),
        );
        assert_eq!(known.entries.len(), 12);
        let tried: Vec<Fingerprint> = known.entries[..MAX_CANDIDATES]
            .iter()
            .map(|e| e.fingerprint)
            .collect();
        for block in &blocks {
            let fp = Fingerprint::of(block);
            let predicted = known.predict(block);
            assert_eq!(predicted.is_some(), tried.contains(&fp));
            if let Some(p) = predicted {
                assert_eq!(p, (fp, 64));
            }
            let mut flipped = block.clone();
            flipped[40] ^= 1;
            assert_eq!(known.predict(&flipped), None, "a flipped byte");
            assert_eq!(known.predict(&block[..63]), None, "a short tail");
        }
        assert_eq!(KnownChunks::default().predict(&blocks[0]), None);
    }
}
