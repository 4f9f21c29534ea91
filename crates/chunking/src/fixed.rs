//! Fixed-size chunking: the non-content-defined baseline.

use crate::Chunker;

/// Cuts the stream into fixed-size blocks.
///
/// Fixed chunking has no resistance to the boundary-shift problem (paper
/// §2.2): inserting one byte re-aligns every later chunk. It is included as
/// the classic baseline and for workloads that are block-aligned by
/// construction.
///
/// # Examples
///
/// ```
/// use hidestore_chunking::{chunk_spans, FixedChunker};
///
/// let spans = chunk_spans(&mut FixedChunker::new(4096), &vec![0u8; 10_000]);
/// assert_eq!(spans.len(), 3);
/// assert_eq!(spans[2].len(), 10_000 - 2 * 4096);
/// ```
#[derive(Debug, Clone)]
pub struct FixedChunker {
    size: usize,
}

impl FixedChunker {
    /// Creates a fixed chunker with block size `size`.
    ///
    /// # Panics
    ///
    /// Panics if `size == 0`.
    pub fn new(size: usize) -> Self {
        assert!(size > 0, "chunk size must be non-zero");
        FixedChunker { size }
    }

    /// The configured block size.
    pub fn size(&self) -> usize {
        self.size
    }
}

impl Chunker for FixedChunker {
    fn next_chunk_len(&mut self, data: &[u8]) -> usize {
        self.size.min(data.len())
    }

    fn min_size(&self) -> usize {
        self.size
    }

    fn max_size(&self) -> usize {
        self.size
    }

    /// A whole block: every stream that begins with it is cut there.
    fn cut_confirmed(&self, chunk: &[u8]) -> bool {
        chunk.len() == self.size
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk_spans;

    #[test]
    fn exact_multiple_produces_equal_blocks() {
        let spans = chunk_spans(&mut FixedChunker::new(100), &[0u8; 500]);
        assert_eq!(spans.len(), 5);
        assert!(spans.iter().all(|s| s.len() == 100));
    }

    #[test]
    fn tail_shorter_than_block() {
        let spans = chunk_spans(&mut FixedChunker::new(64), &[0u8; 70]);
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].len(), 6);
    }

    #[test]
    fn single_byte_stream() {
        let spans = chunk_spans(&mut FixedChunker::new(64), &[9u8]);
        assert_eq!(spans, vec![0..1]);
    }

    #[test]
    #[should_panic(expected = "chunk size must be non-zero")]
    fn zero_size_rejected() {
        FixedChunker::new(0);
    }
}
