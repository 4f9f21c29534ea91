//! Pipeline configuration.

use hidestore_chunking::ChunkerKind;

/// Configuration of a [`crate::BackupPipeline`], mirroring the knobs of
/// Destor's config file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineConfig {
    /// Chunking algorithm (the paper uses TTTD, §5.1).
    pub chunker: ChunkerKind,
    /// Target average chunk size in bytes (4–8 KiB typical, §2.1).
    pub avg_chunk_size: usize,
    /// Container capacity in bytes (4 MiB in the paper).
    pub container_capacity: usize,
    /// Number of chunks per segment handed to the index and rewriter.
    pub segment_chunks: usize,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            chunker: ChunkerKind::Tttd,
            avg_chunk_size: 8 * 1024,
            container_capacity: 4 * 1024 * 1024,
            segment_chunks: 1024,
        }
    }
}

impl PipelineConfig {
    /// A scaled-down configuration for fast unit tests: small chunks, small
    /// containers, small segments. Behaviourally identical, just denser in
    /// events per byte.
    pub fn small_for_tests() -> Self {
        PipelineConfig {
            chunker: ChunkerKind::Tttd,
            avg_chunk_size: 1024,
            container_capacity: 32 * 1024,
            segment_chunks: 32,
        }
    }

    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics if any field is zero or the container cannot hold even one
    /// maximum-size chunk.
    pub fn validate(&self) {
        assert!(self.avg_chunk_size >= 64, "average chunk size too small");
        assert!(
            self.segment_chunks > 0,
            "segment must hold at least one chunk"
        );
        let max_chunk = self.chunker.build(self.avg_chunk_size).max_size();
        assert!(
            self.container_capacity >= max_chunk,
            "container capacity {} cannot hold a maximum-size chunk ({max_chunk})",
            self.container_capacity
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper() {
        let c = PipelineConfig::default();
        assert_eq!(c.container_capacity, 4 * 1024 * 1024);
        assert_eq!(c.chunker, ChunkerKind::Tttd);
        c.validate();
    }

    #[test]
    fn small_config_is_valid() {
        PipelineConfig::small_for_tests().validate();
    }

    #[test]
    #[should_panic(expected = "cannot hold")]
    fn container_smaller_than_chunk_rejected() {
        let c = PipelineConfig {
            container_capacity: 512,
            avg_chunk_size: 4096,
            ..PipelineConfig::default()
        };
        c.validate();
    }
}
