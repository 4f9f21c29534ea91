//! Pipeline configuration.

use hidestore_chunking::ChunkerKind;
use hidestore_storage::CONTAINER_CAPACITY;

/// Configuration of a [`crate::BackupPipeline`]: the chunking, container and
/// segment knobs Destor's pipeline exposes.
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
            container_capacity: CONTAINER_CAPACITY,
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

    /// Checks every field's range — the check behind
    /// [`crate::BackupPipeline::new`]'s panic.
    ///
    /// # Errors
    ///
    /// A message naming the first out-of-range field: an average chunk
    /// under 64 bytes, an empty segment, or a container smaller than the
    /// maximum chunk.
    pub fn validate(&self) -> Result<(), String> {
        if self.avg_chunk_size < 64 {
            return Err(format!(
                "average chunk size {} is below the 64-byte minimum",
                self.avg_chunk_size
            ));
        }
        if self.segment_chunks == 0 {
            return Err("segment must hold at least one chunk".to_string());
        }
        let max_chunk = self.chunker.build(self.avg_chunk_size).max_size();
        if self.container_capacity < max_chunk {
            return Err(format!(
                "container capacity {} cannot hold a maximum-size chunk ({max_chunk})",
                self.container_capacity
            ));
        }
        Ok(())
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
        assert_eq!(c.validate(), Ok(()));
    }

    #[test]
    fn small_config_is_valid() {
        assert_eq!(PipelineConfig::small_for_tests().validate(), Ok(()));
    }

    #[test]
    fn out_of_range_fields_rejected() {
        let c = PipelineConfig::default();
        for (bad, what) in [
            (
                PipelineConfig {
                    container_capacity: 512,
                    avg_chunk_size: 4096,
                    ..c
                },
                "cannot hold",
            ),
            (
                PipelineConfig {
                    avg_chunk_size: 10,
                    ..c
                },
                "64-byte minimum",
            ),
            (
                PipelineConfig {
                    segment_chunks: 0,
                    ..c
                },
                "segment",
            ),
        ] {
            let err = bad.validate().unwrap_err();
            assert!(err.contains(what), "{err:?} should mention {what:?}");
        }
    }
}
