//! Destor-style text configuration.
//!
//! Destor drives its pipeline from a small key/value config file
//! (`destor.config`): which chunking algorithm, which index, which rewriting
//! scheme, container size, and so on. This module provides the same
//! operator-facing surface so experiments can be described as files instead
//! of code. The selectable phases are exactly the paper's baselines (§5).
//!
//! ```text
//! # comment lines start with '#'
//! chunker   = tttd          # fixed | rabin | tttd | fastcdc | ae
//! chunk     = 8192          # average chunk size, bytes (>= 64)
//! container = 4194304       # container capacity, bytes (>= max chunk)
//! segment   = 1024          # chunks per segment (>= 1)
//! index     = ddfs          # ddfs | sparse | silo
//! rewrite   = capping       # none | cbr | cfl | capping | fbw
//! cap       = 20            # capping level (capping only, >= 1)
//! ```
//!
//! An unknown key or value, or an out-of-range number, is a
//! [`ParseConfigError`]; unknown-value errors list the accepted values.

use std::fmt;
use std::str::FromStr;

use hidestore_chunking::ChunkerKind;
use hidestore_index::{FingerprintIndex, IndexKind};
use hidestore_rewriting::{Capping, Cbr, CflRewrite, Fbw, NoRewrite, RewritePolicy};

use crate::config::PipelineConfig;
use crate::pipeline::BackupPipeline;
use hidestore_storage::MemoryContainerStore;

/// A parsed Destor-style configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DestorConfig {
    /// Pipeline-level knobs.
    pub pipeline: PipelineConfig,
    /// Index scheme.
    pub index: IndexKind,
    /// Rewriting scheme.
    pub rewrite: RewriteKind,
    /// Capping level (used by `capping`).
    pub cap: usize,
}

/// Selectable rewriting schemes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RewriteKind {
    /// No rewriting.
    None,
    /// Context-based rewriting.
    Cbr,
    /// CFL-driven selective rewrite.
    Cfl,
    /// Capping.
    Capping,
    /// Sliding look-back window.
    Fbw,
}

impl RewriteKind {
    /// Every selectable scheme.
    pub const ALL: [RewriteKind; 5] = [
        RewriteKind::None,
        RewriteKind::Cbr,
        RewriteKind::Cfl,
        RewriteKind::Capping,
        RewriteKind::Fbw,
    ];
}

impl fmt::Display for RewriteKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            RewriteKind::None => "none",
            RewriteKind::Cbr => "cbr",
            RewriteKind::Cfl => "cfl",
            RewriteKind::Capping => "capping",
            RewriteKind::Fbw => "fbw",
        };
        f.write_str(name)
    }
}

impl Default for DestorConfig {
    fn default() -> Self {
        DestorConfig {
            pipeline: PipelineConfig::default(),
            index: IndexKind::Ddfs,
            rewrite: RewriteKind::None,
            cap: 20,
        }
    }
}

/// Error from parsing a configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseConfigError {
    /// 1-based line of the offending entry; 0 for a range check over the
    /// whole configuration.
    line: usize,
    message: String,
}

impl fmt::Display for ParseConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.line {
            0 => write!(f, "config: {}", self.message),
            line => write!(f, "config line {line}: {}", self.message),
        }
    }
}

impl std::error::Error for ParseConfigError {}

/// The kind in `all` named `value`, or an error listing every accepted name.
fn pick<K: Copy + fmt::Display>(what: &str, all: &[K], value: &str) -> Result<K, String> {
    all.iter()
        .copied()
        .find(|kind| kind.to_string() == value)
        .ok_or_else(|| {
            let names: Vec<String> = all.iter().map(K::to_string).collect();
            format!(
                "unknown {what} {value:?}; expected one of {}",
                names.join(", ")
            )
        })
}

impl FromStr for DestorConfig {
    type Err = ParseConfigError;

    fn from_str(text: &str) -> Result<Self, Self::Err> {
        let mut config = DestorConfig::default();
        for (i, raw) in text.lines().enumerate() {
            let line = i + 1;
            let err = |message: String| ParseConfigError { line, message };
            // Strip comments and whitespace.
            let content = raw.split('#').next().unwrap_or("").trim();
            if content.is_empty() {
                continue;
            }
            let (key, value) = content
                .split_once('=')
                .ok_or_else(|| err(format!("expected `key = value`, got {content:?}")))?;
            let (key, value) = (key.trim(), value.trim());
            match key {
                "chunker" => {
                    config.pipeline.chunker = pick(key, &ChunkerKind::ALL, value).map_err(err)?
                }
                "chunk" => {
                    config.pipeline.avg_chunk_size = value
                        .parse()
                        .map_err(|e| err(format!("bad chunk size: {e}")))?
                }
                "container" => {
                    config.pipeline.container_capacity = value
                        .parse()
                        .map_err(|e| err(format!("bad container size: {e}")))?
                }
                "segment" => {
                    config.pipeline.segment_chunks = value
                        .parse()
                        .map_err(|e| err(format!("bad segment size: {e}")))?
                }
                "index" => config.index = pick(key, &IndexKind::ALL, value).map_err(err)?,
                "rewrite" => config.rewrite = pick(key, &RewriteKind::ALL, value).map_err(err)?,
                "cap" => config.cap = value.parse().map_err(|e| err(format!("bad cap: {e}")))?,
                other => {
                    return Err(err(format!(
                        "unknown key {other:?}; expected one of \
                         chunker, chunk, container, segment, index, rewrite, cap"
                    )))
                }
            }
        }
        let whole = |message: String| ParseConfigError { line: 0, message };
        if config.cap == 0 {
            return Err(whole("cap must be >= 1".into()));
        }
        config.pipeline.validate().map_err(whole)?;
        Ok(config)
    }
}

impl DestorConfig {
    /// Builds the rewriting policy this configuration names.
    pub fn build_rewriter(&self) -> Box<dyn RewritePolicy + Send> {
        let container = self.pipeline.container_capacity as u64;
        match self.rewrite {
            RewriteKind::None => Box::new(NoRewrite::new()),
            RewriteKind::Cbr => Box::new(Cbr::default()),
            RewriteKind::Cfl => Box::new(CflRewrite::new(0.6, container)),
            RewriteKind::Capping => Box::new(Capping::new(self.cap)),
            RewriteKind::Fbw => Box::new(Fbw::new(8 * container, 0.05, container)),
        }
    }

    /// Builds a complete in-memory pipeline from this configuration.
    ///
    /// # Examples
    ///
    /// ```
    /// use hidestore_dedup::destor_config::DestorConfig;
    ///
    /// let config: DestorConfig = "\n\
    ///     chunker = tttd\n\
    ///     chunk = 1024\n\
    ///     container = 65536\n\
    ///     index = silo\n\
    ///     rewrite = capping\n\
    ///     cap = 4\n"
    ///     .parse()?;
    /// let mut pipeline = config.build_pipeline();
    /// pipeline.backup(&vec![7u8; 100_000])?;
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn build_pipeline(
        &self,
    ) -> BackupPipeline<
        Box<dyn FingerprintIndex + Send>,
        Box<dyn RewritePolicy + Send>,
        MemoryContainerStore,
    > {
        BackupPipeline::new(
            self.pipeline,
            self.index.build(),
            self.build_rewriter(),
            MemoryContainerStore::new(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hidestore_restore::Faa;
    use hidestore_storage::VersionId;

    #[test]
    fn parses_full_config() {
        let config: DestorConfig = "\
            # an experiment\n\
            chunker   = fastcdc\n\
            chunk     = 4096\n\
            container = 1048576   # 1 MiB\n\
            segment   = 256\n\
            index     = sparse\n\
            rewrite   = fbw\n\
            cap       = 12\n"
            .parse()
            .unwrap();
        assert_eq!(config.pipeline.chunker, ChunkerKind::FastCdc);
        assert_eq!(config.pipeline.avg_chunk_size, 4096);
        assert_eq!(config.pipeline.container_capacity, 1 << 20);
        assert_eq!(config.pipeline.segment_chunks, 256);
        assert_eq!(config.index, IndexKind::Sparse);
        assert_eq!(config.rewrite, RewriteKind::Fbw);
        assert_eq!(config.cap, 12);
    }

    #[test]
    fn defaults_when_empty() {
        let config: DestorConfig = "".parse().unwrap();
        assert_eq!(config, DestorConfig::default());
    }

    #[test]
    fn rejects_unknown_keys_and_values() {
        let err = "bogus = 1".parse::<DestorConfig>().unwrap_err().to_string();
        assert!(err.contains("chunker, chunk, container"), "{err}");
        assert!("chunker = zpaq".parse::<DestorConfig>().is_err());
        assert!("index = btree".parse::<DestorConfig>().is_err());
        assert!("chunk = banana".parse::<DestorConfig>().is_err());
        assert!("just words".parse::<DestorConfig>().is_err());
        let err = "chunker = zpaq".parse::<DestorConfig>().unwrap_err();
        assert!(err.to_string().contains("line 1"));
    }

    #[test]
    fn built_pipeline_round_trips() {
        let config: DestorConfig = "\
            chunker = tttd\n\
            chunk = 1024\n\
            container = 32768\n\
            segment = 32\n\
            index = ddfs\n\
            rewrite = capping\n\
            cap = 4\n"
            .parse()
            .unwrap();
        let mut p = config.build_pipeline();
        let data: Vec<u8> = (0..200_000u32)
            .map(|i| (i.wrapping_mul(2654435761) >> 17) as u8)
            .collect();
        p.backup(&data).unwrap();
        let mut out = Vec::new();
        p.restore(VersionId::new(1), &mut Faa::new(1 << 18), &mut out)
            .unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn every_rewrite_kind_builds() {
        for (name, kind) in ["none", "cbr", "cfl", "capping", "fbw"]
            .into_iter()
            .zip(RewriteKind::ALL)
        {
            let config: DestorConfig = format!("rewrite = {name}").parse().unwrap();
            assert_eq!(config.rewrite, kind);
            assert_eq!(config.build_rewriter().name(), name);
        }
    }

    #[test]
    fn out_of_range_values_are_errors() {
        for (text, what) in [
            ("chunk = 10", "64-byte minimum"),
            ("segment = 0", "segment"),
            ("container = 100", "cannot hold"),
        ] {
            let err = text.parse::<DestorConfig>().unwrap_err().to_string();
            assert!(
                err.contains(what),
                "{text}: {err:?} should mention {what:?}"
            );
        }
    }

    #[test]
    fn retired_values_are_unknown_and_the_error_lists_the_accepted_ones() {
        for (text, accepted) in [
            ("index = extreme-binning", "ddfs, sparse, silo"),
            ("index = revdedup", "ddfs, sparse, silo"),
            ("rewrite = seg-align", "none, cbr, cfl, capping, fbw"),
        ] {
            let err = text.parse::<DestorConfig>().unwrap_err().to_string();
            assert!(
                err.contains("line 1") && err.contains(accepted),
                "{text}: {err}"
            );
        }
    }
}
