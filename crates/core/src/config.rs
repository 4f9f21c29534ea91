//! HiDeStore configuration.

use std::path::Path;

use hidestore_chunking::ChunkerKind;
use hidestore_failpoint::{RealVfs, Vfs};

use crate::system::HiDeStoreError;

/// Name of the repository's configuration file, a plain `key=value` text
/// file in the repository root written by `init` and read on every open.
pub const CONFIG_FILE: &str = "config";

/// Which deduplication scheme a repository runs.
///
/// The scheme decides *where* duplicate detection happens relative to the
/// ingest path:
///
/// * [`DedupMode::HiDeStore`] — the paper's design: exact chunk-level dedup
///   inline against the double-hash-table fingerprint cache, with cold
///   chunks demoted into version-tagged archival containers at the end of
///   every version.
/// * [`DedupMode::RevDedup`] — the RevDedup baseline: coarse segment-level
///   dedup inline (only whole identical segments are suppressed, so the
///   newest version stays physically sequential), with the remaining
///   duplicate copies of *older* versions removed by the out-of-line
///   reverse-deduplication pass ([`crate::HiDeStore::out_of_line_pass`]).
/// * [`DedupMode::Hybrid`] — hybrid inline/out-of-line dedup: inline
///   lookups consult only the previous version's fingerprints (a bounded
///   memory budget), and the same out-of-line pass later removes whatever
///   duplicates the bounded inline index missed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DedupMode {
    /// Exact inline dedup through the fingerprint cache (the paper).
    #[default]
    HiDeStore,
    /// Segment-level inline dedup + out-of-line reverse dedup (RevDedup).
    RevDedup,
    /// Bounded inline dedup + exact out-of-line dedup (hybrid).
    Hybrid,
}

impl DedupMode {
    /// Every mode, HiDeStore first.
    pub const ALL: [DedupMode; 3] = [DedupMode::HiDeStore, DedupMode::RevDedup, DedupMode::Hybrid];

    /// The config-file / CLI spelling of this mode.
    pub fn name(self) -> &'static str {
        match self {
            DedupMode::HiDeStore => "hidestore",
            DedupMode::RevDedup => "revdedup",
            DedupMode::Hybrid => "hybrid",
        }
    }

    /// Parses a config-file / CLI spelling.
    ///
    /// # Errors
    ///
    /// Returns the offending string when it names no mode.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "hidestore" => Ok(DedupMode::HiDeStore),
            "revdedup" => Ok(DedupMode::RevDedup),
            "hybrid" => Ok(DedupMode::Hybrid),
            other => Err(format!(
                "unknown scheme {other:?} (expected hidestore, revdedup, or hybrid)"
            )),
        }
    }

    /// Whether this mode stores chunks directly into version-tagged
    /// archival containers and relies on the out-of-line pass (RevDedup and
    /// hybrid) rather than the fingerprint cache + active pool.
    pub fn is_out_of_line(self) -> bool {
        !matches!(self, DedupMode::HiDeStore)
    }
}

impl std::fmt::Display for DedupMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Configuration of a [`crate::HiDeStore`] instance.
#[derive(Debug, Clone, Copy)]
pub struct HiDeStoreConfig {
    /// Chunking algorithm (the paper's prototype uses TTTD, §5.1).
    pub chunker: ChunkerKind,
    /// Target average chunk size in bytes.
    pub avg_chunk_size: usize,
    /// Capacity of both active and archival containers (4 MiB in the paper).
    pub container_capacity: usize,
    /// Active containers whose utilization falls below this are merged
    /// during the end-of-version compaction (§4.2).
    pub compact_threshold: f64,
    /// How many previous versions the fingerprint cache retains. The paper
    /// uses 1; for macos-like workloads where chunks skip a version before
    /// going cold (Figure 3d) it adds "another hash table", i.e. depth 2.
    pub history_depth: usize,
    /// Deduplication scheme of the repository (`init --scheme`, persisted
    /// as the `scheme=` config key; absent key = HiDeStore).
    pub scheme: DedupMode,
}

impl Default for HiDeStoreConfig {
    fn default() -> Self {
        HiDeStoreConfig {
            chunker: ChunkerKind::Tttd,
            avg_chunk_size: 8 * 1024,
            container_capacity: 4 * 1024 * 1024,
            compact_threshold: 0.95,
            history_depth: 1,
            scheme: DedupMode::HiDeStore,
        }
    }
}

impl HiDeStoreConfig {
    /// Scaled-down configuration for fast unit tests.
    pub fn small_for_tests() -> Self {
        HiDeStoreConfig {
            chunker: ChunkerKind::Tttd,
            avg_chunk_size: 1024,
            container_capacity: 32 * 1024,
            compact_threshold: 0.5,
            history_depth: 1,
            scheme: DedupMode::HiDeStore,
        }
    }

    /// Variant running the given deduplication scheme.
    pub fn with_scheme(mut self, scheme: DedupMode) -> Self {
        self.scheme = scheme;
        self
    }

    /// Depth-2 variant for macos-like workloads.
    pub fn with_history_depth(mut self, depth: usize) -> Self {
        self.history_depth = depth;
        self
    }

    /// Reads the repository's `config` file at `dir`. Unknown keys are
    /// ignored, for forward compatibility and so that the retired keys older
    /// builds wrote (`threads`, `net_timeout`, `restore_threads`,
    /// `restore_queue`, `restore_readahead`) keep loading whatever their
    /// value.
    ///
    /// # Errors
    ///
    /// [`HiDeStoreError::Config`] when the file is missing (not a
    /// repository), unreadable, a known key has an unparsable value, or the
    /// values fail [`HiDeStoreConfig::validate`] — the file is outside input,
    /// so a bad value is an error here, never a panic in a later open.
    pub fn load_from(dir: impl AsRef<Path>) -> Result<Self, HiDeStoreError> {
        Self::load_from_with(dir, &RealVfs)
    }

    /// [`HiDeStoreConfig::load_from`] against an explicit [`Vfs`], so crash
    /// tests can exercise config reads through the fault-injecting shim.
    ///
    /// # Errors
    ///
    /// As [`HiDeStoreConfig::load_from`].
    pub fn load_from_with<V: Vfs>(dir: impl AsRef<Path>, vfs: &V) -> Result<Self, HiDeStoreError> {
        let dir = dir.as_ref();
        let path = dir.join(CONFIG_FILE);
        if !vfs.exists(&path) {
            return Err(HiDeStoreError::Config(format!(
                "{} is not a hidestore repository (run `init` first)",
                dir.display()
            )));
        }
        let bytes = vfs
            .read(&path)
            .map_err(|e| HiDeStoreError::Config(format!("cannot read {}: {e}", path.display())))?;
        let text = String::from_utf8(bytes).map_err(|_| {
            HiDeStoreError::Config(format!("{} is not valid UTF-8", path.display()))
        })?;
        let mut config = HiDeStoreConfig::default();
        for line in text.lines() {
            let Some((key, value)) = line.split_once('=') else {
                continue;
            };
            let key = key.trim();
            let value = value.trim();
            let parsed = |what: &str| {
                value.parse::<usize>().map_err(|_| {
                    HiDeStoreError::Config(format!("config key {what} has invalid value {value:?}"))
                })
            };
            match key {
                "chunk" => config.avg_chunk_size = parsed(key)?,
                "container" => config.container_capacity = parsed(key)?,
                "depth" => config.history_depth = parsed(key)?,
                "scheme" => {
                    config.scheme = DedupMode::parse(value).map_err(HiDeStoreError::Config)?;
                }
                _ => {}
            }
        }
        config.validate()?;
        Ok(config)
    }

    /// Writes this configuration as `dir/config`, the file
    /// [`HiDeStoreConfig::load_from`] reads.
    ///
    /// # Errors
    ///
    /// [`HiDeStoreError::Config`] when the file cannot be written.
    pub fn save_to(&self, dir: impl AsRef<Path>) -> Result<(), HiDeStoreError> {
        self.save_to_with(dir, &RealVfs)
    }

    /// [`HiDeStoreConfig::save_to`] against an explicit [`Vfs`], so crash
    /// tests can exercise config writes through the fault-injecting shim.
    ///
    /// # Errors
    ///
    /// As [`HiDeStoreConfig::save_to`].
    pub fn save_to_with<V: Vfs>(
        &self,
        dir: impl AsRef<Path>,
        vfs: &V,
    ) -> Result<(), HiDeStoreError> {
        let path = dir.as_ref().join(CONFIG_FILE);
        let text = format!(
            "chunk={}\ncontainer={}\ndepth={}\nscheme={}\n",
            self.avg_chunk_size, self.container_capacity, self.history_depth, self.scheme,
        );
        vfs.write(&path, text.as_bytes())
            .map_err(|e| HiDeStoreError::Config(format!("cannot write {}: {e}", path.display())))
    }

    /// Checks every field's range — the one validator behind
    /// [`HiDeStoreConfig::load_from`], `init`, and [`crate::HiDeStore::new`]'s
    /// panic.
    ///
    /// # Errors
    ///
    /// [`HiDeStoreError::Config`] naming the first out-of-range field: an
    /// average chunk under 64 bytes, a history depth of 0, a compaction
    /// threshold outside `(0, 1]`, or a container smaller than the maximum
    /// chunk.
    pub fn validate(&self) -> Result<(), HiDeStoreError> {
        let invalid = |msg: String| Err(HiDeStoreError::Config(msg));
        if self.avg_chunk_size < 64 {
            return invalid(format!(
                "average chunk size {} is below the 64-byte minimum",
                self.avg_chunk_size
            ));
        }
        if self.history_depth == 0 {
            return invalid("history depth must be at least 1".to_string());
        }
        if !(self.compact_threshold > 0.0 && self.compact_threshold <= 1.0) {
            return invalid(format!(
                "compaction threshold {} must be in (0, 1]",
                self.compact_threshold
            ));
        }
        let max_chunk = self.chunker.build(self.avg_chunk_size).max_size();
        if self.container_capacity < max_chunk {
            return invalid(format!(
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
        let c = HiDeStoreConfig::default();
        assert_eq!(c.container_capacity, 4 * 1024 * 1024);
        assert_eq!(c.history_depth, 1);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn depth_2_for_macos() {
        let c = HiDeStoreConfig::small_for_tests().with_history_depth(2);
        assert_eq!(c.history_depth, 2);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn out_of_range_fields_rejected() {
        let c = HiDeStoreConfig::small_for_tests();
        for (bad, what) in [
            (c.with_history_depth(0), "history depth"),
            (
                HiDeStoreConfig {
                    avg_chunk_size: 10,
                    ..c
                },
                "64-byte minimum",
            ),
            (
                HiDeStoreConfig {
                    container_capacity: 100,
                    ..c
                },
                "cannot hold",
            ),
            (
                HiDeStoreConfig {
                    compact_threshold: 0.0,
                    ..c
                },
                "compaction threshold",
            ),
        ] {
            let err = bad.validate().unwrap_err().to_string();
            assert!(err.contains(what), "{err:?} should mention {what:?}");
        }
    }

    #[test]
    fn out_of_range_config_file_is_a_config_error() {
        let dir =
            std::env::temp_dir().join(format!("hidestore-config-range-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        for text in ["depth=0\n", "chunk=10\n", "chunk=8192\ncontainer=4096\n"] {
            std::fs::write(dir.join(CONFIG_FILE), text).unwrap();
            assert!(
                matches!(
                    HiDeStoreConfig::load_from(&dir),
                    Err(HiDeStoreError::Config(_))
                ),
                "{text:?}"
            );
        }
        // A retired key is ignored whatever its value.
        std::fs::write(
            dir.join(CONFIG_FILE),
            "threads=many\nqueue_depth=0\nnet_timeout=0\n",
        )
        .unwrap();
        assert!(HiDeStoreConfig::load_from(&dir).is_ok());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn scheme_round_trips_through_config_file() {
        let dir =
            std::env::temp_dir().join(format!("hidestore-config-scheme-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        for mode in DedupMode::ALL {
            let c = HiDeStoreConfig::small_for_tests().with_scheme(mode);
            c.save_to(&dir).unwrap();
            let loaded = HiDeStoreConfig::load_from(&dir).unwrap();
            assert_eq!(loaded.scheme, mode);
            assert_eq!(DedupMode::parse(mode.name()), Ok(mode));
        }
        // A pre-scheme config file defaults to HiDeStore.
        std::fs::write(dir.join(CONFIG_FILE), "chunk=1024\ncontainer=32768\n").unwrap();
        let legacy = HiDeStoreConfig::load_from(&dir).unwrap();
        assert_eq!(legacy.scheme, DedupMode::HiDeStore);
        // A bad spelling is a config error, not a silent default.
        std::fs::write(dir.join(CONFIG_FILE), "scheme=rev-dedup\n").unwrap();
        assert!(HiDeStoreConfig::load_from(&dir).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
