//! HiDeStore configuration.

use std::path::Path;

use hidestore_chunking::ChunkerKind;
use hidestore_failpoint::{RealVfs, Vfs};
use hidestore_storage::CONTAINER_CAPACITY;

use crate::system::HiDeStoreError;

/// Name of the repository's configuration file, a plain `key=value` text
/// file in the repository root written by `init` and read on every open.
pub const CONFIG_FILE: &str = "config";

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
}

impl Default for HiDeStoreConfig {
    fn default() -> Self {
        HiDeStoreConfig {
            chunker: ChunkerKind::Tttd,
            avg_chunk_size: 8 * 1024,
            container_capacity: CONTAINER_CAPACITY,
            compact_threshold: 0.95,
            history_depth: 1,
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
        }
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
    /// repository), unreadable, a known key has an unparsable value, the
    /// `scheme` key names anything but `hidestore`, or the values fail
    /// [`HiDeStoreConfig::validate`] — the file is outside input, so a bad
    /// value is an error here, never a panic in a later open.
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
                "scheme" => check_scheme(value)?,
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
        // The fixed `scheme` line keeps every `config` byte-identical to
        // what older builds wrote, and tells an older build that this
        // repository deduplicates inline (see `check_scheme`).
        let text = format!(
            "chunk={}\ncontainer={}\ndepth={}\nscheme=hidestore\n",
            self.avg_chunk_size, self.container_capacity, self.history_depth,
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

/// Accepts the `scheme` key's one value. The removed out-of-line schemes
/// (`hybrid`, `revdedup`) are refused by name: their newer recipes point
/// into older-tagged archival containers, so opening such a repository as
/// HiDeStore and pruning by tag would drop live chunks.
fn check_scheme(value: &str) -> Result<(), HiDeStoreError> {
    match value {
        "hidestore" => Ok(()),
        "hybrid" | "revdedup" => Err(HiDeStoreError::Config(format!(
            "scheme {value:?} was removed (this build opens only hidestore repositories)"
        ))),
        other => Err(HiDeStoreError::Config(format!(
            "unknown scheme {other:?} (expected hidestore)"
        ))),
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
        let c = HiDeStoreConfig {
            history_depth: 2,
            ..HiDeStoreConfig::small_for_tests()
        };
        assert_eq!(c.history_depth, 2);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn out_of_range_fields_rejected() {
        let c = HiDeStoreConfig::small_for_tests();
        for (bad, what) in [
            (
                HiDeStoreConfig {
                    history_depth: 0,
                    ..c
                },
                "history depth",
            ),
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
        HiDeStoreConfig::small_for_tests().save_to(&dir).unwrap();
        let written = std::fs::read_to_string(dir.join(CONFIG_FILE)).unwrap();
        assert!(written.ends_with("scheme=hidestore\n"), "{written:?}");
        let loaded = HiDeStoreConfig::load_from(&dir).unwrap();
        assert_eq!(loaded.avg_chunk_size, 1024);
        // A pre-scheme config file loads too.
        std::fs::write(dir.join(CONFIG_FILE), "chunk=1024\ncontainer=32768\n").unwrap();
        assert!(HiDeStoreConfig::load_from(&dir).is_ok());
        // A bad spelling is a config error, not a silent default.
        std::fs::write(dir.join(CONFIG_FILE), "scheme=rev-dedup\n").unwrap();
        let err = HiDeStoreConfig::load_from(&dir).unwrap_err().to_string();
        assert!(err.contains("unknown scheme"), "{err}");
        // The removed schemes fail typed, named as removed.
        for removed in ["hybrid", "revdedup"] {
            std::fs::write(dir.join(CONFIG_FILE), format!("scheme={removed}\n")).unwrap();
            let err = HiDeStoreConfig::load_from(&dir).unwrap_err();
            assert!(matches!(err, HiDeStoreError::Config(_)), "{err:?}");
            let msg = err.to_string();
            assert!(msg.contains(removed) && msg.contains("removed"), "{msg}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
