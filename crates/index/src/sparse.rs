//! Sparse Indexing (Lillibridge et al., FAST'09): near-exact deduplication
//! by sampling "hooks" and deduplicating against a few champion segments.

use std::collections::HashMap;

use hidestore_hash::Fingerprint;
use hidestore_storage::{ContainerId, VersionId};

use crate::FingerprintIndex;

/// Configuration for [`SparseIndex`].
#[derive(Debug, Clone, Copy)]
pub struct SparseConfig {
    /// One of every `sample_rate` fingerprints is a hook (paper default
    /// discussion: 128:1 reduces RAM ~128×, §5.2.3).
    pub sample_rate: u64,
    /// Maximum manifests a hook entry remembers (most recent kept).
    pub max_manifests_per_hook: usize,
    /// Champions loaded per incoming segment.
    pub max_champions: usize,
}

impl Default for SparseConfig {
    fn default() -> Self {
        SparseConfig {
            sample_rate: 64,
            max_manifests_per_hook: 4,
            max_champions: 8,
        }
    }
}

/// A stored segment manifest: the fingerprint → container map of one
/// already-deduplicated segment. Manifests live "on disk"; loading one is a
/// counted lookup.
#[derive(Debug, Clone, Default)]
struct Manifest {
    chunks: HashMap<Fingerprint, ContainerId>,
}

/// Near-exact deduplication via sampled hooks and champion segments.
///
/// Per incoming segment: its hook fingerprints vote for stored manifests in
/// the in-memory sparse index; the top-voted manifests ("champions") are
/// loaded from disk (one counted lookup each) and the segment is deduplicated
/// against their union. Chunks whose duplicates live only in non-champion
/// segments are missed — the deduplication-ratio loss visible in the paper's
/// Figure 8.
#[derive(Debug)]
pub struct SparseIndex {
    config: SparseConfig,
    /// In-memory sparse index: hook fingerprint → manifest ids.
    hooks: HashMap<Fingerprint, Vec<usize>>,
    /// "On-disk" manifest store.
    manifests: Vec<Manifest>,
    /// Manifest under construction for the current segment run.
    current: Manifest,
    disk_lookups: u64,
    /// Champion map for the segment being processed.
    champion_chunks: HashMap<Fingerprint, ContainerId>,
}

impl SparseIndex {
    /// Creates a sparse index.
    ///
    /// # Panics
    ///
    /// Panics if `sample_rate == 0` or `max_champions == 0`.
    pub fn new(config: SparseConfig) -> Self {
        assert!(config.sample_rate > 0, "sample_rate must be non-zero");
        assert!(config.max_champions > 0, "max_champions must be non-zero");
        SparseIndex {
            config,
            hooks: HashMap::new(),
            manifests: Vec::new(),
            current: Manifest::default(),
            disk_lookups: 0,
            champion_chunks: HashMap::new(),
        }
    }

    fn is_hook(&self, fp: &Fingerprint) -> bool {
        fp.prefix64().is_multiple_of(self.config.sample_rate)
    }

    fn choose_champions(&mut self, segment: &[(Fingerprint, u32)]) -> Vec<usize> {
        let mut votes: HashMap<usize, usize> = HashMap::new();
        for (fp, _) in segment {
            if self.is_hook(fp) {
                if let Some(manifest_ids) = self.hooks.get(fp) {
                    for &m in manifest_ids {
                        *votes.entry(m).or_default() += 1;
                    }
                }
            }
        }
        let mut ranked: Vec<(usize, usize)> = votes.into_iter().collect();
        // Highest vote count first; ties broken toward newer manifests,
        // which have fresher locality.
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then(b.0.cmp(&a.0)));
        ranked.truncate(self.config.max_champions);
        ranked.into_iter().map(|(m, _)| m).collect()
    }
}

impl FingerprintIndex for SparseIndex {
    fn begin_version(&mut self, _version: VersionId) {}

    fn process_segment(&mut self, segment: &[(Fingerprint, u32)]) -> Vec<Option<ContainerId>> {
        // Seal the manifest of the previous segment.
        self.seal_current_manifest();

        let champions = self.choose_champions(segment);
        self.champion_chunks.clear();
        for m in champions {
            // Loading a champion manifest is one on-disk lookup.
            self.disk_lookups += 1;
            for (fp, cid) in &self.manifests[m].chunks {
                self.champion_chunks.insert(*fp, *cid);
            }
        }
        segment
            .iter()
            .map(|(fp, _)| self.champion_chunks.get(fp).copied())
            .collect()
    }

    fn record_chunk(&mut self, fingerprint: Fingerprint, _size: u32, container: ContainerId) {
        self.current.chunks.insert(fingerprint, container);
    }

    fn end_version(&mut self) {
        self.seal_current_manifest();
    }

    fn disk_lookups(&self) -> u64 {
        self.disk_lookups
    }

    fn index_table_bytes(&self) -> usize {
        // The in-memory sparse index: per hook entry, the 20-byte hook plus
        // 8 bytes per manifest reference.
        self.hooks
            .values()
            .map(|manifests| 20 + 8 * manifests.len())
            .sum()
    }
}

impl SparseIndex {
    fn seal_current_manifest(&mut self) {
        if self.current.chunks.is_empty() {
            return;
        }
        let manifest = std::mem::take(&mut self.current);
        let id = self.manifests.len();
        for fp in manifest.chunks.keys() {
            if fp.prefix64() % self.config.sample_rate == 0 {
                let entry = self.hooks.entry(*fp).or_default();
                entry.push(id);
                let cap = self.config.max_manifests_per_hook;
                if entry.len() > cap {
                    let drop_n = entry.len() - cap;
                    entry.drain(..drop_n);
                }
            }
        }
        self.manifests.push(manifest);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seg(range: std::ops::Range<u64>) -> Vec<(Fingerprint, u32)> {
        range.map(|i| (Fingerprint::synthetic(i), 4096)).collect()
    }

    fn run_version(idx: &mut SparseIndex, v: u32, chunks: &[(Fingerprint, u32)]) -> usize {
        idx.begin_version(VersionId::new(v));
        let mut dups = 0;
        for s in chunks.chunks(128) {
            let d = idx.process_segment(s);
            for ((fp, sz), dup) in s.iter().zip(d) {
                match dup {
                    Some(c) => {
                        dups += 1;
                        idx.record_chunk(*fp, *sz, c);
                    }
                    None => idx.record_chunk(*fp, *sz, ContainerId::new(v)),
                }
            }
        }
        idx.end_version();
        dups
    }

    #[test]
    fn second_identical_version_mostly_deduplicated() {
        let mut idx = SparseIndex::new(SparseConfig::default());
        let chunks = seg(0..2000);
        assert_eq!(run_version(&mut idx, 1, &chunks), 0);
        let dups = run_version(&mut idx, 2, &chunks);
        assert!(dups >= 1800, "only {dups}/2000 deduplicated");
    }

    #[test]
    fn lookups_bounded_by_champions_per_segment() {
        let cfg = SparseConfig {
            max_champions: 2,
            ..SparseConfig::default()
        };
        let mut idx = SparseIndex::new(cfg);
        let chunks = seg(0..1024);
        run_version(&mut idx, 1, &chunks);
        let before = idx.disk_lookups();
        run_version(&mut idx, 2, &chunks);
        let per_segment = (idx.disk_lookups() - before) as usize / (1024 / 128);
        assert!(
            per_segment <= 2,
            "{per_segment} champions loaded per segment"
        );
    }

    #[test]
    fn memory_much_smaller_than_full_index() {
        let mut idx = SparseIndex::new(SparseConfig::default());
        let chunks = seg(0..10_000);
        run_version(&mut idx, 1, &chunks);
        // Full index would be 10_000 * 28 bytes; sparse should be ~1/64.
        assert!(
            idx.index_table_bytes() < 10_000 * 28 / 16,
            "sparse index too large: {}",
            idx.index_table_bytes()
        );
    }

    #[test]
    fn hook_entries_capped() {
        let cfg = SparseConfig {
            max_manifests_per_hook: 2,
            ..SparseConfig::default()
        };
        let mut idx = SparseIndex::new(cfg);
        let chunks = seg(0..256);
        for v in 1..=6u32 {
            run_version(&mut idx, v, &chunks);
        }
        assert!(idx.hooks.values().all(|m| m.len() <= 2));
    }

    #[test]
    fn disjoint_versions_share_nothing() {
        let mut idx = SparseIndex::new(SparseConfig::default());
        run_version(&mut idx, 1, &seg(0..500));
        let dups = run_version(&mut idx, 2, &seg(10_000..10_500));
        assert_eq!(dups, 0);
    }
}
