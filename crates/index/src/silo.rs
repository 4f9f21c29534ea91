//! SiLo (Xia et al., USENIX ATC'11): near-exact deduplication exploiting
//! both similarity and locality at low RAM overhead.

use std::collections::{HashMap, VecDeque};

use hidestore_hash::Fingerprint;
use hidestore_storage::{ContainerId, VersionId};

use crate::FingerprintIndex;

/// Configuration for [`SiloIndex`].
#[derive(Debug, Clone, Copy)]
pub struct SiloConfig {
    /// Number of segments grouped into one block (the locality unit that is
    /// loaded from disk on a similarity hit).
    pub segments_per_block: usize,
    /// Number of recently loaded blocks kept in the read cache.
    pub cached_blocks: usize,
}

impl Default for SiloConfig {
    fn default() -> Self {
        SiloConfig {
            segments_per_block: 8,
            cached_blocks: 16,
        }
    }
}

/// A block: the chunk maps of several consecutive segments, stored "on disk".
#[derive(Debug, Clone, Default)]
struct Block {
    chunks: HashMap<Fingerprint, ContainerId>,
}

/// SiLo similarity+locality index.
///
/// Each segment is represented by its *minimal* fingerprint. The in-memory
/// similarity hash table (SHTable) maps representative fingerprints to the
/// block holding that segment. On a match the whole block — several
/// neighbouring segments — is loaded (one counted disk lookup) into an LRU
/// read cache, so similar-but-not-identical segments nearby also hit. RAM
/// cost is one SHTable entry per *segment* instead of one per chunk, the
/// reduction the paper's Figure 10 shows.
#[derive(Debug)]
pub struct SiloIndex {
    config: SiloConfig,
    /// SHTable: representative fingerprint → block id.
    sh_table: HashMap<Fingerprint, usize>,
    /// "On-disk" block store.
    blocks: Vec<Block>,
    /// Block under construction.
    current_block: Block,
    current_block_segments: usize,
    /// Representatives of segments already sealed into `current_block`.
    pending_reps: Vec<Fingerprint>,
    /// LRU read cache of loaded blocks.
    cache: HashMap<Fingerprint, ContainerId>,
    cache_order: VecDeque<usize>,
    cache_members: HashMap<usize, Vec<Fingerprint>>,
    disk_lookups: u64,
    /// Whether chunks have been recorded since the last segment seal.
    dirty: bool,
}

impl SiloIndex {
    /// Creates a SiLo index.
    ///
    /// # Panics
    ///
    /// Panics if either configuration field is zero.
    pub fn new(config: SiloConfig) -> Self {
        assert!(
            config.segments_per_block > 0,
            "segments_per_block must be non-zero"
        );
        assert!(config.cached_blocks > 0, "cached_blocks must be non-zero");
        SiloIndex {
            config,
            sh_table: HashMap::new(),
            blocks: Vec::new(),
            current_block: Block::default(),
            current_block_segments: 0,
            pending_reps: Vec::new(),
            cache: HashMap::new(),
            cache_order: VecDeque::new(),
            cache_members: HashMap::new(),
            disk_lookups: 0,
            dirty: false,
        }
    }

    fn load_block(&mut self, block_id: usize) {
        if self.cache_members.contains_key(&block_id) {
            return;
        }
        self.disk_lookups += 1;
        let members: Vec<Fingerprint> = self.blocks[block_id].chunks.keys().copied().collect();
        for fp in &members {
            self.cache.insert(*fp, self.blocks[block_id].chunks[fp]);
        }
        self.cache_members.insert(block_id, members);
        self.cache_order.push_back(block_id);
        while self.cache_order.len() > self.config.cached_blocks {
            let Some(evicted) = self.cache_order.pop_front() else {
                break;
            };
            if let Some(members) = self.cache_members.remove(&evicted) {
                for fp in members {
                    self.cache.remove(&fp);
                }
            }
        }
    }

    fn seal_segment(&mut self) {
        // A segment's chunks were accumulated into `current_block` by
        // record_chunk; close the segment and, if the block is full, seal it.
        self.current_block_segments += 1;
        if self.current_block_segments >= self.config.segments_per_block {
            self.seal_block();
        }
    }

    fn seal_block(&mut self) {
        if self.current_block.chunks.is_empty() {
            self.current_block_segments = 0;
            return;
        }
        let block = std::mem::take(&mut self.current_block);
        let id = self.blocks.len();
        self.blocks.push(block);
        for rep in self.pending_reps.drain(..) {
            self.sh_table.insert(rep, id);
        }
        self.current_block_segments = 0;
    }
}

impl FingerprintIndex for SiloIndex {
    fn begin_version(&mut self, _version: VersionId) {}

    fn process_segment(&mut self, segment: &[(Fingerprint, u32)]) -> Vec<Option<ContainerId>> {
        // Close the previous segment's accumulation first.
        if self.dirty {
            self.seal_segment();
            self.dirty = false;
        }
        // Representative fingerprint: the minimal one (Broder's theorem —
        // similar sets share their minimum with high probability).
        if let Some(rep) = segment.iter().map(|(fp, _)| *fp).min() {
            if let Some(&block_id) = self.sh_table.get(&rep) {
                self.load_block(block_id);
            }
            self.pending_reps.push(rep);
        }
        let decisions = segment
            .iter()
            .map(|(fp, _)| self.cache.get(fp).copied())
            .collect();
        decisions
    }

    fn record_chunk(&mut self, fingerprint: Fingerprint, _size: u32, container: ContainerId) {
        self.current_block.chunks.insert(fingerprint, container);
        self.dirty = true;
    }

    fn end_version(&mut self) {
        if self.dirty {
            self.seal_segment();
            self.dirty = false;
        }
        self.seal_block();
    }

    fn disk_lookups(&self) -> u64 {
        self.disk_lookups
    }

    fn index_table_bytes(&self) -> usize {
        // One SHTable entry per stored segment: 20-byte representative plus
        // an 8-byte block reference.
        self.sh_table.len() * 28
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seg(range: std::ops::Range<u64>) -> Vec<(Fingerprint, u32)> {
        range.map(|i| (Fingerprint::synthetic(i), 4096)).collect()
    }

    fn run_version(idx: &mut SiloIndex, v: u32, chunks: &[(Fingerprint, u32)]) -> usize {
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
    fn identical_second_version_mostly_deduplicated() {
        let mut idx = SiloIndex::new(SiloConfig::default());
        let chunks = seg(0..2048);
        assert_eq!(run_version(&mut idx, 1, &chunks), 0);
        let dups = run_version(&mut idx, 2, &chunks);
        assert!(dups >= 1850, "only {dups}/2048 deduplicated");
    }

    #[test]
    fn similar_segment_hits_via_representative() {
        let mut idx = SiloIndex::new(SiloConfig::default());
        let original = seg(0..128);
        run_version(&mut idx, 1, &original);
        // 90% same chunks, 10% new — representative likely unchanged.
        let mut similar = seg(0..115);
        similar.extend(seg(5000..5013));
        idx.begin_version(VersionId::new(2));
        let d = idx.process_segment(&similar);
        let hits = d.iter().filter(|x| x.is_some()).count();
        assert!(hits >= 100, "only {hits} similarity hits");
    }

    #[test]
    fn one_disk_lookup_per_block_not_per_segment() {
        let cfg = SiloConfig {
            segments_per_block: 8,
            cached_blocks: 16,
        };
        let mut idx = SiloIndex::new(cfg);
        let chunks = seg(0..1024); // 8 segments of 128 = exactly 1 block
        run_version(&mut idx, 1, &chunks);
        let before = idx.disk_lookups();
        run_version(&mut idx, 2, &chunks);
        // All 8 segments map to the same block: a single load suffices.
        assert_eq!(idx.disk_lookups() - before, 1);
    }

    #[test]
    fn sh_table_grows_per_segment_not_per_chunk() {
        let mut idx = SiloIndex::new(SiloConfig::default());
        let chunks = seg(0..1280); // 10 segments of 128
        run_version(&mut idx, 1, &chunks);
        assert_eq!(idx.index_table_bytes(), 10 * 28);
    }

    #[test]
    fn cache_eviction_bounded() {
        let cfg = SiloConfig {
            segments_per_block: 1,
            cached_blocks: 2,
        };
        let mut idx = SiloIndex::new(cfg);
        let chunks = seg(0..1280);
        run_version(&mut idx, 1, &chunks);
        run_version(&mut idx, 2, &chunks);
        assert!(idx.cache_members.len() <= 2);
    }
}
