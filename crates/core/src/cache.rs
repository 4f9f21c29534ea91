//! The double-hash fingerprint cache (paper §4.1, Figure 5).

use std::collections::{HashMap, VecDeque};

use hidestore_hash::Fingerprint;

/// Metadata stored per chunk in the fingerprint cache: chunk size and the
/// active container currently holding it (Figure 5's "CID").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheEntry {
    /// Chunk size in bytes.
    pub size: u32,
    /// Raw ID of the *active* container holding the chunk's content.
    pub active_cid: u32,
}

/// How an incoming chunk was classified (Figure 5's three cases).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Classification {
    /// Case 1: in neither table — a new unique chunk; the caller stores its
    /// content in an active container and inserts it into `T2`.
    Unique,
    /// Case 2: found in a previous-version table — a duplicate, now known to
    /// be hot; its entry has been migrated to `T2`.
    HotFromPrevious(CacheEntry),
    /// Case 3: already in `T2` — a duplicate within the current version;
    /// nothing to do.
    AlreadyCurrent(CacheEntry),
}

/// The paper's fingerprint cache: `T2` for the version being deduplicated
/// plus up to `history_depth` tables for previous versions (`T1`, and for
/// macos-like workloads `T0`).
///
/// Unlike traditional fingerprint caches the unit is a *chunk entry*, not a
/// container, and membership alone decides duplicate status — there is no
/// on-disk full index behind it (§4.1).
///
/// # Examples
///
/// ```
/// use hidestore_core::{CacheEntry, Classification, FingerprintCache};
/// use hidestore_hash::Fingerprint;
///
/// let mut cache = FingerprintCache::new(1);
/// let fp = Fingerprint::of(b"chunk");
/// assert!(matches!(cache.classify(fp), Classification::Unique));
/// cache.insert_current(fp, CacheEntry { size: 5, active_cid: 1 });
/// assert!(matches!(cache.classify(fp), Classification::AlreadyCurrent(_)));
///
/// cache.advance_version(); // T2 becomes T1
/// assert!(matches!(cache.classify(fp), Classification::HotFromPrevious(_)));
/// ```
#[derive(Debug, Default)]
pub struct FingerprintCache {
    /// `T2`: chunks of the version being deduplicated.
    current: HashMap<Fingerprint, CacheEntry>,
    /// Previous-version tables, most recent first (`history[0]` = `T1`).
    history: VecDeque<HashMap<Fingerprint, CacheEntry>>,
    history_depth: usize,
}

impl FingerprintCache {
    /// Creates a cache retaining `history_depth` previous versions.
    ///
    /// # Panics
    ///
    /// Panics if `history_depth == 0`.
    pub fn new(history_depth: usize) -> Self {
        assert!(history_depth >= 1, "history depth must be at least 1");
        FingerprintCache {
            current: HashMap::new(),
            history: VecDeque::new(),
            history_depth,
        }
    }

    /// Classifies a chunk per Figure 5, migrating hot entries from the
    /// history tables into `T2` (Case 2's "remove from T1, insert to T2").
    pub fn classify(&mut self, fp: Fingerprint) -> Classification {
        if let Some(&entry) = self.current.get(&fp) {
            return Classification::AlreadyCurrent(entry);
        }
        for table in &mut self.history {
            if let Some(entry) = table.remove(&fp) {
                self.current.insert(fp, entry);
                return Classification::HotFromPrevious(entry);
            }
        }
        Classification::Unique
    }

    /// Inserts a new unique chunk into `T2` after its content was stored in
    /// an active container.
    pub fn insert_current(&mut self, fp: Fingerprint, entry: CacheEntry) {
        self.current.insert(fp, entry);
    }

    /// Ends the version: `T2` becomes `T1` and the oldest history table (the
    /// cold set) is returned for demotion to archival containers.
    ///
    /// For depth 1 this returns exactly "the chunks remaining in T1" (§4.1).
    pub fn advance_version(&mut self) -> HashMap<Fingerprint, CacheEntry> {
        let finished = std::mem::take(&mut self.current);
        self.history.push_front(finished);
        if self.history.len() > self.history_depth {
            self.history.pop_back().unwrap_or_default()
        } else {
            HashMap::new()
        }
    }

    /// Iterates over every cached entry as `(table, fingerprint, entry)`,
    /// where table `0` is `T2` (the current version) and `1..` are the
    /// history tables, most recent first. Integrity checkers use this to
    /// cross-check cache entries against the active pool.
    pub fn entries(&self) -> impl Iterator<Item = (usize, Fingerprint, CacheEntry)> + '_ {
        let current = self.current.iter().map(|(fp, e)| (0usize, *fp, *e));
        let history = self
            .history
            .iter()
            .enumerate()
            .flat_map(|(i, t)| t.iter().map(move |(fp, e)| (i + 1, *fp, *e)));
        current.chain(history)
    }

    /// Rewrites active-container IDs after a pool compaction moved chunks.
    pub fn apply_relocations(&mut self, relocations: &HashMap<Fingerprint, u32>) {
        for (fp, &new_cid) in relocations {
            if let Some(e) = self.current.get_mut(fp) {
                e.active_cid = new_cid;
            }
            for table in &mut self.history {
                if let Some(e) = table.get_mut(fp) {
                    e.active_cid = new_cid;
                }
            }
        }
    }

    /// Entry for `fp` in `T2`, if present.
    pub fn current_entry(&self, fp: &Fingerprint) -> Option<CacheEntry> {
        self.current.get(fp).copied()
    }

    /// Total entries across `T2` and all history tables.
    pub fn total_len(&self) -> usize {
        self.current.len() + self.history.iter().map(HashMap::len).sum::<usize>()
    }

    /// Memory footprint using the paper's 28-byte-per-entry accounting
    /// (20-byte fingerprint + 4-byte CID + 4-byte size, §4.1).
    pub fn memory_bytes(&self) -> usize {
        self.total_len() * 28
    }

    /// Preloads `T1` (used when re-opening a repository: the newest recipe's
    /// chunks become the previous-version table, §4.1 "the metadata of CV in
    /// the recipe is prefetched to T1").
    pub fn preload_history(&mut self, table: HashMap<Fingerprint, CacheEntry>) {
        self.history.push_front(table);
        while self.history.len() > self.history_depth {
            self.history.pop_back();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp(n: u64) -> Fingerprint {
        Fingerprint::synthetic(n)
    }

    fn entry(cid: u32) -> CacheEntry {
        CacheEntry {
            size: 100,
            active_cid: cid,
        }
    }

    #[test]
    fn three_cases_of_figure_5() {
        let mut c = FingerprintCache::new(1);
        // Version 1: A unique, inserted.
        assert_eq!(c.classify(fp(1)), Classification::Unique);
        c.insert_current(fp(1), entry(1));
        // Same version again: case 3.
        assert_eq!(c.classify(fp(1)), Classification::AlreadyCurrent(entry(1)));
        c.advance_version();
        // Version 2: hit in T1 -> case 2, migrates.
        assert_eq!(c.classify(fp(1)), Classification::HotFromPrevious(entry(1)));
        // Second time within version 2: now case 3.
        assert_eq!(c.classify(fp(1)), Classification::AlreadyCurrent(entry(1)));
    }

    #[test]
    fn cold_chunks_are_the_t1_leftovers() {
        let mut c = FingerprintCache::new(1);
        for i in 0..4 {
            c.classify(fp(i));
            c.insert_current(fp(i), entry(i as u32 + 1));
        }
        assert!(
            c.advance_version().is_empty(),
            "nothing cold after first version"
        );
        // Version 2 re-uses chunks 0 and 1 only.
        c.classify(fp(0));
        c.classify(fp(1));
        let cold = c.advance_version();
        let mut cold_ids: Vec<u64> = cold
            .keys()
            .map(|f| u64::from_be_bytes(f.as_bytes()[..8].try_into().unwrap()))
            .collect();
        cold_ids.sort_unstable();
        assert_eq!(cold_ids, vec![2, 3]);
    }

    #[test]
    fn depth_two_delays_cold_demotion() {
        let mut c = FingerprintCache::new(2);
        c.classify(fp(1));
        c.insert_current(fp(1), entry(1));
        assert!(c.advance_version().is_empty());
        // Version 2 without chunk 1: with depth 2 it is *not* yet cold.
        assert!(c.advance_version().is_empty());
        // Version 3 without chunk 1: now it falls off the history.
        let cold = c.advance_version();
        assert_eq!(cold.len(), 1);
    }

    #[test]
    fn depth_two_rescues_skipping_chunks() {
        // The macos pattern (Figure 3d): a chunk absent from one version but
        // present in the next must stay deduplicable with depth 2.
        let mut c = FingerprintCache::new(2);
        c.classify(fp(1));
        c.insert_current(fp(1), entry(1));
        c.advance_version();
        c.advance_version(); // version without the chunk
        assert!(matches!(
            c.classify(fp(1)),
            Classification::HotFromPrevious(_)
        ));
    }

    #[test]
    fn relocations_update_all_tables() {
        let mut c = FingerprintCache::new(2);
        c.classify(fp(1));
        c.insert_current(fp(1), entry(1));
        c.advance_version();
        c.classify(fp(2));
        c.insert_current(fp(2), entry(2));
        let mut moves = HashMap::new();
        moves.insert(fp(1), 9u32);
        moves.insert(fp(2), 9u32);
        c.apply_relocations(&moves);
        assert_eq!(c.current_entry(&fp(2)).unwrap().active_cid, 9);
        assert!(
            matches!(c.classify(fp(1)), Classification::HotFromPrevious(e) if e.active_cid == 9)
        );
    }

    #[test]
    fn memory_accounting_is_28_bytes_per_entry() {
        let mut c = FingerprintCache::new(1);
        for i in 0..10 {
            c.classify(fp(i));
            c.insert_current(fp(i), entry(1));
        }
        assert_eq!(c.memory_bytes(), 280);
        c.advance_version();
        assert_eq!(c.memory_bytes(), 280, "history still counted");
    }

    #[test]
    fn preload_seeds_t1() {
        let mut c = FingerprintCache::new(1);
        let mut table = HashMap::new();
        table.insert(fp(5), entry(3));
        c.preload_history(table);
        assert!(matches!(
            c.classify(fp(5)),
            Classification::HotFromPrevious(_)
        ));
    }
}
