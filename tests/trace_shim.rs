//! `HiDeStore::backup_trace` against `HiDeStore::backup` of the same bytes.
//!
//! The benchmark harness replays each version's ingest through
//! `backup_trace` — `(fingerprint, size)` pairs over zero-filled bodies —
//! and reports what that shadow instance counted. The replay is honest only
//! if the shim classifies, places and demotes exactly as a real backup of
//! the same chunks does, so this differential compares every count, every
//! recipe and the active pool's hot set after each version.

use std::collections::BTreeMap;
use std::time::Duration;

use hidestore::core::{HiDeStore, HiDeStoreConfig, HiDeStoreVersionStats};
use hidestore::dedup::chunk_fingerprints;
use hidestore::hash::Fingerprint;
use hidestore::storage::{ContainerStore, MemoryContainerStore};
use hidestore::workloads::{Profile, VersionStream};

/// Eight evolving macos-profile versions (flapping files, so depth 2 keeps
/// chunks depth 1 demotes), then a revert to V3, an empty version, and a
/// return to V8.
fn versions() -> Vec<Vec<u8>> {
    let spec = Profile::Macos.spec().scaled(128 << 10, 8);
    let mut versions = VersionStream::new(spec, 40).all_versions();
    versions.push(versions[2].clone());
    versions.push(Vec::new());
    versions.push(versions[7].clone());
    versions
}

/// The stats with their two wall-clock fields zeroed.
fn counts(mut stats: HiDeStoreVersionStats) -> HiDeStoreVersionStats {
    stats.recipe_update_time = Duration::ZERO;
    stats.chunk_move_time = Duration::ZERO;
    stats
}

fn hot_set(hds: &HiDeStore<MemoryContainerStore>) -> BTreeMap<Fingerprint, u32> {
    hds.pool().hot_chunks().collect()
}

#[test]
fn backup_trace_counts_and_places_exactly_as_backup() {
    let versions = versions();
    for depth in [1, 2] {
        let config = HiDeStoreConfig {
            history_depth: depth,
            ..HiDeStoreConfig::small_for_tests()
        };
        let case = format!("depth {depth}");
        let mut real = HiDeStore::new(config, MemoryContainerStore::new());
        let mut shim = HiDeStore::new(config, MemoryContainerStore::new());
        let mut chunker = config.chunker.build(config.avg_chunk_size);
        for (v, data) in (1..).zip(&versions) {
            let (spans, fingerprints) = chunk_fingerprints(data, chunker.as_mut());
            let trace: Vec<(Fingerprint, u32)> = fingerprints
                .into_iter()
                .zip(&spans)
                .map(|(fp, span)| (fp, span.len() as u32))
                .collect();
            let expected = real.backup(data).unwrap();
            let replayed = shim.backup_trace(&trace).unwrap();
            assert_eq!(counts(replayed), counts(expected), "{case}, V{v} stats");
            assert!(
                real.recipes().iter().eq(shim.recipes().iter()),
                "{case}, V{v} recipes"
            );
            assert_eq!(hot_set(&shim), hot_set(&real), "{case}, V{v} hot set");
        }
        assert_eq!(shim.run_stats(), real.run_stats(), "{case} run totals");
        assert_eq!(
            shim.archival().ids(),
            real.archival().ids(),
            "{case} archival containers"
        );
    }
}
