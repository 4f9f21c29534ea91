//! Property-based tests over the core invariants of the whole stack.
//!
//! Offline-friendly harness: instead of an external property-testing
//! framework, each property runs over a fixed number of cases driven by the
//! vendored deterministic [`StdRng`] — same seed, same inputs, every run.
//! On failure the panic message names the case seed so the input can be
//! reproduced exactly.

use std::collections::BTreeMap;
use std::path::Path;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use hidestore::chunking::{chunk_spans, ChunkerKind};
use hidestore::core::{HiDeStore, HiDeStoreConfig};
use hidestore::dedup::{BackupPipeline, PipelineConfig};
use hidestore::fsck::SystemAuditor;
use hidestore::hash::{Fingerprint, Sha1};
use hidestore::index::DdfsIndex;
use hidestore::restore::Faa;
use hidestore::rewriting::NoRewrite;
use hidestore::storage::{
    Cid, Container, ContainerId, FileContainerStore, MemoryContainerStore, Recipe, RecipeEntry,
    VersionId,
};

/// Runs `body` once per case with a per-case deterministic RNG. The case
/// seed appears in any panic message via the wrapping assertion context.
fn cases(n: u64, base_seed: u64, body: impl Fn(&mut StdRng)) {
    for case in 0..n {
        let seed = base_seed.wrapping_mul(1_000_003).wrapping_add(case);
        let mut rng = StdRng::seed_from_u64(seed);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(&mut rng)));
        if let Err(panic) = result {
            eprintln!("property failed for case seed {seed} (case {case}/{n})");
            std::panic::resume_unwind(panic);
        }
    }
}

fn random_bytes(rng: &mut StdRng, len: usize) -> Vec<u8> {
    let mut data = vec![0u8; len];
    rng.fill(&mut data[..]);
    data
}

/// An arbitrary version edit applied to the previous version's buffer.
#[derive(Debug, Clone)]
enum Edit {
    Overwrite { at: usize, data: Vec<u8> },
    Insert { at: usize, data: Vec<u8> },
    Delete { at: usize, len: usize },
    Append { data: Vec<u8> },
}

fn random_edit(rng: &mut StdRng) -> Edit {
    match rng.gen_range(0usize..4) {
        0 => {
            let at = rng.gen_range(0usize..50_000);
            let len = rng.gen_range(1usize..3000);
            Edit::Overwrite {
                at,
                data: random_bytes(rng, len),
            }
        }
        1 => {
            let at = rng.gen_range(0usize..50_000);
            let len = rng.gen_range(1usize..2000);
            Edit::Insert {
                at,
                data: random_bytes(rng, len),
            }
        }
        2 => Edit::Delete {
            at: rng.gen_range(0usize..50_000),
            len: rng.gen_range(1usize..2000),
        },
        _ => {
            let len = rng.gen_range(1usize..3000);
            Edit::Append {
                data: random_bytes(rng, len),
            }
        }
    }
}

fn random_edits(rng: &mut StdRng, lo: usize, hi: usize) -> Vec<Edit> {
    let n = rng.gen_range(lo..hi);
    (0..n).map(|_| random_edit(rng)).collect()
}

fn apply(mut base: Vec<u8>, edit: &Edit) -> Vec<u8> {
    match edit {
        Edit::Overwrite { at, data } => {
            let at = at % base.len().max(1);
            let end = (at + data.len()).min(base.len());
            if at < base.len() {
                base[at..end].copy_from_slice(&data[..end - at]);
            }
            base
        }
        Edit::Insert { at, data } => {
            let at = at % (base.len() + 1);
            let tail = base.split_off(at);
            base.extend_from_slice(data);
            base.extend_from_slice(&tail);
            base
        }
        Edit::Delete { at, len } => {
            if base.is_empty() {
                return base;
            }
            let at = at % base.len();
            let end = (at + len).min(base.len());
            // Never delete everything: keep at least one byte.
            if end - at < base.len() {
                base.drain(at..end);
            }
            base
        }
        Edit::Append { data } => {
            base.extend_from_slice(data);
            base
        }
    }
}

fn version_history(seed_len: usize, edits: &[Edit]) -> Vec<Vec<u8>> {
    let mut current: Vec<u8> = (0..seed_len)
        .map(|i| (i as u64).wrapping_mul(0x9E37_79B9).to_le_bytes()[0])
        .collect();
    let mut versions = vec![current.clone()];
    for e in edits {
        current = apply(current, e);
        versions.push(current.clone());
    }
    versions
}

fn hds_config() -> HiDeStoreConfig {
    HiDeStoreConfig {
        avg_chunk_size: 512,
        container_capacity: 16 * 1024,
        ..HiDeStoreConfig::default()
    }
}

/// A scratch repository directory unique to this process and `tag`.
fn scratch_dir(tag: &str, rng: &mut StdRng) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "hds-proptest-{tag}-{}-{}",
        std::process::id(),
        rng.gen_range(0u64..u64::MAX)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Asserts that the repository at `dir` holds exactly `hds`'s recipes and
/// active pool: the `recipes/r*.rcp` and `active/a*.ctr` file sets name
/// them, and every file's bytes are their current encoding.
fn assert_disk_matches_memory(hds: &HiDeStore<FileContainerStore>, dir: &Path, context: &str) {
    let mut expect: BTreeMap<String, Vec<u8>> = BTreeMap::new();
    for recipe in hds.recipes().iter() {
        let name = format!("recipes/r{}.rcp", recipe.version().get());
        expect.insert(name, recipe.encode());
    }
    for (cid, container) in hds.pool().containers() {
        expect.insert(format!("active/a{cid}.ctr"), container.encode());
    }
    let mut found: BTreeMap<String, Vec<u8>> = BTreeMap::new();
    for (sub, prefix, suffix) in [("recipes", "r", ".rcp"), ("active", "a", ".ctr")] {
        let Ok(entries) = std::fs::read_dir(dir.join(sub)) else {
            continue;
        };
        for entry in entries {
            let path = entry.unwrap().path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            if name.starts_with(prefix) && name.ends_with(suffix) {
                found.insert(format!("{sub}/{name}"), std::fs::read(&path).unwrap());
            }
        }
    }
    assert_eq!(
        found.keys().collect::<Vec<_>>(),
        expect.keys().collect::<Vec<_>>(),
        "{context}: the files on disk are not the instance's recipes and pool"
    );
    for (name, bytes) in &expect {
        assert!(
            found[name] == *bytes,
            "{context}: {name} on disk differs from memory"
        );
    }
}

/// restore(backup(x)) == x for HiDeStore over arbitrary edit histories.
#[test]
fn hidestore_round_trips_arbitrary_histories() {
    cases(10, 0x01, |rng| {
        let seed_len = rng.gen_range(2_000usize..30_000);
        let edits = random_edits(rng, 1, 6);
        let versions = version_history(seed_len, &edits);
        let mut hds = HiDeStore::new(hds_config(), MemoryContainerStore::new());
        for v in &versions {
            hds.backup(v).unwrap();
        }
        for (i, expect) in versions.iter().enumerate() {
            let mut out = Vec::new();
            hds.restore(
                VersionId::new(i as u32 + 1),
                &mut Faa::new(1 << 18),
                &mut out,
            )
            .unwrap();
            assert_eq!(&out, expect, "version {}", i + 1);
        }
    });
}

/// Flattening never changes restored bytes.
#[test]
fn flatten_preserves_restores() {
    cases(8, 0x02, |rng| {
        let seed_len = rng.gen_range(2_000usize..20_000);
        let edits = random_edits(rng, 1, 5);
        let versions = version_history(seed_len, &edits);
        let mut hds = HiDeStore::new(hds_config(), MemoryContainerStore::new());
        for v in &versions {
            hds.backup(v).unwrap();
        }
        let mut before = Vec::new();
        for i in 0..versions.len() {
            let mut out = Vec::new();
            hds.restore(
                VersionId::new(i as u32 + 1),
                &mut Faa::new(1 << 18),
                &mut out,
            )
            .unwrap();
            before.push(out);
        }
        hds.flatten_recipes();
        for (i, expect) in before.iter().enumerate() {
            let mut out = Vec::new();
            hds.restore(
                VersionId::new(i as u32 + 1),
                &mut Faa::new(1 << 18),
                &mut out,
            )
            .unwrap();
            assert_eq!(&out, expect, "version {}", i + 1);
        }
    });
}

/// Deleting an expired prefix never corrupts the survivors.
#[test]
fn deletion_preserves_survivors() {
    cases(8, 0x03, |rng| {
        let seed_len = rng.gen_range(2_000usize..20_000);
        let edits = random_edits(rng, 3, 7);
        let versions = version_history(seed_len, &edits);
        let mut hds = HiDeStore::new(hds_config(), MemoryContainerStore::new());
        for v in &versions {
            hds.backup(v).unwrap();
        }
        let up_to = rng.gen_range(1u32..versions.len() as u32);
        hds.delete_expired(VersionId::new(up_to)).unwrap();
        for v in up_to + 1..=versions.len() as u32 {
            let mut out = Vec::new();
            hds.restore(VersionId::new(v), &mut Faa::new(1 << 18), &mut out)
                .unwrap();
            assert_eq!(&out, &versions[(v - 1) as usize], "survivor V{v}");
        }
    });
}

/// The baseline pipeline round-trips arbitrary histories too.
#[test]
fn pipeline_round_trips_arbitrary_histories() {
    cases(8, 0x04, |rng| {
        let seed_len = rng.gen_range(2_000usize..20_000);
        let edits = random_edits(rng, 1, 5);
        let versions = version_history(seed_len, &edits);
        let mut p = BackupPipeline::new(
            PipelineConfig {
                avg_chunk_size: 512,
                container_capacity: 16 * 1024,
                segment_chunks: 16,
                ..PipelineConfig::default()
            },
            DdfsIndex::new(),
            NoRewrite::new(),
            MemoryContainerStore::new(),
        );
        for v in &versions {
            p.backup(v).unwrap();
        }
        for (i, expect) in versions.iter().enumerate() {
            let mut out = Vec::new();
            p.restore(
                VersionId::new(i as u32 + 1),
                &mut Faa::new(1 << 18),
                &mut out,
            )
            .unwrap();
            assert_eq!(&out, expect, "version {}", i + 1);
        }
    });
}

/// Chunkers cover the stream exactly and respect their bounds on arbitrary
/// data.
#[test]
fn chunkers_cover_arbitrary_data() {
    cases(20, 0x05, |rng| {
        let len = rng.gen_range(1usize..60_000);
        let data = random_bytes(rng, len);
        let kind = ChunkerKind::ALL[rng.gen_range(0usize..ChunkerKind::ALL.len())];
        let mut chunker = kind.build(1024);
        let spans = chunk_spans(chunker.as_mut(), &data);
        assert_eq!(spans.first().map(|s| s.start), Some(0));
        assert_eq!(spans.last().map(|s| s.end), Some(data.len()));
        for w in spans.windows(2) {
            assert_eq!(w[0].end, w[1].start);
        }
        for s in &spans {
            assert!(s.len() <= chunker.max_size());
        }
    });
}

/// SHA-1 incremental hashing equals one-shot hashing for arbitrary splits.
#[test]
fn sha1_incremental_equals_oneshot() {
    cases(30, 0x06, |rng| {
        let len = rng.gen_range(0usize..5_000);
        let data = random_bytes(rng, len);
        let expect = Sha1::hash(&data);
        let n_splits = rng.gen_range(0usize..5);
        let mut splits: Vec<usize> = (0..n_splits)
            .map(|_| rng.gen_range(0usize..=data.len()))
            .collect();
        splits.sort_unstable();
        let mut h = Sha1::new();
        let mut prev = 0;
        for s in splits {
            h.update(&data[prev..s]);
            prev = s;
        }
        h.update(&data[prev..]);
        assert_eq!(h.finalize(), expect);
    });
}

/// Containers round-trip arbitrary chunk sets through encode/decode.
#[test]
fn container_encode_decode_arbitrary() {
    cases(30, 0x07, |rng| {
        let n_chunks = rng.gen_range(1usize..20);
        let chunks: Vec<Vec<u8>> = (0..n_chunks)
            .map(|_| {
                let len = rng.gen_range(1usize..500);
                random_bytes(rng, len)
            })
            .collect();
        let mut c = Container::new(ContainerId::new(1), 1 << 20);
        let mut kept = Vec::new();
        for (i, data) in chunks.iter().enumerate() {
            let fp = Fingerprint::synthetic(i as u64);
            if c.try_add(fp, data) {
                kept.push((fp, data.clone()));
            }
        }
        let decoded = Container::decode(&c.encode()).unwrap();
        assert_eq!(decoded.chunk_count(), kept.len());
        for (fp, data) in kept {
            assert_eq!(decoded.get(&fp), Some(&data[..]));
        }
    });
}

/// Recipes round-trip arbitrary entries through encode/decode.
#[test]
fn recipe_encode_decode_arbitrary() {
    cases(30, 0x08, |rng| {
        let version = rng.gen_range(1u32..10_000);
        let mut r = Recipe::new(VersionId::new(version));
        for _ in 0..rng.gen_range(0usize..100) {
            r.push(RecipeEntry::new(
                Fingerprint::synthetic(rng.gen_range(0u64..u64::MAX)),
                rng.gen_range(0u32..u32::MAX),
                Cid::from_raw(rng.gen_range(0u64..u64::MAX) as u32 as i32),
            ));
        }
        let decoded = Recipe::decode(&r.encode()).unwrap();
        assert_eq!(decoded, r);
    });
}

/// Two identical consecutive versions always dedup the second fully.
#[test]
fn identical_versions_fully_deduplicated() {
    cases(10, 0x09, |rng| {
        let seed_len = rng.gen_range(2_000usize..20_000);
        let versions = version_history(seed_len, &[]);
        let data = &versions[0];
        let mut hds = HiDeStore::new(hds_config(), MemoryContainerStore::new());
        hds.backup(data).unwrap();
        let s2 = hds.backup(data).unwrap();
        assert_eq!(s2.stored_bytes, 0);
        assert_eq!(s2.cold_chunks, 0);
    });
}

// ---- Additional properties over the maintenance paths ----

/// Archival re-clustering never changes restored bytes, for arbitrary
/// version histories.
#[test]
fn recluster_preserves_bytes() {
    cases(8, 0x0B, |rng| {
        let seed_len = rng.gen_range(4_000usize..20_000);
        let edits = random_edits(rng, 2, 6);
        let versions = version_history(seed_len, &edits);
        let mut hds = HiDeStore::new(
            HiDeStoreConfig {
                avg_chunk_size: 512,
                container_capacity: 8 * 1024,
                ..HiDeStoreConfig::default()
            },
            MemoryContainerStore::new(),
        );
        for v in &versions {
            hds.backup(v).unwrap();
        }
        hds.recluster_archival().unwrap();
        for (i, expect) in versions.iter().enumerate() {
            let mut out = Vec::new();
            hds.restore(
                VersionId::new(i as u32 + 1),
                &mut Faa::new(1 << 18),
                &mut out,
            )
            .unwrap();
            assert_eq!(&out, expect, "version {}", i + 1);
        }
    });
}

/// Cid sign encoding round-trips through raw i32 for all values.
#[test]
fn cid_raw_round_trip() {
    cases(200, 0x0C, |rng| {
        let raw = rng.gen_range(0u64..=u64::MAX) as u32 as i32;
        let cid = Cid::from_raw(raw);
        assert_eq!(cid.raw(), raw);
        match raw {
            0 => assert!(cid.is_active()),
            r if r > 0 => assert_eq!(cid.as_archival().map(|c| c.get() as i32), Some(r)),
            r => assert_eq!(cid.as_chained().map(|v| -(v.get() as i32)), Some(r)),
        }
    });
    // The boundary values, explicitly.
    for raw in [0, 1, -1, i32::MAX, i32::MIN + 1] {
        assert_eq!(Cid::from_raw(raw).raw(), raw);
    }
}

/// After an arbitrary sequence of backup / flatten / delete_expired
/// operations, the cross-layer auditor finds nothing: every maintenance
/// path preserves every invariant.
#[test]
fn random_operation_sequences_audit_clean() {
    cases(8, 0x0E, |rng| {
        let seed_len = rng.gen_range(2_000usize..20_000);
        let mut current = version_history(seed_len, &[]).remove(0);
        let mut hds = HiDeStore::new(hds_config(), MemoryContainerStore::new());
        hds.backup(&current).unwrap();
        let mut newest = 1u32;
        let mut oldest = 1u32;
        for _ in 0..rng.gen_range(3usize..10) {
            match rng.gen_range(0usize..4) {
                // Backup a mutated next version (weighted: half the ops).
                0 | 1 => {
                    current = apply(current, &random_edit(rng));
                    hds.backup(&current).unwrap();
                    newest += 1;
                }
                // Flatten recipe chains (Algorithm 1).
                2 => {
                    hds.flatten_recipes();
                }
                // Expire a prefix of the history, when one exists.
                _ => {
                    if oldest < newest {
                        let up_to = rng.gen_range(oldest..newest);
                        hds.delete_expired(VersionId::new(up_to)).unwrap();
                        oldest = up_to + 1;
                    }
                }
            }
            let report = SystemAuditor::new().audit(&hds);
            assert!(
                report.is_clean(),
                "auditor found violations after random ops (newest V{newest}):\n{:#?}",
                report.findings
            );
        }
        // Everything still restores byte-exact at the end.
        let mut out = Vec::new();
        hds.restore(VersionId::new(newest), &mut Faa::new(1 << 18), &mut out)
            .unwrap();
        assert_eq!(out, current);
    });
}

/// Random interleavings of backup / out-of-line pass / delete_expired under
/// the out-of-line schemes (revdedup, hybrid): every surviving version
/// restores byte-exact after every operation and the auditor never reports
/// an error, no matter where the reverse-deduplication pass lands in the
/// sequence.
#[test]
fn out_of_line_schemes_survive_random_interleavings() {
    use hidestore::core::DedupMode;
    use hidestore::fsck::Severity;

    cases(5, 0x10, |rng| {
        for scheme in [DedupMode::RevDedup, DedupMode::Hybrid] {
            let seed_len = rng.gen_range(2_000usize..20_000);
            let mut current = version_history(seed_len, &[]).remove(0);
            let mut hds = HiDeStore::new(
                hds_config().with_scheme(scheme),
                MemoryContainerStore::new(),
            );
            hds.backup(&current).unwrap();
            let mut originals = std::collections::BTreeMap::new();
            originals.insert(1u32, current.clone());
            let mut newest = 1u32;
            for step in 0..rng.gen_range(4usize..9) {
                match rng.gen_range(0usize..4) {
                    // Backup a mutated next version (weighted: half the ops).
                    0 | 1 => {
                        current = apply(current, &random_edit(rng));
                        hds.backup(&current).unwrap();
                        newest += 1;
                        originals.insert(newest, current.clone());
                    }
                    // Reverse-deduplicate older versions against the newest.
                    2 => {
                        hds.out_of_line_pass()
                            .unwrap_or_else(|e| panic!("{scheme}: pass failed: {e}"));
                    }
                    // Expire a random prefix, when one exists.
                    _ => {
                        let oldest = *originals.keys().next().unwrap();
                        if oldest < newest {
                            let up_to = rng.gen_range(oldest..newest);
                            hds.delete_expired(VersionId::new(up_to)).unwrap();
                            originals.retain(|&v, _| v > up_to);
                        }
                    }
                }
                let report = SystemAuditor::new().audit(&hds);
                assert_eq!(
                    report.count(Severity::Error),
                    0,
                    "{scheme}: audit errors after step {step} (newest V{newest}):\n{:#?}",
                    report.findings
                );
                // One random survivor restores exactly after every operation.
                let pick = rng.gen_range(0usize..originals.len());
                let (&v, expect) = originals.iter().nth(pick).unwrap();
                let mut out = Vec::new();
                hds.restore(VersionId::new(v), &mut Faa::new(1 << 18), &mut out)
                    .unwrap_or_else(|e| panic!("{scheme}: restore V{v} failed: {e}"));
                assert_eq!(&out, expect, "{scheme}: V{v} differs after step {step}");
            }
            // Epilogue: every survivor restores exactly one more time.
            for (&v, expect) in &originals {
                let mut out = Vec::new();
                hds.restore(VersionId::new(v), &mut Faa::new(1 << 18), &mut out)
                    .unwrap();
                assert_eq!(&out, expect, "{scheme}: final V{v} differs");
            }
        }
    });
}

/// Random backup / delete / save / restore sequences over an on-disk
/// repository: every surviving version restores byte-exact through a
/// randomly drawn restore scheme, and the repository audits clean after
/// every save.
#[test]
fn random_lifecycles_restore_exactly_under_random_schemes() {
    use hidestore::restore::{Alacc, BeladyCache, ChunkLru, ContainerLru, RestoreCache};

    fn random_scheme(rng: &mut StdRng) -> Box<dyn RestoreCache> {
        match rng.gen_range(0usize..5) {
            0 => Box::new(ContainerLru::new(rng.gen_range(1usize..8))),
            1 => Box::new(ChunkLru::new(rng.gen_range(600usize..32_000))),
            2 => Box::new(Faa::new(rng.gen_range(600usize..32_000))),
            3 => {
                let half = rng.gen_range(600usize..16_000);
                Box::new(Alacc::new(half, half))
            }
            _ => Box::new(BeladyCache::new(rng.gen_range(1usize..8))),
        }
    }

    cases(6, 0x0F, |rng| {
        let dir = scratch_dir("lifecycle", rng);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let seed_len = rng.gen_range(2_000usize..20_000);
            let mut current = version_history(seed_len, &[]).remove(0);
            let mut hds = HiDeStore::open_repository(hds_config(), &dir).unwrap();
            hds.backup(&current).unwrap();
            // Surviving version -> original bytes.
            let mut originals = std::collections::BTreeMap::new();
            originals.insert(1u32, current.clone());
            let mut newest = 1u32;
            for _ in 0..rng.gen_range(4usize..9) {
                match rng.gen_range(0usize..4) {
                    // Backup a mutated next version (weighted).
                    0 | 1 => {
                        current = apply(current, &random_edit(rng));
                        hds.backup(&current).unwrap();
                        newest += 1;
                        originals.insert(newest, current.clone());
                    }
                    // Save, audit, reopen.
                    2 => {
                        hds.save_repository(&dir).unwrap();
                        assert_disk_matches_memory(&hds, &dir, &format!("save at V{newest}"));
                        let report = SystemAuditor::new().audit(&hds);
                        assert!(
                            report.is_clean(),
                            "audit after save (newest V{newest}):\n{:#?}",
                            report.findings
                        );
                        hds = HiDeStore::open_repository(hds_config(), &dir).unwrap();
                    }
                    // Expire a random prefix, when one exists.
                    _ => {
                        let oldest = *originals.keys().next().unwrap();
                        if oldest < newest {
                            let up_to = rng.gen_range(oldest..newest);
                            hds.delete_expired(VersionId::new(up_to)).unwrap();
                            originals.retain(|&v, _| v > up_to);
                        }
                    }
                }
                // One random surviving version restores exactly, through a
                // random scheme.
                let pick = rng.gen_range(0usize..originals.len());
                let (&v, expect) = originals.iter().nth(pick).unwrap();
                let mut scheme = random_scheme(rng);
                let mut out = Vec::new();
                hds.restore(VersionId::new(v), scheme.as_mut(), &mut out)
                    .unwrap();
                assert_eq!(&out, expect, "V{v} under {}", scheme.name());
            }
            // Epilogue: every survivor restores exactly one more time.
            for (&v, expect) in &originals {
                let mut scheme = random_scheme(rng);
                let mut out = Vec::new();
                hds.restore(VersionId::new(v), scheme.as_mut(), &mut out)
                    .unwrap();
                assert_eq!(&out, expect, "final V{v} under {}", scheme.name());
            }
        }));
        let _ = std::fs::remove_dir_all(&dir);
        if let Err(panic) = result {
            std::panic::resume_unwind(panic);
        }
    });
}

/// Random backup / prune / flatten / recluster / dedup-pass / save / reopen
/// sequences under every scheme: after every save, the files under
/// `recipes/` and `active/` are the instance's recipes and pool byte for
/// byte — the save staged every change the operations made and removed
/// every file they dropped, however many saves ran on one instance.
#[test]
fn random_lifecycles_keep_the_disk_image_equal_to_memory() {
    use hidestore::core::DedupMode;

    cases(8, 0x11, |rng| {
        for scheme in DedupMode::ALL {
            let dir = scratch_dir(&format!("disk-image-{scheme}"), rng);
            // Small containers: re-clustering finds multi-container tag
            // groups, and pool compaction has sparse containers to merge.
            let config = HiDeStoreConfig {
                container_capacity: 8 * 1024,
                ..hds_config()
            }
            .with_scheme(scheme);
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let seed_len = rng.gen_range(4_000usize..20_000);
                let mut current = version_history(seed_len, &[]).remove(0);
                let mut hds = HiDeStore::open_repository(config, &dir).unwrap();
                hds.backup(&current).unwrap();
                let mut originals = BTreeMap::from([(1u32, current.clone())]);
                let mut newest = 1u32;
                for step in 0..rng.gen_range(8usize..16) {
                    let context = format!("{scheme} step {step} (newest V{newest})");
                    match rng.gen_range(0usize..8) {
                        0..=2 => {
                            // Mostly an edit; sometimes unrelated data, so
                            // every active container goes cold and empties.
                            current = if rng.gen_range(0usize..3) == 0 {
                                random_bytes(rng, seed_len)
                            } else {
                                apply(current, &random_edit(rng))
                            };
                            hds.backup(&current).unwrap();
                            newest += 1;
                            originals.insert(newest, current.clone());
                        }
                        3 => {
                            let oldest = *originals.keys().next().unwrap();
                            if oldest < newest {
                                let up_to = rng.gen_range(oldest..newest);
                                hds.delete_expired(VersionId::new(up_to)).unwrap();
                                originals.retain(|&v, _| v > up_to);
                            }
                        }
                        4 => {
                            hds.flatten_recipes();
                        }
                        5 if scheme == DedupMode::HiDeStore => {
                            hds.recluster_archival().unwrap();
                        }
                        5 => {
                            hds.out_of_line_pass().unwrap();
                        }
                        6 => {
                            hds.save_repository(&dir).unwrap();
                            assert_disk_matches_memory(&hds, &dir, &context);
                        }
                        _ => {
                            hds.save_repository(&dir).unwrap();
                            assert_disk_matches_memory(&hds, &dir, &context);
                            hds = HiDeStore::open_repository(config, &dir).unwrap();
                        }
                    }
                }
                hds.save_repository(&dir).unwrap();
                assert_disk_matches_memory(&hds, &dir, &format!("{scheme} final save"));
                let hds = HiDeStore::open_repository(config, &dir).unwrap();
                for (&v, expect) in &originals {
                    let mut out = Vec::new();
                    hds.restore(VersionId::new(v), &mut Faa::new(1 << 18), &mut out)
                        .unwrap();
                    assert!(out == *expect, "{scheme}: V{v} differs after reopen");
                }
                let audit = SystemAuditor::new().audit(&hds);
                assert!(audit.is_clean(), "{scheme}: {audit}");
            }));
            let _ = std::fs::remove_dir_all(&dir);
            if let Err(panic) = result {
                std::panic::resume_unwind(panic);
            }
        }
    });
}

/// An active snapshot persisted with dead bytes changes only through
/// in-place compaction: the next backup of the same data adds nothing to
/// it and demotes nothing from it, yet its bytes shrink, and the save must
/// publish them.
#[test]
fn in_place_compaction_of_a_persisted_snapshot_is_saved() {
    let mut rng = StdRng::seed_from_u64(0x12);
    let dir = scratch_dir("dead-bytes", &mut rng);
    // No container is sparse enough to merge: compaction only works in
    // place.
    let config = HiDeStoreConfig {
        compact_threshold: 0.01,
        ..hds_config()
    };
    let data = version_history(40_000, &[]).remove(0);
    let result = std::panic::catch_unwind(|| {
        let mut hds = HiDeStore::open_repository(config, &dir).unwrap();
        hds.backup(&data).unwrap();
        hds.save_repository(&dir).unwrap();
        drop(hds);

        // Give one snapshot dead bytes without touching its live chunks.
        let junk = Fingerprint::synthetic(u64::MAX);
        let crafted = std::fs::read_dir(dir.join("active"))
            .unwrap()
            .map(|e| e.unwrap().path())
            .find(|path| {
                let mut c = Container::decode(&std::fs::read(path).unwrap()).unwrap();
                if !c.try_add(junk, &[0xAB; 64]) {
                    return false;
                }
                c.remove(&junk);
                std::fs::write(path, c.encode()).unwrap();
                true
            });
        assert!(crafted.is_some(), "some snapshot has room for 64 bytes");

        let mut hds = HiDeStore::open_repository(config, &dir).unwrap();
        let stats = hds.backup(&data).unwrap();
        assert_eq!((stats.stored_bytes, stats.cold_chunks), (0, 0));
        hds.save_repository(&dir).unwrap();
        assert_disk_matches_memory(&hds, &dir, "after compacting in place");
    });
    let _ = std::fs::remove_dir_all(&dir);
    if let Err(panic) = result {
        std::panic::resume_unwind(panic);
    }
}
