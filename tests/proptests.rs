//! Property-based tests over the core invariants of the whole stack.
//!
//! Offline-friendly harness: instead of an external property-testing
//! framework, each property runs over a fixed number of cases driven by the
//! vendored deterministic [`StdRng`] — same seed, same inputs, every run.
//! On failure the panic message names the case seed so the input can be
//! reproduced exactly.

use std::collections::{BTreeMap, BTreeSet};
use std::num::NonZeroU32;
use std::path::Path;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use hidestore::chunking::{chunk_spans, ChunkerKind};
use hidestore::core::{HiDeStore, HiDeStoreConfig};
use hidestore::dedup::{BackupPipeline, PipelineConfig};
use hidestore::failpoint::{FaultVfs, OpKind, Plan};
use hidestore::fsck::SystemAuditor;
use hidestore::hash::{Fingerprint, Sha1};
use hidestore::index::DdfsIndex;
use hidestore::restore::Faa;
use hidestore::rewriting::NoRewrite;
use hidestore::storage::{
    Cid, Container, ContainerId, FileContainerStore, MemoryContainerStore, Recipe, RecipeEntry,
    VersionId,
};
use hidestore::workloads::{Profile, VersionStream};

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

/// The dead entries `hidestore.meta` lists per kept active file (DESIGN
/// §3: none in the 20-byte `HDS2` form; after the `HDS3` magic and three
/// u32 counters, a u32 file count, per file a u32 pool-local ID, a u32
/// entry count and the 20-byte fingerprints; then the CRC-32).
fn meta_dead_entries(dir: &Path) -> BTreeMap<u32, Vec<Fingerprint>> {
    let meta = std::fs::read(dir.join("hidestore.meta")).unwrap();
    if meta.starts_with(b"HDS2") {
        assert_eq!(meta.len(), 20);
        return BTreeMap::new();
    }
    assert_eq!(&meta[..4], b"HDS3");
    let mut body = &meta[16..meta.len() - 4];
    let mut take = |len: usize| {
        let (head, tail) = body.split_at(len);
        body = tail;
        head
    };
    let u32_of = |bytes: &[u8]| u32::from_le_bytes(bytes.try_into().unwrap());
    let mut dead = BTreeMap::new();
    for _ in 0..u32_of(take(4)) {
        let cid = u32_of(take(4));
        let count = u32_of(take(4)) as usize;
        let fingerprints = take(20 * count)
            .chunks_exact(20)
            .map(|fp| Fingerprint::from_bytes(fp.try_into().unwrap()))
            .collect();
        dead.insert(cid, fingerprints);
    }
    assert!(body.is_empty(), "the CRC-32 follows the table");
    dead
}

/// Asserts that the repository at `dir` holds exactly `hds`'s recipes and
/// active pool: the `recipes/r*.rcp` and `active/a*.ctr` file sets name
/// them, every recipe file's bytes are its current encoding, and every
/// active file, minus the dead entries the meta lists for it and then
/// compacted, encodes exactly as the pooled container does.
fn assert_disk_matches_memory(hds: &HiDeStore<FileContainerStore>, dir: &Path, context: &str) {
    let mut expect: BTreeMap<String, Vec<u8>> = BTreeMap::new();
    for recipe in hds.recipes().iter() {
        let name = format!("recipes/r{}.rcp", recipe.version().get());
        expect.insert(name, recipe.encode());
    }
    for (cid, container) in hds.pool().containers() {
        expect.insert(format!("active/a{cid}.ctr"), container.encode());
    }
    let mut dead = meta_dead_entries(dir);
    let mut found: BTreeMap<String, Vec<u8>> = BTreeMap::new();
    for (sub, prefix, suffix) in [("recipes", "r", ".rcp"), ("active", "a", ".ctr")] {
        let Ok(entries) = std::fs::read_dir(dir.join(sub)) else {
            continue;
        };
        for entry in entries {
            let path = entry.unwrap().path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            let Some(id) = name
                .strip_prefix(prefix)
                .and_then(|n| n.strip_suffix(suffix))
            else {
                continue;
            };
            let mut bytes = std::fs::read(&path).unwrap();
            if sub == "active" {
                let mut container = Container::decode(bytes).unwrap();
                for fp in dead.remove(&id.parse().unwrap()).unwrap_or_default() {
                    assert!(
                        container.remove(&fp),
                        "{context}: {name} lacks the dead entry {fp}"
                    );
                }
                container.compact_in_place();
                bytes = container.encode();
            }
            found.insert(format!("{sub}/{name}"), bytes);
        }
    }
    assert!(
        dead.is_empty(),
        "{context}: the meta lists dead entries of absent files {:?}",
        dead.keys()
    );
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

/// Containers round-trip arbitrary chunk sets through encode/decode, and
/// a decoded container then behaves exactly like the one it was encoded
/// from under the same random adds, removes and compactions.
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
        let capacity = rng.gen_range(1usize..6000);
        let mut c = Container::new(ContainerId::new(1), capacity);
        let mut kept = Vec::new();
        for (i, data) in chunks.iter().enumerate() {
            let fp = Fingerprint::synthetic(i as u64);
            if c.try_add(fp, data) {
                kept.push((fp, data.clone()));
            }
        }
        let mut decoded = Container::decode(c.encode()).unwrap();
        assert_eq!(decoded.chunk_count(), kept.len());
        for (fp, data) in kept {
            assert_eq!(decoded.get(&fp), Some(&data[..]));
        }

        let n_fps = n_chunks as u64 + 10;
        for step in 0..rng.gen_range(1usize..30) {
            let fp = Fingerprint::synthetic(rng.gen_range(0..n_fps));
            match rng.gen_range(0u8..3) {
                0 => {
                    let len = rng.gen_range(0usize..400);
                    let data = random_bytes(rng, len);
                    assert_eq!(c.try_add(fp, &data), decoded.try_add(fp, &data), "{step}");
                }
                1 => assert_eq!(c.remove(&fp), decoded.remove(&fp), "{step}"),
                _ => {
                    c.compact_in_place();
                    decoded.compact_in_place();
                }
            }
            assert_eq!(c.encode(), decoded.encode(), "step {step}");
            assert_eq!(
                c.iter().collect::<Vec<_>>(),
                decoded.iter().collect::<Vec<_>>(),
                "step {step}"
            );
            assert_eq!(c.live_bytes(), decoded.live_bytes(), "step {step}");
            assert_eq!(c.used_bytes(), decoded.used_bytes(), "step {step}");
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

/// Random backup / prune / flatten / recluster / save / reopen sequences:
/// after every save, the files under `recipes/` and `active/` are the
/// instance's recipes and pool byte for byte — the save staged every change
/// the operations made and removed every file they dropped, however many
/// saves ran on one instance.
#[test]
fn random_lifecycles_keep_the_disk_image_equal_to_memory() {
    cases(8, 0x11, |rng| {
        let dir = scratch_dir("disk-image-hidestore", rng);
        // Small containers: re-clustering finds multi-container tag
        // groups, and pool compaction has sparse containers to merge.
        let config = HiDeStoreConfig {
            container_capacity: 8 * 1024,
            ..hds_config()
        };
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let seed_len = rng.gen_range(4_000usize..20_000);
            let mut current = version_history(seed_len, &[]).remove(0);
            let mut hds = HiDeStore::open_repository(config, &dir).unwrap();
            hds.backup(&current).unwrap();
            let mut originals = BTreeMap::from([(1u32, current.clone())]);
            let mut newest = 1u32;
            for step in 0..rng.gen_range(8usize..16) {
                let context = format!("step {step} (newest V{newest})");
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
                    5 => {
                        hds.recluster_archival().unwrap();
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
            assert_disk_matches_memory(&hds, &dir, "final save");
            let hds = HiDeStore::open_repository(config, &dir).unwrap();
            for (&v, expect) in &originals {
                let mut out = Vec::new();
                hds.restore(VersionId::new(v), &mut Faa::new(1 << 18), &mut out)
                    .unwrap();
                assert!(out == *expect, "V{v} differs after reopen");
            }
            let audit = SystemAuditor::new().audit(&hds);
            assert!(audit.is_clean(), "{audit}");
        }));
        let _ = std::fs::remove_dir_all(&dir);
        if let Err(panic) = result {
            std::panic::resume_unwind(panic);
        }
    });
}

/// Asserts that `hds`'s pool is the hot set: its fingerprints are exactly
/// the distinct fingerprints of the newest `depth` recipes, and each pooled
/// chunk sits in the container the pool's index names.
fn assert_pool_is_the_hot_set(hds: &HiDeStore<FileContainerStore>, depth: usize, context: &str) {
    let newest: BTreeSet<Fingerprint> = hds
        .versions()
        .iter()
        .rev()
        .take(depth)
        .flat_map(|&v| hds.recipes().get(v).unwrap().entries())
        .map(|e| e.fingerprint)
        .collect();
    let pool = hds.pool();
    let pooled: BTreeSet<Fingerprint> = pool.hot_chunks().map(|(fp, _)| fp).collect();
    assert!(
        pooled == newest,
        "{context}: {} pooled chunks, {} in the newest {depth} recipes, {} in both",
        pooled.len(),
        newest.len(),
        pooled.intersection(&newest).count()
    );
    for (fp, cid) in pool.hot_chunks() {
        assert!(
            pool.snapshot(cid).is_some_and(|c| c.contains(&fp)),
            "{context}: active container {cid} does not hold {fp}"
        );
    }
}

/// Figure 5 over random histories at history depth 1 and 2, with the
/// skip-a-version pattern of Figure 3d mixed in: after every backup and
/// every reopen, the active pool holds exactly the newest `depth` versions'
/// chunks, each where its entry says. At depth 2 the history is then
/// pruned to one version and reopened: the next backup demotes the chunks
/// only the pruned version held.
#[test]
fn the_active_pool_is_the_hot_set_across_backups_and_reopens() {
    cases(6, 0x12, |rng| {
        for depth in [1usize, 2] {
            let dir = scratch_dir(&format!("hot-set-{depth}"), rng);
            let config = HiDeStoreConfig {
                container_capacity: 8 * 1024,
                history_depth: depth,
                ..hds_config()
            };
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let seed_len = rng.gen_range(4_000usize..20_000);
                let mut streams = version_history(seed_len, &[]);
                let mut hds = HiDeStore::open_repository(config, &dir).unwrap();
                hds.backup(&streams[0]).unwrap();
                assert_pool_is_the_hot_set(&hds, depth, &format!("depth {depth} V1"));
                for v in 2..rng.gen_range(6u32..12) {
                    let newest = streams.last().unwrap().clone();
                    let next = match rng.gen_range(0usize..4) {
                        // The version before the newest comes back.
                        0 if streams.len() >= 2 => streams[streams.len() - 2].clone(),
                        1 => random_bytes(rng, seed_len),
                        _ => apply(newest, &random_edit(rng)),
                    };
                    hds.backup(&next).unwrap();
                    streams.push(next);
                    assert_pool_is_the_hot_set(&hds, depth, &format!("depth {depth} V{v}"));
                    if rng.gen_range(0usize..3) == 0 {
                        hds.save_repository(&dir).unwrap();
                        hds = HiDeStore::open_repository(config, &dir).unwrap();
                        let context = format!("depth {depth} reopen after V{v}");
                        assert_pool_is_the_hot_set(&hds, depth, &context);
                    }
                }
                if depth == 2 {
                    // Right after the reopen the pool may still hold the
                    // pruned version's chunks.
                    hds.prune_keep_last(NonZeroU32::MIN).unwrap();
                    hds.save_repository(&dir).unwrap();
                    hds = HiDeStore::open_repository(config, &dir).unwrap();
                    let next = apply(streams.last().unwrap().clone(), &random_edit(rng));
                    hds.backup(&next).unwrap();
                    streams.push(next);
                    assert_pool_is_the_hot_set(&hds, depth, "depth 2 backup after a prune to 1");
                }
                for v in hds.versions() {
                    let mut out = Vec::new();
                    hds.restore(v, &mut Faa::new(1 << 18), &mut out).unwrap();
                    let expect = &streams[v.get() as usize - 1];
                    assert!(out == *expect, "depth {depth}: {v} differs");
                }
            }));
            let _ = std::fs::remove_dir_all(&dir);
            if let Err(panic) = result {
                std::panic::resume_unwind(panic);
            }
        }
    });
}

/// An active snapshot persisted with dead bytes (as a file written before
/// the pool compacted at every version end could hold) is compacted when
/// it is loaded: the next backup of the same data adds nothing to it and
/// demotes nothing from it, so the save keeps the file as it is, and the
/// file, compacted, is the pooled container.
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
                let mut c = Container::decode(std::fs::read(path).unwrap()).unwrap();
                if !c.try_add(junk, &[0xAB; 64]) {
                    return false;
                }
                c.remove(&junk);
                std::fs::write(path, c.encode()).unwrap();
                true
            })
            .expect("some snapshot has room for 64 bytes");
        let bytes = std::fs::read(&crafted).unwrap();
        let mut hds = HiDeStore::open_repository(config, &dir).unwrap();
        let stats = hds.backup(&data).unwrap();
        assert_eq!((stats.stored_bytes, stats.cold_chunks), (0, 0));
        hds.save_repository(&dir).unwrap();
        assert!(
            std::fs::read(&crafted).unwrap() == bytes,
            "the file is kept"
        );
        assert_disk_matches_memory(&hds, &dir, "after compacting in place");
    });
    let _ = std::fs::remove_dir_all(&dir);
    if let Err(panic) = result {
        std::panic::resume_unwind(panic);
    }
}

/// A seeded kernel-profile lifecycle with small containers at history
/// depth 1 and 2, saved and reopened at every version and, at depth 2,
/// after a prune to the newest version, which removes the chunks only the
/// older one held. A save stages `active/a<cid>.ctr` only for a container
/// that is new, that chunks were placed into since its file was written,
/// or whose file would hold more than (1 − `compact_threshold`) × capacity
/// dead bytes: a container that only lost chunks keeps its file. Every
/// reopen rebuilds the committing instance's pool exactly, container by
/// container — fingerprints, offsets and bytes — from the kept files and
/// the meta's dead entries, and audits clean.
#[test]
fn an_active_container_that_only_lost_chunks_keeps_its_file() {
    type Repo = HiDeStore<FileContainerStore<FaultVfs>>;
    let mut rng = StdRng::seed_from_u64(0x26);
    for history_depth in [1, 2] {
        let dir = scratch_dir(&format!("kept-files-{history_depth}"), &mut rng);
        let config = HiDeStoreConfig {
            avg_chunk_size: 1024,
            container_capacity: 64 * 1024,
            history_depth,
            ..HiDeStoreConfig::default()
        };
        let max_dead = (1.0 - config.compact_threshold) * config.container_capacity as f64;
        let spec = Profile::Kernel.spec().scaled(768 << 10, 12);
        let result = std::panic::catch_unwind(|| {
            let vfs = FaultVfs::new(Plan::counting());
            let staging = dir.join("staging").join("active");
            // Each active file on disk: the fingerprints and data bytes it
            // was written with.
            let mut files: BTreeMap<u32, (BTreeSet<Fingerprint>, usize)> = BTreeMap::new();
            let mut kept = 0;
            // Saves `hds`, checks the active files staged, and returns the
            // reopened instance after checking its pool.
            let mut save_and_reopen = |hds: Repo, step: &str| -> Repo {
                let context = format!("depth {history_depth}, {step}");
                let mut expect: BTreeSet<u32> = BTreeSet::new();
                for (cid, container) in hds.pool().containers() {
                    let live: BTreeSet<Fingerprint> = container.fingerprints().collect();
                    match files.get(&cid) {
                        Some((held, used))
                            if live.is_subset(held)
                                && (used - container.live_bytes()) as f64 <= max_dead =>
                        {
                            kept += usize::from(live.len() < held.len());
                        }
                        _ => {
                            expect.insert(cid);
                        }
                    }
                }
                let mut hds = hds;
                let from = vfs.plan().ops() as usize;
                hds.save_repository(&dir).unwrap();
                let staged: BTreeSet<u32> = vfs.plan().trace()[from..]
                    .iter()
                    .filter(|op| op.kind == OpKind::Write)
                    .filter_map(|op| op.path.strip_prefix(&staging).ok())
                    .map(|rel| {
                        let name = rel.to_string_lossy();
                        let id = name.strip_prefix('a').and_then(|n| n.strip_suffix(".ctr"));
                        id.unwrap().parse().unwrap()
                    })
                    .collect();
                assert_eq!(staged, expect, "{context}: the active files staged");
                files.retain(|cid, _| hds.pool().snapshot(*cid).is_some());
                for (cid, container) in hds.pool().containers() {
                    if staged.contains(&cid) {
                        let live = container.fingerprints().collect();
                        files.insert(cid, (live, container.used_bytes()));
                    }
                }

                let (reopened, _) =
                    HiDeStore::open_repository_with(config, &dir, vfs.clone()).unwrap();
                let pool = |hds: &Repo| -> Vec<(u32, Vec<u8>)> {
                    hds.pool()
                        .containers()
                        .map(|(cid, c)| (cid, c.encode()))
                        .collect()
                };
                assert!(
                    pool(&reopened) == pool(&hds),
                    "{context}: the reopened pool differs"
                );
                assert_eq!(reopened.pool().chunk_count(), hds.pool().chunk_count());
                let audit = SystemAuditor::new().audit(&reopened);
                assert!(audit.is_clean(), "{context}: {audit}");
                reopened
            };
            let (mut hds, _) = HiDeStore::open_repository_with(config, &dir, vfs.clone()).unwrap();
            for (v, data) in (1..).zip(VersionStream::new(spec, 26).all_versions()) {
                hds.backup(&data).unwrap();
                hds = save_and_reopen(hds, &format!("V{v}"));
            }
            if history_depth == 2 {
                let before = hds.pool().chunk_count();
                hds.prune_keep_last(NonZeroU32::MIN).unwrap();
                assert!(hds.pool().chunk_count() < before, "the prune left the pool");
                save_and_reopen(hds, "prune to 1");
            }
            assert!(kept > 0, "no container only lost chunks");
        });
        let _ = std::fs::remove_dir_all(&dir);
        if let Err(panic) = result {
            std::panic::resume_unwind(panic);
        }
    }
}
