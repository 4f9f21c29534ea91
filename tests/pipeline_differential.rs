//! Differential suite for the ingest front end.
//!
//! Every backup chunks and fingerprints its stream through one function,
//! `hidestore::dedup::chunk_fingerprints`, which hashes inline below
//! `STAGED_MIN_BYTES` (or on a one-core machine) and on a pool of hashing
//! workers above it. Dedup decisions are order-dependent, so both branches
//! must hand the commit stage exactly what `chunk_spans` followed by
//! `Fingerprint::of` per span would: the front end is checked against that
//! test-side reference at worker counts {1, 2, 8} and at the input lengths
//! where the staged engine changes shape (empty, one chunk, one hand-off
//! segment, one segment + 1, either side of the crossover). The index ×
//! rewriter and HiDeStore sweeps then push versions from both sides of the
//! crossover through the whole pipeline: recipes must list the reference
//! chunks, every version must restore byte-exact, and HiDeStore
//! repositories must audit clean.

use std::ops::Range;

use hidestore::chunking::{chunk_spans, TttdChunker};
use hidestore::core::{HiDeStore, HiDeStoreConfig};
use hidestore::dedup::{
    chunk_fingerprints, staged_front_end, BackupPipeline, PipelineConfig, STAGED_MIN_BYTES,
};
use hidestore::fsck::{Severity, SystemAuditor};
use hidestore::hash::Fingerprint;
use hidestore::index::IndexKind;
use hidestore::restore::Faa;
use hidestore::rewriting::{Capping, Cbr, CflRewrite, Fbw, NoRewrite, RewritePolicy};
use hidestore::storage::{MemoryContainerStore, Recipe, VersionId};
use hidestore::workloads::{Profile, VersionStream};

const CHUNK: usize = 1024;
const CONTAINER: usize = 32 * 1024;

/// Chunks per hand-off segment in the staged branch — mirrors the private
/// constant in `crates/dedup/src/pipeline/front_end.rs`.
const SEGMENT_CHUNKS: usize = 16;

type Chunked = (Vec<Range<usize>>, Vec<Fingerprint>);

/// The reference front end: sequential `chunk_spans`, then one
/// `Fingerprint::of` per span. Shares no code with the crate's branches
/// beyond the chunker and the hash themselves.
fn reference(data: &[u8]) -> Chunked {
    let spans = chunk_spans(&mut TttdChunker::new(CHUNK), data);
    let fingerprints = spans
        .iter()
        .map(|s| Fingerprint::of(&data[s.clone()]))
        .collect();
    (spans, fingerprints)
}

fn noise(len: usize, seed: u64) -> Vec<u8> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 32) as u8
        })
        .collect()
}

/// Both branches, every worker count, every length where the staged engine
/// changes shape: identical spans and fingerprints to the reference.
#[test]
fn front_end_matches_the_inline_reference_at_every_edge() {
    let data = noise(STAGED_MIN_BYTES + 100_000, 7);
    let spans = reference(&data).0;
    let end_of_chunk = |n: usize| spans[n - 1].end;
    let lengths = [
        0,
        end_of_chunk(1),
        end_of_chunk(SEGMENT_CHUNKS),
        end_of_chunk(SEGMENT_CHUNKS + 1),
        STAGED_MIN_BYTES - 1,
        STAGED_MIN_BYTES,
        data.len(),
    ];
    for len in lengths {
        let input = &data[..len];
        let want = reference(input);
        assert_eq!(
            chunk_fingerprints(input, &mut TttdChunker::new(CHUNK)),
            want,
            "chunk_fingerprints len={len}"
        );
        for workers in [1, 2, 8] {
            assert_eq!(
                staged_front_end(input, &mut TttdChunker::new(CHUNK), workers),
                want,
                "staged len={len} workers={workers}"
            );
        }
    }
}

/// Versions from both sides of the crossover: a short prefix, two full
/// versions above it, and a tail version one byte below it.
fn crossover_versions(profile: Profile, seed: u64) -> Vec<Vec<u8>> {
    let full =
        VersionStream::new(profile.spec().scaled(STAGED_MIN_BYTES * 5 / 4, 3), seed).all_versions();
    assert!(full.iter().all(|v| v.len() > STAGED_MIN_BYTES));
    vec![
        full[0][..200_000].to_vec(),
        full[0].clone(),
        full[1].clone(),
        full[2][..STAGED_MIN_BYTES - 1].to_vec(),
    ]
}

/// A recipe must list exactly the reference chunks of its version, in
/// stream order.
fn assert_recipe_is_reference(recipe: &Recipe, data: &[u8], tag: &str) {
    let (spans, fingerprints) = reference(data);
    let got: Vec<(Fingerprint, u32)> = recipe
        .entries()
        .iter()
        .map(|e| (e.fingerprint, e.size))
        .collect();
    let want: Vec<(Fingerprint, u32)> = fingerprints
        .into_iter()
        .zip(spans.iter().map(|s| s.len() as u32))
        .collect();
    assert_eq!(got, want, "{tag}: recipe is not the reference chunking");
}

fn rewriters() -> Vec<(&'static str, Box<dyn RewritePolicy>)> {
    vec![
        ("none", Box::new(NoRewrite::new())),
        ("capping", Box::new(Capping::new(4))),
        ("cbr", Box::new(Cbr::default())),
        ("cfl", Box::new(CflRewrite::new(0.6, CONTAINER as u64))),
        (
            "fbw",
            Box::new(Fbw::new((4 * CONTAINER) as u64, 0.05, CONTAINER as u64)),
        ),
    ]
}

/// Every index × rewrite policy over versions on both sides of the
/// crossover: recipes hold the reference chunks and every version restores
/// byte-exact.
#[test]
fn every_scheme_and_policy_restores_exactly_across_the_crossover() {
    let versions = crossover_versions(Profile::Kernel, 19);
    let config = PipelineConfig {
        avg_chunk_size: CHUNK,
        container_capacity: CONTAINER,
        segment_chunks: 32,
        ..PipelineConfig::default()
    };
    for index_kind in IndexKind::ALL {
        for (rewriter_name, rewriter) in rewriters() {
            let tag = format!("{index_kind}+{rewriter_name}");
            let mut pipeline = BackupPipeline::new(
                config,
                index_kind.build(),
                rewriter,
                MemoryContainerStore::new(),
            );
            for v in &versions {
                let stats = pipeline.backup(v).unwrap();
                assert_eq!(stats.logical_bytes, v.len() as u64, "{tag}");
            }
            for (i, expect) in versions.iter().enumerate() {
                let version = VersionId::new(i as u32 + 1);
                let tag = format!("{tag} V{}", i + 1);
                assert_recipe_is_reference(pipeline.recipes().get(version).unwrap(), expect, &tag);
                let mut out = Vec::new();
                pipeline
                    .restore(version, &mut Faa::new(1 << 18), &mut out)
                    .unwrap_or_else(|e| panic!("{tag}: restore failed: {e}"));
                assert_eq!(&out, expect, "{tag}: bytes differ");
            }
        }
    }
}

/// HiDeStore itself over versions on both sides of the crossover: recipes
/// hold the reference chunks, the repository audits clean, and every
/// version restores byte-exact.
#[test]
fn hidestore_restores_exactly_and_audits_clean_across_the_crossover() {
    let versions = crossover_versions(Profile::Macos, 43);
    let config = HiDeStoreConfig {
        avg_chunk_size: CHUNK,
        container_capacity: CONTAINER,
        ..HiDeStoreConfig::default()
    };
    let mut hds = HiDeStore::new(config, MemoryContainerStore::new());
    for v in &versions {
        hds.backup(v).unwrap();
    }
    let audit = SystemAuditor::new().audit(&hds);
    assert_eq!(
        audit.count(Severity::Error),
        0,
        "repository must audit clean:\n{:#?}",
        audit.findings
    );
    for (i, expect) in versions.iter().enumerate() {
        let version = VersionId::new(i as u32 + 1);
        let tag = format!("hidestore V{}", i + 1);
        assert_recipe_is_reference(hds.recipes().get(version).unwrap(), expect, &tag);
        let mut out = Vec::new();
        hds.restore(version, &mut Faa::new(1 << 18), &mut out)
            .unwrap_or_else(|e| panic!("{tag}: restore failed: {e}"));
        assert_eq!(&out, expect, "{tag}: bytes differ");
    }
}
