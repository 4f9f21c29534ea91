//! Criterion micro-benchmarks for the substrate components: chunking
//! throughput, fingerprinting throughput, fingerprint-cache operations,
//! container compaction, and restore assembly.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use hidestore_chunking::{chunk_spans, ChunkerKind};
use hidestore_core::{ActivePool, CacheEntry, FingerprintCache};
use hidestore_hash::{fingerprints_parallel, Fingerprint, Sha1};
use hidestore_restore::{Faa, RestoreCache, RestoreEntry};
use hidestore_storage::{Container, ContainerId, ContainerStore, MemoryContainerStore};

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

fn bench_chunking(c: &mut Criterion) {
    let data = noise(8 << 20, 1);
    let mut group = c.benchmark_group("chunking");
    group.throughput(Throughput::Bytes(data.len() as u64));
    group.sample_size(10);
    for kind in ChunkerKind::ALL {
        group.bench_with_input(BenchmarkId::from_parameter(kind), &data, |b, data| {
            let mut chunker = kind.build(4096);
            b.iter(|| black_box(chunk_spans(chunker.as_mut(), data).len()));
        });
    }
    group.finish();
}

fn bench_hashing(c: &mut Criterion) {
    let data = noise(4 << 20, 2);
    let mut group = c.benchmark_group("hashing");
    group.throughput(Throughput::Bytes(data.len() as u64));
    group.sample_size(10);
    group.bench_function("sha1", |b| b.iter(|| black_box(Sha1::hash(&data))));
    group.finish();
}

fn bench_parallel_fingerprinting(c: &mut Criterion) {
    let data = noise(16 << 20, 5);
    let spans: Vec<std::ops::Range<usize>> = (0..data.len())
        .step_by(4096)
        .map(|i| i..(i + 4096).min(data.len()))
        .collect();
    let mut group = c.benchmark_group("fingerprinting");
    group.throughput(Throughput::Bytes(data.len() as u64));
    group.sample_size(10);
    for threads in [1usize, 4, 8] {
        group.bench_with_input(BenchmarkId::from_parameter(threads), &threads, |b, &t| {
            b.iter(|| black_box(fingerprints_parallel(&data, &spans, t).len()));
        });
    }
    group.finish();
}

fn bench_fingerprint_cache(c: &mut Criterion) {
    let mut group = c.benchmark_group("fingerprint-cache");
    group.bench_function("classify-insert-advance-10k", |b| {
        b.iter(|| {
            let mut cache = FingerprintCache::new(1);
            for i in 0..10_000u64 {
                let fp = Fingerprint::synthetic(i);
                cache.classify(fp);
                cache.insert_current(
                    fp,
                    CacheEntry {
                        size: 4096,
                        active_cid: 1,
                    },
                );
            }
            black_box(cache.advance_version().len())
        });
    });
    group.finish();
}

fn bench_pool_compaction(c: &mut Criterion) {
    c.bench_function("active-pool/compact-sparse", |b| {
        b.iter(|| {
            let mut pool = ActivePool::new(64 << 10);
            for i in 0..2000u64 {
                pool.add(Fingerprint::synthetic(i), &noise(1024, i));
            }
            for i in (0..2000u64).step_by(2) {
                pool.remove(&Fingerprint::synthetic(i));
            }
            let (report, _) = pool.compact(0.6);
            black_box(report.chunks_moved)
        });
    });
}

fn bench_faa_restore(c: &mut Criterion) {
    // Build a store of 32 containers x 64 chunks.
    let mut store = MemoryContainerStore::new();
    let mut plan = Vec::new();
    for cid in 1..=32u32 {
        let mut container = Container::new(ContainerId::new(cid), 64 * 1100);
        for i in 0..64u64 {
            let data = noise(1024, cid as u64 * 1000 + i);
            let fp = Fingerprint::of(&data);
            container.try_add(fp, &data);
            plan.push(RestoreEntry::new(fp, 1024, ContainerId::new(cid)));
        }
        store.write(container).unwrap();
    }
    let mut group = c.benchmark_group("restore");
    group.throughput(Throughput::Bytes((plan.len() * 1024) as u64));
    group.bench_function("faa-sequential", |b| {
        b.iter(|| {
            let mut cache = Faa::new(1 << 20);
            let report = cache.restore(&plan, &store, &mut std::io::sink()).unwrap();
            black_box(report.container_reads)
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_chunking,
    bench_hashing,
    bench_parallel_fingerprinting,
    bench_fingerprint_cache,
    bench_pool_compaction,
    bench_faa_restore
);
criterion_main!(benches);
