//! The frozen workload matrix, the per-round measurements every driver
//! fills in, and the metric definitions computed from them.
//!
//! Metric names and units here are the ones `BENCHMARK.json` declares; the
//! smoke test fails if the two drift apart.

use std::collections::BTreeMap;
use std::time::Instant;

use hidestore_core::{HiDeStoreConfig, HiDeStoreVersionStats};
use hidestore_workloads::Profile;

use crate::speed::Speed;
use crate::trace::Tracer;
use crate::vfs::{MemVfs, VfsCounts};

/// Every workload, in report order.
pub const NAMES: [&str; 5] = [
    "bulk.kernel",
    "churn.fslhomes",
    "aged.macos",
    "served.gcc-2t",
    "tree.kernel",
];

/// End-to-end metrics `(name, unit)`, measured with tracing off.
pub const END_TO_END: &[(&str, &str)] = &[
    ("backup_mb_s", "MiB/s"),
    ("backup_op_ms_p50", "ms"),
    ("backup_op_ms_p90", "ms"),
    ("restore_mb_s", "MiB/s"),
    ("speed_factor", "MiB/read"),
    ("stored_per_logical", "bytes/byte"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
];

/// Per-layer metrics `(name, unit)`, measured by the traced run. A metric
/// of a layer the workload does not drive reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workloads.gen_s", "s"),
    ("chunking.busy_s", "s"),
    ("chunking.mb_s", "MiB/s"),
    ("chunking.chunks", "count"),
    ("hash.busy_s", "s"),
    ("hash.mb_s", "MiB/s"),
    ("core.ingest.busy_s", "s"),
    ("core.ingest.unattributed_s", "s"),
    ("core.ingest.lookups_per_gb", "1/GiB"),
    ("core.ingest.cold_chunks", "count"),
    ("core.ingest.containers_sealed", "count"),
    ("core.commit.busy_s", "s"),
    ("core.commit.fsyncs", "count"),
    ("core.commit.files_written", "count"),
    ("core.commit.bytes_written", "bytes"),
    ("core.commit.bytes_per_new_byte", "bytes/byte"),
    ("core.commit.ms_at_v.first", "ms"),
    ("core.commit.ms_at_v.mid", "ms"),
    ("core.commit.ms_at_v.last", "ms"),
    ("core.open.ms", "ms"),
    ("core.open.containers_verified", "count"),
    ("restore.plan.busy_s", "s"),
    ("restore.plan.entries", "count"),
    ("restore.engine.busy_s", "s"),
    ("restore.cache.hit_ratio", "ratio"),
    ("restore.prefetch_wasted", "count"),
    ("restore.speed_factor_newest", "MiB/read"),
    ("restore.speed_factor_oldest", "MiB/read"),
    ("storage.read.busy_s", "s"),
    ("storage.read.containers", "count"),
    ("storage.read.bytes", "bytes"),
    ("storage.write.containers", "count"),
    ("storage.write.bytes", "bytes"),
    ("server.overhead_s", "s"),
    ("server.wire_bytes_per_logical", "bytes/byte"),
    ("server.requests_failed", "count"),
    ("proto.frame.busy_s", "s"),
    ("tenant.open_s", "s"),
    ("tenant.live", "count"),
    ("tree.walk_s", "s"),
    ("tree.read_s", "s"),
    ("tree.entries", "count"),
    ("tree.skipped", "count"),
    ("tree.subtree_reads_ratio", "ratio"),
    ("trace.backup_mb_s", "MiB/s"),
    ("trace.restore_mb_s", "MiB/s"),
];

const MIB: f64 = 1024.0 * 1024.0;

/// Full scale is what `BENCHMARK.json` freezes; smoke is a seconds-long cut
/// of the same code paths for the test suite.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The frozen benchmark sizes.
    Full,
    /// Tiny sizes for `cargo test`.
    Smoke,
}

/// Which front end drives the program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Driver {
    /// `HiDeStore::backup` + `save_repository`, restore through FAA
    /// (32 MiB) or, with `lru_slots`, a `ContainerLru` of that many slots.
    Stream {
        /// `Some(n)`: restore through an n-container LRU instead of FAA.
        lru_slots: Option<usize>,
    },
    /// Loopback `serve()` with one closed-loop `RemoteClient` per tenant.
    Served {
        /// Number of tenants (= clients = connections).
        tenants: usize,
    },
    /// `backup_tree`/`restore_tree` over materialised version directories.
    Tree,
}

/// One frozen workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name as spelled in `BENCHMARK.json`.
    pub name: &'static str,
    /// Generator profile.
    pub profile: Profile,
    /// Bytes of version 1 (per tenant for `Served`).
    pub bytes: usize,
    /// Versions backed up per round (per tenant for `Served`).
    pub versions: u32,
    /// Restore passes over every version per round.
    pub passes: u32,
    /// Front end.
    pub driver: Driver,
}

/// Looks up a workload by name at `scale`.
pub fn workload(name: &str, scale: Scale) -> Option<Workload> {
    let full = scale == Scale::Full;
    // (bytes, versions, passes): sized so one round is 2–4 s of timed ops on
    // the 2-core sandbox, leaving room for several rounds in a 10 s run.
    let pick = |f: (usize, u32, u32), s: (usize, u32, u32)| if full { f } else { s };
    let (profile, (bytes, versions, passes), driver) = match name {
        "bulk.kernel" => (
            Profile::Kernel,
            pick((24 << 20, 5, 6), (1 << 20, 3, 2)),
            Driver::Stream { lru_slots: None },
        ),
        "churn.fslhomes" => (
            Profile::Fslhomes,
            pick((128 << 10, 400, 3), (64 << 10, 24, 1)),
            Driver::Stream { lru_slots: None },
        ),
        "aged.macos" => (
            Profile::Macos,
            pick((8 << 20, 10, 12), (1 << 20, 4, 2)),
            Driver::Stream { lru_slots: Some(4) },
        ),
        "served.gcc-2t" => (
            Profile::Gcc,
            pick((6 << 20, 8, 3), (256 << 10, 3, 1)),
            Driver::Served { tenants: 2 },
        ),
        "tree.kernel" => (
            Profile::Kernel,
            pick((16 << 20, 5, 2), (1 << 20, 3, 1)),
            Driver::Tree,
        ),
        _ => return None,
    };
    Some(Workload {
        name: NAMES.iter().copied().find(|n| *n == name)?,
        profile,
        bytes,
        versions,
        passes,
        driver,
    })
}

/// The frozen program configuration: repository defaults (scheme
/// `hidestore`, TTTD 8 KiB, 4 MiB containers, `threads=1`, serial restore).
pub fn config() -> HiDeStoreConfig {
    HiDeStoreConfig::default()
}

/// Boxed error of any layer; a hard error aborts the run (exit ≠ 0).
pub type Res<T> = Result<T, Box<dyn std::error::Error + Send + Sync>>;

/// Runs `f`, returning its result and wall seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let result = f();
    (result, start.elapsed().as_secs_f64())
}

/// Runs `f` as a leaf span, returning its result, its seconds, and the
/// filesystem traffic it caused.
pub fn metered<R>(
    tracer: &mut Tracer,
    vfs: &MemVfs,
    name: &'static str,
    parent: Option<usize>,
    op: u64,
    f: impl FnOnce() -> R,
) -> (R, f64, VfsCounts) {
    let before = vfs.counts();
    let (result, took_s) = tracer.leaf(name, parent, op, f);
    (result, took_s, vfs.counts().since(&before))
}

/// A 64-bit multiply-mix checksum over every byte (≈10× faster than the
/// program's CRC-32, so verifying each restore costs less than the restore).
pub fn checksum64(data: &[u8]) -> u64 {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut h = data.len() as u64 ^ K;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let w = u64::from_le_bytes(w.try_into().expect("chunks_exact(8) yields 8 bytes"));
        h = (h ^ w).wrapping_mul(K).rotate_left(29);
    }
    for &b in words.remainder() {
        h = (h ^ u64::from(b)).wrapping_mul(K).rotate_left(29);
    }
    h ^ (h >> 32)
}

/// Named accumulators of one round's layer measurements. Keys starting
/// with `_` are raw inputs to derived metrics, never reported themselves.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    /// Adds `v` to accumulator `key`.
    pub fn add(&mut self, key: &'static str, v: f64) {
        *self.0.entry(key).or_default() += v;
    }

    /// Overwrites accumulator `key`.
    pub fn set(&mut self, key: &'static str, v: f64) {
        self.0.insert(key, v);
    }

    /// Accumulator `key`, 0 if never touched.
    pub fn get(&self, key: &str) -> f64 {
        self.0.get(key).copied().unwrap_or(0.0)
    }

    /// What the real ingest call (`backup` or `backup_tree`) spent beyond
    /// the layers replayed on the same input — container file writes, the
    /// tree manifest, cache effects. Negative when the replays ran slower
    /// than the same work inside the call.
    pub fn unattributed_ingest_s(&self) -> f64 {
        let replayed = [
            "chunking.busy_s",
            "hash.busy_s",
            "core.ingest.busy_s",
            "tree.walk_s",
            "tree.read_s",
        ];
        self.get("_core.backup_s") - replayed.iter().map(|layer| self.get(layer)).sum::<f64>()
    }

    /// Folds another set of accumulators into this one.
    pub fn absorb(&mut self, other: &Layers) {
        for (key, v) in &other.0 {
            self.add(key, *v);
        }
    }
}

/// Everything one round of one workload measured.
#[derive(Debug, Clone, Default)]
pub struct Round {
    /// Closed-loop clients running concurrently (1 for local workloads).
    pub clients: u32,
    /// Seconds of each backup op (ingest + durable commit), at nominal CPU
    /// speed (see [`crate::speed`]).
    pub backup_ops_s: Vec<f64>,
    /// Logical bytes ingested.
    pub backup_bytes: u64,
    /// Seconds of each restore op, at nominal CPU speed.
    pub restore_ops_s: Vec<f64>,
    /// Bytes restored.
    pub restore_bytes: u64,
    /// Bytes and container reads of the first restore pass.
    pub first_pass: (u64, u64),
    /// Bytes under the repository directory after the last commit.
    pub stored_bytes: u64,
    /// Everything of the round not inside a timed op: input generation,
    /// materialisation, repository init and reopen, daemon start and stop,
    /// verification, scrub. Filled in by [`crate::run`].
    pub setup_s: f64,
    /// Wall seconds the ops took — what the run-length budget is spent on
    /// (less than Σ op seconds when clients run concurrently).
    pub op_wall_s: f64,
    /// Ops attempted: backups, restores (each byte-verified), scrubs.
    pub attempted: u64,
    /// Ops that restored wrong bytes or scrubbed dirty.
    pub failed: u64,
    /// Commit milliseconds per version, in version order.
    pub commit_ms: Vec<f64>,
    /// Chunking milliseconds per MiB of each version (traced runs).
    pub chunk_ms_per_mb: Vec<f64>,
    /// Layer accumulators (raw seconds: shares within one run need no
    /// calibration).
    pub layers: Layers,
    /// CPU-speed calibration of this round's op timings.
    pub speed: Speed,
    next_op: u64,
}

impl Round {
    /// An empty round with `clients` concurrent closed-loop clients.
    pub fn new(clients: u32) -> Self {
        Round {
            clients,
            ..Round::default()
        }
    }

    /// A fresh operation id.
    pub fn next_op(&mut self) -> u64 {
        self.next_op += 1;
        self.next_op
    }

    /// Records one backup op of `bytes` that took `secs`.
    pub fn backup_op(&mut self, bytes: u64, secs: f64) {
        self.backup_ops_s.push(secs * self.speed.factor());
        self.backup_bytes += bytes;
        self.op_wall_s += secs;
        self.attempted += 1;
    }

    /// Records what one local ingest + commit reported and wrote.
    pub fn committed(
        &mut self,
        stats: &HiDeStoreVersionStats,
        ingest_s: f64,
        commit_s: f64,
        commit_io: &VfsCounts,
    ) {
        self.commit_ms.push(commit_s * 1e3);
        let l = &mut self.layers;
        l.add("_core.backup_s", ingest_s);
        l.add("_lookups", stats.lookup_requests as f64);
        l.add("_new_bytes", stats.stored_bytes as f64);
        l.add("core.ingest.cold_chunks", stats.cold_chunks as f64);
        l.add(
            "core.ingest.containers_sealed",
            stats.archival_containers_sealed as f64,
        );
        l.add("core.commit.busy_s", commit_s);
        l.add("core.commit.fsyncs", commit_io.fsyncs as f64);
        l.add("core.commit.files_written", commit_io.files_written as f64);
        l.add("core.commit.bytes_written", commit_io.bytes_written as f64);
    }

    /// Records one restore op of `bytes`, byte-verified as `ok`.
    pub fn restore_op(&mut self, bytes: u64, secs: f64, ok: bool) {
        self.restore_ops_s.push(secs * self.speed.factor());
        self.restore_bytes += bytes;
        self.op_wall_s += secs;
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Records the end-of-round scrub.
    pub fn scrubbed(&mut self, clean: bool) {
        self.attempted += 1;
        self.failed += u64::from(!clean);
    }

    /// The counts that must repeat exactly for one seed.
    pub fn exact(&self) -> (u64, u64, (u64, u64), u64, u64) {
        (
            self.backup_bytes,
            self.restore_bytes,
            self.first_pass,
            self.stored_bytes,
            self.attempted,
        )
    }
}

/// `p`-quantile (0..=1) of `values` by nearest rank.
pub fn quantile(values: &[f64], p: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((sorted.len() as f64 * p).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Peak resident set of this process (`VmHWM`), MiB; 0 where unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Aggregate MiB/s of the closed-loop clients: each is busy for its share
/// of the summed op time.
fn throughput(bytes: u64, ops_s: &[f64], round: &Round) -> f64 {
    bytes as f64 / MIB / (ops_s.iter().sum::<f64>() / f64::from(round.clients))
}

/// The end-to-end metrics `(name, value, unit)` of a run, pooled over its
/// rounds.
pub fn end_to_end(rounds: &[Round]) -> Vec<(&'static str, f64, &'static str)> {
    let first = &rounds[0];
    let pooled = |f: fn(&Round) -> &Vec<f64>| -> Vec<f64> {
        rounds.iter().flat_map(|r| f(r).iter().copied()).collect()
    };
    let backup_ops = pooled(|r| &r.backup_ops_s);
    let restore_ops = pooled(|r| &r.restore_ops_s);
    let mb_s = |bytes: u64, ops: &[f64]| throughput(bytes, ops, first);
    let setups: Vec<f64> = rounds.iter().map(|r| r.setup_s).collect();
    let values = [
        mb_s(rounds.iter().map(|r| r.backup_bytes).sum(), &backup_ops),
        quantile(&backup_ops, 0.5) * 1e3,
        quantile(&backup_ops, 0.9) * 1e3,
        mb_s(rounds.iter().map(|r| r.restore_bytes).sum(), &restore_ops),
        first.first_pass.0 as f64 / MIB / first.first_pass.1 as f64,
        first.stored_bytes as f64 / first.backup_bytes as f64,
        peak_rss_mb(),
        quantile(&setups, 0.5),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| (name, value, unit))
        .collect()
}

/// The per-layer metrics `(name, value, unit)` of one (traced) round.
pub fn per_layer(round: &Round) -> Vec<(&'static str, f64, &'static str)> {
    let l = &round.layers;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let at = |series: &[f64], i: usize| series.get(i).copied().unwrap_or(0.0);
    let n = round.commit_ms.len();
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = match name {
                "chunking.mb_s" => ratio(l.get("_replayed_bytes") / MIB, l.get("chunking.busy_s")),
                "hash.mb_s" => ratio(l.get("_replayed_bytes") / MIB, l.get("hash.busy_s")),
                "core.ingest.unattributed_s" => l.unattributed_ingest_s(),
                "core.ingest.lookups_per_gb" => ratio(
                    l.get("_lookups"),
                    round.backup_bytes as f64 / (1024.0 * MIB),
                ),
                "core.commit.bytes_per_new_byte" => {
                    ratio(l.get("core.commit.bytes_written"), l.get("_new_bytes"))
                }
                "core.commit.ms_at_v.first" => at(&round.commit_ms, 0),
                "core.commit.ms_at_v.mid" => at(&round.commit_ms, n / 2),
                "core.commit.ms_at_v.last" => at(&round.commit_ms, n.saturating_sub(1)),
                // Assemble self time: the real restore minus the container
                // reads replayed on the same plan.
                "restore.engine.busy_s" => {
                    l.get("_restore.entries_s") - l.get("storage.read.busy_s")
                }
                "restore.cache.hit_ratio" => ratio(
                    l.get("_cache_hits"),
                    l.get("_cache_hits") + l.get("_cache_misses"),
                ),
                "server.overhead_s" => l.get("_remote_s") - l.get("_local_s"),
                "server.wire_bytes_per_logical" => ratio(
                    l.get("_wire_bytes"),
                    (round.backup_bytes + round.restore_bytes) as f64,
                ),
                "tree.subtree_reads_ratio" => ratio(l.get("_subtree_reads"), l.get("_full_reads")),
                // The traced round's own op rates: against the untraced
                // run's they give the tracing overhead.
                "trace.backup_mb_s" => throughput(round.backup_bytes, &round.backup_ops_s, round),
                "trace.restore_mb_s" => {
                    throughput(round.restore_bytes, &round.restore_ops_s, round)
                }
                other => l.get(other),
            };
            (name, value, unit)
        })
        .collect()
}
