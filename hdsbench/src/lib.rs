#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! `hdsbench`: one seeded, layer-attributed benchmark of the HiDeStore
//! stack — backup, commit, restore, daemon and tree — described by
//! `BENCHMARK.json` at the repository root. See `README.md` beside this
//! crate for the metric, workload and layer tables.
//!
//! The harness generates every input from the seed, calls only the
//! program's public API, verifies every restored byte, and records spans
//! around its own calls into each layer (there is no tracing inside the
//! program).

pub mod agree;
pub mod json;
pub mod served;
pub mod speed;
pub mod stream;
pub mod trace;
pub mod tree;
pub mod vfs;
pub mod workload;

use std::path::{Path, PathBuf};

use trace::Tracer;
use workload::{Driver, Res, Round, Scale, Workload};

/// The benchmark description the harness is built against.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// A scratch directory removed when dropped.
#[derive(Debug)]
pub struct WorkDir(PathBuf);

impl WorkDir {
    /// Creates `<parent>/hdsbench-<pid>` (emptying any leftover).
    ///
    /// # Errors
    ///
    /// Any I/O error creating the directory.
    pub fn create(parent: &Path) -> std::io::Result<Self> {
        let dir = parent.join(format!("hdsbench-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }

    fn reset(&self) -> std::io::Result<()> {
        std::fs::remove_dir_all(&self.0)?;
        std::fs::create_dir_all(&self.0)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // The parent goes too once no other run is using it.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// One layer-separation self-check of a traced run.
#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    /// What must hold, with the measured values.
    pub what: String,
    /// Whether it held.
    pub ok: bool,
}

/// What one run of one workload produced.
#[derive(Debug)]
pub struct Outcome {
    /// The workload that ran.
    pub workload: Workload,
    /// Rounds measured.
    pub rounds: Vec<Round>,
    /// Ops attempted over all rounds (plus one determinism check).
    pub attempted: u64,
    /// Ops that failed verification.
    pub failed: u64,
    /// `(name, value, unit)`: the end-to-end metrics of an untraced run, the
    /// per-layer metrics of a traced one.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// The spans of a traced run.
    pub tracer: Tracer,
}

/// Runs workload `name` for about `seconds` of timed ops: whole rounds of
/// the frozen sizes, each on a fresh repository under `work_parent`, as many
/// as fit (at least one). A traced run measures one round.
///
/// # Errors
///
/// An unknown workload, or any hard error of the program or filesystem.
pub fn run(
    name: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    scale: Scale,
    work_parent: &Path,
) -> Res<Outcome> {
    let w = workload::workload(name, scale).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let work = WorkDir::create(work_parent)?;
    let mut tracer = Tracer::new(traced);
    let mut rounds: Vec<Round> = Vec::new();
    loop {
        let started = std::time::Instant::now();
        work.reset()?;
        let mut round = match w.driver {
            Driver::Stream { lru_slots } => {
                stream::round(&w, lru_slots, seed, work.path(), &mut tracer)?
            }
            Driver::Served { tenants } => {
                served::round(&w, tenants, seed, work.path(), &mut tracer)?
            }
            Driver::Tree => tree::round(&w, seed, work.path(), &mut tracer)?,
        };
        round.setup_s =
            (started.elapsed().as_secs_f64() - round.op_wall_s) * round.speed.mean_factor();
        rounds.push(round);
        let spent: f64 = rounds.iter().map(|r| r.op_wall_s).sum();
        // Stop once another round would overshoot by more than half of itself.
        if traced || spent + spent / rounds.len() as f64 / 2.0 > seconds {
            break;
        }
    }

    // Every round ran the same inputs, so its counts must repeat exactly.
    let repeatable = rounds.windows(2).all(|p| p[0].exact() == p[1].exact());
    let attempted = rounds.iter().map(|r| r.attempted).sum::<u64>() + 1;
    let failed = rounds.iter().map(|r| r.failed).sum::<u64>() + u64::from(!repeatable);
    let metrics = if traced {
        workload::per_layer(&rounds[0])
    } else {
        workload::end_to_end(&rounds)
    };
    Ok(Outcome {
        workload: w,
        rounds,
        attempted,
        failed,
        metrics,
        tracer,
    })
}

/// The layer-separation self-checks of a traced round: each workload must
/// put its time where its *why* says, or a change to that layer could not
/// show on it.
pub fn self_check(w: &Workload, round: &Round) -> Vec<Check> {
    let l = &round.layers;
    // Raw seconds on both sides of every share: the layer times are raw.
    let backup_s = l.get("_core.backup_s") + l.get("core.commit.busy_s");
    let restore_s = l.get("restore.plan.busy_s") + l.get("_restore.entries_s");
    let share = |part: f64, whole: f64| if whole > 0.0 { part / whole } else { 0.0 };
    let mut checks = Vec::new();
    let mut check = |what: String, ok: bool| checks.push(Check { what, ok });

    if !matches!(w.driver, Driver::Served { .. }) {
        let unattributed = l.unattributed_ingest_s();
        let s = share(unattributed.abs(), l.get("_core.backup_s"));
        check(
            format!(
                "core.ingest.unattributed_s is {:.1} % of the ingest call (≤ 15 %)",
                s * 100.0
            ),
            s <= 0.15,
        );
    }
    match w.name {
        "bulk.kernel" => {
            let s = share(l.get("chunking.busy_s") + l.get("hash.busy_s"), backup_s);
            check(
                format!(
                    "chunking+hash is {:.1} % of backup-op time (≥ 60 %)",
                    s * 100.0
                ),
                s >= 0.60,
            );
        }
        "churn.fslhomes" => {
            let s = share(l.get("core.commit.busy_s"), backup_s);
            check(
                format!(
                    "core.commit is {:.1} % of backup-op time (≥ 30 %)",
                    s * 100.0
                ),
                s >= 0.30,
            );
            // Deciles, not single commits: one slow commit must not decide.
            let decile = (round.commit_ms.len() / 10).max(1);
            let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
            let first = mean(&round.commit_ms[..decile]);
            let last = mean(&round.commit_ms[round.commit_ms.len() - decile..]);
            check(
                format!(
                    "commit latency grows {:.1}× from first to last decile (≥ 5×)",
                    last / first
                ),
                last >= 5.0 * first,
            );
            let per_mb = &round.chunk_ms_per_mb;
            let first = mean(&per_mb[..decile]);
            let last = mean(&per_mb[per_mb.len() - decile..]);
            check(
                format!(
                    "chunking per MiB changes {:.2}× from first to last decile (within 2×)",
                    last / first
                ),
                last <= 2.0 * first && first <= 2.0 * last,
            );
        }
        "aged.macos" => {
            let s = share(restore_s, backup_s + restore_s);
            check(
                format!("restore ops are {:.1} % of timed work (≥ 50 %)", s * 100.0),
                s >= 0.50,
            );
        }
        "served.gcc-2t" => {
            let s = share(l.get("_remote_s") - l.get("_local_s"), l.get("_remote_s"));
            check(
                format!(
                    "server.overhead_s is {:.1} % of remote op time (≥ 30 %)",
                    s * 100.0
                ),
                s >= 0.30,
            );
        }
        _ => {}
    }
    checks
}
