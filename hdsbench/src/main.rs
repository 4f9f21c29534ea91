//! `hdsbench` command line.
//!
//! * `hdsbench --workload W --seed N --seconds S --trace 0|1` — one run of
//!   one workload; the last line of standard output is the result object
//!   `BENCHMARK.json`'s contract asks for.
//! * `hdsbench run --seed N --out DIR [--workload W] [--runs K] [--trace]
//!   [--commit C]` — every workload, each untraced run in its own child
//!   process (clean `VmHWM`), written to `DIR/hdsbench.json`.
//! * `hdsbench agree A.json B.json` — compares two such files against the
//!   bounds in `BENCHMARK.json`.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use hdsbench::json::Json;
use hdsbench::workload::{self, Res, Scale, NAMES};
use hdsbench::{Outcome, BENCHMARK_JSON};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => run_all(&args[1..]),
        Some("agree") => agree(&args[1..]),
        _ => run_one(&args),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("hdsbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// The value following `--flag`, if present.
fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    let at = args.iter().position(|a| a == name)?;
    args.get(at + 1).map(String::as_str)
}

fn required<'a>(args: &'a [String], name: &str) -> Res<&'a str> {
    flag(args, name).ok_or_else(|| format!("missing {name} <value>").into())
}

/// Scratch space lives under the current directory: the harness writes
/// nowhere else, wherever it is launched from.
fn work_parent() -> Res<PathBuf> {
    Ok(std::env::current_dir()?.join(".hdsbench-work"))
}

fn benchmark() -> Res<Json> {
    Ok(Json::parse(BENCHMARK_JSON)?)
}

fn print_metrics(outcome: &Outcome) {
    for (name, value, unit) in &outcome.metrics {
        println!("{name:<34} {value:>16.4} {unit}");
    }
}

/// Per-layer table of a traced run: busy time, self time, span count, and
/// busy time as a share of the ops' own time.
fn print_layers(outcome: &Outcome) {
    let layers = outcome.tracer.layers();
    let ops: f64 = layers
        .iter()
        .filter(|(name, _)| name.starts_with("op."))
        .map(|(_, t)| t.busy_s)
        .sum();
    println!(
        "{:<18} {:>10} {:>10} {:>8} {:>8}",
        "layer", "busy_s", "self_s", "spans", "of_ops"
    );
    for (name, t) in &layers {
        println!(
            "{name:<18} {:>10.4} {:>10.4} {:>8} {:>7.1}%",
            t.busy_s,
            t.self_s,
            t.count,
            100.0 * t.busy_s / ops
        );
    }
}

/// Prints the self-checks, returning whether all hold.
fn print_checks(outcome: &Outcome) -> bool {
    let checks = hdsbench::self_check(&outcome.workload, &outcome.rounds[0]);
    for check in &checks {
        println!(
            "self-check {}: {}",
            if check.ok { "ok" } else { "FAILED" },
            check.what
        );
    }
    checks.iter().all(|c| c.ok)
}

fn result_line(outcome: &Outcome) -> String {
    Json::obj([
        ("correct", Json::Bool(outcome.failed == 0)),
        ("attempted", Json::Num(outcome.attempted as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        (
            "metrics",
            Json::obj(outcome.metrics.iter().map(|(name, value, unit)| {
                (
                    *name,
                    Json::obj([("value", Json::Num(*value)), ("unit", Json::str(*unit))]),
                )
            })),
        ),
    ])
    .to_line()
}

/// The contract's entry point: one workload, one run.
fn run_one(args: &[String]) -> Res<ExitCode> {
    let name = required(args, "--workload")?;
    let seed: u64 = required(args, "--seed")?.parse()?;
    let seconds: f64 = required(args, "--seconds")?.parse()?;
    let traced = match required(args, "--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not {other:?}").into()),
    };
    let outcome = hdsbench::run(name, seed, seconds, traced, Scale::Full, &work_parent()?)?;
    println!(
        "# {name} seed={seed} rounds={} timed_s={:.2} cpu_factor={:.3} attempted={} failed={}",
        outcome.rounds.len(),
        outcome.rounds.iter().map(|r| r.op_wall_s).sum::<f64>(),
        outcome
            .rounds
            .iter()
            .map(|r| r.speed.mean_factor())
            .sum::<f64>()
            / outcome.rounds.len() as f64,
        outcome.attempted,
        outcome.failed
    );
    print_metrics(&outcome);
    if traced {
        print_layers(&outcome);
        print_checks(&outcome);
    }
    println!("{}", result_line(&outcome));
    Ok(ExitCode::SUCCESS)
}

/// First line of a command's standard output, or `unknown`.
fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|text| text.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// Filesystem type of the mount holding `dir`, from `/proc/mounts`.
fn filesystem_of(dir: &Path) -> String {
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let (_, mount, fs) = (fields.next()?, fields.next()?, fields.next()?);
            dir.starts_with(mount).then_some((mount.len(), fs))
        })
        .max()
        .map_or_else(|| "unknown".into(), |(_, fs)| fs.to_string())
}

/// Today's UTC date as `YYYY-MM-DD` (civil-from-days, proleptic Gregorian).
fn today() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let z = (secs / 86_400) as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = yoe + era * 400 + i64::from(month <= 2);
    format!("{year:04}-{month:02}-{day:02}")
}

fn provenance(args: &[String], seed: u64, seconds: f64, runs: usize) -> Res<Json> {
    let sizes = NAMES.iter().filter_map(|name| {
        let w = workload::workload(name, Scale::Full)?;
        Some((
            *name,
            Json::obj([
                ("profile", Json::str(w.profile.spec().name)),
                ("bytes", Json::Num(w.bytes as f64)),
                ("versions", Json::Num(f64::from(w.versions))),
                ("passes", Json::Num(f64::from(w.passes))),
            ]),
        ))
    });
    let commit = flag(args, "--commit").map_or_else(
        || first_line_of("git", &["rev-parse", "HEAD"]),
        str::to_string,
    );
    Ok(Json::obj([
        ("seed", Json::Num(seed as f64)),
        ("commit", Json::Str(commit)),
        ("rustc", Json::Str(first_line_of("rustc", &["--version"]))),
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(1, usize::from) as f64),
        ),
        (
            "work_fs",
            Json::Str(filesystem_of(&std::env::current_dir()?)),
        ),
        ("date", Json::Str(today())),
        ("run_seconds", Json::Num(seconds)),
        ("runs", Json::Num(runs as f64)),
        ("sizes", Json::obj(sizes)),
    ]))
}

/// The result object on the last line of a child's standard output.
fn child_result(name: &str, seed: u64, seconds: f64) -> Res<Json> {
    let output = Command::new(std::env::current_exe()?)
        .args(["--workload", name, "--trace", "0"])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .stderr(std::process::Stdio::inherit())
        .output()?;
    if !output.status.success() {
        return Err(format!("run of {name} exited with {}", output.status).into());
    }
    let text = String::from_utf8(output.stdout)?;
    let last = text.lines().last().ok_or("run printed nothing")?;
    Ok(Json::parse(last)?)
}

/// Every workload (or one), `--runs` untraced child runs each, plus an
/// in-process traced run with `--trace`; writes `<out>/hdsbench.json`.
fn run_all(args: &[String]) -> Res<ExitCode> {
    let seed: u64 = required(args, "--seed")?.parse()?;
    let out = PathBuf::from(required(args, "--out")?);
    let runs: usize = flag(args, "--runs").map_or(Ok(1), str::parse)?;
    let traced = args.iter().any(|a| a == "--trace");
    let seconds = benchmark()?
        .get("run_seconds")
        .and_then(Json::as_f64)
        .ok_or("BENCHMARK.json has no run_seconds")?;
    let names: Vec<&str> = match flag(args, "--workload") {
        Some(one) => vec![one],
        None => NAMES.to_vec(),
    };
    std::fs::create_dir_all(&out)?;

    let mut all_ok = true;
    let mut workloads = Vec::new();
    for name in names {
        let mut attempted = 0.0;
        let mut failed = 0.0;
        let mut values: Vec<(String, String, Vec<Json>)> = Vec::new();
        for _ in 0..runs.max(1) {
            let result = child_result(name, seed, seconds)?;
            attempted += result
                .get("attempted")
                .and_then(Json::as_f64)
                .unwrap_or(0.0);
            failed += result.get("failed").and_then(Json::as_f64).unwrap_or(1.0);
            for (i, (metric, entry)) in result
                .get("metrics")
                .map_or(&[][..], Json::members)
                .iter()
                .enumerate()
            {
                if values.len() <= i {
                    let unit = entry.get("unit").and_then(Json::as_str).unwrap_or("");
                    values.push((metric.clone(), unit.to_string(), Vec::new()));
                }
                values[i]
                    .2
                    .push(entry.get("value").cloned().unwrap_or(Json::Null));
            }
        }
        println!("# {name}: attempted={attempted} failed={failed}");
        let median_of = |metric: &str| -> f64 {
            let found = values.iter().find(|(m, _, _)| m == metric);
            let numbers: Vec<f64> = found
                .map(|(_, _, v)| v.iter().filter_map(Json::as_f64).collect())
                .unwrap_or_default();
            workload::quantile(&numbers, 0.5)
        };
        for (metric, unit, _) in &values {
            println!("{metric:<34} {:>16.4} {unit}", median_of(metric));
        }
        all_ok &= failed == 0.0;
        let mut entry = vec![
            ("attempted".to_string(), Json::Num(attempted)),
            ("failed".to_string(), Json::Num(failed)),
            (
                "end_to_end".to_string(),
                Json::obj(values.iter().map(|(metric, unit, v)| {
                    (
                        metric.clone(),
                        Json::obj([
                            ("unit", Json::str(unit.clone())),
                            ("values", Json::Arr(v.clone())),
                        ]),
                    )
                })),
            ),
        ];
        if traced {
            let outcome = hdsbench::run(name, seed, seconds, true, Scale::Full, &work_parent()?)?;
            outcome
                .tracer
                .write_jsonl(&out.join(format!("trace-{name}.jsonl")))?;
            print_metrics(&outcome);
            print_layers(&outcome);
            all_ok &= print_checks(&outcome) && outcome.failed == 0;
            let traced_rate = |metric: &str| {
                let found = outcome.metrics.iter().find(|(m, _, _)| *m == metric);
                found.map_or(0.0, |(_, v, _)| *v)
            };
            // Tracing overhead: how much slower the traced run's own ops
            // were than the untraced median.
            let overhead = |e2e: &str, layer: &str| {
                100.0 * (median_of(e2e) - traced_rate(layer)) / median_of(e2e)
            };
            let overhead = [
                ("backup_mb_s", overhead("backup_mb_s", "trace.backup_mb_s")),
                (
                    "restore_mb_s",
                    overhead("restore_mb_s", "trace.restore_mb_s"),
                ),
            ];
            for (metric, pct) in overhead {
                println!("trace_overhead_pct {metric}: {pct:.2} %");
            }
            entry.push((
                "per_layer".to_string(),
                Json::obj(outcome.metrics.iter().map(|(metric, value, unit)| {
                    (
                        *metric,
                        Json::obj([("unit", Json::str(*unit)), ("value", Json::Num(*value))]),
                    )
                })),
            ));
            entry.push((
                "trace_overhead_pct".to_string(),
                Json::obj(overhead.map(|(metric, pct)| (metric, Json::Num(pct)))),
            ));
        }
        workloads.push((name.to_string(), Json::Obj(entry)));
    }

    let doc = Json::obj([
        ("provenance", provenance(args, seed, seconds, runs)?),
        ("workloads", Json::Obj(workloads)),
    ]);
    let path = out.join("hdsbench.json");
    std::fs::write(&path, doc.to_pretty())?;
    println!("wrote {}", path.display());
    Ok(if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

/// `hdsbench agree A.json B.json`: prints one row per workload × metric and
/// exits 1 on any miss.
fn agree(args: &[String]) -> Res<ExitCode> {
    let [a, b] = args else {
        return Err("usage: hdsbench agree <a.json> <b.json>".into());
    };
    let load = |path: &String| -> Res<Json> { Ok(Json::parse(&std::fs::read_to_string(path)?)?) };
    let verdict = hdsbench::agree::compare(&load(a)?, &load(b)?, &benchmark()?);
    print!("{}", verdict.table);
    println!(
        "{} miss(es), {} unresolved",
        verdict.misses, verdict.unresolved
    );
    Ok(if verdict.misses == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}
