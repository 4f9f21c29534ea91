//! `hdsbench agree`: compares two `hdsbench.json` result sets metric by
//! metric against the bounds `BENCHMARK.json` declares.

use std::fmt::Write as _;

use crate::json::Json;

/// End-to-end metrics that are counts: two sets of one seed must agree to
/// the last digit, whatever their bound says.
const EXACT: [&str; 2] = ["speed_factor", "stored_per_logical"];

/// The outcome of [`compare`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Verdict {
    /// One row per workload × end-to-end metric, plus one per differing
    /// per-layer count.
    pub table: String,
    /// Exact metrics or counts that differ, bounded metrics worse in B than
    /// their bound allows, metrics missing from a side.
    pub misses: usize,
    /// Bounded metrics whose own spread exceeds their bound: neither a
    /// regression nor "unchanged".
    pub unresolved: usize,
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them.
/// `values` must not be empty; a single value is all three quartiles.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut x = values.to_vec();
    x.sort_by(f64::total_cmp);
    let n = x.len();
    if n < 2 {
        return [x[0]; 3];
    }
    [1, 2, 3].map(|i| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (x[j - 1] * (4.0 - delta) + x[j] * delta) / 4.0
    })
}

fn end_to_end_values(workload: &Json, metric: &str) -> Vec<f64> {
    workload
        .get("end_to_end")
        .and_then(|m| m.get(metric))
        .and_then(|m| m.get("values"))
        .map_or(&[][..], Json::items)
        .iter()
        .filter_map(Json::as_f64)
        .collect()
}

/// Compares result set `b` against baseline `a` under `bench`
/// (`BENCHMARK.json`): medians of the end-to-end metrics against their
/// bounds (only the worse direction is a miss), exact equality for
/// [`EXACT`] metrics and for every per-layer count.
pub fn compare(a: &Json, b: &Json, bench: &Json) -> Verdict {
    let declared = bench.get("end_to_end").map_or(&[][..], Json::items);
    let mut verdict = Verdict {
        table: format!(
            "{:<16} {:<30} {:>14} {:>14} {:>8} {:>6}  verdict\n",
            "workload", "metric", "a", "b", "delta", "bound"
        ),
        misses: 0,
        unresolved: 0,
    };
    let empty = Json::Obj(Vec::new());
    for (name, wa) in a.get("workloads").map_or(&[][..], Json::members) {
        let wb = b
            .get("workloads")
            .and_then(|w| w.get(name))
            .unwrap_or(&empty);
        for spec in declared {
            let metric = spec.get("name").and_then(Json::as_str).unwrap_or("");
            let bound = spec.get("bound").and_then(Json::as_f64).unwrap_or(0.0);
            let higher = spec.get("better").and_then(Json::as_str) == Some("higher");
            let (va, vb) = (end_to_end_values(wa, metric), end_to_end_values(wb, metric));
            if va.is_empty() || vb.is_empty() {
                verdict.misses += 1;
                let _ = writeln!(verdict.table, "{name:<16} {metric:<30} MISSING from a side");
                continue;
            }
            let ([a1, a2, a3], [b1, b2, b3]) = (quartiles(&va), quartiles(&vb));
            let spread = ((a3 - a1) / a2).max((b3 - b1) / b2);
            // Positive delta: B is worse.
            let delta = if higher {
                (a2 - b2) / a2
            } else {
                (b2 - a2) / a2
            };
            let word = if EXACT.contains(&metric) {
                if va.iter().chain(&vb).all(|v| *v == va[0]) {
                    "identical"
                } else {
                    verdict.misses += 1;
                    "DIFFERS"
                }
            } else if spread > bound {
                verdict.unresolved += 1;
                "unresolved"
            } else if delta > bound {
                verdict.misses += 1;
                "WORSE"
            } else if delta < -bound {
                "better"
            } else {
                "within"
            };
            let _ = writeln!(
                verdict.table,
                "{name:<16} {metric:<30} {a2:>14.4} {b2:>14.4} {:>7.1}% {:>5.0}%  {word}",
                delta * 100.0,
                bound * 100.0
            );
        }
        // Per-layer counts repeat exactly for one seed.
        for (metric, ea) in wa.get("per_layer").map_or(&[][..], Json::members) {
            let unit = ea.get("unit").and_then(Json::as_str).unwrap_or("");
            if !matches!(unit, "count" | "bytes") {
                continue;
            }
            let value = |e: Option<&Json>| e.and_then(|e| e.get("value")).and_then(Json::as_f64);
            let x = value(Some(ea));
            let y = value(wb.get("per_layer").and_then(|m| m.get(metric)));
            if x != y {
                verdict.misses += 1;
                let _ = writeln!(
                    verdict.table,
                    "{name:<16} {metric:<30} {x:?} vs {y:?}  DIFFERS"
                );
            }
        }
    }
    verdict
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1, 2, 4, 7, 11], n=4) == [1.5, 4.0, 9.0]
        assert_eq!(quartiles(&[11.0, 1.0, 4.0, 2.0, 7.0]), [1.5, 4.0, 9.0]);
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), [7.5, 15.0, 22.5]);
        assert_eq!(quartiles(&[3.0]), [3.0; 3]);
    }

    fn bench() -> Json {
        Json::parse(
            r#"{"end_to_end": [
                {"name": "backup_mb_s", "unit": "MiB/s", "better": "higher", "bound": 0.1},
                {"name": "speed_factor", "unit": "MiB/read", "better": "higher", "bound": 0.25}
            ]}"#,
        )
        .unwrap()
    }

    fn set(backup: &[f64], speed_factor: f64, chunks: f64) -> Json {
        let values = |v: &[f64]| Json::Arr(v.iter().map(|x| Json::Num(*x)).collect());
        let metric =
            |unit: &str, v: &[f64]| Json::obj([("unit", Json::str(unit)), ("values", values(v))]);
        Json::obj([(
            "workloads",
            Json::obj([(
                "w",
                Json::obj([
                    (
                        "end_to_end",
                        Json::obj([
                            ("backup_mb_s", metric("MiB/s", backup)),
                            ("speed_factor", metric("MiB/read", &[speed_factor])),
                        ]),
                    ),
                    (
                        "per_layer",
                        Json::obj([(
                            "chunking.chunks",
                            Json::obj([("unit", Json::str("count")), ("value", Json::Num(chunks))]),
                        )]),
                    ),
                ]),
            )]),
        )])
    }

    #[test]
    fn verdicts_follow_bounds_exactness_and_spread() {
        let base = set(&[50.0, 50.5, 51.0], 2.5, 100.0);
        let same = compare(&base, &set(&[49.0, 50.0, 50.2], 2.5, 100.0), &bench());
        assert_eq!((same.misses, same.unresolved), (0, 0), "{}", same.table);

        let slower = compare(&base, &set(&[40.0, 40.5, 41.0], 2.5, 100.0), &bench());
        assert_eq!(slower.misses, 1, "{}", slower.table);
        assert!(slower.table.contains("WORSE"));

        let faster = compare(&base, &set(&[60.0, 60.5, 61.0], 2.5, 100.0), &bench());
        assert_eq!(faster.misses, 0, "only the worse direction misses");
        assert!(faster.table.contains("better"));

        let noisy = compare(&base, &set(&[30.0, 50.0, 70.0], 2.5, 100.0), &bench());
        assert_eq!((noisy.misses, noisy.unresolved), (0, 1), "{}", noisy.table);

        let moved = compare(&base, &set(&[50.0, 50.5, 51.0], 2.6, 101.0), &bench());
        assert_eq!(
            moved.misses, 2,
            "exact metric and layer count: {}",
            moved.table
        );
    }
}
