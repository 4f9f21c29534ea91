//! Smoke-scale runs of every workload: the metrics `BENCHMARK.json` names
//! are all produced with their units, nothing fails, counts repeat exactly
//! for one seed and move with another, and span self times add up.

use std::path::PathBuf;

use hdsbench::json::Json;
use hdsbench::trace::{child_coverage_ns, Tracer};
use hdsbench::workload::{Scale, END_TO_END, NAMES, PER_LAYER};
use hdsbench::{Outcome, BENCHMARK_JSON};

fn scratch(tag: &str) -> PathBuf {
    // Each test gets its own parent so parallel tests never share a path.
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(tag)
}

fn smoke(name: &str, seed: u64, traced: bool, tag: &str) -> Outcome {
    hdsbench::run(name, seed, 0.0, traced, Scale::Smoke, &scratch(tag))
        .unwrap_or_else(|e| panic!("{name} seed {seed}: {e}"))
}

/// `(name, unit)` pairs of one metric list of `BENCHMARK.json`.
fn declared(list: &str) -> Vec<(String, String)> {
    let bench = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    let field = |m: &Json, key: &str| m.get(key).and_then(Json::as_str).unwrap().to_string();
    bench
        .get(list)
        .expect("metric list present")
        .items()
        .iter()
        .map(|m| (field(m, "name"), field(m, "unit")))
        .collect()
}

fn produced(outcome: &Outcome) -> Vec<(String, String)> {
    outcome
        .metrics
        .iter()
        .map(|(name, _, unit)| (name.to_string(), unit.to_string()))
        .collect()
}

#[test]
fn benchmark_json_declares_exactly_what_the_harness_measures() {
    let bench = Json::parse(BENCHMARK_JSON).unwrap();
    let workloads: Vec<&str> = bench
        .get("workloads")
        .unwrap()
        .items()
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap())
        .collect();
    assert_eq!(workloads, NAMES);
    let table = |t: &[(&str, &str)]| -> Vec<(String, String)> {
        t.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(declared("end_to_end"), table(END_TO_END));
    assert_eq!(declared("per_layer"), table(PER_LAYER));
}

#[test]
fn every_workload_reports_every_metric_and_nothing_fails() {
    for name in NAMES {
        let untraced = smoke(name, 7, false, "report");
        assert_eq!(produced(&untraced), declared("end_to_end"), "{name}");
        assert_eq!(untraced.failed, 0, "{name}: failed ops");
        assert!(untraced.attempted > 1, "{name}");
        for (metric, value, _) in &untraced.metrics {
            assert!(
                value.is_finite() && *value > 0.0,
                "{name} {metric} = {value}"
            );
        }

        let traced = smoke(name, 7, true, "report");
        assert_eq!(produced(&traced), declared("per_layer"), "{name}");
        assert_eq!(traced.failed, 0, "{name}: failed ops in the traced run");
        assert!(
            traced.metrics.iter().all(|(_, v, _)| v.is_finite()),
            "{name}: {:?}",
            traced.metrics
        );
        assert!(!traced.tracer.spans().is_empty(), "{name}: no spans");
    }
}

/// The metrics that are counts, not timings.
fn counts(outcome: &Outcome) -> Vec<(&'static str, f64)> {
    outcome
        .metrics
        .iter()
        .filter(|(name, _, unit)| {
            matches!(*unit, "count" | "bytes")
                || matches!(*name, "speed_factor" | "stored_per_logical")
        })
        .map(|(name, value, _)| (*name, *value))
        .collect()
}

#[test]
fn counts_repeat_for_one_seed_and_move_with_another() {
    for name in NAMES {
        for traced in [false, true] {
            let first = counts(&smoke(name, 11, traced, "repeat"));
            let again = counts(&smoke(name, 11, traced, "repeat"));
            let other = counts(&smoke(name, 12, traced, "repeat"));
            assert!(!first.is_empty());
            assert_eq!(
                first, again,
                "{name} traced={traced}: same seed, other counts"
            );
            assert_ne!(
                first, other,
                "{name} traced={traced}: other seed, same counts"
            );
        }
    }
}

#[test]
fn self_times_and_child_coverage_sum_to_each_root_span() {
    // A hand-built tree first: a leaf beside a span with a child of its own.
    let mut tracer = Tracer::new(true);
    let root = tracer.begin("op.test", None, 1);
    tracer.leaf("a", root, 1, || {
        std::thread::sleep(std::time::Duration::from_millis(2))
    });
    let mid = tracer.begin("b", root, 1);
    tracer.leaf("b.inner", mid, 1, || {
        std::thread::sleep(std::time::Duration::from_millis(1))
    });
    tracer.end(mid);
    tracer.end(root);
    let layers = tracer.layers();
    let total: f64 = layers.values().map(|l| l.self_s).sum();
    assert!((total - layers["op.test"].busy_s).abs() < 1e-9);
    assert!(layers["b"].self_s < layers["b"].busy_s);

    // Then a real traced run: per root, self + covered == duration, and
    // the self times of a root's whole subtree sum to the root's duration.
    let traced = smoke("bulk.kernel", 3, true, "spans");
    let spans = traced.tracer.spans();
    let covered = child_coverage_ns(spans);
    let mut subtree_self = vec![0u64; spans.len()];
    for (i, span) in spans.iter().enumerate() {
        let own = span.end_ns - span.start_ns - covered[i];
        let mut at = i;
        while let Some(parent) = spans[at].parent {
            at = parent;
        }
        subtree_self[at] += own;
        assert_eq!(spans[at].op, span.op, "a span shares its root's op id");
    }
    let roots: Vec<usize> = (0..spans.len())
        .filter(|&i| spans[i].parent.is_none())
        .collect();
    assert!(!roots.is_empty());
    for root in roots {
        let len = spans[root].end_ns - spans[root].start_ns;
        assert_eq!(
            subtree_self[root], len,
            "root {} ({})",
            root, spans[root].name
        );
    }
}
