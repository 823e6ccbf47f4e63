//! The benchmark's own tests: every run emits exactly the metrics
//! `BENCHMARK.json` names, with their units; a seed fixes the op schedule;
//! and on `update_noschool` the store-op counts repeat exactly.

use moist_perfbench::workload::{OpStream, Spec, ALL, THREADS};
use moist_perfbench::{run, Args, Outcome};
use serde_json::Value;
use std::path::PathBuf;

/// Populations small enough for a test, large enough for schools to form.
fn tiny(spec: Spec) -> Spec {
    spec.scaled(if spec.name == "update_noschool" {
        2_000
    } else {
        1_000
    })
}

fn run_tiny(spec: Spec, seed: u64, trace: bool) -> Outcome {
    let work_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../.bench_build/perfbench-test");
    let out = run(&Args {
        spec: tiny(spec),
        seed,
        seconds: 1.0,
        trace,
        work_dir,
    })
    .expect("the tier answers");
    assert!(out.failures.is_empty(), "{}: {:?}", spec.name, out.failures);
    assert!(out.attempted >= 1);
    out
}

/// `(name, unit)` of every metric in one list of `BENCHMARK.json`.
fn declared(list: &str) -> Vec<(String, String)> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
    let json = serde_json::from_str_value(&text).expect("BENCHMARK.json parses");
    json.get(list)
        .and_then(Value::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Value::as_str).expect(k).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn emitted(out: &Outcome) -> Vec<(String, String)> {
    let json = serde_json::from_str_value(&out.metrics.json()).expect("metrics JSON parses");
    out.metrics
        .0
        .iter()
        .map(|(name, _, unit)| {
            let entry = json.get(name).expect("metric in the JSON");
            assert!(
                entry.get("value").and_then(Value::as_f64).is_some(),
                "{name}"
            );
            assert_eq!(entry.get("unit").and_then(Value::as_str), Some(*unit));
            (name.clone(), unit.to_string())
        })
        .collect()
}

#[test]
fn a_tiny_run_of_each_workload_emits_every_named_metric_with_its_unit() {
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    for spec in ALL {
        assert_eq!(
            emitted(&run_tiny(spec, 3, false)),
            end_to_end,
            "{}",
            spec.name
        );
        assert_eq!(
            emitted(&run_tiny(spec, 3, true)),
            per_layer,
            "{}",
            spec.name
        );
    }
}

#[test]
fn the_same_seed_produces_the_same_op_schedule() {
    let schedule = |spec: Spec, seed: u64| -> Vec<String> {
        (0..THREADS)
            .flat_map(|t| {
                let mut s = OpStream::new(tiny(spec), seed, t);
                let mut ops: Vec<String> =
                    s.registrations().iter().map(|m| format!("{m:?}")).collect();
                ops.extend((0..3_000).map(|_| format!("{:?}", s.next_op())));
                ops
            })
            .collect()
    };
    for spec in ALL {
        let a = schedule(spec, 11);
        assert_eq!(a, schedule(spec, 11), "{}", spec.name);
        assert_ne!(a, schedule(spec, 12), "{}", spec.name);
    }
}

#[test]
fn update_noschool_count_metrics_repeat_exactly() {
    let spec = Spec::by_name("update_noschool").expect("workload");
    let counts = |out: &Outcome| -> Vec<(String, f64)> {
        out.metrics
            .0
            .iter()
            .filter(|(name, _, _)| {
                name.starts_with("bigtable.")
                    || name.starts_with("update.") && name.ends_with("_frac")
                    || name == "cluster.leaders_per_object"
            })
            .map(|(name, value, _)| (name.clone(), *value))
            .collect()
    };
    let a = counts(&run_tiny(spec, 5, true));
    assert!(a
        .iter()
        .any(|(n, v)| n == "bigtable.writes_per_update" && *v > 0.0));
    assert_eq!(a, counts(&run_tiny(spec, 5, true)));
}
