//! Smoke test of the whole harness: every workload in `--quick` shape
//! (scale 0.05, 1 s windows, traced), against a stack hosted on threads
//! of the test process via `spawn_site`/`spawn_serve`.
//!
//! Run with `cargo test --manifest-path bench_e2e/Cargo.toml`; the
//! package is a workspace of its own, so the root `cargo test` does not
//! reach it.

use fedoq_e2e::json::Json;
use fedoq_e2e::report::{result_line, results_doc};
use fedoq_e2e::run::{run_workload, Report, RunOpts};
use fedoq_e2e::spec::Spec;
use fedoq_e2e::stack::Host;
use std::path::PathBuf;

fn quick(trace: bool, corrupt_oracle: bool) -> RunOpts {
    RunOpts {
        seed: 1,
        seconds: 1.0,
        trace,
        quick: true,
        host: Host::Threads,
        out_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")),
        corrupt_oracle,
    }
}

fn names(values: &[(String, f64)]) -> Vec<&str> {
    values.iter().map(|(name, _)| name.as_str()).collect()
}

fn assert_clean(report: &Report, spec: &Spec) {
    assert_eq!(report.failed, 0, "{}: {:?}", report.workload, report.errors);
    assert!(report.attempted > 0);
    let declared = |metrics: &[fedoq_e2e::spec::MetricSpec]| -> Vec<String> {
        metrics.iter().map(|m| m.name.clone()).collect()
    };
    assert_eq!(names(&report.end_to_end), declared(&spec.end_to_end));
    assert_eq!(names(&report.per_layer), declared(&spec.per_layer));
    for (name, value) in &report.end_to_end {
        assert!(
            value.is_finite() && *value > 0.0,
            "{}: end-to-end metric {name} = {value} must be positive",
            report.workload
        );
    }
    for (name, value) in &report.per_layer {
        assert!(value.is_finite(), "{}: {name} = {value}", report.workload);
    }
    let trace = quick(true, false)
        .out_dir
        .join(format!("trace-{}.jsonl", report.workload));
    let spans = std::fs::read_to_string(&trace).expect("trace file written");
    assert!(spans.lines().count() > 10, "{}", trace.display());
    for line in spans.lines().take(50) {
        let span = Json::parse(line).expect("span line parses");
        for key in ["id", "parent", "query", "name", "start_us", "end_us"] {
            assert!(span.get(key).is_some(), "span lacks {key}: {line}");
        }
    }
}

#[test]
fn declared_names_are_well_formed_and_unique() {
    let spec = Spec::load().expect("BENCHMARK.json parses");
    let metric_names = spec
        .end_to_end
        .iter()
        .chain(&spec.per_layer)
        .map(|m| &m.name);
    let mut all: Vec<&String> = spec.workloads.iter().chain(metric_names).collect();
    for name in &all {
        assert!(
            !name.is_empty()
                && name.len() <= 64
                && name.starts_with(|c: char| c.is_ascii_alphanumeric())
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "bad name {name:?}"
        );
    }
    let total = all.len();
    all.sort();
    all.dedup();
    assert_eq!(all.len(), total, "a name is used twice");
    assert!(spec
        .end_to_end
        .iter()
        .any(|m| m.name == "setup_s" && m.unit == "s" && !m.higher_is_better));
    for metric in &spec.end_to_end {
        let bound = metric.bound.expect("end-to-end metrics carry a bound");
        assert!(bound > 0.0 && bound < 1.0, "{}: bound {bound}", metric.name);
    }
}

#[test]
fn every_workload_runs_clean_and_emits_the_declared_metrics() {
    let spec = Spec::load().expect("BENCHMARK.json parses");
    let opts = quick(true, false);
    let mut reports = Vec::new();
    for workload in &spec.workloads {
        let report = run_workload(workload, &opts, &spec).expect("workload runs");
        assert_clean(&report, &spec);
        reports.push(report);
    }

    // The emitted documents parse, and say what the contract wants.
    for traced in [false, true] {
        let line = result_line(&reports[..1], traced, &spec).to_string();
        let parsed = Json::parse(&line).expect("result line parses");
        let keys: Vec<&str> = parsed
            .as_obj()
            .expect("an object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(parsed.get("correct"), Some(&Json::Bool(true)));
        let declared = if traced {
            &spec.per_layer
        } else {
            &spec.end_to_end
        };
        let metrics = parsed
            .get("metrics")
            .and_then(Json::as_obj)
            .expect("metrics");
        assert_eq!(metrics.len(), declared.len());
        for ((name, value), m) in metrics.iter().zip(declared) {
            assert_eq!(name, &m.name);
            assert_eq!(
                value.get("unit").and_then(Json::as_str),
                Some(m.unit.as_str())
            );
            assert!(value.get("value").and_then(Json::as_f64).is_some());
        }
    }
    let doc = results_doc(
        &reports,
        &opts,
        &spec,
        ("rustc".to_string(), "commit".to_string()),
    )
    .to_string();
    let doc = Json::parse(&doc).expect("BENCH_e2e.json parses");
    assert_eq!(doc.get("claim"), Some(&Json::Null));
    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(Json::as_obj)
        .expect("workloads")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(workloads, spec.workloads);
}

#[test]
fn a_falsified_oracle_is_counted_as_failures() {
    let spec = Spec::load().expect("BENCHMARK.json parses");
    for workload in ["small_closed", "live_mutate"] {
        let report = run_workload(workload, &quick(false, true), &spec).expect("workload runs");
        assert!(
            report.failed > 0,
            "{workload}: a wrong answer went unnoticed"
        );
        assert!(!report.correct());
        assert!(!report.errors.is_empty());
        let line = result_line(&[report], false, &spec).to_string();
        let parsed = Json::parse(&line).expect("result line parses");
        assert_eq!(parsed.get("correct"), Some(&Json::Bool(false)));
    }
}
