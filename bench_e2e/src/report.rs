//! Result documents: the one-line result the contract asks for on
//! standard output, and the fuller `out/BENCH_e2e.json`.

use crate::json::Json;
use crate::run::{Report, RunOpts};
use crate::spec::{MetricSpec, Spec};
use crate::stack::SERVE_WORKERS;

fn metrics_json(values: &[(String, f64)], declared: &[MetricSpec]) -> Json {
    Json::obj(values.iter().zip(declared).map(|((name, value), m)| {
        (
            name.clone(),
            Json::obj([
                ("value", Json::Num(*value)),
                ("unit", Json::str(m.unit.clone())),
            ]),
        )
    }))
}

/// The contract's result line: `correct`, `attempted`, `failed` and
/// `metrics` — every end-to-end metric of an untraced run, every
/// per-layer metric of a traced one. Several workloads nest their
/// metrics under the workload names.
pub fn result_line(reports: &[Report], traced: bool, spec: &Spec) -> Json {
    let metrics_of = |r: &Report| {
        if traced {
            metrics_json(&r.per_layer, &spec.per_layer)
        } else {
            metrics_json(&r.end_to_end, &spec.end_to_end)
        }
    };
    let metrics = match reports {
        [only] => metrics_of(only),
        many => Json::obj(many.iter().map(|r| (r.workload.clone(), metrics_of(r)))),
    };
    Json::obj([
        ("correct", Json::Bool(reports.iter().all(Report::correct))),
        (
            "attempted",
            Json::Num(reports.iter().map(|r| r.attempted).sum::<u64>() as f64),
        ),
        (
            "failed",
            Json::Num(reports.iter().map(|r| r.failed).sum::<u64>() as f64),
        ),
        ("metrics", metrics),
    ])
}

fn workload_json(report: &Report, spec: &Spec) -> Json {
    Json::obj([
        ("spec", Json::str(report.spec.clone())),
        ("window_s", Json::Num(report.window_s)),
        ("warmup_s", Json::Num(report.warmup_s)),
        ("attempted", Json::Num(report.attempted as f64)),
        ("failed", Json::Num(report.failed as f64)),
        (
            "failed_ratio",
            Json::Num(report.failed as f64 / report.attempted.max(1) as f64),
        ),
        (
            "samples",
            Json::obj(
                report
                    .samples
                    .iter()
                    .map(|(name, n)| (name.clone(), Json::Num(*n as f64))),
            ),
        ),
        (
            "end_to_end",
            metrics_json(&report.end_to_end, &spec.end_to_end),
        ),
        (
            "per_layer",
            metrics_json(&report.per_layer, &spec.per_layer),
        ),
        (
            "errors",
            Json::Arr(report.errors.iter().cloned().map(Json::Str).collect()),
        ),
    ])
}

/// `out/BENCH_e2e.json`: run metadata (`toolchain` is `(rustc version,
/// git commit)`), then per workload its chosen spec, window lengths,
/// per-timing sample counts and every metric. This benchmark measures;
/// it claims nothing.
pub fn results_doc(
    reports: &[Report],
    opts: &RunOpts,
    spec: &Spec,
    toolchain: (String, String),
) -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    Json::obj([
        (
            "meta",
            Json::obj([
                ("bench", Json::str("e2e")),
                ("seed", Json::Num(opts.seed as f64)),
                ("seconds", Json::Num(opts.seconds)),
                ("traced", Json::Bool(opts.trace)),
                ("quick", Json::Bool(opts.quick)),
                ("nproc", Json::Num(nproc as f64)),
                ("serve_workers", Json::Num(SERVE_WORKERS as f64)),
                ("rustc", Json::Str(toolchain.0)),
                ("git_commit", Json::Str(toolchain.1)),
            ]),
        ),
        (
            "workloads",
            Json::obj(
                reports
                    .iter()
                    .map(|r| (r.workload.clone(), workload_json(r, spec))),
            ),
        ),
        ("claim", Json::Null),
    ])
}
