//! `bench_e2e` — drives the real multi-process FedOQ stack and reports
//! wall-clock end-to-end metrics, or (with `--trace 1`) per-layer ones.
//!
//! ```text
//! bench_e2e [--workload <name>] [--seed <n>] [--seconds <s>] [--trace 0|1]
//!           [--repeat <n>] [--quick 1]
//! ```
//!
//! Without `--workload` every workload of `BENCHMARK.json` runs in turn.
//! Every metric is printed as `workload metric value unit`; the last
//! line of standard output is one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`. The same numbers, with run
//! metadata, go to `out/BENCH_e2e.json` next to this package's manifest.
//! Exits non-zero when any answer was wrong or (with `--repeat`) a
//! metric left its bound.

use fedoq_e2e::layers::quantile;
use fedoq_e2e::report::{result_line, results_doc};
use fedoq_e2e::run::{run_workload, Report, RunOpts};
use fedoq_e2e::spec::{MetricSpec, Spec};
use fedoq_e2e::stack::Host;
use fedoq_wire::args::Flags;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// First line of a helper command's output, or `unknown`.
fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

fn print_metrics(workload: &str, values: &[(String, f64)], declared: &[MetricSpec]) {
    for ((name, value), m) in values.iter().zip(declared) {
        println!("{workload} {name} {value} {}", m.unit);
    }
}

fn write_results(reports: &[Report], opts: &RunOpts, spec: &Spec) -> Result<(), String> {
    let toolchain = (
        tool_line("rustc", &["--version"]),
        tool_line("git", &["rev-parse", "HEAD"]),
    );
    let doc = results_doc(reports, opts, spec, toolchain);
    std::fs::create_dir_all(&opts.out_dir)
        .map_err(|e| format!("{}: {e}", opts.out_dir.display()))?;
    let path = opts.out_dir.join("BENCH_e2e.json");
    std::fs::write(&path, format!("{doc}\n")).map_err(|e| format!("{}: {e}", path.display()))
}

fn run_suite(workloads: &[String], opts: &RunOpts, spec: &Spec) -> Result<Vec<Report>, String> {
    let mut reports = Vec::new();
    for name in workloads {
        let report = run_workload(name, opts, spec)?;
        print_metrics(name, &report.end_to_end, &spec.end_to_end);
        print_metrics(name, &report.per_layer, &spec.per_layer);
        println!(
            "{name} failed_ratio {} ratio ({} of {})",
            report.failed as f64 / report.attempted.max(1) as f64,
            report.failed,
            report.attempted
        );
        for error in &report.errors {
            eprintln!("bench_e2e: {name}: {error}");
        }
        reports.push(report);
    }
    Ok(reports)
}

/// `--repeat`: the suite `n` times on one seed; per workload × metric the
/// median, min, max and the worst deviation from the median, against the
/// metric's bound. Returns whether every metric stayed inside.
fn repeat_suite(
    n: usize,
    workloads: &[String],
    opts: &RunOpts,
    spec: &Spec,
) -> Result<bool, String> {
    let mut runs = Vec::new();
    for _ in 0..n {
        runs.push(run_suite(workloads, opts, spec)?);
    }
    let mut held = runs.iter().flatten().all(Report::correct);
    println!("workload metric median min max worst_dev bound verdict");
    for (w, workload) in workloads.iter().enumerate() {
        for (m, metric) in spec.end_to_end.iter().enumerate() {
            let mut values: Vec<f64> = runs.iter().map(|r| r[w].end_to_end[m].1).collect();
            let median = quantile(&mut values, 0.5);
            let (min, max) = (values[0], values[values.len() - 1]);
            let worst = if metric.higher_is_better {
                (median - min) / median
            } else {
                (max - median) / median
            };
            let bound = metric.bound.unwrap_or(f64::INFINITY);
            let ok = worst <= bound;
            held &= ok;
            println!(
                "{workload} {} {median} {min} {max} {worst:.4} {bound} {}",
                metric.name,
                if ok { "ok" } else { "OUT" }
            );
        }
    }
    Ok(held)
}

fn run() -> Result<bool, String> {
    let spec = Spec::load()?;
    let flags = Flags::parse(std::env::args().skip(1))?;
    let quick = flags.get_parsed("quick", 0u8)? != 0;
    let opts = RunOpts {
        seed: flags.get_parsed("seed", 1)?,
        seconds: flags.get_parsed("seconds", if quick { 1.0 } else { spec.run_seconds })?,
        trace: flags.get_parsed("trace", 0u8)? != 0,
        quick,
        host: Host::Processes,
        out_dir: out_dir(),
        corrupt_oracle: false,
    };
    if !(opts.seconds > 0.0 && opts.seconds.is_finite()) {
        return Err("--seconds must be positive".to_string());
    }
    let workloads = match flags.get("workload") {
        Some(name) if spec.workloads.iter().any(|w| w == name) => vec![name.to_string()],
        Some(name) => {
            return Err(format!(
                "unknown workload '{name}' (expected one of {})",
                spec.workloads.join(", ")
            ))
        }
        None => spec.workloads.clone(),
    };
    let repeat: usize = flags.get_parsed("repeat", 0)?;
    if repeat > 0 {
        return repeat_suite(repeat, &workloads, &opts, &spec);
    }
    let reports = run_suite(&workloads, &opts, &spec)?;
    write_results(&reports, &opts, &spec)?;
    println!("{}", result_line(&reports, opts.trace, &spec));
    Ok(reports.iter().all(Report::correct))
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("bench_e2e: FAILED (wrong answers or a metric out of bound)");
            ExitCode::FAILURE
        }
        Err(message) => {
            eprintln!("bench_e2e: {message}");
            ExitCode::FAILURE
        }
    }
}
