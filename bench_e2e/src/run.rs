//! One workload run, start to finish: plan → oracle → repeated boots →
//! warm-up → measured window → (traced pass) → (standing queries: final
//! check, read pass, oracle replay) → (in-process layer replay).

use crate::drive::{
    final_check, live_load, probe_queries, query_load, verify_live, LiveClient, LiveOp, Load,
    Window,
};
use crate::layers::{quantile, replay};
use crate::oracle::{Expected, LiveOracle, CORRUPT_ROW};
use crate::spec::{MetricSpec, Spec};
use crate::stack::{Host, Stack};
use crate::trace::Trace;
use crate::workload::{MutationStream, Plan, Traffic, QUERY_STRATEGIES};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

/// Options of one run.
#[derive(Debug, Clone)]
pub struct RunOpts {
    /// Draws literals, request order and the mutation stream.
    pub seed: u64,
    /// Length of the measured window, seconds.
    pub seconds: f64,
    /// Also make the traced wire pass and the in-process replay.
    pub trace: bool,
    /// Smoke-test shape: scale 0.05, one boot.
    pub quick: bool,
    pub host: Host,
    /// Where `trace-<workload>.jsonl` goes.
    pub out_dir: std::path::PathBuf,
    /// Test hook: falsify the oracle, so every answer must count as
    /// failed.
    pub corrupt_oracle: bool,
}

/// The result of one workload run.
#[derive(Debug, Clone)]
pub struct Report {
    pub workload: String,
    pub spec: String,
    /// `(name, value)` in `BENCHMARK.json` order.
    pub end_to_end: Vec<(String, f64)>,
    /// Empty unless the run was traced.
    pub per_layer: Vec<(String, f64)>,
    pub attempted: u64,
    pub failed: u64,
    /// Sample count behind each timing.
    pub samples: Vec<(String, u64)>,
    pub window_s: f64,
    pub warmup_s: f64,
    pub errors: Vec<String>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

/// Tallies attempts and failures over every phase of a run.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    /// Time spent verifying replies, µs.
    check_us: f64,
    errors: Vec<String>,
}

impl Tally {
    fn add(&mut self, load: &Load) {
        self.attempted += load.attempted;
        self.failed += load.failed;
        self.check_us += load.check_us;
        self.errors.extend(load.errors.iter().cloned());
        self.errors.truncate(8);
    }
}

/// The bench's side of a standing-query workload: the mutation stream,
/// and what the wire did with it so far, for the oracle to replay at
/// the end.
struct LiveSide {
    /// Initial snapshot of every subscription slot.
    snapshots: Vec<Vec<String>>,
    stream: MutationStream,
    done: Vec<LiveOp>,
}

/// The running stack, and the subscribed connection of a live workload.
struct Session {
    stack: Stack,
    client: Option<LiveClient>,
}

/// Boots the stack and runs the setup probe: a verified answer under
/// every strategy, or every standing query's verified snapshot.
fn boot(
    plan: &Plan,
    host: Host,
    expected: &Expected,
    live: Option<&LiveSide>,
    tally: &mut Tally,
) -> Result<Session, String> {
    let stack = Stack::boot(host, &plan.spec, plan.cache)?;
    let client = match live {
        None => {
            tally.add(&probe_queries(&stack.addr, plan, expected)?);
            None
        }
        Some(live) => {
            let (client, probe) = LiveClient::subscribe_all(&stack.addr, plan, &live.snapshots)?;
            tally.add(&probe);
            Some(client)
        }
    };
    Ok(Session { stack, client })
}

/// A booted run: everything a load phase needs.
struct Runner<'a> {
    plan: &'a Plan,
    expected: &'a Expected,
    session: Session,
    live: Option<LiveSide>,
}

impl Runner<'_> {
    /// The workload's traffic for `window`.
    fn traffic(&mut self, window: Window, trace: Option<&mut Trace>) -> Load {
        match (&mut self.session.client, &mut self.live) {
            (Some(client), Some(live)) => {
                live_load(client, &mut live.stream, &mut live.done, window, trace)
            }
            _ => self.queries(window, trace),
        }
    }

    /// One-shot queries over the pool for `window`.
    fn queries(&self, window: Window, trace: Option<&mut Trace>) -> Load {
        query_load(
            &self.session.stack.addr,
            self.plan,
            self.expected,
            window,
            trace,
        )
    }
}

fn median_of(values: impl Iterator<Item = f64>) -> f64 {
    quantile(&mut values.collect::<Vec<_>>(), 0.5)
}

fn strategy_ms(load: &Load, slot: usize) -> Vec<f64> {
    load.samples
        .iter()
        .filter(|s| s.strategy == Some(slot))
        .map(|s| s.ms)
        .collect()
}

/// Segments a load phase is cut into for its throughput.
const SEGMENTS: usize = 10;

/// Operations per second: the phase is cut into ten equal
/// segments, each segment's rate is taken between its first and last
/// completion, and the median segment is reported — so a stall of a few
/// seconds (a noisy neighbour on a shared box) does not move it. A
/// phase too sparse for that (under 3 completions in some segment)
/// reports its plain mean rate.
fn ops_per_s(load: &Load) -> f64 {
    let mut segments = vec![Vec::new(); SEGMENTS];
    let width = load.elapsed_s / SEGMENTS as f64;
    for sample in &load.samples {
        let segment = ((sample.at_s / width) as usize).min(SEGMENTS - 1);
        segments[segment].push(sample.at_s);
    }
    if segments.iter().any(|s| s.len() < 3) {
        return load.samples.len() as f64 / load.elapsed_s.max(1e-9);
    }
    let mut rates: Vec<f64> = segments
        .iter_mut()
        .map(|at| {
            at.sort_by(f64::total_cmp);
            (at.len() - 1) as f64 / (at[at.len() - 1] - at[0]).max(1e-9)
        })
        .collect();
    quantile(&mut rates, 0.5)
}

/// Pairs `values` with the declared metric list, in its order.
fn in_spec_order(
    declared: &[MetricSpec],
    values: &BTreeMap<String, f64>,
) -> Result<Vec<(String, f64)>, String> {
    declared
        .iter()
        .map(|m| {
            values
                .get(&m.name)
                .map(|v| (m.name.clone(), *v))
                .ok_or_else(|| format!("metric '{}' was not measured", m.name))
        })
        .collect()
}

/// Runs workload `name` once.
///
/// # Errors
///
/// Anything that stops the run from producing numbers: an unknown
/// workload, a daemon that does not boot, a transport failure during
/// setup. Wrong answers do not stop the run; they are counted.
pub fn run_workload(name: &str, opts: &RunOpts, spec: &Spec) -> Result<Report, String> {
    let plan = Plan::new(name, opts.seed, opts.quick)?;
    let mut expected = Expected::compute(&plan)?;
    if opts.corrupt_oracle {
        expected.corrupt();
    }
    let mut tally = Tally::default();
    let live = match plan.traffic {
        Traffic::Queries => None,
        Traffic::Live => {
            let (_, mut snapshots) =
                LiveOracle::new(&plan.queries, plan.fed.clone(), 0..plan.slots())?;
            if opts.corrupt_oracle {
                snapshots[0].push(CORRUPT_ROW.to_string());
            }
            Some(LiveSide {
                snapshots,
                stream: plan.mutations(),
                done: Vec::new(),
            })
        }
    };

    // Setup: boot repeatedly, keep the last stack for the run.
    let mut boots = Vec::new();
    let mut session = None;
    for _ in 0..plan.boots {
        drop(session.take()); // never two stacks at once
        let began = Instant::now();
        session = Some(boot(
            &plan,
            opts.host,
            &expected,
            live.as_ref(),
            &mut tally,
        )?);
        boots.push(began.elapsed().as_secs_f64());
    }
    let mut runner = Runner {
        plan: &plan,
        expected: &expected,
        session: session.ok_or("a plan boots at least once")?,
        live,
    };
    let timed = |seconds: f64| Window {
        length: Duration::from_secs_f64(seconds),
        min_ops: 0,
    };

    // Touch: every (query, strategy) pair exactly once per connection, so
    // site sessions exist and connections are dialed. Memory is read
    // here, after a fixed number of operations: the daemons' resident
    // size keeps growing with every query served, so a reading after a
    // timed phase would reward a slower stack.
    let touch = Window {
        length: Duration::ZERO,
        min_ops: plan.slots() as u64,
    };
    tally.add(&runner.traffic(touch, None));
    let footprint = runner.session.stack.rss();

    // Warm-up, then the measured window.
    let warmup_s = (opts.seconds / 10.0).clamp(0.5, 3.0);
    let warmup = runner.traffic(timed(warmup_s), None);
    tally.add(&warmup);
    let measured = runner.traffic(timed(opts.seconds), None);
    tally.add(&measured);
    let grown = runner.session.stack.rss();
    let served = (warmup.attempted + measured.attempted).max(1) as f64;

    // The traced pass shares the stack and comes after the measured
    // window, so it never mixes into the end-to-end numbers.
    let mut trace = Trace::new();
    let traced = opts
        .trace
        .then(|| runner.traffic(timed(opts.seconds / 2.0), Some(&mut trace)));

    // Standing queries end with their snapshot check. A mutation runs
    // under no strategy, so their per-strategy latencies come from a
    // pass of one-shot reads on the same stack once the live connection
    // is closed: the control that must not move when the write path is
    // optimised.
    let mut reads = None;
    if let (Some(mut client), Some(live)) = (runner.session.client.take(), runner.live.as_mut()) {
        tally.add(&final_check(&mut client, &plan, &mut live.done));
        drop(client);
        let pass = runner.queries(timed(warmup_s), None);
        tally.add(&pass);
        reads = Some(pass);
    }
    let Runner { session, live, .. } = runner;
    drop(session); // the oracle and the replay run on a quiet box
    if let Some(live) = live {
        tally.add(&verify_live(&plan, &live.done));
    }
    let by_strategy = reads.as_ref().unwrap_or(&measured);

    let mut latencies: Vec<f64> = measured.samples.iter().map(|s| s.ms).collect();
    let throughput = ops_per_s(&measured);
    let mut e2e = BTreeMap::new();
    let mut samples = vec![
        ("setup_s".to_string(), boots.len() as u64),
        ("ops".to_string(), latencies.len() as u64),
    ];
    e2e.insert("setup_s".to_string(), quantile(&mut boots, 0.5));
    e2e.insert("ops_per_s".to_string(), throughput);
    e2e.insert("p50_ms".to_string(), quantile(&mut latencies, 0.5));
    e2e.insert("p95_ms".to_string(), quantile(&mut latencies, 0.95));
    for (slot, label) in QUERY_STRATEGIES.iter().enumerate() {
        let mut ms = strategy_ms(by_strategy, slot);
        samples.push((format!("{label}_p50_ms"), ms.len() as u64));
        e2e.insert(format!("{label}_p50_ms"), quantile(&mut ms, 0.5));
    }
    e2e.insert(
        "peak_rss_mb".to_string(),
        footprint.sites_mb + footprint.serve_mb,
    );

    let mut per_layer = Vec::new();
    if let Some(traced) = traced {
        tally.add(&traced);
        let mut layers = wire_layers(&traced, &trace);
        layers.insert("wire.site_rss_mb".to_string(), footprint.sites_mb);
        layers.insert("wire.serve_rss_mb".to_string(), footprint.serve_mb);
        layers.insert(
            "wire.site_rss_kb_per_op".to_string(),
            (grown.sites_mb - footprint.sites_mb) * 1024.0 / served,
        );
        layers.insert(
            "wire.serve_rss_kb_per_op".to_string(),
            (grown.serve_mb - footprint.serve_mb) * 1024.0 / served,
        );
        layers.insert("client.p99_ms".to_string(), quantile(&mut latencies, 0.99));
        layers.insert("client.samples".to_string(), latencies.len() as f64);
        layers.insert(
            "client.check_us".to_string(),
            tally.check_us / tally.attempted.max(1) as f64,
        );
        layers.insert(
            "trace.overhead_ratio".to_string(),
            ops_per_s(&traced) / throughput.max(1e-9),
        );
        layers.extend(replay(&plan, &mut trace)?);
        // Differences between a wire median and its in-process twin; a
        // workload without the wire side of one reports 0.
        let standing = plan.traffic == Traffic::Live;
        let ack_p50_us = median_of(traced.samples.iter().map(|s| s.ms)) * 1e3;
        layers.insert(
            "live.wire_overhead_us".to_string(),
            if standing {
                ack_p50_us - layers["live.mutate_us"]
            } else {
                0.0
            },
        );
        layers.insert(
            "wire.dist_overhead_us".to_string(),
            if standing {
                0.0
            } else {
                layers["wire.bl_serve_us"] - layers["net.bl_us"]
            },
        );
        per_layer = in_spec_order(&spec.per_layer, &layers)?;
        write_trace(&trace, &opts.out_dir, name)?;
    }

    Ok(Report {
        workload: name.to_string(),
        spec: plan.spec.clone(),
        end_to_end: in_spec_order(&spec.end_to_end, &e2e)?,
        per_layer,
        attempted: tally.attempted,
        failed: tally.failed,
        samples,
        window_s: measured.elapsed_s,
        warmup_s,
        errors: tally.errors,
    })
}

/// The wire layer as the client sees it, from the traced pass.
fn wire_layers(traced: &Load, trace: &Trace) -> BTreeMap<String, f64> {
    let mut layers = BTreeMap::new();
    for (slot, label) in QUERY_STRATEGIES.iter().enumerate() {
        layers.insert(
            format!("wire.{label}_serve_us"),
            median_of(
                traced
                    .samples
                    .iter()
                    .filter(|s| s.strategy == Some(slot) && s.server_us > 0.0)
                    .map(|s| s.server_us),
            ),
        );
    }
    // A client span's self time is what is left of the round trip once
    // the serve's own execution is taken out: frames, sockets, the job
    // queue and the writer lock.
    let own = trace.self_times_us();
    layers.insert(
        "wire.client_overhead_us".to_string(),
        median_of(
            trace
                .spans()
                .iter()
                .zip(&own)
                .filter(|(s, _)| matches!(s.name, "client.query" | "client.mutate"))
                .map(|(_, own)| *own),
        ),
    );
    // `retries` is per answer; `lost` is the answering worker's hub
    // counter since boot, so the largest value seen is the total so far.
    layers.insert(
        "wire.retries".to_string(),
        traced.samples.iter().map(|s| s.retries as f64).sum(),
    );
    layers.insert(
        "wire.lost".to_string(),
        traced
            .samples
            .iter()
            .map(|s| s.lost as f64)
            .fold(0.0, f64::max),
    );
    layers
}

fn write_trace(trace: &Trace, out_dir: &Path, workload: &str) -> Result<(), String> {
    std::fs::create_dir_all(out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let path = out_dir.join(format!("trace-{workload}.jsonl"));
    trace
        .write_jsonl(&path)
        .map_err(|e| format!("{}: {e}", path.display()))
}
