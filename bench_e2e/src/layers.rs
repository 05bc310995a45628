//! The in-process replay: the same query pool and mutation stream, run
//! through each crate's public functions with a span around every call.
//!
//! Layers are measured from outside — nothing in the program under test
//! is instrumented — so a layer here is a crate boundary: `query`,
//! `planner`, `core`, `sim` (the paper's virtual cost measures), `store`,
//! `schema`, `net`, `wire` (codec) and `live`.

use crate::oracle::LiveOracle;
use crate::trace::Trace;
use crate::workload::{Plan, Traffic};
use fedoq_core::{
    collect_catalog, query_fingerprint, refresh_catalog, run_strategy_with_pipeline, LookupCache,
    PipelineConfig, QueryAnswer,
};
use fedoq_net::{DistributedExecutor, DistributedStrategy};
use fedoq_object::{CmpOp, Value};
use fedoq_plan::{choose, PipelineKnobs};
use fedoq_query::BoundQuery;
use fedoq_sim::SystemParams;
use fedoq_store::{ComponentDb, LocalQuery};
use fedoq_wire::frame::{decode_payload, encode_frame};
use fedoq_wire::{apply_mutation, parse_mutation, render_answer, ClientAnswer, Frame};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::hint::black_box;

/// Wall-time budget of one replayed call site: a call is repeated until
/// this is spent, at least 5 and at most 20 times, so µs-scale calls get
/// 20 samples and 50 ms calls do not stretch the traced run.
const CALL_BUDGET_US: f64 = 200_000.0;
/// Mutations replayed for the live and store-update layers.
const REPLAYED_MUTATIONS: usize = 24;
/// GOid probes timed for the schema layer.
const GOID_PROBES: usize = 20_000;
/// `[magic][version][len]` header preceding a frame's payload.
const FRAME_HEADER: usize = 12;

/// Nearest-rank quantile of `values` (sorted in place); 0 when empty.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    values[((values.len() - 1) as f64 * q).round() as usize]
}

fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Per-metric observations gathered over the pool; timings reduce to
/// their median, counts to their mean.
#[derive(Default)]
struct Observations {
    timings: BTreeMap<String, Vec<f64>>,
    counts: BTreeMap<String, Vec<f64>>,
}

impl Observations {
    fn timing(&mut self, name: impl Into<String>, values: impl IntoIterator<Item = f64>) {
        self.timings.entry(name.into()).or_default().extend(values);
    }

    fn count(&mut self, name: impl Into<String>, value: f64) {
        self.counts.entry(name.into()).or_default().push(value);
    }

    fn reduce(self) -> BTreeMap<String, f64> {
        let mut out = BTreeMap::new();
        for (name, mut values) in self.timings {
            out.insert(name, quantile(&mut values, 0.5));
        }
        for (name, values) in self.counts {
            out.insert(name, mean(&values));
        }
        out
    }
}

/// Calls `f` repeatedly inside `name` spans until the call budget is
/// spent; returns every duration in µs and the last result.
fn repeat<R>(
    trace: &mut Trace,
    query: u64,
    name: &'static str,
    mut f: impl FnMut() -> R,
) -> (Vec<f64>, R) {
    let (mut out, first) = trace.time(query, name, &mut f);
    let reps = ((CALL_BUDGET_US / first.max(1.0)) as usize).clamp(5, 20);
    let mut times = vec![first];
    for _ in 1..reps {
        let (next, us) = trace.time(query, name, &mut f);
        out = next;
        times.push(us);
    }
    (times, out)
}

/// Compiles, for every site, the scan of the root extent with the
/// query's predicates that site's local schema can evaluate (missing
/// attributes drop out, exactly as they do in a localized plan).
fn root_scans<'a>(plan: &'a Plan, query: &BoundQuery) -> Vec<(&'a ComponentDb, LocalQuery)> {
    let fed = &plan.fed;
    let predicates: Vec<(String, CmpOp, Value)> = query
        .source()
        .predicates()
        .iter()
        .map(|p| (p.path().to_string(), p.op(), p.literal().clone()))
        .collect();
    let mut scans = Vec::new();
    for constituent in fed.global_schema().class(query.range()).constituents() {
        let db = fed.db(constituent.db());
        let class = constituent.class_name();
        let local: Vec<(&str, CmpOp, Value)> = predicates
            .iter()
            .map(|(path, op, literal)| (path.as_str(), *op, literal.clone()))
            .filter(|p| LocalQuery::build(db, class, std::slice::from_ref(p), &[]).is_ok())
            .collect();
        if let Ok(scan) = LocalQuery::build(db, class, &local, &[]) {
            scans.push((db, scan));
        }
    }
    scans
}

/// Replays `plan` in-process and returns the per-layer metrics it can
/// measure without the wire (everything but `wire.*_serve_us`, the
/// overheads derived from them, `client.*` and `trace.*`).
///
/// # Errors
///
/// A pool query that fails to bind or execute.
pub fn replay(plan: &Plan, trace: &mut Trace) -> Result<BTreeMap<String, f64>, String> {
    let fed = &plan.fed;
    let params = SystemParams::paper_default();
    let pipeline = PipelineConfig {
        cache: plan.cache,
        ..PipelineConfig::default()
    };
    let knobs = PipelineKnobs {
        threads: 1.0,
        warmth: 0.0,
        batch: 0.0,
    };
    let mut seen = Observations::default();

    let (times, mut catalog) = repeat(trace, 0, "planner.collect", || collect_catalog(fed, params));
    seen.timing("planner.collect_us", times);

    let cache = RefCell::new(LookupCache::default());
    let core_cache = plan.cache.then_some(&cache);
    let exec = DistributedExecutor::new().with_pipeline(pipeline);
    // (strategy, core span, net span)
    let strategies = [
        ("ca", "core.ca", "net.ca"),
        ("bl", "core.bl", "net.bl"),
        ("pl", "core.pl", "net.pl"),
    ];

    for (qi, sql) in plan.queries.iter().enumerate() {
        let id = qi as u64;
        let (times, query) = repeat(trace, id, "query.parse_bind", || fed.parse_and_bind(sql));
        seen.timing("query.parse_bind_us", times);
        let query = query.map_err(|e| e.to_string())?;
        let fingerprint = query_fingerprint(&query);

        let (times, ()) = repeat(trace, id, "planner.refresh", || {
            refresh_catalog(&mut catalog, fed);
        });
        seen.timing("planner.refresh_us", times);
        let (times, _) = repeat(trace, id, "planner.choose", || {
            choose(
                &catalog,
                fed.global_schema(),
                &query,
                &knobs,
                fingerprint,
                true,
            )
        });
        seen.timing("planner.choose_us", times);

        let mut bl_answer: Option<QueryAnswer> = None;
        for (name, core_span, net_span) in strategies {
            let strategy = DistributedStrategy::parse(name).ok_or("fixed strategy parses")?;
            let sync = strategy.sync();
            let (times, run) = repeat(trace, id, core_span, || {
                run_strategy_with_pipeline(sync.as_ref(), fed, &query, params, pipeline, core_cache)
            });
            seen.timing(format!("{core_span}_us"), times);
            let (answer, metrics) = run.map_err(|e| format!("core {name}: {e}"))?;
            for (measure, value) in [
                ("response_us", metrics.response_us),
                ("total_us", metrics.total_execution_us),
                ("net_bytes", metrics.bytes_transferred as f64),
                ("messages", metrics.messages as f64),
                ("comparisons", metrics.comparisons as f64),
            ] {
                seen.count(format!("sim.{name}_{measure}"), value);
            }
            if name == "bl" {
                let rows = answer.certain().len() + answer.maybe().len();
                seen.count("core.rows_per_query", rows as f64);
                seen.count(
                    "core.maybe_share",
                    answer.maybe().len() as f64 / rows.max(1) as f64,
                );
                bl_answer = Some(answer);
            }

            let (times, outcome) = repeat(trace, id, net_span, || {
                exec.run_local(fed, &query, strategy)
            });
            seen.timing(format!("{net_span}_us"), times);
            let outcome = outcome.map_err(|e| format!("net {name}: {e}"))?;
            seen.count("net.messages_per_query", outcome.delivered as f64);
        }

        let scans = root_scans(plan, &query);
        let (times, rows) = repeat(trace, id, "store.scan", || {
            scans
                .iter()
                .map(|(db, scan)| black_box(scan.execute(db)).len())
                .sum::<usize>()
        });
        let objects: usize = scans
            .iter()
            .map(|(db, scan)| db.extent(scan.class()).len())
            .sum();
        let scan_us = quantile(&mut times.clone(), 0.5);
        seen.timing("store.scan_us", times);
        seen.count("store.scan_objects", objects as f64);
        seen.count(
            "store.scan_ns_per_object",
            scan_us * 1e3 / objects.max(1) as f64,
        );
        seen.count(
            "store.examined_per_result",
            objects as f64 / rows.max(1) as f64,
        );

        let answer = bl_answer.ok_or("BL ran")?;
        let (times, rows) = repeat(trace, id, "wire.render", || render_answer(&answer));
        seen.timing("wire.render_us", times);
        let frame = Frame::Answer {
            id,
            reply: Ok(ClientAnswer {
                executed: "BL".to_string(),
                rows,
                degraded_sites: Vec::new(),
                retries: 0,
                forwarded: 0,
                lost: 0,
                server_us: 0.0,
            }),
        };
        let (times, bytes) = repeat(trace, id, "wire.answer_encode", || encode_frame(&frame));
        seen.timing("wire.answer_encode_us", times);
        seen.count("wire.answer_bytes", bytes.len() as f64);
        let (times, decoded) = repeat(trace, id, "wire.answer_decode", || {
            decode_payload(&bytes[FRAME_HEADER..])
        });
        seen.timing("wire.answer_decode_us", times);
        if encode_frame(&decoded.map_err(|e| e.to_string())?) != bytes {
            return Err("an encoded answer frame did not decode to itself".to_string());
        }
    }
    // Meaningful only where the cache is on; 0 (never probed) elsewhere.
    seen.count("core.cache_hit_rate", exec.cache_stats().hit_rate());

    // schema: LOid → GOid → isomeric siblings, the hop every assistant
    // lookup starts with.
    let first = fed
        .parse_and_bind(&plan.queries[0])
        .map_err(|e| e.to_string())?;
    let root = fed.global_schema().class(first.range());
    let table = fed.catalog().table(first.range());
    let loids: Vec<_> = root
        .constituents()
        .iter()
        .flat_map(|c| fed.db(c.db()).extent(c.class()).loids())
        .take(GOID_PROBES)
        .collect();
    let (times, _) = repeat(trace, 0, "schema.goid_probe", || {
        loids
            .iter()
            .filter(|&&loid| table.goid_of(loid).is_some())
            .map(|&loid| table.siblings(loid).count())
            .sum::<usize>()
    });
    seen.timing(
        "schema.goid_probe_ns",
        times.iter().map(|us| us * 1e3 / loids.len().max(1) as f64),
    );

    let mut metrics = seen.reduce();
    metrics.insert(
        "net.overhead_us".to_string(),
        metrics["net.bl_us"] - metrics["core.bl_us"],
    );
    metrics.extend(replay_live(plan, trace)?);
    Ok(metrics)
}

/// The live and store-update layers: standing queries registered on an
/// in-process reactor, then the head of the mutation stream replayed.
/// Workloads without standing queries never enter these layers and
/// report 0 for them.
fn replay_live(plan: &Plan, trace: &mut Trace) -> Result<BTreeMap<String, f64>, String> {
    let mut seen = Observations::default();
    let names = [
        "live.register_us",
        "live.mutate_us",
        "live.evals_per_mutation",
        "live.deltas_per_mutation",
        "live.useful_eval_ratio",
        "store.update_us",
    ];
    if plan.traffic != Traffic::Live {
        return Ok(names.iter().map(|n| (n.to_string(), 0.0)).collect());
    }

    let began = trace.now_us();
    let (mut oracle, _) = LiveOracle::new(&plan.queries, plan.fed.clone(), 0..plan.slots())?;
    let mut at = began;
    for &us in &oracle.register_us {
        trace.record(None, 0, "live.register", at, at + us);
        at += us;
    }
    seen.timing("live.register_us", oracle.register_us.iter().copied());

    let (evals_before, deltas_before) = oracle.counters();
    let mut useful = 0usize;
    for (i, (db, spec)) in plan.mutations().take(REPLAYED_MUTATIONS).enumerate() {
        let start = trace.now_us();
        let (batches, us) = oracle.mutate(db, &spec)?;
        trace.record(None, i as u64, "live.mutate", start, start + us);
        seen.timing("live.mutate_us", [us]);
        useful += batches
            .values()
            .filter(|(_, lines)| !lines.is_empty())
            .count();
    }
    let (evals, deltas) = oracle.counters();
    let evals = (evals - evals_before) as f64;
    let n = REPLAYED_MUTATIONS as f64;
    seen.count("live.evals_per_mutation", evals / n);
    seen.count(
        "live.deltas_per_mutation",
        (deltas - deltas_before) as f64 / n,
    );
    seen.count("live.useful_eval_ratio", useful as f64 / evals.max(1.0));

    // store: the write path alone (apply + index, key-map, change-log and
    // signature maintenance), without any subscription to re-evaluate.
    let mut fed = plan.fed.clone();
    for (i, (db, spec)) in plan.mutations().take(REPLAYED_MUTATIONS).enumerate() {
        let mutation = parse_mutation(&spec)?;
        let (result, us) = trace.time(i as u64, "store.update", || {
            fed.mutate(db, |cdb| apply_mutation(cdb, &mutation))
        });
        result.map_err(|e| e.to_string())?;
        seen.timing("store.update_us", [us]);
    }
    Ok(seen.reduce())
}
