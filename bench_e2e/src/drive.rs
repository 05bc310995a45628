//! The closed-loop load generator: blocking [`WireClient`]s that send
//! the next request only after the previous reply, one thread per
//! connection, at most two of each.
//!
//! Every answer is checked against the oracle *after* its latency was
//! taken, so verification never sits inside a timed interval; live
//! operations are kept and checked once the wire is quiet.

use crate::oracle::{DeltaBatches, Expected, LiveOracle};
use crate::trace::Trace;
use crate::workload::{MutationStream, Plan, LIVE_STRATEGIES, QUERY_STRATEGIES, STRATEGIES};
use fedoq_core::Federation;
use fedoq_object::DbId;
use fedoq_wire::{ClientAnswer, WireClient};
use std::ops::Range;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Errors kept verbatim per load (the rest are only counted).
const KEPT_ERRORS: usize = 5;

/// One completed, timed operation.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Strategy slot of a query; `None` for a mutation.
    pub strategy: Option<usize>,
    /// Client-observed latency, send → reply.
    pub ms: f64,
    /// When the reply arrived, seconds into the load phase.
    pub at_s: f64,
    /// The serve's own execution time (`ClientAnswer.server_us`); 0 for
    /// replies that do not carry one.
    pub server_us: f64,
    pub retries: u64,
    pub lost: u64,
}

/// What one load phase did.
#[derive(Default)]
pub struct Load {
    pub samples: Vec<Sample>,
    pub attempted: u64,
    pub failed: u64,
    pub elapsed_s: f64,
    /// Total time spent verifying replies, µs (outside the latencies).
    pub check_us: f64,
    pub errors: Vec<String>,
}

impl Load {
    fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.errors.len() < KEPT_ERRORS {
            self.errors.push(message);
        }
    }

    fn merge(&mut self, other: Load) {
        self.samples.extend(other.samples);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.check_us += other.check_us;
        self.elapsed_s = self.elapsed_s.max(other.elapsed_s);
        for e in other.errors {
            if self.errors.len() < KEPT_ERRORS {
                self.errors.push(e);
            }
        }
    }
}

fn query_sample(strategy: usize, ms: f64, at_s: f64, answer: &ClientAnswer) -> Sample {
    Sample {
        strategy: Some(strategy),
        ms,
        at_s,
        server_us: answer.server_us,
        retries: answer.retries,
        lost: answer.lost,
    }
}

/// How long traffic runs: at least `length`, and at least `min_ops`
/// operations per connection (so a short warm-up still touches every
/// `(query, strategy)` pair).
#[derive(Debug, Clone, Copy)]
pub struct Window {
    pub length: Duration,
    pub min_ops: u64,
}

/// Records a client span with the server's share as its child. The
/// reply does not say when the server started, so the child is centred.
fn record_round_trip(
    trace: &mut Trace,
    op: u64,
    names: (&'static str, &'static str),
    start_us: f64,
    end_us: f64,
    server_us: f64,
) {
    let parent = trace.record(None, op, names.0, start_us, end_us);
    if server_us > 0.0 {
        let slack = ((end_us - start_us) - server_us).max(0.0) / 2.0;
        trace.record(
            Some(parent),
            op,
            names.1,
            start_us + slack,
            (start_us + slack + server_us).min(end_us),
        );
    }
}

/// Drives `plan`'s query pool against `addr` from `plan.connections`
/// threads until `window` is over. With `trace`, every operation also
/// records a `client.query` span and its `serve.execute` child.
pub fn query_load(
    addr: &str,
    plan: &Plan,
    expected: &Expected,
    window: Window,
    trace: Option<&mut Trace>,
) -> Load {
    let barrier = Barrier::new(plan.connections);
    let epoch = trace.as_ref().map(|t| t.epoch());
    let results: Vec<(Load, Option<Trace>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..plan.connections)
            .map(|conn| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut load = Load::default();
                    let mut spans = epoch.map(Trace::at);
                    let client = WireClient::connect(addr);
                    barrier.wait();
                    let mut client = match client {
                        Ok(c) => c,
                        Err(e) => {
                            load.attempted += 1;
                            load.fail(format!("connect: {e}"));
                            return (load, spans);
                        }
                    };
                    let schedule = plan.schedule(conn as u64);
                    let begin = Instant::now();
                    let mut ops = 0u64;
                    while begin.elapsed() < window.length || ops < window.min_ops {
                        let (q, s) = schedule[ops as usize % schedule.len()];
                        let requested = QUERY_STRATEGIES[s];
                        let start_us = spans.as_ref().map(Trace::now_us);
                        let sent = Instant::now();
                        let reply = client.query(&plan.queries[q], requested);
                        let ms = sent.elapsed().as_secs_f64() * 1e3;
                        let at_s = begin.elapsed().as_secs_f64();
                        ops += 1;
                        load.attempted += 1;
                        let checking = Instant::now();
                        match reply {
                            Ok(Ok(answer)) => match expected.check(q, requested, &answer) {
                                Ok(()) => {
                                    load.samples.push(query_sample(s, ms, at_s, &answer));
                                    if let (Some(t), Some(start_us)) = (spans.as_mut(), start_us) {
                                        record_round_trip(
                                            t,
                                            ops * plan.connections as u64 + conn as u64,
                                            ("client.query", "serve.execute"),
                                            start_us,
                                            start_us + ms * 1e3,
                                            answer.server_us,
                                        );
                                    }
                                }
                                Err(e) => load.fail(format!("query {q}: {e}")),
                            },
                            Ok(Err(e)) => load.fail(format!("query {q} {requested}: {e}")),
                            Err(e) => {
                                load.fail(format!("transport: {e}"));
                                break;
                            }
                        }
                        load.check_us += checking.elapsed().as_secs_f64() * 1e6;
                    }
                    load.elapsed_s = begin.elapsed().as_secs_f64();
                    (load, spans)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut total = Load::default();
    let mut trace = trace;
    for (load, spans) in results {
        total.merge(load);
        if let (Some(t), Some(spans)) = (trace.as_deref_mut(), spans) {
            t.absorb(spans);
        }
    }
    total
}

/// The setup probe of a query workload: one verified answer under each
/// strategy on a fresh connection.
///
/// # Errors
///
/// A transport failure. Error replies and wrong answers are counted in
/// the returned [`Load`] instead.
pub fn probe_queries(addr: &str, plan: &Plan, expected: &Expected) -> Result<Load, String> {
    let mut client = WireClient::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let mut load = Load::default();
    for requested in QUERY_STRATEGIES {
        load.attempted += 1;
        let verdict = client
            .query(&plan.queries[0], requested)
            .map_err(|e| format!("transport: {e}"))?
            .and_then(|answer| expected.check(0, requested, &answer));
        if let Err(e) = verdict {
            load.fail(format!("setup probe: {e}"));
        }
    }
    Ok(load)
}

/// One connection with every standing query of a live plan subscribed.
pub struct LiveClient {
    client: WireClient,
    /// Wire watch id of each subscription slot.
    watches: Vec<u64>,
}

impl LiveClient {
    /// The setup probe of the live workload: connects and subscribes
    /// every `(query, strategy)` slot, checking each snapshot.
    ///
    /// # Errors
    ///
    /// A transport failure. Refused watches and wrong snapshots are
    /// counted in the returned [`Load`] instead.
    pub fn subscribe_all(
        addr: &str,
        plan: &Plan,
        snapshots: &[Vec<String>],
    ) -> Result<(LiveClient, Load), String> {
        let mut client = WireClient::connect(addr).map_err(|e| format!("connect: {e}"))?;
        let mut watches = Vec::new();
        let mut load = Load::default();
        for (q, sql) in plan.queries.iter().enumerate() {
            for (s, strategy) in LIVE_STRATEGIES.iter().enumerate() {
                load.attempted += 1;
                let (watch, snapshot) = client
                    .subscribe(sql, strategy, 0)
                    .map_err(|e| format!("transport: {e}"))?;
                match snapshot {
                    Ok(rows) if rows == snapshots[q * STRATEGIES + s] => {}
                    Ok(_) => load.fail(format!("subscribe {q} {strategy}: snapshot differs")),
                    Err(e) => load.fail(format!("subscribe {q} {strategy}: {e}")),
                }
                watches.push(watch);
            }
        }
        Ok((LiveClient { client, watches }, load))
    }
}

/// A completed live operation, kept until the wire is quiet: the oracle
/// costs about as much CPU per mutation as the serve does, so replaying
/// alongside the stream would have the bench contend with the stack it
/// is timing on a two-core box.
pub enum LiveOp {
    Mutated {
        db: DbId,
        spec: String,
        /// Received delta batches, already mapped watch → slot; `Err`
        /// when a frame named an unknown watch or carried an error.
        received: Result<DeltaBatches, String>,
    },
    /// What a fresh subscription of `slot` saw after everything before it.
    Snapshot { slot: usize, rows: Vec<String> },
}

/// Oracles the live replay is split over. Each holds its share of the
/// standing queries, replays the whole stream on a thread of its own and
/// checks its share of every delta batch; a replay costs as much as the
/// window it checks, and by then both cores are idle.
const REPLAY_SHARES: usize = 2;

/// Replays `ops` through in-process oracles in the order the wire saw
/// them, counting every difference.
pub fn verify_live(plan: &Plan, ops: &[LiveOp]) -> Load {
    let slots = plan.slots();
    let checking = Instant::now();
    let mut verdict = Load::default();
    std::thread::scope(|scope| {
        let shares: Vec<_> = (0..REPLAY_SHARES)
            .map(|k| {
                let share = k * slots / REPLAY_SHARES..(k + 1) * slots / REPLAY_SHARES;
                let fed = plan.fed.clone();
                scope.spawn(move || verify_share(&plan.queries, fed, share, ops))
            })
            .collect();
        for share in shares {
            verdict.merge(share.join().expect("oracle thread panicked"));
        }
    });
    verdict.check_us = checking.elapsed().as_secs_f64() * 1e6;
    verdict
}

fn verify_share(queries: &[String], fed: Federation, share: Range<usize>, ops: &[LiveOp]) -> Load {
    let mut verdict = Load::default();
    let mut oracle = match LiveOracle::new(queries, fed, share.clone()) {
        Ok((oracle, _)) => oracle,
        Err(e) => {
            verdict.fail(e);
            return verdict;
        }
    };
    for op in ops {
        match op {
            LiveOp::Mutated { db, spec, received } => match (oracle.mutate(*db, spec), received) {
                (Ok((expected, _)), Ok(received)) => {
                    if !expected.iter().eq(received.range(share.clone())) {
                        verdict.fail(format!("deltas of '{spec}' differ"));
                    }
                }
                (Err(e), _) => verdict.fail(format!("'{spec}': {e}")),
                // A broken reply is one failure, not one per share.
                (_, Err(e)) if share.start == 0 => verdict.fail(format!("'{spec}': {e}")),
                (_, Err(_)) => {}
            },
            LiveOp::Snapshot { slot, rows } if share.contains(slot) => {
                match oracle.snapshot(*slot) {
                    Ok(expected) if expected == *rows => {}
                    Ok(_) => verdict.fail(format!("snapshot of slot {slot} differs")),
                    Err(e) => verdict.fail(format!("slot {slot}: {e}")),
                }
            }
            LiveOp::Snapshot { .. } => {}
        }
    }
    verdict
}

/// Drives the mutation stream over `live`'s connection until `window`
/// is over, appending every completed operation to `done`. With `trace`,
/// every mutation records a `client.mutate` span with a `serve.mutate`
/// child.
pub fn live_load(
    live: &mut LiveClient,
    stream: &mut MutationStream,
    done: &mut Vec<LiveOp>,
    window: Window,
    mut trace: Option<&mut Trace>,
) -> Load {
    let mut load = Load::default();
    let begin = Instant::now();
    let mut ops = 0u64;
    while begin.elapsed() < window.length || ops < window.min_ops {
        ops += 1;
        load.attempted += 1;
        let start_us = trace.as_ref().map(|t| t.now_us());
        match mutate_once(live, stream, done) {
            Ok(mut sample) => {
                sample.at_s = begin.elapsed().as_secs_f64();
                if let (Some(t), Some(start_us)) = (trace.as_deref_mut(), start_us) {
                    record_round_trip(
                        t,
                        ops,
                        ("client.mutate", "serve.mutate"),
                        start_us,
                        start_us + sample.ms * 1e3,
                        sample.server_us,
                    );
                }
                load.samples.push(sample);
            }
            Err(e) => {
                let transport = e.starts_with("transport");
                load.fail(e);
                if transport {
                    break;
                }
            }
        }
    }
    load.elapsed_s = begin.elapsed().as_secs_f64();
    load
}

fn mutate_once(
    live: &mut LiveClient,
    stream: &mut MutationStream,
    done: &mut Vec<LiveOp>,
) -> Result<Sample, String> {
    let (db, spec) = stream.next().expect("the mutation stream is endless");
    let sent = Instant::now();
    let (ack, deltas) = live
        .client
        .mutate(db.index() as u16, &spec)
        .map_err(|e| format!("transport: {e}"))?;
    let ms = sent.elapsed().as_secs_f64() * 1e3;
    let ack = ack.map_err(|e| format!("'{spec}': {e}"))?;
    let mut received = Ok(DeltaBatches::new());
    for event in deltas {
        let slot = live.watches.iter().position(|w| *w == event.watch);
        received = match (received, slot, event.reply) {
            (Ok(mut batches), Some(slot), Ok(lines)) => {
                batches.insert(slot, (event.seq, lines));
                Ok(batches)
            }
            (Ok(_), None, _) => Err(format!("delta for unknown watch {}", event.watch)),
            (Ok(_), _, Err(e)) => Err(format!("watch {} died: {e}", event.watch)),
            (Err(e), _, _) => Err(e),
        };
    }
    done.push(LiveOp::Mutated { db, spec, received });
    Ok(Sample {
        strategy: None,
        ms,
        at_s: 0.0, // stamped by the caller
        server_us: ack.server_us,
        retries: ack.retries,
        lost: ack.lost,
    })
}

/// The end-of-run check of the live workload: every standing query is
/// dropped and subscribed afresh, and the snapshot kept for the oracle
/// to compare with a from-scratch evaluation on its mutated copy.
pub fn final_check(live: &mut LiveClient, plan: &Plan, done: &mut Vec<LiveOp>) -> Load {
    let mut load = Load::default();
    for slot in 0..live.watches.len() {
        load.attempted += 1;
        let (q, s) = (slot / STRATEGIES, slot % STRATEGIES);
        let fresh = live.client.unsubscribe(live.watches[slot]).and_then(|()| {
            live.client
                .subscribe(&plan.queries[q], LIVE_STRATEGIES[s], 0)
        });
        match fresh {
            Ok((watch, Ok(rows))) => {
                live.watches[slot] = watch;
                done.push(LiveOp::Snapshot { slot, rows });
            }
            Ok((_, Err(e))) => load.fail(format!("resubscribe slot {slot}: {e}")),
            Err(e) => {
                load.fail(format!("transport: {e}"));
                break;
            }
        }
    }
    load
}
