//! What the stack must answer: expected rows computed in this process
//! from the bench's own copy of the federation.
//!
//! One-shot queries are checked against the in-process distributed
//! executor ([`DistributedExecutor::run_local`]); standing queries are
//! checked by replaying the same subscriptions and mutations through an
//! in-process [`LiveReactor`] once the wire has gone quiet.

use crate::workload::{Plan, LIVE_STRATEGIES};
use fedoq_core::Federation;
use fedoq_live::{
    evaluate, render_conditioned, LiveEvent, LiveReactor, LiveStrategy, Registration,
};
use fedoq_net::{DistributedExecutor, DistributedStrategy};
use fedoq_object::DbId;
use fedoq_query::BoundQuery;
use fedoq_sim::SystemParams;
use fedoq_wire::{apply_mutation, parse_mutation, render_answer, ClientAnswer};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::ops::Range;
use std::time::Instant;

/// A row no federation produces; appended to falsify an expectation.
pub const CORRUPT_ROW: &str = "C corrupted()";

/// The fixed strategies an `adaptive` submission may resolve to.
const FIXED: [&str; 3] = ["ca", "bl", "pl"];

/// Expected rows of every pool query under every fixed strategy.
pub struct Expected {
    /// Per pool query: executed label (`CA`/`BL`/`PL`) → canonical rows.
    rows: Vec<HashMap<&'static str, Vec<String>>>,
}

/// Certain lines verbatim, and the GOid of every maybe line.
fn classification(rows: &[String]) -> (Vec<&str>, BTreeSet<&str>) {
    let mut certain = Vec::new();
    let mut maybe = BTreeSet::new();
    for row in rows {
        match row.strip_prefix("M ") {
            Some(rest) => {
                maybe.insert(rest.split('(').next().unwrap_or(rest));
            }
            None => certain.push(row.as_str()),
        }
    }
    (certain, maybe)
}

impl Expected {
    /// Runs every pool query under CA, BL and PL in-process.
    ///
    /// # Errors
    ///
    /// A pool query that fails to bind or execute.
    pub fn compute(plan: &Plan) -> Result<Expected, String> {
        let exec = DistributedExecutor::new();
        let mut rows = Vec::new();
        for sql in &plan.queries {
            let query = plan.fed.parse_and_bind(sql).map_err(|e| e.to_string())?;
            let mut by_label = HashMap::new();
            for name in FIXED {
                let strategy = DistributedStrategy::parse(name).ok_or("fixed strategy parses")?;
                let outcome = exec
                    .run_local(&plan.fed, &query, strategy)
                    .map_err(|e| format!("oracle {name} on {sql}: {e}"))?;
                by_label.insert(strategy.name(), render_answer(&outcome.answer));
            }
            rows.push(by_label);
        }
        Ok(Expected { rows })
    }

    /// Checks one wire answer to pool query `query` requested under
    /// `requested`. A fixed strategy must be executed as asked and match
    /// byte for byte. `adaptive` is compared with the strategy it reports
    /// having executed; a hybrid plan has no in-process twin with the
    /// same per-site schedule, so it must classify like BL: identical
    /// certain rows and the same set of maybe GOids.
    ///
    /// # Errors
    ///
    /// A one-line description of the first difference.
    pub fn check(
        &self,
        query: usize,
        requested: &str,
        answer: &ClientAnswer,
    ) -> Result<(), String> {
        if answer.is_degraded() {
            return Err(format!(
                "{requested}: degraded answer with no fault injected"
            ));
        }
        let expected = &self.rows[query];
        let adaptive = requested == "adaptive";
        if !adaptive && !answer.executed.eq_ignore_ascii_case(requested) {
            return Err(format!("{requested}: executed as {}", answer.executed));
        }
        if adaptive && answer.executed == "HY" {
            return if classification(&answer.rows) == classification(&expected["BL"]) {
                Ok(())
            } else {
                Err("adaptive (HY): classification differs from BL".to_string())
            };
        }
        match expected.get(answer.executed.as_str()) {
            Some(rows) if *rows == answer.rows => Ok(()),
            Some(rows) => Err(format!(
                "{requested} ({}): {} rows differ from the oracle's {}",
                answer.executed,
                answer.rows.len(),
                rows.len()
            )),
            None => Err(format!(
                "{requested}: unknown executed label {}",
                answer.executed
            )),
        }
    }

    /// Corrupts one expected row of every entry, so a test can see a
    /// wrong answer being counted.
    pub fn corrupt(&mut self) {
        for by_label in &mut self.rows {
            for rows in by_label.values_mut() {
                rows.push(CORRUPT_ROW.to_string());
            }
        }
    }
}

/// Delta batches one mutation caused: subscription slot → `(seq, lines)`.
pub type DeltaBatches = BTreeMap<usize, (u64, Vec<String>)>;

struct Slot {
    query: BoundQuery,
    strategy: LiveStrategy,
    registration: Registration,
}

/// The in-process twin of the serve's live session: the same
/// subscriptions — or a contiguous share of them — over the bench's own
/// federation copy. Slot `q * 4 + s` is pool query `q` under
/// `LIVE_STRATEGIES[s]`.
pub struct LiveOracle {
    reactor: LiveReactor,
    /// Slot of `slots[0]`.
    first: usize,
    slots: Vec<Slot>,
    /// Wall time of each initial `LiveReactor::register`, µs.
    pub register_us: Vec<f64>,
}

fn initial_snapshot(registration: &Registration) -> Result<Vec<String>, String> {
    match registration.events.try_recv() {
        Some(LiveEvent::Initial { answer, .. }) => Ok(render_conditioned(&answer)),
        other => Err(format!("expected an initial snapshot, got {other:?}")),
    }
}

impl LiveOracle {
    /// Registers the `(query, strategy)` pairs of slots `share` over
    /// `fed`; returns the oracle and each of its slots' initial snapshot.
    ///
    /// # Errors
    ///
    /// A query that does not bind, or a failed registration.
    pub fn new(
        queries: &[String],
        fed: Federation,
        share: Range<usize>,
    ) -> Result<(LiveOracle, Vec<Vec<String>>), String> {
        let mut oracle = LiveOracle {
            reactor: LiveReactor::new(fed),
            first: share.start,
            slots: Vec::new(),
            register_us: Vec::new(),
        };
        let mut snapshots = Vec::new();
        for (q, sql) in queries.iter().enumerate() {
            let query = oracle
                .reactor
                .federation()
                .parse_and_bind(sql)
                .map_err(|e| e.to_string())?;
            for (s, name) in LIVE_STRATEGIES.iter().enumerate() {
                if !share.contains(&(q * LIVE_STRATEGIES.len() + s)) {
                    continue;
                }
                let strategy = LiveStrategy::parse(name).ok_or("live strategy parses")?;
                let start = Instant::now();
                let registration = oracle
                    .reactor
                    .register(sql, strategy, 0)
                    .map_err(|e| e.to_string())?;
                oracle.register_us.push(start.elapsed().as_secs_f64() * 1e6);
                snapshots.push(initial_snapshot(&registration)?);
                oracle.slots.push(Slot {
                    query: query.clone(),
                    strategy,
                    registration,
                });
            }
        }
        Ok((oracle, snapshots))
    }

    /// Applies one mutation spec to site `db`; returns the delta batches
    /// it caused and the wall time of `LiveReactor::mutate` in µs.
    ///
    /// # Errors
    ///
    /// A spec that does not parse, or a store/re-evaluation failure.
    pub fn mutate(&mut self, db: DbId, spec: &str) -> Result<(DeltaBatches, f64), String> {
        let mutation = parse_mutation(spec)?;
        let start = Instant::now();
        self.reactor
            .mutate(db, |cdb| apply_mutation(cdb, &mutation))
            .map_err(|e| e.to_string())?;
        let us = start.elapsed().as_secs_f64() * 1e6;
        let mut batches = DeltaBatches::new();
        for (i, state) in self.slots.iter().enumerate() {
            while let Some(event) = state.registration.events.try_recv() {
                if let LiveEvent::Deltas { seq, deltas } = event {
                    let lines = deltas.iter().map(ToString::to_string).collect();
                    batches.insert(self.first + i, (seq, lines));
                }
            }
        }
        Ok((batches, us))
    }

    /// What a fresh subscription of slot `slot` must see now: its query
    /// evaluated from scratch on the oracle's mutated federation.
    ///
    /// # Errors
    ///
    /// An execution failure.
    pub fn snapshot(&self, slot: usize) -> Result<Vec<String>, String> {
        let Slot {
            query, strategy, ..
        } = &self.slots[slot - self.first];
        evaluate(
            self.reactor.federation(),
            query,
            *strategy,
            SystemParams::paper_default(),
            &BTreeSet::new(),
        )
        .map(|answer| render_conditioned(&answer))
        .map_err(|e| e.to_string())
    }

    /// Subscription evaluations and deltas the reactor has performed.
    pub fn counters(&self) -> (u64, u64) {
        (self.reactor.eval_count(), self.reactor.delta_count())
    }
}
