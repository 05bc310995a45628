//! The subscription reactor: standing queries maintained incrementally
//! from the federation change log.
//!
//! A [`LiveReactor`] owns the [`Federation`]. Clients register standing
//! queries ([`LiveReactor::register`]); each runs once through the
//! existing executor, and its *conditioned* answer — every maybe row
//! annotated with the (site, object, attribute) facts it is contingent on
//! — is retained together with two indexes:
//!
//! * the query's **class footprint** ([`BoundQuery::class_footprint`]),
//!   which decides whether a logged change can affect the answer at all;
//! * a **(site, class, attribute) dependency index** over the live
//!   condition atoms, which maps reachability transitions to the
//!   subscriptions whose maybe rows they degrade or restore.
//!
//! Mutations route through [`LiveReactor::mutate`]; the reactor then
//! consumes the [`Federation::mutate`] change log through its own
//! [`ChangeCursor`] and re-evaluates *only* the subscriptions whose
//! footprint the batch touched, emitting [`Delta`] batches over
//! `fedoq-sync` channels. Admission shares the scheduler's priority
//! ladder ([`fedoq_sched::Admission`]): at most `slots` standing queries
//! are active, and a freed slot goes to the oldest highest-priority
//! waiter.
//!
//! Correctness contract: after any mutation/heal sequence, each
//! subscription's maintained answer is **byte-identical** to
//! [`evaluate`] run from scratch — the differential property
//! `tests/live_differential.rs` enforces.

use crate::delta::{diff, Delta, LiveEvent, Resolution, Trigger};
use crate::trace::LiveTraceEvent;
use fedoq_core::{
    annotate_conditions, run_strategy, ChangeCursor, ChangeRecord, ConditionedAnswer, ExecError,
    ExecPlan, Federation, LocalizedConfig, LocalizedMode, ModePolicy,
};
use fedoq_object::{DbId, GlobalClassId};
use fedoq_query::BoundQuery;
use fedoq_sched::gate::Admit;
use fedoq_sched::{Admission, AdmitPermit};
use fedoq_sim::SystemParams;
use fedoq_sync::{channel, Receiver, Sender};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::future::Future;
use std::pin::Pin;
use std::task::{Context, Poll, Waker};

/// Identifier of one standing query within a reactor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SubId(u64);

impl SubId {
    /// Builds an id from its raw number (used by the wire layer).
    pub fn new(raw: u64) -> SubId {
        SubId(raw)
    }

    /// The raw number.
    pub fn raw(&self) -> u64 {
        self.0
    }
}

impl fmt::Display for SubId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "w{}", self.0)
    }
}

/// Which executor a standing query runs under — the paper's three
/// strategies plus the per-site hybrid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LiveStrategy {
    /// Centralized (ship everything to the global site).
    CA,
    /// Basic localized (local filters first, then assistants).
    BL,
    /// Parallel localized (assistants overlap local work).
    PL,
    /// Hybrid: PL's schedule at even-indexed sites, BL's elsewhere.
    HY,
}

impl LiveStrategy {
    /// Parses a strategy name, case-insensitively.
    pub fn parse(name: &str) -> Option<LiveStrategy> {
        match name.to_ascii_uppercase().as_str() {
            "CA" => Some(LiveStrategy::CA),
            "BL" => Some(LiveStrategy::BL),
            "PL" => Some(LiveStrategy::PL),
            "HY" => Some(LiveStrategy::HY),
            _ => None,
        }
    }

    /// The canonical label.
    pub fn label(&self) -> &'static str {
        match self {
            LiveStrategy::CA => "CA",
            LiveStrategy::BL => "BL",
            LiveStrategy::PL => "PL",
            LiveStrategy::HY => "HY",
        }
    }

    /// All four strategies (for sweeps).
    pub fn all() -> [LiveStrategy; 4] {
        [
            LiveStrategy::CA,
            LiveStrategy::BL,
            LiveStrategy::PL,
            LiveStrategy::HY,
        ]
    }

    fn plan(&self, fed: &Federation) -> ExecPlan {
        let policy = match self {
            LiveStrategy::CA => return ExecPlan::Centralized,
            LiveStrategy::BL => ModePolicy::Uniform(LocalizedMode::Basic),
            LiveStrategy::PL => ModePolicy::Uniform(LocalizedMode::Parallel),
            // A deterministic site split so the hybrid genuinely mixes
            // both schedules regardless of federation shape.
            LiveStrategy::HY => ModePolicy::ParallelAt(
                fed.dbs()
                    .iter()
                    .map(fedoq_store::ComponentDb::id)
                    .filter(|d| d.index() % 2 == 0)
                    .collect(),
            ),
        };
        ExecPlan::Localized {
            policy,
            config: LocalizedConfig::default(),
        }
    }
}

impl fmt::Display for LiveStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Runs `query` once under `strategy` and conditions the answer: execute,
/// annotate every maybe row with its condition, then tag degradation
/// from the `down` set.
///
/// This composed function is **also the from-scratch reference** for the
/// reactor's incremental maintenance — the reactor calls exactly this on
/// re-evaluation, so the differential test checks the *skipping* logic
/// (which subscriptions were not re-evaluated), not a second
/// implementation of evaluation.
///
/// # Errors
///
/// Propagates the executor's [`ExecError`].
pub fn evaluate(
    fed: &Federation,
    query: &BoundQuery,
    strategy: LiveStrategy,
    params: SystemParams,
    down: &BTreeSet<DbId>,
) -> Result<ConditionedAnswer, ExecError> {
    let (answer, _) = run_strategy(&strategy.plan(fed), fed, query, params)?;
    Ok(annotate_conditions(fed, query, &answer).with_degraded_sites(down))
}

/// The client half of a registration: the id plus the event stream
/// (an [`LiveEvent::Initial`] snapshot on activation, then
/// [`LiveEvent::Deltas`] batches).
pub struct Registration {
    /// The subscription id (quote it to `unsubscribe`).
    pub sub: SubId,
    /// The event stream.
    pub events: Receiver<LiveEvent>,
    /// `false` if the priority ladder was full and the subscription is
    /// queued; it activates when a slot frees.
    pub admitted: bool,
}

/// What one [`LiveReactor::pump`] did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PumpOutcome {
    /// Change records consumed from the log.
    pub records: usize,
    /// Subscriptions whose footprint the batch touched (re-evaluated).
    pub affected: usize,
    /// Deltas emitted across all affected subscriptions.
    pub deltas: usize,
}

struct Active {
    query: BoundQuery,
    sql: String,
    strategy: LiveStrategy,
    priority: u8,
    footprint: BTreeSet<GlobalClassId>,
    state: ConditionedAnswer,
    sender: Sender<LiveEvent>,
    seq: u64,
    evals: u64,
    _permit: AdmitPermit,
}

/// Everything an activation needs, bundled so it can sit in the waiting
/// queue until the ladder grants a slot.
struct Spec {
    sql: String,
    query: BoundQuery,
    strategy: LiveStrategy,
    priority: u8,
    sender: Sender<LiveEvent>,
}

struct Waiting {
    spec: Spec,
    admit: Admit,
}

/// The subscription reactor. See the module docs.
pub struct LiveReactor {
    fed: Federation,
    params: SystemParams,
    cursor: ChangeCursor,
    admission: Admission,
    subs: BTreeMap<SubId, Active>,
    waiting: BTreeMap<SubId, Waiting>,
    /// (site, class, attribute) → subscriptions with a live condition
    /// atom there. Drives reachability handling and flip attribution.
    cond_index: BTreeMap<(DbId, GlobalClassId, usize), BTreeSet<SubId>>,
    down: BTreeSet<DbId>,
    next_id: u64,
    trace: Vec<LiveTraceEvent>,
    evals_total: u64,
    deltas_total: u64,
}

impl LiveReactor {
    /// A reactor over `fed` with the default admission ladder (256
    /// slots) and the paper's system parameters.
    pub fn new(fed: Federation) -> LiveReactor {
        let cursor = fed.change_cursor();
        LiveReactor {
            fed,
            params: SystemParams::paper_default(),
            cursor,
            admission: Admission::new(256),
            subs: BTreeMap::new(),
            waiting: BTreeMap::new(),
            cond_index: BTreeMap::new(),
            down: BTreeSet::new(),
            next_id: 0,
            trace: Vec::new(),
            evals_total: 0,
            deltas_total: 0,
        }
    }

    /// Replaces the admission ladder with one of `slots` slots (only
    /// meaningful before the first registration).
    pub fn with_slots(mut self, slots: usize) -> LiveReactor {
        self.admission = Admission::new(slots);
        self
    }

    /// Replaces the cost-model parameters.
    pub fn with_params(mut self, params: SystemParams) -> LiveReactor {
        self.params = params;
        self
    }

    /// The owned federation (read-only; mutate through
    /// [`LiveReactor::mutate`]).
    pub fn federation(&self) -> &Federation {
        &self.fed
    }

    /// Sites currently marked unreachable.
    pub fn down_sites(&self) -> &BTreeSet<DbId> {
        &self.down
    }

    /// Number of active subscriptions.
    pub fn active_count(&self) -> usize {
        self.subs.len()
    }

    /// Number of registrations queued behind the admission ladder.
    pub fn waiting_count(&self) -> usize {
        self.waiting.len()
    }

    /// Total evaluations run (initial + incremental), for benchmarks.
    pub fn eval_count(&self) -> u64 {
        self.evals_total
    }

    /// Total deltas emitted, for benchmarks.
    pub fn delta_count(&self) -> u64 {
        self.deltas_total
    }

    /// The active subscriptions: id, SQL, strategy, priority.
    pub fn subscriptions(&self) -> impl Iterator<Item = (SubId, &str, LiveStrategy, u8)> + '_ {
        self.subs
            .iter()
            .map(|(id, s)| (*id, s.sql.as_str(), s.strategy, s.priority))
    }

    /// The maintained conditioned answer of one active subscription.
    pub fn answer(&self, sub: SubId) -> Option<&ConditionedAnswer> {
        self.subs.get(&sub).map(|s| &s.state)
    }

    /// Drains the audit trail (see [`LiveTraceEvent`]); feed it to
    /// `fedoq-check`'s FQ308 analyzer to certify reclassification
    /// soundness.
    pub fn take_trace(&mut self) -> Vec<LiveTraceEvent> {
        std::mem::take(&mut self.trace)
    }

    /// The audit trail so far, without draining.
    pub fn trace(&self) -> &[LiveTraceEvent] {
        &self.trace
    }

    /// Registers a standing query. The query runs once (via `strategy`)
    /// when the admission ladder grants a slot — immediately when one is
    /// free, otherwise when a running subscription unsubscribes — and
    /// the snapshot arrives as [`LiveEvent::Initial`] on the returned
    /// receiver.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError`] for parse/bind failures or an initial
    /// evaluation failure.
    pub fn register(
        &mut self,
        sql: &str,
        strategy: LiveStrategy,
        priority: u8,
    ) -> Result<Registration, ExecError> {
        let query = self.fed.parse_and_bind(sql)?;
        let id = SubId(self.next_id);
        self.next_id += 1;
        let (sender, events) = channel::<LiveEvent>("live.delta");
        let spec = Spec {
            sql: sql.to_owned(),
            query,
            strategy,
            priority,
            sender,
        };
        let mut admit = self.admission.acquire(priority);
        let admitted = match poll_once(&mut admit) {
            Some(permit) => {
                self.activate(id, spec, permit)?;
                true
            }
            None => {
                self.waiting.insert(id, Waiting { spec, admit });
                false
            }
        };
        Ok(Registration {
            sub: id,
            events,
            admitted,
        })
    }

    /// Removes a subscription (active or queued); returns `false` if the
    /// id is unknown. Freed slots go to the oldest highest-priority
    /// queued registration.
    pub fn unsubscribe(&mut self, sub: SubId) -> bool {
        if self.waiting.remove(&sub).is_some() {
            self.trace.push(LiveTraceEvent::Unregistered { sub });
            return true;
        }
        let Some(active) = self.subs.remove(&sub) else {
            return false;
        };
        drop(active); // releases the admission permit
        self.unindex(sub);
        self.trace.push(LiveTraceEvent::Unregistered { sub });
        self.admit_waiting();
        true
    }

    /// Applies a store mutation through [`Federation::mutate`], then
    /// pumps the change log so affected subscriptions re-evaluate.
    ///
    /// # Errors
    ///
    /// Propagates the mutation's or a re-evaluation's [`ExecError`].
    pub fn mutate<R, F>(&mut self, db: DbId, f: F) -> Result<(R, PumpOutcome), ExecError>
    where
        F: FnOnce(&mut fedoq_store::ComponentDb) -> Result<R, fedoq_store::StoreError>,
    {
        let out = self.fed.mutate(db, f)?;
        let pumped = self.pump()?;
        Ok((out, pumped))
    }

    /// Consumes the change log from this reactor's cursor: re-evaluates
    /// exactly the subscriptions whose class footprint the batch touched
    /// (a record with an unresolvable class conservatively touches
    /// everything), emits delta batches, and trims the consumed records.
    ///
    /// # Errors
    ///
    /// Propagates a re-evaluation's [`ExecError`].
    pub fn pump(&mut self) -> Result<PumpOutcome, ExecError> {
        let records: Vec<ChangeRecord> = self.fed.changes_since(self.cursor).to_vec();
        self.cursor = self.fed.change_cursor();
        self.fed.trim_changes(self.cursor);
        if records.is_empty() {
            return Ok(PumpOutcome::default());
        }
        let mut classes = BTreeSet::new();
        let mut wildcard = false;
        for record in &records {
            self.trace.push(LiveTraceEvent::Change {
                seq: record.seq(),
                db: record.db(),
                class: record.class(),
            });
            match record.class() {
                Some(class) => {
                    classes.insert(class);
                }
                None => wildcard = true,
            }
        }
        let affected: Vec<SubId> = self
            .subs
            .iter()
            .filter(|(_, s)| wildcard || s.footprint.iter().any(|c| classes.contains(c)))
            .map(|(id, _)| *id)
            .collect();
        let trigger = Trigger::changes(
            if wildcard { None } else { Some(classes) },
            self.down.clone(),
        );
        let mut deltas = 0;
        for id in &affected {
            deltas += self.reevaluate(*id, &trigger)?;
        }
        Ok(PumpOutcome {
            records: records.len(),
            affected: affected.len(),
            deltas,
        })
    }

    /// Marks a site unreachable: maybe rows whose condition touches it
    /// degrade. Returns the number of deltas emitted (0 if already down).
    ///
    /// # Errors
    ///
    /// Propagates a re-evaluation's [`ExecError`].
    pub fn set_site_down(&mut self, db: DbId) -> Result<usize, ExecError> {
        if !self.down.insert(db) {
            return Ok(0);
        }
        self.trace.push(LiveTraceEvent::SiteDown { db });
        let trigger = Trigger::reachability(BTreeSet::new(), self.down.clone());
        self.remark_site(db, &trigger)
    }

    /// Marks a site reachable again (e.g. a partition healed): degraded
    /// rows restore, and any data the site contributed while unreachable
    /// is already in the log, so pump afterwards. Returns deltas emitted.
    ///
    /// # Errors
    ///
    /// Propagates a re-evaluation's [`ExecError`].
    pub fn heal_site(&mut self, db: DbId) -> Result<usize, ExecError> {
        if !self.down.remove(&db) {
            return Ok(0);
        }
        self.trace.push(LiveTraceEvent::SiteHealed { db });
        let trigger = Trigger::reachability([db].into_iter().collect(), self.down.clone());
        self.remark_site(db, &trigger)
    }

    /// Applies a reachability snapshot from the transport layer (e.g.
    /// `SimTransport::crashed_sites`): newly listed sites go down, sites
    /// no longer listed heal. Returns total deltas emitted.
    ///
    /// # Errors
    ///
    /// Propagates a re-evaluation's [`ExecError`].
    pub fn sync_reachability(&mut self, crashed: &[DbId]) -> Result<usize, ExecError> {
        let target: BTreeSet<DbId> = crashed.iter().copied().collect();
        let mut deltas = 0;
        for db in self.down.clone().difference(&target) {
            deltas += self.heal_site(*db)?;
        }
        for db in target.difference(&self.down.clone()) {
            deltas += self.set_site_down(*db)?;
        }
        Ok(deltas)
    }

    fn activate(&mut self, id: SubId, spec: Spec, permit: AdmitPermit) -> Result<(), ExecError> {
        let state = evaluate(
            &self.fed,
            &spec.query,
            spec.strategy,
            self.params,
            &self.down,
        )?;
        let footprint = spec.query.class_footprint();
        self.trace.push(LiveTraceEvent::Registered {
            sub: id,
            classes: footprint.iter().copied().collect(),
        });
        self.index_conditions(id, &state);
        self.evals_total += 1;
        let _ = spec.sender.send(LiveEvent::Initial {
            seq: 0,
            answer: state.clone(),
        });
        self.subs.insert(
            id,
            Active {
                query: spec.query,
                sql: spec.sql,
                strategy: spec.strategy,
                priority: spec.priority,
                footprint,
                state,
                sender: spec.sender,
                seq: 0,
                evals: 1,
                _permit: permit,
            },
        );
        Ok(())
    }

    /// Re-evaluates one subscription and emits the diff.
    fn reevaluate(&mut self, id: SubId, trigger: &Trigger) -> Result<usize, ExecError> {
        let Some(mut sub) = self.subs.remove(&id) else {
            return Ok(0);
        };
        let fresh = match evaluate(&self.fed, &sub.query, sub.strategy, self.params, &self.down) {
            Ok(state) => state,
            Err(e) => {
                self.subs.insert(id, sub);
                return Err(e);
            }
        };
        sub.evals += 1;
        self.evals_total += 1;
        let deltas = diff(&sub.state, &fresh, trigger);
        let emitted = deltas.len();
        if emitted > 0 {
            for delta in &deltas {
                if let Delta::MaybeResolved {
                    goid,
                    outcome,
                    flipped,
                } = delta
                {
                    let classes: BTreeSet<GlobalClassId> = flipped
                        .iter()
                        .map(fedoq_core::ConditionAtom::class)
                        .collect();
                    let sites: BTreeSet<DbId> =
                        flipped.iter().map(fedoq_core::ConditionAtom::db).collect();
                    self.trace.push(LiveTraceEvent::Resolved {
                        sub: id,
                        goid: *goid,
                        to_certain: matches!(outcome, Resolution::ToCertain(_)),
                        classes: classes.into_iter().collect(),
                        sites: sites.into_iter().collect(),
                    });
                }
            }
            sub.seq += 1;
            self.deltas_total += emitted as u64;
            let _ = sub.sender.send(LiveEvent::Deltas {
                seq: sub.seq,
                deltas,
            });
        }
        self.unindex(id);
        sub.state = fresh;
        self.index_conditions(id, &sub.state);
        self.subs.insert(id, sub);
        Ok(emitted)
    }

    fn remark_site(&mut self, db: DbId, trigger: &Trigger) -> Result<usize, ExecError> {
        let affected: BTreeSet<SubId> = self
            .cond_index
            .iter()
            .filter(|((site, _, _), _)| *site == db)
            .flat_map(|(_, subs)| subs.iter().copied())
            .collect();
        let mut deltas = 0;
        for id in affected {
            deltas += self.reevaluate(id, trigger)?;
        }
        Ok(deltas)
    }

    /// Polls queued registrations; the ladder grants strictly by
    /// priority, FIFO within a priority.
    fn admit_waiting(&mut self) {
        let ids: Vec<SubId> = self.waiting.keys().copied().collect();
        for id in ids {
            let Some(mut waiting) = self.waiting.remove(&id) else {
                continue;
            };
            match poll_once(&mut waiting.admit) {
                Some(permit) => {
                    // An activation failure here (the query bound at
                    // registration, so only federation-internal errors
                    // qualify) drops the subscription; its channel
                    // closing is the observable signal.
                    let _ = self.activate(id, waiting.spec, permit);
                }
                None => {
                    self.waiting.insert(id, waiting);
                }
            }
        }
    }

    fn index_conditions(&mut self, id: SubId, state: &ConditionedAnswer) {
        for (_, condition) in state.conditions() {
            for atom in condition.atoms() {
                self.cond_index
                    .entry((atom.db(), atom.class(), atom.slot()))
                    .or_default()
                    .insert(id);
            }
        }
    }

    fn unindex(&mut self, id: SubId) {
        self.cond_index.retain(|_, subs| {
            subs.remove(&id);
            !subs.is_empty()
        });
    }
}

impl fmt::Debug for LiveReactor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LiveReactor")
            .field("active", &self.subs.len())
            .field("waiting", &self.waiting.len())
            .field("down", &self.down)
            .field("cursor", &self.cursor)
            .finish()
    }
}

/// Polls an admission future once; the gate grants synchronously when a
/// slot is free, so `None` means "queued behind the ladder".
fn poll_once(admit: &mut Admit) -> Option<AdmitPermit> {
    let mut cx = Context::from_waker(Waker::noop());
    match Pin::new(admit).poll(&mut cx) {
        Poll::Ready(permit) => Some(permit),
        Poll::Pending => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedoq_object::Value;
    use fedoq_schema::Correspondences;
    use fedoq_store::{AttrType, ClassDef, ComponentDb, ComponentSchema};

    /// Two sites, two classes. `Student.age` lives only at DB0 (and is
    /// null for entity 1); `Course.credits` lives only at DB1.
    fn fed() -> Federation {
        let s0 = ComponentSchema::new(vec![ClassDef::new("Student")
            .attr("s-no", AttrType::int())
            .attr("age", AttrType::int())
            .key(["s-no"])])
        .unwrap();
        let s1 = ComponentSchema::new(vec![
            ClassDef::new("Student")
                .attr("s-no", AttrType::int())
                .attr("sex", AttrType::text())
                .key(["s-no"]),
            ClassDef::new("Course")
                .attr("c-no", AttrType::int())
                .attr("credits", AttrType::int())
                .key(["c-no"]),
        ])
        .unwrap();
        let mut db0 = ComponentDb::new(DbId::new(0), "DB0", s0);
        let mut db1 = ComponentDb::new(DbId::new(1), "DB1", s1);
        db0.insert_named("Student", &[("s-no", Value::Int(1)), ("age", Value::Null)])
            .unwrap();
        db1.insert_named(
            "Student",
            &[("s-no", Value::Int(1)), ("sex", Value::text("m"))],
        )
        .unwrap();
        db1.insert_named(
            "Course",
            &[("c-no", Value::Int(7)), ("credits", Value::Int(3))],
        )
        .unwrap();
        Federation::new(vec![db0, db1], &Correspondences::new()).unwrap()
    }

    const STUDENT_Q: &str = "SELECT X.s-no FROM Student X WHERE X.age > 30";
    const COURSE_Q: &str = "SELECT X.c-no FROM Course X WHERE X.credits > 1";

    fn initial_answer(reg: &Registration) -> ConditionedAnswer {
        match reg.events.try_recv() {
            Some(LiveEvent::Initial { answer, .. }) => answer,
            other => panic!("expected initial answer, got {other:?}"),
        }
    }

    #[test]
    fn register_snapshots_and_filling_a_null_certifies_with_flip_named() {
        let mut reactor = LiveReactor::new(fed());
        let reg = reactor.register(STUDENT_Q, LiveStrategy::BL, 3).unwrap();
        assert!(reg.admitted);
        let initial = initial_answer(&reg);
        assert_eq!(initial.answer().maybe().len(), 1); // age null/missing
        let goid = initial.answer().maybe()[0].goid();
        assert!(!initial.condition(goid).unwrap().is_empty());

        // Fill the null age with a satisfying value: maybe → certain.
        let student = reactor
            .federation()
            .db(DbId::new(0))
            .extent_by_name("Student");
        let loid = student.unwrap().loids().next().unwrap();
        let (_, pumped) = reactor
            .mutate(DbId::new(0), |db| {
                db.object_mut(loid).unwrap().set(1, Value::Int(40));
                Ok(())
            })
            .unwrap();
        assert_eq!(pumped.affected, 1);
        assert!(pumped.deltas > 0);
        match reg.events.try_recv() {
            Some(LiveEvent::Deltas { seq, deltas }) => {
                assert_eq!(seq, 1);
                let resolved = deltas.iter().find_map(|d| match d {
                    Delta::MaybeResolved {
                        goid: g,
                        outcome: Resolution::ToCertain(_),
                        flipped,
                    } => Some((*g, flipped.clone())),
                    _ => None,
                });
                let (g, flipped) = resolved.expect("a certification delta");
                assert_eq!(g, goid);
                assert!(!flipped.is_empty());
                assert!(flipped.iter().any(|a| a.db() == DbId::new(0)));
            }
            other => panic!("expected deltas, got {other:?}"),
        }
        // Maintained state now matches from-scratch evaluation.
        let sub = reg.sub;
        let from_scratch = evaluate(
            reactor.federation(),
            &reactor.federation().parse_and_bind(STUDENT_Q).unwrap(),
            LiveStrategy::BL,
            SystemParams::paper_default(),
            &BTreeSet::new(),
        )
        .unwrap();
        assert_eq!(reactor.answer(sub).unwrap(), &from_scratch);
        assert!(reactor.answer(sub).unwrap().answer().maybe().is_empty());
    }

    #[test]
    fn unrelated_class_mutations_skip_the_subscription() {
        let mut reactor = LiveReactor::new(fed());
        let student = reactor.register(STUDENT_Q, LiveStrategy::CA, 0).unwrap();
        let course = reactor.register(COURSE_Q, LiveStrategy::PL, 0).unwrap();
        let _ = initial_answer(&student);
        let _ = initial_answer(&course);
        let evals_before = reactor.eval_count();

        // A Course insert must re-evaluate only the Course subscription.
        let (_, pumped) = reactor
            .mutate(DbId::new(1), |db| {
                db.insert_named(
                    "Course",
                    &[("c-no", Value::Int(8)), ("credits", Value::Int(2))],
                )
                .map(|_| ())
            })
            .unwrap();
        assert_eq!(pumped.affected, 1);
        assert_eq!(reactor.eval_count(), evals_before + 1);
        assert!(student.events.try_recv().is_none());
        match course.events.try_recv() {
            Some(LiveEvent::Deltas { deltas, .. }) => {
                assert!(deltas.iter().any(|d| matches!(d, Delta::CertainAdded(_))));
            }
            other => panic!("expected a course delta, got {other:?}"),
        }
    }

    #[test]
    fn reachability_transitions_degrade_and_restore() {
        let mut reactor = LiveReactor::new(fed());
        let reg = reactor.register(STUDENT_Q, LiveStrategy::BL, 1).unwrap();
        let _ = initial_answer(&reg);

        // DB0 holds the null `age` the condition depends on.
        let emitted = reactor.set_site_down(DbId::new(0)).unwrap();
        assert!(emitted > 0);
        match reg.events.try_recv() {
            Some(LiveEvent::Deltas { deltas, .. }) => {
                assert!(deltas
                    .iter()
                    .any(|d| matches!(d, Delta::Degraded { sites, .. } if !sites.is_empty())));
            }
            other => panic!("expected degradation, got {other:?}"),
        }
        let sub = reg.sub;
        assert!(reactor.answer(sub).unwrap().answer().is_degraded());

        let emitted = reactor.heal_site(DbId::new(0)).unwrap();
        assert!(emitted > 0);
        match reg.events.try_recv() {
            Some(LiveEvent::Deltas { deltas, .. }) => {
                assert!(deltas
                    .iter()
                    .any(|d| matches!(d, Delta::Degraded { sites, .. } if sites.is_empty())));
            }
            other => panic!("expected restoration, got {other:?}"),
        }
        assert!(!reactor.answer(sub).unwrap().answer().is_degraded());

        // Snapshot sync from a transport: no change → no deltas.
        assert_eq!(reactor.sync_reachability(&[]).unwrap(), 0);
    }

    #[test]
    fn admission_ladder_queues_and_promotes_by_priority() {
        let mut reactor = LiveReactor::new(fed()).with_slots(1);
        let first = reactor.register(STUDENT_Q, LiveStrategy::BL, 0).unwrap();
        assert!(first.admitted);
        let _ = initial_answer(&first);

        // The ladder is full: both queue; the higher priority wins the
        // freed slot even though it registered later.
        let low = reactor.register(COURSE_Q, LiveStrategy::BL, 1).unwrap();
        let high = reactor.register(COURSE_Q, LiveStrategy::BL, 9).unwrap();
        assert!(!low.admitted && !high.admitted);
        assert_eq!(reactor.waiting_count(), 2);

        assert!(reactor.unsubscribe(first.sub));
        assert_eq!(reactor.active_count(), 1);
        assert_eq!(reactor.waiting_count(), 1);
        assert!(high.events.try_recv().is_some(), "high priority admitted");
        assert!(low.events.try_recv().is_none(), "low priority still queued");

        // Unknown ids are rejected; queued ids can be withdrawn.
        assert!(!reactor.unsubscribe(SubId::new(99)));
        assert!(reactor.unsubscribe(low.sub));
    }

    #[test]
    fn trace_records_changes_before_resolutions() {
        let mut reactor = LiveReactor::new(fed());
        let reg = reactor.register(STUDENT_Q, LiveStrategy::HY, 2).unwrap();
        let _ = initial_answer(&reg);
        let loid = reactor
            .federation()
            .db(DbId::new(0))
            .extent_by_name("Student")
            .unwrap()
            .loids()
            .next()
            .unwrap();
        reactor
            .mutate(DbId::new(0), |db| {
                db.object_mut(loid).unwrap().set(1, Value::Int(10));
                Ok(())
            })
            .unwrap();
        let trace = reactor.take_trace();
        let change_at = trace
            .iter()
            .position(|e| matches!(e, LiveTraceEvent::Change { .. }))
            .expect("a change event");
        let resolved_at = trace
            .iter()
            .position(|e| {
                matches!(
                    e,
                    LiveTraceEvent::Resolved {
                        to_certain: false,
                        ..
                    }
                )
            })
            .expect("an elimination event (age 10 fails > 30)");
        assert!(change_at < resolved_at);
        assert!(reactor.take_trace().is_empty(), "take drains");
    }
}
