//! The localized approaches: BL (P → O → I) and PL (O → P → I).
//!
//! The global query is decomposed into local queries. Each site evaluates
//! its *local predicates* (predicates it can navigate) over its local root
//! class, producing local maybe rows; predicates blocked by missing
//! attributes or nulls stay *unsolved*, and the site looks up the
//! *assistant objects* (isomeric copies that might hold the missing data)
//! in the replicated GOid mapping tables, sending check requests to the
//! sites owning them. The global site finally *certifies* the merged local
//! results with the check replies (see [`crate::certify`]).
//!
//! **BL** performs assistant lookup *after* local evaluation, so only the
//! surviving maybe results generate checks. **PL** performs the lookup for
//! every candidate object *before* local evaluation, putting its check
//! requests on the wire early so remote checking overlaps local predicate
//! evaluation — at the price of checking objects that local evaluation
//! would have eliminated.
//!
//! With `use_signatures`, a site first probes the replicated object
//! signatures before requesting a check: an equality predicate whose value
//! bits and null marker are both absent from the assistant's signature is
//! a definite violation — the row is eliminated locally and nothing is
//! transferred. Signature pruning never changes answers.

use crate::cache::{query_fingerprint, CacheKey, CacheValue, LookupCache};
use crate::certify::{certify, CheckReplies};
use crate::error::ExecError;
use crate::federation::Federation;
use crate::pipeline::PipelineConfig;
use crate::result::QueryAnswer;
use crate::strategy::ExecutionStrategy;
use fedoq_object::{CmpOp, DbId, GOid, GlobalClassId, LOid, Object, Path, Truth, Value};
use fedoq_plan::{PlanKind, RankedPlan};
use fedoq_query::{plan_for_db, BoundQuery, PredDisposition, PredId, SitePlan};
use fedoq_sim::{MessageToken, Phase, Simulation, Site, SystemParams};
use fedoq_store::{
    map_chunks, worker_shares, CompiledPath, CompiledPredicate, ComponentDb, EvalCounter, Extent,
    IndexKey,
};
use std::cell::RefCell;
use std::collections::{HashMap, HashSet};

/// The basic localized strategy (the paper's algorithm **BL**).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BasicLocalized {
    /// Prune assistant checks with replicated object signatures.
    pub use_signatures: bool,
    /// Fetch locally-unprojectable target values from assistant objects
    /// (FedOQ extension; the paper projects local attributes only).
    pub complete_targets: bool,
}

impl BasicLocalized {
    /// BL without signatures (the paper's base algorithm).
    pub fn new() -> BasicLocalized {
        BasicLocalized::default()
    }

    /// BL with signature pruning (the paper's proposed extension).
    pub fn with_signatures() -> BasicLocalized {
        BasicLocalized {
            use_signatures: true,
            ..BasicLocalized::default()
        }
    }

    /// Enables target completion (chainable).
    pub fn completing_targets(mut self) -> BasicLocalized {
        self.complete_targets = true;
        self
    }
}

impl ExecutionStrategy for BasicLocalized {
    fn plan(&self) -> ExecPlan {
        ExecPlan::Localized {
            policy: ModePolicy::Uniform(LocalizedMode::Basic),
            config: LocalizedConfig {
                use_signatures: self.use_signatures,
                complete_targets: self.complete_targets,
            },
        }
    }
}

/// The parallel localized strategy (the paper's algorithm **PL**).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ParallelLocalized {
    /// Prune assistant checks with replicated object signatures.
    pub use_signatures: bool,
    /// Fetch locally-unprojectable target values from assistant objects
    /// (FedOQ extension; the paper projects local attributes only).
    pub complete_targets: bool,
}

impl ParallelLocalized {
    /// PL without signatures (the paper's base algorithm).
    pub fn new() -> ParallelLocalized {
        ParallelLocalized::default()
    }

    /// PL with signature pruning (the paper's proposed extension).
    pub fn with_signatures() -> ParallelLocalized {
        ParallelLocalized {
            use_signatures: true,
            ..ParallelLocalized::default()
        }
    }

    /// Enables target completion (chainable).
    pub fn completing_targets(mut self) -> ParallelLocalized {
        self.complete_targets = true;
        self
    }
}

impl ExecutionStrategy for ParallelLocalized {
    fn plan(&self) -> ExecPlan {
        ExecPlan::Localized {
            policy: ModePolicy::Uniform(LocalizedMode::Parallel),
            config: LocalizedConfig {
                use_signatures: self.use_signatures,
                complete_targets: self.complete_targets,
            },
        }
    }
}

/// The hybrid localized strategy (**HY**): a per-site BL/PL assignment
/// chosen by the planner.
///
/// Sites listed in `parallel_sites` run PL's schedule (static assistant
/// lookups before local evaluation); every other site runs BL's. A site
/// whose predicates cannot produce maybe results issues no assistant
/// checks under BL, so the planner pins such *clean* sites to BL and
/// reserves PL's prefetch overlap for the sites that need it. The answer
/// is identical to BL's and PL's by the strategies' shared invariant.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HybridLocalized {
    /// Sites that run PL's static-prefetch schedule.
    pub parallel_sites: Vec<DbId>,
    /// Prune assistant checks with replicated object signatures.
    pub use_signatures: bool,
    /// Fetch locally-unprojectable target values from assistant objects
    /// (FedOQ extension; the paper projects local attributes only).
    pub complete_targets: bool,
}

impl HybridLocalized {
    /// A hybrid running PL's schedule at `parallel_sites` and BL's
    /// everywhere else.
    pub fn new(parallel_sites: impl IntoIterator<Item = DbId>) -> HybridLocalized {
        HybridLocalized {
            parallel_sites: parallel_sites.into_iter().collect(),
            ..HybridLocalized::default()
        }
    }
}

impl ExecutionStrategy for HybridLocalized {
    fn plan(&self) -> ExecPlan {
        ExecPlan::Localized {
            policy: ModePolicy::ParallelAt(self.parallel_sites.clone()),
            config: LocalizedConfig {
                use_signatures: self.use_signatures,
                complete_targets: self.complete_targets,
            },
        }
    }
}

/// Which localized algorithm drives a site's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LocalizedMode {
    /// BL: assistant lookup after local evaluation (P → O → I).
    Basic,
    /// PL: static assistant lookup before local evaluation (O → P → I).
    Parallel,
}

/// How localized modes are assigned across sites.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModePolicy {
    /// Every site runs the same schedule (plain BL or PL).
    Uniform(LocalizedMode),
    /// The listed sites run PL's static schedule; every other site BL's.
    ParallelAt(Vec<DbId>),
}

impl ModePolicy {
    /// The schedule `db` runs under this policy.
    fn mode_for(&self, db: DbId) -> LocalizedMode {
        match self {
            ModePolicy::Uniform(mode) => *mode,
            ModePolicy::ParallelAt(sites) => {
                if sites.contains(&db) {
                    LocalizedMode::Parallel
                } else {
                    LocalizedMode::Basic
                }
            }
        }
    }

    /// Does `db` run PL's static-prefetch schedule?
    pub fn parallel_at(&self, db: DbId) -> bool {
        self.mode_for(db) == LocalizedMode::Parallel
    }
}

/// Per-execution options shared by BL and PL.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct LocalizedConfig {
    /// Prune assistant checks with replicated object signatures.
    pub use_signatures: bool,
    /// Fetch locally-unprojectable target values from assistant objects.
    pub complete_targets: bool,
}

/// One executable plan: what every executor — the in-process
/// strategies, the site-actor runtime, the serving frontend, and the
/// scheduler — runs.
///
/// BL and PL are the same three phases in a different order (P → O → I
/// and O → P → I), and HY chooses that order per site, so all three are
/// one localized plan with a [`ModePolicy`]; only CA is a different
/// mechanism.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecPlan {
    /// CA: ship every involved extent, evaluate at the global site.
    Centralized,
    /// BL, PL, or HY: local evaluation and assistant checks at every
    /// hosting site, certification at the global site.
    Localized {
        /// Which schedule each hosting site runs.
        policy: ModePolicy,
        /// Signature pruning / target completion options.
        config: LocalizedConfig,
    },
}

impl ExecPlan {
    /// The executable form of the planner's ranked candidate — the one
    /// mapping from [`PlanKind`] to a runnable plan. Hybrid sites marked
    /// parallel run PL's schedule, every other site BL's.
    pub fn from_ranked(plan: &RankedPlan) -> ExecPlan {
        let policy = match plan.kind {
            PlanKind::Centralized => return ExecPlan::Centralized,
            PlanKind::BasicLocalized => ModePolicy::Uniform(LocalizedMode::Basic),
            PlanKind::ParallelLocalized => ModePolicy::Uniform(LocalizedMode::Parallel),
            PlanKind::Hybrid => ModePolicy::ParallelAt(
                plan.modes
                    .iter()
                    .filter(|m| m.parallel)
                    .map(|m| m.db)
                    .collect(),
            ),
        };
        ExecPlan::Localized {
            policy,
            config: LocalizedConfig::default(),
        }
    }

    /// The plan's name in experiment output and feedback keys: `CA`,
    /// `BL`, `PL`, `BL-S`, `PL-S` (`-S` marks signature pruning), or
    /// `HY`.
    pub fn label(&self) -> &'static str {
        match self {
            ExecPlan::Centralized => "CA",
            ExecPlan::Localized { policy, config } => match (policy, config.use_signatures) {
                (ModePolicy::Uniform(LocalizedMode::Basic), false) => "BL",
                (ModePolicy::Uniform(LocalizedMode::Basic), true) => "BL-S",
                (ModePolicy::Uniform(LocalizedMode::Parallel), false) => "PL",
                (ModePolicy::Uniform(LocalizedMode::Parallel), true) => "PL-S",
                (ModePolicy::ParallelAt(_), _) => "HY",
            },
        }
    }
}

impl ExecutionStrategy for ExecPlan {
    fn plan(&self) -> ExecPlan {
        self.clone()
    }
}

/// One local result row produced at a component database.
#[derive(Debug, Clone)]
pub struct LocalRow {
    /// The root object this row came from.
    pub root_loid: LOid,
    /// Its entity (from the GOid mapping table).
    pub goid: GOid,
    /// Per-conjunct verdict: `True` (locally satisfied) or `Unknown`
    /// (unsolved); rows with a `False` verdict are never produced.
    pub verdicts: Vec<Truth>,
    /// The unsolved predicates and their items.
    pub unsolved: Vec<UnsolvedEntry>,
    /// Locally projected target values (null where not projectable).
    pub targets: Vec<Value>,
    /// For each target, the nested item whose assistants can supply the
    /// value when it is not locally projectable, with the step index where
    /// the unprojectable remainder begins (target completion).
    pub target_items: Vec<Option<(LOid, usize)>>,
}

/// One unsolved predicate on one local row.
#[derive(Debug, Clone)]
pub struct UnsolvedEntry {
    /// Which conjunct is unsolved.
    pub pred: PredId,
    /// The unsolved item holding the missing data: a nested branch object,
    /// or `None` when the root object itself is the item (certified by
    /// merging the other sites' local results rather than by checks).
    pub item: Option<LOid>,
}

/// A request to check one assistant object against one unsolved predicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CheckRequest {
    /// The unsolved item whose assistants are being consulted.
    pub item: LOid,
    /// The assistant object to check (its `db()` is the target site).
    pub assistant: LOid,
    /// Which conjunct to check.
    pub pred: PredId,
    /// Step index of the predicate's bound path where the unsolved
    /// remainder begins (the item's class is `path.class(start)`). The
    /// receiving site translates the remainder into its own attribute
    /// names — sites may name corresponding attributes differently.
    pub start: usize,
}

/// A request to fetch a target value from an assistant object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TargetRequest {
    /// The nested item whose assistants can supply the value.
    pub item: LOid,
    /// The assistant object to read (its `db()` is the target site).
    pub assistant: LOid,
    /// Select-list position of the target.
    pub target: usize,
    /// Step index of the target's bound path where the unprojectable
    /// remainder begins.
    pub start: usize,
}

/// Output of the PL-only static phase-O pass over all candidate objects.
#[derive(Debug, Default)]
struct StaticScan {
    requests: Vec<CheckRequest>,
    state: StaticState,
}

/// The part of the static pass the evaluation pass consumes.
#[derive(Debug, Default)]
struct StaticState {
    /// `(root serial, conjunct) -> (item, remainder start step)`, reused
    /// by the evaluation pass so prefixes are not walked twice.
    items: HashMap<(u64, usize), (Option<LOid>, usize)>,
    /// Root objects a signature already proved violating.
    sig_eliminated: HashSet<u64>,
}

/// Everything one site produces for a localized query: its local result
/// rows plus the check and target requests it wants answered elsewhere.
///
/// This is the unit of work a distributed site actor performs on a
/// `LocalEval` message (see the `fedoq-net` crate); the in-process
/// strategies assemble the same outputs wave by wave.
#[derive(Debug)]
pub struct SiteEval {
    /// The evaluating site.
    pub db: DbId,
    /// Local maybe rows surviving local evaluation.
    pub rows: Vec<LocalRow>,
    /// PL-only: check requests issued before evaluation (phase O ahead of
    /// phase P); empty under BL.
    pub static_requests: Vec<CheckRequest>,
    /// Check requests issued after local evaluation (all of BL's, plus
    /// PL's null-caused ones).
    pub dynamic_requests: Vec<CheckRequest>,
    /// Target-value fetches (only with target completion enabled).
    pub target_requests: Vec<TargetRequest>,
}

/// Everything precompiled once per site before scanning.
struct SiteContext<'a> {
    db: &'a ComponentDb,
    plan: &'a SitePlan,
    /// Compiled local predicates, indexed like the query's conjuncts
    /// (`None` where the predicate is truncated here).
    local_preds: Vec<Option<CompiledPredicate>>,
    /// For each truncated predicate: its id and the compiled navigable
    /// prefix (`None` when the root itself holds the missing attribute).
    truncated: Vec<(PredId, Option<CompiledPath>)>,
    /// Compiled target projections with their global domain when the
    /// terminal is complex (`None` where not locally projectable).
    targets: Vec<Option<(CompiledPath, Option<GlobalClassId>)>>,
    /// For unprojectable targets with a non-empty navigable prefix: the
    /// compiled prefix (target completion resolves items through it).
    target_prefixes: Vec<Option<CompiledPath>>,
    /// Disk width (projected attributes) of the root class here.
    root_width: usize,
}

fn build_context<'a>(
    fed: &'a Federation,
    query: &BoundQuery,
    plan: &'a SitePlan,
) -> Result<SiteContext<'a>, ExecError> {
    let db_id = plan.db();
    let db = fed.db(db_id);
    let root = plan.root_constituent();
    let involved = query.involved_slots();
    let schema = fed.global_schema();

    let mut local_preds = Vec::with_capacity(query.predicates().len());
    let mut truncated = Vec::new();
    for pred in query.predicates() {
        match plan.disposition(pred.id()) {
            PredDisposition::Local => {
                let local_path = translate_steps(fed, db_id, pred.path(), 0, pred.path().len())
                    .ok_or_else(|| ExecError::Internal("local predicate lost".into()))?;
                let compiled = CompiledPredicate::compile(
                    db,
                    root,
                    &local_path,
                    pred.op(),
                    pred.literal().clone(),
                )
                .map_err(|e| ExecError::Internal(format!("local predicate lost: {e}")))?;
                local_preds.push(Some(compiled));
            }
            PredDisposition::Truncated { prefix_len } => {
                local_preds.push(None);
                let prefix = if prefix_len == 0 {
                    None
                } else {
                    let prefix_path = translate_steps(fed, db_id, pred.path(), 0, prefix_len)
                        .ok_or_else(|| ExecError::Internal("prefix lost".into()))?;
                    Some(
                        CompiledPath::compile(db, root, &prefix_path)
                            .map_err(|e| ExecError::Internal(format!("prefix lost: {e}")))?,
                    )
                };
                truncated.push((pred.id(), prefix));
            }
        }
    }

    let mut targets = Vec::with_capacity(query.targets().len());
    let mut target_prefixes = Vec::with_capacity(query.targets().len());
    for (i, target) in query.targets().iter().enumerate() {
        let prefix_len = plan.target_prefix_len(i);
        if prefix_len == target.len() {
            let local_path = translate_steps(fed, db_id, target, 0, target.len())
                .ok_or_else(|| ExecError::Internal("target lost".into()))?;
            let compiled = CompiledPath::compile(db, root, &local_path)
                .map_err(|e| ExecError::Internal(format!("target lost: {e}")))?;
            targets.push(Some((compiled, target.terminal_domain())));
            target_prefixes.push(None);
        } else {
            targets.push(None);
            target_prefixes.push(if prefix_len == 0 {
                None
            } else {
                let prefix_path = translate_steps(fed, db_id, target, 0, prefix_len)
                    .ok_or_else(|| ExecError::Internal("target prefix lost".into()))?;
                Some(
                    CompiledPath::compile(db, root, &prefix_path)
                        .map_err(|e| ExecError::Internal(format!("target prefix lost: {e}")))?,
                )
            });
        }
    }

    let range_class = schema.class(query.range());
    let constituent = range_class
        .constituent_for(db_id)
        .ok_or_else(|| ExecError::Internal("plan for non-hosting site".into()))?;
    let root_width = involved.get(&query.range()).map_or(0, |slots| {
        slots
            .iter()
            .filter(|&&g| !constituent.is_missing(g))
            .count()
    });

    Ok(SiteContext {
        db,
        plan,
        local_preds,
        truncated,
        targets,
        target_prefixes,
        root_width,
    })
}

/// Resolves the unsolved item of a truncated predicate on one object by
/// walking the navigable prefix: the deepest object reached holds the
/// missing data, and the returned step index marks where the unsolved
/// remainder of the path begins.
fn resolve_item(
    ctx: &SiteContext<'_>,
    object: &Object,
    prefix: &Option<CompiledPath>,
    counter: &mut EvalCounter,
) -> (Option<LOid>, usize) {
    match prefix {
        None => (None, 0),
        Some(compiled) => {
            let walk = compiled.walk(ctx.db, object, counter);
            match walk.value.as_ref_loid() {
                Some(item) => (Some(item), compiled.len()),
                // A null blocked the prefix walk part-way: the deepest
                // visited object (or the root) is the item.
                None => (walk.visited.last().copied(), walk.visited.len()),
            }
        }
    }
}

/// Translates steps `[start, end)` of a bound path into `db`'s local
/// attribute names; `None` when any step's attribute is missing there.
fn translate_steps(
    fed: &Federation,
    db: DbId,
    path: &fedoq_query::BoundPath,
    start: usize,
    end: usize,
) -> Option<Path> {
    let schema = fed.global_schema();
    let mut names = Vec::with_capacity(end - start);
    for i in start..end {
        names.push(local_attr_name(fed, db, path.class(i), path.slot(i))?);
    }
    let _ = schema;
    Some(Path::new(names))
}

/// The local name `db` uses for global attribute `slot` of `class`.
fn local_attr_name(
    fed: &Federation,
    db: DbId,
    class: GlobalClassId,
    slot: usize,
) -> Option<String> {
    let constituent = fed.global_schema().class(class).constituent_for(db)?;
    let local_slot = constituent.local_slot(slot)?;
    let def = fed.db(db).schema().class(constituent.class());
    Some(def.attrs()[local_slot].name().to_owned())
}

/// Looks up the presence-filtered assistant set of one unsolved item —
/// the GOid-mapping lookup plus one remote-schema presence probe per
/// sibling — consulting the shared cache when one is given. The filtered
/// set depends only on `(class, slot, item)`, so predicate checks and
/// target completion share entries.
fn filtered_siblings(
    fed: &Federation,
    item_class: GlobalClassId,
    first_slot: usize,
    item: LOid,
    cache: Option<&RefCell<LookupCache>>,
    comparisons: &mut u64,
) -> Vec<LOid> {
    *comparisons += 1; // GOid-table probe for the item
    let key = CacheKey::Siblings {
        class: item_class.index() as u32,
        slot: first_slot,
        item,
    };
    if let Some(cache) = cache {
        if let Some(CacheValue::Siblings(assistants)) = cache.borrow_mut().get(&key) {
            return assistants;
        }
    }
    let class = fed.global_schema().class(item_class);
    let mut survivors = Vec::new();
    for assistant in fed.catalog().table(item_class).siblings(item) {
        // Consult the remote schema: only ask sites whose constituent can
        // start evaluating the remaining path.
        *comparisons += 1;
        let present = class
            .constituent_for(assistant.db())
            .is_some_and(|c| !c.is_missing(first_slot));
        if present {
            survivors.push(assistant);
        }
    }
    if let Some(cache) = cache {
        cache
            .borrow_mut()
            .put(key, CacheValue::Siblings(survivors.clone()));
    }
    survivors
}

/// Expands one unsolved item into check requests against its assistants,
/// consulting the GOid tables, the other sites' schemas, and (optionally)
/// the replicated signatures.
///
/// Returns `false` if a signature proves a violation — the caller must
/// eliminate the row/object.
#[allow(clippy::too_many_arguments)]
fn requests_for_item(
    fed: &Federation,
    query: &BoundQuery,
    item: LOid,
    pred: PredId,
    start: usize,
    use_signatures: bool,
    cache: Option<&RefCell<LookupCache>>,
    comparisons: &mut u64,
    seen: &mut HashSet<CheckRequest>,
    out: &mut Vec<CheckRequest>,
) -> bool {
    let bound_pred = query.predicate(pred);
    let item_class = bound_pred.path().class(start);
    let first_slot = bound_pred.path().slot(start);
    for assistant in filtered_siblings(fed, item_class, first_slot, item, cache, comparisons) {
        let single_step = start + 1 == bound_pred.path().len();
        if use_signatures && single_step && bound_pred.op() == CmpOp::Eq {
            *comparisons += 2; // value-bits probe + null-marker probe
            let attr = local_attr_name(fed, assistant.db(), item_class, first_slot);
            if let (Some(sig), Some(attr)) = (fed.signature(assistant), attr) {
                // A value-bit miss means the assistant does not hold the
                // literal; without the null marker that is a definite
                // violation — the certification rule says any violating
                // assistant eliminates the result. With the marker set,
                // only the remote check can distinguish False from
                // Unknown, so the request still goes out.
                if !sig.may_contain(&attr, bound_pred.literal()) && !sig.may_be_null(&attr) {
                    return false;
                }
            }
        }
        let request = CheckRequest {
            item,
            assistant,
            pred,
            start,
        };
        *comparisons += 1; // dedup probe (shared branch items)
        if seen.insert(request) {
            out.push(request);
        }
    }
    true
}

/// PL's step C1: for every candidate object, resolve the items of the
/// statically unsolved predicates and emit their check requests — before
/// any predicate is evaluated (phase O ahead of phase P).
fn scan_static(
    fed: &Federation,
    query: &BoundQuery,
    ctx: &SiteContext<'_>,
    sim: &mut Simulation,
    config: LocalizedConfig,
    pipeline: PipelineConfig,
    cache: Option<&RefCell<LookupCache>>,
) -> StaticScan {
    let mut scan = StaticScan::default();
    if ctx.truncated.is_empty() {
        return scan;
    }
    let site = Site::Db(ctx.db.id());
    let params = *sim.params();
    let extent = ctx.db.extent(ctx.plan.root_constituent());
    if pipeline.is_parallel() {
        // Chunked like the phase-P scan. Workers cannot share the
        // (single-threaded) cache, so each chunk resolves its siblings
        // from the catalog and dedups locally; the merge below re-dedups
        // across chunks in chunk order, which reproduces the sequential
        // first-occurrence request order exactly. Workers may repeat a
        // sibling walk a sequential pass would have memoized — that is
        // charged as genuine (overlapped) work.
        let partials = map_chunks(
            extent.objects(),
            pipeline.threads,
            pipeline.chunk,
            |_, chunk| {
                let mut counter = EvalCounter::new();
                let mut comparisons = 0u64;
                let mut seen = HashSet::new();
                let mut requests = Vec::new();
                let mut sig_eliminated = Vec::new();
                let mut items = Vec::new();
                for object in chunk {
                    for (pred, prefix) in &ctx.truncated {
                        let (item, start) = resolve_item(ctx, object, prefix, &mut counter);
                        if let Some(item_loid) = item {
                            let ok = requests_for_item(
                                fed,
                                query,
                                item_loid,
                                *pred,
                                start,
                                config.use_signatures,
                                None,
                                &mut comparisons,
                                &mut seen,
                                &mut requests,
                            );
                            if !ok {
                                sig_eliminated.push(object.loid().serial());
                            }
                        }
                        items.push(((object.loid().serial(), pred.index()), (item, start)));
                    }
                }
                (requests, items, sig_eliminated, counter, comparisons)
            },
        );
        let mut seen = HashSet::new();
        let mut disk_costs = Vec::with_capacity(partials.len());
        let mut cpu_costs = Vec::with_capacity(partials.len());
        for (requests, items, sig_eliminated, counter, comparisons) in partials {
            for request in requests {
                if seen.insert(request) {
                    scan.requests.push(request);
                }
            }
            scan.state.items.extend(items);
            scan.state.sig_eliminated.extend(sig_eliminated);
            disk_costs.push(counter.objects_fetched * params.object_bytes(1));
            cpu_costs.push(comparisons + counter.comparisons);
        }
        sim.disk_parallel(
            site,
            &worker_shares(&disk_costs, pipeline.threads),
            Phase::O,
        );
        sim.cpu_parallel(site, &worker_shares(&cpu_costs, pipeline.threads), Phase::O);
        return scan;
    }
    let mut counter = EvalCounter::new();
    let mut comparisons = 0u64;
    let mut seen = HashSet::new();
    for object in extent.iter() {
        for (pred, prefix) in &ctx.truncated {
            let (item, start) = resolve_item(ctx, object, prefix, &mut counter);
            if let Some(item_loid) = item {
                let ok = requests_for_item(
                    fed,
                    query,
                    item_loid,
                    *pred,
                    start,
                    config.use_signatures,
                    cache,
                    &mut comparisons,
                    &mut seen,
                    &mut scan.requests,
                );
                if !ok {
                    scan.state.sig_eliminated.insert(object.loid().serial());
                }
            }
            scan.state
                .items
                .insert((object.loid().serial(), pred.index()), (item, start));
        }
    }
    sim.disk(
        site,
        counter.objects_fetched * params.object_bytes(1),
        Phase::O,
    );
    sim.cpu(site, comparisons + counter.comparisons, Phase::O);
    scan
}

/// Per unsolved entry of one local row: its item, the remainder start
/// step, and whether the static pass already issued its checks.
type RowRemainders = Vec<(Option<LOid>, usize, bool)>;

/// Evaluates one candidate object (the phase-P body): local predicates,
/// static-state reuse, target projection, and the root GOid probe. Pure
/// over the federation — chunked parallel scans call it concurrently —
/// with every charged probe accumulated in `counter`.
fn eval_object(
    fed: &Federation,
    query: &BoundQuery,
    ctx: &SiteContext<'_>,
    config: LocalizedConfig,
    static_state: &StaticState,
    object: &Object,
    counter: &mut EvalCounter,
) -> Option<(LocalRow, RowRemainders)> {
    if static_state
        .sig_eliminated
        .contains(&object.loid().serial())
    {
        return None;
    }
    let mut verdicts = vec![Truth::Unknown; query.predicates().len()];
    let mut unsolved: Vec<(PredId, Option<LOid>, usize, bool)> = Vec::new();
    for (i, compiled) in ctx.local_preds.iter().enumerate() {
        let Some(pred) = compiled else { continue };
        let (verdict, walk) = pred.eval(ctx.db, object, counter);
        match verdict {
            Truth::True => verdicts[i] = Truth::True,
            Truth::False => return None,
            Truth::Unknown => {
                // A null blocked the walk: the deepest visited object
                // holds the missing data, and the remainder starts at
                // its depth.
                unsolved.push((
                    PredId::new(i),
                    walk.visited.last().copied(),
                    walk.visited.len(),
                    false,
                ));
            }
        }
    }
    // Statically unsolved predicates: reuse the static pass (PL) or
    // resolve items now (BL).
    for (pred, prefix) in &ctx.truncated {
        match static_state
            .items
            .get(&(object.loid().serial(), pred.index()))
            .copied()
        {
            Some((item, start)) => unsolved.push((*pred, item, start, true)),
            None => {
                let (item, start) = resolve_item(ctx, object, prefix, counter);
                unsolved.push((*pred, item, start, false));
            }
        }
    }

    // Project targets; with target completion, resolve the nested
    // item whose assistants can supply an unprojectable value.
    let mut targets = Vec::with_capacity(ctx.targets.len());
    let mut target_items = vec![None; ctx.targets.len()];
    for (t, compiled) in ctx.targets.iter().enumerate() {
        match compiled {
            None => {
                targets.push(Value::Null);
                if let (true, Some(prefix)) = (config.complete_targets, &ctx.target_prefixes[t]) {
                    let walk = prefix.walk(ctx.db, object, counter);
                    target_items[t] = match walk.value.as_ref_loid() {
                        Some(item) => Some((item, prefix.len())),
                        // A null blocked the prefix: the deepest
                        // visited object is the item.
                        None => walk.visited.last().map(|&item| (item, walk.visited.len())),
                    };
                }
            }
            Some((path, terminal_domain)) => {
                let walk = path.walk(ctx.db, object, counter);
                match terminal_domain {
                    Some(domain) => {
                        counter.comparisons += 1; // LOid -> GOid probe
                        let translated = walk
                            .value
                            .as_ref_loid()
                            .and_then(|l| fed.catalog().table(*domain).goid_of(l))
                            .map_or(Value::Null, Value::GRef);
                        targets.push(translated);
                    }
                    None => targets.push(walk.value),
                }
            }
        }
    }

    counter.comparisons += 1; // root GOid probe
    let goid = fed.catalog().table(query.range()).goid_of(object.loid())?;
    let entries = unsolved
        .iter()
        .map(|(pred, item, _, _)| UnsolvedEntry {
            pred: *pred,
            item: *item,
        })
        .collect();
    let remainders = unsolved
        .into_iter()
        .map(|(_, item, start, from_static)| (item, start, from_static))
        .collect();
    Some((
        LocalRow {
            root_loid: object.loid(),
            goid,
            verdicts,
            unsolved: entries,
            targets,
            target_items,
        },
        remainders,
    ))
}

/// Index-seeded phase-P candidates (FedOQ extension, `pipeline.index`).
///
/// Picks the first local predicate that is a bare single-step equality
/// whose literal is indexable and whose root attribute carries a
/// maintained index, and returns the union of the index's exact matches
/// and its null-key unknowns, in extent scan order. Every object outside
/// that union holds a known non-null value different from the literal, so
/// the sequential scan would eliminate it with a definite `False` before
/// producing a row; skipping those objects leaves the surviving row list
/// byte-identical while phase P touches only `matches + unknowns` objects
/// instead of the whole extent.
///
/// Returns `None` (scan everything) when no predicate qualifies — path
/// traversals, non-equality operators, float literals (never indexed),
/// or simply no maintained index on the attribute.
fn index_candidates<'a>(
    ctx: &SiteContext<'_>,
    extent: &'a Extent,
    probes: &mut u64,
) -> Option<Vec<&'a Object>> {
    for compiled in ctx.local_preds.iter().flatten() {
        if compiled.op() != CmpOp::Eq || compiled.compiled_path().len() != 1 {
            continue;
        }
        let Some(slot) = compiled.compiled_path().step_attr(0) else {
            continue;
        };
        let Some(index) = ctx.db.index_on(ctx.plan.root_constituent(), &[slot]) else {
            continue;
        };
        let Some(key) = IndexKey::from_value(compiled.literal()) else {
            continue;
        };
        *probes += 1; // index hash probe
        let objects = extent.objects();
        let mut positions: Vec<usize> = index
            .matches(&key)
            .iter()
            .chain(index.unknowns().iter())
            .filter_map(|&loid| {
                *probes += 1; // candidate LOid -> extent slot probe
                extent.position(loid)
            })
            .collect();
        positions.sort_unstable();
        return Some(positions.iter().map(|&p| &objects[p]).collect());
    }
    None
}

/// One worker's phase-P partial: its surviving rows, eval counter, and
/// scanned bytes.
type ScanPartial = (Vec<(LocalRow, RowRemainders)>, EvalCounter, u64);

/// Merges chunked phase-P partials in chunk order (reproducing the
/// sequential row order) and charges the overlapped per-worker disk and
/// CPU shares to the site's clock.
fn merge_scan_partials(
    sim: &mut Simulation,
    site: Site,
    threads: usize,
    partials: Vec<ScanPartial>,
    rows: &mut Vec<(LocalRow, RowRemainders)>,
) {
    let params = *sim.params();
    let mut disk_costs = Vec::with_capacity(partials.len());
    let mut cpu_costs = Vec::with_capacity(partials.len());
    for (chunk_rows, counter, scan_bytes) in partials {
        rows.extend(chunk_rows);
        disk_costs.push(scan_bytes + counter.objects_fetched * params.object_bytes(1));
        cpu_costs.push(counter.comparisons);
    }
    sim.disk_parallel(site, &worker_shares(&disk_costs, threads), Phase::P);
    sim.cpu_parallel(site, &worker_shares(&cpu_costs, threads), Phase::P);
}

/// Steps BL_C1/BL_C2 (and PL_C2): evaluate the local predicates over the
/// root extent (phase P), then look up assistants for the unsolved data
/// local evaluation surfaced (phase O).
#[allow(clippy::too_many_arguments)]
fn scan_eval(
    fed: &Federation,
    query: &BoundQuery,
    ctx: &SiteContext<'_>,
    sim: &mut Simulation,
    config: LocalizedConfig,
    static_state: &StaticState,
    pipeline: PipelineConfig,
    cache: Option<&RefCell<LookupCache>>,
) -> SiteEval {
    let db_id = ctx.db.id();
    let site = Site::Db(db_id);
    let extent = ctx.db.extent(ctx.plan.root_constituent());
    let params = *sim.params();

    // --- Phase P: chunked over the root extent. Workers evaluate
    // disjoint chunks against the immutable federation; partials merge in
    // chunk order, so the row list is byte-identical to a sequential
    // scan. Parallel charges overlap the per-worker shares on the site's
    // clock instead of summing them. With `pipeline.index`, a maintained
    // index narrows the scan to its candidate set first (same rows, but
    // disk and CPU scale with selectivity instead of extent size).
    let mut rows: Vec<(LocalRow, RowRemainders)> = Vec::new();
    let mut index_probes = 0u64;
    let candidates: Option<Vec<&Object>> = if pipeline.index {
        index_candidates(ctx, extent, &mut index_probes)
    } else {
        None
    };
    if index_probes > 0 {
        sim.cpu(site, index_probes, Phase::P);
    }
    if let Some(cands) = &candidates {
        if pipeline.is_parallel() {
            let partials = map_chunks(cands, pipeline.threads, pipeline.chunk, |_, chunk| {
                let mut counter = EvalCounter::new();
                let mut chunk_rows = Vec::new();
                let mut scan_bytes = 0u64;
                for &object in chunk {
                    scan_bytes += params.object_bytes(ctx.root_width);
                    if let Some(pair) =
                        eval_object(fed, query, ctx, config, static_state, object, &mut counter)
                    {
                        chunk_rows.push(pair);
                    }
                }
                (chunk_rows, counter, scan_bytes)
            });
            merge_scan_partials(sim, site, pipeline.threads, partials, &mut rows);
        } else {
            let mut counter = EvalCounter::new();
            let mut scan_bytes = 0u64;
            for &object in cands {
                scan_bytes += params.object_bytes(ctx.root_width);
                if let Some(pair) =
                    eval_object(fed, query, ctx, config, static_state, object, &mut counter)
                {
                    rows.push(pair);
                }
            }
            sim.disk(
                site,
                scan_bytes + counter.objects_fetched * params.object_bytes(1),
                Phase::P,
            );
            sim.cpu(site, counter.comparisons, Phase::P);
        }
    } else if pipeline.is_parallel() {
        let partials = map_chunks(
            extent.objects(),
            pipeline.threads,
            pipeline.chunk,
            |_, chunk| {
                let mut counter = EvalCounter::new();
                let mut chunk_rows = Vec::new();
                let mut scan_bytes = 0u64;
                for object in chunk {
                    scan_bytes += params.object_bytes(ctx.root_width);
                    if let Some(pair) =
                        eval_object(fed, query, ctx, config, static_state, object, &mut counter)
                    {
                        chunk_rows.push(pair);
                    }
                }
                (chunk_rows, counter, scan_bytes)
            },
        );
        merge_scan_partials(sim, site, pipeline.threads, partials, &mut rows);
    } else {
        let mut counter = EvalCounter::new();
        let mut scan_bytes = 0u64;
        for object in extent.iter() {
            scan_bytes += params.object_bytes(ctx.root_width);
            if let Some(pair) =
                eval_object(fed, query, ctx, config, static_state, object, &mut counter)
            {
                rows.push(pair);
            }
        }
        sim.disk(
            site,
            scan_bytes + counter.objects_fetched * params.object_bytes(1),
            Phase::P,
        );
        sim.cpu(site, counter.comparisons, Phase::P);
    }

    // --- Phase O: assistant lookup for what evaluation surfaced.
    let mut comparisons = 0u64;
    let mut dynamic_requests = Vec::new();
    let mut target_requests = Vec::new();
    let mut seen = HashSet::new();
    let mut target_seen: HashSet<TargetRequest> = HashSet::new();
    let mut final_rows = Vec::with_capacity(rows.len());
    'rows: for (row, remainders) in rows {
        for (entry, (item, start, from_static)) in row.unsolved.iter().zip(&remainders) {
            if *from_static {
                continue; // PL issued these checks before evaluation
            }
            let Some(item_loid) = item else { continue };
            let ok = requests_for_item(
                fed,
                query,
                *item_loid,
                entry.pred,
                *start,
                config.use_signatures,
                cache,
                &mut comparisons,
                &mut seen,
                &mut dynamic_requests,
            );
            if !ok {
                continue 'rows; // signature proved a violation
            }
        }
        if config.complete_targets {
            for (t, item) in row.target_items.iter().enumerate() {
                let Some((item_loid, start)) = item else {
                    continue;
                };
                let (item_loid, start) = (item_loid, *start);
                let bound = &query.targets()[t];
                let item_class = bound.class(start);
                let first_slot = bound.slot(start);
                for assistant in filtered_siblings(
                    fed,
                    item_class,
                    first_slot,
                    *item_loid,
                    cache,
                    &mut comparisons,
                ) {
                    let request = TargetRequest {
                        item: *item_loid,
                        assistant,
                        target: t,
                        start,
                    };
                    comparisons += 1; // dedup probe
                    if target_seen.insert(request) {
                        target_requests.push(request);
                    }
                }
            }
        }
        final_rows.push(row);
    }
    sim.cpu(site, comparisons, Phase::O);

    SiteEval {
        db: db_id,
        rows: final_rows,
        static_requests: Vec::new(),
        dynamic_requests,
        target_requests,
    }
}

/// Runs one site's full share of a localized query — PL's static lookup
/// (when `mode` is [`LocalizedMode::Parallel`]), local predicate
/// evaluation, and post-evaluation assistant lookup — charging the site's
/// clock in `sim` for its disk and CPU work.
///
/// Returns `None` when the site hosts no constituent of the query's range
/// class (it receives no local query). Messaging is the caller's concern:
/// the in-process strategies narrate sends/receives to the simulation,
/// while the distributed runtime moves the same payloads through a
/// transport.
pub fn evaluate_site(
    fed: &Federation,
    query: &BoundQuery,
    db: DbId,
    mode: LocalizedMode,
    config: LocalizedConfig,
    sim: &mut Simulation,
) -> Result<Option<SiteEval>, ExecError> {
    evaluate_site_with(
        fed,
        query,
        db,
        mode,
        config,
        sim,
        PipelineConfig::sequential(),
        None,
    )
}

/// [`evaluate_site`] under an explicit pipeline: the phase-P extent scan
/// runs chunked over the pipeline's worker threads, and assistant-set
/// lookups consult the shared cache when one is given. The produced
/// [`SiteEval`] is identical for every configuration.
///
/// # Errors
///
/// As for [`evaluate_site`].
#[allow(clippy::too_many_arguments)]
pub fn evaluate_site_with(
    fed: &Federation,
    query: &BoundQuery,
    db: DbId,
    mode: LocalizedMode,
    config: LocalizedConfig,
    sim: &mut Simulation,
    pipeline: PipelineConfig,
    cache: Option<&RefCell<LookupCache>>,
) -> Result<Option<SiteEval>, ExecError> {
    let cache = if pipeline.cache { cache } else { None };
    let Some(plan) = plan_for_db(query, fed.global_schema(), db) else {
        return Ok(None);
    };
    let ctx = build_context(fed, query, &plan)?;
    let scan = match mode {
        LocalizedMode::Basic => StaticScan::default(),
        LocalizedMode::Parallel => scan_static(fed, query, &ctx, sim, config, pipeline, cache),
    };
    let mut eval = scan_eval(fed, query, &ctx, sim, config, &scan.state, pipeline, cache);
    eval.static_requests = scan.requests;
    Ok(Some(eval))
}

/// One assistant's verdict on one unsolved `(item, predicate)` pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckVerdict {
    /// The unsolved item the verdict certifies or eliminates.
    pub item: LOid,
    /// The conjunct checked.
    pub pred: PredId,
    /// The assistant's answer on its own data.
    pub verdict: Truth,
}

/// Answers a batch of check requests at their target site `db`: fetch each
/// assistant, evaluate the remaining predicate on it, and return the
/// verdicts (steps BL_C3 / PL_C3), charging `db`'s clock for the disk and
/// CPU work.
pub fn answer_check_requests(
    fed: &Federation,
    query: &BoundQuery,
    db_id: DbId,
    requests: &[CheckRequest],
    sim: &mut Simulation,
) -> Vec<CheckVerdict> {
    let params = *sim.params();
    let site = Site::Db(db_id);
    let db = fed.db(db_id);
    let mut counter = EvalCounter::new();
    let mut read_bytes = 0u64;
    let mut verdicts = Vec::with_capacity(requests.len());
    for request in requests {
        read_bytes += params.object_bytes(1);
        counter.comparisons += 1; // locate the assistant by LOid
        let verdict = check_assistant(fed, query, db, request, &mut counter);
        verdicts.push(CheckVerdict {
            item: request.item,
            pred: request.pred,
            verdict,
        });
    }
    sim.disk(
        site,
        read_bytes + counter.objects_fetched * params.object_bytes(1),
        Phase::O,
    );
    sim.cpu(site, counter.comparisons, Phase::O);
    verdicts
}

/// Answers a batch of target-value fetches at their target site `db`
/// (target-completion extension), charging `db`'s clock for the work.
/// Returns `((item, select-list position), value)` pairs.
pub fn answer_target_requests(
    fed: &Federation,
    query: &BoundQuery,
    db_id: DbId,
    requests: &[TargetRequest],
    sim: &mut Simulation,
) -> Vec<((LOid, usize), Value)> {
    let params = *sim.params();
    let site = Site::Db(db_id);
    let db = fed.db(db_id);
    let mut counter = EvalCounter::new();
    let mut read_bytes = 0u64;
    let mut values = Vec::with_capacity(requests.len());
    for request in requests {
        read_bytes += params.object_bytes(1);
        counter.comparisons += 1; // locate the assistant by LOid
        let value = fetch_target_value(fed, query, db, request, &mut counter);
        values.push(((request.item, request.target), value));
    }
    sim.disk(
        site,
        read_bytes + counter.objects_fetched * params.object_bytes(1),
        Phase::O,
    );
    sim.cpu(site, counter.comparisons, Phase::O);
    values
}

/// Reads one target value from one assistant object, translating the path
/// remainder into the target site's own attribute names.
fn fetch_target_value(
    fed: &Federation,
    query: &BoundQuery,
    db: &ComponentDb,
    request: &TargetRequest,
    counter: &mut EvalCounter,
) -> Value {
    let bound = &query.targets()[request.target];
    let value = match db.object(request.assistant) {
        Some(object) => match translate_steps(fed, db.id(), bound, request.start, bound.len()) {
            Some(remaining) => match CompiledPath::compile(db, object.class(), &remaining) {
                Ok(path) => path.walk(db, object, counter).value,
                Err(_) => Value::Null,
            },
            None => Value::Null,
        },
        None => Value::Null,
    };
    // Complex terminals would need a further GOid translation; completion
    // covers primitive target values.
    match value {
        Value::Ref(_) => Value::Null,
        other => other,
    }
}

/// Bytes of one local-results message: per row, the entity id, the local
/// oid, the projected targets, and one oid + tag per unsolved entry.
pub fn result_message_bytes(rows: &[LocalRow], params: &SystemParams) -> u64 {
    rows.iter()
        .map(|row| {
            params.goid_bytes
                + params.loid_bytes
                + row.targets.len() as u64 * params.attr_bytes
                + row.unsolved.len() as u64 * (params.loid_bytes + 1)
        })
        .sum()
}

/// Bytes of one check-request batch: assistant oid + item oid + predicate.
pub fn request_message_bytes(count: usize, params: &SystemParams) -> u64 {
    count as u64 * (2 * params.loid_bytes + params.predicate_bytes())
}

/// Bytes of one check-reply batch: item oid + assistant oid + verdict tag.
pub fn reply_message_bytes(count: usize, params: &SystemParams) -> u64 {
    count as u64 * (2 * params.loid_bytes + 1)
}

/// Bytes of one target-reply batch: item oid + assistant oid + value.
pub fn target_reply_message_bytes(count: usize, params: &SystemParams) -> u64 {
    count as u64 * (2 * params.loid_bytes + params.attr_bytes)
}

/// Groups requests by the database owning the assistants.
fn group_by_target(requests: &[CheckRequest]) -> HashMap<DbId, Vec<&CheckRequest>> {
    let mut out: HashMap<DbId, Vec<&CheckRequest>> = HashMap::new();
    for r in requests {
        out.entry(r.assistant.db()).or_default().push(r);
    }
    out
}

/// Sends one wave of check-request batches, fragmenting each
/// `(source, target)` batch per the pipeline's batch size; returns
/// `(target, token, fragment)` triples for later processing. With a
/// cache, each request is first probed against the replicated verdict
/// store: hits are recorded into `replies` directly — verdict merging is
/// commutative, so recording order is immaterial — and never reach the
/// wire.
fn send_request_wave<'a>(
    sources: &[(DbId, &'a [CheckRequest])],
    sim: &mut Simulation,
    pipeline: PipelineConfig,
    cache: Option<&RefCell<LookupCache>>,
    fingerprint: u64,
    replies: &mut CheckReplies,
) -> Vec<(DbId, MessageToken, Vec<&'a CheckRequest>)> {
    let params = *sim.params();
    let mut sends = Vec::new();
    let mut meta = Vec::new();
    for (source, requests) in sources {
        let mut grouped: Vec<_> = group_by_target(requests).into_iter().collect();
        grouped.sort_by_key(|(db, _)| *db); // deterministic wire order
        for (target, batch) in grouped {
            let mut misses = Vec::with_capacity(batch.len());
            for request in batch {
                let hit = cache.and_then(|c| {
                    let key = CacheKey::Verdict {
                        assistant: request.assistant,
                        pred: request.pred.index(),
                        start: request.start,
                        query: fingerprint,
                    };
                    match c.borrow_mut().get(&key) {
                        Some(CacheValue::Verdict(verdict)) => Some(verdict),
                        _ => None,
                    }
                });
                match hit {
                    Some(verdict) => replies.record(request.item, request.pred, verdict),
                    None => misses.push(request),
                }
            }
            for fragment in pipeline.split(&misses) {
                let bytes = request_message_bytes(fragment.len(), &params);
                sends.push((Site::Db(*source), Site::Db(target), bytes, Phase::O));
                meta.push((target, fragment.to_vec()));
            }
        }
    }
    let tokens = sim.send_batch(sends);
    meta.into_iter()
        .zip(tokens)
        .map(|((target, batch), token)| (target, token, batch))
        .collect()
}

/// Processes one wave of check requests at their target sites: fetch each
/// assistant, evaluate the remaining predicate, and send the verdicts to
/// the global site (steps BL_C3 / PL_C3). Freshly computed verdicts fill
/// the cache for subsequent queries.
fn process_check_wave(
    fed: &Federation,
    query: &BoundQuery,
    waves: Vec<(DbId, MessageToken, Vec<&CheckRequest>)>,
    sim: &mut Simulation,
    replies: &mut CheckReplies,
    cache: Option<&RefCell<LookupCache>>,
    fingerprint: u64,
) {
    let params = *sim.params();
    let mut reply_sends = Vec::new();
    for (target, token, batch) in waves {
        let site = Site::Db(target);
        sim.recv(site, token);
        let requests: Vec<CheckRequest> = batch.iter().map(|r| **r).collect();
        for (request, v) in requests
            .iter()
            .zip(answer_check_requests(fed, query, target, &requests, sim))
        {
            if let Some(c) = cache {
                c.borrow_mut().put(
                    CacheKey::Verdict {
                        assistant: request.assistant,
                        pred: request.pred.index(),
                        start: request.start,
                        query: fingerprint,
                    },
                    CacheValue::Verdict(v.verdict),
                );
            }
            replies.record(v.item, v.pred, v.verdict);
        }
        let bytes = reply_message_bytes(batch.len(), &params);
        reply_sends.push((site, Site::Global, bytes, Phase::O));
    }
    let tokens = sim.send_batch(reply_sends);
    sim.recv_all(Site::Global, tokens);
}

/// One site's pending target-fetch work: the wire fragments addressed to
/// it from one `(source, target)` batch, with per-request cache hits kept
/// in their original batch positions. Target merging takes the *first*
/// non-null value per `(item, slot)`, so — unlike check verdicts — reply
/// order is observable and hits must be spliced back in place.
struct TargetWave<'a> {
    target: DbId,
    tokens: Vec<MessageToken>,
    /// The full batch in request order; `Some` carries a cached value.
    batch: Vec<(&'a TargetRequest, Option<Value>)>,
    /// Sizes of the wire fragments (the cache misses, split per the
    /// pipeline's batch size) — replies fragment the same way.
    frag_sizes: Vec<usize>,
}

/// Processes target-value fetches at their target sites and sends the
/// values to the global site (target-completion extension). Cache misses
/// are answered remotely and fill the cache; hits contribute their stored
/// value at their original batch position.
fn process_target_wave(
    fed: &Federation,
    query: &BoundQuery,
    waves: Vec<TargetWave<'_>>,
    sim: &mut Simulation,
    replies: &mut TargetReplies,
    cache: Option<&RefCell<LookupCache>>,
    fingerprint: u64,
) {
    let params = *sim.params();
    let mut reply_sends = Vec::new();
    for wave in waves {
        let site = Site::Db(wave.target);
        for token in wave.tokens {
            sim.recv(site, token);
        }
        let misses: Vec<TargetRequest> = wave
            .batch
            .iter()
            .filter(|(_, hit)| hit.is_none())
            .map(|(r, _)| **r)
            .collect();
        let mut answered = answer_target_requests(fed, query, wave.target, &misses, sim)
            .into_iter()
            .map(|(_, value)| value);
        for (request, hit) in wave.batch {
            let value = match hit {
                Some(value) => value,
                None => {
                    let value = answered.next().expect("one answer per miss");
                    if let Some(c) = cache {
                        c.borrow_mut().put(
                            CacheKey::Target {
                                assistant: request.assistant,
                                target: request.target,
                                start: request.start,
                                query: fingerprint,
                            },
                            CacheValue::Target(value.clone()),
                        );
                    }
                    value
                }
            };
            replies
                .entry((request.item, request.target))
                .or_default()
                .push(value);
        }
        for size in wave.frag_sizes {
            reply_sends.push((
                site,
                Site::Global,
                target_reply_message_bytes(size, &params),
                Phase::O,
            ));
        }
    }
    let tokens = sim.send_batch(reply_sends);
    sim.recv_all(Site::Global, tokens);
}

/// Fetched target values, keyed by `(item, select-list position)`.
pub type TargetReplies = HashMap<(LOid, usize), Vec<Value>>;

/// Evaluates one remaining predicate on one assistant object, translating
/// the path remainder into the target site's own attribute names.
fn check_assistant(
    fed: &Federation,
    query: &BoundQuery,
    db: &ComponentDb,
    request: &CheckRequest,
    counter: &mut EvalCounter,
) -> Truth {
    let Some(object) = db.object(request.assistant) else {
        return Truth::Unknown; // stale mapping-table entry
    };
    let bound = query.predicate(request.pred);
    let Some(remaining) = translate_steps(
        fed,
        db.id(),
        bound.path(),
        request.start,
        bound.path().len(),
    ) else {
        // This site is missing a deeper attribute on the path: the check
        // cannot decide either way.
        return Truth::Unknown;
    };
    let compiled = CompiledPredicate::compile(
        db,
        object.class(),
        &remaining,
        bound.op(),
        bound.literal().clone(),
    );
    match compiled {
        Ok(pred) => pred.eval(db, object, counter).0,
        Err(_) => Truth::Unknown,
    }
}

/// Shared orchestration of BL, PL, and HY under an explicit pipeline:
/// each hosting site runs BL's or PL's schedule as `policy` assigns it,
/// which is sound because the schedules only differ in *when* assistant
/// checks go on the wire, never in what gets checked. The phase-P scans
/// run chunked, check/target batches fragment into at most `batch`
/// probes per message, and the shared cache short-circuits repeated
/// assistant lookups. The default pipeline without a cache reproduces
/// the legacy sequential execution — message for message.
pub(crate) fn execute_localized_policy(
    fed: &Federation,
    query: &BoundQuery,
    sim: &mut Simulation,
    policy: &ModePolicy,
    config: LocalizedConfig,
    pipeline: PipelineConfig,
    cache: Option<&RefCell<LookupCache>>,
) -> Result<QueryAnswer, ExecError> {
    let cache = if pipeline.cache { cache } else { None };
    let fingerprint = if cache.is_some() {
        query_fingerprint(query)
    } else {
        0
    };
    let schema = fed.global_schema();
    let params = *sim.params();

    // Step BL_G1 / PL_G1: ship local queries to the hosting sites.
    let mut plans = Vec::new();
    for db in fed.dbs() {
        if let Some(plan) = plan_for_db(query, schema, db.id()) {
            plans.push(plan);
        }
    }
    let queried_dbs: Vec<DbId> = plans.iter().map(fedoq_query::SitePlan::db).collect();
    let query_sends = plans
        .iter()
        .map(|p| {
            (
                Site::Global,
                Site::Db(p.db()),
                2 * params.attr_bytes,
                Phase::Ship,
            )
        })
        .collect();
    let tokens = sim.send_batch(query_sends);
    for (plan, token) in plans.iter().zip(tokens) {
        sim.recv(Site::Db(plan.db()), token);
    }

    let mut contexts = Vec::with_capacity(plans.len());
    for plan in &plans {
        contexts.push(build_context(fed, query, plan)?);
    }

    // PL: run the static phase-O pass at every site, then put its check
    // requests on the wire *before* charging phase P anywhere — the wire
    // sees them at each site's phase-O completion time.
    let mut static_requests: Vec<Vec<CheckRequest>> = Vec::with_capacity(contexts.len());
    let mut static_states: Vec<StaticState> = Vec::with_capacity(contexts.len());
    for ctx in &contexts {
        let scan = match policy.mode_for(ctx.db.id()) {
            LocalizedMode::Basic => StaticScan::default(),
            LocalizedMode::Parallel => scan_static(fed, query, ctx, sim, config, pipeline, cache),
        };
        static_requests.push(scan.requests);
        static_states.push(scan.state);
    }
    let mut replies = CheckReplies::new();
    let static_sources: Vec<(DbId, &[CheckRequest])> = contexts
        .iter()
        .zip(&static_requests)
        .map(|(ctx, requests)| (ctx.db.id(), requests.as_slice()))
        .collect();
    let static_waves = send_request_wave(
        &static_sources,
        sim,
        pipeline,
        cache,
        fingerprint,
        &mut replies,
    );

    // Local evaluation everywhere.
    let mut outputs = Vec::with_capacity(contexts.len());
    for (ctx, state) in contexts.iter().zip(&static_states) {
        outputs.push(scan_eval(
            fed, query, ctx, sim, config, state, pipeline, cache,
        ));
    }

    // Post-evaluation check requests, target fetches, and local results.
    let dynamic_sources: Vec<(DbId, &[CheckRequest])> = outputs
        .iter()
        .map(|o| (o.db, o.dynamic_requests.as_slice()))
        .collect();
    let dynamic_waves = send_request_wave(
        &dynamic_sources,
        sim,
        pipeline,
        cache,
        fingerprint,
        &mut replies,
    );
    let mut target_sends = Vec::new();
    let mut target_meta = Vec::new();
    for output in &outputs {
        let mut grouped: HashMap<DbId, Vec<&TargetRequest>> = HashMap::new();
        for r in &output.target_requests {
            grouped.entry(r.assistant.db()).or_default().push(r);
        }
        let mut grouped: Vec<_> = grouped.into_iter().collect();
        grouped.sort_by_key(|(db, _)| *db);
        for (target, batch) in grouped {
            // Probe the cache per request; misses fragment onto the wire.
            let mut annotated = Vec::with_capacity(batch.len());
            let mut misses = Vec::new();
            for request in batch {
                let hit = cache.and_then(|c| {
                    let key = CacheKey::Target {
                        assistant: request.assistant,
                        target: request.target,
                        start: request.start,
                        query: fingerprint,
                    };
                    match c.borrow_mut().get(&key) {
                        Some(CacheValue::Target(value)) => Some(value),
                        _ => None,
                    }
                });
                if hit.is_none() {
                    misses.push(request);
                }
                annotated.push((request, hit));
            }
            let mut frag_sizes = Vec::new();
            let mut send_indices = Vec::new();
            for fragment in pipeline.split(&misses) {
                let bytes =
                    fragment.len() as u64 * (2 * params.loid_bytes + params.predicate_bytes());
                send_indices.push(target_sends.len());
                target_sends.push((Site::Db(output.db), Site::Db(target), bytes, Phase::O));
                frag_sizes.push(fragment.len());
            }
            target_meta.push((target, annotated, frag_sizes, send_indices));
        }
    }
    let target_tokens = sim.send_batch(target_sends);
    let target_waves: Vec<TargetWave<'_>> = target_meta
        .into_iter()
        .map(|(target, batch, frag_sizes, send_indices)| TargetWave {
            target,
            tokens: send_indices.iter().map(|&i| target_tokens[i]).collect(),
            batch,
            frag_sizes,
        })
        .collect();
    let result_sends = outputs
        .iter()
        .map(|o| {
            (
                Site::Db(o.db),
                Site::Global,
                result_message_bytes(&o.rows, &params),
                Phase::I,
            )
        })
        .collect();
    let tokens = sim.send_batch(result_sends);
    sim.recv_all(Site::Global, tokens);

    // Remote checking (PL's static wave first — it arrived first).
    process_check_wave(
        fed,
        query,
        static_waves,
        sim,
        &mut replies,
        cache,
        fingerprint,
    );
    process_check_wave(
        fed,
        query,
        dynamic_waves,
        sim,
        &mut replies,
        cache,
        fingerprint,
    );
    let mut target_replies = TargetReplies::new();
    process_target_wave(
        fed,
        query,
        target_waves,
        sim,
        &mut target_replies,
        cache,
        fingerprint,
    );

    // Step BL_G2 / PL_G2: certification at the global site (phase I).
    let site_rows: Vec<(DbId, Vec<LocalRow>)> =
        outputs.into_iter().map(|o| (o.db, o.rows)).collect();
    Ok(certify(
        fed,
        query,
        site_rows,
        &replies,
        &target_replies,
        &queried_dbs,
        sim,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructor_flags() {
        assert!(!BasicLocalized::new().use_signatures);
        assert!(!BasicLocalized::new().complete_targets);
        assert!(BasicLocalized::with_signatures().use_signatures);
        assert!(BasicLocalized::new().completing_targets().complete_targets);
        let both = BasicLocalized::with_signatures().completing_targets();
        assert!(both.use_signatures && both.complete_targets);
        assert!(ParallelLocalized::with_signatures().use_signatures);
        assert!(
            ParallelLocalized::new()
                .completing_targets()
                .complete_targets
        );
        assert_eq!(BasicLocalized::default(), BasicLocalized::new());
        assert_eq!(ParallelLocalized::default(), ParallelLocalized::new());
    }

    #[test]
    fn strategy_names_reflect_signature_use() {
        use crate::strategy::ExecutionStrategy as _;
        assert_eq!(BasicLocalized::new().name(), "BL");
        assert_eq!(BasicLocalized::with_signatures().name(), "BL-S");
        assert_eq!(ParallelLocalized::new().name(), "PL");
        assert_eq!(ParallelLocalized::with_signatures().name(), "PL-S");
    }

    #[test]
    fn dedup_drops_repeated_requests() {
        let mut seen = HashSet::new();
        let item = LOid::new(DbId::new(0), 1);
        let assistant = LOid::new(DbId::new(1), 2);
        let request = CheckRequest {
            item,
            assistant,
            pred: PredId::new(0),
            start: 1,
        };
        assert!(seen.insert(request));
        assert!(!seen.insert(request));
        // A different start (same item/assistant/pred) is a distinct check.
        let other = CheckRequest {
            item,
            assistant,
            pred: PredId::new(0),
            start: 0,
        };
        assert!(seen.insert(other));
    }
}
