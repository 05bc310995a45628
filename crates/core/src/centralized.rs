//! The centralized approach (CA): phase order O → I → P.
//!
//! Every object of every involved local root and local branch class is
//! projected on the query's attributes and shipped to the global
//! processing site, which materializes the global classes by outerjoining
//! the constituents over GOids (phases O and I) and then evaluates the
//! predicates on the integrated objects (phase P).

use crate::cache::{query_fingerprint, CacheKey, CacheValue, LookupCache};
use crate::error::ExecError;
use crate::federation::Federation;
use crate::localized::ExecPlan;
use crate::materialize::CentralExtents;
use crate::pipeline::PipelineConfig;
use crate::result::{MaybeRow, QueryAnswer, ResultRow};
use crate::strategy::ExecutionStrategy;
use fedoq_object::{DbId, GOid, Truth};
use fedoq_query::BoundQuery;
use fedoq_sim::{Phase, Simulation, Site, SystemParams};
use fedoq_store::{map_chunks, worker_shares};
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// The centralized strategy (the paper's algorithm **CA**).
///
/// See the crate-level example.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Centralized;

impl ExecutionStrategy for Centralized {
    fn plan(&self) -> ExecPlan {
        ExecPlan::Centralized
    }
}

/// CA under an explicit pipeline: the ship phase (steps CA_G1/CA_C1)
/// followed by the global-site share.
///
/// With the cache enabled, each projected-extent shipment is remembered
/// under `(site, plan position, query)`; a repeat of the same query under
/// an unchanged federation generation finds every shipment warm and skips
/// the query broadcast, the disk reads, and the wire transfer entirely —
/// the global site still holds the extents it was shipped last time.
///
/// # Errors
///
/// As for [`Centralized`]'s `execute`.
pub fn centralized_execute_with(
    fed: &Federation,
    query: &BoundQuery,
    sim: &mut Simulation,
    pipeline: PipelineConfig,
    cache: Option<&RefCell<LookupCache>>,
) -> Result<QueryAnswer, ExecError> {
    let cache = if pipeline.cache { cache } else { None };
    // --- Step CA_G1 / CA_C1: request and ship the projected extents.
    let params = *sim.params();
    let plan = ship_plan(fed, query, &params);

    let mut cold = vec![true; plan.shipments.len()];
    if let Some(cache) = cache {
        let fingerprint = query_fingerprint(query);
        let mut cache = cache.borrow_mut();
        for (index, &(db, bytes)) in plan.shipments.iter().enumerate() {
            let key = CacheKey::Shipment {
                db,
                index,
                query: fingerprint,
            };
            if cache.get(&key) == Some(CacheValue::Shipment(bytes)) {
                cold[index] = false;
            } else {
                cache.put(key, CacheValue::Shipment(bytes));
            }
        }
    }

    // Only sites still owing a shipment receive the query. Without a
    // cache every shipment is cold and this is exactly the full site
    // list, preserving the legacy cost profile bit for bit.
    let contact: Vec<DbId> = if cache.is_some() {
        plan.sites
            .iter()
            .copied()
            .filter(|&db| {
                plan.shipments
                    .iter()
                    .zip(&cold)
                    .any(|(&(owner, _), &is_cold)| owner == db && is_cold)
            })
            .collect()
    } else {
        plan.sites.clone()
    };
    let requests: Vec<_> = contact
        .iter()
        .map(|&db| {
            let token = sim.send(
                Site::Global,
                Site::Db(db),
                2 * params.attr_bytes,
                Phase::Ship,
            );
            (db, token)
        })
        .collect();
    for &(db, token) in &requests {
        sim.recv(Site::Db(db), token);
    }

    let mut shipments = Vec::new();
    for (index, &(db, bytes)) in plan.shipments.iter().enumerate() {
        if !cold[index] {
            continue;
        }
        sim.disk(Site::Db(db), bytes, Phase::Ship);
        shipments.push((Site::Db(db), Site::Global, bytes, Phase::Ship));
    }
    let tokens = sim.send_batch(shipments);
    sim.recv_all(Site::Global, tokens);

    // --- Steps CA_G2 / CA_G3 at the global site.
    centralized_answer_cached(fed, query, sim, pipeline, cache)
}

/// CA's shipping plan: which sites receive the query and how many bytes of
/// projected extent each involved constituent ships to the global site.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShipPlan {
    /// Sites hosting any involved constituent (they receive the query),
    /// ascending.
    pub sites: Vec<DbId>,
    /// `(hosting site, projected extent bytes)` per involved constituent,
    /// in deterministic (class, constituent) order.
    pub shipments: Vec<(DbId, u64)>,
}

/// Computes CA's step CA_C1 without touching a simulation: every involved
/// constituent extent, projected on the query's attributes, sized in bytes.
pub fn ship_plan(fed: &Federation, query: &BoundQuery, params: &SystemParams) -> ShipPlan {
    let schema = fed.global_schema();
    let mut involved = query.involved_slots();
    involved.entry(query.range()).or_default();
    let sites: BTreeSet<DbId> = involved
        .keys()
        .flat_map(|&c| schema.class(c).hosting_dbs())
        .collect();
    // `involved_slots` hands back a HashMap; order it before walking so
    // the shipment list really is in (class, constituent) order — the
    // shipment cache keys entries by position in this list.
    let involved: BTreeMap<_, _> = involved.into_iter().collect();
    let mut shipments = Vec::new();
    for (&class_id, slots) in &involved {
        for constituent in schema.class(class_id).constituents() {
            let db = constituent.db();
            let present = slots
                .iter()
                .filter(|&&g| !constituent.is_missing(g))
                .count();
            let count = fed.db(db).extent(constituent.class()).len() as u64;
            shipments.push((db, count * params.object_bytes(present)));
        }
    }
    ShipPlan {
        sites: sites.into_iter().collect(),
        shipments,
    }
}

/// Runs CA's global-site share — materialize the global classes (phases O
/// and I) and evaluate the predicates on them (phase P) — charging the
/// global site's clock in `sim`. This is the unit of work the distributed
/// global actor performs once every shipment has arrived.
pub fn centralized_answer(
    fed: &Federation,
    query: &BoundQuery,
    sim: &mut Simulation,
) -> Result<QueryAnswer, ExecError> {
    centralized_answer_with(fed, query, sim, PipelineConfig::sequential())
}

/// [`centralized_answer`] under an explicit pipeline: the sorted roots are
/// split into chunks that parallel workers evaluate independently, and
/// the per-chunk partials are merged back in chunk order — the answer is
/// byte-identical to the sequential walk. The simulation charges every
/// probe either way; a parallel configuration merely overlaps the chunk
/// costs on the global site's clock, advancing it by the critical path.
///
/// # Errors
///
/// As for [`centralized_answer`].
pub fn centralized_answer_with(
    fed: &Federation,
    query: &BoundQuery,
    sim: &mut Simulation,
    pipeline: PipelineConfig,
) -> Result<QueryAnswer, ExecError> {
    centralized_answer_cached(fed, query, sim, pipeline, None)
}

/// [`centralized_answer_with`] with access to the shared lookup cache.
///
/// With the cache enabled, the built [`CentralExtents`] (materialized
/// extents, sorted roots, and — under `pipeline.index` — the root
/// equality indexes) is remembered under the query's fingerprint: a warm
/// repeat skips phases O and I entirely, the global site still holding
/// the integrated extents from the previous run. With `pipeline.index`,
/// phase P scans only the equality-index candidates instead of every
/// root; the skipped roots would be eliminated by a definite `False`, so
/// the answer stays byte-identical.
pub(crate) fn centralized_answer_cached(
    fed: &Federation,
    query: &BoundQuery,
    sim: &mut Simulation,
    pipeline: PipelineConfig,
    cache: Option<&RefCell<LookupCache>>,
) -> Result<QueryAnswer, ExecError> {
    let cache = if pipeline.cache { cache } else { None };
    let mut involved = query.involved_slots();
    // The range class is always involved: its extent seeds the rows even
    // when neither targets nor predicates read a root attribute.
    involved.entry(query.range()).or_default();

    // --- Step CA_G2: materialize the global classes (phases O and I) —
    // or reuse the warm extents from the previous run of this query.
    let fingerprint = cache.map(|_| query_fingerprint(query));
    let warm = match (cache, fingerprint) {
        (Some(cache), Some(fp)) => cache.borrow_mut().materialized(fp, pipeline.index),
        _ => None,
    };
    let central = match warm {
        Some(central) => central,
        None => {
            let (central, cost, index_probes) =
                CentralExtents::build(fed, query, &involved, pipeline.index)?;
            sim.cpu(Site::Global, cost.o_comparisons, Phase::O);
            sim.cpu(Site::Global, cost.i_comparisons + index_probes, Phase::I);
            let central = Arc::new(central);
            if let (Some(cache), Some(fp)) = (cache, fingerprint) {
                cache
                    .borrow_mut()
                    .put_materialized(fp, pipeline.index, central.clone());
            }
            central
        }
    };
    let materialized = &central.mat;

    // --- Step CA_G3: evaluate the predicates (phase P), over the index
    // candidates when an equality predicate has a built slot index.
    let mut index_probes = 0u64;
    let candidates = if pipeline.index {
        central.candidates(query, &mut index_probes)
    } else {
        None
    };
    if index_probes > 0 {
        sim.cpu(Site::Global, index_probes, Phase::P);
    }
    let roots: &[GOid] = candidates.as_deref().unwrap_or(&central.roots);

    let partials = map_chunks(roots, pipeline.threads, pipeline.chunk, |_, chunk| {
        let mut certain = Vec::new();
        let mut maybe = Vec::new();
        let mut probes = 0u64;
        for &goid in chunk {
            let mut eliminated = false;
            let mut unsolved = Vec::new();
            for pred in query.predicates() {
                let value = materialized.walk(goid, pred.path(), &mut probes);
                probes += 1;
                match value.compare(pred.op(), pred.literal()) {
                    Truth::True => {}
                    Truth::False => {
                        eliminated = true;
                        break;
                    }
                    Truth::Unknown => unsolved.push(pred.id()),
                }
            }
            if eliminated {
                continue;
            }
            let values = query
                .targets()
                .iter()
                .map(|t| materialized.walk(goid, t, &mut probes))
                .collect();
            let row = ResultRow::new(goid, values);
            if unsolved.is_empty() {
                certain.push(row);
            } else {
                maybe.push(MaybeRow::new(row, unsolved));
            }
        }
        (certain, maybe, probes)
    });

    let mut certain = Vec::new();
    let mut maybe = Vec::new();
    let mut chunk_probes = Vec::with_capacity(partials.len());
    for (chunk_certain, chunk_maybe, probes) in partials {
        certain.extend(chunk_certain);
        maybe.extend(chunk_maybe);
        chunk_probes.push(probes);
    }
    if pipeline.is_parallel() {
        let shares = worker_shares(&chunk_probes, pipeline.threads);
        sim.cpu_parallel(Site::Global, &shares, Phase::P);
    } else {
        sim.cpu(Site::Global, chunk_probes.iter().sum(), Phase::P);
    }
    Ok(QueryAnswer::new(certain, maybe))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::run_strategy;
    use fedoq_object::Value;
    use fedoq_schema::Correspondences;
    use fedoq_sim::SystemParams;
    use fedoq_store::{AttrType, ClassDef, ComponentDb, ComponentSchema};

    /// DB0: Student(s-no, age) — no sex. DB1: Student(s-no, sex) — no age.
    fn fed() -> Federation {
        let s0 = ComponentSchema::new(vec![ClassDef::new("Student")
            .attr("s-no", AttrType::int())
            .attr("age", AttrType::int())
            .key(["s-no"])])
        .unwrap();
        let s1 = ComponentSchema::new(vec![ClassDef::new("Student")
            .attr("s-no", AttrType::int())
            .attr("sex", AttrType::text())
            .key(["s-no"])])
        .unwrap();
        let mut db0 = ComponentDb::new(DbId::new(0), "DB0", s0);
        let mut db1 = ComponentDb::new(DbId::new(1), "DB1", s1);
        // Entity 1: both copies; age known.
        db0.insert_named(
            "Student",
            &[("s-no", Value::Int(1)), ("age", Value::Int(31))],
        )
        .unwrap();
        db1.insert_named(
            "Student",
            &[("s-no", Value::Int(1)), ("sex", Value::text("m"))],
        )
        .unwrap();
        // Entity 2: only in DB1; age unknown everywhere.
        db1.insert_named(
            "Student",
            &[("s-no", Value::Int(2)), ("sex", Value::text("f"))],
        )
        .unwrap();
        // Entity 3: only in DB0; too young.
        db0.insert_named(
            "Student",
            &[("s-no", Value::Int(3)), ("age", Value::Int(20))],
        )
        .unwrap();
        Federation::new(vec![db0, db1], &Correspondences::new()).unwrap()
    }

    #[test]
    fn certain_maybe_and_eliminated() {
        let f = fed();
        let q = f
            .parse_and_bind("SELECT X.s-no FROM Student X WHERE X.age >= 30")
            .unwrap();
        let (answer, metrics) =
            run_strategy(&Centralized, &f, &q, SystemParams::paper_default()).unwrap();
        assert_eq!(answer.certain().len(), 1);
        assert_eq!(answer.certain()[0].values(), &[Value::Int(1)]);
        assert_eq!(answer.maybe().len(), 1);
        assert_eq!(answer.maybe()[0].row().values(), &[Value::Int(2)]);
        assert!(metrics.total_execution_us > 0.0);
        assert!(metrics.response_us > 0.0);
        assert!(metrics.bytes_transferred > 0);
    }

    #[test]
    fn maybe_turned_certain_by_isomeric_copy() {
        // Queried on `sex` (missing in DB0): entity 1's DB0 copy would be a
        // maybe result, but its DB1 copy supplies sex = 'm'.
        let f = fed();
        let q = f
            .parse_and_bind("SELECT X.s-no FROM Student X WHERE X.sex = 'm'")
            .unwrap();
        let (answer, _) =
            run_strategy(&Centralized, &f, &q, SystemParams::paper_default()).unwrap();
        assert_eq!(answer.certain().len(), 1);
        assert_eq!(answer.certain()[0].values(), &[Value::Int(1)]);
        // Entity 2: sex = 'f' => eliminated. Entity 3: sex unknown => maybe.
        assert_eq!(answer.maybe().len(), 1);
        assert_eq!(answer.maybe()[0].row().values(), &[Value::Int(3)]);
    }

    #[test]
    fn no_predicates_returns_all_entities_certain() {
        let f = fed();
        let q = f.parse_and_bind("SELECT X.s-no FROM Student X").unwrap();
        let (answer, _) =
            run_strategy(&Centralized, &f, &q, SystemParams::paper_default()).unwrap();
        assert_eq!(answer.certain().len(), 3);
        assert!(answer.maybe().is_empty());
    }

    #[test]
    fn warm_cache_skips_materialization_and_index_narrows_phase_p() {
        use crate::strategy::run_strategy_with_pipeline;
        let f = fed();
        let q = f
            .parse_and_bind("SELECT X.s-no FROM Student X WHERE X.sex = 'm'")
            .unwrap();
        let params = SystemParams::paper_default();
        let (baseline, _) = run_strategy(&Centralized, &f, &q, params).unwrap();

        let pipeline = PipelineConfig::sequential().with_cache().with_index();
        let cache = std::cell::RefCell::new(crate::cache::LookupCache::default());
        let (cold, cold_metrics) =
            run_strategy_with_pipeline(&Centralized, &f, &q, params, pipeline, Some(&cache))
                .unwrap();
        let (warm, warm_metrics) =
            run_strategy_with_pipeline(&Centralized, &f, &q, params, pipeline, Some(&cache))
                .unwrap();
        // The cached + indexed runs answer byte-identically to the
        // legacy sequential execution.
        assert_eq!(cold, baseline);
        assert_eq!(warm, baseline);
        // The warm run reuses the materialized extents (phases O and I
        // skipped) and the shipments (ship phase skipped): strictly
        // cheaper than the cold run, and the cache really was hit.
        assert!(warm_metrics.total_execution_us < cold_metrics.total_execution_us);
        assert!(cache.borrow().stats().hits > 0);
    }

    #[test]
    fn float_literals_never_take_the_index_path() {
        use crate::strategy::run_strategy_with_pipeline;
        // A float-typed attribute: the equality index cannot serve it
        // (floats are not indexable), so the indexed run must fall back
        // to the full scan — and still answer identically.
        let s0 = ComponentSchema::new(vec![ClassDef::new("Student")
            .attr("s-no", AttrType::int())
            .attr("gpa", AttrType::float())
            .key(["s-no"])])
        .unwrap();
        let mut db0 = ComponentDb::new(DbId::new(0), "DB0", s0);
        for (sno, gpa) in [(1, Some(3.5)), (2, Some(2.0)), (3, None)] {
            db0.insert_named(
                "Student",
                &[
                    ("s-no", Value::Int(sno)),
                    ("gpa", gpa.map_or(Value::Null, Value::Float)),
                ],
            )
            .unwrap();
        }
        let f = Federation::new(vec![db0], &Correspondences::new()).unwrap();
        let q = f
            .parse_and_bind("SELECT X.s-no FROM Student X WHERE X.gpa = 3.5")
            .unwrap();
        let params = SystemParams::paper_default();
        let (baseline, _) = run_strategy(&Centralized, &f, &q, params).unwrap();
        let pipeline = PipelineConfig::sequential().with_index();
        let (indexed, _) =
            run_strategy_with_pipeline(&Centralized, &f, &q, params, pipeline, None).unwrap();
        assert_eq!(indexed, baseline);
        assert_eq!(baseline.certain().len(), 1);
        assert_eq!(baseline.maybe().len(), 1); // the null-gpa student
    }

    #[test]
    fn response_time_includes_serialized_shipping() {
        let f = fed();
        let q = f
            .parse_and_bind("SELECT X.s-no FROM Student X WHERE X.age >= 30")
            .unwrap();
        let (_, m) = run_strategy(&Centralized, &f, &q, SystemParams::paper_default()).unwrap();
        // All bytes cross the single shared link, so response >= transfer
        // time of all data, and total >= response.
        let wire_us = m.bytes_transferred as f64 * 8.0;
        assert!(m.response_us >= wire_us);
        assert!(m.total_execution_us >= m.response_us);
    }
}
