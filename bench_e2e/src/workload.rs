//! The four workloads: which federation the daemons host, and which
//! query pool or mutation stream the client drives.
//!
//! The federation is a fixed input, as a benchmark database usually is:
//! two generated federations of the same sampled shape and the same
//! virtual cost differed by up to 15 % in wall-clock time here, more than
//! any bound worth having, so `--seed` draws the traffic (query
//! literals, request order, mutation stream) and [`DATA_SEED`] fixes the
//! federation. The daemons only ever see the resulting workload spec
//! string and SQL / mutation text.

use fedoq_core::Federation;
use fedoq_object::{DbId, Value};
use fedoq_query::{BoundQuery, Predicate, Query};
use fedoq_wire::build_workload;
use fedoq_workload::{SampleConfig, WorkloadParams};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Queries (or standing-query literal variants) per workload.
pub const POOL: usize = 4;
/// Strategies per workload.
pub const STRATEGIES: usize = 4;
/// Strategy names of one-shot queries as sent on the wire; index =
/// metric slot.
pub const QUERY_STRATEGIES: [&str; STRATEGIES] = ["ca", "bl", "pl", "adaptive"];
/// Strategy names of standing queries, which have a fixed hybrid
/// schedule where one-shot queries have a planner.
pub const LIVE_STRATEGIES: [&str; STRATEGIES] = ["ca", "bl", "pl", "hy"];
/// Picks the generated federation (see [`generated_spec`]).
const DATA_SEED: u64 = 1;
/// Value domain of the generator's predicate attributes.
const DOMAIN: i64 = 1000;

/// What the client sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Traffic {
    /// One-shot queries, closed loop.
    Queries,
    /// Standing queries, then a closed-loop mutation stream.
    Live,
}

/// Everything one workload run needs, fixed by `(name, seed, quick)`.
pub struct Plan {
    /// Workload spec handed to every daemon.
    pub spec: String,
    /// `--cache` of every daemon.
    pub cache: bool,
    /// Client connections (= client threads) of one-shot queries; a
    /// mutation stream has the one its standing queries live on.
    pub connections: usize,
    /// Boots `setup_s` is the median of.
    pub boots: usize,
    pub traffic: Traffic,
    /// The query pool, as SQL.
    pub queries: Vec<String>,
    pub seed: u64,
    /// The bench's own copy of the federation (oracle and replay).
    pub fed: Federation,
}

/// The shape every generated federation must have: a chain of three
/// classes with one predicate each and at least one target; per class
/// exactly one site lacks the predicate attribute, a different site for
/// each class. Every site then holds root objects whose local answer is
/// maybe, and every site serves as an assistant for the other two, so
/// all three strategies have their characteristic work to do.
fn canonical_shape(config: &SampleConfig) -> bool {
    if config.n_classes != 3
        || config.n_targets == 0
        || config.preds_per_class.iter().any(|&p| p != 1)
    {
        return false;
    }
    let mut lacking = Vec::new();
    for k in 0..config.n_classes {
        let mut sites = (0..config.n_db).filter(|&db| !config.present[db][k][0]);
        match (sites.next(), sites.next()) {
            (Some(db), None) if !lacking.contains(&db) => lacking.push(db),
            _ => return false,
        }
    }
    true
}

/// The generated workload spec: generator seeds `2^32 * DATA_SEED + k`
/// are tried for k = 0, 1, … and the first whose sampled configuration
/// has the canonical shape wins (about one in 30 000 does; sampling one
/// costs under a microsecond). Object counts scale with `scale`;
/// everything else about the sample is the same at every scale.
fn generated_spec(scale: f64) -> String {
    let params = WorkloadParams::paper_default().scaled(scale);
    let generator_seed = (0..)
        .map(|k| (DATA_SEED << 32) + k)
        .find(|&s| canonical_shape(&params.sample(&mut StdRng::seed_from_u64(s))))
        .expect("the canonical shape has positive probability");
    format!("gen:{scale}:{generator_seed}")
}

/// Distinct non-null values stored under the attribute a predicate ends
/// in, across every site that defines it, in a deterministic order.
fn stored_values(fed: &Federation, query: &BoundQuery, pred: usize) -> Vec<Value> {
    let Some((class, slot)) = query.predicates()[pred].path().steps().last() else {
        return Vec::new();
    };
    let mut seen: Vec<(String, Value)> = Vec::new();
    for constituent in fed.global_schema().class(class).constituents() {
        let Some(local) = constituent.local_slot(slot) else {
            continue;
        };
        for object in fed.db(constituent.db()).extent(constituent.class()).iter() {
            let value = object.value(local);
            if !value.is_null() {
                seen.push((value.to_string(), value.clone()));
            }
        }
    }
    seen.sort_by(|a, b| a.0.cmp(&b.0));
    seen.dedup_by(|a, b| a.0 == b.0);
    seen.into_iter().map(|(_, v)| v).collect()
}

/// `base` with predicate `pred`'s literal replaced.
fn with_literal(base: &Query, pred: usize, literal: Value) -> Query {
    let mut query = Query::with_var(base.range_class(), base.var());
    for target in base.targets() {
        query = query.target(&target.to_string());
    }
    for (i, p) in base.predicates().iter().enumerate() {
        let literal = if i == pred {
            literal.clone()
        } else {
            p.literal().clone()
        };
        query = query.predicate(Predicate::new(p.path().clone(), p.op(), literal));
    }
    query
}

/// The university pool: Q1 plus variants that each swap one literal for
/// another value the data really holds under that attribute.
fn university_pool(fed: &Federation, q1: &str, rng: &mut StdRng) -> Result<Vec<String>, String> {
    let base = fedoq_query::parse(q1).map_err(|e| e.to_string())?;
    let bound = fed.parse_and_bind(q1).map_err(|e| e.to_string())?;
    let mut pool = vec![base.to_string()];
    let mut candidates = Vec::new();
    for pred in 0..base.predicates().len() {
        for value in stored_values(fed, &bound, pred) {
            if value != *base.predicates()[pred].literal() {
                candidates.push(with_literal(&base, pred, value).to_string());
            }
        }
    }
    candidates.shuffle(rng);
    pool.extend(candidates.into_iter().take(POOL - 1));
    if pool.len() < POOL {
        return Err("university data offers too few literal variants".to_string());
    }
    Ok(pool)
}

/// The generated pool: the sample's own query with its root-class
/// threshold redrawn, one draw from each quarter of [400, 600) of the
/// 0..1000 domain. Every entry is a distinct fingerprint, and the
/// pool's mean selectivity barely moves with the seed.
fn generated_pool(sql: &str, rng: &mut StdRng) -> Result<Vec<String>, String> {
    let base = fedoq_query::parse(sql).map_err(|e| e.to_string())?;
    let root: Vec<usize> = (0..base.predicates().len())
        .filter(|&i| !base.predicates()[i].is_nested())
        .collect();
    let pool = (0..POOL as i64)
        .map(|quarter| {
            let mut query = base.clone();
            for &pred in &root {
                let threshold = 400 + 50 * quarter + rng.gen_range(0..50i64);
                query = with_literal(&query, pred, Value::Int(threshold));
            }
            query.to_string()
        })
        .collect();
    Ok(pool)
}

impl Plan {
    /// Builds the plan of workload `name`: `seed` draws the literals, the
    /// request order and the mutation stream. `quick` shrinks the
    /// generated federations to scale 0.05 (the smoke-test shape).
    ///
    /// # Errors
    ///
    /// An unknown workload name, or a federation that fails to build.
    pub fn new(name: &str, seed: u64, quick: bool) -> Result<Plan, String> {
        let scale = |full: f64| if quick { 0.05 } else { full };
        let (spec, cache, connections, boots, traffic) = match name {
            "small_closed" => ("university".to_string(), false, 2, 15, Traffic::Queries),
            "big_cold" => (generated_spec(scale(2.0)), false, 1, 3, Traffic::Queries),
            "big_warm" => (generated_spec(scale(2.0)), true, 1, 3, Traffic::Queries),
            "live_mutate" => (generated_spec(scale(0.1)), false, 1, 15, Traffic::Live),
            other => return Err(format!("unknown workload '{other}'")),
        };
        let (fed, sql) = build_workload(&spec)?;
        // Distinct streams per concern, so e.g. lengthening the pool does
        // not reshuffle the mutation stream.
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
        let queries = if spec == "university" {
            university_pool(&fed, &sql, &mut rng)?
        } else {
            generated_pool(&sql, &mut rng)?
        };
        Ok(Plan {
            spec,
            cache,
            connections,
            boots: if quick { 1 } else { boots },
            traffic,
            queries,
            seed,
            fed,
        })
    }

    /// Number of `(query, strategy)` pairs: requests of one round over
    /// the pool, or standing queries of a live plan.
    pub fn slots(&self) -> usize {
        self.queries.len() * STRATEGIES
    }

    /// Every `(query, strategy)` index pair, in an order drawn from the
    /// seed and `stream` (one stream per client connection).
    pub fn schedule(&self, stream: u64) -> Vec<(usize, usize)> {
        let mut pairs: Vec<(usize, usize)> = (0..self.queries.len())
            .flat_map(|q| (0..STRATEGIES).map(move |s| (q, s)))
            .collect();
        let mut rng = StdRng::seed_from_u64(self.seed.wrapping_mul(31).wrapping_add(stream));
        pairs.shuffle(&mut rng);
        pairs
    }

    /// The seeded mutation stream of a [`Traffic::Live`] plan.
    pub fn mutations(&self) -> MutationStream {
        MutationStream::new(&self.fed, &self.queries[0], self.seed)
    }
}

/// One site the stream may mutate: its root-class keys and which
/// predicate attributes its local schema defines.
struct MutableSite {
    db: u16,
    attrs: Vec<String>,
    keys: Vec<i64>,
}

/// An endless, seeded stream of
/// `update <Root> where key=<k> set p<j>=<v|null>` specs. Updates
/// overwrite in place, so the store keeps its size however long the
/// stream runs; about a quarter of them write a null (creating a maybe
/// row), the rest a fresh value (resolving or moving one).
pub struct MutationStream {
    class: String,
    sites: Vec<MutableSite>,
    rng: StdRng,
}

impl MutationStream {
    fn new(fed: &Federation, sql: &str, seed: u64) -> MutationStream {
        let query = fed
            .parse_and_bind(sql)
            .expect("pool queries bind against their own federation");
        let root = fed.global_schema().class(query.range());
        let mut sites = Vec::new();
        for constituent in root.constituents() {
            let db = fed.db(constituent.db());
            let def = db.schema().class(constituent.class());
            let attrs: Vec<String> = (0..)
                .map(|j| format!("p{j}"))
                .take_while(|p| root.attr_index(p).is_some())
                .filter(|p| def.attr_index(p).is_some())
                .collect();
            let Some(key_slot) = def.attr_index("key") else {
                continue;
            };
            let keys: Vec<i64> = db
                .extent(constituent.class())
                .iter()
                .filter_map(|o| match o.value(key_slot) {
                    Value::Int(k) => Some(*k),
                    _ => None,
                })
                .collect();
            if !attrs.is_empty() && !keys.is_empty() {
                sites.push(MutableSite {
                    db: constituent.db().index() as u16,
                    attrs,
                    keys,
                });
            }
        }
        assert!(
            !sites.is_empty(),
            "a live workload needs a site that stores a root predicate attribute"
        );
        MutationStream {
            class: root.name().to_string(),
            sites,
            rng: StdRng::seed_from_u64(seed ^ 0x6d75_7461_7465),
        }
    }
}

impl Iterator for MutationStream {
    type Item = (DbId, String);

    fn next(&mut self) -> Option<(DbId, String)> {
        let site = &self.sites[self.rng.gen_range(0..self.sites.len())];
        let attr = &site.attrs[self.rng.gen_range(0..site.attrs.len())];
        let key = site.keys[self.rng.gen_range(0..site.keys.len())];
        let value = if self.rng.gen_range(0..4) == 0 {
            "null".to_string()
        } else {
            self.rng.gen_range(0..DOMAIN).to_string()
        };
        Some((
            DbId::new(site.db),
            format!("update {} where key={key} set {attr}={value}", self.class),
        ))
    }
}
