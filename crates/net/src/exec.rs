//! The distributed executor: strategies over the actor runtime.
//!
//! [`DistributedExecutor::run`] spins up one actor per component site
//! plus the global actor on the deterministic runtime, sends a single
//! `Certify` request as the client, and drives the virtual clock until
//! the answer comes back. The result carries the answer together with
//! the degradation and cost diagnostics of the run.

use crate::actor::{run_global, run_site, Ctx};
use crate::msg::{CertifyReply, Request, Response};
use crate::router::Net;
use crate::rpc::{call, RpcConfig};
use crate::rt::Runtime;
use crate::transport::{LocalTransport, Transport};
use fedoq_core::{
    observe_execution, plan_knobs, query_fingerprint, refresh_catalog, CacheStats, ExecError,
    ExecPlan, ExecutionStrategy, Federation, LocalizedConfig, LocalizedMode, LookupCache,
    ModePolicy, PipelineConfig, QueryAnswer, WireMark,
};
use fedoq_object::DbId;
use fedoq_plan::{choose, PipelineKnobs, PlanChoice, PlanKind, StatsCatalog};
use fedoq_query::BoundQuery;
use fedoq_sim::{Phase, QueryMetrics, Simulation, Site, SystemParams};
use std::cell::RefCell;
use std::rc::Rc;

/// A fixed strategy choice by name, mirroring the paper's three
/// strategies. [`plan`](DistributedStrategy::plan) turns it into the
/// [`ExecPlan`] every executor runs; the per-site hybrid has no name of
/// its own here because the planner picks its sites.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DistributedStrategy {
    /// CA: ship everything, evaluate at the global site.
    Centralized,
    /// BL: local evaluation first, assistant lookup for survivors.
    BasicLocalized(LocalizedConfig),
    /// PL: static assistant lookup overlapping local evaluation.
    ParallelLocalized(LocalizedConfig),
}

impl DistributedStrategy {
    /// CA.
    pub fn ca() -> DistributedStrategy {
        DistributedStrategy::Centralized
    }

    /// BL without signature pruning.
    pub fn bl() -> DistributedStrategy {
        DistributedStrategy::BasicLocalized(LocalizedConfig::default())
    }

    /// PL without signature pruning.
    pub fn pl() -> DistributedStrategy {
        DistributedStrategy::ParallelLocalized(LocalizedConfig::default())
    }

    /// The same strategy with signature pruning enabled (no-op for CA).
    pub fn with_signatures(self) -> DistributedStrategy {
        match self {
            DistributedStrategy::Centralized => self,
            DistributedStrategy::BasicLocalized(mut c) => {
                c.use_signatures = true;
                DistributedStrategy::BasicLocalized(c)
            }
            DistributedStrategy::ParallelLocalized(mut c) => {
                c.use_signatures = true;
                DistributedStrategy::ParallelLocalized(c)
            }
        }
    }

    /// The paper's name for the strategy (`-S` marks signature pruning).
    pub fn name(&self) -> &'static str {
        self.plan().label()
    }

    /// Parses a strategy name (`ca`, `bl`, `pl`, `bl-s`, `pl-s`).
    pub fn parse(name: &str) -> Option<DistributedStrategy> {
        match name.to_ascii_lowercase().as_str() {
            "ca" => Some(DistributedStrategy::ca()),
            "bl" => Some(DistributedStrategy::bl()),
            "pl" => Some(DistributedStrategy::pl()),
            "bl-s" => Some(DistributedStrategy::bl().with_signatures()),
            "pl-s" => Some(DistributedStrategy::pl().with_signatures()),
            _ => None,
        }
    }

    /// The executable plan: CA, or a localized plan running one
    /// schedule at every site.
    pub fn plan(&self) -> ExecPlan {
        let (mode, config) = match *self {
            DistributedStrategy::Centralized => return ExecPlan::Centralized,
            DistributedStrategy::BasicLocalized(config) => (LocalizedMode::Basic, config),
            DistributedStrategy::ParallelLocalized(config) => (LocalizedMode::Parallel, config),
        };
        ExecPlan::Localized {
            policy: ModePolicy::Uniform(mode),
            config,
        }
    }

    /// The equivalent in-process strategy (for differential testing).
    pub fn sync(&self) -> Box<dyn ExecutionStrategy> {
        Box::new(self.plan())
    }
}

impl From<DistributedStrategy> for ExecPlan {
    fn from(strategy: DistributedStrategy) -> ExecPlan {
        strategy.plan()
    }
}

/// Everything one distributed execution produced.
#[derive(Debug, Clone)]
pub struct DistributedOutcome {
    /// The certified answer.
    pub answer: QueryAnswer,
    /// Sites that stayed unreachable past the retry budget.
    pub degraded_sites: Vec<DbId>,
    /// Total RPC retries performed.
    pub retries: u64,
    /// Messages the transport delivered.
    pub delivered: u64,
    /// Messages the transport dropped (faults).
    pub dropped: u64,
    /// Cost-model metrics accumulated in the shared simulation.
    pub metrics: QueryMetrics,
    /// Virtual time the runtime advanced (µs); includes network latency
    /// and retry backoffs, unlike the cost-model clocks.
    pub virtual_us: f64,
}

impl DistributedOutcome {
    /// `true` iff any maybe row was tagged degraded or a site was lost.
    pub fn is_degraded(&self) -> bool {
        !self.degraded_sites.is_empty() || self.answer.is_degraded()
    }
}

/// What [`DistributedExecutor::run_adaptive`] did: the planner's ranking
/// plus the executed run's outcome.
#[derive(Debug, Clone)]
pub struct AdaptiveDistributedOutcome {
    /// The executed run's answer and diagnostics.
    pub outcome: DistributedOutcome,
    /// The full ranking the planner produced (CA/BL/PL/HY).
    pub choice: PlanChoice,
    /// The plan that actually ran (`choice.best().kind`).
    pub executed: PlanKind,
}

/// Runs distributed queries over a transport.
///
/// The executor owns a [`PipelineConfig`] (parallel scans, probe
/// batching, lookup caching) and a persistent [`LookupCache`] that
/// survives across `run` calls — run the same query twice with the cache
/// enabled and the second run answers warm probes without touching the
/// wire. Clones share the cache. The cache is generation-synced against
/// the federation on every run, so store mutations invalidate it.
#[derive(Debug, Clone, Default)]
pub struct DistributedExecutor {
    rpc: RpcConfig,
    pipeline: PipelineConfig,
    cache: Rc<RefCell<LookupCache>>,
}

impl DistributedExecutor {
    /// An executor with the default RPC policy and a sequential,
    /// unbatched, uncached pipeline (the legacy wire behavior).
    pub fn new() -> DistributedExecutor {
        DistributedExecutor::default()
    }

    /// Overrides the RPC timeout/retry policy.
    pub fn with_rpc(mut self, rpc: RpcConfig) -> DistributedExecutor {
        self.rpc = rpc;
        self
    }

    /// The RPC policy in force.
    pub fn rpc(&self) -> RpcConfig {
        self.rpc
    }

    /// Overrides the pipeline (parallelism, batch size, caching).
    pub fn with_pipeline(mut self, pipeline: PipelineConfig) -> DistributedExecutor {
        self.pipeline = pipeline;
        self
    }

    /// The pipeline configuration in force.
    pub fn pipeline(&self) -> PipelineConfig {
        self.pipeline
    }

    /// Hit/miss/eviction counters of the persistent lookup cache.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.borrow().stats()
    }

    /// Entries currently held by the persistent lookup cache.
    pub fn cache_len(&self) -> usize {
        self.cache.borrow().len()
    }

    /// Drops every cache entry and resets the counters.
    pub fn reset_cache(&self) {
        self.cache.borrow_mut().reset();
    }

    /// Hit rate-aware cost-model knobs for this executor's pipeline and
    /// persistent cache.
    pub fn knobs(&self) -> PipelineKnobs {
        plan_knobs(self.pipeline, Some(&self.cache))
    }

    /// Executes `query` under `plan` (a [`DistributedStrategy`] or any
    /// [`ExecPlan`], hybrids included) over `transport`, charging `sim`'s
    /// ledger for every disk/CPU/network action.
    pub fn run(
        &self,
        fed: &Federation,
        query: &BoundQuery,
        plan: impl Into<ExecPlan>,
        transport: Rc<RefCell<dyn Transport>>,
        sim: Rc<RefCell<Simulation>>,
    ) -> Result<DistributedOutcome, ExecError> {
        let (reply, virtual_us) = self.drive(fed, query, plan.into(), &transport, &sim)?;
        let (delivered, dropped) = transport.borrow().stats();
        Ok(DistributedOutcome {
            answer: reply.answer?,
            degraded_sites: reply.degraded_sites,
            retries: reply.retries,
            delivered,
            dropped,
            metrics: sim.borrow().metrics(),
            virtual_us,
        })
    }

    /// Spins up the actors, sends one `Certify` request as the client to
    /// the global actor, and drives the runtime until its reply arrives.
    fn drive(
        &self,
        fed: &Federation,
        query: &BoundQuery,
        plan: ExecPlan,
        transport: &Rc<RefCell<dyn Transport>>,
        sim: &Rc<RefCell<Simulation>>,
    ) -> Result<(Box<CertifyReply>, f64), ExecError> {
        // A store mutation since the last run flushes the cache.
        self.cache.borrow_mut().sync_generation(fed.generation());
        let cache = if self.pipeline.cache {
            Some(Rc::clone(&self.cache))
        } else {
            None
        };
        let rt = Runtime::new();
        let net = Net::new(rt.handle(), Rc::clone(transport), fed.num_dbs());
        for db in fed.dbs() {
            let ctx = Ctx {
                fed,
                query,
                net: net.clone(),
                sim: Rc::clone(sim),
                rpc: self.rpc,
                pipeline: self.pipeline,
                cache: cache.clone(),
            };
            rt.handle().spawn(run_site(ctx, db.id()));
        }
        rt.handle().spawn(run_global(Ctx {
            fed,
            query,
            net: net.clone(),
            sim: Rc::clone(sim),
            rpc: self.rpc,
            pipeline: self.pipeline,
            cache,
        }));

        // The client: one RPC to the global actor. It must not time out
        // on its own — end-to-end patience is the point — so it gets an
        // effectively unbounded window and no retries.
        let client_net = net.clone();
        let response = rt
            .run(async move {
                let cfg = RpcConfig {
                    timeout_us: 1e15,
                    per_byte_us: 0.0,
                    retries: 0,
                    backoff_us: 0.0,
                    backoff_factor: 1.0,
                };
                call(
                    &client_net,
                    Site::Global,
                    Site::Global,
                    Request::Certify { plan },
                    0,
                    Phase::Ship,
                    cfg,
                )
                .await
            })
            .map_err(|deadlock| ExecError::Internal(deadlock.to_string()))?
            .map_err(|e| ExecError::Internal(format!("global actor lost: {e}")))?;
        let Response::Certify(reply) = response else {
            return Err(ExecError::Internal("mismatched response to Certify".into()));
        };
        Ok((reply, rt.handle().now_us()))
    }

    /// The adaptive distributed executor: prices CA/BL/PL/HY against the
    /// statistics catalog, runs the cheapest over `transport`, and feeds
    /// the measured response time and transport cost back into the
    /// catalog.
    ///
    /// A winning hybrid executes for real: `Certify` carries the plan's
    /// per-site modes, and each hosting site runs its own BL or PL
    /// schedule from one non-uniform fan-out. A stale catalog (the
    /// federation mutated since the last scan) is re-scanned first,
    /// keeping its accumulated observations.
    ///
    /// # Errors
    ///
    /// As for [`run`](DistributedExecutor::run).
    pub fn run_adaptive(
        &self,
        fed: &Federation,
        query: &BoundQuery,
        catalog: &mut StatsCatalog,
        transport: Rc<RefCell<dyn Transport>>,
        sim: Rc<RefCell<Simulation>>,
    ) -> Result<AdaptiveDistributedOutcome, ExecError> {
        refresh_catalog(catalog, fed);
        let fingerprint = query_fingerprint(query);
        let choice = choose(
            catalog,
            fed.global_schema(),
            query,
            &self.knobs(),
            fingerprint,
            true,
        );
        let executed = choice.best().kind;
        let plan = ExecPlan::from_ranked(choice.best());
        let label = plan.label();
        // The sim may be shared across runs: feed back only this run's
        // slice of the wire traffic.
        let before = WireMark::of(&sim.borrow());
        let outcome = self.run(fed, query, plan, transport, Rc::clone(&sim))?;
        observe_execution(
            catalog,
            fingerprint,
            label,
            outcome.metrics.response_us,
            before,
            &sim.borrow(),
        );
        Ok(AdaptiveDistributedOutcome {
            outcome,
            choice,
            executed,
        })
    }

    /// Convenience: runs over the in-process [`LocalTransport`] with a
    /// fresh paper-default simulation.
    pub fn run_local(
        &self,
        fed: &Federation,
        query: &BoundQuery,
        plan: impl Into<ExecPlan>,
    ) -> Result<DistributedOutcome, ExecError> {
        let sim = Rc::new(RefCell::new(Simulation::new(
            SystemParams::paper_default(),
            fed.num_dbs(),
        )));
        let transport: Rc<RefCell<dyn Transport>> = Rc::new(RefCell::new(LocalTransport::new()));
        self.run(fed, query, plan, transport, sim)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedoq_core::collect_catalog;
    use fedoq_workload::university;

    #[test]
    fn adaptive_distributed_run_plans_executes_and_learns() {
        let fed = university::federation().unwrap();
        let query = fed.parse_and_bind(university::Q1).unwrap();
        let mut catalog = collect_catalog(&fed, SystemParams::paper_default());
        let exec = DistributedExecutor::new();
        let run = |catalog: &mut StatsCatalog| {
            let sim = Rc::new(RefCell::new(Simulation::new(
                SystemParams::paper_default(),
                fed.num_dbs(),
            )));
            let transport: Rc<RefCell<dyn Transport>> =
                Rc::new(RefCell::new(LocalTransport::new()));
            exec.run_adaptive(&fed, &query, catalog, transport, sim)
                .unwrap()
        };
        let first = run(&mut catalog);
        // The hybrid is priced alongside the uniform strategies.
        assert_eq!(first.choice.ranked.len(), 4);
        assert!(first.choice.plan(PlanKind::Hybrid).is_some());
        assert_eq!(first.executed, first.choice.best().kind);
        // The answer classifies like the fixed strategy's own run.
        let fixed = exec
            .run_local(&fed, &query, DistributedStrategy::bl())
            .unwrap();
        assert!(first.outcome.answer.same_classification(&fixed.answer));
        // Feedback landed: the second run scores with an observation.
        assert_eq!(catalog.observed_len(), 1);
        let second = run(&mut catalog);
        let seen = second.choice.plan(first.executed).unwrap();
        assert!(seen.observed_us.is_some());
        assert!(seen.confidence > 0.0);
    }

    #[test]
    fn hybrid_certify_executes_non_uniform_site_schedules() {
        let fed = university::federation().unwrap();
        let query = fed.parse_and_bind(university::Q1).unwrap();
        let exec = DistributedExecutor::new();
        // Site 1 runs PL's schedule, everyone else BL's; the answer must
        // classify like a uniform run (the strategies' shared invariant).
        let sim = Rc::new(RefCell::new(Simulation::new(
            SystemParams::paper_default(),
            fed.num_dbs(),
        )));
        let transport: Rc<RefCell<dyn Transport>> = Rc::new(RefCell::new(LocalTransport::new()));
        let plan = ExecPlan::Localized {
            policy: ModePolicy::ParallelAt(vec![DbId::new(1)]),
            config: LocalizedConfig::default(),
        };
        let hybrid = exec.run(&fed, &query, plan, transport, sim).unwrap();
        let uniform = exec
            .run_local(&fed, &query, DistributedStrategy::bl())
            .unwrap();
        assert!(hybrid.answer.same_classification(&uniform.answer));
        assert_eq!(
            format!("{}", hybrid.answer),
            format!("{}", uniform.answer),
            "hybrid row order and provenance must match the uniform run"
        );
    }
}
