//! # FedOQ — federated object querying with maybe-result semantics
//!
//! A full reproduction of *"Query Execution Strategies for Missing Data in
//! Distributed Heterogeneous Object Databases"* (Koh & Chen, ICDCS 1996):
//! a federation of autonomous object databases integrated under a global
//! schema, where queries over *missing data* (missing attributes and null
//! values) return **certain** and **maybe** results, and isomeric objects
//! certify local maybe results into certain ones.
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`object`] — ids, values, three-valued logic, paths, signatures;
//! * [`store`] — the single-site object DBMS;
//! * [`schema`] — schema integration, isomerism, GOid mapping tables;
//! * [`query`] — the SQL/X-subset parser, binder, and decomposer;
//! * [`sim`] — the Table-1 cost model and distributed-time engine;
//! * [`core`] — the CA / BL / PL execution strategies (the paper's
//!   contribution) and the certification engine;
//! * [`workload`] — the university running example and the Table-2
//!   synthetic generator;
//! * [`analytic`] — the closed-form expected-cost model;
//! * [`plan`] — the statistics catalog and cost-based adaptive strategy
//!   planner (CA/BL/PL/hybrid selection with execution feedback);
//! * [`net`] — the distributed site-actor runtime with fault-injectable
//!   transport;
//! * [`live`] — standing queries: provenance-carrying maybe results and
//!   incremental reclassification over a change-logged federation;
//! * [`check`] — the static plan-soundness analyzer and actor-protocol
//!   checker (`fedoq-check`).
//!
//! # Quickstart
//!
//! ```
//! use fedoq::prelude::*;
//!
//! // The paper's own three-site university federation and query Q1.
//! let fed = fedoq::workload::university::federation()?;
//! let q1 = fed.parse_and_bind(fedoq::workload::university::Q1)?;
//!
//! for strategy in [&Centralized as &dyn ExecutionStrategy,
//!                  &BasicLocalized::new(), &ParallelLocalized::new()] {
//!     let (answer, metrics) =
//!         run_strategy(strategy, &fed, &q1, SystemParams::paper_default())?;
//!     assert_eq!(answer.certain().len(), 1); // (Hedy, Kelly)
//!     assert_eq!(answer.maybe().len(), 1);   // (Tony, Haley)
//!     println!("{}: {metrics}", strategy.name());
//! }
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub use fedoq_analytic as analytic;
pub use fedoq_check as check;
pub use fedoq_core as core;
pub use fedoq_live as live;
pub use fedoq_net as net;
pub use fedoq_object as object;
pub use fedoq_plan as plan;
pub use fedoq_query as query;
pub use fedoq_schema as schema;
pub use fedoq_sim as sim;
pub use fedoq_store as store;
pub use fedoq_sync as sync;
pub use fedoq_workload as workload;

/// The common imports for working with FedOQ.
pub mod prelude {
    pub use fedoq_core::{
        collect_catalog, explain, explain_with_pipeline, oracle_answer, oracle_disjunctive,
        plan_knobs, query_fingerprint, refresh_catalog, run_adaptive, run_disjunctive,
        run_strategy, run_strategy_with_network, run_strategy_with_pipeline, AdaptiveOutcome,
        BasicLocalized, CacheStats, Centralized, ExecError, ExecPlan, ExecutionStrategy,
        Federation, HybridLocalized, LookupCache, MaybeRow, ModePolicy, ParallelLocalized,
        PipelineConfig, QueryAnswer, ResultRow,
    };
    pub use fedoq_live::{LiveEvent, LiveReactor, LiveStrategy, SubId};
    pub use fedoq_net::{
        AdaptiveDistributedOutcome, DistributedExecutor, DistributedOutcome, DistributedStrategy,
        FaultEvent, LocalTransport, RpcConfig, SimTransport, Transport,
    };
    pub use fedoq_object::{CmpOp, DbId, GOid, LOid, Path, Truth, Value};
    pub use fedoq_plan::{choose, PlanChoice, PlanKind, RankedPlan, StatsCatalog};
    pub use fedoq_query::{
        bind, parse, parse_dnf, plan_for_db, BoundQuery, DnfQuery, PredId, Query,
    };
    pub use fedoq_schema::{identify_isomerism, integrate, Correspondences};
    pub use fedoq_sim::{NetworkModel, QueryMetrics, Simulation, Site, SystemParams};
    pub use fedoq_store::{AttrType, ClassDef, ComponentDb, ComponentSchema};
    pub use fedoq_workload::{generate, GeneratedSample, SampleConfig, WorkloadParams};
}
