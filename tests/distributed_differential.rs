//! Differential testing of the distributed runtime: over a healthy
//! network — instant in-process delivery or simulated latency without
//! faults — every distributed strategy must classify entities exactly
//! like its in-process twin (same certain set, same maybe set with the
//! same unsolved conjuncts), with no degraded rows and no lost sites.
//! Hybrid plans — PL's schedule at every subset of the hosting sites,
//! BL's elsewhere — must render byte-identically in both drivers.

use fedoq_core::{run_strategy, ExecPlan, Federation, LocalizedConfig, ModePolicy, QueryAnswer};
use fedoq_net::{DistributedExecutor, DistributedStrategy, SimTransport, Transport};
use fedoq_object::DbId;
use fedoq_query::{bind, plan_for_db, BoundQuery};
use fedoq_sim::{Simulation, SystemParams};
use fedoq_workload::{generate, university, WorkloadParams};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cell::RefCell;
use std::rc::Rc;

fn strategies() -> Vec<DistributedStrategy> {
    vec![
        DistributedStrategy::ca(),
        DistributedStrategy::bl(),
        DistributedStrategy::pl(),
        DistributedStrategy::bl().with_signatures(),
        DistributedStrategy::pl().with_signatures(),
    ]
}

/// One line per row — certain rows, then maybe rows with their unsolved
/// conjuncts and degraded marker — in the answer's canonical order.
fn render(answer: &QueryAnswer) -> Vec<String> {
    let certain = answer.certain().iter().map(|row| format!("C {row}"));
    let maybe = answer.maybe().iter().map(|row| format!("M {row}"));
    certain.chain(maybe).collect()
}

/// Every per-site hybrid over `query`'s hosting sites: one plan per
/// subset running PL's schedule (the empty subset is all-BL, the full
/// one all-PL).
fn hybrid_plans(fed: &Federation, query: &BoundQuery) -> Vec<ExecPlan> {
    let hosting: Vec<DbId> = fed
        .dbs()
        .iter()
        .filter_map(|db| plan_for_db(query, fed.global_schema(), db.id()).map(|p| p.db()))
        .collect();
    (0..1u32 << hosting.len())
        .map(|mask| {
            let parallel = hosting
                .iter()
                .enumerate()
                .filter(|(i, _)| mask & (1 << i) != 0)
                .map(|(_, &db)| db)
                .collect();
            ExecPlan::Localized {
                policy: ModePolicy::ParallelAt(parallel),
                config: LocalizedConfig::default(),
            }
        })
        .collect()
}

/// Asserts that every hybrid plan's distributed answer over the
/// in-process transport renders exactly like the sync execution's.
fn check_hybrids_match_sync(fed: &Federation, query: &BoundQuery, label: &str) {
    let plans = hybrid_plans(fed, query);
    assert!(plans.len() >= 2, "{label}: no hosting site");
    for plan in plans {
        let (sync_answer, _) =
            run_strategy(&plan, fed, query, SystemParams::paper_default()).unwrap();
        let local = DistributedExecutor::new()
            .run_local(fed, query, plan.clone())
            .unwrap();
        assert_eq!(
            render(&sync_answer),
            render(&local.answer),
            "{label}: {plan:?} over LocalTransport renders differently from sync",
        );
        assert!(local.degraded_sites.is_empty());
        assert_eq!(local.dropped, 0);
    }
}

/// Asserts that `strategy` over both transports matches its sync twin,
/// and that every hybrid plan renders like its sync twin.
fn check_matches_sync(fed: &Federation, query: &BoundQuery, label: &str) {
    check_hybrids_match_sync(fed, query, label);
    for strategy in strategies() {
        let (sync_answer, _) = run_strategy(
            strategy.sync().as_ref(),
            fed,
            query,
            SystemParams::paper_default(),
        )
        .unwrap();

        // Instant in-process transport.
        let local = DistributedExecutor::new()
            .run_local(fed, query, strategy)
            .unwrap();
        assert!(
            sync_answer.same_classification(&local.answer),
            "{label}: {} over LocalTransport disagrees with sync\n  sync: {sync_answer}\n  dist: {}",
            strategy.name(),
            local.answer,
        );
        assert!(local.degraded_sites.is_empty());
        assert!(!local.answer.is_degraded());
        assert_eq!(local.dropped, 0);

        // Simulated network with latency but no faults.
        let sim = Rc::new(RefCell::new(Simulation::new(
            SystemParams::paper_default(),
            fed.num_dbs(),
        )));
        let transport: Rc<RefCell<dyn Transport>> =
            Rc::new(RefCell::new(SimTransport::new(Rc::clone(&sim), 42)));
        let simmed = DistributedExecutor::new()
            .run(fed, query, strategy, transport, sim)
            .unwrap();
        assert!(
            sync_answer.same_classification(&simmed.answer),
            "{label}: {} over healthy SimTransport disagrees with sync\n  sync: {sync_answer}\n  dist: {}",
            strategy.name(),
            simmed.answer,
        );
        assert!(simmed.degraded_sites.is_empty());
        assert!(!simmed.answer.is_degraded());
        assert_eq!(simmed.dropped, 0);
        // Latency advanced the virtual clock; the cost model is separate.
        assert!(simmed.virtual_us > 0.0, "{label}: no virtual time elapsed");
    }
}

#[test]
fn university_federation_matches_sync() {
    let fed = university::federation().unwrap();
    let query = fed.parse_and_bind(university::Q1).unwrap();
    check_matches_sync(&fed, &query, "university Q1");
}

#[test]
fn generated_federations_match_sync() {
    let params = WorkloadParams::paper_default().scaled(0.01);
    for seed in [3u64, 17, 29, 71] {
        let config = params.sample(&mut StdRng::seed_from_u64(seed));
        let sample = generate(&config, seed);
        let query = bind(&sample.query, sample.federation.global_schema()).unwrap();
        check_matches_sync(&sample.federation, &query, &format!("seed {seed}"));
    }
}

#[test]
fn many_databases_match_sync() {
    let mut params = WorkloadParams::paper_default().scaled(0.01);
    params.n_db = 6;
    for seed in [100u64, 101] {
        let config = params.sample(&mut StdRng::seed_from_u64(seed));
        let sample = generate(&config, seed);
        let query = bind(&sample.query, sample.federation.global_schema()).unwrap();
        check_matches_sync(&sample.federation, &query, &format!("6db seed {seed}"));
    }
}

#[test]
fn heavy_nulls_match_sync() {
    let mut params = WorkloadParams::paper_default().scaled(0.01);
    params.null_ratio = 0.3..=0.5;
    for seed in [300u64, 301, 302] {
        let config = params.sample(&mut StdRng::seed_from_u64(seed));
        let sample = generate(&config, seed);
        let query = bind(&sample.query, sample.federation.global_schema()).unwrap();
        check_matches_sync(&sample.federation, &query, &format!("nulls seed {seed}"));
    }
}
