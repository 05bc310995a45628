//! The plan enumerator and chooser.
//!
//! [`choose`] prices every candidate plan — the three uniform strategies
//! plus a per-site *hybrid* assignment — with the shared formula set,
//! blends each model estimate with the catalog's observed response times
//! for the same `(query, plan)` pair (EWMA feedback), and returns a
//! [`PlanChoice`] ranked by blended score. The hybrid assignment gives
//! every maybe-producing site the cheaper of BL's and PL's schedules and
//! lets clean sites (no maybe-producing predicates) skip assistant
//! lookups entirely by running BL's schedule, where no unsolved rows
//! means no checks.

use crate::catalog::StatsCatalog;
use crate::cost::{profile, QueryProfile, SiteProfile};
use fedoq_analytic::{
    breakdown_tuned, certify_cpu, localized_site_terms, CostBreakdown, PipelineKnobs, SiteTerms,
    StrategyKind,
};
use fedoq_object::DbId;
use fedoq_query::BoundQuery;
use fedoq_schema::GlobalSchema;
use std::fmt;

/// A candidate plan shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlanKind {
    /// CA everywhere.
    Centralized,
    /// BL everywhere.
    BasicLocalized,
    /// PL everywhere.
    ParallelLocalized,
    /// Per-site BL/PL assignment.
    Hybrid,
}

impl PlanKind {
    /// All candidate shapes, in ranking tie-break order.
    pub const ALL: [PlanKind; 4] = [
        PlanKind::Centralized,
        PlanKind::BasicLocalized,
        PlanKind::ParallelLocalized,
        PlanKind::Hybrid,
    ];

    /// The short label used in plan output and feedback keys.
    pub fn label(self) -> &'static str {
        match self {
            PlanKind::Centralized => "CA",
            PlanKind::BasicLocalized => "BL",
            PlanKind::ParallelLocalized => "PL",
            PlanKind::Hybrid => "HY",
        }
    }

    /// The uniform strategy this shape corresponds to, if any.
    pub fn uniform(self) -> Option<StrategyKind> {
        match self {
            PlanKind::Centralized => Some(StrategyKind::Centralized),
            PlanKind::BasicLocalized => Some(StrategyKind::BasicLocalized),
            PlanKind::ParallelLocalized => Some(StrategyKind::ParallelLocalized),
            PlanKind::Hybrid => None,
        }
    }
}

impl fmt::Display for PlanKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One site's schedule under the hybrid plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SiteMode {
    /// The site.
    pub db: DbId,
    /// `true` → PL's schedule (static prefetch); `false` → BL's.
    pub parallel: bool,
}

/// One priced candidate.
#[derive(Debug, Clone, PartialEq)]
pub struct RankedPlan {
    /// The plan shape.
    pub kind: PlanKind,
    /// Per-site assignment (hybrid only; empty otherwise).
    pub modes: Vec<SiteMode>,
    /// The model's cost decomposition.
    pub breakdown: CostBreakdown,
    /// The model's response-time estimate, µs.
    pub model_us: f64,
    /// Observed EWMA response time for this `(query, plan)`, if any.
    pub observed_us: Option<f64>,
    /// Weight of the observation in the blended score, `[0, 1)`.
    pub confidence: f64,
    /// Blended score the ranking sorts by, µs.
    pub score_us: f64,
}

/// The ranked outcome of plan enumeration.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanChoice {
    /// Candidates, cheapest blended score first.
    pub ranked: Vec<RankedPlan>,
    /// Catalog generation the plans were priced against.
    pub generation: u64,
    /// The query fingerprint the feedback is keyed by.
    pub fingerprint: u64,
}

impl PlanChoice {
    /// The winning plan.
    ///
    /// # Panics
    ///
    /// Never — [`choose`] always ranks at least the three uniform
    /// strategies.
    pub fn best(&self) -> &RankedPlan {
        &self.ranked[0]
    }

    /// The ranked entry for `kind`, if it was enumerated.
    pub fn plan(&self, kind: PlanKind) -> Option<&RankedPlan> {
        self.ranked.iter().find(|p| p.kind == kind)
    }
}

impl fmt::Display for PlanChoice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "plan ranking (catalog generation {}, fingerprint {:#018x}):",
            self.generation, self.fingerprint
        )?;
        for (i, plan) in self.ranked.iter().enumerate() {
            let marker = if i == 0 { "→" } else { " " };
            write!(
                f,
                "{} {}  score {:>10.1} ms  model {:>10.1} ms",
                marker,
                plan.kind,
                plan.score_us / 1e3,
                plan.model_us / 1e3
            )?;
            match plan.observed_us {
                Some(obs) => writeln!(
                    f,
                    "  observed {:>10.1} ms (weight {:.2})",
                    obs / 1e3,
                    plan.confidence
                )?,
                None => writeln!(f)?,
            }
            writeln!(f, "    {}", plan.breakdown)?;
            if plan.kind == PlanKind::Hybrid {
                let modes: Vec<String> = plan
                    .modes
                    .iter()
                    .map(|m| format!("site {} {}", m.db, if m.parallel { "PL" } else { "BL" }))
                    .collect();
                writeln!(f, "    assignment: {}", modes.join(", "))?;
            }
        }
        Ok(())
    }
}

/// Picks one site's schedule: the cheaper of BL's and PL's for a
/// maybe-producing site (busy time plus its serialized bytes at the
/// given network price), pinned to BL for a clean site (no unsolved
/// rows → no lookups to prefetch).
fn site_mode(site: &SiteProfile, net_us_per_byte: f64, knobs: &PipelineKnobs) -> (SiteTerms, bool) {
    let basic = localized_site_terms(&site.inputs, false, knobs);
    if !site.maybe_producing {
        return (basic, false);
    }
    let par = localized_site_terms(&site.inputs, true, knobs);
    let cost = |t: &SiteTerms, parallel: bool| {
        t.site_path_us(parallel, net_us_per_byte) + t.bytes() * net_us_per_byte
    };
    if cost(&par, true) < cost(&basic, false) {
        (par, true)
    } else {
        (basic, false)
    }
}

/// Prices one localized plan from the per-site profiles. `mode` fixes
/// every site's schedule (uniform BL/PL); `None` lets each site take
/// the cheaper of the two — the hybrid assignment — with maybe-free
/// sites pinned to BL (no unsolved rows → no lookups).
///
/// All three localized candidates go through this one function so their
/// estimates are comparable: pricing the uniform strategies from
/// federation-*averaged* inputs while the hybrid sums honest per-site
/// terms made the uniforms systematically optimistic whenever the site
/// profiles were skewed — exactly the workloads where the hybrid is the
/// right plan — and HY was never selected.
fn localized_plan(
    profile: &QueryProfile,
    mode: Option<bool>,
    knobs: &PipelineKnobs,
) -> Option<(Vec<SiteMode>, CostBreakdown)> {
    if profile.sites.is_empty() {
        return None;
    }
    let net_us_per_byte = profile.inputs.params.net_us_per_byte;
    let mut modes = Vec::with_capacity(profile.sites.len());
    let mut b = CostBreakdown::default();
    for site in &profile.sites {
        let (terms, parallel) = match mode {
            Some(parallel) => (
                localized_site_terms(&site.inputs, parallel, knobs),
                parallel,
            ),
            None => site_mode(site, net_us_per_byte, knobs),
        };
        modes.push(SiteMode {
            db: site.db,
            parallel,
        });
        b.sites_us += terms.site_work_us();
        b.site_path_us = b
            .site_path_us
            .max(terms.site_path_us(parallel, net_us_per_byte));
        b.net_us += terms.bytes() * net_us_per_byte;
        b.global_us += certify_cpu(&site.inputs, terms.survivors);
        b.messages += terms.messages(knobs.batch);
    }
    Some((modes, b))
}

/// Re-prices the per-site assignment for an in-flight hybrid execution
/// and returns fresh schedules for the `unfinished` sites only.
///
/// The profile is rebuilt from the *current* catalog, so transport and
/// response samples fed back mid-query ([`StatsCatalog::observe_net`])
/// shift the network price before the unfinished sites are re-assigned.
/// Completed sites are never returned — their replies are already
/// merged, and re-dispatching them would risk certifying the same
/// maybes twice. Sites in `unfinished` that do not host the query are
/// skipped.
pub fn replan(
    catalog: &StatsCatalog,
    schema: &GlobalSchema,
    query: &BoundQuery,
    knobs: &PipelineKnobs,
    unfinished: &[DbId],
) -> Vec<SiteMode> {
    let prof = profile(catalog, schema, query);
    let net_us_per_byte = prof.inputs.params.net_us_per_byte;
    prof.sites
        .iter()
        .filter(|site| unfinished.contains(&site.db))
        .map(|site| {
            let (_, parallel) = site_mode(site, net_us_per_byte, knobs);
            SiteMode {
                db: site.db,
                parallel,
            }
        })
        .collect()
}

/// Enumerates and ranks every candidate plan for `query`.
///
/// `fingerprint` keys the feedback loop (use the executor's query
/// fingerprint so repeated runs converge); `allow_hybrid` gates the
/// per-site assignment (every executor runs it, so callers pass `true`
/// unless they want the uniform strategies ranked alone).
pub fn choose(
    catalog: &StatsCatalog,
    schema: &GlobalSchema,
    query: &BoundQuery,
    knobs: &PipelineKnobs,
    fingerprint: u64,
    allow_hybrid: bool,
) -> PlanChoice {
    let prof = profile(catalog, schema, query);
    let mut ranked = Vec::new();
    for kind in PlanKind::ALL {
        let (modes, breakdown) = match kind {
            PlanKind::Centralized => (
                Vec::new(),
                breakdown_tuned(StrategyKind::Centralized, &prof.inputs, knobs),
            ),
            PlanKind::BasicLocalized | PlanKind::ParallelLocalized => {
                let parallel = kind == PlanKind::ParallelLocalized;
                match localized_plan(&prof, Some(parallel), knobs) {
                    // The uniform modes carry no per-site assignment.
                    Some((_, b)) => (Vec::new(), b),
                    // No hosting sites profiled: fall back to the
                    // federation-averaged estimate.
                    None => (
                        Vec::new(),
                        breakdown_tuned(
                            kind.uniform().expect("BL/PL are uniform"),
                            &prof.inputs,
                            knobs,
                        ),
                    ),
                }
            }
            PlanKind::Hybrid => {
                if !allow_hybrid {
                    continue;
                }
                let Some((modes, b)) = localized_plan(&prof, None, knobs) else {
                    continue;
                };
                (modes, b)
            }
        };
        let model_us = breakdown.response_us();
        let (observed_us, confidence) = match catalog.observed_response(fingerprint, kind.label()) {
            Some((mean, conf)) => (Some(mean), conf),
            None => (None, 0.0),
        };
        let score_us = match observed_us {
            Some(obs) => (1.0 - confidence) * model_us + confidence * obs,
            None => model_us,
        };
        ranked.push(RankedPlan {
            kind,
            modes,
            breakdown,
            model_us,
            observed_us,
            confidence,
            score_us,
        });
    }
    // Equal response-time scores are broken by expected total busy
    // time: at the same makespan, prefer the plan that burns less
    // federation-wide work (the hybrid skips PL's static prefetch on
    // maybe-free sites, so it wins this tie-break exactly when its
    // assignment differs from a uniform mode).
    ranked.sort_by(|a, b| {
        a.score_us
            .total_cmp(&b.score_us)
            .then(a.breakdown.total_us().total_cmp(&b.breakdown.total_us()))
    });
    PlanChoice {
        ranked,
        generation: catalog.generation(),
        fingerprint,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedoq_object::Value;
    use fedoq_schema::{identify_isomerism, integrate, Correspondences};
    use fedoq_sim::SystemParams;
    use fedoq_store::{AttrType, ClassDef, ComponentDb, ComponentSchema};

    fn setup(nulls_at_db0: bool) -> (StatsCatalog, GlobalSchema, BoundQuery) {
        let mk = |db: u32| {
            ComponentSchema::new(vec![ClassDef::new("Student")
                .attr("s-no", AttrType::int())
                .attr("age", AttrType::int())
                .key(["s-no"])])
            .unwrap_or_else(|_| panic!("schema {db}"))
        };
        let mut db0 = ComponentDb::new(DbId::new(0), "DB0", mk(0));
        let mut db1 = ComponentDb::new(DbId::new(1), "DB1", mk(1));
        for i in 0..40 {
            let age = if nulls_at_db0 && i % 2 == 0 {
                Value::Null
            } else {
                Value::Int(20 + (i % 10))
            };
            db0.insert_named("Student", &[("s-no", Value::Int(i)), ("age", age)])
                .unwrap();
            db1.insert_named(
                "Student",
                &[("s-no", Value::Int(i)), ("age", Value::Int(20 + (i % 10)))],
            )
            .unwrap();
        }
        let schema = integrate(
            &[(db0.id(), db0.schema()), (db1.id(), db1.schema())],
            &Correspondences::new(),
        )
        .unwrap();
        let goids = identify_isomerism(&[&db0, &db1], &schema).unwrap();
        let catalog = StatsCatalog::collect(
            [&db0, &db1],
            &schema,
            &goids,
            0,
            SystemParams::paper_default(),
        );
        let query = fedoq_query::bind(
            &fedoq_query::parse("SELECT X.s-no FROM Student X WHERE X.age >= 25").unwrap(),
            &schema,
        )
        .unwrap();
        (catalog, schema, query)
    }

    #[test]
    fn choose_ranks_all_plans_cheapest_first() {
        let (catalog, schema, query) = setup(true);
        let choice = choose(
            &catalog,
            &schema,
            &query,
            &PipelineKnobs::baseline(),
            1,
            true,
        );
        assert_eq!(choice.ranked.len(), 4);
        for pair in choice.ranked.windows(2) {
            assert!(pair[0].score_us <= pair[1].score_us);
        }
        for kind in PlanKind::ALL {
            assert!(choice.plan(kind).is_some(), "{kind} missing");
        }
        let shown = choice.to_string();
        assert!(shown.contains("plan ranking"));
        assert!(shown.contains("CA"));
        assert!(shown.contains("assignment:"));
    }

    #[test]
    fn hybrid_pins_clean_sites_to_bl() {
        let (catalog, schema, query) = setup(true);
        let choice = choose(
            &catalog,
            &schema,
            &query,
            &PipelineKnobs::baseline(),
            1,
            true,
        );
        let hy = choice.plan(PlanKind::Hybrid).unwrap();
        assert_eq!(hy.modes.len(), 2);
        // DB1 stores no nulls and hosts every predicate attribute: its
        // schedule must be BL (skip assistant lookups entirely).
        let db1 = hy.modes.iter().find(|m| m.db == DbId::new(1)).unwrap();
        assert!(!db1.parallel);
        // The hybrid never prices worse than both uniform localized
        // strategies (it can always copy the better one per site).
        let bl = choice.plan(PlanKind::BasicLocalized).unwrap().model_us;
        let pl = choice.plan(PlanKind::ParallelLocalized).unwrap().model_us;
        assert!(hy.model_us <= bl.max(pl) * 1.0001);
    }

    #[test]
    fn allow_hybrid_false_excludes_the_assignment() {
        let (catalog, schema, query) = setup(false);
        let choice = choose(
            &catalog,
            &schema,
            &query,
            &PipelineKnobs::baseline(),
            1,
            false,
        );
        assert_eq!(choice.ranked.len(), 3);
        assert!(choice.plan(PlanKind::Hybrid).is_none());
    }

    #[test]
    fn feedback_overrides_a_wrong_model() {
        let (mut catalog, schema, query) = setup(false);
        let knobs = PipelineKnobs::baseline();
        let cold = choose(&catalog, &schema, &query, &knobs, 9, true);
        let cold_best = cold.best().kind;
        // Feed back measurements saying the model's winner is terrible
        // and CA is nearly free: the ranking must flip to CA.
        for _ in 0..12 {
            catalog.observe_response(9, cold_best.label(), 1e9);
            catalog.observe_response(9, "CA", 1.0);
        }
        let warm = choose(&catalog, &schema, &query, &knobs, 9, true);
        assert_eq!(warm.best().kind, PlanKind::Centralized);
        let flipped = warm.plan(cold_best).unwrap();
        assert!(flipped.confidence > 0.9);
        assert!(flipped.score_us > warm.best().score_us);
        // A different fingerprint is unaffected.
        let other = choose(&catalog, &schema, &query, &knobs, 10, true);
        assert_eq!(other.best().kind, cold_best);
    }

    #[test]
    fn replan_covers_only_unfinished_hosting_sites() {
        let (catalog, schema, query) = setup(true);
        let knobs = PipelineKnobs::baseline();
        // Replanning everything reproduces the full hybrid assignment.
        let all = [DbId::new(0), DbId::new(1)];
        let fresh = replan(&catalog, &schema, &query, &knobs, &all);
        let hy = choose(&catalog, &schema, &query, &knobs, 1, true);
        assert_eq!(fresh, hy.plan(PlanKind::Hybrid).unwrap().modes);
        // A completed site drops out; a site that does not host the
        // query is ignored rather than invented.
        let partial = replan(
            &catalog,
            &schema,
            &query,
            &knobs,
            &[DbId::new(1), DbId::new(9)],
        );
        assert_eq!(partial.len(), 1);
        assert_eq!(partial[0].db, DbId::new(1));
        // DB1 is clean (no nulls, hosts every predicate attribute): the
        // replan keeps it pinned to BL no matter the network price.
        assert!(!partial[0].parallel);
        assert!(replan(&catalog, &schema, &query, &knobs, &[]).is_empty());
    }

    #[test]
    fn replan_reprices_from_midflight_transport_samples() {
        let (mut catalog, schema, query) = setup(true);
        let knobs = PipelineKnobs::baseline();
        let before = replan(&catalog, &schema, &query, &knobs, &[DbId::new(0)]);
        assert_eq!(before.len(), 1);
        // Mid-flight feedback says the link got drastically slower: the
        // replan must price against the observed rate, not the static
        // parameter. Whichever mode wins, the decision is recomputed —
        // assert the observable part: the catalog's link price moved
        // and the assignment is still exactly the unfinished site.
        catalog.observe_net(100, 80_000.0);
        assert!(catalog.net_us_per_byte() > 100.0);
        let after = replan(&catalog, &schema, &query, &knobs, &[DbId::new(0)]);
        assert_eq!(after.len(), 1);
        assert_eq!(after[0].db, DbId::new(0));
    }

    #[test]
    fn warm_cache_knobs_shift_the_ranking_toward_lookup_heavy_plans() {
        let (catalog, schema, query) = setup(true);
        let cold = choose(
            &catalog,
            &schema,
            &query,
            &PipelineKnobs::baseline(),
            1,
            true,
        );
        let warm_knobs = PipelineKnobs {
            warmth: 0.95,
            ..PipelineKnobs::baseline()
        };
        let warm = choose(&catalog, &schema, &query, &warm_knobs, 1, true);
        // Warm lookups make every localized plan cheaper than its cold
        // self; CA's shipping also shrinks but from a different term.
        for kind in [PlanKind::BasicLocalized, PlanKind::ParallelLocalized] {
            let c = cold.plan(kind).unwrap().model_us;
            let w = warm.plan(kind).unwrap().model_us;
            assert!(w <= c, "{kind}: warm {w} vs cold {c}");
        }
    }
}
