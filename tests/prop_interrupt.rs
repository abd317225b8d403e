//! Property test: interruption yields *anytime* results.
//!
//! For any random DAG and any work budget, an interrupted constructive
//! run (`TpiEngine::optimize`, a fresh session per run) returns the
//! exact **prefix** of the uninterrupted run's committed test points —
//! so the partial plan is (a) valid (applies cleanly and passes the
//! analytic evaluator) and (b) never costs more than the uninterrupted
//! plan. Work budgets (unlike wall-clock deadlines) are
//! charged deterministically in simulated pattern lanes, which also
//! makes the interruption point — and hence the whole partial plan —
//! reproducible run over run.

use proptest::prelude::*;

use krishnamurthy_tpi::core::evaluate::PlanEvaluator;
use krishnamurthy_tpi::core::general::ConstructiveOutcome;
use krishnamurthy_tpi::core::{RunControl, Threshold, TpiProblem};
use krishnamurthy_tpi::engine::{EngineConfig, OptimizeConfig, TpiEngine};
use krishnamurthy_tpi::gen::dags::{random_dag, RandomDagConfig};
use krishnamurthy_tpi::netlist::transform::apply_plan;
use krishnamurthy_tpi::netlist::Circuit;

/// One constructive run on a fresh session under `control`.
fn optimize(circuit: &Circuit, threshold: Threshold, control: RunControl) -> ConstructiveOutcome {
    let config = EngineConfig {
        patterns: 512,
        ..EngineConfig::default()
    };
    let mut engine = TpiEngine::new(circuit.clone(), config).unwrap();
    engine.set_control(control);
    let cfg = OptimizeConfig {
        max_rounds: 4,
        ..OptimizeConfig::default()
    };
    engine.optimize(threshold, &cfg).unwrap()
}

proptest! {
    #![proptest_config(proptest::test_runner::Config { cases: 16 })]

    #[test]
    fn interrupted_plan_is_a_valid_cheaper_prefix(
        seed in 0u64..500,
        budget in 1u64..20_000,
    ) {
        let mut cfg = RandomDagConfig::new(6, 18, seed);
        cfg.locality = 0.5;
        let circuit = random_dag(&cfg).unwrap();
        let threshold = Threshold::from_log2(-8.0);

        let full = optimize(&circuit, threshold, RunControl::unlimited());
        prop_assert!(full.interrupted.is_none());

        let partial = optimize(&circuit, threshold, RunControl::with_budget(budget));

        // Validity: the partial plan applies cleanly to the original
        // circuit and the analytic evaluator accepts it.
        let (_, mapped) = apply_plan(&circuit, partial.plan.test_points()).unwrap();
        prop_assert_eq!(mapped.len(), partial.plan.len());
        let problem = TpiProblem::min_cost(&circuit, threshold).unwrap();
        let eval = PlanEvaluator::new(&problem)
            .unwrap()
            .evaluate(partial.plan.test_points())
            .unwrap();
        prop_assert!(
            (eval.cost - partial.plan.cost()).abs() < 1e-9,
            "evaluator disagrees on cost: {} vs {}",
            eval.cost,
            partial.plan.cost()
        );

        // Anytime: interruption never commits a partially-refereed
        // round, so the partial plan is an exact prefix of the
        // uninterrupted run's commits — and costs no more.
        prop_assert!(
            partial.plan.cost() <= full.plan.cost() + 1e-9,
            "partial cost {} exceeds uninterrupted cost {}",
            partial.plan.cost(),
            full.plan.cost()
        );
        prop_assert!(partial.plan.len() <= full.plan.len());
        for (i, tp) in partial.plan.test_points().iter().enumerate() {
            prop_assert_eq!(
                tp,
                &full.plan.test_points()[i],
                "partial plan is not a prefix at point {}",
                i
            );
        }

        // Determinism: a work budget trips at the same simulated lane
        // every run, so the same budget reproduces the same partial plan
        // and the same stop reason.
        let rerun = optimize(&circuit, threshold, RunControl::with_budget(budget));
        prop_assert_eq!(rerun.interrupted, partial.interrupted);
        prop_assert_eq!(rerun.plan.test_points(), partial.plan.test_points());
    }
}
