//! **Table 6 — the full flow: random patterns + TPI + deterministic
//! top-off.**
//!
//! For each resistant circuit: baseline coverage, coverage after DP (or
//! constructive) insertion, and the number of deterministic cubes / merged
//! seeds PODEM needs for the last mile to 100% of testable faults —
//! the reseeding trade-off the period literature closes its flows with.

use tpi_atpg::{redundancy, topoff, PodemConfig};
use tpi_bench::{header, pct, STANDARD_PATTERNS};
use tpi_core::{DpOptimizer, Threshold, TpiProblem};
use tpi_engine::{EngineConfig, OptimizeConfig, TpiEngine};
use tpi_netlist::transform::apply_plan;
use tpi_netlist::{ffr, Topology};
use tpi_sim::{FaultSimulator, FaultUniverse, RandomPatterns};

fn main() {
    let threshold = Threshold::from_test_length(STANDARD_PATTERNS, tpi_bench::STANDARD_CONFIDENCE)
        .expect("valid threshold");
    println!("# Table 6: random + TPI + ATPG top-off to 100% of testable faults\n");
    header(&[
        "circuit",
        "faults",
        "redundant",
        "FC_base",
        "points",
        "FC_tpi",
        "leftover",
        "cubes",
        "seeds",
    ]);
    for entry in tpi_gen::suite::standard_suite().expect("suite builds") {
        let c = &entry.circuit;
        let universe = FaultUniverse::collapsed(c).expect("collapsible");

        // Phase 0: redundancy sweep — untestable faults leave the
        // denominator for good.
        let sweep =
            redundancy::sweep(c, universe.faults(), PodemConfig::default()).expect("atpg runs");
        let targets = sweep.targets();

        // Phase 1: baseline.
        let mut sim = FaultSimulator::new(c).expect("acyclic");
        let mut src = RandomPatterns::new(c.inputs().len(), 1);
        let base = sim
            .run(&mut src, STANDARD_PATTERNS, &targets)
            .expect("runs");

        // Phase 2: insertion (DP on trees, constructive elsewhere).
        let topo = Topology::of(c).expect("acyclic");
        let modified = if ffr::is_fanout_free(c, &topo) {
            let problem = TpiProblem::min_cost(c, threshold).expect("acyclic");
            match DpOptimizer::default().solve(&problem) {
                Ok(plan) => apply_plan(c, plan.test_points()).expect("applies").0,
                Err(_) => c.clone(),
            }
        } else {
            let mut engine = TpiEngine::new(
                c.clone(),
                EngineConfig {
                    patterns: 8_192,
                    ..EngineConfig::default()
                },
            )
            .expect("engine builds");
            let cfg = OptimizeConfig {
                max_rounds: 20,
                ..OptimizeConfig::default()
            };
            engine
                .optimize(threshold, &cfg)
                .expect("constructive runs")
                .modified
        };
        let points = modified.inputs().len() - c.inputs().len()
            + (modified.outputs().len() - c.outputs().len());

        let mut sim = FaultSimulator::new(&modified).expect("acyclic");
        let mut src = RandomPatterns::new(modified.inputs().len(), 1);
        let tpi = sim
            .run(&mut src, STANDARD_PATTERNS, &targets)
            .expect("runs");

        // Phase 3: deterministic top-off on the modified circuit.
        let leftovers: Vec<_> = tpi
            .undetected_indices()
            .into_iter()
            .map(|i| targets[i])
            .collect();
        let top =
            topoff::generate(&modified, &leftovers, PodemConfig::default(), 7).expect("atpg runs");

        println!(
            "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
            entry.name,
            targets.len(),
            sweep.redundant.len(),
            pct(base.coverage()),
            points,
            pct(tpi.coverage()),
            leftovers.len(),
            top.cubes.len(),
            top.seed_count(),
        );
    }
}
