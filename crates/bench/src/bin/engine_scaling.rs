//! **Engine scaling — the engine's constructive loop on growing banks.**
//!
//! [`TpiEngine::optimize`] runs the measure → decompose → DP → commit loop
//! on a session that caches the derived analyses and memoizes per-region
//! DP solves; each round measures the edited circuit from scratch.
//!
//! The instance family is a bank of independent random-pattern-resistant
//! AND cones: each commit touches one cone, so the other cones' region
//! subproblems replay from the memo (`memo_hits`). `engine_ms`, the only
//! timing column, is the least wall clock of five runs: on a shared host
//! one run's time swings by half between runs.

use tpi_bench::{ms, timed};
use tpi_core::Threshold;
use tpi_engine::{EngineConfig, OptimizeConfig, TpiEngine};
use tpi_netlist::{Circuit, CircuitBuilder, GateKind};

const PATTERNS: u64 = 4096;
const SEED: u64 = 0xDAC_1987;
const MAX_ROUNDS: usize = 12;
const THRESHOLD_LOG2: f64 = -10.0;
/// Runs per bank; `engine_ms` reports the least.
const RUNS: usize = 5;

fn main() {
    let threshold = Threshold::from_log2(THRESHOLD_LOG2);
    println!("# Engine scaling: the engine's constructive loop");
    println!(
        "# {PATTERNS} patterns/round, {MAX_ROUNDS} rounds max, \u{3b4} = 2^{THRESHOLD_LOG2}, \
         banks of 12-input AND cones"
    );
    println!("cones\tnodes\tfaults\tengine_ms\teng_cov%\tmemo_hits");
    for &cones in &[4usize, 8, 16, 32] {
        let circuit = cone_bank(cones, 12);

        // Every run returns the same outcome; keep the last and the
        // least time.
        let runs = (0..RUNS).map(|_| {
            timed(|| {
                let mut engine = TpiEngine::new(
                    circuit.clone(),
                    EngineConfig {
                        patterns: PATTERNS,
                        seed: SEED,
                        ..EngineConfig::default()
                    },
                )
                .expect("engine builds");
                let outcome = engine
                    .optimize(
                        threshold,
                        &OptimizeConfig {
                            max_rounds: MAX_ROUNDS,
                            ..OptimizeConfig::default()
                        },
                    )
                    .expect("engine loop runs");
                (outcome, engine.stats())
            })
        });
        let ((eng_out, stats), engine_t) = runs
            .reduce(|(_, best), (run, t)| (run, best.min(t)))
            .expect("at least one run");

        println!(
            "{cones}\t{}\t{}\t{}\t{:.2}\t{}",
            circuit.node_count(),
            fault_count(&circuit),
            ms(engine_t),
            100.0 * eng_out.final_coverage,
            stats.memo_hits,
        );
    }
}

/// A bank of `cones` independent `width`-input AND cones — every cone is
/// its own FFR, so a commit leaves the other cones' regions unchanged.
fn cone_bank(cones: usize, width: usize) -> Circuit {
    let mut b = CircuitBuilder::new(format!("cone_bank_{cones}x{width}"));
    for c in 0..cones {
        let xs = b.inputs(width, &format!("x{c}_"));
        let root = b
            .balanced_tree(GateKind::And, &xs, &format!("g{c}_"))
            .expect("builds");
        b.output(root);
    }
    b.finish().expect("valid")
}

fn fault_count(circuit: &Circuit) -> usize {
    tpi_sim::FaultUniverse::collapsed(circuit)
        .expect("collapsible")
        .len()
}
