//! **Engine scaling — the incremental constructive loop on growing banks.**
//!
//! [`TpiEngine::optimize`] runs the measure → decompose → DP → commit loop
//! on a session that caches the derived analyses, memoizes per-region DP
//! solves, and re-simulates only the dirty cone of each inserted point.
//!
//! The instance family is a bank of independent random-pattern-resistant
//! AND cones: each commit touches one cone, so the fraction of the circuit
//! the engine must revisit shrinks as the bank grows. The `resim` and
//! `skipped` columns show that fraction; `engine_ms` is the wall clock of
//! one run.

use tpi_bench::{ms, timed};
use tpi_core::Threshold;
use tpi_engine::{EngineConfig, OptimizeConfig, TpiEngine};
use tpi_netlist::{Circuit, CircuitBuilder, GateKind};

const PATTERNS: u64 = 4096;
const SEED: u64 = 0xDAC_1987;
const MAX_ROUNDS: usize = 12;
const THRESHOLD_LOG2: f64 = -10.0;

fn main() {
    let threshold = Threshold::from_log2(THRESHOLD_LOG2);
    println!("# Engine scaling: the incremental constructive loop");
    println!(
        "# {PATTERNS} patterns/round, {MAX_ROUNDS} rounds max, \u{3b4} = 2^{THRESHOLD_LOG2}, \
         banks of 12-input AND cones"
    );
    println!("cones\tnodes\tfaults\tengine_ms\teng_cov%\tresim\tskipped\tmemo_hits");
    for &cones in &[4usize, 8, 16, 32] {
        let circuit = cone_bank(cones, 12);

        let (engine_result, engine_t) = timed(|| {
            let mut engine = TpiEngine::new(
                circuit.clone(),
                EngineConfig {
                    patterns: PATTERNS,
                    seed: SEED,
                    verify_incremental: false,
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
        });
        let (eng_out, stats) = engine_result;

        println!(
            "{cones}\t{}\t{}\t{}\t{:.2}\t{}\t{}\t{}",
            circuit.node_count(),
            fault_count(&circuit),
            ms(engine_t),
            100.0 * eng_out.final_coverage,
            stats.faults_resimulated,
            stats.faults_skipped,
            stats.memo_hits,
        );
    }
}

/// A bank of `cones` independent `width`-input AND cones — every cone is
/// its own FFR, so commits are local and the dirty fraction is `1/cones`.
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
