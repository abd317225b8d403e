//! A complete scan-BIST session: LFSR pattern generator, fault
//! simulation, constructive test point insertion on a reconvergent
//! circuit, and MISR response compaction.
//!
//! ```text
//! cargo run --example bist_flow
//! ```

use krishnamurthy_tpi::core::Threshold;
use krishnamurthy_tpi::engine::{EngineConfig, OptimizeConfig, TpiEngine};
use krishnamurthy_tpi::gen::{dags, rpr};
use krishnamurthy_tpi::netlist::Circuit;
use krishnamurthy_tpi::sim::{
    FaultSimulator, FaultUniverse, LfsrPatterns, LogicSim, Misr, PatternSource,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let test_length = 4_096u64;

    for circuit in [
        rpr::comparator(14)?,
        dags::random_dag(&dags::RandomDagConfig::new(24, 200, 7))?,
    ] {
        println!("=== {} ===", circuit);
        bist_session(&circuit, test_length)?;
        println!();
    }
    Ok(())
}

fn bist_session(circuit: &Circuit, test_length: u64) -> Result<(), Box<dyn std::error::Error>> {
    let universe = FaultUniverse::collapsed(circuit)?;
    println!(
        "fault universe: {} collapsed / {} total",
        universe.len(),
        universe.total_uncollapsed()
    );

    // Phase 1: measure the unmodified design under the real BIST stimulus.
    let mut sim = FaultSimulator::new(circuit)?;
    let mut lfsr = LfsrPatterns::new(circuit.inputs().len(), 0xace1)?;
    let before = sim.run(&mut lfsr, test_length, universe.faults())?;
    println!(
        "baseline coverage: {:.2}% ({} of {} faults)",
        before.coverage() * 100.0,
        before.detected_count(),
        universe.len()
    );

    // Phase 2: constructive insertion (fault-sim guided, DP per region).
    let threshold = Threshold::from_test_length(test_length, 0.95)?;
    let mut engine = TpiEngine::new(
        circuit.clone(),
        EngineConfig {
            patterns: test_length,
            ..EngineConfig::default()
        },
    )?;
    let outcome = engine.optimize(
        threshold,
        &OptimizeConfig {
            max_rounds: 8,
            target_coverage: 0.999,
            ..OptimizeConfig::default()
        },
    )?;
    println!("inserted: {}", outcome.plan.describe(circuit));
    for round in &outcome.rounds {
        println!(
            "  round {}: coverage {:.2}% (cost so far {:.1})",
            round.round,
            round.coverage * 100.0,
            round.cost
        );
    }

    // Phase 3: sign off the modified design and compute the golden MISR
    // signature a tester would compare against.
    let modified = &outcome.modified;
    let mut sim = FaultSimulator::new(modified)?;
    let mut lfsr = LfsrPatterns::new(modified.inputs().len(), 0xace1)?;
    let after = sim.run(&mut lfsr, test_length, universe.faults())?;
    println!("final coverage:    {:.2}%", after.coverage() * 100.0);

    let logic = LogicSim::new(modified)?;
    let mut misr = Misr::new(24, 0).expect("24 is a valid MISR width");
    let mut source = LfsrPatterns::new(modified.inputs().len(), 0xace1)?;
    let mut words = vec![0u64; modified.inputs().len()];
    let mut remaining = test_length;
    while remaining > 0 {
        let n = source.fill(&mut words).min(remaining as usize);
        if n == 0 {
            break;
        }
        let values = logic.simulate(&words);
        let outputs = logic.output_words(&values);
        misr.absorb_block(&outputs, n);
        remaining -= n as u64;
    }
    println!(
        "golden MISR signature: {:#010x} after {} response vectors",
        misr.signature(),
        misr.clocks()
    );
    Ok(())
}
