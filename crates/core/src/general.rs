//! Building blocks of the constructive driver for general (reconvergent)
//! circuits.
//!
//! Optimal insertion is NP-hard once fanout reconverges, so the DP cannot
//! be applied globally. The constructive loop (`tpi_engine::TpiEngine::optimize`,
//! which `tpi insert --method constructive`, `tpi batch` and `tpi serve`
//! run) follows the DFT literature instead:
//!
//! 1. **Measure** — fault-simulate the current circuit with a fixed
//!    random-pattern budget, keeping the undetected faults;
//! 2. **Decompose** — split the circuit into fanout-free regions (FFRs),
//!    inside which the tree DP is exact;
//! 3. **Solve** — for each region holding undetected faults, extract it as
//!    a standalone tree ([`extract_region`]: boundary nets become
//!    pseudo-inputs carrying their COP probabilities; the region root
//!    keeps its COP observability `ρ`) and run
//!    [`DpOptimizer::solve_region`](crate::DpOptimizer::solve_region);
//! 4. **Commit** — let the best region plans and single-point escalations
//!    ([`gather_candidates`]) compete on detections per cost measured by
//!    fault simulation, apply the winner, then repeat.
//!
//! The loop is *constructive*: every round is validated by fault
//! simulation before the next is planned, so approximation errors in COP
//! under reconvergence cannot compound silently. Its results are
//! reported as a [`ConstructiveOutcome`] with one [`RoundReport`] per
//! round.

use std::collections::HashMap;

use tpi_netlist::ffr::FfrDecomposition;
use tpi_netlist::{Circuit, GateKind, NodeId, TestPoint, Topology};
use tpi_sim::{FaultSite, FaultUniverse, StopReason};
use tpi_testability::CopAnalysis;

use crate::Plan;

/// How candidate test points are scored by the search loops.
///
/// Both strategies produce **bit-identical plans** (property-tested):
/// the batched evaluator shares one compiled simulator across
/// candidates and re-simulates only each candidate's dirty cone, which
/// provably cannot change any score (see [`tpi_sim::candidate`]).
/// Legacy is kept as the A/B oracle.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub enum CandidateEval {
    /// Compile-once batched scoring: validate groups before cloning,
    /// share one augmented simulator across candidates, and pay only
    /// cone-sized work per candidate.
    #[default]
    Batched,
    /// The historical clone-and-resimulate-everything loop.
    Legacy,
}

/// One round of the constructive loop, for reporting.
#[derive(Clone, Debug, PartialEq)]
pub struct RoundReport {
    /// Round index (0 = the unmodified circuit's measurement).
    pub round: usize,
    /// Fault coverage measured at the start of the round.
    pub coverage: f64,
    /// Cumulative plan cost when measured.
    pub cost: f64,
    /// Test points committed by this round.
    pub points_added: usize,
}

/// Outcome of a constructive run.
#[derive(Clone, Debug)]
pub struct ConstructiveOutcome {
    /// The committed plan (points reference the evolving circuit; replay
    /// in order against the original).
    pub plan: Plan,
    /// Per-round measurements.
    pub rounds: Vec<RoundReport>,
    /// Measured fault coverage of the final circuit (after an
    /// interruption: the coverage last measured before it).
    pub final_coverage: f64,
    /// The final modified circuit.
    pub modified: Circuit,
    /// `Some` when a [`RunControl`](tpi_sim::RunControl) token stopped the loop early; the
    /// plan then holds the points committed before interruption (an
    /// anytime prefix of the uninterrupted run).
    pub interrupted: Option<StopReason>,
}

/// Candidate test points aimed at specific undetected faults: observe the
/// fault's first visible line, force sibling pins non-controlling, raise
/// the missing excitation, or cut. Deduplicated against `already`.
///
/// The constructive loop adds each as a one-point candidate group next
/// to the region plans.
pub fn gather_candidates(
    current: &Circuit,
    universe: &FaultUniverse,
    undetected: &[usize],
    already: &[TestPoint],
    limit: usize,
) -> Vec<TestPoint> {
    let mut picked: Vec<TestPoint> = Vec::new();
    for &fi in undetected {
        if picked.len() >= limit.max(1) {
            break;
        }
        let fault = universe.faults()[fi];
        // The excitation-raising control-point type: an undetected SA1
        // means the line is rarely 0 (pull it down), and vice versa.
        let exc_kind = if fault.stuck {
            tpi_netlist::TestPointKind::ControlAnd
        } else {
            tpi_netlist::TestPointKind::ControlOr
        };
        let mut candidates: Vec<TestPoint> = Vec::new();
        match fault.site {
            FaultSite::Stem(node) => {
                candidates.push(TestPoint::observe(node));
                for &fanin in current.fanins(node) {
                    candidates.push(TestPoint::new(fanin, exc_kind));
                }
                candidates.push(TestPoint::full(node));
            }
            FaultSite::Branch { gate, pin } => {
                // The effect first exists at the consuming gate: observe
                // it, force the sibling pins non-controlling, then raise
                // the driver's excitation.
                candidates.push(TestPoint::observe(gate));
                let side_kind = match current.kind(gate).controlling_value() {
                    Some(false) => Some(tpi_netlist::TestPointKind::ControlOr), // AND-like
                    Some(true) => Some(tpi_netlist::TestPointKind::ControlAnd), // OR-like
                    None => None, // XOR propagates anything
                };
                if let Some(side_kind) = side_kind {
                    for (p, &sibling) in current.fanins(gate).iter().enumerate() {
                        if p != pin as usize {
                            candidates.push(TestPoint::new(sibling, side_kind));
                        }
                    }
                }
                let driver = current.fanins(gate)[pin as usize];
                candidates.push(TestPoint::new(driver, exc_kind));
                candidates.push(TestPoint::full(gate));
            }
        }
        for tp in candidates {
            if picked.len() >= limit.max(1) {
                break;
            }
            if !already.contains(&tp) && !picked.contains(&tp) {
                picked.push(tp);
            }
        }
    }
    picked
}

/// An FFR lifted out of its parent circuit as a standalone tree, ready for
/// the exact DP, plus the node mappings needed to translate plans back.
pub struct RegionExtraction {
    /// The extracted single-output tree circuit.
    pub circuit: Circuit,
    /// Parent node id → extracted-circuit node id (members only).
    pub to_sub: HashMap<NodeId, NodeId>,
    /// Extracted-circuit node id → parent node id (members and boundary
    /// pseudo-inputs).
    pub to_parent: HashMap<NodeId, NodeId>,
    /// Extracted-circuit input id → signal 1-probability inherited from
    /// the parent's COP analysis.
    pub input_probs: HashMap<NodeId, f64>,
}

/// Extract the FFR rooted at `root` as a standalone single-output circuit.
/// Boundary nets become pseudo-inputs carrying their parent-circuit COP
/// 1-probabilities.
///
/// The constructive loop solves the extracted tree with the region DP and
/// maps the plan back through [`RegionExtraction::to_parent`].
pub fn extract_region(
    parent: &Circuit,
    topo: &Topology,
    ffr: &FfrDecomposition,
    root: NodeId,
    cop: &CopAnalysis,
) -> Option<RegionExtraction> {
    let mut members = ffr.members(root);
    if members.is_empty() {
        return None;
    }
    members.sort_by_key(|&m| (topo.level(m), m.index()));
    let mut sub = Circuit::new(format!("{}_ffr_{}", parent.name(), parent.node_name(root)));
    let mut to_sub: HashMap<NodeId, NodeId> = HashMap::new();
    let mut to_parent: HashMap<NodeId, NodeId> = HashMap::new();
    let mut input_probs: HashMap<NodeId, f64> = HashMap::new();
    let member_set: std::collections::HashSet<NodeId> = members.iter().copied().collect();

    for &m in &members {
        let kind = parent.kind(m);
        let sub_id = if kind.is_source() {
            sub.add_node(kind, vec![], parent.node_name(m)).ok()?
        } else {
            let mut fanins = Vec::with_capacity(parent.fanins(m).len());
            for &f in parent.fanins(m) {
                let mapped = if member_set.contains(&f) {
                    to_sub[&f]
                } else {
                    // Boundary net: a *fresh* pseudo-input per consuming
                    // pin, carrying the parent's COP probability. A shared
                    // boundary stem must NOT be deduplicated — that would
                    // reintroduce fanout and push the extracted region out
                    // of the tree class the DP requires. Treating the two
                    // taps as independent is the usual FFR approximation;
                    // the simulation referee catches any damage.
                    let name = format!("{}__b{}", parent.node_name(f), sub.node_count());
                    let b = sub.add_node(GateKind::Input, vec![], name).ok()?;
                    input_probs.insert(b, cop.c1(f));
                    to_parent.insert(b, f);
                    b
                };
                fanins.push(mapped);
            }
            sub.add_node(kind, fanins, parent.node_name(m)).ok()?
        };
        if kind == GateKind::Input {
            input_probs.insert(sub_id, cop.c1(m));
        }
        to_sub.insert(m, sub_id);
        to_parent.insert(sub_id, m);
    }
    sub.add_output(to_sub[&root]).ok()?;
    sub.validate().ok()?;
    Some(RegionExtraction {
        circuit: sub,
        to_sub,
        to_parent,
        input_probs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpi_netlist::CircuitBuilder;

    /// A reconvergent, random-pattern-resistant circuit: a shared AND-cone
    /// stem feeding two branches that reconverge in an OR.
    fn resistant_reconvergent() -> Circuit {
        let mut b = CircuitBuilder::new("rr");
        let xs = b.inputs(12, "x");
        let stem = b.balanced_tree(GateKind::And, &xs[..8], "cone").unwrap();
        let g1 = b.gate(GateKind::And, vec![stem, xs[8]], "g1").unwrap();
        let g2 = b.gate(GateKind::And, vec![stem, xs[9]], "g2").unwrap();
        let m = b.gate(GateKind::Or, vec![g1, g2], "m").unwrap();
        let tail = b
            .balanced_tree(GateKind::And, &[m, xs[10], xs[11]], "t")
            .unwrap();
        b.output(tail);
        b.finish().unwrap()
    }

    #[test]
    fn region_extraction_is_faithful() {
        let c = resistant_reconvergent();
        let topo = Topology::of(&c).unwrap();
        let cop = CopAnalysis::new(&c).unwrap();
        let ffr = FfrDecomposition::of(&c, &topo);
        let stem = c.find_node("cone_6").unwrap(); // root of the AND cone
        let root = ffr.root_of(stem);
        let ex = extract_region(&c, &topo, &ffr, root, &cop).unwrap();
        assert!(ex.circuit.validate().is_ok());
        assert_eq!(ex.circuit.outputs().len(), 1);
        // Round trip of the mapping.
        for (&p, &s) in &ex.to_sub {
            if let Some(&back) = ex.to_parent.get(&s) {
                assert_eq!(back, p);
            }
        }
        // Boundary pseudo-inputs carry the parent's probabilities.
        for (&s, &prob) in &ex.input_probs {
            let parent_node = ex.to_parent[&s];
            assert!((prob - cop.c1(parent_node)).abs() < 1e-12);
        }
    }
}
