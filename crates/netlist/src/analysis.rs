//! Structural analyses: cones, reachability and summary statistics.

use crate::{Circuit, GateKind, NodeId, Topology};

/// Summary statistics of a circuit, as printed in benchmark tables.
#[derive(Clone, Debug, PartialEq)]
pub struct CircuitStats {
    /// Total node count.
    pub nodes: usize,
    /// Primary inputs.
    pub inputs: usize,
    /// Primary outputs.
    pub outputs: usize,
    /// Logic gates (non-source nodes).
    pub gates: usize,
    /// Circuit depth (maximum logic level).
    pub depth: u32,
    /// Number of fanout stems (signals consumed ≥ 2 times).
    pub stems: usize,
    /// Mean fanin over logic gates.
    pub avg_fanin: f64,
    /// Maximum fanout over all signals.
    pub max_fanout: usize,
}

/// Compute [`CircuitStats`].
///
/// # Example
///
/// ```
/// use tpi_netlist::{bench_format, analysis, Topology};
///
/// # fn main() -> Result<(), tpi_netlist::NetlistError> {
/// let c = bench_format::parse_bench("INPUT(a)\nINPUT(b)\ny = AND(a, b)\nOUTPUT(y)\n")?;
/// let topo = Topology::of(&c)?;
/// let stats = analysis::stats(&c, &topo);
/// assert_eq!(stats.gates, 1);
/// assert_eq!(stats.depth, 1);
/// # Ok(())
/// # }
/// ```
pub fn stats(circuit: &Circuit, topo: &Topology) -> CircuitStats {
    let gates = circuit.gate_count();
    let fanin_sum: usize = circuit
        .node_ids()
        .filter(|&id| !circuit.kind(id).is_source())
        .map(|id| circuit.fanins(id).len())
        .sum();
    CircuitStats {
        nodes: circuit.node_count(),
        inputs: circuit.inputs().len(),
        outputs: circuit.outputs().len(),
        gates,
        depth: topo.max_level(),
        stems: circuit
            .node_ids()
            .filter(|&id| topo.is_stem(circuit, id))
            .count(),
        avg_fanin: if gates == 0 {
            0.0
        } else {
            fanin_sum as f64 / gates as f64
        },
        max_fanout: circuit
            .node_ids()
            .map(|id| topo.fanout_count(id) + usize::from(circuit.is_output(id)))
            .max()
            .unwrap_or(0),
    }
}

/// The transitive fanin cone of `root` (all nodes whose value can affect
/// `root`, including `root` itself), as a sorted id list.
pub fn fanin_cone(circuit: &Circuit, root: NodeId) -> Vec<NodeId> {
    let mut seen = vec![false; circuit.node_count()];
    let mut stack = vec![root];
    seen[root.index()] = true;
    while let Some(id) = stack.pop() {
        for &f in circuit.fanins(id) {
            if !seen[f.index()] {
                seen[f.index()] = true;
                stack.push(f);
            }
        }
    }
    collect_seen(&seen)
}

/// The transitive fanout cone of `root` (all nodes `root` can affect,
/// including `root` itself), as a sorted id list.
pub fn fanout_cone(circuit: &Circuit, topo: &Topology, root: NodeId) -> Vec<NodeId> {
    let mut seen = vec![false; circuit.node_count()];
    let mut stack = vec![root];
    seen[root.index()] = true;
    while let Some(id) = stack.pop() {
        for fo in topo.fanouts(id) {
            if !seen[fo.gate.index()] {
                seen[fo.gate.index()] = true;
                stack.push(fo.gate);
            }
        }
    }
    collect_seen(&seen)
}

/// The union of transitive fanout cones of `roots` (each root included),
/// as a node-indexed membership mask.
///
/// This is the "dirty cone" primitive for incremental re-evaluation: after
/// a structural edit, the nodes whose values can have changed are exactly
/// the forward closure of the edited lines.
pub fn fanout_cone_mask(circuit: &Circuit, topo: &Topology, roots: &[NodeId]) -> Vec<bool> {
    let mut seen = vec![false; circuit.node_count()];
    let mut stack: Vec<NodeId> = Vec::with_capacity(roots.len());
    for &r in roots {
        if !seen[r.index()] {
            seen[r.index()] = true;
            stack.push(r);
        }
    }
    while let Some(id) = stack.pop() {
        for fo in topo.fanouts(id) {
            if !seen[fo.gate.index()] {
                seen[fo.gate.index()] = true;
                stack.push(fo.gate);
            }
        }
    }
    seen
}

/// Node-level dirtiness after an edit that appended nodes `old_nodes..`
/// and (possibly) tapped `observed` as new primary outputs.
///
/// A node is *marked* when its value can differ from the pre-edit circuit:
/// the forward cone of the appended nodes. A node is *dirty* when the
/// detection of a fault on its output line can have changed:
///
/// * it is marked (excitation may differ), or
/// * one of its fanins is marked (its input values may differ), or
/// * it is newly observed (a new output watches it), or
/// * any consumer is dirty (its propagation paths run through changed
///   logic or toward a new output).
///
/// The last rule makes dirtiness flow *upstream*; evaluating nodes in
/// reverse topological order resolves it in one pass. Faults on clean
/// lines provably keep their detection behaviour: no value, sensitization
/// side-input or observing output anywhere in their cone changed.
///
/// Three users rely on that: candidate scoring (`tpi_sim::candidate`'s
/// multi-point fallback simulates only a group's dirty faults), the
/// legacy scorer the engine keeps as its A/B oracle (the same), and the
/// pattern-count probes (`CubeSet::probe` carries the redundancy verdict
/// of a fault whose origin is clean).
pub fn dirty_line_mask(
    circuit: &Circuit,
    topo: &Topology,
    old_nodes: usize,
    observed: &[NodeId],
) -> Vec<bool> {
    let n = circuit.node_count();
    let new_nodes: Vec<NodeId> = (old_nodes..n).map(NodeId::from_index).collect();
    let marked = fanout_cone_mask(circuit, topo, &new_nodes);
    let mut dirty = vec![false; n];
    for &id in topo.order().iter().rev() {
        let i = id.index();
        let seeded = marked[i]
            || observed.contains(&id)
            || circuit.fanins(id).iter().any(|f| marked[f.index()]);
        dirty[i] = seeded || topo.fanouts(id).iter().any(|fo| dirty[fo.gate.index()]);
    }
    dirty
}

/// Primary outputs reachable from `root`.
pub fn reachable_outputs(circuit: &Circuit, topo: &Topology, root: NodeId) -> Vec<NodeId> {
    let cone = fanout_cone(circuit, topo, root);
    circuit
        .outputs()
        .iter()
        .copied()
        .filter(|o| cone.binary_search(o).is_ok())
        .collect()
}

/// Whether every signal of the circuit can reach at least one primary
/// output (no dead logic).
pub fn fully_observable_structure(circuit: &Circuit, topo: &Topology) -> bool {
    // Reverse reachability from the outputs.
    let mut seen = vec![false; circuit.node_count()];
    let mut stack: Vec<NodeId> = circuit.outputs().to_vec();
    for &o in circuit.outputs() {
        seen[o.index()] = true;
    }
    while let Some(id) = stack.pop() {
        for &f in circuit.fanins(id) {
            if !seen[f.index()] {
                seen[f.index()] = true;
                stack.push(f);
            }
        }
    }
    let _ = topo;
    seen.iter().all(|&s| s)
}

fn collect_seen(seen: &[bool]) -> Vec<NodeId> {
    seen.iter()
        .enumerate()
        .filter(|&(_, &s)| s)
        .map(|(i, _)| NodeId::from_index(i))
        .collect()
}

/// Count gates by kind, indexed by [`GateKind::ALL`] order.
pub fn kind_histogram(circuit: &Circuit) -> Vec<(GateKind, usize)> {
    GateKind::ALL
        .iter()
        .map(|&k| {
            (
                k,
                circuit
                    .node_ids()
                    .filter(|&id| circuit.kind(id) == k)
                    .count(),
            )
        })
        .filter(|&(_, n)| n > 0)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CircuitBuilder;

    fn sample() -> Circuit {
        let mut b = CircuitBuilder::new("s");
        let a = b.input("a");
        let c = b.input("b");
        let n1 = b.gate(GateKind::And, vec![a, c], "n1").unwrap();
        let n2 = b.gate(GateKind::Or, vec![a, n1], "n2").unwrap();
        let n3 = b.gate(GateKind::Not, vec![n1], "n3").unwrap();
        b.output(n2);
        b.output(n3);
        b.finish().unwrap()
    }

    #[test]
    fn stats_basics() {
        let c = sample();
        let t = Topology::of(&c).unwrap();
        let s = stats(&c, &t);
        assert_eq!(s.nodes, 5);
        assert_eq!(s.inputs, 2);
        assert_eq!(s.outputs, 2);
        assert_eq!(s.gates, 3);
        assert_eq!(s.depth, 2);
        assert_eq!(s.stems, 2); // a feeds two gates; n1 feeds two gates
        assert!((s.avg_fanin - 5.0 / 3.0).abs() < 1e-12);
        assert_eq!(s.max_fanout, 2);
    }

    #[test]
    fn cones() {
        let c = sample();
        let t = Topology::of(&c).unwrap();
        let n1 = c.find_node("n1").unwrap();
        let fic = fanin_cone(&c, n1);
        assert_eq!(fic.len(), 3); // a, b, n1
        let foc = fanout_cone(&c, &t, n1);
        assert_eq!(foc.len(), 3); // n1, n2, n3
        let outs = reachable_outputs(&c, &t, n1);
        assert_eq!(outs.len(), 2);
    }

    #[test]
    fn observability_structure() {
        let c = sample();
        let t = Topology::of(&c).unwrap();
        assert!(fully_observable_structure(&c, &t));

        let mut b = CircuitBuilder::new("dead");
        let a = b.input("a");
        let _dead = b.gate(GateKind::Not, vec![a], "dead").unwrap();
        let g = b.gate(GateKind::Buf, vec![a], "g").unwrap();
        b.output(g);
        let c2 = b.finish().unwrap();
        let t2 = Topology::of(&c2).unwrap();
        assert!(!fully_observable_structure(&c2, &t2));
    }

    #[test]
    fn histogram() {
        let c = sample();
        let h = kind_histogram(&c);
        assert!(h.contains(&(GateKind::Input, 2)));
        assert!(h.contains(&(GateKind::And, 1)));
        assert!(!h.iter().any(|&(k, _)| k == GateKind::Xor));
    }

    #[test]
    fn fanin_cone_of_input_is_self() {
        let c = sample();
        let a = c.find_node("a").unwrap();
        assert_eq!(fanin_cone(&c, a), vec![a]);
    }
}
