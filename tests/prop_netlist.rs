//! Property tests for the structural substrate: `.bench` round-trips,
//! the Verilog writer, transform semantics, and decomposition invariants.

use proptest::prelude::*;

use krishnamurthy_tpi::gen::dags::{random_dag, RandomDagConfig};
use krishnamurthy_tpi::gen::trees::{random_tree, RandomTreeConfig};
use krishnamurthy_tpi::netlist::transform::apply_plan;
use krishnamurthy_tpi::netlist::{
    bench_format, ffr, verilog, Circuit, TestPoint, TestPointKind, Topology,
};

fn all_patterns(c: &Circuit) -> impl Iterator<Item = Vec<bool>> + '_ {
    let n = c.inputs().len();
    (0u32..(1 << n)).map(move |p| (0..n).map(|i| p & (1 << i) != 0).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `.bench` serialisation round-trips behaviourally on random DAGs.
    #[test]
    fn bench_round_trip_is_behaviour_preserving(seed in 0u64..5000, gates in 3usize..30) {
        let c = random_dag(&RandomDagConfig::new(4, gates, seed)).unwrap();
        let text = bench_format::to_bench(&c);
        let back = bench_format::parse_bench(&text).unwrap();
        prop_assert_eq!(back.inputs().len(), c.inputs().len());
        prop_assert_eq!(back.outputs().len(), c.outputs().len());
        for assignment in all_patterns(&c) {
            prop_assert_eq!(
                c.evaluate_outputs(&assignment).unwrap(),
                back.evaluate_outputs(&assignment).unwrap()
            );
        }
    }

    /// The Verilog writer emits one primitive per logic gate and a
    /// structurally complete module.
    #[test]
    fn verilog_writer_is_structurally_complete(seed in 0u64..2000, gates in 3usize..25) {
        let c = random_dag(&RandomDagConfig::new(4, gates, seed)).unwrap();
        let v = verilog::to_verilog(&c);
        prop_assert!(v.contains("module"));
        prop_assert!(v.ends_with("endmodule\n"));
        let gate_count = c
            .node_ids()
            .filter(|&id| !c.kind(id).is_source())
            .count();
        // One primitive instance per gate plus one buf per output port.
        let instances = v.matches("\n  and ").count()
            + v.matches("\n  nand ").count()
            + v.matches("\n  or ").count()
            + v.matches("\n  nor ").count()
            + v.matches("\n  xor ").count()
            + v.matches("\n  xnor ").count()
            + v.matches("\n  not ").count()
            + v.matches("\n  buf ").count();
        prop_assert_eq!(instances, gate_count + c.outputs().len());
    }

    /// A control point held at its non-controlling value is functionally
    /// transparent: the modified circuit equals the original on every
    /// pattern.
    #[test]
    fn control_points_are_transparent_when_disabled(
        seed in 0u64..5000,
        gates in 3usize..20,
        node_sel in 0usize..1000,
        or_type in any::<bool>(),
    ) {
        let c = random_dag(&RandomDagConfig::new(4, gates, seed)).unwrap();
        let topo = Topology::of(&c).unwrap();
        let candidates: Vec<_> = c
            .node_ids()
            .filter(|&id| topo.fanout_count(id) > 0 || c.is_output(id))
            .collect();
        let node = candidates[node_sel % candidates.len()];
        let tp = if or_type {
            TestPoint::control_or(node)
        } else {
            TestPoint::control_and(node)
        };
        let (m, applied) = apply_plan(&c, &[tp]).unwrap();
        let aux = applied[0].aux_input.unwrap();
        // Inputs of `m` are the original inputs plus the aux input.
        let aux_pos = m.inputs().iter().position(|&i| i == aux).unwrap();
        let non_controlling = !or_type; // AND-CP transparent at 1, OR-CP at 0
        for assignment in all_patterns(&c) {
            let mut extended: Vec<bool> = assignment.clone();
            extended.insert(aux_pos, non_controlling);
            let original = c.evaluate_outputs(&assignment).unwrap();
            let modified = m.evaluate_outputs(&extended).unwrap();
            // Compare on the original outputs only (order is preserved;
            // control points may substitute the driving node).
            prop_assert_eq!(&modified[..original.len()], &original[..]);
        }
    }

    /// Observation points never change functional behaviour on the
    /// original outputs, and expose the observed node faithfully.
    #[test]
    fn observation_points_are_pure_taps(seed in 0u64..5000, gates in 3usize..20, node_sel in 0usize..1000) {
        let c = random_dag(&RandomDagConfig::new(4, gates, seed)).unwrap();
        let nodes: Vec<_> = c.node_ids().collect();
        let node = nodes[node_sel % nodes.len()];
        let already_output = c.is_output(node);
        let (m, _) = apply_plan(&c, &[TestPoint::observe(node)]).unwrap();
        prop_assert_eq!(m.node_count(), c.node_count());
        for assignment in all_patterns(&c) {
            let original_all = c.evaluate(&assignment).unwrap();
            let modified = m.evaluate_outputs(&assignment).unwrap();
            let original = c.evaluate_outputs(&assignment).unwrap();
            prop_assert_eq!(&modified[..original.len()], &original[..]);
            if !already_output {
                prop_assert_eq!(modified[original.len()], original_all[node.index()]);
            }
        }
    }

    /// Applying any mix of test points keeps the circuit well-formed and
    /// acyclic, and never disturbs pre-existing node ids.
    #[test]
    fn transforms_preserve_wellformedness(
        seed in 0u64..5000,
        gates in 3usize..20,
        picks in prop::collection::vec((0usize..1000, 0usize..4), 1..6),
    ) {
        let c = random_dag(&RandomDagConfig::new(4, gates, seed)).unwrap();
        let topo = Topology::of(&c).unwrap();
        let controllable: Vec<_> = c
            .node_ids()
            .filter(|&id| topo.fanout_count(id) > 0 || c.is_output(id))
            .collect();
        let kinds = [
            TestPointKind::Observe,
            TestPointKind::ControlAnd,
            TestPointKind::ControlOr,
            TestPointKind::Full,
        ];
        let plan: Vec<TestPoint> = picks
            .iter()
            .map(|&(n, k)| TestPoint::new(controllable[n % controllable.len()], kinds[k]))
            .collect();
        let (m, _) = apply_plan(&c, &plan).unwrap();
        prop_assert!(m.validate().is_ok());
        prop_assert!(Topology::of(&m).is_ok());
        for id in c.node_ids() {
            prop_assert_eq!(m.kind(id), c.kind(id));
            prop_assert_eq!(m.node_name(id), c.node_name(id));
        }
    }

    /// FFR decomposition partitions the nodes; every member reaches its
    /// root without passing another root.
    #[test]
    fn ffr_is_a_partition(seed in 0u64..5000, gates in 3usize..40) {
        let c = random_dag(&RandomDagConfig::new(5, gates, seed)).unwrap();
        let topo = Topology::of(&c).unwrap();
        let ffr = ffr::FfrDecomposition::of(&c, &topo);
        let total: usize = ffr.roots().iter().map(|&r| ffr.members(r).len()).sum();
        prop_assert_eq!(total, c.node_count());
        for id in c.node_ids() {
            let root = ffr.root_of(id);
            prop_assert_eq!(ffr.root_of(root), root, "root of root is itself");
        }
    }

    /// Generated trees always admit a tree root; generated DAGs of enough
    /// size generally do not (fanout appears).
    #[test]
    fn tree_generator_produces_trees(leaves in 2usize..40, seed in 0u64..5000) {
        let c = random_tree(&RandomTreeConfig::with_leaves(leaves, seed)).unwrap();
        let topo = Topology::of(&c).unwrap();
        prop_assert!(ffr::tree_root(&c, &topo).is_some());
        prop_assert!(ffr::is_fanout_free(&c, &topo));
    }
}
