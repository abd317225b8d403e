//! Differential test: a probe that carries redundancy verdicts and aims
//! its re-proofs builds the cube set a fresh generation builds.
//!
//! `CubeSet::probe` records a fault the current set proved redundant as
//! redundant again, without a PODEM search, when its origin is clean in
//! `dirty_line_mask`: for a control or full point, when the origin's
//! fanout cone and the point line's are disjoint. It searches every
//! other such fault with the X-path check aimed at the outputs the point
//! can newly affect. Over seeded random DAGs of 30–200 gates, each also
//! with a CP-AND, CP-OR, OP and full point already applied (so node ids
//! stop being topological), every kind of point is probed at lines
//! spread over the netlist and at lines in the fan-in of redundant
//! faults' cones — where a weaker condition would carry a verdict the
//! point overturns. At the default backtrack limit the probe must equal
//! `CubeSet::generate` on the probed circuit in cubes, targets, merged
//! set, redundant list and uncovered count. At a limit of 5, where many
//! searches abort, an aimed re-proof may decide a fault the plain search
//! aborts: cubes, targets and merged set must still be equal, and every
//! fault only the probe calls redundant must be redundant.

use tpi_atpg::{Podem, PodemConfig, PodemResult};
use tpi_compaction::{CubeConfig, CubeSet};
use tpi_gen::dags::{random_dag, RandomDagConfig};
use tpi_netlist::transform::{apply_plan, apply_test_point};
use tpi_netlist::{Circuit, NetlistError, NodeId, TestPoint, TestPointKind, Topology};
use tpi_sim::{Fault, FaultUniverse, RunControl};

const KINDS: [TestPointKind; 4] = [
    TestPointKind::ControlAnd,
    TestPointKind::ControlOr,
    TestPointKind::Observe,
    TestPointKind::Full,
];

/// `circuit` with one CP-AND, CP-OR, OP and full point applied at gates
/// spread over the netlist.
fn with_points(circuit: &Circuit) -> Circuit {
    let topo = Topology::of(circuit).unwrap();
    let driving: Vec<NodeId> = circuit
        .node_ids()
        .filter(|&id| !circuit.kind(id).is_source() && topo.fanout_count(id) > 0)
        .collect();
    let at = |num: usize| driving[driving.len() * num / 5];
    let plan = [
        TestPoint::new(at(1), TestPointKind::ControlAnd),
        TestPoint::new(at(2), TestPointKind::ControlOr),
        TestPoint::new(at(3), TestPointKind::Observe),
        TestPoint::new(at(4), TestPointKind::Full),
    ];
    apply_plan(circuit, &plan).unwrap().0
}

/// The lines probed on `circuit`: two spread over the netlist, plus,
/// for the first redundant faults of `set`, a fanin of the origin and
/// a side input of a gate the origin feeds — lines inside
/// FI*(FO*(origin)) whose points can turn the verdict over.
fn probe_lines(circuit: &Circuit, set: &CubeSet) -> Vec<NodeId> {
    let topo = Topology::of(circuit).unwrap();
    let n = circuit.node_count();
    let mut lines: Vec<NodeId> = (1..=2).map(|k| NodeId::from_index(n * k / 3)).collect();
    for fault in set.redundant.iter().take(3) {
        let origin = fault.origin();
        lines.extend(circuit.fanins(origin).first().copied());
        let side = topo.fanouts(origin).iter().find_map(|fo| {
            circuit
                .fanins(fo.gate)
                .iter()
                .copied()
                .find(|&f| f != origin)
        });
        lines.extend(side);
    }
    lines.sort_unstable();
    lines.dedup();
    lines
}

/// The checks that replace equal redundant lists and uncovered counts at
/// a limit where searches abort: the probe's redundant list is the fresh
/// one with some aborted faults added, each of which an unlimited search
/// proves untestable on `circuit`. Returns how many faults were added.
fn decided_by_the_aim(circuit: &Circuit, probed: &CubeSet, fresh: &CubeSet, what: &str) -> usize {
    let mut rest = probed.redundant.iter().copied();
    let mut added: Vec<Fault> = Vec::new();
    for &fault in &fresh.redundant {
        loop {
            match rest.next() {
                Some(f) if f == fault => break,
                Some(f) => added.push(f),
                None => panic!("{what}: fresh redundant list is not a subsequence of the probe's"),
            }
        }
    }
    added.extend(rest);
    assert_eq!(
        probed.redundant.len() + probed.uncovered,
        fresh.redundant.len() + fresh.uncovered,
        "{what}: redundant + uncovered"
    );
    assert!(probed.uncovered <= fresh.uncovered, "{what}: uncovered");
    let mut podem = Podem::with_config(
        circuit,
        PodemConfig {
            max_backtracks: u64::MAX,
        },
    )
    .unwrap();
    for &fault in &added {
        assert_eq!(
            podem.generate(fault).unwrap(),
            PodemResult::Untestable,
            "{what}: {} called redundant",
            fault.describe(circuit)
        );
    }
    added.len()
}

/// What the probes of one circuit did.
#[derive(Default)]
struct Tally {
    probes: usize,
    carried: u64,
    rechecked: u64,
    decided: usize,
}

/// Probe every kind at every line of `circuit`, adding to `tally`.
fn check(circuit: &Circuit, config: &CubeConfig, label: &str, tally: &mut Tally) {
    let control = RunControl::unlimited();
    let universe = FaultUniverse::collapsed(circuit).unwrap();
    let faults = universe.faults();
    let current = CubeSet::generate(circuit, faults, config, &control).unwrap();
    let exact = config.podem.max_backtracks == PodemConfig::default().max_backtracks;
    for line in probe_lines(circuit, &current) {
        for kind in KINDS {
            let point = TestPoint::new(line, kind);
            let what = format!("{label} {kind:?} at {}", circuit.node_name(line));
            let probed = current
                .probe(circuit, point, faults, config, &control)
                .unwrap();
            let mut rebuilt = circuit.clone();
            match apply_test_point(&mut rebuilt, point) {
                Ok(_) => {}
                Err(NetlistError::InvalidTransform { .. }) => {
                    assert!(probed.is_none(), "{what}: probe of an invalid point");
                    continue;
                }
                Err(e) => panic!("{what}: {e}"),
            }
            let probed = probed.unwrap_or_else(|| panic!("{what}: probe refused a valid point"));
            let fresh = CubeSet::generate(&rebuilt, faults, config, &control).unwrap();
            assert_eq!(probed.cubes, fresh.cubes, "{what}: cubes");
            assert_eq!(probed.targets, fresh.targets, "{what}: targets");
            assert_eq!(probed.merged, fresh.merged, "{what}: merged set");
            let (p, f) = (&probed.counters, &fresh.counters);
            if exact {
                assert_eq!(probed.redundant, fresh.redundant, "{what}: redundant list");
                assert_eq!(probed.uncovered, fresh.uncovered, "{what}: uncovered");
                assert_eq!(
                    (p.cubes_generated, p.aborted_faults, p.redundant_faults),
                    (f.cubes_generated, f.aborted_faults, f.redundant_faults),
                    "{what}: counters"
                );
            } else {
                tally.decided += decided_by_the_aim(&rebuilt, &probed, &fresh, &what);
            }
            assert_eq!(f.redundant_carried, 0, "{what}");
            assert_eq!(f.redundant_rechecked, 0, "{what}");
            assert!(p.backtracks <= f.backtracks, "{what}: backtracks");
            tally.probes += 1;
            tally.carried += p.redundant_carried;
            tally.rechecked += p.redundant_rechecked;
        }
    }
}

/// `(gates, seed)` of the random DAGs: several seeds of the small sizes,
/// one of each larger size (a debug-build PODEM makes those slow).
const DAGS: [(usize, u64); 8] = [
    (30, 0),
    (30, 1),
    (30, 2),
    (60, 3),
    (60, 4),
    (100, 5),
    (150, 6),
    (200, 0),
];

#[test]
fn probes_with_carried_verdicts_equal_a_fresh_generation() {
    let limits = [PodemConfig::default(), PodemConfig { max_backtracks: 5 }];
    let mut total = Tally::default();
    for (gates, seed) in DAGS {
        let dag = random_dag(&RandomDagConfig::new(8 + gates / 10, gates, seed)).unwrap();
        for (variant, circuit) in [("dag", dag.clone()), ("points", with_points(&dag))] {
            for podem in limits {
                let config = CubeConfig {
                    podem,
                    ..CubeConfig::default()
                };
                let label = format!(
                    "seed {seed} gates {gates} {variant} bt {}",
                    podem.max_backtracks
                );
                check(&circuit, &config, &label, &mut total);
            }
        }
    }
    let Tally {
        probes,
        carried,
        rechecked,
        decided,
    } = total;
    assert!(probes >= 400, "{probes} probes");
    // The check must not be vacuous: most redundant faults keep their
    // verdict in most probes, many are re-proved under the aim, and at
    // the low limit the aim decides some that plain PODEM aborts.
    assert!(carried >= 100, "{carried} carried verdicts");
    assert!(rechecked >= 100, "{rechecked} aimed re-proofs");
    assert!(decided >= 1, "{decided} aborts decided by the aim");
}
