//! The named workloads: which jobs one pass runs, and the `.bench` text
//! each job receives for a run seed.
//!
//! Every workload is a fixed set of `tpi-gen` circuits; the run seed
//! only renames their signals ([`present`]). Independent random circuits
//! of one size differ in insertion time by 25–80 % per job, and even a
//! shuffled line order (new node ids, so new tie-breaks) moves a pattern
//! job's work by up to 2×; either would swamp any bound on the spread
//! between seeds. Renaming keeps every seed's work identical while the
//! program never sees the same text twice.

use krishnamurthy_tpi::gen::dags::{random_dag, RandomDagConfig};
use krishnamurthy_tpi::gen::trees::{random_tree, RandomTreeConfig};
use krishnamurthy_tpi::netlist::{Circuit, GateKind, NetlistError, NodeId};

use crate::job::Method;

/// Primary inputs of every generated DAG.
const DAG_INPUTS: usize = 24;

/// A circuit family and size.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    /// `random_tree(and_or_only)` with this many leaves.
    Tree(usize),
    /// `random_dag` with 24 inputs and this many gates.
    Dag(usize),
}

/// One job of a pass.
#[derive(Clone, Copy, Debug)]
pub struct JobSpec {
    /// Circuit family and size.
    pub shape: Shape,
    /// `tpi-gen` seed of the circuit.
    pub circuit_seed: u64,
    /// `tpi insert` mode.
    pub method: Method,
}

/// A named workload.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// The jobs of one pass.
    pub jobs: &'static [JobSpec],
    /// Layer metrics predicted to hold most of the traced wall time.
    pub dominant: &'static [&'static str],
}

const fn job(shape: Shape, circuit_seed: u64, method: Method) -> JobSpec {
    JobSpec {
        shape,
        circuit_seed,
        method,
    }
}

const PATTERNS: Method = Method::Patterns { max_points: 4 };

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "tree_dp",
        jobs: &[
            job(Shape::Tree(1024), 1, Method::Dp),
            job(Shape::Tree(2048), 2, Method::Dp),
        ],
        dominant: &["core.dp_s"],
    },
    Workload {
        name: "constructive_dag",
        jobs: &[
            job(Shape::Dag(400), 5, Method::Constructive),
            job(Shape::Dag(1600), 5, Method::Constructive),
        ],
        dominant: &["sim.candidate_eval_s", "engine.optimize_other_s"],
    },
    Workload {
        name: "greedy_dag",
        jobs: &[
            job(Shape::Dag(400), 5, Method::Greedy),
            job(Shape::Dag(400), 7, Method::Greedy),
        ],
        dominant: &["core.greedy_s"],
    },
    Workload {
        name: "patterns_dag",
        jobs: &[
            job(Shape::Dag(150), 3, PATTERNS),
            job(Shape::Dag(200), 3, PATTERNS),
        ],
        dominant: &["compaction.probe_s", "atpg.cube_set_s"],
    },
];

/// Look a workload up by name.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// A job's input: its mode, circuit name and `.bench` text.
#[derive(Clone, Debug)]
pub struct Input {
    /// The job's `tpi insert` mode.
    pub method: Method,
    /// Circuit name (the file stem `tpi insert` would see).
    pub name: String,
    /// The netlist as `.bench` text.
    pub text: String,
}

/// SplitMix64, the random stream behind the presentations (stable across
/// hosts and toolchains).
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// Generate the circuit of `shape` for `tpi-gen` seed `seed`.
///
/// # Errors
///
/// Generator errors (none occur for the shapes above).
pub fn generate(shape: Shape, seed: u64) -> Result<Circuit, NetlistError> {
    match shape {
        Shape::Tree(leaves) => {
            random_tree(&RandomTreeConfig::with_leaves(leaves, seed).and_or_only())
        }
        Shape::Dag(gates) => random_dag(&RandomDagConfig::new(DAG_INPUTS, gates, seed)),
    }
}

/// A seeded presentation of `circuit` as `.bench` text: every signal
/// renamed through a random permutation, lines in node order. The
/// program parses it into the same nodes, with the same ids, as the
/// generated circuit.
pub fn present(circuit: &Circuit, seed: u64) -> String {
    let ids: Vec<NodeId> = circuit.node_ids().collect();
    let mut labels: Vec<usize> = (0..ids.len()).collect();
    SplitMix(seed).shuffle(&mut labels);
    let name = |id: NodeId| format!("n{}", labels[id.index()]);
    let inputs = circuit
        .inputs()
        .iter()
        .map(|&i| format!("INPUT({})", name(i)));
    let outputs = circuit
        .outputs()
        .iter()
        .map(|&o| format!("OUTPUT({})", name(o)));
    let gates = ids
        .iter()
        .filter(|&&id| circuit.node(id).kind() != GateKind::Input)
        .map(|&id| {
            let node = circuit.node(id);
            let args: Vec<String> = node.fanins().iter().map(|&f| name(f)).collect();
            format!(
                "{} = {}({})",
                name(id),
                node.kind().bench_name(),
                args.join(", ")
            )
        });
    let mut text = format!("# {} presentation {seed:016x}\n", circuit.name());
    for line in inputs.chain(outputs).chain(gates) {
        text.push_str(&line);
        text.push('\n');
    }
    text
}

/// The inputs of one pass of `workload` under run seed `seed`.
///
/// # Errors
///
/// Generator errors.
pub fn inputs(workload: &Workload, seed: u64) -> Result<Vec<Input>, NetlistError> {
    let mut rng = SplitMix(seed);
    workload
        .jobs
        .iter()
        .map(|spec| {
            let circuit = generate(spec.shape, spec.circuit_seed)?;
            let size = match spec.shape {
                Shape::Tree(n) => format!("tree{n}"),
                Shape::Dag(n) => format!("dag{n}"),
            };
            Ok(Input {
                method: spec.method,
                name: format!("{size}_s{}", spec.circuit_seed),
                text: present(&circuit, rng.next()),
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use krishnamurthy_tpi::netlist::bench_format;

    #[test]
    fn presentation_keeps_the_circuit_and_follows_the_seed() {
        let circuit = generate(Shape::Dag(60), 5).expect("generates");
        let a = present(&circuit, 1);
        assert_eq!(a, present(&circuit, 1));
        assert_ne!(a, present(&circuit, 2));
        let parsed = bench_format::parse_bench(&a).expect("parses");
        assert_eq!(parsed.inputs().len(), circuit.inputs().len());
        assert_eq!(parsed.outputs().len(), circuit.outputs().len());
        assert_eq!(parsed.node_ids().len(), circuit.node_ids().len());
        for id in circuit.node_ids() {
            assert_eq!(parsed.node(id).kind(), circuit.node(id).kind());
            assert_eq!(parsed.node(id).fanins(), circuit.node(id).fanins());
        }
    }
}
