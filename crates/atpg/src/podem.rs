use tpi_netlist::analysis::reachable_outputs;
use tpi_netlist::transform::AppliedTestPoint;
use tpi_netlist::{Circuit, GateKind, NetlistError, NodeId, Topology};
use tpi_sim::{Fault, FaultSite};
use tpi_testability::ScoapAnalysis;

use crate::value::{eval_pair, Pair, Ternary};
use crate::TestCube;

/// Tuning for [`Podem`].
#[derive(Copy, Clone, Debug)]
pub struct PodemConfig {
    /// Abort the search after this many backtracks (the result is then
    /// [`PodemResult::Aborted`], *not* a redundancy proof).
    pub max_backtracks: u64,
}

impl Default for PodemConfig {
    fn default() -> PodemConfig {
        PodemConfig {
            max_backtracks: 50_000,
        }
    }
}

/// Outcome of one PODEM run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PodemResult {
    /// A test cube detecting the fault.
    Test(TestCube),
    /// Proven untestable (redundant fault): the decision space was
    /// exhausted.
    Untestable,
    /// Backtrack limit hit; testability undecided.
    Aborted,
}

/// Where the X-path of an aimed search must end
/// ([`Podem::generate_aimed`]): the outputs at which a test can still
/// show the fault, and a line no detecting path passes through.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Aim {
    /// The outputs a detecting path may end at.
    pub outputs: Vec<NodeId>,
    /// A line no detecting path passes through.
    pub blocked: Option<NodeId>,
}

impl Aim {
    /// The aim for a fault that was redundant before `applied` went into
    /// the circuit; `circuit` is the circuit after it and `topo` its
    /// topology. For an observe point at `v` the only output is `v`; for
    /// a control point `g = AND/OR(v, r)` the outputs are those in
    /// FO*(`g`) and `g` is blocked; for a full point with input `r` they
    /// are `v` and the outputs in FO*(`r`).
    ///
    /// Outside the fanout cone of the point's new nodes the circuit
    /// computes, in both machines, what the old circuit computes under
    /// the same assignment of the old inputs, so a D at any other output
    /// would be a test there. A control point's gate carries a D only
    /// while `r` sits at its pass value, and there the circuit behaves
    /// as the old one did, so a test never needs a path through `g`
    /// (DESIGN §6.2k).
    pub fn after_point(circuit: &Circuit, topo: &Topology, applied: &AppliedTestPoint) -> Aim {
        let mut outputs: Vec<NodeId> = applied.observed.into_iter().collect();
        if let Some(r) = applied.aux_input {
            outputs.extend(reachable_outputs(circuit, topo, r));
        }
        Aim {
            outputs,
            blocked: applied.cp_gate,
        }
    }
}

/// Sentinel position: no node.
const NONE: usize = usize::MAX;

/// The PODEM deterministic test generator.
///
/// Implements the classic algorithm: objectives are either *excite the
/// fault* or *advance the D-frontier*; each objective is backtraced to a
/// primary-input assignment (SCOAP-guided choice of path), and a
/// decision stack over PI assignments backtracks on conflicts.
/// Exhausting the stack proves redundancy. Before each objective the
/// search also backtracks when no X-path is left: when every path from
/// the fault's origin to a primary output crosses a line whose two
/// machines are binary and equal, no extension of the assignment can
/// detect the fault, so the subtree below holds no test.
///
/// Implication is event-driven over a flat copy of the netlist built
/// once per generator: nodes are renumbered to their topological
/// position, both machines' values of a line are packed into one byte,
/// and each decision propagates forward from its one primary input.
/// Every overwritten value goes on an undo trail, so backtracking
/// restores the state at a decision instead of re-simulating. The
/// D-frontier scan and the detection check look only at the fault's
/// fanout cone, the only place the two machines can differ. None of
/// this changes the search: objectives, decisions, backtracks and cubes
/// are those of re-simulating both machines after every decision. The
/// X-path check prunes only subtrees without a test, so it changes no
/// cube or verdict either; it only lets a search finish that would
/// otherwise have hit [`PodemConfig::max_backtracks`]. An aimed search
/// ([`Podem::generate_aimed`]) runs the same check toward a narrower set
/// of outputs.
#[derive(Clone, Debug)]
pub struct Podem {
    config: PodemConfig,
    /// Gate kind by position (position = index in `Topology::order()`,
    /// which sorts by (level, id), so every fanin precedes its gate).
    kinds: Vec<GateKind>,
    /// Node index by position.
    node_of: Vec<u32>,
    /// Position by node index.
    pos_of: Vec<u32>,
    /// CSR fanins: the pins of position `p`, in pin order, are
    /// `fanins[fanin_start[p]..fanin_start[p + 1]]`.
    fanin_start: Vec<u32>,
    fanins: Vec<u32>,
    /// CSR fanouts (one entry per consuming pin), in ascending position.
    fanout_start: Vec<u32>,
    fanouts: Vec<u32>,
    /// Primary-output flag by position.
    is_output: Vec<bool>,
    /// SCOAP measures by position.
    cc0: Vec<u32>,
    cc1: Vec<u32>,
    co: Vec<u32>,
    /// Position of each primary input, in `Circuit::inputs` order.
    input_pos: Vec<u32>,
    /// Primary-input index by position (`u32::MAX` for other nodes).
    input_of: Vec<u32>,
    /// The fault of the current call, in positions.
    fault: Injection,
    /// Both machines' values by position.
    vals: Vec<Pair>,
    /// Overwritten `(position, value)` pairs, oldest first.
    trail: Vec<(u32, Pair)>,
    /// Positions awaiting evaluation, one bit each.
    dirty: Vec<u64>,
    /// Highest word of `dirty` marked since the last propagation.
    dirty_hi: usize,
    /// The fault's fanout cone, by ascending node id.
    cone: Vec<u32>,
    /// The primary outputs inside `cone`.
    cone_outputs: Vec<u32>,
    /// Cone-membership scratch, all `false` between calls.
    in_cone: Vec<bool>,
    /// The X-path ends of an aimed call by position (all `false`
    /// between calls), and the position no path may cross.
    aim_ends: Vec<bool>,
    aim_blocked: usize,
    /// X-path search: the visit stamp of each position, the stamp of the
    /// current search, and its stack.
    seen: Vec<u32>,
    stamp: u32,
    path: Vec<u32>,
    /// Decision stack.
    stack: Vec<Decision>,
    /// Statistics of the last call.
    last_backtracks: u64,
    last_decisions: u64,
    last_implications: u64,
}

/// Where the faulty machine deviates, in positions.
#[derive(Copy, Clone, Debug)]
struct Injection {
    /// Node whose output is stuck (`NONE` for a branch fault).
    stem: usize,
    /// Gate and pin whose input is stuck (`NONE` for a stem fault).
    gate: usize,
    pin: usize,
    stuck: bool,
    /// The line whose good value excites the fault.
    excite: usize,
}

/// One decision-stack entry.
#[derive(Copy, Clone, Debug)]
struct Decision {
    /// Primary-input index.
    input: u32,
    /// Whether the other value was already tried.
    flipped: bool,
    /// Trail length before the assignment.
    mark: u32,
}

impl Podem {
    /// Build a generator for `circuit` with default configuration.
    ///
    /// # Errors
    ///
    /// [`NetlistError::Cycle`] for cyclic circuits.
    pub fn new(circuit: &Circuit) -> Result<Podem, NetlistError> {
        Podem::with_config(circuit, PodemConfig::default())
    }

    /// Build with an explicit configuration.
    ///
    /// # Errors
    ///
    /// [`NetlistError::Cycle`] for cyclic circuits.
    pub fn with_config(circuit: &Circuit, config: PodemConfig) -> Result<Podem, NetlistError> {
        let topo = Topology::of(circuit)?;
        let scoap = ScoapAnalysis::new(circuit)?;
        let n = circuit.node_count();
        let order = topo.order();
        let mut pos_of = vec![0u32; n];
        for (pos, &id) in order.iter().enumerate() {
            pos_of[id.index()] = pos as u32;
        }
        let mut fanin_start = Vec::with_capacity(n + 1);
        let mut fanins = Vec::new();
        let mut fanout_count = vec![0u32; n];
        fanin_start.push(0);
        for &id in order {
            for &f in circuit.fanins(id) {
                let p = pos_of[f.index()];
                fanins.push(p);
                fanout_count[p as usize] += 1;
            }
            fanin_start.push(fanins.len() as u32);
        }
        let mut fanout_start = Vec::with_capacity(n + 1);
        fanout_start.push(0u32);
        for &c in &fanout_count {
            fanout_start.push(fanout_start[fanout_start.len() - 1] + c);
        }
        let mut fill: Vec<u32> = fanout_start[..n].to_vec();
        let mut fanouts = vec![0u32; fanins.len()];
        for pos in 0..n {
            for &f in &fanins[fanin_start[pos] as usize..fanin_start[pos + 1] as usize] {
                fanouts[fill[f as usize] as usize] = pos as u32;
                fill[f as usize] += 1;
            }
        }
        let mut is_output = vec![false; n];
        for &o in circuit.outputs() {
            is_output[pos_of[o.index()] as usize] = true;
        }
        let input_pos: Vec<u32> = circuit.inputs().iter().map(|i| pos_of[i.index()]).collect();
        let mut input_of = vec![u32::MAX; n];
        for (k, &p) in input_pos.iter().enumerate() {
            input_of[p as usize] = k as u32;
        }
        Ok(Podem {
            config,
            kinds: order.iter().map(|&id| circuit.kind(id)).collect(),
            node_of: order.iter().map(|id| id.index() as u32).collect(),
            pos_of,
            fanin_start,
            fanins,
            fanout_start,
            fanouts,
            is_output,
            cc0: order.iter().map(|&id| scoap.cc0(id)).collect(),
            cc1: order.iter().map(|&id| scoap.cc1(id)).collect(),
            co: order.iter().map(|&id| scoap.co(id)).collect(),
            input_pos,
            input_of,
            fault: Injection {
                stem: NONE,
                gate: NONE,
                pin: NONE,
                stuck: false,
                excite: NONE,
            },
            vals: vec![Pair::X; n],
            trail: Vec::with_capacity(2 * n),
            dirty: vec![0; n.div_ceil(64)],
            dirty_hi: 0,
            cone: Vec::new(),
            cone_outputs: Vec::new(),
            in_cone: vec![false; n],
            aim_ends: vec![false; n],
            aim_blocked: NONE,
            seen: vec![0; n],
            stamp: 0,
            path: Vec::new(),
            stack: Vec::new(),
            last_backtracks: 0,
            last_decisions: 0,
            last_implications: 0,
        })
    }

    /// Backtracks consumed by the most recent search
    /// ([`generate`](Podem::generate) or
    /// [`generate_aimed`](Podem::generate_aimed)).
    pub fn last_backtracks(&self) -> u64 {
        self.last_backtracks
    }

    /// Primary-input assignments made by the most recent search, flips
    /// included.
    pub fn last_decisions(&self) -> u64 {
        self.last_decisions
    }

    /// Gate evaluations by the implication kernel in the most recent
    /// search (its initial sweep included).
    pub fn last_implications(&self) -> u64 {
        self.last_implications
    }

    /// Generate a test for `fault`.
    ///
    /// # Errors
    ///
    /// Infallible after construction today; the `Result` keeps room for
    /// richer fault models.
    pub fn generate(&mut self, fault: Fault) -> Result<PodemResult, NetlistError> {
        Ok(self.search(fault, false))
    }

    /// Generate a test for `fault` with the X-path check aimed at `aim`:
    /// a path from the fault's origin must end at one of `aim.outputs`
    /// and avoid `aim.blocked`. The caller vouches that every test of
    /// `fault` has such a path (as [`Aim::after_point`] does for a fault
    /// that was redundant before a test point). Then the check prunes
    /// only subtrees without a test: the result is that of
    /// [`generate`](Podem::generate), with no more backtracks, except that
    /// a search `generate` aborts may end in a verdict. `aim` names nodes
    /// of the circuit this generator was built for.
    ///
    /// # Errors
    ///
    /// As [`generate`](Podem::generate).
    pub fn generate_aimed(&mut self, fault: Fault, aim: &Aim) -> Result<PodemResult, NetlistError> {
        for &o in &aim.outputs {
            self.aim_ends[self.pos_of[o.index()] as usize] = true;
        }
        self.aim_blocked = aim
            .blocked
            .map_or(NONE, |b| self.pos_of[b.index()] as usize);
        let result = self.search(fault, true);
        for &o in &aim.outputs {
            self.aim_ends[self.pos_of[o.index()] as usize] = false;
        }
        Ok(result)
    }

    /// The PODEM search for `fault`, its X-path check aimed if `aimed`.
    fn search(&mut self, fault: Fault, aimed: bool) -> PodemResult {
        self.start(fault);
        let mut assignment: Vec<Ternary> = vec![Ternary::X; self.input_pos.len()];
        let mut backtracks = 0u64;
        let mut decisions = 0u64;

        let result = 'search: loop {
            if self.detected() {
                break PodemResult::Test(TestCube::new(assignment));
            }
            let decision = if self.x_path(aimed) {
                self.objective()
                    .and_then(|(pos, value)| self.backtrace(pos, value))
            } else {
                None
            };
            match decision {
                Some((input, value)) => {
                    self.stack.push(Decision {
                        input: input as u32,
                        flipped: false,
                        mark: self.trail.len() as u32,
                    });
                    assignment[input] = Ternary::from_bool(value);
                    decisions += 1;
                    self.assign(input, value);
                }
                None => {
                    // Conflict: flip the most recent untried decision.
                    loop {
                        let Some(top) = self.stack.pop() else {
                            break 'search PodemResult::Untestable;
                        };
                        let input = top.input as usize;
                        if top.flipped {
                            assignment[input] = Ternary::X;
                            self.undo(top.mark as usize);
                            continue;
                        }
                        backtracks += 1;
                        if backtracks > self.config.max_backtracks {
                            break 'search PodemResult::Aborted;
                        }
                        self.undo(top.mark as usize);
                        assignment[input] = assignment[input].not();
                        self.stack.push(Decision {
                            flipped: true,
                            ..top
                        });
                        decisions += 1;
                        self.assign(input, assignment[input] == Ternary::One);
                        break;
                    }
                }
            }
        };
        self.last_backtracks = backtracks;
        self.last_decisions = decisions;
        result
    }

    /// Set up a call: translate `fault` to positions, sweep the whole
    /// circuit once for the all-X assignment with the fault injected,
    /// and collect the fault's fanout cone.
    fn start(&mut self, fault: Fault) {
        let root = match fault.site {
            FaultSite::Stem(n) => {
                let pos = self.pos_of[n.index()] as usize;
                self.fault = Injection {
                    stem: pos,
                    gate: NONE,
                    pin: NONE,
                    stuck: fault.stuck,
                    excite: pos,
                };
                pos
            }
            FaultSite::Branch { gate, pin } => {
                let pos = self.pos_of[gate.index()] as usize;
                let driver = self.pins(pos)[pin as usize] as usize;
                self.fault = Injection {
                    stem: NONE,
                    gate: pos,
                    pin: pin as usize,
                    stuck: fault.stuck,
                    excite: driver,
                };
                pos
            }
        };
        self.trail.clear();
        self.stack.clear();
        for pos in 0..self.kinds.len() {
            self.vals[pos] = self.eval(pos);
        }
        self.last_implications = self.kinds.len() as u64;

        self.cone.clear();
        self.cone_outputs.clear();
        self.cone.push(root as u32);
        self.in_cone[root] = true;
        let mut next = 0;
        while let Some(&pos) = self.cone.get(next) {
            next += 1;
            let pos = pos as usize;
            for &fo in
                &self.fanouts[self.fanout_start[pos] as usize..self.fanout_start[pos + 1] as usize]
            {
                if !self.in_cone[fo as usize] {
                    self.in_cone[fo as usize] = true;
                    self.cone.push(fo);
                }
            }
        }
        for &pos in &self.cone {
            self.in_cone[pos as usize] = false;
            if self.is_output[pos as usize] {
                self.cone_outputs.push(pos);
            }
        }
        let node_of = &self.node_of;
        self.cone.sort_unstable_by_key(|&pos| node_of[pos as usize]);
    }

    /// The pin positions of the gate at `pos`.
    fn pins(&self, pos: usize) -> &[u32] {
        &self.fanins[self.fanin_start[pos] as usize..self.fanin_start[pos + 1] as usize]
    }

    /// Both machines' value of `pos` from its pins' current values, with
    /// the fault injected.
    fn eval(&self, pos: usize) -> Pair {
        let f = self.fault;
        let kind = self.kinds[pos];
        let pins = self.pins(pos).iter().map(|&p| self.vals[p as usize]);
        let out = if pos == f.gate {
            eval_pair(
                kind,
                pins.enumerate()
                    .map(|(pin, v)| if pin == f.pin { v.stuck(f.stuck) } else { v }),
            )
        } else {
            eval_pair(kind, pins)
        };
        if pos == f.stem {
            out.stuck(f.stuck)
        } else {
            out
        }
    }

    /// Overwrite `pos` with `v` (trailing the old value) and mark its
    /// consumers dirty if the value changed.
    fn set(&mut self, pos: usize, v: Pair) {
        let old = self.vals[pos];
        if v == old {
            return;
        }
        self.trail.push((pos as u32, old));
        debug_assert!(self.trail.len() <= 2 * self.kinds.len());
        self.vals[pos] = v;
        for &fo in
            &self.fanouts[self.fanout_start[pos] as usize..self.fanout_start[pos + 1] as usize]
        {
            let word = fo as usize / 64;
            self.dirty[word] |= 1 << (fo % 64);
            self.dirty_hi = self.dirty_hi.max(word);
        }
    }

    /// Assign primary input `input` and propagate the change forward.
    ///
    /// Consumers sit at higher positions than their pins, so one upward
    /// scan of the dirty bitset evaluates every affected gate once,
    /// after all of its pins.
    fn assign(&mut self, input: usize, value: bool) {
        let pos = self.input_pos[input] as usize;
        let mut v = Pair::both(Ternary::from_bool(value));
        if pos == self.fault.stem {
            v = v.stuck(self.fault.stuck);
        }
        self.set(pos, v);
        let mut word = pos / 64;
        while word <= self.dirty_hi {
            let bits = self.dirty[word];
            if bits == 0 {
                word += 1;
                continue;
            }
            self.dirty[word] = bits & (bits - 1);
            let gate = word * 64 + bits.trailing_zeros() as usize;
            self.last_implications += 1;
            let v = self.eval(gate);
            self.set(gate, v);
        }
        self.dirty_hi = 0;
    }

    /// Restore every value overwritten since the trail was `mark` long.
    fn undo(&mut self, mark: usize) {
        for (pos, old) in self.trail.drain(mark..).rev() {
            self.vals[pos as usize] = old;
        }
    }

    /// Whether some primary output shows a `D` or `D̄`. Outside the
    /// fault's cone both machines agree, so only cone outputs are read.
    fn detected(&self) -> bool {
        self.cone_outputs
            .iter()
            .any(|&pos| self.vals[pos as usize].is_d())
    }

    /// Whether some path from the fault's origin (the stem, or the
    /// branch's gate) to a primary output runs only through lines that
    /// are not settled, i.e. carry a `D`/`D̄` or are X in at least one
    /// machine. A settled line stays settled under every extension of
    /// the assignment, and a detecting extension has a path of lines
    /// whose machines differ, so without such a path nothing below the
    /// current decision detects the fault. If `aimed`, the path must end
    /// at an aim output and avoid the blocked position instead.
    fn x_path(&mut self, aimed: bool) -> bool {
        let (ends, blocked) = if aimed {
            (&self.aim_ends, self.aim_blocked)
        } else {
            (&self.is_output, NONE)
        };
        let root = if self.fault.stem == NONE {
            self.fault.gate
        } else {
            self.fault.stem
        };
        if self.vals[root].is_settled() || root == blocked {
            return false;
        }
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            self.seen.fill(0);
            self.stamp = 1;
        }
        self.seen[root] = self.stamp;
        self.path.clear();
        self.path.push(root as u32);
        while let Some(pos) = self.path.pop() {
            let pos = pos as usize;
            if ends[pos] {
                return true;
            }
            for &fo in
                &self.fanouts[self.fanout_start[pos] as usize..self.fanout_start[pos + 1] as usize]
            {
                let fo = fo as usize;
                if self.seen[fo] != self.stamp && fo != blocked && !self.vals[fo].is_settled() {
                    self.seen[fo] = self.stamp;
                    self.path.push(fo as u32);
                }
            }
        }
        false
    }

    /// The next objective `(position, good-machine target value)`, or
    /// `None` on a conflict requiring backtracking.
    fn objective(&self) -> Option<(usize, bool)> {
        let f = self.fault;
        let want = !f.stuck;
        match self.vals[f.excite].good().to_bool() {
            None => return Some((f.excite, want)),
            Some(v) if v != want => return None, // fault can no longer be excited
            Some(_) => {}
        }
        // Excited: advance the D-frontier gate with the best (lowest)
        // observability, the first such gate by node id. Only a gate in
        // the fault's cone can read a D; a branch fault injects its stuck
        // value at one specific pin — that pin carries a D even though
        // the driving stem does not.
        let mut best: Option<(usize, u32)> = None;
        for &pos in &self.cone {
            let pos = pos as usize;
            if self.kinds[pos].is_source() || !self.vals[pos].has_x() {
                continue;
            }
            let (mut has_d, mut has_x) = (false, false);
            for (pin, &p) in self.pins(pos).iter().enumerate() {
                let mut v = self.vals[p as usize];
                if pos == f.gate && pin == f.pin {
                    v = v.stuck(f.stuck);
                }
                has_d |= v.is_d();
                has_x |= v.good_is_x();
            }
            if has_d && has_x {
                let co = self.co[pos];
                if best.is_none_or(|(_, c)| co < c) {
                    best = Some((pos, co));
                }
            }
        }
        let (gate, _) = best?;
        // Side objective: an X input to its non-controlling value (any
        // value propagates through XOR; pick 0).
        let side_value = self.kinds[gate].controlling_value() == Some(false);
        let side = self
            .pins(gate)
            .iter()
            .find(|&&p| self.vals[p as usize].good_is_x())
            .expect("frontier gates have an X input");
        Some((*side as usize, side_value))
    }

    /// Walk an objective back to an unassigned primary input, steering by
    /// SCOAP controllabilities. Returns `(input index, value)`.
    fn backtrace(&self, mut pos: usize, mut value: bool) -> Option<(usize, bool)> {
        loop {
            let kind = self.kinds[pos];
            match kind {
                GateKind::Input => return Some((self.input_of[pos] as usize, value)),
                GateKind::Const0 | GateKind::Const1 => return None, // cannot set a constant
                _ => {}
            }
            let pre_inversion = value ^ kind.inverts_output();
            let pins = self.pins(pos);
            let x_pins = || {
                pins.iter()
                    .map(|&p| p as usize)
                    .filter(|&p| self.vals[p].good_is_x())
            };
            // No X input: the objective is unreachable under current values.
            let first = x_pins().next()?;
            (pos, value) = match kind {
                GateKind::Buf | GateKind::Not => (first, pre_inversion),
                GateKind::And | GateKind::Nand | GateKind::Or | GateKind::Nor => {
                    let controlling = kind
                        .controlling_value()
                        .expect("AND/OR-like gates have one");
                    if pre_inversion == controlling {
                        // One controlling input suffices: pick the easiest
                        // (`min_by_key` keeps the first of equals).
                        let pick = x_pins().min_by_key(|&p| self.cc(p, controlling));
                        (pick.expect("an X input exists"), controlling)
                    } else {
                        // All inputs must be non-controlling: attack the
                        // hardest X input first (fail fast; `max_by_key`
                        // keeps the last of equals).
                        let pick = x_pins().max_by_key(|&p| self.cc(p, !controlling));
                        (pick.expect("an X input exists"), !controlling)
                    }
                }
                GateKind::Xor | GateKind::Xnor => {
                    // If only one X input remains the parity determines its
                    // value; otherwise any choice works.
                    if x_pins().count() == 1 {
                        let others = pins
                            .iter()
                            .filter(|&&p| p as usize != first)
                            .fold(false, |acc, &p| {
                                acc ^ (self.vals[p as usize].good() == Ternary::One)
                            });
                        (first, pre_inversion ^ others)
                    } else {
                        (first, false)
                    }
                }
                _ => unreachable!("sources handled above"),
            };
        }
    }

    fn cc(&self, pos: usize, value: bool) -> u32 {
        if value {
            self.cc1[pos]
        } else {
            self.cc0[pos]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpi_netlist::{CircuitBuilder, NodeId, TestPoint};
    use tpi_sim::montecarlo;

    fn verify_cube(circuit: &Circuit, fault: Fault, cube: &TestCube) {
        // Any completion of the cube must detect the fault; check the
        // all-zeros and all-ones fills.
        for fill in [false, true] {
            let pattern = cube.filled_with(|| fill);
            let good = circuit.evaluate(&pattern).unwrap();
            // Faulty evaluation via the exhaustive reference in tpi-sim is
            // private; re-evaluate manually.
            let topo = Topology::of(circuit).unwrap();
            let mut vals = vec![false; circuit.node_count()];
            for (&i, &v) in circuit.inputs().iter().zip(&pattern) {
                vals[i.index()] = v;
            }
            for &id in topo.order() {
                let node = circuit.node(id);
                if !node.kind().is_source() {
                    let fanins: Vec<bool> = node
                        .fanins()
                        .iter()
                        .enumerate()
                        .map(|(pin, f)| {
                            if let FaultSite::Branch { gate, pin: fp } = fault.site {
                                if gate == id && fp as usize == pin {
                                    return fault.stuck;
                                }
                            }
                            vals[f.index()]
                        })
                        .collect();
                    vals[id.index()] = node.kind().eval(fanins.iter().copied());
                }
                if fault.site == FaultSite::Stem(id) {
                    vals[id.index()] = fault.stuck;
                }
            }
            let detected = circuit
                .outputs()
                .iter()
                .any(|o| vals[o.index()] != good[o.index()]);
            assert!(
                detected,
                "cube {} (fill {fill}) fails to detect {}",
                cube.to_pattern_string(),
                fault.describe(circuit)
            );
        }
    }

    /// Every gate kind at arities 1–4, every (good, faulty) pair on
    /// every pin, with no fault, a branch fault on each pin and a stem
    /// fault: the packed evaluation must equal three-valued evaluation of
    /// each machine on its own.
    #[test]
    fn packed_kernel_matches_ternary_evaluation_per_machine() {
        use crate::value::eval_ternary;
        let values = [Ternary::Zero, Ternary::One, Ternary::X];
        let kinds = [
            GateKind::Buf,
            GateKind::Not,
            GateKind::And,
            GateKind::Nand,
            GateKind::Or,
            GateKind::Nor,
            GateKind::Xor,
            GateKind::Xnor,
        ];
        for kind in kinds {
            let max_arity = if matches!(kind, GateKind::Buf | GateKind::Not) {
                1
            } else {
                4
            };
            for arity in 1..=max_arity {
                let mut b = CircuitBuilder::new("gate");
                let xs = b.inputs(arity, "x");
                let g = b.gate(kind, xs, "g").unwrap();
                b.output(g);
                let c = b.finish().unwrap();
                let mut podem = Podem::new(&c).unwrap();
                let gate = podem.pos_of[g.index()] as usize;
                // (stem?, pin, stuck); pin NONE = no branch fault.
                let mut injections = vec![(false, NONE, false)];
                for stuck in [false, true] {
                    injections.push((true, NONE, stuck));
                    injections.extend((0..arity).map(|pin| (false, pin, stuck)));
                }
                for code in 0..9usize.pow(arity as u32) {
                    let pins: Vec<(Ternary, Ternary)> = (0..arity)
                        .map(|i| {
                            let digit = code / 9usize.pow(i as u32) % 9;
                            (values[digit % 3], values[digit / 3])
                        })
                        .collect();
                    for (i, &(good, faulty)) in pins.iter().enumerate() {
                        podem.vals[podem.input_pos[i] as usize] = Pair::new(good, faulty);
                    }
                    let good = eval_ternary(kind, pins.iter().map(|p| p.0));
                    for &(stem, pin, stuck) in &injections {
                        podem.fault = Injection {
                            stem: if stem { gate } else { NONE },
                            gate: if pin == NONE { NONE } else { gate },
                            pin,
                            stuck,
                            excite: NONE,
                        };
                        let faulty = if stem {
                            Ternary::from_bool(stuck)
                        } else {
                            eval_ternary(
                                kind,
                                pins.iter().enumerate().map(|(p, v)| {
                                    if p == pin {
                                        Ternary::from_bool(stuck)
                                    } else {
                                        v.1
                                    }
                                }),
                            )
                        };
                        let got = podem.eval(gate);
                        assert_eq!(
                            (got.good(), got.faulty()),
                            (good, faulty),
                            "{kind} pins {pins:?} stem {stem} pin {pin} stuck {stuck}"
                        );
                    }
                }
            }
        }
    }

    /// The full three-valued sweep of both machines over the original
    /// netlist that event-driven implication replaces: `(good, faulty)`
    /// by node index.
    fn full_sweep(
        circuit: &Circuit,
        assignment: &[Ternary],
        fault: Fault,
    ) -> Vec<(Ternary, Ternary)> {
        use crate::value::eval_ternary;
        let n = circuit.node_count();
        let mut good = vec![Ternary::X; n];
        let mut faulty = vec![Ternary::X; n];
        for (&input, &v) in circuit.inputs().iter().zip(assignment) {
            good[input.index()] = v;
            faulty[input.index()] = v;
        }
        for &id in Topology::of(circuit).unwrap().order() {
            let node = circuit.node(id);
            if node.kind() != GateKind::Input {
                good[id.index()] =
                    eval_ternary(node.kind(), node.fanins().iter().map(|f| good[f.index()]));
                faulty[id.index()] = eval_ternary(
                    node.kind(),
                    node.fanins()
                        .iter()
                        .enumerate()
                        .map(|(pin, f)| match fault.site {
                            FaultSite::Branch { gate, pin: p }
                                if gate == id && p as usize == pin =>
                            {
                                Ternary::from_bool(fault.stuck)
                            }
                            _ => faulty[f.index()],
                        }),
                );
            }
            if fault.site == FaultSite::Stem(id) {
                faulty[id.index()] = Ternary::from_bool(fault.stuck);
            }
        }
        good.into_iter().zip(faulty).collect()
    }

    /// Seeded assign / flip / undo sequences (undoing one decision or
    /// jumping back several at once): after every step the
    /// incremental values must equal a from-scratch sweep of the current
    /// assignment, no position may be left dirty, and the trail must stay
    /// within 2 × nodes.
    #[test]
    fn incremental_implication_matches_a_full_sweep_under_assign_and_undo() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use tpi_gen::dags::{random_dag, RandomDagConfig};
        use tpi_netlist::transform::apply_plan;
        use tpi_netlist::{TestPoint, TestPointKind};
        for seed in 0..10u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let dag = random_dag(&RandomDagConfig::new(
                6 + seed as usize % 5,
                30 + 8 * seed as usize,
                seed,
            ))
            .unwrap();
            // A control and a full point append nodes, so node ids stop
            // being topological.
            let topo = Topology::of(&dag).unwrap();
            let driving: Vec<NodeId> = dag
                .node_ids()
                .filter(|&id| topo.fanout_count(id) > 0)
                .collect();
            let plan = [
                TestPoint::new(driving[driving.len() / 3], TestPointKind::ControlOr),
                TestPoint::new(driving[2 * driving.len() / 3], TestPointKind::Full),
            ];
            let c = apply_plan(&dag, &plan).unwrap().0;
            let universe = tpi_sim::FaultUniverse::full(&c).unwrap();
            let pick = |rng: &mut StdRng, f: &dyn Fn(&Fault) -> bool| {
                let matching: Vec<Fault> =
                    universe.faults().iter().copied().filter(|x| f(x)).collect();
                matching[rng.gen_range(0..matching.len())]
            };
            let mut faults = Vec::new();
            for _ in 0..3 {
                faults.push(pick(
                    &mut rng,
                    &|f| matches!(f.site, FaultSite::Stem(n) if c.kind(n) == GateKind::Input),
                ));
                faults.push(pick(
                    &mut rng,
                    &|f| matches!(f.site, FaultSite::Stem(n) if c.kind(n) != GateKind::Input),
                ));
                faults.push(pick(&mut rng, &|f| {
                    matches!(f.site, FaultSite::Branch { .. })
                }));
            }
            let mut podem = Podem::new(&c).unwrap();
            let n = c.node_count();
            for fault in faults {
                podem.start(fault);
                let mut assignment = vec![Ternary::X; c.inputs().len()];
                let mut stack: Vec<(usize, usize)> = Vec::new();
                // Step 0 checks the initial sweep; each later step first
                // assigns a free input, jumps back, or undoes the last
                // decision and maybe flips it.
                for step in 0..=80 {
                    if step > 0 {
                        let free: Vec<usize> = (0..assignment.len())
                            .filter(|&i| assignment[i] == Ternary::X)
                            .collect();
                        if !free.is_empty() && (stack.is_empty() || rng.gen_range(0..10u32) < 6) {
                            let input = free[rng.gen_range(0..free.len())];
                            let value: bool = rng.gen();
                            stack.push((input, podem.trail.len()));
                            assignment[input] = Ternary::from_bool(value);
                            podem.assign(input, value);
                        } else if rng.gen_range(0..10u32) < 2 {
                            let keep = rng.gen_range(0..stack.len());
                            for &(input, _) in &stack[keep..] {
                                assignment[input] = Ternary::X;
                            }
                            podem.undo(stack[keep].1);
                            stack.truncate(keep);
                        } else if let Some((input, mark)) = stack.pop() {
                            podem.undo(mark);
                            if rng.gen_range(0..10u32) < 5 {
                                assignment[input] = assignment[input].not();
                                stack.push((input, mark));
                                podem.assign(input, assignment[input] == Ternary::One);
                            } else {
                                assignment[input] = Ternary::X;
                            }
                        }
                    }
                    assert!(podem.trail.len() <= 2 * n, "trail overflow");
                    assert!(podem.dirty.iter().all(|&w| w == 0), "dirty left behind");
                    let reference = full_sweep(&c, &assignment, fault);
                    for id in c.node_ids() {
                        let v = podem.vals[podem.pos_of[id.index()] as usize];
                        assert_eq!(
                            (v.good(), v.faulty()),
                            reference[id.index()],
                            "seed {seed} {} step {step} at {}",
                            fault.describe(&c),
                            c.node_name(id)
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn generates_tests_for_every_c17_fault() {
        let c = tpi_bench_c17();
        let universe = tpi_sim::FaultUniverse::full(&c).unwrap();
        let mut podem = Podem::new(&c).unwrap();
        for &fault in universe.faults() {
            match podem.generate(fault).unwrap() {
                PodemResult::Test(cube) => verify_cube(&c, fault, &cube),
                other => panic!("{}: {other:?}", fault.describe(&c)),
            }
        }
    }

    fn tpi_bench_c17() -> Circuit {
        tpi_netlist::bench_format::parse_bench(
            "INPUT(1)\nINPUT(2)\nINPUT(3)\nINPUT(6)\nINPUT(7)\n\
             OUTPUT(22)\nOUTPUT(23)\n\
             10 = NAND(1, 3)\n11 = NAND(3, 6)\n16 = NAND(2, 11)\n\
             19 = NAND(11, 7)\n22 = NAND(10, 16)\n23 = NAND(16, 19)\n",
        )
        .unwrap()
    }

    #[test]
    fn proves_redundancy() {
        // y = OR(x, NOT(x)) ≡ 1: y/SA1 is untestable.
        let mut b = CircuitBuilder::new("c");
        let x = b.input("x");
        let nx = b.gate(GateKind::Not, vec![x], "nx").unwrap();
        let y = b.gate(GateKind::Or, vec![x, nx], "y").unwrap();
        b.output(y);
        let c = b.finish().unwrap();
        let mut podem = Podem::new(&c).unwrap();
        assert_eq!(
            podem.generate(Fault::stem_sa1(y)).unwrap(),
            PodemResult::Untestable
        );
        // …while y/SA0 is trivially testable.
        assert!(matches!(
            podem.generate(Fault::stem_sa0(y)).unwrap(),
            PodemResult::Test(_)
        ));
    }

    #[test]
    fn agrees_with_exhaustive_detectability_on_random_dags() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        // Hand-rolled random DAGs (tpi-gen is a dev-dependency cycle risk
        // here is none, but keep the module self-contained).
        for seed in 0..8u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut b = CircuitBuilder::new("dag");
            let mut nodes: Vec<NodeId> = (0..4).map(|i| b.input(format!("x{i}"))).collect();
            for gi in 0..12 {
                let kinds = [
                    GateKind::And,
                    GateKind::Or,
                    GateKind::Nand,
                    GateKind::Nor,
                    GateKind::Xor,
                    GateKind::Not,
                ];
                let kind = kinds[rng.gen_range(0..kinds.len())];
                let arity = if matches!(kind, GateKind::Not) { 1 } else { 2 };
                let fanins: Vec<NodeId> = (0..arity)
                    .map(|_| nodes[rng.gen_range(0..nodes.len())])
                    .collect();
                let g = b.gate(kind, fanins, format!("g{gi}")).unwrap();
                nodes.push(g);
            }
            b.output(*nodes.last().unwrap());
            let c = b.finish().unwrap();
            let universe = tpi_sim::FaultUniverse::full(&c).unwrap();
            let probs = montecarlo::exact_detection_probabilities(&c, universe.faults()).unwrap();
            let mut podem = Podem::new(&c).unwrap();
            for (i, &fault) in universe.faults().iter().enumerate() {
                let result = podem.generate(fault).unwrap();
                match result {
                    PodemResult::Test(cube) => {
                        assert!(
                            probs[i] > 0.0,
                            "PODEM found a test for undetectable {} (seed {seed})",
                            fault.describe(&c)
                        );
                        verify_cube(&c, fault, &cube);
                    }
                    PodemResult::Untestable => {
                        assert_eq!(
                            probs[i],
                            0.0,
                            "PODEM called detectable fault {} redundant (seed {seed})",
                            fault.describe(&c)
                        );
                    }
                    PodemResult::Aborted => panic!("abort on tiny circuit (seed {seed})"),
                }
            }
        }
    }

    #[test]
    fn respects_backtrack_limit() {
        // y = AND(p, NOT(p)) ≡ 0 behind a wide XOR cone: y/SA0 needs
        // good(y) = 1, which is impossible — proving it exhausts the
        // space, so a tiny limit must abort rather than hang.
        let mut b = CircuitBuilder::new("c");
        let xs = b.inputs(10, "x");
        let p = b.balanced_tree(GateKind::Xor, &xs, "p").unwrap();
        let np = b.gate(GateKind::Not, vec![p], "np").unwrap();
        let y = b.gate(GateKind::And, vec![p, np], "y").unwrap();
        b.output(y);
        let c = b.finish().unwrap();
        let mut podem = Podem::with_config(&c, PodemConfig { max_backtracks: 3 }).unwrap();
        let r = podem.generate(Fault::stem_sa0(y)).unwrap();
        assert_eq!(r, PodemResult::Aborted);
        assert!(podem.last_backtracks() >= 3);
        // With the default budget the same fault is *proven* redundant.
        let mut full = Podem::new(&c).unwrap();
        assert_eq!(
            full.generate(Fault::stem_sa0(y)).unwrap(),
            PodemResult::Untestable
        );
        // The constant-0 line's SA1 is conversely detected by any pattern.
        assert!(matches!(
            full.generate(Fault::stem_sa1(y)).unwrap(),
            PodemResult::Test(_)
        ));
    }

    #[test]
    fn x_path_check_cuts_a_blocked_search_short() {
        // s feeds pin 0 of g = AND(s, p) and the output o = AND(g, s), p
        // is a 10-input XOR tree. Exciting g.s/SA1 sets s = 0, which
        // holds o at 0 in both machines while g (0 good, X faulty) keeps
        // the D-frontier non-empty. Without the X-path check the search
        // enumerates the XOR tree's inputs (about a thousand backtracks)
        // before the stack runs out; with it, the blocked output ends the
        // branch at once.
        let mut b = CircuitBuilder::new("blocked");
        let s = b.input("s");
        let xs = b.inputs(10, "x");
        let p = b.balanced_tree(GateKind::Xor, &xs, "p").unwrap();
        let g = b.gate(GateKind::And, vec![s, p], "g").unwrap();
        let o = b.gate(GateKind::And, vec![g, s], "o").unwrap();
        b.output(o);
        let c = b.finish().unwrap();
        let fault = Fault {
            site: FaultSite::Branch { gate: g, pin: 0 },
            stuck: true,
        };
        let mut podem = Podem::with_config(&c, PodemConfig { max_backtracks: 8 }).unwrap();
        assert_eq!(podem.generate(fault).unwrap(), PodemResult::Untestable);
        assert_eq!(podem.last_backtracks(), 1);
        assert_eq!(podem.last_decisions(), 2);
    }

    /// `circuit` with `point` applied, and the aim of a fault that was
    /// redundant before it.
    fn probed(circuit: &Circuit, point: TestPoint) -> (Circuit, Aim) {
        let mut probed = circuit.clone();
        let applied = tpi_netlist::transform::apply_test_point(&mut probed, point).unwrap();
        let aim = Aim::after_point(&probed, &Topology::of(&probed).unwrap(), &applied);
        (probed, aim)
    }

    #[test]
    fn aim_targets_the_outputs_a_point_can_newly_affect() {
        // a, b -> m = AND(a, b) -> z = OR(m, c) -> output; m also feeds
        // the output n = NOT(m).
        let mut b = CircuitBuilder::new("c");
        let [a, bb, c] = [b.input("a"), b.input("b"), b.input("c")];
        let m = b.gate(GateKind::And, vec![a, bb], "m").unwrap();
        let z = b.gate(GateKind::Or, vec![m, c], "z").unwrap();
        let n = b.gate(GateKind::Not, vec![m], "n").unwrap();
        b.output(z);
        b.output(n);
        let circuit = b.finish().unwrap();
        let (_, aim) = probed(&circuit, TestPoint::observe(a));
        assert_eq!(aim.outputs, [a]);
        assert_eq!(aim.blocked, None);
        let (cp, aim) = probed(&circuit, TestPoint::control_or(m));
        let g = NodeId::from_index(circuit.node_count() + 1);
        assert_eq!(cp.fanins(z)[0], g);
        assert_eq!(aim.outputs, [z, n]);
        assert_eq!(aim.blocked, Some(g));
        let (full, aim) = probed(&circuit, TestPoint::full(m));
        let r = NodeId::from_index(circuit.node_count());
        assert_eq!(full.fanins(n), [r]);
        assert_eq!(aim.outputs, [m, z, n]);
        assert_eq!(aim.blocked, None);
    }

    /// A 2^`width`-leaf decision tree: `y = AND(p, NOT(p))` over a
    /// `width`-input XOR tree `p`, so `y` is 0 and `y`/SA0 can be excited
    /// only by an assignment that does not exist — proving it exhausts
    /// every assignment of the tree's inputs.
    fn contradiction(b: &mut CircuitBuilder, width: usize) -> NodeId {
        let xs = b.inputs(width, "x");
        let p = b.balanced_tree(GateKind::Xor, &xs, "p").unwrap();
        let np = b.gate(GateKind::Not, vec![p], "np").unwrap();
        b.gate(GateKind::And, vec![p, np], "y").unwrap()
    }

    #[test]
    fn aimed_reproof_behind_a_control_point_needs_fewer_backtracks() {
        // y is observed directly and also feeds w = AND(y, q), whose only
        // reader is z = OR(w, u). After a CP at w, y reaches z only
        // through the point's gate, so the aimed search ends at once,
        // while the plain search still sees the X-path to output y.
        let mut b = CircuitBuilder::new("cp");
        let y = contradiction(&mut b, 8);
        let [q, u] = [b.input("q"), b.input("u")];
        let w = b.gate(GateKind::And, vec![y, q], "w").unwrap();
        let z = b.gate(GateKind::Or, vec![w, u], "z").unwrap();
        b.output(y);
        b.output(z);
        let circuit = b.finish().unwrap();
        let fault = Fault::stem_sa0(y);
        assert_eq!(
            Podem::new(&circuit).unwrap().generate(fault).unwrap(),
            PodemResult::Untestable
        );
        let (cp, aim) = probed(&circuit, TestPoint::control_and(w));
        assert_eq!(aim.outputs, [z]);
        let mut podem = Podem::new(&cp).unwrap();
        assert_eq!(podem.generate(fault).unwrap(), PodemResult::Untestable);
        let plain = podem.last_backtracks();
        assert_eq!(
            podem.generate_aimed(fault, &aim).unwrap(),
            PodemResult::Untestable
        );
        assert!(plain >= 255, "{plain} backtracks");
        assert_eq!(podem.last_backtracks(), 0);
        assert_eq!(podem.last_decisions(), 0);
    }

    #[test]
    fn aimed_reproof_behind_an_observe_point_needs_fewer_backtracks() {
        // g = AND(s, p) over an XOR tree p, branch fault g.s/SA1: its
        // excitation sets s = 0, which settles o = AND(g, s), the line the
        // observe point taps. The only output, z = AND(g, k), is blocked by
        // k = AND(w, NOT(w)) = 0, but only once w is set, and nothing
        // makes the plain search set w before p is decided; the aimed
        // search gives up as soon as o settles.
        let mut b = CircuitBuilder::new("op");
        let s = b.input("s");
        let xs = b.inputs(8, "x");
        let p = b.balanced_tree(GateKind::Xor, &xs, "p").unwrap();
        let g = b.gate(GateKind::And, vec![s, p], "g").unwrap();
        let o = b.gate(GateKind::And, vec![g, s], "o").unwrap();
        let w = b.input("w");
        let nw = b.gate(GateKind::Not, vec![w], "nw").unwrap();
        let k = b.gate(GateKind::And, vec![w, nw], "k").unwrap();
        let z = b.gate(GateKind::And, vec![g, k], "z").unwrap();
        b.output(z);
        let circuit = b.finish().unwrap();
        let fault = Fault {
            site: FaultSite::Branch { gate: g, pin: 0 },
            stuck: true,
        };
        assert_eq!(
            Podem::new(&circuit).unwrap().generate(fault).unwrap(),
            PodemResult::Untestable
        );
        let (op, aim) = probed(&circuit, TestPoint::observe(o));
        assert_eq!(aim.outputs, [o]);
        let mut podem = Podem::new(&op).unwrap();
        assert_eq!(podem.generate(fault).unwrap(), PodemResult::Untestable);
        let plain = podem.last_backtracks();
        assert_eq!(
            podem.generate_aimed(fault, &aim).unwrap(),
            PodemResult::Untestable
        );
        assert!(plain >= 255, "{plain} backtracks");
        assert_eq!(podem.last_backtracks(), 1);
    }

    #[test]
    fn aimed_search_finds_the_cube_a_point_makes_possible() {
        // m = AND(a, b) reaches the output z = AND(m, k) only, and
        // k = AND(w, NOT(w)) = 0 masks it: a/SA0 and m/SA0 are redundant.
        // An OR-type control point on k and an observe point on m each
        // make them testable.
        let mut b = CircuitBuilder::new("masked");
        let [a, bb, w] = [b.input("a"), b.input("b"), b.input("w")];
        let m = b.gate(GateKind::And, vec![a, bb], "m").unwrap();
        let nw = b.gate(GateKind::Not, vec![w], "nw").unwrap();
        let k = b.gate(GateKind::And, vec![w, nw], "k").unwrap();
        let z = b.gate(GateKind::And, vec![m, k], "z").unwrap();
        b.output(z);
        let circuit = b.finish().unwrap();
        let faults = [Fault::stem_sa0(a), Fault::stem_sa0(m)];
        let mut podem = Podem::new(&circuit).unwrap();
        for fault in faults {
            assert_eq!(podem.generate(fault).unwrap(), PodemResult::Untestable);
        }
        for point in [TestPoint::control_or(k), TestPoint::observe(m)] {
            let (c, aim) = probed(&circuit, point);
            let mut podem = Podem::new(&c).unwrap();
            for fault in faults {
                let plain = podem.generate(fault).unwrap();
                let PodemResult::Test(cube) = &plain else {
                    panic!("{point}: {} stays redundant", fault.describe(&c));
                };
                verify_cube(&c, fault, cube);
                assert_eq!(podem.generate_aimed(fault, &aim).unwrap(), plain);
            }
        }
    }

    #[test]
    fn control_point_on_an_unshared_output_ends_every_reproof_at_once() {
        // y = AND(p, NOT(p)) is an output with no other reader, so every
        // fault of the XOR tree, p, NOT(p) and y/SA0 is redundant. A CP
        // on y moves the output to its gate g, the only aim output and
        // the blocked line at once: no path can reach it.
        let mut b = CircuitBuilder::new("po");
        let y = contradiction(&mut b, 6);
        b.output(y);
        let circuit = b.finish().unwrap();
        let universe = tpi_sim::FaultUniverse::full(&circuit).unwrap();
        let mut podem = Podem::new(&circuit).unwrap();
        let redundant: Vec<Fault> = universe
            .faults()
            .iter()
            .copied()
            .filter(|&f| podem.generate(f).unwrap() == PodemResult::Untestable)
            .collect();
        assert!(redundant.len() >= 20, "{} redundant", redundant.len());
        let (cp, aim) = probed(&circuit, TestPoint::control_and(y));
        assert_eq!(aim.outputs, [aim.blocked.unwrap()]);
        let mut podem = Podem::new(&cp).unwrap();
        let mut plain = 0;
        for &fault in &redundant {
            assert_eq!(podem.generate(fault).unwrap(), PodemResult::Untestable);
            plain += podem.last_backtracks();
            assert_eq!(
                podem.generate_aimed(fault, &aim).unwrap(),
                PodemResult::Untestable
            );
            assert_eq!(podem.last_backtracks(), 0, "{}", fault.describe(&cp));
            assert_eq!(podem.last_decisions(), 0, "{}", fault.describe(&cp));
        }
        assert!(plain >= 63, "{plain} backtracks");
    }

    /// Over seeded random DAGs, with and without test points already
    /// applied, every kind of point at lines spread over the netlist:
    /// each fault PODEM proved redundant before the point gets the same
    /// outcome and cube from the aimed search as from the plain one on
    /// the probed circuit, never with more backtracks.
    #[test]
    fn aimed_search_agrees_with_the_plain_search_on_random_dags() {
        use tpi_gen::dags::{random_dag, RandomDagConfig};
        use tpi_netlist::transform::apply_plan;
        use tpi_netlist::TestPointKind;
        let (mut plain_total, mut aimed_total, mut tests) = (0u64, 0u64, 0usize);
        for seed in 0..12u64 {
            let dag = random_dag(&RandomDagConfig::new(
                6 + seed as usize % 4,
                24 + 6 * seed as usize,
                seed,
            ))
            .unwrap();
            let n = dag.node_count();
            let circuit = if seed % 2 == 0 {
                dag
            } else {
                let plan = [
                    TestPoint::new(NodeId::from_index(n / 2), TestPointKind::ControlOr),
                    TestPoint::new(NodeId::from_index(2 * n / 3), TestPointKind::Observe),
                ];
                apply_plan(&dag, &plan).unwrap().0
            };
            let universe = tpi_sim::FaultUniverse::full(&circuit).unwrap();
            let mut podem = Podem::new(&circuit).unwrap();
            let redundant: Vec<Fault> = universe
                .faults()
                .iter()
                .copied()
                .filter(|&f| podem.generate(f).unwrap() == PodemResult::Untestable)
                .collect();
            let n = circuit.node_count();
            for line in (1..6).map(|k| NodeId::from_index(n * k / 6)) {
                for kind in TestPointKind::ALL {
                    let point = TestPoint::new(line, kind);
                    let mut c = circuit.clone();
                    let Ok(applied) = tpi_netlist::transform::apply_test_point(&mut c, point)
                    else {
                        continue;
                    };
                    let aim = Aim::after_point(&c, &Topology::of(&c).unwrap(), &applied);
                    let mut podem = Podem::new(&c).unwrap();
                    for &fault in &redundant {
                        let what = format!("seed {seed} {point}: {}", fault.describe(&c));
                        let plain = podem.generate(fault).unwrap();
                        let backtracks = podem.last_backtracks();
                        let aimed = podem.generate_aimed(fault, &aim).unwrap();
                        assert_ne!(plain, PodemResult::Aborted, "{what}");
                        assert_eq!(aimed, plain, "{what}");
                        assert!(podem.last_backtracks() <= backtracks, "{what}");
                        if let PodemResult::Test(cube) = &aimed {
                            verify_cube(&c, fault, cube);
                            tests += 1;
                        }
                        plain_total += backtracks;
                        aimed_total += podem.last_backtracks();
                    }
                }
            }
        }
        // Not vacuous: points make some redundant faults testable, and
        // the aim cuts re-proofs' backtracks.
        assert!(tests >= 10, "{tests} tests");
        assert!(aimed_total < plain_total, "{aimed_total} of {plain_total}");
    }

    #[test]
    fn branch_fault_cube() {
        // a fans out to two AND gates; the branch fault needs the specific
        // side input high.
        let mut b = CircuitBuilder::new("c");
        let a = b.input("a");
        let x = b.input("x");
        let y = b.input("y");
        let g1 = b.gate(GateKind::And, vec![a, x], "g1").unwrap();
        let g2 = b.gate(GateKind::And, vec![a, y], "g2").unwrap();
        b.output(g1);
        b.output(g2);
        let c = b.finish().unwrap();
        let fault = Fault {
            site: FaultSite::Branch { gate: g1, pin: 0 },
            stuck: true,
        };
        let mut podem = Podem::new(&c).unwrap();
        match podem.generate(fault).unwrap() {
            PodemResult::Test(cube) => {
                verify_cube(&c, fault, &cube);
                // Must set a=0 and x=1.
                assert_eq!(cube.value_for(&c, a), Some(Ternary::Zero));
                assert_eq!(cube.value_for(&c, x), Some(Ternary::One));
            }
            other => panic!("{other:?}"),
        }
    }
}
