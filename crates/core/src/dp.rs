//! The dynamic program over fanout-free circuits.
//!
//! # State space
//!
//! Processing nodes bottom-up, the subtree below a line is summarised by
//! the pair
//!
//! * `c1` — the line's 1-probability after the subtree's insertions, and
//! * `demand` — the largest observability any not-yet-satisfied targeted
//!   fault in the subtree still requires from above
//!   (`demand = max over pending faults f of δ / (exc(f) · prop(f → line))`;
//!   `0` when nothing is pending).
//!
//! Both quantities are *sufficient*: on a tree the signals entering a gate
//! come from disjoint subtrees, so sibling interactions factor through
//! `c1`, and all pending faults propagate along the same unique upward
//! path, so only the maximum requirement matters. Each node combines its
//! children's state frontiers (a pairwise fold — demands divide by the
//! product of sibling non-controlling probabilities, `c1` composes by the
//! gate's probability algebra), adds its own stem-fault demands, branches
//! on the local decision
//! `{none, OP, CP-AND, CP-OR, CP-AND+OP, CP-OR+OP, TP}`, and Pareto-prunes.
//! A state whose demand exceeds 1 is dead: observability never exceeds 1
//! and demands only grow along the path, so no ancestor can save it.
//!
//! At a primary-output root every surviving state is feasible (the output
//! supplies observability 1); at a dangling root the demand must be fully
//! cleared; region roots accept `demand ≤ ρ` for a caller-supplied
//! boundary observability `ρ` (used by
//! [`general`](crate::general)).
//!
//! # Optimality and discretisation
//!
//! With [`DpConfig::exact`] states are merged only when their `(c1,
//! demand)` pairs are bit-identical, and the DP provably returns a
//! minimum-cost feasible plan over the decision vocabulary (property-
//! tested against [`ExactOptimizer`](crate::ExactOptimizer)). The default
//! configuration buckets `c1` uniformly and `demand` logarithmically,
//! trading a bounded amount of optimality for speed; the returned plan is
//! *always* feasible because every retained state carries exact
//! probabilities — bucketing is only a pruning key.
//!
//! # The frontier loop
//!
//! Most child pairs and local options lose to a cheaper state with the
//! same bucket key, so a candidate starts as a plain record — its
//! probabilities, cost and misses, plus the indices of the states and
//! the decision it came from — offered to a flat bucket table that keeps
//! one slot per live key and is reused from node to node. A plan (an `Arc`
//! join tree) is built only for a candidate that survives. Survivors
//! leave the table in bucket-key order, and within a bucket in insertion
//! order; on a tie in `(cost, misses)` (costs within `1e-15`) the state
//! offered first is kept. These rules decide which of several
//! equal-cost plans the DP returns.
//!
//! # Workers
//!
//! The subtrees entering a gate are disjoint, so they can be solved at
//! the same time. A ready queue holds the nodes whose fanins are all
//! solved, and [`DpConfig::threads`] workers, each with its own bucket
//! tables, repeatedly take the one earliest in [`Topology::order`]. A
//! node's frontier is written once, by the worker that solves it, and
//! taken once, by the worker that solves its parent. It depends only on
//! the fanins' frontiers, which are joined in fanin order, so plans,
//! costs and [`DpStats`] (sums and a maximum) are bit-identical at every
//! worker count. One worker runs on the calling thread and visits the
//! nodes in exactly the topological order. Helper threads start only on
//! trees of at least 256 nodes (`2 · NODES_PER_WORKER`). A failing node
//! stops the nodes after it in the order, and the earliest failure is
//! reported, as one worker would report it.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::{Arc, Condvar, Mutex, PoisonError};

use tpi_netlist::{GateKind, NodeId, TestPoint, TestPointKind, Topology};
use tpi_sim::{RunControl, StopReason};

use crate::{Plan, TpiError, TpiProblem};

const DEMAND_EPS: f64 = 1e-9;

/// Nodes each DP worker needs for its thread to pay off: a tree of `n`
/// nodes gets at most `n / NODES_PER_WORKER` workers, so helpers start at
/// twice this. On a 2-thread Xeon, starting a helper cost about 30 µs,
/// and a second worker already won at 53 nodes of an AND/OR tree at the
/// default resolution (50–150 µs a node) but only between 111 and 230
/// nodes at resolution (2, 1) (about 2 µs a node); see DESIGN §6.1.
const NODES_PER_WORKER: usize = 128;

/// Tuning for [`DpOptimizer`].
#[derive(Clone, Debug)]
pub struct DpConfig {
    /// Buckets for `c1` across `[0, 1]` (pruning key resolution).
    pub c1_resolution: u32,
    /// Demand buckets per factor of 2 (log-scale pruning key resolution).
    pub demand_resolution: u32,
    /// Merge states only on bit-identical `(c1, demand)` — exact mode.
    pub exact: bool,
    /// Hard cap on frontier size per node (runaway protection; optimality
    /// is lost if the cap ever binds, which [`DpStats::truncated`]
    /// reports — it does not bind on the experiment suite).
    pub max_states_per_node: usize,
    /// Allow full (cut) test points in the decision vocabulary
    /// (Table 7 ablation knob).
    pub enable_full: bool,
    /// Allow control points (alone and with a pre-CP observation) in the
    /// decision vocabulary (Table 7 ablation knob). With both this and
    /// [`enable_full`](DpConfig::enable_full) off the DP degenerates to
    /// observation-point-only insertion — the Hayes/Friedman setting.
    pub enable_control: bool,
    /// Workers solving independent subtrees at once (default: every
    /// hardware thread; 0 counts as 1). Small trees use fewer, down to
    /// one on the calling thread. Plans, costs and stats do not depend
    /// on it.
    pub threads: usize,
}

impl Default for DpConfig {
    fn default() -> DpConfig {
        // The Fig. 4 ablation shows solution cost saturating well below
        // these resolutions on the experiment suite.
        DpConfig {
            c1_resolution: 64,
            demand_resolution: 4,
            exact: false,
            max_states_per_node: 4096,
            enable_full: true,
            enable_control: true,
            threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
        }
    }
}

impl DpConfig {
    /// Exact mode: no lossy state merging (use for optimality
    /// certification on *small* circuits — the exact frontier is
    /// worst-case exponential, which is precisely what the bucketing
    /// avoids).
    pub fn exact() -> DpConfig {
        DpConfig {
            c1_resolution: 0,
            demand_resolution: 0,
            exact: true,
            max_states_per_node: 1 << 16,
            ..DpConfig::default()
        }
    }

    /// Bucketed mode with explicit resolutions (the Fig. 4 ablation knob).
    pub fn with_resolution(c1_resolution: u32, demand_resolution: u32) -> DpConfig {
        DpConfig {
            c1_resolution: c1_resolution.max(2),
            demand_resolution: demand_resolution.max(1),
            exact: false,
            ..DpConfig::default()
        }
    }
}

/// Work statistics of one DP run (the Fig. 2 complexity measurements).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct DpStats {
    /// Nodes processed.
    pub nodes: usize,
    /// Largest frontier encountered.
    pub max_frontier: usize,
    /// Total states created (before pruning).
    pub states_created: usize,
    /// Nodes whose fold or frontier [`DpConfig::max_states_per_node`]
    /// cut; optimality is lost when this is not 0.
    pub truncated: usize,
}

/// The dynamic-programming test point inserter (fanout-free circuits).
#[derive(Clone, Debug, Default)]
pub struct DpOptimizer {
    config: DpConfig,
}

/// Shareable plan fragments: an immutable join tree so that combining two
/// frontiers never copies plan vectors (`O(1)` join, flattened once at the
/// end). `Arc`, because a child's frontier may be taken by another worker.
#[derive(Debug)]
enum PlanTree {
    /// A plan, then one more point.
    Push(PlanRef, TestPoint),
    /// The left plan's points, then the right plan's.
    Pair(Arc<PlanTree>, Arc<PlanTree>),
}

type PlanRef = Option<Arc<PlanTree>>;

fn plan_join(a: &PlanRef, b: &PlanRef) -> PlanRef {
    match (a, b) {
        (None, x) | (x, None) => x.clone(),
        (Some(x), Some(y)) => Some(Arc::new(PlanTree::Pair(x.clone(), y.clone()))),
    }
}

fn plan_push(a: &PlanRef, tp: TestPoint) -> PlanRef {
    Some(Arc::new(PlanTree::Push(a.clone(), tp)))
}

fn plan_flatten(plan: &PlanRef) -> Vec<TestPoint> {
    // Emit the points last to first without recursion (plans can be deep
    // chains), then reverse.
    let mut out = Vec::new();
    let mut stack: Vec<&PlanTree> = plan.iter().map(|p| &**p).collect();
    while let Some(t) = stack.pop() {
        match t {
            PlanTree::Push(prefix, tp) => {
                out.push(*tp);
                stack.extend(prefix.as_deref());
            }
            PlanTree::Pair(left, right) => {
                stack.push(left);
                stack.push(right);
            }
        }
    }
    out.reverse();
    out
}

#[derive(Clone, Debug)]
struct State {
    c1: f64,
    /// Required observability from above; `0.0` = nothing pending.
    demand: f64,
    cost: f64,
    /// Targets abandoned in the subtree (always 0 in `MinCost` mode).
    missed: u32,
    plan: PlanRef,
}

/// Accumulator while folding a gate's children.
#[derive(Clone, Debug)]
struct FoldState {
    /// `c1`-combination accumulator (gate-kind specific).
    cacc: f64,
    /// Product of processed children's non-controlling probabilities.
    wprod: f64,
    /// Max transformed pending demand of processed children.
    pending: f64,
    cost: f64,
    /// Targets abandoned in the processed subtrees.
    missed: u32,
    plan: PlanRef,
}

/// Run-wide parameters distinguishing the two optimization forms.
#[derive(Copy, Clone, Debug)]
struct RunMode {
    /// Hard cost ceiling (`∞` for MinCost).
    budget: f64,
    /// Whether targets may be abandoned (MaxCoverage) instead of forcing
    /// infeasibility (MinCost).
    allow_abandon: bool,
}

/// A child-pair candidate while folding a gate's children: the combined
/// accumulators, cost and misses, and the two states it joins (an index
/// into the accumulated frontier and one into the child's frontier).
#[derive(Copy, Clone, Debug)]
struct Pair {
    cacc: f64,
    wprod: f64,
    pending: f64,
    cost: f64,
    missed: u32,
    acc: u32,
    child: u32,
}

/// The local decision behind a node-state candidate.
#[derive(Copy, Clone, Debug)]
enum Decision {
    /// No point on the line.
    Keep,
    /// One point on the line (OP, CP-AND, CP-OR or TP).
    Insert(TestPointKind),
    /// A control point, then an observation of the pre-CP line.
    ControlThenObserve(TestPointKind),
}

impl Decision {
    /// The plan of a surviving candidate: its source plan plus the
    /// decision's points on line `id`.
    fn plan(self, source: &PlanRef, id: NodeId) -> PlanRef {
        match self {
            Decision::Keep => source.clone(),
            Decision::Insert(kind) => plan_push(source, TestPoint::new(id, kind)),
            Decision::ControlThenObserve(kind) => plan_push(
                &plan_push(source, TestPoint::new(id, kind)),
                TestPoint::observe(id),
            ),
        }
    }
}

/// A node-state candidate: the [`State`] it becomes if it survives the
/// prune, less the plan, plus its `c1` bucket key and the combined state
/// (an index into the fold result) and decision it came from.
#[derive(Copy, Clone, Debug)]
struct Choice {
    c1: f64,
    demand: f64,
    cost: f64,
    missed: u32,
    c1_key: u64,
    source: u32,
    decision: Decision,
}

/// `(cost, missed)`, the pair a bucket keeps a Pareto set over.
trait Scored {
    fn score(&self) -> (f64, u32);
}

impl Scored for Pair {
    fn score(&self) -> (f64, u32) {
        (self.cost, self.missed)
    }
}

impl Scored for Choice {
    fn score(&self) -> (f64, u32) {
        (self.cost, self.missed)
    }
}

/// A bucket key: `(cacc, wprod, pending)` keys while folding, `(c1,
/// demand, 0)` keys while pruning. Lexicographic order is bucket order.
type Key = [u64; 3];

/// End of a chain, or an empty index cell.
const NIL: u32 = u32::MAX;

/// One live key: its chain of kept entries, first-kept first.
#[derive(Debug)]
struct Slot {
    key: Key,
    /// Cell of `Buckets::index` pointing here.
    cell: u32,
    head: u32,
}

#[derive(Debug)]
struct Entry<T> {
    item: T,
    next: u32,
}

/// A flat bucket table: keys map through an open-addressed index to
/// slots, and each slot chains its `(cost, missed)` Pareto set through a
/// shared entry arena. An entry the newcomer dominates is unlinked and
/// its storage reused, so the table holds only live keys and entries
/// (in MinCost mode, where `missed` is always 0, a slot holds exactly
/// one entry and a better candidate overwrites it in place). Clearing
/// touches only the live slots, so the storage is kept across nodes.
#[derive(Debug)]
struct Buckets<T> {
    /// Slot number per cell (`NIL` = empty); a power of two, at most half
    /// full.
    index: Vec<u32>,
    /// Live keys in first-offer order.
    slots: Vec<Slot>,
    entries: Vec<Entry<T>>,
    /// Chain of unlinked entries awaiting reuse.
    free: u32,
    /// Scratch for the key-ordered drain.
    order: Vec<u32>,
}

impl<T: Scored + Copy> Buckets<T> {
    fn new() -> Buckets<T> {
        Buckets {
            index: vec![NIL; 64],
            slots: Vec::new(),
            entries: Vec::new(),
            free: NIL,
            order: Vec::new(),
        }
    }

    /// Index cell for `key` in a table of `mask + 1` cells (multiplicative
    /// hashing; the high half of the product mixes every key bit). Keys
    /// are bucket numbers or probability bits the DP derives, not raw
    /// input.
    fn home(key: &Key, mask: usize) -> usize {
        const K: u64 = 0x9E37_79B9_7F4A_7C15;
        let h = ((key[0].wrapping_mul(K) ^ key[1]).wrapping_mul(K) ^ key[2]).wrapping_mul(K);
        (h >> 32) as usize & mask
    }

    /// The slot for `key`, created empty on first sight.
    fn slot(&mut self, key: Key) -> usize {
        let mask = self.index.len() - 1;
        let mut cell = Self::home(&key, mask);
        loop {
            match self.index[cell] {
                NIL => break,
                s if self.slots[s as usize].key == key => return s as usize,
                _ => cell = (cell + 1) & mask,
            }
        }
        let s = self.slots.len();
        self.index[cell] = s as u32;
        self.slots.push(Slot {
            key,
            cell: cell as u32,
            head: NIL,
        });
        if 2 * self.slots.len() > self.index.len() {
            self.grow();
        }
        s
    }

    fn grow(&mut self) {
        let cells = 2 * self.index.len();
        self.index.clear();
        self.index.resize(cells, NIL);
        let mask = cells - 1;
        for (s, slot) in self.slots.iter_mut().enumerate() {
            let mut cell = Self::home(&slot.key, mask);
            while self.index[cell] != NIL {
                cell = (cell + 1) & mask;
            }
            self.index[cell] = s as u32;
            slot.cell = cell as u32;
        }
    }

    /// Offer `item` to bucket `key`. It is dropped when a kept entry
    /// costs no more (within `1e-15`) and misses no more, so on a tie the
    /// first-offered entry stays; otherwise it evicts the entries it
    /// dominates and joins the end of the bucket.
    fn offer(&mut self, key: Key, item: T) {
        let slot = self.slot(key);
        let (cost, missed) = item.score();
        let mut e = self.slots[slot].head;
        while e != NIL {
            let entry = &self.entries[e as usize];
            let (ec, em) = entry.item.score();
            if ec <= cost + 1e-15 && em <= missed {
                return;
            }
            e = entry.next;
        }
        let mut last = NIL;
        let mut e = self.slots[slot].head;
        while e != NIL {
            let next = self.entries[e as usize].next;
            let (ec, em) = self.entries[e as usize].item.score();
            if cost <= ec + 1e-15 && missed <= em {
                match last {
                    NIL => self.slots[slot].head = next,
                    l => self.entries[l as usize].next = next,
                }
                self.entries[e as usize].next = self.free;
                self.free = e;
            } else {
                last = e;
            }
            e = next;
        }
        let entry = Entry { item, next: NIL };
        let new = match self.free {
            NIL => {
                self.entries.push(entry);
                (self.entries.len() - 1) as u32
            }
            f => {
                self.free = self.entries[f as usize].next;
                self.entries[f as usize] = entry;
                f
            }
        };
        match last {
            NIL => self.slots[slot].head = new,
            l => self.entries[l as usize].next = new,
        }
    }

    /// Hand every kept entry to `emit` — buckets in key order, each in
    /// insertion order — and empty the table for the next use.
    fn drain_sorted(&mut self, mut emit: impl FnMut(T)) {
        self.order.clear();
        self.order.extend(0..self.slots.len() as u32);
        let slots = &self.slots;
        self.order.sort_unstable_by_key(|&s| slots[s as usize].key);
        for &s in &self.order {
            let mut e = self.slots[s as usize].head;
            while e != NIL {
                let entry = &self.entries[e as usize];
                emit(entry.item);
                e = entry.next;
            }
        }
        for slot in &self.slots {
            self.index[slot.cell as usize] = NIL;
        }
        self.slots.clear();
        self.entries.clear();
        self.free = NIL;
    }
}

impl DpOptimizer {
    /// Create an optimizer with the given configuration.
    pub fn new(config: DpConfig) -> DpOptimizer {
        DpOptimizer { config }
    }

    /// Solve a `MinCost(δ)` instance on a fanout-free circuit.
    ///
    /// # Errors
    ///
    /// [`TpiError::NotFanoutFree`] when any signal fans out;
    /// [`TpiError::Infeasible`] when some targeted fault cannot reach the
    /// threshold under any insertion (its excitation probability is below
    /// `δ` in every configuration); [`TpiError::Netlist`] on cyclic input.
    pub fn solve(&self, problem: &TpiProblem) -> Result<Plan, TpiError> {
        self.solve_with_stats(problem).map(|(plan, _)| plan)
    }

    /// Like [`solve`](DpOptimizer::solve), also returning work statistics.
    ///
    /// # Errors
    ///
    /// See [`solve`](DpOptimizer::solve).
    pub fn solve_with_stats(&self, problem: &TpiProblem) -> Result<(Plan, DpStats), TpiError> {
        self.solve_region(problem, 1.0)
    }

    /// Solve with an explicit boundary observability `rho` applied at
    /// primary-output roots — the fanout-free-region entry point of the
    /// constructive loop (see [`general`](crate::general)):
    /// the region root's observed continuation into the enclosing circuit
    /// has observability `rho` rather than 1.
    ///
    /// # Errors
    ///
    /// See [`solve`](DpOptimizer::solve); additionally
    /// [`TpiError::InvalidParameter`] if `rho` is outside `[0, 1]`.
    pub fn solve_region(
        &self,
        problem: &TpiProblem,
        rho: f64,
    ) -> Result<(Plan, DpStats), TpiError> {
        self.solve_region_controlled(problem, rho, &RunControl::unlimited())
    }

    /// [`solve_region`](DpOptimizer::solve_region) under a
    /// [`RunControl`] token, polled every 64 DP nodes. The bottom-up DP
    /// holds no meaningful partial plan before the root is reached, so
    /// interruption surfaces as [`TpiError::Interrupted`] — callers with
    /// committed state (the constructive loop, the engine) treat it as
    /// "stop after the previous commit".
    ///
    /// # Errors
    ///
    /// See [`solve`](DpOptimizer::solve); additionally
    /// [`TpiError::Interrupted`] when the token fires.
    pub fn solve_region_controlled(
        &self,
        problem: &TpiProblem,
        rho: f64,
        control: &RunControl,
    ) -> Result<(Plan, DpStats), TpiError> {
        let mode = RunMode {
            budget: f64::INFINITY,
            allow_abandon: false,
        };
        let (plan, missed, stats) = self.run(problem, rho, mode, control)?;
        debug_assert_eq!(missed, 0);
        Ok((plan, stats))
    }

    /// The `MaxCoverage(B)` form: maximise the number of targeted faults
    /// reaching the threshold subject to a total-cost budget. Returns the
    /// plan and the number of targets it leaves below the threshold
    /// (`missed`); `missed == 0` means the budget was enough for full
    /// feasibility.
    ///
    /// # Errors
    ///
    /// [`TpiError::NotFanoutFree`] / [`TpiError::Netlist`] as for
    /// [`solve`](DpOptimizer::solve); [`TpiError::InvalidParameter`] for a
    /// negative budget. Never reports `Infeasible` — an unaffordable
    /// target is abandoned and counted instead.
    pub fn solve_max_coverage(
        &self,
        problem: &TpiProblem,
        budget: f64,
    ) -> Result<(Plan, usize), TpiError> {
        if budget < 0.0 || budget.is_nan() {
            return Err(TpiError::InvalidParameter {
                message: format!("budget {budget} must be non-negative"),
            });
        }
        let mode = RunMode {
            budget,
            allow_abandon: true,
        };
        let (plan, missed, _) = self.run(problem, 1.0, mode, &RunControl::unlimited())?;
        Ok((plan, missed))
    }

    fn run(
        &self,
        problem: &TpiProblem,
        rho: f64,
        mode: RunMode,
        control: &RunControl,
    ) -> Result<(Plan, usize, DpStats), TpiError> {
        if !(0.0..=1.0).contains(&rho) {
            return Err(TpiError::InvalidParameter {
                message: format!("root observability {rho} outside [0, 1]"),
            });
        }
        let circuit = problem.circuit();
        let topo = Topology::of(circuit)?;
        if let Some(stem) = circuit.node_ids().find(|&id| topo.is_stem(circuit, id)) {
            return Err(TpiError::NotFanoutFree {
                stem: circuit.node_name(stem).to_string(),
            });
        }
        let (frontiers, stats) = Job::new(self, problem, &topo, mode).solve_all(control)?;

        // 3. Accept at the roots (minimise misses first, then cost).
        //
        // Note: with a shared budget across multiple roots the greedy
        // per-root acceptance below is exact only for MinCost (costs just
        // add up); in MaxCoverage mode multi-root circuits get each root's
        // best-under-full-budget answer, a safe upper bound on spend per
        // cone that the budget check at state level keeps honest.
        let mut total_cost = 0.0;
        let mut total_missed = 0usize;
        let mut plan: PlanRef = None;
        for id in circuit.node_ids() {
            if topo.fanout_count(id) > 0 {
                continue; // interior line
            }
            let accept = if circuit.is_output(id) { rho } else { 0.0 };
            let frontier = frontiers[id.index()].as_ref().expect("roots are processed");
            let best = frontier
                .iter()
                .filter(|s| s.demand <= accept + DEMAND_EPS)
                .min_by(|a, b| {
                    (a.missed, a.cost)
                        .partial_cmp(&(b.missed, b.cost))
                        .expect("costs are finite")
                });
            match best {
                Some(s) => {
                    total_cost += s.cost;
                    total_missed += s.missed as usize;
                    plan = plan_join(&plan, &s.plan);
                }
                None => {
                    return Err(TpiError::Infeasible {
                        fault: format!(
                            "cone of `{}` (boundary observability {accept})",
                            circuit.node_name(id)
                        ),
                    })
                }
            }
        }
        Ok((
            Plan::new(plan_flatten(&plan), total_cost, total_missed == 0),
            total_missed,
            stats,
        ))
    }

    /// Fold the children frontiers of a gate, in fanin order, into
    /// combined accumulator states; `true` with them when the frontier cap
    /// cut a fold step. Pairs are deduplicated into bucket keys on the
    /// fly, so the pairwise product never materialises, and only the
    /// surviving pairs get a joined plan.
    fn fold_children(
        &self,
        kind: GateKind,
        children: Vec<Vec<State>>,
        mode: RunMode,
        stats: &mut DpStats,
        pairs: &mut Buckets<Pair>,
    ) -> (Vec<FoldState>, bool) {
        let mut acc: Vec<FoldState> = Vec::new();
        let mut cut = false;
        for (ci, child_frontier) in children.into_iter().enumerate() {
            if ci == 0 {
                acc = child_frontier
                    .into_iter()
                    .map(|s| FoldState {
                        cacc: init_cacc(kind, s.c1),
                        wprod: side_weight(kind, s.c1),
                        pending: s.demand,
                        cost: s.cost,
                        missed: s.missed,
                        plan: s.plan,
                    })
                    .collect();
                continue;
            }
            for (ai, a) in acc.iter().enumerate() {
                for (si, s) in child_frontier.iter().enumerate() {
                    let w = side_weight(kind, s.c1);
                    let pending = div_demand(a.pending, w).max(div_demand(s.demand, a.wprod));
                    if pending > 1.0 + DEMAND_EPS {
                        continue;
                    }
                    let cost = a.cost + s.cost;
                    if cost > mode.budget + 1e-12 {
                        continue;
                    }
                    stats.states_created += 1;
                    let cacc = step_cacc(kind, a.cacc, s.c1);
                    let wprod = a.wprod * w;
                    pairs.offer(
                        self.fold_key(cacc, wprod, pending),
                        Pair {
                            cacc,
                            wprod,
                            pending,
                            cost,
                            missed: a.missed + s.missed,
                            acc: ai as u32,
                            child: si as u32,
                        },
                    );
                }
            }
            let mut folded = Vec::new();
            pairs.drain_sorted(|p| {
                folded.push(FoldState {
                    cacc: p.cacc,
                    wprod: p.wprod,
                    pending: p.pending,
                    cost: p.cost,
                    missed: p.missed,
                    plan: plan_join(
                        &acc[p.acc as usize].plan,
                        &child_frontier[p.child as usize].plan,
                    ),
                });
            });
            acc = folded;
            let cap = self.config.max_states_per_node;
            if acc.len() > cap {
                acc.sort_by(|a, b| a.cost.partial_cmp(&b.cost).expect("finite"));
                if mode.allow_abandon {
                    keep_least_demand(&mut acc, cap, |s| (s.pending, s.cost));
                }
                acc.truncate(cap);
                cut = true;
            }
        }
        (acc, cut)
    }

    fn fold_key(&self, cacc: f64, wprod: f64, pending: f64) -> Key {
        if self.config.exact {
            [cacc.to_bits(), wprod.to_bits(), pending.to_bits()]
        } else {
            [
                self.c1_key(cacc.clamp(0.0, 1.0)),
                self.c1_key(wprod.clamp(0.0, 1.0)),
                self.demand_key(pending),
            ]
        }
    }

    fn state_key(&self, c1: f64, demand: f64) -> Key {
        if self.config.exact {
            [c1.to_bits(), demand.to_bits(), 0]
        } else {
            [self.c1_key(c1), self.demand_key(demand), 0]
        }
    }

    /// Uniform `c1` bucket: `round(c1 · (resolution − 1))`.
    fn c1_key(&self, c1: f64) -> u64 {
        round_key(c1 * f64::from(self.config.c1_resolution - 1))
    }

    /// Logarithmic demand bucket: `0` for no demand, else
    /// `1 + ⌊−log₂(demand) · resolution⌋`. The `as u64` cast is the floor:
    /// it truncates non-negative values and saturates negative ones to 0,
    /// exactly as `floor` followed by the cast would.
    fn demand_key(&self, demand: f64) -> u64 {
        if demand == 0.0 {
            0
        } else {
            1 + (-demand.log2() * f64::from(self.config.demand_resolution)) as u64
        }
    }

    /// Offer the local decisions for one combined state to the node's
    /// bucket table, returning how many candidates were offered.
    #[allow(clippy::too_many_arguments)]
    fn offer_options(
        &self,
        choices: &mut Buckets<Choice>,
        source: u32,
        c1: f64,
        demand: f64,
        missed: u32,
        cost: f64,
        (c_o, c_c, c_f): (f64, f64, f64),
        mode: RunMode,
    ) -> usize {
        let mut offered = 0;
        let mut offer = |c1: f64, demand: f64, cost: f64, decision: Decision| {
            if cost <= mode.budget + 1e-12 {
                let key = self.state_key(c1, demand);
                choices.offer(
                    key,
                    Choice {
                        c1,
                        demand,
                        cost,
                        missed,
                        c1_key: key[0],
                        source,
                        decision,
                    },
                );
                offered += 1;
            }
        };
        offer(c1, demand, cost, Decision::Keep);
        // OP: observe the line (demand ≤ 1 already holds) — clears it.
        offer(
            c1,
            0.0,
            cost + c_o,
            Decision::Insert(TestPointKind::Observe),
        );
        // CP-AND / CP-OR: reshape c1; pending demands pass the new gate
        // whose side input is non-controlling with probability 1/2.
        if self.config.enable_control {
            let doubled = if demand == 0.0 { 0.0 } else { 2.0 * demand };
            for (kind_c1, kind) in [
                (c1 * 0.5, TestPointKind::ControlAnd),
                (0.5 + 0.5 * c1, TestPointKind::ControlOr),
            ] {
                if doubled <= 1.0 + DEMAND_EPS {
                    offer(kind_c1, doubled, cost + c_c, Decision::Insert(kind));
                }
                // CP + OP with the observation on the *pre-CP* line
                // (emitted as [CP, OP]; the transform then taps the
                // original line): demands clear at full observability,
                // then the CP reshapes.
                offer(
                    kind_c1,
                    0.0,
                    cost + c_c + c_o,
                    Decision::ControlThenObserve(kind),
                );
            }
        }
        // Full test point: observe the line and re-drive consumers from a
        // fresh equiprobable input.
        if self.config.enable_full {
            offer(0.5, 0.0, cost + c_f, Decision::Insert(TestPointKind::Full));
        }
        offered
    }

    /// Prune a node's candidates into `kept`: each `(c1, demand)` bucket
    /// keeps a `(cost, missed)` Pareto set; in MinCost mode a 2-D Pareto
    /// sweep per `c1` bucket then drops every state a lower-demand,
    /// no-more-expensive sibling dominates. Returns whether the frontier
    /// cap then cut `kept`.
    fn prune(&self, choices: &mut Buckets<Choice>, kept: &mut Vec<Choice>, mode: RunMode) -> bool {
        kept.clear();
        choices.drain_sorted(|c| kept.push(c));
        if !mode.allow_abandon {
            kept.sort_by(|a, b| {
                a.c1_key
                    .cmp(&b.c1_key)
                    .then(a.demand.partial_cmp(&b.demand).expect("finite"))
                    .then(a.cost.partial_cmp(&b.cost).expect("finite"))
            });
            let mut current_key = u64::MAX;
            let mut best_cost = f64::INFINITY;
            kept.retain(|c| {
                if c.c1_key != current_key {
                    current_key = c.c1_key;
                    best_cost = f64::INFINITY;
                }
                let keep = c.cost < best_cost - 1e-15;
                if keep {
                    best_cost = c.cost;
                }
                keep
            });
        }
        let cap = self.config.max_states_per_node;
        if kept.len() > cap {
            kept.sort_by(|a, b| {
                (a.missed, a.cost)
                    .partial_cmp(&(b.missed, b.cost))
                    .expect("finite")
            });
            if mode.allow_abandon {
                keep_least_demand(kept, cap, |c| (c.demand, c.cost));
            }
            kept.truncate(cap);
            return true;
        }
        false
    }
}

/// Before a MaxCoverage cap of `cap` states cuts `states`, move the
/// cheapest state of least demand (the first in `states`' order) into the
/// last kept slot if the cut would drop it. Abandoning every target below
/// a node gives demand 0 at no cost, and such a state pairs with its
/// siblings' into another one, so keeping it leaves every root a state to
/// accept and `solve_max_coverage` never reports `Infeasible`. The cost
/// and `(missed, cost)` orders the caps sort by would otherwise drop it.
fn keep_least_demand<T>(states: &mut [T], cap: usize, demand_cost: impl Fn(&T) -> (f64, f64)) {
    let Some(last) = cap.checked_sub(1) else {
        return;
    };
    let least = (0..states.len()).min_by(|&a, &b| {
        demand_cost(&states[a])
            .partial_cmp(&demand_cost(&states[b]))
            .expect("finite")
    });
    if let Some(least) = least.filter(|&least| least > last) {
        states.swap(last, least);
    }
}

/// One run's read-only inputs, shared by every worker.
struct Job<'a> {
    dp: &'a DpOptimizer,
    problem: &'a TpiProblem,
    topo: &'a Topology,
    /// Each node's position in the topological order.
    rank: Vec<u32>,
    /// Targeted `(stuck-at-0, stuck-at-1)` polarities per node.
    targeted: Vec<(bool, bool)>,
    mode: RunMode,
}

/// A frontier slot per node.
type Frontiers = Vec<Option<Vec<State>>>;

/// The ready queue and frontier slots the workers share.
struct Queue {
    /// Positions in the topological order of the nodes whose fanins are
    /// all solved, earliest first.
    ready: BinaryHeap<Reverse<u32>>,
    /// Unsolved fanins per node.
    waiting: Vec<u32>,
    /// Each node's frontier, from its solve until its parent takes it.
    frontiers: Frontiers,
    /// Nodes handed out so far; every 64th polls the run's token.
    started: usize,
    /// Workers in the middle of a node.
    busy: usize,
    /// The earliest failing node's position and its error.
    failed: Option<(u32, TpiError)>,
    /// Set when the token fires (or a worker panics): every worker stops.
    halted: Option<StopReason>,
}

impl Queue {
    /// The next node to solve, or `None` when there is none now: the
    /// queue is empty, halted, or holds only nodes after a failure.
    fn next(&mut self) -> Option<u32> {
        if self.halted.is_some() {
            return None;
        }
        let Reverse(rank) = self.ready.pop()?;
        match &self.failed {
            Some((failed, _)) if rank > *failed => {
                self.ready.clear();
                None
            }
            _ => Some(rank),
        }
    }
}

/// A worker's reusable bucket tables and its share of the statistics.
struct Tables {
    pairs: Buckets<Pair>,
    choices: Buckets<Choice>,
    kept: Vec<Choice>,
    stats: DpStats,
}

const POISONED: &str = "a DP worker panicked while holding the queue";

/// Halts every worker when the one holding it unwinds, so none waits
/// forever for the node the panicking worker was solving; the panic
/// itself reaches the caller when the scope joins.
struct HaltOnPanic<'a>(&'a Mutex<Queue>, &'a Condvar);

impl Drop for HaltOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            // Nothing reads the queue's contents after a panic, only
            // `halted`, so a poisoned lock is safe to take here.
            let mut q = self.0.lock().unwrap_or_else(PoisonError::into_inner);
            q.halted.get_or_insert(StopReason::Cancelled);
            self.1.notify_all();
        }
    }
}

impl<'a> Job<'a> {
    fn new(
        dp: &'a DpOptimizer,
        problem: &'a TpiProblem,
        topo: &'a Topology,
        mode: RunMode,
    ) -> Job<'a> {
        let n = problem.circuit().node_count();
        let mut targeted = vec![(false, false); n];
        for t in problem.targets() {
            if t.stuck {
                targeted[t.node.index()].1 = true;
            } else {
                targeted[t.node.index()].0 = true;
            }
        }
        let mut rank = vec![0; n];
        for (r, id) in topo.order().iter().enumerate() {
            rank[id.index()] = r as u32;
        }
        Job {
            dp,
            problem,
            topo,
            rank,
            targeted,
            mode,
        }
    }

    /// Solve every node, returning each root's frontier (interior slots
    /// end empty) and the summed statistics.
    fn solve_all(&self, control: &RunControl) -> Result<(Frontiers, DpStats), TpiError> {
        let circuit = self.problem.circuit();
        let order = self.topo.order();
        let waiting: Vec<u32> = circuit
            .node_ids()
            .map(|id| circuit.fanins(id).len() as u32)
            .collect();
        let ready = circuit
            .node_ids()
            .filter(|id| waiting[id.index()] == 0)
            .map(|id| Reverse(self.rank[id.index()]))
            .collect();
        let queue = Mutex::new(Queue {
            ready,
            waiting,
            frontiers: vec![None; circuit.node_count()],
            started: 0,
            busy: 0,
            failed: None,
            halted: None,
        });
        let wake = Condvar::new();
        let workers = self
            .dp
            .config
            .threads
            .min(order.len() / NODES_PER_WORKER)
            .max(1);
        let stats = std::thread::scope(|scope| {
            let helpers: Vec<_> = (1..workers)
                .map(|_| scope.spawn(|| self.work(&queue, &wake, control)))
                .collect();
            let mut stats = self.work(&queue, &wake, control);
            for helper in helpers {
                let s = helper
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
                stats.nodes += s.nodes;
                stats.states_created += s.states_created;
                stats.max_frontier = stats.max_frontier.max(s.max_frontier);
                stats.truncated += s.truncated;
            }
            stats
        });
        let queue = queue.into_inner().expect(POISONED);
        if let Some(reason) = queue.halted {
            return Err(TpiError::Interrupted { reason });
        }
        match queue.failed {
            Some((_, e)) => Err(e),
            None => Ok((queue.frontiers, stats)),
        }
    }

    /// One worker: take the earliest ready node, solve it outside the
    /// lock, store its frontier and release its parent, until no node is
    /// left to solve.
    fn work(&self, queue: &Mutex<Queue>, wake: &Condvar, control: &RunControl) -> DpStats {
        let _halt = HaltOnPanic(queue, wake);
        let circuit = self.problem.circuit();
        let order = self.topo.order();
        let mut tables = Tables {
            pairs: Buckets::new(),
            choices: Buckets::new(),
            kept: Vec::new(),
            stats: DpStats::default(),
        };
        let mut q = queue.lock().expect(POISONED);
        loop {
            let Some(rank) = q.next() else {
                if q.busy == 0 || q.halted.is_some() {
                    wake.notify_all();
                    break;
                }
                q = wake.wait(q).expect(POISONED);
                continue;
            };
            let poll = q.started & 63 == 0;
            q.started += 1;
            q.busy += 1;
            let id = order[rank as usize];
            let children: Vec<Vec<State>> = circuit
                .fanins(id)
                .iter()
                .map(|child| {
                    q.frontiers[child.index()]
                        .take()
                        .expect("a node is ready only once its fanins are solved")
                })
                .collect();
            drop(q);
            let solved = match poll.then(|| control.poll()).flatten() {
                Some(reason) => Err(reason),
                None => Ok(self.solve_node(id, children, &mut tables)),
            };
            q = queue.lock().expect(POISONED);
            q.busy -= 1;
            match solved {
                Err(reason) => {
                    q.halted.get_or_insert(reason);
                }
                Ok(Ok(frontier)) => {
                    q.frontiers[id.index()] = Some(frontier);
                    if let Some(parent) = self.topo.fanouts(id).first() {
                        let waiting = &mut q.waiting[parent.gate.index()];
                        *waiting -= 1;
                        if *waiting == 0 {
                            q.ready.push(Reverse(self.rank[parent.gate.index()]));
                            wake.notify_one();
                        }
                    }
                }
                Ok(Err(e)) => {
                    if q.failed.as_ref().is_none_or(|(failed, _)| rank < *failed) {
                        q.failed = Some((rank, e));
                    }
                }
            }
        }
        tables.stats
    }

    /// Solve one node from its fanins' frontiers: fold them, add the
    /// node's own fault demands, branch on the local decisions and prune.
    ///
    /// # Errors
    ///
    /// [`TpiError::Infeasible`] when no state survives.
    fn solve_node(
        &self,
        id: NodeId,
        children: Vec<Vec<State>>,
        tables: &mut Tables,
    ) -> Result<Vec<State>, TpiError> {
        let dp = self.dp;
        let problem = self.problem;
        let mode = self.mode;
        let delta = problem.threshold().value();
        let costs = *problem.costs();
        let stats = &mut tables.stats;
        let kind = problem.circuit().node(id).kind();
        // 1. Combine children into (c1_pre, pending) states.
        let (combined, fold_cut) = if kind.is_source() {
            let c1 = match kind {
                GateKind::Const0 => 0.0,
                GateKind::Const1 => 1.0,
                _ => problem.input_probability(id),
            };
            let source = FoldState {
                cacc: c1,
                wprod: 1.0,
                pending: 0.0,
                cost: 0.0,
                missed: 0,
                plan: None,
            };
            (vec![source], false)
        } else {
            dp.fold_children(kind, children, mode, stats, &mut tables.pairs)
        };

        // 2. Add own-fault demands (committing or, in MaxCoverage
        // mode, abandoning each), then branch on local decisions.
        let (t0, t1) = self.targeted[id.index()];
        for (source, fs) in combined.iter().enumerate() {
            let c1_pre = finalize_c1(kind, fs.cacc);
            // (demand, extra misses) variants after this node's own
            // targets are folded in: at most two per target polarity.
            let mut variants = [(fs.pending, 0u32); 4];
            let mut count = 1;
            for (flag, exc) in [(t0, c1_pre), (t1, 1.0 - c1_pre)] {
                if !flag {
                    continue;
                }
                let r = required(delta, exc);
                let mut expanded = [(0.0, 0u32); 4];
                let mut next = 0;
                for &(d, m) in &variants[..count] {
                    let committed = d.max(r);
                    if committed <= 1.0 + DEMAND_EPS {
                        expanded[next] = (committed, m);
                        next += 1;
                    }
                    if mode.allow_abandon {
                        expanded[next] = (d, m + 1);
                        next += 1;
                    }
                }
                variants = expanded;
                count = next;
            }
            for &(demand, extra_missed) in &variants[..count] {
                stats.states_created += dp.offer_options(
                    &mut tables.choices,
                    source as u32,
                    c1_pre,
                    demand,
                    fs.missed + extra_missed,
                    fs.cost,
                    (costs.observe, costs.control, costs.full),
                    mode,
                );
            }
        }
        let prune_cut = dp.prune(&mut tables.choices, &mut tables.kept, mode);
        stats.max_frontier = stats.max_frontier.max(tables.kept.len());
        stats.nodes += 1;
        stats.truncated += usize::from(fold_cut || prune_cut);
        if tables.kept.is_empty() {
            return Err(TpiError::Infeasible {
                fault: format!(
                    "stem fault at `{}` (threshold {} exceeds reachable excitation)",
                    problem.circuit().node_name(id),
                    problem.threshold()
                ),
            });
        }
        Ok(tables
            .kept
            .iter()
            .map(|c| State {
                c1: c.c1,
                demand: c.demand,
                cost: c.cost,
                missed: c.missed,
                plan: c.decision.plan(&combined[c.source as usize].plan, id),
            })
            .collect())
    }
}

/// `x.round() as u64` without the libm call. For `x ≥ 0` the fractional
/// part `x − trunc(x)` is exact, so comparing it with ½ rounds half away
/// from zero as `round` does; negative and NaN inputs give 0 and huge
/// ones saturate, again as the cast after `round` would.
fn round_key(x: f64) -> u64 {
    let whole = x as u64;
    whole.saturating_add(u64::from(x - whole as f64 >= 0.5))
}

/// Required observability for a fault with excitation `exc`:
/// `δ / exc`, `∞` when unexcitable.
fn required(delta: f64, exc: f64) -> f64 {
    if exc <= 0.0 {
        f64::INFINITY
    } else {
        delta / exc
    }
}

fn div_demand(pending: f64, w: f64) -> f64 {
    if pending == 0.0 {
        0.0
    } else if w <= 0.0 {
        f64::INFINITY
    } else {
        pending / w
    }
}

/// Probability that a child's value is non-controlling for `kind` (the
/// factor a sibling's fault effect must pass).
fn side_weight(kind: GateKind, c1: f64) -> f64 {
    match kind {
        GateKind::And | GateKind::Nand => c1,
        GateKind::Or | GateKind::Nor => 1.0 - c1,
        // XOR propagates any side value (with flipped polarity); unary
        // gates have no siblings.
        _ => 1.0,
    }
}

fn init_cacc(kind: GateKind, c1: f64) -> f64 {
    match kind {
        GateKind::And | GateKind::Nand | GateKind::Buf | GateKind::Not => c1,
        GateKind::Or | GateKind::Nor => 1.0 - c1,
        GateKind::Xor | GateKind::Xnor => c1,
        _ => c1,
    }
}

fn step_cacc(kind: GateKind, acc: f64, c1: f64) -> f64 {
    match kind {
        GateKind::And | GateKind::Nand => acc * c1,
        GateKind::Or | GateKind::Nor => acc * (1.0 - c1),
        GateKind::Xor | GateKind::Xnor => acc * (1.0 - c1) + c1 * (1.0 - acc),
        _ => c1,
    }
}

fn finalize_c1(kind: GateKind, acc: f64) -> f64 {
    match kind {
        // `acc` is Πc1 for AND-like, Πc0 for OR-like, parity for XOR-like.
        GateKind::And | GateKind::Nor | GateKind::Xor | GateKind::Buf => acc,
        GateKind::Nand | GateKind::Or | GateKind::Xnor | GateKind::Not => 1.0 - acc,
        _ => acc,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluate::PlanEvaluator;
    use crate::{Threshold, TpiProblem};
    use tpi_gen::trees::{random_tree, RandomTreeConfig};
    use tpi_netlist::CircuitBuilder;

    fn and_cone(width: usize) -> tpi_netlist::Circuit {
        let mut b = CircuitBuilder::new(format!("and{width}"));
        let xs = b.inputs(width, "x");
        let root = b.balanced_tree(GateKind::And, &xs, "g").unwrap();
        b.output(root);
        b.finish().unwrap()
    }

    #[test]
    fn plan_tree_flatten_preserves_order() {
        let a = plan_push(&None, TestPoint::observe(NodeId::from_index(0)));
        let b = plan_push(&a, TestPoint::control_and(NodeId::from_index(1)));
        let c = plan_push(&None, TestPoint::full(NodeId::from_index(2)));
        let joined = plan_join(&b, &c);
        let flat = plan_flatten(&joined);
        assert_eq!(
            flat,
            vec![
                TestPoint::observe(NodeId::from_index(0)),
                TestPoint::control_and(NodeId::from_index(1)),
                TestPoint::full(NodeId::from_index(2)),
            ]
        );
    }

    #[test]
    fn inline_bucket_keys_match_round_and_floor() {
        let edges = [
            0.0,
            0.25,
            0.49999999999999994,
            0.5,
            0.5000000000000001,
            1.5,
            2.5,
            62.49999999999999,
            62.5,
            63.0000000001,
            -0.3,
            -0.7,
            f64::NAN,
            f64::INFINITY,
            1e300,
        ];
        let grid = (0..=200_000).map(|i| f64::from(i) / 200_000.0 * 63.0);
        for x in edges.into_iter().chain(grid) {
            assert_eq!(round_key(x), x.round() as u64, "round({x})");
        }
        let dp = DpOptimizer::default();
        let res = f64::from(dp.config.demand_resolution);
        let demands = [1e-300, 2f64.powi(-10), 0.3, 0.5, 0.75, 1.0, 1.0 + 1e-10];
        for d in demands
            .into_iter()
            .chain((1..=10_000).map(|i| f64::from(i) / 10_000.0))
        {
            let floored = 1 + (-d.log2() * res).floor() as u64;
            assert_eq!(dp.demand_key(d), floored, "demand {d}");
        }
    }

    #[test]
    fn easy_circuit_needs_no_test_points() {
        let c = and_cone(4);
        let p = TpiProblem::min_cost(&c, Threshold::from_log2(-6.0)).unwrap();
        let plan = DpOptimizer::default().solve(&p).unwrap();
        assert!(plan.is_empty(), "plan: {plan}");
        assert_eq!(plan.cost(), 0.0);
    }

    #[test]
    fn resistant_cone_gets_fixed_and_verifies() {
        let c = and_cone(16);
        let p = TpiProblem::min_cost(&c, Threshold::from_log2(-6.0)).unwrap();
        let plan = DpOptimizer::default().solve(&p).unwrap();
        assert!(!plan.is_empty());
        let eval = PlanEvaluator::new(&p)
            .unwrap()
            .evaluate(plan.test_points())
            .unwrap();
        assert!(eval.feasible, "min prob {:.3e}", eval.min_probability);
    }

    #[test]
    fn rejects_fanout() {
        let mut b = CircuitBuilder::new("c");
        let a = b.input("a");
        let g1 = b.gate(GateKind::Not, vec![a], "g1").unwrap();
        let g2 = b.gate(GateKind::Buf, vec![a], "g2").unwrap();
        b.output(g1);
        b.output(g2);
        let c = b.finish().unwrap();
        let p = TpiProblem::min_cost(&c, Threshold::from_log2(-2.0)).unwrap();
        assert!(matches!(
            DpOptimizer::default().solve(&p),
            Err(TpiError::NotFanoutFree { .. })
        ));
    }

    #[test]
    fn infeasible_threshold_reports_fault() {
        // δ > 1/2: a PI's own stem fault can never reach it.
        let c = and_cone(2);
        let p = TpiProblem::min_cost(&c, Threshold::new(0.75).unwrap()).unwrap();
        assert!(matches!(
            DpOptimizer::default().solve(&p),
            Err(TpiError::Infeasible { .. })
        ));
    }

    #[test]
    fn dangling_cone_requires_observation() {
        // A tree with no primary output at all: everything must be
        // observed via OPs.
        let mut b = CircuitBuilder::new("c");
        let xs = b.inputs(2, "x");
        let _g = b.gate(GateKind::And, vec![xs[0], xs[1]], "g").unwrap();
        let c = b.finish().unwrap();
        let p = TpiProblem::min_cost(&c, Threshold::from_log2(-3.0)).unwrap();
        let plan = DpOptimizer::default().solve(&p).unwrap();
        let (op, ..) = plan.kind_counts();
        assert!(op >= 1, "plan: {plan}");
        let eval = PlanEvaluator::new(&p)
            .unwrap()
            .evaluate(plan.test_points())
            .unwrap();
        assert!(eval.feasible);
    }

    #[test]
    fn multi_root_forest_solved_per_tree() {
        let mut b = CircuitBuilder::new("forest");
        let xs = b.inputs(8, "x");
        let g1 = b.balanced_tree(GateKind::And, &xs[..4], "a").unwrap();
        let g2 = b.balanced_tree(GateKind::Or, &xs[4..], "o").unwrap();
        b.output(g1);
        b.output(g2);
        let c = b.finish().unwrap();
        let p = TpiProblem::min_cost(&c, Threshold::from_log2(-3.0)).unwrap();
        let plan = DpOptimizer::default().solve(&p).unwrap();
        let eval = PlanEvaluator::new(&p)
            .unwrap()
            .evaluate(plan.test_points())
            .unwrap();
        assert!(eval.feasible);
    }

    #[test]
    fn tighter_threshold_costs_at_least_as_much() {
        let c = and_cone(4);
        let mut last_cost = -1.0;
        for exp in [-5.0, -4.0, -3.0, -2.0] {
            let p = TpiProblem::min_cost(&c, Threshold::from_log2(exp)).unwrap();
            let plan = DpOptimizer::new(DpConfig::exact()).solve(&p).unwrap();
            assert!(
                plan.cost() >= last_cost - 1e-9,
                "δ=2^{exp}: cost {} < previous {last_cost}",
                plan.cost()
            );
            last_cost = plan.cost();
        }
    }

    #[test]
    fn exact_mode_matches_default_on_small_trees() {
        // Small circuits: default buckets are already lossless enough to
        // match the exact mode's cost.
        let c = and_cone(4);
        let p = TpiProblem::min_cost(&c, Threshold::from_log2(-2.0)).unwrap();
        let d = DpOptimizer::default().solve(&p).unwrap();
        let e = DpOptimizer::new(DpConfig::exact()).solve(&p).unwrap();
        assert!(
            (d.cost() - e.cost()).abs() < 1e-9,
            "{} vs {}",
            d.cost(),
            e.cost()
        );
    }

    #[test]
    fn stats_are_populated() {
        let c = and_cone(16);
        let p = TpiProblem::min_cost(&c, Threshold::from_log2(-5.0)).unwrap();
        let (_, stats) = DpOptimizer::default().solve_with_stats(&p).unwrap();
        assert_eq!(stats.nodes, c.node_count());
        assert!(stats.max_frontier >= 1);
        assert!(stats.states_created > 0);
    }

    fn and_or_tree(leaves: usize, seed: u64) -> tpi_netlist::Circuit {
        random_tree(&RandomTreeConfig::with_leaves(leaves, seed).and_or_only()).unwrap()
    }

    #[test]
    fn truncation_is_reported_when_the_cap_binds() {
        let c = and_or_tree(64, 1);
        let p = TpiProblem::min_cost(&c, Threshold::from_log2(-10.0)).unwrap();
        let capped = DpConfig {
            max_states_per_node: 4,
            ..DpConfig::default()
        };
        let (_, stats) = DpOptimizer::new(capped).solve_with_stats(&p).unwrap();
        assert!(stats.truncated > 0, "{stats:?}");
        assert!(stats.truncated <= stats.nodes);
        let (_, stats) = DpOptimizer::default().solve_with_stats(&p).unwrap();
        assert_eq!(stats.truncated, 0, "{stats:?}");
    }

    #[test]
    fn the_benchmark_trees_are_never_truncated() {
        // The trees of perfbench's `tree_dp` workload, at its threshold.
        for (leaves, seed) in [(1024, 1), (2048, 2)] {
            let c = and_or_tree(leaves, seed);
            let p = TpiProblem::min_cost(&c, Threshold::from_log2(-10.0)).unwrap();
            let (_, stats) = DpOptimizer::default().solve_with_stats(&p).unwrap();
            assert_eq!(stats.truncated, 0, "{leaves} leaves: {stats:?}");
        }
    }

    #[test]
    fn region_mode_with_low_boundary_observability() {
        // With ρ = 0 every fault must be satisfied internally (as if the
        // root were dangling) even though it is an output.
        let c = and_cone(4);
        let p = TpiProblem::min_cost(&c, Threshold::from_log2(-3.0)).unwrap();
        let (plan_rho0, _) = DpOptimizer::default().solve_region(&p, 0.0).unwrap();
        let (plan_rho1, _) = DpOptimizer::default().solve_region(&p, 1.0).unwrap();
        assert!(plan_rho0.cost() >= plan_rho1.cost());
        let (op, ..) = plan_rho0.kind_counts();
        assert!(op >= 1);
    }

    #[test]
    fn bad_rho_rejected() {
        let c = and_cone(2);
        let p = TpiProblem::min_cost(&c, Threshold::from_log2(-2.0)).unwrap();
        assert!(DpOptimizer::default().solve_region(&p, 1.5).is_err());
    }

    #[test]
    fn cp_or_preferred_for_sa0_starved_cone() {
        // A deep AND cone starves SA0 excitation; the DP should deploy
        // OR-type control (or full) points, not AND-type.
        let c = and_cone(32);
        let p = TpiProblem::min_cost(&c, Threshold::from_log2(-5.0)).unwrap();
        let plan = DpOptimizer::default().solve(&p).unwrap();
        let (_, cpa, cpo, full) = plan.kind_counts();
        assert!(cpo + full > 0, "plan: {plan}");
        assert!(cpa <= cpo + full, "AND CPs should not dominate: {plan}");
    }

    #[test]
    fn plan_points_reference_original_nodes() {
        let c = and_cone(16);
        let p = TpiProblem::min_cost(&c, Threshold::from_log2(-5.0)).unwrap();
        let plan = DpOptimizer::default().solve(&p).unwrap();
        for tp in plan.test_points() {
            assert!(tp.node.index() < c.node_count());
        }
        // And the plan cost agrees with the cost model.
        assert!((p.costs().total(plan.test_points()) - plan.cost()).abs() < 1e-9);
    }

    #[test]
    fn max_coverage_zero_budget_inserts_nothing() {
        let c = and_cone(16);
        let p = TpiProblem::min_cost(&c, Threshold::from_log2(-5.0)).unwrap();
        let (plan, missed) = DpOptimizer::default().solve_max_coverage(&p, 0.0).unwrap();
        assert!(plan.is_empty());
        assert!(missed > 0);
        // The misses equal the analytically-unmet targets of the bare
        // circuit.
        let eval = PlanEvaluator::new(&p).unwrap().evaluate(&[]).unwrap();
        assert_eq!(missed, p.targets().len() - eval.meeting);
    }

    #[test]
    fn max_coverage_large_budget_matches_min_cost() {
        let c = and_cone(16);
        let p = TpiProblem::min_cost(&c, Threshold::from_log2(-5.0)).unwrap();
        let min_cost = DpOptimizer::default().solve(&p).unwrap();
        let (plan, missed) = DpOptimizer::default().solve_max_coverage(&p, 1e9).unwrap();
        assert_eq!(missed, 0);
        assert!(plan.is_feasible());
        assert!((plan.cost() - min_cost.cost()).abs() < 1e-9);
    }

    #[test]
    fn max_coverage_monotone_in_budget() {
        let c = and_cone(16);
        let p = TpiProblem::min_cost(&c, Threshold::from_log2(-5.0)).unwrap();
        let dp = DpOptimizer::default();
        let mut last_missed = usize::MAX;
        for budget in [0.0, 0.5, 1.0, 2.0, 4.0, 8.0] {
            let (plan, missed) = dp.solve_max_coverage(&p, budget).unwrap();
            assert!(plan.cost() <= budget + 1e-9, "budget {budget}: {plan}");
            assert!(
                missed <= last_missed,
                "budget {budget}: missed {missed} > {last_missed}"
            );
            last_missed = missed;
        }
        assert_eq!(last_missed, 0, "budget 8 suffices for this cone");
    }

    #[test]
    fn max_coverage_plans_verify_analytically() {
        // The evaluator must confirm at least `targets - missed` faults
        // meeting the threshold (the DP's miss count is an upper bound
        // when bucketing merges states).
        let c = and_cone(8);
        let p = TpiProblem::min_cost(&c, Threshold::from_log2(-4.0)).unwrap();
        let dp = DpOptimizer::new(DpConfig::exact());
        for budget in [0.5, 1.0, 1.5] {
            let (plan, missed) = dp.solve_max_coverage(&p, budget).unwrap();
            let eval = PlanEvaluator::new(&p)
                .unwrap()
                .evaluate(plan.test_points())
                .unwrap();
            assert!(
                eval.meeting >= p.targets().len() - missed,
                "budget {budget}: meeting {} < targets {} - missed {missed}",
                eval.meeting,
                p.targets().len()
            );
        }
    }

    #[test]
    fn vocabulary_ablation_knobs() {
        let c = and_cone(16);
        let p = TpiProblem::min_cost(&c, Threshold::from_log2(-6.0)).unwrap();
        // Observation-only cannot raise the cone's SA0 excitation.
        let op_only = DpConfig {
            enable_control: false,
            enable_full: false,
            ..DpConfig::default()
        };
        assert!(matches!(
            DpOptimizer::new(op_only).solve(&p),
            Err(TpiError::Infeasible { .. })
        ));
        // Without cut points the problem stays solvable, at no lower cost
        // than the full vocabulary.
        let no_full = DpConfig {
            enable_full: false,
            ..DpConfig::default()
        };
        let restricted = DpOptimizer::new(no_full).solve(&p).unwrap();
        let full = DpOptimizer::default().solve(&p).unwrap();
        assert!(restricted.cost() >= full.cost() - 1e-9);
        let (_, _, _, cut_points) = restricted.kind_counts();
        assert_eq!(cut_points, 0);
    }

    /// `solve_max_coverage` with a cap small enough to bind must still
    /// return a plan within the budget: both caps keep the cheapest
    /// least-demand state, so the abandon-everything states survive to
    /// the roots.
    fn max_coverage_under_a_binding_cap(p: &TpiProblem, cap: usize, config: DpConfig, budget: f64) {
        let config = DpConfig {
            max_states_per_node: cap,
            ..config
        };
        let (plan, missed) = DpOptimizer::new(config)
            .solve_max_coverage(p, budget)
            .unwrap_or_else(|e| panic!("{} at cap {cap}: {e}", p.circuit().name()));
        assert!(plan.cost() <= budget + 1e-9, "{plan}");
        let eval = PlanEvaluator::new(p)
            .unwrap()
            .evaluate(plan.test_points())
            .unwrap();
        assert!(
            eval.meeting + missed >= p.targets().len(),
            "missed {missed}"
        );
    }

    #[test]
    fn max_coverage_survives_a_binding_frontier_cap() {
        // Both failed at an interior gate while the frontier cap kept
        // only the lowest `(missed, cost)` states.
        let delta = Threshold::from_log2(-5.0);
        let p = TpiProblem::min_cost(&and_or_tree(128, 5), delta).unwrap();
        max_coverage_under_a_binding_cap(&p, 256, DpConfig::default(), 11.5);
        let c = random_tree(&RandomTreeConfig::with_leaves(240, 5)).unwrap();
        let p = TpiProblem::min_cost(&c, delta).unwrap();
        max_coverage_under_a_binding_cap(&p, 64, DpConfig::with_resolution(16, 2), 20.0);
    }

    #[test]
    fn max_coverage_survives_a_binding_fold_cap() {
        // With free control points a fold step has more cost-0 states
        // (of different `c1`) than the cap, and sorting by cost alone
        // dropped every demand-0 one.
        let free_control = crate::CostModel {
            control: 0.0,
            ..crate::CostModel::default()
        };
        let p = TpiProblem::min_cost(&and_or_tree(32, 1), Threshold::from_log2(-4.0))
            .unwrap()
            .with_costs(free_control);
        max_coverage_under_a_binding_cap(&p, 4, DpConfig::with_resolution(8, 2), 3.0);
    }

    #[test]
    fn max_coverage_rejects_bad_budget() {
        let c = and_cone(4);
        let p = TpiProblem::min_cost(&c, Threshold::from_log2(-3.0)).unwrap();
        assert!(DpOptimizer::default().solve_max_coverage(&p, -1.0).is_err());
        assert!(DpOptimizer::default()
            .solve_max_coverage(&p, f64::NAN)
            .is_err());
    }
}
