use tpi_netlist::ffr::FfrDecomposition;
use tpi_netlist::{Circuit, GateKind, NetlistError, NodeId, Topology};

use crate::compile::{self, block_words_supported, DEFAULT_BLOCK_WORDS, MAX_BLOCK_WORDS};
use crate::{
    ControlledRun, Fault, FaultSimResult, FaultSite, LogicSim, PatternSource, RunControl,
    SimCounters, StopReason,
};

/// How per-fault detection words are computed within each pattern block.
///
/// Both modes are **bit-identical**: detection counts, first-detection
/// pattern indices and coverage match exactly on every circuit, block
/// width and thread count (property-tested and bench-asserted). They
/// differ only in cost.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, Hash)]
pub enum DetectionMode {
    /// Inject every fault and propagate its effects event-driven through
    /// its fanout cone (the classic PPSFP loop). Exact but pays one cone
    /// sweep per live fault per block.
    Explicit,
    /// Critical path tracing over fanout-free regions: faults *inside* an
    /// FFR get their detection words from one word-parallel backward
    /// sensitization sweep per region (no injection at all); only stem
    /// faults — FFR roots, whose flip must cross reconvergent fanout —
    /// go through explicit propagation, and that observability word is
    /// shared by every fault collapsing onto the stem. Exact because an
    /// FFR is a tree: a fault effect inside it reaches the root along a
    /// unique path whose side inputs keep their fault-free values.
    #[default]
    CriticalPathTracing,
}

/// Construction options for [`FaultSimulator`] (block width ×
/// detection mode). `Default` is the fast configuration: size-selected
/// block width and critical path tracing. Every combination is
/// bit-identical; the options only trade memory for throughput.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct SimOptions {
    /// Block width in 64-bit words (see
    /// [`FaultSimulator::with_block_words`]); 0 (the default)
    /// auto-selects by circuit size — [`MAX_BLOCK_WORDS`] once the
    /// circuit is big enough to amortise the wider good-value
    /// simulation, [`DEFAULT_BLOCK_WORDS`] below that (small circuits
    /// drop their whole fault list within a few 64-lane words, so extra
    /// width is pure overhead).
    pub block_words: usize,
    /// Detection-word algorithm.
    pub detection: DetectionMode,
    /// Ignored. Kept, with [`BackendChoice`], only so the benchmark
    /// driver under `perfbench/` keeps building; nothing reads it.
    pub backend: BackendChoice,
}

impl SimOptions {
    /// Options with an explicit block width and the default mode.
    pub fn with_block_words(block_words: usize) -> SimOptions {
        SimOptions {
            block_words,
            ..SimOptions::default()
        }
    }
}

/// The one value of [`SimOptions::backend`]. Kept, with
/// [`SimdBackend`], only for the benchmark driver under `perfbench/`;
/// every simulator runs the same portable kernels.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, Hash)]
pub enum BackendChoice {
    /// The portable kernels.
    #[default]
    Auto,
}

/// What [`SimdBackend::resolve`] returns. Kept only for the benchmark
/// driver under `perfbench/`; no simulator consults it.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum SimdBackend {
    /// The portable kernels.
    Scalar,
}

impl SimdBackend {
    /// Always [`SimdBackend::Scalar`].
    ///
    /// # Errors
    ///
    /// Never.
    pub fn resolve(_choice: BackendChoice) -> Result<SimdBackend, std::convert::Infallible> {
        Ok(SimdBackend::Scalar)
    }

    /// `"scalar"`.
    pub fn name(self) -> &'static str {
        "scalar"
    }

    /// Publishes nothing.
    pub fn publish_to(self, _registry: &tpi_obs::Registry) {}
}

/// Node count at which the auto-selected block width ([`SimOptions::
/// block_words`] = 0) steps up from [`DEFAULT_BLOCK_WORDS`] to
/// [`MAX_BLOCK_WORDS`]: below it a dropping run retires its fault list
/// within a handful of 64-lane words and the wider good-value
/// simulation never pays for itself (the historical W=4-slower-than-W=1
/// small-circuit regression was this effect one notch down).
const AUTO_WIDE_NODE_THRESHOLD: usize = 512;

fn auto_block_words(nodes: usize) -> usize {
    if nodes >= AUTO_WIDE_NODE_THRESHOLD {
        MAX_BLOCK_WORDS
    } else {
        DEFAULT_BLOCK_WORDS
    }
}

/// Result of [`FaultSimulator::run_bitmaps`]: per-fault, per-pattern
/// detection bitmaps over the applied pattern prefix.
#[derive(Debug)]
pub struct BitmapRun {
    /// `maps[fi]` holds one bit per applied pattern for fault `fi`:
    /// word `p / 64`, lane `p % 64` is set iff pattern `p` detects it.
    /// Each map has `patterns_applied.div_ceil(64)` words; padding lanes
    /// beyond the last applied pattern are zero.
    pub maps: Vec<Vec<u64>>,
    /// Number of patterns actually applied (may trail `max_patterns` on
    /// source exhaustion or interruption).
    pub patterns_applied: u64,
    /// `None` if the run completed normally.
    pub stopped: Option<StopReason>,
    /// Kernel counters for this run.
    pub counters: SimCounters,
}

/// What `propagate_words` drives into the faulty overlay at the site.
enum Injection {
    /// A stuck-at fault (stem overwrite or branch pin override).
    Fault(Fault),
    /// The complement of the good value at a node — propagating it yields
    /// the node's *observability* word: the lanes in which flipping the
    /// node is visible at some primary output.
    Flip(usize),
}

/// Event-driven parallel-pattern single-fault-propagation (PPSFP) fault
/// simulator.
///
/// Per block of `w × 64` patterns (`w` is the *block width* in words,
/// default 4 = 256 patterns) the fault-free circuit is simulated once
/// through the compiled wide kernel; each live fault is then injected
/// and its effects propagated through its fanout cone only, in level
/// order, comparing against the good values at the primary outputs.
/// Faults are dropped at first detection in
/// [`run`](FaultSimulator::run).
///
/// Propagation is scheduled through level-bucketed worklists over a CSR
/// consumer array: scheduling a gate is an O(1) push into its level's
/// bucket and the buckets are swept in ascending level order (a
/// consumer always sits at a strictly higher level than its producer,
/// so a single sweep settles the cone). First-detection indices,
/// detection counts and coverage are bit-identical for every supported
/// block width — lane `j * 64 + l` of a wide block is exactly pattern
/// `j * 64 + l` of the corresponding scalar blocks.
///
/// # Example
///
/// ```
/// use tpi_netlist::bench_format::parse_bench;
/// use tpi_sim::{FaultSimulator, FaultUniverse, RandomPatterns};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let c = parse_bench("INPUT(a)\nINPUT(b)\ny = AND(a, b)\nOUTPUT(y)\n")?;
/// let faults = FaultUniverse::collapsed(&c)?;
/// let mut sim = FaultSimulator::new(&c)?;
/// let mut src = RandomPatterns::new(2, 7);
/// let result = sim.run(&mut src, 256, faults.faults())?;
/// assert_eq!(result.coverage(), 1.0);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct FaultSimulator {
    sim: LogicSim,
    w: usize,
    mode: DetectionMode,
    // CSR consumer array: gates consuming node `i` are
    // `consumer_idx[consumer_start[i]..consumer_start[i + 1]]`;
    // `consumer_level[k]` caches the level of `consumer_idx[k]`.
    consumer_start: Vec<u32>,
    consumer_idx: Vec<u32>,
    consumer_level: Vec<u32>,
    is_output: Vec<bool>,
    n_inputs: usize,
    n_nodes: usize,
    // Scratch state, reused across faults and blocks (`w` words/node).
    // `values` mirrors `good` between propagations; a propagation writes
    // faulty words in place (each node at most once — level order with
    // queue dedup) and `undo`/`touched` roll them back afterwards, so
    // fanin reads in the hot loop are single unconditional loads instead
    // of a dirty-flag branch over two arrays.
    //
    // `planes` is the *word-major* mirror of `good` (`planes[j * n + i]`
    // = `good[i * w + j]`), rebuilt once per block: the single-word
    // propagation path — every dropping-mode injection and every CPT
    // stem-observability flip — walks it at stride 1, so its event loop
    // reads pack 8 node words per cache line instead of one per
    // `w`-word slot (and the `* w` index arithmetic disappears).
    good: Vec<u64>,
    values: Vec<u64>,
    planes: Vec<u64>,
    undo: Vec<u64>,
    touched: Vec<u32>,
    queued: Vec<bool>,
    buckets: Vec<Vec<u32>>,
    pending: usize,
    input_block: Vec<u64>,
    fill_scratch: Vec<u64>,
    // Critical-path-tracing state (valid within one block).
    // `ffr_root[i]` is the root node of the FFR containing node `i`;
    // `sens[i * w + j]` is line `i`'s *local* sensitization word (path
    // sensitization up to its region root, lane-masked) once its region
    // has been swept (stale and never read for inactive regions).
    // `stem_obs[r * w + j]` caches root `r`'s observability for the
    // current block, computed lazily per word — a flip propagation runs
    // only the first time a locally-detected fault actually asks for
    // that word (`obs_ready[r]` is a per-word bitmask, `w <= 8`).
    ffr_root: Vec<u32>,
    sens: Vec<u64>,
    region_active: Vec<bool>,
    active_roots: Vec<u32>,
    sens_scratch: Vec<u64>,
    stem_obs: Vec<u64>,
    obs_ready: Vec<u8>,
    obs_ready_list: Vec<u32>,
    // Kernel counters: plain u64s (not atomics) so the hot loops pay a
    // register increment, published to an obs registry in bulk by the
    // caller (see `crate::SimCounters`).
    counters: SimCounters,
}

impl FaultSimulator {
    /// Build a simulator for `circuit` with the default options
    /// ([`crate::DEFAULT_BLOCK_WORDS`] words = 256 patterns per pass,
    /// critical path tracing).
    ///
    /// # Errors
    ///
    /// [`NetlistError::Cycle`] for cyclic circuits.
    pub fn new(circuit: &Circuit) -> Result<FaultSimulator, NetlistError> {
        FaultSimulator::with_options(circuit, SimOptions::default())
    }

    /// Build a simulator processing `block_words × 64` patterns per
    /// pass. Results are bit-identical for every width; wider blocks
    /// amortise the good-value simulation and propagation sweeps over
    /// more lanes.
    ///
    /// # Errors
    ///
    /// [`NetlistError::Cycle`] for cyclic circuits.
    ///
    /// # Panics
    ///
    /// Panics if `block_words` is not 1, 2, 4 or 8.
    pub fn with_block_words(
        circuit: &Circuit,
        block_words: usize,
    ) -> Result<FaultSimulator, NetlistError> {
        assert!(
            block_words_supported(block_words),
            "unsupported block width {block_words} words (supported: 1, 2, 4, 8)"
        );
        FaultSimulator::with_options(circuit, SimOptions::with_block_words(block_words))
    }

    /// Build a simulator with explicit [`SimOptions`].
    ///
    /// # Errors
    ///
    /// [`NetlistError::Cycle`] for cyclic circuits.
    ///
    /// # Panics
    ///
    /// Panics if `options.block_words` is not 0 (auto), 1, 2, 4 or 8.
    pub fn with_options(
        circuit: &Circuit,
        options: SimOptions,
    ) -> Result<FaultSimulator, NetlistError> {
        let n = circuit.node_count();
        let w = match options.block_words {
            0 => auto_block_words(n),
            w => w,
        };
        assert!(
            block_words_supported(w),
            "unsupported block width {w} words (supported: 1, 2, 4, 8)"
        );
        let sim = LogicSim::new(circuit)?;
        let topo = Topology::of(circuit)?;
        let mut per_node: Vec<Vec<u32>> = vec![Vec::new(); n];
        for id in circuit.node_ids() {
            for fo in topo.fanouts(id) {
                let gate = fo.gate.index() as u32;
                // Deduplicate gates consuming the same signal twice.
                if per_node[id.index()].last() != Some(&gate) {
                    per_node[id.index()].push(gate);
                }
            }
        }
        let mut consumer_start = Vec::with_capacity(n + 1);
        let mut consumer_idx = Vec::new();
        consumer_start.push(0u32);
        for consumers in &per_node {
            consumer_idx.extend_from_slice(consumers);
            consumer_start.push(consumer_idx.len() as u32);
        }
        let consumer_level: Vec<u32> = consumer_idx
            .iter()
            .map(|&g| sim.level(NodeId::from_index(g as usize)))
            .collect();
        let mut is_output = vec![false; n];
        for &po in circuit.outputs() {
            is_output[po.index()] = true;
        }
        let ffr = FfrDecomposition::of(circuit, &topo);
        let ffr_root: Vec<u32> = (0..n)
            .map(|i| ffr.root_of(NodeId::from_index(i)).index() as u32)
            .collect();
        Ok(FaultSimulator {
            w,
            mode: options.detection,
            consumer_start,
            consumer_idx,
            consumer_level,
            is_output,
            n_inputs: circuit.inputs().len(),
            n_nodes: n,
            good: vec![0; n * w],
            values: vec![0; n * w],
            planes: vec![0; n * w],
            undo: Vec::new(),
            touched: Vec::with_capacity(64),
            queued: vec![false; n],
            buckets: vec![Vec::new(); topo.max_level() as usize + 1],
            pending: 0,
            input_block: vec![0; circuit.inputs().len() * w],
            fill_scratch: vec![0; circuit.inputs().len()],
            ffr_root,
            sens: vec![0; n * w],
            region_active: vec![false; n],
            active_roots: Vec::new(),
            sens_scratch: Vec::new(),
            stem_obs: vec![0; n * w],
            obs_ready: vec![0; n],
            obs_ready_list: Vec::new(),
            counters: SimCounters::default(),
            sim,
        })
    }

    /// The simulated circuit.
    pub fn circuit(&self) -> &Circuit {
        self.sim.circuit()
    }

    /// Block width in 64-bit words (patterns per pass / 64).
    pub fn block_words(&self) -> usize {
        self.w
    }

    /// The configured detection mode.
    pub fn detection(&self) -> DetectionMode {
        self.mode
    }

    /// Kernel counters accumulated since construction (or the last
    /// [`take_counters`](FaultSimulator::take_counters)). Deterministic
    /// for a fixed (circuit, pattern stream, fault list, block width).
    pub fn counters(&self) -> &SimCounters {
        &self.counters
    }

    /// Returns the accumulated kernel counters and resets them to zero.
    pub fn take_counters(&mut self) -> SimCounters {
        std::mem::take(&mut self.counters)
    }

    /// Fault-simulate with fault dropping: apply up to `max_patterns`
    /// patterns from `source`, recording each fault's first detection.
    ///
    /// Stops early when the source is exhausted or every fault is
    /// detected. First-detection indices and the applied-pattern count
    /// are bit-identical across block widths (the count replays where a
    /// width-1 run would have stopped).
    ///
    /// # Errors
    ///
    /// Currently infallible after construction; the `Result` mirrors the
    /// other run methods.
    pub fn run(
        &mut self,
        source: &mut dyn PatternSource,
        max_patterns: u64,
        faults: &[Fault],
    ) -> Result<FaultSimResult, NetlistError> {
        self.run_controlled(source, max_patterns, faults, &RunControl::unlimited())
            .map(|run| run.result)
    }

    /// [`run`](FaultSimulator::run) under a [`RunControl`] token: the
    /// token is polled once per pattern block (before the block is
    /// pulled from the source) and applied lanes are charged against any
    /// work budget, so an interrupted run stops within one block and
    /// returns the detections accumulated so far as an anytime result.
    ///
    /// Budget-interrupted runs are deterministic for a fixed block
    /// width; deadline-interrupted runs are not (wall clock).
    ///
    /// # Errors
    ///
    /// Currently infallible after construction; the `Result` mirrors the
    /// other run methods. Interruption is *not* an error — it is
    /// reported in [`ControlledRun::stopped`].
    pub fn run_controlled(
        &mut self,
        source: &mut dyn PatternSource,
        max_patterns: u64,
        faults: &[Fault],
        control: &RunControl,
    ) -> Result<ControlledRun, NetlistError> {
        let mut first_detected: Vec<Option<u64>> = vec![None; faults.len()];
        let mut alive: Vec<usize> = (0..faults.len()).collect();
        // Faults that survived at least one full block (the hard-to-
        // detect tail); explicit mode propagates these full-width.
        let mut hard: Vec<bool> = vec![false; faults.len()];
        let fault_roots: Vec<u32> = match self.mode {
            DetectionMode::Explicit => Vec::new(),
            DetectionMode::CriticalPathTracing => {
                faults.iter().map(|&f| self.fault_root(f)).collect()
            }
        };
        let before = self.counters;
        let mut stopped = None;
        let mut base = 0u64;
        while base < max_patterns && !alive.is_empty() {
            self.counters.polls += 1;
            stopped = control.poll();
            if stopped.is_some() {
                break;
            }
            let filled = self.next_block(source, max_patterns - base);
            if filled == 0 {
                break;
            }
            let lanes = filled.min(max_patterns - base);
            let masks = lane_masks(lanes, self.w);
            self.counters.blocks += 1;
            self.counters.pattern_lanes += lanes;
            self.simulate_good();
            if self.mode == DetectionMode::CriticalPathTracing {
                for &fi in &alive {
                    self.mark_region(fault_roots[fi]);
                }
                self.cpt_sweep_active(&masks);
            }
            let words = (lanes.div_ceil(64) as usize).min(self.w);
            let mut last_kill = 0u64;
            alive.retain(|&fi| {
                let detect = match self.mode {
                    DetectionMode::CriticalPathTracing => {
                        self.cpt_detect(faults[fi], fault_roots[fi], &masks, true)
                    }
                    DetectionMode::Explicit if hard[fi] && words > 1 => {
                        // A fault that already survived a full block is
                        // in the hard-to-detect tail: it will almost
                        // certainly survive this one too, so a per-word
                        // early exit buys nothing. One full-width pass
                        // amortizes queue management and gate decoding
                        // across all `words` lanes of each event (lanes
                        // are independent, so the detect words are
                        // bit-identical to `words` single-word passes).
                        self.propagate_words(
                            &Injection::Fault(faults[fi]),
                            &masks,
                            0,
                            words,
                            true,
                            |_, _| {},
                        )
                    }
                    DetectionMode::Explicit => {
                        // Evaluate one 64-lane word at a time and stop at
                        // the first detecting word: a fault killed in word
                        // `j` never pays for words `> j`, so dropping
                        // keeps its scalar granularity at any width (lanes
                        // are independent, so per-word propagation yields
                        // the same detect bits as a full-width pass).
                        let mut detect = [0u64; MAX_BLOCK_WORDS];
                        for j in 0..words {
                            detect[j] =
                                self.propagate_word(&Injection::Fault(faults[fi]), masks[j], j);
                            if detect[j] != 0 {
                                break;
                            }
                        }
                        detect
                    }
                };
                match first_lane(&detect) {
                    Some(offset) => {
                        first_detected[fi] = Some(base + offset);
                        last_kill = last_kill.max(offset);
                        self.counters.faults_dropped += 1;
                        false
                    }
                    None => {
                        hard[fi] = true;
                        true
                    }
                }
            });
            self.clear_regions();
            if alive.is_empty() {
                // A width-1 run stops applying patterns after the
                // 64-lane sub-block in which the last live fault died;
                // replay that stopping point so `patterns_applied` is
                // width-invariant.
                base += lanes.min((last_kill / 64 + 1) * 64);
            } else {
                base += lanes;
            }
            control.charge(lanes);
        }
        Ok(ControlledRun {
            result: FaultSimResult::new(first_detected, base),
            stopped,
            counters: self.counters.since(&before),
        })
    }

    /// Count detections per fault without dropping (for detection-
    /// probability estimation). Returns per-fault detection counts and the
    /// number of patterns applied.
    ///
    /// # Errors
    ///
    /// Infallible after construction (see [`FaultSimulator::run`]).
    pub fn run_counting(
        &mut self,
        source: &mut dyn PatternSource,
        max_patterns: u64,
        faults: &[Fault],
    ) -> Result<(Vec<u64>, u64), NetlistError> {
        let mut counts = vec![0u64; faults.len()];
        let fault_roots: Vec<u32> = match self.mode {
            DetectionMode::Explicit => Vec::new(),
            DetectionMode::CriticalPathTracing => {
                faults.iter().map(|&f| self.fault_root(f)).collect()
            }
        };
        let mut base = 0u64;
        while base < max_patterns {
            let filled = self.next_block(source, max_patterns - base);
            if filled == 0 {
                break;
            }
            let lanes = filled.min(max_patterns - base);
            let masks = lane_masks(lanes, self.w);
            self.counters.blocks += 1;
            self.counters.pattern_lanes += lanes;
            self.simulate_good();
            match self.mode {
                DetectionMode::Explicit => {
                    for (fi, &fault) in faults.iter().enumerate() {
                        let detect = self.propagate(fault, &masks, true, |_, _| {});
                        counts[fi] += ones(&detect);
                    }
                }
                DetectionMode::CriticalPathTracing => {
                    for &r in &fault_roots {
                        self.mark_region(r);
                    }
                    self.cpt_sweep_active(&masks);
                    for (fi, &fault) in faults.iter().enumerate() {
                        let detect = self.cpt_detect(fault, fault_roots[fi], &masks, false);
                        counts[fi] += ones(&detect);
                    }
                    self.clear_regions();
                }
            }
            base += lanes;
        }
        Ok((counts, base))
    }

    /// Per-fault, per-pattern detection bitmaps without dropping: bit
    /// `p` of `maps[fi]` (word `p / 64`, lane `p % 64`) is set iff fault
    /// `fi` is detected by pattern `p`. The bitmaps are bit-identical
    /// for every block width (lanes are independent) and are the shared
    /// base state of the batched candidate scorer: a candidate circuit
    /// that is transparent on a pattern replays exactly these detection
    /// bits, so only its non-transparent patterns need re-simulation.
    ///
    /// The `control` token is polled once per block; a stopped run
    /// reports the reason and the bitmaps accumulated so far.
    ///
    /// # Errors
    ///
    /// Infallible after construction (see [`FaultSimulator::run`]).
    pub fn run_bitmaps(
        &mut self,
        source: &mut dyn PatternSource,
        max_patterns: u64,
        faults: &[Fault],
        control: &RunControl,
    ) -> Result<BitmapRun, NetlistError> {
        let mut maps = vec![Vec::new(); faults.len()];
        let fault_roots: Vec<u32> = match self.mode {
            DetectionMode::Explicit => Vec::new(),
            DetectionMode::CriticalPathTracing => {
                faults.iter().map(|&f| self.fault_root(f)).collect()
            }
        };
        let before = self.counters;
        let mut stopped = None;
        let mut base = 0u64;
        while base < max_patterns {
            self.counters.polls += 1;
            stopped = control.poll();
            if stopped.is_some() {
                break;
            }
            let filled = self.next_block(source, max_patterns - base);
            if filled == 0 {
                break;
            }
            let lanes = filled.min(max_patterns - base);
            let masks = lane_masks(lanes, self.w);
            self.counters.blocks += 1;
            self.counters.pattern_lanes += lanes;
            self.simulate_good();
            let words = (lanes.div_ceil(64) as usize).min(self.w);
            match self.mode {
                DetectionMode::Explicit => {
                    for (fi, &fault) in faults.iter().enumerate() {
                        let detect = self.propagate(fault, &masks, true, |_, _| {});
                        maps[fi].extend_from_slice(&detect[..words]);
                    }
                }
                DetectionMode::CriticalPathTracing => {
                    for &r in &fault_roots {
                        self.mark_region(r);
                    }
                    self.cpt_sweep_active(&masks);
                    for (fi, &fault) in faults.iter().enumerate() {
                        let detect = self.cpt_detect(fault, fault_roots[fi], &masks, false);
                        maps[fi].extend_from_slice(&detect[..words]);
                    }
                    self.clear_regions();
                }
            }
            base += lanes;
            control.charge(lanes);
        }
        Ok(BitmapRun {
            maps,
            patterns_applied: base,
            stopped,
            counters: self.counters.since(&before),
        })
    }

    /// Like [`run_counting`](FaultSimulator::run_counting), but also calls
    /// `visit(fault_index, node, present_mask)` for every 64-lane word in
    /// which a fault's effect is present at a node — the raw material for
    /// propagation profiles (see
    /// [`montecarlo::propagation_profile`](crate::montecarlo::propagation_profile)).
    /// A node may be visited up to `block_words` times per block (once
    /// per word with a nonzero mask); per-node popcount totals are
    /// width-invariant.
    ///
    /// Always propagates explicitly regardless of the configured
    /// [`DetectionMode`]: the visitor needs the per-node fault-effect
    /// words, which critical path tracing never materialises.
    ///
    /// # Errors
    ///
    /// Infallible after construction (see [`FaultSimulator::run`]).
    pub fn run_visiting(
        &mut self,
        source: &mut dyn PatternSource,
        max_patterns: u64,
        faults: &[Fault],
        mut visit: impl FnMut(usize, NodeId, u64),
    ) -> Result<(Vec<u64>, u64), NetlistError> {
        let mut counts = vec![0u64; faults.len()];
        let mut base = 0u64;
        while base < max_patterns {
            let filled = self.next_block(source, max_patterns - base);
            if filled == 0 {
                break;
            }
            let lanes = filled.min(max_patterns - base);
            let masks = lane_masks(lanes, self.w);
            self.counters.blocks += 1;
            self.counters.pattern_lanes += lanes;
            self.simulate_good();
            for (fi, &fault) in faults.iter().enumerate() {
                let detect =
                    self.propagate(fault, &masks, false, |node, diff| visit(fi, node, diff));
                counts[fi] += ones(&detect);
            }
            base += lanes;
        }
        Ok((counts, base))
    }

    /// Pull up to `w` 64-pattern words from `source` into the staged
    /// input block (word-major per input), zero-padding unused words.
    /// Stops early at source exhaustion, at a partial word, or once
    /// `remaining` patterns are covered — so the number of `fill` calls
    /// matches what `remaining` sequential scalar blocks would consume.
    fn next_block(&mut self, source: &mut dyn PatternSource, remaining: u64) -> u64 {
        let w = self.w;
        let max_words = w.min(remaining.div_ceil(64) as usize);
        self.input_block.fill(0);
        let mut filled = 0u64;
        for j in 0..max_words {
            let n = source.fill(&mut self.fill_scratch);
            if n == 0 {
                break;
            }
            for i in 0..self.n_inputs {
                self.input_block[i * w + j] = self.fill_scratch[i];
            }
            filled += n as u64;
            if n < 64 {
                break;
            }
        }
        filled
    }

    fn simulate_good(&mut self) {
        self.sim
            .simulate_block_into(&self.input_block, &mut self.good, self.w);
        self.values.copy_from_slice(&self.good);
        // Rebuild the word-major plane mirror (see the field docs): an
        // O(n·w) transpose per block, repaid across every single-word
        // propagation of the block.
        let (w, n) = (self.w, self.n_nodes);
        if w == 1 {
            self.planes.copy_from_slice(&self.good);
        } else {
            for ni in 0..n {
                for j in 0..w {
                    self.planes[j * n + ni] = self.good[ni * w + j];
                }
            }
        }
    }

    /// Inject `fault` against the current good values and propagate its
    /// effects; returns per-word masks of lanes detected at any primary
    /// output. `on_diff` observes every (node, word) whose value differs
    /// (after masking); `saturate` must be `false` when the caller needs
    /// that enumeration to be exhaustive.
    fn propagate(
        &mut self,
        fault: Fault,
        masks: &[u64; MAX_BLOCK_WORDS],
        saturate: bool,
        on_diff: impl FnMut(NodeId, u64),
    ) -> [u64; MAX_BLOCK_WORDS] {
        self.propagate_words(
            &Injection::Fault(fault),
            masks,
            0,
            self.w,
            saturate,
            on_diff,
        )
    }

    /// Event-driven propagation restricted to block words `j0..j1`
    /// (absolute indices; detect and scratch slots stay absolute).
    /// Lanes are independent, so propagating a sub-range yields exactly
    /// the detect bits a full-width pass would produce in those words —
    /// the dropping loop exploits this to stop at the first detecting
    /// word, and the observability pass runs single words.
    ///
    /// With `saturate`, the propagation stops evaluating as soon as
    /// every masked lane of every word in the range has been detected at
    /// some primary output (the detect words cannot grow further;
    /// remaining events only have their queue flags cleared). Detect
    /// words are exact either way, but the `on_diff` enumeration is
    /// truncated — visitors that need every differing node must pass
    /// `false`.
    fn propagate_words(
        &mut self,
        injection: &Injection,
        masks: &[u64; MAX_BLOCK_WORDS],
        j0: usize,
        j1: usize,
        saturate: bool,
        mut on_diff: impl FnMut(NodeId, u64),
    ) -> [u64; MAX_BLOCK_WORDS] {
        debug_assert!(self.touched.is_empty() && self.undo.is_empty() && self.pending == 0);
        let w = self.w;
        let mut injected = [0u64; MAX_BLOCK_WORDS];
        let site = match *injection {
            Injection::Fault(fault) => {
                let stuck_word = if fault.stuck { u64::MAX } else { 0 };
                match fault.site {
                    FaultSite::Stem(v) => {
                        injected[j0..j1].fill(stuck_word);
                        v.index()
                    }
                    FaultSite::Branch { gate, pin } => {
                        self.eval_inject(gate, pin as usize, stuck_word, &mut injected, j0, j1);
                        gate.index()
                    }
                }
            }
            Injection::Flip(ni) => {
                let good = &self.good[ni * w + j0..ni * w + j1];
                for (o, g) in injected[j0..j1].iter_mut().zip(good) {
                    *o = !g;
                }
                ni
            }
        };
        let mut any = 0u64;
        for j in j0..j1 {
            any |= (injected[j] ^ self.good[site * w + j]) & masks[j];
        }
        if any == 0 {
            return [0; MAX_BLOCK_WORDS];
        }
        self.set_value(site, &injected, j0, j1);
        self.push_consumers(site);
        let mut online = [0u64; MAX_BLOCK_WORDS];
        if saturate && self.is_output[site] {
            for j in j0..j1 {
                online[j] = (injected[j] ^ self.good[site * w + j]) & masks[j];
            }
        }
        let mut saturated = saturate && (j0..j1).all(|j| online[j] == masks[j]);

        let mut new_vals = [0u64; MAX_BLOCK_WORDS];
        // Consumers sit strictly above the site's level; the buckets
        // below it are necessarily empty, so skip them.
        let mut level = self.sim.level(NodeId::from_index(site)) as usize;
        while self.pending > 0 {
            debug_assert!(level < self.buckets.len());
            if self.buckets[level].is_empty() {
                level += 1;
                continue;
            }
            // Take the bucket so `push_consumers` (which only ever
            // targets strictly higher levels) can borrow freely.
            let mut bucket = std::mem::take(&mut self.buckets[level]);
            self.pending -= bucket.len();
            self.counters.events += bucket.len() as u64;
            for &gate in &bucket {
                let gi = gate as usize;
                self.queued[gi] = false;
                if saturated {
                    continue;
                }
                self.eval_node(gi, &mut new_vals, j0, j1);
                let changed = (j0..j1).any(|j| new_vals[j] != self.value_word(gi, j));
                if changed {
                    self.set_value(gi, &new_vals, j0, j1);
                    self.push_consumers(gi);
                    if saturate && self.is_output[gi] {
                        for j in j0..j1 {
                            online[j] |= (new_vals[j] ^ self.good[gi * w + j]) & masks[j];
                        }
                        saturated = (j0..j1).all(|j| online[j] == masks[j]);
                    }
                }
            }
            bucket.clear();
            self.buckets[level] = bucket;
            level += 1;
        }

        let mut detect = [0u64; MAX_BLOCK_WORDS];
        if saturated {
            // Every masked lane in range was seen at an output; the
            // detect words cannot be anything other than the masks, so
            // skip the touched scan (`on_diff` is truncated by contract).
            detect[j0..j1].copy_from_slice(&masks[j0..j1]);
            self.cleanup(j0, j1);
            return detect;
        }
        for ti in 0..self.touched.len() {
            let ni = self.touched[ti] as usize;
            let at_output = self.is_output[ni];
            for j in j0..j1 {
                let diff = (self.values[ni * w + j] ^ self.good[ni * w + j]) & masks[j];
                if diff != 0 {
                    if at_output {
                        detect[j] |= diff;
                    }
                    on_diff(NodeId::from_index(ni), diff);
                }
            }
        }
        self.cleanup(j0, j1);
        detect
    }

    /// Scalar specialization of [`Self::propagate_words`] for a single
    /// word `j` with saturation on and no diff visitor — the shape every
    /// dropping propagation and every stem-observability flip takes.
    ///
    /// Runs over the word-major [`Self::planes`] mirror, so every gate
    /// evaluation reads its fanins at stride 1 (eight node words per
    /// cache line regardless of `w`) with no `* w` index arithmetic.
    /// Each node is written at most once per propagation (the queue
    /// dedups and buckets run in level order), so at write time the old
    /// plane word *is* the good word — detect bits accumulate online and
    /// the final touched scan disappears entirely.
    fn propagate_word(&mut self, injection: &Injection, mask: u64, j: usize) -> u64 {
        debug_assert!(self.touched.is_empty() && self.undo.is_empty() && self.pending == 0);
        let n = self.n_nodes;
        let pb = j * n; // base of word `j`'s plane
        let (site, injected) = match *injection {
            Injection::Fault(fault) => {
                let stuck_word = if fault.stuck { u64::MAX } else { 0 };
                match fault.site {
                    FaultSite::Stem(v) => (v.index(), stuck_word),
                    FaultSite::Branch { gate, pin } => {
                        let mut out = [0u64; MAX_BLOCK_WORDS];
                        self.eval_inject(gate, pin as usize, stuck_word, &mut out, j, j + 1);
                        (gate.index(), out[j])
                    }
                }
            }
            Injection::Flip(ni) => (ni, !self.planes[pb + ni]),
        };
        let old = self.planes[pb + site];
        let site_diff = (injected ^ old) & mask;
        if site_diff == 0 {
            return 0;
        }
        self.touched.push(site as u32);
        self.undo.push(old);
        self.planes[pb + site] = injected;
        self.push_consumers(site);
        let mut detect = if self.is_output[site] { site_diff } else { 0 };
        let mut saturated = detect == mask;
        let mut level = self.sim.level(NodeId::from_index(site)) as usize;
        while self.pending > 0 {
            debug_assert!(level < self.buckets.len());
            if self.buckets[level].is_empty() {
                level += 1;
                continue;
            }
            let mut bucket = std::mem::take(&mut self.buckets[level]);
            self.pending -= bucket.len();
            self.counters.events += bucket.len() as u64;
            for &gate in &bucket {
                let gi = gate as usize;
                self.queued[gi] = false;
                if saturated {
                    continue;
                }
                let program = self.sim.program();
                let op_idx = program
                    .op_index(gi)
                    .expect("scheduled node is a compiled gate");
                let new = program.eval_op_word(op_idx, |node| self.planes[pb + node]);
                let old = self.planes[pb + gi];
                if new != old {
                    self.touched.push(gate);
                    self.undo.push(old);
                    self.planes[pb + gi] = new;
                    self.push_consumers(gi);
                    if self.is_output[gi] {
                        // First (and only) write to this node: `old` is
                        // the good word, so the diff is final here.
                        detect |= (new ^ old) & mask;
                        saturated = detect == mask;
                    }
                }
            }
            bucket.clear();
            self.buckets[level] = bucket;
            level += 1;
        }
        while let Some(ni) = self.touched.pop() {
            let old = self.undo.pop().expect("one undo word per touched node");
            self.planes[pb + ni as usize] = old;
        }
        detect
    }

    /// Re-evaluate compiled gate `gi` against the overlaid values for
    /// words `j0..j1` of `out`.
    fn eval_node(&self, gi: usize, out: &mut [u64; MAX_BLOCK_WORDS], j0: usize, j1: usize) {
        let op_idx = self
            .sim
            .program()
            .op_index(gi)
            .expect("scheduled node is a compiled gate");
        self.eval_op(op_idx, out, j0, j1);
    }

    /// Re-evaluate compiled op `op_idx` against the overlaid values for
    /// words `j0..j1` of `out`.
    fn eval_op(&self, op_idx: usize, out: &mut [u64; MAX_BLOCK_WORDS], j0: usize, j1: usize) {
        let w = self.w;
        self.sim.program().eval_op_wide(
            op_idx,
            j1 - j0,
            |node, j| self.values[node * w + j0 + j],
            &mut out[j0..j1],
        );
    }

    /// Evaluate `gate` with fanin `pin` forced to `stuck_word` (branch-
    /// fault injection) against the *good* values, for words `j0..j1`.
    fn eval_inject(
        &self,
        gate: NodeId,
        pin: usize,
        stuck_word: u64,
        out: &mut [u64],
        j0: usize,
        j1: usize,
    ) {
        let w = self.w;
        let kind = self.sim.circuit().kind(gate);
        let fanins = self.sim.circuit().fanins(gate);
        enum FoldOp {
            And,
            Or,
            Xor,
        }
        let (fold, init, invert) = match kind {
            GateKind::Buf | GateKind::And => (FoldOp::And, u64::MAX, false),
            GateKind::Not | GateKind::Nand => (FoldOp::And, u64::MAX, true),
            GateKind::Or => (FoldOp::Or, 0, false),
            GateKind::Nor => (FoldOp::Or, 0, true),
            GateKind::Xor => (FoldOp::Xor, 0, false),
            GateKind::Xnor => (FoldOp::Xor, 0, true),
            GateKind::Const0 | GateKind::Const1 | GateKind::Input => {
                unreachable!("branch faults only exist on gates")
            }
        };
        for (j, o) in out.iter_mut().enumerate().take(j1).skip(j0) {
            let mut acc = init;
            for (pi, f) in fanins.iter().enumerate() {
                let v = if pi == pin {
                    stuck_word
                } else {
                    self.good[f.index() * w + j]
                };
                match fold {
                    FoldOp::And => acc &= v,
                    FoldOp::Or => acc |= v,
                    FoldOp::Xor => acc ^= v,
                }
            }
            *o = if invert { !acc } else { acc };
        }
    }

    fn value_word(&self, ni: usize, j: usize) -> u64 {
        self.values[ni * self.w + j]
    }

    /// Overwrite node `ni`'s words `j0..j1`, logging the old words for
    /// rollback. Each node is written at most once per propagation (the
    /// site once, gates once each via queue dedup), and `cleanup`
    /// restores in reverse order regardless.
    fn set_value(&mut self, ni: usize, words: &[u64; MAX_BLOCK_WORDS], j0: usize, j1: usize) {
        let w = self.w;
        self.touched.push(ni as u32);
        self.undo
            .extend_from_slice(&self.values[ni * w + j0..ni * w + j1]);
        self.values[ni * w + j0..ni * w + j1].copy_from_slice(&words[j0..j1]);
    }

    fn push_consumers(&mut self, ni: usize) {
        let start = self.consumer_start[ni] as usize;
        let end = self.consumer_start[ni + 1] as usize;
        for k in start..end {
            let gate = self.consumer_idx[k];
            let gi = gate as usize;
            if !self.queued[gi] {
                self.queued[gi] = true;
                self.buckets[self.consumer_level[k] as usize].push(gate);
                self.pending += 1;
            }
        }
    }

    /// Roll back every `set_value` of the current propagation (LIFO, so
    /// repeated writes to a node would also unwind correctly).
    fn cleanup(&mut self, j0: usize, j1: usize) {
        let w = self.w;
        let nw = j1 - j0;
        while let Some(ni) = self.touched.pop() {
            let ni = ni as usize;
            let base = self.undo.len() - nw;
            self.values[ni * w + j0..ni * w + j1].copy_from_slice(&self.undo[base..]);
            self.undo.truncate(base);
        }
    }

    // ----- critical path tracing -------------------------------------

    /// Root of the FFR containing `fault`'s site. A branch fault lives on
    /// an input line of its gate, which always belongs to the gate's
    /// region (the driver may be a stem, but the *line* past the fanout
    /// point does not).
    fn fault_root(&self, fault: Fault) -> u32 {
        let anchor = match fault.site {
            FaultSite::Stem(v) => v.index(),
            FaultSite::Branch { gate, .. } => gate.index(),
        };
        self.ffr_root[anchor]
    }

    /// Mark the region rooted at `root` for this block's sweep.
    fn mark_region(&mut self, root: u32) {
        if !self.region_active[root as usize] {
            self.region_active[root as usize] = true;
            self.active_roots.push(root);
        }
    }

    fn clear_regions(&mut self) {
        for r in self.active_roots.drain(..) {
            self.region_active[r as usize] = false;
        }
        for r in self.obs_ready_list.drain(..) {
            self.obs_ready[r as usize] = 0;
        }
    }

    /// Compute this block's *local* line sensitizations for every active
    /// region: seed each root's `sens` slot with the lane masks, then run
    /// one backward sweep distributing path sensitization down to every
    /// line inside the active regions. Stem observability is *not* folded
    /// in here — it is fetched lazily per root by [`Self::cpt_detect`],
    /// so regions whose faults are never locally detected in this block
    /// (unexcited or locally masked — the common case for the
    /// hard-to-detect tail that dominates dropping runs) never pay for a
    /// flip propagation at all.
    fn cpt_sweep_active(&mut self, masks: &[u64; MAX_BLOCK_WORDS]) {
        let w = self.w;
        for k in 0..self.active_roots.len() {
            let r = self.active_roots[k] as usize;
            self.sens[r * w..r * w + w].copy_from_slice(&masks[..w]);
        }
        let FaultSimulator {
            sim,
            sens,
            sens_scratch,
            good,
            ffr_root,
            region_active,
            ..
        } = self;
        let (program, scratch) = (sim.program(), sens_scratch);
        match w {
            1 => compile::sens_sweep::<1>(program, sens, good, scratch, ffr_root, region_active),
            2 => compile::sens_sweep::<2>(program, sens, good, scratch, ffr_root, region_active),
            4 => compile::sens_sweep::<4>(program, sens, good, scratch, ffr_root, region_active),
            8 => compile::sens_sweep::<8>(program, sens, good, scratch, ffr_root, region_active),
            _ => unreachable!("width validated at construction"),
        }
    }

    /// Observability word `j` of stem `r` for the current block: lanes
    /// where flipping `r` is visible at a primary output. Computed by one
    /// dense flip propagation over the stem's cached cone, then memoized
    /// until [`Self::clear_regions`]; all faults collapsing onto the stem
    /// share the cached word, and words a block never asks for (every
    /// fault on the stem already killed by an earlier word, or not
    /// locally detected there) are never computed.
    fn stem_obs_word(&mut self, r: usize, j: usize, masks: &[u64; MAX_BLOCK_WORDS]) -> u64 {
        let w = self.w;
        if self.obs_ready[r] & (1 << j) == 0 {
            self.counters.stem_obs_misses += 1;
            let word = self.flip_obs_word(r, j, masks);
            self.stem_obs[r * w + j] = word;
            if self.obs_ready[r] == 0 {
                self.obs_ready_list.push(r as u32);
            }
            self.obs_ready[r] |= 1 << j;
        } else {
            self.counters.stem_obs_hits += 1;
        }
        self.stem_obs[r * w + j]
    }

    /// One single-word flip propagation from stem `r`: the lanes in
    /// which `!good` at `r` reaches some primary output. Runs the same
    /// event-driven kernel as fault propagation, with saturation enabled
    /// — once every masked lane of the word has been detected at some
    /// output the remaining events only clear their flags.
    fn flip_obs_word(&mut self, r: usize, j: usize, masks: &[u64; MAX_BLOCK_WORDS]) -> u64 {
        self.propagate_word(&Injection::Flip(r), masks[j], j)
    }

    /// Detection words for `fault` from the swept sensitization state:
    /// excitation (lanes whose good value differs from the stuck value)
    /// AND local path sensitization to the region root AND the root's
    /// stem observability. Exact because the line's path to its region
    /// root is unique and all side inputs keep their fault-free values.
    ///
    /// Work is ordered cheapest-first so the hard-to-detect tail that
    /// dominates dropping runs pays almost nothing per block: an
    /// unexcited fault exits before its line sensitization is even
    /// computed, a locally-masked fault exits before any stem
    /// observability is fetched, and the per-word fetch itself is
    /// memoized across the faults collapsing onto the stem (and skipped
    /// wholesale when the root is a primary output, where the local
    /// words are already final). With `first_only`, words after the
    /// first detecting one are left zero — callers that only take the
    /// first set lane (the dropping loop) never pay for them.
    fn cpt_detect(
        &mut self,
        fault: Fault,
        root: u32,
        masks: &[u64; MAX_BLOCK_WORDS],
        first_only: bool,
    ) -> [u64; MAX_BLOCK_WORDS] {
        let w = self.w;
        let mut detect = [0u64; MAX_BLOCK_WORDS];
        let driver = match fault.site {
            FaultSite::Stem(v) => v.index(),
            FaultSite::Branch { gate, pin } => {
                self.sim.circuit().fanins(gate)[pin as usize].index()
            }
        };
        let mut excite = [0u64; MAX_BLOCK_WORDS];
        let mut any = 0u64;
        for j in 0..w {
            let good = self.good[driver * w + j];
            excite[j] = if fault.stuck { !good } else { good } & masks[j];
            any |= excite[j];
        }
        if any == 0 {
            return detect;
        }
        let local = match fault.site {
            FaultSite::Stem(v) => {
                let ni = v.index();
                let mut local = [0u64; MAX_BLOCK_WORDS];
                local[..w].copy_from_slice(&self.sens[ni * w..ni * w + w]);
                local
            }
            FaultSite::Branch { gate, pin } => self.branch_line_obs(gate.index(), pin as usize),
        };
        let root = root as usize;
        let root_is_output = self.is_output[root];
        for j in 0..w {
            let mut d = local[j] & excite[j];
            if d != 0 && !root_is_output {
                d &= self.stem_obs_word(root, j, masks);
            }
            detect[j] = d;
            if first_only && d != 0 {
                break;
            }
        }
        detect
    }

    /// Observability of the branch line feeding `pin` of gate `gi`: the
    /// gate's output observability AND-ed with that pin's sensitivity.
    fn branch_line_obs(&mut self, gi: usize, pin: usize) -> [u64; MAX_BLOCK_WORDS] {
        match self.w {
            1 => self.branch_line_obs_w::<1>(gi, pin),
            2 => self.branch_line_obs_w::<2>(gi, pin),
            4 => self.branch_line_obs_w::<4>(gi, pin),
            8 => self.branch_line_obs_w::<8>(gi, pin),
            _ => unreachable!("width validated at construction"),
        }
    }

    fn branch_line_obs_w<const W: usize>(
        &mut self,
        gi: usize,
        pin: usize,
    ) -> [u64; MAX_BLOCK_WORDS] {
        let op_idx = self
            .sim
            .program()
            .op_index(gi)
            .expect("branch faults only exist on compiled gates");
        let mut out_sens = [0u64; W];
        out_sens.copy_from_slice(&self.sens[gi * W..][..W]);
        let mut obs = [0u64; MAX_BLOCK_WORDS];
        let FaultSimulator {
            sim,
            sens_scratch,
            good,
            ..
        } = self;
        let good: &[u64] = good;
        sim.program().sens_op_wide::<W>(
            op_idx,
            &out_sens,
            good,
            sens_scratch,
            &mut |p, _fanin, line| {
                if p as usize == pin {
                    obs[..W].copy_from_slice(line);
                }
            },
        );
        obs
    }
}

/// Per-word valid-lane masks for a block carrying `lanes` patterns.
fn lane_masks(lanes: u64, w: usize) -> [u64; MAX_BLOCK_WORDS] {
    let mut masks = [0u64; MAX_BLOCK_WORDS];
    for (j, mask) in masks.iter_mut().take(w).enumerate() {
        let lo = j as u64 * 64;
        *mask = if lanes >= lo + 64 {
            u64::MAX
        } else if lanes > lo {
            (1u64 << (lanes - lo)) - 1
        } else {
            0
        };
    }
    masks
}

/// Offset of the first set lane across detect words (word-major).
pub(crate) fn first_lane(detect: &[u64]) -> Option<u64> {
    detect
        .iter()
        .enumerate()
        .find(|(_, &word)| word != 0)
        .map(|(j, &word)| j as u64 * 64 + u64::from(word.trailing_zeros()))
}

/// Total set lanes across detect words.
fn ones(detect: &[u64; MAX_BLOCK_WORDS]) -> u64 {
    detect.iter().map(|word| u64::from(word.count_ones())).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ExhaustivePatterns, FaultUniverse, RandomPatterns};
    use tpi_netlist::{CircuitBuilder, GateKind};

    fn sample() -> Circuit {
        let mut b = CircuitBuilder::new("s");
        let a = b.input("a");
        let c = b.input("b");
        let d = b.input("d");
        let g1 = b.gate(GateKind::And, vec![a, c], "g1").unwrap();
        let g2 = b.gate(GateKind::Or, vec![g1, d], "g2").unwrap();
        b.output(g2);
        b.finish().unwrap()
    }

    /// Reference: detect fault by comparing full faulty-circuit evaluation.
    fn reference_detects(c: &Circuit, fault: Fault, assignment: &[bool]) -> bool {
        let good = c.evaluate(assignment).unwrap();
        // Evaluate faulty circuit naively.
        let topo = Topology::of(c).unwrap();
        let mut vals = vec![false; c.node_count()];
        for (&i, &v) in c.inputs().iter().zip(assignment) {
            vals[i.index()] = v;
        }
        for &id in topo.order() {
            let node = c.node(id);
            if !node.kind().is_source() {
                let fanins: Vec<bool> = node
                    .fanins()
                    .iter()
                    .enumerate()
                    .map(|(pin, f)| {
                        let mut v = vals[f.index()];
                        if let FaultSite::Branch { gate, pin: fp } = fault.site {
                            if gate == id && fp as usize == pin {
                                v = fault.stuck;
                            }
                        }
                        v
                    })
                    .collect();
                vals[id.index()] = node.kind().eval(fanins.iter().copied());
            }
            if let FaultSite::Stem(v) = fault.site {
                if v == id {
                    vals[id.index()] = fault.stuck;
                }
            }
        }
        c.outputs()
            .iter()
            .any(|o| vals[o.index()] != good[o.index()])
    }

    #[test]
    fn matches_reference_exhaustively() {
        let c = sample();
        let universe = FaultUniverse::full(&c).unwrap();
        let mut sim = FaultSimulator::new(&c).unwrap();
        let mut src = ExhaustivePatterns::new(3);
        let (counts, n) = sim.run_counting(&mut src, 8, universe.faults()).unwrap();
        assert_eq!(n, 8);
        for (fi, &fault) in universe.faults().iter().enumerate() {
            let mut expected = 0u64;
            for p in 0..8u32 {
                let assignment: Vec<bool> = (0..3).map(|i| p & (1 << i) != 0).collect();
                if reference_detects(&c, fault, &assignment) {
                    expected += 1;
                }
            }
            assert_eq!(counts[fi], expected, "fault {}", fault.describe(&c));
        }
    }

    #[test]
    fn run_with_dropping_covers_everything_detectable() {
        let c = sample();
        let universe = FaultUniverse::collapsed(&c).unwrap();
        let mut sim = FaultSimulator::new(&c).unwrap();
        let mut src = RandomPatterns::new(3, 42);
        let result = sim.run(&mut src, 512, universe.faults()).unwrap();
        assert_eq!(result.coverage(), 1.0);
        // First detections are within the applied pattern budget.
        for i in 0..universe.len() {
            assert!(result.first_detection(i).unwrap() < result.patterns_applied());
        }
    }

    #[test]
    fn branch_fault_differs_from_stem_fault() {
        // a fans out to g1 (AND with x) and g2 (AND with y). Branch SA1 on
        // the a→g1 pin is detectable independently of the a→g2 pin.
        let mut b = CircuitBuilder::new("c");
        let a = b.input("a");
        let x = b.input("x");
        let y = b.input("y");
        let g1 = b.gate(GateKind::And, vec![a, x], "g1").unwrap();
        let g2 = b.gate(GateKind::And, vec![a, y], "g2").unwrap();
        b.output(g1);
        b.output(g2);
        let c = b.finish().unwrap();
        let branch = Fault {
            site: FaultSite::Branch { gate: g1, pin: 0 },
            stuck: true,
        };
        let stem = Fault::stem_sa1(a);
        let mut sim = FaultSimulator::new(&c).unwrap();
        let mut src = ExhaustivePatterns::new(3);
        let (counts, _) = sim.run_counting(&mut src, 8, &[branch, stem]).unwrap();
        // Branch SA1 detected when a=0, x=1 (2 patterns: y free).
        assert_eq!(counts[0], 2);
        // Stem SA1 detected when a=0 and (x=1 or y=1): 3 patterns.
        assert_eq!(counts[1], 3);
    }

    #[test]
    fn undetectable_fault_stays_undetected() {
        // y = OR(x, NOT(x)) is constant 1: y/SA1 is undetectable.
        let mut b = CircuitBuilder::new("c");
        let x = b.input("x");
        let nx = b.gate(GateKind::Not, vec![x], "nx").unwrap();
        let y = b.gate(GateKind::Or, vec![x, nx], "y").unwrap();
        b.output(y);
        let c = b.finish().unwrap();
        let mut sim = FaultSimulator::new(&c).unwrap();
        let mut src = ExhaustivePatterns::new(1);
        let result = sim.run(&mut src, 2, &[Fault::stem_sa1(y)]).unwrap();
        assert_eq!(result.detected_count(), 0);
        assert_eq!(result.patterns_applied(), 2);
    }

    #[test]
    fn max_patterns_respected_mid_block() {
        let c = sample();
        let universe = FaultUniverse::collapsed(&c).unwrap();
        let mut sim = FaultSimulator::new(&c).unwrap();
        let mut src = RandomPatterns::new(3, 1);
        let result = sim.run(&mut src, 10, universe.faults()).unwrap();
        assert_eq!(result.patterns_applied(), 10);
        for i in 0..universe.len() {
            if let Some(p) = result.first_detection(i) {
                assert!(p < 10);
            }
        }
    }

    #[test]
    fn observation_point_makes_fault_detectable() {
        // Internal node masked from the output; observing it exposes the
        // fault. y = AND(g, 0-ish)? Build: g = XOR(a,b); y = AND(g, c) with
        // c tied low via AND(a, NOT(a)).
        let mut b = CircuitBuilder::new("c");
        let a = b.input("a");
        let bb = b.input("b");
        let na = b.gate(GateKind::Not, vec![a], "na").unwrap();
        let zero = b.gate(GateKind::And, vec![a, na], "zero").unwrap();
        let g = b.gate(GateKind::Xor, vec![a, bb], "g").unwrap();
        let y = b.gate(GateKind::And, vec![g, zero], "y").unwrap();
        b.output(y);
        let c = b.finish().unwrap();
        let fault = Fault::stem_sa0(g);
        let mut sim = FaultSimulator::new(&c).unwrap();
        let mut src = ExhaustivePatterns::new(2);
        let r = sim.run(&mut src, 4, &[fault]).unwrap();
        assert_eq!(r.detected_count(), 0, "masked without observation");

        let (obs, _) =
            tpi_netlist::transform::apply_plan(&c, &[tpi_netlist::TestPoint::observe(g)]).unwrap();
        let mut sim2 = FaultSimulator::new(&obs).unwrap();
        let mut src2 = ExhaustivePatterns::new(2);
        let r2 = sim2.run(&mut src2, 4, &[fault]).unwrap();
        assert_eq!(r2.detected_count(), 1, "observable after OP");
    }

    #[test]
    fn visiting_reports_fault_effects_at_nodes() {
        let c = sample();
        let g1 = c.find_node("g1").unwrap();
        let fault = Fault::stem_sa1(g1);
        let mut sim = FaultSimulator::new(&c).unwrap();
        let mut src = ExhaustivePatterns::new(3);
        let mut at_g1 = 0u64;
        let (_, n) = sim
            .run_visiting(&mut src, 8, &[fault], |fi, node, diff| {
                assert_eq!(fi, 0);
                if node == g1 {
                    at_g1 += u64::from(diff.count_ones());
                }
            })
            .unwrap();
        assert_eq!(n, 8);
        // g1 = AND(a,b): SA1 present whenever g1=0, i.e. 6 of 8 patterns.
        assert_eq!(at_g1, 6);
    }

    #[test]
    fn scratch_state_is_clean_between_faults() {
        // Two consecutive runs give identical results.
        let c = sample();
        let universe = FaultUniverse::full(&c).unwrap();
        let mut sim = FaultSimulator::new(&c).unwrap();
        let mut s1 = ExhaustivePatterns::new(3);
        let (c1, _) = sim.run_counting(&mut s1, 8, universe.faults()).unwrap();
        let mut s2 = ExhaustivePatterns::new(3);
        let (c2, _) = sim.run_counting(&mut s2, 8, universe.faults()).unwrap();
        assert_eq!(c1, c2);
    }

    #[test]
    fn gate_consuming_signal_twice() {
        let mut b = CircuitBuilder::new("c");
        let a = b.input("a");
        let g = b.gate(GateKind::Xor, vec![a, a], "g").unwrap(); // constant 0
        let h = b.gate(GateKind::Or, vec![g, a], "h").unwrap();
        b.output(h);
        let c = b.finish().unwrap();
        let mut sim = FaultSimulator::new(&c).unwrap();
        let mut src = ExhaustivePatterns::new(1);
        // g/SA1: h = OR(1, a) = 1; good h = a. Detected when a=0.
        let (counts, _) = sim
            .run_counting(&mut src, 2, &[Fault::stem_sa1(g)])
            .unwrap();
        assert_eq!(counts[0], 1);
    }

    /// Wider circuit exercising deep propagation under every width.
    fn tree_circuit() -> Circuit {
        let mut b = CircuitBuilder::new("t");
        let xs = b.inputs(9, "x");
        let a = b.balanced_tree(GateKind::Nand, &xs[..3], "a").unwrap();
        let o = b.balanced_tree(GateKind::Nor, &xs[3..6], "o").unwrap();
        let x = b.balanced_tree(GateKind::Xor, &xs[6..], "p").unwrap();
        let m = b.gate(GateKind::And, vec![a, o, x], "m").unwrap();
        let y = b.gate(GateKind::Xor, vec![m, a], "y").unwrap();
        b.output(y);
        b.output(o);
        b.finish().unwrap()
    }

    #[test]
    fn wide_blocks_match_narrow_first_detections() {
        let c = tree_circuit();
        let universe = FaultUniverse::collapsed(&c).unwrap();
        let mut narrow = FaultSimulator::with_block_words(&c, 1).unwrap();
        let mut src = RandomPatterns::new(9, 5);
        let reference = narrow.run(&mut src, 1000, universe.faults()).unwrap();
        for w in [2usize, 4, 8] {
            let mut wide = FaultSimulator::with_block_words(&c, w).unwrap();
            assert_eq!(wide.block_words(), w);
            let mut src = RandomPatterns::new(9, 5);
            let result = wide.run(&mut src, 1000, universe.faults()).unwrap();
            assert_eq!(
                result.patterns_applied(),
                reference.patterns_applied(),
                "w={w}"
            );
            for i in 0..universe.len() {
                assert_eq!(
                    result.first_detection(i),
                    reference.first_detection(i),
                    "fault {i} at w={w}"
                );
            }
        }
    }

    #[test]
    fn wide_blocks_match_narrow_counts_and_visits() {
        let c = tree_circuit();
        let universe = FaultUniverse::collapsed(&c).unwrap();
        let mut narrow = FaultSimulator::with_block_words(&c, 1).unwrap();
        let mut src = ExhaustivePatterns::new(9);
        let mut visits_narrow = std::collections::HashMap::new();
        let (counts_ref, n_ref) = narrow
            .run_visiting(&mut src, 512, universe.faults(), |fi, node, diff| {
                *visits_narrow.entry((fi, node)).or_insert(0u64) += u64::from(diff.count_ones());
            })
            .unwrap();
        for w in [2usize, 4, 8] {
            let mut wide = FaultSimulator::with_block_words(&c, w).unwrap();
            let mut src = ExhaustivePatterns::new(9);
            let mut visits = std::collections::HashMap::new();
            let (counts, n) = wide
                .run_visiting(&mut src, 512, universe.faults(), |fi, node, diff| {
                    *visits.entry((fi, node)).or_insert(0u64) += u64::from(diff.count_ones());
                })
                .unwrap();
            assert_eq!(n, n_ref, "w={w}");
            assert_eq!(counts, counts_ref, "w={w}");
            assert_eq!(visits, visits_narrow, "w={w}");
        }
    }

    #[test]
    fn wide_tail_respects_max_patterns() {
        // 300 is not a multiple of any supported block width × 64.
        let c = tree_circuit();
        let universe = FaultUniverse::collapsed(&c).unwrap();
        let mut narrow = FaultSimulator::with_block_words(&c, 1).unwrap();
        let mut src = RandomPatterns::new(9, 77);
        let (counts_ref, n_ref) = narrow
            .run_counting(&mut src, 300, universe.faults())
            .unwrap();
        assert_eq!(n_ref, 300);
        for w in [2usize, 4, 8] {
            let mut wide = FaultSimulator::with_block_words(&c, w).unwrap();
            let mut src = RandomPatterns::new(9, 77);
            let (counts, n) = wide.run_counting(&mut src, 300, universe.faults()).unwrap();
            assert_eq!(n, 300, "w={w}");
            assert_eq!(counts, counts_ref, "w={w}");
        }
    }

    #[test]
    fn partial_source_blocks_stop_a_wide_block_early() {
        // ExhaustivePatterns over 3 inputs yields one 8-lane block; a
        // wide simulator must not mix further (empty) words into it.
        let c = sample();
        let universe = FaultUniverse::full(&c).unwrap();
        for w in [2usize, 4, 8] {
            let mut wide = FaultSimulator::with_block_words(&c, w).unwrap();
            let mut src = ExhaustivePatterns::new(3);
            let (counts, n) = wide.run_counting(&mut src, 64, universe.faults()).unwrap();
            assert_eq!(n, 8, "w={w}");
            let mut narrow = FaultSimulator::with_block_words(&c, 1).unwrap();
            let mut src = ExhaustivePatterns::new(3);
            let (counts_ref, _) = narrow
                .run_counting(&mut src, 64, universe.faults())
                .unwrap();
            assert_eq!(counts, counts_ref, "w={w}");
        }
    }

    #[test]
    #[should_panic(expected = "unsupported block width")]
    fn rejects_unsupported_block_width() {
        let c = sample();
        let _ = FaultSimulator::with_block_words(&c, 3);
    }

    #[test]
    fn default_options_use_cpt() {
        let c = sample();
        let sim = FaultSimulator::new(&c).unwrap();
        assert_eq!(sim.detection(), DetectionMode::CriticalPathTracing);
        assert_eq!(sim.block_words(), DEFAULT_BLOCK_WORDS);
        let opts = SimOptions {
            detection: DetectionMode::Explicit,
            ..SimOptions::default()
        };
        let sim = FaultSimulator::with_options(&c, opts).unwrap();
        assert_eq!(sim.detection(), DetectionMode::Explicit);
    }

    fn explicit(c: &Circuit, w: usize) -> FaultSimulator {
        let opts = SimOptions {
            block_words: w,
            detection: DetectionMode::Explicit,
            ..SimOptions::default()
        };
        FaultSimulator::with_options(c, opts).unwrap()
    }

    fn cpt(c: &Circuit, w: usize) -> FaultSimulator {
        let opts = SimOptions {
            block_words: w,
            detection: DetectionMode::CriticalPathTracing,
            ..SimOptions::default()
        };
        FaultSimulator::with_options(c, opts).unwrap()
    }

    /// CPT equals explicit mode bit for bit — dropping runs (first
    /// detections, patterns applied) and counting runs — on a circuit
    /// mixing reconvergent stems, multi-output regions, XOR trees and
    /// wide gates, at every supported width.
    #[test]
    fn cpt_matches_explicit_on_reconvergent_circuit() {
        let c = tree_circuit();
        let universe = FaultUniverse::full(&c).unwrap();
        for w in [1usize, 2, 4, 8] {
            let mut src = RandomPatterns::new(9, 11);
            let reference = explicit(&c, w)
                .run(&mut src, 1000, universe.faults())
                .unwrap();
            let mut src = RandomPatterns::new(9, 11);
            let result = cpt(&c, w).run(&mut src, 1000, universe.faults()).unwrap();
            assert_eq!(
                result.patterns_applied(),
                reference.patterns_applied(),
                "w={w}"
            );
            for i in 0..universe.len() {
                assert_eq!(
                    result.first_detection(i),
                    reference.first_detection(i),
                    "fault {} at w={w}",
                    universe.faults()[i].describe(&c)
                );
            }

            let mut src = ExhaustivePatterns::new(9);
            let (counts_ref, _) = explicit(&c, w)
                .run_counting(&mut src, 512, universe.faults())
                .unwrap();
            let mut src = ExhaustivePatterns::new(9);
            let (counts, _) = cpt(&c, w)
                .run_counting(&mut src, 512, universe.faults())
                .unwrap();
            assert_eq!(counts, counts_ref, "w={w}");
        }
    }

    /// CPT handles the degenerate region shapes exactly: gates consuming
    /// a signal twice (pin-level fanout makes the driver a root),
    /// constant drivers, dangling stems and undetectable faults.
    #[test]
    fn cpt_matches_explicit_on_degenerate_shapes() {
        let mut b = CircuitBuilder::new("c");
        let a = b.input("a");
        let x = b.input("x");
        let g = b.gate(GateKind::Xor, vec![a, a], "g").unwrap(); // constant 0
        let nx = b.gate(GateKind::Not, vec![x], "nx").unwrap();
        let t = b.gate(GateKind::Or, vec![x, nx], "t").unwrap(); // constant 1
        let h = b.gate(GateKind::And, vec![g, t, a], "h").unwrap();
        let dangle = b.gate(GateKind::Not, vec![h], "dangle").unwrap();
        let _ = dangle; // no output tap: h is a root via the dangling branch
        b.output(h);
        let c = b.finish().unwrap();
        let universe = FaultUniverse::full(&c).unwrap();
        for w in [1usize, 4] {
            let mut src = ExhaustivePatterns::new(2);
            let (counts_ref, _) = explicit(&c, w)
                .run_counting(&mut src, 4, universe.faults())
                .unwrap();
            let mut src = ExhaustivePatterns::new(2);
            let (counts, _) = cpt(&c, w)
                .run_counting(&mut src, 4, universe.faults())
                .unwrap();
            assert_eq!(counts, counts_ref, "w={w}");
        }
    }

    /// The explicit word-at-a-time dropping loop is exact at every width
    /// (a fault killed in word j is never evaluated past word j, but its
    /// first detection must not move).
    #[test]
    fn explicit_dropping_matches_across_widths() {
        let c = tree_circuit();
        let universe = FaultUniverse::collapsed(&c).unwrap();
        let mut src = RandomPatterns::new(9, 5);
        let reference = explicit(&c, 1)
            .run(&mut src, 1000, universe.faults())
            .unwrap();
        for w in [2usize, 4, 8] {
            let mut src = RandomPatterns::new(9, 5);
            let result = explicit(&c, w)
                .run(&mut src, 1000, universe.faults())
                .unwrap();
            assert_eq!(
                result.patterns_applied(),
                reference.patterns_applied(),
                "w={w}"
            );
            for i in 0..universe.len() {
                assert_eq!(
                    result.first_detection(i),
                    reference.first_detection(i),
                    "fault {i} at w={w}"
                );
            }
        }
    }
}
