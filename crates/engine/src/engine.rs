//! The long-lived TPI session engine.

use std::sync::Arc;

use tpi_compaction::{
    CubeConfig, CubeSet, PatternsConfig, PatternsOptimizer, PatternsOutcome, PatternsRound,
};
use tpi_core::general::{
    extract_region, gather_candidates, ConstructiveOutcome, RegionExtraction, RoundReport,
};
use tpi_core::{
    CandidateEval, CostModel, DpConfig, DpOptimizer, Plan, TargetFault, Threshold, TpiError,
    TpiProblem,
};
use tpi_netlist::analysis::dirty_line_mask;
use tpi_netlist::ffr::FfrDecomposition;
use tpi_netlist::transform::{apply_test_point, AppliedTestPoint};
use tpi_netlist::{Circuit, NodeId, TestPoint, TestPointKind, Topology};
use tpi_obs::{Counter, Histogram, Registry};
use tpi_sim::{
    score_candidate_groups, BackendChoice, DetectionMode, FaultSimResult, FaultSimulator,
    FaultUniverse, IndependentPatterns, RunControl, SimOptions, StopReason,
};
use tpi_testability::CopAnalysis;

use crate::memo::{region_fingerprint, DpMemo, SharedDpMemo};

/// Session-wide tuning for [`TpiEngine`].
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Pattern budget of every coverage measurement.
    pub patterns: u64,
    /// Seed of the session's [`IndependentPatterns`] stream.
    pub seed: u64,
    /// Ignored. Kept only so the benchmark driver under `perfbench/`
    /// keeps building; nothing reads it.
    pub verify_incremental: bool,
    /// Fault-simulation block width in 64-bit words (patterns per kernel
    /// pass / 64); must be 0, 1, 2, 4 or 8, where 0 (the default)
    /// auto-selects by circuit size. Coverage measurements are
    /// bit-identical at every width — this only trades memory for
    /// throughput.
    pub block_words: usize,
    /// Fault-detection algorithm for every coverage measurement. Both
    /// modes are bit-identical; critical path tracing (the default) is
    /// faster on circuits with substantial fanout-free regions.
    pub detection: DetectionMode,
    /// Ignored. Kept only so the benchmark driver under `perfbench/`
    /// keeps building; nothing reads it.
    pub simd_backend: BackendChoice,
    /// Candidate-group scoring path: the batched scorer (default)
    /// compiles one simulator per round and simulates only each group's
    /// dirty faults; `legacy` re-simulates every undetected fault per group.
    /// Both select bit-identical groups.
    pub candidate_eval: CandidateEval,
    /// Worker threads for batched candidate scoring (1 = sequential).
    /// The merge is group-index-ordered, so the selected group is
    /// bit-identical at every thread count.
    pub score_threads: usize,
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig {
            patterns: 4096,
            seed: 0xDAC_1987,
            verify_incremental: false,
            block_words: 0,
            detection: DetectionMode::default(),
            simd_backend: BackendChoice::default(),
            candidate_eval: CandidateEval::default(),
            score_threads: 1,
        }
    }
}

/// Counters exposing what the engine's caches actually did.
///
/// Since the observability migration this is a point-in-time *view*
/// assembled from the session's [`Registry`] (see
/// [`TpiEngine::registry`]); the registry additionally carries the
/// fault-sim kernel counters (`sim.*`) and the latency histograms that
/// have no place in this flat struct.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Derived-analysis bundles rebuilt (topology + COP + FFR).
    pub analysis_rebuilds: u64,
    /// Derived-analysis requests served from cache.
    pub analysis_hits: u64,
    /// Coverage measurements (full fault simulations over the whole
    /// universe).
    pub full_sims: u64,
    /// Region DP solutions replayed from the memo.
    pub memo_hits: u64,
    /// Region DP solutions computed and cached.
    pub memo_misses: u64,
    /// Memo misses left unsolved because their region provably could not
    /// enter the round's kept list.
    pub region_dp_skipped: u64,
}

/// Live registry handles behind [`EngineStats`], plus the histograms the
/// flat struct cannot carry. Handles are resolved once at session
/// construction so the measurement paths never touch the registry lock.
struct EngineMetrics {
    registry: Arc<Registry>,
    analysis_rebuilds: Arc<Counter>,
    analysis_hits: Arc<Counter>,
    full_sims: Arc<Counter>,
    memo_hits: Arc<Counter>,
    memo_misses: Arc<Counter>,
    region_dp_skipped: Arc<Counter>,
    /// Wall clock of measurement runs, microseconds.
    full_sim_us: Arc<Histogram>,
    /// Candidate groups scored by the search referee.
    candidates_evaluated: Arc<Counter>,
    /// Scored faults the batched referee's reach filter left out of
    /// control/full candidate runs (summed over candidates).
    faults_filtered: Arc<Counter>,
    /// Referee rounds (one `pick_by_simulation` call each).
    search_rounds: Arc<Counter>,
    /// Wall clock of one candidate group's evaluation, microseconds.
    candidate_eval_us: Arc<Histogram>,
    /// Wall clock of one [`TpiEngine::optimize`] call, microseconds.
    optimize_us: Arc<Histogram>,
    /// Wall clock of one region-DP solve (memo misses only; the count is
    /// the number of solves), microseconds.
    region_dp_us: Arc<Histogram>,
}

impl EngineMetrics {
    fn new(registry: Arc<Registry>) -> EngineMetrics {
        EngineMetrics {
            analysis_rebuilds: registry.counter("engine.analysis_rebuilds"),
            analysis_hits: registry.counter("engine.analysis_hits"),
            full_sims: registry.counter("engine.full_sims"),
            memo_hits: registry.counter("engine.memo_hits"),
            memo_misses: registry.counter("engine.memo_misses"),
            region_dp_skipped: registry.counter("engine.region_dp_skipped"),
            full_sim_us: registry.histogram("engine.full_sim_us"),
            candidates_evaluated: registry.counter("search.candidates_evaluated"),
            faults_filtered: registry.counter("search.faults_filtered"),
            search_rounds: registry.counter("search.rounds"),
            candidate_eval_us: registry.histogram("search.candidate_eval_us"),
            optimize_us: registry.histogram("engine.optimize_us"),
            region_dp_us: registry.histogram("engine.region_dp_us"),
            registry,
        }
    }

    fn stats(&self) -> EngineStats {
        EngineStats {
            analysis_rebuilds: self.analysis_rebuilds.get(),
            analysis_hits: self.analysis_hits.get(),
            full_sims: self.full_sims.get(),
            memo_hits: self.memo_hits.get(),
            memo_misses: self.memo_misses.get(),
            region_dp_skipped: self.region_dp_skipped.get(),
        }
    }
}

/// Derived analyses of the current circuit, rebuilt together whenever the
/// netlist version moves.
pub struct Analyses {
    version: u64,
    /// Levelized topology.
    pub topo: Topology,
    /// COP controllability/observability profile.
    pub cop: CopAnalysis,
    /// Fanout-free-region decomposition.
    pub ffr: FfrDecomposition,
}

struct SimState {
    version: u64,
    result: FaultSimResult,
}

/// The cached deterministic test set of one netlist version under one
/// generation configuration (the pattern-count analogue of [`SimState`]).
struct CubeState {
    version: u64,
    max_backtracks: u64,
    fill_seed: u64,
    set: Arc<CubeSet>,
}

/// Loop tuning for [`TpiEngine::optimize`] (the engine-side constructive
/// driver; measurement patterns and seed come from [`EngineConfig`]).
#[derive(Clone, Debug)]
pub struct OptimizeConfig {
    /// Maximum insertion rounds.
    pub max_rounds: usize,
    /// Stop once fault coverage reaches this fraction.
    pub target_coverage: f64,
    /// Stop once plan cost reaches this budget.
    pub max_cost: f64,
    /// DP configuration used inside regions.
    pub dp: DpConfig,
    /// Region plans committed per round before re-measuring.
    pub regions_per_round: usize,
}

impl Default for OptimizeConfig {
    fn default() -> OptimizeConfig {
        OptimizeConfig {
            max_rounds: 24,
            target_coverage: 1.0,
            max_cost: f64::INFINITY,
            dp: DpConfig::default(),
            regions_per_round: 4,
        }
    }
}

/// A long-lived test-point-insertion session over one circuit.
///
/// The engine owns the circuit and keeps everything derived from it —
/// topology, COP profile, FFR decomposition, the collapsed fault universe
/// of the *base* circuit, and the latest coverage measurement — cached and
/// keyed by [`Circuit::version`], so repeated queries cost nothing and
/// edits invalidate exactly what they must. An edit invalidates the
/// measurement, and the next [`simulate`](TpiEngine::simulate) measures
/// the edited circuit from scratch.
///
/// The session pattern source is [`IndependentPatterns`], whose
/// per-input streams are invariant under input insertion: a point's new
/// input leaves every old input's stream as it was. Candidate scoring
/// relies on that to simulate only a candidate's dirty faults.
pub struct TpiEngine {
    circuit: Circuit,
    config: EngineConfig,
    universe: FaultUniverse,
    analyses: Option<Analyses>,
    sim: Option<SimState>,
    cubes: Option<CubeState>,
    memo: MemoStore,
    metrics: EngineMetrics,
    control: RunControl,
}

/// Where a session's region DP solutions live: a private per-session map
/// (the default), or a [`SharedDpMemo`] many sessions replay from.
enum MemoStore {
    Private(DpMemo),
    Shared(Arc<SharedDpMemo>),
}

impl MemoStore {
    /// Cloning lookup (the private path also clones — the engine maps the
    /// plan through `to_parent` immediately, so no borrow outlives this).
    fn lookup(&self, fp: u64) -> Option<Option<Vec<TestPoint>>> {
        match self {
            MemoStore::Private(memo) => memo.get(fp).cloned(),
            MemoStore::Shared(memo) => memo.lookup(fp),
        }
    }

    fn insert(&mut self, fp: u64, plan: Option<Vec<TestPoint>>) {
        match self {
            MemoStore::Private(memo) => memo.insert(fp, plan),
            MemoStore::Shared(memo) => memo.insert(fp, plan),
        }
    }

    fn len(&self) -> usize {
        match self {
            MemoStore::Private(memo) => memo.len(),
            MemoStore::Shared(memo) => memo.len(),
        }
    }
}

impl TpiEngine {
    /// Open a session on `circuit`. The collapsed stuck-at universe of
    /// this base circuit is the coverage target for the whole session
    /// (test-logic faults introduced later are excluded, as in the
    /// literature's coverage tables).
    ///
    /// # Errors
    ///
    /// [`TpiError::Netlist`] if the circuit is malformed or cyclic.
    pub fn new(circuit: Circuit, config: EngineConfig) -> Result<TpiEngine, TpiError> {
        TpiEngine::with_registry(circuit, config, Arc::new(Registry::new()))
    }

    /// Open a session whose metrics land in a caller-supplied
    /// [`Registry`], so a front end can aggregate engine counters,
    /// fault-sim kernel counters and its own request instrumentation in
    /// one snapshot. [`new`](TpiEngine::new) is this with a private
    /// registry.
    ///
    /// # Errors
    ///
    /// [`TpiError::Netlist`] if the circuit is malformed or cyclic.
    pub fn with_registry(
        circuit: Circuit,
        config: EngineConfig,
        registry: Arc<Registry>,
    ) -> Result<TpiEngine, TpiError> {
        let universe = FaultUniverse::collapsed(&circuit)?;
        Ok(TpiEngine {
            circuit,
            config,
            universe,
            analyses: None,
            sim: None,
            cubes: None,
            memo: MemoStore::Private(DpMemo::default()),
            metrics: EngineMetrics::new(registry),
            control: RunControl::unlimited(),
        })
    }

    /// Open a session whose region DP solutions are read from and written
    /// to a [`SharedDpMemo`] instead of a private map, so subproblems
    /// solved by *any* session sharing the store replay here (and vice
    /// versa). Fingerprints are content-addressed and the DP is
    /// deterministic, so sharing is semantics-preserving: the session
    /// produces plans bit-identical to one with a private memo, whatever
    /// the other sessions do concurrently (property-tested in
    /// `tests/prop_shared_memo.rs`).
    ///
    /// # Errors
    ///
    /// [`TpiError::Netlist`] if the circuit is malformed or cyclic.
    pub fn with_shared_memo(
        circuit: Circuit,
        config: EngineConfig,
        registry: Arc<Registry>,
        memo: Arc<SharedDpMemo>,
    ) -> Result<TpiEngine, TpiError> {
        let mut engine = TpiEngine::with_registry(circuit, config, registry)?;
        engine.memo = MemoStore::Shared(memo);
        Ok(engine)
    }

    /// Install a [`RunControl`] token governing every subsequent
    /// measurement and optimize round (front ends set a per-request or
    /// per-job token; [`RunControl::unlimited`] restores free running).
    /// Interrupted measurements are never cached, so a session survives
    /// interruption and serves the next request normally.
    pub fn set_control(&mut self, control: RunControl) {
        self.control = control;
    }

    /// The currently installed [`RunControl`] token.
    pub fn control(&self) -> &RunControl {
        &self.control
    }

    /// The current (possibly edited) circuit.
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// Mutable access for out-of-band edits. Any mutation bumps
    /// [`Circuit::version`], so cached analyses and simulation state are
    /// invalidated lazily, as after [`apply`](TpiEngine::apply).
    pub fn circuit_mut(&mut self) -> &mut Circuit {
        &mut self.circuit
    }

    /// The session's fault universe (collapsed faults of the base circuit).
    pub fn universe(&self) -> &FaultUniverse {
        &self.universe
    }

    /// Cache/simulation counters accumulated so far, read out of the
    /// session registry (see [`EngineStats`]).
    pub fn stats(&self) -> EngineStats {
        self.metrics.stats()
    }

    /// The session's metrics registry: engine counters, `sim.*` kernel
    /// counters and latency histograms.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.metrics.registry
    }

    /// Number of distinct region subproblems memoized so far.
    pub fn memo_len(&self) -> usize {
        self.memo.len()
    }

    /// The derived analyses of the current circuit, rebuilding them only
    /// if the netlist changed since they were last computed.
    ///
    /// # Errors
    ///
    /// [`TpiError::Netlist`] if the circuit became malformed.
    pub fn analyses(&mut self) -> Result<&Analyses, TpiError> {
        self.ensure_analyses()?;
        Ok(self.analyses.as_ref().expect("just ensured"))
    }

    fn ensure_analyses(&mut self) -> Result<(), TpiError> {
        let version = self.circuit.version();
        if self.analyses.as_ref().is_some_and(|a| a.version == version) {
            self.metrics.analysis_hits.inc();
            return Ok(());
        }
        let topo = Topology::of(&self.circuit)?;
        let cop = CopAnalysis::new(&self.circuit)?;
        let ffr = FfrDecomposition::of(&self.circuit, &topo);
        self.analyses = Some(Analyses {
            version,
            topo,
            cop,
            ffr,
        });
        self.metrics.analysis_rebuilds.inc();
        Ok(())
    }

    fn sim_options(&self) -> SimOptions {
        SimOptions {
            block_words: self.config.block_words,
            detection: self.config.detection,
            ..SimOptions::default()
        }
    }

    /// The coverage measurement of the current circuit, computed at most
    /// once per netlist version.
    ///
    /// # Errors
    ///
    /// [`TpiError::Netlist`] if the circuit became malformed;
    /// [`TpiError::Interrupted`] when the session's [`RunControl`] token
    /// fires mid-measurement (a truncated measurement is never cached —
    /// the next call under a fresh token measures from scratch).
    pub fn simulate(&mut self) -> Result<&FaultSimResult, TpiError> {
        let version = self.circuit.version();
        if self.sim.as_ref().is_none_or(|s| s.version != version) {
            self.metrics.full_sims.inc();
            let timer = self.metrics.full_sim_us.start_timer();
            let mut sim = FaultSimulator::with_options(&self.circuit, self.sim_options())?;
            let mut src = IndependentPatterns::new(self.circuit.inputs().len(), self.config.seed);
            let run = sim.run_controlled(
                &mut src,
                self.config.patterns,
                self.universe.faults(),
                &self.control,
            )?;
            drop(timer);
            run.counters.publish_to(&self.metrics.registry);
            if let Some(reason) = run.stopped {
                return Err(TpiError::Interrupted { reason });
            }
            self.sim = Some(SimState {
                version,
                result: run.result,
            });
        }
        Ok(&self.sim.as_ref().expect("just stored").result)
    }

    /// Fault coverage of the current circuit over the session universe.
    ///
    /// # Errors
    ///
    /// [`TpiError::Netlist`] if the circuit became malformed.
    pub fn coverage(&mut self) -> Result<f64, TpiError> {
        Ok(self.simulate()?.coverage())
    }

    /// Insert one test point. The edit bumps [`Circuit::version`], so
    /// the next [`simulate`](TpiEngine::simulate) measures the edited
    /// circuit from scratch.
    ///
    /// # Errors
    ///
    /// [`TpiError::Netlist`] if the insertion fails.
    pub fn apply(&mut self, tp: TestPoint) -> Result<AppliedTestPoint, TpiError> {
        Ok(apply_test_point(&mut self.circuit, tp)?)
    }

    /// The deterministic test set (PODEM cubes + packed patterns) of the
    /// current circuit under `cfg`, computed at most once per netlist
    /// version and generation configuration. Shares the session's cache
    /// discipline: edits bump [`Circuit::version`] and invalidate lazily,
    /// repeated queries (including across
    /// [`optimize_patterns`](TpiEngine::optimize_patterns) calls and
    /// serve/batch requests on the same session) are free.
    ///
    /// # Errors
    ///
    /// [`TpiError::Netlist`] if the circuit became malformed;
    /// [`TpiError::Interrupted`] when the session's [`RunControl`] token
    /// fires mid-generation (a partial cube set is never cached).
    pub fn cube_set(&mut self, cfg: &CubeConfig) -> Result<Arc<CubeSet>, TpiError> {
        let version = self.circuit.version();
        let fresh = |c: &CubeState| {
            c.version == version
                && c.max_backtracks == cfg.podem.max_backtracks
                && c.fill_seed == cfg.fill_seed
        };
        if self.cubes.as_ref().is_none_or(|c| !fresh(c)) {
            self.metrics.registry.counter("engine.cube_rebuilds").inc();
            let set = CubeSet::generate(&self.circuit, self.universe.faults(), cfg, &self.control)?;
            set.counters.publish_to(&self.metrics.registry);
            self.metrics
                .registry
                .counter("compaction.cubes")
                .add(set.len() as u64);
            if let Some(reason) = set.interrupted {
                return Err(TpiError::Interrupted { reason });
            }
            self.cubes = Some(CubeState {
                version,
                max_backtracks: cfg.podem.max_backtracks,
                fill_seed: cfg.fill_seed,
                set: Arc::new(set),
            });
        } else {
            self.metrics.registry.counter("engine.cube_hits").inc();
        }
        Ok(self.cubes.as_ref().expect("just stored").set.clone())
    }

    /// Run the pattern-count insertion loop on the session: rank
    /// candidate control points by the cube-conflict proxy, referee the
    /// best by re-ATPG + re-compaction probes, and commit only probed
    /// strict improvements (see [`PatternsOptimizer`]). The committed
    /// circuit's cube set lands in the session cache keyed by netlist
    /// version, so follow-up queries — another `optimize_patterns` call,
    /// a serve-session `cubes` request, a batch job on the same shard —
    /// replay it for free.
    ///
    /// When the session's [`RunControl`] token fires mid-run the loop
    /// stops after the last fully-probed commit and the outcome carries
    /// the exact prefix plan (the same anytime contract as
    /// [`optimize`](TpiEngine::optimize)).
    ///
    /// # Errors
    ///
    /// [`TpiError::Netlist`] on malformed circuits. Interruption is not
    /// an error.
    pub fn optimize_patterns(&mut self, cfg: &PatternsConfig) -> Result<PatternsOutcome, TpiError> {
        let optimizer = PatternsOptimizer::new(cfg.clone());
        let costs = CostModel::default();
        let faults: Vec<tpi_sim::Fault> = self.universe.faults().to_vec();
        let registry = self.metrics.registry.clone();

        let mut plan_points: Vec<TestPoint> = Vec::new();
        let mut rounds: Vec<PatternsRound> = Vec::new();
        let mut interrupted: Option<StopReason> = None;

        let base = match self.cube_set(&cfg.cubes) {
            Ok(set) => set,
            Err(TpiError::Interrupted { reason }) => {
                // Nothing measured: report an empty plan with the stop
                // reason rather than fail the session.
                return Ok(PatternsOutcome {
                    plan: Plan::new(Vec::new(), 0.0, false),
                    patterns_before: 0,
                    patterns_after: 0,
                    cubes_before: 0,
                    conflicts_before: 0,
                    uncovered_before: 0,
                    rounds: Vec::new(),
                    modified: self.circuit.clone(),
                    interrupted: Some(reason),
                });
            }
            Err(e) => return Err(e),
        };
        let patterns_before = base.patterns();
        let cubes_before = base.len();
        let uncovered_before = base.uncovered;
        let mut conflicts_before = 0usize;
        let mut current = base;

        while interrupted.is_none()
            && plan_points.len() < optimizer.config().max_points
            && costs.total(&plan_points) < optimizer.config().max_cost
        {
            let decision = optimizer.step(
                &self.circuit,
                &current,
                costs.total(&plan_points),
                &faults,
                &self.control,
                Some(&registry),
            )?;
            if rounds.is_empty() {
                conflicts_before = decision.conflicts;
            }
            if let Some(reason) = decision.interrupted {
                interrupted = Some(reason);
                break;
            }
            let Some((point, probed)) = decision.committed else {
                break;
            };
            self.apply(point)?;
            plan_points.push(point);
            let probed = Arc::new(probed);
            // Seed the cache: the probe already generated the cube set of
            // the committed circuit version (a fresh one may abort where
            // the probe's aimed re-proofs reached a verdict).
            self.cubes = Some(CubeState {
                version: self.circuit.version(),
                max_backtracks: cfg.cubes.podem.max_backtracks,
                fill_seed: cfg.cubes.fill_seed,
                set: probed.clone(),
            });
            rounds.push(PatternsRound {
                round: rounds.len(),
                patterns: probed.patterns(),
                conflicts: decision.conflicts,
                probes: decision.probes,
                committed: Some(point),
            });
            current = probed;
        }

        let patterns_after = current.patterns();
        registry
            .gauge("compaction.patterns_before")
            .set(patterns_before as i64);
        registry
            .gauge("compaction.patterns_after")
            .set(patterns_after as i64);
        let cost = costs.total(&plan_points);
        Ok(PatternsOutcome {
            plan: Plan::new(plan_points, cost, interrupted.is_none()),
            patterns_before,
            patterns_after,
            cubes_before,
            conflicts_before,
            uncovered_before,
            rounds,
            modified: self.circuit.clone(),
            interrupted,
        })
    }

    /// Run the measure/decompose/solve/commit constructive loop on the
    /// session, with every step going through the engine's caches:
    /// analyses are rebuilt once per circuit version, region DP
    /// solutions are memoized across rounds, and candidate scoring
    /// simulates only each candidate's dirty faults.
    ///
    /// Each round measures coverage over the base circuit's collapsed
    /// fault universe, groups the undetected faults by fanout-free
    /// region, solves each region's tree DP
    /// ([`DpOptimizer::solve_region_controlled`], boundary nets as
    /// pseudo-inputs carrying their COP probabilities, the root's COP
    /// observability as `rho`), and lets the best region plans compete
    /// with single-point escalations ([`gather_candidates`]) on
    /// detections per cost measured by fault simulation. The winner is
    /// committed, within `max_cost`, and the loop repeats until
    /// `target_coverage`, the cost budget, `max_rounds` or a round
    /// without a winner stops it. Plan points reference the evolving
    /// circuit in application order, so replaying the plan on the base
    /// circuit reproduces the final circuit exactly.
    ///
    /// When the session's [`RunControl`] token fires mid-run, the loop
    /// stops cleanly after the last fully-refereed commit and the
    /// outcome carries the best partial plan so far:
    /// [`ConstructiveOutcome::interrupted`] records the reason, the plan
    /// is an exact prefix of what the uninterrupted run would commit
    /// (so its cost never exceeds the uninterrupted plan's), and
    /// `final_coverage` is the coverage last measured before
    /// interruption. Front ends wanting coverage *at* interruption
    /// re-measure under a fresh token (interrupted measurements are
    /// never cached). Otherwise `final_coverage` is the coverage of the
    /// returned circuit: a loop that stops at `max_rounds` measures it
    /// once more after the last round's commits.
    ///
    /// # Errors
    ///
    /// [`TpiError::Netlist`] on malformed circuits. Interruption is not
    /// an error.
    pub fn optimize(
        &mut self,
        threshold: Threshold,
        cfg: &OptimizeConfig,
    ) -> Result<ConstructiveOutcome, TpiError> {
        let _timer = self.metrics.optimize_us.start_timer();
        let costs = CostModel::default();
        let mut plan_points: Vec<TestPoint> = Vec::new();
        let mut rounds: Vec<RoundReport> = Vec::new();
        let mut coverage = 0.0;
        let mut last_added = 0usize;
        let mut interrupted: Option<StopReason> = None;

        for round in 0..cfg.max_rounds.max(1) {
            // 1. Measure (once per circuit version).
            let result = match self.simulate() {
                Ok(result) => result.clone(),
                Err(TpiError::Interrupted { reason }) => {
                    interrupted = Some(reason);
                    break;
                }
                Err(e) => return Err(e),
            };
            coverage = result.coverage();
            let cost_so_far = costs.total(&plan_points);
            rounds.push(RoundReport {
                round,
                coverage,
                cost: cost_so_far,
                points_added: last_added,
            });
            if coverage >= cfg.target_coverage || cost_so_far >= cfg.max_cost {
                break;
            }
            let undetected = result.undetected_indices();
            if undetected.is_empty() {
                break;
            }

            // 2–3. Decompose on cached analyses; solve regions through
            // the DP memo.
            let mut groups = match self.plan_region_groups(threshold, cfg, &undetected) {
                Ok(groups) => groups,
                Err(TpiError::Interrupted { reason }) => {
                    interrupted = Some(reason);
                    break;
                }
                Err(e) => return Err(e),
            };
            for tp in
                gather_candidates(&self.circuit, &self.universe, &undetected, &plan_points, 16)
            {
                groups.push(vec![tp]);
            }

            // 4. Referee by simulation (dirty faults only) and commit.
            let (committed, stopped) = self.pick_by_simulation(&undetected, groups)?;
            if let Some(reason) = stopped {
                // A partially-refereed pick must not be committed.
                interrupted = Some(reason);
                break;
            }
            if committed.is_empty() {
                break;
            }
            last_added = 0;
            let mut spent = costs.total(&plan_points);
            for &tp in &committed {
                let price = costs.of(tp.kind);
                if spent + price > cfg.max_cost {
                    break;
                }
                self.apply(tp)?;
                plan_points.push(tp);
                spent += price;
                last_added += 1;
            }
            if last_added == 0 {
                break; // budget exhausted mid-commit
            }
        }

        // A loop that ran out of rounds committed points after its last
        // measurement: measure the returned circuit (every other exit
        // finds it cached). An interrupted run keeps the coverage last
        // measured before the interruption.
        if interrupted.is_none() {
            match self.simulate() {
                Ok(result) => coverage = result.coverage(),
                Err(TpiError::Interrupted { reason }) => interrupted = Some(reason),
                Err(e) => return Err(e),
            }
        }
        let cost = costs.total(&plan_points);
        let feasible = coverage >= cfg.target_coverage;
        Ok(ConstructiveOutcome {
            plan: Plan::new(plan_points, cost, feasible),
            rounds,
            final_coverage: coverage,
            modified: self.circuit.clone(),
            interrupted,
        })
    }

    /// Group the undetected faults per FFR, solve each region's DP
    /// subproblem (through the memo) and return the `3 ×
    /// regions_per_round` best candidate point groups by benefit per
    /// cost, ties in root order.
    ///
    /// Every region is looked up in the memo first; the misses are then
    /// solved in descending-benefit order only while they can still
    /// enter that list (see [`keep_best_regions`]).
    fn plan_region_groups(
        &mut self,
        threshold: Threshold,
        cfg: &OptimizeConfig,
        undetected: &[usize],
    ) -> Result<Vec<Vec<TestPoint>>, TpiError> {
        self.ensure_analyses()?;
        let analyses = self.analyses.as_ref().expect("just ensured");
        let costs = CostModel::default();

        let mut region_targets: std::collections::HashMap<NodeId, Vec<TargetFault>> =
            std::collections::HashMap::new();
        for &fi in undetected {
            let fault = self.universe.faults()[fi];
            let node = fault.line(&self.circuit);
            region_targets
                .entry(analyses.ffr.root_of(node))
                .or_default()
                .push(TargetFault {
                    node,
                    stuck: fault.stuck,
                });
        }

        // NodeId order, not hash order: benefit ties must break the same
        // way on every run.
        let mut regions: Vec<(NodeId, Vec<TargetFault>)> = region_targets.into_iter().collect();
        regions.sort_by_key(|(root, _)| *root);

        // Memo pass, in root order: hits become candidates at once, misses
        // wait with everything their solve needs.
        let mut known: Vec<RankedRegion<Vec<TestPoint>>> = Vec::new();
        let mut misses: Vec<(usize, f64)> = Vec::new();
        let mut pending: Vec<(RegionExtraction, Vec<TargetFault>, f64, u64)> = Vec::new();
        for (slot, (root, targets)) in regions.iter().enumerate() {
            let benefit = targets.len() as f64;
            let Some(extraction) = extract_region(
                &self.circuit,
                &analyses.topo,
                &analyses.ffr,
                *root,
                &analyses.cop,
            ) else {
                continue;
            };
            let sub_targets: Vec<TargetFault> = targets
                .iter()
                .filter_map(|t| {
                    extraction.to_sub.get(&t.node).map(|&node| TargetFault {
                        node,
                        stuck: t.stuck,
                    })
                })
                .collect();
            if sub_targets.is_empty() {
                continue;
            }
            let rho = analyses.cop.observability(*root).clamp(0.0, 1.0);
            let fp = region_fingerprint(&extraction, &sub_targets, rho, threshold);
            match self.memo.lookup(fp) {
                Some(cached) => {
                    self.metrics.memo_hits.inc();
                    if let Some(item) = region_candidate(&extraction, cached, benefit, &costs) {
                        known.push(RankedRegion { slot, item });
                    }
                }
                None => {
                    misses.push((slot, benefit));
                    pending.push((extraction, sub_targets, rho, fp));
                }
            }
        }
        // A DP solve polls the token at its first step. Polling once
        // before any miss is solved or skipped keeps a work-budget stop
        // where solving every miss in root order put it.
        if !misses.is_empty() {
            if let Some(reason) = self.control.poll() {
                return Err(TpiError::Interrupted { reason });
            }
        }

        let dp = DpOptimizer::new(cfg.dp.clone());
        let min_cost = TestPointKind::ALL
            .iter()
            .map(|&k| costs.of(k))
            .fold(f64::INFINITY, f64::min);
        let k = cfg.regions_per_round.max(1) * 3;
        let (kept, skipped) = keep_best_regions(known, &misses, min_cost, k, |mi| {
            let (extraction, sub_targets, rho, fp) = &pending[mi];
            self.metrics.memo_misses.inc();
            let problem =
                TpiProblem::with_targets(&extraction.circuit, threshold, sub_targets.clone())
                    .with_input_probs(extraction.input_probs.clone());
            let timer = self.metrics.region_dp_us.start_timer();
            let result = dp.solve_region_controlled(&problem, *rho, &self.control);
            timer.observe();
            let solved = match result {
                Ok((plan, _)) => {
                    Some(plan.test_points().to_vec()).filter(|points| !points.is_empty())
                }
                // Propagate interruption without memoizing: the
                // subproblem was never solved.
                Err(TpiError::Interrupted { reason }) => {
                    return Err(TpiError::Interrupted { reason });
                }
                Err(_) => None,
            };
            self.memo.insert(*fp, solved.clone());
            Ok(region_candidate(extraction, solved, misses[mi].1, &costs))
        })?;
        self.metrics.region_dp_skipped.add(skipped);
        Ok(kept)
    }

    /// Score candidate groups by measured detections per cost — but on
    /// each candidate's scratch circuit only the *dirty* faults of that
    /// candidate are simulated. Clean undetected faults stay undetected
    /// by the bit-identity argument, so they contribute zero detections
    /// and skipping them cannot change any score.
    fn pick_by_simulation(
        &mut self,
        undetected: &[usize],
        groups: Vec<Vec<TestPoint>>,
    ) -> Result<(Vec<TestPoint>, Option<StopReason>), TpiError> {
        let costs = CostModel::default();
        // The configured pattern budget, unclamped (an undocumented
        // `min(4096)` used to cap it silently). Scoring with exactly the
        // measurement budget is also what entitles the batched scorer to
        // skip the base reference run: a fault the measurement left
        // undetected stays undetected under the same stream/seed/count.
        let budget = self.config.patterns;
        self.metrics.search_rounds.inc();
        if self.config.candidate_eval == CandidateEval::Batched {
            return self.pick_batched(undetected, groups, budget, &costs);
        }
        let mut best: Option<(Vec<TestPoint>, f64)> = None;
        for group in groups {
            if group.is_empty() {
                continue;
            }
            self.metrics.candidates_evaluated.inc();
            let started = std::time::Instant::now();
            let old_nodes = self.circuit.node_count();
            let mut scratch = self.circuit.clone();
            let mut observed: Vec<NodeId> = Vec::new();
            let mut broken = false;
            for &tp in &group {
                match apply_test_point(&mut scratch, tp) {
                    Ok(applied) => observed.extend(applied.observed),
                    Err(_) => {
                        broken = true;
                        break;
                    }
                }
            }
            if broken {
                self.metrics
                    .candidate_eval_us
                    .record_duration(started.elapsed());
                continue;
            }
            let topo = Topology::of(&scratch)?;
            let dirty = dirty_line_mask(&scratch, &topo, old_nodes, &observed);
            let faults: Vec<tpi_sim::Fault> = undetected
                .iter()
                .map(|&i| self.universe.faults()[i])
                .filter(|&f| dirty[f.line(&scratch).index()])
                .collect();
            if faults.is_empty() {
                self.metrics
                    .candidate_eval_us
                    .record_duration(started.elapsed());
                continue;
            }
            let mut sim = FaultSimulator::with_options(&scratch, self.sim_options())?;
            let mut src = IndependentPatterns::new(scratch.inputs().len(), self.config.seed);
            let run = sim.run_controlled(&mut src, budget, &faults, &self.control)?;
            run.counters.publish_to(&self.metrics.registry);
            self.metrics
                .candidate_eval_us
                .record_duration(started.elapsed());
            if let Some(reason) = run.stopped {
                // The referee was cut short: scores so far are not
                // comparable, so report nothing committed.
                return Ok((Vec::new(), Some(reason)));
            }
            let result = run.result;
            let score = result.detected_count() as f64 / costs.total(&group).max(1e-9);
            if score > 0.0
                && best
                    .as_ref()
                    .map(|(_, s)| score > s + 1e-12)
                    .unwrap_or(true)
            {
                best = Some((group, score));
            }
        }
        Ok((best.map(|(group, _)| group).unwrap_or_default(), None))
    }

    /// Batched referee: validate groups without cloning, share the base
    /// detection state, simulate only each group's dirty faults
    /// (optionally across a worker pool) and select by the same
    /// detections-per-cost rule as the legacy loop. A group whose dirty
    /// set is empty scores zero — exactly the legacy `continue`, since
    /// selection requires a strictly positive score.
    fn pick_batched(
        &mut self,
        undetected: &[usize],
        mut groups: Vec<Vec<TestPoint>>,
        budget: u64,
        costs: &CostModel,
    ) -> Result<(Vec<TestPoint>, Option<StopReason>), TpiError> {
        let faults: Vec<tpi_sim::Fault> = undetected
            .iter()
            .map(|&i| self.universe.faults()[i])
            .collect();
        let batch = score_candidate_groups(
            &self.circuit,
            &faults,
            &groups,
            budget,
            self.config.seed,
            self.sim_options(),
            self.config.score_threads,
            &self.control,
        )?;
        batch.counters.publish_to(&self.metrics.registry);
        self.metrics.faults_filtered.add(batch.faults_filtered);
        for (group, score) in groups.iter().zip(&batch.scores) {
            if !group.is_empty() {
                self.metrics.candidates_evaluated.inc();
                self.metrics.candidate_eval_us.record(score.eval_us);
            }
        }
        if let Some(reason) = batch.stopped {
            return Ok((Vec::new(), Some(reason)));
        }
        let mut best: Option<(usize, f64)> = None;
        for (gi, group_score) in batch.scores.iter().enumerate() {
            let Some(detected) = group_score.detected else {
                continue;
            };
            let score = detected as f64 / costs.total(&groups[gi]).max(1e-9);
            if score > 0.0
                && best
                    .as_ref()
                    .map(|&(_, s)| score > s + 1e-12)
                    .unwrap_or(true)
            {
                best = Some((gi, score));
            }
        }
        Ok((
            best.map(|(gi, _)| std::mem::take(&mut groups[gi]))
                .unwrap_or_default(),
            None,
        ))
    }
}

/// A region's candidate group: its memoized or freshly solved plan
/// (extracted-circuit ids) mapped to the parent circuit, with its cost
/// and benefit-per-cost score. `None` when the region has no plan.
fn region_candidate(
    extraction: &RegionExtraction,
    sub_points: Option<Vec<TestPoint>>,
    benefit: f64,
    costs: &CostModel,
) -> Option<(f64, Vec<TestPoint>)> {
    let mapped: Vec<TestPoint> = sub_points?
        .iter()
        .map(|tp| TestPoint::new(extraction.to_parent[&tp.node], tp.kind))
        .collect();
    let score = benefit / costs.total(&mapped).max(1e-9);
    Some((score, mapped))
}

/// A candidate region: its position in root order and its scored group.
struct RankedRegion<T> {
    slot: usize,
    item: (f64, T),
}

/// The `k` best regions by score, ties in root order (`slot`) — exactly
/// what solving every region, stable-sorting by descending score and
/// truncating would keep — while solving as few memo misses as possible.
///
/// `known` holds the regions whose plan is already at hand; `misses`
/// holds `(slot, benefit)` of the rest, and `solve(i)` solves
/// `misses[i]`, returning its `(score, group)` or `None` when the region
/// has no plan. Misses are solved in descending-benefit order. A region's
/// score is `benefit / cost` with `cost ≥ min_cost` (every plan holds at
/// least one point), so `benefit / min_cost` bounds it. Once that bound
/// falls strictly below the K-th best score found so far, the region and
/// every later miss (whose benefit is no larger) score strictly below K
/// candidates already found, and cannot be kept. Returns the kept groups
/// and the number of misses left unsolved.
fn keep_best_regions<T, E>(
    mut ranked: Vec<RankedRegion<T>>,
    misses: &[(usize, f64)],
    min_cost: f64,
    k: usize,
    mut solve: impl FnMut(usize) -> Result<Option<(f64, T)>, E>,
) -> Result<(Vec<T>, u64), E> {
    // The best `k` scores so far, descending.
    let mut top: Vec<f64> = Vec::new();
    let note = |top: &mut Vec<f64>, score: f64| {
        top.insert(top.partition_point(|&s| s >= score), score);
        top.truncate(k);
    };
    for region in &ranked {
        note(&mut top, region.item.0);
    }
    let mut order: Vec<usize> = (0..misses.len()).collect();
    order.sort_by(|&a, &b| {
        misses[b]
            .1
            .partial_cmp(&misses[a].1)
            .expect("finite benefits")
            .then(misses[a].0.cmp(&misses[b].0))
    });
    let mut skipped = 0u64;
    for (n, &mi) in order.iter().enumerate() {
        let (slot, benefit) = misses[mi];
        if top.len() == k && benefit / min_cost.max(1e-9) < top[k - 1] {
            skipped = (order.len() - n) as u64;
            break;
        }
        if let Some(item) = solve(mi)? {
            note(&mut top, item.0);
            ranked.push(RankedRegion { slot, item });
        }
    }
    ranked.sort_by(|a, b| {
        b.item
            .0
            .partial_cmp(&a.item.0)
            .expect("finite scores")
            .then(a.slot.cmp(&b.slot))
    });
    ranked.truncate(k);
    Ok((ranked.into_iter().map(|r| r.item.1).collect(), skipped))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpi_netlist::{CircuitBuilder, GateKind, TestPointKind};

    /// Two independent random-pattern-resistant cones sharing nothing.
    fn two_cones() -> Circuit {
        let mut b = CircuitBuilder::new("twin");
        let xs = b.inputs(16, "x");
        let a = b.balanced_tree(GateKind::And, &xs[..8], "a").unwrap();
        let o = b.balanced_tree(GateKind::And, &xs[8..], "o").unwrap();
        b.output(a);
        b.output(o);
        b.finish().unwrap()
    }

    fn reconvergent() -> Circuit {
        let mut b = CircuitBuilder::new("rr");
        let xs = b.inputs(12, "x");
        let stem = b.balanced_tree(GateKind::And, &xs[..8], "cone").unwrap();
        let g1 = b.gate(GateKind::And, vec![stem, xs[8]], "g1").unwrap();
        let g2 = b.gate(GateKind::And, vec![stem, xs[9]], "g2").unwrap();
        let m = b.gate(GateKind::Or, vec![g1, g2], "m").unwrap();
        let t = b
            .balanced_tree(GateKind::And, &[m, xs[10], xs[11]], "t")
            .unwrap();
        b.output(t);
        b.finish().unwrap()
    }

    fn engine(c: Circuit) -> TpiEngine {
        TpiEngine::new(
            c,
            EngineConfig {
                patterns: 1024,
                seed: 9,
                ..EngineConfig::default()
            },
        )
        .unwrap()
    }

    fn fresh_full(
        circuit: &Circuit,
        universe: &FaultUniverse,
        patterns: u64,
        seed: u64,
    ) -> FaultSimResult {
        let mut sim = FaultSimulator::new(circuit).unwrap();
        let mut src = IndependentPatterns::new(circuit.inputs().len(), seed);
        sim.run(&mut src, patterns, universe.faults()).unwrap()
    }

    #[test]
    fn measurement_after_apply_matches_full_for_every_kind() {
        for kind in TestPointKind::ALL {
            let c = reconvergent();
            let node = c.find_node("g1").unwrap();
            let mut eng = engine(c);
            eng.simulate().unwrap();
            eng.apply(TestPoint::new(node, kind)).unwrap();
            let fresh = fresh_full(eng.circuit(), eng.universe(), 1024, 9);
            let merged = eng.simulate().unwrap().clone();
            for i in 0..eng.universe().len() {
                assert_eq!(
                    merged.first_detection(i),
                    fresh.first_detection(i),
                    "{kind:?} fault {i}"
                );
            }
            assert_eq!(eng.stats().full_sims, 2, "{kind:?} must measure again");
        }
    }

    #[test]
    fn chained_edits_stay_bit_identical() {
        let c = reconvergent();
        let g1 = c.find_node("g1").unwrap();
        let g2 = c.find_node("g2").unwrap();
        let cone = c.find_node("cone_6").unwrap();
        let mut eng = engine(c);
        eng.simulate().unwrap();
        for tp in [
            TestPoint::observe(g1),
            TestPoint::control_or(g2),
            TestPoint::full(cone),
        ] {
            eng.apply(tp).unwrap();
            let fresh = fresh_full(eng.circuit(), eng.universe(), 1024, 9);
            let merged = eng.simulate().unwrap().clone();
            for i in 0..eng.universe().len() {
                assert_eq!(
                    merged.first_detection(i),
                    fresh.first_detection(i),
                    "after {tp}"
                );
            }
        }
        assert_eq!(eng.stats().full_sims, 4);
    }

    #[test]
    fn analyses_cache_hits_and_invalidates() {
        let mut eng = engine(reconvergent());
        eng.analyses().unwrap();
        eng.analyses().unwrap();
        assert_eq!(eng.stats().analysis_rebuilds, 1);
        assert_eq!(eng.stats().analysis_hits, 1);

        let node = eng.circuit().find_node("m").unwrap();
        eng.apply(TestPoint::observe(node)).unwrap();
        eng.analyses().unwrap();
        assert_eq!(eng.stats().analysis_rebuilds, 2);
    }

    #[test]
    fn out_of_band_edit_invalidates_simulation() {
        let mut eng = engine(two_cones());
        eng.simulate().unwrap();
        assert_eq!(eng.stats().full_sims, 1);
        // An untracked edit: tap a node as an output behind the engine's
        // back. The version bump must force a fresh full measurement.
        let node = eng.circuit().find_node("a_0").unwrap();
        eng.circuit_mut().add_output(node).unwrap();
        eng.simulate().unwrap();
        assert_eq!(eng.stats().full_sims, 2);
    }

    #[test]
    fn optimize_improves_coverage_and_memoizes() {
        let mut eng = TpiEngine::new(
            reconvergent(),
            EngineConfig {
                patterns: 2048,
                seed: 0xDAC_1987,
                ..EngineConfig::default()
            },
        )
        .unwrap();
        let cfg = OptimizeConfig {
            max_rounds: 8,
            target_coverage: 0.999,
            ..OptimizeConfig::default()
        };
        let outcome = eng
            .optimize(Threshold::from_test_length(2048, 0.9).unwrap(), &cfg)
            .unwrap();
        let baseline = outcome.rounds[0].coverage;
        assert!(outcome.final_coverage > baseline);
        assert!(outcome.final_coverage > 0.95, "{}", outcome.final_coverage);
        assert!(!outcome.plan.is_empty());
        let stats = eng.stats();
        assert!(stats.memo_misses > 0);
        // One measurement per round, each from scratch.
        assert_eq!(stats.full_sims, outcome.rounds.len() as u64);
    }

    #[test]
    fn optimize_plan_replays_on_the_base_circuit() {
        let base = reconvergent();
        let mut eng = engine(base.clone());
        let outcome = eng
            .optimize(
                Threshold::from_test_length(1024, 0.9).unwrap(),
                &OptimizeConfig {
                    max_rounds: 4,
                    ..OptimizeConfig::default()
                },
            )
            .unwrap();
        let (replayed, _) =
            tpi_netlist::transform::apply_plan(&base, outcome.plan.test_points()).unwrap();
        assert_eq!(replayed.node_count(), outcome.modified.node_count());
        for id in replayed.node_ids() {
            assert_eq!(replayed.kind(id), outcome.modified.kind(id));
            assert_eq!(replayed.fanins(id), outcome.modified.fanins(id));
        }
    }

    #[test]
    fn optimize_stops_at_round_zero_on_an_easy_circuit() {
        let mut b = CircuitBuilder::new("easy");
        let xs = b.inputs(4, "x");
        let root = b.balanced_tree(GateKind::Xor, &xs, "g").unwrap();
        b.output(root);
        let mut eng = TpiEngine::new(b.finish().unwrap(), EngineConfig::default()).unwrap();
        let outcome = eng
            .optimize(Threshold::from_log2(-6.0), &OptimizeConfig::default())
            .unwrap();
        assert!(outcome.plan.is_empty());
        assert_eq!(outcome.rounds.len(), 1);
        assert_eq!(outcome.rounds[0].round, 0);
        assert_eq!(outcome.final_coverage, 1.0);
    }

    #[test]
    fn optimize_reports_at_most_max_rounds() {
        let mut eng = TpiEngine::new(
            reconvergent(),
            EngineConfig {
                patterns: 512,
                ..EngineConfig::default()
            },
        )
        .unwrap();
        let cfg = OptimizeConfig {
            max_rounds: 2,
            ..OptimizeConfig::default()
        };
        let outcome = eng.optimize(Threshold::from_log2(-14.0), &cfg).unwrap();
        assert!(outcome.rounds.len() <= 2, "{} rounds", outcome.rounds.len());
    }

    #[test]
    fn final_coverage_after_max_rounds_includes_the_last_commits() {
        let mut eng = TpiEngine::new(
            reconvergent(),
            EngineConfig {
                patterns: 512,
                ..EngineConfig::default()
            },
        )
        .unwrap();
        let cfg = OptimizeConfig {
            max_rounds: 1,
            ..OptimizeConfig::default()
        };
        let outcome = eng.optimize(Threshold::from_log2(-14.0), &cfg).unwrap();
        assert!(!outcome.plan.is_empty(), "the round commits a point");
        assert!(outcome.interrupted.is_none());
        // The returned circuit was measured once more, and a later query
        // reads that measurement from the cache.
        assert_eq!(eng.stats().full_sims, 2);
        assert_eq!(outcome.final_coverage, eng.coverage().unwrap());
        assert_eq!(eng.stats().full_sims, 2);
        assert!(outcome.final_coverage > outcome.rounds[0].coverage);
    }

    #[test]
    fn optimize_coverage_never_falls_from_first_round_to_last() {
        let mut eng = TpiEngine::new(reconvergent(), EngineConfig::default()).unwrap();
        let outcome = eng
            .optimize(
                Threshold::from_test_length(4096, 0.9).unwrap(),
                &OptimizeConfig::default(),
            )
            .unwrap();
        let first = outcome.rounds.first().unwrap().coverage;
        let last = outcome.rounds.last().unwrap().coverage;
        assert!(last >= first, "coverage fell from {first} to {last}");
    }

    #[test]
    fn cube_sets_cache_by_version_and_config() {
        let mut eng = engine(two_cones());
        let cfg = CubeConfig::default();
        let a = eng.cube_set(&cfg).unwrap();
        let b = eng.cube_set(&cfg).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "same version must replay the cache");
        let reg = eng.registry().clone();
        assert_eq!(reg.counter("engine.cube_rebuilds").get(), 1);
        assert_eq!(reg.counter("engine.cube_hits").get(), 1);

        // A different generation config must not replay a stale set.
        let other = CubeConfig {
            fill_seed: 99,
            ..CubeConfig::default()
        };
        eng.cube_set(&other).unwrap();
        assert_eq!(reg.counter("engine.cube_rebuilds").get(), 2);

        // An edit bumps the version and invalidates.
        let node = eng.circuit().find_node("a_0").unwrap();
        eng.apply(TestPoint::observe(node)).unwrap();
        eng.cube_set(&other).unwrap();
        assert_eq!(reg.counter("engine.cube_rebuilds").get(), 3);
    }

    #[test]
    fn optimize_patterns_never_regresses_and_seeds_the_cache() {
        let mut b = CircuitBuilder::new("cone");
        let xs = b.inputs(16, "x");
        let root = b.balanced_tree(GateKind::And, &xs, "g").unwrap();
        b.output(root);
        let c = b.finish().unwrap();

        let mut eng = engine(c.clone());
        let cfg = PatternsConfig::default();
        let outcome = eng.optimize_patterns(&cfg).unwrap();
        assert!(outcome.patterns_after <= outcome.patterns_before);
        assert!(outcome.interrupted.is_none());
        assert_eq!(outcome.plan.len(), outcome.rounds.len());

        // The committed circuit's cube set was seeded into the cache: a
        // follow-up query must hit, not rebuild.
        let reg = eng.registry().clone();
        let rebuilds = reg.counter("engine.cube_rebuilds").get();
        let set = eng.cube_set(&cfg.cubes).unwrap();
        assert_eq!(reg.counter("engine.cube_rebuilds").get(), rebuilds);
        assert_eq!(set.patterns(), outcome.patterns_after);

        // The plan replays on the base circuit to the same structure.
        let (replayed, _) =
            tpi_netlist::transform::apply_plan(&c, outcome.plan.test_points()).unwrap();
        assert_eq!(replayed.node_count(), outcome.modified.node_count());
    }

    #[test]
    fn optimize_patterns_respects_cancellation() {
        let mut eng = engine(two_cones());
        let control = RunControl::cancellable();
        control.cancel();
        eng.set_control(control);
        let outcome = eng.optimize_patterns(&PatternsConfig::default()).unwrap();
        assert!(outcome.interrupted.is_some());
        assert!(outcome.plan.is_empty());
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// The bounded top-K keeps exactly what solving every region,
        /// stable-sorting by descending score and truncating keeps. Each
        /// region is `(benefit, cost, memo hit)`; cost index 4 means the
        /// region has no plan. Small ranges make equal scores, equal
        /// benefits and lists shorter than K common.
        #[test]
        fn bounded_top_k_keeps_what_solving_everything_keeps(
            regions in proptest::prop::collection::vec((1u32..5, 0usize..5, proptest::prelude::any::<bool>()), 0..30),
            k in 1usize..12,
        ) {
            let costs = [0.5, 1.0, 1.5, 2.0];
            let solve = |slot: usize| {
                let (benefit, cost, _) = regions[slot];
                costs.get(cost).map(|&c| (f64::from(benefit) / c, slot))
            };
            let mut everything: Vec<(f64, usize)> =
                (0..regions.len()).filter_map(solve).collect();
            everything.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap());
            everything.truncate(k);
            let expected: Vec<usize> = everything.iter().map(|&(_, slot)| slot).collect();

            let known: Vec<RankedRegion<usize>> = (0..regions.len())
                .filter(|&slot| regions[slot].2)
                .filter_map(|slot| solve(slot).map(|item| RankedRegion { slot, item }))
                .collect();
            let misses: Vec<(usize, f64)> = (0..regions.len())
                .filter(|&slot| !regions[slot].2)
                .map(|slot| (slot, f64::from(regions[slot].0)))
                .collect();
            let mut solved = 0u64;
            let (kept, skipped) = keep_best_regions(known, &misses, 0.5, k, |mi| {
                solved += 1;
                Ok::<_, ()>(solve(misses[mi].0))
            })
            .unwrap();
            proptest::prop_assert_eq!(kept, expected);
            proptest::prop_assert_eq!(solved + skipped, misses.len() as u64);
        }
    }

    #[test]
    fn skipped_region_solves_keep_the_budget_stop() {
        // A DAG with more regions than a round keeps: solving every miss
        // in root order would poll the token at the first miss's first
        // DP step, so an exhausted budget must still stop the round when
        // every remaining miss is skipped — and must not stop a round
        // with no miss at all.
        let c =
            tpi_gen::dags::random_dag(&tpi_gen::dags::RandomDagConfig::new(24, 300, 5)).unwrap();
        let mut eng = engine(c);
        let undetected = eng.simulate().unwrap().undetected_indices();
        let threshold = Threshold::from_log2(-10.0);
        let cfg = OptimizeConfig::default();
        let first = eng
            .plan_region_groups(threshold, &cfg, &undetected)
            .unwrap();
        assert!(eng.stats().region_dp_skipped > 0, "{:?}", eng.stats());
        eng.set_control(RunControl::with_budget(0));
        match eng.plan_region_groups(threshold, &cfg, &undetected) {
            Err(TpiError::Interrupted { reason }) => {
                assert_eq!(reason, StopReason::BudgetExhausted)
            }
            other => panic!("skipped misses must poll the token: {other:?}"),
        }

        // Everything solved: the round replays from the memo untouched.
        let all = OptimizeConfig {
            regions_per_round: 100_000,
            ..OptimizeConfig::default()
        };
        eng.set_control(RunControl::unlimited());
        eng.plan_region_groups(threshold, &all, &undetected)
            .unwrap();
        let solves = eng.stats().memo_misses;
        eng.set_control(RunControl::with_budget(0));
        let replayed = eng
            .plan_region_groups(threshold, &all, &undetected)
            .unwrap();
        assert_eq!(
            eng.stats().memo_misses,
            solves,
            "no DP may run on a full memo"
        );
        assert_eq!(&replayed[..first.len()], &first[..]);
    }

    #[test]
    fn untouched_regions_hit_the_memo_across_rounds() {
        // Two deep AND cones, both random-pattern resistant under a tiny
        // budget. Each round commits at most one candidate group, so the
        // other cone re-extracts to a byte-identical subproblem next
        // round and must replay from the memo instead of re-running the
        // DP.
        let mut b = CircuitBuilder::new("deep-twin");
        let xs = b.inputs(24, "x");
        let a = b.balanced_tree(GateKind::And, &xs[..12], "a").unwrap();
        let o = b.balanced_tree(GateKind::And, &xs[12..], "o").unwrap();
        b.output(a);
        b.output(o);
        let c = b.finish().unwrap();

        let mut eng = TpiEngine::new(
            c,
            EngineConfig {
                patterns: 256,
                seed: 3,
                ..EngineConfig::default()
            },
        )
        .unwrap();
        let cfg = OptimizeConfig {
            max_rounds: 3,
            ..OptimizeConfig::default()
        };
        eng.optimize(Threshold::from_log2(-6.0), &cfg).unwrap();
        assert!(
            eng.stats().memo_hits > 0,
            "unchanged regions must replay memoized DP solutions, stats: {:?}",
            eng.stats()
        );
        // Every DP actually run (a memo miss) is timed, replays are not.
        let region_dp = eng.registry().histogram("engine.region_dp_us");
        assert_eq!(region_dp.count(), eng.stats().memo_misses);
        assert_eq!(eng.registry().histogram("engine.optimize_us").count(), 1);
    }
}
