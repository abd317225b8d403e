use std::sync::atomic::{AtomicUsize, Ordering};

use tpi_netlist::transform::apply_plan;
use tpi_netlist::{NetlistError, TestPoint, TestPointKind, Topology};
use tpi_sim::{RunControl, StopReason};
use tpi_testability::{CopAnalysis, CopProbe};

use crate::evaluate::PlanEvaluator;
use crate::{CandidateEval, Plan, TpiError, TpiProblem};

/// Candidates each greedy worker needs for its thread to pay off: a round
/// of `n` candidates gets at most `n / CANDIDATES_PER_WORKER` workers, so
/// helpers start at twice this. See DESIGN §6.2i for the measurement.
const CANDIDATES_PER_WORKER: usize = 128;

/// Candidate indices a worker claims at a time.
const CLAIM: usize = 16;

/// Tuning for [`GreedyOptimizer`].
#[derive(Clone, Debug)]
pub struct GreedyConfig {
    /// Maximum number of test points inserted.
    pub max_points: usize,
    /// Cost budget: a candidate is considered only if the plan's cost
    /// with it added stays within this bound, so the returned plan never
    /// costs more.
    pub max_cost: f64,
    /// Candidate kinds tried at every node.
    pub kinds: Vec<TestPointKind>,
    /// Candidate scoring path: incremental cone-delta COP probes
    /// (default) or the legacy full `apply_plan` + whole-circuit
    /// re-analysis per candidate. Both select bit-identical plans; legacy
    /// is kept as the A/B oracle behind `--candidate-eval legacy`.
    pub candidate_eval: CandidateEval,
    /// Workers scoring a round's candidates at once (default: every
    /// hardware thread; 0 counts as 1). Small rounds use fewer, down to
    /// one on the calling thread; the legacy oracle always uses one.
    /// Plans, costs, stats and errors do not depend on it.
    pub threads: usize,
}

impl Default for GreedyConfig {
    fn default() -> GreedyConfig {
        GreedyConfig {
            max_points: 64,
            max_cost: f64::INFINITY,
            kinds: vec![
                TestPointKind::Observe,
                TestPointKind::ControlAnd,
                TestPointKind::ControlOr,
                TestPointKind::Full,
            ],
            candidate_eval: CandidateEval::default(),
            threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
        }
    }
}

/// Work counters of one [`GreedyOptimizer`] run; equal inputs give equal
/// counters on any host.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GreedyStats {
    /// Candidate-scoring rounds: one per committed point, plus a last
    /// round that found nothing worth committing.
    pub rounds: usize,
    /// Candidates scored, each by one incremental COP probe (by one full
    /// re-analysis under [`CandidateEval::Legacy`]).
    pub probes: usize,
    /// Forward plus backward worklist nodes the probes visited (0 under
    /// [`CandidateEval::Legacy`]).
    pub probe_nodes: usize,
}

/// The classical iterative-greedy baseline (Seiss-style): at each step,
/// evaluate every `(node, kind)` candidate with the analytic
/// [`PlanEvaluator`] and insert the one with the best
/// *newly-satisfied-faults per cost* ratio; repeat until the threshold is
/// met everywhere, the budget is exhausted, or no candidate helps.
///
/// Unlike [`DpOptimizer`](crate::DpOptimizer) the greedy runs on any
/// circuit (COP is approximate under reconvergence) but carries no
/// optimality guarantee — the Table 2 experiment quantifies the gap.
#[derive(Clone, Debug, Default)]
pub struct GreedyOptimizer {
    config: GreedyConfig,
}

impl GreedyOptimizer {
    /// Create a greedy optimizer.
    pub fn new(config: GreedyConfig) -> GreedyOptimizer {
        GreedyOptimizer { config }
    }

    /// Run the greedy loop. The returned plan's
    /// [`is_feasible`](Plan::is_feasible) reports whether the threshold
    /// was met.
    ///
    /// # Errors
    ///
    /// [`TpiError::Netlist`] for cyclic circuits.
    pub fn solve(&self, problem: &TpiProblem) -> Result<Plan, TpiError> {
        self.solve_controlled(problem, &RunControl::unlimited())
            .map(|(plan, _)| plan)
    }

    /// [`solve`](GreedyOptimizer::solve) under a [`RunControl`] token,
    /// polled once per greedy iteration. Greedy is naturally *anytime*:
    /// on interruption the points committed so far are returned as a
    /// valid (possibly infeasible) plan together with the
    /// [`StopReason`]; the partial plan is a prefix of the uninterrupted
    /// run's, so its cost never exceeds it.
    ///
    /// # Errors
    ///
    /// [`TpiError::Netlist`] for cyclic circuits.
    pub fn solve_controlled(
        &self,
        problem: &TpiProblem,
        control: &RunControl,
    ) -> Result<(Plan, Option<StopReason>), TpiError> {
        self.solve_with_stats(problem, control)
            .map(|(plan, stopped, _)| (plan, stopped))
    }

    /// [`solve_controlled`](GreedyOptimizer::solve_controlled) that also
    /// returns the run's [`GreedyStats`].
    ///
    /// # Errors
    ///
    /// [`TpiError::Netlist`] for cyclic circuits.
    pub fn solve_with_stats(
        &self,
        problem: &TpiProblem,
        control: &RunControl,
    ) -> Result<(Plan, Option<StopReason>, GreedyStats), TpiError> {
        let evaluator = PlanEvaluator::new(problem)?;
        let circuit = problem.circuit();
        let topo = Topology::of(circuit)?;
        let costs = problem.costs();
        let max_cost = self.config.max_cost;

        // Control/full points need a consumer to re-drive.
        let controllable: Vec<bool> = circuit
            .node_ids()
            .map(|id| topo.fanout_count(id) > 0 || circuit.is_output(id))
            .collect();

        // Stem-fault sites probed by the incremental evaluator, in target
        // order (so probe deltas index `PlanEval::probabilities`).
        let target_sites: Vec<(tpi_netlist::NodeId, bool)> = problem
            .targets()
            .iter()
            .map(|t| (t.node, t.stuck))
            .collect();
        let mut scorer = DeltaScorer::new(problem.threshold().value());

        let mut plan: Vec<TestPoint> = Vec::new();
        let mut current = evaluator.evaluate(&plan)?;
        scorer.reset(&current.probabilities);
        let mut stats = GreedyStats::default();
        let mut stopped = None;
        while !current.feasible && plan.len() < self.config.max_points && current.cost < max_cost {
            stopped = control.poll();
            if stopped.is_some() {
                break;
            }
            stats.rounds += 1;
            let current_deficit = scorer.deficit();
            // Candidates that apply here and fit the remaining budget.
            let (controllable, spent) = (&controllable, current.cost);
            let candidates = circuit.node_ids().flat_map(|id| {
                self.config
                    .kinds
                    .iter()
                    .filter(move |&&kind| {
                        (kind == TestPointKind::Observe || controllable[id.index()])
                            && spent + costs.of(kind) <= max_cost
                    })
                    .map(move |&kind| TestPoint::new(id, kind))
            });
            // (candidate, gained-per-cost, deficit-reduction-per-cost)
            let mut best: Option<(TestPoint, f64, f64)> = None;
            let mut consider = |candidate: TestPoint, meeting: usize, deficit: f64| {
                let cost = costs.of(candidate.kind);
                let gained = meeting.saturating_sub(current.meeting) as f64 / cost;
                let relief = (current_deficit - deficit) / cost;
                if gained <= 0.0 && relief <= 1e-9 {
                    return;
                }
                let better = match best {
                    None => true,
                    Some((_, g, r)) => {
                        gained > g + 1e-12 || ((gained - g).abs() <= 1e-12 && relief > r + 1e-12)
                    }
                };
                if better {
                    best = Some((candidate, gained, relief));
                }
            };
            if self.config.candidate_eval == CandidateEval::Batched {
                // One full analysis of the committed-plan circuit per
                // round, then O(cone) probes per candidate, scored on the
                // workers and considered here in candidate order.
                let (cur, _) = apply_plan(circuit, &plan)?;
                let cur_topo = Topology::of(&cur)?;
                let cur_cop = CopAnalysis::with_input_probs(&cur, problem.input_probs())?;
                let probe = CopProbe::new(&cur, &cur_topo, &cur_cop, &target_sites);
                let candidates: Vec<TestPoint> = candidates.collect();
                let (scores, visited) =
                    score_round(&candidates, probe, &mut scorer, self.config.threads)?;
                for (&candidate, &(meeting, deficit)) in candidates.iter().zip(&scores) {
                    consider(candidate, meeting, deficit);
                }
                stats.probes += candidates.len();
                stats.probe_nodes += visited;
            } else {
                for candidate in candidates {
                    plan.push(candidate);
                    let eval = evaluator.evaluate(&plan)?;
                    plan.pop();
                    consider(
                        candidate,
                        eval.meeting,
                        scorer.deficit_of(&eval.probabilities),
                    );
                    stats.probes += 1;
                }
            }
            match best {
                Some((tp, _, _)) => {
                    plan.push(tp);
                    current = evaluator.evaluate(&plan)?;
                    scorer.reset(&current.probabilities);
                }
                None => break, // no candidate helps: stuck
            }
        }
        Ok((
            Plan::new(plan, current.cost, current.feasible),
            stopped,
            stats,
        ))
    }
}

/// Score every candidate of a round against one frozen snapshot:
/// `(meeting, deficit)` per candidate, in candidate order, and the probe
/// nodes visited. A round gets `min(threads, candidates /
/// CANDIDATES_PER_WORKER)` workers, at least one; one worker is the
/// calling thread with `probe` and `scorer`, and each helper probes with
/// its own clones. A probe's delta and visit count depend only on the
/// candidate and the snapshot (the probe's scratch state equals the
/// snapshot between probes), so the scores, their sum of visits and the
/// error of the earliest failing candidate are the same at every worker
/// count.
fn score_round(
    candidates: &[TestPoint],
    mut probe: CopProbe<'_>,
    scorer: &mut DeltaScorer,
    threads: usize,
) -> Result<(Vec<(usize, f64)>, usize), NetlistError> {
    let workers = threads.min(candidates.len() / CANDIDATES_PER_WORKER).max(1);
    let next = AtomicUsize::new(0);
    let shares = std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..workers)
            .map(|_| {
                let (mut probe, mut scorer) = (probe.clone(), scorer.clone());
                let next = &next;
                scope.spawn(move || score_claimed(candidates, next, &mut probe, &mut scorer))
            })
            .collect();
        let mut shares = vec![score_claimed(candidates, &next, &mut probe, scorer)];
        shares.extend(helpers.into_iter().map(|helper| {
            helper
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
        }));
        shares
    });
    let mut scores = vec![(0, 0.0); candidates.len()];
    let mut visited = 0;
    let mut failed: Option<(usize, NetlistError)> = None;
    for share in shares {
        for (i, score) in share.scores {
            scores[i] = score;
        }
        visited += share.visited;
        if let Some((i, e)) = share.failed {
            if failed.as_ref().is_none_or(|&(f, _)| i < f) {
                failed = Some((i, e));
            }
        }
    }
    match failed {
        Some((_, e)) => Err(e),
        None => Ok((scores, visited)),
    }
}

/// One worker's part of a round.
struct Share {
    /// `(candidate index, (meeting, deficit))`.
    scores: Vec<(usize, (usize, f64))>,
    /// Probe nodes visited.
    visited: usize,
    /// The worker's first failing candidate; it scores nothing after it.
    failed: Option<(usize, NetlistError)>,
}

/// Claim [`CLAIM`] candidate indices at a time from `next` and score them
/// until none is left or one fails. Every index below a failing one was
/// claimed before it, so some worker scores it.
fn score_claimed(
    candidates: &[TestPoint],
    next: &AtomicUsize,
    probe: &mut CopProbe<'_>,
    scorer: &mut DeltaScorer,
) -> Share {
    let start = probe.nodes_visited();
    let mut share = Share {
        scores: Vec::new(),
        visited: 0,
        failed: None,
    };
    'claims: loop {
        let first = next.fetch_add(CLAIM, Ordering::Relaxed);
        if first >= candidates.len() {
            break;
        }
        let end = (first + CLAIM).min(candidates.len());
        for (i, &candidate) in (first..end).zip(&candidates[first..end]) {
            match probe.probe(candidate) {
                Ok(moved) => share.scores.push((i, scorer.score(moved))),
                Err(e) => {
                    share.failed = Some((i, e));
                    break 'claims;
                }
            }
        }
    }
    share.visited = probe.nodes_visited() - start;
    share
}

/// Relative margin above δ past which [`DeltaScorer::shortfall`] skips
/// its `log2`.
const CLEAR_MARGIN: f64 = 1.0 / (1u64 << 32) as f64;

/// Greedy's plateau tie-breaker is the total log₂ shortfall of the unmet
/// targets (the *deficit*): when no single point pushes a target over the
/// threshold, make the move that shrinks the aggregate gap fastest.
///
/// A scorer caches, once per round, each target's shortfall term, whether
/// it meets δ, and the prefix sums of the terms in target order. A probe
/// moves only a few targets, so a candidate's deficit is `prefix[j0]`
/// plus the in-order sum from `j0`, the lowest target index the probe
/// reports, over a scratch copy of the terms with the reported targets'
/// new terms written in. Those are the very additions, in the very order,
/// of summing every target's term afresh, so the deficit — and every
/// `1e-12` tie-break decided on it — is bit-identical to the full sum,
/// while `log2` runs only on the reported targets. (A `Σ(old − new)`
/// shortcut over the reported targets would differ in the last bits.)
#[derive(Clone)]
struct DeltaScorer {
    log2_delta: f64,
    /// The probability at which a target counts as meeting δ.
    meets_at: f64,
    /// Above this probability a target's shortfall is 0 without a
    /// `log2`; see [`DeltaScorer::shortfall`].
    clear_above: f64,
    terms: Vec<f64>,
    meets: Vec<bool>,
    meeting: usize,
    /// `prefix[j]`: the in-order sum of `terms[..j]`.
    prefix: Vec<f64>,
    /// `terms`, except while a candidate is being scored.
    scratch: Vec<f64>,
}

impl DeltaScorer {
    fn new(delta: f64) -> DeltaScorer {
        DeltaScorer {
            log2_delta: delta.log2(),
            meets_at: delta - 1e-12,
            clear_above: delta * (1.0 + CLEAR_MARGIN),
            terms: Vec::new(),
            meets: Vec::new(),
            meeting: 0,
            prefix: Vec::new(),
            scratch: Vec::new(),
        }
    }

    /// One target's shortfall below δ in log₂ units, 0 once met.
    ///
    /// Most targets clear δ by far, and `log2` is most of the scorer's
    /// time, so a `p` above `δ · (1 + 2⁻³²)` returns 0 at once. There the
    /// exact `log₂ p − log₂ δ` exceeds `2⁻³² / ln 2 ≈ 3.4e-10`, while the
    /// two rounded `log2`s (each within an ulp of values below 1 075 in
    /// magnitude, so within `2.3e-13`) cannot close that gap: the full
    /// formula's difference is negative and its `max` gives the same
    /// `+0.0`. Inside the band the formula runs as it always did.
    fn shortfall(&self, p: f64) -> f64 {
        if p > self.clear_above {
            return 0.0;
        }
        (self.log2_delta - p.max(1e-300).log2()).max(0.0)
    }

    /// Cache the committed plan's per-target probabilities for a round.
    fn reset(&mut self, probabilities: &[f64]) {
        self.terms = probabilities.iter().map(|&p| self.shortfall(p)).collect();
        self.meets = probabilities.iter().map(|&p| p >= self.meets_at).collect();
        self.meeting = self.meets.iter().filter(|&&m| m).count();
        // Start where `Iterator::sum` starts, so every prefix is the sum
        // of its terms bit for bit.
        let mut acc: f64 = std::iter::empty::<f64>().sum();
        self.prefix.clear();
        self.prefix.push(acc);
        for &term in &self.terms {
            acc += term;
            self.prefix.push(acc);
        }
        self.scratch.clone_from(&self.terms);
    }

    /// The committed plan's deficit.
    fn deficit(&self) -> f64 {
        self.prefix[self.terms.len()]
    }

    /// The deficit of a full probability vector, summed afresh.
    fn deficit_of(&self, probabilities: &[f64]) -> f64 {
        probabilities.iter().map(|&p| self.shortfall(p)).sum()
    }

    /// `(targets meeting δ, deficit)` with the `moved` targets at their
    /// new probabilities and every other target at the cached one.
    /// `moved` names each target at most once, as a probe delta does.
    fn score(&mut self, moved: &[(usize, f64)]) -> (usize, f64) {
        let mut meeting = self.meeting;
        let mut j0 = self.terms.len();
        for &(t, p) in moved {
            meeting = meeting - usize::from(self.meets[t]) + usize::from(p >= self.meets_at);
            self.scratch[t] = self.shortfall(p);
            j0 = j0.min(t);
        }
        let mut deficit = self.prefix[j0];
        for &term in &self.scratch[j0..] {
            deficit += term;
        }
        for &(t, _) in moved {
            self.scratch[t] = self.terms[t];
        }
        (meeting, deficit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Threshold, TpiProblem};
    use tpi_netlist::{CircuitBuilder, GateKind};

    fn and_cone(width: usize) -> tpi_netlist::Circuit {
        let mut b = CircuitBuilder::new(format!("and{width}"));
        let xs = b.inputs(width, "x");
        let root = b.balanced_tree(GateKind::And, &xs, "g").unwrap();
        b.output(root);
        b.finish().unwrap()
    }

    #[test]
    fn fixes_resistant_cone() {
        let c = and_cone(16);
        let p = TpiProblem::min_cost(&c, Threshold::from_log2(-6.0)).unwrap();
        let plan = GreedyOptimizer::default().solve(&p).unwrap();
        assert!(plan.is_feasible(), "plan: {plan}");
        assert!(!plan.is_empty());
        // Verified independently.
        let eval = crate::evaluate::PlanEvaluator::new(&p)
            .unwrap()
            .evaluate(plan.test_points())
            .unwrap();
        assert!(eval.feasible);
    }

    #[test]
    fn no_insertion_when_already_feasible() {
        let c = and_cone(4);
        let p = TpiProblem::min_cost(&c, Threshold::from_log2(-6.0)).unwrap();
        let plan = GreedyOptimizer::default().solve(&p).unwrap();
        assert!(plan.is_empty());
        assert!(plan.is_feasible());
    }

    #[test]
    fn respects_point_budget() {
        let c = and_cone(32);
        let p = TpiProblem::min_cost(&c, Threshold::from_log2(-3.0)).unwrap();
        let cfg = GreedyConfig {
            max_points: 2,
            ..GreedyConfig::default()
        };
        let plan = GreedyOptimizer::new(cfg).solve(&p).unwrap();
        assert!(plan.len() <= 2);
    }

    fn recon() -> tpi_netlist::Circuit {
        let mut b = CircuitBuilder::new("recon");
        let xs = b.inputs(6, "x");
        let stem = b.balanced_tree(GateKind::And, &xs[..4], "s").unwrap();
        let g1 = b.gate(GateKind::And, vec![stem, xs[4]], "g1").unwrap();
        let g2 = b.gate(GateKind::And, vec![stem, xs[5]], "g2").unwrap();
        let y = b.gate(GateKind::Or, vec![g1, g2], "y").unwrap();
        b.output(y);
        b.finish().unwrap()
    }

    #[test]
    fn works_on_reconvergent_circuits() {
        // Greedy (unlike the DP) accepts fanout.
        let c = recon();
        let p = TpiProblem::min_cost(&c, Threshold::from_log2(-4.0)).unwrap();
        let plan = GreedyOptimizer::default().solve(&p).unwrap();
        assert!(plan.is_feasible(), "plan: {plan}");
    }

    #[test]
    fn batched_probe_selects_bit_identical_plans() {
        use crate::CandidateEval;
        for (c, log2) in [(and_cone(16), -6.0), (recon(), -4.0), (and_cone(32), -3.0)] {
            let p = TpiProblem::min_cost(&c, Threshold::from_log2(log2)).unwrap();
            let legacy = GreedyOptimizer::new(GreedyConfig {
                candidate_eval: CandidateEval::Legacy,
                ..GreedyConfig::default()
            })
            .solve(&p)
            .unwrap();
            let batched = GreedyOptimizer::default().solve(&p).unwrap();
            assert_eq!(legacy, batched, "circuit {}", c.name());
        }
    }

    #[test]
    fn cancelled_before_first_iteration_returns_empty_anytime_plan() {
        let c = and_cone(16);
        let p = TpiProblem::min_cost(&c, Threshold::from_log2(-6.0)).unwrap();
        let control = RunControl::cancellable();
        control.cancel();
        let (plan, stopped) = GreedyOptimizer::default()
            .solve_controlled(&p, &control)
            .unwrap();
        assert_eq!(stopped, Some(StopReason::Cancelled));
        assert!(plan.is_empty());
        assert!(!plan.is_feasible());
        let full = GreedyOptimizer::default().solve(&p).unwrap();
        assert!(plan.cost() <= full.cost());
    }

    #[test]
    fn never_exceeds_the_cost_budget() {
        // Each budget falls between two costs the unbudgeted run passes
        // through, where checking only the cost already spent overshoots
        // (by one observation point in every case here).
        let dag = tpi_netlist::bench_format::parse_bench(include_str!(
            "../../../results/dag400_s5.bench"
        ))
        .unwrap();
        for (c, log2, budget) in [
            (and_cone(16), -3.0, 1.2),
            (dag.clone(), -10.0, 5.0),
            (dag, -10.0, 10.25),
        ] {
            let p = TpiProblem::min_cost(&c, Threshold::from_log2(log2)).unwrap();
            let plan = GreedyOptimizer::new(GreedyConfig {
                max_cost: budget,
                ..GreedyConfig::default()
            })
            .solve(&p)
            .unwrap();
            assert!(!plan.is_empty() && !plan.is_feasible(), "{plan}");
            assert!(
                plan.cost() <= budget,
                "{}: cost {} over budget {budget}",
                c.name(),
                plan.cost()
            );
            // The budget was spent down to less than one point's price.
            let cheapest = p.costs().of(TestPointKind::Observe);
            assert!(plan.cost() + cheapest > budget, "{plan}");
        }
    }

    #[test]
    fn stats_repeat_and_count_the_scored_candidates() {
        let c = recon();
        let p = TpiProblem::min_cost(&c, Threshold::from_log2(-4.0)).unwrap();
        let run = |candidate_eval: CandidateEval| {
            GreedyOptimizer::new(GreedyConfig {
                candidate_eval,
                ..GreedyConfig::default()
            })
            .solve_with_stats(&p, &RunControl::unlimited())
            .unwrap()
        };
        let (plan, _, stats) = run(CandidateEval::Batched);
        assert_eq!(run(CandidateEval::Batched).2, stats);
        assert!(stats.rounds >= plan.len() && stats.rounds <= plan.len() + 1);
        assert!(stats.probes > 0 && stats.probe_nodes > 0);
        // The oracle scores the same candidates, by full re-analysis.
        let (_, _, legacy) = run(CandidateEval::Legacy);
        assert_eq!(
            legacy,
            GreedyStats {
                probe_nodes: 0,
                ..stats
            }
        );
    }

    #[test]
    fn delta_scores_match_full_rescoring_bit_for_bit() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(14);
        // A δ whose log₂ is exact, one whose log₂ rounds, and one whose
        // log₂ is near the largest magnitude a probability has.
        for delta in [2f64.powi(-10), 3.1e-4, 1.7e-300] {
            // The formula without the log2 skip, summed afresh.
            let log2_delta = delta.log2();
            let reference = |probabilities: &[f64]| -> f64 {
                probabilities
                    .iter()
                    .map(|&p| (log2_delta - p.max(1e-300).log2()).max(0.0))
                    .sum()
            };
            // Probabilities over many magnitudes, a few of them exactly 0
            // or at δ, and some within a margin's width of δ, on either
            // side of δ and of where the scorer starts to skip `log2`, so
            // terms are of every size and many are 0.
            let draw = |rng: &mut StdRng| match rng.gen_range(0..10u32) {
                0 => 0.0,
                1 => delta,
                2 => delta * (1.0 + rng.gen_range(-1.0..2.0) * CLEAR_MARGIN),
                3 => f64::from_bits(delta.to_bits() + rng.gen_range(1..4u64)),
                _ => 2f64.powf(-rng.gen_range(0.0..30.0)),
            };
            let base: Vec<f64> = (0..500).map(|_| draw(&mut rng)).collect();
            let mut scorer = DeltaScorer::new(delta);
            scorer.reset(&base);
            assert_eq!(scorer.deficit().to_bits(), reference(&base).to_bits());
            for _ in 0..2000 {
                let mut moved = Vec::new();
                let mut full = base.clone();
                for _ in 0..rng.gen_range(0..40usize) {
                    let t = rng.gen_range(0..base.len());
                    if !moved.iter().any(|&(m, _)| m == t) {
                        let p = draw(&mut rng);
                        moved.push((t, p));
                        full[t] = p;
                    }
                }
                let (meeting, deficit) = scorer.score(&moved);
                let want = reference(&full);
                assert_eq!(
                    deficit.to_bits(),
                    want.to_bits(),
                    "δ {delta}: {deficit} vs {want}"
                );
                assert_eq!(scorer.deficit_of(&full).to_bits(), want.to_bits());
                let meets = full.iter().filter(|&&p| p >= delta - 1e-12).count();
                assert_eq!(meeting, meets);
            }
        }
    }

    #[test]
    fn workers_change_no_plan_stat_or_stop() {
        use tpi_gen::dags::{random_dag, RandomDagConfig};
        let c = random_dag(&RandomDagConfig::new(16, 150, 3)).unwrap();
        let p = TpiProblem::min_cost(&c, Threshold::from_log2(-8.0)).unwrap();
        let run = |threads: usize, max_cost: f64, control: &RunControl| {
            GreedyOptimizer::new(GreedyConfig {
                threads,
                max_cost,
                ..GreedyConfig::default()
            })
            .solve_with_stats(&p, control)
            .unwrap()
        };
        let unlimited = RunControl::unlimited();
        let one = run(1, f64::INFINITY, &unlimited);
        let (plan, _, stats) = &one;
        // Every round offers enough candidates for four workers.
        assert!(stats.rounds > 2, "{stats:?}");
        assert!(stats.probes >= 4 * CANDIDATES_PER_WORKER * stats.rounds);
        for threads in [0, 2, 3, 4] {
            assert_eq!(
                run(threads, f64::INFINITY, &unlimited),
                one,
                "{threads} workers"
            );
        }
        // A budget cut stops both counts at the same point.
        let budget = plan.cost() / 2.0;
        let cut = run(1, budget, &unlimited);
        assert!(
            cut.0.len() < plan.len() && cut.0.cost() <= budget,
            "{}",
            cut.0
        );
        assert_eq!(run(2, budget, &unlimited), cut);
        // So does a token cancelled before the first round.
        let cancelled = RunControl::cancellable();
        cancelled.cancel();
        let stopped = run(2, f64::INFINITY, &cancelled);
        assert_eq!(stopped, run(1, f64::INFINITY, &cancelled));
        assert_eq!(stopped.1, Some(StopReason::Cancelled));
        assert!(stopped.0.is_empty());
        assert_eq!(stopped.2, GreedyStats::default());
    }

    #[test]
    fn the_earliest_failing_candidate_is_reported_at_every_worker_count() {
        // 511 nodes, two candidates each: enough for four workers.
        let c = and_cone(256);
        let p = TpiProblem::min_cost(&c, Threshold::from_log2(-6.0)).unwrap();
        let topo = Topology::of(&c).unwrap();
        let cop = CopAnalysis::with_input_probs(&c, p.input_probs()).unwrap();
        let sites: Vec<_> = p.targets().iter().map(|t| (t.node, t.stuck)).collect();
        let probe = CopProbe::new(&c, &topo, &cop, &sites);
        let base = PlanEvaluator::new(&p).unwrap().evaluate(&[]).unwrap();
        let mut candidates: Vec<TestPoint> = c
            .node_ids()
            .flat_map(|id| {
                [
                    TestPoint::observe(id),
                    TestPoint::new(id, TestPointKind::Full),
                ]
            })
            .collect();
        let missing = |index: usize| TestPoint::observe(tpi_netlist::NodeId::from_index(index));
        assert!(candidates.len() >= 4 * CANDIDATES_PER_WORKER);
        candidates[700] = missing(1_000);
        candidates[300] = missing(2_000);
        candidates[1_000] = missing(3_000);
        for threads in 1..=4 {
            let mut scorer = DeltaScorer::new(p.threshold().value());
            scorer.reset(&base.probabilities);
            let got = score_round(&candidates, probe.clone(), &mut scorer, threads);
            assert_eq!(
                got.unwrap_err(),
                NetlistError::NoSuchNode { index: 2_000 },
                "{threads} workers"
            );
        }
    }

    #[test]
    fn reports_infeasible_when_stuck() {
        // δ > 1/2 can never be met for PI faults; greedy must terminate
        // and report infeasibility.
        let c = and_cone(2);
        let p = TpiProblem::min_cost(&c, Threshold::new(0.9).unwrap()).unwrap();
        let plan = GreedyOptimizer::default().solve(&p).unwrap();
        assert!(!plan.is_feasible());
    }
}
