//! The pattern-count search driver: proxy-ranked candidate control
//! points, refereed by real re-ATPG + re-compaction probes.
//!
//! Each round: analyse the current cube set's conflicts, rank candidate
//! `(line, kind)` insertions by the admissible resolvable-conflict
//! proxy ([`ConflictAnalysis::resolvable_by`]), then *probe* the most
//! promising ones — rebuild and repack the cube set of a clone of the
//! circuit with the candidate applied ([`CubeSet::probe`]) — and commit
//! only a probed strict improvement. A probe equals a full
//! regeneration, except that it skips the PODEM search of every fault
//! the current set proved redundant and the point cannot reach, and
//! aims the X-path check of the others at the outputs the point can
//! newly affect, so a search a full regeneration aborts may end in a
//! verdict ([`CubeSet::probe`]). Because
//! every commit is refereed by the real objective, the final pattern
//! count never exceeds the no-TPI baseline, and an interrupted run
//! returns the exact prefix committed so far (the same anytime contract
//! as the coverage optimizers). The `compaction.commit_rank` histogram
//! records each committed candidate's 0-based position in the ranking.

use tpi_atpg::AtpgCounters;
use tpi_core::{CostModel, Plan};
use tpi_netlist::transform::apply_test_point;
use tpi_netlist::{Circuit, NetlistError, TestPoint, TestPointKind, Topology};
use tpi_obs::Registry;
use tpi_sim::{Fault, RunControl, StopReason};

use crate::{fanin_cones, input_supports, Bitset, ConflictAnalysis, CubeConfig, CubeSet};

/// How aggressively a round spends probes.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum SearchTier {
    /// Probe the top [`PatternsConfig::probe_width`] ranked candidates
    /// every round and commit the best improvement (more probes, better
    /// commits).
    Greedy,
    /// Walk the ranking in order and commit the *first* probed
    /// improvement, giving up after `2 × probe_width` probes (fewer
    /// probes per round; the tier the session engine drives).
    Constructive,
}

/// Tuning for [`PatternsOptimizer`].
#[derive(Clone, Debug)]
pub struct PatternsConfig {
    /// Maximum number of test points inserted.
    pub max_points: usize,
    /// Stop when the plan cost would exceed this budget.
    pub max_cost: f64,
    /// Probes per round (see [`SearchTier`]).
    pub probe_width: usize,
    /// Candidate kinds tried. Control points resolve *justification*
    /// conflicts (ranked by blocking-set containment in the input
    /// support); observation points resolve *propagation* conflicts
    /// (ranked by target-fault membership in the fanin cone); full
    /// points combine both proxies.
    pub kinds: Vec<TestPointKind>,
    /// Cube-set generation tuning (PODEM limits, drop-fill seed).
    pub cubes: CubeConfig,
    /// Blocking-mask cap per conflict analysis (0 = unlimited).
    pub conflict_cap: usize,
    /// Skip candidates whose input support has fewer set bits than
    /// this (a control point inside a 1-input cone can only move a
    /// conflict, never dissolve it).
    pub min_support: u32,
    /// Probe-spending strategy.
    pub tier: SearchTier,
}

impl Default for PatternsConfig {
    fn default() -> PatternsConfig {
        PatternsConfig {
            max_points: 8,
            max_cost: f64::INFINITY,
            probe_width: 4,
            kinds: vec![
                TestPointKind::ControlAnd,
                TestPointKind::ControlOr,
                TestPointKind::Observe,
            ],
            cubes: CubeConfig::default(),
            conflict_cap: 200_000,
            min_support: 2,
            tier: SearchTier::Greedy,
        }
    }
}

/// A proxy-scored candidate insertion.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct CandidateScore {
    /// The candidate test point.
    pub point: TestPoint,
    /// Upper bound on the blocked merges it can resolve.
    pub resolvable: u32,
}

/// Rank every controllable `(line, kind)` candidate by the admissible
/// resolvable-conflict proxy, descending; ties break by node id then
/// kind so the ranking is deterministic. Candidates that can resolve
/// nothing are dropped.
pub fn rank_candidates(
    circuit: &Circuit,
    topo: &Topology,
    supports: &[Bitset],
    cones: &[Bitset],
    analysis: &ConflictAnalysis,
    kinds: &[TestPointKind],
    min_support: u32,
) -> Vec<CandidateScore> {
    let mut ranked = Vec::new();
    for id in circuit.node_ids() {
        // Control/full points need a consumer to re-drive; observation
        // points are allowed anywhere but pointless on dangling lines.
        if topo.fanout_count(id) == 0 && !circuit.is_output(id) {
            continue;
        }
        let support = &supports[id.index()];
        let by_control = if support.count() < min_support {
            0
        } else {
            analysis.resolvable_by(support)
        };
        let by_observation = analysis.resolvable_by_observation(&cones[id.index()]);
        for &kind in kinds {
            let resolvable = match kind {
                TestPointKind::ControlAnd | TestPointKind::ControlOr => by_control,
                TestPointKind::Observe => by_observation,
                TestPointKind::Full => by_control.saturating_add(by_observation),
            };
            if resolvable == 0 {
                continue;
            }
            ranked.push(CandidateScore {
                point: TestPoint::new(id, kind),
                resolvable,
            });
        }
    }
    ranked.sort_by(|a, b| {
        b.resolvable
            .cmp(&a.resolvable)
            .then(a.point.node.cmp(&b.point.node))
            .then(a.point.kind.cmp(&b.point.kind))
    });
    ranked
}

/// What one search round decided.
#[derive(Clone, Debug)]
pub struct RoundDecision {
    /// The committed point and the probed cube set of the circuit with
    /// it applied — `None` when no probed candidate improved.
    pub committed: Option<(TestPoint, CubeSet)>,
    /// Probes spent this round.
    pub probes: usize,
    /// Conflicting cube pairs in the analysed set.
    pub conflicts: usize,
    /// `Some` when the control token fired mid-round (nothing is
    /// committed in that case).
    pub interrupted: Option<StopReason>,
}

/// Per-round progress record.
#[derive(Clone, Debug)]
pub struct PatternsRound {
    /// Round index (0-based).
    pub round: usize,
    /// Pattern count *after* this round's commit.
    pub patterns: usize,
    /// Conflicting pairs before the commit.
    pub conflicts: usize,
    /// Probes spent.
    pub probes: usize,
    /// The committed point, if any.
    pub committed: Option<TestPoint>,
}

/// Result of a pattern-count search.
#[derive(Clone, Debug)]
pub struct PatternsOutcome {
    /// The committed insertion plan (cost under [`CostModel::default`]).
    pub plan: Plan,
    /// Compacted pattern count of the unmodified circuit.
    pub patterns_before: usize,
    /// Compacted pattern count with the plan applied.
    pub patterns_after: usize,
    /// Raw cube count of the unmodified circuit.
    pub cubes_before: usize,
    /// Conflicting cube pairs of the unmodified circuit.
    pub conflicts_before: usize,
    /// Faults the baseline cube generation could not cover.
    pub uncovered_before: usize,
    /// Per-round progress.
    pub rounds: Vec<PatternsRound>,
    /// The circuit with the plan applied.
    pub modified: Circuit,
    /// `Some` when a [`RunControl`] token stopped the search; the plan
    /// is the exact prefix committed before the stop.
    pub interrupted: Option<StopReason>,
}

/// The pattern-count search driver. See the [module docs](self).
#[derive(Clone, Debug, Default)]
pub struct PatternsOptimizer {
    config: PatternsConfig,
}

impl PatternsOptimizer {
    /// Create a driver with `config`.
    pub fn new(config: PatternsConfig) -> PatternsOptimizer {
        PatternsOptimizer { config }
    }

    /// The configuration.
    pub fn config(&self) -> &PatternsConfig {
        &self.config
    }

    /// Run the search to completion with no cancellation or metrics.
    ///
    /// # Errors
    ///
    /// [`NetlistError::Cycle`] for cyclic circuits.
    pub fn solve(
        &self,
        circuit: &Circuit,
        faults: &[Fault],
    ) -> Result<PatternsOutcome, NetlistError> {
        self.solve_controlled(circuit, faults, &RunControl::unlimited(), None)
    }

    /// Run the search under a [`RunControl`] token, optionally
    /// publishing `compaction.*` / `search.*` / `atpg.*` metrics into
    /// `registry`.
    ///
    /// # Errors
    ///
    /// [`NetlistError::Cycle`] for cyclic circuits.
    pub fn solve_controlled(
        &self,
        circuit: &Circuit,
        faults: &[Fault],
        control: &RunControl,
        registry: Option<&Registry>,
    ) -> Result<PatternsOutcome, NetlistError> {
        let base = CubeSet::generate(circuit, faults, &self.config.cubes, control)?;
        if let Some(reg) = registry {
            reg.counter("compaction.cubes").add(base.len() as u64);
            base.counters.publish_to(reg);
        }
        let costs = CostModel::default();
        let mut modified = circuit.clone();
        modified.set_name(format!("{}+tpi", circuit.name()));
        let mut plan: Vec<TestPoint> = Vec::new();
        let mut rounds: Vec<PatternsRound> = Vec::new();
        let patterns_before = base.patterns();
        let cubes_before = base.len();
        let uncovered_before = base.uncovered;
        let mut conflicts_before = 0usize;
        let mut current = base;
        let mut interrupted = current.interrupted;

        while interrupted.is_none()
            && plan.len() < self.config.max_points
            && costs.total(&plan) < self.config.max_cost
        {
            let decision = self.step(
                &modified,
                &current,
                costs.total(&plan),
                faults,
                control,
                registry,
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
            apply_test_point(&mut modified, point)?;
            plan.push(point);
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
        if let Some(reg) = registry {
            reg.gauge("compaction.patterns_before")
                .set(patterns_before as i64);
            reg.gauge("compaction.patterns_after")
                .set(patterns_after as i64);
        }
        let cost = costs.total(&plan);
        Ok(PatternsOutcome {
            plan: Plan::new(plan, cost, interrupted.is_none()),
            patterns_before,
            patterns_after,
            cubes_before,
            conflicts_before,
            uncovered_before,
            rounds,
            modified,
            interrupted,
        })
    }

    /// One search round over an externally-owned circuit + cube set:
    /// analyse conflicts, rank, probe, and return the best improving
    /// candidate *without* mutating anything. The session engine
    /// drives this directly so it can keep the cube set in its
    /// version-keyed cache. `current` must be the cube set of `circuit`
    /// over `faults` under this optimizer's [`PatternsConfig::cubes`]:
    /// probes carry its redundancy verdicts ([`CubeSet::probe`]).
    ///
    /// # Errors
    ///
    /// [`NetlistError::Cycle`] for cyclic circuits.
    pub fn step(
        &self,
        circuit: &Circuit,
        current: &CubeSet,
        spent_cost: f64,
        faults: &[Fault],
        control: &RunControl,
        registry: Option<&Registry>,
    ) -> Result<RoundDecision, NetlistError> {
        let costs = CostModel::default();
        let analysis = {
            let timer = registry.map(|r| r.timer_us("compaction.conflict_us"));
            let analysis = ConflictAnalysis::analyse(
                circuit.inputs().len(),
                current,
                self.config.conflict_cap,
            );
            drop(timer);
            analysis
        };
        if let Some(reg) = registry {
            reg.counter("search.rounds").inc();
            reg.counter("compaction.conflicts")
                .add(analysis.conflicts as u64);
        }
        let mut decision = RoundDecision {
            committed: None,
            probes: 0,
            conflicts: analysis.conflicts,
            interrupted: None,
        };
        if analysis.conflicts == 0 || current.is_empty() {
            return Ok(decision);
        }
        let topo = Topology::of(circuit)?;
        let supports = input_supports(circuit, &topo);
        let cones = fanin_cones(circuit, &topo);
        let ranked = rank_candidates(
            circuit,
            &topo,
            &supports,
            &cones,
            &analysis,
            &self.config.kinds,
            self.config.min_support,
        );

        let probe_budget = match self.config.tier {
            SearchTier::Greedy => self.config.probe_width,
            SearchTier::Constructive => self.config.probe_width.saturating_mul(2),
        };
        let mut probe_counters = AtpgCounters::default();
        // The best probed improvement and its position in the ranking.
        let mut best: Option<(TestPoint, CubeSet, usize)> = None;
        for (rank, candidate) in ranked.into_iter().enumerate() {
            if decision.probes >= probe_budget {
                break;
            }
            if spent_cost + costs.of(candidate.point.kind) > self.config.max_cost {
                continue;
            }
            if let Some(reason) = control.poll() {
                decision.interrupted = Some(reason);
                break;
            }
            let probed = {
                let timer = registry.map(|r| r.timer_us("compaction.probe_us"));
                let probed = current.probe(
                    circuit,
                    candidate.point,
                    faults,
                    &self.config.cubes,
                    control,
                )?;
                drop(timer);
                probed
            };
            decision.probes += 1;
            let Some(probed) = probed else {
                continue; // candidate not applicable here (dangling line)
            };
            if let Some(reason) = probed.interrupted {
                decision.interrupted = Some(reason);
                break;
            }
            probe_counters.merge(&probed.counters);
            // A commit must strictly shrink the pattern set without
            // giving up fault coverage.
            let improves =
                probed.patterns() < current.patterns() && probed.uncovered <= current.uncovered;
            if improves {
                let better = match &best {
                    None => true,
                    Some((_, b, _)) => probed.patterns() < b.patterns(),
                };
                if better {
                    best = Some((candidate.point, probed, rank));
                    if self.config.tier == SearchTier::Constructive {
                        break; // first improvement wins
                    }
                }
            }
        }
        if let Some(reg) = registry {
            reg.counter("compaction.probes").add(decision.probes as u64);
            reg.counter("search.candidates_evaluated")
                .add(decision.probes as u64);
            probe_counters.publish_to(reg);
        }
        if decision.interrupted.is_none() {
            if let Some((point, probed, rank)) = best {
                if let Some(reg) = registry {
                    reg.histogram("compaction.commit_rank").record(rank as u64);
                }
                decision.committed = Some((point, probed));
            }
        }
        Ok(decision)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpi_netlist::{CircuitBuilder, GateKind};
    use tpi_sim::FaultUniverse;

    fn and_cone(width: usize) -> Circuit {
        let mut b = CircuitBuilder::new(format!("and{width}"));
        let xs = b.inputs(width, "x");
        let root = b.balanced_tree(GateKind::And, &xs, "g").unwrap();
        b.output(root);
        b.finish().unwrap()
    }

    #[test]
    fn never_worse_than_baseline_and_plan_applies() {
        let c = and_cone(12);
        let universe = FaultUniverse::collapsed(&c).unwrap();
        let outcome = PatternsOptimizer::default()
            .solve(&c, universe.faults())
            .unwrap();
        assert!(outcome.patterns_after <= outcome.patterns_before);
        assert_eq!(outcome.plan.len(), outcome.rounds.len());
        // The reported modified circuit really carries the plan.
        let (reapplied, _) =
            tpi_netlist::transform::apply_plan(&c, outcome.plan.test_points()).unwrap();
        assert_eq!(reapplied.node_count(), outcome.modified.node_count());
    }

    #[test]
    fn committed_rounds_strictly_improve() {
        let c = and_cone(16);
        let universe = FaultUniverse::collapsed(&c).unwrap();
        let outcome = PatternsOptimizer::default()
            .solve(&c, universe.faults())
            .unwrap();
        let mut last = outcome.patterns_before;
        for round in &outcome.rounds {
            assert!(round.patterns < last, "round {round:?} did not improve");
            last = round.patterns;
        }
        assert_eq!(outcome.patterns_after, last);
    }

    #[test]
    fn constructive_tier_also_never_regresses() {
        let c = and_cone(12);
        let universe = FaultUniverse::collapsed(&c).unwrap();
        let outcome = PatternsOptimizer::new(PatternsConfig {
            tier: SearchTier::Constructive,
            ..PatternsConfig::default()
        })
        .solve(&c, universe.faults())
        .unwrap();
        assert!(outcome.patterns_after <= outcome.patterns_before);
    }

    #[test]
    fn cancelled_search_returns_prefix_plan() {
        let c = and_cone(16);
        let universe = FaultUniverse::collapsed(&c).unwrap();
        let control = RunControl::cancellable();
        control.cancel();
        let outcome = PatternsOptimizer::default()
            .solve_controlled(&c, universe.faults(), &control, None)
            .unwrap();
        assert!(outcome.interrupted.is_some());
        assert!(outcome.plan.is_empty());
    }

    #[test]
    fn respects_point_budget() {
        let c = and_cone(20);
        let universe = FaultUniverse::collapsed(&c).unwrap();
        let outcome = PatternsOptimizer::new(PatternsConfig {
            max_points: 1,
            ..PatternsConfig::default()
        })
        .solve(&c, universe.faults())
        .unwrap();
        assert!(outcome.plan.len() <= 1);
    }

    #[test]
    fn metrics_family_is_published() {
        let c = and_cone(12);
        let universe = FaultUniverse::collapsed(&c).unwrap();
        let registry = Registry::new();
        let outcome = PatternsOptimizer::default()
            .solve_controlled(
                &c,
                universe.faults(),
                &RunControl::unlimited(),
                Some(&registry),
            )
            .unwrap();
        assert_eq!(
            registry.gauge("compaction.patterns_before").get(),
            outcome.patterns_before as i64
        );
        assert_eq!(
            registry.gauge("compaction.patterns_after").get(),
            outcome.patterns_after as i64
        );
        assert!(registry.counter("compaction.cubes").get() >= outcome.cubes_before as u64);
        assert!(registry.counter("search.rounds").get() >= 1);
        assert!(registry.counter("atpg.cubes_generated").get() > 0);
    }
}
