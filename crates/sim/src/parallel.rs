//! Multi-threaded fault simulation.
//!
//! Fault simulation parallelises naturally across faults: every thread
//! owns a private simulator (good-value buffers and scratch state) and an
//! identical pattern stream, and processes its own share of the fault
//! list. Per-fault results don't depend on which other faults share a
//! simulator, so results are bit-identical to the sequential run for any
//! partition — which frees the scheduler entirely: partitioning affects
//! wall-clock only, never results.
//!
//! The default scheduler is *work-stealing*: the fault list is split
//! into work units — fanout-free-region buckets coalesced to a few
//! units per worker, dealt in descending estimated propagation cost —
//! and each worker drains its own deque from the front, stealing from
//! the back of a neighbour's when it runs dry. A static deal can only
//! balance the cost *estimate*; stealing rebalances the actual runtime
//! skew (one hard-to-drop fault can pin a worker for the whole pattern
//! budget while its siblings drop in the first block). Grouping by FFR
//! keeps faults that collapse onto the same stem in one unit, where
//! they share the per-block stem-observability memo instead of
//! recomputing it per worker.

use std::cmp::Reverse;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use tpi_netlist::ffr::FfrDecomposition;
use tpi_netlist::{Circuit, NetlistError, Topology};

use crate::{
    ControlledRun, Fault, FaultSimResult, FaultSimulator, PatternSource, RunControl, SimOptions,
    StopReason,
};

/// Fault-simulate `faults` across `threads` worker threads, with fault
/// dropping, under a [`RunControl`] token, producing the same
/// [`FaultSimResult`] the sequential [`FaultSimulator::run_controlled`]
/// would. Free-running callers pass [`RunControl::unlimited`].
///
/// `make_source` is called once per work unit and must yield identical
/// streams (e.g. closures constructing a seeded
/// [`RandomPatterns`](crate::RandomPatterns)). Every worker replays its
/// stream through a simulator of the same [`SimOptions`], so the
/// per-block tail masking against `max_patterns` is applied identically
/// in every unit — first detections, `patterns_applied` and coverage
/// match the sequential run bit for bit at any width, detection mode and
/// thread count, including when `max_patterns` is not a multiple of
/// `block_words × 64`.
///
/// Faults are grouped into work units by fanout-free region, coalesced
/// in descending estimated propagation cost (a saturating over-count of
/// the fault site's transitive consumer cone) and scheduled by work
/// stealing (see the module docs); the schedule never affects results,
/// only wall-clock.
///
/// Every worker polls a clone of the token once per pattern block (see
/// [`FaultSimulator::run_controlled`]) and exits cooperatively, so a
/// cancelled or expired run releases all its threads within one block.
/// An interrupted parallel result is *best-effort*: work units may stop
/// at different pattern counts, so the merged detections are not
/// bit-identical to an interrupted sequential run (completed runs still
/// are). The merged [`StopReason`] is the lowest-numbered interrupted
/// unit's. Determinism-sensitive callers should interrupt only between
/// runs, or run single-threaded with a work budget.
///
/// # Errors
///
/// [`NetlistError::Cycle`] for cyclic circuits; worker panics propagate.
///
/// # Panics
///
/// Panics if `options.block_words` is not 0 (default), 1, 2, 4 or 8.
#[allow(clippy::too_many_arguments)]
pub fn run_parallel_controlled<S, F>(
    circuit: &Circuit,
    make_source: F,
    max_patterns: u64,
    faults: &[Fault],
    threads: usize,
    options: SimOptions,
    control: &RunControl,
) -> Result<ControlledRun, NetlistError>
where
    S: PatternSource,
    F: Fn() -> S + Sync,
{
    let threads = threads.max(1).min(faults.len().max(1));
    if threads <= 1 {
        let mut sim = FaultSimulator::with_options(circuit, options)?;
        let mut source = make_source();
        return sim.run_controlled(&mut source, max_patterns, faults, control);
    }
    let units = steal_units(circuit, faults, threads)?;
    run_units(
        circuit,
        &make_source,
        max_patterns,
        faults,
        threads,
        options,
        control,
        units,
    )
}

/// Work units a worker grabs per steal-scheduler fill, as a multiple of
/// the thread count. More units mean finer rebalancing but more pattern
/// replays (every unit replays the stream through its own run), so the
/// factor stays small.
const UNITS_PER_THREAD: usize = 4;

/// Execute pre-partitioned `units` (fault-index lists) across `threads`
/// workers and merge the per-unit runs. Units live in per-worker
/// deques: a worker pops its own from the front and steals from the
/// back of the next non-empty neighbour when it runs dry.
///
/// The merge is performed in unit-index order, so everything the caller
/// observes (results, stop reason, kernel counters) is independent of
/// which worker ran which unit; only the scheduling counters
/// (`steals` / `steal_misses`) record actual thread timing.
#[allow(clippy::too_many_arguments)]
fn run_units<S, F>(
    circuit: &Circuit,
    make_source: &F,
    max_patterns: u64,
    faults: &[Fault],
    threads: usize,
    options: SimOptions,
    control: &RunControl,
    units: Vec<Vec<usize>>,
) -> Result<ControlledRun, NetlistError>
where
    S: PatternSource,
    F: Fn() -> S + Sync,
{
    let unit_faults: Vec<Vec<Fault>> = units
        .iter()
        .map(|idxs| idxs.iter().map(|&i| faults[i]).collect())
        .collect();
    // Deal unit ids onto the worker deques round-robin: units are already
    // sorted by descending cost, so worker k starts on the k-th most
    // expensive unit and the stealing (from the back — the cheap end)
    // evens out whatever the estimate got wrong.
    let queues: Vec<Mutex<VecDeque<usize>>> = (0..threads)
        .map(|ti| {
            Mutex::new(
                (0..unit_faults.len())
                    .filter(|u| u % threads == ti)
                    .collect(),
            )
        })
        .collect();
    let results: Mutex<Vec<(usize, ControlledRun)>> =
        Mutex::new(Vec::with_capacity(unit_faults.len()));
    // The error for the *lowest-numbered* unit wins, independent of
    // thread scheduling — a last-writer slot would make the reported
    // error (and thus caller behaviour) nondeterministic when several
    // units fail.
    let first_error: Mutex<Option<(usize, NetlistError)>> = Mutex::new(None);
    let steals = AtomicU64::new(0);
    let steal_misses = AtomicU64::new(0);

    let record_error = |unit: usize, e: NetlistError| {
        let mut slot = first_error.lock().expect("no poisoned locks");
        if slot.as_ref().is_none_or(|(held, _)| unit < *held) {
            *slot = Some((unit, e));
        }
    };

    std::thread::scope(|scope| {
        for ti in 0..threads {
            let queues = &queues;
            let unit_faults = &unit_faults;
            let results = &results;
            let steals = &steals;
            let steal_misses = &steal_misses;
            let record_error = &record_error;
            let control = control.clone();
            scope.spawn(move || {
                let mut sim = match FaultSimulator::with_options(circuit, options) {
                    Ok(sim) => sim,
                    Err(e) => {
                        // Construction depends only on (circuit, options),
                        // so every worker fails identically; unit 0 keys
                        // the slot deterministically.
                        record_error(0, e);
                        return;
                    }
                };
                loop {
                    let mut unit = queues[ti].lock().expect("no poisoned locks").pop_front();
                    if unit.is_none() {
                        for off in 1..threads {
                            let victim = (ti + off) % threads;
                            unit = queues[victim].lock().expect("no poisoned locks").pop_back();
                            if unit.is_some() {
                                steals.fetch_add(1, Ordering::Relaxed);
                                break;
                            }
                        }
                        if unit.is_none() {
                            steal_misses.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    let Some(u) = unit else { break };
                    let mut source = make_source();
                    match sim.run_controlled(&mut source, max_patterns, &unit_faults[u], &control) {
                        Ok(r) => results.lock().expect("no poisoned locks").push((u, r)),
                        Err(e) => record_error(u, e),
                    }
                }
            });
        }
    });

    if let Some((_, e)) = first_error.into_inner().expect("no poisoned locks") {
        return Err(e);
    }
    let mut chunks = results.into_inner().expect("no poisoned locks");
    chunks.sort_by_key(|&(u, _)| u);
    let mut first_detected = vec![None; faults.len()];
    let mut patterns_applied = 0;
    let mut stopped: Option<StopReason> = None;
    let mut counters = crate::SimCounters::default();
    for (u, r) in chunks {
        patterns_applied = patterns_applied.max(r.result.patterns_applied());
        stopped = stopped.or(r.stopped);
        counters.merge(&r.counters);
        for (pos, &orig) in units[u].iter().enumerate() {
            first_detected[orig] = r.result.first_detection(pos);
        }
    }
    counters.steals = steals.into_inner();
    counters.steal_misses = steal_misses.into_inner();
    Ok(ControlledRun {
        result: FaultSimResult::new(first_detected, patterns_applied),
        stopped,
        counters,
    })
}

/// Estimated propagation cost per node: a reverse-topological saturating
/// sum over consumer gates. It over-counts reconvergent cones, but stays
/// monotone with cone depth, which is all a load heuristic needs.
fn cone_costs(circuit: &Circuit, topo: &Topology) -> Vec<u64> {
    let mut cone_cost = vec![1u64; circuit.node_count()];
    for &id in topo.order().iter().rev() {
        let mut cost = 1u64;
        for fo in topo.fanouts(id) {
            cost = cost.saturating_add(cone_cost[fo.gate.index()]);
        }
        cone_cost[id.index()] = cost;
    }
    cone_cost
}

/// Build the work units for the stealing scheduler: fault indices
/// grouped by the fanout-free region of their anchor (faults collapsing
/// onto one stem share that unit's per-block observability memo),
/// groups sorted by descending estimated cost, then dealt round-robin
/// onto `threads * UNITS_PER_THREAD` units so each unit draws a spread
/// of expensive and cheap regions.
fn steal_units(
    circuit: &Circuit,
    faults: &[Fault],
    threads: usize,
) -> Result<Vec<Vec<usize>>, NetlistError> {
    let topo = Topology::of(circuit)?;
    let cone_cost = cone_costs(circuit, &topo);
    let ffr = FfrDecomposition::of(circuit, &topo);
    // Group fault indices by FFR root, preserving fault order within a
    // group (groups keyed by first appearance, then sorted by cost).
    let mut group_of_root = vec![usize::MAX; circuit.node_count()];
    let mut groups: Vec<(u64, Vec<usize>)> = Vec::new();
    for (i, fault) in faults.iter().enumerate() {
        let anchor = fault.origin();
        let root = ffr.root_of(anchor).index();
        if group_of_root[root] == usize::MAX {
            group_of_root[root] = groups.len();
            groups.push((0, Vec::new()));
        }
        let g = &mut groups[group_of_root[root]];
        g.0 = g.0.max(cone_cost[anchor.index()]);
        g.1.push(i);
    }
    let mut order: Vec<usize> = (0..groups.len()).collect();
    order.sort_by_key(|&g| (Reverse(groups[g].0), g));
    let unit_count = (threads * UNITS_PER_THREAD).min(groups.len()).max(1);
    let mut units: Vec<Vec<usize>> = vec![Vec::new(); unit_count];
    for (k, &g) in order.iter().enumerate() {
        units[k % unit_count].extend_from_slice(&groups[g].1);
    }
    Ok(units)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FaultUniverse, RandomPatterns};
    use tpi_netlist::{CircuitBuilder, GateKind};

    /// A free-running parallel run's result.
    fn run_free(
        c: &Circuit,
        seed: u64,
        max_patterns: u64,
        faults: &[Fault],
        threads: usize,
        options: SimOptions,
    ) -> FaultSimResult {
        run_parallel_controlled(
            c,
            || RandomPatterns::new(c.inputs().len(), seed),
            max_patterns,
            faults,
            threads,
            options,
            &RunControl::unlimited(),
        )
        .unwrap()
        .result
    }

    fn sample() -> Circuit {
        let mut b = CircuitBuilder::new("s");
        let xs = b.inputs(10, "x");
        let a = b.balanced_tree(GateKind::And, &xs[..5], "a").unwrap();
        let o = b.balanced_tree(GateKind::Or, &xs[5..], "o").unwrap();
        let y = b.gate(GateKind::Xor, vec![a, o], "y").unwrap();
        b.output(y);
        b.finish().unwrap()
    }

    #[test]
    fn matches_sequential_exactly() {
        let c = sample();
        let universe = FaultUniverse::collapsed(&c).unwrap();
        let mut sim = FaultSimulator::new(&c).unwrap();
        let mut src = RandomPatterns::new(10, 77);
        let sequential = sim.run(&mut src, 700, universe.faults()).unwrap();

        for threads in [1usize, 2, 3, 7, 8] {
            let parallel = run_free(
                &c,
                77,
                700,
                universe.faults(),
                threads,
                SimOptions::default(),
            );
            assert_eq!(parallel.fault_count(), sequential.fault_count());
            assert_eq!(parallel.patterns_applied(), sequential.patterns_applied());
            for i in 0..universe.len() {
                assert_eq!(
                    parallel.first_detection(i),
                    sequential.first_detection(i),
                    "fault {i} with {threads} threads"
                );
            }
        }
    }

    #[test]
    fn tail_masking_is_identical_across_threads_and_widths() {
        // 300 patterns is not a multiple of 64, 128, 256 or 512: every
        // width ends on a partially-masked block, and every worker must
        // mask its replayed source the same way the sequential run does.
        let c = sample();
        let universe = FaultUniverse::collapsed(&c).unwrap();
        let mut sim = FaultSimulator::with_block_words(&c, 1).unwrap();
        let mut src = RandomPatterns::new(10, 13);
        let sequential = sim.run(&mut src, 300, universe.faults()).unwrap();

        for threads in [1usize, 3, 8] {
            for block_words in [1usize, 2, 4, 8] {
                let parallel = run_free(
                    &c,
                    13,
                    300,
                    universe.faults(),
                    threads,
                    SimOptions::with_block_words(block_words),
                );
                assert_eq!(
                    parallel.patterns_applied(),
                    sequential.patterns_applied(),
                    "threads={threads} w={block_words}"
                );
                for i in 0..universe.len() {
                    assert_eq!(
                        parallel.first_detection(i),
                        sequential.first_detection(i),
                        "fault {i} threads={threads} w={block_words}"
                    );
                }
            }
        }
    }

    #[test]
    fn single_thread_delegates() {
        let c = sample();
        let universe = FaultUniverse::collapsed(&c).unwrap();
        let r = run_free(&c, 5, 256, universe.faults(), 1, SimOptions::default());
        assert_eq!(r.fault_count(), universe.len());
    }

    #[test]
    fn more_threads_than_faults() {
        let c = sample();
        let faults = [crate::Fault::stem_sa0(c.outputs()[0])];
        let r = run_free(&c, 5, 256, &faults, 64, SimOptions::default());
        assert_eq!(r.fault_count(), 1);
    }

    #[test]
    fn cancelled_token_stops_all_workers_before_any_block() {
        let c = sample();
        let universe = FaultUniverse::collapsed(&c).unwrap();
        let control = RunControl::cancellable();
        control.cancel();
        let run = run_parallel_controlled(
            &c,
            || RandomPatterns::new(10, 5),
            1 << 30,
            universe.faults(),
            4,
            SimOptions::default(),
            &control,
        )
        .unwrap();
        assert_eq!(run.stopped, Some(StopReason::Cancelled));
        assert_eq!(run.result.patterns_applied(), 0);
    }

    #[test]
    fn budget_interruption_is_deterministic_single_threaded() {
        // A 16-input AND keeps its output-sa1 fault (p = 2^-16 per random
        // pattern) almost surely alive past the 300-pattern budget, so the
        // run stops on the budget rather than on full coverage.
        let c = {
            let mut b = CircuitBuilder::new("hard");
            let xs = b.inputs(16, "x");
            let y = b.balanced_tree(GateKind::And, &xs, "y").unwrap();
            b.output(y);
            b.finish().unwrap()
        };
        let universe = FaultUniverse::collapsed(&c).unwrap();
        let run_once = || {
            let control = RunControl::with_budget(300);
            let mut sim = FaultSimulator::with_block_words(&c, 1).unwrap();
            let mut src = RandomPatterns::new(16, 7);
            sim.run_controlled(&mut src, 1 << 20, universe.faults(), &control)
                .unwrap()
        };
        let a = run_once();
        let b = run_once();
        assert_eq!(a.stopped, Some(StopReason::BudgetExhausted));
        assert_eq!(a.stopped, b.stopped);
        assert_eq!(a.result.patterns_applied(), b.result.patterns_applied());
        for i in 0..universe.len() {
            assert_eq!(a.result.first_detection(i), b.result.first_detection(i));
        }
    }

    #[test]
    fn empty_fault_list() {
        let c = sample();
        let r = run_free(&c, 5, 64, &[], 4, SimOptions::default());
        assert_eq!(r.fault_count(), 0);
        assert_eq!(r.coverage(), 1.0);
    }

    #[test]
    fn sequential_runs_never_steal() {
        let c = sample();
        let universe = FaultUniverse::collapsed(&c).unwrap();
        let run = run_parallel_controlled(
            &c,
            || RandomPatterns::new(10, 5),
            256,
            universe.faults(),
            1,
            SimOptions::default(),
            &RunControl::unlimited(),
        )
        .unwrap();
        assert_eq!(run.counters.steals, 0);
        assert_eq!(run.counters.steal_misses, 0);
    }

    #[test]
    fn dropped_count_is_schedule_invariant() {
        // `faults_dropped` counts each fault at most once, in whichever
        // unit owns it — so the merged total equals the sequential one
        // for any partition and any steal order.
        let c = sample();
        let universe = FaultUniverse::collapsed(&c).unwrap();
        let mut sim = FaultSimulator::new(&c).unwrap();
        let mut src = RandomPatterns::new(10, 21);
        let _ = sim.run(&mut src, 700, universe.faults()).unwrap();
        let sequential_dropped = sim.counters().faults_dropped;
        for threads in [2usize, 4] {
            let run = run_parallel_controlled(
                &c,
                || RandomPatterns::new(10, 21),
                700,
                universe.faults(),
                threads,
                SimOptions::default(),
                &RunControl::unlimited(),
            )
            .unwrap();
            assert_eq!(
                run.counters.faults_dropped, sequential_dropped,
                "{threads} threads"
            );
        }
    }
}
