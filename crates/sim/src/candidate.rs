//! Batched candidate-group scoring for the test-point search loop.
//!
//! The constructive optimizer referees candidate test-point groups by
//! fault simulation. The legacy scorer clones the circuit, compiles a
//! fresh simulator and re-simulates **every** undetected fault for
//! **every** candidate group — `O(groups × faults × patterns)` even
//! though a test point only perturbs its fanout cone. This module makes
//! scoring `C` single-point candidates cost **one compile plus `C`
//! cone/lane-sized deltas**.
//!
//! **Contract.** The scored faults are faults the caller measured as
//! undetected on the base circuit under the same [`IndependentPatterns`]
//! stream, seed and pattern budget the scorer uses (the engine measures
//! coverage that way). A fault a candidate cannot affect therefore
//! detects nothing, and every shortcut below rests on that.
//!
//! * the group is validated against the base circuit *before* any clone
//!   (see `group_applies`) — invalid groups cost a hash-map walk, not
//!   a full circuit copy;
//! * one **augmented circuit** is built per batch: every candidate site
//!   `v` gets a pattern-controlled bypass mux `OR(AND(v, a), b)`
//!   re-driving `v`'s consumers, where `a` and `b` are fresh enable
//!   inputs. Under the *passthrough* stimulus (`a = 1`, `b = 0`) the
//!   mux is an identity buffer and the augmented circuit replays the
//!   base circuit bit-exactly, so the whole batch compiles **one**
//!   simulator (plus one clone per worker thread) instead of one per
//!   candidate;
//! * `r` is the stream of the one auxiliary input the real candidate
//!   circuit would append: every single-point control/full candidate
//!   appends exactly one input, so its index — and therefore its
//!   [`IndependentPatterns`] stream — is known without building the
//!   candidate;
//! * one **presence pass** per batch (explicit propagation under the
//!   passthrough stimulus, [`FaultSimulator::run_visiting`]) records,
//!   for every scored fault, the set of candidate sites its effect
//!   ever reaches within the pattern budget. A pure observe tap
//!   changes no value, so an observe candidate at `v` detects exactly
//!   the faults present at `v` — every observe candidate in the batch
//!   is scored by this single pass, with **zero** per-candidate
//!   simulation. Undetected faults propagate barely at all (that is
//!   *why* they are undetected), so the pass costs a fraction of one
//!   ordinary fault-sim run;
//! * one **forcing run** per control or full candidate, with dropping,
//!   on the shared simulator. A control point re-simulates only its
//!   forcing lanes, where its control stream overrides the site (`r = 0`
//!   for an AND point, `r = 1` for an OR point), compacted into dense
//!   pattern words (about half the budget under the unbiased stream),
//!   with the mux forcing the site (`a = 0` or `b = 1`). On the other
//!   lanes the inserted gate is an identity buffer — good values, fault
//!   excitation and propagation are bit-identical to the base circuit,
//!   which detects none of the scored faults — so only the forcing lanes
//!   can add detections. A full point drives `a = 0`, `b = r`: the
//!   consumers see the fresh-input stream `r` on every lane, which is
//!   the full point's cut. A fault whose effect reaches `v` is detected
//!   by the full point's tap whatever the cut does (`v`'s fanin cone is
//!   upstream of the cut, so the effect reaches `v` in the cut circuit
//!   iff it does in the base circuit); the presence pass counts those,
//!   and the run re-simulates only the rest;
//! * every control/full run simulates only the faults that can detect
//!   differently. A point at `v` changes values only in `FO⁺(v)`, the
//!   nodes strictly downstream of `v`, and a fault's effect can only
//!   enter `FO⁺(v)` through the cut set
//!   `S(v) = ({v} ∪ fanins of FO⁺(v)) \ FO⁺(v)`. So the presence pass
//!   also records, per (fault, site), whether the effect reaches a side
//!   input `S(v) \ {v}`. A fault anchored outside `FO⁺(v)` whose effect
//!   reaches no node of `S(v)` sees good values and a faulty cone that
//!   are identical to the base circuit's on every lane (induction in
//!   topological order: outside `FO⁺(v)` the fanins are unchanged;
//!   inside, every fanin either lies in `FO⁺(v)` or in `S(v)`, and
//!   neither carries its effect), so it stays undetected. One that
//!   reaches `v` but no side input stays undetected as well: a control
//!   point blocks the effect at `v` on its forcing lanes and replays the
//!   base circuit on the others, and a full point's tap has already
//!   counted it. So a run keeps a fault only if it is anchored in
//!   `FO⁺(v)` or reaches a side input. The filtered faults still count
//!   towards the run's block schedule under a work budget (see
//!   `charge_held_blocks`), so the token is polled and charged exactly
//!   as by an unfiltered run.
//!
//! Multi-point groups (and any group the augmented build cannot cover)
//! fall back to the legacy path: clone, apply, compile, and re-simulate
//! the group's *dirty* faults; a clean fault stays undetected by the
//! cone-delta argument of `dirty_line_mask`.
//!
//! Scoring uses [`IndependentPatterns`], whose per-input streams are
//! invariant under input insertion: the auxiliary inputs a control
//! point adds do not shift the patterns any base input sees, so the
//! caller's measurement and every per-candidate run observe the same
//! input stimulus. (The legacy `RandomPatterns` source draws all inputs
//! from one sequential PRNG and has no such invariance — sharing
//! anything across candidates under it would be unsound.)
//!
//! Groups are scored either sequentially (bit-identical to the legacy
//! loop's early-stop behaviour under [`RunControl`]) or by a pool of
//! worker threads pulling group indices from a shared queue. The merge
//! is by group index, so the *scores* — and therefore the selected
//! group — are bit-identical at every thread count. Under a work-budget
//! token the parallel path may observe exhaustion at a different group
//! than the sequential path (workers charge the shared budget
//! concurrently), but a stopped batch reports no scores at all, so
//! callers never commit a partially-refereed pick in either mode.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use tpi_netlist::analysis::{dirty_line_mask, fanout_cone_mask};
use tpi_netlist::transform::apply_test_point;
use tpi_netlist::{Circuit, NetlistError, NodeId, TestPoint, TestPointKind, Topology};

use crate::compile::MAX_BLOCK_WORDS;
use crate::control::{RunControl, StopReason};
use crate::fault::Fault;
use crate::fsim::{FaultSimulator, SimOptions};
use crate::metrics::SimCounters;
use crate::patterns::{IndependentPatterns, PatternSource};

/// Per-group outcome of a batch scoring call.
#[derive(Copy, Clone, Debug, Default)]
pub struct GroupScore {
    /// Faults detected within the pattern budget on the candidate
    /// circuit, or `None` when the group was empty, failed validation,
    /// or was abandoned because the run was stopped.
    pub detected: Option<u64>,
    /// Wall-clock spent evaluating this group, in microseconds.
    pub eval_us: u64,
}

/// Result of [`score_candidate_groups`].
#[derive(Clone, Debug)]
pub struct BatchScores {
    /// One entry per input group, in input order.
    pub scores: Vec<GroupScore>,
    /// `Some` when the control token fired mid-batch; scores are then
    /// not comparable and callers must not commit a selection.
    pub stopped: Option<StopReason>,
    /// Kernel counters merged over the presence pass and every group run.
    pub counters: SimCounters,
    /// Scored faults the reach filter left out of control/full runs,
    /// summed over those runs.
    pub faults_filtered: u64,
}

/// Check that applying every point of `group`, in order, to `circuit`
/// would succeed — without cloning the circuit.
///
/// `apply_test_point` only fails when a control or full point finds no
/// consumer to re-drive (`rewire` matches zero pins and zero output
/// entries). That reference count evolves per site as the group's
/// points stack, so the check replays the group against a per-site
/// counter: initially the site's fanout pins plus its output entry;
/// a control point re-drives all of them and leaves exactly one (its
/// own gate's pin); a full point leaves one pin reference on the new
/// input and re-adds the site as an output. Points at distinct sites
/// never interact (`rewire` only touches pins equal to the site).
///
/// Nodes outside the circuit are reported as not applicable.
fn group_applies(circuit: &Circuit, topo: &Topology, group: &[TestPoint]) -> bool {
    // (refs to the site's raw output, site currently an output entry).
    let mut sites: HashMap<NodeId, (usize, bool)> = HashMap::new();
    for tp in group {
        if tp.node.index() >= circuit.node_count() {
            return false;
        }
        let (refs, out) = sites.entry(tp.node).or_insert_with(|| {
            let out = circuit.is_output(tp.node);
            (topo.fanout_count(tp.node) + usize::from(out), out)
        });
        match tp.kind {
            TestPointKind::Observe => {
                if !*out {
                    *out = true;
                    *refs += 1;
                }
            }
            TestPointKind::ControlAnd | TestPointKind::ControlOr => {
                if *refs == 0 {
                    return false;
                }
                *refs = 1; // the inserted gate's own pin
                *out = false; // output entries were re-driven too
            }
            TestPointKind::Full => {
                if *refs == 0 {
                    return false;
                }
                *refs = 1; // the observing output entry added back
                *out = true;
            }
        }
    }
    true
}

/// Per-word masks selecting the first `patterns` lanes.
fn tail_masks(patterns: u64, pattern_words: usize) -> Vec<u64> {
    (0..pattern_words)
        .map(|w| {
            let rem = patterns.saturating_sub(64 * w as u64);
            if rem >= 64 {
                !0u64
            } else if rem == 0 {
                0
            } else {
                (1u64 << rem) - 1
            }
        })
        .collect()
}

/// Gather the bits of `src` at `sel`'s set lanes into a dense prefix of
/// `out_words` packed words (lane order preserved).
fn compact_words(src: &[u64], sel: &[u64], out_words: usize) -> Vec<u64> {
    let mut out = vec![0u64; out_words];
    let mut cursor = 0usize;
    for (w, &s0) in sel.iter().enumerate() {
        let mut s = s0;
        while s != 0 {
            let lane = s.trailing_zeros();
            if (src[w] >> lane) & 1 == 1 {
                out[cursor >> 6] |= 1u64 << (cursor & 63);
            }
            cursor += 1;
            s &= s - 1;
        }
    }
    out
}

/// A fully materialised stimulus block: one word stream per augmented
/// input, `patterns` lanes total. Feeds a candidate's stimulus to the
/// shared augmented simulator.
struct PackedSource {
    streams: Vec<Vec<u64>>,
    patterns: u64,
    word: usize,
}

impl PatternSource for PackedSource {
    fn fill(&mut self, words: &mut [u64]) -> usize {
        let remaining = self.patterns.saturating_sub(64 * self.word as u64);
        if remaining == 0 {
            return 0;
        }
        for (i, w) in words.iter_mut().enumerate() {
            *w = self.streams[i][self.word];
        }
        self.word += 1;
        remaining.min(64) as usize
    }

    fn reset(&mut self) {
        self.word = 0;
    }
}

/// Input positions (in augmented-input order) of one site's bypass-mux
/// enables `a`/`b` (absent when the site has no consumer to re-drive)
/// plus the site's column in the presence matrix.
#[derive(Copy, Clone, Debug)]
struct SiteLines {
    a: Option<usize>,
    b: Option<usize>,
    si: usize,
}

/// Batch-shared scoring state for single-point groups: the augmented
/// circuit's compiled simulator, the instrumentation line positions per
/// site, and the passthrough stimulus template (see module docs).
struct FastPrep {
    /// Compiled simulator over the augmented circuit. Workers clone it
    /// once each; every candidate then runs on an already-compiled
    /// kernel.
    sim: FaultSimulator,
    /// Instrumentation input positions per candidate site.
    sites: HashMap<NodeId, SiteLines>,
    /// Word streams in augmented-input order under which the augmented
    /// circuit replays the base circuit bit-exactly: base inputs carry
    /// their [`IndependentPatterns`] words, every `a` enable is
    /// all-ones, every `b` enable all-zeros.
    passthrough: Vec<Vec<u64>>,
    /// Base-circuit primary-input count — also the input index (and
    /// therefore the stream) of the one auxiliary input any single
    /// control/full candidate appends to the base circuit.
    n_base_inputs: usize,
    /// `patterns.div_ceil(64)`.
    pattern_words: usize,
    /// Per-(fault, site) effect-presence matrix, one packed row of
    /// [`site_words`](FastPrep::site_words) words per fault: bit `si`
    /// of row `fi` is set iff fault `fi`'s effect reaches site `si`
    /// on some lane within the pattern budget. Empty until
    /// [`compute_presence`](FastPrep::compute_presence) fills it
    /// (skipped when the batch holds no observe or full candidate).
    presence: Vec<u64>,
    /// Per-(fault, site) reach matrix, laid out like `presence`: bit
    /// `si` of row `fi` is set iff fault `fi`'s effect reaches a side
    /// input of site `si` (see `side`) on some lane within the pattern
    /// budget. Filled by the same pass as `presence`.
    reach: Vec<u64>,
    /// Per-(base node, site) membership in `FO⁺(v)`, the nodes strictly
    /// downstream of site `si`'s node `v`: bit `si` of row `u`. Rows are
    /// `site_words` wide; only sites hosting a control or full
    /// candidate are filled.
    cone: Vec<u64>,
    /// Per-(base node, site) side inputs, laid out like `cone`: bit `si`
    /// of row `u` is set iff `u ≠ v`, `u ∉ FO⁺(v)` and `u` feeds a node
    /// of `FO⁺(v)` — the cut set `S(v)` minus `v` itself.
    side: Vec<u64>,
    /// Presence row width: `sites.len().div_ceil(64)`.
    site_words: usize,
}

impl FastPrep {
    /// Bit `si` of row `row` in a `site_words`-wide matrix.
    fn bit(&self, matrix: &[u64], row: usize, si: usize) -> bool {
        (matrix[row * self.site_words + (si >> 6)] >> (si & 63)) & 1 == 1
    }

    /// Presence bit for fault row `fi`, site column `si`.
    fn present(&self, fi: usize, si: usize) -> bool {
        debug_assert!(!self.presence.is_empty(), "presence pass not run");
        self.bit(&self.presence, fi, si)
    }

    /// Whether fault `fi` can detect differently once site `si` carries
    /// a control or full point: its origin lies in `FO⁺(v)`, or its
    /// effect reaches a side input of the cut set (see module docs).
    /// Without a presence pass (a controls-only batch) every fault can.
    fn may_change(&self, fi: usize, fault: Fault, si: usize) -> bool {
        self.reach.is_empty()
            || self.bit(&self.cone, fault.origin().index(), si)
            || self.bit(&self.reach, fi, si)
    }

    /// Fill the presence and reach matrices: one explicit-propagation
    /// pass over the augmented circuit under the passthrough stimulus
    /// (≡ the base circuit bit-exactly) recording, per scored fault,
    /// every candidate site its effect reaches and every site whose
    /// side inputs it reaches. This single pass scores all observe
    /// candidates outright, supplies the full point's tap term and
    /// filters every control/full run (see module docs). Runs in
    /// block-sized chunks so `control` is polled and charged at the same
    /// granularity as a simulation run; on a stop the partial matrices
    /// are discarded.
    fn compute_presence(
        &mut self,
        base: &Circuit,
        faults: &[Fault],
        patterns: u64,
        control: &RunControl,
    ) -> Result<(Option<StopReason>, SimCounters), NetlistError> {
        let row_words = self.site_words;
        let mut site_of = vec![u32::MAX; base.node_count()];
        for (v, lines) in &self.sites {
            site_of[v.index()] = lines.si as u32;
        }
        let mut presence = vec![0u64; faults.len() * row_words];
        let mut reach = vec![0u64; faults.len() * row_words];
        let side = &self.side;
        let mut src = PackedSource {
            streams: self.passthrough.clone(),
            patterns,
            word: 0,
        };
        let before = *self.sim.counters();
        let mut stopped = None;
        let mut applied = 0u64;
        while applied < patterns {
            stopped = control.poll();
            if stopped.is_some() {
                break;
            }
            let chunk = (patterns - applied).min(64 * MAX_BLOCK_WORDS as u64);
            let (_, n) = self
                .sim
                .run_visiting(&mut src, chunk, faults, |fi, node, _| {
                    let i = node.index();
                    if i >= site_of.len() {
                        return; // instrumentation node of the augmented circuit
                    }
                    let row = fi * row_words;
                    if site_of[i] != u32::MAX {
                        let si = site_of[i] as usize;
                        presence[row + (si >> 6)] |= 1u64 << (si & 63);
                    }
                    let sides = &side[i * row_words..(i + 1) * row_words];
                    for (r, &s) in reach[row..row + row_words].iter_mut().zip(sides) {
                        *r |= s;
                    }
                })?;
            if n == 0 {
                break;
            }
            applied += n;
            control.charge(n);
        }
        if stopped.is_none() {
            self.presence = presence;
            self.reach = reach;
        }
        Ok((stopped, self.sim.counters().since(&before)))
    }
}

/// Build the augmented circuit over every distinct valid single-point
/// site and compile it once. `None` (no fast path; every group falls
/// back to the legacy evaluator) if there are no such sites or any
/// construction step fails.
fn build_fast_prep(
    base: &Circuit,
    topo: &Topology,
    groups: &[Vec<TestPoint>],
    valid: &[bool],
    patterns: u64,
    seed: u64,
    options: SimOptions,
) -> Option<FastPrep> {
    let mut site_list: Vec<NodeId> = groups
        .iter()
        .zip(valid)
        .filter(|&(g, &ok)| ok && g.len() == 1)
        .map(|(g, _)| g[0].node)
        .collect();
    site_list.sort_unstable();
    site_list.dedup();
    if site_list.is_empty() {
        return None;
    }
    let mut aug = base.clone();
    let mut sites = HashMap::with_capacity(site_list.len());
    for (si, &v) in site_list.iter().enumerate() {
        // Mirrors the `rewire` success condition (see `group_applies`):
        // sites with no consumer and no output entry cannot host a mux
        // (control/full points there are invalid anyway; observe taps
        // need no mux).
        let can_mux = topo.fanout_count(v) + usize::from(base.is_output(v)) > 0;
        let (a, b) = if can_mux {
            let and =
                apply_test_point(&mut aug, TestPoint::new(v, TestPointKind::ControlAnd)).ok()?;
            let a = aug.inputs().len() - 1;
            apply_test_point(
                &mut aug,
                TestPoint::new(and.cp_gate?, TestPointKind::ControlOr),
            )
            .ok()?;
            (Some(a), Some(aug.inputs().len() - 1))
        } else {
            (None, None)
        };
        sites.insert(v, SiteLines { a, b, si });
    }
    let sim = FaultSimulator::with_options(&aug, options).ok()?;
    let pattern_words = patterns.div_ceil(64) as usize;
    let n_base_inputs = base.inputs().len();
    let mut passthrough = vec![vec![0u64; pattern_words]; aug.inputs().len()];
    for (i, stream) in passthrough.iter_mut().take(n_base_inputs).enumerate() {
        for (w, lanes) in stream.iter_mut().enumerate() {
            *lanes = IndependentPatterns::word(seed, i as u64, w as u64);
        }
    }
    for lines in sites.values() {
        if let Some(a) = lines.a {
            passthrough[a] = vec![!0u64; pattern_words];
        }
    }
    let site_words = site_list.len().div_ceil(64);
    let (cone, side) = cut_sets(base, topo, groups, valid, &site_list, site_words);
    Some(FastPrep {
        sim,
        sites,
        passthrough,
        n_base_inputs,
        pattern_words,
        presence: Vec::new(),
        reach: Vec::new(),
        cone,
        side,
        site_words,
    })
}

/// The `cone` and `side` matrices of [`FastPrep`] for every site in
/// `site_list` that hosts a valid single-point control or full group.
fn cut_sets(
    base: &Circuit,
    topo: &Topology,
    groups: &[Vec<TestPoint>],
    valid: &[bool],
    site_list: &[NodeId],
    site_words: usize,
) -> (Vec<u64>, Vec<u64>) {
    let n = base.node_count();
    let mut cone = vec![0u64; n * site_words];
    let mut side = vec![0u64; n * site_words];
    let mut cut_sites: Vec<usize> = groups
        .iter()
        .zip(valid)
        .filter(|&(g, &ok)| ok && g.len() == 1 && g[0].kind != TestPointKind::Observe)
        .filter_map(|(g, _)| site_list.binary_search(&g[0].node).ok())
        .collect();
    cut_sites.sort_unstable();
    cut_sites.dedup();
    for si in cut_sites {
        let v = site_list[si];
        let consumers: Vec<NodeId> = topo.fanouts(v).iter().map(|fo| fo.gate).collect();
        let in_cone = fanout_cone_mask(base, topo, &consumers);
        let (word, bit) = (si >> 6, 1u64 << (si & 63));
        for u in base.node_ids().filter(|u| in_cone[u.index()]) {
            cone[u.index() * site_words + word] |= bit;
            for &f in base.fanins(u) {
                if f != v && !in_cone[f.index()] {
                    side[f.index() * site_words + word] |= bit;
                }
            }
        }
    }
    (cone, side)
}

struct GroupEval {
    detected: Option<u64>,
    stopped: Option<StopReason>,
    counters: SimCounters,
    /// Faults the reach filter left out of this candidate's run.
    filtered: u64,
}

impl GroupEval {
    fn done(detected: u64, counters: SimCounters, filtered: u64) -> GroupEval {
        GroupEval {
            detected: Some(detected),
            stopped: None,
            counters,
            filtered,
        }
    }

    fn stopped(reason: StopReason, counters: SimCounters) -> GroupEval {
        GroupEval {
            detected: None,
            stopped: Some(reason),
            counters,
            filtered: 0,
        }
    }
}

/// Finish the block schedule that a dropping run over the unfiltered
/// fault list would have followed, after the filtered run executed
/// `blocks` blocks of `block_lanes` lanes.
///
/// The unfiltered run simulates one more block while any of its faults
/// is undetected at the block's start. A filtered (`held`) fault stays
/// undetected, so that run goes on to the end of the budget. The
/// remaining blocks poll and charge `control` exactly as that run would,
/// without simulating anything, so a work budget stops the search at the
/// same point with or without the filter.
fn charge_held_blocks(
    blocks: u64,
    block_lanes: u64,
    patterns: u64,
    held: bool,
    control: &RunControl,
    counters: &mut SimCounters,
) -> Option<StopReason> {
    if !held {
        return None;
    }
    let mut base = blocks * block_lanes;
    while base < patterns {
        counters.polls += 1;
        if let Some(reason) = control.poll() {
            return Some(reason);
        }
        let lanes = block_lanes.min(patterns - base);
        control.charge(lanes);
        base += lanes;
    }
    None
}

/// Run `run_faults` with dropping on `prep`'s simulator (cloned into
/// `fast_sim` on first use), then finish the unfiltered run's block
/// schedule when some faults were `held` out of it (see
/// [`charge_held_blocks`]). Returns the run's detections, or the stop
/// reason.
fn run_dropping(
    prep: &FastPrep,
    fast_sim: &mut Option<FaultSimulator>,
    src: &mut PackedSource,
    run_faults: &[Fault],
    held: bool,
    control: &RunControl,
    counters: &mut SimCounters,
) -> Result<Result<u64, StopReason>, NetlistError> {
    let sim = fast_sim.get_or_insert_with(|| prep.sim.clone());
    let block_lanes = 64 * sim.block_words() as u64;
    let patterns = src.patterns;
    let mut detected = 0;
    let mut blocks = 0;
    if !run_faults.is_empty() {
        let run = sim.run_controlled(src, patterns, run_faults, control)?;
        counters.merge(&run.counters);
        if let Some(reason) = run.stopped {
            return Ok(Err(reason));
        }
        detected = run.result.detected_count() as u64;
        blocks = run.counters.blocks;
    }
    match charge_held_blocks(blocks, block_lanes, patterns, held, control, counters) {
        Some(reason) => Ok(Err(reason)),
        None => Ok(Ok(detected)),
    }
}

/// Score one valid single-point candidate from the batch-shared passes
/// (the per-kind arguments are laid out in the module docs). Observe
/// candidates read the presence matrix and run nothing. A control point
/// runs its forcing lanes only, and a full point the faults not present
/// at its site, each with dropping on this lane's `sim` clone and
/// without the faults the reach filter proves unchanged; those stay
/// undetected.
#[allow(clippy::too_many_arguments)]
fn eval_fast(
    prep: &FastPrep,
    fast_sim: &mut Option<FaultSimulator>,
    lines: SiteLines,
    tp: TestPoint,
    base: &Circuit,
    faults: &[Fault],
    patterns: u64,
    seed: u64,
    control: &RunControl,
) -> Result<GroupEval, NetlistError> {
    let mut counters = SimCounters::default();
    let pw = prep.pattern_words;
    let si = lines.si;
    if tp.kind == TestPointKind::Observe {
        // Observing an existing output is a structural no-op, so the
        // candidate detects no more than the base circuit: nothing.
        let detected = if base.is_output(tp.node) {
            0
        } else {
            (0..faults.len()).filter(|&fi| prep.present(fi, si)).count() as u64
        };
        return Ok(GroupEval::done(detected, counters, 0));
    }
    let a = lines.a.expect("validated control/full site has a mux");
    let b = lines.b.expect("validated control/full site has a mux");
    let aux = prep.n_base_inputs as u64;
    let r: Vec<u64> = (0..pw)
        .map(|w| IndependentPatterns::word(seed, aux, w as u64))
        .collect();
    let full = tp.kind == TestPointKind::Full;
    // A full point's tap detects the faults present at its site whatever
    // the cut does.
    let mut pre = 0u64;
    let mut filtered = 0u64;
    let mut run_faults: Vec<Fault> = Vec::new();
    for (fi, &f) in faults.iter().enumerate() {
        if full && prep.present(fi, si) {
            pre += 1;
        } else if prep.may_change(fi, f, si) {
            run_faults.push(f);
        } else {
            filtered += 1;
        }
    }
    let mut src = if full {
        let mut streams = prep.passthrough.clone();
        streams[a] = vec![0u64; pw];
        streams[b] = r;
        PackedSource {
            streams,
            patterns,
            word: 0,
        }
    } else {
        // Forcing lanes: where the control stream overrides the site
        // (`r = 0` for an AND point, `r = 1` for an OR point).
        let forcing_and = tp.kind == TestPointKind::ControlAnd;
        let forcing = |rw: u64| if forcing_and { !rw } else { rw };
        let tail = tail_masks(patterns, pw);
        let sel: Vec<u64> = (0..pw).map(|w| forcing(r[w]) & tail[w]).collect();
        let m: u64 = sel.iter().map(|w| u64::from(w.count_ones())).sum();
        if m == 0 {
            return Ok(GroupEval::done(0, counters, 0));
        }
        let out_words = m.div_ceil(64) as usize;
        let mut streams: Vec<Vec<u64>> = prep
            .passthrough
            .iter()
            .map(|s| compact_words(s, &sel, out_words))
            .collect();
        if forcing_and {
            streams[a] = vec![0u64; out_words];
        } else {
            streams[b] = vec![!0u64; out_words];
        }
        PackedSource {
            streams,
            patterns: m,
            word: 0,
        }
    };
    if run_faults.is_empty() && filtered == 0 {
        return Ok(GroupEval::done(pre, counters, 0));
    }
    let run = run_dropping(
        prep,
        fast_sim,
        &mut src,
        &run_faults,
        filtered > 0,
        control,
        &mut counters,
    )?;
    Ok(match run {
        Ok(detected) => GroupEval::done(pre + detected, counters, filtered),
        Err(reason) => GroupEval::stopped(reason, counters),
    })
}

/// Score every candidate group by faults detected within `patterns`
/// patterns of the seeded [`IndependentPatterns`] stream, simulating
/// only each group's dirty faults / forcing lanes (see the module docs
/// for why this is bit-identical to re-simulating everything).
///
/// Every fault in `faults` must go undetected on `base` within the same
/// `patterns` patterns of the same stream (the module docs' contract);
/// the scores are wrong for a fault the base circuit detects.
///
/// Returns one [`GroupScore`] per group, in group order, regardless of
/// evaluation schedule: with `threads > 1` groups are pulled from a
/// shared queue by a worker pool and merged by index. When `control`
/// stops the run, `stopped` carries the reason from the lowest-indexed
/// stopped group and no selection should be committed.
///
/// # Errors
///
/// [`NetlistError`] if the base circuit (or a candidate circuit) fails
/// simulator construction — cyclic or malformed structure.
#[allow(clippy::too_many_arguments)]
pub fn score_candidate_groups(
    base: &Circuit,
    faults: &[Fault],
    groups: &[Vec<TestPoint>],
    patterns: u64,
    seed: u64,
    options: SimOptions,
    threads: usize,
    control: &RunControl,
) -> Result<BatchScores, NetlistError> {
    let mut counters = SimCounters::default();
    let topo = Topology::of(base)?;
    let valid: Vec<bool> = groups
        .iter()
        .map(|g| !g.is_empty() && group_applies(base, &topo, g))
        .collect();
    let mut scores: Vec<GroupScore> = vec![GroupScore::default(); groups.len()];

    let mut fast = build_fast_prep(base, &topo, groups, &valid, patterns, seed, options);
    if let Some(prep) = &mut fast {
        // The presence pass scores observe and full candidates and
        // filters every control/full run; a controls-only batch skips it
        // and runs its controls unfiltered.
        let needed = groups.iter().zip(&valid).any(|(g, &ok)| {
            ok && g.len() == 1 && matches!(g[0].kind, TestPointKind::Observe | TestPointKind::Full)
        });
        if needed {
            let (reason, pass) = prep.compute_presence(base, faults, patterns, control)?;
            counters.merge(&pass);
            if reason.is_some() {
                return Ok(BatchScores {
                    scores,
                    stopped: reason,
                    counters,
                    faults_filtered: 0,
                });
            }
        }
    }
    let fast = fast;

    let eval_group = |gi: usize| -> Result<GroupEval, NetlistError> {
        let mut counters = SimCounters::default();
        let none = |counters| {
            Ok(GroupEval {
                detected: None,
                stopped: None,
                counters,
                filtered: 0,
            })
        };
        if !valid[gi] {
            return none(counters);
        }
        let old_nodes = base.node_count();
        let mut scratch = base.clone();
        let mut observed: Vec<NodeId> = Vec::new();
        for &tp in &groups[gi] {
            match apply_test_point(&mut scratch, tp) {
                Ok(applied) => observed.extend(applied.observed),
                // Unreachable after `group_applies`, but stay aligned
                // with the legacy scorer: skip, never fail the batch.
                Err(_) => return none(counters),
            }
        }
        let scratch_topo = Topology::of(&scratch)?;
        let dirty = dirty_line_mask(&scratch, &scratch_topo, old_nodes, &observed);
        // A fault on a clean line stays undetected (see `dirty_line_mask`).
        let dirty_faults: Vec<Fault> = faults
            .iter()
            .copied()
            .filter(|&f| dirty[f.line(&scratch).index()])
            .collect();
        if dirty_faults.is_empty() {
            return Ok(GroupEval::done(0, counters, 0));
        }
        let mut sim = FaultSimulator::with_options(&scratch, options)?;
        let mut src = IndependentPatterns::new(scratch.inputs().len(), seed);
        let run = sim.run_controlled(&mut src, patterns, &dirty_faults, control)?;
        counters.merge(&run.counters);
        if let Some(reason) = run.stopped {
            return Ok(GroupEval::stopped(reason, counters));
        }
        Ok(GroupEval::done(
            run.result.detected_count() as u64,
            counters,
            0,
        ))
    };

    // Fast path for valid single-point groups; everything else takes
    // the legacy clone-and-resimulate path. `fast_sim` is each
    // schedule lane's lazily-cloned copy of the compiled augmented
    // simulator.
    let eval_any = |gi: usize, fast_sim: &mut Option<FaultSimulator>| {
        if let Some(prep) = &fast {
            if valid[gi] && groups[gi].len() == 1 {
                let tp = groups[gi][0];
                if let Some(&lines) = prep.sites.get(&tp.node) {
                    if tp.kind == TestPointKind::Observe || lines.a.is_some() {
                        return eval_fast(
                            prep, fast_sim, lines, tp, base, faults, patterns, seed, control,
                        );
                    }
                }
            }
        }
        eval_group(gi)
    };

    let mut stopped: Option<StopReason> = None;
    let mut faults_filtered = 0u64;
    let threads = threads.max(1).min(groups.len().max(1));
    if threads == 1 {
        let mut fast_sim: Option<FaultSimulator> = None;
        for (gi, slot) in scores.iter_mut().enumerate() {
            let start = Instant::now();
            let eval = eval_any(gi, &mut fast_sim)?;
            counters.merge(&eval.counters);
            faults_filtered += eval.filtered;
            *slot = GroupScore {
                detected: eval.detected,
                eval_us: start.elapsed().as_micros() as u64,
            };
            if let Some(reason) = eval.stopped {
                stopped = Some(reason);
                break;
            }
        }
    } else {
        let next = AtomicUsize::new(0);
        let bail = AtomicBool::new(false);
        type Slot = (usize, Result<GroupEval, NetlistError>, u64);
        let results: Mutex<Vec<Slot>> = Mutex::new(Vec::with_capacity(groups.len()));
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| {
                    let mut fast_sim: Option<FaultSimulator> = None;
                    loop {
                        if bail.load(Ordering::Relaxed) {
                            break;
                        }
                        let gi = next.fetch_add(1, Ordering::Relaxed);
                        if gi >= groups.len() {
                            break;
                        }
                        let start = Instant::now();
                        let eval = eval_any(gi, &mut fast_sim);
                        let us = start.elapsed().as_micros() as u64;
                        let failed = eval.is_err() || matches!(&eval, Ok(e) if e.stopped.is_some());
                        results.lock().expect("scorer mutex").push((gi, eval, us));
                        if failed {
                            bail.store(true, Ordering::Relaxed);
                            break;
                        }
                    }
                });
            }
        });
        let mut results = results.into_inner().expect("scorer mutex");
        // Index-ordered merge: scores, the first error and the reported
        // stop reason are all taken in group order, independent of the
        // schedule that produced them.
        results.sort_by_key(|(gi, _, _)| *gi);
        for (gi, eval, us) in results {
            let eval = eval?;
            counters.merge(&eval.counters);
            faults_filtered += eval.filtered;
            scores[gi] = GroupScore {
                detected: eval.detected,
                eval_us: us,
            };
            if let Some(reason) = eval.stopped {
                stopped.get_or_insert(reason);
            }
        }
    }

    Ok(BatchScores {
        scores,
        stopped,
        counters,
        faults_filtered,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultUniverse;
    use tpi_netlist::{CircuitBuilder, GateKind};

    fn sample() -> Circuit {
        let mut b = CircuitBuilder::new("c");
        let xs = b.inputs(4, "x");
        let g0 = b.gate(GateKind::And, vec![xs[0], xs[1]], "g0").unwrap();
        let g1 = b.gate(GateKind::Or, vec![xs[2], xs[3]], "g1").unwrap();
        let y = b.gate(GateKind::And, vec![g0, g1], "y").unwrap();
        b.output(y);
        b.finish().unwrap()
    }

    /// Per fault of `faults`, whether `patterns` patterns of the scoring
    /// stream detect it on `circuit`.
    fn detected_under(circuit: &Circuit, patterns: u64, seed: u64, faults: &[Fault]) -> Vec<bool> {
        let mut sim = FaultSimulator::new(circuit).unwrap();
        let mut src = IndependentPatterns::new(circuit.inputs().len(), seed);
        let run = sim.run(&mut src, patterns, faults).unwrap();
        (0..faults.len())
            .map(|i| run.first_detection(i).is_some())
            .collect()
    }

    /// The collapsed faults of `c` that the scoring stream leaves
    /// undetected: what a caller hands the scorer.
    fn undetected(c: &Circuit, patterns: u64, seed: u64) -> Vec<Fault> {
        let universe = FaultUniverse::collapsed(c).unwrap();
        let detected = detected_under(c, patterns, seed, universe.faults());
        let faults: Vec<Fault> = universe
            .faults()
            .iter()
            .zip(detected)
            .filter(|&(_, d)| !d)
            .map(|(&f, _)| f)
            .collect();
        assert!(!faults.is_empty(), "{}: needs undetected faults", c.name());
        faults
    }

    /// Reference scorer: apply the group to a fresh clone and fully
    /// re-simulate every fault; `None` if any point fails to apply.
    fn reference_score(
        base: &Circuit,
        group: &[TestPoint],
        faults: &[Fault],
        patterns: u64,
        seed: u64,
    ) -> Option<u64> {
        if group.is_empty() {
            return None;
        }
        let mut scratch = base.clone();
        for &tp in group {
            apply_test_point(&mut scratch, tp).ok()?;
        }
        let detected = detected_under(&scratch, patterns, seed, faults);
        Some(detected.iter().filter(|&&d| d).count() as u64)
    }

    /// Score `groups` over the faults the scoring stream leaves
    /// undetected on `c`, at each thread count, and compare every score
    /// with [`reference_score`]. Some group must detect something.
    fn assert_scores_match_reference(
        c: &Circuit,
        groups: &[Vec<TestPoint>],
        patterns: u64,
        seed: u64,
        threads: &[usize],
    ) {
        let faults = undetected(c, patterns, seed);
        let expected: Vec<Option<u64>> = groups
            .iter()
            .map(|g| reference_score(c, g, &faults, patterns, seed))
            .collect();
        assert!(
            expected.iter().any(|&d| d > Some(0)),
            "{}: no group detects anything",
            c.name()
        );
        for &threads in threads {
            let batch = score_candidate_groups(
                c,
                &faults,
                groups,
                patterns,
                seed,
                SimOptions::default(),
                threads,
                &RunControl::unlimited(),
            )
            .unwrap();
            assert!(batch.stopped.is_none());
            for ((group, score), expected) in groups.iter().zip(&batch.scores).zip(&expected) {
                assert_eq!(
                    score.detected, *expected,
                    "group {group:?} (threads {threads})"
                );
            }
        }
    }

    #[test]
    fn validation_matches_apply() {
        let c = sample();
        let topo = Topology::of(&c).unwrap();
        let y = c.outputs()[0];
        for group in [
            vec![TestPoint::new(y, TestPointKind::Observe)],
            vec![TestPoint::new(y, TestPointKind::ControlAnd)],
            vec![TestPoint::new(y, TestPointKind::Full)],
            vec![
                TestPoint::new(y, TestPointKind::Full),
                TestPoint::new(y, TestPointKind::ControlAnd),
                TestPoint::new(y, TestPointKind::Full),
            ],
            vec![
                TestPoint::new(y, TestPointKind::Observe),
                TestPoint::new(y, TestPointKind::Observe),
            ],
        ] {
            let predicted = group_applies(&c, &topo, &group);
            let mut scratch = c.clone();
            let actual = group
                .iter()
                .all(|&tp| apply_test_point(&mut scratch, tp).is_ok());
            assert_eq!(predicted, actual, "group {group:?}");
        }
    }

    #[test]
    fn batched_counts_match_full_resimulation() {
        let c = sample();
        let groups: Vec<Vec<TestPoint>> = c
            .node_ids()
            .flat_map(|n| {
                TestPointKind::ALL
                    .iter()
                    .map(move |&k| vec![TestPoint::new(n, k)])
            })
            .collect();
        assert_scores_match_reference(&c, &groups, 6, 7, &[1, 3]);
    }

    #[test]
    fn multi_point_and_dangling_groups_match_full_resimulation() {
        // `dead` has no consumer and no output entry: observe points on
        // it are valid, control/full points are not (nothing to rewire).
        let mut b = CircuitBuilder::new("c");
        let xs = b.inputs(3, "x");
        let g0 = b.gate(GateKind::And, vec![xs[0], xs[1]], "g0").unwrap();
        let g1 = b.gate(GateKind::Or, vec![g0, xs[2]], "g1").unwrap();
        let dead = b.gate(GateKind::Nand, vec![xs[0], xs[2]], "dead").unwrap();
        b.output(g1);
        let c = b.finish().unwrap();
        let mut groups: Vec<Vec<TestPoint>> = TestPointKind::ALL
            .iter()
            .map(|&k| vec![TestPoint::new(dead, k)])
            .collect();
        groups.push(vec![
            TestPoint::new(g0, TestPointKind::ControlAnd),
            TestPoint::new(g1, TestPointKind::Observe),
        ]);
        groups.push(vec![
            TestPoint::new(g1, TestPointKind::Full),
            TestPoint::new(g0, TestPointKind::ControlOr),
        ]);
        groups.push(vec![]);
        assert_scores_match_reference(&c, &groups, 5, 11, &[1, 2]);
    }

    #[test]
    fn solo_sites_match_full_resimulation() {
        // One candidate per site, kinds rotating: no site hosts two
        // kinds, and observes still read the presence pass.
        let c = awkward();
        let groups: Vec<Vec<TestPoint>> = c
            .node_ids()
            .enumerate()
            .map(|(i, n)| vec![TestPoint::new(n, TestPointKind::ALL[i % 4])])
            .collect();
        assert_scores_match_reference(&c, &groups, 64, 13, &[1, 2]);
    }

    /// One circuit holding the structures the cut-set argument has to
    /// get right: constant nets, a gate reading one net twice, an
    /// XOR/XNOR chain, an 8-input NAND, and sites that are primary
    /// outputs and also feed gates.
    fn awkward() -> Circuit {
        let mut b = CircuitBuilder::new("awkward");
        let xs = b.inputs(9, "x");
        let zero = b.constant(false, "zero").unwrap();
        let one = b.constant(true, "one").unwrap();
        let twice = b.gate(GateKind::Nand, vec![xs[0], xs[0]], "twice").unwrap();
        let gated = b.gate(GateKind::And, vec![zero, xs[1]], "gated").unwrap();
        let held = b.gate(GateKind::Nor, vec![one, xs[2]], "held").unwrap();
        let xa = b.gate(GateKind::Xor, vec![twice, xs[3]], "xa").unwrap();
        let xb = b
            .gate(GateKind::Xnor, vec![xa, gated, xs[4]], "xb")
            .unwrap();
        let xc = b.gate(GateKind::Xor, vec![xb, held], "xc").unwrap();
        let wide_fanins = vec![xs[1], xs[2], xs[3], xs[5], xs[6], xs[7], xs[8], xc];
        let wide = b.gate(GateKind::Nand, wide_fanins, "wide").unwrap();
        let tail = b
            .gate(GateKind::And, vec![wide, xb, twice], "tail")
            .unwrap();
        b.output(twice);
        b.output(xb);
        b.output(tail);
        b.finish().unwrap()
    }

    /// Score every node × kind of `c`, over the faults the scoring
    /// stream leaves undetected, against a full re-simulation of the
    /// candidate circuit: once in one batch where every site hosts all
    /// four kinds, and once spread over four batches with one kind per
    /// site, at one thread and (for the all-kinds batch and one
    /// one-kind batch) at two. Returns the faults the reach filter kept
    /// out of runs.
    fn assert_every_candidate_matches(c: &Circuit, patterns: u64, seed: u64) -> u64 {
        let faults = undetected(c, patterns, seed);
        let nodes: Vec<NodeId> = c.node_ids().collect();
        let shared: Vec<Vec<TestPoint>> = nodes
            .iter()
            .flat_map(|&n| {
                TestPointKind::ALL
                    .iter()
                    .map(move |&k| vec![TestPoint::new(n, k)])
            })
            .collect();
        // Per candidate, how many scored faults the candidate circuit
        // detects (`None` when the point does not apply).
        let reference: HashMap<TestPoint, Option<u64>> = shared
            .iter()
            .map(|g| (g[0], reference_score(c, g, &faults, patterns, seed)))
            .collect();
        let solo = (0..4).map(|shift| {
            nodes
                .iter()
                .enumerate()
                .map(|(i, &n)| vec![TestPoint::new(n, TestPointKind::ALL[(i + shift) % 4])])
                .collect::<Vec<_>>()
        });
        let batches: Vec<Vec<Vec<TestPoint>>> =
            std::iter::once(shared.clone()).chain(solo).collect();
        let control = RunControl::unlimited();
        let mut filtered = 0;
        for (bi, batch) in batches.iter().enumerate() {
            let threads: &[usize] = if bi < 2 { &[1, 2] } else { &[1] };
            for &threads in threads {
                let scored = score_candidate_groups(
                    c,
                    &faults,
                    batch,
                    patterns,
                    seed,
                    SimOptions::default(),
                    threads,
                    &control,
                )
                .unwrap();
                assert!(scored.stopped.is_none());
                for (group, score) in batch.iter().zip(&scored.scores) {
                    assert_eq!(
                        score.detected,
                        reference[&group[0]],
                        "{}: {} (threads {threads})",
                        c.name(),
                        group[0]
                    );
                }
                filtered += scored.faults_filtered;
            }
        }
        filtered
    }

    #[test]
    fn held_blocks_charge_like_the_unfiltered_run() {
        // Split a fault list into simulated faults and held faults that
        // the stream never detects, run the first part and finish the
        // block schedule for the second: under every work budget the pair
        // must stop exactly where a run over the whole list stops, and
        // leave the budget equally spent.
        let c =
            tpi_gen::dags::random_dag(&tpi_gen::dags::RandomDagConfig::new(16, 120, 4)).unwrap();
        let universe = FaultUniverse::collapsed(&c).unwrap();
        let faults = universe.faults();
        let patterns = 1000;
        let options = SimOptions {
            block_words: 1,
            ..SimOptions::default()
        };
        let mut sim = FaultSimulator::with_options(&c, options).unwrap();
        let mut run = |faults: &[Fault], control: &RunControl| {
            let mut src = IndependentPatterns::new(c.inputs().len(), 3);
            sim.run_controlled(&mut src, patterns, faults, control)
                .unwrap()
        };
        let whole = run(faults, &RunControl::unlimited());
        let never: Vec<usize> = (0..faults.len())
            .filter(|&i| whole.result.first_detection(i).is_none())
            .collect();
        assert!(never.len() >= 2, "test needs undetected faults");
        // Held: every undetected fault (the simulated part then ends
        // early), every other one (it runs to the end itself), or none.
        let splits: [&dyn Fn(usize) -> bool; 3] = [
            &|i| never.contains(&i),
            &|i| never.iter().step_by(2).any(|&n| n == i),
            &|_| false,
        ];
        for held in splits {
            let simulated: Vec<Fault> = (0..faults.len())
                .filter(|&i| !held(i))
                .map(|i| faults[i])
                .collect();
            let any_held = simulated.len() < faults.len();
            let budgets = (0..=patterns / 64 + 1).flat_map(|k| [64 * k, 64 * k + 1]);
            for budget in budgets.chain([patterns, patterns + 1]) {
                let alone = RunControl::with_budget(budget);
                let expected = run(faults, &alone);
                let paired = RunControl::with_budget(budget);
                let part = run(&simulated, &paired);
                let mut counters = part.counters;
                let stopped = part.stopped.or_else(|| {
                    charge_held_blocks(
                        counters.blocks,
                        64,
                        patterns,
                        any_held,
                        &paired,
                        &mut counters,
                    )
                });
                assert_eq!(stopped, expected.stopped, "budget {budget}");
                assert_eq!(counters.polls, expected.counters.polls, "budget {budget}");
                assert_eq!(
                    paired.poll(),
                    alone.poll(),
                    "budget {budget}: spent differs"
                );
            }
        }
    }

    #[test]
    fn reach_filter_matches_full_resimulation_on_random_dags() {
        for (inputs, gates, seed) in [(12, 100, 3u64), (32, 400, 21)] {
            let c = tpi_gen::dags::random_dag(&tpi_gen::dags::RandomDagConfig::new(
                inputs, gates, seed,
            ))
            .unwrap();
            let filtered = assert_every_candidate_matches(&c, 64, seed);
            assert!(filtered > 0, "{}: the filter never filtered", c.name());
        }
    }

    #[test]
    fn reach_filter_matches_full_resimulation_on_awkward_structure() {
        let filtered = assert_every_candidate_matches(&awkward(), 48, 5);
        assert!(filtered > 0, "the filter never filtered");
    }
}
