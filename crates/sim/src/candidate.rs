//! Batched candidate-group scoring for the test-point search loop.
//!
//! The constructive optimizers referee candidate test-point groups by
//! fault simulation. The legacy scorer clones the circuit, compiles a
//! fresh simulator and re-simulates **every** undetected fault for
//! **every** candidate group — `O(groups × faults × patterns)` even
//! though a test point only perturbs its fanout cone. This module makes
//! scoring `C` single-point candidates cost **one compile plus `C`
//! cone/lane-sized deltas**:
//!
//! * the group is validated against the base circuit *before* any clone
//!   (see [`group_applies`]) — invalid groups cost a hash-map walk, not
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
//!   `base-detected ∨ present-at-v` — every observe candidate in the
//!   batch is scored by this single pass, with **zero** per-candidate
//!   simulation. Undetected faults propagate barely at all (that is
//!   *why* they are undetected), so the pass costs a fraction of one
//!   ordinary fault-sim run;
//! * one **merged forcing run** per site scores the remaining three
//!   kinds. Driving *both* mux enables with the candidate stream
//!   (`a = b = r`) makes the mux output `r` on every lane: the
//!   site is forced to 0 exactly on an AND point's forcing lanes
//!   (`r = 0`), to 1 exactly on an OR point's (`r = 1`), and the
//!   consumers see the fresh-input stream `r` on *all* lanes — which
//!   is precisely the full point's cut. One no-dropping bitmap run
//!   ([`FaultSimulator::run_bitmaps`]) therefore yields per-lane
//!   detection words `d(f)` from which all three candidates read off
//!   their counts:
//!
//!   | kind         | detected(f)                                    |
//!   |--------------|------------------------------------------------|
//!   | `ControlAnd` | `d(f) ∧ ¬r ≠ 0  ∨  base(f) ∧ r ≠ 0`            |
//!   | `ControlOr`  | `d(f) ∧ r ≠ 0  ∨  base(f) ∧ ¬r ≠ 0`            |
//!   | `Full`       | `d(f) ≠ 0  ∨  present-at-v(f)`                 |
//!
//!   The base term is the transparency argument: on a control point's
//!   non-forcing lanes the inserted gate is an identity buffer — good
//!   values, fault excitation and propagation are bit-identical to
//!   the base circuit, so the candidate's detection bits there *are*
//!   the base bitmaps (simulated once under
//!   [`BaseDetections::Simulate`], identically zero under
//!   [`BaseDetections::AssumeUndetected`]). The full point's tap term
//!   reuses the presence pass: `v`'s fanin cone is upstream of the
//!   cut (the circuit is acyclic), so the effect reaches `v` in the
//!   cut circuit iff it does in the base circuit;
//! * the merged run only pays off when several candidates split it. A
//!   site hosting a *single* control or full candidate takes a
//!   narrower solo run instead: a control point re-simulates only its
//!   forcing lanes, compacted into dense pattern words (~half the
//!   budget under the unbiased stream), and a full point re-simulates
//!   only the faults *not* present at the site (those are detected
//!   via the tap regardless of the cut), with dropping;
//! * every control/full run — merged or solo — simulates only the
//!   faults that can detect differently. A point at `v` changes values
//!   only in `FO⁺(v)`, the nodes strictly downstream of `v`, and a
//!   fault's effect can only enter `FO⁺(v)` through the cut set
//!   `S(v) = ({v} ∪ fanins of FO⁺(v)) \ FO⁺(v)`. So the presence pass
//!   also records, per (fault, site), whether the effect reaches
//!   `S(v) \ {v}`; with the presence bit at `v` that covers `S(v)`. A
//!   fault anchored outside `FO⁺(v)` whose effect never reaches `S(v)`
//!   sees good values and a faulty cone that are identical to the base
//!   circuit's on every lane (induction in topological order: outside
//!   `FO⁺(v)` the fanins are unchanged; inside, every fanin either lies
//!   in `FO⁺(v)` or in `S(v)`, and neither carries its effect), so it
//!   keeps its base detection bits. A full point drops `v` from the
//!   set: a fault reaching `v` is tap-detected whatever the cut does.
//!   The filtered faults still count towards the run's block schedule
//!   under a work budget (see `charge_held_blocks`), so the token is
//!   polled and charged exactly as by an unfiltered run.
//!
//! Multi-point groups (and any group the augmented build cannot cover)
//! fall back to the legacy path: clone, apply, compile, and re-simulate
//! the group's *dirty* faults, crediting clean faults with their base
//! detections by the same cone-delta argument the incremental engine
//! uses.
//!
//! Scoring uses [`IndependentPatterns`], whose per-input streams are
//! invariant under input insertion: the auxiliary inputs a control
//! point adds do not shift the patterns any base input sees, so the
//! shared base run and every per-candidate run observe the same input
//! stimulus. (The legacy `RandomPatterns` source draws all inputs from
//! one sequential PRNG and has no such invariance — sharing anything
//! across candidates under it would be unsound.)
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

use tpi_netlist::analysis::fanout_cone_mask;
use tpi_netlist::transform::apply_test_point;
use tpi_netlist::{Circuit, NetlistError, NodeId, TestPoint, TestPointKind, Topology};

use crate::compile::MAX_BLOCK_WORDS;
use crate::control::{RunControl, StopReason};
use crate::fault::{Fault, FaultSite};
use crate::fsim::{first_lane, FaultSimulator, SimOptions};
use crate::metrics::SimCounters;
use crate::patterns::{IndependentPatterns, PatternSource};

/// How faults outside a candidate's dirty cone are accounted.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum BaseDetections {
    /// Simulate the base circuit once under the scoring stream and
    /// credit each candidate with the base detections of its clean
    /// faults. Required when the scoring stream differs from the
    /// stream that classified the faults as undetected (the
    /// from-scratch optimizer's situation).
    Simulate,
    /// Assume every scored fault is undetected on the base circuit
    /// under the scoring stream, so clean faults contribute zero
    /// detections. Sound when the caller measured coverage with the
    /// *same* source, seed and pattern count (the engine's situation);
    /// skips the base run entirely.
    AssumeUndetected,
}

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
    /// Kernel counters merged over the base run and every group run.
    pub counters: SimCounters,
    /// Scored faults the reach filter left out of control/full runs,
    /// summed over the candidates those runs scored (a merged run counts
    /// once per candidate reading it, so the sum does not depend on the
    /// schedule).
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
pub fn group_applies(circuit: &Circuit, topo: &Topology, group: &[TestPoint]) -> bool {
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

/// Node-level dirtiness after applying a candidate group that appended
/// nodes `old_nodes..` and tapped `observed` as new outputs: the same
/// upstream-flowing mask the incremental engine uses. A fault anchored
/// on a clean line provably keeps its detection behaviour — no value,
/// sensitization side-input or observing output in its cone changed.
fn dirty_lines(
    circuit: &Circuit,
    topo: &Topology,
    old_nodes: usize,
    observed: &[NodeId],
) -> Vec<bool> {
    let n = circuit.node_count();
    let new_nodes: Vec<NodeId> = (old_nodes..n).map(NodeId::from_index).collect();
    let marked = fanout_cone_mask(circuit, topo, &new_nodes);
    let mut dirty = vec![false; n];
    for &id in topo.order().iter().rev() {
        let i = id.index();
        let seeded = marked[i]
            || observed.contains(&id)
            || circuit.fanins(id).iter().any(|f| marked[f.index()]);
        dirty[i] = seeded || topo.fanouts(id).iter().any(|fo| dirty[fo.gate.index()]);
    }
    dirty
}

/// The line a fault's detection is anchored to, resolved against the
/// candidate circuit (control points may have re-driven a branch).
fn fault_anchor(circuit: &Circuit, fault: Fault) -> NodeId {
    match fault.site {
        FaultSite::Stem(node) => node,
        FaultSite::Branch { gate, pin } => circuit.fanins(gate)[pin as usize],
    }
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
    /// all-ones, every `b`/`o` enable all-zeros.
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
    /// a control point (`through_site`) or a full point: it sits inside
    /// `FO⁺(v)`, or its effect reaches the cut set — `v` itself counts
    /// for a control point only (see module docs). Without a presence
    /// pass (a controls-only batch) every fault can.
    fn may_change(&self, fi: usize, fault: Fault, si: usize, through_site: bool) -> bool {
        if self.presence.is_empty() {
            return true;
        }
        // The node the fault's effect first appears on: its stem, or
        // the gate whose input pin it sits on.
        let origin = match fault.site {
            FaultSite::Stem(node) => node,
            FaultSite::Branch { gate, .. } => gate,
        };
        self.bit(&self.cone, origin.index(), si)
            || self.bit(&self.reach, fi, si)
            || (through_site && self.present(fi, si))
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

/// A schedule lane's cache of its most recent merged forcing run:
/// `(site, per-fault detection words)`, `None` for a fault the reach
/// filter left out of the run (its words are its base bitmap). Candidate
/// kinds of one site typically arrive adjacently in a batch, so a
/// depth-1 cache captures the sharing while bounding memory at one
/// site's bitmaps per worker (an unbounded map would hold `sites ×
/// faults × words` on the optimizers' full-circuit sweeps).
type MergedMemo = Option<(NodeId, Vec<Option<Vec<u64>>>)>;

/// Finish the block schedule that a dropping run over the unfiltered
/// fault list would have followed, after the filtered run executed
/// `blocks` blocks of `block_lanes` lanes.
///
/// The unfiltered run simulates one more block while any of its faults
/// is undetected at the block's start. A filtered fault's detections are
/// its base ones, so `hold` — the last lane at which one of them is
/// still undetected, `u64::MAX` if one never is — fixes how long it
/// runs. The remaining blocks poll and charge `control` exactly as that
/// run would, without simulating anything, so a work budget stops the
/// search at the same point with or without the filter.
fn charge_held_blocks(
    blocks: u64,
    block_lanes: u64,
    patterns: u64,
    hold: Option<u64>,
    control: &RunControl,
    counters: &mut SimCounters,
) -> Option<StopReason> {
    let hold = hold?;
    let mut base = blocks * block_lanes;
    while base < patterns && base <= hold {
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
/// schedule for the filtered faults (see [`charge_held_blocks`]).
/// Returns the run's detections, or the stop reason.
#[allow(clippy::too_many_arguments)]
fn run_dropping(
    prep: &FastPrep,
    fast_sim: &mut Option<FaultSimulator>,
    src: &mut PackedSource,
    run_faults: &[Fault],
    hold: Option<u64>,
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
    match charge_held_blocks(blocks, block_lanes, patterns, hold, control, counters) {
        Some(reason) => Ok(Err(reason)),
        None => Ok(Ok(detected)),
    }
}

/// Score one valid single-point candidate from the batch-shared passes
/// (the per-kind formulas and their soundness arguments are laid out in
/// the module docs). Observe candidates read the presence matrix and
/// run nothing. Control and full candidates at a `shared` site (two or
/// more of them in the batch) split one merged forcing run, lazily
/// executed on this lane's `sim` clone and cached in `memo`; a lone
/// candidate instead takes the narrower run its kind permits — forcing
/// lanes only for a control point, non-present faults with dropping
/// for a full point — which costs less than a merged run nobody else
/// will read. Every run leaves out the faults the reach filter proves
/// unchanged; they keep their base detections.
#[allow(clippy::too_many_arguments)]
fn eval_fast(
    prep: &FastPrep,
    fast_sim: &mut Option<FaultSimulator>,
    memo: &mut MergedMemo,
    lines: SiteLines,
    tp: TestPoint,
    shared: bool,
    base: &Circuit,
    faults: &[Fault],
    base_maps: Option<&[Vec<u64>]>,
    patterns: u64,
    seed: u64,
    control: &RunControl,
) -> Result<GroupEval, NetlistError> {
    let mut counters = SimCounters::default();
    let pw = prep.pattern_words;
    let si = lines.si;
    let in_base = |fi: usize| base_maps.is_some_and(|m| m[fi].iter().any(|&w| w != 0));
    if tp.kind == TestPointKind::Observe {
        let pre = (0..faults.len()).filter(|&fi| in_base(fi)).count() as u64;
        // Observing an existing output is a structural no-op, so the
        // candidate detects exactly the base detections.
        let detected = if base.is_output(tp.node) {
            pre
        } else {
            pre + (0..faults.len())
                .filter(|&fi| !in_base(fi) && prep.present(fi, si))
                .count() as u64
        };
        return Ok(GroupEval::done(detected, counters, 0));
    }
    let a = lines.a.expect("validated control/full site has a mux");
    let b = lines.b.expect("validated control/full site has a mux");
    let aux = prep.n_base_inputs as u64;
    let r: Vec<u64> = (0..pw)
        .map(|w| IndependentPatterns::word(seed, aux, w as u64))
        .collect();
    // The last lane at which a filtered fault is still undetected, from
    // its base detections in the run's own lane numbering.
    let mut hold: Option<u64> = None;
    let mut note_held = |death: Option<u64>| {
        hold = Some(hold.unwrap_or(0).max(death.unwrap_or(u64::MAX)));
    };
    if !shared {
        let mut pre = 0u64;
        let mut filtered = 0u64;
        let mut run_faults: Vec<Fault> = Vec::new();
        let mut src = match tp.kind {
            TestPointKind::Observe => unreachable!("handled above"),
            TestPointKind::ControlAnd | TestPointKind::ControlOr => {
                let forcing_and = tp.kind == TestPointKind::ControlAnd;
                let tail = tail_masks(patterns, pw);
                // Forcing lanes: where the candidate's control stream
                // overrides the site (`r = 0` for an AND point, `r = 1`
                // for an OR point). On the complementary (transparent)
                // lanes the inserted gate is an identity buffer and the
                // candidate's detection bits are the base bitmaps
                // verbatim.
                let sel: Vec<u64> = (0..pw)
                    .map(|w| {
                        if forcing_and {
                            !r[w] & tail[w]
                        } else {
                            r[w] & tail[w]
                        }
                    })
                    .collect();
                let m: u64 = sel.iter().map(|w| u64::from(w.count_ones())).sum();
                let out_words = m.div_ceil(64) as usize;
                for (fi, &f) in faults.iter().enumerate() {
                    let transparent_hit = base_maps
                        .is_some_and(|m| m[fi].iter().zip(&sel).any(|(&d, &s)| d & !s != 0));
                    if transparent_hit {
                        pre += 1;
                    } else if m > 0 && !prep.may_change(fi, f, si, true) {
                        // Base detections, all on forcing lanes: read
                        // them off in the compacted lane numbering.
                        let held = base_maps.map(|maps| compact_words(&maps[fi], &sel, out_words));
                        let death = held.as_deref().and_then(first_lane);
                        pre += u64::from(death.is_some());
                        note_held(death);
                        filtered += 1;
                    } else {
                        run_faults.push(f);
                    }
                }
                if m == 0 {
                    return Ok(GroupEval::done(pre, counters, filtered));
                }
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
            }
            TestPointKind::Full => {
                // Faults already present at the site are detected via
                // the tap no matter what the cut does; of the rest, only
                // those the cut can change need the cut circuit
                // simulated (with dropping — the per-lane split of the
                // merged run is not needed here).
                for (fi, &f) in faults.iter().enumerate() {
                    if prep.present(fi, si) {
                        pre += 1;
                    } else if !prep.may_change(fi, f, si, false) {
                        let death = base_maps.and_then(|maps| first_lane(&maps[fi]));
                        pre += u64::from(death.is_some());
                        note_held(death);
                        filtered += 1;
                    } else {
                        run_faults.push(f);
                    }
                }
                let mut streams = prep.passthrough.clone();
                streams[a] = vec![0u64; pw];
                streams[b] = r.clone();
                PackedSource {
                    streams,
                    patterns,
                    word: 0,
                }
            }
        };
        if run_faults.is_empty() && filtered == 0 {
            return Ok(GroupEval::done(pre, counters, filtered));
        }
        let run = run_dropping(
            prep,
            fast_sim,
            &mut src,
            &run_faults,
            hold,
            control,
            &mut counters,
        )?;
        return Ok(match run {
            Ok(detected) => GroupEval::done(pre + detected, counters, filtered),
            Err(reason) => GroupEval::stopped(reason, counters),
        });
    }
    if memo.as_ref().map(|(v, _)| *v) != Some(tp.node) {
        let keep: Vec<bool> = faults
            .iter()
            .enumerate()
            .map(|(fi, &f)| prep.may_change(fi, f, si, true))
            .collect();
        let run_faults: Vec<Fault> = faults
            .iter()
            .zip(&keep)
            .filter(|&(_, &k)| k)
            .map(|(&f, _)| f)
            .collect();
        let mut streams = prep.passthrough.clone();
        streams[a] = r.clone();
        streams[b] = r.clone();
        let mut src = PackedSource {
            streams,
            patterns,
            word: 0,
        };
        // Runs even when every fault is filtered: a bitmap run polls and
        // charges every block regardless of its fault list.
        let sim = fast_sim.get_or_insert_with(|| prep.sim.clone());
        let run = sim.run_bitmaps(&mut src, patterns, &run_faults, control)?;
        counters.merge(&run.counters);
        if let Some(reason) = run.stopped {
            return Ok(GroupEval::stopped(reason, counters));
        }
        let mut maps = run.maps.into_iter();
        let rows = keep
            .iter()
            .map(|&k| if k { maps.next() } else { None })
            .collect();
        *memo = Some((tp.node, rows));
    }
    let rows = &memo.as_ref().expect("merged run just cached").1;
    let filtered = rows.iter().filter(|row| row.is_none()).count() as u64;
    // A filtered fault's merged words are its base bitmap (empty when
    // the base detects nothing).
    let words = |fi: usize| -> &[u64] {
        rows[fi]
            .as_deref()
            .or_else(|| base_maps.map(|m| m[fi].as_slice()))
            .unwrap_or(&[])
    };
    // The merged detection words are lane-masked to the pattern budget,
    // so `∧ r` needs no tail mask; the base bitmaps likewise.
    let detected = match tp.kind {
        TestPointKind::Observe => unreachable!("handled above"),
        TestPointKind::ControlAnd | TestPointKind::ControlOr => {
            let forcing_and = tp.kind == TestPointKind::ControlAnd;
            let on = |word: u64, rw: u64, forcing: bool| {
                word & if forcing == forcing_and { !rw } else { rw }
            };
            (0..faults.len())
                .filter(|&fi| {
                    words(fi)
                        .iter()
                        .zip(&r)
                        .any(|(&d, &rw)| on(d, rw, true) != 0)
                        || base_maps.is_some_and(|m| {
                            m[fi].iter().zip(&r).any(|(&d, &rw)| on(d, rw, false) != 0)
                        })
                })
                .count() as u64
        }
        TestPointKind::Full => (0..faults.len())
            .filter(|&fi| words(fi).iter().any(|&d| d != 0) || prep.present(fi, si))
            .count() as u64,
    };
    Ok(GroupEval::done(detected, counters, filtered))
}

/// Score every candidate group by faults detected within `patterns`
/// patterns of the seeded [`IndependentPatterns`] stream, simulating
/// only each group's dirty faults / forcing lanes (see the module docs
/// for why this is bit-identical to re-simulating everything).
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
    base_detections: BaseDetections,
    control: &RunControl,
) -> Result<BatchScores, NetlistError> {
    let mut counters = SimCounters::default();
    let topo = Topology::of(base)?;
    let valid: Vec<bool> = groups
        .iter()
        .map(|g| !g.is_empty() && group_applies(base, &topo, g))
        .collect();
    let mut scores: Vec<GroupScore> = vec![GroupScore::default(); groups.len()];

    let base_maps: Option<Vec<Vec<u64>>> = match base_detections {
        BaseDetections::AssumeUndetected => None,
        BaseDetections::Simulate => {
            let mut sim = FaultSimulator::with_options(base, options)?;
            let mut src = IndependentPatterns::new(base.inputs().len(), seed);
            let run = sim.run_bitmaps(&mut src, patterns, faults, control)?;
            counters.merge(&run.counters);
            if let Some(reason) = run.stopped {
                return Ok(BatchScores {
                    scores,
                    stopped: Some(reason),
                    counters,
                    faults_filtered: 0,
                });
            }
            Some(run.maps)
        }
    };
    let base_detected: Option<Vec<bool>> = base_maps
        .as_ref()
        .map(|maps| maps.iter().map(|m| m.iter().any(|&w| w != 0)).collect());

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
    // Sites hosting two or more control/full fast-path candidates split
    // one merged forcing run; a lone candidate takes its narrower solo
    // run instead (see `eval_fast`).
    let mut mux_groups: HashMap<NodeId, u32> = HashMap::new();
    if fast.is_some() {
        for (g, &ok) in groups.iter().zip(&valid) {
            if ok && g.len() == 1 && g[0].kind != TestPointKind::Observe {
                *mux_groups.entry(g[0].node).or_insert(0) += 1;
            }
        }
    }

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
        let dirty = dirty_lines(&scratch, &scratch_topo, old_nodes, &observed);
        let mut dirty_faults: Vec<Fault> = Vec::new();
        let mut clean_detected = 0u64;
        for (i, &f) in faults.iter().enumerate() {
            if dirty[fault_anchor(&scratch, f).index()] {
                dirty_faults.push(f);
            } else if let Some(bd) = &base_detected {
                clean_detected += u64::from(bd[i]);
            }
        }
        if dirty_faults.is_empty() {
            return Ok(GroupEval::done(clean_detected, counters, 0));
        }
        let mut sim = FaultSimulator::with_options(&scratch, options)?;
        let mut src = IndependentPatterns::new(scratch.inputs().len(), seed);
        let run = sim.run_controlled(&mut src, patterns, &dirty_faults, control)?;
        counters.merge(&run.counters);
        if let Some(reason) = run.stopped {
            return Ok(GroupEval::stopped(reason, counters));
        }
        Ok(GroupEval::done(
            run.result.detected_count() as u64 + clean_detected,
            counters,
            0,
        ))
    };

    // Fast path for valid single-point groups; everything else takes
    // the legacy clone-and-resimulate path. `fast_sim` is each
    // schedule lane's lazily-cloned copy of the compiled augmented
    // simulator, `memo` its cached merged forcing run.
    let eval_any = |gi: usize,
                    fast_sim: &mut Option<FaultSimulator>,
                    memo: &mut MergedMemo|
     -> Result<GroupEval, NetlistError> {
        if let Some(prep) = &fast {
            if valid[gi] && groups[gi].len() == 1 {
                let tp = groups[gi][0];
                if let Some(&lines) = prep.sites.get(&tp.node) {
                    if tp.kind == TestPointKind::Observe || lines.a.is_some() {
                        let shared = mux_groups.get(&tp.node).copied().unwrap_or(0) >= 2;
                        return eval_fast(
                            prep,
                            fast_sim,
                            memo,
                            lines,
                            tp,
                            shared,
                            base,
                            faults,
                            base_maps.as_deref(),
                            patterns,
                            seed,
                            control,
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
        let mut memo: MergedMemo = None;
        for (gi, slot) in scores.iter_mut().enumerate() {
            let start = Instant::now();
            let eval = eval_any(gi, &mut fast_sim, &mut memo)?;
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
                    let mut memo: MergedMemo = None;
                    loop {
                        if bail.load(Ordering::Relaxed) {
                            break;
                        }
                        let gi = next.fetch_add(1, Ordering::Relaxed);
                        if gi >= groups.len() {
                            break;
                        }
                        let start = Instant::now();
                        let eval = eval_any(gi, &mut fast_sim, &mut memo);
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
        let mut sim = FaultSimulator::new(&scratch).unwrap();
        let mut src = IndependentPatterns::new(scratch.inputs().len(), seed);
        let full = sim.run(&mut src, patterns, faults).unwrap();
        Some(full.detected_count() as u64)
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
        let universe = FaultUniverse::collapsed(&c).unwrap();
        let faults = universe.faults();
        let groups: Vec<Vec<TestPoint>> = c
            .node_ids()
            .flat_map(|n| {
                TestPointKind::ALL
                    .iter()
                    .map(move |&k| vec![TestPoint::new(n, k)])
            })
            .collect();
        let control = RunControl::unlimited();
        for threads in [1usize, 3] {
            let batch = score_candidate_groups(
                &c,
                faults,
                &groups,
                64,
                7,
                SimOptions::default(),
                threads,
                BaseDetections::Simulate,
                &control,
            )
            .unwrap();
            assert!(batch.stopped.is_none());
            for (group, score) in groups.iter().zip(&batch.scores) {
                assert_eq!(
                    score.detected,
                    reference_score(&c, group, faults, 64, 7),
                    "group {group:?} (threads {threads})"
                );
            }
        }
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
        let universe = FaultUniverse::collapsed(&c).unwrap();
        let faults = universe.faults();
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
        let control = RunControl::unlimited();
        for threads in [1usize, 2] {
            let batch = score_candidate_groups(
                &c,
                faults,
                &groups,
                64,
                11,
                SimOptions::default(),
                threads,
                BaseDetections::Simulate,
                &control,
            )
            .unwrap();
            assert!(batch.stopped.is_none());
            for (group, score) in groups.iter().zip(&batch.scores) {
                assert_eq!(
                    score.detected,
                    reference_score(&c, group, faults, 64, 11),
                    "group {group:?} (threads {threads})"
                );
            }
        }
    }

    #[test]
    fn solo_sites_match_full_resimulation() {
        // One candidate per site, kinds rotating, so every control and
        // full group takes the solo path (no merged-run sharing) and
        // observes still read the presence pass.
        let c = sample();
        let universe = FaultUniverse::collapsed(&c).unwrap();
        let faults = universe.faults();
        let groups: Vec<Vec<TestPoint>> = c
            .node_ids()
            .enumerate()
            .map(|(i, n)| vec![TestPoint::new(n, TestPointKind::ALL[i % 4])])
            .collect();
        let control = RunControl::unlimited();
        for threads in [1usize, 2] {
            let batch = score_candidate_groups(
                &c,
                faults,
                &groups,
                64,
                13,
                SimOptions::default(),
                threads,
                BaseDetections::Simulate,
                &control,
            )
            .unwrap();
            assert!(batch.stopped.is_none());
            for (group, score) in groups.iter().zip(&batch.scores) {
                assert_eq!(
                    score.detected,
                    reference_score(&c, group, faults, 64, 13),
                    "group {group:?} (threads {threads})"
                );
            }
        }
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

    /// Score every node × kind of `c` against a full re-simulation of
    /// the candidate circuit: once in one batch where every site hosts
    /// all four kinds (merged forcing runs), and once spread over four
    /// batches with one kind per site (solo runs), under both base
    /// modes, at one thread and (for the merged batch and one solo
    /// batch) at two. `AssumeUndetected` scores the faults the scoring
    /// stream leaves undetected; `Simulate` scores those another stream
    /// leaves undetected (the from-scratch optimizer's situation), so
    /// some of them are base-detected. Returns the faults the reach
    /// filter kept out of runs.
    fn assert_every_candidate_matches(c: &Circuit, patterns: u64, seed: u64) -> u64 {
        let universe = FaultUniverse::collapsed(c).unwrap();
        let detected_under = |circuit: &Circuit, seed: u64, faults: &[Fault]| -> Vec<bool> {
            let mut sim = FaultSimulator::new(circuit).unwrap();
            let mut src = IndependentPatterns::new(circuit.inputs().len(), seed);
            let run = sim.run(&mut src, patterns, faults).unwrap();
            (0..faults.len())
                .map(|i| run.first_detection(i).is_some())
                .collect()
        };
        let here = detected_under(c, seed, universe.faults());
        let elsewhere = detected_under(c, seed ^ 0x5eed, universe.faults());
        let union: Vec<usize> = (0..universe.len())
            .filter(|&i| !here[i] || !elsewhere[i])
            .collect();
        let union_faults: Vec<Fault> = union.iter().map(|&i| universe.faults()[i]).collect();
        assert!(
            union.iter().any(|&i| !here[i]),
            "{}: needs undetected faults",
            c.name()
        );

        let nodes: Vec<NodeId> = c.node_ids().collect();
        let shared: Vec<Vec<TestPoint>> = nodes
            .iter()
            .flat_map(|&n| {
                TestPointKind::ALL
                    .iter()
                    .map(move |&k| vec![TestPoint::new(n, k)])
            })
            .collect();
        // Per candidate, which union faults the candidate circuit
        // detects (`None` when the point does not apply).
        let reference: HashMap<TestPoint, Option<Vec<bool>>> = shared
            .iter()
            .map(|g| {
                let mut scratch = c.clone();
                let detected = apply_test_point(&mut scratch, g[0])
                    .ok()
                    .map(|_| detected_under(&scratch, seed, &union_faults));
                (g[0], detected)
            })
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
        for mode in [BaseDetections::Simulate, BaseDetections::AssumeUndetected] {
            let member: Vec<bool> = union
                .iter()
                .map(|&i| match mode {
                    BaseDetections::Simulate => !elsewhere[i],
                    BaseDetections::AssumeUndetected => !here[i],
                })
                .collect();
            let faults: Vec<Fault> = union_faults
                .iter()
                .zip(&member)
                .filter(|&(_, &m)| m)
                .map(|(&f, _)| f)
                .collect();
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
                        mode,
                        &control,
                    )
                    .unwrap();
                    assert!(scored.stopped.is_none());
                    for (group, score) in batch.iter().zip(&scored.scores) {
                        let expected = reference[&group[0]].as_ref().map(|detected| {
                            detected
                                .iter()
                                .zip(&member)
                                .filter(|&(&d, &m)| d && m)
                                .count() as u64
                        });
                        assert_eq!(
                            score.detected,
                            expected,
                            "{}: {} ({mode:?}, threads {threads})",
                            c.name(),
                            group[0]
                        );
                    }
                    filtered += scored.faults_filtered;
                }
            }
        }
        filtered
    }

    #[test]
    fn held_blocks_charge_like_the_unfiltered_run() {
        // Split a fault list into simulated and held faults, run the
        // first part and finish the block schedule for the second: under
        // every work budget the pair must stop exactly where a run over
        // the whole list stops, and leave the budget equally spent.
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
        let death = |i: usize| whole.result.first_detection(i).unwrap_or(u64::MAX);
        // Held: every third fault, the hardest ones (which outlive the
        // simulated part), and the easiest ones (which die first).
        let hardest = (0..faults.len()).map(death).max().unwrap();
        let splits: [&dyn Fn(usize) -> bool; 3] =
            [&|i| i % 3 == 0, &|i| death(i) == hardest, &|i| {
                death(i) < 64
            }];
        for held in splits {
            let simulated: Vec<Fault> = (0..faults.len())
                .filter(|&i| !held(i))
                .map(|i| faults[i])
                .collect();
            let hold = (0..faults.len()).filter(|&i| held(i)).map(death).max();
            let budgets = (0..=patterns / 64 + 1).flat_map(|k| [64 * k, 64 * k + 1]);
            for budget in budgets.chain([patterns, patterns + 1]) {
                let alone = RunControl::with_budget(budget);
                let expected = run(faults, &alone);
                let paired = RunControl::with_budget(budget);
                let part = run(&simulated, &paired);
                let mut counters = part.counters;
                let stopped = part.stopped.or_else(|| {
                    charge_held_blocks(counters.blocks, 64, patterns, hold, &paired, &mut counters)
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

    #[test]
    fn assume_undetected_matches_simulate_on_undetected_faults() {
        let c = sample();
        let universe = FaultUniverse::collapsed(&c).unwrap();
        let mut sim = FaultSimulator::new(&c).unwrap();
        let mut src = IndependentPatterns::new(c.inputs().len(), 7);
        let base = sim.run(&mut src, 6, universe.faults()).unwrap();
        let undetected: Vec<Fault> = (0..universe.len())
            .filter(|&i| base.first_detection(i).is_none())
            .map(|i| universe.faults()[i])
            .collect();
        assert!(!undetected.is_empty(), "test needs undetected faults");
        let groups: Vec<Vec<TestPoint>> = c
            .node_ids()
            .flat_map(|n| {
                TestPointKind::ALL
                    .iter()
                    .map(move |&k| vec![TestPoint::new(n, k)])
            })
            .collect();
        let control = RunControl::unlimited();
        let score = |mode| {
            score_candidate_groups(
                &c,
                &undetected,
                &groups,
                6,
                7,
                SimOptions::default(),
                1,
                mode,
                &control,
            )
            .unwrap()
        };
        let assumed = score(BaseDetections::AssumeUndetected);
        let simulated = score(BaseDetections::Simulate);
        for (gi, group) in groups.iter().enumerate() {
            assert_eq!(
                assumed.scores[gi].detected, simulated.scores[gi].detected,
                "group {group:?}"
            );
            assert_eq!(
                assumed.scores[gi].detected,
                reference_score(&c, group, &undetected, 6, 7),
                "group {group:?}"
            );
        }
    }
}
