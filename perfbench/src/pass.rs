//! Passes over a workload's jobs, and the figures read off them.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use krishnamurthy_tpi::obs::{MetricValue, Snapshot};

use crate::job::{self, JobOutput};
use crate::trace::{self_times, Recorder};
use crate::workload::Input;

/// One pass over the workload's jobs.
pub struct Pass {
    /// Whether stages were recorded as spans.
    pub traced: bool,
    /// Wall time of each job, seconds, in input order.
    pub walls: Vec<f64>,
    /// Time of each job in set-up stages, seconds, in input order.
    pub setups: Vec<f64>,
    /// Index range of the pass's spans in the recorder.
    pub spans: (usize, usize),
    /// Outputs of the jobs that passed their checks.
    pub outputs: Vec<JobOutput>,
    /// Jobs that errored, panicked or failed a check.
    pub failed: usize,
    /// FNV-1a of every job's plan summary, in job order.
    pub digest: u64,
}

/// FNV-1a, stable across toolchains (unlike `DefaultHasher`), so two
/// commits' digests compare.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Run every job of `inputs` once, one after another. `next_job` numbers
/// the jobs across passes for the span record.
pub fn run_pass(
    inputs: &[Input],
    threads: usize,
    rec: &mut Recorder,
    traced: bool,
    next_job: &mut u32,
) -> Pass {
    rec.set_traced(traced);
    rec.take_setup();
    let first = rec.span_count();
    let mut outputs = Vec::with_capacity(inputs.len());
    let mut walls = Vec::with_capacity(inputs.len());
    let mut setups = Vec::with_capacity(inputs.len());
    let mut failed = 0;
    let mut digest_text = String::new();
    for input in inputs {
        rec.set_job(*next_job);
        *next_job += 1;
        let span = traced.then(|| rec.open("job"));
        let t0 = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| {
            job::run_job(input.method, &input.name, &input.text, threads, rec)
        }));
        walls.push(t0.elapsed().as_secs_f64());
        setups.push(rec.take_setup().as_secs_f64());
        if let Some(span) = span {
            rec.close(span);
        }
        let verdict = match result {
            Ok(Ok(out)) => job::check(input.method, &out).map(|()| out),
            Ok(Err(e)) => Err(e),
            Err(_) => Err("panicked".to_string()),
        };
        match verdict {
            Ok(out) => {
                digest_text.push_str(&out.digest_line());
                outputs.push(out);
            }
            Err(e) => {
                eprintln!("perfbench: job {} failed: {e}", input.name);
                digest_text.push_str("failed");
                failed += 1;
            }
        }
        digest_text.push('\n');
    }
    Pass {
        traced,
        walls,
        setups,
        spans: (first, rec.span_count()),
        outputs,
        failed,
        digest: fnv1a(&digest_text),
    }
}

/// The sum over jobs of each job's least time over `passes`: interference
/// from other processes only ever adds time, so the least-disturbed
/// repetition of each job is the steadiest estimate of the program's own
/// cost.
pub fn best_total(passes: &[&Pass], per_job: impl Fn(&Pass) -> &[f64]) -> f64 {
    let Some(first) = passes.first() else {
        return 0.0;
    };
    (0..per_job(first).len())
        .map(|j| {
            passes
                .iter()
                .map(|p| per_job(p)[j])
                .fold(f64::INFINITY, f64::min)
        })
        .sum()
}

/// Median (0 for no values).
pub fn median(mut values: Vec<f64>) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// `num / den`, or 0 when nothing was attempted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Sum of a microsecond histogram, in seconds.
fn hist_s(snap: &Snapshot, name: &str) -> f64 {
    match snap.get(name) {
        Some(MetricValue::Histogram(h)) => h.sum as f64 / 1e6,
        _ => 0.0,
    }
}

/// Plan-quality figures of one pass (identical in every pass of a run).
pub fn quality(outputs: &[JobOutput]) -> BTreeMap<String, f64> {
    let coverage: Vec<f64> = outputs.iter().filter_map(|o| o.coverage_pct).collect();
    let (met, all) = outputs
        .iter()
        .filter_map(|o| o.targets)
        .fold((0, 0), |(m, a), (om, oa)| (m + om, a + oa));
    let (before, after) = outputs
        .iter()
        .filter_map(|o| o.patterns)
        .fold((0, 0), |(b, a), (ob, oa)| (b + ob, a + oa));
    BTreeMap::from([
        (
            "plan.cost".into(),
            outputs.iter().map(|o| o.cost).fold(0.0, |a, b| a + b),
        ),
        (
            "plan.points".into(),
            outputs.iter().map(|o| o.points.len()).sum::<usize>() as f64,
        ),
        (
            "plan.coverage_pct".into(),
            ratio(coverage.iter().sum(), coverage.len() as f64),
        ),
        (
            "plan.targets_met_pct".into(),
            100.0 * ratio(met as f64, all as f64),
        ),
        ("plan.patterns_before".into(), before as f64),
        ("plan.patterns_after".into(), after as f64),
    ])
}

/// Per-layer figures of one traced pass: span self times, and the
/// counters and histograms the program published into each job's
/// registry.
pub fn layers(pass: &Pass, rec: &Recorder) -> BTreeMap<String, f64> {
    let (from, to) = pass.spans;
    let spans = &rec.spans()[from..to];
    let own = self_times(spans, from);
    let span_s = |name: &str| own.get(name).copied().unwrap_or(0.0);
    let snap = pass
        .outputs
        .iter()
        .filter_map(|o| o.snapshot.as_ref())
        .fold(Snapshot::new(), |acc, s| acc.merge(s));
    let c = |name: &str| snap.counter(name).unwrap_or(0) as f64;
    let jobs_wall: f64 = spans
        .iter()
        .filter(|s| s.name == "job")
        .map(|s| s.duration().as_secs_f64())
        .sum();

    let mut m = BTreeMap::new();
    let mut put = |k: &str, v: f64| {
        m.insert(k.to_string(), v);
    };
    for (metric, span) in [
        ("netlist.parse_s", "netlist.parse"),
        ("netlist.topology_s", "netlist.topology"),
        ("netlist.apply_plan_s", "netlist.apply_plan"),
        ("testability.problem_s", "testability.problem"),
        ("core.dp_s", "core.dp"),
        ("core.greedy_s", "core.greedy"),
        ("core.report_s", "core.report"),
        ("sim.universe_s", "sim.universe"),
        ("sim.verify_s", "sim.verify"),
        ("engine.open_s", "engine.open"),
        ("engine.optimize_s", "engine.optimize"),
        ("atpg.cube_set_s", "atpg.cube_set"),
        (
            "compaction.optimize_patterns_s",
            "compaction.optimize_patterns",
        ),
    ] {
        put(metric, span_s(span));
    }
    // The engine and the pattern search time their own internals into
    // histograms; the remainders are what no timer covers.
    let full = hist_s(&snap, "engine.full_sim_us");
    let incremental = hist_s(&snap, "engine.incremental_sim_us");
    let candidate_eval = hist_s(&snap, "search.candidate_eval_us");
    let probe = hist_s(&snap, "compaction.probe_us");
    let conflict = hist_s(&snap, "compaction.conflict_us");
    put("engine.full_sim_s", full);
    put("engine.incremental_sim_s", incremental);
    put("sim.candidate_eval_s", candidate_eval);
    let optimize = span_s("engine.optimize");
    put(
        "engine.optimize_other_s",
        if optimize > 0.0 {
            optimize - full - incremental - candidate_eval
        } else {
            0.0
        },
    );
    put("compaction.probe_s", probe);
    put("compaction.conflict_s", conflict);
    let search = span_s("compaction.optimize_patterns");
    put(
        "compaction.other_s",
        if search > 0.0 {
            search - probe - conflict
        } else {
            0.0
        },
    );

    put("sim.candidates_evaluated", c("search.candidates_evaluated"));
    put("sim.events", c("sim.events"));
    put("sim.pattern_lanes", c("sim.pattern_lanes"));
    put("sim.faults_dropped", c("sim.faults_dropped"));
    put("engine.analysis_rebuilds", c("engine.analysis_rebuilds"));
    let lookups = c("engine.memo_hits") + c("engine.memo_misses");
    put("engine.memo_lookups", lookups);
    put(
        "engine.memo_hit_ratio",
        ratio(c("engine.memo_hits"), lookups),
    );
    let considered = c("engine.faults_resimulated") + c("engine.faults_skipped");
    put("engine.resim_faults", considered);
    put(
        "engine.resim_ratio",
        ratio(c("engine.faults_resimulated"), considered),
    );
    let cubes = c("atpg.cubes_generated");
    put("atpg.cubes_generated", cubes);
    put("atpg.backtracks", c("atpg.backtracks"));
    put("atpg.aborted_faults", c("atpg.aborted_faults"));
    put(
        "atpg.cubes_per_s",
        ratio(cubes, span_s("atpg.cube_set") + probe),
    );
    let probes = c("compaction.probes");
    let commits: usize = pass
        .outputs
        .iter()
        .filter(|o| o.patterns.is_some())
        .map(|o| o.points.len())
        .sum();
    put("compaction.probes", probes);
    put("compaction.commits", commits as f64);
    put("compaction.commit_ratio", ratio(commits as f64, probes));
    let dp: Vec<_> = pass.outputs.iter().filter_map(|o| o.dp_stats).collect();
    put(
        "core.dp_states",
        dp.iter().map(|s| s.states_created).sum::<usize>() as f64,
    );
    put(
        "core.dp_max_frontier",
        dp.iter().map(|s| s.max_frontier).max().unwrap_or(0) as f64,
    );
    // The topology probe is measurement-only work, not tracing overhead.
    put(
        "trace.traced_wall_s",
        jobs_wall - span_s("netlist.topology"),
    );
    m
}
