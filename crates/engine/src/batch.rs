//! The batch job runner behind `tpi batch`.
//!
//! A *manifest* is a JSON document naming N circuits × M configurations;
//! the runner executes every job across a worker pool and emits one JSON
//! line per job (JSONL) in job order. A job that errors, panics or
//! overruns its timeout is reported as such — it never aborts the
//! remaining jobs.
//!
//! ```json
//! {
//!   "workers": 4,
//!   "jobs": [
//!     {"circuit": "c17.bench", "method": "optimize",
//!      "threshold_log2": -8, "patterns": 4096, "max_rounds": 8,
//!      "seed": 7, "timeout_ms": 60000},
//!     {"circuit": "c17.bench", "method": "simulate", "patterns": 1024}
//!   ]
//! }
//! ```
//!
//! `method` is `"optimize"` (default; the engine's constructive loop) or
//! `"simulate"` (coverage measurement only). Relative circuit paths are
//! resolved against the manifest's directory. The `"selftest-panic"`,
//! `"selftest-sleep"` and `"selftest-flaky"` methods panic / stall /
//! fail-once on purpose, so the pool's isolation, timeout and retry
//! paths stay testable end to end.
//!
//! # Cancellation, timeouts and resume
//!
//! Every job runs under a [`RunControl`] token: a child of the
//! batch-global token ([`BatchOptions::control`]) carrying the job's
//! own deadline. A job that overruns its `timeout_ms` is *cooperatively
//! cancelled* — the worker observes the token at its next poll, exits,
//! and is joined (never detached while responsive), so a timed-out job
//! stops consuming CPU within one poll interval. The per-job status
//! distinguishes `"timeout"` (the job's own deadline) from
//! `"cancelled"` (the batch-global token fired); each line records
//! whether the worker actually exited (`"worker_exited"`).
//!
//! Jobs that fail transiently (`"error"` / `"panic"`) are retried up to
//! [`BatchOptions::retries`] times with exponential backoff; timeouts
//! and cancellations are not retried. Output lines are flushed in job
//! order as soon as their prefix completes, so a killed batch leaves a
//! valid JSONL checkpoint; [`completed_scan`] recovers the successfully
//! finished jobs from it (deduplicating crash-then-append artifacts)
//! and [`BatchOptions::skip`] makes a resumed run skip (and not
//! re-execute) exactly those. The on-disk checkpoint/summary formats —
//! the versioned header line, torn-tail recovery, the crash-safe
//! [`CheckpointWriter`](crate::schema::CheckpointWriter) and the
//! cross-process shard merge — live in [`crate::schema`].

use std::collections::BTreeSet;
use std::panic::AssertUnwindSafe;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use tpi_core::Threshold;
use tpi_netlist::bench_format::parse_bench;
use tpi_obs::Registry;
use tpi_sim::{RunControl, StopReason};

use crate::json::Json;
use crate::{EngineConfig, OptimizeConfig, TpiEngine};

/// How long after a job's deadline the pool waits for the worker to
/// observe its token and exit before giving up and detaching it. Covers
/// one poll interval (a fault-sim block or a DP chunk) with a wide
/// margin.
const COOPERATIVE_GRACE: Duration = Duration::from_millis(2_000);

/// One job, fully resolved from the manifest.
#[derive(Clone, Debug)]
pub struct JobSpec {
    /// Job index in manifest order.
    pub index: usize,
    /// Path of the `.bench` circuit.
    pub circuit: PathBuf,
    /// `optimize`, `simulate`, `selftest-panic`, `selftest-sleep` or
    /// `selftest-flaky`.
    pub method: String,
    /// Objective of an `optimize` job: `coverage` (default) or
    /// `patterns` (compacted pattern-count reduction).
    pub objective: String,
    /// Threshold exponent for `optimize` (δ = 2^x).
    pub threshold_log2: f64,
    /// Measurement pattern budget.
    pub patterns: u64,
    /// Round limit for `optimize`.
    pub max_rounds: usize,
    /// Pattern seed.
    pub seed: u64,
    /// Per-job wall-clock limit.
    pub timeout_ms: u64,
}

/// Totals of a finished batch, one counter per terminal job status.
///
/// Earlier versions lumped every non-`ok` status into one `failed`
/// field, which made a timed-out batch indistinguishable from a broken
/// one in the summary; the split keeps each exit class countable.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BatchSummary {
    /// Jobs that completed and reported a result.
    pub ok: usize,
    /// Jobs whose body failed (bad circuit, I/O error, engine error).
    pub error: usize,
    /// Jobs whose worker panicked (after exhausting retries).
    pub panic: usize,
    /// Jobs that overran their own deadline or work budget.
    pub timeout: usize,
    /// Jobs stopped by the batch-global cancellation token.
    pub cancelled: usize,
    /// Jobs skipped because a resumed output already holds their result.
    pub skipped: usize,
    /// Wall clock of the whole batch, milliseconds.
    pub elapsed_ms: u64,
}

impl BatchSummary {
    /// Jobs that did not complete, for any reason.
    pub fn failed(&self) -> usize {
        self.error + self.panic + self.timeout + self.cancelled
    }

    /// The summary as a JSON object (the final line `tpi batch` prints),
    /// versioned with [`crate::schema::FORMAT_VERSION`].
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("summary", Json::from(true)),
            ("format_version", Json::from(crate::schema::FORMAT_VERSION)),
            ("ok", Json::from(self.ok)),
            ("error", Json::from(self.error)),
            ("panic", Json::from(self.panic)),
            ("timeout", Json::from(self.timeout)),
            ("cancelled", Json::from(self.cancelled)),
            ("skipped", Json::from(self.skipped)),
            ("elapsed_ms", Json::from(self.elapsed_ms)),
        ])
    }

    pub(crate) fn count(&mut self, status: &str) {
        match status {
            "ok" => self.ok += 1,
            "panic" => self.panic += 1,
            "timeout" => self.timeout += 1,
            "cancelled" => self.cancelled += 1,
            _ => self.error += 1,
        }
    }
}

/// Pool-level options for [`run_jobs_with`].
#[derive(Clone, Debug, Default)]
pub struct BatchOptions {
    /// Worker threads (0 = the machine's available parallelism).
    pub workers: usize,
    /// Retries per job after a transient failure (`error`/`panic`);
    /// timeouts and cancellations are never retried.
    pub retries: usize,
    /// Job indices to skip (resume): no execution, no output line.
    pub skip: Vec<usize>,
    /// Batch-global cancellation token; every job token is its child,
    /// so one [`RunControl::cancel`] drains the whole pool (running
    /// jobs report `"cancelled"`, unstarted jobs are not run).
    pub control: RunControl,
    /// Metrics sink: per-job wall clock (`batch.job_ms`), queue wait
    /// (`batch.queue_wait_ms`), retry count (`batch.retries`) and
    /// per-status counters (`batch.status.*`). `None` records nothing.
    pub registry: Option<Arc<Registry>>,
}

/// Parse a manifest document into job specs.
///
/// # Errors
///
/// A description of the first malformed field.
pub fn parse_manifest(manifest: &Json, base_dir: &Path) -> Result<(usize, Vec<JobSpec>), String> {
    let workers = manifest
        .get("workers")
        .map(|w| w.as_u64().ok_or("'workers' must be a non-negative integer"))
        .transpose()?
        .unwrap_or(0) as usize;
    let jobs = manifest
        .get("jobs")
        .and_then(Json::as_arr)
        .ok_or("manifest needs a 'jobs' array")?;
    let mut specs = Vec::with_capacity(jobs.len());
    for (index, job) in jobs.iter().enumerate() {
        let circuit = job
            .get("circuit")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("job {index}: missing 'circuit'"))?;
        let circuit = if Path::new(circuit).is_absolute() {
            PathBuf::from(circuit)
        } else {
            base_dir.join(circuit)
        };
        let method = job
            .get("method")
            .and_then(Json::as_str)
            .unwrap_or("optimize")
            .to_string();
        if !matches!(
            method.as_str(),
            "optimize" | "simulate" | "selftest-panic" | "selftest-sleep" | "selftest-flaky"
        ) {
            return Err(format!("job {index}: unknown method '{method}'"));
        }
        let objective = job
            .get("objective")
            .and_then(Json::as_str)
            .unwrap_or("coverage")
            .to_string();
        if !matches!(objective.as_str(), "coverage" | "patterns") {
            return Err(format!("job {index}: unknown objective '{objective}'"));
        }
        let threshold_log2 = job
            .get("threshold_log2")
            .and_then(Json::as_f64)
            .unwrap_or(-10.0);
        Threshold::try_from_log2(threshold_log2).map_err(|e| format!("job {index}: {e}"))?;
        specs.push(JobSpec {
            index,
            circuit,
            method,
            objective,
            threshold_log2,
            patterns: job.get("patterns").and_then(Json::as_u64).unwrap_or(4096),
            max_rounds: job.get("max_rounds").and_then(Json::as_u64).unwrap_or(8) as usize,
            seed: job.get("seed").and_then(Json::as_u64).unwrap_or(0xDAC_1987),
            timeout_ms: job
                .get("timeout_ms")
                .and_then(Json::as_u64)
                .unwrap_or(60_000),
        });
    }
    Ok((workers, specs))
}

/// What [`completed_scan`] found while recovering a checkpoint, beyond
/// the completed set itself. Crash-then-append can duplicate a job's
/// line, and a checkpoint from a different (larger) manifest can carry
/// out-of-range indices; both are recovered from — deduplicated /
/// dropped — but counted here so callers warn instead of silently
/// double-skipping.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CompletedScan {
    /// Job indices whose last line is `"status": "ok"` — the set a
    /// resumed run skips. Sorted, deduplicated, in range.
    pub indices: Vec<usize>,
    /// `"ok"` lines for an index that was already marked completed.
    pub duplicates: usize,
    /// Lines whose job index is ≥ the manifest's job count; dropped.
    pub out_of_range: usize,
}

/// Scans parsed checkpoint lines for completed jobs: later lines win
/// over earlier ones for the same index (a resumed run appends), lines
/// without a job index are ignored, duplicate completions are
/// deduplicated and indices outside `0..total_jobs` are dropped — both
/// counted in the returned [`CompletedScan`].
pub fn completed_scan(lines: &[Json], total_jobs: usize) -> CompletedScan {
    let mut scan = CompletedScan::default();
    let mut done: BTreeSet<usize> = BTreeSet::new();
    for line in lines {
        let Some(index) = line.get("job").and_then(Json::as_u64) else {
            continue;
        };
        let index = index as usize;
        if index >= total_jobs {
            scan.out_of_range += 1;
            continue;
        }
        if line.get("status").and_then(Json::as_str) == Some("ok") {
            if !done.insert(index) {
                scan.duplicates += 1;
            }
        } else {
            done.remove(&index);
        }
    }
    scan.indices = done.into_iter().collect();
    scan
}

/// Job indices holding a `"status": "ok"` line in an existing JSONL
/// output — the set a resumed run skips. Later lines win over earlier
/// ones for the same index (a resumed run appends), and unparsable
/// lines are ignored. Compatibility wrapper over [`completed_scan`]
/// with no range bound; callers that know the manifest size should use
/// [`completed_scan`] and surface its duplicate/out-of-range counts.
pub fn completed_indices(jsonl: &str) -> Vec<usize> {
    let lines: Vec<Json> = jsonl.lines().filter_map(|l| Json::parse(l).ok()).collect();
    completed_scan(&lines, usize::MAX).indices
}

/// Run every job of a parsed manifest across `workers` threads (0 = the
/// machine's available parallelism) and write one JSONL line per job, in
/// job order, to `out`.
///
/// Compatibility wrapper over [`run_jobs_with`] with default options
/// (no retries, no skips, no batch-global token); output is buffered
/// and written at the end, so `out` need not be [`Send`].
///
/// # Errors
///
/// Only I/O failures on `out`; job-level failures land in their JSONL
/// lines.
pub fn run_jobs(
    workers: usize,
    specs: &[JobSpec],
    out: &mut dyn std::io::Write,
) -> Result<BatchSummary, std::io::Error> {
    let opts = BatchOptions {
        workers,
        ..BatchOptions::default()
    };
    let mut buffer = Vec::new();
    let summary = run_jobs_with(&opts, specs, &mut buffer)?;
    out.write_all(&buffer)?;
    Ok(summary)
}

/// [`run_jobs`] with explicit [`BatchOptions`] and streaming output:
/// each line is written as soon as every earlier job's line is, so an
/// interrupted batch leaves a resumable JSONL prefix. Skipped jobs
/// (resume) produce no line — the pre-existing output already holds
/// theirs.
///
/// # Errors
///
/// Only I/O failures on `out`; job-level failures land in their JSONL
/// lines.
pub fn run_jobs_with(
    opts: &BatchOptions,
    specs: &[JobSpec],
    out: &mut (dyn std::io::Write + Send),
) -> Result<BatchSummary, std::io::Error> {
    let batch_started = Instant::now();
    let workers = if opts.workers == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        opts.workers
    }
    .min(specs.len().max(1));
    let skip: BTreeSet<usize> = opts.skip.iter().copied().collect();

    enum Slot {
        Pending,
        Skipped,
        Done(Json),
        Flushed,
    }
    struct Stream<'a> {
        slots: Vec<Slot>,
        next: usize,
        out: &'a mut (dyn std::io::Write + Send),
        io_error: Option<std::io::Error>,
    }
    impl Stream<'_> {
        /// Write the contiguous prefix of finished lines (skips emit
        /// nothing), then flush the sink once per extended prefix — a
        /// [`crate::schema::CheckpointWriter`] fsyncs on that flush, so
        /// each round boundary is durable. I/O errors are latched;
        /// workers keep finishing.
        fn flush_ready(&mut self) {
            let mut wrote = false;
            while let Some(slot) = self.slots.get_mut(self.next) {
                match std::mem::replace(slot, Slot::Flushed) {
                    Slot::Pending => {
                        *slot = Slot::Pending;
                        break;
                    }
                    Slot::Skipped | Slot::Flushed => {}
                    Slot::Done(line) => {
                        if self.io_error.is_none() {
                            if let Err(e) = writeln!(self.out, "{line}") {
                                self.io_error = Some(e);
                            }
                            wrote = true;
                        }
                    }
                }
                self.next += 1;
            }
            if wrote && self.io_error.is_none() {
                if let Err(e) = self.out.flush() {
                    self.io_error = Some(e);
                }
            }
        }
    }

    let mut slots: Vec<Slot> = specs
        .iter()
        .map(|s| {
            if skip.contains(&s.index) {
                Slot::Skipped
            } else {
                Slot::Pending
            }
        })
        .collect();
    let mut summary = BatchSummary {
        skipped: specs.iter().filter(|s| skip.contains(&s.index)).count(),
        ..BatchSummary::default()
    };

    let next_job = AtomicUsize::new(0);
    let stream = Mutex::new(Stream {
        slots: std::mem::take(&mut slots),
        next: 0,
        out,
        io_error: None,
    });
    let statuses: Mutex<Vec<Option<String>>> = Mutex::new(vec![None; specs.len()]);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next_job.fetch_add(1, Ordering::Relaxed);
                let Some(spec) = specs.get(i) else { break };
                if skip.contains(&spec.index) {
                    continue;
                }
                if let Some(reg) = &opts.registry {
                    // Queue wait: batch start to this job's first attempt.
                    reg.histogram("batch.queue_wait_ms")
                        .record(batch_started.elapsed().as_millis() as u64);
                }
                let line = if opts.control.is_cancelled() {
                    // The batch was cancelled before this job started.
                    cancelled_line(spec)
                } else {
                    run_job_isolated(spec, &opts.control, opts.retries)
                };
                let status = line
                    .get("status")
                    .and_then(Json::as_str)
                    .unwrap_or("error")
                    .to_string();
                if let Some(reg) = &opts.registry {
                    if let Some(millis) = line.get("millis").and_then(Json::as_u64) {
                        reg.histogram("batch.job_ms").record(millis);
                    }
                    let attempts = line.get("attempts").and_then(Json::as_u64).unwrap_or(1);
                    reg.counter("batch.retries").add(attempts.saturating_sub(1));
                    reg.counter(&format!("batch.status.{status}")).inc();
                }
                statuses.lock().expect("no poisoned locks")[i] = Some(status);
                let mut stream = stream.lock().expect("no poisoned locks");
                stream.slots[i] = Slot::Done(line);
                stream.flush_ready();
            });
        }
    });

    let mut stream = stream.into_inner().expect("no poisoned locks");
    stream.flush_ready();
    if let Some(e) = stream.io_error {
        return Err(e);
    }
    for status in statuses.into_inner().expect("no poisoned locks") {
        if let Some(status) = status.as_deref() {
            summary.count(status);
        }
    }
    summary.elapsed_ms = batch_started.elapsed().as_millis() as u64;
    Ok(summary)
}

/// What one attempt of a job's body reports back.
enum JobOutcome {
    Ok(Json),
    Error(String),
    /// The job's [`RunControl`] token fired; `partial` carries any
    /// anytime result (an interrupted optimize's prefix plan).
    Interrupted {
        reason: StopReason,
        partial: Option<Json>,
    },
}

/// Execute one job under the batch-global token, retrying transient
/// failures, translating panics and deadline overruns into reported
/// statuses instead of letting them take the pool down. The worker
/// thread is *joined* whenever it responds within the cooperative grace
/// window; only a worker stuck outside any polling loop is detached
/// (reported via `"worker_exited": false`).
fn run_job_isolated(spec: &JobSpec, batch: &RunControl, retries: usize) -> Json {
    let started = Instant::now();
    let mut attempt = 0usize;
    loop {
        attempt += 1;
        let line = run_job_attempt(spec, batch, started, attempt);
        let status = line.get("status").and_then(Json::as_str).unwrap_or("ok");
        let transient = matches!(status, "error" | "panic");
        if !transient || attempt > retries || batch.is_cancelled() {
            return line;
        }
        // Exponential backoff: 10, 20, 40, ... ms.
        std::thread::sleep(Duration::from_millis(10u64 << (attempt - 1).min(6)));
    }
}

fn run_job_attempt(spec: &JobSpec, batch: &RunControl, started: Instant, attempt: usize) -> Json {
    let control = batch.child_with_deadline(Some(Duration::from_millis(spec.timeout_ms)));
    let (tx, rx) = mpsc::channel();
    let spec_for_worker = spec.clone();
    let worker_control = control.clone();
    let spawned = std::thread::Builder::new()
        .name(format!("tpi-batch-job-{}", spec.index))
        .spawn(move || {
            let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
                run_job(&spec_for_worker, &worker_control)
            }));
            let _ = tx.send(outcome);
        });
    let Ok(handle) = spawned else {
        return finish_line(
            spec,
            started,
            attempt,
            true,
            JobOutcome::Error("failed to spawn worker thread".to_string()),
        );
    };

    let received = rx
        .recv_timeout(Duration::from_millis(spec.timeout_ms))
        .or_else(|_| {
            // Deadline passed: the worker's token (created before this
            // wait began) has already expired on its own — no cancel()
            // needed, which would misreport the reason as "cancelled".
            // Give the worker one grace window to poll, unwind and send.
            rx.recv_timeout(COOPERATIVE_GRACE)
        });
    match received {
        Ok(outcome) => {
            handle.join().ok(); // the worker already sent; join is immediate
            let outcome = match outcome {
                Ok(outcome) => outcome,
                Err(panic) => {
                    let message = panic
                        .downcast_ref::<&str>()
                        .map(|s| (*s).to_string())
                        .or_else(|| panic.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "worker panicked".to_string());
                    let mut line =
                        finish_line(spec, started, attempt, true, JobOutcome::Error(message));
                    if let Json::Obj(map) = &mut line {
                        map.insert("status".to_string(), Json::from("panic"));
                    }
                    return line;
                }
            };
            finish_line(spec, started, attempt, true, outcome)
        }
        Err(_) => {
            // The worker ignored its token for a full grace window —
            // stuck outside any polling loop. Detaching is the last
            // resort; the line records that the thread leaked.
            finish_line(
                spec,
                started,
                attempt,
                false,
                JobOutcome::Interrupted {
                    reason: StopReason::DeadlineExpired,
                    partial: None,
                },
            )
        }
    }
}

/// The line for a job the batch-global cancel reached before it started.
fn cancelled_line(spec: &JobSpec) -> Json {
    let mut line = base_line(spec, Duration::ZERO, 0, true);
    if let Json::Obj(map) = &mut line {
        map.insert("status".to_string(), Json::from("cancelled"));
        map.insert("error".to_string(), Json::from("batch cancelled"));
    }
    line
}

fn base_line(spec: &JobSpec, elapsed: Duration, attempts: usize, worker_exited: bool) -> Json {
    Json::obj([
        ("job", Json::from(spec.index)),
        ("circuit", Json::from(spec.circuit.display().to_string())),
        ("method", Json::from(spec.method.as_str())),
        ("millis", Json::from(elapsed.as_millis() as u64)),
        ("attempts", Json::from(attempts)),
        ("worker_exited", Json::from(worker_exited)),
    ])
}

fn finish_line(
    spec: &JobSpec,
    started: Instant,
    attempt: usize,
    worker_exited: bool,
    outcome: JobOutcome,
) -> Json {
    let mut line = base_line(spec, started.elapsed(), attempt, worker_exited);
    let Json::Obj(map) = &mut line else {
        unreachable!("Json::obj returns an object")
    };
    match outcome {
        JobOutcome::Ok(Json::Obj(fields)) => {
            map.insert("status".to_string(), Json::from("ok"));
            map.extend(fields);
        }
        JobOutcome::Ok(other) => {
            map.insert("status".to_string(), Json::from("ok"));
            map.insert("result".to_string(), other);
        }
        JobOutcome::Error(message) => {
            map.insert("status".to_string(), Json::from("error"));
            map.insert("error".to_string(), Json::from(message));
        }
        JobOutcome::Interrupted { reason, partial } => {
            let status = match reason {
                StopReason::Cancelled => "cancelled",
                StopReason::DeadlineExpired | StopReason::BudgetExhausted => "timeout",
            };
            map.insert("status".to_string(), Json::from(status));
            map.insert("error".to_string(), Json::from(reason.to_string()));
            if let Some(Json::Obj(fields)) = partial {
                map.insert("partial".to_string(), Json::from(true));
                map.extend(fields);
            }
        }
    }
    line
}

/// The job body proper (runs inside the isolated worker thread, under
/// the job's own [`RunControl`] token).
fn run_job(spec: &JobSpec, control: &RunControl) -> JobOutcome {
    match spec.method.as_str() {
        "selftest-panic" => panic!("selftest-panic job requested a panic"),
        "selftest-sleep" => {
            // Out-sleep any configured timeout — but observe the token,
            // so the sleeper exits within one poll interval instead of
            // outliving the batch (the pre-cancellation thread leak).
            let total = Duration::from_millis(spec.timeout_ms.saturating_add(60_000));
            let slept_from = Instant::now();
            while slept_from.elapsed() < total {
                if let Some(reason) = control.poll() {
                    return JobOutcome::Interrupted {
                        reason,
                        partial: None,
                    };
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            JobOutcome::Ok(Json::obj([("slept", Json::from(true))]))
        }
        "selftest-flaky" => {
            // Deterministic transient failure: the first attempt drops a
            // marker file next to the circuit and errors; any later
            // attempt sees the marker and succeeds. Exercises the
            // retry-with-backoff path end to end.
            let marker = spec.circuit.with_extension("flaky-marker");
            if marker.exists() {
                JobOutcome::Ok(Json::obj([("recovered", Json::from(true))]))
            } else {
                match std::fs::write(&marker, b"flaky") {
                    Ok(()) => JobOutcome::Error("selftest-flaky first attempt fails".to_string()),
                    Err(e) => JobOutcome::Error(format!("selftest-flaky marker: {e}")),
                }
            }
        }
        _ => run_engine_job(spec, control),
    }
}

fn run_engine_job(spec: &JobSpec, control: &RunControl) -> JobOutcome {
    let text = match std::fs::read_to_string(&spec.circuit) {
        Ok(text) => text,
        Err(e) => return JobOutcome::Error(format!("read {}: {e}", spec.circuit.display())),
    };
    let circuit = match parse_bench(&text) {
        Ok(circuit) => circuit,
        Err(e) => return JobOutcome::Error(format!("parse: {e}")),
    };
    let engine = TpiEngine::new(
        circuit,
        EngineConfig {
            patterns: spec.patterns,
            seed: spec.seed,
            ..EngineConfig::default()
        },
    );
    let mut engine = match engine {
        Ok(engine) => engine,
        Err(e) => return JobOutcome::Error(format!("engine: {e}")),
    };
    engine.set_control(control.clone());
    match spec.method.as_str() {
        "simulate" => match engine.simulate() {
            Ok(result) => JobOutcome::Ok(Json::obj([
                ("coverage", Json::from(result.coverage())),
                ("faults", Json::from(result.fault_count())),
                ("detected", Json::from(result.detected_count())),
                ("patterns", Json::from(result.patterns_applied())),
            ])),
            Err(tpi_core::TpiError::Interrupted { reason }) => JobOutcome::Interrupted {
                reason,
                partial: None,
            },
            Err(e) => JobOutcome::Error(format!("simulate: {e}")),
        },
        "optimize" if spec.objective == "patterns" => {
            // The pattern-count objective: one committed point per round,
            // so the manifest's round limit caps the plan size.
            let cfg = tpi_compaction::PatternsConfig {
                max_points: spec.max_rounds,
                ..tpi_compaction::PatternsConfig::default()
            };
            let outcome = match engine.optimize_patterns(&cfg) {
                Ok(outcome) => outcome,
                Err(e) => return JobOutcome::Error(format!("optimize: {e}")),
            };
            let fields = Json::obj([
                ("objective", Json::from("patterns")),
                ("patterns_before", Json::from(outcome.patterns_before)),
                ("patterns_after", Json::from(outcome.patterns_after)),
                ("cubes", Json::from(outcome.cubes_before)),
                ("conflicts", Json::from(outcome.conflicts_before)),
                ("points", Json::from(outcome.plan.len())),
                ("cost", Json::from(outcome.plan.cost())),
                ("rounds", Json::from(outcome.rounds.len())),
            ]);
            match outcome.interrupted {
                None => JobOutcome::Ok(fields),
                Some(reason) => JobOutcome::Interrupted {
                    reason,
                    partial: Some(fields),
                },
            }
        }
        "optimize" => {
            let cfg = OptimizeConfig {
                max_rounds: spec.max_rounds,
                ..OptimizeConfig::default()
            };
            let outcome = match Threshold::try_from_log2(spec.threshold_log2)
                .and_then(|threshold| engine.optimize(threshold, &cfg))
            {
                Ok(outcome) => outcome,
                Err(e) => return JobOutcome::Error(format!("optimize: {e}")),
            };
            let fields = Json::obj([
                ("coverage", Json::from(outcome.final_coverage)),
                (
                    "baseline_coverage",
                    Json::from(outcome.rounds.first().map_or(0.0, |r| r.coverage)),
                ),
                ("points", Json::from(outcome.plan.len())),
                ("cost", Json::from(outcome.plan.cost())),
                ("rounds", Json::from(outcome.rounds.len())),
            ]);
            match outcome.interrupted {
                None => JobOutcome::Ok(fields),
                Some(reason) => JobOutcome::Interrupted {
                    reason,
                    partial: Some(fields),
                },
            }
        }
        other => JobOutcome::Error(format!("unknown method '{other}'")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write_bench(dir: &Path, name: &str) -> PathBuf {
        let path = dir.join(name);
        std::fs::write(
            &path,
            "INPUT(a)\nINPUT(b)\nINPUT(c)\nINPUT(d)\n\
             g0 = AND(a, b)\ng1 = AND(c, d)\ny = AND(g0, g1)\nOUTPUT(y)\n",
        )
        .unwrap();
        path
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("tpi-batch-test-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn failing_jobs_do_not_abort_the_batch() {
        let dir = temp_dir("isolation");
        write_bench(&dir, "ok.bench");
        let manifest = Json::parse(
            r#"{
              "workers": 2,
              "jobs": [
                {"circuit": "ok.bench", "method": "simulate", "patterns": 256},
                {"circuit": "missing.bench", "method": "simulate"},
                {"circuit": "ok.bench", "method": "selftest-panic", "timeout_ms": 30000},
                {"circuit": "ok.bench", "method": "optimize",
                 "threshold_log2": -4, "patterns": 256, "max_rounds": 2}
              ]
            }"#,
        )
        .unwrap();
        let (workers, specs) = parse_manifest(&manifest, &dir).unwrap();
        let mut out = Vec::new();
        let summary = run_jobs(workers, &specs, &mut out).unwrap();
        assert_eq!(summary.ok, 2, "{}", String::from_utf8_lossy(&out));
        assert_eq!(summary.failed(), 2);
        assert_eq!(summary.error, 1);
        assert_eq!(summary.panic, 1);
        assert_eq!(summary.skipped, 0);

        let lines: Vec<Json> = String::from_utf8(out)
            .unwrap()
            .lines()
            .map(|l| Json::parse(l).unwrap())
            .collect();
        assert_eq!(lines.len(), 4);
        // JSONL comes back in job order regardless of completion order.
        for (i, line) in lines.iter().enumerate() {
            assert_eq!(line.get("job").unwrap().as_u64(), Some(i as u64));
            assert_eq!(line.get("worker_exited").unwrap().as_bool(), Some(true));
        }
        assert_eq!(lines[0].get("status").unwrap().as_str(), Some("ok"));
        assert_eq!(lines[1].get("status").unwrap().as_str(), Some("error"));
        assert_eq!(lines[2].get("status").unwrap().as_str(), Some("panic"));
        assert_eq!(lines[3].get("status").unwrap().as_str(), Some("ok"));
        assert!(lines[3].get("coverage").unwrap().as_f64().unwrap() > 0.0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn manifest_validation() {
        assert!(parse_manifest(&Json::parse("{}").unwrap(), Path::new(".")).is_err());
        let bad_method =
            Json::parse(r#"{"jobs":[{"circuit":"x.bench","method":"frobnicate"}]}"#).unwrap();
        assert!(parse_manifest(&bad_method, Path::new(".")).is_err());
        let no_circuit = Json::parse(r#"{"jobs":[{"method":"simulate"}]}"#).unwrap();
        assert!(parse_manifest(&no_circuit, Path::new(".")).is_err());
        let bad_objective =
            Json::parse(r#"{"jobs":[{"circuit":"x.bench","objective":"zeal"}]}"#).unwrap();
        assert!(parse_manifest(&bad_objective, Path::new(".")).is_err());
    }

    #[test]
    fn manifest_refuses_thresholds_outside_the_unit_interval() {
        // δ = 2^3 > 1 and δ = 2^-5000 = 0 are parse errors naming the
        // job, not a panic (or a vacuous δ = 0 run) inside a worker.
        for exponent in ["3", "-5000"] {
            let manifest = Json::parse(&format!(
                r#"{{"jobs":[{{"circuit":"a.bench"}},
                   {{"circuit":"b.bench","threshold_log2":{exponent}}}]}}"#
            ))
            .unwrap();
            let message = parse_manifest(&manifest, Path::new(".")).unwrap_err();
            assert!(message.starts_with("job 1: "), "{message}");
            assert!(message.contains("outside (0, 1]"), "{message}");
        }
    }

    #[test]
    fn patterns_objective_jobs_run_through_the_pool() {
        let dir = temp_dir("patterns");
        write_bench(&dir, "ok.bench");
        let manifest = Json::parse(
            r#"{
              "workers": 1,
              "jobs": [
                {"circuit": "ok.bench", "method": "optimize",
                 "objective": "patterns", "max_rounds": 2, "timeout_ms": 60000}
              ]
            }"#,
        )
        .unwrap();
        let (workers, specs) = parse_manifest(&manifest, &dir).unwrap();
        assert_eq!(specs[0].objective, "patterns");
        let mut out = Vec::new();
        let summary = run_jobs(workers, &specs, &mut out).unwrap();
        assert_eq!(summary.ok, 1, "{}", String::from_utf8_lossy(&out));
        let line = Json::parse(String::from_utf8(out).unwrap().lines().next().unwrap()).unwrap();
        assert_eq!(line.get("status").unwrap().as_str(), Some("ok"));
        assert_eq!(line.get("objective").unwrap().as_str(), Some("patterns"));
        let before = line.get("patterns_before").unwrap().as_u64().unwrap();
        let after = line.get("patterns_after").unwrap().as_u64().unwrap();
        assert!(after <= before, "{after} > {before}");
        std::fs::remove_dir_all(&dir).ok();
    }

    fn sleep_spec(path: PathBuf, timeout_ms: u64) -> JobSpec {
        JobSpec {
            index: 0,
            circuit: path,
            method: "selftest-sleep".to_string(),
            objective: "coverage".to_string(),
            threshold_log2: -8.0,
            patterns: 4096,
            max_rounds: 2,
            seed: 1,
            timeout_ms,
        }
    }

    #[test]
    fn timeout_is_reported_not_fatal() {
        let dir = temp_dir("timeout");
        let path = write_bench(&dir, "slow.bench");
        // The sleeper out-sleeps any budget: the timeout path is forced
        // deterministically however fast the machine is.
        let line = run_job_isolated(&sleep_spec(path, 10), &RunControl::unlimited(), 0);
        assert_eq!(line.get("status").unwrap().as_str(), Some("timeout"));
        // Cooperative cancellation: the sleeper observed its token and
        // exited — no detached thread.
        assert_eq!(line.get("worker_exited").unwrap().as_bool(), Some(true));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Current thread count of this process (Linux: /proc/self/status).
    #[cfg(target_os = "linux")]
    fn thread_count() -> usize {
        let status = std::fs::read_to_string("/proc/self/status").unwrap();
        status
            .lines()
            .find_map(|l| l.strip_prefix("Threads:"))
            .and_then(|v| v.trim().parse().ok())
            .unwrap()
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn timed_out_sleeper_does_not_leak_its_thread() {
        let dir = temp_dir("thread-leak");
        let path = write_bench(&dir, "slow.bench");
        let baseline = thread_count();
        let line = run_job_isolated(&sleep_spec(path, 20), &RunControl::unlimited(), 0);
        assert_eq!(line.get("status").unwrap().as_str(), Some("timeout"));
        assert_eq!(line.get("worker_exited").unwrap().as_bool(), Some(true));
        // The worker was joined, so the count returns to baseline (allow
        // a short settle for the OS to reap the thread).
        let mut settled = thread_count();
        for _ in 0..100 {
            if settled <= baseline {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
            settled = thread_count();
        }
        assert!(
            settled <= baseline,
            "worker thread leaked: {settled} > baseline {baseline}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn batch_cancel_drains_the_pool() {
        let dir = temp_dir("cancel");
        write_bench(&dir, "ok.bench");
        let manifest = Json::parse(
            r#"{"workers": 1, "jobs": [
                {"circuit": "ok.bench", "method": "selftest-sleep", "timeout_ms": 60000},
                {"circuit": "ok.bench", "method": "simulate", "patterns": 256}
            ]}"#,
        )
        .unwrap();
        let (_, specs) = parse_manifest(&manifest, &dir).unwrap();
        let control = RunControl::cancellable();
        control.cancel();
        let opts = BatchOptions {
            workers: 1,
            control: control.clone(),
            ..BatchOptions::default()
        };
        let mut out = Vec::new();
        let started = Instant::now();
        let summary = run_jobs_with(&opts, &specs, &mut out).unwrap();
        // The 60-second sleeper never ran to its own deadline.
        assert!(started.elapsed() < Duration::from_secs(30));
        assert_eq!(summary.ok, 0);
        assert_eq!(summary.cancelled, 2);
        assert_eq!(summary.failed(), 2);
        for line in String::from_utf8(out).unwrap().lines() {
            let line = Json::parse(line).unwrap();
            assert_eq!(line.get("status").unwrap().as_str(), Some("cancelled"));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn flaky_job_recovers_with_retries() {
        let dir = temp_dir("flaky");
        let path = write_bench(&dir, "flaky.bench");
        let marker = path.with_extension("flaky-marker");
        std::fs::remove_file(&marker).ok();
        let spec = JobSpec {
            index: 0,
            circuit: path.clone(),
            method: "selftest-flaky".to_string(),
            objective: "coverage".to_string(),
            threshold_log2: -8.0,
            patterns: 256,
            max_rounds: 2,
            seed: 1,
            timeout_ms: 30_000,
        };
        // Without retries the transient failure is final.
        std::fs::remove_file(&marker).ok();
        let line = run_job_isolated(&spec, &RunControl::unlimited(), 0);
        assert_eq!(line.get("status").unwrap().as_str(), Some("error"));
        // With one retry the second attempt recovers.
        std::fs::remove_file(&marker).ok();
        let line = run_job_isolated(&spec, &RunControl::unlimited(), 1);
        assert_eq!(line.get("status").unwrap().as_str(), Some("ok"));
        assert_eq!(line.get("attempts").unwrap().as_u64(), Some(2));
        assert_eq!(line.get("recovered").unwrap().as_bool(), Some(true));
        std::fs::remove_file(&marker).ok();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_skips_completed_jobs_and_appends() {
        let dir = temp_dir("resume");
        write_bench(&dir, "ok.bench");
        let manifest = Json::parse(
            r#"{"workers": 2, "jobs": [
                {"circuit": "ok.bench", "method": "simulate", "patterns": 256},
                {"circuit": "missing.bench", "method": "simulate"},
                {"circuit": "ok.bench", "method": "simulate", "patterns": 128}
            ]}"#,
        )
        .unwrap();
        let (workers, specs) = parse_manifest(&manifest, &dir).unwrap();
        let mut first = Vec::new();
        run_jobs(workers, &specs, &mut first).unwrap();
        let first = String::from_utf8(first).unwrap();
        let done = completed_indices(&first);
        assert_eq!(done, vec![0, 2]);

        let opts = BatchOptions {
            workers,
            skip: done,
            ..BatchOptions::default()
        };
        let mut second = Vec::new();
        let summary = run_jobs_with(&opts, &specs, &mut second).unwrap();
        assert_eq!(summary.skipped, 2);
        assert_eq!(summary.ok, 0);
        assert_eq!(summary.error, 1); // only the missing-circuit job re-ran
        let second = String::from_utf8(second).unwrap();
        let lines: Vec<Json> = second.lines().map(|l| Json::parse(l).unwrap()).collect();
        assert_eq!(lines.len(), 1);
        assert_eq!(lines[0].get("job").unwrap().as_u64(), Some(1));
        // Appending the resumed lines keeps the checkpoint parseable.
        let merged = format!("{first}{second}");
        assert_eq!(completed_indices(&merged), vec![0, 2]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn completed_scan_dedupes_and_bounds_indices() {
        // Crash-then-append duplicated job 0's ok line; job 9 belongs to
        // some other (larger) manifest.
        let jsonl = concat!(
            "{\"job\": 0, \"status\": \"ok\"}\n",
            "{\"job\": 0, \"status\": \"ok\"}\n",
            "{\"job\": 1, \"status\": \"ok\"}\n",
            "{\"job\": 9, \"status\": \"ok\"}\n",
        );
        let lines: Vec<Json> = jsonl.lines().map(|l| Json::parse(l).unwrap()).collect();
        let scan = completed_scan(&lines, 3);
        assert_eq!(scan.indices, vec![0, 1]);
        assert_eq!(scan.duplicates, 1);
        assert_eq!(scan.out_of_range, 1);
        // The compatibility wrapper keeps its lenient, unbounded view.
        assert_eq!(completed_indices(jsonl), vec![0, 1, 9]);
    }

    #[test]
    fn completed_indices_takes_the_last_line_per_job() {
        let jsonl = concat!(
            "{\"job\": 0, \"status\": \"ok\"}\n",
            "{\"job\": 1, \"status\": \"timeout\"}\n",
            "not json at all\n",
            "{\"job\": 1, \"status\": \"ok\"}\n",
            "{\"job\": 2, \"status\": \"ok\"}\n",
            "{\"job\": 2, \"status\": \"error\"}\n",
        );
        assert_eq!(completed_indices(jsonl), vec![0, 1]);
    }

    #[test]
    fn deadline_interrupted_optimize_reports_partial_timeout() {
        let dir = temp_dir("partial");
        let path = write_bench(&dir, "deep.bench");
        // A zero-ish deadline interrupts the first measurement; the job
        // reports a timeout with no partial plan rather than an error.
        let spec = JobSpec {
            index: 0,
            circuit: path,
            method: "optimize".to_string(),
            objective: "coverage".to_string(),
            threshold_log2: -8.0,
            patterns: 1 << 20,
            max_rounds: 4,
            seed: 1,
            timeout_ms: 0,
        };
        let line = run_job_isolated(&spec, &RunControl::unlimited(), 0);
        assert_eq!(line.get("status").unwrap().as_str(), Some("timeout"));
        assert_eq!(line.get("worker_exited").unwrap().as_bool(), Some(true));
        std::fs::remove_dir_all(&dir).ok();
    }
}
