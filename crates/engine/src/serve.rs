//! The line-delimited JSON session protocol behind `tpi serve`.
//!
//! [`ServeState`] answers one request line with one response line; the
//! `tpi-server` crate runs it over stdin/stdout and over sockets. The
//! engine session (and all of its caches) persists across requests, so
//! a driving process pays for analyses and a measurement once per
//! circuit version.
//!
//! Requests (`cmd` — `method` is accepted as an alias — selects the
//! operation):
//!
//! * `{"cmd":"load","path":"c432.bench"}` or
//!   `{"cmd":"load","bench":"INPUT(a)\n..."}` — open a session; optional
//!   `"patterns"` and `"seed"` configure the measurement.
//! * `{"cmd":"coverage"}` — measure (cached per circuit version).
//! * `{"cmd":"insert","node":"g17","kind":"op"}` — apply a test point
//!   (`op`, `cp-and`, `cp-or`, `tp`) and measure the edited circuit.
//! * `{"cmd":"optimize","threshold_log2":-8,"max_rounds":8}` — run the
//!   constructive loop on the session.
//! * `{"cmd":"stats"}` — cache/simulation counters, plus total optimize
//!   and region-DP wall clock (µs) and the number of region-DP solves.
//! * `{"cmd":"metrics"}` — the full observability snapshot (engine and
//!   fault-sim counters, request-latency histograms, error counters) as
//!   a JSON object; works with or without a loaded session.
//! * `{"cmd":"selftest-sleep","ms":100}` — testing aid: hold the session
//!   busy for `ms` milliseconds (capped at 5 s), so admission control and
//!   slow-client isolation can be exercised deterministically.
//! * `{"cmd":"shutdown"}` — acknowledge, then stop serving (graceful:
//!   the in-flight request — this one — is answered before the loop
//!   exits; EOF on the input behaves the same without the ack).
//! * `{"cmd":"quit"}` — end the session without a response.
//!
//! # Robustness
//!
//! The server never dies on a request: malformed JSON, unknown methods,
//! oversized circuits and even panics inside the engine come back as
//! error responses (`"ok": false` plus a machine-readable `"code"`) and
//! leave the loop serving. Two per-request/han-wide guards:
//!
//! * **Deadlines** — any request may carry `"deadline_ms"`; the engine
//!   runs the operation under a [`RunControl`](crate::RunControl) token
//!   with that deadline. An interrupted `optimize` still succeeds with
//!   the best plan committed so far and `"partial": true`; an
//!   interrupted measurement reports code `"deadline_expired"` and the
//!   next request (under a fresh token) simply re-measures.
//! * **Resource caps** — [`ServeLimits`] bounds circuit size and
//!   pattern budget; a request beyond a cap is rejected with code
//!   `"limit_exceeded"` before any work happens.

use std::panic::AssertUnwindSafe;
use std::sync::Arc;
use std::time::{Duration, Instant};

use tpi_compaction::{PatternsConfig, SearchTier};
use tpi_core::{Threshold, TpiError};
use tpi_netlist::bench_format::parse_bench;
use tpi_netlist::{TestPoint, TestPointKind};
use tpi_obs::Registry;
use tpi_sim::RunControl;

use crate::json::Json;
use crate::memo::SharedDpMemo;
use crate::{EngineConfig, OptimizeConfig, TpiEngine};

/// Resource caps enforced per request (`None` = uncapped).
#[derive(Clone, Copy, Debug, Default)]
pub struct ServeLimits {
    /// Largest circuit (node count) a `load` accepts.
    pub max_gates: Option<usize>,
    /// Largest measurement pattern budget a `load` accepts.
    pub max_patterns: Option<u64>,
}

/// A structured request failure: a machine-readable code plus a
/// human-readable message.
struct ServeError {
    code: &'static str,
    message: String,
}

fn err(code: &'static str, message: impl Into<String>) -> ServeError {
    ServeError {
        code,
        message: message.into(),
    }
}

/// The mutable state of one serve session.
#[derive(Default)]
pub struct ServeState {
    engine: Option<TpiEngine>,
    limits: ServeLimits,
    done: bool,
    /// Shared with every engine the session loads, so one `metrics`
    /// snapshot covers engine counters, `sim.*` kernel counters and the
    /// server's own request instrumentation.
    registry: Arc<Registry>,
    /// When set, engines are opened over this cross-session DP memo
    /// ([`TpiEngine::with_shared_memo`]) instead of a private one.
    shared_memo: Option<Arc<SharedDpMemo>>,
}

impl ServeState {
    /// Fresh, with no circuit loaded and no resource caps.
    pub fn new() -> ServeState {
        ServeState::default()
    }

    /// Fresh, with resource caps.
    pub fn with_limits(limits: ServeLimits) -> ServeState {
        ServeState {
            limits,
            ..ServeState::default()
        }
    }

    /// Fresh, with resource caps, a caller-supplied registry (typically
    /// one registry spanning every session of a server, so per-command
    /// latency histograms and engine counters aggregate fleet-wide) and,
    /// optionally, a cross-session [`SharedDpMemo`] every engine this
    /// session loads will replay region DP solutions from.
    pub fn with_shared(
        limits: ServeLimits,
        registry: Arc<Registry>,
        shared_memo: Option<Arc<SharedDpMemo>>,
    ) -> ServeState {
        ServeState {
            limits,
            registry,
            shared_memo,
            ..ServeState::default()
        }
    }

    /// `true` once a `shutdown` request has been acknowledged; the serve
    /// loop stops reading after the current response is written.
    pub fn finished(&self) -> bool {
        self.done
    }

    /// The session's metrics registry (shared with every loaded engine).
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Record a finished request — latency under
    /// `serve.request_us.<method>`, total under `serve.requests`, error
    /// responses under `serve.errors.<code>` — and render the response.
    /// Methods outside the fixed command set are pooled under `other`
    /// so client typos cannot grow the metric namespace unboundedly.
    fn finish(&self, method: &str, started: Instant, response: Json) -> String {
        let label = match method {
            "load" | "coverage" | "insert" | "optimize" | "stats" | "metrics" | "shutdown" => {
                method
            }
            "" => "invalid",
            _ => "other",
        };
        self.registry.counter("serve.requests").inc();
        self.registry
            .histogram(&format!("serve.request_us.{label}"))
            .record(started.elapsed().as_micros() as u64);
        if response.get("ok").and_then(Json::as_bool) == Some(false) {
            let code = response
                .get("code")
                .and_then(Json::as_str)
                .unwrap_or("unknown");
            self.registry.counter(&format!("serve.errors.{code}")).inc();
        }
        response.to_string()
    }

    /// Handle one request line; returns the response line, or `None` for
    /// `quit` (no response, stop serving).
    pub fn handle_line(&mut self, line: &str) -> Option<String> {
        let started = Instant::now();
        let trimmed = line.trim();
        if trimmed.is_empty() {
            let e = error_json(err("bad_request", "empty request"));
            return Some(self.finish("", started, e));
        }
        let request = match Json::parse(trimmed) {
            Ok(v) => v,
            Err(e) => {
                let e = error_json(err("bad_json", format!("bad JSON: {e}")));
                return Some(self.finish("", started, e));
            }
        };
        // `method` is accepted as an alias of `cmd`.
        let method = request
            .get("cmd")
            .or_else(|| request.get("method"))
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_string();
        if method == "quit" {
            return None;
        }
        if method == "shutdown" {
            self.done = true;
            let ack = Json::obj([("ok", Json::from(true)), ("shutdown", Json::from(true))]);
            return Some(self.finish(&method, started, ack));
        }

        // Run the operation under the request's deadline (if any); the
        // token is reset afterwards so later requests start fresh.
        let deadline = request
            .get("deadline_ms")
            .and_then(Json::as_u64)
            .map(Duration::from_millis);
        if let Some(engine) = self.engine.as_mut() {
            engine.set_control(RunControl::with_limits(deadline, None));
        }
        let dispatched =
            std::panic::catch_unwind(AssertUnwindSafe(|| self.dispatch(&method, &request)));
        if let Some(engine) = self.engine.as_mut() {
            engine.set_control(RunControl::unlimited());
        }
        let response = match dispatched {
            Ok(Ok(response)) => response,
            Ok(Err(e)) => error_json(e),
            Err(panic) => {
                // A panicked operation may have left the session's caches
                // inconsistent: drop the session rather than serve from a
                // corrupted one. The server itself stays alive.
                self.engine = None;
                let message = panic
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_string())
                    .or_else(|| panic.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "engine panicked".to_string());
                error_json(err(
                    "panic",
                    format!("engine panicked ({message}); session reset, send 'load' again"),
                ))
            }
        };
        Some(self.finish(&method, started, response))
    }

    fn dispatch(&mut self, method: &str, request: &Json) -> Result<Json, ServeError> {
        match method {
            "load" => self.cmd_load(request),
            "coverage" => {
                let engine = self.engine_mut()?;
                let result = engine.simulate().map_err(engine_error)?;
                Ok(Json::obj([
                    ("ok", Json::from(true)),
                    ("coverage", Json::from(result.coverage())),
                    ("faults", Json::from(result.fault_count())),
                    ("detected", Json::from(result.detected_count())),
                    ("patterns", Json::from(result.patterns_applied())),
                ]))
            }
            "insert" => self.cmd_insert(request),
            "optimize" => self.cmd_optimize(request),
            "stats" => {
                let engine = self.engine_mut()?;
                let s = engine.stats();
                let optimize = engine.registry().histogram("engine.optimize_us");
                let region_dp = engine.registry().histogram("engine.region_dp_us");
                Ok(Json::obj([
                    ("ok", Json::from(true)),
                    ("analysis_rebuilds", Json::from(s.analysis_rebuilds)),
                    ("analysis_hits", Json::from(s.analysis_hits)),
                    ("full_sims", Json::from(s.full_sims)),
                    ("memo_hits", Json::from(s.memo_hits)),
                    ("memo_misses", Json::from(s.memo_misses)),
                    ("memo_entries", Json::from(engine.memo_len())),
                    // Where optimize time goes: its total wall clock and
                    // the region-DP solves inside it.
                    ("optimize_us", Json::from(optimize.sum())),
                    ("region_dp_solves", Json::from(region_dp.count())),
                    ("region_dp_us", Json::from(region_dp.sum())),
                ]))
            }
            "metrics" => {
                let rendered = self.registry.snapshot().to_json();
                let metrics = Json::parse(&rendered).expect("snapshot sink emits well-formed JSON");
                Ok(Json::obj([("ok", Json::from(true)), ("metrics", metrics)]))
            }
            // Testing aid (mirrors batch's selftest jobs): hold the
            // session busy for `ms` wall-clock milliseconds, so admission
            // control and slow-client isolation are testable without
            // timing-sensitive workloads. Capped at 5 s.
            "selftest-sleep" => {
                let ms = request
                    .get("ms")
                    .and_then(Json::as_u64)
                    .unwrap_or(0)
                    .min(5_000);
                std::thread::sleep(Duration::from_millis(ms));
                Ok(Json::obj([
                    ("ok", Json::from(true)),
                    ("slept_ms", Json::from(ms)),
                ]))
            }
            "" => Err(err("bad_request", "missing 'cmd'")),
            other => Err(err("unknown_method", format!("unknown cmd '{other}'"))),
        }
    }

    fn engine_mut(&mut self) -> Result<&mut TpiEngine, ServeError> {
        self.engine
            .as_mut()
            .ok_or_else(|| err("no_session", "no circuit loaded (send a 'load' first)"))
    }

    fn cmd_load(&mut self, request: &Json) -> Result<Json, ServeError> {
        let text = if let Some(bench) = request.get("bench").and_then(Json::as_str) {
            bench.to_string()
        } else if let Some(path) = request.get("path").and_then(Json::as_str) {
            std::fs::read_to_string(path).map_err(|e| err("io", format!("read {path}: {e}")))?
        } else {
            return Err(err("bad_request", "'load' needs 'bench' text or a 'path'"));
        };
        let patterns = request
            .get("patterns")
            .and_then(Json::as_u64)
            .unwrap_or(4096);
        if let Some(cap) = self.limits.max_patterns {
            if patterns > cap {
                return Err(err(
                    "limit_exceeded",
                    format!("{patterns} patterns exceed the server cap of {cap}"),
                ));
            }
        }
        let circuit = parse_bench(&text).map_err(|e| err("parse", format!("parse: {e}")))?;
        if let Some(cap) = self.limits.max_gates {
            if circuit.node_count() > cap {
                return Err(err(
                    "limit_exceeded",
                    format!(
                        "circuit has {} nodes, exceeding the server cap of {cap}",
                        circuit.node_count()
                    ),
                ));
            }
        }
        let config = EngineConfig {
            patterns,
            seed: request
                .get("seed")
                .and_then(Json::as_u64)
                .unwrap_or(0xDAC_1987),
            ..EngineConfig::default()
        };
        let engine = match &self.shared_memo {
            Some(memo) => TpiEngine::with_shared_memo(
                circuit,
                config,
                self.registry.clone(),
                Arc::clone(memo),
            ),
            None => TpiEngine::with_registry(circuit, config, self.registry.clone()),
        }
        .map_err(engine_error)?;
        let response = Json::obj([
            ("ok", Json::from(true)),
            ("name", Json::from(engine.circuit().name())),
            ("nodes", Json::from(engine.circuit().node_count())),
            ("inputs", Json::from(engine.circuit().inputs().len())),
            ("outputs", Json::from(engine.circuit().outputs().len())),
            ("faults", Json::from(engine.universe().len())),
        ]);
        self.engine = Some(engine);
        Ok(response)
    }

    fn cmd_insert(&mut self, request: &Json) -> Result<Json, ServeError> {
        let node_name = request
            .get("node")
            .and_then(Json::as_str)
            .ok_or_else(|| err("bad_request", "'insert' needs 'node'"))?
            .to_string();
        let kind = match request.get("kind").and_then(Json::as_str).unwrap_or("op") {
            "op" => TestPointKind::Observe,
            "cp-and" => TestPointKind::ControlAnd,
            "cp-or" => TestPointKind::ControlOr,
            "tp" => TestPointKind::Full,
            other => return Err(err("bad_request", format!("unknown kind '{other}'"))),
        };
        let engine = self.engine_mut()?;
        let node = engine
            .circuit()
            .find_node(&node_name)
            .ok_or_else(|| err("not_found", format!("no node named '{node_name}'")))?;
        engine
            .apply(TestPoint::new(node, kind))
            .map_err(engine_error)?;
        let coverage = engine.coverage().map_err(engine_error)?;
        Ok(Json::obj([
            ("ok", Json::from(true)),
            ("coverage", Json::from(coverage)),
            ("nodes", Json::from(engine.circuit().node_count())),
        ]))
    }

    fn cmd_optimize(&mut self, request: &Json) -> Result<Json, ServeError> {
        // `objective` selects what the inserted points optimise:
        // `coverage` (default) or `patterns` (compacted pattern count).
        match request.get("objective").and_then(Json::as_str) {
            None | Some("coverage") => {}
            Some("patterns") => return self.cmd_optimize_patterns(request),
            Some(other) => {
                return Err(err(
                    "bad_request",
                    format!("unknown objective '{other}' (expected coverage|patterns)"),
                ))
            }
        }
        let threshold = Threshold::try_from_log2(
            request
                .get("threshold_log2")
                .and_then(Json::as_f64)
                .unwrap_or(-10.0),
        )
        .map_err(|e| err("bad_request", e.to_string()))?;
        let cfg = OptimizeConfig {
            max_rounds: request
                .get("max_rounds")
                .and_then(Json::as_u64)
                .unwrap_or(8) as usize,
            max_cost: request
                .get("max_cost")
                .and_then(Json::as_f64)
                .unwrap_or(f64::INFINITY),
            target_coverage: request
                .get("target_coverage")
                .and_then(Json::as_f64)
                .unwrap_or(1.0),
            ..OptimizeConfig::default()
        };
        let engine = self.engine_mut()?;
        let outcome = engine.optimize(threshold, &cfg).map_err(engine_error)?;
        let points: Vec<Json> = outcome
            .plan
            .test_points()
            .iter()
            .map(|tp| {
                Json::obj([
                    ("node", Json::from(outcome.modified.node_name(tp.node))),
                    ("kind", Json::from(tp.kind.mnemonic())),
                ])
            })
            .collect();
        let mut response = Json::obj([
            ("ok", Json::from(true)),
            ("coverage", Json::from(outcome.final_coverage)),
            (
                "baseline_coverage",
                Json::from(outcome.rounds.first().map_or(0.0, |r| r.coverage)),
            ),
            ("cost", Json::from(outcome.plan.cost())),
            ("rounds", Json::from(outcome.rounds.len())),
            ("points", Json::Arr(points)),
        ]);
        // Interrupted optimizes are still successes: the plan is the
        // exact prefix committed before the deadline (an anytime result),
        // flagged so the caller knows the loop did not run to completion.
        if let Some(reason) = outcome.interrupted {
            if let Json::Obj(map) = &mut response {
                map.insert("partial".to_string(), Json::from(true));
                map.insert("stopped".to_string(), Json::from(reason.to_string()));
            }
        }
        Ok(response)
    }

    /// `{"cmd":"optimize","objective":"patterns", ...}` — run the
    /// pattern-count insertion loop on the session engine. The cube set
    /// of the committed circuit stays in the session's version-keyed
    /// cache, so follow-up requests on the same session replay it.
    fn cmd_optimize_patterns(&mut self, request: &Json) -> Result<Json, ServeError> {
        let mut cfg = PatternsConfig {
            max_points: request
                .get("max_points")
                .and_then(Json::as_u64)
                .unwrap_or(8) as usize,
            max_cost: request
                .get("max_cost")
                .and_then(Json::as_f64)
                .unwrap_or(f64::INFINITY),
            ..PatternsConfig::default()
        };
        if let Some(width) = request.get("probe_width").and_then(Json::as_u64) {
            if width == 0 {
                return Err(err("bad_request", "probe_width must be ≥ 1"));
            }
            cfg.probe_width = width as usize;
        }
        match request.get("tier").and_then(Json::as_str) {
            None | Some("greedy") => cfg.tier = SearchTier::Greedy,
            Some("constructive") => cfg.tier = SearchTier::Constructive,
            Some(other) => {
                return Err(err(
                    "bad_request",
                    format!("unknown tier '{other}' (expected greedy|constructive)"),
                ))
            }
        }
        let engine = self.engine_mut()?;
        let outcome = engine.optimize_patterns(&cfg).map_err(engine_error)?;
        let points: Vec<Json> = outcome
            .plan
            .test_points()
            .iter()
            .map(|tp| {
                Json::obj([
                    ("node", Json::from(outcome.modified.node_name(tp.node))),
                    ("kind", Json::from(tp.kind.mnemonic())),
                ])
            })
            .collect();
        let mut response = Json::obj([
            ("ok", Json::from(true)),
            ("objective", Json::from("patterns")),
            ("patterns_before", Json::from(outcome.patterns_before)),
            ("patterns_after", Json::from(outcome.patterns_after)),
            ("cubes", Json::from(outcome.cubes_before)),
            ("conflicts", Json::from(outcome.conflicts_before)),
            ("cost", Json::from(outcome.plan.cost())),
            ("rounds", Json::from(outcome.rounds.len())),
            ("points", Json::Arr(points)),
        ]);
        if let Some(reason) = outcome.interrupted {
            if let Json::Obj(map) = &mut response {
                map.insert("partial".to_string(), Json::from(true));
                map.insert("stopped".to_string(), Json::from(reason.to_string()));
            }
        }
        Ok(response)
    }
}

/// Map an engine failure to a structured serve error (interruptions get
/// their own code so drivers can tell "ran out of deadline" from "broke").
fn engine_error(e: TpiError) -> ServeError {
    match e {
        TpiError::Interrupted { reason } => {
            err("deadline_expired", format!("interrupted: {reason}"))
        }
        other => err("engine", other.to_string()),
    }
}

fn error_json(e: ServeError) -> Json {
    Json::obj([
        ("ok", Json::from(false)),
        ("code", Json::from(e.code)),
        ("error", Json::from(e.message)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCH: &str = "INPUT(a)\\nINPUT(b)\\nINPUT(c)\\nINPUT(d)\\n\
                         g0 = AND(a, b)\\ng1 = AND(c, d)\\ny = AND(g0, g1)\\nOUTPUT(y)\\n";

    fn ok(response: &str) -> Json {
        let v = Json::parse(response).unwrap();
        assert_eq!(
            v.get("ok").and_then(Json::as_bool),
            Some(true),
            "{response}"
        );
        v
    }

    fn failed(response: &str, code: &str) -> Json {
        let v = Json::parse(response).unwrap();
        assert_eq!(
            v.get("ok").and_then(Json::as_bool),
            Some(false),
            "{response}"
        );
        assert_eq!(
            v.get("code").and_then(Json::as_str),
            Some(code),
            "{response}"
        );
        v
    }

    #[test]
    fn session_flow() {
        let mut state = ServeState::new();
        let load = state
            .handle_line(&format!(
                r#"{{"cmd":"load","bench":"{BENCH}","patterns":512}}"#
            ))
            .unwrap();
        let load = ok(&load);
        assert_eq!(load.get("inputs").unwrap().as_u64(), Some(4));

        let coverage = ok(&state.handle_line(r#"{"cmd":"coverage"}"#).unwrap());
        assert!(coverage.get("coverage").unwrap().as_f64().unwrap() > 0.5);

        let insert = ok(&state
            .handle_line(r#"{"cmd":"insert","node":"g0","kind":"op"}"#)
            .unwrap());
        assert!(insert.get("coverage").unwrap().as_f64().unwrap() > 0.5);

        // The insert measured the edited circuit from scratch.
        let stats = ok(&state.handle_line(r#"{"cmd":"stats"}"#).unwrap());
        assert_eq!(stats.get("full_sims").unwrap().as_u64(), Some(2));

        assert!(state.handle_line(r#"{"cmd":"quit"}"#).is_none());
    }

    #[test]
    fn optimize_over_serve() {
        let mut state = ServeState::new();
        ok(&state
            .handle_line(&format!(
                r#"{{"cmd":"load","bench":"{BENCH}","patterns":256}}"#
            ))
            .unwrap());
        let response = ok(&state
            .handle_line(r#"{"cmd":"optimize","threshold_log2":-4,"max_rounds":2}"#)
            .unwrap());
        assert!(response.get("rounds").unwrap().as_u64().unwrap() >= 1);
        assert!(response.get("partial").is_none());
        // Every region DP the optimize solved (memo misses) was timed.
        let stats = ok(&state.handle_line(r#"{"cmd":"stats"}"#).unwrap());
        let solves = stats.get("region_dp_solves").and_then(Json::as_u64);
        assert_eq!(solves, stats.get("memo_misses").and_then(Json::as_u64));
        assert!(stats.get("optimize_us").and_then(Json::as_u64).is_some());
        assert!(stats.get("region_dp_us").and_then(Json::as_u64).is_some());
    }

    #[test]
    fn optimize_reports_the_coverage_of_its_plan_after_max_rounds() {
        // Both rounds commit points, so the loop stops at `max_rounds`
        // with the second round's points unmeasured until the reply.
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/dag400_s5.bench");
        let mut state = ServeState::new();
        ok(&state
            .handle_line(&format!(r#"{{"cmd":"load","path":"{path}"}}"#))
            .unwrap());
        let optimize = ok(&state
            .handle_line(r#"{"cmd":"optimize","threshold_log2":-10,"max_rounds":2}"#)
            .unwrap());
        assert_eq!(optimize.get("rounds").and_then(Json::as_u64), Some(2));
        assert!(optimize.get("partial").is_none());
        let coverage = ok(&state.handle_line(r#"{"cmd":"coverage"}"#).unwrap());
        let replied = optimize.get("coverage").and_then(Json::as_f64).unwrap();
        assert_eq!(
            Some(replied),
            coverage.get("coverage").and_then(Json::as_f64)
        );
        assert_eq!(format!("{replied:.4}"), "0.7351");
    }

    #[test]
    fn bad_thresholds_are_refused_and_keep_the_session() {
        let mut state = ServeState::new();
        ok(&state
            .handle_line(&format!(
                r#"{{"cmd":"load","bench":"{BENCH}","patterns":256}}"#
            ))
            .unwrap());
        // δ = 2^3 > 1, and δ = 2^-5000 underflows to 0.
        for exponent in ["3", "-5000"] {
            failed(
                &state
                    .handle_line(&format!(
                        r#"{{"cmd":"optimize","threshold_log2":{exponent}}}"#
                    ))
                    .unwrap(),
                "bad_request",
            );
        }
        // The loaded circuit survived: no reset, no reload needed.
        ok(&state.handle_line(r#"{"cmd":"coverage"}"#).unwrap());
        ok(&state
            .handle_line(r#"{"cmd":"optimize","threshold_log2":-4,"max_rounds":1}"#)
            .unwrap());
    }

    #[test]
    fn optimize_patterns_objective_over_serve() {
        let mut state = ServeState::new();
        ok(&state
            .handle_line(&format!(
                r#"{{"cmd":"load","bench":"{BENCH}","patterns":256}}"#
            ))
            .unwrap());
        let response = ok(&state
            .handle_line(r#"{"cmd":"optimize","objective":"patterns","max_points":2}"#)
            .unwrap());
        assert_eq!(
            response.get("objective").and_then(Json::as_str),
            Some("patterns")
        );
        let before = response.get("patterns_before").unwrap().as_u64().unwrap();
        let after = response.get("patterns_after").unwrap().as_u64().unwrap();
        assert!(after <= before, "{after} > {before}");
        assert!(response.get("points").is_some());

        // Unknown objectives are rejected without killing the session.
        failed(
            &state
                .handle_line(r#"{"cmd":"optimize","objective":"zeal"}"#)
                .unwrap(),
            "bad_request",
        );
        ok(&state.handle_line(r#"{"cmd":"coverage"}"#).unwrap());
    }

    #[test]
    fn errors_leave_the_session_usable() {
        let mut state = ServeState::new();
        failed(
            &state.handle_line(r#"{"cmd":"coverage"}"#).unwrap(),
            "no_session",
        );
        failed(&state.handle_line("{nope").unwrap(), "bad_json");
        failed(
            &state.handle_line(r#"{"cmd":"frobnicate"}"#).unwrap(),
            "unknown_method",
        );
        failed(&state.handle_line("").unwrap(), "bad_request");

        ok(&state
            .handle_line(&format!(r#"{{"cmd":"load","bench":"{BENCH}"}}"#))
            .unwrap());
        failed(
            &state
                .handle_line(r#"{"cmd":"insert","node":"ghost"}"#)
                .unwrap(),
            "not_found",
        );
        ok(&state.handle_line(r#"{"cmd":"coverage"}"#).unwrap());
    }

    #[test]
    fn metrics_round_trip_over_serve() {
        let mut state = ServeState::new();
        // Works before any load: only the server's own counters exist.
        let empty = ok(&state.handle_line(r#"{"cmd":"metrics"}"#).unwrap());
        assert!(empty.get("metrics").is_some());

        ok(&state
            .handle_line(&format!(
                r#"{{"cmd":"load","bench":"{BENCH}","patterns":512}}"#
            ))
            .unwrap());
        ok(&state.handle_line(r#"{"cmd":"coverage"}"#).unwrap());
        failed(
            &state.handle_line(r#"{"cmd":"frobnicate"}"#).unwrap(),
            "unknown_method",
        );
        let response = ok(&state.handle_line(r#"{"cmd":"metrics"}"#).unwrap());
        let metrics = response.get("metrics").unwrap();
        // Engine counters, kernel counters and the server's own request
        // instrumentation all land in one snapshot.
        let counter = |name: &str| {
            metrics
                .get(name)
                .and_then(|m| m.get("value"))
                .and_then(Json::as_u64)
                .unwrap_or_else(|| panic!("missing counter {name}: {metrics}"))
        };
        assert_eq!(counter("engine.full_sims"), 1);
        assert!(counter("sim.blocks") > 0);
        assert!(counter("serve.requests") >= 3);
        assert_eq!(counter("serve.errors.unknown_method"), 1);
        let latency = metrics
            .get("serve.request_us.coverage")
            .expect("coverage latency histogram");
        assert_eq!(
            latency.get("count").and_then(Json::as_u64),
            Some(1),
            "{latency}"
        );
    }

    #[test]
    fn non_timing_metrics_are_deterministic_across_sessions() {
        // Two identical request scripts must produce bit-identical
        // non-timing metrics: every sim/engine counter is a function of
        // (circuit, stream, faults), never of the clock.
        let run = || {
            let mut state = ServeState::new();
            ok(&state
                .handle_line(&format!(
                    r#"{{"cmd":"load","bench":"{BENCH}","patterns":512}}"#
                ))
                .unwrap());
            ok(&state.handle_line(r#"{"cmd":"coverage"}"#).unwrap());
            ok(&state
                .handle_line(r#"{"cmd":"insert","node":"g0","kind":"op"}"#)
                .unwrap());
            let mut snapshot = state.registry().snapshot();
            snapshot.retain(|name| !name.contains("_us") && !name.contains("_ms"));
            snapshot
        };
        let (a, b) = (run(), run());
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn method_is_an_alias_for_cmd() {
        let mut state = ServeState::new();
        ok(&state
            .handle_line(&format!(r#"{{"method":"load","bench":"{BENCH}"}}"#))
            .unwrap());
        ok(&state.handle_line(r#"{"method":"coverage"}"#).unwrap());
    }

    #[test]
    fn resource_caps_reject_oversized_requests() {
        let mut state = ServeState::with_limits(ServeLimits {
            max_gates: Some(3),
            max_patterns: Some(1024),
        });
        // 7 nodes > 3: rejected before any analysis runs.
        failed(
            &state
                .handle_line(&format!(r#"{{"cmd":"load","bench":"{BENCH}"}}"#))
                .unwrap(),
            "limit_exceeded",
        );
        failed(
            &state
                .handle_line(&format!(
                    r#"{{"cmd":"load","bench":"{BENCH}","patterns":4096}}"#
                ))
                .unwrap(),
            "limit_exceeded",
        );
        // The server survives and accepts an in-budget load.
        let mut roomy = ServeState::with_limits(ServeLimits {
            max_gates: Some(64),
            max_patterns: Some(1024),
        });
        ok(&roomy
            .handle_line(&format!(
                r#"{{"cmd":"load","bench":"{BENCH}","patterns":512}}"#
            ))
            .unwrap());
    }

    #[test]
    fn mid_stream_deadline_interrupts_and_session_recovers() {
        let mut state = ServeState::new();
        ok(&state
            .handle_line(&format!(
                r#"{{"cmd":"load","bench":"{BENCH}","patterns":512}}"#
            ))
            .unwrap());
        // A zero deadline interrupts the measurement immediately.
        failed(
            &state
                .handle_line(r#"{"cmd":"coverage","deadline_ms":0}"#)
                .unwrap(),
            "deadline_expired",
        );
        // An interrupted optimize is an anytime success: empty prefix
        // plan, flagged partial.
        let partial = ok(&state
            .handle_line(r#"{"cmd":"optimize","deadline_ms":0,"max_rounds":4}"#)
            .unwrap());
        assert_eq!(partial.get("partial").and_then(Json::as_bool), Some(true));
        assert_eq!(partial.get("points").unwrap().as_arr().unwrap().len(), 0);
        // The deadline does not outlive its request: a fresh token lets
        // the same session measure to completion.
        ok(&state.handle_line(r#"{"cmd":"coverage"}"#).unwrap());
    }

    #[test]
    fn shutdown_acks_then_stops_the_loop() {
        let mut state = ServeState::new();
        ok(&state
            .handle_line(&format!(r#"{{"cmd":"load","bench":"{BENCH}"}}"#))
            .unwrap());
        assert!(!state.finished());
        let ack = ok(&state.handle_line(r#"{"method":"shutdown"}"#).unwrap());
        assert_eq!(ack.get("shutdown").and_then(Json::as_bool), Some(true));
        // The acknowledgement is written, then the front end stops
        // reading: no later request is processed.
        assert!(state.finished());
    }

    #[test]
    fn serve_loop_reads_until_quit() {
        let mut state = ServeState::new();
        ok(&state
            .handle_line(&format!(r#"{{"cmd":"load","bench":"{BENCH}"}}"#))
            .unwrap());
        ok(&state.handle_line(r#"{"cmd":"coverage"}"#).unwrap());
        assert!(!state.finished());
        // `quit` gets no response: the front end stops reading there.
        assert!(state.handle_line(r#"{"cmd":"quit"}"#).is_none());
    }
}
