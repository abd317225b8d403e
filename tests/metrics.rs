//! End-to-end `--metrics-out` contract: the file the CLI writes must be
//! a well-formed registry snapshot (every entry typed, counters
//! non-negative integers, the nine `sim.*` kernel counters always
//! present), identical runs must produce
//! bit-identical snapshots, and fault-attributable counters must not
//! depend on `--threads` (stream-progress and scheduler counters do:
//! each worker replays the pattern stream on its fault slice, and
//! steals depend on timing). `tpi stats` must render the same file as
//! a table.

use std::path::{Path, PathBuf};
use std::process::Command;

use krishnamurthy_tpi::engine::json::Json;

const BENCH: &str = "INPUT(a)\nINPUT(b)\nINPUT(c)\nINPUT(d)\n\
                     g0 = AND(a, b)\ng1 = OR(c, d)\ng2 = XOR(g0, c)\n\
                     y = AND(g2, g1)\nOUTPUT(y)\n";

fn temp_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tpi-metrics-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn tpi(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_tpi"))
        .args(args)
        .output()
        .expect("tpi runs")
}

fn simulate_metrics(dir: &Path, circuit: &Path, threads: &str, tag: &str) -> String {
    let out = dir.join(format!("metrics-{tag}.json"));
    let output = tpi(&[
        "simulate",
        circuit.to_str().unwrap(),
        "--patterns",
        "512",
        "--threads",
        threads,
        "--metrics-out",
        out.to_str().unwrap(),
    ]);
    assert!(
        output.status.success(),
        "simulate failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    std::fs::read_to_string(&out).expect("metrics file written")
}

/// Every metric entry must carry a known `type` and a value of the
/// matching shape; returns the counter table for further checks.
fn validate_schema(text: &str) -> Vec<(String, u64)> {
    let doc = Json::parse(text).expect("metrics file parses as JSON");
    let Json::Obj(metrics) = &doc else {
        panic!("top level must be an object, got {doc}");
    };
    let mut counters = Vec::new();
    for (name, entry) in metrics {
        let kind = entry
            .get("type")
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("{name} has no type: {entry}"));
        match kind {
            "counter" => {
                let value = entry
                    .get("value")
                    .and_then(Json::as_u64)
                    .unwrap_or_else(|| panic!("{name} counter needs a u64 value: {entry}"));
                counters.push((name.clone(), value));
            }
            "gauge" => {
                entry
                    .get("value")
                    .and_then(Json::as_f64)
                    .unwrap_or_else(|| panic!("{name} gauge needs a numeric value: {entry}"));
            }
            "histogram" => {
                for field in ["count", "sum", "min", "max"] {
                    entry
                        .get(field)
                        .and_then(Json::as_u64)
                        .unwrap_or_else(|| panic!("{name} histogram needs {field}: {entry}"));
                }
                let buckets = entry
                    .get("buckets")
                    .and_then(Json::as_arr)
                    .unwrap_or_else(|| panic!("{name} histogram needs buckets: {entry}"));
                for bucket in buckets {
                    let pair = bucket
                        .as_arr()
                        .is_some_and(|p| p.len() == 2 && p.iter().all(|v| v.as_u64().is_some()));
                    assert!(pair, "{name} bucket must be a [lo, count] pair: {bucket}");
                }
            }
            other => panic!("{name} has unknown type {other:?}"),
        }
    }
    counters
}

fn counter(counters: &[(String, u64)], name: &str) -> u64 {
    counters
        .iter()
        .find(|(n, _)| n == name)
        .unwrap_or_else(|| panic!("{name} missing from snapshot"))
        .1
}

#[test]
fn metrics_out_writes_a_valid_deterministic_snapshot() {
    let dir = temp_dir();
    let circuit = dir.join("c.bench");
    std::fs::write(&circuit, BENCH).unwrap();

    let first = simulate_metrics(&dir, &circuit, "1", "t1a");
    let counters = validate_schema(&first);
    // The nine kernel counters are always registered, even when zero.
    for name in [
        "sim.blocks",
        "sim.pattern_lanes",
        "sim.events",
        "sim.faults_dropped",
        "sim.stem_obs_hits",
        "sim.stem_obs_misses",
        "sim.polls",
        "sim.steals",
        "sim.steal_misses",
    ] {
        counter(&counters, name);
    }
    assert!(counter(&counters, "sim.blocks") >= 1);
    // Sequential runs never steal.
    assert_eq!(counter(&counters, "sim.steals"), 0);
    assert_eq!(counter(&counters, "sim.steal_misses"), 0);
    let lanes = counter(&counters, "sim.pattern_lanes");
    assert!(
        (1..=512).contains(&lanes),
        "dropping may stop the stream early, but never exceed --patterns: {lanes}"
    );
    let dropped = counter(&counters, "sim.faults_dropped");
    assert!(dropped >= 1, "512 random patterns detect something");

    // Identical invocation → bit-identical snapshot (no wall-clock
    // metric on this path, and the sink orders keys).
    let again = simulate_metrics(&dir, &circuit, "1", "t1b");
    assert_eq!(first, again, "same run must write the same bytes");

    // Fault partitioning replays the stream per worker, so stream
    // -progress counters may grow with --threads — but detections are
    // detections no matter who simulates them.
    let wide = simulate_metrics(&dir, &circuit, "4", "t4");
    let wide_counters = validate_schema(&wide);
    assert_eq!(counter(&wide_counters, "sim.faults_dropped"), dropped);

    // `tpi stats` renders the same file as an aligned table.
    let out = dir.join("metrics-t1a.json");
    let stats = tpi(&["stats", out.to_str().unwrap()]);
    assert!(
        stats.status.success(),
        "stats failed: {}",
        String::from_utf8_lossy(&stats.stderr)
    );
    let table = String::from_utf8(stats.stdout).unwrap();
    assert!(table.starts_with("metric"), "{table}");
    assert!(table.contains("sim.blocks"), "{table}");
    assert!(table.contains("sim.faults_dropped"), "{table}");

    std::fs::remove_dir_all(&dir).ok();
}
