//! `tpi insert` front-end contracts: thresholds outside `(0, 1]` are
//! refused with a normal error exit (never a panic, never a vacuous
//! δ = 0 run), and `--metrics-out` attributes the optimiser's work —
//! `DpStats` for `--method dp`, `GreedyStats` for `--method greedy`,
//! timed region-DP solves and the counts of skipped solves and filtered
//! faults for `--method constructive`, and for
//! `tpi atpg` the PODEM work of the redundancy sweep and the top-off
//! run together. A flag the command does not read — a typo, one that no
//! longer exists, or one of the other `--objective`'s — is refused before
//! anything runs, and so are
//! `--threads 0` and a `--method` the usage text does not list.

use std::path::{Path, PathBuf};
use std::process::Command;

use krishnamurthy_tpi::core::{DpOptimizer, GreedyOptimizer, RunControl, Threshold, TpiProblem};
use krishnamurthy_tpi::engine::json::Json;
use krishnamurthy_tpi::netlist::bench_format::parse_bench;

/// A 16-wide AND cone: random-pattern resistant at δ = 2⁻⁸, so both the
/// DP and the constructive engine have work to do.
fn cone_bench() -> String {
    let mut text: String = (0..16).map(|i| format!("INPUT(x{i})\n")).collect();
    let mut layer: Vec<String> = (0..16).map(|i| format!("x{i}")).collect();
    let mut g = 0;
    while layer.len() > 1 {
        let mut next = Vec::new();
        for pair in layer.chunks(2) {
            text.push_str(&format!("g{g} = AND({}, {})\n", pair[0], pair[1]));
            next.push(format!("g{g}"));
            g += 1;
        }
        layer = next;
    }
    text.push_str(&format!("OUTPUT({})\n", layer[0]));
    text
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tpi-cli-insert-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn tpi(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_tpi"))
        .args(args)
        .output()
        .expect("tpi runs")
}

fn metrics(path: &Path) -> Json {
    Json::parse(&std::fs::read_to_string(path).expect("metrics written")).unwrap()
}

fn value(doc: &Json, name: &str) -> u64 {
    doc.get(name)
        .and_then(|entry| entry.get("value"))
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("{name} missing: {doc}"))
}

#[test]
fn insert_refuses_thresholds_outside_the_unit_interval() {
    let dir = temp_dir("threshold");
    let circuit = dir.join("cone.bench");
    std::fs::write(&circuit, cone_bench()).unwrap();
    // NaN, δ = 2³ > 1, and δ = 2⁻⁵⁰⁰⁰ which underflows to 0.
    for exponent in ["nan", "3", "-5000"] {
        let output = tpi(&[
            "insert",
            circuit.to_str().unwrap(),
            "--log2-threshold",
            exponent,
        ]);
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(1), "{exponent}: {stderr}");
        assert!(
            stderr.contains("bad --log2-threshold") && stderr.contains("outside (0, 1]"),
            "{exponent}: {stderr}"
        );
        assert!(output.stdout.is_empty(), "{exponent}: nothing may run");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn dp_insert_publishes_the_dp_work_counters() {
    let dir = temp_dir("dp");
    let text = cone_bench();
    let circuit = dir.join("cone.bench");
    std::fs::write(&circuit, &text).unwrap();
    let out = dir.join("metrics.json");
    let output = tpi(&[
        "insert",
        circuit.to_str().unwrap(),
        "--log2-threshold",
        "-8",
        "--method",
        "dp",
        "--metrics-out",
        out.to_str().unwrap(),
    ]);
    assert!(
        output.status.success(),
        "{}",
        String::from_utf8_lossy(&output.stderr)
    );
    // The same solve through the library gives the published figures.
    let parsed = parse_bench(&text).unwrap();
    let problem = TpiProblem::min_cost(&parsed, Threshold::from_log2(-8.0)).unwrap();
    let (_, stats) = DpOptimizer::default().solve_with_stats(&problem).unwrap();
    let doc = metrics(&out);
    assert_eq!(value(&doc, "core.dp.nodes"), stats.nodes as u64);
    assert_eq!(
        value(&doc, "core.dp.states_created"),
        stats.states_created as u64
    );
    assert_eq!(
        value(&doc, "core.dp.max_frontier"),
        stats.max_frontier as u64
    );
    assert_eq!(
        doc.get("core.dp.max_frontier")
            .and_then(|e| e.get("type"))
            .and_then(Json::as_str),
        Some("gauge")
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn greedy_insert_publishes_the_greedy_work_counters() {
    let dir = temp_dir("greedy");
    let text = cone_bench();
    let circuit = dir.join("cone.bench");
    std::fs::write(&circuit, &text).unwrap();
    let out = dir.join("metrics.json");
    let output = tpi(&[
        "insert",
        circuit.to_str().unwrap(),
        "--log2-threshold",
        "-8",
        "--method",
        "greedy",
        "--metrics-out",
        out.to_str().unwrap(),
    ]);
    assert!(
        output.status.success(),
        "{}",
        String::from_utf8_lossy(&output.stderr)
    );
    // The same solve through the library gives the published figures.
    let parsed = parse_bench(&text).unwrap();
    let problem = TpiProblem::min_cost(&parsed, Threshold::from_log2(-8.0)).unwrap();
    let (_, _, stats) = GreedyOptimizer::default()
        .solve_with_stats(&problem, &RunControl::unlimited())
        .unwrap();
    assert!(stats.rounds >= 1 && stats.probes > 0 && stats.probe_nodes > 0);
    let doc = metrics(&out);
    assert_eq!(value(&doc, "core.greedy.rounds"), stats.rounds as u64);
    assert_eq!(value(&doc, "core.greedy.probes"), stats.probes as u64);
    assert_eq!(
        value(&doc, "core.greedy.probe_nodes"),
        stats.probe_nodes as u64
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn constructive_insert_times_every_region_dp_solve() {
    let dir = temp_dir("constructive");
    let circuit = dir.join("cone.bench");
    std::fs::write(&circuit, cone_bench()).unwrap();
    let out = dir.join("metrics.json");
    let output = tpi(&[
        "insert",
        circuit.to_str().unwrap(),
        "--log2-threshold",
        "-8",
        "--method",
        "constructive",
        "--metrics-out",
        out.to_str().unwrap(),
    ]);
    assert!(
        output.status.success(),
        "{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let doc = metrics(&out);
    let count = |name: &str| {
        doc.get(name)
            .and_then(|h| h.get("count"))
            .and_then(Json::as_u64)
            .unwrap_or_else(|| panic!("{name} missing: {doc}"))
    };
    let solves = count("engine.region_dp_us");
    assert!(solves >= 1, "{doc}");
    assert_eq!(solves, value(&doc, "engine.memo_misses"));
    assert_eq!(count("engine.optimize_us"), 1);
    // The work cuts publish their counters even when they cut nothing.
    value(&doc, "engine.region_dp_skipped");
    value(&doc, "search.faults_filtered");

    // On a 400-gate DAG both cuts fire: regions that cannot enter a
    // round's kept list go unsolved, and control/full candidate runs
    // leave out faults that cannot reach their cut set.
    let dag = Path::new(env!("CARGO_MANIFEST_DIR")).join("results/dag400_s5.bench");
    let output = tpi(&[
        "insert",
        dag.to_str().unwrap(),
        "--log2-threshold",
        "-10",
        "--method",
        "constructive",
        "--metrics-out",
        out.to_str().unwrap(),
    ]);
    assert!(
        output.status.success(),
        "{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let doc = metrics(&out);
    assert!(value(&doc, "engine.region_dp_skipped") >= 1, "{doc}");
    assert!(value(&doc, "search.faults_filtered") >= 1, "{doc}");
    let solves = doc
        .get("engine.region_dp_us")
        .and_then(|h| h.get("count"))
        .and_then(Json::as_u64);
    assert_eq!(solves, Some(value(&doc, "engine.memo_misses")));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn atpg_metrics_count_the_redundancy_sweep() {
    // y = AND(OR(x, NOT x), z): OR(x, NOT x) ≡ 1, so the sweep proves
    // faults redundant, each by exhausting a decision tree.
    let dir = temp_dir("atpg");
    let circuit = dir.join("redundant.bench");
    std::fs::write(
        &circuit,
        "INPUT(x)\nINPUT(z)\nnx = NOT(x)\nt = OR(x, nx)\ny = AND(t, z)\nOUTPUT(y)\n",
    )
    .unwrap();
    let out = dir.join("metrics.json");
    let output = tpi(&[
        "atpg",
        circuit.to_str().unwrap(),
        "--metrics-out",
        out.to_str().unwrap(),
    ]);
    assert!(
        output.status.success(),
        "{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    // "<name>: N faults — T testable, R redundant, U undecided"
    let redundant: u64 = stdout
        .lines()
        .next()
        .and_then(|summary| {
            summary
                .split(", ")
                .find_map(|part| part.strip_suffix(" redundant"))
        })
        .and_then(|count| count.parse().ok())
        .unwrap_or_else(|| panic!("no redundant count in: {stdout}"));
    assert!(redundant > 0, "{stdout}");
    let doc = metrics(&out);
    assert_eq!(value(&doc, "atpg.redundant_faults"), redundant, "{doc}");
    let backtracks = value(&doc, "atpg.backtracks");
    assert!(backtracks > 0, "{doc}");
    assert!(value(&doc, "atpg.decisions") > backtracks, "{doc}");
    assert!(value(&doc, "atpg.implications") > 0, "{doc}");
    // The work line reports the same merged counters.
    assert!(
        stdout.contains(&format!("{backtracks} backtracks")),
        "{stdout}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Runs `tpi` and requires a normal error exit that names `flag` as
/// unknown, with nothing printed to stdout.
fn assert_refuses_flag(args: &[&str], flag: &str) {
    let output = tpi(args);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "{args:?}: {stderr}");
    assert!(
        stderr.contains(&format!("unknown flag `{flag}`")),
        "{args:?}: {stderr}"
    );
    assert!(output.stdout.is_empty(), "{args:?}: nothing may run");
}

#[test]
fn misspelt_flags_are_refused() {
    let dir = temp_dir("typo");
    let circuit = dir.join("cone.bench");
    std::fs::write(&circuit, cone_bench()).unwrap();
    let path = circuit.to_str().unwrap();
    // `--metod greedy` must not silently run the default DP.
    assert_refuses_flag(&["insert", path, "--metod", "greedy"], "--metod");
    assert_refuses_flag(&["simulate", path, "--patern", "64"], "--patern");
    assert_refuses_flag(&["analyze", path, "--bogus-flag", "1"], "--bogus-flag");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn the_removed_simd_backend_flag_is_refused() {
    let dir = temp_dir("backend");
    let circuit = dir.join("cone.bench");
    std::fs::write(&circuit, cone_bench()).unwrap();
    let path = circuit.to_str().unwrap();
    for command in ["simulate", "insert"] {
        assert_refuses_flag(
            &[command, path, "--simd-backend", "avx512"],
            "--simd-backend",
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn coverage_insert_refuses_the_patterns_flags() {
    let dir = temp_dir("coverage-flags");
    let circuit = dir.join("cone.bench");
    std::fs::write(&circuit, cone_bench()).unwrap();
    let path = circuit.to_str().unwrap();
    for (flag, value) in [
        ("--max-points", "2"),
        ("--probe-width", "2"),
        ("--max-backtracks", "10"),
    ] {
        assert_refuses_flag(&["insert", path, flag, value], flag);
        assert_refuses_flag(
            &["insert", path, "--objective", "coverage", flag, value],
            flag,
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn patterns_insert_refuses_the_coverage_flags() {
    let dir = temp_dir("patterns-flags");
    let circuit = dir.join("cone.bench");
    std::fs::write(&circuit, cone_bench()).unwrap();
    let path = circuit.to_str().unwrap();
    for (flag, value) in [
        ("--log2-threshold", "-8"),
        ("--test-length", "1000"),
        ("--confidence", "0.9"),
        ("--threads", "1"),
        ("--candidate-eval", "batched"),
        ("--score-threads", "1"),
        ("--block-words", "4"),
        ("--detection", "cpt"),
    ] {
        assert_refuses_flag(
            &["insert", path, "--objective", "patterns", flag, value],
            flag,
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn zero_threads_are_refused() {
    let dir = temp_dir("threads");
    let circuit = dir.join("cone.bench");
    std::fs::write(&circuit, cone_bench()).unwrap();
    let path = circuit.to_str().unwrap();
    for command in ["simulate", "insert"] {
        let output = tpi(&[command, path, "--threads", "0"]);
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(1), "{command}: {stderr}");
        assert!(
            stderr.contains("--threads must be ≥ 1"),
            "{command}: {stderr}"
        );
        assert!(output.stdout.is_empty(), "{command}: nothing may run");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unlisted_methods_are_refused() {
    let dir = temp_dir("method");
    let circuit = dir.join("cone.bench");
    std::fs::write(&circuit, cone_bench()).unwrap();
    let path = circuit.to_str().unwrap();
    let output = tpi(&["insert", path, "--method", "annealing"]);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("unknown method `annealing`"), "{stderr}");
    assert!(output.stdout.is_empty(), "nothing may run");
    // The usage text lists exactly the methods `insert` runs.
    let help = tpi(&["help"]);
    let usage = String::from_utf8_lossy(&help.stderr);
    assert!(
        usage.contains("[--method dp|greedy|constructive]"),
        "{usage}"
    );
    std::fs::remove_dir_all(&dir).ok();
}
