//! The driver mirrors `tpi insert`: on one small generated input per
//! workload, its points, cost, closing coverage and `patterns_after`
//! equal what the built `tpi` binary prints for the same `.bench` file.

use std::path::PathBuf;
use std::process::Command;
use std::time::Instant;

use krishnamurthy_tpi::engine::json::Json;
use tpi_perfbench::job::{run_job, JobOutput, Method};
use tpi_perfbench::trace::Recorder;
use tpi_perfbench::workload::{generate, present, Shape, WORKLOADS};

/// The `tpi` binary: `TPI_BIN` when set, else built from the repository
/// into this test's scratch directory.
fn tpi_binary() -> PathBuf {
    if let Some(bin) = std::env::var_os("TPI_BIN") {
        return PathBuf::from(bin);
    }
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..");
    let target = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("tpi");
    let status = Command::new(env!("CARGO"))
        .args(["build", "--release", "--offline", "--quiet", "--bin", "tpi"])
        .arg("--manifest-path")
        .arg(root.join("Cargo.toml"))
        .arg("--target-dir")
        .arg(&target)
        .status()
        .expect("cargo runs");
    assert!(status.success(), "building tpi failed");
    target.join("release").join("tpi")
}

/// What one side reports, in `tpi insert`'s own formatting.
#[derive(Debug, PartialEq)]
struct Summary {
    points: Vec<String>,
    cost: String,
    coverage: Option<String>,
    patterns_after: Option<u64>,
}

impl Summary {
    fn of_driver(method: Method, out: &JobOutput) -> Summary {
        match method {
            Method::Patterns { .. } => Summary {
                points: out.points.clone(),
                cost: out.cost.to_string(),
                coverage: None,
                patterns_after: out.patterns.map(|(_, after)| after as u64),
            },
            _ => Summary {
                points: out.points.clone(),
                cost: format!("{:.2}", out.cost),
                coverage: out.coverage_pct.map(|c| format!("{c:.2}")),
                patterns_after: None,
            },
        }
    }

    /// The report text of a coverage run: `N points, cost C:` followed
    /// by `  - <kind> at `<node>` (cost …)` lines, then the measured
    /// coverage line.
    fn of_coverage_stdout(stdout: &str) -> Summary {
        let mut summary = Summary {
            points: Vec::new(),
            cost: "0.00".into(),
            coverage: None,
            patterns_after: None,
        };
        for line in stdout.lines() {
            if let Some(rest) = line.trim_start().strip_prefix("- ") {
                let (kind, rest) = rest.split_once(" at `").expect("point line");
                let node = rest.split('`').next().expect("node name");
                summary.points.push(format!("{kind}@{node}"));
            } else if let Some((_, cost)) = line.split_once(" points, cost ") {
                summary.cost = cost.trim_end_matches(':').to_string();
            } else if let Some(rest) = line.strip_prefix("measured coverage after insertion: ") {
                summary.coverage = rest.split('%').next().map(String::from);
            }
        }
        summary
    }

    /// The machine-readable JSON line of a pattern-count run.
    fn of_patterns_stdout(stdout: &str) -> Summary {
        let line = stdout
            .lines()
            .find(|l| l.starts_with('{') && l.contains("\"objective\":\"patterns\""))
            .expect("plan JSON line");
        let json = Json::parse(line).expect("valid JSON");
        let points = json
            .get("points")
            .and_then(Json::as_arr)
            .expect("points")
            .iter()
            .map(|p| {
                let field = |k| p.get(k).and_then(Json::as_str).expect("point field");
                format!("{}@{}", field("kind"), field("node"))
            })
            .collect();
        Summary {
            points,
            cost: json
                .get("cost")
                .and_then(Json::as_f64)
                .expect("cost")
                .to_string(),
            coverage: None,
            patterns_after: json.get("patterns_after").and_then(Json::as_u64),
        }
    }
}

#[test]
fn driver_matches_tpi_insert_on_every_workload() {
    let tpi = tpi_binary();
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("parity");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    for workload in WORKLOADS {
        let spec = workload.jobs[0];
        let shape = match spec.shape {
            Shape::Tree(_) => Shape::Tree(64),
            Shape::Dag(_) => Shape::Dag(100),
        };
        let circuit = generate(shape, spec.circuit_seed).expect("generates");
        let text = present(&circuit, 7);
        let name = format!("parity_{}", workload.name);
        let path = dir.join(format!("{name}.bench"));
        std::fs::write(&path, &text).expect("writes input");

        let mut rec = Recorder::new(Instant::now());
        let out = run_job(spec.method, &name, &text, 2, &mut rec).expect("driver job runs");
        let printed = Command::new(&tpi)
            .arg("insert")
            .arg(&path)
            .args(spec.method.cli_args())
            .output()
            .expect("tpi runs");
        assert!(
            printed.status.success(),
            "tpi insert failed on {}",
            workload.name
        );
        let stdout = String::from_utf8(printed.stdout).expect("utf-8");
        let cli = match spec.method {
            Method::Patterns { .. } => Summary::of_patterns_stdout(&stdout),
            _ => Summary::of_coverage_stdout(&stdout),
        };
        let driver = Summary::of_driver(spec.method, &out);
        assert!(
            !driver.points.is_empty(),
            "{}: the parity input inserts nothing",
            workload.name
        );
        assert_eq!(
            driver, cli,
            "{}: driver and tpi insert disagree",
            workload.name
        );
    }
}
