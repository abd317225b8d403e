#!/usr/bin/env python3
"""Run one benchmark workload and print its result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--threads N] [--out DIR]

Builds the `perfbench` driver (a package of its own in this directory,
depending on the repository by path) with `cargo build --release
--offline`, runs it, echoes its human-readable lines, and prints as the
last line one JSON object with the keys `correct`, `attempted`, `failed`
and `metrics`. `metrics` holds the `end_to_end` metrics of
`BENCHMARK.json` with `--trace 0` and its `per_layer` metrics with
`--trace 1`. With `--out DIR` the run is also saved as one JSON file
there (host facts and every metric the driver measured), for
`compare.py`.

Set `CARGO_TARGET_DIR` to choose the build directory (default:
`perfbench/target`). Exits non-zero without a result line when the
build, the run or any check fails.
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent

# The driver's own time limit on top of --seconds: one pass may overrun
# the budget, and a traced run makes at least four passes.
RUN_GRACE_S = 150
BUILD_TIMEOUT_S = 870


def fail(message, code=2):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--threads", type=int)
    p.add_argument("--out", type=pathlib.Path)
    return p.parse_args()


def tool_output(cmd, cwd):
    try:
        done = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main():
    args = parse_args()
    spec_path = ROOT / "BENCHMARK.json"
    try:
        spec = json.loads(spec_path.read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read {spec_path}: {e}")
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}")
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]

    env = dict(os.environ)
    target = pathlib.Path(env.get("CARGO_TARGET_DIR") or HERE / "target")
    if not target.is_absolute():
        target = pathlib.Path.cwd() / target
    env["CARGO_TARGET_DIR"] = str(target)
    build = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", str(HERE / "Cargo.toml"), "--bin", "perfbench",
    ]
    try:
        built = subprocess.run(build, stdout=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if built.returncode != 0:
        fail(f"build failed with exit code {built.returncode}")

    env["PERFBENCH_RUSTC"] = tool_output(["rustc", "--version"], ROOT)
    env["PERFBENCH_COMMIT"] = (
        tool_output(["git", "rev-parse", "HEAD"], ROOT) if (ROOT / ".git").exists() else "unknown"
    )
    cmd = [
        str(target / "release" / "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if args.threads is not None:
        cmd += ["--threads", str(args.threads)]
    if args.trace:
        spans_dir = HERE / "out"
        spans_dir.mkdir(exist_ok=True)
        cmd += ["--spans-out", str(spans_dir / f"spans-{args.workload}-seed{args.seed}.jsonl")]
    try:
        run = subprocess.run(
            cmd, stdout=subprocess.PIPE, text=True, env=env,
            timeout=args.seconds + RUN_GRACE_S,
        )
    except subprocess.TimeoutExpired:
        fail("driver timed out")
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        fail(f"driver failed with exit code {run.returncode}", run.returncode or 2)
    try:
        full = json.loads(lines[-1])
    except ValueError:
        fail("driver printed no result line")
    for line in lines[:-1]:
        print(line)
    missing = [m for m in wanted if m not in full["metrics"]]
    if missing:
        fail(f"driver did not measure {', '.join(missing)}")
    result = {
        "correct": full["correct"],
        "attempted": full["attempted"],
        "failed": full["failed"],
        "metrics": {m: full["metrics"][m] for m in wanted},
    }
    if args.out:
        args.out.mkdir(parents=True, exist_ok=True)
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "host": full["host"],
            "result": result,
            "measured": full["metrics"],
        }
        name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
        (args.out / name).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
