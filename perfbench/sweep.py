#!/usr/bin/env python3
"""Run the benchmark over many seeds into result sets for `compare.py`.

    python3 perfbench/sweep.py --out DIR [--seeds 1-10] [--workloads a,b]
                               [--trace 0|1] [--checkout NAME=PATH ...]

Each run is `python3 <checkout>/perfbench/run.py ... --out DIR/<NAME>`,
made from the checkout's root with `BENCHMARK.json`'s `run_seconds`.
With one checkout (default: this one, named `run`) the runs go one
after another. With two, say `--checkout parent=../a --checkout
change=.`, each seed runs on both, alternating which goes first. Each
checkout builds into its own `perfbench/target` unless
`CARGO_TARGET_DIR` is set.
"""

import argparse
import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--out", type=pathlib.Path, required=True)
    p.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    p.add_argument("--workloads")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--checkout", action="append", default=[])
    args = p.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    checkouts = [tuple(c.split("=", 1)) for c in args.checkout] or [("run", str(ROOT))]
    failures = 0
    for seed in args.seeds:
        order = checkouts if seed % 2 else list(reversed(checkouts))
        for w in workloads:
            for name, path in order:
                checkout = pathlib.Path(path).resolve()
                cmd = [
                    sys.executable, str(checkout / "perfbench" / "run.py"),
                    "--workload", w, "--seed", str(seed),
                    "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace),
                    "--out", str((args.out / name).resolve()),
                ]
                done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
                last = done.stdout.strip().splitlines()[-1:] or ["(no result)"]
                print(f"{name} {w} seed {seed}: exit {done.returncode} {last[0]}", flush=True)
                if done.returncode != 0:
                    failures += 1
                    sys.stderr.write(done.stderr[-2000:])
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
