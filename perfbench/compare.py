#!/usr/bin/env python3
"""Compare benchmark result sets, or check one set's steadiness.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR   # parent vs change
    python3 perfbench/compare.py --steady DIR            # one commit

A result set is a directory of files written by `run.py --out DIR`
(or `sweep.py`), one per workload and seed. Bounds and directions come
from `BENCHMARK.json`.

Comparison: for every metric and workload, runs are paired by seed and
the table gives each side's median and quartiles, the change's pair wins
(ties count for neither side) and a verdict:

* improved   — the change wins at least 9 of every 10 pairs and the
               medians differ, in its favour, by more than the parent's
               own spread (the distance between its quartiles);
* unresolved — the parent's spread, as a share of its median, is wider
               than the metric's bound, unless every change run reads
               better than every parent run;
* worse      — the change's median is worse than the parent's by more
               than the bound;
* unchanged  — otherwise.

Steadiness: each metric's quartile spread as a share of its median,
against its bound (`setup_s` is reported but exempt), and whether it is
within a third of the bound.
"""

import argparse
import json
import pathlib
import statistics
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def load_set(directory, trace):
    """{(workload, seed): {metric: value}} of one result set."""
    runs = {}
    for path in sorted(pathlib.Path(directory).glob("*.json")):
        record = json.loads(path.read_text())
        if record.get("trace") != trace:
            continue
        if not record["result"]["correct"]:
            print(f"warning: {path} reports correct=false", file=sys.stderr)
        values = {k: v["value"] for k, v in record["result"]["metrics"].items()}
        runs[(record["workload"], record["seed"])] = values
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def better(a, b, direction):
    return a < b if direction == "lower" else a > b


def verdict(parent, change, metric):
    direction, bound = metric["better"], metric.get("bound")
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    pairs = list(zip(parent, change))
    wins = sum(better(c, p, direction) for p, c in pairs)
    gain = (pm - cm) if direction == "lower" else (cm - pm)
    if pairs and wins >= 0.9 * len(pairs) and gain > (p3 - p1):
        return "improved", wins
    if bound is None:
        return ("unchanged" if gain >= 0 else "changed"), wins
    spread = (p3 - p1) / abs(pm) if pm else float("inf")
    all_better = all(better(c, p, direction) for c in change for p in parent)
    if spread > bound and not all_better:
        return "unresolved", wins
    worse_by = -gain / abs(pm) if pm else (0.0 if gain >= 0 else float("inf"))
    return ("worse" if worse_by > bound else "unchanged"), wins


def metric_specs(spec, trace):
    return spec["per_layer"] if trace else spec["end_to_end"]


def compare(args, spec):
    parent = load_set(args.sets[0], args.trace)
    change = load_set(args.sets[1], args.trace)
    print(f"{'workload':<18} {'metric':<28} {'parent q1/med/q3':>32} "
          f"{'change q1/med/q3':>32} {'wins':>7}  verdict")
    status = 0
    for w in [w["name"] for w in spec["workloads"]]:
        seeds = sorted(s for (wl, s) in parent if wl == w and (wl, s) in change)
        if not seeds:
            continue
        for metric in metric_specs(spec, args.trace):
            name = metric["name"]
            p = [parent[(w, s)][name] for s in seeds]
            c = [change[(w, s)][name] for s in seeds]
            result, wins = verdict(p, c, metric)
            status |= result == "worse"
            pq = "/".join(f"{v:.4g}" for v in quartiles(p))
            cq = "/".join(f"{v:.4g}" for v in quartiles(c))
            print(f"{w:<18} {name:<28} {pq:>32} {cq:>32} {wins:>3}/{len(seeds):<3}  {result}")
    return status


def steady(args, spec):
    runs = load_set(args.sets[0], args.trace)
    print(f"{'workload':<18} {'metric':<28} {'n':>3} {'q1/med/q3':>32} {'spread':>8} {'bound':>6}  verdict")
    status = 0
    for w in [w["name"] for w in spec["workloads"]]:
        keys = sorted(s for (wl, s) in runs if wl == w)
        if not keys:
            continue
        for metric in metric_specs(spec, args.trace):
            name, bound = metric["name"], metric.get("bound")
            values = [runs[(w, s)][name] for s in keys]
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / abs(med) if med else float("inf")
            if bound is None:
                result = "no bound"
            elif name == "setup_s":
                result = "exempt"
            elif spread <= bound / 3:
                result = "steady"
            elif spread <= bound:
                result = "within bound"
            else:
                result = "too wide"
                status = 1
            qs = f"{q1:.4g}/{med:.4g}/{q3:.4g}"
            b = f"{bound:.2f}" if bound is not None else "-"
            print(f"{w:<18} {name:<28} {len(values):>3} {qs:>32} {spread:>8.3f} {b:>6}  {result}")
    return status


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("sets", nargs="+", type=pathlib.Path, help="result set directories")
    p.add_argument("--steady", action="store_true", help="steadiness of one result set")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="compare traced (per-layer) runs instead of end-to-end ones")
    p.add_argument("--spec", type=pathlib.Path, default=ROOT / "BENCHMARK.json")
    args = p.parse_args()
    spec = json.loads(args.spec.read_text())
    if args.steady:
        if len(args.sets) != 1:
            p.error("--steady takes one result set")
        sys.exit(steady(args, spec))
    if len(args.sets) != 2:
        p.error("comparison takes two result sets: PARENT_DIR CHANGE_DIR")
    sys.exit(compare(args, spec))


if __name__ == "__main__":
    main()
