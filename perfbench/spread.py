#!/usr/bin/env python3
"""Spread report for perfbench runs (stdlib only; stands in for benchstat).

Each input file is the stdout of one `perfbench/run.py` run: the header
line names the workload, the last line is the JSON result. For every
(workload, metric) the report prints the run count, median, quartiles
(statistics.quantiles, n=4), IQR/median and (max-min)/median, and flags
spreads above a metric's bound in BENCHMARK.json ("!!") or above a third
of it ("!"). The "(cpu_steal_pct)" row is the share of machine CPU time
the hypervisor took during each run's measured phase: runs with high
steal were slowed by other tenants.

    python3 perfbench/spread.py report OUT/*.out
    python3 perfbench/spread.py run --workloads motif-count,serve-mix --seeds 1-10 --out OUT
    python3 perfbench/spread.py run --seeds 1-10 --out OUT --report

`run` executes `python3 perfbench/run.py` once per (workload, seed) from
the repository root and saves each stdout as OUT/<workload>-seed<N>.out.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_bench():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return json.load(f)
    except OSError:
        return {}


def parse_run(path):
    """Returns (workload, trace, result) for one run's stdout, or None."""
    with open(path) as f:
        lines = [l.strip() for l in f if l.strip()]
    if not lines:
        return None
    header = dict(kv.split("=", 1) for kv in lines[0].split()[1:] if "=" in kv)
    try:
        res = json.loads(lines[-1])
    except ValueError:
        return None
    # The hypervisor's steal during the measured phase explains outliers;
    # it is reported beside the metrics, never folded into them.
    for l in lines:
        if l.startswith("cpu_steal = "):
            res.setdefault("metrics", {})["(cpu_steal_pct)"] = {"value": float(l.split()[2]), "unit": "%"}
    return header.get("workload", "?"), header.get("trace", "0"), res


def report(paths, out=sys.stdout):
    bench = load_bench()
    bounds = {m["name"]: m["bound"] for m in bench.get("end_to_end", [])}
    groups = {}
    bad = []
    for p in paths:
        parsed = parse_run(p)
        if parsed is None:
            bad.append(p)
            continue
        workload, trace, res = parsed
        if not res.get("correct", False) or res.get("failed", 0):
            bad.append(p)
        for name, m in res["metrics"].items():
            groups.setdefault((workload, trace, name), []).append(m["value"])
    print("%-12s %-30s %3s %12s %12s %12s %8s %8s %6s" % (
        "workload", "metric", "n", "median", "q1", "q3", "iqr/med", "rng/med", "bound"), file=out)
    worst = 0
    for (workload, trace, name), vals in sorted(groups.items()):
        med = statistics.median(vals)
        if len(vals) >= 2:
            q1, _, q3 = statistics.quantiles(vals, n=4)
        else:
            q1 = q3 = vals[0]
        iqr = (q3 - q1) / med if med else float("nan")
        rng = (max(vals) - min(vals)) / med if med else float("nan")
        bound = bounds.get(name) if trace == "0" else None
        flag = ""
        if bound is not None:
            if iqr > bound:
                flag, worst = "!!", 2
            elif iqr > bound / 3:
                flag, worst = "!", max(worst, 1)
        print("%-12s %-30s %3d %12.6g %12.6g %12.6g %8.4f %8.4f %6s %s" % (
            workload, name, len(vals), med, q1, q3, iqr, rng,
            "" if bound is None else bound, flag), file=out)
    for p in bad:
        print("failed or incorrect run: %s" % p, file=out)
    return 1 if bad or worst == 2 else 0


def seed_list(spec):
    seeds = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run(args):
    bench = load_bench()
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    seconds = args.seconds or bench.get("run_seconds", 25)
    os.makedirs(args.out, exist_ok=True)
    paths = []
    for w in workloads:
        for s in seed_list(args.seeds):
            path = os.path.join(args.out, "%s-seed%d%s.out" % (w, s, "-trace" if args.trace else ""))
            with open(path, "w") as f:
                code = subprocess.call([sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
                                        "--seed", str(s), "--seconds", str(seconds),
                                        "--trace", str(args.trace)], stdout=f, cwd=ROOT)
            print("%s seed %d: exit %d" % (w, s, code), file=sys.stderr)
            paths.append(path)
    return report(paths) if args.report else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="cmd", required=True)
    rp = sub.add_parser("report", help="summarize saved run outputs")
    rp.add_argument("files", nargs="+")
    rr = sub.add_parser("run", help="run workloads over seeds and save their outputs")
    rr.add_argument("--workloads", default="", help="comma-separated (default: all in BENCHMARK.json)")
    rr.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 1,4,7")
    rr.add_argument("--seconds", type=float, default=0, help="default: run_seconds from BENCHMARK.json")
    rr.add_argument("--trace", type=int, choices=[0, 1], default=0)
    rr.add_argument("--out", required=True)
    rr.add_argument("--report", action="store_true", help="print the spread report afterwards")
    args = ap.parse_args()
    if args.cmd == "report":
        return report(args.files)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
