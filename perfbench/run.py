#!/usr/bin/env python3
"""Build the perfbench binary from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload motif-count --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25   # every workload, one summary

The Go build cache, the binary, generated inputs and trace files all go
under .bench_build/ at the repository root. The last stdout line of a
single-workload run is the benchmark's JSON result; see README.md.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BIN = os.path.join(BUILD, "perfbench")
WORKLOADS = ["motif-count", "enum-skewed", "serve-mix", "coord-count"]
# One run must end well inside three minutes.
RUN_TIMEOUT_S = 170


def build():
    env = dict(
        os.environ,
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOTMPDIR=os.path.join(BUILD, "gotmp"),
        GOMODCACHE=os.path.join(BUILD, "gomod"),
        # The go command's config and telemetry counters live under the
        # user config directory; keep them inside the build directory too.
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="-mod=readonly",
        GOWORK="off",
        CGO_ENABLED="0",
    )
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    proc = subprocess.run(["go", "build", "-o", BIN, "."], cwd=HERE, env=env,
                          stdout=sys.stderr, stderr=sys.stderr)
    return proc.returncode == 0


def run_one(args, workload):
    cmd = [BIN, "-workload", workload, "-seed", str(args.seed),
           "-seconds", str(args.seconds), "-trace", str(args.trace),
           "-workdir", os.path.join(BUILD, "tmp"),
           "-trace-file", os.path.join(BUILD, "traces", "%s-seed%d.json" % (workload, args.seed))]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: %s exceeded %ds" % (workload, RUN_TIMEOUT_S), file=sys.stderr)
        return 1, ""
    return proc.returncode, out


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if args.workload != "all":
        code, out = run_one(args, args.workload)
        sys.stdout.write(out)
        return code

    rows, status = [], 0
    for w in WORKLOADS:
        code, out = run_one(args, w)
        sys.stdout.write(out)
        status = status or code
        lines = out.strip().splitlines()
        if code != 0 or not lines:
            continue
        res = json.loads(lines[-1])
        for name, m in sorted(res["metrics"].items()):
            rows.append((w, name, m["value"], m["unit"]))
        if args.trace == 0:
            rows.append((w, "fail_ratio", res["failed"] / res["attempted"], "ratio"))
    print("\n%-12s %-32s %16s  %s" % ("workload", "metric", "value", "unit"))
    for w, name, value, unit in rows:
        print("%-12s %-32s %16.6g  %s" % (w, name, value, unit))
    return status


if __name__ == "__main__":
    sys.exit(main())
