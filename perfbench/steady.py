#!/usr/bin/env python3
"""Steadiness check: run each workload in two separate sets of repeated runs.

Run from the root of a checkout:

    python3 perfbench/steady.py [--runs 5] [--seconds S] [--workloads ingest,lookup,scan] [--seed 1000]

Each set runs every workload --runs times, each run with its own seed (the
second set continues the seed sequence, so no seed repeats). For every
end-to-end metric of BENCHMARK.json the command prints each set's median and
quartiles, the spread (interquartile distance over median) of each set and
of both together, the drift of the second median against the first, and
whether the metric holds: every set's spread within its bound, and the two
medians within the bound of each other in either direction. It also compares the share of failed
operations between the sets, which must be identical. Raw results are kept
in .bench_build/steady/results.jsonl. Exit status 0 means everything held.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}")
    lines = out.stdout.strip().splitlines()
    res = json.loads(lines[-1])
    # Report-only metrics (the workload's own names, such as tails left out
    # of BENCHMARK.json) are printed as "metric <name> <value> <unit>".
    res["report"] = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) >= 3 and parts[0] == "metric" and parts[1] not in res["metrics"]:
            res["report"][parts[1]] = float(parts[2])
    return res


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summary(vals):
    """Quartiles per set, spreads (set 1, set 2, both) and the median drift."""
    q = [quartiles(v) for v in vals]
    both = quartiles(vals[0] + vals[1])
    spreads = [(b[2] - b[0]) / b[1] if b[1] else float("inf") for b in q + [both]]
    drift = (q[1][1] - q[0][1]) / q[0][1] if q[0][1] else float("inf")
    fmt = lambda b: f"{b[0]:.4g}/{b[1]:.4g}/{b[2]:.4g}"
    row = (f"{fmt(q[0]):>32} {fmt(q[1]):>32} "
           f"{spreads[0]:6.3f} {spreads[1]:6.3f} {spreads[2]:6.3f} {drift:+7.3f}")
    return row, spreads, drift


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=5, help="runs per set and workload")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seed", type=int, default=1000, help="first seed")
    args = ap.parse_args()
    if args.runs < 2:
        ap.error("--runs must be at least 2")

    out_dir = os.path.join(ROOT, ".bench_build", "steady")
    os.makedirs(out_dir, exist_ok=True)
    raw = open(os.path.join(out_dir, "results.jsonl"), "a")
    ok = True
    for workload in args.workloads.split(","):
        sets = [[], []]
        seed = args.seed
        for s in range(2):
            for _ in range(args.runs):
                res = run_once(workload, seed, args.seconds)
                raw.write(json.dumps({"workload": workload, "set": s, "seed": seed, "result": res}) + "\n")
                raw.flush()
                if not res["correct"]:
                    print(f"{workload} seed {seed}: INCORRECT")
                    ok = False
                sets[s].append(res)
                seed += 1
        print(f"\n== {workload}: {args.runs} runs per set, {args.seconds} s each")
        shares = [sorted({r["failed"] / r["attempted"] for r in runs}) for runs in sets]
        same_share = len(shares[0]) == 1 and shares[0] == shares[1]
        ok &= same_share
        print(f"failed share per run: set1 {shares[0]} set2 {shares[1]} {'same' if same_share else 'DIFFERENT'}")
        print(f"{'metric':28} {'bound':>6} {'set1 q1/med/q3':>32} {'set2 q1/med/q3':>32} "
              f"{'spr1':>6} {'spr2':>6} {'spr':>6} {'drift':>7}  verdict")
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            row, spreads, drift = summary([[r["metrics"][name]["value"] for r in runs] for runs in sets])
            steady = max(spreads) <= bound
            agree = abs(drift) <= bound
            ok &= steady and agree
            verdict = "ok" if steady and agree else ("UNSTEADY" if not steady else "DRIFT")
            print(f"{name:28} {bound:6.2f} {row}  {verdict}")
        for name in sorted(set(sets[0][0]["report"]) & set(sets[1][0]["report"])):
            vals = [[r["report"][name] for r in runs if name in r["report"]] for runs in sets]
            if min(len(v) for v in vals) >= 2:
                print(f"{name:28} {'-':>6} {summary(vals)[0]}  report only")
    raw.close()
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
