#!/usr/bin/env python3
"""Steadiness of the SpecHD benchmark: how much its metrics move between runs.

    python3 specbench/steady.py --k 10 --out set-a.json
    python3 specbench/steady.py --k 10 --seed-base 101 --out set-b.json
    python3 specbench/steady.py --compare set-a.json set-b.json

The first two forms run every workload of BENCHMARK.json k times through
run.py, for BENCHMARK.json's run_seconds, each with another seed, and print
per end-to-end metric the median, the first and third quartiles
(statistics.quantiles, n=4), the quartile spread (Q3 - Q1) / median and the
range (max - min) / median, next to the metric's bound. The quartile spread
must stay within the bound, and should stay below a third of it. --compare
reads two such sets and prints, per workload and metric, how far the second
median lies from the first in the metric's worse direction, and whether the
share of failed operations is identical. Run from the root of the checkout.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(spec, workload, seed, seconds):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit("run failed: %s seed %d" % (workload, seed))
    return json.loads(proc.stdout.strip().split("\n")[-1])


def spread_rows(spec, runs):
    rows = []
    for metric in spec["end_to_end"]:
        values = [r["metrics"][metric["name"]]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        rows.append({
            "metric": metric["name"], "median": med, "q1": q1, "q3": q3,
            "iqr_share": (q3 - q1) / med if med else float("inf"),
            "range_share": (max(values) - min(values)) / med if med else float("inf"),
            "bound": metric["bound"], "values": values,
        })
    return rows


def print_rows(workload, runs, rows):
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    correct = all(r["correct"] for r in runs)
    print("\n%s: %d runs, correct %s, failed %d of %d operations"
          % (workload, len(runs), correct, failed, attempted))
    print("%-24s %14s %14s %14s %9s %9s %7s %s" % (
        "metric", "median", "q1", "q3", "iqr/med", "rng/med", "bound", "verdict"))
    for row in rows:
        verdict = "ok"
        if row["iqr_share"] > row["bound"]:
            verdict = "OVER BOUND"
        elif row["iqr_share"] > row["bound"] / 3:
            verdict = "over 1/3 bound"
        print("%-24s %14.6g %14.6g %14.6g %9.4f %9.4f %7.3f %s" % (
            row["metric"], row["median"], row["q1"], row["q3"], row["iqr_share"],
            row["range_share"], row["bound"], verdict))


def measure(args, spec):
    result = {}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for i in range(args.k):
            seed = args.seed_base + i
            runs.append(run_once(spec, workload, seed, spec["run_seconds"]))
            print("  %s seed %d done" % (workload, seed), file=sys.stderr)
        rows = spread_rows(spec, runs)
        print_rows(workload, runs, rows)
        result[workload] = {"runs": runs, "rows": rows}
    if args.out:
        with open(args.out, "w") as f:
            json.dump(result, f, indent=1)


def compare(paths, spec):
    sets = []
    for path in paths:
        with open(path) as f:
            sets.append(json.load(f))
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bound = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for workload in sets[0]:
        if workload not in sets[1]:
            continue
        a, b = sets[0][workload], sets[1][workload]
        share = []
        for s in (a, b):
            attempted = sum(r["attempted"] for r in s["runs"])
            failed = sum(r["failed"] for r in s["runs"])
            share.append((failed, attempted))
        same_share = share[0][0] * share[1][1] == share[1][0] * share[0][1]
        print("\n%s: failed share %d/%d vs %d/%d (%s)" % (
            workload, share[0][0], share[0][1], share[1][0], share[1][1],
            "identical" if same_share else "DIFFERENT"))
        ok = ok and same_share
        rows_b = {r["metric"]: r for r in b["rows"]}
        for row in a["rows"]:
            name = row["metric"]
            m1, m2 = row["median"], rows_b[name]["median"]
            worse = (m2 - m1) / m1 if better[name] == "lower" else (m1 - m2) / m1
            verdict = "ok" if worse <= bound[name] else "WORSE THAN BOUND"
            ok = ok and worse <= bound[name]
            print("  %-24s %14.6g %14.6g  worse by %+8.4f (bound %.3f) %s"
                  % (name, m1, m2, worse, bound[name], verdict))
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--k", type=int, default=10, help="runs per workload")
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--out", help="write the runs and spreads here (JSON)")
    parser.add_argument("--compare", nargs=2, metavar=("SET_A", "SET_B"))
    args = parser.parse_args()
    spec = load_spec()
    if args.compare:
        sys.exit(0 if compare(args.compare, spec) else 1)
    measure(args, spec)


if __name__ == "__main__":
    main()
