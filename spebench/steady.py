#!/usr/bin/env python3
"""Steadiness and comparison tooling for the end-to-end benchmark.

    python3 spebench/steady.py run --runs N [--workloads a,b] [--first-seed S]
                                   [--seconds T] [--trace 0|1] [--out FILE]
    python3 spebench/steady.py compare BASE.json HEAD.json

`run` calls run.py N times per workload, seeds S .. S+N-1, interleaving
the workloads so that drift on the host spreads over all of them. For
each workload x metric it prints the median, the quartiles (Python's
statistics.quantiles, n=4) and the spread, (Q3 - Q1) / median, against
the metric's bound from BENCHMARK.json:

    steady      spread <= bound / 3
    ok          spread <= bound
    unresolved  spread >  bound: a change smaller than the noise cannot
                be told from no change on this metric

and saves every value to --out (default
.bench_build/steady-<trace>.json) for `compare`.

`compare` pairs two such files run by run (same seeds, same order) and
labels each workload x metric: "regressed" when the head median is worse
than the base median by more than the bound; "improved" when the head
wins at least nine tenths of the pairs and the medians differ by more
than the base's own quartile distance; "unresolved" when either side's
spread exceeds the bound and the head does not beat the base on every
pair; otherwise "unchanged". A run that failed its checks makes the
whole comparison fail.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else float("inf")


def run(args):
    spec = contract()
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    metrics_spec = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = {w: {m["name"]: [] for m in metrics_spec} for w in workloads}
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    failures = 0
    for seed in seeds:
        for w in workloads:
            proc = subprocess.run(
                [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", w,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
            if proc.returncode != 0 or result is None or not result["correct"]:
                failures += 1
                sys.stderr.write(proc.stderr[-2000:])
                print("%s seed %d: FAILED (exit %d)" % (w, seed, proc.returncode), flush=True)
                continue
            for name, m in result["metrics"].items():
                values[w][name].append(m["value"])
            print("%s seed %d: %s" % (w, seed, " ".join(
                "%s=%.4g" % (k, v["value"]) for k, v in result["metrics"].items())), flush=True)
    out = args.out or os.path.join(ROOT, ".bench_build", "steady-%d.json" % args.trace)
    os.makedirs(os.path.dirname(out), exist_ok=True)
    with open(out, "w") as f:
        json.dump({"trace": args.trace, "seeds": seeds, "values": values}, f, indent=1)
    print()
    print("%-10s %-32s %12s %12s %12s %8s %6s  %s" % (
        "workload", "metric", "median", "q1", "q3", "spread", "bound", "label"))
    for w in workloads:
        for m in metrics_spec:
            vals = values[w][m["name"]]
            if not vals:
                continue
            q1, med, q3 = quartiles(vals)
            s = spread(vals)
            bound = m.get("bound")
            if bound is None:
                label = ""
            elif s <= bound / 3:
                label = "steady"
            elif s <= bound:
                label = "ok"
            else:
                label = "unresolved"
            print("%-10s %-32s %12.6g %12.6g %12.6g %8.4f %6s  %s" % (
                w, m["name"], med, q1, q3, s, "-" if bound is None else bound, label))
    print("\nsaved %s; %d failed run(s)" % (out, failures))
    return 1 if failures else 0


def compare(args):
    spec = contract()
    with open(args.base) as f:
        base = json.load(f)
    with open(args.head) as f:
        head = json.load(f)
    metrics_spec = spec["per_layer"] if base["trace"] else spec["end_to_end"]
    print("%-10s %-22s %12s %12s %9s %8s %8s  %s" % (
        "workload", "metric", "base", "head", "change", "b.spread", "h.spread", "label"))
    for w in base["values"]:
        for m in metrics_spec:
            b = base["values"][w].get(m["name"], [])
            h = head["values"].get(w, {}).get(m["name"], [])
            if not b or not h:
                continue
            sign = 1.0 if m["better"] == "higher" else -1.0
            bq1, bmed, bq3 = quartiles(b)
            hmed = statistics.median(h)
            gain = sign * (hmed - bmed) / bmed if bmed else 0.0  # > 0 is better
            pairs = list(zip(b, h))
            wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
            every = all(sign * (y - x) > 0 for x, y in pairs)
            bound = m.get("bound", 0.0)
            if -gain > bound:
                label = "regressed"
            elif wins >= 0.9 * len(pairs) and abs(hmed - bmed) > (bq3 - bq1):
                label = "improved"
            elif max(spread(b), spread(h)) > bound and not every:
                label = "unresolved"
            else:
                label = "unchanged"
            print("%-10s %-22s %12.6g %12.6g %+8.2f%% %8.4f %8.4f  %s" % (
                w, m["name"], bmed, hmed, 100 * gain, spread(b), spread(h), label))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    r = sub.add_parser("run")
    r.add_argument("--runs", type=int, default=10)
    r.add_argument("--workloads", default="")
    r.add_argument("--first-seed", type=int, default=1)
    r.add_argument("--seconds", type=float, default=0)
    r.add_argument("--trace", type=int, choices=(0, 1), default=0)
    r.add_argument("--out", default="")
    c = sub.add_parser("compare")
    c.add_argument("base")
    c.add_argument("head")
    args = parser.parse_args()
    return run(args) if args.command == "run" else compare(args)


if __name__ == "__main__":
    sys.exit(main())
