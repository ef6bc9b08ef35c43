#!/usr/bin/env python3
"""Measure the benchmark's run-to-run spread and whether it repeats.

Runs every workload (or the ones named) several times, each with another
seed, and records for every end-to-end metric the median and quartiles
of its values and the spread, (Q3 - Q1) / median. With --sets 2 it runs
that set of seeds twice and checks that every end-to-end median of the
second set lies within the metric's bound in BENCHMARK.json of the
first. With --same-seed N it also runs seed N as often as a set has
runs, which separates run-to-run noise from differences between the
seeds' corpora. Run from the repository root:

    python3 perfbench/steadiness.py --runs 10 --first-seed 11 --sets 2 --same-seed 11 \\
        --seconds 25 --out perfbench/steadiness.json

With --runs 1 it is the one command that prints every end-to-end
metric, with its unit, and the error rate for all three workloads. A
run that reports failed operations, or a second set whose medians leave
the bounds, makes the script exit non-zero.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds):
    cmd = ["bash", "perfbench/bench.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def run_set(label, workloads, seeds, seconds):
    """Runs each workload once per seed; returns {workload: {metric: stats}}
    and whether every run was correct."""
    report, ok = {}, True
    for w in workloads:
        values, units = {}, {}
        for seed in seeds:
            res = run_once(w, seed, seconds)
            if not res["correct"] or res["failed"]:
                ok = False
                print(f"{w} seed {seed}: {res['failed']} of {res['attempted']} operations failed",
                      file=sys.stderr)
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
            values.setdefault("error_rate", []).append(res["failed"] / res["attempted"])
            units["error_rate"] = "ratio"
        stats = {}
        for name, vs in sorted(values.items()):
            q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0],) * 3
            med = statistics.median(vs)
            spread = (q3 - q1) / med if med else 0.0
            stats[name] = {"unit": units[name], "median": med, "q1": q1, "q3": q3,
                           "spread": spread, "values": vs}
            print(f"{label:9s} {w:18s} {name:14s} {units[name]:6s} median {med:12.6g}  "
                  f"q1 {q1:12.6g}  q3 {q3:12.6g}  spread {spread:.4f}")
        report[w] = stats
    return report, ok


def agreement(first, second, bounds):
    """Compares the two sets' medians: change is (second - first) / first,
    worse is that change signed so that positive means worse."""
    out, ok = {}, True
    for w, stats in first.items():
        out[w] = {}
        for name, (better, bound) in bounds.items():
            m1, m2 = stats[name]["median"], second[w][name]["median"]
            change = (m2 - m1) / m1
            worse = change if better == "lower" else -change
            within = abs(change) <= bound
            ok = ok and within
            out[w][name] = {"median_1": m1, "median_2": m2, "change": change,
                            "worse": worse, "bound": bound, "within": within}
            print(f"agreement {w:18s} {name:14s} change {change:+.4f}  bound {bound:.2f}  "
                  f"{'ok' if within else 'OUTSIDE'}")
    return out, ok


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", nargs="*",
                    default=["geolife-inference", "synth-spill", "tcp-cluster"])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--sets", type=int, default=1, choices=[1, 2])
    ap.add_argument("--same-seed", type=int, default=None)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--out", default="")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bounds = {m["name"]: (m["better"], m["bound"]) for m in json.load(f)["end_to_end"]}
    seeds = [args.first_seed + i for i in range(args.runs)]
    report = {"runs": args.runs, "seconds": args.seconds, "seeds": seeds, "sets": []}
    ok = True
    for i in range(args.sets):
        stats, set_ok = run_set(f"set {i + 1}", args.workloads, seeds, args.seconds)
        report["sets"].append(stats)
        ok = ok and set_ok
    if args.same_seed is not None:
        stats, set_ok = run_set("same seed", args.workloads, [args.same_seed] * args.runs, args.seconds)
        report["same_seed"] = {"seed": args.same_seed, "workloads": stats}
        ok = ok and set_ok
    if args.sets == 2:
        report["agreement"], agree = agreement(report["sets"][0], report["sets"][1], bounds)
        ok = ok and agree
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
