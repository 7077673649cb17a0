#!/usr/bin/env python3
"""Same-code A/A check of the repository benchmark.

Runs each workload several times on one build, one seed per run, and
reports every end-to-end metric's median, quartiles and spread (the
interquartile distance as a share of the median) against the bound
recorded in BENCHMARK.json. With --sets 2 it repeats the same seeds and
also checks that the second set's median is not worse than the first's
by more than the bound.

Run from the repository root:

    python3 perfbench/aa.py --runs 10
    python3 perfbench/aa.py --runs 5 --workloads fourier16-cold --sets 2

Seeds run from 1 to --runs. Exits 1 when a spread exceeds its bound, a
median drifts past its bound, or a run fails.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(args, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{workload} seed {seed}: {result['failed']} failed")
    return {k: v["value"] for k, v in result["metrics"].items()}


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1, choices=[1, 2])
    ap.add_argument("--workloads", default="",
                    help="comma-separated subset (default: all)")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: (m["bound"], m["better"]) for m in bench["end_to_end"]}
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    ok = True
    for workload in names:
        sets = []
        for s in range(args.sets):
            runs = []
            for i in range(args.runs):
                seed = 1 + i
                runs.append(run_once(bench["command"], workload, seed,
                                     bench["run_seconds"]))
                print(f"  {workload} set {s + 1} seed {seed}: " + " ".join(
                    f"{k}={v:.4g}" for k, v in runs[-1].items()), file=sys.stderr)
            sets.append(runs)
        print(f"\n{workload}: {args.runs} runs x {args.sets} set(s)")
        print(f"  {'metric':<18}{'set':>4}{'median':>14}{'q1':>14}{'q3':>14}"
              f"{'spread':>9}{'bound':>7}  verdict")
        for name, (bound, better) in bounds.items():
            medians = []
            for s, runs in enumerate(sets):
                med, q1, q3, spread = summarize([r[name] for r in runs])
                medians.append(med)
                verdicts = []
                if spread > bound:
                    verdicts.append("SPREAD>BOUND")
                    ok = False
                elif spread > bound / 3:
                    verdicts.append("spread>bound/3")
                if s == 1:
                    first = medians[0]
                    worse = (med - first) / first if better == "lower" \
                        else (first - med) / first
                    verdicts.append(f"drift {worse:+.3f}")
                    if worse > bound:
                        verdicts.append("DRIFT>BOUND")
                        ok = False
                print(f"  {name:<18}{s + 1:>4}{med:>14.4f}{q1:>14.4f}{q3:>14.4f}"
                      f"{spread:>9.3f}{bound:>7.2f}  " + (", ".join(verdicts) or "ok"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
