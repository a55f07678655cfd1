#!/usr/bin/env python3
"""Steadiness report for the benchmark in BENCHMARK.json.

Runs the benchmark once per seed on each workload (from the repository
root) and prints, per workload and end-to-end metric, the median, the
quartiles, the interquartile spread and (max-min)/median across runs,
against the metric's bound.

  python3 priuperf/steady.py --seeds 1-10
  python3 priuperf/steady.py --seeds 1-10 --unseen 101-110

--unseen runs a second seed set and checks that its medians agree with the
first set's within each metric's bound, so a later claim can be re-checked
on seeds that were not used while tuning. --out keeps the raw results;
--from re-reports saved results without running anything. The exit status
is 1 if a check fails.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_one(bench, workload, seed, trace):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", str(trace),
    ]
    start = time.time()
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    wall = time.time() - start
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
    res = json.loads(lines[-1])
    if not res["correct"] or res["failed"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect run\n{out.stderr[-2000:]}")
    print(f"  {workload} seed {seed}: {wall:.1f}s", file=sys.stderr)
    return {k: v["value"] for k, v in res["metrics"].items()}


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else 0.0, (max(values) - min(values)) / med if med else 0.0


def report(bench, runs, label):
    ok = True
    print(f"\n== {label}: median, quartiles, IQR/median, (max-min)/median")
    for workload, per_seed in runs.items():
        print(f"{workload} (n={len(per_seed)})")
        for m in bench["end_to_end"]:
            vals = [r[m["name"]] for r in per_seed.values()]
            med, q1, q3, iqr, rng = spread(vals)
            target = m["bound"] / 3
            flag = ""
            if m["name"] != "setup_s":
                if iqr > m["bound"]:
                    flag, ok = "  OVER BOUND", False
                elif iqr > target:
                    flag = "  over bound/3"
            print(f"  {m['name']:<14} {med:12.4f} {m['unit']:<5} q1 {q1:10.4f} q3 {q3:10.4f}"
                  f"  iqr {iqr:6.3f}  range {rng:6.3f}  bound {m['bound']}{flag}")
    return ok


def compare(bench, first, second):
    ok = True
    print("\n== unseen seeds: second-set median against first-set median")
    for workload in first:
        for m in bench["end_to_end"]:
            a = statistics.median(r[m["name"]] for r in first[workload].values())
            b = statistics.median(r[m["name"]] for r in second[workload].values())
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            verdict = "ok" if worse <= m["bound"] else "WORSE THAN BOUND"
            if worse > m["bound"]:
                ok = False
            print(f"  {workload:<15} {m['name']:<14} {a:12.4f} -> {b:12.4f}  worse by {worse:+.3f}"
                  f" (bound {m['bound']})  {verdict}")
    return ok


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--unseen", default="")
    ap.add_argument("--workloads", default="")
    ap.add_argument("--out", default="")
    ap.add_argument("--from", dest="load", default="")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    if args.load:
        with open(args.load) as f:
            saved = json.load(f)
    else:
        saved = {}
        for key, seeds in (("first", args.seeds), ("unseen", args.unseen)):
            if not seeds:
                continue
            saved[key] = {w: {s: run_one(bench, w, s, 0) for s in seed_range(seeds)} for w in names}
        if args.out:
            with open(args.out, "w") as f:
                json.dump(saved, f)
    ok = report(bench, saved["first"], "seeds " + args.seeds)
    if "unseen" in saved:
        ok = report(bench, saved["unseen"], "unseen seeds " + args.unseen) and ok
        ok = compare(bench, saved["first"], saved["unseen"]) and ok
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
