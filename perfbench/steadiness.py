#!/usr/bin/env python3
"""Run the benchmark on seeds 1..--runs per workload and report, for
every metric, the median, the quartiles and the quartile spread as a
share of the median (statistics.quantiles(values, n=4)).

Usage, from the repository root:

    python3 perfbench/steadiness.py --runs 10 --out perfbench/steadiness.json
    python3 perfbench/steadiness.py --runs 5 --trace 1 --out perfbench/steadiness.json

--out appends this invocation as one more set under "end_to_end" or,
with --trace 1, "per_layer", so the file keeps every set that was run.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def run(cmd, workload, seed, seconds, trace):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.monotonic()
    p = subprocess.run(args, capture_output=True, text=True, timeout=900)
    took = time.monotonic() - t0
    if p.returncode != 0:
        sys.exit(f"{' '.join(args)} exited {p.returncode}:\n{p.stdout[-2000:]}{p.stderr[-2000:]}")
    res = json.loads(p.stdout.strip().splitlines()[-1])
    if not res["correct"]:
        sys.exit(f"{' '.join(args)}: correct is false")
    return res, took


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out", default="")
    a = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    cmd = bench["command"]
    names = a.workloads.split(",") if a.workloads else [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    report = {"started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
              "runs": a.runs, "seconds": bench["run_seconds"], "workloads": {}}
    for w in names:
        values, took = {}, []
        for seed in range(1, a.runs + 1):
            res, t = run(cmd, w, seed, bench["run_seconds"], a.trace)
            took.append(t)
            for k, m in res["metrics"].items():
                values.setdefault(k, []).append(m["value"])
        rows = {}
        for k, vs in sorted(values.items()):
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else None
            rows[k] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": vs}
            b = bounds.get(k)
            flag = ""
            if b and spread is not None:
                flag = "ok" if spread < b / 3 else ("within bound" if spread <= b else "OVER BOUND")
            print(f"{w:8} {k:34} median {med:14.4f}  spread {spread if spread is None else round(spread, 4)!s:8} {flag:12} {[float(f'{v:.4g}') for v in vs]}")
        print(f"{w:8} wall per run: max {max(took):.1f}s median {statistics.median(took):.1f}s")
        report["workloads"][w] = {"wall_s_per_run": took, "metrics": rows}
        if a.out:
            save(a.out, "per_layer" if a.trace else "end_to_end", report)


def save(path, key, report):
    """Store report as the set it started in under key of the JSON file
    at path, after the sets already there."""
    out = {}
    if os.path.exists(path):
        with open(path) as f:
            out = json.load(f)
    sets = [s for s in out.get(key, []) if s["started"] != report["started"]]
    out[key] = sets + [report]
    with open(path, "w") as f:
        json.dump(out, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
