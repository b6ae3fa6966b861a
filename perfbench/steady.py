"""Steadiness check: two sets of runs of the same code must agree.

    python3 perfbench/steady.py

Runs ``perfbench/run.py`` RUNS times per workload and set, one run at a
time, with seeds 1..RUNS, for BENCHMARK.json's ``run_seconds``.  Both sets
use the same seeds, so each op's output can be compared byte for byte
across fresh processes.  For every end-to-end metric and workload it
prints each set's median and quartiles, the spread (q3 - q1) / median, and
whether the spread is within the metric's bound and each set's median is
within the bound of the first set's, either way.  The count metrics must
repeat exactly in every run, and each op's JSON digest must be the same in
every run with the same seed.  Exits 1 when anything disagrees.
"""

import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
RUNS = 10
SETS = 2
EXACT = ("levels_missed", "levels_spurious", "levels_inaccurate", "checks_failed", "fail_ratio")


def run_once(workload, seed, seconds):
    proc = subprocess.run([sys.executable, RUN, "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", "0"],
                          cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
    lines = proc.stdout.strip().splitlines()
    counts = next(json.loads(line[len("counts: "):]) for line in lines
                  if line.startswith("counts: "))
    return json.loads(lines[-1]), counts


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    workloads = [w["name"] for w in spec["workloads"]]

    results = {}  # (set, workload) -> [(result line, counts)]
    digests = {}  # (workload, seed, op label) -> {digest}
    for s in range(SETS):
        for workload in workloads:
            for seed in range(1, RUNS + 1):
                out = run_once(workload, seed, spec["run_seconds"])
                print(f"set {s} {workload} seed {seed}: correct={out[0]['correct']} "
                      + " ".join(f"{k}={v['value']:.4g}" for k, v in out[0]["metrics"].items()),
                      flush=True)
                results.setdefault((s, workload), []).append(out)
                for label, digest in out[1]["digests"].items():
                    digests.setdefault((workload, seed, label), set()).add(digest)

    ok = True
    for workload in workloads:
        runs = [r for s in range(SETS) for r in results[(s, workload)]]
        exact = {json.dumps({k: c[k] for k in EXACT}, sort_keys=True) for _, c in runs}
        all_correct = all(r["correct"] for r, _ in runs)
        differing = sorted(f"seed {seed} {label}" for (w, seed, label), found in digests.items()
                           if w == workload and len(found) > 1)
        print(f"\n{workload}: correct in every run: {all_correct}; counts repeat exactly: "
              f"{len(exact) == 1} {sorted(exact)}; op JSON differs between sets: {differing}")
        ok = ok and all_correct and len(exact) == 1 and not differing
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            first_median = None
            for s in range(SETS):
                q1, median, q3 = statistics.quantiles(
                    [r["metrics"][name]["value"] for r, _ in results[(s, workload)]], n=4)
                spread = (q3 - q1) / median
                first_median = median if first_median is None else first_median
                shift = (median - first_median) / first_median
                spread_ok = spread <= bound
                agree = abs(shift) <= bound
                ok = ok and spread_ok and agree
                print(f"  {name:12s} set {s}: median {median:.6g} {metric['unit']} "
                      f"q1 {q1:.6g} q3 {q3:.6g} spread {spread:.3f} (bound {bound}, "
                      f"{'ok' if spread_ok else 'TOO WIDE'}) vs set 0 {shift:+.3f} "
                      f"{'agrees' if agree else 'DISAGREES'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
