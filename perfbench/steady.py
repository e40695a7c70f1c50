"""Run each workload N times and print every metric's median and quartiles.

    python3 perfbench/steady.py --runs 10 [--trace 1]

Runs every workload of ``BENCHMARK.json`` for its ``run_seconds``; run i
uses seed i (1..N), each in its own process, one after another.  For each
metric it prints the median, the quartiles (``statistics.quantiles`` with
n=4), the spread (q3 - q1) / median and, for end-to-end metrics, that
spread against a third of the bound in ``BENCHMARK.json``.  It also prints
each run's share of failed commands, and for traced runs whether every
count repeated exactly.  The bounds in ``BENCHMARK.json`` were set from
this output.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def one_run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {done.returncode}:\n"
                           f"{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarize(workload, results, bounds):
    print(f"== {workload}: {len(results)} runs")
    shares = sorted({(r["failed"], r["attempted"]) for r in results})
    print(f"   failed/attempted per run: {shares}")
    print(f"   correct: {all(r['correct'] for r in results)}")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        unit = results[0]["metrics"][name]["unit"]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median if median else float("nan")
        line = (f"   {name:42s} {median:12.6g} {unit:6s} q1 {q1:.6g} "
                f"q3 {q3:.6g} spread {spread:.4f}")
        if name in bounds:
            ok = spread <= bounds[name] / 3
            line += f" (bound {bounds[name]}: {'ok' if ok else 'TOO WIDE'})"
        elif unit in ("count", "ratio"):
            line += " repeats" if len(set(values)) == 1 else " VARIES"
        print(line, flush=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        config = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    for workload in (w["name"] for w in config["workloads"]):
        results = []
        for seed in range(1, args.runs + 1):
            results.append(one_run(workload, seed, config["run_seconds"],
                                   args.trace))
            print(f"   run {seed}/{args.runs} done", file=sys.stderr,
                  flush=True)
        summarize(workload, results, bounds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
