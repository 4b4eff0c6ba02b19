"""Run workloads several times and summarise every metric.

    python3 perfbench/stats.py --runs 10 [--first-seed 1] [--trace 0]

Run from the root of a checkout.  Every workload in ``BENCHMARK.json`` runs
``--runs`` times, each a fresh ``perfbench/run.py`` process with its own
seed (``first-seed``, ``first-seed + 1``, ...) and ``BENCHMARK.json``'s
``run_seconds``, one after another.  To run one workload by hand, call
``run.py`` directly.  For every metric the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread
``(q3 - q1) / median`` are printed; for end-to-end metrics the spread is
compared with a third of the bound in ``BENCHMARK.json``.  The route
breakdown printed by untraced runs is summarised the same way.

With ``--trace 1 --repeat 2`` every seed runs twice and the counts that must
repeat exactly (``spans.EXACT_COUNTS``) are compared between the two.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from spans import EXACT_COUNTS  # noqa: E402


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True)
    elapsed = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(lines[-1])
    detail = {}
    for line in lines:
        if line.startswith("# detail "):
            detail = json.loads(line[len("# detail "):])
        elif line.startswith("# failed") or line.startswith("# check failed"):
            print(f"  {workload} seed {seed}: {line[2:]}")
    return result, detail, elapsed


def summarise(name, unit, values, bound=None):
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    spread = (q3 - q1) / median if median else float("nan")
    verdict = ""
    if bound is not None:
        verdict = ("ok" if spread < bound / 3 else
                   "WIDE (over a third of the bound)" if spread <= bound else
                   "OVER BOUND")
        verdict = f"bound {bound:<5} {verdict}"
    print(f"  {name:<28} median {median:<12.10g} q1 {q1:<12.10g} q3 {q3:<12.10g} "
          f"spread {spread:<8.4f} {unit:<6} {verdict}")
    print(f"  {'':<28} runs: {' '.join(f'{v:.10g}' for v in values)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per seed; with --trace 1, counts must match")
    args = parser.parse_args(argv)

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        results, details, elapsed = [], [], []
        for i in range(args.runs):
            seed = args.first_seed + i
            repeats = [run_once(workload, seed, seconds, args.trace)
                       for _ in range(args.repeat)]
            for result, detail, took in repeats:
                results.append(result)
                details.append(detail)
                elapsed.append(took)
            if args.trace and args.repeat > 1:
                for key in EXACT_COUNTS:
                    seen = {r["metrics"][key]["value"] for r, _, _ in repeats}
                    if len(seen) != 1:
                        ok = False
                        print(f"  {workload} seed {seed}: {key} varies: {sorted(seen)}")
        shares = {(r["failed"], r["attempted"]) for r in results}
        correct = all(r["correct"] for r in results)
        ok = ok and correct
        print(f"{workload}: {len(results)} runs, correct {correct}, "
              f"failed/attempted {sorted(shares)}, "
              f"run time median {statistics.median(elapsed):.1f} s "
              f"max {max(elapsed):.1f} s")
        for metric in results[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in results]
            summarise(metric, results[0]["metrics"][metric]["unit"], values,
                      None if args.trace else bounds.get(metric))
        for key in sorted({k for d in details for k in d}):
            summarise(key, "s", [d.get(key, 0.0) for d in details])
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
