"""Benchmark of ``wgcutoff``: one workload per process.

Run from the root of a checkout (the directory that holds ``src/wgcutoff``):

    python3 perfbench/run.py --workload rect-fine --seed 1 --seconds 10 --trace 0

With ``--trace 0`` the workload is set up, then whole passes of its
operations run until ``--seconds`` of pass time have elapsed and the
workload's fewest passes (one or three) are done.  Each pass is checked
against independently computed values.  The last line of standard output
is a JSON object with ``correct``, ``attempted``, ``failed`` and the
end-to-end ``metrics``: ``wall_s`` (median pass time), ``setup_s`` (median
over fresh processes that only set up) and ``peak_rss_mb`` (the run's own
process through its first pass, or the largest CLI child of a pass; median
over passes).  Lines before it, each starting with ``#``, list every
operation and a per-route breakdown.

With ``--trace 1`` one untraced pass runs, then one traced pass; the JSON
line holds the per-layer metrics of the traced run, the route breakdown of
the untraced pass and ``trace.overhead_s`` (traced minus untraced pass
time).  The traced pass must reproduce the untraced cut-offs bit for bit.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread for this process and every child: on two cores a second
# OpenBLAS thread only busy-waits (a 96 x 96 vector TE solve took the same
# wall time and twice the CPU time with it).
os.environ["OPENBLAS_NUM_THREADS"] = "1"

#: Untraced breakdowns reported alongside the per-layer metrics.
ROUTE_METRICS = ("scalar_solve_s", "vector_solve_s",
                 "cli_solve_s", "cli_crossval_s", "cli_fields_s")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_program(root: Path):
    """Import ``wgcutoff`` from this checkout's ``src`` and nowhere else."""
    src = root / "src"
    if not (src / "wgcutoff" / "__init__.py").is_file():
        raise SystemExit(f"error: {src / 'wgcutoff'} not found; run from the "
                         "root of a wgcutoff checkout")
    sys.path.insert(0, str(src))
    import wgcutoff
    if not Path(wgcutoff.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"error: imported {wgcutoff.__file__}, not the checkout's")


def timed_pass(workload, tracer=None):
    """One pass with the cyclic garbage collector off.

    SciPy's shift-invert ``eigsh`` leaves its SuperLU factor and ARPACK
    workspace in a reference cycle.  With the collector on, whether a
    collection freed them before the next solve varied from run to run, and
    ``rect-fine`` peaked at 0.55-0.59 GB or at 0.89-0.92 GB, even for one
    seed; with it off, every run keeps them to the end of the pass.
    """
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        out = workload.run_pass(tracer)
        out.wall = time.perf_counter() - start
    finally:
        gc.enable()
    return out


def setup_samples(workload, args, root):
    command = workload.probe_command()
    if command is None:
        command = ([sys.executable, str(Path(__file__).resolve()), "--workload",
                    args.workload, "--seed", str(args.seed), "--seconds", "0", "--probe"],
                   None)
    argv, env = command
    samples = []
    for _ in range(workload.setup_samples):
        start = time.perf_counter()
        subprocess.run(argv, cwd=root, env=env, check=True,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        samples.append(time.perf_counter() - start)
    return samples


def compare_digests(passes, what):
    errors = []
    first = passes[0].digests
    for i, other in enumerate(passes[1:], start=2):
        for key in sorted(set(first) | set(other.digests)):
            if first.get(key) != other.digests.get(key):
                errors.append(f"{what} {i}: output {key!r} differs from pass 1")
    return errors


def run_untraced(workload, args, root):
    samples = setup_samples(workload, args, root)
    workload.setup(args.seed)
    workload.warm_up(args.seed)
    passes, errors, measured = [], [], 0.0
    while len(passes) < workload.passes or measured < args.seconds:
        out = timed_pass(workload)
        if out.peak_rss_mb is None:
            # the first pass's high-water mark: a second rect-fine pass
            # raised it from 0.9 GB to 1.35-1.65 GB, varying with the heap
            out.peak_rss_mb = (passes[0].peak_rss_mb if passes else
                               resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        measured += out.wall
        errors += workload.check(out)
        passes.append(out)
    errors += compare_digests(passes, "pass")
    peak = statistics.median(p.peak_rss_mb for p in passes)
    metrics = {
        "wall_s": (statistics.median(p.wall for p in passes), "s"),
        "setup_s": (statistics.median(samples), "s"),
        "peak_rss_mb": (peak, "MB"),
    }
    breakdown = {key: statistics.median(p.times.get(key, 0.0) for p in passes)
                 for key in sorted({k for p in passes for k in p.times})}
    print(f"# setup samples (s): {', '.join(f'{s:.4f}' for s in samples)}")
    print(f"# pass walls (s): {', '.join(f'{p.wall:.4f}' for p in passes)}")
    print("# detail " + json.dumps(breakdown))
    return passes, errors, metrics


def run_traced(workload, args):
    from spans import LAYER_METRICS, Tracer, layer_metrics

    tracer = Tracer()
    tracer.install_wgcutoff()
    try:
        with tracer.span("setup"):
            workload.setup(args.seed, tracer)
    finally:
        tracer.uninstall()
    workload.warm_up(args.seed)
    plain = timed_pass(workload)
    errors = workload.check(plain)
    tracer.install_wgcutoff()
    try:
        with tracer.span("pass"):
            traced = timed_pass(workload, tracer)
    finally:
        tracer.uninstall()
    errors += workload.check(traced)
    errors += compare_digests([plain, traced], "traced pass")
    layers = layer_metrics(tracer.spans)
    metrics = {name: (layers[name], unit) for name, unit in LAYER_METRICS}
    for key in ROUTE_METRICS:
        metrics[key] = (plain.times.get(key, 0.0), "s")
    metrics["trace.overhead_s"] = (traced.wall - plain.wall, "s")
    return [plain, traced], errors, metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    import_program(root)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
    workdir = root / ".perfbench-runs" / f"{args.workload}-{args.seed}"
    workload = WORKLOADS[args.workload](root, workdir)
    if args.probe:
        workload.setup(args.seed)
        workload.warm_up(args.seed)
        return 0
    try:
        if args.trace:
            passes, errors, metrics = run_traced(workload, args)
        else:
            passes, errors, metrics = run_untraced(workload, args, root)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    ops = [op for p in passes for op in p.ops]
    failed = [(name, error) for name, error in ops if error is not None]
    for name, error in failed:
        prefix = workload.expected_failures.get(name)
        known = prefix is not None and error.startswith(prefix)
        print(f"# failed ({'expected' if known else 'UNEXPECTED'}) {name}: "
              f"{error.splitlines()[0]}")
        if not known:
            errors.append(f"operation {name} failed")
    for error in errors:
        print(f"# check failed: {error}")
        print(f"check failed: {error}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"# metric {name} = {value!r} {unit}")
    result = {
        "correct": not errors,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
