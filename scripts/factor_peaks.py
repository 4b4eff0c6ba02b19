"""L+U nonzeros, factor time and factor memory of the shifted pencils.

For the 1.2 x 1.0 mm rectangle at 128 x 128, 192 x 192 and 256 x 256 cells
and the coax ``generate_annulus(1e-3, 2e-3, 4, 48)`` refined three and four
times (L3, L4), each route's pencil is assembled on the reference medium
and shifted as a shift-invert solve shifts it, ``K - sigma M`` with ``sigma
= -trace_scale``.  One child process per row loads that matrix and factors
it with ``eigensolve.HermitianLU``.  The script reports the factor's L+U
nonzeros, the best of three factor times and the growth of the child's
resident set across its first factorization: its peak (``VmHWM``) after
less its resident set (``VmRSS``) before, from ``/proc/self/status``, so
it runs on Linux only.  ``ru_maxrss`` would not do: a child starts with
its parent's high-water mark.  The growth is also given per unknown and
against the bytes of the factor's values (L+U nonzeros times the item
size), which it exceeds by the matrix copies and SuperLU's workspace.

Run as ``OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python
scripts/factor_peaks.py``; it prints the factor table of the README.
The largest row (256 x 256 vector TE) holds about 0.3 GB in its child.
"""

import json
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import scipy.sparse as sp

RUNS = 3
PARTS = ("data", "indices", "indptr")


def status_kb(key):
    """A ``VmRSS``-type line of ``/proc/self/status``, in KiB."""
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status
                    if line.startswith(key + ":"))


def child(stem):
    """Factor the matrix saved under ``stem`` and print its figures."""
    from wgcutoff.eigensolve import HermitianLU

    data, indices, indptr = (np.load(f"{stem}_{p}.npy") for p in PARTS)
    matrix = sp.csr_matrix((data, indices, indptr),
                           shape=(indptr.size - 1,) * 2)
    before = status_kb("VmRSS")
    with HermitianLU(matrix) as lu:
        growth = status_kb("VmHWM") - before
        nnz = lu._lu.nnz
    best = float("inf")
    for _ in range(RUNS):
        start = time.perf_counter()
        with HermitianLU(matrix):
            best = min(best, time.perf_counter() - start)
    print(json.dumps(dict(nnz=nnz, growth=growth * 1024, time=best,
                          itemsize=matrix.dtype.itemsize)))


def meshes():
    from wgcutoff import generate_annulus, generate_rectangle, refine_uniform

    for n in (128, 192, 256):
        yield f"rect {n}²", generate_rectangle(1.2e-3, 1.0e-3, n, n)
    coax = generate_annulus(1e-3, 2e-3, 4, 48)
    for level in range(1, 5):
        coax = refine_uniform(coax)
        if level >= 3:
            yield f"coax L{level}", coax


def main():
    from wgcutoff import MediumSpec, TransverseTensor
    from wgcutoff.eigensolve import _trace_scale
    from wgcutoff.modes import _ASSEMBLERS

    medium = MediumSpec(eps_t=TransverseTensor(2.0, -1.0), eps_zz=1.0,
                        mu_t=TransverseTensor(1.0, 0.5), mu_zz=2.0)
    print("| mesh | route | unknowns | L+U nonzeros | factor, best of "
          f"{RUNS} (s) | RSS growth (MB) | per unknown (KB) "
          "| growth / factor values |")
    print("|---" * 8 + "|")
    with tempfile.TemporaryDirectory() as scratch:
        stem = str(Path(scratch) / "matrix")
        for name, mesh in meshes():
            for formulation, assemble in _ASSEMBLERS.items():
                pencil = assemble(mesh, medium)
                K, M = pencil.K, pencil.M
                matrix = (K + _trace_scale(K, M) * M).tocsr()
                for part in PARTS:
                    np.save(f"{stem}_{part}.npy", getattr(matrix, part))
                del pencil, K, M
                done = subprocess.run([sys.executable, __file__, stem],
                                      check=True, capture_output=True,
                                      text=True)
                row = json.loads(done.stdout)
                n, growth = matrix.shape[0], row["growth"]
                values = row["nnz"] * row["itemsize"]
                print(f"| {name} | {formulation.value} | {n:,} "
                      f"| {row['nnz'] / 1e6:.2f} M | {row['time']:.3f} "
                      f"| {growth / 1e6:.1f} | {growth / n / 1e3:.2f} "
                      f"| {growth / values:.2f} |", flush=True)


if __name__ == "__main__":
    if len(sys.argv) > 1:
        child(sys.argv[1])
    else:
        main()
