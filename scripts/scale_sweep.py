"""Forced shift-invert solves at length scales from 1e-150 to 1e150 m.

Every route solves 1, 4 and 8 modes at ARPACK seeds 1 and 2 on three
meshes of side L: the 24 x 20 rectangle, the 4 x 48 coax and the disc
refined once, all with ``dense_cutoff=0``.  A solve fails if it raises, if
a vector solve's ``constraint_residuals`` exceed 1e-8 or its
``multiplier_diagnostics`` 1e-6 (both counted as errors), or if its
``nonzero_cutoffs x L`` differ from the L = 1e-3 solve by more than 1e-9 of
their largest entry (a spectrum that comes back short fails too).

Run as ``PYTHONPATH=src python scripts/scale_sweep.py``; it prints one line
per failure and the counts, and exits 1 if any solve failed.
"""

import sys

import numpy as np

from wgcutoff import (
    SolveOptions,
    generate_annulus,
    generate_rectangle,
    refine_uniform,
)
from wgcutoff.medium import MediumSpec, TransverseTensor
from wgcutoff.modes import (
    SOLVERS,
    constraint_residuals,
    multiplier_diagnostics,
)

REFERENCE = 1e-3
SCALES = (1e-150, 1e-100, 1e-12, 1e-9, 1e-7, 1e-5, 1.0, 1e3, 1e9, 1e12,
          1e100, 1e150)
MESHES = {
    "rectangle 24x20": lambda L: generate_rectangle(1.2 * L, L, 24, 20),
    "coax 4x48": lambda L: generate_annulus(L, 2 * L, 4, 48),
    "disc L1": lambda L: refine_uniform(generate_annulus(0.0, L, 4, 24)),
}
MEDIUM = MediumSpec(eps_t=TransverseTensor(2.0, -1.0), eps_zz=1.0,
                    mu_t=TransverseTensor(1.0, 0.5), mu_zz=2.0)


def scaled_cutoffs(mesh, length, formulation, modes, seed):
    """``nonzero_cutoffs x L``, or the error message of a failed solve or of
    a vector solve whose diagnostics exceed their floors."""
    options = SolveOptions(dense_cutoff=0, seed=seed)
    try:
        solution = SOLVERS[formulation](mesh, MEDIUM, modes, options)
    except Exception as exc:  # every failure is counted, none stops the sweep
        return f"{type(exc).__name__}: {exc}"
    if formulation.is_vector:
        divergence = constraint_residuals(solution).max()
        multiplier = multiplier_diagnostics(solution).values.max()
        if divergence > 1e-8 or multiplier > 1e-6:
            return (f"divergence {divergence:.1e}, "
                    f"multiplier diagnostic {multiplier:.1e}")
    return solution.nonzero_cutoffs * length


def main() -> int:
    solves = errors = wrong = 0
    for name, mesh_at in MESHES.items():
        meshes = {length: mesh_at(length) for length in (REFERENCE,) + SCALES}
        for formulation in SOLVERS:
            for modes in (1, 4, 8):
                for seed in (1, 2):
                    reference = scaled_cutoffs(meshes[REFERENCE], REFERENCE,
                                               formulation, modes, seed)
                    for length in SCALES:
                        got = scaled_cutoffs(meshes[length], length,
                                             formulation, modes, seed)
                        solves += 1
                        case = (f"{name} {formulation.value} q={modes} "
                                f"seed={seed} L={length:g}")
                        if isinstance(got, str):
                            errors += 1
                            print(f"error  {case}: {got}")
                        elif (isinstance(reference, str)
                              or got.shape != reference.shape
                              or np.abs(got - reference).max()
                              > 1e-9 * np.abs(reference).max()):
                            wrong += 1
                            print(f"wrong  {case}: {got} against {reference}")
    print(f"{solves} solves, {errors} errors, {wrong} wrong spectra")
    return 1 if errors or wrong else 0


if __name__ == "__main__":
    sys.exit(main())
