"""Cut-offs scale as 1/L: every route gives the same ``cut-off x L`` at
every absolute length scale, on the dense and on the shift-invert path."""

import numpy as np
import pytest

from wgcutoff import SolveOptions, generate_annulus, generate_rectangle
from wgcutoff.modes import SOLVERS, constraint_residuals

SCALES = (1e-9, 1e-7, 1e-3, 1e9)
REFERENCE = 1e-3
PATHS = {"dense": SolveOptions(), "shift-invert": SolveOptions(dense_cutoff=0)}


def ladder(medium, mesh_at, options, formulations):
    """Solutions per (length, formulation) on the meshes ``mesh_at(L)``."""
    out = {}
    for length in SCALES:
        mesh = mesh_at(length)
        for formulation in formulations:
            out[length, formulation] = SOLVERS[formulation](
                mesh, medium, 3, options)
    return out


def check_scaling(solutions, tem_count):
    for (length, formulation), solution in solutions.items():
        reference = solutions[REFERENCE, formulation]
        assert solution.tem_count == (tem_count if formulation.is_vector
                                      else 0)
        np.testing.assert_allclose(
            solution.nonzero_cutoffs * length,
            reference.nonzero_cutoffs * REFERENCE, rtol=1e-9, atol=0,
            err_msg=f"{formulation.value} at L = {length:g}")
        if formulation.is_vector:
            assert (constraint_residuals(solution) <= 1e-8).all()


@pytest.mark.parametrize("path, cells", [("dense", (6, 5)),
                                         ("shift-invert", (24, 20))])
def test_rectangle(gyro_medium, path, cells):
    solutions = ladder(
        gyro_medium, lambda length: generate_rectangle(1.2 * length, length,
                                                       *cells),
        PATHS[path], SOLVERS)
    check_scaling(solutions, tem_count=0)


@pytest.mark.parametrize("path", PATHS)
def test_coax_keeps_one_tem_mode(gyro_medium, path):
    vector = [f for f in SOLVERS if f.is_vector]
    solutions = ladder(
        gyro_medium, lambda length: generate_annulus(length, 2 * length, 2, 16),
        PATHS[path], vector)
    check_scaling(solutions, tem_count=1)
