"""Cut-offs scale as 1/L: every route gives the same ``cut-off x L`` at
every absolute length scale, on the dense and on the shift-invert path, and
the scale-free diagnostics read the same at every rung."""

import json
from dataclasses import replace

import numpy as np
import pytest

from wgcutoff import SolveOptions, generate_annulus, generate_rectangle
from wgcutoff.cli import main
from wgcutoff.crossval import compare_spectra
from wgcutoff.eigensolve import EigenSolveError, residual_gate
from wgcutoff.modes import (
    SOLVERS,
    Formulation,
    constraint_residuals,
    multiplier_diagnostics,
)
from saddle_oracle import with_gradient

SCALES = (1e-9, 1e-7, 1e-3, 1.0, 1e3, 1e9)
REFERENCE = 1e-3
PATHS = {"dense": SolveOptions(), "shift-invert": SolveOptions(dense_cutoff=0)}
PAIRS = ((Formulation.SCALAR_TE, Formulation.VECTOR_TE),
         (Formulation.SCALAR_TM, Formulation.VECTOR_TM))
#: Largest scalar/vector gap of each rectangle at L = 1e-3, rounded up.
CROSSVAL_RTOL = {(6, 5): 0.15, (24, 20): 0.01}


def ladder(medium, mesh_at, options, formulations, scales=SCALES):
    """Solutions per (length, formulation) on the meshes ``mesh_at(L)``."""
    out = {}
    for length in scales:
        mesh = mesh_at(length)
        for formulation in formulations:
            out[length, formulation] = SOLVERS[formulation](
                mesh, medium, 3, options)
    return out


def corrupted(solution):
    """The solution with a random gradient of 1% added to each mode."""
    return replace(solution, dof_vectors=with_gradient(
        solution.pencil, solution.dof_vectors, 0.01))


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
            assert (multiplier_diagnostics(solution).values <= 1e-6).all()
            assert (multiplier_diagnostics(corrupted(solution)).values
                    > 1e-6).all()


def check_crossval(solutions, rtol):
    for scalar, vector in PAIRS:
        reference = compare_spectra(solutions[REFERENCE, scalar],
                                    solutions[REFERENCE, vector], 3, rtol)
        for length in SCALES:
            report = compare_spectra(solutions[length, scalar],
                                     solutions[length, vector], 3, rtol)
            assert report.all_passed, f"{vector.value} at L = {length:g}"
            np.testing.assert_allclose(report.rel_diffs, reference.rel_diffs,
                                       rtol=0, atol=1e-9)


@pytest.mark.parametrize("path, cells", [("dense", (6, 5)),
                                         ("shift-invert", (24, 20))])
def test_rectangle(gyro_medium, path, cells):
    solutions = ladder(
        gyro_medium, lambda length: generate_rectangle(1.2 * length, length,
                                                       *cells),
        PATHS[path], SOLVERS)
    check_scaling(solutions, tem_count=0)
    check_crossval(solutions, CROSSVAL_RTOL[cells])


@pytest.mark.parametrize("path", PATHS)
def test_coax_keeps_one_tem_mode(gyro_medium, path):
    vector = [f for f in SOLVERS if f.is_vector]
    solutions = ladder(
        gyro_medium, lambda length: generate_annulus(length, 2 * length, 2, 16),
        PATHS[path], vector)
    check_scaling(solutions, tem_count=1)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("path", PATHS)
def test_vector_routes_at_extreme_scales(gyro_medium, path):
    # the product of two edge curls is of order L^-4, and a norm squares
    # the residual's terms again: each is scaled first, so nothing over- or
    # underflows
    vector = [f for f in SOLVERS if f.is_vector]
    scales = (1e-150, 1e-100, REFERENCE, 1e100, 1e150)
    rectangle = ladder(gyro_medium, lambda length: generate_rectangle(
        1.2 * length, length, 6, 5), PATHS[path], vector, scales)
    check_scaling(rectangle, tem_count=0)
    coax = ladder(gyro_medium, lambda length: generate_annulus(
        length, 2 * length, 2, 16), PATHS[path], vector, scales)
    check_scaling(coax, tem_count=1)


@pytest.mark.filterwarnings("error")
def test_all_zero_curl_fails_the_gate(gyro_medium):
    # an all-zero K makes every residual 0 / 0: its zero eigenvalues must
    # not pass, and the NaN is the gate's error, not a warning
    solution = SOLVERS[Formulation.VECTOR_TE](
        generate_rectangle(1.2e-3, 1e-3, 6, 5), gyro_medium, 3)
    pencil = replace(solution.pencil, K=0 * solution.pencil.K)
    with pytest.raises(EigenSolveError, match="residual nan"):
        residual_gate(pencil, np.zeros(3), solution.dof_vectors)


def test_cli_rung_writes_the_library_values(gyro_medium, tmp_path, capsys):
    # the nanometre rung of the shift-invert rectangle, through `solve`;
    # its pencils (p = 437 to 1,484) take shift-invert by default
    length = 1e-9
    config = {
        "medium": {"eps": {"d": 2, "alpha": -1, "zz": 1},
                   "mu": {"d": 1, "alpha": 0.5, "zz": 2}},
        "geometry": {"kind": "rectangle", "a": 1.2 * length, "b": length,
                     "nx": 24, "ny": 20},
        "num_modes": 3,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    assert main(["solve", "--config", str(path), "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    rows = (tmp_path / "cutoffs.csv").read_text(encoding="utf-8").splitlines()
    mesh = generate_rectangle(1.2 * length, length, 24, 20)
    expected = []
    for formulation in Formulation:
        solution = SOLVERS[formulation](mesh, gyro_medium, 3,
                                        PATHS["shift-invert"])
        expected += [(formulation.value, mesh.h, index, kt, "false")
                     for index, kt in enumerate(solution.cutoffs)]
    written = [(name, float(h), int(index), float(kt), tem)
               for name, h, index, kt, tem in
               (row.split(",") for row in rows[1:])]
    # 17 significant digits: every float reads back exactly
    assert written == expected
