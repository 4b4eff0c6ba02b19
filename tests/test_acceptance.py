"""Acceptance suite: one test per criterion, printing one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.  The reference geometry set is a 1.2 mm x 1.0 mm
rectangle, a 2 mm-radius disc, a 1 mm / 2 mm coaxial ring, and a
double-ridge guide supplied as a mesh file (generated once from a
rectilinear polygon and round-tripped through the ASCII format).
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest
import scipy.linalg as la

from wgcutoff import (
    MediumSpec,
    TransverseTensor,
    assemble_scalar_te,
    assemble_scalar_tm,
    assemble_vector_te,
    assemble_vector_tm,
    build_topology,
    compare_spectra,
    convergence_trend,
    export_mesh,
    generate_annulus,
    generate_rectangle,
    generate_rectilinear_polygon,
    import_mesh,
    oracle_tm_disc,
    oracle_tm_rectangle,
    refine_uniform,
    validate,
)
from wgcutoff.crossval import TREND_DECREASING
from wgcutoff.eigensolve import SolveOptions, solve
from wgcutoff.medium import VERDICT_INDEPENDENT, VERDICT_NOT_GUARANTEED
from wgcutoff.modes import (
    SOLVERS,
    Formulation,
    constraint_residuals,
    multiplier_diagnostics,
    verify_tem,
)
from conftest import (
    RIDGE_VERTICES,
    hermiticity_defect,
    random_structured_mesh,
    random_valid_medium,
)
from saddle_oracle import dense_saddle_bruteforce


@contextmanager
def criterion(label):
    try:
        yield
    except Exception:
        print(f"\nACCEPTANCE {label}: FAIL")
        raise
    print(f"\nACCEPTANCE {label}: PASS")


DIAMETERS = {
    "rectangle": float(np.hypot(1.2e-3, 1.0e-3)),
    "disc": 4e-3,
    "coax": 4e-3,
    "ridge": float(np.hypot(2.4e-3, 1.0e-3)),
}

#: The bound on ``|K c| / (|K| |c|)`` for scalar TE's constant c, a row-sum
#: norm |K|: at most 8.2e-17 on criterion 11's 100 random cases, and 4.6e-17
#: on coax L2, the disc, the ridge and the 128 x 128 rectangle.
KERNEL_TOL = 1e-15


@pytest.fixture(scope="session")
def two_route_meshes(tmp_path_factory):
    """Two nested levels per geometry; level A satisfies h <= diameter/20."""
    ridge_path = tmp_path_factory.mktemp("meshes") / "double_ridge.txt"
    ridge_path.write_text(
        export_mesh(generate_rectilinear_polygon(RIDGE_VERTICES, 0.025e-3)))
    user_supplied_ridge = import_mesh(ridge_path.read_text())
    bases = {
        "rectangle": generate_rectangle(1.2e-3, 1.0e-3, 32, 32),
        "disc": generate_annulus(0.0, 2e-3, 16, 100),
        "coax": generate_annulus(1e-3, 2e-3, 12, 144),
        "ridge": user_supplied_ridge,
    }
    for name, mesh in bases.items():
        assert mesh.h <= DIAMETERS[name] / 20
    return {name: (mesh, refine_uniform(mesh)) for name, mesh in bases.items()}


@pytest.fixture(scope="session")
def two_route_solutions(two_route_meshes, gyro_medium):
    out = {}
    for name, levels in two_route_meshes.items():
        for level, mesh in zip("AB", levels):
            for formulation in Formulation:
                out[name, level, formulation] = SOLVERS[formulation](
                    mesh, gyro_medium, 4)
    return out


@pytest.fixture(scope="session")
def rectangle_tm_family(gyro_medium):
    """Scalar TM cut-offs on the nested 8x8 rectangle family (5 levels)."""
    meshes = [generate_rectangle(1.2e-3, 1.0e-3, 8, 8)]
    for _ in range(4):
        meshes.append(refine_uniform(meshes[-1]))
    solutions = [SOLVERS[Formulation.SCALAR_TM](m, gyro_medium, 4)
                 for m in meshes]
    return meshes, solutions


def test_criterion_01_medium_admission_gate(gyro_medium):
    with criterion("01 medium-admission-gate"):
        report = validate(gyro_medium)
        assert report.verdict == VERDICT_INDEPENDENT
        assert report.positive_definite_ok
        assert report.decoupling_residual == 0.0

        perturbed = MediumSpec(gyro_medium.eps_t, gyro_medium.eps_zz,
                               TransverseTensor(1.0, 0.6), gyro_medium.mu_zz)
        assert validate(perturbed).verdict == VERDICT_NOT_GUARANTEED

        reps = 1000
        start = time.perf_counter()
        for _ in range(reps):
            validate(gyro_medium)
        per_call = (time.perf_counter() - start) / reps
        assert per_call < 1e-3, f"validation took {per_call * 1e3:.3f} ms"


def test_criterion_02_tm_rectangle_vs_oracle(rectangle_tm_family,
                                             gyro_medium):
    with criterion("02 tm-rectangle-oracle"):
        meshes, solutions = rectangle_tm_family
        assert meshes[-1].h <= 0.05e-3 * 0.5  # family reaches h ~ 0.012 mm
        oracle = oracle_tm_rectangle(1.2e-3, 1.0e-3, gyro_medium, 4)
        cutoffs = np.array([s.cutoffs for s in solutions])
        # conforming values decrease monotonically toward the true ones
        assert (np.diff(cutoffs, axis=0) <= 0).all()
        assert (cutoffs >= oracle[None, :] * (1 - 1e-9)).all()
        assert (np.abs(cutoffs[-1] - oracle) / oracle <= 5e-3).all()
        finest_reference = np.array([5783.77, 8636.88, 9627.80, 11570.16])
        assert (np.abs(cutoffs[-1] - finest_reference) / finest_reference
                <= 2e-3).all()


def test_criterion_03_tm_disc_vs_bessel_oracle(two_route_meshes,
                                               two_route_solutions,
                                               gyro_medium):
    with criterion("03 tm-disc-bessel-oracle"):
        mesh = two_route_meshes["disc"][1]
        assert mesh.h <= 2e-3 / 20
        oracle = oracle_tm_disc(2e-3, gyro_medium, 4)
        assert oracle[1] == oracle[2]  # exactly degenerate in the oracle
        for formulation in (Formulation.SCALAR_TM, Formulation.VECTOR_TM):
            ks = two_route_solutions["disc", "B", formulation].nonzero_cutoffs
            assert (np.abs(ks[:4] - oracle) / oracle <= 5e-3).all()
            assert abs(ks[1] - ks[2]) / ks[1] <= 2e-3


def _route_agreement(two_route_solutions, scalar, vector, label):
    for name in DIAMETERS:
        for level, rtol in (("A", 1e-2), ("B", 2.5e-3)):
            report = compare_spectra(
                two_route_solutions[name, level, scalar],
                two_route_solutions[name, level, vector], 4, rtol)
            assert report.all_passed, (
                f"{label} {name} level {level}: rel diffs "
                f"{report.rel_diffs} exceed {rtol}")


def test_criterion_04_te_route_agreement(two_route_solutions):
    with criterion("04 te-scalar-vs-vector"):
        _route_agreement(two_route_solutions, Formulation.SCALAR_TE,
                         Formulation.VECTOR_TE, "TE")


def test_criterion_05_tm_route_agreement(two_route_solutions):
    with criterion("05 tm-scalar-vs-vector"):
        _route_agreement(two_route_solutions, Formulation.SCALAR_TM,
                         Formulation.VECTOR_TM, "TM")


def test_criterion_06_tem_counts(two_route_solutions):
    with criterion("06 tem-mode-counts"):
        for formulation in (Formulation.VECTOR_TE, Formulation.VECTOR_TM):
            for level in "AB":
                coax = two_route_solutions["coax", level, formulation]
                assert coax.tem_count == 1
                assert coax.cutoffs[0] < 1e-3 * coax.cutoffs[1]
                assert verify_tem(coax).passed
                for name in ("rectangle", "disc", "ridge"):
                    solution = two_route_solutions[name, level, formulation]
                    assert solution.tem_count == 0


def test_criterion_07_minmax_monotonicity(gyro_medium):
    with criterion("07 scalar-minmax-monotone"):
        bases = {
            "rectangle": generate_rectangle(1.2e-3, 1.0e-3, 8, 8),
            "disc": generate_annulus(0.0, 2e-3, 3, 18),
            "coax": generate_annulus(1e-3, 2e-3, 2, 16),
            "ridge": generate_rectilinear_polygon(RIDGE_VERTICES, 1e-4),
        }
        for name, base in bases.items():
            family = [base]
            for _ in range(4):
                family.append(refine_uniform(family[-1]))
            for formulation in (Formulation.SCALAR_TE, Formulation.SCALAR_TM):
                report = convergence_trend(formulation, family, gyro_medium,
                                           4)
                assert all(t == TREND_DECREASING for t in report.trends), (
                    f"{name} {formulation.value}: {report.trends}")


def test_criterion_08_multiplier_diagnostics(two_route_solutions):
    with criterion("08 multiplier-diagnostics"):
        checked = 0
        for (name, level, formulation), solution in two_route_solutions.items():
            if not formulation.is_vector:
                continue
            values = multiplier_diagnostics(solution).values
            assert (values <= 1e-6).all(), (
                f"{name} {level} {formulation.value}: {values}")
            checked += values.size
        assert checked >= 4 * 2 * 2 * 4  # geometries x levels x pols x modes


def test_criterion_09_divergence_constraint(two_route_solutions):
    with criterion("09 divergence-constraint"):
        for (name, level, formulation), solution in two_route_solutions.items():
            if not formulation.is_vector:
                continue
            residuals = constraint_residuals(solution)
            assert (residuals <= 1e-8).all(), (
                f"{name} {level} {formulation.value}: {residuals}")


def test_criterion_10_eigensolver_oracle_equivalence(gyro_medium):
    with criterion("10 shift-invert-vs-bruteforce"):
        meshes = {
            "rectangle": generate_rectangle(1.2e-3, 1.0e-3, 3, 3),
            "disc": generate_annulus(0.0, 2e-3, 2, 8),
            "coax": generate_annulus(1e-3, 2e-3, 2, 8),
        }
        pencil_count = 0
        for mesh in meshes.values():
            pencils = [assemble_scalar_te(mesh, gyro_medium),
                       assemble_scalar_tm(mesh, gyro_medium),
                       assemble_vector_tm(mesh, gyro_medium)]
            if (~mesh.boundary_edge).any():
                pencils.append(assemble_vector_te(mesh, gyro_medium))
            for pencil in pencils:
                assert pencil.primal_dim <= 200
                k = min(4, pencil.finite_count)
                shift_invert = SolveOptions(dense_cutoff=0)
                got = solve(pencil, k, shift_invert).eigenvalues
                if not pencil.multiplier_dim:
                    # past scalar TE's constant, a known zero never returned
                    ref = la.eigh(pencil.K.toarray(), pencil.M.toarray(),
                                  eigvals_only=True)[-pencil.finite_count:][:k]
                else:
                    ref = dense_saddle_bruteforce(pencil, k)
                scale = max(np.abs(ref).max(), 1.0)
                assert np.allclose(got, ref, rtol=1e-8, atol=1e-8 * scale)
                pencil_count += 1
        assert pencil_count == 12


def test_criterion_11_randomized_invariant_suite(gyro_medium):
    with criterion("11 randomized-invariants"):
        start = time.perf_counter()
        cases = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            mesh = random_structured_mesh(rng)
            spec = random_valid_medium(rng)

            # Euler relation and orientation
            assert mesh.euler_deficit() == 0
            counts = np.bincount(mesh.tri_edges.ravel(),
                                 minlength=mesh.num_edges)
            assert ((counts == 1) == mesh.boundary_edge).all()

            # Hermiticity of every assembled pencil
            pencils = [assemble_scalar_te(mesh, spec),
                       assemble_vector_tm(mesh, spec)]
            if (~mesh.boundary_node).any():
                pencils.append(assemble_scalar_tm(mesh, spec))
                if (~mesh.boundary_edge).any():
                    pencils.append(assemble_vector_te(mesh, spec))
            for pencil in pencils:
                assert hermiticity_defect(pencil.K) <= 1e-12
                assert hermiticity_defect(pencil.M) <= 1e-12

            # mass positive definiteness (scalar TE mass is the template)
            mass = pencils[0].M.toarray()
            assert np.linalg.eigvalsh(mass).min() > 0

            # the scalar TE pencil has exactly one near-zero mode, its
            # kernel the constant, which the solve skips
            te = pencils[0]
            lam = la.eigvalsh(te.K.toarray(), mass)
            assert (np.flatnonzero(np.abs(lam[:-1]) < 1e-9 * lam[1:])
                    .tolist() == [0])
            assert (np.linalg.norm(te.K @ te.kernel)
                    <= KERNEL_TOL * abs(te.K).sum(axis=1).max()
                    * np.linalg.norm(te.kernel))
            k = min(6, te.primal_dim - 1)
            np.testing.assert_allclose(solve(te, k).eigenvalues,
                                       lam[1:k + 1], rtol=1e-8)

            # permutation invariance of the assembly
            perm = rng.permutation(mesh.num_triangles)
            shuffled = build_topology(mesh.nodes, mesh.triangles[perm])
            other = assemble_scalar_te(shuffled, spec)
            diff = np.abs((te.K - other.K).toarray()).max()
            assert diff <= 1e-13 * np.abs(te.K.data).max()
            cases += 1
        elapsed = time.perf_counter() - start
        assert cases >= 100
        assert elapsed < 240, f"property suite took {elapsed:.0f}s"
