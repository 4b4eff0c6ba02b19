import dataclasses

import numpy as np
import pytest
from scipy.constants import epsilon_0, mu_0

from wgcutoff import (
    MediumSpec,
    TransverseTensor,
    bulk_wavenumber,
    build_topology,
    generate_annulus,
    generate_rectangle,
    refine_uniform,
    solve_te_scalar,
    solve_te_vector,
    solve_tm_scalar,
    solve_tm_vector,
)
from wgcutoff import eigensolve
from wgcutoff.eigensolve import (
    RESIDUAL_TOL,
    EigenSolveError,
    gradient_part,
    residual_gate,
)
from wgcutoff.femcore import (
    assemble_scalar_te,
    assemble_vector_tm,
    triangle_geometry,
)
from wgcutoff.medium import MediumError
from wgcutoff.modes import (
    SOLVERS,
    Formulation,
    ModeSolution,
    _PIVOT_TIE,
    _phase,
    constraint_residuals,
    multiplier_diagnostics,
    reconstruct_from_ez,
    reconstruct_from_hz,
    reconstruct_longitudinal,
    restore,
    transverse_companion,
    transverse_field,
    verify_tem,
)
from saddle_oracle import with_gradient


@pytest.fixture(scope="module")
def coax_mesh():
    return generate_annulus(1e-3, 2e-3, 3, 24)


@pytest.fixture(scope="module")
def rect_mesh():
    return generate_rectangle(1.2e-3, 1.0e-3, 8, 8)


class TestSolvers:
    def test_q1_returns_one_nonzero(self, rect_mesh, gyro_medium):
        for solver in (solve_te_scalar, solve_tm_scalar,
                       solve_te_vector, solve_tm_vector):
            solution = solver(rect_mesh, gyro_medium, 1)
            assert solution.nonzero_cutoffs.size == 1
            assert solution.tem_count == 0

    def test_coax_vector_reports_one_tem(self, coax_mesh, gyro_medium):
        for solver in (solve_te_vector, solve_tm_vector):
            solution = solver(coax_mesh, gyro_medium, 3)
            assert solution.tem_count == 1
            assert solution.cutoffs[0] <= 1e-3 * solution.cutoffs[1]
            assert solution.nonzero_cutoffs.size == 3

    @pytest.mark.parametrize("solver", [solve_te_vector, solve_tm_vector])
    def test_tem_count_is_the_pencils(self, coax_mesh, gyro_medium,
                                      monkeypatch, solver):
        # the TEM modes are the pencil's harmonic fields: a nonzero mode
        # whose root falls below 1e-3 of the others is still nonzero
        real_solve = eigensolve.solve

        def shrunk(pencil, k, options=None):
            spectrum = real_solve(pencil, k, options)
            w = spectrum.eigenvalues.copy()
            w[1] *= 1e-8
            return dataclasses.replace(spectrum, eigenvalues=w)

        monkeypatch.setattr(eigensolve, "solve", shrunk)
        solution = solver(coax_mesh, gyro_medium, 3)
        assert solution.tem_count == 1
        assert solution.nonzero_cutoffs.size == 3
        assert (solution.nonzero_cutoffs[0]
                < 1e-3 * solution.nonzero_cutoffs[1])

    def test_scalar_te_small_root_is_a_mode(self, rect_mesh, gyro_medium,
                                            monkeypatch):
        # the constant never comes back from the solve, so a mode whose root
        # falls below 1e-3 of the others is still reported
        real_solve = eigensolve.solve

        def shrunk(pencil, k, options=None):
            spectrum = real_solve(pencil, k, options)
            w = spectrum.eigenvalues.copy()
            w[0] *= 1e-8
            return dataclasses.replace(spectrum, eigenvalues=w)

        monkeypatch.setattr(eigensolve, "solve", shrunk)
        solution = solve_te_scalar(rect_mesh, gyro_medium, 3)
        assert solution.cutoffs.size == 3
        assert solution.cutoffs[0] < 1e-3 * solution.cutoffs[1]

    def test_vector_te_without_interior_nodes(self, unit_square_mesh,
                                              gyro_medium):
        # one interior edge, no interior nodes: the constraint is vacuous
        solution = solve_te_vector(unit_square_mesh, gyro_medium, 1)
        assert solution.nonzero_cutoffs.size == 1
        assert solution.pencil.multiplier_dim == 0

    def test_coupled_medium_rejected(self, rect_mesh):
        bad = MediumSpec(TransverseTensor(2.0, -1.0), 1.0,
                         TransverseTensor(1.0, 1.0), 1.0)
        with pytest.raises(MediumError):
            solve_te_scalar(rect_mesh, bad, 2)

    @pytest.mark.parametrize("formulation", list(Formulation))
    def test_nearly_singular_medium_rejected_by_the_gate(self, formulation):
        # d > |alpha| in both blocks, but neither has an inverse: every
        # route refuses it at the admission gate, before any assembly
        bad = MediumSpec(TransverseTensor(1.0, 0.9999999999999999), 1.0,
                         TransverseTensor(1.0, -0.9999999999999999), 1.0)
        mesh = generate_rectangle(1.2e-3, 1.0e-3, 6, 5)
        with pytest.raises(MediumError, match="^medium does not guarantee "
                                              "independent TE/TM modes; eps_t"):
            SOLVERS[formulation](mesh, bad, 2)

    def test_cutoffs_sorted_nonnegative_reproducible(self, rect_mesh,
                                                     gyro_medium):
        a = solve_tm_vector(rect_mesh, gyro_medium, 4)
        b = solve_tm_vector(rect_mesh, gyro_medium, 4)
        assert (a.cutoffs >= 0).all()
        assert (np.diff(a.cutoffs) >= 0).all()
        assert np.array_equal(a.cutoffs, b.cutoffs)
        assert np.array_equal(a.dof_vectors, b.dof_vectors)

    def test_cutoffs_depend_only_on_relative_ratios(self, rect_mesh,
                                                    gyro_medium):
        # scaling the whole permittivity (or permeability) by a constant
        # leaves every cut-off unchanged: absolute units never enter
        g = gyro_medium
        scaled = MediumSpec(TransverseTensor(3.7 * g.eps, 3.7 * g.a),
                            3.7 * g.eps_zz, g.mu_t, g.mu_zz)
        a = solve_tm_scalar(rect_mesh, gyro_medium, 3).cutoffs
        b = solve_tm_scalar(rect_mesh, scaled, 3).cutoffs
        assert np.allclose(a, b, rtol=1e-12)

    def test_scalar_te_drops_exactly_one_near_zero(self, rect_mesh,
                                                   gyro_medium):
        # q modes, none of them near zero: the pencil's eigenvalues past
        # its one zero, the constant
        import scipy.linalg as la
        solution = solve_te_scalar(rect_mesh, gyro_medium, 4)
        pencil = solution.pencil
        brute = la.eigh(pencil.K.toarray(), pencil.M.toarray(),
                        eigvals_only=True)
        assert abs(brute[0]) <= 1e-9 * brute[1]
        assert solution.cutoffs.size == 4
        assert (solution.cutoffs > 1e-3 * solution.cutoffs[-1]).all()
        np.testing.assert_allclose(solution.eigenvalues, brute[1:5],
                                   rtol=1e-12)


def synthetic_scalar_tm(mesh, medium, nodal_values, kt):
    """A hand-built scalar TM solution for reconstruction formulas."""
    pencil = assemble_scalar_te(mesh, medium)  # all-node dof map
    column = np.asarray(nodal_values, dtype=complex)[:, None]
    return ModeSolution(
        formulation=Formulation.SCALAR_TM,
        eigenvalues=np.array([kt**2]),
        dof_vectors=column, residuals=np.zeros(1),
        mesh=mesh, medium=medium, pencil=pencil,
    )


class TestReconstructScalar:
    def test_manufactured_linear_ez(self, unit_triangle_mesh, gyro_medium):
        # e_z with nodal values (0, 0.7, -0.3) has gradient (0.7, -0.3)
        kt = 2.0
        k = 5.0
        omega = k / np.sqrt(epsilon_0 * mu_0 * 1.5)
        solution = synthetic_scalar_tm(unit_triangle_mesh, gyro_medium,
                                       [0.0, 0.7, -0.3], kt)
        et, ht = reconstruct_from_ez(solution, 0, omega)
        kz = np.sqrt(k**2 - kt**2)
        grad = np.array([0.7, -0.3])
        expected_et = -1j * kz / kt**2 * grad
        tensored = gyro_medium.eps_t.as_matrix() @ grad
        expected_ht = (-1j * omega / kt**2 * epsilon_0
                       * np.array([-tensored[1], tensored[0]]))
        assert np.allclose(et.samples[0], expected_et, rtol=1e-9)
        assert np.allclose(ht.samples[0], expected_ht, rtol=1e-9)
        assert et.k_z == pytest.approx(kz, rel=1e-9)

    def test_zero_mode_rejected(self, unit_triangle_mesh, gyro_medium):
        solution = synthetic_scalar_tm(unit_triangle_mesh, gyro_medium,
                                       [1.0, 1.0, 1.0], 0.0)
        with pytest.raises(ValueError, match="nonzero"):
            reconstruct_from_ez(solution, 0, 1e10)

    def test_omega_scaling(self, unit_triangle_mesh, gyro_medium):
        kt = 2.0
        omega = 8.0 / np.sqrt(epsilon_0 * mu_0 * 1.5)  # k = 8
        solution = synthetic_scalar_tm(unit_triangle_mesh, gyro_medium,
                                       [0.0, 0.7, -0.3], kt)
        et1, ht1 = reconstruct_from_ez(solution, 0, omega)
        et2, ht2 = reconstruct_from_ez(solution, 0, 2 * omega)
        assert np.allclose(ht2.samples, 2 * ht1.samples, rtol=1e-12)
        ratio = et2.k_z / et1.k_z
        assert np.allclose(et2.samples, ratio * et1.samples, rtol=1e-12)

    def test_constant_field_has_zero_gradient(self, unit_square_mesh,
                                              gyro_medium):
        from wgcutoff.modes import _nodal_gradients
        solution = synthetic_scalar_tm(unit_square_mesh, gyro_medium,
                                       np.full(4, 3.7), 1.0)
        grad = _nodal_gradients(solution, solution.dof_vectors[:, 0])
        assert np.abs(grad).max() <= 1e-14

    def test_isotropic_fields_orthogonal(self, gyro_medium, isotropic_medium):
        mesh = generate_rectangle(1.0e-3, 0.8e-3, 6, 5)
        solution = solve_te_scalar(mesh, isotropic_medium, 2)
        omega = 1.2 * solution.cutoffs[0] / np.sqrt(epsilon_0 * mu_0)
        et, ht = reconstruct_from_hz(solution, 0, omega)
        dots = np.abs(np.einsum("tk,tk->t", et.samples,
                                np.conj(ht.samples)))
        scale = (np.linalg.norm(et.samples, axis=1)
                 * np.linalg.norm(ht.samples, axis=1))
        mask = scale > 1e-12 * scale.max()
        assert (dots[mask] <= 1e-10 * scale[mask]).all()

    def test_evanescent_branch(self, rect_mesh, gyro_medium):
        solution = solve_te_scalar(rect_mesh, gyro_medium, 1)
        kt = solution.cutoffs[0]
        omega = 0.5 * kt / np.sqrt(epsilon_0 * mu_0 * 1.5)  # below cut-off
        et, ht = reconstruct_from_hz(solution, 0, omega)
        assert et.k_z.real == 0.0
        assert et.k_z.imag < 0

    def test_dispersion_identity(self, rect_mesh, gyro_medium):
        solution = solve_te_scalar(rect_mesh, gyro_medium, 2)
        for omega in (5e11, 2e12):
            et, _ = reconstruct_from_hz(solution, 1, omega)
            k = bulk_wavenumber(gyro_medium, omega)
            kt = solution.cutoffs[1]
            assert et.k_z**2 + kt**2 == pytest.approx(k**2, rel=1e-10)

    def test_wrong_formulation_rejected(self, rect_mesh, gyro_medium):
        solution = solve_tm_scalar(rect_mesh, gyro_medium, 2)
        with pytest.raises(ValueError, match="scalar TE"):
            reconstruct_from_hz(solution, 0, 1e10)


class TestPhase:
    def test_pivot_ignores_rounding_on_a_symmetric_mesh(self, gyro_medium):
        # the largest entry of each mode has 12 copies equal to rounding
        mesh = generate_annulus(1e-3, 2e-3, 2, 12)
        columns = solve_te_vector(mesh, gyro_medium, 2).dof_vectors
        reference = _phase(columns)
        rng = np.random.default_rng(3)
        for _ in range(20):
            noisy = columns * (1 + 1e-13 * rng.standard_normal(columns.shape))
            assert np.allclose(_phase(noisy), reference, rtol=0, atol=1e-11)

    def test_largest_entry_is_real_positive(self, rect_mesh, gyro_medium):
        # the pivot is the first entry within _PIVOT_TIE of the largest: on
        # this symmetric mesh a mirror copy of the pivot with the opposite
        # sign can be the larger by rounding
        columns = solve_tm_vector(rect_mesh, gyro_medium, 3).dof_vectors
        for column in (columns * _phase(columns)).T:
            magnitude = np.abs(column)
            pivot = column[np.argmax(
                magnitude >= (1 - _PIVOT_TIE) * magnitude.max())]
            assert pivot.real > 0 and abs(pivot.imag) <= 1e-6 * abs(pivot)
            assert (1 - _PIVOT_TIE) * magnitude.max() <= abs(pivot)


def synthetic_vector(mesh, medium, edge_values, kt, formulation):
    pencil = assemble_vector_tm(mesh, medium)  # all-edge dof map
    column = np.asarray(edge_values, dtype=complex)[:, None]
    return ModeSolution(
        formulation=formulation,
        eigenvalues=np.array([kt**2]),
        dof_vectors=column, residuals=np.zeros(1),
        mesh=mesh, medium=medium, pencil=pencil,
    )


class TestReconstructLongitudinal:
    def test_single_edge_basis_curl(self, unit_triangle_mesh, gyro_medium):
        # edge 0 joins nodes (0, 1): curl(N) = 2 on the unit right triangle
        omega = 1e10
        solution = synthetic_vector(unit_triangle_mesh, gyro_medium,
                                    [1.0, 0.0, 0.0], 3.0,
                                    Formulation.VECTOR_TE)
        frame = reconstruct_longitudinal(solution, 0, omega)
        expected = 1j * 2.0 / (omega * mu_0 * gyro_medium.mu_zz)
        assert frame.samples[0] == pytest.approx(expected, rel=1e-12)
        assert frame.label == "h_z"

    def test_geometry_once_per_solution(self, rect_mesh, gyro_medium,
                                        monkeypatch):
        from wgcutoff import femcore
        solution = solve_te_vector(rect_mesh, gyro_medium, 3)
        assert solution.tem_count == 0
        calls = []
        geometry = femcore.triangle_geometry
        monkeypatch.setattr(femcore, "triangle_geometry",
                            lambda mesh: calls.append(1) or geometry(mesh))
        # the transverse and the longitudinal fields share one pass
        for index in range(3):
            transverse_companion(solution, index, 2e12)
            reconstruct_longitudinal(solution, index, 2e12)
        assert len(calls) == 1

    def test_tem_mode_rejected(self, coax_mesh, gyro_medium):
        solution = solve_tm_vector(coax_mesh, gyro_medium, 2)
        assert solution.tem_count == 1
        with pytest.raises(ValueError, match="TEM"):
            reconstruct_longitudinal(solution, 0, 1e10)

    def test_scalar_and_vector_longitudinal_fields_agree(self, gyro_medium):
        # the two TE routes describe the same physical mode, so the vector
        # route's per-triangle h_z must converge to the scalar route's h_z
        omega = 2 * np.pi * 1e11
        mesh = generate_rectangle(1.2e-3, 1.0e-3, 6, 5)
        residuals = []
        for _ in range(3):
            scalar = solve_te_scalar(mesh, gyro_medium, 1)
            vector = solve_te_vector(mesh, gyro_medium, 1)
            nodal = scalar.full_vectors[:, 0]
            per_tri = nodal[mesh.triangles].mean(axis=1)
            recovered = reconstruct_longitudinal(vector, 0, omega).samples
            fit = np.vdot(per_tri, recovered) / np.vdot(per_tri, per_tri)
            residuals.append(np.linalg.norm(recovered - fit * per_tri)
                             / np.linalg.norm(recovered))
            mesh = refine_uniform(mesh)
        assert residuals[0] <= 0.05
        assert residuals[0] > residuals[1] > residuals[2]
        assert residuals[2] <= 0.25 * residuals[0]


class TestTransverseCompanion:
    @pytest.mark.parametrize("solver, entry_point", [
        (solve_te_scalar, reconstruct_from_hz),
        (solve_tm_scalar, reconstruct_from_ez),
    ])
    def test_scalar_route_matches_its_entry_point(self, rect_mesh,
                                                  gyro_medium, solver,
                                                  entry_point):
        solution = solver(rect_mesh, gyro_medium, 2)
        for omega in (5e11, 2e12):
            for index in range(2):
                got = transverse_companion(solution, index, omega)
                expected = entry_point(solution, index, omega)
                for a, b in zip(got, expected):
                    assert a.label == b.label and a.k_z == b.k_z
                    assert np.array_equal(a.samples, b.samples)

    @pytest.mark.parametrize("scalar_solver, entry_point, vector_solver, label", [
        (solve_te_scalar, reconstruct_from_hz, solve_te_vector, "e_t"),
        (solve_tm_scalar, reconstruct_from_ez, solve_tm_vector, "h_t"),
    ])
    def test_scalar_and_vector_transverse_fields_agree(
            self, gyro_medium, scalar_solver, entry_point, vector_solver,
            label):
        # the field the vector route solves, against the same field formed
        # from the scalar route's gradient; both are constant per triangle,
        # so they agree to first order in the cell size
        omega = 2 * np.pi * 1e11
        mesh = generate_rectangle(1.2e-3, 1.0e-3, 6, 5)
        residuals = []
        for _ in range(3):
            frames = (
                entry_point(scalar_solver(mesh, gyro_medium, 1), 0, omega),
                transverse_companion(vector_solver(mesh, gyro_medium, 1), 0,
                                     omega),
            )
            scalar, vector = ({f.label: f.samples for f in pair}[label].ravel()
                              for pair in frames)
            fit = np.vdot(scalar, vector) / np.vdot(scalar, scalar)
            residuals.append(np.linalg.norm(vector - fit * scalar)
                             / np.linalg.norm(vector))
            mesh = refine_uniform(mesh)
        assert residuals[0] <= 0.35
        assert residuals[1] <= 0.6 * residuals[0]
        assert residuals[2] <= 0.6 * residuals[1]

    def test_tem_field_decays_with_radius(self, coax_mesh, gyro_medium):
        solution = solve_tm_vector(coax_mesh, gyro_medium, 2)
        omega = 1e11
        et, ht = transverse_companion(solution, 0, omega)
        centroids = coax_mesh.nodes[coax_mesh.triangles].mean(axis=1)
        radii = np.hypot(centroids[:, 0], centroids[:, 1])
        mags = np.linalg.norm(ht.samples, axis=1)
        inner = mags[radii < 1.33e-3].max()
        outer = mags[radii > 1.67e-3].max()
        assert outer < inner

    def test_dispersion_for_tem(self, coax_mesh, gyro_medium):
        solution = solve_tm_vector(coax_mesh, gyro_medium, 2)
        omega = 1e11
        et, _ = transverse_companion(solution, 0, omega)
        assert et.k_z == pytest.approx(bulk_wavenumber(gyro_medium, omega),
                                       rel=1e-9)


def _zcross(v):
    """z x v for per-triangle transverse vectors (T, 2)."""
    return np.stack([-v[:, 1], v[:, 0]], axis=-1)


def _times(tensor, v):
    """``tensor`` (a ``TransverseTensor``) times per-triangle vectors."""
    return v @ tensor.as_matrix().T


@pytest.fixture(scope="module", params=["rect 24x20", "coax L1"])
def maxwell_mesh(request):
    if request.param == "rect 24x20":
        return generate_rectangle(1.2e-3, 1.0e-3, 24, 20)
    return refine_uniform(generate_annulus(1e-3, 2e-3, 4, 48))


class TestScalarFieldsSolveMaxwell:
    """The fields a scalar route exports satisfy both transverse Maxwell
    equations on every triangle, with d/dz -> -j k_z:
    ``-z x grad E_z - j k_z z x e_t = -j w mu0 mu_t h_t`` and
    ``-z x grad H_z - j k_z z x h_t = j w eps0 eps_t e_t``.
    The P1 gradient and both companions are constant per triangle, so the
    equations hold to rounding.  The second holds only because
    ``eps_t mu_t = (eps mu + a b) I`` under the decoupling condition, so
    this checks the paper's theorem on the exported fields.  The tensors
    are applied here from ``as_matrix``, not with the package's own
    product."""

    @pytest.mark.parametrize("medium", ["reference", "isotropic"])
    @pytest.mark.parametrize("solver", [solve_te_scalar, solve_tm_scalar])
    def test_transverse_equations_hold_per_triangle(self, maxwell_mesh,
                                                    gyro_medium, solver,
                                                    medium):
        spec = (gyro_medium if medium == "reference"
                else MediumSpec.isotropic(2.0, 1.0))
        mesh = maxwell_mesh
        solution = solver(mesh, spec, 4)
        grads = triangle_geometry(mesh)[1]
        k_per_omega = bulk_wavenumber(spec, 1.0)
        first_kz = []
        for factor in (0.5, 3.0):
            omega = factor * solution.nonzero_cutoffs[0] / k_per_omega
            for index in range(4):
                et, ht = transverse_companion(solution, index, omega)
                kz = et.k_z
                if index == 0:
                    first_kz.append(kz)
                grad = np.einsum("tl,tlk->tk",
                                 solution.full_vector(index)[mesh.triangles],
                                 grads)
                zero = np.zeros_like(grad)
                grad_ez, grad_hz = ((zero, grad) if solver is solve_te_scalar
                                    else (grad, zero))
                faraday = (-_zcross(grad_ez), -1j * kz * _zcross(et.samples),
                           1j * omega * mu_0 * _times(spec.mu_t, ht.samples))
                ampere = (-_zcross(grad_hz), -1j * kz * _zcross(ht.samples),
                          -1j * omega * epsilon_0
                          * _times(spec.eps_t, et.samples))
                for terms in (faraday, ampere):
                    residual = np.abs(sum(terms)).max()
                    assert residual <= 1e-14 * sum(map(np.abs, terms)).max()
        # both branches of k_z: the first mode decays at k = k_t / 2 and
        # propagates at k = 3 k_t
        decaying, propagating = first_kz
        assert decaying.real == 0 and decaying.imag < 0
        assert propagating.imag == 0 and propagating.real > 0


def _distance(field, reference, area):
    """Area-weighted relative L2 distance from ``field`` to the nearest
    complex multiple of ``reference``, both per-triangle (T, 2)."""
    weight = area[:, None]
    fit = (np.sum(weight * reference.conj() * field)
           / np.sum(weight * np.abs(reference) ** 2))
    return np.sqrt(np.sum(weight * np.abs(field - fit * reference) ** 2)
                   / np.sum(weight * np.abs(field) ** 2))


class TestCoaxTemField:
    """Mode 0 of a vector route on the coax is its TEM mode: vector TE's
    ``e_t`` is a multiple of ``r^ / r``, and vector TM's ``h_t`` of
    ``mu_t^-1 phi^ / r``, which has a radial part in a gyrotropic medium.
    Coax L0-L2 measured TE 3.74e-2, 2.30e-2, 1.46e-2 and TM 6.92e-2,
    3.48e-2, 1.78e-2; both stall near 1e-2 at L3, the polygonal
    boundary's floor.  Against ``phi^ / r`` the TM field stays at 0.45."""

    def test_fields_approach_the_analytic_tem_field(self, gyro_medium):
        mesh = generate_annulus(1e-3, 2e-3, 4, 48)
        mu_inverse = np.linalg.inv(gyro_medium.mu_t.as_matrix())
        errors = []
        for _ in range(3):
            area = triangle_geometry(mesh)[0]
            centroids = mesh.nodes[mesh.triangles].mean(axis=1)
            radial = centroids / (centroids ** 2).sum(axis=1)[:, None]
            azimuthal = _zcross(radial)
            te = solve_te_vector(mesh, gyro_medium, 1)
            tm = solve_tm_vector(mesh, gyro_medium, 1)
            assert te.tem_count == tm.tem_count == 1
            et, ht = transverse_field(te, 0), transverse_field(tm, 0)
            errors.append((_distance(et, radial, area),
                           _distance(ht, azimuthal @ mu_inverse.T, area),
                           _distance(ht, azimuthal, area)))
            mesh = refine_uniform(mesh)
        te_error, tm_error, control = np.array(errors).T
        assert np.all(np.diff(te_error) < 0) and np.all(np.diff(tm_error) < 0)
        assert te_error[-1] <= 2e-2 and tm_error[-1] <= 2e-2
        assert control.min() >= 0.4


class TestModeIndex:
    """Every field function rejects an index outside ``range(n)``: -1 would
    otherwise pick the last mode."""

    CALLS = {
        "reconstruct_from_hz": (Formulation.SCALAR_TE, reconstruct_from_hz),
        "reconstruct_from_ez": (Formulation.SCALAR_TM, reconstruct_from_ez),
        "transverse_companion": (Formulation.VECTOR_TE, transverse_companion),
        "transverse_field": (Formulation.VECTOR_TE,
                             lambda solution, index, omega:
                             transverse_field(solution, index)),
        "reconstruct_longitudinal": (Formulation.VECTOR_TM,
                                     reconstruct_longitudinal),
    }

    @pytest.fixture(scope="class")
    def solutions(self, rect_mesh, gyro_medium):
        return {formulation: SOLVERS[formulation](rect_mesh, gyro_medium, 2)
                for formulation in Formulation}

    @pytest.mark.parametrize("name", CALLS)
    @pytest.mark.parametrize("end", ["-1", "n"])
    def test_index_outside_the_modes_rejected(self, solutions, name, end):
        formulation, call = self.CALLS[name]
        solution = solutions[formulation]
        n = solution.cutoffs.size
        index = -1 if end == "-1" else n
        with pytest.raises(IndexError, match=rf"^mode index {index} "
                                             rf"outside range\({n}\)$"):
            call(solution, index, 1e11)


class TestTemVerification:
    def test_coax_expects_one(self, coax_mesh, gyro_medium):
        report = verify_tem(solve_te_vector(coax_mesh, gyro_medium, 2))
        assert report.expected == 1 and report.passed

    def test_rectangle_expects_zero(self, rect_mesh, gyro_medium):
        report = verify_tem(solve_te_vector(rect_mesh, gyro_medium, 2))
        assert report.expected == 0 and report.passed

    def test_three_boundary_components_expect_two(self, gyro_medium):
        base = generate_rectangle(7e-3, 3e-3, 7, 3)
        holes = []
        for cell in ((1, 1), (4, 1)):
            start = 2 * (cell[1] * 7 + cell[0])
            holes.extend([start, start + 1])
        keep = np.ones(base.num_triangles, dtype=bool)
        keep[holes] = False
        mesh = refine_uniform(build_topology(base.nodes,
                                             base.triangles[keep]))
        assert mesh.num_boundary_components == 3
        solution = solve_te_vector(mesh, gyro_medium, 2)
        report = verify_tem(solution)
        assert report.expected == 2 and report.passed



class TestRestore:
    """``restore`` rebuilds a solution from the two stored arrays and takes
    its residuals from the residual gate and its TEM count from the pencil,
    as ``cutoffs`` are recomputed rather than stored."""

    @pytest.fixture(scope="class")
    def solutions(self, coax_mesh, gyro_medium):
        return {formulation: SOLVERS[formulation](coax_mesh, gyro_medium, 3)
                for formulation in Formulation}

    @pytest.mark.parametrize("formulation", list(Formulation),
                             ids=lambda f: f.value)
    def test_round_trip_carries_the_gate_residuals(self, solutions, coax_mesh,
                                                   gyro_medium, formulation):
        solution = solutions[formulation]
        restored = restore(formulation, coax_mesh, gyro_medium, 3,
                           solution.eigenvalues, solution.dof_vectors)
        assert restored.tem_count == solution.tem_count
        assert np.array_equal(restored.eigenvalues, solution.eigenvalues)
        assert np.array_equal(restored.cutoffs, solution.cutoffs)
        gate = residual_gate(solution.pencil, solution.eigenvalues,
                             solution.dof_vectors)
        assert np.array_equal(restored.residuals, gate)
        assert (restored.residuals <= RESIDUAL_TOL).all()

    @pytest.mark.parametrize("formulation", list(Formulation),
                             ids=lambda f: f.value)
    def test_moved_eigenvalues_fail_the_gate(self, solutions, coax_mesh,
                                             gyro_medium, formulation):
        # no stored residual can vouch for pairs that no longer match
        solution = solutions[formulation]
        with pytest.raises(EigenSolveError, match="residual"):
            restore(formulation, coax_mesh, gyro_medium, 3,
                    solution.eigenvalues * 1.01, solution.dof_vectors)

    def test_nan_eigenvalue_fails_the_gate(self, solutions, coax_mesh,
                                           gyro_medium):
        solution = solutions[Formulation.SCALAR_TM]
        eigenvalues = solution.eigenvalues.copy()
        eigenvalues[0] = np.nan
        with pytest.raises(EigenSolveError, match="residual nan"):
            restore(Formulation.SCALAR_TM, coax_mesh, gyro_medium, 3,
                    eigenvalues, solution.dof_vectors)

    @pytest.mark.parametrize("formulation", list(Formulation),
                             ids=lambda f: f.value)
    @pytest.mark.parametrize("damage, match", [
        ("swapped", "do not ascend"),
        ("duplicated", "not M-orthonormal"),
        ("scaled", "not M-orthonormal"),
    ])
    def test_pairs_the_solve_cannot_return_rejected(
            self, solutions, coax_mesh, gyro_medium, formulation, damage,
            match):
        # each damage passes the residual gate
        solution = solutions[formulation]
        t = solution.tem_count
        w, x = solution.eigenvalues.copy(), solution.dof_vectors.copy()
        if damage == "scaled":
            x[:, -1] *= 2
        else:
            assert w[t] < w[t + 1]
            order = [t + 1, t] if damage == "swapped" else [t, t]
            w[t:t + 2], x[:, t:t + 2] = w[order], x[:, order]
        with pytest.raises(ValueError, match=match):
            restore(formulation, coax_mesh, gyro_medium, 3, w, x)

    @pytest.mark.parametrize("formulation", [Formulation.VECTOR_TE,
                                             Formulation.VECTOR_TM],
                             ids=lambda f: f.value)
    def test_nonzero_tem_eigenvalue_rejected(self, solutions, coax_mesh,
                                             gyro_medium, formulation):
        # passes the residual gate, and would print a cut-off of 1e-15
        solution = solutions[formulation]
        w = solution.eigenvalues.copy()
        w[0] = 1e-30
        with pytest.raises(ValueError, match="TEM eigenvalues are not 0"):
            restore(formulation, coax_mesh, gyro_medium, 3, w,
                    solution.dof_vectors)

    def test_arrays_of_another_mesh_rejected(self, solutions, rect_mesh,
                                             gyro_medium):
        solution = solutions[Formulation.VECTOR_TE]
        with pytest.raises(ValueError, match="stored complex128"):
            restore(Formulation.VECTOR_TE, rect_mesh, gyro_medium, 3,
                    solution.eigenvalues, solution.dof_vectors)

class TestConstraintResiduals:
    def test_matches_the_formula_mode_by_mode(self, coax_mesh, gyro_medium):
        solution = solve_te_vector(coax_mesh, gyro_medium, 2)
        x = with_gradient(solution.pencil, solution.dof_vectors, 0.01)
        divergence = solution.pencil.constraint_block().conj().T
        expected = [np.linalg.norm(divergence @ x[:, i])
                    / np.linalg.norm(x[:, i]) for i in range(x.shape[1])]
        got = constraint_residuals(dataclasses.replace(solution,
                                                       dof_vectors=x))
        np.testing.assert_allclose(got, expected, rtol=1e-12)


class TestMultiplierDiagnostics:
    # the isotropic medium gives real pencils, whose projector factor is real
    @pytest.fixture(params=["gyro_medium", "isotropic_medium"])
    def medium(self, request):
        return request.getfixturevalue(request.param)

    def test_healthy_solutions_have_tiny_values(self, coax_mesh, medium):
        for solver in (solve_te_vector, solve_tm_vector):
            values = multiplier_diagnostics(
                solver(coax_mesh, medium, 3)).values
            assert (values <= 1e-6).all()

    def test_gradient_in_the_mode_is_flagged(self, coax_mesh, medium):
        for solver in (solve_te_vector, solve_tm_vector):
            solution = solver(coax_mesh, medium, 2)
            corrupted = dataclasses.replace(
                solution, dof_vectors=with_gradient(
                    solution.pencil, solution.dof_vectors, 0.01))
            values = multiplier_diagnostics(corrupted).values
            assert (values > 1e-3).all()

    def test_matches_the_formula_mode_by_mode(self, coax_mesh, gyro_medium):
        # |M (x - P x)| / |M x| with the solve's projector P, column by column
        for solver in (solve_te_vector, solve_tm_vector):
            solution = solver(coax_mesh, gyro_medium, 2)
            x = with_gradient(solution.pencil, solution.dof_vectors, 0.01)
            M = solution.pencil.M
            expected = [np.linalg.norm(M @ gradient_part(solution.pencil,
                                                         x[:, i]))
                        / np.linalg.norm(M @ x[:, i])
                        for i in range(x.shape[1])]
            got = multiplier_diagnostics(
                dataclasses.replace(solution, dof_vectors=x)).values
            np.testing.assert_allclose(got, expected, rtol=1e-12)

    def test_multiplier_free_pencil_reads_zero(self, medium):
        # one cell: vector TE keeps the diagonal edge alone and no node
        solution = solve_te_vector(generate_rectangle(1.2e-3, 1e-3, 1, 1),
                                   medium, 1)
        pencil, x = solution.pencil, solution.dof_vectors
        assert (pencil.primal_dim, pencil.multiplier_dim) == (1, 0)
        assert np.array_equal(multiplier_diagnostics(solution).values, [0.0])
        gradient = gradient_part(pencil, x)
        assert gradient.shape == x.shape and not gradient.any()

    def test_scalar_solution_rejected(self, rect_mesh, gyro_medium):
        with pytest.raises(ValueError, match="vector"):
            multiplier_diagnostics(solve_te_scalar(rect_mesh, gyro_medium, 2))


class TestFineCoaxVectorTm:
    """Coax refined to L3 (pencil dim 49,919), where an inaccurate shifted
    factorization once gave negative and spurious Ritz values."""

    def test_matches_scalar_tm(self, gyro_medium):
        mesh = generate_annulus(1e-3, 2e-3, 4, 48)
        for _ in range(3):
            mesh = refine_uniform(mesh)
        vector = solve_tm_vector(mesh, gyro_medium, 6)
        scalar = solve_tm_scalar(mesh, gyro_medium, 6)
        assert vector.tem_count == 1
        assert np.allclose(vector.nonzero_cutoffs, scalar.cutoffs, rtol=2e-3)
        assert constraint_residuals(vector).max() <= 1e-8
