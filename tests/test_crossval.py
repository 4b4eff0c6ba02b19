import types

import numpy as np
import pytest
from scipy.special import jv, yv

from wgcutoff import (
    compare_spectra,
    convergence_trend,
    generate_rectangle,
    oracle_tm_annulus,
    oracle_tm_disc,
    oracle_tm_rectangle,
    refine_uniform,
    solve_te_vector,
    solve_tm_scalar,
)
from wgcutoff.crossval import (
    CrossValError,
    TREND_DECREASING,
    TREND_INCREASING,
    TREND_SWING,
    classify_trend,
)
from wgcutoff.modes import Formulation, ModeSolution


def stub_solution(formulation, cutoffs, tem_count, mesh, medium):
    cutoffs = np.asarray(cutoffs, dtype=float)
    return ModeSolution(
        formulation=formulation, eigenvalues=cutoffs**2,
        dof_vectors=np.zeros((1, cutoffs.size), dtype=complex),
        residuals=np.zeros(cutoffs.size),
        mesh=mesh, medium=medium,
        pencil=types.SimpleNamespace(tem_count=tem_count),
    )


class TestCompareSpectra:
    def test_reference_pair_passes_at_1e_minus_3(self, small_rect_mesh,
                                                 gyro_medium):
        a = stub_solution(Formulation.SCALAR_TE, [1467.568], 0,
                          small_rect_mesh, gyro_medium)
        b = stub_solution(Formulation.VECTOR_TE, [1467.521], 0,
                          small_rect_mesh, gyro_medium)
        report = compare_spectra(a, b, 1, 1e-3)
        assert report.rel_diffs[0] == pytest.approx(3.2e-5, rel=0.02)
        assert report.all_passed

    @pytest.mark.parametrize("rtol", [0, -1, np.nan, np.inf])
    def test_rtol_must_be_positive_and_finite(self, small_rect_mesh,
                                              gyro_medium, rtol):
        a = stub_solution(Formulation.SCALAR_TM, [100.0], 0,
                          small_rect_mesh, gyro_medium)
        b = stub_solution(Formulation.VECTOR_TM, [100.0], 0,
                          small_rect_mesh, gyro_medium)
        with pytest.raises(CrossValError, match="rtol"):
            compare_spectra(a, b, 1, rtol)

    @pytest.mark.parametrize("count", [0, -1])
    def test_empty_comparison_rejected(self, small_rect_mesh, gyro_medium,
                                       count):
        # a report over no modes would pass while checking nothing
        a = stub_solution(Formulation.SCALAR_TM, [100.0], 0,
                          small_rect_mesh, gyro_medium)
        b = stub_solution(Formulation.VECTOR_TM, [100.0], 0,
                          small_rect_mesh, gyro_medium)
        with pytest.raises(CrossValError,
                           match=f"^count must be at least 1, got {count}$"):
            compare_spectra(a, b, count, 1e-3)

    def test_identical_solutions_have_zero_diff(self, small_rect_mesh,
                                                gyro_medium):
        values = [100.0, 200.0, 300.0]
        a = stub_solution(Formulation.SCALAR_TM, values, 0,
                          small_rect_mesh, gyro_medium)
        b = stub_solution(Formulation.VECTOR_TM, values, 0,
                          small_rect_mesh, gyro_medium)
        report = compare_spectra(a, b, 3, 1e-12)
        assert (report.rel_diffs == 0).all()
        assert report.all_passed

    def test_tem_modes_excluded_before_pairing(self, small_rect_mesh,
                                               gyro_medium):
        a = stub_solution(Formulation.SCALAR_TM, [100.0, 200.0], 0,
                          small_rect_mesh, gyro_medium)
        b = stub_solution(Formulation.VECTOR_TM, [1e-9, 100.0, 200.0], 1,
                          small_rect_mesh, gyro_medium)
        assert compare_spectra(a, b, 2, 1e-9).all_passed

    def test_shifted_vector_list_fails(self, small_rect_mesh, gyro_medium):
        # deleting the first vector mode misaligns every pair
        a = stub_solution(Formulation.SCALAR_TM, [100.0, 200.0, 300.0], 0,
                          small_rect_mesh, gyro_medium)
        b = stub_solution(Formulation.VECTOR_TM, [200.0, 300.0, 400.0], 0,
                          small_rect_mesh, gyro_medium)
        report = compare_spectra(a, b, 2, 1e-3)
        assert not report.passed.any()

    def test_formulation_mismatch_rejected(self, small_rect_mesh,
                                           gyro_medium):
        a = stub_solution(Formulation.SCALAR_TE, [1.0], 0,
                          small_rect_mesh, gyro_medium)
        b = stub_solution(Formulation.VECTOR_TM, [1.0], 0,
                          small_rect_mesh, gyro_medium)
        with pytest.raises(CrossValError, match="pair"):
            compare_spectra(a, b, 1, 1e-3)

    def test_insufficient_modes_rejected(self, small_rect_mesh, gyro_medium):
        a = stub_solution(Formulation.SCALAR_TE, [1.0], 0,
                          small_rect_mesh, gyro_medium)
        b = stub_solution(Formulation.VECTOR_TE, [1.0], 0,
                          small_rect_mesh, gyro_medium)
        with pytest.raises(CrossValError, match="nonzero modes"):
            compare_spectra(a, b, 3, 1e-3)


@pytest.fixture(scope="module")
def rect_family():
    meshes = [generate_rectangle(1.2e-3, 1.0e-3, 4, 4)]
    for _ in range(2):
        meshes.append(refine_uniform(meshes[-1]))
    return meshes


class TestConvergenceTrend:
    def test_scalar_tm_decreases(self, rect_family, gyro_medium):
        report = convergence_trend(Formulation.SCALAR_TM, rect_family,
                                   gyro_medium, 3)
        assert all(t == TREND_DECREASING for t in report.trends)
        assert report.cutoffs.shape == (3, 3)

    def test_vector_te_trend_reported_unconstrained(self, rect_family,
                                                    gyro_medium):
        report = convergence_trend(Formulation.VECTOR_TE, rect_family,
                                   gyro_medium, 2)
        assert all(t in (TREND_DECREASING, TREND_INCREASING, TREND_SWING)
                   for t in report.trends)

    def test_constant_sequence_counts_as_decreasing(self):
        assert classify_trend(np.array([5.0, 5.0, 5.0])) == TREND_DECREASING

    def test_swing_detected(self):
        assert classify_trend(np.array([5.0, 4.0, 4.5])) == TREND_SWING

    def test_non_nested_family_rejected(self, gyro_medium):
        family = [generate_rectangle(1e-3, 1e-3, n, n) for n in (2, 3, 4)]
        with pytest.raises(CrossValError, match="nested"):
            convergence_trend(Formulation.SCALAR_TM, family, gyro_medium, 2)

    def test_short_family_rejected(self, rect_family, gyro_medium):
        with pytest.raises(CrossValError, match="3"):
            convergence_trend(Formulation.SCALAR_TM, rect_family[:2],
                              gyro_medium, 2)


class TestRectangleOracle:
    def test_reference_rectangle(self, gyro_medium):
        values = oracle_tm_rectangle(1.2e-3, 1.0e-3, gyro_medium, 4)
        expected = [5783.3, 8635.3, 9626.4, 11566.6]
        assert np.allclose(values, expected, rtol=2e-5)

    def test_unit_square_isotropic(self, isotropic_medium):
        values = oracle_tm_rectangle(1.0, 1.0, isotropic_medium, 1)
        assert values[0] == pytest.approx(np.pi * np.sqrt(2), rel=1e-12)

    def test_mode22_twice_mode11(self, gyro_medium):
        values = oracle_tm_rectangle(0.9e-3, 0.7e-3, gyro_medium, 30)
        k11 = values[0]
        assert np.abs(values / k11 - 2.0).min() <= 1e-12


class TestDiscOracle:
    def test_reference_disc(self, gyro_medium):
        values = oracle_tm_disc(2e-3, gyro_medium, 4)
        expected = [1700.5, 2709.4, 2709.4, 3631.4]
        assert np.allclose(values, expected, rtol=5e-5)

    def test_degenerate_pair_exactly_equal(self, gyro_medium):
        values = oracle_tm_disc(2e-3, gyro_medium, 4)
        assert values[1] == values[2]

    def test_radius_scaling(self, gyro_medium):
        a = oracle_tm_disc(1e-3, gyro_medium, 6)
        b = oracle_tm_disc(2e-3, gyro_medium, 6)
        assert np.allclose(a, 2 * b, rtol=1e-12)

    def test_bad_radius_rejected(self, gyro_medium):
        with pytest.raises(CrossValError):
            oracle_tm_disc(0.0, gyro_medium, 3)


class TestAnnulusOracle:
    def test_reference_coax(self, gyro_medium):
        values = oracle_tm_annulus(1e-3, 2e-3, gyro_medium, 1)
        assert values[0] == pytest.approx(4.42e3, rel=2e-3)

    def test_thin_annulus_limit(self, isotropic_medium):
        r1, r2 = 1.0, 1.05
        values = oracle_tm_annulus(r1, r2, isotropic_medium, 1)
        assert values[0] == pytest.approx(np.pi / (r2 - r1), rel=0.02)

    def test_bad_radii_rejected(self, gyro_medium):
        with pytest.raises(CrossValError):
            oracle_tm_annulus(2e-3, 1e-3, gyro_medium, 2)

    def test_azimuthal_orders_doubled(self, gyro_medium):
        values = oracle_tm_annulus(1e-3, 2e-3, gyro_medium, 8)
        # m >= 1 families contribute pairs of equal entries
        diffs = np.diff(values)
        assert (np.abs(diffs) <= 1e-9 * values[1:]).sum() >= 2


#: Positive zeros j_{m,n} of J_m from standard references.
BESSEL_J_ZEROS = {
    (0, 1): 2.40482555769577,
    (1, 1): 3.83170597020751,
    (2, 1): 5.13562230184068,
    (0, 2): 5.52007811028631,
    (1, 2): 7.01558666981562,
}


class TestBessel:
    def test_tabulated_zeros_match_disc_oracle(self, isotropic_medium):
        # on the unit disc in vacuum the cut-offs are the zeros themselves,
        # those of order m >= 1 twice
        values = oracle_tm_disc(1.0, isotropic_medium, 10)
        for (m, n), tab in BESSEL_J_ZEROS.items():
            close = np.abs(values - tab) <= 5e-12 * tab
            assert close.sum() == (1 if m == 0 else 2), (m, n)

    def test_annulus_roots_are_sign_changes(self, isotropic_medium):
        r1, r2 = 1e-3, 2e-3
        roots = oracle_tm_annulus(r1, r2, isotropic_medium, 8)
        orders = [0, 1, 1, 2, 2, 3, 3, 4]
        for k, m in zip(roots, orders):
            ends = k * np.array([1 - 1e-12, 1 + 1e-12])
            cross = jv(m, ends * r1) * yv(m, ends * r2) \
                - jv(m, ends * r2) * yv(m, ends * r1)
            assert cross[0] * cross[1] < 0, (k, m)

    def test_non_finite_cross_product_rejected(self, isotropic_medium):
        # Y_2 overflows at k r1 ~ 1e-200; skipping those orders would drop
        # roots silently
        with pytest.raises(CrossValError, match="not finite"):
            oracle_tm_annulus(1e-200, 1.0, isotropic_medium, 6)
