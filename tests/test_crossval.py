import numpy as np
import pytest
from scipy.special import jv

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
    BESSEL_J_ZEROS,
    CrossValError,
    TREND_DECREASING,
    TREND_INCREASING,
    TREND_SWING,
    bessel_j,
    bessel_j_zero,
    bisect_root,
    classify_trend,
)
from wgcutoff.modes import Formulation, ModeSolution


def stub_solution(formulation, cutoffs, tem_count, mesh, medium):
    cutoffs = np.asarray(cutoffs, dtype=float)
    return ModeSolution(
        formulation=formulation, cutoffs=cutoffs,
        eigenvalues=cutoffs**2, tem_count=tem_count,
        dof_vectors=np.zeros((1, cutoffs.size), dtype=complex),
        multiplier_vectors=None, residuals=np.zeros(cutoffs.size),
        mesh=mesh, medium=medium, pencil=None,
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


class TestBessel:
    def test_hardcoded_zeros_verified_by_bisection(self):
        # the tabulated values must agree with a bracketed bisection on the
        # in-house series/asymptotic evaluation of J_m
        for (m, n), tab in BESSEL_J_ZEROS.items():
            root = bisect_root(lambda x, m=m: bessel_j(m, x),
                               tab - 0.3, tab + 0.3)
            assert root == pytest.approx(tab, abs=5e-12)

    def test_series_matches_scipy_on_grid(self):
        # the ascending series covers every tabulated zero; the asymptotic
        # tail only needs enough accuracy to bracket high-order zeros
        for m in range(0, 5):
            for x in np.linspace(0.1, 30.0, 120):
                tol = 2e-11 if x < 12.0 else 5e-7
                assert bessel_j(m, float(x)) == pytest.approx(
                    float(jv(m, x)), abs=tol)

    def test_zero_finder_beyond_table(self):
        # j_{1,2} = 7.01558667... (not in the hardcoded table)
        assert bessel_j_zero(1, 2) == pytest.approx(7.015586669815619,
                                                    rel=1e-10)

    def test_unbracketed_root_rejected(self):
        with pytest.raises(CrossValError, match="bracket"):
            bisect_root(lambda x: 1.0 + x * x, 0.0, 1.0)
