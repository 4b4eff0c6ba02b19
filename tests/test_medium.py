import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.constants import epsilon_0, mu_0, speed_of_light

from wgcutoff import (
    MediumSpec,
    TransverseTensor,
    bulk_wavenumber,
    commutes_with_rotation,
    product_scalar,
    validate,
)
from wgcutoff.medium import (
    VACUUM_PERMEABILITY,
    VACUUM_PERMITTIVITY,
    VERDICT_INDEPENDENT,
    VERDICT_NOT_GUARANTEED,
    MediumError,
)
from conftest import random_valid_medium


class TestCommutation:
    def test_identity_commutes(self):
        assert commutes_with_rotation(np.eye(2))

    def test_gyrotropic_block_commutes(self):
        assert commutes_with_rotation(np.array([[2, -1j], [1j, 2]]))

    def test_plain_diagonal_does_not(self):
        assert not commutes_with_rotation(np.array([[1, 0], [0, 2]]))

    def test_matches_closed_form_on_randoms(self):
        # closed form: equal diagonal, opposite off-diagonal
        rng = np.random.default_rng(42)
        rot = np.array([[0.0, -1.0], [1.0, 0.0]])
        for _ in range(1000):
            m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            if rng.random() < 0.5:  # force half the samples into the group
                m[1, 1] = m[0, 0]
                m[1, 0] = -m[0, 1]
            closed = (abs(m[0, 0] - m[1, 1])
                      <= 1e-12 * np.abs(m).max()) and (
                abs(m[0, 1] + m[1, 0]) <= 1e-12 * np.abs(m).max())
            assert commutes_with_rotation(m) == closed
            if closed:
                assert np.allclose(rot @ m, m @ rot)


class TestTransverseTensor:
    def test_eigenvalues_match_generic_solver(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            t = TransverseTensor(float(rng.uniform(-3, 3)),
                                 float(rng.uniform(-3, 3)))
            expected = np.sort(np.linalg.eigvalsh(t.as_matrix()))
            assert np.allclose(np.sort(t.eigenvalues), expected, atol=1e-12)

    def test_positive_definite_criterion(self):
        assert TransverseTensor(2.0, -1.0).is_positive_definite
        assert not TransverseTensor(1.0, 1.0).is_positive_definite

    def test_from_matrix_roundtrip(self):
        t = TransverseTensor(2.0, -1.0)
        assert TransverseTensor.from_matrix(t.as_matrix()) == t

    def test_from_matrix_rejects_outside_group(self):
        with pytest.raises(MediumError):
            TransverseTensor.from_matrix(np.array([[1.0, 0.5], [0.5, 2.0]]))


class TestValidate:
    def test_reference_medium_passes(self, gyro_medium):
        report = validate(gyro_medium)
        assert report.verdict == VERDICT_INDEPENDENT
        assert report.decoupling_residual == 0.0
        assert report.positive_definite_ok

    def test_isotropic_passes(self, isotropic_medium):
        assert validate(isotropic_medium).verdict == VERDICT_INDEPENDENT

    def test_coupled_medium_flagged(self):
        spec = MediumSpec(TransverseTensor(2.0, -1.0), 1.0,
                          TransverseTensor(1.0, 1.0), 1.0)
        report = validate(spec)
        assert report.verdict == VERDICT_NOT_GUARANTEED
        assert report.decoupling_raw == pytest.approx(1.0)

    def test_indefinite_block_flagged(self):
        spec = MediumSpec(TransverseTensor(1.0, 2.0), 1.0,
                          TransverseTensor(1.0, -0.5), 1.0)
        report = validate(spec)
        assert not report.checks["eps_t_positive_definite"]
        assert report.verdict == VERDICT_NOT_GUARANTEED

    @given(s=st.floats(0.1, 10), t=st.floats(0.1, 10))
    @settings(max_examples=50, deadline=None)
    def test_scale_covariance_of_decoupling(self, s, t, gyro_medium):
        g = gyro_medium
        scaled = MediumSpec(
            TransverseTensor(s * g.eps, s * g.a), g.eps_zz,
            TransverseTensor(t * g.mu, t * g.b), g.mu_zz,
        )
        # b*eps + a*mu picks up the factor s*t, so an exact zero stays zero
        report = validate(scaled)
        assert report.decoupling_raw == 0.0
        assert report.verdict == VERDICT_INDEPENDENT


class TestProductScalar:
    def test_reference_medium(self, gyro_medium):
        assert product_scalar(gyro_medium) == pytest.approx(1.5)
        product = gyro_medium.eps_t.as_matrix() @ gyro_medium.mu_t.as_matrix()
        assert np.allclose(product, 1.5 * np.eye(2), atol=1e-14)

    def test_isotropic_unit(self, isotropic_medium):
        assert product_scalar(isotropic_medium) == 1.0

    def test_three_one_pair(self):
        spec = MediumSpec(TransverseTensor(3.0, 1.0), 1.0,
                          TransverseTensor(3.0, -1.0), 1.0)
        assert product_scalar(spec) == pytest.approx(8.0)
        product = spec.eps_t.as_matrix() @ spec.mu_t.as_matrix()
        assert np.allclose(product, 8.0 * np.eye(2), atol=1e-14)

    def test_rejects_coupled_medium(self):
        spec = MediumSpec(TransverseTensor(2.0, -1.0), 1.0,
                          TransverseTensor(1.0, 1.0), 1.0)
        with pytest.raises(MediumError):
            product_scalar(spec)

    def test_rejects_indefinite_decoupled_medium(self):
        # b*eps + a*mu = 0, but neither block is positive definite
        spec = MediumSpec(TransverseTensor(1.0, 2.0), 1.0,
                          TransverseTensor(1.0, -2.0), 1.0)
        assert spec.decoupling_raw() == 0.0
        with pytest.raises(MediumError, match="does not guarantee"):
            product_scalar(spec)

    @given(st.integers(0, 10_000))
    @settings(max_examples=100, deadline=None)
    def test_commuting_identities(self, seed):
        spec = random_valid_medium(np.random.default_rng(seed))
        e = spec.eps_t.as_matrix()
        m = spec.mu_t.as_matrix()
        scale = max(np.abs(e).max() * np.abs(m).max(), 1e-300)
        assert np.abs(e @ m - m @ e).max() <= 1e-14 * scale
        assert np.abs(e @ m - product_scalar(spec) * np.eye(2)).max() \
            <= 1e-13 * scale


class TestInverse:
    def test_identity(self):
        assert TransverseTensor(1.0, 0.0).inverse() == \
            TransverseTensor(1.0, 0.0)

    def test_reference_mu_inverse_is_scaled_eps(self, gyro_medium):
        inv = gyro_medium.mu_t.inverse()
        expected = np.linalg.inv(gyro_medium.mu_t.as_matrix())
        assert np.allclose(inv.as_matrix(), expected, atol=1e-15)
        assert inv.d == pytest.approx(gyro_medium.eps / 1.5)
        assert inv.alpha == pytest.approx(gyro_medium.a / 1.5)

    def test_double_inverse(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            d = float(rng.uniform(0.3, 4.0))
            t = TransverseTensor(d, float(rng.uniform(-0.9, 0.9)) * d)
            back = t.inverse().inverse()
            assert back.d == pytest.approx(t.d, rel=1e-14)
            assert back.alpha == pytest.approx(t.alpha, rel=1e-14, abs=1e-16)

    def test_singular_rejected(self):
        with pytest.raises(MediumError, match="singular"):
            TransverseTensor(1.0, 1.0).inverse()

    @given(st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_decoupled_inverse_identities(self, seed):
        spec = random_valid_medium(np.random.default_rng(seed))
        product = product_scalar(spec)
        einv = spec.eps_t.inverse()
        assert einv.d == pytest.approx(spec.mu / product, rel=1e-13)
        assert einv.alpha == pytest.approx(spec.b / product,
                                           rel=1e-13, abs=1e-15)


class TestWavenumber:
    def test_vacuum_constants_are_scipys(self):
        # written as literals; a CODATA update in SciPy fails here instead
        # of moving every field magnitude quietly
        assert VACUUM_PERMITTIVITY == epsilon_0
        assert VACUUM_PERMEABILITY == mu_0

    def test_vacuum_at_omega_c_is_one(self, isotropic_medium):
        assert bulk_wavenumber(isotropic_medium, speed_of_light) == \
            pytest.approx(1.0, rel=1e-9)

    def test_reference_medium_at_1ghz(self, gyro_medium):
        omega = 2 * np.pi * 1e9
        expected = omega / speed_of_light * np.sqrt(1.5)
        k = bulk_wavenumber(gyro_medium, omega)
        assert k == pytest.approx(expected, rel=1e-12)
        assert k == pytest.approx(25.67, rel=1e-3)

    def test_linearity_in_omega(self, gyro_medium):
        k1 = bulk_wavenumber(gyro_medium, 1e9)
        k2 = bulk_wavenumber(gyro_medium, 2e9)
        assert k2 == pytest.approx(2 * k1, rel=1e-14)

    def test_nonpositive_product_rejected(self):
        # decoupled but indefinite, eps*mu + a*b = 1 - 4 < 0: the admission
        # gate refuses it, as it refuses every medium whose blocks are not
        # positive definite
        spec = MediumSpec(TransverseTensor(1.0, 2.0), 1.0,
                          TransverseTensor(1.0, -2.0), 1.0)
        with pytest.raises(MediumError, match="does not guarantee "
                                              "independent"):
            bulk_wavenumber(spec, 1e9)

    @pytest.mark.parametrize("omega", [1e9, 0.0, np.nan])
    def test_medium_is_checked_before_omega(self, omega):
        spec = MediumSpec(TransverseTensor(2.0, -1.0), 1.0,
                          TransverseTensor(1.0, 1.0), 1.0)
        with pytest.raises(MediumError, match="does not guarantee"):
            bulk_wavenumber(spec, omega)

    @pytest.mark.parametrize("omega", [0.0, -1.0, np.inf, np.nan])
    def test_nonpositive_omega_rejected(self, gyro_medium, omega):
        with pytest.raises(MediumError, match="^omega must be positive and "
                                              "finite$"):
            bulk_wavenumber(gyro_medium, omega)

    def test_omega_whose_k_squared_overflows_rejected(self, gyro_medium):
        # k = 4.1e291 rad/m is finite, but k_z needs k^2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(MediumError) as info:
                bulk_wavenumber(gyro_medium, 1e300)
        assert str(info.value) == ("omega 1.000000e+300 rad/s is too large: "
                                   "the bulk wavenumber squared overflows "
                                   "float64")


def test_json_roundtrip(gyro_medium):
    assert MediumSpec.from_json_dict(gyro_medium.to_json_dict()) == gyro_medium
