import numpy as np
import pytest
import scipy.sparse as sp

from wgcutoff import (
    assemble_scalar_te,
    assemble_scalar_tm,
    assemble_vector_te,
    assemble_vector_tm,
    generate_annulus,
    generate_rectangle,
)
from wgcutoff.eigensolve import (
    EigenSolveError,
    HermitianLU,
    SolveOptions,
    Spectrum,
    classify_near_zero,
    dense_saddle_bruteforce,
    solve,
)
from wgcutoff.femcore import (
    KIND_EDGE_ALL,
    KIND_NODAL_ALL,
    LAYOUT_PLAIN,
    LAYOUT_SADDLE,
    DofMap,
    HermitianPencil,
)


def plain_pencil(K, M):
    K = sp.csr_matrix(np.asarray(K, dtype=complex))
    M = sp.csr_matrix(np.asarray(M, dtype=complex))
    n = K.shape[0]
    return HermitianPencil(K=K, M=M, layout=LAYOUT_PLAIN,
                           primal_map=DofMap(KIND_NODAL_ALL,
                                             np.arange(n), n))


def saddle_pencil(K, M, p):
    K = sp.csr_matrix(np.asarray(K, dtype=complex))
    M = sp.csr_matrix(np.asarray(M, dtype=complex))
    n = K.shape[0]
    return HermitianPencil(
        K=K, M=M, layout=LAYOUT_SADDLE,
        primal_map=DofMap(KIND_EDGE_ALL, np.arange(p), p),
        multiplier_map=DofMap(KIND_NODAL_ALL, np.arange(n - p), n - p),
    )


class TestHermitianLU:
    def test_arithmetic_chosen_per_pencil(self, gyro_medium,
                                          isotropic_medium):
        mesh = generate_rectangle(1.2e-3, 1.0e-3, 6, 5)
        assert assemble_scalar_tm(mesh, gyro_medium).K.dtype == np.float64
        assert assemble_scalar_tm(mesh, gyro_medium).M.dtype == np.float64
        for assemble in (assemble_scalar_te, assemble_vector_te,
                         assemble_vector_tm):
            assert assemble(mesh, gyro_medium).M.dtype == np.complex128
            # alpha = 0: every formulation is real
            pencil = assemble(mesh, isotropic_medium)
            assert pencil.K.dtype == pencil.M.dtype == np.float64
        for assemble, dtype in ((assemble_scalar_tm, np.float64),
                                (assemble_vector_te, np.complex128)):
            pencil = assemble(mesh, gyro_medium)
            with HermitianLU(pencil.K - 10.0 * pencil.M) as lu:
                assert lu.dtype == dtype
                assert lu.solve(np.ones(pencil.dim)).dtype == dtype

    def test_real_spd_solve(self, gyro_medium):
        mesh = generate_rectangle(1.2e-3, 1.0e-3, 12, 10)
        pencil = assemble_scalar_tm(mesh, gyro_medium)
        a = (pencil.K + 1e6 * pencil.M).tocsr()
        b = np.random.default_rng(0).standard_normal((pencil.dim, 3))
        with HermitianLU(a) as lu:
            x = lu.solve(b)
        residual = np.linalg.norm(a @ x - b) / np.linalg.norm(b)
        assert residual <= 1e-10

    def test_complex_hermitian_saddle_solve(self, gyro_medium):
        mesh = generate_annulus(1e-3, 2e-3, 3, 24)
        pencil = assemble_vector_tm(mesh, gyro_medium)
        a = (pencil.K - 1e5 * pencil.M).tocsr()
        rng = np.random.default_rng(1)
        b = rng.standard_normal(pencil.dim) + 1j * rng.standard_normal(pencil.dim)
        with HermitianLU(a) as lu:
            x = lu.solve(b)
        residual = (np.linalg.norm(a @ x - b)
                    / (abs(a).sum(axis=1).max() * np.linalg.norm(x)))
        assert residual <= 1e-10

    def test_factor_released_on_exit(self):
        with HermitianLU(sp.identity(3, format="csr")) as lu:
            assert np.allclose(lu.solve(np.arange(3.0)), np.arange(3.0))
        with pytest.raises(AttributeError):
            lu.solve(np.arange(3.0))


class TestSolveOptions:
    @pytest.mark.parametrize("zero_frac", [-1.0, 0.0, 1.0, 2.0, float("nan")])
    def test_zero_frac_outside_unit_interval_rejected(self, zero_frac):
        with pytest.raises(ValueError, match="zero_frac"):
            SolveOptions(zero_frac=zero_frac)

    @pytest.mark.parametrize("shift", [-1.0, -1e-12, float("nan")])
    def test_negative_shift_rejected(self, shift):
        with pytest.raises(ValueError, match="shift"):
            SolveOptions(shift=shift)


class TestOneSolvePath:
    """A plain pencil is a saddle pencil with no multiplier rows."""

    @pytest.mark.parametrize("assemble", [assemble_scalar_te,
                                          assemble_scalar_tm])
    @pytest.mark.parametrize("dense_cutoff", [400, 0])
    def test_plain_matches_multiplier_free_saddle(self, gyro_medium,
                                                  assemble, dense_cutoff):
        mesh = generate_rectangle(1.2e-3, 1.0e-3, 6, 5)
        plain = assemble(mesh, gyro_medium)
        saddle = HermitianPencil(K=plain.K, M=plain.M, layout=LAYOUT_SADDLE,
                                 primal_map=plain.primal_map)
        assert saddle.multiplier_dim == 0
        opts = SolveOptions(num_modes=4, dense_cutoff=dense_cutoff)
        a = solve(plain, opts).eigenvalues
        b = solve(saddle, opts).eigenvalues
        assert np.allclose(a, b, rtol=1e-10, atol=1e-10 * abs(a).max())


class TestSolveDefinite:
    def test_diagonal(self):
        spectrum = solve(plain_pencil(np.diag([0.0, 2.0]), np.eye(2)),
                         SolveOptions(num_modes=2))
        assert np.allclose(spectrum.eigenvalues, [0.0, 2.0], atol=1e-12)

    def test_two_by_two(self):
        K = [[2.0, -1.0], [-1.0, 2.0]]
        spectrum = solve(plain_pencil(K, np.eye(2)),
                         SolveOptions(num_modes=2))
        assert np.allclose(spectrum.eigenvalues, [1.0, 3.0], atol=1e-12)

    def test_laplacian_smallest_mode_is_constant(self, gyro_medium):
        mesh = generate_rectangle(1.0, 1.0, 4, 4)
        pencil = assemble_scalar_te(mesh, gyro_medium)
        spectrum = solve(pencil, SolveOptions(num_modes=3))
        lam = spectrum.eigenvalues
        assert abs(lam[0]) <= 1e-9 * lam[-1]
        vec = spectrum.eigenvectors[:, 0]
        assert np.abs(vec - vec.mean()).max() <= 1e-6 * np.abs(vec).max()

    def test_m_orthonormal(self, gyro_medium):
        mesh = generate_rectangle(1.0, 0.8, 4, 3)
        pencil = assemble_scalar_tm(mesh, gyro_medium)
        spectrum = solve(pencil, SolveOptions(num_modes=4))
        v = spectrum.eigenvectors
        gram = v.conj().T @ (pencil.M @ v)
        assert np.allclose(gram, np.eye(4), atol=1e-10)

    def test_num_modes_exceeding_dimension_rejected(self):
        with pytest.raises(EigenSolveError, match="dimension"):
            solve(plain_pencil(np.eye(2), np.eye(2)),
                  SolveOptions(num_modes=5))

    def test_sparse_path_matches_dense(self, gyro_medium):
        mesh = generate_rectangle(1.1e-3, 0.9e-3, 5, 5)
        pencil = assemble_scalar_tm(mesh, gyro_medium)
        dense = solve(pencil, SolveOptions(num_modes=4))
        sparse = solve(pencil, SolveOptions(num_modes=4, dense_cutoff=0))
        assert np.allclose(sparse.eigenvalues, dense.eigenvalues, rtol=1e-10)


class TestSolveSaddle:
    def test_toy_pencil_single_finite_eigenvalue(self):
        K = [[2.0, 0.0, 1.0], [0.0, 3.0, 0.0], [1.0, 0.0, 0.0]]
        M = np.diag([1.0, 1.0, 0.0])
        pencil = saddle_pencil(K, M, p=2)
        spectrum = solve(pencil, SolveOptions(num_modes=1))
        assert np.allclose(spectrum.eigenvalues, [3.0], atol=1e-10)
        # the constraint row x1 = 0 holds for the returned pair
        assert abs(spectrum.eigenvectors[0, 0]) <= 1e-10
        brute = dense_saddle_bruteforce(pencil, SolveOptions(num_modes=1))
        assert np.allclose(brute, [3.0], atol=1e-10)

    def test_requesting_more_than_finite_count_rejected(self):
        K = [[2.0, 0.0, 1.0], [0.0, 3.0, 0.0], [1.0, 0.0, 0.0]]
        M = np.diag([1.0, 1.0, 0.0])
        with pytest.raises(EigenSolveError, match="finite"):
            solve(saddle_pencil(K, M, p=2), SolveOptions(num_modes=3))

    def test_coax_tm_has_near_zero_mode(self, gyro_medium):
        mesh = generate_annulus(1e-3, 2e-3, 2, 16)
        pencil = assemble_vector_tm(mesh, gyro_medium)
        spectrum = solve(pencil, SolveOptions(num_modes=4))
        lam = spectrum.eigenvalues
        assert abs(lam[0]) <= 1e-6 * lam[1]
        assert (spectrum.residuals <= 1e-8).all()

    def test_sparse_matches_dense_and_bruteforce(self, gyro_medium):
        mesh = generate_annulus(1e-3, 2e-3, 2, 12)
        for assemble in (assemble_vector_te, assemble_vector_tm):
            pencil = assemble(mesh, gyro_medium)
            opts = SolveOptions(num_modes=4)
            dense = solve(pencil, opts)
            sparse = solve(pencil, SolveOptions(num_modes=4, dense_cutoff=0))
            brute = dense_saddle_bruteforce(pencil, opts)
            scale = max(abs(dense.eigenvalues).max(), 1.0)
            assert np.allclose(sparse.eigenvalues, dense.eigenvalues,
                               rtol=1e-8, atol=1e-8 * scale)
            assert np.allclose(brute, dense.eigenvalues,
                               rtol=1e-8, atol=1e-8 * scale)

    def test_real_saddle_shift_invert_matches_bruteforce(self,
                                                        isotropic_medium):
        mesh = generate_annulus(1e-3, 2e-3, 2, 12)
        for assemble in (assemble_vector_te, assemble_vector_tm):
            pencil = assemble(mesh, isotropic_medium)
            sparse = solve(pencil, SolveOptions(num_modes=4, dense_cutoff=0))
            brute = dense_saddle_bruteforce(pencil, SolveOptions(num_modes=4))
            scale = max(abs(brute).max(), 1.0)
            assert np.allclose(sparse.eigenvalues, brute,
                               rtol=1e-8, atol=1e-8 * scale)
            assert np.iscomplexobj(sparse.eigenvectors)

    def test_scaling_invariance(self, gyro_medium):
        mesh = generate_annulus(1e-3, 2e-3, 2, 12)
        pencil = assemble_vector_tm(mesh, gyro_medium)
        scaled = HermitianPencil(
            K=(pencil.K * 7.5).tocsr(), M=(pencil.M * 7.5).tocsr(),
            layout=pencil.layout, primal_map=pencil.primal_map,
            multiplier_map=pencil.multiplier_map,
        )
        a = solve(pencil, SolveOptions(num_modes=4)).eigenvalues
        b = solve(scaled, SolveOptions(num_modes=4)).eigenvalues
        assert np.allclose(a, b, rtol=1e-10, atol=1e-10 * max(abs(a).max(), 1))

    def test_shift_choice_does_not_move_eigenvalues(self, gyro_medium):
        mesh = generate_annulus(1e-3, 2e-3, 2, 16)
        pencil = assemble_vector_tm(mesh, gyro_medium)
        base = solve(pencil, SolveOptions(num_modes=4,
                                          dense_cutoff=0)).eigenvalues
        shifted = solve(
            pencil, SolveOptions(num_modes=4, dense_cutoff=0,
                                 shift=0.3 * base[1])).eigenvalues
        assert np.allclose(base, shifted, rtol=1e-8,
                           atol=1e-8 * abs(base).max())

    def test_deterministic_across_runs(self, gyro_medium):
        mesh = generate_annulus(1e-3, 2e-3, 2, 16)
        pencil = assemble_vector_tm(mesh, gyro_medium)
        opts = SolveOptions(num_modes=3, dense_cutoff=0)
        a = solve(pencil, opts)
        b = solve(pencil, opts)
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        assert np.array_equal(a.eigenvectors, b.eigenvectors)


class TestOracleEquivalence:
    """Shift-invert must agree with the dense brute force on small pencils."""

    def coarse_pencils(self, gyro_medium):
        meshes = {
            "rectangle": generate_rectangle(1.2e-3, 1.0e-3, 3, 3),
            "disc": generate_annulus(0.0, 2e-3, 2, 8),
            "coax": generate_annulus(1e-3, 2e-3, 2, 8),
        }
        for mesh in meshes.values():
            yield assemble_scalar_te(mesh, gyro_medium)
            yield assemble_scalar_tm(mesh, gyro_medium)
            if (~mesh.boundary_edge).any():
                yield assemble_vector_te(mesh, gyro_medium)
            yield assemble_vector_tm(mesh, gyro_medium)

    def test_all_small_pencils(self, gyro_medium):
        import scipy.linalg as la
        for pencil in self.coarse_pencils(gyro_medium):
            assert pencil.dim <= 200
            k = min(4, (pencil.dim if pencil.layout == LAYOUT_PLAIN
                        else pencil.primal_dim - pencil.multiplier_dim))
            got = solve(pencil, SolveOptions(num_modes=k,
                                             dense_cutoff=0)).eigenvalues
            if pencil.layout == LAYOUT_PLAIN:
                ref = la.eigh(pencil.K.toarray(), pencil.M.toarray(),
                              eigvals_only=True)[:k]
            else:
                ref = dense_saddle_bruteforce(pencil, SolveOptions(num_modes=k))
            scale = max(np.abs(ref).max(), 1.0)
            assert np.allclose(got, ref, rtol=1e-8, atol=1e-8 * scale)


class TestClassifyNearZero:
    def fake_spectrum(self, eigenvalues):
        lam = np.asarray(eigenvalues, dtype=float)
        return Spectrum(eigenvalues=lam,
                        eigenvectors=np.zeros((2, lam.size), dtype=complex),
                        residuals=np.zeros(lam.size))

    def test_coax_vector_pattern(self):
        zero, nonzero = classify_near_zero(
            self.fake_spectrum([1e-12, 2e7, 2.2e7, 2.5e7]))
        assert list(zero) == [0]
        assert list(nonzero) == [1, 2, 3]

    def test_rectangle_pattern(self):
        zero, nonzero = classify_near_zero(
            self.fake_spectrum([3e7, 7e7, 9e7, 1.3e8]))
        assert zero.size == 0

    def test_scalar_te_pattern(self):
        zero, _ = classify_near_zero(
            self.fake_spectrum([-1e-9, 2.1e6, 5.6e6, 5.9e6, 1.2e7]))
        assert list(zero) == [0]

    def test_all_near_zero_rejected(self):
        with pytest.raises(EigenSolveError, match="near zero"):
            classify_near_zero(self.fake_spectrum([1e-30, 2e-30, 3e-30]),
                               reference_scale=1e3)

    def test_reference_scale_override(self):
        zero, _ = classify_near_zero(self.fake_spectrum([1.0, 4e6]),
                                     reference_scale=1e6)
        assert list(zero) == [0]
