import gc

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
    refine_uniform,
)
from wgcutoff import eigensolve
from wgcutoff.eigensolve import (
    RESIDUAL_TOL,
    EigenSolveError,
    HermitianLU,
    SolveOptions,
    Spectrum,
    _GradientProjector,
    _residuals,
    classify_near_zero,
    solve,
)
from wgcutoff.femcore import DofMap, HermitianPencil
from saddle_oracle import dense_saddle_bruteforce, with_gradient


def plain_pencil(K, M):
    K = sp.csr_matrix(np.asarray(K, dtype=complex))
    M = sp.csr_matrix(np.asarray(M, dtype=complex))
    n = K.shape[0]
    return HermitianPencil(K=K, M=M, primal_map=DofMap(np.arange(n), n))


def saddle_pencil(A, B, G):
    """Pencil ``(A, B)`` constrained to ``C^H x = 0`` with ``C = B G``."""
    A = sp.csr_matrix(np.asarray(A, dtype=complex))
    B = sp.csr_matrix(np.asarray(B, dtype=complex))
    G = sp.csr_matrix(np.asarray(G, dtype=float))
    p = G.shape[0]
    return HermitianPencil(K=A, M=B, gradient=G,
                           primal_map=DofMap(np.arange(p), p))


class TestHermitianLU:
    def test_arithmetic_chosen_per_pencil(self, gyro_medium):
        # the factor keeps the pencil's dtype (test_femcore pins which
        # pencils are real)
        mesh = generate_rectangle(1.2e-3, 1.0e-3, 6, 5)
        for assemble, dtype in ((assemble_scalar_tm, np.float64),
                                (assemble_vector_te, np.complex128)):
            pencil = assemble(mesh, gyro_medium)
            with HermitianLU(pencil.K - 10.0 * pencil.M) as lu:
                assert lu.dtype == dtype
                assert lu.solve(np.ones(pencil.primal_dim)).dtype == dtype

    def test_real_spd_solve(self, gyro_medium):
        mesh = generate_rectangle(1.2e-3, 1.0e-3, 12, 10)
        pencil = assemble_scalar_tm(mesh, gyro_medium)
        a = (pencil.K + 1e6 * pencil.M).tocsr()
        b = np.random.default_rng(0).standard_normal((pencil.primal_dim, 3))
        with HermitianLU(a) as lu:
            x = lu.solve(b)
        residual = np.linalg.norm(a @ x - b) / np.linalg.norm(b)
        assert residual <= 1e-10

    def test_complex_hermitian_indefinite_solve(self, gyro_medium):
        mesh = generate_annulus(1e-3, 2e-3, 3, 24)
        pencil = assemble_vector_tm(mesh, gyro_medium)
        a = (pencil.K - 1e5 * pencil.M).tocsr()
        rng = np.random.default_rng(1)
        p = pencil.primal_dim
        b = rng.standard_normal(p) + 1j * rng.standard_normal(p)
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

    def test_complex_solve_leaves_no_arpack_cycle(self, gyro_medium):
        # SciPy's complex ARPACK wrapper keeps its workspace in a reference
        # cycle; the solve frees it without waiting for the collector
        mesh = generate_rectangle(1.2e-3, 1.0e-3, 6, 5)
        pencil = assemble_vector_te(mesh, gyro_medium)
        assert pencil.K.dtype == np.complex128
        gc.collect()
        gc.disable()
        try:
            solve(pencil, 3, SolveOptions(dense_cutoff=0))
            left = [o for o in gc.get_objects()
                    if type(o).__name__ == "_UnsymmetricArpackParams"]
        finally:
            gc.enable()
        assert left == []


class TestSolveDefinite:
    def test_diagonal(self):
        spectrum = solve(plain_pencil(np.diag([0.0, 2.0]), np.eye(2)), 2)
        assert np.allclose(spectrum.eigenvalues, [0.0, 2.0], atol=1e-12)

    def test_two_by_two(self):
        K = [[2.0, -1.0], [-1.0, 2.0]]
        spectrum = solve(plain_pencil(K, np.eye(2)), 2)
        assert np.allclose(spectrum.eigenvalues, [1.0, 3.0], atol=1e-12)

    def test_laplacian_smallest_mode_is_constant(self, gyro_medium):
        mesh = generate_rectangle(1.0, 1.0, 4, 4)
        pencil = assemble_scalar_te(mesh, gyro_medium)
        spectrum = solve(pencil, 3)
        lam = spectrum.eigenvalues
        assert abs(lam[0]) <= 1e-9 * lam[-1]
        vec = spectrum.eigenvectors[:, 0]
        assert np.abs(vec - vec.mean()).max() <= 1e-6 * np.abs(vec).max()

    def test_m_orthonormal(self, gyro_medium):
        mesh = generate_rectangle(1.0, 0.8, 4, 3)
        pencil = assemble_scalar_tm(mesh, gyro_medium)
        spectrum = solve(pencil, 4)
        v = spectrum.eigenvectors
        gram = v.conj().T @ (pencil.M @ v)
        assert np.allclose(gram, np.eye(4), atol=1e-10)

    def test_num_modes_exceeding_dimension_rejected(self):
        with pytest.raises(EigenSolveError, match="dimension"):
            solve(plain_pencil(np.eye(2), np.eye(2)), 5)

    @pytest.mark.parametrize("k", [0, -1])
    def test_no_modes_rejected(self, k):
        with pytest.raises(ValueError, match="k must be at least 1"):
            solve(plain_pencil(np.eye(2), np.eye(2)), k)

    def test_sparse_path_matches_dense(self, gyro_medium):
        mesh = generate_rectangle(1.1e-3, 0.9e-3, 5, 5)
        pencil = assemble_scalar_tm(mesh, gyro_medium)
        dense = solve(pencil, 4)
        sparse = solve(pencil, 4, SolveOptions(dense_cutoff=0))
        assert np.allclose(sparse.eigenvalues, dense.eigenvalues, rtol=1e-10)

    @pytest.mark.parametrize("mesh", [
        pytest.param(lambda: generate_rectangle(1.2e-3, 1e-3, 24, 20),
                     id="rectangle 24x20"),
        pytest.param(lambda: generate_rectangle(1.2e-9, 1e-9, 24, 20),
                     id="rectangle 24x20 at 1 nm"),
        pytest.param(lambda: refine_uniform(generate_annulus(1e-3, 2e-3, 4, 48)),
                     id="coax L1")])
    @pytest.mark.parametrize("assemble", [
        assemble_scalar_te, assemble_scalar_tm, assemble_vector_te,
        assemble_vector_tm], ids=lambda f: f.__name__[len("assemble_"):])
    def test_shift_invert_stops_well_inside_the_gate(self, gyro_medium, mesh,
                                                     assemble):
        # ARPACK stops at RESIDUAL_TOL / 100, which must cost no accuracy
        pencil = assemble(mesh(), gyro_medium)
        sparse = solve(pencil, 4, SolveOptions(dense_cutoff=0))
        dense = solve(pencil, 4, SolveOptions(
            dense_cutoff=pencil.primal_dim)).eigenvalues
        # a full dense eigh is accurate to about 1e-12 of the largest
        # eigenvalue it returns, not of each one
        scale = np.abs(dense).max()
        assert np.abs(sparse.eigenvalues - dense).max() <= 1e-12 * scale
        assert (sparse.residuals <= RESIDUAL_TOL / 10).all()

    @pytest.mark.parametrize("error, caught, message", [
        (MemoryError, MemoryError, None),
        (RuntimeError("Factor is exactly singular"), EigenSolveError,
         "failed at shift -")])
    def test_one_shift_invert_attempt(self, gyro_medium, monkeypatch, error,
                                      caught, message):
        # a failed factorization is not retried at another shift; only a
        # SuperLU or ARPACK RuntimeError becomes an EigenSolveError
        built = []

        def failing_lu(matrix):
            built.append(matrix)
            raise error

        monkeypatch.setattr(eigensolve, "HermitianLU", failing_lu)
        pencil = assemble_scalar_tm(generate_rectangle(1.2e-3, 1e-3, 6, 5),
                                    gyro_medium)
        with pytest.raises(caught, match=message):
            solve(pencil, 3, SolveOptions(dense_cutoff=0))
        assert len(built) == 1

    def test_shifted_pencil_factored_before_the_projector(self, gyro_medium,
                                                          monkeypatch):
        # the factor of S is not held while the larger one is computed
        sizes = []
        hermitian_lu = eigensolve.HermitianLU

        def recording_lu(matrix):
            sizes.append(matrix.shape[0])
            return hermitian_lu(matrix)

        monkeypatch.setattr(eigensolve, "HermitianLU", recording_lu)
        pencil = assemble_vector_te(generate_rectangle(1.2e-3, 1e-3, 6, 5),
                                    gyro_medium)
        solve(pencil, 3, SolveOptions(dense_cutoff=0))
        assert sizes == [pencil.primal_dim, pencil.multiplier_dim]

    @pytest.mark.parametrize("length", [1e-3, 1e-9])
    def test_early_stop_keeps_both_copies_of_a_degenerate_pair(
            self, gyro_medium, length):
        # scalar TM on the coax pairs its modes; stopped at 1e-10 without
        # the two extra pairs, 9 of these 10 seeds returned one copy of the
        # pair at the top of 4 modes, and at 1e-8 every seed did so for 3.
        # At 1 nm the stop must stay as tight as at 1 mm.
        pencil = assemble_scalar_tm(generate_annulus(length, 2 * length, 4, 48),
                                    gyro_medium)
        dense = solve(pencil, 4, SolveOptions(
            dense_cutoff=pencil.primal_dim)).eigenvalues
        for k in (3, 4):
            for seed in range(1, 11):
                got = solve(pencil, k, SolveOptions(
                    dense_cutoff=0, seed=seed)).eigenvalues
                assert np.allclose(got, dense[:k], rtol=1e-10, atol=0), (k, seed)


class TestSolveSaddle:
    def test_toy_pencil_single_finite_eigenvalue(self):
        pencil = saddle_pencil(np.diag([2.0, 3.0]), np.eye(2), [[1.0], [0.0]])
        spectrum = solve(pencil, 1)
        assert np.allclose(spectrum.eigenvalues, [3.0], atol=1e-10)
        # the constraint row x1 = 0 holds for the returned pair
        assert abs(spectrum.eigenvectors[0, 0]) <= 1e-10
        brute = dense_saddle_bruteforce(pencil, 1)
        assert np.allclose(brute, [3.0], atol=1e-10)

    def test_requesting_more_than_finite_count_rejected(self):
        pencil = saddle_pencil(np.diag([2.0, 3.0]), np.eye(2), [[1.0], [0.0]])
        with pytest.raises(EigenSolveError, match="finite"):
            solve(pencil, 3)

    def test_coax_tm_has_near_zero_mode(self, gyro_medium):
        mesh = generate_annulus(1e-3, 2e-3, 2, 16)
        pencil = assemble_vector_tm(mesh, gyro_medium)
        spectrum = solve(pencil, 4)
        lam = spectrum.eigenvalues
        assert abs(lam[0]) <= 1e-6 * lam[1]
        assert (spectrum.residuals <= 1e-8).all()

    def test_sparse_matches_dense_and_bruteforce(self, gyro_medium):
        mesh = generate_annulus(1e-3, 2e-3, 2, 12)
        for assemble in (assemble_vector_te, assemble_vector_tm):
            pencil = assemble(mesh, gyro_medium)
            dense = solve(pencil, 4)
            sparse = solve(pencil, 4, SolveOptions(dense_cutoff=0))
            brute = dense_saddle_bruteforce(pencil, 4)
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
            sparse = solve(pencil, 4, SolveOptions(dense_cutoff=0))
            brute = dense_saddle_bruteforce(pencil, 4)
            scale = max(abs(brute).max(), 1.0)
            assert np.allclose(sparse.eigenvalues, brute,
                               rtol=1e-8, atol=1e-8 * scale)
            assert np.iscomplexobj(sparse.eigenvectors)

    def test_scaling_invariance(self, gyro_medium):
        mesh = generate_annulus(1e-3, 2e-3, 2, 12)
        pencil = assemble_vector_tm(mesh, gyro_medium)
        scaled = HermitianPencil(
            K=(pencil.K * 7.5).tocsr(), M=(pencil.M * 7.5).tocsr(),
            primal_map=pencil.primal_map, gradient=pencil.gradient,
        )
        a = solve(pencil, 4).eigenvalues
        b = solve(scaled, 4).eigenvalues
        assert np.allclose(a, b, rtol=1e-10, atol=1e-10 * max(abs(a).max(), 1))

    def test_shift_choice_does_not_move_eigenvalues(self, gyro_medium,
                                                    monkeypatch):
        # the shift only steers shift-invert: a positive shift between the
        # first two roots finds the same eigenvalues as the default
        mesh = generate_annulus(1e-3, 2e-3, 2, 16)
        pencil = assemble_vector_tm(mesh, gyro_medium)
        opts = SolveOptions(dense_cutoff=0)
        base = solve(pencil, 4, opts).eigenvalues
        # sigma = -_trace_scale(K, M)
        monkeypatch.setattr(eigensolve, "_trace_scale",
                            lambda K, M: -0.3 * base[1])
        shifted = solve(pencil, 4, opts).eigenvalues
        assert np.allclose(base, shifted, rtol=1e-8,
                           atol=1e-8 * abs(base).max())

    def test_deterministic_across_runs(self, gyro_medium):
        mesh = generate_annulus(1e-3, 2e-3, 2, 16)
        pencil = assemble_vector_tm(mesh, gyro_medium)
        opts = SolveOptions(dense_cutoff=0)
        a = solve(pencil, 3, opts)
        b = solve(pencil, 3, opts)
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        assert np.array_equal(a.eigenvectors, b.eigenvectors)


class TestResidualGate:
    """The gate normalises each term by its own scale, not by the saddle's."""

    def test_matches_the_formula_pair_by_pair(self, gyro_medium):
        pencil = assemble_vector_te(generate_rectangle(1.2e-3, 1e-3, 6, 5),
                                    gyro_medium)
        K, M = pencil.K, pencil.M
        spectrum = solve(pencil, 3)
        w = spectrum.eigenvalues * 1.001
        x = spectrum.eigenvectors
        kn, mn = (abs(m).sum(axis=1).max() for m in (K, M))
        expected = [np.linalg.norm(K @ x[:, i] - w[i] * (M @ x[:, i]))
                    / ((kn + abs(w[i]) * mn) * np.linalg.norm(x[:, i]))
                    for i in range(w.size)]
        np.testing.assert_allclose(_residuals(K, M, w, x), expected,
                                   rtol=1e-12)

    def test_moved_eigenvalue_fails_at_any_scale(self, gyro_medium):
        for length in (1e-3, 1e9):
            mesh = generate_rectangle(1.2 * length, length, 24, 20)
            pencil = assemble_vector_tm(mesh, gyro_medium)
            spectrum = solve(pencil, 3, SolveOptions(dense_cutoff=0))
            assert (spectrum.residuals <= RESIDUAL_TOL).all()
            # the first pair with its eigenvalue moved by 1%
            lam = spectrum.eigenvalues[:1] * 1.01
            x = spectrum.eigenvectors[:, :1]
            gate = _residuals(pencil.K, pencil.M, lam, x)
            assert gate[0] > RESIDUAL_TOL

            # the saddle pencil [[A, C], [C^H, 0]] normalised by its own
            # norm, with the multiplier zeta = lambda S^-1 C^H x: its h^0
            # coupling hides the h^-2 curl-curl block at 1e9
            with _GradientProjector(pencil) as project:
                zeta = project._lu.solve(project.divergence @ x) * lam
            c = pencil.constraint_block()
            m = pencil.multiplier_dim
            K = sp.bmat([[pencil.K, c], [c.conj().T, None]]).tocsr()
            M = sp.block_diag([pencil.M, sp.csr_matrix((m, m))]).tocsr()
            saddle = _residuals(K, M, lam, np.vstack([x, zeta]))
            if length == 1e9:
                assert saddle[0] <= RESIDUAL_TOL
            else:
                assert saddle[0] > RESIDUAL_TOL

    @pytest.mark.parametrize("assemble", [assemble_vector_te,
                                          assemble_vector_tm])
    def test_gradient_polluted_pairs_fail(self, gyro_medium, monkeypatch,
                                          assemble):
        # a multiplier formed from a polluted vector, lambda S^-1 C^H x,
        # gives a term C zeta that cancels the gradient's mass term exactly;
        # the gate must see the gradient
        pencil = assemble(generate_rectangle(1.2e-3, 1e-3, 24, 20),
                          gyro_medium)
        shift_invert = eigensolve._shift_invert

        def polluted(*args):
            w, vecs = shift_invert(*args)
            return w, with_gradient(pencil, vecs, 0.1)

        monkeypatch.setattr(eigensolve, "_shift_invert", polluted)
        with pytest.raises(EigenSolveError, match="eigenpair residual"):
            solve(pencil, 3, SolveOptions(dense_cutoff=0))


class TestOracleEquivalence:
    """Shift-invert, and the dense path's whole finite spectrum, must agree
    with the dense brute force on small pencils."""

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
            assert pencil.primal_dim <= 200
            k = min(4, pencil.primal_dim - pencil.multiplier_dim)
            got = solve(pencil, k, SolveOptions(dense_cutoff=0)).eigenvalues
            if not pencil.multiplier_dim:
                ref = la.eigh(pencil.K.toarray(), pencil.M.toarray(),
                              eigvals_only=True)[:k]
            else:
                ref = dense_saddle_bruteforce(pencil, k)
            scale = max(np.abs(ref).max(), 1.0)
            assert np.allclose(got, ref, rtol=1e-8, atol=1e-8 * scale)
            if not pencil.multiplier_dim:
                continue
            # the default (dense) path at k = p - m: the whole finite
            # spectrum, every pair divergence-free
            k = pencil.primal_dim - pencil.multiplier_dim
            spectrum = solve(pencil, k)
            ref = dense_saddle_bruteforce(pencil, k)
            scale = max(np.abs(ref).max(), 1.0)
            assert np.allclose(spectrum.eigenvalues, ref, rtol=1e-8,
                               atol=1e-8 * scale)
            x = spectrum.eigenvectors
            divergence = pencil.constraint_block().conj().T @ x
            assert (np.linalg.norm(divergence, axis=0)
                    <= 1e-12 * np.linalg.norm(x, axis=0)).all()


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

    def test_largest_root_is_never_near_zero(self):
        # the reference is a median of the top half, so a spectrum of tiny
        # eigenvalues still keeps its largest root
        zero, nonzero = classify_near_zero(
            self.fake_spectrum([0.0, 1e-30, 2e-30, 3e-30]))
        assert list(zero) == [0]
        assert list(nonzero) == [1, 2, 3]
