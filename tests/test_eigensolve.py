import gc
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as la
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from wgcutoff import (
    assemble_scalar_te,
    assemble_scalar_tm,
    assemble_vector_te,
    assemble_vector_tm,
    build_topology,
    generate_annulus,
    generate_rectangle,
    generate_rectilinear_polygon,
    refine_uniform,
)
from wgcutoff import eigensolve
from wgcutoff.eigensolve import (
    RESIDUAL_TOL,
    EigenSolveError,
    HermitianLU,
    SolveOptions,
    _residuals,
    solve,
)
from wgcutoff.femcore import HermitianPencil
from conftest import RIDGE_VERTICES
from saddle_oracle import dense_saddle_bruteforce, with_gradient


#: A child that factors the matrix saved in its working directory and
#: prints the growth of its resident set over the bytes of the factor's values
_FACTOR_GROWTH = """
import numpy as np, scipy.sparse as sp
from wgcutoff.eigensolve import HermitianLU

def status_kb(key):
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status
                    if line.startswith(key + ":"))

data, indices, indptr = (np.load(p + ".npy")
                         for p in ("data", "indices", "indptr"))
matrix = sp.csr_matrix((data, indices, indptr), shape=(indptr.size - 1,) * 2)
before = status_kb("VmRSS")
with HermitianLU(matrix) as lu:
    growth = 1024 * (status_kb("VmHWM") - before)
    print(growth / (lu._lu.nnz * matrix.dtype.itemsize))
"""


def plain_pencil(K, M):
    K = sp.csr_matrix(np.asarray(K, dtype=complex))
    M = sp.csr_matrix(np.asarray(M, dtype=complex))
    return HermitianPencil(K=K, M=M,
                           retained=np.ones(K.shape[0], dtype=bool))


def saddle_pencil(curl, B, G):
    """Pencil ``(curl^H curl, B)`` constrained to ``C^H x = 0`` with ``C =
    B G``, for a real ``curl`` with ``curl G = 0`` and no harmonic field."""
    curl = sp.csr_matrix(np.asarray(curl, dtype=float))
    B = sp.csr_matrix(np.asarray(B, dtype=complex))
    G = sp.csr_matrix(np.asarray(G, dtype=float))
    return HermitianPencil(K=(curl.T @ curl).astype(complex).tocsr(), M=B,
                           gradient=G, curl=curl,
                           kernel=np.zeros((curl.shape[0], 0)),
                           harmonic=np.zeros((G.shape[0], 0)),
                           retained=np.ones(G.shape[0], dtype=bool))


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

    def test_superlu_recipe(self, monkeypatch):
        # the measured recipe of the module notes
        calls = []
        splu = spla.splu

        def spy(matrix, **kwargs):
            calls.append(kwargs)
            return splu(matrix, **kwargs)

        monkeypatch.setattr(spla, "splu", spy)
        with HermitianLU(sp.identity(3, format="csr")):
            pass
        assert calls == [dict(permc_spec="MMD_AT_PLUS_A",
                              diag_pivot_thresh=0.1, panel_size=1,
                              options=dict(SymmetricMode=True))]

    @pytest.mark.skipif(not Path("/proc/self/status").exists(),
                        reason="reads VmRSS and VmHWM")
    @pytest.mark.parametrize("assemble, cells", [(assemble_vector_te, 64),
                                                 (assemble_vector_tm, 96)])
    def test_factor_memory(self, gyro_medium, tmp_path, assemble, cells):
        # the growth across one factorization of the shifted pencil read
        # 1.66-1.75 times the factor's values in 12 runs of each case, and
        # 2.42-2.67 times with SuperLU's default panel blocking.  The child
        # reads /proc/self/status because its ru_maxrss starts at its
        # parent's.
        pencil = assemble(generate_rectangle(1.2e-3, 1.0e-3, cells, cells),
                          gyro_medium)
        K, M = pencil.K, pencil.M
        matrix = (K + eigensolve._trace_scale(K, M) * M).tocsr()
        for part in ("data", "indices", "indptr"):
            np.save(tmp_path / part, getattr(matrix, part))
        src = Path(eigensolve.__file__).resolve().parents[1]
        done = subprocess.run([sys.executable, "-c", _FACTOR_GROWTH],
                              cwd=tmp_path, check=True, capture_output=True,
                              text=True,
                              env=dict(os.environ, PYTHONPATH=str(src)))
        assert float(done.stdout) <= 2.0

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
        # the constant is the pencil's known kernel, M-normalized, and the
        # solve returns only the pairs past it
        mesh = generate_rectangle(1.0, 1.0, 4, 4)
        pencil = assemble_scalar_te(mesh, gyro_medium)
        c = pencil.kernel
        assert c.shape == (pencil.primal_dim, 1)
        assert np.abs(c - c.mean()).max() <= 1e-15 * np.abs(c).max()
        assert abs(c.T @ (pencil.M @ c) - 1).max() <= 1e-14
        assert np.abs(pencil.K @ c).max() <= 1e-15 * abs(pencil.K).max()
        brute = la.eigh(pencil.K.toarray(), pencil.M.toarray(),
                        eigvals_only=True)
        for opts in (SolveOptions(dense_cutoff=pencil.primal_dim),
                     SolveOptions(dense_cutoff=0)):
            lam = solve(pencil, 3, opts).eigenvalues
            assert (lam > 1e-3 * lam[-1]).all()
            np.testing.assert_allclose(lam, brute[1:4], rtol=1e-8)

    def test_scalar_te_capacity_excludes_the_constant(self, gyro_medium):
        # p nodes carry p - 1 modes past the constant
        pencil = assemble_scalar_te(generate_rectangle(1.0, 1.0, 3, 3),
                                    gyro_medium)
        p = pencil.primal_dim
        assert pencil.finite_count == p - 1
        lam = solve(pencil, p - 1).eigenvalues
        assert lam.size == p - 1 and (lam > 0).all()
        with pytest.raises(EigenSolveError, match="dimension"):
            solve(pencil, p)

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
        dense = solve(pencil, 4, SolveOptions(dense_cutoff=pencil.primal_dim))
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

    @pytest.mark.parametrize("mesh, holes", [
        (lambda: generate_rectangle(1.2e-3, 1e-3, 6, 5), 0),
        (lambda: generate_annulus(1e-3, 2e-3, 4, 12), 1)],
        ids=["rectangle", "coax"])
    @pytest.mark.parametrize("assemble", [assemble_vector_te,
                                          assemble_vector_tm])
    def test_factor_sequence(self, gyro_medium, monkeypatch, mesh, holes,
                             assemble):
        # a simply connected vector solve factors the shifted pencil alone;
        # on the coax S is factored for the TEM mode after the shifted
        # factor is freed, and freed before the solve returns
        events = []

        class RecordingLU(eigensolve.HermitianLU):
            def __init__(self, matrix):
                self.size = matrix.shape[0]
                events.append(("factor", self.size))
                super().__init__(matrix)

            def __exit__(self, *exc_info):
                events.append(("free", self.size))
                super().__exit__(*exc_info)

        monkeypatch.setattr(eigensolve, "HermitianLU", RecordingLU)
        pencil = assemble(mesh(), gyro_medium)
        solve(pencil, 3, SolveOptions(dense_cutoff=0))
        p, m = pencil.primal_dim, pencil.multiplier_dim
        assert events == ([("factor", p), ("free", p)]
                          + [("factor", m), ("free", m)] * holes)

    @pytest.mark.parametrize("mesh", [
        lambda: generate_rectangle(1.2e-3, 1e-3, 24, 20),
        lambda: generate_annulus(1e-3, 2e-3, 4, 48)],
        ids=["rectangle", "coax"])
    @pytest.mark.parametrize("assemble", [assemble_vector_te,
                                          assemble_vector_tm])
    def test_one_sparse_solve_per_arpack_step(self, gyro_medium, monkeypatch,
                                              mesh, assemble):
        # each operator application is one solve with the shifted factor,
        # and the eigenvectors come from one block solve after ARPACK
        solves, steps = [], []

        class CountingLU(eigensolve.HermitianLU):
            def solve(self, b):
                solves.append(np.ndim(b))
                return super().solve(b)

        eigsh = spla.eigsh

        def counting_eigsh(A, *args, OPinv, **kwargs):
            def step(f):
                steps.append(len(solves))
                return OPinv.matvec(f)

            return eigsh(A, *args, OPinv=spla.LinearOperator(
                OPinv.shape, matvec=step, dtype=OPinv.dtype), **kwargs)

        monkeypatch.setattr(eigensolve, "HermitianLU", CountingLU)
        monkeypatch.setattr(spla, "eigsh", counting_eigsh)
        pencil = assemble(mesh(), gyro_medium)
        solve(pencil, 4, SolveOptions(dense_cutoff=0))
        assert len(steps) > 10
        assert steps == list(range(len(steps)))
        assert solves[:len(steps) + 1] == [1] * len(steps) + [2]

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
        pencil = saddle_pencil([[0.0, 3.0 ** 0.5]], np.eye(2), [[1.0], [0.0]])
        spectrum = solve(pencil, 1)
        assert np.allclose(spectrum.eigenvalues, [3.0], atol=1e-10)
        # the constraint row x1 = 0 holds for the returned pair
        assert abs(spectrum.eigenvectors[0, 0]) <= 1e-10
        brute = dense_saddle_bruteforce(pencil, 1)
        assert np.allclose(brute, [3.0], atol=1e-10)

    def test_constraint_without_curl_rejected(self):
        # the constraint is only enforced through the curl space
        pencil = replace(saddle_pencil([[0.0, 3.0 ** 0.5]], np.eye(2),
                                       [[1.0], [0.0]]), curl=None)
        with pytest.raises(EigenSolveError, match="curl"):
            solve(pencil, 1)

    def test_requesting_more_than_finite_count_rejected(self):
        pencil = saddle_pencil([[0.0, 3.0 ** 0.5]], np.eye(2), [[1.0], [0.0]])
        assert pencil.finite_count == 1
        with pytest.raises(EigenSolveError, match="finite"):
            solve(pencil, 2)

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
            dense = solve(pencil, 4, SolveOptions(
                dense_cutoff=pencil.primal_dim))
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
        scaled = replace(
            pencil, K=(pencil.K * 7.5).tocsr(), M=(pencil.M * 7.5).tocsr(),
            curl=(pencil.curl * 7.5 ** 0.5).tocsr(),
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
            divergence = pencil.constraint_block().conj().T
            with HermitianLU(divergence @ pencil.gradient) as lu:
                zeta = lu.solve(divergence @ x) * lam
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
        shift_invert = eigensolve._curl_shift_invert

        def polluted(*args):
            w, vecs = shift_invert(*args)
            return w, with_gradient(pencil, vecs, 0.1)

        monkeypatch.setattr(eigensolve, "_curl_shift_invert", polluted)
        with pytest.raises(EigenSolveError, match="eigenpair residual"):
            solve(pencil, 3, SolveOptions(dense_cutoff=0))


class TestPathSelection:
    """Shift-invert solves every pencil ARPACK can take, however small;
    only a request past its reach runs dense."""

    @pytest.mark.parametrize("assemble", [
        assemble_scalar_te, assemble_scalar_tm, assemble_vector_te,
        assemble_vector_tm], ids=lambda f: f.__name__[len("assemble_"):])
    def test_small_pencil_takes_shift_invert(self, gyro_medium, monkeypatch,
                                             assemble):
        def refuse(pencil, k):
            raise AssertionError("the dense path ran")

        pencil = assemble(generate_annulus(1e-3, 2e-3, 2, 16), gyro_medium)
        assert pencil.primal_dim <= 400
        monkeypatch.setattr(eigensolve, "_dense", refuse)
        solve(pencil, 4)

    def test_request_past_arpack_reaches_dense(self, gyro_medium,
                                               monkeypatch):
        calls = []
        dense = eigensolve._dense

        def spy(pencil, k):
            calls.append(k)
            return dense(pencil, k)

        pencil = assemble_scalar_tm(generate_annulus(1e-3, 2e-3, 4, 48),
                                    gyro_medium)
        assert pencil.primal_dim == 144
        monkeypatch.setattr(eigensolve, "_dense", spy)
        lam = solve(pencil, 143).eigenvalues
        assert len(calls) == 1
        brute = la.eigh(pencil.K.toarray(), pencil.M.toarray(),
                        eigvals_only=True)
        np.testing.assert_allclose(lam, brute[:143], rtol=1e-8)


class TestOracleEquivalence:
    """The dense path's whole finite spectrum must agree with the dense
    brute force on small vector pencils (the shift-invert half is
    acceptance criterion 10)."""

    def coarse_pencils(self, gyro_medium):
        meshes = {
            "rectangle": generate_rectangle(1.2e-3, 1.0e-3, 3, 3),
            "disc": generate_annulus(0.0, 2e-3, 2, 8),
            "coax": generate_annulus(1e-3, 2e-3, 2, 8),
        }
        for mesh in meshes.values():
            if (~mesh.boundary_edge).any():
                yield assemble_vector_te(mesh, gyro_medium)
            yield assemble_vector_tm(mesh, gyro_medium)

    def test_all_small_pencils(self, gyro_medium):
        for pencil in self.coarse_pencils(gyro_medium):
            assert pencil.primal_dim <= 200
            # every finite pair is past ARPACK's reach and takes the dense
            # path: the whole finite spectrum, every pair divergence-free
            k = pencil.finite_count
            spectrum = solve(pencil, k)
            ref = dense_saddle_bruteforce(pencil, k)
            scale = max(np.abs(ref).max(), 1.0)
            assert np.allclose(spectrum.eigenvalues, ref, rtol=1e-8,
                               atol=1e-8 * scale)
            x = spectrum.eigenvectors
            divergence = pencil.constraint_block().conj().T @ x
            assert (np.linalg.norm(divergence, axis=0)
                    <= 1e-12 * np.linalg.norm(x, axis=0)).all()


def two_hole_mesh():
    """The 12 x 10 rectangle grid without an L-shaped block of five cells,
    whose nodes' mean lies outside it, and a separate 2 x 2 block."""
    base = generate_rectangle(1.2e-3, 1e-3, 12, 10)
    l_shape = [(2, 2), (2, 3), (2, 4), (3, 2), (4, 2)]
    square = [(8, 5), (9, 5), (8, 6), (9, 6)]
    keep = np.ones(base.num_triangles, dtype=bool)
    for col, row in l_shape + square:
        keep[2 * (row * 12 + col) + np.arange(2)] = False
    # the square's centre node goes with it
    used, triangles = np.unique(base.triangles[keep], return_inverse=True)
    mesh = build_topology(base.nodes[used], triangles.reshape(-1, 3))
    # the mean of the L's nodes, in cells, is at neither of its arms
    corners = np.array(l_shape)[:, None, :] + [[0, 0], [1, 0], [0, 1], [1, 1]]
    mean = np.unique(corners.reshape(-1, 2), axis=0).mean(axis=0)
    assert not any((c <= mean).all() and (mean <= c + 1).all()
                   for c in np.array(l_shape))
    return mesh


class TestTwoHoles:
    """Two holes, one of them non-convex: the TEM modes are constructed,
    and the rest of the spectrum is the saddle pencil's."""

    @pytest.fixture(scope="class")
    def mesh(self):
        mesh = two_hole_mesh()
        assert mesh.num_boundary_components == 3
        return mesh

    @pytest.mark.parametrize("assemble", [assemble_vector_te,
                                          assemble_vector_tm])
    def test_tem_modes_and_cutoffs(self, gyro_medium, mesh, assemble):
        pencil = assemble(mesh, gyro_medium)
        K, M = pencil.K, pencil.M
        k_norm = abs(K).sum(axis=1).max()
        divergence = pencil.constraint_block().conj().T
        brute = dense_saddle_bruteforce(pencil, 6)
        assert np.abs(brute[:2]).max() <= 1e-8 * brute[2]
        for opts in (SolveOptions(dense_cutoff=pencil.primal_dim),
                     SolveOptions(dense_cutoff=0)):
            spectrum = solve(pencil, 6, opts)
            w, x = spectrum.eigenvalues, spectrum.eigenvectors
            assert (w[:2] == 0).all() and (w[2:] > 0).all()
            tem = x[:, :2]
            norms = np.linalg.norm(tem, axis=0)
            assert (np.linalg.norm(K @ tem, axis=0)
                    <= 1e-14 * k_norm * norms).all()
            assert (np.abs(tem.conj().T @ (M @ tem) - np.eye(2)).max()
                    <= 1e-12)
            assert (np.linalg.norm(divergence @ tem, axis=0)
                    <= 1e-12 * norms).all()
            np.testing.assert_allclose(w[2:], brute[2:], rtol=1e-8)


class TestScalarTeConstant:
    """Scalar TE's constant never reaches the solve: every returned mode is
    M-orthogonal to it, on both paths."""

    @pytest.mark.parametrize("mesh", [
        pytest.param(lambda: generate_annulus(1e-3, 2e-3, 4, 48), id="coax"),
        pytest.param(lambda: generate_annulus(0.0, 2e-3, 4, 24), id="disc"),
        pytest.param(lambda: generate_rectilinear_polygon(RIDGE_VERTICES,
                                                          1e-4), id="ridge"),
        pytest.param(two_hole_mesh, id="two holes")])
    def test_modes_are_m_orthogonal_to_the_constant(self, gyro_medium, mesh):
        pencil = assemble_scalar_te(mesh(), gyro_medium)
        mc = pencil.M @ pencil.kernel
        for opts in (SolveOptions(dense_cutoff=pencil.primal_dim),
                     SolveOptions(dense_cutoff=0)):
            x = solve(pencil, 6, opts).eigenvectors
            assert np.abs(mc.conj().T @ x).max() <= 1e-12
