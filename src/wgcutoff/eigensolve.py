"""Generalized Hermitian eigensolver for the assembled pencils.

Every pencil is solved as a saddle pencil: ``K = [[A, C], [C^H, 0]]``
against ``M = [[B, 0], [0, 0]]`` with B positive definite.  The mixed
vector formulations carry ``m`` Lagrange-multiplier rows, whose zero mass
block puts infinite eigenvalues into the pencil that must be filtered out;
the definite (plain) pencils of the scalar formulations are the case
``m = 0``.  One :func:`solve` serves both layouts, and only the shift
depends on the layout.

The production strategy is shift-invert ARPACK on a factorization of
``K - sigma*M``.  The automatic shift is ``-trace_scale`` for plain pencils
(K may be singular, as in scalar TE) and ``+1e-3 * trace_scale`` for
saddle pencils, where ``trace_scale = tr(A) / tr(B) / p`` over the primal
block; it is retried with a ten times larger shift up to three times if the
factorization fails.  At small dimensions a dense path is used instead: a
nullspace reduction that solves ``scipy.linalg.eigh`` on the constrained
space (on the whole pencil when ``m = 0``), so eigenvectors satisfy the
constraint to machine precision.  A brute-force dense QZ solve with
explicit infinite-eigenvalue filtering is exposed separately as the oracle
that every other path is tested against.

Every sparse LU (the shift-invert operator, each retry, the polishing
step, and the gradient-space solves in :mod:`wgcutoff.modes`) goes through
:class:`HermitianLU`, which is handed to ARPACK as ``OPinv`` so SciPy never
factors on its own.  Each part of its recipe is needed (factor time and
L+U nonzeros of the shifted pencil, one BLAS thread):

* minimum degree on ``A^T + A`` with symmetric-mode pivoting instead of
  SciPy's default COLAMD: 128 x 128 rectangle vector TE 4.0 s / 15.4 M
  becomes 1.4 s / 9.1 M;
* a 0.1 diagonal pivot threshold instead of full partial pivoting: at 1.0
  the rectangle's vector TM takes 22 s / 27 M instead of 0.9 s / 6.2 M;
* the reverse Cuthill-McKee pre-permutation: minimum degree alone is
  erratic, 5.7 s / 8.7 M instead of 0.07 s / 0.70 M on scalar TE of the
  coax refined three times, and it takes rectangle vector TE on down to
  1.0 s / 6.4 M.

Pencils whose matrices are real (scalar TM, any medium with alpha = 0) are
stored in float64 by :mod:`wgcutoff.femcore`; they are factored in real
arithmetic and run real symmetric Lanczos (``dsaupd``).  Complex Hermitian
pencils still run SciPy's complex Arnoldi (``znaupd``).  Eigenvectors are
returned complex either way.

Results are deterministic: the ARPACK start vector is seeded.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import reverse_cuthill_mckee

from .femcore import LAYOUT_PLAIN, HermitianPencil


class EigenSolveError(RuntimeError):
    """Factorization or convergence failure, or contract violation."""


@dataclass(frozen=True)
class SolveOptions:
    """Eigensolver configuration.

    ``shift`` is a magnitude; 0 selects the automatic heuristic (the sign is
    chosen per pencil layout).  ``zero_frac`` is the fraction of the
    reference cut-off below which a mode counts as near zero (a TEM mode or
    scalar TE's constant).  ``dense_cutoff`` is the dimension at or below
    which the dense path runs; set it to 0 to force shift-invert.
    """

    num_modes: int = 4
    shift: float = 0.0
    residual_tol: float = 1e-8
    zero_frac: float = 1e-3
    dense_cutoff: int = 400
    seed: int = 1357

    def __post_init__(self):
        if self.num_modes < 1:
            raise ValueError("num_modes must be at least 1")
        if self.residual_tol <= 0:
            raise ValueError("residual_tol must be positive")
        if not 0 < self.zero_frac < 1:
            raise ValueError("zero_frac must lie strictly between 0 and 1")
        if not self.shift >= 0:
            raise ValueError("shift must be 0 (automatic) or positive")


@dataclass(frozen=True)
class Spectrum:
    """Ascending finite eigenvalues with the primal eigenvector parts."""

    eigenvalues: np.ndarray           # (k,) real
    eigenvectors: np.ndarray          # (primal_dim, k) complex
    residuals: np.ndarray             # (k,) relative residuals


def _mat_norm(m: sp.spmatrix) -> float:
    return float(abs(m).sum(axis=1).max()) if m.nnz else 0.0


def _residuals(K, M, w, vecs) -> np.ndarray:
    kn, mn = _mat_norm(K), _mat_norm(M)
    out = np.empty(w.shape[0])
    for i, lam in enumerate(w):
        x = vecs[:, i]
        r = K @ x - lam * (M @ x)
        out[i] = np.linalg.norm(r) / ((kn + abs(lam) * mn)
                                      * max(np.linalg.norm(x), 1e-300))
    return out


def _start_vector(n: int, seed: int) -> np.ndarray:
    return np.random.default_rng(seed).standard_normal(n)


class HermitianLU:
    """Sparse LU of a Hermitian (or real symmetric) matrix, freed on exit.

    Use as ``with HermitianLU(A) as lu: x = lu.solve(b)``.  The rows and
    columns are pre-permuted by reverse Cuthill-McKee, then SuperLU orders
    ``A^T + A`` by minimum degree with symmetric-mode pivoting (diagonal
    pivots kept down to a 0.1 ratio).  The factor is dropped when the block
    exits, so memory is returned at once even where ``solve`` is still
    referenced (ARPACK keeps its operator in a reference cycle).
    """

    def __init__(self, matrix):
        matrix = sp.csr_matrix(matrix)
        self.dtype = matrix.dtype
        self._perm = reverse_cuthill_mckee(matrix, symmetric_mode=True)
        self._lu = spla.splu(
            matrix[self._perm][:, self._perm].tocsc(),
            permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.1,
            options=dict(SymmetricMode=True),
        )

    def solve(self, b: np.ndarray) -> np.ndarray:
        """``A^{-1} b`` for a vector or a block of columns."""
        y = self._lu.solve(np.asarray(b)[self._perm])
        out = np.empty_like(y)
        out[self._perm] = y
        return out

    def __enter__(self) -> "HermitianLU":
        return self

    def __exit__(self, *exc_info):
        self._lu = None


def _shift_invert(K, M, k, sigma, v0):
    """ARPACK on ``(K - sigma M)^{-1} M``; pairs come back ascending."""
    with HermitianLU(K - sigma * M) as lu:
        op = spla.LinearOperator(K.shape, matvec=lu.solve, dtype=lu.dtype)
        w, vecs = spla.eigsh(K, k=k, M=M, sigma=sigma, which="LM", v0=v0,
                             OPinv=op)
    # SciPy's complex ARPACK wrapper (_UnsymmetricArpackParams) keeps the
    # operators and the ARPACK workspace in a reference cycle.  It is still
    # in the young generations here, so a cheap collection frees it now
    # rather than at the next full collection.
    gc.collect(1)
    order = np.argsort(w)
    return w[order], vecs[:, order]


def _polish(K, M, w, vecs, residuals, tol):
    """Shifted inverse iteration on any pair whose residual misses ``tol``.

    One application of ``(K - sigma M)^{-1} M`` with sigma just below the
    Ritz value contracts the error sharply; the eigenvalue is refreshed
    from the Rayleigh quotient.  Pairs already within tolerance are left
    untouched, keeping results deterministic.
    """
    w = np.asarray(w, dtype=float).copy()
    vecs = vecs.copy()
    for i in np.flatnonzero(residuals > tol):
        scale = max(np.abs(w).max(), 1e-300)
        sigma = (w[i] * (1.0 - 1e-7) if abs(w[i]) > 1e-9 * scale
                 else -1e-7 * scale)
        try:
            with HermitianLU(K - sigma * M) as lu:
                y = lu.solve(M @ vecs[:, i])
        except Exception:
            continue
        norm = np.linalg.norm(y)
        if not np.isfinite(norm) or norm == 0:
            continue
        y /= norm
        denominator = np.vdot(y, M @ y).real
        if denominator > 0:
            w[i] = np.vdot(y, K @ y).real / denominator
            vecs[:, i] = y
    order = np.argsort(w)
    return w[order], vecs[:, order]


def _check(w, residuals, opts, scale):
    if (residuals > opts.residual_tol).any():
        raise EigenSolveError(
            f"eigenpair residual {residuals.max():.3e} exceeds "
            f"{opts.residual_tol:.1e}"
        )
    if (w < -opts.residual_tol * scale).any():
        raise EigenSolveError(
            f"negative eigenvalue {w.min():.6e} in a semidefinite pencil"
        )


def _trace_scale(K, M, p) -> float:
    """``tr(A) / tr(B) / p`` over the leading ``p`` (primal) rows."""
    trk = float(K.diagonal()[:p].real.sum())
    trm = float(M.diagonal()[:p].real.sum())
    if trm <= 0 or trk <= 0:
        return 1.0
    return trk / trm / p


def _filter_finite(alpha, beta) -> np.ndarray:
    """Finite real eigenvalues of a Hermitian/PSD pencil from QZ output.

    Infinite eigenvalues are those with a negligible ``beta``, or beyond
    1e12 times the median magnitude of the rest.
    """
    bmax = np.abs(beta).max()
    finite = np.abs(beta) > 1e-8 * max(bmax, 1e-300)
    lam = alpha[finite] / beta[finite]
    # near-zero eigenvalues carry imaginary noise at the pencil scale, so
    # judge realness against the magnitude of the finite spectrum
    scale = np.median(np.abs(lam)) if lam.size else 1.0
    real = np.abs(lam.imag) <= 1e-8 * (scale + np.abs(lam.real))
    lam = lam.real[real]
    cutoff = 1e12 * max(np.median(np.abs(lam)), 1e-300) if lam.size else np.inf
    return np.sort(lam[np.abs(lam) <= cutoff])


def dense_saddle_bruteforce(pencil: HermitianPencil,
                            opts: SolveOptions) -> np.ndarray:
    """Oracle path: full QZ on the pencil, infinite eigenvalues filtered.

    Returns the ascending finite eigenvalues (no eigenvectors); intended for
    cross-checking the production paths at small dimension.
    """
    alpha, beta = la.eig(pencil.K.toarray(), pencil.M.toarray(),
                         homogeneous_eigvals=True)[0]
    return _filter_finite(alpha, beta)[: opts.num_modes]


def _dense_saddle(pencil: HermitianPencil, k: int):
    """Nullspace reduction: eigenvectors satisfy the constraint exactly."""
    p, m = pencil.primal_dim, pencil.multiplier_dim
    K, M = pencil.K.toarray(), pencil.M.toarray()
    A, B = K[:p, :p], M[:p, :p]
    if m == 0:
        w, x = la.eigh(A, B)
        return w[:k], x[:, :k]
    C = K[:p, p:]
    Z = la.null_space(C.conj().T)
    w, u = la.eigh(Z.conj().T @ A @ Z, Z.conj().T @ B @ Z)
    w, u = w[:k], u[:, :k]
    x = Z @ u
    rhs = A @ x - B @ x * w[None, :]
    zeta = -la.lstsq(C, rhs)[0]
    return w, np.vstack([x, zeta])


def solve(pencil: HermitianPencil, opts: SolveOptions) -> Spectrum:
    """Smallest ``num_modes`` finite eigenpairs of a plain or saddle pencil.

    Primal parts are normalized in the B-inner product (M-orthonormal for a
    plain pencil); the returned pairs satisfy the discrete constraint
    (checked via the pencil residual).
    """
    K, M = pencil.K, pencil.M
    p, m = pencil.primal_dim, pencil.multiplier_dim
    n = pencil.dim
    k = opts.num_modes
    if k > p - m:
        raise EigenSolveError(
            f"requested {k} modes but the pencil of dimension {n} has only "
            f"{p - m} finite eigenvalues"
        )

    if n <= opts.dense_cutoff or k > n - 2:
        w, vecs = _dense_saddle(pencil, k)
    else:
        if pencil.layout == LAYOUT_PLAIN:  # K may be singular: shift below 0
            sigma0 = -(opts.shift or _trace_scale(K, M, p))
        else:
            sigma0 = opts.shift or 1e-3 * _trace_scale(K, M, p)
        sigma = sigma0
        last = None
        for _ in range(4):
            try:
                w, vecs = _shift_invert(K, M, k, sigma,
                                        _start_vector(n, opts.seed))
                break
            except Exception as exc:  # singular factorization: grow the shift
                last = exc
                sigma *= 10.0
        else:
            raise EigenSolveError(
                f"shift-invert failed for shifts {sigma0}..{sigma / 10}: {last}"
            )

    residuals = _residuals(K, M, w, vecs)
    if (residuals > opts.residual_tol).any():
        w, vecs = _polish(K, M, w, vecs, residuals, opts.residual_tol)
        residuals = _residuals(K, M, w, vecs)
    w = np.asarray(w, dtype=float)
    primal = vecs[:p]
    norms = np.sqrt(np.abs(np.einsum("ij,ij->j", primal.conj(),
                                     (M[:p, :p] @ primal))))
    primal = primal / np.where(norms > 0, norms, 1.0)
    _check(w, residuals, opts,
           scale=max(np.abs(w).max(), _mat_norm(K) / max(_mat_norm(M), 1e-300)))
    return Spectrum(eigenvalues=w,
                    eigenvectors=primal.astype(complex, copy=False),
                    residuals=residuals)


def classify_near_zero(spectrum: Spectrum, reference_scale: float | None = None,
                       zero_frac: float = 1e-3):
    """Split mode indices into (near-zero, nonzero) on the ``sqrt(lambda)`` scale.

    The reference is the median of the top half of the returned square
    roots unless ``reference_scale`` overrides it.  Raises if every mode is
    near zero (the request was degenerate).
    """
    lam = spectrum.eigenvalues
    if lam.size == 0:
        raise ValueError("empty spectrum")
    roots = np.sqrt(np.clip(lam, 0.0, None))
    ref = reference_scale if reference_scale else float(
        np.median(roots[roots.size // 2:]))
    near_zero = roots < zero_frac * ref
    if near_zero.all():
        raise EigenSolveError("all requested modes are near zero")
    return np.flatnonzero(near_zero), np.flatnonzero(~near_zero)
