"""Generalized Hermitian eigensolver for the assembled pencils:
``solve(pencil, k, opts)`` returns the ``k`` lowest eigenpairs.

Every pencil is a plain Hermitian pencil ``(A, B) = (K, M)``, B positive
definite.  A vector pencil is constrained to ``C^H x = 0`` with ``C = B G``
(see :class:`~wgcutoff.femcore.HermitianPencil`); its gradients ``range(G)``
are removed by the B-orthogonal projector ``P = I - G S^{-1} C^H``,
``S = C^H G``.  This is the projected eigensolver of Arbenz & Geus (Appl.
Numer. Math. 54, 2005) for Kikuchi's mixed formulation (Boffi, Acta
Numerica 19, 2010).  No saddle pencil is formed, so results do not depend
on the absolute length scale (tested from L = 1e-150 to 1e150 m).

Shift-invert ARPACK runs on ``P (A - sigma B)^{-1} B`` from a projected
start vector, with ``sigma = -trace_scale`` and ``trace_scale = tr(A) /
tr(B) / p`` for every pencil: A is singular (scalar TE's constant,
the gradients), but ``A - sigma B`` is positive definite for every
``sigma < 0``, so the shift is factored once; a SuperLU or ARPACK failure
is an :class:`EigenSolveError` that names it.  Pencils with ``p`` at most
``dense_cutoff``, and requests beyond ARPACK's reach (``k > p - m - 2``),
run dense ``eigh`` instead; a vector pencil is first reduced to the null
space of ``C^H``: the last ``p - m`` columns ``Z`` of the full QR of ``C``
are orthonormal with ``C^H Z = 0``, and ``(Z^H A Z, Z^H B Z)`` holds
exactly the divergence-free pairs (Golub, SIAM Review 15, 1973).  The
tests check every path against a dense QZ solve of the saddle pencil
(``tests/saddle_oracle.py``).
Every pair is gated by :func:`residual_gate` on ``|A x - lambda B x| /
((|A| + |lambda| |B|) |x|)``, whose terms all scale alike.  No multiplier
is computed: ``G^H A = 0`` (the gradients are in A's kernel), so the
multiplier ``zeta`` of the saddle pencil solves ``S zeta = lambda C^H x =
0`` and is zero for every divergence-free pair; a term ``C zeta`` formed
from a computed vector would only cancel the mass term of any gradient
left in it.

ARPACK stops at ``tol = RESIDUAL_TOL / 100``, not at machine precision.
It stops when ``|T x - theta x| <= tol max(eps^(2/3), |theta|)`` for ``T =
P (A - sigma B)^{-1} B`` and ``theta = 1 / (lambda - sigma)`` (Lehoucq,
Sorensen & Yang, ARPACK Users' Guide, 1998).  While ``|theta|`` exceeds
``eps^(2/3)``, about 3.7e-11, the test is relative: since ``(A - lambda B)
x = -(lambda - sigma) (A - sigma B) (T x - theta x)``, the gated residual
is then at most about ``tol (|A| + |sigma| |B|) / (|A| + |lambda| |B|)``,
which is about ``tol`` because ``|sigma|`` is far below ``|A| / |B|``, and
the eigenvalue error is of the order of its square.  But ``theta`` scales
as ``L^2`` with the length scale L of the mesh: 4e-9 to 4e-6 on the test
meshes at L = 1e-3 m and below ``eps^(2/3)`` from about L = 1e-5 m; run
unscaled at L <= 1e-7 m, 55 of the 576 forced solves of
``scripts/scale_sweep.py`` fail the gate or come back short.  So ARPACK
sees the pencil ``(A, s B)`` with
shift ``sigma / s``, ``s`` the power of four nearest ``|sigma|``, and the
eigenvalues it returns are multiplied by ``s``.  The shifted matrix ``A -
(sigma / s)(s B) = A - sigma B``, its factor and the eigenvectors are
unchanged, while ``theta`` becomes ``s / (lambda - sigma)``, of order 1 at
every L.  A power of four scales every product and square root ARPACK
forms exactly, so where ``|theta|`` was already above ``eps^(2/3)`` (L =
1e-3 m) the results are the unscaled ones bit for bit.  On the 128 x 128
rectangle (4 modes per route, seeds 1-3) a solve takes 30-42 operator
applications instead of 40-53.  Two safeguards keep the early stop from
losing eigenvalues.  One Krylov sequence sees the second copy of a
degenerate eigenvalue only through rounding, so an early stop can return
one copy: on symmetric coax, disc and square meshes, 10 of 360 forced
shift-invert solves of 4 to 8 modes did so at ``tol = 1e-10``, and none at
machine precision.  Hence two pairs beyond the request are solved, gated
and dropped (0 of 1,400 such solves came back short), and the stop is a
hundredth of the gate: at ``tol = 1e-8``, 17 of the 1,400 came back short.

Every sparse LU (the shift-invert operator and the gradient stiffness S)
goes through :class:`HermitianLU`, which is handed to ARPACK as ``OPinv``
so SciPy never factors on its own.  Each part of its recipe is needed
(factor time and L+U nonzeros of the shifted pencil, one BLAS thread):

* minimum degree on ``A^T + A`` with symmetric-mode pivoting instead of
  SciPy's default COLAMD: 128 x 128 rectangle vector TE 0.49 s / 4.1 M
  becomes 0.30 s / 2.4 M, vector TM 0.49 s / 4.3 M becomes 0.25 s / 1.6 M;
* the reverse Cuthill-McKee pre-permutation: minimum degree alone is
  erratic, 5.0 s instead of 0.07 s / 0.67 M on scalar TE of the coax
  refined three times;
* the 0.1 diagonal pivot threshold: with SuperLU's default of 1.0 the
  vector cut-offs of the coax refined two and three times move in their
  last bits (up to 1.6e-15 relative, seeds 1-2), and so do their
  eigenvectors.

Pencils whose matrices are real (scalar TM, any medium with alpha = 0) are
assembled in float64; they are factored in real arithmetic and run real
symmetric Lanczos (``dsaupd``).  Complex Hermitian pencils still run
SciPy's complex Arnoldi (``znaupd``).  Eigenvectors are returned complex
either way.

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

from .femcore import HermitianPencil


class EigenSolveError(RuntimeError):
    """Factorization or convergence failure, or contract violation."""


#: The gate on the relative residual of every returned pair; ARPACK stops
#: at a hundredth of it, relative at every length scale.
RESIDUAL_TOL = 1e-8

#: The fraction of the reference cut-off below which a mode counts as near
#: zero (a TEM mode or scalar TE's constant).
ZERO_FRAC = 1e-3


@dataclass(frozen=True)
class SolveOptions:
    """Eigensolver configuration; the mode count is an argument of
    :func:`solve`, and the shift is ``sigma = -trace_scale``.

    ``dense_cutoff`` is the field dimension at or below which the dense
    path runs; set it to 0 to force shift-invert.  ``seed`` seeds ARPACK's
    start vector.
    """

    dense_cutoff: int = 400
    seed: int = 1357


@dataclass(frozen=True)
class Spectrum:
    """Ascending eigenvalues with B-normalized field eigenvectors."""

    eigenvalues: np.ndarray           # (k,) real
    eigenvectors: np.ndarray          # (primal_dim, k) complex
    residuals: np.ndarray             # (k,) relative residuals


def _mat_norm(m: sp.spmatrix) -> float:
    return float(abs(m).sum(axis=1).max()) if m.nnz else 0.0


def _residuals(K, M, w, vecs) -> np.ndarray:
    """``|K x - lambda M x| / ((|K| + |lambda| |M|) |x|)`` per pair.

    One pair at a time, ``x`` scaled by its largest entry and the residual
    by its denominator before a norm squares them: nothing over- or
    underflows, and no temporary holds every pair.  A ``0 / 0`` (all-zero
    K) or a NaN eigenvalue reads NaN quietly; the gate rejects it.
    """
    k_norm, m_norm = _mat_norm(K), _mat_norm(M)
    out = np.empty(len(w))
    with np.errstate(invalid="ignore", divide="ignore"):
        for j, x in enumerate(vecs.T):
            x = x / np.abs(x).max()
            r = (K @ x - w[j] * (M @ x)) / (k_norm + abs(w[j]) * m_norm)
            out[j] = np.linalg.norm(r) / np.linalg.norm(x)
    return out


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
        b = np.asarray(b)
        if np.iscomplexobj(b) and self.dtype.kind == "f":
            # a real factor takes the real and imaginary parts in turn
            return self.solve(b.real) + 1j * self.solve(b.imag)
        y = self._lu.solve(b[self._perm])
        out = np.empty_like(y)
        out[self._perm] = y
        return out

    def __enter__(self) -> "HermitianLU":
        return self

    def __exit__(self, *exc_info):
        self._lu = None


class _GradientProjector:
    """``P = I - G S^{-1} C^H`` of a vector pencil.

    ``S = C^H G`` is factored once, on entry, and freed when the block
    exits.  For a pencil without multipliers P is the identity (it returns
    its argument itself).
    """

    def __init__(self, pencil: HermitianPencil):
        self.gradient = pencil.gradient if pencil.multiplier_dim else None
        self._lu = None
        if self.gradient is not None:
            self.divergence = pencil.constraint_block().conj().T.tocsr()
            self._lu = HermitianLU(self.divergence @ self.gradient)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        if self._lu is None:
            return x
        return x - self.gradient @ self._lu.solve(self.divergence @ x)

    def __enter__(self) -> "_GradientProjector":
        return self

    def __exit__(self, *exc_info):
        self._lu = None


def _shift_invert(pencil, k, sigma, v0, ncv, tol):
    """ARPACK on ``P (K - sigma M)^{-1} M`` to relative accuracy ``tol``;
    pairs come back ascending.

    ARPACK sees the pencil ``(K, s M)`` with shift ``sigma / s``, where ``s``
    is the power of four nearest ``|sigma|``: the same shifted matrix and
    eigenvectors, eigenvalues divided by ``s``, and Ritz values of order 1
    (see the module notes).  ``K - sigma M`` is factored before the
    projector's ``S``, so that neither the factor of ``S`` nor the
    divergence block is held while the larger factorization runs.
    """
    K, M = pencil.K, pencil.M
    s = 4.0 ** round(np.log2(abs(sigma)) / 2)
    with (HermitianLU(K - sigma * M) as lu,
          _GradientProjector(pencil) as project):
        op = spla.LinearOperator(
            K.shape, matvec=lambda b: project(lu.solve(b)), dtype=lu.dtype)
        w, vecs = spla.eigsh(K, k=k, M=spla.aslinearoperator(M) * s,
                             sigma=sigma / s, which="LM", v0=project(v0),
                             ncv=ncv, tol=tol, OPinv=op)
    # SciPy's complex ARPACK wrapper (_UnsymmetricArpackParams) keeps the
    # operators and the ARPACK workspace in a reference cycle.  It is still
    # in the young generations here, so a cheap collection frees it now
    # rather than at the next full collection.
    gc.collect(1)
    order = np.argsort(w)
    return w[order] * s, vecs[:, order]


def residual_gate(pencil: HermitianPencil, w, vecs) -> np.ndarray:
    """Residuals of the eigenpairs ``(w, vecs)``, or an
    :class:`EigenSolveError`.

    Every pair must pass ``|A x - lambda B x| / ((|A| + |lambda| |B|) |x|)
    <= RESIDUAL_TOL``, and no eigenvalue may be negative beyond rounding at
    the scale of ``w`` and of ``|A| / |B|``.  A gradient left in a vector
    pair fails: its mass term ``lambda B G y`` has nothing to cancel it,
    and so does a NaN residual (``0 / 0`` where A underflows to zero).
    """
    K, M = pencil.K, pencil.M
    residuals = _residuals(K, M, w, vecs)
    if not (residuals <= RESIDUAL_TOL).all():
        raise EigenSolveError(
            f"eigenpair residual {residuals.max():.3e} exceeds "
            f"{RESIDUAL_TOL:.1e}"
        )
    scale = max(np.abs(w).max(), _mat_norm(K) / max(_mat_norm(M), 1e-300))
    if (w < -RESIDUAL_TOL * scale).any():
        raise EigenSolveError(
            f"negative eigenvalue {w.min():.6e} in a semidefinite pencil"
        )
    return residuals


def _trace_scale(K, M) -> float:
    """``tr(K) / tr(M) / p``: the size of the low end of the spectrum."""
    trk = float(K.diagonal().real.sum())
    trm = float(M.diagonal().real.sum())
    if trm <= 0 or trk <= 0:
        return 1.0
    return trk / trm / K.shape[0]


def _dense(pencil: HermitianPencil, k: int):
    """Dense ``eigh`` of the ``k`` lowest pairs, for a vector pencil on the
    null space ``Z`` of ``C^H`` (see the module notes), reduced through the
    sparse products ``A Z`` and ``B Z``."""
    K, M = pencil.K, pencil.M
    if not pencil.multiplier_dim:
        w, x = la.eigh(K.toarray(), M.toarray())
        return w[:k], x[:, :k]
    m = pencil.multiplier_dim
    Z = la.qr(pencil.constraint_block().toarray())[0][:, m:]
    Zh = Z.conj().T
    w, y = la.eigh(Zh @ (K @ Z), Zh @ (M @ Z), subset_by_index=[0, k - 1])
    return w, Z @ y


def solve(pencil: HermitianPencil, k: int,
          opts: SolveOptions | None = None) -> Spectrum:
    """Smallest ``k`` eigenpairs, divergence-free for a vector pencil.

    Eigenvectors are normalized in the M-inner product; the returned pairs
    are checked via the pencil residual.  Two pairs beyond ``k`` (fewer on
    a pencil too small for them) are solved and checked too, then dropped.
    ``opts`` defaults to ``SolveOptions()``.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    opts = opts if opts is not None else SolveOptions()
    K, M = pencil.K, pencil.M
    p, m = pencil.primal_dim, pencil.multiplier_dim
    if k > p - m:
        raise EigenSolveError(
            f"requested {k} modes but the pencil of dimension {p} has only "
            f"{p - m} finite eigenvalues"
        )

    # two pairs beyond the request are solved, gated and dropped: without
    # them a degenerate pair at the top of the request can come back as one
    # copy (see the module notes)
    dense = p <= opts.dense_cutoff or k > p - m - 2
    want = min(k + 2, p - m if dense else p - m - 2)
    if dense:
        w, vecs = _dense(pencil, want)
    else:
        # the Krylov space lies in range(P), of dimension p - m
        ncv = min(max(2 * want + 1, 20), p - m)
        sigma = -_trace_scale(K, M)
        try:
            v0 = np.random.default_rng(opts.seed).standard_normal(p)
            w, vecs = _shift_invert(pencil, want, sigma, v0, ncv,
                                    RESIDUAL_TOL / 100)
        except RuntimeError as exc:  # SuperLU or ARPACK
            raise EigenSolveError(
                f"shift-invert failed at shift {sigma:.6e}: {exc}"
            ) from exc

    residuals = residual_gate(pencil, w, vecs)
    norms = np.sqrt(np.abs(np.einsum("ij,ij->j", vecs.conj(), M @ vecs)))
    norms = np.where(norms > 0, norms, 1.0)
    vecs = vecs / norms
    return Spectrum(eigenvalues=w[:k],
                    eigenvectors=vecs[:, :k].astype(complex, copy=False),
                    residuals=residuals[:k])


def classify_near_zero(spectrum: Spectrum):
    """Split mode indices into (near-zero, nonzero) on the ``sqrt(lambda)`` scale.

    A root is near zero below ``ZERO_FRAC`` times the median of the top
    half of the returned square roots, so the largest root never is.
    """
    lam = spectrum.eigenvalues
    if lam.size == 0:
        raise ValueError("empty spectrum")
    roots = np.sqrt(np.clip(lam, 0.0, None))
    near_zero = roots < ZERO_FRAC * float(np.median(roots[roots.size // 2:]))
    return np.flatnonzero(near_zero), np.flatnonzero(~near_zero)
