"""Generalized Hermitian eigensolver for the assembled pencils:
``solve(pencil, k, opts)`` returns the ``k`` lowest eigenpairs.

Every pencil is a plain Hermitian pencil ``(A, B) = (K, M)``, M positive
definite.  A vector pencil is constrained to ``C^H x = 0`` with ``C = M G``
(Kikuchi's mixed formulation; Boffi, Acta Numerica 19, 2010), and its
stiffness is ``K = R^H R``, ``R = pencil.curl`` (T x p) the triangles'
constant edge curls.  Its nonzero pairs are those of the curl-space
operator ``H = R M^{-1} R^H``: ``H y = lambda y`` for ``y = R x``, and
``x = M^{-1} R^H y / lambda``.  As ``R G = 0`` exactly, ``C^H x = (R G)^H
y / lambda = 0``: no projector is applied inside the iteration, and any
gradient that rounding leaves in a solve, the next product with R
annihilates (the vectors come back divergence-free to about 1e-12).  No
saddle pencil is formed, so results do not depend on the absolute length
scale (tested from L = 1e-150 to 1e150 m).

Shift-invert ARPACK runs on ``(K - sigma M)^{-1} M`` for a scalar pencil
and on ``(H - sigma I)^{-1} f = (R (K - sigma M)^{-1} R^H f - f) / sigma``
for a vector one, one solve with the factor of ``K - sigma M`` per step
(the projected operator of Arbenz & Geus, Appl. Numer. Math. 54, 2005,
needed a second factorization and solve for ``P = I - G S^{-1} C^H``,
``S = C^H G``).  The eigenvectors follow from one block solve with the
same factor.  ``sigma = -trace_scale``, ``trace_scale = tr(K) / tr(M) /
p``, for every pencil: K is singular (scalar TE's constant, the
gradients), but ``K - sigma M`` is positive definite for every ``sigma <
0``, so the shift is factored once; a SuperLU or ARPACK failure is an
:class:`EigenSolveError` that names it.

Three kernels never reach ARPACK.  Two are ``pencil.kernel``, known null
vectors that would dominate the operator, so they are projected out of
the start vector and of every step: on a TE pencil the kernel of ``R^H``,
one vector per piece of the triangle graph (the curl of a field with zero
tangential trace has zero mean), and scalar TE's constant, no mode,
M-orthogonally (``p`` nodes carry ``p - 1`` modes).  The B - 1 TEM modes
are harmonic fields that H cannot see (``R h = 0``); ``femcore`` builds
them (``pencil.harmonic``, ``pencil.tem_count`` of them), and the solve
makes them divergence-free by subtracting their :func:`gradient_part`,
which factors S only after the shifted factor is freed and only where
there is a hole, M-orthonormalizes them and returns them first, with
eigenvalue exactly 0.

Only requests beyond ARPACK's reach (two short of all pairs past the
kernel, ``pencil.finite_count``) run dense ``eigh`` instead: of ``(K,
M)``, or of the dense H, past the kernel.  The tests check both paths
against a dense QZ solve of the saddle pencil (``tests/saddle_oracle.py``).
Every pair is gated by :func:`residual_gate` on ``|A x - lambda B x| /
((|A| + |lambda| |B|) |x|)``, whose terms all scale alike.  No multiplier
is computed: ``G^H A = 0`` (the gradients are in A's kernel), so the
multiplier ``zeta`` of the saddle pencil solves ``S zeta = lambda C^H x =
0`` and is zero for every divergence-free pair; a term ``C zeta`` formed
from a computed vector would only cancel the mass term of any gradient
left in it.

ARPACK stops at ``tol = RESIDUAL_TOL / 100``, not at machine precision.
It stops when ``|T x - theta x| <= tol max(eps^(2/3), |theta|)`` for ``T =
(A - sigma B)^{-1} B`` or ``(H - sigma I)^{-1}`` and ``theta = 1 / (lambda -
sigma)`` (Lehoucq, Sorensen & Yang, ARPACK Users' Guide, 1998).  While
``|theta|`` exceeds ``eps^(2/3)``, about 3.7e-11, the test is relative:
since ``(A - lambda B) x = -(lambda - sigma) (A - sigma B) (T x - theta
x)`` (and the same for H), the gated residual
is then at most about ``tol (|A| + |sigma| |B|) / (|A| + |lambda| |B|)``,
which is about ``tol`` because ``|sigma|`` is far below ``|A| / |B|``, and
the eigenvalue error is of the order of its square.  But ``theta`` scales
as ``L^2`` with the length scale L of the mesh: 4e-9 to 4e-6 on the test
meshes at L = 1e-3 m and below ``eps^(2/3)`` from about L = 1e-5 m; run
unscaled at L <= 1e-7 m, 55 of the 576 forced solves of
``scripts/scale_sweep.py`` fail the gate or come back short.  So ARPACK
sees the pencil ``(A, s B)``, or ``H / s``, with
shift ``sigma / s``, ``s`` the power of four nearest ``|sigma|``, and the
eigenvalues it returns are multiplied by ``s``; a vector step is ``(R (K -
sigma M)^{-1} R^H f - f) s / sigma``, of order ``|f|`` at every L.  The shifted matrix ``A -
(sigma / s)(s B) = A - sigma B``, its factor and the eigenvectors are
unchanged, while ``theta`` becomes ``s / (lambda - sigma)``, of order 1 at
every L.  A power of four scales every product and square root ARPACK
forms exactly, so where ``|theta|`` was already above ``eps^(2/3)`` (L =
1e-3 m) the results are the unscaled ones bit for bit.  ``s B x`` is
formed as ``r (B (r x))`` with ``r = sqrt(s)``, a power of two, so the
split is exact.  Formed as ``s (B x)``, the product ``B x`` of a scalar
pencil at L = 1e-150 m (mass entries near 1e-301) goes subnormal, and
forced shift-invert scalar TM on the 2 x 16 coax was off by 4.6e-10 in
``cut-off x L``; formed as ``B (s x)``, the same goes wrong at L = 1e150
m.  On the 128 x 128 rectangle (4 modes per route, seeds 1-3, one BLAS
thread) a solve takes 32-42 operator applications against 43-53 at a
machine-precision stop.  Two safeguards keep the early stop from
losing eigenvalues.  One Krylov sequence sees the second copy of a
degenerate eigenvalue only through rounding, so an early stop can return
one copy: on symmetric coax, disc and square meshes, 10 of 360 forced
shift-invert solves of 4 to 8 modes did so at ``tol = 1e-10``, and none at
machine precision.  Hence two pairs beyond the request are solved, gated
and dropped (0 of 1,400 such solves came back short), and the stop is a
hundredth of the gate: at ``tol = 1e-8``, 17 of the 1,400 came back short.

Every sparse LU (the shifted pencil, the gradient stiffness S and the
dense path's M) goes through :class:`HermitianLU`, which is handed to
ARPACK as ``OPinv`` so SciPy never factors on its own.  Each part of its
recipe is needed (factor time and L+U nonzeros of the shifted pencil, one
BLAS thread):

* minimum degree on ``A^T + A`` with symmetric-mode pivoting instead of
  SciPy's default COLAMD: 128 x 128 rectangle vector TE 0.49 s / 4.1 M
  becomes 0.30 s / 2.4 M, vector TM 0.49 s / 4.3 M becomes 0.25 s / 1.6 M;
* the reverse Cuthill-McKee pre-permutation: minimum degree alone is
  erratic, 5.0 s instead of 0.07 s / 0.67 M on scalar TE of the coax
  refined three times;
* the 0.1 diagonal pivot threshold: with SuperLU's default of 1.0 the
  vector cut-offs of the coax refined two and three times move in their
  last bits (up to 1.6e-15 relative, seeds 1-2), and so do their
  eigenvectors;
* no panel blocking (``panel_size=1``): SciPy's default panel makes
  SuperLU allocate zeroed work arrays of about ``panel_size x n`` entries
  that these pencils do not repay.  The L+U nonzeros and the time per
  solve stay the same, and the resident-set growth of a factorization falls
  by about 0.3-0.5 KB per unknown: 128 x 128 rectangle vector TE 78.9 to
  56.7 MB, vector TM 65.5 to 43.2 MB.  The factor time (median of 8
  alternating factorizations) falls from 0.26 to 0.20 s and from 0.19 to
  0.12 s there, and from 0.10 to 0.07 s for both vector routes on the coax
  refined three times; the gain shrinks with size, and the 256 x 256
  rectangle's vector TE takes 1.22 s instead of 1.19 s.

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


@dataclass(frozen=True)
class SolveOptions:
    """Eigensolver configuration; the mode count is an argument of
    :func:`solve`, and the shift is ``sigma = -trace_scale``.

    ``dense_cutoff`` is the field dimension at or below which the dense
    path runs too; the default 0 leaves it to requests beyond ARPACK's
    reach.  ``seed`` seeds ARPACK's start vector.
    """

    dense_cutoff: int = 0
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
    pivots kept down to a 0.1 ratio) and without panel blocking, which
    cuts the resident-set growth of a vector pencil's factorization by
    about 30% (see the module notes).  The factor is dropped when the block
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
            panel_size=1, options=dict(SymmetricMode=True),
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


def gradient_part(pencil: HermitianPencil, x: np.ndarray) -> np.ndarray:
    """``G S^{-1} C^H x``, the part of a vector pencil's fields ``x`` that
    the gradient projector ``P = I - G S^{-1} C^H`` removes; ``S = C^H G``
    is factored here and freed on return.  Zeros where the pencil has no
    multipliers."""
    if not pencil.multiplier_dim:
        return np.zeros_like(x)
    divergence = pencil.constraint_block().conj().T.tocsr()
    with HermitianLU(divergence @ pencil.gradient) as lu:
        return pencil.gradient @ lu.solve(divergence @ x)


def _never(x):
    raise AssertionError("ARPACK's shift-invert mode never applies A")


def _arpack(op, mass, k, sigma, v0, ncv, tol):
    """ARPACK's shift-invert mode on ``op = (A - sigma B)^{-1}`` with the
    mass product ``mass`` (None for ``B = I``); pairs come back ascending."""
    n = v0.size
    w, vecs = spla.eigsh(
        spla.LinearOperator((n, n), matvec=_never, dtype=op.dtype), k=k,
        M=mass, sigma=sigma, which="LM", v0=v0, ncv=ncv, tol=tol, OPinv=op)
    # SciPy's complex ARPACK wrapper (_UnsymmetricArpackParams) keeps the
    # operators and the ARPACK workspace in a reference cycle.  It is still
    # in the young generations here, so a cheap collection frees it now
    # rather than at the next full collection.
    gc.collect(1)
    order = np.argsort(w)
    return w[order], vecs[:, order]


def _deflation(kernel, dual):
    """``f - kernel dual^H f``: ``f`` without its component along the
    columns of ``kernel``; ``dual`` is ``kernel`` for orthonormal columns
    and ``M kernel`` for M-orthonormal ones."""
    dual_h = dual.conj().T
    return lambda f: f - kernel @ (dual_h @ f)


def _shift_invert(pencil, k, sigma, v0, ncv, tol):
    """ARPACK on ``(K - sigma M)^{-1} M`` of a scalar pencil, without its
    known kernel, to relative accuracy ``tol``; pairs come back ascending.

    ARPACK sees the pencil ``(K, s M)`` with shift ``sigma / s``: the same
    shifted matrix and eigenvectors, eigenvalues divided by ``s``, and
    Ritz values of order 1 (see the module notes); ``s M x`` is formed as
    ``r (M (r x))`` so that no product goes subnormal.
    """
    K, M, kernel = pencil.K, pencil.M, pencil.kernel
    deflate = (lambda f: f) if kernel is None else _deflation(
        kernel, M @ kernel)
    r = 2.0 ** round(np.log2(abs(sigma)) / 2)
    s = r * r
    with HermitianLU(K - sigma * M) as lu:
        op = spla.LinearOperator(K.shape, dtype=lu.dtype,
                                 matvec=lambda b: deflate(lu.solve(b)))
        mass = spla.LinearOperator(
            M.shape, matvec=lambda x: r * (M @ (r * x)), dtype=M.dtype)
        w, vecs = _arpack(op, mass, k, sigma / s, deflate(v0), ncv, tol)
    return w * s, vecs


def _curl_shift_invert(pencil, k, sigma, v0, ncv, tol):
    """ARPACK on ``(H - sigma I)^{-1}`` of a vector pencil to relative
    accuracy ``tol``, seen as ``H / s`` with shift ``sigma / s`` like
    :func:`_shift_invert`; pairs ``(lambda, x)`` come back ascending, with
    ``x = (K - sigma M)^{-1} R^H y (lambda - sigma) / sqrt(lambda)``
    M-normalized."""
    R, deflate = pencil.curl, _deflation(pencil.kernel, pencil.kernel)
    Rh = R.T.tocsr()
    s = 4.0 ** round(np.log2(abs(sigma)) / 2)
    with HermitianLU(pencil.K - sigma * pencil.M) as lu:
        op = spla.LinearOperator(
            (R.shape[0],) * 2, dtype=lu.dtype,
            matvec=lambda f: deflate((R @ lu.solve(Rh @ f) - f) * (s / sigma)))
        w, y = _arpack(op, None, k, sigma / s, deflate(v0), ncv, tol)
        w = w * s
        return w, lu.solve(Rh @ y) * ((w - sigma) / np.sqrt(w))


def _tem_modes(pencil):
    """The harmonic fields made divergence-free by the gradient projector
    and M-orthonormal by the Cholesky factor of their Gram matrix."""
    h = pencil.harmonic - gradient_part(pencil, pencil.harmonic)
    gram = h.conj().T @ (pencil.M @ h)
    return la.solve_triangular(la.cholesky(gram), h.T, trans="T").T


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
    """Dense ``eigh`` of the ``k`` lowest pairs past the pencil's known
    kernel; for a vector pencil, of ``H = R M^{-1} R^H``, with the
    M-normalized eigenvectors ``x = M^{-1} R^H y / sqrt(lambda)``."""
    skip = 0 if pencil.kernel is None else pencil.kernel.shape[1]
    if pencil.curl is None:
        w, x = la.eigh(pencil.K.toarray(), pencil.M.toarray())
        return w[skip:skip + k], x[:, skip:skip + k]
    R = pencil.curl
    # SuperLU, unlike a dense Cholesky factor, gives the same bits at every
    # BLAS thread count
    with HermitianLU(pencil.M) as mass:
        w, y = la.eigh(R @ mass.solve(R.T.toarray()),
                       subset_by_index=[skip, skip + k - 1])
        return w, mass.solve(R.T @ (y / np.sqrt(w)))


def solve(pencil: HermitianPencil, k: int,
          opts: SolveOptions | None = None) -> Spectrum:
    """Smallest ``k`` eigenpairs, divergence-free for a vector pencil.

    Eigenvectors are normalized in the M-inner product; the returned pairs
    are checked via the pencil residual.  Two pairs beyond ``k`` (fewer on
    a pencil too small for them) are solved and checked too, then dropped.
    A vector pencil's TEM modes come first, with eigenvalue exactly 0; a
    scalar pencil's known kernel (scalar TE's constant) is never returned.
    ``k`` may be at most ``pencil.finite_count``; past ``finite_count - 2``
    the request runs dense.  ``opts`` defaults to ``SolveOptions()``.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    opts = opts if opts is not None else SolveOptions()
    K, M = pencil.K, pencil.M
    p, n = pencil.primal_dim, pencil.finite_count
    if pencil.multiplier_dim and pencil.curl is None:
        raise EigenSolveError("a constrained pencil needs its curl matrix")
    if k > n:
        raise EigenSolveError(
            f"requested {k} modes but the pencil of dimension {p} has only "
            f"{n} finite eigenvalues outside its known kernel"
        )

    # two pairs beyond the request are solved, gated and dropped: without
    # them a degenerate pair at the top of the request can come back as one
    # copy (see the module notes)
    dense = p <= opts.dense_cutoff or k > n - 2
    tem = pencil.tem_count
    # the TEM modes are built, and at least one pair past them is solved
    want = max(min(k + 2, n if dense else n - 2) - tem, 1)
    if dense:
        w, vecs = _dense(pencil, want)
    else:
        # the operator's dimension less the kernels projected out of it
        ncv = min(max(2 * want + 1, 20), n - tem)
        sigma = -_trace_scale(K, M)
        vector = pencil.curl is not None
        try:
            v0 = np.random.default_rng(opts.seed).standard_normal(
                pencil.curl.shape[0] if vector else p)
            w, vecs = (_curl_shift_invert if vector else _shift_invert)(
                pencil, want, sigma, v0, ncv, RESIDUAL_TOL / 100)
        except RuntimeError as exc:  # SuperLU or ARPACK
            raise EigenSolveError(
                f"shift-invert failed at shift {sigma:.6e}: {exc}"
            ) from exc
    if tem:
        w = np.concatenate([np.zeros(tem), w])
        vecs = np.hstack([_tem_modes(pencil), vecs])

    residuals = residual_gate(pencil, w, vecs)
    norms = np.sqrt(np.abs(np.einsum("ij,ij->j", vecs.conj(), M @ vecs)))
    norms = np.where(norms > 0, norms, 1.0)
    vecs = vecs / norms
    return Spectrum(eigenvalues=w[:k],
                    eigenvectors=vecs[:, :k].astype(complex, copy=False),
                    residuals=residuals[:k])

