"""The brute-force oracle the eigensolver tests check every path against:
a dense QZ solve of the saddle pencil with its infinite eigenvalues filtered
out; and the spurious gradients that the gate and diagnostic tests add to
solved vector modes."""

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp


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


def dense_saddle_bruteforce(pencil, k) -> np.ndarray:
    """Oracle path: full QZ on the saddle pencil, infinite eigenvalues filtered.

    A vector pencil is expanded to ``[[A, C], [C^H, 0]]`` against
    ``[[B, 0], [0, 0]]``; a plain one is taken as it is.  Returns the ``k``
    smallest finite eigenvalues (no eigenvectors); intended for
    cross-checking the production paths at small dimension.
    """
    K, M = pencil.K, pencil.M
    if pencil.multiplier_dim:
        C = pencil.constraint_block()
        K = sp.bmat([[K, C], [C.conj().T, None]])
        M = sp.block_diag([M, sp.csr_matrix(2 * (pencil.multiplier_dim,))])
    alpha, beta = la.eig(K.toarray(), M.toarray(), homogeneous_eigvals=True)[0]
    return _filter_finite(alpha, beta)[:k]


def with_gradient(pencil, vectors, fraction, seed=5):
    """``vectors`` of a vector pencil, each column plus a random gradient
    ``G y`` of ``fraction`` times its norm."""
    g = pencil.gradient @ np.random.default_rng(seed).standard_normal(
        (pencil.multiplier_dim, vectors.shape[1]))
    return vectors + g * (fraction * np.linalg.norm(vectors, axis=0)
                          / np.linalg.norm(g, axis=0))
