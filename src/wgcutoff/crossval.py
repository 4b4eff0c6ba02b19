"""Cross-validation of the four formulations and independent analytic oracles.

The scalar and vector routes must agree on every nonzero cut-off (their
spectra coincide in exact arithmetic), and scalar cut-offs computed with
conforming elements approach the true values from above, hence decrease
monotonically under nested refinement.  Both facts become executable checks
here.

For TM formulations the antisymmetric imaginary part of the transverse
permittivity drops out of the interior operator and the Dirichlet boundary
condition is tensor-free, so the exact spectrum is that of
``-(eps/eps_zz) * Laplace`` with Dirichlet data.  That yields closed-form
oracles: sine modes on a rectangle, Bessel zeros on a disc, Bessel
cross-product zeros on an annulus.  For TE the gyrotropic part ``b`` of
the transverse permeability also drops out of the interior operator
(``div(mu_t grad h) = mu Laplace h``) but enters the natural boundary
condition as the oblique derivative ``mu d_n h + j b d_t h = 0``.  On a
rectangle that condition does not separate, so no closed form exists for
``b != 0``; on discs and annuli ``h = Z_m(kappa r) exp(j m theta)``
separates it, and the cut-offs are roots of Bessel determinants.  Those TE
oracles are not implemented here, so TE correctness rests on the
scalar/vector agreement plus the isotropic case.

The Bessel zeros and cross-product roots come from ``scipy.special`` and
``scipy.optimize``, imported inside the oracles so that no command line
path loads them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .eigensolve import SolveOptions
from .medium import MediumSpec
from .modes import SOLVERS, Formulation, ModeSolution

TREND_EPS = 1e-12  # non-strict monotonicity tolerance

TREND_DECREASING = "decreasing"
TREND_INCREASING = "increasing"
TREND_SWING = "swing"


class CrossValError(ValueError):
    """Mismatched inputs or a failed oracle computation."""


# ---------------------------------------------------------------------------
# spectrum comparison (the two routes must agree on nonzero cut-offs)


@dataclass(frozen=True)
class ComparisonReport:
    formulation_a: Formulation
    formulation_b: Formulation
    cutoffs_a: np.ndarray
    cutoffs_b: np.ndarray
    rel_diffs: np.ndarray
    passed: np.ndarray
    rtol: float

    @property
    def all_passed(self) -> bool:
        return bool(self.passed.all())

    def to_json_dict(self) -> dict:
        return {
            "formulation_a": self.formulation_a.value,
            "formulation_b": self.formulation_b.value,
            "cutoffs_a": self.cutoffs_a.tolist(),
            "cutoffs_b": self.cutoffs_b.tolist(),
            "rel_diffs": self.rel_diffs.tolist(),
            "passed": [bool(p) for p in self.passed],
            "rtol": self.rtol,
            "all_passed": self.all_passed,
        }


#: The scalar/vector partners, TE first: the pairs ``compare_spectra``
#: accepts, in the order ``wgcutoff crossval`` reports them.
PAIRS = (
    (Formulation.SCALAR_TE, Formulation.VECTOR_TE),
    (Formulation.SCALAR_TM, Formulation.VECTOR_TM),
)


def compare_spectra(a: ModeSolution, b: ModeSolution, count: int,
                    rtol: float) -> ComparisonReport:
    """Pair nonzero cut-offs of complementary formulations by ascending index.

    Near-zero modes (the TEM modes of the vector route; the scalar route
    cannot stimulate them) are excluded *before* pairing, so the index
    alignment is meaningful.  Degenerate clusters are compared as sorted
    multisets, which ascending pairing provides for free.
    """
    if not 0 < rtol < np.inf:
        raise CrossValError(f"rtol must be positive and finite, got {rtol}")
    if count < 1:
        raise CrossValError(f"count must be at least 1, got {count}")
    if {a.formulation, b.formulation} not in map(set, PAIRS):
        raise CrossValError(
            f"formulations {a.formulation.value} and {b.formulation.value} "
            "are not a scalar/vector pair of the same polarization"
        )
    if a.mesh is not b.mesh and not np.array_equal(a.mesh.nodes, b.mesh.nodes):
        raise CrossValError("solutions come from different meshes")
    if a.medium != b.medium:
        raise CrossValError("solutions come from different media")
    ka = a.nonzero_cutoffs
    kb = b.nonzero_cutoffs
    if ka.size < count or kb.size < count:
        raise CrossValError(
            f"need {count} nonzero modes, have {ka.size} and {kb.size}"
        )
    ka, kb = ka[:count], kb[:count]
    rel = np.abs(ka - kb) / ka
    return ComparisonReport(
        formulation_a=a.formulation, formulation_b=b.formulation,
        cutoffs_a=ka, cutoffs_b=kb, rel_diffs=rel,
        passed=rel <= rtol, rtol=rtol,
    )


# ---------------------------------------------------------------------------
# refinement trends


@dataclass(frozen=True)
class ConvergenceReport:
    formulation: Formulation
    mesh_h: np.ndarray       # (levels,)
    cutoffs: np.ndarray      # (levels, count)
    trends: tuple            # per tracked mode


def classify_trend(values: np.ndarray) -> str:
    """Non-strict monotonicity class of one mode's cut-off sequence."""
    v = np.asarray(values, dtype=float)
    if (v[1:] <= v[:-1] * (1 + TREND_EPS)).all():
        return TREND_DECREASING
    if (v[1:] >= v[:-1] * (1 - TREND_EPS)).all():
        return TREND_INCREASING
    return TREND_SWING


def check_nested(mesh_family) -> None:
    """Verify the family is a uniform-refinement chain."""
    for coarse, fine in zip(mesh_family, mesh_family[1:]):
        ok = (fine.num_triangles == 4 * coarse.num_triangles
              and fine.num_nodes == coarse.num_nodes + coarse.num_edges
              and np.array_equal(fine.nodes[:coarse.num_nodes], coarse.nodes))
        if not ok:
            raise CrossValError("mesh family is not a nested refinement chain")


def convergence_trend(formulation: Formulation, mesh_family, spec: MediumSpec,
                      count: int, options: SolveOptions | None = None
                      ) -> ConvergenceReport:
    """Track the first ``count`` nonzero cut-offs across a nested family.

    Scalar formulations are expected to come out ``decreasing`` for every
    mode (conforming eigenvalues bound from above); vector trends are
    reported but unconstrained, they may approach from either side or swing.
    """
    if len(mesh_family) < 3:
        raise CrossValError("need at least 3 nested meshes to classify a trend")
    check_nested(mesh_family)
    solver = SOLVERS[Formulation(formulation)]
    rows = []
    hs = []
    for mesh in mesh_family:
        solution = solver(mesh, spec, count, options)
        rows.append(solution.nonzero_cutoffs[:count])
        hs.append(mesh.h)
    cutoffs = np.vstack(rows)
    trends = tuple(classify_trend(cutoffs[:, j]) for j in range(count))
    return ConvergenceReport(
        formulation=Formulation(formulation), mesh_h=np.asarray(hs),
        cutoffs=cutoffs, trends=trends,
    )


# ---------------------------------------------------------------------------
# TM oracles


def _tm_scale(spec: MediumSpec) -> float:
    return math.sqrt(spec.eps / spec.eps_zz)


def oracle_tm_rectangle(a: float, b: float, spec: MediumSpec,
                        count: int) -> np.ndarray:
    """Exact TM cut-offs of an a-by-b rectangle:
    ``sqrt(eps/eps_zz) * pi * hypot(m/a, n/b)`` over m, n >= 1."""
    if a <= 0 or b <= 0:
        raise CrossValError("rectangle sides must be positive")
    scale = _tm_scale(spec) * math.pi
    mmax = count + 1 + int(a / b * count) + 2
    nmax = count + 1 + int(b / a * count) + 2
    values = [
        scale * math.hypot(m / a, n / b)
        for m in range(1, mmax + 1)
        for n in range(1, nmax + 1)
    ]
    values.sort()
    return np.asarray(values[:count])


def oracle_tm_disc(radius: float, spec: MediumSpec, count: int) -> np.ndarray:
    """Exact TM cut-offs of a disc: ``sqrt(eps/eps_zz) * j_{m,n} / R``.

    Zeros of azimuthal order m >= 1 are doubled (cos/sin degeneracy).  The
    ``count``-th zero of J_0 bounds the answer and ``j_{m,1}`` grows with m,
    so orders are taken until one has no zero below that bound.
    """
    from scipy.special import jn_zeros

    if radius <= 0:
        raise CrossValError("radius must be positive")
    n = max(count, 1)  # jn_zeros wants one zero at least
    bound = jn_zeros(0, n)[-1]
    values = []
    for m in itertools.count():
        zeros = jn_zeros(m, n)
        zeros = zeros[zeros <= bound]
        if not zeros.size:
            break
        values.extend(np.repeat(zeros, 1 if m == 0 else 2))
    return _tm_scale(spec) * np.sort(values)[:count] / radius


def oracle_tm_annulus(r1: float, r2: float, spec: MediumSpec,
                      count: int) -> np.ndarray:
    """Exact TM cut-offs of an annulus from Bessel cross-product zeros.

    Roots k of ``J_m(k r1) Y_m(k r2) - J_m(k r2) Y_m(k r1)`` are bracketed
    by the sign changes on a grid of step ``pi / (16 (r2 - r1))`` and
    refined by Brent's method; m >= 1 roots doubled.  A value that is not
    finite on the grid raises instead of silently skipping roots.
    """
    from scipy.optimize import brentq
    from scipy.special import jv, yv

    def cross(k, m):
        return jv(m, k * r1) * yv(m, k * r2) - jv(m, k * r2) * yv(m, k * r1)

    if not 0 < r1 < r2:
        raise CrossValError("need 0 < r1 < r2")
    spacing = math.pi / (r2 - r1)
    k_max = spacing * 2.0
    while True:
        grid = np.append(np.arange(0.05 * spacing, k_max, spacing / 16.0),
                         k_max)
        values = []
        for m in itertools.count():
            f = cross(grid, m)
            if not np.isfinite(f).all():
                raise CrossValError(f"cross-product not finite at order {m}")
            negative = np.signbit(f)
            zeros = [brentq(cross, grid[i], grid[i + 1], args=(m,),
                            xtol=1e-15 * spacing)
                     for i in np.flatnonzero(negative[:-1] != negative[1:])]
            if not zeros:
                break
            values.extend(np.repeat(zeros, 1 if m == 0 else 2))
        if len(values) >= count:
            return _tm_scale(spec) * np.sort(values)[:count]
        k_max *= 1.6
