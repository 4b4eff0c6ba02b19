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
cross-product zeros on an annulus.  No analogous TE oracle exists for
``b != 0`` (the Neumann-type condition couples the tensor), so TE
correctness rests on the scalar/vector agreement plus the isotropic case.

The first few Bessel-J zeros are hardcoded from standard references and
re-verified by bisection on an independent series/asymptotic evaluation of
J_m, so a transcription slip cannot silently corrupt the oracle.
"""

from __future__ import annotations

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


_COMPLEMENTARY = (
    {Formulation.SCALAR_TE, Formulation.VECTOR_TE},
    {Formulation.SCALAR_TM, Formulation.VECTOR_TM},
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
    if {a.formulation, b.formulation} not in _COMPLEMENTARY:
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
    trend_eps: float

    def to_json_dict(self) -> dict:
        return {
            "formulation": self.formulation.value,
            "mesh_h": self.mesh_h.tolist(),
            "cutoffs": self.cutoffs.tolist(),
            "trends": list(self.trends),
            "trend_eps": self.trend_eps,
        }


def classify_trend(values: np.ndarray, trend_eps: float = TREND_EPS) -> str:
    """Non-strict monotonicity class of one mode's cut-off sequence."""
    v = np.asarray(values, dtype=float)
    if (v[1:] <= v[:-1] * (1 + trend_eps)).all():
        return TREND_DECREASING
    if (v[1:] >= v[:-1] * (1 - trend_eps)).all():
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
                      count: int, options: SolveOptions | None = None,
                      trend_eps: float = TREND_EPS) -> ConvergenceReport:
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
    trends = tuple(classify_trend(cutoffs[:, j], trend_eps)
                   for j in range(count))
    return ConvergenceReport(
        formulation=Formulation(formulation), mesh_h=np.asarray(hs),
        cutoffs=cutoffs, trends=trends, trend_eps=trend_eps,
    )


# ---------------------------------------------------------------------------
# Bessel machinery for the disc / annulus oracles


#: Positive zeros j_{m,n} of J_m from standard references (12 digits),
#: re-verified against the series evaluation below by the test suite.
BESSEL_J_ZEROS = {
    (0, 1): 2.40482555769577,
    (1, 1): 3.83170597020751,
    (2, 1): 5.13562230184068,
    (0, 2): 5.52007811028631,
}

_SERIES_SWITCH = 12.0


def bessel_j(m: int, x: float) -> float:
    """J_m(x) for integer m >= 0 and x > 0, independent of scipy.special.

    Ascending power series up to the switch point, Hankel asymptotic
    expansion beyond; both are accurate well past the zeros this module
    verifies.
    """
    if x < _SERIES_SWITCH:
        half = 0.5 * x
        term = half**m / math.factorial(m)
        total = term
        for k in range(1, 80):
            term *= -(half * half) / (k * (k + m))
            total += term
            if abs(term) < 1e-18 * max(abs(total), 1e-30):
                break
        return total
    mu = 4.0 * m * m
    inv = 1.0 / (8.0 * x)
    p = 1.0
    q = 0.0
    factor = 1.0
    for k in range(1, 10):
        factor *= (mu - (2 * k - 1) ** 2) * inv / k
        if k % 2 == 1:
            q += factor if (k // 2) % 2 == 0 else -factor
        else:
            p += -factor if (k // 2) % 2 == 1 else factor
    chi = x - (0.5 * m + 0.25) * math.pi
    return math.sqrt(2.0 / (math.pi * x)) * (p * math.cos(chi)
                                             - q * math.sin(chi))


def bisect_root(f, lo: float, hi: float, rtol: float = 1e-12) -> float:
    """Plain bisection of a bracketed sign change, to relative width rtol."""
    flo, fhi = f(lo), f(hi)
    if not (np.isfinite(flo) and np.isfinite(fhi)) or flo * fhi > 0:
        raise CrossValError(f"root not bracketed on [{lo}, {hi}]")
    if flo == 0:
        return lo
    if fhi == 0:
        return hi
    while hi - lo > rtol * hi:
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        if not np.isfinite(fmid):
            raise CrossValError(f"function not finite at {mid}")
        if fmid == 0:
            return mid
        if flo * fmid < 0:
            hi = mid
        else:
            lo, flo = mid, fmid
    return 0.5 * (lo + hi)


def _scan_zeros(f, start: float, stop: float, step: float):
    """All roots of f in (start, stop) located by stepping + bisection."""
    zeros = []
    x = start
    fx = f(x)
    if not np.isfinite(fx):
        raise CrossValError(f"function not finite at scan start {start}")
    while x < stop:
        nxt = min(x + step, stop)
        fn = f(nxt)
        if not np.isfinite(fn):
            raise CrossValError(f"function not finite at {nxt}")
        if fx == 0.0:
            zeros.append(x)
        elif fx * fn < 0:
            zeros.append(bisect_root(f, x, nxt))
        x, fx = nxt, fn
    return zeros


def bessel_j_zero(m: int, n: int) -> float:
    """n-th positive zero of J_m; hardcoded where tabulated, else bisected."""
    if (m, n) in BESSEL_J_ZEROS:
        return BESSEL_J_ZEROS[(m, n)]
    zeros = _bessel_zeros_upto(m, max(4.0, m + (n + 2) * math.pi))
    while len(zeros) < n:
        zeros = _bessel_zeros_upto(m, m + (len(zeros) + n + 4) * math.pi)
    return zeros[n - 1]


def _bessel_zeros_upto(m: int, x_max: float):
    start = max(0.5, 0.5 * m)  # J_m > 0 on (0, first zero), which exceeds m
    return _scan_zeros(lambda x: bessel_j(m, x), start, x_max, 0.25)


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

    Zeros of azimuthal order m >= 1 are doubled (cos/sin degeneracy).
    """
    if radius <= 0:
        raise CrossValError("radius must be positive")
    x_max = 4.0
    while True:
        values = []
        m = 0
        while True:
            family = []
            n = 1
            while True:
                z = bessel_j_zero(m, n)
                if z > x_max:
                    break
                family.append(z)
                n += 1
            if not family:
                break
            mult = 1 if m == 0 else 2
            values.extend(z for z in family for _ in range(mult))
            m += 1
        if len(values) >= count:
            values.sort()
            return _tm_scale(spec) * np.asarray(values[:count]) / radius
        x_max *= 1.6


def oracle_tm_annulus(r1: float, r2: float, spec: MediumSpec,
                      count: int) -> np.ndarray:
    """Exact TM cut-offs of an annulus from Bessel cross-product zeros.

    Roots k of ``J_m(k r1) Y_m(k r2) - J_m(k r2) Y_m(k r1)`` are found by a
    bracketed scan plus bisection (1e-12 relative); m >= 1 roots doubled.
    A bracketing failure raises instead of silently skipping roots.
    """
    # imported here, its one use: no command line path needs it
    from scipy.special import jv, yv

    if not 0 < r1 < r2:
        raise CrossValError("need 0 < r1 < r2")
    spacing = math.pi / (r2 - r1)
    k_start = 0.05 * spacing
    step = spacing / 16.0
    k_max = spacing * 2.0
    while True:
        values = []
        m = 0
        while True:
            def cross(k, m=m):
                return (jv(m, k * r1) * yv(m, k * r2)
                        - jv(m, k * r2) * yv(m, k * r1))

            zeros = _scan_zeros(cross, k_start, k_max, step)
            if not zeros:
                break
            mult = 1 if m == 0 else 2
            values.extend(z for z in zeros for _ in range(mult))
            m += 1
        if len(values) >= count:
            values.sort()
            return _tm_scale(spec) * np.asarray(values[:count])
        k_max *= 1.6
