"""Block-structured material tensors of a homogeneous anisotropic lossless medium.

The transverse permittivity/permeability blocks handled here have the
rotation-commuting form ``[[d, j*alpha], [-j*alpha, d]]`` with real ``d`` and
``alpha``; the longitudinal entries are positive reals.  Media of this shape
admit fully decoupled TE and TM mode families precisely when

* both transverse blocks are positive definite (``d > |alpha|``) together
  with positive longitudinal entries, and
* the decoupling constraint ``b*eps + a*mu == 0`` holds, where ``(eps, a)``
  and ``(mu, b)`` are the electric and magnetic ``(d, alpha)`` pairs.

:func:`require_independent` is the one gate that admits such a medium.

Under that constraint the two transverse blocks are inverses of each other up
to the scalar ``eps*mu + a*b``, which also sets the bulk dispersion
``k = omega * sqrt(eps0*mu0*(eps*mu + a*b))``.

All values are stored relative to the vacuum constants; cut-off wavenumbers
depend only on these ratios, so absolute scaling enters solely through
:func:`bulk_wavenumber` and field reconstruction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: CODATA 2022, as ``scipy.constants`` gives them (tested), without its import
VACUUM_PERMITTIVITY = 8.8541878188e-12
VACUUM_PERMEABILITY = 1.25663706127e-06

#: Relative tolerance on the decoupling residual |b*eps + a*mu|.
DECOUPLING_TOL = 1e-12
#: Relative tolerance for the rotation-commutation test.
COMMUTATION_TOL = 1e-12

VERDICT_INDEPENDENT = "IndependentModes"
VERDICT_NOT_GUARANTEED = "NotGuaranteed"


class MediumError(ValueError):
    """Material parameters violate a precondition."""


@dataclass(frozen=True)
class TransverseTensor:
    """Hermitian 2x2 block ``[[d, j*alpha], [-j*alpha, d]]``, ``d``/``alpha`` real.

    Storing only ``(d, alpha)`` makes shapes outside the rotation-commuting
    family unrepresentable; use :meth:`from_matrix` to validate and convert a
    raw matrix.
    """

    d: float
    alpha: float

    def as_matrix(self) -> np.ndarray:
        return np.array(
            [[self.d, 1j * self.alpha], [-1j * self.alpha, self.d]],
            dtype=complex,
        )

    @property
    def eigenvalues(self) -> tuple[float, float]:
        return (self.d - self.alpha, self.d + self.alpha)

    @property
    def is_positive_definite(self) -> bool:
        return self.d > abs(self.alpha)

    def determinant(self) -> float:
        return self.d * self.d - self.alpha * self.alpha

    def inverse(self) -> "TransverseTensor":
        det = self.determinant()
        scale = max(self.d * self.d, self.alpha * self.alpha)
        if abs(det) <= 1e-15 * max(scale, 1e-300):
            raise MediumError(f"singular transverse tensor (d={self.d}, alpha={self.alpha})")
        return TransverseTensor(self.d / det, -self.alpha / det)

    @classmethod
    def from_matrix(cls, m) -> "TransverseTensor":
        m = np.asarray(m, dtype=complex)
        if m.shape != (2, 2):
            raise MediumError("transverse tensor must be 2x2")
        scale = max(float(np.abs(m).max()), 1e-300)
        hermitian = np.abs(m - m.conj().T).max() <= COMMUTATION_TOL * scale
        if not (hermitian and commutes_with_rotation(m)):
            raise MediumError("matrix is not of the form [[d, j*a], [-j*a, d]]")
        return cls(float(m[0, 0].real), float(m[0, 1].imag))


@dataclass(frozen=True)
class MediumSpec:
    """Relative material parameters: transverse blocks plus zz entries."""

    eps_t: TransverseTensor
    eps_zz: float
    mu_t: TransverseTensor
    mu_zz: float

    # the four scalars in (eps, a; mu, b) order
    @property
    def eps(self) -> float:
        return self.eps_t.d

    @property
    def a(self) -> float:
        return self.eps_t.alpha

    @property
    def mu(self) -> float:
        return self.mu_t.d

    @property
    def b(self) -> float:
        return self.mu_t.alpha

    def decoupling_raw(self) -> float:
        """The quantity ``b*eps + a*mu`` that must vanish for decoupling."""
        return self.b * self.eps + self.a * self.mu

    @classmethod
    def isotropic(cls, eps: float = 1.0, mu: float = 1.0) -> "MediumSpec":
        return cls(TransverseTensor(eps, 0.0), eps, TransverseTensor(mu, 0.0), mu)

    @classmethod
    def from_json_dict(cls, obj: dict) -> "MediumSpec":
        try:
            e, m = obj["eps"], obj["mu"]
            return cls(
                TransverseTensor(float(e["d"]), float(e["alpha"])),
                float(e["zz"]),
                TransverseTensor(float(m["d"]), float(m["alpha"])),
                float(m["zz"]),
            )
        except (KeyError, TypeError) as exc:
            raise MediumError(f"bad medium object: {exc}") from exc

    def to_json_dict(self) -> dict:
        return {
            "eps": {"d": self.eps, "alpha": self.a, "zz": self.eps_zz},
            "mu": {"d": self.mu, "alpha": self.b, "zz": self.mu_zz},
        }


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of :func:`validate`; never raises, always reports."""

    positive_definite_ok: bool
    checks: dict
    decoupling_residual: float
    decoupling_raw: float
    verdict: str

    def to_json_dict(self) -> dict:
        return {
            "positive_definite_ok": self.positive_definite_ok,
            "checks": dict(self.checks),
            "decoupling_residual": self.decoupling_residual,
            "decoupling_raw": self.decoupling_raw,
            "verdict": self.verdict,
        }


def commutes_with_rotation(m) -> bool:
    """True if ``m`` commutes with the quarter-turn rotation [[0,-1],[1,0]].

    Equivalent to the closed-form criterion ``m[0,0] == m[1,1]`` and
    ``m[0,1] == -m[1,0]``, tested in max-norm relative to ``m``.
    """
    m = np.asarray(m, dtype=complex)
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])
    resid = np.abs(rot @ m - m @ rot).max()
    scale = max(float(np.abs(m).max()), 1e-300)
    return bool(resid <= COMMUTATION_TOL * scale)


def validate(spec: MediumSpec) -> ValidationReport:
    """Check positive definiteness and the decoupling constraint."""
    checks = {
        "eps_t_positive_definite": spec.eps_t.is_positive_definite,
        "mu_t_positive_definite": spec.mu_t.is_positive_definite,
        "eps_zz_positive": spec.eps_zz > 0,
        "mu_zz_positive": spec.mu_zz > 0,
    }
    pd_ok = all(checks.values())
    raw = spec.decoupling_raw()
    scale = max(abs(spec.b * spec.eps), abs(spec.a * spec.mu), 1e-300)
    residual = abs(raw) / scale if raw != 0.0 else 0.0
    verdict = (
        VERDICT_INDEPENDENT
        if pd_ok and residual <= DECOUPLING_TOL
        else VERDICT_NOT_GUARANTEED
    )
    return ValidationReport(
        positive_definite_ok=pd_ok,
        checks=checks,
        decoupling_residual=residual,
        decoupling_raw=raw,
        verdict=verdict,
    )


def require_independent(spec: MediumSpec) -> None:
    """The one admission gate: ``MediumError`` unless :func:`validate`
    finds the TE and TM modes of ``spec`` guaranteed independent."""
    report = validate(spec)
    if report.verdict != VERDICT_INDEPENDENT:
        raise MediumError(
            "medium does not guarantee independent TE/TM modes; "
            f"decoupling residual {report.decoupling_residual:.3e}"
        )


def product_scalar(spec: MediumSpec) -> float:
    """The scalar ``eps*mu + a*b`` of an admitted medium: eps_t @ mu_t
    equals this times identity.  It is positive, as positive definite
    blocks give ``|a*b| < eps*mu``."""
    require_independent(spec)
    return spec.eps * spec.mu + spec.a * spec.b


def bulk_wavenumber(spec: MediumSpec, omega: float) -> float:
    """``k = omega * sqrt(eps0*mu0*(eps*mu + a*b))`` in rad/m.  Rejects a
    medium :func:`require_independent` rejects, then an ``omega`` outside
    ``(0, inf)`` and a ``k`` whose square overflows."""
    product = product_scalar(spec)
    if not 0 < omega < math.inf:
        raise MediumError("omega must be positive and finite")
    # Python floats, which overflow to inf without a RuntimeWarning
    k = float(omega) * math.sqrt(
        VACUUM_PERMITTIVITY * VACUUM_PERMEABILITY * product)
    if k * k == math.inf:
        raise MediumError(f"omega {omega:.6e} rad/s is too large: the bulk "
                          "wavenumber squared overflows float64")
    return k
