"""Mode solving, field reconstruction and TEM/multiplier diagnostics.

Four formulations compute cut-off wavenumbers of the same waveguide:

* ``scalar_te`` - longitudinal magnetic field, Neumann-natural P1 problem.
  Its constant null vector (no mode) is the pencil's known kernel and is
  never computed.
* ``scalar_tm`` - longitudinal electric field, Dirichlet P1 problem.
* ``vector_te`` / ``vector_tm`` - transverse field with edge elements and a
  divergence multiplier.  These carry TEM modes too: on a cross-section
  whose boundary has ``B`` connected components the solve constructs
  ``B - 1`` of them (the pencil's ``tem_count``), with cut-off exactly 0,
  and they are reported ahead of the nonzero spectrum.

Transverse/longitudinal companions of a solved mode follow from the solved
eigenfunction and the operating frequency; below cut-off the propagation
constant takes the decaying branch ``k_z = -j sqrt(k_t^2 - k^2)``.  One
path serves all four routes, TE and TM being duals.  The multiplier
diagnostics measure the gradient left in each vector mode with
``eigensolve.gradient_part``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import eigensolve, femcore
from .eigensolve import SolveOptions
from .medium import (
    VACUUM_PERMEABILITY,
    VACUUM_PERMITTIVITY,
    MediumSpec,
    TransverseTensor,
    bulk_wavenumber,
    require_independent,
)
from .mesh import Mesh


class Formulation(str, enum.Enum):
    SCALAR_TE = "scalar_te"
    SCALAR_TM = "scalar_tm"
    VECTOR_TE = "vector_te"
    VECTOR_TM = "vector_tm"

    @property
    def is_vector(self) -> bool:
        return self in (Formulation.VECTOR_TE, Formulation.VECTOR_TM)


@dataclass(frozen=True)
class FieldFrame:
    """Cross-sectional field samples: per-triangle values."""

    label: str  # 'e_z', 'h_z', 'e_t' or 'h_t'
    samples: np.ndarray  # (T,) complex or (T, 2) complex
    omega: float | None = None
    k_z: complex | None = None


@dataclass(frozen=True)
class ModeSolution:
    """Sorted eigenvalues plus eigenvectors for one formulation on one mesh.

    ``eigenvalues`` ascend; the first ``tem_count`` (the pencil's) entries
    are the TEM modes, eigenvalue 0.  ``dof_vectors`` columns align with
    them and live on the formulation's retained dofs, the nodes or edges
    where the bool mask ``pencil.retained`` is set.
    """

    formulation: Formulation
    eigenvalues: np.ndarray
    dof_vectors: np.ndarray
    residuals: np.ndarray
    mesh: Mesh
    medium: MediumSpec
    pencil: femcore.HermitianPencil

    @property
    def tem_count(self) -> int:
        return self.pencil.tem_count

    @cached_property
    def cutoffs(self) -> np.ndarray:
        """``k_t = +sqrt(lambda)``, a negative rounding residue read as 0."""
        return np.sqrt(np.clip(self.eigenvalues, 0.0, None))

    @property
    def nonzero_cutoffs(self) -> np.ndarray:
        return self.cutoffs[self.tem_count:]

    @cached_property
    def _geometry(self) -> tuple:
        """What the fields of every mode read of the element geometry, from
        one pass on first use: the hat gradients of a scalar solution, the
        centroid edge basis and the edge curls of a vector one."""
        if self.formulation.is_vector:
            return femcore.edge_geometry(self.mesh)[2:]
        return femcore.triangle_geometry(self.mesh)[1:]

    @property
    def centroid_basis(self) -> np.ndarray:
        """(T, 3, 2) basis values that turn a mode into per-triangle vectors:
        the field of a vector mode, the gradient of a scalar one."""
        return self._geometry[0]

    @property
    def edge_curls(self) -> np.ndarray:
        """(T, 3) scalar curls of the local edge basis of a vector solution."""
        return self._geometry[1]

    @cached_property
    def full_vectors(self) -> np.ndarray:
        """``dof_vectors`` on every node (scalar) or edge (vector) of the
        mesh, zero where a dof was eliminated; scattered on first use."""
        retained = self.pencil.retained
        full = np.zeros((retained.size, self.dof_vectors.shape[1]), complex)
        full[retained] = self.dof_vectors
        return full

    def full_vector(self, index: int) -> np.ndarray:
        """Column ``index`` of ``full_vectors``; an ``IndexError`` outside
        ``range(n)`` of the modes, where -1 would pick the last one."""
        n = self.cutoffs.size
        if not 0 <= index < n:
            raise IndexError(f"mode index {index} outside range({n})")
        return self.full_vectors[:, index]


@dataclass(frozen=True)
class TemReport:
    expected: int
    actual: int

    @property
    def passed(self) -> bool:
        return self.expected == self.actual


@dataclass(frozen=True)
class MultiplierReport:
    """Per-mode multiplier health.

    The multiplier ``zeta = lambda S^{-1} C^H xi`` of the saddle pencil
    enters its equation ``A xi + C zeta = lambda B xi`` only through its
    gradient, and for an exact divergence-free mode that term vanishes
    (TE: the multiplier is zero; TM: it is constant, and pinned to zero).
    Values are ``|B (xi - P xi)| / |B xi|`` with the gradient projector
    ``P = I - G S^{-1} C^H``, formed as ``xi - P xi = G S^{-1} C^H xi``:
    as ``C zeta = lambda B (xi - P xi)``, the multiplier term against the
    mass term of the same equation.  They are dimensionless, so they read
    the same at every absolute length scale.
    """

    formulation: Formulation
    values: np.ndarray


_ASSEMBLERS = {
    Formulation.SCALAR_TE: femcore.assemble_scalar_te,
    Formulation.SCALAR_TM: femcore.assemble_scalar_tm,
    Formulation.VECTOR_TE: femcore.assemble_vector_te,
    Formulation.VECTOR_TM: femcore.assemble_vector_tm,
}


#: Entries within this fraction of a column's largest magnitude tie for its
#: phase pivot.  On rotationally symmetric meshes the copies of the largest
#: entry differed by up to 2.6e-12 of it and distinct entries by at least
#: 9e-5 (all four routes, dense and shift-invert, on two annuli, a coax, a
#: disc, a rectangle and a square).
_PIVOT_TIE = 1e-8


def _phase(columns: np.ndarray) -> np.ndarray:
    """Unit factor per column that makes its pivot real positive.

    The pivot is the lowest-index entry whose magnitude lies within
    ``_PIVOT_TIE`` of the largest: on a symmetric mesh the largest entry
    has copies equal to rounding, and taking the largest of them would
    let the last bits of the eigenvector pick the phase.
    """
    magnitude = np.abs(columns)
    first = np.argmax(magnitude >= (1 - _PIVOT_TIE) * magnitude.max(axis=0),
                      axis=0)
    pivot = columns[first, np.arange(columns.shape[1])]
    size = np.abs(pivot)
    return np.where(size > 0, np.conj(pivot) / np.where(size > 0, size, 1.0), 1.0)


def _pencil(formulation: Formulation, mesh: Mesh,
            spec: MediumSpec) -> femcore.HermitianPencil:
    """The formulation's pencil, assembled once the medium verdict holds."""
    require_independent(spec)
    return _ASSEMBLERS[formulation](mesh, spec)


def _solve_formulation(mesh: Mesh, spec: MediumSpec, q: int,
                       formulation: Formulation,
                       options: SolveOptions | None) -> ModeSolution:
    if q < 1:
        raise ValueError("q must be at least 1")
    pencil = _pencil(formulation, mesh, spec)
    # a vector solve returns its pencil's TEM modes first, with eigenvalue
    # exactly 0; scalar TE's constant is never computed
    spectrum = eigensolve.solve(pencil, q + pencil.tem_count, options)
    vectors = spectrum.eigenvectors
    return ModeSolution(
        formulation=formulation,
        eigenvalues=spectrum.eigenvalues,
        dof_vectors=vectors * _phase(vectors),
        residuals=spectrum.residuals,
        mesh=mesh,
        medium=spec,
        pencil=pencil,
    )


def solve_te_scalar(mesh, spec, q, options=None) -> ModeSolution:
    return _solve_formulation(mesh, spec, q, Formulation.SCALAR_TE, options)


def solve_tm_scalar(mesh, spec, q, options=None) -> ModeSolution:
    return _solve_formulation(mesh, spec, q, Formulation.SCALAR_TM, options)


def solve_te_vector(mesh, spec, q, options=None) -> ModeSolution:
    return _solve_formulation(mesh, spec, q, Formulation.VECTOR_TE, options)


def solve_tm_vector(mesh, spec, q, options=None) -> ModeSolution:
    return _solve_formulation(mesh, spec, q, Formulation.VECTOR_TM, options)


SOLVERS = {
    Formulation.SCALAR_TE: solve_te_scalar,
    Formulation.SCALAR_TM: solve_tm_scalar,
    Formulation.VECTOR_TE: solve_te_vector,
    Formulation.VECTOR_TM: solve_tm_vector,
}


def restore(formulation: Formulation, mesh: Mesh, spec: MediumSpec, q: int,
            eigenvalues: np.ndarray, dof_vectors: np.ndarray) -> ModeSolution:
    """The solution that ``SOLVERS[formulation]`` returned for ``q`` modes,
    rebuilt from its eigenvalues and eigenvectors after every check the
    solve runs on it.

    The medium verdict is checked, the pencil assembled again, the arrays
    checked for dtype and shape against it, and the eigenpairs gated on
    the pencil residual, whose values become the solution's residuals.
    The TEM count is the pencil's, never stored, and ``q`` modes must
    follow the TEM modes, as the solve returns them: ascending from TEM
    eigenvalues of exactly 0, with M-orthonormal vectors.  Raises
    ``MediumError``, ``ValueError`` or ``EigenSolveError`` where a check fails.
    """
    pencil = _pencil(formulation, mesh, spec)
    n = eigenvalues.shape[0] if eigenvalues.ndim == 1 else -1
    expected = (
        (eigenvalues, np.float64, (n,)),
        (dof_vectors, np.complex128, (pencil.primal_dim, n)),
    )
    for array, dtype, shape in expected:
        if array.dtype != dtype or array.shape != shape:
            raise ValueError(f"stored {array.dtype} {array.shape} array, "
                             f"expected {np.dtype(dtype)} {shape}")
    if n != q + pencil.tem_count:
        raise ValueError(f"stored {n} modes, expected {q} past "
                         f"{pencil.tem_count} TEM modes")
    if (np.diff(eigenvalues) < 0).any():
        raise ValueError("stored eigenvalues do not ascend")
    if eigenvalues[:pencil.tem_count].any():
        raise ValueError("stored TEM eigenvalues are not 0")
    gram = dof_vectors.conj().T @ (pencil.M @ dof_vectors)
    if not np.abs(gram - np.eye(n)).max() <= eigensolve.RESIDUAL_TOL:
        raise ValueError("stored vectors are not M-orthonormal")
    residuals = eigensolve.residual_gate(pencil, eigenvalues, dof_vectors)
    return ModeSolution(
        formulation=formulation,
        eigenvalues=eigenvalues,
        dof_vectors=dof_vectors,
        residuals=residuals,
        mesh=mesh,
        medium=spec,
        pencil=pencil,
    )


# ---------------------------------------------------------------------------
# field reconstruction


def _zcross(v: np.ndarray) -> np.ndarray:
    """z x v for an array of transverse vectors (..., 2)."""
    return np.stack([-v[..., 1], v[..., 0]], axis=-1)


def _apply_tensor(t: TransverseTensor, v: np.ndarray) -> np.ndarray:
    vx, vy = v[..., 0], v[..., 1]
    return np.stack([t.d * vx + 1j * t.alpha * vy,
                     -1j * t.alpha * vx + t.d * vy], axis=-1)


class _Polarization(NamedTuple):
    """The medium terms and sign of one polarization's field formulas."""

    tensor: TransverseTensor
    zz: float
    vacuum: float
    sign: float


def _polarization(solution: ModeSolution) -> _Polarization:
    """TE's terms; TM's are TE's with ``(mu, h)`` swapped for ``(eps, e)``
    and the sign flipped (TE and TM are duals)."""
    spec = solution.medium
    if solution.formulation in (Formulation.SCALAR_TE, Formulation.VECTOR_TE):
        return _Polarization(spec.mu_t, spec.mu_zz, VACUUM_PERMEABILITY, 1.0)
    return _Polarization(spec.eps_t, spec.eps_zz, VACUUM_PERMITTIVITY, -1.0)


def _nodal_gradients(solution: ModeSolution, nodal: np.ndarray) -> np.ndarray:
    """Per-triangle constant gradient of a P1 field given on all nodes."""
    return np.einsum("tl,tlk->tk", nodal[solution.mesh.triangles],
                     solution.centroid_basis)


def _mode(solution: ModeSolution, mode_index: int, omega: float):
    """The polarization, ``k_t``, ``k_z`` and full field of a checked mode;
    only a TEM mode may have a zero cut-off."""
    full = solution.full_vector(mode_index)
    k = bulk_wavenumber(solution.medium, omega)
    kt = float(solution.cutoffs[mode_index])
    if kt <= 0 and mode_index >= solution.tem_count:
        raise ValueError("reconstruction needs a nonzero cut-off mode")
    if k >= kt:
        kz = complex(np.sqrt(k * k - kt * kt))
    else:
        kz = -1j * np.sqrt(kt * kt - k * k)  # decay toward +z below cut-off
    return _polarization(solution), kt, kz, full


def _transverse(solution: ModeSolution, mode_index: int, omega: float):
    """``(e_t, h_t)`` of a mode of any route; see :func:`transverse_companion`."""
    pol, kt, kz, full = _mode(solution, mode_index, omega)
    if solution.formulation.is_vector:
        solved = transverse_field(solution, mode_index)
        companion = (kz / (pol.sign * omega)) * _zcross(
            _apply_tensor(pol.tensor.inverse(), solved) / pol.vacuum)
    else:
        grad = _nodal_gradients(solution, full)
        companion = (-1j * kz / kt**2) * grad
        solved = (pol.sign * 1j * omega / kt**2) * _zcross(
            pol.vacuum * _apply_tensor(pol.tensor, grad))
    et, ht = (solved, companion) if pol.sign > 0 else (companion, solved)
    return (
        FieldFrame("e_t", et, omega, kz),
        FieldFrame("h_t", ht, omega, kz),
    )


def reconstruct_from_hz(solution: ModeSolution, mode_index: int, omega: float):
    """Transverse fields of a scalar-TE mode at operating frequency ``omega``.

    ``e_t = (j w / k_t^2) z x (mu_t grad h_z)`` and
    ``h_t = (-j k_z / k_t^2) grad h_z`` with the absolute permeability.
    """
    if solution.formulation is not Formulation.SCALAR_TE:
        raise ValueError("expected a scalar TE solution")
    return _transverse(solution, mode_index, omega)


def reconstruct_from_ez(solution: ModeSolution, mode_index: int, omega: float):
    """Transverse fields of a scalar-TM mode.

    ``e_t = (-j k_z / k_t^2) grad e_z`` and
    ``h_t = (-j w / k_t^2) z x (eps_t grad e_z)`` with the absolute
    permittivity.
    """
    if solution.formulation is not Formulation.SCALAR_TM:
        raise ValueError("expected a scalar TM solution")
    return _transverse(solution, mode_index, omega)


def transverse_field(solution: ModeSolution, mode_index: int) -> np.ndarray:
    """Edge expansion of a vector mode evaluated at triangle centroids."""
    if not solution.formulation.is_vector:
        raise ValueError("expected a vector-formulation solution")
    return np.einsum("tl,tlk->tk",
                     solution.full_vector(mode_index)[solution.mesh.tri_edges],
                     solution.centroid_basis)


def transverse_companion(solution: ModeSolution, mode_index: int,
                         omega: float):
    """Both transverse fields of a mode of any route (TEM modes included).

    A scalar route's fields are those of :func:`reconstruct_from_hz` or
    :func:`reconstruct_from_ez`.  A vector route's solved field is the edge
    expansion itself; its companion follows from the transverse coupling,
    which stays finite at zero cut-off:
    ``h_t = k_z z x (mu_t^-1 e_t) / omega`` for TE and
    ``e_t = -k_z z x (eps_t^-1 h_t) / omega`` for TM, in absolute units.
    """
    return _transverse(solution, mode_index, omega)


def reconstruct_longitudinal(solution: ModeSolution, mode_index: int,
                             omega: float) -> FieldFrame:
    """Per-triangle longitudinal companion of a nonzero vector mode.

    The per-triangle scalar curl of the edge expansion gives ``h_z`` from a
    TE mode (``j curl(e_t) / (w mu0 mu_zz)``) or ``e_z`` from a TM mode
    (``curl(h_t) / (j w eps0 eps_zz)``).  TEM modes are rejected: their
    longitudinal fields vanish identically.
    """
    if not solution.formulation.is_vector:
        raise ValueError("expected a vector-formulation solution")
    pol, _, kz, full = _mode(solution, mode_index, omega)
    if mode_index < solution.tem_count:
        raise ValueError("TEM mode has no longitudinal field")
    curl = np.einsum("tl,tl->t", full[solution.mesh.tri_edges],
                     solution.edge_curls)
    samples = pol.sign * 1j * curl / (omega * pol.vacuum * pol.zz)
    return FieldFrame("h_z" if pol.sign > 0 else "e_z", samples, omega, kz)


# ---------------------------------------------------------------------------
# diagnostics


def verify_tem(solution: ModeSolution) -> TemReport:
    """TEM count must equal boundary components minus one.  ``actual`` is
    the pencil's harmonic-field count, ``B - 1`` by construction, so the
    check is independent only with ROADMAP item 3 (c)'s inertia count."""
    if not solution.formulation.is_vector:
        raise ValueError("TEM verification applies to vector formulations")
    return TemReport(expected=solution.mesh.num_boundary_components - 1,
                     actual=solution.tem_count)


def multiplier_diagnostics(solution: ModeSolution) -> MultiplierReport:
    """``|B (xi - P xi)| / |B xi|`` per mode (see :class:`MultiplierReport`)."""
    if not solution.formulation.is_vector:
        raise ValueError("multiplier diagnostics apply to vector formulations")
    x, M = solution.dof_vectors, solution.pencil.M
    gradient = eigensolve.gradient_part(solution.pencil, x)
    return MultiplierReport(
        formulation=solution.formulation,
        values=(np.linalg.norm(M @ gradient, axis=0)
                / np.maximum(np.linalg.norm(M @ x, axis=0), 1e-300)))


def constraint_residuals(solution: ModeSolution) -> np.ndarray:
    """Per-mode ``|C^H xi| / |xi|``: the discrete divergence of each mode."""
    if not solution.formulation.is_vector:
        raise ValueError("constraint residuals apply to vector formulations")
    xi = solution.dof_vectors
    divergence = solution.pencil.constraint_block().conj().T
    return (np.linalg.norm(divergence @ xi, axis=0)
            / np.maximum(np.linalg.norm(xi, axis=0), 1e-300))
