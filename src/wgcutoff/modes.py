"""Mode solving, field reconstruction and TEM/multiplier diagnostics.

Four formulations compute cut-off wavenumbers of the same waveguide:

* ``scalar_te`` - longitudinal magnetic field, Neumann-natural P1 problem.
  Its constant eigenfunction (a spurious zero) is discarded before
  reporting.
* ``scalar_tm`` - longitudinal electric field, Dirichlet P1 problem.
* ``vector_te`` / ``vector_tm`` - transverse field with edge elements and a
  divergence multiplier.  These stimulate TEM modes too: on a cross-section
  whose boundary has ``B`` connected components, exactly ``B - 1`` near-zero
  cut-offs are expected, and they are reported (flagged by ``tem_count``)
  ahead of the nonzero spectrum.

Transverse/longitudinal companions of a solved mode follow from the solved
eigenfunction and the operating frequency; below cut-off the propagation
constant takes the decaying branch ``k_z = -j sqrt(k_t^2 - k^2)``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

import numpy as np

from . import eigensolve, femcore
from .eigensolve import SolveOptions, classify_near_zero
from .medium import (
    VACUUM_PERMEABILITY,
    VACUUM_PERMITTIVITY,
    VERDICT_INDEPENDENT,
    MediumError,
    MediumSpec,
    TransverseTensor,
    bulk_wavenumber,
    validate,
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

    @property
    def is_te(self) -> bool:
        return self in (Formulation.SCALAR_TE, Formulation.VECTOR_TE)


KIND_NODAL_SCALAR = "nodal_scalar"
KIND_TRIANGLE_SCALAR = "triangle_scalar"
KIND_TRIANGLE_VECTOR = "triangle_vector"


@dataclass(frozen=True)
class FieldFrame:
    """Cross-sectional field samples: per-node scalars or per-triangle values."""

    kind: str
    label: str  # 'e_z', 'h_z', 'e_t', 'h_t' or 'p'
    samples: np.ndarray  # (V,) / (T,) complex or (T, 2) complex
    omega: float | None = None
    k_z: complex | None = None


@dataclass(frozen=True)
class ModeSolution:
    """Sorted cut-offs plus eigenvectors for one formulation on one mesh.

    ``cutoffs`` holds ``k_t = +sqrt(lambda)`` ascending; for vector
    formulations the first ``tem_count`` entries are the near-zero (TEM)
    modes.  ``dof_vectors`` columns align with ``cutoffs`` and live on the
    formulation's retained dofs (see ``pencil.primal_map``).
    """

    formulation: Formulation
    cutoffs: np.ndarray
    eigenvalues: np.ndarray
    tem_count: int
    dof_vectors: np.ndarray
    multiplier_vectors: np.ndarray | None
    residuals: np.ndarray
    mesh: Mesh
    medium: MediumSpec
    pencil: femcore.HermitianPencil

    @property
    def nonzero_cutoffs(self) -> np.ndarray:
        return self.cutoffs[self.tem_count:]


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

    For TE the multiplier should vanish: values are ``|p| / |xi|`` norm
    ratios.  For TM it should be constant: values are the spread
    ``std(p) / (|mean(p)| + |xi|)`` with the pinned node's implied zero
    included.
    """

    formulation: Formulation
    values: np.ndarray


_ASSEMBLERS = {
    Formulation.SCALAR_TE: femcore.assemble_scalar_te,
    Formulation.SCALAR_TM: femcore.assemble_scalar_tm,
    Formulation.VECTOR_TE: femcore.assemble_vector_te,
    Formulation.VECTOR_TM: femcore.assemble_vector_tm,
}


def _fix_phase(columns: np.ndarray) -> np.ndarray:
    """Rotate each column so its largest-magnitude entry is real positive."""
    out = columns.copy()
    for j in range(out.shape[1]):
        i = int(np.argmax(np.abs(out[:, j])))
        pivot = out[i, j]
        if abs(pivot) > 0:
            out[:, j] *= np.conj(pivot) / abs(pivot)
    return out


def _solve_formulation(mesh: Mesh, spec: MediumSpec, q: int,
                       formulation: Formulation,
                       options: SolveOptions | None) -> ModeSolution:
    if q < 1:
        raise ValueError("q must be at least 1")
    report = validate(spec)
    if report.verdict != VERDICT_INDEPENDENT:
        raise MediumError(
            "medium does not guarantee independent TE/TM modes; "
            f"decoupling residual {report.decoupling_residual:.3e}"
        )
    opts = options if options is not None else SolveOptions()

    if formulation is Formulation.SCALAR_TE:
        reserve = 1
    elif formulation is Formulation.SCALAR_TM:
        reserve = 0
    else:
        reserve = max(mesh.num_boundary_components - 1, 0)

    pencil = _ASSEMBLERS[formulation](mesh, spec)
    capacity = pencil.primal_dim - pencil.multiplier_dim
    request = min(q + reserve + 2, capacity)
    if request < q + reserve:
        raise eigensolve.EigenSolveError(
            f"mesh supports only {capacity} modes, need {q + reserve}"
        )
    spectrum = eigensolve.solve(pencil, replace(opts, num_modes=request))

    if formulation is Formulation.SCALAR_TM:
        zero_idx = np.array([], dtype=int)
        nonzero_idx = np.arange(spectrum.eigenvalues.size)
    else:
        zero_idx, nonzero_idx = classify_near_zero(
            spectrum, zero_frac=opts.zero_frac)

    nonzero_idx = nonzero_idx[:q]
    if formulation.is_vector:
        keep = np.concatenate([zero_idx, nonzero_idx])
        tem_count = zero_idx.size
    else:
        keep = nonzero_idx
        tem_count = 0

    eigenvalues = spectrum.eigenvalues[keep]
    cutoffs = np.sqrt(np.clip(eigenvalues, 0.0, None))
    vectors = spectrum.eigenvectors[:, keep]
    multipliers = None
    if formulation.is_vector and pencil.multiplier_dim:
        space = _GradientSpace(mesh, spec, formulation, pencil)
        with space.lu:
            vectors = space.clean(vectors)
            b_block = pencil.M[:pencil.primal_dim, :pencil.primal_dim]
            norms = np.sqrt(np.abs(np.einsum("ij,ij->j", vectors.conj(),
                                             b_block @ vectors)))
            vectors = vectors / np.where(norms > 0, norms, 1.0)
            vectors = _fix_phase(vectors)
            multipliers = space.multipliers(eigenvalues, vectors)
    else:
        vectors = _fix_phase(vectors)
        if formulation.is_vector:  # unconstrained: no interior nodes
            multipliers = np.zeros((0, keep.size), dtype=complex)
    return ModeSolution(
        formulation=formulation,
        cutoffs=cutoffs,
        eigenvalues=eigenvalues,
        tem_count=tem_count,
        dof_vectors=vectors,
        multiplier_vectors=multipliers,
        residuals=spectrum.residuals[keep],
        mesh=mesh,
        medium=spec,
        pencil=pencil,
    )


class _GradientSpace:
    """Discrete-gradient machinery shared by cleaning and multiplier extraction.

    The P1 hat gradients expand exactly in the edge basis (coefficients are
    the +-1 incidence matrix G), which identifies the coupling block with
    ``B @ G`` and makes ``S = G^H B G`` the P1 stiffness on the multiplier
    space.  Two consequences are used here:

    * the gradient content of a computed eigenvector,
      ``G S^{-1} C^H xi``, is pure constraint-violating noise (the exact
      mode has none) and can be projected out;
    * testing the field-equation row with gradients leaves the exact
      multiplier relation ``S zeta = lambda C^H xi``, a square,
      well-scaled solve that sidesteps the block-scale cancellation
      polluting the multiplier part of Krylov or least-squares
      eigenvectors.  It stays an honest diagnostic: the right side is the
      mode's discrete divergence.
    """

    def __init__(self, mesh, spec, formulation, pencil):
        tensor = (spec.mu_t.inverse()
                  if formulation is Formulation.VECTOR_TE
                  else spec.eps_t.inverse())
        nkeep = pencil.multiplier_map.retained
        gradient = femcore.gradient_incidence(mesh)
        if formulation is Formulation.VECTOR_TE:
            gradient = gradient[pencil.primal_map.retained]
        self.gradient = gradient[:, nkeep].tocsr()
        stiffness = femcore.nodal_stiffness(mesh, tensor)
        # the factor lives until the caller's ``with space.lu`` block ends
        self.lu = eigensolve.HermitianLU(stiffness[nkeep][:, nkeep])
        self.divergence = pencil.constraint_block().conj().T.tocsr()

    def clean(self, primal: np.ndarray) -> np.ndarray:
        """Remove discrete-gradient noise so modes are divergence-free."""
        return primal - self.gradient @ self.lu.solve(self.divergence @ primal)

    def multipliers(self, eigenvalues, primal) -> np.ndarray:
        return self.lu.solve(self.divergence @ primal) * eigenvalues[None, :]


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


# ---------------------------------------------------------------------------
# field reconstruction


def _zcross(v: np.ndarray) -> np.ndarray:
    """z x v for an array of transverse vectors (..., 2)."""
    return np.stack([-v[..., 1], v[..., 0]], axis=-1)


def _apply_tensor(t: TransverseTensor, v: np.ndarray) -> np.ndarray:
    vx, vy = v[..., 0], v[..., 1]
    return np.stack([t.d * vx + 1j * t.alpha * vy,
                     -1j * t.alpha * vx + t.d * vy], axis=-1)


def _phase_constant(spec, omega, kt) -> complex:
    k = bulk_wavenumber(spec, omega)
    if k >= kt:
        return complex(np.sqrt(k * k - kt * kt))
    return -1j * np.sqrt(kt * kt - k * k)  # decay toward +z below cut-off


def _nodal_gradients(mesh: Mesh, nodal: np.ndarray) -> np.ndarray:
    """Per-triangle constant gradient of a P1 field given on all nodes."""
    _, grads = femcore.triangle_geometry(mesh)
    return np.einsum("tl,tlk->tk", nodal[mesh.triangles], grads)


def _scalar_mode(solution: ModeSolution, mode_index: int):
    kt = float(solution.cutoffs[mode_index])
    if kt <= 0:
        raise ValueError("reconstruction needs a nonzero cut-off mode")
    nodal = solution.pencil.primal_map.scatter(
        solution.dof_vectors[:, mode_index])
    return kt, nodal


def reconstruct_from_hz(solution: ModeSolution, mode_index: int, omega: float):
    """Transverse fields of a scalar-TE mode at operating frequency ``omega``.

    ``e_t = (j w / k_t^2) z x (mu_t grad h_z)`` and
    ``h_t = (-j k_z / k_t^2) grad h_z`` with the absolute permeability.
    """
    if solution.formulation is not Formulation.SCALAR_TE:
        raise ValueError("expected a scalar TE solution")
    if omega <= 0:
        raise ValueError("omega must be positive")
    kt, hz = _scalar_mode(solution, mode_index)
    kz = _phase_constant(solution.medium, omega, kt)
    grad = _nodal_gradients(solution.mesh, hz)
    mu_abs = VACUUM_PERMEABILITY
    et = (1j * omega / kt**2) * _zcross(
        mu_abs * _apply_tensor(solution.medium.mu_t, grad))
    ht = (-1j * kz / kt**2) * grad
    return (
        FieldFrame(KIND_TRIANGLE_VECTOR, "e_t", et, omega, kz),
        FieldFrame(KIND_TRIANGLE_VECTOR, "h_t", ht, omega, kz),
    )


def reconstruct_from_ez(solution: ModeSolution, mode_index: int, omega: float):
    """Transverse fields of a scalar-TM mode.

    ``e_t = (-j k_z / k_t^2) grad e_z`` and
    ``h_t = (-j w / k_t^2) z x (eps_t grad e_z)`` with the absolute
    permittivity.
    """
    if solution.formulation is not Formulation.SCALAR_TM:
        raise ValueError("expected a scalar TM solution")
    if omega <= 0:
        raise ValueError("omega must be positive")
    kt, ez = _scalar_mode(solution, mode_index)
    kz = _phase_constant(solution.medium, omega, kt)
    grad = _nodal_gradients(solution.mesh, ez)
    eps_abs = VACUUM_PERMITTIVITY
    et = (-1j * kz / kt**2) * grad
    ht = (-1j * omega / kt**2) * _zcross(
        eps_abs * _apply_tensor(solution.medium.eps_t, grad))
    return (
        FieldFrame(KIND_TRIANGLE_VECTOR, "e_t", et, omega, kz),
        FieldFrame(KIND_TRIANGLE_VECTOR, "h_t", ht, omega, kz),
    )


def transverse_field(solution: ModeSolution, mode_index: int) -> np.ndarray:
    """Edge expansion of a vector mode evaluated at triangle centroids."""
    if not solution.formulation.is_vector:
        raise ValueError("expected a vector-formulation solution")
    full = solution.pencil.primal_map.scatter(
        solution.dof_vectors[:, mode_index])
    basis = femcore.edge_basis_at_centroids(solution.mesh)
    return np.einsum("tl,tlk->tk", full[solution.mesh.tri_edges], basis)


def transverse_companion(solution: ModeSolution, mode_index: int,
                         omega: float):
    """Both transverse fields of a vector mode (TEM modes included).

    The solved field is the edge expansion itself; its companion follows
    from the transverse coupling, which stays finite at zero cut-off:
    ``h_t = k_z z x (mu_t^-1 e_t) / omega`` for TE and
    ``e_t = -k_z z x (eps_t^-1 h_t) / omega`` for TM, in absolute units.
    """
    if omega <= 0:
        raise ValueError("omega must be positive")
    spec = solution.medium
    field = transverse_field(solution, mode_index)
    kz = _phase_constant(spec, omega, float(solution.cutoffs[mode_index]))
    if solution.formulation is Formulation.VECTOR_TE:
        et = field
        ht = (kz / omega) * _zcross(
            _apply_tensor(spec.mu_t.inverse(), field) / VACUUM_PERMEABILITY)
    else:
        ht = field
        et = -(kz / omega) * _zcross(
            _apply_tensor(spec.eps_t.inverse(), field) / VACUUM_PERMITTIVITY)
    return (
        FieldFrame(KIND_TRIANGLE_VECTOR, "e_t", et, omega, kz),
        FieldFrame(KIND_TRIANGLE_VECTOR, "h_t", ht, omega, kz),
    )


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
    if omega <= 0:
        raise ValueError("omega must be positive")
    if mode_index < solution.tem_count:
        raise ValueError("TEM mode has no longitudinal field")
    kt = float(solution.cutoffs[mode_index])
    if kt <= 0:
        raise ValueError("reconstruction needs a nonzero cut-off mode")
    kz = _phase_constant(solution.medium, omega, kt)
    full = solution.pencil.primal_map.scatter(
        solution.dof_vectors[:, mode_index])
    curls = femcore.edge_curls(solution.mesh)
    curl = np.einsum("tl,tl->t", full[solution.mesh.tri_edges], curls)
    if solution.formulation is Formulation.VECTOR_TE:
        samples = 1j * curl / (omega * VACUUM_PERMEABILITY * solution.medium.mu_zz)
        label = "h_z"
    else:
        samples = -1j * curl / (omega * VACUUM_PERMITTIVITY
                                * solution.medium.eps_zz)
        label = "e_z"
    return FieldFrame(KIND_TRIANGLE_SCALAR, label, samples, omega, kz)


# ---------------------------------------------------------------------------
# diagnostics


def verify_tem(solution: ModeSolution, mesh: Mesh | None = None) -> TemReport:
    """TEM count must equal boundary components minus one."""
    if not solution.formulation.is_vector:
        raise ValueError("TEM verification applies to vector formulations")
    mesh = mesh if mesh is not None else solution.mesh
    return TemReport(expected=mesh.num_boundary_components - 1,
                     actual=solution.tem_count)


def multiplier_diagnostics(solution: ModeSolution) -> MultiplierReport:
    """Multiplier norm ratio (TE) or constancy spread (TM) per mode."""
    if not solution.formulation.is_vector or solution.multiplier_vectors is None:
        raise ValueError("multiplier diagnostics apply to vector formulations")
    num = solution.cutoffs.size
    values = np.empty(num)
    for i in range(num):
        xi = solution.dof_vectors[:, i]
        p = solution.multiplier_vectors[:, i]
        if solution.formulation is Formulation.VECTOR_TE:
            values[i] = np.linalg.norm(p) / max(np.linalg.norm(xi), 1e-300)
        else:
            nodal = solution.pencil.multiplier_map.scatter(p)  # pin -> 0
            spread = float(np.std(nodal))
            values[i] = spread / (abs(np.mean(nodal))
                                  + max(np.linalg.norm(xi), 1e-300))
    return MultiplierReport(formulation=solution.formulation, values=values)


def constraint_residuals(solution: ModeSolution) -> np.ndarray:
    """Per-mode ``|C^H xi| / |xi|``: the discrete divergence of each mode."""
    if not solution.formulation.is_vector:
        raise ValueError("constraint residuals apply to vector formulations")
    c = solution.pencil.constraint_block()
    out = np.empty(solution.cutoffs.size)
    for i in range(out.size):
        xi = solution.dof_vectors[:, i]
        out[i] = (np.linalg.norm(c.conj().T @ xi)
                  / max(np.linalg.norm(xi), 1e-300))
    return out
