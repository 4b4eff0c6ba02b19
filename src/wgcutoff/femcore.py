"""Element integrals and global assembly of the four eigenproblem pencils.

Scalar formulations use linear nodal (P1) elements; vector formulations use
lowest-order edge elements with constant tangential / linear normal traces,
paired with P1 Lagrange multipliers that enforce the discrete divergence-free
constraint.  Every pencil is a plain Hermitian pencil ``(A, B)``; a vector
pencil also carries the gradient incidence ``G`` from its multiplier nodes
to its edges, and its coupling block is ``C = B G`` exactly (the P1 hat
gradients lie in the edge space).  All integrands are polynomials of degree at most two against
constant tensors, so every integral below is closed-form exact
(``int lam_a lam_b = |T|/12 (1 + delta)``, ``int lam_a = |T|/3``).

A pencil's arithmetic follows from its medium: it is assembled in float64
where the tensor it integrates has ``alpha = 0``, and in complex128
otherwise.  Scalar TM always integrates ``eps_t.d`` alone, so its pencil is
real for every medium (see :func:`assemble_scalar_tm`).

Conventions
-----------
* Sesquilinear forms conjugate the *test* function and matrix entry
  ``(i, j)`` is ``form(basis_j, basis_i)``, which makes every assembled
  matrix Hermitian by construction.
* The edge basis on the edge with endpoints ``(lo, hi)``, ``lo < hi``
  globally, is ``N_e = lam_lo * grad(lam_hi) - lam_hi * grad(lam_lo)`` in
  every incident triangle; its scalar curl is
  ``2 * cross(grad(lam_lo), grad(lam_hi))``, constant per triangle.  Using
  the global ``lo -> hi`` direction makes edge degrees of freedom
  independent of triangle ordering.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .medium import MediumSpec, TransverseTensor
from .mesh import Mesh

class AssemblyError(ValueError):
    """Mesh/medium combination cannot be assembled."""


@dataclass(frozen=True)
class DofMap:
    """Map mesh entities (nodes or edges) to retained global dof indices."""

    index: np.ndarray  # (entities,) dof index, -1 where eliminated
    count: int

    @property
    def retained(self) -> np.ndarray:
        return np.flatnonzero(self.index >= 0)

    def scatter(self, values: np.ndarray) -> np.ndarray:
        """Expand dof values (one column per field) back onto all entities,
        zero where eliminated."""
        full = np.zeros(self.index.shape + values.shape[1:],
                        dtype=np.result_type(values, complex))
        full[self.index >= 0] = values
        return full


def _identity_map(n: int) -> DofMap:
    return DofMap(np.arange(n, dtype=np.int64), n)


def _subset_map(keep: np.ndarray) -> DofMap:
    index = np.full(keep.shape[0], -1, dtype=np.int64)
    index[keep] = np.arange(int(keep.sum()))
    return DofMap(index, int(keep.sum()))


@dataclass(frozen=True)
class HermitianPencil:
    """Generalized eigenproblem ``K x = lambda M x``, K Hermitian, M definite.

    A vector pencil also carries ``gradient``, the incidence G from the
    ``multiplier_dim`` retained multiplier nodes to the ``primal_dim``
    retained edges.  Its eigenpairs are those of ``(K, M)`` restricted to
    the discretely divergence-free fields, ``C^H x = 0`` with the coupling
    ``C = M G``; the gradients ``range(G)`` are the other eigenvectors of
    ``(K, M)``, all with eigenvalue zero (``K G = 0``).
    """

    K: sp.csr_matrix
    M: sp.csr_matrix
    primal_map: DofMap
    gradient: sp.csr_matrix | None = None

    @property
    def primal_dim(self) -> int:
        return self.primal_map.count

    @property
    def multiplier_dim(self) -> int:
        return 0 if self.gradient is None else self.gradient.shape[1]

    def constraint_block(self) -> sp.csr_matrix:
        """Coupling ``C = M G`` (primal x multiplier) of a vector pencil."""
        if self.gradient is None:
            raise ValueError("constraint block only exists for vector pencils")
        return (self.M @ self.gradient).tocsr()


# ---------------------------------------------------------------------------
# element geometry


_LOCAL_EDGES = np.array([[0, 1], [1, 2], [2, 0]])


def triangle_geometry(mesh: Mesh):
    """Vectorized areas (T,) and barycentric gradients (T, 3, 2)."""
    p = mesh.nodes[mesh.triangles]
    v0, v1, v2 = p[:, 0], p[:, 1], p[:, 2]
    det = ((v1[:, 0] - v0[:, 0]) * (v2[:, 1] - v0[:, 1])
           - (v2[:, 0] - v0[:, 0]) * (v1[:, 1] - v0[:, 1]))
    area = 0.5 * det
    grads = np.empty((mesh.num_triangles, 3, 2))
    grads[:, 0, 0] = v1[:, 1] - v2[:, 1]
    grads[:, 0, 1] = v2[:, 0] - v1[:, 0]
    grads[:, 1, 0] = v2[:, 1] - v0[:, 1]
    grads[:, 1, 1] = v0[:, 0] - v2[:, 0]
    grads[:, 2, 0] = v0[:, 1] - v1[:, 1]
    grads[:, 2, 1] = v1[:, 0] - v0[:, 0]
    grads /= det[:, None, None]
    return area, grads


def _cross(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """z-component of ``u x v`` for arrays of transverse vectors (..., 2)."""
    return u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]


def _edge_geometry(mesh: Mesh):
    """Per-triangle geometry of the local edge basis functions.

    Returns the areas (T,), the barycentric gradients (T, 3, 2), the local
    ``(lo, hi)`` vertex indices of each local edge ordered by global node
    index (T, 3, 2), ``grad(lam_hi) - grad(lam_lo)`` (T, 3, 2) and the
    constant curl ``2 * cross(grad(lam_lo), grad(lam_hi))`` (T, 3).
    """
    area, grads = triangle_geometry(mesh)
    lohi = np.broadcast_to(_LOCAL_EDGES, (mesh.num_triangles, 3, 2)).copy()
    flip = mesh.tri_edge_signs < 0
    lohi[flip] = lohi[flip][:, ::-1]
    tidx = np.arange(mesh.num_triangles)[:, None]
    g_lo, g_hi = grads[tidx, lohi[:, :, 0]], grads[tidx, lohi[:, :, 1]]
    return area, grads, lohi, g_hi - g_lo, 2.0 * _cross(g_lo, g_hi)


def _tensor_gram(tensor: TransverseTensor, grads: np.ndarray) -> np.ndarray:
    """``G[t, i, j] = grad_i . (D grad_j)`` for D = [[d, ja], [-ja, d]].

    With real gradients this is ``d * dot(g_i, g_j) + j*a * cross(g_i, g_j)``:
    a real array when ``alpha = 0``, complex otherwise.
    """
    gram = tensor.d * (grads @ np.swapaxes(grads, -1, -2))
    if tensor.alpha == 0:
        return gram
    return gram + 1j * tensor.alpha * _cross(grads[:, :, None, :],
                                             grads[:, None, :, :])


# ---------------------------------------------------------------------------
# global assembly


def _assemble(rows, cols, vals, shape) -> sp.csr_matrix:
    m = sp.coo_matrix((vals.ravel(), (rows.ravel(), cols.ravel())), shape=shape)
    return m.tocsr()


def _scalar_matrices(mesh: Mesh, tensor: TransverseTensor, coeff: float):
    area, grads = triangle_geometry(mesh)
    gram = _tensor_gram(tensor, grads)            # (T, 3, 3)
    s_vals = area[:, None, None] * gram
    m_vals = (coeff / 12.0) * area[:, None, None] * (np.ones((3, 3)) + np.eye(3))
    rows = np.repeat(mesh.triangles[:, :, None], 3, axis=2)
    cols = np.repeat(mesh.triangles[:, None, :], 3, axis=1)
    n = mesh.num_nodes
    stiffness = _assemble(rows, cols, s_vals, (n, n))
    mass = _assemble(rows, cols, m_vals.astype(gram.dtype, copy=False),
                     (n, n))
    return stiffness, mass


def _vector_matrices(mesh: Mesh, tensor_inv: TransverseTensor, coeff_inv: float):
    """Global curl-curl and edge mass matrices."""
    area, grads, lohi, _, curls = _edge_geometry(mesh)
    gram = _tensor_gram(tensor_inv, grads)        # (T, 3, 3)
    lo, hi = lohi[:, :, 0], lohi[:, :, 1]
    # a curl is of order L^-2: scaled by sqrt(area) first, the product of
    # two is of order L^-2 too and neither over- nor underflows
    curls = curls * np.sqrt(area)[:, None]
    a_vals = coeff_inv * (curls[:, :, None] * curls[:, None, :])

    lam = (np.ones((3, 3)) + np.eye(3)) / 12.0
    t3 = np.arange(mesh.num_triangles)[:, None, None]
    le = lo[:, :, None]
    he = hi[:, :, None]
    lf = lo[:, None, :]
    hf = hi[:, None, :]
    b_vals = area[:, None, None] * (
        lam[le, lf] * gram[t3, he, hf]
        - lam[le, hf] * gram[t3, he, lf]
        - lam[he, lf] * gram[t3, le, hf]
        + lam[he, hf] * gram[t3, le, lf]
    )

    e = mesh.num_edges
    erows = np.repeat(mesh.tri_edges[:, :, None], 3, axis=2)
    ecols = np.repeat(mesh.tri_edges[:, None, :], 3, axis=1)
    curl = _assemble(erows, ecols, a_vals.astype(gram.dtype, copy=False),
                     (e, e))
    mass = _assemble(erows, ecols, b_vals, (e, e))
    return curl, mass


def _restrict(matrix: sp.csr_matrix, rows: np.ndarray, cols: np.ndarray):
    return matrix[rows][:, cols].tocsr()


def assemble_scalar_te(mesh: Mesh, spec: MediumSpec) -> HermitianPencil:
    """Neumann-natural scalar TE pencil over all nodes.

    The stiffness uses the transverse permeability block and the mass the
    longitudinal permeability; the constant vector spans the stiffness
    nullspace, so the smallest eigenvalue is a spurious zero.
    """
    stiffness, mass = _scalar_matrices(mesh, spec.mu_t, spec.mu_zz)
    return HermitianPencil(stiffness, mass, _identity_map(mesh.num_nodes))


def assemble_scalar_tm(mesh: Mesh, spec: MediumSpec) -> HermitianPencil:
    """Dirichlet scalar TM pencil over interior nodes only, real for every
    medium: its stiffness integrates ``eps_t.d`` alone."""
    interior = ~mesh.boundary_node
    if not interior.any():
        raise AssemblyError("no interior nodes: mesh too coarse for the "
                            "Dirichlet formulation")
    # j alpha int(grad phi_j x grad phi_i) is a boundary integral, zero
    # between two nodes of the Dirichlet space
    stiffness, mass = _scalar_matrices(
        mesh, TransverseTensor(spec.eps, 0.0), spec.eps_zz)
    keep = np.flatnonzero(interior)
    return HermitianPencil(_restrict(stiffness, keep, keep),
                           _restrict(mass, keep, keep), _subset_map(interior))


def _vector_pencil(mesh, curl, mass, primal_map, keep_nodes):
    """Pencil on the retained edges, with the gradients of the multiplier
    nodes ``keep_nodes``."""
    ekeep = primal_map.retained
    gradient = _restrict(gradient_incidence(mesh), ekeep,
                         np.flatnonzero(keep_nodes))
    return HermitianPencil(_restrict(curl, ekeep, ekeep),
                           _restrict(mass, ekeep, ekeep), primal_map, gradient)


def assemble_vector_te(mesh: Mesh, spec: MediumSpec) -> HermitianPencil:
    """Mixed edge-element TE pencil on interior edges and interior nodes.

    The tangential-trace boundary condition is essential, so boundary edge
    dofs are eliminated; the multiplier lives in the zero-trace nodal space.
    """
    interior_edge = ~mesh.boundary_edge
    if not interior_edge.any():
        raise AssemblyError("no interior edges: mesh too coarse for the "
                            "vector TE formulation")
    curl, mass = _vector_matrices(mesh, spec.mu_t.inverse(), 1.0 / spec.mu_zz)
    return _vector_pencil(mesh, curl, mass, _subset_map(interior_edge),
                          ~mesh.boundary_node)


def assemble_vector_tm(mesh: Mesh, spec: MediumSpec) -> HermitianPencil:
    """Mixed edge-element TM pencil on all edges, multiplier on all nodes
    minus one pin.

    Both TM boundary conditions are natural, so nothing is eliminated on the
    primal side.  The multiplier is only determined up to a constant (the
    gradient of a constant is zero), which would make ``G^H M G`` singular;
    the dof at the lowest-index node is pinned (removed), which fixes the
    constant without changing the primal eigenpairs.
    """
    curl, mass = _vector_matrices(mesh, spec.eps_t.inverse(),
                                  1.0 / spec.eps_zz)
    keep_nodes = np.ones(mesh.num_nodes, dtype=bool)
    keep_nodes[0] = False  # pin the multiplier constant
    return _vector_pencil(mesh, curl, mass, _identity_map(mesh.num_edges),
                          keep_nodes)


# ---------------------------------------------------------------------------
# helpers used by field reconstruction


def edge_curls(mesh: Mesh) -> np.ndarray:
    """(T, 3) constant scalar curl of each local edge basis function."""
    return _edge_geometry(mesh)[4]


def edge_basis_at_centroids(mesh: Mesh) -> np.ndarray:
    """(T, 3, 2) value of each local edge basis at the triangle centroid.

    All barycentric coordinates equal 1/3 there, so
    ``N_e = (grad(lam_hi) - grad(lam_lo)) / 3``.
    """
    return _edge_geometry(mesh)[3] / 3.0


def gradient_incidence(mesh: Mesh) -> sp.csr_matrix:
    """(E, V) matrix G with ``grad(phi_n) = sum_e G[e, n] N_e`` exactly.

    The P1 hat gradient expands in the edge basis with coefficients +1 at
    the edge's high node and -1 at its low node; this embeds the nodal
    space into the edge space, and the coupling block of a vector pencil is
    (edge mass) @ G.
    """
    e = mesh.num_edges
    rows = np.concatenate([np.arange(e), np.arange(e)])
    cols = np.concatenate([mesh.edges[:, 1], mesh.edges[:, 0]])
    vals = np.concatenate([np.ones(e), -np.ones(e)])
    return sp.coo_matrix((vals, (rows, cols)),
                         shape=(e, mesh.num_nodes)).tocsr()
