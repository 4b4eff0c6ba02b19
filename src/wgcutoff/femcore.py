"""Element integrals and global assembly of the four eigenproblem pencils.

Scalar formulations use linear nodal (P1) elements; vector formulations use
lowest-order edge elements with constant tangential / linear normal traces,
paired with P1 Lagrange multipliers that enforce the discrete divergence-free
constraint.  Every pencil is a plain Hermitian pencil ``(A, B)``; a vector
pencil also carries the gradient incidence ``G`` from its multiplier nodes
to its edges, and its coupling block is ``C = B G`` exactly (the P1 hat
gradients lie in the edge space).  Its stiffness is ``A = R^H R``, formed
from the curl matrix ``R`` that the pencil keeps, and ``R G = 0``.  All
integrands are polynomials of degree at most two against constant tensors,
so every integral below is closed-form exact (``int lam_a lam_b = |T|/12
(1 + delta)``, ``int lam_a = |T|/3``).

A pencil's arithmetic follows from its medium: it is assembled in float64
where the tensor it integrates has ``alpha = 0``, and in complex128
otherwise.  Scalar TM always integrates ``eps_t.d`` alone, so its pencil is
real for every medium (see :func:`assemble_scalar_tm`).

Conventions
-----------
* Sesquilinear forms conjugate the *test* function and matrix entry
  ``(i, j)`` is ``form(basis_j, basis_i)``, which makes every assembled
  matrix Hermitian by construction.
* Local edge j of a triangle runs from its vertex j to vertex j + 1 (mod
  3), with basis ``lam_j grad(lam_{j+1}) - lam_{j+1} grad(lam_j)``.  The
  global edge ``e`` with endpoints ``lo < hi`` carries
  ``N_e = lam_lo * grad(lam_hi) - lam_hi * grad(lam_lo)`` in every incident
  triangle: the local basis times the sign ``s = mesh.tri_edge_signs``,
  +1 where local and global directions agree.  Curls and centroid values
  are multiplied by ``s``, and an edge matrix is one fixed-pattern local
  matrix times ``s_i s_j`` (Jin, The Finite Element Method in
  Electromagnetics, 2014).  The global direction makes edge degrees of
  freedom independent of triangle ordering.
* Every local matrix reaches the global one through the (T, 3)
  local-to-global array ``mesh.triangles`` or ``mesh.tri_edges``.  A pencil
  keeps the bool mask ``retained`` of the nodes or edges that are its
  degrees of freedom, in mesh order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import breadth_first_order, connected_components

from .medium import MediumSpec, TransverseTensor
from .mesh import Mesh

class AssemblyError(ValueError):
    """Mesh/medium combination cannot be assembled."""


@dataclass(frozen=True)
class HermitianPencil:
    """Generalized eigenproblem ``K x = lambda M x``, K Hermitian, M definite.

    ``retained`` is the bool mask over the mesh's nodes (scalar) or edges
    (vector) of the ``primal_dim`` degrees of freedom, which keep the mesh
    order; the others are eliminated by an essential boundary condition.
    A vector pencil also carries ``gradient``, the incidence G from the
    ``multiplier_dim`` retained multiplier nodes to the ``primal_dim``
    retained edges.  Its eigenpairs are those of ``(K, M)`` restricted to
    the discretely divergence-free fields, ``C^H x = 0`` with the coupling
    ``C = M G``; the gradients ``range(G)`` are the other eigenvectors of
    ``(K, M)``, all with eigenvalue zero (``K G = 0``).

    ``curl`` is the real (T, p) matrix R of each triangle's constant edge
    curls times ``sqrt(area coeff)``, so that ``K = R^H R`` and ``R G = 0``.
    ``kernel`` is an orthonormal basis of a null space the solve never
    computes: of ``R^H`` for vector TE, scalar TE's M-normalized constant.
    ``harmonic`` holds one closed field (``R h = 0``) per hole, B - 1 for B
    boundary components: with the gradients they span K's kernel.  Their
    number is the pencil's ``tem_count``, the TEM modes that a vector solve
    returns first (0 for a scalar or simply connected pencil).
    ``finite_count`` is the number of modes a solve can return.
    """

    K: sp.csr_matrix
    M: sp.csr_matrix
    retained: np.ndarray
    gradient: sp.csr_matrix | None = None
    curl: sp.csr_matrix | None = None
    kernel: np.ndarray | None = None
    harmonic: np.ndarray | None = None

    @property
    def primal_dim(self) -> int:
        return self.K.shape[0]

    @property
    def multiplier_dim(self) -> int:
        return 0 if self.gradient is None else self.gradient.shape[1]

    @property
    def tem_count(self) -> int:
        return 0 if self.harmonic is None else self.harmonic.shape[1]

    @property
    def finite_count(self) -> int:
        """Finite eigenvalues outside the known kernel, TEM modes included:
        ``p - m`` for a vector pencil, ``p`` less the ``kernel`` columns
        for a scalar one (a vector pencil's kernel lives on the triangles)."""
        known = (0 if self.curl is not None or self.kernel is None
                 else self.kernel.shape[1])
        return self.primal_dim - self.multiplier_dim - known

    def constraint_block(self) -> sp.csr_matrix:
        """Coupling ``C = M G`` (primal x multiplier) of a vector pencil."""
        if self.gradient is None:
            raise ValueError("constraint block only exists for vector pencils")
        return (self.M @ self.gradient).tocsr()


# ---------------------------------------------------------------------------
# element geometry


#: Local edge j runs from vertex j to vertex ``_NEXT[j]``.
_NEXT = np.array([1, 2, 0])


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


def edge_geometry(mesh: Mesh):
    """Per-triangle geometry of the global edge basis functions.

    Returns the areas (T,), the barycentric gradients (T, 3, 2), the value
    of each ``N_e`` at the centroid, ``s (grad(lam_{j+1}) - grad(lam_j)) /
    3`` (T, 3, 2), and its constant curl ``2 s cross(grad(lam_j),
    grad(lam_{j+1}))`` (T, 3), with ``s = mesh.tri_edge_signs``.
    """
    area, grads = triangle_geometry(mesh)
    s = mesh.tri_edge_signs
    ends = grads[:, _NEXT]
    centroid = s[:, :, None] * (ends - grads) / 3.0
    return area, grads, centroid, s * (2.0 * _cross(grads, ends))


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


def _assemble(index: np.ndarray, vals: np.ndarray, n: int) -> sp.csr_matrix:
    """Sum the local matrices ``vals`` (T, 3, 3) into an n x n matrix; local
    row or column i of triangle t is global ``index[t, i]``."""
    rows = np.repeat(index, 3, axis=1)
    cols = np.tile(index, 3)
    return sp.coo_matrix((vals.ravel(), (rows.ravel(), cols.ravel())),
                         shape=(n, n)).tocsr()


def _scalar_matrices(mesh: Mesh, tensor: TransverseTensor, coeff: float):
    area, grads = triangle_geometry(mesh)
    gram = _tensor_gram(tensor, grads)            # (T, 3, 3)
    s_vals = area[:, None, None] * gram
    m_vals = (coeff / 12.0) * area[:, None, None] * (np.ones((3, 3)) + np.eye(3))
    n = mesh.num_nodes
    stiffness = _assemble(mesh.triangles, s_vals, n)
    mass = _assemble(mesh.triangles, m_vals.astype(gram.dtype, copy=False), n)
    return stiffness, mass


def _vector_matrices(mesh: Mesh, tensor_inv: TransverseTensor, coeff_inv: float):
    """The (T, E) curl matrix R (see :class:`HermitianPencil`) and the
    global edge mass matrix."""
    area, grads, _, curls = edge_geometry(mesh)
    s = mesh.tri_edge_signs
    gram = _tensor_gram(tensor_inv, grads)        # (T, 3, 3)
    # int N_i . D N_j over the triangle for the local edges i from vertex a
    # to b and j from c to d, then times s_i s_j
    lam = (np.ones((3, 3)) + np.eye(3)) / 12.0
    a, b = np.arange(3)[:, None], _NEXT[:, None]
    c, d = a.T, b.T
    b_vals = (lam[a, c] * gram[:, b, d] - lam[a, d] * gram[:, b, c]
              - lam[b, c] * gram[:, a, d] + lam[b, d] * gram[:, a, c])
    b_vals *= area[:, None, None] * (s[:, :, None] * s[:, None, :])
    # freed before the scatter, which sets the peak memory of assembly
    del gram

    # a curl is of order L^-2: scaled by sqrt(area) first, the entries of
    # R and of K = R^H R are of order L^-1 and L^-2 and neither over- nor
    # underflows
    curls = curls * (np.sqrt(area) * np.sqrt(coeff_inv))[:, None]
    t, e = mesh.num_triangles, mesh.num_edges
    curl = sp.coo_matrix((curls.ravel(), (np.repeat(np.arange(t), 3),
                                          mesh.tri_edges.ravel())),
                         shape=(t, e)).tocsr()
    return curl, _assemble(mesh.tri_edges, b_vals, e)


def _restrict(matrix: sp.csr_matrix, rows: np.ndarray, cols: np.ndarray):
    """The block of ``matrix`` on the bool masks ``rows`` and ``cols``."""
    return matrix[np.flatnonzero(rows)][:, np.flatnonzero(cols)].tocsr()


def assemble_scalar_te(mesh: Mesh, spec: MediumSpec) -> HermitianPencil:
    """Neumann-natural scalar TE pencil over all nodes.

    The stiffness uses the transverse permeability block and the mass the
    longitudinal permeability.  The constant spans the stiffness nullspace,
    no mode: it is the pencil's M-normalized ``kernel``, never computed.
    """
    stiffness, mass = _scalar_matrices(mesh, spec.mu_t, spec.mu_zz)
    return HermitianPencil(
        stiffness, mass, np.ones(mesh.num_nodes, dtype=bool),
        kernel=np.ones((mesh.num_nodes, 1)) / np.sqrt(mass.sum().real))


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
    return HermitianPencil(_restrict(stiffness, interior, interior),
                           _restrict(mass, interior, interior), interior)


def _vector_pencil(mesh, curl, mass, retained, keep_nodes, kernel, harmonic):
    """Pencil on the ``retained`` edges, with the gradients of the
    multiplier nodes ``keep_nodes`` (both bool masks); ``K = R^H R``."""
    gradient = _restrict(gradient_incidence(mesh), retained, keep_nodes)
    curl = curl[:, np.flatnonzero(retained)].tocsr()
    mass = _restrict(mass, retained, retained)
    K = (curl.T @ curl).astype(mass.dtype, copy=False).tocsr()
    return HermitianPencil(K, mass, retained, gradient, curl, kernel,
                           harmonic)


def assemble_vector_te(mesh: Mesh, spec: MediumSpec) -> HermitianPencil:
    """Mixed edge-element TE pencil on interior edges and interior nodes.

    The tangential-trace boundary condition is essential, so boundary edge
    dofs are eliminated; the multiplier lives in the zero-trace nodal space.
    ``R^H y = 0`` for ``y_t = 1 / c_t`` on each piece of the triangle graph
    joined through interior edges, ``c_t`` the magnitude of row t of R: an
    interior edge's curl is ``+c_t`` in one of its triangles and ``-c_t``
    in the other.  The harmonic field of boundary component c >= 1 is
    ``G chi_c`` on the interior edges, ``chi_c`` the indicator of c's nodes.
    """
    interior_edge = ~mesh.boundary_edge
    if not interior_edge.any():
        raise AssemblyError("no interior edges: mesh too coarse for the "
                            "vector TE formulation")
    curl, mass = _vector_matrices(mesh, spec.mu_t.inverse(), 1.0 / spec.mu_zz)
    inner = curl[:, np.flatnonzero(interior_edge)]
    pieces, label = connected_components(inner @ inner.T, directed=False)
    kernel = np.zeros((mesh.num_triangles, pieces))
    scale = abs(curl).max(axis=1).toarray()[:, 0]
    kernel[np.arange(label.size), label] = 1.0 / scale
    component = mesh.boundary_component
    holes = component >= 1
    chi = np.zeros((mesh.num_nodes, mesh.num_boundary_components - 1))
    chi[mesh.edges[holes], component[holes, None] - 1] = 1.0
    return _vector_pencil(mesh, curl, mass, interior_edge,
                          ~mesh.boundary_node,
                          kernel / np.linalg.norm(kernel, axis=0),
                          (gradient_incidence(mesh) @ chi)[interior_edge])


def _cut_cochains(mesh: Mesh) -> np.ndarray:
    """(E, B - 1) edge fields, one per boundary component c >= 1: +-1 on
    each edge that a shortest path of the dual graph from c to component 0
    crosses, signed so that every triangle's circulation is 0 in integers.

    The path alternates edges and triangles (a breadth-first search over
    their incidence, from c's boundary edges).  Leaving a triangle through
    an edge gives the edge that triangle's sign, entering from c the
    opposite sign, so each triangle on the path sees -1 and +1.
    """
    t, e = mesh.num_triangles, mesh.num_edges
    tri = np.repeat(np.arange(t), 3)
    edge = t + mesh.tri_edges.ravel()
    cuts = np.zeros((e, mesh.num_boundary_components - 1))
    for c in range(1, cuts.shape[1] + 1):
        start = t + np.flatnonzero(mesh.boundary_component == c)
        rows = np.concatenate([tri, edge, np.full(start.size, t + e)])
        cols = np.concatenate([edge, tri, start])
        graph = sp.csr_matrix((np.ones(rows.size), (rows, cols)),
                              shape=(t + e + 1, t + e + 1))
        order, before = breadth_first_order(graph, t + e,
                                            return_predecessors=True)
        reached = order[1:][order[1:] >= t] - t  # edges, nearest first
        path = [t + reached[mesh.boundary_component[reached] == 0][0]]
        while before[path[-1]] != t + e:
            path.append(before[path[-1]])
        path = path[::-1]  # edge, triangle, edge, ..., triangle, edge
        crossed = np.array(path[::2]) - t
        left = np.array(path[1:2] + path[1::2])
        sign = (mesh.tri_edge_signs[left]
                * (mesh.tri_edges[left] == crossed[:, None])).sum(axis=1)
        sign[0] = -sign[0]
        cuts[crossed, c - 1] = sign
    return cuts


def assemble_vector_tm(mesh: Mesh, spec: MediumSpec) -> HermitianPencil:
    """Mixed edge-element TM pencil on all edges, multiplier on all nodes
    minus one pin.

    Both TM boundary conditions are natural, so nothing is eliminated on the
    primal side.  The multiplier is only determined up to a constant (the
    gradient of a constant is zero), which would make ``G^H M G`` singular;
    the dof at the lowest-index node is pinned (removed), which fixes the
    constant without changing the primal eigenpairs.  ``R^H`` has no kernel,
    and the harmonic fields are the cut cochains of :func:`_cut_cochains`.
    """
    curl, mass = _vector_matrices(mesh, spec.eps_t.inverse(),
                                  1.0 / spec.eps_zz)
    keep_nodes = np.ones(mesh.num_nodes, dtype=bool)
    keep_nodes[0] = False  # pin the multiplier constant
    return _vector_pencil(mesh, curl, mass,
                          np.ones(mesh.num_edges, dtype=bool), keep_nodes,
                          np.zeros((mesh.num_triangles, 0)),
                          _cut_cochains(mesh))


# ---------------------------------------------------------------------------
# helpers used by field reconstruction


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
