import itertools

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh

from wgcutoff import (
    MediumSpec,
    TransverseTensor,
    assemble_scalar_te,
    assemble_scalar_tm,
    assemble_vector_te,
    assemble_vector_tm,
    build_topology,
    generate_annulus,
    generate_rectangle,
    refine_uniform,
)
from wgcutoff.femcore import (
    AssemblyError,
    _scalar_matrices,
    _vector_matrices,
)
from conftest import (
    hermiticity_defect,
    random_structured_mesh,
    random_valid_medium,
)


def p1_laplacian_reference(mesh):
    """Textbook P1 stiffness assembly, one triangle at a time."""
    n = mesh.num_nodes
    out = np.zeros((n, n))
    for tri in mesh.triangles:
        p = mesh.nodes[tri]
        u, v = p[1] - p[0], p[2] - p[0]
        area = 0.5 * abs(u[0] * v[1] - u[1] * v[0])
        grads = np.array([
            [p[1][1] - p[2][1], p[2][0] - p[1][0]],
            [p[2][1] - p[0][1], p[0][0] - p[2][0]],
            [p[0][1] - p[1][1], p[1][0] - p[0][0]],
        ]) / (2 * area)
        for i in range(3):
            for j in range(3):
                out[tri[i], tri[j]] += area * grads[i] @ grads[j]
    return out


def one_triangle(assemble, mesh, tensor, coeff):
    """Batched global matrices of a one-triangle mesh, as dense arrays.

    On ``unit_triangle_mesh`` they are the element matrices: global node
    order is the local vertex order, and the edge matrices differ from the
    local ones only by a signed permutation of the three edges.
    """
    return [m.toarray() for m in assemble(mesh, tensor, coeff)]


class TestElementScalar:
    def test_unit_triangle_stiffness(self, unit_triangle_mesh):
        stiffness, _ = one_triangle(_scalar_matrices, unit_triangle_mesh,
                                    TransverseTensor(1, 0), 1.0)
        expected = np.array([[1.0, -0.5, -0.5],
                             [-0.5, 0.5, 0.0],
                             [-0.5, 0.0, 0.5]])
        assert np.allclose(stiffness, expected, atol=1e-15)

    def test_unit_triangle_mass(self, unit_triangle_mesh):
        _, mass = one_triangle(_scalar_matrices, unit_triangle_mesh,
                               TransverseTensor(1, 0), 1.0)
        expected = (np.ones((3, 3)) + np.eye(3)) / 24.0
        assert np.allclose(mass, expected, atol=1e-16)

    def test_gyro_part_is_imaginary_hermitian(self, unit_triangle_mesh):
        full, _ = one_triangle(_scalar_matrices, unit_triangle_mesh,
                               TransverseTensor(2, -1), 1.0)
        plain, _ = one_triangle(_scalar_matrices, unit_triangle_mesh,
                                TransverseTensor(2, 0), 1.0)
        gyro = full - plain
        assert np.allclose(gyro.real, 0.0, atol=1e-15)
        assert np.abs(gyro.imag).max() > 0
        assert np.allclose(full, full.conj().T, atol=1e-15)


class TestElementEdge:
    def test_unit_triangle_curl_matrix(self, unit_triangle_mesh):
        curl, _ = one_triangle(_vector_matrices, unit_triangle_mesh,
                                  TransverseTensor(1, 0), 3.0)
        # every basis curl is +-2, area 1/2: B's entries have magnitude
        # 2 sqrt(area * coeff), and K = B^H B's entries 2 * coeff
        assert np.allclose(np.abs(curl), 2.0 * np.sqrt(1.5), atol=1e-13)
        assert np.allclose(np.abs(curl.T @ curl), 2.0 * 3.0, atol=1e-13)

    def test_edge_mass_positive_definite(self, unit_triangle_mesh):
        _, mass = one_triangle(_vector_matrices, unit_triangle_mesh,
                               TransverseTensor(2, -1), 1.0)
        assert np.allclose(mass, mass.conj().T, atol=1e-15)
        assert np.linalg.eigvalsh(mass).min() > 0

    def test_matches_entrywise_oracle_for_every_sign_pattern(self):
        # every numbering of the three nodes, with each of the three
        # rotations of the triangle's row, gives all six orientation
        # patterns that a triangle's edges can have
        tensor = TransverseTensor(2.0, -0.7)
        corners = 1e-3 * np.array([[0.1, -0.2], [1.3, 0.4], [0.2, 0.9]])
        patterns = set()
        for perm in itertools.permutations(range(3)):
            nodes = np.empty((3, 2))
            nodes[list(perm)] = corners
            for shift in range(3):
                mesh = build_topology(nodes, [np.roll(perm, -shift)])
                patterns.add(tuple(mesh.tri_edge_signs[0]))
                curl, mass = one_triangle(_vector_matrices, mesh, tensor, 3.0)
                curl_ref, mass_ref = edge_matrices_reference(mesh, tensor,
                                                             3.0)
                for got, ref in ((curl.T @ curl, curl_ref),
                                 (mass, mass_ref)):
                    assert (np.abs(got - ref).max()
                            <= 1e-14 * np.abs(ref).max())
        assert len(patterns) == 6


def edge_matrices_reference(mesh, tensor, coeff):
    """Curl-curl and edge mass of a one-triangle mesh, entry by entry.

    ``lam_n(x, y) = (1, x, y) @ coef[:, n]`` with ``coef`` the inverse of
    the vertex matrix, and ``N_e = lam_lo grad(lam_hi) - lam_hi
    grad(lam_lo)`` for the global edge ``lo < hi``.  Both integrands are
    polynomials of degree at most two, so the rule on the three edge
    midpoints, weights ``|T| / 3``, is exact.
    """
    p = mesh.nodes
    vertex_matrix = np.column_stack([np.ones(3), p])
    coef = np.linalg.inv(vertex_matrix)
    area = 0.5 * abs(np.linalg.det(vertex_matrix))
    midpoints = 0.5 * (p + np.roll(p, -1, axis=0))
    grad = coef[1:].T                                   # (3, 2)
    d = tensor.as_matrix()

    def basis(lo, hi, x):
        lam = np.array([1.0, *x]) @ coef
        return lam[lo] * grad[hi] - lam[hi] * grad[lo]

    def curl(lo, hi):
        # N_e is affine: jac[m, k] = dN_m / dx_k
        jac = np.outer(grad[hi], grad[lo]) - np.outer(grad[lo], grad[hi])
        return jac[1, 0] - jac[0, 1]

    e = mesh.num_edges
    curl_ref = np.zeros((e, e))
    mass_ref = np.zeros((e, e), dtype=complex)
    for i, (lo_i, hi_i) in enumerate(mesh.edges):
        for j, (lo_j, hi_j) in enumerate(mesh.edges):
            curl_ref[i, j] = coeff * area * curl(lo_i, hi_i) * curl(lo_j, hi_j)
            mass_ref[i, j] = sum(
                area / 3 * basis(lo_i, hi_i, x) @ d @ basis(lo_j, hi_j, x)
                for x in midpoints)
    return curl_ref, mass_ref



def coupling_reference(mesh, tensor):
    """Textbook ``C[e, n] = int N_e . (D grad(phi_n))``, one triangle at a time.

    With ``lam_lo`` and ``lam_hi`` integrating to |T|/3 each, the integral
    over a triangle is ``|T|/3 (grad(lam_hi) - grad(lam_lo)) . D grad(phi_n)``.
    """
    d = tensor.as_matrix()
    out = np.zeros((mesh.num_edges, mesh.num_nodes), dtype=complex)
    for tri in mesh.triangles:
        p = mesh.nodes[tri]
        u, v = p[1] - p[0], p[2] - p[0]
        area = 0.5 * abs(u[0] * v[1] - u[1] * v[0])
        grads = np.array([
            [p[1][1] - p[2][1], p[2][0] - p[1][0]],
            [p[2][1] - p[0][1], p[0][0] - p[2][0]],
            [p[0][1] - p[1][1], p[1][0] - p[0][0]],
        ]) / (2 * area)
        for a, b in ((0, 1), (1, 2), (2, 0)):
            lo, hi = (a, b) if tri[a] < tri[b] else (b, a)
            e = np.flatnonzero((mesh.edges == (tri[lo], tri[hi])).all(axis=1))[0]
            for n in range(3):
                out[e, tri[n]] += area / 3 * (grads[hi] - grads[lo]) @ d @ grads[n]
    return out


class TestScalarAssembly:
    def test_te_constant_in_nullspace(self, small_rect_mesh, gyro_medium):
        pencil = assemble_scalar_te(small_rect_mesh, gyro_medium)
        ones = np.ones(pencil.primal_dim)
        scale = np.abs(pencil.K.data).max()
        assert np.abs(pencil.K @ ones).max() <= 1e-12 * scale

    def test_te_nullspace_is_one_dimensional(self, small_rect_mesh, gyro_medium):
        pencil = assemble_scalar_te(small_rect_mesh, gyro_medium)
        w = eigh(pencil.K.toarray(), pencil.M.toarray(), eigvals_only=True)
        assert abs(w[0]) <= 1e-6 * w[-1]
        assert w[1] > 1e-6 * w[-1]

    def test_te_mass_positive_definite(self, small_rect_mesh, gyro_medium):
        pencil = assemble_scalar_te(small_rect_mesh, gyro_medium)
        w = np.linalg.eigvalsh(pencil.M.toarray())
        assert w.min() > 0

    def test_te_dimension_counts_all_nodes(self, small_rect_mesh, gyro_medium):
        pencil = assemble_scalar_te(small_rect_mesh, gyro_medium)
        assert pencil.primal_dim == small_rect_mesh.num_nodes

    def test_tm_dimension_counts_interior_nodes(self, small_rect_mesh,
                                                gyro_medium):
        pencil = assemble_scalar_tm(small_rect_mesh, gyro_medium)
        assert pencil.primal_dim == (~small_rect_mesh.boundary_node).sum()

    def test_tm_stiffness_positive_definite(self, small_rect_mesh, gyro_medium):
        pencil = assemble_scalar_tm(small_rect_mesh, gyro_medium)
        w = np.linalg.eigvalsh(pencil.K.toarray())
        assert w.min() > 0

    def test_tm_rejects_mesh_without_interior(self, unit_square_mesh,
                                              gyro_medium):
        with pytest.raises(AssemblyError, match="interior"):
            assemble_scalar_tm(unit_square_mesh, gyro_medium)

    def test_isotropic_stiffness_matches_textbook_laplacian(self):
        mesh = generate_rectangle(1.3, 0.9, 3, 2)
        pencil = assemble_scalar_te(mesh, MediumSpec.isotropic())
        expected = p1_laplacian_reference(mesh)
        assert np.allclose(pencil.K.toarray(), expected, atol=1e-13)


class TestVectorAssembly:
    def test_te_dof_counts_on_2x2_square(self, gyro_medium):
        mesh = generate_rectangle(1.0, 1.0, 2, 2)
        assert mesh.num_edges == 16
        pencil = assemble_vector_te(mesh, gyro_medium)
        assert pencil.primal_dim == 8    # interior edges
        assert pencil.multiplier_dim == 1  # the single interior node

    def test_tm_primal_counts_all_edges(self, small_rect_mesh, gyro_medium):
        pencil = assemble_vector_tm(small_rect_mesh, gyro_medium)
        assert pencil.primal_dim == small_rect_mesh.num_edges
        assert pencil.multiplier_dim == small_rect_mesh.num_nodes - 1

    def test_blocks_hermitian_and_b_positive_definite(self, small_rect_mesh,
                                                      gyro_medium):
        for assemble in (assemble_vector_te, assemble_vector_tm):
            pencil = assemble(small_rect_mesh, gyro_medium)
            assert hermiticity_defect(pencil.K) <= 1e-12
            assert hermiticity_defect(pencil.M) <= 1e-12
            p = pencil.primal_dim
            b = pencil.M[:p, :p].toarray()
            assert np.linalg.eigvalsh(b).min() > 0

    def test_coupling_is_mass_times_gradient(self, small_rect_mesh,
                                             gyro_medium):
        pencil = assemble_vector_tm(small_rect_mesh, gyro_medium)
        reference = coupling_reference(small_rect_mesh,
                                       gyro_medium.eps_t.inverse())
        c = pencil.constraint_block().toarray()
        assert np.abs(c - reference[:, 1:]).max() <= 1e-14 * np.abs(c).max()

    def test_curl_kills_gradients(self, small_rect_mesh, gyro_medium):
        for assemble in (assemble_vector_te, assemble_vector_tm):
            pencil = assemble(small_rect_mesh, gyro_medium)
            residual = abs(pencil.K @ pencil.gradient).max()
            assert residual <= 1e-12 * abs(pencil.K).max()

    @pytest.mark.parametrize("mesh", [
        lambda: generate_rectangle(1.2e-3, 1.0e-3, 4, 4),
        lambda: generate_annulus(1e-3, 2e-3, 2, 12),
    ], ids=["rectangle", "coax"])
    def test_stiffness_is_the_curl_gram_matrix(self, mesh, gyro_medium):
        # K = B^H B bit for bit, and B^H and B annihilate the kernel and
        # the harmonic fields that the solve builds on
        mesh = mesh()
        for assemble in (assemble_vector_te, assemble_vector_tm):
            pencil = assemble(mesh, gyro_medium)
            B = pencil.curl
            assert B.dtype == np.float64
            assert B.shape == (mesh.num_triangles, pencil.primal_dim)
            gram = (B.T @ B).astype(pencil.M.dtype)
            assert (pencil.K != gram).nnz == 0
            scale = abs(B).max()
            kernel, harmonic = pencil.kernel, pencil.harmonic
            assert abs(B.T @ kernel).max(initial=0) <= 1e-15 * scale
            assert np.allclose(kernel.T @ kernel, np.eye(kernel.shape[1]))
            assert abs(B @ harmonic).max(initial=0) <= 1e-15 * scale
            assert harmonic.shape[1] == mesh.num_boundary_components - 1
        assert pencil.kernel.shape[1] == 0  # TM: B^H is one to one

    def test_tm_pin_leaves_no_zero_multiplier_column(self, small_rect_mesh,
                                                     gyro_medium):
        pencil = assemble_vector_tm(small_rect_mesh, gyro_medium)
        c = pencil.constraint_block()
        col_norms = np.abs(c.toarray()).sum(axis=0)
        assert (col_norms > 0).all()

    def test_coupling_tensor_identity(self, small_rect_mesh, gyro_medium):
        # inverse transverse permittivity equals mu_t / (eps*mu + a*b)
        from wgcutoff import product_scalar
        direct = assemble_vector_tm(small_rect_mesh, gyro_medium)
        product = product_scalar(gyro_medium)
        _, scaled = _vector_matrices(
            small_rect_mesh,
            TransverseTensor(gyro_medium.mu / product,
                             gyro_medium.b / product),
            1.0 / gyro_medium.eps_zz,
        )
        # TM keeps every edge, so the pencil's mass block is the whole matrix
        diff = (direct.M - scaled).tocoo()
        scale = np.abs(direct.M.data).max()
        top = np.abs(diff.data).max() if diff.nnz else 0.0
        assert top <= 1e-14 * scale

    def test_te_rejects_mesh_without_interior_edges(self, unit_triangle_mesh,
                                                    gyro_medium):
        with pytest.raises(AssemblyError, match="interior"):
            assemble_vector_te(unit_triangle_mesh, gyro_medium)


class TestAssemblyInvariance:
    def test_triangle_order_shuffle_changes_nothing(self, gyro_medium):
        mesh = generate_rectangle(1.0, 0.7, 3, 3)
        rng = np.random.default_rng(0)
        perm = rng.permutation(mesh.num_triangles)
        shuffled = build_topology(mesh.nodes, mesh.triangles[perm])
        for assemble in (assemble_scalar_te, assemble_vector_tm):
            a = assemble(mesh, gyro_medium)
            b = assemble(shuffled, gyro_medium)
            assert np.abs((a.K - b.K).toarray()).max() <= 1e-14 * np.abs(a.K.data).max()
            assert np.abs((a.M - b.M).toarray()).max() <= 1e-14 * np.abs(a.M.data).max()

    def test_cyclic_vertex_rotation_changes_nothing(self, gyro_medium):
        mesh = generate_rectangle(1.0, 0.7, 3, 2)
        rotated = mesh.triangles.copy()
        rotated[::2] = rotated[::2][:, [1, 2, 0]]
        rotated[1::2] = rotated[1::2][:, [2, 0, 1]]
        other = build_topology(mesh.nodes, rotated)
        for assemble in (assemble_scalar_te, assemble_vector_te,
                         assemble_vector_tm):
            a = assemble(mesh, gyro_medium)
            b = assemble(other, gyro_medium)
            assert np.abs((a.K - b.K).toarray()).max() <= 1e-13 * np.abs(a.K.data).max()

    def test_node_renumbering_conjugates_scalar_pencil(self, gyro_medium):
        mesh = generate_rectangle(0.9, 0.8, 3, 2)
        rng = np.random.default_rng(7)
        perm = rng.permutation(mesh.num_nodes)  # new index of each old node
        renumbered = build_topology(mesh.nodes[np.argsort(perm)],
                                    perm[mesh.triangles])
        a = assemble_scalar_te(mesh, gyro_medium).K.toarray()
        b = assemble_scalar_te(renumbered, gyro_medium).K.toarray()
        assert np.allclose(b[np.ix_(perm, perm)], a, atol=1e-14)

    def test_node_renumbering_preserves_vector_spectrum(self, gyro_medium):
        mesh = generate_rectangle(0.9, 0.8, 3, 2)
        rng = np.random.default_rng(8)
        perm = rng.permutation(mesh.num_nodes)
        renumbered = build_topology(mesh.nodes[np.argsort(perm)],
                                    perm[mesh.triangles])
        from wgcutoff.eigensolve import solve
        wa = solve(assemble_vector_tm(mesh, gyro_medium), 3).eigenvalues
        wb = solve(assemble_vector_tm(renumbered, gyro_medium), 3).eigenvalues
        assert np.allclose(wa, wb, rtol=1e-9, atol=1e-6 * max(abs(wa).max(), 1))


ASSEMBLERS = {"scalar_te": assemble_scalar_te, "scalar_tm": assemble_scalar_tm,
              "vector_te": assemble_vector_te, "vector_tm": assemble_vector_tm}
ARITHMETIC_MEDIA = {
    "gyro": MediumSpec(TransverseTensor(2.0, -1.0), 1.0,
                       TransverseTensor(1.0, 0.5), 2.0),
    "alpha=0": MediumSpec(TransverseTensor(2.0, 0.0), 1.0,
                          TransverseTensor(1.0, 0.0), 2.0),
    "isotropic": MediumSpec.isotropic(),
}


class TestPencilArithmetic:
    """A pencil is real exactly where its medium makes it real."""

    @pytest.mark.parametrize("medium", ARITHMETIC_MEDIA)
    @pytest.mark.parametrize("route", ASSEMBLERS)
    def test_dtype_per_route_and_medium(self, small_rect_mesh, route, medium):
        pencil = ASSEMBLERS[route](small_rect_mesh, ARITHMETIC_MEDIA[medium])
        real = medium != "gyro" or route == "scalar_tm"
        expected = np.float64 if real else np.complex128
        assert pencil.K.dtype == pencil.M.dtype == expected

    @pytest.mark.parametrize("mesh", [
        lambda: generate_rectangle(1.2e-3, 1.0e-3, 24, 20),
        lambda: generate_annulus(1e-3, 2e-3, 4, 48),
        lambda: refine_uniform(generate_annulus(0.0, 1e-3, 4, 24)),
    ], ids=["rectangle", "coax", "disc"])
    def test_gyrotropic_tm_term_is_rounding(self, mesh, gyro_medium):
        # with the full eps_t, the interior block of the scalar TM
        # stiffness holds only rounding in its imaginary part, and its real
        # part is the real pencil's K
        mesh = mesh()
        stiffness, _ = _scalar_matrices(mesh, gyro_medium.eps_t,
                                        gyro_medium.eps_zz)
        keep = np.flatnonzero(~mesh.boundary_node)
        full = stiffness[keep][:, keep].tocsr()
        assert stiffness.dtype == np.complex128
        assert (np.abs(full.data.imag).max()
                <= 1e-14 * np.abs(full.data).max())
        K = assemble_scalar_tm(mesh, gyro_medium).K
        for got, want in ((K.data, full.data.real), (K.indices, full.indices),
                          (K.indptr, full.indptr)):
            assert got.tobytes() == np.ascontiguousarray(want).tobytes()


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_random_assembly_hermiticity(seed):
    rng = np.random.default_rng(seed)
    mesh = random_structured_mesh(rng)
    spec = random_valid_medium(rng)
    assemblies = [assemble_scalar_te(mesh, spec)]
    if (~mesh.boundary_node).any():
        assemblies.append(assemble_scalar_tm(mesh, spec))
        if (~mesh.boundary_edge).any():
            assemblies.append(assemble_vector_te(mesh, spec))
    assemblies.append(assemble_vector_tm(mesh, spec))
    for pencil in assemblies:
        assert hermiticity_defect(pencil.K) <= 1e-12
        assert hermiticity_defect(pencil.M) <= 1e-12
