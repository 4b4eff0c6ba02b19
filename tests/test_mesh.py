import functools
import hashlib
import math
import re
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wgcutoff import (
    MeshError,
    build_topology,
    export_mesh,
    generate_annulus,
    generate_rectangle,
    generate_rectilinear_polygon,
    import_mesh,
    refine_uniform,
)
from wgcutoff import mesh as mesh_module
from wgcutoff.mesh import signed_areas
from conftest import CORRIDOR_VERTICES, RIDGE_VERTICES


def euler_ok(mesh):
    return mesh.euler_deficit() == 0


class TestBuildTopology:
    def test_single_triangle(self, unit_triangle_mesh):
        m = unit_triangle_mesh
        assert (m.num_nodes, m.num_edges, m.num_triangles) == (3, 3, 1)
        assert m.num_boundary_components == 1
        assert m.boundary_edge.all()
        assert m.boundary_node.all()

    def test_unit_square(self, unit_square_mesh):
        m = unit_square_mesh
        assert (m.num_nodes, m.num_edges, m.num_triangles) == (4, 5, 2)
        assert (~m.boundary_edge).sum() == 1  # the diagonal
        assert m.num_boundary_components == 1

    def test_annulus_has_two_boundary_components(self):
        m = generate_annulus(1e-3, 2e-3, 2, 8)
        assert m.num_boundary_components == 2

    def test_degenerate_triangle_rejected(self):
        with pytest.raises(MeshError, match="degenerate"):
            build_topology([(0, 0), (1, 0), (2, 0)], [(0, 1, 2)])

    def test_clockwise_triangle_rejected(self):
        with pytest.raises(MeshError, match="degenerate|clockwise"):
            build_topology([(0, 0), (1, 0), (0, 1)], [(0, 2, 1)])

    @pytest.mark.parametrize("nodes", [
        [(0, 0), (1e300, 0), (0, 1e300)],       # the area overflows
        [(0, 0), (1e300, 0), (1e300, 1e-3)],    # the longest side squared
        [(0, 0), (1e300, 1e300), (1e300, 2e300)],   # inf - inf is NaN
    ])
    def test_overflowing_triangle_rejected_without_a_warning(self, nodes):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(MeshError) as info:
                build_topology(nodes, [(0, 1, 2)])
        assert str(info.value) == ("triangle 0 is too large: its area or "
                                   "squared side overflows float64")

    @pytest.mark.parametrize("chunk", [2, 1 << 16])
    def test_first_bad_triangle_named_across_chunks(self, chunk):
        m = generate_rectangle(1.0, 1.0, 3, 3)
        tris = m.triangles.copy()
        tris[[5, 7]] = tris[[5, 7], ::-1]
        with mock.patch.object(mesh_module, "_CHUNK", chunk):
            with pytest.raises(MeshError, match="clockwise triangle 5 "):
                build_topology(m.nodes, tris)

    @pytest.mark.parametrize("scale", [1e-12, 1.0, 1e12])
    def test_degeneracy_is_relative_to_the_longest_side(self, scale):
        # a right triangle is fine at any scale; a sliver whose height is
        # 1e-13 of its base is rejected at any scale
        build_topology(scale * np.array([(0, 0), (1, 0), (0, 1)]), [(0, 1, 2)])
        with pytest.raises(MeshError, match="degenerate"):
            build_topology(scale * np.array([(0, 0), (1, 0), (0.5, 1e-13)]),
                           [(0, 1, 2)])

    def test_non_manifold_edge_rejected(self):
        nodes = [(0, 0), (1, 0), (0, 1), (0, -1), (-1, 1)]
        tris = [(0, 1, 2), (0, 3, 1), (0, 1, 4)]
        with pytest.raises(MeshError, match="non-manifold"):
            build_topology(nodes, tris)

    def test_hanging_node_rejected(self):
        # the full edge 0-1 above faces two half edges 0-2, 2-1 below
        nodes = [(0, 0), (1, 0), (0.5, 0.0), (0.0, 1.0), (0.5, -1.0)]
        tris = [(0, 1, 3), (0, 4, 2), (2, 4, 1)]
        with pytest.raises(MeshError, match="non-conforming"):
            build_topology(nodes, tris)

    def test_duplicate_triangle_rejected(self):
        with pytest.raises(MeshError, match="duplicate"):
            build_topology([(0, 0), (1, 0), (0, 1)], [(0, 1, 2), (1, 2, 0)])

    def test_unused_node_rejected(self):
        with pytest.raises(MeshError, match="not used"):
            build_topology([(0, 0), (1, 0), (0, 1), (5, 5)], [(0, 1, 2)])

    @pytest.mark.parametrize("pieces", [2, 3])
    def test_mesh_in_pieces_rejected(self, pieces):
        nodes = [(3.0 * k + x, y) for k in range(pieces)
                 for x, y in [(0, 0), (1, 0), (0, 1)]]
        tris = [(3 * k, 3 * k + 1, 3 * k + 2) for k in range(pieces)]
        with pytest.raises(MeshError, match=f"Euler deficit {2 * (pieces - 1)} "):
            build_topology(nodes, tris)

    def test_import_of_two_separate_triangles_rejected(self):
        text = ("nodes 6\n0 0\n1 0\n0 1\n2 2\n3 2\n2 3\n"
                "triangles 2\n0 1 2\n3 4 5\n")
        with pytest.raises(MeshError, match="not one connected piece: "
                                            "Euler deficit 2 "):
            import_mesh(text)

    @pytest.mark.parametrize("limit, count, what, refine", [
        (15, 16, "nodes", False), (32, 33, "edges", False),
        (48, 49, "nodes", True), (119, 120, "edges", True),
    ])
    def test_index_limit(self, limit, count, what, refine):
        """Past ``_INDEX_LIMIT`` nodes or edges the int32 index arrays
        would wrap; the 3 x 3 rectangle has 16 nodes and 33 edges, its
        refinement 49 and 120."""
        m = generate_rectangle(1.0, 1.0, 3, 3)
        with mock.patch.object(mesh_module, "_INDEX_LIMIT", limit):
            with pytest.raises(MeshError) as info:
                if refine:
                    refine_uniform(m)
                else:
                    build_topology(m.nodes, m.triangles)
        assert str(info.value) == (f"mesh has {count} {what}, more than the "
                                   f"int32 index limit {limit}")
        with mock.patch.object(mesh_module, "_INDEX_LIMIT", 120):
            refine_uniform(build_topology(m.nodes, m.triangles))

    def test_interior_edges_traversed_oppositely(self, unit_square_mesh):
        m = unit_square_mesh
        sums = np.zeros(m.num_edges, dtype=int)
        np.add.at(sums, m.tri_edges.ravel(), m.tri_edge_signs.ravel())
        assert (sums[~m.boundary_edge] == 0).all()
        assert (np.abs(sums[m.boundary_edge]) == 1).all()


class TestGenerateRectangle:
    def test_single_cell(self):
        m = generate_rectangle(1.0, 1.0, 1, 1)
        assert (m.num_nodes, m.num_triangles, m.num_edges) == (4, 2, 5)

    def test_counts_12x10(self):
        m = generate_rectangle(1.2e-3, 1.0e-3, 12, 10)
        # V = 13*11, T = 2*120, E = V + T - 1 for one boundary loop
        assert (m.num_nodes, m.num_triangles, m.num_edges) == (143, 240, 382)

    @given(nx=st.integers(1, 6), ny=st.integers(1, 6),
           a=st.floats(0.1, 10), b=st.floats(0.1, 10))
    @settings(max_examples=25, deadline=None)
    def test_euler_relation(self, nx, ny, a, b):
        m = generate_rectangle(a, b, nx, ny)
        assert m.num_boundary_components == 1
        assert m.num_nodes - m.num_edges + m.num_triangles == 1

    def test_all_areas_positive(self):
        m = generate_rectangle(2.0, 1.0, 3, 2)
        assert (signed_areas(m.nodes, m.triangles) > 0).all()

    def test_rejects_bad_inputs(self):
        with pytest.raises(MeshError):
            generate_rectangle(-1.0, 1.0, 2, 2)
        with pytest.raises(MeshError):
            generate_rectangle(1.0, 1.0, 0, 2)

    @pytest.mark.parametrize("a, b", [(math.nan, 1.0), (1.0, math.inf),
                                      (-math.inf, 1.0), (0.0, 1.0)])
    def test_rejects_non_finite_or_non_positive_sides(self, a, b):
        with pytest.raises(MeshError, match="positive and finite"):
            generate_rectangle(a, b, 2, 2)


class TestGenerateAnnulus:
    def test_annulus_counts_and_components(self):
        m = generate_annulus(1e-3, 2e-3, 4, 32)
        assert m.num_boundary_components == 2
        assert m.num_nodes == (4 + 1) * 32

    def test_disc_counts_and_components(self):
        m = generate_annulus(0.0, 2e-3, 4, 32)
        assert m.num_boundary_components == 1
        assert m.num_nodes == 4 * 32 + 1

    @given(nr=st.integers(1, 4), ntheta=st.integers(3, 12),
           inner=st.booleans())
    @settings(max_examples=25, deadline=None)
    def test_euler_relation(self, nr, ntheta, inner):
        r1 = 0.5 if inner else 0.0
        m = generate_annulus(r1, 1.0, nr, ntheta)
        assert euler_ok(m)

    def test_rejects_bad_inputs(self):
        with pytest.raises(MeshError):
            generate_annulus(2e-3, 1e-3, 2, 8)
        with pytest.raises(MeshError):
            generate_annulus(0.0, 1e-3, 2, 2)

    @pytest.mark.parametrize("r1, r2", [(math.nan, 1.0), (0.0, math.nan),
                                        (0.5, math.inf), (-0.5, 1.0)])
    def test_rejects_non_finite_or_negative_radii(self, r1, r2):
        with pytest.raises(MeshError, match="finite radii"):
            generate_annulus(r1, r2, 2, 8)


def polygon_reference(verts, h_target):
    """The cell-by-cell loop that ``generate_rectilinear_polygon`` replaced:
    the nodes and triangles it hands to ``build_topology``."""
    verts = [(float(x), float(y)) for x, y in verts]
    (xmin, ymin), (xmax, ymax) = np.min(verts, axis=0), np.max(verts, axis=0)
    nx = max(1, int(math.ceil((xmax - xmin) / h_target - 1e-12)))
    ny = max(1, int(math.ceil((ymax - ymin) / h_target - 1e-12)))
    hx, hy = (xmax - xmin) / nx, (ymax - ymin) / ny
    xs, ys = xmin + hx * np.arange(nx + 1), ymin + hy * np.arange(ny + 1)
    mx, my = 1e-9 * hx, 1e-9 * hy
    edges = list(zip(verts, verts[1:] + verts[:1]))

    def centre_inside(px, py):  # even-odd; on the outline counts as outside
        inside = False
        for (x1, y1), (x2, y2) in edges:
            if y1 == y2:
                if py == y1 and min(x1, x2) <= px <= max(x1, x2):
                    return False
            else:
                if px == x1 and min(y1, y2) <= py <= max(y1, y2):
                    return False
                if (y1 > py) != (y2 > py) and px < x1:
                    inside = not inside
        return inside

    def keep(i, j):
        cx0, cx1, cy0, cy1 = xs[i], xs[i + 1], ys[j], ys[j + 1]
        if not centre_inside(0.5 * (cx0 + cx1), 0.5 * (cy0 + cy1)):
            return False
        for (x1, y1), (x2, y2) in edges:  # no edge through the open cell
            if y1 == y2:
                if (cy0 + my < y1 < cy1 - my and max(min(x1, x2), cx0)
                        < min(max(x1, x2), cx1) - mx):
                    return False
            elif (cx0 + mx < x1 < cx1 - mx and max(min(y1, y2), cy0)
                    < min(max(y1, y2), cy1) - my):
                return False
        return True

    node_id, tris = {}, []  # node ids in order of first use
    for j in range(ny):
        for i in range(nx):
            if keep(i, j):
                corners = ((i, j), (i + 1, j), (i, j + 1), (i + 1, j + 1))
                ll, lr, ul, ur = [node_id.setdefault(c, len(node_id))
                                  for c in corners]
                tris += [[ll, lr, ur], [ll, ur, ul]]
    if not tris:
        raise MeshError("no grid cell lies inside the polygon; decrease h_target")
    nodes = [(xs[a], ys[b]) for a, b in node_id]
    return np.asarray(nodes, dtype=float), np.asarray(tris, dtype=np.int64)


class TestGenerateRectilinearPolygon:
    def test_matches_cell_by_cell_reference(self):
        # L-shapes and two blocks joined by a corridor, with corners on and
        # off the grid lines; a corridor can vanish into two pieces
        rng = np.random.default_rng(17)
        for _ in range(150):
            w, h, x1, y1, x2, y2 = rng.uniform(0.05, 1, 6)
            x1, x2 = sorted((x1 * w, x2 * w))
            y1, y2 = sorted((y1 * h, y2 * h))
            if rng.random() < 0.5:
                verts = [(0, 0), (w, 0), (w, y1), (x1, y1), (x1, h), (0, h)]
            else:
                verts = [(0, 0), (x1, 0), (x1, y1), (x2, y1), (x2, 0), (w, 0),
                         (w, h), (x2, h), (x2, y2), (x1, y2), (x1, h), (0, h)]
            if rng.random() < 0.3:
                verts = [(round(x, 1), round(y, 1)) for x, y in verts]
            pitch = float(rng.choice([0.05, 0.1, rng.uniform(0.03, 0.3)]))
            try:
                mesh_module._validate_rectilinear(verts)
                nodes, tris = polygon_reference(verts, pitch)
                build_topology(nodes, tris)
            except MeshError as exc:
                with pytest.raises(MeshError, match=re.escape(str(exc))):
                    generate_rectilinear_polygon(verts, pitch)
                continue
            m = generate_rectilinear_polygon(verts, pitch)
            np.testing.assert_array_equal(m.nodes, nodes, strict=True)
            assert m.triangles.dtype == np.int32
            np.testing.assert_array_equal(m.triangles.astype(np.int64), tris,
                                          strict=True)

    def test_plain_rectangle_matches_structured(self):
        # sides and pitch are binary fractions, so both grids are exact
        rect = generate_rectangle(1.0, 0.5, 4, 2)
        poly = generate_rectilinear_polygon(
            [(0, 0), (1.0, 0), (1.0, 0.5), (0, 0.5)], 0.25)
        assert poly.num_nodes == rect.num_nodes
        assert poly.num_triangles == rect.num_triangles
        assert poly.num_edges == rect.num_edges
        # same cells in the same order, split corner for corner alike
        np.testing.assert_array_equal(poly.nodes[poly.triangles],
                                      rect.nodes[rect.triangles])

    def test_l_shape_cells(self):
        # three unit squares in an L; pitch 1 keeps 3 cells -> 6 triangles
        verts = [(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)]
        m = generate_rectilinear_polygon(verts, 1.0)
        assert m.num_triangles == 6
        assert m.num_nodes == 8
        assert euler_ok(m)

    def test_double_ridge_is_valid(self):
        verts = [(0, 0), (1.0, 0), (1.0, 0.3), (1.4, 0.3), (1.4, 0),
                 (2.4, 0), (2.4, 1.0), (1.4, 1.0), (1.4, 0.7), (1.0, 0.7),
                 (1.0, 1.0), (0, 1.0)]
        m = generate_rectilinear_polygon([(x * 1e-3, y * 1e-3)
                                          for x, y in verts], 0.1e-3)
        assert euler_ok(m)
        assert m.num_boundary_components == 1
        area = signed_areas(m.nodes, m.triangles).sum()
        assert area == pytest.approx(2.16e-6, rel=1e-9)

    def test_corridor_narrower_than_h_rejected(self):
        # at 0.25 mm no cell of the corridor is kept: two islands
        with pytest.raises(MeshError, match="Euler deficit 2 "):
            generate_rectilinear_polygon(CORRIDOR_VERTICES, 0.25e-3)
        m = generate_rectilinear_polygon(CORRIDOR_VERTICES, 0.1e-3)
        assert euler_ok(m)
        assert m.num_boundary_components == 1

    def test_rejects_clockwise(self):
        with pytest.raises(MeshError):
            generate_rectilinear_polygon(
                [(0, 0), (0, 1), (1, 1), (1, 0)], 0.5)

    def test_rejects_non_rectilinear(self):
        with pytest.raises(MeshError, match="axis-aligned"):
            generate_rectilinear_polygon(
                [(0, 0), (1, 0.1), (1, 1), (0, 1)], 0.5)

    @pytest.mark.parametrize("h", [math.nan, math.inf, 0.0, -1.0])
    def test_rejects_non_finite_or_non_positive_h(self, h):
        with pytest.raises(MeshError, match="h_target"):
            generate_rectilinear_polygon([(0, 0), (1, 0), (1, 1), (0, 1)], h)

    @pytest.mark.parametrize("h, limit, grid", [(5e-324, 2**31 - 1, "inf"),
                                                 (1e-300, 2**31 - 1, "inf"),
                                                 (1 / 3, 15, "16")])
    def test_grid_past_the_index_limit_rejected(self, h, limit, grid):
        """A subnormal ``h_target`` makes the cell count infinite, and 1e-300
        the grid's node count; the 3 x 3 grid of the unit square has 16
        nodes."""
        with (mock.patch.object(mesh_module, "_INDEX_LIMIT", limit),
              warnings.catch_warnings()):
            warnings.simplefilter("error")
            with pytest.raises(MeshError) as info:
                generate_rectilinear_polygon([(0, 0), (1, 0), (1, 1), (0, 1)],
                                             h)
        assert str(info.value) == (f"mesh has {grid} grid nodes, more than "
                                   f"the int32 index limit {limit}")

    def test_rejects_self_intersection(self):
        verts = [(0, 0), (3, 0), (3, 2), (1, 2), (1, -1), (0, -1)]
        with pytest.raises(MeshError, match="intersect"):
            generate_rectilinear_polygon(verts, 0.5)


class TestRefineUniform:
    def test_square_counts(self, unit_square_mesh):
        fine = refine_uniform(unit_square_mesh)
        assert fine.num_triangles == 8
        assert fine.num_nodes == 9

    def test_quadruples_and_preserves_components(self):
        m = generate_annulus(1e-3, 2e-3, 2, 8)
        fine = refine_uniform(m)
        assert fine.num_triangles == 4 * m.num_triangles
        assert fine.num_boundary_components == m.num_boundary_components

    def test_total_area_preserved(self):
        m = generate_annulus(0.0, 2e-3, 3, 16)
        fine = refine_uniform(m)
        total = signed_areas(m.nodes, m.triangles).sum()
        total_fine = signed_areas(fine.nodes, fine.triangles).sum()
        assert total_fine == pytest.approx(total, rel=1e-12)

    def test_parent_nodes_preserved_bit_exact(self, small_rect_mesh):
        fine = refine_uniform(small_rect_mesh)
        assert np.array_equal(fine.nodes[:small_rect_mesh.num_nodes],
                              small_rect_mesh.nodes)

    def test_children_nest_in_parent(self, unit_square_mesh):
        m = unit_square_mesh
        fine = refine_uniform(m)
        parents = m.nodes[m.triangles]  # (T, 3, 2)
        for t, parent in enumerate(parents):
            span = np.array([parent.min(axis=0), parent.max(axis=0)])
            for child in fine.triangles[4 * t: 4 * t + 4]:
                pts = fine.nodes[child]
                assert (pts >= span[0] - 1e-15).all()
                assert (pts <= span[1] + 1e-15).all()

    def test_h_halves_for_straight_sides(self, small_rect_mesh):
        fine = refine_uniform(small_rect_mesh)
        assert fine.h == pytest.approx(small_rect_mesh.h / 2, rel=1e-12)

    @staticmethod
    def renumbered(mesh, seed):
        """``mesh`` through export and import, with its nodes renumbered and
        its triangles shuffled and rotated (still counter-clockwise)."""
        rng = np.random.default_rng(seed)
        perm = rng.permutation(mesh.num_nodes)
        where = np.argsort(perm)
        tris = where[mesh.triangles][rng.permutation(mesh.num_triangles)]
        shift = rng.integers(0, 3, (len(tris), 1))
        tris = np.take_along_axis(tris, (np.arange(3) + shift) % 3, axis=1)
        text = export_mesh(build_topology(mesh.nodes[perm], tris))
        return import_mesh(text)

    @pytest.mark.parametrize("name, mesh", [
        ("rectangle 12x10", lambda: generate_rectangle(1.2e-3, 1.0e-3, 12, 10)),
        ("annulus 4x48", lambda: generate_annulus(1e-3, 2e-3, 4, 48)),
        ("disc 5x30", lambda: generate_annulus(0.0, 2e-3, 5, 30)),
        ("annulus 12x144", lambda: generate_annulus(1e-3, 2e-3, 12, 144)),
        ("ridge h=0.1mm",
         lambda: generate_rectilinear_polygon(RIDGE_VERTICES, 0.1e-3)),
    ])
    @pytest.mark.parametrize("renumber", [False, True])
    def test_matches_build_topology(self, name, mesh, renumber):
        """Refinement derives its topology and skips the checks the parent
        passed, so it must give what building the child from scratch
        gives."""
        m = mesh()
        if renumber:
            m = self.renumbered(m, seed=len(name))
        components = m.num_boundary_components
        for level in range(1, 4):
            fine = refine_uniform(m)
            built = build_topology(fine.nodes, fine.triangles)
            for attr in MESH_ARRAYS:
                a, b = getattr(fine, attr), getattr(built, attr)
                assert (a.dtype, a.shape, a.flags.writeable) == \
                    (b.dtype, b.shape, b.flags.writeable), (level, attr)
                assert a.tobytes() == b.tobytes(), (level, attr)
            assert fine.h == built.h
            assert fine.euler_deficit() == 0
            assert fine.num_boundary_components == components
            m = fine

    def test_midpoints_rounding_onto_nodes_rejected(self):
        """At 2**52 m the spacing of doubles is 1 m, so the midpoints of
        the unit legs round onto a vertex and onto each other."""
        x = 2.0 ** 52
        m = build_topology([(x, 0.0), (x + 1, 0.0), (x, 1.0)], [(0, 1, 2)])
        with pytest.raises(MeshError) as info:
            refine_uniform(m)
        assert str(info.value) == ("degenerate or clockwise triangle 0 "
                                   "(signed area 0.000e+00 m^2)")
        # the duplicate coordinates are tested on their own as well
        with mock.patch.object(mesh_module, "_check_areas", return_value=1.0):
            with pytest.raises(MeshError, match="duplicate node coordinates"):
                refine_uniform(m)


class TestPackedHelpers:
    """The packed edge-key sort and the digit-table rows against what they
    replace."""

    @staticmethod
    def assert_unique_inverse(got, keys):
        """``got`` is ``np.unique(keys, return_inverse=True)`` with the
        inverse in int32."""
        uniq, inverse = np.unique(keys, return_inverse=True)
        assert (got[0].dtype, got[0].shape) == (uniq.dtype, uniq.shape)
        assert (got[1].dtype, got[1].shape) == (np.int32, inverse.shape)
        assert np.array_equal(got[0], uniq)
        assert np.array_equal(got[1], inverse)

    @pytest.mark.parametrize("high", [1, 7, 1000, 1 << 40])
    def test_unique_inverse_matches_np_unique(self, high):
        keys = np.random.default_rng(high).integers(0, high, 5000)
        with mock.patch.object(mesh_module.np, "unique",
                               wraps=np.unique) as unique:
            got = mesh_module._unique_inverse(keys.copy())
        unique.assert_not_called()
        self.assert_unique_inverse(got, keys)

    @pytest.mark.parametrize("size", [2, 5000])
    def test_keys_past_63_bits_use_np_unique(self, size):
        """Words of ``bits`` position bits hold keys below
        ``1 << (63 - bits)``; the first key past that goes to np.unique."""
        first_unpackable = 1 << (63 - (size - 1).bit_length())
        offsets = np.random.default_rng(size).integers(1, 4, size)
        for top, packed in ((first_unpackable - 1, True),
                            (first_unpackable, False)):
            keys = top - offsets
            keys[-1] = top
            with mock.patch.object(mesh_module.np, "unique",
                                   wraps=np.unique) as unique:
                got = mesh_module._unique_inverse(keys.copy())
            assert unique.called != packed
            self.assert_unique_inverse(got, keys)

    @pytest.mark.parametrize("num_nodes",
                             [1, 3, 10, 11, 100, 101, 1000, 10**5, 10**5 + 1])
    def test_index_rows_match_formatting(self, num_nodes):
        rng = np.random.default_rng(num_nodes)
        tris = rng.integers(0, num_nodes, (mesh_module._CHUNK + 5, 3))
        tris[:2] = [[0, num_nodes - 1, 0], [num_nodes - 1, 0, num_nodes - 1]]
        rows = list(mesh_module._index_rows(tris, num_nodes))
        assert len(rows) == 2
        assert "".join(rows) == "".join(mesh_module._rows("%d %d %d\n", tris))


class TestMeshIO:
    def test_minimal_file(self):
        text = "# a comment\nnodes 3\n0 0\n1 0\n0 1\n\ntriangles 1\n0 1 2\n"
        m = import_mesh(text)
        assert m.num_triangles == 1

    def test_roundtrip_is_identity_up_to_whitespace(self, small_rect_mesh):
        text = export_mesh(small_rect_mesh)
        again = export_mesh(import_mesh(text))
        norm = lambda s: [" ".join(line.split()) for line in s.strip().splitlines()]
        assert norm(text) == norm(again)

    def test_roundtrip_bit_exact_coordinates(self):
        m = generate_annulus(1e-3, 2e-3, 2, 7)
        back = import_mesh(export_mesh(m))
        assert np.array_equal(back.nodes, m.nodes)
        assert np.array_equal(back.triangles, m.triangles)

    def test_bad_index_reports_line(self):
        text = "nodes 3\n0 0\n1 0\n0 1\ntriangles 1\n0 1 7\n"
        with pytest.raises(MeshError, match="line 6"):
            import_mesh(text)

    def test_parse_error_reports_line(self):
        text = "nodes 2\n0 0\noops\ntriangles 1\n0 1 2\n"
        with pytest.raises(MeshError, match="line 3"):
            import_mesh(text)

    @pytest.mark.parametrize("text, message", [
        ("nodes -1\n0 0\ntriangles 0\n", "line 1: negative node count -1"),
        ("nodes 3\n0 0\n1 0\n0 1\ntriangles -2\n",
         "line 5: negative triangle count -2"),
        ("nodes 10000000000000\n0 0\n1 0\n0 1\ntriangles 1\n0 1 2\n",
         "line 1: node count 10000000000000 exceeds the 5 data lines that follow"),
        ("nodes 3\n0 0\n1 0\n0 1\ntriangles 10000000000000\n0 1 2\n",
         "line 5: triangle count 10000000000000 exceeds the 1 data lines that "
         "follow"),
    ])
    def test_bad_count_reports_line_before_allocating(self, text, message):
        with pytest.raises(MeshError) as info:
            import_mesh(text)
        assert str(info.value) == message


@given(st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_random_generator_invariants(seed):
    from conftest import random_structured_mesh
    rng = np.random.default_rng(seed)
    m = random_structured_mesh(rng)
    assert euler_ok(m)
    assert (signed_areas(m.nodes, m.triangles) > 0).all()
    # every interior edge shared by exactly 2 triangles, boundary by 1
    counts = np.bincount(m.tri_edges.ravel(), minlength=m.num_edges)
    assert set(np.unique(counts)) <= {1, 2}
    assert ((counts == 1) == m.boundary_edge).all()


def hanging_oracle(nodes, edges, boundary_edge, boundary_node):
    """The all-pairs broadcast check that ``_check_hanging_nodes`` replaced:
    its error message, or None when it accepts."""
    bidx = np.flatnonzero(boundary_edge)
    nidx = np.flatnonzero(boundary_node)
    if bidx.size == 0 or nidx.size == 0:
        return None
    a = nodes[edges[bidx, 0]]
    d = nodes[edges[bidx, 1]] - a
    lens2 = np.einsum("ij,ij->i", d, d)
    p = nodes[nidx]
    w = p[:, None, :] - a[None, :, :]
    t = np.einsum("nek,ek->ne", w, d) / lens2
    cross = np.abs(w[:, :, 0] * d[None, :, 1] - w[:, :, 1] * d[None, :, 0])
    on_open_segment = (cross <= 1e-9 * lens2) & (t > 1e-6) & (t < 1 - 1e-6)
    if not on_open_segment.any():
        return None
    n, e = np.argwhere(on_open_segment)[0]
    return (f"non-conforming mesh: node {nidx[n]} lies inside boundary "
            f"edge {edges[bidx[e], 0]}-{edges[bidx[e], 1]}")


def hanging_message(*args):
    try:
        mesh_module._check_hanging_nodes(*args)
    except MeshError as exc:
        return str(exc)
    return None


def topology_and_oracle(nodes, tris):
    """``build_topology``'s error (None if it accepts) and the oracle's
    verdict on the arrays its hanging-node check received."""
    seen = []
    check = mesh_module._check_hanging_nodes

    def spy(*args):
        seen.append(hanging_oracle(*args))
        check(*args)

    with mock.patch.object(mesh_module, "_check_hanging_nodes", spy):
        try:
            build_topology(nodes, tris)
            got = None
        except MeshError as exc:
            got = str(exc)
    assert len(seen) == 1, got  # no earlier check may reject the mesh
    return got, seen[0]


def random_parity_mesh(rng):
    """A rectangle, annulus, disc or L-shaped polygon, refined 0-2 times."""
    kind = rng.integers(0, 4)
    if kind == 0:
        mesh = generate_rectangle(float(rng.uniform(0.5, 2.0)),
                                  float(rng.uniform(0.5, 2.0)),
                                  int(rng.integers(1, 6)), int(rng.integers(1, 6)))
    elif kind in (1, 2):
        inner = float(rng.uniform(0.2, 0.8)) if kind == 1 else 0.0
        mesh = generate_annulus(inner, float(rng.uniform(1.0, 2.0)),
                                int(rng.integers(1, 4)), int(rng.integers(3, 13)))
    else:
        w, h = rng.integers(2, 6, size=2)
        wx, hy = rng.integers(1, w), rng.integers(1, h)
        verts = [(0, 0), (w, 0), (w, hy), (wx, hy), (wx, h), (0, h)]
        scale = float(rng.uniform(0.1, 3.0))
        mesh = generate_rectilinear_polygon(
            [(scale * x, scale * y) for x, y in verts], scale)
    for _ in range(int(rng.integers(0, 3))):
        mesh = refine_uniform(mesh)
    return mesh


def with_t_junctions(mesh, edge_ids, rng):
    """Split one triangle of each interior edge in ``edge_ids`` at the edge's
    midpoint; the triangle across the edge keeps it whole."""
    nodes = [tuple(p) for p in mesh.nodes]
    tris = mesh.triangles.tolist()
    split = set()
    for e in edge_ids:
        owners = np.flatnonzero((mesh.tri_edges == e).any(axis=1))
        t = int(rng.choice(owners))
        if t in split:
            continue
        split.add(t)
        k = list(mesh.tri_edges[t]).index(e)
        a, b, c = (tris[t][(k + i) % 3] for i in range(3))
        nodes.append(tuple(0.5 * (mesh.nodes[a] + mesh.nodes[b])))
        tris[t] = [a, len(nodes) - 1, c]
        tris.append([len(nodes) - 1, b, c])
    return nodes, tris


class TestHangingNodeParity:
    """The sorted-slab hanging-node check against the all-pairs oracle."""

    def test_random_meshes_and_t_junctions(self):
        rng = np.random.default_rng(2016)
        rejected = 0
        for _ in range(60):
            mesh = random_parity_mesh(rng)
            assert hanging_message(mesh.nodes, mesh.edges, mesh.boundary_edge,
                                   mesh.boundary_node) is None
            interior = np.flatnonzero(~mesh.boundary_edge)
            if interior.size == 0:
                continue
            picked = rng.permutation(interior)[:int(rng.integers(1, 4))]
            got, expected = topology_and_oracle(*with_t_junctions(mesh, picked, rng))
            assert got == expected
            rejected += got is not None
        assert rejected > 40

    @pytest.mark.parametrize("angle", [0.0, 90.0, 45.0, 30.0, 180.0])
    def test_constructed_t_junction(self, angle):
        # angle 0 / 180: horizontal long edge, 90: vertical, 30 / 45: diagonal
        nodes = np.array([(0, 0), (1, 0), (0.5, 0.0), (0.0, 1.0), (0.5, -1.0)])
        tris = [(0, 1, 3), (0, 4, 2), (2, 4, 1)]
        c, s = math.cos(math.radians(angle)), math.sin(math.radians(angle))
        rotated = 1e-3 * nodes @ np.array([[c, s], [-s, c]]) + [2e-3, -5e-3]
        got, expected = topology_and_oracle(rotated, tris)
        assert got == expected
        assert got == "non-conforming mesh: node 2 lies inside boundary edge 0-1"

    def test_t_junction_on_inner_loop_of_annulus(self):
        # split a triangle across a radial edge that starts on the inner circle
        mesh = generate_annulus(1e-3, 2e-3, 2, 12)
        on_inner = np.hypot(*mesh.nodes.T) < 1.5e-3
        radial = np.flatnonzero(~mesh.boundary_edge
                                & (on_inner[mesh.edges[:, 0]]
                                   != on_inner[mesh.edges[:, 1]]))
        rng = np.random.default_rng(3)
        for e in radial[:6]:
            got, expected = topology_and_oracle(*with_t_junctions(mesh, [e], rng))
            assert got == expected
            assert got is not None and f"node {mesh.num_nodes} " in got

    def test_point_soup_first_pair(self):
        # nodes placed at the test's tolerances around random edges, so
        # several pairs hit and the first one in (node, edge) order counts
        rng = np.random.default_rng(11)
        for _ in range(40):
            num_edges = int(rng.integers(1, 25))
            scale = 10.0 ** rng.uniform(-4, 2)
            a = rng.uniform(-1, 1, (num_edges, 2)) * scale
            d = rng.uniform(-1, 1, (num_edges, 2)) * scale
            axis_aligned = rng.integers(0, 3, num_edges)  # 0 free, 1 x, 2 y
            d[axis_aligned == 1, 1] = 0.0
            d[axis_aligned == 2, 0] = 0.0
            d[np.abs(d).sum(axis=1) == 0] = (scale, 0.0)
            placed = []
            for _ in range(int(rng.integers(0, 3 * num_edges))):
                e = int(rng.integers(num_edges))
                t = rng.choice([0.5, rng.uniform(), 1e-6 * 1.01, 1e-6 * 0.99,
                                1 - 1e-6 * 1.01, 1 - 1e-6 * 0.99])
                off = rng.choice([0.0, 1e-10, 0.99e-9, 1.01e-9, 1e-8, 1e-3])
                normal = np.array([-d[e, 1], d[e, 0]])
                placed.append(a[e] + t * d[e] + off * rng.choice([-1, 1]) * normal)
            nodes = np.concatenate([a, a + d, np.reshape(placed, (-1, 2)),
                                    rng.uniform(-1, 1, (5, 2)) * scale])
            perm = rng.permutation(len(nodes))
            nodes = nodes[perm]
            where = np.argsort(perm)
            edges = np.column_stack([where[:num_edges],
                                     where[num_edges:2 * num_edges]])
            boundary_edge = rng.random(num_edges) < 0.9
            boundary_node = rng.random(len(nodes)) < 0.9
            args = (nodes, edges, boundary_edge, boundary_node)
            expected = hanging_oracle(*args)
            assert hanging_message(*args) == expected
            with mock.patch.object(mesh_module, "_CHUNK", 5):
                assert hanging_message(*args) == expected


def reference_parse(text):
    """Today's reader, token by token: the arrays a valid file gives."""
    rows = [raw.split("#", 1)[0].split() for raw in text.splitlines()]
    rows = [r for r in rows if r]
    n = int(rows[0][1])
    nodes = np.array([[float(v) for v in r] for r in rows[1:n + 1]], dtype=float)
    tris = np.array([[int(v) for v in r] for r in rows[n + 2:]], dtype=np.int64)
    return nodes.reshape(-1, 2), tris.reshape(-1, 3)


SQUARE = "nodes 4\n0 0\n1 0\n1 1\n0 1\ntriangles 2\n0 1 2\n0 2 3\n"

#: File text -> the message the line-by-line reader gave before the block
#: parser existed (None where it parsed the file).
IMPORT_CASES = {
    "# head\nnodes 4 # count\n0 0\n1 0 # x\n# mid\n1 1\n0 1\ntriangles 2\n"
    "0 1 2 #t\n0 2 3\n# tail\n": None,
    "\n\nnodes 4\n0 0\n\n1 0\n1 1\n   \n0 1\n\t\ntriangles 2\n\n0 1 2\n0 2 3\n\n":
        None,
    SQUARE.replace("\n", "\r\n"): None,
    SQUARE.replace("\n", "\r"): None,
    SQUARE.replace("1 0\n", "1 0\x0c"): None,
    SQUARE.replace("1 0\n", "1\x0c0\n"): "line 3: expected 'x y'",
    SQUARE.replace("0 1 2\n", "0 1\x0b2\n"): "line 7: expected 'i j k'",
    SQUARE.replace("0 1\n", "0\xa01\n"): None,
    SQUARE.replace("1 1\n", "+1 1.\n").replace("0 0\n", "-0 -0.0\n"): None,
    # indented first rows of both blocks in a file that is not plain
    SQUARE.replace("\n", "\r\n").replace("\n0 0", "\n  0 0")
    .replace("\n0 1 2", "\n\t0 1 2"): None,
    "# empty\nnodes 0\ntriangles 0\n": None,
    SQUARE.replace("1 1\n", "1\xa01 # x\n"): None,
    SQUARE + "7 8 9\n": "line 9: trailing content",
    SQUARE + "end\n": "line 9: trailing content",
    SQUARE.replace("1 0\n", "1 0 5\n"): "line 3: expected 'x y'",
    SQUARE.replace("0 1 2\n", "0 1\n"): "line 7: expected 'i j k'",
    SQUARE.replace("1 0\n1 1\n", "1 0 1\n1\n"): "line 3: expected 'x y'",
    SQUARE.replace("0 1 2\n0 2 3\n", "0 1 2 0\n2 3\n"): "line 7: expected 'i j k'",
    "nodes 3\n0 0 0\n1 0 0\n0 1 0\ntriangles 1\n0 1 2\n": "line 2: expected 'x y'",
    SQUARE.replace("0 1 2\n0 2 3", "0 1 2 0\n0 2 3 0"): "line 7: expected 'i j k'",
    SQUARE.replace("1 0\n", "1 x\n"): "line 3: bad coordinate",
    SQUARE.replace("0 2 3", "0 two 3"): "line 8: bad node index",
    SQUARE.replace("0 2 3", "0 2.0 3"): "line 8: bad node index",
    SQUARE.replace("0 2 3", "0 2 4"): "line 8: node index out of range",
    SQUARE.replace("0 2 3", "0 -2 3"): "line 8: node index out of range",
    SQUARE.replace("triangles 2\n", ""): "line 6: expected 'triangles <count>'",
    "triangles 2\n0 1 2\n": "line 1: expected 'nodes <count>'",
    "nodes 4 5\n0 0\n": "line 1: expected 'nodes <count>'",
    "nodes four\n0 0\n": "line 1: bad node count 'four'",
    SQUARE.replace("triangles 2", "triangles 2.5"): "line 6: bad triangle count '2.5'",
    "": "unexpected end of file while reading header",
    "# nothing\n\n": "unexpected end of file while reading header",
    SQUARE.replace("nodes 4", "nodes 5"): "line 6: bad coordinate",
    SQUARE.replace("nodes 4", "nodes 3"): "line 5: expected 'triangles <count>'",
    SQUARE.replace("triangles 2", "triangles 1"): "line 8: trailing content",
}

#: Tokens at the edge of what ``float``/``int`` and the block parser accept.
ODD_TOKENS = ["inf", "-Infinity", "nan", "1e500", "1e-400", "-0", "+1", "01",
              ".5", "5.", "1e5", "1E+05", "1_0", "١", "0x10", "1d5", "1.5e",
              "nan(1)", "9223372036854775807", "9223372036854775808", "\x00"]


class TestImportParity:
    """The block parser against the line-by-line re-scan."""

    @staticmethod
    def parse(text):
        """The arrays ``import_mesh`` hands to ``build_topology``, or the
        re-scan's message."""
        with mock.patch.object(mesh_module, "build_topology",
                               lambda nodes, tris: (nodes, tris)):
            try:
                return import_mesh(text)
            except MeshError as exc:
                return str(exc)

    @staticmethod
    def rescan(text):
        with pytest.raises(MeshError) as info:
            mesh_module._raise_first_error(text)
        message = str(info.value)
        return None if message == "mesh file could not be parsed" else message

    @pytest.mark.parametrize("text", list(IMPORT_CASES))
    def test_cases_keep_their_result(self, text):
        got = self.parse(text)
        expected = IMPORT_CASES[text]
        if expected is None:
            nodes, tris = got
            ref_nodes, ref_tris = reference_parse(text)
            assert nodes.shape == ref_nodes.shape
            assert nodes.tobytes() == ref_nodes.tobytes()
            assert np.array_equal(tris, ref_tris)
        else:
            assert got == expected
        assert self.rescan(text) == expected

    @pytest.mark.parametrize("token", ODD_TOKENS)
    def test_odd_tokens_parse_alike(self, token):
        for text in (SQUARE.replace("1 1\n", f"{token} 1\n"),
                     SQUARE.replace("0 2 3", f"0 {token} 3")):
            got = self.parse(text)
            assert isinstance(got, tuple) == (self.rescan(text) is None)
            if isinstance(got, tuple):
                ref_nodes, ref_tris = reference_parse(text)
                assert got[0].tobytes() == ref_nodes.tobytes()
                assert np.array_equal(got[1], ref_tris)


#: Files the byte parser reads, beside the exported ones: blank lines in
#: and after the blocks, leading and trailing blanks on a row, tabs.
PLAIN_CASES = [
    "nodes 4\n0 0\n\n1 0\n  1 1\t\n0 1\n \t\ntriangles 2\n0 1 2\n\n0 2 3",
    "nodes 4 \n0 0\n1 0\n1 1\n0 1\n  triangles\t2\n0\t1 2 \n0 2 3\n\n  \n",
]


class TestBytePath:
    """The byte parser against the token-by-token reader and the re-scan."""

    @staticmethod
    def byte_parse(text):
        """``_parse_bytes``'s arrays, or None where it rejects ``text``."""
        try:
            return mesh_module._parse_bytes(text.encode("ascii"))
        except ValueError:
            return None

    def test_accepted_files_parse_as_token_by_token(self):
        texts = [*IMPORT_CASES, *PLAIN_CASES]
        for token in ODD_TOKENS:
            texts += [SQUARE.replace("1 1\n", f"{token} 1\n"),
                      SQUARE.replace("0 2 3", f"0 {token} 3")]
        accepted = 0
        for text in texts:
            if not text.isascii() or any(c in text
                                         for c in mesh_module._NOT_PLAIN):
                continue
            got = self.byte_parse(text)
            if got is None:
                assert text not in PLAIN_CASES
                continue
            accepted += 1
            assert TestImportParity.rescan(text) is None, text
            nodes, tris = reference_parse(text)
            assert got[0].tobytes() == nodes.tobytes(), text
            assert got[1].dtype == np.int32
            assert np.array_equal(got[1], tris), text
        assert accepted >= 10

    @pytest.mark.parametrize("text, message", [
        ("nodes 0\ntriangles 0\n", "mesh has no triangles"),
        ("# empty\r\nnodes 0\r\ntriangles 0\r\n", "mesh has no triangles"),
        ("nodes 3\n\n \ntriangles 1\n0 1 2\n",
         "line 1: node count 3 exceeds the 2 data lines that follow"),
        ("nodes 3\n\x1f\ntriangles 1\n0 1 2\n",
         "line 1: node count 3 exceeds the 2 data lines that follow"),
        ("nodes 3\n0 0\n1 0\n0 1\ntriangles 1\n\n",
         "line 5: triangle count 1 exceeds the 0 data lines that follow"),
    ])
    def test_blank_blocks_raise_without_a_warning(self, text, message):
        """``np.loadtxt`` warns on a block without rows, so it never
        reads one."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(MeshError) as info:
                import_mesh(text)
        assert str(info.value) == message

    def test_exported_and_commented_text_give_one_mesh(self):
        mesh = generate_annulus(1e-3, 2e-3, 4, 48)
        for _ in range(2):
            mesh = refine_uniform(mesh)
        text = export_mesh(mesh)
        commented = "# the same mesh\n" + text.replace("\n", "\r\n")
        meshes = []
        for source, normalised in ((text, False), (commented, True)):
            with mock.patch.object(mesh_module, "_normalised",
                                   wraps=mesh_module._normalised) as normalise:
                meshes.append(import_mesh(source))
            assert normalise.called == normalised
        exported_mesh, commented_mesh = meshes
        for attr in MESH_ARRAYS:
            a, b = getattr(exported_mesh, attr), getattr(commented_mesh, attr)
            assert (a.dtype, a.shape) == (b.dtype, b.shape), attr
            assert a.tobytes() == b.tobytes(), attr
        assert exported_mesh.h == commented_mesh.h
        assert mesh_digest(exported_mesh) == mesh_digest(mesh)

    @pytest.mark.parametrize("text, message", [
        (SQUARE.replace("0 2 3", f"0 {2**31} 3"),
         "line 8: node index out of range"),
        (SQUARE.replace("0 2 3", f"0 2 {2**63}"),
         "line 8: node index out of range"),
        (SQUARE.replace("nodes 4", f"nodes {2**40}"),
         f"line 1: node count {2**40} exceeds the 7 data lines that follow"),
    ])
    def test_numbers_past_int32_report_their_line(self, text, message):
        with pytest.raises(MeshError) as info:
            import_mesh(text)
        assert str(info.value) == message


MESH_ARRAYS = ("nodes", "triangles", "edges", "tri_edges", "tri_edge_signs",
               "boundary_node", "boundary_edge", "boundary_component")

#: The dtype of each array of a Mesh.
MESH_DTYPES = {"nodes": np.float64, "triangles": np.int32, "edges": np.int32,
               "tri_edges": np.int32, "tri_edge_signs": np.int8,
               "boundary_node": np.bool_, "boundary_edge": np.bool_,
               "boundary_component": np.int32}


def as_recorded(a):
    """An integer array as int64, the dtype the digests were recorded in."""
    return a.astype(np.int64) if a.dtype.kind == "i" else a


def mesh_digest(mesh):
    """SHA-256 over every array of ``mesh``, integer arrays as int64
    values, and ``h``."""
    digest = hashlib.sha256()
    for attr in MESH_ARRAYS:
        a = as_recorded(getattr(mesh, attr))
        digest.update(f"{attr} {a.dtype.str} {a.shape}\n".encode())
        digest.update(a.tobytes())
    digest.update(repr(mesh.h).encode())
    return digest.hexdigest()


class TestGeneratorDigests:
    """SHA-256 of ``nodes.tobytes()`` and ``triangles.tobytes()`` (as int64
    values), recorded from the per-cell loops that the grid builder
    replaced.  Annulus
    coordinates come from ``np.cos``/``np.sin``, so another NumPy build may
    change those digests."""

    L_SHAPE = [(0.0, 0.0), (1.0, 0.0), (1.0, 0.35), (0.45, 0.35),
               (0.45, 0.8), (0.0, 0.8)]  # outline between the lines of h = 0.1
    CASES = {
        "rectangle 12x10": (
            generate_rectangle, (1.2e-3, 1.0e-3, 12, 10),
            "f628404c48520693fbba5ea6044b47335c14a798bf44f43ad72fae267a0d16ce",
            "a8fd31f82715284e16c3be9c76b3d0169cf1cc57f7dd942bcdcbf8771a618a29"),
        "annulus 4x48": (
            generate_annulus, (1e-3, 2e-3, 4, 48),
            "6699fbb7119ea1a090e6b4fd5276066853e51233ccac2ba2f243ec36ab547e42",
            "26d150ffc6fc99132c943639d85e6fe34a4d352e60a88a05fc547fcd59f5694e"),
        "disc 16x100": (
            generate_annulus, (0.0, 2e-3, 16, 100),
            "72b0d77335a42ee7e6efd0cbe4df6d4b8ba457741705b8567aac4366302e6805",
            "a44f0a7e082a1d034067c39597256d9a3017329556a567201c9a0c05d0108fda"),
        "annulus 12x144": (
            generate_annulus, (1e-3, 2e-3, 12, 144),
            "5ca70d8a5eae1bf7e33eae1027f9f80126759ff48e8f91cdbc6575b290268fcf",
            "6a2d914cd08e843c507223b0f278f1fae2e3f19387dc6d81245defdb3c0643b0"),
        "ridge h=0.025mm": (
            generate_rectilinear_polygon, (RIDGE_VERTICES, 0.025e-3),
            "937a729e9691b859e03620fa12f4bec1e1bd77b7edbeb0555a97416e660d7173",
            "f24a25c2aed1eca25e652444aa2deee518c46bc4d99ccb57696449a1f53c46dc"),
        "L-shape h=0.1": (
            generate_rectilinear_polygon, (L_SHAPE, 0.1),
            "3b568a8e6eb53000e6dd2a3228b37e3f93f046083bfc79718430c8bc2d316b52",
            "dc5efac62113b334f3ddfcb0f4bf0a9ea7e85c5dadaf974b211cdae0ecf4a85e"),
    }

    @pytest.mark.parametrize("name", CASES)
    def test_generated_arrays_keep_their_digest(self, name):
        generate, args, nodes_sha, triangles_sha = self.CASES[name]
        m = generate(*args)
        assert hashlib.sha256(m.nodes.tobytes()).hexdigest() == nodes_sha
        assert (hashlib.sha256(as_recorded(m.triangles).tobytes()).hexdigest()
                == triangles_sha)

    @pytest.mark.parametrize("name", CASES)
    def test_arrays_have_their_dtype(self, name):
        generate, args, _, _ = self.CASES[name]
        m = generate(*args)
        for mesh in (m, refine_uniform(m), import_mesh(export_mesh(m))):
            assert {attr: getattr(mesh, attr).dtype for attr in MESH_ARRAYS} \
                == MESH_DTYPES


@functools.cache
def coax_l4():
    """The coax 4 x 48 refined 4 times: 49,920 nodes, past the 46,341 at
    which ``V**2`` exceeds ``2**31``."""
    mesh = generate_annulus(1e-3, 2e-3, 4, 48)
    for _ in range(4):
        mesh = refine_uniform(mesh)
    assert mesh.num_nodes == 49_920
    return mesh


class TestKeysPastInt32:
    """Edge keys ``lo * V + hi`` and triangle keys ``first * E + middle``
    that exceed ``2**31`` still find the faults they are formed to find."""

    def test_duplicate_triangle(self):
        m = coax_l4()
        with pytest.raises(MeshError, match="^duplicate triangle$"):
            build_topology(m.nodes, np.vstack([m.triangles, m.triangles[-1:]]))

    def test_reversed_triangle(self):
        m = coax_l4()
        tris = np.vstack([m.triangles, m.triangles[-1:, ::-1]])
        with pytest.raises(MeshError, match="^degenerate or clockwise "
                                            "triangle 98304 "):
            build_topology(m.nodes, tris)
        # the same fault past the area test: the reversed copy has the edges
        # of the original
        with mock.patch.object(mesh_module, "_check_areas", return_value=1.0):
            with pytest.raises(MeshError, match="^duplicate triangle$"):
                build_topology(m.nodes, tris)

    def test_triangle_keys_that_wrap_in_int32_stay_apart(self):
        # 4096 * 2**20 is 2**32: in int32 the two keys would both be 4097
        edge_ids = np.array([[0, 4097, 4098], [4096, 4097, 4099]], np.int32)
        assert not mesh_module._has_repeated_triangle(edge_ids, 2**20)
        assert mesh_module._has_repeated_triangle(edge_ids[[0, 1, 0]][:, ::-1],
                                                  2**20)

    def test_third_triangle_on_an_edge(self):
        """The last triangle mirrored (reversed) across an interior edge
        onto a new node: that edge has three triangles, named by the
        decoded edge key."""
        m = coax_l4()
        t = len(m.triangles) - 1
        j = int(np.flatnonzero(~m.boundary_edge[m.tri_edges[t]])[0])
        a, b, c = (int(m.triangles[t, (j + k) % 3]) for k in range(3))
        mid = 0.5 * (m.nodes[a] + m.nodes[b])
        d = mid - 0.3 * (m.nodes[c] - mid)
        with pytest.raises(MeshError) as info:
            build_topology(np.vstack([m.nodes, d]),
                           np.vstack([m.triangles, [b, a, m.num_nodes]]))
        lo, hi = sorted((a, b))
        assert str(info.value) == (f"non-manifold edge {lo}-{hi} shared by "
                                   "3 triangles")
        assert lo * m.num_nodes + hi > 2**31


class TestMeshLayerScaling:
    #: Every rewrite of the mesh layer has kept these digests; the
    #: coordinates come from ``np.cos``/``np.sin``, so another NumPy build
    #: may change them.
    COAX = ["4c547e29c8774c0100835e3008c7fc2f3488a4b41734109addbd1e4fffcc59b0",
            "d22fe6cff71f06b96186876567b6ce776778b254f91b33b152b66d045c3afd4b",
            "c4cccf0fa8177acfffde1597bc355cd03bf86156604d23e0e84399a787fff750",
            "6d930cad0517c81d3bcac3743285cbcb3a29f3bb6faa9ee1059e11abdbc69fdf"]
    COAX_L3_EXPORT = (
        "f107b0e588019f751b6191e3a1f4e920c82e4683a2ce532f689ca3ae5a14179b")
    RECT_48 = "7dd1fcbb19d42f823408b47f6fb6a49e72aeb6276f926293c53781d23f993b0a"

    #: Bound on each stage's traced peak at L5, in MiB, counting the arrays
    #: and text alive at the time.  Measured with int32/int8 arrays:
    #: refine 26.4, export 52.1, import 64.2 (with int64 arrays 51.2, 75.8
    #: and 130.2, under bounds of 64.7, 89.0 and 146.2); each bound adds
    #: 13.3 to its measurement.
    PEAK_MIB = {"refine": 39.7, "export": 65.4, "import": 77.5}

    def test_arrays_and_export_bit_identical(self):
        mesh = generate_annulus(1e-3, 2e-3, 4, 48)
        for level, expected in enumerate(self.COAX):
            if level:
                mesh = refine_uniform(mesh)
            assert mesh_digest(mesh) == expected, f"coax L{level}"
        text = export_mesh(mesh)
        assert hashlib.sha256(text.encode()).hexdigest() == self.COAX_L3_EXPORT
        with mock.patch.object(mesh_module, "_CHUNK", 1000):
            assert export_mesh(mesh) == text
        assert mesh_digest(import_mesh(text)) == self.COAX[3]
        rect = generate_rectangle(1.2e-3, 1.0e-3, 48, 48)
        assert mesh_digest(rect) == self.RECT_48

    def test_refine_and_round_trip_memory_is_linear(self):
        mesh = generate_annulus(1e-3, 2e-3, 4, 48)
        for _ in range(4):
            mesh = refine_uniform(mesh)
        peaks = {}

        def traced(stage, fn, arg):
            tracemalloc.reset_peak()
            result = fn(arg)
            peaks[stage] = tracemalloc.get_traced_memory()[1]
            return result

        tracemalloc.start()
        try:
            fine = traced("refine", refine_uniform, mesh)
            text = traced("export", export_mesh, fine)
            back = traced("import", import_mesh, text)
        finally:
            tracemalloc.stop()
        assert fine.num_nodes == 198_144
        assert mesh_digest(back) == mesh_digest(fine)
        mib = {stage: peak / 2**20 for stage, peak in peaks.items()}
        assert all(mib[stage] < bound
                   for stage, bound in self.PEAK_MIB.items()), mib
