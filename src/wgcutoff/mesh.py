"""Conforming triangular meshes of waveguide cross-sections.

A :class:`Mesh` stores node coordinates (meters), counter-clockwise triangles
and the derived edge topology: unique node-index pairs stored ``(lo, hi)``
with ``lo < hi``, per-triangle edge ids with orientation signs, boundary
flags, and the labelling of the boundary into connected components.  The
number of boundary components drives the expected count of TEM modes
downstream (one less than the number of components).

Generators are provided for structured rectangles, polar discs/annuli and
axis-aligned rectilinear polygons, together with uniform (red) refinement and
a line-oriented ASCII import/export format.  The generators and the importer
funnel through :func:`build_topology`, which validates the triangulation.
:func:`refine_uniform` derives the child's topology from its parent's and
runs again only the checks that its new midpoint coordinates can fail.

Meshes are immutable after construction (arrays are write-protected), so they
can be shared freely across threads.
"""

from __future__ import annotations

import io
import itertools
import math
import operator
from dataclasses import dataclass
from typing import NoReturn

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

#: A triangle whose signed area is at or below this fraction of its longest
#: side squared is rejected.  The test is relative, so it holds at every
#: length scale; it is a numerical guard far below any realistic element, not
#: a modelling knob.  Clockwise triangles fail it as well because their
#: signed area is negative.
AREA_RTOL = 1e-12


class MeshError(ValueError):
    """Invalid, non-conforming or non-manifold triangulation."""


@dataclass(frozen=True)
class Mesh:
    """Immutable triangulation with derived edge and boundary topology.

    Index arrays are int32, which holds up to ``2**31 - 1`` nodes and
    edges; every product of indices (edge keys) is formed in int64.

    Attributes
    ----------
    nodes : (V, 2) float64 array
        Node coordinates in meters.
    triangles : (T, 3) int32 array
        Node indices, counter-clockwise.
    edges : (E, 2) int32 array
        Unique edges as ``(lo, hi)`` node pairs, ``lo < hi``, sorted
        lexicographically.
    tri_edges : (T, 3) int32 array
        Global edge index of the local edges ``(0,1), (1,2), (2,0)``.
    tri_edge_signs : (T, 3) int8 array
        ``+1`` where the triangle traverses the edge from ``lo`` to ``hi``,
        ``-1`` otherwise.
    boundary_node, boundary_edge : bool arrays
        Flags over nodes / edges.
    boundary_component : (E,) int32 array
        Component id (0-based) for boundary edges, ``-1`` for interior ones.
    h : float
        Longest edge length (meters).
    """

    nodes: np.ndarray
    triangles: np.ndarray
    edges: np.ndarray
    tri_edges: np.ndarray
    tri_edge_signs: np.ndarray
    boundary_node: np.ndarray
    boundary_edge: np.ndarray
    boundary_component: np.ndarray
    h: float

    @property
    def num_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def num_triangles(self) -> int:
        return self.triangles.shape[0]

    @property
    def num_edges(self) -> int:
        return self.edges.shape[0]

    @property
    def num_boundary_components(self) -> int:
        if not self.boundary_edge.any():
            return 0
        return int(self.boundary_component.max()) + 1

    def euler_deficit(self) -> int:
        """``V - E + T - (2 - B)``; zero for a valid planar triangulation."""
        return (self.num_nodes - self.num_edges + self.num_triangles
                - (2 - self.num_boundary_components))


#: Largest node or edge count that the int32 index arrays hold.
_INDEX_LIMIT = np.iinfo(np.int32).max


def _check_index_limit(count: float, what: str) -> None:
    if count > _INDEX_LIMIT:
        raise MeshError(f"mesh has {count:.0f} {what}, more than the int32 "
                        f"index limit {_INDEX_LIMIT}")


def _tri_edge_signs(t: np.ndarray) -> np.ndarray:
    """``tri_edge_signs`` of the triangles ``t``: int8 ``+1`` where local
    edge j runs from ``t[:, j]`` up to ``t[:, j + 1]`` (mod 3), else ``-1``.
    Formed as ``2 b - 1`` on the bytes of the bool ``b``: ``np.where`` took
    four times as long on the 393k children of the coax refined five times."""
    return (t < t[:, [1, 2, 0]]).view(np.int8) * np.int8(2) - np.int8(1)


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _as_coords(points) -> np.ndarray:
    coords = np.asarray(points, dtype=float)
    if coords.ndim != 2 or coords.shape[1] != 2:
        raise MeshError(f"node coordinates must be (V, 2), got {coords.shape}")
    return np.ascontiguousarray(coords)


def signed_areas(nodes: np.ndarray, triangles: np.ndarray) -> np.ndarray:
    p = nodes[triangles]
    return 0.5 * ((p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
                  - (p[:, 2, 0] - p[:, 0, 0]) * (p[:, 1, 1] - p[:, 0, 1]))


def _boundary_components(edges, boundary_edge, num_nodes) -> np.ndarray:
    """Label boundary edges by connectivity through shared nodes."""
    component = np.full(edges.shape[0], -1, dtype=np.int32)
    bidx = np.flatnonzero(boundary_edge)
    if bidx.size == 0:
        return component
    be = edges[bidx]
    graph = coo_matrix(
        (np.ones(be.shape[0]), (be[:, 0], be[:, 1])),
        shape=(num_nodes, num_nodes),
    )
    _, node_label = connected_components(graph, directed=False)
    raw = node_label[be[:, 0]]
    # relabel by first appearance in edge order so ids are deterministic
    _, first = np.unique(raw, return_index=True)
    order = {raw[i]: rank for rank, i in enumerate(np.sort(first))}
    component[bidx] = [order[r] for r in raw]
    return component


#: Rows handled per batch: triangles tested by :func:`_check_areas`,
#: candidate (node, edge) pairs tested by :func:`_check_hanging_nodes`, text
#: rows formatted by :func:`_rows` (for :func:`export_mesh` and the VTK
#: export) and :func:`_index_rows`.
_CHUNK = 1 << 16


def _check_areas(nodes: np.ndarray, triangles: np.ndarray) -> float:
    """Reject the first triangle whose signed area or longest side squared
    overflows, then the first whose signed area is at or below
    ``AREA_RTOL`` times its longest side squared; return the longest side
    of all, which is the longest edge ``h``."""
    longest_sq = 0.0
    for s in range(0, len(triangles), _CHUNK):
        tris = triangles[s:s + _CHUNK]
        x, y = nodes[:, 0].take(tris), nodes[:, 1].take(tris)
        longest = np.zeros(tris.shape[0])
        # sides past about 1e154 m overflow, and inf - inf is NaN
        with np.errstate(over="ignore", invalid="ignore"):
            areas = signed_areas(nodes, tris)
            for a, b in ((0, 1), (1, 2), (2, 0)):
                dx, dy = x[:, b] - x[:, a], y[:, b] - y[:, a]
                np.maximum(longest, dx * dx + dy * dy, out=longest)
        huge = np.flatnonzero(~(np.isfinite(areas) & np.isfinite(longest)))
        if huge.size:
            raise MeshError(f"triangle {s + huge[0]} is too large: its area "
                            "or squared side overflows float64")
        bad = np.flatnonzero(areas <= AREA_RTOL * longest)
        if bad.size:
            raise MeshError(
                f"degenerate or clockwise triangle {s + bad[0]} "
                f"(signed area {areas[bad[0]]:.3e} m^2)"
            )
        longest_sq = max(longest_sq, float(longest.max()))
    # sqrt is monotonic, so the root of the largest square is the longest
    return math.sqrt(longest_sq)


def _cyclic_pair_keys(rows: np.ndarray, n: int) -> np.ndarray:
    """The int64 key ``min * n + max`` of each pair ``rows[:, j]``,
    ``rows[:, j + 1]`` of cyclically adjacent entries, flattened; the
    entries lie in ``[0, n)``."""
    ends = np.roll(rows, -1, axis=1)
    keys = np.minimum(rows, ends, dtype=np.int64)
    keys *= n
    keys += np.maximum(rows, ends, out=ends)
    return keys.ravel()


def _unique_inverse(keys: np.ndarray):
    """``np.unique(keys, return_inverse=True)`` of a non-empty 1-D array of
    non-negative int64 edge keys, the inverse in int32, from one sort of
    ``key << bits | position`` words formed in ``keys`` itself, which is
    overwritten; ``np.unique`` runs only where those words would not fit
    in 63 bits.  More than ``_INDEX_LIMIT`` distinct keys raise
    :class:`MeshError`."""
    size = keys.size
    bits = max((size - 1).bit_length(), 1)
    if int(keys.max()) >> (63 - bits):
        uniq, inverse = np.unique(keys, return_inverse=True)
        _check_index_limit(uniq.size, "edges")
        return uniq, inverse.astype(np.int32)
    index = np.int32 if size <= np.iinfo(np.int32).max else np.int64
    words = keys
    del keys  # so that a caller's temporary is freed with words
    words <<= bits
    words |= np.arange(size, dtype=index)
    words.sort()
    position = np.empty(size, dtype=index)
    np.bitwise_and(words, (1 << bits) - 1, out=position)
    words >>= bits
    first = np.empty(size, dtype=bool)
    first[0] = True
    np.not_equal(words[1:], words[:-1], out=first[1:])
    uniq = words[first]
    del words
    _check_index_limit(uniq.size, "edges")
    rank = first.astype(np.int32)
    del first
    np.cumsum(rank, out=rank)
    rank -= 1
    inverse = np.empty(size, dtype=np.int32)
    inverse[position] = rank
    return uniq, inverse


def _check_hanging_nodes(nodes, edges, boundary_edge, boundary_node):
    """A node in the interior of a boundary edge means a hanging node.

    Non-conformity always surfaces on boundary edges: a long edge facing two
    half edges is incident to only one triangle, so it gets classified as
    boundary and the mid node lies on it.

    Only nodes inside an edge's extent along its longer axis can pass the
    test, so each edge is tested against the boundary nodes that a binary
    search finds there, widened by ``1e-3 * len``, far above the test's
    ``1e-9 * len`` distance from the line.  The first offending pair in
    (node, edge) index order is reported.
    """
    bidx = np.flatnonzero(boundary_edge)
    nidx = np.flatnonzero(boundary_node)
    if bidx.size == 0 or nidx.size == 0:
        return
    a = nodes[edges[bidx, 0]]
    b = nodes[edges[bidx, 1]]
    d = b - a
    lens2 = np.einsum("ij,ij->i", d, d)
    p = nodes[nidx]

    num_edges = bidx.size
    axis = (np.abs(d[:, 1]) > np.abs(d[:, 0])).astype(np.intp)  # longer axis
    along = (np.arange(num_edges), axis)
    slop = 1e-3 * np.sqrt(lens2)
    low = np.minimum(a, b)[along] - slop
    high = np.maximum(a, b)[along] + slop
    order = np.argsort(p, axis=0, kind="stable")
    x, y = np.take_along_axis(p, order, axis=0).T
    start = np.where(axis, y.searchsorted(low), x.searchsorted(low))
    stop = np.where(axis, y.searchsorted(high, "right"),
                    x.searchsorted(high, "right"))
    counts = stop - start
    ends = np.cumsum(counts)  # candidates of edge e are pairs ends[e-1]..ends[e]-1
    total = int(ends[-1])

    first = None
    for s in range(0, total, _CHUNK):
        pair = np.arange(s, min(s + _CHUNK, total))
        e = np.searchsorted(ends, pair, side="right")
        n = order[start[e] + pair - (ends[e] - counts[e]), axis[e]]
        w = p[n] - a[e]
        de = d[e]
        t = (w[:, 0] * de[:, 0] + w[:, 1] * de[:, 1]) / lens2[e]
        cross = np.abs(w[:, 0] * de[:, 1] - w[:, 1] * de[:, 0])
        hit = (cross <= 1e-9 * lens2[e]) & (t > 1e-6) & (t < 1 - 1e-6)
        if hit.any():
            key = int((n[hit] * num_edges + e[hit]).min())
            first = key if first is None else min(first, key)
    if first is not None:
        n, e = divmod(first, num_edges)
        raise MeshError(
            f"non-conforming mesh: node {nidx[n]} lies inside boundary "
            f"edge {edges[bidx[e], 0]}-{edges[bidx[e], 1]}"
        )


def _has_repeats(values: np.ndarray) -> bool:
    """Whether two entries of the 1-D array ``values`` compare equal."""
    s = np.sort(values)
    return bool((s[1:] == s[:-1]).any())


def _check_distinct_nodes(nodes: np.ndarray) -> None:
    # one complex per node sorts by x, then y; -0.0 == 0.0, so those count
    # as duplicates
    if _has_repeats(nodes.view(np.complex128).ravel()):
        raise MeshError("duplicate node coordinates")


def _has_repeated_triangle(tri_edges: np.ndarray, num_edges: int) -> bool:
    """Whether two rows of ``tri_edges`` name the same triangle.

    Any two edges of a triangle name its three nodes, so equal triangles
    are equal pairs of smallest and middle edge ids, keyed
    ``smallest * num_edges + middle`` in int64.
    """
    a, b, c = tri_edges.T
    low, high = np.minimum(a, b), np.maximum(a, b)
    middle = np.maximum(low, np.minimum(high, c))
    np.minimum(low, c, out=low)
    del high
    return _has_repeats(np.multiply(low, num_edges, dtype=np.int64) + middle)


def build_topology(nodes, triangles) -> Mesh:
    """Derive edge/boundary topology and validate the triangulation.

    Raises :class:`MeshError` for degenerate (or clockwise) triangles,
    duplicate triangles, non-manifold edges (shared by more than two
    triangles), inconsistent orientation, hanging nodes and a mesh in more
    than one piece (``V - E + T != 2 - B``).
    """
    nodes = _as_coords(nodes)
    tris = np.asarray(triangles)
    if tris.dtype.kind not in "iu":
        tris = tris.astype(np.int64)
    if tris.ndim != 2 or tris.shape[1] != 3:
        raise MeshError(f"triangles must be (T, 3), got {tris.shape}")
    num_nodes = nodes.shape[0]
    if not np.isfinite(nodes).all():
        raise MeshError("non-finite node coordinate")
    if tris.size == 0:
        raise MeshError("mesh has no triangles")
    if tris.min() < 0 or tris.max() >= num_nodes:
        raise MeshError("triangle node index out of range")
    _check_index_limit(num_nodes, "nodes")
    tris = np.ascontiguousarray(tris, dtype=np.int32)
    # a triangle with a repeated node has area 0 and fails here
    h = _check_areas(nodes, tris)
    tri_edge_signs = _tri_edge_signs(tris)

    # global edges are stored lo < hi, keyed lo * V + hi
    uniq_keys, tri_edges = _unique_inverse(_cyclic_pair_keys(tris, num_nodes))
    tri_edges = tri_edges.reshape(tris.shape)
    edges = np.empty((uniq_keys.size, 2), dtype=np.int32)
    np.divmod(uniq_keys, num_nodes, out=(edges[:, 0], edges[:, 1]))
    del uniq_keys

    if _has_repeated_triangle(tri_edges, edges.shape[0]):
        raise MeshError("duplicate triangle")

    used = np.zeros(num_nodes, dtype=bool)
    used[tris] = True
    if not used.all():
        raise MeshError(f"node {np.flatnonzero(~used)[0]} not used by any triangle")
    _check_distinct_nodes(nodes)

    # np.bincount would first copy the int32 edge ids to intp
    incidence = np.zeros(edges.shape[0], dtype=np.intp)
    np.add.at(incidence, tri_edges.ravel(), 1)
    if (incidence > 2).any():
        e = int(np.flatnonzero(incidence > 2)[0])
        raise MeshError(
            f"non-manifold edge {edges[e, 0]}-{edges[e, 1]} "
            f"shared by {incidence[e]} triangles"
        )
    # at most two triangles meet at an edge, so its sum fits in int8
    sign_sums = np.zeros(edges.shape[0], dtype=np.int8)
    np.add.at(sign_sums, tri_edges.ravel(), tri_edge_signs.ravel())
    if ((incidence == 2) & (sign_sums != 0)).any():
        e = int(np.flatnonzero((incidence == 2) & (sign_sums != 0))[0])
        raise MeshError(
            f"non-conforming mesh: edge {edges[e, 0]}-{edges[e, 1]} traversed "
            "twice in the same direction"
        )

    boundary_edge = incidence == 1
    del incidence, sign_sums
    boundary_node = np.zeros(num_nodes, dtype=bool)
    boundary_node[edges[boundary_edge].ravel()] = True
    _check_hanging_nodes(nodes, edges, boundary_edge, boundary_node)
    component = _boundary_components(edges, boundary_edge, num_nodes)

    mesh = Mesh(
        nodes=_freeze(nodes),
        triangles=_freeze(tris),
        edges=_freeze(edges),
        tri_edges=_freeze(tri_edges),
        tri_edge_signs=_freeze(tri_edge_signs),
        boundary_node=_freeze(boundary_node),
        boundary_edge=_freeze(boundary_edge),
        boundary_component=_freeze(component),
        h=h,
    )
    # each piece past the first adds 2 to V - E + T
    deficit = mesh.euler_deficit()
    if deficit:
        raise MeshError(f"mesh is not one connected piece: Euler deficit "
                        f"{deficit} (a mesh in k pieces has 2(k - 1))")
    return mesh


def _cell_count(value, name: str) -> int:
    """``value`` as an ``int`` (NumPy integers too), else ``MeshError``."""
    try:
        return operator.index(value)
    except TypeError:
        raise MeshError(f"{name} must be an integer, got {value!r}") from None


def _split_cells(corner: np.ndarray) -> np.ndarray:
    """The counter-clockwise triangles ``[ll, lr, ur]`` and ``[ll, ur, ul]``
    of each cell of the node-id grid ``corner[row, col]`` (rows upwards), as
    a ``(rows - 1, cols - 1, 2, 3)`` array, cells in row order.  The fixed
    diagonal keeps spectra reproducible."""
    ll, lr = corner[:-1, :-1], corner[:-1, 1:]
    ul, ur = corner[1:, :-1], corner[1:, 1:]
    return np.stack([ll, lr, ur, ll, ur, ul], axis=-1).reshape(*ll.shape, 2, 3)


def generate_rectangle(a: float, b: float, nx: int, ny: int) -> Mesh:
    """Structured mesh of the rectangle ``[0, a] x [0, b]``.

    Each of the ``nx * ny`` cells is split along its lower-left to
    upper-right diagonal.
    """
    if not (a > 0 and b > 0 and np.isfinite([a, b]).all()):
        raise MeshError(f"rectangle sides must be positive and finite, got "
                        f"{a!r} x {b!r}")
    nx, ny = _cell_count(nx, "nx"), _cell_count(ny, "ny")
    if nx < 1 or ny < 1:
        raise MeshError("nx and ny must be at least 1")
    gx, gy = np.meshgrid(np.linspace(0.0, a, nx + 1), np.linspace(0.0, b, ny + 1))
    corner = np.arange(gx.size).reshape(gx.shape)
    return build_topology(np.column_stack([gx.ravel(), gy.ravel()]),
                          _split_cells(corner).reshape(-1, 3))


def generate_annulus(r_inner: float, r_outer: float, n_r: int, n_theta: int) -> Mesh:
    """Polar structured mesh of an annulus, or of a disc when ``r_inner == 0``.

    The circular boundaries are polygonal; refinement later never snaps new
    nodes back onto the true circle, so the geometric error is fixed by
    ``n_theta``.  A disc's centre node and its fan of triangles come first.
    """
    if not (0 <= r_inner < r_outer and np.isfinite(r_outer)):
        raise MeshError(f"need finite radii 0 <= r_inner < r_outer, got "
                        f"{r_inner!r}, {r_outer!r}")
    n_r, n_theta = _cell_count(n_r, "n_r"), _cell_count(n_theta, "n_theta")
    if n_theta < 3:
        raise MeshError("n_theta must be at least 3")
    if n_r < 1:
        raise MeshError("n_r must be at least 1")
    theta = 2 * np.pi * np.arange(n_theta) / n_theta
    centre = int(r_inner == 0)  # a disc's centre node comes first
    radii = np.linspace(r_inner, r_outer, n_r + 1)[centre:]
    nodes = np.stack([np.outer(radii, np.cos(theta)),
                      np.outer(radii, np.sin(theta))], axis=-1).reshape(-1, 2)
    # angles up the rows (the first again at the end), rings across, so the
    # split stays counter-clockwise; the cells are then put ring by ring
    angle = np.arange(n_theta + 1) % n_theta
    corner = centre + angle[:, None] + n_theta * np.arange(radii.size)
    tris = _split_cells(corner).swapaxes(0, 1).reshape(-1, 3)
    if centre:
        fan = np.column_stack([np.zeros(n_theta, dtype=np.int64),
                               corner[:-1, 0], corner[1:, 0]])
        nodes = np.concatenate([[[0.0, 0.0]], nodes])
        tris = np.concatenate([fan, tris])
    return build_topology(nodes, tris)


def _validate_rectilinear(verts):
    n = len(verts)
    if n < 4:
        raise MeshError("rectilinear polygon needs at least 4 vertices")
    segs = []
    for i in range(n):
        x1, y1 = verts[i]
        x2, y2 = verts[(i + 1) % n]
        dx, dy = x2 - x1, y2 - y1
        if (dx != 0) == (dy != 0):
            raise MeshError(
                f"edge {i} is not axis-aligned (or has zero length)"
            )
        segs.append(((x1, y1), (x2, y2)))
    for i in range(n):
        (ax1, ay1), (ax2, ay2) = segs[i]
        (bx1, by1), (bx2, by2) = segs[(i + 1) % n]
        da = (ax2 - ax1, ay2 - ay1)
        db = (bx2 - bx1, by2 - by1)
        if da[0] * db[0] < 0 or da[1] * db[1] < 0:
            raise MeshError(f"polygon doubles back at vertex {(i + 1) % n}")
    area2 = sum(p[0] * q[1] - q[0] * p[1] for p, q in segs)
    if area2 <= 0:
        raise MeshError("polygon must be simple and counter-clockwise")
    for i in range(n):
        for j in range(i + 1, n):
            if j == i + 1 or (i == 0 and j == n - 1):
                continue
            (ax1, ay1), (ax2, ay2) = segs[i]
            (bx1, by1), (bx2, by2) = segs[j]
            if (min(ax1, ax2) <= max(bx1, bx2) and min(bx1, bx2) <= max(ax1, ax2)
                    and min(ay1, ay2) <= max(by1, by2)
                    and min(by1, by2) <= max(ay1, ay2)):
                raise MeshError(f"polygon edges {i} and {j} intersect")


def generate_rectilinear_polygon(vertices, h_target: float) -> Mesh:
    """Grid mesh of an axis-aligned rectilinear polygon (counter-clockwise).

    The bounding box is covered by a uniform grid with cell sides at most
    ``h_target``.  A cell is kept when its centre lies strictly inside the
    polygon (even-odd rule) and no outline edge crosses its open interior, and
    it is split with the same diagonal convention as
    :func:`generate_rectangle`.  Nodes are numbered in the order the kept
    cells, in row order, first use them.
    """
    coords = _as_coords(vertices)
    if not (h_target > 0 and np.isfinite(h_target)):
        raise MeshError(f"h_target must be positive and finite, got {h_target!r}")
    if not np.isfinite(coords).all():
        raise MeshError("non-finite polygon vertex")
    verts = [(float(x), float(y)) for x, y in coords]
    _validate_rectilinear(verts)

    xmin, ymin = coords.min(axis=0)
    xmax, ymax = coords.max(axis=0)
    # float cell counts and grid size, infinite where they overflow
    with np.errstate(over="ignore"):
        cells = np.maximum(np.ceil(np.ptp(coords, axis=0) / h_target - 1e-12), 1)
        grid_nodes = np.prod(cells + 1)
    _check_index_limit(grid_nodes, "grid nodes")
    nx, ny = cells.astype(int)
    hx = (xmax - xmin) / nx
    hy = (ymax - ymin) / ny

    xs = xmin + hx * np.arange(nx + 1)
    ys = ymin + hy * np.arange(ny + 1)
    cx = 0.5 * (xs[:-1] + xs[1:])
    cy = 0.5 * (ys[:-1] + ys[1:])

    # margins absorb float jitter when polygon edges land on grid lines
    mx, my = 1e-9 * hx, 1e-9 * hy

    # (ny, nx) cell masks: an odd number of vertical edges right of the
    # centre; an edge through the open cell
    inside = np.zeros((ny, nx), dtype=bool)
    reject = np.zeros((ny, nx), dtype=bool)
    for (x1, y1), (x2, y2) in zip(verts, verts[1:] + verts[:1]):
        if y1 == y2:  # horizontal edge
            lo, hi = min(x1, x2), max(x1, x2)
            reject |= (((ys[:-1] + my < y1) & (y1 < ys[1:] - my))[:, None]
                       & (np.maximum(lo, xs[:-1]) < np.minimum(hi, xs[1:]) - mx))
        else:  # vertical edge
            lo, hi = min(y1, y2), max(y1, y2)
            reject |= ((np.maximum(lo, ys[:-1]) < np.minimum(hi, ys[1:]) - my)[:, None]
                       & ((xs[:-1] + mx < x1) & (x1 < xs[1:] - mx)))
            inside ^= ((y1 > cy) != (y2 > cy))[:, None] & (cx < x1)
    keep = inside & ~reject
    if not keep.any():
        raise MeshError("no grid cell lies inside the polygon; decrease h_target")

    corner = np.arange((nx + 1) * (ny + 1)).reshape(ny + 1, nx + 1)
    cells = _split_cells(corner)[keep]
    # each kept cell's ll, lr, ul, ur in turn: the order of first use
    seen = cells[:, (0, 0, 1, 0), (0, 1, 2, 2)].ravel()
    grid_ids, first = np.unique(seen, return_index=True)
    used = grid_ids[np.argsort(first)]
    node_id = np.empty(corner.size, dtype=np.int64)
    node_id[used] = np.arange(used.size)
    row, col = np.divmod(used, nx + 1)
    return build_topology(np.column_stack([xs[col], ys[row]]),
                          node_id[cells].reshape(-1, 3))


def refine_uniform(mesh: Mesh) -> Mesh:
    """Split each triangle into 4 congruent children via edge midpoints.

    Parent node positions (and indices) are preserved; the midpoint of edge
    ``e`` becomes node ``V + e``, so the refinement is nested.

    The child's topology is derived from the parent's, in the order
    :func:`build_topology` gives it: first the two halves of each parent
    edge, sorted by (end node, parent edge), then the three midpoint pairs
    inside each parent, sorted by (lo, hi).  A half edge inherits its
    parent's boundary flag and component; the component ids keep their
    order, because both orders rank a component by its smallest node.

    Only the checks that the new midpoint coordinates can fail run again:
    the area test and duplicate coordinates.  Manifoldness, orientation,
    conformity, the absence of hanging nodes and the Euler relation hold by
    construction: each parent edge is split at one node shared by both its
    sides, each child triangle keeps its parent's orientation, and
    ``V - E + T`` is unchanged: ``(V + E) - (2E + 3T) + 4T``.
    """
    V, E, T = mesh.num_nodes, mesh.num_edges, mesh.num_triangles
    _check_index_limit(V + E, "nodes")
    _check_index_limit(2 * E + 3 * T, "edges")
    edges, te = mesh.edges, mesh.tri_edges
    mid = 0.5 * (mesh.nodes[edges[:, 0]] + mesh.nodes[edges[:, 1]])
    nodes = np.concatenate([mesh.nodes, mid])
    # corner child i is [v_i, m_i, m_{i-1}], then comes [m_0, m_1, m_2],
    # where m_j is the midpoint of local edge j (from v_j to v_{j+1})
    prev = [2, 0, 1]
    m = V + te
    children = np.empty((T, 4, 3), dtype=np.int32)
    children[:, :3, 0] = mesh.triangles
    children[:, :3, 1] = m
    children[:, :3, 2] = m[:, prev]
    children[:, 3] = m
    children = children.reshape(T * 4, 3)
    del m
    h = _check_areas(nodes, children)
    _check_distinct_nodes(nodes)
    # formed before the edge arrays: formed last, its temporaries raised the
    # traced peak of the coax refined from four to five times by 3.6 MB
    signs = _tri_edge_signs(children)

    # halves: half[2e + k] is the child edge from edges[e, k] to node V + e;
    # a stable sort by end node keeps parent edge order among equal ends
    order = np.argsort(edges.ravel(), kind="stable")
    half = np.empty(2 * E, dtype=np.int32)
    half[order] = np.arange(2 * E)
    parent_of = order // 2
    # midpoint pairs: pair[t, j] joins the midpoints of local edges j, j + 1
    pair_keys, pair = _unique_inverse(_cyclic_pair_keys(te, E))
    pair = pair.reshape(T, 3) + 2 * E

    child_edges = np.empty((2 * E + 3 * T, 2), dtype=np.int32)
    child_edges[:2 * E, 0] = edges.ravel()[order]
    child_edges[:2 * E, 1] = V + parent_of
    np.divmod(pair_keys, E, out=(child_edges[2 * E:, 0], child_edges[2 * E:, 1]))
    child_edges[2 * E:] += V
    del order, pair_keys

    # corner child i runs from v_i along the half of local edge i at its
    # start, a midpoint pair, and the half of local edge i - 1 at its end
    starts_lo = mesh.tri_edge_signs > 0
    tri_edges = np.empty((T, 4, 3), dtype=np.int32)
    tri_edges[:, :3, 0] = half[2 * te + ~starts_lo]
    tri_edges[:, :3, 1] = pair[:, prev]
    tri_edges[:, :3, 2] = half[2 * te + starts_lo][:, prev]
    tri_edges[:, 3] = pair
    del half, pair

    boundary_edge = np.zeros(child_edges.shape[0], dtype=bool)
    boundary_edge[:2 * E] = mesh.boundary_edge[parent_of]
    component = np.full(child_edges.shape[0], -1, dtype=np.int32)
    component[:2 * E] = mesh.boundary_component[parent_of]
    return Mesh(
        nodes=_freeze(nodes),
        triangles=_freeze(children),
        edges=_freeze(child_edges),
        tri_edges=_freeze(tri_edges.reshape(T * 4, 3)),
        tri_edge_signs=_freeze(signs),
        boundary_node=_freeze(np.concatenate([mesh.boundary_node,
                                              mesh.boundary_edge])),
        boundary_edge=_freeze(boundary_edge),
        boundary_component=_freeze(component),
        h=h,
    )


def _rows(row: str, values: np.ndarray):
    """``row`` filled from each row of ``values``, one ``%`` per chunk of
    rows, so only one chunk's Python numbers exist at a time."""
    for s in range(0, len(values), _CHUNK):
        chunk = values[s:s + _CHUNK]
        yield (row * len(chunk)) % tuple(chunk.ravel().tolist())


def _index_rows(triangles: np.ndarray, num_nodes: int):
    """The ``i j k`` text lines of ``triangles``, whose entries lie in
    ``[0, num_nodes)``, as ``%d`` formats them, one string per chunk of
    rows, gathered from a table of each index's digits."""
    index = np.arange(num_nodes)
    width = len(str(num_nodes - 1))
    # table[i] is index i right-aligned in ``width`` bytes, padded with zero
    # bytes that are dropped afterwards, then its separator
    table = np.zeros((num_nodes, width + 1), dtype=np.uint8)
    for k in range(width):
        power = 10 ** (width - 1 - k)
        table[:, k] = np.where(index >= power, index // power % 10 + ord("0"), 0)
    table[0, width - 1] = ord("0")
    table[:, width] = ord(" ")
    for s in range(0, len(triangles), _CHUNK):
        row = table[triangles[s:s + _CHUNK]]
        row[:, 2, width] = ord("\n")
        yield row[row != 0].tobytes().decode("ascii")


def export_chunks(mesh: Mesh):
    """The text of :func:`export_mesh` as a few large strings, in order, for
    writing to a file without joining them first."""
    yield f"nodes {mesh.num_nodes}\n"
    yield from _rows("%r %r\n", mesh.nodes)
    yield f"triangles {mesh.num_triangles}\n"
    yield from _index_rows(mesh.triangles, mesh.num_nodes)


def export_mesh(mesh: Mesh) -> str:
    """Serialize to the line-oriented ASCII format (0-based indices).

    Coordinates are written with :func:`repr`, the shortest representation
    that round-trips ``float`` exactly, so import/export is bit-faithful.
    The node and triangle blocks are formatted in chunks of rows
    (:func:`export_chunks`), which bounds the memory that formatting takes;
    the text is the same as formatting them row by row.  Triangle rows are
    gathered from a table of each node index's digits instead of formatting
    one integer at a time.
    """
    return "".join(export_chunks(mesh))


def _header(fields, name: str, what: str) -> int:
    """The count of a ``<name> <count>`` header line split into ``fields``;
    raises ``ValueError`` with the message for the line."""
    if len(fields) != 2 or fields[0] != name:
        raise ValueError(f"expected '{name} <count>'")
    try:
        count = int(fields[1])
    except ValueError:
        raise ValueError(f"bad {what} count {fields[1]!r}") from None
    if count < 0:
        raise ValueError(f"negative {what} count {count}")
    return count


def import_mesh(text: str) -> Mesh:
    """Parse the ASCII mesh format; errors carry 1-based line numbers.

    A file is a ``nodes <count>`` line, that many ``x y`` lines, a
    ``triangles <count>`` line and that many ``i j k`` lines of 0-based node
    indices.  ``#`` starts a comment, and blank lines are skipped anywhere.
    One parser reads every file (:func:`_parse_blocks`); a file it rejects is
    scanned again, line by line, for the message and its line number.
    """
    try:
        nodes, tris = _parse_blocks(text)
    except (ValueError, IndexError):
        _raise_first_error(text)
    return build_topology(nodes, tris)


#: ``#`` and the ASCII line ends of ``str.splitlines`` but ``\n``.  A file
#: without them has no comments, and its lines are its ``\n``-separated
#: ones.
_NOT_PLAIN = "#\r\x0b\x0c\x1c\x1d\x1e"


def _parse_blocks(text: str):
    """Node and triangle arrays of a well-formed file; any other file raises
    ``ValueError`` or ``IndexError`` without saying where.

    An ASCII file without :data:`_NOT_PLAIN` characters, such as an
    exported one, goes to :func:`_parse_bytes` as it is.  Any other file,
    or one that parser rejects, goes to it once more as the
    :func:`_normalised` rows."""
    if text.isascii() and not any(c in text for c in _NOT_PLAIN):
        try:
            return _parse_bytes(text.encode("ascii"))
        except ValueError:
            pass  # normalised, the file gets its second try
    return _parse_bytes(_normalised(text))


def _normalised(text: str) -> bytes:
    """The non-blank lines of ``text``, without comments and stripped, one
    per line in ASCII; a run of blanks in a file that is not ASCII becomes
    one space.  Any other character that is not ASCII raises
    ``UnicodeEncodeError``, a ``ValueError``."""
    lines = text.splitlines()
    if "#" in text:
        lines = [raw.split("#", 1)[0] if "#" in raw else raw for raw in lines]
    tidy = str.strip if text.isascii() else lambda raw: " ".join(raw.split())
    rows = list(filter(None, map(tidy, lines)))
    del lines
    rows.append("")
    joined = "\n".join(rows)
    del rows  # so that the row strings and the bytes never coexist
    return joined.encode("ascii")


def _parse_bytes(data: bytes):
    """Node and triangle arrays of an ASCII file that starts with its
    ``nodes`` header, one ``np.loadtxt`` over each block of rows; raises
    ``ValueError`` for any other file.

    No coordinate that ``np.loadtxt`` reads contains ``triangles``, so in
    a well-formed file the first line after the header that does is the
    triangle header.  ``np.loadtxt`` skips blank lines inside a block.  A
    block must start with a row, or be empty and have count 0: it is never
    handed to ``np.loadtxt`` without rows, on which that warns.  Triangle
    rows are read as int32; an index past it raises, and the re-scan then
    reports it as out of range.
    """
    rows = data.index(b"\n") + 1
    num_nodes = _header(data[:rows].decode().split(), "nodes", "node")
    head = data.rindex(b"\n", 0, data.index(b"triangles", rows)) + 1
    tri_rows = data.index(b"\n", head) + 1
    num_tris = _header(data[head:tri_rows].decode().split(),
                       "triangles", "triangle")
    for start, stop, count in ((rows, head, num_nodes),
                               (tri_rows, len(data), num_tris)):
        if ((start == stop) != (count == 0)
                or data[start:start + 1].decode().isspace()):
            raise ValueError("block does not start with a row")
    lines = io.BytesIO(data)  # shares the buffer of data
    lines.seek(rows)
    nodes = _plain_block(itertools.islice(lines, data.count(b"\n", rows, head)),
                         float, 2, num_nodes)
    lines.seek(tri_rows)
    tris = _plain_block(lines, np.int32, 3, num_tris)
    if tris.size and (tris.min() < 0 or tris.max() >= num_nodes):
        raise ValueError("node index out of range")
    return nodes, tris


def _plain_block(lines, dtype, width: int, count: int) -> np.ndarray:
    """The byte lines ``lines`` as ``count`` rows of ``width`` numbers."""
    if not count:
        return np.empty((0, width), dtype=dtype)
    block = np.loadtxt(lines, dtype=dtype, comments=None, ndmin=2)
    if block.shape != (count, width):
        raise ValueError(f"expected {count} rows of {width} fields")
    return block


def _raise_first_error(text: str) -> NoReturn:
    """Re-scan a file that failed to parse, line by line, and raise a
    :class:`MeshError` for the first offending line.

    Tokens must be ASCII without ``_`` because the block parser accepts
    only those, although ``float`` and ``int`` take more.
    """
    tokens = []  # (line_number, fields)
    for ln, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            tokens.append((ln, body.split()))

    pos = 0

    def take(what):
        nonlocal pos
        if pos >= len(tokens):
            raise MeshError(f"unexpected end of file while reading {what}")
        item = tokens[pos]
        pos += 1
        return item

    def header(name, what):
        ln, fields = take("header")
        try:
            count = _header(fields, name, what)
        except ValueError as exc:
            raise MeshError(f"line {ln}: {exc}") from None
        if count > len(tokens) - pos:
            raise MeshError(f"line {ln}: {what} count {count} exceeds the "
                            f"{len(tokens) - pos} data lines that follow")
        return count

    def numbers(ln, fields, kind, message):
        if not all(f.isascii() and "_" not in f for f in fields):
            raise MeshError(f"line {ln}: {message}")
        try:
            return [kind(f) for f in fields]
        except ValueError:
            raise MeshError(f"line {ln}: {message}") from None

    num_nodes = header("nodes", "node")
    for i in range(num_nodes):
        ln, fields = take(f"node {i}")
        if len(fields) != 2:
            raise MeshError(f"line {ln}: expected 'x y'")
        numbers(ln, fields, float, "bad coordinate")

    num_tris = header("triangles", "triangle")
    for i in range(num_tris):
        ln, fields = take(f"triangle {i}")
        if len(fields) != 3:
            raise MeshError(f"line {ln}: expected 'i j k'")
        index = numbers(ln, fields, int, "bad node index")
        if min(index) < 0 or max(index) >= num_nodes:
            raise MeshError(f"line {ln}: node index out of range")
    if pos != len(tokens):
        raise MeshError(f"line {tokens[pos][0]}: trailing content")
    raise MeshError("mesh file could not be parsed")
