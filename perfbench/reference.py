"""Reference values computed without ``wgcutoff``.

The checks in the workloads compare the program's outputs with these, so
that a fault in the program's own oracles or mesh bookkeeping cannot hide
itself.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import brentq
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.special import jv, yv


def tm_rectangle(a: float, b: float, eps_d: float, eps_zz: float,
                 count: int) -> np.ndarray:
    """``sqrt(eps/eps_zz) * pi * hypot(m/a, n/b)`` over m, n >= 1, ascending.

    The gyrotropic part of the transverse permittivity drops out of the
    Dirichlet problem, so only its diagonal ``eps_d`` scales the Laplacian
    eigenvalues of the rectangle.
    """
    top = count + 2
    values = sorted(math.hypot(m / a, n / b)
                    for m in range(1, top) for n in range(1, top))
    return math.sqrt(eps_d / eps_zz) * math.pi * np.asarray(values[:count])


def tm_annulus(r1: float, r2: float, eps_d: float, eps_zz: float,
               count: int) -> np.ndarray:
    """Smallest TM cut-offs of an annulus, order m >= 1 counted twice.

    The roots of ``J_m(k r1) Y_m(k r2) - J_m(k r2) Y_m(k r1)`` are
    bracketed on a grid of 1/400 of the radial spacing ``pi / (r2 - r1)``
    and refined with Brent's method.  Every order below the first one whose
    smallest root exceeds the current largest kept value is scanned.
    """
    spacing = math.pi / (r2 - r1)
    grid = np.arange(0.01, 4.0, 1.0 / 400.0) * spacing

    def roots(m):
        def f(k):
            return jv(m, k * r1) * yv(m, k * r2) - jv(m, k * r2) * yv(m, k * r1)
        values = f(grid)
        out = []
        for i in np.flatnonzero(np.sign(values[:-1]) * np.sign(values[1:]) < 0):
            out.append(brentq(f, grid[i], grid[i + 1], xtol=1e-14, rtol=1e-15))
        return out

    found = []
    m = 0
    while True:
        ks = roots(m)
        if not ks or (len(found) >= count and ks[0] > sorted(found)[count - 1]):
            break
        found.extend(k for k in ks for _ in range(1 if m == 0 else 2))
        m += 1
    found.sort()
    if len(found) < count:
        raise ValueError("annulus root scan found too few roots")
    return math.sqrt(eps_d / eps_zz) * np.asarray(found[:count])


def mesh_counts(triangles: np.ndarray) -> dict:
    """Edges and boundary components of a triangulation, from its triangles.

    An edge is a sorted node pair; a boundary edge belongs to exactly one
    triangle.  Boundary components are the connected components of the
    graph of boundary edges.
    """
    num_nodes = int(triangles.max()) + 1
    pairs = np.concatenate([triangles[:, [0, 1]], triangles[:, [1, 2]],
                            triangles[:, [2, 0]]])
    pairs.sort(axis=1)
    edges, uses = np.unique(pairs, axis=0, return_counts=True)
    boundary = edges[uses == 1]
    graph = coo_matrix((np.ones(len(boundary)), (boundary[:, 0], boundary[:, 1])),
                       shape=(num_nodes, num_nodes))
    on_boundary = np.unique(boundary)
    _, labels = connected_components(graph, directed=False)
    return {
        "V": int(len(np.unique(triangles))),
        "E": int(len(edges)),
        "T": int(len(triangles)),
        "B": int(len(np.unique(labels[on_boundary]))),
    }
