"""Legacy ASCII VTK export of meshes and per-mode field frames.

Writes an UNSTRUCTURED_GRID with the mesh nodes as POINTS, triangles as
CELLS of type 5, per-triangle vector fields (z component zero) as CELL_DATA
VECTORS and per-node scalars as POINT_DATA SCALARS.  All floats are printed
with 17 significant digits so files are diffable and round-trip exactly.
Each block is formatted like the blocks of the mesh export, one ``%`` per
chunk of rows (a row template repeated once per row, filled from the
chunk's ``tolist()``): the same text as formatting value by value, at a
third of the cost.  Titles and names never pass through ``%``.  The mesh
blocks are the same in every file of one mesh: :func:`grid_blocks`
formats them once, and :func:`write_vtk` takes the result.
"""

from __future__ import annotations

import numpy as np

from .mesh import Mesh, _rows

VTK_TRIANGLE = 5


def _block(row: str, values) -> str:
    return "".join(_rows(row, np.asarray(values)))


def _scalars(name, values) -> str:
    return (f"SCALARS {name} double 1\nLOOKUP_TABLE default\n"
            + _block("%.17g\n", values))


def grid_blocks(mesh: Mesh) -> str:
    """POINTS, CELLS and CELL_TYPES of ``mesh``, the part of a file that
    does not depend on its data; format it once for many files."""
    cells = mesh.num_triangles
    return "".join([f"POINTS {mesh.num_nodes} double\n",
                    _block("%.17g %.17g 0\n", mesh.nodes),
                    f"CELLS {cells} {4 * cells}\n",
                    _block("3 %d %d %d\n", mesh.triangles),
                    f"CELL_TYPES {cells}\n" + f"{VTK_TRIANGLE}\n" * cells])


def write_vtk(mesh: Mesh, title: str = "wgcutoff fields",
              point_scalars: dict | None = None,
              cell_vectors: dict | None = None,
              grid: str | None = None) -> str:
    """Serialize the mesh plus named real-valued data arrays.

    ``point_scalars`` maps name -> (V,) array and ``cell_vectors`` maps
    name -> (T, 2) array.
    Complex fields should be split into explicit real/imaginary arrays by
    the caller.  ``grid`` is ``grid_blocks(mesh)`` when the caller already
    has it; it is formatted here otherwise.
    """
    point_scalars = point_scalars or {}
    cell_vectors = cell_vectors or {}
    for name, values in point_scalars.items():
        if np.shape(values) != (mesh.num_nodes,):
            raise ValueError(f"point scalar {name!r} has wrong shape")
    for name, values in cell_vectors.items():
        if np.shape(values) != (mesh.num_triangles, 2):
            raise ValueError(f"cell vector {name!r} has wrong shape")

    cells = mesh.num_triangles
    parts = [f"# vtk DataFile Version 3.0\n{title}\nASCII\n"
             "DATASET UNSTRUCTURED_GRID\n",
             grid if grid is not None else grid_blocks(mesh)]
    if cell_vectors:
        parts.append(f"CELL_DATA {cells}\n")
    for name, values in cell_vectors.items():
        parts += [f"VECTORS {name} double\n",
                  _block("%.17g %.17g 0\n", values)]
    if point_scalars:
        parts.append(f"POINT_DATA {mesh.num_nodes}\n")
    parts += [_scalars(name, values) for name, values in point_scalars.items()]
    return "".join(parts)
