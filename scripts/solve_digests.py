"""SHA-256 digests of solves on a fixed grid, to check that a change keeps
every solve's bits.

Every route solves 4 modes on five meshes (the 24 x 20 and 7 x 5
rectangles, the coax, the disc and the 2 x 12 annulus, the last three
refined once), in three media (gyrotropic, anisotropic with ``alpha = 0``
and isotropic), by the default path (shift-invert) and by forced dense
``eigh``: 120 solves.  Each digest covers the cut-offs, the dof vectors,
the dtype, data and sparsity of the pencil's K and M, and the mesh's edge
geometry that field export reads (the centroid basis and the curls that
``femcore.edge_geometry`` returns); the total covers every line.

Run as ``OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python
scripts/solve_digests.py`` on two trees and compare the totals.  The dense
path's last bits move with the BLAS thread count, so compare runs at the
same count.
"""

import hashlib
import sys

from wgcutoff import (
    SolveOptions,
    generate_annulus,
    generate_rectangle,
    refine_uniform,
)
from wgcutoff.femcore import edge_geometry
from wgcutoff.medium import MediumSpec, TransverseTensor
from wgcutoff.modes import SOLVERS

MESHES = {
    "rect 24x20": lambda: generate_rectangle(1.2e-3, 1e-3, 24, 20),
    "rect 7x5": lambda: generate_rectangle(1.2e-3, 1e-3, 7, 5),
    "coax L1": lambda: refine_uniform(generate_annulus(1e-3, 2e-3, 4, 48)),
    "disc L1": lambda: refine_uniform(generate_annulus(0.0, 1e-3, 4, 24)),
    "annulus 2x12 L1": lambda: refine_uniform(
        generate_annulus(1e-3, 2e-3, 2, 12)),
}
MEDIA = {
    "gyro": MediumSpec(TransverseTensor(2.0, -1.0), 1.0,
                       TransverseTensor(1.0, 0.5), 2.0),
    "alpha=0": MediumSpec(TransverseTensor(2.0, 0.0), 1.0,
                          TransverseTensor(1.0, 0.0), 2.0),
    "isotropic": MediumSpec.isotropic(),
}
PATHS = {"shift-invert": SolveOptions(),
         "dense": SolveOptions(dense_cutoff=sys.maxsize)}
MODES = 4


def digest(solution) -> str:
    sha = hashlib.sha256()
    for array in (solution.cutoffs, solution.dof_vectors,
                  *edge_geometry(solution.mesh)[2:]):
        sha.update(array.tobytes())
    for matrix in (solution.pencil.K, solution.pencil.M):
        sha.update(matrix.dtype.str.encode())
        for array in (matrix.data, matrix.indices, matrix.indptr):
            sha.update(array.tobytes())
    return sha.hexdigest()


def main() -> None:
    total = hashlib.sha256()
    for mesh_name, make in MESHES.items():
        mesh = make()
        for medium_name, medium in MEDIA.items():
            for path, options in PATHS.items():
                for formulation, solve in SOLVERS.items():
                    solution = solve(mesh, medium, MODES, options)
                    line = (f"{mesh_name} | {medium_name} | {path} | "
                            f"{formulation.value} | {digest(solution)}")
                    print(line)
                    total.update(line.encode() + b"\n")
    print(f"total {total.hexdigest()}")


if __name__ == "__main__":
    main()
