"""Traced peaks and times of the mesh stages up the coax ladder.

The coax ``generate_annulus(1e-3, 2e-3, 4, 48)`` is refined to L4 and L5;
each is then refined once more, and the child is exported and imported
back.  For each stage the script reports its ``tracemalloc`` peak (MB =
10^6 bytes), counting what is alive at the time: the child mesh and its
text, not the parent, whose arrays are made before tracing starts.  It
also reports the best of three untraced runs of each stage, and the bytes
of the child's arrays and of its text.

Run as ``PYTHONPATH=src python scripts/mesh_peaks.py``; it prints the
mesh-layer tables of the README.  L5 -> L6 holds about 0.3 GB at its peak.
"""

import time
import tracemalloc

from wgcutoff import export_mesh, generate_annulus, import_mesh, refine_uniform

ARRAYS = ("nodes", "triangles", "edges", "tri_edges", "tri_edge_signs",
          "boundary_node", "boundary_edge", "boundary_component")
RUNS = 3


def traced_peaks(parent):
    """Traced peak (bytes) of refine, export and import, in that order;
    each stage's input stays alive until the end."""
    peaks, values = [], [parent]
    tracemalloc.start()
    try:
        for stage in (refine_uniform, export_mesh, import_mesh):
            tracemalloc.reset_peak()
            values.append(stage(values[-1]))
            peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    return peaks


def best_times(parent):
    """Best untraced time (s) of refine, export and import over ``RUNS``."""
    best = [float("inf")] * 3
    for _ in range(RUNS):
        value = parent
        for k, stage in enumerate((refine_uniform, export_mesh, import_mesh)):
            start = time.perf_counter()
            value = stage(value)
            best[k] = min(best[k], time.perf_counter() - start)
    return best


def main() -> None:
    mesh = generate_annulus(1e-3, 2e-3, 4, 48)
    for _ in range(4):
        mesh = refine_uniform(mesh)
    columns = []
    for level in (5, 6):
        child = refine_uniform(mesh)
        array_mb = sum(getattr(child, a).nbytes for a in ARRAYS) / 1e6
        text_mb = len(export_mesh(child)) / 1e6
        del child
        columns.append((level, traced_peaks(mesh), best_times(mesh),
                        array_mb, text_mb))
        mesh = refine_uniform(mesh)

    stages = ("`refine_uniform`", "`export_mesh`", "`import_mesh`")
    print("| stage | " + " | ".join(f"L{c[0]} peak (MB)" for c in columns) + " |")
    print("|---" * (len(columns) + 1) + "|")
    for k, stage in enumerate(stages):
        print(f"| {stage} | "
              + " | ".join(f"{c[1][k] / 1e6:.1f}" for c in columns) + " |")
    print()
    print("| stage | " + " | ".join(f"L{c[0]} best of {RUNS} (s)"
                                     for c in columns) + " |")
    print("|---" * (len(columns) + 1) + "|")
    for k, stage in enumerate(stages):
        print(f"| {stage} | " + " | ".join(f"{c[2][k]:.2f}" for c in columns)
              + " |")
    print()
    for level, _, _, array_mb, text_mb in columns:
        print(f"L{level}: arrays {array_mb:.1f} MB, text {text_mb:.1f} MB")


if __name__ == "__main__":
    main()
