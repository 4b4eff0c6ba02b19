"""Traced peaks and times of the mesh stages up the coax ladder.

The coax ``generate_annulus(1e-3, 2e-3, 4, 48)`` is refined to L4 and L5;
each is then refined once more, and the child is exported and imported
back.  For each stage the script reports its ``tracemalloc`` peak (MB =
10^6 bytes), counting what is alive at the time: the child mesh and its
text, not the parent, whose arrays are made before tracing starts.  It
also reports the best of three untraced runs of each stage, and the bytes
of the child's arrays and of its text.

Two more stages are traced on their own, with their input made before
tracing starts, so their peak is what the stage itself holds: "write to
file" is ``wgcutoff mesh gen`` writing the child to ``mesh.txt``, and
"commented import" is ``import_mesh`` of the exported text with a ``#``
line in front and CRLF line ends.

Run as ``PYTHONPATH=src python scripts/mesh_peaks.py``; it prints the
mesh-layer tables of the README.  L5 -> L6 holds about 0.3 GB at its
traced peak; the run reaches about 0.8 GB of RSS, tracing included.
"""

import contextlib
import io
import tempfile
import time
import tracemalloc
from pathlib import Path
from unittest import mock

from wgcutoff import cli, export_mesh, generate_annulus, import_mesh, refine_uniform

ARRAYS = ("nodes", "triangles", "edges", "tri_edges", "tri_edge_signs",
          "boundary_node", "boundary_edge", "boundary_component")
RUNS = 3


def write_file(mesh):
    """``wgcutoff mesh gen`` with ``mesh`` as its geometry, writing into a
    temporary directory; the statistics it prints are discarded."""
    with tempfile.TemporaryDirectory() as out, \
            mock.patch.object(cli, "build_mesh", lambda config: mesh), \
            contextlib.redirect_stdout(io.StringIO()):
        cli.cmd_mesh_gen({}, Path(out))


def commented(text):
    """``text`` with a ``#`` line in front and CRLF line ends."""
    return "# exported mesh\r\n" + text.replace("\n", "\r\n")


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


def own_peak(stage, value):
    """Traced peak (bytes) of ``stage(value)``, not counting ``value``."""
    tracemalloc.start()
    try:
        stage(value)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def best_time(stage, value):
    """Best untraced time (s) of ``stage(value)`` over ``RUNS``."""
    best = float("inf")
    for _ in range(RUNS):
        start = time.perf_counter()
        stage(value)
        best = min(best, time.perf_counter() - start)
    return best


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


def table(head, rows, columns, cell):
    print(f"| {head} | " + " | ".join(columns) + " |")
    print("|---" * (len(columns) + 1) + "|")
    for k, row in enumerate(rows):
        print(f"| {row} | " + " | ".join(cell(c, k) for c in range(len(columns)))
              + " |")
    print()


def main() -> None:
    mesh = generate_annulus(1e-3, 2e-3, 4, 48)
    for _ in range(4):
        mesh = refine_uniform(mesh)
    columns = []
    for level in (5, 6):
        child = refine_uniform(mesh)
        array_mb = sum(getattr(child, a).nbytes for a in ARRAYS) / 1e6
        text = export_mesh(child)
        text_mb = len(text) / 1e6
        crlf = commented(text)
        del text
        own = [own_peak(write_file, child), own_peak(import_mesh, crlf)]
        own_times = [best_time(write_file, child), best_time(import_mesh, crlf)]
        del child, crlf
        columns.append((level, traced_peaks(mesh) + own,
                        best_times(mesh) + own_times, array_mb, text_mb))
        mesh = refine_uniform(mesh)

    levels = [f"L{c[0]}" for c in columns]
    stages = ("`refine_uniform`", "`export_mesh`", "`import_mesh`")
    table("stage", stages, [f"{lv} peak (MB)" for lv in levels],
          lambda c, k: f"{columns[c][1][k] / 1e6:.1f}")
    own_stages = ("write to file (`mesh gen`)", "commented import")
    table("stage, input not counted", own_stages,
          [f"{lv} peak (MB)" for lv in levels],
          lambda c, k: f"{columns[c][1][3 + k] / 1e6:.1f}")
    table("stage", stages + own_stages,
          [f"{lv} best of {RUNS} (s)" for lv in levels],
          lambda c, k: f"{columns[c][2][k]:.2f}")
    for level, _, _, array_mb, text_mb in columns:
        print(f"L{level}: arrays {array_mb:.1f} MB, text {text_mb:.1f} MB")


if __name__ == "__main__":
    main()
