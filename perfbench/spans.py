"""In-memory spans around the calls into each layer of ``wgcutoff``.

A :class:`Tracer` patches public functions at the name their caller looks
them up through (a module attribute or a dispatch-table entry), records one
span per call (name, start, end, parent, attributes) and restores every
patch when it is uninstalled.  Nothing is written while the run is timed;
:func:`layer_metrics` turns the spans into per-layer figures afterwards.

Self time of a span is its duration minus the durations of its direct
children.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager


class Span:
    __slots__ = ("name", "start", "end", "parent", "attrs", "children")

    def __init__(self, name, start, parent, attrs):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.attrs = attrs
        self.children = []

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self, index_of) -> dict:
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": None if self.parent is None else index_of[id(self.parent)],
                "attrs": self.attrs}


class _LUProxy:
    """Stands in for a ``SuperLU`` object and traces each ``solve``."""

    def __init__(self, tracer, lu):
        self._tracer = tracer
        self._lu = lu

    def solve(self, *args, **kwargs):
        with self._tracer.span("lu.solve"):
            return self._lu.solve(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._lu, name)


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []

    @contextmanager
    def span(self, name, **attrs):
        parent = self._stack[-1] if self._stack else None
        record = Span(name, time.perf_counter(), parent, attrs)
        if parent is not None:
            parent.children.append(record)
        self.spans.append(record)
        self._stack.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn, name, on_result=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
            if on_result is not None:
                return on_result(record, result)
            return result
        return traced

    def patch(self, owner, attr, name, on_result=None):
        """Replace ``owner.attr`` (or ``owner[attr]`` for a dict)."""
        if isinstance(owner, dict):
            original = owner[attr]
            owner[attr] = self.wrap(original, name, on_result)
        else:
            original = getattr(owner, attr)
            setattr(owner, attr, self.wrap(original, name, on_result))
        self._patches.append((owner, attr, original))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    def install_wgcutoff(self):
        """Patch every layer boundary the per-layer metrics read."""
        import scipy.sparse.linalg as spla
        from scipy.sparse.linalg._eigen.arpack import arpack

        from wgcutoff import cli, crossval, eigensolve, femcore, mesh, modes, vtkio

        def pencil_size(record, pencil):
            record.attrs["nnz"] = int(pencil.K.nnz + pencil.M.nnz)
            return pencil

        def mesh_size(record, built):
            record.attrs["nodes"] = int(built.num_nodes)
            return built

        def lu_proxy(record, lu):
            record.attrs["nnz"] = int(lu.nnz)
            return _LUProxy(self, lu)

        def text_size(record, text):
            record.attrs["bytes"] = len(text)  # legacy VTK is ASCII
            return text

        for key in list(modes._ASSEMBLERS):
            self.patch(modes._ASSEMBLERS, key, "femcore.assemble", pencil_size)
        for key in list(modes.SOLVERS):
            self.patch(modes.SOLVERS, key, "modes.solve")
        self.patch(eigensolve, "solve", "eigensolve.solve")
        self.patch(femcore, "triangle_geometry", "femcore.triangle_geometry")
        self.patch(mesh, "build_topology", "mesh.build_topology", mesh_size)
        self.patch(vtkio, "write_vtk", "vtkio.write", text_size)
        for name in ("reconstruct_from_hz", "reconstruct_from_ez",
                     "transverse_companion"):
            self.patch(modes, name, "modes.fields")
        self.patch(crossval, "compare_spectra", "crossval")
        self.patch(cli, "build_mesh", "cli.build_mesh")
        self.patch(cli, "refine_uniform", "mesh.refine")
        self.patch(spla, "eigsh", "arpack.eigsh")
        self.patch(spla, "splu", "lu.factor", lu_proxy)
        self.patch(arpack, "splu", "lu.factor", lu_proxy)

    def export(self) -> list:
        index_of = {id(s): i for i, s in enumerate(self.spans)}
        return [s.to_dict(index_of) for s in self.spans]


def load_spans(records: list) -> list:
    """Rebuild spans written by :meth:`Tracer.export` (e.g. by a child)."""
    spans = []
    for rec in records:
        up = None if rec["parent"] is None else spans[rec["parent"]]
        span = Span(rec["name"], rec["start"], up, rec["attrs"])
        span.end = rec["end"]
        if up is not None:
            up.children.append(span)
        spans.append(span)
    return spans


def _has_descendant(span, name) -> bool:
    return any(c.name == name or _has_descendant(c, name) for c in span.children)


def _self_time(span, subtract=None) -> float:
    """Duration minus direct children (only those named in ``subtract``)."""
    inner = sum(c.duration for c in span.children
                if subtract is None or c.name in subtract)
    return span.duration - inner


def _under(span, name) -> bool:
    up = span.parent
    while up is not None:
        if up.name == name:
            return True
        up = up.parent
    return False


# (metric name, unit) in the order BENCHMARK.json lists them
LAYER_METRICS = (
    ("mesh.refine_s", "s"),
    ("mesh.topology_s", "s"),
    ("mesh.export_s", "s"),
    ("mesh.import_s", "s"),
    ("mesh.nodes", "count"),
    ("femcore.assemble_s", "s"),
    ("femcore.pencil_nnz", "count"),
    ("femcore.geometry_calls", "count"),
    ("eigensolve.solve_s", "s"),
    ("eigensolve.factorizations", "count"),
    ("eigensolve.factor_s", "s"),
    ("eigensolve.lu_nnz", "count"),
    ("eigensolve.lu_solves", "count"),
    ("eigensolve.lu_solve_s", "s"),
    ("eigensolve.arpack_s", "s"),
    ("eigensolve.dense_calls", "count"),
    ("eigensolve.dense_s", "s"),
    ("modes.post_s", "s"),
    ("modes.fields_s", "s"),
    ("modes.diagnostics_s", "s"),
    ("crossval.s", "s"),
    ("vtkio.write_s", "s"),
    ("vtkio.bytes", "count"),
    ("cli.self_s", "s"),
    ("cli.mesh_builds", "count"),
    ("cli.solves", "count"),
)

#: Counts that must repeat exactly between two traced runs of one seed.
EXACT_COUNTS = ("eigensolve.factorizations", "eigensolve.lu_solves",
                "femcore.geometry_calls", "cli.mesh_builds", "cli.solves",
                "mesh.nodes", "vtkio.bytes")


def layer_metrics(spans) -> dict:
    """Per-layer totals over all spans, keyed as in :data:`LAYER_METRICS`."""
    by_name = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def total(name):
        return sum(s.duration for s in by_name.get(name, ()))

    def count(name):
        return len(by_name.get(name, ()))

    def attr_sum(name, key):
        return sum(s.attrs.get(key, 0) for s in by_name.get(name, ()))

    def in_eigensolve(name):
        # splu is patched process-wide, so the gradient-space factorization
        # of the vector solvers is traced too; it belongs to modes.post_s
        return [s for s in by_name.get(name, ()) if _under(s, "eigensolve.solve")]

    factors = in_eigensolve("lu.factor")
    lu_solves = in_eigensolve("lu.solve")
    solves = by_name.get("eigensolve.solve", ())
    dense = [s for s in solves if not _has_descendant(s, "arpack.eigsh")]
    cli_solves = [s for s in by_name.get("modes.solve", ()) if _under(s, "cli.main")]
    return {
        "mesh.refine_s": total("mesh.refine"),
        "mesh.topology_s": total("mesh.build_topology"),
        "mesh.export_s": total("mesh.export"),
        "mesh.import_s": total("mesh.import"),
        "mesh.nodes": max((s.attrs["nodes"] for s in by_name.get("mesh.build_topology", ())),
                          default=0),
        "femcore.assemble_s": total("femcore.assemble"),
        "femcore.pencil_nnz": attr_sum("femcore.assemble", "nnz"),
        "femcore.geometry_calls": count("femcore.triangle_geometry"),
        "eigensolve.solve_s": total("eigensolve.solve"),
        "eigensolve.factorizations": len(factors),
        "eigensolve.factor_s": sum(s.duration for s in factors),
        "eigensolve.lu_nnz": sum(s.attrs["nnz"] for s in factors),
        "eigensolve.lu_solves": len(lu_solves),
        "eigensolve.lu_solve_s": sum(s.duration for s in lu_solves),
        "eigensolve.arpack_s": sum(_self_time(s) for s in in_eigensolve("arpack.eigsh")),
        "eigensolve.dense_calls": len(dense),
        "eigensolve.dense_s": sum(s.duration for s in dense),
        "modes.post_s": sum(_self_time(s, ("femcore.assemble", "eigensolve.solve"))
                            for s in by_name.get("modes.solve", ())),
        "modes.fields_s": total("modes.fields"),
        "modes.diagnostics_s": total("modes.diagnostics"),
        "crossval.s": total("crossval"),
        "vtkio.write_s": total("vtkio.write"),
        "vtkio.bytes": attr_sum("vtkio.write", "bytes"),
        "cli.self_s": sum(_self_time(s) for s in by_name.get("cli.main", ())),
        "cli.mesh_builds": count("cli.build_mesh"),
        "cli.solves": len(cli_solves),
    }
