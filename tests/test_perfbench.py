"""Smoke tests of the benchmark's own code: a small coax ladder and a small
mesh round trip through ``perfbench/workloads.py`` with every layer traced.
A change to a call the benchmark makes (a signature, an option, a name it
patches) shows here as a failed operation or a patch that does not come
off."""

from pathlib import Path

import scipy.sparse.linalg as spla
from scipy.sparse.linalg._eigen.arpack import arpack

from wgcutoff import cli, crossval, eigensolve, femcore, mesh, modes, vtkio

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def run_traced(workload_class, tmp_path):
    """One traced pass of a workload, with ``perfbench`` on the path; checks
    that every name the tracer patched is restored and returns the
    workload, the pass and the tracer."""
    import spans

    patched = [cli, crossval, eigensolve, femcore, mesh, modes, vtkio, spla,
               arpack, modes.SOLVERS, modes._ASSEMBLERS]
    before = [dict(vars(owner) if not isinstance(owner, dict) else owner)
              for owner in patched]
    workload = workload_class(PERFBENCH.parent, tmp_path)
    tracer = spans.Tracer()
    tracer.install_wgcutoff()
    try:
        workload.setup(1, tracer)
        workload.warm_up(1)
        out = workload.run_pass(tracer)
    finally:
        tracer.uninstall()

    for owner, saved in zip(patched, before):
        now = owner if isinstance(owner, dict) else vars(owner)
        assert all(now[name] is value for name, value in saved.items())
    return workload, out, tracer


def test_small_coax_ladder_runs_traced(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    class SmallCoaxLadder(workloads.CoaxLadder):
        NR, NTHETA, LEVELS, MODES = 2, 12, 3, 2

    _, out, tracer = run_traced(SmallCoaxLadder, tmp_path)
    failed = [(name, error) for name, error in out.ops if error is not None]
    assert failed == []
    # a solve per level and formulation, the diagnostics of each vector
    # solution and the two scalar trends
    levels = SmallCoaxLadder.LEVELS
    assert len(out.ops) == 4 * levels + 2 * levels + 2
    assert any(s.name == "eigensolve.solve" for s in tracer.spans)


def test_small_mesh_io_runs_traced(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    class SmallMeshIO(workloads.MeshIO):
        LEVELS = 2

    workload, out, tracer = run_traced(SmallMeshIO, tmp_path)
    failed = [(name, error) for name, error in out.ops if error is not None]
    assert failed == []
    assert len(out.ops) == SmallMeshIO.LEVELS + 2
    assert workload.check(out) == []
    names = {s.name for s in tracer.spans}
    assert {"mesh.export", "mesh.import"} <= names
