"""Command-line surface.

Subcommands
-----------
``medium check``   validate the material parameters, print the report as JSON
                   (exit 0 when independent TE/TM modes are guaranteed,
                   2 when not, 1 on input errors).
``mesh gen``       generate the configured geometry, write ``mesh.txt``.
``mesh refine``    same, plus the configured number of uniform refinements.
``mesh info``      print node/edge/triangle/boundary statistics as JSON.
``solve``          solve the configured formulations on the refinement
                   family, write ``cutoffs.csv``.
``crossval``       solve scalar/vector pairs as ``solve`` does (at
                   ``crossval.count`` modes where that exceeds
                   ``num_modes``) and report the agreement of their first
                   ``count`` cut-offs (exit 2 if any pair disagrees beyond
                   the tolerance).
``fields``         export per-mode field frames as legacy ASCII VTK files:
                   the transverse fields per triangle, and the solved
                   nodal field of a scalar route (a vector route's
                   divergence multiplier is zero and is not written).

Every command reads ``--config <file.json>`` (schema-validated, unknown keys
rejected) and writes into ``--out <dir>`` (default: current directory).
``num_modes`` is the mode count of every solve, and the optional ``solver``
object holds ``seed``, ARPACK's start-vector seed.  The shift (``sigma =
-trace_scale``) and the residual gate are fixed, the dense path runs only
past ARPACK's reach, and no near-zero fraction exists, so a config that sets
``solver.shift``, ``solver.residual_tol``, ``solver.zero_frac`` or
``solver.dense_cutoff`` is rejected as an unknown key.
Floats are printed with 17 significant digits so outputs are byte-stable.

``solve``, ``crossval`` and ``fields`` keep every solution they compute in
``<out>/solutions/<key>.npz`` and read it back when a later command in the
same ``--out`` needs the same solve, so ``crossval`` and ``fields`` after
``solve`` solve nothing again.  The key is the SHA-256 of everything that
decides the solution's bits: the package's source files, the NumPy and
SciPy versions, the BLAS thread count, the formulation, the medium, the
mode count, the solver options and the mesh arrays.  A stored solution
passes every check of a solve again before it is used (the medium verdict,
its shapes against the assembled pencil, the residual gate), and a file
that fails or cannot be read is solved again and replaced, so a stale or
damaged store costs time but does not change an output.  For the README
config with all four formulations it takes 5.3 MB, beside 52 MB of VTK
files.  Delete ``solutions/`` to force a re-solve.

``solve``, ``crossval`` and ``fields`` spread their independent solves over
forked worker processes when the CPUs allow it.  Each worker keeps the BLAS
thread count the command started with (one per CPU unless
``OPENBLAS_NUM_THREADS``, ``GOTO_NUM_THREADS`` or ``OMP_NUM_THREADS`` sets
it), so there are as many workers as that count fits into the CPUs of the
affinity mask, and at most one per solve task.  With one worker, as at the
default thread count, under ``taskset -c 0 wgcutoff ...`` or on a system
without affinity masks (macOS, Windows), the solves run one at a time in
the command's own process.  The outputs are the same for any number of
workers.  Memory adds up across workers: the total can reach the worker
count times the largest solve.

Exit codes: 0 on success, 2 when a check fails (``medium check``,
``crossval``), and 1 on any error, printed as one ``error:`` line on stderr.
Errors include unreadable or invalid configs, bad meshes or media,
eigensolver failures (``EigenSolveError``: more modes requested than the
mesh supports, a failed factorization, or a rejected eigenpair), a
``MemoryError`` from a mesh or a solve too large for the machine, and a
worker process that died (``BrokenExecutor``, as when the system's
out-of-memory killer ends it).  When a worker fails, the error reported is
the one a one-worker run would have met first.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import os
import sys
import tempfile
import zipfile
from concurrent.futures import BrokenExecutor
from pathlib import Path

import numpy as np
import scipy
from jsonschema import Draft202012Validator

from . import crossval, modes, vtkio
from .eigensolve import EigenSolveError, SolveOptions
from .medium import (
    VERDICT_INDEPENDENT,
    MediumError,
    MediumSpec,
    bulk_wavenumber,
    validate as validate_medium,
)
from .mesh import (
    Mesh,
    MeshError,
    generate_annulus,
    generate_rectangle,
    generate_rectilinear_polygon,
    export_chunks,
    import_mesh,
    refine_uniform,
)
from .modes import Formulation

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_CHECK_FAILED = 2

_NUMBER = {"type": "number"}
_COUNT = {"type": "integer", "minimum": 0}
_TENSOR = {
    "type": "object",
    "additionalProperties": False,
    "required": ["d", "alpha", "zz"],
    "properties": {"d": _NUMBER, "alpha": _NUMBER, "zz": _NUMBER},
}

CONFIG_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["medium"],
    "properties": {
        "medium": {
            "type": "object",
            "additionalProperties": False,
            "required": ["eps", "mu"],
            "properties": {
                "eps": _TENSOR,
                "mu": _TENSOR,
            },
        },
        "geometry": {
            "type": "object",
            "oneOf": [
                {
                    "additionalProperties": False,
                    "required": ["kind", "a", "b", "nx", "ny"],
                    "properties": {
                        "kind": {"const": "rectangle"},
                        "a": _NUMBER, "b": _NUMBER,
                        "nx": _COUNT, "ny": _COUNT,
                    },
                },
                {
                    "additionalProperties": False,
                    "required": ["kind", "r1", "r2", "nr", "ntheta"],
                    "properties": {
                        "kind": {"const": "annulus"},
                        "r1": _NUMBER, "r2": _NUMBER,
                        "nr": _COUNT, "ntheta": _COUNT,
                    },
                },
                {
                    "additionalProperties": False,
                    "required": ["kind", "vertices", "h"],
                    "properties": {
                        "kind": {"const": "polygon"},
                        "vertices": {
                            "type": "array",
                            "minItems": 4,
                            "items": {
                                "type": "array",
                                "items": _NUMBER,
                                "minItems": 2,
                                "maxItems": 2,
                            },
                        },
                        "h": _NUMBER,
                    },
                },
                {
                    "additionalProperties": False,
                    "required": ["kind", "path"],
                    "properties": {
                        "kind": {"const": "file"},
                        "path": {"type": "string"},
                    },
                },
            ],
        },
        "refinements": _COUNT,
        "formulations": {
            "type": "array",
            "minItems": 1,
            "items": {"enum": [f.value for f in Formulation]},
        },
        "num_modes": {"type": "integer", "minimum": 1},
        "omega": {"type": "number", "exclusiveMinimum": 0},
        "solver": {
            "type": "object",
            "additionalProperties": False,
            "properties": {"seed": _COUNT},
        },
        "crossval": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "rtol": {"type": "number", "exclusiveMinimum": 0},
                "count": {"type": "integer", "minimum": 1},
            },
        },
    },
}

_VALIDATOR = Draft202012Validator(CONFIG_SCHEMA)


class ConfigError(ValueError):
    pass


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            config = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    errors = sorted(_VALIDATOR.iter_errors(config), key=lambda e: list(e.path))
    if errors:
        first = errors[0]
        where = "/".join(str(p) for p in first.path) or "<root>"
        raise ConfigError(f"config invalid at {where}: {first.message}")
    return config


def build_mesh(config: dict) -> Mesh:
    try:
        geo = config["geometry"]
    except KeyError:
        raise ConfigError("config has no geometry section") from None
    kind = geo["kind"]
    # the schema's integers include 4.0, which the generators refuse
    if kind == "rectangle":
        return generate_rectangle(geo["a"], geo["b"], int(geo["nx"]),
                                  int(geo["ny"]))
    if kind == "annulus":
        return generate_annulus(geo["r1"], geo["r2"], int(geo["nr"]),
                                int(geo["ntheta"]))
    if kind == "polygon":
        return generate_rectilinear_polygon(geo["vertices"], geo["h"])
    with open(geo["path"], "r", encoding="utf-8") as handle:
        return import_mesh(handle.read())


def mesh_family(config: dict):
    meshes = [build_mesh(config)]
    for _ in range(config.get("refinements", 0)):
        meshes.append(refine_uniform(meshes[-1]))
    return meshes


def solver_options(config: dict) -> SolveOptions:
    """The ``solver`` object of ``config``; the mode count is passed to
    each solve on its own."""
    return SolveOptions(**config.get("solver", {}))


def _medium(config: dict) -> MediumSpec:
    return MediumSpec.from_json_dict(config["medium"])


def _mesh_stats(mesh: Mesh) -> dict:
    return {
        "nodes": mesh.num_nodes,
        "edges": mesh.num_edges,
        "triangles": mesh.num_triangles,
        "boundary_edges": int(mesh.boundary_edge.sum()),
        "boundary_components": mesh.num_boundary_components,
        "h": mesh.h,
        "euler_deficit": mesh.euler_deficit(),
    }


def cmd_medium_check(config: dict, out_dir: Path) -> int:
    report = validate_medium(_medium(config))
    print(json.dumps(report.to_json_dict(), indent=2))
    return EXIT_OK if report.verdict == VERDICT_INDEPENDENT else EXIT_CHECK_FAILED


def cmd_mesh_gen(config: dict, out_dir: Path, refine: bool = False) -> int:
    mesh = mesh_family(config)[-1] if refine else build_mesh(config)
    with open(out_dir / "mesh.txt", "w", encoding="utf-8") as handle:
        handle.writelines(export_chunks(mesh))
    print(json.dumps(_mesh_stats(mesh), indent=2))
    return EXIT_OK


def cmd_mesh_info(config: dict, out_dir: Path) -> int:
    print(json.dumps(_mesh_stats(build_mesh(config)), indent=2))
    return EXIT_OK


def _formulations(config: dict):
    names = config.get("formulations", [f.value for f in Formulation])
    return [Formulation(name) for name in names]


#: The variables OpenBLAS reads its thread count from, first one set wins.
_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                          "OMP_NUM_THREADS")


def _blas_threads(cpus: int) -> int:
    """The thread count OpenBLAS starts with: the first positive variable
    of :data:`_BLAS_THREAD_VARIABLES`, else one thread per CPU."""
    for name in _BLAS_THREAD_VARIABLES:
        try:
            threads = int(os.environ.get(name, ""))
        except ValueError:
            continue
        if threads > 0:
            return threads
    return cpus


def _worker_count(tasks: int) -> int:
    """Workers that each keep the parent's BLAS threads on CPUs of their own.

    Keeping the thread count keeps the bits: a worker's results equal those
    of the same solve in the parent.  Where the system reports no
    affinity mask there is one worker: Windows cannot fork, and on macOS
    the system libraries NumPy may use for BLAS are not safe to fork.
    """
    if not hasattr(os, "sched_getaffinity"):
        return 1
    cpus = len(os.sched_getaffinity(0))
    return max(1, min(tasks, cpus // _blas_threads(cpus)))


def _run_tasks(task, tasks, size=None):
    """``[task(*args) for args in tasks]``, the calls spread over workers.

    One worker runs the calls in this process.  More workers are forked, so
    they start with the package imported and the parent's state in place; a
    spawned worker would spend about 0.5 s importing the package again.
    With ``fork`` the pool starts all its workers at the first submit,
    before any thread of its own, and OpenBLAS restarts its threads in each
    child.  Given ``size``, the calls are submitted largest ``size(args)``
    first, so no worker is left alone with a large call at the end.  The
    results are read in the order of ``tasks``; the first of them that
    raised cancels the calls not yet started and is raised here.
    """
    workers = _worker_count(len(tasks))
    if workers == 1:
        return [task(*args) for args in tasks]

    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    context = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(workers, mp_context=context) as pool:
        order = range(len(tasks))
        if size is not None:
            order = sorted(order, key=lambda i: size(tasks[i]), reverse=True)
        futures = {i: pool.submit(task, *tasks[i]) for i in order}
        try:
            return [futures[i].result() for i in range(len(tasks))]
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise


@functools.cache
def _source_digest() -> str:
    """SHA-256 over the names and bytes of the package's ``*.py`` files."""
    files = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
             for path in sorted(Path(__file__).parent.glob("*.py"))}
    return hashlib.sha256(json.dumps(files).encode()).hexdigest()


def _solution_key(formulation, mesh, spec, q, opts) -> str:
    """SHA-256 of everything that decides the bits of a solution."""
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    medium = (spec.eps_t.d, spec.eps_t.alpha, spec.eps_zz,
              spec.mu_t.d, spec.mu_t.alpha, spec.mu_zz)
    header = [
        _source_digest(), np.__version__, scipy.__version__,
        _blas_threads(cpus), formulation.value,
        [float(x).hex() for x in medium], q,
        [repr(value) for value in dataclasses.astuple(opts)],
        [[a.dtype.str, a.shape] for a in (mesh.nodes, mesh.triangles)],
    ]
    digest = hashlib.sha256(json.dumps(header).encode())
    for array in (mesh.nodes, mesh.triangles):
        digest.update(array.tobytes())
    return digest.hexdigest()


#: The arrays of a stored solution, the arguments of ``modes.restore``.
_STORED = ("eigenvalues", "dof_vectors")

#: What a failed read of a stored solution raises: a missing, truncated or
#: damaged file (a member's CRC-32 catches changed bytes), one that is not
#: an ``.npz``, or one whose arrays fail a check of ``modes.restore``.
_STORE_MISS = (OSError, EOFError, KeyError, TypeError, ValueError,
               zipfile.BadZipFile, EigenSolveError)


def _save(path: Path, solution) -> None:
    """Write ``solution`` to ``path`` under a temporary name, then move it
    into place, so no reader sees a partial file."""
    path.parent.mkdir(exist_ok=True)
    handle, temporary = tempfile.mkstemp(suffix=".tmp", dir=path.parent)
    try:
        with os.fdopen(handle, "wb") as stream:
            np.savez(stream, **{name: getattr(solution, name)
                                for name in _STORED})
        os.replace(temporary, path)
    finally:
        Path(temporary).unlink(missing_ok=True)


def _solution(formulation, mesh, spec, q, opts, out_dir):
    """``modes.SOLVERS[formulation]`` for ``q`` modes, kept in
    ``out_dir/solutions``.

    A solution is stored as ``<key>.npz`` (see :func:`_solution_key`) once
    the solve has returned it, so only gated pairs are kept.  A stored
    solution is read without pickles and goes through :func:`modes.restore`,
    which runs every check of the solve again; a file that cannot be read
    or fails a check is solved again and replaced.  A medium that fails its
    verdict fails it in the solve too, with the solve's error.
    """
    key = _solution_key(formulation, mesh, spec, q, opts)
    path = out_dir / "solutions" / f"{key}.npz"
    try:
        # opened here: np.load leaves a file it opened itself open when
        # the file is not a whole zip archive
        with (open(path, "rb") as handle,
              np.load(handle, allow_pickle=False) as stored):
            arrays = {name: stored[name] for name in _STORED}
        return modes.restore(formulation, mesh, spec, q, **arrays)
    except _STORE_MISS:
        pass
    solution = modes.SOLVERS[formulation](mesh, spec, q, opts)
    _save(path, solution)
    return solution


def _solve_rows(formulation, mesh, spec, q, opts, out_dir):
    solution = _solution(formulation, mesh, spec, q, opts, out_dir)
    rows = []
    for index, kt in enumerate(solution.cutoffs):
        is_tem = "true" if index < solution.tem_count else "false"
        rows.append(f"{formulation.value},{_fmt(mesh.h)},{index},"
                    f"{_fmt(kt)},{is_tem}")
    return rows


def cmd_solve(config: dict, out_dir: Path) -> int:
    spec = _medium(config)
    q = config.get("num_modes", 4)
    opts = solver_options(config)
    meshes = mesh_family(config)
    tasks = [(formulation, mesh, spec, q, opts, out_dir)
             for formulation in _formulations(config) for mesh in meshes]
    blocks = _run_tasks(_solve_rows, tasks,
                        size=lambda t: (t[0].is_vector, t[1].num_edges))
    rows = ["formulation,mesh_h,mode_index,k_t_rad_per_m,is_tem"]
    rows += [row for block in blocks for row in block]
    csv = "\n".join(rows) + "\n"
    (out_dir / "cutoffs.csv").write_text(csv, encoding="utf-8")
    sys.stdout.write(csv)
    return EXIT_OK


def _compare_pair(scalar, vector, mesh, spec, q, opts, count, rtol,
                  out_dir):
    a = _solution(scalar, mesh, spec, q, opts, out_dir)
    b = _solution(vector, mesh, spec, q, opts, out_dir)
    return crossval.compare_spectra(a, b, count, rtol)


def cmd_crossval(config: dict, out_dir: Path) -> int:
    spec = _medium(config)
    cv = config.get("crossval", {})
    num_modes = config.get("num_modes", 4)
    count = cv.get("count", num_modes)
    rtol = cv.get("rtol", 1e-3)
    requested = set(_formulations(config))
    pairs = [pair for pair in crossval.PAIRS if set(pair) <= requested]
    if not pairs:
        raise ConfigError(
            "crossval needs both members of a scalar/vector pair in "
            "'formulations'"
        )
    mesh = mesh_family(config)[-1]
    # solved as `solve` solves, so its stored solutions are reused
    q = max(count, num_modes)
    opts = solver_options(config)
    reports = _run_tasks(
        _compare_pair,
        [(scalar, vector, mesh, spec, q, opts, count, rtol, out_dir)
         for scalar, vector in pairs])
    payload = {"pairs": [r.to_json_dict() for r in reports],
               "all_passed": all(r.all_passed for r in reports)}
    text = json.dumps(payload, indent=2)
    print(text)
    (out_dir / "crossval.json").write_text(text + "\n", encoding="utf-8")
    return EXIT_OK if payload["all_passed"] else EXIT_CHECK_FAILED


def _frames(solution, index, omega):
    """The transverse fields of one mode and, for a scalar route, its
    solved nodal field as VTK point scalars."""
    et, ht = modes.transverse_companion(solution, index, omega)
    if solution.formulation.is_vector:
        return et.samples, ht.samples, {}
    label = "h_z" if solution.formulation is Formulation.SCALAR_TE else "e_z"
    nodal = solution.full_vector(index)
    return et.samples, ht.samples, {f"Re_{label}": np.real(nodal),
                                    f"Im_{label}": np.imag(nodal)}


def _write_fields(formulation, mesh, spec, q, opts, omega, grid, out_dir):
    """Solve one formulation and write one VTK file per mode; their names."""
    solution = _solution(formulation, mesh, spec, q, opts, out_dir)
    written = []
    for index in range(solution.cutoffs.size):
        et, ht, point_scalars = _frames(solution, index, omega)
        content = vtkio.write_vtk(
            mesh,
            title=f"{formulation.value} mode {index} "
                  f"k_t={_fmt(solution.cutoffs[index])} rad/m",
            cell_vectors={
                "Re_e_t": np.real(et), "Im_e_t": np.imag(et),
                "Re_h_t": np.real(ht), "Im_h_t": np.imag(ht),
            },
            point_scalars=point_scalars,
            grid=grid,
        )
        path = out_dir / f"fields_{formulation.value}_{index}.vtk"
        path.write_text(content, encoding="utf-8")
        written.append(path.name)
    return written


def cmd_fields(config: dict, out_dir: Path) -> int:
    spec = _medium(config)
    if "omega" not in config:
        raise ConfigError("field export requires 'omega' in the config")
    omega = config["omega"]
    # the medium with the solve's error, then omega (the schema lets NaN and
    # infinity through), both before anything is solved or stored
    bulk_wavenumber(spec, omega)
    q = config.get("num_modes", 4)
    opts = solver_options(config)
    mesh = mesh_family(config)[-1]
    grid = vtkio.grid_blocks(mesh)
    names = _run_tasks(
        _write_fields,
        [(formulation, mesh, spec, q, opts, omega, grid, out_dir)
         for formulation in _formulations(config)])
    written = [name for block in names for name in block]
    print(json.dumps({"written": written}, indent=2))
    return EXIT_OK


def main(argv=None) -> int:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="JSON run configuration")
    common.add_argument("--out", default=".", help="output directory")

    parser = argparse.ArgumentParser(
        prog="wgcutoff",
        description="Waveguide cut-off modes for media with decoupled "
                    "TE/TM families",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    medium = sub.add_parser("medium", help="material parameter checks")
    medium_sub = medium.add_subparsers(dest="subcommand", required=True)
    medium_sub.add_parser("check", parents=[common])

    mesh = sub.add_parser("mesh", help="mesh generation and inspection")
    mesh_sub = mesh.add_subparsers(dest="subcommand", required=True)
    mesh_sub.add_parser("gen", parents=[common])
    mesh_sub.add_parser("refine", parents=[common])
    mesh_sub.add_parser("info", parents=[common])

    sub.add_parser("solve", parents=[common],
                   help="cut-off wavenumbers as CSV")
    sub.add_parser("crossval", parents=[common],
                   help="scalar vs vector agreement report")
    sub.add_parser("fields", parents=[common],
                   help="per-mode VTK field export")
    args = parser.parse_args(argv)

    try:
        config = load_config(args.config)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        if args.command == "medium":
            return cmd_medium_check(config, out_dir)
        if args.command == "mesh":
            if args.subcommand == "gen":
                return cmd_mesh_gen(config, out_dir)
            if args.subcommand == "refine":
                return cmd_mesh_gen(config, out_dir, refine=True)
            return cmd_mesh_info(config, out_dir)
        if args.command == "solve":
            return cmd_solve(config, out_dir)
        if args.command == "crossval":
            return cmd_crossval(config, out_dir)
        return cmd_fields(config, out_dir)
    except (ConfigError, MeshError, MediumError, EigenSolveError, ValueError,
            OSError, MemoryError, BrokenExecutor) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
