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
``crossval``       solve scalar/vector pairs and report their agreement
                   (exit 2 if any pair disagrees beyond the tolerance).
``fields``         export per-mode field frames as legacy ASCII VTK files.

Every command reads ``--config <file.json>`` (schema-validated, unknown keys
rejected) and writes into ``--out <dir>`` (default: current directory).
Floats are printed with 17 significant digits so outputs are byte-stable.

Exit codes: 0 on success, 2 when a check fails (``medium check``,
``crossval``), and 1 on any error, printed as one ``error:`` line on stderr.
Errors include unreadable or invalid configs, bad meshes or media, and
eigensolver failures (``EigenSolveError``: more modes requested than the
mesh supports, a failed factorization, or a rejected eigenpair).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np
from jsonschema import Draft202012Validator

from . import crossval, modes, vtkio
from .eigensolve import EigenSolveError, SolveOptions
from .medium import (
    VERDICT_INDEPENDENT,
    MediumError,
    MediumSpec,
    validate as validate_medium,
)
from .mesh import (
    Mesh,
    MeshError,
    generate_annulus,
    generate_rectangle,
    generate_rectilinear_polygon,
    export_mesh,
    import_mesh,
    refine_uniform,
)
from .modes import Formulation

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_CHECK_FAILED = 2

_NUMBER = {"type": "number"}
_COUNT = {"type": "integer", "minimum": 0}

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
                "eps": {
                    "type": "object",
                    "additionalProperties": False,
                    "required": ["d", "alpha", "zz"],
                    "properties": {"d": _NUMBER, "alpha": _NUMBER, "zz": _NUMBER},
                },
                "mu": {
                    "type": "object",
                    "additionalProperties": False,
                    "required": ["d", "alpha", "zz"],
                    "properties": {"d": _NUMBER, "alpha": _NUMBER, "zz": _NUMBER},
                },
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
            "properties": {
                "shift": _NUMBER,
                "residual_tol": _NUMBER,
                "zero_frac": _NUMBER,
                "dense_cutoff": _COUNT,
                "seed": {"type": "integer"},
            },
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
    if kind == "rectangle":
        return generate_rectangle(geo["a"], geo["b"], geo["nx"], geo["ny"])
    if kind == "annulus":
        return generate_annulus(geo["r1"], geo["r2"], geo["nr"], geo["ntheta"])
    if kind == "polygon":
        return generate_rectilinear_polygon(geo["vertices"], geo["h"])
    with open(geo["path"], "r", encoding="utf-8") as handle:
        return import_mesh(handle.read())


def mesh_family(config: dict):
    meshes = [build_mesh(config)]
    for _ in range(config.get("refinements", 0)):
        meshes.append(refine_uniform(meshes[-1]))
    return meshes


def solver_options(config: dict, num_modes: int) -> SolveOptions:
    overrides = config.get("solver", {})
    return SolveOptions(num_modes=num_modes, **overrides)


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
    path = out_dir / "mesh.txt"
    path.write_text(export_mesh(mesh), encoding="utf-8")
    print(json.dumps(_mesh_stats(mesh), indent=2))
    return EXIT_OK


def cmd_mesh_info(config: dict, out_dir: Path) -> int:
    print(json.dumps(_mesh_stats(build_mesh(config)), indent=2))
    return EXIT_OK


def _formulations(config: dict):
    names = config.get("formulations", [f.value for f in Formulation])
    return [Formulation(name) for name in names]


def cmd_solve(config: dict, out_dir: Path) -> int:
    spec = _medium(config)
    num_modes = config.get("num_modes", 4)
    opts = solver_options(config, num_modes)
    meshes = mesh_family(config)
    rows = ["formulation,mesh_h,mode_index,k_t_rad_per_m,is_tem"]
    for formulation in _formulations(config):
        for mesh in meshes:
            solution = modes.SOLVERS[formulation](mesh, spec, num_modes, opts)
            for index, kt in enumerate(solution.cutoffs):
                is_tem = "true" if index < solution.tem_count else "false"
                rows.append(f"{formulation.value},{_fmt(mesh.h)},{index},"
                            f"{_fmt(kt)},{is_tem}")
    csv = "\n".join(rows) + "\n"
    (out_dir / "cutoffs.csv").write_text(csv, encoding="utf-8")
    sys.stdout.write(csv)
    return EXIT_OK


_PAIRS = (
    (Formulation.SCALAR_TE, Formulation.VECTOR_TE),
    (Formulation.SCALAR_TM, Formulation.VECTOR_TM),
)


def cmd_crossval(config: dict, out_dir: Path) -> int:
    spec = _medium(config)
    cv = config.get("crossval", {})
    count = cv.get("count", config.get("num_modes", 4))
    rtol = cv.get("rtol", 1e-3)
    requested = set(_formulations(config))
    mesh = mesh_family(config)[-1]
    opts = solver_options(config, count)
    reports = []
    for scalar, vector in _PAIRS:
        if not {scalar, vector} <= requested:
            continue
        a = modes.SOLVERS[scalar](mesh, spec, count, opts)
        b = modes.SOLVERS[vector](mesh, spec, count, opts)
        reports.append(crossval.compare_spectra(a, b, count, rtol))
    if not reports:
        raise ConfigError(
            "crossval needs both members of a scalar/vector pair in "
            "'formulations'"
        )
    payload = {"pairs": [r.to_json_dict() for r in reports],
               "all_passed": all(r.all_passed for r in reports)}
    text = json.dumps(payload, indent=2)
    print(text)
    (out_dir / "crossval.json").write_text(text + "\n", encoding="utf-8")
    return EXIT_OK if payload["all_passed"] else EXIT_CHECK_FAILED


def _scalar_frames(solution, index, omega):
    if solution.formulation is Formulation.SCALAR_TE:
        et, ht = modes.reconstruct_from_hz(solution, index, omega)
        label = "h_z"
    else:
        et, ht = modes.reconstruct_from_ez(solution, index, omega)
        label = "e_z"
    nodal = solution.pencil.primal_map.scatter(solution.dof_vectors[:, index])
    return et.samples, ht.samples, label, nodal


def _vector_frames(solution, index, omega):
    et, ht = modes.transverse_companion(solution, index, omega)
    nodal = solution.pencil.multiplier_map.scatter(
        solution.multiplier_vectors[:, index])
    return et.samples, ht.samples, "p", nodal


def cmd_fields(config: dict, out_dir: Path) -> int:
    spec = _medium(config)
    if "omega" not in config:
        raise ConfigError("field export requires 'omega' in the config")
    omega = config["omega"]
    num_modes = config.get("num_modes", 4)
    opts = solver_options(config, num_modes)
    mesh = mesh_family(config)[-1]
    written = []
    for formulation in _formulations(config):
        solution = modes.SOLVERS[formulation](mesh, spec, num_modes, opts)
        for index in range(solution.cutoffs.size):
            if formulation.is_vector:
                et, ht, label, nodal = _vector_frames(solution, index, omega)
            else:
                et, ht, label, nodal = _scalar_frames(solution, index, omega)
            content = vtkio.write_vtk(
                mesh,
                title=f"{formulation.value} mode {index} "
                      f"k_t={_fmt(solution.cutoffs[index])} rad/m",
                cell_vectors={
                    "Re_e_t": np.real(et), "Im_e_t": np.imag(et),
                    "Re_h_t": np.real(ht), "Im_h_t": np.imag(ht),
                },
                point_scalars={
                    f"Re_{label}": np.real(nodal),
                    f"Im_{label}": np.imag(nodal),
                },
            )
            path = out_dir / f"fields_{formulation.value}_{index}.vtk"
            path.write_text(content, encoding="utf-8")
            written.append(path.name)
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
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
