import contextlib
import dataclasses
import io
import json
import math
import os
import signal
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import wgcutoff.mesh as mesh_module
from wgcutoff import cli
from wgcutoff.cli import CONFIG_SCHEMA, main
from wgcutoff.eigensolve import SolveOptions
from wgcutoff.modes import Formulation
from conftest import CORRIDOR_VERTICES

GYRO = {"eps": {"d": 2, "alpha": -1, "zz": 1},
        "mu": {"d": 1, "alpha": 0.5, "zz": 2}}


def write_config(tmp_path, **overrides):
    config = {
        "medium": GYRO,
        "geometry": {"kind": "rectangle", "a": 1.2e-3, "b": 1.0e-3,
                     "nx": 6, "ny": 5},
        "refinements": 0,
        "formulations": ["scalar_tm"],
        "num_modes": 3,
    }
    config.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    return str(path)


class TestMediumCheck:
    def test_decoupled_medium_exits_zero(self, tmp_path, capsys):
        config = write_config(tmp_path)
        assert main(["medium", "check", "--config", config]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "IndependentModes"
        assert report["decoupling_residual"] == 0.0

    def test_coupled_medium_exits_two(self, tmp_path, capsys):
        bad = dict(GYRO, mu={"d": 1, "alpha": 0.6, "zz": 2})
        config = write_config(tmp_path, medium=bad)
        assert main(["medium", "check", "--config", config]) == 2
        report = json.loads(capsys.readouterr().out)
        assert report["decoupling_residual"] > 0

    def test_unknown_key_exits_one(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"medium": GYRO, "surprise": 1}))
        assert main(["medium", "check", "--config", str(path)]) == 1
        assert "surprise" in capsys.readouterr().err

    def test_missing_file_exits_one(self, tmp_path, capsys):
        assert main(["medium", "check", "--config",
                     str(tmp_path / "none.json")]) == 1


class TestMeshCommands:
    def test_gen_writes_importable_mesh(self, tmp_path, capsys):
        config = write_config(tmp_path)
        # chunks of 7 rows: the file is written in several pieces
        with mock.patch.object(mesh_module, "_CHUNK", 7):
            assert main(["mesh", "gen", "--config", config,
                         "--out", str(tmp_path)]) == 0
        from wgcutoff import export_mesh, generate_rectangle, import_mesh
        text = (tmp_path / "mesh.txt").read_bytes().decode()
        assert text == export_mesh(generate_rectangle(1.2e-3, 1.0e-3, 6, 5))
        mesh = import_mesh(text)
        assert mesh.num_nodes == 7 * 6
        stats = json.loads(capsys.readouterr().out)
        assert stats["boundary_components"] == 1
        assert stats["euler_deficit"] == 0

    def test_refine_applies_refinements(self, tmp_path, capsys):
        config = write_config(tmp_path, refinements=1)
        assert main(["mesh", "refine", "--config", config,
                     "--out", str(tmp_path)]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["triangles"] == 4 * 60

    def test_info_reports_annulus_components(self, tmp_path, capsys):
        config = write_config(tmp_path, geometry={
            "kind": "annulus", "r1": 1e-3, "r2": 2e-3, "nr": 2, "ntheta": 12})
        assert main(["mesh", "info", "--config", config]) == 0
        assert json.loads(capsys.readouterr().out)["boundary_components"] == 2

    def test_file_geometry_roundtrip(self, tmp_path, capsys):
        config = write_config(tmp_path)
        main(["mesh", "gen", "--config", config, "--out", str(tmp_path)])
        capsys.readouterr()
        config2 = write_config(tmp_path, geometry={
            "kind": "file", "path": str(tmp_path / "mesh.txt")})
        assert main(["mesh", "info", "--config", config2]) == 0
        assert json.loads(capsys.readouterr().out)["nodes"] == 42

    @pytest.mark.parametrize("command", [["mesh", "info"], ["solve"]])
    def test_mesh_in_pieces_exits_one(self, tmp_path, capsys, command):
        # the corridor vanishes at h = 0.25 mm
        config = write_config(tmp_path, geometry={
            "kind": "polygon", "h": 0.25e-3, "vertices": CORRIDOR_VERTICES})
        out = tmp_path / "out"
        assert main(command + ["--config", config, "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "Euler deficit 2 " in err[0]
        assert not (out / "cutoffs.csv").exists()

    def test_subnormal_polygon_h_exits_one(self, tmp_path, capsys):
        config = write_config(tmp_path, geometry={
            "kind": "polygon", "h": 5e-324, "vertices": CORRIDOR_VERTICES})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["mesh", "info", "--config", config]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: mesh has inf grid nodes, more than the int32 index limit "
            "2147483647"]

    @pytest.mark.parametrize("header", ["nodes -1", "nodes 10000000000000"])
    def test_bad_node_count_exits_one(self, tmp_path, capsys, header):
        path = tmp_path / "mesh.txt"
        path.write_text(f"{header}\n0 0\n1 0\n0 1\ntriangles 1\n0 1 2\n")
        config = write_config(tmp_path, geometry={"kind": "file",
                                                  "path": str(path)})
        assert main(["mesh", "info", "--config", config]) == 1
        assert capsys.readouterr().err.startswith("error: line 1: ")

    @pytest.mark.parametrize("text, message", [
        ("nodes 3\n0 0\n1 0\n0 1\ntriangles 1\n0 1 2147483648\n",
         "line 6: node index out of range"),
        ("nodes 3\n0 0\n1 0\n0 1\ntriangles 1\n0 9223372036854775808 2\n",
         "line 6: node index out of range"),
        ("nodes 1099511627776\n0 0\n1 0\n0 1\ntriangles 1\n0 1 2\n",
         "line 1: node count 1099511627776 exceeds the 5 data lines that "
         "follow"),
    ])
    def test_numbers_past_int32_exit_one(self, tmp_path, capsys, text, message):
        path = tmp_path / "mesh.txt"
        path.write_text(text)
        config = write_config(tmp_path, geometry={"kind": "file",
                                                  "path": str(path)})
        assert main(["mesh", "info", "--config", config]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"


class TestSolve:
    def test_csv_shape_and_header(self, tmp_path, capsys):
        config = write_config(tmp_path, refinements=1)
        assert main(["solve", "--config", config,
                     "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "cutoffs.csv").read_text().strip().splitlines()
        assert lines[0] == "formulation,mesh_h,mode_index,k_t_rad_per_m,is_tem"
        assert len(lines) == 1 + 2 * 3  # 2 levels x 3 modes

    def test_byte_identical_across_runs(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            geometry={"kind": "annulus", "r1": 1e-3, "r2": 2e-3,
                      "nr": 3, "ntheta": 20},
            formulations=["vector_tm"],
        )
        # the second run writes into a fresh --out, so it solves again
        # rather than reading the first run's stored solutions
        for out in ("first", "second"):
            main(["solve", "--config", config, "--out", str(tmp_path / out)])
        first, second = ((tmp_path / out / "cutoffs.csv").read_bytes()
                         for out in ("first", "second"))
        assert first == second

    def test_scalar_tm_csv_trend_is_decreasing(self, tmp_path, capsys):
        # 4 modes x 5 nested meshes, every tracked mode decreasing
        config = write_config(
            tmp_path,
            geometry={"kind": "rectangle", "a": 1.2e-3, "b": 1.0e-3,
                      "nx": 8, "ny": 8},
            refinements=4, num_modes=4,
        )
        main(["solve", "--config", config, "--out", str(tmp_path)])
        rows = (tmp_path / "cutoffs.csv").read_text().strip().splitlines()[1:]
        table = {}
        for row in rows:
            _, h, index, kt, _ = row.split(",")
            table.setdefault(int(index), []).append((float(h), float(kt)))
        assert len(table) == 4
        for sequence in table.values():
            ks = [kt for _, kt in sorted(sequence, reverse=True)]
            assert len(ks) == 5
            assert all(b <= a for a, b in zip(ks, ks[1:]))

    def test_single_mode_on_trivial_mesh(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            geometry={"kind": "rectangle", "a": 1e-3, "b": 1e-3,
                      "nx": 2, "ny": 2},
            formulations=["scalar_te"], num_modes=1,
        )
        main(["solve", "--config", config, "--out", str(tmp_path)])
        rows = (tmp_path / "cutoffs.csv").read_text().strip().splitlines()
        assert len(rows) == 2  # header plus exactly one mode row

    def test_coax_vector_rows_flag_one_tem_per_level(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            geometry={"kind": "annulus", "r1": 1e-3, "r2": 2e-3,
                      "nr": 3, "ntheta": 20},
            formulations=["vector_tm"], refinements=1,
        )
        main(["solve", "--config", config, "--out", str(tmp_path)])
        rows = (tmp_path / "cutoffs.csv").read_text().strip().splitlines()[1:]
        by_level = {}
        for row in rows:
            _, h, _, _, is_tem = row.split(",")
            by_level.setdefault(h, []).append(is_tem)
        assert len(by_level) == 2
        for flags in by_level.values():
            assert flags.count("true") == 1

    def test_mesh_family_built_once(self, tmp_path, capsys, monkeypatch):
        from wgcutoff import cli
        built = []
        build = cli.build_mesh
        monkeypatch.setattr(cli, "build_mesh",
                            lambda config: built.append(1) or build(config))
        config = write_config(tmp_path, refinements=1,
                              formulations=["scalar_te", "scalar_tm"])
        assert main(["solve", "--config", config,
                     "--out", str(tmp_path)]) == 0
        assert len(built) == 1
        rows = (tmp_path / "cutoffs.csv").read_text().strip().splitlines()[1:]
        formulations = [row.split(",")[0] for row in rows]
        assert formulations == ["scalar_te"] * 6 + ["scalar_tm"] * 6

    def test_eigensolver_error_exits_one(self, tmp_path, capsys):
        # a 2 x 2 rectangle holds 8 interior edges and 1 interior node, so
        # vector TE has room for only 7 constrained modes
        config = write_config(
            tmp_path,
            geometry={"kind": "rectangle", "a": 1e-3, "b": 1e-3,
                      "nx": 2, "ny": 2},
            formulations=["vector_te"], num_modes=10,
        )
        assert main(["solve", "--config", config,
                     "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "modes" in err
        assert "Traceback" not in err

    def test_memory_error_exits_one(self, tmp_path, capsys, monkeypatch):
        from wgcutoff import cli

        def too_large(*args):
            raise MemoryError("Unable to allocate 7.28 TiB")

        monkeypatch.setattr(cli, "generate_rectangle", too_large)
        config = write_config(tmp_path)
        assert main(["mesh", "info", "--config", config]) == 1
        err = capsys.readouterr().err
        assert err == "error: Unable to allocate 7.28 TiB\n"

    @pytest.mark.parametrize("solver, key", [
        # a negative seed once reached ARPACK's start vector and failed
        # there without naming the key
        ({"seed": -1}, "seed"),
        ({"seed": "1357"}, "seed"),
    ])
    def test_out_of_range_solver_option_exits_one(self, tmp_path, capsys,
                                                  solver, key):
        config = write_config(tmp_path, solver=solver)
        assert main(["solve", "--config", config,
                     "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: config invalid at solver")
        assert key in err
        assert not (tmp_path / "cutoffs.csv").exists()

    @pytest.mark.parametrize("key", ["shift", "residual_tol", "zero_frac",
                                     "dense_cutoff"])
    def test_removed_key_rejected(self, tmp_path, capsys, key):
        # the shift is -trace_scale for every pencil, and the residual gate,
        # the near-zero fraction and the dense path's size bound are not
        # set from a config; a config that still sets one is an error, not
        # silently ignored
        config = write_config(tmp_path, solver={key: 1e-3})
        assert main(["solve", "--config", config,
                     "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: config invalid at solver: ")
        assert f"'{key}'" in err and err.count("\n") == 1
        assert not (tmp_path / "cutoffs.csv").exists()

    def test_solver_schema_matches_solve_options(self):
        schema = set(CONFIG_SCHEMA["properties"]["solver"]["properties"])
        fields = {f.name for f in dataclasses.fields(SolveOptions)}
        assert schema == {"seed"} and schema <= fields


class TestCrossval:
    def test_fine_mesh_passes(self, tmp_path, capsys):
        config = write_config(
            tmp_path, refinements=2,
            formulations=["scalar_tm", "vector_tm"],
            crossval={"rtol": 0.02, "count": 3},
        )
        assert main(["crossval", "--config", config,
                     "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "crossval.json").read_text())
        assert payload["all_passed"]
        assert payload == json.loads(json.dumps(payload))  # JSON roundtrip

    def test_too_tight_tolerance_fails_with_exit_two(self, tmp_path, capsys):
        config = write_config(
            tmp_path, formulations=["scalar_tm", "vector_tm"],
            crossval={"rtol": 1e-9, "count": 2},
        )
        assert main(["crossval", "--config", config,
                     "--out", str(tmp_path)]) == 2

    def test_requires_a_complete_pair(self, tmp_path, capsys):
        config = write_config(tmp_path, formulations=["scalar_tm"])
        assert main(["crossval", "--config", config,
                     "--out", str(tmp_path)]) == 1


class TestFields:
    def test_scalar_te_export_structure(self, tmp_path, capsys):
        config = write_config(tmp_path, formulations=["scalar_te"],
                              num_modes=2, omega=2e12)
        assert main(["fields", "--config", config,
                     "--out", str(tmp_path)]) == 0
        text = (tmp_path / "fields_scalar_te_0.vtk").read_text()
        assert text.count("VECTORS") == 4  # Re/Im x e_t/h_t
        assert text.count("SCALARS") == 2  # Re/Im h_z
        assert "POINTS 42 double" in text
        assert "CELL_TYPES 60" in text

    def test_vector_export_has_no_nodal_data(self, tmp_path, capsys):
        # the multiplier of a divergence-free mode is zero: nothing to write
        config = write_config(tmp_path, formulations=["vector_tm"],
                              num_modes=1, omega=2e12)
        assert main(["fields", "--config", config,
                     "--out", str(tmp_path)]) == 0
        text = (tmp_path / "fields_vector_tm_0.vtk").read_text()
        assert text.count("VECTORS") == 4
        assert "POINT_DATA" not in text and "SCALARS" not in text

    def test_coax_tem_field_decays_outward(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            geometry={"kind": "annulus", "r1": 1e-3, "r2": 2e-3,
                      "nr": 3, "ntheta": 20},
            formulations=["vector_tm"], num_modes=2, omega=1e11,
        )
        assert main(["fields", "--config", config,
                     "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "fields_vector_tm_0.vtk").read_text().splitlines()
        points_at = lines.index("POINTS 80 double")
        points = np.array([[float(v) for v in ln.split()]
                           for ln in lines[points_at + 1: points_at + 81]])
        cells_at = next(i for i, ln in enumerate(lines)
                        if ln.startswith("CELLS"))
        ncells = int(lines[cells_at].split()[1])
        tris = np.array([[int(v) for v in ln.split()[1:]]
                         for ln in lines[cells_at + 1: cells_at + 1 + ncells]])
        start = lines.index("VECTORS Re_h_t double")
        field = np.array([[float(v) for v in ln.split()]
                          for ln in lines[start + 1: start + 1 + ncells]])
        radii = np.hypot(*points[tris].mean(axis=1)[:, :2].T)
        mags = np.hypot(field[:, 0], field[:, 1])
        assert mags[radii > 1.67e-3].max() < mags[radii < 1.33e-3].max()

    def test_geometry_once_per_solution(self, tmp_path, capsys, monkeypatch):
        # the fields task of each formulation, called in this process: the
        # counter cannot see calls made in a worker
        from wgcutoff import cli, femcore, vtkio
        calls = []
        geometry = femcore.triangle_geometry
        monkeypatch.setattr(femcore, "triangle_geometry",
                            lambda mesh: calls.append(1) or geometry(mesh))
        counts = []
        for num_modes in (1, 3):
            config = cli.load_config(write_config(
                tmp_path, num_modes=num_modes, omega=2e12,
                formulations=["scalar_te", "vector_tm"]))
            calls.clear()
            mesh = cli.mesh_family(config)[-1]
            spec = cli._medium(config)
            opts = cli.solver_options(config)
            grid = vtkio.grid_blocks(mesh)
            for formulation in cli._formulations(config):
                cli._write_fields(formulation, mesh, spec, num_modes, opts,
                                  config["omega"], grid, tmp_path)
            counts.append(len(calls))
        # per solution: one for assembly and one for the fields of all its
        # modes (the gradient stiffness of a vector pencil is C^H G, with
        # no geometry pass of its own)
        assert counts == [4, 4]

    def test_mesh_formatted_once_per_run(self, tmp_path, capsys, monkeypatch):
        from wgcutoff import vtkio
        calls = []
        grid_blocks = vtkio.grid_blocks
        monkeypatch.setattr(vtkio, "grid_blocks",
                            lambda mesh: calls.append(1) or grid_blocks(mesh))
        config = write_config(tmp_path, num_modes=3, omega=2e12,
                              formulations=["scalar_te", "vector_tm"])
        assert main(["fields", "--config", config,
                     "--out", str(tmp_path)]) == 0
        written = json.loads(capsys.readouterr().out)["written"]
        assert len(written) == 6
        # POINTS, CELLS and CELL_TYPES are formatted once for all six files
        assert len(calls) == 1

    @pytest.mark.parametrize("omega", [None, float("nan"), float("inf")])
    def test_missing_or_non_finite_omega_exits_one(self, tmp_path, capsys,
                                                   omega):
        extra = {} if omega is None else {"omega": omega}
        config = write_config(tmp_path, formulations=["scalar_te"], **extra)
        assert main(["fields", "--config", config,
                     "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "omega" in err
        assert not list(tmp_path.glob("*.vtk"))
        # rejected before anything is solved or stored
        assert not list(tmp_path.glob("solutions/*.npz"))

    @pytest.mark.parametrize("omega", [1e300, 1.7e308])
    def test_omega_past_the_float_range_exits_one(self, tmp_path, capsys,
                                                  omega):
        # the fields stay finite, but k^2 in k_z = sqrt(k^2 - k_t^2) does not
        config = write_config(tmp_path, formulations=["scalar_te"],
                              omega=omega)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["fields", "--config", config,
                         "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == (
            f"error: omega {omega:.6e} rad/s is too large: the bulk "
            "wavenumber squared overflows float64\n")
        assert not list(tmp_path.glob("*.vtk"))
        # rejected before anything is solved or stored
        assert not list(tmp_path.glob("solutions/*.npz"))

    def test_coupled_medium_fails_with_the_solve_error_first(self, tmp_path,
                                                             capsys):
        # the medium is checked before omega, and with the solve's message
        bad = dict(GYRO, mu={"d": 1, "alpha": 0.6, "zz": 2})
        config = write_config(tmp_path, medium=bad, formulations=["scalar_te"],
                              omega=1e300)
        assert main(["fields", "--config", config,
                     "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: medium does not guarantee independent "
                              "TE/TM modes") and err.count("\n") == 1
        assert not list(tmp_path.glob("solutions/*.npz"))


COAX = {"kind": "annulus", "r1": 1e-3, "r2": 2e-3, "nr": 2, "ntheta": 12}
COMMANDS = ("solve", "crossval", "fields")
#: solves per command on COAX with all four formulations
SOLVES = {"solve": 4, "crossval": 4, "fields": 4}
#: the same after ``solve`` in the same --out, whose solutions they read
SOLVES_AFTER_SOLVE = {"solve": 4, "crossval": 0, "fields": 0}


def coax_config(tmp_path):
    return write_config(
        tmp_path, geometry=COAX, refinements=0,
        formulations=["scalar_te", "scalar_tm", "vector_te", "vector_tm"],
        num_modes=2, omega=1e11, crossval={"rtol": 0.05, "count": 2},
    )


@pytest.fixture()
def solver_pids(tmp_path, monkeypatch):
    """Log the pid of every solve; the returned callable reads and clears it."""
    from wgcutoff import modes
    log = tmp_path / "pids.txt"
    for formulation, solve in list(modes.SOLVERS.items()):
        def logged(*args, solve=solve):
            with open(log, "a", encoding="utf-8") as handle:
                handle.write(f"{os.getpid()}\n")
            return solve(*args)
        monkeypatch.setitem(modes.SOLVERS, formulation, logged)

    def read():
        pids = [int(p) for p in log.read_text().split()] if log.exists() else []
        log.unlink(missing_ok=True)
        return pids
    return read


def set_cpus(monkeypatch, cpus, **blas_threads):
    """Pretend the affinity mask holds ``cpus`` CPUs and set the BLAS
    thread variables to ``blas_threads`` (all unset by default)."""
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(cpus)), raising=False)
    for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                 "OMP_NUM_THREADS"):
        if name in blas_threads:
            monkeypatch.setenv(name, blas_threads[name])
        else:
            monkeypatch.delenv(name, raising=False)


@pytest.fixture()
def two_workers(monkeypatch):
    set_cpus(monkeypatch, 2, OPENBLAS_NUM_THREADS="1")


def store_files(out):
    return sorted((out / "solutions").glob("*"))


class TestSolutionStore:
    def test_later_commands_read_what_solve_stored(self, tmp_path, capsys,
                                                    two_workers, solver_pids):
        config = coax_config(tmp_path)

        def run(command, out):
            code = main([command, "--config", config, "--out", str(out)])
            return code, capsys.readouterr().out, len(solver_pids())

        shared = [run(command, tmp_path / "shared") for command in COMMANDS]
        alone = [run(command, tmp_path / f"alone_{command}")
                 for command in COMMANDS]
        assert [solves for _, _, solves in shared] == [4, 0, 0]
        assert [solves for _, _, solves in alone] == [4, 4, 4]
        assert [r[:2] for r in shared] == [r[:2] for r in alone]
        assert 1 not in [code for code, _, _ in shared]
        outputs = {p.name: p.read_bytes()
                   for command in COMMANDS
                   for p in (tmp_path / f"alone_{command}").iterdir()
                   if p.is_file()}
        assert outputs == {p.name: p.read_bytes()
                           for p in (tmp_path / "shared").iterdir()
                           if p.is_file()}
        assert len(store_files(tmp_path / "shared")) == 4
        for path in store_files(tmp_path / "shared"):
            with np.load(path) as stored:
                assert sorted(stored) == sorted(
                    ["eigenvalues", "tem_count", "dof_vectors"])

    def test_crossval_reads_solve_at_a_smaller_count(self, tmp_path, capsys,
                                                      solver_pids):
        # crossval solves num_modes modes, as solve does, and compares the
        # first `count` of them
        config = write_config(tmp_path, geometry=COAX,
                              formulations=["scalar_te", "scalar_tm",
                                            "vector_te", "vector_tm"],
                              num_modes=3, crossval={"rtol": 0.5, "count": 2})
        assert main(["solve", "--config", config, "--out", str(tmp_path)]) == 0
        assert len(solver_pids()) == 4
        assert main(["crossval", "--config", config,
                     "--out", str(tmp_path)]) == 0
        assert len(solver_pids()) == 0
        assert len(store_files(tmp_path)) == 4
        payload = json.loads((tmp_path / "crossval.json").read_text())
        assert [len(pair["rel_diffs"]) for pair in payload["pairs"]] == [2, 2]

    def test_crossval_at_a_larger_count_keys_its_own_solutions(
            self, tmp_path, capsys):
        # the mode count is part of the key: crossval at count 3 after solve
        # at num_modes 2 solves again instead of reading 2 modes for 3
        from wgcutoff import cli
        from wgcutoff.modes import Formulation
        formulations = ["scalar_tm", "vector_tm"]
        config = write_config(tmp_path, geometry=COAX,
                              formulations=formulations, num_modes=2,
                              crossval={"rtol": 0.5, "count": 3})
        assert main(["solve", "--config", config, "--out", str(tmp_path)]) == 0
        assert main(["crossval", "--config", config,
                     "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "crossval.json").read_text())
        assert [len(pair["rel_diffs"]) for pair in payload["pairs"]] == [3]
        loaded = cli.load_config(config)
        mesh, spec = cli.build_mesh(loaded), cli._medium(loaded)
        opts = cli.solver_options(loaded)
        # two files per formulation, each holding the count it is keyed by
        assert len(store_files(tmp_path)) == 2 * len(formulations)
        for name in formulations:
            for q in (2, 3):
                key = cli._solution_key(Formulation(name), mesh, spec, q, opts)
                with np.load(tmp_path / "solutions" / f"{key}.npz") as stored:
                    nonzero = stored["eigenvalues"].size - stored["tem_count"]
                assert nonzero == q

    @pytest.mark.parametrize("change, misses", [
        ({}, 0),
        ({"medium": dict(GYRO, eps={"d": 2, "alpha": -0.5, "zz": 1},
                         mu={"d": 1, "alpha": 0.25, "zz": 2})}, 1),
        ({"num_modes": 2}, 1),
        ({"solver": {"seed": 7}}, 1),
        ({"refinements": 1}, 1),  # the coarse level is the stored one
        (None, 1),  # the package's source edited
    ])
    def test_changed_input_misses(self, tmp_path, capsys, monkeypatch,
                                  solver_pids, change, misses):
        from wgcutoff import cli
        out = tmp_path / "out"
        assert main(["solve", "--config", write_config(tmp_path),
                     "--out", str(out)]) == 0
        assert len(solver_pids()) == 1
        if change is None:
            monkeypatch.setattr(cli, "_source_digest", lambda: "edited")
        config = write_config(tmp_path, **(change or {}))
        assert main(["solve", "--config", config, "--out", str(out)]) == 0
        assert len(solver_pids()) == misses
        assert len(store_files(out)) == 1 + misses
        fresh = tmp_path / "fresh"
        main(["solve", "--config", config, "--out", str(fresh)])
        assert ((out / "cutoffs.csv").read_bytes()
                == (fresh / "cutoffs.csv").read_bytes())

    @pytest.mark.parametrize("damage", ["truncate", "shape", "eigenvalue"])
    def test_damaged_file_is_solved_again(self, tmp_path, capsys,
                                          solver_pids, damage):
        config = write_config(tmp_path)
        out = tmp_path / "out"
        main(["solve", "--config", config, "--out", str(out)])
        first = (out / "cutoffs.csv").read_bytes()
        assert len(solver_pids()) == 1
        [path] = store_files(out)
        if damage == "truncate":
            path.write_bytes(path.read_bytes()[:-100])
        else:
            with np.load(path) as stored:
                arrays = dict(stored)
            if damage == "shape":
                # one column more than there are eigenvalues: the residual
                # gate, which reads one column per eigenvalue, passes it
                vectors = arrays["dof_vectors"]
                arrays["dof_vectors"] = np.hstack([vectors, vectors[:, :1]])
            else:
                # fails the re-gate: its residual becomes about 7e-8
                arrays["eigenvalues"][0] *= 1 + 1e-6
            with open(path, "wb") as handle:
                np.savez(handle, **arrays)
        for solves in (1, 0):  # solved again and stored again
            (out / "cutoffs.csv").unlink()
            assert main(["solve", "--config", config,
                         "--out", str(out)]) == 0
            assert len(solver_pids()) == solves
            assert (out / "cutoffs.csv").read_bytes() == first
            assert store_files(out) == [path]

    def test_failed_solve_leaves_no_file(self, tmp_path, capsys, monkeypatch,
                                         solver_pids):
        from wgcutoff import modes
        from wgcutoff.eigensolve import EigenSolveError
        from wgcutoff.modes import Formulation

        def fails(*args):
            raise EigenSolveError("scalar_tm failed")

        monkeypatch.setitem(modes.SOLVERS, Formulation.SCALAR_TM, fails)
        config = write_config(tmp_path)
        assert main(["solve", "--config", config,
                     "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == "error: scalar_tm failed\n"
        assert store_files(tmp_path) == []

    def test_failed_write_leaves_no_file(self, tmp_path, capsys, monkeypatch,
                                         solver_pids):
        def fails(handle, **arrays):
            handle.write(b"PK partial")
            raise OSError("No space left on device")

        monkeypatch.setattr(np, "savez", fails)
        config = write_config(tmp_path)
        assert main(["solve", "--config", config,
                     "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == "error: No space left on device\n"
        assert store_files(tmp_path) == []


class TestWorkerCount:
    @pytest.mark.parametrize("cpus, blas_threads, workers", [
        (2, {}, 1),                                  # a BLAS thread per CPU
        (2, {"OPENBLAS_NUM_THREADS": "1"}, 2),
        (2, {"OMP_NUM_THREADS": "1"}, 2),
        (2, {"GOTO_NUM_THREADS": "1"}, 2),
        (2, {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 1),
        (2, {"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "1"}, 2),
        (2, {"OPENBLAS_NUM_THREADS": "x", "OMP_NUM_THREADS": "1"}, 2),
        (2, {"OPENBLAS_NUM_THREADS": "4"}, 1),
        (8, {"OPENBLAS_NUM_THREADS": "2"}, 4),
        (8, {"OPENBLAS_NUM_THREADS": "1"}, 6),       # one per task
        (1, {"OPENBLAS_NUM_THREADS": "1"}, 1),
    ])
    def test_workers_keep_the_blas_threads(self, monkeypatch, cpus,
                                           blas_threads, workers):
        from wgcutoff import cli
        set_cpus(monkeypatch, cpus, **blas_threads)
        assert cli._worker_count(6) == workers

    def test_no_affinity_mask_means_one_worker(self, monkeypatch):
        from wgcutoff import cli
        set_cpus(monkeypatch, 2, OPENBLAS_NUM_THREADS="1")
        monkeypatch.delattr(os, "sched_getaffinity")
        assert cli._worker_count(6) == 1


class TestWorkers:
    @pytest.mark.parametrize("command", COMMANDS)
    def test_solves_run_in_worker_processes(self, tmp_path, capsys,
                                            two_workers, solver_pids,
                                            command):
        config = coax_config(tmp_path)
        assert main([command, "--config", config,
                     "--out", str(tmp_path)]) != 1
        pids = solver_pids()
        assert len(pids) == SOLVES[command]
        assert os.getpid() not in pids

    @pytest.mark.parametrize("command", COMMANDS)
    def test_one_worker_solves_in_process(self, tmp_path, capsys,
                                          monkeypatch, solver_pids, command):
        set_cpus(monkeypatch, 2)  # OpenBLAS starts a thread per CPU
        config = coax_config(tmp_path)
        assert main([command, "--config", config,
                     "--out", str(tmp_path)]) != 1
        assert solver_pids() == [os.getpid()] * SOLVES[command]

    def test_outputs_match_one_worker(self, tmp_path, capsys, monkeypatch,
                                      solver_pids):
        config = coax_config(tmp_path)
        runs = []
        for cpus in (2, 1):
            set_cpus(monkeypatch, cpus, OPENBLAS_NUM_THREADS="1")
            out = tmp_path / f"out{cpus}"
            codes = []
            for command in COMMANDS:
                codes.append(main([command, "--config", config,
                                   "--out", str(out)]))
                pids = solver_pids()
                assert len(pids) == SOLVES_AFTER_SOLVE[command]
                assert all((pid == os.getpid()) == (cpus == 1)
                           for pid in pids)
            # the stored solutions are keyed alike, but their .npz members
            # carry their write times
            files = {p.name: p.read_bytes()
                     for p in sorted(out.iterdir()) if p.is_file()}
            keys = sorted(p.name for p in (out / "solutions").iterdir())
            runs.append((codes, capsys.readouterr().out, files, keys))
        assert 1 not in runs[0][0]
        # 2 modes per formulation, plus the TEM mode of each vector route
        assert sum(name.endswith(".vtk") for name in runs[0][2]) == 10
        assert b",true" in runs[0][2]["cutoffs.csv"]  # the coax TEM rows
        assert runs[0] == runs[1]

    def test_killed_worker_exits_one(self, tmp_path, capsys, monkeypatch,
                                     two_workers):
        from wgcutoff import modes
        from wgcutoff.modes import Formulation
        test_pid = os.getpid()

        def killed(*args):
            if os.getpid() == test_pid:
                raise AssertionError("the solve ran in the test's process")
            os.kill(os.getpid(), signal.SIGKILL)

        monkeypatch.setitem(modes.SOLVERS, Formulation.SCALAR_TM, killed)
        config = write_config(tmp_path, refinements=1)
        assert main(["solve", "--config", config,
                     "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err.count("\n") == 1
        assert "Traceback" not in err
        assert not (tmp_path / "cutoffs.csv").exists()

    def test_first_error_in_output_order_is_reported(self, tmp_path, capsys,
                                                     monkeypatch,
                                                     two_workers):
        # vector_te is submitted first and fails first; a one-worker run
        # would have met the scalar_te failure first
        from wgcutoff import modes
        from wgcutoff.eigensolve import EigenSolveError
        from wgcutoff.modes import Formulation

        def fails(name, delay):
            def solve(*args):
                time.sleep(delay)
                raise EigenSolveError(f"{name} failed")
            return solve

        monkeypatch.setitem(modes.SOLVERS, Formulation.SCALAR_TE,
                            fails("scalar_te", 0.3))
        monkeypatch.setitem(modes.SOLVERS, Formulation.VECTOR_TE,
                            fails("vector_te", 0.0))
        config = write_config(tmp_path, formulations=["scalar_te", "vector_te"])
        assert main(["solve", "--config", config,
                     "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == "error: scalar_te failed\n"

    def test_import_leaves_multiprocessing_out(self):
        import wgcutoff
        src = Path(wgcutoff.__file__).resolve().parents[1]
        code = ("import sys, wgcutoff.cli; print(sorted(m for m in sys.modules"
                " if m.split('.')[0] == 'multiprocessing'"
                " or m.startswith(('scipy.special', 'scipy.optimize'))))")
        done = subprocess.run([sys.executable, "-c", code], check=True,
                              env=dict(os.environ, PYTHONPATH=str(src)),
                              capture_output=True, text=True)
        assert done.stdout == "[]\n"


# ---------------------------------------------------------------------------
# fuzzing: every failure of every command is one `error:` line

#: Edges of the float range that a config may hold; JSON as Python writes
#: and reads it carries the infinities and NaN too.
_EDGES = (0.0, -1e-3, 5e-324, 1e-300, 1e300, 1.7e308, -1.7e308,
          float("inf"), float("nan"))
_L_SHAPE = ((0, 0), (3, 0), (3, 1), (1, 1), (1, 3), (0, 3))
_FUZZ_COMMANDS = (["medium", "check"], ["mesh", "info"], ["solve"],
                  ["crossval"], ["fields"])


@st.composite
def _number(draw, ordinary):
    """Mostly a draw of ``ordinary``, one in eight an edge of the float
    range."""
    if draw(st.integers(0, 7)) < 7:
        return draw(ordinary)
    return draw(st.sampled_from(_EDGES))


@st.composite
def _count(draw, low, high):
    """Mostly a count in ``[low, high]``, one in eight one below it."""
    if draw(st.integers(0, 7)) < 7:
        return draw(st.integers(low, max(high, low)))
    return draw(st.integers(0, low - 1))


@st.composite
def _medium(draw):
    """The reference medium, or (one in four) drawn numbers."""
    if draw(st.integers(0, 3)) < 3:
        return GYRO
    value = _number(st.floats(-2.0, 4.0))
    return {name: {key: draw(value) for key in ("d", "alpha", "zz")}
            for name in ("eps", "mu")}


@st.composite
def _mesh_text(draw, nodes):
    """Mesh-file text: an exported rectangle, perhaps with a wrong node
    count, a comment or CR line ends; or rows of drawn numbers."""
    if not draw(st.booleans()):
        nx = draw(st.integers(1, max(nodes // 2 - 1, 1)))
        mesh = mesh_module.generate_rectangle(
            1.2e-3, 1e-3, nx, max(nodes // (nx + 1) - 1, 1))
        text = mesh_module.export_mesh(mesh)
        if draw(st.booleans()):
            count = draw(st.integers(-1, 2 * mesh.num_nodes))
            text = f"nodes {count}\n" + text.split("\n", 1)[1]
        if draw(st.booleans()):
            end = draw(st.sampled_from(["\r\n", "\r"]))
            text = "# drawn\n" + text.replace("\n", end)
        return text
    count = draw(st.integers(0, nodes))
    coordinate = _number(st.floats(0.0, 1e-3))
    rows = [f"{draw(coordinate)!r} {draw(coordinate)!r}" for _ in range(count)]
    index = st.integers(-1, count)
    triangles = [" ".join(str(draw(index)) for _ in range(3))
                 for _ in range(draw(st.integers(0, 2 * count)))]
    return "\n".join([f"nodes {count}", *rows,
                      f"triangles {len(triangles)}", *triangles]) + "\n"


@st.composite
def _geometry(draw, nodes, directory):
    """A geometry of at most about ``nodes`` nodes, or one that the
    generators or the import reject before they build anything larger."""
    kind = draw(st.sampled_from(["rectangle", "annulus", "polygon", "file"]))
    length = _number(st.floats(1e-4, 1e-2))
    size = draw(length)
    if kind == "rectangle":
        nx = draw(_count(1, nodes // 2))
        return {"kind": kind, "a": size, "b": draw(length), "nx": nx,
                "ny": draw(_count(1, nodes // (nx + 1) - 1))}
    if kind == "annulus":
        ntheta = draw(_count(3, nodes // 2))
        return {"kind": kind, "r1": draw(_number(st.floats(0.0, 1e-3))),
                "r2": size, "ntheta": ntheta,
                "nr": draw(_count(1, nodes // max(ntheta, 1) - 1))}
    if kind == "polygon":
        # outline coordinates of 0 to 3 units, cells of 1 / k units
        if draw(st.integers(0, 3)) < 3:
            outline = _L_SHAPE
        else:
            outline = draw(st.lists(st.tuples(st.integers(0, 3),
                                              st.integers(0, 3)),
                                    min_size=4, max_size=8))
        k = draw(st.integers(1, max(math.isqrt(nodes) // 3, 1)))
        return {"kind": kind, "h": draw(_number(st.just(size / k))),
                "vertices": [[x * size, y * size] for x, y in outline]}
    path = directory / "mesh.txt"
    path.write_text(draw(_mesh_text(nodes)), encoding="utf-8")
    return {"kind": kind, "path": str(path)}


@st.composite
def _config(draw, directory):
    """A config within the schema whose meshes hold at most about 120
    nodes: the node budget is drawn first, and every count within it."""
    budget = draw(st.integers(16, 120))
    refinements = draw(st.integers(0, 2))
    config = {
        "medium": draw(_medium()),
        "geometry": draw(_geometry(max(budget // 4**refinements, 4),
                                   directory)),
        "refinements": refinements,
        "num_modes": draw(st.integers(1, 12)),
        "omega": draw(_number(st.floats(1e9, 1e12))),
    }
    if draw(st.booleans()):
        config["formulations"] = draw(st.lists(
            st.sampled_from([f.value for f in Formulation]),
            min_size=1, max_size=4))
    if draw(st.booleans()):
        config["solver"] = {"seed": draw(st.integers(0, 2**64))}
    if draw(st.booleans()):
        config["crossval"] = {"rtol": draw(_number(st.floats(1e-6, 1.0))),
                              "count": draw(st.integers(1, 12))}
    return config


@given(st.data())
@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
def test_fuzzed_configs_fail_with_one_error_line(data):
    command = data.draw(st.sampled_from(_FUZZ_COMMANDS))
    out, err = io.StringIO(), io.StringIO()
    # one worker, so that no example forks
    with (tempfile.TemporaryDirectory() as directory,
          warnings.catch_warnings(record=True) as caught,
          mock.patch.object(cli, "_worker_count", return_value=1),
          contextlib.redirect_stdout(out), contextlib.redirect_stderr(err)):
        warnings.simplefilter("always")
        directory = Path(directory)
        path = directory / "config.json"
        path.write_text(json.dumps(data.draw(_config(directory))),
                        encoding="utf-8")
        code = main(command + ["--config", str(path),
                               "--out", str(directory / "out")])
    assert code in (0, 1, 2)
    # a warning prints lines of its own on the command line
    assert [str(warning.message) for warning in caught] == []
    lines = err.getvalue().splitlines()
    if code == 1:
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
    else:
        assert lines == []
