import dataclasses
import json

import numpy as np
import pytest

from wgcutoff.cli import CONFIG_SCHEMA, main
from wgcutoff.eigensolve import SolveOptions

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
        assert main(["mesh", "gen", "--config", config,
                     "--out", str(tmp_path)]) == 0
        from wgcutoff import import_mesh
        mesh = import_mesh((tmp_path / "mesh.txt").read_text())
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
        main(["solve", "--config", config, "--out", str(tmp_path)])
        first = (tmp_path / "cutoffs.csv").read_bytes()
        main(["solve", "--config", config, "--out", str(tmp_path)])
        assert (tmp_path / "cutoffs.csv").read_bytes() == first

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

    @pytest.mark.parametrize("solver", [{"zero_frac": -1}, {"shift": -1.0}])
    def test_out_of_range_solver_option_exits_one(self, tmp_path, capsys,
                                                  solver):
        config = write_config(tmp_path, solver=solver)
        assert main(["solve", "--config", config,
                     "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert next(iter(solver)) in err
        assert not (tmp_path / "cutoffs.csv").exists()

    def test_solver_schema_matches_solve_options(self):
        schema = set(CONFIG_SCHEMA["properties"]["solver"]["properties"])
        fields = {f.name for f in dataclasses.fields(SolveOptions)}
        assert schema == fields - {"num_modes"}


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

    def test_vector_export_carries_multiplier(self, tmp_path, capsys):
        config = write_config(tmp_path, formulations=["vector_tm"],
                              num_modes=1, omega=2e12)
        assert main(["fields", "--config", config,
                     "--out", str(tmp_path)]) == 0
        text = (tmp_path / "fields_vector_tm_0.vtk").read_text()
        assert "Re_p" in text and "Im_p" in text

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

    def test_missing_omega_exits_one(self, tmp_path, capsys):
        config = write_config(tmp_path, formulations=["scalar_te"])
        assert main(["fields", "--config", config,
                     "--out", str(tmp_path)]) == 1
        assert "omega" in capsys.readouterr().err
