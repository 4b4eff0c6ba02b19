import hashlib
import json

import numpy as np
import pytest

from wgcutoff import generate_annulus, generate_rectangle, refine_uniform
from wgcutoff.cli import main
from wgcutoff.vtkio import write_vtk


def line_by_line_vtk(mesh, title, point_scalars, cell_vectors):
    """Reference writer: every value formatted on its own line."""
    def fmt(x):
        return f"{x:.17g}"

    lines = [
        "# vtk DataFile Version 3.0",
        title,
        "ASCII",
        "DATASET UNSTRUCTURED_GRID",
        f"POINTS {mesh.num_nodes} double",
    ]
    lines.extend(f"{fmt(x)} {fmt(y)} 0" for x, y in mesh.nodes)
    lines.append(f"CELLS {mesh.num_triangles} {4 * mesh.num_triangles}")
    lines.extend(f"3 {i} {j} {k}" for i, j, k in mesh.triangles)
    lines.append(f"CELL_TYPES {mesh.num_triangles}")
    lines.extend(["5"] * mesh.num_triangles)
    if cell_vectors:
        lines.append(f"CELL_DATA {mesh.num_triangles}")
        for name, values in cell_vectors.items():
            lines.append(f"VECTORS {name} double")
            lines.extend(f"{fmt(vx)} {fmt(vy)} 0" for vx, vy in values)
    if point_scalars:
        lines.append(f"POINT_DATA {mesh.num_nodes}")
        for name, values in point_scalars.items():
            lines.append(f"SCALARS {name} double 1")
            lines.append("LOOKUP_TABLE default")
            lines.extend(fmt(v) for v in values)
    return "\n".join(lines) + "\n"


SPECIALS = np.array([-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308,
                     -1.7976931348623157e308, np.nan, np.inf, -np.inf,
                     3.0, -42.0, 2.0**53, 1e16, 0.1, -1 / 3])


def field_values(rng, size):
    """Random doubles over many decades with every special value mixed in."""
    values = rng.standard_normal(size) * 10.0 ** rng.integers(-300, 300, size)
    spots = rng.permutation(size)[:SPECIALS.size]
    values[spots] = SPECIALS[:spots.size]
    return values


def one_triangle():
    from wgcutoff import build_topology
    return build_topology([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)], [(0, 1, 2)])


MESHES = {
    "rectangle": lambda: generate_rectangle(1.2e-3, 1.0e-3, 7, 5),
    "refined_annulus": lambda: refine_uniform(
        generate_annulus(1e-3, 2e-3, 2, 12)),
    "one_triangle": one_triangle,
}


@pytest.mark.parametrize("kind", sorted(MESHES))
def test_matches_line_by_line_writer(kind):
    mesh = MESHES[kind]()
    rng = np.random.default_rng(7)
    v, t = mesh.num_nodes, mesh.num_triangles
    point_scalars = {"Re_%s {0} x": field_values(rng, v),
                     "100%": field_values(rng, v)}
    cell_vectors = {"e t %d": field_values(rng, 2 * t).reshape(t, 2),
                    "{}": field_values(rng, 2 * t).reshape(t, 2)}
    title = "vector_te mode 0 %s %d %% {} {0} k_t=1 rad/m"
    text = write_vtk(mesh, title, point_scalars, cell_vectors)
    assert text == line_by_line_vtk(mesh, title, point_scalars, cell_vectors)
    for name in (*point_scalars, *cell_vectors):
        assert f" {name} double" in text
    assert text.splitlines()[1] == title


def test_special_values_written_like_format():
    mesh = generate_rectangle(1.0, 1.0, len(SPECIALS), 1)
    values = np.resize(SPECIALS, mesh.num_nodes)
    text = write_vtk(mesh, point_scalars={"s": values})
    rows = text.splitlines()[-mesh.num_nodes:]
    assert rows == [f"{x:.17g}" for x in values]
    assert {"-0", "4.9406564584124654e-324", "nan", "inf", "-inf",
            "1.7976931348623157e+308", "3", "9007199254740992"} <= set(rows)


def test_integer_and_list_arrays_match_reference():
    mesh = generate_rectangle(1.0, 2.0, 2, 3)
    point_scalars = {"ints": np.arange(mesh.num_nodes) - 4}
    cell_vectors = {"lists": [[float(i), -0.5 * i]
                              for i in range(mesh.num_triangles)]}
    text = write_vtk(mesh, "t", point_scalars, cell_vectors)
    assert text == line_by_line_vtk(mesh, "t", point_scalars, cell_vectors)


@pytest.mark.parametrize("empty", [None, {}])
def test_mesh_only_when_no_arrays(empty):
    mesh = refine_uniform(generate_annulus(1e-3, 2e-3, 2, 12))
    text = write_vtk(mesh, point_scalars=empty, cell_vectors=empty)
    assert text == line_by_line_vtk(mesh, "wgcutoff fields", {}, {})
    assert "CELL_DATA" not in text and "POINT_DATA" not in text
    assert text.endswith("\n5\n")


@pytest.mark.parametrize("argument, shape, message", [
    ("point_scalars", (3,), "point scalar 'bad'"),
    ("cell_vectors", (2,), "cell vector 'bad'"),
    ("cell_vectors", (2, 3), "cell vector 'bad'"),
])
def test_wrong_shape_rejected(unit_square_mesh, argument, shape, message):
    with pytest.raises(ValueError, match=message):
        write_vtk(unit_square_mesh, **{argument: {"bad": np.zeros(shape)}})


# SHA-256 of the files that `wgcutoff fields` writes for this config.  They
# read the same at one and two BLAS threads, and move with the last bits of a
# solve or with its phase pivot, the first of the annulus's symmetric copies
# of each mode's largest entry.
FIELDS_CONFIG = {
    "medium": {"eps": {"d": 2, "alpha": -1, "zz": 1},
               "mu": {"d": 1, "alpha": 0.5, "zz": 2}},
    "geometry": {"kind": "annulus", "r1": 1e-3, "r2": 2e-3,
                 "nr": 2, "ntheta": 12},
    "formulations": ["scalar_te", "scalar_tm", "vector_te", "vector_tm"],
    "num_modes": 2,
    "omega": 6.5e10,
}
FIELDS_SHA256 = {
    "fields_scalar_te_0.vtk":
        "25883662338f64386b3fec124e1ebb6cb84ab55a95c21c27c9c581872c8f273d",
    "fields_scalar_te_1.vtk":
        "f7359892613b53ba009904b4bcd46bc335da6c3e338e13d7b9fb40d1bc27aa42",
    "fields_scalar_tm_0.vtk":
        "e25249b0363dec5eee6b27ff5e1b7c1edaa55e27f64a9411de3771a74ed756a5",
    "fields_scalar_tm_1.vtk":
        "94b707642ad293045634851a6482a020f839dbc9e5f6f4f8123bc5cd5eb4bff7",
    "fields_vector_te_0.vtk":
        "ad7e604b9d2f25fd79b683271b50df9d9710da87b9e186685f48e4da1e15498f",
    "fields_vector_te_1.vtk":
        "581f0b210f8ea696fc7aa3cf3a7b8144b589d5165050c79a71ba15f9fa74444c",
    "fields_vector_te_2.vtk":
        "474013f767fb11925fec63721aba4c63ff006f8ecf38229a40bd97c85535e58a",
    "fields_vector_tm_0.vtk":
        "b6f6858e0aeb754036ce11bd73a35d59144d25b4e323784968be693fae0d0c2c",
    "fields_vector_tm_1.vtk":
        "5d680f7913d9a47fb95bb9e72c90d31470b37d4687c0c22bc9abe8829432add2",
    "fields_vector_tm_2.vtk":
        "f64c6d26c88e9121603ab551889aa39394b51d8dc45d7f92045c246687cd833e",
}


def test_fields_files_are_pinned(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(FIELDS_CONFIG), encoding="utf-8")
    assert main(["fields", "--config", str(config),
                 "--out", str(tmp_path)]) == 0
    written = json.loads(capsys.readouterr().out)["written"]
    assert sorted(written) == sorted(FIELDS_SHA256)
    for name, digest in FIELDS_SHA256.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() \
            == digest, name
