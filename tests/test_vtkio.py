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
# solve, with its phase pivot, the first of the annulus's symmetric copies
# of each mode's largest entry, or with the basis the solve picks inside a
# degenerate pair (scalar TM's modes 1 and 2 here).
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
        "14e1cadb4bf481eb164da556c75a10692ff710007426575a869b2fe8bbb39e60",
    "fields_scalar_te_1.vtk":
        "49f31a64e403cad2df9f8b084b122f4872d6fc228673e112b6b9b6ec0860f4f6",
    "fields_scalar_tm_0.vtk":
        "82eb31458a9d0184e4a9c7bd9d56a4829719735dc6c22124ea560400dcce37a1",
    "fields_scalar_tm_1.vtk":
        "c6a6b0fe516124a3b5eb1ce3b3b4499b8c1b3f77785d4d37b9aa3fff78911c8b",
    "fields_vector_te_0.vtk":
        "3ea4a6bab6d3cfddb94e118ee6174d3c68a7fca42389f49103fa672c7cfba6f7",
    "fields_vector_te_1.vtk":
        "f96450496959a3cbaa8bb7bbe9334a091f6b23485b4b40154742998016ee8c92",
    "fields_vector_te_2.vtk":
        "63d54f107a8fb2855e754ad3c3c5b356b0e25c6df3bfbe015e7e7553f2354501",
    "fields_vector_tm_0.vtk":
        "a25386e6cf71c5de9c88082b53e3e0b9528ffc8653e4f8c3dd0e126db7c0db4d",
    "fields_vector_tm_1.vtk":
        "729ed06623fbe9ee32827b3921ee954760bd860133490b614e5f11151b6a344e",
    "fields_vector_tm_2.vtk":
        "5151c56762eda82069ad9be71032d60beed79343dae35d560eba514350851db7",
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
