import csv
import dataclasses
import json

import numpy as np
import pytest

from thmfrac import app, cli, staggered
from thmfrac.app import run_scenario
from thmfrac.cli import main
from thmfrac.errors import ConfigError, NonConvergence, SolverFailure, ThmfracError
from thmfrac.io_vtk import vtk_grid, write_vtk
from thmfrac.mesh import generate_rect_mesh
from thmfrac.presets import terzaghi
from thmfrac.scenario import build_simulation


def read_vtk(path):
    """The four header lines and the arrays of a legacy binary VTK
    unstructured grid, each payload read as the big-endian values its
    keyword line announces and checked to end with a newline: ``POINTS``,
    ``CELLS`` and ``CELL_TYPES`` by keyword, data arrays by (section,
    name)."""
    data = path.read_bytes()
    pos = 0

    def line():
        nonlocal pos
        end = data.index(b"\n", pos)
        text, pos = data[pos:end].decode(), end + 1
        return text

    def payload(dtype, count):
        nonlocal pos
        values = np.frombuffer(data, dtype=dtype, count=count, offset=pos)
        pos += values.nbytes
        assert data[pos:pos + 1] == b"\n"
        pos += 1
        return values

    header = [line() for _ in range(4)]
    arrays, section, size = {}, None, 0
    while pos < len(data):
        words = line().split()
        if words[0] == "POINTS":
            assert words[2] == "double"
            arrays["POINTS"] = payload(">f8", 3 * int(words[1])).reshape(-1, 3)
        elif words[0] == "CELLS":
            arrays["CELLS"] = payload(">i4", int(words[2])).reshape(int(words[1]), -1)
        elif words[0] == "CELL_TYPES":
            arrays["CELL_TYPES"] = payload(">i4", int(words[1]))
        elif words[0] in ("POINT_DATA", "CELL_DATA"):
            section, size = words[0], int(words[1])
        elif words[0] == "SCALARS":
            assert words[2:] == ["double", "1"] and line() == "LOOKUP_TABLE default"
            arrays[section, words[1]] = payload(">f8", size)
        else:
            assert words[0] == "VECTORS" and words[2] == "double"
            arrays[section, words[1]] = payload(">f8", 3 * size).reshape(-1, 3)
    return header, arrays


def _assert_grid(arrays, mesh):
    """The mesh block of ``arrays`` holds ``mesh`` bit for bit."""
    assert arrays["POINTS"][:, :2].tobytes() == mesh.nodes.astype(">f8").tobytes()
    assert not arrays["POINTS"][:, 2].any()
    assert (arrays["CELLS"][:, 0] == 4).all()
    assert np.array_equal(arrays["CELLS"][:, 1:], mesh.elems)
    assert (arrays["CELL_TYPES"] == 9).all() and arrays["CELL_TYPES"].size == mesh.n_elems


def _same_bits(stored, values):
    return stored.tobytes() == np.asarray(values, dtype=">f8").tobytes()


@pytest.fixture
def short_terzaghi():
    cfg = terzaghi()
    cfg.controls = dataclasses.replace(cfg.controls, dt_schedule=[(5.0, 1.0)])
    cfg.snapshot_every = 2
    return cfg


def test_run_writes_declared_artifacts(tmp_path, short_terzaghi):
    result = run_scenario(short_terzaghi, tmp_path)
    assert len(result.times) == 6
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["status"] == "completed"
    declared = set(manifest["files"])
    on_disk = {p.name for p in tmp_path.iterdir()} - {"manifest.json"}
    assert declared == on_disk  # no orphan files
    with open(tmp_path / "series.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["time_s", "p_mid", "ux_face"]
    assert len(rows) == 7  # header + t=0 + 5 steps
    assert float(rows[1][0]) == 0.0
    # probe values are finite and the face displacement grows
    assert float(rows[-1][2]) > float(rows[1][2])


def test_reruns_are_bit_identical(tmp_path, short_terzaghi):
    run_scenario(short_terzaghi, tmp_path / "a")
    run_scenario(short_terzaghi, tmp_path / "b")
    assert (tmp_path / "a" / "series.csv").read_bytes() == \
        (tmp_path / "b" / "series.csv").read_bytes()


def test_snapshot_cadence(tmp_path, short_terzaghi, monkeypatch):
    grids = []
    monkeypatch.setattr(app, "vtk_grid", lambda mesh: grids.append(mesh) or vtk_grid(mesh))
    run_scenario(short_terzaghi, tmp_path)
    snaps = sorted(p.name for p in tmp_path.glob("snapshot_*.vtk"))
    # t=0, steps 2 and 4 on cadence, final step 5
    assert snaps == ["snapshot_000000.vtk", "snapshot_000002.vtk",
                     "snapshot_000004.vtk", "snapshot_000005.vtk"]
    assert len(grids) == 1      # the mesh block is encoded once per run
    data = (tmp_path / "snapshot_000004.vtk").read_bytes()
    for arr in (b"SCALARS p ", b"SCALARS T ", b"SCALARS v ", b"VECTORS u ",
                b"SCALARS width ", b"SCALARS porosity ", b"SCALARS permeability_xx "):
        assert arr in data


def test_failed_run_records_the_failure(tmp_path, short_terzaghi):
    short_terzaghi.controls = dataclasses.replace(short_terzaghi.controls, max_inner=1)
    with pytest.raises(NonConvergence):
        run_scenario(short_terzaghi, tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["status"] == "failed" and "FAILED" in manifest["files"]
    failure = manifest["failure"]
    assert failure["type"] == "NonConvergence" and failure["time"] == 1.0
    assert failure["message"].startswith("inner (T-p-u) loop exceeded 1 iterations")
    marker = (tmp_path / "FAILED").read_text()
    assert "t = 1.0 s" in marker
    assert f"NonConvergence: {failure['message']}" in marker
    with open(tmp_path / "series.csv") as fh:
        assert len(list(csv.reader(fh))) == 2   # header + t = 0


def test_failed_run_records_the_increment_history(tmp_path, short_terzaghi):
    short_terzaghi.controls = dataclasses.replace(short_terzaghi.controls, max_inner=2)
    with pytest.raises(NonConvergence) as exc:
        run_scenario(short_terzaghi, tmp_path)
    history = exc.value.history
    assert len(history) == 2 and all(len(inc) == 3 for inc in history)
    failure = json.loads((tmp_path / "manifest.json").read_text())["failure"]
    assert failure["history"] == [list(inc) for inc in history]
    lines = (tmp_path / "FAILED").read_text().splitlines()
    assert [json.loads(line[len("history: "):]) for line in lines
            if line.startswith("history: ")] == [failure["history"]]


def test_cli_run_roundtrip(tmp_path):
    out = tmp_path / "run"
    code = main(["run", "terzaghi", "--out", str(out),
                 "--override", "controls.dt_schedule=[[3.0,1.0]]",
                 "--override", "outputs.snapshot_every=0"])
    assert code == 0
    assert (out / "series.csv").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["scenario"] == "terzaghi"
    assert manifest["config"]["controls"]["dt_schedule"] == [[3.0, 1.0]]


def _package_errors(cls=ThmfracError):
    for sub in cls.__subclasses__():
        yield sub
        yield from _package_errors(sub)


@pytest.mark.parametrize("cls", list(_package_errors()), ids=lambda c: c.__name__)
def test_every_package_error_exits_with_a_documented_code(cls, tmp_path, monkeypatch,
                                                          capsys):
    # a solver failure is raised by the run and exits 3 after the partial
    # outputs are written; every other package error is raised while the
    # scenario is set up and exits 2 before anything is written
    exc = cls(["boom"]) if issubclass(cls, ConfigError) else cls("boom")

    def raising(*args, **kwargs):
        raise exc

    if issubclass(cls, SolverFailure):
        monkeypatch.setattr(staggered.Simulation, "time_step", raising)
        code, message = cli.EXIT_SOLVER, "3 solver failure"
    else:
        monkeypatch.setattr(app, "build_simulation", raising)
        code, message = cli.EXIT_CONFIG, "2 config error"
    assert main(["run", "terzaghi", "--out", str(tmp_path / "out")]) == code
    assert "boom" in capsys.readouterr().err
    assert message in " ".join(cli.__doc__.split())
    assert (tmp_path / "out").exists() == (code == cli.EXIT_SOLVER)


def test_cli_run_config_file(tmp_path):
    from thmfrac.config import config_to_dict

    cfg = terzaghi()
    cfg.controls = dataclasses.replace(cfg.controls, dt_schedule=[(2.0, 1.0)])
    cfg.snapshot_every = 0
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(config_to_dict(cfg)))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 0


def test_vtk_writer_shapes(tmp_path, rng):
    mesh = generate_rect_mesh(1.0, 2.0, 2, 3)
    path = write_vtk(tmp_path / "m.vtk", vtk_grid(mesh),
                     point_data={"f": rng.uniform(size=mesh.n_nodes)},
                     cell_data={"g": rng.uniform(size=mesh.n_elems)})
    lines = path.read_bytes().split(b"\n")
    assert lines[0].startswith(b"# vtk DataFile") and lines[2] == b"BINARY"
    assert f"POINTS {mesh.n_nodes} double".encode() in lines
    assert f"CELLS {mesh.n_elems} {5 * mesh.n_elems}".encode() in lines
    assert f"POINT_DATA {mesh.n_nodes}".encode() in lines
    assert f"CELL_DATA {mesh.n_elems}".encode() in lines


def test_snapshot_round_trips_every_array_bit_for_bit(tmp_path, rng):
    mesh = generate_rect_mesh(1.0, 2.0, 3, 4)
    p = rng.normal(size=mesh.n_nodes)
    p[[0, 1, 2]] = [np.nan, np.inf, -0.0]
    u = rng.normal(size=2 * mesh.n_nodes) * 1e-300
    g = rng.uniform(size=mesh.n_elems)
    path = write_vtk(tmp_path / "s.vtk", vtk_grid(mesh), point_data={"p": p},
                     point_vectors={"u": u}, cell_data={"g": g}, title="column t=1 s")
    header, arrays = read_vtk(path)
    assert header == ["# vtk DataFile Version 3.0", "column t=1 s", "BINARY",
                      "DATASET UNSTRUCTURED_GRID"]
    _assert_grid(arrays, mesh)
    assert _same_bits(arrays["POINT_DATA", "p"], p)
    assert _same_bits(arrays["POINT_DATA", "u"][:, :2], u.reshape(-1, 2))
    assert not arrays["POINT_DATA", "u"][:, 2].any()
    assert _same_bits(arrays["CELL_DATA", "g"], g)
    assert set(arrays) == {"POINTS", "CELLS", "CELL_TYPES", ("POINT_DATA", "p"),
                           ("POINT_DATA", "u"), ("CELL_DATA", "g")}


def test_mesh_dump_round_trips_every_array_bit_for_bit(tmp_path):
    out = tmp_path / "mesh.vtk"
    assert main(["mesh-dump", "terzaghi", "--out", str(out)]) == 0
    sim = build_simulation(terzaghi())
    header, arrays = read_vtk(out)
    assert header[1:] == ["terzaghi mesh", "BINARY", "DATASET UNSTRUCTURED_GRID"]
    _assert_grid(arrays, sim.mesh)
    crack = np.zeros(sim.mesh.n_nodes)
    crack[sim.crack_nodes] = 1.0
    assert _same_bits(arrays["POINT_DATA", "crack"], crack)
    assert _same_bits(arrays["CELL_DATA", "h_e"], sim.mesh.h_e)
    assert _same_bits(arrays["CELL_DATA", "Gc"], sim.gc_elem)
