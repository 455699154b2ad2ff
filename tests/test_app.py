import csv
import dataclasses
import json

import numpy as np
import pytest

from thmfrac import app
from thmfrac.app import run_scenario
from thmfrac.cli import main
from thmfrac.errors import NonConvergence
from thmfrac.io_vtk import vtk_grid, write_vtk
from thmfrac.mesh import generate_rect_mesh
from thmfrac.presets import terzaghi


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
    assert len(grids) == 1      # the mesh block is formatted once per run
    text = (tmp_path / "snapshot_000004.vtk").read_text()
    for arr in ("SCALARS p", "SCALARS T", "SCALARS v", "VECTORS u",
                "SCALARS width", "SCALARS porosity", "SCALARS permeability_xx"):
        assert arr in text


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
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# vtk DataFile")
    assert f"POINTS {mesh.n_nodes} double" in lines
    assert f"CELLS {mesh.n_elems} {5 * mesh.n_elems}" in lines
    assert f"POINT_DATA {mesh.n_nodes}" in lines
    assert f"CELL_DATA {mesh.n_elems}" in lines
