"""Scenario runner: executes a configuration and writes run artifacts.

Outputs per run directory: ``manifest.json`` (resolved config, version,
declared file list), ``series.csv`` (time column plus every probe) and
legacy-VTK snapshots at the configured cadence. On solver failure the
partial outputs are kept next to a ``FAILED`` marker, and the marker and
the manifest's ``failure`` record name the exception type, its message
and the time of the step that failed; for a ``NonConvergence`` they also
hold the increment history of the loop that hit its cap (one line of the
marker, ``failure.history`` in the manifest).
"""

from __future__ import annotations

import csv
import json
import logging
from functools import cached_property
from pathlib import Path

from . import __version__
from .config import ScenarioConfig, config_to_dict
from .errors import NonConvergence, SolverFailure
from .io_vtk import VtkGrid, vtk_grid, write_vtk
from .physics import FieldState
from .postproc import element_cell_data
from .scenario import build_simulation, evaluate_probes, locate_probes
from .staggered import RunResult, Simulation, run

log = logging.getLogger("thmfrac")


class ScenarioRunner:
    """Drives one scenario and streams its outputs to disk.

    The simulation is built and the probes are located before the output
    directory is made, so a scenario that cannot be set up writes nothing.
    """

    def __init__(self, cfg: ScenarioConfig, out_dir: str | Path):
        self.cfg = cfg
        self.sim: Simulation = build_simulation(cfg)
        self.probes = locate_probes(cfg.probes, self.sim.mesh)
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.files: list[str] = []
        self._rows: list[list[float]] = []
        self._step = 0

    # -- output helpers ----------------------------------------------------

    @cached_property
    def _vtk_grid(self) -> VtkGrid:
        # the mesh block of every snapshot of the run, formatted on the first
        return vtk_grid(self.sim.mesh)

    def _record(self, t: float, state: FieldState):
        values = evaluate_probes(self.probes, self.sim, state)
        self._rows.append([t] + [values[p.name] for p in self.cfg.probes])

    def _snapshot(self, t: float, state: FieldState):
        name = f"snapshot_{self._step:06d}.vtk"
        cell = element_cell_data(self.sim.tables, self.sim.params, state)
        write_vtk(self.out_dir / name, self._vtk_grid,
                  point_data={"p": state.p, "T": state.T, "v": state.v},
                  point_vectors={"u": state.u},
                  cell_data=cell,
                  title=f"{self.cfg.name} t={t:.9g} s")
        self.files.append(name)

    def _write_series(self):
        name = "series.csv"
        with open(self.out_dir / name, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["time_s"] + [p.name for p in self.cfg.probes])
            for row in self._rows:
                writer.writerow([f"{x:.17g}" for x in row])
        self.files.append(name)

    def _write_manifest(self, status: str, **extra):
        name = "manifest.json"
        manifest = {
            "scenario": self.cfg.name,
            "version": __version__,
            "status": status,
            "config": config_to_dict(self.cfg),
            "files": sorted(self.files),
            **extra,
        }
        (self.out_dir / name).write_text(json.dumps(manifest, indent=2, sort_keys=True))

    # -- main entry ----------------------------------------------------------

    def execute(self) -> RunResult:
        cadence = self.cfg.snapshot_every
        state0 = self.sim.initial_state()
        self._record(0.0, state0)
        if cadence:
            self._snapshot(0.0, state0)

        def on_step(t: float, state: FieldState, report):
            self._step += 1
            self._record(t, state)
            if cadence and self._step % cadence == 0:
                self._snapshot(t, state)

        try:
            result = run(self.sim, self.cfg.controls, on_step=on_step)
        except SolverFailure as exc:
            failure = {"type": type(exc).__name__, "message": str(exc),
                       "time": exc.diagnostics.get("time")}
            marker = (f"solver failure at t = {failure['time']!r} s; outputs are partial\n"
                      f"{failure['type']}: {failure['message']}\n")
            if isinstance(exc, NonConvergence):
                failure["history"] = exc.history
                marker += f"history: {json.dumps(exc.history)}\n"
            self._write_series()
            (self.out_dir / "FAILED").write_text(marker)
            self.files.append("FAILED")
            self._write_manifest("failed", failure=failure)
            raise
        if cadence and self._step % cadence != 0:
            self._snapshot(result.times[-1], result.states[-1])
        self._write_series()
        self._write_manifest("completed")
        log.info("scenario %s finished: %d steps, outputs in %s",
                 self.cfg.name, self._step, self.out_dir)
        return result


def run_scenario(cfg: ScenarioConfig, out_dir: str | Path) -> RunResult:
    return ScenarioRunner(cfg, out_dir).execute()
