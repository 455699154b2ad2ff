"""Exact-output guard for the heat path: the thermal column with advection
and the balancing dissipation.

``tests/test_kgd.py`` runs no heat solve and checks its series to 1e-3 only,
so a change in the heat, flow or mechanics kernels of a thermal run, or in
what the time step passes them, would show nowhere else. This runs the
column of ``presets.thermal_consolidation`` on 8 x 2 elements with a
permeability raised to 1e-13 m², so that the drained fluid advects heat
against the heated face (the dissipation alone moves T by about 8e-3 K),
for four 1e3 s steps. T, p and u after the last step and the outer/inner
counts of each step must match ``heat_guard_reference.json`` to 1e-12
relative (of each field's largest value). The reference was written by
``reference_run`` below on the commit before the kernels took their
quadrature-point quantities per step, outer iteration and inner pass.
"""

import dataclasses
import json
from pathlib import Path

import numpy as np

from thmfrac import presets, scenario
from thmfrac.staggered import run

REFERENCE = Path(__file__).with_name("heat_guard_reference.json")
RTOL = 1e-12


def reference_run() -> dict:
    cfg = presets.thermal_consolidation()
    cfg.nx = 8
    cfg.materials = dataclasses.replace(cfg.materials, perm_m=1e-13)
    cfg.controls = dataclasses.replace(cfg.controls, dt_schedule=[(4.0e3, 1.0e3)])
    sim = scenario.build_simulation(cfg)
    result = run(sim, cfg.controls)
    state = result.states[-1]
    return {"T": state.T.tolist(), "p": state.p.tolist(), "u": state.u.tolist(),
            "counts": [[r.outer_iters, r.inner_iters] for r in result.reports]}


def test_thermal_column_with_advection_matches_the_recorded_state():
    ref = json.loads(REFERENCE.read_text())
    got = reference_run()
    assert got["counts"] == ref["counts"]
    params = presets.thermal_consolidation().materials
    assert params.rho_f * params.c_pf != 0.0 and params.s_stab > 0.0
    for name in ("T", "p", "u"):
        x, r = np.array(got[name]), np.array(ref[name])
        assert x.shape == r.shape
        assert np.abs(x - r).max() <= RTOL * np.abs(r).max(), name
