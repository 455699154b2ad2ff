"""Exact-output guards for the heat path: the thermal column with advection
and the balancing dissipation.

``tests/test_kgd.py`` runs no heat solve and checks its series to 1e-3 only,
so a change in the heat, flow or mechanics kernels of a thermal run, or in
what the time step passes them, would show nowhere else. This runs the
column of ``presets.thermal_consolidation`` on 8 x 2 elements with a
permeability raised to 1e-13 m², so that the drained fluid advects heat
against the heated face (the dissipation alone moves T by about 8e-3 K),
for four 1e3 s steps.

* At the preset's inner tolerance, T, p and u after the last step and the
  outer/inner counts of each step must match ``heat_guard_reference.json``
  to 1e-12 relative (of each field's largest value). The reference was
  written by ``reference_run`` below on the commit whose steps carry up
  to eight Anderson secant pairs of the steps before. That changes the
  iteration: the third step takes 3 inner passes instead of 4, and T
  moved by up to 3.4e-8 K, p by 2.9e-7 Pa and u by 1.5e-15 m from the
  state of a mixer that carries four pairs, while the fixed point below
  did not move. (The references before were written on the commit that
  first carried pairs, whose fourth step took 3 passes instead of 4 and
  moved T by up to 1.1e-8 K from a fresh mixer in every step, and on the
  commit that extended the fixed-stress split to the thermal stress,
  which moved T by up to 1.4e-7 K at the same counts.)
* At an inner tolerance of 1e-12, T, p and u must match
  ``heat_guard_fixed_point.json`` to 1e-10 relative. That state was written
  by ``fixed_point_run`` below with the source of the commit before the
  thermal relaxation term, so it checks that the term moves the iteration
  and not its fixed point.
"""

import dataclasses
import json
from pathlib import Path

import numpy as np

from thmfrac import presets, scenario
from thmfrac.staggered import run

HERE = Path(__file__).parent
REFERENCE = HERE / "heat_guard_reference.json"
FIXED_POINT = HERE / "heat_guard_fixed_point.json"
RTOL = 1e-12
FIXED_POINT_TOL_TPU = 1e-12
FIXED_POINT_RTOL = 1e-10


def column_config(**controls):
    """The guarded column: 8 x 2 elements, four 1e3 s steps."""
    cfg = presets.thermal_consolidation()
    cfg.nx = 8
    cfg.materials = dataclasses.replace(cfg.materials, perm_m=1e-13)
    cfg.controls = dataclasses.replace(cfg.controls, dt_schedule=[(4.0e3, 1.0e3)],
                                       **controls)
    return cfg


def _column_run(**controls) -> dict:
    cfg = column_config(**controls)
    sim = scenario.build_simulation(cfg)
    result = run(sim, cfg.controls)
    state = result.states[-1]
    return {"T": state.T.tolist(), "p": state.p.tolist(), "u": state.u.tolist(),
            "counts": [[r.outer_iters, r.inner_iters] for r in result.reports]}


def reference_run() -> dict:
    return _column_run()


def fixed_point_run() -> dict:
    got = _column_run(tol_tpu=FIXED_POINT_TOL_TPU)
    del got["counts"]
    return got


def _assert_fields_match(got, ref, rtol):
    for name in ("T", "p", "u"):
        x, r = np.array(got[name]), np.array(ref[name])
        assert x.shape == r.shape
        assert np.abs(x - r).max() <= rtol * np.abs(r).max(), name


def test_thermal_column_with_advection_matches_the_recorded_state():
    ref = json.loads(REFERENCE.read_text())
    got = reference_run()
    assert got["counts"] == ref["counts"]
    params = presets.thermal_consolidation().materials
    assert params.rho_f * params.c_pf != 0.0 and params.s_stab > 0.0
    _assert_fields_match(got, ref, RTOL)


def test_tight_inner_tolerance_reaches_the_recorded_fixed_point():
    _assert_fields_match(fixed_point_run(), json.loads(FIXED_POINT.read_text()),
                         FIXED_POINT_RTOL)
