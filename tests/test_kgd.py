"""End-to-end smoke test of the KGD preset on a coarse mesh.

The 9 x 12 mesh with a h = 0.5 m band and two dt = 0.01 s steps is the
benchmark's small KGD request (``perfbench/run.py --small``); the crack
grows from 2.05 m to 2.09 m in it, and it runs in about a second. The
expected series were recorded while the solver factorized with scipy's
SuperLU (COLAMD ordering); the banded LAPACK factorizations that replaced
it, first in reverse Cuthill-McKee order and now numbered across the
grid's short side, still meet them, so they also check that a change of
the factorization does not move the solution.
"""

import csv
import dataclasses

import numpy as np

from thmfrac import presets
from thmfrac.app import run_scenario
from thmfrac.config import RefineBand

H_BAND = 0.5

# series.csv rows at t = 0, 0.01 and 0.02 s
EXPECTED = {
    "p_inj": [0.0, 16129.987530903009, 27014.848814671932],
    "length": [2.0500030517578125, 2.0859527587890625, 2.0859527587890625],
    "w_inj": [0.0, 3.5581796624975787e-06, 6.8785746045501058e-06],
}


def small_kgd():
    cfg = presets.kgd(fast=True)
    cfg.nx, cfg.ny = 9, 12
    cfg.refine_bands = [
        RefineBand(axis="x", lo=0.0, hi=5.0, h=H_BAND, ratio=1.2),
        RefineBand(axis="y", lo=30.0 - 4 * H_BAND, hi=30.0 + 4 * H_BAND, h=H_BAND, ratio=1.2),
    ]
    cfg.materials = dataclasses.replace(cfg.materials, ell=4.0 * H_BAND)
    cfg.controls = dataclasses.replace(cfg.controls, dt_schedule=[(0.02, 0.01)])
    return cfg


def test_small_kgd_runs_and_matches_recorded_series(tmp_path):
    result = run_scenario(small_kgd(), tmp_path)
    assert result.times == [0.0, 0.01, 0.02]
    with open(tmp_path / "series.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    for name, expected in EXPECTED.items():
        got = np.array([float(r[name]) for r in rows])
        np.testing.assert_allclose(got, expected, rtol=1e-3, atol=0.0, err_msg=name)
