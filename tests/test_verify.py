"""The scoring of the KGD and stabilization checks, without a solve.

``verify._run_series`` is replaced by a stub that records each config a
check asks for and returns a synthetic series, so these tests pin down
which configs a check runs and how its criteria read a series; the solves
themselves run in the opt-in paper checks.
"""

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from thmfrac import verify


def stub_runs(monkeypatch, series_of):
    """Replace ``_run_series`` with ``series_of(cfg, k)`` for the k-th run;
    returns the list of configs the check ran."""
    configs = []

    def fake(cfg):
        configs.append(cfg)
        times, series = series_of(cfg, len(configs) - 1)
        return None, SimpleNamespace(times=list(times)), series

    monkeypatch.setattr(verify, "_run_series", fake)
    return configs


def failed(report):
    return {c["name"] for c in report["criteria"] if not c["passed"]}


class TestKgdCheck:
    TIMES = np.linspace(0.1, 4.0, 40)

    def reference_runs(self, monkeypatch, p_scale):
        """The zero-viscosity reference for every run, its pressure scaled
        by ``p_scale[k]`` in run k."""
        def series_of(cfg, k):
            length, width, pressure = verify._kgd_reference(cfg, self.TIMES)
            return self.TIMES, {"p_inj": p_scale[k] * pressure, "length": length,
                                "w_inj": width}
        return stub_runs(monkeypatch, series_of)

    @pytest.mark.parametrize("fast, h", [(False, 0.05), (True, 0.1)])
    def test_phi0_run_differs_only_in_the_porosity_variant(self, monkeypatch, fast, h):
        configs = self.reference_runs(monkeypatch, (1.0, 1.05))
        verify.verify_kgd(fast=True) if fast else verify.verify_kgd()
        phi1, phi0 = configs
        assert phi1.refine_bands[0].h == h
        assert (phi1.materials.porosity_variant, phi0.materials.porosity_variant) == \
            ("phi1", "phi0")
        assert phi0 == replace(phi1, materials=replace(phi1.materials,
                                                       porosity_variant="phi0"))

    @pytest.mark.parametrize("p_scale, names", [
        ((1.0, 1.05), set()),
        ((1.2, 1.0), {"pressure_vs_reference_max_rel", "phi1_beats_phi0_pressure"}),
    ], ids=["on-reference", "off-reference-and-behind-phi0"])
    def test_criteria_score_the_pressure_series(self, monkeypatch, p_scale, names):
        self.reference_runs(monkeypatch, p_scale)
        report = verify.verify_kgd(fast=True)
        assert failed(report) == names and report["passed"] == (not names)


class TestStabilizationCheck:
    def temperature_runs(self, monkeypatch, offsets):
        """Every path probe reads T0 + ``offsets[k]`` in run k."""
        def series_of(cfg, k):
            times = [0.0, 1.0, 2.0]
            T = cfg.materials.T0 + offsets[k]
            return times, {spec.name: np.full(len(times), T) for spec in cfg.probes}
        return stub_runs(monkeypatch, series_of)

    def test_unstabilized_run_differs_only_in_s_stab(self, monkeypatch):
        configs = self.temperature_runs(monkeypatch, (0.0, 30.0))
        verify.verify_stabilization()
        on, off = configs
        assert on.materials.s_stab > 0.0 and off.materials.s_stab == 0.0
        assert off == replace(on, materials=replace(on.materials, s_stab=0.0))
        # the full mesh by default
        assert on.refine_bands[0].h == 0.05

    def test_path_probes_sample_the_band_every_half_spacing(self, monkeypatch):
        configs = self.temperature_runs(monkeypatch, (0.0, 30.0))
        verify.verify_stabilization(fast=True)
        band = configs[0].refine_bands[0]
        path = [spec for spec in configs[0].probes if spec.name.startswith("T_path")]
        xs = np.array([spec.point[0] for spec in path])
        assert {(spec.kind, spec.field, spec.point[1]) for spec in path} == {("field", "T", 30.0)}
        assert xs[0] == 0.0 and xs[-1] < band.hi <= xs[-1] + 0.5 * band.h
        np.testing.assert_allclose(np.diff(xs), 0.5 * band.h)
        assert configs[1].probes == configs[0].probes

    # the bounds are [T_inj - 0.3 K, T0 + 0.3 K] for dT = 30 K
    @pytest.mark.parametrize("offsets, names", [
        ((-30.0, 0.5), set()),
        ((-30.5, 0.0), {"stabilized_T_within_bounds", "unstabilized_T_violates_bounds"}),
        ((0.4, 0.4), {"stabilized_T_within_bounds"}),
        ((0.0, -30.0), {"unstabilized_T_violates_bounds"}),
    ], ids=["bounded-on-overshoot-off", "undershoot-on-bounded-off", "both-overshoot",
            "both-bounded"])
    def test_criteria_score_the_path_temperatures(self, monkeypatch, offsets, names):
        self.temperature_runs(monkeypatch, offsets)
        report = verify.verify_stabilization(fast=True)
        assert failed(report) == names and report["passed"] == (not names)
