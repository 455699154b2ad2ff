"""The scoring of the paper checks, without a solve.

``verify._run_series`` is replaced by a stub that records each config a
check asks for and returns synthetic output times and probe series, so
these tests pin down which configs a check runs and how its criteria read
a series; the solves themselves run in the opt-in paper checks.
"""

from dataclasses import replace

import numpy as np
import pytest

from thmfrac import analytic, verify
from thmfrac.mesh import generate_rect_mesh


def stub_runs(monkeypatch, series_of):
    """Replace ``_run_series`` with ``series_of(cfg, k)`` for the k-th run;
    returns the list of configs the check ran."""
    configs = []

    def fake(cfg):
        configs.append(cfg)
        times, series = series_of(cfg, len(configs) - 1)
        return np.asarray(times), series

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


def row_probes(cfg, field):
    """The x of ``field``'s probes on the y = 0 row, in probe order."""
    return np.array([spec.point[0] for spec in cfg.probes
                     if spec.name.startswith(f"row_{field}") and spec.field == field
                     and spec.point[1] == 0.0])


def assert_row_probes_sit_on_the_nodes(cfg, fields):
    # a probe at a node has bilinear weights 1 and 0: it reads the nodal value
    mesh = generate_rect_mesh(*cfg.domain, cfg.nx, cfg.ny, cfg.refine_bands)
    for field in fields:
        assert np.array_equal(row_probes(cfg, field), mesh.xs)


class TestTerzaghiCheck:
    TIMES = np.array([1.0, 10.0, 100.0, 500.0])

    def analytic_runs(self, monkeypatch, p_scale):
        """The consolidation series at every probe, p scaled by ``p_scale``."""
        def series_of(cfg, k):
            L = cfg.domain[0]
            args = (cfg.bcs_mech[0].traction[0], L, analytic.terzaghi_coeffs(cfg.materials, L))
            ref = {"p": lambda x, t: p_scale * analytic.terzaghi_pressure(x, t, *args),
                   "ux": lambda x, t: analytic.terzaghi_displacement(x, t, *args)}
            return self.TIMES, {spec.name: np.array([ref[spec.field](spec.point[0], t)
                                                     for t in self.TIMES])
                                for spec in cfg.probes}
        return stub_runs(monkeypatch, series_of)

    def test_p_and_ux_are_probed_at_every_node_of_the_bottom_row(self, monkeypatch):
        configs = self.analytic_runs(monkeypatch, 1.0)
        verify.verify_terzaghi()
        (cfg,) = configs
        assert_row_probes_sit_on_the_nodes(cfg, ("p", "ux"))
        assert cfg.controls.dt_schedule == [(500.0, 1.0)]

    @pytest.mark.parametrize("p_scale, names", [
        (1.0, set()),
        (1.05, {"p_L2_t10", "p_L2_t100", "p_L2_t500"}),
    ], ids=["analytic", "p-off-by-5pct"])
    def test_criteria_score_the_row_series(self, monkeypatch, p_scale, names):
        self.analytic_runs(monkeypatch, p_scale)
        report = verify.verify_terzaghi()
        assert failed(report) == names and report["passed"] == (not names)


class TestThermalConsolidationCheck:
    def decaying_runs(self, monkeypatch, bump):
        """T falls linearly in x from T_hot to T_hot - (T_hot - T0) e^-t, p
        from 1e5 x e^-t to 0 at x = 0; the T probes read ``bump(x)`` more
        at the second output time. Run k has 10 (k + 1) steps to t = 20."""
        def series_of(cfg, k):
            T_hot = cfg.bcs_heat[0].value
            span = T_hot - cfg.materials.T0
            times = np.linspace(0.0, 20.0, 10 * (k + 1) + 1)
            decay = np.exp(-times)

            def series(spec):
                x = spec.point[0]
                if spec.field == "p":
                    return 1e5 * x * decay
                T = T_hot - span * x * decay
                T[1] += bump(x)
                return T
            return times, {spec.name: series(spec) for spec in cfg.probes}
        return stub_runs(monkeypatch, series_of)

    def test_row_probes_sit_on_the_nodes_and_the_second_run_halves_dt(self, monkeypatch):
        configs = self.decaying_runs(monkeypatch, lambda x: 0.0)
        verify.verify_thermal_consolidation()
        base, half = configs
        assert_row_probes_sit_on_the_nodes(base, ("T", "p"))
        assert half == replace(base, controls=replace(
            base.controls, dt_schedule=[(d, 0.5 * dt) for d, dt in base.controls.dt_schedule]))
        # the dt check compares only the preset's three p probes
        assert sorted(name for name in (s.name for s in base.probes)
                      if name.startswith("p_")) == ["p_x0.1", "p_x0.2", "p_x0.5"]

    @pytest.mark.parametrize("bump, names", [
        (lambda x: 0.0, set()),
        (lambda x: 1.0, {"T_bounded"}),
        (lambda x: 1.0 if np.isclose(x, 0.5) else 0.0, {"T_monotone_in_x"}),
    ], ids=["monotone-bounded-decaying", "above-T_hot", "non-monotone"])
    def test_criteria_score_the_row_series(self, monkeypatch, bump, names):
        self.decaying_runs(monkeypatch, bump)
        report = verify.verify_thermal_consolidation()
        assert failed(report) == names and report["passed"] == (not names)


class TestThermalTrendCheck:
    def peak_runs(self, monkeypatch, peaks):
        """The injection pressure peaks at ``peaks[k]`` in run k."""
        def series_of(cfg, k):
            return [0.0, 1.0, 2.0], {"p_inj": peaks[k] * np.array([0.0, 1.0, 0.5])}
        return stub_runs(monkeypatch, series_of)

    @pytest.mark.parametrize("fast, h", [(False, 0.01), (True, 0.025)])
    def test_cold_run_differs_only_in_the_injection_temperature(self, monkeypatch, fast, h):
        configs = self.peak_runs(monkeypatch, (2e6, 1.5e6))
        verify.verify_thermal_trend(fast=fast)
        warm, cold = configs
        assert warm.refine_bands[0].h == h
        assert warm.injection.temperature == warm.materials.T0
        assert cold == replace(warm, injection=replace(
            warm.injection, temperature=warm.materials.T0 - 90.0))

    @pytest.mark.parametrize("peaks, names", [
        ((2e6, 1.5e6), set()),
        ((2e6, 2.5e6), {"peak_pressure_drops_with_cooling"}),
    ], ids=["lower-when-cold", "higher-when-cold"])
    def test_criterion_scores_the_peak_pressures(self, monkeypatch, peaks, names):
        self.peak_runs(monkeypatch, peaks)
        report = verify.verify_thermal_trend(fast=True)
        assert failed(report) == names and report["passed"] == (not names)
        assert report["peaks"] == {0.0: peaks[0], 90.0: peaks[1]}
