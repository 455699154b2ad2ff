"""Verification harness: runs scaled benchmarks and scores them.

Each ``verify_*`` function executes the relevant scenario(s), overlays the
closed-form references where they exist, and returns a machine-readable
report: ``{"benchmark", "passed", "criteria": [...]}`` with one entry per
checked criterion.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import analytic
from .config import ScenarioConfig
from .physics import FieldState
from .postproc import interpolate
from .presets import kgd, kgd_cold, single_fracture, terzaghi, thermal_consolidation
from .scenario import build_simulation, evaluate_probes
from .staggered import RunResult, Simulation, run

log = logging.getLogger("thmfrac")


@dataclass
class Criterion:
    name: str
    passed: bool
    value: float
    tolerance: float
    detail: str = ""


def _report(benchmark: str, criteria: list[Criterion], **extra) -> dict:
    rep = {
        "benchmark": benchmark,
        "passed": all(c.passed for c in criteria),
        "criteria": [asdict(c) for c in criteria],
    }
    rep.update(extra)
    return rep


def _run_series(cfg: ScenarioConfig) -> tuple[Simulation, RunResult, dict[str, np.ndarray]]:
    sim = build_simulation(cfg)
    result = run(sim, cfg.controls)
    names = [p.name for p in cfg.probes]
    series: dict[str, list[float]] = {n: [] for n in names}
    for state in result.states:
        vals = evaluate_probes(cfg, sim, state)
        for n in names:
            series[n].append(vals[n])
    return sim, result, {n: np.asarray(v) for n, v in series.items()}


# ---------------------------------------------------------------------------
# Terzaghi (hydro-mechanical column vs consolidation series)
# ---------------------------------------------------------------------------

def verify_terzaghi(fast: bool = False) -> dict:
    """Relative L2 error of p and u against the series at t = 10/100/500 s."""
    t_checks = (10.0, 100.0, 500.0)
    cfg = terzaghi()
    cfg.controls = replace(cfg.controls, dt_schedule=[(max(t_checks), 1.0)])
    cfg.snapshot_every = 0
    sigma_x = cfg.bcs_mech[0].traction[0]
    L = cfg.domain[0]

    start = time.perf_counter()
    sim = build_simulation(cfg)
    result = run(sim, cfg.controls)
    runtime = time.perf_counter() - start

    mesh = sim.mesh
    row = mesh.boundary_nodes["bottom"]          # nodes along y = 0, ordered in x
    xs = mesh.nodes[row, 0]
    coeffs = analytic.terzaghi_coeffs(cfg.materials, L)

    criteria = []
    for t in t_checks:
        k = result.times.index(t)
        state = result.states[k]
        p_num = state.p[row]
        u_num = state.u[2 * row]
        p_ref = analytic.terzaghi_pressure(xs, t, sigma_x, L, coeffs)
        u_ref = analytic.terzaghi_displacement(xs, t, sigma_x, L, coeffs)
        ep = float(np.linalg.norm(p_num - p_ref) / np.linalg.norm(p_ref))
        eu = float(np.linalg.norm(u_num - u_ref) / np.linalg.norm(u_ref))
        criteria.append(Criterion(f"p_L2_t{t:g}", ep <= 0.02, ep, 0.02))
        criteria.append(Criterion(f"u_L2_t{t:g}", eu <= 0.02, eu, 0.02))
    criteria.append(Criterion("runtime_s", runtime <= 60.0, runtime, 60.0))
    return _report("terzaghi", criteria)


# ---------------------------------------------------------------------------
# KGD (toughness-dominated fracture vs zero-viscosity reference)
# ---------------------------------------------------------------------------

def _kgd_reference(cfg: ScenarioConfig, times: np.ndarray):
    mp = cfg.materials
    h_band = cfg.refine_bands[0].h
    gc_eff = analytic.gc_effective(mp.Gc, h_band, mp.ell, mp.c_n)
    q_total = 2.0 * cfg.injection.rate       # two wings of the full crack
    ref = np.array([analytic.kgd_toughness_reference(t, mp, q_total, Gc=gc_eff)
                    for t in times])
    return ref[:, 0], ref[:, 1], ref[:, 2]   # half-length, inlet width, pressure


def _kgd_errors(cfg: ScenarioConfig, times, series) -> dict[str, np.ndarray]:
    mask = times > 1.0
    t = times[mask]
    l_ref, w_ref, p_ref = _kgd_reference(cfg, t)
    return {
        "t": t,
        "err_p": np.abs(series["p_inj"][mask] - p_ref) / p_ref,
        "err_l": np.abs(series["length"][mask] - l_ref) / l_ref,
        "err_w": np.abs(series["w_inj"][mask] - w_ref) / w_ref,
        "length": series["length"][mask],
    }


def verify_kgd(fast: bool = True, t_end: float = 4.0) -> dict:
    """Toughness-regime tracking, growth exponent, regime classifier and
    the phi1-vs-phi0 porosity comparison on the same mesh."""
    start = time.perf_counter()
    cfg1 = kgd(fast=fast, porosity_variant="phi1", t_end=t_end)
    sim1, res1, series1 = _run_series(cfg1)
    times = np.asarray(res1.times)
    e1 = _kgd_errors(cfg1, times, series1)

    criteria = []
    for key, label in (("err_p", "pressure"), ("err_l", "length"), ("err_w", "width")):
        worst = float(e1[key].max())
        criteria.append(Criterion(f"{label}_vs_reference_max_rel", worst <= 0.10,
                                  worst, 0.10, "max over t > 1 s"))

    slope = float(np.polyfit(np.log(e1["t"]), np.log(e1["length"]), 1)[0])
    criteria.append(Criterion("length_exponent", 0.61 <= slope <= 0.72, slope,
                              0.72, "target 2/3, window t > 1 s"))

    M, label = analytic.kgd_dimensionless_viscosity(cfg1.materials, cfg1.injection.rate)
    criteria.append(Criterion("regime_toughness", label == "toughness",
                              M, analytic.TOUGHNESS_REGIME_THRESHOLD,
                              f"label: {label}"))
    criteria.append(Criterion("regime_M_order", 1e-8 < M < 1e-6, M, 1e-6,
                              "order 1e-7 anchor"))

    cfg0 = kgd(fast=fast, porosity_variant="phi0", t_end=t_end)
    _, res0, series0 = _run_series(cfg0)
    e0 = _kgd_errors(cfg0, np.asarray(res0.times), series0)
    avg1 = float(e1["err_p"].mean())
    avg0 = float(e0["err_p"].mean())
    criteria.append(Criterion("phi1_beats_phi0_pressure", avg1 < avg0, avg1, avg0,
                              f"time-avg rel pressure error: phi1 {avg1:.4f} vs "
                              f"phi0 {avg0:.4f}"))
    runtime = time.perf_counter() - start
    budget = 900.0 if fast else 3600.0
    criteria.append(Criterion("runtime_s", runtime <= budget, runtime, budget))
    return _report("kgd", criteria, dimensionless_viscosity=M)


# ---------------------------------------------------------------------------
# thermal consolidation (property-based)
# ---------------------------------------------------------------------------

def _halve_schedule(schedule):
    return [(duration, 0.5 * dt) for duration, dt in schedule]


def verify_thermal_consolidation(fast: bool = True) -> dict:
    cfg = thermal_consolidation()
    cfg.snapshot_every = 0
    sim, result, series = _run_series(cfg)
    mesh = sim.mesh
    T_hot = cfg.bcs_heat[0].value
    T0 = cfg.materials.T0
    span = T_hot - T0
    tol_T = 1e-9 * span

    row = mesh.boundary_nodes["bottom"]
    mono_ok = True
    bound_ok = True
    worst_dT = 0.0
    for state in result.states:
        T = state.T[row]
        worst_dT = max(worst_dT, float(np.max(T - T_hot)), float(np.max(T0 - T)))
        if np.any(np.diff(T) > tol_T):
            mono_ok = False
        if np.any(T > T_hot + tol_T) or np.any(T < T0 - tol_T):
            bound_ok = False
    criteria = [
        Criterion("T_monotone_in_x", mono_ok, 0.0 if mono_ok else 1.0, 0.0,
                  "checked at every output time"),
        Criterion("T_bounded", bound_ok, worst_dT, tol_T,
                  f"max excursion outside [{T0}, {T_hot}] K"),
    ]

    p_peak = max(float(np.abs(s.p).max()) for s in result.states)
    p_final = float(np.abs(result.states[-1].p).max())
    criteria.append(Criterion("p_returns_to_1pct_of_peak",
                              p_final <= 0.01 * p_peak, p_final, 0.01 * p_peak,
                              f"peak {p_peak:.6g} Pa"))

    T_final = result.states[-1].T
    dev = float(np.max(np.abs(T_final - T_hot)))
    criteria.append(Criterion("T_steady_uniform", dev <= 0.1, dev, 0.1,
                              "final T vs 343.15 K"))

    cfg_half = thermal_consolidation()
    cfg_half.snapshot_every = 0
    cfg_half.controls = replace(cfg_half.controls,
                                dt_schedule=_halve_schedule(cfg.controls.dt_schedule))
    _, res_half, series_half = _run_series(cfg_half)
    base_times = np.asarray(result.times)
    half_times = np.asarray(res_half.times)
    idx = np.searchsorted(half_times, base_times)
    worst = 0.0
    for name in series:
        if not name.startswith("p_"):
            continue
        base = series[name]
        fine = series_half[name][idx]
        scale = float(np.abs(base).max())
        worst = max(worst, float(np.abs(base - fine).max()) / scale)
    criteria.append(Criterion("p_self_convergence_dt", worst <= 0.02, worst, 0.02,
                              "max |p(dt) - p(dt/2)| / max|p| over probes"))
    return _report("thermal_consolidation", criteria)


# ---------------------------------------------------------------------------
# advection stabilization (cold-injection KGD variant)
# ---------------------------------------------------------------------------

def _fracture_path_temperatures(sim: Simulation, result: RunResult,
                                x_max: float) -> np.ndarray:
    mesh = sim.mesh
    h = float(mesh.h_e.min())
    xs = np.arange(0.0, x_max, 0.5 * h)
    pts = np.column_stack([xs, np.full_like(xs, 30.0)])
    samples = [interpolate(mesh, state.T, pts) for state in result.states]
    return np.asarray(samples)


def verify_stabilization(fast: bool = True, dT: float = 30.0,
                         t_end: float = 2.0) -> dict:
    """Criterion: stabilized T stays within 1% of dT around [T_inj, T0];
    the unstabilized run must violate those bounds somewhere."""
    cfg_on = kgd_cold(stabilization=True, dT=dT, fast=fast, t_end=t_end)
    T0 = cfg_on.materials.T0
    T_inj = cfg_on.injection.temperature
    lo = T_inj - 0.01 * dT
    hi = T0 + 0.01 * dT
    x_max = cfg_on.refine_bands[0].hi

    sim_on = build_simulation(cfg_on)
    res_on = run(sim_on, cfg_on.controls)
    T_on = _fracture_path_temperatures(sim_on, res_on, x_max)
    under = float(lo - T_on.min())
    over = float(T_on.max() - hi)
    excursion_on = max(under, over, 0.0)

    cfg_off = kgd_cold(stabilization=False, dT=dT, fast=fast, t_end=t_end)
    sim_off = build_simulation(cfg_off)
    res_off = run(sim_off, cfg_off.controls)
    T_off = _fracture_path_temperatures(sim_off, res_off, x_max)
    excursion_off = max(float(lo - T_off.min()), float(T_off.max() - hi), 0.0)

    criteria = [
        Criterion("stabilized_T_within_bounds", excursion_on == 0.0,
                  excursion_on, 0.0,
                  f"bounds [{lo:.4f}, {hi:.4f}] K along the fracture path"),
        Criterion("unstabilized_T_violates_bounds", excursion_off > 0.0,
                  excursion_off, 0.0,
                  "expects at least one out-of-bounds sample"),
    ]
    return _report("stabilization", criteria)


# ---------------------------------------------------------------------------
# thermal trend (single fracture, peak pressure vs injection temperature)
# ---------------------------------------------------------------------------

def verify_thermal_trend(fast: bool = False, t_end: float = 2.0) -> dict:
    """Peak injection pressure must drop when the injected fluid is colder.

    ``fast`` coarsens the refined band from h = 0.01 m to h = 0.025 m.
    """
    h = 0.025 if fast else 0.01
    peaks = {}
    for dT in (0.0, 90.0):
        cfg = single_fracture(dT=dT, h=h, t_end=t_end)
        _, _, series = _run_series(cfg)
        peaks[dT] = float(series["p_inj"].max())
    ratio = peaks[90.0] / peaks[0.0]
    crit = Criterion("peak_pressure_drops_with_cooling", peaks[90.0] < peaks[0.0],
                     ratio, 1.0,
                     f"peak p: dT=0 {peaks[0.0]:.6g} Pa, dT=90 {peaks[90.0]:.6g} Pa")
    return _report("thermal_trend", [crit], peaks=peaks)


BENCHMARKS = {
    "terzaghi": verify_terzaghi,
    "kgd": verify_kgd,
    "thermal_consolidation": verify_thermal_consolidation,
    "stabilization": verify_stabilization,
    "thermal_trend": verify_thermal_trend,
}


def run_verification(benchmark: str, fast: bool = False) -> dict:
    if benchmark not in BENCHMARKS:
        raise KeyError(f"unknown benchmark {benchmark!r}; "
                       f"available: {sorted(BENCHMARKS)}")
    return BENCHMARKS[benchmark](fast=fast)


def format_report(report: dict) -> str:
    lines = [f"benchmark: {report['benchmark']}",
             f"overall:   {'PASS' if report['passed'] else 'FAIL'}"]
    width = max(len(c["name"]) for c in report["criteria"])
    for c in report["criteria"]:
        status = "PASS" if c["passed"] else "FAIL"
        lines.append(f"  {status}  {c['name']:<{width}}  value={c['value']:.6g}  "
                     f"tol={c['tolerance']:.6g}  {c['detail']}")
    return "\n".join(lines)
