"""Verification harness: runs scaled benchmarks and scores them.

Each ``verify_*`` function runs its scenario(s) through ``_run_series``,
the one place a check builds, runs and probes a simulation, scores only
the output times and probe series it returns, overlays the closed-form
references where they exist, and returns a machine-readable
report: ``{"benchmark", "passed", "criteria": [...]}`` with one entry per
checked criterion. Every check runs its full variant unless ``fast=True``.
"""

from __future__ import annotations

import inspect
import time
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import analytic
from .config import ProbeSpec, ScenarioConfig
from .presets import kgd, kgd_cold, single_fracture, terzaghi, thermal_consolidation
from .scenario import build_simulation, evaluate_probes, locate_probes
from .staggered import run


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


def _run_series(cfg: ScenarioConfig) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """The output times of ``cfg``'s run and each probe's series over them."""
    sim = build_simulation(cfg)
    result = run(sim, cfg.controls)
    probes = locate_probes(cfg.probes, sim.mesh)
    rows = [evaluate_probes(probes, sim, state) for state in result.states]
    return (np.asarray(result.times),
            {p.name: np.array([row[p.name] for row in rows]) for p in cfg.probes})


def _add_row_probes(cfg: ScenarioConfig, fields: tuple[str, ...]) -> np.ndarray:
    """Probe each of ``fields`` at every node x of the uniform column's
    y = 0 row (``row_<field><i>``); returns those x."""
    xs = np.linspace(0.0, cfg.domain[0], cfg.nx + 1)
    cfg.probes = cfg.probes + [ProbeSpec(name=f"row_{f}{i}", field=f, point=(float(x), 0.0))
                               for f in fields for i, x in enumerate(xs)]
    return xs


def _row(series: dict[str, np.ndarray], field: str, n: int) -> np.ndarray:
    """The (time, node) values of ``field``'s ``n`` row probes."""
    return np.column_stack([series[f"row_{field}{i}"] for i in range(n)])


# ---------------------------------------------------------------------------
# Terzaghi (hydro-mechanical column vs consolidation series)
# ---------------------------------------------------------------------------

def verify_terzaghi() -> dict:
    """Relative L2 error of p and u against the series at t = 10/100/500 s."""
    t_checks = (10.0, 100.0, 500.0)
    cfg = terzaghi()
    cfg.controls = replace(cfg.controls, dt_schedule=[(max(t_checks), 1.0)])
    cfg.snapshot_every = 0
    sigma_x = cfg.bcs_mech[0].traction[0]
    L = cfg.domain[0]
    xs = _add_row_probes(cfg, ("p", "ux"))

    start = time.perf_counter()
    times, series = _run_series(cfg)
    runtime = time.perf_counter() - start

    p_row, u_row = _row(series, "p", xs.size), _row(series, "ux", xs.size)
    coeffs = analytic.terzaghi_coeffs(cfg.materials, L)

    criteria = []
    for t in t_checks:
        k = times.tolist().index(t)
        p_num, u_num = p_row[k], u_row[k]
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


def verify_kgd(fast: bool = False) -> dict:
    """Toughness-regime tracking, growth exponent, regime classifier and
    the phi1-vs-phi0 porosity comparison on the same mesh, to t = 4 s."""
    start = time.perf_counter()
    cfg1 = kgd(fast=fast, t_end=4.0)
    e1 = _kgd_errors(cfg1, *_run_series(cfg1))

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

    cfg0 = replace(cfg1, materials=replace(cfg1.materials, porosity_variant="phi0"))
    e0 = _kgd_errors(cfg0, *_run_series(cfg0))
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

def verify_thermal_consolidation() -> dict:
    """Qualitative properties of the heated column, whose T and p are read
    along its y = 0 row: T is monotone in x (``T_monotone_in_x``) and within
    [T0, T_hot] (``T_bounded``) at every output time, p falls back to 1 % of
    its peak (``p_returns_to_1pct_of_peak``), the final T is within 0.1 K of
    T_hot (``T_steady_uniform``), and the preset's ``p_x*`` probes move by at
    most 2 % of their peak when dt is halved (``p_self_convergence_dt``)."""
    cfg = thermal_consolidation()
    cfg.snapshot_every = 0
    n = _add_row_probes(cfg, ("T", "p")).size
    times, series = _run_series(cfg)
    T, p = _row(series, "T", n), _row(series, "p", n)
    T_hot = cfg.bcs_heat[0].value
    T0 = cfg.materials.T0
    span = T_hot - T0
    tol_T = 1e-9 * span

    mono_ok = not np.any(np.diff(T, axis=1) > tol_T)
    bound_ok = not (np.any(T > T_hot + tol_T) or np.any(T < T0 - tol_T))
    worst_dT = max(0.0, float(np.max(T - T_hot)), float(np.max(T0 - T)))
    criteria = [
        Criterion("T_monotone_in_x", mono_ok, 0.0 if mono_ok else 1.0, 0.0,
                  "checked at every output time"),
        Criterion("T_bounded", bound_ok, worst_dT, tol_T,
                  f"max excursion outside [{T0}, {T_hot}] K"),
    ]

    p_peak = float(np.abs(p).max())
    p_final = float(np.abs(p[-1]).max())
    criteria.append(Criterion("p_returns_to_1pct_of_peak",
                              p_final <= 0.01 * p_peak, p_final, 0.01 * p_peak,
                              f"peak {p_peak:.6g} Pa"))

    dev = float(np.max(np.abs(T[-1] - T_hot)))
    criteria.append(Criterion("T_steady_uniform", dev <= 0.1, dev, 0.1,
                              "final T vs 343.15 K"))

    half_times, half = _run_series(replace(cfg, controls=replace(
        cfg.controls, dt_schedule=[(d, 0.5 * dt) for d, dt in cfg.controls.dt_schedule])))
    idx = np.searchsorted(half_times, times)
    worst = max(float(np.abs(series[name] - half[name][idx]).max() / np.abs(series[name]).max())
                for name in series if name.startswith("p_"))
    criteria.append(Criterion("p_self_convergence_dt", worst <= 0.02, worst, 0.02,
                              "max |p(dt) - p(dt/2)| / max|p| over probes"))
    return _report("thermal_consolidation", criteria)


# ---------------------------------------------------------------------------
# advection stabilization (cold-injection KGD variant)
# ---------------------------------------------------------------------------

def verify_stabilization(fast: bool = False) -> dict:
    """Criterion: injecting 30 K colder to t = 2 s, stabilized T stays
    within 1% of dT around [T_inj, T0] on the fracture path (y = 30 m, to
    the band's end, every h/2); with ``s_stab = 0`` it must not."""
    dT = 30.0
    cfg = kgd_cold(dT=dT, fast=fast, t_end=2.0)
    band = cfg.refine_bands[0]
    path = [ProbeSpec(name=f"T_path{i}", field="T", point=(float(x), 30.0))
            for i, x in enumerate(np.arange(0.0, band.hi, 0.5 * band.h))]
    cfg.probes = cfg.probes + path
    lo = cfg.injection.temperature - 0.01 * dT
    hi = cfg.materials.T0 + 0.01 * dT

    excursions = []
    for s_stab in (cfg.materials.s_stab, 0.0):
        _, series = _run_series(replace(cfg, materials=replace(cfg.materials,
                                                               s_stab=s_stab)))
        T = np.array([series[spec.name] for spec in path])
        excursions.append(max(float(lo - T.min()), float(T.max() - hi), 0.0))
    excursion_on, excursion_off = excursions

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

def verify_thermal_trend(fast: bool = False) -> dict:
    """Peak injection pressure to t = 2 s must drop when the injected fluid
    is colder.

    ``fast`` coarsens the refined band from h = 0.01 m to h = 0.025 m.
    """
    h = 0.025 if fast else 0.01
    peaks = {}
    for dT in (0.0, 90.0):
        _, series = _run_series(single_fracture(dT=dT, h=h, t_end=2.0))
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


def takes_fast(benchmark: str) -> bool:
    """Whether ``benchmark`` has a coarse variant, selected by ``fast``."""
    return "fast" in inspect.signature(BENCHMARKS[benchmark]).parameters


def run_verification(benchmark: str, fast: bool = False) -> dict:
    """Run ``benchmark``, its coarse variant when ``fast`` (TypeError, before
    anything runs, for a benchmark without one)."""
    if benchmark not in BENCHMARKS:
        raise KeyError(f"unknown benchmark {benchmark!r}; "
                       f"available: {sorted(BENCHMARKS)}")
    check = BENCHMARKS[benchmark]
    return check(fast=True) if fast else check()


def format_report(report: dict) -> str:
    lines = [f"benchmark: {report['benchmark']}",
             f"overall:   {'PASS' if report['passed'] else 'FAIL'}"]
    width = max(len(c["name"]) for c in report["criteria"])
    for c in report["criteria"]:
        status = "PASS" if c["passed"] else "FAIL"
        lines.append(f"  {status}  {c['name']:<{width}}  value={c['value']:.6g}  "
                     f"tol={c['tolerance']:.6g}  {c['detail']}")
    return "\n".join(lines)
