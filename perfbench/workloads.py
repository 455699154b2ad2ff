"""Seeded scenario requests and output checks for the benchmark workloads.

Every request is a plain config dict, built here from the workload seed and
handed to ``thmfrac.config.config_from_dict`` by the harness. The same seed
always yields the same requests. ``thermal_trend`` draws its jitter from a
fixed table of variants (``seed % THERMAL_VARIANTS``) so that every seed has
a probe series recorded from the seed commit to compare against, as the
single ``kgd_growth`` request has (see ``references/`` and
``record_references.py``).
"""

from __future__ import annotations

import copy
import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from thmfrac import analytic, presets
from thmfrac.config import config_to_dict
from thmfrac.constitutive import MaterialParams
from thmfrac.mesh import generate_rect_mesh

WORKLOADS = ("poro_batch", "kgd_growth", "thermal_trend", "terzaghi_batch")
THERMAL_VARIANTS = 8
REFERENCE_DIR = Path(__file__).resolve().parent / "references"

TERZAGHI_TOL = 0.02       # relative L2 error of p and u, as in verify_terzaghi
SERIES_TOL = 1e-3         # max |probe - reference| / max |reference|

# terzaghi_batch: the seed pairs these nx values and (duration, dt)
# schedules; a pass uses each once
_TERZAGHI_NX = (40, 60, 80, 100)
_TERZAGHI_SCHEDULES = (
    [(10.0, 0.5), (30.0, 1.0)],
    [(20.0, 1.0), (20.0, 2.0)],
    [(40.0, 1.0)],
    [(8.0, 0.25), (32.0, 1.0)],
)
# poro_batch request shapes: (nx, [(steps, dt)]). The seed scales nx by up
# to +-10 % and every dt by 0.8..1.25 but keeps the step counts, so the
# work of a pass hardly depends on the seed.
_THERMAL_SHAPES = (
    (40, [(20, 5.0e2)]),
    (60, [(20, 1.0e3)]),
    (80, [(16, 2.5e2), (8, 2.0e3)]),
    (100, [(10, 1.0e3), (10, 4.0e3)]),
)
_THERMAL_REPEATED = (1, 2)       # shapes whose request is sent twice in a row


@dataclass
class Request:
    kind: str                 # terzaghi | thermal_consolidation | kgd | single_fracture
    raw: dict                 # config dict for config_from_dict
    label: str
    variant: int | None = None            # row of the reference table
    inputs: dict = field(default_factory=dict)  # jittered inputs, kept with the reference

    @property
    def n_steps(self) -> int:
        return sum(int(round(d / dt)) for d, dt in self.raw["controls"]["dt_schedule"])


def _rng(tag: str, key: int) -> np.random.Generator:
    return np.random.default_rng([sum(map(ord, tag)), int(key)])


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def _terzaghi(rng, nx: int, schedule, snapshot_every: int) -> dict:
    raw = config_to_dict(presets.terzaghi())
    raw["geometry"]["mesh"]["nx"] = int(nx)
    load = float(rng.uniform(1.5e6, 2.5e6))
    raw["bcs"]["mechanics"][0]["traction"] = [load, 0.0]
    raw["materials"]["perm_m"] = float(2e-12 * rng.uniform(0.5, 2.0))
    raw["controls"]["dt_schedule"] = [list(e) for e in schedule]
    raw["outputs"]["snapshot_every"] = snapshot_every
    return raw


def _thermal(rng, nx: int, schedule, snapshot_every: int) -> dict:
    raw = config_to_dict(presets.thermal_consolidation())
    raw["geometry"]["mesh"]["nx"] = int(nx)
    raw["bcs"]["heat"][0]["temperature"] = float(343.15 + rng.uniform(-5.0, 5.0))
    raw["materials"]["perm_m"] = float(1e-16 * rng.uniform(0.5, 2.0))
    raw["initial"]["pressure"] = float(rng.uniform(0.08e6, 0.12e6))
    raw["controls"]["dt_schedule"] = [list(e) for e in schedule]
    raw["outputs"]["snapshot_every"] = snapshot_every
    return raw


def _with_repeats(rng, uniques: list[Request], repeat_of) -> list[Request]:
    """Shuffle the requests and place an exact repeat of each request in
    ``repeat_of`` (indices before shuffling) right behind its original, so
    the 8-entry LU cache sees both shared and unshared operators."""
    out: list[Request] = []
    for i in rng.permutation(len(uniques)):
        req = uniques[i]
        out.append(req)
        if i in repeat_of:
            out.append(Request(req.kind, copy.deepcopy(req.raw), req.label + "/repeat"))
    return out


def poro_batch(seed: int, small: bool = False) -> list[Request]:
    """Four thermal-consolidation requests (seeded nx, dt schedule,
    heated-face temperature, permeability and initial pressure) plus exact
    repeats of two of them."""
    rng = _rng("poro_batch", seed)
    uniques = []
    for i, (nx, shape) in enumerate(_THERMAL_SHAPES):
        nx = int(round(nx * rng.uniform(0.9, 1.1)))
        schedule = [(float(n * dt * f), float(dt * f)) for (n, dt), f in
                    zip(shape, rng.uniform(0.8, 1.25, size=len(shape)))]
        if small:
            nx, schedule = 10, [(4.0e3, 1.0e3)]
        uniques.append(Request("thermal_consolidation", _thermal(rng, nx, schedule, 5),
                               f"thermal#{i}"))
    return _with_repeats(rng, uniques, _THERMAL_REPEATED)


def terzaghi_batch(seed: int, small: bool = False) -> list[Request]:
    """Four Terzaghi columns (seeded nx, load, permeability and dt schedule)
    plus exact repeats of two of them."""
    rng = _rng("terzaghi_batch", seed)
    uniques = []
    for i, (nx, k) in enumerate(zip(rng.permutation(_TERZAGHI_NX),
                                    rng.permutation(len(_TERZAGHI_SCHEDULES)))):
        schedule = [(40.0, 10.0)] if small else _TERZAGHI_SCHEDULES[k]
        uniques.append(Request("terzaghi", _terzaghi(rng, 20 if small else nx, schedule, 10),
                               f"terzaghi#{i}"))
    return _with_repeats(rng, uniques, set(rng.choice(len(uniques), 2, replace=False)))


def kgd_growth(seed: int, small: bool = False) -> list[Request]:
    """One toughness-dominated KGD request over the dt = 0.01 s start-up and
    two dt = 0.1 s steps, snapshots only at the start and the end. The
    ``kgd(fast=True)`` preset with its band coarsened to h = 0.2 m (ell =
    4 h, as the presets keep) around the first 5 m of the crack path only:
    2,070 nodes, about 8 s per request.

    The request does not depend on the seed: the first step's inner
    iteration count reacts chaotically to the injection rate and Gc (82 to
    280 over ten +-3 % jitters on the h = 0.1 m band), which a run of
    benchmark length cannot average out.
    """
    h = 0.5 if small else 0.2
    raw = config_to_dict(presets.kgd(fast=True, t_end=0.3))
    raw["geometry"]["refine_bands"] = [
        {"axis": "x", "lo": 0.0, "hi": 5.0, "h": h, "ratio": 1.2},
        {"axis": "y", "lo": 30.0 - 4 * h, "hi": 30.0 + 4 * h, "h": h, "ratio": 1.2},
    ]
    raw["materials"]["ell"] = 4.0 * h
    if small:
        raw["geometry"]["mesh"].update(nx=9, ny=12)
        raw["controls"]["dt_schedule"] = [[0.02, 0.01]]
    inputs = {"rate": raw["sources"]["injection"]["rate"], "Gc": raw["materials"]["Gc"]}
    req = Request("kgd", raw, "kgd", None if small else 0, inputs)
    raw["outputs"]["snapshot_every"] = req.n_steps
    return [req]


def thermal_inputs(variant: int) -> dict:
    rng = _rng("thermal_trend", variant)
    return {"rate_scale": float(1.0 + rng.uniform(-0.02, 0.02)),
            "Gc_scale": float(1.0 + rng.uniform(-0.02, 0.02))}


def thermal_trend(seed: int, small: bool = False) -> list[Request]:
    """The cooling comparison of ``verify_thermal_trend``: single-fracture
    injection at dT = 0 K and at dT = 90 K over the dt = 0.005 s start-up
    (t = 0.1 s), with the same seed jitter on injection rate and Gc."""
    variant = seed % THERMAL_VARIANTS
    inputs = thermal_inputs(variant)
    out = []
    for dT in (0.0, 90.0):
        if small:
            raw = config_to_dict(presets.single_fracture(dT=dT, h=0.025, t_end=0.1))
            raw["controls"]["dt_schedule"] = [[0.01, 0.005]]
        else:
            raw = config_to_dict(presets.single_fracture(dT=dT, t_end=0.1))
        raw["materials"]["Gc"] *= inputs["Gc_scale"]
        raw["sources"]["injection"]["rate"] *= inputs["rate_scale"]
        out.append(Request("single_fracture", raw, f"single_fracture/dT{dT:g}/v{variant}",
                           None if small else variant, dict(inputs, dT=dT)))
    return out


GENERATORS = {"poro_batch": poro_batch, "kgd_growth": kgd_growth,
              "thermal_trend": thermal_trend, "terzaghi_batch": terzaghi_batch}


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

@dataclass
class Check:
    ok: bool
    err: float          # worst relative error against the reference (0 if none)
    detail: str


def read_series(out_dir: Path) -> dict[str, np.ndarray]:
    with open(out_dir / "series.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    return {name: np.array([float(r[k]) for r in body]) for k, name in enumerate(header)}


def _check_files(req: Request, out_dir: Path, completed: bool) -> list[str]:
    problems = []
    manifest = json.loads((out_dir / "manifest.json").read_text())
    want = "completed" if completed else "failed"
    if manifest["status"] != want:
        problems.append(f"manifest status {manifest['status']!r}, expected {want!r}")
    missing = [f for f in manifest["files"] if not (out_dir / f).exists()]
    if missing:
        problems.append(f"declared files missing: {missing[:3]}")
    if completed:
        cadence = req.raw["outputs"]["snapshot_every"]
        n = req.n_steps
        n_vtk = (1 + n // cadence + (1 if n % cadence else 0)) if cadence else 0
        have = sum(1 for f in manifest["files"] if f.endswith(".vtk"))
        if have != n_vtk:
            problems.append(f"{have} snapshots written, expected {n_vtk}")
    return problems


def _terzaghi_errors(req: Request, result) -> float:
    raw = req.raw
    L, H = raw["geometry"]["domain"]
    mesh = generate_rect_mesh(L, H, raw["geometry"]["mesh"]["nx"], raw["geometry"]["mesh"]["ny"])
    row = mesh.boundary_nodes["bottom"]
    xs = mesh.nodes[row, 0]
    coeffs = analytic.terzaghi_coeffs(MaterialParams(**raw["materials"]), L)
    sigma = raw["bcs"]["mechanics"][0]["traction"][0]
    # check at the end of the first dt segment and at the final time
    t_first = raw["controls"]["dt_schedule"][0][0]
    worst = 0.0
    for t in sorted({t_first, result.times[-1]}):
        k = int(np.argmin(np.abs(np.asarray(result.times) - t)))
        state = result.states[k]
        p_ref = analytic.terzaghi_pressure(xs, result.times[k], sigma, L, coeffs)
        u_ref = analytic.terzaghi_displacement(xs, result.times[k], sigma, L, coeffs)
        ep = np.linalg.norm(state.p[row] - p_ref) / np.linalg.norm(p_ref)
        eu = np.linalg.norm(state.u[2 * row] - u_ref) / np.linalg.norm(u_ref)
        worst = max(worst, float(ep), float(eu))
    return worst


def _thermal_excursion(req: Request, result) -> tuple[float, bool]:
    """Worst bound excursion (share of the temperature span) and whether T
    decreases monotonically away from the heated face at every output."""
    raw = req.raw
    L, H = raw["geometry"]["domain"]
    mesh = generate_rect_mesh(L, H, raw["geometry"]["mesh"]["nx"], raw["geometry"]["mesh"]["ny"])
    row = mesh.boundary_nodes["bottom"]
    T_hot = raw["bcs"]["heat"][0]["temperature"]
    T0 = raw["materials"]["T0"]
    span = T_hot - T0
    tol = 1e-9 * span
    worst, monotone = 0.0, True
    for state in result.states:
        T = state.T[row]
        worst = max(worst, float(np.max(T - T_hot)) / span, float(np.max(T0 - T)) / span)
        monotone &= not np.any(np.diff(T) > tol)
        if not np.all(np.isfinite(state.p)):
            return math.inf, False
    return max(worst, 0.0), monotone and worst <= 1e-9


def _series_error(series: dict[str, np.ndarray], ref: dict) -> tuple[float, str]:
    ref_series = ref["series"]
    n = min(len(series["time_s"]), len(ref_series["time_s"]))
    if n == 0:
        return math.inf, "empty series"
    if not np.allclose(series["time_s"][:n], ref_series["time_s"][:n], rtol=1e-12, atol=1e-12):
        return math.inf, "output times differ from the reference"
    worst, where = 0.0, ""
    for name, values in ref_series.items():
        if name == "time_s":
            continue
        ref_v = np.asarray(values[:n])
        scale = max(float(np.max(np.abs(ref_v))), 1e-300)
        e = float(np.max(np.abs(series[name][:n] - ref_v))) / scale
        if not e <= worst:
            worst, where = e, name
    return worst, f"worst probe {where} over {n} outputs"


def load_reference(workload: str, variant: int) -> list[dict] | None:
    path = REFERENCE_DIR / f"{workload}.json"
    if not path.exists():
        return None
    table = json.loads(path.read_text())
    return table["variants"].get(str(variant))


def check_request(req: Request, result, out_dir: Path, reference: dict | None) -> Check:
    """Check one request's outputs. ``result`` is the RunResult, or None
    when the request raised a solver failure (its partial series is then
    compared with the reference prefix)."""
    completed = result is not None
    problems = _check_files(req, out_dir, completed)
    series = read_series(out_dir)
    expected_rows = req.n_steps + 1
    if completed and len(series["time_s"]) != expected_rows:
        problems.append(f"series has {len(series['time_s'])} rows, expected {expected_rows}")
    for name, values in series.items():
        if not np.all(np.isfinite(values)):
            problems.append(f"non-finite values in probe {name}")
    err = 0.0
    if req.kind == "terzaghi" and completed:
        err = _terzaghi_errors(req, result)
        if not err <= TERZAGHI_TOL:
            problems.append(f"Terzaghi L2 error {err:.3g} > {TERZAGHI_TOL}")
    elif req.kind == "thermal_consolidation" and completed:
        err, ok = _thermal_excursion(req, result)
        if not ok:
            problems.append(f"temperature not bounded/monotone (excursion {err:.3g})")
    elif req.kind in ("kgd", "single_fracture"):
        if reference is not None:
            if reference["inputs"] != req.inputs:
                problems.append("request inputs differ from the recorded reference")
            err, where = _series_error(series, reference)
            if not err <= SERIES_TOL:
                problems.append(f"probe series off the reference by {err:.3g} ({where})")
    return Check(not problems, err, "; ".join(problems) or "ok")
