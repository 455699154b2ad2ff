"""Scenario configuration: JSON schema, validation and round-tripping.

``parse_config`` validates exhaustively and reports every problem at once
(field paths like ``materials.E``), rather than failing on the first.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields as dc_fields

from .constitutive import MaterialParams
from .errors import ConfigError
from .mesh import RefineBand
from .staggered import SolverControls

_BOUNDARY_SETS = ("left", "right", "top", "bottom")
_PROBE_KINDS = ("field", "fracture_length", "width")
_PROBE_FIELDS = ("p", "T", "v", "ux", "uy")


@dataclass
class MechBC:
    set: str
    component: str | None = None   # "x", "y" or "both" for Dirichlet
    value: float = 0.0
    traction: tuple[float, float] | None = None


@dataclass
class ScalarBC:
    set: str
    value: float


@dataclass
class Injection:
    point: tuple[float, float]
    rate: float                    # [m^2/s], 2D line rate
    temperature: float | None = None


@dataclass
class ProbeSpec:
    name: str
    kind: str = "field"
    field: str | None = None
    point: tuple[float, float] | None = None
    path: list[tuple[float, float]] | None = None
    threshold: float = 0.1


@dataclass
class ScenarioConfig:
    name: str
    domain: tuple[float, float]
    nx: int
    ny: int
    materials: MaterialParams
    controls: SolverControls
    refine_bands: list[RefineBand] = field(default_factory=list)
    cracks: list[list[tuple[float, float]]] = field(default_factory=list)
    weak_interfaces: list[tuple[list[tuple[float, float]], float]] = field(default_factory=list)
    solve_thermal: bool = True
    solve_phasefield: bool = True
    bcs_mech: list[MechBC] = field(default_factory=list)
    bcs_flow: list[ScalarBC] = field(default_factory=list)
    bcs_heat: list[ScalarBC] = field(default_factory=list)
    injection: Injection | None = None
    p_init: float = 0.0
    probes: list[ProbeSpec] = field(default_factory=list)
    snapshot_every: int = 0


class _Check:
    """Error collector with dotted-path diagnostics."""

    def __init__(self):
        self.errors: list[str] = []

    def err(self, path: str, msg: str):
        self.errors.append(f"{path}: {msg}")

    def section(self, d: dict, key: str, path: str, required: bool = False) -> dict:
        val = d.get(key)
        if val is None:
            if required:
                self.err(path, "missing required section")
            return {}
        if not isinstance(val, dict):
            self.err(path, f"expected an object, got {type(val).__name__}")
            return {}
        return val

    def unknown(self, d: dict, known, path: str):
        for k in d:
            if k not in known:
                self.err(f"{path}.{k}" if path else k, "unknown key")

    def num(self, d: dict, key: str, path: str, default=None, required=False,
            positive=False, nonneg=False):
        if key not in d:
            if required:
                self.err(f"{path}.{key}", "missing required value")
            return default
        v = d[key]
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            self.err(f"{path}.{key}", f"expected a number, got {v!r}")
            return default
        v = float(v)
        if positive and not v > 0.0:
            self.err(f"{path}.{key}", f"must be positive, got {v}")
            return default
        if nonneg and v < 0.0:
            self.err(f"{path}.{key}", f"must be non-negative, got {v}")
            return default
        return v

    def integer(self, d: dict, key: str, path: str, default=None, required=False,
                minimum=None):
        if key not in d:
            if required:
                self.err(f"{path}.{key}", "missing required value")
            return default
        v = d[key]
        if isinstance(v, bool) or not isinstance(v, int):
            self.err(f"{path}.{key}", f"expected an integer, got {v!r}")
            return default
        if minimum is not None and v < minimum:
            self.err(f"{path}.{key}", f"must be >= {minimum}, got {v}")
            return default
        return v

    def boolean(self, d: dict, key: str, path: str, default=False):
        v = d.get(key, default)
        if not isinstance(v, bool):
            self.err(f"{path}.{key}", f"expected true/false, got {v!r}")
            return default
        return v

    def choice(self, d: dict, key: str, path: str, options, default=None):
        v = d.get(key, default)
        if v not in options:
            self.err(f"{path}.{key}", f"must be one of {options}, got {v!r}")
            return default
        return v

    def point(self, v, path: str):
        if (not isinstance(v, (list, tuple)) or len(v) != 2
                or any(isinstance(c, bool) or not isinstance(c, (int, float)) for c in v)):
            self.err(path, f"expected [x, y], got {v!r}")
            return None
        return (float(v[0]), float(v[1]))

    def segment(self, v, path: str):
        if not isinstance(v, (list, tuple)) or len(v) != 2:
            self.err(path, f"expected [[x0, y0], [x1, y1]], got {v!r}")
            return None
        p0 = self.point(v[0], f"{path}[0]")
        p1 = self.point(v[1], f"{path}[1]")
        if p0 is None or p1 is None:
            return None
        return [p0, p1]

    def scalar_bcs(self, bcs: dict, kind: str, value_key: str) -> list[ScalarBC]:
        """Entries ``{"set": ..., value_key: ...}`` of the list ``bcs.<kind>``."""
        out = []
        for i, b in enumerate(bcs.get(kind, [])):
            path = f"bcs.{kind}[{i}]"
            if not isinstance(b, dict):
                self.err(path, "expected an object")
                continue
            self.unknown(b, {"set", value_key}, path)
            bset = self.choice(b, "set", path, _BOUNDARY_SETS)
            val = self.num(b, value_key, path, required=True)
            if bset and val is not None:
                out.append(ScalarBC(set=bset, value=val))
        return out


_MATERIAL_KEYS = {f.name for f in dc_fields(MaterialParams)}


def config_from_dict(raw: dict, name_hint: str = "scenario") -> ScenarioConfig:
    """Validate a raw dict and build the scenario; raises ConfigError with
    the full error list on any problem."""
    ck = _Check()
    if not isinstance(raw, dict):
        raise ConfigError(["top level: expected a JSON object"])
    ck.unknown(raw, {"name", "geometry", "materials", "physics", "bcs",
                     "sources", "initial", "controls", "outputs"}, "")

    name = raw.get("name", name_hint)
    if not isinstance(name, str):
        ck.err("name", f"expected a string, got {name!r}")
        name = name_hint

    geo = ck.section(raw, "geometry", "geometry", required=True)
    ck.unknown(geo, {"domain", "mesh", "refine_bands", "cracks", "weak_interfaces"},
               "geometry")
    domain = (1.0, 1.0)
    dom = geo.get("domain")
    pt = ck.point(dom, "geometry.domain") if dom is not None else None
    if dom is None:
        ck.err("geometry.domain", "missing required value")
    elif pt is not None:
        if pt[0] <= 0.0 or pt[1] <= 0.0:
            ck.err("geometry.domain", f"dimensions must be positive, got {pt}")
        else:
            domain = pt
    msh = ck.section(geo, "mesh", "geometry.mesh", required=True)
    ck.unknown(msh, {"nx", "ny"}, "geometry.mesh")
    nx = ck.integer(msh, "nx", "geometry.mesh", default=1, required=True, minimum=1)
    ny = ck.integer(msh, "ny", "geometry.mesh", default=1, required=True, minimum=1)

    bands = []
    for i, b in enumerate(geo.get("refine_bands", [])):
        path = f"geometry.refine_bands[{i}]"
        if not isinstance(b, dict):
            ck.err(path, "expected an object")
            continue
        ck.unknown(b, {"axis", "lo", "hi", "h", "ratio"}, path)
        axis = ck.choice(b, "axis", path, ("x", "y"))
        lo = ck.num(b, "lo", path, required=True, nonneg=True)
        hi = ck.num(b, "hi", path, required=True, positive=True)
        h = ck.num(b, "h", path, required=True, positive=True)
        ratio = ck.num(b, "ratio", path, default=1.15, positive=True)
        if None not in (axis, lo, hi, h, ratio):
            try:
                bands.append(RefineBand(axis=axis, lo=lo, hi=hi, h=h, ratio=ratio))
            except ValueError as exc:
                ck.err(path, str(exc))

    cracks = []
    for i, seg in enumerate(geo.get("cracks", [])):
        s = ck.segment(seg, f"geometry.cracks[{i}]")
        if s is not None:
            cracks.append(s)
    interfaces = []
    for i, w in enumerate(geo.get("weak_interfaces", [])):
        path = f"geometry.weak_interfaces[{i}]"
        if not isinstance(w, dict):
            ck.err(path, "expected an object")
            continue
        ck.unknown(w, {"segment", "gc_ratio"}, path)
        s = ck.segment(w.get("segment"), f"{path}.segment")
        r = ck.num(w, "gc_ratio", path, required=True, positive=True)
        if s is not None and r is not None:
            interfaces.append((s, r))

    mat = ck.section(raw, "materials", "materials", required=True)
    ck.unknown(mat, _MATERIAL_KEYS, "materials")
    mat_vals = {}
    for k, v in mat.items():
        if k not in _MATERIAL_KEYS:
            continue
        if k == "n_at":
            iv = ck.integer(mat, k, "materials")
            if iv is not None:
                mat_vals[k] = iv
        elif k == "porosity_variant":
            if isinstance(v, str):
                mat_vals[k] = v
            else:
                ck.err(f"materials.{k}", f"expected a string, got {v!r}")
        else:
            nv = ck.num(mat, k, "materials")
            if nv is not None:
                mat_vals[k] = nv
    if "E" not in mat:
        ck.err("materials.E", "missing required value")
    if "nu" not in mat:
        ck.err("materials.nu", "missing required value")
    materials = None
    if not ck.errors or ("E" in mat_vals and "nu" in mat_vals):
        try:
            materials = MaterialParams(**mat_vals)
        except (ValueError, TypeError) as exc:
            ck.err("materials", str(exc))

    phys = ck.section(raw, "physics", "physics")
    ck.unknown(phys, {"solve_thermal", "solve_phasefield"}, "physics")
    solve_thermal = ck.boolean(phys, "solve_thermal", "physics", True)
    solve_phasefield = ck.boolean(phys, "solve_phasefield", "physics", True)

    bcs = ck.section(raw, "bcs", "bcs")
    ck.unknown(bcs, {"mechanics", "flow", "heat"}, "bcs")
    bcs_mech = []
    for i, b in enumerate(bcs.get("mechanics", [])):
        path = f"bcs.mechanics[{i}]"
        if not isinstance(b, dict):
            ck.err(path, "expected an object")
            continue
        ck.unknown(b, {"set", "component", "value", "traction"}, path)
        bset = ck.choice(b, "set", path, _BOUNDARY_SETS)
        if "traction" in b:
            tr = ck.point(b["traction"], f"{path}.traction")
            if bset and tr:
                bcs_mech.append(MechBC(set=bset, traction=tr))
        else:
            comp = ck.choice(b, "component", path, ("x", "y", "both"))
            val = ck.num(b, "value", path, default=0.0)
            if bset and comp:
                bcs_mech.append(MechBC(set=bset, component=comp, value=val))
    bcs_flow = ck.scalar_bcs(bcs, "flow", "pressure")
    bcs_heat = ck.scalar_bcs(bcs, "heat", "temperature")

    src = ck.section(raw, "sources", "sources")
    ck.unknown(src, {"injection"}, "sources")
    injection = None
    if "injection" in src:
        inj = ck.section(src, "injection", "sources.injection")
        ck.unknown(inj, {"point", "rate", "temperature"}, "sources.injection")
        point = ck.point(inj.get("point"), "sources.injection.point")
        rate = ck.num(inj, "rate", "sources.injection", required=True, nonneg=True)
        temp = ck.num(inj, "temperature", "sources.injection")
        if point is not None and rate is not None:
            injection = Injection(point=point, rate=rate, temperature=temp)

    init = ck.section(raw, "initial", "initial")
    ck.unknown(init, {"pressure"}, "initial")
    p_init = ck.num(init, "pressure", "initial", default=0.0)

    ctr = ck.section(raw, "controls", "controls", required=True)
    ck.unknown(ctr, {"tol_stag", "tol_tpu", "max_outer", "max_inner",
                     "v_ir", "dt_schedule"}, "controls")
    schedule = []
    sched_raw = ctr.get("dt_schedule")
    if sched_raw is None:
        ck.err("controls.dt_schedule", "missing required value")
    elif not isinstance(sched_raw, list) or not sched_raw:
        ck.err("controls.dt_schedule", "expected a non-empty list of [duration, dt]")
    else:
        for i, entry in enumerate(sched_raw):
            pt = ck.point(entry, f"controls.dt_schedule[{i}]")
            if pt is not None:
                if pt[1] <= 0.0 or pt[0] < 0.0:
                    ck.err(f"controls.dt_schedule[{i}]",
                           f"need duration >= 0 and dt > 0, got {pt}")
                else:
                    schedule.append(pt)
    controls = None
    kw = {}
    for key in ("tol_stag", "tol_tpu"):
        v = ck.num(ctr, key, "controls", positive=True)
        if v is not None:
            kw[key] = v
    for key in ("max_outer", "max_inner"):
        v = ck.integer(ctr, key, "controls", minimum=1)
        if v is not None:
            kw[key] = v
    v_ir = ck.num(ctr, "v_ir", "controls", nonneg=True)
    if v_ir is not None:
        kw["v_ir"] = v_ir
    if schedule:
        try:
            controls = SolverControls(dt_schedule=schedule, **kw)
        except ValueError as exc:
            ck.err("controls", str(exc))

    out = ck.section(raw, "outputs", "outputs")
    ck.unknown(out, {"probes", "snapshot_every"}, "outputs")
    snapshot_every = ck.integer(out, "snapshot_every", "outputs", default=0, minimum=0)
    probes = []
    for i, p in enumerate(out.get("probes", [])):
        path = f"outputs.probes[{i}]"
        if not isinstance(p, dict):
            ck.err(path, "expected an object")
            continue
        ck.unknown(p, {"name", "kind", "field", "point", "path", "threshold"}, path)
        pname = p.get("name")
        if not isinstance(pname, str) or not pname:
            ck.err(f"{path}.name", "missing or not a string")
            continue
        kind = ck.choice(p, "kind", path, _PROBE_KINDS, "field")
        spec = ProbeSpec(name=pname, kind=kind or "field")
        if kind == "field":
            spec.field = ck.choice(p, "field", path, _PROBE_FIELDS)
            spec.point = ck.point(p.get("point"), f"{path}.point")
            if spec.field is None or spec.point is None:
                continue
        elif kind == "width":
            spec.point = ck.point(p.get("point"), f"{path}.point")
            if spec.point is None:
                continue
        elif kind == "fracture_length":
            pp = p.get("path")
            if not isinstance(pp, list) or len(pp) < 2:
                ck.err(f"{path}.path", "expected a polyline with >= 2 points")
                continue
            pts = [ck.point(q, f"{path}.path[{k}]") for k, q in enumerate(pp)]
            if any(q is None for q in pts):
                continue
            spec.path = pts
            thr = ck.num(p, "threshold", path, default=0.1, positive=True)
            spec.threshold = thr if thr is not None else 0.1
        probes.append(spec)

    if ck.errors or materials is None or controls is None:
        if materials is None and not any(e.startswith("materials") for e in ck.errors):
            ck.err("materials", "section could not be constructed")
        if controls is None and not any(e.startswith("controls") for e in ck.errors):
            ck.err("controls", "section could not be constructed")
        raise ConfigError(ck.errors)

    return ScenarioConfig(
        name=name, domain=domain, nx=nx, ny=ny, materials=materials,
        controls=controls, refine_bands=bands, cracks=cracks,
        weak_interfaces=interfaces, solve_thermal=solve_thermal,
        solve_phasefield=solve_phasefield,
        bcs_mech=bcs_mech, bcs_flow=bcs_flow, bcs_heat=bcs_heat,
        injection=injection, p_init=p_init, probes=probes,
        snapshot_every=snapshot_every)


def parse_config(text: str) -> ScenarioConfig:
    """Parse and validate a JSON scenario; raises ConfigError on any problem."""
    if not text.strip():
        raise ConfigError(["top level: empty configuration"])
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"line {exc.lineno}, column {exc.colno}: {exc.msg}"]) from exc
    return config_from_dict(raw)


def config_to_dict(cfg: ScenarioConfig) -> dict:
    """Serialize a scenario back to its JSON schema (parse round-trips)."""
    d = {
        "name": cfg.name,
        "geometry": {
            "domain": list(cfg.domain),
            "mesh": {"nx": cfg.nx, "ny": cfg.ny},
        },
        "materials": asdict(cfg.materials),
        "physics": {
            "solve_thermal": cfg.solve_thermal,
            "solve_phasefield": cfg.solve_phasefield,
        },
        "bcs": {"mechanics": [], "flow": [], "heat": []},
        "initial": {"pressure": cfg.p_init},
        "controls": {
            "tol_stag": cfg.controls.tol_stag,
            "tol_tpu": cfg.controls.tol_tpu,
            "max_outer": cfg.controls.max_outer,
            "max_inner": cfg.controls.max_inner,
            "v_ir": cfg.controls.v_ir,
            "dt_schedule": [list(e) for e in cfg.controls.dt_schedule],
        },
        "outputs": {"snapshot_every": cfg.snapshot_every, "probes": []},
    }
    if cfg.refine_bands:
        d["geometry"]["refine_bands"] = [
            {"axis": b.axis, "lo": b.lo, "hi": b.hi, "h": b.h, "ratio": b.ratio}
            for b in cfg.refine_bands]
    if cfg.cracks:
        d["geometry"]["cracks"] = [[list(p) for p in seg] for seg in cfg.cracks]
    if cfg.weak_interfaces:
        d["geometry"]["weak_interfaces"] = [
            {"segment": [list(p) for p in seg], "gc_ratio": r}
            for seg, r in cfg.weak_interfaces]
    for b in cfg.bcs_mech:
        if b.traction is not None:
            d["bcs"]["mechanics"].append({"set": b.set, "traction": list(b.traction)})
        else:
            d["bcs"]["mechanics"].append(
                {"set": b.set, "component": b.component, "value": b.value})
    for b in cfg.bcs_flow:
        d["bcs"]["flow"].append({"set": b.set, "pressure": b.value})
    for b in cfg.bcs_heat:
        d["bcs"]["heat"].append({"set": b.set, "temperature": b.value})
    if cfg.injection is not None:
        inj = {"point": list(cfg.injection.point), "rate": cfg.injection.rate}
        if cfg.injection.temperature is not None:
            inj["temperature"] = cfg.injection.temperature
        d["sources"] = {"injection": inj}
    for p in cfg.probes:
        e = {"name": p.name, "kind": p.kind}
        if p.kind == "field":
            e["field"] = p.field
            e["point"] = list(p.point)
        elif p.kind == "width":
            e["point"] = list(p.point)
        else:
            e["path"] = [list(q) for q in p.path]
            e["threshold"] = p.threshold
        d["outputs"]["probes"].append(e)
    return d
