"""Scenario configuration: JSON schema, validation and round-tripping.

An object's JSON keys are the fields of its dataclass, and the dataclass
checks their values in ``__post_init__``. The reader type-checks each value
against its field's annotation, builds the object and reports its
``ValueError`` under the object's path. Every number must be finite: JSON
readers accept NaN and +-Infinity, and each one is reported under its
path. Only the sections of ``ScenarioConfig`` and the
``pressure``/``temperature`` key of ``ScalarBC`` are mapped by hand. Every
problem is reported at once, with field paths like ``materials.E``, rather
than only the first.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, field, fields, is_dataclass

from .constitutive import MaterialParams
from .errors import ConfigError
from .mesh import RefineBand
from .postproc import FIELDS
from .staggered import SolverControls

_BOUNDARY_SETS = ("left", "right", "top", "bottom")
_PROBE_KINDS = ("field", "fracture_length", "width")


def _check_set(name: str):
    if name not in _BOUNDARY_SETS:
        raise ValueError(f"set must be one of {_BOUNDARY_SETS}, got {name!r}")


@dataclass
class MechBC:
    """A Dirichlet constraint (``component`` = ``value``, 0 when omitted)
    or a ``traction`` on a boundary set, never both."""

    set: str
    component: str | None = None   # "x", "y" or "both" for Dirichlet
    value: float | None = None
    traction: tuple[float, float] | None = None

    def __post_init__(self):
        _check_set(self.set)
        if self.traction is None:
            if self.component not in ("x", "y", "both"):
                raise ValueError("component must be one of ('x', 'y', 'both') unless a "
                                 f"traction is given, got {self.component!r}")
            if self.value is None:
                self.value = 0.0
        # one entry is either a load or a constraint, never both
        elif self.component is not None:
            raise ValueError(f"an entry with a traction takes no component, "
                             f"got component {self.component!r}")
        elif self.value is not None:
            raise ValueError(f"an entry with a traction takes no value, "
                             f"got value {self.value!r}")


@dataclass
class ScalarBC:
    set: str
    value: float

    def __post_init__(self):
        _check_set(self.set)


@dataclass
class Injection:
    point: tuple[float, float]
    rate: float                    # [m^2/s], 2D line rate
    temperature: float | None = None

    def __post_init__(self):
        if not (self.rate >= 0.0 and math.isfinite(self.rate)):
            raise ValueError(f"rate must be non-negative and finite, got {self.rate}")


@dataclass
class ProbeSpec:
    """A named series: a nodal field or the fracture width at a point
    (``field``, ``width``), or the fracture length along a polyline whose
    phase field drops below ``threshold`` (``fracture_length``)."""

    name: str
    kind: str = "field"
    field: str | None = None
    point: tuple[float, float] | None = None
    path: list[tuple[float, float]] | None = None
    threshold: float = 0.1

    def __post_init__(self):
        if not self.name:
            raise ValueError("name must not be empty")
        if self.kind not in _PROBE_KINDS:
            raise ValueError(f"kind must be one of {_PROBE_KINDS}, got {self.kind!r}")
        if self.kind == "field" and self.field not in FIELDS:
            raise ValueError(f"field must be one of {FIELDS}, got {self.field!r}")
        if self.kind == "fracture_length":
            if self.path is None or len(self.path) < 2:
                raise ValueError("a fracture_length probe needs a path of >= 2 points")
            if not self.threshold > 0.0:
                raise ValueError(f"threshold must be positive, got {self.threshold}")
        elif self.point is None:
            raise ValueError(f"a {self.kind} probe needs a point")


@dataclass(frozen=True)
class WeakInterface:
    """A segment whose crossed elements take ``gc_ratio`` times the material's Gc."""

    segment: list[tuple[float, float]]
    gc_ratio: float

    def __post_init__(self):
        if len(self.segment) != 2:
            raise ValueError(f"segment must have two end points, got {self.segment!r}")
        if not (self.gc_ratio > 0.0 and math.isfinite(self.gc_ratio)):
            raise ValueError(f"gc_ratio must be positive and finite, got {self.gc_ratio}")


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
    weak_interfaces: list[WeakInterface] = field(default_factory=list)
    solve_thermal: bool = True
    solve_phasefield: bool = True
    bcs_mech: list[MechBC] = field(default_factory=list)
    bcs_flow: list[ScalarBC] = field(default_factory=list)
    bcs_heat: list[ScalarBC] = field(default_factory=list)
    injection: Injection | None = None
    p_init: float = 0.0
    probes: list[ProbeSpec] = field(default_factory=list)
    snapshot_every: int = 0


# The reader. A value whose type is its key's type is taken as is; any other
# value goes through the key's conversion, which raises if it is not of its kind.

def _reject(v):
    raise TypeError


def _number(v):
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise TypeError
    v = float(v)                # OverflowError for an int beyond float range
    if not math.isfinite(v):
        raise ValueError
    return v


def _point(v):
    if not isinstance(v, (list, tuple)) or len(v) != 2:
        raise TypeError
    x, y = v
    if type(x) is float and type(y) is float and math.isfinite(x) and math.isfinite(y):
        return (x, y)
    return (_number(x), _number(y))


def _points(v, n: int | None = None):
    if not isinstance(v, (list, tuple)) or not v or (n and len(v) != n):
        raise TypeError
    return [_point(p) for p in v]


def _segments(v):
    if not isinstance(v, list):
        raise TypeError
    return [_points(s, 2) for s in v]


def _object(v):
    if v is not None:           # a null section counts as an empty one
        raise TypeError
    return {}


# kind -> (type taken as is, conversion of other values, what it expects);
# the kind of a dataclass field is its annotation
_KINDS = {
    "float": (float, _number, "a finite number"),
    "int": (int, _reject, "an integer"),
    "str": (str, _reject, "a string"),
    "bool": (bool, _reject, "true/false"),
    "tuple[float, float]": (None, _point, "[x, y]"),
    "list[tuple[float, float]]": (None, _points, "a non-empty list of [x, y]"),
    "segments": (None, _segments, "a list of [[x0, y0], [x1, y1]]"),
    "list": (list, _reject, "a list"),
    "object": (dict, _object, "an object"),
}


def _schema(required=(), rename=(), **kinds):
    """The keys of a JSON object: the type taken as is by each key named as
    its field, the (field name, conversion, what it expects) of every key,
    and the required keys."""
    rename = dict(rename)
    return ({k: _KINDS[kind][0] for k, kind in kinds.items() if k not in rename},
            {k: (rename.get(k, k), *_KINDS[kind][1:]) for k, kind in kinds.items()},
            dict.fromkeys(required).keys())


def _dataclass_schema(cls):
    return _schema(
        required=[f.name for f in fields(cls)
                  if f.default is MISSING and f.default_factory is MISSING],
        **{f.name: f.type.removesuffix(" | None") for f in fields(cls)})


_SCHEMAS = {cls: _dataclass_schema(cls) for cls in (
    MaterialParams, SolverControls, RefineBand, MechBC, Injection, ProbeSpec, WeakInterface)}
_SCALAR_BCS = {kind: _schema(("set", key), {key: "value"}, set="str", **{key: "float"})
               for kind, key in (("flow", "pressure"), ("heat", "temperature"))}
_SCENARIO = _schema(("geometry", "materials", "controls"), name="str",
                    geometry="object", materials="object", physics="object",
                    bcs="object", sources="object", initial="object",
                    controls="object", outputs="object")
_GEOMETRY = _schema(("domain", "mesh"), domain="tuple[float, float]", mesh="object",
                    refine_bands="list", cracks="segments", weak_interfaces="list")
_MESH = _schema(("nx", "ny"), nx="int", ny="int")
_PHYSICS = _schema(solve_thermal="bool", solve_phasefield="bool")
_BCS = _schema(mechanics="list", flow="list", heat="list")
_SOURCES = _schema(injection="object")
_INITIAL = _schema(pressure="float")
_OUTPUTS = _schema(probes="list", snapshot_every="int")


def _at(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _fields(d, schema, path: str, errors: list[str]) -> dict:
    """Type-checked values of JSON object ``d`` by field name; every unknown
    key, wrong type and missing required key goes to ``errors``."""
    if not isinstance(d, dict):
        errors.append(f"{path}: expected an object, got {d!r}")
        return {}
    types, kinds, required = schema
    out = {}
    for k, v in d.items():
        if type(v) is types.get(k) and (type(v) is not float or math.isfinite(v)):
            out[k] = v
            continue
        kind = kinds.get(k)
        if kind is None:
            errors.append(f"{_at(path, k)}: unknown key")
            continue
        try:
            out[kind[0]] = kind[1](v)
        except (TypeError, ValueError, OverflowError):
            errors.append(f"{_at(path, k)}: expected {kind[2]}, got {v!r}")
    if not d.keys() >= required:
        errors.extend(f"{_at(path, k)}: missing required value" for k in required if k not in d)
    return out


def _read(cls, d, path: str, errors: list[str], schema=None):
    """The ``cls`` object of JSON object ``d``, or None after recording why not."""
    n = len(errors)
    kw = _fields(d, schema or _SCHEMAS[cls], path, errors)
    if len(errors) > n:
        return None
    try:
        return cls(**kw)
    except ValueError as exc:
        errors.append(f"{path}: {exc}")
        return None


def _read_all(cls, items: list, path: str, errors: list[str], schema=None) -> list:
    return [_read(cls, d, f"{path}[{i}]", errors, schema) for i, d in enumerate(items)]


def config_from_dict(raw: dict, name_hint: str = "scenario") -> ScenarioConfig:
    """Validate a raw dict and build the scenario; raises ConfigError with
    the full error list on any problem."""
    if not isinstance(raw, dict):
        raise ConfigError(["top level: expected a JSON object"])
    errors: list[str] = []
    top = _fields(raw, _SCENARIO, "", errors)
    geo = _fields(top.get("geometry", {}), _GEOMETRY, "geometry", errors)
    mesh = _fields(geo.get("mesh", {}), _MESH, "geometry.mesh", errors)
    phys = _fields(top.get("physics", {}), _PHYSICS, "physics", errors)
    bcs = _fields(top.get("bcs", {}), _BCS, "bcs", errors)
    src = _fields(top.get("sources", {}), _SOURCES, "sources", errors)
    init = _fields(top.get("initial", {}), _INITIAL, "initial", errors)
    out = _fields(top.get("outputs", {}), _OUTPUTS, "outputs", errors)

    domain = geo.get("domain", (1.0, 1.0))
    if domain[0] <= 0.0 or domain[1] <= 0.0:
        errors.append(f"geometry.domain: dimensions must be positive, got {domain}")
    for k in ("nx", "ny"):
        if mesh.get(k, 1) < 1:
            errors.append(f"geometry.mesh.{k}: must be >= 1, got {mesh[k]}")
    snapshot_every = out.get("snapshot_every", 0)
    if snapshot_every < 0:
        errors.append(f"outputs.snapshot_every: must be >= 0, got {snapshot_every}")
    # the name titles each VTK snapshot and names the run directory out/<name>
    name = top.get("name", name_hint)
    if name.splitlines() != [name] or name in (".", "..") or "/" in name or "\\" in name:
        errors.append(f"name: must be one line and one path component, got {name!r}")

    probes = _read_all(ProbeSpec, out.get("probes", []), "outputs.probes", errors)
    # series.csv has a time_s column, then one per probe, headed by its name
    columns = ["time_s"] + [spec and spec.name for spec in probes]
    errors.extend(f"outputs.probes[{i}].name: {name!r} is already a column of series.csv"
                  for i, name in enumerate(columns[1:]) if name and name in columns[:i + 1])

    injection = src.get("injection")
    cfg = dict(
        name=name, domain=domain, nx=mesh.get("nx"), ny=mesh.get("ny"),
        materials=_read(MaterialParams, top.get("materials", {}), "materials", errors),
        controls=_read(SolverControls, top.get("controls", {}), "controls", errors),
        refine_bands=_read_all(RefineBand, geo.get("refine_bands", []),
                               "geometry.refine_bands", errors),
        cracks=geo.get("cracks", []),
        weak_interfaces=_read_all(WeakInterface, geo.get("weak_interfaces", []),
                                  "geometry.weak_interfaces", errors),
        solve_thermal=phys.get("solve_thermal", True),
        solve_phasefield=phys.get("solve_phasefield", True),
        bcs_mech=_read_all(MechBC, bcs.get("mechanics", []), "bcs.mechanics", errors),
        bcs_flow=_read_all(ScalarBC, bcs.get("flow", []), "bcs.flow", errors,
                           _SCALAR_BCS["flow"]),
        bcs_heat=_read_all(ScalarBC, bcs.get("heat", []), "bcs.heat", errors,
                           _SCALAR_BCS["heat"]),
        injection=(None if injection is None
                   else _read(Injection, injection, "sources.injection", errors)),
        p_init=init.get("pressure", 0.0),
        probes=probes,
        snapshot_every=snapshot_every)
    if errors:
        raise ConfigError(errors)
    return ScenarioConfig(**cfg)


def parse_config(text: str, name_hint: str = "scenario", overrides=()) -> ScenarioConfig:
    """Parse a JSON scenario, apply ``overrides`` and validate it; raises
    ConfigError on any problem, ValueError on an override that cannot apply."""
    if not text.strip():
        raise ConfigError(["top level: empty configuration"])
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"line {exc.lineno}, column {exc.colno}: {exc.msg}"]) from exc
    raw = apply_overrides(raw, overrides) if overrides else raw
    return config_from_dict(raw, name_hint=name_hint)


def apply_overrides(raw, overrides: list[str]) -> dict:
    """Set ``key.path=value`` items (value as JSON, else a string) in ``raw``."""
    if not isinstance(raw, dict):
        raise ValueError("top level: expected a JSON object")
    for item in overrides:
        if "=" not in item:
            raise ValueError(f"override {item!r} is not of the form key.path=value")
        path, value_str = item.split("=", 1)
        try:
            value = json.loads(value_str)
        except json.JSONDecodeError:
            value = value_str
        keys = path.strip().split(".")
        node = raw
        for k in keys[:-1]:
            node = node.setdefault(k, {})
            if not isinstance(node, dict):
                raise ValueError(f"override path {path!r} crosses a non-object")
        node[keys[-1]] = value
    return raw


def _plain(value):
    """``value`` as JSON data: dataclasses without unset (None) fields, tuples as lists."""
    if is_dataclass(value):
        return {f.name: _plain(v) for f in fields(value)
                if (v := getattr(value, f.name)) is not None}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


def config_to_dict(cfg: ScenarioConfig) -> dict:
    """Serialize a scenario back to its JSON schema (parse round-trips)."""
    c = _plain(cfg)
    return {
        "name": c["name"],
        "geometry": {"domain": c["domain"], "mesh": {"nx": c["nx"], "ny": c["ny"]},
                     "refine_bands": c["refine_bands"], "cracks": c["cracks"],
                     "weak_interfaces": c["weak_interfaces"]},
        "materials": c["materials"],
        "physics": {"solve_thermal": c["solve_thermal"],
                    "solve_phasefield": c["solve_phasefield"]},
        "bcs": {
            "mechanics": c["bcs_mech"],
            "flow": [{"set": b["set"], "pressure": b["value"]} for b in c["bcs_flow"]],
            "heat": [{"set": b["set"], "temperature": b["value"]} for b in c["bcs_heat"]],
        },
        "sources": {"injection": c["injection"]} if "injection" in c else {},
        "initial": {"pressure": c["p_init"]},
        "controls": c["controls"],
        "outputs": {"probes": c["probes"], "snapshot_every": c["snapshot_every"]},
    }
