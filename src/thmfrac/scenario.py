"""Turn a validated ScenarioConfig into a runnable Simulation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ProbeSpec, ScenarioConfig
from .fem import build_tables
from .mesh import (Mesh, elems_intersecting_segment, generate_rect_mesh, nearest_node,
                   nodes_on_segment)
from .physics import FieldState
from .postproc import (LocatedPath, bilinear, fracture_length, locate, locate_path,
                       nearest_qp, nodal_field, width_at)
from .staggered import Simulation


def _edge_load(mesh: Mesh, edge_set: str, traction) -> np.ndarray:
    """Consistent nodal forces of a constant traction on a boundary side:
    each edge puts half its load on either end node, and a node adds the
    share of the edge before it, then of the edge after it."""
    lines = mesh.xs if edge_set in ("bottom", "top") else mesh.ys
    share = np.diff(lines)[:, None] * (0.5 * np.asarray(traction, dtype=float))
    side = np.zeros((lines.size, 2))
    side[1:] += share
    side[:-1] += share
    f = np.zeros((mesh.n_nodes, 2))
    f[mesh.boundary_nodes[edge_set]] = side
    return f.ravel()


def _merge_dirichlet(entries: list[tuple[np.ndarray, float]]) -> tuple[np.ndarray, np.ndarray]:
    """Collapse (dofs, value) pairs into unique arrays sorted by dof; later
    entries win."""
    if not entries:
        return np.empty(0, dtype=np.int64), np.empty(0)
    dofs = np.concatenate([np.asarray(d, dtype=np.int64) for d, _ in entries])
    vals = np.concatenate([np.full(len(d), float(v)) for d, v in entries])
    # np.unique indexes the first occurrence, which in reverse is the last entry
    unique, last = np.unique(dofs[::-1], return_index=True)
    return unique, vals[::-1][last]


def build_simulation(cfg: ScenarioConfig) -> Simulation:
    mesh = generate_rect_mesh(cfg.domain[0], cfg.domain[1], cfg.nx, cfg.ny, cfg.refine_bands)
    tables = build_tables(mesh)
    mp = cfg.materials

    gc_elem = np.full(mesh.n_elems, mp.Gc)
    for w in cfg.weak_interfaces:
        ids = elems_intersecting_segment(mesh, *w.segment)
        if ids.size == 0:
            raise ValueError(f"weak interface {w.segment} crosses no element")
        gc_elem[ids] = mp.Gc * w.gc_ratio

    crack_tol = 1e-3 * float(mesh.h_e.min())
    crack_nodes: list[np.ndarray] = []
    for seg in cfg.cracks:
        found = nodes_on_segment(mesh, seg[0], seg[1], tol=crack_tol)
        if found.size == 0:
            raise ValueError(f"initial crack {seg} does not pass through mesh nodes")
        crack_nodes.append(found)
    cracks = (np.unique(np.concatenate(crack_nodes)) if crack_nodes
              else np.empty(0, dtype=np.int64))

    f_ext = np.zeros(2 * mesh.n_nodes)
    mech_entries: list[tuple[np.ndarray, float]] = []
    for bc in cfg.bcs_mech:
        if bc.traction is not None:
            f_ext += _edge_load(mesh, bc.set, bc.traction)
            continue
        nodes = mesh.boundary_nodes[bc.set]
        if bc.component in ("x", "both"):
            mech_entries.append((2 * nodes, bc.value))
        if bc.component in ("y", "both"):
            mech_entries.append((2 * nodes + 1, bc.value))
    bc_u = _merge_dirichlet(mech_entries)

    flow_entries = [(mesh.boundary_nodes[bc.set], bc.value) for bc in cfg.bcs_flow]
    bc_p = _merge_dirichlet(flow_entries)

    heat_entries = [(mesh.boundary_nodes[bc.set], bc.value) for bc in cfg.bcs_heat]
    q_flow = np.zeros(mesh.n_nodes)
    if cfg.injection is not None:
        node = nearest_node(mesh, *cfg.injection.point)
        q_flow[node] += cfg.injection.rate
        if cfg.injection.temperature is not None and cfg.solve_thermal:
            heat_entries.append((np.array([node]), cfg.injection.temperature))
    bc_T = _merge_dirichlet(heat_entries)

    return Simulation(
        tables=tables, params=mp, gc_elem=gc_elem,
        solve_thermal=cfg.solve_thermal, solve_phasefield=cfg.solve_phasefield,
        bc_u=bc_u, bc_p=bc_p, bc_T=bc_T,
        f_ext=f_ext, q_flow=q_flow, crack_nodes=cracks, p_init=cfg.p_init)


@dataclass(frozen=True)
class Probes:
    """The probes of a configuration, each located once: field probe
    ``names[k]`` reads nodal field ``fields[row[k]]`` through the cell nodes
    ``conn[k]`` and bilinear weights ``N[k]`` of its point. ``widths``
    holds each width probe's name, element and quadrature point nearest its
    point, and ``paths`` each fracture-length probe's name, located path and
    threshold."""

    names: tuple[str, ...]      # field probes, in configuration order
    fields: tuple[str, ...]     # the nodal fields they read
    row: np.ndarray             # (k,) index into ``fields``
    conn: np.ndarray            # (k, 4)
    N: np.ndarray               # (k, 4)
    widths: tuple[tuple[str, int, int], ...]
    paths: tuple[tuple[str, LocatedPath, float], ...]


def locate_probes(specs: list[ProbeSpec], mesh: Mesh) -> Probes:
    """Locate every probe among ``specs`` once: a point of a field or width
    probe, or a vertex of a fracture-length path, outside the mesh raises
    ``PointNotFound``."""
    field_specs = [spec for spec in specs if spec.kind == "field"]
    fields = tuple(dict.fromkeys(spec.field for spec in field_specs))
    conn, N = locate(mesh, [spec.point for spec in field_specs])
    return Probes(names=tuple(spec.name for spec in field_specs), fields=fields,
                  row=np.array([fields.index(spec.field) for spec in field_specs], dtype=int),
                  conn=conn, N=N,
                  widths=tuple((spec.name, *nearest_qp(mesh, spec.point))
                               for spec in specs if spec.kind == "width"),
                  paths=tuple((spec.name, locate_path(mesh, spec.path), spec.threshold)
                              for spec in specs if spec.kind == "fracture_length"))


def evaluate_probes(probes: Probes, sim: Simulation, state: FieldState) -> dict[str, float]:
    """Evaluate every probe on a field snapshot through its stored location."""
    out: dict[str, float] = {}
    if probes.names:
        nodal = np.stack([nodal_field(state, f) for f in probes.fields])
        values = bilinear(probes.N, nodal[probes.row[:, None], probes.conn])
        out.update(zip(probes.names, values.tolist()))
    for name, eid, qp in probes.widths:
        out[name] = width_at(sim.tables, state.u, eid, qp)
    for name, path, threshold in probes.paths:
        out[name] = fracture_length(path, state.v, threshold)
    return out
