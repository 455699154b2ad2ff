"""Derived measurements from field snapshots: probes, widths, crack length."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import constitutive as law
from .constitutive import MaterialParams
from .fem import ElementTables, shape_q4
from .mesh import Mesh, locate_points
from .physics import N_QP, FieldState, phase_state, scalar_qp, strain_qp, strain_state

FIELDS = ("p", "T", "v", "ux", "uy")


def locate(mesh: Mesh, pts) -> tuple[np.ndarray, np.ndarray]:
    """Cell nodes (k, 4) and bilinear weights (k, 4) of the points (k, 2)."""
    eid, xi, eta = locate_points(mesh, pts)
    return mesh.elems[eid], shape_q4(xi, eta)[0]


def bilinear(N: np.ndarray, cell_values: np.ndarray) -> np.ndarray:
    """Values at located points from the (k, 4) nodal values of their cells."""
    return np.einsum("ka,ka->k", N, cell_values)


def nodal_field(state: FieldState, field: str) -> np.ndarray:
    """Nodal values of one of {p, T, v, ux, uy}."""
    if field == "ux":
        return state.u[0::2]
    if field == "uy":
        return state.u[1::2]
    return getattr(state, field)


def nearest_qp(mesh: Mesh, point) -> tuple[int, int]:
    """The element that contains ``point`` and its quadrature point nearest it."""
    eid = int(locate_points(mesh, point)[0][0])
    qp_xy = N_QP @ mesh.nodes[mesh.elems[eid]]          # (4, 2)
    d2 = np.sum((qp_xy - np.asarray(point, dtype=float)) ** 2, axis=1)
    return eid, int(np.argmin(d2))


def width_at(tables: ElementTables, u: np.ndarray, eid: int, qp: int) -> float:
    """Smeared fracture width h_e <eps1>+ at quadrature point ``qp`` of
    element ``eid``."""
    e1, _ = law.principal_strains(strain_qp(tables, u, [eid])[0, qp])
    return float(law.fracture_width(e1, tables.mesh.h_e[eid]))


@dataclass(frozen=True)
class LocatedPath:
    """A polyline split at the grid lines into n pieces that each lie in
    one cell. ``conn`` and ``N`` locate the n + 1 piece ends, then the
    midpoints of the ``oblique`` pieces (along neither axis)."""

    ds: np.ndarray          # (n,) piece lengths
    oblique: np.ndarray     # (m,) piece ids
    conn: np.ndarray        # (n + 1 + m, 4)
    N: np.ndarray           # (n + 1 + m, 4)


def locate_path(mesh: Mesh, path) -> LocatedPath:
    """Split the polyline ``path`` (k, 2) at every grid line it crosses and
    locate its piece ends and oblique midpoints (PointNotFound outside)."""
    path = np.asarray(path, dtype=float).reshape(-1, 2)
    ends, oblique = [path[:1]], []
    for a, b in zip(path[:-1], path[1:]):
        d = b - a
        t = np.concatenate([[1.0]] + [(lines - c) / dc for lines, c, dc
                                      in zip((mesh.xs, mesh.ys), a, d) if dc != 0.0])
        t = np.unique(t[(t > 0.0) & (t <= 1.0)])
        ends.append(a + t[:, None] * d)
        oblique.append(np.full(t.size, bool(d.all())))
    ends = np.concatenate(ends)
    oblique = np.flatnonzero(np.concatenate(oblique))
    conn, N = locate(mesh, np.concatenate([ends, 0.5 * (ends[oblique] + ends[oblique + 1])]))
    return LocatedPath(ds=np.hypot(*np.diff(ends, axis=0).T), oblique=oblique, conn=conn, N=N)


def fracture_length(path: LocatedPath, v: np.ndarray, v_threshold: float = 0.1) -> float:
    """Length of the path where the interpolant of v is at or below
    ``v_threshold``, exact up to round-off.

    On a piece, g = v - v_threshold is g0 + b s + a s^2 at the fraction s of
    its length, through its values at the ends and the midpoint (a = 0 on
    an axis-aligned piece, where g is linear). The roots in (0, 1) split
    the piece into parts of one sign, which their midpoints tell.
    """
    g = bilinear(path.N, v[path.conn]) - v_threshold
    n, ob = path.ds.size, path.oblique
    g0, g1 = g[:n], g[1:n + 1]
    a = np.zeros(n)
    a[ob] = 2.0 * (g0[ob] + g1[ob]) - 4.0 * g[n + 1:]
    b = g1 - g0 - a
    with np.errstate(divide="ignore", invalid="ignore"):
        # the roots q / a and g0 / q lose no digits to cancellation, and
        # a = 0 leaves the one root -g0 / b
        q = -0.5 * (b + np.copysign(np.sqrt(b * b - 4.0 * a * g0), b))
        roots = np.clip(np.nan_to_num([q / a, g0 / q]), 0.0, 1.0)
    s = np.sort(np.vstack([np.zeros(n), roots, np.ones(n)]), axis=0)     # (4, n)
    m = 0.5 * (s[1:] + s[:-1])
    below = g0 + (b + a * m) * m <= 0.0
    return float(np.sum(np.diff(s, axis=0) * below * path.ds))


def element_cell_data(tables: ElementTables, params: MaterialParams,
                      state: FieldState) -> dict[str, np.ndarray]:
    """Element-averaged derived quantities for snapshot output."""
    st = strain_state(tables, params, state.u, phase_state(tables, params, state.v))
    phi = law.state_porosity(st, scalar_qp(tables, state.T) - params.T0, params)
    return {
        "width": st.width.mean(axis=1),
        "porosity": phi.mean(axis=1),
        "permeability_xx": st.perm.xx.mean(axis=1),
        "permeability_yy": st.perm.yy.mean(axis=1),
        "permeability_xy": st.perm.xy.mean(axis=1),
    }
