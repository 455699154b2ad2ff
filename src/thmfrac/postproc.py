"""Derived measurements from field snapshots: probes, widths, crack length."""

from __future__ import annotations

import numpy as np

from . import constitutive as law
from .constitutive import MaterialParams
from .fem import ElementTables, shape_q4
from .mesh import Mesh, locate_points
from .physics import FieldState, scalar_qp, strain_state

_FIELDS = ("p", "T", "v", "ux", "uy")


def locate(mesh: Mesh, pts) -> tuple[np.ndarray, np.ndarray]:
    """Cell nodes (k, 4) and bilinear weights (k, 4) of the points (k, 2)."""
    eid, xi, eta = locate_points(mesh, pts)
    return mesh.elems[eid], shape_q4(xi, eta)[0]


def bilinear(N: np.ndarray, cell_values: np.ndarray) -> np.ndarray:
    """Values at located points from the (k, 4) nodal values of their cells."""
    return np.einsum("ka,ka->k", N, cell_values)


def interpolate(mesh: Mesh, nodal: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Bilinear interpolation of a nodal field at points (k, 2); exact at nodes."""
    conn, N = locate(mesh, pts)
    return bilinear(N, nodal[conn])


def nodal_field(state: FieldState, field: str) -> np.ndarray:
    """Nodal values of one of {p, T, v, ux, uy}."""
    if field not in _FIELDS:
        raise ValueError(f"unknown probe field {field!r}, expected one of {_FIELDS}")
    if field == "ux":
        return state.u[0::2]
    if field == "uy":
        return state.u[1::2]
    return getattr(state, field)


def width_at(tables: ElementTables, state: FieldState, point) -> float:
    """Smeared fracture width h_e <eps1>+ at the nearest quadrature point."""
    mesh = tables.mesh
    eid = int(locate_points(mesh, point)[0][0])
    eps = np.einsum("qsa,a->qs", tables.B[eid], state.u[tables.dofs_vec[eid]])
    qp_xy = tables.N @ mesh.nodes[mesh.elems[eid]]          # (4, 2)
    d2 = np.sum((qp_xy - np.asarray(point, dtype=float)) ** 2, axis=1)
    q = int(np.argmin(d2))
    e1, _ = law.principal_strains(eps[q])
    return float(law.fracture_width(e1, mesh.h_e[eid]))


def fracture_length(mesh: Mesh, v: np.ndarray, path: np.ndarray,
                    v_threshold: float = 0.1) -> float:
    """Arc length of the path portions where interpolated v <= threshold.

    Crossings of the threshold are bisected to 1e-4 of the local element
    size. The path is a polyline (k, 2) inside the domain.
    """
    path = np.atleast_2d(np.asarray(path, dtype=float))
    if path.shape[0] < 2:
        raise ValueError("path needs at least two points")
    h_min = float(mesh.h_e.min())
    total = 0.0
    for a, b in zip(path[:-1], path[1:]):
        seg = b - a
        L = float(np.hypot(*seg))
        if L == 0.0:
            continue
        n = max(2, int(np.ceil(L / (0.25 * h_min))) + 1)
        s = np.linspace(0.0, 1.0, n)
        pts = a + s[:, None] * seg
        vals = interpolate(mesh, v, pts) - v_threshold

        def f(t):
            return float(interpolate(mesh, v, a + t * seg)[0]) - v_threshold

        tol_t = 1e-4 * h_min / L
        for k in range(n - 1):
            f0, f1 = vals[k], vals[k + 1]
            ds = (s[k + 1] - s[k]) * L
            if f0 <= 0.0 and f1 <= 0.0:
                total += ds
            elif f0 > 0.0 and f1 > 0.0:
                continue
            else:
                t0, t1 = s[k], s[k + 1]
                g0 = f0
                while (t1 - t0) > tol_t:
                    tm = 0.5 * (t0 + t1)
                    gm = f(tm)
                    if (g0 <= 0.0) == (gm <= 0.0):
                        t0, g0 = tm, gm
                    else:
                        t1 = tm
                tc = 0.5 * (t0 + t1)
                if f0 <= 0.0:
                    total += (tc - s[k]) * L
                else:
                    total += (s[k + 1] - tc) * L
    return total


def element_cell_data(tables: ElementTables, params: MaterialParams,
                      state: FieldState) -> dict[str, np.ndarray]:
    """Element-averaged derived quantities for snapshot output."""
    st = strain_state(tables, params, state.u, state.v)
    phi = law.branch_porosity(st, scalar_qp(tables, state.T) - params.T0, params)[1]
    return {
        "width": st.width.mean(axis=1),
        "porosity": phi.mean(axis=1),
        "permeability_xx": st.perm[..., 0, 0].mean(axis=1),
        "permeability_yy": st.perm[..., 1, 1].mean(axis=1),
        "permeability_xy": st.perm[..., 0, 1].mean(axis=1),
    }
