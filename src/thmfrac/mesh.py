"""Structured quadrilateral meshes with boundary/region bookkeeping.

Meshes are tensor products of two monotone coordinate arrays, optionally
graded around refinement bands (fine uniform core, geometric coarsening
outward). Element size ``h_e`` is defined as sqrt(element area).

``locate_points`` is the one point locator (grid-line search); probes,
interpolation and widths all go through it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import PointNotFound

@dataclass(frozen=True)
class RefineBand:
    """Uniform-resolution band along one axis, graded outside.

    ``lo``/``hi`` bound the band on the given axis, ``h`` is the target
    spacing inside it and ``ratio`` the geometric growth factor outside.
    """

    axis: str  # "x" or "y"
    lo: float
    hi: float
    h: float
    ratio: float = 1.15

    def __post_init__(self):
        if self.axis not in ("x", "y"):
            raise ValueError(f"refine band axis must be 'x' or 'y', got {self.axis!r}")
        if not (self.lo >= 0.0 and self.h > 0.0 and self.hi > self.lo and self.ratio > 1.0):
            raise ValueError("refine band requires lo >= 0, h > 0, hi > lo and ratio > 1")


@dataclass
class Mesh:
    """Immutable structured quad mesh (treat as read-only after construction).

    nodes : (n_nodes, 2) coordinates [m]
    elems : (n_elems, 4) counter-clockwise connectivity
    h_e   : (n_elems,) characteristic size sqrt(area) [m]
    """

    nodes: np.ndarray
    elems: np.ndarray
    h_e: np.ndarray
    xs: np.ndarray  # grid lines along x
    ys: np.ndarray  # grid lines along y
    boundary_nodes: dict[str, np.ndarray] = field(default_factory=dict)
    boundary_edges: dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def n_elems(self) -> int:
        return self.elems.shape[0]

    @property
    def width(self) -> float:
        return float(self.xs[-1] - self.xs[0])

    @property
    def height(self) -> float:
        return float(self.ys[-1] - self.ys[0])


def _graded_sizes(span: float, h0: float, ratio: float) -> np.ndarray:
    """Geometric cell sizes filling ``span`` outward from a band edge."""
    if span <= 1e-12 * max(h0, 1.0):
        return np.empty(0)
    if span <= h0:
        return np.array([span])
    sizes = []
    s = h0
    total = 0.0
    while total < span:
        s *= ratio
        sizes.append(s)
        total += s
        if len(sizes) > 100_000:
            raise ValueError("refine band grading does not terminate")
    out = np.asarray(sizes)
    return out * (span / total)


def _axis_points(length: float, n_uniform: int, bands: list[RefineBand]) -> np.ndarray:
    if not bands:
        return np.linspace(0.0, length, n_uniform + 1)
    if len(bands) > 1:
        raise ValueError("at most one refine band per axis")
    band = bands[0]
    lo = max(0.0, band.lo)
    hi = min(length, band.hi)
    if not (0.0 <= lo < hi <= length):
        raise ValueError(f"refine band [{band.lo}, {band.hi}] outside axis [0, {length}]")
    n_core = max(1, round((hi - lo) / band.h))
    core = np.linspace(lo, hi, n_core + 1)
    left = _graded_sizes(lo, band.h, band.ratio)
    right = _graded_sizes(length - hi, band.h, band.ratio)
    pts = np.concatenate([
        lo - np.concatenate([[0.0], np.cumsum(left)])[::-1][:-1],
        core,
        hi + np.cumsum(right),
    ])
    pts[0] = 0.0
    pts[-1] = length
    return pts


def generate_rect_mesh(
    width: float,
    height: float,
    nx: int,
    ny: int,
    refine_band: RefineBand | list[RefineBand] | None = None,
) -> Mesh:
    """Build an ``nx`` x ``ny`` rectangle mesh on [0,width] x [0,height].

    Without ``refine_band`` the grid is uniform. With bands, the banded
    axis gets a uniform core at the band resolution and geometric grading
    outside (``nx``/``ny`` are ignored on that axis).
    """
    if not (width > 0.0 and height > 0.0):
        raise ValueError(f"domain dimensions must be positive, got {width} x {height}")
    if nx < 1 or ny < 1:
        raise ValueError(f"nx, ny must be >= 1, got {nx}, {ny}")

    if refine_band is None:
        bands = []
    elif isinstance(refine_band, RefineBand):
        bands = [refine_band]
    else:
        bands = list(refine_band)

    xs = _axis_points(width, nx, [b for b in bands if b.axis == "x"])
    ys = _axis_points(height, ny, [b for b in bands if b.axis == "y"])
    mx, my = len(xs) - 1, len(ys) - 1

    gx, gy = np.meshgrid(xs, ys)
    nodes = np.column_stack([gx.ravel(), gy.ravel()])

    i = np.arange(mx)
    j = np.arange(my)
    jj, ii = np.meshgrid(j, i, indexing="ij")
    n0 = (jj * (mx + 1) + ii).ravel()
    elems = np.column_stack([n0, n0 + 1, n0 + mx + 2, n0 + mx + 1]).astype(np.int64)

    dx = np.diff(xs)
    dy = np.diff(ys)
    areas = np.outer(dy, dx).ravel()
    h_e = np.sqrt(areas)

    node_ids = np.arange(nodes.shape[0]).reshape(my + 1, mx + 1)
    boundary_nodes = {
        "left": node_ids[:, 0].copy(),
        "right": node_ids[:, -1].copy(),
        "bottom": node_ids[0, :].copy(),
        "top": node_ids[-1, :].copy(),
    }
    boundary_edges = {
        "left": np.column_stack([node_ids[:-1, 0], node_ids[1:, 0]]),
        "right": np.column_stack([node_ids[:-1, -1], node_ids[1:, -1]]),
        "bottom": np.column_stack([node_ids[0, :-1], node_ids[0, 1:]]),
        "top": np.column_stack([node_ids[-1, :-1], node_ids[-1, 1:]]),
    }
    return Mesh(nodes=nodes, elems=elems, h_e=h_e, xs=xs, ys=ys,
                boundary_nodes=boundary_nodes, boundary_edges=boundary_edges)


def locate_points(mesh: Mesh, pts) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Element ids and local coords (xi, eta) of the cells containing pts (k, 2).

    Raises PointNotFound when a point lies outside the domain. Points on
    element boundaries resolve to one incident element with |xi|,|eta| <= 1.
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    x, y = pts[:, 0], pts[:, 1]
    xs, ys = mesh.xs, mesh.ys
    tol = 1e-12 * max(mesh.width, mesh.height, 1.0)
    outside = ((x < xs[0] - tol) | (x > xs[-1] + tol)
               | (y < ys[0] - tol) | (y > ys[-1] + tol))
    if np.any(outside):
        k = np.flatnonzero(outside)[0]
        raise PointNotFound(f"point ({x[k]}, {y[k]}) outside "
                            f"[{xs[0]}, {xs[-1]}] x [{ys[0]}, {ys[-1]}]")
    i = np.clip(np.searchsorted(xs, x, side="right") - 1, 0, len(xs) - 2)
    j = np.clip(np.searchsorted(ys, y, side="right") - 1, 0, len(ys) - 2)
    xi = np.clip(2.0 * (x - xs[i]) / (xs[i + 1] - xs[i]) - 1.0, -1.0, 1.0)
    eta = np.clip(2.0 * (y - ys[j]) / (ys[j + 1] - ys[j]) - 1.0, -1.0, 1.0)
    return j * (len(xs) - 1) + i, xi, eta


def nodes_on_segment(mesh: Mesh, p0, p1, tol: float | None = None) -> np.ndarray:
    """Node ids within ``tol`` of the segment p0-p1 (default tol: 1e-9 of its length)."""
    p0 = np.asarray(p0, dtype=float)
    p1 = np.asarray(p1, dtype=float)
    d = p1 - p0
    L = float(np.hypot(*d))
    if L == 0.0:
        raise ValueError("degenerate segment")
    if tol is None:
        tol = 1e-9 * max(L, 1.0)
    rel = mesh.nodes - p0
    t = (rel @ d) / (L * L)
    proj = p0 + np.clip(t, 0.0, 1.0)[:, None] * d
    dist = np.hypot(*(mesh.nodes - proj).T)
    return np.nonzero(dist <= tol)[0]


def elems_intersecting_segment(mesh: Mesh, p0, p1) -> np.ndarray:
    """Element ids whose rectangle is crossed or touched by the segment p0-p1.

    Liang-Barsky clipping against all cells at once: the cells are a tensor
    product, so each axis gives one parameter interval per column (row),
    and a cell is hit when its column and row intervals meet inside [0, 1].
    """
    p0 = np.asarray(p0, dtype=float)
    d = np.asarray(p1, dtype=float) - p0
    tol = 1e-12 * max(mesh.width, mesh.height)
    tx0, tx1 = _clip_axis(p0[0], d[0], mesh.xs[:-1] - tol, mesh.xs[1:] + tol)
    ty0, ty1 = _clip_axis(p0[1], d[1], mesh.ys[:-1] - tol, mesh.ys[1:] + tol)
    t0 = np.maximum(np.maximum.outer(ty0, tx0), 0.0)
    t1 = np.minimum(np.minimum.outer(ty1, tx1), 1.0)
    return np.flatnonzero(t0 <= t1)


def _clip_axis(c0: float, dc: float, lo: np.ndarray, hi: np.ndarray):
    """Parameter intervals (t0, t1) of c0 + t dc inside the slabs [lo, hi];
    empty (t0 > t1) where a segment parallel to the slabs runs outside."""
    q_lo, q_hi = c0 - lo, hi - c0
    if dc == 0.0:
        inside = (q_lo >= 0.0) & (q_hi >= 0.0)
        return np.where(inside, -np.inf, np.inf), np.where(inside, np.inf, -np.inf)
    r_lo, r_hi = q_lo / -dc, q_hi / dc
    return (r_lo, r_hi) if dc > 0.0 else (r_hi, r_lo)


def nearest_node(mesh: Mesh, x: float, y: float) -> int:
    d2 = (mesh.nodes[:, 0] - x) ** 2 + (mesh.nodes[:, 1] - y) ** 2
    return int(np.argmin(d2))
