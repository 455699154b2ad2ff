"""Structured quadrilateral meshes with boundary/region bookkeeping.

Meshes are tensor products of two monotone coordinate arrays, optionally
graded around refinement bands (fine uniform core, geometric coarsening
outward). Element size ``h_e`` is defined as sqrt(element area).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import PointNotFound

_EDGE_NAMES = ("left", "right", "bottom", "top")


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
        if not (self.h > 0.0 and self.hi > self.lo and self.ratio > 1.0):
            raise ValueError("refine band requires h > 0, hi > lo and ratio > 1")


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


def _cell_index(breaks: np.ndarray, coord: float, tol: float) -> int:
    if coord < breaks[0] - tol or coord > breaks[-1] + tol:
        raise PointNotFound(f"coordinate {coord} outside [{breaks[0]}, {breaks[-1]}]")
    k = int(np.searchsorted(breaks, coord, side="right")) - 1
    return min(max(k, 0), len(breaks) - 2)


def locate_point(mesh: Mesh, x: float, y: float) -> tuple[int, tuple[float, float]]:
    """Return (element id, local coords (xi, eta)) containing (x, y).

    Raises PointNotFound when the point lies outside the domain. Points on
    element boundaries resolve to one incident element with |xi|,|eta| <= 1.
    """
    tol = 1e-12 * max(mesh.width, mesh.height, 1.0)
    i = _cell_index(mesh.xs, x, tol)
    j = _cell_index(mesh.ys, y, tol)
    eid = j * (len(mesh.xs) - 1) + i
    hx = mesh.xs[i + 1] - mesh.xs[i]
    hy = mesh.ys[j + 1] - mesh.ys[j]
    xi = 2.0 * (x - mesh.xs[i]) / hx - 1.0
    eta = 2.0 * (y - mesh.ys[j]) / hy - 1.0
    return eid, (float(np.clip(xi, -1.0, 1.0)), float(np.clip(eta, -1.0, 1.0)))


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
    """Element ids whose rectangle is crossed or touched by the segment p0-p1."""
    p0 = np.asarray(p0, dtype=float)
    p1 = np.asarray(p1, dtype=float)
    mx = len(mesh.xs) - 1
    my = len(mesh.ys) - 1
    hit = []
    tol = 1e-12 * max(mesh.width, mesh.height)
    for j in range(my):
        for i in range(mx):
            x0, x1 = mesh.xs[i], mesh.xs[i + 1]
            y0, y1 = mesh.ys[j], mesh.ys[j + 1]
            if _segment_hits_rect(p0, p1, x0 - tol, x1 + tol, y0 - tol, y1 + tol):
                hit.append(j * mx + i)
    return np.asarray(hit, dtype=np.int64)


def _segment_hits_rect(p0, p1, x0, x1, y0, y1) -> bool:
    # Liang-Barsky clipping.
    d = p1 - p0
    t0, t1 = 0.0, 1.0
    for p, q in ((-d[0], p0[0] - x0), (d[0], x1 - p0[0]),
                 (-d[1], p0[1] - y0), (d[1], y1 - p0[1])):
        if p == 0.0:
            if q < 0.0:
                return False
        else:
            r = q / p
            if p < 0.0:
                t0 = max(t0, r)
            else:
                t1 = min(t1, r)
            if t0 > t1:
                return False
    return True


def nearest_node(mesh: Mesh, x: float, y: float) -> int:
    d2 = (mesh.nodes[:, 0] - x) ** 2 + (mesh.nodes[:, 1] - y) ** 2
    return int(np.argmin(d2))
