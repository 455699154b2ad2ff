"""Structured quadrilateral meshes, each described by its grid lines alone.

A mesh is the tensor grid of two strictly increasing coordinate arrays,
optionally graded around refinement bands (fine uniform core, geometric
coarsening outward). ``Mesh`` holds the lines and derives the rest, so the
node and element numbering is defined here and nowhere else. Element size
``h_e`` is sqrt(element area).

``locate_points`` is the one point locator (grid-line search); every probe
is located through it once per run (``scenario.locate_probes``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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


@dataclass(frozen=True, eq=False)
class Mesh:
    """The tensor grid of the grid lines ``xs`` and ``ys`` [m], which are
    the whole record: each must hold at least two finite, strictly
    increasing values (so every detJ > 0), else ValueError names the axis.
    Node (i, j) at (xs[i], ys[j]) has id j len(xs) + i (``node_ids[j, i]``);
    element (i, j) has id j (len(xs) - 1) + i and its nodes (``elems``)
    counter-clockwise from its lower-left corner. The lines are kept as
    read-only copies, and ``nodes``, ``elems``, the element sizes ``h``
    (hx, hy) and ``h_e``, and the side node ids ``boundary_nodes`` (in
    increasing coordinate) are derived from them on first use, read-only.
    """

    xs: np.ndarray
    ys: np.ndarray

    def __post_init__(self):
        for axis in ("x", "y"):
            lines = np.array(getattr(self, axis + "s"), dtype=float)
            if not (lines.ndim == 1 and lines.size >= 2 and np.isfinite(lines).all()
                    and (np.diff(lines) > 0.0).all()):
                raise ValueError(f"grid lines along {axis} must be a 1-D array of at least "
                                 f"two finite, strictly increasing values, got {lines!r}")
            object.__setattr__(self, axis + "s", _frozen(lines))

    @property
    def n_nodes(self) -> int:
        return self.xs.size * self.ys.size

    @property
    def n_elems(self) -> int:
        return (self.xs.size - 1) * (self.ys.size - 1)

    @property
    def width(self) -> float:
        return float(self.xs[-1] - self.xs[0])

    @property
    def height(self) -> float:
        return float(self.ys[-1] - self.ys[0])

    @cached_property
    def node_ids(self) -> np.ndarray:
        return _frozen(np.arange(self.n_nodes).reshape(self.ys.size, self.xs.size))

    @cached_property
    def nodes(self) -> np.ndarray:
        gx, gy = np.meshgrid(self.xs, self.ys)
        return _frozen(np.column_stack([gx.ravel(), gy.ravel()]))

    @cached_property
    def elems(self) -> np.ndarray:
        ids = self.node_ids
        return _frozen(np.stack([ids[:-1, :-1], ids[:-1, 1:], ids[1:, 1:], ids[1:, :-1]],
                                axis=-1).reshape(-1, 4))

    @cached_property
    def h(self) -> np.ndarray:
        dx, dy = np.diff(self.xs), np.diff(self.ys)
        return _frozen(np.column_stack([np.tile(dx, dy.size), np.repeat(dy, dx.size)]))

    @cached_property
    def h_e(self) -> np.ndarray:
        return _frozen(np.sqrt(self.h[:, 0] * self.h[:, 1]))

    @cached_property
    def boundary_nodes(self) -> dict[str, np.ndarray]:
        ids = self.node_ids
        return {"left": ids[:, 0], "right": ids[:, -1], "bottom": ids[0, :], "top": ids[-1, :]}


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


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
    refine_bands: list[RefineBand] | None = None,
) -> Mesh:
    """Build an ``nx`` x ``ny`` rectangle mesh on [0,width] x [0,height].

    Without ``refine_bands`` the grid is uniform. A banded axis gets a
    uniform core at the band resolution and geometric grading outside
    (``nx``/``ny`` are ignored on that axis).
    """
    if not (width > 0.0 and height > 0.0):
        raise ValueError(f"domain dimensions must be positive, got {width} x {height}")
    if nx < 1 or ny < 1:
        raise ValueError(f"nx, ny must be >= 1, got {nx}, {ny}")
    bands = refine_bands or []
    return Mesh(_axis_points(width, nx, [b for b in bands if b.axis == "x"]),
                _axis_points(height, ny, [b for b in bands if b.axis == "y"]))


def locate_points(mesh: Mesh, pts) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Element ids and local coords (xi, eta) of the cells containing pts (k, 2).

    Raises PointNotFound when a point lies outside the domain. Points on
    element boundaries resolve to one incident element with |xi|,|eta| <= 1.
    """
    pts = np.asarray(pts, dtype=float).reshape(-1, 2)
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


def nodes_on_segment(mesh: Mesh, p0, p1, tol: float) -> np.ndarray:
    """Node ids within ``tol`` of the segment p0-p1: those of its bounding
    box grown by ``tol`` (and ulps, for rounding) projected onto it."""
    p0 = np.asarray(p0, dtype=float)
    p1 = np.asarray(p1, dtype=float)
    d = p1 - p0
    L = float(np.hypot(*d))
    if L == 0.0:
        raise ValueError("degenerate segment")
    pad = tol + 8.0 * np.spacing(np.maximum(np.abs(p0), np.abs(p1)) + tol)
    lo, hi = np.minimum(p0, p1) - pad, np.maximum(p0, p1) + pad
    i = np.arange(np.searchsorted(mesh.xs, lo[0]), np.searchsorted(mesh.xs, hi[0], "right"))
    j = np.arange(np.searchsorted(mesh.ys, lo[1]), np.searchsorted(mesh.ys, hi[1], "right"))
    nodes = np.column_stack([np.tile(mesh.xs[i], j.size), np.repeat(mesh.ys[j], i.size)])
    t = ((nodes - p0) @ d) / (L * L)
    proj = p0 + np.clip(t, 0.0, 1.0)[:, None] * d
    dist = np.hypot(*(nodes - proj).T)
    return mesh.node_ids[np.ix_(j, i)].ravel()[dist <= tol]


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
    """Id of the node nearest to (x, y), a corner of the cell that
    ``locate_points`` finds (PointNotFound outside the domain); on a tie
    the lower id."""
    eid, _, _ = locate_points(mesh, (x, y))
    j, i = divmod(int(eid[0]), mesh.xs.size - 1)
    d2 = (mesh.xs[i:i + 2] - x) ** 2 + (mesh.ys[j:j + 2, None] - y) ** 2
    top, right = divmod(int(np.argmin(d2)), 2)
    return int(mesh.node_ids[j + top, i + right])
