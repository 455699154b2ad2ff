import dataclasses

import numpy as np
import pytest

from thmfrac.errors import PointNotFound
from thmfrac.fem import build_tables, gauss_2x2, shape_q4
from thmfrac.mesh import (Mesh, RefineBand, elems_intersecting_segment,
                          generate_rect_mesh, locate_points, nearest_node,
                          nodes_on_segment)
from thmfrac.scenario import _edge_load

import element_loop as ref
from element_loop import edge_load, isoparametric


def _graded(wide: bool) -> Mesh:
    """A grid graded on both axes, finer and longer along x when ``wide``,
    along y otherwise."""
    size, (hx, hy) = ((2.0, 1.0), (0.02, 0.1)) if wide else ((1.0, 2.0), (0.1, 0.02))
    return generate_rect_mesh(*size, 5, 5,
                              [RefineBand(axis="x", lo=0.4, hi=0.6, h=hx, ratio=1.3),
                               RefineBand(axis="y", lo=0.4, hi=0.6, h=hy, ratio=1.3)])


def test_unit_square_single_element():
    m = generate_rect_mesh(1.0, 1.0, 1, 1)
    assert m.n_elems == 1
    assert m.n_nodes == 4
    assert m.h_e[0] == pytest.approx(1.0)


def test_uniform_grid_counts_and_size():
    m = generate_rect_mesh(0.8, 0.4, 80, 40)
    assert m.n_elems == 3200
    assert m.n_nodes == 81 * 41
    assert np.allclose(m.h_e, 0.01)


def test_graded_band_hits_target_resolution():
    bands = [RefineBand(axis="y", lo=29.8, hi=30.2, h=0.05),
             RefineBand(axis="x", lo=0.0, hi=3.0, h=0.05)]
    m = generate_rect_mesh(45.0, 60.0, 45, 60, bands)
    centers = m.nodes[m.elems].mean(axis=1)
    in_band = ((centers[:, 0] > 0.0) & (centers[:, 0] < 3.0)
               & (centers[:, 1] > 29.8) & (centers[:, 1] < 30.2))
    assert in_band.any()
    assert np.allclose(m.h_e[in_band], 0.05, rtol=1e-9)
    # grading coarsens monotonically away from the band
    assert m.h_e.max() > 0.5


def test_invalid_dimensions_rejected():
    with pytest.raises(ValueError):
        generate_rect_mesh(-1.0, 1.0, 2, 2)
    with pytest.raises(ValueError):
        generate_rect_mesh(1.0, 1.0, 0, 2)


def test_element_area_sum_matches_domain():
    m = generate_rect_mesh(45.0, 60.0, 13, 7,
                           [RefineBand(axis="x", lo=5.0, hi=9.0, h=0.25)])
    assert (m.h_e ** 2).sum() == pytest.approx(45.0 * 60.0, rel=1e-12)


def test_positive_jacobians_everywhere():
    m = generate_rect_mesh(2.0, 3.0, 9, 4,
                           [RefineBand(axis="y", lo=1.0, hi=1.5, h=0.05)])
    iso = isoparametric(m)
    assert np.all(iso.detJw > 0.0)
    # on the tensor grid the general Jacobian is diag(hx/2, hy/2)
    tb = build_tables(m)
    pts, w = gauss_2x2()
    _, dN = shape_q4(pts[:, 0], pts[:, 1])
    scale = 2.0 / tb.h
    assert np.allclose(iso.dNdx, dN * scale[:, None, None, :], rtol=1e-13, atol=0.0)
    assert np.allclose(iso.detJw, tb.detJ[:, None] * w, rtol=1e-13, atol=0.0)


def test_locate_center_of_unit_square():
    m = generate_rect_mesh(1.0, 1.0, 1, 1)
    (eid,), (xi,), (eta,) = locate_points(m, (0.5, 0.5))
    assert eid == 0
    assert xi == pytest.approx(0.0, abs=1e-14)
    assert eta == pytest.approx(0.0, abs=1e-14)


def test_locate_node_coincident_point_is_a_corner():
    m = generate_rect_mesh(1.0, 1.0, 2, 2)
    (eid,), (xi,), (eta,) = locate_points(m, (0.5, 0.5))
    assert abs(xi) == pytest.approx(1.0)
    assert abs(eta) == pytest.approx(1.0)
    assert max(abs(xi), abs(eta)) <= 1.0 + 1e-12


def test_locate_outside_raises():
    m = generate_rect_mesh(1.0, 1.0, 1, 1)
    with pytest.raises(PointNotFound):
        locate_points(m, [(0.5, 0.5), (2.0, 2.0)])


def test_locate_roundtrip_through_isoparametric_map(rng):
    m = generate_rect_mesh(3.0, 2.0, 7, 5,
                           [RefineBand(axis="x", lo=1.0, hi=2.0, h=0.05)])
    pts = np.column_stack([rng.uniform(0, 3.0, 50), rng.uniform(0, 2.0, 50)])
    for (x, y), eid, xi, eta in zip(pts, *locate_points(m, pts)):
        N, _ = shape_q4(xi, eta)
        mapped = N @ m.nodes[m.elems[eid]]
        assert np.hypot(mapped[0] - x, mapped[1] - y) < 1e-10


def test_nodes_on_segment_picks_the_crack_line():
    m = generate_rect_mesh(1.0, 1.0, 10, 10)
    nodes = nodes_on_segment(m, (0.0, 0.5), (0.3, 0.5), tol=1e-9)
    assert len(nodes) == 4
    assert np.allclose(m.nodes[nodes, 1], 0.5)


def test_nodes_on_segment_finds_a_node_its_projection_rounds_onto():
    # p0 + (p1 - p0) rounds one ulp past p1, onto a grid line just outside
    # the segment's bounding box; projecting every node finds that node
    p0, p1 = (-0.24037843519017682, 0.5), (0.12159760627271081, 0.5)
    m = Mesh(np.array([0.0, 0.12159760627271082, 1.0]), np.array([0.0, 0.5, 1.0]))
    assert nodes_on_segment(m, p0, p1, tol=0.0).tolist() == [4]
    assert ref.nodes_on_segment(m, p0, p1, 0.0).tolist() == [4]


def test_elems_intersecting_segment_vertical_line():
    m = generate_rect_mesh(1.0, 1.0, 10, 10)
    ids = elems_intersecting_segment(m, (0.25, 0.2), (0.25, 0.4))
    centers = m.nodes[m.elems[ids]].mean(axis=1)
    assert len(ids) > 0
    assert np.all(np.abs(centers[:, 0] - 0.25) <= 0.05 + 1e-12)


# on the 3 x 3 unit-cell mesh, cell (column i, row j) has id 3 j + i
@pytest.mark.parametrize("p0, p1, expected", [
    ((0.5, 0.5), (2.5, 1.5), [0, 1, 4, 5]),            # diagonal, crossing edges
    ((0.0, 0.0), (3.0, 3.0), [0, 1, 3, 4, 5, 7, 8]),   # diagonal through corners
    ((0.5, 1.0), (2.5, 1.0), [0, 1, 2, 3, 4, 5]),      # on the grid line y = 1
    ((1.5, 2.5), (1.5, 2.5), [7]),                     # zero length, inside a cell
    ((1.0, 1.0), (1.0, 1.0), [0, 1, 3, 4]),            # zero length, on a node
])
def test_elems_intersecting_segment_on_a_3x3_mesh(p0, p1, expected):
    m = generate_rect_mesh(3.0, 3.0, 3, 3)
    assert elems_intersecting_segment(m, p0, p1).tolist() == expected


def _segment_hits_cell(p0, p1, x0, x1, y0, y1) -> bool:
    """Liang-Barsky clipping of one segment against one rectangle."""
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


def test_elems_intersecting_segment_matches_a_cell_by_cell_clip(rng):
    m = generate_rect_mesh(3.0, 2.0, 7, 5,
                           [RefineBand(axis="x", lo=1.0, hi=2.0, h=0.1)])
    tol = 1e-12 * max(m.width, m.height)
    mx = len(m.xs) - 1
    ends = np.column_stack([rng.uniform(0, 3.0, 60), rng.uniform(0, 2.0, 60)])
    grid = np.column_stack([rng.choice(m.xs, 60), rng.choice(m.ys, 60)])
    segments = list(zip(ends[:30], ends[30:])) + list(zip(grid[:30], grid[30:]))
    segments += [(grid[0], grid[0]), (ends[0], ends[0]),
                 (grid[1], (grid[1][0], grid[2][1])), (grid[3], (grid[4][0], grid[3][1]))]
    for p0, p1 in segments:
        p0, p1 = np.asarray(p0, dtype=float), np.asarray(p1, dtype=float)
        ref = [j * mx + i for j in range(len(m.ys) - 1) for i in range(mx)
               if _segment_hits_cell(p0, p1, m.xs[i] - tol, m.xs[i + 1] + tol,
                                     m.ys[j] - tol, m.ys[j + 1] + tol)]
        assert elems_intersecting_segment(m, p0, p1).tolist() == ref


def test_nearest_node():
    m = generate_rect_mesh(1.0, 1.0, 4, 4)
    n = nearest_node(m, 0.26, 0.49)
    assert np.allclose(m.nodes[n], [0.25, 0.5])


# ---------------------------------------------------------------------------
# the mesh is its grid lines
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("xs, ys, axis", [
    ([0.0, 1.0], [0.0, 1.0, 1.0, 2.0], "y"),
    ([0.0, np.nan, 2.0], [0.0, 1.0], "x"),
    ([0.0, 1.0], [0.0, np.inf], "y"),
    ([0.0], [0.0, 1.0], "x"),
    ([0.0, 1.0], [[0.0, 1.0], [2.0, 3.0]], "y"),
], ids=["repeated", "nan", "inf", "single", "2-D"])
def test_grid_lines_checked_by_the_mesh(xs, ys, axis):
    with pytest.raises(ValueError, match=f"grid lines along {axis} must be a 1-D array of "
                                         "at least two finite, strictly increasing values"):
        Mesh(xs, ys)


def test_mesh_is_a_frozen_copy_of_its_lines():
    xs, ys = np.linspace(0.0, 1.0, 4), np.linspace(0.0, 2.0, 3)
    m = Mesh(xs, ys)
    xs[1] = 0.9
    assert m.xs[1] == pytest.approx(1.0 / 3.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        m.xs = ys
    for a in (m.xs, m.ys, m.nodes, m.elems, m.h, m.h_e):
        assert not a.flags.writeable


@pytest.mark.parametrize("wide", [True, False], ids=["wide", "tall"])
def test_one_numbering_on_a_graded_grid(wide):
    m = _graded(wide)
    xs, ys = m.xs, m.ys
    nx, ny = len(xs), len(ys)
    assert (nx > ny) if wide else (nx < ny)
    # element (i, j) has id j (nx - 1) + i and its nodes counter-clockwise
    # from the lower-left corner, each on the element's grid lines
    j, i = np.divmod(np.arange(m.n_elems), nx - 1)
    corners = np.stack([np.column_stack([xs[i], ys[j]]), np.column_stack([xs[i + 1], ys[j]]),
                        np.column_stack([xs[i + 1], ys[j + 1]]),
                        np.column_stack([xs[i], ys[j + 1]])], axis=1)
    assert np.array_equal(m.nodes[m.elems], corners)
    assert np.array_equal(m.h, np.column_stack([xs[i + 1] - xs[i], ys[j + 1] - ys[j]]))
    centres = m.nodes[m.elems].mean(axis=1)
    assert np.array_equal(locate_points(m, centres)[0], np.arange(m.n_elems))
    # the locator and the segment search number the cells as ``elems`` does
    for e in (0, m.n_elems // 2, m.n_elems - 1):
        assert elems_intersecting_segment(m, centres[e], centres[e]).tolist() == [e]
    lo, hi = m.nodes[m.elems].min(axis=1), m.nodes[m.elems].max(axis=1)
    for y in (ys[0], 0.5 * (ys[1] + ys[2]), ys[-1]):
        hit = np.flatnonzero((lo[:, 1] <= y) & (y <= hi[:, 1]))
        assert elems_intersecting_segment(m, (xs[0], y), (xs[-1], y)).tolist() == hit.tolist()
    # each boundary side lists its nodes along the side in increasing order
    along = {"bottom": (0, 1, ys[0]), "top": (0, 1, ys[-1]),
             "left": (1, 0, xs[0]), "right": (1, 0, xs[-1])}
    for side, (run, fixed, value) in along.items():
        pts = m.nodes[m.boundary_nodes[side]]
        assert np.all(pts[:, fixed] == value), side
        assert np.array_equal(pts[:, run], xs if run == 0 else ys), side
    # the banded ordering runs across the short side
    tb = build_tables(m)
    pos = np.argsort(tb.node_order)[m.elems]
    band = min(nx, ny) + 1
    assert (pos.max(axis=1) - pos.min(axis=1)).max() == band
    assert tb.scalar_layout.width == band
    assert tb.vector_layout.width == 2 * band + 1


@pytest.mark.parametrize("side", ["bottom", "top", "left", "right"])
def test_edge_load_matches_the_edge_loop_bitwise(side, rng):
    m = _graded(wide=True)
    length = m.width if side in ("bottom", "top") else m.height
    for traction in [(rng.normal() * 1e6, 0.0), (0.0, rng.normal() * 1e-3),
                     (rng.normal(), rng.normal() * 1e9), (-0.0, 3.0)]:
        f = _edge_load(m, side, traction)
        assert f.tobytes() == edge_load(m, side, traction).tobytes(), traction
        assert f[0::2].sum() == pytest.approx(traction[0] * length)
