import numpy as np
import pytest

from thmfrac.errors import PointNotFound
from thmfrac.fem import build_tables, shape_q4
from thmfrac.mesh import (RefineBand, elems_intersecting_segment,
                          generate_rect_mesh, locate_point, nearest_node,
                          nodes_on_segment)


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
                           RefineBand(axis="x", lo=5.0, hi=9.0, h=0.25))
    assert (m.h_e ** 2).sum() == pytest.approx(45.0 * 60.0, rel=1e-12)


def test_positive_jacobians_everywhere():
    m = generate_rect_mesh(2.0, 3.0, 9, 4,
                           RefineBand(axis="y", lo=1.0, hi=1.5, h=0.05))
    tb = build_tables(m)  # raises on non-positive detJ
    assert np.all(tb.detJw > 0.0)


def test_locate_center_of_unit_square():
    m = generate_rect_mesh(1.0, 1.0, 1, 1)
    eid, (xi, eta) = locate_point(m, 0.5, 0.5)
    assert eid == 0
    assert xi == pytest.approx(0.0, abs=1e-14)
    assert eta == pytest.approx(0.0, abs=1e-14)


def test_locate_node_coincident_point_is_a_corner():
    m = generate_rect_mesh(1.0, 1.0, 2, 2)
    eid, (xi, eta) = locate_point(m, 0.5, 0.5)
    assert abs(xi) == pytest.approx(1.0)
    assert abs(eta) == pytest.approx(1.0)
    assert max(abs(xi), abs(eta)) <= 1.0 + 1e-12


def test_locate_outside_raises():
    m = generate_rect_mesh(1.0, 1.0, 1, 1)
    with pytest.raises(PointNotFound):
        locate_point(m, 2.0, 2.0)


def test_locate_roundtrip_through_isoparametric_map(rng):
    m = generate_rect_mesh(3.0, 2.0, 7, 5,
                           RefineBand(axis="x", lo=1.0, hi=2.0, h=0.05))
    pts = np.column_stack([rng.uniform(0, 3.0, 50), rng.uniform(0, 2.0, 50)])
    for x, y in pts:
        eid, (xi, eta) = locate_point(m, x, y)
        N, _ = shape_q4(xi, eta)
        mapped = N @ m.nodes[m.elems[eid]]
        assert np.hypot(mapped[0] - x, mapped[1] - y) < 1e-10


def test_nodes_on_segment_picks_the_crack_line():
    m = generate_rect_mesh(1.0, 1.0, 10, 10)
    nodes = nodes_on_segment(m, (0.0, 0.5), (0.3, 0.5), tol=1e-9)
    assert len(nodes) == 4
    assert np.allclose(m.nodes[nodes, 1], 0.5)


def test_elems_intersecting_segment_vertical_line():
    m = generate_rect_mesh(1.0, 1.0, 10, 10)
    ids = elems_intersecting_segment(m, (0.25, 0.2), (0.25, 0.4))
    centers = m.nodes[m.elems[ids]].mean(axis=1)
    assert len(ids) > 0
    assert np.all(np.abs(centers[:, 0] - 0.25) <= 0.05 + 1e-12)


def test_nearest_node():
    m = generate_rect_mesh(1.0, 1.0, 4, 4)
    n = nearest_node(m, 0.26, 0.49)
    assert np.allclose(m.nodes[n], [0.25, 0.5])
