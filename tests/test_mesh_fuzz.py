"""Node searches on random graded grids against searches over every node.

``nodes_on_segment`` projects only the nodes of the segment's grown
bounding box, and ``nearest_node`` compares only the corners of the cell
that ``locate_points`` finds; both must return what projecting, or
measuring, every node returns. Segments and points are drawn anywhere near
the domain and also on grid lines and halfway between them, where rounding
decides.
"""

import numpy as np
import pytest

from thmfrac.errors import PointNotFound
from thmfrac.mesh import RefineBand, generate_rect_mesh, nearest_node, nodes_on_segment

import element_loop as ref

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

_SETTINGS = hypothesis.settings(max_examples=300, deadline=None, database=None,
                                derandomize=True)


@st.composite
def graded_grids(draw):
    width, height = draw(st.floats(0.1, 100.0)), draw(st.floats(0.1, 100.0))
    bands = []
    for axis, length in (("x", width), ("y", height)):
        if draw(st.booleans()):
            lo = draw(st.floats(0.0, 0.8)) * length
            hi = lo + draw(st.floats(0.05, 0.2)) * length
            h = (hi - lo) / draw(st.integers(1, 12))
            bands.append(RefineBand(axis=axis, lo=lo, hi=hi, h=h,
                                    ratio=draw(st.floats(1.05, 1.6))))
    return generate_rect_mesh(width, height, draw(st.integers(1, 12)),
                              draw(st.integers(1, 12)), bands)


def _coordinate(draw, lines):
    """A coordinate near the lines: anywhere around them, on one, or halfway
    between two neighbours."""
    k = draw(st.integers(0, lines.size - 2))
    return draw(st.one_of(
        st.floats(lines[0] - 0.2 * (lines[-1] - lines[0]),
                  lines[-1] + 0.2 * (lines[-1] - lines[0])),
        st.just(float(lines[k])),
        st.just(float(0.5 * (lines[k] + lines[k + 1])))))


@st.composite
def points(draw, mesh):
    return _coordinate(draw, mesh.xs), _coordinate(draw, mesh.ys)


@_SETTINGS
@hypothesis.given(data=st.data())
def test_nodes_on_segment_matches_projecting_every_node(data):
    mesh = data.draw(graded_grids())
    p0, p1 = data.draw(points(mesh)), data.draw(points(mesh))
    # a segment whose squared length underflows projects every node to NaN
    hypothesis.assume(np.hypot(p1[0] - p0[0], p1[1] - p0[1]) > 1e-9 * mesh.width)
    h = float(mesh.h_e.min())
    tol = data.draw(st.sampled_from([0.0, 1e-3 * h, 0.5 * h, 2.0 * float(mesh.h_e.max())]))
    found = nodes_on_segment(mesh, p0, p1, tol)
    assert found.tolist() == ref.nodes_on_segment(mesh, p0, p1, tol).tolist()


@_SETTINGS
@hypothesis.given(data=st.data())
def test_nearest_node_matches_measuring_every_node(data):
    mesh = data.draw(graded_grids())
    x, y = data.draw(points(mesh))
    tol = 1e-12 * max(mesh.width, mesh.height, 1.0)
    inside = (mesh.xs[0] - tol <= x <= mesh.xs[-1] + tol
              and mesh.ys[0] - tol <= y <= mesh.ys[-1] + tol)
    if inside:
        assert nearest_node(mesh, x, y) == ref.nearest_node(mesh, x, y)
    else:
        with pytest.raises(PointNotFound):
            nearest_node(mesh, x, y)
