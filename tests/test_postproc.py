import sys
from types import SimpleNamespace

import numpy as np
import pytest

from thmfrac.config import ProbeSpec
from thmfrac.errors import PointNotFound
from thmfrac.fem import build_tables
from thmfrac.mesh import RefineBand, generate_rect_mesh
from thmfrac.physics import FieldState
from thmfrac.postproc import bilinear, fracture_length, locate, locate_path
from thmfrac.scenario import evaluate_probes, locate_probes


def make_state(mesh, p=None, T=None, v=None, u=None):
    n = mesh.n_nodes
    return FieldState(
        u=np.zeros(2 * n) if u is None else u,
        p=np.zeros(n) if p is None else p,
        T=np.full(n, 293.15) if T is None else T,
        v=np.ones(n) if v is None else v)


def probe(mesh, state, field, point):
    """One field probe through the located, batched path of a run."""
    probes = locate_probes([ProbeSpec(name="probe", field=field, point=point)], mesh)
    return evaluate_probes(probes, None, state)["probe"]


def width(tables, state, point):
    """One width probe through the located path of a run."""
    probes = locate_probes([ProbeSpec(name="w", kind="width", point=point)], tables.mesh)
    return evaluate_probes(probes, SimpleNamespace(tables=tables), state)["w"]


def length(mesh, v, path, v_threshold=0.1):
    return fracture_length(locate_path(mesh, path), v, v_threshold)


class TestProbe:
    def test_exact_at_nodes(self, rng):
        mesh = generate_rect_mesh(2.0, 1.0, 4, 2)
        p = rng.uniform(0, 1e6, mesh.n_nodes)
        state = make_state(mesh, p=p)
        for nid in (0, 7, mesh.n_nodes - 1):
            x, y = mesh.nodes[nid]
            assert probe(mesh, state, "p", (x, y)) == pytest.approx(p[nid], rel=1e-14)

    def test_center_of_linear_field_is_corner_average(self):
        mesh = generate_rect_mesh(1.0, 1.0, 1, 1)
        p = 3.0 * mesh.nodes[:, 0] + 5.0 * mesh.nodes[:, 1]
        state = make_state(mesh, p=p)
        assert probe(mesh, state, "p", (0.5, 0.5)) == pytest.approx(p.mean())

    def test_displacement_components(self):
        mesh = generate_rect_mesh(1.0, 1.0, 2, 2)
        u = np.zeros(2 * mesh.n_nodes)
        u[0::2] = mesh.nodes[:, 0]
        u[1::2] = -mesh.nodes[:, 1]
        state = make_state(mesh, u=u)
        assert probe(mesh, state, "ux", (0.3, 0.7)) == pytest.approx(0.3, rel=1e-12)
        assert probe(mesh, state, "uy", (0.3, 0.7)) == pytest.approx(-0.7, rel=1e-12)

    def test_outside_domain_raises(self):
        mesh = generate_rect_mesh(1.0, 1.0, 2, 2)
        with pytest.raises(PointNotFound):
            probe(mesh, make_state(mesh), "p", (1.5, 0.5))

    def test_unknown_field_rejected(self):
        mesh = generate_rect_mesh(1.0, 1.0, 1, 1)
        with pytest.raises(ValueError):
            probe(mesh, make_state(mesh), "sigma", (0.5, 0.5))

    def test_matches_independent_interpolation(self, rng):
        # bilinear oracle built directly from local coordinates
        mesh = generate_rect_mesh(3.0, 2.0, 6, 4)
        p = rng.uniform(0, 1.0, mesh.n_nodes)
        state = make_state(mesh, p=p)
        for _ in range(20):
            x, y = rng.uniform(0.1, 2.9), rng.uniform(0.1, 1.9)
            i = np.searchsorted(mesh.xs, x) - 1
            j = np.searchsorted(mesh.ys, y) - 1
            xi = 2 * (x - mesh.xs[i]) / (mesh.xs[i + 1] - mesh.xs[i]) - 1
            eta = 2 * (y - mesh.ys[j]) / (mesh.ys[j + 1] - mesh.ys[j]) - 1
            conn = mesh.elems[j * 6 + i]
            N = 0.25 * np.array([(1 - xi) * (1 - eta), (1 + xi) * (1 - eta),
                                 (1 + xi) * (1 + eta), (1 - xi) * (1 + eta)])
            assert probe(mesh, state, "p", (x, y)) == pytest.approx(N @ p[conn],
                                                                    rel=1e-12)

    def test_one_batched_call_equals_one_interpolation_per_probe(self, rng):
        mesh = generate_rect_mesh(3.0, 2.0, 6, 4)
        n = mesh.n_nodes
        state = make_state(mesh, p=rng.normal(size=n), T=rng.normal(size=n),
                           v=rng.uniform(size=n), u=rng.normal(size=2 * n))
        nodal = {"p": state.p, "T": state.T, "v": state.v,
                 "ux": state.u[0::2], "uy": state.u[1::2]}
        specs = [ProbeSpec(name=f"{f}{k}", field=f, point=tuple(rng.uniform(0.0, 2.0, 2)))
                 for k in range(3) for f in ("T", "ux", "p", "uy", "v")]
        got = evaluate_probes(locate_probes(specs, mesh), None, state)
        for spec in specs:
            conn, N = locate(mesh, spec.point)
            assert got[spec.name] == bilinear(N, nodal[spec.field][conn])[0]


class TestWidthAt:
    def test_zero_strain(self):
        mesh = generate_rect_mesh(1.0, 1.0, 2, 2)
        tb = build_tables(mesh)
        assert width(tb, make_state(mesh), (0.5, 0.5)) == 0.0

    def test_uniaxial_stretch(self):
        mesh = generate_rect_mesh(0.1, 0.1, 2, 2)  # h_e = 0.05
        tb = build_tables(mesh)
        u = np.zeros(2 * mesh.n_nodes)
        u[1::2] = 1e-3 * mesh.nodes[:, 1]  # eps_yy = 1e-3
        state = make_state(mesh, u=u)
        assert width(tb, state, (0.05, 0.05)) == pytest.approx(5e-5, rel=1e-12)

    def test_compression_clamped_to_zero(self):
        mesh = generate_rect_mesh(0.1, 0.1, 2, 2)
        tb = build_tables(mesh)
        u = np.zeros(2 * mesh.n_nodes)
        u[0::2] = -1e-3 * mesh.nodes[:, 0]
        u[1::2] = -1e-3 * mesh.nodes[:, 1]
        assert width(tb, make_state(mesh, u=u), (0.02, 0.07)) == 0.0

    def test_not_found_outside(self):
        mesh = generate_rect_mesh(1.0, 1.0, 2, 2)
        tb = build_tables(mesh)
        with pytest.raises(PointNotFound):
            width(tb, make_state(mesh), (2.0, 2.0))

    def test_batched_widths_equal_one_probe_each(self, rng):
        # points near different quadrature points of one element read
        # different strains
        mesh = generate_rect_mesh(1.0, 1.0, 3, 2)
        tb = build_tables(mesh)
        state = make_state(mesh, u=rng.normal(scale=1e-3, size=2 * mesh.n_nodes))
        points = [(0.05, 0.05), (0.3, 0.05), (0.3, 0.45), (0.5, 0.7), (0.9, 0.95)]
        specs = [ProbeSpec(name=f"w{k}", kind="width", point=pt) for k, pt in enumerate(points)]
        got = evaluate_probes(locate_probes(specs, mesh), SimpleNamespace(tables=tb), state)
        assert [got[spec.name] for spec in specs] == [width(tb, state, pt) for pt in points]
        assert len(set(got.values())) == len(points)


class TestFractureLength:
    def test_intact_field_has_zero_length(self):
        mesh = generate_rect_mesh(2.0, 1.0, 8, 4)
        assert length(mesh, np.ones(mesh.n_nodes), [(0.0, 0.5), (2.0, 0.5)]) == 0.0

    @pytest.mark.parametrize("v", [0.0, 0.1])
    def test_fully_broken_path(self, v):
        # v at the threshold counts as broken
        mesh = generate_rect_mesh(2.0, 1.0, 8, 4)
        assert length(mesh, np.full(mesh.n_nodes, v),
                      [(0.0, 0.5), (2.0, 0.5)]) == pytest.approx(2.0, rel=1e-15)

    @pytest.mark.parametrize("threshold", [0.45, 0.5])
    def test_linear_crossing_is_exact(self, threshold):
        # v = x on [0, 1]: the threshold is crossed at x = threshold, inside
        # a cell (0.45) or on a grid line (0.5)
        mesh = generate_rect_mesh(1.0, 1.0, 10, 2)
        v = mesh.nodes[:, 0].copy()
        assert length(mesh, v, [(0.0, 0.5), (1.0, 0.5)],
                      v_threshold=threshold) == pytest.approx(threshold, abs=1e-15)

    def test_multi_segment_polyline(self):
        # v rises from 0 to 1 between x = 0.3 and 0.4, so the path lies
        # below 0.5 over its whole length
        mesh = generate_rect_mesh(1.0, 1.0, 10, 10)
        v = np.where(mesh.nodes[:, 0] <= 0.399, 0.0, 1.0)
        assert length(mesh, v, [(0.0, 0.5), (0.2, 0.5), (0.2, 0.8)],
                      v_threshold=0.5) == pytest.approx(0.5, rel=1e-15)

    @pytest.mark.parametrize("field, threshold, path, expected", [
        # on the diagonal v = (s - 0.5)^2 <= 0.0529 where |s - 0.5| <= 0.23
        (lambda x, y: (x - 0.5) * (y - 0.5), 0.0529, [(0.0, 0.0), (1.0, 1.0)],
         0.46 * np.sqrt(2.0)),
        # on the anti-diagonal v = 0.3 - (s - 0.5)^2 <= 0.2471 where |s - 0.5| >= 0.23
        (lambda x, y: 0.3 + (x - 0.5) * (y - 0.5), 0.2471, [(0.0, 1.0), (1.0, 0.0)],
         0.54 * np.sqrt(2.0)),
        # the same on the diagonal, then v = 0.3 - (y - 0.5) / 2 <= 0.2471 on
        # x = 1 where y >= 0.6058
        (lambda x, y: 0.3 - (x - 0.5) * (y - 0.5), 0.2471, [(0.0, 0.0), (1.0, 1.0), (1.0, 0.0)],
         0.54 * np.sqrt(2.0) + 0.3942),
        # a unit-length path where v = 0.02 (1 + 3 s)(1 + 8 s) <= 0.1848 for s <= 0.4
        (lambda x, y: x * y, 0.1848, [(0.2, 0.1), (0.8, 0.9)], 0.4),
    ])
    def test_graded_oblique_path_matches_the_sublevel_length(self, field, threshold, path,
                                                              expected):
        # v is bilinear, so its nodal interpolant is v itself on every cell,
        # and quadratic in the arc length along a straight path; the cells
        # are graded along both axes, and no crossing lies on a grid line
        mesh = generate_rect_mesh(1.0, 1.0, 4, 4, [RefineBand("x", 0.3, 0.5, 0.05),
                                                   RefineBand("y", 0.6, 0.7, 0.02)])
        assert np.ptp(np.diff(mesh.xs)) > 0.01 and np.ptp(np.diff(mesh.ys)) > 0.01
        v = field(*mesh.nodes.T)
        assert length(mesh, v, path, v_threshold=threshold) == pytest.approx(expected,
                                                                            abs=1e-14)


class TestLocatedOnce:
    def test_evaluation_locates_no_point(self, rng, monkeypatch):
        mesh = generate_rect_mesh(1.0, 1.0, 5, 4)
        tb = build_tables(mesh)
        specs = [ProbeSpec(name="p", field="p", point=(0.3, 0.6)),
                 ProbeSpec(name="w", kind="width", point=(0.5, 0.5)),
                 ProbeSpec(name="L", kind="fracture_length", path=[(0.0, 0.1), (1.0, 0.7)])]
        probes = locate_probes(specs, mesh)
        n = mesh.n_nodes
        state = make_state(mesh, p=rng.normal(size=n), v=mesh.nodes[:, 0].copy(),
                           u=rng.normal(scale=1e-3, size=2 * n))
        sim = SimpleNamespace(tables=tb)
        expected = evaluate_probes(probes, sim, state)
        # v = x <= 0.1 on the first tenth of the path
        assert expected["L"] == pytest.approx(0.1 * np.hypot(1.0, 0.6), abs=1e-15)
        assert expected["w"] > 0.0

        def refuse(*args, **kwargs):
            raise AssertionError("a probe was located again")

        bindings = [m for name, m in sys.modules.items()
                    if name.startswith("thmfrac") and hasattr(m, "locate_points")]
        assert {m.__name__ for m in bindings} >= {"thmfrac.mesh", "thmfrac.postproc"}
        for module in bindings:
            monkeypatch.setattr(module, "locate_points", refuse)
        assert evaluate_probes(probes, sim, state) == expected
