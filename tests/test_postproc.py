import numpy as np
import pytest

from thmfrac.config import ProbeSpec
from thmfrac.errors import PointNotFound
from thmfrac.fem import build_tables
from thmfrac.mesh import generate_rect_mesh
from thmfrac.physics import FieldState
from thmfrac.postproc import fracture_length, interpolate, width_at
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
            one = interpolate(mesh, nodal[spec.field], np.asarray(spec.point))[0]
            assert got[spec.name] == one


class TestWidthAt:
    def test_zero_strain(self):
        mesh = generate_rect_mesh(1.0, 1.0, 2, 2)
        tb = build_tables(mesh)
        assert width_at(tb, make_state(mesh), (0.5, 0.5)) == 0.0

    def test_uniaxial_stretch(self):
        mesh = generate_rect_mesh(0.1, 0.1, 2, 2)  # h_e = 0.05
        tb = build_tables(mesh)
        u = np.zeros(2 * mesh.n_nodes)
        u[1::2] = 1e-3 * mesh.nodes[:, 1]  # eps_yy = 1e-3
        state = make_state(mesh, u=u)
        assert width_at(tb, state, (0.05, 0.05)) == pytest.approx(5e-5, rel=1e-12)

    def test_compression_clamped_to_zero(self):
        mesh = generate_rect_mesh(0.1, 0.1, 2, 2)
        tb = build_tables(mesh)
        u = np.zeros(2 * mesh.n_nodes)
        u[0::2] = -1e-3 * mesh.nodes[:, 0]
        u[1::2] = -1e-3 * mesh.nodes[:, 1]
        assert width_at(tb, make_state(mesh, u=u), (0.02, 0.07)) == 0.0

    def test_not_found_outside(self):
        mesh = generate_rect_mesh(1.0, 1.0, 2, 2)
        tb = build_tables(mesh)
        with pytest.raises(PointNotFound):
            width_at(tb, make_state(mesh), (2.0, 2.0))


class TestFractureLength:
    def test_intact_field_has_zero_length(self):
        mesh = generate_rect_mesh(2.0, 1.0, 8, 4)
        length = fracture_length(mesh, np.ones(mesh.n_nodes),
                                 [(0.0, 0.5), (2.0, 0.5)])
        assert length == 0.0

    def test_fully_broken_path(self):
        mesh = generate_rect_mesh(2.0, 1.0, 8, 4)
        length = fracture_length(mesh, np.zeros(mesh.n_nodes),
                                 [(0.0, 0.5), (2.0, 0.5)])
        assert length == pytest.approx(2.0, rel=1e-12)

    def test_linear_crossing_is_bisected(self):
        # v = x on [0, 1]: threshold 0.5 crossed exactly at x = 0.5
        mesh = generate_rect_mesh(1.0, 1.0, 10, 2)
        v = mesh.nodes[:, 0].copy()
        length = fracture_length(mesh, v, [(0.0, 0.5), (1.0, 0.5)],
                                 v_threshold=0.5)
        assert length == pytest.approx(0.5, abs=2e-4 * 0.1)

    def test_multi_segment_polyline(self):
        mesh = generate_rect_mesh(1.0, 1.0, 10, 10)
        v = np.where(mesh.nodes[:, 0] <= 0.399, 0.0, 1.0)
        length = fracture_length(mesh, v, [(0.0, 0.5), (0.2, 0.5), (0.2, 0.8)],
                                 v_threshold=0.5)
        assert length == pytest.approx(0.5, rel=1e-3)
