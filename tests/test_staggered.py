import dataclasses

import numpy as np
import numpy._core.einsumfunc as einsumfunc
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from thmfrac import analytic, fem, physics, staggered
from thmfrac.constitutive import MaterialParams
from thmfrac.errors import NonConvergence
from thmfrac.fem import Dirichlet, SparseSystem, build_tables, solve_linear
from thmfrac.mesh import generate_rect_mesh, nodes_on_segment
from thmfrac.physics import (build_mechanics_system, mechanics_branch_flags, mechanics_rhs,
                             strain_state)
from thmfrac.presets import terzaghi, thermal_consolidation
from thmfrac.scenario import build_simulation
from thmfrac.staggered import SolverControls, Simulation, _AndersonMixer, run

from test_kgd import small_kgd


def make_cracked_strip(Gc=10.0, load=0.0, k_res=1e-6, solve_thermal=False):
    """1 m square, edge crack at mid-height, traction on the top edge."""
    mesh = generate_rect_mesh(1.0, 1.0, 10, 10)
    tables = build_tables(mesh)
    mp = MaterialParams(E=1e9, nu=0.2, alpha_m=0.6, phi_m=0.1, c_f=4.5e-10,
                        mu_f=1e-3, perm_m=1e-14, Gc=Gc, ell=0.2, n_at=2,
                        k_res=k_res, lambda_s=2.0, lambda_f=0.6, c_ps=800.0,
                        c_pf=4200.0, rho_s=2600.0, rho_f=1000.0,
                        alpha_s=0.0, alpha_f=0.0)
    crack = nodes_on_segment(mesh, (0.0, 0.5), (0.3, 0.5), tol=1e-9)
    f_ext = np.zeros(2 * mesh.n_nodes)
    top = mesh.boundary_nodes["top"]
    f_ext[2 * top + 1] = load * 0.1  # consistent enough for a uniform edge
    f_ext[2 * top[0] + 1] = load * 0.05
    f_ext[2 * top[-1] + 1] = load * 0.05
    bottom = mesh.boundary_nodes["bottom"]
    bc_u = (np.concatenate([2 * bottom, 2 * bottom + 1]),
            np.zeros(2 * bottom.size))
    bc_p = (mesh.boundary_nodes["right"], np.zeros(11))
    return Simulation(mesh=mesh, tables=tables, params=mp,
                      gc_elem=np.full(mesh.n_elems, Gc),
                      solve_thermal=solve_thermal, solve_phasefield=True,
                      bc_u=bc_u, bc_p=bc_p, crack_nodes=crack)


class TestFixedPoint:
    def test_unloaded_homogeneous_state_is_unchanged(self):
        sim = make_cracked_strip(load=0.0)
        sim.crack_nodes = np.empty(0, dtype=np.int64)  # no crack, no load
        state0 = sim.initial_state()
        controls = SolverControls(dt_schedule=[(1.0, 1.0)])
        state, report = sim.time_step(state0, 1.0, controls)
        assert report.outer_iters == 1
        assert np.allclose(state.v, 1.0)
        assert np.allclose(state.u, 0.0)
        assert np.allclose(state.p, state0.p, atol=1e-9)
        assert np.allclose(state.T, state0.T, atol=1e-9)


class TestIrreversibility:
    def test_monotone_below_threshold_across_random_steps(self, rng):
        sim = make_cracked_strip(Gc=5.0)
        controls = SolverControls(dt_schedule=[(10.0, 1.0)], v_ir=0.05,
                                  max_outer=200)
        state = sim.initial_state()
        top = sim.mesh.boundary_nodes["top"]
        for k in range(10):
            load = 2.5e4 * (k + rng.uniform(0.0, 0.5))
            sim.f_ext[:] = 0.0
            sim.f_ext[2 * top + 1] = load * 0.1
            sim.f_ext[2 * top[0] + 1] = load * 0.05
            sim.f_ext[2 * top[-1] + 1] = load * 0.05
            prev_v = state.v.copy()
            state, _ = sim.time_step(state, 1.0, controls)
            locked = prev_v < controls.v_ir
            assert np.all(state.v[locked] <= prev_v[locked] + 1e-12)
            assert np.all(state.v >= -1e-12)
            assert np.all(state.v <= 1.0 + 1e-12)
        # the run must actually have produced locked nodes for the check to bite
        assert np.count_nonzero(state.v < controls.v_ir) >= sim.crack_nodes.size

    def test_crack_nodes_stay_fully_broken(self):
        sim = make_cracked_strip(load=1e4)
        controls = SolverControls(dt_schedule=[(1.0, 1.0)])
        state = sim.initial_state()
        state, _ = sim.time_step(state, 1.0, controls)
        assert np.all(state.v[sim.crack_nodes] == 0.0)


class TestThermalDecoupling:
    def test_zero_expansion_matches_heat_solve_skipped(self):
        # alpha_s = alpha_f = 0 and no T BCs: p and u must match the run
        # with the heat solve skipped to roundoff
        sim_on = make_cracked_strip(load=5e4, solve_thermal=True)
        sim_off = make_cracked_strip(load=5e4, solve_thermal=False)
        controls = SolverControls(dt_schedule=[(3.0, 1.0)])
        res_on = run(sim_on, controls)
        res_off = run(sim_off, controls)
        for s_on, s_off in zip(res_on.states, res_off.states):
            assert np.allclose(s_on.p, s_off.p, rtol=1e-12, atol=1e-12)
            assert np.allclose(s_on.u, s_off.u, rtol=1e-12, atol=1e-15)
            assert np.allclose(s_on.v, s_off.v, rtol=1e-12, atol=1e-12)
            assert np.allclose(s_on.T, sim_on.params.T0, rtol=1e-12)


class TestHMOracle:
    def test_giant_toughness_reproduces_disabled_phasefield(self):
        # Terzaghi setup: phase field pinned intact by Gc -> infinity must
        # match the run with the phase-field solve skipped
        cfg = terzaghi()
        cfg.controls = dataclasses.replace(cfg.controls, dt_schedule=[(5.0, 1.0)])
        sim_off = build_simulation(cfg)

        cfg_pf = terzaghi()
        cfg_pf.controls = dataclasses.replace(cfg_pf.controls, dt_schedule=[(5.0, 1.0)])
        cfg_pf.solve_phasefield = True
        cfg_pf.materials = dataclasses.replace(cfg_pf.materials, Gc=1e14, ell=1.0)
        sim_pf = build_simulation(cfg_pf)

        res_off = run(sim_off, cfg.controls)
        res_pf = run(sim_pf, cfg_pf.controls)
        for s_off, s_pf in zip(res_off.states, res_pf.states):
            assert np.all(s_pf.v > 1.0 - 1e-9)
            assert np.allclose(s_pf.p, s_off.p, rtol=1e-6)
            assert np.allclose(s_pf.u, s_off.u, rtol=1e-6)


class TestConvergenceControl:
    def test_inner_cap_raises_with_history(self):
        cfg = terzaghi()
        cfg.controls = SolverControls(dt_schedule=[(1.0, 1.0)], max_inner=2,
                                      tol_tpu=1e-12)
        sim = build_simulation(cfg)
        with pytest.raises(NonConvergence) as exc:
            sim.time_step(sim.initial_state(), 1.0, cfg.controls)
        assert len(exc.value.history) >= 2

    def test_report_records_iterations(self):
        cfg = terzaghi()
        sim = build_simulation(cfg)
        state, report = sim.time_step(sim.initial_state(), 1.0, cfg.controls)
        assert report.outer_iters >= 1
        assert len(report.inner_iters) == report.outer_iters
        assert len(report.tpu_increments) == sum(report.inner_iters)

    def test_run_zero_steps_returns_initial_snapshot_only(self):
        sim = make_cracked_strip()
        controls = SolverControls(dt_schedule=[(0.0, 1.0)])
        result = run(sim, controls)
        assert result.times == [0.0]
        assert len(result.states) == 1
        assert result.reports == []

    def test_schedule_step_counts(self):
        controls = SolverControls(dt_schedule=[(0.1, 0.01), (3.9, 0.1)])
        assert controls.n_steps() == 49


class TestTerzaghiFromRest:
    def test_column_consolidates_against_series(self):
        # a column loaded from rest returns p = 0 on its first inner pass;
        # on this draw Anderson mixing used to cancel the next update and
        # the step converged to p = 0 everywhere (relative error 1.0)
        cfg = terzaghi()
        cfg.nx = 20
        cfg.controls = dataclasses.replace(cfg.controls, dt_schedule=[(10.0, 2.0)])
        sim = build_simulation(cfg)
        result = run(sim, cfg.controls)
        row = sim.mesh.boundary_nodes["bottom"]
        xs = sim.mesh.nodes[row, 0]
        load = cfg.bcs_mech[0].traction[0]
        coeffs = analytic.terzaghi_coeffs(cfg.materials, cfg.domain[0])
        p_ref = analytic.terzaghi_pressure(xs, result.times[-1], load, cfg.domain[0], coeffs)
        err = np.linalg.norm(result.states[-1].p[row] - p_ref) / np.linalg.norm(p_ref)
        assert err <= 0.02

    def test_mixer_passes_a_zero_residual_through(self):
        mixer = _AndersonMixer()
        x0 = np.zeros(3)
        assert np.array_equal(mixer.mix(x0, x0), x0)
        g1 = np.array([1.0, 2.0, 3.0])
        # the zero column was dropped: the next call is a plain first step
        assert np.array_equal(mixer.mix(x0, g1), g1)


def _fresh_mechanics_solve(sim, v, p, T, h):
    op = build_mechanics_system(sim.tables, sim.params, v, h)
    bc = Dirichlet.on(sim.tables.vector_pattern, *sim.bc_u)
    rhs = mechanics_rhs(sim.tables, sim.params, op, p, T, sim.f_ext)
    return solve_linear(SparseSystem(bc.matrix(op.matrix), bc.rhs(op.matrix, rhs)))


class TestMechanicsOperatorLifetime:
    def _inputs(self, rng):
        sim = make_cracked_strip(load=1e4)
        n = sim.mesh.n_nodes
        state = sim.initial_state()
        st = strain_state(sim.tables, sim.params, state.u, state.v)
        h = mechanics_branch_flags(sim.tables, sim.params, st, state.T)
        return sim, state, h, rng.uniform(0.0, 1e4, n)

    def test_unchanged_operator_takes_no_new_factorization(self, rng, monkeypatch):
        calls = []
        splu = spla.splu
        monkeypatch.setattr(spla, "splu",
                            lambda *args, **kwargs: calls.append(1) or splu(*args, **kwargs))
        sim, state, h, p = self._inputs(rng)
        u1 = sim._solve_u(state.v, state.p, state.T, h)
        u2 = sim._solve_u(state.v.copy(), p, state.T, h.copy())
        assert len(calls) == 1
        assert not np.array_equal(u1, u2)
        assert np.array_equal(u2, _fresh_mechanics_solve(sim, state.v, p, state.T, h))

    def test_solve_after_a_change_in_v_equals_a_fresh_solve(self, rng, monkeypatch):
        sim, state, h, p = self._inputs(rng)
        sim._solve_u(state.v, p, state.T, h)
        v = state.v.copy()
        v[rng.choice(v.size, 10, replace=False)] = 0.3
        calls = []
        splu = spla.splu
        monkeypatch.setattr(spla, "splu",
                            lambda *args, **kwargs: calls.append(1) or splu(*args, **kwargs))
        u = sim._solve_u(v, p, state.T, h)
        assert len(calls) == 1
        assert np.array_equal(u, _fresh_mechanics_solve(sim, v, p, state.T, h))


def _thermal_column():
    cfg = thermal_consolidation()
    cfg.nx = 20
    return cfg, build_simulation(cfg), 1e3


def _small_kgd():
    cfg = small_kgd()
    return cfg, build_simulation(cfg), 0.01


def _recording(build, log):
    def wrapped(tables, params, st, *args, **kwargs):
        log.append(st)
        return build(tables, params, st, *args, **kwargs)
    return wrapped


class TestSharedStrainState:
    def test_heat_and_flow_share_one_strain_evaluation_per_inner_pass(self, monkeypatch):
        cfg, sim, dt = _thermal_column()
        calls = []
        strain_qp = physics.strain_qp
        monkeypatch.setattr(physics, "strain_qp",
                            lambda *args: calls.append(1) or strain_qp(*args))
        heat, flow = [], []
        monkeypatch.setattr(staggered, "build_heat_system",
                            _recording(staggered.build_heat_system, heat))
        monkeypatch.setattr(staggered, "build_flow_system",
                            _recording(staggered.build_flow_system, flow))
        _, report = sim.time_step(sim.initial_state(), dt, cfg.controls)
        n_inner = sum(report.inner_iters)
        assert n_inner > 1 and len(heat) == len(flow) == n_inner
        assert all(h is f for h, f in zip(heat, flow))
        # one per inner pass (the first pass of each outer iteration shares
        # its evaluation with the branch flags) and one for the previous
        # step's volumetric strain
        assert len(calls) == n_inner + 1


class TestNoEinsumPlanning:
    @pytest.mark.parametrize("setup", [_thermal_column, _small_kgd],
                             ids=["thermal_column", "small_kgd"])
    def test_time_step_plans_no_einsum_path(self, setup, monkeypatch):
        def planned(*args, **kwargs):
            raise AssertionError("an einsum contraction path was planned")

        # np.einsum(..., optimize=...) reaches the planner through its own module
        monkeypatch.setattr(np, "einsum_path", planned)
        monkeypatch.setattr(einsumfunc, "einsum_path", planned)
        cfg, sim, dt = setup()
        _, report = sim.time_step(sim.initial_state(), dt, cfg.controls)
        assert sum(report.inner_iters) > 1


class TestSparseStructureDecidedOnce:
    @pytest.mark.parametrize("setup", [_thermal_column, _small_kgd],
                             ids=["thermal_column", "small_kgd"])
    def test_later_steps_only_move_values(self, setup, monkeypatch):
        cfg, sim, dt = setup()
        state, _ = sim.time_step(sim.initial_state(), dt, cfg.controls)

        def rebuilt(*args, **kwargs):
            raise AssertionError("a sparse structure was decided again after the first step")

        monkeypatch.setattr(fem, "csr_pattern", rebuilt)
        monkeypatch.setattr(fem.Dirichlet, "on", rebuilt)
        for cls in (sp.csr_matrix, sp.csc_matrix):
            monkeypatch.setattr(cls, "eliminate_zeros", rebuilt)
        _, report = sim.time_step(state, dt, cfg.controls)
        assert sum(report.inner_iters) > 1
