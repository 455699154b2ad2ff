import dataclasses
import json

import numpy as np
import numpy._core.einsumfunc as einsumfunc
import pytest
import scipy.sparse as sp

from thmfrac import analytic, app, fem, physics, staggered
from thmfrac import constitutive as law
from thmfrac.constitutive import MaterialParams
from thmfrac.errors import NonConvergence, SolverFailure
from thmfrac.fem import FieldOperator, apply_dirichlet, build_tables, solve_linear
from thmfrac.mesh import generate_rect_mesh, nodes_on_segment
from thmfrac.physics import (build_mechanics_system, mechanics_branch_flags, mechanics_rhs,
                             phase_state, scalar_qp, strain_state)
from thmfrac.presets import terzaghi, thermal_consolidation
from thmfrac.scenario import build_simulation
from thmfrac.staggered import SolverControls, Simulation, _AndersonMixer, run

from test_heat_guard import column_config
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
    return Simulation(tables=tables, params=mp,
                      gc_elem=np.full(mesh.n_elems, Gc),
                      solve_thermal=solve_thermal, solve_phasefield=True,
                      bc_u=bc_u, bc_p=bc_p, crack_nodes=crack)


def set_top_load(sim, load):
    """Nodal forces of a uniform vertical traction ``load`` on the strip's top edge."""
    top = sim.mesh.boundary_nodes["top"]
    sim.f_ext[:] = 0.0
    sim.f_ext[2 * top + 1] = load * 0.1
    sim.f_ext[2 * top[0] + 1] = load * 0.05
    sim.f_ext[2 * top[-1] + 1] = load * 0.05


def strip_loads(rng):
    """The top-edge loads of the ten unit load steps of a cracked-strip run."""
    return [2.5e4 * (k + rng.uniform(0.0, 0.5)) for k in range(10)]


def strip_controls():
    return SolverControls(dt_schedule=[(10.0, 1.0)], v_ir=0.05, max_outer=200)


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
        controls = strip_controls()
        state = sim.initial_state()
        for load in strip_loads(rng):
            set_top_load(sim, load)
            prev_v = state.v.copy()
            state, _ = sim.time_step(state, 1.0, controls)
            locked = prev_v < controls.v_ir
            assert np.all(state.v[locked] <= prev_v[locked] + 1e-12)
            assert np.all(state.v >= -1e-12)
            assert np.all(state.v <= 1.0 + 1e-12)
        # the run must actually have produced locked nodes for the check to bite
        assert np.count_nonzero(state.v < controls.v_ir) >= sim.crack_nodes.size

    @pytest.mark.parametrize("seed", [1, 46, 87])
    def test_inner_loop_stalls_where_the_crack_grows(self, seed, monkeypatch):
        """The run above at these seeds: the fixed-stress split stops
        contracting without heat, in the third load step, where the crack
        grows. The step fails after 371, 343 and 371 inner passes over its
        outer iterations, more than the inner cap, and the history holds
        every one of them. 0.15-0.2 s each on a 2-core Xeon. A cure of the
        stall (for example a coupled block solve as the split's fallback)
        turns this into a test that the step converges."""
        sim = make_cracked_strip(Gc=5.0)
        controls = strip_controls()
        passes = []
        solve_p = sim._solve_p
        monkeypatch.setattr(sim, "_solve_p", lambda *args: passes.append(1) or solve_p(*args))
        state = sim.initial_state()
        loads = strip_loads(np.random.default_rng(seed))
        for load in loads[:2]:
            set_top_load(sim, load)
            state, _ = sim.time_step(state, 1.0, controls)
        set_top_load(sim, loads[2])
        passes.clear()
        with pytest.raises(NonConvergence,
                           match=r"^inner \(T-p-u\) loop exceeded 300 iterations") as exc:
            sim.time_step(state, 1.0, controls)
        history = exc.value.history
        assert len(history) == len(passes) > controls.max_inner
        assert all(len(inc) == 3 for inc in history)
        assert str(exc.value).endswith(f"(last increments {history[-1]})")

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


@pytest.mark.parametrize("dt", [float("nan"), float("inf"), 0.0, -1.0])
def test_time_step_rejects_a_dt_that_is_not_positive_and_finite(dt):
    sim = make_cracked_strip()
    with pytest.raises(ValueError, match="dt must be positive and finite"):
        sim.time_step(sim.initial_state(), dt, SolverControls(dt_schedule=[(1.0, 1.0)]))


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

    def test_outer_cap_raises_with_the_phase_field_history(self):
        # the first outer iteration smears the crack into the intact strip
        sim = make_cracked_strip(Gc=5.0)
        controls = SolverControls(dt_schedule=[(1.0, 1.0)], max_outer=1)
        with pytest.raises(NonConvergence) as exc:
            sim.time_step(sim.initial_state(), 1.0, controls)
        history = exc.value.history
        assert history == [pytest.approx(0.2241, abs=1e-4)] and type(history[0]) is float
        assert str(exc.value) == ("outer staggered loop exceeded 1 iterations "
                                  f"(last increments {history[0]})")

    def test_run_scenario_records_the_outer_history(self, tmp_path, monkeypatch):
        cfg = terzaghi()
        cfg.probes = []
        cfg.controls = SolverControls(dt_schedule=[(1.0, 1.0)], max_outer=1)
        monkeypatch.setattr(app, "build_simulation", lambda _: make_cracked_strip(Gc=5.0))
        with pytest.raises(NonConvergence) as exc:
            app.run_scenario(cfg, tmp_path)
        history = exc.value.history
        assert history == [pytest.approx(0.2241, abs=1e-4)]
        failure = json.loads((tmp_path / "manifest.json").read_text())["failure"]
        assert failure["message"] == str(exc.value) and failure["history"] == history
        marker = (tmp_path / "FAILED").read_text().splitlines()
        assert marker[1] == f"NonConvergence: {exc.value}"
        assert marker[2] == f"history: {json.dumps(history)}"

    def test_report_records_iterations(self):
        cfg = terzaghi()
        sim = build_simulation(cfg)
        state, report = sim.time_step(sim.initial_state(), 1.0, cfg.controls)
        assert report.outer_iters >= 1
        assert len(report.inner_iters) == report.outer_iters
        assert len(report.tpu_increments) == sum(report.inner_iters)

    def test_run_attaches_the_failure_time_to_any_solver_failure(self, monkeypatch):
        # a zero pivot, a residual gate or the bound-constrained KKT cap
        # raise a plain SolverFailure, not a NonConvergence
        sim = make_cracked_strip(load=1e4)
        failing = []
        solve = staggered.solve_linear

        def solve_or_fail(*args):
            if failing:
                raise SolverFailure("banded LU factorization met an exactly zero pivot")
            return solve(*args)

        monkeypatch.setattr(staggered, "solve_linear", solve_or_fail)
        with pytest.raises(SolverFailure) as exc:
            run(sim, SolverControls(dt_schedule=[(3.0, 1.0)]),
                on_step=lambda *args: failing.append(1))
        assert type(exc.value) is SolverFailure
        assert exc.value.diagnostics["time"] == 2.0

    @pytest.mark.parametrize("schedule", [[(0.0, 1.0)], [(0.3, 0.1)],
                                          [(0.1, 0.01), (3.9, 0.1)]],
                             ids=["empty", "3x0.1", "kgd"])
    def test_schedule_of_whole_steps_up_to_round_off_accepted(self, schedule):
        # run takes whole steps, so SolverControls rejects a segment of
        # partial steps (see test_config) but not one off by round-off
        assert SolverControls(dt_schedule=schedule).dt_schedule == schedule

    def test_run_zero_steps_returns_initial_snapshot_only(self):
        sim = make_cracked_strip()
        controls = SolverControls(dt_schedule=[(0.0, 1.0)])
        result = run(sim, controls)
        assert result.times == [0.0]
        assert len(result.states) == 1
        assert result.reports == []


class TestPasses:
    def test_a_contraction_stops_after_a_known_number_of_passes(self):
        # x -> x / 2 from 1 moves by 2^-j in pass j, first below 1e-3 at j = 10
        history, x = [], 1.0
        for j in staggered._passes("halving", 50, history):
            history.append(abs(x / 2 - x))
            x /= 2
            if history[-1] < 1e-3:
                break
        assert j == 10 and history == [2.0 ** -k for k in range(1, 11)]

    def test_a_map_that_does_not_contract_raises_with_its_history(self):
        history, x = [], 1.0
        with pytest.raises(NonConvergence) as exc:
            for _ in staggered._passes("doubling", 5, history):
                history.append(abs(2 * x - x))
                x *= 2
                if history[-1] < 1e-3:
                    break
        assert exc.value.history is history and history == [1.0, 2.0, 4.0, 8.0, 16.0]
        assert str(exc.value) == "doubling loop exceeded 5 iterations (last increments 16.0)"


def _secant_pairs(F, G):
    """The (dF, dG) columns of successive entries of an (f, g) history."""
    return [(F[i + 1] - F[i], G[i + 1] - G[i]) for i in range(len(F) - 1)]


def _column_stack_mix(pairs, x, g):
    """Anderson's mixed iterate on the (dF, dG) ``pairs``, stacked afresh."""
    if not pairs:
        return g
    dF = np.column_stack([df for df, _ in pairs])
    dG = np.column_stack([dg for _, dg in pairs])
    gamma, *_ = np.linalg.lstsq(dF, g - x, rcond=1e-12)
    return g - dG @ gamma


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
        mixer = _AndersonMixer(3)
        x0 = np.zeros(3)
        assert np.array_equal(mixer.mix(x0, x0), x0)
        g1 = np.array([1.0, 2.0, 3.0])
        # the zero column was dropped: the next call is a plain first step
        assert np.array_equal(mixer.mix(x0, g1), g1)


    def test_mixed_iterates_are_bitwise_the_column_stack_formulation(self, rng):
        # the secant differences of the carried pairs and of the last four
        # own pairs, stacked afresh on every call from the kept (f, g)
        # history, oldest column first; a restart carries the last eight
        # differences and starts a new own history, a reset drops both
        n, window, cap = 50, 4, 8
        mixer = _AndersonMixer(n)
        carried, F, G = [], [], []
        x = rng.normal(size=n)
        for k in range(30):
            if k == 24:
                mixer.reset()
                carried, F, G = [], [], []
            if k in (3, 5, 11, 17, 22, 24):
                # the carry reaches the cap at 17; at 24 right after the
                # reset, with nothing to carry
                mixer.restart()
                carried = (carried + _secant_pairs(F, G))[-cap:]
                F, G = [], []
                assert mixer.carried == len(carried) <= cap, k
                assert k != 17 or len(carried) == cap
            g = 0.7 * x + rng.normal(scale=0.1, size=n)
            got = mixer.mix(x, g)
            F.append(g - x)
            G.append(g)
            del F[:-window - 1], G[:-window - 1]
            ref = _column_stack_mix(carried + _secant_pairs(F, G), x, g)
            assert got.tobytes() == ref.tobytes(), k
            x = got


class TestCarriedSecantPairs:
    """A step that continues the run at the same dt and v starts its mixer
    from the last step's secant pairs; any other step starts from nothing."""

    @staticmethod
    def _mixes(rng, mixer, x, passes):
        """``passes`` mixes of a contracting map from ``x``: the last
        iterate and the (f, g) of each pass."""
        F, G = [], []
        for _ in range(passes):
            g = 0.7 * x + rng.normal(scale=0.1, size=x.size)
            F.append(g - x)
            G.append(g)
            x = mixer.mix(x, g)
        return x, F, G

    def test_restart_carries_the_last_eight_pairs_into_the_first_mix(self, rng):
        # a step keeps four own pairs, so the carry fills over two restarts
        mixer = _AndersonMixer(30)
        x, F, G = self._mixes(rng, mixer, rng.normal(size=30), 7)   # six pairs
        mixer.restart()
        assert mixer.carried == 4
        carried = _secant_pairs(F, G)[-4:]
        x, F, G = self._mixes(rng, mixer, x, 6)     # five own pairs
        mixer.restart()
        assert mixer.carried == 8
        carried += _secant_pairs(F, G)[-4:]
        # the first mix fits on the carried pairs alone: no pair joins the
        # last iterate of one step to the first of the next
        g = 0.7 * x + rng.normal(scale=0.1, size=30)
        got = mixer.mix(x, g)
        assert got.tobytes() == _column_stack_mix(carried, x, g).tobytes()
        # two own pairs and the six latest carried ones make the next carry
        _, F, G = self._mixes(rng, mixer, got, 2)
        own = _secant_pairs([g - x] + F, [g] + G)
        mixer.restart()
        assert mixer.carried == 8
        x, g = rng.normal(size=30), rng.normal(size=30)
        assert mixer.mix(x, g).tobytes() == _column_stack_mix(carried[2:] + own, x, g).tobytes()

    @pytest.mark.parametrize("drop", ["reset", "zero residual", "non-finite mix"])
    def test_reset_zero_residual_and_non_finite_mix_drop_the_carried_pairs(self, drop):
        mixer = _AndersonMixer(3)
        # one pair whose dF is tiny and whose dG is large
        mixer.mix(np.array([-1e-300, 0.0, 0.0]), np.zeros(3))
        mixer.mix(np.array([-2e-300, 1e10, 0.0]), np.array([0.0, 1e10, 0.0]))
        mixer.restart()
        assert mixer.carried == 1
        x, g = np.array([-1.0, 0.0, 0.0]), np.zeros(3)
        if drop == "reset":
            mixer.reset()
        elif drop == "zero residual":
            assert np.array_equal(mixer.mix(x, x), x)
        else:
            # gamma = 1e300 takes the mixed iterate past the float range
            with np.errstate(over="ignore"):
                assert np.array_equal(mixer.mix(x, g), g)
        assert mixer.carried == 0
        # the next call is a plain first step
        assert np.array_equal(mixer.mix(x, g), g)

    def test_a_run_of_the_heat_guard_column_carries_after_its_first_step(self):
        cfg = column_config()
        result = run(build_simulation(cfg), cfg.controls)
        carried = [r.carried_pairs for r in result.reports]
        assert carried[0] == 0 and all(c > 0 for c in carried[1:]), carried

    @pytest.mark.parametrize("case", ["earlier state", "copy of the last state", "other dt"])
    def test_a_step_that_does_not_continue_the_run_equals_a_fresh_simulations(self, case):
        cfg = column_config()
        sim = build_simulation(cfg)
        states = run(sim, cfg.controls).states
        dt = cfg.controls.dt_schedule[0][1]
        prev = {"earlier state": states[2], "copy of the last state": states[-1].copy(),
                "other dt": states[-1]}[case]
        if case == "other dt":
            dt *= 0.5
        got, report = sim.time_step(prev, dt, cfg.controls)
        ref, ref_report = build_simulation(cfg).time_step(prev, dt, cfg.controls)
        for name in ("u", "p", "T", "v"):
            assert getattr(got, name).tobytes() == getattr(ref, name).tobytes(), name
        assert report == ref_report and report.carried_pairs == 0

    def test_a_run_on_the_small_kgd_mesh_never_carries(self):
        # the phase field changes v in every outer iteration
        cfg = small_kgd()
        result = run(build_simulation(cfg), cfg.controls)
        assert [r.carried_pairs for r in result.reports] == [0, 0]

    def test_carried_and_fresh_mixers_reach_the_same_fixed_point(self):
        # the carried pairs change the path of the inner iteration, not
        # where it ends: at a tight inner tolerance a run that carries and
        # one that starts a fresh mixer in every step agree
        cfg = terzaghi()
        cfg.nx = 20
        controls = dataclasses.replace(cfg.controls, dt_schedule=[(10.0, 2.0)],
                                       tol_tpu=1e-12)
        carrying = run(build_simulation(cfg), controls)
        assert all(r.carried_pairs > 0 for r in carrying.reports[1:])
        sim = build_simulation(cfg)
        state = sim.initial_state()
        for _ in carrying.reports:
            # a copy is never the state the last step returned
            state, report = sim.time_step(state.copy(), 2.0, controls)
            assert report.carried_pairs == 0
        for name in ("u", "p", "T"):
            x, ref = getattr(carrying.states[-1], name), getattr(state, name)
            assert np.abs(x - ref).max() <= 1e-10 * np.abs(ref).max(), name


def _fresh_mechanics_solve(sim, v, p, T, h):
    tb = sim.tables
    mech = build_mechanics_system(tb, sim.params, phase_state(tb, sim.params, v), h)
    op = FieldOperator(tb.vector_layout, *sim.bc_u)
    apply_dirichlet(op, mech.data)
    rhs = mechanics_rhs(tb, sim.params, mech, p, scalar_qp(tb, T), sim.f_ext)
    return solve_linear(op, op.rhs(rhs))


def _recording(fn, log, key):
    """``fn`` that appends ``key(*args)`` to ``log`` on every call."""
    def recorded(*args, **kwargs):
        log.append(key(*args))
        return fn(*args, **kwargs)
    return recorded


def _record_loads(sim, monkeypatch) -> list[str]:
    """The fields of ``sim`` that ``apply_dirichlet`` loads from here on,
    one per call."""
    loads = []

    def field(op, data):
        return next(f for f, o in sim._ops.items() if o is op)

    monkeypatch.setattr(staggered, "apply_dirichlet",
                        _recording(staggered.apply_dirichlet, loads, field))
    return loads


class TestMechanicsOperatorLifetime:
    def _inputs(self, rng):
        sim = make_cracked_strip(load=1e4)
        n = sim.mesh.n_nodes
        state = sim.initial_state()
        st = strain_state(sim.tables, sim.params, state.u, self._phase(sim, state.v))
        h = mechanics_branch_flags(sim.tables, sim.params, st, scalar_qp(sim.tables, state.T))
        return sim, state, h, rng.uniform(0.0, 1e4, n)

    @staticmethod
    def _phase(sim, v):
        return phase_state(sim.tables, sim.params, v)

    def test_unchanged_operator_takes_no_new_factorization(self, rng, factorizations,
                                                           monkeypatch):
        sim, state, h, p = self._inputs(rng)
        loads = _record_loads(sim, monkeypatch)
        T_qp = scalar_qp(sim.tables, state.T)
        u1 = sim._solve_u(self._phase(sim, state.v), state.p, T_qp, h)
        op = sim._ops["u"]
        eliminated, lift, band = op.eliminated.data, op.lifted, op.band
        assert loads == ["u"] and len(factorizations) == 1
        # an unchanged operator is neither eliminated, lifted (A @ g) nor
        # factorized again: all three happen only on new operator data
        u2 = sim._solve_u(self._phase(sim, state.v.copy()), p, T_qp, h.copy())
        assert loads == ["u"] and len(factorizations) == 1
        assert op.eliminated.data is eliminated and op.lifted is lift and op.band is band
        assert not np.array_equal(u1, u2)
        assert np.array_equal(u2, _fresh_mechanics_solve(sim, state.v, p, state.T, h))

    def test_solve_after_a_change_in_v_equals_a_fresh_solve(self, rng, factorizations):
        sim, state, h, p = self._inputs(rng)
        T_qp = scalar_qp(sim.tables, state.T)
        sim._solve_u(self._phase(sim, state.v), p, T_qp, h)
        v = state.v.copy()
        v[rng.choice(v.size, 10, replace=False)] = 0.3
        factorizations.clear()
        u = sim._solve_u(self._phase(sim, v), p, T_qp, h)
        assert len(factorizations) == 1
        assert np.array_equal(u, _fresh_mechanics_solve(sim, v, p, state.T, h))


def _thermal_column():
    cfg = thermal_consolidation()
    cfg.nx = 20
    return cfg, build_simulation(cfg), 1e3


def _small_kgd():
    cfg = small_kgd()
    return cfg, build_simulation(cfg), 0.01


class TestOneConstrainedSolvePath:
    @pytest.mark.parametrize("setup", [_thermal_column, _small_kgd],
                             ids=["thermal_column", "small_kgd"])
    def test_each_operator_change_passes_apply_dirichlet_once(self, setup, monkeypatch):
        cfg, sim, dt = setup()
        builds = []
        for system in ("heat", "flow", "mechanics"):
            name = f"build_{system}_system"
            monkeypatch.setattr(staggered, name, _recording(getattr(staggered, name), builds,
                                                            lambda *args, s=system: s))
        loads = _record_loads(sim, monkeypatch)
        _, report = sim.time_step(sim.initial_state(), dt, cfg.controls)
        n_inner = sum(report.inner_iters)
        n_mech = builds.count("mechanics")
        assert n_inner > 1 and builds.count("flow") == n_inner
        assert builds.count("heat") == (n_inner if sim.solve_thermal else 0)
        # one per heat and flow solve and one per mechanics build, which
        # the inner passes of an outer iteration share
        assert len(loads) == len(builds)
        assert [loads.count(f) for f in "Tpu"] == [
            builds.count(s) for s in ("heat", "flow", "mechanics")]
        assert 1 <= n_mech <= report.outer_iters < n_inner

    @pytest.mark.parametrize("setup", [_thermal_column, _small_kgd],
                             ids=["thermal_column", "small_kgd"])
    def test_no_factor_outlives_new_data(self, setup, monkeypatch):
        cfg, sim, dt = setup()
        # the operator data each factor was last filled from, by operator
        sources = {}
        factorize = fem.FieldOperator.factorize

        def recorded(self):
            sources[id(self)] = self.eliminated.data.copy()
            return factorize(self)

        monkeypatch.setattr(fem.FieldOperator, "factorize", recorded)
        solves = []

        def checked(solve):
            def run(op, b):
                x = solve(op, b)
                solves.append(np.array_equal(sources[id(op)], op.eliminated.data))
                return x
            return run

        # staggered's binding solves T, p and u; fem's own the phase-field free blocks
        monkeypatch.setattr(staggered, "solve_linear", checked(staggered.solve_linear))
        monkeypatch.setattr(fem, "solve_linear", checked(fem.solve_linear))
        mech_emptied = []    # at each phase-field solve
        box = staggered.solve_bound_constrained

        def box_solve(*args):
            mech_emptied.append("u" not in sim._ops or sim._ops["u"].band is None)
            return box(*args)

        monkeypatch.setattr(staggered, "solve_bound_constrained", box_solve)
        state = sim.initial_state()
        for _ in range(2):
            state, report = sim.time_step(state, dt, cfg.controls)
        assert sum(report.inner_iters) > 1
        # every solve used a factor of the operator's current data
        assert len(solves) > len(sources) and all(solves)
        # each field keeps the factor of its current operator until new data
        assert set(sim._ops) == {"p", "u"} | {f for f, on in (("T", sim.solve_thermal),
                                                             ("v", sim.solve_phasefield)) if on}
        for op in sim._ops.values():
            assert op.band is not None
            assert np.array_equal(sources[id(op)], op.eliminated.data)
        # the phase-field solve runs with the stale mechanics factor emptied
        assert all(mech_emptied) and bool(mech_emptied) == sim.solve_phasefield


class TestThermalFixedStress:
    """Flow relaxes the thermal strain of the change in T from the previous
    inner pass; without heat solves T never changes and no term is formed."""

    @staticmethod
    def _flow_calls(monkeypatch):
        calls = []
        build = staggered.build_flow_system

        def recorded(*args, **kwargs):
            system = build(*args, **kwargs)
            calls.append((args, kwargs, system))
            return system

        monkeypatch.setattr(staggered, "build_flow_system", recorded)
        return calls

    def test_each_pass_relaxes_from_the_previous_pass_temperature(self, monkeypatch):
        cfg, sim, dt = _thermal_column()
        calls = self._flow_calls(monkeypatch)
        prev = sim.initial_state()
        _, report = sim.time_step(prev, dt, cfg.controls)
        assert len(calls) == sum(report.inner_iters) > 1
        T_qp = [args[4] for args, _, _ in calls]
        T_it_qp = [args[5] for args, _, _ in calls]
        assert np.array_equal(T_it_qp[0], scalar_qp(sim.tables, prev.T))
        assert all(T_it_qp[j] is T_qp[j - 1] for j in range(1, len(calls)))
        assert np.abs(T_qp[0] - T_it_qp[0]).max() > 1.0    # the heated face moves T

    def test_isothermal_step_forms_no_thermal_relaxation_term(self, monkeypatch):
        cfg, sim, dt = _small_kgd()
        assert not sim.solve_thermal
        calls = self._flow_calls(monkeypatch)
        _, report = sim.time_step(sim.initial_state(), dt, cfg.controls)
        assert len(calls) == sum(report.inner_iters) > 1
        for args, kwargs, system in calls:
            assert args[5] is None
            # bitwise the system formed without the term from the same state
            ref = physics.build_flow_system(*args[:5], None, *args[6:], **kwargs)
            assert system.data.tobytes() == ref.data.tobytes()
            assert system.rhs.tobytes() == ref.rhs.tobytes()

    def test_heat_factorizes_as_nonsymmetric_and_flow_and_mechanics_as_symmetric(
            self, monkeypatch):
        cfg, sim, dt = _thermal_column()
        factorized = []
        factorize = fem.FieldOperator.factorize

        def recorded(self):
            out = factorize(self)
            A = self.eliminated
            skew = abs(A - A.T).max() > 1e-12 * abs(A).max()
            factorized.append((self.symmetric, skew, out.ipiv is None))
            return out

        monkeypatch.setattr(fem.FieldOperator, "factorize", recorded)
        _, report = sim.time_step(sim.initial_state(), dt, cfg.controls)
        n_inner = sum(report.inner_iters)
        # heat's advection makes its operator nonsymmetric once the fluid moves
        assert any(skew for _, skew, _ in factorized)
        assert all(not symmetric for symmetric, skew, _ in factorized if skew)
        declared = [symmetric for symmetric, _, _ in factorized]
        assert declared.count(False) == n_inner
        # symmetric fields take Cholesky, heat takes LU
        assert all(cholesky == symmetric for symmetric, _, cholesky in factorized)


def _strain(tables, params, st, *args):
    return st


class TestSharedStrainState:
    def test_heat_and_flow_share_one_strain_evaluation_per_inner_pass(self, monkeypatch):
        cfg, sim, dt = _thermal_column()
        calls = []
        strain_qp = physics.strain_qp
        monkeypatch.setattr(physics, "strain_qp",
                            lambda *args: calls.append(1) or strain_qp(*args))
        heat, flow, rhs = [], [], []
        monkeypatch.setattr(staggered, "build_heat_system",
                            _recording(staggered.build_heat_system, heat, _strain))
        monkeypatch.setattr(staggered, "build_flow_system",
                            _recording(staggered.build_flow_system, flow,
                                       lambda tables, params, st, p_it, T_qp, *args: (st, T_qp)))
        monkeypatch.setattr(staggered, "mechanics_rhs",
                            _recording(staggered.mechanics_rhs, rhs,
                                       lambda tables, params, op, p, T_qp, f_ext: T_qp))
        _, report = sim.time_step(sim.initial_state(), dt, cfg.controls)
        n_inner = sum(report.inner_iters)
        assert report.outer_iters == 1
        assert n_inner > 1 and len(heat) == len(flow) == len(rhs) == n_inner
        assert all(h is f for h, (f, _) in zip(heat, flow))
        # flow and the mechanics rhs of a pass share one new T at the
        # quadrature points, and every pass's strain state reads the phase
        # record of its outer iteration
        assert all(T_qp is r for (_, T_qp), r in zip(flow, rhs))
        assert len({id(T_qp) for _, T_qp in flow}) == n_inner
        assert all(h.g is heat[0].g for h in heat)
        # one per inner pass (the first pass of each outer iteration shares
        # its evaluation with the branch flags) and one for the previous
        # step's volumetric strain
        assert len(calls) == n_inner + 1


_SETUPS = pytest.mark.parametrize("setup", [_thermal_column, _small_kgd],
                                  ids=["thermal_column", "small_kgd"])


class TestQuadratureStateLevels:
    """Each nodal field is interpolated to the quadrature points once at the
    loop level where it changes: the previous level per step, v per outer
    iteration, and the iterate's T and p per inner pass."""

    @pytest.fixture
    def interpolated(self, monkeypatch):
        """The nodal arrays passed to ``scalar_qp`` from here on, one per call."""
        args = []
        scalar_qp = physics.scalar_qp

        def recorded(tables, f):
            args.append(f)
            return scalar_qp(tables, f)

        monkeypatch.setattr(physics, "scalar_qp", recorded)
        monkeypatch.setattr(staggered, "scalar_qp", recorded)
        return args

    @_SETUPS
    def test_v_state_once_per_outer_iteration(self, setup, interpolated, monkeypatch):
        cfg, sim, dt = setup()
        vs, degradations = [], []
        monkeypatch.setattr(staggered, "phase_state",
                            _recording(staggered.phase_state, vs,
                                       lambda tables, params, v: v))
        degradation = law.degradation
        monkeypatch.setattr(law, "degradation",
                            lambda *args: degradations.append(1) or degradation(*args))
        _, report = sim.time_step(sim.initial_state(), dt, cfg.controls)
        assert sum(report.inner_iters) > report.outer_iters
        # g(v) and its range check too: no kernel evaluates it again
        assert len(vs) == len(degradations) == report.outer_iters
        assert sum(any(f is v for v in vs) for f in interpolated) == report.outer_iters

    @_SETUPS
    def test_previous_level_once_per_step(self, setup, interpolated):
        cfg, sim, dt = setup()
        state = sim.initial_state()
        for _ in range(2):
            interpolated.clear()
            new, report = sim.time_step(state, dt, cfg.controls)
            assert [sum(f is a for f in interpolated) for a in (state.p, state.T)] == [1, 1]
            # per pass p_it (flow), p_new (mechanics rhs) and, where heat is
            # solved, the new T (flow and the mechanics rhs); per outer
            # iteration v and the phase-field kernel's p (the branch flags
            # and the phase-field kernel read the loop's T at the
            # quadrature points)
            n_inner, n_outer = sum(report.inner_iters), report.outer_iters
            per_inner = 3 if sim.solve_thermal else 2
            per_outer = 2 if sim.solve_phasefield else 1
            assert len(interpolated) == per_inner * n_inner + per_outer * n_outer + 2
            state = new


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

        monkeypatch.setattr(fem, "field_layout", rebuilt)
        # no constraint is resolved and no operator state, factor included,
        # is built again
        monkeypatch.setattr(fem.FieldOperator, "__init__", rebuilt)
        for cls in (sp.csr_matrix, sp.csc_matrix):
            monkeypatch.setattr(cls, "eliminate_zeros", rebuilt)
        _, report = sim.time_step(state, dt, cfg.controls)
        assert sum(report.inner_iters) > 1


class TestNoSparseObjectPerSubSolve:
    @pytest.mark.parametrize("setup", [_thermal_column, _small_kgd],
                             ids=["thermal_column", "small_kgd"])
    def test_a_second_step_builds_no_sparse_matrix(self, setup, sparse_constructions,
                                                   monkeypatch):
        cfg, sim, dt = setup()
        state, _ = sim.time_step(sim.initial_state(), dt, cfg.controls)
        assert sparse_constructions            # the first step builds the storage
        sparse_constructions.clear()
        box_solves = []
        solve = staggered.solve_bound_constrained
        monkeypatch.setattr(staggered, "solve_bound_constrained",
                            lambda *args: box_solves.append(1) or solve(*args))
        _, report = sim.time_step(state, dt, cfg.controls)
        assert sum(report.inner_iters) > 1
        assert sparse_constructions == []
        # on the KGD mesh the step includes the phase-field active-set loop
        assert bool(box_solves) == sim.solve_phasefield


class TestBandLayouts:
    @pytest.mark.parametrize("setup", [_thermal_column, _small_kgd],
                             ids=["thermal_column", "small_kgd"])
    def test_a_time_step_resolves_one_layout_per_field(self, setup, monkeypatch):
        cfg, sim, dt = setup()
        resolved = []
        field_layout = fem.field_layout
        monkeypatch.setattr(fem, "field_layout",
                            lambda dofs, order: resolved.append(dofs.shape[1])
                            or field_layout(dofs, order))
        assert sim.tables.__dict__.keys().isdisjoint({"scalar_layout", "vector_layout"})
        _, report = sim.time_step(sim.initial_state(), dt, cfg.controls)
        assert sum(report.inner_iters) > 1
        # heat, flow and the phase field share the scalar layout (4 dofs
        # per element), mechanics has the vector one (8)
        assert sorted(resolved) == [4, 8]
        layouts = {field: op.layout for field, op in sim._ops.items()}
        assert layouts["u"] is sim.tables.vector_layout
        assert all(layouts[f] is sim.tables.scalar_layout for f in set(layouts) - {"u"})

    def test_scalar_band_of_the_thermal_column_stays_narrow(self):
        cfg, sim, _ = _thermal_column()
        assert (cfg.ny, sim.mesh.n_nodes) == (2, 3 * (cfg.nx + 1))
        # numbered across the column, three nodes wide: a band of 3 + 1
        assert sim.tables.scalar_layout.width == 4
