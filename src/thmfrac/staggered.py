"""Staggered v -> (T - p - u) time stepping with irreversibility.

One time step runs an outer alternate-minimization loop: solve the
bound-constrained phase-field subproblem at the frozen (T, p, u) iterate,
then iterate the (heat, fixed-stress flow, mechanics) trio until their
relative increments drop below ``tol_tpu``; the outer loop stops when the
phase-field increment drops below ``tol_stag``. Irreversibility enters
through the upper bound: nodes whose previous-step value sits below
``v_ir`` may not heal past it.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .constitutive import MaterialParams
from .errors import NonConvergence
from .fem import (Dirichlet, ElementTables, Factorization, SparseSystem, apply_dirichlet,
                  solve_bound_constrained, solve_linear)
from .mesh import Mesh
from .physics import (FieldState, MechanicsOperator, build_flow_system, build_heat_system,
                      build_mechanics_system, build_phasefield_system,
                      mechanics_branch_flags, mechanics_rhs, strain_state,
                      volumetric_strain_qp)

log = logging.getLogger("thmfrac")

_EMPTY = (np.empty(0, dtype=np.int64), np.empty(0))
_ANDERSON_WINDOW = 4    # secant pairs of the inner pressure mixing


@dataclass
class SolverControls:
    """Iteration tolerances, caps and the time-step schedule."""

    tol_stag: float = 1e-4
    tol_tpu: float = 1e-5        # kept below tol_stag so the phase-field
    max_outer: int = 150         # increment is not dominated by inner noise
    max_inner: int = 300
    v_ir: float = 0.05
    dt_schedule: list[tuple[float, float]] = field(default_factory=lambda: [(1.0, 1.0)])

    def __post_init__(self):
        if self.tol_stag <= 0.0 or self.tol_tpu <= 0.0:
            raise ValueError("tolerances must be positive")
        if self.max_outer < 1 or self.max_inner < 1:
            raise ValueError("iteration caps must be >= 1")
        for duration, dt in self.dt_schedule:
            if dt <= 0.0 or duration < 0.0:
                raise ValueError("dt_schedule entries need dt > 0 and duration >= 0")

    def n_steps(self) -> int:
        return sum(int(round(duration / dt)) for duration, dt in self.dt_schedule)


@dataclass
class StepReport:
    """Convergence record of one time step."""

    outer_iters: int
    inner_iters: list[int]
    v_increments: list[float]
    tpu_increments: list[tuple[float, float, float]]


def _rel(new: np.ndarray, old: np.ndarray) -> float:
    dn = float(np.linalg.norm(new - old))
    nn = float(np.linalg.norm(new))
    if nn == 0.0:
        return 0.0 if dn == 0.0 else 1.0
    return dn / nn


class _AndersonMixer:
    """Anderson acceleration of the inner pressure fixed point.

    The fixed-stress relaxation contracts arbitrarily slowly when cells
    break (the alpha^2/K_eff stabilization then vastly overestimates the
    true crack compliance); a short-window least-squares extrapolation of
    the iterate history removes that stiff mode without changing the fixed
    point. Dirichlet values are preserved because the extrapolation only
    adds differences of admissible iterates.
    """

    def __init__(self):
        self.reset()

    def reset(self):
        self._F: list[np.ndarray] = []
        self._G: list[np.ndarray] = []

    def mix(self, x: np.ndarray, g: np.ndarray) -> np.ndarray:
        f = g - x
        if not np.any(f):
            # a zero residual column carries no secant information; kept,
            # it makes the next least-squares step cancel the update
            # (a column loaded from rest returns p = 0 first)
            self.reset()
            return g
        self._F.append(f)
        self._G.append(g)
        if len(self._F) > _ANDERSON_WINDOW + 1:
            self._F.pop(0)
            self._G.pop(0)
        m = len(self._F) - 1
        if m == 0:
            return g
        dF = np.column_stack([self._F[i + 1] - self._F[i] for i in range(m)])
        dG = np.column_stack([self._G[i + 1] - self._G[i] for i in range(m)])
        gamma, *_ = np.linalg.lstsq(dF, f, rcond=1e-12)
        mixed = g - dG @ gamma
        if not np.all(np.isfinite(mixed)):
            self.reset()
            return g
        return mixed


@dataclass
class Simulation:
    """A fully assembled problem: mesh, material, couplings, BCs, sources.

    The simulation owns the linear-algebra state of its sub-solves:

    * the Dirichlet constraints of T, p and u, resolved on the first solve
      into the fixed structure of each constrained operator (boundary
      conditions are static from then on);
    * the mechanics operator, rebuilt only when v or the frozen branch
      flags differ from its last build;
    * the SuperLU factor of the mechanics operator, which lives as long
      as the operator. Heat and flow factorize on every solve, since their
      operators follow the lagged iterates.
    """

    mesh: Mesh
    tables: ElementTables
    params: MaterialParams
    gc_elem: np.ndarray                 # per-element Gc (interface overrides applied)
    solve_thermal: bool = True
    solve_phasefield: bool = True
    bc_u: tuple[np.ndarray, np.ndarray] = _EMPTY
    bc_p: tuple[np.ndarray, np.ndarray] = _EMPTY
    bc_T: tuple[np.ndarray, np.ndarray] = _EMPTY
    f_ext: np.ndarray | None = None     # (2 n_nodes,) mechanical loads
    q_flow: np.ndarray | None = None    # (n_nodes,) nodal fluid sources [m^2/s]
    crack_nodes: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    p_init: float = 0.0

    def __post_init__(self):
        n = self.mesh.n_nodes
        if self.f_ext is None:
            self.f_ext = np.zeros(2 * n)
        if self.q_flow is None:
            self.q_flow = np.zeros(n)
        self.gc_elem = np.broadcast_to(np.asarray(self.gc_elem, dtype=float),
                                       (self.mesh.n_elems,)).copy()
        self._mech_factor = Factorization()
        self._mech: MechanicsOperator | None = None
        self._mech_matrix = None            # the operator with bc_u eliminated

    @cached_property
    def _dirichlet(self) -> dict[str, Dirichlet]:
        scalar, vector = self.tables.scalar_pattern, self.tables.vector_pattern
        return {"T": Dirichlet.on(scalar, *self.bc_T),
                "p": Dirichlet.on(scalar, *self.bc_p),
                "u": Dirichlet.on(vector, *self.bc_u)}

    def initial_state(self) -> FieldState:
        n = self.mesh.n_nodes
        state = FieldState(u=np.zeros(2 * n),
                           p=np.full(n, float(self.p_init)),
                           T=np.full(n, self.params.T0),
                           v=np.ones(n))
        state.v[self.crack_nodes] = 0.0
        return state

    # -- single sub-solves -------------------------------------------------

    def _solve_v(self, it: FieldState, lower, upper) -> np.ndarray:
        system = build_phasefield_system(self.tables, self.params, self.gc_elem,
                                         it.u, it.p, it.T)
        init = np.clip(it.v, lower, upper)
        return solve_bound_constrained(system, lower, upper, init)

    def _solve_T(self, st, it: FieldState, prev: FieldState, dt: float) -> np.ndarray:
        system = build_heat_system(self.tables, self.params, st, it.p, prev.T, dt)
        return solve_linear(apply_dirichlet(system, self._dirichlet["T"]))

    def _solve_p(self, st, it: FieldState, T_new, prev: FieldState, evol_prev,
                 dt: float) -> np.ndarray:
        system = build_flow_system(self.tables, self.params, st, it.p,
                                   T_new, evol_prev, prev.p, prev.T, dt,
                                   source=self.q_flow)
        return solve_linear(apply_dirichlet(system, self._dirichlet["p"]))

    def _solve_u(self, v, p_new, T_new, tr_sign) -> np.ndarray:
        bc = self._dirichlet["u"]
        op = self._mech
        if op is None or not op.matches(v, tr_sign):
            op = self._mech = build_mechanics_system(self.tables, self.params, v, tr_sign)
            self._mech_matrix = bc.matrix(op.matrix)
            self._mech_factor = Factorization()
        rhs = mechanics_rhs(self.tables, self.params, op, p_new, T_new, self.f_ext)
        system = SparseSystem(self._mech_matrix, bc.rhs(op.matrix, rhs))
        return solve_linear(system, self._mech_factor)

    # -- one time step -----------------------------------------------------

    def time_step(self, prev: FieldState, dt: float,
                  controls: SolverControls) -> tuple[FieldState, StepReport]:
        if dt <= 0.0:
            raise ValueError("dt must be positive")
        n = self.mesh.n_nodes
        lower = np.zeros(n)
        upper = np.where(prev.v < controls.v_ir, prev.v, 1.0)
        upper[self.crack_nodes] = 0.0

        it = prev.copy()
        v_cur = prev.v
        evol_prev = volumetric_strain_qp(self.tables, prev.u)
        v_incs: list[float] = []
        inner_counts: list[int] = []
        tpu_incs: list[tuple[float, float, float]] = []
        mixer = _AndersonMixer()

        for m in range(1, controls.max_outer + 1):
            if self.solve_phasefield:
                v_new = self._solve_v(it, lower, upper)
            else:
                v_new = v_cur

            mixer.reset()
            # heat and flow share the strain-derived state of the iterate;
            # the first pass's state also gives the stiffness branch flags,
            # frozen across the inner loop: refreshing them per (T, p, u)
            # pass lets broken cells flip between the open and closed branch
            # and the displacement iterate cycles
            st = strain_state(self.tables, self.params, it.u, v_new)
            h_mech = mechanics_branch_flags(self.tables, self.params, st, it.T)
            inner_done = 0
            for j in range(1, controls.max_inner + 1):
                T_new = self._solve_T(st, it, prev, dt) if self.solve_thermal else it.T
                p_raw = self._solve_p(st, it, T_new, prev, evol_prev, dt)
                p_new = mixer.mix(it.p, p_raw)
                u_new = self._solve_u(v_new, p_new, T_new, h_mech)
                inc = (_rel(T_new, it.T), _rel(p_new, it.p), _rel(u_new, it.u))
                it = FieldState(u=u_new, p=p_new, T=T_new, v=v_new)
                tpu_incs.append(inc)
                inner_done = j
                if max(inc) < controls.tol_tpu:
                    break
                st = strain_state(self.tables, self.params, it.u, v_new)
            else:
                raise NonConvergence(
                    f"inner (T-p-u) loop exceeded {controls.max_inner} iterations "
                    f"(last increments {tpu_incs[-1]})", history=tpu_incs)

            inner_counts.append(inner_done)
            dv = _rel(v_new, v_cur)
            v_incs.append(dv)
            v_cur = v_new
            if not self.solve_phasefield or dv < controls.tol_stag:
                report = StepReport(outer_iters=m, inner_iters=inner_counts,
                                    v_increments=v_incs, tpu_increments=tpu_incs)
                return it, report

        raise NonConvergence(
            f"outer staggered loop exceeded {controls.max_outer} iterations "
            f"(phase-field increments {v_incs})", history=v_incs)


@dataclass
class RunResult:
    """Trajectory of a transient run (times include t = 0)."""

    times: list[float]
    states: list[FieldState]
    reports: list[StepReport]


def run(sim: Simulation, controls: SolverControls, on_step=None) -> RunResult:
    """March through the dt schedule from the initial state.

    ``on_step(t, state, report)`` is invoked after every accepted step;
    step failures propagate with the failure time attached.
    """
    state = sim.initial_state()
    times = [0.0]
    states = [state]
    reports: list[StepReport] = []
    t = 0.0
    for duration, dt in controls.dt_schedule:
        for _ in range(int(round(duration / dt))):
            try:
                state, report = sim.time_step(state, dt, controls)
            except NonConvergence as exc:
                exc.diagnostics["time"] = t + dt
                log.error("step to t = %.6g s failed: %s", t + dt, exc)
                raise
            t += dt
            times.append(t)
            states.append(state)
            reports.append(report)
            log.debug("t = %.6g s: outer %d, inner %s", t, report.outer_iters,
                      report.inner_iters)
            if on_step is not None:
                on_step(t, state, report)
    return RunResult(times=times, states=states, reports=reports)
