"""Staggered v -> (T - p - u) time stepping with irreversibility.

One time step runs an outer alternate-minimization loop: solve the
bound-constrained phase-field subproblem at the frozen (T, p, u) iterate,
then iterate the (heat, fixed-stress flow, mechanics) trio until their
relative increments drop below ``tol_tpu``; the outer loop stops when the
phase-field increment drops below ``tol_stag``. Irreversibility enters
through the upper bound: nodes whose previous-step value sits below
``v_ir`` may not heal past it. Both loops count their passes with
``_passes``: past its cap a loop raises ``NonConvergence`` with its
increment history, for the inner loop every pass of the step.

The inner pressure iterate is Anderson-mixed. Two consecutive steps with
the same dt and the same phase field share the linear part of their
fixed-point map, and the previous step's state only shifts it, a shift
that cancels in secant differences. So a step that continues a
simulation's last returned state at the same dt and v starts its mixer
from the secant pairs of the steps before instead of from nothing, the
reuse behind Krylov subspace recycling (Parks et al. 2006, SIAM J. Sci.
Comput. 28). Mixing changes the path of the iteration, not its fixed
point.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .constitutive import MaterialParams
from .errors import NonConvergence, SolverFailure
from .fem import (ElementTables, FieldOperator, apply_dirichlet, solve_bound_constrained,
                  solve_linear)
from .mesh import Mesh
from .physics import (FieldState, MechanicsOperator, StepState, build_flow_system,
                      build_heat_system, build_mechanics_system, build_phasefield_system,
                      mechanics_branch_flags, mechanics_rhs, phase_state, scalar_qp,
                      step_state, strain_state)

log = logging.getLogger("thmfrac")

_EMPTY = (np.empty(0, dtype=np.int64), np.empty(0))
_ANDERSON_WINDOW = 4    # secant pairs of the inner pressure mixing
_CARRY_CAP = 2 * _ANDERSON_WINDOW   # secant pairs a step may carry into the next


@dataclass
class SolverControls:
    """The time-step schedule of (duration, dt) segments, iteration
    tolerances and caps, and the irreversibility threshold ``v_ir``."""

    dt_schedule: list[tuple[float, float]]
    tol_stag: float = 1e-4
    tol_tpu: float = 1e-5        # kept below tol_stag so the phase-field
    max_outer: int = 150         # increment is not dominated by inner noise
    max_inner: int = 300
    v_ir: float = 0.05

    def __post_init__(self):
        for name in ("tol_stag", "tol_tpu", "v_ir"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        # each check is written so that it fails for NaN
        if not (self.tol_stag > 0.0 and self.tol_tpu > 0.0):
            raise ValueError("tolerances must be positive")
        if not (self.max_outer >= 1 and self.max_inner >= 1):
            raise ValueError("iteration caps must be >= 1")
        if not self.v_ir >= 0.0:
            raise ValueError(f"v_ir must be non-negative, got {self.v_ir}")
        for duration, dt in self.dt_schedule:
            if not (math.isfinite(duration) and math.isfinite(dt)):
                raise ValueError(f"dt_schedule segment ({duration}, {dt}): duration and dt "
                                 f"must be finite")
            if not (dt > 0.0 and duration >= 0.0):
                raise ValueError("dt_schedule entries need dt > 0 and duration >= 0")
            if abs(round(duration / dt) * dt - duration) > 1e-9 * duration:
                raise ValueError(f"dt_schedule segment ({duration}, {dt}): the duration "
                                 f"is not a whole number of steps")


@dataclass
class StepReport:
    """Convergence record of one time step."""

    outer_iters: int
    inner_iters: list[int]
    v_increments: list[float]
    tpu_increments: list[tuple[float, float, float]]
    carried_pairs: int      # secant pairs the step's mixer started with


def _rel(new: np.ndarray, old: np.ndarray) -> float:
    d = new - old
    dn = math.sqrt(d @ d)
    nn = math.sqrt(new @ new)
    if nn == 0.0:
        return 0.0 if dn == 0.0 else 1.0
    return dn / nn


def _passes(loop: str, cap: int, history: list):
    """The pass numbers 1, ..., ``cap`` of a fixed-point loop whose body
    appends each pass's increments to ``history`` and leaves the loop once
    they meet its stop test. A loop that runs past its last pass raises
    ``NonConvergence`` with the last increments and the whole history."""
    yield from range(1, cap + 1)
    raise NonConvergence(f"{loop} loop exceeded {cap} iterations "
                         f"(last increments {history[-1]})", history=history)


class _AndersonMixer:
    """Anderson acceleration of the inner pressure fixed point.

    The fixed-stress relaxation contracts arbitrarily slowly when cells
    break (the alpha^2/K_eff stabilization then vastly overestimates the
    true crack compliance); a short-window least-squares extrapolation of
    the iterate history removes that stiff mode without changing the fixed
    point. Dirichlet values are preserved because the extrapolation only
    adds differences of admissible iterates.

    A secant pair is the difference of two successive residuals g - x and
    of the two iterates g. The mixer fits on the step's own window of the
    last ``_ANDERSON_WINDOW`` pairs (FIFO) and, beside it, on the pairs
    that ``restart`` carried over from the previous steps, at most
    ``_CARRY_CAP`` = 2 ``_ANDERSON_WINDOW`` of them, so the first ``mix``
    after a restart fits on the carried pairs alone. Carried pairs stay
    for the whole step: evicting them as the step's own pairs arrive took
    more inner passes on Terzaghi columns than carrying nothing. The cap
    is the measured knee: a poro_batch pass on seeds 1/2/3 takes
    398/389/415 inner passes carrying 4 pairs, 355/344/349 carrying 8 and
    347/345/350 carrying 12. A mixer
    that carries none mixes bit for bit as one with the own window alone.
    A zero residual or a non-finite mixed iterate resets everything,
    carried pairs included.
    """

    def __init__(self, n: int):
        # secant differences, oldest in column 0: the carried pairs in the
        # first ``carried`` columns, then the step's own window
        self._dF = np.empty((n, _CARRY_CAP + _ANDERSON_WINDOW))
        self._dG = np.empty((n, _CARRY_CAP + _ANDERSON_WINDOW))
        self.reset()

    def reset(self):
        self.carried = 0    # columns of carried pairs
        self._m = 0         # columns of the own window in use
        self._last: tuple[np.ndarray, np.ndarray] | None = None    # previous (f, g)

    def restart(self):
        """Carry the last secant pairs, at most ``_CARRY_CAP`` of them, into
        a new step's iteration, and drop the previous iterate, so that no
        pair spans two steps."""
        total = self.carried + self._m
        keep = min(total, _CARRY_CAP)
        if keep < total:
            self._dF[:, :keep] = self._dF[:, total - keep:total]
            self._dG[:, :keep] = self._dG[:, total - keep:total]
        self.carried, self._m, self._last = keep, 0, None

    def mix(self, x: np.ndarray, g: np.ndarray) -> np.ndarray:
        f = g - x
        if not np.any(f):
            # a zero residual column carries no secant information; kept,
            # it makes the next least-squares step cancel the update
            # (a column loaded from rest returns p = 0 first)
            self.reset()
            return g
        last, self._last = self._last, (f, g)
        dF, dG, c, m = self._dF, self._dG, self.carried, self._m
        if last is not None:
            if m == _ANDERSON_WINDOW:
                dF[:, c:c + m - 1] = dF[:, c + 1:c + m]
                dG[:, c:c + m - 1] = dG[:, c + 1:c + m]
                m -= 1
            np.subtract(f, last[0], out=dF[:, c + m])
            np.subtract(g, last[1], out=dG[:, c + m])
            m = self._m = m + 1
        k = c + m
        if k == 0:
            return g
        gamma, *_ = np.linalg.lstsq(dF[:, :k], f, rcond=1e-12)
        mixed = g - dG[:, :k] @ gamma
        if not np.all(np.isfinite(mixed)):
            self.reset()
            return g
        return mixed


@dataclass
class Simulation:
    """A fully assembled problem: tables (with their mesh), material, couplings, BCs, sources.

    The simulation owns the linear-algebra state of its sub-solves, one
    ``FieldOperator`` per field (T, p, u and v), built on the field's first
    solve and refilled in place after that. Each reads one ``FieldLayout``
    of the tables, the scalar one for T, p and v and the vector one for u:
    its CSR structure, assembly map and band ordering across the grid's
    short side (see ``ElementTables.node_order``). It holds the field's
    Dirichlet constraints (static from the first solve on), its assembled
    and eliminated operator, their lift A @ g and the banded factor of the
    eliminated operator, which new data empty and the next solve fills.

    T, p and u take one constrained-solve path (``_solve_constrained``):
    new operator data pass ``apply_dirichlet``, and ``solve_linear`` solves
    with the field's operator, factorizing it when its factor is empty.
    Heat and flow pass new data on every solve, since their operators
    follow the lagged iterates. Mechanics rebuilds its operator
    (``MechanicsOperator``) only when v or the frozen branch flags differ
    from its last build, so its factor serves every solve until then; the
    phase-field solve empties it early (see ``_solve_v``).

    The simulation also owns the inner loop's ``_AndersonMixer``, kept
    across the steps of a run, and remembers the state, dt and v of the
    last step it returned, so that the next step can carry that step's
    secant pairs (see ``time_step``).
    """

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

    @property
    def mesh(self) -> Mesh:
        return self.tables.mesh

    def __post_init__(self):
        n = self.mesh.n_nodes
        if self.f_ext is None:
            self.f_ext = np.zeros(2 * n)
        if self.q_flow is None:
            self.q_flow = np.zeros(n)
        self.gc_elem = np.broadcast_to(np.asarray(self.gc_elem, dtype=float),
                                       (self.mesh.n_elems,)).copy()
        self._ops: dict[str, FieldOperator] = {}
        self._mech: MechanicsOperator | None = None
        self._mixer = _AndersonMixer(n)
        # (state, dt, v) of the last step returned, whose secant pairs the
        # next step may carry; cleared while a step runs, so a failed step
        # leaves nothing to carry
        self._carry: tuple[FieldState, float, np.ndarray] | None = None

    def _operator(self, field: str) -> FieldOperator:
        """The linear-algebra state of ``field`` (T, p, u or v). Advection
        makes the heat operator the only nonsymmetric one."""
        if field not in self._ops:
            layout = self.tables.vector_layout if field == "u" else self.tables.scalar_layout
            bcs = {"T": self.bc_T, "p": self.bc_p, "u": self.bc_u}
            self._ops[field] = FieldOperator(layout, *bcs.get(field, _EMPTY),
                                             symmetric=field != "T")
        return self._ops[field]

    def _solve_constrained(self, field: str, data: np.ndarray | None,
                           rhs: np.ndarray) -> np.ndarray:
        """Solve ``field`` (T, p or u) for ``rhs`` with new operator ``data``
        on its layout, or with its last operator and factor when None."""
        op = self._operator(field)
        if data is not None:
            apply_dirichlet(op, data)
        return solve_linear(op, op.rhs(rhs))

    def initial_state(self) -> FieldState:
        n = self.mesh.n_nodes
        state = FieldState(u=np.zeros(2 * n),
                           p=np.full(n, float(self.p_init)),
                           T=np.full(n, self.params.T0),
                           v=np.ones(n))
        state.v[self.crack_nodes] = 0.0
        return state

    # -- single sub-solves -------------------------------------------------

    def _solve_v(self, it: FieldState, T_qp: np.ndarray, lower, upper) -> np.ndarray:
        if "u" in self._ops:
            # the new v makes the mechanics factor stale in nearly every
            # outer iteration; released here with its band buffer, it does
            # not sit beside the phase field's factors: kgd_growth seed 1
            # peaks at 83.7-85.3 MB RSS with this, 86.4-86.7 MB without
            # (3 runs each, 2-core Xeon)
            self._ops["u"].release()
        system = build_phasefield_system(self.tables, self.params, self.gc_elem,
                                         it.u, it.p, T_qp)
        init = np.clip(it.v, lower, upper)
        op = self._operator("v")
        op.load(system.data)
        return solve_bound_constrained(op, system.rhs, lower, upper, init)

    def _solve_T(self, st, p_it, step: StepState, dt: float) -> np.ndarray:
        system = build_heat_system(self.tables, self.params, st, p_it, step, dt)
        return self._solve_constrained("T", system.data, system.rhs)

    def _solve_p(self, st, p_it, T_qp, T_it_qp, step: StepState, dt: float) -> np.ndarray:
        system = build_flow_system(self.tables, self.params, st, p_it, T_qp, T_it_qp, step,
                                   dt, source=self.q_flow)
        return self._solve_constrained("p", system.data, system.rhs)

    def _solve_u(self, phase, p_new, T_qp, tr_sign) -> np.ndarray:
        mech, data = self._mech, None
        if mech is None or not mech.matches(phase, tr_sign):
            mech = self._mech = build_mechanics_system(self.tables, self.params, phase,
                                                       tr_sign)
            data = mech.data
        rhs = mechanics_rhs(self.tables, self.params, mech, p_new, T_qp, self.f_ext)
        return self._solve_constrained("u", data, rhs)

    # -- one time step -----------------------------------------------------

    def time_step(self, prev: FieldState, dt: float,
                  controls: SolverControls) -> tuple[FieldState, StepReport]:
        """One step from ``prev``. Each quadrature-point quantity is formed
        at the loop level where it changes: the previous level's once per
        step, v's once per outer iteration, and the strain state and new
        temperature once per inner pass.

        The first outer iteration keeps the mixer's last secant pairs, at
        most ``_CARRY_CAP`` = 2 ``_ANDERSON_WINDOW`` of them, when ``prev``
        is the state this simulation's last step returned (by identity),
        ``dt`` is that step's and v is unchanged by value since the pairs
        were formed; otherwise, and in every later outer iteration, the
        mixer starts from nothing. The cap is the measured knee of the
        inner-pass count (see ``_AndersonMixer``); the carried pairs may
        come from several earlier steps. Phase-field runs change v in every
        outer iteration, so they never carry pairs. The report records how
        many pairs the step started with."""
        if not (dt > 0.0 and math.isfinite(dt)):
            raise ValueError(f"dt must be positive and finite, got {dt}")
        n = self.mesh.n_nodes
        lower = np.zeros(n)
        upper = np.where(prev.v < controls.v_ir, prev.v, 1.0)
        upper[self.crack_nodes] = 0.0

        tb, params = self.tables, self.params
        it = prev.copy()
        step = step_state(tb, prev)
        # T_qp is always it.T at the quadrature points: without heat solves
        # T stays at the previous level, and flow forms no thermal
        # relaxation term
        T_new, T_qp, T_it_qp = it.T, step.T, None
        v_incs: list[float] = []
        inner_counts: list[int] = []
        tpu_incs: list[tuple[float, float, float]] = []
        mixer = self._mixer
        carry, self._carry = self._carry, None
        continues = carry is not None and carry[0] is prev and carry[1] == dt

        for m in _passes("outer staggered", controls.max_outer, v_incs):
            v_new = self._solve_v(it, T_qp, lower, upper) if self.solve_phasefield else it.v
            if m == 1 and continues and np.array_equal(v_new, carry[2]):
                mixer.restart()
            else:
                mixer.reset()
            if m == 1:
                carried = mixer.carried
            v_incs.append(_rel(v_new, it.v))
            # heat and flow share the strain-derived state of the iterate;
            # the first pass's state also gives the stiffness branch flags,
            # frozen across the inner loop: refreshing them per (T, p, u)
            # pass lets broken cells flip between the open and closed branch
            # and the displacement iterate cycles
            phase = phase_state(tb, params, v_new)
            st = strain_state(tb, params, it.u, phase)
            h_mech = mechanics_branch_flags(tb, params, st, T_qp)
            for j in _passes("inner (T-p-u)", controls.max_inner, tpu_incs):
                if self.solve_thermal:
                    T_new = self._solve_T(st, it.p, step, dt)
                    # flow and the mechanics rhs share the new T at the
                    # quadrature points; flow relaxes the strain of its
                    # change from the previous pass's
                    T_it_qp, T_qp = T_qp, scalar_qp(tb, T_new)
                p_raw = self._solve_p(st, it.p, T_qp, T_it_qp, step, dt)
                p_new = mixer.mix(it.p, p_raw)
                u_new = self._solve_u(phase, p_new, T_qp, h_mech)
                tpu_incs.append((_rel(T_new, it.T), _rel(p_new, it.p), _rel(u_new, it.u)))
                it = FieldState(u=u_new, p=p_new, T=T_new, v=v_new)
                if max(tpu_incs[-1]) < controls.tol_tpu:
                    break
                st = strain_state(tb, params, it.u, phase)

            inner_counts.append(j)
            if not self.solve_phasefield or v_incs[-1] < controls.tol_stag:
                self._carry = (it, dt, v_new.copy())
                return it, StepReport(outer_iters=m, inner_iters=inner_counts,
                                      v_increments=v_incs, tpu_increments=tpu_incs,
                                      carried_pairs=carried)


@dataclass
class RunResult:
    """Trajectory of a transient run (times include t = 0)."""

    times: list[float]
    states: list[FieldState]
    reports: list[StepReport]


def run(sim: Simulation, controls: SolverControls, on_step=None) -> RunResult:
    """March through the dt schedule from the initial state.

    ``on_step(t, state, report)`` is invoked after every accepted step;
    a ``SolverFailure`` of a step propagates with the time of the step
    it failed to reach under ``diagnostics["time"]``.
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
            except SolverFailure as exc:
                exc.diagnostics["time"] = t + dt
                log.error("step to t = %.6g s failed: %s", t + dt, exc)
                raise
            t += dt
            times.append(t)
            states.append(state)
            reports.append(report)
            log.debug("t = %.6g s: outer %d, inner %s, carried pairs %d", t,
                      report.outer_iters, report.inner_iters, report.carried_pairs)
            if on_step is not None:
                on_step(t, state, report)
    return RunResult(times=times, states=states, reports=reports)
