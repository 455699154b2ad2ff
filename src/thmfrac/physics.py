"""Element kernels for the four staggered sub-problems.

Each builder returns the assembled system of one sub-solve, a
``FieldSystem`` whose operator and right-hand side the field's layout sums
from the element matrices and vectors (``FieldLayout.assemble`` and
``scatter``); the operator is linear once the lagged quantities are frozen:

* phase field  — bound-constrained quadratic in v, driven by the stored
  tensile energy and the pressure term p^2/2 d(1/M_p)/dv in product form;
* heat         — lumped storage + advection with the lagged Darcy flux +
  conduction with the isotropic balancing dissipation 1/2 s ||q|| h_e
  (always added; ``MaterialParams.s_stab = 0`` turns it off);
* flow         — backward-Euler mass balance with the fixed-stress
  relaxation terms and the lagged volumetric strain increment on the
  right-hand side. The split is extended to the thermal stress (Kim 2018,
  CMAME 341): the relaxation also holds 3 alpha alpha_s (T_new - T_it)/dt,
  the strain that the new temperature adds to the lagged one, which was
  computed at the previous pass's temperature. It vanishes at the fixed
  point, so it shortens the iteration without moving its answer, and
  without heat solves it is not formed;
* mechanics    — degraded effective stress with pressure and thermal
  contributions moved to the right-hand side. Its operator depends only
  on (v, branch flags) and is built apart from the right-hand side, so a
  caller can keep it while those stay fixed.

All quadrature-point fields are evaluated in bulk as (n_elems, 4) arrays.
Every element is an hx x hy rectangle (see ``ElementTables``), so
dN/dx = (2/hx) dN/dxi, dN/dy = (2/hy) dN/deta and detJ = hx hy / 4 at
every point. Each element term is therefore one plain 2-D matmul: its
(E, k) quadrature-point coefficients, scaled per element by these
factors (K_xx hy/hx, K_xy, K_yx and K_yy hx/hy for a tensor Laplacian),
times a constant (k, m) table of the reference shape functions and Gauss
weights. Coefficients are kept in component form, (E, 4) per component,
and scaled by the tables' per-point factors, so every product runs along
a long axis; the permeability is its three components (xx, yy, xy).

Each quadrature-point quantity is formed once, at the level of the
staggered loop where it changes, and the kernels read it:

* per time step (``step_state``): p and T of the previous step at the
  quadrature points, its nodal T per element (heat's lumped storage) and
  its volumetric strain;
* per outer iteration (``phase_state``): v at the quadrature points,
  g(v) with its range check and the permeability's (1 - v)^xi;
* per inner pass (``strain_state``): the strain, its principal strain,
  width and permeability, which heat and flow share, and the new T at the
  quadrature points, which flow and the mechanics right-hand side share,
  and the next outer iteration's branch flags and phase-field kernel read.
  Heat and flow each add the porosity at their own temperature, with the
  branch flag where they read it (heat only for the "phi0" porosity).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import constitutive as law
from .constitutive import MaterialParams
from .fem import ElementTables, FieldSystem, gauss_2x2, shape_q4

@dataclass
class FieldState:
    """Nodal solution fields at one time level or staggered iterate."""

    u: np.ndarray
    p: np.ndarray
    T: np.ndarray
    v: np.ndarray

    def copy(self) -> "FieldState":
        return FieldState(self.u.copy(), self.p.copy(), self.T.copy(), self.v.copy())


# ---------------------------------------------------------------------------
# constant reference tables on the 2x2 Gauss rule
# ---------------------------------------------------------------------------
# Axes: q quadrature point, a, b nodes, c, d directions (xi, eta), i
# displacement components. Each table carries the Gauss weights.

_PTS, _W = gauss_2x2()
N_QP, _G = shape_q4(_PTS[:, 0], _PTS[:, 1])   # (q, a) values, (q, a, d) gradients
_LOAD = _W[:, None] * N_QP                                             # (q, a)
_MASS = np.einsum("q,qa,qb->qab", _W, N_QP, N_QP).reshape(4, 16)       # (q, ab)
_LAPLACIAN = np.einsum("q,qad,qbd->qdab", _W, _G, _G).reshape(8, 16)   # (qd, ab)
_TENSOR_LAPLACIAN = np.einsum("q,qac,qbd->qcdab", _W, _G, _G).reshape(16, 16)
_ADVECTION = np.einsum("q,qa,qbd->qdab", _W, N_QP, _G).reshape(8, 16)  # (qd, ab)
_DIVERGENCE = np.einsum("q,qad,di->qdai", _W, _G, np.eye(2)).reshape(8, 8)
_GRAD = _G.transpose(1, 0, 2).reshape(4, 8)                           # (a, qd)
# reference displacement gradients du_i/dxi_d, m = (i, d), from dofs (a, i)
_REF_GRAD = np.einsum("qad,ij->qjdai", _G, np.eye(2)).reshape(4, 4, 8)  # (q, m, ai)
_DISP_GRAD = _REF_GRAD.reshape(16, 8).T                                  # (ai, qm)
_STIFFNESS = np.einsum("q,qma,qnb->qmnab", _W, _REF_GRAD, _REF_GRAD).reshape(64, 64)
_DIR = np.array([0, 1, 0, 1])      # direction d of reference gradient m
_VOIGT = np.array([0, 2, 2, 1])    # Voigt row (xx, yy, xy) that m enters
_TO_VOIGT = np.eye(3)[_VOIGT]      # (m, Voigt row)


def _metric(tables: ElementTables) -> np.ndarray:
    """(E, 2, 2) detJ (2/h_c)(2/h_d): [[hy/hx, 1], [1, hx/hy]]."""
    m = np.ones((len(tables.h), 4))
    m[:, ::3] = tables.qp_aspect[:, :2]
    return m.reshape(-1, 2, 2)


# ---------------------------------------------------------------------------
# quadrature-point interpolation
# ---------------------------------------------------------------------------

def scalar_qp(tables: ElementTables, f: np.ndarray) -> np.ndarray:
    """Nodal scalar -> (E, 4) quadrature-point values."""
    return f[tables.conn] @ N_QP.T


def grad_qp(tables: ElementTables, f: np.ndarray) -> np.ndarray:
    """Nodal scalar -> (E, 4, 2) quadrature-point gradients."""
    g = f[tables.conn] @ _GRAD
    g *= tables.qp_grad
    return g.reshape(-1, 4, 2)


def strain_qp(tables: ElementTables, u: np.ndarray, elems=slice(None)) -> np.ndarray:
    """Nodal displacement -> (E, 4, 3) Voigt strains, on the elements
    ``elems`` (an index array or slice of element ids; all by default)."""
    g = u[tables.dofs_vec[elems]] @ _DISP_GRAD      # (E, qm)
    g *= tables.qp_disp_grad[elems]
    return (g.reshape(-1, 4) @ _TO_VOIGT).reshape(-1, 4, 3)


def volumetric_strain_qp(tables: ElementTables, u: np.ndarray) -> np.ndarray:
    """Nodal displacement -> (E, 4) in-plane volumetric strains."""
    return law.trace2(strain_qp(tables, u))


def darcy_flux_qp(tables: ElementTables, params: MaterialParams,
                  perm: law.Permeability, p: np.ndarray) -> np.ndarray:
    """q_f = -(K/mu) grad p at quadrature points, shape (E, 4, 2), from the
    (E, 4) components of K."""
    g = grad_qp(tables, p)
    gx, gy = g[..., 0], g[..., 1]
    q = np.empty_like(g)
    q[..., 0] = perm.xx * gx + perm.xy * gy
    q[..., 1] = perm.xy * gx + perm.yy * gy
    q /= -params.mu_f
    return q


@dataclass
class StepState:
    """Quadrature-point values of the previous time level, fixed over the
    outer iterations and inner passes of a step."""

    p: np.ndarray           # (E, 4) previous p
    T: np.ndarray           # (E, 4) previous T
    T_elem: np.ndarray      # (E, 4) previous nodal T of each element
    eps_vol: np.ndarray     # (E, 4) previous volumetric strain


def step_state(tables: ElementTables, prev: FieldState) -> StepState:
    """The previous time level ``prev`` at the quadrature points, formed
    once per time step."""
    return StepState(p=scalar_qp(tables, prev.p), T=scalar_qp(tables, prev.T),
                     T_elem=prev.T[tables.conn],
                     eps_vol=volumetric_strain_qp(tables, prev.u))


def phase_state(tables: ElementTables, params: MaterialParams,
                v: np.ndarray) -> law.PhaseState:
    """g(v) and (1 - v)^xi of nodal ``v`` at the quadrature points, formed
    once per outer iteration: heat, flow and mechanics all read it."""
    return law.phase_state(scalar_qp(tables, v), params)


def strain_state(tables: ElementTables, params: MaterialParams, u: np.ndarray,
                 phase: law.PhaseState) -> law.StrainState:
    """Temperature-independent quadrature-point state of nodal u and the
    ``phase_state`` of v.

    Heat and flow evaluate their kernels on the same (u, v) iterate of an
    inner pass, so a time step forms this once per pass for both.
    """
    return law.strain_state(strain_qp(tables, u), tables.qp_h_e, phase, params)


# ---------------------------------------------------------------------------
# element matrix building blocks
# ---------------------------------------------------------------------------

def _mass(tables: ElementTables, coeff: np.ndarray) -> np.ndarray:
    """Consistent mass element matrices for a (E, 4) coefficient field."""
    return ((coeff * tables.qp_detJ) @ _MASS).reshape(-1, 4, 4)


def _laplacian(tables: ElementTables, coeff: np.ndarray) -> np.ndarray:
    """Scalar-coefficient stiffness for a (E, 4) conductivity field."""
    c = np.repeat(coeff, 2, axis=1) * tables.qp_aspect
    return (c @ _LAPLACIAN).reshape(-1, 4, 4)


def _laplacian_tensor(tables: ElementTables, kxx: np.ndarray, kyy: np.ndarray,
                      kxy: np.ndarray) -> np.ndarray:
    """Tensor-coefficient stiffness for the (E, 4) components of a symmetric
    conductivity field."""
    c = np.empty(kxx.shape + (4,))
    np.multiply(kxx, tables.qp_aspect[:, 0::2], out=c[..., 0])
    c[..., 1] = kxy
    c[..., 2] = kxy
    np.multiply(kyy, tables.qp_aspect[:, 1::2], out=c[..., 3])
    return (c.reshape(-1, 16) @ _TENSOR_LAPLACIAN).reshape(-1, 4, 4)


def _advection(tables: ElementTables, q: np.ndarray) -> np.ndarray:
    """Advection matrices int N_a q . grad N_b for a (E, 4, 2) velocity field."""
    c = q.reshape(-1, 8) * tables.qp_half
    return (c @ _ADVECTION).reshape(-1, 4, 4)


def _divergence(tables: ElementTables, s: np.ndarray) -> np.ndarray:
    """(E, 8) virtual work int s div(N_a e_i) of a (E, 4) isotropic stress s I."""
    return (np.repeat(s, 2, axis=1) * tables.qp_half) @ _DIVERGENCE


def _load(tables: ElementTables, source: np.ndarray) -> np.ndarray:
    """Element load vectors for a (E, 4) quadrature-point source density."""
    return (source * tables.qp_detJ) @ _LOAD


def _stiffness(tables: ElementTables, C: np.ndarray) -> np.ndarray:
    """Element stiffness int B^T C B for a (E, 4, 3, 3) Voigt tangent.

    The strain is S g of the reference displacement gradients g, with S
    the 3 x 4 scaling by 2/hx and 2/hy, so the coefficients of the
    reference table are S^T C S detJ at each quadrature point."""
    w = _metric(tables)[:, _DIR[:, None], _DIR]                   # (E, m, n)
    c = C[:, :, _VOIGT[:, None], _VOIGT] * w[:, None]            # (E, q, m, n)
    return (c.reshape(-1, 64) @ _STIFFNESS).reshape(-1, 8, 8)


# ---------------------------------------------------------------------------
# mechanics
# ---------------------------------------------------------------------------

def mechanics_branch_flags(tables: ElementTables, params: MaterialParams,
                           st: law.StrainState, T_qp: np.ndarray) -> np.ndarray:
    """Opening/closing Heaviside flags H(Tr eps_e) at quadrature points of
    the strain state ``st`` and the temperature ``T_qp`` there."""
    return law.branch_flag(st.eps, T_qp - params.T0, params.alpha_s)


@dataclass
class MechanicsOperator:
    """Stiffness at a frozen (g(v), branch flags) pair as data on the vector
    layout, and the (E, 4) degraded moduli and thermal stress coefficient
    3 K_eff alpha_s that the right-hand side of that state reuses."""

    tr_sign: np.ndarray
    data: np.ndarray
    moduli: law.DegradedModuli
    thermal: np.ndarray

    def matches(self, phase: law.PhaseState, tr_sign: np.ndarray) -> bool:
        # the operator depends on v only through g(v)
        return (np.array_equal(phase.g, self.moduli.g)
                and np.array_equal(tr_sign, self.tr_sign))


def build_mechanics_system(tables: ElementTables, params: MaterialParams,
                           phase: law.PhaseState, tr_sign: np.ndarray) -> MechanicsOperator:
    """Equilibrium operator K of K u = f at the ``phase_state`` of v.

    The opening/closing branch of the stiffness is frozen at the given
    ``tr_sign`` flags (``mechanics_branch_flags`` of an earlier iterate);
    broken cells otherwise chatter between the stiff closed and compliant
    open branch from one iterate to the next. ``mechanics_rhs`` builds f.
    """
    moduli = law.degraded_moduli(phase.g, tr_sign, params)
    KE = _stiffness(tables, law.effective_stiffness(moduli, params))
    return MechanicsOperator(tr_sign=tr_sign.copy(), data=tables.vector_layout.assemble(KE),
                             moduli=moduli, thermal=3.0 * moduli.K_eff * params.alpha_s)


def mechanics_rhs(tables: ElementTables, params: MaterialParams, op: MechanicsOperator,
                  p: np.ndarray, T_qp: np.ndarray, f_ext: np.ndarray) -> np.ndarray:
    """Right-hand side f of ``op`` at nodal ``p`` and quadrature-point
    temperature ``T_qp``: pressure and thermal terms plus loads."""
    # the rhs stress is isotropic: (alpha p + 3 K_eff alpha_s dT) I
    s = op.moduli.alpha * scalar_qp(tables, p) + op.thermal * (T_qp - params.T0)
    rhs = tables.vector_layout.scatter(_divergence(tables, s))
    rhs += f_ext
    return rhs


# ---------------------------------------------------------------------------
# flow (fixed-stress split)
# ---------------------------------------------------------------------------

def build_flow_system(tables: ElementTables, params: MaterialParams,
                      st: law.StrainState, p_it: np.ndarray, T_qp: np.ndarray,
                      T_it_qp: np.ndarray | None, step: StepState, dt: float,
                      source: np.ndarray | None = None) -> FieldSystem:
    """Pressure system of the fixed-stress step, extended to the thermal
    stress.

    Left-hand side: (1/M_p + alpha^2/K_eff)/dt storage + Darcy stiffness.
    Right-hand side: previous-step storage, thermal coupling against M_T,
    the fixed-stress relaxation history alpha^2/K_eff p_it/dt, the lagged
    volumetric-strain increment, the thermal relaxation
    -3 alpha alpha_s (T_new - T_it)/dt and nodal sources. The lagged strain
    comes from ``it.u``, which was computed at ``it.T``, and the thermal
    relaxation adds the strain the new temperature implies, as the
    pressure term does for the new pressure. Both vanish at the fixed
    point, so they change the iteration, not the converged answer.

    ``st`` is the ``strain_state`` of the (u, v) iterate, evaluated here at
    the new temperature ``T_qp`` at the quadrature points. ``T_it_qp`` is
    the previous pass's temperature there, or None when T did not change
    (no heat solve), which forms no thermal relaxation term. ``step`` is
    the ``step_state`` of the previous time level.
    """
    tr_sign = law.branch_flag(st.eps, T_qp - params.T0, params.alpha_s)
    moduli = law.degraded_moduli(st.g, tr_sign, params)
    phi = law.porosity(st.e1, params, moduli)
    K_eff, alpha = moduli.K_eff, moduli.alpha
    inv_Mp = law.biot_modulus_inv(phi, alpha, params)
    inv_MT = law.thermal_storage_inv(phi, alpha, params)

    alpha2 = alpha * alpha
    KE = _mass(tables, (inv_Mp + alpha2 / K_eff) / dt)
    mu = params.mu_f
    KE += _laplacian_tensor(tables, st.perm.xx / mu, st.perm.yy / mu, st.perm.xy / mu)

    rhs_qp = (inv_Mp / dt) * step.p
    rhs_qp += (alpha2 / (K_eff * dt)) * scalar_qp(tables, p_it)
    rhs_qp += (inv_MT / dt) * (T_qp - step.T)
    rhs_qp -= alpha * (st.eps_vol - step.eps_vol) / dt
    if T_it_qp is not None:
        rhs_qp -= (3.0 * params.alpha_s / dt) * alpha * (T_qp - T_it_qp)
    lay = tables.scalar_layout
    system = FieldSystem(lay.assemble(KE), lay.scatter(_load(tables, rhs_qp)))
    if source is not None:
        system.rhs += source
    return system


# ---------------------------------------------------------------------------
# heat (advection + conduction with isotropic diffusion stabilization)
# ---------------------------------------------------------------------------

def build_heat_system(tables: ElementTables, params: MaterialParams,
                      st: law.StrainState, p_it: np.ndarray,
                      step: StepState, dt: float) -> FieldSystem:
    """Temperature system with the lagged Darcy flux q_f^(m-1).

    The operator is linear in T: storage is row-sum lumped (keeps the
    backward-Euler operator an M-matrix on rectangles), advection uses
    rho_f c_pf q_f . grad T, and conduction carries lambda_eff plus the
    balancing dissipation 1/2 s ||q_f|| h_e scaled by rho_f c_pf, which
    ``params.s_stab = 0`` turns off. ``st`` is the ``strain_state`` of the
    (u, v) iterate; the porosity is taken at the previous step's T, read
    with the storage's nodal T from its ``step_state`` ``step``.
    """
    phi = law.state_porosity(st, step.T - params.T0, params)
    rhoc = law.heat_capacity_eff(phi, params)
    lam = law.conductivity_eff(phi, params)
    q_f = darcy_flux_qp(tables, params, st.perm, p_it)

    # row sums of the consistent mass: by partition of unity they equal
    # the load vector of the coefficient
    diag = _load(tables, rhoc / dt)
    q_norm = np.hypot(q_f[..., 0], q_f[..., 1])
    lam_total = lam + law.stabilization_conductivity(q_norm, tables.qp_h_e, params)

    KE = _laplacian(tables, lam_total)
    adv = params.rho_f * params.c_pf
    if adv != 0.0:
        KE += _advection(tables, adv * q_f)
    KE.reshape(-1, 16)[:, ::5] += diag      # the diagonal entries of each element
    lay = tables.scalar_layout
    return FieldSystem(lay.assemble(KE), lay.scatter(diag * step.T_elem))


# ---------------------------------------------------------------------------
# phase field
# ---------------------------------------------------------------------------

def build_phasefield_system(tables: ElementTables, params: MaterialParams,
                            gc_elem: np.ndarray, u_it: np.ndarray,
                            p_it: np.ndarray, T_qp: np.ndarray) -> FieldSystem:
    """Quadratic phase-field subproblem min 1/2 v'Av - b'v.

    Driving terms (frozen at the previous iterate): 2(1-k) psi_plus and the
    pressure coefficient p eps_vol (1-k) H(Tr eps_e)(1-alpha_m), both
    multiplying v. Surface energy Gc/(4 c_n) [(1-v)^n / ell + ell |grad v|^2]
    contributes the gradient stiffness for both variants, and for n = 2 an
    extra mass term plus constant source; for n = 1 only a constant source.
    ``T_qp`` is the iterate's temperature at the quadrature points.
    """
    eps_e, ezz, tr_e, h = law.thermoelastic_split(strain_qp(tables, u_it), T_qp - params.T0,
                                                  params.alpha_s)
    psi_plus, _ = law.energy_split_vd(eps_e, params.K_m, params.mu_shear, eps_zz=ezz)
    drive_p = law.biot_modulus_pressure_drive(tr_e, scalar_qp(tables, p_it), h, params)

    gamma = (gc_elem / (4.0 * params.c_n))[:, None] * np.ones((1, 4))
    ell = params.ell
    coeff = 2.0 * (1.0 - params.k_res) * psi_plus + drive_p
    if params.n_at == 2:
        coeff = coeff + 2.0 * gamma / ell
        src = 2.0 * gamma / ell
    else:
        src = gamma / ell

    KE = _mass(tables, coeff)
    KE += _laplacian(tables, 2.0 * gamma * ell)
    lay = tables.scalar_layout
    return FieldSystem(lay.assemble(KE), lay.scatter(_load(tables, src)))
