"""Element kernels for the four staggered sub-problems.

Each builder returns the assembled linear system of one sub-solve (the
operators are linear once the lagged staggered quantities are frozen):

* phase field  — bound-constrained quadratic in v, driven by the stored
  tensile energy and the pressure term p^2/2 d(1/M_p)/dv in product form;
* heat         — lumped storage + advection with the lagged Darcy flux +
  conduction with the isotropic balancing dissipation 1/2 s ||q|| h_e
  (always added; ``MaterialParams.s_stab = 0`` turns it off);
* flow         — backward-Euler mass balance with the fixed-stress
  relaxation terms and the lagged volumetric strain increment on the
  right-hand side. The thermal relaxation term is currently zero, because
  heat is solved before flow within an iterate (ROADMAP open item 1);
* mechanics    — degraded effective stress with pressure and thermal
  contributions moved to the right-hand side. Its operator depends only
  on (v, branch flags) and is built apart from the right-hand side, so a
  caller can keep it while those stay fixed.

All quadrature-point fields are evaluated in bulk as (n_elems, 4) arrays.
Each element term is one batched matmul of its quadrature-point
coefficients against an operator table of ``ElementTables`` (built on
first use), so no kernel plans an einsum contraction per call. Heat and
flow read the temperature-independent quadrature-point state of an inner
pass (``strain_state``) from one evaluation, and each adds the branch flag
and porosity at its own temperature.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import constitutive as law
from .constitutive import MaterialParams
from .errors import InvariantViolation
from .fem import ElementTables, SparseSystem, assemble_batched, scatter_vector

_VOIGT_ID = np.array([1.0, 1.0, 0.0])


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
# quadrature-point interpolation
# ---------------------------------------------------------------------------

def scalar_qp(tables: ElementTables, f: np.ndarray) -> np.ndarray:
    """Nodal scalar -> (E, 4) quadrature-point values."""
    return f[tables.conn] @ tables.N.T


def grad_qp(tables: ElementTables, f: np.ndarray) -> np.ndarray:
    """Nodal scalar -> (E, 4, 2) quadrature-point gradients."""
    return np.matmul(f[tables.conn][:, None, None, :], tables.dNdx)[:, :, 0, :]


def strain_qp(tables: ElementTables, u: np.ndarray) -> np.ndarray:
    """Nodal displacement -> (E, 4, 3) Voigt strains."""
    return np.einsum("eqsa,ea->eqs", tables.B, u[tables.dofs_vec])


def volumetric_strain_qp(tables: ElementTables, u: np.ndarray) -> np.ndarray:
    """Nodal displacement -> (E, 4) in-plane volumetric strains."""
    return law.trace2(strain_qp(tables, u))


def darcy_flux_qp(tables: ElementTables, params: MaterialParams,
                  perm: np.ndarray, p: np.ndarray) -> np.ndarray:
    """q_f = -(K/mu) grad p at quadrature points, shape (E, 4, 2)."""
    gp = grad_qp(tables, p)
    return -np.matmul(perm, gp[..., None])[..., 0] / params.mu_f


def strain_state(tables: ElementTables, params: MaterialParams, u: np.ndarray,
                 v: np.ndarray) -> law.StrainState:
    """Temperature-independent quadrature-point state of nodal (u, v).

    Heat and flow evaluate their kernels on the same (u, v) iterate of an
    inner pass, so a time step forms this once per pass for both.
    """
    return law.strain_state(strain_qp(tables, u), tables.h_e_qp, scalar_qp(tables, v), params)


# ---------------------------------------------------------------------------
# element matrix building blocks
# ---------------------------------------------------------------------------

def _apply(table: np.ndarray, coeff: np.ndarray) -> np.ndarray:
    """(E, k) coefficients times a per-element (E, k, m) table -> (E, m)."""
    return np.matmul(coeff[:, None, :], table)[:, 0, :]


def _mass(tables: ElementTables, coeff: np.ndarray) -> np.ndarray:
    """Consistent mass element matrices for a (E, 4) coefficient field."""
    return ((coeff * tables.detJw) @ tables.mass_table).reshape(-1, 4, 4)


def _laplacian(tables: ElementTables, coeff: np.ndarray) -> np.ndarray:
    """Scalar-coefficient stiffness for a (E, 4) conductivity field."""
    return _apply(tables.laplacian_table, coeff).reshape(-1, 4, 4)


def _laplacian_tensor(tables: ElementTables, K: np.ndarray) -> np.ndarray:
    """Tensor-coefficient stiffness for a (E, 4, 2, 2) field."""
    return _apply(tables.tensor_laplacian_table, K.reshape(-1, 16)).reshape(-1, 4, 4)


def _advection(tables: ElementTables, q: np.ndarray) -> np.ndarray:
    """Advection matrices int N_a q . grad N_b for a (E, 4, 2) velocity field."""
    return _apply(tables.advection_table, q.reshape(-1, 8)).reshape(-1, 4, 4)


def _load(tables: ElementTables, source: np.ndarray) -> np.ndarray:
    """Element load vectors for a (E, 4) quadrature-point source density."""
    return (source * tables.detJw) @ tables.N


def _stiffness(tables: ElementTables, C: np.ndarray) -> np.ndarray:
    """Element stiffness sum_q B^T C B detJw for a (E, 4, 3, 3) Voigt tangent."""
    B = tables.B
    E = B.shape[0]
    BtW = np.matmul(B.transpose(0, 1, 3, 2), C * tables.detJw[..., None, None])
    # (E, 8, q s) @ (E, q s, 8) sums over the quadrature points and Voigt rows
    return np.matmul(BtW.transpose(0, 2, 1, 3).reshape(E, 8, 12), B.reshape(E, 12, 8))


# ---------------------------------------------------------------------------
# mechanics
# ---------------------------------------------------------------------------

def mechanics_branch_flags(tables: ElementTables, params: MaterialParams,
                           st: law.StrainState, T: np.ndarray) -> np.ndarray:
    """Opening/closing Heaviside flags H(Tr eps_e) at quadrature points of
    the strain state ``st`` and nodal temperature ``T``."""
    dT = scalar_qp(tables, T) - params.T0
    return law.thermoelastic_split(st.eps, dT, params.alpha_s)[3]


@dataclass
class MechanicsOperator:
    """Stiffness at a frozen (v, branch flags) pair and the quadrature-point
    coefficients the right-hand side of that state reuses."""

    v: np.ndarray
    tr_sign: np.ndarray
    matrix: sp.csr_matrix
    alpha: np.ndarray      # (E, 4) Biot coefficient
    K_eff: np.ndarray      # (E, 4) effective bulk modulus

    def matches(self, v: np.ndarray, tr_sign: np.ndarray) -> bool:
        return np.array_equal(v, self.v) and np.array_equal(tr_sign, self.tr_sign)


def build_mechanics_system(tables: ElementTables, params: MaterialParams,
                           v: np.ndarray, tr_sign: np.ndarray) -> MechanicsOperator:
    """Equilibrium operator K of K u = f at phase field ``v``.

    The opening/closing branch of the stiffness is frozen at the given
    ``tr_sign`` flags (``mechanics_branch_flags`` of an earlier iterate);
    broken cells otherwise chatter between the stiff closed and compliant
    open branch from one iterate to the next. ``mechanics_rhs`` builds f.
    """
    v_qp = scalar_qp(tables, v)
    KE = _stiffness(tables, law.effective_stiffness(v_qp, tr_sign, params))
    return MechanicsOperator(v=v.copy(), tr_sign=tr_sign.copy(),
                             matrix=tables.vector_pattern.matrix(KE),
                             alpha=law.biot_coefficient(v_qp, tr_sign, params),
                             K_eff=law.effective_bulk(v_qp, tr_sign, params))


def mechanics_rhs(tables: ElementTables, params: MaterialParams, op: MechanicsOperator,
                  p: np.ndarray, T: np.ndarray, f_ext: np.ndarray) -> np.ndarray:
    """Right-hand side f of ``op``: pressure and thermal terms plus loads."""
    p_qp = scalar_qp(tables, p)
    dT_qp = scalar_qp(tables, T) - params.T0
    # the rhs stress is isotropic: (alpha p + 3 K_eff alpha_s dT) I
    s = op.alpha * p_qp + 3.0 * op.K_eff * params.alpha_s * dT_qp
    rhs = scatter_vector(tables, _apply(tables.divergence_table, s), vector=True)
    rhs += f_ext
    return rhs


def mechanics_residual(tables: ElementTables, params: MaterialParams,
                       u: np.ndarray, v: np.ndarray, p: np.ndarray,
                       T: np.ndarray, f_ext: np.ndarray) -> np.ndarray:
    """Internal force of the evaluated stress state minus external loads."""
    v_qp = scalar_qp(tables, v)
    p_qp = scalar_qp(tables, p)
    dT_qp = scalar_qp(tables, T) - params.T0
    eps_e, ezz, _, h = law.thermoelastic_split(strain_qp(tables, u), dT_qp, params.alpha_s)
    sig = law.effective_stress(eps_e, v_qp, h, params, eps_zz=ezz)
    alpha = law.biot_coefficient(v_qp, h, params)
    sig = sig - (alpha * p_qp)[..., None] * _VOIGT_ID
    FE = np.einsum("eqsa,eqs->ea", tables.B, sig * tables.detJw[..., None])
    return scatter_vector(tables, FE, vector=True) - f_ext


# ---------------------------------------------------------------------------
# flow (fixed-stress split)
# ---------------------------------------------------------------------------

def build_flow_system(tables: ElementTables, params: MaterialParams,
                      st: law.StrainState, p_it: np.ndarray,
                      T_new: np.ndarray, evol_prev: np.ndarray,
                      p_prev: np.ndarray, T_prev: np.ndarray, dt: float,
                      source: np.ndarray | None = None) -> SparseSystem:
    """Pressure system of the fixed-stress step.

    Left-hand side: (1/M_p + alpha^2/K_eff)/dt storage + Darcy stiffness.
    Right-hand side: previous-step storage, thermal coupling against M_T,
    the fixed-stress relaxation history, the lagged volumetric-strain
    increment and nodal sources. Of the relaxation history only the
    pressure term acts: the thermal term 3 alpha alpha_s (T_new - T_it)/dt
    is zero, because heat is solved before flow within an iterate and
    T_it = T_new (ROADMAP open item 1).

    ``st`` is the ``strain_state`` of the (u, v) iterate, evaluated here at
    T_new. ``evol_prev`` is ``volumetric_strain_qp`` of the previous step's
    displacement; a time step evaluates it once, because it is fixed over
    the step's inner passes.
    """
    T_new_qp = scalar_qp(tables, T_new)
    tr_sign, phi = law.branch_porosity(st, T_new_qp - params.T0, params)
    K_eff = law.effective_bulk(st.v, tr_sign, params)
    if np.any(K_eff <= 0.0) or not np.all(np.isfinite(K_eff)):
        raise InvariantViolation("non-positive effective bulk modulus in flow kernel")
    alpha = law.biot_coefficient(st.v, tr_sign, params)
    inv_Mp = law.biot_modulus_inv(phi, alpha, params)
    inv_MT = law.thermal_storage_inv(phi, alpha, params)

    KE = _mass(tables, (inv_Mp + alpha * alpha / K_eff) / dt)
    KE += _laplacian_tensor(tables, st.perm / params.mu_f)

    p_prev_qp = scalar_qp(tables, p_prev)
    p_it_qp = scalar_qp(tables, p_it)
    T_prev_qp = scalar_qp(tables, T_prev)
    T_it_qp = T_new_qp  # heat is solved before flow within an iterate

    rhs_qp = (inv_Mp / dt) * p_prev_qp
    rhs_qp += (alpha * alpha / (K_eff * dt)) * p_it_qp
    rhs_qp += (inv_MT / dt) * (T_new_qp - T_prev_qp)
    rhs_qp -= (3.0 * alpha * params.alpha_s / dt) * (T_new_qp - T_it_qp)
    rhs_qp -= alpha * (st.eps_vol - evol_prev) / dt
    FE = _load(tables, rhs_qp)

    system = assemble_batched(tables, KE, FE, vector=False)
    if source is not None:
        system.rhs += source
    return system


# ---------------------------------------------------------------------------
# heat (advection + conduction with isotropic diffusion stabilization)
# ---------------------------------------------------------------------------

def build_heat_system(tables: ElementTables, params: MaterialParams,
                      st: law.StrainState, p_it: np.ndarray,
                      T_prev: np.ndarray, dt: float) -> SparseSystem:
    """Temperature system with the lagged Darcy flux q_f^(m-1).

    The operator is linear in T: storage is row-sum lumped (keeps the
    backward-Euler operator an M-matrix on rectangles), advection uses
    rho_f c_pf q_f . grad T, and conduction carries lambda_eff plus the
    balancing dissipation 1/2 s ||q_f|| h_e scaled by rho_f c_pf, which
    ``params.s_stab = 0`` turns off. ``st`` is the ``strain_state`` of the
    (u, v) iterate; the porosity is taken at T_prev.
    """
    phi = law.branch_porosity(st, scalar_qp(tables, T_prev) - params.T0, params)[1]
    rhoc = law.heat_capacity_eff(phi, params)
    lam = law.conductivity_eff(phi, params)
    q_f = darcy_flux_qp(tables, params, st.perm, p_it)

    # row sums of the consistent mass: by partition of unity they equal
    # the load vector of the coefficient
    diag = _load(tables, rhoc / dt)
    q_norm = np.hypot(q_f[..., 0], q_f[..., 1])
    lam_total = lam + law.stabilization_conductivity(q_norm, tables.h_e_qp, params)

    KE = _laplacian(tables, lam_total)
    adv = params.rho_f * params.c_pf
    if adv != 0.0:
        KE += _advection(tables, adv * q_f)
    idx = np.arange(4)
    KE[:, idx, idx] += diag
    FE = diag * T_prev[tables.conn]
    return assemble_batched(tables, KE, FE, vector=False)


# ---------------------------------------------------------------------------
# phase field
# ---------------------------------------------------------------------------

def build_phasefield_system(tables: ElementTables, params: MaterialParams,
                            gc_elem: np.ndarray, u_it: np.ndarray,
                            p_it: np.ndarray, T_it: np.ndarray) -> SparseSystem:
    """Quadratic phase-field subproblem min 1/2 v'Av - b'v.

    Driving terms (frozen at the previous iterate): 2(1-k) psi_plus and the
    pressure coefficient p eps_vol (1-k) H(Tr eps_e)(1-alpha_m), both
    multiplying v. Surface energy Gc/(4 c_n) [(1-v)^n / ell + ell |grad v|^2]
    contributes the gradient stiffness for both variants, and for n = 2 an
    extra mass term plus constant source; for n = 1 only a constant source.
    """
    dT_qp = scalar_qp(tables, T_it) - params.T0
    eps_e, ezz, tr_e, h = law.thermoelastic_split(strain_qp(tables, u_it), dT_qp,
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
    FE = _load(tables, src)
    return assemble_batched(tables, KE, FE, vector=False)
