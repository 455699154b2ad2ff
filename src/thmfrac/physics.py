"""Element kernels for the four staggered sub-problems.

Each builder returns the assembled linear system of one sub-solve (the
operators are linear once the lagged staggered quantities are frozen):

* phase field  — bound-constrained quadratic in v, driven by the stored
  tensile energy and the pressure term p^2/2 d(1/M_p)/dv in product form;
* heat         — lumped storage + advection with the lagged Darcy flux +
  conduction with the isotropic balancing dissipation;
* flow         — backward-Euler mass balance with the fixed-stress
  relaxation terms (pressure and thermal) and the lagged volumetric
  strain increment on the right-hand side;
* mechanics    — degraded effective stress with pressure and thermal
  contributions moved to the right-hand side. Its operator depends only
  on (v, branch flags) and is built apart from the right-hand side, so a
  caller can keep it while those stay fixed.

All quadrature-point fields are evaluated in bulk as (n_elems, 4) arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

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


@lru_cache(maxsize=256)
def _einsum_path(subscripts: str, shapes: tuple[tuple[int, ...], ...]) -> list:
    # the greedy search reads only the operand shapes
    views = [np.broadcast_to(0.0, shape) for shape in shapes]
    return np.einsum_path(subscripts, *views, optimize=True)[0]


def _contract(subscripts: str, *operands: np.ndarray) -> np.ndarray:
    """``np.einsum(..., optimize=True)`` with the path planned once per shapes."""
    path = _einsum_path(subscripts, tuple(op.shape for op in operands))
    return np.einsum(subscripts, *operands, optimize=path)


# ---------------------------------------------------------------------------
# quadrature-point interpolation
# ---------------------------------------------------------------------------

def scalar_qp(tables: ElementTables, f: np.ndarray) -> np.ndarray:
    """Nodal scalar -> (E, 4) quadrature-point values."""
    return np.einsum("qi,ei->eq", tables.N, f[tables.conn])


def grad_qp(tables: ElementTables, f: np.ndarray) -> np.ndarray:
    """Nodal scalar -> (E, 4, 2) quadrature-point gradients."""
    return np.einsum("eqid,ei->eqd", tables.dNdx, f[tables.conn])


def strain_qp(tables: ElementTables, u: np.ndarray) -> np.ndarray:
    """Nodal displacement -> (E, 4, 3) Voigt strains."""
    return np.einsum("eqsa,ea->eqs", tables.B, u[tables.dofs_vec])


def darcy_flux_qp(tables: ElementTables, params: MaterialParams,
                  perm: np.ndarray, p: np.ndarray) -> np.ndarray:
    """q_f = -(K/mu) grad p at quadrature points, shape (E, 4, 2)."""
    gp = grad_qp(tables, p)
    return -np.einsum("eqcd,eqd->eqc", perm, gp) / params.mu_f


def qp_state(tables: ElementTables, params: MaterialParams, u: np.ndarray,
             T: np.ndarray, v: np.ndarray, width_variant: str = "eps1",
             porosity_variant: str = "phi1") -> law.QPState:
    """Constitutive state on all quadrature points for given nodal fields."""
    eps = strain_qp(tables, u)
    dT = scalar_qp(tables, T) - params.T0
    v_qp = scalar_qp(tables, v)
    return law.qp_state(eps, dT, tables.h_e_qp, v_qp, params,
                        width_variant=width_variant,
                        porosity_variant=porosity_variant)


# ---------------------------------------------------------------------------
# element matrix building blocks
# ---------------------------------------------------------------------------

def _mass(tables: ElementTables, coeff: np.ndarray) -> np.ndarray:
    """Consistent mass element matrices for a (E, 4) coefficient field."""
    return np.einsum("eq,qa,qb->eab", coeff * tables.detJw, tables.N, tables.N)


def _lumped_diag(tables: ElementTables, coeff: np.ndarray) -> np.ndarray:
    """Row-sum lumped mass diagonals (E, 4); exact via partition of unity."""
    return np.einsum("eq,qa->ea", coeff * tables.detJw, tables.N)


def _laplacian(tables: ElementTables, coeff: np.ndarray) -> np.ndarray:
    """Scalar-coefficient stiffness for a (E, 4) conductivity field."""
    return _contract("eq,eqad,eqbd->eab", coeff * tables.detJw, tables.dNdx, tables.dNdx)


def _laplacian_tensor(tables: ElementTables, K: np.ndarray) -> np.ndarray:
    """Tensor-coefficient stiffness for a (E, 4, 2, 2) field."""
    return _contract("eqac,eqcd,eq,eqbd->eab", tables.dNdx, K, tables.detJw, tables.dNdx)


def _load(tables: ElementTables, source: np.ndarray) -> np.ndarray:
    """Element load vectors for a (E, 4) quadrature-point source density."""
    return np.einsum("eq,qa->ea", source * tables.detJw, tables.N)


# ---------------------------------------------------------------------------
# mechanics
# ---------------------------------------------------------------------------

def _mech_point_fields(tables, params, v, p, T):
    v_qp = scalar_qp(tables, v)
    p_qp = scalar_qp(tables, p)
    dT_qp = scalar_qp(tables, T) - params.T0
    return v_qp, p_qp, dT_qp


def mechanics_branch_flags(tables: ElementTables, params: MaterialParams,
                           u: np.ndarray, T: np.ndarray) -> np.ndarray:
    """Opening/closing Heaviside flags H(Tr eps_e) at quadrature points."""
    dT = scalar_qp(tables, T) - params.T0
    return law.heaviside(law.elastic_trace(strain_qp(tables, u), dT, params.alpha_s))


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
    C = law.effective_stiffness(v_qp, tr_sign, params)
    W = C * tables.detJw[..., None, None]
    KE = _contract("eqsa,eqst,eqtb->eab", tables.B, W, tables.B)
    return MechanicsOperator(v=v.copy(), tr_sign=tr_sign.copy(),
                             matrix=tables.vector_pattern.matrix(KE),
                             alpha=law.biot_coefficient(v_qp, tr_sign, params),
                             K_eff=law.effective_bulk(v_qp, tr_sign, params))


def mechanics_rhs(tables: ElementTables, params: MaterialParams, op: MechanicsOperator,
                  p: np.ndarray, T: np.ndarray, f_ext: np.ndarray) -> np.ndarray:
    """Right-hand side f of ``op``: pressure and thermal terms plus loads."""
    p_qp = scalar_qp(tables, p)
    dT_qp = scalar_qp(tables, T) - params.T0
    # rhs integrand in Voigt form: alpha p I + 3 K_eff alpha_s dT I
    s = op.alpha * p_qp + 3.0 * op.K_eff * params.alpha_s * dT_qp
    sig = s[..., None] * _VOIGT_ID
    FE = _contract("eqsa,eqs,eq->ea", tables.B, sig, tables.detJw)
    rhs = scatter_vector(tables, FE, vector=True)
    rhs += f_ext
    return rhs


def mechanics_residual(tables: ElementTables, params: MaterialParams,
                       u: np.ndarray, v: np.ndarray, p: np.ndarray,
                       T: np.ndarray, f_ext: np.ndarray) -> np.ndarray:
    """Internal force of the evaluated stress state minus external loads."""
    v_qp, p_qp, dT_qp = _mech_point_fields(tables, params, v, p, T)
    eps = strain_qp(tables, u)
    eps_e = law.elastic_strain(eps, dT_qp, params.alpha_s)
    ezz = -params.alpha_s * dT_qp
    h = law.heaviside(law.trace2(eps_e) + ezz)
    sig = law.effective_stress(eps_e, v_qp, h, params, eps_zz=ezz)
    alpha = law.biot_coefficient(v_qp, h, params)
    sig = sig - (alpha * p_qp)[..., None] * _VOIGT_ID
    FE = _contract("eqsa,eqs,eq->ea", tables.B, sig, tables.detJw)
    return scatter_vector(tables, FE, vector=True) - f_ext


# ---------------------------------------------------------------------------
# flow (fixed-stress split)
# ---------------------------------------------------------------------------

def build_flow_system(tables: ElementTables, params: MaterialParams,
                      v: np.ndarray, u_it: np.ndarray, p_it: np.ndarray,
                      T_new: np.ndarray, u_prev: np.ndarray,
                      p_prev: np.ndarray, T_prev: np.ndarray, dt: float,
                      source: np.ndarray | None = None,
                      porosity_variant: str = "phi1",
                      width_variant: str = "eps1") -> SparseSystem:
    """Pressure system of the fixed-stress step.

    Left-hand side: (1/M_p + alpha^2/K_eff)/dt storage + Darcy stiffness.
    Right-hand side: previous-step storage, thermal coupling against M_T,
    the fixed-stress relaxation history, the lagged volumetric-strain
    increment and nodal sources.
    """
    st = qp_state(tables, params, u_it, T_new, v,
                  width_variant=width_variant, porosity_variant=porosity_variant)
    v_qp = scalar_qp(tables, v)
    K_eff = law.effective_bulk(v_qp, st.tr_sign, params)
    if np.any(K_eff <= 0.0) or not np.all(np.isfinite(K_eff)):
        raise InvariantViolation("non-positive effective bulk modulus in flow kernel")
    alpha = st.alpha
    inv_Mp = law.biot_modulus_inv(st.porosity, alpha, params)
    inv_MT = law.thermal_storage_inv(st.porosity, alpha, params)

    KE = _mass(tables, (inv_Mp + alpha * alpha / K_eff) / dt)
    KE += _laplacian_tensor(tables, st.perm / params.mu_f)

    p_prev_qp = scalar_qp(tables, p_prev)
    p_it_qp = scalar_qp(tables, p_it)
    T_new_qp = scalar_qp(tables, T_new)
    T_prev_qp = scalar_qp(tables, T_prev)
    T_it_qp = T_new_qp  # heat is solved before flow within an iterate
    evol_it = law.trace2(strain_qp(tables, u_it))
    evol_prev = law.trace2(strain_qp(tables, u_prev))

    rhs_qp = (inv_Mp / dt) * p_prev_qp
    rhs_qp += (alpha * alpha / (K_eff * dt)) * p_it_qp
    rhs_qp += (inv_MT / dt) * (T_new_qp - T_prev_qp)
    rhs_qp -= (3.0 * alpha * params.alpha_s / dt) * (T_new_qp - T_it_qp)
    rhs_qp -= alpha * (evol_it - evol_prev) / dt
    FE = _load(tables, rhs_qp)

    system = assemble_batched(tables, KE, FE, vector=False)
    if source is not None:
        system.rhs += source
    return system


# ---------------------------------------------------------------------------
# heat (advection + conduction with isotropic diffusion stabilization)
# ---------------------------------------------------------------------------

def build_heat_system(tables: ElementTables, params: MaterialParams,
                      v: np.ndarray, u_it: np.ndarray, p_it: np.ndarray,
                      T_prev: np.ndarray, dt: float,
                      stabilization: bool = True,
                      source: np.ndarray | None = None,
                      porosity_variant: str = "phi1",
                      width_variant: str = "eps1") -> SparseSystem:
    """Temperature system with the lagged Darcy flux q_f^(m-1).

    The operator is linear in T: storage is row-sum lumped (keeps the
    backward-Euler operator an M-matrix on rectangles), advection uses
    rho_f c_pf q_f . grad T, and conduction carries lambda_eff plus the
    balancing dissipation 1/2 s ||q_f|| h_e scaled by rho_f c_pf.
    """
    st = qp_state(tables, params, u_it, T_prev, v,
                  width_variant=width_variant, porosity_variant=porosity_variant)
    rhoc = law.heat_capacity_eff(st.porosity, params)
    lam = law.conductivity_eff(st.porosity, params)
    q_f = darcy_flux_qp(tables, params, st.perm, p_it)

    diag = _lumped_diag(tables, rhoc / dt)
    lam_total = lam
    if stabilization:
        q_norm = np.hypot(q_f[..., 0], q_f[..., 1])
        lam_total = lam + law.stabilization_conductivity(q_norm, tables.h_e_qp, params)

    KE = _laplacian(tables, lam_total)
    adv = params.rho_f * params.c_pf
    if adv != 0.0:
        KE += _contract("eq,qa,eqd,eqbd->eab", adv * tables.detJw, tables.N,
                        q_f, tables.dNdx)
    idx = np.arange(4)
    KE[:, idx, idx] += diag
    FE = diag * T_prev[tables.conn]

    system = assemble_batched(tables, KE, FE, vector=False)
    if source is not None:
        system.rhs += source
    return system


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
    eps = strain_qp(tables, u_it)
    dT_qp = scalar_qp(tables, T_it) - params.T0
    eps_e = law.elastic_strain(eps, dT_qp, params.alpha_s)
    ezz = -params.alpha_s * dT_qp
    tr_e = law.trace2(eps_e) + ezz
    h = law.heaviside(tr_e)
    psi_plus, _ = law.energy_split_vd(eps_e, params.K_m, params.mu_shear, eps_zz=ezz)
    p_qp = scalar_qp(tables, p_it)
    # coefficient of v in p^2/2 d(1/Mp)/dv (product form)
    drive_p = p_qp * tr_e * (1.0 - params.k_res) * h * (1.0 - params.alpha_m)

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
