"""Pointwise material laws for the damaged thermo-poroelastic medium.

Plane strain throughout: strains are Voigt triples [exx, eyy, gxy] with
eps_zz = 0, traces are taken over the in-plane components, and the
volumetric/deviatoric projectors are the 3D ones evaluated at eps_zz = 0.
All functions broadcast over leading array dimensions, so the same code
serves scalar unit tests and batched quadrature-point evaluation.

Phase field convention: v = 1 intact, v = 0 fully broken. The Heaviside
flag ``tr_sign`` is H(Tr eps_e) (1 for opening, 0 for closing), shared by
the stiffness, Biot coefficient and storage derivatives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvariantViolation


@dataclass(frozen=True)
class MaterialParams:
    """Constitutive constants (SI units).

    ``K_m``, ``mu_shear``, ``K_s`` and ``c_n`` are derived: K_m from
    (E, nu), K_s from the Biot consistency K_m/K_s = 1 - alpha_m (infinite
    for alpha_m = 1), c_n from the surface-energy variant n_at.
    """

    E: float
    nu: float
    alpha_m: float = 1.0
    phi_m: float = 0.0
    c_f: float = 0.0
    mu_f: float = 1e-3
    perm_m: float = 1e-15
    alpha_s: float = 0.0          # linear thermal expansion of solid [1/K]
    alpha_f: float = 0.0          # volumetric thermal expansion of fluid [1/K]
    lambda_s: float = 0.0
    lambda_f: float = 0.0
    c_ps: float = 0.0
    c_pf: float = 0.0
    rho_s: float = 0.0
    rho_f: float = 0.0
    Gc: float = 100.0
    ell: float = 0.1
    k_res: float = 1e-6
    n_at: int = 2                 # 1: linear local term, 2: quadratic
    xi: float = 1.0
    s_stab: float = 0.15
    v_ir: float = 0.05
    T0: float = 293.15
    T_ref: float = 293.15         # enters only the (cancelling) thermal energy

    def __post_init__(self):
        errs = []
        if self.E <= 0.0:
            errs.append(f"E must be positive, got {self.E}")
        if not -1.0 < self.nu < 0.5:
            errs.append(f"nu must lie in (-1, 0.5), got {self.nu}")
        if not 0.0 <= self.alpha_m <= 1.0:
            errs.append(f"alpha_m must lie in [0, 1], got {self.alpha_m}")
        if not 0.0 <= self.phi_m < 1.0:
            errs.append(f"phi_m must lie in [0, 1), got {self.phi_m}")
        if self.alpha_m < self.phi_m:
            errs.append(f"alpha_m ({self.alpha_m}) must be >= phi_m ({self.phi_m})")
        if not 0.0 < self.k_res < 1.0:
            errs.append(f"k_res must lie in (0, 1), got {self.k_res}")
        if self.n_at not in (1, 2):
            errs.append(f"n_at must be 1 or 2, got {self.n_at}")
        if self.xi < 1.0:
            errs.append(f"xi must be >= 1, got {self.xi}")
        if not 0.0 <= self.s_stab <= 1.0:
            errs.append(f"s_stab must lie in [0, 1], got {self.s_stab}")
        if self.ell <= 0.0:
            errs.append(f"ell must be positive, got {self.ell}")
        if errs:
            raise ValueError("; ".join(errs))

    @property
    def K_m(self) -> float:
        return self.E / (3.0 * (1.0 - 2.0 * self.nu))

    @property
    def mu_shear(self) -> float:
        return self.E / (2.0 * (1.0 + self.nu))

    @property
    def K_s(self) -> float:
        if self.alpha_m >= 1.0:
            return math.inf
        return self.K_m / (1.0 - self.alpha_m)

    @property
    def c_n(self) -> float:
        # integral of (1 - s)^(n/2) over [0, 1]
        return 2.0 / 3.0 if self.n_at == 1 else 0.5


@dataclass
class QPState:
    """Derived quadrature-point quantities (fields broadcast together)."""

    crack_normal: np.ndarray    # (..., 2) unit e1
    width: np.ndarray           # [m]
    porosity: np.ndarray
    perm: np.ndarray            # (..., 2, 2) [m^2]
    tr_sign: np.ndarray         # H(Tr eps_e)
    alpha: np.ndarray = field(default=None)  # effective Biot coefficient


# ---------------------------------------------------------------------------
# degradation and energy split
# ---------------------------------------------------------------------------

def degradation(v, k_res: float):
    """g(v) = (1 - k) v^2 + k, clamping v within 1e-9 of [0, 1]."""
    v = np.asarray(v, dtype=float)
    if np.any(v < -1e-9) or np.any(v > 1.0 + 1e-9):
        raise ValueError("phase field outside [0, 1] beyond tolerance")
    v = np.clip(v, 0.0, 1.0)
    return (1.0 - k_res) * v * v + k_res


def degradation_dv(v, k_res: float):
    """dg/dv = 2 (1 - k) v."""
    v = np.clip(np.asarray(v, dtype=float), 0.0, 1.0)
    return 2.0 * (1.0 - k_res) * v


def trace2(eps):
    """In-plane trace of a Voigt strain."""
    eps = np.asarray(eps, dtype=float)
    return eps[..., 0] + eps[..., 1]


def heaviside(x):
    """H(x) = 1 for x >= 0, else 0 (paper convention)."""
    return np.where(np.asarray(x, dtype=float) >= 0.0, 1.0, 0.0)


def deviatoric_norm2(eps, eps_zz=0.0):
    """dev(eps):dev(eps) with the 3D deviator (out-of-plane normal eps_zz)."""
    eps = np.asarray(eps, dtype=float)
    tr = trace2(eps) + eps_zz
    dxx = eps[..., 0] - tr / 3.0
    dyy = eps[..., 1] - tr / 3.0
    dzz = eps_zz - tr / 3.0
    exy = 0.5 * eps[..., 2]
    return dxx * dxx + dyy * dyy + dzz * dzz + 2.0 * exy * exy


def energy_split_vd(eps_e, K_m: float, mu_shear: float, eps_zz=0.0):
    """Volumetric-deviatoric split of the elastic strain energy.

    psi_plus = K_m/2 <tr>+^2 + mu dev:dev, psi_minus = K_m/2 <tr>-^2.
    The two add up exactly to the undegraded energy 1/2 C_m : eps : eps.
    ``eps_zz`` carries the out-of-plane elastic strain (-alpha_s dT in
    plane strain with thermal contraction; the total strain has eps_zz = 0).
    """
    eps_e = np.asarray(eps_e, dtype=float)
    tr = trace2(eps_e) + eps_zz
    tr_pos = np.maximum(tr, 0.0)
    tr_neg = np.minimum(tr, 0.0)
    psi_plus = 0.5 * K_m * tr_pos * tr_pos + mu_shear * deviatoric_norm2(eps_e, eps_zz)
    psi_minus = 0.5 * K_m * tr_neg * tr_neg
    return psi_plus, psi_minus


# ---------------------------------------------------------------------------
# effective stiffness and stresses
# ---------------------------------------------------------------------------

def effective_bulk(v, tr_sign, params: MaterialParams):
    """K_eff = [g(v) H(+) + H(-)] K_m."""
    g = degradation(v, params.k_res)
    h = np.asarray(tr_sign, dtype=float)
    return (g * h + (1.0 - h)) * params.K_m


def effective_stiffness(v, tr_sign, params: MaterialParams) -> np.ndarray:
    """Plane-strain Voigt tangent 3 K_eff J + 2 g(v) mu K, shape (..., 3, 3)."""
    K_eff = effective_bulk(v, tr_sign, params)
    gm = degradation(v, params.k_res) * params.mu_shear
    K_eff, gm = np.broadcast_arrays(K_eff, gm)
    C = np.zeros(K_eff.shape + (3, 3))
    C[..., 0, 0] = K_eff + 4.0 * gm / 3.0
    C[..., 1, 1] = K_eff + 4.0 * gm / 3.0
    C[..., 0, 1] = K_eff - 2.0 * gm / 3.0
    C[..., 1, 0] = K_eff - 2.0 * gm / 3.0
    C[..., 2, 2] = gm
    return C


def effective_stress(eps_e, v, tr_sign, params: MaterialParams, eps_zz=0.0) -> np.ndarray:
    """In-plane Voigt effective stress K_eff tr(eps_e) I + 2 g mu dev(eps_e)."""
    eps_e = np.asarray(eps_e, dtype=float)
    tr = trace2(eps_e) + eps_zz
    K_eff = effective_bulk(v, tr_sign, params)
    gm = degradation(v, params.k_res) * params.mu_shear
    sxx = K_eff * tr + 2.0 * gm * (eps_e[..., 0] - tr / 3.0)
    syy = K_eff * tr + 2.0 * gm * (eps_e[..., 1] - tr / 3.0)
    sxy = gm * eps_e[..., 2]
    return np.stack([sxx, syy, sxy], axis=-1)


def biot_coefficient(v, tr_sign, params: MaterialParams):
    """alpha(v) = 1 - [g(v) H(+) + H(-)] (1 - alpha_m), in [alpha_m, 1]."""
    g = degradation(v, params.k_res)
    h = np.asarray(tr_sign, dtype=float)
    return 1.0 - (g * h + (1.0 - h)) * (1.0 - params.alpha_m)


def elastic_strain(eps, dT, alpha_s: float) -> np.ndarray:
    """In-plane part of eps_e = eps - alpha_s dT I (shear unchanged).

    The thermal strain is isotropic in 3D, so under plane strain the
    elastic strain also carries an out-of-plane component
    eps_zz,e = -alpha_s dT (the total strain has eps_zz = 0); pass it as
    ``eps_zz`` to the trace/energy/stress helpers.
    """
    eps = np.asarray(eps, dtype=float)
    dT = np.asarray(dT, dtype=float)
    out = eps.copy()
    out[..., 0] -= alpha_s * dT
    out[..., 1] -= alpha_s * dT
    return out


def elastic_trace(eps, dT, alpha_s: float):
    """Tr(eps_e) = Tr(eps) - 3 alpha_s dT under plane strain."""
    return trace2(eps) - 3.0 * alpha_s * np.asarray(dT, dtype=float)


def total_stress(eps, v, p, T, params: MaterialParams) -> np.ndarray:
    """Total Cauchy stress (2x2, tension positive).

    sigma = C_eff(v) : eps_e - alpha(v) p I, with the thermal contraction
    entering through eps_e = eps - alpha_s (T - T0) I; equivalently the
    -3 alpha_s K_eff dT I thermal stress.
    """
    dT = np.asarray(T, dtype=float) - params.T0
    eps_e = elastic_strain(eps, dT, params.alpha_s)
    ezz = -params.alpha_s * dT
    h = heaviside(trace2(eps_e) + ezz)
    s = effective_stress(eps_e, v, h, params, eps_zz=ezz)
    a = biot_coefficient(v, h, params)
    p = np.asarray(p, dtype=float)
    sxx = s[..., 0] - a * p
    syy = s[..., 1] - a * p
    sxy = s[..., 2]
    out = np.empty(np.asarray(sxx).shape + (2, 2))
    out[..., 0, 0] = sxx
    out[..., 1, 1] = syy
    out[..., 0, 1] = sxy
    out[..., 1, 0] = sxy
    return out


# ---------------------------------------------------------------------------
# principal strain, crack geometry, transport properties
# ---------------------------------------------------------------------------

def principal_strains(eps):
    """Eigenvalues (e1 >= e2) of the 2x2 strain from its Voigt form."""
    eps = np.asarray(eps, dtype=float)
    c = 0.5 * (eps[..., 0] + eps[..., 1])
    exy = 0.5 * eps[..., 2]
    r = np.hypot(0.5 * (eps[..., 0] - eps[..., 1]), exy)
    return c + r, c - r


def crack_normal(eps, degenerate_tol: float = 1e-12) -> np.ndarray:
    """Unit eigenvector of the largest principal strain, shape (..., 2).

    Deterministic sign (first nonzero component positive); degenerate
    (isotropic) states return (1, 0).
    """
    eps = np.asarray(eps, dtype=float)
    exx, eyy, exy = eps[..., 0], eps[..., 1], 0.5 * eps[..., 2]
    e1, e2 = principal_strains(eps)
    degen = (e1 - e2) <= degenerate_tol
    # two candidate (unnormalized) eigenvectors; pick the better conditioned
    vx_a, vy_a = e1 - eyy, exy
    vx_b, vy_b = exy, e1 - exx
    use_a = np.hypot(vx_a, vy_a) >= np.hypot(vx_b, vy_b)
    vx = np.where(use_a, vx_a, vx_b)
    vy = np.where(use_a, vy_a, vy_b)
    norm = np.hypot(vx, vy)
    norm = np.where(norm == 0.0, 1.0, norm)
    vx, vy = vx / norm, vy / norm
    # sign convention: first nonzero component positive
    flip = np.where(np.abs(vx) > 1e-14, vx < 0.0, vy < 0.0)
    vx = np.where(flip, -vx, vx)
    vy = np.where(flip, -vy, vy)
    vx = np.where(degen, 1.0, vx)
    vy = np.where(degen, 0.0, vy)
    return np.stack([vx, vy], axis=-1)


def fracture_width(eps, h_e, variant: str = "eps1"):
    """Smeared aperture w = h_e <e1>+ ("eps1") or h_e <tr eps>+ ("vol")."""
    if variant == "eps1":
        e, _ = principal_strains(eps)
    elif variant == "vol":
        e = trace2(eps)
    else:
        raise ValueError(f"unknown width variant {variant!r}")
    return np.asarray(h_e, dtype=float) * np.maximum(e, 0.0)


def porosity(eps, params: MaterialParams, variant: str = "phi1",
             v=None, tr_sign=None):
    """Porosity update, clamped to [phi_m, 1].

    "phi1": phi_m + <eps1>+ of the total strain; independent of the phase
    field and of the regularization length by construction.
    "phi0": damage-driven 1 - [g(v) H(+) + H(-)](1 - phi_m).
    """
    if variant == "phi1":
        e1, _ = principal_strains(eps)
        phi = params.phi_m + np.maximum(e1, 0.0)
    elif variant == "phi0":
        if v is None or tr_sign is None:
            raise ValueError("phi0 variant needs v and tr_sign")
        g = degradation(v, params.k_res)
        h = np.asarray(tr_sign, dtype=float)
        phi = 1.0 - (g * h + (1.0 - h)) * (1.0 - params.phi_m)
    else:
        raise ValueError(f"unknown porosity variant {variant!r}")
    return np.clip(phi, params.phi_m, 1.0)


def permeability(v, width, normal, params: MaterialParams) -> np.ndarray:
    """K = perm_m I + (1-v)^xi (w^2/12)(I - n x n), shape (..., 2, 2)."""
    v = np.clip(np.asarray(v, dtype=float), 0.0, 1.0)
    w = np.asarray(width, dtype=float)
    n = np.asarray(normal, dtype=float)
    enh = (1.0 - v) ** params.xi * (w * w / 12.0)
    nx, ny = n[..., 0], n[..., 1]
    kxx = params.perm_m + enh * (1.0 - nx * nx)
    kyy = params.perm_m + enh * (1.0 - ny * ny)
    kxy = enh * (-nx * ny)
    out = np.empty(np.broadcast(kxx, kyy).shape + (2, 2))
    out[..., 0, 0] = kxx
    out[..., 1, 1] = kyy
    out[..., 0, 1] = kxy
    out[..., 1, 0] = kxy
    return out


# ---------------------------------------------------------------------------
# storage, thermal properties
# ---------------------------------------------------------------------------

def biot_modulus_inv(phi, alpha_v, params: MaterialParams):
    """1/M_p = phi c_f + (alpha - phi)/K_s >= 0 (alpha - phi clamped at 0)."""
    phi = np.asarray(phi, dtype=float)
    alpha_v = np.asarray(alpha_v, dtype=float)
    diff = np.maximum(alpha_v - phi, 0.0)
    inv_Ks = 0.0 if math.isinf(params.K_s) else 1.0 / params.K_s
    out = phi * params.c_f + diff * inv_Ks
    if np.any(out < 0.0):
        raise InvariantViolation("negative storage coefficient 1/M_p")
    return out


def thermal_storage_inv(phi, alpha_v, params: MaterialParams):
    """1/M_T = phi alpha_f + 3 alpha_s (alpha - phi)."""
    phi = np.asarray(phi, dtype=float)
    alpha_v = np.asarray(alpha_v, dtype=float)
    return phi * params.alpha_f + 3.0 * params.alpha_s * np.maximum(alpha_v - phi, 0.0)


def heat_capacity_eff(phi, params: MaterialParams):
    """(rho c)_m = phi c_pf rho_f + (1 - phi) c_ps rho_s [J/(m^3 K)]."""
    phi = np.asarray(phi, dtype=float)
    return phi * params.c_pf * params.rho_f + (1.0 - phi) * params.c_ps * params.rho_s


def conductivity_eff(phi, params: MaterialParams):
    """lambda_eff = phi lambda_f + (1 - phi) lambda_s [W/(m K)]."""
    phi = np.asarray(phi, dtype=float)
    return phi * params.lambda_f + (1.0 - phi) * params.lambda_s


def stabilization_diffusivity(q_norm, h_e, s_stab: float):
    """Balancing isotropic dissipation 1/2 s ||q|| h_e [m^2/s]."""
    return 0.5 * s_stab * np.asarray(q_norm, dtype=float) * np.asarray(h_e, dtype=float)


def stabilization_conductivity(q_norm, h_e, params: MaterialParams):
    """Added conductivity: the balancing dissipation scaled by rho_f c_pf.

    The advective coefficient in the heat balance is rho_f c_pf q_f, so the
    dissipation 1/2 s ||q|| h_e (a diffusivity) enters the conduction term
    multiplied by the advecting fluid's volumetric heat capacity.
    """
    return stabilization_diffusivity(q_norm, h_e, params.s_stab) * params.rho_f * params.c_pf


def biot_modulus_pressure_drive(eps_vol, p, v, tr_sign, params: MaterialParams):
    """Damage driving term p^2/2 * d(1/M_p)/dv, in product form.

    Equals p * eps_vol * v (1-k) H(Tr eps_e) (1 - alpha_m); finite for all
    p, unlike the raw derivative (2 eps_vol / p) v (1-k) H (1 - alpha_m).
    """
    v = np.clip(np.asarray(v, dtype=float), 0.0, 1.0)
    h = np.asarray(tr_sign, dtype=float)
    return (np.asarray(p, dtype=float) * np.asarray(eps_vol, dtype=float)
            * v * (1.0 - params.k_res) * h * (1.0 - params.alpha_m))


# ---------------------------------------------------------------------------
# bundled evaluation
# ---------------------------------------------------------------------------

def qp_state(eps, dT, h_e, v, params: MaterialParams,
             width_variant: str = "eps1",
             porosity_variant: str = "phi1") -> QPState:
    """Evaluate all derived quadrature-point quantities at once."""
    eps = np.asarray(eps, dtype=float)
    eps_e = elastic_strain(eps, dT, params.alpha_s)
    ezz = -params.alpha_s * np.asarray(dT, dtype=float)
    tr_sign = heaviside(trace2(eps_e) + ezz)
    normal = crack_normal(eps)
    width = fracture_width(eps, h_e, width_variant)
    phi = porosity(eps, params, porosity_variant, v=v, tr_sign=tr_sign)
    perm = permeability(v, width, normal, params)
    alpha = biot_coefficient(v, tr_sign, params)
    return QPState(crack_normal=normal, width=width, porosity=phi,
                   perm=perm, tr_sign=tr_sign, alpha=alpha)
