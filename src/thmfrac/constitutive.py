"""Pointwise material laws for the damaged thermo-poroelastic medium.

Plane strain throughout: strains are Voigt triples [exx, eyy, gxy] with
eps_zz = 0, traces are taken over the in-plane components, and the
volumetric/deviatoric projectors are the 3D ones evaluated at eps_zz = 0.
All functions broadcast over leading array dimensions, so the same code
serves scalar unit tests and batched quadrature-point evaluation. The laws
take float arrays (strains as (..., 3) arrays) or floats and coerce
nothing; ``MaterialParams`` checks every constant once, so no law checks
the sign of what it forms from them.

Phase field convention: v = 1 intact, v = 0 fully broken. The Heaviside
flag ``tr_sign`` is H(Tr eps_e) (1 for opening, 0 for closing), formed by
``branch_flag`` from the trace ``elastic_trace`` and shared by the
stiffness, Biot coefficient and storage derivatives.

Each law has one evaluation, at the level of the staggered loop where its
inputs change. ``phase_state`` evaluates g(v), with its range check, and
the permeability's (1 - v)^xi once for a phase field; ``degraded_moduli``
forms, from that g and a flag, the record that the stiffness, K_eff,
Biot's coefficient and the damage-driven porosity all read.
``strain_state`` adds the strain-derived quantities of one (u, v) iterate.
``permeability`` forms the crack projector I - n n from the principal
strains, without the eigenvector n, and returns the tensor's components.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np


# storage, permeability and thermal constants: zero turns a term off
_NON_NEGATIVE = ("c_f", "perm_m", "lambda_s", "lambda_f", "c_ps", "c_pf", "rho_s", "rho_f")


@dataclass(frozen=True)
class MaterialParams:
    """Constitutive constants (SI units) and the choice of law variants.

    ``porosity_variant`` selects the porosity update ("phi1" strain-driven,
    "phi0" damage-driven) and ``n_at`` the surface-energy variant (AT1 or
    AT2). ``s_stab`` scales the balancing dissipation of the heat equation;
    ``s_stab = 0`` turns it off.

    ``K_m``, ``mu_shear``, ``K_s`` and ``c_n`` are derived: K_m from
    (E, nu), K_s from the Biot consistency K_m/K_s = 1 - alpha_m (infinite
    for alpha_m = 1), c_n from n_at.

    ``__post_init__`` holds every admissibility rule on a constant, so the
    laws formed from them (1/M_p, K_eff, the thermal properties and the
    balancing dissipation) are non-negative by construction.
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
    porosity_variant: str = "phi1"
    xi: float = 1.0
    s_stab: float = 0.15
    T0: float = 293.15

    def __post_init__(self):
        values = {f.name: getattr(self, f.name) for f in fields(self)}
        errs = [f"{name} must be finite, got {x}" for name, x in values.items()
                if isinstance(x, (int, float)) and not math.isfinite(x)]
        if errs:
            raise ValueError("; ".join(errs))
        # each check is written so that it fails for NaN
        if not self.E > 0.0:
            errs.append(f"E must be positive, got {self.E}")
        if not -1.0 < self.nu < 0.5:
            errs.append(f"nu must lie in (-1, 0.5), got {self.nu}")
        if not 0.0 <= self.alpha_m <= 1.0:
            errs.append(f"alpha_m must lie in [0, 1], got {self.alpha_m}")
        if not 0.0 <= self.phi_m < 1.0:
            errs.append(f"phi_m must lie in [0, 1), got {self.phi_m}")
        if not self.alpha_m >= self.phi_m:
            errs.append(f"alpha_m ({self.alpha_m}) must be >= phi_m ({self.phi_m})")
        if not 0.0 < self.k_res < 1.0:
            errs.append(f"k_res must lie in (0, 1), got {self.k_res}")
        if self.n_at not in (1, 2):
            errs.append(f"n_at must be 1 or 2, got {self.n_at}")
        if self.porosity_variant not in ("phi1", "phi0"):
            errs.append(f"porosity_variant must be 'phi1' or 'phi0', "
                        f"got {self.porosity_variant!r}")
        if not self.xi >= 1.0:
            errs.append(f"xi must be >= 1, got {self.xi}")
        if not 0.0 <= self.s_stab <= 1.0:
            errs.append(f"s_stab must lie in [0, 1], got {self.s_stab}")
        if not self.ell > 0.0:
            errs.append(f"ell must be positive, got {self.ell}")
        if not self.Gc > 0.0:
            errs.append(f"Gc must be positive, got {self.Gc}")
        if not self.mu_f > 0.0:
            errs.append(f"mu_f must be positive, got {self.mu_f}")
        errs += [f"{name} must be non-negative, got {values[name]}"
                 for name in _NON_NEGATIVE if not values[name] >= 0.0]
        # K_eff = frac K_m with frac in [k_res, 1]: positive and finite with K_m
        if not errs and not (self.K_m < math.inf and self.mu_shear < math.inf):
            errs.append(f"E = {self.E} with nu = {self.nu} overflows K_m or mu_shear")
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
class PhaseState:
    """Quadrature-point quantities fixed by the phase field alone (fields
    broadcast together)."""

    g: np.ndarray               # degradation g(v)
    crack: np.ndarray           # (1 - v)^xi of the fracture permeability


class Permeability(NamedTuple):
    """Components of the symmetric permeability tensor [m^2]."""

    xx: np.ndarray
    yy: np.ndarray
    xy: np.ndarray


@dataclass
class StrainState:
    """Quadrature-point quantities fixed by the total strain and the phase
    field (fields broadcast together).

    Temperature enters the derived laws only through the branch flag
    H(Tr eps_e); ``state_porosity`` adds the porosity at a given
    temperature.
    """

    eps: np.ndarray             # (..., 3) Voigt total strain
    g: np.ndarray               # degradation g(v) at the same points
    e1: np.ndarray              # largest principal strain
    width: np.ndarray           # [m]
    perm: Permeability          # [m^2]
    eps_vol: np.ndarray         # in-plane volumetric strain Tr eps


# ---------------------------------------------------------------------------
# degradation and energy split
# ---------------------------------------------------------------------------

def degradation(v, k_res: float):
    """g(v) = (1 - k) v^2 + k, clamping v within 1e-9 of [0, 1]."""
    # written so that it fails for NaN
    if not np.all((v >= -1e-9) & (v <= 1.0 + 1e-9)):
        raise ValueError("phase field outside [0, 1] beyond tolerance")
    v = np.clip(v, 0.0, 1.0)
    return (1.0 - k_res) * v * v + k_res


def trace2(eps):
    """In-plane trace of a Voigt strain."""
    return eps[..., 0] + eps[..., 1]


def heaviside(x):
    """H(x) = 1 for x >= 0, else 0 (paper convention)."""
    return np.where(x >= 0.0, 1.0, 0.0)


def deviatoric_norm2(eps, eps_zz=0.0):
    """dev(eps):dev(eps) with the 3D deviator (out-of-plane normal eps_zz)."""
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
    tr = trace2(eps_e) + eps_zz
    tr_pos = np.maximum(tr, 0.0)
    tr_neg = np.minimum(tr, 0.0)
    psi_plus = 0.5 * K_m * tr_pos * tr_pos + mu_shear * deviatoric_norm2(eps_e, eps_zz)
    psi_minus = 0.5 * K_m * tr_neg * tr_neg
    return psi_plus, psi_minus


# ---------------------------------------------------------------------------
# degraded moduli and effective stiffness
# ---------------------------------------------------------------------------

@dataclass
class DegradedModuli:
    """The moduli fixed by one (v, tr_sign) pair (fields broadcast together)."""

    g: np.ndarray               # degradation g(v)
    frac: np.ndarray            # K_eff / K_m = g(v) H(+) + H(-)
    K_eff: np.ndarray           # effective bulk modulus
    alpha: np.ndarray           # Biot's coefficient 1 - K_eff / K_s, in [alpha_m, 1]


def phase_state(v, params: MaterialParams) -> PhaseState:
    """Evaluate g(v), with its range check, and (1 - v)^xi once for the
    phase field ``v`` (clamped to [0, 1] in both)."""
    g = degradation(v, params.k_res)
    crack = (1.0 - np.clip(v, 0.0, 1.0)) ** params.xi
    return PhaseState(g=g, crack=crack)


def degraded_moduli(g, tr_sign, params: MaterialParams) -> DegradedModuli:
    """The laws that the degradation ``g`` = g(v) fixes at the flag H(Tr eps_e).

    K_eff = [g(v) H(+) + H(-)] K_m, and Biot's coefficient
    alpha(v) = 1 - K_eff / K_s = 1 - [g(v) H(+) + H(-)] (1 - alpha_m).
    """
    frac = g * tr_sign + (1.0 - tr_sign)
    return DegradedModuli(g=g, frac=frac, K_eff=frac * params.K_m,
                          alpha=1.0 - frac * (1.0 - params.alpha_m))


def effective_stiffness(moduli: DegradedModuli, params: MaterialParams) -> np.ndarray:
    """Plane-strain Voigt tangent 3 K_eff J + 2 g(v) mu K, shape (..., 3, 3)."""
    K_eff, gm = np.broadcast_arrays(moduli.K_eff, moduli.g * params.mu_shear)
    C = np.zeros(K_eff.shape + (3, 3))
    C[..., 0, 0] = K_eff + 4.0 * gm / 3.0
    C[..., 1, 1] = K_eff + 4.0 * gm / 3.0
    C[..., 0, 1] = K_eff - 2.0 * gm / 3.0
    C[..., 1, 0] = K_eff - 2.0 * gm / 3.0
    C[..., 2, 2] = gm
    return C


def elastic_trace(eps, dT, alpha_s: float):
    """Tr eps_e = (exx - a) + (eyy - a) - a of the elastic strain
    eps - alpha_s dT I (three components), a = alpha_s dT."""
    a = alpha_s * dT
    return (eps[..., 0] - a) + (eps[..., 1] - a) - a


def branch_flag(eps, dT, alpha_s: float):
    """H(Tr eps_e) of the total strain ``eps`` at temperature offset ``dT``,
    without forming the elastic strain."""
    return heaviside(elastic_trace(eps, dT, alpha_s))


def thermoelastic_split(eps, dT, alpha_s: float):
    """Elastic strain eps_e = eps - alpha_s dT I and its energy-split flag.

    Returns ``(eps_e, ezz, tr_e, tr_sign)``: the in-plane Voigt part of
    eps_e (shear unchanged), its out-of-plane component ezz = -alpha_s dT
    (the thermal strain is isotropic in 3D while the total strain has
    eps_zz = 0 under plane strain), Tr eps_e (``elastic_trace``) and
    H(Tr eps_e). Pass ``ezz`` as ``eps_zz`` to the energy/stress helpers.
    """
    eps_e = eps.copy()
    eps_e[..., 0] -= alpha_s * dT
    eps_e[..., 1] -= alpha_s * dT
    tr_e = elastic_trace(eps, dT, alpha_s)
    return eps_e, -alpha_s * dT, tr_e, heaviside(tr_e)


# ---------------------------------------------------------------------------
# principal strain, crack geometry, transport properties
# ---------------------------------------------------------------------------

def principal_strains(eps):
    """Eigenvalues (e1 >= e2) of the 2x2 strain from its Voigt form."""
    c = 0.5 * (eps[..., 0] + eps[..., 1])
    exy = 0.5 * eps[..., 2]
    r = np.hypot(0.5 * (eps[..., 0] - eps[..., 1]), exy)
    return c + r, c - r


def fracture_width(e1, h_e):
    """Smeared aperture w = h_e <e1>+ from the largest principal strain."""
    return h_e * np.maximum(e1, 0.0)


def porosity(e1, params: MaterialParams, moduli: DegradedModuli | None = None):
    """Porosity update of ``params.porosity_variant``, clamped to [phi_m, 1].

    "phi1": phi_m + <e1>+, with e1 the largest principal total strain;
    independent of the phase field and of the regularization length by
    construction.
    "phi0": damage-driven 1 - [g(v) H(+) + H(-)](1 - phi_m), read from the
    ``degraded_moduli`` record ``moduli``.
    """
    if params.porosity_variant == "phi1":
        phi = params.phi_m + np.maximum(e1, 0.0)
    else:
        if moduli is None:
            raise ValueError("phi0 variant needs the degraded moduli")
        phi = 1.0 - moduli.frac * (1.0 - params.phi_m)
    return np.clip(phi, params.phi_m, 1.0)


def permeability(crack, width, eps, e1, e2, params: MaterialParams) -> Permeability:
    """Components of K = perm_m I + (1-v)^xi (w^2/12)(I - n x n).

    ``crack`` is (1 - v)^xi (``phase_state``). n is the unit eigenvector of
    the largest principal strain e1 of the Voigt strain ``eps``, and
    I - n x n is the spectral projector (e1 I - eps)/(e1 - e2) onto the
    crack plane. Degenerate (isotropic) states, e1 - e2 <= 1e-12, take
    n = (1, 0).
    """
    enh = crack * (width * width / 12.0)
    gap = e1 - e2
    degen = gap <= 1e-12
    scale = enh / np.where(degen, 1.0, gap)
    kxx = params.perm_m + np.where(degen, 0.0, scale * (e1 - eps[..., 0]))
    kyy = params.perm_m + np.where(degen, enh, scale * (e1 - eps[..., 1]))
    kxy = np.where(degen, 0.0, scale * (-0.5 * eps[..., 2]))
    return Permeability(kxx, kyy, kxy)


# ---------------------------------------------------------------------------
# storage, thermal properties
# ---------------------------------------------------------------------------

def biot_modulus_inv(phi, alpha_v, params: MaterialParams):
    """1/M_p = phi c_f + (alpha - phi)/K_s >= 0 (alpha - phi clamped at 0)."""
    inv_Ks = 0.0 if math.isinf(params.K_s) else 1.0 / params.K_s
    return phi * params.c_f + np.maximum(alpha_v - phi, 0.0) * inv_Ks


def thermal_storage_inv(phi, alpha_v, params: MaterialParams):
    """1/M_T = phi alpha_f + 3 alpha_s (alpha - phi)."""
    return phi * params.alpha_f + 3.0 * params.alpha_s * np.maximum(alpha_v - phi, 0.0)


def heat_capacity_eff(phi, params: MaterialParams):
    """(rho c)_m = phi c_pf rho_f + (1 - phi) c_ps rho_s [J/(m^3 K)]."""
    return phi * params.c_pf * params.rho_f + (1.0 - phi) * params.c_ps * params.rho_s


def conductivity_eff(phi, params: MaterialParams):
    """lambda_eff = phi lambda_f + (1 - phi) lambda_s [W/(m K)]."""
    return phi * params.lambda_f + (1.0 - phi) * params.lambda_s


def stabilization_conductivity(q_norm, h_e, params: MaterialParams):
    """Added conductivity 1/2 s ||q|| h_e rho_f c_pf.

    The advective coefficient in the heat balance is rho_f c_pf q_f, so the
    balancing dissipation 1/2 s ||q|| h_e (a diffusivity [m^2/s]) enters the
    conduction term multiplied by the advecting fluid's volumetric heat
    capacity.
    """
    return 0.5 * params.s_stab * q_norm * h_e * params.rho_f * params.c_pf


def biot_modulus_pressure_drive(eps_vol, p, tr_sign, params: MaterialParams):
    """Coefficient of v in the damage driving term p^2/2 * d(1/M_p)/dv.

    The term is linear in v, v * p eps_vol (1-k) H(Tr eps_e) (1 - alpha_m),
    in product form; finite for all p, unlike the raw derivative
    (2 eps_vol / p) v (1-k) H (1 - alpha_m).
    """
    return p * eps_vol * (1.0 - params.k_res) * tr_sign * (1.0 - params.alpha_m)


# ---------------------------------------------------------------------------
# bundled evaluation
# ---------------------------------------------------------------------------

def strain_state(eps, h_e, phase: PhaseState, params: MaterialParams) -> StrainState:
    """Evaluate the temperature-independent quadrature-point quantities of
    the strain ``eps`` and the ``phase_state`` of v at once."""
    e1, e2 = principal_strains(eps)
    width = fracture_width(e1, h_e)
    perm = permeability(phase.crack, width, eps, e1, e2, params)
    return StrainState(eps=eps, g=phase.g, e1=e1, width=width, perm=perm,
                       eps_vol=trace2(eps))


def state_porosity(st: StrainState, dT, params: MaterialParams):
    """Porosity of ``params.porosity_variant`` at the strain state ``st`` and
    temperature offset ``dT``.

    The branch flag and the degraded moduli are formed only where the
    porosity law reads them ("phi0"); a kernel that needs them too forms
    the flag, the record and the porosity itself.
    """
    if params.porosity_variant == "phi1":
        return porosity(st.e1, params)
    moduli = degraded_moduli(st.g, branch_flag(st.eps, dT, params.alpha_s), params)
    return porosity(st.e1, params, moduli)
