import math
from dataclasses import replace

import numpy as np
import pytest

from element_loop import crack_normal, permeability_from_normal, permeability_tensor
from thmfrac import constitutive as law
from thmfrac.constitutive import MaterialParams
from thmfrac.errors import InvariantViolation


def random_strain(rng, scale=1e-3, n=None):
    shape = (3,) if n is None else (n, 3)
    return rng.uniform(-scale, scale, size=shape)


def dense_stiffness(K_m, mu, g=1.0, K_eff=None):
    """Plane-strain Voigt stiffness 3 K J + 2 g mu K, assembled by hand."""
    K = K_m if K_eff is None else K_eff
    gm = g * mu
    return np.array([
        [K + 4.0 * gm / 3.0, K - 2.0 * gm / 3.0, 0.0],
        [K - 2.0 * gm / 3.0, K + 4.0 * gm / 3.0, 0.0],
        [0.0, 0.0, gm],
    ])


def moduli_of(v, h, mp):
    return law.degraded_moduli(law.degradation(v, mp.k_res), h, mp)


def stiffness(v, h, mp):
    return law.effective_stiffness(moduli_of(v, h, mp), mp)


def biot(v, h, mp):
    return moduli_of(v, h, mp).alpha


class TestMaterialParams:
    def test_derived_moduli_chain(self, generic_params):
        mp = generic_params
        assert mp.K_m == pytest.approx(mp.E / (3 * (1 - 2 * mp.nu)))
        assert mp.mu_shear == pytest.approx(mp.E / (2 * (1 + mp.nu)))
        # Biot consistency K_m / K_s = 1 - alpha_m
        assert mp.K_m / mp.K_s == pytest.approx(1.0 - mp.alpha_m, rel=1e-10)

    def test_incompressible_grain_limit(self):
        mp = MaterialParams(E=1e9, nu=0.3, alpha_m=1.0, phi_m=0.3)
        assert math.isinf(mp.K_s)

    def test_normalization_matches_variant(self):
        assert MaterialParams(E=1.0, nu=0.0, n_at=1).c_n == pytest.approx(2.0 / 3.0)
        assert MaterialParams(E=1.0, nu=0.0, n_at=2).c_n == pytest.approx(0.5)
        # c_n is the integral of (1 - s)^(n/2) over [0, 1]
        for n in (1, 2):
            s = np.linspace(0.0, 1.0, 200001)
            quad = np.trapezoid((1.0 - s) ** (n / 2.0), s)
            assert MaterialParams(E=1.0, nu=0.0, n_at=n).c_n == pytest.approx(quad, abs=1e-8)

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            MaterialParams(E=-1.0, nu=0.0)
        with pytest.raises(ValueError):
            MaterialParams(E=1.0, nu=0.6)
        with pytest.raises(ValueError):
            MaterialParams(E=1.0, nu=0.0, alpha_m=0.2, phi_m=0.5)
        with pytest.raises(ValueError):
            MaterialParams(E=1.0, nu=0.0, n_at=3)


class TestDegradation:
    def test_limits(self):
        assert law.degradation(1.0, 1e-6) == pytest.approx(1.0)
        assert law.degradation(0.0, 1e-6) == pytest.approx(1e-6)

    def test_direct_value(self):
        assert law.degradation(0.5, 1e-6) == pytest.approx(0.25000075)

    def test_clamps_within_tolerance_rejects_beyond(self):
        assert law.degradation(1.0 + 1e-10, 0.0) == pytest.approx(1.0)
        with pytest.raises(ValueError):
            law.degradation(1.1, 0.0)

    def test_monotone_in_v(self, rng):
        v = np.sort(rng.uniform(0.0, 1.0, 64))
        assert np.all(np.diff(law.degradation(v, 1e-6)) >= 0.0)


class TestEnergySplit:
    def test_zero_strain(self):
        pp, pm = law.energy_split_vd(np.zeros(3), 1e9, 5e8)
        assert pp == 0.0 and pm == 0.0

    def test_pure_deviatoric_has_no_negative_part(self):
        eps = np.array([1e-3, -1e-3, 4e-4])
        pp, pm = law.energy_split_vd(eps, 1e9, 5e8)
        assert pm == 0.0
        assert pp > 0.0

    def test_plane_strain_hydrostatic_compression(self):
        # eps = -a I (2D): in-plane trace -2a is compressive, and the 3D
        # deviator of a plane-strain state keeps a nonzero shear energy
        K_m, mu = 2e9, 8e8
        a = 1e-3
        eps = np.array([-a, -a, 0.0])
        pp, pm = law.energy_split_vd(eps, K_m, mu)
        assert pm == pytest.approx(0.5 * K_m * (2 * a) ** 2, rel=1e-12)
        assert pp == pytest.approx(mu * 2.0 * a * a / 3.0, rel=1e-12)

    def test_additivity_against_undegraded_energy(self, rng):
        K_m, mu = 9.444e9, 7.083e9
        C = dense_stiffness(K_m, mu)
        eps = random_strain(rng, n=256)
        pp, pm = law.energy_split_vd(eps, K_m, mu)
        undeg = 0.5 * np.einsum("ns,st,nt->n", eps, C, eps)
        assert np.allclose(pp + pm, undeg, rtol=1e-10)

    def test_additivity_with_thermal_out_of_plane(self, rng):
        # with eps_zz = -alpha_s dT the split must still sum to
        # 1/2 C : eps_e : eps_e evaluated on the full 3D elastic strain
        K_m, mu = 2e9, 8e8
        lam = K_m - 2.0 * mu / 3.0
        for _ in range(32):
            eps = random_strain(rng)
            ezz = rng.uniform(-1e-3, 1e-3)
            pp, pm = law.energy_split_vd(eps, K_m, mu, eps_zz=ezz)
            e = np.array([eps[0], eps[1], ezz])
            tr = e.sum()
            full = 0.5 * lam * tr**2 + mu * (np.sum(e**2) + 0.5 * eps[2] ** 2)
            assert pp + pm == pytest.approx(full, rel=1e-10)


class TestEffectiveStiffness:
    def test_intact_recovers_base_stiffness(self, generic_params):
        mp = generic_params
        C = stiffness(1.0, 1.0, mp)
        assert np.allclose(C, dense_stiffness(mp.K_m, mp.mu_shear), rtol=1e-12)

    def test_fully_degraded_tension(self):
        mp = MaterialParams(E=1e9, nu=0.2, k_res=1e-15)
        C = stiffness(0.0, 1.0, mp)
        assert np.all(np.abs(C) <= 1e-14 * mp.K_m)

    def test_compression_keeps_volumetric_stiffness(self):
        mp = MaterialParams(E=1e9, nu=0.2, k_res=1e-15)
        C = stiffness(0.0, 0.0, mp)
        expect = dense_stiffness(mp.K_m, mp.mu_shear, g=0.0, K_eff=mp.K_m)
        assert np.allclose(C, expect, atol=1e-6)

    def test_spd_for_positive_residual(self, rng, generic_params):
        for v in rng.uniform(0.0, 1.0, 16):
            for h in (0.0, 1.0):
                C = stiffness(v, h, generic_params)
                assert np.all(np.linalg.eigvalsh(C) > 0.0)


class TestBiotCoefficient:
    def test_fully_damaged_open_is_one(self):
        mp = MaterialParams(E=1e9, nu=0.2, alpha_m=0.6, k_res=1e-15)
        assert biot(0.0, 1.0, mp) == pytest.approx(1.0)

    def test_closed_fracture_keeps_matrix_value(self, rng):
        mp = MaterialParams(E=1e9, nu=0.2, alpha_m=0.6)
        for v in rng.uniform(0.0, 1.0, 8):
            assert biot(v, 0.0, mp) == pytest.approx(0.6)

    def test_intact_limit(self):
        mp = MaterialParams(E=1e9, nu=0.2, alpha_m=0.6)
        assert biot(1.0, 1.0, mp) == pytest.approx(0.6, rel=1e-6)

    def test_bounds_on_both_branches(self, rng, generic_params):
        mp = generic_params
        v = rng.uniform(0.0, 1.0, 128)
        for h in (0.0, 1.0):
            a = biot(v, h, mp)
            assert np.all(a >= mp.alpha_m - 1e-12)
            assert np.all(a <= 1.0 + 1e-12)

    @pytest.mark.parametrize("h", [0.0, 1.0])
    def test_micromechanics_identities(self, rng, h):
        # alpha and the damage-driven porosity follow from K_eff alone
        mp = MaterialParams(E=1e9, nu=0.2, alpha_m=0.6, phi_m=0.1, porosity_variant="phi0")
        v = rng.uniform(0.0, 1.0, 64)
        moduli = moduli_of(v, h, mp)
        K_eff = moduli.K_eff
        assert np.allclose(moduli.alpha, 1.0 - K_eff / mp.K_s,
                           rtol=1e-12, atol=0.0)
        phi = law.porosity(np.zeros_like(v), mp, moduli)
        assert np.allclose(phi, 1.0 - (K_eff / mp.K_m) * (1.0 - mp.phi_m),
                           rtol=1e-12, atol=0.0)
        if h == 0.0:
            assert np.allclose(K_eff, mp.K_m, rtol=1e-15)


def normal_of(eps):
    return crack_normal(eps, *law.principal_strains(eps))


def e1_of(eps):
    return law.principal_strains(eps)[0]


class TestCrackNormal:
    def test_axis_aligned(self):
        assert np.allclose(normal_of(np.array([0.01, 0.0, 0.0])), [1.0, 0.0])
        assert np.allclose(normal_of(np.array([0.0, 0.01, 0.0])), [0.0, 1.0])

    def test_pure_shear(self):
        n = normal_of(np.array([0.0, 0.0, 0.02]))
        assert np.allclose(n, [1 / np.sqrt(2), 1 / np.sqrt(2)], rtol=1e-12)

    def test_degenerate_returns_x_axis(self):
        assert np.allclose(normal_of(np.array([1e-3, 1e-3, 0.0])), [1.0, 0.0])

    def test_matches_eigendecomposition(self, rng):
        for eps in random_strain(rng, n=128):
            e1, e2 = law.principal_strains(eps)
            if e1 - e2 < 1e-9:
                continue
            n = crack_normal(eps, e1, e2)
            mat = np.array([[eps[0], eps[2] / 2], [eps[2] / 2, eps[1]]])
            w, vecs = np.linalg.eigh(mat)
            assert e1 == pytest.approx(w[1], rel=1e-10, abs=1e-15)
            ref = vecs[:, 1]
            assert abs(abs(ref @ n) - 1.0) < 1e-10
            # deterministic sign: first nonzero component positive
            assert (n[0] > 0) or (abs(n[0]) <= 1e-14 and n[1] > 0)


class TestWidthAndPorosity:
    def test_width_values(self):
        assert law.fracture_width(e1_of(np.array([0.0, 0.0, 0.0])), 0.05) == 0.0
        assert law.fracture_width(e1_of(np.array([2e-3, 0.0, 0.0])), 0.05) == pytest.approx(1e-4)
        assert law.fracture_width(e1_of(np.array([-1e-3, -2e-3, 0.0])), 0.05) == 0.0

    def test_porosity_phi1(self, generic_params):
        mp = MaterialParams(E=1e9, nu=0.2, alpha_m=0.6, phi_m=0.3)
        assert law.porosity(e1_of(np.zeros(3)), mp) == pytest.approx(0.3)
        assert law.porosity(e1_of(np.array([0.05, 0.0, 0.0])), mp) == pytest.approx(0.35)

    def test_porosity_phi0_fully_damaged_tension(self):
        mp = MaterialParams(E=1e9, nu=0.2, alpha_m=0.6, phi_m=0.3, k_res=1e-15,
                            porosity_variant="phi0")
        phi = law.porosity(e1_of(np.zeros(3)), mp, moduli_of(0.0, 1.0, mp))
        assert phi == pytest.approx(1.0, abs=1e-12)

    def test_phi1_independent_of_v_and_ell(self, rng):
        e1 = e1_of(random_strain(rng, n=16))
        base = MaterialParams(E=1e9, nu=0.2, alpha_m=0.6, phi_m=0.2, ell=0.1)
        other = MaterialParams(E=1e9, nu=0.2, alpha_m=0.6, phi_m=0.2, ell=3.7)
        ref = law.porosity(e1, base, moduli_of(1.0, 1.0, base))
        for v in (0.0, 0.3, 1.0):
            assert np.array_equal(
                law.porosity(e1, base, moduli_of(v, 0.0, base)), ref)
        assert np.array_equal(law.porosity(e1, other), ref)


def permeability_of(v, width, eps, mp, e1_e2=None):
    """The permeability tensor at phase field ``v`` (through its
    ``phase_state``), width and strain."""
    e1, e2 = law.principal_strains(eps) if e1_e2 is None else e1_e2
    crack = law.phase_state(v, mp).crack
    return permeability_tensor(law.permeability(crack, width, eps, e1, e2, mp))


class TestPermeability:
    def test_intact_is_matrix_permeability(self, generic_params):
        K = permeability_of(1.0, 1e-4, np.array([0.0, 1e-3, 0.0]), generic_params)
        assert np.allclose(K, generic_params.perm_m * np.eye(2))

    def test_poiseuille_enhancement(self):
        mp = MaterialParams(E=1e9, nu=0.2, perm_m=1e-16, xi=1.0)
        K = permeability_of(0.0, 1e-4, np.array([0.0, 1e-3, 0.0]), mp)
        assert K[0, 0] == pytest.approx(1e-16 + (1e-4) ** 2 / 12.0)
        assert K[1, 1] == pytest.approx(1e-16)
        assert K[0, 1] == 0.0

    def test_zero_width_no_enhancement(self, generic_params):
        K = permeability_of(0.0, 0.0, np.array([1e-3, 0.0, 0.0]), generic_params)
        assert np.allclose(K, generic_params.perm_m * np.eye(2))

    def test_spd_with_floor_at_matrix_permeability(self, rng, generic_params):
        for _ in range(64):
            K = permeability_of(rng.uniform(0, 1), rng.uniform(0, 1e-3),
                                random_strain(rng), generic_params)
            ev = np.linalg.eigvalsh(K)
            slack = 1e-12 * np.linalg.norm(K)  # eigensolver roundoff scale
            assert np.all(ev >= generic_params.perm_m - slack)

    def _check_against_normal(self, rng, eps, mp):
        n = eps.shape[0]
        v = rng.uniform(0.0, 1.0, n)
        width = rng.uniform(0.0, 1e-3, n)
        e1, e2 = law.principal_strains(eps)
        K = permeability_of(v, width, eps, mp, (e1, e2))
        ref = permeability_from_normal(v, width, crack_normal(eps, e1, e2), mp)
        enh = (1.0 - v) ** mp.xi * width * width / 12.0
        assert np.all(np.abs(K - ref) <= 1e-12 * enh[:, None, None])

    def test_matches_crack_normal_form(self, rng, generic_params):
        self._check_against_normal(rng, random_strain(rng, n=512), generic_params)

    def test_matches_crack_normal_form_near_degenerate(self, rng, generic_params):
        # a large isotropic part with a small deviator (gap 1e-2 of the
        # strain), and strains of the size of the degeneracy threshold itself
        n = 512
        iso = rng.uniform(-1e-3, 1e-3, (n, 1)) * np.array([1.0, 1.0, 0.0])
        self._check_against_normal(rng, iso + random_strain(rng, 1e-5, n),
                                   generic_params)
        self._check_against_normal(rng, random_strain(rng, 1e-11, n), generic_params)

    def test_isotropic_strain_takes_x_normal(self, generic_params):
        # exactly isotropic: e1 = e2, the gap is 0 and n = (1, 0) by convention
        mp = generic_params
        for eps in (np.zeros(3), np.array([1e-3, 1e-3, 0.0])):
            K = permeability_of(0.0, 1e-4, eps, mp)
            enh = (1e-4) ** 2 / 12.0
            assert np.all(np.isfinite(K))
            assert np.array_equal(K, np.diag([mp.perm_m, mp.perm_m + enh]))

    @pytest.mark.parametrize("theta", np.linspace(0.0, np.pi, 7))
    def test_rotated_uniaxial_opening_enhances_along_tangent(self, theta, generic_params):
        mp = generic_params
        c, s = np.cos(theta), np.sin(theta)
        a, v, width = 2e-3, 0.3, 1e-4
        eps = a * np.array([c * c, s * s, 2.0 * c * s])
        K = permeability_of(v, width, eps, mp)
        t = np.array([-s, c])
        enh = (1.0 - v) ** mp.xi * width * width / 12.0
        assert np.allclose(K - mp.perm_m * np.eye(2), enh * np.outer(t, t),
                           rtol=0.0, atol=1e-12 * enh)


class TestStorageAndThermal:
    def test_biot_modulus_incompressible_grains(self):
        mp = MaterialParams(E=1e9, nu=0.0, alpha_m=1.0, phi_m=0.3, c_f=4.5e-10)
        assert law.biot_modulus_inv(0.3, 1.0, mp) == pytest.approx(0.3 * 4.5e-10)

    def test_biot_modulus_direct_value(self, generic_params):
        mp = generic_params  # alpha_m = 0.6 so K_s = K_m / 0.4
        expect = 0.3 * mp.c_f + (0.6 - 0.3) / (mp.K_m / 0.4)
        assert law.biot_modulus_inv(0.3, 0.6, mp) == pytest.approx(expect, rel=1e-12)

    def test_biot_modulus_zero_limit(self):
        mp = MaterialParams(E=1e9, nu=0.0, alpha_m=1.0, phi_m=0.3, c_f=0.0)
        assert law.biot_modulus_inv(0.3, 0.3, mp) == 0.0

    def test_thermal_storage_values(self):
        mp = MaterialParams(E=1e9, nu=0.2, alpha_m=0.6, phi_m=0.1,
                            alpha_s=8e-6, alpha_f=4e-4)
        assert law.thermal_storage_inv(0.3, 0.3, mp) == pytest.approx(0.3 * 4e-4)
        assert law.thermal_storage_inv(0.3, 0.6, mp) == pytest.approx(1.272e-4, rel=1e-12)
        mp0 = MaterialParams(E=1e9, nu=0.2, alpha_m=0.6, phi_m=0.1)
        assert law.thermal_storage_inv(0.3, 0.6, mp0) == 0.0

    def test_heat_capacity_and_conductivity_hull(self, generic_params):
        mp = generic_params
        solid = mp.c_ps * mp.rho_s
        fluid = mp.c_pf * mp.rho_f
        assert law.heat_capacity_eff(0.0, mp) == pytest.approx(solid)
        assert law.heat_capacity_eff(1.0, mp) == pytest.approx(fluid)
        mid = law.heat_capacity_eff(0.4, mp)
        assert min(solid, fluid) <= mid <= max(solid, fluid)
        assert mid == pytest.approx(0.4 * fluid + 0.6 * solid)
        assert law.conductivity_eff(0.4, mp) == pytest.approx(0.4 * 0.5 + 0.6 * 3.0)

    def test_stabilization_scales(self, generic_params):
        # 1/2 s ||q|| h_e, a diffusivity, times rho_f c_pf
        unit = replace(generic_params, rho_f=1.0, c_pf=1.0)
        assert law.stabilization_conductivity(1e-3, 0.05, unit) == pytest.approx(3.75e-6)
        cond = law.stabilization_conductivity(1e-3, 0.05, generic_params)
        assert cond == pytest.approx(3.75e-6 * 1000.0 * 4200.0)


class TestPressureDrive:
    def test_closed_or_stiff_grain_vanishes(self):
        mp = MaterialParams(E=1e9, nu=0.2, alpha_m=0.6)
        assert law.biot_modulus_pressure_drive(1e-3, 1e6, 0.0, mp) == 0.0
        mp1 = MaterialParams(E=1e9, nu=0.2, alpha_m=1.0)
        assert law.biot_modulus_pressure_drive(1e-3, 1e6, 1.0, mp1) == 0.0

    def test_product_form_value(self):
        mp = MaterialParams(E=1e9, nu=0.2, alpha_m=0.6, k_res=1e-15)
        val = law.biot_modulus_pressure_drive(1e-3, 1e6, 1.0, mp)
        assert val == pytest.approx(400.0, rel=1e-9)

    def test_matches_raw_derivative_times_half_p_squared(self, rng):
        mp = MaterialParams(E=1e9, nu=0.2, alpha_m=0.6, k_res=1e-6)
        for _ in range(16):
            eps_vol = rng.uniform(1e-5, 1e-2)
            p = rng.uniform(1e3, 1e7)
            v = rng.uniform(0.0, 1.0)
            raw = (2.0 * eps_vol / p) * v * (1 - mp.k_res) * (1 - mp.alpha_m)
            assert v * law.biot_modulus_pressure_drive(eps_vol, p, 1.0, mp) == \
                pytest.approx(0.5 * p * p * raw, rel=1e-12)


def test_biot_modulus_negative_storage_raises():
    mp = MaterialParams(E=1e9, nu=0.2, alpha_m=0.6, phi_m=0.1, c_f=-1e-9)
    with pytest.raises(InvariantViolation):
        law.biot_modulus_inv(0.5, 0.6, mp)
