from dataclasses import replace

import numpy as np
import pytest

from thmfrac import constitutive as law
from thmfrac import physics
from thmfrac.constitutive import MaterialParams
from thmfrac.fem import (Dirichlet, Factorization, apply_dirichlet, assemble, build_tables,
                         gauss_2x2, shape_q4, solve_bound_constrained, solve_linear)
from thmfrac.mesh import RefineBand, generate_rect_mesh
from thmfrac.physics import (build_flow_system, build_heat_system,
                             build_mechanics_system, build_phasefield_system,
                             mechanics_branch_flags, mechanics_residual, scalar_qp,
                             strain_qp, strain_state, volumetric_strain_qp)

# ---------------------------------------------------------------------------
# dense reference assemblies (independent loop-based implementations)
# ---------------------------------------------------------------------------


def dense_scalar_laplacian(mesh, coeff):
    n = mesh.n_nodes
    K = np.zeros((n, n))
    pts, w = gauss_2x2()
    for conn in mesh.elems:
        X = mesh.nodes[conn]
        for (xi, eta), wi in zip(pts, w):
            _, dN = shape_q4(xi, eta)
            J = dN.T @ X
            detJ = np.linalg.det(J)
            dNdx = dN @ np.linalg.inv(J).T
            K[np.ix_(conn, conn)] += coeff * wi * detJ * (dNdx @ dNdx.T)
    return K


def dense_scalar_mass(mesh, coeff):
    n = mesh.n_nodes
    M = np.zeros((n, n))
    pts, w = gauss_2x2()
    for conn in mesh.elems:
        X = mesh.nodes[conn]
        for (xi, eta), wi in zip(pts, w):
            N, dN = shape_q4(xi, eta)
            detJ = np.linalg.det(dN.T @ X)
            M[np.ix_(conn, conn)] += coeff * wi * detJ * np.outer(N, N)
    return M


def dense_elastic_stiffness(mesh, C):
    n = 2 * mesh.n_nodes
    K = np.zeros((n, n))
    pts, w = gauss_2x2()
    for conn in mesh.elems:
        X = mesh.nodes[conn]
        dofs = np.empty(8, dtype=int)
        dofs[0::2] = 2 * conn
        dofs[1::2] = 2 * conn + 1
        for (xi, eta), wi in zip(pts, w):
            _, dN = shape_q4(xi, eta)
            J = dN.T @ X
            detJ = np.linalg.det(J)
            dNdx = dN @ np.linalg.inv(J).T
            B = np.zeros((3, 8))
            B[0, 0::2] = dNdx[:, 0]
            B[1, 1::2] = dNdx[:, 1]
            B[2, 0::2] = dNdx[:, 1]
            B[2, 1::2] = dNdx[:, 0]
            K[np.ix_(dofs, dofs)] += wi * detJ * (B.T @ C @ B)
    return K


def plane_strain_C(mp, g=1.0):
    K, gm = mp.K_m, g * mp.mu_shear
    return np.array([[K + 4 * gm / 3, K - 2 * gm / 3, 0.0],
                     [K - 2 * gm / 3, K + 4 * gm / 3, 0.0],
                     [0.0, 0.0, gm]])


@pytest.fixture
def small_setup(generic_params):
    mesh = generate_rect_mesh(1.0, 1.0, 2, 2)
    return mesh, build_tables(mesh), generic_params


def _uniform_state(mesh, mp, p=0.0, dT=0.0):
    n = mesh.n_nodes
    return (np.zeros(2 * n), np.full(n, p), np.full(n, mp.T0 + dT), np.ones(n))


def _random_state(mesh, mp, rng):
    """Strains and temperature changes of similar size, so that Tr eps_e
    takes both signs when alpha_s != 0."""
    n = mesh.n_nodes
    return (rng.normal(scale=1e-4, size=2 * n), rng.uniform(1e5, 1e6, n),
            mp.T0 + rng.uniform(-10.0, 10.0, n), rng.uniform(0.2, 1.0, n))


# ---------------------------------------------------------------------------
# element kernels against their einsum expressions
# ---------------------------------------------------------------------------

def _kernel_meshes():
    graded = generate_rect_mesh(2.0, 1.0, 9, 5,
                                [RefineBand(axis="x", lo=0.5, hi=1.0, h=0.05, ratio=1.3),
                                 RefineBand(axis="y", lo=0.4, hi=0.6, h=0.05, ratio=1.3)])
    band = generate_rect_mesh(10.0, 60.0, 9, 12,
                              [RefineBand(axis="x", lo=0.0, hi=5.0, h=0.5, ratio=1.2),
                               RefineBand(axis="y", lo=28.0, hi=32.0, h=0.5, ratio=1.2)])
    return {"graded": graded, "band": band}


class TestTableKernels:
    """Each kernel is one matmul against an ``ElementTables`` operator table;
    the einsum expression it replaced is kept here as the reference."""

    RTOL = 1e-13

    @pytest.fixture(params=["graded", "band"])
    def tb(self, request):
        return build_tables(_kernel_meshes()[request.param])

    def _close(self, got, ref):
        # summation order differs, so an entry that cancels is measured
        # against the largest entry of its element
        assert got.shape == ref.shape
        err = np.abs(got - ref).reshape(len(ref), -1).max(axis=1)
        scale = np.abs(ref).reshape(len(ref), -1).max(axis=1)
        assert np.all(err <= self.RTOL * scale), (err / scale).max()

    def test_mass(self, tb, rng):
        c = rng.uniform(0.5, 2.0, tb.detJw.shape)
        ref = np.einsum("eq,qa,qb->eab", c * tb.detJw, tb.N, tb.N)
        self._close(physics._mass(tb, c), ref)

    def test_laplacian(self, tb, rng):
        c = rng.uniform(0.5, 2.0, tb.detJw.shape)
        ref = np.einsum("eq,eqad,eqbd->eab", c * tb.detJw, tb.dNdx, tb.dNdx)
        self._close(physics._laplacian(tb, c), ref)

    def test_tensor_laplacian(self, tb, rng):
        A = rng.normal(size=tb.detJw.shape + (2, 2))
        K = np.matmul(A, A.transpose(0, 1, 3, 2)) + 0.1 * np.eye(2)
        ref = np.einsum("eqac,eqcd,eq,eqbd->eab", tb.dNdx, K, tb.detJw, tb.dNdx)
        self._close(physics._laplacian_tensor(tb, K), ref)

    def test_advection(self, tb, rng):
        q = rng.normal(size=tb.detJw.shape + (2,))
        ref = np.einsum("eq,qa,eqd,eqbd->eab", tb.detJw, tb.N, q, tb.dNdx)
        self._close(physics._advection(tb, q), ref)

    def test_load(self, tb, rng):
        src = rng.uniform(0.5, 2.0, tb.detJw.shape)
        ref = np.einsum("eq,qa->ea", src * tb.detJw, tb.N)
        self._close(physics._load(tb, src), ref)

    def test_mechanics_stiffness(self, tb, rng, generic_params):
        shape = tb.detJw.shape
        C = law.effective_stiffness(rng.uniform(0.0, 1.0, shape),
                                    rng.integers(0, 2, shape).astype(float), generic_params)
        ref = np.einsum("eqsa,eqst,eqtb->eab", tb.B, C * tb.detJw[..., None, None], tb.B)
        self._close(physics._stiffness(tb, C), ref)

    def test_mechanics_rhs(self, tb, rng):
        s = rng.uniform(0.5, 2.0, tb.detJw.shape)
        sig = s[..., None] * np.array([1.0, 1.0, 0.0])
        ref = np.einsum("eqsa,eqs,eq->ea", tb.B, sig, tb.detJw)
        self._close(physics._apply(tb.divergence_table, s), ref)

    def test_quadrature_point_interpolation(self, tb, rng):
        f = rng.normal(size=tb.n_nodes)
        perm = rng.normal(size=tb.detJw.shape + (2, 2))
        self._close(scalar_qp(tb, f), np.einsum("qi,ei->eq", tb.N, f[tb.conn]))
        grad = np.einsum("eqid,ei->eqd", tb.dNdx, f[tb.conn])
        self._close(physics.grad_qp(tb, f), grad)
        mp = MaterialParams(E=1e9, nu=0.2, mu_f=2e-3)
        self._close(physics.darcy_flux_qp(tb, mp, perm, f),
                    -np.einsum("eqcd,eqd->eqc", perm, grad) / mp.mu_f)


# ---------------------------------------------------------------------------
# quadrature-point state
# ---------------------------------------------------------------------------

class TestQPState:
    @pytest.fixture
    def setup(self, generic_params):
        mesh = generate_rect_mesh(1.0, 1.0, 4, 4)
        return mesh, build_tables(mesh), generic_params

    def test_branch_flags_are_branch_porosity_tr_sign(self, setup, rng):
        mesh, tb, mp = setup
        assert mp.alpha_s != 0.0
        u, _, T, v = _random_state(mesh, mp, rng)
        st = strain_state(tb, mp, u, v)
        flags = mechanics_branch_flags(tb, mp, st, T)
        tr_sign, _ = law.branch_porosity(st, scalar_qp(tb, T) - mp.T0, mp)
        assert np.array_equal(flags, tr_sign)
        assert 0.0 < flags.mean() < 1.0

    @pytest.mark.parametrize("variant", ["phi1", "phi0"])
    def test_width_porosity_permeability_are_the_standalone_laws(self, setup, rng, variant):
        mesh, tb, mp = setup
        mp = replace(mp, porosity_variant=variant)
        u, _, T, v = _random_state(mesh, mp, rng)
        st = strain_state(tb, mp, u, v)
        tr_sign, porosity = law.branch_porosity(st, scalar_qp(tb, T) - mp.T0, mp)
        eps = strain_qp(tb, u)
        v_qp = scalar_qp(tb, v)
        e1, e2 = law.principal_strains(eps)
        width = law.fracture_width(e1, tb.h_e_qp)
        phi = law.porosity(e1, mp, v=v_qp, tr_sign=tr_sign)
        perm = law.permeability(v_qp, width, law.crack_normal(eps, e1, e2), mp)
        assert np.any(width > 0.0)
        assert np.array_equal(st.width, width)
        assert np.array_equal(porosity, phi)
        assert np.array_equal(st.perm, perm)
        assert np.array_equal(st.eps_vol, law.trace2(eps))


# ---------------------------------------------------------------------------
# mechanics kernel
# ---------------------------------------------------------------------------

class TestMechanics:
    def test_zero_state_zero_residual(self, small_setup):
        mesh, tb, mp = small_setup
        u, p, T, v = _uniform_state(mesh, mp)
        r = mechanics_residual(tb, mp, u, v, p, T, np.zeros(2 * mesh.n_nodes))
        assert np.allclose(r, 0.0)

    def test_uniform_pressure_equivalent_forces(self, generic_params):
        # single free element: residual(u=0) must equal the consistent nodal
        # forces of the uniform stress -alpha_m p I
        mp = generic_params
        mesh = generate_rect_mesh(1.0, 1.0, 1, 1)
        tb = build_tables(mesh)
        u, p, T, v = _uniform_state(mesh, mp, p=1e6)
        r = mechanics_residual(tb, mp, u, v, p, T, np.zeros(8))
        # hand integration: f_x(node) = sigma_xx * int dN/dx, on the unit
        # square int dN/dx = -1/2 for left nodes, +1/2 for right nodes
        s = -mp.alpha_m * 1e6
        expect = np.zeros(8)
        expect[0::2] = s * np.where(mesh.nodes[:, 0] > 0.5, 0.5, -0.5)
        expect[1::2] = s * np.where(mesh.nodes[:, 1] > 0.5, 0.5, -0.5)
        assert np.allclose(r, expect, rtol=1e-12)

    def test_uniform_cooling_prestress_matches_divergence_operator(self, generic_params):
        mp = generic_params
        mesh = generate_rect_mesh(1.0, 1.0, 1, 1)
        tb = build_tables(mesh)
        dT = 10.0
        u, p, T, v = _uniform_state(mesh, mp, dT=dT)
        r = mechanics_residual(tb, mp, u, v, p, T, np.zeros(8))
        s = -3.0 * mp.alpha_s * mp.K_m * dT  # compression branch keeps K_m
        expect = np.zeros(8)
        expect[0::2] = s * np.where(mesh.nodes[:, 0] > 0.5, 0.5, -0.5)
        expect[1::2] = s * np.where(mesh.nodes[:, 1] > 0.5, 0.5, -0.5)
        assert np.allclose(r, expect, rtol=1e-9)

    def test_intact_stiffness_matches_dense_assembly(self, small_setup):
        mesh, tb, mp = small_setup
        u, p, T, v = _uniform_state(mesh, mp)
        flags = mechanics_branch_flags(tb, mp, strain_state(tb, mp, u, v), T)
        op = build_mechanics_system(tb, mp, v, flags)
        ref = dense_elastic_stiffness(mesh, plane_strain_C(mp))
        scale = np.abs(ref).max()
        assert np.allclose(op.matrix.toarray(), ref, atol=1e-12 * scale)

    def test_jacobian_matches_finite_differences(self, small_setup, rng):
        mesh, tb, mp = small_setup
        n = mesh.n_nodes
        u = rng.normal(scale=1e-4, size=2 * n)
        p = rng.uniform(0, 1e5, n)
        T = np.full(n, mp.T0) + rng.uniform(0, 5, n)
        v = rng.uniform(0.3, 1.0, n)
        f_ext = np.zeros(2 * n)
        flags = mechanics_branch_flags(tb, mp, strain_state(tb, mp, u, v), T)
        J = build_mechanics_system(tb, mp, v, flags).matrix.toarray()
        h = 1e-8
        fd = np.empty_like(J)
        for i in range(2 * n):
            e = np.zeros(2 * n)
            e[i] = h
            rp = mechanics_residual(tb, mp, u + e, v, p, T, f_ext)
            rm = mechanics_residual(tb, mp, u - e, v, p, T, f_ext)
            fd[:, i] = (rp - rm) / (2 * h)
        assert np.abs(J - fd).max() <= 1e-5 * np.abs(J).max()


# ---------------------------------------------------------------------------
# flow kernel
# ---------------------------------------------------------------------------

class TestFlow:
    def test_steady_uniform_pressure_zero_residual(self, small_setup):
        mesh, tb, mp = small_setup
        n = mesh.n_nodes
        u, p, T, v = _uniform_state(mesh, mp, p=2e5)
        system = build_flow_system(tb, mp, strain_state(tb, mp, u, v), p, T,
                                   volumetric_strain_qp(tb, u), p, T, dt=1.0)
        assert np.allclose(system.matrix @ p - system.rhs, 0.0,
                           atol=1e-12 * np.abs(system.rhs).max())

    def test_pure_storage_backward_euler_update(self):
        # no-flow element with strain-derived porosity: the converged update
        # is the scalar backward-Euler relation p = p_prev + Q dt M / V
        mp = MaterialParams(E=1e9, nu=0.2, alpha_m=0.0, phi_m=0.0,
                            c_f=4.5e-10, perm_m=1e-30, mu_f=1e-3)
        mesh = generate_rect_mesh(1.0, 1.0, 1, 1)
        tb = build_tables(mesh)
        n = mesh.n_nodes
        eps1 = 0.01
        u = eps1 * mesh.nodes[:, 0]          # uniform eps_xx = eps1
        uvec = np.zeros(2 * n)
        uvec[0::2] = u
        T = np.full(n, mp.T0)
        v = np.ones(n)
        p_prev = np.full(n, 1e4)
        Q = 5e-7
        source = np.full(n, Q / 4.0)
        dt = 2.0
        phi = eps1                            # phi1 porosity of this state
        M_p = 1.0 / (phi * mp.c_f)
        expect = 1e4 + Q * dt * M_p           # element volume is 1
        p = p_prev.copy()
        evol = volumetric_strain_qp(tb, uvec)
        for _ in range(30):                   # iterate lagged terms to the fixed point
            system = build_flow_system(tb, mp, strain_state(tb, mp, uvec, v), p, T, evol,
                                       p_prev, T, dt, source=source)
            p = solve_linear(system)
        assert np.allclose(p, expect, rtol=1e-10)

    def test_uncoupled_reduces_to_transient_diffusion(self, rng):
        # alpha(v=1) = alpha_m = 0 and 1/M_T = 0: mass/dt + Darcy only
        mp = MaterialParams(E=1e9, nu=0.2, alpha_m=0.0, phi_m=0.0,
                            c_f=4.5e-10, perm_m=1e-14, mu_f=1e-3)
        mesh = generate_rect_mesh(1.0, 1.0, 2, 2)
        tb = build_tables(mesh)
        n = mesh.n_nodes
        eps1 = 0.02
        uvec = np.zeros(2 * n)
        uvec[0::2] = eps1 * mesh.nodes[:, 0]
        T = np.full(n, mp.T0)
        v = np.ones(n)
        p_prev = rng.uniform(0, 1e5, n)
        dt = 3.0
        system = build_flow_system(tb, mp, strain_state(tb, mp, uvec, v), p_prev, T,
                                   volumetric_strain_qp(tb, uvec), p_prev, T, dt)
        phi = eps1
        dense = (dense_scalar_mass(mesh, phi * mp.c_f / dt)
                 + dense_scalar_laplacian(mesh, mp.perm_m / mp.mu_f))
        scale = np.abs(dense).max()
        assert np.allclose(system.matrix.toarray(), dense, atol=1e-12 * scale)
        rhs_ref = dense_scalar_mass(mesh, phi * mp.c_f / dt) @ p_prev
        assert np.allclose(system.rhs, rhs_ref, atol=1e-12 * np.abs(rhs_ref).max())

    def test_large_dt_reduces_to_steady_darcy(self, small_setup):
        mesh, tb, mp = small_setup
        u, p, T, v = _uniform_state(mesh, mp)
        system = build_flow_system(tb, mp, strain_state(tb, mp, u, v), p, T,
                                   volumetric_strain_qp(tb, u), p, T, dt=1e30)
        dense = dense_scalar_laplacian(mesh, mp.perm_m / mp.mu_f)
        assert np.allclose(system.matrix.toarray(), dense,
                           atol=1e-10 * np.abs(dense).max())

    def test_jacobian_matches_finite_differences(self, small_setup, rng):
        mesh, tb, mp = small_setup
        n = mesh.n_nodes
        u = rng.normal(scale=1e-4, size=2 * n)
        p_it = rng.uniform(0, 1e5, n)
        p_prev = rng.uniform(0, 1e5, n)
        T = np.full(n, mp.T0) + rng.uniform(-3, 3, n)
        T_prev = np.full(n, mp.T0)
        v = rng.uniform(0.2, 1.0, n)
        system = build_flow_system(tb, mp, strain_state(tb, mp, u, v), p_it, T,
                                   volumetric_strain_qp(tb, u * 0.5), p_prev, T_prev, 0.5)
        J = system.matrix.toarray()

        def residual(p):
            return system.matrix @ p - system.rhs

        h = 1.0
        fd = np.empty_like(J)
        for i in range(n):
            e = np.zeros(n)
            e[i] = h
            fd[:, i] = (residual(p_it + e) - residual(p_it - e)) / (2 * h)
        assert np.abs(J - fd).max() <= 1e-5 * np.abs(J).max()


# ---------------------------------------------------------------------------
# heat kernel
# ---------------------------------------------------------------------------

class TestHeat:
    def test_no_flux_gives_pure_conduction_plus_lumped_storage(self, small_setup):
        mesh, tb, mp = small_setup
        n = mesh.n_nodes
        u, p, T, v = _uniform_state(mesh, mp)  # uniform p: q_f = 0
        dt = 2.0
        system = build_heat_system(tb, mp, strain_state(tb, mp, u, v), p, T, dt)
        phi = mp.phi_m
        lam = law.conductivity_eff(phi, mp)
        rhoc = law.heat_capacity_eff(phi, mp)
        dense = dense_scalar_laplacian(mesh, lam)
        lumped = dense_scalar_mass(mesh, rhoc / dt).sum(axis=1)
        dense[np.arange(n), np.arange(n)] += lumped
        assert np.allclose(system.matrix.toarray(), dense,
                           atol=1e-12 * np.abs(dense).max())

    def test_uniform_temperature_zero_residual_despite_advection(self, small_setup):
        mesh, tb, mp = small_setup
        n = mesh.n_nodes
        u = np.zeros(2 * n)
        p = 1e6 * mesh.nodes[:, 0]  # linear p: constant q_f
        T = np.full(n, mp.T0 + 25.0)
        v = np.ones(n)
        system = build_heat_system(tb, mp, strain_state(tb, mp, u, v), p, T, dt=1.0)
        r = system.matrix @ T - system.rhs
        assert np.abs(r).max() <= 1e-12 * np.abs(system.rhs).max()

    def test_stabilization_adds_scaled_isotropic_conductivity(self, small_setup):
        mesh, tb, mp = small_setup
        n = mesh.n_nodes
        u = np.zeros(2 * n)
        p = 1e9 * mesh.nodes[:, 0]  # constant Darcy flux
        T = np.full(n, mp.T0)
        v = np.ones(n)
        assert mp.s_stab > 0.0
        on = build_heat_system(tb, mp, strain_state(tb, mp, u, v), p, T, 1.0)
        off = build_heat_system(tb, replace(mp, s_stab=0.0), strain_state(tb, mp, u, v),
                                p, T, 1.0)
        q = mp.perm_m / mp.mu_f * 1e9
        lam_add = 0.5 * mp.s_stab * q * mesh.h_e[0] * mp.rho_f * mp.c_pf
        dense = dense_scalar_laplacian(mesh, lam_add)
        diff = (on.matrix - off.matrix).toarray()
        assert np.allclose(diff, dense, rtol=1e-10)

    def test_conduction_operator_satisfies_max_principle(self, generic_params):
        # uniform rectangles: the lumped backward-Euler heat operator is an
        # M-matrix, so its inverse is nonnegative
        mp = generic_params
        mesh = generate_rect_mesh(1.0, 1.0, 4, 4)
        tb = build_tables(mesh)
        n = mesh.n_nodes
        u, p, T, v = _uniform_state(mesh, mp)
        system = build_heat_system(tb, mp, strain_state(tb, mp, u, v), p, T, dt=10.0)
        A = system.matrix.toarray()
        off = A - np.diag(np.diag(A))
        assert off.max() <= 1e-12 * np.abs(A).max()
        assert np.linalg.inv(A).min() >= -1e-12

    def test_stabilized_advection_is_monotone_between_boundary_values(self):
        # strong advection (cell Peclet >> 1 unstabilized); s = 1 forces the
        # effective Peclet below 1 and the steady profile must be monotone
        mp = MaterialParams(E=1e9, nu=0.2, alpha_m=0.6, phi_m=0.1,
                            perm_m=1e-12, mu_f=1e-3, lambda_s=0.5, lambda_f=0.5,
                            c_ps=800.0, c_pf=4200.0, rho_s=2600.0, rho_f=1000.0,
                            s_stab=1.0, T0=300.0)
        mesh = generate_rect_mesh(1.0, 0.05, 20, 1)
        tb = build_tables(mesh)
        n = mesh.n_nodes
        u = np.zeros(2 * n)
        p = 2e7 * (1.0 - mesh.nodes[:, 0])  # flow in +x
        T = np.full(n, 300.0)
        v = np.ones(n)
        q = mp.perm_m / mp.mu_f * 2e7
        peclet = mp.rho_f * mp.c_pf * q * 0.05 / (2 * 0.5)
        assert peclet > 5.0
        system = build_heat_system(tb, mp, strain_state(tb, mp, u, v), p, T, dt=1e12)
        left = mesh.boundary_nodes["left"]
        right = mesh.boundary_nodes["right"]
        dofs = np.concatenate([left, right])
        vals = np.concatenate([np.full(left.size, 301.0), np.full(right.size, 300.0)])
        fixed = apply_dirichlet(system, Dirichlet.on(tb.scalar_pattern, dofs, vals))
        Tsol = solve_linear(fixed)
        row = mesh.boundary_nodes["bottom"]
        prof = Tsol[row]
        assert np.all(np.diff(prof) <= 1e-10)
        assert prof.min() >= 300.0 - 1e-9 and prof.max() <= 301.0 + 1e-9

    def test_advection_dominated_operator_solves_to_the_gate(self):
        # unstabilized advection with a cell Peclet number far above 1: the
        # operator is far from symmetric and from diagonal dominance, and a
        # single factor solve meets the gate only with pivoting
        mp = MaterialParams(E=1e9, nu=0.2, alpha_m=0.6, phi_m=0.1,
                            perm_m=1e-12, mu_f=1e-3, lambda_s=0.5, lambda_f=0.5,
                            c_ps=800.0, c_pf=4200.0, rho_s=2600.0, rho_f=1000.0,
                            s_stab=0.0, T0=300.0)
        mesh = generate_rect_mesh(1.0, 0.2, 30, 6)
        tb = build_tables(mesh)
        n = mesh.n_nodes
        x, y = mesh.nodes.T
        p = 2e8 * (1.0 - x) * (1.0 + 0.3 * y)
        st = strain_state(tb, mp, np.zeros(2 * n), np.ones(n))
        system = build_heat_system(tb, mp, st, p, np.full(n, 300.0), dt=1e12)
        left = mesh.boundary_nodes["left"]
        right = mesh.boundary_nodes["right"]
        dofs = np.concatenate([left, right])
        vals = np.concatenate([np.full(left.size, 301.0), np.full(right.size, 300.0)])
        fixed = apply_dirichlet(system, Dirichlet.on(tb.scalar_pattern, dofs, vals))
        A, b = fixed.matrix, fixed.rhs
        assert abs(A - A.T).max() > abs(A).max()
        gate = 1e-10 * np.linalg.norm(b)
        assert np.linalg.norm(A @ Factorization().factorize(A).solve(b) - b) <= gate
        assert np.linalg.norm(A @ solve_linear(fixed) - b) <= gate


# ---------------------------------------------------------------------------
# phase-field kernel
# ---------------------------------------------------------------------------

class TestPhaseField:
    def test_undriven_at2_has_intact_solution(self, small_setup):
        mesh, tb, mp = small_setup
        n = mesh.n_nodes
        u, p, T, v = _uniform_state(mesh, mp)
        gc = np.full(mesh.n_elems, mp.Gc)
        system = build_phasefield_system(tb, mp, gc, u, p, T)
        assert np.allclose(system.matrix @ np.ones(n) - system.rhs, 0.0,
                           atol=1e-12 * np.abs(system.rhs).max())

    def test_homogeneous_at2_stationary_point(self, generic_params):
        # uniform tensile strain on a single free element; the uniform
        # stationary value follows from scalar algebra
        mp = generic_params  # n_at = 2
        mesh = generate_rect_mesh(1.0, 1.0, 1, 1)
        tb = build_tables(mesh)
        n = mesh.n_nodes
        exx = 5e-4
        u = np.zeros(2 * n)
        u[0::2] = exx * mesh.nodes[:, 0]
        p_val = 2e5
        p = np.full(n, p_val)
        T = np.full(n, mp.T0)
        gc = np.full(mesh.n_elems, mp.Gc)
        system = build_phasefield_system(tb, mp, gc, u, p, T)
        v_sol = solve_linear(system)
        psi_plus, _ = law.energy_split_vd(np.array([exx, 0.0, 0.0]),
                                          mp.K_m, mp.mu_shear)
        drive = p_val * exx * (1 - mp.k_res) * (1 - mp.alpha_m)
        g_term = mp.Gc / (2.0 * mp.c_n * mp.ell)
        expect = g_term / (2 * (1 - mp.k_res) * psi_plus + drive + g_term)
        assert np.allclose(v_sol, expect, rtol=1e-10)

    def test_pressure_drive_vanishes_for_unit_biot(self):
        mp = MaterialParams(E=17e9, nu=0.2, alpha_m=1.0, phi_m=0.1,
                            Gc=100.0, ell=0.02, n_at=2)
        mesh = generate_rect_mesh(1.0, 1.0, 1, 1)
        tb = build_tables(mesh)
        n = mesh.n_nodes
        exx = 5e-4
        u = np.zeros(2 * n)
        u[0::2] = exx * mesh.nodes[:, 0]
        T = np.full(n, mp.T0)
        gc = np.full(mesh.n_elems, mp.Gc)
        sys_p = build_phasefield_system(tb, mp, gc, u, np.full(n, 5e6), T)
        sys_0 = build_phasefield_system(tb, mp, gc, u, np.zeros(n), T)
        assert np.allclose(sys_p.matrix.toarray(), sys_0.matrix.toarray())

    def test_pressure_drive_is_the_law_coefficient(self, generic_params, rng):
        mp = generic_params
        assert mp.alpha_m < 1.0 and mp.alpha_s != 0.0
        mesh = generate_rect_mesh(1.0, 1.0, 3, 3)
        tb = build_tables(mesh)
        u, p, T, _ = _random_state(mesh, mp, rng)
        gc = np.full(mesh.n_elems, mp.Gc)
        sys_p = build_phasefield_system(tb, mp, gc, u, p, T)
        sys_0 = build_phasefield_system(tb, mp, gc, u, np.zeros_like(p), T)
        _, _, tr_e, h = law.thermoelastic_split(strain_qp(tb, u), scalar_qp(tb, T) - mp.T0,
                                                mp.alpha_s)
        drive = law.biot_modulus_pressure_drive(tr_e, scalar_qp(tb, p), h, mp)
        assert np.any(drive != 0.0)
        ME = np.einsum("eq,qa,qb->eab", drive * tb.detJw, tb.N, tb.N)
        ref = assemble(mesh, lambda e: (ME[e], np.zeros(4))).matrix.toarray()
        diff = (sys_p.matrix - sys_0.matrix).toarray()
        assert np.allclose(diff, ref, rtol=1e-9, atol=1e-9 * np.abs(ref).max())
        assert np.array_equal(sys_p.rhs, sys_0.rhs)

    def test_free_block_solve_matches_a_dense_solve(self, generic_params, rng):
        mp = generic_params
        mesh = generate_rect_mesh(1.0, 1.0, 6, 6)
        tb = build_tables(mesh)
        n = mesh.n_nodes
        u, p, T, _ = _random_state(mesh, mp, rng)
        system = build_phasefield_system(tb, mp, np.full(mesh.n_elems, mp.Gc), u, p, T)
        lower, upper = np.zeros(n), np.ones(n)
        upper[mesh.boundary_nodes["left"]] = 0.0
        x = solve_bound_constrained(system, lower, upper, np.full(n, 0.5))
        free = (x > lower) & (x < upper)
        act = ~free
        assert free.sum() > n // 2 and act.any()
        A = system.matrix.toarray()
        ref = np.linalg.solve(A[np.ix_(free, free)],
                              system.rhs[free] - A[np.ix_(free, act)] @ x[act])
        assert np.allclose(x[free], ref, rtol=1e-10, atol=0.0)

    def test_at1_source_is_constant(self, generic_params):
        import dataclasses

        mp = dataclasses.replace(generic_params, n_at=1)
        mesh = generate_rect_mesh(1.0, 1.0, 2, 2)
        tb = build_tables(mesh)
        n = mesh.n_nodes
        u, p, T, v = _uniform_state(mesh, mp)
        gc = np.full(mesh.n_elems, mp.Gc)
        system = build_phasefield_system(tb, mp, gc, u, p, T)
        # with zero driving the matrix is the pure gradient stiffness and the
        # rhs integrates gamma/ell against the shape functions
        gamma = mp.Gc / (4 * mp.c_n)
        dense = dense_scalar_laplacian(mesh, 2 * gamma * mp.ell)
        assert np.allclose(system.matrix.toarray(), dense,
                           atol=1e-12 * np.abs(dense).max())
        areas = dense_scalar_mass(mesh, gamma / mp.ell).sum(axis=1)
        assert np.allclose(system.rhs, areas, rtol=1e-12)

    def test_jacobian_matches_finite_differences(self, small_setup, rng):
        mesh, tb, mp = small_setup
        n = mesh.n_nodes
        u = rng.normal(scale=1e-4, size=2 * n)
        p = rng.uniform(0, 1e6, n)
        T = np.full(n, mp.T0)
        gc = np.full(mesh.n_elems, mp.Gc)
        system = build_phasefield_system(tb, mp, gc, u, p, T)
        J = system.matrix.toarray()
        v0 = rng.uniform(0.2, 0.9, n)
        h = 1e-6
        fd = np.empty_like(J)
        for i in range(n):
            e = np.zeros(n)
            e[i] = h
            rp = system.matrix @ (v0 + e) - system.rhs
            rm = system.matrix @ (v0 - e) - system.rhs
            fd[:, i] = (rp - rm) / (2 * h)
        assert np.abs(J - fd).max() <= 1e-5 * np.abs(J).max()

    def test_heat_jacobian_matches_fd_with_frozen_flux(self, small_setup, rng):
        mesh, tb, mp = small_setup
        n = mesh.n_nodes
        u = rng.normal(scale=1e-4, size=2 * n)
        p = rng.uniform(0, 1e6, n)
        T_prev = np.full(n, mp.T0) + rng.uniform(-5, 5, n)
        v = rng.uniform(0.2, 1.0, n)
        system = build_heat_system(tb, mp, strain_state(tb, mp, u, v), p, T_prev, dt=0.7)
        J = system.matrix.toarray()
        T0 = np.full(n, mp.T0)
        h = 1e-4
        fd = np.empty_like(J)
        for i in range(n):
            e = np.zeros(n)
            e[i] = h
            rp = system.matrix @ (T0 + e) - system.rhs
            rm = system.matrix @ (T0 - e) - system.rhs
            fd[:, i] = (rp - rm) / (2 * h)
        assert np.abs(J - fd).max() <= 1e-5 * np.abs(J).max()
