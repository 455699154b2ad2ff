from dataclasses import replace

import numpy as np
import pytest

from thmfrac import constitutive as law
from thmfrac import physics
from thmfrac.constitutive import MaterialParams
from thmfrac.fem import (FieldOperator, apply_dirichlet, build_tables, gauss_2x2, shape_q4,
                         solve_bound_constrained, solve_linear)
from thmfrac.mesh import RefineBand, generate_rect_mesh
from thmfrac.physics import (FieldState, build_flow_system, build_heat_system,
                             build_mechanics_system, build_phasefield_system,
                             mechanics_branch_flags, phase_state, scalar_qp,
                             step_state, strain_qp, strain_state)

from element_loop import (assemble, csr, isoparametric, matrix, mechanics_residual, operator_of,
                          permeability_tensor)

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


def _strain_state(tb, mp, u, v):
    """The strain state of nodal (u, v), as an inner pass forms it."""
    return strain_state(tb, mp, u, phase_state(tb, mp, v))


def _previous(tb, u, p, T):
    """The ``step_state`` of the previous level (u, p, T)."""
    return step_state(tb, FieldState(u=u, p=p, T=T, v=np.ones_like(p)))


def _flow(tb, mp, u, v, p_it, T, u_prev, p_prev, T_prev, dt, source=None):
    """The flow system of the iterate (u, v, p_it) at the new nodal T, with
    no thermal relaxation term (T_it = T)."""
    return build_flow_system(tb, mp, _strain_state(tb, mp, u, v), p_it, scalar_qp(tb, T),
                             None, _previous(tb, u_prev, p_prev, T_prev), dt, source=source)


def _heat(tb, mp, u, v, p_it, T_prev, dt):
    """The heat system of the iterate (u, v, p_it) after the nodal T_prev."""
    return build_heat_system(tb, mp, _strain_state(tb, mp, u, v), p_it,
                             _previous(tb, u, p_it, T_prev), dt)


def _mechanics(tb, mp, u, v, T):
    """The mechanics operator at v with the branch flags of (u, T)."""
    phase = phase_state(tb, mp, v)
    flags = mechanics_branch_flags(tb, mp, strain_state(tb, mp, u, phase), scalar_qp(tb, T))
    return build_mechanics_system(tb, mp, phase, flags)


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
    """Each kernel is one matmul of per-element scaled coefficients against a
    constant reference table; the general isoparametric element data of
    ``element_loop.isoparametric`` (full Jacobian inverse from the node
    coordinates) give the reference."""

    RTOL = 1e-13

    @pytest.fixture(params=["graded", "band"])
    def tb(self, request):
        return build_tables(_kernel_meshes()[request.param])

    @pytest.fixture
    def iso(self, tb):
        return isoparametric(tb.mesh)

    def _close(self, got, ref):
        # summation order differs, so an entry that cancels is measured
        # against the largest entry of its element
        assert got.shape == ref.shape
        err = np.abs(got - ref).reshape(len(ref), -1).max(axis=1)
        scale = np.abs(ref).reshape(len(ref), -1).max(axis=1)
        assert np.all(err <= self.RTOL * scale), (err / scale).max()

    def test_mass(self, tb, iso, rng):
        c = rng.uniform(0.5, 2.0, iso.detJw.shape)
        ref = np.einsum("eq,qa,qb->eab", c * iso.detJw, iso.N, iso.N)
        self._close(physics._mass(tb, c), ref)

    def test_laplacian(self, tb, iso, rng):
        c = rng.uniform(0.5, 2.0, iso.detJw.shape)
        ref = np.einsum("eq,eqad,eqbd->eab", c * iso.detJw, iso.dNdx, iso.dNdx)
        self._close(physics._laplacian(tb, c), ref)

    def test_tensor_laplacian(self, tb, iso, rng):
        A = rng.normal(size=iso.detJw.shape + (2, 2))
        K = np.matmul(A, A.transpose(0, 1, 3, 2)) + 0.1 * np.eye(2)
        ref = np.einsum("eqac,eqcd,eq,eqbd->eab", iso.dNdx, K, iso.detJw, iso.dNdx)
        self._close(physics._laplacian_tensor(tb, K[..., 0, 0], K[..., 1, 1], K[..., 0, 1]), ref)

    def test_advection(self, tb, iso, rng):
        q = rng.normal(size=iso.detJw.shape + (2,))
        ref = np.einsum("eq,qa,eqd,eqbd->eab", iso.detJw, iso.N, q, iso.dNdx)
        self._close(physics._advection(tb, q), ref)

    def test_load(self, tb, iso, rng):
        src = rng.uniform(0.5, 2.0, iso.detJw.shape)
        ref = np.einsum("eq,qa->ea", src * iso.detJw, iso.N)
        self._close(physics._load(tb, src), ref)

    def test_mechanics_stiffness(self, tb, iso, rng, generic_params):
        shape = iso.detJw.shape
        moduli = law.degraded_moduli(law.degradation(rng.uniform(0.0, 1.0, shape),
                                                     generic_params.k_res),
                                     rng.integers(0, 2, shape).astype(float), generic_params)
        C = law.effective_stiffness(moduli, generic_params)
        ref = np.einsum("eqsa,eqst,eqtb->eab", iso.B, C * iso.detJw[..., None, None], iso.B)
        self._close(physics._stiffness(tb, C), ref)

    def test_mechanics_rhs(self, tb, iso, rng):
        s = rng.uniform(0.5, 2.0, iso.detJw.shape)
        sig = s[..., None] * np.array([1.0, 1.0, 0.0])
        ref = np.einsum("eqsa,eqs,eq->ea", iso.B, sig, iso.detJw)
        self._close(physics._divergence(tb, s), ref)

    def test_quadrature_point_interpolation(self, tb, iso, rng):
        f = rng.normal(size=tb.mesh.n_nodes)
        u = rng.normal(size=2 * tb.mesh.n_nodes)
        perm = law.Permeability(*rng.normal(size=(3,) + iso.detJw.shape))
        self._close(scalar_qp(tb, f), np.einsum("qi,ei->eq", iso.N, f[tb.conn]))
        grad = np.einsum("eqid,ei->eqd", iso.dNdx, f[tb.conn])
        self._close(physics.grad_qp(tb, f), grad)
        self._close(strain_qp(tb, u), np.einsum("eqsa,ea->eqs", iso.B, u[tb.dofs_vec]))
        mp = MaterialParams(E=1e9, nu=0.2, mu_f=2e-3)
        self._close(physics.darcy_flux_qp(tb, mp, perm, f),
                    -np.einsum("eqcd,eqd->eqc", permeability_tensor(perm), grad) / mp.mu_f)


def test_component_flux_and_tensor_laplacian_match_the_tensor_form(generic_params, rng):
    # numpy's stacked matmul of (2, 2) by (2, 1) blocks does not always sum
    # kxx gx + kxy gy as the component form does (on this grid of over 1,000
    # elements it differs in the last bit at some points), so the two forms
    # agree to round-off
    mesh = generate_rect_mesh(2.0, 1.0, 20, 10,
                              [RefineBand(axis="x", lo=0.5, hi=1.0, h=0.02, ratio=1.3),
                               RefineBand(axis="y", lo=0.4, hi=0.6, h=0.02, ratio=1.3)])
    tb = build_tables(mesh)
    mp = generic_params
    assert mesh.n_elems >= 1000
    u, p, _, v = _random_state(mesh, mp, rng)
    st = _strain_state(tb, mp, u, v)
    K = permeability_tensor(st.perm)
    assert (st.perm.xy != 0.0).mean() > 0.5

    q = physics.darcy_flux_qp(tb, mp, st.perm, p)
    g = physics.grad_qp(tb, p)[..., None]
    ref = -np.matmul(K, g)[..., 0] / mp.mu_f
    # relative to the size of the two products summed, since they cancel
    scale = np.matmul(np.abs(K), np.abs(g))[..., 0] / mp.mu_f
    assert np.all(np.abs(q - ref) <= 1e-15 * scale)

    mu = mp.mu_f
    lap = physics._laplacian_tensor(tb, st.perm.xx / mu, st.perm.yy / mu, st.perm.xy / mu)
    c = (K / mu) * physics._metric(tb)[:, None]
    ref = (c.reshape(-1, 16) @ physics._TENSOR_LAPLACIAN).reshape(-1, 4, 4)
    err = np.abs(lap - ref).reshape(len(ref), -1).max(axis=1)
    assert np.all(err <= 1e-15 * np.abs(ref).reshape(len(ref), -1).max(axis=1))


def test_tables_hold_at_most_8_values_per_element_but_the_strain_scales(generic_params, rng):
    # every kernel runs once, so any table a kernel caches on the tables
    # would show here; the field layouts are not arrays. Only the strain's
    # gradient scales hold 16 (2/h_d of each du_i/dx_d at each point), so
    # that strain_qp scales its gradients in one product of equal shapes
    mesh = _kernel_meshes()["graded"]
    tb = build_tables(mesh)
    mp = generic_params
    assert mp.rho_f * mp.c_pf != 0.0    # the heat kernel runs its advection term
    u, p, T, v = _random_state(mesh, mp, rng)
    phase = phase_state(tb, mp, v)
    st = strain_state(tb, mp, u, phase)
    T_qp = scalar_qp(tb, T)
    op = build_mechanics_system(tb, mp, phase, mechanics_branch_flags(tb, mp, st, T_qp))
    physics.mechanics_rhs(tb, mp, op, p, T_qp, np.zeros(2 * mesh.n_nodes))
    step = _previous(tb, 0.5 * u, p, T)
    build_flow_system(tb, mp, st, p, scalar_qp(tb, T), step.T, step, 0.5)
    build_heat_system(tb, mp, st, p, step, 0.5)
    build_phasefield_system(tb, mp, np.full(mesh.n_elems, mp.Gc), u, p, scalar_qp(tb, T))
    physics.grad_qp(tb, p)
    sizes = {k: a.size for k, a in vars(tb).items() if isinstance(a, np.ndarray)}
    assert {"dofs_vec", "qp_detJ", "qp_h_e", "qp_grad", "qp_disp_grad", "qp_aspect",
            "qp_half"} <= set(sizes)
    assert tb.conn is mesh.elems and tb.h is mesh.h     # the mesh's, not copies
    assert sizes.pop("qp_disp_grad") == 16 * mesh.n_elems
    assert max(sizes.values()) <= 8 * mesh.n_elems, sizes


# ---------------------------------------------------------------------------
# quadrature-point state
# ---------------------------------------------------------------------------

class TestQPState:
    @pytest.fixture
    def setup(self, generic_params):
        mesh = generate_rect_mesh(1.0, 1.0, 4, 4)
        return mesh, build_tables(mesh), generic_params

    def test_branch_flags_are_the_thermoelastic_split_flag(self, setup, rng):
        mesh, tb, mp = setup
        assert mp.alpha_s != 0.0
        u, _, T, v = _random_state(mesh, mp, rng)
        st = _strain_state(tb, mp, u, v)
        dT = scalar_qp(tb, T) - mp.T0
        flags = mechanics_branch_flags(tb, mp, st, scalar_qp(tb, T))
        eps_e, ezz, tr_e, tr_sign = law.thermoelastic_split(strain_qp(tb, u), dT, mp.alpha_s)
        assert np.array_equal(flags, tr_sign)
        # the trace without the elastic strain is the trace of the formed one
        assert np.array_equal(law.elastic_trace(st.eps, dT, mp.alpha_s),
                              law.trace2(eps_e) + ezz)
        assert np.array_equal(tr_e, law.trace2(eps_e) + ezz)
        assert 0.0 < flags.mean() < 1.0

    @pytest.mark.parametrize("variant", ["phi1", "phi0"])
    def test_width_porosity_permeability_are_the_standalone_laws(self, setup, rng, variant):
        mesh, tb, mp = setup
        mp = replace(mp, porosity_variant=variant)
        u, _, T, v = _random_state(mesh, mp, rng)
        st = _strain_state(tb, mp, u, v)
        dT = scalar_qp(tb, T) - mp.T0
        porosity = law.state_porosity(st, dT, mp)
        eps = strain_qp(tb, u)
        v_qp = scalar_qp(tb, v)
        e1, e2 = law.principal_strains(eps)
        width = law.fracture_width(e1, mesh.h_e[:, None])
        g = law.degradation(v_qp, mp.k_res)
        tr_sign = law.thermoelastic_split(eps, dT, mp.alpha_s)[3]
        phi = law.porosity(e1, mp, law.degraded_moduli(g, tr_sign, mp))
        crack = (1.0 - np.clip(v_qp, 0.0, 1.0)) ** mp.xi
        perm = law.permeability(crack, width, eps, e1, e2, mp)
        assert np.any(width > 0.0)
        assert np.array_equal(st.width, width)
        assert np.array_equal(porosity, phi)
        assert np.array_equal(st.g, g)
        for got, ref in zip(st.perm, perm):
            assert np.array_equal(got, ref)
        assert np.array_equal(st.eps_vol, law.trace2(eps))

    @pytest.mark.parametrize("variant", ["phi1", "phi0"])
    def test_each_kernel_evaluates_degradation_once(self, setup, rng, monkeypatch, variant):
        # g(v) with its range check is evaluated once, by the phase state of
        # an outer iteration; the mechanics, flow and heat kernels read it.
        # Mechanics and flow form their branch flags, heat only where its
        # porosity law reads one
        mesh, tb, mp = setup
        mp = replace(mp, porosity_variant=variant)
        calls, flags = [], []
        degradation, branch_flag = law.degradation, law.branch_flag

        def counted(v, k_res):
            calls.append(np.shape(v))
            return degradation(v, k_res)

        monkeypatch.setattr(law, "degradation", counted)
        monkeypatch.setattr(law, "branch_flag",
                            lambda *args: flags.append(1) or branch_flag(*args))
        u, p, T, v = _random_state(mesh, mp, rng)
        phase = phase_state(tb, mp, v)
        assert calls == [(mesh.n_elems, 4)]
        calls.clear()
        st = strain_state(tb, mp, u, phase)
        T_qp = scalar_qp(tb, T)
        op = build_mechanics_system(tb, mp, phase, mechanics_branch_flags(tb, mp, st, T_qp))
        assert op.moduli.g is phase.g and st.g is phase.g
        assert len(flags) == 1
        physics.mechanics_rhs(tb, mp, op, p, T_qp, np.zeros(2 * mesh.n_nodes))
        step = _previous(tb, 0.5 * u, p, T)
        build_flow_system(tb, mp, st, p, T_qp, step.T, step, 0.5)
        assert len(flags) == 2
        build_heat_system(tb, mp, st, p, step, 0.5)
        assert len(flags) == 2 + (variant == "phi0")
        assert calls == []


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
        op = _mechanics(tb, mp, u, v, T)
        ref = dense_elastic_stiffness(mesh, plane_strain_C(mp))
        scale = np.abs(ref).max()
        assert np.allclose(csr(tb.vector_layout, op.data).toarray(), ref, atol=1e-12 * scale)

    def test_jacobian_matches_finite_differences(self, small_setup, rng):
        mesh, tb, mp = small_setup
        n = mesh.n_nodes
        u = rng.normal(scale=1e-4, size=2 * n)
        p = rng.uniform(0, 1e5, n)
        T = np.full(n, mp.T0) + rng.uniform(0, 5, n)
        v = rng.uniform(0.3, 1.0, n)
        f_ext = np.zeros(2 * n)
        J = csr(tb.vector_layout, _mechanics(tb, mp, u, v, T).data).toarray()
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
        system = _flow(tb, mp, u, v, p, T, u, p, T, dt=1.0)
        assert np.allclose(matrix(tb, system) @ p - system.rhs, 0.0,
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
        for _ in range(30):                   # iterate lagged terms to the fixed point
            system = _flow(tb, mp, uvec, v, p, T, uvec, p_prev, T, dt, source=source)
            p = solve_linear(operator_of(matrix(tb, system)), system.rhs)
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
        system = _flow(tb, mp, uvec, v, p_prev, T, uvec, p_prev, T, dt)
        phi = eps1
        dense = (dense_scalar_mass(mesh, phi * mp.c_f / dt)
                 + dense_scalar_laplacian(mesh, mp.perm_m / mp.mu_f))
        scale = np.abs(dense).max()
        assert np.allclose(matrix(tb, system).toarray(), dense, atol=1e-12 * scale)
        rhs_ref = dense_scalar_mass(mesh, phi * mp.c_f / dt) @ p_prev
        assert np.allclose(system.rhs, rhs_ref, atol=1e-12 * np.abs(rhs_ref).max())

    def test_thermal_relaxation_is_the_strain_of_the_temperature_change(self, small_setup,
                                                                        rng):
        # intact rock (v = 1): alpha = alpha_m on either branch, so the term
        # adds -3 alpha_m alpha_s/dt M (T - T_it) to the rhs, M the mass matrix
        mesh, tb, mp = small_setup
        n = mesh.n_nodes
        u = rng.normal(scale=1e-4, size=2 * n)
        p = rng.uniform(0, 1e5, n)
        T, T_it = mp.T0 + rng.uniform(-5, 5, (2, n))
        v = np.ones(n)
        dt = 0.5
        st = _strain_state(tb, mp, u, v)
        step = _previous(tb, 0.5 * u, p, mp.T0 + np.zeros(n))
        without = build_flow_system(tb, mp, st, p, scalar_qp(tb, T), None, step, dt)
        with_term = build_flow_system(tb, mp, st, p, scalar_qp(tb, T), scalar_qp(tb, T_it),
                                      step, dt)
        assert with_term.data.tobytes() == without.data.tobytes()
        expect = -(3.0 * mp.alpha_m * mp.alpha_s / dt) * dense_scalar_mass(mesh, 1.0) @ (T - T_it)
        assert np.allclose(with_term.rhs - without.rhs, expect,
                           rtol=1e-9, atol=1e-12 * np.abs(without.rhs).max())
        assert np.abs(expect).max() > 1e-6 * np.abs(without.rhs).max()
        # at the fixed point T_it = T the term vanishes
        same = build_flow_system(tb, mp, st, p, scalar_qp(tb, T), scalar_qp(tb, T), step, dt)
        assert same.rhs.tobytes() == without.rhs.tobytes()

    def test_large_dt_reduces_to_steady_darcy(self, small_setup):
        mesh, tb, mp = small_setup
        u, p, T, v = _uniform_state(mesh, mp)
        system = _flow(tb, mp, u, v, p, T, u, p, T, dt=1e30)
        dense = dense_scalar_laplacian(mesh, mp.perm_m / mp.mu_f)
        assert np.allclose(matrix(tb, system).toarray(), dense,
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
        system = _flow(tb, mp, u, v, p_it, T, u * 0.5, p_prev, T_prev, 0.5)
        J = matrix(tb, system).toarray()

        def residual(p):
            return matrix(tb, system) @ p - system.rhs

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
        system = _heat(tb, mp, u, v, p, T, dt)
        phi = mp.phi_m
        lam = law.conductivity_eff(phi, mp)
        rhoc = law.heat_capacity_eff(phi, mp)
        dense = dense_scalar_laplacian(mesh, lam)
        lumped = dense_scalar_mass(mesh, rhoc / dt).sum(axis=1)
        dense[np.arange(n), np.arange(n)] += lumped
        assert np.allclose(matrix(tb, system).toarray(), dense,
                           atol=1e-12 * np.abs(dense).max())

    def test_uniform_temperature_zero_residual_despite_advection(self, small_setup):
        mesh, tb, mp = small_setup
        n = mesh.n_nodes
        u = np.zeros(2 * n)
        p = 1e6 * mesh.nodes[:, 0]  # linear p: constant q_f
        T = np.full(n, mp.T0 + 25.0)
        v = np.ones(n)
        system = _heat(tb, mp, u, v, p, T, dt=1.0)
        r = matrix(tb, system) @ T - system.rhs
        assert np.abs(r).max() <= 1e-12 * np.abs(system.rhs).max()

    def test_stabilization_adds_scaled_isotropic_conductivity(self, small_setup):
        mesh, tb, mp = small_setup
        n = mesh.n_nodes
        u = np.zeros(2 * n)
        p = 1e9 * mesh.nodes[:, 0]  # constant Darcy flux
        T = np.full(n, mp.T0)
        v = np.ones(n)
        assert mp.s_stab > 0.0
        on = _heat(tb, mp, u, v, p, T, 1.0)
        off = _heat(tb, replace(mp, s_stab=0.0), u, v, p, T, 1.0)
        q = mp.perm_m / mp.mu_f * 1e9
        lam_add = 0.5 * mp.s_stab * q * mesh.h_e[0] * mp.rho_f * mp.c_pf
        dense = dense_scalar_laplacian(mesh, lam_add)
        diff = (matrix(tb, on) - matrix(tb, off)).toarray()
        assert np.allclose(diff, dense, rtol=1e-10)

    def test_conduction_operator_satisfies_max_principle(self, generic_params):
        # uniform rectangles: the lumped backward-Euler heat operator is an
        # M-matrix, so its inverse is nonnegative
        mp = generic_params
        mesh = generate_rect_mesh(1.0, 1.0, 4, 4)
        tb = build_tables(mesh)
        n = mesh.n_nodes
        u, p, T, v = _uniform_state(mesh, mp)
        system = _heat(tb, mp, u, v, p, T, dt=10.0)
        A = matrix(tb, system).toarray()
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
        system = _heat(tb, mp, u, v, p, T, dt=1e12)
        left = mesh.boundary_nodes["left"]
        right = mesh.boundary_nodes["right"]
        dofs = np.concatenate([left, right])
        vals = np.concatenate([np.full(left.size, 301.0), np.full(right.size, 300.0)])
        op = FieldOperator(tb.scalar_layout, dofs, vals, symmetric=False)
        apply_dirichlet(op, system.data)
        Tsol = solve_linear(op, op.rhs(system.rhs))
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
        system = _heat(tb, mp, np.zeros(2 * n), np.ones(n), p, np.full(n, 300.0), dt=1e12)
        left = mesh.boundary_nodes["left"]
        right = mesh.boundary_nodes["right"]
        dofs = np.concatenate([left, right])
        vals = np.concatenate([np.full(left.size, 301.0), np.full(right.size, 300.0)])
        op = FieldOperator(tb.scalar_layout, dofs, vals, symmetric=False)
        apply_dirichlet(op, system.data)
        A, b = op.eliminated, op.rhs(system.rhs)
        assert abs(A - A.T).max() > abs(A).max()
        gate = 1e-10 * np.linalg.norm(b)
        assert np.linalg.norm(A @ op.factorize().solve_factored(b) - b) <= gate
        assert np.linalg.norm(A @ solve_linear(op, b) - b) <= gate


# ---------------------------------------------------------------------------
# phase-field kernel
# ---------------------------------------------------------------------------

class TestPhaseField:
    def test_undriven_at2_has_intact_solution(self, small_setup):
        mesh, tb, mp = small_setup
        n = mesh.n_nodes
        u, p, T, v = _uniform_state(mesh, mp)
        gc = np.full(mesh.n_elems, mp.Gc)
        system = build_phasefield_system(tb, mp, gc, u, p, scalar_qp(tb, T))
        assert np.allclose(matrix(tb, system) @ np.ones(n) - system.rhs, 0.0,
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
        system = build_phasefield_system(tb, mp, gc, u, p, scalar_qp(tb, T))
        v_sol = solve_linear(operator_of(matrix(tb, system)), system.rhs)
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
        sys_p = build_phasefield_system(tb, mp, gc, u, np.full(n, 5e6), scalar_qp(tb, T))
        sys_0 = build_phasefield_system(tb, mp, gc, u, np.zeros(n), scalar_qp(tb, T))
        assert np.allclose(matrix(tb, sys_p).toarray(), matrix(tb, sys_0).toarray())

    def test_pressure_drive_is_the_law_coefficient(self, generic_params, rng):
        mp = generic_params
        assert mp.alpha_m < 1.0 and mp.alpha_s != 0.0
        mesh = generate_rect_mesh(1.0, 1.0, 3, 3)
        tb = build_tables(mesh)
        u, p, T, _ = _random_state(mesh, mp, rng)
        gc = np.full(mesh.n_elems, mp.Gc)
        sys_p = build_phasefield_system(tb, mp, gc, u, p, scalar_qp(tb, T))
        sys_0 = build_phasefield_system(tb, mp, gc, u, np.zeros_like(p), scalar_qp(tb, T))
        _, _, tr_e, h = law.thermoelastic_split(strain_qp(tb, u), scalar_qp(tb, T) - mp.T0,
                                                mp.alpha_s)
        drive = law.biot_modulus_pressure_drive(tr_e, scalar_qp(tb, p), h, mp)
        assert np.any(drive != 0.0)
        iso = isoparametric(mesh)
        ME = np.einsum("eq,qa,qb->eab", drive * iso.detJw, iso.N, iso.N)
        ref = assemble(mesh, lambda e: (ME[e], np.zeros(4)))[0].toarray()
        diff = (matrix(tb, sys_p) - matrix(tb, sys_0)).toarray()
        assert np.allclose(diff, ref, rtol=1e-9, atol=1e-9 * np.abs(ref).max())
        assert np.array_equal(sys_p.rhs, sys_0.rhs)

    def test_free_block_solve_matches_a_dense_solve(self, generic_params, rng):
        mp = generic_params
        mesh = generate_rect_mesh(1.0, 1.0, 6, 6)
        tb = build_tables(mesh)
        n = mesh.n_nodes
        u, p, T, _ = _random_state(mesh, mp, rng)
        system = build_phasefield_system(tb, mp, np.full(mesh.n_elems, mp.Gc), u, p,
                                         scalar_qp(tb, T))
        lower, upper = np.zeros(n), np.ones(n)
        upper[mesh.boundary_nodes["left"]] = 0.0
        x = solve_bound_constrained(operator_of(matrix(tb, system)), system.rhs, lower, upper,
                                    np.full(n, 0.5))
        free = (x > lower) & (x < upper)
        act = ~free
        assert free.sum() > n // 2 and act.any()
        A = matrix(tb, system).toarray()
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
        system = build_phasefield_system(tb, mp, gc, u, p, scalar_qp(tb, T))
        # with zero driving the matrix is the pure gradient stiffness and the
        # rhs integrates gamma/ell against the shape functions
        gamma = mp.Gc / (4 * mp.c_n)
        dense = dense_scalar_laplacian(mesh, 2 * gamma * mp.ell)
        assert np.allclose(matrix(tb, system).toarray(), dense,
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
        system = build_phasefield_system(tb, mp, gc, u, p, scalar_qp(tb, T))
        J = matrix(tb, system).toarray()
        v0 = rng.uniform(0.2, 0.9, n)
        h = 1e-6
        fd = np.empty_like(J)
        for i in range(n):
            e = np.zeros(n)
            e[i] = h
            rp = matrix(tb, system) @ (v0 + e) - system.rhs
            rm = matrix(tb, system) @ (v0 - e) - system.rhs
            fd[:, i] = (rp - rm) / (2 * h)
        assert np.abs(J - fd).max() <= 1e-5 * np.abs(J).max()

    def test_heat_jacobian_matches_fd_with_frozen_flux(self, small_setup, rng):
        mesh, tb, mp = small_setup
        n = mesh.n_nodes
        u = rng.normal(scale=1e-4, size=2 * n)
        p = rng.uniform(0, 1e6, n)
        T_prev = np.full(n, mp.T0) + rng.uniform(-5, 5, n)
        v = rng.uniform(0.2, 1.0, n)
        system = _heat(tb, mp, u, v, p, T_prev, dt=0.7)
        J = matrix(tb, system).toarray()
        T0 = np.full(n, mp.T0)
        h = 1e-4
        fd = np.empty_like(J)
        for i in range(n):
            e = np.zeros(n)
            e[i] = h
            rp = matrix(tb, system) @ (T0 + e) - system.rhs
            rm = matrix(tb, system) @ (T0 - e) - system.rhs
            fd[:, i] = (rp - rm) / (2 * h)
        assert np.abs(J - fd).max() <= 1e-5 * np.abs(J).max()
