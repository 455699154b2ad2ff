import itertools
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from thmfrac.errors import SolverFailure
from thmfrac import fem
from thmfrac.fem import (FieldOperator, FieldSystem, apply_dirichlet, build_tables, gauss_2x2,
                         shape_q4, solve_bound_constrained, solve_linear)
from thmfrac.mesh import Mesh, RefineBand, generate_rect_mesh
from thmfrac.physics import (FieldState, build_flow_system, build_heat_system, phase_state,
                             scalar_qp, step_state, strain_state)

from element_loop import assemble, csr, operator_of, reduced_elimination, reduced_factor


class TestShapeFunctions:
    def test_centroid_values(self):
        N, _ = shape_q4(0.0, 0.0)
        assert np.allclose(N, 0.25)

    def test_corner_is_interpolatory(self):
        N, _ = shape_q4(-1.0, -1.0)
        assert np.allclose(N, [1.0, 0.0, 0.0, 0.0])

    def test_partition_of_unity_and_gradients(self, rng):
        for xi, eta in rng.uniform(-1, 1, (32, 2)):
            N, dN = shape_q4(xi, eta)
            assert N.sum() == pytest.approx(1.0, abs=1e-14)
            assert np.allclose(dN.sum(axis=0), 0.0, atol=1e-14)


class TestQuadrature:
    def test_integrates_constants(self):
        pts, w = gauss_2x2()
        assert w.sum() == pytest.approx(4.0)

    def test_integrates_xi_squared(self):
        pts, w = gauss_2x2()
        assert (w * pts[:, 0] ** 2).sum() == pytest.approx(4.0 / 3.0, rel=1e-14)

    def test_odd_products_vanish(self):
        pts, w = gauss_2x2()
        assert (w * pts[:, 0] * pts[:, 1]).sum() == pytest.approx(0.0, abs=1e-14)

    def test_exact_for_bilinear_products(self, rng):
        # products of two bilinears are quadratic per direction: exact
        pts, w = gauss_2x2()
        a0, a1, a2, a3, b0, b1, b2, b3 = rng.uniform(-1, 1, 8)

        def f(x, y):
            return ((a0 + a1 * x + a2 * y + a3 * x * y)
                    * (b0 + b1 * x + b2 * y + b3 * x * y))

        quad = sum(wi * f(x, y) for (x, y), wi in zip(pts, w))
        exact = 4 * (a0 * b0 + (a1 * b1 + a2 * b2) / 3 + a3 * b3 / 9)
        assert quad == pytest.approx(exact, rel=1e-13)


class TestAssembly:
    def test_identity_kernel_on_single_element(self):
        m = generate_rect_mesh(1.0, 1.0, 1, 1)
        A, _ = assemble(m, lambda e: (np.eye(4), np.zeros(4)))
        assert np.allclose(A.toarray(), np.eye(4))

    def test_shared_edge_accumulates(self):
        # dense two-element hand assembly of the unit mass matrix
        m = generate_rect_mesh(2.0, 1.0, 2, 1)
        tb = build_tables(m)
        pts, w = gauss_2x2()
        me = np.zeros((4, 4))
        for (xi, eta), wi in zip(pts, w):
            N, _ = shape_q4(xi, eta)
            me += wi * np.outer(N, N) * 0.25  # detJ of a unit square
        ref = np.zeros((6, 6))
        for conn in m.elems:
            for a, b in itertools.product(range(4), range(4)):
                ref[conn[a], conn[b]] += me[a, b]
        A, _ = assemble(m, lambda e: (me, np.zeros(4)))
        assert np.allclose(A.toarray(), ref, atol=1e-15)
        shared = np.intersect1d(m.elems[0], m.elems[1])
        for n in shared:
            assert ref[n, n] == pytest.approx(2 * me.diagonal().max(), rel=1e-12)

    def test_zero_kernel_gives_zero_system(self):
        m = generate_rect_mesh(1.0, 1.0, 2, 2)
        A, b = assemble(m, lambda e: (np.zeros((4, 4)), np.zeros(4)))
        assert A.nnz == 0 or np.allclose(A.data, 0.0)
        assert np.allclose(b, 0.0)

    def test_kernel_size_mismatch_rejected(self):
        m = generate_rect_mesh(1.0, 1.0, 1, 1)
        with pytest.raises(ValueError, match="size mismatch"):
            assemble(m, lambda e: (np.eye(3), np.zeros(3)))

    def test_batched_scatter_matches_loop_assembly(self, rng):
        m = generate_rect_mesh(1.0, 1.0, 3, 2)
        tb = build_tables(m)
        KE = rng.normal(size=(m.n_elems, 4, 4))
        FE = rng.normal(size=(m.n_elems, 4))
        layout = tb.scalar_layout
        A_l, b_l = assemble(m, lambda e: (KE[e], FE[e]))
        assert np.allclose(csr(layout, layout.assemble(KE)).toarray(), A_l.toarray(), atol=1e-15)
        assert np.allclose(layout.scatter(FE), b_l)


def _graded_tables():
    mesh = generate_rect_mesh(2.0, 1.0, 9, 5,
                              [RefineBand(axis="x", lo=0.5, hi=1.0, h=0.05, ratio=1.3),
                               RefineBand(axis="y", lo=0.4, hi=0.6, h=0.05, ratio=1.3)])
    return mesh, build_tables(mesh)


def _coo_reference(dofs, KE, n):
    nd = dofs.shape[1]
    rows = np.repeat(dofs, nd, axis=1).ravel()
    cols = np.tile(dofs, (1, nd)).ravel()
    return sp.coo_matrix((KE.ravel(), (rows, cols)), shape=(n, n)).tocsr()


def _same_csr(A, B):
    return (np.array_equal(A.indptr, B.indptr) and np.array_equal(A.indices, B.indices)
            and A.data.tobytes() == B.data.tobytes())


class TestPattern:
    @pytest.mark.parametrize("vector", [False, True])
    def test_sums_each_entry_in_element_order(self, rng, vector):
        mesh, tb = _graded_tables()
        dofs = tb.dofs_vec if vector else tb.conn
        nd = dofs.shape[1]
        # entries spanning many decades make the summation order visible
        KE = (rng.normal(size=(mesh.n_elems, nd, nd))
              * 10.0 ** rng.integers(-8, 9, size=(mesh.n_elems, nd, nd)))
        layout = tb.vector_layout if vector else tb.scalar_layout
        n = layout.shape[0]
        dense = np.zeros((n, n))
        np.add.at(dense, (np.repeat(dofs, nd, axis=1).ravel(), np.tile(dofs, (1, nd)).ravel()),
                  KE.ravel())
        A = csr(layout, layout.assemble(KE))
        assert A.toarray().tobytes() == dense.tobytes()
        ref = _coo_reference(dofs, KE, n)
        assert np.array_equal(A.indptr, ref.indptr) and np.array_equal(A.indices, ref.indices)
        if not vector:
            # coo.tocsr() orders each row with scipy's unstable index sort;
            # on the scalar field's short rows (at most 16 entries) the
            # duplicates keep their element order, so the sums match bitwise
            assert _same_csr(A, ref)
        assert np.array_equal(layout.indices[layout.diag], np.arange(n))
        assert np.array_equal(layout.rows, np.repeat(np.arange(n), np.diff(layout.indptr)))

    def test_pattern_is_built_once_and_shared(self, rng, monkeypatch):
        _, tb = _graded_tables()
        built = []
        field_layout = fem.field_layout
        monkeypatch.setattr(fem, "field_layout",
                            lambda *args: built.append(1) or field_layout(*args))
        KE = rng.normal(size=(tb.mesh.n_elems, 4, 4))
        layout = tb.scalar_layout
        A, B = (tb.scalar_layout.assemble(k * KE) for k in (1.0, 2.0))
        assert built == [1] and tb.scalar_layout is layout
        assert A.size == B.size == layout.indices.size
        assert not tb.scalar_layout.indices.flags.writeable
        op = FieldOperator(tb.scalar_layout, symmetric=True)
        for M in (op.assembled, op.eliminated):
            assert np.shares_memory(M.indices, tb.scalar_layout.indices)


class TestTables:
    LAZY = ("scalar_layout", "vector_layout", "qp_detJ", "qp_h_e", "qp_grad", "qp_disp_grad",
            "qp_aspect", "qp_half")

    def test_build_tables_builds_no_pattern_or_operator_table(self):
        _, tb = _graded_tables()
        assert not set(self.LAZY) & set(vars(tb))
        assert tb.scalar_layout is tb.scalar_layout
        assert set(vars(tb)) & set(self.LAZY) == {"scalar_layout"}

    def test_per_point_factors_repeat_the_element_sizes(self):
        mesh, tb = _graded_tables()
        hx, hy = tb.h.T
        per_point = {"qp_detJ": [tb.detJ], "qp_h_e": [mesh.h_e], "qp_grad": [2 / hx, 2 / hy],
                     "qp_aspect": [hy / hx, hx / hy], "qp_half": [hy / 2, hx / 2]}
        for name, factors in per_point.items():
            # (E, 4) for one factor, (E, 8) with the two interleaved
            ref = np.stack(factors, axis=-1)[:, None, :].repeat(4, axis=1).reshape(len(hx), -1)
            assert np.array_equal(getattr(tb, name), ref), name
        # (E, 16): 2/h_d of each displacement gradient m = (i, d) at each point
        assert np.array_equal(tb.qp_disp_grad, np.tile(tb.qp_grad, 2))

    def test_grid_lines_that_do_not_increase_rejected(self):
        mesh = generate_rect_mesh(1.0, 1.0, 3, 2)
        with pytest.raises(ValueError, match="along x must .* strictly increasing"):
            Mesh(mesh.xs[::-1], mesh.ys)

    @pytest.mark.parametrize("vector", [False, True])
    def test_scatter_is_bitwise_add_at(self, rng, vector):
        _, tb = _graded_tables()
        dofs = tb.dofs_vec if vector else tb.conn
        FE = (rng.normal(size=dofs.shape)
              * 10.0 ** rng.integers(-8, 9, size=dofs.shape))
        ref = np.zeros(2 * tb.mesh.n_nodes if vector else tb.mesh.n_nodes)
        np.add.at(ref, dofs.ravel(), FE.ravel())
        layout = tb.vector_layout if vector else tb.scalar_layout
        assert layout.dofs is dofs
        assert layout.scatter(FE).tobytes() == ref.tobytes()


def _rebuilt_elimination(A, b, dofs, values):
    """Row/column elimination by rebuilding the matrix: A * mask + diag."""
    n = A.shape[0]
    g = np.zeros(n)
    g[dofs] = values
    rhs = b - A @ g
    keep = np.ones(n)
    keep[dofs] = 0.0
    A = A.tocsr(copy=True)
    rows = np.repeat(np.arange(n), np.diff(A.indptr))
    A.data = A.data * (keep[rows] * keep[A.indices])
    A = (A + sp.diags(1.0 - keep)).tocsr()
    rhs = rhs * keep
    rhs[dofs] = values
    return A, rhs


def _stored(A):
    """Dense mask of the stored entries of a CSR structure."""
    ones = np.ones(A.indices.size)
    return sp.csr_matrix((ones, A.indices, A.indptr), shape=A.shape).toarray() > 0.0


def _constrained_system(rng, vector, kind="random"):
    """A system on the graded mesh with explicit zeros planted and the
    field's operator state with twelve Dirichlet constraints. ``kind``
    "spd" and "nonsymmetric" give operators that Cholesky and LU
    factorize, and the operator state is declared of that symmetry."""
    mesh, tb = _graded_tables()
    nd = 8 if vector else 4
    KE = rng.normal(size=(mesh.n_elems, nd, nd))
    if kind == "spd":
        KE = KE @ KE.transpose(0, 2, 1) + nd * np.eye(nd)
    elif kind == "nonsymmetric":
        KE = KE + 2.0 * nd * np.eye(nd)
    KE[:, 0, 1] = KE[:, 1, 0] = 0.0     # explicit zeros in the assembled operator
    layout = tb.vector_layout if vector else tb.scalar_layout
    system = FieldSystem(layout.assemble(KE), layout.scatter(rng.normal(size=(mesh.n_elems, nd))))
    n = layout.shape[0]
    # dofs 0 and 1 stay free: the vector field's only planted zeros
    # couple them, at the corner node that one element holds
    dofs = np.unique(rng.choice(np.arange(2, n), 12, replace=False))
    return system, FieldOperator(layout, dofs, rng.normal(size=dofs.size),
                                 symmetric=kind != "nonsymmetric")


def _fill_factor(op):
    """Load the identity on its layout into ``op`` and fill its factor."""
    data = np.zeros(op.layout.indices.size)
    data[op.layout.diag] = 1.0
    apply_dirichlet(op, data)
    op.factorize()
    assert op.band is not None


class TestDirichlet:
    @pytest.mark.parametrize("vector", [False, True])
    def test_mask_equals_rebuilt_elimination(self, rng, vector):
        system, op = _constrained_system(rng, vector)
        layout = op.layout
        A = csr(layout, system.data)
        _fill_factor(op)
        apply_dirichlet(op, system.data)
        fixed = op.eliminated
        A_ref, rhs_ref = _rebuilt_elimination(A, system.rhs, op.dofs, op.values)
        assert np.array_equal(fixed.toarray(), A_ref.toarray())
        assert op.rhs(system.rhs).tobytes() == rhs_ref.tobytes()
        # new operator data empty the factor of the old
        assert op.band is None
        # the elimination keeps the full structure: the off-diagonal slots
        # of constrained rows and columns stay as explicit zeros
        assert op.assembled.data is system.data
        assert np.array_equal(_stored(fixed), _stored(csr(layout, system.data)))
        n = layout.shape[0]
        constrained = np.zeros(n, dtype=bool)
        constrained[op.dofs] = True
        dropped = (constrained[:, None] | constrained[None, :]) & ~np.eye(n, dtype=bool)
        planted = _stored(fixed) & ~dropped & (A.toarray() == 0.0)
        zeros = np.count_nonzero(planted) + np.count_nonzero(_stored(fixed) & dropped)
        assert np.count_nonzero(fixed.data == 0.0) == zeros
        assert np.count_nonzero(planted) > 0
        # a second operator is eliminated into the same storage
        apply_dirichlet(op, 2.0 * system.data)
        assert op.eliminated is fixed and fixed.data[0] == 2.0 * system.data[0]

    @pytest.mark.parametrize("kind", ["spd", "nonsymmetric"])
    @pytest.mark.parametrize("vector", [False, True])
    def test_masked_solve_is_bitwise_the_reduced_structure_solve(self, rng, vector, kind):
        system, op = _constrained_system(rng, vector, kind)
        reduced, slots = reduced_elimination(op.layout, system.data, op.dofs)
        apply_dirichlet(op, system.data)
        assert np.array_equal(op.eliminated.toarray(), reduced.toarray())
        rhs = op.rhs(system.rhs)
        symmetric = kind == "spd"
        x = solve_linear(op, rhs)
        ref = solve_linear(reduced_factor(op.layout, reduced, slots, symmetric), rhs)
        assert (op.ipiv is None) == (kind == "spd")
        assert x.tobytes() == ref.tobytes()

    def test_no_constraints_leave_the_system_alone(self, rng):
        _, tb = _graded_tables()
        layout = tb.scalar_layout
        sys_ = FieldSystem(layout.assemble(rng.normal(size=(tb.mesh.n_elems, 4, 4))),
                           layout.scatter(rng.normal(size=(tb.mesh.n_elems, 4))))
        op = FieldOperator(layout, symmetric=False)
        apply_dirichlet(op, sys_.data)
        assert op.lift is None and op.lifted is None
        assert op.eliminated.data.tobytes() == sys_.data.tobytes()
        assert op.rhs(sys_.rhs).tobytes() == sys_.rhs.tobytes()

    def test_rows_and_columns_reduced_to_identity(self, rng):
        m = generate_rect_mesh(1.0, 1.0, 2, 2)
        tb = build_tables(m)
        KE = rng.normal(size=(m.n_elems, 4, 4))
        KE = KE + KE.transpose(0, 2, 1)
        sys_ = FieldSystem(tb.scalar_layout.assemble(KE),
                           tb.scalar_layout.scatter(rng.normal(size=(m.n_elems, 4))))
        dofs = np.array([0, 4])
        vals = np.array([2.0, -1.0])
        op = FieldOperator(tb.scalar_layout, dofs, vals, symmetric=True)
        apply_dirichlet(op, sys_.data)
        A = op.eliminated.toarray()
        rhs = op.rhs(sys_.rhs)
        for d, g in zip(dofs, vals):
            assert np.allclose(A[d], np.eye(9)[d])
            assert np.allclose(A[:, d], np.eye(9)[:, d])
            assert rhs[d] == g
        # symmetry preserved
        assert np.allclose(A, A.T)


class TestFactorLifetime:
    """A field's one factor is never older than its operator: new data
    empty it, and ``solve_linear`` fills an empty one."""

    def test_load_empties_the_factor(self, rng):
        system, op = _constrained_system(rng, False)
        _fill_factor(op)
        assert op.load(system.data) is op.assembled
        assert op.band is None and op.ipiv is None and op.scale is None

    @pytest.mark.parametrize("vector", [False, True])
    def test_apply_dirichlet_empties_the_factor_and_the_solve_fills_it(self, rng, vector):
        system, op = _constrained_system(rng, vector, "spd")
        _fill_factor(op)
        apply_dirichlet(op, system.data)
        assert op.band is None
        solve_linear(op, op.rhs(system.rhs))
        assert op.band is not None
        # a filled factor serves the next solve with the same operator
        band, b = op.band, op.rhs(2.0 * system.rhs)
        y = solve_linear(op, b)
        assert op.band is band
        assert np.linalg.norm(op.eliminated @ y - b) <= 1e-10 * np.linalg.norm(b)

    @pytest.mark.parametrize("kind", ["spd", "nonsymmetric"])
    def test_empty_frees_the_band_and_the_next_solve_factorizes_again(self, rng, kind,
                                                                      factorizations):
        system, op = _constrained_system(rng, True, kind)
        apply_dirichlet(op, system.data)
        b = op.rhs(system.rhs)
        x = solve_linear(op, b)
        # the band array the factorization allocated and LAPACK factored in place
        storage = weakref.ref(op.band if op.band.base is None else op.band.base)
        op.empty()
        assert op.band is None and op.ipiv is None and op.scale is None
        # nothing holds the band any more, the operator included
        assert storage() is None
        assert solve_linear(op, b).tobytes() == x.tobytes()
        assert len(factorizations) == 2 and op.band is not None

    def test_each_free_block_elimination_empties_the_factor(self, rng, monkeypatch):
        n = 8
        R = rng.normal(size=(n, n))
        A = R @ R.T + n * np.eye(n)
        op = operator_of(A)
        solves = []
        solve = fem.solve_linear

        def recorded(solved, b):
            solves.append((solved is op, solved.band is None))
            return solve(solved, b)

        monkeypatch.setattr(fem, "solve_linear", recorded)
        op.factorize()
        lo, hi = np.full(n, -0.05), np.full(n, 0.05)
        x = solve_bound_constrained(op, rng.normal(size=n) * 3, lo, hi, np.zeros(n))
        assert np.any((x <= lo) | (x >= hi))    # the active set changed at least once
        assert len(solves) > 1
        # every free block is eliminated into the operator's storage, which
        # empties its factor, and solved with that operator
        assert solves == [(True, True)] * len(solves)
        # the last free block's factor stays until the next data
        assert op.band is not None


def _solve(A, b):
    """``solve_linear`` of the scipy matrix ``A`` with a fresh factor."""
    return solve_linear(operator_of(A), b)


class TestSolveLinear:
    def test_identity_returns_rhs(self, rng):
        b = rng.normal(size=5)
        assert np.allclose(_solve(sp.eye(5, format="csr"), b), b)

    def test_spd_matches_dense_oracle(self):
        A = np.array([[4.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 2.0]])
        b = np.array([1.0, -2.0, 0.5])
        x = _solve(sp.csr_matrix(A), b)
        assert np.allclose(x, np.linalg.solve(A, b), rtol=1e-12)
        assert np.linalg.norm(A @ x - b) <= 1e-10 * np.linalg.norm(b)

    def test_fresh_factor_takes_a_new_factorization(self, factorizations):
        op = operator_of(np.array([[4.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 2.0]]))
        A = op.assembled.copy()
        x1 = solve_linear(op, np.array([1.0, 0.0, 0.0]))
        x2 = solve_linear(op, np.array([0.0, 1.0, 0.0]))
        assert len(factorizations) == 1
        assert np.allclose(A @ x1, [1.0, 0.0, 0.0]) and np.allclose(A @ x2, [0.0, 1.0, 0.0])
        apply_dirichlet(op, 2.0 * A.data)
        x3 = solve_linear(op, np.ones(3))
        assert len(factorizations) == 2
        assert np.allclose(2.0 * A @ x3, np.ones(3), rtol=1e-12)

    def test_singular_matrix_fails_with_diagnostics(self):
        A = sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
        with pytest.raises(SolverFailure):
            _solve(A, np.array([1.0, 0.0]))

    def test_refinement_stops_when_the_residual_stagnates(self, monkeypatch):
        # a chain whose middle links are 1e10 times stiffer, loaded at its
        # soft ends: ||b|| << |A||x|, so the residual floor lies far above
        # 1e-10 ||b|| and every sweep used to run
        solves = _count_solves(monkeypatch)
        rng = np.random.default_rng(0)
        stiff = np.ones(39)
        stiff[10:30] = 1e10 * rng.uniform(0.5, 2.0, 20)
        ground = np.zeros(40)
        ground[0] = 1e-3
        A = _chain(stiff, ground)
        b = np.zeros(40)
        b[[5, -1]] = -0.5, 1.0
        x = _solve(A, b)
        sweeps = len(solves) - 1
        assert 1 <= sweeps <= 3
        r = b - A @ x
        absAx = abs(A) @ np.abs(x)
        rnorm, bnorm = np.linalg.norm(r), np.linalg.norm(b)
        assert 1e-10 * bnorm < rnorm <= 1e-10 * (bnorm + np.linalg.norm(absAx))

    @pytest.mark.parametrize("contrast", [1e2, 1e7])
    def test_a_well_scaled_solve_is_bitwise_the_plain_refinement(self, contrast,
                                                                monkeypatch):
        # refinement that reaches 1e-10 ||b|| never stagnates on the way
        rng = np.random.default_rng(0)
        A = _chain(np.exp(rng.uniform(0.0, np.log(contrast), 39)), 1.0)
        b = rng.normal(size=40)
        op = operator_of(A)
        op.factorize()
        x = op.solve_factored(b)
        sweeps = 0
        while np.linalg.norm(b - A @ x) > 1e-10 * np.linalg.norm(b):
            x = x + op.solve_factored(b - A @ x)
            sweeps += 1
        assert sweeps == (contrast > 1e6)
        assert solve_linear(op, b).tobytes() == x.tobytes()


def _count_solves(monkeypatch):
    """The ``solve_factored`` calls from here on, one entry each."""
    calls = []
    solve = FieldOperator.solve_factored

    def counted(self, b):
        calls.append(b.size)
        return solve(self, b)

    monkeypatch.setattr(FieldOperator, "solve_factored", counted)
    return calls


def _chain(links, ground):
    """The stiffness matrix of a chain of springs ``links`` whose nodes are
    tied to the ground by springs ``ground`` (a scalar or one per node)."""
    diag = np.zeros(links.size + 1) + ground
    diag[:-1] += links
    diag[1:] += links
    return sp.diags([-links, diag, -links], [-1, 0, 1]).tocsr()


def _laplacian_2d(m):
    """5-point Laplacian on an m x m grid of nodes, as CSR."""
    T = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(m, m))
    return (sp.kron(sp.eye(m), T) + sp.kron(T, sp.eye(m))).tocsr()


def _band_dense(layout, A):
    """Dense A in the layout's ordering, read back from its LU and
    Cholesky band storage."""
    n, k = A.shape[0], layout.width
    lu = np.zeros((3 * k + 1) * n)
    lu[layout.lu] = A.data
    lu = lu.reshape(3 * k + 1, n, order="F")
    chol = np.zeros((k + 1) * n)
    chol[layout.chol] = A.data[layout.tril]
    chol = chol.reshape(k + 1, n, order="F")
    full, lower = np.zeros((n, n)), np.zeros((n, n))
    for i, j in itertools.product(range(n), range(n)):
        if abs(i - j) <= k:
            full[i, j] = lu[2 * k + i - j, j]
            if i >= j:
                lower[i, j] = chol[i - j, j]
    return full, lower


def _is_permutation(perm, n):
    return np.array_equal(np.sort(perm), np.arange(n))


class TestFactorization:
    def test_grid_laplacian_takes_cholesky_in_its_own_numbering(self, rng):
        m = 30
        A = _laplacian_2d(m)
        op = operator_of(A).factorize()
        assert np.array_equal(op.layout.perm, np.arange(m * m))
        assert op.layout.width == m
        assert op.ipiv is None          # SPD: Cholesky
        b = rng.normal(size=A.shape[0])
        x = _solve(A, b)
        assert np.linalg.norm(A @ x - b) <= 1e-10 * np.linalg.norm(b)

    @pytest.mark.parametrize("size, axis", [((2.0, 1.0), "x"), ((1.0, 2.0), "y")],
                             ids=["wide", "tall"])
    def test_band_runs_across_the_short_side_of_a_graded_grid(self, size, axis):
        band = RefineBand(axis=axis, lo=0.5, hi=1.0, h=0.05, ratio=1.3)
        mesh = generate_rect_mesh(*size, 5, 5, [band])
        nx, ny = len(mesh.xs), len(mesh.ys)
        assert (nx > ny) if axis == "x" else (nx < ny)
        tb = build_tables(mesh)
        short = min(nx, ny)
        scalar, vector = tb.scalar_layout, tb.vector_layout
        assert scalar.width == short + 1
        assert vector.width == 2 * (short + 1) + 1
        assert _is_permutation(scalar.perm, mesh.n_nodes)
        assert _is_permutation(vector.perm, 2 * mesh.n_nodes)
        # the vector ordering interleaves (ux, uy) over the scalar node order
        assert np.array_equal(vector.perm[0::2], 2 * scalar.perm)
        assert np.array_equal(vector.perm[1::2], 2 * scalar.perm + 1)

    @pytest.mark.parametrize("vector", [False, True])
    def test_band_storage_holds_every_entry_in_the_layout_order(self, rng, vector):
        _, tb = _graded_tables()
        layout = tb.vector_layout if vector else tb.scalar_layout
        n, nd = layout.shape[0], (8 if vector else 4)
        R = rng.normal(size=(tb.mesh.n_elems, nd, nd))
        A = csr(layout, layout.assemble(R @ R.transpose(0, 2, 1) + nd * np.eye(nd)))
        dense = A.toarray()[np.ix_(layout.perm, layout.perm)]
        full, lower = _band_dense(layout, A)
        assert np.array_equal(full, dense)
        assert np.array_equal(lower, np.tril(dense))
        assert np.array_equal(layout.rows[layout.diag], np.arange(n))
        # a constrained operator keeps the structure and factorizes in its layout
        dofs = rng.choice(n, n // 5, replace=False)
        op = FieldOperator(layout, dofs, np.zeros(dofs.size), symmetric=True)
        apply_dirichlet(op, A.data)
        assert op.lift is None
        fixed = op.eliminated
        full, lower = _band_dense(layout, fixed)
        dense = fixed.toarray()[np.ix_(layout.perm, layout.perm)]
        assert np.array_equal(full, dense) and np.array_equal(lower, np.tril(dense))
        op.factorize()
        assert op.ipiv is None
        b = rng.normal(size=n)
        assert np.allclose(op.solve_factored(b), np.linalg.solve(fixed.toarray(), b),
                           rtol=1e-10)

    def test_advective_heat_operator_takes_lu_and_flow_cholesky(self, rng, generic_params):
        # both operators lie on the scalar field's symmetric structure; the
        # advection term alone makes the heat operator's values nonsymmetric
        mesh, tb = _graded_tables()
        mp = generic_params
        assert mp.rho_f * mp.c_pf != 0.0
        n = mesh.n_nodes
        u, v = rng.normal(scale=1e-4, size=2 * n), rng.uniform(0.2, 1.0, n)
        p, T = rng.uniform(1e5, 1e6, n), mp.T0 + rng.uniform(-10.0, 10.0, n)
        st = strain_state(tb, mp, u, phase_state(tb, mp, v))
        step = step_state(tb, FieldState(u=0.5 * u, p=p, T=T, v=v))
        heat = build_heat_system(tb, mp, st, p, step, 0.5)
        flow = build_flow_system(tb, mp, st, p, scalar_qp(tb, T), step.T, step, 0.5)
        for system, takes_lu in ((heat, True), (flow, False)):
            A = csr(tb.scalar_layout, system.data)
            assert (abs(A - A.T).max() > 1e-6 * abs(A).max()) == takes_lu
            op = FieldOperator(tb.scalar_layout, symmetric=not takes_lu)
            apply_dirichlet(op, system.data)
            x = solve_linear(op, system.rhs)
            assert (op.ipiv is not None) == takes_lu
            assert np.allclose(x, spla.spsolve(A.tocsc(), system.rhs), rtol=1e-9)

    def test_indefinite_symmetric_operator_falls_back_to_lu(self):
        op = operator_of(np.array([[2.0, 3.0], [3.0, 2.0]])).factorize()
        assert op.ipiv is not None
        assert np.allclose(op.eliminated @ op.solve_factored(np.array([1.0, -1.0])),
                           [1.0, -1.0], rtol=1e-14)

    def test_operator_is_left_unscaled(self):
        op = operator_of(sp.csc_matrix(np.array([[4.0, 1.0], [1.0, 9.0]])))
        A = op.eliminated
        before = A.toarray()
        op.factorize()
        assert np.array_equal(A.toarray(), before)
        assert np.allclose(op.scale, [0.5, 1.0 / 3.0])
        assert np.allclose(A @ op.solve_factored(np.array([1.0, 2.0])), [1.0, 2.0], rtol=1e-14)


def _brute_force_box_qp(A, b, lo, hi):
    """Enumerate all active-set patterns of min 1/2 x'Ax - b'x on a box."""
    n = len(b)
    best, best_e = None, np.inf
    for pattern in itertools.product((0, 1, 2), repeat=n):
        x = np.empty(n)
        free = [i for i, s in enumerate(pattern) if s == 0]
        for i, s in enumerate(pattern):
            x[i] = lo[i] if s == 1 else hi[i] if s == 2 else 0.0
        if free:
            idx = np.array(free)
            act = np.array([i for i in range(n) if i not in free], dtype=int)
            rhs = b[idx] - (A[np.ix_(idx, act)] @ x[act] if act.size else 0.0)
            try:
                x[idx] = np.linalg.solve(A[np.ix_(idx, idx)], rhs)
            except np.linalg.LinAlgError:
                continue
            if np.any(x[idx] < lo[idx] - 1e-12) or np.any(x[idx] > hi[idx] + 1e-12):
                continue
        e = 0.5 * x @ A @ x - b @ x
        if e < best_e - 1e-15:
            best_e, best = e, x.copy()
    return best


class TestBoundConstrained:
    def test_interior_minimum_matches_linear_solve(self, rng):
        A = np.diag([2.0, 3.0, 4.0])
        b = np.array([0.5, 0.6, 0.4])
        x = solve_bound_constrained(operator_of(A), b, np.zeros(3), np.ones(3),
                                    np.full(3, 0.5))
        assert np.allclose(x, np.linalg.solve(A, b), rtol=1e-12)

    def test_fully_active_upper_bound(self):
        A = sp.csr_matrix(np.diag([1.0, 1.0]))
        b = np.array([5.0, 7.0])  # unconstrained optimum far above the box
        x = solve_bound_constrained(operator_of(A), b, np.zeros(2), np.ones(2),
                                    np.zeros(2))
        assert np.allclose(x, 1.0)

    def test_one_active_bound_matches_enumeration(self):
        A = np.array([[2.0, 0.5], [0.5, 1.5]])
        b = np.array([3.0, 0.2])
        lo, hi = np.zeros(2), np.ones(2)
        ref = _brute_force_box_qp(A, b, lo, hi)
        x = solve_bound_constrained(operator_of(A), b, lo, hi, np.full(2, 0.5))
        assert np.allclose(x, ref, atol=1e-10)

    def test_random_spd_qps_match_enumeration(self, rng):
        for n in (3, 4, 6):
            for _ in range(20):
                R = rng.normal(size=(n, n))
                A = R @ R.T + n * np.eye(n)
                b = rng.normal(size=n) * 2
                lo = rng.uniform(-1.0, -0.2, n)
                hi = rng.uniform(0.2, 1.0, n)
                ref = _brute_force_box_qp(A, b, lo, hi)
                x = solve_bound_constrained(
                    operator_of(A), b, lo, hi, np.clip(rng.normal(size=n), lo, hi))
                assert np.allclose(x, ref, atol=1e-8)

    def test_kkt_signs_at_solution(self, rng):
        n = 8
        R = rng.normal(size=(n, n))
        A = R @ R.T + n * np.eye(n)
        b = rng.normal(size=n) * 3
        lo, hi = np.full(n, -0.5), np.full(n, 0.5)
        x = solve_bound_constrained(operator_of(A), b, lo, hi, np.zeros(n))
        r = A @ x - b
        scale = np.abs(b).max()
        at_lo = x <= lo + 1e-12
        at_up = x >= hi - 1e-12
        free = ~(at_lo | at_up)
        assert np.all(np.abs(r[free]) <= 1e-8 * scale)
        assert np.all(r[at_lo] >= -1e-8 * scale)
        assert np.all(r[at_up] <= 1e-8 * scale)

    def test_pinned_equality_dofs(self):
        A = sp.csr_matrix(np.diag([1.0, 1.0]))
        b = np.array([5.0, 5.0])
        lo = np.array([0.0, 0.3])
        hi = np.array([1.0, 0.3])  # second dof pinned at 0.3
        x = solve_bound_constrained(operator_of(A), b, lo, hi, lo)
        assert x[1] == pytest.approx(0.3)
        assert x[0] == pytest.approx(1.0)

    def test_non_finite_free_block_solution_raises(self):
        # the free block goes through solve_linear's non-finite check
        A = sp.csr_matrix(np.diag([2.0, 3.0, 4.0]))
        b = np.array([0.5, np.nan, 0.4])
        with pytest.raises(SolverFailure):
            solve_bound_constrained(operator_of(A), b, np.zeros(3), np.ones(3),
                                    np.full(3, 0.5))

    def test_inconsistent_bounds_rejected(self):
        A = sp.eye(2, format="csr")
        with pytest.raises(ValueError):
            solve_bound_constrained(operator_of(A), np.zeros(2),
                                    np.ones(2), np.zeros(2), np.zeros(2))
