import itertools

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from thmfrac.errors import SolverFailure
from thmfrac.fem import (Dirichlet, Factorization, SparseSystem, apply_dirichlet, assemble,
                         assemble_batched, build_tables, gauss_2x2, scatter_vector, shape_q4,
                         solve_bound_constrained, solve_linear)
from thmfrac.mesh import RefineBand, generate_rect_mesh


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
        sys_ = assemble(m, lambda e: (np.eye(4), np.zeros(4)))
        assert np.allclose(sys_.matrix.toarray(), np.eye(4))

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
        sys_ = assemble(m, lambda e: (me, np.zeros(4)))
        assert np.allclose(sys_.matrix.toarray(), ref, atol=1e-15)
        shared = np.intersect1d(m.elems[0], m.elems[1])
        for n in shared:
            assert ref[n, n] == pytest.approx(2 * me.diagonal().max(), rel=1e-12)

    def test_zero_kernel_gives_zero_system(self):
        m = generate_rect_mesh(1.0, 1.0, 2, 2)
        sys_ = assemble(m, lambda e: (np.zeros((4, 4)), np.zeros(4)))
        assert sys_.matrix.nnz == 0 or np.allclose(sys_.matrix.data, 0.0)
        assert np.allclose(sys_.rhs, 0.0)

    def test_kernel_size_mismatch_rejected(self):
        m = generate_rect_mesh(1.0, 1.0, 1, 1)
        with pytest.raises(ValueError, match="size mismatch"):
            assemble(m, lambda e: (np.eye(3), np.zeros(3)))

    def test_batched_scatter_matches_loop_assembly(self, rng):
        m = generate_rect_mesh(1.0, 1.0, 3, 2)
        tb = build_tables(m)
        KE = rng.normal(size=(m.n_elems, 4, 4))
        FE = rng.normal(size=(m.n_elems, 4))
        sys_b = assemble_batched(tb, KE, FE)
        sys_l = assemble(m, lambda e: (KE[e], FE[e]))
        assert np.allclose(sys_b.matrix.toarray(), sys_l.matrix.toarray(), atol=1e-15)
        assert np.allclose(sys_b.rhs, sys_l.rhs)


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
        pattern = tb.vector_pattern if vector else tb.scalar_pattern
        n = pattern.shape[0]
        dense = np.zeros((n, n))
        np.add.at(dense, (np.repeat(dofs, nd, axis=1).ravel(), np.tile(dofs, (1, nd)).ravel()),
                  KE.ravel())
        A = pattern.matrix(KE)
        assert A.toarray().tobytes() == dense.tobytes()
        ref = _coo_reference(dofs, KE, n)
        assert np.array_equal(A.indptr, ref.indptr) and np.array_equal(A.indices, ref.indices)
        if not vector:
            # coo.tocsr() orders each row with scipy's unstable index sort;
            # on the scalar field's short rows (at most 16 entries) the
            # duplicates keep their element order, so the sums match bitwise
            assert _same_csr(A, ref)
        assert np.array_equal(pattern.indices[pattern.diag], np.arange(n))

    def test_pattern_is_built_once_and_shared(self, rng):
        _, tb = _graded_tables()
        KE = rng.normal(size=(tb.mesh.n_elems, 4, 4))
        A = assemble_batched(tb, KE, np.zeros((tb.mesh.n_elems, 4))).matrix
        B = assemble_batched(tb, 2.0 * KE, np.zeros((tb.mesh.n_elems, 4))).matrix
        assert tb.scalar_pattern is tb.scalar_pattern
        assert np.shares_memory(A.indices, B.indices)
        assert not tb.scalar_pattern.indices.flags.writeable


class TestTables:
    LAZY = ("scalar_pattern", "vector_pattern", "mass_table", "laplacian_table",
            "tensor_laplacian_table", "advection_table", "divergence_table")

    def test_build_tables_builds_no_pattern_or_operator_table(self):
        _, tb = _graded_tables()
        assert not set(self.LAZY) & set(vars(tb))
        assert tb.laplacian_table is tb.laplacian_table
        assert set(vars(tb)) & set(self.LAZY) == {"laplacian_table"}

    @pytest.mark.parametrize("vector", [False, True])
    def test_scatter_is_bitwise_add_at(self, rng, vector):
        _, tb = _graded_tables()
        dofs = tb.dofs_vec if vector else tb.conn
        FE = (rng.normal(size=dofs.shape)
              * 10.0 ** rng.integers(-8, 9, size=dofs.shape))
        ref = np.zeros(2 * tb.n_nodes if vector else tb.n_nodes)
        np.add.at(ref, dofs.ravel(), FE.ravel())
        assert scatter_vector(tb, FE, vector).tobytes() == ref.tobytes()


def _rebuilt_elimination(system, dofs, values):
    """Row/column elimination by rebuilding the matrix: A * mask + diag."""
    n = system.matrix.shape[0]
    g = np.zeros(n)
    g[dofs] = values
    rhs = system.rhs - system.matrix @ g
    keep = np.ones(n)
    keep[dofs] = 0.0
    A = system.matrix.tocsr(copy=True)
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


class TestDirichlet:
    @pytest.mark.parametrize("vector", [False, True])
    def test_mask_equals_rebuilt_elimination(self, rng, vector):
        mesh, tb = _graded_tables()
        nd = 8 if vector else 4
        KE = rng.normal(size=(mesh.n_elems, nd, nd))
        KE[:, 0, 1] = 0.0          # explicit zeros in the assembled operator
        sys_ = assemble_batched(tb, KE, rng.normal(size=(mesh.n_elems, nd)), vector=vector)
        pattern = tb.vector_pattern if vector else tb.scalar_pattern
        n = pattern.shape[0]
        # dofs 0 and 1 stay free: the vector field's only planted zero
        # couples them, at the corner node that one element holds
        dofs = np.unique(rng.choice(np.arange(2, n), 12, replace=False))
        vals = rng.normal(size=dofs.size)
        bc = Dirichlet.on(pattern, dofs, vals)
        fixed = apply_dirichlet(sys_, bc)
        A_ref, rhs_ref = _rebuilt_elimination(sys_, dofs, vals)
        assert fixed.matrix.toarray().tobytes() == A_ref.toarray().tobytes()
        assert fixed.rhs.tobytes() == rhs_ref.tobytes()
        # the pattern minus the off-diagonal slots of constrained rows and columns
        constrained = np.zeros(n, dtype=bool)
        constrained[dofs] = True
        dropped = (constrained[:, None] | constrained[None, :]) & ~np.eye(n, dtype=bool)
        structure = _stored(pattern) & ~dropped
        assert np.array_equal(_stored(fixed.matrix), structure)
        assert fixed.matrix.nnz == np.count_nonzero(structure)
        planted = structure & (sys_.matrix.toarray() == 0.0)
        assert np.count_nonzero(fixed.matrix.data == 0.0) == np.count_nonzero(planted) > 0
        # a second operator is eliminated into the same index arrays
        other = apply_dirichlet(assemble_batched(tb, 2.0 * KE, np.zeros((mesh.n_elems, nd)),
                                                 vector=vector), bc)
        assert np.shares_memory(fixed.matrix.indices, other.matrix.indices)

    def test_no_constraints_leave_the_system_alone(self, rng):
        _, tb = _graded_tables()
        sys_ = assemble_batched(tb, rng.normal(size=(tb.mesh.n_elems, 4, 4)),
                                rng.normal(size=(tb.mesh.n_elems, 4)))
        bc = Dirichlet.on(tb.scalar_pattern, np.empty(0, dtype=np.int64), np.empty(0))
        fixed = apply_dirichlet(sys_, bc)
        assert fixed.matrix is sys_.matrix and fixed.rhs is sys_.rhs

    def test_rows_and_columns_reduced_to_identity(self, rng):
        m = generate_rect_mesh(1.0, 1.0, 2, 2)
        tb = build_tables(m)
        KE = rng.normal(size=(m.n_elems, 4, 4))
        KE = KE + KE.transpose(0, 2, 1)
        sys_ = assemble_batched(tb, KE, rng.normal(size=(m.n_elems, 4)))
        dofs = np.array([0, 4])
        vals = np.array([2.0, -1.0])
        fixed = apply_dirichlet(sys_, Dirichlet.on(tb.scalar_pattern, dofs, vals))
        A = fixed.matrix.toarray()
        for d, g in zip(dofs, vals):
            assert np.allclose(A[d], np.eye(9)[d])
            assert np.allclose(A[:, d], np.eye(9)[:, d])
            assert fixed.rhs[d] == g
        # symmetry preserved
        assert np.allclose(A, A.T)


class TestSolveLinear:
    def test_identity_returns_rhs(self, rng):
        b = rng.normal(size=5)
        sys_ = SparseSystem(sp.eye(5, format="csr"), b)
        assert np.allclose(solve_linear(sys_), b)

    def test_spd_matches_dense_oracle(self):
        A = np.array([[4.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 2.0]])
        b = np.array([1.0, -2.0, 0.5])
        sys_ = SparseSystem(sp.csr_matrix(A), b)
        x = solve_linear(sys_)
        assert np.allclose(x, np.linalg.solve(A, b), rtol=1e-12)
        assert np.linalg.norm(A @ x - b) <= 1e-10 * np.linalg.norm(b)

    def test_fresh_factor_takes_a_new_factorization(self, monkeypatch):
        calls = []
        splu = spla.splu
        monkeypatch.setattr(spla, "splu",
                            lambda *args, **kwargs: calls.append(1) or splu(*args, **kwargs))
        A = sp.csr_matrix(np.array([[4.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 2.0]]))
        factor = Factorization()
        x1 = solve_linear(SparseSystem(A, np.array([1.0, 0.0, 0.0])), factor)
        x2 = solve_linear(SparseSystem(A, np.array([0.0, 1.0, 0.0])), factor)
        assert len(calls) == 1
        assert np.allclose(A @ x1, [1.0, 0.0, 0.0]) and np.allclose(A @ x2, [0.0, 1.0, 0.0])
        x3 = solve_linear(SparseSystem(2.0 * A, np.ones(3)), Factorization())
        assert len(calls) == 2
        assert np.allclose(2.0 * A @ x3, np.ones(3), rtol=1e-12)

    def test_singular_matrix_fails_with_diagnostics(self):
        A = sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
        with pytest.raises(SolverFailure):
            solve_linear(SparseSystem(A, np.array([1.0, 0.0])))


def _laplacian_2d(m):
    """5-point Laplacian on an m x m grid of nodes, as CSR."""
    T = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(m, m))
    return (sp.kron(sp.eye(m), T) + sp.kron(T, sp.eye(m))).tocsr()


class TestFactorization:
    def test_min_degree_fills_less_than_colamd_on_a_laplacian(self, rng):
        A = _laplacian_2d(30)
        lu = Factorization().factorize(A).lu
        colamd = spla.splu(A.tocsc())
        assert lu.L.nnz + lu.U.nnz < colamd.L.nnz + colamd.U.nnz
        b = rng.normal(size=A.shape[0])
        x = solve_linear(SparseSystem(A, b))
        assert np.linalg.norm(A @ x - b) <= 1e-10 * np.linalg.norm(b)

    def test_operator_is_left_unscaled(self):
        A = sp.csc_matrix(np.array([[4.0, 1.0], [1.0, 9.0]]))
        before = A.toarray()
        factor = Factorization().factorize(A)
        assert np.array_equal(A.toarray(), before)
        assert np.allclose(factor.scale, [0.5, 1.0 / 3.0])
        assert np.allclose(A @ factor.solve(np.array([1.0, 2.0])), [1.0, 2.0], rtol=1e-14)


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
        sys_ = SparseSystem(sp.csr_matrix(A), b)
        x = solve_bound_constrained(sys_, np.zeros(3), np.ones(3), np.full(3, 0.5))
        assert np.allclose(x, np.linalg.solve(A, b), rtol=1e-12)

    def test_fully_active_upper_bound(self):
        A = sp.csr_matrix(np.diag([1.0, 1.0]))
        b = np.array([5.0, 7.0])  # unconstrained optimum far above the box
        x = solve_bound_constrained(SparseSystem(A, b), np.zeros(2), np.ones(2),
                                    np.zeros(2))
        assert np.allclose(x, 1.0)

    def test_one_active_bound_matches_enumeration(self):
        A = np.array([[2.0, 0.5], [0.5, 1.5]])
        b = np.array([3.0, 0.2])
        lo, hi = np.zeros(2), np.ones(2)
        ref = _brute_force_box_qp(A, b, lo, hi)
        x = solve_bound_constrained(SparseSystem(sp.csr_matrix(A), b), lo, hi,
                                    np.full(2, 0.5))
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
                    SparseSystem(sp.csr_matrix(A), b), lo, hi,
                    np.clip(rng.normal(size=n), lo, hi))
                assert np.allclose(x, ref, atol=1e-8)

    def test_kkt_signs_at_solution(self, rng):
        n = 8
        R = rng.normal(size=(n, n))
        A = R @ R.T + n * np.eye(n)
        b = rng.normal(size=n) * 3
        lo, hi = np.full(n, -0.5), np.full(n, 0.5)
        x = solve_bound_constrained(SparseSystem(sp.csr_matrix(A), b), lo, hi,
                                    np.zeros(n))
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
        x = solve_bound_constrained(SparseSystem(A, b), lo, hi, lo)
        assert x[1] == pytest.approx(0.3)
        assert x[0] == pytest.approx(1.0)

    def test_non_finite_free_block_solution_raises(self):
        # the free block goes through solve_linear's non-finite check
        A = sp.csr_matrix(np.diag([2.0, 3.0, 4.0]))
        b = np.array([0.5, np.nan, 0.4])
        with pytest.raises(SolverFailure):
            solve_bound_constrained(SparseSystem(A, b), np.zeros(3), np.ones(3),
                                    np.full(3, 0.5))

    def test_inconsistent_bounds_rejected(self):
        A = sp.eye(2, format="csr")
        with pytest.raises(ValueError):
            solve_bound_constrained(SparseSystem(A, np.zeros(2)),
                                    np.ones(2), np.zeros(2), np.zeros(2))
