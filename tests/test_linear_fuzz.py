"""``solve_linear`` on random structurally symmetric sparse operators.

Each operator has a random symmetric sparsity pattern, stored with all of
its entries (zeros included), and dof scales spread over six decades, as
the mobility contrast of a broken cell spreads them. It is SPD, nonsymmetric
like the advective heat operator, or symmetric indefinite like a phase-field
block under negative pressure drive; its ``FieldOperator`` is told which, as
a field's is. Solutions must match a dense solve and pass the solver's residual gate;
an operator with an empty row and column must raise ``SolverFailure``.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from thmfrac.errors import SolverFailure
from thmfrac.fem import solve_linear

from element_loop import operator_of

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

KINDS = ("spd", "advection", "indefinite")


def random_operator(kind: str, n: int, density: float, seed: int) -> sp.csr_matrix:
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.random((n, n)) < density, 1)
    i, j = np.nonzero(upper)
    w = rng.uniform(0.1, 1.0, i.size) * rng.choice([-1.0, 1.0], i.size)
    M = np.zeros((n, n))
    M[i, j] = M[j, i] = w
    M[np.diag_indices(n)] = np.abs(M).sum(axis=1) + rng.uniform(0.1, 1.0, n)
    if kind == "advection":
        c = rng.uniform(-1.0, 1.0, i.size) * np.abs(w)   # skew part: x'Ax = x'Mx > 0
        M[i, j] += c
        M[j, i] -= c
    elif kind == "indefinite":
        eig = np.linalg.eigvalsh(M)
        m = rng.integers(1, n)
        M[np.diag_indices(n)] -= 0.5 * (eig[m - 1] + eig[m])
    d = 10.0 ** rng.uniform(-3.0, 3.0, n)
    A = d[:, None] * M * d[None, :]
    rows, cols = np.nonzero(upper | upper.T | np.eye(n, dtype=bool))
    return sp.csr_matrix((A[rows, cols], (rows, cols)), shape=(n, n))


OPERATORS = st.tuples(st.sampled_from(KINDS), st.integers(2, 40),
                      st.floats(0.05, 0.6), st.integers(0, 2**32 - 1))


@hypothesis.settings(max_examples=200, deadline=None, database=None, derandomize=True)
@hypothesis.given(op=OPERATORS)
def test_solution_matches_a_dense_solve_and_passes_the_gate(op):
    kind, n, density, seed = op
    A = random_operator(kind, n, density, seed)
    dense = A.toarray()
    if kind == "indefinite":
        eig = np.abs(np.linalg.eigvals(dense))
        hypothesis.assume(eig.min() > 1e-8 * eig.max())
    b = np.random.default_rng(seed + 1).normal(size=n)
    op = operator_of(A, symmetric=kind != "advection")
    x = solve_linear(op, b)
    ref = np.linalg.solve(dense, b)
    assert np.allclose(x, ref, rtol=1e-6, atol=1e-9 * np.abs(ref).max())
    scale = np.linalg.norm(b) + np.linalg.norm(np.abs(dense) @ np.abs(x))
    assert np.linalg.norm(dense @ x - b) <= 1e-10 * scale
    if kind == "spd":
        assert op.ipiv is None       # Cholesky
    elif kind == "advection" and np.abs(dense - dense.T).max() > 1e-9 * np.abs(dense).max():
        assert op.ipiv is not None   # LU


@hypothesis.settings(max_examples=100, deadline=None, database=None, derandomize=True)
@hypothesis.given(op=OPERATORS, data=st.data())
def test_an_empty_row_and_column_raise_solver_failure(op, data):
    kind, n, density, seed = op
    A = random_operator(kind, n, density, seed)
    i = data.draw(st.integers(0, n - 1))
    rows = np.repeat(np.arange(n), np.diff(A.indptr))
    A.data[(rows == i) | (A.indices == i)] = 0.0     # kept as stored zeros
    op = operator_of(A, symmetric=kind != "advection")
    with pytest.raises(SolverFailure):
        solve_linear(op, np.ones(n))
