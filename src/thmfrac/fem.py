"""Q4 finite-element machinery: shape functions, quadrature, assembly, solves.

Element matrices are produced in bulk as (n_elems, nd, nd) arrays. Each
field (scalar or vector) has one CSR sparsity pattern per mesh, built on
first assembly together with a gather table from element entries to CSR
slots, so assembly only fills the ``data`` array. Static Dirichlet
constraints are resolved once against that pattern into slot masks.
Linear solves go through SuperLU on the Jacobi-scaled operator; a caller
that owns a ``Factorization`` keeps the factor between solves and
invalidates it when its operator changes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import SolverFailure
from .mesh import Mesh

_Q4_LOCAL = np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]])


def shape_q4(xi: float, eta: float) -> tuple[np.ndarray, np.ndarray]:
    """Bilinear shape values (4,) and local gradients (4, 2) at (xi, eta)."""
    xi_i = _Q4_LOCAL[:, 0]
    eta_i = _Q4_LOCAL[:, 1]
    N = 0.25 * (1.0 + xi * xi_i) * (1.0 + eta * eta_i)
    dN = np.empty((4, 2))
    dN[:, 0] = 0.25 * xi_i * (1.0 + eta * eta_i)
    dN[:, 1] = 0.25 * eta_i * (1.0 + xi * xi_i)
    return N, dN


def gauss_2x2() -> tuple[np.ndarray, np.ndarray]:
    """2x2 Gauss rule on the reference square: points (4, 2), weights (4,)."""
    a = 1.0 / np.sqrt(3.0)
    pts = np.array([[-a, -a], [a, -a], [a, a], [-a, a]])
    return pts, np.ones(4)


@dataclass(frozen=True)
class CSRPattern:
    """Fixed CSR structure of one field and the map that fills its data.

    Slot ``k`` starts its sum with flat element entry ``first[k]``; each
    ``(slots, entries)`` pair of ``extra`` then adds the next duplicate of
    those slots. The order reproduces ``coo_matrix(...).tocsr()`` bit for
    bit: entries are bucketed by row in input order, ordered within a row
    by scipy's own ``sort_indices`` and summed left to right. ``diag``
    holds the slot of every diagonal entry.
    """

    shape: tuple[int, int]
    indptr: np.ndarray
    indices: np.ndarray
    first: np.ndarray
    extra: tuple[tuple[np.ndarray, np.ndarray], ...]
    diag: np.ndarray

    def matrix(self, KE: np.ndarray) -> sp.csr_matrix:
        """Sum the element matrices (E, nd, nd) into a CSR matrix on this pattern."""
        flat = KE.reshape(-1)
        data = flat[self.first]
        for slots, entries in self.extra:
            data[slots] += flat[entries]
        return sp.csr_matrix((data, self.indices, self.indptr), shape=self.shape)


def csr_pattern(dofs: np.ndarray, n: int) -> CSRPattern:
    """Pattern of the (n, n) operator whose element e couples ``dofs[e]``."""
    nd = dofs.shape[1]
    rows = np.repeat(dofs, nd, axis=1).ravel()
    cols = np.tile(dofs, (1, nd)).ravel()
    # bucket entry ids by row (stable), then let scipy order each row
    order = np.argsort(rows, kind="stable")
    bucket_ptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(rows, minlength=n), out=bucket_ptr[1:])
    ids = sp.csr_matrix((order.astype(float), cols[order].astype(np.int32), bucket_ptr),
                        shape=(n, n))
    ids.sort_indices()
    entry = ids.data.astype(np.int64)
    col = ids.indices
    row = rows[entry]
    new = np.ones(entry.size, dtype=bool)
    new[1:] = (col[1:] != col[:-1]) | (row[1:] != row[:-1])
    slot = np.cumsum(new) - 1
    rank = np.arange(entry.size) - np.flatnonzero(new)[slot]
    extra = tuple((slot[rank == k], entry[rank == k]) for k in range(1, rank.max() + 1))
    indices = col[new]
    slot_row = row[new]
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(slot_row, minlength=n), out=indptr[1:])
    diag = np.flatnonzero(indices == slot_row)
    if diag.size != n:
        raise ValueError("every dof needs a diagonal entry in the pattern")
    for a in (indptr, indices):
        a.flags.writeable = False   # shared by every matrix assembled on it
    return CSRPattern(shape=(n, n), indptr=indptr, indices=indices,
                      first=entry[new], extra=extra, diag=diag)


@dataclass
class ElementTables:
    """Per-mesh precomputed quadrature data, dof maps and sparsity patterns."""

    mesh: Mesh
    N: np.ndarray        # (4 qp, 4 nodes) shape values
    dNdx: np.ndarray     # (E, 4 qp, 4 nodes, 2) physical gradients
    detJw: np.ndarray    # (E, 4 qp) weighted Jacobian determinants
    B: np.ndarray        # (E, 4 qp, 3, 8) strain-displacement matrices
    conn: np.ndarray     # (E, 4) node ids
    dofs_vec: np.ndarray  # (E, 8) interleaved (ux, uy) dofs
    h_e_qp: np.ndarray   # (E, 4) element size replicated per qp

    @property
    def n_nodes(self) -> int:
        return self.mesh.n_nodes

    @property
    def n_elems(self) -> int:
        return self.mesh.n_elems

    # built on first assembly, not with the tables, so that setting up a
    # simulation stays cheap
    @cached_property
    def scalar_pattern(self) -> CSRPattern:
        return csr_pattern(self.conn, self.n_nodes)

    @cached_property
    def vector_pattern(self) -> CSRPattern:
        return csr_pattern(self.dofs_vec, 2 * self.n_nodes)


def build_tables(mesh: Mesh) -> ElementTables:
    pts, wts = gauss_2x2()
    Nq = np.empty((4, 4))
    dNq = np.empty((4, 4, 2))
    for q, (xi, eta) in enumerate(pts):
        Nq[q], dNq[q] = shape_q4(xi, eta)

    X = mesh.nodes[mesh.elems]                      # (E, 4, 2)
    # J[e, q, a, b] = sum_i dN[q, i, a] X[e, i, b]
    J = np.einsum("qia,eib->eqab", dNq, X)
    detJ = J[..., 0, 0] * J[..., 1, 1] - J[..., 0, 1] * J[..., 1, 0]
    if np.any(detJ <= 0.0):
        raise ValueError("non-positive Jacobian determinant in mesh")
    Jinv = np.empty_like(J)
    Jinv[..., 0, 0] = J[..., 1, 1]
    Jinv[..., 1, 1] = J[..., 0, 0]
    Jinv[..., 0, 1] = -J[..., 0, 1]
    Jinv[..., 1, 0] = -J[..., 1, 0]
    Jinv /= detJ[..., None, None]
    dNdx = np.einsum("qia,eqba->eqib", dNq, Jinv)   # dN_i/dx_b
    detJw = detJ * wts[None, :]

    E = mesh.n_elems
    B = np.zeros((E, 4, 3, 8))
    B[:, :, 0, 0::2] = dNdx[..., 0]
    B[:, :, 1, 1::2] = dNdx[..., 1]
    B[:, :, 2, 0::2] = dNdx[..., 1]
    B[:, :, 2, 1::2] = dNdx[..., 0]

    conn = mesh.elems
    dofs_vec = np.empty((E, 8), dtype=np.int64)
    dofs_vec[:, 0::2] = 2 * conn
    dofs_vec[:, 1::2] = 2 * conn + 1

    h_e_qp = np.repeat(mesh.h_e[:, None], 4, axis=1)
    return ElementTables(mesh=mesh, N=Nq, dNdx=dNdx, detJw=detJw, B=B,
                         conn=conn, dofs_vec=dofs_vec, h_e_qp=h_e_qp)


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------

@dataclass
class SparseSystem:
    """Assembled linear system A x = b with its node-to-dof convention."""

    matrix: sp.csr_matrix
    rhs: np.ndarray
    ndof_per_node: int = 1


def assemble(mesh: Mesh, element_kernel, ndof_per_node: int = 1) -> SparseSystem:
    """Assemble a global system from a per-element kernel.

    ``element_kernel(eid) -> (ke, fe)`` must return an (nd, nd) matrix and
    an (nd,) vector with nd = 4 * ndof_per_node, ordered by local node
    (components interleaved for vector fields).
    """
    nd = 4 * ndof_per_node
    n_dofs = mesh.n_nodes * ndof_per_node
    KE = np.empty((mesh.n_elems, nd, nd))
    FE = np.empty((mesh.n_elems, nd))
    for e in range(mesh.n_elems):
        ke, fe = element_kernel(e)
        ke = np.asarray(ke, dtype=float)
        fe = np.asarray(fe, dtype=float)
        if ke.shape != (nd, nd) or fe.shape != (nd,):
            raise ValueError(
                f"element kernel size mismatch on element {e}: "
                f"got {ke.shape}/{fe.shape}, expected {(nd, nd)}/{(nd,)}")
        KE[e] = ke
        FE[e] = fe
    if ndof_per_node == 1:
        dofs = mesh.elems
        rows = np.repeat(dofs, nd, axis=1).ravel()
        cols = np.tile(dofs, (1, nd)).ravel()
    else:
        dofs = np.empty((mesh.n_elems, nd), dtype=np.int64)
        for c in range(ndof_per_node):
            dofs[:, c::ndof_per_node] = ndof_per_node * mesh.elems + c
        rows = np.repeat(dofs, nd, axis=1).ravel()
        cols = np.tile(dofs, (1, nd)).ravel()
    A = sp.coo_matrix((KE.ravel(), (rows, cols)), shape=(n_dofs, n_dofs)).tocsr()
    b = np.zeros(n_dofs)
    np.add.at(b, dofs.ravel(), FE.ravel())
    return SparseSystem(matrix=A, rhs=b, ndof_per_node=ndof_per_node)


def assemble_batched(tables: ElementTables, KE: np.ndarray, FE: np.ndarray,
                     vector: bool = False) -> SparseSystem:
    """Sum precomputed element matrices/vectors into a global system."""
    pattern = tables.vector_pattern if vector else tables.scalar_pattern
    return SparseSystem(matrix=pattern.matrix(KE), rhs=scatter_vector(tables, FE, vector),
                        ndof_per_node=2 if vector else 1)


def scatter_vector(tables: ElementTables, FE: np.ndarray, vector: bool = False) -> np.ndarray:
    n = 2 * tables.n_nodes if vector else tables.n_nodes
    dofs = tables.dofs_vec if vector else tables.conn
    out = np.zeros(n)
    np.add.at(out, dofs.ravel(), FE.ravel())
    return out


@dataclass(frozen=True)
class Dirichlet:
    """Static Dirichlet constraints of one field, resolved against its pattern.

    Row/column elimination preserving symmetry: the slots of constrained
    rows and columns are zeroed, constrained diagonals become 1 and the
    rhs of free dofs absorbs -A[:, c] g. Explicit zeros are then pruned,
    so the eliminated matrix holds exactly the nonzeros of the
    identity-patched operator. Matrices passed in must be assembled on the
    pattern the constraints were resolved against.
    """

    dofs: np.ndarray
    values: np.ndarray
    lift: np.ndarray        # (n,) prescribed values, zero on free dofs
    keep: np.ndarray        # (n,) 1 on free dofs, 0 on constrained ones
    zero_slots: np.ndarray  # data slots in constrained rows or columns
    diag_slots: np.ndarray  # data slots of the constrained diagonals

    @classmethod
    def on(cls, pattern: CSRPattern, dofs, values) -> "Dirichlet":
        dofs = np.asarray(dofs, dtype=np.int64)
        values = np.broadcast_to(np.asarray(values, dtype=float), dofs.shape).copy()
        n = pattern.shape[0]
        lift = np.zeros(n)
        lift[dofs] = values
        keep = np.ones(n)
        keep[dofs] = 0.0
        fixed = keep == 0.0
        rows = np.repeat(np.arange(n), np.diff(pattern.indptr))
        zero_slots = np.flatnonzero(fixed[rows] | fixed[pattern.indices])
        return cls(dofs=dofs, values=values, lift=lift, keep=keep,
                   zero_slots=zero_slots, diag_slots=pattern.diag[dofs])

    def matrix(self, A: sp.csr_matrix) -> sp.csr_matrix:
        if self.dofs.size == 0:
            return A
        data = A.data.copy()
        data[self.zero_slots] = 0.0
        data[self.diag_slots] = 1.0
        out = sp.csr_matrix((data, A.indices.copy(), A.indptr.copy()), shape=A.shape)
        out.eliminate_zeros()
        return out

    def rhs(self, A: sp.csr_matrix, b: np.ndarray) -> np.ndarray:
        if self.dofs.size == 0:
            return b
        out = (b - A @ self.lift) * self.keep
        out[self.dofs] = self.values
        return out


def apply_dirichlet(system: SparseSystem, bc: Dirichlet) -> SparseSystem:
    """The system with ``bc`` eliminated (see ``Dirichlet``)."""
    return SparseSystem(matrix=bc.matrix(system.matrix),
                        rhs=bc.rhs(system.matrix, system.rhs),
                        ndof_per_node=system.ndof_per_node)


# ---------------------------------------------------------------------------
# linear solve
# ---------------------------------------------------------------------------

class Factorization:
    """SuperLU factor of a Jacobi-scaled operator, kept by its owner.

    ``solve_linear`` fills an empty one and solves with a filled one
    without looking at the operator again; the owner calls ``invalidate``
    whenever the operator changes.
    """

    def __init__(self):
        self.lu = None
        self.scale: np.ndarray | None = None

    def invalidate(self):
        self.lu = None
        self.scale = None


def solve_linear(system: SparseSystem, factor: Factorization | None = None) -> np.ndarray:
    """Direct sparse solve with a relative residual gate of 1e-10.

    The operator is symmetrically Jacobi-scaled before factorization (the
    mobility contrast between broken and intact cells reaches 1e8+) and a
    few iterative-refinement sweeps against the unscaled residual recover
    full accuracy. A filled ``factor`` is reused; an empty one receives
    the new factor.
    """
    A, b = system.matrix, system.rhs
    n = A.shape[0]
    try:
        if factor is not None and factor.lu is not None:
            s, lu = factor.scale, factor.lu
        else:
            d = A.diagonal()
            if np.all(d > 0.0) and np.all(np.isfinite(d)):
                s = 1.0 / np.sqrt(d)
            else:
                s = np.ones(n)
            As = A.tocsr(copy=True)
            rows = np.repeat(np.arange(n), np.diff(As.indptr))
            As.data *= s[rows] * s[As.indices]
            lu = spla.splu(As.tocsc())
            if factor is not None:
                factor.lu, factor.scale = lu, s
        x = s * lu.solve(s * b)
    except RuntimeError as exc:  # SuperLU signals singularity this way
        raise SolverFailure(f"sparse LU factorization failed: {exc}",
                            diagnostics={"n": n}) from exc
    if not np.all(np.isfinite(x)):
        raise SolverFailure("linear solve produced non-finite values",
                            diagnostics={"n": n})
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return x
    resid = b - A @ x
    gate = 1e-10 * bnorm
    for _ in range(5):
        if np.linalg.norm(resid) <= gate:
            return x
        x = x + s * lu.solve(s * resid)
        resid = b - A @ x
    # With strong cancellation (||b|| << |A||x|, e.g. source-driven flow in a
    # high-contrast crack) no float64 vector can reach 1e-10*||b||; accept the
    # standard backward-error scale instead, which coincides with the ||b||
    # gate whenever the system is well scaled.
    absA = sp.csr_matrix((np.abs(A.data), A.indices, A.indptr), shape=A.shape)
    denom = bnorm + float(np.linalg.norm(absA @ np.abs(x)))
    rnorm = float(np.linalg.norm(resid))
    if rnorm > 1e-10 * denom:
        raise SolverFailure(
            f"linear solve residual {rnorm:.3e} exceeds 1e-10 * backward scale "
            f"{1e-10 * denom:.3e} (||b|| = {bnorm:.3e})",
            diagnostics={"residual": rnorm, "rhs_norm": bnorm, "n": n})
    return x


# ---------------------------------------------------------------------------
# bound-constrained quadratic solve (phase-field subproblem)
# ---------------------------------------------------------------------------

def solve_bound_constrained(system: SparseSystem, lower: np.ndarray,
                            upper: np.ndarray, init: np.ndarray,
                            rel_tol: float = 1e-8,
                            max_iter: int = 200) -> np.ndarray:
    """Minimize 1/2 x'Ax - b'x subject to lower <= x <= upper.

    Active-set iteration on the symmetric system: solve the free block,
    clamp violating components, release actives whose KKT multiplier has
    the wrong sign. At the solution the gradient r = Ax - b vanishes on
    free components, is >= 0 at lower bounds and <= 0 at upper bounds.
    """
    A = system.matrix.tocsr()
    b = system.rhs
    n = A.shape[0]
    lower = np.broadcast_to(np.asarray(lower, dtype=float), (n,)).copy()
    upper = np.broadcast_to(np.asarray(upper, dtype=float), (n,)).copy()
    if np.any(lower > upper + 1e-15):
        raise ValueError("lower bound exceeds upper bound")
    x = np.clip(np.asarray(init, dtype=float).copy(), lower, upper)

    pinned = lower >= upper - 1e-15          # equality-constrained dofs
    x[pinned] = lower[pinned]
    at_lo = (x <= lower + 1e-15) & ~pinned
    at_up = (x >= upper - 1e-15) & ~pinned

    scale = max(np.abs(b).max(initial=0.0), np.abs(A.diagonal()).max(initial=0.0), 1e-300)
    tol = rel_tol * scale

    for _ in range(max_iter):
        active = pinned | at_lo | at_up
        free = ~active
        if np.any(free):
            fidx = np.nonzero(free)[0]
            Aff = A[fidx][:, fidx].tocsc()
            rhs_f = b[fidx] - A[fidx][:, np.nonzero(active)[0]] @ x[np.nonzero(active)[0]]
            try:
                xf = spla.splu(Aff).solve(rhs_f)
            except RuntimeError as exc:
                raise SolverFailure(
                    f"bound-constrained solve: free-block factorization failed: {exc}",
                    diagnostics={"free_dofs": int(free.sum())}) from exc
            x[fidx] = xf
            viol_lo = free & (x < lower - 1e-15)
            viol_up = free & (x > upper + 1e-15)
            if np.any(viol_lo) or np.any(viol_up):
                x[viol_lo] = lower[viol_lo]
                x[viol_up] = upper[viol_up]
                at_lo |= viol_lo
                at_up |= viol_up
                continue
        r = A @ x - b
        wrong_lo = at_lo & (r < -tol)
        wrong_up = at_up & (r > tol)
        if not np.any(wrong_lo) and not np.any(wrong_up):
            return x
        at_lo &= ~wrong_lo
        at_up &= ~wrong_up

    r = A @ x - b
    kkt = float(np.max(np.abs(np.where(pinned | at_lo | at_up, 0.0, r))))
    raise SolverFailure(
        f"bound-constrained solve did not satisfy KKT in {max_iter} iterations "
        f"(free-gradient norm {kkt:.3e})",
        diagnostics={"last_iterate": x, "kkt_violation": kkt})
