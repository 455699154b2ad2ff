"""Q4 finite-element machinery: shape functions, quadrature, assembly, solves.

Element matrices are produced in bulk as (n_elems, nd, nd) arrays, each
element term as one batched matmul against a per-mesh operator table of
``ElementTables`` (built on first use). Each field (scalar or vector) has
one CSR sparsity pattern per mesh, built on first assembly together with
the map from element entries to CSR slots, so assembly is one
``np.bincount`` into the ``data`` array. Static Dirichlet constraints are
resolved once against that pattern into the fixed structure of the
constrained operator, so elimination is one gather of values into it:
after the first solve no sub-solve decides a sparse structure again.
Every linear solve, the phase-field free block included, passes
``solve_linear`` and its gate (a non-finite solution or a residual above
1e-10 ||b|| raises ``SolverFailure``). A caller that owns a
``Factorization`` keeps the factor between solves and takes a fresh one
when its operator changes.

Every factorization, including the free block of the phase-field solve,
uses one set of SuperLU options: a multiple-minimum-degree column ordering
on the pattern of A^T + A with symmetric mode, since every Q4 operator is
structurally symmetric (heat, flow and mechanics after the symmetric
Dirichlet elimination, and the phase-field free block). It fills less
than the default COLAMD ordering, which targets unsymmetric patterns.
Threshold partial pivoting at 0.1 stays on, because advection makes the
heat operator nonsymmetric in its values.
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
_BOX_KKT_TOL = 1e-8     # KKT multiplier tolerance, relative to max(|b|, |diag A|)
_BOX_MAX_ITER = 200     # active-set iterations of solve_bound_constrained


def shape_q4(xi: float | np.ndarray, eta: float | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bilinear shape values (..., 4) and local gradients (..., 4, 2) at
    reference points (xi, eta) of any broadcastable shape."""
    xi = np.asarray(xi, dtype=float)[..., None]
    eta = np.asarray(eta, dtype=float)[..., None]
    xi_i = _Q4_LOCAL[:, 0]
    eta_i = _Q4_LOCAL[:, 1]
    N = 0.25 * (1.0 + xi * xi_i) * (1.0 + eta * eta_i)
    dN = np.stack([0.25 * xi_i * (1.0 + eta * eta_i),
                   0.25 * eta_i * (1.0 + xi * xi_i)], axis=-1)
    return N, dN


def gauss_2x2() -> tuple[np.ndarray, np.ndarray]:
    """2x2 Gauss rule on the reference square: points (4, 2), weights (4,)."""
    a = 1.0 / np.sqrt(3.0)
    pts = np.array([[-a, -a], [a, -a], [a, a], [-a, a]])
    return pts, np.ones(4)


@dataclass(frozen=True)
class CSRPattern:
    """Fixed CSR structure of one field and the map that fills its data.

    Flat element entry ``k`` of the (E, nd, nd) element matrices lands in
    data slot ``slot[k]``, and each slot sums its entries in element order,
    the order ``scatter_vector`` sums a load vector in. ``diag`` holds the
    slot of every diagonal entry.
    """

    shape: tuple[int, int]
    indptr: np.ndarray
    indices: np.ndarray
    slot: np.ndarray
    diag: np.ndarray

    def matrix(self, KE: np.ndarray) -> sp.csr_matrix:
        """Sum the element matrices (E, nd, nd) into a CSR matrix on this pattern."""
        data = np.bincount(self.slot, weights=KE.reshape(-1), minlength=self.indices.size)
        return sp.csr_matrix((data, self.indices, self.indptr), shape=self.shape)


def csr_pattern(dofs: np.ndarray, n: int) -> CSRPattern:
    """Pattern of the (n, n) operator whose element e couples ``dofs[e]``."""
    nd = dofs.shape[1]
    rows = np.repeat(dofs, nd, axis=1).ravel()
    cols = np.tile(dofs, (1, nd)).ravel()
    # row-major entry keys: sorted unique keys are the CSR slots in order
    keys, slot = np.unique(rows * n + cols, return_inverse=True)
    slot_row, col = np.divmod(keys, n)
    indices = col.astype(np.int32)
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(slot_row, minlength=n), out=indptr[1:])
    diag = np.flatnonzero(slot_row == col)
    if diag.size != n:
        raise ValueError("every dof needs a diagonal entry in the pattern")
    for a in (indptr, indices):
        a.flags.writeable = False   # shared by every matrix assembled on it
    return CSRPattern(shape=(n, n), indptr=indptr, indices=indices, slot=slot, diag=diag)


@dataclass
class ElementTables:
    """Per-mesh precomputed quadrature data, dof maps and sparsity patterns.

    The operator tables below fold the quadrature weights and the shape
    function products of one element term into a small matrix, so that a
    kernel forms all element matrices of that term as one batched matmul
    of its (E, k) quadrature-point coefficients against the table. Like the
    patterns they are built on first use, not by ``build_tables``, and
    only for the terms a simulation assembles; none holds more than 256
    doubles per element.
    """

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

    # built on first assembly, not with the tables, so that setting up a
    # simulation stays cheap
    @cached_property
    def scalar_pattern(self) -> CSRPattern:
        return csr_pattern(self.conn, self.n_nodes)

    @cached_property
    def vector_pattern(self) -> CSRPattern:
        return csr_pattern(self.dofs_vec, 2 * self.n_nodes)

    @cached_property
    def mass_table(self) -> np.ndarray:
        """(4 q, 16 ab): N_a N_b at each quadrature point."""
        return (self.N[:, :, None] * self.N[:, None, :]).reshape(4, 16)

    @cached_property
    def laplacian_table(self) -> np.ndarray:
        """(E, 4 q, 16 ab): detJw grad N_a . grad N_b."""
        E = self.detJw.shape[0]
        dNdNt = np.matmul(self.dNdx, self.dNdx.transpose(0, 1, 3, 2))
        return (dNdNt * self.detJw[..., None, None]).reshape(E, 4, 16)

    @cached_property
    def tensor_laplacian_table(self) -> np.ndarray:
        """(E, 16 qcd, 16 ab): detJw dN_a/dx_c dN_b/dx_d."""
        E = self.detJw.shape[0]
        dN = self.dNdx.transpose(0, 1, 3, 2)                  # (E, q, c, a)
        t = (dN[:, :, :, None, :, None] * dN[:, :, None, :, None, :]
             * self.detJw[:, :, None, None, None, None])      # (E, q, c, d, a, b)
        return t.reshape(E, 16, 16)

    @cached_property
    def advection_table(self) -> np.ndarray:
        """(E, 8 qd, 16 ab): detJw N_a dN_b/dx_d."""
        E = self.detJw.shape[0]
        dN = self.dNdx.transpose(0, 1, 3, 2)                  # (E, q, d, b)
        t = (self.N[None, :, None, :, None] * dN[:, :, :, None, :]
             * self.detJw[:, :, None, None, None])            # (E, q, d, a, b)
        return t.reshape(E, 8, 16)

    @cached_property
    def divergence_table(self) -> np.ndarray:
        """(E, 4 q, 8 a): detJw (B_xx + B_yy), the virtual work of an isotropic stress."""
        return (self.B[:, :, 0, :] + self.B[:, :, 1, :]) * self.detJw[..., None]


def build_tables(mesh: Mesh) -> ElementTables:
    pts, wts = gauss_2x2()
    Nq, dNq = shape_q4(pts[:, 0], pts[:, 1])        # (4 qp, 4 nodes), (4, 4, 2)

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
    """Assembled linear system A x = b."""

    matrix: sp.csr_matrix
    rhs: np.ndarray


def assemble(mesh: Mesh, element_kernel) -> SparseSystem:
    """Assemble a global scalar-field system from a per-element kernel.

    ``element_kernel(eid) -> (ke, fe)`` must return a (4, 4) matrix and a
    (4,) vector ordered by local node. This element loop is the reference
    that the batched assembly is tested against.
    """
    n = mesh.n_nodes
    KE = np.empty((mesh.n_elems, 4, 4))
    FE = np.empty((mesh.n_elems, 4))
    for e in range(mesh.n_elems):
        ke, fe = element_kernel(e)
        ke = np.asarray(ke, dtype=float)
        fe = np.asarray(fe, dtype=float)
        if ke.shape != (4, 4) or fe.shape != (4,):
            raise ValueError(
                f"element kernel size mismatch on element {e}: "
                f"got {ke.shape}/{fe.shape}, expected (4, 4)/(4,)")
        KE[e] = ke
        FE[e] = fe
    rows = np.repeat(mesh.elems, 4, axis=1).ravel()
    cols = np.tile(mesh.elems, (1, 4)).ravel()
    A = sp.coo_matrix((KE.ravel(), (rows, cols)), shape=(n, n)).tocsr()
    b = np.zeros(n)
    np.add.at(b, mesh.elems.ravel(), FE.ravel())
    return SparseSystem(matrix=A, rhs=b)


def assemble_batched(tables: ElementTables, KE: np.ndarray, FE: np.ndarray,
                     vector: bool = False) -> SparseSystem:
    """Sum precomputed element matrices/vectors into a global system."""
    pattern = tables.vector_pattern if vector else tables.scalar_pattern
    return SparseSystem(matrix=pattern.matrix(KE), rhs=scatter_vector(tables, FE, vector))


def scatter_vector(tables: ElementTables, FE: np.ndarray, vector: bool = False) -> np.ndarray:
    n = 2 * tables.n_nodes if vector else tables.n_nodes
    dofs = tables.dofs_vec if vector else tables.conn
    # bincount sums in input order, exactly as np.add.at does
    return np.bincount(dofs.ravel(), weights=FE.ravel(), minlength=n)


@dataclass(frozen=True)
class Dirichlet:
    """Static Dirichlet constraints of one field, resolved against its pattern.

    Row/column elimination preserving symmetry: the entries of constrained
    rows and columns are dropped, constrained diagonals become 1 and the
    rhs of free dofs absorbs -A[:, c] g. The constrained structure (the
    free-free entries plus every diagonal) is resolved once, so each
    elimination only gathers values into it and entries that are
    numerically zero stay as explicit zeros. SuperLU's minimum-degree
    ordering then sees the same graph on every call, and it fills less: on
    the benchmark's seed-1 ``kgd_growth`` request, whose mechanics
    operators hold about 800 such zeros each, the LU fill of the 24
    mechanics factorizations fell from 8,995,617 (zeros pruned) to
    8,227,779. Matrices passed in must be assembled on the pattern the
    constraints were resolved against.
    """

    dofs: np.ndarray
    values: np.ndarray
    lift: np.ndarray        # (n,) prescribed values, zero on free dofs
    keep: np.ndarray        # (n,) 1 on free dofs, 0 on constrained ones
    slots: np.ndarray       # pattern slots kept: free-free entries, every diagonal
    indptr: np.ndarray      # the constrained structure, shared by every
    indices: np.ndarray     # matrix eliminated with these constraints
    diag: np.ndarray        # positions of the constrained diagonals in it

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
        kept = ~(fixed[rows] | fixed[pattern.indices])
        kept[pattern.diag] = True
        slots = np.flatnonzero(kept)
        indptr = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(np.bincount(rows[slots], minlength=n), out=indptr[1:])
        indices = pattern.indices[slots]
        for a in (indptr, indices):
            a.flags.writeable = False
        return cls(dofs=dofs, values=values, lift=lift, keep=keep, slots=slots, indptr=indptr,
                   indices=indices, diag=np.searchsorted(slots, pattern.diag[dofs]))

    def matrix(self, A: sp.csr_matrix) -> sp.csr_matrix:
        if self.dofs.size == 0:
            return A
        data = A.data[self.slots]
        data[self.diag] = 1.0
        return sp.csr_matrix((data, self.indices, self.indptr), shape=A.shape)

    def rhs(self, A: sp.csr_matrix, b: np.ndarray) -> np.ndarray:
        if self.dofs.size == 0:
            return b
        out = (b - A @ self.lift) * self.keep
        out[self.dofs] = self.values
        return out


def apply_dirichlet(system: SparseSystem, bc: Dirichlet) -> SparseSystem:
    """The system with ``bc`` eliminated (see ``Dirichlet``)."""
    return SparseSystem(matrix=bc.matrix(system.matrix),
                        rhs=bc.rhs(system.matrix, system.rhs))


# ---------------------------------------------------------------------------
# linear solve
# ---------------------------------------------------------------------------

class Factorization:
    """SuperLU factor of a Jacobi-scaled operator, kept by its owner.

    ``factorize`` fills it and ``solve`` solves with the unscaled operator.
    ``solve_linear`` fills an empty one and solves with a filled one
    without looking at the operator again, so the owner takes a fresh
    ``Factorization()`` whenever the operator changes.
    """

    def __init__(self):
        self.lu = None
        self.scale: np.ndarray | None = None

    def factorize(self, A: sp.spmatrix) -> "Factorization":
        """Factor diag(s) A diag(s) with the SuperLU options of this module.

        s = diag(A)^-1/2 when that diagonal is positive and finite, else
        all ones; ``A`` itself is left unchanged. A singular matrix raises
        ``RuntimeError``.
        """
        n = A.shape[0]
        d = A.diagonal()
        if np.all(d > 0.0) and np.all(np.isfinite(d)):
            s = 1.0 / np.sqrt(d)
        else:
            s = np.ones(n)
        As = A.tocsc(copy=True)
        cols = np.repeat(np.arange(n), np.diff(As.indptr))
        As.data *= s[As.indices] * s[cols]
        # looked up at call time, so that a wrapper on spla.splu sees every call
        self.lu = spla.splu(As, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.1,
                            options=dict(SymmetricMode=True))
        self.scale = s
        return self

    def solve(self, b: np.ndarray) -> np.ndarray:
        return self.scale * self.lu.solve(self.scale * b)


def solve_linear(system: SparseSystem, factor: Factorization | None = None) -> np.ndarray:
    """Direct sparse solve with a relative residual gate of 1e-10.

    The operator is symmetrically Jacobi-scaled before factorization (the
    mobility contrast between broken and intact cells reaches 1e8+) and a
    few iterative-refinement sweeps against the unscaled residual recover
    full accuracy. SuperLU orders the columns by minimum degree on
    A^T + A, which suits the structurally symmetric Q4 operators, and
    keeps threshold pivoting (0.1) for the heat operator, which advection
    makes nonsymmetric. A filled ``factor`` is reused; an empty one
    receives the new factor.
    """
    A, b = system.matrix, system.rhs
    n = A.shape[0]
    if factor is None:
        factor = Factorization()
    try:
        if factor.lu is None:
            factor.factorize(A)
        x = factor.solve(b)
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
        x = x + factor.solve(resid)
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
                            upper: np.ndarray, init: np.ndarray) -> np.ndarray:
    """Minimize 1/2 x'Ax - b'x subject to lower <= x <= upper.

    Active-set iteration on the symmetric system: solve the free block,
    clamp violating components, release actives whose KKT multiplier has
    the wrong sign. At the solution the gradient r = Ax - b vanishes on
    free components, is >= 0 at lower bounds and <= 0 at upper bounds.
    Each free block is solved by ``solve_linear``, with its residual gate,
    refinement and non-finite check.
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
    tol = _BOX_KKT_TOL * scale

    for _ in range(_BOX_MAX_ITER):
        active = pinned | at_lo | at_up
        free = ~active
        if np.any(free):
            fidx = np.nonzero(free)[0]
            aidx = np.nonzero(active)[0]
            Af = A[fidx]
            rhs_f = b[fidx] - Af[:, aidx] @ x[aidx]
            x[fidx] = solve_linear(SparseSystem(Af[:, fidx], rhs_f))
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
        f"bound-constrained solve did not satisfy KKT in {_BOX_MAX_ITER} iterations "
        f"(free-gradient norm {kkt:.3e})",
        diagnostics={"last_iterate": x, "kkt_violation": kkt})
