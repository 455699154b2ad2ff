"""Q4 finite-element machinery: shape functions, quadrature, assembly, solves.

Meshes are tensor grids of axis-aligned rectangles, so ``ElementTables``
reads each element's sizes (hx, hy) from the mesh and holds no per-element
quadrature or operator table: element matrices are produced in bulk as
(n_elems, nd, nd) arrays, each element term as one matmul of per-element scaled
coefficients against a constant reference table (see ``physics``).

Each field kind (scalar or vector) has one ``FieldLayout`` per mesh, built
on its first assembly from the element dofs: the CSR structure of its
operators, the map from element entries to CSR slots, the row and diagonal
slots, and the band positions of every slot in the grid's own ordering.
It sums element matrices (``assemble``) and element vectors (``scatter``),
each one ``np.bincount``, and the Dirichlet elimination, the factorization
and the solve gate all read it. A ``FieldOperator`` is the linear-algebra
state of one field, kept by its owner between solves: its layout,
Dirichlet constraints, operator as assembled and as eliminated (CSR
matrices whose data each solve replaces: after a field's first solve no
sub-solve builds a sparse object), lift and one factor of the eliminated
operator, never older than it: new data (``load``, and so
``apply_dirichlet``, or an elimination, one multiply by a slot mask) empty
it. Every linear solve is ``solve_linear(op, b)``, which fills an empty
factor, and passes its gate (a non-finite solution or a residual above
1e-10 ||b|| raises ``SolverFailure``).

Every factorization is a dense banded LAPACK factorization in the grid's
own ordering, numbered across its short side: the tensor-product node
numbering when rows are no longer than columns, else its transpose. A Q4
operator's bandwidth in that ordering is min(len(xs), len(ys)) + 1 for a
scalar field and twice that plus 1 for the interleaved vector field (4 and
9 on a column two cells wide), so a factorization costs n w^2 flops and no
per-call symbolic analysis. Each ``FieldOperator`` is told whether its
field's operators are symmetric, and the matrix is not probed for it:
flow, mechanics and the phase field are, and take a Cholesky
factorization, with LU with partial pivoting when one is not positive
definite; heat, which advection makes nonsymmetric, takes LU. The residual
gate of ``solve_linear`` checks every solve against the full operator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.linalg import lapack

from .errors import SolverFailure
from .mesh import Mesh

_Q4_LOCAL = np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]])
_BOX_KKT_TOL = 1e-8     # KKT multiplier tolerance, relative to max(|b|, |diag A|)
_BOX_MAX_ITER = 200     # active-set iterations of solve_bound_constrained
_REFINE_SWEEPS = 5      # iterative-refinement sweeps of solve_linear, at most


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
class FieldLayout:
    """Sparsity, assembly map and band layout of one field.

    Element e couples the dofs ``dofs[e]``. Every operator of the field is
    data on one CSR structure (``indptr``, ``indices``): slot ``k`` lies in
    row ``rows[k]``, and ``diag`` holds the slot of every diagonal entry, in
    row order. Flat element entry ``k`` of the (E, nd, nd) element matrices
    lands in slot ``slot[k]``, and each slot sums its entries in element
    order, the order ``scatter`` sums the (E, nd) element vectors in.

    Band position ``i`` holds dof ``perm[i]``, and in that ordering every
    entry lies at most ``width`` off the diagonal. Slot ``k`` goes to flat
    position ``lu[k]`` of the column-major (3 width + 1, n) band storage of
    LAPACK ``gbtrf``; the slots ``tril`` of the lower triangle go to
    positions ``chol`` of the (width + 1, n) lower band storage of
    ``pbtrf``.
    """

    shape: tuple[int, int]
    dofs: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    slot: np.ndarray
    rows: np.ndarray
    diag: np.ndarray
    perm: np.ndarray
    width: int
    lu: np.ndarray
    tril: np.ndarray
    chol: np.ndarray

    @cached_property
    def tril_rc(self) -> tuple[np.ndarray, np.ndarray]:
        """The row and column of every slot of ``tril``."""
        return self.rows[self.tril], self.indices[self.tril]

    def assemble(self, KE: np.ndarray) -> np.ndarray:
        """Sum element matrices (E, nd, nd) into operator data on this layout."""
        return np.bincount(self.slot, weights=KE.reshape(-1), minlength=self.indices.size)

    def scatter(self, FE: np.ndarray) -> np.ndarray:
        """Sum element vectors (E, nd) into a vector of this field's dofs."""
        # bincount sums in input order, exactly as np.add.at does
        return np.bincount(self.dofs.ravel(), weights=FE.ravel(), minlength=self.shape[0])


def field_layout(dofs: np.ndarray, node_order: np.ndarray) -> FieldLayout:
    """Layout of the field whose element e couples the dofs ``dofs[e]``,
    with c dofs per node interleaved (dof c a + i is component i of node
    a), banded in the node ordering ``node_order``. Each element couples
    all of its dofs both ways, so the structure is symmetric."""
    c = math.ceil((int(dofs.max()) + 1) / node_order.size)    # dofs per node
    n = c * node_order.size
    nd = dofs.shape[1]
    # row-major entry keys: sorted unique keys are the CSR slots in order
    keys, slot = np.unique(np.repeat(dofs, nd, axis=1).ravel() * n
                           + np.tile(dofs, (1, nd)).ravel(), return_inverse=True)
    rows, cols = np.divmod(keys, n)
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    diag = np.flatnonzero(rows == cols)
    if diag.size != n:
        raise ValueError("every dof needs a diagonal entry in the layout")
    perm = (c * node_order[:, None] + np.arange(c)).ravel()
    rank = np.empty(n, dtype=np.int64)
    rank[perm] = np.arange(n)
    i, j = rank[rows], rank[cols]
    off = i - j
    k = int(np.abs(off).max())
    tril = np.flatnonzero(off >= 0)
    indices = cols.astype(np.int32)
    for a in (indptr, indices):
        a.flags.writeable = False   # shared by every matrix of the field
    return FieldLayout(shape=(n, n), indptr=indptr, indices=indices, slot=slot, rows=rows,
                       diag=diag, perm=perm, width=k, lu=2 * k + off + j * (3 * k + 1),
                       tril=tril, chol=off[tril] + j[tril] * (k + 1), dofs=dofs)


@dataclass
class ElementTables:
    """Per-mesh element data and field layouts of a tensor grid.

    The element sizes ``h``, the connectivity ``conn`` and the node ids
    behind ``node_order`` are the mesh's own arrays. Every element is an
    axis-aligned hx x hy rectangle, so its Jacobian is diag(hx/2, hy/2) at
    every point: physical gradients are the reference gradients scaled by
    2/hx and 2/hy, and detJ = hx hy / 4. The element kernels of ``physics``
    need only these sizes and constant reference tables on the 2x2 Gauss
    rule, so no array here holds more than 16 values per element. The
    kernels scale their quadrature-point coefficients by the per-element
    factors repeated at the four points (``qp_detJ``, ``qp_h_e``,
    ``qp_grad``, ``qp_disp_grad``, ``qp_aspect``, ``qp_half``), so each
    scaling is one product of two (E, 4), (E, 8) or (E, 16) arrays rather
    than a broadcast over a short innermost axis. These are fixed for the
    mesh; the quadrature-point quantities that change are formed by
    ``physics``: the previous level's once per time step (``step_state``),
    the phase field's once per outer iteration (``phase_state``) and the
    strain's once per inner pass (``strain_state``). Each field kind, scalar
    (T, p, v) and vector (u), has one ``FieldLayout``. The layouts and the
    repeated factors are built on first use, not by ``build_tables``.
    """

    mesh: Mesh
    detJ: np.ndarray     # (E,) Jacobian determinants hx hy / 4
    dofs_vec: np.ndarray  # (E, 8) interleaved (ux, uy) dofs

    @property
    def h(self) -> np.ndarray:
        """(E, 2) element sizes (hx, hy)."""
        return self.mesh.h

    @property
    def conn(self) -> np.ndarray:
        """(E, 4) node ids of each element."""
        return self.mesh.elems

    @property
    def node_order(self) -> np.ndarray:
        """Node ids numbered across the grid's short side: the mesh's ids
        row by row when len(xs) <= len(ys), else column by column. Every Q4
        coupling is then at most min(len(xs), len(ys)) + 1 positions off
        the diagonal."""
        ids = self.mesh.node_ids
        return ids.ravel() if ids.shape[1] <= ids.shape[0] else ids.T.ravel()

    # built on first use, not with the tables, so that setting up a
    # simulation stays cheap
    @cached_property
    def qp_detJ(self) -> np.ndarray:
        """(E, 4) detJ at each quadrature point."""
        return np.repeat(self.detJ[:, None], 4, axis=1)

    @cached_property
    def qp_h_e(self) -> np.ndarray:
        """(E, 4) element size h_e at each quadrature point."""
        return np.repeat(self.mesh.h_e[:, None], 4, axis=1)

    @cached_property
    def qp_grad(self) -> np.ndarray:
        """(E, 8) gradient scales (2/hx, 2/hy) at each quadrature point."""
        return np.tile(2.0 / self.h, 4)

    @cached_property
    def qp_disp_grad(self) -> np.ndarray:
        """(E, 16) gradient scales 2/h_d of the four displacement gradients
        du_i/dx_d, m = (i, d), at each quadrature point."""
        return np.tile(2.0 / self.h, 8)

    @cached_property
    def qp_aspect(self) -> np.ndarray:
        """(E, 8) detJ (2/h_d)^2 = (hy/hx, hx/hy) at each quadrature point."""
        return np.tile(self.h[:, ::-1] / self.h, 4)

    @cached_property
    def qp_half(self) -> np.ndarray:
        """(E, 8) detJ 2/h_d = (hy/2, hx/2) at each quadrature point."""
        return np.tile(0.5 * self.h[:, ::-1], 4)

    @cached_property
    def scalar_layout(self) -> FieldLayout:
        return field_layout(self.conn, self.node_order)

    @cached_property
    def vector_layout(self) -> FieldLayout:
        return field_layout(self.dofs_vec, self.node_order)


def build_tables(mesh: Mesh) -> ElementTables:
    """Element data of ``mesh``: detJ and the vector dof map. ``Mesh`` has
    checked its grid lines, so every detJ is positive."""
    dofs_vec = np.empty((mesh.n_elems, 8), dtype=np.int64)
    dofs_vec[:, 0::2] = 2 * mesh.elems
    dofs_vec[:, 1::2] = 2 * mesh.elems + 1
    return ElementTables(mesh=mesh, detJ=0.25 * mesh.h[:, 0] * mesh.h[:, 1], dofs_vec=dofs_vec)


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------

@dataclass
class FieldSystem:
    """Assembled A x = b of one field: A as data on the field's layout."""

    data: np.ndarray
    rhs: np.ndarray


class FieldOperator:
    """Linear-algebra state of one field, kept by its owner between solves.

    The Dirichlet constraints ``dofs`` = ``values`` are resolved once on
    ``layout``, which every operator loaded must be on: ``keep`` (1 on free
    dofs), the slot ``mask`` of free-free entries, the ``unit`` diagonal
    slots and the ``lift`` g (None when g = 0). Elimination preserves
    symmetry: constrained rows and columns become zero with 1 on the
    diagonal, and the rhs of free dofs absorbs -A[:, c] g. The operator is
    kept as ``assembled`` and ``eliminated``, CSR matrices whose data each
    solve replaces, with the lift product ``lifted`` = A @ g, and one
    banded factor of the eliminated matrix: ``band``, the LU pivots ``ipiv``
    (None for Cholesky) and the Jacobi ``scale`` in band order, of the
    kind ``symmetric`` picks (see ``factorize``). ``symmetric`` has no
    default, so no caller gets a Cholesky factor of a nonsymmetric operator
    by leaving it out. New data empty the factor, and ``solve_linear``
    fills an empty one. Every factorization allocates its own band array,
    which LAPACK factors in place, so emptying the factor also frees its
    memory.
    """

    def __init__(self, layout: FieldLayout, dofs=(), values=0.0, *, symmetric: bool):
        self.layout = layout
        self.dofs = np.asarray(dofs, dtype=np.int64)
        self.values = np.broadcast_to(np.asarray(values, dtype=float), self.dofs.shape).copy()
        n = layout.shape[0]
        lift = np.zeros(n)
        lift[self.dofs] = self.values
        self.lift = lift if self.values.any() else None
        self.keep = np.ones(n)
        self.keep[self.dofs] = 0.0
        self.mask = self.keep[layout.rows] * self.keep[layout.indices]
        self.unit = layout.diag[self.dofs]
        self.assembled, self.eliminated = (
            sp.csr_matrix((np.zeros(layout.indices.size), layout.indices, layout.indptr),
                          shape=layout.shape) for _ in range(2))
        self.lifted: np.ndarray | None = None
        self.symmetric = symmetric
        self.empty()

    def empty(self) -> None:
        """Empty the factor, band array included."""
        self.band = self.ipiv = self.scale = None

    def load(self, data: np.ndarray) -> sp.csr_matrix:
        """The assembled operator, now holding ``data``; the factor is emptied."""
        self.assembled.data = data
        self.empty()
        return self.assembled

    def eliminate(self, mask: np.ndarray, unit: np.ndarray) -> None:
        """Make the eliminated operator the assembled data times the slot
        ``mask`` with 1 on the diagonal slots ``unit``; the factor is emptied."""
        data = self.assembled.data * mask
        data[unit] = 1.0
        self.eliminated.data = data
        self.empty()

    def rhs(self, b: np.ndarray) -> np.ndarray:
        """``b`` eliminated with the lift product of the last operator
        (skipped for g = 0: A @ 0 is +0.0, and b - 0.0 = b)."""
        out = (b if self.lifted is None else b - self.lifted) * self.keep
        out[self.dofs] = self.values
        return out

    def factorize(self) -> "FieldOperator":
        """Factor diag(s) E diag(s), E the eliminated operator, in the band
        layout.

        s = diag(E)^-1/2 when that diagonal is positive and finite (a test
        that fails for NaN), else all ones; E itself is left unchanged. A
        symmetric field's operator takes Cholesky (``pbtrf``), which reads
        its lower triangle only, so only the slots ``tril`` are scaled and
        placed, and LU with partial pivoting (``gbtrf``) when Cholesky meets
        a non-positive pivot; a nonsymmetric field's takes LU. An exactly
        singular matrix raises ``SolverFailure``.
        """
        lay = self.layout
        data = self.eliminated.data
        n = lay.shape[0]
        k = lay.width
        d = data[lay.diag]
        s = 1.0 / np.sqrt(d) if d.min() > 0.0 and d.max() < math.inf else np.ones(n)
        self.scale = s[lay.perm]
        if self.symmetric:
            r, c = lay.tril_rc
            ab = np.zeros((k + 1) * n)
            ab[lay.chol] = data[lay.tril] * (s[r] * s[c])
            band, info = lapack.dpbtrf(ab.reshape(k + 1, n, order="F"), lower=1,
                                       overwrite_ab=1)
            if info == 0:
                self.band, self.ipiv = band, None
                return self
        ab = np.zeros((3 * k + 1) * n)
        ab[lay.lu] = data * (s[lay.rows] * s[lay.indices])
        band, ipiv, info = lapack.dgbtrf(ab.reshape(3 * k + 1, n, order="F"), k, k,
                                         overwrite_ab=1)
        if info > 0:
            raise SolverFailure(f"banded LU factorization met an exactly zero pivot "
                                f"at band position {info - 1}", diagnostics={"n": n})
        self.band, self.ipiv = band, ipiv
        return self

    def solve_factored(self, b: np.ndarray) -> np.ndarray:
        """x with E x = ``b`` from the filled factor, unrefined and ungated."""
        lay = self.layout
        y = self.scale * b[lay.perm]
        if self.ipiv is None:
            y, _ = lapack.dpbtrs(self.band, y, lower=1, overwrite_b=1)
        else:
            y, _ = lapack.dgbtrs(self.band, lay.width, lay.width, y, self.ipiv, overwrite_b=1)
        x = np.empty_like(y)
        x[lay.perm] = self.scale * y
        return x


def apply_dirichlet(op: FieldOperator, data: np.ndarray) -> None:
    """Load the operator ``data`` into ``op`` with its constraints
    eliminated, and form their lift product (None when every prescribed
    value is zero); the factor is left empty."""
    A = op.load(data)
    op.eliminate(op.mask, op.unit)
    op.lifted = None if op.lift is None else A @ op.lift


# ---------------------------------------------------------------------------
# linear solve
# ---------------------------------------------------------------------------

def solve_linear(op: FieldOperator, b: np.ndarray) -> np.ndarray:
    """Solve ``op.eliminated`` x = b by a direct banded solve with a
    relative residual gate of 1e-10.

    The operator is symmetrically Jacobi-scaled before factorization (the
    mobility contrast between broken and intact cells reaches 1e8+) and up
    to ``_REFINE_SWEEPS`` iterative-refinement sweeps against the unscaled
    residual recover full accuracy. Refinement stops at the first sweep
    that does not lower ||r||, keeping the iterate with the lowest
    residual: there the residual sits on its round-off floor, and further
    sweeps only cost a triangular solve and a matvec each. The factor is
    ``op``'s own (see ``FieldOperator``): an empty one is filled by
    ``op.factorize``, and a filled one is reused without looking at the
    operator again.
    """
    A = op.eliminated
    n = A.shape[0]
    if op.band is None:
        op.factorize()
    x = op.solve_factored(b)
    if not np.isfinite(x).all():
        raise SolverFailure("linear solve produced non-finite values",
                            diagnostics={"n": n})
    bnorm = math.sqrt(b @ b)
    if bnorm == 0.0:
        return x
    resid = b - A @ x
    rnorm = math.sqrt(resid @ resid)
    gate = 1e-10 * bnorm
    for _ in range(_REFINE_SWEEPS):
        if rnorm <= gate:
            return x
        x_new = x + op.solve_factored(resid)
        r_new = b - A @ x_new
        rnorm_new = math.sqrt(r_new @ r_new)
        if not rnorm_new < rnorm:
            break
        x, resid, rnorm = x_new, r_new, rnorm_new
    # With strong cancellation (||b|| << |A||x|, e.g. source-driven flow in a
    # high-contrast crack) no float64 vector can reach 1e-10*||b||; accept the
    # standard backward-error scale instead, which coincides with the ||b||
    # gate whenever the system is well scaled.
    absAx = np.bincount(op.layout.rows, weights=np.abs(A.data) * np.abs(x)[A.indices], minlength=n)
    denom = bnorm + math.sqrt(absAx @ absAx)
    if rnorm > 1e-10 * denom:
        raise SolverFailure(
            f"linear solve residual {rnorm:.3e} exceeds 1e-10 * backward scale "
            f"{1e-10 * denom:.3e} (||b|| = {bnorm:.3e})",
            diagnostics={"residual": rnorm, "rhs_norm": bnorm, "n": n})
    return x


# ---------------------------------------------------------------------------
# bound-constrained quadratic solve (phase-field subproblem)
# ---------------------------------------------------------------------------

def solve_bound_constrained(op: FieldOperator, b: np.ndarray, lower: np.ndarray,
                            upper: np.ndarray, init: np.ndarray) -> np.ndarray:
    """Minimize 1/2 x'Ax - b'x subject to lower <= x <= upper.

    Active-set iteration on the symmetric system: solve the free block,
    clamp violating components, release actives whose KKT multiplier has
    the wrong sign. At the solution the gradient r = Ax - b vanishes on
    free components, is >= 0 at lower bounds and <= 0 at upper bounds.
    A is the operator ``op`` holds as assembled. Each free block is A with
    its active rows and columns eliminated by ``op.eliminate`` (rhs 0
    there), which empties ``op``'s factor, and ``solve_linear(op, ...)``
    solves it with its residual gate on the free block, refinement and
    non-finite check.
    """
    A = op.assembled
    n = A.shape[0]
    lower = np.broadcast_to(np.asarray(lower, dtype=float), (n,)).copy()
    upper = np.broadcast_to(np.asarray(upper, dtype=float), (n,)).copy()
    if np.any(lower > upper + 1e-15):
        raise ValueError("lower bound exceeds upper bound")
    x = np.clip(np.asarray(init, dtype=float).copy(), lower, upper)
    rows, diag = op.layout.rows, op.layout.diag

    pinned = lower >= upper - 1e-15          # equality-constrained dofs
    x[pinned] = lower[pinned]
    at_lo = (x <= lower + 1e-15) & ~pinned
    at_up = (x >= upper - 1e-15) & ~pinned

    scale = max(np.abs(b).max(initial=0.0), np.abs(A.data[diag]).max(initial=0.0), 1e-300)
    tol = _BOX_KKT_TOL * scale

    for _ in range(_BOX_MAX_ITER):
        active = pinned | at_lo | at_up
        free = ~active
        if np.any(free):
            keep = free.astype(float)
            op.eliminate(keep[rows] * keep[A.indices], diag[active])
            rhs_f = (b - A @ np.where(active, x, 0.0)) * keep
            x_f = solve_linear(op, rhs_f)
            x[free] = x_f[free]
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
