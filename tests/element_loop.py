"""Reference implementations the fast paths are tested against: element-loop
assembly, general isoparametric element data from the node coordinates,
Dirichlet elimination as a gather into the reduced structure of the
constrained operator, edge-by-edge boundary loads, node searches over
every node, Dirichlet entries merged one dof at a time, the mechanics residual
whose Jacobian the mechanics operator is, and the fracture permeability
from the crack normal. Also small helpers that turn operator data on a
field layout into scipy matrices, and a scipy matrix into operator
storage."""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from thmfrac import constitutive as law
from thmfrac.fem import FieldOperator, apply_dirichlet, field_layout, gauss_2x2, shape_q4
from thmfrac.mesh import Mesh

_VOIGT_ID = np.array([1.0, 1.0, 0.0])


def csr(layout, data) -> sp.csr_matrix:
    """A new CSR matrix holding ``data`` on the structure of ``layout``."""
    return sp.csr_matrix((data, layout.indices, layout.indptr), shape=layout.shape)


def matrix(tables, system) -> sp.csr_matrix:
    """The operator of an assembled scalar-field ``FieldSystem`` of
    ``tables`` as a new CSR matrix."""
    return csr(tables.scalar_layout, system.data)


def operator_of(A, symmetric=True) -> FieldOperator:
    """Unconstrained operator state holding the scipy sparse matrix ``A``,
    banded in its own row numbering and loaded through ``apply_dirichlet``,
    so that ``solve_linear(op, b)`` solves A x = b. Its layout comes from
    ``field_layout`` with one two-dof element per stored entry (i, j) and
    one per diagonal, so every stored entry has its transpose and every row
    its diagonal; entries ``A`` does not store are held as zeros."""
    A = sp.csr_matrix(A)
    n = A.shape[0]
    rows = np.repeat(np.arange(n), np.diff(A.indptr))
    dofs = np.vstack([np.column_stack([rows, A.indices]), np.arange(n).repeat(2).reshape(n, 2)])
    layout = field_layout(dofs, np.arange(n))
    op = FieldOperator(layout, symmetric=symmetric)
    apply_dirichlet(op, A.toarray()[layout.rows, layout.indices])
    return op


def assemble(mesh: Mesh, element_kernel) -> tuple[sp.csr_matrix, np.ndarray]:
    """Assemble a global scalar-field system (A, b) from a per-element kernel.

    ``element_kernel(eid) -> (ke, fe)`` must return a (4, 4) matrix and a
    (4,) vector ordered by local node.
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
    return A, b


def edge_load(mesh: Mesh, side: str, traction) -> np.ndarray:
    """Consistent nodal forces of a constant traction on a boundary side,
    edge by edge: each edge between consecutive side nodes puts half of
    its load t L on either end node."""
    f = np.zeros(2 * mesh.n_nodes)
    tx, ty = traction
    ids = mesh.boundary_nodes[side]
    for n1, n2 in zip(ids[:-1], ids[1:]):
        L = float(np.hypot(*(mesh.nodes[n2] - mesh.nodes[n1])))
        for n in (n1, n2):
            f[2 * n] += 0.5 * tx * L
            f[2 * n + 1] += 0.5 * ty * L
    return f


def nodes_on_segment(mesh: Mesh, p0, p1, tol: float) -> np.ndarray:
    """Node ids within ``tol`` of the segment p0-p1: every node of the mesh
    projected onto the segment."""
    p0 = np.asarray(p0, dtype=float)
    p1 = np.asarray(p1, dtype=float)
    d = p1 - p0
    L = float(np.hypot(*d))
    t = ((mesh.nodes - p0) @ d) / (L * L)
    proj = p0 + np.clip(t, 0.0, 1.0)[:, None] * d
    dist = np.hypot(*(mesh.nodes - proj).T)
    return np.nonzero(dist <= tol)[0]


def nearest_node(mesh: Mesh, x: float, y: float) -> int:
    """Id of the node nearest to (x, y) among all nodes, the lowest on a tie."""
    d2 = (mesh.nodes[:, 0] - x) ** 2 + (mesh.nodes[:, 1] - y) ** 2
    return int(np.argmin(d2))


def merge_dirichlet(entries) -> tuple[np.ndarray, np.ndarray]:
    """(dofs, value) pairs collapsed through a dict, one dof at a time;
    later entries win, dofs sorted."""
    table: dict[int, float] = {}
    for dofs, value in entries:
        for d in np.asarray(dofs, dtype=np.int64):
            table[int(d)] = float(value)
    if not table:
        return np.empty(0, dtype=np.int64), np.empty(0)
    dofs = np.fromiter(table.keys(), dtype=np.int64)
    order = np.argsort(dofs)
    vals = np.fromiter(table.values(), dtype=float)
    return dofs[order], vals[order]


@dataclass
class Isoparametric:
    """General isoparametric Q4 data of a mesh at the 2x2 Gauss points."""

    N: np.ndarray        # (4 q, 4 a) shape values
    dNdx: np.ndarray     # (E, 4 q, 4 a, 2) physical gradients
    detJw: np.ndarray    # (E, 4 q) weighted Jacobian determinants
    B: np.ndarray        # (E, 4 q, 3, 8) strain-displacement matrices


def isoparametric(mesh: Mesh) -> Isoparametric:
    """Element data from ``mesh.nodes`` alone, with the full Jacobian
    J[d, b] = dx_b/dxi_d and its inverse at every quadrature point, so
    nothing assumes the elements are rectangles."""
    pts, wts = gauss_2x2()
    N, dN = shape_q4(pts[:, 0], pts[:, 1])                    # (q, a), (q, a, d)
    J = np.einsum("qad,eab->eqdb", dN, mesh.nodes[mesh.elems])
    dNdx = np.einsum("qad,eqbd->eqab", dN, np.linalg.inv(J))  # dN/dxi_d Jinv[b, d]
    B = np.zeros(dNdx.shape[:2] + (3, 8))
    B[:, :, 0, 0::2] = dNdx[..., 0]
    B[:, :, 1, 1::2] = dNdx[..., 1]
    B[:, :, 2, 0::2] = dNdx[..., 1]
    B[:, :, 2, 1::2] = dNdx[..., 0]
    return Isoparametric(N=N, dNdx=dNdx, detJw=np.linalg.det(J) * wts, B=B)


def reduced_elimination(layout, data, dofs):
    """Dirichlet elimination of the operator ``data`` on ``layout`` as a
    gather into the reduced structure: the free-free slots plus every
    diagonal, constrained diagonals set to 1. Returns the eliminated CSR
    matrix and the layout slots it keeps."""
    n = layout.shape[0]
    fixed = np.zeros(n, dtype=bool)
    fixed[dofs] = True
    rows = layout.rows
    kept = ~(fixed[rows] | fixed[layout.indices])
    kept[layout.diag] = True
    slots = np.flatnonzero(kept)
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(rows[slots], minlength=n), out=indptr[1:])
    reduced = data[slots]
    reduced[np.searchsorted(slots, layout.diag[dofs])] = 1.0
    return sp.csr_matrix((reduced, layout.indices[slots], indptr), shape=(n, n)), slots


def reduced_factor(layout, A, slots, symmetric=True) -> FieldOperator:
    """The factor the reduced operator ``A`` (holding the layout ``slots``)
    got in its field's layout: an unconstrained, factorized operator of a
    field that is ``symmetric`` or not, holding the data of ``A`` scattered
    back onto the full structure, zeros in the slots it lacks."""
    full = np.zeros(layout.indices.size)
    full[slots] = A.data
    op = FieldOperator(layout, symmetric=symmetric)
    apply_dirichlet(op, full)
    return op.factorize()


def effective_stress(eps_e, moduli, params, eps_zz=0.0) -> np.ndarray:
    """In-plane Voigt effective stress K_eff tr(eps_e) I + 2 g mu dev(eps_e)
    of the ``law.degraded_moduli`` record ``moduli``."""
    eps_e = np.asarray(eps_e, dtype=float)
    tr = law.trace2(eps_e) + eps_zz
    gm = moduli.g * params.mu_shear
    sxx = moduli.K_eff * tr + 2.0 * gm * (eps_e[..., 0] - tr / 3.0)
    syy = moduli.K_eff * tr + 2.0 * gm * (eps_e[..., 1] - tr / 3.0)
    sxy = gm * eps_e[..., 2]
    return np.stack([sxx, syy, sxy], axis=-1)


def mechanics_residual(tables, params, u, v, p, T, f_ext) -> np.ndarray:
    """Internal force of the evaluated stress state minus external loads,
    on the ``isoparametric`` element data of the tables' mesh."""
    iso = isoparametric(tables.mesh)
    conn = tables.mesh.elems
    p_qp = p[conn] @ iso.N.T
    dT_qp = T[conn] @ iso.N.T - params.T0
    eps = np.einsum("eqsa,ea->eqs", iso.B, u[tables.dofs_vec])
    eps_e, ezz, _, h = law.thermoelastic_split(eps, dT_qp, params.alpha_s)
    moduli = law.degraded_moduli(law.degradation(v[conn] @ iso.N.T, params.k_res), h, params)
    sig = effective_stress(eps_e, moduli, params, eps_zz=ezz)
    sig = sig - (moduli.alpha * p_qp)[..., None] * _VOIGT_ID
    FE = np.einsum("eqsa,eqs->ea", iso.B, sig * iso.detJw[..., None])
    f = np.zeros(2 * tables.mesh.n_nodes)
    np.add.at(f, tables.dofs_vec.ravel(), FE.ravel())
    return f - f_ext


def crack_normal(eps, e1, e2) -> np.ndarray:
    """Unit eigenvector of the largest principal strain, shape (..., 2).

    ``e1, e2`` are the ``law.principal_strains`` of ``eps``. Deterministic
    sign (first nonzero component positive); degenerate (isotropic) states,
    e1 - e2 <= 1e-12, return (1, 0).
    """
    eps = np.asarray(eps, dtype=float)
    exx, eyy, exy = eps[..., 0], eps[..., 1], 0.5 * eps[..., 2]
    degen = (e1 - e2) <= 1e-12
    # two candidate (unnormalized) eigenvectors; pick the better conditioned
    vx_a, vy_a = e1 - eyy, exy
    vx_b, vy_b = exy, e1 - exx
    use_a = np.hypot(vx_a, vy_a) >= np.hypot(vx_b, vy_b)
    vx = np.where(use_a, vx_a, vx_b)
    vy = np.where(use_a, vy_a, vy_b)
    norm = np.hypot(vx, vy)
    norm = np.where(norm == 0.0, 1.0, norm)
    vx, vy = vx / norm, vy / norm
    # sign convention: first nonzero component positive
    flip = np.where(np.abs(vx) > 1e-14, vx < 0.0, vy < 0.0)
    vx = np.where(flip, -vx, vx)
    vy = np.where(flip, -vy, vy)
    vx = np.where(degen, 1.0, vx)
    vy = np.where(degen, 0.0, vy)
    return np.stack([vx, vy], axis=-1)


def permeability_tensor(perm) -> np.ndarray:
    """The (..., 2, 2) tensor of the ``law.permeability`` components."""
    K = np.empty(np.shape(perm.xx) + (2, 2))
    K[..., 0, 0] = perm.xx
    K[..., 1, 1] = perm.yy
    K[..., 0, 1] = perm.xy
    K[..., 1, 0] = perm.xy
    return K


def permeability_from_normal(v, width, normal, params) -> np.ndarray:
    """K = perm_m I + (1-v)^xi (w^2/12)(I - n x n) from the crack normal n."""
    v = np.clip(np.asarray(v, dtype=float), 0.0, 1.0)
    w = np.asarray(width, dtype=float)
    n = np.asarray(normal, dtype=float)
    enh = (1.0 - v) ** params.xi * (w * w / 12.0)
    P = np.eye(2) - n[..., :, None] * n[..., None, :]
    return params.perm_m * np.eye(2) + enh[..., None, None] * P
