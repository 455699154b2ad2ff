"""Reference implementations the fast paths are tested against: element-loop
assembly, Dirichlet elimination as a gather into the reduced structure of
the constrained operator, and the mechanics residual whose Jacobian the
mechanics operator is. Also small helpers that turn operator data on a
pattern into scipy matrices."""

import numpy as np
import scipy.sparse as sp

from thmfrac import constitutive as law
from thmfrac.fem import Factorization, SparseSystem, scatter_vector
from thmfrac.mesh import Mesh
from thmfrac.physics import scalar_qp, strain_qp

_VOIGT_ID = np.array([1.0, 1.0, 0.0])


def csr(pattern, data) -> sp.csr_matrix:
    """A new CSR matrix holding ``data`` on ``pattern``."""
    return sp.csr_matrix((data, pattern.indices, pattern.indptr), shape=pattern.shape)


def matrix(system) -> sp.csr_matrix:
    """The operator of an assembled ``FieldSystem`` as a new CSR matrix."""
    return csr(system.pattern, system.data)


def assemble(mesh: Mesh, element_kernel) -> SparseSystem:
    """Assemble a global scalar-field system from a per-element kernel.

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
    return SparseSystem(matrix=A, rhs=b)


def reduced_elimination(pattern, data, dofs):
    """Dirichlet elimination of the operator ``data`` on ``pattern`` as a
    gather into the reduced structure: the free-free slots plus every
    diagonal, constrained diagonals set to 1. Returns the eliminated CSR
    matrix and the pattern slots it keeps."""
    n = pattern.shape[0]
    fixed = np.zeros(n, dtype=bool)
    fixed[dofs] = True
    rows = np.repeat(np.arange(n), np.diff(pattern.indptr))
    kept = ~(fixed[rows] | fixed[pattern.indices])
    kept[pattern.diag] = True
    slots = np.flatnonzero(kept)
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(rows[slots], minlength=n), out=indptr[1:])
    reduced = data[slots]
    reduced[np.searchsorted(slots, pattern.diag[dofs])] = 1.0
    return sp.csr_matrix((reduced, pattern.indices[slots], indptr), shape=(n, n)), slots


def reduced_factor(pattern, layout, A, slots) -> Factorization:
    """The factor the reduced operator ``A`` (holding the pattern ``slots``)
    got in its field's layout: its data scattered back onto the full
    pattern, zeros in the slots it lacks, and factorized there."""
    full = np.zeros(pattern.indices.size)
    full[slots] = A.data
    return Factorization(layout).factorize(csr(pattern, full))


def mechanics_residual(tables, params, u, v, p, T, f_ext) -> np.ndarray:
    """Internal force of the evaluated stress state minus external loads."""
    v_qp = scalar_qp(tables, v)
    p_qp = scalar_qp(tables, p)
    dT_qp = scalar_qp(tables, T) - params.T0
    eps_e, ezz, _, h = law.thermoelastic_split(strain_qp(tables, u), dT_qp, params.alpha_s)
    sig = law.effective_stress(eps_e, v_qp, h, params, eps_zz=ezz)
    alpha = law.biot_coefficient(v_qp, h, params)
    sig = sig - (alpha * p_qp)[..., None] * _VOIGT_ID
    FE = np.einsum("eqsa,eqs->ea", tables.B, sig * tables.detJw[..., None])
    return scatter_vector(tables, FE, vector=True) - f_ext
