"""Element-loop assembly: the reference the batched assembly is tested against."""

import numpy as np
import scipy.sparse as sp

from thmfrac.fem import SparseSystem
from thmfrac.mesh import Mesh


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
