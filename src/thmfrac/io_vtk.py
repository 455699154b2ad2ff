"""Legacy binary VTK (UNSTRUCTURED_GRID) writer for meshes and snapshots.

The files are legacy VTK ``BINARY``: the header and every keyword line are
ASCII text, and each array follows its keyword line as raw big-endian
values, then a newline. Points and data are float64 (``>f8``); ``CELLS``
and ``CELL_TYPES`` are int32 (``>i4``), the integer type legacy VTK
readers take. Every value written is the double the solver holds, so the
file carries the same numbers as a ``%.17g`` text file would, in about
two thirds of the bytes and without formatting a number: formatting took
most of a snapshot's time on the small meshes of a batch run.

A run writes many snapshots of one mesh, so the mesh block (``POINTS``,
``CELLS`` and ``CELL_TYPES``) is encoded once, by ``vtk_grid``, and every
``write_vtk`` call of the run reuses it.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .mesh import Mesh

_FLOAT = np.dtype(">f8")
_INT = np.dtype(">i4")
_VTK_QUAD = 9


def _block(line: str, values: np.ndarray) -> bytes:
    """A keyword line and the big-endian bytes of ``values`` after it."""
    return line.encode() + b"\n" + values.tobytes() + b"\n"


def _xyz(xy: np.ndarray) -> np.ndarray:
    """(n, 2) points or vectors as big-endian (n, 3) with z = 0."""
    out = np.zeros((len(xy), 3), dtype=_FLOAT)
    out[:, :2] = xy
    return out


@dataclass(frozen=True)
class VtkGrid:
    """The mesh block of a legacy VTK file, encoded once per mesh."""

    n_nodes: int
    n_elems: int
    data: bytes     # POINTS, CELLS and CELL_TYPES with their payloads


def vtk_grid(mesh: Mesh) -> VtkGrid:
    """Encode the nodes and Q4 cells of ``mesh``."""
    cells = np.empty((mesh.n_elems, 5), dtype=_INT)
    cells[:, 0] = 4
    cells[:, 1:] = mesh.elems
    data = b"".join([
        _block(f"POINTS {mesh.n_nodes} double", _xyz(mesh.nodes)),
        _block(f"CELLS {mesh.n_elems} {5 * mesh.n_elems}", cells),
        _block(f"CELL_TYPES {mesh.n_elems}", np.full(mesh.n_elems, _VTK_QUAD, dtype=_INT)),
    ])
    return VtkGrid(n_nodes=mesh.n_nodes, n_elems=mesh.n_elems, data=data)


def write_vtk(path: str | Path, grid: VtkGrid,
              point_data: dict[str, np.ndarray] | None = None,
              point_vectors: dict[str, np.ndarray] | None = None,
              cell_data: dict[str, np.ndarray] | None = None,
              title: str = "thmfrac snapshot") -> Path:
    """Write the mesh block ``grid`` with optional nodal scalars/vectors and
    cell scalars.

    Vectors are (n_nodes, 2) and padded with a zero z component.
    """
    path = Path(path)
    parts = [f"# vtk DataFile Version 3.0\n{title}\nBINARY\nDATASET UNSTRUCTURED_GRID\n"
             .encode(), grid.data]

    if point_data or point_vectors:
        parts.append(f"POINT_DATA {grid.n_nodes}\n".encode())
        for name, vals in (point_data or {}).items():
            parts.append(_block(f"SCALARS {name} double 1\nLOOKUP_TABLE default",
                                np.asarray(vals, dtype=_FLOAT)))
        for name, vec in (point_vectors or {}).items():
            parts.append(_block(f"VECTORS {name} double",
                                _xyz(np.reshape(vec, (grid.n_nodes, 2)))))

    if cell_data:
        parts.append(f"CELL_DATA {grid.n_elems}\n".encode())
        for name, vals in cell_data.items():
            parts.append(_block(f"SCALARS {name} double 1\nLOOKUP_TABLE default",
                                np.asarray(vals, dtype=_FLOAT)))

    path.write_bytes(b"".join(parts))
    return path
