"""Legacy ASCII VTK (UNSTRUCTURED_GRID) writer for meshes and snapshots.

A run writes many snapshots of one mesh, so the mesh block (``POINTS``,
``CELLS`` and ``CELL_TYPES``) is formatted once, by ``vtk_grid``, and every
``write_vtk`` call of the run reuses it.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .mesh import Mesh


def _rows(line: str, table: np.ndarray) -> str:
    """The rows of ``table`` one per text line, all through one %-format call."""
    return "\n".join([line] * len(table)) % tuple(table.ravel().tolist())


@dataclass(frozen=True)
class VtkGrid:
    """The mesh block of a legacy VTK file, formatted once per mesh."""

    n_nodes: int
    n_elems: int
    text: str       # POINTS, CELLS and CELL_TYPES, without a final newline


def vtk_grid(mesh: Mesh) -> VtkGrid:
    """Format the nodes and Q4 cells of ``mesh``."""
    lines = [f"POINTS {mesh.n_nodes} double",
             _rows("%.17g %.17g 0", mesh.nodes),
             f"CELLS {mesh.n_elems} {5 * mesh.n_elems}",
             _rows("4 %d %d %d %d", mesh.elems),
             f"CELL_TYPES {mesh.n_elems}"]
    lines.extend(["9"] * mesh.n_elems)
    return VtkGrid(n_nodes=mesh.n_nodes, n_elems=mesh.n_elems, text="\n".join(lines))


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
    lines = ["# vtk DataFile Version 3.0", title, "ASCII", "DATASET UNSTRUCTURED_GRID",
             grid.text]

    if point_data or point_vectors:
        lines.append(f"POINT_DATA {grid.n_nodes}")
        for name, vals in (point_data or {}).items():
            lines.append(f"SCALARS {name} double 1")
            lines.append("LOOKUP_TABLE default")
            lines.append(_rows("%.17g", np.asarray(vals, dtype=float)))
        for name, vec in (point_vectors or {}).items():
            vec = np.asarray(vec, dtype=float).reshape(grid.n_nodes, 2)
            lines.append(f"VECTORS {name} double")
            lines.append(_rows("%.17g %.17g 0", vec))

    if cell_data:
        lines.append(f"CELL_DATA {grid.n_elems}")
        for name, vals in cell_data.items():
            lines.append(f"SCALARS {name} double 1")
            lines.append("LOOKUP_TABLE default")
            lines.append(_rows("%.17g", np.asarray(vals, dtype=float)))

    path.write_text("\n".join(lines) + "\n")
    return path
