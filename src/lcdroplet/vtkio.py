"""Legacy ASCII VTK output for meshes and nodal fields."""
from __future__ import annotations

import os

import numpy as np

from .mesh import TriMesh

VTK_TRIANGLE = 5


def write_vtk(path, mesh: TriMesh, point_scalars=None, point_vectors=None,
              title="lcdroplet fields"):
    """Write an unstructured-grid VTK file with optional nodal data.

    ``point_scalars`` and ``point_vectors`` map field names to arrays of
    shape (n_nodes,) and (n_nodes, 2) respectively.
    """
    point_scalars = point_scalars or {}
    point_vectors = point_vectors or {}
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)

    ne = mesh.n_elements
    blocks = [
        "# vtk DataFile Version 3.0\n"
        f"{title}\nASCII\nDATASET UNSTRUCTURED_GRID\nPOINTS {mesh.n_nodes} double\n",
        _rows("%.17g %.17g 0\n", mesh.nodes),
        f"CELLS {ne} {4 * ne}\n",
        _rows("3 %d %d %d\n", mesh.elements),
        f"CELL_TYPES {ne}\n",
        f"{VTK_TRIANGLE}\n" * ne,
    ]
    if point_scalars or point_vectors:
        blocks.append(f"POINT_DATA {mesh.n_nodes}\n")
    for name, values in point_scalars.items():
        blocks.append(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
        blocks.append(_rows("%.17g\n", np.asarray(values, dtype=float)))
    for name, values in point_vectors.items():
        blocks.append(f"VECTORS {name} double\n")
        blocks.append(_rows("%.17g %.17g 0\n", np.asarray(values, dtype=float)[:, :2]))

    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(blocks))


def _rows(fmt: str, values: np.ndarray) -> str:
    """One ``fmt`` line per row of ``values``, formatted by a single ``%``."""
    return (fmt * len(values)) % tuple(values.ravel().tolist())
