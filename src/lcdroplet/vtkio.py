"""Binary legacy VTK output for meshes and nodal fields: text header lines,
then big-endian float64 points and fields (z = 0) and int32 cells, each
array in one write, so that the values keep their exact float64 bits."""
from __future__ import annotations

import os

import numpy as np

from .mesh import TriMesh

VTK_TRIANGLE = 5
Z0 = ((0, 0), (0, 1))  # np.pad widths that append z = 0 to (n, 2) rows


def write_vtk(path, mesh: TriMesh, point_scalars=None, point_vectors=None,
              title="lcdroplet fields"):
    """Write an unstructured-grid VTK file with optional nodal data.

    ``point_scalars`` and ``point_vectors`` map field names to arrays of
    shape (n_nodes,) and (n_nodes, 2) respectively.  A field of another
    shape, or a title of more than one line, is a ``ValueError``.
    """
    if "\n" in title or "\r" in title:
        raise ValueError(f"VTK title {title!r} is not one line")
    nn, ne = mesh.n_nodes, mesh.n_elements
    fields = [(f"SCALARS {name} double 1\nLOOKUP_TABLE default", name, values, (nn,))
              for name, values in (point_scalars or {}).items()]
    fields += [(f"VECTORS {name} double", name, values, (nn, 2))
               for name, values in (point_vectors or {}).items()]
    data = [f"\nPOINT_DATA {nn}".encode()] if fields else []
    for header, name, values, shape in fields:
        values = np.asarray(values, dtype=float)
        if values.shape != shape:
            raise ValueError(f"point field {name!r} has shape {values.shape}, but the "
                             f"mesh has {nn} nodes, so it must be {shape}")
        if values.ndim == 2:
            values = np.pad(values, Z0)
        data += [f"\n{header}\n".encode(), values.astype(">f8").tobytes()]
    cells = np.column_stack([np.full(ne, 3), mesh.elements]).astype(">i4")
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "wb") as fh:
        fh.writelines([
            f"# vtk DataFile Version 3.0\n{title}\nBINARY\nDATASET UNSTRUCTURED_GRID\n"
            f"POINTS {nn} double\n".encode(), np.pad(mesh.nodes, Z0).astype(">f8").tobytes(),
            f"\nCELLS {ne} {4 * ne}\n".encode(), cells.tobytes(),
            f"\nCELL_TYPES {ne}\n".encode(), np.full(ne, VTK_TRIANGLE, ">i4").tobytes(),
            *data, b"\n"])
