"""Nodal P1 finite-element fields.

Fields store one value (or one d-vector) per mesh node; the associated
function is the piecewise-affine interpolant.  ``DirectorField`` adds the
nodal unit-length constraint used for the liquid crystal director.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import TriMesh

UNIT_TOL = 1e-12


@dataclass(frozen=True)
class NodalScalarField:
    mesh: TriMesh
    values: np.ndarray

    def __post_init__(self):
        vals = np.ascontiguousarray(np.asarray(self.values, dtype=float))
        object.__setattr__(self, "values", vals)
        if vals.shape != (self.mesh.n_nodes,):
            raise ValueError(
                f"scalar field needs {self.mesh.n_nodes} values, got {vals.shape}"
            )


@dataclass(frozen=True)
class NodalVectorField:
    mesh: TriMesh
    values: np.ndarray

    def __post_init__(self):
        vals = np.ascontiguousarray(np.asarray(self.values, dtype=float))
        object.__setattr__(self, "values", vals)
        if vals.shape != (self.mesh.n_nodes, 2):
            raise ValueError(
                f"vector field needs shape ({self.mesh.n_nodes}, 2), got {vals.shape}"
            )


@dataclass(frozen=True)
class DirectorField(NodalVectorField):
    """Vector field with |value| = 1 at every node."""

    def __post_init__(self):
        super().__post_init__()
        norms = np.linalg.norm(self.values, axis=1)
        err = float(np.abs(norms - 1.0).max()) if norms.size else 0.0
        if err > UNIT_TOL:
            raise ValueError(f"director violates nodal unit length by {err:.3e}")


def normalized(values: np.ndarray) -> np.ndarray:
    """Normalize vectors row-wise; raises on (near-)zero rows."""
    norms = np.linalg.norm(values, axis=1)
    if np.any(norms < 1e-14):
        bad = int(np.argmin(norms))
        raise ValueError(f"cannot normalize zero vector at node {bad}")
    return values / norms[:, None]


def interpolate(mesh: TriMesh, g, vector: bool = False):
    """Lagrange interpolation: sample ``g`` at the mesh nodes.

    ``g`` is called as ``g(x, y)`` with coordinate arrays and must return
    an array of node values (scalar case) or a tuple/list of component
    arrays (vector case).
    """
    x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
    if vector:
        comps = g(x, y)
        vals = np.column_stack([np.broadcast_to(np.asarray(c, dtype=float), x.shape) for c in comps])
        if not np.all(np.isfinite(vals)):
            raise ValueError("interpolated vector field has non-finite nodal values")
        return NodalVectorField(mesh, vals)
    vals = np.broadcast_to(np.asarray(g(x, y), dtype=float), x.shape).copy()
    if not np.all(np.isfinite(vals)):
        raise ValueError("interpolated field has non-finite nodal values")
    return NodalScalarField(mesh, vals)
