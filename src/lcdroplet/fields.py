"""Nodal P1 finite-element fields.

Fields store one value (or one 2-vector) per mesh node; the associated
function is the piecewise-affine interpolant.  ``DirectorField`` holds
the liquid crystal director, with unit length at every node.
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
class DirectorField:
    """Vector field with |value| = 1 at every node."""

    mesh: TriMesh
    values: np.ndarray

    def __post_init__(self):
        vals = np.ascontiguousarray(np.asarray(self.values, dtype=float))
        object.__setattr__(self, "values", vals)
        if vals.shape != (self.mesh.n_nodes, 2):
            raise ValueError(
                f"vector field needs shape ({self.mesh.n_nodes}, 2), got {vals.shape}"
            )
        norms = np.linalg.norm(vals, axis=1)
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
