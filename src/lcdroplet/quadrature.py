"""Numerical quadrature rules.

Two rules are used throughout the package:

* a fixed 6-point triangle rule that integrates polynomials of total
  degree 4 exactly (enough for every quartic double-well integrand that
  appears in the energies and residuals), with all-positive weights so
  pointwise inequalities survive integration;
* tensorized Gauss-Legendre grids on the unit square, used only by the
  verification layer to evaluate smooth reference integrals.
"""
from __future__ import annotations

import numpy as np

# Degree-4 rule on the reference triangle: two orbits of 3 points each,
# given in barycentric coordinates.  Weights are normalized to sum to 1
# and are multiplied by the element area on use.
_A1, _W1 = 0.445948490915965, 0.223381589678011
_A2, _W2 = 0.091576213509771, 0.109951743655322

TRI4_BARY = np.array(
    [
        [1.0 - 2.0 * _A1, _A1, _A1],
        [_A1, 1.0 - 2.0 * _A1, _A1],
        [_A1, _A1, 1.0 - 2.0 * _A1],
        [1.0 - 2.0 * _A2, _A2, _A2],
        [_A2, 1.0 - 2.0 * _A2, _A2],
        [_A2, _A2, 1.0 - 2.0 * _A2],
    ]
)
TRI4_WEIGHTS = np.array([_W1, _W1, _W1, _W2, _W2, _W2])
TRI4_WEIGHTS = TRI4_WEIGHTS / TRI4_WEIGHTS.sum()


def at_quad_points(nodal_on_elements: np.ndarray) -> np.ndarray:
    """Evaluate piecewise-affine data at the degree-4 quadrature points.

    Parameters
    ----------
    nodal_on_elements : ndarray, shape (ne, 3)
        Vertex values of the affine function on each element.

    Returns
    -------
    ndarray, shape (ne, 6)
        Values at the six quadrature points of each element.
    """
    return nodal_on_elements @ TRI4_BARY.T


def integrate_elementwise(values_at_quad: np.ndarray, areas: np.ndarray) -> float:
    """Sum the quadrature rule over all elements.

    ``values_at_quad`` has shape (ne, 6); ``areas`` has shape (ne,).
    """
    return float(areas @ (values_at_quad @ TRI4_WEIGHTS))


def gauss_legendre_grid(n: int):
    """Tensor Gauss-Legendre rule with ``n`` points per axis on the unit square.

    Returns (points, weights) with points of shape (n*n, 2).  Used by the
    verification layer for dense reference integrals of smooth functions.
    """
    t, w = np.polynomial.legendre.leggauss(n)
    xs = 0.5 * (t + 1.0)
    wx = 0.5 * w
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    pts = np.column_stack([X.ravel(), Y.ravel()])
    return pts, np.outer(wx, wx).ravel()
