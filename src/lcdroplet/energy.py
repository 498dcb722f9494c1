"""Discrete energies, multilinear forms, and variational derivatives.

The total free energy of a state (s, n, phi) is the weighted sum

    W_erk * E_erk + W_dw * E_dw + W_chdw * E_chdw + W_chgd * E_chgd
    + W_wan * E_wan + W_was * E_was

with the elastic part discretized through stiffness couplings
``k_ij = -(stiffness)_ij`` over node pairs,

    E_erk = kappa/2 * sum_ij k_ij (s_i - s_j)^2
            + 1/2 * sum_ij k_ij (s_i^2 + s_j^2)/2 * |n_i - n_j|^2,

and the director/interface coupling evaluated by the vertex quadrature
rule (mass lumping), which is what makes nodewise normalization of the
director energy-decreasing.  ``eform`` and ``cform`` are the two
multilinear forms underlying E_erk, E_wan and all their derivatives.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import polynomial as npoly

from . import assembly, quadrature as quad
from .assembly import Operators, SparseOperator

S_RANGE = (-0.5, 1.0)


# ---------------------------------------------------------------------------
# double well and model weights
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DoubleWell:
    """Convex-split double well f = f_c - f_e.

    ``fc_coeffs`` and ``fe_coeffs`` are ascending polynomial coefficients.
    Both parts must be convex on the admissible range of the orientation
    parameter; this is validated on a fine grid at construction.  The
    implicit part f_c is at most quadratic, so that the orientation stage
    is one linear solve; any f splits so, as f_c = c s^2 and
    f_e = c s^2 - f with 2c >= max f'' on the range.
    """

    fc_coeffs: tuple
    fe_coeffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "fc_coeffs", tuple(float(c) for c in self.fc_coeffs))
        object.__setattr__(self, "fe_coeffs", tuple(float(c) for c in self.fe_coeffs))
        if any(c != 0.0 for c in self.fc_coeffs[3:]):
            raise ValueError(
                f"f_c must be at most quadratic, got coefficients {self.fc_coeffs}; "
                "split f again as f_c = c s^2 and f_e = c s^2 - f "
                "with 2c >= max f'' on [-0.49, 0.99]"
            )
        grid = np.arange(-0.49, 0.99 + 1e-9, 1e-3)
        for name, coeffs in (("f_c", self.fc_coeffs), ("f_e", self.fe_coeffs)):
            dd = npoly.polyval(grid, npoly.polyder(np.array(coeffs), 2))
            if np.any(dd < 0.0):
                raise ValueError(f"{name} is not convex on [-0.49, 0.99]")

    def f(self, s):
        return self.fc(s) - self.fe(s)

    def fc(self, s):
        return npoly.polyval(s, np.array(self.fc_coeffs))

    def fe(self, s):
        return npoly.polyval(s, np.array(self.fe_coeffs))

    def df(self, s):
        return self.dfc(s) - self.dfe(s)

    def dfc(self, s):
        return npoly.polyval(s, npoly.polyder(np.array(self.fc_coeffs)))

    def dfe(self, s):
        return npoly.polyval(s, npoly.polyder(np.array(self.fe_coeffs)))


def default_double_well() -> DoubleWell:
    """f(s) = 16 s^4 - (64/3) s^3 + 6 s^2, split as
    f_c = 63 s^2 and f_e = -16 s^4 + (64/3) s^3 + 57 s^2."""
    return DoubleWell(
        fc_coeffs=(0.0, 0.0, 63.0),
        fe_coeffs=(0.0, 0.0, 57.0, 64.0 / 3.0, -16.0),
    )


@dataclass(frozen=True)
class ModelWeights:
    """Energy weights and model constants."""

    w_erk: float = 1.0
    w_dw: float = 1.0
    w_chdw: float = 1.0
    w_chgd: float = 1.0
    w_wan: float = 1.0
    w_was: float = 1.0
    kappa: float = 1.0
    rho: float = 1.0
    eps: float = 0.1
    s_star: float = 0.750025
    dw: DoubleWell = field(default_factory=default_double_well)

    def __post_init__(self):
        for name in ("w_erk", "w_dw", "w_chdw", "w_chgd", "w_wan", "w_was"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be nonnegative")
        for name in ("kappa", "rho", "eps"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")
        if not (S_RANGE[0] < self.s_star < S_RANGE[1]):
            raise ValueError(f"s_star must lie in ({S_RANGE[0]}, {S_RANGE[1]})")


@dataclass(frozen=True)
class EnergyReport:
    """Unweighted energy components and the weighted total."""

    e_erk: float
    e_dw: float
    e_chdw: float
    e_chgd: float
    e_wan: float
    e_was: float
    total: float


# ---------------------------------------------------------------------------
# multilinear forms
# ---------------------------------------------------------------------------

def eform(ops: Operators, s, z, n, w) -> float:
    """Elastic coupling form: over all node pairs,

        sum_ij k_ij * (s_i z_i + s_j z_j)/2 * (n_i - n_j) . (w_i - w_j).

    Linear in each of the four arguments; only pairs sharing an element
    contribute (k_ij vanishes otherwise).
    """
    nn = ops.mesh.n_nodes
    if len(s) != nn or len(z) != nn or len(n) != nn or len(w) != nn:
        raise ValueError(f"eform fields must have {nn} nodal values")
    ei, ej, k = ops.edge_i, ops.edge_j, ops.edge_k
    sz = np.asarray(s) * np.asarray(z)
    dn = n[ei] - n[ej]
    dw_ = w[ei] - w[ej]
    pair = dn[:, 0] * dw_[:, 0] + dn[:, 1] * dw_[:, 1] if dn.ndim == 2 else dn * dw_
    # ordered double sum = 2x the edge sum, cancelling the 1/2 average
    return float(np.sum(k * (sz[ei] + sz[ej]) * pair))


def _coupling_tensors(ops: Operators, gphi, gpsi) -> np.ndarray:
    """Nodal 2x2 tensors G_i = sum over elements T containing i of
    |T|/3 * [(gphi_T . gpsi_T) I - gphi_T gpsi_T^T], flattened to (n, 4)."""
    px, py = gphi[:, 0], gphi[:, 1]
    qx, qy = gpsi[:, 0], gpsi[:, 1]
    gg = px * qx + py * qy
    per_elem = np.column_stack([gg - px * qx, -px * qy, -py * qx, gg - py * qy])
    per_elem *= (ops.geom.areas / 3.0)[:, None]
    return np.column_stack([assembly.vertex_sum(ops.mesh, np.repeat(c[:, None], 3, axis=1))
                            for c in per_elem.T])


def cform_scalar_diag(ops: Operators, v, gphi, w, gpsi) -> np.ndarray:
    """Nodal coefficients gamma of the lumped coupling form:

        cform(v, gphi, w, gpsi, s, z) = sum_i s_i z_i gamma_i,

    gamma_i = sum over elements T containing i of
        |T|/3 * [ (gphi_T . gpsi_T)(v_i . w_i) - (v_i . gphi_T)(w_i . gpsi_T) ]
            = v_i . G_i w_i  (see ``anchoring_nodal_tensors``).
    """
    G = _coupling_tensors(ops, gphi, gpsi)
    return (v[:, 0] * (G[:, 0] * w[:, 0] + G[:, 1] * w[:, 1])
            + v[:, 1] * (G[:, 2] * w[:, 0] + G[:, 3] * w[:, 1]))


def cform(ops: Operators, v, gphi, w, gpsi, s, z) -> float:
    """Lumped director/interface coupling form (vertex quadrature rule).

    ``gphi`` and ``gpsi`` are per-element constant gradients, shape (ne, d).
    """
    shape = (ops.mesh.n_elements, ops.mesh.dim)
    if gphi.shape != shape or gpsi.shape != shape:
        raise ValueError(
            f"expected per-element gradients of shape {shape}, "
            f"got {gphi.shape} and {gpsi.shape}"
        )
    gamma = cform_scalar_diag(ops, v, gphi, w, gpsi)
    return float(np.sum(np.asarray(s) * np.asarray(z) * gamma))


def vertex_form(ops: Operators, v, H, w) -> float:
    """Generic lumped bilinear form sum_T |T|/3 sum_vertices v . H w with a
    per-element, per-vertex matrix field H of shape (ne, 3, d, d)."""
    e = ops.mesh.elements
    vals = np.einsum("ead,eadc,eac->ea", v[e], H, w[e])
    return float(np.sum((ops.geom.areas / 3.0) * vals.sum(axis=1)))


def anchoring_nodal_tensors(ops: Operators, s, z, gphi, gpsi) -> np.ndarray:
    """Per-node d x d blocks G_i of the coupling form in its vector slots:

        cform(v, gphi, w, gpsi, s, z) = sum_i v_i . G_i w_i.
    """
    G = _coupling_tensors(ops, gphi, gpsi).reshape(-1, 2, 2)
    return G * (np.asarray(s) * np.asarray(z))[:, None, None]


def anchoring_phi_matrix(ops: Operators, s, n) -> SparseOperator:
    """Matrix of the coupling form in its gradient slots: entry (i, j) =
    cform(n, grad eta_j, n, grad eta_i, s, s).  Symmetric PSD."""
    e = ops.mesh.elements
    s = np.asarray(s)
    s2E = (s * s)[e]
    nx, ny = n[e, 0], n[e, 1]
    xx = np.sum(s2E * nx * nx, axis=1)
    xy = np.sum(s2E * nx * ny, axis=1)
    yy = np.sum(s2E * ny * ny, axis=1)
    # (|n|^2 I - n n^T) summed over the vertices with weights s^2
    Ht = np.stack([yy, -xy, -xy, xx], axis=1).reshape(-1, 2, 2) / 3.0
    return assembly.tensor_stiffness(ops.mesh, ops.geom, Ht)


def was_phi_matrix(ops: Operators, s, s_star: float) -> SparseOperator:
    """Matrix of the axial anchoring term in phi: entry (i, j) =
    integral of (s_h - s_star)^2 grad eta_i . grad eta_j."""
    e = ops.mesh.elements
    q = (np.asarray(s) - s_star)[e]
    per_elem = np.sum((q @ assembly._MASS_REF) * q, axis=1)
    return assembly.weighted_stiffness(ops.mesh, ops.geom, per_elem)


def grad_weighted_mass(ops: Operators, gphi) -> SparseOperator:
    """Mass matrix weighted by |grad phi|^2 (per-element constant)."""
    return assembly.weighted_mass(ops.mesh, ops.geom, np.sum(gphi * gphi, axis=1))


# ---------------------------------------------------------------------------
# energies
# ---------------------------------------------------------------------------

def energy_ericksen(ops: Operators, s, n, kappa: float) -> float:
    return kappa * ops.grad_form(s, s) + 0.5 * eform(ops, s, s, n, n)


def energy_dw(ops: Operators, s, dw: DoubleWell) -> float:
    smin, smax = float(np.min(s)), float(np.max(s))
    if smin <= S_RANGE[0] or smax >= S_RANGE[1]:
        warnings.warn(
            f"orientation field leaves ({S_RANGE[0]}, {S_RANGE[1]}): "
            f"range [{smin:.4g}, {smax:.4g}]",
            RuntimeWarning,
            stacklevel=2,
        )
    return assembly.integrate_p1_function(ops.mesh, ops.geom, dw.f, np.asarray(s))


def energy_ch_dw(ops: Operators, phi, eps: float) -> float:
    val = assembly.integrate_p1_function(
        ops.mesh, ops.geom, lambda p: (p * p - 1.0) ** 2, np.asarray(phi)
    )
    return val / (4.0 * eps)


def energy_ch_grad(ops: Operators, phi, eps: float) -> float:
    return 0.5 * eps * ops.grad_form(phi, phi)


def energy_wan(ops: Operators, s, n, gphi, eps: float) -> float:
    return 0.5 * eps * cform(ops, n, gphi, n, gphi, s, s)


def energy_was(ops: Operators, s, gphi, eps: float, s_star: float) -> float:
    e = ops.mesh.elements
    q = (np.asarray(s) - s_star)[e]
    per_elem = np.einsum("ea,ab,eb->e", q, assembly._MASS_REF, q) * ops.geom.areas
    gg = np.sum(gphi * gphi, axis=1)
    return 0.5 * eps * float(gg @ per_elem)


def total_energy(ops: Operators, weights: ModelWeights, s, n, phi) -> EnergyReport:
    """Evaluate all six components for nodal arrays (s, n, phi)."""
    gphi = assembly.element_gradients(ops.mesh, np.asarray(phi), ops.geom)
    e_erk = energy_ericksen(ops, s, n, weights.kappa)
    e_dw = energy_dw(ops, s, weights.dw)
    e_chdw = energy_ch_dw(ops, phi, weights.eps)
    e_chgd = energy_ch_grad(ops, phi, weights.eps)
    e_wan = energy_wan(ops, s, n, gphi, weights.eps)
    e_was = energy_was(ops, s, gphi, weights.eps, weights.s_star)
    total = (
        weights.w_erk * e_erk
        + weights.w_dw * e_dw
        + weights.w_chdw * e_chdw
        + weights.w_chgd * e_chgd
        + weights.w_wan * e_wan
        + weights.w_was * e_was
    )
    return EnergyReport(e_erk, e_dw, e_chdw, e_chgd, e_wan, e_was, total)


# ---------------------------------------------------------------------------
# variational derivatives (assembled vectors; pairing with a test field
# gives the directional derivative)
# ---------------------------------------------------------------------------

def eform_derivative_n(ops: Operators, s, n) -> np.ndarray:
    """Vector D with sum_i D_i . w_i = eform(s, s, n, w)."""
    ei, ej, k = ops.edge_i, ops.edge_j, ops.edge_k
    nn = ops.mesh.n_nodes
    s2 = np.asarray(s) ** 2
    wgt = 2.0 * k * 0.5 * (s2[ei] + s2[ej])
    both = np.concatenate([ei, ej])
    return np.column_stack([
        np.bincount(both, np.concatenate([w, -w]), minlength=nn)
        for w in (wgt[:, None] * (n[ei] - n[ej])).T
    ])


def eform_scalar_diag(ops: Operators, n) -> np.ndarray:
    """Nodal coefficients D with eform(s, z, n, n) = sum_i s_i z_i D_i."""
    ei, ej, k = ops.edge_i, ops.edge_j, ops.edge_k
    diff2 = np.sum((n[ei] - n[ej]) ** 2, axis=1)
    kd = k * diff2
    return np.bincount(np.concatenate([ei, ej]), np.concatenate([kd, kd]),
                       minlength=ops.mesh.n_nodes)


def derivative_erk_s(ops, s, n, kappa: float) -> np.ndarray:
    return 2.0 * kappa * (ops.stiffness @ np.asarray(s)) + np.asarray(
        s
    ) * eform_scalar_diag(ops, n)


def derivative_dw_s(ops, s, dw: DoubleWell) -> np.ndarray:
    sq = quad.at_quad_points(np.asarray(s)[ops.mesh.elements])
    return assembly.nodal_load(ops.mesh, ops.geom, dw.df(sq))


def cubic_load(ops: Operators, phi) -> np.ndarray:
    """Vector with entries integral of (phi_h)^3 eta_i (degree-4 rule)."""
    pq = quad.at_quad_points(np.asarray(phi)[ops.mesh.elements])
    return assembly.nodal_load(ops.mesh, ops.geom, pq * pq * pq)


def derivative_ch_phi(ops, phi, eps: float) -> np.ndarray:
    phi = np.asarray(phi)
    return (cubic_load(ops, phi) - ops.mass @ phi) / eps + eps * (
        ops.stiffness @ phi
    )


def derivative_wan_n(ops, s, n, gphi, eps: float) -> np.ndarray:
    G = anchoring_nodal_tensors(ops, s, s, gphi, gphi)
    return eps * np.einsum("idc,ic->id", G, n)


def derivative_wan_s(ops, s, n, gphi, eps: float) -> np.ndarray:
    return eps * np.asarray(s) * cform_scalar_diag(ops, n, gphi, n, gphi)


def derivative_wan_phi(ops, s, n, phi, eps: float) -> np.ndarray:
    return eps * (anchoring_phi_matrix(ops, s, n) @ np.asarray(phi))


def derivative_was_s(ops, s, gphi, eps: float, s_star: float) -> np.ndarray:
    W = grad_weighted_mass(ops, gphi)
    return eps * (W @ (np.asarray(s) - s_star))


def derivative_was_phi(ops, s, phi, eps: float, s_star: float) -> np.ndarray:
    return eps * (was_phi_matrix(ops, s, s_star) @ np.asarray(phi))


# ---------------------------------------------------------------------------
# time-step systems
# ---------------------------------------------------------------------------

def residual_director(
    ops: Operators,
    weights: ModelWeights,
    tau: float,
    s_prev,
    n_prev,
    gphi_prev,
    tangent: np.ndarray,
    free: np.ndarray,
    lumped: bool = False,
):
    """Tangent-coefficient system for the director update.

    The unknown is the nodal tangential velocity v = c_i t_i at free
    nodes, with the trial director n~ = n_prev + tau * v.  Returns
    (A, b) with A symmetric positive definite on the free tangent dofs.
    """
    p = ops.mesh.pattern
    s2 = np.asarray(s_prev) ** 2
    ei, ej = ops.edge_i, ops.edge_j
    # weighted graph Laplacian sum_edges w (e_i - e_j)(e_i - e_j)^T, w = k c
    w = ops.edge_k * 0.5 * (s2[ei] + s2[ej])
    L = np.zeros(p.nnz)
    L[p.upper] = L[p.lower] = -w
    L[p.diag] = np.bincount(np.concatenate([ei, ej]), np.concatenate([w, w]),
                            minlength=p.n)
    tx, ty = tangent[:, 0], tangent[:, 1]
    tdot = tx[p.rows] * tx[p.indices] + ty[p.rows] * ty[p.indices]
    A = (weights.rho * ops.mass_dt(lumped).data + (2.0 * tau * weights.w_erk) * L) * tdot

    G = anchoring_nodal_tensors(ops, s_prev, s_prev, gphi_prev, gphi_prev)
    Gt = np.einsum("idc,ic->id", G, tangent)
    A[p.diag] += tau * weights.w_wan * weights.eps * np.sum(tangent * Gt, axis=1)

    Dn = weights.w_erk * eform_derivative_n(ops, s_prev, n_prev)
    Dn += weights.w_wan * weights.eps * np.einsum("idc,ic->id", G, n_prev)
    b = -np.sum(Dn * tangent, axis=1)
    return p.free_block(free).csr(A), b[free]


def residual_s(
    ops: Operators,
    weights: ModelWeights,
    tau: float,
    s_prev,
    n_new,
    gphi_prev,
    lumped: bool = False,
):
    """Linear system for the orientation update (quadratic convex part).

    The averaged coupling coefficient (s_new + s_prev)/2 in the lumped
    anchoring term puts half the nodal weight in the matrix and half on
    the right-hand side.  Returns (A, b) with A symmetric positive
    definite.
    """
    s_prev = np.asarray(s_prev)
    p = ops.mesh.pattern
    M_dt = ops.mass_dt(lumped)
    gamma = cform_scalar_diag(ops, n_new, gphi_prev, n_new, gphi_prev)
    W_phi = grad_weighted_mass(ops, gphi_prev)
    fc = weights.dw.fc_coeffs + (0.0, 0.0, 0.0)
    c1, c2 = fc[1], fc[2]

    data = (
        M_dt.data / tau
        + (2.0 * weights.w_erk * weights.kappa) * ops.stiffness.data
        + (weights.w_was * weights.eps) * W_phi.data
    )
    data[p.diag] += (weights.w_erk * eform_scalar_diag(ops, n_new)
                     + 0.5 * weights.w_wan * weights.eps * gamma)
    data += (2.0 * c2 * weights.w_dw) * ops.mass.data
    A = p.csr(data)

    b = (
        M_dt @ s_prev / tau
        - weights.w_dw * c1 * ops.mass_rows
        + weights.w_dw * explicit_dw_load(ops, weights.dw, s_prev)
        + weights.w_was * weights.eps * weights.s_star * (W_phi @ np.ones_like(s_prev))
        - 0.5 * weights.w_wan * weights.eps * gamma * s_prev
    )
    return A, b


def explicit_dw_load(ops: Operators, dw: DoubleWell, s_prev) -> np.ndarray:
    """Vector with entries integral of f_e'(s_h) eta_i (explicit part)."""
    sq = quad.at_quad_points(np.asarray(s_prev)[ops.mesh.elements])
    return assembly.nodal_load(ops.mesh, ops.geom, dw.dfe(sq))


def implicit_dw_load(ops: Operators, dw: DoubleWell, s_new) -> np.ndarray:
    """Vector with entries integral of f_c'(s_h) eta_i (implicit part)."""
    sq = quad.at_quad_points(np.asarray(s_new)[ops.mesh.elements])
    return assembly.nodal_load(ops.mesh, ops.geom, dw.dfc(sq))


def ch_step_matrix(ops: Operators, weights: ModelWeights, s_new, n_new) -> SparseOperator:
    """phi-coefficient matrix of the chemical-potential equation that stays
    fixed across Newton iterations (gradient + anchoring blocks)."""
    eps = weights.eps
    return ops.mesh.pattern.csr(
        (weights.w_chgd * eps) * ops.stiffness.data
        + (weights.w_wan * eps) * anchoring_phi_matrix(ops, s_new, n_new).data
        + (weights.w_was * eps) * was_phi_matrix(ops, s_new, weights.s_star).data
    )


def residual_ch(
    ops: Operators,
    weights: ModelWeights,
    tau: float,
    phi,
    mu,
    phi_prev,
    A0: SparseOperator,
    lumped: bool = False,
):
    """Residual of the coupled interface/chemical-potential system.

    Equation blocks (for all test functions):
      R_phi = <(phi - phi_prev)/tau, nu> + eps (grad mu, grad nu)
      R_mu  = W_chdw/eps <phi^3 - phi_prev, psi> - <mu, psi> + (A0 phi, psi)
    """
    phi, mu, phi_prev = np.asarray(phi), np.asarray(mu), np.asarray(phi_prev)
    M_dt = ops.mass_dt(lumped)
    r_phi = M_dt @ (phi - phi_prev) / tau + weights.eps * (ops.stiffness @ mu)
    r_mu = (
        (weights.w_chdw / weights.eps) * (cubic_load(ops, phi) - ops.mass @ phi_prev)
        + A0 @ phi
        - M_dt @ mu
    )
    return np.concatenate([r_phi, r_mu])


def jacobian_ch_fixed(ops: Operators, weights: ModelWeights, tau: float,
                      lumped: bool = False) -> np.ndarray:
    """Data of the interface Jacobian with its three blocks that do not
    depend on phi written (M_dt/tau, eps K, -M_dt) and zeros in the
    fourth; computed once per step."""
    blocks = ops.mesh.pattern.blocks
    M_dt = ops.mass_dt(lumped).data
    data = np.zeros(blocks.nnz)
    data[blocks.slots[0, 0]] = M_dt / tau
    data[blocks.slots[0, 1]] = weights.eps * ops.stiffness.data
    data[blocks.slots[1, 1]] = -M_dt
    return data


def jacobian_ch(
    ops: Operators,
    weights: ModelWeights,
    tau: float,
    phi,
    A0: SparseOperator,
    lumped: bool = False,
    fixed: np.ndarray | None = None,
) -> SparseOperator:
    """Jacobian [[M_dt/tau, eps K], [3 W_chdw/eps M(phi^2) + A0, -M_dt]]
    of the interface system, as a CSR matrix on the mesh's block pattern.
    ``fixed`` is ``jacobian_ch_fixed``'s data, computed here when absent."""
    blocks = ops.mesh.pattern.blocks
    data = jacobian_ch_fixed(ops, weights, tau, lumped) if fixed is None else fixed.copy()
    M2 = assembly.squared_field_mass(ops.mesh, ops.geom, np.asarray(phi))
    data[blocks.slots[1, 0]] = (3.0 * weights.w_chdw / weights.eps) * M2.data + A0.data
    return blocks.csr(data)
