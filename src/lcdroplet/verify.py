"""Independent oracles and property checks for the discrete model.

Every check returns a :class:`CheckOutcome`; the full suite is exposed to
the command line and writes a JSON-lines report.  The oracles are kept
deliberately naive (dense double loops, central finite differences, dense
Gauss quadrature of smooth reference fields, element areas, hat-function
gradients and the stiffness from the node coordinates) so they share no
code path with the optimized implementations they certify.

The derivative oracle certifies the time-step systems themselves: the
central difference of the discrete energy (``energy.total_energy``) is
compared with the residual of a zero step of the director, ``s`` and
interface stage systems that the solver assembles, where the
time-derivative terms cancel and only the variational derivative is left.
"""
from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass

import numpy as np

from . import assembly, config as cfgmod, energy as en, quadrature as quad, solver as sv
from .assembly import Operators, build_operators
from .energy import ModelWeights
from .mesh import TriMesh, audit_weak_acuteness, build_structured_mesh


@dataclass(frozen=True)
class CheckOutcome:
    """Result of one verification check.

    ``measured`` is the worst observed quantity compared against
    ``tolerance`` (interpretation depends on the check); ``witness``
    optionally serializes a counterexample.
    """

    name: str
    passed: bool
    measured: float
    tolerance: float
    witness: dict | None = None
    seed: int | None = None

    def to_json(self) -> str:
        data = {
            "name": self.name,
            "passed": bool(self.passed),
            "measured": float(self.measured),
            "tolerance": float(self.tolerance),
            "seed": self.seed,
        }
        if self.witness is not None:
            data["witness"] = self.witness
        return json.dumps(data)


def write_report(outcomes, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for oc in outcomes:
            fh.write(oc.to_json() + "\n")


# ---------------------------------------------------------------------------
# naive form oracles
# ---------------------------------------------------------------------------

def naive_eform(stiffness_dense: np.ndarray, s, z, n, w) -> np.ndarray:
    """Double loop over all ordered node pairs, for fields with a leading
    trial axis (s, z of shape (trials, nn), n, w of shape (trials, nn, d));
    each trial's value is the scalar loop's, operation for operation."""
    total = np.zeros(len(s))
    nn = s.shape[1]
    for i in range(nn):
        for j in range(nn):
            if i == j:
                continue
            kij = -stiffness_dense[i, j]
            avg = 0.5 * (s[:, i] * z[:, i] + s[:, j] * z[:, j])
            dot = 0.0
            for d in range(n.shape[2]):
                dot += (n[:, i, d] - n[:, j, d]) * (w[:, i, d] - w[:, j, d])
            total += kij * avg * dot
    return total


def element_geometry(mesh: TriMesh):
    """Signed element areas, positive for the counterclockwise vertex order
    the mesh requires, and hat-function gradients, shape (ne, 3, 2), from
    the node coordinates: the determinant and the rows of the inverse of
    each element's Jacobian; independent of the geometry the mesh stores."""
    p = mesh.nodes[mesh.elements]
    J = np.stack([p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]], axis=2)
    inv = np.linalg.inv(J)
    return 0.5 * np.linalg.det(J), np.stack([-inv[:, 0] - inv[:, 1], inv[:, 0], inv[:, 1]], axis=1)


def naive_stiffness(mesh: TriMesh) -> np.ndarray:
    """Dense stiffness matrix, summed element by element from
    ``element_geometry``."""
    K = np.zeros((mesh.n_nodes, mesh.n_nodes))
    for e, area, g in zip(mesh.elements, *element_geometry(mesh)):
        K[np.ix_(e, e)] += area * (g @ g.T)
    return K


def naive_cform(mesh: TriMesh, v, phi, w, psi, s, z) -> np.ndarray:
    """Per-element, per-vertex loop mirroring the vertex quadrature rule,
    with the gradients of the nodal fields ``phi`` and ``psi`` from
    ``element_geometry``; fields with a leading trial axis, as for
    ``naive_eform``."""
    areas, grads = element_geometry(mesh)
    total = np.zeros(len(s))
    d = 2
    for t in range(mesh.n_elements):
        e, g = mesh.elements[t], grads[t]
        gp = [phi[:, e[0]] * g[0, k] + phi[:, e[1]] * g[1, k] + phi[:, e[2]] * g[2, k]
              for k in range(d)]
        gq = [psi[:, e[0]] * g[0, k] + psi[:, e[1]] * g[1, k] + psi[:, e[2]] * g[2, k]
              for k in range(d)]
        gg = sum(gp[k] * gq[k] for k in range(d))
        for a in range(d + 1):
            i = int(e[a])
            vw = sum(v[:, i, k] * w[:, i, k] for k in range(d))
            vgp = sum(v[:, i, k] * gp[k] for k in range(d))
            wgq = sum(w[:, i, k] * gq[k] for k in range(d))
            total += (areas[t] / (d + 1)) * s[:, i] * z[:, i] * (gg * vw - vgp * wgq)
    return total


def brute_force_form_check(ops: Operators, rng, trials: int = 1000,
                           eform_fn=None, cform_fn=None):
    """Compare the optimized forms against the naive loops on random fields;
    the naive side takes no geometry from the mesh but its node coordinates.

    The trials are drawn one after the other, as a loop drawing and checking
    one trial at a time would draw them, and the naive side evaluates them
    all at once."""
    eform_fn = eform_fn or en.eform
    cform_fn = cform_fn or en.cform
    mesh = ops.mesh
    nn = mesh.n_nodes
    S, Z, PHI, PSI = (np.empty((trials, nn)) for _ in range(4))
    N, W = np.empty((trials, nn, 2)), np.empty((trials, nn, 2))
    for t in range(trials):
        S[t], Z[t] = rng.uniform(-0.4, 0.9, nn), rng.uniform(-1.0, 1.0, nn)
        N[t], W[t] = rng.standard_normal((nn, 2)), rng.standard_normal((nn, 2))
        PHI[t], PSI[t] = rng.uniform(-1.0, 1.0, nn), rng.uniform(-1.0, 1.0, nn)
    e_refs = naive_eform(naive_stiffness(mesh), S, Z, N, W)
    c_refs = naive_cform(mesh, N, PHI, W, PSI, S, Z)
    worst_e = worst_c = 0.0
    witness = None
    for t, (s, z, n, w, phi, psi) in enumerate(zip(S, Z, N, W, PHI, PSI)):
        e_ref, c_ref = e_refs[t], c_refs[t]
        gphi = assembly.element_gradients(mesh, phi)
        gpsi = assembly.element_gradients(mesh, psi)
        e_fast = eform_fn(ops, s, z, n, w)
        c_fast = cform_fn(ops, n, gphi, w, gpsi, s, z)

        de = abs(e_fast - e_ref) / max(1.0, abs(e_ref))
        dc = abs(c_fast - c_ref) / max(1.0, abs(c_ref))
        if max(de, dc) > max(worst_e, worst_c):
            witness = {"trial": t, "eform_rel": de, "cform_rel": dc}
        worst_e = max(worst_e, de)
        worst_c = max(worst_c, dc)
    measured = max(worst_e, worst_c)
    return CheckOutcome(
        "brute_force_forms", measured <= 1e-12, measured, 1e-12, witness
    )


# ---------------------------------------------------------------------------
# finite-difference derivative oracle
# ---------------------------------------------------------------------------

# the field each derivative varies and the energy weights it switches on
_DERIVATIVES = {
    "erk_n": ("n", ("w_erk",)),
    "erk_s": ("s", ("w_erk",)),
    "dw_s": ("s", ("w_dw",)),
    "ch_phi": ("phi", ("w_chdw", "w_chgd")),
    "wan_n": ("n", ("w_wan",)),
    "wan_s": ("s", ("w_wan",)),
    "wan_phi": ("phi", ("w_wan",)),
    "was_s": ("s", ("w_was",)),
    "was_phi": ("phi", ("w_was",)),
}
DERIVATIVE_IDS = tuple(_DERIVATIVES)


def fd_derivative_check(ops: Operators, weights: ModelWeights, energy_id: str,
                        base: dict, direction: dict, h: float = 1e-5,
                        tol: float = 1e-6) -> CheckOutcome:
    """Central finite difference of the energy against the stage system.

    ``energy_id`` names a field (``n``, ``s`` or ``phi``) and the energy
    terms it switches on, at their values in ``weights``; the other
    weights are zero.  The central difference of ``total_energy`` at the
    base state along ``direction[field]`` is compared with the residual of
    the solver's own stage system for that field, for a zero step from the
    base state with tau = 1, where the time-derivative terms cancel and
    what is left is the discrete variational derivative: -b . c of
    ``residual_director`` (c the direction's tangential coefficients),
    A s - b of ``residual_s``, and the mu block of ``residual_ch`` with
    ``ch_step_matrix``.
    """
    if energy_id not in _DERIVATIVES:
        raise ValueError(f"unknown energy id {energy_id!r}")
    field, switched_on = _DERIVATIVES[energy_id]
    w = dataclasses.replace(weights, **{
        f.name: getattr(weights, f.name) if f.name in switched_on else 0.0
        for f in dataclasses.fields(weights) if f.name.startswith("w_")
    })
    s, n, phi = base["s"], base["n"], base["phi"]
    delta = direction[field]

    def energy(step):
        moved = {**base, field: base[field] + step * delta}
        return en.total_energy(ops, w, moved["s"], moved["n"], moved["phi"]).total

    fd = (energy(h) - energy(-h)) / (2 * h)

    gphi = assembly.element_gradients(ops.mesh, phi)
    coupling = en.coupling_tensors(ops, gphi, gphi)
    if field == "n":
        tangent = sv.tangent_space(n)
        _, b = en.residual_director(ops, w, 1.0, s, n, coupling, tangent)
        exact = -float(b @ np.sum(delta * tangent, axis=1))
    elif field == "s":
        A, b = en.residual_s(ops, w, 1.0, s, n, gphi, coupling,
                             en.eform_scalar_diag(ops, n),
                             en.explicit_dw_load(ops, s))
        exact = float((A @ s - b) @ delta)
    else:
        r = en.residual_ch(ops, w, 1.0, phi, np.zeros_like(phi), phi, ops.mass @ phi,
                           en.ch_step_matrix(ops, w, s, n, en.was_weights(ops, s, w.s_star)))
        exact = float(r[ops.mesh.n_nodes:] @ delta)

    rel = abs(fd - exact) / max(abs(exact), abs(fd), 1e-14)
    return CheckOutcome(
        f"fd_derivative_{energy_id}", rel <= tol, rel, tol,
        None if rel <= tol else {"fd": fd, "assembled": exact},
    )


def random_admissible_fields(mesh: TriMesh, rng) -> dict:
    theta = rng.uniform(0.0, 2 * np.pi, mesh.n_nodes)
    return {
        "s": rng.uniform(0.1, 0.8, mesh.n_nodes),
        "n": np.column_stack([np.cos(theta), np.sin(theta)]),
        "phi": rng.uniform(-0.9, 0.9, mesh.n_nodes),
    }


def random_directions(mesh: TriMesh, base: dict, rng) -> dict:
    tang = sv.tangent_space(base["n"])
    return {
        "s": rng.standard_normal(mesh.n_nodes),
        "n": rng.standard_normal(mesh.n_nodes)[:, None] * tang,
        "phi": rng.standard_normal(mesh.n_nodes),
    }


# ---------------------------------------------------------------------------
# randomized structure lemmas
# ---------------------------------------------------------------------------

def projection_monotonicity_check(ops: Operators, rng, trials: int = 1000,
                                  tol: float = 1e-12):
    """Normalizing nodal vectors with |n_i| >= 1 cannot increase the
    elastic or the coupling form."""
    mesh = ops.mesh
    worst = np.inf
    violations = 0
    witness = None
    for t in range(trials):
        s = rng.uniform(-0.4, 0.9, mesh.n_nodes)
        r = rng.uniform(1.0, 2.0, mesh.n_nodes)
        theta = rng.uniform(0.0, 2 * np.pi, mesh.n_nodes)
        n = r[:, None] * np.column_stack([np.cos(theta), np.sin(theta)])
        n_hat = sv.normalized(n)
        phi = rng.uniform(-1.0, 1.0, mesh.n_nodes)
        gphi = assembly.element_gradients(mesh, phi)

        margin_e = en.eform(ops, s, s, n, n) - en.eform(ops, s, s, n_hat, n_hat)
        margin_c = en.cform(ops, n, gphi, n, gphi, s, s) - en.cform(
            ops, n_hat, gphi, n_hat, gphi, s, s
        )
        m = min(margin_e, margin_c)
        if m < worst:
            worst, witness = m, {"trial": t, "eform_margin": margin_e,
                                 "cform_margin": margin_c}
        if m < -tol:
            violations += 1
    return CheckOutcome(
        "projection_monotonicity", violations == 0, worst, -tol,
        witness if violations else None,
    )


def vertex_form(ops: Operators, v, H, w) -> float:
    """Generic lumped bilinear form sum_T |T|/3 sum_vertices v . H w with a
    per-element, per-vertex matrix field H of shape (ne, 3, d, d)."""
    e = ops.mesh.elements
    vals = np.einsum("ead,eadc,eac->ea", v[e], H, w[e])
    return float(np.sum((ops.mesh.areas / 3.0) * vals.sum(axis=1)))


def lumped_monotonicity_check(ops: Operators, rng, trials: int = 1000,
                              tol: float = 1e-12):
    """Vertex-rule bilinear form with PSD matrix coefficients decreases
    under nodewise normalization of a field with |n_i| >= 1."""
    mesh = ops.mesh
    worst = np.inf
    violations = 0
    for t in range(trials):
        A = rng.standard_normal((mesh.n_elements, 3, 2, 2))
        H = np.einsum("evij,evkj->evik", A, A)
        r = rng.uniform(1.0, 2.0, mesh.n_nodes)
        theta = rng.uniform(0.0, 2 * np.pi, mesh.n_nodes)
        n = r[:, None] * np.column_stack([np.cos(theta), np.sin(theta)])
        n_hat = sv.normalized(n)
        margin = vertex_form(ops, n, H, n) - vertex_form(ops, n_hat, H, n_hat)
        worst = min(worst, margin)
        if margin < -tol:
            violations += 1
    return CheckOutcome("lumped_mass_monotonicity", violations == 0, worst, -tol)


def convex_split_check(ops: Operators, rng, trials: int = 1000,
                       tol: float = 1e-11):
    """The implicit/explicit double-well pairing dominates the energy
    difference for arbitrary in-range field pairs; the implicit load is
    ``DW_DFC[1] M s_new``, as the ``s`` stage solves and the ledger charges it."""
    mesh = ops.mesh
    worst = -np.inf
    violations = 0
    for t in range(trials):
        s_old = rng.uniform(-0.49, 0.99, mesh.n_nodes)
        s_new = rng.uniform(-0.49, 0.99, mesh.n_nodes)
        ds = s_new - s_old
        pairing = float((en.DW_DFC[1] * (ops.mass @ s_new)
                         - en.explicit_dw_load(ops, s_old)) @ ds)
        gap = (en.energy_dw(ops, s_new) - en.energy_dw(ops, s_old)) - pairing
        worst = max(worst, gap)
        if gap > tol:
            violations += 1
    return CheckOutcome("convex_split_inequality", violations == 0, worst, tol)


def stiffness_identity_check(ops: Operators, rng, trials: int = 50):
    """sum_edges k_ij (s_i - s_j)^2 and the stiffness quadratic form both
    equal the quadratic form of ``naive_stiffness``."""
    K_ref = naive_stiffness(ops.mesh)
    worst = 0.0
    edges = ops.mesh.edges
    for _ in range(trials):
        s = rng.standard_normal(ops.mesh.n_nodes)
        ref = float(s @ K_ref @ s)
        by_edges = float(np.sum(ops.mesh.edge_k * (s[edges.lo] - s[edges.hi]) ** 2))
        by_form = float(s @ (ops.stiffness @ s))
        worst = max(worst, max(abs(by_edges - ref), abs(by_form - ref)) / max(abs(ref), 1e-14))
    return CheckOutcome("stiffness_edge_identity", worst <= 1e-12, worst, 1e-12)


def quadrature_exactness_check() -> CheckOutcome:
    """Degree-4 triangle rule against closed-form monomial integrals."""
    worst = 0.0
    pts = quad.TRI4_BARY[:, 1:]  # (x, y) on the reference triangle
    for p in range(5):
        for q in range(5 - p):
            exact = (
                math.factorial(p) * math.factorial(q) / math.factorial(p + q + 2)
            )
            approx = 0.5 * float(
                quad.TRI4_WEIGHTS @ (pts[:, 0] ** p * pts[:, 1] ** q)
            )
            worst = max(worst, abs(approx - exact) / exact)
    return CheckOutcome("quadrature_degree4_exactness", worst <= 1e-14, worst, 1e-14)


def acuteness_sweep_check(max_n: int = 64) -> CheckOutcome:
    """Every structured mesh up to max_n cells per axis passes the audit."""
    worst = np.inf
    witness = None
    for nx in range(1, max_n + 1):
        for ny in range(1, max_n + 1):
            mesh = build_structured_mesh(nx, ny)
            report = audit_weak_acuteness(mesh)
            if report.min_offdiag_kij < worst:
                worst = report.min_offdiag_kij
                witness = {"nx": nx, "ny": ny}
            if not report.is_weakly_acute:
                return CheckOutcome(
                    "structured_mesh_acuteness", False, report.min_offdiag_kij,
                    -1e-12, {"nx": nx, "ny": ny},
                )
    return CheckOutcome("structured_mesh_acuteness", True, worst, -1e-12, witness)


# ---------------------------------------------------------------------------
# continuous references: smooth triple, dense quadrature
# ---------------------------------------------------------------------------

class SmoothTriple:
    """Closed-form (s, n, phi) with hand-coded gradients, used as the
    refinement target.  All fields are smooth on the unit square and s
    stays inside the admissible range."""

    def s(self, x, y):
        return 0.5 + 0.2 * x + 0.1 * np.sin(np.pi * x) * np.sin(np.pi * y)

    def grad_s(self, x, y):
        gx = 0.2 + 0.1 * np.pi * np.cos(np.pi * x) * np.sin(np.pi * y)
        gy = 0.1 * np.pi * np.sin(np.pi * x) * np.cos(np.pi * y)
        return gx, gy

    def theta(self, x, y):
        return (np.pi / 8.0) * (x + 2.0 * y)

    def n(self, x, y):
        t = self.theta(x, y)
        return np.cos(t), np.sin(t)

    def grad_n_sq(self, x, y):
        # |grad n|^2 = |grad theta|^2 for a unit director field
        return (np.pi / 8.0) ** 2 * 5.0 * np.ones_like(x)

    def phi(self, x, y):
        return np.tanh((x + y - 1.0) / 0.3)

    def grad_phi(self, x, y):
        sech2 = 1.0 - np.tanh((x + y - 1.0) / 0.3) ** 2
        return sech2 / 0.3, sech2 / 0.3


def continuous_total_energy(triple: SmoothTriple, weights: ModelWeights,
                            n_gauss: int = 200) -> float:
    """Dense Gauss-Legendre evaluation of the continuous total energy."""
    pts, w = quad.gauss_legendre_grid(n_gauss)
    x, y = pts[:, 0], pts[:, 1]
    s = triple.s(x, y)
    sx, sy = triple.grad_s(x, y)
    nx, ny = triple.n(x, y)
    px, py = triple.grad_phi(x, y)
    phi = triple.phi(x, y)
    eps, s_star = weights.eps, weights.s_star

    gphi2 = px * px + py * py
    ndotp = nx * px + ny * py
    e_erk = float(w @ (weights.kappa * (sx * sx + sy * sy) + s * s * triple.grad_n_sq(x, y)))
    e_dw = float(w @ en.double_well(s))
    e_chdw = float(w @ ((phi * phi - 1.0) ** 2)) / (4.0 * eps)
    e_chgd = 0.5 * eps * float(w @ gphi2)
    e_wan = 0.5 * eps * float(w @ (s * s * (gphi2 - ndotp**2)))
    e_was = 0.5 * eps * float(w @ (gphi2 * (s - s_star) ** 2))
    return (weights.w_erk * e_erk + weights.w_dw * e_dw + weights.w_chdw * e_chdw
            + weights.w_chgd * e_chgd + weights.w_wan * e_wan + weights.w_was * e_was)


def anisotropic_identity_check(ops: Operators,
                               weights: ModelWeights | None = None) -> CheckOutcome:
    """The stiffness that the interface stage assembles with the tension
    tensor eps (w_chgd + w_was a) I + w_wan eps s^2 (I - n x n), the last
    averaged over each element's vertices (``energy.ch_step_matrix``),
    gives the weighted gradient and anchoring energies of
    ``total_energy``: 1/2 phi^T A0 phi = w_chgd E_chgd + w_wan E_wan +
    w_was E_was, for the smooth triple interpolated on the mesh of
    ``ops``."""
    weights = weights or ModelWeights()
    triple = SmoothTriple()
    x, y = ops.mesh.nodes[:, 0], ops.mesh.nodes[:, 1]
    s, n, phi = triple.s(x, y), np.column_stack(triple.n(x, y)), triple.phi(x, y)
    A0 = en.ch_step_matrix(ops, weights, s, n, en.was_weights(ops, s, weights.s_star))
    parts = en.total_energy(ops, weights, s, n, phi)
    tension = (weights.w_chgd * parts.e_chgd + weights.w_wan * parts.e_wan
               + weights.w_was * parts.e_was)
    rel = abs(0.5 * float(phi @ (A0 @ phi)) - tension) / max(abs(tension), 1e-14)
    return CheckOutcome("anisotropic_tension_identity", rel <= 1e-12, rel, 1e-12)


def refinement_energy_consistency(weights: ModelWeights | None = None,
                                  cell_counts=(8, 16, 32, 64)) -> CheckOutcome:
    """Interpolate the smooth triple on a mesh family and compare the
    discrete total energy against the dense continuous reference.

    The witness holds the reference and one row (cells, h, error, order) per mesh.
    """
    weights = weights or ModelWeights()
    triple = SmoothTriple()
    ref = continuous_total_energy(triple, weights)

    rows = []
    for n in cell_counts:
        ops = build_operators(build_structured_mesh(n, n))
        x, y = ops.mesh.nodes[:, 0], ops.mesh.nodes[:, 1]
        s, nvec, phi = triple.s(x, y), np.column_stack(triple.n(x, y)), triple.phi(x, y)
        h = math.sqrt(2.0) / n
        err = abs(en.total_energy(ops, weights, s, nvec, phi).total - ref)
        order = (math.log(rows[-1]["error"] / err) / math.log(rows[-1]["h"] / h)
                 if rows else None)
        rows.append({"cells": n, "h": h, "error": err, "order": order})
    hs, errors = [r["h"] for r in rows], [r["error"] for r in rows]
    slope = float(np.polyfit(np.log(hs), np.log(errors), 1)[0])
    decreasing = all(errors[k + 1] < errors[k] for k in range(len(errors) - 1))
    return CheckOutcome("refinement_energy_consistency", decreasing and slope >= 1.0, slope,
                        1.0, {"reference": ref, "rows": rows})


# ---------------------------------------------------------------------------
# energy-law audit
# ---------------------------------------------------------------------------

def energy_law_audit(e0_total: float, reports, rtol: float = 1e-9) -> CheckOutcome:
    """Audit a trajectory of step reports against the discrete energy law.

    Four conditions, all required:
      * per-step budget closure: |E_before - E_after - sum(D)| small;
      * machine-level closure once the Newton stopping error is charged;
      * cumulative inequality: E_l + sum of all dissipation <= E_0;
      * every dissipation component nonnegative (within roundoff).
    """
    scale0 = max(abs(e0_total), 1.0)
    worst_closure = 0.0
    worst_component = np.inf
    cum_diss = 0.0
    witness = None
    passed = True
    for m, rep in enumerate(reports, start=1):
        scale = max(abs(rep.before.total), abs(rep.after.total), 1.0)
        closure = abs(rep.budget_residual) / scale
        exact_closure = abs(rep.closed_budget_residual) / scale
        comp_min = min(rep.dissipation.values())
        cum_diss += sum(rep.dissipation.values())
        cum_ok = rep.after.total + cum_diss <= e0_total + rtol * scale0
        worst_closure = max(worst_closure, closure)
        worst_component = min(worst_component, comp_min)
        step_ok = (
            closure <= rtol
            and exact_closure <= 1e-12
            and comp_min >= -1e-11
            and cum_ok
        )
        if not step_ok and witness is None:
            witness = {
                "step": m, "closure": closure, "exact_closure": exact_closure,
                "min_component": comp_min, "cumulative_ok": bool(cum_ok),
            }
            passed = False
    return CheckOutcome("energy_law_audit", passed, worst_closure, rtol, witness)


def _corner_problem(nx: int = 16, steps: int = 25, tau: float = 0.002):
    cfg = cfgmod.preset("droplet_corner")
    cfg.mesh["nx"] = cfg.mesh["ny"] = nx
    cfg.scheme["tau"] = tau
    cfg.scheme["t_final"] = steps * tau
    # the audit certifies the scheme's energy identity, so the nonlinear
    # solves are driven well past the experiments' stopping tolerance to
    # keep solver slop out of the ledger
    cfg.scheme["newton_res_tol"] = 1e-11
    return cfgmod.build_problem(cfg)


# the deliberate errors ``flow_trajectory`` can make, to show that the audit catches them
MUTATIONS = ("convex-split-sign",)


def _check_mutation(mutate: str | None) -> None:
    """Raise a ValueError naming ``MUTATIONS`` unless ``mutate`` is one of them or None."""
    if mutate is not None and mutate not in MUTATIONS:
        raise ValueError(f"unknown mutation {mutate!r}; choose from {', '.join(MUTATIONS)}")


def flow_trajectory(problem, mutate: str | None = None):
    """Run a short flow, returning (e0_total, reports, final_state).

    The flow is :func:`solver.run` on ``problem``, so the audited
    trajectory is the one a simulation follows.  ``mutate="convex-split-sign"`` recomputes the convex-splitting slack
    with the explicit part evaluated at the new field (a deliberately
    wrong formula) so that the audit's sensitivity can be demonstrated.
    """
    _check_mutation(mutate)
    ops, weights = problem.ops, problem.weights

    class Ledger:
        def on_start(self, state, energy):
            self.e0, self.reports, self.s_prev = energy.total, [], state.s.values

        def on_step(self, state, rep):
            s_new, s_prev = state.s.values, self.s_prev
            if mutate == "convex-split-sign":
                wrong_pairing = float((en.DW_DFC[1] * (ops.mass @ s_new)
                                       - en.explicit_dw_load(ops, s_new)) @ (s_new - s_prev))
                gap = en.energy_dw(ops, s_new) - en.energy_dw(ops, s_prev)
                diss = dict(rep.dissipation)
                diss["convex_split_slack"] = weights.w_dw * (wrong_pairing - gap)
                rep = dataclasses.replace(rep, dissipation=diss)
            self.reports.append(rep)
            self.s_prev = s_new

    ledger = Ledger()
    final = sv.run(ops, problem.initial, weights, problem.scheme, problem.bc, [ledger])
    return ledger.e0, ledger.reports, final


def director_constraints_check(reports, final_state) -> CheckOutcome:
    norms = np.linalg.norm(final_state.n.values, axis=1)
    err = float(np.abs(norms - 1.0).max())
    drops = min(min(r.drop_eform for r in reports), min(r.drop_cform for r in reports))
    passed = err <= 1e-12 and drops >= -1e-12
    return CheckOutcome(
        "director_constraints", passed, min(-err, drops), -1e-12,
        None if passed else {"unit_norm_error": err, "min_drop": drops},
    )


def mass_conservation_check(problem, final_state) -> CheckOutcome:
    """The integral of phi, each element's area times its vertex mean,
    is the same at the start and the end of the flow."""
    mesh = problem.mesh
    dphi = final_state.phi.values - problem.initial.phi.values
    drift = abs(float(element_geometry(mesh)[0] @ dphi[mesh.elements].mean(axis=1)))
    return CheckOutcome("mass_conservation", drift <= 1e-9, drift, 1e-9)


# ---------------------------------------------------------------------------
# suite driver
# ---------------------------------------------------------------------------

def run_suite(seed: int = 0, mutate: str | None = None, acuteness_max: int = 64):
    """Run every verification check; returns a list of CheckOutcomes.

    ``mutate`` names one of ``MUTATIONS`` or is None."""
    _check_mutation(mutate)
    rng = np.random.default_rng(seed)
    outcomes = [quadrature_exactness_check()]

    ops8 = build_operators(build_structured_mesh(8, 8))
    outcomes.append(stiffness_identity_check(ops8, rng))
    outcomes.append(acuteness_sweep_check(acuteness_max))

    weights = ModelWeights()
    ops4 = build_operators(build_structured_mesh(4, 4))
    base = random_admissible_fields(ops4.mesh, rng)
    direction = random_directions(ops4.mesh, base, rng)
    for eid in DERIVATIVE_IDS:
        outcomes.append(fd_derivative_check(ops4, weights, eid, base, direction))

    ops2 = build_operators(build_structured_mesh(2, 2))
    outcomes.append(brute_force_form_check(ops2, rng))
    outcomes.append(projection_monotonicity_check(ops4, rng))
    outcomes.append(lumped_monotonicity_check(ops4, rng))
    outcomes.append(convex_split_check(ops4, rng))
    outcomes.append(anisotropic_identity_check(ops8))
    outcomes.append(refinement_energy_consistency())

    problem = _corner_problem()
    e0, reports, final_state = flow_trajectory(problem, mutate=mutate)
    outcomes.append(energy_law_audit(e0, reports))
    outcomes.append(director_constraints_check(reports, final_state))
    outcomes.append(mass_conservation_check(problem, final_state))

    return [dataclasses.replace(oc, seed=seed) for oc in outcomes]
