"""Energy-stable gradient flow for the coupled droplet model.

One time step advances (s, n, phi, mu) through three stages, in order:

1. director: solve the tangential-velocity system, set the trial field
   n~ = n_prev + tau v, then renormalize nodewise.  Because v is
   orthogonal to n_prev at every node, |n~| >= 1 there, and the lumped
   forms decrease under the normalization (the two "drop" terms below).
2. orientation: one SPD solve for s (the convex part of the double well
   is implicit, the concave part explicit).
3. interface: Newton on the coupled (phi, mu) system; the cubic term is
   the only nonlinearity.  The Newton systems are solved by GMRES
   preconditioned with the LU factors of an earlier Jacobian
   (:class:`JacobianCache`), which is refactored only when GMRES stalls;
   :func:`run` keeps the factors from step to step.

Both SPD systems are solved by conjugate gradients by default, or by a
sparse LU factorization (``linear_solver="direct"``), the reference whose
solutions are exact up to roundoff.

Every step emits a :class:`StepReport` whose dissipation components sum,
together with the energy difference, to zero up to solver tolerances:
an auditable per-step energy budget.  The residuals of the three solves,
paired with the test functions of the energy law, are charged to it as
``solver_defect``, so the charged budget closes to roundoff whatever the
tolerances.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse.linalg as spla

from . import assembly, energy as en, quadrature as quad
from .assembly import Operators
from .energy import EnergyReport, ModelWeights
from .fields import DirectorField, NodalScalarField
from .mesh import TriMesh

S_RANGE = en.S_RANGE


class StepError(RuntimeError):
    """A time step could not be completed."""


class NewtonError(StepError):
    def __init__(self, message: str, residual_history):
        super().__init__(message)
        self.residual_history = list(residual_history)


@dataclass(frozen=True)
class BoundaryConditions:
    """Nodal Dirichlet data for the orientation and director fields.

    The interface fields (phi, mu) carry no essential conditions.
    """

    s_nodes: np.ndarray
    s_values: np.ndarray
    n_nodes: np.ndarray
    n_values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "s_nodes", np.asarray(self.s_nodes, dtype=np.int64))
        object.__setattr__(self, "s_values", np.asarray(self.s_values, dtype=float))
        object.__setattr__(self, "n_nodes", np.asarray(self.n_nodes, dtype=np.int64))
        object.__setattr__(self, "n_values", np.asarray(self.n_values, dtype=float))
        if self.s_values.shape != self.s_nodes.shape:
            raise ValueError("s boundary values do not match node count")
        if self.n_values.shape[:1] != self.n_nodes.shape:
            raise ValueError("director boundary values do not match node count")
        if self.s_values.size and not (
            self.s_values.min() > S_RANGE[0] and self.s_values.max() < S_RANGE[1]
        ):
            raise ValueError(
                f"prescribed orientation values must lie in {S_RANGE}"
            )
        if self.n_values.size:
            err = np.abs(np.linalg.norm(self.n_values, axis=1) - 1.0).max()
            if err > 1e-12:
                raise ValueError(f"prescribed director values off unit length by {err:.2e}")


@dataclass(frozen=True)
class SchemeConfig:
    """Time stepping and solver controls."""

    tau: float = 0.002
    t_final: float = 1.0
    newton_abs_tol: float = 1e-15
    newton_res_tol: float = 1e-7
    newton_max_iter: int = 50
    linear_solver: str = "cg"  # "cg" or "direct" (SPD solves only)
    cg_tol: float = 1e-12
    cg_maxiter: int = 20000

    def __post_init__(self):
        if not (math.isfinite(self.tau) and self.tau > 0.0):
            raise ValueError(f"tau must be finite and positive, got {self.tau!r}")
        if not (math.isfinite(self.t_final) and self.t_final >= 0.0):
            raise ValueError(f"t_final must be finite and nonnegative, got {self.t_final!r}")
        if not all(tol > 0.0 for tol in
                   (self.newton_abs_tol, self.newton_res_tol, self.cg_tol)):
            raise ValueError("tolerances must be positive")
        # scipy's cg reports success for maxiter=0 without iterating
        if self.cg_maxiter < 1:
            raise ValueError(f"cg_maxiter must be at least 1, got {self.cg_maxiter}")
        if self.newton_max_iter < 0:
            raise ValueError(f"newton_max_iter must be nonnegative, got {self.newton_max_iter}")
        if self.linear_solver not in ("direct", "cg"):
            raise ValueError("linear_solver must be 'direct' or 'cg'")


@dataclass(frozen=True)
class PhaseState:
    """One time slab of the coupled system."""

    s: NodalScalarField
    n: DirectorField
    phi: NodalScalarField
    mu: NodalScalarField
    time: float = 0.0
    step_index: int = 0

    def __post_init__(self):
        mesh = self.s.mesh
        for f in (self.n, self.phi, self.mu):
            if f.mesh is not mesh:
                raise ValueError("state fields must share one mesh")

    @property
    def mesh(self) -> TriMesh:
        return self.s.mesh


def make_state(mesh: TriMesh, s, n, phi, mu=None, time=0.0, step_index=0) -> PhaseState:
    mu = np.zeros(mesh.n_nodes) if mu is None else mu
    return PhaseState(
        NodalScalarField(mesh, s),
        DirectorField(mesh, n),
        NodalScalarField(mesh, phi),
        NodalScalarField(mesh, mu),
        time,
        step_index,
    )


@dataclass(frozen=True)
class StepReport:
    """Energies and the per-step dissipation budget.

    ``dissipation`` holds every nonnegative term of the discrete energy
    law, already weighted, so that

        before.total - after.total - sum(dissipation.values()) ~ 0.

    ``drop_eform`` / ``drop_cform`` are the raw (unweighted) decreases of
    the two lumped forms under director normalization.
    """

    before: EnergyReport
    after: EnergyReport
    drop_eform: float
    drop_cform: float
    dissipation: dict = field(default_factory=dict)
    newton_iters: int = 0
    mass_drift: float = 0.0
    min_s: float = 0.0
    max_s: float = 0.0
    solver_defect: float = 0.0

    @property
    def budget_residual(self) -> float:
        return self.before.total - self.after.total - sum(self.dissipation.values())

    @property
    def closed_budget_residual(self) -> float:
        """Budget residual with the stopping errors of the director, ``s``
        and interface solves charged back; zero to machine precision for a
        correct implementation."""
        return self.budget_residual + self.solver_defect


# ---------------------------------------------------------------------------
# sub-steps
# ---------------------------------------------------------------------------

def tangent_space(n_values: np.ndarray) -> np.ndarray:
    """Unit tangent per node: the +90 degree rotation of the director."""
    return np.column_stack([-n_values[:, 1], n_values[:, 0]])


def _solve_spd(A, b, config: SchemeConfig, stage: str):
    """Solve the SPD system of ``stage``; returns (x, b - A x)."""
    if config.linear_solver == "cg":
        x, info = spla.cg(A, b, rtol=config.cg_tol, atol=0.0, maxiter=config.cg_maxiter)
        if info != 0:
            raise StepError(
                f"{stage} solve: conjugate gradient failed to converge (info={info})"
            )
    else:
        # minimum degree on A^T + A: the pattern is symmetric, and this
        # ordering fills less than the default COLAMD
        try:
            x = spla.splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A").solve(b)
        except RuntimeError as exc:
            raise StepError(f"{stage} solve: {exc}") from exc
    return x, b - A @ x


def director_step(ops: Operators, state: PhaseState, weights: ModelWeights,
                  config: SchemeConfig, bc: BoundaryConditions, coupling: np.ndarray):
    """Advance the director; returns (n_tilde, n_new, v, r).

    ``coupling`` is ``energy.coupling_tensors`` at the gradient of the
    phase field of ``state``.  ``r`` is the residual of the
    tangent-coefficient system as a nodal tangent field (zero at fixed
    nodes), so that pairing it with a velocity w gives the residual of
    the stage equation tested with w."""
    mesh = ops.mesh
    n_prev = state.n.values

    free = np.ones(mesh.n_nodes, dtype=bool)
    free[bc.n_nodes] = False
    t = tangent_space(n_prev)

    A, b = en.residual_director(ops, weights, config.tau, state.s.values, n_prev,
                                coupling, t, free)
    coeff, resid = np.zeros(mesh.n_nodes), np.zeros(mesh.n_nodes)
    coeff[free], resid[free] = _solve_spd(A, b, config, "director")
    v = coeff[:, None] * t
    n_tilde = n_prev + config.tau * v
    norms = np.linalg.norm(n_tilde, axis=1)
    if np.any(norms < 1e-14):
        bad = int(np.argmin(norms))
        raise StepError(
            f"degenerate director normalization at node {bad}; the tangent "
            "update guarantees |n~| >= 1, so this indicates a defect"
        )
    n_new = n_tilde / norms[:, None]
    return n_tilde, n_new, v, resid[:, None] * t


def s_step(ops: Operators, state: PhaseState, n_new: np.ndarray,
           weights: ModelWeights, config: SchemeConfig, bc: BoundaryConditions,
           gphi_prev: np.ndarray, coupling: np.ndarray, elastic_diag: np.ndarray,
           dw_load: np.ndarray):
    """Advance the orientation parameter; returns (s_new, r), the new
    nodal values and the system's residual (zero at fixed nodes).  The
    last four arguments are those of ``energy.residual_s``."""
    mesh = ops.mesh
    A, b = en.residual_s(ops, weights, config.tau, state.s.values, n_new, gphi_prev,
                         coupling, elastic_diag, dw_load)
    A_ff, b_f, freemask = assembly.apply_dirichlet(
        A, b, bc.s_nodes, bc.s_values, mesh.pattern
    )
    s_new, resid = np.empty(mesh.n_nodes), np.zeros(mesh.n_nodes)
    s_new[bc.s_nodes] = bc.s_values
    s_new[freemask], resid[freemask] = _solve_spd(A_ff, b_f, config, "s")
    return s_new, resid


class JacobianCache:
    """LU factors of an earlier interface Jacobian, kept across Newton
    iterations and time steps.

    The Jacobian changes only through the cubic term's mass block and the
    anchoring blocks, slowly in time, so the stored factors are a close
    preconditioner: a Newton system is solved by right-preconditioned
    GMRES (whose residual is the true linear residual) to the requested
    relative tolerance, and the Jacobian is refactored only when GMRES
    needs more than ``MAX_KRYLOV`` iterations.  ``factorizations`` counts
    the LU factorizations.  A singular Jacobian is a :class:`StepError`.
    """

    # about two triangular solves per iteration; a factorization costs
    # some twenty at 64^2
    MAX_KRYLOV = 6

    def __init__(self):
        self.lu = None
        self.factorizations = 0

    def solve(self, J, rhs: np.ndarray, rtol: float) -> np.ndarray:
        lu = self.lu
        if lu is not None and lu.shape == J.shape:
            op = spla.LinearOperator(J.shape, matvec=lambda y: J @ lu.solve(y),
                                    dtype=float)
            y, info = spla.gmres(op, rhs, rtol=rtol, atol=0.0,
                                 restart=self.MAX_KRYLOV, maxiter=1)
            if info == 0:
                return lu.solve(y)
        try:
            self.lu = spla.splu(J.tocsc(), permc_spec="MMD_AT_PLUS_A")
        except RuntimeError as exc:
            raise StepError(f"interface solve: {exc}") from exc
        self.factorizations += 1
        return self.lu.solve(rhs)


# relative tolerance of the preconditioned Newton solves:
# min(_NEWTON_LINEAR_RTOL, _NEWTON_FORCING * |R|).  This is inexact Newton:
# the iterates stay close to those of exact Newton, within the forcing
# tolerance, but are not equal to them.  The accepted residual is charged
# to the budget as ``solver_defect`` either way; a looser forcing
# (``min(1e-4, |R|)``) left the unclosed budget residual of the move preset
# above its bound in ``test_step_energy_decreases_move_preset``.
_NEWTON_LINEAR_RTOL = 1e-4
_NEWTON_FORCING = 1e-2


def ch_step(ops: Operators, state: PhaseState, s_new: np.ndarray, n_new: np.ndarray,
            weights: ModelWeights, config: SchemeConfig,
            cache: JacobianCache | None = None):
    """Advance (phi, mu) by Newton.

    The Newton systems are solved on the factors held by ``cache`` (see
    :class:`JacobianCache`); without one, the step starts from a fresh
    factorization.

    Returns (phi, mu, iterations, residual_history, accepted_residual);
    the last entry is the residual vector at the accepted iterate, used to
    charge the solver's stopping error to the energy budget exactly.
    """
    cache = JacobianCache() if cache is None else cache
    phi_prev = state.phi.values
    phi, mu = phi_prev.copy(), state.mu.values.copy()
    A0 = en.ch_step_matrix(ops, weights, s_new, n_new)
    fixed = en.jacobian_ch_fixed(ops, weights, config.tau)
    n = ops.mesh.n_nodes

    history = []
    iters = 0
    for it in range(config.newton_max_iter + 1):
        R = en.residual_ch(ops, weights, config.tau, phi, mu, phi_prev, A0)
        res = float(np.linalg.norm(R))
        history.append(res)
        if res <= config.newton_res_tol:
            return phi, mu, iters, history, R
        if it == config.newton_max_iter:
            break
        J = en.jacobian_ch(ops, weights, config.tau, phi, A0, fixed)
        delta = cache.solve(J, -R, min(_NEWTON_LINEAR_RTOL, _NEWTON_FORCING * res))
        phi = phi + delta[:n]
        mu = mu + delta[n:]
        iters += 1
        if float(np.linalg.norm(delta)) <= config.newton_abs_tol:
            R = en.residual_ch(ops, weights, config.tau, phi, mu, phi_prev, A0)
            history.append(float(np.linalg.norm(R)))
            return phi, mu, iters, history, R
    raise NewtonError(
        f"interface Newton did not reach tolerance in {config.newton_max_iter} "
        f"iterations (residuals {history[:3]} ... {history[-1]:.3e})",
        history,
    )


# ---------------------------------------------------------------------------
# full step with energy budget
# ---------------------------------------------------------------------------

def gradient_flow_step(ops: Operators, state: PhaseState, weights: ModelWeights,
                       config: SchemeConfig, bc: BoundaryConditions,
                       phi_mass_ref: float | None = None,
                       cache: JacobianCache | None = None,
                       before: EnergyReport | None = None):
    """One full step; returns (new_state, StepReport).

    ``cache`` carries interface Jacobian factors between the steps of a
    run (see :func:`ch_step`).  ``before`` is the energy of ``state``
    (the previous step's ``after``), evaluated here when absent.

    What the stages and the ledger share is evaluated once, here: the
    gradient of phi_prev, the coupling tensors there, the explicit
    double-well load at s_prev and, after the director stage, the nodal
    coefficients of the elastic form at n_new."""
    mesh = ops.mesh
    tau = config.tau
    eps = weights.eps
    s_prev, n_prev, phi_prev = state.s.values, state.n.values, state.phi.values

    if before is None:
        before = en.total_energy(ops, weights, s_prev, n_prev, phi_prev)

    gphi_prev = assembly.element_gradients(mesh, phi_prev, ops.geom)
    coupling = en.coupling_tensors(ops, gphi_prev, gphi_prev)
    dw_load = en.explicit_dw_load(ops, weights.dw, s_prev)

    n_tilde, n_new, v, r_n = director_step(ops, state, weights, config, bc, coupling)
    elastic_diag = en.eform_scalar_diag(ops, n_new)
    s_new, r_s = s_step(ops, state, n_new, weights, config, bc,
                        gphi_prev, coupling, elastic_diag, dw_load)
    phi_new, mu_new, iters, _, R_acc = ch_step(
        ops, state, s_new, n_new, weights, config, cache
    )

    after = en.total_energy(ops, weights, s_new, n_new, phi_new)
    gphi_new = assembly.element_gradients(mesh, phi_new, ops.geom)

    # --- dissipation budget (every term of the discrete energy law) ---
    s2_prev = s_prev * s_prev

    def cform_prev(u):  # cform(u, gphi_prev, u, gphi_prev, s_prev, s_prev)
        return float(np.sum(s2_prev * en.tensor_pairing(coupling, u, u)))

    # eform(s_prev, s_prev, n_new, n_new) is sum_i s_i^2 elastic_diag_i
    drop_eform = (en.eform(ops, s_prev, s_prev, n_tilde, n_tilde)
                  - float(np.sum(s2_prev * elastic_diag)))
    drop_cform = cform_prev(n_tilde) - cform_prev(n_new)

    ds = s_new - s_prev
    dphi = phi_new - phi_prev
    gdphi = (gphi_new - gphi_prev) / tau

    pq_new = quad.at_quad_points(phi_new[mesh.elements])
    pq_prev = quad.at_quad_points(phi_prev[mesh.elements])
    dphi_q = (pq_new - pq_prev) / tau
    areas = ops.geom.areas
    norm_dtau_phisq = quad.integrate_elementwise(((pq_new**2 - pq_prev**2) / tau) ** 2, areas)
    norm_phidphi = quad.integrate_elementwise((pq_new * dphi_q) ** 2, areas)
    norm_dphi = quad.integrate_elementwise(dphi_q**2, areas)

    diss = {
        "normalization_eform": 0.5 * weights.w_erk * drop_eform,
        "normalization_cform": 0.5 * weights.w_wan * eps * drop_cform,
        "velocity_n": tau * weights.rho * ops.l2_form(v, v),
        "velocity_s": ops.l2_form(ds, ds) / tau,
        "mu_gradient": tau * eps * ops.grad_form(mu_new, mu_new),
        "tau2_ch_grad": 0.5 * weights.w_chgd * eps * ops.grad_form(dphi, dphi),
        "tau2_ch_dw": weights.w_chdw
        * (tau**2 / (4.0 * eps))
        * (norm_dtau_phisq + 2.0 * norm_phidphi + 2.0 * norm_dphi),
        "tau2_erk": 0.5
        * weights.w_erk
        * (
            2.0 * weights.kappa * ops.grad_form(ds, ds)
            + tau**2 * en.eform(ops, s_prev, s_prev, v, v)
            + float(np.sum(ds * ds * elastic_diag))
        ),
        "tau2_wan": 0.5
        * weights.w_wan
        * eps
        * tau**2
        * (
            en.cform(ops, n_new, gdphi, n_new, gdphi, s_new, s_new)
            + cform_prev(v)
        ),
        "tau2_was": weights.w_was
        * (
            en.energy_was(ops, s_new, gphi_new - gphi_prev, eps, weights.s_star)
            + en.energy_was(ops, ds, gphi_prev, eps, 0.0)
        ),
    }
    split_term = float((en.implicit_dw_load(ops, weights.dw, s_new) - dw_load) @ ds)
    diss["convex_split_slack"] = weights.w_dw * (split_term - (after.e_dw - before.e_dw))

    # stopping errors of the three solves, each paired with the test
    # functions of the energy argument (dphi and tau mu for the accepted
    # Newton iterate, tau v and ds for the SPD stages, whose residuals are
    # b - A x); closes the budget exactly
    defect = (
        float(dphi @ R_acc[mesh.n_nodes:]) + tau * float(mu_new @ R_acc[: mesh.n_nodes])
        - tau * float(np.sum(v * r_n)) - float(ds @ r_s)
    )

    if phi_mass_ref is None:
        phi_mass_ref = float(ops.mass_rows @ phi_prev)
    report = StepReport(
        before=before,
        after=after,
        drop_eform=drop_eform,
        drop_cform=drop_cform,
        dissipation=diss,
        newton_iters=iters,
        mass_drift=float(ops.mass_rows @ phi_new) - phi_mass_ref,
        min_s=float(s_new.min()),
        max_s=float(s_new.max()),
        solver_defect=defect,
    )
    new_state = make_state(
        mesh, s_new, n_new, phi_new, mu_new,
        time=state.time + tau, step_index=state.step_index + 1,
    )
    return new_state, report


def run(ops: Operators, initial: PhaseState, weights: ModelWeights,
        config: SchemeConfig, bc: BoundaryConditions, sinks=()) -> PhaseState:
    """Iterate the gradient flow to t_final, streaming reports to sinks.

    Sinks may define any of ``on_start(state, energy_report)``,
    ``on_step(state, step_report)``, ``on_finish(state)``.  A failing step
    aborts the run after the sinks have seen the last good state.
    """
    n_steps = int(round(config.t_final / config.tau))
    state = initial
    mass0 = float(ops.mass_rows @ initial.phi.values)
    cache = JacobianCache()

    energy = en.total_energy(
        ops, weights, initial.s.values, initial.n.values, initial.phi.values
    )
    for sink in sinks:
        if hasattr(sink, "on_start"):
            sink.on_start(state, energy)
    try:
        for _ in range(n_steps):
            state, report = gradient_flow_step(
                ops, state, weights, config, bc, phi_mass_ref=mass0, cache=cache,
                before=energy,
            )
            energy = report.after
            for sink in sinks:
                if hasattr(sink, "on_step"):
                    sink.on_step(state, report)
    finally:
        for sink in sinks:
            if hasattr(sink, "on_finish"):
                sink.on_finish(state)
    return state
