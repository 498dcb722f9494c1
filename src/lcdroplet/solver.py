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

Every step emits a :class:`StepReport` whose dissipation components sum,
together with the energy difference, to zero up to solver tolerances:
an auditable per-step energy budget.
"""
from __future__ import annotations

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
    linear_solver: str = "direct"  # "direct" or "cg" (SPD solves only)
    cg_tol: float = 1e-12
    cg_maxiter: int = 20000
    mass_lumping_timederiv: bool = False

    def __post_init__(self):
        if self.tau <= 0.0:
            raise ValueError("tau must be positive")
        if self.t_final < 0.0:
            raise ValueError("t_final must be nonnegative")
        if min(self.newton_abs_tol, self.newton_res_tol, self.cg_tol) <= 0.0:
            raise ValueError("tolerances must be positive")
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
        """Budget residual with the Newton stopping error charged back;
        zero to machine precision for a correct implementation."""
        return self.budget_residual + self.solver_defect


# ---------------------------------------------------------------------------
# sub-steps
# ---------------------------------------------------------------------------

def tangent_space(n_values: np.ndarray, free: np.ndarray | None = None) -> np.ndarray:
    """Unit tangent per node (d=2): the +90 degree rotation of the director."""
    if n_values.shape[1] != 2:
        raise NotImplementedError("tangent frames are implemented for d=2")
    return np.column_stack([-n_values[:, 1], n_values[:, 0]])


def _solve_spd(A, b, config: SchemeConfig) -> np.ndarray:
    if config.linear_solver == "cg":
        x, info = spla.cg(A, b, rtol=config.cg_tol, atol=0.0, maxiter=config.cg_maxiter)
        if info != 0:
            raise StepError(f"conjugate gradient failed to converge (info={info})")
        return x
    # minimum degree on A^T + A: the pattern is symmetric, and this
    # ordering fills less than the default COLAMD
    return spla.splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A").solve(b)


def director_step(ops: Operators, state: PhaseState, weights: ModelWeights,
                  config: SchemeConfig, bc: BoundaryConditions):
    """Advance the director; returns (n_tilde, n_new, v)."""
    mesh = ops.mesh
    n_prev = state.n.values
    s_prev = state.s.values
    gphi_prev = assembly.element_gradients(mesh, state.phi.values, ops.geom)

    free = np.ones(mesh.n_nodes, dtype=bool)
    free[bc.n_nodes] = False
    t = tangent_space(n_prev)

    A, b = en.residual_director(
        ops, weights, config.tau, s_prev, n_prev, gphi_prev, t, free,
        lumped=config.mass_lumping_timederiv,
    )
    coeff = np.zeros(mesh.n_nodes)
    coeff[free] = _solve_spd(A, b, config)
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
    return n_tilde, n_new, v


def s_step(ops: Operators, state: PhaseState, n_new: np.ndarray,
           weights: ModelWeights, config: SchemeConfig, bc: BoundaryConditions) -> np.ndarray:
    """Advance the orientation parameter; returns the new nodal values."""
    mesh = ops.mesh
    s_prev = state.s.values
    gphi_prev = assembly.element_gradients(mesh, state.phi.values, ops.geom)
    lumped = config.mass_lumping_timederiv

    if weights.dw.fc_is_quadratic:
        A, b = en.residual_s(ops, weights, config.tau, s_prev, n_new, gphi_prev, lumped)
        A_ff, b_f, freemask = assembly.apply_dirichlet(
            A, b, bc.s_nodes, bc.s_values, mesh.pattern
        )
        s_new = np.empty(mesh.n_nodes)
        s_new[bc.s_nodes] = bc.s_values
        s_new[freemask] = _solve_spd(A_ff, b_f, config)
        return s_new

    # Newton fallback for a non-quadratic convex part
    s_new = s_prev.copy()
    s_new[bc.s_nodes] = bc.s_values
    history = []
    for _ in range(config.newton_max_iter):
        R, J = en.residual_s_nonlinear(
            ops, weights, config.tau, s_new, s_prev, n_new, gphi_prev, lumped
        )
        J_ff, r_f, freemask = assembly.apply_dirichlet(
            J, -R, bc.s_nodes, np.zeros(len(bc.s_nodes)), mesh.pattern
        )
        # the lift is zero here: s_new already satisfies the boundary data
        res = float(np.linalg.norm(r_f))
        history.append(res)
        if res <= config.newton_res_tol:
            return s_new
        delta = _solve_spd(J_ff, r_f, config)
        s_new[freemask] += delta
        if float(np.linalg.norm(delta)) <= config.newton_abs_tol:
            return s_new
    raise NewtonError("orientation Newton loop did not converge", history)


class JacobianCache:
    """LU factors of an earlier interface Jacobian, kept across Newton
    iterations and time steps.

    The Jacobian changes only through the cubic term's mass block and the
    anchoring blocks, slowly in time, so the stored factors are a close
    preconditioner: a Newton system is solved by right-preconditioned
    GMRES (whose residual is the true linear residual) to the requested
    relative tolerance, and the Jacobian is refactored only when GMRES
    needs more than ``MAX_KRYLOV`` iterations.  ``factorizations`` counts
    the LU factorizations.
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
        self.lu = spla.splu(J.tocsc(), permc_spec="MMD_AT_PLUS_A")
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
    lumped = config.mass_lumping_timederiv
    fixed = en.jacobian_ch_fixed(ops, weights, config.tau, lumped)
    n = ops.mesh.n_nodes

    history = []
    iters = 0
    for it in range(config.newton_max_iter + 1):
        R = en.residual_ch(ops, weights, config.tau, phi, mu, phi_prev, A0, lumped)
        res = float(np.linalg.norm(R))
        history.append(res)
        if res <= config.newton_res_tol:
            return phi, mu, iters, history, R
        if it == config.newton_max_iter:
            break
        J = en.jacobian_ch(ops, weights, config.tau, phi, A0, lumped, fixed)
        delta = cache.solve(J, -R, min(_NEWTON_LINEAR_RTOL, _NEWTON_FORCING * res))
        phi = phi + delta[:n]
        mu = mu + delta[n:]
        iters += 1
        if float(np.linalg.norm(delta)) <= config.newton_abs_tol:
            R = en.residual_ch(
                ops, weights, config.tau, phi, mu, phi_prev, A0, lumped
            )
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

def _quad_integral(ops: Operators, elem_values_fn) -> float:
    return quad.integrate_elementwise(elem_values_fn, ops.geom.areas)


def _field_at_quad(ops: Operators, values: np.ndarray) -> np.ndarray:
    return quad.at_quad_points(values[ops.mesh.elements])


def _weighted_grad_sq(ops: Operators, s_like: np.ndarray, shift: float, g: np.ndarray) -> float:
    """integral of (s_like - shift)^2 |g|^2 with per-element constant g."""
    e = ops.mesh.elements
    q = (s_like - shift)[e]
    per_elem = np.einsum("ea,ab,eb->e", q, assembly._MASS_REF, q) * ops.geom.areas
    return float(np.sum(per_elem * np.sum(g * g, axis=1)))


def gradient_flow_step(ops: Operators, state: PhaseState, weights: ModelWeights,
                       config: SchemeConfig, bc: BoundaryConditions,
                       phi_mass_ref: float | None = None,
                       cache: JacobianCache | None = None,
                       before: EnergyReport | None = None):
    """One full step; returns (new_state, StepReport).

    ``cache`` carries interface Jacobian factors between the steps of a
    run (see :func:`ch_step`).  ``before`` is the energy of ``state``
    (the previous step's ``after``), evaluated here when absent."""
    mesh = ops.mesh
    tau = config.tau
    eps = weights.eps
    lumped = config.mass_lumping_timederiv
    s_prev, n_prev, phi_prev = state.s.values, state.n.values, state.phi.values
    gphi_prev = assembly.element_gradients(mesh, phi_prev, ops.geom)

    if before is None:
        before = en.total_energy(ops, weights, s_prev, n_prev, phi_prev)

    n_tilde, n_new, v = director_step(ops, state, weights, config, bc)
    s_new = s_step(ops, state, n_new, weights, config, bc)
    phi_new, mu_new, iters, _, R_acc = ch_step(
        ops, state, s_new, n_new, weights, config, cache
    )

    after = en.total_energy(ops, weights, s_new, n_new, phi_new)
    gphi_new = assembly.element_gradients(mesh, phi_new, ops.geom)

    # --- dissipation budget (every term of the discrete energy law) ---
    drop_eform = en.eform(ops, s_prev, s_prev, n_tilde, n_tilde) - en.eform(
        ops, s_prev, s_prev, n_new, n_new
    )
    drop_cform = en.cform(
        ops, n_tilde, gphi_prev, n_tilde, gphi_prev, s_prev, s_prev
    ) - en.cform(ops, n_new, gphi_prev, n_new, gphi_prev, s_prev, s_prev)

    ds = s_new - s_prev
    dphi = phi_new - phi_prev
    gdphi = (gphi_new - gphi_prev) / tau

    pq_new = _field_at_quad(ops, phi_new)
    pq_prev = _field_at_quad(ops, phi_prev)
    dphi_q = (pq_new - pq_prev) / tau
    norm_dtau_phisq = _quad_integral(ops, ((pq_new**2 - pq_prev**2) / tau) ** 2)
    norm_phidphi = _quad_integral(ops, (pq_new * dphi_q) ** 2)
    norm_dphi = _quad_integral(ops, dphi_q**2)

    diss = {
        "normalization_eform": 0.5 * weights.w_erk * drop_eform,
        "normalization_cform": 0.5 * weights.w_wan * eps * drop_cform,
        "velocity_n": tau * weights.rho * ops.l2_form(v, v, lumped),
        "velocity_s": ops.l2_form(ds, ds, lumped) / tau,
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
            + en.eform(ops, ds, ds, n_new, n_new)
        ),
        "tau2_wan": 0.5
        * weights.w_wan
        * eps
        * tau**2
        * (
            en.cform(ops, n_new, gdphi, n_new, gdphi, s_new, s_new)
            + en.cform(ops, v, gphi_prev, v, gphi_prev, s_prev, s_prev)
        ),
        "tau2_was": 0.5
        * weights.w_was
        * eps
        * (
            _weighted_grad_sq(ops, s_new, weights.s_star, gphi_new - gphi_prev)
            + _weighted_grad_sq(ops, ds, 0.0, gphi_prev)
        ),
    }
    split_term = float(
        (en.implicit_dw_load(ops, weights.dw, s_new)
         - en.explicit_dw_load(ops, weights.dw, s_prev)) @ ds
    )
    e_dw_new = en.energy_dw(ops, s_new, weights.dw)
    e_dw_prev = en.energy_dw(ops, s_prev, weights.dw)
    diss["convex_split_slack"] = weights.w_dw * (split_term - (e_dw_new - e_dw_prev))

    # stopping error of the accepted Newton iterate, paired with the test
    # functions of the energy argument; closes the budget exactly
    defect = float(dphi @ R_acc[mesh.n_nodes:]) + tau * float(
        mu_new @ R_acc[: mesh.n_nodes]
    )

    mass_rows = ops.mass @ np.ones(mesh.n_nodes)
    if phi_mass_ref is None:
        phi_mass_ref = float(mass_rows @ phi_prev)
    report = StepReport(
        before=before,
        after=after,
        drop_eform=drop_eform,
        drop_cform=drop_cform,
        dissipation=diss,
        newton_iters=iters,
        mass_drift=float(mass_rows @ phi_new) - phi_mass_ref,
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
    mass_rows = ops.mass @ np.ones(ops.mesh.n_nodes)
    mass0 = float(mass_rows @ initial.phi.values)
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
