"""Energy-stable gradient flow for the coupled droplet model.

One time step advances (s, n, phi, mu) through three stages, in order:

1. director: solve the tangential-velocity system, set the trial field
   n~ = n_prev + tau v, then renormalize nodewise.  Because v is
   orthogonal to n_prev at every node, |n~| >= 1 there, and the lumped
   forms decrease under the normalization (the two "drop" terms below).
2. orientation: one SPD solve for s (the convex part of the double well
   is implicit, the concave part explicit).
3. interface: Newton on the coupled (phi, mu) system; the cubic term is
   the only nonlinearity.  The Newton systems are solved by GMRES in
   double precision, preconditioned by an earlier Jacobian with its (2,2)
   mass block lumped, whose n x n Schur complement is factored in single
   precision (:class:`JacobianCache`); it is refactored only when GMRES
   stalls, and :func:`run` keeps the factors from step to step.

Both SPD systems are solved by conjugate gradients by default, or by a
double-precision sparse LU factorization (``linear_solver="direct"``),
the reference whose solutions are exact up to roundoff.

Every step emits a :class:`StepReport` whose dissipation components sum,
together with the energy difference, to zero up to solver tolerances:
an auditable per-step energy budget.  The residuals of the three solves,
paired with the test functions of the energy law, are charged to it as
``solver_defect``, so the charged budget closes to roundoff whatever the
tolerances.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import assembly, energy as en, quadrature as quad
from .assembly import Operators
from .energy import EnergyReport, ModelWeights
from .fields import DirectorField, NodalScalarField, normalized
from .mesh import TriMesh

S_RANGE = en.S_RANGE
CG_MAXITER = 20000  # iterations of one conjugate-gradient solve


class StepError(RuntimeError):
    """A time step could not be completed."""


class NewtonError(StepError):
    def __init__(self, message: str, residual_history):
        super().__init__(message)
        self.residual_history = list(residual_history)


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

    def __post_init__(self):
        if not (math.isfinite(self.tau) and self.tau > 0.0):
            raise ValueError(f"tau must be finite and positive, got {self.tau!r}")
        if not (math.isfinite(self.t_final) and self.t_final >= 0.0):
            raise ValueError(f"t_final must be finite and nonnegative, got {self.t_final!r}")
        if not all(tol > 0.0 for tol in
                   (self.newton_abs_tol, self.newton_res_tol, self.cg_tol)):
            raise ValueError("tolerances must be positive")
        if self.newton_max_iter < 0:
            raise ValueError(f"newton_max_iter must be nonnegative, got {self.newton_max_iter}")
        if self.linear_solver not in ("direct", "cg"):
            raise ValueError("linear_solver must be 'direct' or 'cg'")


@dataclass(frozen=True)
class PhaseState:
    """One time slab of the coupled system.  A state from :func:`with_energy`
    and every state a step returns also carry what the next step reuses: the
    gradient of phi, the coupling tensors there and the energy (under the
    weights that step used)."""

    s: NodalScalarField
    n: DirectorField
    phi: NodalScalarField
    mu: NodalScalarField
    time: float = 0.0
    step_index: int = 0
    gphi: np.ndarray | None = None
    coupling: np.ndarray | None = None
    energy: EnergyReport | None = None

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


def with_energy(ops: Operators, weights: ModelWeights, state: PhaseState,
                a: np.ndarray | None = None) -> PhaseState:
    """``state`` carrying the gradient of its phi, the coupling tensors there
    and its energy; ``a`` is the ``was_weights`` of s, evaluated when absent."""
    s, n, phi = state.s.values, state.n.values, state.phi.values
    gphi = assembly.element_gradients(ops.mesh, phi)
    coupling = en.coupling_tensors(ops, gphi, gphi)
    a = en.was_weights(ops, s, weights.s_star) if a is None else a
    energy = en.energy_report(ops, weights, s, n, phi, gphi, coupling, a)
    return replace(state, gphi=gphi, coupling=coupling, energy=energy)


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
        x, info = spla.cg(A, b, rtol=config.cg_tol, atol=0.0, maxiter=CG_MAXITER)
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


def _constrained_solve(mesh: TriMesh, A, b, values, config: SchemeConfig, stage: str):
    """Solve the SPD system A x = b of ``stage`` with x = ``values`` at
    ``mesh.boundary_nodes``; returns (x, b - A x), zeroed at those nodes."""
    A_ff, b_f, free = assembly.apply_dirichlet(A, b, values, mesh)
    x, r = np.empty(mesh.n_nodes), np.zeros(mesh.n_nodes)
    x[mesh.boundary_nodes] = values
    x[free], r[free] = _solve_spd(A_ff, b_f, config, stage)
    return x, r


def director_step(ops: Operators, state: PhaseState, weights: ModelWeights,
                  config: SchemeConfig, coupling: np.ndarray):
    """Advance the director; returns (n_tilde, n_new, v, r).

    ``coupling`` is ``energy.coupling_tensors`` at the gradient of the
    phase field of ``state``.  ``r`` is the residual of the
    tangent-coefficient system as a nodal tangent field (zero at boundary
    nodes), so that pairing it with a velocity w gives the residual of
    the stage equation tested with w."""
    n_prev = state.n.values
    t = tangent_space(n_prev)

    A, b = en.residual_director(ops, weights, config.tau, state.s.values, n_prev,
                                coupling, t)
    # the velocity vanishes where n is prescribed
    coeff, resid = _constrained_solve(ops.mesh, A, b, 0.0, config, "director")
    v = coeff[:, None] * t
    n_tilde = n_prev + config.tau * v
    try:
        n_new = normalized(n_tilde)
    except ValueError as exc:  # the tangent update guarantees |n~| >= 1
        raise StepError(f"degenerate director normalization, a defect: {exc}") from None
    return n_tilde, n_new, v, resid[:, None] * t


def s_step(ops: Operators, state: PhaseState, n_new: np.ndarray,
           weights: ModelWeights, config: SchemeConfig, gphi_prev: np.ndarray,
           coupling: np.ndarray, elastic_diag: np.ndarray, dw_load: np.ndarray):
    """Advance the orientation parameter, keeping the boundary values of
    ``state``; returns (s_new, r), the new nodal values and the system's
    residual (zero at boundary nodes).  The last four arguments are those
    of ``energy.residual_s``."""
    s_prev = state.s.values
    A, b = en.residual_s(ops, weights, config.tau, s_prev, n_new, gphi_prev,
                         coupling, elastic_diag, dw_load)
    return _constrained_solve(ops.mesh, A, b, s_prev[ops.mesh.boundary_nodes], config, "s")


@dataclass(frozen=True)
class InterfaceJacobian:
    """The interface Newton Jacobian J = [[M/tau, eps K], [B, -M]] as its n x n
    blocks (B from ``energy.jacobian_ch``); ``lumped`` holds M_L, M's row sums."""

    M: sp.csr_matrix
    K: sp.csr_matrix
    B: sp.csr_matrix
    lumped: np.ndarray
    eps: float
    tau: float

    def __matmul__(self, z: np.ndarray) -> np.ndarray:
        phi, mu = np.split(z, 2)
        return np.concatenate([self.M @ phi / self.tau + self.eps * (self.K @ mu),
                               self.B @ phi - self.M @ mu])


class JacobianCache:
    """Single-precision LU factors that precondition the interface Newton
    systems, kept across Newton iterations and time steps.

    J (:class:`InterfaceJacobian`) is preconditioned by itself with the
    mass of its second block row lumped, P = [[M/tau, eps K], [B, -M_L]],
    so P^{-1} (r1, r2) is phi = S^{-1} (r1 + eps K M_L^{-1} r2),
    mu = M_L^{-1} (B phi - r2), and only the n x n Schur complement
    S = M/tau + eps K M_L^{-1} B is factored (Bosch, Stoll & Benner,
    J. Comput. Phys. 262, 2014; Boyanova, Do-Quang & Neytcheva, Comput.
    Methods Appl. Math. 12, 2012).  P keeps the J it was factored from,
    which changes slowly in time.  J x = b is solved by one cycle of
    right-preconditioned GMRES that keeps z_k = P^{-1} v_k next to the
    Arnoldi vectors v_k and forms x = sum_k y_k z_k, as flexible GMRES
    does (Saad, SIAM J. Sci. Comput. 14, 1993).  J z is formed from J's
    blocks and all but the factors is double precision, so x is as
    accurate as with double factors (Arioli & Duff, ETNA 33, 2009).  x is
    accepted when |b - J x| is within the relative tolerance; otherwise,
    or after ``MAX_KRYLOV`` iterations, P is refactored and the cycle's
    solution on the fresh factors is returned unchecked: Newton checks
    it.  ``factorizations`` and ``krylov_iterations`` count the
    factorizations and iterations; a singular S or J is a :class:`StepError`.
    """

    # one application of P^{-1} per iteration; forming and factoring S
    # costs about thirty of them at 64^2 and at 128^2
    MAX_KRYLOV = 6

    def __init__(self):
        self.lu = None
        self.factored = None  # the InterfaceJacobian whose S self.lu factors
        self.factorizations = 0
        self.krylov_iterations = 0

    def solve(self, J: InterfaceJacobian, rhs: np.ndarray, rtol: float) -> np.ndarray:
        if self.lu is not None and self.lu.shape == J.B.shape:
            x = self._gmres(J, rhs, rtol)
            if x is not None:
                return x
        S = J.M / J.tau + J.eps * (J.K @ (sp.diags(1.0 / J.lumped) @ J.B))
        try:
            self.lu = spla.splu(S.astype(np.float32).tocsc(), permc_spec="MMD_AT_PLUS_A")
        except RuntimeError as exc:
            raise StepError(f"interface solve: {exc}") from exc
        self.factored = J
        self.factorizations += 1
        return self._gmres(J, rhs, rtol, checked=False)

    def apply(self, v: np.ndarray) -> np.ndarray:
        """P^{-1} v on the kept factors."""
        J, (r1, r2) = self.factored, np.split(v, 2)
        phi = self.lu.solve((r1 + J.eps * (J.K @ (r2 / J.lumped))).astype(np.float32))
        return np.concatenate([phi, (J.B @ phi.astype(float) - r2) / J.lumped])

    def _gmres(self, J, b: np.ndarray, rtol: float, checked: bool = True):
        """One GMRES cycle from x = 0 on J P^{-1}; the solution, or None
        when ``checked`` and its true residual is above ``rtol * |b|``."""
        beta = float(np.linalg.norm(b))
        if beta == 0.0:
            return np.zeros_like(b)
        tol = rtol * beta
        m = self.MAX_KRYLOV
        V = np.empty((m + 1, b.size))
        Z = np.empty((m, b.size))
        H = np.zeros((m + 1, m))
        cs, sn = np.zeros(m), np.zeros(m)
        g = np.zeros(m + 1)  # the Givens-rotated least-squares right-hand side
        g[0] = beta
        V[0] = b / beta
        for j in range(m):
            Z[j] = self.apply(V[j])
            self.krylov_iterations += 1
            w = J @ Z[j]
            w_norm = float(np.linalg.norm(w))
            for i in range(j + 1):  # modified Gram-Schmidt
                H[i, j] = V[i] @ w
                w -= H[i, j] * V[i]
            H[j + 1, j] = float(np.linalg.norm(w))
            # happy breakdown: J z_j lies in the span of v_0 .. v_j, so the
            # least-squares solution below is exact
            breakdown = H[j + 1, j] <= np.finfo(float).eps * w_norm
            if breakdown:
                H[j + 1, j] = 0.0
            else:
                V[j + 1] = w / H[j + 1, j]
            for i in range(j):
                H[i, j], H[i + 1, j] = (cs[i] * H[i, j] + sn[i] * H[i + 1, j],
                                        cs[i] * H[i + 1, j] - sn[i] * H[i, j])
            r = math.hypot(H[j, j], H[j + 1, j])
            if r == 0.0:
                raise StepError("interface solve: the Jacobian is singular (J z = 0)")
            cs[j], sn[j] = H[j, j] / r, H[j + 1, j] / r
            H[j, j], H[j + 1, j] = r, 0.0
            g[j], g[j + 1] = cs[j] * g[j], -sn[j] * g[j]
            if abs(g[j + 1]) <= tol or breakdown:
                break
        k = j + 1
        x = sla.solve_triangular(H[:k, :k], g[:k]) @ Z[:k]
        return x if not checked or float(np.linalg.norm(b - J @ x)) <= tol else None


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
            a_new: np.ndarray, weights: ModelWeights, config: SchemeConfig,
            cache: JacobianCache | None = None):
    """Advance (phi, mu) by Newton; ``a_new`` is ``energy.was_weights``
    of s_new.

    The Newton systems are solved on the factors held by ``cache`` (see
    :class:`JacobianCache`); without one, the step starts from a fresh
    factorization.  Newton starts at phi_prev, with the mu that solves the
    mu-row there with lumped mass: M_L mu = R_mu(phi_prev, 0).

    Returns (phi, mu, iterations, residual_history, accepted_residual);
    the last entry is the residual vector at the accepted iterate, used to
    charge the solver's stopping error to the energy budget exactly.
    """
    cache = JacobianCache() if cache is None else cache
    phi_prev = state.phi.values
    m_prev = ops.mass @ phi_prev
    A0 = en.ch_step_matrix(ops, weights, s_new, n_new, a_new)
    n, eps, M, K, ML = ops.mesh.n_nodes, weights.eps, ops.mass, ops.stiffness, ops.mass_rows
    phi = phi_prev.copy()
    R = en.residual_ch(ops, weights, config.tau, phi, np.zeros(n), phi_prev, m_prev, A0)
    mu = R[n:] / ML
    R += np.concatenate([eps * (K @ mu), -(M @ mu)])  # R is affine in mu
    history = []
    for it in range(config.newton_max_iter + 1):
        res = float(np.linalg.norm(R))
        history.append(res)
        if res <= config.newton_res_tol:
            return phi, mu, it, history, R
        if it == config.newton_max_iter:
            break
        J = InterfaceJacobian(M, K, en.jacobian_ch(ops, weights, phi, A0), ML, eps, config.tau)
        delta = cache.solve(J, -R, min(_NEWTON_LINEAR_RTOL, _NEWTON_FORCING * res))
        # the exact update of phi has no mass, as the phi-row conserves it;
        # GMRES's has some within its tolerance, and loses it by a constant
        dphi = delta[:n] - (ML @ delta[:n]) / ML.sum()
        phi, mu = phi + dphi, mu + delta[n:]
        R = en.residual_ch(ops, weights, config.tau, phi, mu, phi_prev, m_prev, A0)
        if float(np.linalg.norm(delta)) <= config.newton_abs_tol:
            history.append(float(np.linalg.norm(R)))
            return phi, mu, it + 1, history, R
    raise NewtonError(
        f"interface Newton did not reach tolerance in {config.newton_max_iter} "
        f"iterations (residuals {history[:3]} ... {history[-1]:.3e})",
        history,
    )


# ---------------------------------------------------------------------------
# full step with energy budget
# ---------------------------------------------------------------------------

def check_boundary_data(state: PhaseState, bc: tuple[np.ndarray, np.ndarray]) -> None:
    """Raise a ValueError, naming the field and the first node that
    differs, unless ``state`` takes the boundary data ``bc``, the pair
    (s, n) of values at the mesh's boundary nodes: s exactly, and n within
    1e-12, as it is normalized."""
    b = state.mesh.boundary_nodes
    for name, given, want, tol in (("s", state.s.values[b], bc[0], 0.0),
                                   ("n", state.n.values[b], bc[1], 1e-12)):
        if len(want) != b.size:
            raise ValueError(f"bc gives {len(want)} values of {name} for the "
                             f"{b.size} boundary nodes of the mesh")
        off = np.flatnonzero(~(np.abs(given - want) <= tol).reshape(b.size, -1).all(axis=1))
        if off.size:
            k = off[0]
            raise ValueError(f"state does not satisfy the boundary data: {name} at node "
                             f"{b[k]} is {given[k]} where bc gives {want[k]}")


def gradient_flow_step(ops: Operators, state: PhaseState, weights: ModelWeights,
                       config: SchemeConfig, phi_mass_ref: float | None = None,
                       cache: JacobianCache | None = None):
    """One full step; returns (new_state, StepReport).

    ``cache`` carries the interface preconditioner's factors between the
    steps of a run (see :func:`ch_step`).

    What the stages and the ledger share is evaluated once: the gradient
    of phi_prev, the coupling tensors there and the energy come with
    ``state`` (see :class:`PhaseState`; evaluated here for a state that
    does not carry them), and then the explicit double-well load at
    s_prev, the nodal coefficients of the elastic form at n_new, the
    ``was_weights`` of s_new, and the gradient of phi_new, the coupling
    tensors there and the energy, which the new state carries.  The
    state returned keeps the boundary values of ``state``: s exactly, and
    n up to its renormalization, as the velocity vanishes there."""
    mesh = ops.mesh
    tau = config.tau
    eps = weights.eps
    if state.energy is None:
        state = with_energy(ops, weights, state)
    s_prev, phi_prev = state.s.values, state.phi.values
    gphi_prev, coupling, before = state.gphi, state.coupling, state.energy
    dw_load = en.explicit_dw_load(ops, weights.dw, s_prev)

    n_tilde, n_new, v, r_n = director_step(ops, state, weights, config, coupling)
    elastic_diag = en.eform_scalar_diag(ops, n_new)
    s_new, r_s = s_step(ops, state, n_new, weights, config, gphi_prev, coupling,
                        elastic_diag, dw_load)
    a_new = en.was_weights(ops, s_new, weights.s_star)
    phi_new, mu_new, iters, _, R_acc = ch_step(ops, state, s_new, n_new, a_new, weights,
                                               config, cache)
    new_state = with_energy(ops, weights, make_state(
        mesh, s_new, n_new, phi_new, mu_new, state.time + tau, state.step_index + 1), a_new)
    gphi_new, after = new_state.gphi, new_state.energy

    # --- dissipation budget (every term of the discrete energy law) ---
    s2_prev = s_prev * s_prev

    def cform_prev(u):  # cform(u, gphi_prev, u, gphi_prev, s_prev, s_prev)
        return float(np.sum(s2_prev * en.tensor_pairing(coupling, u, u)))

    drop_eform = en.eform_drop(ops, s_prev, n_tilde, n_new)
    drop_cform = cform_prev(n_tilde) - cform_prev(n_new)

    ds = s_new - s_prev
    dphi = phi_new - phi_prev
    gdphi = (gphi_new - gphi_prev) / tau

    pq_new = quad.at_quad_points(phi_new[mesh.elements])
    pq_prev = quad.at_quad_points(phi_prev[mesh.elements])
    dphi_q = (pq_new - pq_prev) / tau
    areas = mesh.areas
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
            en.energy_was(ops, a_new, gphi_new - gphi_prev, eps)
            + en.energy_was(ops, en.was_weights(ops, ds, 0.0), gphi_prev, eps)
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
    return new_state, report


def run(ops: Operators, initial: PhaseState, weights: ModelWeights,
        config: SchemeConfig, bc: tuple[np.ndarray, np.ndarray], sinks=()) -> PhaseState:
    """Iterate the gradient flow to t_final, streaming reports to sinks.

    ``initial`` must take the boundary data ``bc`` (see
    :func:`check_boundary_data`), which every step then keeps.  Sinks may
    define any of ``on_start(state, energy_report)``, ``on_step(state,
    step_report)``, ``on_finish(state)``.  A failing step aborts the run
    after the sinks have seen the last good state.
    """
    check_boundary_data(initial, bc)
    n_steps = int(round(config.t_final / config.tau))
    state = initial  # returned as it is when there is no step
    carried = with_energy(ops, weights, initial)
    mass0 = float(ops.mass_rows @ initial.phi.values)
    cache = JacobianCache()

    for sink in sinks:
        if hasattr(sink, "on_start"):
            sink.on_start(state, carried.energy)
    try:
        for _ in range(n_steps):
            state, report = gradient_flow_step(
                ops, carried, weights, config, phi_mass_ref=mass0, cache=cache,
            )
            carried = state
            for sink in sinks:
                if hasattr(sink, "on_step"):
                    sink.on_step(state, report)
    finally:
        for sink in sinks:
            if hasattr(sink, "on_finish"):
                sink.on_finish(state)
    return state
