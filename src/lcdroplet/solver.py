"""Energy-stable gradient flow for the coupled droplet model.

One time step advances (s, n, phi, mu) through three stages, in order:

1. director: solve the tangential-velocity system, set the trial field
   n~ = n_prev + tau v, then renormalize nodewise.  Because v is
   orthogonal to n_prev at every node, |n~| >= 1 there, and the lumped
   forms decrease under the normalization (the two "drop" terms below).
2. orientation: one SPD solve for s (the fixed convex split of the double
   well, ``energy.DW_FC`` implicit and ``energy.DW_FE`` explicit).
3. interface: Newton on the coupled (phi, mu) system; the cubic term is
   the only nonlinearity.  The Newton systems are solved by GMRES in
   double precision, preconditioned by an earlier Jacobian with its (2,2)
   mass block lumped, whose n x n Schur complement is factored in single
   precision (:class:`JacobianCache`); it is refactored only when GMRES
   stalls, and :func:`run` keeps the factors from step to step.  Each
   solve is inexact: its tolerance follows the Newton residual, but asks
   for no linear residual below a tenth of the Newton tolerance.

Both SPD systems are solved by conjugate gradients by default, to the
relative residual ``CG_RTOL`` within ``CG_MAXITER`` iterations, or by a
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

from . import assembly, energy as en
from .assembly import Operators
from .energy import EnergyReport, ModelWeights
from .mesh import TriMesh

CG_RTOL = 1e-12  # relative residual at which a conjugate-gradient solve stops
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
    newton_res_tol: float = 1e-7
    newton_max_iter: int = 50
    linear_solver: str = "cg"  # "cg" or "direct" (SPD solves only)

    def __post_init__(self):
        if not (math.isfinite(self.tau) and self.tau > 0.0):
            raise ValueError(f"tau must be finite and positive, got {self.tau!r}")
        if not (math.isfinite(self.t_final) and self.t_final >= 0.0):
            raise ValueError(f"t_final must be finite and nonnegative, got {self.t_final!r}")
        if not math.isfinite(self.t_final / self.tau):
            raise ValueError(f"t_final = {self.t_final!r} is too many steps of tau = {self.tau!r}")
        if not self.newton_res_tol > 0.0:
            raise ValueError(f"newton_res_tol must be positive, got {self.newton_res_tol!r}")
        if self.newton_max_iter < 0:
            raise ValueError(f"newton_max_iter must be nonnegative, got {self.newton_max_iter}")
        if self.linear_solver not in ("direct", "cg"):
            raise ValueError("linear_solver must be 'direct' or 'cg'")


UNIT_TOL = 1e-12  # how far the director of a state may be from unit length at a node
ZERO_NORM = 1e-14  # the length below which a vector has no direction to normalize


@dataclass(frozen=True, eq=False)
class Nodal:
    """The nodal values of one P1 field of a :class:`PhaseState`."""

    values: np.ndarray


@dataclass(frozen=True)
class PhaseState:
    """One time slab of the coupled system: the nodal values of s, n, phi
    and mu on ``mesh``, built and checked by :func:`make_state`.  A state
    from :func:`with_energy` and every state a step returns also carry what
    the next step reuses: grad phi, phi at the quadrature points, the
    coupling tensors, and the energy under ``weights``, the weights it was
    evaluated with."""

    mesh: TriMesh
    s: Nodal
    n: Nodal
    phi: Nodal
    mu: Nodal
    time: float = 0.0
    step_index: int = 0
    gphi: np.ndarray | None = None
    phi_quad: np.ndarray | None = None
    coupling: np.ndarray | None = None
    energy: EnergyReport | None = None
    weights: ModelWeights | None = None


def make_state(mesh: TriMesh, s, n, phi, mu=None, time=0.0, step_index=0) -> PhaseState:
    """The state of the nodal arrays s, n (one unit vector a node), phi and
    mu (zero when absent) on ``mesh``; an array of the wrong shape is a
    ValueError naming it and the shape it needs, as are one not finite at
    a node, naming the first, a director off unit length by more than
    ``UNIT_TOL`` at some node, and a time that is not finite."""
    nn = mesh.n_nodes
    if not math.isfinite(time):
        raise ValueError(f"time must be finite, got {time!r}")
    mu = np.zeros(nn) if mu is None else mu
    fields = {}
    for name, given, shape in (("s", s, (nn,)), ("n", n, (nn, 2)),
                               ("phi", phi, (nn,)), ("mu", mu, (nn,))):
        values = np.ascontiguousarray(np.asarray(given, dtype=float))
        if values.shape != shape:
            raise ValueError(f"{name} needs shape {shape}, got {values.shape}")
        finite = np.isfinite(values)
        if not finite.all():
            raise ValueError(f"{name} is not finite at node {np.argmin(finite) // values[0].size}")
        fields[name] = Nodal(values)
    err = float(np.abs(np.linalg.norm(fields["n"].values, axis=1) - 1.0).max(initial=0.0))
    if not err <= UNIT_TOL:
        raise ValueError(f"n violates nodal unit length by {err:.3e}")
    return PhaseState(mesh, **fields, time=time, step_index=step_index)


def with_energy(ops: Operators, weights: ModelWeights, state: PhaseState, a=None,
                elastic_diag=None) -> PhaseState:
    """``state`` carrying the gradient of its phi, phi at the quadrature
    points, the coupling tensors and its energy under ``weights``; ``a``
    (the ``was_weights`` of s) and ``elastic_diag`` are those of
    ``energy.total_energy``."""
    s, n, phi = state.s.values, state.n.values, state.phi.values
    gphi = assembly.element_gradients(ops.mesh, phi)
    phi_quad = assembly.quad_values(ops.mesh, phi)
    coupling = en.coupling_tensors(ops, gphi, gphi)
    energy = en.total_energy(ops, weights, s, n, phi, gphi, coupling, a, elastic_diag, phi_quad)
    return replace(state, gphi=gphi, phi_quad=phi_quad, coupling=coupling, energy=energy,
                   weights=weights)


@dataclass(frozen=True)
class StepReport:
    """Energies and the per-step dissipation budget.

    ``dissipation`` holds every nonnegative term of the discrete energy
    law, already weighted, so that

        before.total - after.total - sum(dissipation.values()) ~ 0.

    ``drop_eform`` / ``drop_cform`` are the raw (unweighted) decreases of
    the two lumped forms under director normalization.  The solvers' work
    in the step: ``newton_history`` holds the ``newton_iters + 1`` Newton
    residual norms, ``krylov_iterations`` and ``factorizations`` count the
    GMRES iterations and factorizations of S (:class:`JacobianCache`), and
    ``cg_iterations`` the CG iterations of the director and ``s`` solves.
    """

    before: EnergyReport
    after: EnergyReport
    drop_eform: float
    drop_cform: float
    dissipation: dict = field(default_factory=dict)
    newton_history: tuple = ()
    krylov_iterations: int = 0
    factorizations: int = 0
    cg_iterations: tuple = (0, 0)
    mass_drift: float = 0.0
    solver_defect: float = 0.0

    @property
    def newton_iters(self) -> int:
        """The Newton iterations of the interface stage."""
        return len(self.newton_history) - 1

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


def _cg(A, b: np.ndarray, stage: str):
    """``spla.cg(A, b, rtol=CG_RTOL, atol=0.0, maxiter=CG_MAXITER)`` bit for bit:
    its operations in its order, in place, without its wrappers (its
    ``np.linalg.norm(r)`` is sqrt(r . r): the stop test reuses rho); returns (x, iterations).
    A residual that overflows or turns nan stops the solve at once."""
    bnorm = math.sqrt(np.dot(b, b))
    if bnorm == 0.0:
        return b.copy(), 0
    x, r, p, ap, atol = np.zeros_like(b), b.copy(), b.copy(), np.empty_like(b), CG_RTOL * bnorm
    for it in range(CG_MAXITER):
        rho = np.dot(r, r)
        if math.sqrt(rho) < atol:
            return x, it
        if not math.isfinite(rho):
            raise StepError(f"{stage} solve: the conjugate-gradient residual is not finite "
                            f"at iteration {it} (r . r = {rho})")
        if it:
            p *= rho / rho_prev
            p += r
        q = A @ p
        alpha = rho / np.dot(p, q)
        x += np.multiply(alpha, p, out=ap)
        r -= np.multiply(alpha, q, out=q)
        rho_prev = rho
    raise StepError(f"{stage} solve: {CG_MAXITER} conjugate-gradient iterations left the "
                    f"relative residual at {math.sqrt(np.dot(r, r)) / bnorm:.3e}, above "
                    f"CG_RTOL = {CG_RTOL:g}")


def _solve_spd(A, b, config: SchemeConfig, stage: str):
    """Solve the SPD system of ``stage``; returns (x, b - A x, CG iterations)."""
    its = 0
    if config.linear_solver == "cg":
        x, its = _cg(A, b, stage)
    else:
        # minimum degree on A^T + A: the pattern is symmetric, and this
        # ordering fills less than the default COLAMD
        try:
            x = spla.splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A").solve(b)
        except RuntimeError as exc:
            raise StepError(f"{stage} solve: {exc}") from exc
    return x, b - A @ x, its


def _constrained_solve(mesh: TriMesh, A, b, values, config: SchemeConfig, stage: str):
    """Solve the SPD system A x = b of ``stage``, A on the mesh pattern, with
    x = ``values`` at ``mesh.boundary_nodes``, by symmetric elimination onto
    ``mesh.pattern.interior``; returns (x, b - A x zeroed there, CG iterations)."""
    free, keep, indptr, indices = mesh.pattern.interior
    x, r = np.zeros(mesh.n_nodes), np.zeros(mesh.n_nodes)
    x[mesh.boundary_nodes] = values
    A_ff = sp.csr_matrix((A.data[keep], indices, indptr), shape=(len(indptr) - 1,) * 2)
    # zero values lift nothing (the director's velocity)
    b_f = (b - A @ x if x.any() else b)[free]
    x[free], r[free], its = _solve_spd(A_ff, b_f, config, stage)
    return x, r, its


def normalized(values: np.ndarray) -> np.ndarray:
    """Normalize vectors row-wise; raises on (near-)zero rows."""
    norms = np.linalg.norm(values, axis=1)
    if np.any(norms < ZERO_NORM):
        bad = int(np.argmin(norms))
        raise ValueError(f"cannot normalize zero vector at node {bad}")
    return values / norms[:, None]


def director_step(ops: Operators, state: PhaseState, weights: ModelWeights,
                  config: SchemeConfig):
    """Advance the director; returns (n_tilde, n_new, v, r, CG iterations).

    ``state`` carries its coupling tensors (:func:`with_energy`).  ``r`` is
    the residual of the tangent-coefficient system as a nodal tangent
    field (zero at boundary nodes), so that pairing it with a velocity w
    gives the residual of the stage equation tested with w."""
    n_prev = state.n.values
    t = tangent_space(n_prev)

    A, b = en.residual_director(ops, weights, config.tau, state.s.values, n_prev,
                                state.coupling, t)
    # the velocity vanishes where n is prescribed
    coeff, resid, its = _constrained_solve(ops.mesh, A, b, 0.0, config, "director")
    v = coeff[:, None] * t
    n_tilde = n_prev + config.tau * v
    try:
        n_new = normalized(n_tilde)
    except ValueError as exc:  # the tangent update guarantees |n~| >= 1
        raise StepError(f"degenerate director normalization, a defect: {exc}") from None
    return n_tilde, n_new, v, resid[:, None] * t, its


def s_step(ops: Operators, state: PhaseState, n_new: np.ndarray,
           weights: ModelWeights, config: SchemeConfig, elastic_diag: np.ndarray,
           dw_load: np.ndarray):
    """Advance the orientation parameter, keeping the boundary values of
    ``state``; returns (s_new, r, CG iterations), r the system's residual
    (zero at boundary nodes).  ``state`` carries grad phi and the coupling
    tensors (:func:`with_energy`); the last two arguments are those of
    ``energy.residual_s``."""
    s_prev = state.s.values
    A, b = en.residual_s(ops, weights, config.tau, s_prev, n_new, state.gphi,
                         state.coupling, elastic_diag, dw_load)
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
    it.  A refactorization releases the old factors, and with them the J
    they were factored from, before S is formed, so only one set of
    factors is alive at a time; one that fails leaves the cache empty.
    :func:`ch_step` floors the relative tolerance so that no solve
    asks for a residual below a tenth of the Newton tolerance; a tighter
    one runs past ``MAX_KRYLOV`` on kept factors and refactors for a
    Newton iterate no better.
    ``factorizations`` and ``krylov_iterations`` count the factorizations
    and iterations; a singular S or J is a :class:`StepError`.
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
        # the stale factors go before S is formed, and the double S before
        # SuperLU runs: one factorization is alive at a time
        self.lu = self.factored = None
        try:
            self.lu = spla.splu(
                (J.M / J.tau + J.eps * (J.K @ (sp.diags(1.0 / J.lumped) @ J.B)))
                .astype(np.float32).tocsc(), permc_spec="MMD_AT_PLUS_A")
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
# max(min(_NEWTON_LINEAR_RTOL, _NEWTON_FORCING * |R|),
#     _NEWTON_FLOOR * newton_res_tol / |R|).
# This is inexact Newton (Eisenstat & Walker, SIAM J. Sci. Comput. 17,
# 1996): the iterates stay close to those of exact Newton, within the
# forcing tolerance, but are not equal to them.  The floor (Kelley,
# Iterative Methods for Linear and Nonlinear Equations, SIAM 1995, 6.3)
# asks no solve for a linear residual below a tenth of newton_res_tol,
# which the next Newton residual needs no more to meet; near |R| = 1e-5
# the forcing alone asks for 1e-12, past what MAX_KRYLOV iterations on
# kept factors reach.  The accepted residual is charged to the budget as
# ``solver_defect``.
_NEWTON_LINEAR_RTOL = 1e-4
_NEWTON_FORCING = 1e-2
_NEWTON_FLOOR = 0.1


def ch_step(ops: Operators, state: PhaseState, s_new: np.ndarray, n_new: np.ndarray,
            a_new: np.ndarray, weights: ModelWeights, config: SchemeConfig,
            cache: JacobianCache):
    """Advance (phi, mu) by Newton; ``a_new`` is ``energy.was_weights``
    of s_new.

    The Newton systems are solved on the factors held by ``cache`` (see
    :class:`JacobianCache`).  Newton starts at phi_prev, with the mu that
    solves the mu-row there with lumped mass: M_L mu = R_mu(phi_prev, 0).
    It stops only on its residual; not reaching it is a
    :class:`NewtonError`.

    Returns (phi, mu, residual_history, accepted_residual); the last entry
    is the residual vector at the accepted iterate, used to charge the
    solver's stopping error to the energy budget exactly.
    """
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
            return phi, mu, history, R
        if it == config.newton_max_iter:
            break
        J = InterfaceJacobian(M, K, en.jacobian_ch(ops, weights, phi, A0), ML, eps, config.tau)
        rtol = max(min(_NEWTON_LINEAR_RTOL, _NEWTON_FORCING * res),
                   _NEWTON_FLOOR * config.newton_res_tol / res)
        delta = cache.solve(J, -R, rtol)
        # the exact update of phi has no mass, as the phi-row conserves it;
        # GMRES's has some within its tolerance, and loses it by a constant
        dphi = delta[:n] - (ML @ delta[:n]) / ML.sum()
        phi, mu = phi + dphi, mu + delta[n:]
        R = en.residual_ch(ops, weights, config.tau, phi, mu, phi_prev, m_prev, A0)
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
    ``UNIT_TOL``, as it is normalized."""
    b = state.mesh.boundary_nodes
    for name, given, want, tol in (("s", state.s.values[b], bc[0], 0.0),
                                   ("n", state.n.values[b], bc[1], UNIT_TOL)):
        if len(want) != b.size:
            raise ValueError(f"bc gives {len(want)} values of {name} for the "
                             f"{b.size} boundary nodes of the mesh")
        off = np.flatnonzero(~(np.abs(given - want) <= tol).reshape(b.size, -1).all(axis=1))
        if off.size:
            k = off[0]
            raise ValueError(f"state does not satisfy the boundary data: {name} at node "
                             f"{b[k]} is {given[k]} where bc gives {want[k]}")


def _check_mesh(ops: Operators, state: PhaseState) -> None:
    """Raise a ValueError naming what differs unless ``state`` is on
    ``ops.mesh``: the same mesh, or one with equal nodes and elements."""
    for name in ("nodes", "elements"):
        mine, theirs = getattr(state.mesh, name), getattr(ops.mesh, name)
        if mine is not theirs and not np.array_equal(mine, theirs):
            raise ValueError(f"state is not on ops.mesh: its {name}, of shape {mine.shape}, "
                             f"differ from those of ops.mesh, of shape {theirs.shape}")


def gradient_flow_step(ops: Operators, state: PhaseState, weights: ModelWeights,
                       config: SchemeConfig, phi_mass_ref: float | None = None,
                       cache: JacobianCache | None = None):
    """One full step; returns (new_state, StepReport).

    ``cache`` carries the interface preconditioner's factors between the
    steps of a run (see :func:`ch_step`).

    What the stages and the ledger share is evaluated once: what
    :class:`PhaseState` carries comes with ``state`` (evaluated here for a
    state that does not carry it under ``weights``), and then the explicit
    double-well load at s_prev, the edge differences of n_new and the
    elastic form's nodal coefficients there, the ``was_weights`` of s_new,
    and what the new state carries.  The ledger charges the implicit double well as the
    ``s`` stage solved it, ``DW_DFC[1] M s_new``.  The state returned
    keeps the boundary values of ``state``: s exactly, and n up to its
    renormalization, as the velocity vanishes there."""
    _check_mesh(ops, state)
    mesh = state.mesh
    tau = config.tau
    eps = weights.eps
    if state.weights != weights:
        state = with_energy(ops, weights, state)
    s_prev, phi_prev = state.s.values, state.phi.values
    gphi_prev, pq_prev, coupling, before = state.gphi, state.phi_quad, state.coupling, state.energy
    dw_load = en.explicit_dw_load(ops, s_prev)

    n_tilde, n_new, v, r_n, cg_n = director_step(ops, state, weights, config)
    dn_new = en.edge_diff(ops, n_new)
    elastic_diag = en.eform_scalar_diag(ops, n_new, dn_new)
    s_new, r_s, cg_s = s_step(ops, state, n_new, weights, config, elastic_diag, dw_load)
    a_new = en.was_weights(ops, s_new, weights.s_star)
    cache = JacobianCache() if cache is None else cache
    work0 = (cache.krylov_iterations, cache.factorizations)
    phi_new, mu_new, history, R_acc = ch_step(ops, state, s_new, n_new, a_new,
                                              weights, config, cache)
    new_state = with_energy(ops, weights, make_state(
        mesh, s_new, n_new, phi_new, mu_new, state.time + tau, state.step_index + 1),
        a_new, elastic_diag)
    gphi_new, pq_new, after = new_state.gphi, new_state.phi_quad, new_state.energy

    # --- dissipation budget (every term of the discrete energy law) ---
    s2_prev = s_prev * s_prev
    drop_eform = en.eform_drop(ops, s_prev, n_tilde, n_new, dn_new)
    # cform(n~, ..) - cform(n_new, ..) at gphi_prev and s_prev as one pairing,
    # (n~ - n_new) . G (n~ + n_new) with G symmetric, accurate to its own size
    drop_cform = float(np.sum(s2_prev * en.tensor_pairing(coupling, n_tilde - n_new,
                                                         n_tilde + n_new)))

    ds = s_new - s_prev
    dphi = phi_new - phi_prev
    gdphi = (gphi_new - gphi_prev) / tau

    dphi_q = (pq_new - pq_prev) / tau
    norm_dtau_phisq = assembly.integrate(mesh, ((pq_new**2 - pq_prev**2) / tau) ** 2)
    norm_phidphi = assembly.integrate(mesh, (pq_new * dphi_q) ** 2)
    norm_dphi = assembly.integrate(mesh, dphi_q**2)

    diss = {
        "normalization_eform": 0.5 * weights.w_erk * drop_eform,
        "normalization_cform": 0.5 * weights.w_wan * eps * drop_cform,
        "velocity_n": tau * weights.rho * float(np.sum(v * (ops.mass @ v))),
        "velocity_s": float(ds @ (ops.mass @ ds)) / tau,
        "mu_gradient": tau * eps * en.grad_square(ops, mu_new),
        "tau2_ch_grad": 0.5 * weights.w_chgd * eps * en.grad_square(ops, dphi),
        "tau2_ch_dw": weights.w_chdw
        * (tau**2 / (4.0 * eps))
        * (norm_dtau_phisq + 2.0 * norm_phidphi + 2.0 * norm_dphi),
        "tau2_erk": 0.5
        * weights.w_erk
        * (
            2.0 * weights.kappa * en.grad_square(ops, ds)
            + tau**2 * en.eform(ops, s_prev, s_prev, v, v)
            + float(np.sum(ds * ds * elastic_diag))
        ),
        "tau2_wan": 0.5 * weights.w_wan * eps * tau**2
        * (en.cform_square(ops, n_new, gdphi, s_new)
           + float(np.sum(s2_prev * en.tensor_pairing(coupling, v, v)))),
        "tau2_was": weights.w_was
        * (
            en.energy_was(ops, a_new, gphi_new - gphi_prev, eps)
            + en.energy_was(ops, en.was_weights(ops, ds, 0.0), gphi_prev, eps)
        ),
    }
    split_term = float((en.DW_DFC[1] * (ops.mass @ s_new) - dw_load) @ ds)
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
        newton_history=tuple(history),
        krylov_iterations=cache.krylov_iterations - work0[0],
        factorizations=cache.factorizations - work0[1],
        cg_iterations=(cg_n, cg_s),
        mass_drift=float(ops.mass_rows @ phi_new) - phi_mass_ref,
        solver_defect=defect,
    )
    return new_state, report


def run(ops: Operators, initial: PhaseState, weights: ModelWeights,
        config: SchemeConfig, bc: tuple[np.ndarray, np.ndarray], sinks=()) -> PhaseState:
    """Iterate the gradient flow from the time of ``initial`` to t_final,
    streaming reports to sinks: as many whole steps of ``config`` as the
    span holds (to 1e-9 relative), then a last step of tau = t_final -
    time for any remainder, which ends at t_final (exactly after a whole
    step, by Sterbenz's lemma).  A start past t_final is a ValueError.

    ``initial`` must lie on ``ops.mesh`` (the same mesh, or equal nodes
    and elements) and take the boundary data ``bc`` (see
    :func:`check_boundary_data`), which every step keeps.  Sinks may
    define any of ``on_start(state, energy_report)``, ``on_step(state,
    step_report)``, ``on_finish(state)``.  A failing step aborts the run
    after the sinks have seen the last good state.
    """
    _check_mesh(ops, initial)
    check_boundary_data(initial, bc)
    steps = (config.t_final - initial.time) / config.tau
    remainder = abs(steps - round(steps)) > 1e-9 * max(steps, 1.0)
    whole = math.floor(steps) if remainder else round(steps)
    if whole < 0:
        raise ValueError(f"cannot step from t = {initial.time!r} back to t_final = {config.t_final!r}")
    state = initial  # returned as it is when there is no step
    carried = with_energy(ops, weights, initial)
    mass0 = float(ops.mass_rows @ initial.phi.values)
    cache = JacobianCache()

    for sink in sinks:
        if hasattr(sink, "on_start"):
            sink.on_start(state, carried.energy)
    try:
        for k in range(whole + remainder):
            step_config = config if k < whole else replace(config, tau=config.t_final - carried.time)
            state, report = gradient_flow_step(ops, carried, weights, step_config, mass0, cache)
            carried = state
            for sink in sinks:
                if hasattr(sink, "on_step"):
                    sink.on_step(state, report)
    finally:
        for sink in sinks:
            if hasattr(sink, "on_finish"):
                sink.on_finish(state)
    return state
