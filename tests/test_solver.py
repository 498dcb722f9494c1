import csv
import re
import weakref
from dataclasses import replace

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from lcdroplet import TriMesh, build_operators, build_structured_mesh, cli
from lcdroplet import config as cfg
from lcdroplet import energy as en
from lcdroplet import quadrature as quad
from lcdroplet.assembly import element_gradients, nodal_load, quad_values
from lcdroplet import solver as sv
from lcdroplet import verify
from lcdroplet.energy import ModelWeights
from lcdroplet.solver import (
    NewtonError,
    SchemeConfig,
    gradient_flow_step,
    make_state,
    normalized,
    tangent_space,
)


def small_problem(nx=8, **scheme_kw):
    c = cfg.preset("droplet_corner")
    c.mesh["nx"] = c.mesh["ny"] = nx
    for k, v in scheme_kw.items():
        c.scheme[k] = v
    return cfg.build_problem(c)


def constant_state(mesh, s_val=0.75, phi_val=1.0, n_dir=(1.0, 0.0)):
    s = np.full(mesh.n_nodes, s_val)
    n = np.tile(n_dir, (mesh.n_nodes, 1))
    phi = np.full(mesh.n_nodes, phi_val)
    return make_state(mesh, s, n, phi)


def director_stage(ops, state, weights, scheme):
    return sv.director_step(ops, sv.with_energy(ops, weights, state), weights, scheme)


def interface_stage(ops, state, s_new, n_new, weights, scheme):
    return sv.ch_step(ops, state, s_new, n_new, en.was_weights(ops, s_new, weights.s_star),
                      weights, scheme, sv.JacobianCache())


def s_stage(ops, state, n_new, weights, scheme):
    return sv.s_step(ops, sv.with_energy(ops, weights, state), n_new, weights, scheme,
                     en.eform_scalar_diag(ops, n_new), en.explicit_dw_load(ops, state.s.values))


# ---------------------------------------------------------------------------
# tangent frames
# ---------------------------------------------------------------------------

def test_tangent_space_examples():
    n = np.array([[1.0, 0.0], [0.0, 1.0]])
    t = tangent_space(n)
    assert np.allclose(t[0], [0.0, 1.0])
    assert np.allclose(t[1], [-1.0, 0.0])


def test_tangent_orthogonality(rng):
    theta = rng.uniform(0, 2 * np.pi, 50)
    n = np.column_stack([np.cos(theta), np.sin(theta)])
    t = tangent_space(n)
    assert np.abs(np.sum(n * t, axis=1)).max() <= 1e-15
    assert np.linalg.norm(t, axis=1) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# director step
# ---------------------------------------------------------------------------

def test_normalized_names_the_first_zero_row():
    with pytest.raises(ValueError) as err:
        normalized(np.array([[3.0, 4.0], [0.0, 0.0], [1e-15, 0.0], [0.0, 0.0]]))
    assert str(err.value) == "cannot normalize zero vector at node 1"
    assert np.array_equal(normalized(np.array([[3.0, 4.0], [0.0, -2.0]])),
                          [[0.6, 0.8], [0.0, -1.0]])


def test_director_step_zero_weights_identity():
    mesh = build_structured_mesh(4, 4)
    ops = build_operators(mesh)
    weights = ModelWeights(w_erk=0.0, w_wan=0.0, s_star=0.75)
    state = constant_state(mesh)
    n_tilde, n_new, v, _, _ = director_stage(
        ops, state, weights, SchemeConfig(tau=0.01, t_final=0.01)
    )
    assert np.allclose(n_tilde, state.n.values, atol=1e-14)
    assert np.allclose(n_new, state.n.values, atol=1e-14)


def test_director_step_pythagoras_and_drops():
    prob = small_problem(nx=8)
    # radial initial director makes the elastic term push hard
    c = cfg.preset("droplet_move")
    c.mesh["nx"] = c.mesh["ny"] = 8
    prob = cfg.build_problem(c)
    state = prob.initial
    n_tilde, n_new, v, _, _ = director_stage(prob.ops, state, prob.weights, prob.scheme)
    free = np.ones(prob.mesh.n_nodes, dtype=bool)
    free[prob.mesh.boundary_nodes] = False
    tau = prob.scheme.tau

    # tangency of the update at free nodes
    dots = np.sum((n_tilde - state.n.values) * state.n.values, axis=1)
    assert np.abs(dots[free]).max() <= 1e-12

    # |n~|^2 = 1 + tau^2 |v|^2 nodewise (activates the projection lemma)
    lhs = np.sum(n_tilde**2, axis=1)
    rhs = 1.0 + tau**2 * np.sum(v**2, axis=1)
    assert np.abs(lhs - rhs)[free].max() <= 1e-12
    assert np.all(lhs >= 1.0 - 1e-12)

    # normalization decreases both lumped forms
    s_prev = state.s.values
    gphi = element_gradients(prob.mesh, state.phi.values)
    drop_e = en.eform(prob.ops, s_prev, s_prev, n_tilde, n_tilde) - en.eform(
        prob.ops, s_prev, s_prev, n_new, n_new
    )
    drop_c = en.cform(
        prob.ops, n_tilde, gphi, n_tilde, gphi, s_prev, s_prev
    ) - en.cform(prob.ops, n_new, gphi, n_new, gphi, s_prev, s_prev)
    assert drop_e >= -1e-12
    assert drop_c >= -1e-12
    assert np.abs(np.linalg.norm(n_new, axis=1) - 1.0).max() <= 1e-12


# ---------------------------------------------------------------------------
# orientation step
# ---------------------------------------------------------------------------

def test_s_step_stationary_pure_state():
    # at s_star = 0.75 the double well is stationary and the pure state is
    # a fixed point of the orientation update
    mesh = build_structured_mesh(4, 4)
    ops = build_operators(mesh)
    weights = ModelWeights(w_dw=100.0, w_wan=20.0, w_was=20.0, s_star=0.75)
    state = constant_state(mesh)
    s_new, _, _ = s_stage(ops, state, state.n.values, weights, SchemeConfig())
    assert np.abs(s_new - 0.75).max() <= 1e-12


def test_s_step_small_tau_limit():
    prob = small_problem(nx=4)
    state = prob.initial
    scheme = SchemeConfig(tau=1e-9, t_final=1e-9)
    n_new = state.n.values
    s_new, _, _ = s_stage(prob.ops, state, n_new, prob.weights, scheme)
    assert np.abs(s_new - state.s.values).max() <= 1e-6


def test_s_step_quartic_well_dissipates():
    """The quartic double well, given by its quadratic split, goes
    through the one linear solve and dissipates at fixed (n, phi)."""
    mesh = build_structured_mesh(4, 4)
    ops = build_operators(mesh)
    w = ModelWeights(w_dw=100.0, w_wan=5.0, w_was=5.0, s_star=0.75)
    rng = np.random.default_rng(5)
    phi = rng.uniform(-1, 1, mesh.n_nodes)
    s0 = np.clip(0.75 + 0.05 * rng.standard_normal(mesh.n_nodes), 0.6, 0.9)
    s0[mesh.boundary_nodes] = 0.75
    n = np.tile([1.0, 0.0], (mesh.n_nodes, 1))
    state = make_state(mesh, s0, n, phi)
    scheme = SchemeConfig(tau=0.002, t_final=0.002)
    s_new, _, _ = s_stage(ops, state, n, w, scheme)
    assert np.all(np.isfinite(s_new))
    assert np.abs(s_new[mesh.boundary_nodes] - 0.75).max() <= 1e-14
    e_before = en.total_energy(ops, w, s0, n, phi).total
    e_after = en.total_energy(ops, w, s_new, n, phi).total
    assert e_after <= e_before + 1e-11


# ---------------------------------------------------------------------------
# interface step
# ---------------------------------------------------------------------------

def test_ch_step_pure_phase_immediate():
    mesh = build_structured_mesh(4, 4)
    ops = build_operators(mesh)
    weights = ModelWeights(w_wan=0.0, w_was=0.0, s_star=0.75)
    state = constant_state(mesh, phi_val=1.0)
    phi, mu, hist, _ = interface_stage(
        ops, state, state.s.values, state.n.values, weights, SchemeConfig()
    )
    assert len(hist) - 1 <= 1
    assert np.allclose(phi, 1.0, atol=1e-12)
    assert np.abs(mu).max() <= 1e-12


def test_ch_step_mass_conservation(rng):
    prob = small_problem(nx=8)
    state = prob.initial
    rows = prob.ops.mass @ np.ones(prob.mesh.n_nodes)
    phi, mu, hist, _ = interface_stage(
        prob.ops, state, state.s.values, state.n.values, prob.weights, prob.scheme
    )
    assert abs(rows @ (phi - state.phi.values)) <= 1e-10


def test_ch_step_takes_the_mass_out_of_inexact_updates():
    """The exact Newton update of phi has no mass, as the phi-row
    conserves it; ch_step takes out the mass of an inexact update, so a
    linear solve that adds mass costs none."""
    class AddsMass(sv.JacobianCache):
        def solve(self, J, rhs, rtol):
            x = super().solve(J, rhs, rtol)
            x[: x.size // 2] += 1e-6
            return x

    prob = small_problem(nx=8)
    state = prob.initial
    s, n = state.s.values, state.n.values
    phi, *_ = sv.ch_step(prob.ops, state, s, n, en.was_weights(prob.ops, s, prob.weights.s_star),
                         prob.weights, prob.scheme, AddsMass())
    assert abs(prob.ops.mass_rows @ (phi - state.phi.values)) <= 1e-14


def test_ch_step_quadratic_newton_convergence():
    """The residual history contracts superlinearly: the signature of an
    exact Jacobian."""
    c = cfg.preset("droplet_move")
    c.mesh["nx"] = c.mesh["ny"] = 16
    prob = cfg.build_problem(c)
    state = prob.initial
    n_tilde, n_new, _, _, _ = director_stage(prob.ops, state, prob.weights, prob.scheme)
    s_new, _, _ = s_stage(prob.ops, state, n_new, prob.weights, prob.scheme)
    phi, mu, hist, _ = interface_stage(
        prob.ops, state, s_new, n_new, prob.weights, prob.scheme
    )
    assert hist[-1] <= prob.scheme.newton_res_tol
    assert len(hist) <= 6
    assert all(hist[k + 1] < hist[k] for k in range(len(hist) - 1))
    tail = [r for r in hist if r <= 1.0]
    assert len(tail) >= 2
    for a, b in zip(tail, tail[1:]):
        assert b <= 0.5 * a**1.7


def test_ch_step_factors_kept_across_steps_match_fresh_ones():
    """Newton on LU factors kept from earlier steps reaches the same
    iterate as Newton that factors anew in every step, and over several
    steps factors far fewer Jacobians than it solves."""
    c = cfg.preset("droplet_collide")
    c.mesh["nx"] = c.mesh["ny"] = 16
    c.weights["w_chdw"] = 100.0
    prob = cfg.build_problem(c)
    cache = sv.JacobianCache()
    fresh = kept = prob.initial
    solves = 0
    for _ in range(10):
        fresh, _ = gradient_flow_step(
            prob.ops, fresh, prob.weights, prob.scheme
        )
        kept, rep = gradient_flow_step(
            prob.ops, kept, prob.weights, prob.scheme, cache=cache
        )
        solves += rep.newton_iters
        assert abs(rep.closed_budget_residual) <= 1e-10
    assert np.abs(kept.phi.values - fresh.phi.values).max() <= 1e-7
    assert np.abs(kept.mu.values - fresh.mu.values).max() <= 1e-5
    assert 1 <= cache.factorizations < solves


def test_newton_solves_stop_at_a_tenth_of_the_newton_tolerance(monkeypatch):
    """No Newton solve asks for a linear residual below a tenth of the
    Newton tolerance.  Asking for less runs GMRES past MAX_KRYLOV on the
    kept factors and refactors: with the floor, the flow that ``verify``
    audits (16^2, 25 steps) factors S at most twice."""
    problem = verify._corner_problem()
    tol = problem.scheme.newton_res_tol
    asked = []  # (rtol, |R|) of every solve
    solve = sv.JacobianCache.solve

    def recording(self, J, rhs, rtol):
        asked.append((rtol, float(np.linalg.norm(rhs))))
        return solve(self, J, rhs, rtol)

    monkeypatch.setattr(sv.JacobianCache, "solve", recording)
    _, reports, _ = verify.flow_trajectory(problem)
    assert len(asked) == sum(rep.newton_iters for rep in reports)
    assert all(rtol * res >= 0.1 * tol * (1 - 1e-12) for rtol, res in asked)
    # the floor is what sets the last solves of a step
    assert any(rtol > sv._NEWTON_FORCING * res for rtol, res in asked)
    assert sum(rep.factorizations for rep in reports) <= 2


def test_step_reports_carry_the_interface_solver_work(monkeypatch):
    """Each StepReport holds its Newton residual history and its GMRES
    iterations and factorizations of S, which over a run sum to the
    counters of the run's one cache."""
    caches = []

    class Recorded(sv.JacobianCache):
        def __init__(self):
            super().__init__()
            caches.append(self)

    monkeypatch.setattr(sv, "JacobianCache", Recorded)
    prob = small_problem(nx=8, t_final=0.02)
    reports = []

    class Collector:
        def on_step(self, state, report):
            reports.append(report)

    sv.run(prob.ops, prob.initial, prob.weights, prob.scheme, prob.bc, [Collector()])
    (cache,) = caches
    assert len(reports) == 10
    for rep in reports:
        assert len(rep.newton_history) == rep.newton_iters + 1
        assert rep.newton_history[-1] <= prob.scheme.newton_res_tol
        assert rep.krylov_iterations >= rep.newton_iters
    assert sum(rep.krylov_iterations for rep in reports) == cache.krylov_iterations
    assert sum(rep.factorizations for rep in reports) == cache.factorizations >= 1
    # a step without a cache starts from a fresh factorization
    _, rep = gradient_flow_step(prob.ops, prob.initial, prob.weights, prob.scheme)
    assert rep.factorizations == 1


def ch_system(nx=16):
    """The interface Jacobian of droplet_collide in its droplet regime as a
    function of phi, the initial phi, and the right-hand side of the first
    Newton system there."""
    c = cfg.preset("droplet_collide")
    c.mesh["nx"] = c.mesh["ny"] = nx
    c.weights["w_chdw"] = 100.0
    prob = cfg.build_problem(c)
    ops, weights, state, tau = prob.ops, prob.weights, prob.initial, prob.scheme.tau
    phi = state.phi.values
    a = en.was_weights(ops, state.s.values, weights.s_star)
    A0 = en.ch_step_matrix(ops, weights, state.s.values, state.n.values, a)

    def jacobian(p):
        return sv.InterfaceJacobian(ops.mass, ops.stiffness, en.jacobian_ch(ops, weights, p, A0),
                                    ops.mass_rows, weights.eps, tau)

    *_, R = sv.ch_step(ops, state, state.s.values, state.n.values, a, weights,
                       replace(prob.scheme, newton_res_tol=np.inf), sv.JacobianCache())
    return jacobian, phi, -R


def nearby_systems(seed=0):
    """An interface Jacobian, one at a phi perturbed by 1e-3, and a random
    right-hand side."""
    jacobian, phi, b = ch_system()
    rng = np.random.default_rng(seed)
    near = jacobian(phi + 1e-3 * rng.standard_normal(phi.size))
    return jacobian(phi), near, rng.standard_normal(b.size)


def test_jacobian_cache_refactors_when_gmres_stalls():
    jacobian, phi, _ = ch_system()
    base, near, b = nearby_systems()
    cache = sv.JacobianCache()
    x = cache.solve(base, b, 1e-10)
    assert cache.factorizations == 1
    assert np.linalg.norm(base @ x - b) <= 1e-10 * np.linalg.norm(b)
    # a nearby Jacobian is solved on the stored factors
    x = cache.solve(near, b, 1e-8)
    assert cache.factorizations == 1
    assert np.linalg.norm(near @ x - b) <= 1e-8 * np.linalg.norm(b)
    # the Jacobian at a far phi needs more GMRES iterations and is refactored
    far = jacobian(np.zeros_like(phi))
    x = cache.solve(far, b, 1e-10)
    assert cache.factorizations == 2
    assert np.linalg.norm(far @ x - b) <= 1e-10 * np.linalg.norm(b)


class CountingFactor:
    """LU factors that count their triangular solves."""

    def __init__(self, lu):
        self._lu = lu
        self.shape = lu.shape
        self.solves = 0

    def solve(self, b):
        self.solves += 1
        return self._lu.solve(b)


def cache_on(J):
    """A cache holding the factors of J's preconditioner, which count their
    solves, with its counters at 0."""
    cache = sv.JacobianCache()
    cache.solve(J, np.ones(2 * J.lumped.size), 1e-4)  # factors P
    cache.lu = CountingFactor(cache.lu)
    cache.factorizations = cache.krylov_iterations = 0
    return cache


def test_jacobian_cache_one_lu_solve_per_krylov_iteration():
    base, near, b = nearby_systems()
    cache = cache_on(base)
    x = cache.solve(near, b, 1e-10)
    assert cache.factorizations == 0
    assert 1 < cache.krylov_iterations <= sv.JacobianCache.MAX_KRYLOV
    # no solve to check the residual or to map the solution back
    assert cache.lu.solves == cache.krylov_iterations
    assert np.linalg.norm(near @ x - b) <= 1e-10 * np.linalg.norm(b)


def test_jacobian_cache_releases_stale_factors_before_refactoring(monkeypatch):
    """A refactorization drops the kept factors before SuperLU builds their
    replacement, and hands it S already in single precision: one set of
    factors and no double S are alive while it works."""
    jacobian, phi, _ = ch_system()
    base, _, b = nearby_systems()
    cache = cache_on(base)
    stale = weakref.ref(cache.lu)
    splu, calls = spla.splu, []

    def splu_after_release(A, **kwargs):
        assert stale() is None and cache.factored is None
        assert (A.format, A.dtype) == ("csc", np.float32)
        calls.append(A.shape)
        return splu(A, **kwargs)

    monkeypatch.setattr(sv.spla, "splu", splu_after_release)
    far = jacobian(np.zeros_like(phi))  # refactored, as when GMRES stalls
    x = cache.solve(far, b, 1e-10)
    assert calls == [base.B.shape] and cache.factorizations == 1
    assert np.linalg.norm(far @ x - b) <= 1e-10 * np.linalg.norm(b)


def test_jacobian_cache_happy_breakdown():
    """When J is its own preconditioner (a diagonal mass, so M = M_L) and
    the factors are exact (diagonal blocks of powers of two), the first
    iteration solves the system; with exact arithmetic the new Arnoldi
    vector is zero, and nothing divides by it."""
    M = sp.diags(2.0 ** np.arange(-3, 5)).tocsr()
    J = sv.InterfaceJacobian(M, M, 2.0 * M, M.diagonal(), 1.0, 0.5)  # S = 4 M
    both = np.zeros(16)
    both[[1, 4, 9, 14]] = [1.0, -1.0, 1.0, -1.0]  # norm 2: its Arnoldi vector is exact too
    with np.errstate(all="raise"):
        for rhs in (np.eye(16)[2] * 3.0, both):
            cache = cache_on(J)
            x = cache.solve(J, rhs, 1e-12)
            assert (cache.factorizations, cache.krylov_iterations, cache.lu.solves) == (0, 1, 1)
            assert np.linalg.norm(J @ x - rhs) <= 1e-12 * np.linalg.norm(rhs)


def test_jacobian_cache_zero_rhs_returns_zeros():
    base, near, _ = nearby_systems()
    cache = cache_on(base)
    x = cache.solve(near, np.zeros(2 * near.lumped.size), 1e-8)
    assert np.array_equal(x, np.zeros(2 * near.lumped.size))
    assert (cache.factorizations, cache.krylov_iterations, cache.lu.solves) == (0, 0, 0)


@pytest.mark.parametrize("rtol", [1e-4, 1e-8, 1e-10])
def test_jacobian_cache_accepts_only_true_residual_within_rtol(rtol):
    base, near, b = nearby_systems()
    cache = cache_on(base)
    x = cache.solve(near, b, rtol)
    assert cache.factorizations == 0
    assert np.linalg.norm(b - near @ x) <= rtol * np.linalg.norm(b)


@pytest.mark.parametrize("rtol", [1e-4, 1e-12])
def test_jacobian_cache_fresh_single_precision_factors(rtol):
    """A refactored preconditioner is factored in single precision, and
    GMRES on the fresh factors still reaches the requested
    double-precision tolerance in a few iterations: two at 1e-4; at
    1e-12 five, because the lumped mass makes P differ from J."""
    jacobian, phi, b = ch_system()
    J = jacobian(phi)
    cache = sv.JacobianCache()
    x = cache.solve(J, b, rtol)
    assert cache.factorizations == 1
    assert cache.lu.L.dtype == np.float32
    assert 1 <= cache.krylov_iterations <= {1e-4: 3, 1e-12: 5}[rtol]
    assert x.dtype == np.float64
    assert np.linalg.norm(b - J @ x) <= rtol * np.linalg.norm(b)


def test_jacobian_cache_applies_the_inverse_preconditioner():
    """P apply(v) = v to single precision, for the preconditioner
    P = [[M/tau, eps K], [B, -M_L]] of the factored Jacobian: the single
    precision solve with S leaves about 6e-6 of |v|."""
    jacobian, phi, _ = ch_system()
    J = jacobian(phi)
    cache = sv.JacobianCache()
    cache.solve(J, np.ones(2 * J.lumped.size), 1e-4)  # factors P
    P = sp.bmat([[J.M / J.tau, J.eps * J.K], [J.B, -sp.diags(J.lumped)]], format="csr")
    v = np.random.default_rng(1).standard_normal(P.shape[0])
    z = cache.apply(v)
    assert z.dtype == np.float64
    assert np.linalg.norm(P @ z - v) <= 1e-4 * np.linalg.norm(v)


def test_ch_step_newton_failure_reports_history():
    prob = small_problem(nx=4)
    scheme = SchemeConfig(
        tau=0.002, t_final=0.002, newton_res_tol=1e-30, newton_max_iter=2,
    )
    state = prob.initial
    with pytest.raises(NewtonError) as err:
        interface_stage(
            prob.ops, state, state.s.values, state.n.values, prob.weights, scheme
        )
    assert len(err.value.residual_history) >= 1


# ---------------------------------------------------------------------------
# full step and flow
# ---------------------------------------------------------------------------

def test_step_energy_decreases_move_preset():
    c = cfg.preset("droplet_move")
    c.mesh["nx"] = c.mesh["ny"] = 16
    prob = cfg.build_problem(c)
    state, rep = gradient_flow_step(
        prob.ops, prob.initial, prob.weights, prob.scheme
    )
    assert rep.after.total < rep.before.total
    assert min(rep.dissipation.values()) >= -1e-12
    scale = max(abs(rep.before.total), 1.0)
    assert abs(rep.budget_residual) <= 1e-9 * scale


def test_step_zero_weights_freezes_state():
    mesh = build_structured_mesh(4, 4)
    ops = build_operators(mesh)
    weights = ModelWeights(
        w_erk=0, w_dw=0, w_chdw=0, w_chgd=0, w_wan=0, w_was=0, s_star=0.75
    )
    rng = np.random.default_rng(3)
    s0 = rng.uniform(0.2, 0.8, mesh.n_nodes)
    s0[mesh.boundary_nodes] = 0.75
    theta = rng.uniform(0, 2 * np.pi, mesh.n_nodes)
    n0 = np.column_stack([np.cos(theta), np.sin(theta)])
    n0[mesh.boundary_nodes] = [1.0, 0.0]
    phi0 = rng.uniform(-1, 1, mesh.n_nodes)
    state = make_state(mesh, s0, n0, phi0, mu=rng.standard_normal(mesh.n_nodes))
    new, rep = gradient_flow_step(ops, state, weights, SchemeConfig())
    assert np.allclose(new.s.values, s0, atol=1e-10)
    assert np.allclose(new.n.values, n0, atol=1e-10)
    assert np.allclose(new.phi.values, phi0, atol=1e-10)
    assert np.abs(new.mu.values).max() <= 1e-10


def test_equilibrium_steps_are_flat():
    """After relaxing the coarse cornering scenario, further steps change
    the energy only at roundoff level."""
    prob = small_problem(nx=8, tau=0.01, t_final=3.0)
    state = prob.initial
    for _ in range(300):
        state, rep = gradient_flow_step(
            prob.ops, state, prob.weights, prob.scheme
        )
    for _ in range(2):
        state, rep = gradient_flow_step(
            prob.ops, state, prob.weights, prob.scheme
        )
        rel = abs(rep.after.total - rep.before.total) / abs(rep.before.total)
        assert rel <= 1e-12


def test_run_zero_final_time_returns_initial():
    prob = small_problem(nx=4, t_final=0.0)
    final = sv.run(
        prob.ops, prob.initial, prob.weights, prob.scheme, prob.bc
    )
    assert final is prob.initial


def test_run_streams_reports_and_conserves_mass():
    prob = small_problem(nx=8, t_final=0.04)
    seen = []

    class Collector:
        def on_start(self, state, energy_report):
            seen.append(("start", state.step_index, energy_report.total))

        def on_step(self, state, report):
            seen.append(("step", state.step_index, report.after.total))

        def on_finish(self, state):
            seen.append(("finish", state.step_index, None))

    final = sv.run(
        prob.ops, prob.initial, prob.weights, prob.scheme, prob.bc, [Collector()]
    )
    kinds = [k for k, _, _ in seen]
    assert kinds[0] == "start" and kinds[-1] == "finish"
    assert kinds.count("step") == 20
    assert final.step_index == 20
    totals = [t for k, _, t in seen if k == "step"]
    assert all(b <= a + 1e-11 for a, b in zip(totals, totals[1:]))


def test_unit_norm_after_steps():
    prob = small_problem(nx=8, t_final=0.01)
    state = prob.initial
    for _ in range(5):
        state, _ = gradient_flow_step(
            prob.ops, state, prob.weights, prob.scheme
        )
        norms = np.linalg.norm(state.n.values, axis=1)
        assert np.abs(norms - 1.0).max() <= 1e-12


def test_cg_solver_matches_direct():
    """The default SPD solves (conjugate gradients) agree with the direct
    reference."""
    prob = small_problem(nx=8, t_final=0.002)
    assert prob.scheme.linear_solver == "cg"
    viacg, _ = gradient_flow_step(
        prob.ops, prob.initial, prob.weights, prob.scheme
    )
    prob_lu = small_problem(nx=8, t_final=0.002, linear_solver="direct")
    direct, _ = gradient_flow_step(
        prob_lu.ops, prob_lu.initial, prob_lu.weights, prob_lu.scheme
    )
    assert np.abs(viacg.s.values - direct.s.values).max() <= 1e-8
    assert np.abs(viacg.n.values - direct.n.values).max() <= 1e-8


def test_spd_residuals_close_the_budget(monkeypatch):
    """With loose conjugate-gradient solves the budget is open by far more
    than roundoff, and charging the director and s residuals (paired with
    tau v and ds) closes it to roundoff.  The Newton tolerance is tight so
    that the open residual is the SPD solves' own."""
    c = cfg.merge_config(cfg.preset("droplet_collide"), None, [
        "mesh.nx=32", "mesh.ny=32", "weights.w_chdw=100", "scheme.t_final=0.02",
        "scheme.newton_res_tol=1e-11",
    ])
    monkeypatch.setattr(sv, "CG_RTOL", 1e-8)
    prob = cfg.build_problem(c)
    reports = []

    class Collector:
        def on_step(self, state, report):
            reports.append(report)

    sv.run(prob.ops, prob.initial, prob.weights, prob.scheme, prob.bc, [Collector()])
    assert len(reports) == 10
    for rep in reports:
        scale = max(abs(rep.before.total), abs(rep.after.total), 1.0)
        assert abs(rep.closed_budget_residual) <= 1e-15 * scale
        assert abs(rep.budget_residual) > 1e-12 * scale


def test_perturbed_spd_solutions_are_charged(monkeypatch):
    """Conjugate gradients from a zero start leaves a director residual
    orthogonal to its solution, so the director's charge is roundoff in
    a real run.  Perturbed solutions of both SPD systems show that each
    residual is paired with its stage's test function with the right
    sign."""
    solve = sv._solve_spd
    rng = np.random.default_rng(3)

    def perturbed(A, b, config, stage):
        x, _, its = solve(A, b, config, stage)
        x = x + 1e-6 * rng.standard_normal(x.shape)
        return x, b - A @ x, its

    monkeypatch.setattr(sv, "_solve_spd", perturbed)
    prob = small_problem(nx=8, newton_res_tol=1e-11)
    state = prob.initial
    for _ in range(3):
        state, rep = gradient_flow_step(
            prob.ops, state, prob.weights, prob.scheme
        )
        scale = max(abs(rep.before.total), abs(rep.after.total), 1.0)
        assert abs(rep.closed_budget_residual) <= 1e-15 * scale
        assert abs(rep.budget_residual) > 1e-9 * scale


def test_singular_spd_system_is_a_step_error():
    A = sp.csr_matrix((3, 3))
    with pytest.raises(sv.StepError, match="^director solve: Factor is exactly singular"):
        sv._solve_spd(A, np.ones(3), SchemeConfig(linear_solver="direct"), "director")


def collide16():
    return cfg.build_problem(cfg.merge_config(cfg.preset("droplet_collide"), None,
                                              ["mesh.nx=16", "mesh.ny=16"]))


def test_cg_is_scipy_cg_and_counts_its_iterations(monkeypatch):
    """On the director and s systems of one droplet_collide step, the
    conjugate-gradient loop returns scipy's cg solution bit for bit, and
    ``cg_iterations`` counts what a cg callback counts; (0, 0) with the
    direct solver."""
    prob, systems = collide16(), []
    solve = sv._solve_spd

    def recorded(A, b, config, stage):
        x, r, its = solve(A, b, config, stage)
        systems.append((stage, A, b, x, its))
        return x, r, its

    monkeypatch.setattr(sv, "_solve_spd", recorded)
    _, rep = gradient_flow_step(prob.ops, prob.initial, prob.weights, prob.scheme)
    assert [stage for stage, *_ in systems] == ["director", "s"]
    counts = []
    for _, A, b, x, its in systems:
        calls = []
        ref, info = spla.cg(A, b, rtol=sv.CG_RTOL, atol=0.0, maxiter=sv.CG_MAXITER,
                            callback=lambda xk: calls.append(1))
        assert info == 0 and np.array_equal(x, ref)
        assert its == len(calls) > 0
        counts.append(its)
    assert rep.cg_iterations == tuple(counts)
    direct = replace(prob.scheme, linear_solver="direct")
    _, rep = gradient_flow_step(prob.ops, prob.initial, prob.weights, direct)
    assert rep.cg_iterations == (0, 0)


def test_cg_out_of_iterations_names_stage_iterations_and_residual(monkeypatch):
    monkeypatch.setattr(sv, "CG_MAXITER", 3)
    prob = collide16()
    with pytest.raises(sv.StepError, match=r"^director solve: 3 conjugate-gradient iterations "
                       r"left the relative residual at \d\.\d{3}e-0\d, above CG_RTOL = 1e-12$"):
        gradient_flow_step(prob.ops, prob.initial, prob.weights, prob.scheme)


def diagonal_jacobian(m, k, b):
    """The interface Jacobian with diagonal blocks M, K and B, M_L = 1 and
    eps = tau = 1."""
    M, K, B = (sp.diags(np.asarray(d, dtype=float)).tocsr() for d in (m, k, b))
    return sv.InterfaceJacobian(M, K, B, np.ones(M.shape[0]), 1.0, 1.0)


def test_singular_jacobian_is_a_step_error():
    # S = M/tau + eps K M_L^{-1} B = 0
    J = diagonal_jacobian(np.zeros(4), np.zeros(4), np.zeros(4))
    with pytest.raises(sv.StepError, match="^interface solve: Factor is exactly singular"):
        sv.JacobianCache().solve(J, np.ones(8), 1e-8)


def test_singular_jacobian_on_kept_factors_is_a_step_error():
    cache = cache_on(diagonal_jacobian(np.ones(3), np.zeros(3), np.zeros(3)))
    # P^{-1} maps the right-hand side to z = (e_1, 0), and J z = 0
    J = diagonal_jacobian([1.0, 0.0, 2.0], np.zeros(3), np.zeros(3))
    with pytest.raises(sv.StepError, match="^interface solve: .*singular"):
        cache.solve(J, np.eye(6)[1], 1e-8)


def test_failed_refactorization_leaves_the_cache_empty():
    # kept factors of another size go straight to the refactorization
    cache = cache_on(diagonal_jacobian(np.ones(3), np.zeros(3), np.zeros(3)))
    singular = diagonal_jacobian(np.zeros(4), np.zeros(4), np.zeros(4))  # S = 0
    with pytest.raises(sv.StepError, match="^interface solve: Factor is exactly singular"):
        cache.solve(singular, np.ones(8), 1e-8)
    assert cache.lu is None and cache.factored is None
    good = diagonal_jacobian(np.full(4, 2.0), np.ones(4), np.ones(4))  # S = 3 I
    b = np.arange(1.0, 9.0)
    x = cache.solve(good, b, 1e-8)
    assert cache.factorizations == 1 and cache.factored is good
    assert np.linalg.norm(good @ x - b) <= 1e-8 * np.linalg.norm(b)


def test_state_off_the_boundary_data_is_rejected():
    prob = small_problem(nx=8, t_final=0.0)  # s = s_star and n = (1, 0) on the boundary
    b, (s_bc, n_bc) = prob.mesh.boundary_nodes, prob.bc
    s_off = (np.full(b.size, 0.5), n_bc)
    n_off = (s_bc, np.tile([0.0, 1.0], (b.size, 1)))
    # a director that is not unit cannot be the state's
    n_long = (s_bc, np.tile([1.0, 0.5], (b.size, 1)))
    for off, field in ((s_off, "s"), (n_off, "n"), (n_long, "n")):
        with pytest.raises(ValueError, match=f"boundary data: {field} at node {b[0]} is "):
            sv.run(prob.ops, prob.initial, prob.weights, prob.scheme, off)
    # normalized directors may differ in their last bits
    near = (s_bc, normalized(n_bc + [0.0, 1e-13]))
    sv.run(prob.ops, prob.initial, prob.weights, prob.scheme, near)


@pytest.mark.parametrize("field", ["s", "n"])
def test_boundary_data_of_the_wrong_length_is_rejected(field):
    prob = small_problem(nx=8, t_final=0.0)
    nb = prob.mesh.boundary_nodes.size
    short = tuple(v[:-1] if name == field else v for name, v in zip("sn", prob.bc))
    with pytest.raises(ValueError, match=f"^bc gives {nb - 1} values of {field} for the "
                                         f"{nb} boundary nodes of the mesh$"):
        sv.run(prob.ops, prob.initial, prob.weights, prob.scheme, short)
    # a pair one node short in both fields, s checked first
    with pytest.raises(ValueError, match=f"^bc gives {nb - 1} values of s "):
        sv.run(prob.ops, prob.initial, prob.weights, prob.scheme,
               tuple(v[:-1] for v in prob.bc))


@pytest.mark.parametrize("linear_solver", ["cg", "direct"])
def test_run_keeps_the_initial_boundary_values(linear_solver):
    """The flow keeps the boundary values of the state it starts from: s
    bit for bit, and the director up to its renormalization, while the
    interior moves."""
    c = cfg.merge_config(cfg.preset("droplet_move"), None, [
        "mesh.nx=8", "mesh.ny=8", "scheme.t_final=0.04", "bc.s=0.6 + 0.1*x",
        f"scheme.linear_solver={linear_solver}",
    ])
    prob = cfg.build_problem(c)
    b, (s_bc, n_bc) = prob.mesh.boundary_nodes, prob.bc
    steps = []

    class Collector:
        def on_step(self, state, report):
            steps.append(state)

    final = sv.run(prob.ops, prob.initial, prob.weights, prob.scheme, prob.bc, [Collector()])
    assert len(steps) == 20 and final is steps[-1]
    for state in steps:
        assert np.array_equal(state.s.values[b], s_bc)
        assert np.abs(state.n.values[b] - n_bc).max() <= 1e-12
    interior = np.setdiff1d(np.arange(prob.mesh.n_nodes), b)
    assert np.abs(final.s.values[interior] - prob.initial.s.values[interior]).max() > 1e-6


def test_scheme_config_validation():
    with pytest.raises(ValueError):
        SchemeConfig(tau=0.0)
    with pytest.raises(ValueError):
        SchemeConfig(linear_solver="lu")


@pytest.mark.parametrize("t_final", [1e306])
def test_t_final_off_the_step_grid_rejected(t_final):
    """A t_final whose step count t_final / tau overflows is no step grid."""
    with pytest.raises(ValueError, match=r"t_final = .* tau = 0\.002"):
        SchemeConfig(tau=0.002, t_final=t_final)


class StepLog:
    """A sink keeping the step index, the time and the report of each step."""

    def __init__(self):
        self.steps, self.times, self.reports = [], [], []

    def on_step(self, state, report):
        self.steps.append(state.step_index)
        self.times.append(state.time)
        self.reports.append(report)


@pytest.mark.parametrize("tau,t_final,steps", [(0.002, 0.05, 25), (0.1, 0.3, 3),
                                               (0.002, 0.0, 0)])
def test_run_counts_whole_steps_from_the_span(tau, t_final, steps):
    """0.05 / 0.002 = 25.000000000000004 and 0.3 / 0.1 = 2.9999999999999996
    are whole numbers of steps to ``run``'s 1e-9, so no remainder step
    follows them, and every step has the config's tau."""
    problem = small_problem(nx=4, tau=tau, t_final=t_final)
    log = StepLog()
    final = sv.run(problem.ops, problem.initial, problem.weights, problem.scheme,
                   problem.bc, [log])
    assert log.steps == list(range(1, steps + 1)) and final.step_index == steps
    assert final.time == pytest.approx(t_final, rel=1e-12)
    times = [0.0] + log.times
    assert all(b - a == pytest.approx(tau, rel=1e-9) for a, b in zip(times, times[1:]))


def test_a_span_off_the_step_grid_ends_exactly_at_t_final():
    """t_final = 0.005 at tau = 0.002 is two whole steps and a last step of
    0.001, after which the state's time is 0.005 exactly; the energy law
    holds over all three, the shorter step included."""
    problem = small_problem(nx=16, tau=0.002, t_final=0.005, newton_res_tol=1e-11)
    log = StepLog()
    final = sv.run(problem.ops, problem.initial, problem.weights, problem.scheme,
                   problem.bc, [log])
    assert log.steps == [1, 2, 3] and final.time == 0.005
    assert log.times[-1] - log.times[-2] == pytest.approx(0.001, rel=1e-12)
    e0 = sv.with_energy(problem.ops, problem.weights, problem.initial).energy.total
    audit = verify.energy_law_audit(e0, log.reports)
    assert audit.passed, audit


def test_make_state_rejects_phi_of_another_mesh():
    m1 = build_structured_mesh(2, 2)
    m2 = build_structured_mesh(3, 3)
    s = np.full(m1.n_nodes, 0.75)
    n = np.tile([1.0, 0.0], (m1.n_nodes, 1))
    with pytest.raises(ValueError, match=r"^phi needs shape \(9,\), got \(16,\)$"):
        make_state(m1, s, n, np.zeros(m2.n_nodes))


def _corner_8(*sets):
    """droplet_corner on 8 x 8 cells, two steps."""
    return cfg.build_problem(cfg.merge_config(cfg.preset("droplet_corner"), None, [
        "mesh.nx=8", "mesh.ny=8", "scheme.t_final=0.004", *sets]))


@pytest.mark.parametrize("other,message", [
    # 8 x 8 cells on [0, 2]^2: the shapes agree, so nothing else would
    # stop a run from taking these nodes for those of ops.mesh
    (lambda m: build_structured_mesh(8, 8, ((0.0, 0.0), (2.0, 2.0))),
     "state is not on ops.mesh: its nodes, of shape (81, 2), differ from those of ops.mesh, "
     "of shape (81, 2)"),
    (lambda m: build_structured_mesh(2, 2),
     "state is not on ops.mesh: its nodes, of shape (9, 2), differ from those of ops.mesh, "
     "of shape (81, 2)"),
    (lambda m: TriMesh(m.nodes, m.elements[::-1]),
     "state is not on ops.mesh: its elements, of shape (128, 3), differ from those of "
     "ops.mesh, of shape (128, 3)"),
], ids=["domain [0, 2]^2", "2 x 2 cells", "elements reordered"])
def test_run_and_step_reject_a_state_of_another_mesh(other, message):
    prob = _corner_8()
    mesh = other(prob.mesh)
    s = np.full(mesh.n_nodes, 0.75)
    n = np.tile([1.0, 0.0], (mesh.n_nodes, 1))
    alien = make_state(mesh, s, n, np.zeros(mesh.n_nodes))
    for call in (lambda: sv.run(prob.ops, alien, prob.weights, prob.scheme, prob.bc),
                 lambda: gradient_flow_step(prob.ops, alien, prob.weights, prob.scheme)):
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == message


def test_run_keeps_a_state_on_an_equal_mesh():
    """A state on a mesh equal to ops.mesh, not the same object, runs as
    one on ops.mesh does, and every state the sinks see is on its mesh."""
    prob = _corner_8()
    twin = TriMesh(prob.mesh.nodes, prob.mesh.elements)
    meshes = []

    class Meshes:
        def on_start(self, state, energy_report):
            meshes.append(state.mesh)

        def on_step(self, state, report):
            meshes.append(state.mesh)

    i = prob.initial
    initial = make_state(twin, i.s.values, i.n.values, i.phi.values)
    final = sv.run(prob.ops, initial, prob.weights, prob.scheme, prob.bc, [Meshes()])
    assert len(meshes) == 3 and all(m is twin for m in meshes)
    reference = sv.run(prob.ops, prob.initial, prob.weights, prob.scheme, prob.bc)
    for name in ("s", "n", "phi", "mu"):
        assert np.array_equal(getattr(final, name).values, getattr(reference, name).values)


@pytest.mark.parametrize("shape", [(9,), (9, 3), (2, 9), (8, 2)])
def test_make_state_rejects_misshapen_director(shape):
    mesh = build_structured_mesh(2, 2)
    n = np.zeros(shape)
    n[..., 0] = 1.0
    with pytest.raises(ValueError, match=rf"^n needs shape \(9, 2\), got {re.escape(str(shape))}$"):
        make_state(mesh, np.full(9, 0.75), n, np.zeros(9))


def test_make_state_checks_unit_director_to_1e_12():
    mesh = build_structured_mesh(2, 2)
    s, phi = np.full(9, 0.75), np.zeros(9)
    n = np.tile([1.0, 0.0], (9, 1))
    n[4, 0] += 1e-9
    with pytest.raises(ValueError, match=r"^n violates nodal unit length by 1\.000e-09$"):
        make_state(mesh, s, n, phi)
    n[4, 0] = 1.0 + 1e-13
    state = make_state(mesh, s, n, phi)
    assert state.mesh is mesh and np.array_equal(state.n.values, n)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("field", ["s", "n", "phi", "mu"])
def test_make_state_rejects_non_finite_fields(field, bad):
    """A NaN or an infinity anywhere, also in one component of a director
    whose other component is 1, is a ValueError naming the field and the
    first node that holds one."""
    mesh = build_structured_mesh(2, 2)
    fields = {"s": np.full(9, 0.75), "n": np.tile([1.0, 0.0], (9, 1)),
              "phi": np.zeros(9), "mu": np.zeros(9)}
    for node in (7, 5):
        if field == "n":
            fields["n"][node, 1] = bad
        else:
            fields[field][node] = bad
    with pytest.raises(ValueError, match=rf"^{field} is not finite at node 5$"):
        make_state(mesh, **fields)


@pytest.mark.parametrize("time", [np.inf, np.nan])
def test_make_state_rejects_a_non_finite_time(time):
    mesh = build_structured_mesh(2, 2)
    with pytest.raises(ValueError, match=rf"^time must be finite, got {time!r}$"):
        make_state(mesh, np.full(9, 0.75), np.tile([1.0, 0.0], (9, 1)), np.zeros(9), time=time)


def test_load_state_rejects_a_nan_director(tmp_path):
    """``cli.load_state`` reaches ``make_state`` with no check of its own."""
    mesh = build_structured_mesh(2, 2)
    n = np.tile([1.0, 0.0], (9, 1))
    n[3] = np.nan
    np.savez(tmp_path / "state.npz", s=np.full(9, 0.75), n=n, phi=np.zeros(9),
             mu=np.zeros(9), time=0.0, step_index=0)
    with pytest.raises(ValueError, match=r"^n is not finite at node 3$"):
        cli.load_state(tmp_path / "state.npz", mesh)


@pytest.mark.parametrize("missing", ["mu", "step_index"])
def test_load_state_names_a_missing_field(tmp_path, missing):
    fields = dict(s=np.full(9, 0.75), n=np.tile([1.0, 0.0], (9, 1)), phi=np.zeros(9),
                  mu=np.zeros(9), time=0.0, step_index=0)
    del fields[missing]
    path = tmp_path / "state.npz"
    np.savez(path, **fields)
    message = f"final-state archive {path} has no field {missing!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        cli.load_state(path, build_structured_mesh(2, 2))


def test_energy_csv_s_columns_are_the_state_range(tmp_path):
    """The min_s and max_s columns of energy.csv are the range of the s of
    the state each row records, the initial row included."""
    c = cfg.merge_config(cfg.preset("droplet_corner"), None,
                         ["mesh.nx=8", "mesh.ny=8", "scheme.t_final=0.01"])
    problem = cfg.build_problem(c)

    class States:
        def on_start(self, state, energy):
            self.s = [state.s.values]

        def on_step(self, state, report):
            self.s.append(state.s.values)

    states, path = States(), tmp_path / "energy.csv"
    sv.run(problem.ops, problem.initial, problem.weights, problem.scheme, problem.bc,
           [cli.EnergyCSVSink(str(path)), states])
    with open(path, encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(states.s) == 6
    for row, s in zip(rows, states.s):
        assert float(row["min_s"]) == s.min() and float(row["max_s"]) == s.max()


def test_step_from_carried_state_is_bit_identical():
    """A step from the state a step returns, which carries its grad phi,
    coupling tensors and energy, equals a step from ``make_state`` of the
    same arrays, which evaluates them afresh."""
    problem = small_problem(nx=8, tau=0.004)
    ops, w, sc = problem.ops, problem.weights, problem.scheme
    state, first = gradient_flow_step(ops, problem.initial, w, sc)
    assert state.energy == first.after
    bare = make_state(ops.mesh, state.s.values, state.n.values, state.phi.values,
                      state.mu.values, state.time, state.step_index)
    assert bare.energy is None
    carried_next, carried = gradient_flow_step(ops, state, w, sc)
    bare_next, fresh = gradient_flow_step(ops, bare, w, sc)
    assert carried == fresh
    assert carried.before == en.total_energy(
        ops, w, state.s.values, state.n.values, state.phi.values
    )
    for name in ("s", "n", "phi", "mu"):
        assert np.array_equal(getattr(carried_next, name).values,
                              getattr(bare_next, name).values)
    for name in ("gphi", "coupling"):
        assert np.array_equal(getattr(carried_next, name), getattr(bare_next, name))
    assert carried_next.energy == bare_next.energy == carried.after
    assert (carried_next.time, carried_next.step_index) == (bare_next.time, bare_next.step_index)


def test_a_state_carried_under_other_weights_is_evaluated_afresh():
    """A state carries its energy with the weights it was evaluated under;
    a step under other weights evaluates the energy afresh, so its ``before``
    is the energy under its own weights and its ledger closes."""
    problem = small_problem(nx=8, newton_res_tol=1e-11)
    ops, w, sc = problem.ops, problem.weights, problem.scheme
    state, _ = gradient_flow_step(ops, problem.initial, w, sc)
    other = replace(w, w_chdw=100.0)
    new_state, rep = gradient_flow_step(ops, state, other, sc)
    scale = max(abs(rep.before.total), abs(rep.after.total), 1.0)
    assert abs(rep.closed_budget_residual) <= 1e-12 * scale
    assert rep.before == en.total_energy(ops, other, state.s.values, state.n.values,
                                         state.phi.values)
    assert (state.weights, new_state.weights) == (w, other)


def test_a_failed_step_leaves_the_state_for_a_retry():
    """A step that raises a NewtonError leaves the carried state it started
    from as it was, and a retry from that state with the same cache and
    the preset config succeeds with a closed ledger."""
    c = cfg.preset("droplet_collide")
    c.mesh["nx"] = c.mesh["ny"] = 16
    c.weights["w_chdw"] = 100.0
    prob = cfg.build_problem(c)
    cache = sv.JacobianCache()
    state, _ = gradient_flow_step(prob.ops, prob.initial, prob.weights, prob.scheme,
                                  cache=cache)
    kept = {name: getattr(state, name).values.copy() for name in ("s", "n", "phi", "mu")}
    with pytest.raises(NewtonError):
        gradient_flow_step(prob.ops, state, prob.weights,
                           replace(prob.scheme, newton_max_iter=1), cache=cache)
    for name, values in kept.items():
        assert np.array_equal(getattr(state, name).values, values), name
    _, rep = gradient_flow_step(prob.ops, state, prob.weights, prob.scheme, cache=cache)
    scale = max(abs(rep.before.total), abs(rep.after.total), 1.0)
    assert abs(rep.closed_budget_residual) <= 1e-12 * scale


def _count_calls(monkeypatch, targets):
    calls = dict.fromkeys([name for _, name in targets], 0)
    for module, name in targets:
        def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    return calls


def test_step_evaluates_shared_inputs_once(monkeypatch):
    """A step from a state that carries its grad phi, phi at the quadrature
    points, coupling tensors and energy evaluates grad phi once (at
    phi_new), the coupling tensors once (at phi_new, for the new state; the
    ledger pairs the phase increment by its cross-product form), the
    elastic form once (the ledger's velocity term; the new energy reuses the
    s stage's nodal coefficients), those nodal coefficients and the
    explicit double-well load once (the ledger reuses the implicit term the
    s stage solved with): the stages and the ledger share what they need of the old state, and
    the new state and the ledger share grad phi_new and phi_new at the
    quadrature points."""
    problem = small_problem(nx=8)
    ops, w, sc = problem.ops, problem.weights, problem.scheme
    state, _ = gradient_flow_step(ops, problem.initial, w, sc)
    calls = _count_calls(monkeypatch, ((sv.assembly, "element_gradients"),
                                       (en, "coupling_tensors"), (en, "eform"),
                                       (en, "explicit_dw_load"),
                                       (en, "eform_scalar_diag"), (en, "residual_ch"),
                                       (sv.assembly, "quad_values")))
    gradient_flow_step(ops, state, w, sc)
    assert calls["element_gradients"] == 1
    assert calls["coupling_tensors"] == 1
    assert calls["eform"] <= 1
    assert calls["explicit_dw_load"] == 1
    assert calls["eform_scalar_diag"] == 1
    # phi_new once, s_prev for the explicit load, s_new for its energy and
    # the Newton iterate for each interface residual
    assert calls["quad_values"] == 3 + calls["residual_ch"]


@pytest.mark.parametrize("linear_solver", ["cg", "direct"])
def test_ledger_and_energy_equal_the_forms_evaluated_afresh(linear_solver):
    """Over three steps of an 8^2 run, each a step from the state the step
    before returned, every dissipation term and every component of the new
    energy equal the forms evaluated afresh on the fields: the implicit
    double-well load by the degree-4 rule at the quadrature points, the elastic
    form by its edge sum (``eform``), the lumped coupling form through the
    coupling tensors (``cform``) and the phase-field norms by the degree-4
    rule at the quadrature points.  Each term is compared relative to the
    sum of the magnitudes of the signed parts it is made of."""
    problem = small_problem(nx=8, linear_solver=linear_solver)
    ops, w, sc = problem.ops, problem.weights, problem.scheme
    tau, eps, mesh = sc.tau, w.eps, ops.mesh
    state = problem.initial
    for _ in range(3):
        new, rep = gradient_flow_step(ops, state, w, sc)
        s0, phi0 = state.s.values, state.phi.values
        s1, n1, phi1, mu1 = new.s.values, new.n.values, new.phi.values, new.mu.values
        n_tilde, n_again, v, _, _ = director_stage(ops, state, w, sc)
        assert np.array_equal(n_again, n1)
        g0, g1 = (element_gradients(mesh, phi) for phi in (phi0, phi1))
        ds, dphi = s1 - s0, phi1 - phi0
        q0, q1 = (phi[mesh.elements] @ quad.TRI4_BARY.T for phi in (phi0, phi1))
        dq = (q1 - q0) / tau

        def integral(values_at_quad):
            return float(mesh.areas @ (values_at_quad @ quad.TRI4_WEIGHTS))

        def quadratic(A, u):
            return float(np.sum(u * (A @ u)))

        K, M = ops.stiffness, ops.mass
        parts = {
            "normalization_eform": [0.5 * w.w_erk * f for f in (
                en.eform(ops, s0, s0, n_tilde, n_tilde), -en.eform(ops, s0, s0, n1, n1))],
            "normalization_cform": [0.5 * w.w_wan * eps * f for f in (
                en.cform(ops, n_tilde, g0, n_tilde, g0, s0, s0),
                -en.cform(ops, n1, g0, n1, g0, s0, s0))],
            "velocity_n": [tau * w.rho * quadratic(M, v)],
            "velocity_s": [quadratic(M, ds) / tau],
            "mu_gradient": [tau * eps * quadratic(K, mu1)],
            "tau2_ch_grad": [0.5 * w.w_chgd * eps * quadratic(K, dphi)],
            "tau2_ch_dw": [w.w_chdw * tau**2 / (4.0 * eps) * f for f in (
                integral(((q1**2 - q0**2) / tau) ** 2), 2.0 * integral((q1 * dq) ** 2),
                2.0 * integral(dq**2))],
            "tau2_erk": [0.5 * w.w_erk * f for f in (
                2.0 * w.kappa * quadratic(K, ds), tau**2 * en.eform(ops, s0, s0, v, v),
                en.eform(ops, ds, ds, n1, n1))],
            "tau2_wan": [0.5 * w.w_wan * eps * tau**2 * f for f in (
                en.cform(ops, n1, (g1 - g0) / tau, n1, (g1 - g0) / tau, s1, s1),
                en.cform(ops, v, g0, v, g0, s0, s0))],
            "tau2_was": [w.w_was * f for f in (
                en.energy_was(ops, en.was_weights(ops, s1, w.s_star), g1 - g0, eps),
                en.energy_was(ops, en.was_weights(ops, ds, 0.0), g0, eps))],
            "convex_split_slack": [w.w_dw * f for f in (
                float(nodal_load(mesh, npoly.polyval(quad_values(mesh, s1), en.DW_DFC)) @ ds),
                -float(en.explicit_dw_load(ops, s0) @ ds),
                -en.energy_dw(ops, s1), en.energy_dw(ops, s0))],
        }
        assert set(parts) == set(rep.dissipation)
        for key, terms in parts.items():
            got = rep.dissipation[key]
            assert abs(got - sum(terms)) <= 1e-12 * sum(abs(f) for f in terms), key
        fresh = {
            "e_erk": [w.kappa * quadratic(K, s1), 0.5 * en.eform(ops, s1, s1, n1, n1)],
            "e_dw": [en.energy_dw(ops, s1)],
            "e_chdw": [integral((q1 * q1 - 1.0) ** 2) / (4.0 * eps)],
            "e_chgd": [0.5 * eps * quadratic(K, phi1)],
            "e_wan": [0.5 * eps * en.cform(ops, n1, g1, n1, g1, s1, s1)],
            "e_was": [en.energy_was(ops, en.was_weights(ops, s1, w.s_star), g1, eps)],
        }
        total = [getattr(w, "w_" + key[2:]) * sum(f) for key, f in fresh.items()]
        for key, terms in (*fresh.items(), ("total", total)):
            got = getattr(rep.after, key)
            assert abs(got - sum(terms)) <= 1e-12 * sum(abs(f) for f in terms), key
        assert new.energy is rep.after
        state = new


def test_ledger_terms_match_forms_of_returned_fields():
    """The ledger's lumped-form terms, built from the shared inputs, equal
    the forms evaluated afresh on the fields the step returns.  The drops
    are differences of nearly equal forms, so each term is compared
    relative to the sum of the magnitudes of the forms it is made of."""
    problem = small_problem(nx=8)
    ops, w, sc = problem.ops, problem.weights, problem.scheme
    state = problem.initial
    new, rep = gradient_flow_step(ops, state, w, sc)
    s0, s1, n1 = state.s.values, new.s.values, new.n.values
    # the director stage is solved again, to recover n~ and v
    n_tilde, n_again, v, _, _ = director_stage(ops, state, w, sc)
    assert np.array_equal(n_again, n1)
    g0 = element_gradients(ops.mesh, state.phi.values)
    gd = (element_gradients(ops.mesh, new.phi.values) - g0) / sc.tau
    ds = s1 - s0
    # signed parts of each term
    parts = {
        "drop_eform": [en.eform(ops, s0, s0, n_tilde, n_tilde), -en.eform(ops, s0, s0, n1, n1)],
        "drop_cform": [en.cform(ops, n_tilde, g0, n_tilde, g0, s0, s0),
                       -en.cform(ops, n1, g0, n1, g0, s0, s0)],
        "tau2_erk": [0.5 * w.w_erk * f for f in (2.0 * w.kappa * float(ds @ (ops.stiffness @ ds)),
                                                 sc.tau**2 * en.eform(ops, s0, s0, v, v),
                                                 en.eform(ops, ds, ds, n1, n1))],
        "tau2_wan": [0.5 * w.w_wan * w.eps * sc.tau**2 * f
                     for f in (en.cform(ops, n1, gd, n1, gd, s1, s1),
                               en.cform(ops, v, g0, v, g0, s0, s0))],
    }
    got = {"drop_eform": rep.drop_eform, "drop_cform": rep.drop_cform,
           "tau2_erk": rep.dissipation["tau2_erk"], "tau2_wan": rep.dissipation["tau2_wan"]}
    for key, terms in parts.items():
        assert abs(got[key] - sum(terms)) <= 1e-14 * sum(abs(f) for f in terms), key


def test_drop_eform_is_accurate_to_its_own_size():
    """drop_eform, the decrease of the elastic form under normalization,
    agrees with an exact rational evaluation of its edge sum to 1e-12 of
    itself in every step of a droplet_corner run, where the drop falls to
    about 1e-8 and the difference of the two forms it equals loses more
    than that."""
    from fractions import Fraction

    problem = small_problem(nx=8)
    ops, w, sc = problem.ops, problem.weights, problem.scheme
    state = problem.initial
    difference_errors = []
    for _ in range(6):
        n_tilde, n_new, _, _, _ = director_stage(ops, state, w, sc)
        s = state.s.values
        exact = Fraction(0)
        for i, j, k in zip(ops.mesh.edges.lo, ops.mesh.edges.hi, ops.mesh.edge_k):
            a = [Fraction(n_tilde[i, c]) - Fraction(n_tilde[j, c]) for c in range(2)]
            b = [Fraction(n_new[i, c]) - Fraction(n_new[j, c]) for c in range(2)]
            exact += (Fraction(k) * (Fraction(s[i]) ** 2 + Fraction(s[j]) ** 2)
                      * (a[0] ** 2 + a[1] ** 2 - b[0] ** 2 - b[1] ** 2))
        assert exact > 0

        def rel_error(value):
            return float(abs(Fraction(value) - exact) / exact)

        state, rep = gradient_flow_step(ops, state, w, sc)
        assert rep.drop_eform == en.eform_drop(ops, s, n_tilde, n_new, en.edge_diff(ops, n_new))
        assert rel_error(rep.drop_eform) <= 1e-12
        difference_errors.append(rel_error(en.eform(ops, s, s, n_tilde, n_tilde)
                                           - en.eform(ops, s, s, n_new, n_new)))
    assert max(difference_errors) > 1e-12


def test_energy_law_holds_at_stiff_weights():
    """droplet_corner on 32^2 cells at stiff but valid weights (w_erk = 1e4
    holds s nearly constant, and a larger droplet relaxes at tau = 0.01):
    at every step the charged ledger closes to 1e-12 relative, the energy
    rises by no more than 1e-12 relative, and the gradient dissipation
    terms, sums of nonnegative edge terms, are nonnegative."""
    problem = cfg.build_problem(cfg.merge_config(cfg.preset("droplet_corner"), None, [
        "mesh.nx=32", "mesh.ny=32", "weights.w_chdw=100", "weights.w_wan=20",
        "weights.w_erk=10000", "scheme.tau=0.01", "scheme.t_final=1.2",
        "initial.phi=-tanh(((x - 0.5)**2/0.04 + (y - 0.5)**2/0.04 - 1)/(2*eps))",
    ]))
    assert np.all(problem.mesh.edge_k >= 0.0)
    reports = []

    class Collector:
        def on_step(self, state, report):
            reports.append(report)

    sv.run(problem.ops, problem.initial, problem.weights, problem.scheme, problem.bc,
           [Collector()])
    assert len(reports) == 120
    for step, rep in enumerate(reports, 1):
        scale = max(abs(rep.before.total), abs(rep.after.total), 1.0)
        assert abs(rep.closed_budget_residual) <= 1e-12 * scale, step
        assert rep.after.total - rep.before.total <= 1e-12 * scale, step
        for name in ("mu_gradient", "tau2_ch_grad", "tau2_erk"):
            assert rep.dissipation[name] >= 0.0, (step, name)


def test_a_resumed_run_stops_at_t_final(tmp_path):
    """``run`` from the final state of a run to t = 4.5 tau, loaded from
    its archive, takes the 6 steps to t_final = 10 tau, the last of half a
    tau, and ends there exactly; a start past t_final is a ValueError
    naming both times."""
    problem = cfg.build_problem(cfg.merge_config(
        cfg.preset("droplet_corner"), None, ["mesh.nx=4", "mesh.ny=4", "scheme.t_final=0.009"]))
    assert cli.run_scenario(problem, str(tmp_path))[1] == 0
    start = cli.load_state(tmp_path / "final_state.npz", problem.mesh)
    tau = problem.scheme.tau
    assert start.step_index == 5 and start.time == 0.009
    log = StepLog()
    final = sv.run(problem.ops, start, problem.weights,
                   replace(problem.scheme, t_final=10 * tau), problem.bc, [log])
    assert log.steps == [6, 7, 8, 9, 10, 11]
    assert final.step_index == 11 and final.time == 10 * tau
    assert log.times[-1] - log.times[-2] == pytest.approx(0.5 * tau, rel=1e-9)
    message = f"cannot step from t = {final.time!r} back to t_final = {2 * tau!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        sv.run(problem.ops, final, problem.weights,
               replace(problem.scheme, t_final=2 * tau), problem.bc, [log])
    assert len(log.steps) == 6
