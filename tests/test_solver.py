import numpy as np
import pytest
import scipy.sparse as sp

from lcdroplet import build_operators, build_structured_mesh
from lcdroplet import config as cfg
from lcdroplet import energy as en
from lcdroplet.assembly import element_gradients
from lcdroplet import solver as sv
from lcdroplet.energy import DoubleWell, ModelWeights
from lcdroplet.solver import (
    BoundaryConditions,
    NewtonError,
    SchemeConfig,
    gradient_flow_step,
    make_state,
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


def full_boundary_bc(mesh, s_val=0.75, n_dir=(1.0, 0.0)):
    b = mesh.boundary_nodes
    return BoundaryConditions(
        b, np.full(len(b), s_val), b, np.tile(n_dir, (len(b), 1))
    )


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

def test_director_step_zero_weights_identity():
    mesh = build_structured_mesh(4, 4)
    ops = build_operators(mesh)
    weights = ModelWeights(w_erk=0.0, w_wan=0.0, s_star=0.75)
    state = constant_state(mesh)
    bc = full_boundary_bc(mesh)
    n_tilde, n_new, v = sv.director_step(
        ops, state, weights, SchemeConfig(tau=0.01, t_final=0.01), bc
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
    n_tilde, n_new, v = sv.director_step(
        prob.ops, state, prob.weights, prob.scheme, prob.bc
    )
    free = np.ones(prob.mesh.n_nodes, dtype=bool)
    free[prob.bc.n_nodes] = False
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
    gphi = element_gradients(prob.mesh, state.phi.values, prob.ops.geom)
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
    bc = full_boundary_bc(mesh)
    s_new = sv.s_step(ops, state, state.n.values, weights, SchemeConfig(), bc)
    assert np.abs(s_new - 0.75).max() <= 1e-12


def test_s_step_small_tau_limit():
    prob = small_problem(nx=4)
    state = prob.initial
    scheme = SchemeConfig(tau=1e-9, t_final=1e-9)
    n_new = state.n.values
    s_new = sv.s_step(prob.ops, state, n_new, prob.weights, scheme, prob.bc)
    assert np.abs(s_new - state.s.values).max() <= 1e-6


def test_s_step_nonlinear_convex_part():
    """A quartic convex part routes through the Newton fallback and still
    matches the linear-path answer when the splittings define the same f."""
    mesh = build_structured_mesh(4, 4)
    ops = build_operators(mesh)
    # same f = fc - fe, rebalanced so fc is quartic
    quartic = DoubleWell(
        fc_coeffs=(0.0, 0.0, 63.0, 0.0, 4.0),
        fe_coeffs=(0.0, 0.0, 57.0, 64.0 / 3.0, -12.0),
    )
    w_nl = ModelWeights(w_dw=100.0, w_wan=5.0, w_was=5.0, s_star=0.75, dw=quartic)
    rng = np.random.default_rng(5)
    phi = rng.uniform(-1, 1, mesh.n_nodes)
    s0 = np.clip(0.75 + 0.05 * rng.standard_normal(mesh.n_nodes), 0.6, 0.9)
    s0[mesh.boundary_nodes] = 0.75
    n = np.tile([1.0, 0.0], (mesh.n_nodes, 1))
    state = make_state(mesh, s0, n, phi)
    bc = full_boundary_bc(mesh)
    scheme = SchemeConfig(tau=0.002, t_final=0.002)
    assert not quartic.fc_is_quadratic
    s_new = sv.s_step(ops, state, n, w_nl, scheme, bc)
    assert np.all(np.isfinite(s_new))
    assert np.abs(s_new[mesh.boundary_nodes] - 0.75).max() <= 1e-14
    # the step still dissipates the energy at fixed (n, phi)
    e_before = en.total_energy(ops, w_nl, s0, n, phi).total
    e_after = en.total_energy(ops, w_nl, s_new, n, phi).total
    assert e_after <= e_before + 1e-11


# ---------------------------------------------------------------------------
# interface step
# ---------------------------------------------------------------------------

def test_ch_step_pure_phase_immediate():
    mesh = build_structured_mesh(4, 4)
    ops = build_operators(mesh)
    weights = ModelWeights(w_wan=0.0, w_was=0.0, s_star=0.75)
    state = constant_state(mesh, phi_val=1.0)
    phi, mu, iters, hist, _ = sv.ch_step(
        ops, state, state.s.values, state.n.values, weights, SchemeConfig()
    )
    assert iters <= 1
    assert np.allclose(phi, 1.0, atol=1e-12)
    assert np.abs(mu).max() <= 1e-12


def test_ch_step_mass_conservation(rng):
    prob = small_problem(nx=8)
    state = prob.initial
    rows = prob.ops.mass @ np.ones(prob.mesh.n_nodes)
    phi, mu, iters, hist, _ = sv.ch_step(
        prob.ops, state, state.s.values, state.n.values, prob.weights, prob.scheme
    )
    assert abs(rows @ (phi - state.phi.values)) <= 1e-10


def test_ch_step_quadratic_newton_convergence():
    """The residual history contracts superlinearly: the signature of an
    exact Jacobian."""
    c = cfg.preset("droplet_move")
    c.mesh["nx"] = c.mesh["ny"] = 16
    prob = cfg.build_problem(c)
    state = prob.initial
    n_tilde, n_new, _ = sv.director_step(
        prob.ops, state, prob.weights, prob.scheme, prob.bc
    )
    s_new = sv.s_step(prob.ops, state, n_new, prob.weights, prob.scheme, prob.bc)
    phi, mu, iters, hist, _ = sv.ch_step(
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
            prob.ops, fresh, prob.weights, prob.scheme, prob.bc
        )
        kept, rep = gradient_flow_step(
            prob.ops, kept, prob.weights, prob.scheme, prob.bc, cache=cache
        )
        solves += rep.newton_iters
        assert abs(rep.closed_budget_residual) <= 1e-10
    assert np.abs(kept.phi.values - fresh.phi.values).max() <= 1e-7
    assert np.abs(kept.mu.values - fresh.mu.values).max() <= 1e-5
    assert 1 <= cache.factorizations < solves


def test_jacobian_cache_refactors_when_gmres_stalls():
    rng = np.random.default_rng(0)
    n = 40
    base = sp.random(n, n, density=0.2, random_state=1) + 5.0 * sp.identity(n)
    cache = sv.JacobianCache()
    b = rng.standard_normal(n)
    x = cache.solve(base.tocsr(), b, 1e-10)
    assert cache.factorizations == 1
    assert np.linalg.norm(base @ x - b) <= 1e-10 * np.linalg.norm(b)
    # a nearby matrix is solved on the stored factors
    near = (base + 1e-6 * sp.identity(n)).tocsr()
    x = cache.solve(near, b, 1e-8)
    assert cache.factorizations == 1
    assert np.linalg.norm(near @ x - b) <= 1e-8 * np.linalg.norm(b)
    # an unrelated matrix needs more GMRES iterations and is refactored
    far = (sp.random(n, n, density=0.2, random_state=2) + 5.0 * sp.identity(n)).tocsr()
    x = cache.solve(far, b, 1e-10)
    assert cache.factorizations == 2
    assert np.linalg.norm(far @ x - b) <= 1e-10 * np.linalg.norm(b)


def test_ch_step_newton_failure_reports_history():
    prob = small_problem(nx=4)
    scheme = SchemeConfig(
        tau=0.002, t_final=0.002, newton_res_tol=1e-30, newton_abs_tol=1e-30,
        newton_max_iter=2,
    )
    state = prob.initial
    with pytest.raises(NewtonError) as err:
        sv.ch_step(
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
        prob.ops, prob.initial, prob.weights, prob.scheme, prob.bc
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
    bc = full_boundary_bc(mesh)
    new, rep = gradient_flow_step(ops, state, weights, SchemeConfig(), bc)
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
            prob.ops, state, prob.weights, prob.scheme, prob.bc
        )
    for _ in range(2):
        state, rep = gradient_flow_step(
            prob.ops, state, prob.weights, prob.scheme, prob.bc
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


def test_mass_lumping_switch_preserves_structure():
    prob = small_problem(nx=8, t_final=0.02, mass_lumping_timederiv=True)
    state = prob.initial
    rows = prob.ops.mass @ np.ones(prob.mesh.n_nodes)
    mass0 = rows @ state.phi.values
    for _ in range(10):
        state, rep = gradient_flow_step(
            prob.ops, state, prob.weights, prob.scheme, prob.bc, phi_mass_ref=mass0
        )
        assert rep.after.total <= rep.before.total + 1e-11
        scale = max(abs(rep.before.total), 1.0)
        assert abs(rep.budget_residual) <= 1e-9 * scale
        assert abs(rep.mass_drift) <= 1e-9


def test_unit_norm_after_steps():
    prob = small_problem(nx=8, t_final=0.01)
    state = prob.initial
    for _ in range(5):
        state, _ = gradient_flow_step(
            prob.ops, state, prob.weights, prob.scheme, prob.bc
        )
        norms = np.linalg.norm(state.n.values, axis=1)
        assert np.abs(norms - 1.0).max() <= 1e-12


def test_cg_solver_matches_direct():
    prob = small_problem(nx=8, t_final=0.002)
    direct, _ = gradient_flow_step(
        prob.ops, prob.initial, prob.weights, prob.scheme, prob.bc
    )
    c = cfg.preset("droplet_corner")
    c.mesh["nx"] = c.mesh["ny"] = 8
    c.scheme["t_final"] = 0.002
    c.scheme["linear_solver"] = "cg"
    c.scheme["cg_tol"] = 1e-13
    prob_cg = cfg.build_problem(c)
    viacg, _ = gradient_flow_step(
        prob_cg.ops, prob_cg.initial, prob_cg.weights, prob_cg.scheme, prob_cg.bc
    )
    assert np.abs(viacg.s.values - direct.s.values).max() <= 1e-8
    assert np.abs(viacg.n.values - direct.n.values).max() <= 1e-8


def test_boundary_condition_validation():
    mesh = build_structured_mesh(2, 2)
    b = mesh.boundary_nodes
    with pytest.raises(ValueError, match="orientation"):
        BoundaryConditions(b, np.full(len(b), 1.5), b, np.tile([1.0, 0], (len(b), 1)))
    with pytest.raises(ValueError, match="unit"):
        BoundaryConditions(b, np.full(len(b), 0.75), b, np.tile([1.0, 0.5], (len(b), 1)))


def test_scheme_config_validation():
    with pytest.raises(ValueError):
        SchemeConfig(tau=0.0)
    with pytest.raises(ValueError):
        SchemeConfig(linear_solver="lu")


def test_state_requires_shared_mesh():
    m1 = build_structured_mesh(2, 2)
    m2 = build_structured_mesh(3, 3)
    s = np.full(m1.n_nodes, 0.75)
    n = np.tile([1.0, 0.0], (m1.n_nodes, 1))
    phi2 = np.zeros(m2.n_nodes)
    with pytest.raises(ValueError):
        sv.PhaseState(
            sv.NodalScalarField(m1, s),
            sv.DirectorField(m1, n),
            sv.NodalScalarField(m2, phi2),
            sv.NodalScalarField(m1, s),
        )


def test_step_with_energy_passed_in_is_bit_identical():
    problem = small_problem(nx=8, tau=0.004)
    ops, w, sc, bc = problem.ops, problem.weights, problem.scheme, problem.bc
    state, first = gradient_flow_step(ops, problem.initial, w, sc, bc)
    _, fresh = gradient_flow_step(ops, state, w, sc, bc)
    _, passed = gradient_flow_step(ops, state, w, sc, bc, before=first.after)
    assert passed == fresh
    assert passed.before == en.total_energy(
        ops, w, state.s.values, state.n.values, state.phi.values
    )
