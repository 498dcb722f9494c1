import numpy as np
import pytest
import scipy.sparse as sp

from lcdroplet import build_operators, build_structured_mesh
from lcdroplet import config as cfg
from lcdroplet import energy as en
from lcdroplet.assembly import element_gradients
from lcdroplet import solver as sv
from lcdroplet.energy import ModelWeights
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


def director_stage(ops, state, weights, scheme, bc):
    gphi = element_gradients(ops.mesh, state.phi.values, ops.geom)
    return sv.director_step(ops, state, weights, scheme, bc,
                            en.coupling_tensors(ops, gphi, gphi))


def s_stage(ops, state, n_new, weights, scheme, bc):
    gphi = element_gradients(ops.mesh, state.phi.values, ops.geom)
    return sv.s_step(ops, state, n_new, weights, scheme, bc, gphi,
                     en.coupling_tensors(ops, gphi, gphi), en.eform_scalar_diag(ops, n_new),
                     en.explicit_dw_load(ops, weights.dw, state.s.values))


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
    n_tilde, n_new, v, _ = director_stage(
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
    n_tilde, n_new, v, _ = director_stage(
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
    s_new, _ = s_stage(ops, state, state.n.values, weights, SchemeConfig(), bc)
    assert np.abs(s_new - 0.75).max() <= 1e-12


def test_s_step_small_tau_limit():
    prob = small_problem(nx=4)
    state = prob.initial
    scheme = SchemeConfig(tau=1e-9, t_final=1e-9)
    n_new = state.n.values
    s_new, _ = s_stage(prob.ops, state, n_new, prob.weights, scheme, prob.bc)
    assert np.abs(s_new - state.s.values).max() <= 1e-6


def test_s_step_quartic_well_dissipates():
    """The quartic double well, given by its quadratic split, goes
    through the one linear solve and dissipates at fixed (n, phi)."""
    mesh = build_structured_mesh(4, 4)
    ops = build_operators(mesh)
    w = ModelWeights(w_dw=100.0, w_wan=5.0, w_was=5.0, s_star=0.75,
                     dw=en.default_double_well())
    rng = np.random.default_rng(5)
    phi = rng.uniform(-1, 1, mesh.n_nodes)
    s0 = np.clip(0.75 + 0.05 * rng.standard_normal(mesh.n_nodes), 0.6, 0.9)
    s0[mesh.boundary_nodes] = 0.75
    n = np.tile([1.0, 0.0], (mesh.n_nodes, 1))
    state = make_state(mesh, s0, n, phi)
    bc = full_boundary_bc(mesh)
    scheme = SchemeConfig(tau=0.002, t_final=0.002)
    s_new, _ = s_stage(ops, state, n, w, scheme, bc)
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
    n_tilde, n_new, _, _ = director_stage(
        prob.ops, state, prob.weights, prob.scheme, prob.bc
    )
    s_new, _ = s_stage(prob.ops, state, n_new, prob.weights, prob.scheme, prob.bc)
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
    """The default SPD solves (conjugate gradients) agree with the direct
    reference."""
    prob = small_problem(nx=8, t_final=0.002)
    assert prob.scheme.linear_solver == "cg"
    viacg, _ = gradient_flow_step(
        prob.ops, prob.initial, prob.weights, prob.scheme, prob.bc
    )
    prob_lu = small_problem(nx=8, t_final=0.002, linear_solver="direct")
    direct, _ = gradient_flow_step(
        prob_lu.ops, prob_lu.initial, prob_lu.weights, prob_lu.scheme, prob_lu.bc
    )
    assert np.abs(viacg.s.values - direct.s.values).max() <= 1e-8
    assert np.abs(viacg.n.values - direct.n.values).max() <= 1e-8


def test_spd_residuals_close_the_budget():
    """With loose conjugate-gradient solves the budget is open by far more
    than roundoff, and charging the director and s residuals (paired with
    tau v and ds) closes it to roundoff.  The Newton tolerance is tight so
    that the open residual is the SPD solves' own."""
    c = cfg.merge_config(cfg.preset("droplet_collide"), None, [
        "mesh.nx=32", "mesh.ny=32", "weights.w_chdw=100", "scheme.t_final=0.02",
        "scheme.cg_tol=1e-8", "scheme.newton_res_tol=1e-11",
    ])
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
        x, _ = solve(A, b, config, stage)
        x = x + 1e-6 * rng.standard_normal(x.shape)
        return x, b - A @ x

    monkeypatch.setattr(sv, "_solve_spd", perturbed)
    prob = small_problem(nx=8, newton_res_tol=1e-11)
    state = prob.initial
    for _ in range(3):
        state, rep = gradient_flow_step(
            prob.ops, state, prob.weights, prob.scheme, prob.bc
        )
        scale = max(abs(rep.before.total), abs(rep.after.total), 1.0)
        assert abs(rep.closed_budget_residual) <= 1e-15 * scale
        assert abs(rep.budget_residual) > 1e-9 * scale


def test_singular_spd_system_is_a_step_error():
    A = sp.csr_matrix((3, 3))
    with pytest.raises(sv.StepError, match="^director solve: Factor is exactly singular"):
        sv._solve_spd(A, np.ones(3), SchemeConfig(linear_solver="direct"), "director")


def test_singular_jacobian_is_a_step_error():
    with pytest.raises(sv.StepError, match="^interface solve: Factor is exactly singular"):
        sv.JacobianCache().solve(sp.csr_matrix((4, 4)), np.ones(4), 1e-8)


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


def test_step_evaluates_shared_inputs_once(monkeypatch):
    """Given the energy of the state, one step evaluates grad phi, the
    coupling tensors and the elastic form at most three times each, and
    the explicit double-well load once: the stages and the ledger share
    what they need of the old state."""
    problem = small_problem(nx=8)
    ops, w, sc, bc = problem.ops, problem.weights, problem.scheme, problem.bc
    before = en.total_energy(ops, w, problem.initial.s.values,
                             problem.initial.n.values, problem.initial.phi.values)
    calls = {}
    for module, name in ((sv.assembly, "element_gradients"), (en, "coupling_tensors"),
                         (en, "eform"), (en, "explicit_dw_load")):
        def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    gradient_flow_step(ops, problem.initial, w, sc, bc, before=before)
    assert calls["element_gradients"] <= 3
    assert calls["coupling_tensors"] <= 3
    assert calls["eform"] <= 3
    assert calls["explicit_dw_load"] == 1


def test_ledger_terms_match_forms_of_returned_fields():
    """The ledger's lumped-form terms, built from the shared inputs, equal
    the forms evaluated afresh on the fields the step returns.  The drops
    are differences of nearly equal forms, so each term is compared
    relative to the sum of the magnitudes of the forms it is made of."""
    problem = small_problem(nx=8)
    ops, w, sc, bc = problem.ops, problem.weights, problem.scheme, problem.bc
    state = problem.initial
    new, rep = gradient_flow_step(ops, state, w, sc, bc)
    s0, s1, n1 = state.s.values, new.s.values, new.n.values
    # the director stage is solved again, to recover n~ and v
    n_tilde, n_again, v, _ = director_stage(ops, state, w, sc, bc)
    assert np.array_equal(n_again, n1)
    g0 = element_gradients(ops.mesh, state.phi.values, ops.geom)
    gd = (element_gradients(ops.mesh, new.phi.values, ops.geom) - g0) / sc.tau
    ds = s1 - s0
    # signed parts of each term
    parts = {
        "drop_eform": [en.eform(ops, s0, s0, n_tilde, n_tilde), -en.eform(ops, s0, s0, n1, n1)],
        "drop_cform": [en.cform(ops, n_tilde, g0, n_tilde, g0, s0, s0),
                       -en.cform(ops, n1, g0, n1, g0, s0, s0)],
        "tau2_erk": [0.5 * w.w_erk * f for f in (2.0 * w.kappa * ops.grad_form(ds, ds),
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
