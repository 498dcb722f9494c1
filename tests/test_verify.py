import json
from types import SimpleNamespace

import numpy as np
import pytest

from lcdroplet import TriMesh, build_operators, build_structured_mesh
from lcdroplet import energy as en
from lcdroplet import verify as vf
from lcdroplet.assembly import element_gradients
from lcdroplet.energy import ModelWeights
from lcdroplet.solver import make_state


def test_quadrature_exactness():
    assert vf.quadrature_exactness_check().passed


def test_fd_derivative_quadratic_energy_tight(ops4, rng):
    # the gradient part of the interface energy is quadratic, so central
    # differences are exact up to roundoff
    phi = rng.uniform(-1, 1, ops4.mesh.n_nodes)
    psi = rng.standard_normal(ops4.mesh.n_nodes)
    eps, h = 0.1, 1e-5
    E = lambda p: en.energy_ch_grad(ops4, p, eps)
    fd = (E(phi + h * psi) - E(phi - h * psi)) / (2 * h)
    exact = eps * float(psi @ (ops4.stiffness @ phi))
    assert abs(fd - exact) / max(abs(exact), 1e-14) <= 1e-9


# the droplet_collide preset's weights, so that each stage's weight factors
# are checked and not only its formulas
COLLIDE_WEIGHTS = ModelWeights(w_dw=100.0, w_chgd=21.0, w_wan=10.0, w_was=10.0,
                               eps=3.0 / 64.0)


@pytest.mark.parametrize("weights", [ModelWeights(), COLLIDE_WEIGHTS],
                         ids=["defaults", "droplet_collide"])
def test_all_fd_checks_pass(ops4, rng, weights):
    base = vf.random_admissible_fields(ops4.mesh, rng)
    direction = vf.random_directions(ops4.mesh, base, rng)
    for eid in vf.DERIVATIVE_IDS:
        outcome = vf.fd_derivative_check(ops4, weights, eid, base, direction)
        assert outcome.passed, outcome


def test_fd_check_rejects_unknown_energy_id(ops4, rng):
    base = vf.random_admissible_fields(ops4.mesh, rng)
    direction = vf.random_directions(ops4.mesh, base, rng)
    with pytest.raises(ValueError) as err:
        vf.fd_derivative_check(ops4, ModelWeights(), "erk_q", base, direction)
    assert str(err.value) == "unknown energy id 'erk_q'"


@pytest.mark.parametrize("stage,matching", [
    pytest.param("residual_director", {"erk_n", "wan_n"}, id="residual_director"),
    pytest.param("residual_s", {"erk_s", "dw_s", "wan_s", "was_s"}, id="residual_s"),
    pytest.param("ch_step_matrix", {"ch_phi", "wan_phi", "was_phi"}, id="ch_step_matrix"),
])
def test_fd_checks_catch_perturbed_stage(ops4, rng, monkeypatch, stage, matching):
    # the derivative oracle checks the systems the solver assembles: a stage
    # whose output is off by 1 % fails the checks of its field, and only those
    original = getattr(en, stage)

    def perturbed(*args):
        out = original(*args)
        return tuple(1.01 * x for x in out) if isinstance(out, tuple) else 1.01 * out

    monkeypatch.setattr(en, stage, perturbed)
    base = vf.random_admissible_fields(ops4.mesh, rng)
    direction = vf.random_directions(ops4.mesh, base, rng)
    failed = {eid for eid in vf.DERIVATIVE_IDS
              if not vf.fd_derivative_check(ops4, ModelWeights(), eid, base, direction).passed}
    assert failed == matching


def test_brute_force_check_passes(ops2, rng):
    assert vf.brute_force_form_check(ops2, rng, trials=100).passed


def scalar_naive_eform(stiffness_dense, s, z, n, w):
    """One trial of ``naive_eform``: the loop over node pairs on scalars."""
    total = 0.0
    nn = len(s)
    for i in range(nn):
        for j in range(nn):
            if i == j:
                continue
            kij = -stiffness_dense[i, j]
            avg = 0.5 * (s[i] * z[i] + s[j] * z[j])
            dot = 0.0
            for d in range(n.shape[1]):
                dot += (n[i, d] - n[j, d]) * (w[i, d] - w[j, d])
            total += kij * avg * dot
    return total


def scalar_naive_cform(mesh, v, phi, w, psi, s, z):
    """One trial of ``naive_cform``: the loop over elements and vertices on
    scalars."""
    areas, grads = vf.element_geometry(mesh)
    total = 0.0
    d = 2
    for t in range(mesh.n_elements):
        e, g = mesh.elements[t], grads[t]
        gp = [phi[e[0]] * g[0, k] + phi[e[1]] * g[1, k] + phi[e[2]] * g[2, k] for k in range(d)]
        gq = [psi[e[0]] * g[0, k] + psi[e[1]] * g[1, k] + psi[e[2]] * g[2, k] for k in range(d)]
        gg = sum(gp[k] * gq[k] for k in range(d))
        for a in range(d + 1):
            i = int(e[a])
            vw = sum(v[i, k] * w[i, k] for k in range(d))
            vgp = sum(v[i, k] * gp[k] for k in range(d))
            wgq = sum(w[i, k] * gq[k] for k in range(d))
            total += (areas[t] / (d + 1)) * s[i] * z[i] * (gg * vw - vgp * wgq)
    return total


@pytest.mark.parametrize("cells,moved", [(2, False), (4, False), (4, True)],
                         ids=["2x2", "4x4", "4x4-moved"])
def test_batched_naive_forms_are_the_scalar_loops_bit_for_bit(cells, moved, rng):
    # on a structured mesh many products are by 0, 1/2 or 1 and hide the
    # order of the operations; moved interior nodes show it
    mesh = build_structured_mesh(cells, cells)
    if moved:
        inner = np.setdiff1d(np.arange(mesh.n_nodes), mesh.boundary_nodes)
        nodes = mesh.nodes.copy()
        nodes[inner] += rng.uniform(-0.15, 0.15, (inner.size, 2)) / cells
        mesh = TriMesh(nodes, mesh.elements)
    Kd = vf.naive_stiffness(mesh)
    trials, nn = 50, mesh.n_nodes
    s, z, phi, psi = (rng.uniform(-1.0, 1.0, (trials, nn)) for _ in range(4))
    n, w = (rng.standard_normal((trials, nn, 2)) for _ in range(2))
    e_ref = [scalar_naive_eform(Kd, *f) for f in zip(s, z, n, w)]
    c_ref = [scalar_naive_cform(mesh, *f) for f in zip(n, phi, w, psi, s, z)]
    assert vf.naive_eform(Kd, s, z, n, w).tobytes() == np.array(e_ref).tobytes()
    assert vf.naive_cform(mesh, n, phi, w, psi, s, z).tobytes() == np.array(c_ref).tobytes()


def per_trial_brute_force(ops, rng, trials):
    """The form check one trial at a time: draw a trial, check it."""
    mesh = ops.mesh
    Kd = vf.naive_stiffness(mesh)
    worst_e = worst_c = 0.0
    witness = None
    for t in range(trials):
        s = rng.uniform(-0.4, 0.9, mesh.n_nodes)
        z = rng.uniform(-1.0, 1.0, mesh.n_nodes)
        n = rng.standard_normal((mesh.n_nodes, 2))
        w = rng.standard_normal((mesh.n_nodes, 2))
        phi = rng.uniform(-1.0, 1.0, mesh.n_nodes)
        psi = rng.uniform(-1.0, 1.0, mesh.n_nodes)
        gphi = element_gradients(mesh, phi)
        gpsi = element_gradients(mesh, psi)
        e_ref = scalar_naive_eform(Kd, s, z, n, w)
        c_ref = scalar_naive_cform(mesh, n, phi, w, psi, s, z)
        de = abs(en.eform(ops, s, z, n, w) - e_ref) / max(1.0, abs(e_ref))
        dc = abs(en.cform(ops, n, gphi, w, gpsi, s, z) - c_ref) / max(1.0, abs(c_ref))
        if max(de, dc) > max(worst_e, worst_c):
            witness = {"trial": t, "eform_rel": de, "cform_rel": dc}
        worst_e = max(worst_e, de)
        worst_c = max(worst_c, dc)
    return max(worst_e, worst_c), witness


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_brute_force_check_is_the_per_trial_check(ops2, seed):
    # the same measured value and witness, and the generator left in the
    # same state for the checks that draw after it
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    outcome = vf.brute_force_form_check(ops2, rng, trials=200)
    measured, witness = per_trial_brute_force(ops2, ref_rng, trials=200)
    assert outcome.measured == measured and outcome.witness == witness
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_brute_force_check_catches_broken_eform(ops2, rng):
    def broken_eform(ops, s, z, n, w):
        return 0.5 * en.eform(ops, s, z, n, w)  # dropped double counting

    outcome = vf.brute_force_form_check(ops2, rng, trials=20, eform_fn=broken_eform)
    assert not outcome.passed


def test_brute_force_check_catches_broken_cform(ops2, rng):
    def broken_cform(ops, v, gphi, w, gpsi, s, z):
        # wrong quadrature weight (|T|/2 instead of |T|/3)
        return 1.5 * en.cform(ops, v, gphi, w, gpsi, s, z)

    outcome = vf.brute_force_form_check(ops2, rng, trials=20, cform_fn=broken_cform)
    assert not outcome.passed


def test_brute_force_check_catches_wrong_mesh_areas(rng):
    # the naive coupling form computes the element areas from the node
    # coordinates, not from the geometry the mesh stores
    mesh = build_structured_mesh(2, 2)
    object.__setattr__(mesh, "areas", 2.0 * mesh.areas)
    outcome = vf.brute_force_form_check(build_operators(mesh), rng, trials=20)
    assert not outcome.passed


@pytest.mark.parametrize("cells", [2, 4])
def test_oracles_catch_wrong_mesh_gradients(cells, rng):
    # the naive forms and the reference stiffness take the hat gradients
    # from the node coordinates, not from the gradients the mesh stores
    mesh = build_structured_mesh(cells, cells)
    object.__setattr__(mesh, "grads", 2.0 * mesh.grads)
    ops = build_operators(mesh)
    outcome = vf.brute_force_form_check(ops, rng, trials=20)
    assert not outcome.passed
    assert min(outcome.witness["eform_rel"], outcome.witness["cform_rel"]) > 1e-12
    assert not vf.stiffness_identity_check(ops, rng).passed


def test_mass_conservation_integrates_from_node_coordinates(rng):
    # a shift of phi by c changes its integral by c |Omega|, whatever areas
    # the mesh stores
    mesh = build_structured_mesh(4, 4, ((0.0, 0.0), (2.0, 1.5)))
    object.__setattr__(mesh, "areas", 2.0 * mesh.areas)
    s = np.full(mesh.n_nodes, 0.5)
    n = np.tile([1.0, 0.0], (mesh.n_nodes, 1))
    phi = rng.uniform(-1.0, 1.0, mesh.n_nodes)
    problem = SimpleNamespace(mesh=mesh, ops=build_operators(mesh),
                              initial=make_state(mesh, s, n, phi))
    outcome = vf.mass_conservation_check(problem, make_state(mesh, s, n, phi + 1e-3))
    assert outcome.measured == pytest.approx(3e-3, rel=1e-12)
    assert not outcome.passed


def test_naive_eform_symmetry(ops2, rng):
    mesh = ops2.mesh
    Kd = ops2.stiffness.toarray()
    trials = 5
    s = rng.uniform(0.1, 0.9, (trials, mesh.n_nodes))
    z = rng.uniform(0.1, 0.9, (trials, mesh.n_nodes))
    n = rng.standard_normal((trials, mesh.n_nodes, 2))
    w = rng.standard_normal((trials, mesh.n_nodes, 2))
    assert vf.naive_eform(Kd, s, z, n, w) == pytest.approx(
        vf.naive_eform(Kd, s, z, w, n), rel=1e-12
    )
    nc = np.tile([0.3, 0.9], (trials, mesh.n_nodes, 1))
    assert np.all(vf.naive_eform(Kd, s, z, nc, nc) == 0.0)


def test_energy_law_audit_passes_on_coarse_run():
    problem = vf._corner_problem(nx=8, steps=15)
    e0, reports, state = vf.flow_trajectory(problem)
    assert vf.energy_law_audit(e0, reports).passed


def test_flow_trajectory_is_the_simulated_run():
    import lcdroplet.solver as sv

    class Collect:
        def on_start(self, state, energy):
            self.e0, self.reports = energy.total, []

        def on_step(self, state, report):
            self.reports.append(report)

    problem = vf._corner_problem(nx=8, steps=6)
    e0, reports, final = vf.flow_trajectory(problem)
    sink = Collect()
    ref = sv.run(problem.ops, problem.initial, problem.weights, problem.scheme,
                 problem.bc, [sink])
    assert e0 == sink.e0
    assert len(reports) == 6 and reports == sink.reports
    assert final.time == ref.time and final.step_index == ref.step_index
    for name in ("s", "n", "phi", "mu"):
        assert np.array_equal(getattr(final, name).values, getattr(ref, name).values)


def test_energy_law_audit_rejects_mutated_budget():
    problem = vf._corner_problem(nx=8, steps=15)
    e0, reports, state = vf.flow_trajectory(problem, mutate="convex-split-sign")
    outcome = vf.energy_law_audit(e0, reports)
    assert not outcome.passed
    assert outcome.witness is not None


def test_energy_law_audit_zero_weight_run():
    from lcdroplet.solver import SchemeConfig, gradient_flow_step, make_state

    mesh = build_structured_mesh(4, 4)
    ops = build_operators(mesh)
    weights = ModelWeights(
        w_erk=0, w_dw=0, w_chdw=0, w_chgd=0, w_wan=0, w_was=0, s_star=0.75
    )
    s = np.full(mesh.n_nodes, 0.75)
    n = np.tile([1.0, 0.0], (mesh.n_nodes, 1))
    phi = np.linspace(-1, 1, mesh.n_nodes)
    state = make_state(mesh, s, n, phi)
    e0 = en.total_energy(ops, weights, s, n, phi).total
    reports = []
    for _ in range(3):
        state, rep = gradient_flow_step(ops, state, weights, SchemeConfig())
        reports.append(rep)
    assert e0 == 0.0
    assert all(abs(sum(r.dissipation.values())) <= 1e-12 for r in reports)
    assert vf.energy_law_audit(e0, reports).passed


def test_refinement_constant_triple_exact():
    # all-constant admissible fields: the discrete energies agree with the
    # closed-form values at every resolution
    weights = ModelWeights(s_star=0.75)
    for n in (2, 8):
        mesh = build_structured_mesh(n, n)
        ops = build_operators(mesh)
        s = np.full(mesh.n_nodes, 0.6)
        nvec = np.tile([0.0, 1.0], (mesh.n_nodes, 1))
        phi = np.full(mesh.n_nodes, 0.4)
        rep = en.total_energy(ops, weights, s, nvec, phi)
        f_val = float(en.double_well(0.6))
        chdw = (0.4**2 - 1.0) ** 2 / (4 * weights.eps)
        assert rep.total == pytest.approx(
            weights.w_dw * f_val + weights.w_chdw * chdw, rel=1e-12
        )


def test_refinement_energy_consistency_order():
    outcome = vf.refinement_energy_consistency(cell_counts=(8, 16, 32, 64))
    assert outcome.passed
    errs = [r["error"] for r in outcome.witness["rows"]]
    assert all(b < a for a, b in zip(errs, errs[1:]))
    assert outcome.measured >= 1.0  # observed order


def test_smooth_triple_in_admissible_range():
    t = vf.SmoothTriple()
    x = np.linspace(0, 1, 101)
    X, Y = np.meshgrid(x, x)
    s = t.s(X.ravel(), Y.ravel())
    assert s.min() > -0.5 and s.max() < 1.0
    nx, ny = t.n(X.ravel(), Y.ravel())
    assert np.abs(nx**2 + ny**2 - 1.0).max() <= 1e-14


def test_outcomes_deterministic_given_seed(ops4):
    a = vf.projection_monotonicity_check(ops4, np.random.default_rng(11), trials=50)
    b = vf.projection_monotonicity_check(ops4, np.random.default_rng(11), trials=50)
    assert a.measured == b.measured
    c = vf.projection_monotonicity_check(ops4, np.random.default_rng(12), trials=50)
    assert c.passed == a.passed  # witnesses may differ, outcomes must not


def test_suite_runs_and_report_roundtrip(tmp_path):
    outcomes = vf.run_suite(seed=5, acuteness_max=8)
    assert all(oc.passed for oc in outcomes)
    path = tmp_path / "report.jsonl"
    vf.write_report(outcomes, path)
    lines = path.read_text().strip().split("\n")
    assert len(lines) == len(outcomes)
    for line in lines:
        row = json.loads(line)
        assert set(row) >= {"name", "passed", "measured", "tolerance", "seed"}
        assert row["seed"] == 5


def test_suite_mutation_fails(tmp_path):
    outcomes = vf.run_suite(seed=0, mutate="convex-split-sign", acuteness_max=2)
    failed = [oc.name for oc in outcomes if not oc.passed]
    assert "energy_law_audit" in failed


def test_suite_rejects_an_unknown_mutation(monkeypatch):
    # before its first check
    monkeypatch.setattr(vf, "quadrature_exactness_check", lambda: pytest.fail("a check ran"))
    with pytest.raises(ValueError, match="unknown mutation 'typo'; choose from convex-split-sign"):
        vf.run_suite(seed=0, mutate="typo", acuteness_max=2)


def test_flow_trajectory_rejects_an_unknown_mutation(monkeypatch):
    problem = vf._corner_problem(nx=4, steps=2)
    monkeypatch.setattr(vf.sv, "run", lambda *args: pytest.fail("the flow ran"))
    with pytest.raises(ValueError, match="unknown mutation 'typo'; choose from convex-split-sign"):
        vf.flow_trajectory(problem, mutate="typo")


# each randomized lemma and the sweep on a patched program: a wrong
# normalization, a wrong sign of the implicit double-well load and a moved
# mesh node each make the check fail with its counterexample

def _long_normalized(n):
    """Unit vectors scaled to length 3: a normalization that lengthens."""
    return 3.0 * n / np.linalg.norm(n, axis=1)[:, None]


def test_projection_check_counts_a_violation(ops4, rng, monkeypatch):
    monkeypatch.setattr(vf.sv, "normalized", _long_normalized)
    outcome = vf.projection_monotonicity_check(ops4, rng, trials=5)
    assert not outcome.passed and outcome.measured < outcome.tolerance
    assert set(outcome.witness) == {"trial", "eform_margin", "cform_margin"}
    assert min(outcome.witness["eform_margin"], outcome.witness["cform_margin"]) \
        == outcome.measured


def test_lumped_check_counts_a_violation(ops4, rng, monkeypatch):
    monkeypatch.setattr(vf.sv, "normalized", _long_normalized)
    outcome = vf.lumped_monotonicity_check(ops4, rng, trials=5)
    assert outcome.name == "lumped_mass_monotonicity"
    assert not outcome.passed and outcome.measured < outcome.tolerance


def test_convex_split_check_counts_a_violation(ops4, rng, monkeypatch):
    monkeypatch.setattr(vf.en, "DW_DFC", -en.DW_DFC)
    outcome = vf.convex_split_check(ops4, rng, trials=20)
    assert outcome.name == "convex_split_inequality"
    assert not outcome.passed and outcome.measured > outcome.tolerance


def test_acuteness_sweep_reports_the_first_failing_mesh(monkeypatch):
    def moved_center(nx, ny):
        mesh = build_structured_mesh(nx, ny)
        if (nx, ny) != (2, 2):
            return mesh
        nodes = mesh.nodes.copy()
        nodes[4] = (0.6, 0.4)  # the center node, moved off the grid
        return TriMesh(nodes, mesh.elements)

    monkeypatch.setattr(vf, "build_structured_mesh", moved_center)
    outcome = vf.acuteness_sweep_check(max_n=3)
    assert outcome == vf.CheckOutcome("structured_mesh_acuteness", False,
                                      pytest.approx(-4.0 / 15.0), -1e-12, {"nx": 2, "ny": 2})
