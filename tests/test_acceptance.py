"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line.  The three full-resolution qualitative runs are marked
slow (minutes each); deselect with -m "not slow"."""
import time

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from lcdroplet import build_operators, build_structured_mesh, count_components
from lcdroplet import cli, config as cfg, energy as en, solver as sv, verify as vf
from lcdroplet.energy import ModelWeights
from lcdroplet.mesh import audit_weak_acuteness

PRESETS = ("droplet_move", "droplet_corner", "droplet_collide", "droplet_split")


def _report(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] {criterion}: {status} {detail}".rstrip())


# ---------------------------------------------------------------------------
# criteria 1 and 3 share the four reduced-resolution preset runs
# ---------------------------------------------------------------------------

@pytest.fixture(scope="session")
def reduced_preset_runs(tmp_path_factory):
    runs = {}
    for name in PRESETS:
        out = tmp_path_factory.mktemp(f"accept_{name}")
        c = cfg.merge_config(
            cfg.preset(name), None,
            ["mesh.nx=32", "mesh.ny=32", "scheme.tau=0.002",
             "scheme.t_final=0.4"],
        )
        t0 = time.time()
        final, code = cli.run_scenario(cfg.build_problem(c), str(out))
        elapsed = time.time() - t0
        assert code == 0
        lines = (out / "energy.csv").read_text().strip().split("\n")[1:]
        rows = [line.split(",") for line in lines]
        runs[name] = {
            "totals": [float(r[8]) for r in rows],
            "drifts": [float(r[9]) for r in rows],
            "elapsed": elapsed,
        }
    return runs


@pytest.mark.parametrize("name", PRESETS)
def test_criterion_1_energy_monotonicity(reduced_preset_runs, name):
    run = reduced_preset_runs[name]
    totals = run["totals"]
    assert len(totals) == 201
    worst = max(b - a for a, b in zip(totals, totals[1:]))
    ok = worst <= 1e-11 and run["elapsed"] <= 120.0
    _report(
        f"criterion 1 energy monotonicity ({name})", ok,
        f"worst increase {worst:.2e}, runtime {run['elapsed']:.1f}s",
    )
    assert worst <= 1e-11
    assert run["elapsed"] <= 120.0


def test_criterion_2_unconditional_stability_sweep():
    t0 = time.time()
    worst_by_tau = {}
    for tau in (0.0005, 0.002, 0.01, 0.05):
        c = cfg.merge_config(
            cfg.preset("droplet_corner"), None,
            ["mesh.nx=16", "mesh.ny=16", f"scheme.tau={tau}",
             f"scheme.t_final={50 * tau}"],
        )
        prob = cfg.build_problem(c)
        state = prob.initial
        worst = -np.inf
        for _ in range(50):
            state, rep = sv.gradient_flow_step(prob.ops, state, prob.weights, prob.scheme)
            worst = max(worst, rep.after.total - rep.before.total)
        worst_by_tau[tau] = worst
    elapsed = time.time() - t0
    ok = all(w <= 1e-11 for w in worst_by_tau.values()) and elapsed <= 60.0
    _report(
        "criterion 2 stability sweep", ok,
        " ".join(f"tau={t}:{w:.1e}" for t, w in worst_by_tau.items())
        + f", runtime {elapsed:.1f}s",
    )
    for tau, worst in worst_by_tau.items():
        assert worst <= 1e-11, f"energy increased by {worst} at tau={tau}"
    assert elapsed <= 60.0


def test_criterion_3_mass_conservation(reduced_preset_runs):
    worst = max(
        max(abs(d) for d in run["drifts"]) for run in reduced_preset_runs.values()
    )
    ok = worst <= 1e-9
    _report("criterion 3 mass conservation", ok, f"worst drift {worst:.2e}")
    assert ok


def test_criterion_4_projection_lemmas():
    ops = build_operators(build_structured_mesh(4, 4))
    rng = np.random.default_rng(0)
    proj = vf.projection_monotonicity_check(ops, rng, trials=1000)
    lumped = vf.lumped_monotonicity_check(ops, rng, trials=1000)
    ok = proj.passed and lumped.passed
    _report(
        "criterion 4 projection lemmas", ok,
        f"worst margins {proj.measured:.2e} / {lumped.measured:.2e}",
    )
    assert proj.passed, proj
    assert lumped.passed, lumped


def test_criterion_5_variational_derivative_oracle():
    ops = build_operators(build_structured_mesh(4, 4))
    rng = np.random.default_rng(0)
    weights = ModelWeights()
    base = vf.random_admissible_fields(ops.mesh, rng)
    direction = vf.random_directions(ops.mesh, base, rng)
    outcomes = [
        vf.fd_derivative_check(ops, weights, eid, base, direction, h=1e-5)
        for eid in vf.DERIVATIVE_IDS
    ]
    worst = max(oc.measured for oc in outcomes)
    ok = all(oc.passed for oc in outcomes)
    _report(
        "criterion 5 derivative oracle", ok,
        f"{len(outcomes)} derivatives, worst rel err {worst:.2e}",
    )
    for oc in outcomes:
        assert oc.passed, oc


def test_criterion_6_brute_force_equivalence():
    ops = build_operators(build_structured_mesh(2, 2))
    outcome = vf.brute_force_form_check(ops, np.random.default_rng(0), trials=1000)
    _report(
        "criterion 6 brute-force equivalence", outcome.passed,
        f"worst rel diff {outcome.measured:.2e}",
    )
    assert outcome.passed, outcome


def test_criterion_7_convex_splitting():
    ops = build_operators(build_structured_mesh(4, 4))
    outcome = vf.convex_split_check(ops, np.random.default_rng(0), trials=1000)
    df_at_min = abs(float(npoly.polyval(0.75, en.DW_DFC) - npoly.polyval(0.75, en.DW_DFE)))
    ok = outcome.passed and df_at_min <= 1e-12
    _report(
        "criterion 7 convex splitting", ok,
        f"worst gap {outcome.measured:.2e}, |f'(0.75)| = {df_at_min:.2e}",
    )
    assert outcome.passed, outcome
    assert df_at_min <= 1e-12


def test_criterion_8_refinement_energy_consistency():
    t0 = time.time()
    outcome = vf.refinement_energy_consistency(cell_counts=(8, 16, 32, 64))
    elapsed = time.time() - t0
    errs = [r["error"] for r in outcome.witness["rows"]]
    decreasing = all(b < a for a, b in zip(errs, errs[1:]))
    ok = outcome.passed and elapsed <= 60.0
    _report(
        "criterion 8 refinement consistency", ok,
        f"observed order {outcome.measured:.2f}, runtime {elapsed:.1f}s",
    )
    assert decreasing
    assert outcome.measured >= 1.0
    assert elapsed <= 60.0


# At the preset weights the Cahn-Hilliard part of the energy has no
# droplets: the interfacial energy of the initial droplets exceeds the
# energy of the dissolved uniform state by a factor of 5-8, so the positive
# phase vanishes within a few steps and criterion 9 would only observe the
# dissolution.  Criterion 9 therefore runs with a double-well weight at which
# droplets are energetically favoured and checks the regime before stepping.
DROPLET_REGIME = "weights.w_chdw=100"


def _dissolution_ratio(prob, n_droplets):
    """Interfacial energy of the initial droplets over the energy of the
    dissolved uniform state with the same mass.

    The droplets are taken as ``n_droplets`` equal disks holding the
    positive-phase area implied by the initial mass; the 1D tanh profile
    of the implemented energy ``w_chdw (phi^2-1)^2/(4 eps) + w_chgd eps/2
    |grad phi|^2`` carries the tension
    ``sigma = (2 sqrt(2)/3) sqrt(w_chgd w_chdw)``.  A ratio above 1 means
    dissolving every droplet lowers the energy.
    """
    w = prob.weights
    area = float(prob.ops.mass_rows.sum())
    phi_bar = float(prob.ops.mass_rows @ prob.initial.phi.values) / area
    droplet_area = 0.5 * (phi_bar + 1.0) * area
    perimeter = 2.0 * np.sqrt(np.pi * n_droplets * droplet_area)
    sigma = (2.0 * np.sqrt(2.0) / 3.0) * np.sqrt(w.w_chgd * w.w_chdw)
    dissolved = area * w.w_chdw * (phi_bar**2 - 1.0) ** 2 / (4.0 * w.eps)
    return perimeter * sigma / dissolved


def _outcome(initial, final):
    if final == 0:
        return "every droplet dissolved"
    if final == initial:
        return f"held together as {final}"
    if final < initial:
        return f"merged from {initial} into {final}"
    return f"broke up from {initial} into {final}"


def _full_run_components(name, n_droplets, overrides=()):
    """Run a full-resolution preset to T in the droplet regime.

    Asserts the regime (dissolution ratio below 1) and the initial count
    of positive-phase components before stepping; returns the final count
    and a description of the run for the acceptance line."""
    preset_prob = cfg.build_problem(
        cfg.merge_config(cfg.preset(name), None, list(overrides))
    )
    prob = cfg.build_problem(
        cfg.merge_config(cfg.preset(name), None,
                         list(overrides) + [DROPLET_REGIME])
    )
    ratio = _dissolution_ratio(prob, n_droplets)
    assert ratio < 1.0, (
        f"{name} with {DROPLET_REGIME}: interfacial/dissolved energy ratio "
        f"{ratio:.2f} >= 1, so dissolving the droplets lowers the energy and "
        "the run cannot show droplet dynamics"
    )
    initial = count_components(prob.mesh, prob.initial.phi.values > 0.0)
    assert initial == n_droplets, (
        f"{name}: initial phase field has {initial} positive-phase "
        f"component(s), expected {n_droplets}"
    )

    state = sv.run(prob.ops, prob.initial, prob.weights, prob.scheme, prob.bc)
    assert state.step_index == round(prob.scheme.t_final / prob.scheme.tau)
    final = count_components(prob.mesh, state.phi.values > 0.0)
    detail = (
        f"components {initial} -> {final} ({_outcome(initial, final)}); "
        f"dissolution ratio {ratio:.2f} with {DROPLET_REGIME}, "
        f"{_dissolution_ratio(preset_prob, n_droplets):.2f} at the preset weights"
    )
    return final, detail


@pytest.mark.parametrize("overrides, expected", [((), 7.5), ((DROPLET_REGIME,), 0.75)])
def test_simulate_checks_the_droplet_regime(tmp_path, capsys, overrides, expected):
    """``config.dissolution_ratio`` computes the dissolution ratio of the
    initial droplets as ``_dissolution_ratio`` does, and ``simulate``
    records it in config.yaml and warns when it is 1 or more."""
    sets = [arg for o in overrides for arg in ("--set", o)]
    assert cli.main(["simulate", "--preset", "droplet_collide", "--set", "scheme.t_final=0",
                     *sets, "--out", str(tmp_path)]) == 0
    prob = cfg.build_problem(cfg.merge_config(cfg.preset("droplet_collide"), None,
                                              list(overrides)))
    ratio = cfg.dissolution_ratio(prob)
    assert abs(ratio - _dissolution_ratio(prob, 2)) <= 1e-12 * ratio
    assert float(f"{ratio:.2g}") == expected  # two significant digits
    config_yaml = (tmp_path / "config.yaml").read_text()
    assert config_yaml.startswith(f"# dissolution_ratio: {ratio!r}\n")
    assert ("warning" in capsys.readouterr().err) == (expected >= 1.0)


@pytest.mark.slow
def test_criterion_9a_collide_single_component():
    comps, detail = _full_run_components("droplet_collide", 2)
    ok = comps == 1
    _report("criterion 9a collide ends as one droplet", ok, detail)
    assert comps == 1, (
        f"expected one positive-phase component at T=2, observed {detail}; "
        "see README, criterion 9"
    )


@pytest.mark.slow
def test_criterion_9b_split_two_components():
    comps, detail = _full_run_components("droplet_split", 1)
    ok = comps == 2
    _report("criterion 9b split ends as two droplets", ok, detail)
    assert comps == 2, (
        f"expected two positive-phase components at T=2, observed {detail}; "
        "see README, criterion 9"
    )


@pytest.mark.slow
def test_criterion_9c_split_holds_with_higher_tension():
    comps, detail = _full_run_components("droplet_split", 1, ["weights.w_chgd=21"])
    ok = comps == 1
    _report("criterion 9c split holds together at w_chgd=21", ok, detail)
    assert comps == 1, (
        f"expected one positive-phase component at T=2, observed {detail}; "
        "see README, criterion 9"
    )


def _merge_time(tau):
    """The time of the first step of the 64^2 droplet_collide run in the
    droplet regime, at tau, after which phi > 0 is one component; every
    step's ledger must close to 1e-12 relative with the solver defect
    charged."""
    prob = cfg.build_problem(cfg.merge_config(
        cfg.preset("droplet_collide"), None, [DROPLET_REGIME, f"scheme.tau={tau!r}"]))
    state, cache = prob.initial, sv.JacobianCache()
    while count_components(prob.mesh, state.phi.values > 0.0) != 1:
        assert state.time < prob.scheme.t_final, f"no merge by t = {state.time} at tau = {tau}"
        state, rep = sv.gradient_flow_step(prob.ops, state, prob.weights, prob.scheme, cache=cache)
        scale = max(abs(rep.before.total), abs(rep.after.total), 1.0)
        assert abs(rep.closed_budget_residual) <= 1e-12 * scale, (tau, state.step_index)
    return state.time


@pytest.mark.slow
def test_merge_time_is_first_order_in_tau():
    """Halving tau shrinks the merge time's error by about 2 (first order):
    the ratio of successive differences of the merge times at tau = 1e-3,
    5e-4 and 2.5e-4 lies in [1.7, 2.5].  Their Richardson limit is where
    the merge converges; the presets' tau = 0.002 merges much later (see
    README, criterion 9)."""
    t0 = time.time()
    taus = (1e-3, 5e-4, 2.5e-4)
    t1, t2, t3 = (_merge_time(tau) for tau in taus)
    ratio = (t1 - t2) / (t2 - t3)
    ok = 1.7 <= ratio <= 2.5
    _report(
        "time accuracy of the merge", ok,
        f"merge at t = {t1:.4f}, {t2:.4f}, {t3:.4f} for tau = {taus}; difference "
        f"ratio {ratio:.2f}; Richardson limit {2.0 * t3 - t2:.4f}; "
        f"runtime {time.time() - t0:.0f}s",
    )
    assert ok, f"difference ratio {ratio:.3f} outside [1.7, 2.5]"


def _wulff_run(nx, w_wan):
    """The stiff-weights droplet_corner flow on nx^2 cells at w_wan, a tanh
    disk of radius 0.2 at the centre relaxed to T = 2 at tau = 0.01: w_erk =
    1e4 holds n and s uniform, so that E_chgd + E_wan is eps/2 int grad
    phi^T A grad phi with the constant A = w_chgd I + w_wan s^2 (I - n n^T).
    Returns the problem, the final state and the step reports."""
    prob = cfg.build_problem(cfg.merge_config(cfg.preset("droplet_corner"), None, [
        f"mesh.nx={nx}", f"mesh.ny={nx}", "weights.w_chdw=100", f"weights.w_wan={w_wan}",
        "weights.w_erk=10000", "scheme.tau=0.01", "scheme.t_final=2",
        "initial.phi=-tanh(((x - 0.5)**2/0.04 + (y - 0.5)**2/0.04 - 1)/(2*eps))",
    ]))
    state, cache, reports = prob.initial, sv.JacobianCache(), []
    for _ in range(round(prob.scheme.t_final / prob.scheme.tau)):
        state, rep = sv.gradient_flow_step(prob.ops, state, prob.weights, prob.scheme,
                                           cache=cache)
        reports.append(rep)
    return prob, state, reports


def _semi_axis(mesh, phi, axis):
    """Half the distance between the two zero crossings of the P1 field phi
    on the mesh line through (0.5, 0.5) along ``axis`` (0: x, 1: y)."""
    line = np.flatnonzero(mesh.nodes[:, 1 - axis] == 0.5)
    line = line[np.argsort(mesh.nodes[line, axis])]
    t, f = mesh.nodes[line, axis], phi[line]
    k = np.flatnonzero(np.sign(f[:-1]) != np.sign(f[1:]))
    assert k.size == 2, f"phi changes sign {k.size} times on the line"
    roots = t[k] - f[k] * (t[k + 1] - t[k]) / (f[k + 1] - f[k])
    return 0.5 * (roots[1] - roots[0])


@pytest.mark.slow
def test_anisotropic_tension_relaxes_to_its_wulff_ellipse():
    """With n and s uniform, the weak anchoring energy is an anisotropic
    surface tension, and the substitution x = A^(1/2) y maps the stationary
    droplet onto a round one: its phi = 0 contour is an ellipse, long across
    n, with axis ratio b/a = sqrt(1 + w_wan s*^2 / w_chgd) (see README).  At
    w_wan = 0, 20 and 80 on 32^2 and 64^2 cells: b/a = 1 within 1e-3 at
    w_wan = 0, b > a otherwise, b/a within 0.5 % of the prediction at 64^2,
    and its error at w_wan = 80 smaller at 64^2 than at 32^2.  Every run
    holds n within 0.1 degree of e_x and s within 1e-3 of s*, closes its
    charged ledger to 1e-12 at every step and ends with |dE/dt| <= 1e-6."""
    t0 = time.time()
    errors, rows = {}, []
    for nx in (32, 64):
        for w_wan in (0, 20, 80):
            prob, state, reports = _wulff_run(nx, w_wan)
            w = prob.weights
            for step, rep in enumerate(reports, 1):
                scale = max(abs(rep.before.total), abs(rep.after.total), 1.0)
                assert abs(rep.closed_budget_residual) <= 1e-12 * scale, (nx, w_wan, step)
            rate = (reports[-1].before.total - reports[-1].after.total) / prob.scheme.tau
            assert abs(rate) <= 1e-6, (nx, w_wan, rate)
            n, s = state.n.values, state.s.values
            turn = float(np.degrees(np.max(np.abs(np.arctan2(n[:, 1], n[:, 0])))))
            assert turn <= 0.1, (nx, w_wan, turn)
            assert np.max(np.abs(s - w.s_star)) <= 1e-3, (nx, w_wan)
            a = _semi_axis(prob.mesh, state.phi.values, 0)
            b = _semi_axis(prob.mesh, state.phi.values, 1)
            predicted = np.sqrt(1.0 + w_wan * w.s_star**2 / w.w_chgd)
            errors[nx, w_wan] = abs(b / a - predicted) / predicted
            rows.append(f"{nx}^2 w_wan={w_wan}: b/a {b / a:.4f} (predicted {predicted:.4f})")
            if w_wan == 0:
                assert abs(b / a - 1.0) <= 1e-3, rows[-1]
            else:
                assert b > a, rows[-1]
            if nx == 64:
                assert errors[nx, w_wan] <= 5e-3, rows[-1]
    ok = errors[64, 80] < errors[32, 80]
    _report("anisotropic tension, Wulff ellipse", ok,
            f"{'; '.join(rows)}; runtime {time.time() - t0:.0f}s")
    assert ok, errors


def test_criterion_10_weak_acuteness_audit():
    t0 = time.time()
    worst = np.inf
    for nx in range(1, 65):
        for ny in range(1, 65):
            mesh = build_structured_mesh(nx, ny)
            report = audit_weak_acuteness(mesh)
            worst = min(worst, report.min_offdiag_kij)
            assert report.is_weakly_acute, (nx, ny)
    from test_mesh import obtuse_fixture

    bad = obtuse_fixture()
    flagged = audit_weak_acuteness(bad)
    ok = worst >= -1e-12 and not flagged.is_weakly_acute
    _report(
        "criterion 10 weak-acuteness audit", ok,
        f"sweep min k_ij {worst:.2e}, obtuse fixture flagged, "
        f"runtime {time.time() - t0:.0f}s",
    )
    assert worst >= -1e-12
    assert not flagged.is_weakly_acute
