import math

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

import naive_assembly as naive
from lcdroplet import TriMesh, build_operators, build_structured_mesh
from lcdroplet import energy as en
from lcdroplet import verify as vf
from lcdroplet.assembly import element_gradients, tensor_stiffness
from lcdroplet.energy import ModelWeights
from lcdroplet.solver import InterfaceJacobian


def unit_director(theta):
    return np.column_stack([np.cos(theta), np.sin(theta)])


def energies(ops, s, n, phi, gphi=None, coupling=None, **constants):
    """The ``total_energy`` report at unit weights and the model constants given."""
    return en.total_energy(ops, ModelWeights(**constants), s, n, phi, gphi, coupling)


# ---------------------------------------------------------------------------
# multilinear forms
# ---------------------------------------------------------------------------

def test_eform_constant_director_vanishes(ops4, rng):
    n = np.tile([0.6, 0.8], (ops4.mesh.n_nodes, 1))
    s = rng.uniform(-0.4, 0.9, ops4.mesh.n_nodes)
    w = rng.standard_normal((ops4.mesh.n_nodes, 2))
    assert en.eform(ops4, s, s, n, w) == 0.0


def test_eform_unit_weights_matches_gradient_energy(ops4, rng):
    # with both scalar slots at 1, half the form equals the gradient
    # energy of the (componentwise affine) vector field
    n = rng.standard_normal((ops4.mesh.n_nodes, 2))
    ones = np.ones(ops4.mesh.n_nodes)
    assert 0.5 * en.eform(ops4, ones, ones, n, n) == pytest.approx(
        np.sum(n * (ops4.stiffness @ n)), rel=1e-12
    )


def test_eform_multilinearity(ops4, rng):
    s = rng.uniform(0.1, 0.9, ops4.mesh.n_nodes)
    z = rng.standard_normal(ops4.mesh.n_nodes)
    n = rng.standard_normal((ops4.mesh.n_nodes, 2))
    w = rng.standard_normal((ops4.mesh.n_nodes, 2))
    base = en.eform(ops4, s, z, n, w)
    assert en.eform(ops4, 2.5 * s, z, n, w) == pytest.approx(2.5 * base, rel=1e-12)
    assert en.eform(ops4, s, z, n, 3.0 * w) == pytest.approx(3.0 * base, rel=1e-12)
    assert en.eform(ops4, s, z, w, n) == pytest.approx(base, rel=1e-12)


def test_forms_reject_mismatched_fields(ops4, ops2, rng):
    s4 = rng.uniform(0.1, 0.9, ops4.mesh.n_nodes)
    n4 = rng.standard_normal((ops4.mesh.n_nodes, 2))
    s2 = rng.uniform(0.1, 0.9, ops2.mesh.n_nodes)
    with pytest.raises(ValueError):
        en.eform(ops4, s2, s2, n4, n4)
    g2 = np.zeros((ops2.mesh.n_elements, 2))
    with pytest.raises(ValueError):
        en.cform(ops4, n4, g2, n4, g2, s4, s4)


def test_cform_alignment_and_constant_phi(ops4, rng):
    mesh = ops4.mesh
    s = rng.uniform(0.1, 0.9, mesh.n_nodes)
    phi = mesh.nodes[:, 0].copy()
    gphi = element_gradients(mesh, phi)
    aligned = np.tile([1.0, 0.0], (mesh.n_nodes, 1))
    assert en.cform(ops4, aligned, gphi, aligned, gphi, s, s) == 0.0
    n = unit_director(rng.uniform(0, 2 * np.pi, mesh.n_nodes))
    assert en.cform(ops4, n, 0 * gphi, n, 0 * gphi, s, s) == 0.0


def test_cform_matches_interpolant_formulation(ops4, rng):
    """The vertex-sum definition equals elementwise integration of the
    nodal interpolant of the integrand, for each trial of a batch."""
    mesh = ops4.mesh
    s = rng.uniform(-0.4, 0.9, mesh.n_nodes)
    z = rng.standard_normal(mesh.n_nodes)
    v = rng.standard_normal((3, mesh.n_nodes, 2))
    w = rng.standard_normal((3, mesh.n_nodes, 2))
    phi = rng.uniform(-1, 1, mesh.n_nodes)
    psi = rng.uniform(-1, 1, mesh.n_nodes)
    gphi = element_gradients(mesh, phi)
    gpsi = element_gradients(mesh, psi)

    d = 2
    eye = np.eye(d)
    H = np.empty((mesh.n_elements, 3, d, d))
    for t in range(mesh.n_elements):
        Ht = (gphi[t] @ gpsi[t]) * eye - np.outer(gphi[t], gpsi[t])
        for a in range(3):
            i = mesh.elements[t, a]
            H[t, a] = s[i] * z[i] * Ht
    via_interpolant = vf.vertex_form(ops4, v, np.stack([H, H, 2.0 * H]), w)
    assert via_interpolant.shape == (3,)
    for t, scale in enumerate([1.0, 1.0, 2.0]):
        assert scale * en.cform(ops4, v[t], gphi, w[t], gpsi, s, z) == pytest.approx(
            via_interpolant[t], rel=1e-12, abs=1e-14
        )


def test_cform_square_matches_naive_cform(rng):
    """cform_square, the ledger's route to cform(n, g, n, g, s, s), equals
    the per-vertex loop of ``verify.naive_cform`` to 1e-12 on random
    fields, on structured meshes and on one with its interior nodes moved,
    and is never negative."""
    moved = build_structured_mesh(4, 4)
    inner = np.setdiff1d(np.arange(moved.n_nodes), moved.boundary_nodes)
    nodes = moved.nodes.copy()
    nodes[inner] += rng.uniform(-0.05, 0.05, (inner.size, 2))
    for mesh in (build_structured_mesh(2, 2), build_structured_mesh(4, 4),
                 TriMesh(nodes, moved.elements)):
        ops, trials = build_operators(mesh), 20
        n = rng.standard_normal((trials, mesh.n_nodes, 2))
        phi = rng.uniform(-1, 1, (trials, mesh.n_nodes))
        s = rng.uniform(-0.4, 0.9, (trials, mesh.n_nodes))
        naive = vf.naive_cform(mesh, n, phi, n, phi, s, s)
        for t in range(trials):
            got = en.cform_square(ops, n[t], element_gradients(mesh, phi[t]), s[t])
            assert got >= 0.0
            assert got == pytest.approx(naive[t], rel=1e-12)


def test_cform_phi_matrix_consistency(ops4, rng):
    # with only the weak anchoring term on, the phi-matrix is the
    # coupling form in its gradient slots
    mesh = ops4.mesh
    weights = ModelWeights(w_chgd=0.0, w_was=0.0, w_wan=1.7, eps=0.07)
    s = rng.uniform(0.1, 0.9, mesh.n_nodes)
    n = unit_director(rng.uniform(0, 2 * np.pi, mesh.n_nodes))
    phi = rng.standard_normal(mesh.n_nodes)
    psi = rng.standard_normal(mesh.n_nodes)
    A0 = en.ch_step_matrix(ops4, weights, s, n, en.was_weights(ops4, s, weights.s_star))
    direct = weights.w_wan * weights.eps * en.cform(
        ops4, n, element_gradients(mesh, phi), n, element_gradients(mesh, psi), s, s
    )
    assert psi @ (A0 @ phi) == pytest.approx(direct, rel=1e-12)
    assert np.abs((A0 - A0.T).toarray()).max() <= 1e-14


# ---------------------------------------------------------------------------
# energies
# ---------------------------------------------------------------------------

def test_ericksen_energy_zeros_and_substitution(ops4, rng):
    mesh = ops4.mesh
    n_const = np.tile([0.0, 1.0], (mesh.n_nodes, 1))
    s_const = np.full(mesh.n_nodes, 0.750025)
    phi = np.zeros(mesh.n_nodes)
    assert energies(ops4, s_const, n_const, phi, kappa=1.0).e_erk == pytest.approx(
        0.0, abs=1e-14
    )
    n = unit_director(rng.uniform(0, 2 * np.pi, mesh.n_nodes))
    ones = np.ones(mesh.n_nodes)
    expected = 0.5 * en.eform(ops4, ones, ones, n, n)
    with pytest.warns(RuntimeWarning, match="orientation field leaves"):  # s = 1, in E_dw
        report = energies(ops4, ones, n, phi, kappa=1.0)
    assert report.e_erk == pytest.approx(expected, rel=1e-12)


def test_ericksen_coercivity(ops4, rng):
    """Discrete elastic energy dominates min(kappa,1) times the gradient
    energy of both the orientation field and the combined field."""
    mesh = ops4.mesh
    for kappa in (0.3, 1.0, 2.0):
        for _ in range(50):
            s = rng.uniform(-0.4, 0.9, mesh.n_nodes)
            n = unit_director(rng.uniform(0, 2 * np.pi, mesh.n_nodes))
            u = s[:, None] * n
            e = energies(ops4, s, n, np.zeros(mesh.n_nodes), kappa=kappa).e_erk
            bound = min(kappa, 1.0) * max(
                np.sum(u * (ops4.stiffness @ u)), float(s @ (ops4.stiffness @ s))
            )
            assert e >= bound - 1e-11


def test_gradient_energies_are_accurate_to_their_own_size():
    """E_erk and E_chgd of fields that differ from constants by a small
    smooth bump equal an accurately summed edge sum of their own terms to
    1e-12 of their size; the stiffness product u^T K u, whose terms cancel
    for such fields, misses by far more than that."""
    mesh = build_structured_mesh(64, 64)
    ops = build_operators(mesh)
    x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
    bump, delta = np.exp(-((x - 0.5) ** 2 + (y - 0.5) ** 2) / 0.02), 1e-4
    s, phi = 0.75 + delta * bump, 1.0 + delta * bump
    n = np.tile([0.6, 0.8], (mesh.n_nodes, 1))  # uniform: eform_scalar_diag is 0
    weights = ModelWeights()
    report = en.total_energy(ops, weights, s, n, phi)
    for name, u, c in (("e_erk", s, weights.kappa), ("e_chgd", phi, 0.5 * weights.eps)):
        d = u[mesh.edges.lo] - u[mesh.edges.hi]
        edge_sum = math.fsum(mesh.edge_k * d * d)
        assert edge_sum > 0.0
        assert abs(getattr(report, name) - c * edge_sum) <= 1e-12 * c * edge_sum, name
        assert abs(float(u @ (ops.stiffness @ u)) - edge_sum) > 1e-9 * edge_sum, name


def double_well_derivative(s):
    return npoly.polyval(s, en.DW_DFC) - npoly.polyval(s, en.DW_DFE)


def test_double_well_is_numpy_polyval_bit_for_bit():
    """Also at signed zeros and far outside S_RANGE, for a vector, for an
    (ne, 6) array of quadrature values and for a float."""
    grid = np.concatenate([[0.0, -0.0, *en.S_RANGE, 1e8, -1e8], np.linspace(-1.0, 2.0, 90)])
    for x in (grid, grid.reshape(16, 6)):
        for c in (en.DW_FC, en.DW_FE, en.DW_DFC, en.DW_DFE):
            assert en._polyval(x, c).tobytes() == npoly.polyval(x, c).tobytes()
        ref = npoly.polyval(x, en.DW_FC) - npoly.polyval(x, en.DW_FE)
        assert en.double_well(x).tobytes() == ref.tobytes()
    for v in (0.0, -0.0, 0.6):
        ref = npoly.polyval(v, en.DW_FC) - npoly.polyval(v, en.DW_FE)
        assert np.float64(en.double_well(v)).tobytes() == ref.tobytes()


def test_double_well_polynomial_facts():
    assert abs(double_well_derivative(0.75)) <= 1e-12
    assert en.double_well(0.0) == 0.0
    assert en.double_well(0.75) == pytest.approx(-0.5625, rel=1e-12)
    assert en.double_well(0.0) > en.double_well(0.75)
    # critical points of f are exactly {0, 1/4, 3/4}
    for root in (0.0, 0.25, 0.75):
        assert abs(double_well_derivative(root)) <= 1e-12


def test_double_well_energy_zero_field(ops4):
    s = np.zeros(ops4.mesh.n_nodes)
    assert en.energy_dw(ops4, s) == pytest.approx(0.0, abs=1e-15)


def test_double_well_range_warning(ops4):
    s = np.full(ops4.mesh.n_nodes, 1.2)
    with pytest.warns(RuntimeWarning):
        en.energy_dw(ops4, s)


def split_defects(fc_coeffs, fe_coeffs):
    """What disqualifies a split f = f_c - f_e from the scheme: an f_c past
    s^2 (the orientation stage would not be one linear solve) or a part
    that is not convex on the admissible range."""
    defects = []
    if np.any(np.asarray(fc_coeffs, dtype=float)[3:]):
        defects.append("f_c must be at most quadratic")
    grid = np.arange(-0.49, 0.99 + 1e-9, 1e-3)
    for name, coeffs in (("f_c", fc_coeffs), ("f_e", fe_coeffs)):
        if np.any(npoly.polyval(grid, npoly.polyder(coeffs, 2)) < 0.0):
            defects.append(f"{name} is not convex")
    return defects


def test_nonconvex_split_rejected():
    assert split_defects((0, 0, -1.0), (0, 0, 1.0)) == ["f_c is not convex"]
    assert split_defects(en.DW_FC, en.DW_FE) == []


def test_convex_part_above_quadratic_rejected():
    # the default f, split with a quartic convex part
    defects = split_defects((0, 0, 63, 0, 4), (0, 0, 57, 64 / 3, -12))
    assert "f_c must be at most quadratic" in defects
    assert split_defects(en.DW_FC, en.DW_FE) == []


def test_ch_energy_examples(ops4):
    mesh = ops4.mesh
    eps = 0.05
    ones = np.ones(mesh.n_nodes)
    zeros = np.zeros(mesh.n_nodes)
    s, n = zeros, np.tile([1.0, 0.0], (mesh.n_nodes, 1))
    report = energies(ops4, s, n, ones, eps=eps)
    assert report.e_chdw == pytest.approx(0.0, abs=1e-14)
    assert report.e_chgd == pytest.approx(0.0, abs=1e-14)
    assert energies(ops4, s, n, zeros, eps=eps).e_chdw == pytest.approx(
        1.0 / (4 * eps), rel=1e-13
    )
    x = mesh.nodes[:, 0].copy()
    assert energies(ops4, s, n, x, eps=eps).e_chgd == pytest.approx(eps / 2, rel=1e-13)


def test_anchoring_energy_zeros(ops4, rng):
    mesh = ops4.mesh
    eps, s_star = 0.05, 0.750025
    s = rng.uniform(0.1, 0.9, mesh.n_nodes)
    n = unit_director(rng.uniform(0, 2 * np.pi, mesh.n_nodes))
    gz = np.zeros((mesh.n_elements, 2))
    phi0 = np.zeros(mesh.n_nodes)
    assert energies(ops4, s, n, phi0, eps=eps, gphi=gz,
                    coupling=en.coupling_tensors(ops4, gz, gz)).e_wan == 0.0
    assert en.energy_was(ops4, en.was_weights(ops4, s, s_star), gz, eps) == 0.0
    phi = rng.uniform(-1, 1, mesh.n_nodes)
    gphi = element_gradients(mesh, phi)
    s_const = np.full(mesh.n_nodes, s_star)
    assert en.energy_was(ops4, en.was_weights(ops4, s_const, s_star), gphi, eps) == pytest.approx(
        0.0, abs=1e-16
    )
    aligned = np.tile([1.0, 0.0], (mesh.n_nodes, 1))
    gx = element_gradients(mesh, mesh.nodes[:, 0].copy())
    assert energies(ops4, s, aligned, phi0, eps=eps, gphi=gx,
                    coupling=en.coupling_tensors(ops4, gx, gx)).e_wan == 0.0


def test_was_energy_two_expressions_agree(ops4, rng):
    # with only the axial anchoring term on, half the phi-matrix's
    # quadratic form is the weighted energy
    mesh = ops4.mesh
    weights = ModelWeights(w_chgd=0.0, w_wan=0.0, w_was=1.3, eps=0.07, s_star=0.750025)
    s = rng.uniform(-0.4, 0.9, mesh.n_nodes)
    n = unit_director(rng.uniform(0, 2 * np.pi, mesh.n_nodes))
    phi = rng.uniform(-1, 1, mesh.n_nodes)
    gphi = element_gradients(mesh, phi)
    a = en.was_weights(ops4, s, weights.s_star)
    direct = weights.w_was * en.energy_was(ops4, a, gphi, weights.eps)
    via_matrix = 0.5 * float(phi @ (en.ch_step_matrix(ops4, weights, s, n, a) @ phi))
    assert direct == pytest.approx(via_matrix, rel=1e-12)


def test_total_energy_constant_state(ops4):
    mesh = ops4.mesh
    weights = ModelWeights(s_star=0.75)
    s = np.full(mesh.n_nodes, 0.75)
    n = np.tile([1.0, 0.0], (mesh.n_nodes, 1))
    phi = np.ones(mesh.n_nodes)
    rep = en.total_energy(ops4, weights, s, n, phi)
    for val in (rep.e_erk, rep.e_chdw, rep.e_chgd, rep.e_wan, rep.e_was):
        assert val == pytest.approx(0.0, abs=1e-14)
    # the double well offsets the total by its constant value
    assert rep.total == pytest.approx(weights.w_dw * rep.e_dw, rel=1e-12)


def test_total_energy_zero_weights(ops4, rng):
    mesh = ops4.mesh
    weights = ModelWeights(
        w_erk=0, w_dw=0, w_chdw=0, w_chgd=0, w_wan=0, w_was=0
    )
    s = rng.uniform(0.1, 0.9, mesh.n_nodes)
    n = unit_director(rng.uniform(0, 2 * np.pi, mesh.n_nodes))
    phi = rng.uniform(-1, 1, mesh.n_nodes)
    assert en.total_energy(ops4, weights, s, n, phi).total == 0.0


def test_move_preset_initial_energy_golden():
    """Frozen after the first verified computation at full resolution."""
    from lcdroplet import config as cfg

    prob = cfg.build_problem(cfg.preset("droplet_move"))
    st = prob.initial
    rep = en.total_energy(
        prob.ops, prob.weights, st.s.values, st.n.values, st.phi.values
    )
    assert rep.total == pytest.approx(250.66744566923757, rel=1e-12)
    assert rep.e_erk == pytest.approx(169.97011936668366, rel=1e-12)
    assert rep.e_was == 0.0
    assert rep.total > 0.0


def test_model_weights_validation():
    with pytest.raises(ValueError):
        ModelWeights(w_erk=-1.0)
    with pytest.raises(ValueError):
        ModelWeights(eps=0.0)
    with pytest.raises(ValueError):
        ModelWeights(s_star=1.5)


# ---------------------------------------------------------------------------
# scheme systems
# ---------------------------------------------------------------------------

def test_director_system_spd(ops2, rng):
    from lcdroplet.solver import tangent_space

    mesh = ops2.mesh
    weights = ModelWeights(w_wan=2.0, rho=1.3)
    tau = 0.01
    s = rng.uniform(0.1, 0.9, mesh.n_nodes)
    n = unit_director(rng.uniform(0, 2 * np.pi, mesh.n_nodes))
    phi = rng.uniform(-1, 1, mesh.n_nodes)
    gphi = element_gradients(mesh, phi)
    t = tangent_space(n)
    G = en.coupling_tensors(ops2, gphi, gphi)
    A, _ = en.residual_director(ops2, weights, tau, s, n, G, t)
    free = mesh.pattern.interior[0]
    Ad = A[free][:, free].toarray()
    assert np.abs(Ad - Ad.T).max() <= 1e-13
    eigs = np.linalg.eigvalsh(Ad)
    M_ff = ops2.mass[free][:, free].toarray()
    lam_mass = np.linalg.eigvalsh(M_ff).min()
    assert eigs.min() >= weights.rho * lam_mass - 1e-14


def test_orientation_system_spd(ops2, rng):
    mesh = ops2.mesh
    weights = ModelWeights(w_dw=100.0, w_wan=20.0, w_was=20.0)
    s = rng.uniform(0.1, 0.9, mesh.n_nodes)
    n = unit_director(rng.uniform(0, 2 * np.pi, mesh.n_nodes))
    phi = rng.uniform(-1, 1, mesh.n_nodes)
    gphi = element_gradients(mesh, phi)
    A, b = en.residual_s(ops2, weights, 0.002, s, n, gphi, en.coupling_tensors(ops2, gphi, gphi),
                         en.eform_scalar_diag(ops2, n), en.explicit_dw_load(ops2, s))
    Ad = A.toarray()
    assert np.abs(Ad - Ad.T).max() <= 1e-11 * np.abs(Ad).max()
    assert np.linalg.eigvalsh(Ad).min() > 0


def test_ch_jacobian_phi_block_symmetric(ops2, rng):
    mesh = ops2.mesh
    weights = ModelWeights(w_wan=3.0, w_was=5.0)
    s = rng.uniform(0.1, 0.9, mesh.n_nodes)
    n = unit_director(rng.uniform(0, 2 * np.pi, mesh.n_nodes))
    phi = rng.uniform(-1, 1, mesh.n_nodes)
    A0 = en.ch_step_matrix(ops2, weights, s, n, en.was_weights(ops2, s, weights.s_star))
    B = en.jacobian_ch(ops2, weights, phi, A0).toarray()
    assert np.abs(B - B.T).max() <= 1e-12 * np.abs(B).max()


# ---------------------------------------------------------------------------
# structure lemmas (randomized, small trial counts; the acceptance suite
# runs the full 1000-trial versions)
# ---------------------------------------------------------------------------

def test_projection_monotonicity(ops4, rng):
    from lcdroplet.verify import projection_monotonicity_check

    outcome = projection_monotonicity_check(ops4, rng, trials=200)
    assert outcome.passed


def test_lumped_mass_monotonicity(ops4, rng):
    from lcdroplet.verify import lumped_monotonicity_check

    outcome = lumped_monotonicity_check(ops4, rng, trials=200)
    assert outcome.passed


def test_convex_split_inequality(ops4, rng):
    from lcdroplet.verify import convex_split_check

    outcome = convex_split_check(ops4, rng, trials=200)
    assert outcome.passed


def test_anisotropic_tension_identity(monkeypatch):
    """The identity holds for the interface stage's stiffness and fails
    when its anchoring coefficient is off by 1 %."""
    from dataclasses import replace

    from lcdroplet.verify import anisotropic_identity_check

    ops8 = build_operators(build_structured_mesh(8, 8))
    collide = ModelWeights(w_chgd=21.0, w_wan=10.0, w_was=10.0, eps=3.0 / 64.0)
    for weights in (ModelWeights(), collide):
        assert anisotropic_identity_check(ops8, weights).passed
    ch_step_matrix = en.ch_step_matrix
    monkeypatch.setattr(en, "ch_step_matrix", lambda ops, weights, *args: ch_step_matrix(
        ops, replace(weights, w_wan=1.01 * weights.w_wan), *args))
    for weights in (ModelWeights(), collide):
        outcome = anisotropic_identity_check(ops8, weights)
        assert not outcome.passed and outcome.measured > 1e-4


# ---------------------------------------------------------------------------
# per-step systems on the fixed pattern against a naive COO assembly
# ---------------------------------------------------------------------------

@pytest.fixture(params=["structured", "shuffled"])
def step_case(request):
    m = build_structured_mesh(5, 4, ((0.0, 0.0), (1.0, 0.8)))
    m = m if request.param == "structured" else naive.shuffled(m)
    rng = np.random.default_rng(11)
    fields = dict(
        s=rng.uniform(0.1, 0.9, m.n_nodes),
        n=unit_director(rng.uniform(0, 2 * np.pi, m.n_nodes)),
        phi=rng.uniform(-1, 1, m.n_nodes),
    )
    weights = ModelWeights(w_chdw=3.0, w_wan=2.0, w_was=5.0, rho=1.3, eps=0.07)
    return build_operators(m), weights, fields


def test_ch_step_matrix_adds_vertex_terms_as_np_sum(step_case):
    """The tensor weight's sums over each element's vertices are those of
    np.sum(axis=1), bit for bit."""
    ops, weights, f = step_case
    m, s, n = ops.mesh, f["s"], f["n"]
    a = en.was_weights(ops, s, weights.s_star)
    s2E = (s * s)[m.elements]
    nx, ny = np.take(n, m.elements, axis=0).transpose(2, 0, 1)
    xx, xy, yy = (np.sum(s2E * u * v, axis=1) for u, v in ((nx, nx), (nx, ny), (ny, ny)))
    iso = weights.eps * (weights.w_chgd + weights.w_was * a)
    c = weights.w_wan * weights.eps / 3.0
    ref = tensor_stiffness(m, iso + c * yy, -c * xy, iso + c * xx)
    assert np.array_equal(en.ch_step_matrix(ops, weights, s, n, a).data, ref.data)


def test_ch_matrices_match_coo_assembly(step_case):
    ops, weights, f = step_case
    A0 = en.ch_step_matrix(ops, weights, f["s"], f["n"],
                            en.was_weights(ops, f["s"], weights.s_star))
    A0_ref = naive.ch_step_matrix(ops.mesh, weights, f["s"], f["n"])
    assert naive.relative_error(A0, A0_ref) <= 1e-13
    B = en.jacobian_ch(ops, weights, f["phi"], A0)
    J_ref = naive.jacobian_ch(ops.mesh, weights, 0.002, f["phi"], A0_ref)
    n = ops.mesh.n_nodes
    B_ref = J_ref[n:, :n]
    assert naive.relative_error(B, B_ref) <= 1e-13
    assert np.array_equal(B.indptr, B_ref.indptr) and np.array_equal(B.indices, B_ref.indices)
    # the solver's blockwise product with J = [[M/tau, eps K], [B, -M]]
    J = InterfaceJacobian(ops.mass, ops.stiffness, B, ops.mass_rows, weights.eps, 0.002)
    z = np.random.default_rng(2).standard_normal(2 * n)
    assert np.linalg.norm(J @ z - J_ref @ z) <= 1e-13 * np.linalg.norm(J_ref @ z)


def test_director_system_matches_coo_assembly(step_case):
    from lcdroplet.solver import tangent_space

    ops, weights, f = step_case
    mesh = ops.mesh
    t = tangent_space(f["n"])
    gphi = element_gradients(mesh, f["phi"])
    G = en.coupling_tensors(ops, gphi, gphi)
    A, b = en.residual_director(ops, weights, 0.01, f["s"], f["n"], G, t)
    A_ref, b_ref = naive.director_system(mesh, weights, 0.01, f["s"], f["n"], f["phi"], t)
    assert A.shape == A_ref.shape
    assert naive.relative_error(A, A_ref) <= 1e-13
    free = mesh.pattern.interior[0]
    assert naive.relative_error(A[free][:, free], A_ref[free][:, free]) <= 1e-13
    assert np.abs(b[free] - b_ref[free]).max() <= 1e-13 * np.abs(b_ref[free]).max()


def test_orientation_system_matches_coo_assembly(step_case):
    ops, weights, f = step_case
    mesh = ops.mesh
    gphi = element_gradients(mesh, f["phi"])
    A, _ = en.residual_s(ops, weights, 0.002, f["s"], f["n"], gphi,
                         en.coupling_tensors(ops, gphi, gphi), en.eform_scalar_diag(ops, f["n"]),
                         en.explicit_dw_load(ops, f["s"]))
    A_ref = naive.s_matrix(mesh, weights, 0.002, f["n"], f["phi"])
    assert naive.relative_error(A, A_ref) <= 1e-13
    free = mesh.pattern.interior[0]
    assert naive.relative_error(A[free][:, free], A_ref[free][:, free]) <= 1e-13
