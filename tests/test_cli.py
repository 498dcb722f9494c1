import csv
import json
import math
import os

import numpy as np
import pytest
import yaml

from lcdroplet import cli, config as cfg
from lcdroplet.expressions import ExpressionError, compile_expression
from vtk_reader import float_bits, read_vtk


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------

def test_preset_parameters_shared():
    for name in cfg.PRESET_NAMES:
        c = cfg.preset(name)
        w = c.weights
        assert w["kappa"] == 1.0 and w["rho"] == 1.0
        assert w["w_erk"] == 1.0 and w["w_dw"] == 100.0 and w["w_chdw"] == 1.0
        assert w["eps"] == pytest.approx(3.0 / 64.0)
        assert w["s_star"] == 0.750025
        assert c.mesh["nx"] == 64 and c.mesh["ny"] == 64
        assert c.scheme["tau"] == 0.002
        assert "newton_abs_tol" not in c.scheme
        assert c.scheme["newton_res_tol"] == 1e-7


@pytest.mark.parametrize(
    "name,w_chgd,w_wan,w_was,t_final",
    [
        ("droplet_move", 41.0, 20.0, 20.0, 20.0),
        ("droplet_corner", 41.0, 20.0, 20.0, 2.0),
        ("droplet_collide", 21.0, 10.0, 10.0, 2.0),
        ("droplet_split", 11.0, 20.0, 20.0, 2.0),
    ],
)
def test_preset_specific_values(name, w_chgd, w_wan, w_was, t_final):
    c = cfg.preset(name)
    assert c.weights["w_chgd"] == w_chgd
    assert c.weights["w_wan"] == w_wan
    assert c.weights["w_was"] == w_was
    assert c.scheme["t_final"] == t_final


def test_split_preset_radius():
    c = cfg.preset("droplet_split")
    consts = {"eps": 3.0 / 64.0, "s_star": 0.750025}
    phi0 = compile_expression(c.initial["phi"], consts)
    r = math.sqrt(0.03)
    # on the circle of squared radius 0.03 the profile crosses zero
    assert float(phi0(0.5 + r, 0.5)) == pytest.approx(0.0, abs=1e-12)
    assert float(phi0(0.5, 0.5)) > 0.99


def test_unknown_preset_lists_names():
    with pytest.raises(ValueError) as err:
        cfg.preset("droplet_bounce")
    for name in cfg.PRESET_NAMES:
        assert name in str(err.value)


def test_preset_boundary_and_initial_director_differ_move():
    prob = cfg.build_problem(cfg.preset("droplet_move"))
    mesh = prob.mesh
    corner = int(np.argmin(np.linalg.norm(mesh.nodes - [0.0, 0.0], axis=1)))
    # boundary value is radial about (0.85, 0.85), not about (0.26, 0.25)
    expected = np.array([0.0 - 0.85, 0.0 - 0.85])
    expected /= np.linalg.norm(expected)
    assert np.allclose(prob.initial.n.values[corner], expected, atol=1e-12)


def test_director_singular_at_node_rejected():
    c = cfg.preset("droplet_collide")
    c.mesh["nx"] = c.mesh["ny"] = 10  # (0.3, 0.5) is a node of this mesh
    with pytest.raises(ValueError, match="director"):
        cfg.build_problem(c)


# ---------------------------------------------------------------------------
# config merging and overrides
# ---------------------------------------------------------------------------

def test_override_changes_single_key():
    base = cfg.preset("droplet_split")
    merged = cfg.merge_config(base, None, ["weights.w_chgd=21"])
    assert merged.weights["w_chgd"] == 21
    ref = base.to_dict()
    got = merged.to_dict()
    got["weights"].pop("w_chgd")
    ref["weights"].pop("w_chgd")
    assert got == ref


def test_precedence_flag_over_file_over_preset(tmp_path):
    file_cfg = {"mesh": {"nx": 16, "ny": 16}, "scheme": {"t_final": 0.5}}
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(file_cfg))
    merged = cfg.merge_config(
        cfg.preset("droplet_corner"), cfg.load_config_file(path),
        ["mesh.nx=8"],
    )
    assert merged.mesh["nx"] == 8  # flag wins
    assert merged.mesh["ny"] == 16  # file wins over preset
    assert merged.scheme["t_final"] == 0.5
    assert merged.weights["w_chgd"] == 41.0  # preset survives


def test_unknown_section_rejected():
    with pytest.raises(ValueError, match="unknown config sections"):
        cfg.ScenarioConfig.from_dict({"mesh": {}, "solver": {}})


def test_bad_override_rejected():
    with pytest.raises(ValueError, match="key=value"):
        cfg.apply_overrides(cfg.preset("droplet_corner"), ["mesh.nx"])


@pytest.mark.parametrize(
    "key",
    ["mesh.nxx", "weights.w_chdww", "weights.dw", "scheme.tua",
     "initial.phii", "bc.nn", "output.snapshot_evry", "output.energy_log",
     "scheme.cg_maxiter", "scheme.cg_tol"],
)
def test_unknown_key_rejected(key):
    c = cfg.merge_config(cfg.preset("droplet_corner"), None, [f"{key}=1", "mesh.nx=4"])
    with pytest.raises(ValueError, match="unknown config keys") as err:
        cfg.build_problem(c)
    assert repr(key) in str(err.value)


def test_unknown_keys_all_named():
    c = cfg.merge_config(cfg.preset("droplet_corner"), None,
                         ["scheme.tua=0.5", "weights.w_chdww=100", "mesh.nxx=3"])
    with pytest.raises(ValueError) as err:
        cfg.build_problem(c)
    assert str(err.value) == (
        "unknown config keys: ['mesh.nxx', 'scheme.tua', 'weights.w_chdww']"
    )


def _build_corner(*sets):
    c = cfg.merge_config(cfg.preset("droplet_corner"), None,
                         ["mesh.nx=4", "mesh.ny=4", *sets])
    return cfg.build_problem(c)


RECT = "mesh.rect must be two points [[x0, y0], [x1, y1]] of finite numbers, got"


@pytest.mark.parametrize(
    "item,message",
    [
        ("scheme.newton_max_iter=2.7", "scheme.newton_max_iter must be of type int, got 2.7"),
        ("scheme.newton_max_iter=true",
         "scheme.newton_max_iter must be of type int, got True"),
        ("scheme.tau=fast", "scheme.tau must be of type float, got 'fast'"),
        ("scheme.tau=false", "scheme.tau must be of type float, got False"),
        ("weights.w_dw=[1]", "weights.w_dw must be of type float, got [1]"),
        ("scheme.linear_solver=3", "scheme.linear_solver must be of type str, got 3"),
        ("scheme.tau=nan", "tau must be finite and positive, got nan"),
        ("scheme.tau=inf", "tau must be finite and positive, got inf"),
        ("scheme.t_final=nan", "t_final must be finite and nonnegative, got nan"),
        ("scheme.t_final=inf", "t_final must be finite and nonnegative, got inf"),
        ("scheme.t_final=0.005",
         "t_final = 0.005 is not a whole number of steps of tau = 0.002 (2.5 steps)"),
        ("scheme.t_final=0.007",
         "t_final = 0.007 is not a whole number of steps of tau = 0.002 (3.5 steps)"),
        ("scheme.newton_max_iter=-1", "newton_max_iter must be nonnegative, got -1"),
        ("scheme.newton_res_tol=0", "newton_res_tol must be positive, got 0.0"),
        ("scheme.newton_res_tol=-1e-7", "newton_res_tol must be positive, got -1e-07"),
        ("mesh.nx.cells=4", "cannot descend into 'mesh.nx.cells'"),
        ("scheme=0.002", "scheme must be a mapping with keys ['linear_solver', "
         "'newton_max_iter', 'newton_res_tol', 't_final', 'tau']"),
        ("mesh.nx=2.7", "mesh.nx must be of type int, got 2.7"),
        ("mesh.nx=true", "mesh.nx must be of type int, got True"),
        ("mesh.ny='4'", "mesh.ny must be of type int, got '4'"),
        ("output.snapshot_every=2.5", "output.snapshot_every must be of type int, got 2.5"),
        ("output.snapshot_every=later",
         "output.snapshot_every must be of type int, got 'later'"),
        ("weights.eps=nan", "eps must be finite and positive, got nan"),
        ("weights.w_chdw=inf", "w_chdw must be finite and nonnegative, got inf"),
        ("weights.kappa=nan", "kappa must be finite and positive, got nan"),
        ("weights.rho=inf", "rho must be finite and positive, got inf"),
        ("output.snapshot_every=0", "output.snapshot_every must be at least 1, got 0"),
        ("output.snapshot_every=-2", "output.snapshot_every must be at least 1, got -2"),
        ("initial.phi=1/0", "initial.phi is not finite at 25 of 25 nodes, first at (0, 0)"),
        ("initial.phi=sqrt(-1)",
         "initial.phi is not finite at 25 of 25 nodes, first at (0, 0)"),
        ("initial.phi=sqrt(x - 0.5)",
         "initial.phi is not finite at 10 of 25 nodes, first at (0, 0)"),
        ("initial.n=[sqrt(-1), 1]",
         "initial.n[0] is not finite at 25 of 25 nodes, first at (0, 0)"),
        ("initial.s=2", "initial.s must lie in (-0.5, 1.0), got range [2, 2]"),
        ("bc.s=1.5", "bc.s must lie in (-0.5, 1.0), got range [1.5, 1.5]"),
        ("bc.n=[1, 1/0]", "bc.n[1] is not finite at 16 of 16 nodes, first at (0, 0)"),
        ("mesh.rect=3", f"{RECT} 3"),
        ("mesh.rect=[[0,0],[1,a]]", f"{RECT} [[0, 0], [1, 'a']]"),
        ("mesh.rect=[[0,0,0],[1,1,1]]", f"{RECT} [[0, 0, 0], [1, 1, 1]]"),
        ("mesh.rect=[[0,0],[1,.nan]]", f"{RECT} [[0, 0], [1, nan]]"),
        ("initial.n=1", "initial.n must be a list of two expressions, got 1"),
        ("initial.n=[1,0,0]", "initial.n must be a list of two expressions, got [1, 0, 0]"),
        ("bc.n=[1,0,0]", "bc.n must be a list of two expressions, got [1, 0, 0]"),
        ("bc.n=x", "bc.n must be a list of two expressions, got 'x'"),
        ("bc={}", "bc.s missing from configuration"),
        ("bc={s: s_star}", "bc.n missing from configuration"),
        ("initial.phi=foo(x)", "initial.phi: unknown function 'foo' in 'foo(x)'"),
        ("bc.s=null", "bc.s must be an expression or a number, got None"),
        ("initial.s=[1]", "initial.s must be an expression or a number, got [1]"),
        ("initial.s=true", "initial.s must be an expression or a number, got True"),
        ("bc.n=[1, null]", "bc.n[1] must be an expression or a number, got None"),
        ("initial.n=[0, 0]",
         "initial.n is not a director field: cannot normalize zero vector at node 0 at (0, 0)"),
        # the zero vector is named by mesh node, not by its place among the
        # boundary nodes (7)
        ("bc.n=[x-0.5, 0]",
         "bc.n is not a director field: cannot normalize zero vector at node 10 at (0.5, 0)"),
        ("initial.phi=x < 0.5", "initial.phi: a comparison is allowed only as the "
         "condition of where() in 'x < 0.5'"),
        pytest.param("initial.phi=" + "-" * 5000 + "x",
                     "initial.phi: expression nested too deeply (5001 characters)",
                     id="initial.phi=-...-x nested 5000 deep"),
        ("initial.phi=where(x, 1, 2)",
         "initial.phi: where() takes a comparison and two expressions in 'where(x, 1, 2)'"),
    ],
)
def test_config_value_of_wrong_type_rejected(item, message):
    with pytest.raises(ValueError) as err:
        _build_corner(item)
    assert str(err.value) == message


def test_config_file_not_a_mapping_rejected(tmp_path):
    path = tmp_path / "list.yaml"
    path.write_text("- mesh\n- scheme\n")
    with pytest.raises(ValueError) as err:
        cfg.load_config_file(path)
    assert str(err.value) == f"config file {path} must contain a mapping"


def test_dissolution_ratio_is_zero_without_a_droplet():
    """No node with phi > 0: no droplet, whose interfacial energy the
    ratio would need."""
    assert cfg.dissolution_ratio(_build_corner("initial.phi=-0.5")) == 0.0


def test_config_values_of_right_type_accepted():
    p = _build_corner("scheme.tau=1e-3", "scheme.t_final=1", "scheme.newton_max_iter=7",
                      "scheme.linear_solver=direct")
    assert p.scheme.tau == 0.001 and p.scheme.t_final == 1.0
    assert type(p.scheme.t_final) is float
    assert p.scheme.newton_max_iter == 7
    assert p.scheme.linear_solver == "direct"
    p = _build_corner("mesh.nx=3", "output.snapshot_every=5")
    assert p.mesh.n_nodes == 4 * 5 and p.snapshot_every == 5


@pytest.mark.parametrize(
    "name,w_chgd,w_wan,w_was,t_final",
    [
        ("droplet_move", 41.0, 20.0, 20.0, 20.0),
        ("droplet_corner", 41.0, 20.0, 20.0, 2.0),
        ("droplet_collide", 21.0, 10.0, 10.0, 2.0),
        ("droplet_split", 11.0, 20.0, 20.0, 2.0),
    ],
)
def test_presets_build_weights_and_scheme(name, w_chgd, w_wan, w_was, t_final):
    from lcdroplet.energy import ModelWeights
    from lcdroplet.solver import SchemeConfig

    c = cfg.merge_config(cfg.preset(name), None, ["mesh.nx=4", "mesh.ny=4"])
    prob = cfg.build_problem(c)
    assert prob.weights == ModelWeights(
        w_erk=1.0, w_dw=100.0, w_chdw=1.0, w_chgd=w_chgd, w_wan=w_wan,
        w_was=w_was, kappa=1.0, rho=1.0, eps=3.0 / 64.0, s_star=0.750025,
    )
    assert prob.scheme == SchemeConfig(
        tau=0.002, t_final=t_final, newton_res_tol=1e-7,
        newton_max_iter=50, linear_solver="cg",
    )
    assert type(prob.scheme.newton_max_iter) is int


# ---------------------------------------------------------------------------
# expression language
# ---------------------------------------------------------------------------

def test_expression_wheres_and_functions():
    f = compile_expression("where(x <= 0.5, x - 0.3, -(x - 0.7))")
    x = np.array([0.2, 0.5, 0.8])
    assert np.allclose(f(x, 0 * x), [-0.1, 0.2, -0.1])
    g = compile_expression("tanh(sqrt(x) * pi)")
    assert float(g(np.array([0.25]), np.array([0.0]))[0]) == pytest.approx(
        math.tanh(0.5 * math.pi)
    )


def test_expression_rejects_unsafe():
    for src in ("__import__('os')", "x.real", "lambda: 1", "foo(x)", "x @ y",
                "where(x, 1, 2)", "where(x < 1, 2)", "x < 0.5", "where(x < 1, x < 2, 1)",
                "1 + (y >= x)"):
        with pytest.raises(ExpressionError):
            compile_expression(src)(np.zeros(2), np.zeros(2))


@pytest.mark.parametrize("depth", [1200, 5000])
def test_expression_nested_too_deeply(depth):
    # deep enough to exhaust the recursion of the evaluator or the parser
    with pytest.raises(ExpressionError, match="nested too deeply"):
        compile_expression("-" * depth + "x")(np.zeros(2), np.zeros(2))


@pytest.mark.parametrize("src, message", [
    ("where(0 < x < 1, 1, 0)", "unsupported comparison in 'where(0 < x < 1, 1, 0)'"),
    ("where(x is y, 1, 0)", "unsupported comparison in 'where(x is y, 1, 0)'"),
    ("np.tanh(x)", "unsupported call in 'np.tanh(x)'"),
    ("tanh(x=1)", "unsupported call in 'tanh(x=1)'"),
])
def test_expression_rejects_with_its_message(src, message):
    with pytest.raises(ExpressionError) as err:
        compile_expression(src)(np.zeros(2), np.zeros(2))
    assert str(err.value) == message


def test_expression_parse_error_names_the_source():
    with pytest.raises(ExpressionError) as err:
        compile_expression("1 +")
    assert str(err.value).startswith("cannot parse expression '1 +': ")
    assert isinstance(err.value.__cause__, SyntaxError)


def test_expression_unknown_name():
    with pytest.raises(ExpressionError, match="unknown name"):
        compile_expression("x + q")(np.zeros(2), np.zeros(2))


# ---------------------------------------------------------------------------
# scenario runner artifacts
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def corner_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("corner_run")
    c = cfg.merge_config(
        cfg.preset("droplet_corner"), None,
        ["mesh.nx=8", "mesh.ny=8", "scheme.t_final=0.02",
         "output.snapshot_every=5"],
    )
    final, code = cli.run_scenario(cfg.build_problem(c), str(out))
    return out, final, code


def test_run_scenario_exit_and_artifacts(corner_run):
    out, final, code = corner_run
    assert code == 0
    assert final.step_index == 10
    names = sorted(os.listdir(out))
    assert "energy.csv" in names
    assert "config.yaml" in names
    assert "final_state.npz" in names
    assert "fields_0.vtk" in names and "fields_10.vtk" in names


def test_energy_csv_columns_and_monotonicity(corner_run):
    out, _, _ = corner_run
    lines = (out / "energy.csv").read_text().strip().split("\n")
    assert lines[0] == ",".join(cli.CSV_COLUMNS)
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 11  # initial row + 10 steps
    totals = [float(r[8]) for r in rows]
    assert all(b <= a + 1e-11 for a, b in zip(totals, totals[1:]))
    drifts = [abs(float(r[9])) for r in rows]
    assert max(drifts) <= 1e-9
    steps = [int(r[0]) for r in rows]
    assert steps == list(range(11))


def _frames(out):
    """The run's fields_<step>.vtk files, in step order."""
    steps = sorted(int(name[len("fields_"):-len(".vtk")])
                   for name in os.listdir(out) if name.startswith("fields_"))
    return [f"fields_{step}.vtk" for step in steps]


def test_vtk_frames_decode_to_the_state(corner_run):
    out, final, _ = corner_run
    assert _frames(out) == ["fields_0.vtk", "fields_5.vtk", "fields_10.vtk"]
    for name in _frames(out):
        frame = read_vtk(out / name)
        assert frame.counts == {"POINTS": 81, "CELLS": (128, 512), "CELL_TYPES": 128,
                                "POINT_DATA": 81}, name
        assert np.array_equal(frame.cells[:, 0], np.full(128, 3))
        assert np.array_equal(frame.cell_types, np.full(128, 5))
        assert list(frame.scalars) == ["orientation", "phase", "chemical_potential"]
        assert list(frame.vectors) == ["director"]
    last = read_vtk(out / "fields_10.vtk")
    assert float_bits(last.points[:, :2]) == float_bits(final.mesh.nodes)
    assert np.array_equal(last.cells[:, 1:], final.mesh.elements)
    with np.load(out / "final_state.npz") as saved:
        for key, name in (("s", "orientation"), ("phi", "phase"), ("mu", "chemical_potential")):
            assert float_bits(last.scalars[name]) == float_bits(saved[key]), name
        assert float_bits(last.vectors["director"][:, :2]) == float_bits(saved["n"])
    assert float_bits(last.vectors["director"][:, 2]) == float_bits(np.zeros(81))


def test_vtk_series_indexes_every_frame(corner_run):
    out, _, _ = corner_run
    index = json.loads((out / cli.SERIES_INDEX).read_text())
    assert index["file-series-version"] == "1.0"
    assert [entry["name"] for entry in index["files"]] == _frames(out)
    with open(out / "energy.csv", encoding="utf-8") as fh:
        times = {int(row["step"]): row["time"] for row in csv.DictReader(fh)}
    for entry in index["files"]:
        step = int(entry["name"][len("fields_"):-len(".vtk")])
        # the trace writes each state.time with repr, so text equality is
        # equality of the floats
        assert repr(entry["time"]) == times[step], entry


def test_final_state_restartable(corner_run):
    out, final, _ = corner_run
    resolved = yaml.safe_load((out / "config.yaml").read_text())
    c = cfg.ScenarioConfig.from_dict(resolved)
    prob = cfg.build_problem(c)
    loaded = cli.load_state(out / "final_state.npz", prob.mesh)
    assert loaded.step_index == final.step_index
    assert loaded.time == pytest.approx(final.time)
    assert np.array_equal(loaded.phi.values, final.phi.values)
    assert np.array_equal(loaded.n.values, final.n.values)


def test_runs_are_bit_identical(tmp_path):
    """Reruns give the same energy trace, at the default (conjugate
    gradient) SPD solves and with the direct reference."""
    overrides = ["mesh.nx=8", "mesh.ny=8", "scheme.t_final=0.01"]
    for solver in ("default", "direct"):
        extra = [] if solver == "default" else [f"scheme.linear_solver={solver}"]
        outs = []
        for sub in ("a", "b"):
            c = cfg.merge_config(cfg.preset("droplet_corner"), None, overrides + extra)
            out = tmp_path / solver / sub
            cli.run_scenario(cfg.build_problem(c), str(out))
            outs.append((out / "energy.csv").read_bytes())
        assert outs[0] == outs[1], solver


# ---------------------------------------------------------------------------
# command line entry points
# ---------------------------------------------------------------------------

def test_solver_failure_reported_as_step_error(tmp_path, capsys, monkeypatch):
    """A singular interface Jacobian ends the run with a message naming
    the stage, not with SuperLU's RuntimeError."""
    def singular(*args, **kwargs):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(cli.sv.spla, "splu", singular)
    c = cfg.merge_config(cfg.preset("droplet_corner"), None,
                         ["mesh.nx=4", "mesh.ny=4", "scheme.t_final=0.004"])
    final, code = cli.run_scenario(cfg.build_problem(c), str(tmp_path / "run"))
    assert final is None and code == 1
    # the scenario's dissolution-ratio warning comes before the run
    warning, aborted = capsys.readouterr().err.splitlines()
    assert warning.startswith("warning: dissolution ratio ")
    assert aborted.startswith("simulation aborted: interface solve: ")
    assert (tmp_path / "run" / "final_state.npz").exists()
    # the frame of the last good state is indexed all the same
    index = json.loads((tmp_path / "run" / cli.SERIES_INDEX).read_text())
    assert index["files"] == [{"name": "fields_0.vtk", "time": 0.0}]


def test_cli_simulate_and_mesh_audit(tmp_path, capsys):
    rc = cli.main([
        "simulate", "--preset", "droplet_corner",
        "--set", "mesh.nx=4", "--set", "mesh.ny=4",
        "--set", "scheme.t_final=0.004",
        "--out", str(tmp_path / "sim"),
    ])
    assert rc == 0
    assert (tmp_path / "sim" / "energy.csv").exists()

    rc = cli.main(["mesh-audit", "--nx", "3", "--ny", "5"])
    assert rc == 0
    outtext = capsys.readouterr().out
    assert "weakly acute: True" in outtext


def test_cli_simulate_config_error_is_one_line(tmp_path, capsys):
    out = tmp_path / "sim"
    for item, message in (("scheme.tua=1", "unknown config keys: ['scheme.tua']"),
                          ("scheme.newton_abs_tol=1e-15",
                           "unknown config keys: ['scheme.newton_abs_tol']"),
                          ("weights.w_chdw=nan", "w_chdw must be finite and nonnegative"),
                          ("initial.phi=q", "unknown name"),
                          ("initial.phi=[1", "override initial.phi: '[1' is not valid YAML"),
                          ("initial.phi=x < 0.5", "initial.phi: a comparison is allowed only"),
                          ("bc.n=[x-0.5, 0]", "zero vector at node 10 at (0.5, 0)"),
                          ("bc.s=2", "bc.s must lie in (-0.5, 1.0)")):
        rc = cli.main(["simulate", "--preset", "droplet_corner", "--set", "mesh.nx=4",
                       "--set", "mesh.ny=4", "--set", item, "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and message in err
        assert err.count("\n") == 1
    assert not out.exists()


def test_cli_simulate_unreadable_config_file_is_one_line(tmp_path, capsys):
    (tmp_path / "bad.yaml").write_text("mesh: [1\n")
    out = tmp_path / "sim"
    for path, message in ((tmp_path / "missing.yaml", "No such file or directory"),
                          (tmp_path, "Is a directory"),
                          (tmp_path / "bad.yaml", "is not valid YAML")):
        rc = cli.main(["simulate", "--config", str(path), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and str(path) in err and message in err
        assert err.count("\n") == 1
        with pytest.raises(ValueError, match=message):
            cfg.load_config_file(path)
    assert not out.exists()


def test_cli_mesh_audit_bad_cell_count_is_one_line(capsys):
    rc = cli.main(["mesh-audit", "--nx", "0", "--ny", "3"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.err == "mesh error: cell counts must be >= 1, got nx=0, ny=3\n"
    assert captured.out == ""


@pytest.mark.parametrize("seed", ["-1", "x"])
def test_cli_verify_rejects_bad_seed(seed, capsys, monkeypatch):
    monkeypatch.setattr(cli.vf, "run_suite", lambda **kw: pytest.fail("suite ran"))
    with pytest.raises(SystemExit) as err:
        cli.main(["verify", "--seed", seed])
    assert err.value.code == 2
    assert f"argument --seed: must be a nonnegative integer, got '{seed}'" in capsys.readouterr().err


def test_cli_verify_unwritable_report_fails_before_the_suite(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli.vf, "run_suite", lambda **kw: pytest.fail("suite ran"))
    report = tmp_path / "missing" / "checks.jsonl"
    assert cli.main(["verify", "--report", str(report)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"cannot write report {report}: No such file or directory\n"
    assert captured.out == ""


def test_cli_simulate_unusable_out_dir_fails_before_a_step(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli.sv, "run", lambda *args: pytest.fail("a step ran"))
    blocker = tmp_path / "file"
    blocker.write_text("kept")
    for out, reason in ((blocker, "File exists"), (blocker / "run", "Not a directory")):
        rc = cli.main(["simulate", "--preset", "droplet_corner", "--set", "mesh.nx=4",
                       "--set", "mesh.ny=4", "--out", str(out)])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines()[-1] == f"cannot write output directory {out}: {reason}"
        assert captured.out == ""
    assert blocker.read_text() == "kept"


def test_cli_simulate_requires_source(capsys):
    rc = cli.main(["simulate"])
    assert rc == 2


def test_cli_unknown_preset_is_usage_error():
    with pytest.raises(SystemExit) as err:
        cli.main(["simulate", "--preset", "nope"])
    assert err.value.code == 2


def test_cli_verify_reports_and_exit_codes(tmp_path, monkeypatch, capsys):
    from lcdroplet.verify import CheckOutcome

    calls = {}

    def fake_suite(seed=0, mutate=None):
        calls["seed"] = seed
        calls["mutate"] = mutate
        return [CheckOutcome("demo", mutate is None, 0.0, 1.0, seed=seed)]

    monkeypatch.setattr(cli.vf, "run_suite", fake_suite)
    report = tmp_path / "checks.jsonl"
    rc = cli.main(["verify", "--seed", "9", "--report", str(report)])
    assert rc == 0
    assert calls == {"seed": 9, "mutate": None}
    row = json.loads(report.read_text().strip())
    assert row["name"] == "demo" and row["seed"] == 9

    rc = cli.main(["verify", "--mutate", "convex-split-sign"])
    assert rc == 1


def test_cli_verify_rejects_unknown_mutation(capsys, monkeypatch):
    monkeypatch.setattr(cli.vf, "run_suite", lambda **kw: pytest.fail("suite ran"))
    with pytest.raises(SystemExit) as err:
        cli.main(["verify", "--mutate", "typo"])
    assert err.value.code == 2
    err = capsys.readouterr().err
    assert "argument --mutate: invalid choice: 'typo'" in err and "convex-split-sign" in err


def test_cli_verify_mutated_run_fails_for_real():
    # end-to-end: the real suite with the mutation enabled must exit nonzero
    from lcdroplet import verify as vf

    outcomes = vf.run_suite(seed=0, mutate="convex-split-sign", acuteness_max=2)
    assert any(not oc.passed for oc in outcomes)


def test_config_yaml_echo_resolves_auto(tmp_path):
    c = cfg.merge_config(
        cfg.preset("droplet_corner"), None,
        ["mesh.nx=4", "mesh.ny=4", "scheme.t_final=0.002", "weights.eps=auto"],
    )
    cli.run_scenario(cfg.build_problem(c), str(tmp_path / "run"))
    resolved = yaml.safe_load((tmp_path / "run" / "config.yaml").read_text())
    assert resolved["weights"]["eps"] == pytest.approx(3.0 / 4.0)
    assert isinstance(resolved["output"]["snapshot_every"], int)
    assert resolved["scheme"]["linear_solver"] == "cg"
    assert "cg_tol" not in resolved["scheme"] and "dw" not in resolved["weights"]
