"""Scenario configuration: presets, config files, and overrides.

A scenario is described by a nested document with six sections (mesh,
weights, scheme, initial, bc, output).  The four droplet experiments are
available as presets; a YAML config file and ``--set key=value`` strings
override preset values with precedence flag > file > preset.  A key or
section that the scenario does not know is an error, not ignored.

The interfacial parameter ``eps`` may be the literal string ``"auto"``,
meaning 3 h / sqrt(2) for the mesh actually used (three cell sides of a
structured mesh, whose h is the cell diagonal); overriding the mesh then
rescales it, while an explicit number pins it.  ``eps`` is the interface
width only for equal Cahn-Hilliard weights: the equilibrium profile of
``w_chdw (phi^2-1)^2/(4 eps) + w_chgd eps/2 |grad phi|^2`` is
``tanh(d / (sqrt(2) l))`` with ``l = eps sqrt(w_chgd / w_chdw)``.
"""
from __future__ import annotations

import copy
import math
from dataclasses import asdict, dataclass, field, fields

import numpy as np
import yaml

from . import solver as sv
from .assembly import Operators, build_operators
from .energy import S_RANGE, ModelWeights
from .expressions import ExpressionError, compile_expression
from .mesh import TriMesh, build_structured_mesh, count_components, mesh_size

PRESET_NAMES = ("droplet_move", "droplet_corner", "droplet_collide", "droplet_split")


@dataclass
class ScenarioConfig:
    """Self-describing scenario document (plain nested data)."""

    mesh: dict = field(default_factory=dict)
    weights: dict = field(default_factory=dict)
    scheme: dict = field(default_factory=dict)
    initial: dict = field(default_factory=dict)
    bc: dict = field(default_factory=dict)
    output: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return copy.deepcopy(asdict(self))

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioConfig":
        known = {"mesh", "weights", "scheme", "initial", "bc", "output"}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config sections: {sorted(unknown)}")
        return cls(**{k: copy.deepcopy(data.get(k, {})) for k in known})


def _base_config(name: str, t_final: float, w_chgd: float, w_wan: float,
                 w_was: float) -> ScenarioConfig:
    return ScenarioConfig(
        mesh={"nx": 64, "ny": 64, "rect": [[0.0, 0.0], [1.0, 1.0]]},
        weights={
            "w_erk": 1.0,
            "w_dw": 100.0,
            "w_chdw": 1.0,
            "w_chgd": w_chgd,
            "w_wan": w_wan,
            "w_was": w_was,
            "kappa": 1.0,
            "rho": 1.0,
            # 3h/sqrt(2) at the experiment's h = sqrt(2)/64, stored literally
            # so mesh overrides do not alter the physics; the equilibrium
            # interface length is eps*sqrt(w_chgd/w_chdw) (0.16-0.30 here)
            "eps": 3.0 / 64.0,
            "s_star": 0.750025,
        },
        scheme={
            "tau": 0.002,
            "t_final": t_final,
            "newton_res_tol": 1e-7,
            "newton_max_iter": 50,
        },
        initial={"s": "s_star"},
        bc={"s": "s_star"},
        output={"dir": f"out/{name}", "snapshot_every": "auto"},
    )


def _tanh_droplet(cx: float, cy: float, r2: float) -> str:
    return (
        f"-tanh(((x - {cx})**2/{r2} + (y - {cy})**2/{r2} - 1)/(2*eps))"
    )


def preset(name: str) -> ScenarioConfig:
    """Exact parameter sets of the four droplet experiments."""
    if name == "droplet_move":
        cfg = _base_config(name, t_final=20.0, w_chgd=41.0, w_wan=20.0, w_was=20.0)
        cfg.initial["n"] = ["x - 0.26", "y - 0.25"]
        cfg.initial["phi"] = _tanh_droplet(0.25, 0.25, 0.02)
        cfg.bc["n"] = ["x - 0.85", "y - 0.85"]
        return cfg
    if name == "droplet_corner":
        cfg = _base_config(name, t_final=2.0, w_chgd=41.0, w_wan=20.0, w_was=20.0)
        cfg.initial["n"] = ["1", "0"]
        cfg.initial["phi"] = _tanh_droplet(0.5, 0.5, 0.02)
        cfg.bc["n"] = ["1", "0"]
        return cfg
    if name == "droplet_collide":
        cfg = _base_config(name, t_final=2.0, w_chgd=21.0, w_wan=10.0, w_was=10.0)
        cfg.initial["n"] = [
            "where(x <= 0.5, x - 0.3, -(x - 0.7))",
            "where(x <= 0.5, y - 0.5, -(y - 0.5))",
        ]
        cfg.initial["phi"] = (
            f"where(x <= 0.5, {_tanh_droplet(0.3, 0.5, 0.02)}, "
            f"{_tanh_droplet(0.7, 0.5, 0.02)})"
        )
        cfg.bc["n"] = ["1", "0"]
        return cfg
    if name == "droplet_split":
        cfg = _base_config(name, t_final=2.0, w_chgd=11.0, w_wan=20.0, w_was=20.0)
        cfg.initial["n"] = [
            "where(x <= 0.5, x - 0.35, -(x - 0.65))",
            "where(x <= 0.5, y - 0.5, -(y - 0.5))",
        ]
        cfg.initial["phi"] = _tanh_droplet(0.5, 0.5, 0.03)
        cfg.bc["n"] = [
            "where(x <= 0.5, x - 0.3, -(x - 0.7))",
            "where(x <= 0.5, y - 0.5, -(y - 0.5))",
        ]
        return cfg
    raise ValueError(
        f"unknown preset {name!r}; available presets: {', '.join(PRESET_NAMES)}"
    )


def _yaml_problem(exc: yaml.YAMLError) -> str:
    """A YAML error on one line: what is wrong, and where."""
    problem = getattr(exc, "problem", None) or str(exc).splitlines()[0]
    mark = getattr(exc, "problem_mark", None)
    return problem if mark is None else f"{problem} (line {mark.line + 1}, column {mark.column + 1})"


def load_config_file(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = yaml.safe_load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read config file {path}: "
                         f"{getattr(exc, 'strerror', None) or exc}") from exc
    except yaml.YAMLError as exc:
        raise ValueError(f"config file {path} is not valid YAML: {_yaml_problem(exc)}") from exc
    if not isinstance(data, dict):
        raise ValueError(f"config file {path} must contain a mapping")
    return data


def _deep_merge(base: dict, override: dict) -> dict:
    out = copy.deepcopy(base)
    for key, val in override.items():
        if isinstance(val, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], val)
        else:
            out[key] = copy.deepcopy(val)
    return out


def apply_overrides(cfg: ScenarioConfig, assignments) -> ScenarioConfig:
    """Apply ``section.key[.subkey]=value`` strings (highest precedence)."""
    data = cfg.to_dict()
    for item in assignments:
        if "=" not in item:
            raise ValueError(f"override {item!r} is not of the form key=value")
        key, raw = item.split("=", 1)
        try:
            value = yaml.safe_load(raw)
        except yaml.YAMLError as exc:
            raise ValueError(f"override {key.strip()}: {raw!r} is not valid YAML: "
                             f"{_yaml_problem(exc)}") from exc
        parts = key.strip().split(".")
        node = data
        for p in parts[:-1]:
            node = node.setdefault(p, {})
            if not isinstance(node, dict):
                raise ValueError(f"cannot descend into {key!r}")
        node[parts[-1]] = value
    return ScenarioConfig.from_dict(data)


def merge_config(preset_cfg: ScenarioConfig | None, file_data: dict | None,
                 assignments=()) -> ScenarioConfig:
    base = preset_cfg.to_dict() if preset_cfg else ScenarioConfig().to_dict()
    if file_data:
        base = _deep_merge(base, file_data)
    return apply_overrides(ScenarioConfig.from_dict(base), assignments)


# ---------------------------------------------------------------------------
# problem construction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Problem:
    """A fully resolved scenario, ready to run.  ``bc`` is the pair (s, n)
    of the boundary data at ``mesh.boundary_nodes``, which ``initial``
    takes there."""

    config: ScenarioConfig
    mesh: TriMesh
    ops: Operators
    weights: ModelWeights
    scheme: sv.SchemeConfig
    bc: tuple[np.ndarray, np.ndarray]
    initial: sv.PhaseState
    snapshot_every: int


def dissolution_ratio(problem: Problem) -> float:
    """Interfacial energy of the initial droplets (the components of
    phi > 0, taken as equal disks holding the positive-phase area the mass
    of phi implies, with the tension (2 sqrt(2)/3) sqrt(w_chgd w_chdw) of
    the 1D tanh profile) over that of the dissolved uniform state of equal
    mass; 0 if either is absent.  From 1 on, dissolving the droplets
    lowers the energy."""
    ops, weights, phi = problem.ops, problem.weights, problem.initial.phi.values
    area = float(ops.mass_rows.sum())
    phi_bar = float(ops.mass_rows @ phi) / area
    droplets = count_components(ops.mesh, phi > 0.0)
    dissolved = area * weights.w_chdw * (phi_bar**2 - 1.0) ** 2 / (4.0 * weights.eps)
    if droplets == 0 or dissolved == 0.0:
        return 0.0
    perimeter = 2.0 * math.sqrt(math.pi * droplets * max(0.5 * (phi_bar + 1.0) * area, 0.0))
    sigma = (2.0 * math.sqrt(2.0) / 3.0) * math.sqrt(weights.w_chgd * weights.w_chdw)
    return perimeter * sigma / dissolved


def _evaluate(key: str, src, x, y, constants) -> np.ndarray:
    """Values of the expression ``src`` (a string or a number) of config
    entry ``key`` at the points (x, y); an expression that does not
    compile or a value that is not finite is an error naming ``key``."""
    if isinstance(src, bool) or not isinstance(src, (str, int, float)):
        raise ValueError(f"{key} must be an expression or a number, got {src!r}")
    try:
        fn = compile_expression(str(src), constants)
        with np.errstate(all="ignore"):  # reported below, naming the key
            vals = np.broadcast_to(np.asarray(fn(x, y), dtype=float), x.shape).copy()
    except ExpressionError as exc:
        raise ValueError(f"{key}: {exc}") from None
    bad = np.flatnonzero(~np.isfinite(vals))
    if bad.size:
        raise ValueError(f"{key} is not finite at {bad.size} of {vals.size} nodes, "
                         f"first at ({x[bad[0]]:g}, {y[bad[0]]:g})")
    return vals


def _eval_director(key: str, exprs, nodes, x, y, constants) -> np.ndarray:
    """Unit vectors along the values of the two expressions of config
    entry ``key`` at the mesh nodes ``nodes``, whose coordinates are
    (x, y); a zero vector is an error naming ``key``, the node and its
    coordinates."""
    if not (isinstance(exprs, (list, tuple)) and len(exprs) == 2):
        raise ValueError(f"{key} must be a list of two expressions, got {exprs!r}")
    vectors = np.column_stack([_evaluate(f"{key}[{k}]", src, x, y, constants)
                               for k, src in enumerate(exprs)])
    norms = np.linalg.norm(vectors, axis=1)
    k = int(np.argmin(norms))
    if norms[k] < sv.ZERO_NORM:  # as in ``solver.normalized``, whose quotient follows
        raise ValueError(f"{key} is not a director field: cannot normalize zero vector "
                         f"at node {nodes[k]} at ({x[k]:g}, {y[k]:g})")
    return vectors / norms[:, None]


# keys of each section; those of weights and scheme are the fields of
# ModelWeights and SchemeConfig (see ``_dataclass_kwargs``)
_KNOWN_KEYS = {
    "mesh": {"nx", "ny", "rect"},
    "weights": {f.name for f in fields(ModelWeights)},
    "scheme": {f.name for f in fields(sv.SchemeConfig)},
    "initial": {"s", "n", "phi"},
    "bc": {"s", "n"},
    "output": {"dir", "snapshot_every"},
}


def _typed(key: str, value, kind: type):
    """``value`` as a field of type ``kind`` (float, int, str or bool).
    Booleans are only YAML booleans and ints only ints; a float also
    takes an int or a numeric string, as PyYAML reads ``1e-3`` as one."""
    if kind is float and isinstance(value, (int, float, str)) and not isinstance(value, bool):
        try:
            return float(value)
        except ValueError:
            pass
    elif isinstance(value, kind) and (kind is bool) == isinstance(value, bool):
        return value
    raise ValueError(f"{key} must be of type {kind.__name__}, got {value!r}")


def _rectangle(key: str, value) -> tuple:
    """``value`` as two corner points ((x0, y0), (x1, y1)) of finite numbers."""
    message = f"{key} must be two points [[x0, y0], [x1, y1]] of finite numbers, got {value!r}"
    if not (isinstance(value, (list, tuple)) and len(value) == 2
            and all(isinstance(p, (list, tuple)) and len(p) == 2 for p in value)):
        raise ValueError(message)
    try:
        rect = tuple(tuple(_typed(key, c, float) for c in p) for p in value)
    except ValueError:
        raise ValueError(message) from None
    if not all(math.isfinite(c) for p in rect for c in p):
        raise ValueError(message)
    return rect


def _dataclass_kwargs(cls, name: str, section: dict) -> dict:
    """The fields of dataclass ``cls``, each with a plain default (float,
    int, str or bool), that config section ``name`` sets, checked against
    the default's type; the others keep the dataclass defaults."""
    return {f.name: _typed(f"{name}.{f.name}", section[f.name], type(f.default))
            for f in fields(cls) if f.name in section}


def build_problem(cfg: ScenarioConfig) -> Problem:
    sections = cfg.to_dict()
    for name, known in _KNOWN_KEYS.items():
        if not isinstance(sections[name], dict):
            raise ValueError(f"{name} must be a mapping with keys {sorted(known)}")
    unknown = sorted(f"{name}.{key}" for name, known in _KNOWN_KEYS.items()
                     for key in sections[name] if key not in known)
    if unknown:
        raise ValueError(f"unknown config keys: {unknown}")

    mesh_cfg = cfg.mesh
    mesh = build_structured_mesh(
        _typed("mesh.nx", mesh_cfg.get("nx", 64), int),
        _typed("mesh.ny", mesh_cfg.get("ny", 64), int),
        _rectangle("mesh.rect", mesh_cfg.get("rect", [[0.0, 0.0], [1.0, 1.0]])),
    )
    ops = build_operators(mesh)

    wcfg = dict(cfg.weights)
    if wcfg.get("eps", "auto") == "auto":
        wcfg["eps"] = 3.0 * mesh_size(mesh) / math.sqrt(2.0)
    weights = ModelWeights(**_dataclass_kwargs(ModelWeights, "weights", wcfg))
    scheme = sv.SchemeConfig(**_dataclass_kwargs(sv.SchemeConfig, "scheme", cfg.scheme))

    consts = {"eps": weights.eps, "s_star": weights.s_star}
    x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]

    icfg, bcfg = cfg.initial, cfg.bc
    for name, section, keys in (("initial", icfg, ("s", "n", "phi")),
                                ("bc", bcfg, ("s", "n"))):
        for key in keys:
            if key not in section:
                raise ValueError(f"{name}.{key} missing from configuration")
    s0 = _evaluate("initial.s", icfg["s"], x, y, consts)
    phi0 = _evaluate("initial.phi", icfg["phi"], x, y, consts)
    n0 = _eval_director("initial.n", icfg["n"], np.arange(mesh.n_nodes), x, y, consts)

    bnodes = mesh.boundary_nodes
    xb, yb = mesh.nodes[bnodes, 0], mesh.nodes[bnodes, 1]
    s_bc = _evaluate("bc.s", bcfg["s"], xb, yb, consts)
    n_bc = _eval_director("bc.n", bcfg["n"], bnodes, xb, yb, consts)
    for key, s in (("initial.s", s0), ("bc.s", s_bc)):
        if not (s.min() > S_RANGE[0] and s.max() < S_RANGE[1]):
            raise ValueError(f"{key} must lie in {S_RANGE}, "
                             f"got range [{s.min():.6g}, {s.max():.6g}]")

    # the discrete flow lives in the boundary-constrained spaces, so the
    # initial fields take the prescribed values on the boundary
    s0[bnodes] = s_bc
    n0[bnodes] = n_bc

    initial = sv.make_state(mesh, s0, n0, phi0)

    snap = cfg.output.get("snapshot_every", "auto")
    if snap == "auto":
        snap = max(1, round(scheme.t_final / scheme.tau) // 12)
    snap = _typed("output.snapshot_every", snap, int)
    if snap < 1:
        raise ValueError(f"output.snapshot_every must be at least 1, got {snap}")
    return Problem(cfg, mesh, ops, weights, scheme, (s_bc, n_bc), initial, snap)
