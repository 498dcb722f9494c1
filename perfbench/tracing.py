"""Spans around calls into lcdroplet, recorded from outside the program.

``Tracer.install`` replaces functions of the package (and the scipy
solvers its solver module calls) by wrappers that record a span -- name,
start, end, parent span and round -- around every call.  The program's
own code is unchanged.  Spans stay in memory until ``write`` saves them
when the run ends; ``layer_metrics`` turns them into the per-layer
figures, and ``self_times`` into each span name's time net of its
children.

An untraced run installs only the clock targets: the flow's step and
stepping loop, which the end-to-end metrics time, and the step's three
stages; the acuteness sweep and its mesh builds.  After each call of a
clock target the tracer lets its ``Gauge`` sample the machine's speed,
so that a 128^2 step of about a second is sampled within, and every time
it reports is the span's time at the reference speed (``gauge.py``).
"""
from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
import weakref
from collections import Counter, defaultdict
from dataclasses import dataclass

# (span name, "module" or "module:Class", attribute, clock): clock targets
# are installed in every run, the others only in a traced one
TARGETS = (
    ("solver.run", "lcdroplet.solver", "run", True),
    ("solver.step", "lcdroplet.solver", "gradient_flow_step", True),
    ("verify.acuteness_sweep", "lcdroplet.verify", "acuteness_sweep_check", True),
    ("mesh.build", "lcdroplet.mesh", "build_structured_mesh", True),
    ("config.build_problem", "lcdroplet.config", "build_problem", False),
    ("mesh.audit", "lcdroplet.mesh", "audit_weak_acuteness", False),
    ("assembly.build_operators", "lcdroplet.assembly", "build_operators", False),
    ("assembly.assemble_stiffness", "lcdroplet.assembly", "assemble_stiffness", False),
    ("assembly.squared_field_mass", "lcdroplet.assembly", "squared_field_mass", False),
    ("assembly.nodal_load", "lcdroplet.assembly", "nodal_load", False),
    ("energy.residual_director", "lcdroplet.energy", "residual_director", False),
    ("energy.residual_s", "lcdroplet.energy", "residual_s", False),
    ("energy.ch_step_matrix", "lcdroplet.energy", "ch_step_matrix", False),
    ("energy.residual_ch", "lcdroplet.energy", "residual_ch", False),
    ("energy.jacobian_ch", "lcdroplet.energy", "jacobian_ch", False),
    ("energy.total_energy", "lcdroplet.energy", "total_energy", False),
    ("solver.director_step", "lcdroplet.solver", "director_step", True),
    ("solver.s_step", "lcdroplet.solver", "s_step", True),
    ("solver.ch_step", "lcdroplet.solver", "ch_step", True),
    ("solver.jacobian_solve", "lcdroplet.solver:JacobianCache", "solve", False),
    ("scipy.splu", "scipy.sparse.linalg", "splu", False),
    ("scipy.gmres", "scipy.sparse.linalg", "gmres", False),
    ("scipy.spsolve", "scipy.sparse.linalg", "spsolve", False),
    ("vtkio.write", "lcdroplet.vtkio", "write_vtk", False),
    ("cli.csv_sink", "lcdroplet.cli:EnergyCSVSink", "on_start", False),
    ("cli.csv_sink", "lcdroplet.cli:EnergyCSVSink", "on_step", False),
    ("cli.csv_sink", "lcdroplet.cli:EnergyCSVSink", "on_finish", False),
    ("verify.flow_trajectory", "lcdroplet.verify", "flow_trajectory", False),
    ("verify.refinement", "lcdroplet.verify", "refinement_energy_consistency", False),
    ("verify.oracle", "lcdroplet.verify", "quadrature_exactness_check", False),
    ("verify.oracle", "lcdroplet.verify", "stiffness_identity_check", False),
    ("verify.oracle", "lcdroplet.verify", "fd_derivative_check", False),
    ("verify.oracle", "lcdroplet.verify", "brute_force_form_check", False),
    ("verify.oracle", "lcdroplet.verify", "projection_monotonicity_check", False),
    ("verify.oracle", "lcdroplet.verify", "lumped_monotonicity_check", False),
    ("verify.oracle", "lcdroplet.verify", "convex_split_check", False),
    ("verify.oracle", "lcdroplet.verify", "anisotropic_identity_check", False),
    ("verify.audit", "lcdroplet.verify", "energy_law_audit", False),
    ("verify.audit", "lcdroplet.verify", "director_constraints_check", False),
    ("verify.audit", "lcdroplet.verify", "mass_conservation_check", False),
)

STAGES = ("solver.director_step", "solver.s_step", "solver.ch_step")

# per-layer metric -> span name whose inclusive time it reports
INCLUSIVE = {
    "config.build_problem_s": "config.build_problem",
    "mesh.build_s": "mesh.build",
    "mesh.audit_s": "mesh.audit",
    "assembly.build_operators_s": "assembly.build_operators",
    "assembly.assemble_stiffness_s": "assembly.assemble_stiffness",
    "assembly.squared_field_mass_s": "assembly.squared_field_mass",
    "assembly.nodal_load_s": "assembly.nodal_load",
    "energy.residual_director_s": "energy.residual_director",
    "energy.residual_s_s": "energy.residual_s",
    "energy.ch_step_matrix_s": "energy.ch_step_matrix",
    "energy.residual_ch_s": "energy.residual_ch",
    "energy.jacobian_ch_s": "energy.jacobian_ch",
    "energy.total_energy_s": "energy.total_energy",
    "solver.step_s": "solver.step",
    "solver.director_step_s": "solver.director_step",
    "solver.s_step_s": "solver.s_step",
    "solver.ch_step_s": "solver.ch_step",
    "vtkio.write_s": "vtkio.write",
    "cli.csv_sink_s": "cli.csv_sink",
    "verify.acuteness_sweep_s": "verify.acuteness_sweep",
    "verify.oracles_s": "verify.oracle",
    "verify.refinement_s": "verify.refinement",
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    round: int | None


class Tracer:
    def __init__(self, gauge):
        self.gauge = gauge
        self.spans: list[Span] = []
        self.round: int | None = None  # spans outside a round are set-up
        self._stack: list[int] = []
        self.newton_iters = 0
        self.vtk_bytes = 0
        self.factorizations = 0
        self._seen = weakref.WeakKeyDictionary()  # JacobianCache -> its count
        self.last_cache = None  # kept for the size of its factors

    # -- recording -----------------------------------------------------
    def seconds(self, span: Span) -> float:
        """The span's time at the reference speed."""
        return self.gauge.scaled(span.start, span.end)

    def wrap(self, name: str, fn, after=None, clock=False):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else None,
                        self.round)
            self.spans.append(span)
            self._stack.append(idx)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if clock:
                    self.gauge.maybe_sample()
            if after is not None and self.round is not None:
                after(args, result)
            return result
        return traced

    def install(self, traced: bool) -> None:
        hooks = {
            "solver.step": self._count_newton,
            "solver.jacobian_solve": self._count_factorizations,
            "vtkio.write": self._count_bytes,
        }
        for name, owner, attr, clock in TARGETS:
            if clock or traced:
                self._patch(name, owner, attr, hooks.get(name), clock)

    def _patch(self, name, owner, attr, after, clock):
        module_name, _, class_name = owner.partition(":")
        module = importlib.import_module(module_name)
        obj = getattr(module, class_name) if class_name else module
        fn = getattr(obj, attr, None)
        if fn is None:
            print(f"tracing: {owner}.{attr} not found; span {name} not recorded",
                  file=sys.stderr)
            return
        wrapped = self.wrap(name, fn, after, clock)
        setattr(obj, attr, wrapped)
        if class_name:
            return
        # modules that imported the function by name hold their own reference
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").split(".")[0] != "lcdroplet":
                continue
            for key, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, key, wrapped)

    def _count_newton(self, args, result):
        self.newton_iters += result[1].newton_iters

    def _count_factorizations(self, args, result):
        cache = args[0]
        self.factorizations += cache.factorizations - self._seen.get(cache, 0)
        self._seen[cache] = cache.factorizations
        self.last_cache = cache

    def _count_bytes(self, args, result):
        self.vtk_bytes += os.path.getsize(args[0])

    # -- reading -------------------------------------------------------
    def durations(self, name: str) -> list[float]:
        """Durations of the in-round spans called ``name``, in call order."""
        return [self.seconds(s) for s in self.spans
                if s.name == name and s.round is not None]

    def sweep_iterations(self) -> list[float]:
        """Durations of the acuteness sweep's iterations (build a mesh,
        assemble its stiffness matrix, audit it): from each mesh build the
        sweep starts to the next, and from the last to the sweep's end."""
        starts = defaultdict(list)
        for span in self.spans:
            if span.name == "mesh.build" and span.round is not None:
                starts[span.parent].append(span.start)
        out = []
        for idx, span in enumerate(self.spans):
            if span.name == "verify.acuteness_sweep" and span.round is not None:
                edges = starts[idx] + [span.end]
                out += [self.gauge.scaled(a, b) for a, b in zip(edges, edges[1:])]
        return out

    def _ancestors(self, idx: int):
        parent = self.spans[idx].parent
        while parent is not None:
            yield self.spans[parent].name
            parent = self.spans[parent].parent

    def layer_metrics(self, rounds: int) -> dict:
        """Per-layer figures per round (except the last factor's size and
        the Krylov acceptance ratio)."""
        inclusive = Counter()
        calls = Counter()
        children = defaultdict(list)
        spd = lu = krylov = stages = 0.0
        for idx, span in enumerate(self.spans):
            if span.round is None:
                continue
            if span.parent is not None:
                children[span.parent].append(idx)
            seconds = self.seconds(span)
            inclusive[span.name] += seconds
            calls[span.name] += 1
            if (span.name in STAGES and span.parent is not None
                    and self.spans[span.parent].name == "solver.step"):
                stages += seconds
            if span.name.startswith("scipy."):
                above = set(self._ancestors(idx))
                if "solver.ch_step" in above:
                    if span.name == "scipy.splu":
                        lu += seconds
                    elif span.name == "scipy.gmres":
                        krylov += seconds
                elif above & {"solver.director_step", "solver.s_step"}:
                    spd += seconds

        tried = kept = 0
        for idx, span in enumerate(self.spans):
            if span.name != "solver.jacobian_solve" or span.round is None:
                continue
            inner = {self.spans[c].name for c in children[idx]}
            if "scipy.gmres" in inner:
                tried += 1
                kept += "scipy.splu" not in inner

        per_round = {metric: inclusive[name] for metric, name in INCLUSIVE.items()}
        per_round.update({
            "mesh.meshes": calls["mesh.build"],
            "energy.residual_ch_calls": calls["energy.residual_ch"],
            "solver.ledger_s": inclusive["solver.step"] - stages,
            "solver.spd_solve_s": spd,
            "solver.lu_factor_s": lu,
            "solver.lu_factorizations": self.factorizations,
            "solver.krylov_s": krylov,
            "solver.krylov_solves": tried,
            "solver.newton_iters": self.newton_iters,
            "vtkio.bytes": self.vtk_bytes,
            "verify.flow_audit_s": inclusive["verify.flow_trajectory"]
            + inclusive["verify.audit"],
        })
        metrics = {k: v / rounds for k, v in per_round.items()}
        factor = getattr(self.last_cache, "lu", None)
        metrics["solver.lu_nnz"] = factor.L.nnz + factor.U.nnz if factor is not None else 0
        metrics["solver.krylov_accept_ratio"] = kept / tried if tried else 0.0
        return metrics

    def self_times(self) -> dict:
        """Per span name: calls, inclusive and self seconds (in rounds)."""
        child_time = defaultdict(float)
        for span in self.spans:
            if span.round is not None and span.parent is not None:
                child_time[span.parent] += self.seconds(span)
        table = defaultdict(lambda: {"calls": 0, "inclusive_s": 0.0, "self_s": 0.0})
        for idx, span in enumerate(self.spans):
            if span.round is None:
                continue
            row = table[span.name]
            seconds = self.seconds(span)
            row["calls"] += 1
            row["inclusive_s"] += seconds
            row["self_s"] += seconds - child_time[idx]
        return dict(table)

    def write(self, out_dir) -> None:
        """Save the spans (one JSON object a line) and the self-time table."""
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "spans.jsonl"), "w", encoding="utf-8") as fh:
            for idx, s in enumerate(self.spans):
                fh.write(json.dumps({"id": idx, "name": s.name, "start": s.start,
                                     "end": s.end, "parent": s.parent,
                                     "round": s.round}) + "\n")
        with open(os.path.join(out_dir, "self_times.json"), "w", encoding="utf-8") as fh:
            json.dump(self.self_times(), fh, indent=1, sort_keys=True)
