"""Command-line interface: scenario runner, verification suite, mesh audit.

    lcdroplet simulate --preset droplet_corner --set mesh.nx=32 --out run/
    lcdroplet verify --seed 7 --report checks.jsonl
    lcdroplet mesh-audit --nx 32 --ny 32

A simulation writes, into the output directory: the resolved scenario
document (config.yaml), an energy trace CSV with one row per step, binary
VTK frames of the fields at the configured cadence with fields.vtk.series,
the index of their simulation times, and a final-state archive sufficient
to restart.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict

import numpy as np
import yaml

from . import config as cfgmod, solver as sv, verify as vf, vtkio
from .mesh import MeshError, audit_weak_acuteness, build_structured_mesh, mesh_size

ENERGY_LOG = "energy.csv"  # the energy trace, in the output directory
SERIES_INDEX = "fields.vtk.series"  # each VTK frame's file name and time
CSV_COLUMNS = (
    "step", "time", "e_erk", "e_dw", "e_chdw", "e_chgd", "e_wan", "e_was",
    "total", "mass_drift", "newton_iters", "min_s", "max_s",
)


def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


class EnergyCSVSink:
    """Streams one energy-trace row per step (plus the initial row)."""

    def __init__(self, path):
        self.path = path
        self._fh = None

    def on_start(self, state, energy_report):
        os.makedirs(os.path.dirname(os.path.abspath(self.path)), exist_ok=True)
        self._fh = open(self.path, "w", encoding="utf-8")
        self._fh.write(",".join(CSV_COLUMNS) + "\n")
        self._write_row(state, energy_report, mass_drift=0.0, newton_iters=0)

    def on_step(self, state, report):
        self._write_row(state, report.after, mass_drift=report.mass_drift,
                        newton_iters=report.newton_iters)

    def on_finish(self, state):
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def _write_row(self, state, r, *, mass_drift, newton_iters):
        s = state.s.values
        row = [
            state.step_index, state.time, r.e_erk, r.e_dw, r.e_chdw, r.e_chgd, r.e_wan,
            r.e_was, r.total, mass_drift, newton_iters, s.min(), s.max(),
        ]
        self._fh.write(",".join(_fmt(v) for v in row) + "\n")
        self._fh.flush()


class SnapshotSink:
    """Writes fields_<step>.vtk every ``every`` steps (and at start/end),
    and at the end the index fields.vtk.series of the frames written."""

    def __init__(self, out_dir, every: int):
        self.out_dir = out_dir
        self.every = every
        self.frames = []  # one {"name": ..., "time": ...} per frame written

    def _write(self, state):
        name = f"fields_{state.step_index}.vtk"
        vtkio.write_vtk(
            os.path.join(self.out_dir, name), state.mesh,
            point_scalars={
                "orientation": state.s.values,
                "phase": state.phi.values,
                "chemical_potential": state.mu.values,
            },
            point_vectors={"director": state.n.values},
            title=f"droplet state at t={state.time:g}",
        )
        self.frames.append({"name": name, "time": float(state.time)})

    def on_start(self, state, energy_report):
        self._write(state)

    def on_step(self, state, report):
        if state.step_index % self.every == 0:
            self._write(state)

    def on_finish(self, state):
        if state.step_index % self.every != 0:
            self._write(state)
        # ParaView's file-series index; json writes each time exactly
        with open(os.path.join(self.out_dir, SERIES_INDEX), "w", encoding="utf-8") as fh:
            json.dump({"file-series-version": "1.0", "files": self.frames}, fh, indent=1)
            fh.write("\n")


class FinalStateSink:
    def __init__(self, path):
        self.path = path

    def on_finish(self, state):
        np.savez(
            self.path,
            s=state.s.values, n=state.n.values, phi=state.phi.values,
            mu=state.mu.values, time=state.time, step_index=state.step_index,
        )


def run_scenario(problem: cfgmod.Problem, out_dir: str | None = None):
    """Run a scenario built by ``config.build_problem``; returns
    (final_state, exit_code): 0, 1 after a failed step, or 2 when the
    output directory cannot be written; warns of a dissolution ratio >= 1."""
    ratio = cfgmod.dissolution_ratio(problem)
    if ratio >= 1.0:
        print(f"warning: dissolution ratio {ratio:.3g} >= 1: dissolving "
              "the initial droplets lowers the energy", file=sys.stderr)
    cfg = problem.config
    out = out_dir or cfg.output.get("dir", "out/run")
    resolved = cfg.to_dict()
    resolved["weights"]["eps"] = problem.weights.eps
    resolved["output"]["dir"] = out
    resolved["output"]["snapshot_every"] = problem.snapshot_every
    # every scheme field, so the run records the SPD solver and tolerances
    # that the preset leaves at their defaults
    resolved["scheme"] = asdict(problem.scheme)
    try:  # an unusable output path fails before the first step
        os.makedirs(out, exist_ok=True)
        with open(os.path.join(out, "config.yaml"), "w", encoding="utf-8") as fh:
            # a comment, so that the file stays a scenario document
            fh.write(f"# dissolution_ratio: {ratio!r}\n")
            yaml.safe_dump(resolved, fh, sort_keys=False)
    except OSError as exc:
        print(f"cannot write output directory {out}: {exc.strerror or exc}", file=sys.stderr)
        return None, 2

    sinks = [
        EnergyCSVSink(os.path.join(out, ENERGY_LOG)),
        SnapshotSink(out, problem.snapshot_every),
        FinalStateSink(os.path.join(out, "final_state.npz")),
    ]
    try:
        final = sv.run(
            problem.ops, problem.initial, problem.weights, problem.scheme,
            problem.bc, sinks,
        )
    except sv.StepError as exc:
        print(f"simulation aborted: {exc}", file=sys.stderr)
        return None, 1
    return final, 0


def load_state(path, mesh):
    """Load a final-state archive back into a PhaseState."""
    data = np.load(path)
    return sv.make_state(
        mesh, data["s"], data["n"], data["phi"], data["mu"],
        time=float(data["time"]), step_index=int(data["step_index"]),
    )


def _cmd_simulate(args) -> int:
    if args.preset is None and args.config is None:
        print("simulate requires --preset and/or --config", file=sys.stderr)
        return 2
    try:  # ValueError covers MeshError and ExpressionError
        problem = cfgmod.build_problem(cfgmod.merge_config(
            cfgmod.preset(args.preset) if args.preset else None,
            cfgmod.load_config_file(args.config) if args.config else None, args.set or ()))
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return run_scenario(problem, args.out)[1]


def _cmd_verify(args) -> int:
    if args.report:
        try:  # an unwritable report path fails before the suite runs
            open(args.report, "a", encoding="utf-8").close()
        except OSError as exc:
            print(f"cannot write report {args.report}: {exc.strerror or exc}", file=sys.stderr)
            return 2
    outcomes = vf.run_suite(seed=args.seed, mutate=args.mutate)
    if args.report:
        vf.write_report(outcomes, args.report)
    failed = [oc for oc in outcomes if not oc.passed]
    for oc in outcomes:
        status = "PASS" if oc.passed else "FAIL"
        print(f"[{status}] {oc.name}: measured={oc.measured:.3e} "
              f"tolerance={oc.tolerance:.3e}")
    print(f"{len(outcomes) - len(failed)}/{len(outcomes)} checks passed")
    return 1 if failed else 0


def _cmd_mesh_audit(args) -> int:
    try:
        mesh = build_structured_mesh(args.nx, args.ny)
    except MeshError as exc:
        print(f"mesh error: {exc}", file=sys.stderr)
        return 2
    report = audit_weak_acuteness(mesh)
    print(
        f"mesh {args.nx}x{args.ny}: nodes={mesh.n_nodes} "
        f"elements={mesh.n_elements} h={mesh_size(mesh):.6g}"
    )
    print(
        f"weakly acute: {report.is_weakly_acute} "
        f"(min offdiagonal coupling {report.min_offdiag_kij:.3e})"
    )
    for i, j, k in report.violating_pairs[:10]:
        print(f"  violating pair ({i}, {j}): k_ij = {k:.6g}")
    return 0 if report.is_weakly_acute else 1


def _seed(text: str) -> int:
    """A random seed: a nonnegative integer, as ``np.random.default_rng`` takes."""
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be a nonnegative integer, got {text!r}")
    return seed


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lcdroplet",
        description="Gradient-flow simulator for nematic liquid crystal droplets",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a droplet scenario")
    sim.add_argument("--preset", choices=cfgmod.PRESET_NAMES,
                     help="one of the built-in experiments")
    sim.add_argument("--config", help="YAML scenario file (overrides preset)")
    sim.add_argument("--set", action="append", metavar="KEY=VALUE",
                     help="override a single config key, e.g. mesh.nx=32")
    sim.add_argument("--out", help="output directory (default from config)")
    sim.set_defaults(func=_cmd_simulate)

    ver = sub.add_parser("verify", help="run the verification suite")
    ver.add_argument("--seed", type=_seed, default=0)
    ver.add_argument("--report", help="write a JSON-lines check report here")
    ver.add_argument("--mutate", choices=vf.MUTATIONS, help=argparse.SUPPRESS)
    ver.set_defaults(func=_cmd_verify)

    aud = sub.add_parser("mesh-audit", help="weak-acuteness audit of a structured mesh")
    aud.add_argument("--nx", type=int, required=True)
    aud.add_argument("--ny", type=int, required=True)
    aud.set_defaults(func=_cmd_mesh_audit)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
