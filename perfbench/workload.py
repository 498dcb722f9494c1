"""One workload of the lcdroplet benchmark, in a process of its own.

    python3 perfbench/workload.py <workload> <seconds> <trace> [<steps>]

``run.py`` starts this script with the BLAS thread count fixed and reads
the JSON line it prints last: the operations attempted and failed, the
messages of any failed output check, and the metric values.

A run repeats whole rounds until ``seconds`` have passed.  A flow round
does what ``lcdroplet simulate`` does (``config.build_problem``,
``solver.run`` and the ``cli`` sinks) from t = 0 over a fixed number of
steps, and a flow run makes at least two rounds so that their
``energy.csv`` files can be compared byte for byte.  A verify round is
one ``lcdroplet verify --seed 0``.  A flow counts its time steps as
operations (after a ``StepError`` the steps left count as failed); verify
counts its checks.  Every time reported is at the reference speed of
``gauge.py``: a ``Gauge`` samples the machine's speed before and after
each round and set-up call, and between the program's steps and mesh
builds.
"""
from __future__ import annotations

import contextlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = os.path.join(HERE, "runs")
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402
from lcdroplet import cli, config as cfgmod, solver as sv  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
from gauge import Gauge  # noqa: E402

# criterion 9's regime: at the preset weights every droplet dissolves
DROPLET_REGIME = "weights.w_chdw=100"
# droplet_collide's droplets merge at t ~ 0.46 at 64^2: a round ending
# before the window still has two, one ending after it has one
MERGE_WINDOW = (0.4, 0.49)
VERIFY_SEED = 0
SETUP_REPEATS = 5


@dataclass(frozen=True)
class Flow:
    preset: str
    nx: int
    steps: int
    snapshot_every: int
    droplets: int | None  # components at t = 0; None: no component check


FLOWS = {
    # the coalescence experiment; a snapshot every 83 steps is the
    # preset's own cadence for T = 2, so output costs little here
    "collide-64": Flow("droplet_collide", 64, 40, 83, 2),
    # frames for an animation: a snapshot every second step.  Steps 1
    # and 4 refactor the interface Jacobian; with 5 steps a round the
    # median step is one of those that do not, not the boundary between
    # the two kinds.  No component check: the split that criterion 9b
    # expects does not happen (a known defect), and a fix must not fail
    # the benchmark.
    "split-128": Flow("droplet_split", 128, 5, 2, None),
}


def flow_config(flow: Flow, steps: int):
    base = cfgmod.preset(flow.preset)
    t_final = steps * base.scheme["tau"]
    return cfgmod.merge_config(base, None, [
        DROPLET_REGIME, f"mesh.nx={flow.nx}", f"mesh.ny={flow.nx}",
        f"scheme.t_final={t_final!r}", f"output.snapshot_every={flow.snapshot_every}",
    ])


class LedgerSink:
    """Keeps what the checks need: the initial phase field, every
    StepReport and the time reached."""

    def on_start(self, state, energy_report):
        self.phi0 = state.phi.values.copy()
        self.reports = []
        self.time = state.time

    def on_step(self, state, report):
        self.reports.append(report)
        self.time = state.time


def flow_round(cfg, out_dir):
    """One simulation into ``out_dir``; returns (problem, ledger sink)."""
    problem = cfgmod.build_problem(cfg)
    ledger = LedgerSink()
    sinks = [
        cli.EnergyCSVSink(os.path.join(out_dir, "energy.csv")),
        cli.SnapshotSink(out_dir, problem.snapshot_every),
        cli.FinalStateSink(os.path.join(out_dir, "final_state.npz")),
        ledger,
    ]
    try:
        sv.run(problem.ops, problem.initial, problem.weights, problem.scheme,
               problem.bc, sinks)
    except sv.StepError as exc:
        print(f"step {len(ledger.reports) + 1} failed: {exc}", file=sys.stderr)
    return problem, ledger


def run_checks(tests) -> list[str]:
    failures = []
    for fn, *args in tests:
        try:
            fn(*args)
        except checks.CheckFailed as exc:
            failures.append(str(exc))
    return failures


def check_flow_round(flow: Flow, problem, ledger, out_dir) -> list[str]:
    """Every check of one flow round; returns the failures' messages."""
    mesh = problem.mesh
    with np.load(os.path.join(out_dir, "final_state.npz")) as final:
        phi, n = final["phi"], final["n"]
    tests = [
        (checks.check_ledger, ledger.reports),
        (checks.check_energy_trace, os.path.join(out_dir, "energy.csv"),
         len(ledger.reports)),
        (checks.check_mass, mesh.nodes, mesh.elements, ledger.phi0, phi),
        (checks.check_unit_director, n),
    ]
    if flow.droplets is not None:
        tests.append((checks.check_components, mesh.elements, ledger.phi0,
                      flow.droplets, "at t = 0"))
        if ledger.time < MERGE_WINDOW[0] or ledger.time >= MERGE_WINDOW[1]:
            end = flow.droplets if ledger.time < MERGE_WINDOW[0] else 1
            tests.append((checks.check_components, mesh.elements, phi, end,
                          f"at t = {ledger.time:g}"))
    return run_checks(tests)


def timed(gauge, fn, *args):
    """``fn(*args)`` between two samples of the gauge; returns its result
    and the interval it took."""
    gauge.sample()
    t0 = time.perf_counter()
    result = fn(*args)
    t1 = time.perf_counter()
    gauge.sample()
    return result, (t0, t1)


def run_flow(flow: Flow, steps: int, seconds: float, tracer, out) -> dict:
    gauge = tracer.gauge
    cfg = flow_config(flow, steps)
    builds = [timed(gauge, cfgmod.build_problem, cfg)[1] for _ in range(SETUP_REPEATS)]

    walls, failures, traces = [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    while len(walls) < 2 or time.perf_counter() - start < seconds:
        k = len(walls)
        round_dir = os.path.join(out, f"round{k}")
        os.makedirs(round_dir)
        tracer.round = k
        (problem, ledger), wall = timed(gauge, flow_round, cfg, round_dir)
        walls.append(wall)
        tracer.round = None
        attempted += steps
        failed += steps - len(ledger.reports)
        failures += [f"round {k}: {msg}"
                     for msg in check_flow_round(flow, problem, ledger, round_dir)]
        traces.append(os.path.join(round_dir, "energy.csv"))
    failures += run_checks([(checks.check_identical, traces)])
    return {
        "attempted": attempted, "failed": failed, "failures": failures,
        "walls": [gauge.scaled(*w) for w in walls],
        "build": statistics.median(gauge.scaled(*b) for b in builds),
        "steps": tracer.durations("solver.step"),
        "stepping": tracer.durations("solver.run"),
    }


def verify_round(out_dir):
    """One ``lcdroplet verify``; returns (exit code, report path)."""
    report = os.path.join(out_dir, "checks.jsonl")
    with open(os.path.join(out_dir, "verify.log"), "w", encoding="utf-8") as log, \
            contextlib.redirect_stdout(log):
        code = cli.main(["verify", "--seed", str(VERIFY_SEED), "--report", report])
    return code, report


def run_verify(seconds: float, tracer, out) -> dict:
    walls, failures = [], []
    attempted = failed = 0
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        k = len(walls)
        round_dir = os.path.join(out, f"round{k}")
        os.makedirs(round_dir)
        tracer.round = k
        (code, report), wall = timed(tracer.gauge, verify_round, round_dir)
        walls.append(wall)
        tracer.round = None
        try:
            ran, bad = checks.read_verify_report(code, report)
        except checks.CheckFailed as exc:
            failures.append(f"round {k}: {exc}")
            ran, bad = 1, 1
        attempted += ran
        failed += bad
    return {
        "attempted": attempted, "failed": failed, "failures": failures,
        "walls": [tracer.gauge.scaled(*w) for w in walls], "build": 0.0,
        # a step of verify is one iteration of its acuteness sweep (4096
        # a round, nearly all its time); the 25 steps of its flow audit
        # take too short a time to time steadily
        "steps": tracer.sweep_iterations(),
        "stepping": tracer.durations("verify.acuteness_sweep"),
    }


def main(argv) -> int:
    name, seconds, traced = argv[0], float(argv[1]), argv[2] == "1"
    if name not in FLOWS and name != "verify":
        raise SystemExit(f"unknown workload {name!r}")

    tracer = tracing.Tracer(Gauge())
    tracer.install(traced)
    out = os.path.join(RUNS, name)
    shutil.rmtree(out, ignore_errors=True)
    if name == "verify":
        run = run_verify(seconds, tracer, out)
    else:
        flow = FLOWS[name]
        steps = int(argv[3]) if len(argv) > 3 else flow.steps
        run = run_flow(flow, steps, seconds, tracer, out)

    result = {
        "correct": not run["failures"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "failures": run["failures"],
        "rounds": len(run["walls"]),
        "end_to_end": {
            "build_s": run["build"],
            "wall_s": statistics.median(run["walls"]),
            "step_p50_s": statistics.median(run["steps"]),
            "steps_per_s": len(run["steps"]) / sum(run["stepping"]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
        "per_layer": tracer.layer_metrics(len(run["walls"])) if traced else None,
        "kernel_s": tracer.gauge.kernel_times(),
    }
    tracer.write(out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
