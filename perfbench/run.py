"""Run the lcdroplet benchmark, each workload in a process of its own.

    python3 perfbench/run.py --workload collide-64 --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py                      # every workload in turn

Prints every metric by name and unit, then, as the last line, one JSON
object with the keys correct, attempted, failed and metrics.  With
``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json, with
``--trace 1`` the per-layer ones, taken from spans around the calls into
each module (perfbench/tracing.py).  Times are at the reference speed of
perfbench/gauge.py.  The workloads take no random input, so ``--seed``
changes nothing; see perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("collide-64", "split-128", "verify")
# one BLAS thread: the program runs one client on one core, and OpenBLAS
# threads that spin between calls would take the other core, where the
# machine's own work runs
THREADS = "1"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
os.environ.update({var: THREADS for var in THREAD_VARS})

from gauge import REFERENCE_S, Gauge  # noqa: E402
IMPORT_REPEATS = 5
# kernel samples after each import: the first after a child process has
# exited runs on cold caches, and the median over all of them leaves it out
IMPORT_SAMPLES = 3
WORKLOAD_TIMEOUT_S = 170
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t0 = time.perf_counter(); "
    "import lcdroplet.cli; print(time.perf_counter() - t0)"
)


class BenchError(RuntimeError):
    pass


def run_child(label, cmd, timeout) -> str:
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{label} did not finish in {timeout} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{label} exited with {proc.returncode}")
    return proc.stdout


def import_seconds() -> float:
    """Median time to import the package, each time in a fresh process,
    at the reference speed: scaled by the median kernel time of the gauge
    samples taken after each import."""
    cmd = [sys.executable, "-c", IMPORT_PROBE, os.path.join(ROOT, "src")]
    gauge = Gauge()
    runs = []
    for _ in range(IMPORT_REPEATS):
        runs.append(float(run_child("importing lcdroplet", cmd, 60)))
        gauge.sample(IMPORT_SAMPLES)
    return statistics.median(runs) * REFERENCE_S / statistics.median(gauge.kernel_times())


def run_workload(name, seconds, trace, steps) -> dict:
    import_s = import_seconds()
    cmd = [sys.executable, os.path.join(HERE, "workload.py"), name, str(seconds),
           str(trace)] + ([str(steps)] if steps else [])
    result = json.loads(run_child(f"workload {name}", cmd, WORKLOAD_TIMEOUT_S)
                        .splitlines()[-1])
    result["end_to_end"]["setup_s"] = import_s + result["end_to_end"].pop("build_s")
    return result


def with_units(values: dict, listed) -> dict:
    missing = [m["name"] for m in listed if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics not measured: {', '.join(missing)}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}


def describe(name, result, spec) -> None:
    print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
          f"failed={result['failed']} rounds={result['rounds']}")
    kernel_ms = [1e3 * k for k in result["kernel_s"]]
    low, mid, high = statistics.quantiles(kernel_ms, n=4)
    print(f"  gauge: {len(kernel_ms)} samples, kernel {mid:.2f} ms "
          f"(quartiles {low:.2f}-{high:.2f}) against {1e3 * REFERENCE_S:g} ms")
    for msg in result["failures"]:
        print(f"  FAILED CHECK {msg}")
    tables = [("end_to_end", result["end_to_end"])]
    if result["per_layer"] is not None:
        tables.append(("per_layer", result["per_layer"]))
    for key, values in tables:
        for metric in spec[key]:
            value = values[metric["name"]]
            print(f"  {metric['name']:<32} {value:>14.6g} {metric['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steps", type=int,
                        help="steps per flow round instead of the workload's own "
                             "(e.g. 250 takes collide-64 past the merge)")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    listed = spec["per_layer" if args.trace else "end_to_end"]
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {}
        for name in names:
            result = run_workload(name, args.seconds, args.trace, args.steps)
            values = result["per_layer" if args.trace else "end_to_end"]
            results[name] = dict(result, metrics=with_units(values, listed))
            describe(name, result, spec)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{w}.{m}": v for w, r in results.items() for m, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
