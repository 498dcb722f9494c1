"""Self-test of the benchmark's output checks.

    python3 perfbench/selftest.py

Runs two rounds of an 8x8 droplet_collide flow through the benchmark's
own round code and checks that every check accepts their outputs.  Then
it feeds each check a broken copy of one output, which it must reject.
Exits with 1 if a check rejects a good output or accepts a broken one.
"""
from __future__ import annotations

import dataclasses
import json
import os
import shutil
import sys

import numpy as np

import checks
import workload as wl


def write_changed_csv(src, dst, change_row) -> str:
    """Copy ``src`` to ``dst``, passing each data row's fields (by
    column name) through ``change_row(index, row)``."""
    with open(src, encoding="utf-8") as fh:
        header, *rows = fh.read().splitlines()
    names = header.split(",")
    with open(dst, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for k, line in enumerate(rows):
            row = dict(zip(names, line.split(",")))
            change_row(k, row)
            fh.write(",".join(row[n] for n in names) + "\n")
    return dst


def main() -> int:
    out = os.path.join(wl.RUNS, "selftest")
    shutil.rmtree(out, ignore_errors=True)
    flow = wl.Flow("droplet_collide", 8, 5, 83, 2)
    cfg = wl.flow_config(flow, flow.steps)
    rounds = []
    for k in range(2):
        round_dir = os.path.join(out, f"round{k}")
        os.makedirs(round_dir)
        rounds.append((round_dir, *wl.flow_round(cfg, round_dir)))

    problems = []
    for round_dir, problem, ledger in rounds:
        problems += [f"good output rejected: {msg}"
                     for msg in wl.check_flow_round(flow, problem, ledger, round_dir)]
    csv_paths = [os.path.join(r[0], "energy.csv") for r in rounds]
    problems += [f"good output rejected: {msg}"
                 for msg in wl.run_checks([(checks.check_identical, csv_paths)])]

    round_dir, problem, ledger = rounds[0]
    mesh = problem.mesh
    with np.load(os.path.join(round_dir, "final_state.npz")) as final:
        phi, n = final["phi"], final["n"]

    off_unit = n.copy()
    off_unit[len(n) // 2] *= 1.0 + 1e-9

    totals = []

    def raise_total(k, row):
        if k == 3:  # a little above the row before
            row["total"] = repr(totals[-1] + 1e-6 * (abs(totals[-1]) + 1.0))
        totals.append(float(row["total"]))

    def change_iters(k, row):
        if k == 1:
            row["newton_iters"] = str(int(row["newton_iters"]) + 1)

    # one term negative, the sum (so the budget's closure) unchanged
    rep = ledger.reports[1]
    diss = dict(rep.dissipation)
    diss["mu_gradient"] += diss["velocity_s"] + 1e-6
    diss["velocity_s"] = -1e-6
    bad_report = dataclasses.replace(rep, dissipation=diss)
    failed_report = os.path.join(out, "checks.jsonl")
    with open(failed_report, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"name": "mass_conservation", "passed": False}) + "\n")

    broken = [
        ("director off unit length", checks.check_unit_director, off_unit),
        ("phi shifted by a constant", checks.check_mass, mesh.nodes,
         mesh.elements, ledger.phi0, phi + 1e-6),
        ("energy.csv row with a raised total", checks.check_energy_trace,
         write_changed_csv(csv_paths[0], os.path.join(out, "raised.csv"), raise_total),
         len(ledger.reports)),
        ("one-component field where two are expected", checks.check_components,
         mesh.elements, np.where(mesh.nodes[:, 0] > 0.5, -1.0, ledger.phi0), 2,
         "at t = 0"),
        ("ledger with a negative dissipation term", checks.check_ledger,
         [ledger.reports[0], bad_report]),
        ("repeat whose energy.csv differs", checks.check_identical,
         [csv_paths[0], write_changed_csv(
             csv_paths[0], os.path.join(out, "changed.csv"), change_iters)]),
        ("verify report with a failed check and exit code 0",
         checks.read_verify_report, 0, failed_report),
    ]
    for label, check, *args in broken:
        try:
            check(*args)
        except checks.CheckFailed as exc:
            print(f"rejected {label}: {exc}")
        else:
            problems.append(f"broken output accepted: {label}")

    for msg in problems:
        print(msg, file=sys.stderr)
    print("selftest " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
