"""Checks of a run's outputs against properties the method must have.

Each check raises :class:`CheckFailed` with a diagnostic and returns
nothing when the output passes.  None of them compares against a stored
copy of earlier output.  The phase-field integral and the droplet
components are computed here from the mesh arrays, with code of the
benchmark's own, not with ``Operators.mass`` or ``mesh.count_components``.
"""
from __future__ import annotations

import csv
import json

import numpy as np

# the per-step budget must close to this relative accuracy (the bound of
# ``verify.energy_law_audit``); an energy rise beyond it would need a
# negative dissipation term beyond the floor below
LEDGER_RTOL = 1e-12
DISSIPATION_FLOOR = -1e-11
MASS_TOL = 1e-9
UNIT_TOL = 1e-12


class CheckFailed(Exception):
    """An output violates a property the method guarantees."""


def check_ledger(reports) -> None:
    """Every step's closed budget residual and dissipation terms."""
    for k, rep in enumerate(reports, start=1):
        scale = max(abs(rep.before.total), abs(rep.after.total), 1.0)
        closure = abs(rep.closed_budget_residual) / scale
        if not closure <= LEDGER_RTOL:
            raise CheckFailed(
                f"step {k}: closed budget residual {closure:.3e} (relative) "
                f"exceeds {LEDGER_RTOL:g}"
            )
        term, low = min(rep.dissipation.items(), key=lambda kv: kv[1])
        if not low >= DISSIPATION_FLOOR:
            raise CheckFailed(
                f"step {k}: dissipation term {term} = {low:.3e} is below "
                f"{DISSIPATION_FLOOR:g}"
            )


def check_energy_trace(path, steps: int) -> None:
    """``energy.csv`` has one row per step plus the initial one, and its
    ``total`` column never rises."""
    with open(path, newline="", encoding="utf-8") as fh:
        totals = [float(row["total"]) for row in csv.DictReader(fh)]
    if len(totals) != steps + 1:
        raise CheckFailed(f"{path}: {len(totals)} rows, expected {steps + 1}")
    for k in range(1, len(totals)):
        rise = totals[k] - totals[k - 1]
        if rise > LEDGER_RTOL * max(abs(totals[k - 1]), 1.0):
            raise CheckFailed(
                f"{path}: total energy rises by {rise:.3e} at step {k}"
            )


def p1_integral(nodes: np.ndarray, elements: np.ndarray, values: np.ndarray) -> float:
    """Exact integral of a P1 field: element area times vertex mean."""
    p = nodes[elements]
    area = 0.5 * np.abs(
        (p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
        - (p[:, 2, 0] - p[:, 0, 0]) * (p[:, 1, 1] - p[:, 0, 1])
    )
    return float(np.sum(area * values[elements].mean(axis=1)))


def check_mass(nodes, elements, phi_start, phi_end) -> None:
    drift = abs(p1_integral(nodes, elements, phi_end)
                - p1_integral(nodes, elements, phi_start))
    if not drift <= MASS_TOL:
        raise CheckFailed(f"phase-field mass drifts by {drift:.3e} > {MASS_TOL:g}")


def check_unit_director(n: np.ndarray) -> None:
    n = np.asarray(n)
    if n.ndim != 2 or n.shape[1] != 2:
        raise CheckFailed(f"director array has shape {n.shape}, expected (nodes, 2)")
    err = float(np.abs(np.linalg.norm(n, axis=1) - 1.0).max())
    if not err <= UNIT_TOL:
        raise CheckFailed(f"director off unit length by {err:.3e} > {UNIT_TOL:g}")


def count_components(elements: np.ndarray, mask: np.ndarray) -> int:
    """Connected components of the selected nodes along the mesh's edges
    (the cell sides and the diagonal that splits each cell).

    Minimum-label propagation with pointer jumping: labels stay inside a
    component and stop changing only once every edge joins equal labels.
    """
    mask = np.asarray(mask, dtype=bool)
    e = np.asarray(elements)
    edges = np.concatenate([e[:, [0, 1]], e[:, [1, 2]], e[:, [0, 2]]])
    edges = edges[mask[edges[:, 0]] & mask[edges[:, 1]]]
    a, b = edges[:, 0], edges[:, 1]
    label = np.arange(mask.size)
    while True:
        low = np.minimum(label[a], label[b])
        new = label.copy()
        np.minimum.at(new, a, low)
        np.minimum.at(new, b, low)
        new = new[new]
        if np.array_equal(new, label):
            return int(np.unique(label[mask]).size)
        label = new


def check_components(elements, phi, expected: int, when: str) -> None:
    found = count_components(elements, np.asarray(phi) > 0.0)
    if found != expected:
        raise CheckFailed(
            f"{found} droplet components {when}, expected {expected}"
        )


def check_identical(paths) -> None:
    """Every file is byte for byte the same as the first."""
    paths = list(paths)
    with open(paths[0], "rb") as fh:
        first = fh.read()
    for path in paths[1:]:
        with open(path, "rb") as fh:
            if fh.read() != first:
                raise CheckFailed(f"{path} differs from {paths[0]}")


def read_verify_report(exit_code: int, path) -> tuple[int, int]:
    """(checks run, checks failed) from ``lcdroplet verify --report``; the
    exit code must say the same."""
    with open(path, encoding="utf-8") as fh:
        rows = [json.loads(line) for line in fh if line.strip()]
    if not rows:
        raise CheckFailed(f"{path}: no checks reported")
    failed = [row["name"] for row in rows if row["passed"] is not True]
    if (exit_code == 0) != (not failed):
        raise CheckFailed(
            f"verify exited with {exit_code} while {len(failed)} checks failed"
        )
    return len(rows), len(failed)
