"""A pytest plugin that fails the session when a statement of the package
goes unrun, with ``sys.settrace`` and no other dependency:

    PYTHONPATH=tests pytest -p line_collector -m "not slow"

It must be loaded with ``-p``, so that its tracer is installed before
``conftest.py`` imports ``lcdroplet``: a module's top-level statements run
only once, at import.  A statement counts as run when a line event falls
on its lines (the header lines of a compound statement), which holds
across the Python versions' line tables.  Docstrings and ``try:`` headers
have no code of their own and are not counted; ``except`` clauses are not
statements.  A statement no test can run is listed in ``ALLOWLIST`` by its
module and the text of its first line, with the reason; the summary names
an entry that no unrun statement matches, so that the list stays short.
"""
from __future__ import annotations

import ast
import os
import sys

import pytest

PACKAGE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "src", "lcdroplet")

# (module, stripped text of the statement's first line): why no test runs it
ALLOWLIST = {
    ("solver.py", 'raise StepError(f"degenerate director normalization, a defect: {exc}") '
                  "from None"):
        "a defect guard: the tangent update keeps |n~| >= 1, so normalization cannot fail",
    ("cli.py", "raise SystemExit(main())"):
        "runs only as `python -m lcdroplet.cli`; the tests call main()",
    ("cli.py", 'print(f"  violating pair ({i}, {j}): k_ij = {k:.6g}")'):
        "every structured mesh is weakly acute, so mesh-audit has no pair to print",
    ("expressions.py", "raise ExpressionError(too_deep) from None"):
        "test_expression_nested_too_deeply reaches it, but at the recursion limit, where "
        "the tracer itself fails and Python drops it",
}

_hits: dict[str, set[int]] = {}  # lines run, by the real path of each module
_keys: dict[str, str | None] = {}  # co_filename -> its key in _hits, or None


def _key(filename):
    if filename not in _keys:
        real = os.path.realpath(filename) if filename else None
        _keys[filename] = real if real in _hits else None
    return _keys[filename]


def _local(frame, event, arg):
    if event == "line":
        _hits[_key(frame.f_code.co_filename)].add(frame.f_lineno)
    return _local


def _global(frame, event, arg):
    return _local if _key(frame.f_code.co_filename) is not None else None


def _install():
    # Python drops a trace function that raises (at the recursion limit)
    if sys.gettrace() is not _global:
        sys.settrace(_global)


for _name in sorted(os.listdir(PACKAGE)):
    if _name.endswith(".py"):
        _hits[os.path.realpath(os.path.join(PACKAGE, _name))] = set()
_install()


def _statements(tree):
    """(first line, last line) of the lines of each counted statement."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or isinstance(node, (ast.Try, ast.Global,
                                                                ast.Nonlocal)):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) \
                and isinstance(node.value.value, str):
            continue  # a docstring
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
        body = getattr(node, "body", None)
        last = max(first, body[0].lineno - 1) if body else node.end_lineno
        yield first, last


def unrun_statements():
    """(module, line number, stripped text) of each statement no line event reached."""
    unrun = []
    for path, hits in sorted(_hits.items()):
        with open(path, encoding="utf-8") as fh:
            source = fh.read()
        lines = source.splitlines()
        for first, last in sorted(_statements(ast.parse(source))):
            if not hits.intersection(range(first, last + 1)):
                unrun.append((os.path.basename(path), first, lines[first - 1].strip()))
    return unrun


def pytest_runtest_setup(item):
    _install()


def pytest_runtest_call(item):
    _install()


_report: list[str] = []  # unrun statements outside the allowlist
_stale: list[str] = []  # allowlist entries that match no unrun statement


def pytest_sessionfinish(session, exitstatus):
    sys.settrace(None)
    unrun = unrun_statements()
    allowed = {(module, text) for module, _, text in unrun} & set(ALLOWLIST)
    _report.extend(f"{module}:{line}: {text}" for module, line, text in unrun
                   if (module, text) not in allowed)
    _stale.extend(f"{module}: {text}" for module, text in sorted(set(ALLOWLIST) - allowed))
    if _report and session.exitstatus == pytest.ExitCode.OK:
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


def pytest_terminal_summary(terminalreporter):
    terminalreporter.section("statements of lcdroplet no test ran")
    for line in _report:
        terminalreporter.write_line(line)
    for line in _stale:  # not a failure: the tracer may see more on another Python
        terminalreporter.write_line(f"allowlisted, but ran or gone: {line}")
    terminalreporter.write_line(f"{len(_report)} unrun outside the allowlist "
                                f"({len(ALLOWLIST)} allowlisted)")
