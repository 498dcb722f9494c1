"""Tiny arithmetic expression language for initial and boundary data.

Expressions are functions of the coordinates ``x`` and ``y`` built from
numbers, ``+ - * / **``, unary minus, the functions ``tanh``, ``sqrt``,
``sin``, ``cos``, ``exp``, ``abs``, and half-plane selection
``where(cond, a, b)`` with a single comparison as the condition.  The
model constants ``eps``, ``s_star``, and ``pi`` are available by name so
configuration files can express interface profiles literally.

Evaluation is vectorized over numpy coordinate arrays; parsing uses the
Python ``ast`` module with a strict whitelist (no attribute access, no
names outside the table above).
"""
from __future__ import annotations

import ast

import numpy as np

_FUNCTIONS = {
    "tanh": np.tanh,
    "sqrt": np.sqrt,
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "abs": np.abs,
}

_BINOPS = {
    ast.Add: np.add,
    ast.Sub: np.subtract,
    ast.Mult: np.multiply,
    ast.Div: np.true_divide,
    ast.Pow: np.power,
}

_COMPARES = {
    ast.Lt: np.less,
    ast.LtE: np.less_equal,
    ast.Gt: np.greater,
    ast.GtE: np.greater_equal,
}


class ExpressionError(ValueError):
    pass


def compile_expression(source: str, constants: dict | None = None):
    """Compile ``source`` into a vectorized function of (x, y)."""
    consts = {"pi": np.pi}
    if constants:
        consts.update(constants)
    too_deep = f"expression nested too deeply ({len(source)} characters)"
    try:
        tree = ast.parse(source, mode="eval")
    except SyntaxError as exc:
        raise ExpressionError(f"cannot parse expression {source!r}: {exc}") from exc
    except (RecursionError, MemoryError):  # the parser's limits on nesting
        raise ExpressionError(too_deep) from None

    def evaluate(node, env, condition=False):  # condition: where()'s first argument
        if isinstance(node, ast.Constant):
            if isinstance(node.value, (int, float)):
                return float(node.value)
            raise ExpressionError(f"unsupported constant {node.value!r}")
        if isinstance(node, ast.Name):
            if node.id in env:
                return env[node.id]
            if node.id in consts:
                return consts[node.id]
            raise ExpressionError(f"unknown name {node.id!r} in {source!r}")
        if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
            return _BINOPS[type(node.op)](
                evaluate(node.left, env), evaluate(node.right, env)
            )
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
            val = evaluate(node.operand, env)
            return -val if isinstance(node.op, ast.USub) else val
        if isinstance(node, ast.Compare):
            if not condition:
                raise ExpressionError(
                    f"a comparison is allowed only as the condition of where() in {source!r}"
                )
            if len(node.ops) != 1 or type(node.ops[0]) not in _COMPARES:
                raise ExpressionError(f"unsupported comparison in {source!r}")
            return _COMPARES[type(node.ops[0])](
                evaluate(node.left, env), evaluate(node.comparators[0], env)
            )
        if isinstance(node, ast.Call):
            if not isinstance(node.func, ast.Name) or node.keywords:
                raise ExpressionError(f"unsupported call in {source!r}")
            name = node.func.id
            args = [evaluate(a, env, condition=name == "where" and k == 0)
                    for k, a in enumerate(node.args)]
            if name == "where":
                if len(args) != 3 or not isinstance(node.args[0], ast.Compare):
                    raise ExpressionError(
                        f"where() takes a comparison and two expressions in {source!r}"
                    )
                return np.where(*args)
            if name in _FUNCTIONS and len(args) == 1:
                return _FUNCTIONS[name](args[0])
            raise ExpressionError(f"unknown function {name!r} in {source!r}")
        raise ExpressionError(
            f"unsupported syntax {type(node).__name__} in {source!r}"
        )

    def fn(x, y):
        try:
            return evaluate(tree.body, {"x": np.asarray(x), "y": np.asarray(y)})
        except RecursionError:
            raise ExpressionError(too_deep) from None

    return fn
