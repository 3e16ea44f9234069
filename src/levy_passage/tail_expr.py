"""Tiny arithmetic grammar for user-specified tail functions.

Config files describe custom jump-size tails as expressions in the variable
x with the operators + - * /, unary minus, numeric literals, parentheses,
and the two functions ln(e) and pow(b, e). Python's own parser reads the
text, with Python's precedence; a walk over its tree accepts only those
nodes and compiles them to closures that accept scalars or numpy arrays.
"""

from __future__ import annotations

import ast

import numpy as np

__all__ = ["TailExprError", "parse_tail_expr"]


class TailExprError(ValueError):
    """Raised for malformed tail expressions, with the offending position."""


# characters of numbers, operators and the names x, ln and pow
_ALPHABET = frozenset("0123456789.eE+-*/(), xlnpow")
# deepest tree accepted (CPython's own limit on nested parentheses), so
# neither the walk nor the compiled closures can exhaust the stack
_MAX_DEPTH = 200
_BINARY = {ast.Add: np.add, ast.Sub: np.subtract, ast.Mult: np.multiply,
           ast.Div: np.divide}
_CALLS = {"ln": (np.log, 1), "pow": (np.power, 2)}


def _unary(op, arg):
    return lambda x: op(arg(x))


def _binary(op, lhs, rhs):
    return lambda x: op(lhs(x), rhs(x))


def parse_tail_expr(text: str):
    """Compile an expression in x to a scalar/array callable."""
    # whitespace only separates tokens, so one line of spaces reads the same
    line = "".join(" " if c.isspace() else c for c in text)
    for i, c in enumerate(line):
        if c not in _ALPHABET:
            raise TailExprError(f"unexpected character {c!r} at position {i}")
    body = line.lstrip()
    shift = len(line) - len(body)
    try:
        tree = ast.parse(body, mode="eval").body
    except SyntaxError as exc:
        raise TailExprError(f"{exc.msg} at position "
                            f"{shift + max(exc.offset or 0, 1) - 1}") from None
    except (RecursionError, MemoryError):
        raise TailExprError(f"nesting deeper than {_MAX_DEPTH}") from None

    def build(node, depth):
        pos = shift + node.col_offset
        src = body[node.col_offset:node.end_col_offset]
        if depth > _MAX_DEPTH:
            raise TailExprError(
                f"nesting deeper than {_MAX_DEPTH} at position {pos}")
        if isinstance(node, ast.Constant):
            try:
                value = float(src)
            except ValueError:
                raise TailExprError(
                    f"bad number at position {pos}: {src!r}") from None
            return lambda x: value
        if isinstance(node, ast.Name) and node.id == "x":
            return lambda x: x
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return _unary(np.negative, build(node.operand, depth + 1))
        if isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
            return _binary(_BINARY[type(node.op)],
                           build(node.left, depth + 1),
                           build(node.right, depth + 1))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id in _CALLS and not node.keywords:
            op, arity = _CALLS[node.func.id]
            args = node.args
            # a trailing comma leaves no node, only text before the ')'
            if len(args) == arity and "," not in \
                    body[args[-1].end_col_offset:node.end_col_offset]:
                return (_unary if arity == 1 else _binary)(
                    op, *[build(a, depth + 1) for a in args])
        raise TailExprError(f"unexpected {src!r} at position {pos}")

    compiled = build(tree, 1)

    def fn(x):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            return compiled(x)

    fn.source = text
    return fn
