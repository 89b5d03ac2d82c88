"""Generation-time evaluation of variable-free expressions against a graph.

Environment values are numbers, booleans, strings, `NodeRef`s, or match-like
objects (anything exposing `.rule` and `.binding`). Mapping sums never reach
the evaluator; the encoder lowers them first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .ast import (AttrRef, Binary, BoolLit, Name, NodesNav, Num, Rel, SelfRef,
                  SetSum, StrLit, Unary)


class EvalError(Exception):
    pass


@dataclass(frozen=True)
class NodeRef:
    id: str


def _is_match(v) -> bool:
    return hasattr(v, "rule") and hasattr(v, "binding")


def _require_number(v, what: str):
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise EvalError(f"{what} is not a number")
    return v


_FUNCTIONS = {"sin": math.sin, "cos": math.cos, "sqrt": math.sqrt}


def apply_function(name: str, x):
    """`sin`, `cos` or `sqrt` of a number; EvalError where it is undefined
    (sqrt of a negative value, sin or cos of an infinity)."""
    try:
        return _FUNCTIONS[name](x)
    except (ValueError, OverflowError):
        raise EvalError(f"{name} of {x!r} is undefined") from None


def values_equal(a, b) -> bool:
    if isinstance(a, NodeRef) and isinstance(b, NodeRef):
        return a.id == b.id
    if _is_match(a) and _is_match(b):
        return a.rule == b.rule and dict(a.binding) == dict(b.binding)
    if isinstance(a, bool) or isinstance(b, bool):
        return a is b if isinstance(a, bool) and isinstance(b, bool) else False
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return a == b
    if isinstance(a, str) and isinstance(b, str):
        return a == b
    raise EvalError("cannot compare values of different kinds")


def compare(op: str, left, right) -> bool:
    """`left <op> right` for the six relation operators: `==` and `!=` on two
    values of one kind, the orderings on numbers only."""
    if op == "==":
        return values_equal(left, right)
    if op == "!=":
        return not values_equal(left, right)
    left = _require_number(left, "comparison operand")
    right = _require_number(right, "comparison operand")
    if op == "<":
        return left < right
    if op == "<=":
        return left <= right
    if op == ">=":
        return left >= right
    return left > right


def eval_expr(e, env: dict, graph):
    """Evaluate `e` under `env` reading attributes from `graph`."""
    if isinstance(e, Num):
        return e.value
    if isinstance(e, BoolLit):
        return e.value
    if isinstance(e, StrLit):
        return e.value
    if isinstance(e, Name):
        try:
            return env[e.id]
        except KeyError:
            raise EvalError(f"unbound name {e.id!r}") from None
    if isinstance(e, SelfRef):
        try:
            return env["self"]
        except KeyError:
            raise EvalError("'self' is not bound here") from None
    if isinstance(e, NodesNav):
        base = eval_expr(e.base, env, graph)
        if not _is_match(base):
            raise EvalError("nodes() applies to a match")
        binding = dict(base.binding)
        if e.node not in binding:
            raise EvalError(f"match has no pattern node {e.node!r}")
        return NodeRef(binding[e.node])
    if isinstance(e, AttrRef):
        base = eval_expr(e.base, env, graph)
        if not isinstance(base, NodeRef):
            raise EvalError(f"attribute {e.attr!r} read on a non-node value")
        node = graph.nodes.get(base.id)
        if node is None:
            raise EvalError(f"node {base.id!r} not in graph")
        if e.attr not in node.attrs:
            raise EvalError(f"node {base.id!r} has no attribute {e.attr!r}")
        return node.attrs[e.attr]
    if isinstance(e, Unary):
        if e.op == "!":
            v = eval_expr(e.operand, env, graph)
            if not isinstance(v, bool):
                raise EvalError("'!' applies to a boolean")
            return not v
        v = eval_expr(e.operand, env, graph)
        if e.op == "-":
            return -_require_number(v, "negation operand")
        return apply_function(e.op, _require_number(v, f"{e.op} argument"))
    if isinstance(e, Binary):
        if e.op in ("&", "|"):
            left = eval_expr(e.left, env, graph)
            if not isinstance(left, bool):
                raise EvalError(f"{e.op!r} applies to booleans")
            if e.op == "&" and not left:
                return False
            if e.op == "|" and left:
                return True
            right = eval_expr(e.right, env, graph)
            if not isinstance(right, bool):
                raise EvalError(f"{e.op!r} applies to booleans")
            return right
        left = _require_number(eval_expr(e.left, env, graph), "left operand")
        right = _require_number(eval_expr(e.right, env, graph), "right operand")
        if e.op == "+":
            return left + right
        if e.op == "-":
            return left - right
        if e.op == "*":
            return left * right
        if right == 0:
            raise EvalError("division by zero")
        return left / right
    if isinstance(e, Rel):
        return compare(e.op, eval_expr(e.left, env, graph),
                       eval_expr(e.right, env, graph))
    if isinstance(e, SetSum):
        raise EvalError("mapping sums cannot be evaluated directly")
    raise EvalError(f"cannot evaluate {type(e).__name__}")
