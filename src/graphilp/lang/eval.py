"""Generation-time evaluation of variable-free expressions against a graph.

`compile_expr` turns an expression into a closure `f(env, graph)` once, so
evaluating it does no dispatch on the tree (Feeley & Lapalme, *Using
closures for code generation*, Computer Languages, 1987). Environment
values are numbers, booleans, strings, the graph's own `model.Node`s, or
`model.Match`es; `m.nodes().X` is one lookup in the match's binding.
Operands are evaluated left to right, `&` and `|` short-circuit, and an
operand's type is checked before the next one is evaluated (a relation
evaluates both sides first). Mapping sums never reach the evaluator; the
encoder lowers them first.
"""

from __future__ import annotations

import functools
import math
import operator

from ..model import Match, Node
from .ast import (AttrRef, Binary, BoolLit, Name, NodesNav, Num, Rel, SelfRef,
                  SetSum, StrLit, Unary)


class EvalError(Exception):
    pass


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
    # nodes are equal by id alone (dataclass equality would compare attrs too)
    if isinstance(a, Node) and isinstance(b, Node):
        return a.id == b.id
    if isinstance(a, Match) and isinstance(b, Match):
        return a == b
    if isinstance(a, bool) or isinstance(b, bool):
        return a is b if isinstance(a, bool) and isinstance(b, bool) else False
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return a == b
    if isinstance(a, str) and isinstance(b, str):
        return a == b
    raise EvalError("cannot compare values of different kinds")


def _ordering(test):
    def relation(left, right):
        return test(_require_number(left, "comparison operand"),
                    _require_number(right, "comparison operand"))
    return relation


_RELATIONS = {"==": values_equal,
              "!=": lambda left, right: not values_equal(left, right),
              "<": _ordering(operator.lt), "<=": _ordering(operator.le),
              ">=": _ordering(operator.ge), ">": _ordering(operator.gt)}


def compare(op: str, left, right) -> bool:
    """`left <op> right` for the six relation operators: `==` and `!=` on two
    values of one kind, the orderings on numbers only."""
    return _RELATIONS[op](left, right)


_ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul}


# --- compilation ----------------------------------------------------------------

def compile_expr(e):
    """Compile `e` into a closure `f(env, graph)` that evaluates it.

    Compiling a node of a kind the evaluator does not know gives a closure
    that raises EvalError when it runs.
    """
    compiler = _COMPILERS.get(type(e))
    if compiler is None:
        return _failing(f"cannot evaluate {type(e).__name__}")
    return compiler(e)


def _failing(message: str):
    def run(env, graph):
        raise EvalError(message)
    return run


def _literal(e):
    value = e.value
    return lambda env, graph: value


def _lookup(name: str, missing: str):
    def run(env, graph):
        try:
            return env[name]
        except KeyError:
            raise EvalError(missing) from None
    return run


def _name(e):
    return _lookup(e.id, f"unbound name {e.id!r}")


def _self_ref(e):
    return _lookup("self", "'self' is not bound here")


def _nodes_nav(e):
    base, node = compile_expr(e.base), e.node
    missing = f"match has no pattern node {node!r}"

    def run(env, graph):
        match = base(env, graph)
        if not isinstance(match, Match):
            raise EvalError("nodes() applies to a match")
        gid = match.binding.get(node)
        if gid is None:
            raise EvalError(missing)
        try:
            return graph.nodes[gid]
        except KeyError:
            raise EvalError(f"node {gid!r} not in graph") from None
    return run


def _attr_ref(e):
    base, attr = compile_expr(e.base), e.attr
    non_node = f"attribute {attr!r} read on a non-node value"

    def run(env, graph):
        node = base(env, graph)
        if not isinstance(node, Node):
            raise EvalError(non_node)
        try:
            return node.attrs[attr]
        except KeyError:
            raise EvalError(f"node {node.id!r} has no attribute {attr!r}") from None
    return run


def _unary(e):
    operand, op = compile_expr(e.operand), e.op
    if op == "!":
        def run(env, graph):
            v = operand(env, graph)
            if v is True or v is False:
                return not v
            raise EvalError("'!' applies to a boolean")
        return run
    if op == "-":
        apply, what = operator.neg, "negation operand"
    else:
        apply, what = functools.partial(apply_function, op), f"{op} argument"

    def run(env, graph):
        return apply(_require_number(operand(env, graph), what))
    return run


def _binary(e):
    left, right, op = compile_expr(e.left), compile_expr(e.right), e.op
    if op in ("&", "|"):
        stop = op == "|"  # the left value that decides the result alone
        go_on = not stop
        not_boolean = f"{op!r} applies to booleans"

        def run(env, graph):
            v = left(env, graph)
            if v is stop:
                return stop
            if v is not go_on:
                raise EvalError(not_boolean)
            v = right(env, graph)
            if v is True or v is False:
                return v
            raise EvalError(not_boolean)
        return run
    apply = _ARITHMETIC.get(op)  # None: division
    overflow = f"{op!r} overflows the float range"

    def run(env, graph):
        a = _require_number(left(env, graph), "left operand")
        b = _require_number(right(env, graph), "right operand")
        try:
            if apply is not None:
                return apply(a, b)
            if b == 0:
                raise EvalError("division by zero")
            return a / b
        except OverflowError:  # an int operand or quotient beyond the float range
            raise EvalError(overflow) from None
    return run


def _rel(e):
    left, right = compile_expr(e.left), compile_expr(e.right)
    relation = _RELATIONS[e.op]
    return lambda env, graph: relation(left(env, graph), right(env, graph))


_COMPILERS = {Num: _literal, BoolLit: _literal, StrLit: _literal, Name: _name,
              SelfRef: _self_ref, NodesNav: _nodes_nav, AttrRef: _attr_ref,
              Unary: _unary, Binary: _binary, Rel: _rel,
              SetSum: lambda e: _failing("mapping sums cannot be evaluated directly")}
