"""Canonical printer for specification ASTs, for the parser's round-trip tests.

`parse(pretty(spec))` reproduces the AST structurally.
"""

from __future__ import annotations

from graphilp.lang.ast import (AttrRef, Binary, BoolLit, CreateEdgeAction, CreateNodeAction,
                               DeleteEdgeAction, DeleteNodeAction, Name, NodesNav, Num, Rel,
                               SelfRef, SetSum, SpecAst, StrLit, Unary)
from graphilp.lang.lexer import quote
from graphilp.lang.parser import _LEVELS, _REL_LEVEL, _TIGHTEST
from graphilp.pattern import Rule

_UNARY_PREC = _TIGHTEST + 1


def pretty_expr(e, parent_prec: int = 0) -> str:
    if isinstance(e, Num):
        return repr(e.value)
    if isinstance(e, BoolLit):
        return "true" if e.value else "false"
    if isinstance(e, StrLit):
        return quote(e.value)
    if isinstance(e, Name):
        return e.id
    if isinstance(e, SelfRef):
        return "self"
    if isinstance(e, NodesNav):
        return f"{pretty_expr(e.base, _UNARY_PREC + 1)}.nodes().{e.node}"
    if isinstance(e, AttrRef):
        return f"{pretty_expr(e.base, _UNARY_PREC + 1)}.{e.attr}"
    if isinstance(e, SetSum):
        parts = [f"mappings.{e.mapping}"]
        if e.filter_var is not None:
            parts.append(f"->filter({e.filter_var} | {pretty_expr(e.filter_pred)})")
        parts.append(f"->sum({e.sum_var} | {pretty_expr(e.sum_body)})")
        return "".join(parts)
    if isinstance(e, Unary):
        if e.op in ("sin", "cos", "sqrt"):
            return f"{e.op}({pretty_expr(e.operand)})"
        inner = pretty_expr(e.operand, _UNARY_PREC)
        return f"{e.op}{inner}"
    if isinstance(e, Rel):
        text = (f"{pretty_expr(e.left, _REL_LEVEL + 1)} {e.op} "
                f"{pretty_expr(e.right, _REL_LEVEL + 1)}")
        return f"({text})" if parent_prec > _REL_LEVEL else text
    if isinstance(e, Binary):
        prec = _LEVELS[e.op]
        text = (f"{pretty_expr(e.left, prec)} {e.op} "
                f"{pretty_expr(e.right, prec + 1)}")
        return f"({text})" if parent_prec > prec else text
    raise TypeError(f"cannot print {e!r}")


def _pretty_action(a) -> str:
    if isinstance(a, CreateEdgeAction):
        return f"create edge {a.edge_type}({a.src} -> {a.tgt})"
    if isinstance(a, CreateNodeAction):
        inits = "  ".join(f"{name} := {pretty_expr(expr)}" for name, expr in a.attr_inits)
        return f"create node {a.name}: {a.type} {{ {inits} }}"
    if isinstance(a, DeleteEdgeAction):
        return f"delete edge {a.name}"
    if isinstance(a, DeleteNodeAction):
        return f"delete node {a.name}"
    return f"set {a.node}.{a.attr} := {pretty_expr(a.value)}"


def _pretty_rule(r: Rule) -> str:
    lines = [f"rule {r.name} {{"]
    lhs = r.lhs
    if lhs.nodes:
        lines.append("  nodes {")
        for n in lhs.nodes:
            lines.append(f"    {n.name}: {n.type}")
        lines.append("  }")
    if lhs.edges:
        lines.append("  edges {")
        for e in lhs.edges:
            lines.append(f"    {e.name}: {e.type}({e.src} -> {e.tgt})")
        lines.append("  }")
    if lhs.condition is not None:
        lines.append(f"  condition {{ {pretty_expr(lhs.condition)} }}")
    if r.actions:
        lines.append("  actions {")
        for a in r.actions:
            lines.append(f"    {_pretty_action(a)}")
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines)


def pretty(spec: SpecAst) -> str:
    """Print a specification in canonical form."""
    chunks = [_pretty_rule(r) for r in spec.rules]
    for m in spec.mappings:
        chunks.append(f"mapping {m.name} with {m.rule};")
    for c in spec.constraints:
        chunks.append(f"constraint -> {c.context_kind}::{c.context_target} {{\n"
                      f"  {pretty_expr(c.body)}\n}}")
    for o in spec.objectives:
        chunks.append(f"objective {o.name} -> {o.context_kind}::{o.context_target} {{\n"
                      f"  {pretty_expr(o.body)}\n}}")
    g = spec.global_objective
    chunks.append(f"global objective : {g.sense} {{\n  {pretty_expr(g.expr)}\n}}")
    return "\n\n".join(chunks) + "\n"
