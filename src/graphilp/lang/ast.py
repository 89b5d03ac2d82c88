"""AST for the specification language: expressions, rule actions and the
declarations other than rules. A rule is a `pattern.Rule`, which the parser
builds directly and the typechecker checks in place.

Nodes are plain slotted dataclasses, neither frozen nor hashable: the parser
builds them and no later stage writes to one. Position fields never take part
in equality or repr, so structural comparison (and the tests' parse/print
round trip) ignores source locations.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field


@dataclass(slots=True)
class Pos:
    line: int = 0
    col: int = 0


def pos_field():
    return field(default_factory=Pos, compare=False, repr=False)


# --- expressions --------------------------------------------------------------

@dataclass(slots=True)
class Expr:
    pass


def children(e: Expr) -> Iterator[Expr]:
    """The subexpressions `e` holds directly, in field order."""
    for name in e.__slots__:
        value = getattr(e, name)
        if isinstance(value, Expr):
            yield value


@dataclass(slots=True)
class Num(Expr):
    value: object  # int or float
    pos: Pos = pos_field()


@dataclass(slots=True)
class BoolLit(Expr):
    value: bool
    pos: Pos = pos_field()


@dataclass(slots=True)
class StrLit(Expr):
    value: str
    pos: Pos = pos_field()


@dataclass(slots=True)
class Name(Expr):
    """A bare identifier: pattern node, lambda variable, or objective reference."""
    id: str
    pos: Pos = pos_field()


@dataclass(slots=True)
class SelfRef(Expr):
    pos: Pos = pos_field()


@dataclass(slots=True)
class NodesNav(Expr):
    """`base.nodes().node` - select a bound pattern node from a match."""
    base: Expr
    node: str
    pos: Pos = pos_field()


@dataclass(slots=True)
class AttrRef(Expr):
    """`base.attr` - read an attribute of a node-valued expression."""
    base: Expr
    attr: str
    pos: Pos = pos_field()


@dataclass(slots=True)
class Unary(Expr):
    op: str  # '!', '-', 'sin', 'cos', 'sqrt'
    operand: Expr
    pos: Pos = pos_field()


@dataclass(slots=True)
class Binary(Expr):
    op: str  # '+', '-', '*', '/', '&', '|'
    left: Expr
    right: Expr
    pos: Pos = pos_field()


@dataclass(slots=True)
class Rel(Expr):
    op: str  # '<', '<=', '==', '!=', '>=', '>'
    left: Expr
    right: Expr
    pos: Pos = pos_field()


@dataclass(slots=True)
class SetSum(Expr):
    """`mappings.name->filter(v | pred)->sum(v | body)`; filter is optional."""
    mapping: str
    filter_var: str | None
    filter_pred: Expr | None
    sum_var: str
    sum_body: Expr
    pos: Pos = pos_field()


# --- declarations -------------------------------------------------------------

@dataclass(slots=True)
class CreateEdgeAction:
    edge_type: str
    src: str
    tgt: str
    pos: Pos = pos_field()


@dataclass(slots=True)
class CreateNodeAction:
    name: str
    type: str
    attr_inits: tuple[tuple[str, Expr], ...]
    pos: Pos = pos_field()


@dataclass(slots=True)
class DeleteEdgeAction:
    name: str  # LHS edge name
    pos: Pos = pos_field()


@dataclass(slots=True)
class DeleteNodeAction:
    name: str  # LHS node name
    pos: Pos = pos_field()


@dataclass(slots=True)
class SetAttrAction:
    node: str
    attr: str
    value: Expr
    pos: Pos = pos_field()


@dataclass(slots=True)
class MappingDecl:
    name: str
    rule: str
    pos: Pos = pos_field()


@dataclass(slots=True)
class ConstraintDecl:
    context_kind: str
    context_target: str
    body: Expr
    pos: Pos = pos_field()


@dataclass(slots=True)
class ObjectiveDecl:
    name: str
    context_kind: str
    context_target: str
    body: Expr
    pos: Pos = pos_field()


@dataclass(slots=True)
class GlobalObjectiveDecl:
    sense: str  # 'min' or 'max'
    expr: Expr
    pos: Pos = pos_field()


@dataclass(slots=True)
class SpecAst:
    rules: tuple  # of pattern.Rule, which the parser builds directly
    mappings: tuple[MappingDecl, ...]
    constraints: tuple[ConstraintDecl, ...]
    objectives: tuple[ObjectiveDecl, ...]
    global_objective: GlobalObjectiveDecl
