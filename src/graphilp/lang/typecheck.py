"""Semantic checks for parsed specifications.

Resolves every attribute access against the metamodel, binds `self` per
context, checks each rule's pattern and actions, and verifies that constraint
bodies are boolean and objective bodies are linear in the mapping variables.
The checked spec holds the parser's own objects: the rules are the parsed
`pattern.Rule`s. All diagnostics carry a source location; every problem found
in one pass is reported together, each once: an expression already reported
gets the type `ERROR`, which every later check accepts silently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..model import Metamodel
from ..pattern import Rule
from . import ast as A
from .eval import _FUNCTIONS, EvalError, apply_function

NUMERIC = ("int", "real")
_KIND_NAMES = {"node": "a node", "match": "a match", "int": "a number",
               "real": "a number", "bool": "a boolean", "string": "a string"}


@dataclass(frozen=True)
class Diagnostic:
    line: int
    col: int
    message: str

    def __str__(self):
        return f"{self.line}:{self.col}: {self.message}"


class TypecheckError(Exception):
    def __init__(self, diagnostics: list[Diagnostic]):
        super().__init__("; ".join(str(d) for d in diagnostics))
        self.diagnostics = diagnostics


@dataclass(frozen=True)
class Ty:
    # 'int', 'real', 'bool', 'string', 'node', 'match', 'error', or 'deleted'
    # (a pattern node after the action that deletes it)
    kind: str
    of: str | None = None  # node type for 'node' and 'deleted', rule name for 'match'
    varbearing: bool = False  # term contains mapping variables

    def numeric(self) -> bool:
        return self.kind in NUMERIC


ERROR = Ty("error")  # the type of an expression already reported


def _mismatch(a: str, b: str) -> str:
    """'cannot compare a node with a number', the same for either operand order."""
    first, second = sorted((a, b), key=list(_KIND_NAMES).index)
    return f"cannot compare {_KIND_NAMES[first]} with {_KIND_NAMES[second]}"


def _after_delete(name: str) -> str:
    return f"node {name!r} is used after an action deletes it"


def _promote(a: str, b: str) -> str:
    return "int" if a == "int" and b == "int" else "real"


@dataclass(frozen=True)
class GlobalObjective:
    sense: str
    weights: dict[str, float]
    constant: float


@dataclass
class TypedSpec:
    mm: Metamodel
    rules: dict[str, Rule]
    mappings: list[A.MappingDecl]
    constraints: list[A.ConstraintDecl]
    objectives: list[A.ObjectiveDecl]
    global_objective: GlobalObjective
    warnings: list[Diagnostic] = field(default_factory=list)

    def mapping(self, name: str) -> A.MappingDecl:
        return next(m for m in self.mappings if m.name == name)

    def rule_of_mapping(self, name: str) -> Rule:
        return self.rules[self.mapping(name).rule]


class _Checker:
    def __init__(self, mm: Metamodel):
        self.mm = mm
        self.diags: list[Diagnostic] = []
        self.warnings: list[Diagnostic] = []
        self.rules: dict[str, Rule] = {}
        # rule -> {pattern node: type} of the nodes the check accepted
        self.node_types: dict[str, dict[str, str]] = {}
        self.mappings: dict[str, A.MappingDecl] = {}

    def error(self, pos: A.Pos, message: str) -> Ty:
        self.diags.append(Diagnostic(pos.line, pos.col, message))
        return ERROR

    # -- rules -----------------------------------------------------------------

    def check_rule(self, rule: Rule):
        if rule.name in self.rules:
            self.error(rule.pos, f"duplicate rule {rule.name!r}")
            return
        node_types: dict[str, str] = {}
        for n in rule.lhs.nodes:
            if n.name in node_types:
                self.error(n.pos, f"duplicate pattern node {n.name!r}")
            elif n.type not in self.mm.node_types:
                self.error(n.pos, f"unknown node type {n.type!r}")
            else:
                node_types[n.name] = n.type
        edge_names = set()
        for e in rule.lhs.edges:
            if e.name in edge_names:
                self.error(e.pos, f"duplicate pattern edge {e.name!r}")
                continue
            edge_names.add(e.name)
            et = self.mm.edge_types.get(e.type)
            if et is None:
                self.error(e.pos, f"unknown edge type {e.type!r}")
                continue
            for endpoint, declared in ((e.src, et.source_type), (e.tgt, et.target_type)):
                if endpoint not in node_types:
                    self.error(e.pos, f"edge {e.name!r} references undeclared node "
                                      f"{endpoint!r}")
                elif not (self.mm.conforms(node_types[endpoint], declared)
                          or self.mm.conforms(declared, node_types[endpoint])):
                    self.error(e.pos, f"edge {e.name!r}: node {endpoint!r} of type "
                                      f"{node_types[endpoint]!r} can never conform to "
                                      f"{declared!r}")
        scope = {name: Ty("node", t) for name, t in node_types.items()}
        if rule.lhs.condition is not None:
            ty = self.expr(rule.lhs.condition, scope, allow_sets=False)
            if ty is not ERROR and ty.kind != "bool":
                self.error(rule.pos, f"rule {rule.name!r}: condition must be boolean")
        self.check_actions(rule, node_types, dict(scope))
        self.rules[rule.name] = rule
        self.node_types[rule.name] = node_types

    def check_actions(self, rule: Rule, node_types: dict[str, str],
                      scope: dict[str, Ty]):
        lhs_nodes = set(node_types)
        lhs_edges = {e.name for e in rule.lhs.edges}
        deleted_edges = set()
        for action in rule.actions:
            if isinstance(action, A.CreateNodeAction):
                if action.type not in self.mm.node_types:
                    self.error(action.pos, f"unknown node type {action.type!r}")
                    continue
                if action.name in scope:
                    self.error(action.pos, f"node name {action.name!r} already in use")
                declared = self.mm.attrs_of(action.type)
                given = {}
                for attr, expr in action.attr_inits:
                    if attr not in declared:
                        self.error(action.pos,
                                   f"{action.type!r} has no attribute {attr!r}")
                        continue
                    given[attr] = self.expr(expr, scope, allow_sets=False)
                for attr, kind in declared.items():
                    if attr not in given:
                        self.error(action.pos,
                                   f"created node {action.name!r} misses attribute "
                                   f"{attr!r}")
                    else:
                        self._check_assignable(given[attr], kind, action.pos, attr)
                scope[action.name] = Ty("node", action.type)
            elif isinstance(action, A.CreateEdgeAction):
                et = self.mm.edge_types.get(action.edge_type)
                if et is None:
                    self.error(action.pos, f"unknown edge type {action.edge_type!r}")
                    continue
                for endpoint, declared in ((action.src, et.source_type),
                                           (action.tgt, et.target_type)):
                    ty = scope.get(endpoint)
                    if ty is not None and ty.kind == "deleted":
                        self.error(action.pos, _after_delete(endpoint))
                    elif ty is None or ty.kind != "node":
                        self.error(action.pos, f"unknown node {endpoint!r} in action")
                    elif not self.mm.conforms(ty.of, declared):
                        self.error(action.pos,
                                   f"node {endpoint!r} of type {ty.of!r} does not "
                                   f"conform to {declared!r}")
            elif isinstance(action, A.DeleteEdgeAction):
                if action.name not in lhs_edges:
                    self.error(action.pos, f"no LHS edge named {action.name!r}")
                elif action.name in deleted_edges:
                    self.error(action.pos, f"edge {action.name!r} is deleted twice")
                deleted_edges.add(action.name)
            elif isinstance(action, A.DeleteNodeAction):
                if action.name not in lhs_nodes:
                    self.error(action.pos, f"no LHS node named {action.name!r}")
                elif scope[action.name].kind == "deleted":
                    self.error(action.pos, _after_delete(action.name))
                else:
                    scope[action.name] = Ty("deleted", scope[action.name].of)
            elif isinstance(action, A.SetAttrAction):
                ty = scope.get(action.node)
                if ty is not None and ty.kind == "deleted":
                    self.error(action.pos, _after_delete(action.node))
                    continue
                if ty is None or ty.kind != "node":
                    self.error(action.pos, f"unknown node {action.node!r} in action")
                    continue
                kind = self.mm.attrs_of(ty.of).get(action.attr)
                if kind is None:
                    self.error(action.pos,
                               f"{ty.of!r} has no attribute {action.attr!r}")
                    continue
                value_ty = self.expr(action.value, scope, allow_sets=False)
                self._check_assignable(value_ty, kind, action.pos, action.attr)

    def _check_assignable(self, ty: Ty, kind: str, pos: A.Pos, attr: str):
        if ty is ERROR:
            return
        if kind in NUMERIC:
            if not ty.numeric():
                self.error(pos, f"attribute {attr!r} expects a number")
            elif kind == "int" and ty.kind == "real":
                self.error(pos, f"attribute {attr!r} is int but value is real")
        elif ty.kind != kind:
            self.error(pos, f"attribute {attr!r} expects {kind}")

    # -- expressions -------------------------------------------------------------

    def expr(self, e, scope: dict[str, Ty], allow_sets: bool) -> Ty:
        if isinstance(e, A.Num):
            return Ty("int" if isinstance(e.value, int) else "real")
        if isinstance(e, A.BoolLit):
            return Ty("bool")
        if isinstance(e, A.StrLit):
            return Ty("string")
        if isinstance(e, A.Name):
            ty = scope.get(e.id)
            if ty is None:
                return self.error(e.pos, f"unknown name {e.id!r}")
            if ty.kind == "deleted":
                return self.error(e.pos, _after_delete(e.id))
            return ty
        if isinstance(e, A.SelfRef):
            ty = scope.get("self")
            if ty is None:
                return self.error(e.pos, "'self' is not available here")
            return ty
        if isinstance(e, A.NodesNav):
            base = self.expr(e.base, scope, allow_sets)
            if base is ERROR:
                return ERROR
            if base.kind == "node":
                return self.error(e.pos, "nodes() cannot be used in a class context")
            if base.kind != "match":
                return self.error(e.pos, "nodes() applies to a match")
            node_types = self.node_types[base.of]
            if e.node not in node_types:
                return self.error(e.pos, f"rule {base.of!r} has no pattern node "
                                         f"{e.node!r}")
            return Ty("node", node_types[e.node])
        if isinstance(e, A.AttrRef):
            base = self.expr(e.base, scope, allow_sets)
            if base is ERROR:
                return ERROR
            if base.kind == "match":
                return self.error(e.pos, "select a node with nodes() before reading "
                                         "an attribute")
            if base.kind != "node":
                return self.error(e.pos, f"attribute {e.attr!r} read on a non-node "
                                         f"value")
            kind = self.mm.attrs_of(base.of).get(e.attr)
            if kind is None:
                return self.error(e.pos, f"type {base.of!r} has no attribute "
                                         f"{e.attr!r}")
            return Ty(kind)
        if isinstance(e, A.Unary):
            ty = self.expr(e.operand, scope, allow_sets)
            if ty is ERROR:
                return ERROR
            if e.op == "!":
                if ty.kind != "bool":
                    return self.error(e.pos, "'!' applies to a boolean")
                return ty
            if not ty.numeric():
                return self.error(e.pos, f"{e.op!r} applies to a number")
            if e.op == "-":
                return ty
            if ty.varbearing:
                return self.error(e.pos, f"{e.op} requires a constant subexpression")
            return Ty("real")
        if isinstance(e, A.Binary):
            lt = self.expr(e.left, scope, allow_sets)
            rt = self.expr(e.right, scope, allow_sets)
            if lt is ERROR or rt is ERROR:
                return ERROR
            if e.op in ("&", "|"):
                if lt.kind != "bool" or rt.kind != "bool":
                    return self.error(e.pos, f"{e.op!r} applies to booleans")
                return Ty("bool", varbearing=lt.varbearing or rt.varbearing)
            if not lt.numeric() or not rt.numeric():
                return self.error(e.pos, f"{e.op!r} applies to numbers")
            if e.op == "*" and lt.varbearing and rt.varbearing:
                return self.error(e.pos, "nonlinear term: variable * variable")
            if e.op == "/":
                if rt.varbearing:
                    return self.error(e.pos, "division by a mapping-variable term")
                return Ty("real", varbearing=lt.varbearing)
            return Ty(_promote(lt.kind, rt.kind),
                      varbearing=lt.varbearing or rt.varbearing)
        if isinstance(e, A.Rel):
            lt = self.expr(e.left, scope, allow_sets)
            rt = self.expr(e.right, scope, allow_sets)
            if lt is ERROR or rt is ERROR:
                return ERROR
            if lt.kind in ("node", "match") or rt.kind in ("node", "match"):
                if e.op not in ("==", "!="):
                    return self.error(e.pos, f"{e.op!r} does not apply to graph elements")
                if lt.kind != rt.kind:
                    return self.error(e.pos, _mismatch(lt.kind, rt.kind))
                return Ty("bool")
            if lt.kind in ("bool", "string") or rt.kind in ("bool", "string"):
                if e.op not in ("==", "!="):
                    return self.error(e.pos, f"{e.op!r} applies to numbers")
                if lt.kind != rt.kind:
                    return self.error(e.pos, _mismatch(lt.kind, rt.kind))
                if lt.varbearing or rt.varbearing:
                    return self.error(e.pos, "comparison operands must not "
                                             "involve mapping variables")
            return Ty("bool", varbearing=lt.varbearing or rt.varbearing)
        # a mapping sum, the one expression left
        if not allow_sets:
            return self.error(e.pos, "mapping sums are not allowed here")
        mapping = self.mappings.get(e.mapping)
        if mapping is None:
            return self.error(e.pos, f"unknown mapping {e.mapping!r}")
        match_ty = Ty("match", mapping.rule)
        if e.filter_pred is not None:
            inner = dict(scope)
            inner[e.filter_var] = match_ty
            pt = self.expr(e.filter_pred, inner, allow_sets=False)
            if pt is not ERROR and pt.kind != "bool":
                self.error(e.pos, "filter predicate must be boolean")
        inner = dict(scope)
        inner[e.sum_var] = match_ty
        bt = self.expr(e.sum_body, inner, allow_sets=False)
        if bt is not ERROR and not bt.numeric():
            self.error(e.pos, "sum body must be numeric")
        return Ty(bt.kind if bt.numeric() else "real", varbearing=True)

    # -- declarations ------------------------------------------------------------

    def context_scope(self, kind: str, target: str, pos: A.Pos) -> dict[str, Ty] | None:
        if kind == "class":
            if target not in self.mm.node_types:
                self.error(pos, f"unknown node type {target!r}")
                return None
            return {"self": Ty("node", target)}
        if kind == "mapping":
            mapping = self.mappings.get(target)
            if mapping is None:
                self.error(pos, f"unknown mapping {target!r}")
                return None
            return {"self": Ty("match", mapping.rule)}
        if target not in self.rules:
            self.error(pos, f"unknown rule {target!r}")
            return None
        return {"self": Ty("match", target)}

    def fold_global(self, e, objective_names: set[str]) -> tuple[dict[str, float], float]:
        """Fold the global objective into per-objective weights plus a constant."""
        if isinstance(e, A.Num):
            try:
                return {}, float(e.value)
            except OverflowError:  # an int beyond the float range
                self.error(e.pos, "number overflows the float range in global objective")
                return {}, 0.0
        if isinstance(e, A.Name):
            if e.id not in objective_names:
                self.error(e.pos, f"unknown objective {e.id!r}")
                return {}, 0.0
            return {e.id: 1.0}, 0.0
        if isinstance(e, A.Unary) and e.op == "-":
            w, c = self.fold_global(e.operand, objective_names)
            return {k: -v for k, v in w.items()}, -c
        if isinstance(e, A.Unary) and e.op in _FUNCTIONS:
            w, c = self.fold_global(e.operand, objective_names)
            if w:
                self.error(e.pos, f"{e.op} requires a constant subexpression")
                return {}, 0.0
            try:
                return {}, apply_function(e.op, c)
            except EvalError as exc:
                self.error(e.pos, f"{exc} in global objective")
                return {}, 0.0
        if isinstance(e, A.Binary) and e.op in ("+", "-", "*", "/"):
            lw, lc = self.fold_global(e.left, objective_names)
            rw, rc = self.fold_global(e.right, objective_names)
            if e.op in ("+", "-"):
                sign = 1.0 if e.op == "+" else -1.0
                out = dict(lw)
                for k, v in rw.items():
                    out[k] = out.get(k, 0.0) + sign * v
                return out, lc + sign * rc
            if rw and (lw or e.op == "/"):
                self.error(e.pos, "objective weight is not constant")
                return {}, 0.0
            if e.op == "/" and rc == 0:
                self.error(e.pos, "division by zero in global objective")
                return {}, 0.0
            if rw:  # a constant times weights: scale the weights
                lw, lc, rw, rc = rw, rc, lw, lc
            if e.op == "*":
                return {k: v * rc for k, v in lw.items()}, lc * rc
            return {k: v / rc for k, v in lw.items()}, lc / rc
        self.error(getattr(e, "pos", A.Pos()),
                   "global objective combines objective names with constant weights")
        return {}, 0.0


def typecheck(spec: A.SpecAst, mm: Metamodel) -> TypedSpec:
    """Validate a parsed spec against `mm`; raises TypecheckError with all
    diagnostics found."""
    ck = _Checker(mm)
    for rule in spec.rules:
        ck.check_rule(rule)
    for md in spec.mappings:
        if md.name in ck.mappings:
            ck.error(md.pos, f"duplicate mapping {md.name!r}")
            continue
        if md.rule not in ck.rules:
            ck.error(md.pos, f"mapping {md.name!r} references unknown rule "
                             f"{md.rule!r}")
            continue
        ck.mappings[md.name] = md
    constraints = []
    for cd in spec.constraints:
        scope = ck.context_scope(cd.context_kind, cd.context_target, cd.pos)
        if scope is None:
            continue
        ty = ck.expr(cd.body, scope, allow_sets=True)
        if ty is not ERROR and ty.kind != "bool":
            ck.error(cd.pos, "constraint body must be boolean")
        constraints.append(cd)
    objectives = []
    names_seen = set()
    for od in spec.objectives:
        if od.name in names_seen:
            ck.error(od.pos, f"duplicate objective {od.name!r}")
            continue
        names_seen.add(od.name)
        scope = ck.context_scope(od.context_kind, od.context_target, od.pos)
        if scope is None:
            continue
        ty = ck.expr(od.body, scope, allow_sets=True)
        if ty is not ERROR and not ty.numeric():
            ck.error(od.pos, "objective body must be numeric")
        if od.context_kind == "mapping" and ty.varbearing:
            ck.error(od.pos, "a mapping-context objective gives the coefficient of "
                             "the match variable; it cannot contain mapping sums")
        if od.context_kind in ("class", "pattern") and not ty.varbearing:
            ck.warnings.append(Diagnostic(
                od.pos.line, od.pos.col,
                f"objective {od.name!r} contributes only generation-time constants "
                f"(a {od.context_kind} context carries no decision variable)"))
        objectives.append(od)
    weights, constant = ck.fold_global(spec.global_objective.expr,
                                       {o.name for o in objectives})
    if not all(map(math.isfinite, (constant, *weights.values()))):
        ck.error(spec.global_objective.pos, "global objective folds to a non-finite "
                                            "weight or constant")
    if ck.diags:
        raise TypecheckError(ck.diags)
    return TypedSpec(mm, ck.rules, list(ck.mappings.values()), constraints,
                     objectives, GlobalObjective(spec.global_objective.sense,
                                                 weights, constant),
                     warnings=ck.warnings)
