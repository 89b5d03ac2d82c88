"""Construction of 0/1 integer programs from a typed spec and a graph.

One binary variable per (mapping, match) pair. Constraint bodies are expanded
per context element, mapping sums are lowered to linear terms with
generation-time coefficients (filters that start with key comparisons are
served from a hash index over the matches), and the remaining Boolean
structure is put into conjunctive normal form and linearized:

* a conjunction of bare relations becomes one inequality per relation
  (the fast path, no auxiliary variables);
* every other atom gets an auxiliary binary indicator tied to the relation
  with a pair of big-M rows, and each clause becomes `sum of literals >= 1`
  with negated literals contributing `(1 - v)`.

Strict comparisons over integer-valued terms are exact (`< 0` becomes
`<= -1`); real-valued terms use a 1e-6 separation margin. See
docs/encoding.md.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .lang import ast as A
from .lang.eval import EvalError, NodeRef, compare, eval_expr
from .lang.typecheck import TypedConstraint, TypedObjective, TypedSpec
from .model import Graph, apply_delta
from .pattern import Match, apply_rule, find_matches

BINARY = "binary"
AUX_BINARY = "auxiliary-binary"

REAL_EPS = 1e-6


class GenerationError(Exception):
    pass


@dataclass(frozen=True)
class Variable:
    """A 0/1 variable: a mapping variable (BINARY) or an auxiliary indicator
    (AUX_BINARY). Programs have no other variables."""

    id: str
    kind: str = BINARY


def _clean(coeffs: dict) -> dict:
    return {v: c for v, c in coeffs.items() if c != 0}


def _require_finite(coeffs: dict, constant) -> None:
    """Every row coefficient and right-hand side, objective term and objective
    constant of a program passes this one check."""
    try:
        finite = math.isfinite(constant) and all(map(math.isfinite, coeffs.values()))
    except OverflowError:  # an int beyond the float range
        finite = False
    if not finite:
        raise GenerationError("non-finite coefficient or constant")


@dataclass(frozen=True)
class Row:
    """One linear constraint: coeffs . x  <rel>  rhs, rel in {<=, =, >=}."""

    coeffs: dict
    rel: str
    rhs: float

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _clean(self.coeffs))
        _require_finite(self.coeffs, self.rhs)


@dataclass(frozen=True)
class ObjectiveFunc:
    sense: str  # 'min' or 'max'
    terms: dict
    constant: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "terms", _clean(self.terms))
        _require_finite(self.terms, self.constant)


@dataclass
class IlpProblem:
    variables: list[Variable]
    constraints: list[Row]
    objective: ObjectiveFunc


class MappingTable:
    """Bijection between mapping variables and (mapping name, match) pairs."""

    def __init__(self):
        self._by_var: dict[str, tuple[str, Match]] = {}
        self._by_key: dict[tuple[str, Match], str] = {}

    def add(self, var_id: str, mapping: str, match: Match):
        key = (mapping, match)
        if var_id in self._by_var or key in self._by_key:
            raise GenerationError(f"mapping table entry for {var_id!r} not bijective")
        self._by_var[var_id] = (mapping, match)
        self._by_key[key] = var_id

    def match_of(self, var_id: str) -> tuple[str, Match]:
        return self._by_var[var_id]

    def var_of(self, mapping: str, match: Match) -> str:
        return self._by_key[(mapping, match)]

    def __contains__(self, var_id: str) -> bool:
        return var_id in self._by_var

    def items(self):
        return self._by_var.items()


def apply_solution(g: Graph, spec: TypedSpec, table: MappingTable,
                   assignment: dict) -> tuple[Graph, int]:
    """Apply every match whose mapping variable is 1 in `assignment`.

    Matches go one at a time in variable-id order, each as its own delta, so
    a later match's attribute expressions see the earlier deltas. A match
    whose binding no applied delta has touched is still valid (specs have no
    negative conditions) and skips the recheck. Returns the new graph and the
    number of matches applied.
    """
    chosen = sorted(vid for vid, value in assignment.items()
                    if vid in table and value == 1)
    touched: set[str] = set()
    for vid in chosen:
        mapping, match = table.match_of(vid)
        delta = apply_rule(g, spec.rule_of_mapping(mapping), match,
                           assume_valid=touched.isdisjoint(match.bound_ids()))
        g = apply_delta(g, delta)
        touched |= delta.touched_ids()
    return g, len(chosen)


@dataclass(frozen=True)
class LinearTerm:
    coeffs: dict
    constant: float = 0

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _clean(self.coeffs))

    @staticmethod
    def const(value) -> "LinearTerm":
        return LinearTerm({}, value)

    def is_constant(self) -> bool:
        return not self.coeffs

    def int_valued(self) -> bool:
        def integral(x):
            return isinstance(x, int) or (isinstance(x, float) and x.is_integer())
        return integral(self.constant) and all(integral(c) for c in self.coeffs.values())

    def add(self, other: "LinearTerm") -> "LinearTerm":
        coeffs = dict(self.coeffs)
        for v, c in other.coeffs.items():
            coeffs[v] = coeffs.get(v, 0) + c
        return LinearTerm(coeffs, self.constant + other.constant)

    def scale(self, k) -> "LinearTerm":
        return LinearTerm({v: c * k for v, c in self.coeffs.items()}, self.constant * k)

    def sub(self, other: "LinearTerm") -> "LinearTerm":
        return self.add(other.scale(-1))

    def bounds(self) -> tuple[float, float]:
        """Value interval over binary assignments of the term's variables."""
        lo = hi = self.constant
        for c in self.coeffs.values():
            if c > 0:
                hi += c
            else:
                lo += c
        return lo, hi


# --- lowered Boolean structure -------------------------------------------------

@dataclass(frozen=True)
class Atom:
    """A relational atom over a linear term: `term <op> 0`."""

    op: str  # '<', '<=', '==', '>=', '>'
    term: LinearTerm
    index: int  # creation order; fixes output determinism


@dataclass(frozen=True)
class Literal:
    atom: Atom
    positive: bool = True

    def negate(self) -> "Literal":
        return Literal(self.atom, not self.positive)


_TRUE = ("const", True)
_FALSE = ("const", False)


class _Alloc:
    def __init__(self):
        self.atom_index = 0
        self.aux_index = 0

    def atom(self, op: str, term: LinearTerm) -> Atom:
        a = Atom(op, term, self.atom_index)
        self.atom_index += 1
        return a

    def aux(self) -> str:
        name = f"aux_{self.aux_index}"
        self.aux_index += 1
        return name


@dataclass(frozen=True)
class Cnf:
    """Conjunction of clauses; a clause is a tuple of literals (a disjunction).

    No clauses means `true`; an empty clause means `false`.
    """

    clauses: tuple[tuple[Literal, ...], ...]


# --- mapping sums ----------------------------------------------------------------

_WHOLE_MATCH = None  # key field of `m == <e>`: the match itself, not one of its nodes


def _mentions(e, name: str) -> bool:
    if isinstance(e, A.Name):
        return e.id == name
    return any(_mentions(v, name) for v in vars(e).values() if isinstance(v, A.Expr))


def _conjuncts(e) -> list:
    if isinstance(e, A.Binary) and e.op == "&":
        return _conjuncts(e.left) + _conjuncts(e.right)
    return [e]


def _index_plan(var: str, pred, rule_nodes) -> tuple | None:
    """Split a filter predicate into its leading key conjuncts and the rest.

    A key conjunct is `var.nodes().X == <e>` (X a node of the rule) or
    `var == <e>`, where `<e>` does not mention `var`. Returns the key fields
    (node names, `_WHOLE_MATCH` for `var == <e>`), the key expressions, and
    the remaining conjuncts as one predicate (None if there are none), or
    None when the predicate does not start with a key conjunct.

    The rest is rebuilt as `true & c1 & c2 ...`, so each conjunct gets the
    boolean check it had as the right operand of an `&`.
    """
    fields, exprs = [], []
    parts = _conjuncts(pred)
    for c in parts:
        if not (isinstance(c, A.Rel) and c.op == "==") or _mentions(c.right, var):
            break
        left = c.left
        if isinstance(left, A.Name) and left.id == var:
            fields.append(_WHOLE_MATCH)
        elif (isinstance(left, A.NodesNav) and isinstance(left.base, A.Name)
              and left.base.id == var and left.node in rule_nodes):
            fields.append(left.node)
        else:
            break
        exprs.append(c.right)
    if not fields:
        return None
    rest = None
    if len(fields) < len(parts):
        rest = A.BoolLit(True)
        for c in parts[len(fields):]:
            rest = A.Binary("&", rest, c)
    return tuple(fields), exprs, rest


def _match_key(match: Match, field: str | None):
    if field is _WHOLE_MATCH:
        return match
    return dict(match.bound)[field]


class _SumIndex:
    """Mapping-sum candidates for one `generate` call, shared by every
    constraint (the objective builds its own).

    A filter that starts with key conjuncts (see `_index_plan`) is served from
    a hash index over the mapping's matches, keyed by the bound node ids or
    the whole match and built on first use; only the rest of the filter is
    evaluated, on the bucket's matches. Buckets keep match order, so the
    coefficients come out in the same order as a scan over every match. Any
    other filter, or a key that is not a node (a match, for `m == <e>`) or
    cannot be evaluated, is served by that scan, which then gives the same
    result or raises the same error as it always did.
    """

    def __init__(self, spec: TypedSpec, table: MappingTable,
                 matches_by_rule: dict[str, list[Match]]):
        self.spec = spec
        self.table = table
        self.matches = matches_by_rule
        self._pairs: dict[str, list[tuple[str, Match]]] = {}
        self._buckets: dict[tuple, dict] = {}
        self._plans: dict[int, tuple | None] = {}

    def pairs(self, mapping: str) -> list[tuple[str, Match]]:
        """(variable, match) for every match of the mapping, in match order."""
        out = self._pairs.get(mapping)
        if out is None:
            rule = self.spec.mapping(mapping).rule
            out = [(self.table.var_of(mapping, m), m) for m in self.matches[rule]]
            self._pairs[mapping] = out
        return out

    def candidates(self, e: A.SetSum, env: dict, g: Graph):
        """(variable, match) pairs that may pass the filter of `e`, and the
        part of the filter still to be checked on each (None: nothing)."""
        everything = self.pairs(e.mapping)
        if e.filter_pred is None or not everything:
            return everything, e.filter_pred
        if id(e) not in self._plans:
            rule = self.spec.rule_of_mapping(e.mapping)
            self._plans[id(e)] = _index_plan(e.filter_var, e.filter_pred,
                                             rule.lhs.node_names())
        plan = self._plans[id(e)]
        if plan is None:
            return everything, e.filter_pred
        fields, exprs, rest = plan
        key = []
        for field, expr in zip(fields, exprs):
            try:
                value = eval_expr(expr, env, g)
            except Exception:
                # the scan reaches this key only if an earlier one holds for
                # some match; let it raise (or not) exactly where it did
                return everything, e.filter_pred
            if field is _WHOLE_MATCH and isinstance(value, Match):
                key.append(value)
            elif field is not _WHOLE_MATCH and isinstance(value, NodeRef):
                key.append(value.id)
            else:
                return everything, e.filter_pred
        buckets = self._buckets.get((e.mapping, fields))
        if buckets is None:
            buckets = {}
            for pair in everything:
                k = tuple(_match_key(pair[1], f) for f in fields)
                buckets.setdefault(k, []).append(pair)
            self._buckets[(e.mapping, fields)] = buckets
        return buckets.get(tuple(key), []), rest


# --- lowering -------------------------------------------------------------------

class _Lowerer:
    """Turns one expanded constraint/objective body into lowered form.

    Only subexpressions that contain a mapping sum are lowered here: the sum
    itself, unary `-` and `+ - * /` over linear terms, `!`, `&` and `|`, and
    relations. Every sum-free subexpression is a generation-time value and
    goes to `eval_expr` whole, so a sum-free `&`/`|` short-circuits there as
    it does in filters. A sum under any other operator is an error.
    """

    def __init__(self, g: Graph, index: _SumIndex, alloc: _Alloc):
        self.g = g
        self.index = index
        self.alloc = alloc
        self._has_sum: dict[int, bool] = {}

    def has_sum(self, e) -> bool:
        """Whether `e` contains a mapping sum; memoized per AST node."""
        known = self._has_sum.get(id(e))
        if known is None:
            known = isinstance(e, A.SetSum) or any(
                self.has_sum(v) for v in vars(e).values() if isinstance(v, A.Expr))
            self._has_sum[id(e)] = known
        return known

    def term(self, e, env: dict) -> LinearTerm:
        value = self.arith(e, env)
        return value if isinstance(value, LinearTerm) else LinearTerm.const(value)

    def arith(self, e, env: dict):
        """Value of an arithmetic subexpression: a LinearTerm if it contains a
        mapping sum, else the plain value."""
        if not self.has_sum(e):
            return eval_expr(e, env, self.g)
        if isinstance(e, A.SetSum):
            pairs, pred = self.index.candidates(e, env, self.g)
            coeffs: dict[str, float] = {}
            for var, match in pairs:
                if pred is not None:
                    fenv = dict(env)
                    fenv[e.filter_var] = match
                    if not eval_expr(pred, fenv, self.g):
                        continue
                senv = dict(env)
                senv[e.sum_var] = match
                coeff = eval_expr(e.sum_body, senv, self.g)
                coeffs[var] = coeffs.get(var, 0) + coeff
            return LinearTerm(coeffs, 0)
        if isinstance(e, A.Unary) and e.op == "-":
            return self.term(e.operand, env).scale(-1)
        if not (isinstance(e, A.Binary) and e.op in ("+", "-", "*", "/")):
            raise _misplaced_sum(e)
        left = self.term(e.left, env)
        right = self.term(e.right, env)
        if e.op == "+":
            return left.add(right)
        if e.op == "-":
            return left.sub(right)
        if e.op == "*":
            if not left.is_constant() and not right.is_constant():
                raise GenerationError("nonlinear term: variable * variable")
            if left.is_constant():
                return right.scale(left.constant)
            return left.scale(right.constant)
        # division
        if not right.is_constant():
            raise GenerationError("division by a mapping-variable term")
        if right.constant == 0:
            raise GenerationError("division by zero")
        return left.scale(1.0 / right.constant)

    def boolean(self, e, env: dict):
        """Lower a Boolean body to ('const', bool), a Literal tree, or nodes
        ('and', a, b) / ('or', a, b)."""
        if not self.has_sum(e):
            value = eval_expr(e, env, self.g)
            if not isinstance(value, bool):
                raise GenerationError("constraint body did not evaluate to a boolean")
            return ("const", value)
        if isinstance(e, A.Unary) and e.op == "!":
            return _negate(self.boolean(e.operand, env))
        if isinstance(e, A.Binary) and e.op in ("&", "|"):
            left = self.boolean(e.left, env)
            right = self.boolean(e.right, env)
            if e.op == "&":
                if left == _FALSE or right == _FALSE:
                    return _FALSE
                if left == _TRUE:
                    return right
                if right == _TRUE:
                    return left
                return ("and", left, right)
            if left == _TRUE or right == _TRUE:
                return _TRUE
            if left == _FALSE:
                return right
            if right == _FALSE:
                return left
            return ("or", left, right)
        if not isinstance(e, A.Rel):
            raise _misplaced_sum(e)
        diff = self.term(e.left, env).sub(self.term(e.right, env))
        if diff.is_constant():
            return ("const", compare(e.op, diff.constant, 0))
        if e.op == "!=":
            return Literal(self.alloc.atom("==", diff), positive=False)
        return Literal(self.alloc.atom(e.op, diff))


def _misplaced_sum(e) -> GenerationError:
    where = repr(e.op) if hasattr(e, "op") else type(e).__name__
    return GenerationError(f"a mapping sum cannot be lowered under {where}")


def _negate(node):
    if node == _TRUE:
        return _FALSE
    if node == _FALSE:
        return _TRUE
    if isinstance(node, Literal):
        return node.negate()
    kind, a, b = node
    if kind == "and":
        return ("or", _negate(a), _negate(b))
    return ("and", _negate(a), _negate(b))


def to_cnf(lowered) -> Cnf:
    """Distribute a lowered Boolean tree into CNF; atoms pass through unchanged.

    `true` gives an empty CNF; `false` gives one empty clause. Tautological
    clauses are dropped, duplicate literals and clauses are merged.
    """
    def clauses_of(node) -> list[tuple[Literal, ...]]:
        if node == _TRUE:
            return []
        if node == _FALSE:
            return [()]
        if isinstance(node, Literal):
            return [(node,)]
        kind, a, b = node
        if kind == "and":
            return clauses_of(a) + clauses_of(b)
        left, right = clauses_of(a), clauses_of(b)
        if not left or not right:  # a disjunction with an always-true side
            return []
        return [ca + cb for ca in left for cb in right]

    raw = clauses_of(lowered)
    cleaned: list[tuple[Literal, ...]] = []
    seen_clauses = set()
    for clause in raw:
        by_atom: dict[int, Literal] = {}
        tautology = False
        for lit in clause:
            prev = by_atom.get(lit.atom.index)
            if prev is not None and prev.positive != lit.positive:
                tautology = True
                break
            by_atom[lit.atom.index] = lit
        if tautology:
            continue
        normalized = tuple(by_atom[i] for i in sorted(by_atom))
        key = tuple((lit.atom.index, lit.positive) for lit in normalized)
        if key in seen_clauses:
            continue
        seen_clauses.add(key)
        cleaned.append(normalized)
    return Cnf(tuple(cleaned))


def _leq_form(atom: Atom) -> LinearTerm:
    """Rewrite the atom as `f <= 0`; strict ops gain an exactness margin."""
    term = atom.term
    if atom.op in (">=", ">"):
        term = term.scale(-1)
    if atom.op in ("<", ">"):
        margin = 1 if term.int_valued() else REAL_EPS
        term = term.add(LinearTerm.const(margin))
    return term


def _big_m(term: LinearTerm) -> float:
    lo, hi = term.bounds()
    return 2 * max(abs(lo), abs(hi), 1)


def _direct_rows(atom: Atom) -> list[Row]:
    if atom.op == "==":
        return [Row(dict(atom.term.coeffs), "=", -atom.term.constant)]
    if atom.op in ("<=", "<"):
        f = _leq_form(atom)
        return [Row(dict(f.coeffs), "<=", -f.constant)]
    # >= or >: keep orientation for readability
    f = _leq_form(atom).scale(-1)
    return [Row(dict(f.coeffs), ">=", -f.constant)]


def _indicator_rows(f: LinearTerm, v: str) -> list[Row]:
    """Rows forcing binary `v` to 1 exactly when `f <= 0`."""
    m = _big_m(f)
    eps = 1 if f.int_valued() else REAL_EPS
    upper = Row({**f.coeffs, v: m}, "<=", m - f.constant)
    lower = Row({**f.coeffs, v: m}, ">=", eps - f.constant)
    return [upper, lower]


def linearize(cnf: Cnf, alloc: _Alloc | None = None) -> tuple[list[Row], list[Variable]]:
    """Lower a CNF to rows plus the auxiliary indicator variables it needs.

    Singleton positive clauses whose atom occurs nowhere else are emitted as
    bare inequalities. Every other atom gets an indicator; equality atoms use
    a conjunction of two indicators. Clauses become `sum of literals >= 1`.
    """
    alloc = alloc or _Alloc()
    occurrences: dict[int, int] = {}
    for clause in cnf.clauses:
        for lit in clause:
            occurrences[lit.atom.index] = occurrences.get(lit.atom.index, 0) + 1

    rows: list[Row] = []
    aux: list[Variable] = []
    indicator: dict[int, str] = {}

    def ensure_indicator(atom: Atom) -> str:
        have = indicator.get(atom.index)
        if have is not None:
            return have
        if atom.op == "==":
            v_le = alloc.aux()
            v_ge = alloc.aux()
            v_eq = alloc.aux()
            aux.extend(Variable(v, AUX_BINARY) for v in (v_le, v_ge, v_eq))
            rows.extend(_indicator_rows(atom.term, v_le))
            rows.extend(_indicator_rows(atom.term.scale(-1), v_ge))
            rows.append(Row({v_eq: 1, v_le: -1}, "<=", 0))
            rows.append(Row({v_eq: 1, v_ge: -1}, "<=", 0))
            rows.append(Row({v_eq: 1, v_le: -1, v_ge: -1}, ">=", -1))
            indicator[atom.index] = v_eq
            return v_eq
        v = alloc.aux()
        aux.append(Variable(v, AUX_BINARY))
        rows.extend(_indicator_rows(_leq_form(atom), v))
        indicator[atom.index] = v
        return v

    for clause in cnf.clauses:
        if not clause:
            rows.append(Row({}, "<=", -1))  # unsatisfiable body
            continue
        if (len(clause) == 1 and clause[0].positive
                and occurrences[clause[0].atom.index] == 1):
            rows.extend(_direct_rows(clause[0].atom))
            continue
        coeffs: dict[str, float] = {}
        negated = 0
        for lit in clause:
            v = ensure_indicator(lit.atom)
            coeffs[v] = coeffs.get(v, 0) + (1 if lit.positive else -1)
            if not lit.positive:
                negated += 1
        rows.append(Row(coeffs, ">=", 1 - negated))
    return rows, aux


# --- pipeline --------------------------------------------------------------------

def rules_needing_matches(spec: TypedSpec) -> list[str]:
    needed: list[str] = []
    for m in spec.mappings:
        if m.rule not in needed:
            needed.append(m.rule)
    for item in (*spec.constraints, *spec.objectives):
        if item.context_kind == "pattern" and item.context_target not in needed:
            needed.append(item.context_target)
    return needed


def collect_matches(spec: TypedSpec, g: Graph) -> dict[str, list[Match]]:
    return {rule: find_matches(g, spec.rules[rule].lhs)
            for rule in rules_needing_matches(spec)}


def instantiate_mappings(spec: TypedSpec,
                         matches_by_rule: dict[str, list[Match]]
                         ) -> tuple[list[Variable], MappingTable]:
    """One binary variable `m_<mapping>_<k>` per (mapping, match), in match order."""
    variables: list[Variable] = []
    table = MappingTable()
    for m in spec.mappings:
        for k, match in enumerate(matches_by_rule.get(m.rule, [])):
            vid = f"m_{m.name}_{k}"
            variables.append(Variable(vid, BINARY))
            table.add(vid, m.name, match)
    return variables, table


def expand_contexts(item: TypedConstraint | TypedObjective, g: Graph,
                    matches_by_rule: dict[str, list[Match]], spec: TypedSpec
                    ) -> list[tuple[object, str]]:
    """(self binding, human label) per context element, deterministic order."""
    if item.context_kind == "class":
        return [(NodeRef(n.id), n.id) for n in g.nodes_of_type(item.context_target)]
    if item.context_kind == "mapping":
        rule = spec.mapping(item.context_target).rule
    else:
        rule = item.context_target
    out = []
    for k, match in enumerate(matches_by_rule.get(rule, [])):
        out.append((match, f"match {k} of {rule}"))
    return out


def lower_sets(body, self_value, spec: TypedSpec, g: Graph, table: MappingTable,
               matches_by_rule: dict[str, list[Match]], alloc: _Alloc | None = None):
    """Lower one expanded Boolean body (with `self` bound) to a Boolean tree
    over linear-term atoms."""
    low = _Lowerer(g, _SumIndex(spec, table, matches_by_rule), alloc or _Alloc())
    return low.boolean(body, {"self": self_value})


def build_objective(spec: TypedSpec, g: Graph,
                    matches_by_rule: dict[str, list[Match]],
                    table: MappingTable) -> ObjectiveFunc:
    """Weighted sum of all objective instances per the global objective."""
    glob = spec.global_objective
    terms: dict[str, float] = {}
    constant = glob.constant
    low = _Lowerer(g, _SumIndex(spec, table, matches_by_rule), _Alloc())
    for obj in spec.objectives:
        weight = glob.weights.get(obj.name, 0.0)
        if weight == 0.0:
            continue
        for self_value, label in expand_contexts(obj, g, matches_by_rule, spec):
            try:
                value = low.arith(obj.body, {"self": self_value})
            except (EvalError, GenerationError) as exc:
                raise GenerationError(
                    f"objective {obj.name!r}, {label}: {exc}") from None
            if obj.context_kind == "mapping":
                if isinstance(value, LinearTerm):
                    raise GenerationError(
                        f"objective {obj.name!r}: mapping-context body must be "
                        f"constant per match")
                var = table.var_of(obj.context_target, self_value)
                terms[var] = terms.get(var, 0) + weight * value
            elif isinstance(value, LinearTerm):
                for var, c in value.coeffs.items():
                    terms[var] = terms.get(var, 0) + weight * c
                constant += weight * value.constant
            else:
                constant += weight * value
        try:
            _require_finite(terms, constant)
        except GenerationError as exc:
            raise GenerationError(f"objective {obj.name!r}: {exc}") from None
    return ObjectiveFunc(glob.sense, terms, constant)


def generate(spec: TypedSpec, g: Graph) -> tuple[IlpProblem, MappingTable]:
    """Full pipeline: match, instantiate variables, lower constraints, build
    the objective. Deterministic for equal inputs."""
    matches_by_rule = collect_matches(spec, g)
    variables, table = instantiate_mappings(spec, matches_by_rule)
    alloc = _Alloc()
    low = _Lowerer(g, _SumIndex(spec, table, matches_by_rule), alloc)
    rows: list[Row] = []
    aux: list[Variable] = []
    for ci, cons in enumerate(spec.constraints):
        for self_value, label in expand_contexts(cons, g, matches_by_rule, spec):
            where = (f"constraint {ci + 1} "
                     f"({cons.context_kind}::{cons.context_target}), {label}")
            try:
                lowered = low.boolean(cons.body, {"self": self_value})
                cnf = to_cnf(lowered)
                new_rows, new_aux = linearize(cnf, alloc)
            except (EvalError, GenerationError) as exc:
                raise GenerationError(f"{where}: {exc}") from None
            rows.extend(new_rows)
            aux.extend(new_aux)
    objective = build_objective(spec, g, matches_by_rule, table)
    return IlpProblem(variables + aux, rows, objective), table


# --- debug dump --------------------------------------------------------------------

def fmt_num(x) -> str:
    if isinstance(x, bool):
        return str(int(x))
    if isinstance(x, int):
        return str(x)
    if isinstance(x, float) and x.is_integer() and abs(x) < 1e15:
        return str(int(x))
    return f"{x:.12g}"


def _fmt_terms(coeffs: dict) -> str:
    if not coeffs:
        return "0"
    parts = []
    for var, c in coeffs.items():
        if not parts:
            prefix = "-" if c < 0 else ""
        else:
            prefix = "- " if c < 0 else "+ "
        mag = abs(c)
        parts.append(f"{prefix}{var}" if mag == 1 else f"{prefix}{fmt_num(mag)} {var}")
    return " ".join(parts)


def dump_problem(p: IlpProblem, table: MappingTable | None = None) -> str:
    """Human-readable problem listing, one constraint per line."""
    lines = [f"{p.objective.sense}: {_fmt_terms(p.objective.terms)}"
             + (f" + {fmt_num(p.objective.constant)}" if p.objective.constant else "")]
    for i, row in enumerate(p.constraints):
        lines.append(f"c{i}: {_fmt_terms(row.coeffs)} {row.rel} {fmt_num(row.rhs)}")
    for v in p.variables:
        lines.append(f"var {v.id} {v.kind}")
    if table is not None:
        for var_id, (mapping, match) in table.items():
            binding = " ".join(f"{k}={v}" for k, v in match.bound)
            lines.append(f"map {var_id} -> {mapping}[{binding}]")
    return "\n".join(lines) + "\n"
