"""Construction of 0/1 integer programs from a typed spec and a graph.

One binary variable per (mapping, match) pair. Each constraint and objective
body is compiled once per `generate` call into closures, which then run per
context element against the call's one lowering context (`_Lowerer`): mapping
sums are lowered to linear terms with generation-time coefficients (filters
that start with key comparisons are served from a hash index over the
matches, which constraints and objective share). `!` is resolved when a body
is compiled, so the remaining Boolean structure comes out in negation normal
form, over literals of relational atoms, and is distributed into conjunctive
normal form and linearized:

* a conjunction of bare relations becomes one inequality per relation
  (the fast path, no auxiliary variables);
* in a clause of two or more literals, a literal that says "some mapping
  variable of S is 1" puts S itself in the clause row, and a lone literal
  that says "every one of S is 0" turns the clause into one row per x of S
  (the clause rows, no auxiliary variables);
* every other atom gets an auxiliary binary indicator tied to the relation
  by big-M rows, each side with its own M from the term's bounds and
  written when a literal first needs it, and each clause becomes `sum of
  literals >= 1` with negated literals contributing `(1 - v)`. An equality
  over a term that keeps one sign is one such atom.

Strict comparisons over integer-valued terms are exact (`< 0` becomes
`<= -1`); real-valued terms use a 1e-6 separation margin. See
docs/encoding.md.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .lang import ast as A
from .lang.eval import EvalError, compare, compile_expr
from .lang.typecheck import TypedSpec
from .model import Graph, Match, Node, apply_delta
from .pattern import apply_rule, find_matches

BINARY = "binary"
AUX_BINARY = "auxiliary-binary"
AUX_PREFIX = "aux_"  # the id prefix of auxiliary indicators, and of no other variable

REAL_EPS = 1e-6


class GenerationError(Exception):
    pass


@dataclass(frozen=True)
class Variable:
    """A 0/1 variable: a mapping variable (BINARY) or an auxiliary indicator
    (AUX_BINARY). Programs have no other variables. The kind follows the id,
    here as in LP text: an id starting with AUX_PREFIX is an indicator's."""

    id: str

    @property
    def kind(self) -> str:
        return AUX_BINARY if self.id.startswith(AUX_PREFIX) else BINARY


def _clean(coeffs: dict) -> dict:
    """`coeffs` without its zero entries; `coeffs` itself when it has none, so
    every caller passes a dict it owns."""
    if 0 not in coeffs.values():
        return coeffs
    return {v: c for v, c in coeffs.items() if c != 0}


NON_FINITE = "non-finite coefficient or constant"


def _require_finite(coeffs: dict, constant) -> None:
    """Every row coefficient and right-hand side, objective term and objective
    constant of a program passes this one check."""
    try:
        finite = math.isfinite(constant) and all(map(math.isfinite, coeffs.values()))
    except OverflowError:  # an int beyond the float range
        finite = False
    if not finite:
        raise GenerationError(NON_FINITE)


def _reason(exc: Exception) -> str:
    """What a generation-time error says. An int beyond the float range raises
    OverflowError where it meets a float; it reads as the non-finite value it
    would become."""
    return NON_FINITE if isinstance(exc, OverflowError) else str(exc)


@dataclass(slots=True)
class Row:
    """One linear constraint: coeffs . x  <rel>  rhs, rel in {<=, =, >=}."""

    coeffs: dict
    rel: str
    rhs: float

    def __post_init__(self):
        self.coeffs = _clean(self.coeffs)
        _require_finite(self.coeffs, self.rhs)


@dataclass(slots=True)
class ObjectiveFunc:
    sense: str  # 'min' or 'max'
    terms: dict
    constant: float = 0.0

    def __post_init__(self):
        self.terms = _clean(self.terms)
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
        self._pairs: dict[str, list[tuple[str, Match]]] = {}

    def add(self, var_id: str, mapping: str, match: Match):
        key = (mapping, match)
        if var_id in self._by_var or key in self._by_key:
            raise GenerationError(f"mapping table entry for {var_id!r} not bijective")
        self._by_var[var_id] = (mapping, match)
        self._by_key[key] = var_id
        self._pairs.setdefault(mapping, []).append((var_id, match))

    def pairs(self, mapping: str) -> list[tuple[str, Match]]:
        """(variable, match) for every match of the mapping, in the order
        added, which `instantiate_mappings` makes match order."""
        return self._pairs.get(mapping, [])

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
    a later match's attribute expressions see the earlier deltas, and each is
    rechecked against the graph the earlier deltas left. Returns the new graph
    and the number of matches applied.
    """
    chosen = sorted(vid for vid, value in assignment.items()
                    if vid in table and value == 1)
    for vid in chosen:
        mapping, match = table.match_of(vid)
        g = apply_delta(g, apply_rule(g, spec.rule_of_mapping(mapping), match))
    return g, len(chosen)


@dataclass(slots=True)
class LinearTerm:
    coeffs: dict
    constant: float = 0

    def __post_init__(self):
        self.coeffs = _clean(self.coeffs)

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
        coeffs = dict(self.coeffs)
        for v, c in other.coeffs.items():
            coeffs[v] = coeffs.get(v, 0) - c
        return LinearTerm(coeffs, self.constant - other.constant)

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

    @cached_property
    def form(self) -> LinearTerm | None:
        """The atom as `f <= 0`, a strict op with its exactness margin. An
        equality has that form when its term keeps one sign over the 0/1 box,
        and None when the term can take both signs."""
        term, op = self.term, self.op
        if op == "==":
            lo, hi = term.bounds()
            if lo >= 0:
                return term
            return term.scale(-1) if hi <= 0 else None
        if op in (">=", ">"):
            term = term.scale(-1)
        if op in ("<", ">"):
            term = term.add(LinearTerm.const(_margin(term)))
        return term

    @cached_property
    def any_of(self) -> tuple | None:
        """S when `f <= 0` holds iff some x of S is 1: `c > 0` and every
        `a_i <= -c`, for `f = sum a_i x_i + c` over binaries."""
        f = self.form
        if f is not None and f.constant > 0 \
                and all(a <= -f.constant for a in f.coeffs.values()):
            return tuple(f.coeffs)
        return None

    @cached_property
    def none_of(self) -> tuple | None:
        """S when `f <= 0` holds iff every x of S is 0: `c == 0` and every
        `a_i > 0`."""
        f = self.form
        if f is not None and f.constant == 0 and all(a > 0 for a in f.coeffs.values()):
            return tuple(f.coeffs)
        return None


@dataclass(frozen=True)
class Literal:
    atom: Atom
    positive: bool = True

    @property
    def any_of(self) -> tuple | None:
        """S when the literal holds iff some x of S is 1."""
        return self.atom.any_of if self.positive else self.atom.none_of

    @property
    def none_of(self) -> tuple | None:
        """S when the literal holds iff every x of S is 0."""
        return self.atom.none_of if self.positive else self.atom.any_of


class _Alloc:
    def __init__(self):
        self.atom_index = 0
        self.aux_index = 0

    def atom(self, op: str, term: LinearTerm) -> Atom:
        a = Atom(op, term, self.atom_index)
        self.atom_index += 1
        return a

    def aux(self) -> str:
        name = f"{AUX_PREFIX}{self.aux_index}"
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
    return any(_mentions(v, name) for v in A.children(e))


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


# --- lowering -------------------------------------------------------------------

class _Lowerer:
    """The state of one `generate` call, which the compiled lowering closures
    `f(env, low)` of every constraint and objective body run against: the
    spec, the graph, the mapping table, the allocator and the mapping-sum
    buckets.

    A body is compiled once per `generate` call, and which of its
    subexpressions contain a mapping sum is decided then. Only those are
    lowered: the sum itself, unary `-` and `+ - * /` over linear terms, `!`,
    `&` and `|`, and relations. Every sum-free subexpression is a
    generation-time value compiled whole by `compile_expr`, so a sum-free
    `&`/`|` short-circuits as it does in filters. A sum under any other
    operator compiles to a closure that raises GenerationError.

    A filter that starts with key conjuncts (see `_index_plan`) is served from
    a hash index over the mapping's matches, keyed by the bound node ids or
    the whole match; only the rest of the filter is evaluated, on the
    bucket's matches. Each sum resolves its plan the first time it is
    lowered and keeps it: its (variable, match) pairs, its key and rest
    expressions compiled, and its bucket dict, which every sum with the same
    mapping and key nodes shares, constraint or objective. Buckets keep match
    order, so the coefficients come out in the same order as a scan over
    every match. Any other filter, or a key that is not a node (a match, for
    `m == <e>`) or cannot be evaluated, is served by that scan, which then
    gives the same result or raises the same error as it always did.
    """

    def __init__(self, spec: TypedSpec, g: Graph, table: MappingTable):
        self.spec = spec
        self.g = g
        self.table = table
        self.alloc = _Alloc()
        self._buckets: dict[tuple, dict] = {}

    def _bucket_dict(self, mapping: str, fields: tuple) -> dict:
        buckets = self._buckets.get((mapping, fields))
        if buckets is None:
            buckets = {}
            for pair in self.table.pairs(mapping):
                binding = pair[1].binding
                k = tuple([pair[1] if f is _WHOLE_MATCH else binding[f] for f in fields])
                buckets.setdefault(k, []).append(pair)
            self._buckets[(mapping, fields)] = buckets
        return buckets

    def _plan(self, s: _Sum) -> tuple:
        """`(pairs, keys, rest, buckets)` for `s`: `keys` is None for a sum
        served by a scan, whose `rest` is then its whole filter (None:
        nothing), and otherwise holds `(field, compiled key)` pairs."""
        e = s.expr
        everything = self.table.pairs(e.mapping)
        if e.filter_pred is None or not everything:
            return everything, None, None, None
        rule = self.spec.rule_of_mapping(e.mapping)
        plan = _index_plan(e.filter_var, e.filter_pred, rule.lhs.node_names())
        if plan is None:
            return everything, None, s.filter, None
        fields, exprs, rest = plan
        return (everything, tuple(zip(fields, map(compile_expr, exprs))),
                None if rest is None else compile_expr(rest),
                self._bucket_dict(e.mapping, fields))

    def candidates(self, s: _Sum, env: dict):
        """(variable, match) pairs that may pass the filter of `s`, and the
        compiled part of the filter still to be checked on each (None:
        nothing)."""
        if s.plan is None:
            s.plan = self._plan(s)
        everything, keys, rest, buckets = s.plan
        if keys is None:
            return everything, rest
        key = []
        for field, key_of in keys:
            try:
                value = key_of(env, self.g)
            except Exception:
                # the scan reaches this key only if an earlier one holds for
                # some match; let it raise (or not) exactly where it did
                return everything, s.filter
            if field is _WHOLE_MATCH and isinstance(value, Match):
                key.append(value)
            elif field is not _WHOLE_MATCH and isinstance(value, Node):
                key.append(value.id)
            else:
                return everything, s.filter
        return buckets.get(tuple(key), ()), rest


class _Sum:
    """One mapping sum of a compiled body, with its body compiled. Calling it
    lowers the sum to a LinearTerm."""

    def __init__(self, e: A.SetSum):
        self.expr = e
        self.body = compile_expr(e.sum_body)
        self.plan: tuple | None = None  # resolved on first use

    @cached_property
    def filter(self):
        """The whole filter compiled, for a scan over every match; an indexed
        sum never needs it."""
        return compile_expr(self.expr.filter_pred)

    def __call__(self, env: dict, low: _Lowerer) -> LinearTerm:
        g = low.g
        pairs, pred = low.candidates(self, env)
        filter_var, sum_var, body = self.expr.filter_var, self.expr.sum_var, self.body
        fenv = None if pred is None else dict(env)
        senv = dict(env)
        coeffs: dict[str, float] = {}
        for var, match in pairs:
            if pred is not None:
                fenv[filter_var] = match
                if not pred(fenv, g):
                    continue
            senv[sum_var] = match
            coeffs[var] = coeffs.get(var, 0) + body(senv, g)
        return LinearTerm(coeffs, 0)


def _has_sum(e) -> bool:
    return isinstance(e, A.SetSum) or any(map(_has_sum, A.children(e)))


def _times(left: LinearTerm, right: LinearTerm) -> LinearTerm:
    if not left.is_constant() and not right.is_constant():
        raise GenerationError("nonlinear term: variable * variable")
    if left.is_constant():
        return right.scale(left.constant)
    return left.scale(right.constant)


def _divide(left: LinearTerm, right: LinearTerm) -> LinearTerm:
    if not right.is_constant():
        raise GenerationError("division by a mapping-variable term")
    if right.constant == 0:
        raise GenerationError("division by zero")
    return left.scale(1.0 / right.constant)


_COMBINE = {"+": LinearTerm.add, "-": LinearTerm.sub, "*": _times, "/": _divide}


def _misplaced_sum(e):
    where = repr(e.op) if hasattr(e, "op") else type(e).__name__
    message = f"a mapping sum cannot be lowered under {where}"

    def run(env, low):
        raise GenerationError(message)
    return run


def _lower_term(e):
    """Closure giving the LinearTerm of an arithmetic subexpression."""
    if not _has_sum(e):
        value = compile_expr(e)
        return lambda env, low: LinearTerm.const(value(env, low.g))
    if isinstance(e, A.SetSum):
        return _Sum(e)
    if isinstance(e, A.Unary) and e.op == "-":
        operand = _lower_term(e.operand)
        return lambda env, low: operand(env, low).scale(-1)
    combine = _COMBINE.get(e.op) if isinstance(e, A.Binary) else None
    if combine is None:
        return _misplaced_sum(e)
    left, right = _lower_term(e.left), _lower_term(e.right)
    return lambda env, low: combine(left(env, low), right(env, low))


def _join(kind, left, right):
    """(kind, left, right) for kind 'and' or 'or', with constants folded:
    false absorbs a conjunction and true a disjunction; the other is
    neutral."""
    absorbing, neutral = ("const", kind == "or"), ("const", kind == "and")
    if left == absorbing or right == absorbing:
        return absorbing
    if left == neutral:
        return right
    if right == neutral:
        return left
    return (kind, left, right)


def _lower_bool(e, positive=True):
    """Closure lowering a Boolean body, or its negation when `positive` is
    false, to ('const', bool), a Literal, or nodes ('and', a, b) /
    ('or', a, b) over literals: negation normal form, resolved here. `!`
    flips the polarity, under which `&` and `|` swap (De Morgan, operands in
    order), and `!=` is `==` with the polarity flipped."""
    if not _has_sum(e):
        value = compile_expr(e)

        def run(env, low):
            v = value(env, low.g)
            if v is True or v is False:
                return ("const", v is positive)
            raise GenerationError("constraint body did not evaluate to a boolean")
        return run
    if isinstance(e, A.Unary) and e.op == "!":
        return _lower_bool(e.operand, not positive)
    if isinstance(e, A.Binary) and e.op in ("&", "|"):
        left, right = _lower_bool(e.left, positive), _lower_bool(e.right, positive)
        kind = "and" if (e.op == "&") == positive else "or"
        return lambda env, low: _join(kind, left(env, low), right(env, low))
    if not isinstance(e, A.Rel):
        return _misplaced_sum(e)
    left, right, op = _lower_term(e.left), _lower_term(e.right), e.op
    if op == "!=":
        op, positive = "==", not positive

    def run(env, low):
        diff = left(env, low).sub(right(env, low))
        if diff.is_constant():
            return ("const", compare(op, diff.constant, 0) == positive)
        return Literal(low.alloc.atom(op, diff), positive)
    return run


def to_cnf(lowered) -> Cnf:
    """Distribute a lowered Boolean tree, in negation normal form, into CNF.

    `true` gives an empty CNF; `false` gives one empty clause. The result
    needs no clean-up: every relation a body evaluates gets an atom of its
    own, allocated left to right, so every clause lists its literals in atom
    order, no clause repeats an atom, and no two clauses are equal.
    """
    return Cnf(_clauses(lowered))


def _clauses(node) -> tuple:
    if isinstance(node, Literal):
        return ((node,),)
    if node[0] == "const":
        return () if node[1] else ((),)
    kind, a, b = node
    if kind == "and":
        return _clauses(a) + _clauses(b)
    left, right = _clauses(a), _clauses(b)
    return tuple([ca + cb for ca in left for cb in right])


def _margin(term: LinearTerm):
    """The exactness margin of a strict comparison over `term`."""
    return 1 if term.int_valued() else REAL_EPS


_DIRECT_REL = {"==": "=", "<=": "<=", "<": "<=", ">=": ">=", ">": ">="}


def _direct_rows(atom: Atom) -> list[Row]:
    """The one row of `term <op> 0`, in the orientation of `op`; a strict
    op moves the right-hand side by its exactness margin."""
    term, op = atom.term, atom.op
    rhs = -term.constant
    if op == "<":
        rhs = -(term.constant + _margin(term))
    elif op == ">":
        rhs = -term.constant + _margin(term)
    return [Row(dict(term.coeffs), _DIRECT_REL[op], rhs)]


def _indicator_rows(f: LinearTerm, v: str, upper: bool = True,
                    lower: bool = True) -> list[Row]:
    """Rows tying binary `v` to `f <= 0`, each side with its own big-M from
    the bounds of `f`: the upper row makes `v = 1` imply `f <= 0`, the lower
    row makes `v = 0` imply `f >= eps`. `v` may occur in `f`; its
    coefficients add."""
    lo, hi = f.bounds()
    rows = []
    if upper:
        m = max(hi, 0)
        rows.append(Row({**f.coeffs, v: f.coeffs.get(v, 0) + m}, "<=", m - f.constant))
    if lower:
        eps = _margin(f)
        m = max(eps - lo, 0)
        rows.append(Row({**f.coeffs, v: f.coeffs.get(v, 0) + m}, ">=", eps - f.constant))
    return rows


def linearize(cnf: Cnf, alloc: _Alloc) -> tuple[list[Row], list[Variable]]:
    """Lower a CNF to rows plus the auxiliary indicator variables it needs,
    in one pass over the clauses.

    A singleton positive clause is emitted as a bare inequality: in a CNF of
    `to_cnf` its atom occurs in no other clause. In a clause of two or more
    literals, a literal that says "some x of S is 1" adds S to the clause
    row, and one literal that says "every x of S is 0" turns the clause into
    one row per x of S, the rest of the clause or `1 - x`; if the rest is one
    positive atom `f <= 0`, that row is `f + M x <= M`, the upper indicator
    row with `x` as the indicator. Every other atom gets an indicator `v` for
    `f <= 0` (an equality over a one-signed term is one such atom), and each
    side of it is written the first time a literal needs it: `v = 1 => f <=
    0` for a positive literal, `v = 0 => f >= eps` for a negative one. An
    equality over a term of either sign conjoins two fully tied indicators.
    Clauses become `sum of literals >= 1`, which stays sound on any CNF: a
    clause holding an atom and its negation reduces to `0 >= 0`, a repeated
    literal to `2v >= 1`.
    """
    rows: list[Row] = []
    aux: list[Variable] = []
    sides: dict[tuple[int, bool], str] = {}  # (atom, polarity) written -> indicator

    def indicator(lit: Literal) -> str:
        """The indicator of the literal's atom, its side for the literal's
        polarity written."""
        atom, key = lit.atom, (lit.atom.index, lit.positive)
        if key in sides:
            return sides[key]
        f, other = atom.form, (atom.index, not lit.positive)
        if f is None:
            v_le = alloc.aux()
            v_ge = alloc.aux()
            v_eq = alloc.aux()
            aux.extend(Variable(v) for v in (v_le, v_ge, v_eq))
            rows.extend(_indicator_rows(atom.term, v_le))
            rows.extend(_indicator_rows(atom.term.scale(-1), v_ge))
            rows.append(Row({v_eq: 1, v_le: -1}, "<=", 0))
            rows.append(Row({v_eq: 1, v_ge: -1}, "<=", 0))
            rows.append(Row({v_eq: 1, v_le: -1, v_ge: -1}, ">=", -1))
            sides[key] = sides[other] = v_eq
            return v_eq
        v = sides.get(other)
        if v is None:
            v = alloc.aux()
            aux.append(Variable(v))
        rows.extend(_indicator_rows(f, v, upper=lit.positive, lower=not lit.positive))
        sides[key] = v
        return v

    for clause in cnf.clauses:
        if not clause:
            rows.append(Row({}, "<=", -1))  # unsatisfiable body
            continue
        if len(clause) == 1:
            if clause[0].positive:
                rows.extend(_direct_rows(clause[0].atom))
            else:
                rows.append(Row({indicator(clause[0]): -1}, ">=", 0))
            continue
        nones = [lit for lit in clause if lit.none_of is not None]
        none = None  # two or more "none" literals keep their indicators
        if len(nones) == 1:
            none = nones[0].none_of
            clause = [lit for lit in clause if lit is not nones[0]]
            rest = clause[0]
            if len(clause) == 1 and rest.positive and rest.any_of is None \
                    and rest.atom.form is not None:
                for x in none:
                    rows.extend(_indicator_rows(rest.atom.form, x, lower=False))
                continue
        coeffs: dict[str, float] = {}
        negated = 0
        for lit in clause:
            if lit.any_of is not None:
                for x in lit.any_of:
                    coeffs[x] = coeffs.get(x, 0) + 1
            else:
                v = indicator(lit)
                coeffs[v] = coeffs.get(v, 0) + (1 if lit.positive else -1)
                negated += not lit.positive
        if none is None:
            rows.append(Row(coeffs, ">=", 1 - negated))
        else:  # the rest of the clause, or 1 - x, for each x of S
            rows.extend(Row({**coeffs, x: coeffs.get(x, 0) - 1}, ">=", -negated)
                        for x in none)
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
            variables.append(Variable(vid))
            table.add(vid, m.name, match)
    return variables, table


def expand_contexts(item: A.ConstraintDecl | A.ObjectiveDecl, g: Graph,
                    matches_by_rule: dict[str, list[Match]], spec: TypedSpec
                    ) -> list[tuple[object, str]]:
    """(self binding, human label) per context element, deterministic order."""
    if item.context_kind == "class":
        return [(n, n.id) for n in g.nodes_of_type(item.context_target)]
    if item.context_kind == "mapping":
        rule = spec.mapping(item.context_target).rule
    else:
        rule = item.context_target
    out = []
    for k, match in enumerate(matches_by_rule.get(rule, [])):
        out.append((match, f"match {k} of {rule}"))
    return out


def build_objective(low: _Lowerer,
                    matches_by_rule: dict[str, list[Match]]) -> ObjectiveFunc:
    """Weighted sum of all objective instances per the global objective,
    lowered in the `generate` call's context `low`."""
    spec, g, table = low.spec, low.g, low.table
    glob = spec.global_objective
    terms: dict[str, float] = {}
    constant = glob.constant
    for obj in spec.objectives:
        weight = glob.weights.get(obj.name, 0.0)
        if weight == 0.0:
            continue
        lower = _lower_term(obj.body)
        for self_value, label in expand_contexts(obj, g, matches_by_rule, spec):
            try:
                value = lower({"self": self_value}, low)
                if obj.context_kind == "mapping":
                    if not value.is_constant():
                        raise GenerationError("mapping-context body must be "
                                              "constant per match")
                    var = table.var_of(obj.context_target, self_value)
                    terms[var] = terms.get(var, 0) + weight * value.constant
                else:
                    for var, c in value.coeffs.items():
                        terms[var] = terms.get(var, 0) + weight * c
                    constant += weight * value.constant
            except (EvalError, GenerationError, OverflowError) as exc:
                raise GenerationError(
                    f"objective {obj.name!r}, {label}: {_reason(exc)}") from None
        try:
            _require_finite(terms, constant)
        except GenerationError as exc:
            raise GenerationError(f"objective {obj.name!r}: {exc}") from None
    return ObjectiveFunc(glob.sense, terms, constant)


def generate(spec: TypedSpec, g: Graph) -> tuple[IlpProblem, MappingTable]:
    """Full pipeline: match, instantiate variables, lower constraints, build
    the objective, all in one lowering context. Deterministic for equal
    inputs."""
    matches_by_rule = collect_matches(spec, g)
    variables, table = instantiate_mappings(spec, matches_by_rule)
    low = _Lowerer(spec, g, table)
    rows: list[Row] = []
    aux: list[Variable] = []
    for ci, cons in enumerate(spec.constraints):
        lower = _lower_bool(cons.body)
        for self_value, label in expand_contexts(cons, g, matches_by_rule, spec):
            try:
                cnf = to_cnf(lower({"self": self_value}, low))
                new_rows, new_aux = linearize(cnf, low.alloc)
            except (EvalError, GenerationError, OverflowError) as exc:
                raise GenerationError(
                    f"constraint {ci + 1} ({cons.context_kind}::"
                    f"{cons.context_target}), {label}: {_reason(exc)}") from None
            rows.extend(new_rows)
            aux.extend(new_aux)
    objective = build_objective(low, matches_by_rule)
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


def dump_problem(p: IlpProblem, table: MappingTable) -> str:
    """Human-readable problem listing, one constraint per line, then the
    variables and the (mapping, match) pair of each mapping variable."""
    lines = [f"{p.objective.sense}: {_fmt_terms(p.objective.terms)}"
             + (f" + {fmt_num(p.objective.constant)}" if p.objective.constant else "")]
    for i, row in enumerate(p.constraints):
        lines.append(f"c{i}: {_fmt_terms(row.coeffs)} {row.rel} {fmt_num(row.rhs)}")
    for v in p.variables:
        lines.append(f"var {v.id} {v.kind}")
    for var_id, (mapping, match) in table.items():
        binding = " ".join(f"{k}={v}" for k, v in match.binding.items())
        lines.append(f"map {var_id} -> {mapping}[{binding}]")
    return "\n".join(lines) + "\n"
