"""Recursive-descent parser for the specification language (`.gipsl` files).

Operator precedence, loosest to tightest: `|`, `&`, comparisons, `+ -`,
`* /`, unary (`!`, `-`, `sin`, `cos`, `sqrt`). Binary operators associate
left; a comparison does not chain (`a < b < c` is an error). Expressions
are parsed by precedence climbing (Norvell, "Parsing Expressions by
Recursive Descent", 1999). A rule comes out as the `pattern.Rule` that the
matcher runs. See docs/grammar.md for the full grammar.
"""

from __future__ import annotations

from ..pattern import Pattern, PatternEdge, PatternNode, Rule
from .ast import (AttrRef, Binary, BoolLit, ConstraintDecl, CreateEdgeAction,
                  CreateNodeAction, DeleteEdgeAction, DeleteNodeAction,
                  GlobalObjectiveDecl, MappingDecl, Name, NodesNav, Num,
                  ObjectiveDecl, Pos, Rel, SelfRef, SetAttrAction, SetSum, SpecAst,
                  StrLit, Unary)
from .eval import _FUNCTIONS
from .lexer import LocatedError, TokenStream

KEYWORDS = frozenset({
    "rule", "nodes", "edges", "condition", "actions",
    "create", "delete", "set", "node", "edge",
    "mapping", "with", "constraint", "objective", "global",
    "class", "pattern", "min", "max",
    "true", "false", "self", "mappings", *_FUNCTIONS,
})


# The binding level of each binary operator, from 1 (loosest) to _TIGHTEST.
_REL_LEVEL, _TIGHTEST = 3, 5
_LEVELS = {"|": 1, "&": 2, "+": 4, "-": 4, "*": 5, "/": 5,
           **dict.fromkeys(("<", "<=", "==", "!=", ">=", ">"), _REL_LEVEL)}

# The deepest an expression may nest: the height of its tree, where each
# operator, function call, attribute access, mapping sum and pair of
# parentheses is one level. The parser and every later stage walk
# expressions by recursion, so deeper input is a syntax error at the token
# that goes past the limit, not a stack overflow later on.
MAX_DEPTH = 100


class DslSyntaxError(LocatedError):
    pass


class _Parser(TokenStream):
    def __init__(self, text: str):
        super().__init__(text, DslSyntaxError, KEYWORDS)
        self.depth = 0  # levels open above the token being read
        self.height = 0  # the height of the expression parsed last

    def pos(self, i: int) -> Pos:
        """Where token i starts, as a syntax tree node records it."""
        return Pos(*self.position(i))

    def ident(self, what: str = "identifier") -> str:
        """The identifier under the cursor, which moves past it."""
        if self.kind != "IDENT":
            raise self.error_at(self.i, f"expected {what}, got {self.shown(self.i)}")
        return self.values[self.advance()]

    # -- declarations ---------------------------------------------------------

    def spec(self) -> SpecAst:
        rules, mappings, constraints, objectives = [], [], [], []
        global_obj: GlobalObjectiveDecl | None = None
        while self.kind != "EOF":
            kind = self.kind
            if kind == "rule":
                rules.append(self.rule_decl())
            elif kind == "mapping":
                mappings.append(self.mapping_decl())
            elif kind == "constraint":
                constraints.append(self.constraint_decl())
            elif kind == "objective":
                objectives.append(self.objective_decl())
            elif kind == "global":
                start = self.i
                decl = self.global_objective_decl()
                if global_obj is not None:
                    raise self.error_at(start, "duplicate global objective")
                global_obj = decl
            else:
                raise self.error_at(
                    self.i, f"expected 'rule', 'mapping', 'constraint', 'objective' or "
                    f"'global', got {self.shown(self.i)}")
        if global_obj is None:
            raise self.error_at(self.i, "missing global objective")
        return SpecAst(tuple(rules), tuple(mappings), tuple(constraints),
                       tuple(objectives), global_obj)

    def rule_decl(self) -> Rule:
        start = self.expect("rule")
        name = self.ident("rule name")
        self.expect("{")
        nodes: list[PatternNode] = []
        edges: list[PatternEdge] = []
        condition = None
        actions: list[object] = []
        while not self.accept("}"):
            section = self.kinds[self.expect("nodes", "edges", "condition", "actions")]
            self.expect("{")
            if section == "nodes":
                while not self.accept("}"):
                    at = self.i
                    n = self.ident("pattern node name")
                    self.expect(":")
                    t = self.ident("node type")
                    nodes.append(PatternNode(n, t, self.pos(at)))
            elif section == "edges":
                while not self.accept("}"):
                    at = self.i
                    n = self.ident("pattern edge name")
                    self.expect(":")
                    t = self.ident("edge type")
                    src, tgt = self.endpoints("pattern node")
                    edges.append(PatternEdge(n, t, src, tgt, self.pos(at)))
            elif section == "condition":
                condition = self.expression()
                self.expect("}")
            else:
                while not self.accept("}"):
                    actions.append(self.action())
        return Rule(name, Pattern(name, tuple(nodes), tuple(edges), condition),
                    tuple(actions), self.pos(start))

    def action(self):
        at = self.expect("create", "delete", "set")
        verb = self.kinds[at]
        if verb == "create":
            if self.kinds[self.expect("edge", "node")] == "edge":
                t = self.ident("edge type")
                return CreateEdgeAction(t, *self.endpoints("node"), self.pos(at))
            name = self.ident("new node name")
            self.expect(":")
            t = self.ident("node type")
            inits = []
            self.expect("{")
            while not self.accept("}"):
                attr = self.ident("attribute name")
                self.expect(":=")
                inits.append((attr, self.expression()))
            return CreateNodeAction(name, t, tuple(inits), self.pos(at))
        if verb == "delete":
            edge = self.kinds[self.expect("edge", "node")] == "edge"
            name = self.ident()
            if edge:
                return DeleteEdgeAction(name, self.pos(at))
            return DeleteNodeAction(name, self.pos(at))
        node = self.ident("pattern node")
        self.expect(".")
        attr = self.ident("attribute name")
        self.expect(":=")
        return SetAttrAction(node, attr, self.expression(), self.pos(at))

    def endpoints(self, what: str) -> tuple[str, str]:
        """An edge's `(src -> tgt)`, each end a `what`."""
        self.expect("(")
        src = self.ident(f"source {what}")
        self.expect("->")
        tgt = self.ident(f"target {what}")
        self.expect(")")
        return src, tgt

    def mapping_decl(self) -> MappingDecl:
        start = self.expect("mapping")
        name = self.ident("mapping name")
        self.expect("with")
        rule = self.ident("rule name")
        self.expect(";")
        return MappingDecl(name, rule, self.pos(start))

    def context(self) -> tuple[str, str]:
        kind = self.kinds[self.expect("class", "pattern", "mapping")]
        self.expect("::")
        return kind, self.ident("context target")

    def constraint_decl(self) -> ConstraintDecl:
        start = self.expect("constraint")
        self.expect("->")
        kind, target = self.context()
        return ConstraintDecl(kind, target, self.body(), self.pos(start))

    def objective_decl(self) -> ObjectiveDecl:
        start = self.expect("objective")
        name = self.ident("objective name")
        self.expect("->")
        kind, target = self.context()
        return ObjectiveDecl(name, kind, target, self.body(), self.pos(start))

    def global_objective_decl(self) -> GlobalObjectiveDecl:
        start = self.expect("global")
        self.expect("objective")
        self.expect(":")
        sense = self.kinds[self.expect("min", "max")]
        return GlobalObjectiveDecl(sense, self.body(), self.pos(start))

    def body(self):
        """The `{ expression }` body of a constraint or an objective."""
        self.expect("{")
        expr = self.expression()
        self.expect("}")
        return expr

    # -- expressions ------------------------------------------------------------

    def limit(self, height: int, at: int) -> int:
        """`height`, unless an expression that high at token `at` is too deep."""
        if height > MAX_DEPTH:
            raise self.error_at(at, f"expression nests more than {MAX_DEPTH} levels deep")
        return height

    def nested(self, at: int, parse):
        """`parse()` one level below token `at`. The level counts on the way
        down, which bounds the parser's recursion, and in the height of the
        result."""
        self.depth = self.limit(self.depth + 1, at)
        node = parse()
        self.depth -= 1
        self.height = self.limit(self.height + 1, at)
        return node

    def expression(self, min_level: int = 1):
        """An expression whose binary operators bind at `min_level` or tighter.

        After an operator of level L, the next may bind at L at most (L - 1
        after a relation), so `+` and `*` chain to the left and relations do
        not chain.
        """
        left = self.unary()
        height, max_level = self.height, _TIGHTEST
        while True:
            op = self.kind
            level = _LEVELS.get(op, 0)
            if not min_level <= level <= max_level:
                self.height = height
                return left
            at = self.advance()
            right = self.expression(level + 1)
            height = self.limit(max(height, self.height) + 1, at)
            if level == _REL_LEVEL:
                left, max_level = Rel(op, left, right, self.pos(at)), level - 1
            else:
                left, max_level = Binary(op, left, right, self.pos(at)), level

    def unary(self):
        kind = self.kind
        if kind == "!" or kind == "-":
            at = self.advance()
            return Unary(kind, self.nested(at, self.unary), self.pos(at))
        if kind in _FUNCTIONS:
            at = self.advance()
            self.expect("(")
            arg = self.nested(at, self.expression)
            self.expect(")")
            return Unary(kind, arg, self.pos(at))
        return self.postfix()

    def postfix(self):
        expr = self.primary()
        while self.kind == ".":
            dot = self.advance()
            self.height = self.limit(self.height + 1, dot)
            if self.kind == "nodes" and self.peek() == "(":
                self.advance()
                self.expect("(")
                self.expect(")")
                self.expect(".")
                expr = NodesNav(expr, self.ident("pattern node name"), self.pos(dot))
            else:
                expr = AttrRef(expr, self.ident("attribute name"), self.pos(dot))
        return expr

    def primary(self):
        kind = self.kind
        self.height = 0
        if kind == "INT" or kind == "REAL":
            at = self.advance()
            return Num(self.values[at], self.pos(at))
        if kind == "true" or kind == "false":
            return BoolLit(kind == "true", self.pos(self.advance()))
        if kind == "STRING":
            at = self.advance()
            return StrLit(self.values[at], self.pos(at))
        if kind == "(":
            at = self.advance()
            inner = self.nested(at, self.expression)
            self.expect(")")
            return inner
        if kind == "self":
            return SelfRef(self.pos(self.advance()))
        if kind == "mappings":
            return self.set_sum()
        if kind == "IDENT":
            at = self.advance()
            return Name(self.values[at], self.pos(at))
        raise self.error_at(self.i, f"expected an expression, got {self.shown(self.i)}")

    def set_sum(self) -> SetSum:
        start = self.expect("mappings")
        self.expect(".")
        mapping = self.ident("mapping name")
        filter_var = filter_pred = None
        filter_height = 0
        self.expect("->")
        at = self.i
        head = self.ident("'filter' or 'sum'")
        if head == "filter":
            self.expect("(")
            filter_var = self.ident("filter variable")
            self.expect("|")
            filter_pred = self.nested(start, self.expression)
            filter_height = self.height
            self.expect(")")
            self.expect("->")
            at = self.i
            head = self.ident("'sum'")
        if head != "sum":
            raise self.error_at(at, f"expected 'sum', got {head!r}")
        self.expect("(")
        var = self.ident("sum variable")
        self.expect("|")
        body = self.nested(start, self.expression)
        self.height = max(self.height, filter_height)
        self.expect(")")
        return SetSum(mapping, filter_var, filter_pred, var, body, self.pos(start))


def parse(text: str) -> SpecAst:
    """Parse a complete specification document."""
    return _Parser(text).spec()


def parse_expression(text: str):
    """Parse a single expression: the API's way to build a `Pattern` condition."""
    p = _Parser(text)
    expr = p.expression()
    p.expect("EOF")
    return expr
