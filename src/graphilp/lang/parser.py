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
from .lexer import LocatedError, Token, TokenStream, tokenize

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


def _pos(tok: Token) -> Pos:
    return Pos(tok.line, tok.col)


class _Parser(TokenStream):
    def __init__(self, text: str):
        super().__init__(tokenize(text, DslSyntaxError, KEYWORDS), DslSyntaxError)
        self.depth = 0  # levels open above the token being read
        self.height = 0  # the height of the expression parsed last

    def ident(self, what: str = "identifier") -> Token:
        tok = self.current
        if tok.kind != "IDENT":
            raise DslSyntaxError(f"expected {what}, got {tok.shown()}", tok.line, tok.col)
        return self.advance()

    # -- declarations ---------------------------------------------------------

    def spec(self) -> SpecAst:
        rules, mappings, constraints, objectives = [], [], [], []
        global_obj: GlobalObjectiveDecl | None = None
        while self.current.kind != "EOF":
            tok = self.current
            if tok.kind == "rule":
                rules.append(self.rule_decl())
            elif tok.kind == "mapping":
                mappings.append(self.mapping_decl())
            elif tok.kind == "constraint":
                constraints.append(self.constraint_decl())
            elif tok.kind == "objective":
                objectives.append(self.objective_decl())
            elif tok.kind == "global":
                decl = self.global_objective_decl()
                if global_obj is not None:
                    raise DslSyntaxError("duplicate global objective", tok.line, tok.col)
                global_obj = decl
            else:
                raise DslSyntaxError(
                    f"expected 'rule', 'mapping', 'constraint', 'objective' or "
                    f"'global', got {tok.shown()}", tok.line, tok.col)
        if global_obj is None:
            end = self.current
            raise DslSyntaxError("missing global objective", end.line, end.col)
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
            section = self.expect("nodes", "edges", "condition", "actions")
            self.expect("{")
            if section.kind == "nodes":
                while not self.accept("}"):
                    n = self.ident("pattern node name")
                    self.expect(":")
                    t = self.ident("node type")
                    nodes.append(PatternNode(n.value, t.value, _pos(n)))
            elif section.kind == "edges":
                while not self.accept("}"):
                    n = self.ident("pattern edge name")
                    self.expect(":")
                    t = self.ident("edge type")
                    src, tgt = self.endpoints("pattern node")
                    edges.append(PatternEdge(n.value, t.value, src, tgt, _pos(n)))
            elif section.kind == "condition":
                condition = self.expression()
                self.expect("}")
            else:
                while not self.accept("}"):
                    actions.append(self.action())
        return Rule(name.value,
                    Pattern(name.value, tuple(nodes), tuple(edges), condition),
                    tuple(actions), _pos(start))

    def action(self):
        tok = self.expect("create", "delete", "set")
        if tok.kind == "create":
            kind = self.expect("edge", "node")
            if kind.kind == "edge":
                t = self.ident("edge type")
                return CreateEdgeAction(t.value, *self.endpoints("node"), _pos(tok))
            name = self.ident("new node name")
            self.expect(":")
            t = self.ident("node type")
            inits = []
            self.expect("{")
            while not self.accept("}"):
                attr = self.ident("attribute name")
                self.expect(":=")
                inits.append((attr.value, self.expression()))
            return CreateNodeAction(name.value, t.value, tuple(inits), _pos(tok))
        if tok.kind == "delete":
            kind = self.expect("edge", "node")
            name = self.ident()
            if kind.kind == "edge":
                return DeleteEdgeAction(name.value, _pos(tok))
            return DeleteNodeAction(name.value, _pos(tok))
        node = self.ident("pattern node")
        self.expect(".")
        attr = self.ident("attribute name")
        self.expect(":=")
        return SetAttrAction(node.value, attr.value, self.expression(), _pos(tok))

    def endpoints(self, what: str) -> tuple[str, str]:
        """An edge's `(src -> tgt)`, each end a `what`."""
        self.expect("(")
        src = self.ident(f"source {what}")
        self.expect("->")
        tgt = self.ident(f"target {what}")
        self.expect(")")
        return src.value, tgt.value

    def mapping_decl(self) -> MappingDecl:
        start = self.expect("mapping")
        name = self.ident("mapping name")
        self.expect("with")
        rule = self.ident("rule name")
        self.expect(";")
        return MappingDecl(name.value, rule.value, _pos(start))

    def context(self) -> tuple[str, str]:
        kind = self.expect("class", "pattern", "mapping")
        self.expect("::")
        target = self.ident("context target")
        return kind.kind, target.value

    def constraint_decl(self) -> ConstraintDecl:
        start = self.expect("constraint")
        self.expect("->")
        kind, target = self.context()
        return ConstraintDecl(kind, target, self.body(), _pos(start))

    def objective_decl(self) -> ObjectiveDecl:
        start = self.expect("objective")
        name = self.ident("objective name")
        self.expect("->")
        kind, target = self.context()
        return ObjectiveDecl(name.value, kind, target, self.body(), _pos(start))

    def global_objective_decl(self) -> GlobalObjectiveDecl:
        start = self.expect("global")
        self.expect("objective")
        self.expect(":")
        sense = self.expect("min", "max")
        return GlobalObjectiveDecl(sense.kind, self.body(), _pos(start))

    def body(self):
        """The `{ expression }` body of a constraint or an objective."""
        self.expect("{")
        expr = self.expression()
        self.expect("}")
        return expr

    # -- expressions ------------------------------------------------------------

    def limit(self, height: int, tok: Token) -> int:
        """`height`, unless an expression that high at `tok` is too deep."""
        if height > MAX_DEPTH:
            raise DslSyntaxError(f"expression nests more than {MAX_DEPTH} levels deep",
                                 tok.line, tok.col)
        return height

    def nested(self, tok: Token, parse):
        """`parse()` one level below `tok`. The level counts on the way down,
        which bounds the parser's recursion, and in the height of the result."""
        self.depth = self.limit(self.depth + 1, tok)
        node = parse()
        self.depth -= 1
        self.height = self.limit(self.height + 1, tok)
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
            op = self.current
            level = _LEVELS.get(op.kind, 0)
            if not min_level <= level <= max_level:
                self.height = height
                return left
            self.advance()
            right = self.expression(level + 1)
            height = self.limit(max(height, self.height) + 1, op)
            if level == _REL_LEVEL:
                left, max_level = Rel(op.kind, left, right, _pos(op)), level - 1
            else:
                left, max_level = Binary(op.kind, left, right, _pos(op)), level

    def unary(self):
        tok = self.current
        if tok.kind == "!" or tok.kind == "-":
            self.advance()
            return Unary(tok.kind, self.nested(tok, self.unary), _pos(tok))
        if tok.kind in _FUNCTIONS:
            self.advance()
            self.expect("(")
            arg = self.nested(tok, self.expression)
            self.expect(")")
            return Unary(tok.kind, arg, _pos(tok))
        return self.postfix()

    def postfix(self):
        expr = self.primary()
        while self.current.kind == ".":
            dot = self.advance()
            self.height = self.limit(self.height + 1, dot)
            if self.current.kind == "nodes" and self.peek().kind == "(":
                self.advance()
                self.expect("(")
                self.expect(")")
                self.expect(".")
                node = self.ident("pattern node name")
                expr = NodesNav(expr, node.value, _pos(dot))
            else:
                attr = self.ident("attribute name")
                expr = AttrRef(expr, attr.value, _pos(dot))
        return expr

    def primary(self):
        tok = self.current
        self.height = 0
        if tok.kind == "INT" or tok.kind == "REAL":
            self.advance()
            return Num(tok.value, _pos(tok))
        if tok.kind == "true" or tok.kind == "false":
            self.advance()
            return BoolLit(tok.kind == "true", _pos(tok))
        if tok.kind == "STRING":
            self.advance()
            return StrLit(tok.value, _pos(tok))
        if tok.kind == "(":
            self.advance()
            inner = self.nested(tok, self.expression)
            self.expect(")")
            return inner
        if tok.kind == "self":
            self.advance()
            return SelfRef(_pos(tok))
        if tok.kind == "mappings":
            return self.set_sum()
        if tok.kind == "IDENT":
            self.advance()
            return Name(tok.value, _pos(tok))
        raise DslSyntaxError(f"expected an expression, got {tok.shown()}",
                             tok.line, tok.col)

    def set_sum(self) -> SetSum:
        start = self.expect("mappings")
        self.expect(".")
        mapping = self.ident("mapping name")
        filter_var = filter_pred = None
        filter_height = 0
        self.expect("->")
        head = self.ident("'filter' or 'sum'")
        if head.value == "filter":
            self.expect("(")
            var = self.ident("filter variable")
            self.expect("|")
            filter_var, filter_pred = var.value, self.nested(start, self.expression)
            filter_height = self.height
            self.expect(")")
            self.expect("->")
            head = self.ident("'sum'")
        if head.value != "sum":
            raise DslSyntaxError(f"expected 'sum', got {head.value!r}",
                                 head.line, head.col)
        self.expect("(")
        var = self.ident("sum variable")
        self.expect("|")
        body = self.nested(start, self.expression)
        self.height = max(self.height, filter_height)
        self.expect(")")
        return SetSum(mapping.value, filter_var, filter_pred, var.value, body,
                      _pos(start))


def parse(text: str) -> SpecAst:
    """Parse a complete specification document."""
    return _Parser(text).spec()


def parse_expression(text: str):
    """Parse a single expression: the API's way to build a `Pattern` condition."""
    p = _Parser(text)
    expr = p.expression()
    p.expect("EOF")
    return expr
