"""Graph patterns, rewrite rules, batch subgraph matching, rule application.

A match (`model.Match`) binds pattern nodes to graph nodes injectively,
and the attribute condition holds under the binding. Its one structural
rule: where the pattern has k edges of a type from one node to another
(`Pattern.edge_counts`), the graph has at least k edges of that type
between the bound nodes. `find_matches` is the only maker of matches; it
is exhaustive and deterministic: results come back sorted by their bound id
sets. A pattern compiles its condition, and a rule its action values, once,
on first use. An error while evaluating either is a PatternError that names
the rule and the binding. The parser builds rules directly; their `pos`
fields locate diagnostics and, as in the AST, take no part in equality.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property

from .lang import ast as A
from .lang.eval import EvalError, compile_expr
from .model import Edge, Graph, GraphDelta, Match, Node


class PatternError(Exception):
    pass


class StaleMatchError(PatternError):
    """The match no longer holds on the current graph; the caller must rematch."""


@dataclass(frozen=True)
class PatternNode:
    name: str
    type: str
    pos: A.Pos = A.pos_field()


@dataclass(frozen=True)
class PatternEdge:
    name: str
    type: str
    src: str
    tgt: str
    pos: A.Pos = A.pos_field()


@dataclass(frozen=True)
class Pattern:
    name: str
    nodes: tuple[PatternNode, ...]
    edges: tuple[PatternEdge, ...] = ()
    condition: object | None = None  # variable-free boolean Expr

    def node_names(self) -> list[str]:
        return [n.name for n in self.nodes]

    @cached_property
    def compiled_condition(self):
        """The condition as a closure `f(env, graph)`; None without one."""
        return None if self.condition is None else compile_expr(self.condition)

    @cached_property
    def edge_counts(self) -> Counter:
        """How many edges of each `(type, src, tgt)` the pattern has, in edge
        order; a match must realize each by as many distinct graph edges."""
        return Counter((pe.type, pe.src, pe.tgt) for pe in self.edges)


@dataclass(frozen=True)
class Rule:
    name: str
    lhs: Pattern
    actions: tuple[object, ...] = ()
    pos: A.Pos = A.pos_field()

    @cached_property
    def compiled_actions(self) -> tuple:
        """Each action with its value closures: `(attr, f)` pairs for a created
        node, `f` for a `set`, None for the other actions."""
        out = []
        for action in self.actions:
            if isinstance(action, A.CreateNodeAction):
                out.append((action, tuple((attr, compile_expr(expr))
                                          for attr, expr in action.attr_inits)))
            elif isinstance(action, A.SetAttrAction):
                out.append((action, compile_expr(action.value)))
            else:
                out.append((action, None))
        return tuple(out)


def _where(rule: str, what: str, binding: dict[str, str]) -> str:
    """Where an evaluation error happened: `rule 'r', condition on a=n1 b=n2`."""
    nodes = " ".join(f"{k}={v}" for k, v in sorted(binding.items()))
    return f"rule {rule!r}, {what}" + (f" on {nodes}" if nodes else "")


def _condition_holds(g: Graph, p: Pattern, binding: dict[str, str]) -> bool:
    """Whether `p`'s condition holds on `binding`, every bound id a node of `g`."""
    condition = p.compiled_condition
    if condition is None:
        return True
    env = {name: g.nodes[gid] for name, gid in binding.items()}
    result = condition(env, g)
    if not isinstance(result, bool):
        raise PatternError(f"pattern {p.name!r}: condition is not boolean")
    return result


def _search_order(p: Pattern, pool_size: dict[str, int]) -> list[tuple]:
    """The order in which `find_matches` binds the nodes of `p`, most
    constrained first: the node with the most pattern edges to nodes already
    bound, then the smallest candidate pool, then the name. Which node that
    is depends only on which nodes are bound, so every branch of the search
    binds the nodes in this one order.

    Each step is `(name, anchors, checks)`, read from `Pattern.edge_counts`:
    `anchors` are the kinds of edge to bound nodes that can supply
    candidates, as `(edge type, outgoing, other node)`; `checks` are the
    kinds a candidate must realize once it is bound, as `(edge type, source,
    target, k)`: every kind between it and a node bound before it, and its
    self-loops. A step with one anchor of k = 1 takes its candidates along
    that edge, so the edge is not checked again.
    """
    bound: set[str] = set()

    def anchors(name: str) -> list[tuple]:
        """`((edge type, outgoing, other node), k)` per kind of edge between
        `name` and a bound node."""
        out = []
        for (edge_type, src, tgt), k in p.edge_counts.items():
            far = tgt if src == name else src
            if name in (src, tgt) and far in bound:
                out.append(((edge_type, src == name, far), k))
        return out

    def score(name: str):
        return (-sum(k for _, k in anchors(name)), pool_size[name], name)

    steps = []
    for _ in p.nodes:
        name = min((n.name for n in p.nodes if n.name not in bound), key=score)
        given = anchors(name)
        bound.add(name)
        checks = [(*key, k) for key, k in p.edge_counts.items()
                  if name in key[1:] and key[1] in bound and key[2] in bound]
        if len(given) == 1 and given[0][1] == 1:
            (edge_type, outgoing, far), _ = given[0]
            checks.remove((edge_type, name, far, 1) if outgoing else (edge_type, far, name, 1))
        steps.append((name, tuple(anchor for anchor, _ in given), tuple(checks)))
    return steps


def find_matches(g: Graph, p: Pattern) -> list[Match]:
    """All matches of `p` in `g`, sorted by bound ids.

    Backtracking assignment in one search order fixed per call (see
    `_search_order`): a node adjacent to bound nodes takes its candidates
    from the adjacency index, along the edge that gives the fewest, and a
    candidate is kept only if the graph has, for each kind of pattern edge
    the step checks, at least as many edges as `Pattern.edge_counts` says.
    A complete binding then realizes every pattern edge and is tested
    against the condition. An EvalError in the condition becomes a
    PatternError naming the rule and the binding.
    """
    pools: dict[str, list[str]] = {}
    for pn in p.nodes:
        pools[pn.name] = [n.id for n in g.nodes_of_type(pn.type)]
        if not pools[pn.name]:
            return []
    steps = _search_order(p, {name: len(pool) for name, pool in pools.items()})
    members = {name: set(pool) for name, pool in pools.items()}
    results: list[Match] = []
    binding: dict[str, str] = {}
    used: set[str] = set()
    complete = len(steps)

    def candidates(name: str, anchors: tuple) -> list[str]:
        best: list[str] | None = None
        member = members[name]
        for edge_type, outgoing, other in anchors:
            anchor = binding[other]
            if outgoing:
                cands = sorted({e.src for e in g.in_edges(anchor, edge_type) if e.src in member})
            else:
                cands = sorted({e.tgt for e in g.out_edges(anchor, edge_type) if e.tgt in member})
            if best is None or len(cands) < len(best):
                best = cands
        return best

    def backtrack(depth: int):
        if depth == complete:
            if _condition_holds(g, p, binding):
                results.append(Match(p, dict(sorted(binding.items()))))
            return
        name, anchors, checks = steps[depth]
        for gid in candidates(name, anchors) if anchors else pools[name]:
            if gid in used:
                continue
            binding[name] = gid
            if all(g.edge_count(t, binding[s], binding[u]) >= k for t, s, u, k in checks):
                used.add(gid)
                backtrack(depth + 1)
                used.discard(gid)
            del binding[name]

    try:
        backtrack(0)
    except EvalError as exc:
        # backtracking stops at the error, so `binding` is the one it failed on
        raise PatternError(f"{_where(p.name, 'condition', binding)}: {exc}") from None
    order = p.node_names()

    def key(m: Match):
        return sorted(m.binding.values()), tuple(m.binding[n] for n in order)
    results.sort(key=key)
    return results


def revalidate(g: Graph, m: Match) -> bool:
    """True iff the match still holds on `g` (structure, typing, condition)."""
    p = m.pattern
    binding = m.binding
    seen = set()
    for pn in p.nodes:
        gid = binding.get(pn.name)
        if gid is None or gid in seen:
            return False
        seen.add(gid)
        node = g.nodes.get(gid)
        if node is None or not g.mm.conforms(node.type, pn.type):
            return False
    if not all(g.edge_count(t, binding[s], binding[u]) >= k
               for (t, s, u), k in p.edge_counts.items()):
        return False
    try:
        return _condition_holds(g, p, binding)
    except EvalError:
        return False


def _fresh_id(base: str, taken) -> str:
    if base not in taken:
        return base
    k = 1
    while f"{base}_{k}" in taken:
        k += 1
    return f"{base}_{k}"


def apply_rule(g: Graph, r: Rule, m: Match) -> GraphDelta:
    """Evaluate the rule's actions on a valid match and return the delta.

    Attribute expressions see the pre-application graph, and a node the rule
    creates with its creation values. An int stored in a `real` attribute
    becomes a float. Raises StaleMatchError when the match no longer holds,
    and PatternError naming the rule, the action and the binding when an
    action value cannot be evaluated or stored.
    """
    if m.rule != r.lhs.name:
        raise PatternError(f"match of {m.rule!r} applied to rule {r.name!r}")
    if not revalidate(g, m):
        raise StaleMatchError(f"match of {r.name!r} is stale: {m.binding}")
    env: dict[str, object] = {name: g.nodes[gid] for name, gid in m.binding.items()}
    created_nodes: list[Node] = []
    created_edges: list[Edge] = []
    deleted_edges: list[str] = []
    deleted_nodes: list[str] = []
    attr_updates: list[tuple[str, str, object]] = []
    taken_nodes = set(g.nodes)
    taken_edges = set(g.edges)

    def node_of(name: str) -> Node:
        node = env.get(name)
        if not isinstance(node, Node):
            raise PatternError(f"rule {r.name!r}: unknown node {name!r} in action")
        return node

    def value_of(compiled, what: str, node_type: str, attr: str):
        """The value an action stores in `attr` of a `node_type` node."""
        try:
            value = compiled(env, g)
            if isinstance(value, int) and g.mm.attrs_of(node_type).get(attr) == "real":
                value = float(value)
        except EvalError as exc:
            raise PatternError(f"{_where(r.name, what, m.binding)}: {exc}") from None
        except OverflowError:  # an int beyond the float range
            raise PatternError(f"{_where(r.name, what, m.binding)}: value overflows "
                               f"the float range of real attribute {attr!r}") from None
        return value

    for action, compiled in r.compiled_actions:
        if isinstance(action, A.CreateNodeAction):
            nid = _fresh_id(f"{r.name}_{action.name}", taken_nodes)
            taken_nodes.add(nid)
            attrs = {attr: value_of(value_fn, f"action 'create node {action.name}, {attr}'",
                                    action.type, attr)
                     for attr, value_fn in compiled}
            env[action.name] = Node(nid, action.type, attrs)
            created_nodes.append(env[action.name])
        elif isinstance(action, A.CreateEdgeAction):
            src, tgt = node_of(action.src).id, node_of(action.tgt).id
            eid = _fresh_id(f"{action.edge_type}_{src}_{tgt}", taken_edges)
            taken_edges.add(eid)
            created_edges.append(Edge(eid, action.edge_type, src, tgt))
        elif isinstance(action, A.DeleteEdgeAction):
            pe = next((e for e in r.lhs.edges if e.name == action.name), None)
            if pe is None:
                raise PatternError(f"rule {r.name!r}: no LHS edge {action.name!r}")
            src, tgt = node_of(pe.src).id, node_of(pe.tgt).id
            eid = next((e.id for e in g.out_edges(src, pe.type)
                        if e.tgt == tgt and e.id not in deleted_edges), None)
            if eid is None:
                raise StaleMatchError(
                    f"rule {r.name!r}: edge {action.name!r} vanished before deletion")
            deleted_edges.append(eid)
        elif isinstance(action, A.DeleteNodeAction):
            deleted_nodes.append(node_of(action.name).id)
        elif isinstance(action, A.SetAttrAction):
            node = node_of(action.node)
            value = value_of(compiled, f"action 'set {action.node}.{action.attr}'",
                             node.type, action.attr)
            attr_updates.append((node.id, action.attr, value))
        else:
            raise PatternError(f"rule {r.name!r}: unsupported action {action!r}")
    return GraphDelta(tuple(created_nodes), tuple(created_edges),
                      tuple(deleted_edges), tuple(deleted_nodes),
                      tuple(attr_updates))
