"""Graph patterns, rewrite rules, batch subgraph matching, rule application.

A match binds pattern nodes to graph nodes injectively; every pattern edge
must be realized by a graph edge of the declared type and the attribute
condition must hold under the binding. `find_matches` is exhaustive and
deterministic: results come back sorted by their bound id sets.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .lang import ast as A
from .lang.eval import EvalError, NodeRef, eval_expr
from .model import Edge, Graph, GraphDelta, Node


class PatternError(Exception):
    pass


class StaleMatchError(PatternError):
    """The match no longer holds on the current graph; the caller must rematch."""


@dataclass(frozen=True)
class PatternNode:
    name: str
    type: str


@dataclass(frozen=True)
class PatternEdge:
    name: str
    type: str
    src: str
    tgt: str


@dataclass(frozen=True)
class Pattern:
    name: str
    nodes: tuple[PatternNode, ...]
    edges: tuple[PatternEdge, ...] = ()
    condition: object | None = None  # variable-free boolean Expr

    def node_names(self) -> list[str]:
        return [n.name for n in self.nodes]


@dataclass(frozen=True)
class Rule:
    name: str
    lhs: Pattern
    actions: tuple[object, ...] = ()


@dataclass(frozen=True)
class Match:
    """An injective binding of one pattern's nodes to graph nodes."""

    rule: str
    bound: tuple[tuple[str, str], ...]  # (pattern node, graph node id), name-sorted
    pattern: Pattern = field(compare=False, repr=False)

    @staticmethod
    def of(pattern: Pattern, binding: dict[str, str]) -> "Match":
        return Match(pattern.name, tuple(sorted(binding.items())), pattern)

    @property
    def binding(self) -> dict[str, str]:
        return dict(self.bound)

    def bound_ids(self) -> list[str]:
        return [gid for _, gid in self.bound]


def _condition_holds(g: Graph, p: Pattern, binding: dict[str, str]) -> bool:
    if p.condition is None:
        return True
    env = {name: NodeRef(gid) for name, gid in binding.items()}
    result = eval_expr(p.condition, env, g)
    if not isinstance(result, bool):
        raise PatternError(f"pattern {p.name!r}: condition is not boolean")
    return result


def _edges_ok(g: Graph, p: Pattern, binding: dict[str, str],
              only_with: str | None = None) -> bool:
    for pe in p.edges:
        if only_with is not None and only_with not in (pe.src, pe.tgt):
            continue
        src = binding.get(pe.src)
        tgt = binding.get(pe.tgt)
        if src is None or tgt is None:
            continue
        if not g.has_edge(pe.type, src, tgt):
            return False
    return True


def find_matches(g: Graph, p: Pattern) -> list[Match]:
    """All matches of `p` in `g`, sorted by bound ids.

    Backtracking assignment, most-constrained pattern node first: prefer
    nodes adjacent to the partial binding (their candidates come from the
    adjacency index), smallest candidate pool breaking ties.
    """
    mm = g.mm
    pools: dict[str, list[str]] = {}
    for pn in p.nodes:
        pools[pn.name] = [n.id for n in g.nodes_of_type(pn.type)]
        if not pools[pn.name]:
            return []
    if not p.nodes:
        return [Match.of(p, {})] if _condition_holds(g, p, {}) else []

    neighbors: dict[str, list[tuple[PatternEdge, bool]]] = {n.name: [] for n in p.nodes}
    for pe in p.edges:
        neighbors[pe.src].append((pe, True))   # outgoing from this node
        neighbors[pe.tgt].append((pe, False))

    ptype = {n.name: n.type for n in p.nodes}
    results: list[Match] = []

    def candidates(name: str, binding: dict[str, str]) -> list[str]:
        best: list[str] | None = None
        for pe, outgoing in neighbors[name]:
            other = pe.tgt if outgoing else pe.src
            anchor = binding.get(other)
            if anchor is None:
                continue
            if outgoing:
                cands = [e.src for e in g.in_edges(anchor, pe.type)]
            else:
                cands = [e.tgt for e in g.out_edges(anchor, pe.type)]
            cands = sorted({c for c in cands
                            if mm.conforms(g.nodes[c].type, ptype[name])})
            if best is None or len(cands) < len(best):
                best = cands
        return best if best is not None else pools[name]

    def pick_next(binding: dict[str, str]) -> str:
        unbound = [n.name for n in p.nodes if n.name not in binding]
        def score(name: str):
            anchored = sum(1 for pe, outgoing in neighbors[name]
                           if (pe.tgt if outgoing else pe.src) in binding)
            return (-anchored, len(pools[name]), name)
        return min(unbound, key=score)

    def backtrack(binding: dict[str, str]):
        if len(binding) == len(p.nodes):
            if _condition_holds(g, p, binding):
                results.append(Match.of(p, binding))
            return
        name = pick_next(binding)
        used = set(binding.values())
        for gid in candidates(name, binding):
            if gid in used:
                continue
            binding[name] = gid
            if _edges_ok(g, p, binding, only_with=name):
                backtrack(binding)
            del binding[name]

    backtrack({})
    order = p.node_names()
    results.sort(key=lambda m: (sorted(m.bound_ids()),
                                tuple(m.binding[n] for n in order)))
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
    if not _edges_ok(g, p, binding):
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


def apply_rule(g: Graph, r: Rule, m: Match, assume_valid: bool = False) -> GraphDelta:
    """Evaluate the rule's actions on a valid match and return the delta.

    Attribute expressions see the pre-application graph. Raises
    StaleMatchError when the match no longer holds. Callers that already know
    the match is untouched (its binding is disjoint from every delta applied
    since it was found) may pass `assume_valid` to skip the recheck.
    """
    if m.rule != r.name and m.rule != r.lhs.name:
        raise PatternError(f"match of {m.rule!r} applied to rule {r.name!r}")
    if not assume_valid and not revalidate(g, m):
        raise StaleMatchError(f"match of {r.name!r} is stale: {m.binding}")
    env: dict[str, object] = {name: NodeRef(gid) for name, gid in m.binding.items()}
    created_nodes: list[Node] = []
    created_edges: list[Edge] = []
    deleted_edges: list[str] = []
    deleted_nodes: list[str] = []
    attr_updates: list[tuple[str, str, object]] = []
    taken_nodes = set(g.nodes)
    taken_edges = set(g.edges)

    def node_id(name: str) -> str:
        ref = env.get(name)
        if not isinstance(ref, NodeRef):
            raise PatternError(f"rule {r.name!r}: unknown node {name!r} in action")
        return ref.id

    for action in r.actions:
        if isinstance(action, A.CreateNodeAction):
            nid = _fresh_id(f"{r.name}_{action.name}", taken_nodes)
            taken_nodes.add(nid)
            attrs = {}
            for attr, expr in action.attr_inits:
                value = eval_expr(expr, env, g)
                kind = g.mm.attrs_of(action.type).get(attr)
                if kind == "real" and isinstance(value, int):
                    value = float(value)
                attrs[attr] = value
            created_nodes.append(Node(nid, action.type, attrs))
            env[action.name] = NodeRef(nid)
        elif isinstance(action, A.CreateEdgeAction):
            src, tgt = node_id(action.src), node_id(action.tgt)
            eid = _fresh_id(f"{action.edge_type}_{src}_{tgt}", taken_edges)
            taken_edges.add(eid)
            created_edges.append(Edge(eid, action.edge_type, src, tgt))
        elif isinstance(action, A.DeleteEdgeAction):
            pe = next((e for e in r.lhs.edges if e.name == action.name), None)
            if pe is None:
                raise PatternError(f"rule {r.name!r}: no LHS edge {action.name!r}")
            src, tgt = node_id(pe.src), node_id(pe.tgt)
            matching = sorted(e.id for e in g.out_edges(src, pe.type)
                              if e.tgt == tgt and e.id not in deleted_edges)
            if not matching:
                raise StaleMatchError(
                    f"rule {r.name!r}: edge {action.name!r} vanished before deletion")
            deleted_edges.append(matching[0])
        elif isinstance(action, A.DeleteNodeAction):
            deleted_nodes.append(node_id(action.name))
        elif isinstance(action, A.SetAttrAction):
            nid = node_id(action.node)
            value = eval_expr(action.value, env, g)
            node_type = g.nodes[nid].type if nid in g.nodes else None
            if node_type is not None:
                kind = g.mm.attrs_of(node_type).get(action.attr)
                if kind == "real" and isinstance(value, int):
                    value = float(value)
            attr_updates.append((nid, action.attr, value))
        else:
            raise PatternError(f"rule {r.name!r}: unsupported action {action!r}")
    return GraphDelta(tuple(created_nodes), tuple(created_edges),
                      tuple(deleted_edges), tuple(deleted_nodes),
                      tuple(attr_updates))
