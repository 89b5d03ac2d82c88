"""Typed attributed graphs: schema, instances, matches, deltas, text format.

A model document is a sequence of brace-delimited sections. The canonical key
order is `nodetypes`, `edgetypes`, `nodes`, `edges`; a file may hold only the
schema sections, only the instance sections, or both::

    nodetypes {
      nodetype { name: SubstrateServer  supertype: SubstrateElement
                 attrs { cpu: int  resCpu: int } }
    }
    edgetypes {
      edgetype { name: host  src: VirtualElement  tgt: SubstrateElement }
    }
    nodes {
      node { id: srv1  type: SubstrateServer  attrs { cpu: 32  resCpu: 32 } }
    }
    edges {
      edge { id: h1  type: host  src: vsrv1  tgt: srv1 }
    }

Attribute kinds are `int`, `real`, `bool`, `string`. `//` starts a comment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

from .lang.lexer import LocatedError, TokenStream, is_word, quote

if TYPE_CHECKING:
    from .pattern import Pattern

ATTR_KINDS = ("int", "real", "bool", "string")


class ModelError(Exception):
    pass


class ModelParseError(ModelError, LocatedError):
    pass


class ConformanceError(ModelError):
    """Raised when a graph, metamodel, or delta violates its invariants."""

    def __init__(self, message: str, offender: str | None = None):
        super().__init__(message)
        self.offender = offender


@dataclass(frozen=True)
class AttrDecl:
    name: str
    kind: str


@dataclass(frozen=True)
class NodeType:
    name: str
    attributes: tuple[AttrDecl, ...] = ()
    supertype: str | None = None


@dataclass(frozen=True)
class EdgeType:
    name: str
    source_type: str
    target_type: str


class Metamodel:
    """Schema for instance graphs: node types (single inheritance) and edge types."""

    def __init__(self, node_types: list[NodeType], edge_types: list[EdgeType]):
        self.node_types: dict[str, NodeType] = {}
        self.edge_types: dict[str, EdgeType] = {}
        for nt in node_types:
            if nt.name in self.node_types:
                raise ConformanceError(f"duplicate type name {nt.name!r}", nt.name)
            self.node_types[nt.name] = nt
        for et in edge_types:
            if et.name in self.node_types or et.name in self.edge_types:
                raise ConformanceError(f"duplicate type name {et.name!r}", et.name)
            self.edge_types[et.name] = et
        # each node type's chain: itself, then its supertypes up to the root
        self._chain: dict[str, tuple[str, ...]] = {}
        for name, nt in self.node_types.items():
            chain = [name]
            cur = nt.supertype
            while cur is not None:
                if cur not in self.node_types:
                    raise ConformanceError(
                        f"node type {name!r} has undeclared supertype {cur!r}", name)
                if cur in chain:
                    raise ConformanceError(f"cyclic supertype chain at {name!r}", name)
                chain.append(cur)
                cur = self.node_types[cur].supertype
            self._chain[name] = tuple(chain)
        self._attrs = {name: self._collect_attrs(chain)
                       for name, chain in self._chain.items()}
        for et in self.edge_types.values():
            for endpoint in (et.source_type, et.target_type):
                if endpoint not in self.node_types:
                    raise ConformanceError(
                        f"edge type {et.name!r} references undeclared node type {endpoint!r}",
                        et.name)

    def _collect_attrs(self, chain: tuple[str, ...]) -> dict[str, str]:
        attrs: dict[str, str] = {}
        for name in reversed(chain):  # supertypes first, declaration order within
            for a in self.node_types[name].attributes:
                if a.kind not in ATTR_KINDS:
                    raise ConformanceError(
                        f"attribute {name}.{a.name} has unknown kind {a.kind!r}", name)
                if a.name in attrs:
                    raise ConformanceError(
                        f"attribute {a.name!r} redeclared in {name!r}", name)
                attrs[a.name] = a.kind
        return attrs

    def attrs_of(self, type_name: str) -> dict[str, str]:
        """All attributes of a node type, inherited included, name -> kind."""
        return self._attrs[type_name]

    def conforms(self, sub: str, sup: str) -> bool:
        """True iff node type `sub` equals `sup` or inherits from it."""
        return sup in self._chain[sub]

    def __eq__(self, other):
        return (isinstance(other, Metamodel)
                and self.node_types == other.node_types
                and self.edge_types == other.edge_types)


@dataclass(frozen=True)
class Node:
    id: str
    type: str
    attrs: dict


@dataclass(frozen=True, eq=False)
class Match:
    """An injective binding of one pattern's nodes to graph nodes, as
    `pattern.find_matches` makes it; it lives next to `Node` so that the
    evaluator knows both by type. Two matches are equal when they are of the
    same rule and bind the same nodes."""

    pattern: Pattern
    binding: dict[str, str]  # pattern node name -> graph node id, in name order

    @property
    def rule(self) -> str:
        return self.pattern.name

    def __eq__(self, other):
        if not isinstance(other, Match):
            return NotImplemented
        return self.pattern.name == other.pattern.name and self.binding == other.binding

    def __hash__(self):
        return hash((self.pattern.name, frozenset(self.binding.items())))


@dataclass(frozen=True)
class Edge:
    id: str
    type: str
    src: str
    tgt: str


class Graph:
    """Instance graph conforming to a metamodel.

    Treated as immutable once constructed: only `__init__` writes `nodes`
    and `edges`, and all mutation goes through `apply_delta`, which returns a
    fresh graph. The adjacency indexes and the per-type node pools are built
    lazily and cached, which is safe under that contract.
    """

    def __init__(self, mm: Metamodel, nodes: list[Node] = (), edges: list[Edge] = (),
                 validate: bool = True):
        self.mm = mm
        self.nodes: dict[str, Node] = {}
        self.edges: dict[str, Edge] = {}
        for nd in nodes:
            if nd.id in self.nodes:
                raise ConformanceError(f"duplicate node id {nd.id!r}", nd.id)
            self.nodes[nd.id] = nd
        for e in edges:
            if e.id in self.edges:
                raise ConformanceError(f"duplicate edge id {e.id!r}", e.id)
            self.edges[e.id] = e
        if validate:
            validate_graph(self)

    def attr(self, node_id: str, name: str):
        return self.nodes[node_id].attrs[name]

    @cached_property
    def _pools(self) -> dict[str, tuple[Node, ...]]:
        """Node type -> the nodes conforming to it, by id."""
        pools: dict[str, list[Node]] = {}
        for i in sorted(self.nodes):
            for t in self.mm._chain[self.nodes[i].type]:
                pools.setdefault(t, []).append(self.nodes[i])
        return {t: tuple(pool) for t, pool in pools.items()}

    def nodes_of_type(self, type_name: str) -> tuple[Node, ...]:
        """Nodes whose type conforms to `type_name`, sorted by id."""
        return self._pools.get(type_name, ())

    @cached_property
    def _adjacency(self) -> tuple[dict[str, dict[str, tuple[Edge, ...]]], ...]:
        """(outgoing, incoming): edge type -> node id -> its edges, by edge id."""
        out: dict[str, dict[str, list[Edge]]] = {t: {} for t in self.mm.edge_types}
        inc: dict[str, dict[str, list[Edge]]] = {t: {} for t in self.mm.edge_types}
        for eid in sorted(self.edges):
            e = self.edges[eid]
            out[e.type].setdefault(e.src, []).append(e)
            inc[e.type].setdefault(e.tgt, []).append(e)
        return tuple({t: {n: tuple(es) for n, es in by_node.items()}
                      for t, by_node in index.items()} for index in (out, inc))

    def out_edges(self, node_id: str, edge_type: str) -> tuple[Edge, ...]:
        """The edges of type `edge_type` leaving `node_id`, by edge id."""
        return self._adjacency[0].get(edge_type, {}).get(node_id, ())

    def in_edges(self, node_id: str, edge_type: str) -> tuple[Edge, ...]:
        """The edges of type `edge_type` entering `node_id`, by edge id."""
        return self._adjacency[1].get(edge_type, {}).get(node_id, ())

    def edge_count(self, edge_type: str, src: str, tgt: str) -> int:
        """How many edges of type `edge_type` go from `src` to `tgt`."""
        return sum(e.tgt == tgt for e in self.out_edges(src, edge_type))

    def structurally_equal(self, other: "Graph") -> bool:
        return self.nodes == other.nodes and self.edges == other.edges


@dataclass(frozen=True)
class GraphDelta:
    """A batch of graph modifications; node deletion cascades to incident edges."""

    created_nodes: tuple[Node, ...] = ()
    created_edges: tuple[Edge, ...] = ()
    deleted_edges: tuple[str, ...] = ()
    deleted_nodes: tuple[str, ...] = ()
    attr_updates: tuple[tuple[str, str, object], ...] = ()


def _value_conforms(value, kind: str) -> bool:
    if kind == "int":
        return isinstance(value, int) and not isinstance(value, bool)
    if kind == "real":  # an int is exact; a float must be finite to be written back
        return ((isinstance(value, int) and not isinstance(value, bool))
                or (isinstance(value, float) and math.isfinite(value)))
    if kind == "bool":
        return isinstance(value, bool)
    if kind == "string":
        return isinstance(value, str)
    return False


def validate_graph(g: Graph) -> None:
    """Re-check full conformance of `g` against its metamodel; raise on violation."""
    mm = g.mm
    for nd in g.nodes.values():
        if nd.type not in mm.node_types:
            raise ConformanceError(f"node {nd.id!r} has undeclared type {nd.type!r}", nd.id)
        declared = mm.attrs_of(nd.type)
        for name in declared:
            if name not in nd.attrs:
                raise ConformanceError(f"node {nd.id!r} missing attribute {name!r}", nd.id)
        for name, value in nd.attrs.items():
            if name not in declared:
                raise ConformanceError(f"node {nd.id!r} has undeclared attribute {name!r}", nd.id)
            if not _value_conforms(value, declared[name]):
                raise ConformanceError(
                    f"node {nd.id!r} attribute {name!r} is not a {declared[name]}", nd.id)
    for e in g.edges.values():
        et = mm.edge_types.get(e.type)
        if et is None:
            raise ConformanceError(f"edge {e.id!r} has undeclared type {e.type!r}", e.id)
        for endpoint, declared_type, role in ((e.src, et.source_type, "source"),
                                              (e.tgt, et.target_type, "target")):
            nd = g.nodes.get(endpoint)
            if nd is None:
                raise ConformanceError(
                    f"edge {e.id!r} {role} references missing node {endpoint!r}", e.id)
            if not mm.conforms(nd.type, declared_type):
                raise ConformanceError(
                    f"edge {e.id!r} {role} node {endpoint!r} does not conform to "
                    f"{declared_type!r}", e.id)


def apply_delta(g: Graph, d: GraphDelta) -> Graph:
    """Apply `d` to `g` and return the modified graph.

    Order of application: node creations, edge creations, edge deletions,
    node deletions (incident edges removed implicitly), attribute updates.
    The result is re-validated; a nonconforming outcome raises.
    """
    nodes = dict(g.nodes)
    edges = dict(g.edges)
    for nd in d.created_nodes:
        if nd.id in nodes:
            raise ConformanceError(f"delta creates node with taken id {nd.id!r}", nd.id)
        nodes[nd.id] = Node(nd.id, nd.type, dict(nd.attrs))
    for e in d.created_edges:
        if e.id in edges:
            raise ConformanceError(f"delta creates edge with taken id {e.id!r}", e.id)
        edges[e.id] = e
    for eid in d.deleted_edges:
        if eid not in edges:
            raise ConformanceError(f"delta deletes missing edge {eid!r}", eid)
        del edges[eid]
    for nid in d.deleted_nodes:
        if nid not in nodes:
            raise ConformanceError(f"delta deletes missing node {nid!r}", nid)
        del nodes[nid]
        # single-pushout: dangling incident edges go with the node
        for eid in [e.id for e in edges.values() if e.src == nid or e.tgt == nid]:
            del edges[eid]
    for nid, attr, value in d.attr_updates:
        if nid not in nodes:
            raise ConformanceError(f"delta updates attribute of missing node {nid!r}", nid)
        nd = nodes[nid]
        nodes[nid] = Node(nd.id, nd.type, {**nd.attrs, attr: value})
    return Graph(g.mm, list(nodes.values()), list(edges.values()))


# --- text format -------------------------------------------------------------

def _parse_value(ts: TokenStream):
    kind = ts.kind
    if kind in ("INT", "REAL", "STRING"):
        return ts.values[ts.advance()]
    if kind == "true" or kind == "false":
        ts.advance()
        return kind == "true"
    if kind == "-":
        ts.advance()
        return -ts.values[ts.expect("INT", "REAL")]
    raise ts.error_at(ts.i, f"expected attribute value, got {ts.shown(ts.i)}")


def _parse_name(ts: TokenStream) -> str:
    kind = ts.kind
    if kind in ("IDENT", "STRING") or kind in _KEYWORDS:
        return str(ts.values[ts.advance()])
    raise ts.error_at(ts.i, f"expected a name, got {ts.shown(ts.i)}")


def _parse_attr_block(ts: TokenStream, parse_kind: bool):
    out = {}
    ts.expect("{")
    while not ts.accept("}"):
        at = ts.i
        name = _parse_name(ts)
        if name in out:
            raise ts.error_at(at, f"duplicate attribute {name!r}")
        ts.expect(":")
        if parse_kind:
            at = ts.expect("IDENT")
            kind = ts.values[at]
            if kind not in ATTR_KINDS:
                raise ts.error_at(at, f"unknown attribute kind {kind!r}")
            out[name] = kind
        else:
            out[name] = _parse_value(ts)
    return out


# section -> (record keyword, keys a record may hold, keys it must hold)
_RECORDS = {
    "nodetypes": ("nodetype", ("name", "supertype", "attrs"), ("name",)),
    "edgetypes": ("edgetype", ("name", "src", "tgt"), ("name", "src", "tgt")),
    "nodes": ("node", ("id", "type", "attrs"), ("id", "type")),
    "edges": ("edge", ("id", "type", "src", "tgt"), ("id", "type", "src", "tgt")),
}
_KEYWORDS = frozenset({"true", "false"}.union(
    *((section, keyword, *keys) for section, (keyword, keys, _) in _RECORDS.items())))


def _parse_record(ts: TokenStream, keyword: str, allowed, required) -> dict:
    start = ts.expect(keyword)
    ts.expect("{")
    rec: dict = {}
    while not ts.accept("}"):
        at = ts.advance()
        if ts.kinds[at] == "EOF":
            raise ts.error_at(at, f"unexpected end of input in {keyword}")
        key = str(ts.values[at])
        if key not in allowed:
            raise ts.error_at(at, f"unexpected key {key!r} in {keyword}")
        if key in rec:
            raise ts.error_at(at, f"duplicate key {key!r} in {keyword}")
        if key == "attrs":
            rec[key] = _parse_attr_block(ts, parse_kind=(keyword == "nodetype"))
        else:
            ts.expect(":")
            rec[key] = _parse_name(ts)
    for key in required:
        if key not in rec:
            raise ts.error_at(start, f"{keyword} needs {key!r}")
    return rec


def _parse_document(text: str):
    ts = TokenStream(text, ModelParseError, _KEYWORDS)
    records: dict[str, list[dict]] = {section: [] for section in _RECORDS}
    while ts.kind != "EOF":
        section = ts.kinds[ts.expect(*_RECORDS)]
        ts.expect("{")
        while not ts.accept("}"):
            records[section].append(_parse_record(ts, *_RECORDS[section]))
    node_types = [NodeType(r["name"], tuple(AttrDecl(*a) for a in r.get("attrs", {}).items()),
                           r.get("supertype"))
                  for r in records["nodetypes"]]
    edge_types = [EdgeType(r["name"], r["src"], r["tgt"]) for r in records["edgetypes"]]
    return node_types, edge_types, records["nodes"], records["edges"]


def load_metamodel(text: str) -> Metamodel:
    """Parse the schema sections of a model document into a validated Metamodel."""
    node_types, edge_types, _, _ = _parse_document(text)
    return Metamodel(node_types, edge_types)


def _graph_of(mm: Metamodel, node_recs: list[dict], edge_recs: list[dict]) -> Graph:
    nodes = [Node(r["id"], r["type"], r.get("attrs", {})) for r in node_recs]
    edges = [Edge(r["id"], r["type"], r["src"], r["tgt"]) for r in edge_recs]
    return Graph(mm, nodes, edges)


def load_graph(text: str, mm: Metamodel) -> Graph:
    """Parse the instance sections of a model document into a conforming Graph."""
    _, _, node_recs, edge_recs = _parse_document(text)
    return _graph_of(mm, node_recs, edge_recs)


def load_model(text: str) -> tuple[Metamodel, Graph]:
    """Parse a document holding both schema and instance sections."""
    node_types, edge_types, node_recs, edge_recs = _parse_document(text)
    mm = Metamodel(node_types, edge_types)
    return mm, _graph_of(mm, node_recs, edge_recs)


def _fmt_name(name: str) -> str:
    return name if is_word(name) and name not in _KEYWORDS else quote(name)


def _fmt_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return quote(value) if isinstance(value, str) else repr(value)


def _fmt_attr(nd: Node, name: str) -> str:
    try:
        return _fmt_value(nd.attrs[name])
    except ValueError:  # an int of more digits than the interpreter converts
        raise ModelError(f"node {nd.id!r} attribute {name!r} is an integer too long "
                         f"to write") from None


def serialize_metamodel(mm: Metamodel) -> str:
    lines = ["nodetypes {"]
    for nt in mm.node_types.values():
        parts = [f"name: {_fmt_name(nt.name)}"]
        if nt.supertype:
            parts.append(f"supertype: {_fmt_name(nt.supertype)}")
        if nt.attributes:
            attrs = "  ".join(f"{_fmt_name(a.name)}: {a.kind}" for a in nt.attributes)
            parts.append("attrs { %s }" % attrs)
        lines.append("  nodetype { %s }" % "  ".join(parts))
    lines.append("}")
    lines.append("edgetypes {")
    for et in mm.edge_types.values():
        lines.append("  edgetype { name: %s  src: %s  tgt: %s }"
                     % (_fmt_name(et.name), _fmt_name(et.source_type),
                        _fmt_name(et.target_type)))
    lines.append("}")
    return "\n".join(lines) + "\n"


def serialize_graph(g: Graph) -> str:
    lines = ["nodes {"]
    for nid in sorted(g.nodes):
        nd = g.nodes[nid]
        parts = [f"id: {_fmt_name(nd.id)}", f"type: {_fmt_name(nd.type)}"]
        declared = g.mm.attrs_of(nd.type)
        if declared:
            attrs = "  ".join(f"{_fmt_name(a)}: {_fmt_attr(nd, a)}" for a in declared)
            parts.append("attrs { %s }" % attrs)
        lines.append("  node { %s }" % "  ".join(parts))
    lines.append("}")
    lines.append("edges {")
    for eid in sorted(g.edges):
        e = g.edges[eid]
        lines.append("  edge { id: %s  type: %s  src: %s  tgt: %s }"
                     % (_fmt_name(e.id), _fmt_name(e.type), _fmt_name(e.src),
                        _fmt_name(e.tgt)))
    lines.append("}")
    return "\n".join(lines) + "\n"


def serialize_model(mm: Metamodel, g: Graph) -> str:
    """Emit schema then instance, with section keys in canonical order."""
    return serialize_metamodel(mm) + serialize_graph(g)
