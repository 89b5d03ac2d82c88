"""Typed attributed graphs: schema, instance graphs, mutation deltas, text format.

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

from dataclasses import dataclass

from .lang.lexer import LexError, TokenStream, tokenize

ATTR_KINDS = ("int", "real", "bool", "string")


class ModelError(Exception):
    pass


class ModelParseError(ModelError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


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
        self._check_supertypes()
        self._attr_cache: dict[str, dict[str, str]] = {}
        for name in self.node_types:
            self._attr_cache[name] = self._collect_attrs(name)
        for et in self.edge_types.values():
            for endpoint in (et.source_type, et.target_type):
                if endpoint not in self.node_types:
                    raise ConformanceError(
                        f"edge type {et.name!r} references undeclared node type {endpoint!r}",
                        et.name)

    def _check_supertypes(self):
        for name, nt in self.node_types.items():
            seen = {name}
            cur = nt.supertype
            while cur is not None:
                if cur not in self.node_types:
                    raise ConformanceError(
                        f"node type {name!r} has undeclared supertype {cur!r}", name)
                if cur in seen:
                    raise ConformanceError(f"cyclic supertype chain at {name!r}", name)
                seen.add(cur)
                cur = self.node_types[cur].supertype

    def _collect_attrs(self, name: str) -> dict[str, str]:
        chain = []
        cur: str | None = name
        while cur is not None:
            chain.append(self.node_types[cur])
            cur = self.node_types[cur].supertype
        attrs: dict[str, str] = {}
        for nt in reversed(chain):  # supertypes first, declaration order within
            for a in nt.attributes:
                if a.kind not in ATTR_KINDS:
                    raise ConformanceError(
                        f"attribute {nt.name}.{a.name} has unknown kind {a.kind!r}", nt.name)
                if a.name in attrs:
                    raise ConformanceError(
                        f"attribute {a.name!r} redeclared in {nt.name!r}", nt.name)
                attrs[a.name] = a.kind
        return attrs

    def attrs_of(self, type_name: str) -> dict[str, str]:
        """All attributes of a node type, inherited included, name -> kind."""
        return self._attr_cache[type_name]

    def conforms(self, sub: str, sup: str) -> bool:
        """True iff node type `sub` equals `sup` or inherits from it."""
        cur: str | None = sub
        while cur is not None:
            if cur == sup:
                return True
            cur = self.node_types[cur].supertype
        return False

    def __eq__(self, other):
        return (isinstance(other, Metamodel)
                and self.node_types == other.node_types
                and self.edge_types == other.edge_types)


@dataclass(frozen=True)
class Node:
    id: str
    type: str
    attrs: dict

    def __eq__(self, other):
        return (isinstance(other, Node) and self.id == other.id
                and self.type == other.type and self.attrs == other.attrs)


@dataclass(frozen=True)
class Edge:
    id: str
    type: str
    src: str
    tgt: str


class Graph:
    """Instance graph conforming to a metamodel.

    Treated as immutable once constructed; all mutation goes through
    `apply_delta`, which returns a fresh graph. Adjacency indexes are built
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
        self._out: dict[str, list[Edge]] | None = None
        self._in: dict[str, list[Edge]] | None = None
        if validate:
            validate_graph(self)

    def attr(self, node_id: str, name: str):
        return self.nodes[node_id].attrs[name]

    def nodes_of_type(self, type_name: str) -> list[Node]:
        """Nodes whose type conforms to `type_name`, sorted by id."""
        return [self.nodes[i] for i in sorted(self.nodes)
                if self.mm.conforms(self.nodes[i].type, type_name)]

    def _index(self):
        if self._out is None:
            out: dict[str, list[Edge]] = {i: [] for i in self.nodes}
            inc: dict[str, list[Edge]] = {i: [] for i in self.nodes}
            for eid in sorted(self.edges):
                e = self.edges[eid]
                out[e.src].append(e)
                inc[e.tgt].append(e)
            self._out = out
            self._in = inc
        return self._out, self._in

    def out_edges(self, node_id: str, edge_type: str | None = None) -> list[Edge]:
        out, _ = self._index()
        es = out.get(node_id, [])
        return es if edge_type is None else [e for e in es if e.type == edge_type]

    def in_edges(self, node_id: str, edge_type: str | None = None) -> list[Edge]:
        _, inc = self._index()
        es = inc.get(node_id, [])
        return es if edge_type is None else [e for e in es if e.type == edge_type]

    def has_edge(self, edge_type: str, src: str, tgt: str) -> bool:
        return any(e.tgt == tgt for e in self.out_edges(src, edge_type))

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

    def is_empty(self) -> bool:
        return not (self.created_nodes or self.created_edges or self.deleted_edges
                    or self.deleted_nodes or self.attr_updates)

    def touched_ids(self) -> set[str]:
        ids = {n.id for n in self.created_nodes}
        ids |= {e.id for e in self.created_edges}
        ids |= {e.src for e in self.created_edges} | {e.tgt for e in self.created_edges}
        ids |= set(self.deleted_edges) | set(self.deleted_nodes)
        ids |= {nid for nid, _, _ in self.attr_updates}
        return ids


def _value_conforms(value, kind: str) -> bool:
    if kind == "int":
        return isinstance(value, int) and not isinstance(value, bool)
    if kind == "real":
        return isinstance(value, (int, float)) and not isinstance(value, bool)
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

_KEYWORDS = frozenset({
    "nodetypes", "edgetypes", "nodes", "edges", "nodetype", "edgetype",
    "node", "edge", "name", "supertype", "attrs", "id", "type", "src", "tgt",
    "true", "false",
})


def _parse_value(ts: TokenStream):
    tok = ts.current
    if tok.kind in ("INT", "REAL", "STRING"):
        ts.advance()
        return tok.value
    if tok.kind == "true":
        ts.advance()
        return True
    if tok.kind == "false":
        ts.advance()
        return False
    if tok.kind == "-":
        ts.advance()
        num = ts.expect("INT", "REAL", error=ModelParseError)
        return -num.value
    raise ModelParseError(f"expected attribute value, got {tok.value!r}", tok.line, tok.col)


def _parse_name(ts: TokenStream) -> str:
    tok = ts.current
    if tok.kind in ("IDENT", "STRING") or tok.kind in _KEYWORDS:
        ts.advance()
        return str(tok.value)
    raise ModelParseError(f"expected a name, got {tok.value!r}", tok.line, tok.col)


def _parse_attr_block(ts: TokenStream, parse_kind: bool):
    out = {}
    ts.expect("{", error=ModelParseError)
    while not ts.accept("}"):
        name = _parse_name(ts)
        ts.expect(":", error=ModelParseError)
        if parse_kind:
            kind_tok = ts.expect("IDENT", error=ModelParseError)
            if kind_tok.value not in ATTR_KINDS:
                raise ModelParseError(f"unknown attribute kind {kind_tok.value!r}",
                                      kind_tok.line, kind_tok.col)
            out[name] = kind_tok.value
        else:
            out[name] = _parse_value(ts)
    return out


def _parse_record(ts: TokenStream, keyword: str) -> dict:
    ts.expect(keyword, error=ModelParseError)
    ts.expect("{", error=ModelParseError)
    rec: dict = {}
    while not ts.accept("}"):
        key_tok = ts.advance()
        key = str(key_tok.value)
        if key == "attrs":
            rec["attrs"] = _parse_attr_block(ts, parse_kind=(keyword == "nodetype"))
            continue
        if key not in ("name", "supertype", "id", "type", "src", "tgt"):
            raise ModelParseError(f"unexpected key {key!r} in {keyword}", key_tok.line,
                                  key_tok.col)
        ts.expect(":", error=ModelParseError)
        rec[key] = _parse_name(ts)
    return rec


def _parse_document(text: str):
    try:
        ts = TokenStream(tokenize(text, _KEYWORDS))
    except LexError as e:
        raise ModelParseError(e.message, e.line, e.col) from None
    node_types: list[NodeType] = []
    edge_types: list[EdgeType] = []
    nodes: list[dict] = []
    edges: list[dict] = []
    while not ts.at("EOF"):
        section = ts.expect("nodetypes", "edgetypes", "nodes", "edges",
                            error=ModelParseError)
        ts.expect("{", error=ModelParseError)
        while not ts.accept("}"):
            if section.kind == "nodetypes":
                rec = _parse_record(ts, "nodetype")
                if "name" not in rec:
                    raise ModelParseError("nodetype needs a name", ts.current.line,
                                          ts.current.col)
                attrs = tuple(AttrDecl(k, v) for k, v in rec.get("attrs", {}).items())
                node_types.append(NodeType(rec["name"], attrs, rec.get("supertype")))
            elif section.kind == "edgetypes":
                rec = _parse_record(ts, "edgetype")
                for key in ("name", "src", "tgt"):
                    if key not in rec:
                        raise ModelParseError(f"edgetype needs {key!r}", ts.current.line,
                                              ts.current.col)
                edge_types.append(EdgeType(rec["name"], rec["src"], rec["tgt"]))
            elif section.kind == "nodes":
                rec = _parse_record(ts, "node")
                for key in ("id", "type"):
                    if key not in rec:
                        raise ModelParseError(f"node needs {key!r}", ts.current.line,
                                              ts.current.col)
                nodes.append(rec)
            else:
                rec = _parse_record(ts, "edge")
                for key in ("id", "type", "src", "tgt"):
                    if key not in rec:
                        raise ModelParseError(f"edge needs {key!r}", ts.current.line,
                                              ts.current.col)
                edges.append(rec)
    return node_types, edge_types, nodes, edges


def load_metamodel(text: str) -> Metamodel:
    """Parse the schema sections of a model document into a validated Metamodel."""
    node_types, edge_types, _, _ = _parse_document(text)
    return Metamodel(node_types, edge_types)


def load_graph(text: str, mm: Metamodel) -> Graph:
    """Parse the instance sections of a model document into a conforming Graph."""
    _, _, node_recs, edge_recs = _parse_document(text)
    nodes = [Node(r["id"], r["type"], r.get("attrs", {})) for r in node_recs]
    edges = [Edge(r["id"], r["type"], r["src"], r["tgt"]) for r in edge_recs]
    return Graph(mm, nodes, edges)


def load_model(text: str) -> tuple[Metamodel, Graph]:
    """Parse a document holding both schema and instance sections."""
    mm = load_metamodel(text)
    return mm, load_graph(text, mm)


def _fmt_name(name: str) -> str:
    if name and (name[0].isalpha() or name[0] == "_") and \
            all(c.isalnum() or c == "_" for c in name) and name not in _KEYWORDS:
        return name
    escaped = name.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    return f'"{escaped}"'


def _fmt_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        s = repr(value)
        return s if ("." in s or "e" in s or "E" in s) else s + ".0"
    escaped = str(value).replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    return f'"{escaped}"'


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
            attrs = "  ".join(f"{_fmt_name(a)}: {_fmt_value(nd.attrs[a])}" for a in declared)
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
