import pytest

from graphilp import (ConformanceError, Edge, Graph, GraphDelta, Metamodel, Node,
                      apply_delta, load_graph, load_metamodel, load_model,
                      serialize_graph, serialize_model, validate_graph)
import graphilp.model as model_mod
from graphilp.model import AttrDecl, EdgeType, NodeType
from graphilp.vne_model import TWO_LINKS_MODEL, VNE_SCHEMA
from graphilp.model import ModelParseError

from conftest import TASK_DOC


def test_vne_schema_has_eight_node_types():
    mm = load_metamodel(VNE_SCHEMA)
    assert len(mm.node_types) == 8
    assert {"SubstrateServer", "VirtualServer", "SubstrateLink", "VirtualLink",
            "SubstrateSwitch", "VirtualSwitch"} <= set(mm.node_types)
    assert mm.edge_types["host"].source_type == "VirtualElement"
    assert mm.attrs_of("SubstrateServer")["cpu"] == "int"
    assert mm.attrs_of("SubstrateServer")["resCpu"] == "int"
    assert mm.attrs_of("SubstrateLink")["bw"] == "int"
    assert mm.attrs_of("VirtualLink")["bw"] == "int"


def test_empty_metamodel_is_valid():
    mm = load_metamodel("nodetypes { }\nedgetypes { }\n")
    assert not mm.node_types and not mm.edge_types


def test_edge_type_with_undeclared_endpoint_rejected():
    doc = """
    nodetypes { nodetype { name: A } }
    edgetypes { edgetype { name: e  src: A  tgt: Missing } }
    """
    with pytest.raises(ConformanceError, match="undeclared node type"):
        load_metamodel(doc)


def test_duplicate_type_name_rejected():
    doc = "nodetypes { nodetype { name: A } nodetype { name: A } }"
    with pytest.raises(ConformanceError, match="duplicate"):
        load_metamodel(doc)


def test_cyclic_supertype_rejected():
    doc = """
    nodetypes {
      nodetype { name: A  supertype: B }
      nodetype { name: B  supertype: A }
    }
    """
    with pytest.raises(ConformanceError, match="cyclic"):
        load_metamodel(doc)


def test_undeclared_supertype_rejected():
    doc = """
    nodetypes {
      nodetype { name: A }
      nodetype { name: B  supertype: A }
      nodetype { name: C  supertype: B }
      nodetype { name: D  supertype: Ghost }
    }
    """
    with pytest.raises(ConformanceError,
                       match="^node type 'D' has undeclared supertype 'Ghost'$"):
        load_metamodel(doc)


def test_metamodel_faults_come_supertypes_then_attributes_then_edges():
    a = NodeType("A", (AttrDecl("x", "int"),))
    b = NodeType("B", (AttrDecl("x", "int"),), "A")
    c = NodeType("C", (AttrDecl("y", "float"),))
    d = NodeType("D", (), "D")
    edges = [EdgeType("e", "A", "Ghost")]
    for types, message in (
            ([a, b, c, d], "cyclic supertype chain at 'D'"),
            ([a, b, c], "attribute 'x' redeclared in 'B'"),
            ([a, c], "attribute C.y has unknown kind 'float'"),
            ([a], "edge type 'e' references undeclared node type 'Ghost'")):
        with pytest.raises(ConformanceError, match=f"^{message}$"):
            Metamodel(types, edges)


def test_conforms_and_attrs_follow_the_supertype_chain():
    mm = load_metamodel(VNE_SCHEMA)
    for sub, nt in mm.node_types.items():
        chain = [sub]
        while mm.node_types[chain[-1]].supertype:
            chain.append(mm.node_types[chain[-1]].supertype)
        assert [t for t in mm.node_types if mm.conforms(sub, t)] == \
            [t for t in mm.node_types if t in chain]
        assert list(mm.attrs_of(sub)) == [a.name for t in reversed(chain)
                                          for a in mm.node_types[t].attributes]


def test_adjacency_is_by_edge_type_in_edge_id_order(task_model):
    mm, g = task_model
    edges = [Edge("h2", "host", "t1", "s1"), Edge("w1", "wire", "t1", "s1"),
             Edge("h1", "host", "t2", "s1"), Edge("w0", "wire", "s1", "t1")]
    g = Graph(mm, list(g.nodes.values()), edges)
    assert [e.id for e in g.in_edges("s1", "host")] == ["h1", "h2"]
    assert [e.id for e in g.out_edges("t1", "wire")] == ["w1"]
    assert [e.id for e in g.in_edges("t1", "wire")] == ["w0"]
    assert g.out_edges("s1", "host") == () and g.in_edges("s2", "wire") == ()
    assert g.edge_count("wire", "s1", "t1") == 1 and g.edge_count("host", "s1", "t1") == 0


def test_inherited_attribute_shadowing_rejected():
    doc = """
    nodetypes {
      nodetype { name: A  attrs { x: int } }
      nodetype { name: B  supertype: A  attrs { x: int } }
    }
    """
    with pytest.raises(ConformanceError, match="redeclared"):
        load_metamodel(doc)


def test_parse_error_carries_location():
    with pytest.raises(ModelParseError) as err:
        load_metamodel("nodetypes {\n  nodetype { name: }\n}")
    assert err.value.line == 2


@pytest.mark.parametrize("cut, col, message", [
    ("nodes { node { id:", 19, "expected a name, got end of input"),
    ("nodes { node { id: t9 type: Task attrs { cpu:", 46,
     "expected attribute value, got end of input"),
    ("nodes { node { id: t9 type: Task attrs { cpu: -", 48,
     "expected INT or REAL, got end of input"),
])
def test_end_of_input_is_named_as_such(cut, col, message):
    with pytest.raises(ModelParseError) as err:
        load_model(TASK_DOC + cut)
    line = TASK_DOC.count("\n") + 1
    assert (err.value.line, err.value.col, err.value.message) == (line, col, message)


def test_instance_attribute_values_readable():
    # substrate link with total 1000 and residual 900, virtual link demanding 100
    doc = VNE_SCHEMA + """
    nodes {
      node { id: s12  type: SubstrateLink  attrs { bw: 1000  resBw: 900 } }
      node { id: v12  type: VirtualLink  attrs { mapped: true  bw: 100 } }
    }
    edges { edge { id: h  type: host  src: v12  tgt: s12 } }
    """
    mm, g = load_model(doc)
    assert g.attr("s12", "bw") == 1000
    assert g.attr("s12", "resBw") == 900
    assert g.attr("v12", "bw") == 100
    assert g.edge_count("host", "v12", "s12") == 1


def test_zero_node_document_loads_empty_graph():
    mm = load_metamodel(VNE_SCHEMA)
    g = load_graph("nodes { }\nedges { }\n", mm)
    assert not g.nodes and not g.edges


def test_edge_to_missing_node_rejected():
    mm, g = load_model(TASK_DOC)
    with pytest.raises(ConformanceError, match="missing node"):
        load_graph("""
        nodes { node { id: t9  type: Task  attrs { cpu: 1  placed: false } } }
        edges { edge { id: e  type: host  src: t9  tgt: nowhere } }
        """, mm)


def test_missing_attribute_rejected():
    mm, _ = load_model(TASK_DOC)
    with pytest.raises(ConformanceError, match="missing attribute"):
        load_graph("nodes { node { id: t  type: Task  attrs { cpu: 4 } } }", mm)


def test_wrong_attribute_kind_rejected():
    mm, _ = load_model(TASK_DOC)
    with pytest.raises(ConformanceError, match="is not a int"):
        load_graph("nodes { node { id: t  type: Task"
                   "  attrs { cpu: true  placed: false } } }", mm)


def test_nonconforming_edge_endpoint_rejected():
    mm, _ = load_model(TASK_DOC)
    with pytest.raises(ConformanceError, match="does not conform"):
        load_graph("""
        nodes {
          node { id: a  type: Task  attrs { cpu: 1  placed: false } }
          node { id: b  type: Task  attrs { cpu: 1  placed: false } }
        }
        edges { edge { id: e  type: host  src: a  tgt: b } }
        """, mm)


def test_serialize_round_trip_structural_equality(task_model):
    mm, g = task_model
    text = serialize_model(mm, g)
    mm2, g2 = load_model(text)
    assert mm == mm2
    assert g.structurally_equal(g2)
    # canonical section order
    assert text.index("nodetypes") < text.index("edgetypes") \
        < text.index("nodes {") < text.index("edges {")


def test_serialize_quotes_awkward_ids(task_model):
    mm, _ = task_model
    ids = ["weird id", "tab\there", 'q"uote\\', "node", "1st", "\u00e9t\u00e9"]
    g = Graph(mm, [Node(i, "Server", {"cpu": 1, "resCpu": 1}) for i in ids], [])
    text = serialize_graph(g)
    assert '"weird id"' in text and '"tab\\there"' in text and '"node"' in text
    assert " \u00e9t\u00e9 " in text, "a word of any script needs no quotes"
    g2 = load_graph(text, mm)
    assert sorted(g2.nodes) == sorted(ids)


@pytest.mark.parametrize("record, message, col", [
    ("edge { id: e  type: host  src: t1  tgt: s1  attrs { } }",
     "unexpected key 'attrs' in edge", 45),
    ("node { id: n  type: Task  name: x }", "unexpected key 'name' in node", 27),
    ("node { id: n  type: Task  supertype: Element }", "unexpected key 'supertype' in node", 27),
    ("nodetype { name: N  id: x }", "unexpected key 'id' in nodetype", 21),
    ("edgetype { name: e  src: Task  tgt: Task  type: x }",
     "unexpected key 'type' in edgetype", 43),
    ("edge { id: e1  type: host  src: t1  tgt: s1  id: e9 }", "duplicate key 'id' in edge", 46),
    ("node { id: n  type: Task  attrs { cpu: 1  cpu: 2  placed: true } }",
     "duplicate attribute 'cpu'", 43),
    ("nodetype { name: N  attrs { x: int  x: real } }", "duplicate attribute 'x'", 37),
    ("edge { id: e  type: host  src: t1 }", "edge needs 'tgt'", 1),
    ("nodetype { supertype: Element }", "nodetype needs 'name'", 1),
])
def test_record_keys_are_checked(record, message, col):
    section = {"edge": "edges", "node": "nodes", "nodetype": "nodetypes",
               "edgetype": "edgetypes"}[record.split()[0]]
    with pytest.raises(ModelParseError) as err:
        load_model(f"{TASK_DOC}{section} {{\n{record}\n}}\n")
    line = TASK_DOC.count("\n") + 2
    assert (err.value.message, err.value.line, err.value.col) == (message, line, col)


@pytest.mark.parametrize("value", ["1e999", "-1e999", "1" * 400 + ".0"])
def test_non_finite_real_is_rejected(value):
    doc = ("nodetypes { nodetype { name: N  attrs { x: real } } }\n"
           f"nodes {{ node {{ id: n  type: N  attrs {{ x: {value} }} }} }}\n")
    with pytest.raises(ConformanceError, match="attribute 'x' is not a real"):
        load_model(doc)


def test_extreme_finite_reals_round_trip():
    doc = ("nodetypes { nodetype { name: N  attrs { x: real  y: real  z: real } } }\n"
           "nodes { node { id: n  type: N  attrs { x: 1.7976931348623157e308  y: -5e-324"
           "  z: " + "9" * 400 + " } } }\n")
    mm, g = load_model(doc)
    mm2, g2 = load_model(serialize_model(mm, g))
    assert g.structurally_equal(g2)
    assert g2.attr("n", "z") == int("9" * 400), "an int stays exact in a real attribute"


def test_apply_delta_empty_is_identity(task_model):
    _, g = task_model
    g2 = apply_delta(g, GraphDelta())
    assert g.structurally_equal(g2)


def test_apply_delta_deterministic(task_model):
    _, g = task_model
    d = GraphDelta(created_edges=(Edge("h", "host", "t1", "s1"),),
                   attr_updates=(("s1", "resCpu", 6),))
    a, b = apply_delta(g, d), apply_delta(g, d)
    assert a.structurally_equal(b)
    assert a.attr("s1", "resCpu") == 6
    assert g.edge_count("host", "t1", "s1") == 0, "input graph untouched"


def test_delete_node_cascades_incident_edges(task_model):
    mm, g = task_model
    # derived expectation: enumerate incident edges before deletion
    withedges = apply_delta(g, GraphDelta(created_edges=(
        Edge("e1", "wire", "t1", "s1"),
        Edge("e2", "wire", "s1", "t2"),
        Edge("e3", "host", "t1", "s1"),
    )))
    incident = [e.id for e in withedges.edges.values()
                if "s1" in (e.src, e.tgt)]
    assert len(incident) == 3
    after = apply_delta(withedges, GraphDelta(deleted_nodes=("s1",)))
    assert "s1" not in after.nodes
    assert not set(incident) & set(after.edges)
    validate_graph(after)


def test_apply_delta_rejects_nonconforming_result(task_model):
    _, g = task_model
    with pytest.raises(ConformanceError):
        apply_delta(g, GraphDelta(attr_updates=(("t1", "cpu", False),)))


def test_apply_delta_rejects_missing_ids(task_model):
    _, g = task_model
    with pytest.raises(ConformanceError, match="missing"):
        apply_delta(g, GraphDelta(deleted_nodes=("ghost",)))


WIRE = Edge("w", "wire", "s1", "s2")


@pytest.mark.parametrize("build, message, offender", [
    (lambda mm, g: Graph(mm, [*g.nodes.values(), g.nodes["s1"]]),
     "duplicate node id 's1'", "s1"),
    (lambda mm, g: Graph(mm, g.nodes.values(), [WIRE, Edge("w", "wire", "s2", "s1")]),
     "duplicate edge id 'w'", "w"),
    (lambda mm, g: apply_delta(g, GraphDelta(attr_updates=(("s1", "ram", 3),))),
     "node 's1' has undeclared attribute 'ram'", "s1"),
    (lambda mm, g: Graph(mm, g.nodes.values(), [Edge("e", "link", "s1", "s2")]),
     "edge 'e' has undeclared type 'link'", "e"),
    (lambda mm, g: apply_delta(g, GraphDelta(created_nodes=(g.nodes["t1"],))),
     "delta creates node with taken id 't1'", "t1"),
    (lambda mm, g: apply_delta(Graph(mm, g.nodes.values(), [WIRE]),
                               GraphDelta(created_edges=(WIRE,))),
     "delta creates edge with taken id 'w'", "w"),
    (lambda mm, g: apply_delta(g, GraphDelta(deleted_edges=("ghost",))),
     "delta deletes missing edge 'ghost'", "ghost"),
    (lambda mm, g: apply_delta(g, GraphDelta(attr_updates=(("ghost", "cpu", 1),))),
     "delta updates attribute of missing node 'ghost'", "ghost"),
], ids=["duplicate-node", "duplicate-edge", "undeclared-attribute", "undeclared-edge-type",
        "taken-node-id", "taken-edge-id", "missing-edge", "missing-node-update"])
def test_conformance_error_names_its_offender(task_model, build, message, offender):
    mm, g = task_model
    with pytest.raises(ConformanceError, match=f"^{message}$") as err:
        build(mm, g)
    assert err.value.offender == offender


def test_two_links_model_loads_and_validates():
    mm, g = load_model(TWO_LINKS_MODEL)
    validate_graph(g)
    assert g.attr("sl1", "resBw") == 1000
    assert g.attr("sl2", "resBw") == 500
    assert g.attr("v11", "bw") == 100


def test_load_model_parses_the_document_once(monkeypatch):
    calls = []
    real = model_mod._parse_document

    def counting(text):
        calls.append(text)
        return real(text)
    monkeypatch.setattr(model_mod, "_parse_document", counting)
    mm, g = load_model(TWO_LINKS_MODEL)
    assert len(calls) == 1
    assert g.mm is mm and g.attr("sl2", "resBw") == 500


def test_nodes_of_type_is_sorted_and_follows_supertypes():
    mm, g = load_model(TASK_DOC)
    assert [n.id for n in g.nodes_of_type("Server")] == ["s1", "s2"]
    assert [n.id for n in g.nodes_of_type("Element")] == ["s1", "s2", "t1", "t2"]
    assert g.nodes_of_type("host") == () and g.nodes_of_type("Nothing") == ()
    assert Graph(mm).nodes_of_type("Task") == ()


def test_nodes_of_type_cannot_be_changed_through_its_result():
    _, g = load_model(TASK_DOC)
    pool = g.nodes_of_type("Task")
    assert isinstance(pool, tuple)
    as_list = list(pool)
    as_list.append(g.nodes["s1"])
    as_list.reverse()
    assert [n.id for n in g.nodes_of_type("Task")] == ["t1", "t2"]


def test_adjacency_cannot_be_changed_through_its_result(task_model):
    mm, g = task_model
    g = Graph(mm, list(g.nodes.values()), [Edge("w1", "wire", "t1", "s1")])
    for edges in (g.out_edges("t1", "wire"), g.in_edges("s1", "wire"),
                  g.out_edges("s1", "wire")):
        assert isinstance(edges, tuple)
        with pytest.raises(AttributeError):
            edges.append(Edge("w1", "wire", "t1", "s1"))
    assert g.edge_count("wire", "t1", "s1") == 1 and len(g.edges) == 1
    assert [e.id for e in g.in_edges("s1", "wire")] == ["w1"]


def test_a_delta_that_creates_or_deletes_a_node_gets_its_own_pools():
    _, g = load_model(TASK_DOC)
    before = [n.id for n in g.nodes_of_type("Task")]
    grown = apply_delta(g, GraphDelta(created_nodes=(
        Node("t0", "Task", {"cpu": 1, "placed": False}),)))
    shrunk = apply_delta(g, GraphDelta(deleted_nodes=("t1", "s2")))
    assert [n.id for n in grown.nodes_of_type("Task")] == ["t0", "t1", "t2"]
    assert [n.id for n in grown.nodes_of_type("Element")] == ["s1", "s2", "t0", "t1", "t2"]
    assert [n.id for n in shrunk.nodes_of_type("Task")] == ["t2"]
    assert [n.id for n in shrunk.nodes_of_type("Server")] == ["s1"]
    assert [n.id for n in g.nodes_of_type("Task")] == before == ["t1", "t2"]
    # an attribute update keeps the node's place and shows its new value
    updated = apply_delta(g, GraphDelta(attr_updates=(("t2", "cpu", 9),)))
    assert [n.attrs["cpu"] for n in updated.nodes_of_type("Task")] == [4, 9]
    assert [n.attrs["cpu"] for n in g.nodes_of_type("Task")] == [4, 7]
