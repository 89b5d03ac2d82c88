import random

import pytest

from graphilp import (Edge, Graph, Node, apply_delta, apply_rule, find_matches,
                      load_model, revalidate)
from graphilp.lang.parser import parse, parse_expression
from graphilp.lang.typecheck import typecheck
from graphilp.vne_model import two_links_model, two_links_spec, vne_metamodel
from graphilp.pattern import Match, Pattern, PatternNode, StaleMatchError

from conftest import (TASK_DOC, TASK_SPEC, brute_matches, random_graph,
                      random_pattern)


def binding_set(matches):
    return {tuple(m.bound) for m in matches}


def test_link2link_finds_two_matches_on_two_links():
    _, g = two_links_model()
    spec = two_links_spec()
    matches = find_matches(g, spec.rules["link2link"].lhs)
    assert len(matches) == 2
    assert all(m.binding["vl"] == "v11" for m in matches)
    assert [m.binding["sl"] for m in matches] == ["sl1", "sl2"]


def test_empty_graph_yields_no_matches(task_spec):
    mm = vne_metamodel()
    empty = Graph(mm, [], [])
    spec = two_links_spec()
    assert find_matches(empty, spec.rules["link2link"].lhs) == []


def test_empty_pattern_matches_once(task_model):
    _, g = task_model
    p = Pattern("unit", ())
    assert len(find_matches(g, p)) == 1


def test_server_pairs_minus_capacity_violation():
    # 3 servers x 2 tasks, one pair ruled out by the capacity condition:
    # brute-force enumeration over all pairs gives the expected count
    doc = """
    nodetypes {
      nodetype { name: Server  attrs { resCpu: int } }
      nodetype { name: Task  attrs { cpu: int } }
    }
    edgetypes { }
    nodes {
      node { id: s1  type: Server  attrs { resCpu: 10 } }
      node { id: s2  type: Server  attrs { resCpu: 10 } }
      node { id: s3  type: Server  attrs { resCpu: 3 } }
      node { id: t1  type: Task  attrs { cpu: 2 } }
      node { id: t2  type: Task  attrs { cpu: 5 } }
    }
    """
    mm, g = load_model(doc)
    p = Pattern("pair",
                (PatternNode("t", "Task"), PatternNode("s", "Server")),
                (),
                parse_expression("s.resCpu >= t.cpu"))
    expected = sum(1 for s in ("s1", "s2", "s3") for t in ("t1", "t2")
                   if g.attr(s, "resCpu") >= g.attr(t, "cpu"))
    assert expected == 5
    assert len(find_matches(g, p)) == 5


def test_matches_are_deterministically_ordered(task_model, task_spec):
    _, g = task_model
    lhs = task_spec.rules["place"].lhs
    a = find_matches(g, lhs)
    b = find_matches(Graph(g.mm, list(g.nodes.values()), list(g.edges.values())), lhs)
    assert [m.bound for m in a] == [m.bound for m in b]
    keys = [sorted(m.bound_ids()) for m in a]
    assert keys == sorted(keys)


def test_matcher_equals_brute_force_on_random_graphs(match_mm):
    rng = random.Random(77)
    for _ in range(60):
        g = random_graph(rng, match_mm)
        p = random_pattern(rng, match_mm)
        got = binding_set(find_matches(g, p))
        assert got == brute_matches(g, p)


def test_every_match_revalidates_on_unchanged_graph(match_mm):
    rng = random.Random(5)
    for _ in range(40):
        g = random_graph(rng, match_mm)
        p = random_pattern(rng, match_mm)
        for m in find_matches(g, p):
            assert revalidate(g, m)


def test_condition_tightening_never_enlarges_matches(match_mm):
    rng = random.Random(11)
    for _ in range(40):
        g = random_graph(rng, match_mm)
        p = random_pattern(rng, match_mm)
        extra = parse_expression(f"p0.{'x' if p.nodes[0].type != 'T2' else 'z'}"
                                 f" >= {rng.randint(0, 9)}")
        cond = extra if p.condition is None else \
            __import__("graphilp.lang.ast", fromlist=["Binary"]).Binary(
                "&", p.condition, extra)
        tightened = Pattern(p.name, p.nodes, p.edges, cond)
        assert binding_set(find_matches(g, tightened)) <= \
            binding_set(find_matches(g, p))


def test_apply_rule_server_to_server_delta(task_model, task_spec):
    _, g = task_model
    rule = task_spec.rules["place"]
    m = next(m for m in find_matches(g, rule.lhs)
             if m.binding == {"t": "t1", "s": "s1"})
    delta = apply_rule(g, rule, m)
    assert len(delta.created_edges) == 1
    edge = delta.created_edges[0]
    assert (edge.type, edge.src, edge.tgt) == ("host", "t1", "s1")
    # residual reduced by the demand: 10 - 4 = 6
    assert ("s1", "resCpu", 6) in delta.attr_updates
    assert ("t1", "placed", True) in delta.attr_updates
    g2 = apply_delta(g, delta)
    assert g2.attr("s1", "resCpu") == 6


def test_apply_link_rule_reduces_bandwidth_to_900():
    _, g = two_links_model()
    spec = two_links_spec()
    rule = spec.rules["link2link"]
    m = next(m for m in find_matches(g, rule.lhs) if m.binding["sl"] == "sl1")
    g2 = apply_delta(g, apply_rule(g, rule, m))
    assert g2.attr("sl1", "resBw") == 900
    assert g2.has_edge("host", "v11", "sl1")


def test_rule_with_no_actions_gives_empty_delta(task_model):
    mm, g = task_model
    spec = typecheck(parse("""
rule observe {
  nodes { t: Task }
}
global objective : min { 0 }
"""), mm)
    rule = spec.rules["observe"]
    m = find_matches(g, rule.lhs)[0]
    assert apply_rule(g, rule, m).is_empty()


def test_apply_rule_rejects_stale_match(task_model, task_spec):
    _, g = task_model
    rule = task_spec.rules["place"]
    m = next(m for m in find_matches(g, rule.lhs)
             if m.binding == {"t": "t1", "s": "s1"})
    g2 = apply_delta(g, apply_rule(g, rule, m))
    with pytest.raises(StaleMatchError):
        apply_rule(g2, rule, m)  # t1 is placed now


def test_revalidate_after_unrelated_change(task_model, task_spec):
    _, g = task_model
    rule = task_spec.rules["place"]
    matches = find_matches(g, rule.lhs)
    m = next(m for m in matches if m.binding == {"t": "t1", "s": "s1"})
    from graphilp import GraphDelta
    g2 = apply_delta(g, GraphDelta(created_edges=(Edge("w", "wire", "t2", "s2"),)))
    assert revalidate(g2, m)


def test_revalidate_fails_when_bound_node_deleted(task_model, task_spec):
    _, g = task_model
    from graphilp import GraphDelta
    rule = task_spec.rules["place"]
    m = next(m for m in find_matches(g, rule.lhs)
             if m.binding == {"t": "t1", "s": "s1"})
    g2 = apply_delta(g, GraphDelta(deleted_nodes=("s1",)))
    assert not revalidate(g2, m)


def test_revalidate_fails_after_resource_exhaustion(task_model, task_spec):
    # applying one match drops the residual below the other match's demand
    _, g = task_model
    rule = task_spec.rules["place"]
    m_t2_s2 = Match.of(rule.lhs, {"t": "t2", "s": "s2"})  # needs 7, s2 has 5
    assert not revalidate(g, m_t2_s2)
    m_t2_s1 = next(m for m in find_matches(g, rule.lhs)
                   if m.binding == {"t": "t2", "s": "s1"})
    m_t1_s1 = next(m for m in find_matches(g, rule.lhs)
                   if m.binding == {"t": "t1", "s": "s1"})
    g2 = apply_delta(g, apply_rule(g, rule, m_t2_s1))  # s1: 10 -> 3
    assert not revalidate(g2, m_t1_s1) or g2.attr("s1", "resCpu") >= 4
    assert g2.attr("s1", "resCpu") == 3
    assert not revalidate(g2, m_t1_s1)


def test_created_node_ids_are_deterministic_and_fresh(task_model):
    mm, g = task_model
    spec = typecheck(parse("""
rule spawn {
  nodes { s: Server }
  condition { s.resCpu >= 1 }
  actions {
    create node shadow: Task { cpu := s.resCpu  placed := true }
    create edge host(shadow -> s)
  }
}
global objective : min { 0 }
"""), mm)
    rule = spec.rules["spawn"]
    m = find_matches(g, rule.lhs)[0]
    d1 = apply_rule(g, rule, m)
    d2 = apply_rule(g, rule, m)
    assert d1.created_nodes == d2.created_nodes
    assert d1.created_nodes[0].id == "spawn_shadow"
    assert d1.created_nodes[0].attrs == {"cpu": 10, "placed": True}
    g2 = apply_delta(g, d1)
    d3 = apply_rule(g2, rule, m)  # id already taken, gets a suffix
    assert d3.created_nodes[0].id == "spawn_shadow_1"


def test_apply_rule_assume_valid_skips_staleness_check(task_model, task_spec):
    # an untouched match may be applied without rechecking; a touched one
    # must not be trusted
    _, g = task_model
    rule = task_spec.rules["place"]
    m = next(m for m in find_matches(g, rule.lhs)
             if m.binding == {"t": "t1", "s": "s1"})
    g2 = apply_delta(g, apply_rule(g, rule, m))
    with pytest.raises(StaleMatchError):
        apply_rule(g2, rule, m)
    delta = apply_rule(g2, rule, m, assume_valid=True)  # caller's responsibility
    assert delta.created_edges


def test_delete_actions_use_single_pushout(task_model):
    mm, g = task_model
    from graphilp import GraphDelta
    g = apply_delta(g, GraphDelta(created_edges=(
        Edge("w1", "wire", "t1", "s1"), Edge("w2", "wire", "s1", "s2"))))
    spec = typecheck(parse("""
rule drop {
  nodes { s: Server }
  condition { s.resCpu >= 6 }
  actions { delete node s }
}
global objective : min { 0 }
"""), mm)
    rule = spec.rules["drop"]
    matches = find_matches(g, rule.lhs)
    assert [m.binding["s"] for m in matches] == ["s1"]
    g2 = apply_delta(g, apply_rule(g, rule, matches[0]))
    assert "s1" not in g2.nodes
    assert "w1" not in g2.edges and "w2" not in g2.edges
