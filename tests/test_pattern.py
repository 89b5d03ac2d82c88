import random
from collections import Counter

import pytest

from graphilp import (Edge, Graph, GraphDelta, MappingTable, Node, apply_delta,
                      apply_rule, find_matches, generate, load_model, revalidate)
from graphilp.lang.eval import EvalError, compile_expr
from graphilp.lang.parser import parse, parse_expression
from graphilp.lang.typecheck import typecheck
from graphilp.vne_model import two_links_model, two_links_spec, vne_metamodel
from graphilp.pattern import (Match, Pattern, PatternEdge, PatternError, PatternNode,
                              StaleMatchError)

from conftest import TASK_SPEC, brute_matches, random_graph, random_pattern, realizes


def binding_set(matches):
    return {tuple(m.binding.items()) for m in matches}


def test_link2link_finds_two_matches_on_two_links():
    _, g = two_links_model()
    spec = two_links_spec()
    matches = find_matches(g, spec.rules["link2link"].lhs)
    assert len(matches) == 2
    assert all(m.binding["vl"] == "v11" for m in matches)
    assert [m.binding["sl"] for m in matches] == ["sl1", "sl2"]


def test_a_bool_compared_with_false_matches_as_its_negation(task_model):
    mm, g = task_model
    g = apply_delta(g, GraphDelta(attr_updates=(("t2", "placed", True),)))
    negated = typecheck(parse(TASK_SPEC), mm).rules["place"].lhs
    compared = typecheck(parse(TASK_SPEC.replace("!t.placed &", "t.placed == false &")),
                         mm).rules["place"].lhs
    expected = [m.binding for m in find_matches(g, negated)]
    assert [m.binding for m in find_matches(g, compared)] == expected
    assert expected == [{"s": "s1", "t": "t1"}, {"s": "s2", "t": "t1"}]


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
    assert [tuple(m.binding.items()) for m in a] == [tuple(m.binding.items()) for m in b]
    keys = [sorted(m.binding.values()) for m in a]
    assert keys == sorted(keys)


def test_matches_are_equal_by_rule_and_binding(task_model, task_spec):
    _, g = task_model
    lhs = task_spec.rules["place"].lhs
    a, b = find_matches(g, lhs), find_matches(g, lhs)
    assert a == b and [hash(m) for m in a] == [hash(m) for m in b]
    assert all(x is not y for x, y in zip(a, b))
    assert a[0] != a[1]
    renamed = Pattern("other", lhs.nodes, lhs.edges, lhs.condition)
    assert a[0] != Match(renamed, a[0].binding)
    # a match from another call finds its variable
    _, table = generate(task_spec, g)
    assert [table.var_of("put", m) for m in b] == [v for v, _ in table.pairs("put")]


def test_equal_matches_hash_equal_whatever_their_binding_order(task_spec):
    lhs = task_spec.rules["place"].lhs
    st, ts = Match(lhs, {"s": "s1", "t": "t2"}), Match(lhs, {"t": "t2", "s": "s1"})
    assert st == ts and hash(st) == hash(ts) and len({st, ts}) == 1
    table = MappingTable()
    table.add("m_put_0", "put", st)
    assert table.var_of("put", ts) == "m_put_0"


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


def doubled(rng: random.Random, g: Graph, p: Pattern) -> tuple[Graph, Pattern]:
    """`g` and `p` with some edges drawn twice, and self-loops on some `a`
    ends of `p`, some of them twice."""
    extra = [Edge(f"d{k}", e.type, e.src, e.tgt)
             for k, e in enumerate(e for e in g.edges.values() if rng.random() < 0.3)]
    edges = [*p.edges, *(pe for pe in p.edges if rng.random() < 0.4)]
    for pn in p.nodes:
        if pn.type != "T2" and rng.random() < 0.25:
            edges += [PatternEdge("", "a", pn.name, pn.name)] * rng.choice([1, 2])
    edges = tuple(PatternEdge(f"q{k}", pe.type, pe.src, pe.tgt) for k, pe in enumerate(edges))
    return (Graph(g.mm, list(g.nodes.values()), [*g.edges.values(), *extra]),
            Pattern(p.name, p.nodes, edges, p.condition))


def test_matcher_equals_brute_force_on_random_multigraphs(match_mm):
    # the k parallel edges of a pattern need k graph edges, in the search and
    # in `revalidate`; on the graph before doubling, a match revalidates
    # exactly when the oracle finds its binding there
    rng = random.Random(4242)
    parallel = loops = 0
    for _ in range(400):
        single = random_graph(rng, match_mm)
        g, p = doubled(rng, single, random_pattern(rng, match_mm))
        matches = find_matches(g, p)
        assert binding_set(matches) == brute_matches(g, p)
        on_single = brute_matches(single, p)
        for m in matches:
            assert revalidate(g, m)
            assert revalidate(single, m) == (tuple(m.binding.items()) in on_single)
        parallel += max(p.edge_counts.values(), default=1) > 1
        loops += any(src == tgt for _, src, tgt in p.edge_counts)
    assert parallel >= 60 and loops >= 60, (parallel, loops)


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
    assert g2.edge_count("host", "v11", "sl1") == 1


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
    assert apply_rule(g, rule, m) == GraphDelta()


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
    g2 = apply_delta(g, GraphDelta(created_edges=(Edge("w", "wire", "t2", "s2"),)))
    assert revalidate(g2, m)


def test_revalidate_fails_when_bound_node_deleted(task_model, task_spec):
    _, g = task_model
    rule = task_spec.rules["place"]
    m = next(m for m in find_matches(g, rule.lhs)
             if m.binding == {"t": "t1", "s": "s1"})
    g2 = apply_delta(g, GraphDelta(deleted_nodes=("s1",)))
    assert not revalidate(g2, m)


def test_revalidate_fails_after_resource_exhaustion(task_model, task_spec):
    # applying one match drops the residual below the other match's demand
    _, g = task_model
    rule = task_spec.rules["place"]
    m_t2_s2 = Match(rule.lhs, {"s": "s2", "t": "t2"})  # needs 7, s2 has 5
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


PARALLEL_DOC = """
nodetypes { nodetype { name: N } }
edgetypes { edgetype { name: link  src: N  tgt: N } }
nodes { node { id: a  type: N }  node { id: b  type: N } }
edges {
  edge { id: l1  type: link  src: a  tgt: b }
  edge { id: l2  type: link  src: a  tgt: b }
}
"""


def test_parallel_pattern_edges_need_distinct_graph_edges():
    mm, g = load_model(PARALLEL_DOC)
    p = Pattern("two", (PatternNode("x", "N"), PatternNode("y", "N")),
                (PatternEdge("e", "link", "x", "y"), PatternEdge("f", "link", "x", "y")))
    assert p.edge_counts == {("link", "x", "y"): 2}
    [m] = find_matches(g, p)
    assert m.binding == {"x": "a", "y": "b"} and revalidate(g, m)
    single = apply_delta(g, GraphDelta(deleted_edges=("l2",)))
    assert find_matches(single, p) == [] and not revalidate(single, m)
    one_edge = Pattern("one", p.nodes, p.edges[:1])
    assert one_edge.edge_counts == {("link", "x", "y"): 1}
    assert [m.binding for m in find_matches(single, one_edge)] == [{"x": "a", "y": "b"}]


def test_delete_actions_use_single_pushout(task_model):
    mm, g = task_model
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


def test_evaluation_errors_name_the_rule_and_the_binding(task_model):
    mm, g = task_model
    # a Pattern built directly compiles its condition on first use
    p = Pattern("tight", (PatternNode("t", "Task"),), (),
                parse_expression("t.cpu / (t.cpu - 4) >= 0"))
    with pytest.raises(PatternError, match="^rule 'tight', condition on t=t1: "
                                           "division by zero$"):
        find_matches(g, p)
    unit = Pattern("unit", (), (), parse_expression("1 / 0 > 0"))
    with pytest.raises(PatternError, match="^rule 'unit', condition: division by zero$"):
        find_matches(g, unit)
    spec = typecheck(parse(TASK_SPEC.replace(
        "set t.placed := true",
        "set t.placed := true\n    create node n: Task { cpu := t.cpu"
        "  placed := 1 / (s.cpu - 32) > 0 }")), mm)
    rule = spec.rules["place"]
    m = next(m for m in find_matches(g, rule.lhs) if m.binding == {"t": "t1", "s": "s1"})
    with pytest.raises(PatternError, match="^rule 'place', action 'create node n, placed' "
                                           "on s=s1 t=t1: division by zero$"):
        apply_rule(g, rule, m)


# --- the search order ----------------------------------------------------------

ATTR_OF = {"T0": "x", "T1": "x", "T2": "z"}


def dense_graph(rng: random.Random, mm, types: list[str], p_edge: float) -> Graph:
    """One node per entry of `types` (MATCH_DOC types), every allowed edge
    with chance `p_edge` (self-loops included), sometimes twice."""
    nodes = [Node(f"n{i}", t, {"x": rng.randint(0, 4), "y": 0} if t == "T1" else
                  {ATTR_OF[t]: rng.randint(0, 4)})
             for i, t in enumerate(types)]
    edges = []
    for src in nodes:
        for tgt in nodes:
            if src.type == "T2" or rng.random() >= p_edge:
                continue
            kind = "b" if tgt.type == "T2" else "a"
            for _ in range(rng.choice([1, 1, 2])):
                edges.append(Edge(f"e{len(edges)}", kind, src.id, tgt.id))
    return Graph(mm, nodes, edges)


def link2link_shaped(rng: random.Random, extra: int) -> Pattern:
    """Six nodes as in `link2link`, two stars of an `a` and a `b` edge, plus
    `extra` random edges: parallel edges, self-loops, and edges between
    nodes that the search binds far apart."""
    types = [rng.choice(["T0", "T1"]), rng.choice(["T0", "T1"]), "T2"] * 2
    nodes = tuple(PatternNode(f"p{i}", t) for i, t in enumerate(types))
    ends = [(0, 1), (0, 2), (3, 4), (3, 5)]
    for _ in range(extra):
        ends.append((rng.choice([0, 1, 3, 4]), rng.randrange(6)))
    edges = tuple(PatternEdge(f"q{k}", "b" if types[t] == "T2" else "a", f"p{s}", f"p{t}")
                  for k, (s, t) in enumerate(ends))
    return Pattern("shaped", nodes, edges, raising_condition(rng, nodes))


def raising_condition(rng: random.Random, nodes):
    """A condition that is false on some bindings and, for some graphs,
    divides by zero on some bindings but not on others."""
    a, b = rng.sample(nodes, 2)
    return parse_expression(f"{a.name}.{ATTR_OF[a.type]} / ({b.name}.{ATTR_OF[b.type]}"
                            f" - {rng.randint(0, 6)}) >= 0")


def rescored_bindings(g: Graph, p: Pattern) -> list[dict]:
    """Every injective, typed binding that realizes the edges of `p`, in the
    order of a backtracking search that scores the unbound nodes again at
    every branch (most edges to bound nodes, then smallest pool, then name)
    and tries candidates by id."""
    pools = {pn.name: [n.id for n in g.nodes_of_type(pn.type)] for pn in p.nodes}
    realized = Counter((e.type, e.src, e.tgt) for e in g.edges.values())

    def score(name, binding):
        anchored = sum((pe.src == name and pe.tgt in binding)
                       + (pe.tgt == name and pe.src in binding) for pe in p.edges)
        return -anchored, len(pools[name]), name

    def extend(binding):
        if len(binding) == len(p.nodes):
            yield dict(binding)
            return
        name = min((pn.name for pn in p.nodes if pn.name not in binding),
                   key=lambda n: score(n, binding))
        for gid in pools[name]:
            if gid in binding.values():
                continue
            binding[name] = gid
            if realizes(realized, p, binding):
                yield from extend(binding)
            del binding[name]
    return list(extend({}))


def rescored_outcome(g: Graph, p: Pattern):
    """(bindings whose condition holds, None), or (None, the PatternError
    text for the first binding whose condition raises)."""
    condition = compile_expr(p.condition)
    found = []
    for binding in rescored_bindings(g, p):
        try:
            holds = condition({k: g.nodes[v] for k, v in binding.items()}, g)
        except EvalError as exc:
            where = " ".join(f"{k}={v}" for k, v in sorted(binding.items()))
            return None, f"rule {p.name!r}, condition on {where}: {exc}"
        if holds:
            found.append(tuple(sorted(binding.items())))
    return found, None


def test_six_node_patterns_match_as_brute_force_finds(match_mm):
    rng = random.Random(2024)
    compared = nonempty = 0
    for _ in range(40):
        types = ["T0", "T1", "T2", "T0", "T1", "T2", rng.choice(["T0", "T1", "T2"])]
        rng.shuffle(types)
        g = dense_graph(rng, match_mm, types, 0.6)
        p = link2link_shaped(rng, rng.randint(0, 3))
        try:
            found = find_matches(g, p)
        except PatternError:
            continue
        compared += 1
        assert binding_set(found) == brute_matches(g, p)
        assert len(found) == len(binding_set(found))
        nonempty += len(found) > 0
    assert compared >= 20 and nonempty >= 8


def test_search_order_reports_what_rescoring_every_branch_reports(match_mm):
    rng = random.Random(99)
    outcomes = {"matches": 0, "raised": 0}
    for _ in range(60):
        types = [rng.choice(["T0", "T1", "T2"]) for _ in range(rng.randint(10, 14))]
        g = dense_graph(rng, match_mm, types, rng.choice([0.35, 0.5]))
        p = link2link_shaped(rng, rng.randint(0, 4))
        expected, message = rescored_outcome(g, p)
        if message is None:
            got = [tuple(m.binding.items()) for m in find_matches(g, p)]
            assert sorted(got) == sorted(expected) and len(got) == len(expected)
            outcomes["matches"] += len(got) > 0
        else:
            with pytest.raises(PatternError) as err:
                find_matches(g, p)
            assert str(err.value) == message
            outcomes["raised"] += 1
    assert outcomes["matches"] >= 10 and outcomes["raised"] >= 10


def test_first_failing_binding_is_pinned(match_mm):
    # bound in the order c, w, u, d, s, v: the binding u=t1 v=t2 is false,
    # u=t1 v=t3 holds, and u=t2 v=t1 is the first to divide by zero
    x = {"h1": 0, "h2": 0, "t1": 3, "t2": 1, "t3": 5}
    nodes = [Node(n, "T1" if n[0] == "h" else "T0", {"x": v, "y": 0} if n[0] == "h" else {"x": v})
             for n, v in x.items()] + [Node(z, "T2", {"z": 0}) for z in ("z1", "z2")]
    ends = [("a", h, t) for h in ("h1", "h2") for t in ("t1", "t2", "t3")]
    ends += [("b", "h1", "z1"), ("b", "h2", "z2")]
    g = Graph(match_mm, nodes, [Edge(f"e{k}", *end) for k, end in enumerate(ends)])
    types = {"c": "T1", "u": "T0", "w": "T2", "d": "T1", "v": "T0", "s": "T2"}
    p = Pattern("shaped", tuple(PatternNode(n, t) for n, t in types.items()),
                tuple(PatternEdge(f"q{k}", kind, src, tgt) for k, (kind, src, tgt) in
                      enumerate([("a", "c", "u"), ("b", "c", "w"), ("a", "d", "v"),
                                 ("b", "d", "s")])),
                parse_expression("u.x / (v.x - 3) >= 0"))
    with pytest.raises(PatternError) as err:
        find_matches(g, p)
    assert str(err.value) == ("rule 'shaped', condition on c=h1 d=h2 s=z2 u=t2 v=t1 w=z1: "
                              "division by zero")
    assert rescored_outcome(g, p) == (None, str(err.value))
    holds = Pattern(p.name, p.nodes, p.edges, parse_expression("u.x / (v.x - 4) >= 0"))
    # holds exactly when v=t3; sorted by bound ids, then in pattern node order
    assert [m.binding for m in find_matches(g, holds)] == [
        {"c": "h1", "d": "h2", "s": "z2", "u": "t1", "v": "t3", "w": "z1"},
        {"c": "h2", "d": "h1", "s": "z1", "u": "t1", "v": "t3", "w": "z2"},
        {"c": "h1", "d": "h2", "s": "z2", "u": "t2", "v": "t3", "w": "z1"},
        {"c": "h2", "d": "h1", "s": "z1", "u": "t2", "v": "t3", "w": "z2"}]
