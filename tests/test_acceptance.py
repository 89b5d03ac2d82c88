"""Acceptance suite: one test per release criterion, each printing a PASS/FAIL
line with its runtime (run with `pytest -s tests/test_acceptance.py`)."""

import random
import time

import numpy as np

from graphilp import (brute_force, export_lp, find_matches, generate, import_lp,
                      load_graph, load_metamodel, parse, problems_equal, solve,
                      typecheck)
from graphilp.encode import BINARY
from graphilp.vne_model import (EMBEDDING_SPEC, VNE_SCHEMA, embedding_spec, two_links_model,
                                two_links_spec)
from graphilp.vne import ScenarioConfig, embed_incremental, generate_scenario, \
    verify_embedding

from conftest import brute_matches, random_graph, random_pattern, random_problem, row_check
from test_encode import check_semantic_preservation
from test_lang import GLUE, SNIPPET_CAPACITY, SNIPPET_GLOBAL, SNIPPET_MAPPING, SNIPPET_OBJECTIVE


def _stamp(name: str, started: float, budget: float):
    elapsed = time.perf_counter() - started
    print(f"PASS: {name} ({elapsed:.1f}s, budget {budget:.0f}s)")
    assert elapsed < budget, f"{name} exceeded its runtime budget"


def test_two_links_structural_reproduction():
    started = time.perf_counter()
    _, g = two_links_model()
    problem, table = generate(two_links_spec(), g)

    binaries = [v for v in problem.variables if v.kind == BINARY]
    assert len(binaries) == 2, "one variable per candidate mapping"
    assert len(problem.variables) == 2

    bw = g.attr("v11", "bw")
    caps = [r for r in problem.constraints if r.rel == "<="]
    assert len(caps) == 2
    for row, (var, link) in zip(caps, [("m_lnk2lnk_0", "sl1"),
                                       ("m_lnk2lnk_1", "sl2")]):
        assert row.coeffs == {var: bw}
        assert row.rhs == g.attr(link, "resBw")

    once = [r for r in problem.constraints if r.rel == "="]
    assert len(once) == 1
    assert once[0].coeffs == {"m_lnk2lnk_0": 1, "m_lnk2lnk_1": 1}
    assert once[0].rhs == 1

    sol = solve(problem)
    assert sol.status == "optimal"
    assert sum(v for k, v in sol.assignment.items() if k in table) == 1
    _stamp("Fig. 5 structural reproduction", started, 1.0)


def test_linearization_soundness_1000_bodies():
    started = time.perf_counter()
    check_semantic_preservation(seed=20240, trials=500)
    check_semantic_preservation(seed=20241, trials=500)
    _stamp("linearization soundness (1000 random bodies)", started, 60.0)


def test_solver_oracle_equivalence_500_problems():
    started = time.perf_counter()
    rng = random.Random(8080)
    for trial in range(500):
        p = random_problem(rng, max_vars=15, max_rows=20)
        s = solve(p)
        b = brute_force(p)
        assert s.status == b.status, f"trial {trial}: {s.status} vs {b.status}"
        if s.status == "optimal":
            assert abs(s.objective_value - b.objective_value) <= 1e-9, \
                f"trial {trial}"
    _stamp("solver oracle equivalence (500 problems)", started, 120.0)


def test_matcher_oracle_equivalence_200_graphs(match_mm):
    started = time.perf_counter()
    rng = random.Random(6060)
    for trial in range(200):
        g = random_graph(rng, match_mm, max_nodes=8)
        p = random_pattern(rng, match_mm, max_nodes=3)
        got = {tuple(m.binding.items()) for m in find_matches(g, p)}
        assert got == brute_matches(g, p), f"trial {trial}"
    _stamp("matcher oracle equivalence (200 graphs)", started, 60.0)


def test_end_to_end_vne_desk_run():
    started = time.perf_counter()
    cfg = ScenarioConfig(seed=1)  # 2 racks x 4 servers (32 CPU), 10 star VNRs
    assert cfg.racks == 2 and cfg.servers_per_rack == 4
    assert cfg.server_cpu == 32
    assert (cfg.vnr_servers.lo, cfg.vnr_servers.hi) == (2, 4)
    substrate, vnrs = generate_scenario(cfg)
    assert len(vnrs) == 10
    spec = embedding_spec()
    report = embed_incremental(substrate, vnrs, spec)

    embedded_idx = {r.index for r in report.embedded()}
    for idx, vnr in enumerate(vnrs):
        ids_present = [nid for nid in vnr.nodes if nid in report.final.nodes]
        if idx in embedded_idx:
            assert len(ids_present) == len(vnr.nodes), "embedded as a whole"
            assert all(report.final.nodes[nid].attrs["mapped"]
                       for nid in vnr.nodes)
        else:
            assert ids_present == [], "rejected without a trace"

    violations = verify_embedding(report, substrate, report.final)
    assert violations == []
    _stamp("end-to-end network-embedding desk run", started, 300.0)


def _generated_corpus():
    problems = []
    _, g = two_links_model()
    problems.append(generate(two_links_spec(), g)[0])

    from conftest import TASK_DOC, TASK_SPEC
    from graphilp import load_model
    mm, tg = load_model(TASK_DOC)
    problems.append(generate(typecheck(parse(TASK_SPEC), mm), tg)[0])

    # a disjunctive constraint forces indicator variables into the export
    disjunctive = TASK_SPEC.replace(
        "constraint -> class::Task {\n  self.placed |",
        "constraint -> class::Task {\n  "
        "mappings.put->filter(m | m.nodes().t == self)->sum(m | m.nodes().t.cpu) >= 4 |")
    problems.append(generate(typecheck(parse(disjunctive), mm), tg)[0])

    for seed in range(6):
        cfg = ScenarioConfig(racks=1, servers_per_rack=2, vnr_count=2,
                             seed=seed)
        substrate, vnrs = generate_scenario(cfg)
        spec = embedding_spec()
        from graphilp.vne import merge_graphs
        merged = substrate
        for v in vnrs:
            merged = merge_graphs(merged, v)
        problems.append(generate(spec, merged)[0])
    return problems


def test_lp_round_trip_over_generated_corpus():
    started = time.perf_counter()
    corpus = _generated_corpus()
    assert any(any(v.kind != BINARY or v.id.startswith("aux_")
                   for v in p.variables) for p in corpus), \
        "corpus should exercise auxiliary variables"
    for i, p in enumerate(corpus):
        q = import_lp(export_lp(p))
        assert problems_equal(p, q), f"corpus problem {i} did not round-trip"
    _stamp(f"LP round-trip over {len(corpus)} generated problems", started, 60.0)


def test_grammar_fidelity_snippets_parse_and_typecheck():
    started = time.perf_counter()
    mm = load_metamodel(VNE_SCHEMA)
    text = "\n".join([GLUE, SNIPPET_MAPPING, SNIPPET_CAPACITY, SNIPPET_OBJECTIVE, SNIPPET_GLOBAL])
    spec = typecheck(parse(text), mm)
    assert [m.name for m in spec.mappings] == ["srv2srv"]
    assert spec.constraints[0].context_kind == "class"
    assert spec.constraints[0].context_target == "SubstrateServer"
    assert spec.objectives[0].name == "srvObj"
    assert spec.global_objective.sense == "min"
    assert spec.global_objective.weights == {"srvObj": 1.0}
    for snippet in (SNIPPET_MAPPING, SNIPPET_CAPACITY, SNIPPET_OBJECTIVE, SNIPPET_GLOBAL):
        assert snippet in EMBEDDING_SPEC, "shipped spec embeds the snippet verbatim"
    _stamp("grammar fidelity (four spec snippets, verbatim)", started, 10.0)


def _enumerate_optima(problem):
    """All optimal assignments (as bit tuples over the problem's variables)."""
    ids = [v.id for v in problem.variables]
    n = len(ids)
    assert n <= 18
    shifts = np.arange(n - 1, -1, -1, dtype=np.uint32)
    ks = np.arange(1 << n, dtype=np.uint32)
    X = ((ks[:, None] >> shifts[None, :]) & 1).astype(float)
    feas = row_check(problem.constraints, ids)(X)
    if not feas.any():
        return None, set()
    c = np.array([problem.objective.terms.get(vid, 0) for vid in ids], dtype=float)
    objs = X @ c + problem.objective.constant
    sense_min = problem.objective.sense == "min"
    masked = np.where(feas, objs, np.inf if sense_min else -np.inf)
    best = masked.min() if sense_min else masked.max()
    optima = np.flatnonzero(np.abs(masked - best) <= 1e-9)
    return float(best), {tuple(int(v) for v in X[k]) for k in optima}


TWO_OBJECTIVE_SPEC = """
rule place {
  nodes { t: Task  s: Server }
  condition { !t.placed & s.resCpu >= t.cpu }
  actions {
    create edge host(t -> s)
    set s.resCpu := s.resCpu - t.cpu
    set t.placed := true
  }
}
mapping put with place;
constraint -> class::Server {
  mappings.put->filter(m | m.nodes().s == self)->sum(m | m.nodes().t.cpu) <= self.resCpu
}
constraint -> class::Task {
  self.placed | mappings.put->filter(m | m.nodes().t == self)->sum(m | 1) == 1
}
objective packObj -> mapping::put { self.nodes().s.resCpu / self.nodes().s.cpu }
objective spreadObj -> mapping::put { self.nodes().t.cpu }
global objective : min { WEIGHTS }
"""


def _random_task_doc(rng):
    servers = rng.randint(1, 3)
    tasks = rng.randint(1, 4)
    lines = ["nodes {"]
    for i in range(servers):
        cap = rng.randint(4, 16)
        lines.append(f"  node {{ id: s{i}  type: Server"
                     f"  attrs {{ cpu: 16  resCpu: {cap} }} }}")
    for i in range(tasks):
        lines.append(f"  node {{ id: t{i}  type: Task"
                     f"  attrs {{ cpu: {rng.randint(1, 9)}  placed: false }} }}")
    lines.append("}")
    from conftest import TASK_DOC
    schema = TASK_DOC.split("nodes {")[0]
    return schema + "\n".join(lines)


def test_scale_invariance_of_optima_50_instances():
    started = time.perf_counter()
    rng = random.Random(31415)
    non_trivial = 0
    for trial in range(50):
        doc = _random_task_doc(rng)
        mm = load_metamodel(doc)
        g = load_graph(doc, mm)
        w1, w2 = rng.choice([1, 2, 3]), rng.choice([-1, 1, 2])
        base = TWO_OBJECTIVE_SPEC.replace(
            "WEIGHTS", f"{w1} * packObj + {w2} * spreadObj")
        scaled = TWO_OBJECTIVE_SPEC.replace(
            "WEIGHTS", f"{7 * w1} * packObj + {7 * w2} * spreadObj")
        p1, _ = generate(typecheck(parse(base), mm), g)
        p7, _ = generate(typecheck(parse(scaled), mm), g)
        assert [v.id for v in p1.variables] == [v.id for v in p7.variables]
        v1, opt1 = _enumerate_optima(p1)
        v7, opt7 = _enumerate_optima(p7)
        assert opt1 == opt7, f"trial {trial}: optimal sets differ"
        if v1 is not None:
            non_trivial += 1
            assert abs(7 * v1 - v7) <= 1e-9 * max(1.0, abs(v7)), \
                f"trial {trial}: objective not scaled by 7"
            s1, s7 = solve(p1), solve(p7)
            assert s1.status == s7.status == "optimal"
            assert abs(7 * s1.objective_value - s7.objective_value) \
                <= 1e-9 * max(1.0, abs(s7.objective_value))
    assert non_trivial >= 25, "instance generator too degenerate"
    _stamp("argmax invariance under weight scaling (50 instances)", started, 120.0)
