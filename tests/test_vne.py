import pathlib

import pytest

import graphilp.vne as vne
from graphilp import (GraphDelta, apply_delta, embed_incremental,
                      generate_scenario, lp_relaxation, parse_scenario_config,
                      full_scale_config, scenario_text, serialize_model,
                      verify_embedding)
from graphilp.vne_model import embedding_spec
from graphilp.vne import Range, ScenarioConfig, ScenarioError

from conftest import highs_optimum

ROOT = pathlib.Path(__file__).resolve().parent.parent
DATA = ROOT / "src" / "graphilp" / "data"


def count_ids(g, prefix):
    return sum(1 for nid in g.nodes if nid.startswith(prefix))


@pytest.fixture(scope="module")
def spec():
    return embedding_spec()


def test_full_scale_topology_counts():
    sub, vnrs = generate_scenario(full_scale_config())
    assert count_ids(sub, "srv_") == 80
    assert count_ids(sub, "rsw_") == 8
    assert count_ids(sub, "csw_") == 2
    assert count_ids(sub, "lnk_srv_") == 80   # one access link per server
    assert count_ids(sub, "lnk_core_") == 16  # each rack to both cores
    assert count_ids(sub, "lnk_path_") == 160  # derived server-core paths
    assert len(vnrs) == 40
    for v in vnrs:
        servers = [n for n in v.nodes.values() if n.type == "VirtualServer"]
        assert 2 <= len(servers) <= 10
        for s in servers:
            assert 1 <= s.attrs["cpu"] <= 32
            assert 1 <= s.attrs["mem"] <= 511
            assert 50 <= s.attrs["storage"] <= 300
        links = [n for n in v.nodes.values() if n.type == "VirtualLink"]
        assert len(links) == len(servers)
        for l in links:
            assert 100 <= l.attrs["bw"] <= 1000


def test_server_attributes_match_config():
    sub, _ = generate_scenario(full_scale_config())
    servers = [n for n in sub.nodes.values() if n.type == "SubstrateServer"]
    assert all(s.attrs["cpu"] == 32 and s.attrs["resCpu"] == 32 for s in servers)
    assert all(s.attrs["mem"] == 512 and s.attrs["storage"] == 1024
               for s in servers)
    core = [n for n in sub.nodes.values() if n.id.startswith("lnk_core_")]
    assert all(l.attrs["bw"] == 10000 for l in core)
    access = [n for n in sub.nodes.values() if n.id.startswith("lnk_srv_")]
    assert all(l.attrs["bw"] == 1000 for l in access)


def test_minimal_topology():
    cfg = ScenarioConfig(racks=1, servers_per_rack=1, core_switches=1,
                         vnr_count=0)
    sub, vnrs = generate_scenario(cfg)
    assert count_ids(sub, "srv_") == 1
    assert count_ids(sub, "rsw_") == 1
    assert count_ids(sub, "lnk_core_") == 1
    assert vnrs == []


def test_desk_scale_counts_follow_construction_rules():
    cfg = ScenarioConfig()  # 2 racks x 4 servers, 1 core
    sub, vnrs = generate_scenario(cfg)
    servers = cfg.racks * cfg.servers_per_rack
    assert count_ids(sub, "srv_") == servers
    assert count_ids(sub, "lnk_srv_") == servers
    assert count_ids(sub, "lnk_core_") == cfg.racks * cfg.core_switches
    assert count_ids(sub, "lnk_path_") == servers * cfg.core_switches
    assert len(vnrs) == cfg.vnr_count
    for v in vnrs:
        k = sum(1 for n in v.nodes.values() if n.type == "VirtualServer")
        assert cfg.vnr_servers.lo <= k <= cfg.vnr_servers.hi


def test_scenario_is_seed_deterministic():
    cfg = ScenarioConfig(seed=7)
    assert scenario_text(cfg) == scenario_text(ScenarioConfig(seed=7))
    assert scenario_text(cfg) != scenario_text(ScenarioConfig(seed=8))


def test_single_request_embedding_reduces_residuals(spec):
    cfg = ScenarioConfig(racks=1, servers_per_rack=1, vnr_count=1, seed=5,
                         vnr_servers=Range(1, 1), vnr_cpu=Range(4, 4),
                         vnr_mem=Range(8, 8), vnr_storage=Range(10, 10),
                         vnr_bw=Range(100, 100))
    sub, vnrs = generate_scenario(cfg)
    report = embed_incremental(sub, vnrs, spec)
    assert [r.status for r in report.records] == ["embedded"]
    server = report.final.nodes["srv_0_0"]
    assert server.attrs["resCpu"] == 32 - 4
    assert server.attrs["resMem"] == 512 - 8
    assert server.attrs["resStorage"] == 1024 - 10
    # the virtual link takes 100 off one substrate link: 1000 -> 900
    hosted = [e.tgt for e in report.final.edges.values()
              if e.type == "host"
              and report.final.nodes[e.src].type == "VirtualLink"]
    assert len(hosted) == 1
    assert report.final.nodes[hosted[0]].attrs["resBw"] == 900
    assert verify_embedding(report, sub, report.final) == []


def test_oversized_request_rejected_and_substrate_unchanged(spec):
    cfg = ScenarioConfig(racks=1, servers_per_rack=1, vnr_count=1, seed=5,
                         server_cpu=8, vnr_servers=Range(3, 3),
                         vnr_cpu=Range(8, 8), vnr_mem=Range(1, 1),
                         vnr_storage=Range(1, 1), vnr_bw=Range(100, 100))
    sub, vnrs = generate_scenario(cfg)
    report = embed_incremental(sub, vnrs, spec)
    assert [r.status for r in report.records] == ["rejected"]
    assert report.records[0].reason == "infeasible"
    assert report.final.structurally_equal(sub)
    assert verify_embedding(report, sub, report.final) == []


def test_mixed_run_stays_all_or_nothing(spec):
    # tight substrate forces rejections partway through the arrival order
    cfg = ScenarioConfig(racks=1, servers_per_rack=2, vnr_count=6, seed=11,
                         server_cpu=16, vnr_servers=Range(2, 3),
                         vnr_cpu=Range(4, 8), vnr_mem=Range(1, 8),
                         vnr_storage=Range(10, 20), vnr_bw=Range(200, 500))
    sub, vnrs = generate_scenario(cfg)
    report = embed_incremental(sub, vnrs, spec)
    statuses = {r.status for r in report.records}
    assert "rejected" in statuses and "embedded" in statuses
    assert verify_embedding(report, sub, report.final) == []
    # rejected requests leave no trace
    embedded_idx = {r.index for r in report.embedded()}
    for idx, vnr in enumerate(vnrs):
        present = any(nid in report.final.nodes for nid in vnr.nodes)
        assert present == (idx in embedded_idx)


def test_corrupted_residual_is_reported(spec):
    cfg = ScenarioConfig(racks=1, servers_per_rack=1, vnr_count=1, seed=5,
                         vnr_servers=Range(1, 1))
    sub, vnrs = generate_scenario(cfg)
    report = embed_incremental(sub, vnrs, spec)
    corrupted = apply_delta(report.final,
                            GraphDelta(attr_updates=(("srv_0_0", "resCpu", 1),)))
    violations = verify_embedding(report, sub, corrupted)
    assert any(v.kind == "residual" and v.element == "srv_0_0"
               for v in violations)


def test_removed_host_edge_breaks_exactly_once(spec):
    cfg = ScenarioConfig(racks=1, servers_per_rack=1, vnr_count=1, seed=5,
                         vnr_servers=Range(1, 1))
    sub, vnrs = generate_scenario(cfg)
    report = embed_incremental(sub, vnrs, spec)
    host_edges = [e.id for e in report.final.edges.values()
                  if e.type == "host"
                  and report.final.nodes[e.src].type == "VirtualServer"]
    broken = apply_delta(report.final, GraphDelta(deleted_edges=(host_edges[0],)))
    violations = verify_embedding(report, sub, broken)
    assert any(v.kind == "exactly-once" for v in violations)


def test_contiguity_violation_detected(spec):
    # rehost a virtual link onto a different substrate link than its endpoints
    from graphilp import Edge
    cfg = ScenarioConfig(racks=2, servers_per_rack=1, vnr_count=1, seed=5,
                         vnr_servers=Range(1, 1))
    sub, vnrs = generate_scenario(cfg)
    report = embed_incremental(sub, vnrs, spec)
    g = report.final
    link_host = next(e for e in g.edges.values()
                     if e.type == "host" and g.nodes[e.src].type == "VirtualLink")
    other = next(nid for nid in sorted(g.nodes)
                 if nid.startswith(("lnk_srv_", "lnk_path_"))
                 and nid != link_host.tgt)
    moved = apply_delta(g, GraphDelta(
        created_edges=(Edge("h_moved", "host", link_host.src, other),),
        deleted_edges=(link_host.id,)))
    violations = verify_embedding(report, sub, moved)
    assert any(v.kind in ("contiguity", "residual") for v in violations)


def test_desk_run_agrees_with_highs_along_its_trajectory(spec, monkeypatch):
    # replay check: the desk run (seed 1) takes its own trajectory, since
    # tied optima may differ between solvers; on each request's program along
    # it, the in-house status and optimum must equal HiGHS's milp, and its
    # root LP bound HiGHS's linprog
    solved = []
    real_solve = vne.solve

    def recording_solve(problem, **kwargs):
        sol = real_solve(problem, **kwargs)
        solved.append((problem, sol))
        return sol

    monkeypatch.setattr(vne, "solve", recording_solve)
    substrate, vnrs = generate_scenario(ScenarioConfig(seed=1))
    report = embed_incremental(substrate, vnrs, spec)
    assert verify_embedding(report, substrate, report.final) == []
    assert len(solved) == len(vnrs) == 10
    for k, (problem, sol) in enumerate(solved):
        status, value = highs_optimum(problem)
        assert sol.status == status == "optimal", k
        assert sol.objective_value == pytest.approx(value, abs=1e-6), k
        lp_status, bound = lp_relaxation(problem)
        assert (lp_status, bound) == pytest.approx(highs_optimum(problem, relaxed=True),
                                                   abs=1e-6), k
        assert sol.stats["root_relaxation"] == pytest.approx(bound, abs=1e-9), k


def test_time_limit_rejects_with_timeout_reason(spec):
    cfg = ScenarioConfig(racks=1, servers_per_rack=1, vnr_count=1, seed=5,
                         vnr_servers=Range(1, 1))
    sub, vnrs = generate_scenario(cfg)
    report = embed_incremental(sub, vnrs, spec, time_limit=0.0)
    assert [r.status for r in report.records] == ["rejected"]
    assert report.records[0].reason == "timeout"
    assert report.final.structurally_equal(sub)


def test_config_parser_round_trip():
    text = """
    // scenario config
    racks = 3
    servers_per_rack = 2
    vnr_count = 4
    vnr_servers = 2..3
    vnr_cpu = 1..4
    seed = 9
    """
    cfg = parse_scenario_config(text)
    assert cfg.racks == 3 and cfg.servers_per_rack == 2
    assert cfg.vnr_servers == Range(2, 3)
    assert cfg.vnr_cpu == Range(1, 4)
    assert cfg.seed == 9


def test_config_parser_rejects_unknown_keys_and_bad_ranges():
    with pytest.raises(ScenarioError, match="unknown key"):
        parse_scenario_config("rackz = 3")
    with pytest.raises(ScenarioError, match="range"):
        parse_scenario_config("vnr_cpu = 5")
    with pytest.raises(ScenarioError, match="empty range"):
        parse_scenario_config("vnr_cpu = 5..3")
    with pytest.raises(ScenarioError, match="exceeds server capacity"):
        parse_scenario_config("server_cpu = 4\nvnr_cpu = 1..8")
    for text, least in [("vnr_cpu = -5..3", 0), ("vnr_servers = -2..2", 1),
                        ("vnr_servers = 0..2", 1), ("vnr_mem = -1..4", 0),
                        ("vnr_storage = -1..4", 0), ("vnr_bw = -100..100", 0)]:
        with pytest.raises(ScenarioError, match=f"^{text.split()[0]} must not go below {least}$"):
            parse_scenario_config(text)
    parse_scenario_config("vnr_cpu = 0..3\nvnr_servers = 1..1")


def test_desk_config_matches_defaults():
    cfg = parse_scenario_config((ROOT / "demos" / "fixtures" / "desk.cfg").read_text())
    assert cfg == ScenarioConfig()


def test_package_data_globs_cover_data_files():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    pyproject = tomllib.loads((ROOT / "pyproject.toml").read_text())
    globs = pyproject["tool"]["setuptools"]["package-data"]["graphilp"]
    shipped = {f for g in globs for f in (ROOT / "src" / "graphilp").glob(g) if f.is_file()}
    data = {f for f in DATA.rglob("*") if f.is_file()}
    assert data and data <= shipped


@pytest.mark.parametrize("name", ["two-links.model", "two-links.gipsl", "embedding.gipsl"])
def test_demo_fixture_is_the_package_file(name):
    assert (ROOT / "demos" / "fixtures" / name).resolve() == DATA / name


def test_invalid_config_counts_rejected():
    with pytest.raises(ScenarioError):
        ScenarioConfig(racks=0).validate()
