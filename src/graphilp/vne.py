"""Network-embedding scenarios: generator, incremental embedding driver, and
an independent verifier.

The substrate is a two-tier data center: core switches, one switch per rack,
identical servers under each rack switch. Physical hops (server-rack,
rack-core) are materialized as link nodes, and so are two-hop server-core
paths, which keeps the link mapping rule a flat pattern; each derived path
link carries its own bandwidth budget. Requests are stars: one virtual switch
in the middle, a virtual link per virtual server.

Embedding runs one request at a time: merge the request into the working
model, generate and solve the program, apply the selected matches. A request
is embedded only if every one of its elements is mapped; otherwise the
working model rolls back to the snapshot (all-or-nothing). `verify_embedding`
recomputes placement counts, residual arithmetic, and link-endpoint
contiguity straight from the graphs, independently of the solver.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field

from .encode import GenerationError, apply_solution, generate
from .lang.typecheck import TypedSpec
from .model import ConformanceError, Edge, Graph, Node, serialize_graph, serialize_model
# unused here, but perfbench/tracing.py wraps apply_rule and apply_delta by these names
from .model import apply_delta  # noqa: F401
from .pattern import PatternError, apply_rule  # noqa: F401
from .solve import solve

REPORT_FORMAT = "graphilp-vne-report/1"


class ScenarioError(Exception):
    pass


@dataclass(frozen=True)
class Range:
    lo: int
    hi: int

    def __post_init__(self):
        if self.lo > self.hi:
            raise ScenarioError(f"empty range {self.lo}..{self.hi}")

    def sample(self, rng: random.Random) -> int:
        return rng.randint(self.lo, self.hi)


@dataclass
class ScenarioConfig:
    racks: int = 2
    servers_per_rack: int = 4
    core_switches: int = 1
    server_cpu: int = 32
    server_mem: int = 512
    server_storage: int = 1024
    core_link_bw: int = 10000
    server_link_bw: int = 1000
    vnr_count: int = 10
    vnr_servers: Range = field(default_factory=lambda: Range(2, 4))
    vnr_cpu: Range = field(default_factory=lambda: Range(1, 8))
    vnr_mem: Range = field(default_factory=lambda: Range(1, 64))
    vnr_storage: Range = field(default_factory=lambda: Range(10, 60))
    vnr_bw: Range = field(default_factory=lambda: Range(100, 500))
    seed: int = 1

    def validate(self):
        for name in ("racks", "servers_per_rack", "core_switches", "server_cpu",
                     "server_mem", "server_storage", "core_link_bw",
                     "server_link_bw"):
            if getattr(self, name) < 1:
                raise ScenarioError(f"{name} must be >= 1")
        if self.vnr_count < 0:
            raise ScenarioError("vnr_count must be >= 0")
        if self.vnr_cpu.hi > self.server_cpu or self.vnr_mem.hi > self.server_mem \
                or self.vnr_storage.hi > self.server_storage:
            raise ScenarioError("per-server demand range exceeds server capacity")
        if self.vnr_bw.hi > min(self.server_link_bw, self.core_link_bw):
            raise ScenarioError("bandwidth demand range exceeds link capacity")


def full_scale_config(seed: int = 1) -> ScenarioConfig:
    """Large two-tier setup: 8 racks of 10 servers, 2 cores, 40 requests."""
    return ScenarioConfig(
        racks=8, servers_per_rack=10, core_switches=2,
        server_cpu=32, server_mem=512, server_storage=1024,
        core_link_bw=10000, server_link_bw=1000,
        vnr_count=40, vnr_servers=Range(2, 10), vnr_cpu=Range(1, 32),
        vnr_mem=Range(1, 511), vnr_storage=Range(50, 300),
        vnr_bw=Range(100, 1000), seed=seed)


def parse_scenario_config(text: str) -> ScenarioConfig:
    """Read a `key = value` config file; ranges are written `lo..hi`."""
    cfg = ScenarioConfig()
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("//", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ScenarioError(f"line {ln}: expected 'key = value'")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not hasattr(cfg, key):
            raise ScenarioError(f"line {ln}: unknown key {key!r}")
        current = getattr(cfg, key)
        if isinstance(current, Range):
            if ".." not in value:
                raise ScenarioError(f"line {ln}: range written lo..hi")
            lo, _, hi = value.partition("..")
            try:
                setattr(cfg, key, Range(int(lo), int(hi)))
            except ValueError:
                raise ScenarioError(f"line {ln}: bad range {value!r}") from None
        else:
            try:
                setattr(cfg, key, int(value))
            except ValueError:
                raise ScenarioError(f"line {ln}: bad integer {value!r}") from None
    cfg.validate()
    return cfg


def _server(nid: str, cfg: ScenarioConfig) -> Node:
    return Node(nid, "SubstrateServer", {
        "cpu": cfg.server_cpu, "resCpu": cfg.server_cpu,
        "mem": cfg.server_mem, "resMem": cfg.server_mem,
        "storage": cfg.server_storage, "resStorage": cfg.server_storage})


def _link(nid: str, bw: int, src: str, tgt: str, nodes, edges):
    nodes.append(Node(nid, "SubstrateLink", {"bw": bw, "resBw": bw}))
    edges.append(Edge(f"e_{nid}_s", "ssrc", nid, src))
    edges.append(Edge(f"e_{nid}_t", "strg", nid, tgt))


def generate_scenario(cfg: ScenarioConfig, mm=None) -> tuple[Graph, list[Graph]]:
    """Deterministic substrate plus request list for (cfg, cfg.seed)."""
    from .vne_model import vne_metamodel
    cfg.validate()
    mm = mm or vne_metamodel()
    rng = random.Random(cfg.seed)

    nodes: list[Node] = []
    edges: list[Edge] = []
    cores = [f"csw_{i}" for i in range(cfg.core_switches)]
    for cid in cores:
        nodes.append(Node(cid, "SubstrateSwitch", {}))
    for j in range(cfg.racks):
        rsw = f"rsw_{j}"
        nodes.append(Node(rsw, "SubstrateSwitch", {}))
        for i, cid in enumerate(cores):
            _link(f"lnk_core_{j}_{i}", cfg.core_link_bw, rsw, cid, nodes, edges)
        for k in range(cfg.servers_per_rack):
            srv = f"srv_{j}_{k}"
            nodes.append(_server(srv, cfg))
            _link(f"lnk_srv_{j}_{k}", cfg.server_link_bw, srv, rsw, nodes, edges)
            for i, cid in enumerate(cores):
                _link(f"lnk_path_{j}_{k}_{i}",
                      min(cfg.server_link_bw, cfg.core_link_bw), srv, cid,
                      nodes, edges)
    substrate = Graph(mm, nodes, edges)

    vnrs: list[Graph] = []
    for v in range(cfg.vnr_count):
        vnodes: list[Node] = []
        vedges: list[Edge] = []
        sw = f"vnr{v}_sw"
        vnodes.append(Node(sw, "VirtualSwitch", {"mapped": False}))
        for s in range(cfg.vnr_servers.sample(rng)):
            srv = f"vnr{v}_srv{s}"
            lnk = f"vnr{v}_lnk{s}"
            vnodes.append(Node(srv, "VirtualServer", {
                "mapped": False,
                "cpu": cfg.vnr_cpu.sample(rng),
                "mem": cfg.vnr_mem.sample(rng),
                "storage": cfg.vnr_storage.sample(rng)}))
            vnodes.append(Node(lnk, "VirtualLink", {
                "mapped": False, "bw": cfg.vnr_bw.sample(rng)}))
            vedges.append(Edge(f"e_{lnk}_s", "vsrc", lnk, srv))
            vedges.append(Edge(f"e_{lnk}_t", "vtrg", lnk, sw))
        vnrs.append(Graph(mm, vnodes, vedges))
    return substrate, vnrs


def scenario_text(cfg: ScenarioConfig) -> str:
    """Serialized scenario (schema, substrate, then each request); stable bytes
    for equal configs."""
    substrate, vnrs = generate_scenario(cfg)
    parts = [serialize_model(substrate.mm, substrate)]
    parts.extend(serialize_graph(v) for v in vnrs)
    return "\n".join(parts)


def merge_graphs(a: Graph, b: Graph) -> Graph:
    overlap = set(a.nodes) & set(b.nodes) or set(a.edges) & set(b.edges)
    if overlap:
        raise ScenarioError(f"id collision while merging: {sorted(overlap)[:3]}")
    return Graph(a.mm, list(a.nodes.values()) + list(b.nodes.values()),
                 list(a.edges.values()) + list(b.edges.values()), validate=False)


@dataclass
class VnrRecord:
    index: int
    status: str  # 'embedded' or 'rejected'
    reason: str = ""
    objective: float | None = None
    variables: int = 0
    rows: int = 0
    solve_ms: float = 0.0
    nodes_explored: int = 0


@dataclass
class EmbeddingReport:
    records: list[VnrRecord]
    substrate_before: Graph
    final: Graph

    def embedded(self) -> list[VnrRecord]:
        return [r for r in self.records if r.status == "embedded"]

    def total_objective(self) -> float:
        return sum(r.objective or 0.0 for r in self.embedded())

    def residuals(self) -> dict[str, dict[str, object]]:
        out: dict[str, dict[str, object]] = {}
        for nid in sorted(self.final.nodes):
            node = self.final.nodes[nid]
            if self.final.mm.conforms(node.type, "SubstrateServer"):
                out[nid] = {k: node.attrs[k] for k in ("resCpu", "resMem",
                                                       "resStorage")}
            elif self.final.mm.conforms(node.type, "SubstrateLink"):
                out[nid] = {"resBw": node.attrs["resBw"]}
        return out


def embed_incremental(substrate: Graph, vnrs: list[Graph], spec: TypedSpec,
                      time_limit: float | None = None) -> EmbeddingReport:
    """Embed requests in arrival order, all-or-nothing per request."""
    working = substrate
    records: list[VnrRecord] = []
    for idx, vnr in enumerate(vnrs):
        snapshot = working
        t0 = time.perf_counter()
        try:
            merged = merge_graphs(working, vnr)
            problem, table = generate(spec, merged)
            sol = solve(problem, time_limit=time_limit)
        except (GenerationError, ConformanceError, PatternError, ScenarioError) as exc:
            records.append(VnrRecord(idx, "rejected", f"error: {exc}"))
            working = snapshot
            continue
        ms = (time.perf_counter() - t0) * 1000.0
        rec = VnrRecord(idx, "rejected", variables=len(problem.variables),
                        rows=len(problem.constraints), solve_ms=ms,
                        nodes_explored=sol.stats.get("nodes", 0))
        if sol.status != "optimal":
            rec.reason = sol.status
            records.append(rec)
            working = snapshot
            continue
        try:
            applied, _ = apply_solution(merged, spec, table, sol.assignment)
            _check_all_mapped(applied, vnr)
        except (PatternError, ConformanceError, ScenarioError) as exc:
            rec.reason = f"error: {exc}"
            records.append(rec)
            working = snapshot
            continue
        rec.status = "embedded"
        rec.objective = sol.objective_value
        records.append(rec)
        working = applied
    return EmbeddingReport(records, substrate, working)


def _check_all_mapped(g: Graph, vnr: Graph):
    unmapped = [nid for nid in vnr.nodes
                if not g.nodes[nid].attrs.get("mapped", False)]
    if unmapped:
        raise ScenarioError(f"request left partially embedded: {sorted(unmapped)}")


@dataclass(frozen=True)
class Violation:
    kind: str  # 'exactly-once', 'residual', 'contiguity'
    element: str
    message: str


def _hosts_of(g: Graph, nid: str) -> list[str]:
    return [e.tgt for e in g.out_edges(nid, "host")]


def verify_embedding(report: EmbeddingReport, substrate_before: Graph,
                     substrate_after: Graph) -> list[Violation]:
    """Recompute the embedding invariants from the graphs alone.

    (i) every virtual element present is mapped by exactly one host edge,
    (ii) residual = residual-before minus the demand hosted on the element,
    (iii) a hosted virtual link runs between the hosts of its endpoints.
    """
    g = substrate_after
    mm = g.mm
    violations: list[Violation] = []

    for nid in sorted(g.nodes):
        node = g.nodes[nid]
        if not mm.conforms(node.type, "VirtualElement"):
            continue
        hosts = _hosts_of(g, nid)
        if not node.attrs.get("mapped", False):
            violations.append(Violation("exactly-once", nid,
                                        f"{nid} is present but not mapped"))
        elif len(hosts) != 1:
            violations.append(Violation("exactly-once", nid,
                                        f"{nid} has {len(hosts)} host edges"))

    demand = {"resCpu": "cpu", "resMem": "mem", "resStorage": "storage",
              "resBw": "bw"}
    hosted: dict[str, dict[str, int]] = {}
    for e in g.edges.values():
        if e.type != "host":
            continue
        src = g.nodes[e.src]
        sums = hosted.setdefault(e.tgt, {})
        for res_attr, dem_attr in demand.items():
            if dem_attr in src.attrs:
                sums[res_attr] = sums.get(res_attr, 0) + src.attrs[dem_attr]
    for nid in sorted(g.nodes):
        node = g.nodes[nid]
        if not mm.conforms(node.type, "SubstrateElement"):
            continue
        before = substrate_before.nodes.get(nid)
        for res_attr in demand:
            if res_attr not in node.attrs:
                continue
            start = before.attrs[res_attr] if before is not None else node.attrs[res_attr]
            expected = start - hosted.get(nid, {}).get(res_attr, 0)
            if node.attrs[res_attr] != expected:
                violations.append(Violation(
                    "residual", nid,
                    f"{nid}.{res_attr} is {node.attrs[res_attr]}, expected "
                    f"{expected}"))
            if node.attrs[res_attr] < 0:
                violations.append(Violation("residual", nid,
                                            f"{nid}.{res_attr} is negative"))

    for nid in sorted(g.nodes):
        node = g.nodes[nid]
        if not mm.conforms(node.type, "VirtualLink"):
            continue
        hosts = _hosts_of(g, nid)
        if len(hosts) != 1:
            continue  # already reported above
        sl = hosts[0]
        v_src = [e.tgt for e in g.out_edges(nid, "vsrc")]
        v_trg = [e.tgt for e in g.out_edges(nid, "vtrg")]
        s_src = [e.tgt for e in g.out_edges(sl, "ssrc")]
        s_trg = [e.tgt for e in g.out_edges(sl, "strg")]
        if not (v_src and v_trg and s_src and s_trg):
            violations.append(Violation("contiguity", nid,
                                        f"{nid} or {sl} lacks endpoint edges"))
            continue
        src_host = _hosts_of(g, v_src[0])
        trg_host = _hosts_of(g, v_trg[0])
        if src_host != [s_src[0]] or trg_host != [s_trg[0]]:
            violations.append(Violation(
                "contiguity", nid,
                f"{nid} hosted on {sl} but its endpoints map to "
                f"{src_host} / {trg_host}, not {s_src[0]} / {s_trg[0]}"))
    return violations


def render_report(report: EmbeddingReport, violations: list[Violation] | None = None) -> str:
    lines = [f"requests: {len(report.records)}  embedded: {len(report.embedded())}"
             f"  rejected: {len(report.records) - len(report.embedded())}"]
    for r in report.records:
        status = r.status if not r.reason else f"{r.status} ({r.reason})"
        obj = "-" if r.objective is None else f"{r.objective:.6g}"
        lines.append(f"vnr {r.index}: {status}  objective={obj}  vars={r.variables}"
                     f"  rows={r.rows}  solve_ms={r.solve_ms:.1f}")
    lines.append(f"total objective: {report.total_objective():.6g}")
    if violations is not None:
        lines.append(f"violations: {len(violations)}")
        for v in violations:
            lines.append(f"  [{v.kind}] {v.message}")
    return "\n".join(lines) + "\n"


def report_json(report: EmbeddingReport, violations: list[Violation] | None = None) -> str:
    payload = {
        "format": REPORT_FORMAT,
        "records": [
            {"index": r.index, "status": r.status, "reason": r.reason,
             "objective": r.objective, "vars": r.variables, "rows": r.rows,
             "solve_ms": round(r.solve_ms, 3), "nodes": r.nodes_explored}
            for r in report.records],
        "total_objective": report.total_objective(),
        "residuals": report.residuals(),
    }
    if violations is not None:
        payload["violations"] = [
            {"kind": v.kind, "element": v.element, "message": v.message}
            for v in violations]
    return json.dumps(payload, indent=2) + "\n"
