"""Task placement with disjunctive rules, for the `disjunctive` workload.

An instance has servers (capacity, minimum load, zone, unit cost), tasks
(cpu demand) and affinity wires between task pairs. Its spec asks for:

* every task placed exactly once, within server capacity;
* each server either empty or loaded to at least its `minLoad`, an "or" of
  two relations, which the encoder lowers through indicator variables and
  big-M rows;
* each wired pair in a common zone, written as a DNF over the zones,
  `(a in z0 & b in z0) | (a in z1 & b in z1)`, which the encoder
  distributes into CNF clauses over indicators.

The objective is the cheapest placement (cost times cpu). Instances are small
enough for `best_cost` to enumerate every placement, which is the reference
the program's answer is checked against; the enumeration shares no code with
graphilp.
"""

from __future__ import annotations

import itertools
import random
import re
from dataclasses import dataclass

SERVERS = 3
TASKS = 4
ZONES = 2
WIRES = 2

SCHEMA = """\
nodetypes {
  nodetype { name: Element }
  nodetype { name: Server  supertype: Element
             attrs { cpu: int  resCpu: int  minLoad: int  zone: int  cost: int } }
  nodetype { name: Task  supertype: Element  attrs { cpu: int  placed: bool } }
}
edgetypes {
  edgetype { name: host  src: Task  tgt: Server }
  edgetype { name: aff  src: Task  tgt: Task }
}
"""

SPEC_HEAD = """\
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

constraint -> class::Task {
  self.placed | mappings.put->filter(m | m.nodes().t == self)->sum(m | 1) == 1
}

constraint -> class::Server {
  mappings.put->filter(m | m.nodes().s == self)->sum(m | m.nodes().t.cpu) <= self.resCpu
}

constraint -> class::Server {
  mappings.put->filter(m | m.nodes().s == self)->sum(m | 1) == 0
  | mappings.put->filter(m | m.nodes().s == self)->sum(m | m.nodes().t.cpu) >= self.minLoad
}
"""

SPEC_TAIL = """\
objective cost -> mapping::put {
  self.nodes().s.cost * self.nodes().t.cpu
}

global objective : min {
  cost
}
"""


@dataclass(frozen=True)
class Server:
    id: str
    cpu: int
    min_load: int
    zone: int
    cost: int


@dataclass(frozen=True)
class Instance:
    servers: tuple[Server, ...]
    tasks: tuple[int, ...]  # cpu demand of task t<i>
    wires: tuple[tuple[int, int], ...]  # task index pairs that must share a zone


def make_instance(rng: random.Random) -> Instance:
    servers = []
    for i in range(SERVERS):
        cpu = rng.randint(8, 16)
        servers.append(Server(f"s{i}", cpu, rng.randint(4, cpu // 2 + 2), i % ZONES,
                              rng.randint(1, 9)))
    tasks = tuple(rng.randint(1, 8) for _ in range(TASKS))
    wires = tuple(rng.sample(list(itertools.combinations(range(TASKS), 2)), WIRES))
    return Instance(tuple(servers), tasks, wires)


def model_text(inst: Instance) -> str:
    lines = [SCHEMA.rstrip("\n"), "nodes {"]
    for s in inst.servers:
        lines.append(f"  node {{ id: {s.id}  type: Server  attrs {{ cpu: {s.cpu}  "
                     f"resCpu: {s.cpu}  minLoad: {s.min_load}  zone: {s.zone}  "
                     f"cost: {s.cost} }} }}")
    for i, cpu in enumerate(inst.tasks):
        lines.append(f"  node {{ id: t{i}  type: Task  attrs {{ cpu: {cpu}  placed: false }} }}")
    lines += ["}", "edges {"]
    for k, (a, b) in enumerate(inst.wires):
        lines.append(f"  edge {{ id: w{k}  type: aff  src: t{a}  tgt: t{b} }}")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _in_zone(end: str, zone: int) -> str:
    return (f"mappings.put->filter(m | m.nodes().t == self.nodes().{end} "
            f"& m.nodes().s.zone == {zone})->sum(m | 1) >= 1")


def spec_text() -> str:
    body = "\n  | ".join(f"({_in_zone('a', z)}\n     & {_in_zone('b', z)})"
                         for z in range(ZONES))
    return (f"{SPEC_HEAD}\nrule pair {{\n  nodes {{ a: Task  b: Task }}\n"
            f"  edges {{ w: aff(a -> b) }}\n}}\n\n"
            f"constraint -> pattern::pair {{\n  {body}\n}}\n\n{SPEC_TAIL}")


def violations(inst: Instance, hosts: dict[int, int]) -> list[str]:
    """What is wrong with a placement (task index -> server index)."""
    found = [f"t{t} not placed" for t in range(len(inst.tasks)) if t not in hosts]
    load = [0] * len(inst.servers)
    for t, s in hosts.items():
        load[s] += inst.tasks[t]
    for s, server in enumerate(inst.servers):
        if load[s] > server.cpu:
            found.append(f"{server.id} over capacity")
        if 0 < load[s] < server.min_load:
            found.append(f"{server.id} below its minimum load")
    zone = {t: inst.servers[s].zone for t, s in hosts.items()}
    for a, b in inst.wires:
        if a in zone and b in zone and zone[a] != zone[b]:
            found.append(f"t{a}/t{b} not in a common zone")
    return found


def cost(inst: Instance, hosts: dict[int, int]) -> int:
    return sum(inst.servers[s].cost * inst.tasks[t] for t, s in hosts.items())


def best_cost(inst: Instance) -> int | None:
    """Cheapest valid placement by enumerating all of them; None if none."""
    best = None
    for choice in itertools.product(range(len(inst.servers)), repeat=len(inst.tasks)):
        hosts = dict(enumerate(choice))
        if not violations(inst, hosts):
            c = cost(inst, hosts)
            best = c if best is None else min(best, c)
    return best


_HOST_EDGE = re.compile(r"edge \{ id: \S+\s+type: host\s+src: t(\d+)\s+tgt: s(\d+) \}")
_SERVER = re.compile(r"node \{ id: s(\d+)\s+type: Server\s+attrs \{ cpu: -?\d+\s+resCpu: (-?\d+)")
_TASK = re.compile(r"node \{ id: t(\d+)\s+type: Task\s+attrs \{ cpu: \d+\s+placed: (true|false)")


def check_applied(inst: Instance, text: str, expected_cost: int) -> list[str]:
    """Read the written model with this module's own patterns and check it."""
    hosts: dict[int, int] = {}
    found = []
    for t, s in _HOST_EDGE.findall(text):
        if int(t) in hosts:
            found.append(f"t{t} has two host edges")
        hosts[int(t)] = int(s)
    found += violations(inst, hosts)
    if cost(inst, hosts) != expected_cost:
        found.append(f"applied placement costs {cost(inst, hosts)}, "
                     f"optimum is {expected_cost}")
    load = [0] * len(inst.servers)
    for t, s in hosts.items():
        load[s] += inst.tasks[t]
    for s, res in _SERVER.findall(text):
        server = inst.servers[int(s)]
        if int(res) != server.cpu - load[int(s)]:
            found.append(f"{server.id}.resCpu is {res}, expected {server.cpu - load[int(s)]}")
    flags = dict(_TASK.findall(text))
    if len(flags) != len(inst.tasks) or "false" in flags.values():
        found.append("not every task is marked placed")
    return found
