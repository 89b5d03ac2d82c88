"""Data-center network embedding fixtures: schema, demo instance, and specs.

The schema models servers, switches, and links of both the physical
(substrate) and the requested (virtual) networks as typed nodes; `host` edges
record placement decisions. Links are first-class nodes whose endpoints hang
off `ssrc`/`strg` (substrate) and `vsrc`/`vtrg` (virtual) edges, so a
link-to-link mapping rule stays a flat pattern. Virtual elements carry a
`mapped` flag that rules flip on application, which keeps already-embedded
elements out of later match sets.

The texts are package data under `data/`, their only copy, read on first
use: `two-links.model` (the schema, then two parallel substrate links able to
host one virtual link), `two-links.gipsl` (link mapping only) and
`embedding.gipsl` (servers, switches and links: per-resource capacities,
exactly-once rows, and the coupling that keeps link endpoints contiguous).
"""

from __future__ import annotations

import functools
from importlib.resources import files

from .lang.parser import parse
from .lang.typecheck import TypedSpec, typecheck
from .model import Graph, Metamodel, load_metamodel, load_model

_FILES = {"TWO_LINKS_MODEL": "two-links.model", "TWO_LINKS_SPEC": "two-links.gipsl",
          "EMBEDDING_SPEC": "embedding.gipsl"}


@functools.cache
def _text(name: str) -> str:
    if name == "VNE_SCHEMA":  # the schema sections: all before the instance's `nodes`
        model = _text("TWO_LINKS_MODEL")
        return model[:model.index("\nnodes {") + 1]
    return (files(__package__) / "data" / _FILES[name]).read_text(encoding="utf-8")


def __getattr__(name: str) -> str:
    """`VNE_SCHEMA`, `TWO_LINKS_MODEL`, `TWO_LINKS_SPEC` and `EMBEDDING_SPEC`."""
    if name == "VNE_SCHEMA" or name in _FILES:
        return _text(name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def vne_metamodel() -> Metamodel:
    return load_metamodel(_text("VNE_SCHEMA"))


def two_links_model() -> tuple[Metamodel, Graph]:
    return load_model(_text("TWO_LINKS_MODEL"))


def two_links_spec() -> TypedSpec:
    return typecheck(parse(_text("TWO_LINKS_SPEC")), vne_metamodel())


def embedding_spec() -> TypedSpec:
    return typecheck(parse(_text("EMBEDDING_SPEC")), vne_metamodel())
