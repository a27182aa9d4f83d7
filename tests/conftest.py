"""Fixtures shared by the test suites.

`flow_values` runs the full, unreduced kappa and lambda sweeps on every
connected catalog relation once per session; the reduced sweeps and the
theorems are checked against it.  `flow_calls` counts the flows the
kappa and lambda sweeps run."""

from dataclasses import dataclass

import pytest

from schemeconn import connectivity
from schemeconn.catalog import BUILTIN_FAMILIES, build_family
from schemeconn.connectivity import edge_connectivity, vertex_connectivity
from schemeconn.graph import Graph
from schemeconn.scheme import relation_graph, symmetrized_scheme


@dataclass(frozen=True)
class Pair:
    scheme: object
    relation: int
    graph: Graph
    connected: bool


@pytest.fixture(scope="session")
def catalog_schemes():
    out = []
    for kind, params in BUILTIN_FAMILIES:
        s = build_family(kind, params)
        out.append(s if s.symmetric else symmetrized_scheme(s))
    return out


@pytest.fixture(scope="session")
def catalog_pairs(catalog_schemes):
    out = []
    for s in catalog_schemes:
        for i in range(1, s.d + 1):
            g = relation_graph(s, i)
            out.append(Pair(s, i, g, g.is_connected()))
    return out


@pytest.fixture(scope="session")
def flow_values(catalog_pairs):
    """(scheme name, relation) -> (kappa, lambda) for connected pairs, from
    the sweeps without automorphisms."""
    return {(p.scheme.name, p.relation):
            (vertex_connectivity(p.graph), edge_connectivity(p.graph))
            for p in catalog_pairs if p.connected}


@pytest.fixture
def flow_calls(monkeypatch):
    """The (s, t) of every _vertex_flow ("vertex") and _edge_flow ("edge")
    call: empty while kappa, respectively lambda, was decided without a
    flow."""
    calls = {"vertex": [], "edge": []}
    for kind in calls:
        real = getattr(connectivity, f"_{kind}_flow")

        def spy(rows, s, t, limit, real=real, seen=calls[kind]):
            seen.append((s, t))
            return real(rows, s, t, limit)

        monkeypatch.setattr(connectivity, f"_{kind}_flow", spy)
    return calls
