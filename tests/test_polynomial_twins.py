"""Twins in P-polynomial schemes, predicted from the ordering alone.

Let a class g* generate a metric ordering: its distribution diagram is a
path, so R_0..R_d, the classes by level, are the distances of the
distance-regular graph Gamma_{g*}.  The prediction for the graph Gamma_j of
class R_j is

- d >= 3: its twins are the pairs of R_d when {0, d} is closed
  (p_dd^k = 0 at every level 0 < k < d, the antipodal case) and d = 2j,
  and there are none otherwise;
- d = 2: its twins are the pairs of the other class when Gamma_j is
  connected, not complete and complete multipartite, and there are none
  otherwise;
- d = 1: there are none.

The statement is derived, not transcribed: the repository holds only the
paper's abstract.  R_0 with the twin classes is a closed set of classes,
hence a system of imprimitivity of Gamma_{g*}, which by Smith's theorem
(Brouwer-Cohen-Neumaier, Distance-Regular Graphs, 1989, Thm 4.2.1) is
bipartite or antipodal.  Bipartite halves as twin sets force Gamma_j to be
complete bipartite and d <= 2.  For antipodal fibres, x' in x's fibre and
d(x, y) = j < d give d(x', y) = d - j, so Gamma_j(x) = Gamma_j(x') iff
j = d - j.

The prediction is compared with the twin classes read off the tensor and,
where v <= 300, with the twins of the relation graph itself.
"""

from math import comb

from schemeconn.catalog import BUILTIN_FAMILIES, build_family
from schemeconn.diagram import complete_multipartite, twin_classes
from schemeconn.scheme import relation_graph, symmetrized_scheme
from small_graphs import twins

FAMILIES = sorted(set(
    BUILTIN_FAMILIES
    + tuple(("cyclic", (n,)) for n in range(3, 41))
    + tuple(("hamming", (n, q)) for q in (2, 3, 4) for n in range(1, 11)
            if q ** n <= 1100)
    + tuple(("johnson", (n, k)) for k in range(2, 8) for n in range(2 * k, 46)
            if comb(n, k) <= 1000)), key=repr)

GRAPH_ORACLE_MAX_V = 300


def predicted_twin_classes(scheme, order, j: int) -> tuple[int, ...]:
    """The classes whose pairs are twins of relation order[j], with the
    classes in the metric order R_0..R_d = order (module docstring)."""
    d, g = scheme.d, order[j]
    if d >= 3:
        far = order[d]
        antipodal = not any(scheme.p[far, far, order[k]] for k in range(1, d))
        return (far,) if antipodal and d == 2 * j else ()
    if d == 2:
        connected = scheme.diagrams[g].diameter is not None
        complete = scheme.valencies[g] == scheme.v - 1
        if connected and not complete and complete_multipartite(scheme, g):
            return (order[3 - j],)
    return ()


def _graph_twin_classes(scheme, g: int) -> tuple[int, ...]:
    pairs = twins(relation_graph(scheme, g)).pairs
    return tuple(sorted({int(scheme.classes[a, b]) for a, b in pairs}))


def test_polynomial_twins_match_the_tensor_and_the_graph():
    checked = with_twins = orderings = 0
    mismatches = []
    for kind, params in FAMILIES:
        scheme = symmetrized_scheme(build_family(kind, params))
        for gen, diagram in scheme.diagrams.items():
            if diagram.diameter != scheme.d:
                continue
            orderings += 1
            order = [int(c) for c in diagram.levels.argsort()]
            for j in range(1, scheme.d + 1):
                want = predicted_twin_classes(scheme, order, j)
                got = {"tensor": twin_classes(scheme, order[j])}
                if scheme.v <= GRAPH_ORACLE_MAX_V:
                    got["graph"] = _graph_twin_classes(scheme, order[j])
                for oracle, classes in got.items():
                    if classes != want:
                        mismatches.append((scheme.name, gen, order[j],
                                           oracle, want, classes))
                checked += 1
                with_twins += bool(want)
    assert not mismatches, mismatches[:10]
    # the prediction is not vacuous: both cases occur, on every kind of input
    assert len(FAMILIES) >= 130 and orderings >= 150, (len(FAMILIES),
                                                       orderings)
    assert checked >= 3000 and with_twins >= 50, (checked, with_twins)
