import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphfun.families import (
    Hypergraph3,
    IntervalSet,
    Permutation,
    _incidence_graph,
    distance_hereditary,
    format_hypergraph,
    format_intervals,
    format_permutation,
    hypercube,
    incidence_masks,
    line_graph,
    parse_hypergraph,
    parse_intervals,
    parse_permutation,
    permutation_graph,
    random_3_hypergraph,
    random_distance_hereditary_script,
    random_graph,
    random_permutation,
    random_unit_intervals,
    sd_construction,
    shattering_graph,
    unit_interval_graph,
)
from graphfun.functionality import fun_vertex
from graphfun.graph import Graph
from graphfun.naive import naive_min_sd


def test_hypercube_regular_and_sized():
    for n in (1, 2, 3, 4):
        q = hypercube(n)
        assert q.n == 1 << n
        assert all(q.degree(v) == n for v in range(q.n))
    assert hypercube(2) == Graph.from_edge_list(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    with pytest.raises(ValueError):
        hypercube(0)
    with pytest.raises(ValueError):
        hypercube(15)
    with pytest.raises(ValueError):
        hypercube(21)


def test_permutation_validation():
    with pytest.raises(ValueError):
        Permutation((1, 3))
    with pytest.raises(ValueError):
        Permutation((1, 1, 2))


def test_permutation_entries_must_be_ints():
    """Permutation((2.0, 1, 3)) was accepted, and permutation_graph then
    failed on a shift by a float."""
    for values, entry in (((2.0, 1, 3), "2.0"), ((2, True), "True"), ((1, "2"), "'2'")):
        with pytest.raises(ValueError, match=f"entry {entry} is not an int"):
            Permutation(values)


def test_permutation_graph_inversions():
    # neighbours of value 4 in 614253 are {6, 2, 3}
    g = permutation_graph(Permutation((6, 1, 4, 2, 5, 3)))
    assert {v + 1 for v in g.neighbors(3)} == {6, 2, 3}
    ident = permutation_graph(Permutation((1, 2, 3)))
    assert ident.num_edges() == 0
    rev = permutation_graph(Permutation((3, 2, 1)))
    assert rev.num_edges() == 3  # complete


def test_unit_interval_graph_exact_touching():
    # overlap must be strict: lefts 0 and 1 share only an endpoint
    iv = IntervalSet((Fraction(0), Fraction(3, 2)))
    assert unit_interval_graph(iv).num_edges() == 0
    iv2 = IntervalSet((Fraction(0), Fraction(1, 2)))
    assert unit_interval_graph(iv2).num_edges() == 1
    with pytest.raises(ValueError):
        IntervalSet((Fraction(0), Fraction(1)))  # duplicate endpoint


def test_unit_interval_vertices_sorted_by_left():
    iv = IntervalSet((Fraction(5, 2), Fraction(1, 3)))
    g = unit_interval_graph(iv)
    assert g.num_edges() == 0 and g.n == 2


def test_line_graph():
    # L(P4) = P3; L(K3) = K3
    p4 = Graph.from_edge_list(4, [(0, 1), (1, 2), (2, 3)])
    line = line_graph(p4)
    assert line.names == ((0, 1), (1, 2), (2, 3))
    assert line.graph.edges() == [(0, 1), (1, 2)]
    k3 = Graph.from_edge_list(3, [(0, 1), (0, 2), (1, 2)])
    assert line_graph(k3).graph.num_edges() == 3


def test_line_graph_checks_its_rows_and_edgeless_graphs():
    """The names and the incidence table of a LineGraph come from its one
    root graph; what it checks is a row index and an edgeless root."""
    line = line_graph(Graph.from_edge_list(4, [(0, 1), (1, 2), (2, 3)]))
    assert [line.row(e) for e in range(line.n)] == [0b010, 0b101, 0b010]
    for e in (-1, 3):
        with pytest.raises(ValueError, match=f"vertex {e} out of range for n=3"):
            line.row(e)
    for g in (Graph(3, (0, 0, 0)), Graph(0, ())):
        with pytest.raises(ValueError, match="line graph of an edgeless graph is undefined"):
            line_graph(g)


# (make an instance, {cached member: the constructor it must agree with})
CACHED = [
    (lambda: random_permutation(30, 2), {"graph": permutation_graph}),
    (lambda: random_unit_intervals(20, 3), {"graph": unit_interval_graph}),
    (lambda: random_3_hypergraph(12, 15, 4), {
        "incidence": lambda h: tuple(incidence_masks(h.n, h.edges)),
        "graph": lambda h: _incidence_graph(incidence_masks(h.n, h.edges), h.edges),
    }),
    (lambda: line_graph(random_graph(12, 0.4, 5)), {
        "graph": lambda line: _incidence_graph(
            incidence_masks(line.root.n, line.root.edges()), line.root.edges()),
    }),
]
CACHED_IDS = ["permutation", "intervals", "hypergraph", "line-graph"]


@pytest.mark.parametrize("make, built", CACHED, ids=CACHED_IDS)
def test_cached_graphs_equal_their_constructors(make, built):
    instance = make()
    for name, build in built.items():
        first = getattr(instance, name)
        assert first == build(instance)
        assert getattr(instance, name) is first


@pytest.mark.parametrize("make, built", CACHED, ids=CACHED_IDS)
def test_equality_and_hash_ignore_the_cache(make, built):
    cached, fresh = make(), make()
    for name in built:
        getattr(cached, name)
    assert cached == fresh and fresh == cached
    assert hash(cached) == hash(fresh)
    assert len({cached, fresh}) == 1
    assert all(name not in vars(fresh) for name in built)


def test_hypergraph_incidence_is_immutable():
    h = random_3_hypergraph(8, 10, 1)
    inc = h.incidence
    assert isinstance(inc, tuple)
    with pytest.raises(TypeError):
        inc[0] = 0
    with pytest.raises(AttributeError):
        h.incidence = ()
    assert h.incidence is inc


def test_shattering_graph_shape():
    d2 = shattering_graph(2)
    assert d2.n == 2 + 4
    assert d2.degree(2) == 0  # subset-vertex for the empty set
    assert set(d2.neighbors(5)) == {0, 1}
    with pytest.raises(ValueError):
        shattering_graph(0)


def test_sd_construction_values():
    assert sd_construction(1).values == (3, 1, 4, 2)
    assert sd_construction(2).values == (7, 4, 1, 8, 5, 2, 9, 6, 3)
    for t in (1, 2, 3):
        g = permutation_graph(sd_construction(t))
        assert g.n == (t + 1) ** 2
        assert naive_min_sd(g) >= t
    with pytest.raises(ValueError):
        sd_construction(0)


def test_distance_hereditary_steps():
    g = distance_hereditary([("pendant", 0), ("true_twin", 1), ("false_twin", 0)])
    assert g.n == 4
    # true twin of 1: adjacent to N(1) and to 1 itself
    assert g.has_edge(2, 1) and g.has_edge(2, 0)
    # false twin of 0: same neighbourhood, no edge to 0
    assert set(g.neighbors(3)) == set(g.neighbors(0)) - {3}
    assert not g.has_edge(3, 0)
    with pytest.raises(ValueError):
        distance_hereditary([("pendant", 5)])
    with pytest.raises(ValueError):
        distance_hereditary([("chord", 0)])


def test_distance_hereditary_low_fun():
    script = random_distance_hereditary_script(30, seed=9)
    g = distance_hereditary(script)
    assert min(fun_vertex(g, y).value for y in range(g.n)) <= 1


def test_random_generators_deterministic():
    assert random_graph(8, 0.5, 3) == random_graph(8, 0.5, 3)
    assert random_permutation(10, 4) == random_permutation(10, 4)
    assert random_unit_intervals(6, 5) == random_unit_intervals(6, 5)
    assert random_3_hypergraph(10, 12, 6) == random_3_hypergraph(10, 12, 6)
    assert random_graph(8, 0.5, 3) != random_graph(8, 0.5, 4)


def test_random_unit_intervals_distinct_endpoints():
    for seed in range(10):
        iv = random_unit_intervals(12, seed)
        pts = [l for l in iv.lefts] + [l + 1 for l in iv.lefts]
        assert len(set(pts)) == 2 * iv.n


def test_hyperedge_vertices_must_be_ints():
    """Hypergraph3(5, ((0, 1, 2.0),)) was accepted, and its graph then
    failed on a float list index."""
    for edge in ((0, 1, 2.0), (0, True, 2)):
        with pytest.raises(ValueError, match="has a vertex that is not an int"):
            Hypergraph3(5, (edge,))


@pytest.mark.parametrize("n", [True, 3.0, 5.0])
@pytest.mark.parametrize("build", [
    pytest.param(lambda n: Graph.from_edge_list(n, [(0, 1)]), id="from_edge_list"),
    pytest.param(lambda n: Hypergraph3(n, ((0, 1, 2),)), id="hypergraph3"),
])
def test_vertex_count_must_be_an_int(build, n):
    """Graph.from_edge_list(3.0, [(0, 1)]) failed with a bare TypeError from
    its list of n zeros, and Hypergraph3(5.0, ((0, 1, 2),)) was accepted
    until its graph did; both now raise Graph's ValueError first."""
    with pytest.raises(ValueError, match=f"^vertex count {n} is not an int$"):
        build(n)


def test_hypergraph_validation():
    with pytest.raises(ValueError):
        Hypergraph3(4, ((0, 1, 1),))
    with pytest.raises(ValueError):
        Hypergraph3(3, ((0, 1, 3),))
    with pytest.raises(ValueError):
        Hypergraph3.from_edges(4, [(0, 1, 2), (2, 1, 0)])
    with pytest.raises(ValueError, match="vertex count"):
        Hypergraph3(-1, ())
    # hyper3 looks hyperedges up as sorted triples
    with pytest.raises(ValueError, match="increasing order.*from_edges"):
        Hypergraph3(6, ((2, 1, 0),))
    with pytest.raises(ValueError, match="increasing order"):
        Hypergraph3(6, ((0, 3, 4), (1, 5, 4)))
    assert Hypergraph3.from_edges(6, [(2, 1, 0)]).edges == ((0, 1, 2),)
    # four entries with a repeat hold three distinct values
    with pytest.raises(ValueError, match="must have 3 distinct vertices"):
        Hypergraph3(5, ((1, 2, 3, 3),))
    with pytest.raises(ValueError, match="must have 3 distinct vertices"):
        Hypergraph3.from_edges(5, [(3, 1, 2, 3)])


def test_interval_endpoints_with_an_exponent_are_rejected():
    for text in ("0\n1e10000000\n", "0\n1E3\n", "2.5e-1\n"):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="exponent"):
            parse_intervals(text)
        assert time.perf_counter() - start < 0.5
    # integers, p/q and decimals still parse
    assert parse_intervals("-3\n7/2\n0.25\n").lefts == (
        Fraction(-3), Fraction(7, 2), Fraction(1, 4))


def test_file_formats_round_trip():
    p = random_permutation(9, 0)
    assert parse_permutation(format_permutation(p)) == p
    iv = random_unit_intervals(5, 1)
    assert parse_intervals(format_intervals(iv)) == iv
    h = random_3_hypergraph(12, 10, 2)
    assert parse_hypergraph(format_hypergraph(h)) == h
    with pytest.raises(ValueError):
        parse_hypergraph("3 2\n0 1 2\n")
    for header in ("3 0 5", "3", "three 0"):
        with pytest.raises(ValueError, match="bad header line"):
            parse_hypergraph(header + "\n")
    with pytest.raises(ValueError, match="vertex count"):
        parse_hypergraph("-1 0\n")


# --- constructors against their pairwise definitions ------------------------


def _pairwise_graph(n, adjacent):
    rows = [0] * n
    for i in range(n):
        for j in range(n):
            if i != j and adjacent(i, j):
                rows[i] |= 1 << j
    return Graph(n, tuple(rows))


@st.composite
def _graphs(draw):
    n = draw(st.integers(min_value=1, max_value=9))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return Graph.from_edge_list(n, [e for e in pairs if draw(st.booleans())])


@settings(max_examples=150, deadline=None)
@given(_graphs())
def test_line_graph_matches_pairwise(g):
    edges = g.edges()
    if not edges:
        with pytest.raises(ValueError):
            line_graph(g)
        return
    line = line_graph(g)
    assert line.names == tuple(edges)
    assert line.graph == _pairwise_graph(len(edges), lambda i, j: bool(set(edges[i]) & set(edges[j])))


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=1, max_value=14).flatmap(
    lambda n: st.permutations(range(1, n + 1))))
def test_permutation_graph_matches_pairwise(values):
    p = Permutation(tuple(values))
    pos = {v: i for i, v in enumerate(values)}
    # vertex a - 1 is value a; values a < b are adjacent iff b comes first
    expected = _pairwise_graph(
        p.n, lambda i, j: (i < j) == (pos[i + 1] > pos[j + 1]))
    assert permutation_graph(p) == expected
    assert p.position_of() is p.position_of()
    assert p.position_of() == {v: i + 1 for v, i in pos.items()}


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=1, max_value=20).flatmap(lambda d: st.tuples(
    st.just(2 * d + 1),
    st.lists(st.integers(min_value=0, max_value=4 * d + 2), unique=True, max_size=12))))
def test_unit_interval_graph_matches_pairwise(case):
    # even numerators over an odd denominator keep all 2n endpoints distinct
    denom, numerators = case
    lefts = [Fraction(2 * k, denom) for k in numerators]
    ordered = sorted(lefts)
    expected = _pairwise_graph(len(ordered), lambda i, j: abs(ordered[i] - ordered[j]) < 1)
    assert unit_interval_graph(IntervalSet(tuple(lefts))) == expected
