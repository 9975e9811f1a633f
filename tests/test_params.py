import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphfun.families import hypercube, random_graph, shattering_graph
from graphfun.graph import Graph
from graphfun.naive import naive_degeneracy, naive_vc_dimension
from graphfun.params import degeneracy, vc_dimension


def complete(n):
    return Graph.from_edge_list(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


small_graphs = st.builds(
    random_graph,
    n=st.integers(min_value=1, max_value=9),
    p=st.sampled_from([0.2, 0.5, 0.8]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)


def test_degeneracy_ground_truths():
    assert degeneracy(complete(5)).value == 4
    tree = Graph.from_edge_list(5, [(0, 1), (0, 2), (1, 3), (1, 4)])
    assert degeneracy(tree).value == 1
    assert degeneracy(hypercube(4)).value == 4
    with pytest.raises(ValueError):
        degeneracy(Graph(0, ()))


def test_degeneracy_order_certifies_value():
    g = random_graph(12, 0.4, 5)
    res = degeneracy(g)
    removed = 0
    worst = 0
    for v in res.order:
        worst = max(worst, (g.rows[v] & ~removed).bit_count())
        removed |= 1 << v
    assert worst == res.value
    assert sorted(res.order) == list(range(g.n))


def test_degeneracy_lowest_index_ties():
    # K3: all degrees equal, so removal order must be 0, 1, 2
    assert degeneracy(complete(3)).order == (0, 1, 2)


def test_vc_ground_truths():
    c5 = Graph.from_edge_list(5, [(i, (i + 1) % 5) for i in range(5)])
    assert vc_dimension(c5).value == 2
    assert vc_dimension(Graph(1, (0,))).value == 0
    # in a complete graph every closed neighbourhood is V, so even
    # singletons cannot be shattered
    assert vc_dimension(complete(4)).value == 0
    # star K_{1,3}: {1,2} is shattered (traces via 0, 1, 2 and leaf 3)
    star = Graph.from_edge_list(4, [(0, 1), (0, 2), (0, 3)])
    assert vc_dimension(star).value == 2
    with pytest.raises(ValueError):
        vc_dimension(Graph(0, ()))


def test_vc_shattered_set_is_shattered():
    g = shattering_graph(3)
    res = vc_dimension(g)
    assert res.value == 3
    hoods = [frozenset(g.neighbors(v)) | {v} for v in range(g.n)]
    traces = {frozenset(res.shattered & h) for h in hoods}
    assert len(traces) == 1 << len(res.shattered)


@settings(max_examples=40, deadline=None)
@given(small_graphs)
def test_degeneracy_matches_naive(g):
    assert degeneracy(g).value == naive_degeneracy(g)


def _first_shattered_by_scan(g):
    """The lexicographically first maximum shattered set, by testing every
    d-subset in combinations order from floor(log2 n) down."""
    hoods = [g.closed_neighborhood_mask(v) for v in range(g.n)]
    for d in range(g.n.bit_length() - 1, 0, -1):
        for candidate in itertools.combinations(range(g.n), d):
            traces = {sum(1 << i for i, v in enumerate(candidate) if h >> v & 1) for h in hoods}
            if len(traces) == 1 << d:
                return frozenset(candidate)
    return frozenset()


@settings(max_examples=40, deadline=None)
@given(small_graphs)
def test_vc_matches_naive_and_log_bound(g):
    res = vc_dimension(g)
    assert res.value == naive_vc_dimension(g)
    assert res.value <= g.n.bit_length() - 1
    assert res.shattered == _first_shattered_by_scan(g)
    hoods = [frozenset(g.neighbors(v)) | {v} for v in range(g.n)]
    assert len({res.shattered & h for h in hoods}) == 1 << res.value
