import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphfun.families import random_graph
from graphfun.functionality import fun_graph, is_function_of
from graphfun.graph import Graph, induced_subgraph
from graphfun.naive import (
    naive_fun_vertex,
    naive_min_fun,
    naive_min_sd,
    naive_sd_graph,
    naive_sd_pair,
)
from graphfun.symdiff import min_sd, sd_graph, sd_pair


def cycle(n):
    return Graph.from_edge_list(n, [(i, (i + 1) % n) for i in range(n)])


small_graphs = st.builds(
    random_graph,
    n=st.integers(min_value=2, max_value=8),
    p=st.sampled_from([0.2, 0.5, 0.8]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)


def test_sd_pair_examples():
    g = cycle(5)
    assert sd_pair(g, 0, 1) == 2  # neighbours 4 and 2 differ, 0/1 excluded
    g2 = Graph.from_edge_list(2, [(0, 1)])
    assert sd_pair(g2, 0, 1) == 0
    with pytest.raises(ValueError):
        sd_pair(g, 2, 2)


def test_min_sd_ground_truths():
    assert min_sd(cycle(5)).value == 2
    complete = Graph.from_edge_list(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    assert min_sd(complete).value == 0
    with pytest.raises(ValueError):
        min_sd(Graph.from_edge_list(1, []))


def test_min_sd_lowest_pair_on_ties():
    assert min_sd(cycle(5)).pair == (0, 1)


def test_sd_graph_c5():
    res = sd_graph(cycle(5))
    assert res.value == 2


@settings(max_examples=40, deadline=None)
@given(small_graphs)
def test_sd_matches_naive(g):
    assert min_sd(g).value == naive_min_sd(g)
    for x in range(g.n):
        for y in range(x + 1, g.n):
            assert sd_pair(g, x, y) == naive_sd_pair(g, x, y)


@settings(max_examples=15, deadline=None)
@given(small_graphs)
def test_sd_graph_matches_naive_and_bounds_fun(g):
    sg = sd_graph(g).value
    assert sg == naive_sd_graph(g)
    assert fun_graph(g).value <= sg + 1


@settings(max_examples=30, deadline=None)
@given(st.builds(
    random_graph,
    n=st.integers(min_value=2, max_value=6),
    p=st.sampled_from([0.2, 0.5, 0.8]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
))
def test_sweeps_report_first_attaining_subset(g):
    """Both sweeps report the first subset, by decreasing size then
    lexicographic order, whose naive min equals the reported value, and a
    witness that attains it inside that subgraph."""
    subsets = [s for size in range(g.n, 0, -1)
               for s in itertools.combinations(range(g.n), size)]

    def first(naive_min, min_size, value):
        return next(s for s in subsets if len(s) >= min_size
                    and naive_min(induced_subgraph(g, s)[0]) == value)

    fg = fun_graph(g)
    assert fg.subgraph == frozenset(first(naive_min_fun, 1, fg.value))
    sub, mapping = induced_subgraph(g, fg.subgraph)
    back = {v: i for i, v in enumerate(mapping)}
    y = back[fg.witness_vertex]
    assert naive_fun_vertex(sub, y) == len(fg.witness_set) == fg.value
    assert is_function_of(sub, y, {back[v] for v in fg.witness_set}) is not None

    sg = sd_graph(g)
    assert sg.subgraph == frozenset(first(naive_min_sd, 2, sg.value))
    sub, mapping = induced_subgraph(g, sg.subgraph)
    back = {v: i for i, v in enumerate(mapping)}
    assert naive_sd_pair(sub, back[sg.pair[0]], back[sg.pair[1]]) == sg.value


def test_min_sd_is_at_most_half_of_n_minus_one_on_every_small_graph():
    """sd_graph stops its sweep at size s once (s-1)//2 cannot beat the best
    value.  Every graph on 2-6 vertices obeys that bound, and on 4, 5 and 6
    vertices some graph attains it, so the bound cannot be lowered."""
    for n in range(2, 7):
        pairs = list(itertools.combinations(range(n), 2))
        top = 0
        for bits in range(1 << len(pairs)):
            g = Graph.from_edge_list(n, [e for i, e in enumerate(pairs) if bits >> i & 1])
            value = min_sd(g).value
            assert value <= (n - 1) // 2, (n, bits)
            top = max(top, value)
        if n >= 4:
            assert top == (n - 1) // 2, n


@settings(max_examples=60, deadline=None)
@given(st.builds(
    random_graph,
    n=st.integers(min_value=2, max_value=14),
    p=st.sampled_from([0.1, 0.3, 0.5, 0.7, 0.9]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
))
def test_sd_graph_is_at_most_half_of_n_minus_one(g):
    assert sd_graph(g).value <= (g.n - 1) // 2
