"""The hereditary sweeps behind fun_graph and sd_graph: exact rejection of
subsets by their scorers, and attaining subgraphs pinned across solver
changes."""
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphfun.families import IntervalSet, random_graph, unit_interval_graph
from graphfun.functionality import _min_fun_over, fun_graph, is_function_of
from graphfun.graph import induced_subgraph, mask_of
from graphfun.naive import naive_fun_vertex
from graphfun.symdiff import sd_graph


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=7),
    p=st.sampled_from([0.2, 0.5, 0.8]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    pick=st.integers(min_value=1, max_value=2**7 - 1),
    floor=st.integers(min_value=-1, max_value=3),
)
def test_min_fun_over_matches_naive(n, p, seed, pick, floor):
    """None iff min fun of G[among] is at most ``floor``; otherwise the
    lowest arg-min vertex with a support of the naive size that replays in
    G[among]."""
    g = random_graph(n, p, seed)
    among = pick & ((1 << n) - 1) or 1
    sub, mapping = induced_subgraph(g, [v for v in range(n) if among >> v & 1])
    values = [naive_fun_vertex(sub, y) for y in range(sub.n)]
    found = _min_fun_over(g, among, floor)
    if min(values) <= floor:
        assert found is None
        return
    assert found is not None
    y, support = found
    assert y == mapping[values.index(min(values))]
    assert len(support) == min(values)
    assert mask_of(support) & ~among == 0
    back = {v: i for i, v in enumerate(mapping)}
    assert is_function_of(sub, back[y], {back[v] for v in support}) is not None


def _unit_interval_12():
    rng = random.Random(4)
    return unit_interval_graph(
        IntervalSet(tuple(Fraction(a, 25) for a in rng.sample(range(0, 100, 2), 12)))
    )


GRAPHS = {
    "G(12,0.2)": lambda: random_graph(12, 0.2, 1),
    "G(12,0.5)": lambda: random_graph(12, 0.5, 2),
    "G(12,0.8)": lambda: random_graph(12, 0.8, 3),
    "unit-interval-12": _unit_interval_12,
    "G(14,0.5)": lambda: random_graph(14, 0.5, 5),
    "G(16,0.5)": lambda: random_graph(16, 0.5, 6),
}

# Recorded before the sweeps' scorers gained their cheap rejections; a
# faster sweep may skip more subsets but must report these.
# fun_graph: (value, witness_vertex, witness_set, subgraph)
# sd_graph: (value, pair, subgraph)
GOLDEN_SWEEPS = {
    "G(12,0.2)": (
        (1, 2, [8], [0, 1, 2, 3, 4, 6, 7, 8, 9, 10, 11]),
        (1, (0, 10), [0, 1, 2, 3, 4, 5, 6, 8, 9, 10, 11]),
    ),
    "G(12,0.5)": (
        (2, 1, [4, 8], [0, 1, 2, 3, 4, 5, 6, 8, 9, 10, 11]),
        (2, (1, 5), [0, 1, 2, 3, 5, 6, 7, 8, 9, 10, 11]),
    ),
    "G(12,0.8)": (
        (2, 1, [3, 8], [1, 3, 5, 6, 7, 8, 9, 10]),
        (2, (0, 4), [0, 3, 4, 5, 6, 7, 8, 9]),
    ),
    "unit-interval-12": (
        (1, 1, [2], list(range(12))),
        (1, (0, 1), [0, 1, 4, 5, 6, 7, 8, 9, 10]),
    ),
    "G(14,0.5)": (
        (2, 0, [2, 7], list(range(14))),
        (3, (0, 7), list(range(14))),
    ),
    "G(16,0.5)": (
        (3, 0, [2, 4, 6], [0, 1, 2, 3, 4, 5, 6, 7, 9, 10, 11, 12, 14, 15]),
        (3, (0, 6), list(range(15))),
    ),
}


@pytest.mark.parametrize("name", list(GOLDEN_SWEEPS))
def test_sweeps_are_reproduced(name):
    g = GRAPHS[name]()
    golden_fun, golden_sd = GOLDEN_SWEEPS[name]
    f = fun_graph(g, exact_limit=16)
    assert (f.value, f.witness_vertex, sorted(f.witness_set), sorted(f.subgraph)) == golden_fun
    s = sd_graph(g, exact_limit=16)
    assert (s.value, s.pair, sorted(s.subgraph)) == golden_sd
