import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphfun.graph import (
    Graph,
    GraphFormatError,
    format_graph,
    induced_subgraph,
    is_twin_pair,
    mask_of,
    parse_graph,
    sym_diff_neighborhoods,
)
from graphfun.families import random_graph
from graphfun.symdiff import sd_pair


def path(n):
    return Graph.from_edge_list(n, [(i, i + 1) for i in range(n - 1)])


def test_from_edge_list_basic():
    g = Graph.from_edge_list(4, [(0, 1), (1, 2), (2, 3)])
    assert g.n == 4
    assert g.has_edge(0, 1) and g.has_edge(1, 0)
    assert not g.has_edge(0, 2)
    assert g.degree(1) == 2
    assert g.num_edges() == 3
    assert g.edges() == [(0, 1), (1, 2), (2, 3)]


def test_rejects_loops_and_bad_vertices():
    with pytest.raises(ValueError):
        Graph.from_edge_list(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph.from_edge_list(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph.from_edge_list(3, [(0, 1), (1, 0)])


def test_rejects_asymmetric_rows():
    with pytest.raises(ValueError):
        Graph(2, (0b10, 0b00))


def test_empty_graph_allowed():
    g = Graph(0, ())
    assert g.n == 0 and g.num_edges() == 0


def test_induced_subgraph_reindexes_ascending():
    g = path(5)
    sub, mapping = induced_subgraph(g, [4, 0, 2, 3])
    assert mapping == (0, 2, 3, 4)
    assert sub.n == 4
    # edges kept: (2,3) -> (1,2), (3,4) -> (2,3)
    assert sub.edges() == [(1, 2), (2, 3)]
    with pytest.raises(ValueError):
        induced_subgraph(g, [])
    with pytest.raises(ValueError):
        induced_subgraph(g, [0, 5])
    # duplicates collapse
    sub2, mapping2 = induced_subgraph(g, [0, 0, 1])
    assert mapping2 == (0, 1) and sub2.n == 2


def test_sym_diff_excludes_endpoints():
    g = Graph.from_edge_list(3, [(0, 1), (1, 2), (0, 2)])  # triangle
    assert sym_diff_neighborhoods(g, 0, 1) == frozenset()
    assert is_twin_pair(g, 0, 1)
    h = path(3)
    assert sym_diff_neighborhoods(h, 0, 2) == frozenset()
    assert sym_diff_neighborhoods(h, 0, 1) == frozenset({2})


def test_mask_of():
    assert mask_of([0, 2, 5]) == 0b100101


def test_format_round_trip():
    g = path(6)
    assert parse_graph(format_graph(g)) == g


def test_parse_graph_comments_and_errors():
    g = parse_graph("# a path\n3 2\n0 1\n1 2\n")
    assert g == path(3)
    with pytest.raises(GraphFormatError):
        parse_graph("3 2\n0 1\n")  # missing edge line
    with pytest.raises(GraphFormatError):
        parse_graph("3 1\n1 0\n")  # u >= v
    with pytest.raises(GraphFormatError):
        parse_graph("3 1\n0 3\n")  # out of range
    with pytest.raises(GraphFormatError):
        parse_graph("not a header\n")


def test_huge_header_parses_in_linear_time():
    """A header-only file used to run a pairwise symmetry check for hours."""
    start = time.perf_counter()
    g = parse_graph("400000 0")
    assert time.perf_counter() - start < 5.0
    assert g.n == 400000 and not any(g.rows)


def _pairwise_validation_error(n, rows):
    """Graph's checks as a pairwise loop over the lower triangle: the error
    message, or None when the rows are accepted."""
    if n < 0 or len(rows) != n:
        return "row count must equal vertex count"
    full = (1 << n) - 1
    for v, row in enumerate(rows):
        if row >> v & 1:
            return f"loop at vertex {v}"
        if row & ~full:
            return f"row {v} references vertices >= n"
    for v in range(n):
        for u in range(v):
            if (rows[v] >> u & 1) != (rows[u] >> v & 1):
                return f"adjacency not symmetric at ({u},{v})"
    return None


@st.composite
def _row_tuples(draw):
    """Symmetric rows with a few single-bit flips, which make loops,
    out-of-range bits and asymmetric pairs, or arbitrary small ints, some
    with one row too many or too few."""
    n = draw(st.integers(min_value=0, max_value=9))
    if draw(st.booleans()):
        size = max(draw(st.sampled_from([n, n, n, n - 1, n + 1])), 0)
        return n, tuple(draw(st.lists(
            st.integers(min_value=-2, max_value=(1 << (n + 1)) - 1), min_size=size, max_size=size)))
    rows = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if draw(st.booleans()):
                rows[u] |= 1 << v
                rows[v] |= 1 << u
    if n:
        for _ in range(draw(st.integers(min_value=0, max_value=3))):
            v = draw(st.integers(min_value=0, max_value=n - 1))
            rows[v] ^= 1 << draw(st.integers(min_value=0, max_value=n + 1))
    return n, tuple(rows)


@settings(max_examples=400, deadline=None)
@given(_row_tuples())
def test_validation_matches_pairwise_loop(case):
    n, rows = case
    expected = _pairwise_validation_error(n, rows)
    if expected is None:
        assert Graph(n, rows).rows == rows
        return
    with pytest.raises(ValueError) as info:
        Graph(n, rows)
    message = str(info.value)
    assert message == expected
    if message.startswith("adjacency not symmetric"):
        u, v = map(int, message.split("(")[1].rstrip(")").split(","))
        assert (rows[v] >> u & 1) != (rows[u] >> v & 1)


RANGE_CASES = {
    "sd_pair-n": (lambda g: sd_pair(g, 0, g.n), 5),
    "sd_pair-negative": (lambda g: sd_pair(g, 0, -1), -1),
    "has_edge-negative": (lambda g: g.has_edge(0, -1), -1),
    "has_edge-above-n": (lambda g: g.has_edge(0, 7), 7),
    "has_edge-first-n": (lambda g: g.has_edge(5, 0), 5),
    "degree-negative": (lambda g: g.degree(-1), -1),
    "neighbors-n": (lambda g: g.neighbors(5), 5),
    "closed_neighborhood_mask-negative": (lambda g: g.closed_neighborhood_mask(-2), -2),
    "sym_diff_neighborhoods-above-n": (lambda g: sym_diff_neighborhoods(g, 6, 0), 6),
    "is_twin_pair-n": (lambda g: is_twin_pair(g, 0, 5), 5),
}


@pytest.mark.parametrize("case", sorted(RANGE_CASES))
def test_vertex_taking_functions_reject_out_of_range(case):
    call, vertex = RANGE_CASES[case]
    g = random_graph(5, 0.5, 1)
    with pytest.raises(ValueError, match=f"vertex {vertex} out of range"):
        call(g)
