import os
import random
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import graphfun
from graphfun import graph
from graphfun.families import parse_hypergraph
from graphfun.graph import (
    MAX_VERTICES,
    Graph,
    GraphFormatError,
    format_graph,
    induced_subgraph,
    is_twin_pair,
    mask_of,
    parse_graph,
    sym_diff_neighborhoods,
)
from graphfun.families import hypercube, permutation_graph, random_graph, random_permutation
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
    for vertices, bad in (([0, 5], 5), ([-1, 2], -1)):
        with pytest.raises(ValueError, match=f"vertex {bad} out of range for n=5"):
            induced_subgraph(g, vertices)
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


def test_far_edge_on_many_vertices_parses_within_a_memory_limit():
    """One edge across 400,000 vertices must take the O(n + m) walk: a
    transpose would pack a 2**19 x 2**19 bit matrix, 32 GB.  The parse runs
    in a child process under a 1 GB address-space limit, so a wrong size
    rule fails the test instead of exhausting the machine."""
    code = ("import time; from graphfun.graph import parse_graph; "
            "start = time.perf_counter(); g = parse_graph('400000 1\\n0 399999'); "
            "print(time.perf_counter() - start, g.has_edge(399999, 0), g.num_edges())")
    limit = 1 << 30
    env = dict(os.environ, PYTHONPATH=str(Path(graphfun.__file__).resolve().parent.parent))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
    assert proc.returncode == 0, proc.stderr
    seconds, edge, edges = proc.stdout.split()
    assert float(seconds) < 5.0 and edge == "True" and edges == "1"


def test_parsers_reject_vertex_counts_above_the_limit():
    assert MAX_VERTICES >= 2**20  # a sparse graph on a million vertices parses
    for text, parse in ((f"{MAX_VERTICES + 1} 0", parse_graph),
                        (f"{MAX_VERTICES + 1} 1\n0 1 2", parse_hypergraph),
                        ("99999999999999999999 0", parse_graph)):
        with pytest.raises(GraphFormatError, match=f"above the limit of {MAX_VERTICES}"):
            parse(text)


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


def _width(n):
    """The packing width W of Graph validation: a power of two >= max(n, 8)."""
    return max(8, 1 << (n - 1).bit_length())


def _transposes(n, rows):
    """Graph's size rule: symmetry is checked by a transpose of the packed
    rows iff W**2 <= 16 * (n + the rows' total bit length) and
    W**2 <= 32 * (n + the rows' total bit count)."""
    return (_width(n) ** 2 <= 16 * (n + sum(row.bit_length() for row in rows))
            and _width(n) ** 2 <= 32 * (n + sum(row.bit_count() for row in rows)))


def _rule_examples():
    """For each W from 8 to 128, symmetric rows on n = W/2 + 1 vertices (3
    for W = 8), one edge below the size rule and on it; each also with one
    bit under a row's top bit flipped, which keeps the bit lengths and
    makes the rows asymmetric."""
    cases = []
    for w in (8, 16, 32, 64, 128):
        n = 3 if w == 8 else w // 2 + 1
        rows = [0] * n
        below = tuple(rows)
        for v in range(n):
            for u in range(v):
                if _transposes(n, rows):
                    break
                below = tuple(rows)
                rows[u] |= 1 << v
                rows[v] |= 1 << u
        for case in (below, tuple(rows)):
            cases.append((n, case))
            k = max(range(n), key=lambda v: case[v].bit_length())
            if case[k].bit_length() > 2:
                flipped = list(case)
                flipped[k] ^= 1 << (1 if k == 0 else 0)
                cases.append((n, tuple(flipped)))
    # At W = 8 no bit can be flipped that way; a half edge transposes too.
    cases.append((3, (0b100, 0, 0)))
    return cases


RULE_EXAMPLES = _rule_examples()


def test_rule_examples_sit_on_both_sides_of_the_rule(monkeypatch):
    transposed = []
    real = graph._transpose_asymmetry
    monkeypatch.setattr(graph, "_transpose_asymmetry",
                        lambda rows, w: transposed.append(w) or real(rows, w))
    seen = set()
    for n, rows in RULE_EXAMPLES:
        before = len(transposed)
        try:
            Graph(n, rows)
            symmetric = True
        except ValueError as exc:
            assert str(exc).startswith("adjacency not symmetric")
            symmetric = False
        side = len(transposed) > before
        assert side == _transposes(n, rows)
        seen.add((_width(n), side, symmetric))
    # (width, transposed, symmetric); at W = 8 no asymmetric rows are walked
    assert seen == {(w, side, symmetric) for w in (8, 16, 32, 64, 128)
                    for side in (False, True) for symmetric in (False, True)} - {(8, False, False)}


def test_sparse_rows_of_long_span_are_walked_and_dense_ones_transposed(monkeypatch):
    """Q_10's rows span almost all 1024 columns but set only 10 bits each,
    so its symmetry is walked; a 200-vertex permutation graph is
    transposed."""
    def refuse(*args):
        raise AssertionError("wrong symmetry path")

    with monkeypatch.context() as m:
        m.setattr(graph, "_transpose_asymmetry", refuse)
        assert hypercube(10).num_edges() == 10 * 512
    with monkeypatch.context() as m:
        m.setattr(graph, "_walk_asymmetry", refuse)
        assert permutation_graph(random_permutation(200, 0)).n == 200


@st.composite
def _row_tuples(draw):
    """Symmetric rows, dense or sparse, with far-index edges and a few
    single-bit flips, which make loops, out-of-range bits and asymmetric
    pairs; or arbitrary ints, some with one row too many or too few.  With
    n up to 70 the transpose runs at every W from 8 to 128, and sparse rows
    on many vertices take the walk."""
    n = draw(st.integers(min_value=0, max_value=70))
    if draw(st.integers(min_value=0, max_value=3)) == 0:
        size = max(draw(st.sampled_from([n, n, n, n - 1, n + 1])), 0)
        return n, tuple(draw(st.lists(
            st.integers(min_value=-2, max_value=(1 << (n + 1)) - 1), min_size=size, max_size=size)))
    p = draw(st.sampled_from([0.0, 0.0, 0.01, 0.05, 0.5, 0.9]))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    rows = [0] * n
    for v in range(n):
        for u in range(v):
            if rng.random() < p:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
    if n:
        far = st.tuples(st.integers(min_value=0, max_value=min(3, n - 1)),
                        st.integers(min_value=max(0, n - 4), max_value=n - 1))
        for u, v in draw(st.lists(far, max_size=3)):
            if u != v:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
        for _ in range(draw(st.integers(min_value=0, max_value=3))):
            v = draw(st.integers(min_value=0, max_value=n - 1))
            rows[v] ^= 1 << draw(st.integers(min_value=0, max_value=n + 1))
    return n, tuple(rows)


def _with_examples(test):
    for case in RULE_EXAMPLES:
        test = example(case)(test)
    return test


@settings(max_examples=400, deadline=None)
@given(_row_tuples())
@_with_examples
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


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([8, 16, 32, 64, 128]).flatmap(lambda w: st.tuples(
    st.just(w), st.lists(st.integers(min_value=0, max_value=(1 << w) - 1), max_size=w))))
def test_packed_transpose_matches_pairwise_transpose(case):
    w, rows = case
    columns = [0] * w
    for r, row in enumerate(rows):
        for c in range(w):
            if row >> c & 1:
                columns[c] |= 1 << r
    assert graph._transpose(graph._pack(rows, w), w) == graph._pack(columns, w)


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
