import json
import os
import random
import re
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
    mask_of,
    parse_graph,
    sym_diff_mask,
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
    assert sym_diff_mask(g, 0, 1) == 0
    h = path(3)
    assert sym_diff_mask(h, 0, 2) == 0
    assert sym_diff_mask(h, 0, 1) == 0b100


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
    "sym_diff_mask-above-n": (lambda g: sym_diff_mask(g, 6, 0), 6),
}


@pytest.mark.parametrize("case", sorted(RANGE_CASES))
def test_vertex_taking_functions_reject_out_of_range(case):
    call, vertex = RANGE_CASES[case]
    g = random_graph(5, 0.5, 1)
    with pytest.raises(ValueError, match=f"vertex {vertex} out of range"):
        call(g)


# --- edge files read at once against a per-line reader ----------------------


def _line_by_line(text):
    """parse_graph as it was when it read one line at a time, for files
    whose header is well formed: (n, rows), or the GraphFormatError message.
    The first line that is not two integers 0 <= u < v < n is reported; a
    repeated edge only when every line is well formed."""
    data = [ln for ln in map(str.strip, text.splitlines()) if ln and not ln.startswith("#")]
    n, m = map(int, data[0].split())
    if len(data) - 1 != m:
        return f"expected {m} edge lines, got {len(data) - 1}"
    edges = []
    for ln in data[1:]:
        parts = ln.split()
        if len(parts) != 2:
            return f"bad edge line: {ln!r}"
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            return f"bad edge line: {ln!r}"
        if not 0 <= u < v < n:
            return f"edge ({u},{v}) violates 0 <= u < v < n"
        edges.append((u, v))
    rows = [0] * n
    for u, v in edges:
        if rows[u] >> v & 1:
            return f"duplicate edge {(u, v)}"
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return n, tuple(rows)


EDGE_FAULTS = ("tokens", "not-int", "order", "range", "repeat", "blank")


def _spell(rng, x):
    """x as a token Python's int reads: plain, signed, zero-padded, with an
    underscore or in Arabic-Indic digits."""
    return rng.choice([str(x), str(x), str(x), f"+{x}", f"0{x}",
                       f"{x // 10}_{x % 10}" if x >= 10 else str(x),
                       str(x).translate(str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩"))])


def _edge_file(seed, faults):
    """A G(n, 0.4) edge file in random line order and spelling, with one
    line inserted per fault: a line of one or three tokens, a token int
    cannot read, u >= v, an endpoint out of range, a repeat of an edge, or
    a blank or ``#`` line.  The header counts the data lines."""
    rng = random.Random(seed)
    n = rng.randint(2, 12)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4]
    rng.shuffle(edges)
    lines = [_spell(rng, u) + rng.choice([" ", "  ", "\t", " \t "]) + _spell(rng, v)
             for u, v in edges]
    for fault in faults:
        u, v = sorted(rng.sample(range(n), 2))
        line = {
            "tokens": rng.choice([f"{u}", f"{u} {v} {v}"]),
            "not-int": rng.choice([f"{u} x", f"1.5 {v}", f"{u} 0x1", f"{u} {v}e0"]),
            "order": rng.choice([f"{v} {u}", f"{u} {u}"]),
            "range": rng.choice([f"{u} {n}", f"{u} {n + 5}", f"-1 {v}"]),
            "repeat": "{} {}".format(*map(lambda x: _spell(rng, x), rng.choice(edges or [(u, v)]))),
            "blank": rng.choice(["", "   ", "# comment", "#0 1"]),
        }[fault]
        if fault == "repeat" and not edges:
            lines.append(line)
        lines.insert(rng.randint(0, len(lines)), line)
    data = [ln for ln in lines if ln.strip() and not ln.strip().startswith("#")]
    return f"{n} {len(data)}\n" + "".join(f" {ln}\n" for ln in lines)


def _parse_outcome(text):
    try:
        g = parse_graph(text)
    except GraphFormatError as exc:
        return str(exc)
    return g.n, g.rows


@settings(max_examples=400, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       faults=st.lists(st.sampled_from(EDGE_FAULTS), max_size=2))
@example(seed=0, faults=[])
@example(seed=3, faults=["repeat", "tokens"])
@example(seed=3, faults=["range", "not-int"])
def test_parse_graph_matches_the_per_line_reader(seed, faults):
    text = _edge_file(seed, faults)
    assert _parse_outcome(text) == _line_by_line(text), text


def test_parse_graph_reports_the_first_faulty_line_before_a_repeat():
    assert _parse_outcome("3 3\n0 1\n0 1\n1 x\n") == "bad edge line: '1 x'"
    assert _parse_outcome("3 3\n0 1\n2 1\n1 2 0\n") == "edge (2,1) violates 0 <= u < v < n"
    assert _parse_outcome("3 3\n0 1\n1 2\n+0 1\n") == "duplicate edge (0, 1)"
    assert _parse_outcome("3 2\n٠ ١\n1_0 2\n") == "edge (10,2) violates 0 <= u < v < n"
    assert _parse_outcome("-1 0\n") == "vertex count -1 is negative"


def _edge_list_outcome(n, edges):
    try:
        return Graph.from_edge_list(n, edges).rows
    except ValueError as exc:
        return str(exc)


def _edge_list_by_edge(n, edges):
    """Graph.from_edge_list as one checked loop: each edge in order is
    checked for range, then for a loop, then for a repeat in either order."""
    rows = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            return f"edge ({u},{v}) out of range for n={n}"
        if u == v:
            return f"loop edge ({u},{v})"
        if rows[u] >> v & 1:
            return f"duplicate edge {(min(u, v), max(u, v))}"
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return tuple(rows)


@settings(max_examples=300, deadline=None)
@given(n=st.integers(min_value=0, max_value=9),
       edges=st.lists(st.tuples(st.integers(min_value=-11, max_value=10),
                                st.integers(min_value=-11, max_value=10)), max_size=12))
@example(n=3, edges=[(0, 1), (2, 2), (1, 0)])
@example(n=3, edges=[(1, 0), (0, 1), (0, 3)])
@example(n=3, edges=[(-1, 0), (2, 1)])
@example(n=3, edges=[(0, 2**70)])  # a shift by an unchecked endpoint would overflow
@example(n=3, edges=[(2**70, 0)])
def test_from_edge_list_matches_the_per_edge_loop(n, edges):
    assert _edge_list_outcome(n, edges) == _edge_list_by_edge(n, edges)
    assert _edge_list_outcome(n, iter(edges)) == _edge_list_by_edge(n, edges)


@pytest.mark.parametrize("edges, named", [
    ([(0, 1.0)], "(0,1.0)"),
    ([(0, "1")], "(0,'1')"),
    ([(0, 1), (1, 2.0), (0, 3)], "(1,2.0)"),
], ids=["float", "str", "first"])
def test_edge_endpoints_must_be_ints(edges, named):
    """A float endpoint raised a TypeError from a shift, and a str one from
    the range test; a bool passes the checking loop as it passes the
    unchecked one."""
    with pytest.raises(ValueError, match=re.escape(f"edge {named} has an endpoint that is not an int")):
        Graph.from_edge_list(3, edges)
    assert Graph.from_edge_list(3, [(0, True)]).rows == (2, 1, 0)
    with pytest.raises(ValueError, match=re.escape("edge (0,5) out of range for n=3")):
        Graph.from_edge_list(3, [(0, True), (0, 5)])


ROWS_CASES = {"list": [0, 0], "float": (0.0, 0), "int": 5, "none": None}


@pytest.mark.parametrize("case", sorted(ROWS_CASES))
def test_rows_must_be_a_tuple_of_ints(case):
    """A list of rows was accepted, leaving a Graph that cannot be hashed and
    whose rows can change; a float row raised a TypeError from a shift."""
    with pytest.raises(ValueError, match="rows must be a tuple of ints"):
        Graph(2, ROWS_CASES[case])


N_CASES = {"bool": (True, (0,)), "float": (2.0, (0, 0))}


@pytest.mark.parametrize("case", sorted(N_CASES))
def test_vertex_count_must_be_an_int(case):
    """Graph(True, (0,)) was accepted as a one-vertex graph, and
    Graph(2.0, (0, 0)) blamed its rows."""
    n, rows = N_CASES[case]
    with pytest.raises(ValueError, match=f"vertex count {n} is not an int"):
        Graph(n, rows)


def test_input_checks_hold_under_python_O(tmp_path):
    """-O strips assert statements: the bulk checks and the loops behind them
    must give the same messages, and a malformed file must still exit 3."""
    texts = [_edge_file(seed, faults) for seed in range(3)
             for faults in [[fault] for fault in EDGE_FAULTS]
             + [[a, b] for a in EDGE_FAULTS for b in EDGE_FAULTS]]
    code = ("import json, sys\n"
            "from graphfun.graph import Graph, GraphFormatError, parse_graph\n"
            "out = []\n"
            "for text in json.load(sys.stdin):\n"
            "    try:\n"
            "        g = parse_graph(text)\n"
            "        out.append([g.n, list(g.rows)])\n"
            "    except GraphFormatError as exc:\n"
            "        out.append(str(exc))\n"
            "for n, rows in ((2, [0, 0]), (2, (0.0, 0)), (True, (0,)), (2.0, (0, 0))):\n"
            "    try:\n"
            "        Graph(n, rows)\n"
            "        out.append(None)\n"
            "    except ValueError as exc:\n"
            "        out.append(str(exc))\n"
            "print(json.dumps(out))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(graphfun.__file__).resolve().parent.parent))
    proc = subprocess.run([sys.executable, "-O", "-c", code], input=json.dumps(texts),
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    expected = [outcome if isinstance(outcome, str) else [outcome[0], list(outcome[1])]
                for outcome in map(_line_by_line, texts)]
    assert sum(isinstance(outcome, str) for outcome in expected) > len(texts) // 2
    assert json.loads(proc.stdout) == expected + ["rows must be a tuple of ints"] * 2 + [
        "vertex count True is not an int", "vertex count 2.0 is not an int"]
    path = tmp_path / "bad.txt"
    path.write_text("3 2\n0 1\n1 x\n")
    proc = subprocess.run([sys.executable, "-O", "-m", "graphfun.cli", "fun", "min", str(path)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 3 and "bad edge line: '1 x'" in proc.stderr
