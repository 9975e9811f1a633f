import bisect
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from graphfun.families import (
    IntervalSet,
    Permutation,
    line_graph,
    permutation_graph,
    random_graph,
    random_permutation,
    unit_interval_graph,
)
from graphfun.functionality import fun_graph, fun_vertex
from graphfun.graph import Graph
from graphfun.witnesses import (
    DnfWitness,
    classify_middles,
    line_graph_witness,
    permutation_witness,
    strict_middle_witness,
    sum_sd_consecutive,
    unit_interval_pair,
)


def complete(n):
    return Graph.from_edge_list(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def test_dnf_witness_evaluate():
    w = DnfWitness(0, (1, 2, 3, 4), ((0, 1), (2, 3)))
    assert w.evaluate(0b0011) == 1
    assert w.evaluate(0b1100) == 1
    assert w.evaluate(0b0101) == 0
    empty = DnfWitness(0, (), ())
    assert empty.evaluate(0) == 0


@st.composite
def _dnf_cases(draw):
    """A random graph and a DNF over a support drawn with repeats; terms may
    be empty, and so may the term list."""
    n = draw(st.integers(min_value=1, max_value=8))
    g = random_graph(n, draw(st.sampled_from([0.2, 0.5, 0.8])),
                     draw(st.integers(min_value=0, max_value=2**32 - 1)))
    target = draw(st.integers(min_value=0, max_value=n - 1))
    vertex = st.integers(min_value=0, max_value=n - 1)
    support = tuple(draw(st.lists(vertex, max_size=6)))
    position = st.integers(min_value=0, max_value=max(len(support) - 1, 0))
    term = st.lists(position, max_size=3 if support else 0).map(tuple)
    terms = tuple(draw(st.lists(term, max_size=3)))
    return g, DnfWitness(target, support, terms)


@settings(max_examples=400, deadline=None)
@given(_dnf_cases())
def test_dnf_verify_matches_per_vertex_evaluate(case):
    g, w = case
    skip = {w.target, *w.support}
    expected = all(
        w.evaluate(sum(g.has_edge(z, x) << i for i, x in enumerate(w.support)))
        == g.has_edge(w.target, z)
        for z in range(g.n) if z not in skip
    )
    assert w.verify(g) == expected


@pytest.mark.parametrize("target, support", [(5, (0, 1)), (0, (1, 3)), (-1, (0, 1))])
def test_dnf_verify_rejects_vertices_outside_the_graph(target, support):
    with pytest.raises(ValueError, match="out of range for n=3"):
        DnfWitness(target, support, ((0, 1),)).verify(random_graph(3, 0.5, 1))


def test_unit_interval_pair_small():
    iv = IntervalSet((Fraction(0), Fraction(1, 3)))
    assert unit_interval_pair(iv) == (1, 0)
    with pytest.raises(ValueError):
        unit_interval_pair(IntervalSet((Fraction(0),)))


def test_unit_interval_dense_instances():
    from graphfun.verify import _dense_intervals

    for seed in range(5):
        iv = _dense_intervals(40, seed)
        t, value = unit_interval_pair(iv)
        assert 1 <= t < iv.n
        assert value <= 1
        assert sum_sd_consecutive(iv) <= 2 * iv.n - 3


def test_unit_interval_fun_bound_exhaustive():
    from graphfun.families import random_unit_intervals

    for seed in range(5):
        iv = random_unit_intervals(7, seed)
        assert fun_graph(unit_interval_graph(iv)).value <= 2


def test_classify_middles_example():
    vm, hm = classify_middles(Permutation((6, 1, 4, 2, 5, 3)))
    assert vm == frozenset({4, 2, 3})
    assert hm == frozenset({2, 5, 4})
    with pytest.raises(ValueError, match="need at least 3 points"):
        classify_middles(Permutation((2, 1)))


def test_strict_middle_identity():
    p = Permutation((1, 2, 3, 4, 5))
    w = strict_middle_witness(p, 3)
    assert w.target == 2
    assert set(w.support) == {1, 3}  # values 2 and 4, zero-based
    assert w.verify(permutation_graph(p))
    with pytest.raises(ValueError):
        strict_middle_witness(p, 1)  # boundary point


def test_strict_middle_small_permutations():
    import itertools

    any_found = False
    for values in itertools.permutations(range(1, 5)):
        p = Permutation(values)
        for x in range(1, 5):
            if _try_strict(p, x):
                any_found = True
                w = strict_middle_witness(p, x)
                assert len(w.support) == 4
                assert w.verify(permutation_graph(p))
    assert any_found


def test_strict_middle_614253_boundary_rejected():
    with pytest.raises(ValueError):
        strict_middle_witness(Permutation((6, 1, 4, 2, 5, 3)), 1)


@pytest.mark.parametrize("x", [0, -1, 7])
def test_strict_middle_rejects_points_outside(x):
    with pytest.raises(ValueError, match="out of range"):
        strict_middle_witness(Permutation((6, 1, 4, 2, 5, 3)), x)


def _try_strict(p, x):
    from graphfun.witnesses import _step1_supports

    return bool(_step1_supports(p.values, p.position_of(), x, [()]))


def test_permutation_witness_small_n_rejected():
    with pytest.raises(ValueError):
        permutation_witness(Permutation(tuple(range(1, 13))))


def test_permutation_witness_identity_13():
    p = Permutation(tuple(range(1, 14)))
    w = permutation_witness(p)
    assert len(set(w.support)) <= 8
    assert w.verify(permutation_graph(p))


def test_permutation_witness_random_and_exact_crosscheck():
    for seed in range(10):
        p = random_permutation(13 + seed * 7, seed)
        w = permutation_witness(p)
        g = permutation_graph(p)
        assert len(set(w.support)) <= 8
        assert w.verify(g)
        if p.n <= 20:
            assert fun_vertex(g, w.target).value <= 8


def test_line_graph_witness_k5():
    w = line_graph_witness(line_graph(complete(5)), (0, 1))
    assert len(w.support) == 6
    assert len(w.terms) == 2


def test_line_graph_witness_star():
    star = Graph.from_edge_list(6, [(0, i) for i in range(1, 6)])
    w = line_graph_witness(line_graph(star), (0, 1))
    assert len(w.support) == 3
    assert w.terms == ((0, 1, 2),)


def test_line_graph_witness_k2():
    w = line_graph_witness(line_graph(Graph.from_edge_list(2, [(0, 1)])), (0, 1))
    assert w.support == () and w.terms == ()


def test_line_graph_witness_rejects_non_edge():
    with pytest.raises(ValueError):
        line_graph_witness(line_graph(complete(3)), (0, 3))


def test_line_graph_witness_every_edge_random():
    for seed in range(3):
        g = random_graph(15, 0.4, seed)
        line = line_graph(g)
        for a, b in g.edges():
            w = line_graph_witness(line, (a, b))
            assert len(w.support) <= 6
            assert w.verify(line.graph)
            # an endpoint of degree at least 4 in G gives one term
            assert len(w.terms) == (g.degree(a) >= 4) + (g.degree(b) >= 4)


def _reference_line_graph_witness(line, x):
    """line_graph_witness's construction on the built L(G): the target found
    by bisection in the names, and the edges at each endpoint picked from
    the target's row by testing the endpoint against each edge's name."""
    lg, names = line.graph, line.names
    target = bisect.bisect_left(names, x)
    touching = [(i, names[i]) for i in range(lg.n) if lg.rows[target] >> i & 1]
    sides = []
    for endpoint in x:
        incident = [i for i, e in touching if endpoint in e]
        sides.append((incident[:3], len(incident) >= 3))
    (y_edges, y_term), (z_edges, z_term) = sides
    terms = [tuple(range(3))] * y_term + [tuple(range(len(y_edges), len(y_edges) + 3))] * z_term
    return DnfWitness(target, tuple(y_edges + z_edges), tuple(terms))


@st.composite
def _line_graph_roots(draw):
    """G(n, p) with n <= 20 and at least one edge, or a star (K2 when it has
    one leaf) whose other vertices are isolated."""
    n = draw(st.integers(min_value=2, max_value=20))
    if draw(st.booleans()):
        g = random_graph(n, draw(st.sampled_from([0.1, 0.3, 0.5, 0.9])),
                         draw(st.integers(min_value=0, max_value=2**16)))
        assume(g.num_edges())
        return g
    centre = draw(st.integers(min_value=0, max_value=n - 1))
    leaves = draw(st.sets(st.sampled_from([v for v in range(n) if v != centre]), min_size=1))
    return Graph.from_edge_list(n, [(min(centre, v), max(centre, v)) for v in leaves])


@settings(max_examples=150, deadline=None)
@given(_line_graph_roots())
@example(Graph.from_edge_list(2, [(0, 1)]))
def test_line_graph_rows_and_witnesses_match_the_built_line_graph(g):
    line = line_graph(g)
    assert [line.row(e) for e in range(line.n)] == list(line.graph.rows)
    for e in line.names:
        w = line_graph_witness(line, e)
        assert w == _reference_line_graph_witness(line, e)
        assert w.verify(line.graph)


# (target, support, terms) of permutation_witness(random_permutation(n, n)),
# recorded before the windows were sorted once per permutation.
GOLDEN_PERMUTATION_WITNESSES = {
    13: (3, (4, 1, 1, 10, 2, 6, 9), ((0, 1), (2, 3))),
    20: (16, (19, 14, 14, 19, 15, 17, 18), ((0, 1), (2, 3))),
    30: (11, (12, 10, 10, 27, 7, 8, 22), ((0, 1), (2, 3))),
    50: (4, (5, 3, 3, 36, 0, 1, 12, 29), ((0, 1), (2, 3))),
    75: (9, (8, 8, 11, 69, 10, 13, 19, 45), ((0, 1), (2, 3))),
    100: (70, (72, 43, 69, 72, 65, 67, 71), ((0, 1), (2, 3))),
    150: (5, (2, 2, 6, 138, 3, 4, 64, 116), ((0, 1), (2, 3))),
    200: (33, (31, 31, 34, 125, 32, 35, 123), ((0, 1), (2, 3))),
}


@pytest.mark.parametrize("n", sorted(GOLDEN_PERMUTATION_WITNESSES))
def test_permutation_witness_is_reproduced(n):
    p = random_permutation(n, n)
    w = permutation_witness(p)
    assert (w.target, w.support, w.terms) == GOLDEN_PERMUTATION_WITNESSES[n]


def _reference_permutation_candidates(p):
    """permutation_witness's candidates by their definition, point by point:
    the windows around x and x's reduced neighbours found by scanning, as
    (size, x, full support) in x order, then window order."""
    pos = p.position_of()
    values, n = p.values, p.n

    def middles(window, key):
        return sorted(window, key=key)[1:4]

    by_pos = [middles(values[a:a + 5], None) for a in range(n - 4)]
    by_val = [middles(range(v, v + 5), pos.get) for v in range(1, n - 3)]
    candidates = []
    for x in range(1, n + 1):
        pos_pairs = [[m for m in w if m != x] for w in by_pos if x in w]
        val_pairs = [[m for m in w if m != x] for w in by_val if x in w]
        for m3, m4 in pos_pairs:
            for m1, m2 in val_pairs:
                removed = {m1, m2, m3, m4}
                kept = [v for v in values if v not in removed]
                k = kept.index(x)
                lower = [v for v in range(1, x) if v not in removed]
                upper = [v for v in range(x + 1, n + 1) if v not in removed]
                if k == 0 or k == len(kept) - 1 or not lower or not upper:
                    continue
                left, right, below, above = kept[k - 1], kept[k + 1], lower[-1], upper[0]
                if not min(left, right) < x < max(left, right):
                    continue
                if not min(pos[below], pos[above]) < pos[x] < max(pos[below], pos[above]):
                    continue
                r, l = (below, above) if pos[below] > pos[above] else (above, below)
                full = (r, min(left, right), l, max(left, right)) + tuple(sorted(removed))
                candidates.append((len(set(full)), x, full))
    return candidates


def _reference_permutation_witness(p):
    """permutation_witness by its definition: every candidate ordered by
    (size, x) and the first that replays returned."""
    g = permutation_graph(p)
    for _, x, full in sorted(_reference_permutation_candidates(p), key=lambda c: (c[0], c[1])):
        w = DnfWitness(x - 1, tuple(v - 1 for v in full), ((0, 1), (2, 3)))
        if w.verify(g):
            return w
    return None


@settings(max_examples=150, deadline=None)
@given(st.integers(13, 60), st.integers(0, 2**32 - 1))
def test_permutation_witness_matches_pointwise_definition(n, seed):
    p = random_permutation(n, seed)
    assert permutation_witness(p) == _reference_permutation_witness(p)


@pytest.mark.parametrize("n, seed", [(20, 1), (30, 1), (40, 0), (150, 1), (200, 8)])
def test_refused_witnesses_fall_through_in_size_then_x_order(monkeypatch, n, seed):
    # Every pool witness replays on its first try, so the fallback order is
    # exercised by refusing each winner in turn: every refusal must move both
    # implementations to the same next candidate.  On the first three
    # permutations the eight winners cross a size boundary to a smaller x; on
    # the last two they go from size 6 to size 7, so points scanned late are
    # replayed.
    p = random_permutation(n, seed)
    refused = set()
    replay = DnfWitness.verify

    def verify(w, g):
        return (w.target, w.support) not in refused and replay(w, g)

    monkeypatch.setattr(DnfWitness, "verify", verify)
    sizes = []
    for _ in range(8):
        w = permutation_witness(p)
        assert w == _reference_permutation_witness(p)
        sizes.append(len(set(w.support)))
        refused.add((w.target, w.support))
    assert sizes == sorted(sizes) and sizes[0] < sizes[-1]


@settings(max_examples=100, deadline=None)
@given(st.integers(13, 120), st.integers(0, 2**32 - 1))
def test_every_candidate_meets_its_support_size_bound(n, seed):
    """The bound that lets permutation_witness leave a point unscanned: a
    candidate at x has size at least max(4, 8 - |NB(x)|), where NB(x) is
    the points other than x within 5 positions and within 5 values of x."""
    p = random_permutation(n, seed)
    pos = p.position_of()
    for size, x, _ in _reference_permutation_candidates(p):
        near = sum(1 for y in range(1, n + 1)
                   if y != x and abs(y - x) <= 5 and abs(pos[y] - pos[x]) <= 5)
        assert size >= max(4, 8 - near)


@pytest.mark.parametrize("n, seed", [(n, seed) for n in (150, 200, 300) for seed in (2, 3, 4)])
def test_permutation_witness_matches_pointwise_definition_at_large_n(n, seed):
    p = random_permutation(n, seed)
    assert permutation_witness(p) == _reference_permutation_witness(p)
