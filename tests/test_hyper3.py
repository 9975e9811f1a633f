import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphfun.families import Hypergraph3, random_3_hypergraph
from graphfun.functionality import is_function_of
from graphfun.graph import Graph
from graphfun.hyper3 import (
    NO_THICK_WITNESS_BOUND,
    THICK_THRESHOLD,
    THICK_WITNESS_BOUND,
    find_thick_structure,
    fixture_broken_windmill,
    fixture_fly,
    fixture_windmill,
    hyper3_fun_bound,
    intersection_graph,
    matching_or_cover,
    thick_pairs,
    witness_no_thick,
    witness_thick,
)


def test_intersection_graph_path():
    h = Hypergraph3.from_edges(7, [(0, 1, 2), (2, 3, 4), (4, 5, 6)])
    g, names = intersection_graph(h)
    assert g.edges() == [(0, 1), (1, 2)]
    assert names == h.edges


def test_intersection_graph_disjoint_and_clique():
    h = Hypergraph3.from_edges(6, [(0, 1, 2), (3, 4, 5)])
    g, _ = intersection_graph(h)
    assert g.num_edges() == 0
    hk = Hypergraph3.from_edges(9, [(0, i, i + 1) for i in range(1, 8, 2)])
    gk, _ = intersection_graph(hk)
    assert gk.num_edges() == gk.n * (gk.n - 1) // 2
    with pytest.raises(ValueError):
        intersection_graph(Hypergraph3(3, ()))


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=3, max_value=8).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.sets(st.integers(min_value=0, max_value=n - 1), min_size=3, max_size=3)
             .map(lambda e: tuple(sorted(e))), unique=True, min_size=1, max_size=14))))
def test_intersection_graph_matches_pairwise(case):
    n, edges = case
    h = Hypergraph3.from_edges(n, edges)
    rows = [0] * len(edges)
    for i, j in itertools.permutations(range(len(edges)), 2):
        if set(edges[i]) & set(edges[j]):
            rows[i] |= 1 << j
    g, names = intersection_graph(h)
    assert names == tuple(edges)
    assert g == Graph(len(edges), tuple(rows))


def test_thick_pairs_threshold():
    edges32 = [(0, 1, k) for k in range(2, 2 + THICK_THRESHOLD)]
    h = Hypergraph3.from_edges(40, edges32)
    tp = thick_pairs(h)
    assert len(tp) == 1 and (tp[0].u, tp[0].v, tp[0].count) == (0, 1, 32)
    h31 = Hypergraph3.from_edges(40, edges32[:-1])
    assert thick_pairs(h31) == []


def test_matching_or_cover_cases():
    h = Hypergraph3.from_edges(7, [(0, 1, 2), (0, 3, 4), (0, 5, 6)])
    mc = matching_or_cover(h, 0)
    assert mc.kind == "matching" and len(mc.hyperedges) == 3
    # pairwise intersection exactly {0}
    for a, b in itertools.combinations(mc.hyperedges, 2):
        assert set(a) & set(b) == {0}

    h2 = Hypergraph3.from_edges(5, [(0, 1, 2), (0, 1, 3), (0, 1, 4)])
    mc2 = matching_or_cover(h2, 0)
    assert mc2.kind == "cover" and len(mc2.cover) == 4
    assert 1 in mc2.cover
    for e in h2.edges:
        assert set(mc2.cover) & (set(e) - {0})

    mc3 = matching_or_cover(h2, 4)
    assert mc3.kind == "cover"


def test_witness_no_thick_disjoint():
    h = Hypergraph3.from_edges(30, [(3 * i, 3 * i + 1, 3 * i + 2) for i in range(10)])
    assert witness_no_thick(h, h.edges[0]) == ()


def test_witness_no_thick_random_sweep():
    for seed in range(3):
        h = random_3_hypergraph(50, 60, seed)
        assert not thick_pairs(h)
        ig, _ = intersection_graph(h)
        for i, s in enumerate(h.edges):
            f = witness_no_thick(h, s)
            assert len(f) <= NO_THICK_WITNESS_BOUND
            assert is_function_of(ig, i, f) is not None


def test_witness_no_thick_rejects_thick():
    h = Hypergraph3.from_edges(40, [(0, 1, k) for k in range(2, 34)])
    with pytest.raises(ValueError):
        witness_no_thick(h, h.edges[0])


def test_observation_three_pairwise_at_v():
    # s1, s2, s3 meeting pairwise exactly at v: any further hyperedge
    # contains v iff it meets all three, unless it is one of the 8
    # transversals of the wings.
    base = [(0, 1, 2), (0, 3, 4), (0, 5, 6)]
    wings = [(1, 2), (3, 4), (5, 6)]
    transversals = {tuple(sorted(t)) for t in itertools.product(*wings)}
    n = 10
    for extra in itertools.combinations(range(n), 3):
        if extra in {tuple(sorted(e)) for e in base} or extra in transversals:
            continue
        meets_all = all(set(extra) & set(s) for s in base)
        assert (0 in extra) == meets_all


def test_observation_shared_pair():
    # s1, s2, s3 sharing the pair {0, 1} with thirds 2, 3, 4: a hyperedge
    # other than {2,3,4} meets all three iff it contains 0 or 1.
    base = [(0, 1, 2), (0, 1, 3), (0, 1, 4)]
    n = 9
    for extra in itertools.combinations(range(n), 3):
        if extra in {tuple(sorted(e)) for e in base} or extra == (2, 3, 4):
            continue
        meets_all = all(set(extra) & set(s) for s in base)
        assert meets_all == bool({0, 1} & set(extra))


@pytest.mark.parametrize(
    "builder,kind",
    [
        (fixture_fly, "fly"),
        (fixture_windmill, "windmill"),
        (fixture_broken_windmill, "broken_windmill"),
    ],
)
def test_fixtures_found_and_witnessed(builder, kind):
    h = builder()
    assert thick_pairs(h)
    st = find_thick_structure(h)
    assert st.kind == kind
    s, f = witness_thick(h)
    assert len(f) <= THICK_WITNESS_BOUND
    ig, _ = intersection_graph(h)
    s_idx = h.edges.index(tuple(sorted(s)))
    assert is_function_of(ig, s_idx, f) is not None


def test_fixture_small_bounds():
    _, f_fly = witness_thick(fixture_fly())
    assert len(f_fly) <= 8
    _, f_wm = witness_thick(fixture_windmill())
    assert len(f_wm) <= 15


def test_find_thick_structure_requires_thick_pair():
    h = Hypergraph3.from_edges(6, [(0, 1, 2), (3, 4, 5)])
    with pytest.raises(ValueError):
        find_thick_structure(h)


def test_hyper3_fun_bound_dispatch():
    disjoint = Hypergraph3.from_edges(12, [(0, 1, 2), (3, 4, 5), (6, 7, 8), (9, 10, 11)])
    r = hyper3_fun_bound(disjoint)
    assert r.bound == 0 and not r.thick_case
    r2 = hyper3_fun_bound(fixture_fly())
    assert r2.thick_case and r2.bound <= 8
    with pytest.raises(ValueError):
        hyper3_fun_bound(Hypergraph3(5, ()))


def test_no_thick_instance_is_bounded(monkeypatch):
    from graphfun import verify

    assert not thick_pairs(verify._no_thick_instance(0))
    monkeypatch.setattr(verify, "NO_THICK_DRAWS", 0)
    with pytest.raises(RuntimeError):
        verify._no_thick_instance(0)


def test_hyper3_host_of_the_wrong_size_is_rejected():
    fly = fixture_fly()
    disjoint = Hypergraph3.from_edges(12, [(0, 1, 2), (3, 4, 5), (6, 7, 8), (9, 10, 11)])
    wrong = intersection_graph(Hypergraph3.from_edges(6, [(0, 1, 2), (3, 4, 5)]))
    with pytest.raises(ValueError, match="host"):
        hyper3_fun_bound(fly, host=wrong)
    with pytest.raises(ValueError, match="host"):
        hyper3_fun_bound(disjoint, host=wrong)
    with pytest.raises(ValueError, match="host"):
        witness_thick(fly, host=wrong)
    with pytest.raises(ValueError, match="host"):
        witness_no_thick(disjoint, (0, 1, 2), host=wrong)
    assert hyper3_fun_bound(fly, host=intersection_graph(fly)) == hyper3_fun_bound(fly)
