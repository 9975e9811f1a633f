import hashlib
import itertools
import random
import re
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphfun import families, hyper3
from graphfun.families import Hypergraph3, incidence_masks, random_3_hypergraph
from graphfun.functionality import is_function_of
from graphfun.graph import Graph
from graphfun.hyper3 import (
    COVER_DEGREE_BOUND,
    NO_THICK_WITNESS_BOUND,
    Hyper3Report,
    MatchingOrCover,
    ThickStructure,
    THICK_THRESHOLD,
    THICK_WITNESS_BOUND,
    _verify_structure,
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


def test_matching_or_cover_on_fewer_than_five_vertices():
    # the cover is padded with the other ground vertices there are
    h3 = Hypergraph3.from_edges(3, [(0, 1, 2)])
    assert matching_or_cover(h3, 0) == MatchingOrCover("cover", cover=(1, 2))
    h4 = Hypergraph3.from_edges(4, [(0, 1, 2)])
    assert matching_or_cover(h4, 0) == MatchingOrCover("cover", cover=(1, 2, 3))
    assert matching_or_cover(h4, 3) == MatchingOrCover("cover", cover=(0, 1, 2))
    with pytest.raises(ValueError, match="out of range"):
        matching_or_cover(h4, 4)


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


@pytest.mark.parametrize("s", [(0, 1, 99), (0, 1, 2)])
def test_witness_no_thick_names_a_missing_hyperedge(s):
    h = random_3_hypergraph(10, 5, 1)
    assert tuple(sorted(s)) not in h.edges and not thick_pairs(h)
    with pytest.raises(ValueError, match=re.escape(f"{s} is not a hyperedge")):
        witness_no_thick(h, s)


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


# --- set-based references: one Python set test per hyperedge -----------------


def _ref_thick_pairs(h, threshold):
    counts = {}
    for e in h.edges:
        for pair in itertools.combinations(sorted(e), 2):
            counts[pair] = counts.get(pair, 0) + 1
    return [(u, v, c) for (u, v), c in sorted(counts.items()) if c >= threshold]


def _ref_links(h, v, among):
    return [(tuple(sorted(set(e) - {v})), i) for i, e in enumerate(h.edges)
            if i in among and v in e]


def _ref_matching(links):
    matched, out = set(), []
    for pair, i in sorted(links):
        if matched.isdisjoint(pair):
            matched.update(pair)
            out.append((pair, i))
    return out


def _ref_matching_or_cover(h, v):
    matching = _ref_matching(_ref_links(h, v, range(len(h.edges))))
    if len(matching) >= 3:
        return MatchingOrCover("matching", tuple(h.edges[i] for _, i in matching[:3]))
    covered = sorted({u for pair, _ in matching for u in pair})
    covered += [u for u in range(h.n) if u not in covered and u != v][:4 - len(covered)]
    return MatchingOrCover("cover", cover=tuple(covered))


def _ref_witness_no_thick(h, s):
    edges, s_set = h.edges, set(s)
    s_idx = edges.index(tuple(sorted(s)))
    f = {i for i, e in enumerate(edges) if i != s_idx and len(set(e) & s_set) == 2}
    rest = {i for i in range(len(edges)) if i != s_idx and i not in f}
    for v in sorted(s):
        matching = _ref_matching(_ref_links(h, v, rest))
        if len(matching) >= 3:
            wings = [set(pair) for pair, _ in matching[:3]]
            f.update(i for _, i in matching[:3])
            f.update(j for j, e in enumerate(edges)
                     if j != s_idx and all(len(set(e) & w) == 1 for w in wings))
        else:
            covered = {u for pair, _ in matching for u in pair}
            f.update(j for j, e in enumerate(edges)
                     if j != s_idx and v in e and covered & set(e))
    return tuple(sorted(f))


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=3, max_value=10).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.sets(st.integers(min_value=0, max_value=n - 1), min_size=3, max_size=3)
             .map(lambda e: tuple(sorted(e))), unique=True, min_size=1, max_size=30),
    st.integers(min_value=1, max_value=4))))
def test_incidence_masks_match_set_references(case):
    n, edges, threshold = case
    h = Hypergraph3.from_edges(n, edges)
    # thick pairs need 32 hyperedges on a pair; a low threshold makes the
    # counts visible at this size
    with mock.patch.object(hyper3, "THICK_THRESHOLD", threshold):
        assert [(p.u, p.v, p.count) for p in thick_pairs(h)] == _ref_thick_pairs(h, threshold)
    assert thick_pairs(h) == []
    for v in range(n):
        assert matching_or_cover(h, v) == _ref_matching_or_cover(h, v)
    for s in h.edges:
        assert witness_no_thick(h, s) == _ref_witness_no_thick(h, s)


# --- golden pins of the thick-pair constructions ------------------------------


def _grown(kind, seed, extra, lo, hi, fan):
    """The fixture of ``kind``, plus ``fan`` hyperedges (0, 34, 38 + k) and
    ``extra`` seeded random hyperedges on lo..hi-1 when ``seed`` is set."""
    h = getattr(hyper3, f"fixture_{kind}")()
    if seed is None:
        return h
    rng = random.Random(seed)
    edges = list(h.edges) + [(0, 34, 38 + k) for k in range(fan)]
    seen = set(edges)
    while len(seen) < len(h.edges) + fan + extra:
        e = tuple(sorted(rng.sample(range(lo, hi), 3)))
        if e not in seen:
            seen.add(e)
            edges.append(e)
    return Hypergraph3(max(h.n, hi, 38 + fan), tuple(edges))


# (kind, seed, extra, lo, hi, fan), the structure found (kind, s, parts,
# apex_degree), and (s index, |F|, digest of F) of the witness
THICK_PINS = [
    (('fly', None, 0, 0, 0, 0), ('fly', (0, 1, 2), ((0, 1, 3), (0, 1, 4), (0, 1, 5), (0, 2, 6), (0, 2, 7), (0, 2, 8)), None), (0, 6, 'aa1cdd3b719f')),
    (('windmill', None, 0, 0, 0, 0), ('windmill', (0, 1, 2), ((1, 2, 3), (1, 2, 4), (1, 2, 5), (0, 34, 35), (0, 36, 37), (0, 38, 39)), None), (0, 6, '12a9b432c21b')),
    (('broken_windmill', None, 0, 0, 0, 0), ('broken_windmill', (0, 1, 2), ((1, 2, 3), (1, 2, 4), (1, 2, 5)), 3), (0, 6, '12a9b432c21b')),
    (('fly', 0, 40, 0, 16, 0), ('fly', (0, 1, 2), ((0, 1, 3), (0, 1, 4), (0, 1, 5), (0, 2, 6), (0, 2, 7), (0, 2, 8)), None), (0, 7, '9318a0e5846c')),
    (('fly', 1, 40, 0, 16, 0), ('fly', (0, 1, 2), ((0, 1, 3), (0, 1, 4), (0, 1, 5), (0, 2, 6), (0, 2, 7), (0, 2, 8)), None), (0, 7, 'c8ed61b65802')),
    (('fly', 2, 40, 0, 16, 0), ('fly', (0, 1, 2), ((0, 1, 3), (0, 1, 4), (0, 1, 5), (0, 2, 6), (0, 2, 7), (0, 2, 8)), None), (0, 7, '90c52cdfe8e5')),
    (('windmill', 0, 40, 1, 12, 0), ('windmill', (0, 1, 2), ((1, 2, 3), (1, 2, 4), (1, 2, 5), (0, 34, 35), (0, 36, 37), (0, 38, 39)), None), (0, 7, '41d809908ff9')),
    (('windmill', 1, 40, 1, 12, 0), ('windmill', (0, 1, 2), ((1, 2, 3), (1, 2, 4), (1, 2, 5), (0, 34, 35), (0, 36, 37), (0, 38, 39)), None), (0, 6, '12a9b432c21b')),
    (('windmill', 0, 30, 0, 50, 0), ('windmill', (0, 1, 2), ((1, 2, 3), (1, 2, 4), (1, 2, 5), (0, 3, 35), (0, 31, 39), (0, 36, 37)), None), (0, 6, 'c3912f571552')),
    (('windmill', 1, 30, 0, 50, 0), ('windmill', (0, 1, 2), ((1, 2, 3), (1, 2, 4), (1, 2, 5), (0, 24, 43), (0, 28, 44), (0, 34, 35)), None), (0, 6, 'a8540585245a')),
    (('broken_windmill', 0, 12, 0, 12, 0), ('windmill', (0, 1, 2), ((1, 2, 3), (1, 2, 4), (1, 2, 5), (0, 4, 8), (0, 6, 11), (0, 34, 35)), None), (0, 6, '43ec067be151')),
    (('broken_windmill', 1, 12, 0, 12, 0), ('windmill', (0, 1, 2), ((1, 2, 3), (1, 2, 4), (1, 2, 5), (0, 3, 6), (0, 7, 9), (0, 8, 11)), None), (0, 7, 'a3a880ed6d61')),
    (('windmill', 0, 8, 0, 6, 0), ('windmill', (0, 1, 2), ((1, 2, 3), (1, 2, 4), (1, 2, 5), (0, 3, 5), (0, 34, 35), (0, 36, 37)), None), (0, 7, 'ba868bac9e35')),
    (('windmill', 1, 12, 0, 8, 0), ('windmill', (0, 1, 2), ((1, 2, 3), (1, 2, 4), (1, 2, 5), (0, 3, 4), (0, 5, 7), (0, 34, 35)), None), (0, 6, '6bcf06d986eb')),
    (('fly', 0, 12, 0, 8, 0), ('fly', (0, 1, 2), ((0, 1, 3), (0, 1, 4), (0, 1, 5), (0, 2, 6), (0, 2, 7), (0, 2, 8)), None), (0, 7, '3b7b2abbc7b2')),
    (('broken_windmill', 0, 40, 34, 70, 0), ('broken_windmill', (0, 1, 2), ((1, 2, 3), (1, 2, 4), (1, 2, 5)), 3), (0, 6, '12a9b432c21b')),
    (('broken_windmill', 1, 40, 34, 70, 20), ('broken_windmill', (0, 1, 2), ((1, 2, 3), (1, 2, 4), (1, 2, 5)), 23), (0, 26, '25fc900a6f34')),
    (('broken_windmill', 2, 40, 34, 70, 28), ('broken_windmill', (0, 1, 2), ((1, 2, 3), (1, 2, 4), (1, 2, 5)), 31), (0, 34, 'bec13b6236ec')),
    (('broken_windmill', 3, 40, 34, 70, 29), ('windmill', (35, 0, 34), ((0, 34, 36), (0, 34, 37), (0, 34, 38), (35, 51, 55), (35, 52, 61), (35, 54, 60)), None), (32, 6, '41c6895cdd3f')),
    (('broken_windmill', 4, 40, 34, 70, 121), ('windmill', (35, 0, 34), ((0, 34, 36), (0, 34, 37), (0, 34, 38), (35, 36, 63), (35, 38, 39), (35, 47, 50)), None), (32, 7, '8fa2fc78fed6')),
]


@pytest.mark.parametrize("instance,structure,witness", THICK_PINS)
def test_thick_constructions_are_pinned(instance, structure, witness):
    h = _grown(*instance)
    kind, s, parts, apex_degree = structure
    s_index, size, digest = witness
    assert find_thick_structure(h) == ThickStructure(kind, s, parts, apex_degree)
    found_s, f = witness_thick(h)
    assert found_s == s and len(f) == size
    assert hashlib.sha256(repr(f).encode()).hexdigest()[:12] == digest
    assert hyper3_fun_bound(h) == Hyper3Report(s_index, s, f, size, True)


def test_an_apex_over_the_cover_degree_bound_is_passed_over():
    """Every hyperedge at apex 0 but s = (0, 1, 2) passes through 34, so
    apex 0 has no windmill, and its broken windmill, over
    COVER_DEGREE_BOUND, is rejected; the scan goes on to apex 3."""
    fan = tuple((0, 34, 38 + k) for k in range(122))
    h = Hypergraph3(160, fixture_broken_windmill().edges + fan)
    degree = h.incidence[0].bit_count() - 1
    assert degree == COVER_DEGREE_BOUND + 1
    over = ThickStructure("broken_windmill", (0, 1, 2), ((1, 2, 3), (1, 2, 4), (1, 2, 5)), degree)
    assert not _verify_structure(h, over)
    assert find_thick_structure(h) == ThickStructure(
        "broken_windmill", (3, 1, 2), ((0, 1, 2), (1, 2, 4), (1, 2, 5)), 0)
    assert hyper3_fun_bound(h) == Hyper3Report(1, (3, 1, 2), (0, 2, 3), 3, True)


@pytest.mark.parametrize("h,thick", [
    (fixture_fly(), True), (fixture_windmill(), True), (fixture_broken_windmill(), True),
    (random_3_hypergraph(60, 80, 0), False),
], ids=["fly", "windmill", "broken-windmill", "random-60-80"])
def test_bound_builds_the_incidence_table_once(h, thick, monkeypatch):
    h = Hypergraph3(h.n, h.edges)  # nothing cached yet
    calls = []
    monkeypatch.setattr(families, "incidence_masks",
                        lambda n, edges: calls.append(n) or incidence_masks(n, edges))
    intersection_graph(h)
    assert hyper3_fun_bound(h).thick_case == thick
    assert len(calls) == 1


def _part(st, i, part):
    return replace(st, parts=st.parts[:i] + (part,) + st.parts[i + 1:])


X, Y = 200, 201  # ground vertices above every fixture's

# (fixture, hyperedges added to it, its structure with one field changed).
# The fixtures' structures have s = (0, 1, 2) in role order (v1, v2, v3).
BAD_STRUCTURES = {
    "s-repeats-a-vertex": (fixture_fly, (), lambda st: replace(st, s=(0, 0, 1))),
    "part-not-a-hyperedge": (fixture_fly, (), lambda st: _part(st, 0, (0, 1, X))),
    "part-equal-to-s": (fixture_windmill, (), lambda st: _part(st, 1, (0, 1, 2))),
    "repeated-part": (fixture_broken_windmill, (), lambda st: _part(st, 2, st.parts[0])),
    "fly-part-meets-s-wrongly": (fixture_fly, (), lambda st: _part(st, 0, (0, 2, 9))),
    "windmill-base-misses-v2": (fixture_windmill, ((2, X, Y),),
                                lambda st: _part(st, 0, (2, X, Y))),
    "broken-windmill-base-misses-v2": (fixture_broken_windmill, ((2, X, Y),),
                                       lambda st: _part(st, 0, (2, X, Y))),
    "vane-holds-v2": (fixture_windmill, ((0, 1, X),), lambda st: _part(st, 3, (0, 1, X))),
    "vanes-share-a-second-vertex": (fixture_windmill, ((0, 35, X),),
                                    lambda st: _part(st, 4, (0, 35, X))),
    "apex-degree-one-above": (fixture_broken_windmill, (),
                              lambda st: replace(st, apex_degree=st.apex_degree + 1)),
    "apex-degree-one-below": (fixture_broken_windmill, (),
                              lambda st: replace(st, apex_degree=st.apex_degree - 1)),
    "unknown-kind": (fixture_fly, (), lambda st: replace(st, kind="propeller")),
}


@pytest.mark.parametrize("case", list(BAD_STRUCTURES))
def test_verify_structure_rejects_each_broken_field(case):
    """The independent check of thick structures accepts each fixture's
    structure and rejects it once one field is wrong."""
    builder, added, change = BAD_STRUCTURES[case]
    h = builder()
    st = find_thick_structure(h)
    assert _verify_structure(h, st)
    grown = Hypergraph3(Y + 1, h.edges + added)
    assert _verify_structure(grown, st)
    assert not _verify_structure(grown, change(st))


def _disjoint_links_by_backtracking(links, k):
    """Indices of k pairwise-disjoint pairs, lexicographically first, or
    None, by recursive backtracking."""
    chosen = []

    def rec(start, used):
        if len(chosen) == k:
            return True
        for i in range(start, len(links)):
            if used.isdisjoint(links[i]):
                chosen.append(i)
                if rec(i + 1, used | set(links[i])):
                    return True
                chosen.pop()
        return False

    return tuple(chosen) if rec(0, set()) else None


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=9))
def test_three_disjoint_links_match_backtracking(links):
    expected = _disjoint_links_by_backtracking(links, 3)
    assert hyper3._three_disjoint_links(links) == expected
