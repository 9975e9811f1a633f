"""The hereditary sweeps behind fun_graph and sd_graph: exact rejection of
subsets by their scorers, sound pruning rules in the subset search, and
attaining subgraphs and work counts pinned across solver changes."""
import itertools
import random
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graphfun import functionality, symdiff
from graphfun.families import IntervalSet, random_graph, unit_interval_graph
from graphfun.functionality import _min_fun_over, fun_graph, is_function_of
from graphfun.graph import Graph, _bits, hereditary_max_min, induced_subgraph, mask_of
from graphfun.naive import naive_fun_vertex, naive_min_fun, naive_min_sd
from graphfun.symdiff import min_sd, sd_graph


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
    found = _min_fun_over(g, among, floor, {})
    if min(values) <= floor:
        assert found is None
        return
    assert found is not None
    y, support = found
    assert y == mapping[values.index(min(values))]
    assert support.bit_count() == min(values)
    assert support & ~among == 0
    back = {v: i for i, v in enumerate(mapping)}
    assert is_function_of(sub, back[y], {back[v] for v in _bits(support)}) is not None


def _searching_min_fun_over(g, among, floor, kept):
    """_min_fun_over as it was before it stopped at a support of size 1:
    every vertex is searched, each on all of its resolver masks."""
    rows = g.rows
    if floor >= 0:
        if functionality._peel(rows, kept, among, among, floor) is None:
            return None
    else:
        last = among.bit_count() - 1
        for y in _bits(among):
            d = (rows[y] & among).bit_count()
            if not d or d == last:
                return y, 0
    best = None
    cap = g.n
    for y in _bits(among):
        others = among & ~(1 << y)
        neigh = rows[y] & others
        non = others ^ neigh
        init = neigh if neigh.bit_count() <= non.bit_count() else non
        found = functionality._min_hitting_set(
            functionality._resolver_masks(g, y, among), cap, init)
        if found is not None:
            best, cap = (y, found), found.bit_count()
            if cap <= floor:
                kept.setdefault(y, []).append(found)
                return None
    return best


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=12),
    p=st.sampled_from([0.1, 0.2, 0.5, 0.8, 0.9]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_min_fun_over_answers_as_the_searching_loop(n, p, seed):
    """Every _min_fun_over call that min_fun and fun_graph make returns the
    (y, support) and leaves the kept supports of the loop that searches
    every vertex in full."""
    g = random_graph(n, p, seed)
    real = functionality._min_fun_over
    calls = []

    def checked(g, among, floor, kept):
        before = {y: list(supports) for y, supports in kept.items()}
        expected = _searching_min_fun_over(g, among, floor, before)
        found = real(g, among, floor, kept)
        assert found == expected and kept == before
        calls.append(floor)
        return found

    functionality._min_fun_over = checked
    try:
        functionality.min_fun(g)
        fun_graph(g)
    finally:
        functionality._min_fun_over = real
    assert calls and calls[0] == -1


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
    "G(18,0.5)": lambda: random_graph(18, 0.5, 1),
    "G(20,0.5)#6": lambda: random_graph(20, 0.5, 6),
    "G(20,0.5)#7": lambda: random_graph(20, 0.5, 7),
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
    # Recorded before the depth-first subset search ...
    "G(18,0.5)": (
        (3, 1, [2, 3, 9], [1, 2, 3, 4, 6, 7, 8, 9, 10, 11, 12, 13, 14, 16, 17]),
        (3, (1, 14), [1, 2, 3, 4, 6, 7, 8, 9, 10, 11, 12, 13, 14, 16, 17]),
    ),
    # ... except fun_graph on G(20, 1/2), recorded before its sweep kept
    # supports, when each call took 1.4-3.6 s.
    "G(20,0.5)#6": (
        (3, 1, [5, 7, 17], [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 15, 16, 17, 18, 19]),
        (5, (0, 3), [0, 1, 2, 3, 4, 5, 6, 7, 8, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19]),
    ),
    "G(20,0.5)#7": (
        (3, 0, [5, 10, 16], list(range(20))),
        (4, (2, 11), list(range(20))),
    ),
}


@pytest.mark.parametrize("name", list(GOLDEN_SWEEPS))
def test_sweeps_are_reproduced(name):
    g = GRAPHS[name]()
    golden_fun, golden_sd = GOLDEN_SWEEPS[name]
    f = fun_graph(g, exact_limit=g.n)
    assert (f.value, f.witness_vertex, sorted(f.witness_set), sorted(f.subgraph)) == golden_fun
    s = sd_graph(g, exact_limit=g.n)
    assert (s.value, s.pair, sorted(s.subgraph)) == golden_sd


def _sweep_args(module, solver, g):
    """The (score, dead) that ``solver`` hands
    graph.hereditary_max_min for ``g``, caught by wrapping the sweep while
    ``solver`` runs."""
    caught = []
    sweep = module.hereditary_max_min

    def catch(g, *args):
        caught.append(args)
        return sweep(g, *args)

    module.hereditary_max_min = catch
    try:
        solver(g, exact_limit=g.n)
    finally:
        module.hereditary_max_min = sweep
    return caught[0]


RULES = {
    "fun": (functionality, fun_graph, naive_min_fun, 1),
    "sd": (symdiff, sd_graph, naive_min_sd, 2),
}


@pytest.mark.parametrize("rule", list(RULES))
@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=7),
    p=st.sampled_from([0.2, 0.5, 0.8]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    pick_cand=st.integers(min_value=0, max_value=2**7 - 1),
    pick_inc=st.integers(min_value=1, max_value=2**7 - 1),
    floor=st.integers(min_value=-1, max_value=3),
)
# fun's core rule: vertex 4 is dropped only once vertex 3 is gone ...
@example(n=7, p=0.5, seed=9, pick_cand=127, pick_inc=0b11, floor=0)
# ... and vertex 0 of inc only once vertices 2 and 3 are gone, so the
# answer is all of cand.
@example(n=4, p=0.2, seed=1, pick_cand=15, pick_inc=0b1, floor=0)
# fun's solver run leaves kept supports larger than this floor, which may
# neither cut the node nor drop a vertex.
@example(n=7, p=0.5, seed=6, pick_cand=127, pick_inc=0b10, floor=-1)
def test_dead_rules_are_sound(rule, n, p, seed, pick_cand, pick_inc, floor):
    """Every H with inc ⊆ H ⊆ cand that holds a dropped vertex has naive
    min at most ``floor``; when the drop meets inc, that is every such H."""
    module, solver, naive_min, min_size = RULES[rule]
    g = random_graph(n, p, seed)
    inc = pick_inc & ((1 << n) - 1) or 1
    cand = inc | (pick_cand & ((1 << n) - 1))
    dead = _sweep_args(module, solver, g)[-1]
    dropped = dead(inc, cand, floor)
    assert dropped & ~cand == 0
    free = [v for v in range(n) if (cand & ~inc) >> v & 1]
    for k in range(len(free) + 1):
        for extra in itertools.combinations(free, k):
            h = inc | mask_of(extra)
            if h.bit_count() < min_size or not dropped & h:
                continue
            sub, _ = induced_subgraph(g, [v for v in range(n) if h >> v & 1])
            assert naive_min(sub) <= floor


@pytest.mark.parametrize("n, p, seed, inc, dropped", [
    (7, 0.5, 9, 0b11, 0b11000),
    (4, 0.2, 1, 0b1, 0b1111),
])
def test_fun_rule_peels_to_the_core(n, p, seed, inc, dropped):
    """On the examples of test_dead_rules_are_sound, fun_graph's rule drops
    the vertices that only die after another one is peeled."""
    g = random_graph(n, p, seed)
    dead = _sweep_args(functionality, fun_graph, g)[-1]
    assert dead(inc, (1 << n) - 1, 0) == dropped


def test_peel_rechecks_kept_supports():
    """On C6 at floor 1 the core peel drops nothing (every degree is 2 and
    every co-degree 3), so only the kept supports act.  {3} is a support
    for 0; {1} is not, and {2, 4} is one larger than the floor.  A kept
    support is re-checked, so a dict shared by unrelated subsets is sound."""
    c6 = Graph.from_edge_list(6, [(i, (i + 1) % 6) for i in range(6)])
    rows, full, peel = c6.rows, (1 << 6) - 1, functionality._peel
    assert peel(rows, {}, 0b1, full, 1) == full
    for s in (0b10, 0b10100):
        for inc in (0b1 | s, 0b1):
            assert peel(rows, {0: [s]}, inc, full, 1) == full
    assert peel(rows, {0: [0b1000]}, 0b1001, full, 1) is None
    assert peel(rows, {0: [0b1000]}, 0b1, full, 1) == full ^ 0b1000
    assert peel(rows, {0: [0b1000]}, 0b1000, full, 1) == full ^ 0b1
    assert peel(rows, {0: [0b1000]}, 0b10, full, 1) == full


def _plain_sweep(n, min_size, score):
    """Every subset by decreasing size, then in itertools.combinations
    order, keeping strict improvements only."""
    best_value, best = -1, None
    for size in range(n, min_size - 1, -1):
        for subset in itertools.combinations(range(n), size):
            value = score(mask_of(subset), best_value)
            if value is not None:
                best_value, best = value, subset
    return best_value, frozenset(best)


def _pairwise_sd(g, among, floor):
    value = min(((g.rows[x] ^ g.rows[y]) & among & ~(1 << x) & ~(1 << y)).bit_count()
                for x, y in itertools.combinations(
                    [v for v in range(g.n) if among >> v & 1], 2))
    return None if value <= floor else value


def _fun_score(g, among, floor):
    found = _min_fun_over(g, among, floor, {})
    return None if found is None else found[1].bit_count()


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=10),
    p=st.sampled_from([0.1, 0.2, 0.5, 0.8, 0.9]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
# Two vertices: the size bound is 0 at size 2, so the sweep stops there.
@example(n=2, p=0.5, seed=0)
@example(n=2, p=0.5, seed=1)
def test_sweeps_match_plain_combinations_sweep(n, p, seed):
    """The pruned search reports the value and subset of a sweep that
    scores every subset."""
    g = random_graph(n, p, seed)
    f = fun_graph(g)
    assert (f.value, f.subgraph) == _plain_sweep(n, 1, lambda m, fl: _fun_score(g, m, fl))
    s = sd_graph(g)
    assert (s.value, s.subgraph) == _plain_sweep(n, 2, lambda m, fl: _pairwise_sd(g, m, fl))
    sub, mapping = induced_subgraph(g, s.subgraph)
    inner = min_sd(sub)
    assert s.pair == (mapping[inner.pair[0]], mapping[inner.pair[1]])


def _complement(g):
    full = (1 << g.n) - 1
    return Graph(g.n, tuple(full ^ row ^ (1 << v) for v, row in enumerate(g.rows)))


@settings(max_examples=120, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=11),
    p=st.sampled_from([0.1, 0.2, 0.5, 0.8, 0.9]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_sweeps_are_invariant_under_complement(n, p, seed):
    """A support for y in G[H] is one in the complement of G[H], and sd
    counts the same vertices, so both sweeps report the same value, vertex
    or pair, and subgraph on G and on its complement."""
    g = random_graph(n, p, seed)
    co = _complement(g)
    f, cf = fun_graph(g), fun_graph(co)
    assert (f.value, f.witness_vertex, f.subgraph) == (cf.value, cf.witness_vertex, cf.subgraph)
    s, cs = sd_graph(g), sd_graph(co)
    assert (s.value, s.pair, s.subgraph) == (cs.value, cs.pair, cs.subgraph)


def _parent_sweep(g, score, dead):
    """graph.hereditary_max_min before it kept ``dead``'s answers: the same
    search, asking ``dead`` at every node it makes."""
    best_value = -1
    best_mask = None
    for size in range(g.n, 0, -1):
        if (size - 1) // 2 <= best_value:
            break
        stack = [(0, 0, (1 << g.n) - 1)]
        while stack:
            inc, count, cand = stack.pop()
            room = cand.bit_count() - size
            if room < 0:
                continue
            if room == 0:
                value = score(cand, best_value)
                if value is not None:
                    best_value, best_mask = value, cand
                continue
            free = cand ^ inc
            if count + 1 == size:
                for _ in range(room + 1):
                    low = free & -free
                    free ^= low
                    value = score(inc | low, best_value)
                    if value is not None:
                        best_value, best_mask = value, inc | low
                continue
            children = []
            for _ in range(room + 1):
                low = free & -free
                child, child_cand = inc | low, inc | free
                free ^= low
                cut = dead(child, child_cand, best_value)
                if not cut & child:
                    children.append((child, count + 1, child_cand & ~cut))
            children.reverse()
            stack += children
    return best_value, best_mask


@pytest.mark.parametrize("rule", list(RULES))
@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=10),
    p=st.sampled_from([0.1, 0.2, 0.5, 0.8, 0.9]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_kept_answers_change_no_scoring(rule, n, p, seed):
    """With each solver's own score and dead, the sweep scores the same
    (mask, floor) sequence as the parent loop, and asks dead about each
    (inc, cand, floor) at most once.  fun's dead also reads the supports
    its score keeps, so fun is checked by _fun_sweeps_agree instead."""
    module, solver, _, _ = RULES[rule]
    g = random_graph(n, p, seed)
    if rule == "fun":
        _fun_sweeps_agree(g)
        return
    score, dead = _sweep_args(module, solver, g)
    results, scored, asked = [], [], []
    for sweep in (_parent_sweep, hereditary_max_min):
        scored.append([])
        asked.append([])

        def logged_score(mask, floor):
            scored[-1].append((mask, floor))
            return score(mask, floor)

        def logged_dead(inc, cand, floor):
            asked[-1].append((inc, cand, floor))
            return dead(inc, cand, floor)

        results.append(sweep(g, logged_score, logged_dead))
    assert results[0] == results[1]
    assert scored[0] == scored[1]
    assert len(set(asked[1])) == len(asked[1])
    assert set(asked[1]) == set(asked[0])


def _solve_logged(module, solver, g, sweep):
    """``solver``'s result on ``g`` with its sweep replaced by ``sweep``,
    the (mask, floor, value) of every score call and the (inc, cand, floor)
    of every dead call, all from one solver call with fresh closures."""
    scored, asked = [], []
    real = module.hereditary_max_min

    def logged(g, score, dead):
        def logged_score(mask, floor):
            value = score(mask, floor)
            scored.append((mask, floor, value))
            return value

        def logged_dead(inc, cand, floor):
            asked.append((inc, cand, floor))
            return dead(inc, cand, floor)

        return sweep(g, logged_score, logged_dead)

    module.hereditary_max_min = logged
    try:
        result = solver(g, exact_limit=g.n)
    finally:
        module.hereditary_max_min = real
    return result, scored, asked


def _fun_sweeps_agree(g):
    """fun_graph run once on the parent loop and once on the sweep that
    keeps dead's answers: the same FunResult, the same subsets raising the
    best value with the same floors and values, each run's scored subsets
    in plain-sweep order with the plain sweep's floors, and each dead
    question asked at most once by the sweep that keeps answers."""
    plain, best = {}, -1
    for size in range(g.n, 0, -1):
        for subset in itertools.combinations(range(g.n), size):
            mask = mask_of(subset)
            plain[mask] = (len(plain), best)
            value = _fun_score(g, mask, best)
            if value is not None:
                best = value
    runs = [_solve_logged(functionality, fun_graph, g, sweep)
            for sweep in (_parent_sweep, hereditary_max_min)]
    assert runs[0][0] == runs[1][0]
    raised = [[entry for entry in scored if entry[2] is not None] for _, scored, _ in runs]
    assert raised[0] == raised[1]
    for _, scored, _ in runs:
        places = [plain[mask] for mask, _, _ in scored]
        assert [floor for _, floor, _ in scored] == [floor for _, floor in places]
        assert all(a[0] < b[0] for a, b in zip(places, places[1:]))
    asked = runs[1][2]
    assert len(set(asked)) == len(asked)


def test_deep_search_ignores_the_recursion_limit():
    """K_1200 makes each size's search 1200 vertices deep."""
    n = 1200
    full = (1 << n) - 1
    complete = Graph(n, tuple(full ^ (1 << v) for v in range(n)))
    start = time.perf_counter()
    assert fun_graph(complete, exact_limit=n).value == 0
    assert time.perf_counter() - start < 5


# _fun_search calls of fun_graph and subsets scored by fun_graph and
# sd_graph, counted on the parent of the depth-first subset search, less
# the searches fun_graph made to search its winning subset again (11, 11,
# 8 and 12).  The scored subsets must fall.
PARENT_WORK = {
    "G(12,0.2)": (17, 3302, 3797),
    "G(12,0.5)": (29, 1586, 3302),
    "G(12,0.8)": (75, 1586, 3302),
    "unit-interval-12": (419, 3302, 3797),
}

# fun_graph's (_fun_search calls, _resolver_masks calls) since its scorer
# stops at a support of size 1 and a search whose bound is at most 2 reads
# the rows instead of building masks: (11, 11), (26, 26), (24, 24) and
# (24, 24) before.  The searches must stay below the parent's.
FUN_SEARCHES = {
    "G(12,0.2)": (3, 1),
    "G(12,0.5)": (22, 7),
    "G(12,0.8)": (13, 0),
    "unit-interval-12": (14, 4),
}

# sd_graph's scored subsets since its sweep stops at the size bound
# (|H|-1)//2 instead of |H|-2; a looser bound scores more.
SD_SCORED = {
    "G(12,0.2)": 32,
    "G(12,0.5)": 38,
    "G(12,0.8)": 25,
    "unit-interval-12": 64,
}


def _work(solver, g, monkeypatch):
    """(_fun_search calls, _resolver_masks calls, subsets scored) of
    ``solver`` on ``g``."""
    counts = {"search": 0, "masks": 0, "score": 0}

    def counted(name, real):
        def wrapped(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)
        return wrapped

    def counted_sweep(sweep):
        def wrapped(g, score, dead):
            def counted_score(mask, floor):
                counts["score"] += 1
                return score(mask, floor)
            return sweep(g, counted_score, dead)
        return wrapped

    with monkeypatch.context() as m:
        m.setattr(functionality, "_fun_search", counted("search", functionality._fun_search))
        m.setattr(functionality, "_resolver_masks",
                  counted("masks", functionality._resolver_masks))
        for module in (functionality, symdiff):
            m.setattr(module, "hereditary_max_min", counted_sweep(module.hereditary_max_min))
        solver(g)
    return counts["search"], counts["masks"], counts["score"]


@pytest.mark.parametrize("name", list(PARENT_WORK))
def test_search_work_is_kept_and_scoring_falls(name, monkeypatch):
    g = GRAPHS[name]()
    searches, fun_scored, sd_scored = PARENT_WORK[name]
    fun_searches, fun_masks, fun_now = _work(fun_graph, g, monkeypatch)
    sd_searches, sd_masks, sd_now = _work(sd_graph, g, monkeypatch)
    assert ((fun_searches, fun_masks), sd_searches, sd_masks) == (FUN_SEARCHES[name], 0, 0)
    assert fun_searches < searches
    assert fun_now < fun_scored
    assert sd_now < sd_scored


@pytest.mark.parametrize("name", list(SD_SCORED))
def test_sd_sweep_stops_at_its_size_bound(name, monkeypatch):
    assert _work(sd_graph, GRAPHS[name](), monkeypatch) == (0, 0, SD_SCORED[name])
