import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graphfun import functionality
from graphfun.families import permutation_graph, random_graph, random_permutation
from graphfun.functionality import (
    _fun_search,
    _min_hitting_set,
    _resolver_masks,
    fun_graph,
    fun_graph_lower,
    fun_vertex,
    fun_vertex_upper,
    is_function_of,
    min_fun,
)
from graphfun.graph import Graph, _bits, induced_subgraph, mask_of
from graphfun.naive import naive_fun_graph, naive_fun_vertex, naive_min_fun
from graphfun.symdiff import sd_pair


def cycle(n):
    return Graph.from_edge_list(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n):
    return Graph.from_edge_list(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


small_graphs = st.builds(
    random_graph,
    n=st.integers(min_value=1, max_value=8),
    p=st.sampled_from([0.2, 0.5, 0.8]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)


def test_is_function_of_rejects_target_in_support():
    g = cycle(5)
    with pytest.raises(ValueError):
        is_function_of(g, 0, {0, 1})


@pytest.mark.parametrize(
    "call,message",
    [
        pytest.param(lambda g: is_function_of(g, 0, [5]), "vertex 5 out of range", id="support-n"),
        pytest.param(lambda g: is_function_of(g, 0, [-1]), "vertex -1 out of range", id="support-neg"),
        pytest.param(lambda g: is_function_of(g, 5, [1]), "vertex 5 out of range", id="target-n"),
        pytest.param(lambda g: fun_vertex(g, 5), "vertex 5 out of range", id="fun-vertex-n"),
        pytest.param(lambda g: fun_vertex(g, -1), "vertex -1 out of range", id="fun-vertex-neg"),
        pytest.param(lambda g: fun_vertex_upper(g, 5), "vertex 5 out of range", id="upper-n"),
        pytest.param(lambda g: is_function_of(g, 0, [1], among=0b100011), "bits outside",
                     id="mask-above-n"),
        pytest.param(lambda g: is_function_of(g, 0, [1], among=-1), "bits outside", id="mask-neg"),
        pytest.param(lambda g: is_function_of(g, 0, [1], among=0b00010), "vertex 0 lies outside",
                     id="target-outside-mask"),
        pytest.param(lambda g: is_function_of(g, 0, [2], among=0b00011), "vertex 2 lies outside",
                     id="support-outside-mask"),
    ],
)
def test_vertices_outside_the_graph_or_mask_are_rejected(call, message):
    with pytest.raises(ValueError, match=message):
        call(cycle(5))


def _per_vertex_table(g, y, support, among):
    """The definition, one outside vertex at a time: z's profile over the
    sorted support decides A(y, z) for every z in among - support - {y}."""
    order = sorted(support)
    table = {}
    for z in range(g.n):
        if among >> z & 1 and z != y and z not in support:
            profile = sum(1 << i for i, x in enumerate(order) if g.has_edge(z, x))
            if table.setdefault(profile, int(g.has_edge(y, z))) != int(g.has_edge(y, z)):
                return None
    return table


@settings(max_examples=300, deadline=None)
@given(small_graphs, st.data())
def test_is_function_of_matches_per_vertex_definition(g, data):
    among = data.draw(st.integers(min_value=1, max_value=(1 << g.n) - 1))
    inside = [v for v in range(g.n) if among >> v & 1]
    y = data.draw(st.sampled_from(inside))
    support = set(data.draw(st.lists(st.sampled_from(inside)))) - {y}
    expected = _per_vertex_table(g, y, support, among)
    fn = is_function_of(g, y, support, among)
    if expected is None:
        assert fn is None
    else:
        assert fn is not None and fn.table == expected
        assert fn.support == tuple(sorted(support)) and fn.verify(g)


def test_is_function_of_full_support_always_works():
    g = cycle(5)
    fn = is_function_of(g, 0, {1, 2, 3, 4})
    assert fn is not None and fn.verify(g)


def test_is_function_of_none_on_conflict():
    # In P3, the endpoints of the path conflict for the middle vertex
    g = Graph.from_edge_list(3, [(0, 1), (1, 2)])
    assert is_function_of(g, 0, set()) is None


def test_fun_vertex_isolated_and_dominating():
    g = Graph.from_edge_list(3, [(0, 1)])
    assert fun_vertex(g, 2).value == 0  # isolated
    assert fun_vertex(complete(4), 0).value == 0


def test_fun_vertex_witness_verifies():
    g = cycle(6)
    res = fun_vertex(g, 0)
    assert len(res.witness_set) == res.value
    assert res.witness_fn.verify(g)


def test_min_fun_lowest_index_tie():
    res = min_fun(cycle(5))
    assert res.witness_vertex == 0  # all vertices tie by symmetry


def test_fun_graph_ground_truths():
    assert fun_graph(cycle(5)).value == 2
    p4 = Graph.from_edge_list(4, [(0, 1), (1, 2), (2, 3)])
    assert fun_graph(p4).value == 1
    assert fun_graph(complete(6)).value == 0


def test_fun_graph_reports_attaining_subgraph():
    g = cycle(5)
    res = fun_graph(g)
    sub, mapping = induced_subgraph(g, res.subgraph)
    back = {v: i for i, v in enumerate(mapping)}
    assert min_fun(sub).value == res.value
    assert (
        is_function_of(sub, back[res.witness_vertex], {back[v] for v in res.witness_set})
        is not None
    )


def test_fun_graph_witness_replays_on_its_own_graph():
    # the witness holds in the attaining subgraph only, so it must replay
    # there and not on all of G
    for seed in range(40):
        g = random_graph(9, 0.5, seed)
        res = fun_graph(g)
        assert res.witness_fn.verify(g)
        assert res.witness_fn.among == mask_of(res.subgraph)


def test_fun_graph_lower_is_a_lower_bound():
    g = random_graph(12, 0.5, 7)
    exact = fun_graph(g).value
    assert fun_graph_lower(g, trials=20, seed=0) <= exact
    # a trial that beats min_fun: min_fun is 0, and a subgraph reaches fun(G) = 1
    g = random_graph(10, 0.3, 0)
    assert min_fun(g).value < fun_graph_lower(g, trials=20, seed=0) <= fun_graph(g).value
    # the thirteenth of these draws is the empty subset, which scores nothing
    g = random_graph(5, 0.5, 2)
    assert min_fun(g).value < fun_graph_lower(g, trials=30, seed=0) == fun_graph(g).value
    with pytest.raises(ValueError, match="trials must be >= 1"):
        fun_graph_lower(g, trials=0, seed=0)


@settings(max_examples=40, deadline=None)
@given(small_graphs)
def test_oracle_equivalence(g):
    for y in range(g.n):
        assert fun_vertex(g, y).value == naive_fun_vertex(g, y)


@settings(max_examples=30, deadline=None)
@given(small_graphs)
def test_fun_bounded_by_degree_and_codegree(g):
    for y in range(g.n):
        assert fun_vertex(g, y).value <= min(g.degree(y), g.n - 1 - g.degree(y))


@settings(max_examples=30, deadline=None)
@given(small_graphs)
def test_upper_bound_dominates_exact(g):
    for y in range(g.n):
        up = fun_vertex_upper(g, y)
        assert up.value >= fun_vertex(g, y).value
        assert up.witness_fn.verify(g)


@settings(max_examples=20, deadline=None)
@given(small_graphs)
def test_fun_linked_to_sd(g):
    for x in range(g.n):
        fx = fun_vertex(g, x).value
        for y in range(g.n):
            if y != x:
                assert fx <= sd_pair(g, x, y) + 1


@settings(max_examples=15, deadline=None)
@given(small_graphs, st.integers(min_value=0, max_value=2**16))
def test_fun_graph_monotone_under_induced_subgraphs(g, seed):
    import random

    if g.n < 2:
        return
    rng = random.Random(seed)
    size = rng.randint(1, g.n)
    sub, _ = induced_subgraph(g, sorted(rng.sample(range(g.n), size)))
    assert fun_graph(sub).value <= fun_graph(g).value


@settings(max_examples=10, deadline=None)
@given(
    st.builds(
        random_graph,
        n=st.integers(min_value=1, max_value=6),
        p=st.sampled_from([0.3, 0.6]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
)
# One vertex: the sweep's only size is 1.
@example(Graph(1, (0,)))
def test_fun_graph_matches_naive(g):
    assert fun_graph(g).value == naive_fun_graph(g)
    assert min_fun(g).value == naive_min_fun(g)


# A search that cuts a child at a mask with no unbanned candidate left.
EMPTY_CANDIDATE_MASKS = [29, 1, 92, 72, 66, 176, 48, 194, 68, 24, 130, 114]


def _min_hitting_size(masks, universe):
    """Brute force: size of a smallest subset of ``universe`` hitting every
    mask (each mask is nonempty and inside the universe)."""
    return min(s.bit_count() for s in range(universe + 1) if all(m & s for m in masks))


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(min_value=1, max_value=255), max_size=12),
    st.integers(min_value=0, max_value=9),
    st.integers(min_value=0, max_value=255),
)
@example(EMPTY_CANDIDATE_MASKS, 8, 0)
def test_min_hitting_set_matches_brute_force(masks, cap, guess):
    k = _min_hitting_size(masks, 255)

    def hits(s):
        return all(m & s for m in masks)

    got = _min_hitting_set(masks, cap, None)
    if k < cap:
        assert got is not None and hits(got) and got.bit_count() == k
    else:
        assert got is None
    # a feasible init seeds the bound: it is returned unless strictly beaten
    init = guess if hits(guess) else 255
    got = _min_hitting_set(masks, cap, init)
    if k < min(cap, init.bit_count()):
        assert got is not None and hits(got) and got.bit_count() == k
    elif init.bit_count() < cap:
        assert got == init
    else:
        assert got is None



def _two_pass_min_hitting_set(masks, cap, init):
    """Reference search with the same branching, bans and bounds, one node
    at a time: each child's list is built in full, then the child applies
    its own bound on entry."""
    best_size = cap
    best_mask = None
    if init is not None and init.bit_count() < best_size:
        best_size = init.bit_count()
        best_mask = init

    def rec(chosen, count, unresolved, banned):
        nonlocal best_size, best_mask
        if not unresolved:
            if count < best_size:
                best_size = count
                best_mask = chosen
            return
        allowed = ~banned
        used = 0
        need = count
        for m in unresolved:
            free = m & allowed
            if not free:
                return
            if not free & used:
                used |= free
                need += 1
                if need >= best_size:
                    return
        for b in _bits(unresolved[0] & allowed):
            bit = 1 << b
            rec(chosen | bit, count + 1, [m for m in unresolved if not m & bit], banned)
            banned |= bit

    rec(0, 0, sorted(masks, key=int.bit_count), 0)
    return best_mask


# (masks, cap, guess) whose feasible guess of size 3 puts the root's
# children two short of the best, so they take the AND pass
AND_PASS_EXAMPLES = [
    # vertex 0 hits every mask on its own
    ([0b0011, 0b0101], 9, 0b0111),
    # 0 and 1 complete; sibling 1, then one short, hits every mask alone
    ([0b0011, 0b1110], 9, 0b0111),
    # the masks 0 misses share no vertex, so 0 is banned; 3 misses 0b0110
    # and 0b0011, which holds the banned 0, and 1 completes
    ([0b1001, 0b0110, 0b0011, 0b11000], 9, 0b10011),
]


@settings(max_examples=400, deadline=None)
@given(
    st.lists(st.integers(min_value=1, max_value=4095), max_size=16),
    st.integers(min_value=0, max_value=13),
    st.integers(min_value=0, max_value=4095),
)
@example([], 0, 0)
@example([], 3, 0)
@example([0b0011, 0b1100], 0, 0b1111)
@example([0b0011, 0b1100], 9, 0b1111)  # init strictly beaten: 0b0101 wins
@example([0b0011, 0b1100], 9, 0b1010)  # init ties the minimum and is kept
@example(*AND_PASS_EXAMPLES[0])
@example(*AND_PASS_EXAMPLES[1])
@example(*AND_PASS_EXAMPLES[2])
@example(EMPTY_CANDIDATE_MASKS, 8, 0)
def test_min_hitting_set_returns_the_reference_mask(masks, cap, guess):
    # the same mask, not only the same size: supports must not change
    init = guess if all(m & guess for m in masks) else 4095
    ordered = sorted(masks, key=int.bit_count)
    for seed in (None, init):
        assert _min_hitting_set(ordered, cap, seed) == _two_pass_min_hitting_set(masks, cap, seed)


def test_and_pass_examples_take_the_and_pass(monkeypatch):
    calls = []
    real = functionality._finish

    def spy(unresolved, bit, allowed):
        done = real(unresolved, bit, allowed)
        calls.append((bit, ~allowed, [m for m in unresolved if not m & bit], done))
        return done

    monkeypatch.setattr(functionality, "_finish", spy)
    seen = []
    for masks, cap, guess in AND_PASS_EXAMPLES:
        calls.clear()
        seen.append((_min_hitting_set(masks, cap, guess), list(calls)))
    # (returned mask, [(bit, bans, masks the bit misses, AND pass result)])
    assert seen == [
        (0b0001, [(0b0001, 0, [], 0b0001)]),
        (0b0010, [(0b0001, 0, [0b1110], 0b0011)]),
        (0b1010, [(0b0001, 0, [0b0110, 0b11000], 0),
                  (0b1000, 0b0001, [0b0110, 0b0011], 0b1010)]),
    ]
    # A banned vertex in every missed mask is skipped.  The search never
    # passes one: that vertex's own branch has already found a set of the
    # size this one would complete, so the child would not be two short.
    assert real([0b0111, 0b0101], 0b1000, ~0b0001) == 0b1100


def _searched(g, y, cap, among):
    """_fun_search's answer from the hitting-set search on every resolver
    mask, seeded as _fun_search seeds it."""
    others = among & ~(1 << y)
    neigh = g.rows[y] & others
    non = others ^ neigh
    init = neigh if neigh.bit_count() <= non.bit_count() else non
    return _min_hitting_set(_resolver_masks(g, y, among), cap, init)


def test_fun_search_matches_the_hitting_set_search_on_every_small_graph():
    """Every graph on at most 5 vertices, every y, every vertex mask holding
    y and every cap from 0 to n: the searches a small bound answers without
    masks give the hitting-set search's mask."""
    cases = 0
    for n in range(1, 6):
        pairs = list(itertools.combinations(range(n), 2))
        for chosen in range(1 << len(pairs)):
            g = Graph.from_edge_list(n, [e for i, e in enumerate(pairs) if chosen >> i & 1])
            for y in range(n):
                for among in range(1 << n):
                    if among >> y & 1:
                        for cap in range(n + 1):
                            assert _fun_search(g, y, cap, among) == _searched(g, y, cap, among)
                            cases += 1
    assert cases == 502_170


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=14),
    p=st.sampled_from([0.1, 0.2, 0.5, 0.8, 0.9]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    data=st.data(),
)
def test_fun_search_matches_the_hitting_set_search(n, p, seed, data):
    g = random_graph(n, p, seed)
    y = data.draw(st.integers(min_value=0, max_value=n - 1))
    among = data.draw(st.integers(min_value=0, max_value=(1 << n) - 1)) | 1 << y
    for cap in range(n + 1):
        assert _fun_search(g, y, cap, among) == _searched(g, y, cap, among)


def test_resolver_masks_come_stably_sorted_by_popcount():
    g = random_graph(12, 0.5, 3)
    for y in range(g.n):
        masks = _resolver_masks(g, y, (1 << g.n) - 1)
        others = ((1 << g.n) - 1) & ~(1 << y)
        built = [((g.rows[z] ^ g.rows[w]) | 1 << z | 1 << w) & others
                 for z in _bits(g.rows[y]) for w in _bits(others & ~g.rows[y])]
        assert masks == sorted(built, key=int.bit_count)


# Pinned supports: a faster search may prune more but must report these.
# (n, seed) of G(n, 1/2) -> fun_vertex supports of vertices 0, n//2 and
# n-1, then min_fun's (witness_vertex, witness_set).
GOLDEN_SUPPORTS = {
    (20, 1): ([[2, 3, 11, 17], [12, 13, 15], [1, 2, 6, 12]], (1, [4, 5, 19])),
    (22, 2): ([[3, 6, 8, 10], [0, 2, 12], [0, 1, 16, 17]], (2, [6, 18, 21])),
    (24, 3): ([[2, 5, 8, 16], [2, 3, 4], [1, 3, 10, 11]], (12, [2, 3, 4])),
    (26, 4): ([[3, 9, 15, 25], [2, 3, 20, 22], [5, 8, 17, 20]], (0, [3, 9, 15, 25])),
    (28, 5): ([[1, 11, 17, 19], [2, 3, 6, 19], [3, 7, 16, 21]], (0, [1, 11, 17, 19])),
    (30, 6): ([[4, 5, 7, 25], [2, 7, 13, 24], [2, 4, 5, 6, 9]], (0, [4, 5, 7, 25])),
}


@pytest.mark.parametrize("n,seed", sorted(GOLDEN_SUPPORTS))
def test_supports_are_reproduced(n, seed):
    g = random_graph(n, 0.5, seed)
    vertex_supports, (wv, ws) = GOLDEN_SUPPORTS[(n, seed)]
    assert [sorted(fun_vertex(g, y).witness_set) for y in (0, n // 2, n - 1)] == vertex_supports
    res = min_fun(g)
    assert (res.witness_vertex, sorted(res.witness_set)) == (wv, ws)


# s -> fun_vertex supports of vertices 0 and 10 of the permutation graph of
# random_permutation(20, s), then min_fun's (witness_vertex, witness_set).
GOLDEN_PERMUTATION_SUPPORTS = {
    1: ([[9, 19], [2, 6, 9]], (13, [14])),
    2: ([[1, 2, 3], [5, 12]], (1, [0])),
    3: ([[1], [9, 19]], (0, [1])),
}


@pytest.mark.parametrize("seed", sorted(GOLDEN_PERMUTATION_SUPPORTS))
def test_permutation_graph_supports_are_reproduced(seed):
    g = permutation_graph(random_permutation(20, seed))
    vertex_supports, (wv, ws) = GOLDEN_PERMUTATION_SUPPORTS[seed]
    assert [sorted(fun_vertex(g, y).witness_set) for y in (0, 10)] == vertex_supports
    res = min_fun(g)
    assert (res.witness_vertex, sorted(res.witness_set)) == (wv, ws)
