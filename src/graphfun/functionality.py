"""Vertex and graph functionality.

A vertex y is a function of a support set S when the adjacency of every
outside vertex z to y is determined by z's adjacency profile over S.
fun(y) is the size of a smallest such S; fun(G) is the maximum over
induced subgraphs of the minimum vertex functionality.

The exact vertex search is a branch-and-bound over "conflict pairs":
vertices z, z' with different adjacency to y.  A support S works iff for
every conflict pair it contains z, z', or a vertex distinguishing them,
i.e. iff S hits the pair's resolver set.  Feasibility is monotone under
supersets, so minimum hitting set gives exactly fun(y).
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Optional

from .graph import Graph, hereditary_max_min, mask_of, _bits


@dataclass(frozen=True)
class WitnessFunction:
    """Partial Boolean function certifying that a vertex is a function of
    ``support`` in G[among] (all of G when ``among`` is None).

    ``table`` maps each observed adjacency profile (an int whose bit i is
    the adjacency to support[i]) to the common adjacency value.  Profiles
    absent from the table were never observed and are don't-cares.
    """

    target: int
    support: tuple[int, ...]
    table: dict[int, int]
    among: Optional[int] = None

    def verify(self, g: Graph) -> bool:
        """Replay the table on the graph and vertex mask it was built on."""
        fn = is_function_of(g, self.target, self.support, self.among)
        return fn is not None and all(self.table.get(p) == v for p, v in fn.table.items())


@dataclass(frozen=True)
class FunResult:
    value: int
    witness_vertex: int
    witness_set: frozenset[int]
    witness_fn: WitnessFunction
    subgraph: Optional[frozenset[int]] = None


def _domain(g: Graph, among: Optional[int], vertices: Iterable[int]) -> int:
    """``among`` as a mask (all of G when None), checked to lie in G and hold ``vertices``."""
    full = (1 << g.n) - 1
    if among is None:
        among = full
    elif among & ~full:
        raise ValueError(f"vertex mask {among:#x} has bits outside 0..{g.n - 1}")
    for v in vertices:
        if not among >> g._vertex(v) & 1:
            raise ValueError(f"vertex {v} lies outside the vertex mask")
    return among


def _cells(rows: tuple[int, ...], support: Iterable[int], domain: int) -> list[tuple[int, int]]:
    """(profile, cell) for each profile cell of ``domain`` under the rows of
    the ``support`` vertices, taken in increasing order.  Each support row
    splits every cell into its part inside the row and its part outside,
    keeping the non-empty parts only; bit i of a profile is adjacency to
    the i-th support vertex."""
    cells = [(0, domain)] if domain else []
    for i, x in enumerate(support):
        row = rows[x]
        bit = 1 << i
        split = []
        for p, cell in cells:
            inside = cell & row
            if inside:
                split.append((p | bit, inside))
            if inside != cell:
                split.append((p, cell ^ inside))
        cells = split
    return cells


def _splits(rows: tuple[int, ...], y: int, support: int, among: int) -> bool:
    """Whether the ``support`` mask is a support for y in G[among]: every
    profile cell of among - support - {y} lies inside N(y) or misses it.
    The caller keeps y and ``support`` inside ``among``."""
    yrow = rows[y]
    for _, cell in _cells(rows, _bits(support), among & ~(support | 1 << y)):
        adjacent = cell & yrow
        if adjacent and adjacent != cell:
            return False
    return True


def is_function_of(
    g: Graph, y: int, support: Iterable[int], among: Optional[int] = None
) -> Optional[WitnessFunction]:
    """Witness that y is a function of ``support`` in G[among] (all of G by
    default), or None.

    The outside vertices fall into profile cells (``_cells``).  The support
    works iff every cell lies inside N(y) or misses it; the table maps each
    cell's profile to that value.
    """
    supp = tuple(sorted(set(support)))
    rest = _domain(g, among, (y,) + supp) & ~(mask_of(supp) | (1 << y))
    if y in supp:
        raise ValueError("target vertex may not belong to its own support")
    yrow = g.rows[y]
    table: dict[int, int] = {}
    for p, cell in _cells(g.rows, supp, rest):
        adjacent = cell & yrow
        if adjacent and adjacent != cell:
            return None
        table[p] = 1 if adjacent else 0
    return WitnessFunction(y, supp, table, among)


def _resolver_masks(g: Graph, y: int, among: int) -> list[int]:
    """One bitmask per conflict pair of y in G[among]: the vertices whose
    presence in S resolves it (the pair itself plus every distinguishing
    vertex of ``among``, y excluded).

    The masks come stably sorted by popcount, as ``_min_hitting_set``
    needs them: each is put in the bucket of its popcount as it is built,
    so generation order holds within a bucket, and the buckets are joined
    in increasing popcount."""
    others = among & ~(1 << y)
    rows = g.rows
    yrow = rows[y]
    nonneigh = [(1 << w, rows[w]) for w in _bits(others & ~yrow)]
    buckets: list[list[int]] = [[] for _ in range(others.bit_count() + 1)]
    for z in _bits(others & yrow):
        rz = rows[z]
        bz = 1 << z
        for bw, rw in nonneigh:
            m = ((rz ^ rw) | bz | bw) & others
            buckets[m.bit_count()].append(m)
    masks = []
    for bucket in buckets:
        masks += bucket
    return masks


def _min_hitting_set(masks: list[int], cap: int, init: Optional[int]) -> Optional[int]:
    """Smallest mask hitting every resolver mask, of size < cap, else None.

    ``init`` is a known-feasible mask used to seed the bound.  ``masks``
    must come stably sorted by popcount, as ``_resolver_masks`` returns
    them: the size found does not depend on the order, but the mask
    returned does.  Branching is fail-first: each node branches on the
    candidates of its first unresolved mask, in increasing index order,
    and passes each child only the masks the child leaves unresolved.
    After the child for b returns, later siblings ban b.  A child is cut
    when some mask it leaves unresolved has no unbanned candidate, or when
    a greedy packing of disjoint unbanned candidate sets reaches the best
    size.  The parent builds each child's list and applies that bound in
    one pass over its own list, so a cut child is never entered, and a
    child that leaves nothing unresolved is recorded on the spot.  Only
    subtrees that cannot strictly improve are cut, so the support returned
    is the first minimum in branching order.

    A child two short of the best size is finished in that pass without a
    list (``_finish``): only the child alone or the child and one more
    vertex can improve, and that vertex must be unbanned and lie in every
    mask the child leaves unresolved.  The parent ANDs those masks from
    ``~banned`` and takes the lowest bit, which is the first grandchild
    the child's own loop would find resolving all of them, so the mask
    returned is the same.
    """
    best_size = cap
    best_mask: Optional[int] = None
    if init is not None and init.bit_count() < best_size:
        best_size = init.bit_count()
        best_mask = init

    def rec(chosen: int, count: int, unresolved: list[int], banned: int) -> None:
        # the node's own bound has passed and ``unresolved`` is not empty
        nonlocal best_size, best_mask
        size = count + 1
        cands = unresolved[0] & ~banned
        while cands and size < best_size:
            bit = cands & -cands
            cands ^= bit
            if best_size - size == 2:
                done = _finish(unresolved, bit, ~banned)
                if done:
                    best_mask = chosen | done
                    best_size = best_mask.bit_count()
            else:
                allowed = ~banned
                used = 0
                need = size
                rest: list[int] = []
                for m in unresolved:
                    if m & bit:
                        continue
                    free = m & allowed
                    if not free:
                        break
                    if not free & used:
                        used |= free
                        need += 1
                        if need >= best_size:
                            break
                    rest.append(m)
                else:
                    if rest:
                        rec(chosen | bit, size, rest, banned)
                    else:
                        best_size = size
                        best_mask = chosen | bit
            banned |= bit

    used = need = 0
    for m in masks:
        if not m & used:
            used |= m
            need += 1
            if need >= best_size:
                return best_mask
    if masks:
        rec(0, 0, masks, 0)
    elif best_size > 0:
        best_mask = 0
    return best_mask


def _finish(unresolved: list[int], bit: int, allowed: int) -> int:
    """What a child two short of the best adds to its parent's choice:
    ``bit`` if it hits every mask of ``unresolved``, else ``bit`` and the
    lowest ``allowed`` vertex (``allowed`` is ``~banned``) in every mask it
    misses, else 0 (no such vertex)."""
    common = allowed  # negative until a missed mask is ANDed in
    for m in unresolved:
        if not m & bit:
            common &= m
            if not common:
                return 0
    return bit if common < 0 else bit | (common & -common)


def _fun_search(g: Graph, y: int, cap: int, among: int) -> Optional[int]:
    """Mask of a minimum support for y in G[among] of size < cap, or None.
    N(y) and its complement in G[among] are always supports (constant
    function outside); the smaller, ``init``, seeds the bound.

    When the bound min(cap, |init|) is at most 2, the answer is
    ``_min_hitting_set``'s, read off the rows without building a mask.
    Only a support of size 0 or 1 could beat the bound.  Size 0 means no
    conflict pair, so N(y) or its complement is empty and ``init`` is 0.
    At bound 2 both have at least two vertices, so for each vertex a of
    among - {y} both meet among - {a, y}.  {a} is then a support iff a
    lies in every resolver mask, iff a is adjacent to exactly one vertex
    of every conflict pair without a, iff a's row on among - {a, y} is
    y's row there or its complement.  At bound 2 the search keeps only a
    child that hits every mask, trying the vertices of its first mask in
    increasing order, so it returns the lowest such a, as this loop does.
    Failing that, it returns ``init`` if it is below cap, else None.
    """
    others = among & ~(1 << y)
    rows = g.rows
    yrow = rows[y]
    neigh = yrow & others
    non = others ^ neigh
    init = neigh if neigh.bit_count() <= non.bit_count() else non
    size = init.bit_count()
    bound = min(cap, size)
    if bound <= 2:
        if bound == 2:
            rest = others
            while rest:
                low = rest & -rest
                rest ^= low
                outside = others ^ low
                differ = (rows[low.bit_length() - 1] ^ yrow) & outside
                if not differ or differ == outside:
                    return low
        return init if size < cap else None
    return _min_hitting_set(_resolver_masks(g, y, among), cap, init)


def _certified(g: Graph, y: int, support: Optional[int], among: Optional[int] = None) -> FunResult:
    """FunResult for a support mask a search returned in G[among], with its
    replayed witness function and, when ``among`` is given, that subgraph;
    a missing or failing support is an internal error."""
    fn = None if support is None else is_function_of(g, y, _bits(support), among)
    if fn is None:
        raise RuntimeError(f"search returned no valid support for vertex {y}")
    subgraph = None if among is None else frozenset(_bits(among))
    return FunResult(len(fn.support), y, frozenset(fn.support), fn, subgraph)


def fun_vertex(g: Graph, y: int) -> FunResult:
    """Exact fun(y) with an attaining support and verified witness."""
    full = _domain(g, None, (y,))
    return _certified(g, y, _fun_search(g, y, g.n, full))


def fun_vertex_upper(g: Graph, y: int) -> FunResult:
    """Greedy upper bound on fun(y): repeatedly add the vertex resolving
    the most unresolved conflict pairs, ties by lowest index."""
    masks = _resolver_masks(g, y, _domain(g, None, (y,)))
    chosen = 0
    while True:
        unresolved = [m for m in masks if not m & chosen]
        if not unresolved:
            break
        counts: dict[int, int] = {}
        for m in unresolved:
            for b in _bits(m):
                counts[b] = counts.get(b, 0) + 1
        pick = max(sorted(counts), key=lambda b: counts[b])
        # max() keeps the first maximum, so sorting the keys makes the
        # tie-break "lowest index"
        chosen |= 1 << pick
    return _certified(g, y, chosen)


# fun_graph's default exact_limit.  At n = 20, G(n, 1/2) takes at most
# 0.6 s and 19 MB (eight seeds); permutation graphs and unit-interval
# graphs of every density tried take at most 0.17 s and 17 MB.  G(22, 1/2)
# takes up to 3.0 s.
FUN_EXACT_LIMIT = 20


def _peel(
    rows: tuple[int, ...], kept: dict[int, list[int]], inc: int, alive: int, floor: int
) -> Optional[int]:
    """``alive`` less vertices that no H with ``inc`` inside H inside
    ``alive`` and min fun_H above ``floor`` can hold, or None once no such
    H is left.  Sound, not complete.

    The rule: fun_H(y) <= |S| for every support S of y in G[H].  N(y) and
    its complement are supports, so fun_H(y) <= min(deg_H(y),
    |H|-1-deg_H(y)); and a support for y in G[C] stays one in every G[H]
    with S + {y} inside H inside C, since removing vertices only removes
    conflict pairs.

    First ``alive`` is peeled to its core (Batagelj and Zaversnik's
    generalised cores): every vertex whose degree or co-degree among the
    vertices left is at most ``floor`` is dropped, in passes until one
    drops nothing, since a drop can doom a vertex a pass already kept.
    Both only fall as vertices go, so the first vertex of H to be dropped
    has fun_H at most ``floor``.  Then ``kept``, which maps y to masks S
    found as supports for y in earlier subsets, is read: an S with
    |S| <= ``floor`` that splits in G[alive] drops w alone when S + {y}
    lies in ``inc`` + {w}.  The answer is None as soon as a dropped
    vertex, or all of such an S + {y}, lies in ``inc``.
    """
    last = alive.bit_count() - 1
    peeled = True
    while peeled:
        peeled = False
        rest = alive
        while rest:
            low = rest & -rest
            rest ^= low
            d = (rows[low.bit_length() - 1] & alive).bit_count()
            if d <= floor or last - d <= floor:
                if low & inc:
                    return None
                alive ^= low
                last -= 1
                peeled = True
    for y, supports in kept.items():
        low = 1 << y
        for s in supports:
            need = s | low
            miss = need & ~inc
            if miss & (miss - 1) or need & ~alive or s.bit_count() > floor:
                continue
            if _splits(rows, y, s, alive):
                if not miss:
                    return None
                alive ^= miss
    return alive


def _min_fun_over(
    g: Graph, among: int, floor: int, kept: dict[int, list[int]]
) -> Optional[tuple[int, int]]:
    """(y, support mask) minimising fun over the vertices of G[among], lowest y
    on ties, or None as soon as some vertex has fun <= ``floor``.

    ``_peel`` rejects G[among] before any search; a search that rejects it
    adds its support to y's list in ``kept``.  At a negative floor nothing
    can be peeled, and the first vertex of degree or co-degree 0 in
    G[among] has fun 0, so it is the arg-min unsearched.  Only those
    vertices have fun 0: a support of size 0 puts all of among - {y} in
    one profile cell, which must lie inside N(y) or miss it.  At a floor
    >= 0, ``_peel`` with inc = among returns None if any vertex has
    degree or co-degree at most ``floor`` in G[among].  So the loop sees
    no vertex of fun 0, and once it holds a support of size 1 no later
    vertex can strictly beat it: the loop stops there, with the same
    (y, support) and the same ``kept`` as a loop that went on.
    """
    rows = g.rows
    if floor >= 0:
        if _peel(rows, kept, among, among, floor) is None:
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
        found = _fun_search(g, y, cap, among)
        if found is not None:
            best, cap = (y, found), found.bit_count()
            if cap <= floor:
                kept.setdefault(y, []).append(found)
                return None
            if cap == 1:
                break
    return best


def min_fun(g: Graph) -> FunResult:
    """Minimum of fun over all vertices, arg-min vertex lowest index on ties."""
    if g.n == 0:
        raise ValueError("min_fun of the empty graph is undefined")
    found = _min_fun_over(g, (1 << g.n) - 1, -1, {})
    if found is None:
        raise RuntimeError("no vertex has a support")
    return _certified(g, *found)


def fun_graph(g: Graph, exact_limit: int = FUN_EXACT_LIMIT) -> FunResult:
    """Exact fun(G): maximum over all nonempty induced subgraphs of min_fun.

    Rejects a negative ``exact_limit``, and graphs above it;
    fun_graph_lower gives a lower bound for those, with no certificate.  graph.hereditary_max_min scores
    each subset H as a vertex mask of G and stops at the first size whose
    bound floor((|H|-1)/2) cannot beat the best value.  fun obeys that
    bound: N(y) and its complement in H are both supports of y, and one of
    them has at most (|H|-1)/2 vertices.

    ``score`` (through ``_min_fun_over``) and ``dead`` both apply
    ``_peel`` with the supports ``kept`` by the sweep's searches.  A
    support is only kept, never changed, so every answer is sound and the
    same subsets improve the best value.

    Every subset ``score`` accepts becomes the best, and up to that point
    ``_min_fun_over`` ran as it would with no floor, so the last support it
    returned is the winner's: it is certified on G restricted to the
    winning subset, not searched again.
    """
    if exact_limit < 0:
        raise ValueError(f"exact_limit must be >= 0, got {exact_limit}")
    if g.n == 0:
        raise ValueError("fun_graph of the empty graph is undefined")
    if g.n > exact_limit:
        raise ValueError(
            f"n={g.n} exceeds exact_limit={exact_limit}; fun_graph_lower "
            "gives a lower bound, with no certificate"
        )

    winner: Optional[tuple[int, int]] = None
    kept: dict[int, list[int]] = {}

    def score(among: int, floor: int) -> Optional[int]:
        nonlocal winner
        found = _min_fun_over(g, among, floor, kept)
        if found is None:
            return None
        winner = found
        return found[1].bit_count()

    def dead(inc: int, cand: int, floor: int) -> int:
        alive = _peel(g.rows, kept, inc, cand, floor)
        return cand if alive is None else cand ^ alive

    _, best_mask = hereditary_max_min(g, score, dead)
    return _certified(g, *winner, best_mask)


def fun_graph_lower(g: Graph, trials: int, seed: int) -> int:
    """Lower bound on fun(G), as a bare int with no certificate: max of
    min_fun over G itself and ``trials`` seeded random induced subgraphs.
    An empty draw scores nothing: ``_min_fun_over`` returns None for it."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = random.Random(seed)
    best = min_fun(g).value
    kept: dict[int, list[int]] = {}
    for _ in range(trials):
        subset = mask_of(v for v in range(g.n) if rng.random() < 0.5)
        found = _min_fun_over(g, subset, best, kept)
        if found is not None:
            best = found[1].bit_count()
    return best
