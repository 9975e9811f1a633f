"""Companion parameters: degeneracy and the VC-dimension of the closed
neighbourhood set system."""
from __future__ import annotations

import heapq
from dataclasses import dataclass

from .graph import Graph


@dataclass(frozen=True)
class DegeneracyResult:
    value: int
    order: tuple[int, ...]


@dataclass(frozen=True)
class VcResult:
    value: int
    shattered: frozenset[int]


def degeneracy(g: Graph) -> DegeneracyResult:
    """Exact degeneracy via repeated minimum-degree removal.

    Priority queue over (current degree, vertex) with lazy decrease, so
    ties always resolve to the lowest index.  The elimination order
    certifies the value: each removed vertex has at most ``value``
    not-yet-removed neighbours.
    """
    if g.n == 0:
        raise ValueError("degeneracy of the empty graph is undefined")
    deg = [g.degree(v) for v in range(g.n)]
    heap = [(deg[v], v) for v in range(g.n)]
    heapq.heapify(heap)
    removed = 0
    order = []
    value = 0
    for _ in range(g.n):
        while True:
            d, v = heapq.heappop(heap)
            if not removed >> v & 1 and deg[v] == d:
                break
        value = max(value, d)
        removed |= 1 << v
        order.append(v)
        rest = g.rows[v] & ~removed
        while rest:
            low = rest & -rest
            u = low.bit_length() - 1
            rest ^= low
            deg[u] -= 1
            heapq.heappush(heap, (deg[u], u))
    return DegeneracyResult(value, tuple(order))


def vc_dimension(g: Graph) -> VcResult:
    """Exact VC-dimension of (V, {N[v]}) with a maximum shattered set.

    Shattered sets are closed under subsets, so one depth-first search
    grows them in lexicographic order.  A shattered set C keeps its 2^|C|
    trace cells, the classes of V by membership of N[c] for c in C, as
    vertex masks.  As v ∈ N[c] iff c ∈ N[v], C ∪ {x} is shattered iff N[x]
    meets and misses part of every cell.  Cells only get finer, so a failed
    candidate is not passed down; d more members split each cell into 2^d
    parts, so a node is cut when |C| + min(floor(log2 smallest cell),
    candidates left) cannot beat the best.  Only a larger set replaces the
    best, so the lexicographically smallest maximum set is returned.
    """
    if g.n == 0:
        raise ValueError("vc_dimension of the empty graph is undefined")
    hoods = [g.closed_neighborhood_mask(v) for v in range(g.n)]
    best: tuple[int, ...] = ()

    def grow(chosen: tuple[int, ...], cells: list[int], cands: list[int]) -> None:
        nonlocal best
        if len(chosen) > len(best):
            best = chosen
        room = min(c.bit_count() for c in cells).bit_length() - 1
        if len(chosen) + room <= len(best):
            return
        cands = [x for x in cands if all(0 != c & hoods[x] != c for c in cells)]
        for i, x in enumerate(cands):
            if len(chosen) + min(room, len(cands) - i) <= len(best):
                return
            h = hoods[x]
            grow(chosen + (x,), [part for c in cells for part in (c & h, c & ~h)], cands[i + 1:])

    grow((), [(1 << g.n) - 1], list(range(g.n)))
    return VcResult(len(best), frozenset(best))
