"""Intersection graphs of 3-uniform hypergraphs and their bounded-size
adjacency-determining witness sets.

For a hyperedge s, a witness set F of other hyperedges "determines" s when
the intersection pattern of any remaining hyperedge with F decides whether
it meets s.  Hypergraphs without thick pairs admit such an F of size at
most 462 around every hyperedge; a thick pair forces one of three local
structures (fly, windmill, broken windmill), each yielding an F of size at
most 128 around a particular hyperedge.
"""
from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass
from typing import Optional

from .families import Hypergraph3, _incidence_graph
from .functionality import is_function_of
from .graph import Graph

THICK_THRESHOLD = 32
COVER_DEGREE_BOUND = 124     # 31 * 4: max degree in the cover case
TWO_VERTEX_OVERLAP_BOUND = 90
NO_THICK_WITNESS_BOUND = 462
THICK_WITNESS_BOUND = 128


@dataclass(frozen=True)
class ThickPair:
    u: int
    v: int
    count: int


@dataclass(frozen=True)
class ThickStructure:
    """s is stored in role order (v1, v2, v3); ``parts`` holds s1..s6 for a
    fly or windmill and s1..s3 for a broken windmill, whose certificate is
    ``apex_degree`` (hyperedges of S minus s containing v1)."""

    kind: str  # "fly" | "windmill" | "broken_windmill"
    s: tuple[int, int, int]
    parts: tuple[tuple[int, int, int], ...]
    apex_degree: Optional[int] = None


@dataclass(frozen=True)
class MatchingOrCover:
    """Outcome of the matching-or-cover dichotomy at a vertex: either three
    hyperedges pairwise meeting exactly at the vertex, or four vertices
    meeting every hyperedge through it."""

    kind: str  # "matching" | "cover"
    hyperedges: tuple[tuple[int, int, int], ...] = ()
    cover: tuple[int, int, int, int] = ()


@dataclass(frozen=True)
class Hyper3Report:
    s_index: int
    s: tuple[int, int, int]
    f_indices: tuple[int, ...]
    bound: int
    thick_case: bool


def intersection_graph(h: Hypergraph3) -> tuple[Graph, tuple[tuple[int, int, int], ...]]:
    """One vertex per hyperedge in input order; adjacency iff the
    hyperedges share a ground-set vertex."""
    if not h.edges:
        raise ValueError("intersection graph of an empty hypergraph is undefined")
    return _incidence_graph(h.n, h.edges), h.edges


def thick_pairs(h: Hypergraph3, threshold: int = THICK_THRESHOLD) -> list[ThickPair]:
    counts: dict[tuple[int, int], int] = {}
    for e in h.edges:
        for u, v in itertools.combinations(sorted(e), 2):
            counts[(u, v)] = counts.get((u, v), 0) + 1
    return [ThickPair(u, v, c) for (u, v), c in sorted(counts.items()) if c >= threshold]


def _greedy_matching(links: list[tuple[tuple[int, int], int]]) -> list[tuple[tuple[int, int], int]]:
    """Maximal matching over vertex pairs, lowest-pair-first."""
    matched: set[int] = set()
    out = []
    for pair, idx in sorted(links):
        if matched.isdisjoint(pair):
            matched.update(pair)
            out.append((pair, idx))
    return out


def matching_or_cover(h: Hypergraph3, v: int) -> MatchingOrCover:
    """Either 3 hyperedges pairwise intersecting exactly at v, or at most 4
    vertices (padded to exactly 4) covering every hyperedge through v."""
    links = []
    for i, e in enumerate(h.edges):
        if v in e:
            a, b = sorted(set(e) - {v})
            links.append(((a, b), i))
    matching = _greedy_matching(links)
    if len(matching) >= 3:
        return MatchingOrCover("matching", tuple(h.edges[idx] for _, idx in matching[:3]))
    covered = sorted({u for pair, _ in matching for u in pair})
    pad = (u for u in range(h.n) if u not in covered and u != v)
    while len(covered) < 4:
        covered.append(next(pad))
    return MatchingOrCover("cover", cover=tuple(covered))


Host = tuple[Graph, tuple[tuple[int, int, int], ...]]


def _prepared(h: Hypergraph3, host: Optional[Host]) -> Host:
    """``host``, the ``intersection_graph(h)`` pair a caller built, checked
    against h; built here when None."""
    if host is None:
        return intersection_graph(h)
    if host[0].n != len(h.edges):
        raise ValueError(f"host has {host[0].n} vertices for {len(h.edges)} hyperedges")
    return host


def _verify_determining(h: Hypergraph3, s_idx: int, f_indices: set[int],
                        host: Optional[Host] = None) -> bool:
    ig, _ = _prepared(h, host)
    return is_function_of(ig, s_idx, f_indices) is not None


def witness_no_thick(h: Hypergraph3, s, threshold: int = THICK_THRESHOLD, *,
                     host: Optional[Host] = None) -> tuple[int, ...]:
    """Determining set F around hyperedge s, |F| <= 462, for hypergraphs
    without thick pairs.  Verified by replay on ``host`` (the
    ``intersection_graph(h)`` pair, built when None) before returning."""
    if thick_pairs(h, threshold):
        raise ValueError("hypergraph has a thick pair; use witness_thick")
    return _witness_no_thick(h, s, host)


def _witness_no_thick(h: Hypergraph3, s, host: Optional[Host]) -> tuple[int, ...]:
    """witness_no_thick for a hypergraph already known to have no thick pair."""
    edges = h.edges
    s_key = tuple(sorted(s))
    s_idx = edges.index(s_key)
    s_set = set(s_key)

    f: set[int] = {
        i for i, e in enumerate(edges) if i != s_idx and len(set(e) & s_set) == 2
    }
    if len(f) > TWO_VERTEX_OVERLAP_BOUND:
        warnings.warn(
            f"{len(f)} hyperedges meet s in 2 vertices, above the nominal "
            f"bound {TWO_VERTEX_OVERLAP_BOUND}", stacklevel=3
        )
    rest = [i for i in range(len(edges)) if i != s_idx and i not in f]

    for v in s_key:
        links = []
        for i in rest:
            if v in edges[i]:
                a, b = sorted(set(edges[i]) - {v})
                links.append(((a, b), i))
        matching = _greedy_matching(links)
        if len(matching) >= 3:
            tri = matching[:3]
            f.update(idx for _, idx in tri)
            wings = [set(pair) for pair, _ in tri]
            for j, e in enumerate(edges):
                if j == s_idx:
                    continue
                es = set(e)
                if all(len(es & w) == 1 for w in wings):
                    f.add(j)
        else:
            covered = {u for pair, _ in matching for u in pair}
            for j, e in enumerate(edges):
                if j == s_idx:
                    continue
                if v in e and covered & set(e):
                    f.add(j)

    if not _verify_determining(h, s_idx, f, host):
        raise RuntimeError("no-thick-pair witness failed verification")
    return tuple(sorted(f))


def _find_disjoint_links(links: list[tuple[int, int]], k: int) -> Optional[list[int]]:
    """Indices of k pairwise-disjoint pairs, lexicographically first, or None."""
    chosen: list[int] = []

    def rec(start: int, used: set[int]) -> bool:
        if len(chosen) == k:
            return True
        for i in range(start, len(links)):
            pair = links[i]
            if used.isdisjoint(pair):
                chosen.append(i)
                if rec(i + 1, used | set(pair)):
                    return True
                chosen.pop()
        return False

    return chosen if rec(0, set()) else None


def _verify_structure(h: Hypergraph3, st: ThickStructure) -> bool:
    edge_set = set(h.edges)
    v1, v2, v3 = st.s
    s_key = tuple(sorted(st.s))
    if s_key not in edge_set or len({v1, v2, v3}) != 3:
        return False
    if any(p not in edge_set or p == s_key for p in st.parts):
        return False
    if len(set(st.parts)) != len(st.parts):
        return False
    if st.kind == "fly":
        first, second = st.parts[:3], st.parts[3:]
        return all(set(p) & set(s_key) == {v1, v2} for p in first) and all(
            set(p) & set(s_key) == {v1, v3} for p in second
        )
    if st.kind == "windmill":
        first, second = st.parts[:3], st.parts[3:]
        if not all(set(p) & set(s_key) == {v2, v3} for p in first):
            return False
        if not all(set(p) & set(s_key) == {v1} for p in second):
            return False
        return all(
            set(a) & set(b) == {v1} for a, b in itertools.combinations(second, 2)
        )
    if st.kind == "broken_windmill":
        if not all(set(p) & set(s_key) == {v2, v3} for p in st.parts):
            return False
        degree = sum(1 for e in h.edges if v1 in e and e != s_key)
        return degree == st.apex_degree and degree <= COVER_DEGREE_BOUND
    return False


def find_thick_structure(h: Hypergraph3, threshold: int = THICK_THRESHOLD) -> ThickStructure:
    """Locate a verified fly, windmill or broken windmill.

    The counting argument behind the existence proof is used only to guide
    the scan; whatever is returned has been re-checked against the
    structure definitions.
    """
    thick = thick_pairs(h, threshold)
    if not thick:
        raise ValueError("hypergraph has no thick pair")
    return _find_thick_structure(h, thick)


def _find_thick_structure(h: Hypergraph3, thick: list[ThickPair]) -> ThickStructure:
    """find_thick_structure given h's non-empty ``thick_pairs``."""
    thick_set = {frozenset((p.u, p.v)) for p in thick}
    edges = h.edges
    edge_set = set(edges)

    def with_pair(pair: frozenset, exclude_third) -> list[tuple[int, int, int]]:
        out = []
        for e in edges:
            if pair <= set(e):
                third = next(iter(set(e) - pair))
                if third not in exclude_third:
                    out.append(e)
        return out

    # fly: a vertex forming hyperedges with 4 thick pairs through a common hub
    for v in range(h.n):
        partners: dict[int, list[int]] = {}
        for pair in thick_set:
            if v not in pair and tuple(sorted({v} | pair)) in edge_set:
                a, b = sorted(pair)
                partners.setdefault(a, []).append(b)
                partners.setdefault(b, []).append(a)
        for hub in sorted(partners):
            mates = sorted(partners[hub])
            if len(mates) < 4:
                continue
            z, *rest = mates
            spokes = [tuple(sorted({v, hub, u})) for u in rest[:3]]
            blades = with_pair(frozenset((hub, z)), exclude_third={v})
            if len(blades) >= 3:
                st = ThickStructure("fly", (hub, v, z), tuple(spokes + blades[:3]))
                if _verify_structure(h, st):
                    return st

    # every hyperedge sitting on a thick pair, with the third vertex as apex
    candidates = []
    for i, e in enumerate(edges):
        for a, b in itertools.combinations(sorted(e), 2):
            if frozenset((a, b)) in thick_set:
                apex = next(iter(set(e) - {a, b}))
                candidates.append((i, a, b, apex))

    # windmill: a 3-matching at the apex avoiding the thick pair
    for i, a, b, apex in candidates:
        links = []
        for j, e in enumerate(edges):
            if j != i and apex in e:
                pair = tuple(sorted(set(e) - {apex}))
                if a not in pair and b not in pair:
                    links.append(pair)
        links = sorted(set(links))
        found = _find_disjoint_links(links, 3)
        if found is None:
            continue
        base = with_pair(frozenset((a, b)), exclude_third={apex})
        if len(base) < 3:
            continue
        vanes = [tuple(sorted({apex, *links[j]})) for j in found]
        st = ThickStructure("windmill", (apex, a, b), tuple(base[:3] + vanes))
        if _verify_structure(h, st):
            return st

    # broken windmill: the apex lies in few hyperedges
    for i, a, b, apex in candidates:
        degree = sum(1 for j, e in enumerate(edges) if j != i and apex in e)
        if degree > COVER_DEGREE_BOUND:
            continue
        base = with_pair(frozenset((a, b)), exclude_third={apex})
        if len(base) < 3:
            continue
        st = ThickStructure(
            "broken_windmill", (apex, a, b), tuple(base[:3]), apex_degree=degree
        )
        if _verify_structure(h, st):
            return st

    raise RuntimeError("no verifiable thick structure found")


def witness_thick(
    h: Hypergraph3, threshold: int = THICK_THRESHOLD, *, host: Optional[Host] = None
) -> tuple[tuple[int, int, int], tuple[int, ...]]:
    """(s, F) with |F| <= 128 determining s, in a hypergraph with a thick
    pair.  Verified by replay on ``host`` (the ``intersection_graph(h)``
    pair, built when None) before returning."""
    return _witness_thick(h, find_thick_structure(h, threshold), host)


def _witness_thick(
    h: Hypergraph3, st: ThickStructure, host: Optional[Host]
) -> tuple[tuple[int, int, int], tuple[int, ...]]:
    """witness_thick around the thick structure ``st`` already found in h."""
    edges = h.edges
    index = {e: i for i, e in enumerate(edges)}
    s_key = tuple(sorted(st.s))
    v1, v2, v3 = st.s
    f: set[int] = set()

    def add_if_present(vertices) -> None:
        key = tuple(sorted(vertices))
        if len(set(key)) == 3 and key in index and key != s_key:
            f.add(index[key])

    if st.kind == "fly":
        f.update(index[p] for p in st.parts)
        first, second = st.parts[:3], st.parts[3:]
        add_if_present(set().union(*map(set, first)) - {v1, v2})
        add_if_present(set().union(*map(set, second)) - {v1, v3})
    elif st.kind == "windmill":
        f.update(index[p] for p in st.parts)
        base, vanes = st.parts[:3], st.parts[3:]
        add_if_present(set().union(*map(set, base)) - {v2, v3})
        wings = [sorted(set(p) - {v1}) for p in vanes]
        for combo in itertools.product(*wings):
            add_if_present(combo)
    else:
        f.update(i for i, e in enumerate(edges) if v1 in e and e != s_key)
        f.update(index[p] for p in st.parts)
        add_if_present(set().union(*map(set, st.parts)) - {v2, v3})

    if not _verify_determining(h, index[s_key], f, host):
        raise RuntimeError("thick-pair witness failed verification")
    return st.s, tuple(sorted(f))


def hyper3_fun_bound(h: Hypergraph3, threshold: int = THICK_THRESHOLD, *,
                     host: Optional[Host] = None) -> Hyper3Report:
    """Certified functionality bound for one vertex of the intersection
    graph: the no-thick-pair construction around the first hyperedge, or
    the structural construction when a thick pair exists.  The witness is
    verified on ``host`` (the ``intersection_graph(h)`` pair, built when
    None)."""
    if not h.edges:
        raise ValueError("need at least one hyperedge")
    host = _prepared(h, host)
    thick = thick_pairs(h, threshold)
    if thick:
        s, f = _witness_thick(h, _find_thick_structure(h, thick), host)
        s_idx = h.edges.index(tuple(sorted(s)))
        return Hyper3Report(s_idx, s, f, len(f), True)
    s = h.edges[0]
    f = _witness_no_thick(h, s, host)
    return Hyper3Report(0, s, f, len(f), False)


# --- fixtures ---------------------------------------------------------------
#
# Random hypergraphs essentially never contain thick pairs at desk scale, so
# the three structures ship as constructed instances.


def fixture_fly() -> Hypergraph3:
    """Four thick pairs through a common hub, all forming hyperedges with
    one further vertex."""
    hub, v = 0, 1
    mates = [2, 3, 4, 5]
    edges = []
    next_tail = 6
    for mate in mates:
        edges.append((v, hub, mate))
        for _ in range(THICK_THRESHOLD - 1):
            edges.append((hub, mate, next_tail))
            next_tail += 1
    return Hypergraph3.from_edges(next_tail, edges)


def fixture_windmill() -> Hypergraph3:
    """One thick pair plus three hyperedges pairwise meeting only at the
    apex of the pair's hyperedge."""
    apex, a, b = 0, 1, 2
    edges = [(apex, a, b)]
    next_tail = 3
    for _ in range(THICK_THRESHOLD - 1):
        edges.append((a, b, next_tail))
        next_tail += 1
    for _ in range(3):
        edges.append((apex, next_tail, next_tail + 1))
        next_tail += 2
    return Hypergraph3.from_edges(next_tail, edges)


def fixture_broken_windmill() -> Hypergraph3:
    """One thick pair whose hyperedge has a low-degree apex with no
    3-matching (all apex edges share one vertex)."""
    apex, a, b = 0, 1, 2
    edges = [(apex, a, b)]
    next_tail = 3
    for _ in range(THICK_THRESHOLD - 1):
        edges.append((a, b, next_tail))
        next_tail += 1
    shared = next_tail
    next_tail += 1
    for _ in range(3):
        edges.append((apex, shared, next_tail))
        next_tail += 1
    return Hypergraph3.from_edges(next_tail, edges)
