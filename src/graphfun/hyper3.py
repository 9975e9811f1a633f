"""Intersection graphs of 3-uniform hypergraphs and their bounded-size
adjacency-determining witness sets.

For a hyperedge s, a witness set F of other hyperedges "determines" s when
the intersection pattern of any remaining hyperedge with F decides whether
it meets s.  Hypergraphs without thick pairs admit such an F of size at
most 462 around every hyperedge; a thick pair forces one of three local
structures (fly, windmill, broken windmill), each yielding an F of size at
most 128 around a particular hyperedge.

Every query for the hyperedges that contain or meet given vertices is a
few AND / XOR / popcount operations on ``Hypergraph3.incidence``, the
mask of hyperedge indices at each vertex; the hyperedge on three
distinct vertices is the single bit of their masks' AND, which is how
``witness_thick`` finds hyperedges.  Vertex-set tests remain in two
places: ``_verify_structure``, the independent check of a found
structure, and ``find_thick_structure``'s set of thick pairs.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from .families import Hypergraph3
from .functionality import is_function_of
from .graph import Graph, _bits

THICK_THRESHOLD = 32
COVER_DEGREE_BOUND = 124     # 31 * 4: max degree in the cover case
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
    (fewer when the ground set has fewer than five) meeting every
    hyperedge through it."""

    kind: str  # "matching" | "cover"
    hyperedges: tuple[tuple[int, int, int], ...] = ()
    cover: tuple[int, ...] = ()


@dataclass(frozen=True)
class Hyper3Report:
    s_index: int
    s: tuple[int, int, int]
    f_indices: tuple[int, ...]
    bound: int
    thick_case: bool

    def verify(self, h: Hypergraph3) -> bool:
        """Replay on ``h.graph``: hyperedge ``s_index`` is a function of ``f_indices``."""
        return is_function_of(h.graph, self.s_index, self.f_indices) is not None


def intersection_graph(h: Hypergraph3) -> tuple[Graph, tuple[tuple[int, int, int], ...]]:
    """One vertex per hyperedge in input order; adjacency iff the
    hyperedges share a ground-set vertex."""
    if not h.edges:
        raise ValueError("intersection graph of an empty hypergraph is undefined")
    return h.graph, h.edges


def thick_pairs(h: Hypergraph3) -> list[ThickPair]:
    """Vertex pairs lying together in at least THICK_THRESHOLD hyperedges.
    Both vertices of such a pair lie in that many hyperedges, so only pairs
    of those vertices are counted."""
    inc = h.incidence
    heavy = [v for v in range(h.n) if inc[v].bit_count() >= THICK_THRESHOLD]
    counts = ((u, v, (inc[u] & inc[v]).bit_count())
              for u, v in itertools.combinations(heavy, 2))
    return [ThickPair(u, v, c) for u, v, c in counts if c >= THICK_THRESHOLD]


def _links(h: Hypergraph3, v: int, mask: int) -> list[tuple[tuple[int, int], int]]:
    """(pair, i) for each hyperedge i in ``mask``, all of them through v;
    the pair is the hyperedge minus v, sorted."""
    out = []
    for i in _bits(mask):
        a, b = (u for u in h.edges[i] if u != v)
        out.append(((a, b), i))
    return out


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
    vertices covering every hyperedge through v: the matched ones, padded
    with the lowest other ground vertices to 4, or to all of them when the
    ground set has fewer than 5."""
    if not 0 <= v < h.n:
        raise ValueError(f"vertex {v} out of range 0..{h.n - 1}")
    matching = _greedy_matching(_links(h, v, h.incidence[v]))
    if len(matching) >= 3:
        return MatchingOrCover("matching", tuple(h.edges[idx] for _, idx in matching[:3]))
    covered = sorted({u for pair, _ in matching for u in pair})
    pad = (u for u in range(h.n) if u not in covered and u != v)
    covered += itertools.islice(pad, 4 - len(covered))
    return MatchingOrCover("cover", cover=tuple(covered))


def witness_no_thick(h: Hypergraph3, s) -> tuple[int, ...]:
    """Determining set F around hyperedge s, |F| <= 462, for hypergraphs
    without thick pairs.  Verified by replay on ``h.graph`` before
    returning.  With no thick pair, each pair in s lies in at most 31
    hyperedges, s included, so at most 3 * 30 = 90 others meet s in two
    vertices."""
    if thick_pairs(h):
        raise ValueError("hypergraph has a thick pair; use witness_thick")
    # F is a mask of hyperedge indices throughout
    edges, inc = h.edges, h.incidence
    s_key = tuple(sorted(s))
    if s_key not in edges:
        raise ValueError(f"{tuple(s)} is not a hyperedge")
    s_idx = edges.index(s_key)
    not_s = ~(1 << s_idx)
    a, b, c = (inc[v] for v in s_key)

    f = ((a & b) | (a & c) | (b & c)) & not_s  # meets s in two vertices
    rest = ((1 << len(edges)) - 1) & ~f & not_s

    for v in s_key:
        matching = _greedy_matching(_links(h, v, inc[v] & rest))
        if len(matching) >= 3:
            one_per_wing = -1  # meets each wing in exactly one vertex
            for (x, y), idx in matching[:3]:
                f |= 1 << idx
                one_per_wing &= inc[x] ^ inc[y]
            f |= one_per_wing & not_s
        else:
            covered = 0
            for (x, y), _ in matching:
                covered |= inc[x] | inc[y]
            f |= inc[v] & covered & not_s

    f_indices = tuple(_bits(f))
    if is_function_of(h.graph, s_idx, f_indices) is None:
        raise RuntimeError("no-thick-pair witness failed verification")
    return f_indices


def _three_disjoint_links(links: list[tuple[int, int]]) -> Optional[tuple[int, int, int]]:
    """Indices i < j < l of three pairwise-disjoint pairs, lexicographically
    first, or None."""
    for i, first in enumerate(links):
        for j in range(i + 1, len(links)):
            if not set(first).isdisjoint(links[j]):
                continue
            used = {*first, *links[j]}
            for l in range(j + 1, len(links)):
                if used.isdisjoint(links[l]):
                    return i, j, l
    return None


def _verify_structure(h: Hypergraph3, st: ThickStructure) -> bool:
    """Whether ``st`` is a structure of its ``kind`` in ``h``.  s must be a
    hyperedge, so its three vertices are distinct."""
    edge_set = set(h.edges)
    v1, v2, v3 = st.s
    s_key = tuple(sorted(st.s))
    if s_key not in edge_set:
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


def find_thick_structure(h: Hypergraph3) -> ThickStructure:
    """Locate a verified fly, windmill or broken windmill.

    The counting argument behind the existence proof is used only to guide
    the scan; whatever is returned has been re-checked against the
    structure definitions.  A windmill or broken windmill sits on a thick
    pair (a, b), which lies in at least THICK_THRESHOLD = 32 hyperedges;
    only one of them holds the apex, so its base ``with_pair(a, b, apex)``
    has at least 31 hyperedges to take three from.  A fly's hub and its
    mate z form a thick pair too, so its blades ``with_pair(hub, z, v)``
    number at least 31 as well.  Only ``_verify_structure`` applies
    COVER_DEGREE_BOUND to a broken windmill's apex; a candidate it
    rejects is passed over, as any other.
    """
    thick = thick_pairs(h)
    if not thick:
        raise ValueError("hypergraph has no thick pair")
    thick_set = {(p.u, p.v) for p in thick}
    edges, inc = h.edges, h.incidence

    def with_pair(a: int, b: int, x: int) -> list[tuple[int, int, int]]:
        """Hyperedges through a and b but not x, in input order."""
        return [edges[i] for i in _bits(inc[a] & inc[b] & ~inc[x])]

    # fly: a vertex forming hyperedges with 4 thick pairs through a common hub
    for v in range(h.n):
        partners: dict[int, list[int]] = {}
        for a, b in thick_set:
            if v != a and v != b and inc[v] & inc[a] & inc[b]:
                partners.setdefault(a, []).append(b)
                partners.setdefault(b, []).append(a)
        for hub in sorted(partners):
            mates = sorted(partners[hub])
            if len(mates) < 4:
                continue
            z, *rest = mates
            spokes = [tuple(sorted({v, hub, u})) for u in rest[:3]]
            blades = with_pair(hub, z, v)
            st = ThickStructure("fly", (hub, v, z), tuple(spokes + blades[:3]))
            if _verify_structure(h, st):
                return st

    # every hyperedge sitting on a thick pair, with the third vertex as apex
    candidates = []
    for i, e in enumerate(edges):
        for a, b in itertools.combinations(e, 2):
            if (a, b) in thick_set:
                apex = next(iter(set(e) - {a, b}))
                candidates.append((i, a, b, apex))

    # windmill: a 3-matching at the apex avoiding the thick pair
    for i, a, b, apex in candidates:
        links = sorted(pair for pair, _ in _links(h, apex, inc[apex] & ~inc[a] & ~inc[b]))
        found = _three_disjoint_links(links)
        if found is None:
            continue
        base = with_pair(a, b, apex)
        vanes = [tuple(sorted({apex, *links[j]})) for j in found]
        st = ThickStructure("windmill", (apex, a, b), tuple(base[:3] + vanes))
        if _verify_structure(h, st):
            return st

    # broken windmill: the apex lies in few hyperedges besides hyperedge i
    for i, a, b, apex in candidates:
        base = with_pair(a, b, apex)
        st = ThickStructure("broken_windmill", (apex, a, b), tuple(base[:3]),
                            apex_degree=inc[apex].bit_count() - 1)
        if _verify_structure(h, st):
            return st

    raise RuntimeError("no verifiable thick structure found")


def witness_thick(h: Hypergraph3) -> tuple[tuple[int, int, int], tuple[int, ...]]:
    """(s, F) with |F| <= 128 determining s, in a hypergraph with a thick
    pair.  Verified by replay on ``h.graph`` before returning.

    F is a mask of hyperedge indices.  The structure has passed
    ``_verify_structure``, so each triple added besides its parts is three
    distinct vertices outside s, and the hyperedge on it is the AND of
    their masks."""
    st = find_thick_structure(h)
    inc = h.incidence
    v1, v2, v3 = st.s
    parts, f = st.parts, 0
    if st.kind == "fly":
        triples = [*parts, set().union(*parts[:3]) - {v1, v2},
                   set().union(*parts[3:]) - {v1, v3}]
    elif st.kind == "windmill":
        wings = [sorted(set(p) - {v1}) for p in parts[3:]]
        triples = [*parts, set().union(*parts[:3]) - {v2, v3}, *itertools.product(*wings)]
    else:
        f = inc[v1]
        triples = [*parts, set().union(*parts) - {v2, v3}]
    for a, b, c in triples:
        f |= inc[a] & inc[b] & inc[c]
    s_bit = inc[v1] & inc[v2] & inc[v3]
    f_indices = tuple(_bits(f & ~s_bit))
    if is_function_of(h.graph, s_bit.bit_length() - 1, f_indices) is None:
        raise RuntimeError("thick-pair witness failed verification")
    return st.s, f_indices


def hyper3_fun_bound(h: Hypergraph3) -> Hyper3Report:
    """Certified functionality bound for one vertex of the intersection
    graph: the no-thick-pair construction around the first hyperedge, or
    the structural construction when a thick pair exists.  The witness is
    verified on ``h.graph``."""
    if not h.edges:
        raise ValueError("need at least one hyperedge")
    if thick_pairs(h):
        s, f = witness_thick(h)
        s_idx = h.edges.index(tuple(sorted(s)))
        return Hyper3Report(s_idx, s, f, len(f), True)
    s = h.edges[0]
    f = witness_no_thick(h, s)
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
