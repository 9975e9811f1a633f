"""Deterministic generators for every graph family under study, plus the
seeded random instance generators used by the verification harness.

File formats:
  permutation  - one line of space-separated values of pi(1..n)
  intervals    - one rational left endpoint per line: an integer, ``p/q``
                 or a decimal, with no exponent
  hypergraph   - header ``n m`` followed by m lines ``a b c``

All three read through ``graph.data_lines``: blank lines and ``#``
comment lines are ignored, and each data line must be a
``graph.plain_line`` (the intervals may hold a ``+`` sign).
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

from .graph import Graph, check_vertex_count, data_lines, plain_line, read_header


@dataclass(frozen=True)
class Permutation:
    """One-line permutation of 1..n."""

    values: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.values)
        if set(map(type, self.values)) - {int}:
            bad = next(v for v in self.values if type(v) is not int)
            raise ValueError(f"entry {bad!r} is not an int")
        if sorted(self.values) != list(range(1, n + 1)):
            raise ValueError("not a permutation of 1..n")

    @property
    def n(self) -> int:
        return len(self.values)

    def position_of(self) -> dict[int, int]:
        """value -> 1-based position; built once per permutation, and every
        call returns the same mapping."""
        return self._positions

    @cached_property
    def _positions(self) -> dict[int, int]:
        return {v: i for i, v in enumerate(self.values, start=1)}

    @cached_property
    def graph(self) -> Graph:
        """``permutation_graph(self)``, built on first use."""
        return permutation_graph(self)


@dataclass(frozen=True)
class IntervalSet:
    """Left endpoints of unit-length intervals [l, l+1], exact rationals.

    All 2n endpoints must be pairwise distinct; the correctness arguments
    about consecutive-pair symmetric differences rely on it.
    """

    lefts: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        endpoints: dict[Fraction, str] = {}
        for i, l in enumerate(self.lefts):
            for point, tag in ((l, f"a{i}"), (l + 1, f"b{i}")):
                if point in endpoints:
                    raise ValueError(
                        f"duplicate endpoint {point} ({endpoints[point]} and {tag})"
                    )
                endpoints[point] = tag

    @property
    def n(self) -> int:
        return len(self.lefts)

    @cached_property
    def graph(self) -> Graph:
        """``unit_interval_graph(self)``, built on first use."""
        return unit_interval_graph(self)


@dataclass(frozen=True)
class Hypergraph3:
    """3-uniform hypergraph on ground set 0..n-1.  Each hyperedge lists its
    vertices in increasing order (``from_edges`` sorts them); hyperedge
    order matters (it fixes the vertex order of the intersection graph)."""

    n: int
    edges: tuple[tuple[int, int, int], ...]

    def __post_init__(self) -> None:
        check_vertex_count(self.n)
        if self.n < 0:
            raise ValueError(f"vertex count {self.n} is negative")
        seen = set()
        for e in self.edges:
            if len(e) != 3 or len(set(e)) != 3:
                raise ValueError(f"hyperedge {e} must have 3 distinct vertices")
            if set(map(type, e)) - {int}:
                raise ValueError(f"hyperedge {e} has a vertex that is not an int")
            if any(v < 0 or v >= self.n for v in e):
                raise ValueError(f"hyperedge {e} out of range")
            if not e[0] < e[1] < e[2]:
                raise ValueError(f"hyperedge {e} is not in increasing order; "
                                 "Hypergraph3.from_edges sorts each hyperedge")
            if e in seen:
                raise ValueError(f"duplicate hyperedge {e}")
            seen.add(e)

    @staticmethod
    def from_edges(n: int, edges: Iterable[Sequence[int]]) -> "Hypergraph3":
        return Hypergraph3(n, tuple(tuple(sorted(e)) for e in edges))

    @cached_property
    def incidence(self) -> tuple[int, ...]:
        """``incidence_masks`` of the hyperedges, built on first use."""
        return tuple(incidence_masks(self.n, self.edges))

    @cached_property
    def graph(self) -> Graph:
        """The intersection graph: one vertex per hyperedge in input order,
        adjacent iff the hyperedges share a ground-set vertex."""
        return _incidence_graph(self.incidence, self.edges)


@dataclass(frozen=True)
class LineGraph:
    """L(G) of the graph ``root``, prepared once: one vertex per edge of G
    in lexicographic order, adjacent iff the edges share an endpoint.

    ``names``, the edges of G, and ``incidence``, their ``incidence_masks``
    on G's vertices, are built from ``root`` at construction; ``row(e)``
    reads vertex e's row of L(G) from them, so a query touches two masks
    and no m-vertex ``Graph`` is built.  ``graph`` is L(G) itself, built on
    first use.  Equality and hashing read only ``root``."""

    root: Graph
    names: tuple[tuple[int, int], ...] = field(init=False, repr=False, compare=False)
    incidence: tuple[int, ...] = field(init=False, repr=False, compare=False)
    n: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        names = tuple(self.root.edges())
        if not names:
            raise ValueError("line graph of an edgeless graph is undefined")
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "incidence", tuple(incidence_masks(self.root.n, names)))
        object.__setattr__(self, "n", len(names))

    def row(self, e: int) -> int:
        """The edges other than e that share an endpoint with edge e, as a
        mask of edge indices; a ValueError names an e outside 0..n-1."""
        if not 0 <= e < self.n:
            raise ValueError(f"vertex {e} out of range for n={self.n}")
        p, q = self.names[e]
        return (self.incidence[p] | self.incidence[q]) & ~(1 << e)

    @cached_property
    def graph(self) -> Graph:
        """L(G) as a ``Graph``, built from the incidence table on first use."""
        return _incidence_graph(self.incidence, self.names)


# --- deterministic constructions -------------------------------------------


def hypercube(n: int) -> Graph:
    """Q_n: vertices are n-bit values, edges at Hamming distance 1.

    Each row is a 2**n-bit int, so the rows hold about 5/6 * 4**n bits
    (427 MiB at n = 16, 107 GiB at n = 20); n stops at 14, built in ~3 s."""
    if not 1 <= n <= 14:
        raise ValueError("dimension must be in 1..14")
    size = 1 << n
    rows = []
    for v in range(size):
        row = 0
        for b in range(n):
            row |= 1 << (v ^ (1 << b))
        rows.append(row)
    return Graph(size, tuple(rows))


def permutation_graph(p: Permutation) -> Graph:
    """Vertices are the values 1..n stored 0-based; values a, b adjacent
    iff the pair is an inversion of the permutation.

    One left-to-right sweep: value a is adjacent to the larger values seen
    to its left and to the smaller values not seen yet, which lie to its
    right."""
    rows = [0] * p.n
    seen = 0
    for a in p.values:
        rows[a - 1] = (seen >> a << a) | (((1 << (a - 1)) - 1) & ~seen)
        seen |= 1 << (a - 1)
    return Graph(p.n, tuple(rows))


def unit_interval_graph(iv: IntervalSet) -> Graph:
    """Intersection graph of the unit intervals, vertices ordered by left
    endpoint.  Exact rational comparisons throughout; the lefts are sorted,
    so each scan stops at the first interval that starts too far right."""
    lefts = sorted(iv.lefts)
    rows = [0] * iv.n
    for i in range(iv.n):
        for j in range(i + 1, iv.n):
            if lefts[j] - lefts[i] >= 1:
                break
            rows[i] |= 1 << j
            rows[j] |= 1 << i
    return Graph(iv.n, tuple(rows))


def incidence_masks(n: int, edges: Sequence[tuple[int, ...]]) -> list[int]:
    """``inc[v]`` is the mask of the indices of the (hyper)edges at vertex v
    of the ground set 0..n-1."""
    inc = [0] * n
    bit = 1
    for e in edges:
        for v in e:
            inc[v] |= bit
        bit <<= 1
    return inc


def _incidence_graph(inc: Sequence[int], edges: Sequence[tuple[int, ...]]) -> Graph:
    """One vertex per (hyper)edge, adjacent iff the edges share a vertex,
    given the edges' ``incidence_masks``: the row of an edge is the OR of
    its vertices' incidence masks minus itself."""
    rows = []
    bit = 1
    for e in edges:
        row = 0
        for v in e:
            row |= inc[v]
        rows.append(row & ~bit)
        bit <<= 1
    return Graph(len(edges), tuple(rows))


def line_graph(g: Graph) -> LineGraph:
    """L(G), prepared for row queries: ``LineGraph(g)``.  Its ``names`` map
    the vertices of L(G) back to the edges of G; ``.graph`` builds L(G)."""
    return LineGraph(g)


def shattering_graph(n: int) -> Graph:
    """Bipartite graph with parts A (n vertices) and B (2^n vertices);
    B-vertex n+c is adjacent to the A-members whose bit is set in c.
    Its closed-neighbourhood VC-dimension is exactly n."""
    if not 1 <= n <= 12:
        raise ValueError("part size must be in 1..12")
    total = n + (1 << n)
    rows = [0] * total
    for c in range(1 << n):
        v = n + c
        for a in range(n):
            if c >> a & 1:
                rows[v] |= 1 << a
                rows[a] |= 1 << v
    return Graph(total, tuple(rows))


def sd_construction(t: int) -> Permutation:
    """Sheared integer grid giving a permutation graph with every pairwise
    symmetric difference at least t.

    Uses integer-scaled coordinates X(i,j) = i(t+1) - j, Y(i,j) = i + j(t+1)
    for 0 <= i,j <= t; ranks are invariant under the positive scaling, so
    the arithmetic stays exact.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    pts = [(i * (t + 1) - j, i + j * (t + 1)) for i in range(t + 1) for j in range(t + 1)]
    ys = sorted(y for _, y in pts)
    rank = {y: r for r, y in enumerate(ys, start=1)}
    pts.sort()
    return Permutation(tuple(rank[y] for _, y in pts))


def distance_hereditary(script: Sequence[tuple[str, int]]) -> Graph:
    """Build a graph from a single vertex by the given steps, each one of
    ('pendant', u), ('true_twin', u) or ('false_twin', u)."""
    rows = [0]
    for step, u in script:
        if not 0 <= u < len(rows):
            raise ValueError(f"step {step}({u}) references a nonexistent vertex")
        v = len(rows)
        if step == "pendant":
            new_row = 1 << u
        elif step == "true_twin":
            new_row = rows[u] | (1 << u)
        elif step == "false_twin":
            new_row = rows[u]
        else:
            raise ValueError(f"unknown step kind {step!r}")
        rows.append(new_row)
        for w in range(v):
            if new_row >> w & 1:
                rows[w] |= 1 << v
    return Graph(len(rows), tuple(rows))


# --- seeded random generators ----------------------------------------------


def random_graph(n: int, p: float, seed: int) -> Graph:
    if n < 0 or not 0 <= p <= 1:
        raise ValueError("need n >= 0 and 0 <= p <= 1")
    rng = random.Random(seed)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph.from_edge_list(n, edges)


def random_permutation(n: int, seed: int) -> Permutation:
    if n < 1:
        raise ValueError("need n >= 1")
    rng = random.Random(seed)
    values = list(range(1, n + 1))
    rng.shuffle(values)
    return Permutation(tuple(values))


def random_unit_intervals(n: int, seed: int) -> IntervalSet:
    """Distinct even numerators over an odd denominator: left endpoints
    differ by even/odd fractions while interval length 1 shifts a numerator
    by the odd denominator, so all 2n endpoints are distinct by construction."""
    if n < 1:
        raise ValueError("need n >= 1")
    rng = random.Random(seed)
    denom = 2 * n + 1
    numerators = rng.sample(range(0, 8 * n * denom, 2), n)
    return IntervalSet(tuple(Fraction(a, denom) for a in numerators))


def random_distance_hereditary_script(steps: int, seed: int) -> list[tuple[str, int]]:
    rng = random.Random(seed)
    script = []
    for k in range(steps):
        kind = rng.choice(("pendant", "true_twin", "false_twin"))
        script.append((kind, rng.randrange(k + 1)))
    return script


def random_3_hypergraph(n: int, m: int, seed: int) -> Hypergraph3:
    if n < 3:
        raise ValueError("need n >= 3")
    max_edges = n * (n - 1) * (n - 2) // 6
    if not 0 <= m <= max_edges:
        raise ValueError(f"need 0 <= m <= {max_edges}")
    rng = random.Random(seed)
    chosen: set[tuple[int, int, int]] = set()
    while len(chosen) < m:
        e = tuple(sorted(rng.sample(range(n), 3)))
        chosen.add(e)
    return Hypergraph3(n, tuple(sorted(chosen)))


# --- file formats ----------------------------------------------------------


def parse_permutation(text: str) -> Permutation:
    values = tuple(int(tok) for ln in data_lines(text) for tok in plain_line(ln).split())
    return Permutation(values)


def format_permutation(p: Permutation) -> str:
    return " ".join(str(v) for v in p.values) + "\n"


def parse_intervals(text: str) -> IntervalSet:
    lefts = []
    for ln in data_lines(text):
        # Fraction builds the full power of ten of an exponent, so a few
        # bytes such as 1e10000000 would cost seconds or minutes.
        if "e" in ln or "E" in ln:
            raise ValueError(f"endpoint {ln!r} has an exponent; write an integer, p/q or a decimal")
        try:
            lefts.append(Fraction(plain_line(ln, plus=True)))
        except ZeroDivisionError as exc:
            raise ValueError(f"zero denominator in {ln!r}") from exc
    return IntervalSet(tuple(lefts))


def format_intervals(iv: IntervalSet) -> str:
    return "\n".join(str(l) for l in iv.lefts) + "\n"


def parse_hypergraph(text: str) -> Hypergraph3:
    n, records = read_header(text, "hyperedge")
    edges = [tuple(int(tok) for tok in plain_line(ln).split()) for ln in records]
    return Hypergraph3.from_edges(n, edges)


def format_hypergraph(h: Hypergraph3) -> str:
    lines = [f"{h.n} {len(h.edges)}"]
    lines.extend(" ".join(str(v) for v in e) for e in h.edges)
    return "\n".join(lines) + "\n"
