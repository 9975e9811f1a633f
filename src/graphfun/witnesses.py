"""Constructive small-support witnesses extracted from the boundedness
arguments for unit interval graphs, permutation graphs and line graphs.

Every operation re-verifies its witness by replaying the DNF against the
graph before returning; an unverifiable witness is an internal error, never
a return value.
"""
from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph, mask_of
from .families import IntervalSet, Permutation, line_graph, permutation_graph, unit_interval_graph
from .symdiff import sd_pair


@dataclass(frozen=True)
class DnfWitness:
    """DNF over adjacency bits of ``support`` describing the target's
    adjacency to every vertex outside {target} | support.

    ``terms`` holds conjunctions as tuples of support positions; an empty
    term list is the constant-0 function.  Support entries may repeat when
    two geometric roles land on the same point; evaluation is positional,
    so repetition is harmless.
    """

    target: int
    support: tuple[int, ...]
    terms: tuple[tuple[int, ...], ...]

    def evaluate(self, profile: int) -> int:
        for term in self.terms:
            if all(profile >> i & 1 for i in term):
                return 1
        return 0

    def verify(self, g: Graph) -> bool:
        """Replay every vertex outside {target} | support at once: a term
        holds at exactly the vertices adjacent to all its support vertices,
        so the DNF's true set is the OR over terms of the AND of their rows."""
        trow = g.rows[self.target]
        domain = ((1 << g.n) - 1) & ~(mask_of(self.support) | (1 << self.target))
        literals = [g.rows[x] for x in self.support]
        true_set = 0
        for term in self.terms:
            holds = domain
            for i in term:
                holds &= literals[i]
            true_set |= holds
        return true_set == trow & domain


# --- unit interval graphs ---------------------------------------------------


def unit_interval_pair(iv: IntervalSet) -> tuple[int, int]:
    """Consecutive pair (by left endpoint) with the smallest neighbourhood
    symmetric difference.

    Returns (t, value) with t 1-based: the pair is the t-th and (t+1)-th
    intervals in left-endpoint order.  On instances without isolated
    vertices the value is at most 1, so both vertices have functionality
    at most 2.
    """
    if iv.n < 2:
        raise ValueError("need at least 2 intervals")
    g = unit_interval_graph(iv)
    best_t, best_val = 1, sd_pair(g, 0, 1)
    for t in range(2, iv.n):
        val = sd_pair(g, t - 1, t)
        if val < best_val:
            best_t, best_val = t, val
    return best_t, best_val


def sum_sd_consecutive(iv: IntervalSet) -> int:
    """Sum of |N(v_i) xor N(v_{i+1})| over consecutive pairs; at most
    2n - 3 when the instance has no isolated vertices."""
    if iv.n < 2:
        raise ValueError("need at least 2 intervals")
    g = unit_interval_graph(iv)
    return sum(sd_pair(g, i, i + 1) for i in range(iv.n - 1))


# --- permutation graphs -----------------------------------------------------


def classify_middles(p: Permutation) -> tuple[frozenset[int], frozenset[int]]:
    """(vertical, horizontal) middle points, reported as point labels (values).

    A value is a vertical middle when it is the value-median of some window
    of 3 position-consecutive points, and a horizontal middle when it is
    the position-median of some window of 3 value-consecutive points.
    """
    if p.n < 3:
        raise ValueError("need at least 3 points")
    pos = p.position_of()
    vertical = set()
    for i in range(p.n - 2):
        window = p.values[i:i + 3]
        vertical.add(sorted(window)[1])
    horizontal = set()
    for v in range(1, p.n - 1):
        window = [v, v + 1, v + 2]
        horizontal.add(sorted(window, key=lambda w: pos[w])[1])
    return frozenset(vertical), frozenset(horizontal)


def _reduced_neighbours(p: Permutation, x: int, removed: frozenset[int]):
    """Immediate position- and value-neighbours of point x once ``removed``
    points are deleted; None when x sits on a boundary."""
    pos = p.position_of()
    px = pos[x]
    left = right = None
    for i in range(px - 1, 0, -1):
        if p.values[i - 1] not in removed:
            left = p.values[i - 1]
            break
    for i in range(px + 1, p.n + 1):
        if p.values[i - 1] not in removed:
            right = p.values[i - 1]
            break
    below = above = None
    for v in range(x - 1, 0, -1):
        if v not in removed:
            below = v
            break
    for v in range(x + 1, p.n + 1):
        if v not in removed:
            above = v
            break
    return left, right, below, above


def _step1_support(p: Permutation, x: int, removed: frozenset[int]):
    """Support (r, b, l, t) when x is a simultaneous strict middle in the
    reduced point set, else None."""
    pos = p.position_of()
    left, right, below, above = _reduced_neighbours(p, x, removed)
    if None in (left, right, below, above):
        return None
    if not min(left, right) < x < max(left, right):
        return None
    if not min(pos[below], pos[above]) < pos[x] < max(pos[below], pos[above]):
        return None
    t = max(left, right)          # higher of the two position-neighbours
    b = min(left, right)
    r = below if pos[below] > pos[above] else above   # rightmost value-neighbour
    l = below if pos[below] < pos[above] else above
    return r, b, l, t


def strict_middle_witness(p: Permutation, x: int) -> DnfWitness:
    """Size-4 witness for a point that is simultaneously a vertical and a
    horizontal middle of its immediate windows.

    Support order is (r, b, l, t) as graph vertices (value - 1); the DNF is
    x_r x_b or x_l x_t.
    """
    support = _step1_support(p, x, frozenset())
    if support is None:
        raise ValueError(f"point {x} is not a simultaneous strict middle")
    r, b, l, t = support
    witness = DnfWitness(x - 1, (r - 1, b - 1, l - 1, t - 1), ((0, 1), (2, 3)))
    if not witness.verify(permutation_graph(p)):
        raise RuntimeError("strict middle witness failed verification")
    return witness


def _weak_windows(p: Permutation, x: int):
    """Qualifying 5-point windows for x in each direction.

    Yields ('pos', t, b, m3, m4) for position windows where x is among the
    middle three by value, and ('val', l, r, m1, m2) for value windows
    where x is among the middle three by position.
    """
    pos = p.position_of()
    px = pos[x]
    out = []
    for a in range(max(1, px - 4), min(px, p.n - 4) + 1):
        window = list(p.values[a - 1:a + 4])
        by_value = sorted(window)
        if x in by_value[1:4]:
            mids = [v for v in by_value[1:4] if v != x]
            out.append(("pos", by_value[4], by_value[0], mids[0], mids[1]))
    for v0 in range(max(1, x - 4), min(x, p.n - 4) + 1):
        window = list(range(v0, v0 + 5))
        by_pos = sorted(window, key=lambda w: pos[w])
        if x in by_pos[1:4]:
            mids = [v for v in by_pos[1:4] if v != x]
            out.append(("val", by_pos[0], by_pos[4], mids[0], mids[1]))
    return out


def permutation_witness(p: Permutation) -> DnfWitness:
    """Witness of size at most 8 for some vertex of a permutation graph.

    Finds a point that is simultaneously a weak vertical and weak horizontal
    middle, removes the four companion middle points, recomputes the strict
    middle support in the reduced point set, and verifies the resulting DNF
    x_r x_b or x_l x_t against the full graph (the removed points join the
    support purely to be excluded from the domain).
    """
    if p.n <= 12:
        raise ValueError(
            "need at least 13 points; any graph on at most 12 vertices has "
            "functionality at most 6 without this construction"
        )
    candidates = []
    for x in range(1, p.n + 1):
        windows = _weak_windows(p, x)
        pos_windows = [w for w in windows if w[0] == "pos"]
        val_windows = [w for w in windows if w[0] == "val"]
        for _, t, b, m3, m4 in pos_windows:
            for _, l, r, m1, m2 in val_windows:
                removed = frozenset({m1, m2, m3, m4})
                support = _step1_support(p, x, removed)
                if support is None:
                    continue
                rr, bb, ll, tt = support
                full = (rr, bb, ll, tt) + tuple(sorted(removed))
                candidates.append((len(set(full)), x, full))
    g = permutation_graph(p)
    for _, x, full in sorted(candidates, key=lambda c: (c[0], c[1])):
        witness = DnfWitness(x - 1, tuple(v - 1 for v in full), ((0, 1), (2, 3)))
        if witness.verify(g):
            return witness
    raise RuntimeError("no simultaneous weak middle point produced a verified witness")


# --- line graphs ------------------------------------------------------------


def line_graph_witness(g: Graph, x: tuple[int, int]) -> DnfWitness:
    """Witness of size at most 6 for the vertex of L(G) corresponding to
    edge x, built from up to three incident edges at each endpoint.

    An endpoint of degree at least 4 contributes a 3-edge conjunction; a
    lower-degree endpoint contributes all its other incident edges to the
    support with no term.  Both terms dropped means the constant-0 function.
    """
    a, b = min(x), max(x)
    if not g.has_edge(a, b):
        raise ValueError(f"({a},{b}) is not an edge")
    lg, names = line_graph(g)
    index = {e: i for i, e in enumerate(names)}
    target = index[(a, b)]

    def side(endpoint: int) -> tuple[list[int], bool]:
        incident = [index[e] for e in names if endpoint in e and e != (a, b)]
        if g.degree(endpoint) >= 4:
            return incident[:3], True
        return incident, False

    y_edges, y_term = side(a)
    z_edges, z_term = side(b)
    support = tuple(y_edges + z_edges)
    terms = []
    if y_term:
        terms.append(tuple(range(3)))
    if z_term:
        terms.append(tuple(range(len(y_edges), len(y_edges) + 3)))
    witness = DnfWitness(target, support, tuple(terms))
    if not witness.verify(lg):
        raise RuntimeError("line graph witness failed verification")
    return witness
