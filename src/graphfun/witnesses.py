"""Constructive small-support witnesses extracted from the boundedness
arguments for unit interval graphs, permutation graphs and line graphs.

Every operation re-verifies its witness by replaying the DNF against the
graph before returning; an unverifiable witness is an internal error, never
a return value.
"""
from __future__ import annotations

import bisect
from dataclasses import dataclass

from .graph import Graph, _bits, mask_of
from .families import IntervalSet, LineGraph, Permutation
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

    def verify(self, host: Graph | LineGraph) -> bool:
        """Replay every vertex outside {target} | support at once: a term
        holds at exactly the vertices adjacent to all its support vertices,
        so the DNF's true set is the OR over terms of the AND of their rows.
        Only ``host.n`` and the rows ``host.row(v)`` of the target and the
        support are read, and a vertex outside the host raises ValueError."""
        trow = host.row(self.target)
        domain = ((1 << host.n) - 1) & ~(mask_of(self.support) | (1 << self.target))
        literals = [host.row(x) for x in self.support]
        true_set = 0
        for term in self.terms:
            holds = domain
            for i in term:
                holds &= literals[i]
            true_set |= holds
        return true_set == trow & domain


# --- unit interval graphs ---------------------------------------------------


MIN_INTERVALS = 2


def _interval_graph(iv: IntervalSet) -> Graph:
    if iv.n < MIN_INTERVALS:
        raise ValueError(f"need at least {MIN_INTERVALS} intervals")
    return iv.graph


def unit_interval_pair(iv: IntervalSet) -> tuple[int, int]:
    """Consecutive pair (by left endpoint) with the smallest neighbourhood
    symmetric difference.

    Returns (t, value) with t 1-based: the pair is the t-th and (t+1)-th
    intervals in left-endpoint order.  On instances without isolated
    vertices the value is at most 1, so both vertices have functionality
    at most 2.
    """
    g = _interval_graph(iv)
    best_t, best_val = 1, sd_pair(g, 0, 1)
    for t in range(2, iv.n):
        val = sd_pair(g, t - 1, t)
        if val < best_val:
            best_t, best_val = t, val
    return best_t, best_val


def sum_sd_consecutive(iv: IntervalSet) -> int:
    """Sum of |N(v_i) xor N(v_{i+1})| over consecutive pairs; at most
    2n - 3 when the instance has no isolated vertices."""
    g = _interval_graph(iv)
    return sum(sd_pair(g, i, i + 1) for i in range(iv.n - 1))


# --- permutation graphs -----------------------------------------------------


MIN_PERMUTATION_POINTS = 13


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


def _step1_supports(
    values: tuple[int, ...], pos: dict[int, int], x: int, removals: list[tuple[int, ...]]
):
    """``(removed, (r, b, l, t))`` for each set in ``removals``, in order,
    whose deletion leaves x a simultaneous strict middle.

    ``values`` is the one-line permutation and ``pos`` its
    ``position_of()`` map.  (b, t) are x's nearest kept position-neighbours,
    lower and higher by value; (l, r) its nearest kept value-neighbours,
    left and right by position.  A removal set has at most four members, so
    each nearest kept neighbour is among the five nearest on its side.
    Once b < x < t holds, lo and hi always exist: b is kept, so either b is
    among x-1..x-5 and the scan below stops at it, or those are five
    values and at most four of them are removed; the same holds for t
    above x."""
    n = len(values)
    px = pos[x]
    left = values[max(px - 6, 0):px - 1][::-1]
    right = values[px:px + 5]
    below = range(x - 1, max(x - 6, 0), -1)
    above = range(x + 1, min(x + 6, n + 1))
    out = []
    for removed in removals:
        for b in left:
            if b not in removed:
                break
        else:
            continue
        for t in right:
            if t not in removed:
                break
        else:
            continue
        if b > t:
            b, t = t, b
        if not b < x < t:
            continue
        for lo in below:
            if lo not in removed:
                break
        for hi in above:
            if hi not in removed:
                break
        plo, phi = pos[lo], pos[hi]
        if plo < px < phi:
            out.append((removed, (hi, b, lo, t)))
        elif phi < px < plo:
            out.append((removed, (lo, b, hi, t)))
    return out


def strict_middle_witness(p: Permutation, x: int) -> DnfWitness:
    """Size-4 witness for a point that is simultaneously a vertical and a
    horizontal middle of its immediate windows.

    Support order is (r, b, l, t) as graph vertices (value - 1); the DNF is
    x_r x_b or x_l x_t.
    """
    if not 1 <= x <= p.n:
        raise ValueError(f"point {x} out of range for n={p.n}")
    found = _step1_supports(p.values, p.position_of(), x, [()])
    if not found:
        raise ValueError(f"point {x} is not a simultaneous strict middle")
    r, b, l, t = found[0][1]
    witness = DnfWitness(x - 1, (r - 1, b - 1, l - 1, t - 1), ((0, 1), (2, 3)))
    if not witness.verify(p.graph):
        raise RuntimeError("strict middle witness failed verification")
    return witness


def _companions(windows, n: int) -> list[list[tuple[int, int]]]:
    """For each point 1..n, the two companion middles of each sorted 5-point
    window that has it among its three middles, in window order.  A window
    whose middles repeat an earlier window's adds nothing: it would only
    repeat candidates, later in the same size bucket."""
    out: list[list[tuple[int, int]]] = [[] for _ in range(n + 1)]
    seen = set()
    for _, m1, m2, m3, _ in windows:
        if (m1, m2, m3) in seen:
            continue
        seen.add((m1, m2, m3))
        out[m1].append((m2, m3))
        out[m2].append((m1, m3))
        out[m3].append((m1, m2))
    return out


def permutation_witness(p: Permutation) -> DnfWitness:
    """Witness of size at most 8 for some vertex of a permutation graph.

    Finds a point that is simultaneously a weak vertical and weak horizontal
    middle, removes the four companion middle points, recomputes the strict
    middle support in the reduced point set, and verifies the resulting DNF
    x_r x_b or x_l x_t against the full graph (the removed points join the
    support purely to be excluded from the domain).

    A weak vertical middle is among the middle three by value of some 5
    position-consecutive points; a weak horizontal middle is among the
    middle three by position of some 5 value-consecutive points.  Each
    window is sorted once.  The candidates are tried by support size, then
    by x, then in window order (position windows outer, value windows
    inner), and the first that replays is returned.  A candidate's size is
    counted from the coincidences among its roles, so no candidate list is
    sorted and only the candidates replayed get a support tuple.  The
    witness is verified on ``p.graph``.

    A point is scanned only when the replay order reaches its bound.  Let
    NB(x) be the points other than x within 5 positions and within 5
    values of x.  Every candidate of x has size at least max(4, 8 - |NB(x)|):

    - size = 8 - c, where c counts the coincidences of r or l with b or t,
      and of m1 or m2 with m3 or m4;
    - r or l in {b, t} is a kept point that is a nearest kept
      value-neighbour (within 5 values, since a removal set has at most
      four members) and a nearest kept position-neighbour (within 5
      positions);
    - m1 or m2 in {m3, m4} is a removed point that is a value-window
      companion (within 4 values) and a position-window companion (within
      4 positions);
    - r != l, m1 != m2, and no kept point is removed, so each coincidence
      names its own point of NB(x).

    Each simultaneous weak middle x starts, unscanned, in the bucket of its
    bound.  Buckets are replayed smallest first, each in x order.  When the
    replay reaches x in bucket s, x is scanned there: its candidates of
    size s are replayed on the spot, in window order, and each larger one
    is inserted into its own bucket at its (x, window order) place.  So the
    candidates are replayed in (size, x, window order), and a point whose
    bound exceeds the winning size is never scanned.
    """
    if p.n < MIN_PERMUTATION_POINTS:
        raise ValueError(
            f"need at least {MIN_PERMUTATION_POINTS} points; any graph on at most "
            f"{MIN_PERMUTATION_POINTS - 1} vertices has functionality at most 6 "
            "without this construction"
        )
    values = p.values
    pos = p.position_of()
    by_position = _companions((sorted(values[a:a + 5]) for a in range(p.n - 4)), p.n)
    by_value = _companions(
        (sorted(range(v, v + 5), key=pos.__getitem__) for v in range(1, p.n - 3)), p.n
    )
    # support sizes 4..8; an entry is (x,) for a point not yet scanned and
    # (x, window order, support, removed) for a candidate
    buckets = [[] for _ in range(5)]
    near = [0] * (p.n + 1)  # |NB(x)|, from the pairs within 5 positions
    for d in range(1, 6):
        for a, b in zip(values, values[d:]):
            if -6 < a - b < 6:
                near[a] += 1
                near[b] += 1
    for x in range(1, p.n + 1):
        if by_value[x] and by_position[x]:
            buckets[max(0, 4 - near[x])].append((x,))

    def in_replay_order():
        for s, bucket in enumerate(buckets, start=4):
            for entry in bucket:
                if len(entry) > 1:
                    yield entry[0], entry[2], entry[3]
                    continue
                x = entry[0]
                removals = [(m1, m2, m3, m4) for m3, m4 in by_position[x]
                            for m1, m2 in by_value[x]]
                for k, (removed, support) in enumerate(
                        _step1_supports(values, pos, x, removals)):
                    m1, m2, m3, m4 = removed
                    r, b, l, t = support
                    # r, b, l, t are never removed, and r != l, b != t,
                    # m1 != m2, m3 != m4: the support shrinks only where r
                    # or l is b or t, or m1 or m2 is m3 or m4
                    size = (8 - (r == b or r == t) - (l == b or l == t)
                            - (m1 == m3 or m1 == m4) - (m2 == m3 or m2 == m4))
                    if size == s:
                        yield x, support, removed
                    elif size > s:
                        bisect.insort(buckets[size - 4], (x, k, support, removed))
                    else:
                        raise RuntimeError(
                            f"candidate of size {size} at point {x} below its bound {s}")

    for x, support, removed in in_replay_order():
        full = support + tuple(sorted(set(removed)))
        witness = DnfWitness(x - 1, tuple(v - 1 for v in full), ((0, 1), (2, 3)))
        if witness.verify(p.graph):
            return witness
    raise RuntimeError("no simultaneous weak middle point produced a verified witness")


# --- line graphs ------------------------------------------------------------


def line_graph_witness(line: LineGraph, x: tuple[int, int]) -> DnfWitness:
    """Witness of size at most 6 for the vertex of L(G) corresponding to
    edge x, built from up to three incident edges at each endpoint.

    ``line`` is the ``line_graph(g)`` instance.  The edges at an endpoint
    other than x are its incidence mask within the target's row, taken in
    index order.  An endpoint of degree at least 4 contributes a 3-edge
    conjunction; a lower-degree endpoint contributes all its other
    incident edges to the support with no term.  Both terms dropped means
    the constant-0 function.  The witness is replayed on ``line``'s rows.
    """
    names = line.names
    a, b = min(x), max(x)
    target = bisect.bisect_left(names, (a, b))
    if target == len(names) or names[target] != (a, b):
        raise ValueError(f"({a},{b}) is not an edge")
    trow = line.row(target)

    def side(endpoint: int) -> tuple[list[int], bool]:
        incident = list(_bits(line.incidence[endpoint] & trow))
        if len(incident) >= 3:
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
    if not witness.verify(line):
        raise RuntimeError("line graph witness failed verification")
    return witness
