"""Simple undirected graphs stored as immutable bit-adjacency matrices.

Vertices are dense 0-based indices.  Each adjacency row is a Python int
used as a bitmask, so neighbourhood algebra (symmetric difference,
intersection) is row-XOR/AND on ints.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from operator import lt
from typing import Callable, Iterable, Optional


@dataclass(frozen=True)
class Graph:
    """Immutable simple graph.  ``rows[v]`` has bit ``u`` set iff u ~ v."""

    n: int
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        """Validation: the type of ``n``, the rows' count and type, loops
        and bits at or above ``n``, then symmetry.

        Rows other than a tuple of ints raise a ValueError; the one type
        test is the tuple's, and rows with no length, or a row that is not
        an int, make the checks raise a TypeError, which becomes that
        ValueError.  Bits at or above ``n`` are checked on whole rows, with
        the least and the greatest row (a negative row has such bits), and
        loops with the diagonal of the packed matrix on the transpose path.
        When a whole-row check fails, and on the walk path, a loop over the
        rows in order names the first faulty row, a loop before an
        out-of-range bit.

        Symmetry takes one of two paths.  Let W be the power of two at
        least max(n, 8).  When W² ≤ 16·(n + Σ row.bit_length()) and
        W² ≤ 32·(n + Σ row.bit_count()), the rows are packed into one int,
        row v at bit v·W, and the W×W bit matrix is transposed with log₂W
        delta swaps (``_transpose``); the rows are symmetric iff the
        transpose equals the packing.  That is O(log W) bigint operations
        on W² bits, which the rule keeps within 16 times the bits the rows
        span and 32 times the bits they set.  Otherwise, as for a sparse
        graph on many vertices, the packing would be too large, and
        ``_walk_asymmetry`` checks symmetry in O(n + m) bigint operations
        and O(n + m) memory.  The second bound sends a hypercube, whose
        rows span almost W bits but set only log₂W, to the walk.  The
        transpose only decides; on asymmetric rows the walk alone names
        the pair a pairwise scan of the lower triangle would find first.
        """
        n, rows = self.n, self.rows
        check_vertex_count(n)
        try:
            if len(rows) != n:
                raise ValueError("row count must equal vertex count")
            if type(rows) is not tuple:
                raise TypeError
            if rows and (min(rows) < 0 or max(rows) >> n):
                _check_rows(rows, n)
            w = max(8, 1 << (n - 1).bit_length())
            if (w * w <= 16 * (n + sum(map(int.bit_length, rows)))
                    and w * w <= 32 * (n + sum(map(int.bit_count, rows)))):
                pair = _transpose_asymmetry(rows, w)
            else:
                _check_rows(rows, n)
                pair = _walk_asymmetry(rows)
        except TypeError:
            raise ValueError("rows must be a tuple of ints") from None
        if pair is not None:
            raise ValueError(f"adjacency not symmetric at ({pair[0]},{pair[1]})")

    @staticmethod
    def from_edge_list(n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """The graph on 0..n-1 with ``edges``.  Edges are checked in order,
        and the first edge out of range, a loop or a repeat (in either
        order) raises a ValueError that names it.  An ``n`` that is not an
        int raises before any row is allocated."""
        check_vertex_count(n)
        return Graph(n, tuple(_edge_rows(n, list(edges))))

    def _vertex(self, v: int) -> int:
        """v itself; a ValueError names a v outside 0..n-1."""
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range for n={self.n}")
        return v

    def row(self, v: int) -> int:
        """The neighbourhood mask of v; a ValueError names a v outside 0..n-1."""
        return self.rows[self._vertex(v)]

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.row(u) >> self._vertex(v) & 1)

    def degree(self, v: int) -> int:
        return self.row(v).bit_count()

    def neighbors(self, v: int) -> frozenset[int]:
        return frozenset(_bits(self.row(v)))

    def closed_neighborhood_mask(self, v: int) -> int:
        return self.row(v) | (1 << v)

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) with u < v, lexicographically sorted."""
        out = []
        for u, row in enumerate(self.rows):
            rest = row >> (u + 1) << (u + 1)
            while rest:
                low = rest & -rest
                out.append((u, low.bit_length() - 1))
                rest ^= low
        return out

    def num_edges(self) -> int:
        return sum(row.bit_count() for row in self.rows) // 2


def check_vertex_count(n: int) -> None:
    """Raise a ValueError for a vertex count that is not an int, ``True``
    included."""
    if type(n) is not int:
        raise ValueError(f"vertex count {n!r} is not an int")


def _check_rows(rows: tuple[int, ...], n: int) -> None:
    """Raise for the first row, in order, with a loop or a bit at or above n."""
    for v, row in enumerate(rows):
        if row >> v & 1:
            raise ValueError(f"loop at vertex {v}")
        if row >> n:
            raise ValueError(f"row {v} references vertices >= n")


def _edge_rows(n: int, edges: list[tuple[int, int]]) -> list[int]:
    """The rows of the graph on 0..n-1 with ``edges``, from one unchecked
    pass.  An endpoint that is not an int fails the pass as an index; one
    out of range fails it as an index at or above n, or as a negative
    shift.  A loop or a repeated edge adds fewer than two bits, so the
    rows' total popcount falls short of 2·len(edges).  In either case the
    per-edge loop runs and names the first faulty edge."""
    rows = [0] * n
    try:
        for u, v in edges:
            # Both endpoints index a row before either is a shift count, so
            # no shift exceeds n.
            row = rows[u]
            rows[v] |= 1 << u
            rows[u] = row | 1 << v
        if sum(map(int.bit_count, rows)) == 2 * len(edges):
            return rows
    except (IndexError, TypeError, ValueError):
        pass
    rows = [0] * n
    for u, v in edges:
        if not (isinstance(u, int) and isinstance(v, int)):
            raise ValueError(f"edge ({u!r},{v!r}) has an endpoint that is not an int")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) out of range for n={n}")
        if u == v:
            raise ValueError(f"loop edge ({u},{v})")
        if rows[u] >> v & 1:
            raise ValueError(f"duplicate edge {(min(u, v), max(u, v))}")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return rows


def _walk_asymmetry(rows: tuple[int, ...]) -> Optional[tuple[int, int]]:
    """The first (u, v), u < v, of the lower triangle with rows[v] bit u
    unequal to rows[u] bit v, or None, in O(n + m) bigint operations.

    ``column[v]`` collects the u < v whose rows have bit v, from the bits
    above the diagonal of the rows already seen, and must equal the part of
    row v below the diagonal.  Rows go in order, so the pair named is the
    first a pairwise scan of the lower triangle would find.
    """
    column = [0] * len(rows)
    for v, row in enumerate(rows):
        upper = row >> v
        diff = (row ^ (upper << v)) ^ column[v]
        if diff:
            return (diff & -diff).bit_length() - 1, v
        if upper:
            bit = 1 << v
            while upper:
                low = upper & -upper
                column[v + low.bit_length() - 1] |= bit
                upper ^= low
    return None


def _swap_mask(w: int, j: int) -> int:
    """The bits r·w + c with r & j == 0 and c & j != 0: the lower halves of
    the pairs that swap at block size j of a w×w transpose."""
    if j < 8:
        row = bytes([sum(1 << c for c in range(8) if c & j)]) * (w // 8)
    else:
        row = (bytes(j // 8) + b"\xff" * (j // 8)) * (w // (2 * j))
    return int.from_bytes((row * j + bytes(w // 8) * j) * (w // (2 * j)), "little")


# w -> the swap masks of a w×w transpose for j = w/2, w/4, ..., 1.  Wider
# matrices build them one at a time per call, so that the cache stays
# within a few megabytes and a call holds one mask at a time.
_SWAP_MASKS: dict[int, tuple[int, ...]] = {}
_CACHED_WIDTH = 1 << 11


def _pack(rows: Iterable[int], w: int) -> int:
    """Row v at bit v·w; each row must lie below bit w."""
    return int.from_bytes(
        b"".join(map(int.to_bytes, rows, repeat(w // 8), repeat("little"))), "little")


# w -> the diagonal of a w×w matrix, bits v·w + v, cached as the swap masks are.
_DIAGONALS: dict[int, int] = {}


def _diagonal(w: int) -> int:
    diagonal = _DIAGONALS.get(w)
    if diagonal is None:
        diagonal = _pack(map(int.__lshift__, repeat(1), range(w)), w)
        if w <= _CACHED_WIDTH:
            _DIAGONALS[w] = diagonal
    return diagonal


def _transpose(x: int, w: int) -> int:
    """Transpose of the w×w bit matrix ``x`` (bit r·w + c is entry (r, c)).

    The recursive block transpose of Hacker's Delight §7-3: at block size j
    the upper-right and lower-left j×j quarters of every 2j×2j block swap,
    entry (r, c) with (r + j, c - j), a shift of j·(w - 1).
    """
    masks = _SWAP_MASKS.get(w)
    if masks is None:
        masks = (_swap_mask(w, w >> k) for k in range(1, w.bit_length()))
        if w <= _CACHED_WIDTH:
            masks = _SWAP_MASKS[w] = tuple(masks)
    j = w >> 1
    for mask in masks:
        shift = j * (w - 1)
        t = (x ^ (x >> shift)) & mask
        x ^= t ^ (t << shift)
        j >>= 1
    return x


def _transpose_asymmetry(rows: tuple[int, ...], w: int) -> Optional[tuple[int, int]]:
    """``_walk_asymmetry``'s answer: one packed transpose decides, and only
    asymmetric rows are walked.  The rows are non-negative and below bit
    len(rows), and len(rows) <= w.  A set bit on the packing's diagonal
    first raises for the lowest loop."""
    packed = _pack(rows, w)
    loops = packed & _diagonal(w)
    if loops:
        raise ValueError(f"loop at vertex {((loops & -loops).bit_length() - 1) // (w + 1)}")
    if packed == _transpose(packed, w):
        return None
    return _walk_asymmetry(rows)


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> tuple[Graph, tuple[int, ...]]:
    """Subgraph induced by ``vertices``, plus the map back to original indices.

    The new graph reindexes the selected vertices 0..|S|-1 in ascending
    original order; position i of the returned tuple is the original index
    of new vertex i.
    """
    order = sorted(set(vertices))
    if not order:
        raise ValueError("induced subgraph of the empty vertex set is undefined")
    g._vertex(order[0])
    g._vertex(order[-1])
    index = {v: i for i, v in enumerate(order)}
    rows = []
    for v in order:
        row = 0
        for u in _bits(g.rows[v]):
            if u in index:
                row |= 1 << index[u]
        rows.append(row)
    return Graph(len(order), tuple(rows)), tuple(order)


def hereditary_max_min(
    g: Graph,
    score: Callable[[int, int], Optional[int]],
    dead: Callable[[int, int, int], int],
) -> tuple[int, int]:
    """Maximum of a min-type parameter over the nonempty induced subgraphs
    of ``g``, and the vertex mask of the first subset attaining it.

    ``score(mask, floor)`` gets each subset H as a vertex mask of ``g``, so
    no subgraph is built, and returns the parameter of G[H], or None when it
    is at most ``floor``.  Subsets go by decreasing size, then in
    ``itertools.combinations`` order; only a strict improvement replaces the
    best.  The parameter must be at most (|H|-1)//2 on every H (fun's and
    sd's are; their solvers give the proofs), so the sweep stops at the
    first size s with (s-1)//2 at most the best.  G is scored first, at
    floor -1, and the cap is 0 at size 2, so the sweep stops there at the
    latest: no smallest size is given.

    Within one size, an include-first depth-first search over vertices
    0..n-1 reaches the subsets in that same order.  A node is an included
    mask ``inc`` and a candidate mask ``cand`` ⊇ ``inc``: its subsets H have
    inc ⊆ H ⊆ cand.  Child j of a node includes its j-th candidate above
    ``inc`` and drops the candidates below that one.  When a child is made,
    ``dead(inc, cand, floor)`` names vertices of its ``cand`` that no such H
    whose parameter beats ``floor`` can contain.  The answer may be
    incomplete but must be sound.  When it meets ``inc`` the child is cut;
    otherwise its ``cand`` loses those vertices.  A leaf (``size`` members)
    is pushed unasked with ``cand`` = ``inc``, since ``score`` is exact, so
    subsets are scored in one place.  The best value only grows, so a
    subset cut at floor f would have been rejected at its own turn: the
    surviving subsets are scored in the old order, with the same floors,
    and the first attaining subset is unchanged.

    A child's ``cand`` does not depend on the size being searched, so the
    same child comes back at every size.  ``dead``'s answers are kept in a
    dict keyed by (inc, cand) and emptied whenever the best value rises, so
    each triple is asked once.  ``dead`` need only be sound: it may read
    state that grows during the call, such as supports its solver's
    ``score`` has found, so a kept answer can be weaker than a fresh one
    but never wrong.  As long as ``dead`` is sound, the same subsets
    improve the best, with the same floors.  The search keeps an explicit
    stack, so its depth is not bound by the interpreter's recursion limit,
    and the dict lives for one call only.
    """
    best_value = -1
    best_mask = None
    # dead's answer per (child, child's cand), for the current best value.
    asked: dict[tuple[int, int], int] = {}
    for size in range(g.n, 0, -1):
        if (size - 1) // 2 <= best_value:
            break
        # (inc, |inc|, cand); the vertices of cand - inc all lie above inc.
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
                    asked.clear()
                continue
            # Past child j = room too few candidates would be left.
            free = cand ^ inc
            leaf = count + 1 == size
            # One size down these children are leaves, which score takes
            # unasked, so an answer about them would never be read again.
            keep = count + 2 < size
            children = []
            for _ in range(room + 1):
                low = free & -free
                child, child_cand = inc | low, inc | free
                free ^= low
                if leaf:
                    children.append((child, size, child))
                    continue
                key = (child, child_cand)
                cut = asked.get(key)
                if cut is None:
                    cut = dead(child, child_cand, best_value)
                    if keep:
                        asked[key] = cut
                if not cut & child:
                    children.append((child, count + 1, child_cand & ~cut))
            # Reversed, so that the lowest child pops first.
            children.reverse()
            stack += children
    if best_mask is None:
        raise RuntimeError("subset sweep found no subgraph")
    return best_value, best_mask


def sym_diff_mask(g: Graph, u: int, v: int) -> int:
    """Bitmask of (N(u) xor N(v)) minus {u, v}."""
    if u == v:
        raise ValueError("symmetric difference of a vertex with itself")
    return (g.rows[g._vertex(u)] ^ g.rows[g._vertex(v)]) & ~(1 << u) & ~(1 << v)


# --- text format ------------------------------------------------------------
#
# Every line format reads through ``data_lines``, which drops blank and '#'
# lines, and ``plain_line``.  A graph is "n m", then exactly m lines "u v"
# with 0 <= u < v < n and no duplicates.


class GraphFormatError(ValueError):
    pass


# The largest vertex count a parser accepts.  A header is read before any
# row exists, so without a limit a huge n would first allocate n rows and
# end in an OverflowError or a MemoryError.  At 2**22 a header-only file
# parses in about a second into about 110 MB of empty rows, and a sparse
# graph on a million vertices still parses.
MAX_VERTICES = 1 << 22


def data_lines(text: str) -> list[str]:
    """The stripped lines of ``text`` that are neither blank nor ``#`` comments."""
    lines = list(filter(None, map(str.strip, text.splitlines())))
    if "#" in text:
        lines = [ln for ln in lines if ln[0] != "#"]
    return lines


def plain_line(line: str, plus: bool = False) -> str:
    """``line``, if it holds none of what int() and Fraction() read beyond the
    formats: a non-ASCII character, a ``_`` or, unless ``plus``, a ``+``."""
    if not line.isascii() or "_" in line or (not plus and "+" in line):
        raise GraphFormatError(f"bad data line: {line!r}")
    return line


def read_header(text: str, what: str) -> tuple[int, list[str]]:
    """(n, record lines) of a text whose data lines are a header ``n m``,
    with 0 <= n <= ``MAX_VERTICES``, and then exactly m ``what`` lines."""
    data = data_lines(text)
    if not data:
        raise GraphFormatError("missing header line 'n m'")
    try:
        n, m = map(int, plain_line(data[0]).split())
    except ValueError as exc:
        raise GraphFormatError(f"bad header line: {data[0]!r}") from exc
    if n < 0:
        raise GraphFormatError(f"vertex count {n} is negative")
    if n > MAX_VERTICES:
        raise GraphFormatError(f"vertex count {n} is above the limit of {MAX_VERTICES}")
    if len(data) - 1 != m:
        raise GraphFormatError(f"expected {m} {what} lines, got {len(data) - 1}")
    return n, data[1:]


def parse_graph(text: str) -> Graph:
    """The graph of a text ``n m`` followed by m edge lines ``u v``.

    The first line that is not two ``plain_line`` integers 0 <= u < v < n
    raises; a repeated edge only when every line is well formed.  All lines
    are read at once: joined with a ``;`` between lines, there are 3m - 1
    tokens and all but every third one are integers iff every line is two
    integers, since each ``;`` must then sit in a third place.  Only when
    a whole-file check fails does the line loop run, to name the first
    faulty line.
    """
    n, records = read_header(text, "edge")
    try:
        tokens = plain_line(" ; ".join(records)).split()
        if len(tokens) != 3 * len(records) - 1:
            raise ValueError
        us = list(map(int, tokens[0::3]))
        vs = list(map(int, tokens[1::3]))
        if min(us) < 0 or max(vs) >= n or not all(map(lt, us, vs)):
            raise ValueError
    except ValueError:
        us, vs = _edge_lines(n, records)
    try:
        return Graph.from_edge_list(n, zip(us, vs))
    except ValueError as exc:
        raise GraphFormatError(str(exc)) from exc


def _edge_lines(n: int, records: list[str]) -> tuple[list[int], list[int]]:
    """The endpoints of ``records`` read line by line; the first line that
    is not two ``plain_line`` integers 0 <= u < v < n raises."""
    us, vs = [], []
    for ln in records:
        try:
            u, v = map(int, plain_line(ln).split())
        except ValueError as exc:
            raise GraphFormatError(f"bad edge line: {ln!r}") from exc
        if not (0 <= u < v < n):
            raise GraphFormatError(f"edge ({u},{v}) violates 0 <= u < v < n")
        us.append(u)
        vs.append(v)
    return us, vs


def format_graph(g: Graph) -> str:
    lines = [f"{g.n} {g.num_edges()}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def write_graph(g: Graph, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_graph(g))
