"""The symmetric-difference parameter sd(x,y) and its max-min graph form."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .graph import Graph, _bits, hereditary_max_min, induced_subgraph, sym_diff_mask


# sd_graph's default exact_limit.  At n = 24, G(n, 1/2), permutation
# graphs and unit-interval graphs with left endpoints in [0, w), w = 2, 4,
# 7, 10, take at most 0.7 s and 29 MB (six seeds each, one call per
# process, 2-vCPU virtual machine); at n = 26 unit-interval graphs take up
# to 1.2 s and 45 MB, and at n = 28 up to 3.4 s and 99 MB.  Those graphs
# have sd 1, where the size bound (|H|-1)//2 skips only sizes 2 to 4.
SD_EXACT_LIMIT = 24


@dataclass(frozen=True)
class SdResult:
    value: int
    pair: tuple[int, int]
    subgraph: Optional[frozenset[int]] = None


def sd_pair(g: Graph, x: int, y: int) -> int:
    """|N(x) xor N(y)| excluding x and y themselves."""
    return sym_diff_mask(g, x, y).bit_count()


def min_sd(g: Graph) -> SdResult:
    """Minimum sd over all unordered pairs, lowest-index pair on ties."""
    if g.n < 2:
        raise ValueError("min_sd needs at least 2 vertices")
    best = None
    best_pair = None
    for x in range(g.n):
        for y in range(x + 1, g.n):
            v = sd_pair(g, x, y)
            if best is None or v < best:
                best, best_pair = v, (x, y)
                if best == 0:
                    return SdResult(0, best_pair)
    return SdResult(best, best_pair)


def sd_graph(g: Graph, exact_limit: int = SD_EXACT_LIMIT) -> SdResult:
    """Exact sd(G): max over induced subgraphs with >= 2 vertices of min_sd.

    graph.hereditary_max_min scores each subset H as a vertex mask of G and
    stops at the first size s = |H| whose bound (s-1)//2 cannot beat the
    best value.  The bound is double counting: a vertex z of H lies in
    N(x) xor N(y) - {x, y} for exactly d_z * (s-1-d_z) pairs {x, y} of H,
    so the s(s-1)/2 pairs have sd summing to at most s * (s-1)**2 / 4: the
    least sd, an integer at most their average (s-1)/2, is at most
    (s-1)//2.  The sweep drops only sizes that cannot strictly beat the
    best, so the value, pair and subgraph are those of the full sweep.  Its
    search drops from the candidates each w whose sd with the newest
    included vertex, counted within the candidates, is at most the best
    value.  Only the winning subgraph is built, to report its pair.
    """
    if exact_limit < 0:
        raise ValueError(f"exact_limit must be >= 0, got {exact_limit}")
    if g.n < 2:
        raise ValueError("sd_graph needs at least 2 vertices")
    if g.n > exact_limit:
        raise ValueError(f"n={g.n} exceeds exact_limit={exact_limit}")

    rows = g.rows

    def score(among: int, floor: int) -> Optional[int]:
        # Pairs x < y of H in itertools.combinations order, each scored as
        # |(N(x) xor N(y)) & H - {x, y}|; the first pair at most ``floor``
        # rejects H, so most subsets cost a pair or two.
        best = g.n
        rest = among
        while rest:
            bx = rest & -rest
            rest ^= bx
            rx = rows[bx.bit_length() - 1]
            outside_x = among ^ bx
            others = rest
            while others:
                by = others & -others
                others ^= by
                value = ((rx ^ rows[by.bit_length() - 1]) & (outside_x ^ by)).bit_count()
                if value < best:
                    if value <= floor:
                        return None
                    best = value
        return best

    def dead(inc: int, cand: int, floor: int) -> int:
        # The newest member v of inc against each other w of cand: an H
        # holding both has sd_H(v, w) <= |(N(v) xor N(w)) & cand - {v, w}|.
        v = inc.bit_length() - 1
        bv, rv = 1 << v, rows[v]
        out = 0
        others = cand ^ bv
        rest = others
        while rest:
            bw = rest & -rest
            rest ^= bw
            if ((rv ^ rows[bw.bit_length() - 1]) & (others ^ bw)).bit_count() <= floor:
                out |= bw
        return out

    best_value, best_mask = hereditary_max_min(g, score, dead)
    sub, mapping = induced_subgraph(g, _bits(best_mask))
    inner = min_sd(sub)
    pair = (mapping[inner.pair[0]], mapping[inner.pair[1]])
    return SdResult(best_value, pair, subgraph=frozenset(mapping))
