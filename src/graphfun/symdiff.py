"""The symmetric-difference parameter sd(x,y) and its max-min graph form."""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from .graph import Graph, hereditary_max_min, induced_subgraph, sym_diff_mask, _bits


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


def sd_graph(g: Graph, exact_limit: int = 14) -> SdResult:
    """Exact sd(G): max over induced subgraphs with >= 2 vertices of min_sd.

    graph.hereditary_max_min scores each subset H as a vertex mask of G and
    stops at the first size whose bound |H|-2 (sd(x,y) excludes x and y)
    cannot beat the best value; only the winning subgraph is built, to
    report its pair.
    """
    if g.n < 2:
        raise ValueError("sd_graph needs at least 2 vertices")
    if g.n > exact_limit:
        raise ValueError(f"n={g.n} exceeds exact_limit={exact_limit}")

    def score(among: int, floor: int) -> Optional[int]:
        best = g.n
        # A list, not a generator: a tuple built from a generator is resized,
        # which strands one tuple per call in CPython's free lists (~1 MB).
        for x, y in itertools.combinations(list(_bits(among)), 2):
            best = min(best, (sym_diff_mask(g, x, y) & among).bit_count())
            if best <= floor:
                return None
        return best

    best_value, best_subset = hereditary_max_min(g, 2, lambda size: size - 2, score)
    sub, mapping = induced_subgraph(g, best_subset)
    inner = min_sd(sub)
    pair = (mapping[inner.pair[0]], mapping[inner.pair[1]])
    return SdResult(best_value, pair, subgraph=frozenset(best_subset))
