"""Property-verification harness.

Each target function runs a seeded batch of cases and returns
``(passed, payload)`` where the payload is a JSON-serializable summary with
any counterexample embedded.  The CLI ``verify`` subcommand and the
acceptance test suite are both thin wrappers over these functions; the
CLI's options for a target are its function's parameters, with its
defaults.
"""
from __future__ import annotations

import itertools
import random
from fractions import Fraction

from . import families, hyper3, kexpr, naive, witnesses
from .families import (
    Hypergraph3,
    IntervalSet,
    hypercube,
    random_graph,
    random_permutation,
    random_unit_intervals,
    sd_construction,
)
from .functionality import fun_graph, fun_vertex, min_fun
from .graph import induced_subgraph
from .params import degeneracy, vc_dimension
from .symdiff import sd_graph, sd_pair


def _cycle_graphs(seed: int, cases: int):
    """The shared seeded stream of small random graphs: sizes 4..9,
    densities cycling through 0.2 / 0.5 / 0.8."""
    rng = random.Random(seed)
    for i in range(cases):
        n = rng.randint(4, 9)
        p = (0.2, 0.5, 0.8)[i % 3]
        yield i, random_graph(n, p, rng.randrange(2**32))


def verify_oracle_equivalence(seed: int = 0, cases: int = 200) -> tuple[bool, dict]:
    failures = []
    for i, g in _cycle_graphs(seed, cases):
        for y in range(g.n):
            fast = fun_vertex(g, y).value
            slow = naive.naive_fun_vertex(g, y)
            if fast != slow:
                failures.append(
                    {"case": i, "n": g.n, "vertex": y, "fast": fast, "naive": slow}
                )
    return not failures, {"cases": cases, "failures": failures}


def _dense_intervals(n: int, seed: int) -> IntervalSet:
    """Seeded unit-interval instance with every consecutive gap below 1, so
    the intersection graph has no isolated vertices.  Even numerators over
    an odd denominator keep all 2n endpoints distinct."""
    rng = random.Random(seed)
    denom = 2 * n + 1
    numerator = 0
    lefts = [Fraction(0, denom)]
    for _ in range(n - 1):
        numerator += rng.randrange(2, denom - 1, 2)
        lefts.append(Fraction(numerator, denom))
    return IntervalSet(tuple(lefts))


def verify_unit_interval(seed: int = 0, cases: int = 100) -> tuple[bool, dict]:
    rng = random.Random(seed)
    failures = []
    for i in range(cases):
        iv = _dense_intervals(100, rng.randrange(2**32))
        t, value = witnesses.unit_interval_pair(iv)
        total = witnesses.sum_sd_consecutive(iv)
        if value > 1 or total > 2 * iv.n - 3:
            failures.append({"case": i, "pair_sd": value, "sum_sd": total, "t": t})
    exhaustive = min(cases, 50)
    for i in range(exhaustive):
        n = 4 + i % 7
        iv = random_unit_intervals(n, rng.randrange(2**32))
        value = fun_graph(iv.graph).value
        if value > 2:
            failures.append({"case": f"exhaustive-{i}", "n": n, "fun_graph": value})
    return not failures, {
        "cases": cases,
        "exhaustive_cases": exhaustive,
        "failures": failures,
    }


def verify_permutation(seed: int = 0, cases: int = 100) -> tuple[bool, dict]:
    rng = random.Random(seed)
    failures = []
    checked_exact = 0
    for i in range(cases):
        n = rng.randint(13, 200)
        p = random_permutation(n, rng.randrange(2**32))
        w = witnesses.permutation_witness(p)
        size = len(set(w.support))
        if size > 8 or not w.verify(p.graph):
            failures.append({"case": i, "n": n, "support_size": size})
            continue
        if n <= 20:
            checked_exact += 1
            exact = fun_vertex(p.graph, w.target).value
            if exact > 8:
                failures.append({"case": i, "n": n, "exact_fun": exact})
    return not failures, {
        "cases": cases,
        "exact_cross_checks": checked_exact,
        "failures": failures,
    }


def verify_line_graph(seed: int = 0, cases: int = 50) -> tuple[bool, dict]:
    rng = random.Random(seed)
    failures = []
    edges_checked = 0
    for i in range(cases):
        g = random_graph(30, 0.3, rng.randrange(2**32))
        line = families.line_graph(g)
        for e in line.names:
            edges_checked += 1
            w = witnesses.line_graph_witness(line, e)
            if len(w.support) > 6:
                failures.append({"case": i, "edge": list(e), "support": len(w.support)})
            # line_graph_witness replayed it on line.row; replay it on L(G) built whole
            if not w.verify(line.graph):
                failures.append({"case": i, "edge": list(e), "replay": False})
    return not failures, {
        "cases": cases,
        "edges_checked": edges_checked,
        "failures": failures,
    }


def verify_cwd_bound(seed: int = 0, cases: int = 100) -> tuple[bool, dict]:
    failures = []
    # anchor: the 4-label expression evaluates to exactly C5
    lg = kexpr.evaluate(kexpr.parse(kexpr.C5_EXPRESSION_TEXT))
    c5_edges = {(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)}
    if lg.graph.n != 5 or set(lg.graph.edges()) != c5_edges:
        failures.append({"case": "c5-anchor", "edges": sorted(map(list, lg.graph.edges()))})
    rng = random.Random(seed)
    for i in range(cases):
        e = kexpr.random_kexpression(3, 1 + rng.randint(1, 39), rng.randrange(2**32))
        report = kexpr.check_fun_cwd_bound(e)
        if not report.passed:
            failures.append({"case": f"expr-{i}", "min_fun": report.min_fun_value})
    for i in range(cases):
        script = families.random_distance_hereditary_script(
            1 + rng.randint(1, 49), rng.randrange(2**32)
        )
        g = families.distance_hereditary(script)
        if min_fun(g).value > 1:
            failures.append({"case": f"dh-{i}", "steps": len(script)})
    return not failures, {"cases": cases, "failures": failures}


def verify_sd_construction(t: int = 3) -> tuple[bool, dict]:
    if t < 1:
        # no t would be checked, so the target would pass vacuously
        raise ValueError(f"t must be >= 1, got {t}")
    results = []
    passed = True
    for tt in range(1, t + 1):
        g = sd_construction(tt).graph
        value = naive.naive_min_sd(g)
        ok = value >= tt
        passed = passed and ok
        results.append({"t": tt, "n": g.n, "min_sd": value, "passed": ok})
    return passed, {"results": results}


def verify_hypercube() -> tuple[bool, dict]:
    results = {}
    passed = True
    for n in (3, 4):
        value = fun_vertex(hypercube(n), 0).value
        lower = -(-(n - 1) // 3)
        results[f"q{n}_fun_vertex0"] = value
        passed = passed and value >= lower
    results["q4_min_fun"] = min_fun(hypercube(4)).value
    return passed, results


def verify_degeneracy_bound(seed: int = 0, cases: int = 200) -> tuple[bool, dict]:
    failures = []
    for i, g in _cycle_graphs(seed, cases):
        fg = fun_graph(g).value
        dg = degeneracy(g).value
        if fg > dg:
            failures.append({"case": i, "n": g.n, "fun_graph": fg, "degeneracy": dg})
    return not failures, {"cases": cases, "failures": failures}


def verify_sd_link(seed: int = 0, cases: int = 200) -> tuple[bool, dict]:
    """Structural inequalities tying functionality to degrees, symmetric
    differences, induced subgraphs and twins."""
    failures = []
    rng = random.Random(seed ^ 0x5D)
    for i, g in _cycle_graphs(seed, cases):
        fun_of = [fun_vertex(g, y).value for y in range(g.n)]
        for y in range(g.n):
            if fun_of[y] > min(g.degree(y), g.n - 1 - g.degree(y)):
                failures.append({"case": i, "kind": "degree", "vertex": y})
        for x, y in itertools.combinations(range(g.n), 2):
            sd = sd_pair(g, x, y)
            if fun_of[x] > sd + 1:
                failures.append({"case": i, "kind": "sd-pair", "pair": [x, y]})
            if sd == 0 and fun_of[x] > 1:
                failures.append({"case": i, "kind": "twins", "pair": [x, y]})
        fg = fun_graph(g).value
        if g.n >= 2 and fg > sd_graph(g).value + 1:
            failures.append({"case": i, "kind": "sd-graph"})
        size = rng.randint(1, g.n)
        sub, _ = induced_subgraph(g, sorted(rng.sample(range(g.n), size)))
        if fun_graph(sub).value > fg:
            failures.append({"case": i, "kind": "induced", "sub_n": size})
    return not failures, {"cases": cases, "failures": failures}


def verify_vcdim(seed: int = 0, cases: int = 50) -> tuple[bool, dict]:
    failures = []
    for n in range(1, 9):
        value = vc_dimension(families.shattering_graph(n)).value
        if value != n:
            failures.append({"kind": "shattering", "n": n, "vc": value})
    for i, g in _cycle_graphs(seed, cases):
        value = vc_dimension(g).value
        if value > g.n.bit_length() - 1 or value != naive.naive_vc_dimension(g):
            failures.append({"case": i, "n": g.n, "vc": value})
    return not failures, {"cases": cases, "failures": failures}


NO_THICK_DRAWS = 1000


def _no_thick_instance(seed: int) -> Hypergraph3:
    """First of at most NO_THICK_DRAWS seeded (60, 80) hypergraphs with no
    thick pair."""
    rng = random.Random(seed)
    for _ in range(NO_THICK_DRAWS):
        h = families.random_3_hypergraph(60, 80, rng.randrange(2**32))
        if not hyper3.thick_pairs(h):
            return h
    raise RuntimeError(
        f"no thick-pair-free hypergraph in {NO_THICK_DRAWS} draws from seed {seed}"
    )


def verify_hyper3(seed: int = 0, cases: int = 20) -> tuple[bool, dict]:
    rng = random.Random(seed)
    failures = []
    max_f = 0
    for i in range(cases):
        h = _no_thick_instance(rng.randrange(2**32))
        for s in h.edges:
            f = hyper3.witness_no_thick(h, s)
            max_f = max(max_f, len(f))
            if len(f) > hyper3.NO_THICK_WITNESS_BOUND:
                failures.append({"case": i, "s": list(s), "size": len(f)})
    fixtures = {
        "fly": hyper3.fixture_fly(),
        "windmill": hyper3.fixture_windmill(),
        "broken_windmill": hyper3.fixture_broken_windmill(),
    }
    fixture_report = {}
    for kind, h in fixtures.items():
        st = hyper3.find_thick_structure(h)
        s, f = hyper3.witness_thick(h)
        fixture_report[kind] = {"found": st.kind, "f_size": len(f)}
        if st.kind != kind or len(f) > hyper3.THICK_WITNESS_BOUND:
            failures.append({"fixture": kind, "found": st.kind, "size": len(f)})
    return not failures, {
        "cases": cases,
        "max_no_thick_f": max_f,
        "fixtures": fixture_report,
        "failures": failures,
    }


TARGETS = {
    "oracle-equivalence": verify_oracle_equivalence,
    "unit-interval": verify_unit_interval,
    "permutation": verify_permutation,
    "line-graph": verify_line_graph,
    "cwd-bound": verify_cwd_bound,
    "sd-construction": verify_sd_construction,
    "hypercube": verify_hypercube,
    "degeneracy-bound": verify_degeneracy_bound,
    "sd-link": verify_sd_link,
    "vcdim": verify_vcdim,
    "hyper3": verify_hyper3,
}


def run_target(name: str, **options):
    """(passed, payload) of target ``name``; ``options`` are parameters of
    its function, and the ones left out take that function's defaults."""
    if options.get("cases", 1) < 1:
        # zero cases would pass vacuously
        raise ValueError(f"cases must be >= 1, got {options['cases']}")
    return TARGETS[name](**options)
