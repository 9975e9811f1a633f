"""Acceptance suite: one test per criterion, at full stated scale.

Each test prints a single PASS/FAIL line (visible with ``pytest -v -s`` or
on failure) in addition to asserting.
"""
import dataclasses
import time
from types import SimpleNamespace

import pytest

from graphfun import hyper3, kexpr, verify, witnesses
from graphfun.graph import Graph
from graphfun.naive import (
    naive_degeneracy,
    naive_fun_graph,
    naive_min_sd,
    naive_vc_dimension,
)


def _report(name, passed, payload, elapsed):
    status = "PASS" if passed else "FAIL"
    print(f"[{status}] {name} ({elapsed:.1f}s): {payload}")


def _run(name, target, **kwargs):
    start = time.time()
    passed, payload = verify.run_target(target, **kwargs)
    _report(name, passed, payload if not passed else {k: v for k, v in payload.items() if k != "failures"}, time.time() - start)
    assert passed, payload
    return payload


def test_01_oracle_equivalence():
    _run("1 oracle equivalence (200 graphs)", "oracle-equivalence", seed=0, cases=200)


def test_02_ground_truths():
    start = time.time()
    c5 = Graph.from_edge_list(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    p4 = Graph.from_edge_list(4, [(0, 1), (1, 2), (2, 3)])
    k6 = Graph.from_edge_list(6, [(i, j) for i in range(6) for j in range(i + 1, 6)])
    k5 = Graph.from_edge_list(5, [(i, j) for i in range(5) for j in range(i + 1, 5)])
    values = {
        "fun_graph(C5)": (naive_fun_graph(c5), 2),
        "fun_graph(P4)": (naive_fun_graph(p4), 1),
        "fun_graph(K6)": (naive_fun_graph(k6), 0),
        "min_sd(C5)": (naive_min_sd(c5), 2),
        "vc(C5)": (naive_vc_dimension(c5), 2),
        "degeneracy(K5)": (naive_degeneracy(k5), 4),
    }
    passed = all(got == want for got, want in values.values())
    _report("2 ground truths (naive oracles)", passed,
            {k: got for k, (got, _) in values.items()}, time.time() - start)
    for name, (got, want) in values.items():
        assert got == want, f"{name}: got {got}, want {want}"


def test_03_unit_interval():
    _run("3 unit interval bounds (100 + 50 exhaustive)", "unit-interval",
         seed=0, cases=100)


def test_04_permutation():
    _run("4 permutation witnesses <= 8 (100 cases)", "permutation", seed=0, cases=100)


def test_05_line_graphs():
    _run("5 line graph witnesses <= 6 (50 graphs)", "line-graph", seed=0, cases=50)


def test_06_clique_width():
    _run("6 clique-width bound (C5 anchor + 100 + 100)", "cwd-bound",
         seed=0, cases=100)


def test_07_sd_construction():
    _run("7 sd construction min_sd >= t, t = 1..6", "sd-construction", t=6)


def test_08_hypercube():
    _run("8 hypercube lower bounds (Q3, Q4)", "hypercube")


def test_09_vc_dimension():
    _run("9 VC-dimension (shattering graphs + log bound)", "vcdim", seed=0, cases=50)


def test_10_hypergraphs():
    _run("10 3-uniform hypergraph witnesses (20 + fixtures)", "hyper3",
         seed=0, cases=20)


def test_11_structural_inequalities():
    _run("11 structural inequalities (200 graphs)", "sd-link", seed=0, cases=200)
    _run("11 fun_graph <= degeneracy (200 graphs)", "degeneracy-bound",
         seed=0, cases=200)


def _wrong(value):
    """A solver whose result has ``value`` for every input."""
    return lambda *args, **kwargs: SimpleNamespace(value=value)


def _evaluate_one_node(e, evaluate=kexpr.evaluate):
    """kexpr.evaluate answering every expression with a single vertex."""
    return evaluate(kexpr.parse("node(1,a)"))


def _nine_point_witness(p, build=witnesses.permutation_witness):
    """permutation_witness with a support of nine points, one above the bound."""
    return dataclasses.replace(build(p), support=tuple(range(9)))


# Per target: its options, the (object, name, wrong stand-in) patches, and
# the key sets of the failure entries it must then report, one per
# failure branch.  Two permutation entries, since a witness that fails
# skips the exact cross-check of its case.
WRONG_ANSWERS = {
    "oracle-equivalence": (
        {"cases": 1}, [(verify, "fun_vertex", _wrong(-1))],
        {("case", "fast", "n", "naive", "vertex")}),
    "unit-interval": (
        {"cases": 1}, [(witnesses, "unit_interval_pair", lambda iv: (0, 2)),
                       (verify, "fun_graph", _wrong(3))],
        {("case", "pair_sd", "sum_sd", "t"), ("case", "fun_graph", "n")}),
    "permutation-witness": (
        {"cases": 1}, [(witnesses, "permutation_witness", _nine_point_witness)],
        {("case", "n", "support_size")}),
    "permutation-exact": (
        # seed 31 draws n <= 20 for its first case
        {"seed": 31, "cases": 1}, [(verify, "fun_vertex", _wrong(9))],
        {("case", "exact_fun", "n")}),
    "line-graph": (
        {"cases": 1}, [(witnesses, "line_graph_witness", lambda line, e: SimpleNamespace(
            support=tuple(range(7)), verify=lambda host: False))],
        {("case", "edge", "support"), ("case", "edge", "replay")}),
    "cwd-bound": (
        {"cases": 1}, [(kexpr, "evaluate", _evaluate_one_node),
                       (kexpr, "check_fun_cwd_bound",
                        lambda e: SimpleNamespace(passed=False, min_fun_value=9)),
                       (verify, "min_fun", _wrong(2))],
        {("case", "edges"), ("case", "min_fun"), ("case", "steps")}),
    "sd-construction": (
        {"t": 1}, [(verify.naive, "naive_min_sd", lambda g: 0)],
        {("min_sd", "n", "passed", "t")}),
    "hypercube": (
        {}, [(verify, "fun_vertex", _wrong(0))],
        {("q3_fun_vertex0", "q4_fun_vertex0", "q4_min_fun")}),
    "degeneracy-bound": (
        {"cases": 1}, [(verify, "degeneracy", _wrong(-1))],
        {("case", "degeneracy", "fun_graph", "n")}),
    "sd-link": (
        # fun(y) = n breaks the degree and pair bounds, sd 0 makes twins;
        # fun_graph = -n rises on any proper subgraph
        {"cases": 10}, [(verify, "fun_vertex", lambda g, y: SimpleNamespace(value=g.n)),
                        (verify, "sd_pair", lambda g, x, y: 0),
                        (verify, "sd_graph", _wrong(-100)),
                        (verify, "fun_graph", lambda g: SimpleNamespace(value=-g.n))],
        {("case", "kind", "vertex"), ("case", "kind", "pair"), ("case", "kind"),
         ("case", "kind", "sub_n")}),
    "vcdim": (
        {"cases": 1}, [(verify, "vc_dimension", _wrong(-1))],
        {("kind", "n", "vc"), ("case", "n", "vc")}),
    "hyper3": (
        {"cases": 1}, [(hyper3, "witness_no_thick", lambda h, s: tuple(range(463))),
                       (hyper3, "witness_thick", lambda h: ((0, 1, 2), tuple(range(129))))],
        {("case", "s", "size"), ("fixture", "found", "size")}),
}


def _failure_entries(target, payload):
    """The entries a failed run of ``target`` reports: its failures, the
    failed results of sd-construction, or the payload of hypercube."""
    if target == "sd-construction":
        return [r for r in payload["results"] if not r["passed"]]
    if target == "hypercube":
        return [payload]
    return payload["failures"]


@pytest.mark.parametrize("case", sorted(WRONG_ANSWERS))
def test_every_target_can_fail(case, monkeypatch):
    """Each target, fed a wrong answer by the solver or builder it checks,
    fails and reports every documented failure entry: none passes
    vacuously."""
    options, patches, shapes = WRONG_ANSWERS[case]
    for owner, name, stand_in in patches:
        monkeypatch.setattr(owner, name, stand_in)
    target = case.removesuffix("-witness").removesuffix("-exact")
    passed, payload = verify.run_target(target, **options)
    assert passed is False
    assert {tuple(sorted(entry)) for entry in _failure_entries(target, payload)} == shapes
