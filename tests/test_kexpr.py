import hashlib

import pytest

from graphfun.functionality import min_fun
from graphfun.graph import Graph
from graphfun.kexpr import (
    C5_EXPRESSION_TEXT,
    KExprError,
    check_fun_cwd_bound,
    evaluate,
    label_count,
    parse,
    random_kexpression,
    to_text,
)


def test_parse_single_node():
    e = parse("node(1,a)")
    assert e == (("node", 1, "a"),)


def test_parse_round_trip():
    text = "eta(1,2,u(node(1,x),rho(2,1,node(2,y))))"
    e = parse(text)
    assert e == (("eta", 1, 2), ("u",), ("node", 1, "x"), ("rho", 2, 1), ("node", 2, "y"))
    assert to_text(e) == text
    assert parse(to_text(e)) == e


def test_parse_errors_carry_position():
    with pytest.raises(KExprError) as exc:
        parse("eta(1,1,node(1,a))")
    assert "line 1, column 8" in str(exc.value)
    with pytest.raises(KExprError):
        parse("u(node(1,a),node(1,a))")  # duplicate name
    with pytest.raises(KExprError):
        parse("node(0,a)")  # labels are positive
    with pytest.raises(KExprError):
        parse("node(1,a) extra")
    with pytest.raises(KExprError):
        parse("u(node(1,a)")
    for text, message in [
        ("node(", "unexpected end of input at line 1, column 5"),
        ("eta(1,", "unexpected end of input at line 1, column 6"),
        ("node(1,()", "expected vertex name, found '(' at line 1, column 8"),
    ]:
        with pytest.raises(KExprError) as exc:
            parse(text)
        assert message in str(exc.value), text


def test_evaluate_edge_semantics():
    # eta connects classes; rho relabels without touching edges
    e = parse("eta(1,2,u(node(1,a),u(node(1,b),node(2,c))))")
    lg = evaluate(e)
    assert set(lg.graph.edges()) == {(0, 2), (1, 2)}
    e2 = parse("rho(1,2,u(node(1,a),node(2,b)))")
    assert evaluate(e2).graph.num_edges() == 0
    assert evaluate(e2).labels == (2, 2)


def test_eta_is_idempotent():
    inner = "u(node(1,a),node(2,b))"
    once = evaluate(parse(f"eta(1,2,{inner})"))
    twice = evaluate(parse(f"eta(1,2,eta(1,2,{inner}))"))
    assert once.graph == twice.graph


def test_vertex_order_is_create_order():
    lg = evaluate(parse("u(node(1,first),node(2,second))"))
    assert lg.names == ("first", "second")


def test_c5_anchor():
    lg = evaluate(parse(C5_EXPRESSION_TEXT))
    c5 = Graph.from_edge_list(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    assert lg.graph == c5
    assert label_count(parse(C5_EXPRESSION_TEXT)) == 4


def test_label_count():
    assert label_count(parse("rho(3,1,u(node(1,a),node(2,b)))")) == 3


def test_check_fun_cwd_bound_c5():
    report = check_fun_cwd_bound(parse(C5_EXPRESSION_TEXT))
    assert report.passed
    assert report.min_fun_value == 2
    assert report.bound == 7


def test_random_kexpression_deterministic_and_bounded():
    e1 = random_kexpression(3, 25, seed=42)
    e2 = random_kexpression(3, 25, seed=42)
    assert e1 == e2
    lg = evaluate(e1)
    assert label_count(e1) <= 3
    assert min_fun(lg.graph).value <= 5  # 2 * 3 - 1


def test_generated_expressions_are_pinned():
    # one digest over the text and the evaluated graph of every small
    # generated expression, so a change of representation keeps both
    h = hashlib.sha256()
    for k in range(1, 6):
        for ops in range(1, 41):
            for seed in range(3):
                e = random_kexpression(k, ops, seed)
                lg = evaluate(e)
                h.update(repr((to_text(e), lg.graph.edges(), lg.labels, lg.names)).encode())
    assert h.hexdigest() == "fb02579e1b5cba728cbb22fc396d84fe9dcfd374e32e77f0dd35a763c08cc76a"


def test_random_kexpression_rejects_bad_params():
    with pytest.raises(ValueError):
        random_kexpression(0, 5, 0)
    with pytest.raises(ValueError):
        random_kexpression(2, 0, 0)


def test_expressions_nest_to_any_depth():
    # with one label every step is a union: 5,000 levels, 5,000 vertices
    deepest = random_kexpression(1, 9999, 0)
    text = to_text(deepest)
    assert text.startswith("u(" * 4999 + "node(1,v1),node(1,v2))")
    again = parse(text)
    assert again == deepest and hash(again) == hash(deepest)
    lg = evaluate(again)
    assert lg.graph.n == 5000 and lg.graph.num_edges() == 0
    assert lg.names[-1] == "v5000"
