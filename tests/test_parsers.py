"""Fuzz tests of the five text formats: printing then parsing gives the
instance back, and arbitrary text fed through the CLI ends in an exit code,
never a traceback."""
import contextlib
import io
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from graphfun import kexpr
from graphfun.cli import main
from graphfun.families import (
    IntervalSet,
    Permutation,
    format_hypergraph,
    format_intervals,
    format_permutation,
    parse_hypergraph,
    parse_intervals,
    parse_permutation,
    random_3_hypergraph,
    random_graph,
    random_permutation,
    random_unit_intervals,
)
from graphfun.graph import format_graph, parse_graph

seeds = st.integers(min_value=0, max_value=2**32 - 1)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(min_value=0, max_value=14), p=st.sampled_from([0.0, 0.3, 0.7, 1.0]), seed=seeds)
def test_graph_round_trip(n, p, seed):
    g = random_graph(n, p, seed)
    assert parse_graph(format_graph(g)) == g


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=20).flatmap(
    lambda n: st.permutations(range(1, n + 1))))
def test_permutation_round_trip(values):
    p = Permutation(tuple(values))
    assert parse_permutation(format_permutation(p)) == p


@settings(max_examples=60, deadline=None)
@given(st.lists(st.fractions(min_value=-20, max_value=20, max_denominator=60),
                min_size=1, max_size=12, unique=True))
def test_intervals_round_trip(lefts):
    try:
        iv = IntervalSet(tuple(lefts))
    except ValueError:  # two endpoints coincide
        assume(False)
    assert parse_intervals(format_intervals(iv)) == iv


@settings(max_examples=60, deadline=None)
@given(n=st.integers(min_value=3, max_value=9), m=st.integers(min_value=0, max_value=20), seed=seeds)
def test_hypergraph_round_trip(n, m, seed):
    h = random_3_hypergraph(n, min(m, n * (n - 1) * (n - 2) // 6), seed)
    assert parse_hypergraph(format_hypergraph(h)) == h


@settings(max_examples=60, deadline=None)
@given(k=st.integers(min_value=1, max_value=5), ops=st.integers(min_value=1, max_value=30), seed=seeds)
def test_kexpression_round_trip(k, ops, seed):
    e = kexpr.random_kexpression(k, ops, seed)
    again = kexpr.parse(kexpr.to_text(e))
    assert again == e and hash(again) == hash(e)


LINE_FORMATS = {
    "graph": (parse_graph, format_graph(random_graph(7, 0.5, 1))),
    "permutation": (parse_permutation, format_permutation(random_permutation(9, 2))),
    "intervals": (parse_intervals, format_intervals(random_unit_intervals(5, 3))),
    "hypergraph": (parse_hypergraph, format_hypergraph(random_3_hypergraph(8, 6, 4))),
}


@pytest.mark.parametrize("fmt", sorted(LINE_FORMATS))
def test_line_formats_skip_comments_and_blank_lines(fmt):
    """A leading comment, and a blank line and a comment after every line,
    leave the instance unchanged."""
    parse, text = LINE_FORMATS[fmt]
    padded = "# a comment\n\n" + "".join(ln + "\n\n  # another\n" for ln in text.splitlines())
    assert parse(padded) == parse(text)


@pytest.mark.parametrize("fmt", sorted(LINE_FORMATS))
def test_comments_may_hold_any_text(fmt):
    """The token rule reads data lines only."""
    parse, text = LINE_FORMATS[fmt]
    assert parse("# café 1_0 +1 ٢\n" + text) == parse(text)


# Each text is one that int() or Fraction() read before the token rule,
# with the line or token its message names.
@pytest.mark.parametrize("command, text, named", [
    (["fun", "min"], "3 1\n٠ ١\n", "'٠ ١'"),
    (["fun", "min"], "3 1\n0_0 1\n", "'0_0 1'"),
    (["fun", "min"], "3 1\n+0 +1\n", "'+0 +1'"),
    (["fun", "min"], "3_0 0\n", "'3_0 0'"),
    (["witness", "permutation"], "1 ٢ 3 4\n", "'1 ٢ 3 4'"),
    (["witness", "unit-interval"], "1_0\n2\n", "'1_0'"),
    (["hyper3", "bound"], "5 1\n0 1 +2\n", "'0 1 +2'"),
    (["kexpr", "eval"], "node(٢,a)\n", "expected positive label"),
], ids=["arabic-indic-edge", "underscore-edge", "plus-edge", "underscore-header",
        "arabic-indic-permutation", "underscore-interval", "plus-hyperedge", "kexpr-label"])
def test_tokens_beyond_the_formats_are_parse_errors(command, text, named, tmp_path, capsys):
    path = tmp_path / "input.txt"
    path.write_text(text, encoding="utf-8")
    assert main(command + [str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and named in captured.err, captured.err


def test_intervals_keep_their_plus_sign():
    assert parse_intervals("+1/3\n2\n") == parse_intervals("1/3\n2\n")


# Text built from tokens of every format, always separated, so that no two
# numbers run together into an instance too large to build.
TOKENS = st.one_of(
    st.integers(min_value=-2, max_value=20).map(str),
    st.builds("{}/{}".format, st.integers(min_value=-2, max_value=20),
              st.integers(min_value=0, max_value=3)),
    st.sampled_from(["x", "#", "-", "1.5", "1e9", "node", "u",
                     "eta", "rho", "(", ")", ",", "a", "b", "node(1,a)"]),
)
SEPARATORS = st.sampled_from([" ", "  ", "\n", " \n", "\t", ", "])
TEXTS = st.lists(st.tuples(TOKENS, SEPARATORS), max_size=30).map(
    lambda parts: "".join(tok + sep for tok, sep in parts))


def _replace_piece(text, index, token):
    """``text`` with its index-th word or bracket (mod their count) replaced."""
    pieces = re.split(r"(\s+|[(),])", text)
    words = [i for i, piece in enumerate(pieces) if piece and not re.fullmatch(r"\s+", piece)]
    if words:
        pieces[words[index % len(words)]] = token
    return "".join(pieces)


def _near_valid(valid):
    """Valid text, or valid text with one word or bracket replaced."""
    return st.one_of(valid, st.builds(_replace_piece, valid, st.integers(0, 300), TOKENS))


small = st.integers(min_value=1, max_value=12)
FORMATS = {
    "graph": (
        parse_graph,
        st.builds(lambda n, p, s: format_graph(random_graph(n, p, s)),
                  small, st.sampled_from([0.2, 0.5]), seeds),
        [["degeneracy"], ["fun", "min"], ["sd", "min"]],
    ),
    "permutation": (
        parse_permutation,
        st.integers(min_value=1, max_value=16).flatmap(
            lambda n: st.permutations(range(1, n + 1))).map(
            lambda values: format_permutation(Permutation(tuple(values)))),
        [["witness", "permutation"]],
    ),
    "intervals": (
        parse_intervals,
        st.builds(lambda n, s: format_intervals(random_unit_intervals(n, s)), small, seeds),
        [["witness", "unit-interval"]],
    ),
    "hypergraph": (
        parse_hypergraph,
        st.builds(lambda m, s: format_hypergraph(random_3_hypergraph(8, m, s)), small, seeds),
        [["hyper3", "bound"]],
    ),
    "k-expression": (
        kexpr.parse,
        st.builds(lambda k, ops, s: kexpr.to_text(kexpr.random_kexpression(k, ops, s)),
                  st.integers(min_value=1, max_value=4), small, seeds),
        [["kexpr", "eval"]],
    ),
}


@settings(max_examples=300, deadline=None)
@given(fmt=st.sampled_from(sorted(FORMATS)), which=st.integers(min_value=0, max_value=2),
       data=st.data())
def test_cli_survives_random_text(fmt, which, data):
    """Exit 0, 2 or 3, and 3 whenever the format's parser rejects the text."""
    parser, valid, commands = FORMATS[fmt]
    text = data.draw(st.one_of(TEXTS, _near_valid(valid)), label="text")
    try:
        parser(text)
        rejected = False
    except ValueError:
        rejected = True
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.txt"
        path.write_text(text)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(commands[which % len(commands)] + [str(path)])
    assert code in (0, 2, 3)
    if rejected:
        assert code == 3
