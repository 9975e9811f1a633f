"""Clique-width k-expressions: parser, printer, evaluator, and the
functionality-vs-label-count bound checker.

Concrete syntax (whitespace between tokens is ignored):

    expr := 'node' '(' INT ',' NAME ')'
          | 'u'    '(' expr ',' expr ')'
          | 'eta'  '(' INT ',' INT ',' expr ')'
          | 'rho'  '(' INT ',' INT ',' expr ')'

INT is a positive base-10 label, NAME is [A-Za-z0-9_]+.  'u' is disjoint
union, eta(i,j,...) connects every i-labelled vertex to every j-labelled
vertex, rho(i,j,...) renames label i to j.

The parser, printer and evaluator recurse once per nesting level, so an
expression may nest at most MAX_DEPTH levels: ``parse`` rejects deeper text
and ``random_kexpression`` refuses to build a deeper tree.
"""
from __future__ import annotations

import random
import re
from dataclasses import dataclass
from typing import Union

from .graph import Graph

# Leaves 100 frames of Python's default recursion limit of 1000 to callers.
MAX_DEPTH = 900


@dataclass(frozen=True)
class Create:
    label: int
    name: str


@dataclass(frozen=True)
class UnionNode:
    left: "KExpression"
    right: "KExpression"


@dataclass(frozen=True)
class Eta:
    i: int
    j: int
    sub: "KExpression"


@dataclass(frozen=True)
class Rho:
    i: int
    j: int
    sub: "KExpression"


KExpression = Union[Create, UnionNode, Eta, Rho]


@dataclass(frozen=True)
class LabeledGraph:
    graph: Graph
    labels: tuple[int, ...]
    names: tuple[str, ...]


class KExprError(ValueError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} at line {line}, column {column}")
        self.line = line
        self.column = column


_TOKEN = re.compile(r"[A-Za-z0-9_]+|[(),]|\S")


def _tokenize(text: str):
    tokens = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        for m in _TOKEN.finditer(line):
            tokens.append((m.group(), lineno, m.start() + 1))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.names: set[str] = set()

    def error(self, message: str):
        if self.pos < len(self.tokens):
            _, line, col = self.tokens[self.pos]
        elif self.tokens:
            _, line, col = self.tokens[-1]
        else:
            line, col = 1, 1
        raise KExprError(message, line, col)

    def peek(self):
        return self.tokens[self.pos][0] if self.pos < len(self.tokens) else None

    def take(self):
        if self.pos >= len(self.tokens):
            self.error("unexpected end of input")
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, want: str):
        tok = self.peek()
        if tok != want:
            self.error(f"expected {want!r}, found {tok!r}")
        self.pos += 1

    def int_token(self) -> int:
        tok, _, _ = self.take()
        if not (tok.isascii() and tok.isdigit()) or int(tok) < 1:
            self.pos -= 1
            self.error(f"expected positive label, found {tok!r}")
        return int(tok)

    def name_token(self) -> str:
        tok, _, _ = self.take()
        if not re.fullmatch(r"[A-Za-z0-9_]+", tok):
            self.pos -= 1
            self.error(f"expected vertex name, found {tok!r}")
        if tok in self.names:
            self.pos -= 1
            self.error(f"duplicate vertex name {tok!r}")
        self.names.add(tok)
        return tok

    def expr(self, depth: int = 1) -> KExpression:
        if depth > MAX_DEPTH:
            self.error("expression nested too deeply")
        head = self.peek()
        if head == "node":
            self.pos += 1
            self.expect("(")
            label = self.int_token()
            self.expect(",")
            name = self.name_token()
            self.expect(")")
            return Create(label, name)
        if head == "u":
            self.pos += 1
            self.expect("(")
            left = self.expr(depth + 1)
            self.expect(",")
            right = self.expr(depth + 1)
            self.expect(")")
            return UnionNode(left, right)
        if head in ("eta", "rho"):
            self.pos += 1
            self.expect("(")
            i = self.int_token()
            self.expect(",")
            j = self.int_token()
            self.expect(",")
            sub = self.expr(depth + 1)
            self.expect(")")
            if head == "eta":
                if i == j:
                    self.error("eta labels equal")
                return Eta(i, j, sub)
            return Rho(i, j, sub)
        self.error(f"expected expression, found {head!r}")


def parse(text: str) -> KExpression:
    p = _Parser(text)
    tree = p.expr()
    if p.pos != len(p.tokens):
        p.error(f"trailing input {p.peek()!r}")
    return tree


def to_text(e: KExpression) -> str:
    """Canonical printer; parse(to_text(e)) == e."""
    if isinstance(e, Create):
        return f"node({e.label},{e.name})"
    if isinstance(e, UnionNode):
        return f"u({to_text(e.left)},{to_text(e.right)})"
    if isinstance(e, Eta):
        return f"eta({e.i},{e.j},{to_text(e.sub)})"
    return f"rho({e.i},{e.j},{to_text(e.sub)})"


def evaluate(e: KExpression) -> LabeledGraph:
    """Build the labelled graph.  Vertex order is the left-to-right order
    of Create nodes in the expression."""
    rows, labels, names = _eval(e)
    n = len(rows)
    return LabeledGraph(Graph(n, tuple(rows)), tuple(labels), tuple(names))


def _eval(e: KExpression) -> tuple[list[int], list[int], list[str]]:
    if isinstance(e, Create):
        return [0], [e.label], [e.name]
    if isinstance(e, UnionNode):
        lr, ll, ln = _eval(e.left)
        rr, rl, rn = _eval(e.right)
        shift = len(lr)
        rows = lr + [r << shift for r in rr]
        return rows, ll + rl, ln + rn
    rows, labels, names = _eval(e.sub)
    if isinstance(e, Eta):
        imask = 0
        jmask = 0
        for v, lab in enumerate(labels):
            if lab == e.i:
                imask |= 1 << v
            elif lab == e.j:
                jmask |= 1 << v
        for v, lab in enumerate(labels):
            if lab == e.i:
                rows[v] |= jmask
            elif lab == e.j:
                rows[v] |= imask
        return rows, labels, names
    # Rho: relabel only, the graph itself is untouched
    return rows, [e.j if lab == e.i else lab for lab in labels], names


def label_count(e: KExpression) -> int:
    """Number of distinct labels appearing anywhere in the expression."""
    return len(_labels(e))


def _labels(e: KExpression) -> set[int]:
    if isinstance(e, Create):
        return {e.label}
    if isinstance(e, UnionNode):
        return _labels(e.left) | _labels(e.right)
    return {e.i, e.j} | _labels(e.sub)


@dataclass(frozen=True)
class CwdBoundReport:
    passed: bool
    min_fun_value: int
    bound: int
    witness_vertex: int
    witness_set: frozenset[int]


def check_fun_cwd_bound(e: KExpression) -> CwdBoundReport:
    """Check min_fun(eval(e)) <= 2 * label_count(e) - 1.

    A failure would falsify this implementation, not the underlying
    inequality between functionality and clique-width.
    """
    from .functionality import min_fun

    lg = evaluate(e)
    k = label_count(e)
    res = min_fun(lg.graph)
    bound = 2 * k - 1
    return CwdBoundReport(res.value <= bound, res.value, bound,
                          res.witness_vertex, res.witness_set)


def random_kexpression(k: int, ops: int, seed: int) -> KExpression:
    """Seeded random expression with ``ops`` operations over labels 1..k.
    Each operation after the first adds one nesting level (a union adds
    two operations); a tree that would nest deeper than MAX_DEPTH raises
    ``ValueError``."""
    if k < 1 or ops < 1:
        raise ValueError("need k >= 1 and ops >= 1")
    rng = random.Random(seed)
    counter = 0

    def fresh() -> Create:
        nonlocal counter
        counter += 1
        return Create(rng.randint(1, k), f"v{counter}")

    tree: KExpression = fresh()
    ops_used = depth = 1
    while ops_used < ops:
        choices = ["eta", "rho"] if k > 1 else []
        if ops_used + 2 <= ops:
            choices.append("union")
        if not choices:
            break
        if depth == MAX_DEPTH:
            raise ValueError(f"{ops} operations nest deeper than the limit of "
                             f"{MAX_DEPTH} levels")
        depth += 1
        kind = rng.choice(choices)
        if kind == "union":
            tree = UnionNode(tree, fresh())
            ops_used += 2
        elif kind == "eta":
            i, j = rng.sample(range(1, k + 1), 2)
            tree = Eta(i, j, tree)
            ops_used += 1
        else:
            i, j = rng.sample(range(1, k + 1), 2)
            tree = Rho(i, j, tree)
            ops_used += 1
    return tree


# The C5 construction over labels 1..4 used as a cross-module test anchor.
C5_EXPRESSION_TEXT = (
    "eta(4,1,eta(4,3,u(node(4,e),rho(4,3,rho(3,2,"
    "eta(4,3,u(node(4,d),eta(3,2,u(node(3,c),"
    "eta(2,1,u(node(2,b),node(1,a))))))))))))"
)
