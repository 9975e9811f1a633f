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

In memory an expression is the tuple of its operations in text order:
("node", label, name), ("u",), ("eta", i, j), ("rho", i, j).  Each
operation's operands follow it, so every function here walks that tuple in
one loop and an expression may nest to any depth.
"""
from __future__ import annotations

import random
import re
from dataclasses import dataclass

from .functionality import min_fun
from .graph import Graph

KExpression = tuple[tuple, ...]


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


def _close(open_: list[int], emit) -> None:
    """After a node's name: emit its ')', the ')' of every open operation
    whose last operand it completes, and the ',' before the next operand.
    ``open_`` counts the operands each open operation still needs,
    innermost last."""
    emit(")")
    while open_:
        open_[-1] -= 1
        if open_[-1]:
            emit(",")
            return
        open_.pop()
        emit(")")


def parse(text: str) -> KExpression:
    p = _Parser(text)
    ops: list[tuple] = []
    open_: list[int] = []
    while not ops or open_:  # until one whole expression is read
        head = p.peek()
        if head not in ("node", "u", "eta", "rho"):
            p.error(f"expected expression, found {head!r}")
        p.pos += 1
        p.expect("(")
        if head == "u":
            ops.append(("u",))
            open_.append(2)
            continue
        i = p.int_token()
        p.expect(",")
        if head == "node":
            ops.append(("node", i, p.name_token()))
            _close(open_, p.expect)
            continue
        j = p.int_token()
        if head == "eta" and i == j:
            p.error("eta labels equal")
        p.expect(",")
        ops.append((head, i, j))
        open_.append(1)
    if p.pos != len(p.tokens):
        p.error(f"trailing input {p.peek()!r}")
    return tuple(ops)


def to_text(e: KExpression) -> str:
    """Canonical printer; parse(to_text(e)) == e."""
    out: list[str] = []
    open_: list[int] = []
    for op in e:
        if op[0] == "node":
            out.append(f"node({op[1]},{op[2]}")
            _close(open_, out.append)
        elif op[0] == "u":
            out.append("u(")
            open_.append(2)
        else:
            out.append(f"{op[0]}({op[1]},{op[2]},")
            open_.append(1)
    return "".join(out)


def evaluate(e: KExpression) -> LabeledGraph:
    """Build the labelled graph.  Vertex order is the text order of the
    node operations.

    The vertices of each subexpression form one contiguous range, so the
    operations are applied last to first on a stack of vertex ranges, the
    leftmost operand on top."""
    labels = [op[1] for op in e if op[0] == "node"]
    names = tuple(op[2] for op in e if op[0] == "node")
    rows = [0] * len(labels)
    ranges: list[tuple[int, int]] = []
    end = len(labels)
    for op in reversed(e):
        if op[0] == "node":
            end -= 1
            ranges.append((end, end + 1))
            continue
        if op[0] == "u":
            lo, _ = ranges.pop()
            _, hi = ranges.pop()
            ranges.append((lo, hi))
            continue
        _, i, j = op
        span = range(*ranges[-1])
        if op[0] == "rho":
            # relabel only, the graph itself is untouched
            for v in span:
                if labels[v] == i:
                    labels[v] = j
            continue
        imask = 0
        jmask = 0
        for v in span:
            if labels[v] == i:
                imask |= 1 << v
            elif labels[v] == j:
                jmask |= 1 << v
        for v in span:
            if labels[v] == i:
                rows[v] |= jmask
            elif labels[v] == j:
                rows[v] |= imask
    return LabeledGraph(Graph(len(rows), tuple(rows)), tuple(labels), names)


def label_count(e: KExpression) -> int:
    """Number of distinct labels appearing anywhere in the expression."""
    return len({lab for op in e for lab in (op[1:2] if op[0] == "node" else op[1:])})


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
    lg = evaluate(e)
    k = label_count(e)
    res = min_fun(lg.graph)
    bound = 2 * k - 1
    return CwdBoundReport(res.value <= bound, res.value, bound,
                          res.witness_vertex, res.witness_set)


def random_kexpression(k: int, ops: int, seed: int) -> KExpression:
    """Seeded random expression with ``ops`` operations over labels 1..k.
    Each step wraps the expression built so far in an eta, a rho, or a
    union with a fresh node on its right."""
    if k < 1 or ops < 1:
        raise ValueError("need k >= 1 and ops >= 1")
    rng = random.Random(seed)
    body = [("node", rng.randint(1, k), "v1")]
    outer: list[tuple] = []  # the wrapping operations, innermost first
    while len(outer) + len(body) < ops:
        choices = ["eta", "rho"] if k > 1 else []
        if len(outer) + len(body) + 2 <= ops:
            choices.append("u")
        if not choices:
            break
        kind = rng.choice(choices)
        if kind == "u":
            outer.append(("u",))
            body.append(("node", rng.randint(1, k), f"v{len(body) + 1}"))
        else:
            i, j = rng.sample(range(1, k + 1), 2)
            outer.append((kind, i, j))
    return tuple(outer[::-1] + body)


# The C5 construction over labels 1..4 used as a cross-module test anchor.
C5_EXPRESSION_TEXT = (
    "eta(4,1,eta(4,3,u(node(4,e),rho(4,3,rho(3,2,"
    "eta(4,3,u(node(4,d),eta(3,2,u(node(3,c),"
    "eta(2,1,u(node(2,b),node(1,a))))))))))))"
)
