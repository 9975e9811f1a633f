"""Workload definitions: instance classes, seeded instance generation and
output checking.

Every instance is one ``graphfun`` CLI invocation on an input file written
by the benchmark.  Inputs come from a fixed pool per class: pool entry ``i``
of class ``c`` is generated through ``graphfun.families`` from the generator
seed ``crc32(f"{c}/{i}")``, and its expected results were recorded once in
``expected.json`` by ``record_expected.py``.

A cycle holds one pool entry of every class of the workload, and one pass
runs every pool entry once, in as many cycles as a class has entries.  The
``--seed`` of a run shuffles, through ``random.Random(seed)``, the order in
which each class's entries come and the order of the instances within each
cycle.  A run measures whole passes only.  Instance costs are heavy-tailed,
so a run that timed a seed-chosen sample of the pool would spread from seed
to seed by more than the regression bounds; a whole pass has the same cost
under every seed.
"""
from __future__ import annotations

import json
import os
import random
import zlib
from dataclasses import dataclass
from hashlib import sha256
from typing import Callable, Optional

# Edges of each G(30, 0.3) that get a line-graph witness instance.
LINE_GRAPH_EDGES = 24

# Witness size bounds the paper proves; a reported witness above its bound
# is a failed instance even if the recorded value agrees.
LINE_GRAPH_BOUND = 6
PERMUTATION_BOUND = 8
HYPER3_BOUNDS = {False: 462, True: 128}


@dataclass(frozen=True)
class InputClass:
    """One family of generated inputs and the commands run on each."""

    name: str
    # gen_seed -> (file suffix, file text, graph or None)
    make: Callable[[int], tuple]
    # (input graph or None, gen_seed) -> [(command id, argv after the file)]
    commands: Callable[[object, int], list]
    fixed: bool = False  # seed-independent fixture: pool of one entry


@dataclass(frozen=True)
class Workload:
    name: str
    classes: tuple[InputClass, ...]
    pool: int  # entries per class, and cycles per pass


@dataclass
class Instance:
    input_id: str
    command_id: str
    argv: list[str]
    expected: Optional[int]
    graph: object = None  # Graph of graph inputs, for output checks
    digest_ok: bool = True

    @property
    def key(self) -> str:
        return f"{self.input_id}:{self.command_id}"


def gen_seed(class_name: str, index: int) -> int:
    return zlib.crc32(f"{class_name}/{index}".encode())


def text_digest(text: str) -> str:
    return sha256(text.encode()).hexdigest()[:16]


# --- input makers ------------------------------------------------------------


def _graph_input(build):
    def make(seed: int):
        from graphfun import families
        from graphfun.graph import format_graph

        g = build(families, seed)
        return ".graph", format_graph(g), g

    return make


def _gnp(n: int, p: float):
    return _graph_input(lambda f, s: f.random_graph(n, p, s))


def _unit_interval(n: int):
    return _graph_input(lambda f, s: f.unit_interval_graph(f.random_unit_intervals(n, s)))


def _permutation_graph(n: int):
    return _graph_input(lambda f, s: f.permutation_graph(f.random_permutation(n, s)))


def _permutation(n: int):
    def make(seed: int):
        from graphfun import families

        return ".perm", families.format_permutation(families.random_permutation(n, seed)), None

    return make


def _hypergraph(n: int, m: int):
    def make(seed: int):
        from graphfun import families

        return ".hyper", families.format_hypergraph(families.random_3_hypergraph(n, m, seed)), None

    return make


def _fixture(name: str):
    def make(seed: int):
        from graphfun import families, hyper3

        return ".hyper", families.format_hypergraph(getattr(hyper3, name)()), None

    return make


# --- commands ------------------------------------------------------------------


def _sweep_commands(g, seed):
    return [("fun-graph", ["fun", "graph", "{file}", "--recheck"]),
            ("sd-graph", ["sd", "graph", "{file}"])]


def _vertex_command(g, seed):
    v = seed % g.n
    return [(f"fun-vertex-{v}", ["fun", "vertex", "{file}", "--vertex", str(v), "--recheck"])]


def _min_command(g, seed):
    return [("fun-min", ["fun", "min", "{file}", "--recheck"])]


def _vertex_and_min(g, seed):
    return _vertex_command(g, seed) + _min_command(g, seed)


def _line_graph_commands(g, seed):
    edges = random.Random(seed).sample(g.edges(), LINE_GRAPH_EDGES)
    return [(f"witness-line-graph-{u}-{v}",
             ["witness", "line-graph", "{file}", "--edge", str(u), str(v), "--recheck"])
            for u, v in sorted(edges)]


def _permutation_command(g, seed):
    return [("witness-permutation", ["witness", "permutation", "{file}", "--recheck"])]


def _hyper3_command(g, seed):
    return [("hyper3-bound", ["hyper3", "bound", "{file}", "--recheck"])]


def _workloads() -> dict[str, Workload]:
    sweep = tuple(
        InputClass(f"gnp-n12-p{p}", _gnp(12, p), _sweep_commands) for p in (0.2, 0.5, 0.8)
    ) + (InputClass("unit-interval-n12", _unit_interval(12), _sweep_commands),)
    vertex = tuple(
        InputClass(f"gnp-n{n}-p0.5-vertex", _gnp(n, 0.5), _vertex_command)
        for n in range(26, 31)
    ) + tuple(
        InputClass(f"gnp-n{n}-p0.5-min", _gnp(n, 0.5), _min_command) for n in (20, 22, 24)
    ) + (InputClass("permutation-graph-n20", _permutation_graph(20), _vertex_and_min),)
    witness = (
        (InputClass("gnp-n30-p0.3-line-graph", _gnp(30, 0.3), _line_graph_commands),)
        + tuple(InputClass(f"permutation-n{n}", _permutation(n), _permutation_command)
                for n in (13, 20, 30, 50, 75, 100, 150, 200))
        + (InputClass("hypergraph-n60-m80", _hypergraph(60, 80), _hyper3_command),)
        + tuple(InputClass(name.replace("_", "-"), _fixture(name), _hyper3_command, fixed=True)
                for name in ("fixture_fly", "fixture_windmill", "fixture_broken_windmill"))
    )
    # One pass over each pool takes about 8-14 s on a 2-vCPU virtual machine
    # with Python 3.11, so a 30 s run times two or three whole passes.
    return {
        "sweep": Workload("sweep", sweep, pool=16),
        "vertex-search": Workload("vertex-search", vertex, pool=40),
        "witness-replay": Workload("witness-replay", witness, pool=20),
    }


WORKLOADS = _workloads()

# Smallest classes of each workload, used by the smoke mode.
SMOKE_CLASSES = {
    "sweep": ("gnp-n12-p0.5",),
    "vertex-search": ("gnp-n26-p0.5-vertex", "permutation-graph-n20"),
    "witness-replay": ("gnp-n30-p0.3-line-graph", "permutation-n13",
                       "hypergraph-n60-m80", "fixture-fly"),
}
SMOKE_LINE_GRAPH_EDGES = 6


def pool_indices(workload: Workload, cls: InputClass) -> range:
    return range(1 if cls.fixed else workload.pool)


def input_id(cls: InputClass, index: int) -> str:
    return f"{cls.name}/{index}"


def make_input(cls: InputClass, index: int):
    """(file suffix, text, graph or None, command list) of one pool entry."""
    seed = gen_seed(cls.name, index)
    suffix, text, graph = cls.make(seed)
    return suffix, text, graph, cls.commands(graph, seed)


def build_cycles(workload: Workload, seed: int, workdir: str, expected: dict,
                 smoke: bool = False) -> list[list[Instance]]:
    """Generate and write the inputs of one pass; return its instances by
    cycle, each cycle shuffled."""
    rng = random.Random(seed)
    classes = workload.classes
    cycles = workload.pool
    if smoke:
        classes = tuple(c for c in classes if c.name in SMOKE_CLASSES[workload.name])
        cycles = 1
    picks = {}
    for cls in classes:
        order = list(pool_indices(workload, cls))
        rng.shuffle(order)
        picks[cls.name] = [order[k % len(order)] for k in range(cycles)]
    written: dict[str, tuple] = {}
    out = []
    for k in range(cycles):
        cycle = []
        for cls in classes:
            index = picks[cls.name][k]
            iid = input_id(cls, index)
            if iid not in written:
                suffix, text, graph, commands = make_input(cls, index)
                path = os.path.join(workdir, iid.replace("/", "_") + suffix)
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(text)
                record = expected.get(iid)
                ok = record is not None and record["sha256"] == text_digest(text)
                written[iid] = (path, graph, commands, record, ok)
            path, graph, commands, record, ok = written[iid]
            if smoke and len(commands) > SMOKE_LINE_GRAPH_EDGES:
                commands = rng.sample(commands, SMOKE_LINE_GRAPH_EDGES)
            for cid, argv in commands:
                value = record["results"].get(cid) if ok else None
                cycle.append(Instance(
                    iid, cid, [path if a == "{file}" else a for a in argv],
                    value, graph, ok))
        rng.shuffle(cycle)
        out.append(cycle)
    return out


def load_expected(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)["inputs"]


# --- output checking ---------------------------------------------------------


def result_value(command_id: str, result: dict) -> int:
    """The value compared against the recorded one: the solver's value, or
    the witness size for witness commands (supports may change their
    tie-breaks, their size may not)."""
    if command_id.startswith("witness-line-graph"):
        return len(set(result["support"]))
    if command_id == "witness-permutation":
        return result["support_size"]
    if command_id == "hyper3-bound":
        return result["bound"]
    return result["value"]


def _sd_in_subgraph(rows, subset: int, x: int, y: int) -> int:
    return ((rows[x] ^ rows[y]) & subset & ~(1 << x) & ~(1 << y)).bit_count()


def check(inst: Instance, code: int, result: Optional[dict]) -> list[str]:
    """Reasons the output is wrong; empty when it is right."""
    if not inst.digest_ok:
        return ["generated input differs from the recorded one"]
    if code != 0:
        return [f"exit code {code}"]
    if result is None:
        return ["no report"]
    problems = []
    value = result_value(inst.command_id, result)
    if value != inst.expected:
        problems.append(f"value {value} != expected {inst.expected}")
    if "--recheck" in inst.argv and result.get("recheck") is not True:
        problems.append("recheck not true")
    cid = inst.command_id
    if cid.startswith("witness-line-graph") and value > LINE_GRAPH_BOUND:
        problems.append(f"line-graph witness of size {value}")
    if cid == "witness-permutation" and value > PERMUTATION_BOUND:
        problems.append(f"permutation witness of size {value}")
    if cid == "hyper3-bound" and value > HYPER3_BOUNDS[result["thick_case"]]:
        problems.append(f"hyper3 witness of size {value}")
    if cid == "sd-graph":
        x, y = result["pair"]
        subset = 0
        for v in result["subgraph"]:
            subset |= 1 << v
        if not (subset >> x & 1 and subset >> y & 1):
            problems.append("sd pair outside the reported subgraph")
        elif _sd_in_subgraph(inst.graph.rows, subset, x, y) != value:
            problems.append("sd_pair on the reported subgraph differs from the value")
    return problems
