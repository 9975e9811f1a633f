"""Command-line front end.

One JSON report object goes to standard output; a short human summary goes
to standard error.  Exit codes: 0 success/verified, 1 property violated (a
report whose ``recheck`` or ``passed`` is false, or an internal check that
failed, such as a witness that does not replay: its message goes to
standard error and no report is written), 2 usage/configuration error,
3 input parse error (any input file its parser rejects).

All randomness flows through ``random.Random`` (the Mersenne Twister from
the Python standard library) seeded from ``--seed``; the generator identity
is recorded in every report.
"""
from __future__ import annotations

import argparse
import functools
import hashlib
import inspect
import json
import sys
import time

from . import __version__, families, hyper3, kexpr, verify, witnesses
from .functionality import FUN_EXACT_LIMIT, fun_graph, fun_vertex, is_function_of, min_fun
from .graph import format_graph, parse_graph
from .params import degeneracy, vc_dimension
from .symdiff import SD_EXACT_LIMIT, min_sd, sd_graph, sd_pair

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_PARSE = 3

RNG_NAME = "python-random-mt19937"


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _digest(*chunks: str) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(c.encode("utf-8"))
        h.update(b"\x00")
    return h.hexdigest()


def _load(path: str, parse):
    """(parse(text), text) for the file at ``path``.  A file that cannot be
    read or decoded, or that ``parse`` rejects with a ValueError, is an
    input error."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        return parse(text), text
    except (OSError, ValueError) as exc:
        raise CliError(f"{path}: {exc}", EXIT_PARSE) from exc


def _report_value(value):
    if isinstance(value, frozenset):
        return sorted(value)
    if isinstance(value, tuple):
        return [_report_value(v) for v in value]
    return value


def _fields(result, *names: str) -> dict:
    """The named fields of a solver's ``result``, in that order, as report
    values: a frozenset becomes its sorted list and a tuple a list,
    recursively; anything else is unchanged."""
    return {name: _report_value(getattr(result, name)) for name in names}


# --- subcommand handlers ----------------------------------------------------
#
# Each handler returns (result, digest chunks); main picks the exit code.


def _cmd_gen(args) -> tuple[dict, tuple[str, ...]]:
    fam = args.family
    if fam == "random-graph":
        g = families.random_graph(args.n, args.p, args.seed)
        text = format_graph(g)
        payload = {"family": fam, "n": g.n, "m": g.num_edges()}
    elif fam == "hypercube":
        g = families.hypercube(args.n)
        text = format_graph(g)
        payload = {"family": fam, "n": g.n, "m": g.num_edges()}
    elif fam == "shattering":
        g = families.shattering_graph(args.n)
        text = format_graph(g)
        payload = {"family": fam, "n": g.n, "m": g.num_edges()}
    elif fam == "permutation":
        p = families.random_permutation(args.n, args.seed)
        text = families.format_permutation(p)
        payload = {"family": fam, "n": p.n}
    elif fam == "sd-construction":
        p = families.sd_construction(args.t)
        text = families.format_permutation(p)
        payload = {"family": fam, "t": args.t, "n": p.n}
    elif fam == "unit-intervals":
        iv = families.random_unit_intervals(args.n, args.seed)
        text = families.format_intervals(iv)
        payload = {"family": fam, "n": iv.n}
    elif fam == "hypergraph":
        h = families.random_3_hypergraph(args.n, args.m, args.seed)
        text = families.format_hypergraph(h)
        payload = {"family": fam, "n": h.n, "m": len(h.edges)}
    else:  # kexpression
        e = kexpr.random_kexpression(args.k, args.ops, args.seed)
        text = kexpr.to_text(e) + "\n"
        payload = {"family": fam, "k": args.k, "ops": args.ops}
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise CliError(f"cannot write {args.out}: {exc}", EXIT_USAGE) from exc
    payload["out"] = args.out
    return payload, (fam, text)


def _cmd_fun(args) -> tuple[dict, tuple[str, ...]]:
    g, text = _load(args.graphfile, parse_graph)
    if args.mode == "vertex":
        res = fun_vertex(g, args.vertex)
    elif args.mode == "min":
        res = min_fun(g)
    else:
        res = fun_graph(g, exact_limit=args.exact_limit)
    payload = _fields(res, "value", "witness_vertex", "witness_set", "subgraph")
    if args.recheck:
        payload["recheck"] = (
            is_function_of(g, res.witness_vertex, res.witness_set, res.witness_fn.among)
            is not None
        )
    return payload, (text,)


def _cmd_sd(args) -> tuple[dict, tuple[str, ...]]:
    g, text = _load(args.graphfile, parse_graph)
    if args.mode == "pair":
        payload = {"value": sd_pair(g, args.x, args.y), "pair": [args.x, args.y]}
    elif args.mode == "min":
        payload = _fields(min_sd(g), "value", "pair")
    else:
        payload = _fields(sd_graph(g, exact_limit=args.exact_limit), "value", "pair", "subgraph")
    return payload, (text,)


def _cmd_degeneracy(args) -> tuple[dict, tuple[str, ...]]:
    g, text = _load(args.graphfile, parse_graph)
    return _fields(degeneracy(g), "value", "order"), (text,)


def _cmd_vcdim(args) -> tuple[dict, tuple[str, ...]]:
    g, text = _load(args.graphfile, parse_graph)
    return _fields(vc_dimension(g), "value", "shattered"), (text,)


def _cmd_kexpr(args) -> tuple[dict, tuple[str, ...]]:
    e, text = _load(args.exprfile, kexpr.parse)
    if args.mode == "eval":
        lg = kexpr.evaluate(e)
        payload = {
            "n": lg.graph.n,
            "edges": [list(edge) for edge in lg.graph.edges()],
            "labels": list(lg.labels),
            "names": list(lg.names),
            "label_count": kexpr.label_count(e),
        }
        return payload, (text,)
    report = kexpr.check_fun_cwd_bound(e)
    payload = {
        "passed": report.passed,
        "min_fun": report.min_fun_value,
        "bound": report.bound,
        "witness_vertex": report.witness_vertex,
        "witness_set": sorted(report.witness_set),
    }
    return payload, (text,)


def _cmd_witness(args) -> tuple[dict, tuple[str, ...]]:
    parse = {
        "unit-interval": families.parse_intervals,
        "permutation": families.parse_permutation,
        "line-graph": parse_graph,
    }[args.kind]
    instance, text = _load(args.file, parse)
    if args.kind == "unit-interval":
        t, value = witnesses.unit_interval_pair(instance)
        payload = {"t": t, "sd_value": value,
                   "sum_sd": witnesses.sum_sd_consecutive(instance)}
        return payload, (text,)
    if args.kind == "permutation":
        w = witnesses.permutation_witness(instance)
        host = instance.graph
    else:
        line = families.line_graph(instance)
        u, v = sorted(args.edge)
        if not instance.has_edge(u, v):
            raise CliError(f"({u},{v}) is not an edge", EXIT_USAGE)
        w = witnesses.line_graph_witness(line, (u, v))
        host = line
    payload = _fields(w, "target", "support", "terms")
    if args.kind == "permutation":
        payload["support_size"] = len(set(w.support))
    if args.recheck:
        payload["recheck"] = w.verify(host)
    return payload, (text,)


def _cmd_hyper3(args) -> tuple[dict, tuple[str, ...]]:
    h, text = _load(args.hypergraphfile, families.parse_hypergraph)
    if args.mode == "bound":
        report = hyper3.hyper3_fun_bound(h)
        payload = _fields(report, "s_index", "s", "f_indices", "bound", "thick_case")
        if args.recheck:
            payload["recheck"] = (
                is_function_of(h.graph, report.s_index, report.f_indices) is not None
            )
        return payload, (text,)
    # without a thick pair this raises ValueError, a usage error
    st = hyper3.find_thick_structure(h)
    return _fields(st, "kind", "s", "parts", "apex_degree"), (text,)


def _cmd_verify(args) -> tuple[dict, tuple[str, ...]]:
    options = {name: getattr(args, name) for name in args.options}
    passed, payload = verify.run_target(args.target, **options)
    result = {"target": args.target, "passed": passed, "detail": payload}
    return result, (args.target, *(f"{k}={v}" for k, v in options.items()))


# --- argument parsing -------------------------------------------------------


def _modes(sub, command: str, help: str, handler, dest: str, file: str | None,
           names: list[str], **file_options) -> dict[str, argparse.ArgumentParser]:
    """Subcommand ``command`` with one nested parser per mode, stored in
    ``dest``; each mode takes the ``file`` argument (made with
    ``file_options``; none when ``file`` is None) and only its own options."""
    p = sub.add_parser(command, help=help)
    p.set_defaults(handler=handler)
    modes = p.add_subparsers(dest=dest, required=True)
    parsers = {name: modes.add_parser(name) for name in names}
    for mode in parsers.values():
        mode.set_defaults(parser=mode)
        if file is not None:
            mode.add_argument(file, **file_options)
    return parsers


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # parse state lives in the returned Namespace, so one parser serves
    # every call of main()
    ap = argparse.ArgumentParser(
        prog="graphfun",
        description="Graph functionality, symmetric differences, "
        "k-expressions and witness constructions.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    gen = _modes(sub, "gen", "generate an instance file", _cmd_gen, "family", "--out",
                 ["random-graph", "hypercube", "shattering", "permutation",
                  "sd-construction", "unit-intervals", "hypergraph", "kexpression"],
                 required=True)
    for fam in ("random-graph", "hypercube", "shattering", "permutation",
                "unit-intervals", "hypergraph"):
        gen[fam].add_argument("--n", type=int, default=10)
    gen["hypergraph"].add_argument("--m", type=int, default=20)
    gen["random-graph"].add_argument("--p", type=float, default=0.5)
    gen["sd-construction"].add_argument("--t", type=int, default=2)
    gen["kexpression"].add_argument("--k", type=int, default=3)
    gen["kexpression"].add_argument("--ops", type=int, default=20)
    for fam in ("random-graph", "permutation", "unit-intervals", "hypergraph", "kexpression"):
        gen[fam].add_argument("--seed", type=int, default=0)

    fun = _modes(sub, "fun", "functionality of a vertex or graph", _cmd_fun,
                 "mode", "graphfile", ["vertex", "min", "graph"])
    fun["vertex"].add_argument("--vertex", type=int, required=True)
    fun["graph"].add_argument("--exact-limit", type=int, default=FUN_EXACT_LIMIT)
    for m in fun.values():
        m.add_argument("--recheck", action="store_true")

    sd = _modes(sub, "sd", "neighbourhood symmetric differences", _cmd_sd,
                "mode", "graphfile", ["pair", "min", "graph"])
    sd["pair"].add_argument("--x", type=int, required=True)
    sd["pair"].add_argument("--y", type=int, required=True)
    sd["graph"].add_argument("--exact-limit", type=int, default=SD_EXACT_LIMIT)

    d = sub.add_parser("degeneracy", help="degeneracy and elimination order")
    d.add_argument("graphfile")
    d.set_defaults(handler=_cmd_degeneracy, parser=d)

    v = sub.add_parser("vcdim", help="VC-dimension of closed neighbourhoods")
    v.add_argument("graphfile")
    v.set_defaults(handler=_cmd_vcdim, parser=v)

    _modes(sub, "kexpr", "evaluate or check a k-expression", _cmd_kexpr,
           "mode", "exprfile", ["eval", "check"])

    w = _modes(sub, "witness", "constructive small-support witnesses", _cmd_witness,
               "kind", "file", ["unit-interval", "permutation", "line-graph"])
    w["line-graph"].add_argument("--edge", type=int, nargs=2, required=True)
    w["line-graph"].add_argument("--recheck", action="store_true")
    w["permutation"].add_argument("--recheck", action="store_true")

    h = _modes(sub, "hyper3", "3-uniform hypergraph witness bounds", _cmd_hyper3,
               "mode", "hypergraphfile", ["bound", "structure"])
    h["bound"].add_argument("--recheck", action="store_true")

    ver = _modes(sub, "verify", "run a verification target", _cmd_verify,
                 "target", None, sorted(verify.TARGETS))
    for name, target in ver.items():
        # a target's options are its function's parameters, with its defaults
        params = inspect.signature(verify.TARGETS[name]).parameters
        target.set_defaults(options=tuple(params))
        for p in params.values():
            target.add_argument(f"--{p.name}", type=int, default=p.default)
    return ap


def main(argv=None) -> int:
    ap = _build_parser()
    try:
        args, extras = ap.parse_known_args(argv)
        if extras:
            # reported with the usage of the parsed mode, which names its options
            args.parser.error(f"unrecognized arguments: {' '.join(extras)}")
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    start = time.perf_counter()
    try:
        result, chunks = args.handler(args)
    except CliError as exc:
        print(str(exc), file=sys.stderr)
        return exc.code
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    except RuntimeError as exc:
        # an internal invariant failed, e.g. a witness did not replay
        print(f"internal check failed: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    elapsed = int((time.perf_counter() - start) * 1000)
    report = {
        "command": " ".join(argv if argv is not None else sys.argv[1:]),
        "input_digest": _digest(*chunks),
        "seed": getattr(args, "seed", None),
        "rng": RNG_NAME,
        "result": result,
        "timing_ms": elapsed,
        "version": __version__,
    }
    sys.stdout.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
    summary = {k: v for k, v in result.items() if not isinstance(v, (list, dict))}
    print(f"{args.command}: {summary} [{elapsed} ms]", file=sys.stderr)
    if result.get("recheck") is False or result.get("passed") is False:
        return EXIT_VIOLATION
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
