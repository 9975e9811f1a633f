import ast
import importlib
import inspect
import json
import os
import resource
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import graphfun
from graphfun import cli
from graphfun.cli import main
from graphfun.families import random_graph
from graphfun.graph import write_graph


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    report = json.loads(out) if out.strip() else None
    return code, report


@pytest.fixture
def graph_file(tmp_path):
    path = tmp_path / "g.txt"
    write_graph(random_graph(8, 0.5, 3), path)
    return str(path)


def test_gen_and_fun_graph(tmp_path, capsys):
    out = str(tmp_path / "c5.txt")
    code, _ = run(capsys, ["gen", "random-graph", "--n", "5", "--p", "0", "--seed", "0", "--out", out])
    assert code == 0
    # overwrite with an actual C5
    (tmp_path / "c5.txt").write_text("5 5\n0 1\n0 4\n1 2\n2 3\n3 4\n")
    code, report = run(capsys, ["fun", "graph", str(tmp_path / "c5.txt")])
    assert code == 0
    assert report["result"]["value"] == 2


def test_fun_vertex_and_min(graph_file, capsys):
    code, report = run(capsys, ["fun", "vertex", graph_file, "--vertex", "0"])
    assert code == 0 and "value" in report["result"]
    code, report = run(capsys, ["fun", "min", graph_file, "--recheck"])
    assert code == 0 and report["result"]["recheck"] is True


def test_determinism(graph_file, capsys):
    _, r1 = run(capsys, ["fun", "graph", graph_file])
    _, r2 = run(capsys, ["fun", "graph", graph_file])
    assert r1["result"] == r2["result"]
    assert r1["input_digest"] == r2["input_digest"]


def test_sd_and_params(graph_file, capsys):
    code, report = run(capsys, ["sd", "pair", graph_file, "--x", "0", "--y", "1"])
    assert code == 0 and report["result"]["pair"] == [0, 1]
    code, report = run(capsys, ["sd", "min", graph_file])
    assert code == 0
    code, report = run(capsys, ["degeneracy", graph_file])
    assert code == 0 and len(report["result"]["order"]) == 8
    code, report = run(capsys, ["vcdim", graph_file])
    assert code == 0 and report["result"]["value"] <= 3


def test_kexpr_eval_and_check(tmp_path, capsys):
    from graphfun.kexpr import C5_EXPRESSION_TEXT

    path = tmp_path / "c5.kx"
    path.write_text(C5_EXPRESSION_TEXT + "\n")
    code, report = run(capsys, ["kexpr", "eval", str(path)])
    assert code == 0 and report["result"]["n"] == 5
    code, report = run(capsys, ["kexpr", "check", str(path)])
    assert code == 0
    assert report["result"]["passed"] and report["result"]["min_fun"] == 2
    assert report["result"]["bound"] == 7


def test_witness_commands(tmp_path, capsys):
    code, _ = run(capsys, ["gen", "permutation", "--n", "20", "--seed", "1",
                           "--out", str(tmp_path / "p.txt")])
    assert code == 0
    code, report = run(capsys, ["witness", "permutation", str(tmp_path / "p.txt"), "--recheck"])
    assert code == 0
    assert report["result"]["support_size"] <= 8 and report["result"]["recheck"]

    code, _ = run(capsys, ["gen", "unit-intervals", "--n", "10", "--seed", "1",
                           "--out", str(tmp_path / "iv.txt")])
    assert code == 0
    code, report = run(capsys, ["witness", "unit-interval", str(tmp_path / "iv.txt")])
    assert code == 0 and report["result"]["t"] >= 1

    (tmp_path / "k4.txt").write_text("4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
    code, report = run(capsys, ["witness", "line-graph", str(tmp_path / "k4.txt"),
                                "--edge", "0", "1", "--recheck"])
    assert code == 0 and report["result"]["recheck"]


def test_hyper3_commands(tmp_path, capsys):
    code, _ = run(capsys, ["gen", "hypergraph", "--n", "40", "--m", "30", "--seed", "2",
                           "--out", str(tmp_path / "h.txt")])
    assert code == 0
    code, report = run(capsys, ["hyper3", "bound", str(tmp_path / "h.txt"), "--recheck"])
    assert code == 0
    assert report["result"]["bound"] <= 462 and report["result"]["recheck"]
    # no thick pair -> structure lookup is a usage error
    code, _ = run(capsys, ["hyper3", "structure", str(tmp_path / "h.txt")])
    assert code == 2


def test_verify_subcommand(capsys):
    code, report = run(capsys, ["verify", "sd-construction", "--t", "3"])
    assert code == 0 and report["result"]["passed"]
    code, report = run(capsys, ["verify", "hypercube"])
    assert code == 0 and report["result"]["passed"]


def test_usage_errors(graph_file, tmp_path, capsys):
    assert main(["fun", "vertex", graph_file]) == 2  # missing --vertex
    assert main(["nonsense"]) == 2
    capsys.readouterr()
    for x, y in (("0", "9"), ("-1", "2"), ("3", "8")):  # graph_file has 8 vertices
        assert main(["sd", "pair", graph_file, "--x", x, "--y", y]) == 2
        assert "out of range" in capsys.readouterr().err
    p4 = tmp_path / "p4.txt"
    p4.write_text("4 3\n0 1\n1 2\n2 3\n")
    for u, v, message in (("7", "8", "out of range"), ("-1", "3", "out of range"),
                          ("0", "3", "not an edge"), ("2", "2", "not an edge")):
        assert main(["witness", "line-graph", str(p4), "--edge", u, v]) == 2
        assert message in capsys.readouterr().err
    # inputs that parse but are too small for the construction
    p12 = tmp_path / "p12.txt"
    p12.write_text(" ".join(str(v) for v in range(12, 0, -1)) + "\n")
    one = tmp_path / "iv1.txt"
    one.write_text("1/3\n")
    for kind, path, message in (("permutation", p12, "at least 13 points"),
                                ("unit-interval", one, "at least 2 intervals")):
        assert main(["witness", kind, str(path)]) == 2
        assert message in capsys.readouterr().err


def test_options_of_other_modes_are_rejected(graph_file, tmp_path, capsys):
    from graphfun import families, hyper3

    files = {"graph": graph_file}
    for name, text in (("iv", "1/3\n2\n"),
                       ("perm", families.format_permutation(families.random_permutation(20, 1))),
                       ("hyper", families.format_hypergraph(hyper3.fixture_fly()))):
        (tmp_path / name).write_text(text)
        files[name] = str(tmp_path / name)
    for command, kind, options in (
        (["witness", "unit-interval"], "iv", ["--recheck"]),
        (["witness", "unit-interval"], "iv", ["--edge", "0", "1"]),
        (["witness", "permutation"], "perm", ["--edge", "0", "1"]),
        (["hyper3", "structure"], "hyper", ["--recheck"]),
        (["fun", "min"], "graph", ["--vertex", "0"]),
        (["fun", "graph"], "graph", ["--vertex", "0"]),
        (["fun", "vertex"], "graph", ["--vertex", "0", "--exact-limit", "5"]),
        (["fun", "min"], "graph", ["--exact-limit", "5"]),
        (["sd", "min"], "graph", ["--x", "0", "--y", "1"]),
        (["sd", "graph"], "graph", ["--x", "0", "--y", "1"]),
        (["sd", "pair"], "graph", ["--x", "0", "--y", "1", "--exact-limit", "5"]),
        (["sd", "min"], "graph", ["--exact-limit", "5"]),
        (["sd", "pair"], "graph", ["--x", "0"]),
        (["witness", "line-graph"], "graph", []),
    ):
        argv = command + [files[kind]] + options
        assert main(argv) == 2, argv
        assert capsys.readouterr().out == "", argv
        # the same command without the stray options runs
        if options and command[-1] not in ("pair", "vertex"):
            assert main(command + [files[kind]]) == 0, command
            capsys.readouterr()
    # gen: each family takes only the options it reads
    out = tmp_path / "gen.out"
    for family, own, stray in (
        ("hypercube", ["--n", "3"], ["--seed", "5", "--p", "0.9"]),
        ("hypercube", ["--n", "3"], ["--p", "0.9"]),
        ("random-graph", ["--n", "5"], ["--m", "99"]),
        ("random-graph", ["--n", "5"], ["--t", "7", "--ops", "3"]),
        ("shattering", ["--n", "3"], ["--seed", "1"]),
        ("permutation", ["--n", "5", "--seed", "1"], ["--p", "0.5"]),
        ("sd-construction", ["--t", "2"], ["--n", "4"]),
        ("unit-intervals", ["--n", "5", "--seed", "1"], ["--m", "3"]),
        ("hypergraph", ["--n", "6", "--m", "4", "--seed", "1"], ["--k", "3"]),
        ("kexpression", ["--k", "2", "--ops", "5", "--seed", "1"], ["--n", "4"]),
    ):
        argv = ["gen", family, "--out", str(out)] + own
        assert main(argv + stray) == 2, argv + stray
        assert capsys.readouterr().out == "" and not out.exists(), argv + stray
        assert main(argv) == 0, argv
        capsys.readouterr()
        out.unlink()
    # verify: each target takes only the parameters of its function
    from graphfun import verify

    reads = {target: ("--seed", "--cases") for target in verify.TARGETS}
    reads.update({"sd-construction": ("--t",), "hypercube": ()})
    for target, own in sorted(reads.items()):
        argv = ["verify", target] + (["--cases", "1"] if "--cases" in own else [])
        for option in ("--seed", "--cases", "--t"):
            if option not in own:
                assert main(argv + [option, "1"]) == 2, argv + [option]
                assert capsys.readouterr().out == "", argv + [option]
        assert main(argv) == 0, argv
        capsys.readouterr()
    code, report = run(capsys, ["verify", "hypercube"])
    assert code == 0 and report["seed"] is None
    # a default gets the same digest whether it is spelled out or left out
    for left_out, spelled_out in ((["--cases", "2"], ["--seed", "0", "--cases", "2"]),
                                  ([], ["--seed", "0", "--cases", "200"])):
        digests = {run(capsys, ["verify", "oracle-equivalence"] + options)[1]["input_digest"]
                   for options in (left_out, spelled_out)}
        assert len(digests) == 1, spelled_out


@pytest.mark.parametrize("argv, usage", [
    (["verify", "hypercube", "--seed", "5"], "usage: graphfun verify hypercube "),
    (["fun", "vertex", "{graph}", "--vertex", "0", "--bogus"], "usage: graphfun fun vertex "),
    (["gen", "hypercube", "--out", "{out}", "--seed", "5"], "usage: graphfun gen hypercube "),
    (["sd", "graph", "{graph}", "--x", "0"], "usage: graphfun sd graph "),
    (["degeneracy", "{graph}", "extra"], "usage: graphfun degeneracy "),
    (["--bogus", "fun", "min", "{graph}"], "usage: graphfun fun min "),
    (["kexpr", "eval", "{graph}", "--bogus"], "usage: graphfun kexpr eval "),
])
def test_stray_options_are_reported_with_the_mode_usage(argv, usage, graph_file, tmp_path,
                                                          capsys):
    """An option the parsed mode does not take is an error of that mode, so
    the usage shown lists the options it does take."""
    out = tmp_path / "gen.out"
    argv = [a.format(graph=graph_file, out=out) for a in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err.startswith(usage), captured.err
    assert "unrecognized arguments: " in captured.err


def test_verify_rejects_nonpositive_cases(capsys):
    for cases in ("0", "-1"):
        assert main(["verify", "oracle-equivalence", "--cases", cases]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "cases must be >= 1" in captured.err


def test_verify_rejects_nonpositive_t(capsys):
    for t in ("0", "-3"):
        assert main(["verify", "sd-construction", "--t", t]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "t must be >= 1" in captured.err


def test_parse_errors(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("not a graph\n")
    assert main(["fun", "min", str(bad)]) == 3
    badkx = tmp_path / "bad.kx"
    badkx.write_text("eta(1,1,node(1,a))\n")
    assert main(["kexpr", "eval", str(badkx)]) == 3
    assert main(["fun", "min", str(tmp_path / "missing.txt")]) == 3
    latin1 = tmp_path / "latin1.txt"
    latin1.write_bytes(b"1 0\n# caf\xe9\n")  # not UTF-8: used to exit 2
    assert main(["fun", "min", str(latin1)]) == 3


def test_non_ascii_digit_labels_are_parse_errors(tmp_path, capsys):
    # str.isdigit accepts superscripts, which int() then rejects
    for text in ("node(\u00b2,a)\n", "eta(1,\u00b9,node(1,a))\n"):
        path = tmp_path / "label.kx"
        path.write_text(text, encoding="utf-8")
        assert main(["kexpr", "eval", str(path)]) == 3, text
        err = capsys.readouterr().err
        assert "expected positive label" in err and "at line 1, column" in err


def test_hyper3_bound_on_an_empty_hypergraph_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "h.txt"
    path.write_text("0 0\n")
    assert main(["hyper3", "bound", str(path)]) == 2
    assert "need at least one hyperedge" in capsys.readouterr().err


@pytest.mark.parametrize("text,message", [("3 0 5\n", "bad header line"),
                                          ("-1 0\n", "vertex count")])
def test_bad_hypergraph_headers_are_parse_errors(tmp_path, capsys, text, message):
    path = tmp_path / "h.txt"
    path.write_text(text)
    assert main(["hyper3", "bound", str(path)]) == 3
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("line", ["1 2", "1 2 3 3"])
def test_hyperedge_lines_of_other_than_three_vertices_are_parse_errors(tmp_path, capsys, line):
    path = tmp_path / "h.txt"
    path.write_text(f"5 1\n{line}\n")
    assert main(["hyper3", "bound", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "must have 3 distinct vertices" in captured.err


@pytest.mark.parametrize("argv, message", [
    (["gen", "permutation", "--n", "0", "--out", "{tmp}/out.txt"], "need n >= 1"),
    (["gen", "random-graph", "--n", "-1", "--out", "{tmp}/out.txt"], "need n >= 0 and 0 <= p <= 1"),
    (["gen", "random-graph", "--p", "1.5", "--out", "{tmp}/out.txt"], "need n >= 0 and 0 <= p <= 1"),
    (["gen", "unit-intervals", "--n", "0", "--out", "{tmp}/out.txt"], "need n >= 1"),
    (["gen", "hypergraph", "--n", "2", "--out", "{tmp}/out.txt"], "need n >= 3"),
    (["gen", "hypergraph", "--n", "4", "--m", "5", "--out", "{tmp}/out.txt"], "need 0 <= m <= 4"),
    (["gen", "hypercube", "--out", "{tmp}/missing/x"], "cannot write"),
    (["sd", "graph", "{tmp}/one.txt"], "sd_graph needs at least 2 vertices"),
    (["fun", "min", "{tmp}/empty.txt"], "min_fun of the empty graph is undefined"),
    (["fun", "graph", "{tmp}/empty.txt"], "fun_graph of the empty graph is undefined"),
])
def test_inputs_out_of_range_are_usage_errors(tmp_path, capsys, argv, message):
    (tmp_path / "one.txt").write_text("1 0\n")
    (tmp_path / "empty.txt").write_text("0 0\n")
    assert main([a.format(tmp=tmp_path) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err
    # no output file is left behind
    assert sorted(p.name for p in tmp_path.iterdir()) == ["empty.txt", "one.txt"]


@pytest.mark.parametrize("command", ["fun", "sd"])
def test_negative_exact_limit_is_a_usage_error(tmp_path, capsys, command):
    path = tmp_path / "g.txt"
    path.write_text("3 2\n0 1\n1 2\n")
    assert main([command, "graph", str(path), "--exact-limit", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "exact_limit must be >= 0, got -1" in captured.err


def test_internal_check_failure_exits_1(tmp_path, capsys, monkeypatch):
    from graphfun import witnesses

    def fail(line, edge):
        raise RuntimeError("line graph witness failed verification")

    monkeypatch.setattr(witnesses, "line_graph_witness", fail)
    p4 = tmp_path / "p4.txt"
    p4.write_text("4 3\n0 1\n1 2\n2 3\n")
    assert main(["witness", "line-graph", str(p4), "--edge", "0", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "line graph witness failed verification" in captured.err


def _fails_after_building(monkeypatch, module, name):
    """Replace ``module.name`` with the real builder, after which every
    DnfWitness replay fails: the witness is built and self-checked, and
    only the CLI's recheck sees the failure."""
    from graphfun import witnesses

    build = getattr(module, name)

    def built(*args):
        w = build(*args)
        monkeypatch.setattr(witnesses.DnfWitness, "verify", lambda self, g: False)
        return w

    monkeypatch.setattr(module, name, built)


@pytest.mark.parametrize("kind", ["fun", "permutation", "line-graph", "hyper3"])
def test_failed_recheck_writes_its_report_and_exits_1(tmp_path, capsys, monkeypatch, kind):
    from graphfun import families, witnesses

    if kind == "fun":
        path = tmp_path / "g.txt"
        write_graph(random_graph(8, 0.5, 3), path)
        argv = ["fun", "min", str(path)]
    elif kind == "permutation":
        path = tmp_path / "p.txt"
        path.write_text(families.format_permutation(families.random_permutation(20, 1)))
        argv = ["witness", "permutation", str(path)]
    elif kind == "line-graph":
        path = tmp_path / "k4.txt"
        path.write_text("4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
        argv = ["witness", "line-graph", str(path), "--edge", "0", "1"]
    else:
        path = tmp_path / "h.txt"
        path.write_text(families.format_hypergraph(families.random_3_hypergraph(40, 30, 2)))
        argv = ["hyper3", "bound", str(path)]
    if kind in ("fun", "hyper3"):
        # the CLI's own replay; the solvers keep their own import
        monkeypatch.setattr(cli, "is_function_of", lambda *args: None)
    else:
        _fails_after_building(monkeypatch, witnesses, kind.replace("-", "_") + "_witness")
    code, report = run(capsys, argv + ["--recheck"])
    assert code == 1
    assert report["result"]["recheck"] is False


def test_failed_kexpr_check_writes_its_report_and_exits_1(tmp_path, capsys, monkeypatch):
    import dataclasses

    from graphfun import kexpr

    check = kexpr.check_fun_cwd_bound
    monkeypatch.setattr(kexpr, "check_fun_cwd_bound",
                        lambda e: dataclasses.replace(check(e), passed=False))
    path = tmp_path / "c5.kx"
    path.write_text(kexpr.C5_EXPRESSION_TEXT + "\n")
    code, report = run(capsys, ["kexpr", "check", str(path)])
    assert code == 1
    assert report["result"]["passed"] is False and report["result"]["min_fun"] == 2


def test_failed_verify_target_writes_its_report_and_exits_1(capsys, monkeypatch):
    from graphfun import verify

    monkeypatch.setitem(verify.TARGETS, "hypercube",
                        lambda **kwargs: (False, {"failures": [{"n": 3}]}))
    code, report = run(capsys, ["verify", "hypercube"])
    assert code == 1
    assert report["result"]["passed"] is False
    assert report["result"]["detail"] == {"failures": [{"n": 3}]}


def test_parse_error_regressions(tmp_path, capsys):
    iv = tmp_path / "iv.txt"
    iv.write_text("1/0\n2\n")  # used to raise ZeroDivisionError
    assert main(["witness", "unit-interval", str(iv)]) == 3
    deep = tmp_path / "deep.kx"
    deep.write_text("u(" * 5000)  # used to raise RecursionError
    assert main(["kexpr", "eval", str(deep)]) == 3
    assert "expected expression, found None" in capsys.readouterr().err
    # A header n too large to allocate used to end in an OverflowError or,
    # under a memory limit, a MemoryError.  Each case runs in a child process
    # with a 1.5 GB address-space limit, so a regression cannot take the
    # memory of the test run.
    limit = 1_500_000 * 1024
    env = dict(os.environ, PYTHONPATH=str(Path(graphfun.__file__).resolve().parent.parent))
    for command, text in ((["fun", "min"], "99999999999999999999 0\n"),
                          (["fun", "min"], "10000000000 0\n"),
                          (["hyper3", "bound"], "99999999999999999999 1\n0 1 2\n")):
        path = tmp_path / "huge.txt"
        path.write_text(text)
        proc = subprocess.run(
            [sys.executable, "-m", "graphfun.cli"] + command + [str(path)],
            capture_output=True, text=True, env=env, timeout=120,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
        assert proc.returncode == 3, proc.stderr
        assert "above the limit of" in proc.stderr and "Traceback" not in proc.stderr


def test_gen_kexpression_has_no_depth_limit(tmp_path, capsys):
    out = tmp_path / "deep.kx"
    assert run(capsys, ["gen", "kexpression", "--ops", "1400", "--seed", "1", "--out", str(out)])[0] == 0
    code, report = run(capsys, ["kexpr", "eval", str(out)])
    assert code == 0 and report["result"]["n"] == 343


@pytest.mark.parametrize("kind", ["line-graph", "permutation", "thick", "no-thick"])
def test_recheck_builds_the_host_once(tmp_path, capsys, monkeypatch, kind):
    from graphfun import families, hyper3, verify

    if kind == "line-graph":
        name = "line_graph"
        path = tmp_path / "g.txt"
        write_graph(random_graph(30, 0.3, 5), path)
        u, v = random_graph(30, 0.3, 5).edges()[0]
        argv = ["witness", "line-graph", str(path), "--edge", str(u), str(v)]
    elif kind == "permutation":
        name = "permutation_graph"
        path = tmp_path / "p.txt"
        path.write_text(families.format_permutation(families.random_permutation(40, 5)))
        argv = ["witness", "permutation", str(path)]
    else:
        name = "_incidence_graph"
        h = hyper3.fixture_fly() if kind == "thick" else verify._no_thick_instance(5)
        path = tmp_path / "h.hyper"
        path.write_text(families.format_hypergraph(h))
        argv = ["hyper3", "bound", str(path)]
    calls = []
    build = getattr(families, name)

    def counted(*args):
        calls.append(args)
        return build(*args)

    # the instances' cached graphs call the module-level constructors
    monkeypatch.setattr(families, name, counted)
    code, report = run(capsys, argv + ["--recheck"])
    assert code == 0 and report["result"]["recheck"] is True
    assert len(calls) == 1


def test_line_graph_recheck_builds_only_the_input_graph(tmp_path, capsys, monkeypatch):
    """The witness and its recheck read L(G)'s rows from G's incidence
    table: the one Graph built is the input, and L(G) is never built."""
    from graphfun import families
    from graphfun.graph import Graph

    g = random_graph(30, 0.3, 5)
    path = tmp_path / "g.txt"
    write_graph(g, path)
    u, v = g.edges()[0]
    built = []
    post_init = Graph.__post_init__

    def counted(self):
        built.append(self.n)
        post_init(self)

    def never(*args):
        raise AssertionError("L(G) was built")

    monkeypatch.setattr(Graph, "__post_init__", counted)
    monkeypatch.setattr(families, "_incidence_graph", never)
    code, report = run(capsys, ["witness", "line-graph", str(path), "--edge", str(u), str(v),
                                "--recheck"])
    assert code == 0 and report["result"]["recheck"] is True
    assert built == [30]


def test_unit_interval_witness_builds_the_host_once(tmp_path, capsys, monkeypatch):
    from graphfun import families, verify

    calls = []
    build = families.unit_interval_graph

    def counted(iv):
        calls.append(iv)
        return build(iv)

    monkeypatch.setattr(families, "unit_interval_graph", counted)
    path = tmp_path / "iv.txt"
    path.write_text(families.format_intervals(verify._dense_intervals(20, 3)))
    code, report = run(capsys, ["witness", "unit-interval", str(path)])
    assert code == 0 and report["result"]["sd_value"] <= 1
    assert len(calls) == 1
    calls.clear()
    passed, detail = verify.verify_unit_interval(cases=3)
    assert passed
    assert len(calls) == 3 + detail["exhaustive_cases"]


def test_package_runs_as_a_module():
    env = dict(os.environ, PYTHONPATH=str(Path(graphfun.__file__).resolve().parent.parent))
    proc = subprocess.run([sys.executable, "-m", "graphfun", "verify", "oracle-equivalence",
                           "--cases", "1"], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["result"]["passed"] is True


def test_all_lists_exactly_the_names_the_package_binds():
    """``__all__`` holds the public names ``graphfun/__init__.py`` binds and
    ``__version__``, so a deleted function cannot stay exported."""
    tree = ast.parse(Path(graphfun.__file__).read_text(encoding="utf-8"))
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            bound.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Assign):
            bound.update(target.id for target in node.targets)
    public = {name for name in bound if not name.startswith("_")}
    assert sorted(graphfun.__all__) == sorted(public | {"__version__"})
    assert all(hasattr(graphfun, name) for name in graphfun.__all__)


def test_modules_read_every_name_they_import():
    """Every module of the package but ``__init__.py`` reads each name it
    imports, so an import that a deletion left behind fails here."""
    unused = []
    for path in sorted(Path(graphfun.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update((a.asname or a.name).split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update(a.asname or a.name for a in node.names)
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        unused += [f"{path.name}: {name}" for name in sorted(imported - read)]
    assert unused == []


def test_modules_import_only_at_module_level():
    """Every module names what it imports in its header: an import inside a
    function hides a dependency until the function first runs."""
    nested = []
    for path in sorted(Path(graphfun.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        top = {id(node) for node in tree.body}
        nested += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                   if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in top]
    assert nested == []


def test_every_traced_boundary_exists():
    """perfbench's tracer wraps each (module, "name") or (module,
    "Class.method") of its BOUNDARIES in graphfun; one the program no
    longer has reads null in the per-layer metrics, and only the perfbench
    smoke tests would notice."""
    tracer = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    tree = ast.parse(tracer.read_text(encoding="utf-8"))
    boundaries = next(ast.literal_eval(node.value) for node in tree.body
                      if isinstance(node, ast.Assign)
                      and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["BOUNDARIES"])
    assert boundaries
    missing = []
    for module, attr in boundaries:
        holder = importlib.import_module(f"graphfun.{module}")
        owner, _, name = attr.rpartition(".")
        if owner:
            holder = getattr(holder, owner, None)
            found = vars(holder).get(name) if isinstance(holder, type) else None
        else:
            found = getattr(holder, name, None)
        if not inspect.isfunction(found):
            missing.append(f"{module}.{attr}")
    assert missing == []


@pytest.mark.parametrize("command, limit", [("fun", 20), ("sd", 24)])
def test_graph_modes_default_to_their_exact_limits(tmp_path, capsys, command, limit):
    path = tmp_path / "g.txt"
    write_graph(random_graph(limit, 0.0, 0), path)
    assert run(capsys, [command, "graph", str(path)])[0] == 0
    write_graph(random_graph(limit + 1, 0.0, 0), path)
    assert main([command, "graph", str(path)]) == 2
    assert f"exceeds exact_limit={limit}" in capsys.readouterr().err


@pytest.mark.parametrize("argv, n", [
    (["fun", "min"], 24),
    (["fun", "vertex", "--vertex", "0"], 24),
    # at the default exact limit, above the old one of 14
    (["fun", "graph"], 20),
], ids=["min", "vertex", "graph"])
def test_recheck_holds_under_python_O(tmp_path, capsys, argv, n):
    # -O strips assert statements, so the checks the CLI relies on must not
    # be asserts: the rechecked result must come out the same
    path = tmp_path / "g.txt"
    write_graph(random_graph(n, 0.5, 11), path)
    command = argv[:2] + [str(path)] + argv[2:] + ["--recheck"]
    code, report = run(capsys, command)
    assert code == 0 and report["result"]["recheck"] is True
    env = dict(os.environ, PYTHONPATH=str(Path(graphfun.__file__).resolve().parent.parent))
    proc = subprocess.run([sys.executable, "-O", "-m", "graphfun.cli"] + command,
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["result"] == report["result"]


# ``fun vertex g.txt --vertex 0 --recheck`` on random_graph(8, 0.5, 3), with
# the clock stopped, as written by json.dump to the stream before the
# report became one write
FUN_VERTEX_REPORT = """\
{
  "command": "fun vertex g.txt --vertex 0 --recheck",
  "input_digest": "f1e1edabf62ef757d2f96d3fd3d2e32f1173e1860c9f0e2f8d33d101a00d6297",
  "result": {
    "recheck": true,
    "subgraph": null,
    "value": 2,
    "witness_set": [
      2,
      6
    ],
    "witness_vertex": 0
  },
  "rng": "python-random-mt19937",
  "seed": null,
  "timing_ms": 0,
  "version": "0.1.0"
}
"""


KEXPR_EVAL_REPORT = """\
{
  "command": "kexpr eval e.kx",
  "input_digest": "7c712743ead9810395b9551827f5f1b1e34bdac131bfae0ed8c62da7dca964ff",
  "result": {
    "edges": [
      [
        0,
        3
      ],
      [
        0,
        4
      ],
      [
        1,
        3
      ],
      [
        1,
        4
      ],
      [
        2,
        3
      ],
      [
        2,
        4
      ],
      [
        3,
        4
      ]
    ],
    "label_count": 3,
    "labels": [
      3,
      3,
      3,
      3,
      3,
      1
    ],
    "n": 6,
    "names": [
      "v1",
      "v2",
      "v3",
      "v4",
      "v5",
      "v6"
    ]
  },
  "rng": "python-random-mt19937",
  "seed": null,
  "timing_ms": 0,
  "version": "0.1.0"
}
"""


def test_report_bytes_are_unchanged(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_graph(random_graph(8, 0.5, 3), "g.txt")
    monkeypatch.setattr(cli, "time", SimpleNamespace(perf_counter=lambda: 0.0))
    assert main(["fun", "vertex", "g.txt", "--vertex", "0", "--recheck"]) == 0
    assert capsys.readouterr().out == FUN_VERTEX_REPORT
    assert main(["gen", "kexpression", "--k", "3", "--ops", "25", "--seed", "4", "--out", "e.kx"]) == 0
    capsys.readouterr()
    assert main(["kexpr", "eval", "e.kx"]) == 0
    assert capsys.readouterr().out == KEXPR_EVAL_REPORT
