"""Record the expected result of every pool instance into ``expected.json``.

    python3 perfbench/record_expected.py

Run once at the commit whose answers are taken as correct; it uses one
worker process per CPU.  Each value is what ``graphfun.cli.main`` reports,
taken through the same in-process path the benchmark uses, and is
cross-checked against the brute-force oracles of ``graphfun.naive`` wherever
they finish quickly: an instance whose oracle disagrees stops the recording.
``oracle_checked`` lists, per input, the command ids that the oracle
confirmed.
"""
from __future__ import annotations

import json
import multiprocessing
import os
import sys
import tempfile
from concurrent.futures import ProcessPoolExecutor
from math import comb
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# Oracle budgets: subsets the naive vertex search may enumerate, and the
# largest n for the naive sweeps (about 2 s each at n = 12).
ORACLE_SUPPORTS = 400_000
ORACLE_SWEEP_N = 12


def _paths() -> None:
    for p in (str(SRC), str(HERE)):
        if p not in sys.path:
            sys.path.insert(0, p)


def _supports_up_to(n: int, k: int) -> int:
    return sum(comb(n - 1, j) for j in range(k + 1))


def _oracle(command_id: str, argv, result, graph, text):
    """True if the naive oracle confirms the value, False if it refutes it,
    None if it was not run."""
    from graphfun import families, hyper3, naive

    value = result.get("value")
    if command_id == "fun-graph":
        return naive.naive_fun_graph(graph) == value if graph.n <= ORACLE_SWEEP_N else None
    if command_id == "sd-graph":
        return naive.naive_sd_graph(graph) == value if graph.n <= ORACLE_SWEEP_N else None
    if command_id.startswith("fun-vertex"):
        if _supports_up_to(graph.n, value) > ORACLE_SUPPORTS:
            return None
        return naive.naive_fun_vertex(graph, int(argv[argv.index("--vertex") + 1])) == value
    if command_id == "fun-min":
        if graph.n * _supports_up_to(graph.n, value) > ORACLE_SUPPORTS:
            return None
        return naive.naive_min_fun(graph) == value
    # Witnesses: the oracle replays the support independently of the DNF.
    if command_id.startswith("witness-line-graph"):
        host, _ = families.line_graph(graph)
    elif command_id == "witness-permutation":
        host = families.permutation_graph(families.parse_permutation(text))
    else:
        host, _ = hyper3.intersection_graph(families.parse_hypergraph(text))
        return naive._is_function_of_naive(host, result["s_index"], tuple(result["f_indices"]))
    support = tuple(sorted(set(result["support"])))
    return naive._is_function_of_naive(host, result["target"], support)


def _record_input(task):
    workload_name, class_name, index = task
    _paths()
    import run
    import workloads
    from graphfun import cli

    cls = next(c for c in workloads.WORKLOADS[workload_name].classes if c.name == class_name)
    suffix, text, graph, commands = workloads.make_input(cls, index)
    results, checked = {}, []
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / f"input{suffix}")
        Path(path).write_text(text, encoding="utf-8")
        for cid, argv in commands:
            argv = [path if a == "{file}" else a for a in argv]
            inst = workloads.Instance(workloads.input_id(cls, index), cid, argv, None, graph)
            code, result, _, error = run._run_one(cli.main, inst)
            if error or code != 0 or result is None or result.get("recheck") is False:
                raise RuntimeError(f"{inst.key}: exit {code}, {error}")
            value = workloads.result_value(cid, result)
            verdict = _oracle(cid, argv, result, graph, text)
            if verdict is False:
                raise RuntimeError(f"{inst.key}: oracle disagrees with {value}")
            if verdict:
                checked.append(cid)
            results[cid] = value
    return workloads.input_id(cls, index), {
        "sha256": workloads.text_digest(text), "results": results, "oracle_checked": checked,
    }


def main() -> int:
    _paths()
    import workloads

    tasks = [(w.name, cls.name, i) for w in workloads.WORKLOADS.values()
             for cls in w.classes for i in workloads.pool_indices(w, cls)]
    ctx = multiprocessing.get_context("spawn")
    inputs = {}
    with ProcessPoolExecutor(max_workers=os.cpu_count(), mp_context=ctx) as pool:
        for iid, record in pool.map(_record_input, tasks, chunksize=4):
            inputs[iid] = record
    n_results = sum(len(r["results"]) for r in inputs.values())
    n_checked = sum(len(r["oracle_checked"]) for r in inputs.values())
    out = {
        "about": "Expected graphfun CLI results per pool input; see record_expected.py.",
        "results": n_results,
        "oracle_checked": n_checked,
        "inputs": inputs,
    }
    (HERE / "expected.json").write_text(json.dumps(out, indent=0, sort_keys=True) + "\n")
    print(f"{len(inputs)} inputs, {n_results} results, {n_checked} confirmed by the oracle")
    return 0


if __name__ == "__main__":
    sys.exit(main())
