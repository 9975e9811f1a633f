"""Span tracing around the boundaries between graphfun modules, installed
from outside the program.

``Tracer.install`` replaces each boundary function with a wrapper in every
``graphfun`` module that holds a reference to it (so ``induced_subgraph`` is
wrapped both where ``functionality`` and where ``symdiff`` call it), and
replaces methods on their class.  ``Tracer.uninstall`` puts the originals
back.  A boundary the program no longer has is skipped and reported as
missing.

Each call records a span (name, start, end, parent span, instance id) in
flat arrays; per-name call counts, total time and self time (duration minus
the time covered by child spans) are accumulated as calls return.
"""
from __future__ import annotations

import gzip
import inspect
import sys
from array import array
from time import perf_counter

# (module, attribute) of every traced boundary; "Class.method" patches the
# method on the class.  ``Graph.__post_init__`` is Graph construction.
BOUNDARIES = (
    ("graph", "Graph.__post_init__"),
    ("graph", "induced_subgraph"),
    ("graph", "parse_graph"),
    ("functionality", "fun_vertex"),
    ("functionality", "min_fun"),
    ("functionality", "fun_graph"),
    ("functionality", "is_function_of"),
    ("symdiff", "sd_graph"),
    ("symdiff", "sd_pair"),
    ("families", "line_graph"),
    ("families", "permutation_graph"),
    ("families", "Permutation.position_of"),
    ("witnesses", "line_graph_witness"),
    ("witnesses", "permutation_witness"),
    ("witnesses", "DnfWitness.verify"),
    ("hyper3", "hyper3_fun_bound"),
    ("hyper3", "intersection_graph"),
    ("hyper3", "thick_pairs"),
)

ROOT = "cli.main"


def span_name(module: str, attr: str) -> str:
    return f"{module}.{attr.removesuffix('.__post_init__')}"


class Tracer:
    def __init__(self) -> None:
        self.names = [ROOT] + [span_name(m, a) for m, a in BOUNDARIES]
        self.missing: set[str] = set()
        self.instance = -1
        self.keep_spans = True
        self._patches: list[tuple[object, str, object]] = []
        self._stack: list[int] = []      # open span ids
        self._child: list[float] = []    # time covered by children, per open span
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("l")
        self.span_instance = array("l")
        self.reset_totals()

    def reset_totals(self) -> None:
        """Zero the per-name totals; recorded spans are kept."""
        k = len(self.names)
        self.calls = [0] * k
        self.total = [0.0] * k
        self.self_time = [0.0] * k

    # --- recording ---------------------------------------------------------

    def call(self, nid: int, fn, args, kwargs):
        stack, child = self._stack, self._child
        keep = self.keep_spans
        sid = -1
        if keep:
            sid = len(self.span_start)
            self.span_name.append(nid)
            self.span_parent.append(stack[-1] if stack else -1)
            self.span_instance.append(self.instance)
            self.span_end.append(0.0)
        stack.append(sid)
        child.append(0.0)
        start = perf_counter()
        if keep:
            self.span_start.append(start)
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            dur = end - start
            stack.pop()
            covered = child.pop()
            if child:
                child[-1] += dur
            if keep:
                self.span_end[sid] = end
            self.calls[nid] += 1
            self.total[nid] += dur
            self.self_time[nid] += dur - covered

    def wrap(self, fn, name: str):
        nid = self.names.index(name)
        tracer = self

        def wrapper(*args, **kwargs):
            return tracer.call(nid, fn, args, kwargs)

        return wrapper

    # --- patching ----------------------------------------------------------

    def install(self) -> None:
        mods = {name: mod for name, mod in list(sys.modules.items())
                if mod is not None and (name == "graphfun" or name.startswith("graphfun."))}
        for module, attr in BOUNDARIES:
            name = span_name(module, attr)
            mod = mods.get(f"graphfun.{module}")
            owner_name, _, method = attr.rpartition(".")
            if mod is None:
                self.missing.add(name)
                continue
            if owner_name:
                cls = getattr(mod, owner_name, None)
                raw = vars(cls).get(method) if isinstance(cls, type) else None
                if not inspect.isfunction(raw):
                    self.missing.add(name)
                    continue
                self._patch(cls, method, self.wrap(raw, name))
                continue
            orig = getattr(mod, attr, None)
            if not inspect.isfunction(orig):
                self.missing.add(name)
                continue
            wrapper = self.wrap(orig, name)
            for holder in mods.values():
                for key, value in list(vars(holder).items()):
                    if value is orig:
                        self._patch(holder, key, wrapper)

    def _patch(self, holder, key: str, value) -> None:
        self._patches.append((holder, key, getattr(holder, key)))
        setattr(holder, key, value)

    def uninstall(self) -> None:
        while self._patches:
            holder, key, orig = self._patches.pop()
            setattr(holder, key, orig)

    # --- reporting ---------------------------------------------------------

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, total seconds, self seconds)."""
        return {n: (self.calls[i], self.total[i], self.self_time[i])
                for i, n in enumerate(self.names)}

    def write_spans(self, path: str, instance_keys: list[str]) -> None:
        """Write the recorded spans as gzip-compressed tab-separated text,
        times in seconds from the first span's start."""
        t0 = self.span_start[0] if self.span_start else 0.0
        names, starts, ends = self.names, self.span_start, self.span_end
        parents, instances = self.span_parent, self.span_instance
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("span\tname\tstart_s\tend_s\tparent\tinstance\n")
            for i, nid in enumerate(self.span_name):
                fh.write(f"{i}\t{names[nid]}\t{starts[i] - t0:.9f}\t{ends[i] - t0:.9f}\t"
                         f"{parents[i]}\t{instance_keys[instances[i]]}\n")
