"""Spans recorded from outside periodkit, around calls into its modules.

:func:`install` replaces every public module-level function of every
``periodkit`` module, every module's alias of such a function (the
names bound by ``from .x import f``), and a few hot methods, by a
wrapper that records one span per call.  Spans stay in memory as
parallel arrays (name, start, end, parent, op id) and are written out
once, at the end of the run, by :meth:`Tracer.dump`; :func:`load` reads
them back.  A span's self time is its duration minus
the time its direct children cover; summing self times by layer gives
the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from array import array
from collections import Counter
from pathlib import Path

MODULES = (
    "hodge",
    "lfactor",
    "combinatorics",
    "periods",
    "deligne",
    "automorphic",
    "oracle",
    "sampling",
    "suites",
    "fileio",
    "cli",
)

# (module, class, method): methods wrapped besides the module-level functions.
METHODS = (
    ("oracle", "LaurentPoly", "__mul__"),
    ("oracle", "LaurentPoly", "__pow__"),
    ("oracle", "LaurentPoly", "__eq__"),
    ("oracle", "LaurentPoly", "__neg__"),
    ("periods", "PeriodMonomial", "__init__"),
    ("deligne", "PairContext", "build"),
)

# Span name -> layer.  Names not listed fall to their module's default below.
LAYER_OF = {
    "oracle.verify_proposition": "oracle.verify_proposition",
    "oracle.build_mat1": "oracle.build_mat1",
    "oracle.sym_det": "oracle.sym_det",
    "oracle.LaurentPoly.__mul__": "oracle.laurent_mul",
    "oracle.LaurentPoly.__pow__": "oracle.laurent_pow",
    "oracle.LaurentPoly.__eq__": "oracle.laurent_cmp",
    "oracle.LaurentPoly.__neg__": "oracle.laurent_cmp",
    "oracle.cleared_period_product": "oracle.cleared_period_product",
    "periods.PeriodMonomial.__init__": "periods.monomial_init",
    "periods.expand": "periods.expand",
    "periods.apply_rule": "periods.apply_rule",
    "periods.derive_delta_square_identity": "periods.derive",
    "periods.derive_grouped_period_identity": "periods.derive",
    "deligne.PairContext.build": "deligne.pair_context",
    "fileio.parse_motive": "fileio.parse",
    "fileio.parse_rep": "fileio.parse",
    "fileio.decode_rational": "fileio.parse",
    # Spans the benchmark opens itself are their own layer.
    "bench.op": "bench.op",
    "cli.interp": "cli.interp",
    "cli.import": "cli.import",
    "trace.install": "trace.install",
}
MODULE_LAYER = {
    "oracle": "oracle.other",
    "periods": "periods.other",
    "deligne": "deligne.period_forms",
    "fileio": "fileio.other",
    "cli": "cli.main",
}


def layer_of(span_name: str) -> str:
    """The layer a span's self time is charged to."""
    if span_name in LAYER_OF:
        return LAYER_OF[span_name]
    module = span_name.split(".", 1)[0]
    return MODULE_LAYER.get(module, module)


class Tracer:
    """In-memory span store for one process; single-threaded."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.current_op = [-1]
        self.counters: Counter = Counter()

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def begin(self, name: str, t: float | None = None) -> int:
        idx = len(self.start)
        self.name.append(self.name_id(name))
        self.parent.append(self.stack[-1])
        self.op.append(self.current_op[0])
        self.start.append(time.perf_counter() if t is None else t)
        self.end.append(0.0)
        self.stack.append(idx)
        return idx

    def finish(self, idx: int, t: float | None = None) -> None:
        self.end[idx] = time.perf_counter() if t is None else t
        popped = self.stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {idx} closed while span {popped} is open")

    def add(self, name: str, start: float, end: float, parent: int) -> int:
        """Record a finished span measured elsewhere (another process)."""
        idx = len(self.start)
        self.name.append(self.name_id(name))
        self.parent.append(parent)
        self.op.append(self.current_op[0])
        self.start.append(start)
        self.end.append(end)
        return idx

    def wrap(self, name: str, fn, hook=None):
        """``fn`` with one span per call; ``hook(args, result)`` runs inside it."""
        nid = self.name_id(name)
        names, parents, ops = self.name, self.parent, self.op
        starts, ends, stack, current_op = self.start, self.end, self.stack, self.current_op
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ops.append(current_op[0])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(args, result)
                return result
            finally:
                ends[idx] = clock()
                stack.pop()

        traced.__wrapped_span__ = name
        return traced

    def self_times(self) -> dict[str, tuple[int, float]]:
        """Span name -> (calls, total self seconds)."""
        n = len(self.start)
        start, end, parent = self.start, self.end, self.parent
        cover = [0.0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                cover[p] += end[i] - start[i]
        calls: Counter = Counter()
        self_s: Counter = Counter()
        for i in range(n):
            nid = self.name[i]
            calls[nid] += 1
            self_s[nid] += end[i] - start[i] - cover[i]
        return {self.names[k]: (calls[k], self_s[k]) for k in calls}

    def dump(self, path: Path, **extra) -> None:
        """Write the spans to ``path``: one line of JSON, then the raw arrays.

        The JSON line holds the span names, the span count, the counters
        and ``extra``; the arrays follow in the order of ``FIELDS``.
        """
        header = {"names": self.names, "count": len(self.start),
                  "counters": dict(self.counters), **extra}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for field, _ in FIELDS:
                getattr(self, field).tofile(fh)


# Array fields of a span file, in the order Tracer.dump writes them.
FIELDS = (("name", "i"), ("parent", "i"), ("op", "i"), ("start", "d"), ("end", "d"))


def load(path: Path) -> tuple[dict, list[tuple]]:
    """Read a span file: its header and ``(name, start, end, parent, op)`` per span."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        arrays = {}
        for field, code in FIELDS:
            arrays[field] = array(code)
            arrays[field].fromfile(fh, header["count"])
    names = header["names"]
    spans = [
        (names[n], s, e, p, o)
        for n, s, e, p, o in zip(arrays["name"], arrays["start"], arrays["end"],
                                 arrays["parent"], arrays["op"])
    ]
    return header, spans


def _hooks(tracer: Tracer) -> dict:
    counters = tracer.counters

    def sym_det(args, result):
        counters["oracle.sym_det.terms_out"] += len(result.terms)

    def laurent_mul(args, result):
        counters["oracle.laurent_mul.term_pairs"] += len(args[0].terms) * len(args[1].terms)

    def verify(args, result):
        n = len(result.rhs.terms)
        if n > counters["oracle.rhs_terms_max"]:
            counters["oracle.rhs_terms_max"] = n

    return {
        "oracle.sym_det": sym_det,
        "oracle.LaurentPoly.__mul__": laurent_mul,
        "oracle.verify_proposition": verify,
    }


def install(tracer: Tracer) -> None:
    """Wrap periodkit in place; call once per process, after importing it."""
    mods = {name: importlib.import_module(f"periodkit.{name}") for name in MODULES}
    hooks = _hooks(tracer)
    wrapped: dict[int, object] = {}
    for mname, mod in mods.items():
        for attr, value in list(vars(mod).items()):
            if (
                inspect.isfunction(value)
                and value.__module__ == mod.__name__
                and not attr.startswith("_")
            ):
                span = f"{mname}.{attr}"
                wrapper = tracer.wrap(span, value, hooks.get(span))
                wrapped[id(value)] = wrapper
                setattr(mod, attr, wrapper)
    for mname, cname, meth in METHODS:
        cls = getattr(mods[mname], cname)
        raw = cls.__dict__[meth]
        span = f"{mname}.{cname}.{meth}"
        if isinstance(raw, classmethod):
            setattr(cls, meth, classmethod(tracer.wrap(span, raw.__func__, hooks.get(span))))
        else:
            setattr(cls, meth, tracer.wrap(span, raw, hooks.get(span)))
    package = importlib.import_module("periodkit")
    for mod in [package, *mods.values()]:
        for attr, value in list(vars(mod).items()):
            if id(value) in wrapped:
                setattr(mod, attr, wrapped[id(value)])

    # Calls of has_no_pp_class made from sampling, for the accept ratio.
    counters = tracer.counters
    has_no_pp_class = mods["sampling"].has_no_pp_class

    @functools.wraps(has_no_pp_class)
    def counted(*args, **kwargs):
        counters["sampling.has_no_pp_class.calls"] += 1
        return has_no_pp_class(*args, **kwargs)

    mods["sampling"].has_no_pp_class = counted
