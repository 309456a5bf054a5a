"""Spans around the calls into ``ldl``'s layers, recorded from outside.

``Tracer.install`` replaces each traced function in its defining module
and in every loaded ``ldl`` module that imported the same object, so
calls between the program's own modules are seen too.  A span is (name,
start, end, parent index, extra); ``extra`` is a count (primes out of a
sieve, terms of a sum) or, for ``a_tilde``, the (curve, p) key.  Spans
stay in memory until ``dump``.  Only the calling thread is traced: the
program's worker threads run numpy reductions, never a traced function.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

# layer -> functions whose calls become spans; the prefix names the layer
# in the metrics ("sum" is the module ldl._sum)
TRACED = {
    "primes": ("ldl.primes", ("sieve_primes", "get_table", "gamma_pnt")),
    "families": ("ldl.families",
                 ("a_tilde", "h_factor", "nu_D", "moment_table")),
    "constants": ("ldl.constants",
                  ("family_constant_Atilde", "compute_constant")),
    "explicit_formula": ("ldl.explicit_formula", ("evaluate_S",)),
    "sum": ("ldl._sum", ("chunked_sum",)),
}

# per-layer metrics, in the order BENCHMARK.json lists them
METRICS = (
    ("primes.sieve_primes.calls", "count"),
    ("primes.sieve_primes.self_s", "s"),
    ("primes.sieve_primes.primes_out", "count"),
    ("primes.get_table.calls", "count"),
    ("primes.get_table.hit_ratio", "ratio"),
    ("primes.gamma_pnt.self_s", "s"),
    ("families.a_tilde.calls", "count"),
    ("families.a_tilde.self_s", "s"),
    ("families.a_tilde.unique_ratio", "ratio"),
    ("families.h_factor.calls", "count"),
    ("families.h_factor.self_s", "s"),
    ("families.nu_D.calls", "count"),
    ("families.nu_D.self_s", "s"),
    ("families.moment_table.calls", "count"),
    ("families.moment_table.self_s", "s"),
    ("constants.family_constant_Atilde.calls", "count"),
    ("constants.family_constant_Atilde.self_s", "s"),
    ("constants.compute_constant.calls", "count"),
    ("constants.compute_constant.self_s", "s"),
    ("explicit_formula.evaluate_S.calls", "count"),
    ("explicit_formula.evaluate_S.self_s", "s"),
    ("explicit_formula.evaluate_S.primes_summed", "count"),
    ("sum.chunked_sum.calls", "count"),
    ("sum.chunked_sum.self_s", "s"),
    ("sum.chunked_sum.terms", "count"),
    ("cli.main.self_s", "s"),
    ("cli.import_s", "s"),
    ("trace.overhead_s", "s"),
)


def _extras(get_table):
    """Per-span extra data, computed after the call returns."""
    return {
        "primes.sieve_primes": lambda a, kw, out: len(out),
        "families.a_tilde": lambda a, kw, out:
            f"{a[0].name}|{a[0].A_poly}|{a[0].B_poly}|{a[1]}",
        "explicit_formula.evaluate_S": lambda a, kw, out:
            len(get_table(out.prime_limit)),
        "sum.chunked_sum": lambda a, kw, out: int(a[0].size),
    }


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.enabled = True
        self.overhead_s = 0.0
        self.import_s = 0.0

    def span(self, name: str, fn, extra=None):
        """Wrap fn so that each call records a span named `name`."""
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            t0 = clock()
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            t1 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t2 = clock()
                stack.pop()
                rec[1], rec[2] = t1, t2
            if extra is not None:
                rec[4] = extra(args, kwargs, out)
            self.overhead_s += (t1 - t0) + (clock() - t2)
            return out
        return traced

    def install(self) -> None:
        """Wrap every function of TRACED wherever ldl's modules bind it."""
        import ldl  # noqa: F401  (loads every submodule)
        get_table = sys.modules["ldl.primes"].get_table
        extras = _extras(get_table)
        loaded = [m for n, m in sys.modules.items()
                  if n == "ldl" or n.startswith("ldl.")]
        for layer, (modname, names) in TRACED.items():
            module = sys.modules[modname]
            for fname in names:
                orig = getattr(module, fname)
                name = f"{layer}.{fname}"
                wrapped = self.span(name, orig, extras.get(name))
                for mod in loaded:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, attr, wrapped)

    def dump(self) -> dict:
        return {"spans": self.spans, "overhead_s": self.overhead_s,
                "import_s": self.import_s}


def summarize(dumps: list) -> dict:
    """Per-layer metrics from the span dumps of one or more processes."""
    calls = defaultdict(int)
    self_s = defaultdict(float)
    counts = defaultdict(int)
    keys: set = set()
    hits = 0
    overhead = sum(d["overhead_s"] for d in dumps)
    import_s = sum(d["import_s"] for d in dumps)
    for dump in dumps:
        spans = dump["spans"]
        child_s = [0.0] * len(spans)
        sieved = [False] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_s[parent] += end - start
                if name == "primes.sieve_primes":
                    sieved[parent] = True
        for i, (name, start, end, _, extra) in enumerate(spans):
            calls[name] += 1
            self_s[name] += (end - start) - child_s[i]
            if name == "families.a_tilde":
                keys.add(extra)
            elif isinstance(extra, int):
                counts[name] += extra
            if name == "primes.get_table" and not sieved[i]:
                hits += 1
    values = {
        "primes.get_table.hit_ratio":
            hits / calls["primes.get_table"] if calls["primes.get_table"]
            else 0.0,
        "families.a_tilde.unique_ratio":
            len(keys) / calls["families.a_tilde"]
            if calls["families.a_tilde"] else 0.0,
        "primes.sieve_primes.primes_out": counts["primes.sieve_primes"],
        "explicit_formula.evaluate_S.primes_summed":
            counts["explicit_formula.evaluate_S"],
        "sum.chunked_sum.terms": counts["sum.chunked_sum"],
        "cli.import_s": import_s,
        "trace.overhead_s": overhead,
    }
    out = {}
    for metric, unit in METRICS:
        if metric not in values:
            name, _, field = metric.rpartition(".")
            values[metric] = calls[name] if field == "calls" \
                else self_s[name]
        out[metric] = {"value": values[metric], "unit": unit}
    return out


def write_spans(path, dumps: list) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(dumps, fh)
