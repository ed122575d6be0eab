"""Spans around sidonkit's public functions, taken from outside the library.

`Tracer.install` rebinds each function named in TRACED, in every loaded
`sidonkit.*` module that holds it, to a wrapper that records a span (name,
start, end, parent, work count).  Spans stay in memory until `write`.
`compose_value` and `canonical_element` run millions of times per pass, so
they are timed by dedicated loops (`ns_per_call`) instead of wrapped.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from pathlib import Path


def _pairs(args, kwargs, result) -> int:
    return len(args[0]) * len(args[1])


# module -> {function: work count taken from (args, kwargs, result), or None}
TRACED = {
    "groundset": {"from_iterable": lambda a, kw, r: len(r), "set_compose": _pairs,
                  "parse_set": None},
    "counting": {"rep_histogram": _pairs, "energy_k": None, "energy_prime_k": None,
                 "dyadic_best_level": None},
    "sidon": {"sid_k_exact": None, "sid_k_greedy": None, "extract_random": None,
              "verify_multiplicity": None, "dense_core_extract": None},
    "structure": {"energy_gap_decompose": None, "rigid_structure": None,
                  "sum_product_pipeline": None, "verify_certificate": None,
                  "verify_pipeline_report": None},
    "bounds": {"diffset_bounds": None, "plunnecke_audit": None},
    "constructions": {"hyperbola_family": None},
    "cli": {"main": None},
}

# traced function -> metric name of its work count; functions with a calls metric
COUNT_NAMES = {"groundset.from_iterable": "elements", "groundset.set_compose": "pairs",
               "counting.rep_histogram": "pairs"}
CALL_COUNTS = ("groundset.from_iterable", "counting.rep_histogram",
               "sidon.verify_multiplicity")


class Tracer:
    def __init__(self):
        self.spans: list = []     # [name, start, end, parent index, work count]
        self.stack: list[int] = []

    def wrap(self, name: str, fn, counter):
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, 0]
            self.spans.append(span)
            self.stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
            if counter is not None:
                span[4] = counter(args, kwargs, result)
            return result
        return traced

    def install(self, lib) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "sidonkit" or name.startswith("sidonkit.")]
        for modname, functions in TRACED.items():
            module = getattr(lib, modname)
            for fname, counter in functions.items():
                name = f"{modname}.{fname}"
                if fname == "from_iterable":
                    cls = module.GroundSet
                    orig = cls.from_iterable.__func__
                    cls.from_iterable = classmethod(self.wrap(name, orig, counter))
                    continue
                orig = getattr(module, fname)
                wrapper = self.wrap(name, orig, counter)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            setattr(m, attr, wrapper)

    def summary(self) -> dict[str, float]:
        """Self time (span minus its direct children), calls and work counts
        per traced function; functions never called report zeros."""
        self_s = {f"{m}.{f}": 0.0 for m, fs in TRACED.items() for f in fs}
        calls = dict.fromkeys(self_s, 0)
        work = dict.fromkeys(self_s, 0)
        for name, start, end, parent, count in self.spans:
            self_s[name] += end - start
            calls[name] += 1
            work[name] += count
            if parent >= 0:
                self_s[self.spans[parent][0]] -= end - start
        out: dict[str, float] = {}
        for name in self_s:
            out[f"{name}.self_s"] = self_s[name]
            if name in CALL_COUNTS:
                out[f"{name}.calls"] = calls[name]
            if name in COUNT_NAMES:
                out[f"{name}.{COUNT_NAMES[name]}"] = work[name]
        pairs, busy = work["counting.rep_histogram"], self_s["counting.rep_histogram"]
        out["counting.rep_histogram.pairs_per_s"] = pairs / busy if busy > 0 else 0.0
        return out

    def write(self, path: Path) -> None:
        path.write_text(json.dumps(
            [dict(zip(("name", "start", "end", "parent", "count"), s)) for s in self.spans]))


def ns_per_call(lib, repeats: int = 7) -> dict[str, float]:
    """Median time per call of compose_value and canonical_element over a
    fixed mix of ambients and modes, Python loop overhead included."""
    amb = lib.ambient.AmbientSpec
    integers, mod, field, plane = amb.integers(), amb.mod(37), amb.prime_field(37), amb.plane(101)
    xs = [(i * 7919) % 4099 + 1 for i in range(4000)]
    compose_args = (
        [(integers, "difference", x, x // 3) for x in xs]
        + [(integers, "ratio", x, x % 97 + 1) for x in xs]
        + [(mod, "difference", x % 37, (x // 37) % 37) for x in xs]
        + [(field, "sum", x % 37, (x // 37) % 37) for x in xs]
        + [(field, "product", x % 37, (x // 37) % 37) for x in xs])
    canonical_args = (
        [(integers, x) for x in xs] + [(mod, x % 37) for x in xs]
        + [(field, x % 37) for x in xs] + [(plane, (x % 101, x // 101 % 101)) for x in xs])
    out = {}
    for name, fn, argsets in (("ambient.compose_value", lib.ambient.compose_value, compose_args),
                              ("ambient.canonical_element", lib.ambient.canonical_element,
                               canonical_args)):
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            for args in argsets:
                fn(*args)
            times.append(time.perf_counter() - start)
        out[f"{name}.ns_per_call"] = statistics.median(times) / len(argsets) * 1e9
    return out
