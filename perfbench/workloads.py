"""The benchmark's workloads: seeded inputs, timed operations, checks.

A workload turns a seed into plain Python data and input files
(`make_inputs`), and that data into a list of operations plus a function
that resets per-pass state (`operations`).
Each operation calls sidonkit once; its check runs outside the timed region
and compares the result against `oracle`, which shares no code with
sidonkit.  Every pass runs the same operations in the same order, so the
share of failed operations is the same in every run.

This module imports no sidonkit code itself: the library modules arrive as
the `lib` namespace, imported during set-up, and are looked up at call
time so that a traced run sees the rebound functions.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import oracle

PIPELINE_SEED = 2103      # the --seed handed to `sidonkit pipeline`
EXACT_CAP = 64            # element cap passed to sid_k_exact


@dataclass
class Op:
    """One timed library call.  `check` returns None when the result is
    right, else a message.  `stage` names the end-to-end stage metric the
    call's time adds to; the fault probe has none."""

    name: str
    stage: str | None
    call: Callable[[], object]
    check: Callable[[object], str | None]
    known_fault: bool = False


def _write_set(path: Path, elements, ambient: dict, text: bool = False) -> None:
    """Write a set in sidonkit's JSON or text input format."""
    if text:
        header = "# ambient: " + " ".join(
            [ambient["kind"]] + [f"{k}={v}" for k, v in ambient.items() if k != "kind"])
        path.write_text(header + "\n" + "\n".join(map(str, elements)) + "\n")
    else:
        path.write_text(json.dumps({"ambient": ambient, "elements": list(elements)}))


def _expect(actual, expected, what: str) -> str | None:
    if actual == expected:
        return None
    return f"{what}: got {actual!r}, expected {expected!r}"


class _Sets:
    """GroundSets built from the generated data, once per pass.  The first
    operation that needs a set pays for building it, inside its own timed
    call."""

    def __init__(self, lib, specs: dict):
        self.lib = lib
        self.specs = specs
        self.cache: dict = {}

    def reset(self) -> None:
        self.cache.clear()

    def __call__(self, name: str):
        if name not in self.cache:
            ambient, elements = self.specs[name]
            amb = self.lib.ambient.AmbientSpec.from_dict(ambient)
            self.cache[name] = self.lib.groundset.GroundSet.from_iterable(amb, elements)
        return self.cache[name]


INTEGERS = {"kind": "integers"}


# ---------------------------------------------------------------------------
# pipeline: the CLI run a user makes, end to end

class Pipeline:
    name = "pipeline"
    stages = ("pipeline_mult_s", "pipeline_add_s", "verify_s")

    def make_inputs(self, seed: int, out: Path) -> dict:
        rng = random.Random(f"pipeline:{seed}")
        sets = {"mult": list(range(1, 4097)), "add": _spread_sidon_set(rng, 4096)}
        for name, elements in sets.items():
            _write_set(out / f"{name}.json", elements, INTEGERS)
        return sets

    def operations(self, lib, data: dict, out: Path):
        ops = []
        for name, stage, branch in (
                ("mult", "pipeline_mult_s", "multiplicative-after-structure"),
                ("add", "pipeline_add_s", "additive-small-energy")):
            inp, rep, ver = (str(out / f"{name}{suffix}")
                             for suffix in (".json", ".report.json", ".verify.json"))
            run = ["pipeline", "--set", inp, "--variant", "rigid",
                   "--seed", str(PIPELINE_SEED), "--out", rep]
            verify = ["verify-certificate", "--set", inp, "--cert", rep, "--out", ver]
            report_check = _SameBytes(rep, self._report_checker(data[name], branch))
            verify_check = _SameBytes(ver, _verifier_ok)
            ops.append(Op(f"pipeline {name}", stage,
                          lambda argv=run: lib.cli.main(argv), report_check))
            ops.append(Op(f"verify-certificate {name}", "verify_s",
                          lambda argv=verify: lib.cli.main(argv), verify_check))
        return ops, lambda: None

    @staticmethod
    def _report_checker(elements: list[int], branch: str):
        def check(report: dict) -> str | None:
            res = report["result"]
            n = len(elements)
            members = set(elements)
            problems = [
                _expect(res["branch"], branch, "branch"),
                _expect(res["sqrt_target"], math.isqrt(n - 1) + 1, "sqrt target"),
            ]
            if elements == list(range(1, n + 1)):
                energy = lambda l: oracle.interval_energy(n, l)
            else:
                coc = oracle.count_of_counts(
                    oracle.sorted_pair_values(elements, elements, "difference"))
                energy = lambda l: oracle.energy_from(coc, l)
            for step in res["certificate"]["trace"]:
                l = step["l"]
                problems.append(_expect((step["energy"], step["energy_next"]),
                                        (energy(l), energy(l + 1)), f"trace energy l={l}"))
            ext = res["extraction"]
            subset = res["subset"]["elements"]
            k, mode = ext["k"], ext["mode"]
            bound = 3 * k - 3 if mode == "difference" else 2 * k - 2
            problems += [
                _expect(ext["bound"], bound, "certified bound"),
                _expect(res["subset_size"], len(subset), "subset size"),
                _expect(subset, sorted(set(subset)), "subset order"),
                None if members.issuperset(subset) else "subset not inside A",
            ]
            worst = oracle.max_multiplicity(subset, mode,
                                            exempt_identity=(mode == "difference"))
            if worst > bound:
                problems.append(f"subset multiplicity {worst} exceeds bound {bound}")
            return next((p for p in problems if p), None)
        return check


def _verifier_ok(report: dict) -> str | None:
    return _expect(report["result"], {"ok": True, "mismatches": []}, "verify-certificate")


def _spread_sidon_set(rng: random.Random, n: int) -> list[int]:
    """n integers below 10^9 with all nonzero differences distinct: a
    seeded choice of n points of the Erdos-Turan set {2pk + (k^2 mod p)},
    p = 4099, under a seeded dilation and translation.  A plain random set
    of this size repeats some difference four times on most seeds but not
    all (8 of the first 12), and then the pipeline runs 20 extraction
    trials instead of none, so the pass time would follow the seed."""
    p = 4099
    points = [2 * p * k + k * k % p for k in rng.sample(range(p), n)]
    scale = rng.randrange(1, 10**9 // (2 * p * p))
    shift = rng.randrange(10**9 - scale * 2 * p * p)
    return sorted(scale * x + shift for x in points)


class _SameBytes:
    """Check of a CLI call: exit code 0, a report that passes `inspect` on
    the first pass, and the same report bytes on every later pass."""

    def __init__(self, path: str, inspect):
        self.path = Path(path)
        self.inspect = inspect
        self.first = None

    def __call__(self, code) -> str | None:
        if code != 0:
            return f"exit code {code}"
        raw = self.path.read_bytes()
        if self.first is None:
            problem = self.inspect(json.loads(raw))
            if problem:
                return problem
            self.first = raw
            return None
        return None if raw == self.first else f"{self.path.name} bytes differ from pass 1"


# ---------------------------------------------------------------------------
# exact: maximum bounded-multiplicity subsets

# kind "interval": {o, ..., o+size} over the integers (o from the seed);
# "group": Z/size; "field": F_size; "units": F_size without 0.  "tight"
# marks Z/N instances whose maximum meets m(m-1) <= k(N-1).
EXACT_INSTANCES = (
    {"kind": "interval", "size": 39, "mode": "difference", "k": 1},
    {"kind": "interval", "size": 41, "mode": "difference", "k": 1},
    {"kind": "interval", "size": 28, "mode": "difference", "k": 2},
    {"kind": "interval", "size": 29, "mode": "difference", "k": 2},
    {"kind": "group", "size": 29, "mode": "difference", "k": 1, "tight": True},
    {"kind": "group", "size": 31, "mode": "difference", "k": 1, "tight": True},
    {"kind": "group", "size": 21, "mode": "difference", "k": 2, "tight": True},
    {"kind": "field", "size": 29, "mode": "sum", "k": 2},
    {"kind": "field", "size": 31, "mode": "sum", "k": 2},
    {"kind": "units", "size": 29, "mode": "product", "k": 2},
    {"kind": "units", "size": 31, "mode": "product", "k": 2},
)

_AMBIENTS = {"interval": lambda size: INTEGERS,
             "group": lambda size: {"kind": "integers-mod-N", "N": size},
             "field": lambda size: {"kind": "prime-field", "p": size},
             "units": lambda size: {"kind": "prime-field", "p": size}}


class Exact:
    name = "exact"
    stages = ("exact_interval_s", "exact_group_s")

    def make_inputs(self, seed: int, out: Path) -> dict:
        rng = random.Random(f"exact:{seed}")
        data = {}
        for i, inst in enumerate(EXACT_INSTANCES):
            offset = rng.randrange(-10**6, 10**6) if inst["kind"] == "interval" else 0
            elements, _ = oracle.instance_elements(inst, offset)
            ambient = _AMBIENTS[inst["kind"]](inst["size"])
            _write_set(out / f"instance{i}.json", elements, ambient)
            data[i] = (ambient, elements)
        return data

    def operations(self, lib, data: dict, out: Path):
        table = oracle.load_maxima()
        sets = _Sets(lib, data)
        ops = []
        for i, inst in enumerate(EXACT_INSTANCES):
            stage = "exact_interval_s" if inst["kind"] == "interval" else "exact_group_s"
            call = lambda i=i, inst=inst: lib.sidon.sid_k_exact(
                sets(i), inst["k"], inst["mode"], cap=EXACT_CAP)
            ops.append(Op(oracle.table_key(inst), stage, call,
                          self._checker(inst, data[i][1], oracle.expected_maximum(inst, table))))
        return ops, sets.reset

    @staticmethod
    def _checker(inst: dict, elements: list[int], maximum: int):
        modulus = None if inst["kind"] == "interval" else inst["size"]
        members = set(elements)

        def check(result) -> str | None:
            size, witness = result
            chosen = list(witness.elements)
            worst = oracle.max_multiplicity(chosen, inst["mode"], modulus)
            return (_expect(size, maximum, "maximum")
                    or _expect(len(chosen), size, "witness size")
                    or (None if members.issuperset(chosen) else "witness not inside A")
                    or (None if worst <= inst["k"]
                        else f"witness multiplicity {worst} > {inst['k']}"))
        return check


# ---------------------------------------------------------------------------
# counting: histograms, energies and set algebra over all four ambients

FAULT_SET = [-2**62, 2**62] + list(range(100))   # 2^62 - (-2^62) leaves int64


class Counting:
    name = "counting"
    stages = ("energy_dense_s", "energy_spread_s", "distinct_energy_s", "sumset_s")

    def make_inputs(self, seed: int, out: Path) -> dict:
        rng = random.Random(f"counting:{seed}")
        mod_n = {"kind": "integers-mod-N", "N": 2**16}
        field = {"kind": "prime-field", "p": 65537}
        sets = {
            "interval": (INTEGERS, list(range(4096))),
            "mod": (mod_n, rng.sample(range(2**16), 3000)),
            "field": (field, rng.sample(range(65537), 3000)),
            "core": (INTEGERS, list(range(200)) + rng.sample(range(200, 10**6), 100)),
            "spread": (INTEGERS, rng.sample(range(10**12), 4096)),
            "ratio": (INTEGERS, list(range(1, 301))),
            "distinct2": (INTEGERS, _progression(rng, 768)),
            "distinct3": (INTEGERS, _progression(rng, 448)),
            "plunnecke": (INTEGERS, rng.sample(range(10**4), 60)),
            "diffset": (INTEGERS, rng.sample(range(10**6), 40)),
            "fault": (INTEGERS, FAULT_SET),
        }
        big = rng.sample(range(-10**12, 10**12), 5 * 10**4)
        parsed = rng.sample(range(-10**12, 10**12), 25_000)
        _write_set(out / "parse.txt", parsed, INTEGERS, text=True)
        for name, (ambient, elements) in sets.items():
            _write_set(out / f"{name}.json", elements, ambient)
        return {"sets": sets, "big": big, "parsed": parsed}

    def operations(self, lib, data: dict, out: Path):
        """Expected values are computed here, before any pass, so the
        oracle's arrays never coexist with sidonkit's results in memory."""
        sets = _Sets(lib, data["sets"])
        raw = {name: elements for name, (_, elements) in data["sets"].items()}
        c = lib.counting
        ops: list[Op] = []

        def add(name, stage, call, check, known_fault=False):
            ops.append(Op(name, stage, call, check, known_fault))

        def energy_check(expected, k):
            return lambda rep: _expect(rep.value, expected, f"E_{k}")

        def histogram_check(expected, key=lambda v: v):
            return lambda h: _expect({key(v): n for v, n in h.to_counts_dict().items()},
                                     expected, "histogram")

        def sorted_energy(elements, mode, k, modulus=None):
            return oracle.energy_from(oracle.count_of_counts(
                oracle.sorted_pair_values(elements, elements, mode, modulus)), k)

        # dense inputs: an interval and 3000-element sets in Z/2^16 and F_65537
        interval = raw["interval"]
        add("energy_k interval diff k=2", "energy_dense_s",
            lambda: c.energy_k(sets("interval"), 2, "difference"),
            energy_check(oracle.interval_energy(len(interval), 2), 2))
        add("energy_k interval sum k=3", "energy_dense_s",
            lambda: c.energy_k(sets("interval"), 3, "sum"),
            energy_check(oracle.interval_energy(len(interval), 3), 3))
        add("energy_k interval product k=2", "energy_dense_s",
            lambda: c.energy_k(sets("interval"), 2, "product"),
            energy_check(sorted_energy(interval, "product", 2), 2))
        for name, modulus, hist_mode, energy_mode in (("mod", 2**16, "difference", "sum"),
                                                      ("field", 65537, "product", "difference")):
            elems = raw[name]
            add(f"rep_histogram {name} {hist_mode}", "energy_dense_s",
                lambda name=name, m=hist_mode: c.rep_histogram(sets(name), sets(name), m),
                histogram_check(oracle.bincount_histogram(elems, elems, hist_mode, modulus)))
            add(f"energy_k {name} {energy_mode} k=3", "energy_dense_s",
                lambda name=name, m=energy_mode: c.energy_k(sets(name), 3, m),
                energy_check(sorted_energy(elems, energy_mode, 3, modulus), 3))
        add("hyperbola_family p=101 k=3", "energy_dense_s",
            lambda: lib.constructions.hyperbola_family(101, 3),
            _hyperbola_check(101, 3))
        add("dense_core_extract g=2", "energy_dense_s",
            lambda: lib.sidon.dense_core_extract(sets("core"), 2),
            _dense_core_check(raw["core"], 2))

        # spread inputs: int64 sort path, and ratios (Fraction values)
        spread = raw["spread"]
        add("energy_k spread diff k=2", "energy_spread_s",
            lambda: c.energy_k(sets("spread"), 2, "difference"),
            energy_check(sorted_energy(spread, "difference", 2), 2))
        spread_sums = oracle.count_of_counts(oracle.sorted_pair_values(spread, spread, "sum"))
        add("rep_histogram spread sum", "energy_spread_s",
            lambda: c.rep_histogram(sets("spread"), sets("spread"), "sum"),
            lambda h: (_expect(h.count_multiset(), spread_sums, "count multiset")
                       or _expect(h.total_pairs, len(spread) ** 2, "total pairs")))
        add("rep_histogram ratio [1,300]", "energy_spread_s",
            lambda: c.rep_histogram(sets("ratio"), sets("ratio"), "ratio"),
            histogram_check(oracle.ratio_histogram(raw["ratio"]), key=oracle.fraction_key))

        # distinct-tuple energies on progressions
        for name, k in (("distinct2", 2), ("distinct3", 3)):
            add(f"energy_prime_k {name} k={k}", "distinct_energy_s",
                lambda name=name, k=k: c.energy_prime_k(sets(name), k),
                lambda v, k=k, e=oracle.interval_distinct_energy(len(raw[name]), k):
                _expect(v, e, f"E'_{k}"))

        # set algebra
        parsed, big = sorted(data["parsed"]), data["big"]
        unique_big = sorted(set(big))
        parse_path = out / "parse.txt"
        add("parse_set 2.5e4 text", "sumset_s",
            lambda: lib.groundset.parse_set(parse_path.read_text()),
            lambda A: _expect(list(A.elements), parsed, "parsed elements"))
        add("from_iterable 5e4", "sumset_s",
            lambda: lib.groundset.GroundSet.from_iterable(
                lib.ambient.AmbientSpec.integers(), big),
            lambda A: _expect(list(A.elements), unique_big, "elements"))
        add("plunnecke_audit n=2 m=1", "sumset_s",
            lambda: lib.bounds.plunnecke_audit(sets("plunnecke"), 2, 1),
            _plunnecke_check(raw["plunnecke"]))
        add("diffset_bounds k=2", "sumset_s",
            lambda: lib.bounds.diffset_bounds(sets("diffset"), 2),
            _diffset_check(raw["diffset"]))

        # The int64 path admits |x| <= 2^62, so 2^62 - (-2^62) wraps and two
        # values merge.  Counted as failed while the fault stands.
        for mode in ("difference", "sum"):
            add(f"energy_k int64 edge {mode}", None,
                lambda mode=mode: c.energy_k(sets("fault"), 2, mode),
                energy_check(oracle.python_energy(FAULT_SET, 2, mode), 2),
                known_fault=True)
        return ops, sets.reset


def _progression(rng: random.Random, n: int) -> list[int]:
    start = rng.randrange(-10**6, 10**6)
    return list(range(start, start + n))


def _hyperbola_check(p: int, k: int):
    """Rebuild every admissible shift's union of parabolas and find the
    smallest maximum nonzero difference multiplicity, ties to the smaller
    shift."""
    import numpy as np

    def build(t):
        pts = set()
        for j in range(1, k + 1):
            inv = pow((t + j) % p, -1, p)
            pts.update((x, x * x * inv % p) for x in range(p))
        return sorted(pts)

    def worst(pts):
        xs = np.array([x for x, _ in pts], dtype=np.int64)
        ys = np.array([y for _, y in pts], dtype=np.int64)
        enc = ((xs[:, None] - xs[None, :]) % p) * p + (ys[:, None] - ys[None, :]) % p
        counts = np.bincount(enc.ravel(), minlength=p * p)
        counts[0] = 0
        return int(counts.max())

    shifts = [t for t in range(p) if all((t + j) % p for j in range(1, k + 1))]
    m, t = min((worst(build(t)), t) for t in shifts)
    pts = build(t)

    def check(rep) -> str | None:
        return (_expect((rep.stats["t"], rep.stats["max_multiplicity"]), (t, m), "(t, m)")
                or _expect(list(rep.output.elements), [tuple(q) for q in pts], "points")
                or _expect(len(pts), k * p - k + 1, "size"))
    return check


def _dense_core_check(elements: list[int], g: int):
    r = {}
    for x in elements:
        for y in elements:
            r[x - y] = r.get(x - y, 0) + 1
    e_in = sum(c ** (g + 1) for c in r.values())
    n = len(elements)
    core = sorted(a for a in elements
                  if 2 * n * sum(r[x - a] ** g for x in elements) >= e_in)
    e_core = oracle.energy_from(oracle.count_of_counts(
        oracle.sorted_pair_values(core, core, "difference")), g + 1)

    def check(result) -> str | None:
        core_set, rep = result
        return (_expect(list(core_set.elements), core, "core")
                or _expect((rep["energy_input"], rep["energy_core"]), (e_in, e_core), "energies")
                or _expect(rep["floor_holds"], e_core * 4 ** ((g + 1) ** 2) >= e_in, "floor"))
    return check


def _plunnecke_check(elements: list[int]):
    def check(rep) -> str | None:
        two = {a + b for a in elements for b in elements}
        lhs = len({s - c for s in two for c in elements})
        rhs = Fraction(len(two), len(elements)) ** 3 * len(elements)
        return (_expect(rep.measured, lhs, "|2A - A|")
                or _expect(rep.bound, rhs, "bound")
                or _expect(rep.verdict, "holds" if lhs <= rhs else "violated", "verdict"))
    return check


def _diffset_check(elements: list[int]):
    import numpy as np

    D = np.unique(oracle.pair_values(elements, elements, "difference"))
    S = np.unique(oracle.pair_values(elements, elements, "sum"))
    dd = oracle.sorted_pair_values(D, D, "difference")
    ds = oracle.sorted_pair_values(D, S, "sum")
    diff_min = int((np.searchsorted(dd, D, "right") - np.searchsorted(dd, D, "left")).min())
    sum_min = int((np.searchsorted(ds, S, "right") - np.searchsorted(ds, S, "left")).min())
    expected = (D.size, S.size, diff_min, sum_min)

    def check(rep) -> str | None:
        d = rep.details
        got = (d["D_size"], d["S_size"], d["diff_fact_min"], d["sum_fact_min"])
        return (_expect(got, expected, "(|D|, |S|, min r_D-D, min r_D+S)")
                or _expect(d["facts_hold"], min(diff_min, sum_min) >= len(elements),
                           "facts_hold"))
    return check


WORKLOADS = {w.name: w for w in (Pipeline(), Exact(), Counting())}
