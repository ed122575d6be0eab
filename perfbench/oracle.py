"""Independent reference computations for the benchmark's checks.

Nothing here imports sidonkit: every expected value the benchmark compares
against is computed by this module's own code, by closed forms, by sorting
or bincounting with numpy, or by plain counters.  Run as a script it remakes
`maxima.json`, the table of exact-search maxima that no closed form or
tight bound covers:

    python3 perfbench/oracle.py
"""

from __future__ import annotations

import json
import math
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np

MAXIMA_PATH = Path(__file__).with_name("maxima.json")

# Optimal Golomb ruler lengths G(m) for m = 1..16 marks (OEIS A003022).
GOLOMB = (0, 1, 3, 6, 11, 17, 25, 34, 44, 55, 72, 85, 106, 127, 151, 177)


# ---------------------------------------------------------------------------
# Energies and histograms

def interval_energy(n: int, k: int) -> int:
    """E_k of an n-term arithmetic progression, in difference or sum mode:
    the counts are n once and every j < n twice."""
    return n**k + 2 * sum(j**k for j in range(1, n))


def count_of_counts(sorted_values: np.ndarray) -> dict[int, int]:
    """Map count -> number of distinct values with that count, for a sorted
    1-d array."""
    if sorted_values.size == 0:
        return {}
    starts = np.flatnonzero(np.r_[True, sorted_values[1:] != sorted_values[:-1]])
    runs = np.diff(np.r_[starts, sorted_values.size])
    return {int(c): int(m) for c, m in zip(*np.unique(runs, return_counts=True))}


def energy_from(coc: dict[int, int], k: int) -> int:
    return sum(mult * c**k for c, mult in coc.items())


def pair_values(a, b, mode: str, modulus: int | None = None) -> np.ndarray:
    """All ordered compositions a_i o b_j as one flat int64 array; callers
    keep every value inside int64."""
    x = np.asarray(a, dtype=np.int64)[:, None]
    y = np.asarray(b, dtype=np.int64)[None, :]
    if mode == "difference":
        v = x - y
    elif mode == "sum":
        v = x + y
    elif mode == "product":
        v = x * y
    else:
        raise ValueError(mode)
    v = v.ravel()
    return v % modulus if modulus else v


def sorted_pair_values(a, b, mode: str, modulus: int | None = None) -> np.ndarray:
    v = pair_values(a, b, mode, modulus)
    v.sort(kind="stable")
    return v


def bincount_histogram(a, b, mode: str, modulus: int) -> dict[int, int]:
    """value -> count for residues; every value lies in [0, modulus)."""
    counts = np.bincount(pair_values(a, b, mode, modulus), minlength=modulus)
    nz = np.flatnonzero(counts)
    return dict(zip(nz.tolist(), counts[nz].tolist()))


def ratio_histogram(a) -> dict[tuple[int, int], int]:
    """Reduced fraction (num, den) -> count over ordered pairs of nonzero
    integers."""
    out: Counter = Counter()
    for x in a:
        for y in a:
            g = math.gcd(x, y)
            num, den = x // g, y // g
            if den < 0:
                num, den = -num, -den
            out[(num, den)] += 1
    return dict(out)


def python_energy(elems, k: int, mode: str) -> int:
    """E_k with Python integers, for inputs whose compositions leave int64."""
    op = {"difference": lambda x, y: x - y, "sum": lambda x, y: x + y}[mode]
    counts = Counter(op(x, y) for x in elems for y in elems)
    return sum(c**k for c in counts.values())


# ---------------------------------------------------------------------------
# Distinct-tuple energy on an arithmetic progression

def _path_matchings(vertices: int, kmax: int) -> list[int]:
    """Number of j-edge matchings of a path on `vertices` vertices, j <=
    kmax, by the recurrence over the last vertex."""
    prev2 = [1] + [0] * kmax           # path on i-2 vertices
    prev1 = [1] + [0] * kmax           # path on i-1 vertices
    for _ in range(2, vertices + 1):
        cur = [prev1[j] + (prev2[j - 1] if j else 0) for j in range(kmax + 1)]
        prev2, prev1 = prev1, cur
    return prev1


def _poly_pow(poly: list[int], e: int) -> list[int]:
    """poly ** e truncated to len(poly) coefficients."""
    kmax = len(poly) - 1
    out = [1] + [0] * kmax
    while e:
        if e & 1:
            out = [sum(out[i] * poly[j - i] for i in range(j + 1)) for j in range(kmax + 1)]
        poly = [sum(poly[i] * poly[j - i] for i in range(j + 1)) for j in range(kmax + 1)]
        e >>= 1
    return out


def interval_distinct_energy(n: int, k: int) -> int:
    """E'_k of an n-term progression: for each nonzero difference d the
    pairs {x, x+d} form vertex-disjoint paths, one per residue class mod
    |d|, and an ordered k-tuple of disjoint pairs is an ordered k-matching
    of their union.  Of the |d| paths, n mod |d| have one vertex more."""
    total = 0
    for d in range(1, n):
        q, longer = divmod(n, d)
        long_part = _poly_pow(_path_matchings(q + 1, k), longer)
        short_part = _poly_pow(_path_matchings(q, k), d - longer)
        total += sum(long_part[i] * short_part[k - i] for i in range(k + 1))
    return 2 * math.factorial(k) * total   # d and -d give the same count


# ---------------------------------------------------------------------------
# Bounded-multiplicity subsets

EXEMPT = {"difference": 0, "product": 1, "sum": None}


def composer(mode: str, modulus: int | None):
    if mode == "difference":
        f = lambda x, y: x - y
    elif mode == "sum":
        f = lambda x, y: x + y
    else:
        f = lambda x, y: x * y
    if modulus:
        return lambda x, y: f(x, y) % modulus
    return f


def max_multiplicity(elems, mode: str, modulus: int | None = None,
                     exempt_identity: bool = True) -> int:
    """Largest r(v) over ordered pairs of `elems`, skipping the mode's
    identity value when exempt (sums exempt nothing)."""
    skip = EXEMPT[mode] if exempt_identity else None
    if modulus is None and len(elems) > 64:
        v = sorted_pair_values(elems, elems, mode)
        if skip is not None:
            v = v[v != skip]
        if v.size == 0:
            return 0
        return max(count_of_counts(v))
    op = composer(mode, modulus)
    counts = Counter(op(x, y) for x in elems for y in elems)
    counts.pop(skip, None)
    return max(counts.values(), default=0)


def max_bounded_subset(elems, k: int, mode: str, modulus: int | None = None) -> int:
    """Largest subset whose non-exempt ordered-pair multiplicities are all
    <= k, by a Russian-doll search: c[i] is the optimum inside elems[i:],
    solved from the back, and a branch stops once its size plus the optimum
    of the remaining suffix cannot beat the best found."""
    op = composer(mode, modulus)
    skip = EXEMPT[mode]
    n = len(elems)
    c = [0] * (n + 1)
    counts: Counter = Counter()
    chosen: list = []

    def deltas(x):
        d: Counter = Counter()
        d[op(x, x)] += 1
        for s in chosen:
            d[op(x, s)] += 1
            d[op(s, x)] += 1
        d.pop(skip, None)
        return d

    def grow(start: int, target: int) -> bool:
        if len(chosen) > target:
            return True
        for j in range(start, n):
            if len(chosen) + c[j] <= target:
                return False
            d = deltas(elems[j])
            if all(counts[v] + dv <= k for v, dv in d.items()):
                counts.update(d)
                chosen.append(elems[j])
                found = grow(j + 1, target)
                chosen.pop()
                counts.subtract(d)
                if found:
                    return True
        return False

    for i in range(n - 1, -1, -1):
        d = deltas(elems[i])
        if all(dv <= k for dv in d.values()):
            counts.update(d)
            chosen.append(elems[i])
            c[i] = c[i + 1] + 1 if grow(i + 1, c[i + 1]) else c[i + 1]
            chosen.pop()
            counts.subtract(d)
        else:
            c[i] = c[i + 1]
    return c[0]


def golomb_max(length: int) -> int:
    """Most marks on a ruler of the given length with distinct differences."""
    return max(m for m, g in enumerate(GOLOMB, start=1) if g <= length)


def group_bound_max(order: int, g: int) -> int:
    """Largest m with m(m-1) <= g(N-1): every nonzero difference of Z/N is
    hit at most g times by the m(m-1) ordered pairs."""
    m = 1
    while (m + 1) * m <= g * (order - 1):
        m += 1
    return m


def table_key(inst: dict) -> str:
    return f"{inst['kind']}:{inst['size']}:{inst['mode']}:k={inst['k']}"


def instance_elements(inst: dict, offset: int = 0) -> tuple[list[int], int | None]:
    """Elements and modulus of an exact-search instance (see
    workloads.EXACT_INSTANCES)."""
    if inst["kind"] == "interval":
        return list(range(offset, offset + inst["size"] + 1)), None
    if inst["kind"] == "units":
        return list(range(1, inst["size"])), inst["size"]
    return list(range(inst["size"])), inst["size"]


def expected_maximum(inst: dict, table: dict) -> int:
    if inst["kind"] == "interval" and inst["k"] == 1:
        return golomb_max(inst["size"])
    if inst["kind"] == "group" and inst.get("tight"):
        return group_bound_max(inst["size"], inst["k"])
    return table.get(table_key(inst))


def load_maxima() -> dict:
    return json.loads(MAXIMA_PATH.read_text())


def remake_maxima() -> dict:
    sys.path.insert(0, str(Path(__file__).parent))
    from workloads import EXACT_INSTANCES
    table = {}
    for inst in EXACT_INSTANCES:
        elems, modulus = instance_elements(inst)
        best = max_bounded_subset(elems, inst["k"], inst["mode"], modulus)
        closed = expected_maximum(inst, {})
        if closed is not None and closed != best:
            raise SystemExit(f"{table_key(inst)}: search gives {best}, closed form {closed}")
        if closed is None:
            table[table_key(inst)] = best
        print(f"{table_key(inst)} -> {best}", file=sys.stderr)
    MAXIMA_PATH.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return table


def fraction_key(v) -> tuple[int, int]:
    v = Fraction(v)
    return v.numerator, v.denominator


if __name__ == "__main__":
    remake_maxima()
