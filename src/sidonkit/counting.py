"""Exact representation-function histograms and energy functionals.

Histograms are sparse (value -> count) and exact.  Large instances over
scalar ambients and the plane run through numpy int64 broadcasting when
`int64_exact` proves that no composition can overflow: the composed values
are counted with `np.bincount` when their span (max - min + 1) is at most
the number of pairs, so the count array is never larger than the pair
array, and with a sort (`np.unique`) otherwise.  Everything else uses plain
dictionaries with Python integers.  Energies are computed from the
count-of-counts compression with arbitrary-precision arithmetic, so no
value is ever approximated.

Public functions that ask for the same histogram more than once run under
`reuses_histograms`: while such a call runs, `rep_histogram` keeps the one
histogram it built last and returns it again for an equal
(A, B, mode, skip_noninvertible).  Nothing is kept once the outermost such
call returns.
"""

from __future__ import annotations

import functools
import math
from contextvars import ContextVar
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .ambient import (
    DIFFERENCE,
    INTEGERS,
    MOD_N,
    PLANE,
    PRIME_FIELD,
    PRODUCT,
    RATIO,
    SUM,
    AmbientSpec,
    canonical_element,
    compose_value,
    negate,
)
from .errors import AmbientMismatch, CapExceeded, DivisionByZero, UnsupportedMode
from .groundset import GroundSet

# Exclusive bounds on |operand| for exact int64 compositions:
# |a +- b| < 2 * 2^62 and |a * b| < 3_037_000_500^2 < 2^63 - 1.
_INT64_ADD_BOUND = 2**62
_INT64_MUL_BOUND = 3_037_000_500
_NP_PAIR_THRESHOLD = 8192      # below this, plain dicts win


def _hashable(value):
    """A value as histogram keys hold it: a plane pair given as a list
    becomes a tuple, as in `RepHistogram.count`."""
    return tuple(value) if isinstance(value, list) else value


class RepHistogram:
    """Multiplicity map r_{A o B} for one binary composition.

    `total_pairs` counts composed ordered pairs; ratio pairs skipped for a
    non-invertible right element are tallied in `skipped_pairs`.  Large
    scalar instances are backed by sorted numpy arrays and decoded lazily;
    both backings expose the same exact-integer interface.
    """

    def __init__(self, ambient: AmbientSpec, mode: str, entries: dict | None,
                 total_pairs: int, skipped_pairs: int = 0,
                 arrays: tuple | None = None, plane_modulus: int | None = None):
        self.ambient = ambient
        self.mode = mode
        self._dict = entries
        self._vals, self._cnts = arrays if arrays is not None else (None, None)
        self._plane_modulus = plane_modulus
        self.total_pairs = total_pairs
        self.skipped_pairs = skipped_pairs

    # -- encoding helpers for the array backing ---------------------------
    def _encode(self, value):
        """The array backing's int64 code of a value, or None when the
        backing cannot hold it (wrong type, off the plane, or outside int64)."""
        if self._plane_modulus is not None:
            p = self._plane_modulus
            if not (isinstance(value, (tuple, list)) and len(value) == 2
                    and all(isinstance(c, int) and 0 <= c < p for c in value)):
                return None
            code = value[0] * p + value[1]
        elif isinstance(value, int) and not isinstance(value, bool):
            code = value
        elif isinstance(value, Fraction) and value.denominator == 1:
            code = int(value)
        else:
            return None
        return code if -2**63 <= code < 2**63 else None

    def _decode(self, raw: int):
        if self._plane_modulus is not None:
            return (raw // self._plane_modulus, raw % self._plane_modulus)
        return raw

    def _positions(self, values) -> np.ndarray:
        """Index of each value in the array backing, -1 where absent, from
        one searchsorted."""
        raw = [self._encode(v) for v in values]
        codes = np.array([r or 0 for r in raw], dtype=np.int64)
        pos = np.searchsorted(self._vals, codes)
        found = pos < self._vals.size
        found[found] = self._vals[pos[found]] == codes[found]
        found[[i for i, r in enumerate(raw) if r is None]] = False
        return np.where(found, pos, -1)

    def counts(self, values) -> np.ndarray:
        """Counts of many values, in input order, as an int64 array; an
        absent value counts 0.  The array backing answers with one
        searchsorted."""
        if self._dict is not None:
            get = self._dict.get
            return np.array([get(_hashable(v), 0) for v in values], dtype=np.int64)
        pos = self._positions(values)
        found = pos >= 0
        out = np.zeros(pos.size, dtype=np.int64)
        out[found] = self._cnts[pos[found]]
        return out

    def count(self, value) -> int:
        return int(self.counts([value])[0])

    def iter_items(self):
        """(value, count) pairs in canonical value order, lazily."""
        if self._dict is not None:
            for v in sorted(self._dict):
                yield v, self._dict[v]
        else:
            for raw, c in zip(self._vals.tolist(), self._cnts.tolist()):
                yield self._decode(raw), c

    def items(self):
        return list(self.iter_items())

    def values(self):
        return (v for v, _ in self.iter_items())

    def to_counts_dict(self) -> dict:
        if self._dict is not None:
            return dict(self._dict)
        return {self._decode(raw): c
                for raw, c in zip(self._vals.tolist(), self._cnts.tolist())}

    @property
    def support_size(self) -> int:
        return len(self._dict) if self._dict is not None else int(self._vals.size)

    def _excluded_counts(self, exclude_values) -> list[int]:
        return [c for v in exclude_values if (c := self.count(v)) > 0]

    def count_multiset(self, exclude_values=()) -> dict:
        """Map count -> number of values attaining it."""
        if self._dict is not None:
            excl = {_hashable(v) for v in exclude_values}
            out: dict[int, int] = {}
            for v, c in self._dict.items():
                if v in excl:
                    continue
                out[c] = out.get(c, 0) + 1
            return out
        bins = np.bincount(self._cnts)
        out = {int(c): int(m) for c, m in enumerate(bins) if m and c}
        for c in self._excluded_counts(exclude_values):
            out[c] -= 1
            if out[c] == 0:
                del out[c]
        return out

    def energy(self, k: int, exclude_values=()) -> int:
        """Sum of count^k over the support, exactly."""
        total = 0
        for c, mult in self.count_multiset(exclude_values).items():
            total += mult * c**k
        return total

    def values_with_count_in(self, lo: int, hi: int) -> list:
        """Values whose count c satisfies lo < c <= hi."""
        if self._dict is not None:
            return [v for v, c in self._dict.items() if lo < c <= hi]
        mask = (self._cnts > lo) & (self._cnts <= hi)
        return [self._decode(r) for r in self._vals[mask].tolist()]

    def values_with_count_at_least(self, theta: int) -> list:
        if self._dict is not None:
            return [v for v, c in self._dict.items() if c >= theta]
        mask = self._cnts >= theta
        return [self._decode(r) for r in self._vals[mask].tolist()]

    def max_count(self, exclude_values=()):
        """(value, count) with the largest count outside the excluded values,
        ties broken by canonical value order; None on empty support."""
        excl = {_hashable(v) for v in exclude_values}
        if self._dict is not None:
            best = None
            for v, c in self._dict.items():
                if v in excl:
                    continue
                if best is None or c > best[1] or (c == best[1] and v < best[0]):
                    best = (v, c)
            return best
        cnts = self._cnts
        if excl:
            pos = self._positions(list(excl))
            cnts = cnts.copy()
            cnts[pos[pos >= 0]] = 0
        if not cnts.size:
            return None
        idx = int(np.argmax(cnts))  # first max = smallest value
        if cnts[idx] == 0:
            return None  # every value excluded
        return self._decode(int(self._vals[idx])), int(cnts[idx])

    def to_dict(self, max_entries: int = 100_000) -> dict:
        if self.support_size > max_entries:
            raise CapExceeded(f"histogram support {self.support_size} exceeds {max_entries}")
        entries = []
        for v, c in self.iter_items():
            if isinstance(v, Fraction):
                key = f"{v.numerator}/{v.denominator}"
            elif isinstance(v, tuple):
                key = f"{v[0]},{v[1]}"
            else:
                key = str(v)
            entries.append([key, c])
        return {
            "mode": self.mode,
            "total_pairs": self.total_pairs,
            "skipped_pairs": self.skipped_pairs,
            "support_size": self.support_size,
            "entries": entries,
        }


def int64_exact(amb: AmbientSpec, mode: str, *element_seqs) -> bool:
    """True when composing elements of `element_seqs` in `mode`, reduction
    included, provably stays inside int64: every integer operand has
    |x| < 2^62 (sums and differences) or |x| < 3_037_000_500 (products),
    and every residue is below the same bound.  Ratios never qualify, and
    plane pairs qualify when their encoding x * p + y fits."""
    if mode == RATIO:
        return False
    if amb.kind == PLANE:
        return amb.modulus <= 2**31
    bound = _INT64_MUL_BOUND if mode == PRODUCT else _INT64_ADD_BOUND
    if amb.kind == INTEGERS:
        return all(abs(x) < bound for s in element_seqs for x in s)
    return amb.modulus <= bound  # residues are at most modulus - 1


def _count_values(flat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sorted distinct values of a fresh int64 array and their counts; the
    array is consumed.  A span no larger than the array is counted with
    bincount, whose count array is then no larger than `flat`."""
    lo, hi = int(flat.min()), int(flat.max())
    if hi - lo + 1 > flat.size:
        return np.unique(flat, return_counts=True)
    flat -= lo
    counts = np.bincount(flat)
    vals = np.flatnonzero(counts)
    return vals + lo, counts[vals]


def _numpy_entries(A: GroundSet, B: GroundSet, mode: str):
    amb = A.ambient
    if amb.kind == PLANE:
        p = amb.modulus
        ax = np.fromiter((e[0] for e in A.elements), dtype=np.int64, count=len(A))
        ay = np.fromiter((e[1] for e in A.elements), dtype=np.int64, count=len(A))
        bx = np.fromiter((e[0] for e in B.elements), dtype=np.int64, count=len(B))
        by = np.fromiter((e[1] for e in B.elements), dtype=np.int64, count=len(B))
        if mode == DIFFERENCE:
            cx = (ax[:, None] - bx[None, :]) % p
            cy = (ay[:, None] - by[None, :]) % p
        else:
            cx = (ax[:, None] + bx[None, :]) % p
            cy = (ay[:, None] + by[None, :]) % p
        flat = (cx * p + cy).ravel()
        del cx, cy
        return _count_values(flat)
    va = np.fromiter(A.elements, dtype=np.int64, count=len(A))
    vb = np.fromiter(B.elements, dtype=np.int64, count=len(B))
    if mode == DIFFERENCE:
        flat = (va[:, None] - vb[None, :]).ravel()
    elif mode == SUM:
        flat = (va[:, None] + vb[None, :]).ravel()
    else:
        flat = (va[:, None] * vb[None, :]).ravel()
    if amb.kind in (MOD_N, PRIME_FIELD):
        flat %= amb.modulus
    return _count_values(flat)


# The reuse slot of the innermost running `reuses_histograms` call: a dict
# holding at most one histogram under "key" and "hist"; None outside.
_REUSE_SLOT: ContextVar[dict | None] = ContextVar("sidonkit_histogram_reuse", default=None)


def reuses_histograms(fn):
    """Run fn with a histogram reuse slot.  While fn runs, `rep_histogram`
    returns the histogram it built last when asked again for an equal
    (A, B, mode, skip_noninvertible); any other request clears the slot
    before building.  Nested calls join the outermost one, whose exit
    clears the slot."""
    @functools.wraps(fn)
    def scoped(*args, **kwargs):
        if _REUSE_SLOT.get() is not None:
            return fn(*args, **kwargs)
        slot: dict = {}
        token = _REUSE_SLOT.set(slot)
        try:
            return fn(*args, **kwargs)
        finally:
            slot.clear()
            _REUSE_SLOT.reset(token)
    return scoped


def rep_histogram(A: GroundSet, B: GroundSet, mode: str,
                  skip_noninvertible: bool = False) -> RepHistogram:
    """Exact multiset of ordered compositions a o b over A x B."""
    if A.ambient != B.ambient:
        raise AmbientMismatch(f"{A.ambient} vs {B.ambient}")
    amb = A.ambient
    if mode not in amb.modes:
        raise UnsupportedMode(f"mode {mode!r} undefined for {amb.kind}")
    slot = _REUSE_SLOT.get()
    key = (A, B, mode, skip_noninvertible)
    if slot is not None:
        if slot.get("key") == key:
            return slot["hist"]
        slot.clear()
    hist = _build_histogram(A, B, mode, skip_noninvertible)
    if slot is not None:
        slot["key"], slot["hist"] = key, hist
    return hist


def _build_histogram(A: GroundSet, B: GroundSet, mode: str,
                     skip_noninvertible: bool) -> RepHistogram:
    amb = A.ambient
    if (len(A) * len(B) >= _NP_PAIR_THRESHOLD
            and int64_exact(amb, mode, A.elements, B.elements)):
        vals, counts = _numpy_entries(A, B, mode)
        return RepHistogram(amb, mode, None, len(A) * len(B), 0, arrays=(vals, counts),
                            plane_modulus=amb.modulus if amb.kind == PLANE else None)
    skipped = 0
    entries: dict = {}
    for a in A:
        for b in B:
            try:
                v = compose_value(amb, mode, a, b)
            except DivisionByZero:
                if not skip_noninvertible:
                    raise
                skipped += 1
                continue
            entries[v] = entries.get(v, 0) + 1
    return RepHistogram(amb, mode, entries, len(A) * len(B) - skipped, skipped)


def difference_histogram(A: GroundSet) -> RepHistogram:
    return rep_histogram(A, A, DIFFERENCE)


@dataclass(frozen=True)
class EnergyReport:
    k: int
    mode: str
    value: int
    kappa: float | None
    set_size: int
    distinct_variant_value: int | None = None

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "mode": self.mode,
            "value": self.value,
            "kappa": self.kappa,
            "set_size": self.set_size,
            "distinct_variant_value": self.distinct_variant_value,
        }


def kappa_of(value: int, size: int, k: int) -> float | None:
    """log_|A|(value) - k; defined for |A| >= 2 and value > 0."""
    if size < 2 or value <= 0:
        return None
    return math.log(value) / math.log(size) - k


def energy_k(A: GroundSet, k: int, mode: str = DIFFERENCE,
             include_distinct_variant: bool = False) -> EnergyReport:
    """k-th moment of the composition histogram of A with itself."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if len(A) < 1:
        raise ValueError("energy of the empty set is undefined")
    if mode not in (DIFFERENCE, SUM, PRODUCT):
        raise UnsupportedMode(f"energy mode must be difference/sum/product, got {mode!r}")
    hist = rep_histogram(A, A, mode)
    value = hist.energy(k)
    distinct = energy_prime_k(A, k) if include_distinct_variant and mode == DIFFERENCE else None
    return EnergyReport(k, mode, value, kappa_of(value, len(A), k), len(A), distinct)


# ---------------------------------------------------------------------------
# Distinct-tuple energy E'_k

def _comb0(n: int, k: int) -> int:
    return math.comb(n, k) if 0 <= k <= n else 0


def _path_matchings(m: int, kmax: int) -> list[int]:
    """Coefficients [#j-matchings in a path with m edges] for j = 0..kmax."""
    return [_comb0(m - j + 1, j) for j in range(kmax + 1)]


def _cycle_matchings(m: int, kmax: int) -> list[int]:
    """Same for a cycle with m >= 2 edges; a 2-cycle x -> x+d -> x has two
    parallel edges."""
    return [1] + [_comb0(m - j, j) + _comb0(m - j - 1, j - 1) for j in range(1, kmax + 1)]


def _poly_mul(a: list[int], b: list[int], kmax: int) -> list[int]:
    out = [0] * (kmax + 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            if i + j > kmax:
                break
            out[i + j] += ai * bj
    return out


def _poly_pow(a: list[int], e: int, kmax: int) -> list[int]:
    """a ** e truncated at degree kmax, by repeated squaring."""
    out = [1]
    while e:
        if e & 1:
            out = _poly_mul(out, a, kmax)
        e >>= 1
        if e:
            a = _poly_mul(a, a, kmax)
    return out


# Exclusive bound on |x| for int64 chain steps over the integers: with
# d = x - x', |x + d| < 3 * 2^61 < 2^63.
_INT64_CHAIN_BOUND = 2**61


def _element_codes(amb: AmbientSpec, elements) -> np.ndarray:
    """Canonical sorted elements as a sorted array, plane pairs coded as
    x * p + y: int64 when every step x -> x + d between them provably stays
    inside int64, Python ints (dtype=object) otherwise."""
    if amb.kind == PLANE:
        p = amb.modulus
        codes = [x * p + y for x, y in elements]
        fits = p <= 2**31
    elif amb.kind == INTEGERS:
        codes = list(elements)
        fits = not codes or max(-codes[0], codes[-1]) < _INT64_CHAIN_BOUND
    else:
        codes = list(elements)
        fits = amb.modulus <= 2**62  # x + d < 2N
    return np.array(codes, dtype=np.int64 if fits else object)


def _step(codes: np.ndarray, amb: AmbientSpec, d) -> np.ndarray:
    """Codes of x + d for every coded element x."""
    if amb.kind == INTEGERS:
        return codes + d
    if amb.kind == PLANE:
        p = amb.modulus
        return (codes // p + d[0]) % p * p + (codes % p + d[1]) % p
    return (codes + d) % amb.modulus


def _orbit_length(amb: AmbientSpec, d) -> int:
    """Additive order of d != 0 in a finite ambient: N / gcd(d, N) in Z/N,
    p in F_p and in the plane over F_p."""
    if amb.kind == MOD_N:
        return amb.modulus // math.gcd(d, amb.modulus)
    return amb.modulus


def _chains(codes: np.ndarray, amb: AmbientSpec, d) -> tuple[np.ndarray, int, int]:
    """Split the pair graph x -> x + d (d != 0) on the coded set into paths
    and cycles, as +d is injective: returns the edge count of every path,
    and the edge count and number of the cycles.  Each cycle is a whole
    orbit of +d, so every cycle has ord(d) edges.

    One searchsorted finds every successor; path lengths come from pointer
    doubling (list ranking) from each path's first node, with index n as
    the sentinel that ends every path, in enough rounds to cover the
    longest possible path.  The edges on no path lie on cycles."""
    n = codes.size
    succ = _step(codes, amb, d)
    pos = np.searchsorted(codes, succ)
    has = pos < n
    has[has] = codes[pos[has]] == succ[has]
    jump = np.append(np.where(has, pos, n), n)
    dist = np.append(has.astype(np.int64), 0)
    edges = int(np.count_nonzero(has))
    for _ in range(edges.bit_length()):
        dist += dist[jump]
        jump = jump[jump]
    has_pred = np.zeros(n, dtype=bool)
    has_pred[pos[has]] = True
    paths = dist[:n][has & ~has_pred]
    cycle_edges = edges - int(paths.sum())
    if not cycle_edges:
        return paths, 0, 0
    m = _orbit_length(amb, d)
    return paths, m, cycle_edges // m


def _matching_poly(paths: np.ndarray, cycle_len: int, cycles: int, kmax: int) -> list[int]:
    """Matching polynomial, truncated at degree kmax, of disjoint paths
    with the given edge counts and `cycles` cycles of `cycle_len` edges:
    each distinct length's polynomial is raised to its multiplicity."""
    poly = [1]
    lengths, mults = np.unique(paths, return_counts=True)
    for m, mult in zip(lengths.tolist(), mults.tolist()):
        poly = _poly_mul(poly, _poly_pow(_path_matchings(m, kmax), mult, kmax), kmax)
    if cycles:
        poly = _poly_mul(poly, _poly_pow(_cycle_matchings(cycle_len, kmax), cycles, kmax),
                         kmax)
    return poly


def max_disjoint_pairs(members: frozenset, amb: AmbientSpec, d) -> int:
    """Largest number of vertex-disjoint pairs {x, x+d}; exact via the
    chain decomposition (greedy matching is optimal on paths and cycles):
    ceil(m/2) pairs on a path with m edges, floor(m/2) on a cycle."""
    if _hashable(d) == amb.identity(DIFFERENCE):
        return 0  # no pair {x, x} has two elements
    paths, cycle_len, cycles = _chains(_element_codes(amb, sorted(members)), amb, d)
    return int(((paths + 1) // 2).sum()) + cycles * (cycle_len // 2)


def energy_prime_k(A: GroundSet, k: int, method: str = "auto",
                   cap: int = 12, within_pairs_only: bool = False) -> int:
    """Ordered 2k-tuples (x_1, x'_1, ..., x_k, x'_k) in A^{2k} with all
    entries pairwise distinct and equal differences x_j - x'_j.

    The default algorithm counts, per difference d, ordered k-tuples of
    vertex-disjoint pairs through the matching polynomial of the graph
    x -> x + d on A, which splits into paths and cycles.  It handles each
    class {d, -d} with r(d) >= k once (the graph of -d is the reverse of
    the graph of d) on one array of A's elements: one sort-free
    searchsorted pass finds every successor, pointer doubling gives the
    path lengths, and every cycle has the order of d as its length.  Memory
    is O(|A|) beyond the difference histogram.  The arrays are int64 when
    no step can leave int64 and Python ints otherwise, so the count is
    exact at every size.  `method="enumerate"` is a direct backtracking
    enumeration, capped at |A| <= cap.

    `within_pairs_only` switches to the weaker reading that only requires
    x_j != x'_j inside each pair, i.e. the sum of r^k over nonzero
    differences.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    amb = A.ambient
    hist = difference_histogram(A)
    zero = amb.identity(DIFFERENCE)
    if within_pairs_only:
        return hist.energy(k, exclude_values=(zero,))
    if method == "enumerate":
        if len(A) > cap:
            raise CapExceeded(f"|A| = {len(A)} exceeds the enumeration cap {cap}")
        return _energy_prime_enumerate(A, k)
    if method != "auto":
        raise UnsupportedMode(f"unknown energy_prime_k method {method!r}")
    codes = _element_codes(amb, A.elements)
    total = 0
    for d in hist.values_with_count_at_least(k):
        minus = negate(amb, d)
        if d == zero or minus < d:
            continue  # the class {d, -d} is counted at its smaller member
        poly = _matching_poly(*_chains(codes, amb, d), k)
        total += (1 if minus == d else 2) * poly[k]
    return math.factorial(k) * total


def _energy_prime_enumerate(A: GroundSet, k: int) -> int:
    amb = A.ambient
    elems = list(A.elements)
    n = len(elems)
    zero = amb.identity(DIFFERENCE)
    by_diff: dict = {}
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            d = compose_value(amb, DIFFERENCE, elems[i], elems[j])
            if d == zero:
                continue
            by_diff.setdefault(d, []).append((i, j))

    def extend(pairs, used, depth):
        if depth == k:
            return 1
        total = 0
        for i, j in pairs:
            if i not in used and j not in used:
                used.add(i)
                used.add(j)
                total += extend(pairs, used, depth + 1)
                used.discard(i)
                used.discard(j)
        return total

    return sum(extend(pairs, set(), 0) for pairs in by_diff.values())


# ---------------------------------------------------------------------------
# Intersections, common energy, popularity levels

def intersection_size(A: GroundSet, shifts) -> int:
    """|A  intersect  (A+s_1)  intersect ... | exactly."""
    amb = A.ambient
    shifts = [canonical_element(amb, s) for s in shifts]
    count = 0
    for x in A:
        if all(compose_value(amb, DIFFERENCE, x, s) in A.members for s in shifts):
            count += 1
    return count


def common_energy(A: GroundSet, B: GroundSet) -> int:
    """Number of quadruples a_1 + b_1 = a_2 + b_2, computed as the inner
    product of the two difference histograms."""
    if A.ambient != B.ambient:
        raise AmbientMismatch(f"{A.ambient} vs {B.ambient}")
    ha = difference_histogram(A)
    hb = difference_histogram(B)
    small, big = (ha, hb) if ha.support_size <= hb.support_size else (hb, ha)
    items = small.items()
    counts = big.counts([v for v, _ in items]).tolist()
    return sum(c * b for (_, c), b in zip(items, counts))


def popular_level_set(A: GroundSet, delta: int, include_zero: bool = True) -> GroundSet:
    """Values x with delta < r_{A-A}(x) <= 2*delta; x = 0 kept iff the flag
    is set.  Over the integers the values must fit the element budget."""
    if delta < 1:
        raise ValueError("delta must be >= 1")
    hist = difference_histogram(A)
    zero = A.ambient.identity(DIFFERENCE)
    vals = [v for v in hist.values_with_count_in(delta, 2 * delta)
            if include_zero or v != zero]
    return GroundSet.from_iterable(A.ambient, vals)


def dyadic_best_level(A: GroundSet, l: int) -> tuple[int, GroundSet]:
    """Among dyadic classes delta in {1, 2, 4, ...}, the class maximizing
    delta^(l+1) * |P_delta| with P_delta = {x : delta < r(x) <= 2 delta}.

    Ties break toward the smaller delta.  A singleton set has its whole
    mass at multiplicity 1, below every class, and returns (1, {0}).
    """
    if l < 1:
        raise ValueError("l must be >= 1")
    if len(A) == 0:
        raise ValueError("empty set has no dyadic level")
    if len(A) == 1:
        return 1, GroundSet.from_iterable(A.ambient, [A.ambient.identity(DIFFERENCE)])
    hist = difference_histogram(A)
    best = None
    delta = 1
    while delta <= len(A):
        members = hist.values_with_count_in(delta, 2 * delta)
        score = delta ** (l + 1) * len(members)
        if members and (best is None or score > best[0]):
            best = (score, delta, members)
        delta *= 2
    score, delta, members = best  # nonempty: r(0) = |A| >= 2 lands in some class
    return delta, GroundSet.from_iterable(A.ambient, members)
