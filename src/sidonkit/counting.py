"""Exact representation-function histograms and energy functionals.

A histogram is two arrays: the distinct codes of the composed values (see
`codes`) in increasing order and their counts.  The codes are int64 when
the int64 proof in `codes` holds for the inputs, and Python ints in a
dtype=object array otherwise, which is much slower: on a 2-CPU VM the
difference histogram of 600 spread integers takes about 0.15 s with
+-2^62 among them and 12 ms without.  Energies are computed from the
count-of-counts compression with arbitrary-precision arithmetic, so no
value is ever approximated.

A histogram is built one of three ways (`RepHistogram.path`):

- CONVOLUTION: a sum or difference of scalar sets (integers, Z/N, F_p)
  is the convolution of their indicator arrays over their spans L_A and
  L_B, folded mod N in Z/N and F_p (`_convolved_counts`).  It is used
  when L_A * L_B is at most _CONV_RATIO (16, measured below) times the
  pairs a pair path would compose.
- HALF_PAIRS: the histogram of a set A with itself in difference, sum or
  product mode is symmetric: r(d) = r(-d), and a + b = b + a, ab = ba.
  Above _HALF_CUT (512) elements it composes each unordered pair once, in
  blocks of rows, and rebuilds the ordered-pair counts from the halves
  (`_self_counts`); differences in a finite group larger than the half
  pairs do not take it.
- ORDERED_PAIRS: every other request composes every ordered pair.

The plane, products, ratios and sparse sets stay on the pair paths.
There composed codes are counted with `np.bincount` when their span
(max - min + 1) is at most the number of pairs, so the count array is
never larger than the pair array, and otherwise sorted and counted by
runs: int64 codes sorted in place, Python ints as a list.

Public functions that ask for the same histogram more than once run under
`reuses_histograms`: while such a call runs, `rep_histogram` keeps the two
histograms it used most recently and returns one of them again for an
equal (A, B, mode, skip_noninvertible).  Nothing is kept once the
outermost such call returns.
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
    PRODUCT,
    RATIO,
    SUM,
    AmbientSpec,
    canonical_element,
    negate,
)
from .codes import (
    code_dtype,
    combine_codes,
    compose_codes,
    decode,
    element_codes,
    find_codes,
    pair_codes,
    run_starts,
    sort_codes,
    unique_codes,
    value_codes,
    value_order,
)
from .errors import AmbientMismatch, CapExceeded, UnsupportedMode
from .groundset import GroundSet, translate_intersection


# The ways a histogram is built, recorded as `RepHistogram.path`.
CONVOLUTION = "convolution"
HALF_PAIRS = "half pairs"
ORDERED_PAIRS = "ordered pairs"


class RepHistogram:
    """Multiplicity map r_{A o B} for one binary composition.

    Holds the distinct value codes in increasing order and their counts,
    and decodes values only when asked for them.  `total_pairs` counts
    composed ordered pairs; ratio pairs skipped for a non-invertible right
    element are tallied in `skipped_pairs`.  `path` names the way it was
    built: CONVOLUTION, HALF_PAIRS or ORDERED_PAIRS.  A query that is not a
    value of the mode in canonical form, such as a bool or a float, counts 0.
    """

    def __init__(self, ambient: AmbientSpec, mode: str, codes: np.ndarray,
                 counts: np.ndarray, total_pairs: int, skipped_pairs: int = 0,
                 path: str = ORDERED_PAIRS):
        self.ambient = ambient
        self.mode = mode
        self._codes = codes
        self._counts = counts
        self.total_pairs = total_pairs
        self.skipped_pairs = skipped_pairs
        self.path = path

    def _decoded(self, codes: np.ndarray) -> list:
        return decode(self.ambient, self.mode, codes)

    def _positions(self, values) -> np.ndarray:
        """Index of each value in the code array, -1 where absent."""
        codes, held = value_codes(self.ambient, self.mode, values, self._codes.dtype)
        pos = find_codes(self._codes, codes)
        pos[~held] = -1
        return pos

    def counts(self, values) -> np.ndarray:
        """Counts of many values, in input order, as an int64 array; an
        absent value counts 0."""
        pos = self._positions(values)
        found = pos >= 0
        out = np.zeros(pos.size, dtype=np.int64)
        out[found] = self._counts[pos[found]]
        return out

    def count(self, value) -> int:
        return int(self.counts([value])[0])

    def iter_items(self):
        """(value, count) pairs in canonical value order."""
        codes, counts = self._codes, self._counts
        order = value_order(self.ambient, self.mode, codes)
        if order is not None:
            codes, counts = codes[order], counts[order]
        return zip(self._decoded(codes), counts.tolist())

    def items(self):
        return list(self.iter_items())

    def values(self):
        return (v for v, _ in self.iter_items())

    @property
    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The distinct value codes in increasing order and their counts,
        as held: a caller that changes the counts copies them first."""
        return self._codes, self._counts

    def to_counts_dict(self) -> dict:
        return dict(zip(self._decoded(self._codes), self._counts.tolist()))

    @property
    def support_size(self) -> int:
        return int(self._codes.size)

    def _excluded(self, exclude_values) -> np.ndarray:
        """Positions of the distinct present values among `exclude_values`,
        in increasing order."""
        pos = self._positions(exclude_values)
        return unique_codes(pos[pos >= 0])

    @functools.cached_property
    def _count_of_counts(self) -> dict:
        """Map count -> number of values attaining it, built on first use."""
        return {c: m for c, m in enumerate(np.bincount(self._counts).tolist()) if m and c}

    def count_multiset(self, exclude_values=()) -> dict:
        """Map count -> number of values attaining it, outside the excluded
        values."""
        out = dict(self._count_of_counts)
        for c in self._counts[self._excluded(exclude_values)].tolist():
            out[c] -= 1
            if not out[c]:
                del out[c]
        return out

    def energy(self, k: int, exclude_values=()) -> int:
        """Sum of count^k over the support, exactly."""
        return sum(mult * c**k for c, mult in self.count_multiset(exclude_values).items())

    def values_with_count_in(self, lo: int, hi: int) -> list:
        """Values whose count c satisfies lo < c <= hi."""
        return self._decoded(self._codes[(self._counts > lo) & (self._counts <= hi)])

    def values_with_count_at_least(self, theta: int) -> list:
        return self._decoded(self._codes[self._counts >= theta])

    def max_count(self, exclude_values=()):
        """(value, count) with the largest count outside the excluded values,
        ties broken by canonical value order; None on empty support.  The
        counts are scanned as views between the excluded positions, so
        nothing of the histogram's size is copied."""
        codes, cnts = self._codes, self._counts
        cuts = self._excluded(exclude_values).tolist()
        parts = [(lo, cnts[lo:hi]) for lo, hi in zip([0] + [c + 1 for c in cuts],
                                                     cuts + [cnts.size]) if lo < hi]
        maxima = [int(part.max()) for _, part in parts]
        best = max(maxima, default=0)
        if not best:
            return None  # empty support, or every value excluded
        if value_order(self.ambient, self.mode, codes[:0]) is None:
            # code order is value order (all but integer ratios): the first
            # maximum of the first part that holds one
            lo, part = next(p for p, m in zip(parts, maxima) if m == best)
            idx = lo + int(np.argmax(part))
        else:
            ties = np.concatenate([lo + np.flatnonzero(part == best) for lo, part in parts])
            idx = int(ties[value_order(self.ambient, self.mode, codes[ties])[0]])
        return self._decoded(codes[idx:idx + 1])[0], best

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


def _count_values(flat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sorted distinct codes of a fresh code array and their counts; the
    array is consumed.  A span no larger than the array is counted with
    bincount, whose count array is then no larger than `flat`.  Otherwise
    the codes are sorted (`sort_codes`) and counted by runs; when every
    code is distinct, the sorted array itself comes back with counts of
    one, and nothing is gathered."""
    if not flat.size:
        return flat, np.zeros(0, dtype=np.int64)
    lo, hi = int(flat.min()), int(flat.max())
    if hi - lo + 1 <= flat.size:
        flat -= lo
        counts = np.bincount(flat.astype(np.int64, copy=False))
        vals = np.flatnonzero(counts)
        return vals.astype(flat.dtype, copy=False) + lo, counts[vals]
    flat = sort_codes(flat)
    new = run_starts(flat)
    if np.count_nonzero(new) == flat.size:
        return flat, np.ones(flat.size, dtype=np.int64)
    starts = np.flatnonzero(new)
    counts = np.append(starts[1:], flat.size)
    counts -= starts
    return flat[starts], counts


# Histograms of a set with itself above _HALF_CUT elements compose each
# unordered pair once, _BLOCK rows at a time.  Smaller ones compose every
# ordered pair: there the half path's extra passes (the blocks, and the
# mirror of differences) can cost more than the pairs they save,
# as for a 301-point plane difference histogram, 3.1 ms against 2.3 ms
# on a 2-CPU VM.
_BLOCK = 256
_HALF_CUT = 2 * _BLOCK


def _triangle_codes(amb: AmbientSpec, mode: str, a: np.ndarray, diagonal: bool) -> np.ndarray:
    """Codes of a[i] o a[j] for every i < j, and i = j too when `diagonal`,
    as one fresh array.  Each block of rows composes its own square under
    an upper-triangle mask, and the rectangle to its right whole."""
    n = a.size
    out = np.empty(n * (n - 1) // 2 + (n if diagonal else 0), dtype=a.dtype)
    upper = np.triu(np.ones((_BLOCK, _BLOCK), dtype=bool), 0 if diagonal else 1)
    pos = 0
    for lo in range(0, n, _BLOCK):
        hi = min(lo + _BLOCK, n)
        rows = a[lo:hi]
        square = compose_codes(amb, mode, rows, rows)[upper[:hi - lo, :hi - lo].ravel()]
        for part in (square, compose_codes(amb, mode, rows, a[hi:])):
            out[pos:pos + part.size] = part
            pos += part.size
    return out


def _group_size(amb: AmbientSpec) -> int:
    """Number of elements of a finite ambient: N, p, or p^2 for the plane."""
    return amb.modulus ** 2 if amb.kind == PLANE else amb.modulus


def _composes_half(amb: AmbientSpec, mode: str, n: int) -> bool:
    """Whether A o A, |A| = n, composes each unordered pair once: above
    _HALF_CUT elements in difference, sum or product mode, and for
    differences in a finite ambient only when the group is no larger than
    the n(n-1)/2 pairs, where one count array over the group and its
    mirror rebuild the counts."""
    if mode == RATIO or n <= _HALF_CUT:
        return False
    return mode != DIFFERENCE or amb.kind == INTEGERS or _group_size(amb) <= n * (n - 1) // 2


def _self_counts(amb: AmbientSpec, mode: str, elements) -> tuple[np.ndarray, np.ndarray]:
    """Sorted distinct codes of A o A and their ordered-pair counts, for
    the sorted elements of A and a case `_composes_half` admits, from the
    pairs i < j (and i = j for sums and products) only.

    Sums and products double the counts and take the diagonal x o x off
    once.  A difference and its negation have the same count, so the
    differences a_i - a_j with i < j give every nonzero one, and 0 counts
    |A|: over the integers they are all negative, and their negations
    follow them in reverse; in a finite ambient a count array over the
    whole group adds its own mirror."""
    n = len(elements)
    a = element_codes(amb, elements, code_dtype(amb, mode, elements))
    if mode != DIFFERENCE:
        codes, counts = _count_values(_triangle_codes(amb, mode, a, diagonal=True))
        counts *= 2
        np.subtract.at(counts, np.searchsorted(codes, combine_codes(amb, mode, a, a)), 1)
        return codes, counts
    upper = _triangle_codes(amb, mode, a, diagonal=False)
    if amb.kind != INTEGERS:
        group = _group_size(amb)
        counts = np.bincount(upper, minlength=group)
        counts += counts[combine_codes(amb, DIFFERENCE, 0, np.arange(group))]
        counts[0] = n
        codes = np.flatnonzero(counts)
        return codes, counts[codes]
    codes, counts = _count_values(upper)
    zero = np.zeros(1, dtype=codes.dtype)
    return (np.concatenate((codes, zero, combine_codes(amb, DIFFERENCE, 0, codes[::-1]))),
            np.concatenate((counts, [n], counts[::-1])))


# A sum or difference histogram of scalar sets is a convolution of their
# indicator arrays over their spans L_A and L_B, which costs about L_A * L_B
# multiply-adds.  It is built that way when L_A * L_B is at most
# _CONV_RATIO times the pairs the pair path would compose.  Measured on a
# 2-CPU VM (ratio: convolution against pairs), 4096 elements with
# themselves on half pairs: 4: 10 against 92 ms, 16: 34 against 93 ms,
# 32: 67 against 92 ms, 64: 128 against 93 ms; 4096 against 4096 other
# elements: 16: 67 against 131 ms, 32: 121 against 130 ms; 300 elements:
# 16: 0.35 against 0.39 ms, 32: 0.53 against 0.39 ms; 64 elements: 8:
# 0.046 against 0.048 ms, 16: 0.055 against 0.052 ms.  At 16 convolution
# wins from 300 elements up and loses by at most a few microseconds below;
# at 32 it loses by a third at 300 elements.
_CONV_RATIO = 16


def _span(elements) -> int:
    return elements[-1] - elements[0] + 1


def _convolves(amb: AmbientSpec, mode: str, A: GroundSet, B: GroundSet, pairs: int) -> bool:
    """Whether A o B is built by `_convolved_counts`: sums and differences
    of nonempty sets outside the plane whose spans multiply to at most
    _CONV_RATIO times `pairs`."""
    return (mode in (SUM, DIFFERENCE) and amb.kind != PLANE and len(A) > 0 and len(B) > 0
            and _span(A.elements) * _span(B.elements) <= _CONV_RATIO * pairs)


def _indicator(elements) -> np.ndarray:
    """1 at x - min for every x of the sorted scalars `elements`, 0 elsewhere
    in their span, as float64."""
    lo = elements[0]
    out = np.zeros(_span(elements))
    out[np.array([x - lo for x in elements], dtype=np.int64)] = 1
    return out


def _convolved_counts(amb: AmbientSpec, mode: str, A: GroundSet,
                      B: GroundSet) -> tuple[np.ndarray, np.ndarray]:
    """Sorted distinct codes of A + B or A - B and their counts, from one
    np.convolve of the indicator arrays (of B reversed for differences):
    entry i counts the value off + i.  In Z/N and F_p, residues are taken as
    the integers 0..N-1 and the result is folded mod N.  Every entry is a
    sum of at most min(|A|, |B|) products of 0 and 1, so each partial sum
    is an integer below 2^53 and exact in float64, in any order of
    summation; numpy convolves float64 through BLAS dot products, 4-6 times
    faster than its int64 loop."""
    a, b = A.elements, B.elements
    if mode == SUM:
        r, off = np.convolve(_indicator(a), _indicator(b)), a[0] + b[0]
    else:
        r, off = np.convolve(_indicator(a), _indicator(b)[::-1]), a[0] - b[-1]
    if amb.kind != INTEGERS:
        n = amb.modulus
        off %= n
        if r.size > n:  # r.size <= 2n - 1: each value is counted at i and at i + n
            r[:r.size - n] += r[n:]
            r = r[:n]
    idx = np.flatnonzero(r)
    counts = r[idx].astype(np.int64)
    codes = idx.astype(code_dtype(amb, mode, a, b)) + off
    if amb.kind != INTEGERS:  # codes >= n wrap round to the front
        wrap = int(np.searchsorted(codes, n))
        codes[wrap:] -= n
        codes, counts = np.roll(codes, -wrap), np.roll(counts, -wrap)
    return codes, counts


def _build_histogram(A: GroundSet, B: GroundSet, mode: str,
                     skip_noninvertible: bool) -> RepHistogram:
    """The histogram of A o B, composed afresh: by convolution where
    `_convolves` says so, else from the unordered pairs of a set with itself
    where `_composes_half` says so, else from every ordered pair."""
    amb, n = A.ambient, len(A)
    half = (A is B or A == B) and _composes_half(amb, mode, n)
    if half:
        pairs = n * (n - 1) // 2 if mode == DIFFERENCE else n * (n + 1) // 2
    else:
        pairs = n * len(B)
    if _convolves(amb, mode, A, B, pairs):
        return RepHistogram(amb, mode, *_convolved_counts(amb, mode, A, B), n * len(B),
                            path=CONVOLUTION)
    if half:
        return RepHistogram(amb, mode, *_self_counts(amb, mode, A.elements), n * n,
                            path=HALF_PAIRS)
    flat, skipped = pair_codes(amb, mode, A.elements, B.elements, skip_noninvertible)
    return RepHistogram(amb, mode, *_count_values(flat), flat.size, skipped)


# The reuse slot of the outermost running `reuses_histograms` call: a dict
# from (A, B, mode, skip_noninvertible) to the histogram, least recently
# used first, holding at most _REUSE_SIZE of them; None outside.
_REUSE_SLOT: ContextVar[dict | None] = ContextVar("sidonkit_histogram_reuse", default=None)
_REUSE_SIZE = 2


def reuses_histograms(fn):
    """Run fn with a histogram reuse slot.  While fn runs, `rep_histogram`
    returns a histogram it used among the last two when asked again for an
    equal (A, B, mode, skip_noninvertible); any other request drops the
    least recently used one when the slot is full, before building.
    Nested calls join the outermost one, whose exit clears the slot."""
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
        if key in slot:
            slot[key] = slot.pop(key)  # now the most recently used
            return slot[key]
        while len(slot) >= _REUSE_SIZE:
            del slot[next(iter(slot))]
    hist = _build_histogram(A, B, mode, skip_noninvertible)
    if slot is not None:
        slot[key] = hist
    return hist


def difference_histogram(A: GroundSet) -> RepHistogram:
    return rep_histogram(A, A, DIFFERENCE)


@dataclass(frozen=True)
class EnergyReport:
    k: int
    mode: str
    value: int
    kappa: float | None
    set_size: int

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "mode": self.mode,
            "value": self.value,
            "kappa": self.kappa,
            "set_size": self.set_size,
        }


def kappa_of(value: int, size: int, k: int) -> float | None:
    """log_|A|(value) - k; defined for |A| >= 2 and value > 0."""
    if size < 2 or value <= 0:
        return None
    return math.log(value) / math.log(size) - k


def energy_k(A: GroundSet, k: int, mode: str = DIFFERENCE) -> EnergyReport:
    """k-th moment of the composition histogram of A with itself."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if len(A) < 1:
        raise ValueError("energy of the empty set is undefined")
    if mode not in (DIFFERENCE, SUM, PRODUCT):
        raise UnsupportedMode(f"energy mode must be difference/sum/product, got {mode!r}")
    hist = rep_histogram(A, A, mode)
    value = hist.energy(k)
    return EnergyReport(k, mode, value, kappa_of(value, len(A), k), len(A))


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


def _chain_codes(amb: AmbientSpec, elements) -> np.ndarray:
    """Codes of canonical sorted elements for `_chains`, whose steps
    x + (x' - x'') add three element terms."""
    return element_codes(amb, elements, code_dtype(amb, SUM, elements, terms=3))


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
    succ = combine_codes(amb, SUM, codes, element_codes(amb, [d], codes.dtype))
    pos = find_codes(codes, succ)
    has = pos >= 0
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


def max_disjoint_pairs(members, amb: AmbientSpec, d) -> int:
    """Largest number of vertex-disjoint pairs {x, x+d} among `members`,
    canonical elements in any order; exact via the
    chain decomposition (greedy matching is optimal on paths and cycles):
    ceil(m/2) pairs on a path with m edges, floor(m/2) on a cycle."""
    return _disjoint_pairs(_chain_codes(amb, sorted(members)), amb, d)


def _disjoint_pairs(codes: np.ndarray, amb: AmbientSpec, d) -> int:
    """`max_disjoint_pairs` of the members whose `_chain_codes` are `codes`."""
    if (tuple(d) if isinstance(d, list) else d) == amb.identity(DIFFERENCE):
        return 0  # no pair {x, x} has two elements
    paths, cycle_len, cycles = _chains(codes, amb, d)
    return int(((paths + 1) // 2).sum()) + cycles * (cycle_len // 2)


def energy_prime_k(A: GroundSet, k: int, within_pairs_only: bool = False) -> int:
    """Ordered 2k-tuples (x_1, x'_1, ..., x_k, x'_k) in A^{2k} with all
    entries pairwise distinct and equal differences x_j - x'_j.

    Counts, per difference d, ordered k-tuples of vertex-disjoint pairs
    through the matching polynomial of the graph x -> x + d on A, which
    splits into paths and cycles.  It handles each
    class {d, -d} with r(d) >= k once (the graph of -d is the reverse of
    the graph of d) on one array of A's elements: one sort-free
    searchsorted pass finds every successor, pointer doubling gives the
    path lengths, and every cycle has the order of d as its length.  Memory
    is O(|A|) beyond the difference histogram.  The arrays are int64 when
    no step can leave int64 and Python ints otherwise, so the count is
    exact at every size.

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
    codes = _chain_codes(amb, A.elements)
    total = 0
    for d in hist.values_with_count_at_least(k):
        minus = negate(amb, d)
        if d == zero or minus < d:
            continue  # the class {d, -d} is counted at its smaller member
        poly = _matching_poly(*_chains(codes, amb, d), k)
        total += (1 if minus == d else 2) * poly[k]
    return math.factorial(k) * total


# ---------------------------------------------------------------------------
# Intersections, common energy, popularity levels

def intersection_size(A: GroundSet, shifts) -> int:
    """|A  intersect  (A+s_1)  intersect ... | exactly."""
    amb = A.ambient
    shifts = [amb.identity(DIFFERENCE)] + [canonical_element(amb, s) for s in shifts]
    return len(translate_intersection(A, shifts))


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
