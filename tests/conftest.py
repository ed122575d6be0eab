"""Shared corpus builders and independent oracles.

The oracles share no code with the library: they compose elements with
their own arithmetic (`oracle_compose`) and enumerate tuples (with
equality/distinctness pruning) over explicit pair lists grouped by
sorting, so agreement with the library is a genuine dual-route check.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from sidonkit import AmbientSpec, GroundSet, integer_set


# ---------------------------------------------------------------------------
# Random corpora

def random_integer_set(rng: random.Random, max_size: int = 10,
                       lo: int = 0, hi: int = 60) -> GroundSet:
    size = rng.randint(1, max_size)
    pool = range(lo, hi + 1)
    return integer_set(rng.sample(pool, min(size, len(pool))))


def random_field_set(rng: random.Random, p: int = 13, max_size: int = 10) -> GroundSet:
    size = rng.randint(1, min(max_size, p))
    return GroundSet.from_iterable(AmbientSpec.prime_field(p),
                                   rng.sample(range(p), size))


def mixed_corpus(seed: int, count: int, max_size: int = 10) -> list[GroundSet]:
    """Seeded mixture of integer sets (dense and spread) and F_13 sets."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        which = i % 4
        if which == 0:
            out.append(random_integer_set(rng, max_size, 0, 60))
        elif which == 1:
            out.append(random_integer_set(rng, max_size, 0, 10**6))
        elif which == 2:
            out.append(random_integer_set(rng, max_size, -30, 30))
        else:
            out.append(random_field_set(rng, 13, max_size))
    return out


def membership_corpus() -> list[tuple[GroundSet, list[tuple]]]:
    """Sets in the ambients that membership tests treat specially, each with
    shift tuples: integers with int64 codes and with Python-int codes
    (+-2^62, +-(2^63 - 1)), Z/2^4 (2-torsion), F_13, and the planes over F_2
    and F_5.  The shifts are seeded differences of the set, so most
    intersections are nonempty, plus the set's own extremes."""
    big = 2**63 - 1
    sets = [integer_set([0, 1, 2, 4, 5, 8, 9, 11, 14]),
            integer_set([-big, -2**62, -5, 0, 1, 2, 3, 7, 2**62 - 1, 2**62, big]),
            GroundSet.from_iterable(AmbientSpec.mod(16), [0, 1, 3, 5, 8, 9, 12, 15]),
            GroundSet.from_iterable(AmbientSpec.prime_field(13), [0, 1, 2, 4, 6, 9, 12]),
            GroundSet.from_iterable(AmbientSpec.plane(2), [(0, 0), (0, 1), (1, 1)]),
            GroundSet.from_iterable(AmbientSpec.plane(5),
                                    [(0, 0), (1, 1), (1, 2), (2, 4), (3, 1), (4, 4)])]
    rng = random.Random(19)
    out = []
    for S in sets:
        amb = S.ambient
        diffs = sorted({oracle_compose(amb.kind, amb.modulus, "difference", a, b)
                        for a in S for b in S} - {(0, 0), 0})
        diffs = [d for d in diffs if amb.kind != "integers" or abs(d) <= big]
        shifts = [tuple(rng.sample(diffs, rng.randint(1, 3))) for _ in range(8)]
        out.append((S, shifts + [(S.elements[0], S.elements[-1])]))
    return out


# ---------------------------------------------------------------------------
# Energy oracles

def _compose_fn(ambient: AmbientSpec, mode: str):
    return lambda a, b: oracle_compose(ambient.kind, ambient.modulus, mode, a, b)


def oracle_energy_full(A: GroundSet, k: int, mode: str = "difference") -> int:
    """Literal 2k-tuple enumeration with an equality filter; tiny sets only."""
    comp = _compose_fn(A.ambient, mode)
    elems = A.elements
    total = 0
    for tup in itertools.product(elems, repeat=2 * k):
        vals = [comp(tup[2 * i], tup[2 * i + 1]) for i in range(k)]
        if all(v == vals[0] for v in vals):
            total += 1
    return total


def _sorted_groups(values: list) -> list[int]:
    """Run lengths of equal values after sorting (no hashing involved)."""
    ordered = sorted(values)
    groups = []
    run = 0
    prev = object()
    for v in ordered:
        if v == prev:
            run += 1
        else:
            if run:
                groups.append(run)
            prev, run = v, 1
    if run:
        groups.append(run)
    return groups


def _count_tuples(r: int, k: int) -> int:
    if k == 0:
        return 1
    return sum(_count_tuples(r, k - 1) for _ in range(r))


def oracle_energy_grouped(A: GroundSet, k: int, mode: str = "difference") -> int:
    """Enumerate ordered k-tuples of equal-valued pairs, pruned by grouping
    the pair list through sorting."""
    comp = _compose_fn(A.ambient, mode)
    values = [comp(a, b) for a in A.elements for b in A.elements]
    return sum(_count_tuples(r, k) for r in _sorted_groups(values))


def oracle_energy_prime(A: GroundSet, k: int) -> int:
    """Distinct-entry tuple enumeration: ordered k-tuples of index pairs
    with one common difference and all 2k indices distinct."""
    comp = _compose_fn(A.ambient, "difference")
    elems = A.elements
    n = len(elems)
    zero = (0, 0) if A.ambient.kind == "prime-square-plane" else 0
    tagged = []
    for i in range(n):
        for j in range(n):
            if i != j:
                d = comp(elems[i], elems[j])
                if d != zero:
                    tagged.append((d, i, j))
    tagged.sort(key=lambda t: t[0])
    total = 0
    start = 0
    while start < len(tagged):
        stop = start
        while stop < len(tagged) and tagged[stop][0] == tagged[start][0]:
            stop += 1
        group = [(i, j) for _, i, j in tagged[start:stop]]
        total += _count_disjoint(group, set(), k)
        start = stop
    return total


def _count_disjoint(group, used: set, k: int) -> int:
    if k == 0:
        return 1
    total = 0
    for i, j in group:
        if i not in used and j not in used:
            used.add(i)
            used.add(j)
            total += _count_disjoint(group, used, k - 1)
            used.discard(i)
            used.discard(j)
    return total


def oracle_max_disjoint_pairs(kind: str, modulus, elements, d) -> int:
    """Largest number of pairwise disjoint pairs {x, x + d} inside
    `elements`, by trying every set of such pairs."""
    members = set(elements)
    pairs = []
    for x in elements:
        y = oracle_compose(kind, modulus, "sum", x, d)
        if y in members and y != x and {x, y} not in pairs:
            pairs.append({x, y})

    def best(i: int, used: set) -> int:
        if i == len(pairs):
            return 0
        skip = best(i + 1, used)
        if used.isdisjoint(pairs[i]):
            return max(skip, 1 + best(i + 1, used | pairs[i]))
        return skip

    return best(0, set())


# ---------------------------------------------------------------------------
# Independent family/graph oracles

def cayley_rectangle_found(S: GroundSet, k: int, g: int) -> bool:
    """Direct bipartite search over the full shift-by-element incidence of
    Z/N: is there a (g+1) x k all-ones rectangle?"""
    N = S.ambient.modulus
    members = S.members
    for Y in itertools.combinations(range(N), k):
        rows = 0
        for t in range(N):
            if all((y + t) % N in members for y in Y):
                rows += 1
                if rows >= g + 1:
                    return True
    return False


def bfamily_shift_oracle_violation(S: GroundSet, k: int, g: int) -> bool:
    """Definitional check: some g distinct nonzero shifts whose common
    intersection with S has at least k elements.  Tiny supports only."""
    comp = _compose_fn(S.ambient, "difference")
    elems = S.elements
    zero = (0, 0) if S.ambient.kind == "prime-square-plane" else 0
    support = sorted({comp(a, b) for a in elems for b in elems} - {zero})
    for shifts in itertools.combinations(support, g):
        common = [x for x in elems if all(comp(x, s) in elems for s in shifts)]
        if len(common) >= k:
            return True
    return False


# ---------------------------------------------------------------------------
# Bounded-multiplicity subset oracle, with its own composition arithmetic

def oracle_compose(kind: str, modulus, mode: str, a, b):
    """a o b written out from the definitions; no sidonkit code."""
    if kind == "prime-square-plane":
        sign = -1 if mode == "difference" else 1
        return ((a[0] + sign * b[0]) % modulus, (a[1] + sign * b[1]) % modulus)
    if mode == "difference":
        v = a - b
    elif mode == "sum":
        v = a + b
    elif mode == "product":
        v = a * b
    elif kind == "integers":
        return Fraction(a, b)
    else:
        v = a * pow(b, -1, modulus)
    return v if kind == "integers" else v % modulus


def oracle_histogram(A: GroundSet, B: GroundSet, mode: str) -> tuple[dict, int]:
    """(value -> number of ordered pairs (a, b) in A x B with a o b = value,
    number of ratio pairs skipped for b = 0), from `oracle_compose`."""
    kind, modulus = A.ambient.kind, A.ambient.modulus
    counts: dict = {}
    skipped = 0
    for a in A.elements:
        for b in B.elements:
            if mode == "ratio" and b == 0:
                skipped += 1
                continue
            v = oracle_compose(kind, modulus, mode, a, b)
            counts[v] = counts.get(v, 0) + 1
    return counts, skipped


def oracle_max_count(counts: dict, exclude=()):
    """(value, count) with the largest count outside `exclude`, ties to the
    smallest value; None when nothing is left."""
    left = [(v, c) for v, c in counts.items() if v not in exclude]
    return min(left, key=lambda vc: (-vc[1], vc[0])) if left else None


def oracle_fits(kind: str, modulus, mode: str, subset, k: int) -> bool:
    """Does every value other than the mode's identity (0 or (0, 0) for
    differences, 1 for products and ratios, none for sums) arise from at
    most k ordered pairs of `subset`?"""
    if mode == "difference":
        identity = (0, 0) if kind == "prime-square-plane" else 0
    else:
        identity = None if mode == "sum" else 1
    seen: dict = {}
    for a in subset:
        for b in subset:
            v = oracle_compose(kind, modulus, mode, a, b)
            if v != identity:
                seen[v] = seen.get(v, 0) + 1
                if seen[v] > k:
                    return False
    return True


def oracle_sid_k_max(kind: str, modulus, mode: str, elements, k: int) -> int:
    """Largest subset that fits the budget k, by enumerating subsets from
    the largest size down.  |elements| <= 14 or so."""
    elements = list(elements)
    for size in range(len(elements), 0, -1):
        for subset in itertools.combinations(elements, size):
            if oracle_fits(kind, modulus, mode, subset, k):
                return size
    return 0


# ---------------------------------------------------------------------------
# Seeded extraction oracle, from the documented sampling and repair rules

def _oracle_counts(kind: str, modulus, mode: str, members) -> dict:
    counts: dict = {}
    for a in members:
        for b in members:
            v = oracle_compose(kind, modulus, mode, a, b)
            counts[v] = counts.get(v, 0) + 1
    return counts


def _oracle_meets_bound(kind: str, modulus, mode: str, members, bound: int) -> bool:
    """Does every value arise from at most `bound` ordered pairs, with the
    difference identity exempt?"""
    zero = (0, 0) if kind == "prime-square-plane" else 0
    return all(c <= bound for v, c in _oracle_counts(kind, modulus, mode, members).items()
               if not (mode == "difference" and v == zero))


def _oracle_repair(kind: str, modulus, mode: str, sample: list, k: int) -> tuple[list, int]:
    """Delete elements until no value admits k pairwise-disjoint pairs:
    the offender has the largest count, ties to the smallest value, and the
    deleted element lies in the most of its pairs, ties to the smallest."""
    comp = lambda a, b: oracle_compose(kind, modulus, mode, a, b)
    zero = (0, 0) if kind == "prime-square-plane" else 0
    members = list(sample)
    deletions = 0
    while True:
        offenders = []
        for v, c in _oracle_counts(kind, modulus, mode, members).items():
            if mode == "difference":
                pairs = 0 if v == zero else oracle_max_disjoint_pairs(kind, modulus, members, v)
            else:  # the pairs {x, y} with x o y = v, the middle pair {x, x} included
                pairs = (c + sum(comp(x, x) == v for x in members)) // 2
            if pairs >= k:
                offenders.append((-c, v))
        if not offenders:
            return members, deletions
        v = min(offenders)[1]
        if mode == "difference":  # pairs {x, x + v} and {x - v, x}
            part = {x: sum(comp(y, x) == v for y in members)
                    + sum(comp(x, y) == v for y in members) for x in members}
        else:
            part = {x: int(any(comp(x, y) == v for y in members)) for x in members}
        members.remove(min(members, key=lambda x: (-part[x], x)))
        deletions += 1


def oracle_extract(A: GroundSet, k: int, mode: str, seed: int, trials: int) -> dict:
    """subset, trial_sizes, best_trial and deletions of `extract_random`:
    an input whose multiplicities meet the bound 3k - 3 (difference,
    identity exempt) or 2k - 2 is kept whole; otherwise trial t keeps each
    element with probability q = min(1, (|A| / 2E_k)^(1/(2k-1))) under
    random.Random(f"{seed}:{t}"), repairs the sample, and the first largest
    survivor wins."""
    kind, modulus = A.ambient.kind, A.ambient.modulus
    elems = list(A.elements)
    bound = 3 * k - 3 if mode == "difference" else 2 * k - 2
    whole = {"subset": elems, "trial_sizes": [], "best_trial": None, "deletions": 0}
    if len(elems) <= 1:
        return whole
    if _oracle_meets_bound(kind, modulus, mode, elems, bound):
        return whole
    q = min(1.0, (len(elems) / (2.0 * oracle_energy_full(A, k, mode))) ** (1.0 / (2 * k - 1)))
    best = None
    sizes = []
    for t in range(trials):
        rng = random.Random(f"{seed}:{t}")
        members, deletions = _oracle_repair(kind, modulus, mode,
                                            [a for a in elems if rng.random() < q], k)
        assert _oracle_meets_bound(kind, modulus, mode, members, bound)
        sizes.append(len(members))
        if best is None or len(members) > len(best["subset"]):
            best = {"subset": members, "best_trial": t, "deletions": deletions}
    return {**best, "trial_sizes": sizes}


@pytest.fixture(scope="session")
def corpus_small():
    return mixed_corpus(20260809, 200, max_size=10)
