import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    membership_corpus,
    oracle_compose,
    oracle_energy_full,
    oracle_energy_grouped,
    oracle_energy_prime,
    oracle_histogram,
    oracle_max_count,
    oracle_max_disjoint_pairs,
)
from sidonkit import (
    AmbientSpec,
    GroundSet,
    affine_image,
    common_energy,
    dyadic_best_level,
    energy_k,
    energy_prime_k,
    integer_range,
    integer_set,
    intersection_size,
    popular_level_set,
    rep_histogram,
)
from sidonkit import DivisionByZero, codes, counting
from sidonkit.codes import code_dtype
from sidonkit.counting import (
    CONVOLUTION,
    HALF_PAIRS,
    ORDERED_PAIRS,
    difference_histogram,
    max_disjoint_pairs,
    reuses_histograms,
)


def test_rep_histogram_examples():
    A = integer_set([0, 1, 3])
    h = rep_histogram(A, A, "difference")
    assert h.count(0) == 3
    for v in (1, -1, 2, -2, 3, -3):
        assert h.count(v) == 1
    assert h.total_pairs == 9
    single = integer_set([0])
    assert rep_histogram(single, single, "difference").items() == [(0, 1)]
    G = integer_set([1, 2, 4])
    hp = rep_histogram(G, G, "product")
    assert dict(hp.items()) == {1: 1, 2: 2, 4: 3, 8: 2, 16: 1}


def test_histogram_symmetry_and_total():
    rng = random.Random(5)
    for _ in range(20):
        A = integer_set(rng.sample(range(-40, 40), rng.randint(1, 12)))
        h = difference_histogram(A)
        assert sum(c for _, c in h.iter_items()) == len(A) ** 2
        assert h.count(0) == len(A)
        for v, c in h.iter_items():
            assert h.count(-v) == c


def test_ratio_histogram_fractions():
    A = integer_set([1, 2, 3])
    h = rep_histogram(A, A, "ratio")
    assert h.count(Fraction(1, 2)) == 1
    assert h.count(1) == 3
    assert h.count(Fraction(2, 3)) == 1
    B = integer_set([0, 1])
    hb = rep_histogram(B, B, "ratio", skip_noninvertible=True)
    assert hb.skipped_pairs == 2
    assert hb.total_pairs == 2


def test_energy_examples():
    assert energy_k(integer_set([5]), 3).value == 1
    assert energy_k(integer_set([0, 1, 2]), 2).value == 19
    assert energy_k(integer_set([0, 1, 2]), 3).value == 45
    assert energy_k(integer_set([0, 1, 3]), 2, "sum").value == 15
    rep = energy_k(integer_set([0, 1, 2]), 2)
    assert rep.kappa == math.log(19) / math.log(3) - 2


def test_energy_range_invariant():
    rng = random.Random(7)
    for _ in range(25):
        A = integer_set(rng.sample(range(200), rng.randint(1, 10)))
        for k in (1, 2, 3):
            v = energy_k(A, k).value
            assert len(A) ** k <= v <= len(A) ** (k + 1)


def test_energy_matches_both_oracles():
    rng = random.Random(11)
    for _ in range(10):
        A = integer_set(rng.sample(range(30), rng.randint(1, 6)))
        for k in (2, 3):
            assert energy_k(A, k).value == oracle_energy_full(A, k)
            assert energy_k(A, k).value == oracle_energy_grouped(A, k)


def test_energy_matches_oracle_histogram():
    A = integer_range(0, 120)
    h = rep_histogram(A, A, "difference")
    want, _ = oracle_histogram(A, A, "difference")
    assert h.to_counts_dict() == want
    assert h.energy(2) == sum(c * c for c in want.values())


def test_energy_prime_examples():
    assert energy_prime_k(integer_set([0, 1]), 2) == 0
    assert energy_prime_k(integer_set([0, 1, 2, 3]), 2) == 8
    for elems in ([0, 1, 5], [2, 3, 9, 12]):
        A = integer_set(elems)
        assert energy_prime_k(A, 1) == len(A) * (len(A) - 1)


def test_energy_prime_methods_agree():
    rng = random.Random(13)
    for _ in range(15):
        A = integer_set(rng.sample(range(25), rng.randint(2, 8)))
        for k in (2, 3):
            assert energy_prime_k(A, k) == oracle_energy_prime(A, k)


def test_energy_prime_modular_cycles():
    # wraparound pair chains become cycles; counts must still match the oracle
    amb = AmbientSpec.mod(8)
    rng = random.Random(17)
    for _ in range(10):
        A = GroundSet.from_iterable(amb, rng.sample(range(8), rng.randint(2, 7)))
        for k in (2, 3):
            assert energy_prime_k(A, k) == oracle_energy_prime(A, k)


def test_energies_two_torsion_corpus():
    """energy_k (difference and sum) and energy_prime_k against the tuple
    oracles in ambients with x = -x for some x != 0 (Z/8, Z/16, the plane
    over F_2) and in the plane over F_3; each whole group is included."""
    rng = random.Random(29)
    for amb, pool in ((AmbientSpec.mod(8), list(range(8))),
                      (AmbientSpec.mod(16), list(range(16))),
                      (AmbientSpec.plane(2), [(a, b) for a in range(2) for b in range(2)]),
                      (AmbientSpec.plane(3), [(a, b) for a in range(3) for b in range(3)])):
        sets = [GroundSet.from_iterable(amb, pool)] + [
            GroundSet.from_iterable(amb, rng.sample(pool, rng.randint(1, min(len(pool), 9))))
            for _ in range(12)]
        for A in sets:
            for k in (1, 2, 3):
                for mode in ("difference", "sum"):
                    assert energy_k(A, k, mode).value == oracle_energy_grouped(A, k, mode), \
                        (amb, A.elements, k, mode)
                assert energy_prime_k(A, k) == oracle_energy_prime(A, k), (amb, A.elements, k)


def test_energy_prime_weak_reading_flag():
    A = integer_set([0, 1, 2, 3])
    weak = energy_prime_k(A, 2, within_pairs_only=True)
    hist = difference_histogram(A)
    assert weak == hist.energy(2, exclude_values=(0,))
    assert energy_prime_k(A, 2) <= weak


def test_energy_prime_upper_bound_by_energy():
    rng = random.Random(19)
    for _ in range(10):
        A = integer_set(rng.sample(range(40), rng.randint(1, 9)))
        for k in (2, 3):
            assert energy_prime_k(A, k) <= energy_k(A, k).value


def test_max_disjoint_pairs_chains():
    A = integer_set([0, 1, 2, 3, 10])
    assert max_disjoint_pairs(A.members, A.ambient, 1) == 2  # path of 3 edges
    amb = AmbientSpec.mod(6)
    C = GroundSet.from_iterable(amb, range(6))
    assert max_disjoint_pairs(C.members, amb, 1) == 3  # one 6-cycle


def _cosets(amb, n):
    """x + <g> for every divisor g of n and x < g, and unions of two
    cosets of one subgroup, in Z/n."""
    out = []
    for g in range(1, n + 1):
        if n % g == 0:
            out += [GroundSet.from_iterable(amb, range(x, n, g)) for x in range(g)]
            if g > 1:
                out.append(GroundSet.from_iterable(amb, list(range(0, n, g))
                                                   + list(range(1, n, g))))
    return out


def _plane_lines(p, rng, count):
    """Lines {(t, a t + b)} and unions of two of them in the plane over F_p."""
    amb = AmbientSpec.plane(p)
    lines = [[(t, (a * t + b) % p) for t in range(p)]
             for a in range(p) for b in range(p)]
    return ([GroundSet.from_iterable(amb, line) for line in rng.sample(lines, count)]
            + [GroundSet.from_iterable(amb, rng.choice(lines) + rng.choice(lines))
               for _ in range(count)])


def _energy_prime_corpus():
    """Sets whose pair graphs hold paths, cycles of every order and
    2-cycles: whole groups Z/N and cosets of their subgroups, F_p, lines in
    the plane over F_5, integers with negatives, and integers at the int64
    edge, where x + d leaves int64."""
    rng = random.Random(41)
    sets = []
    for n in (6, 8, 9, 12):
        sets += _cosets(AmbientSpec.mod(n), n)
    for p in (2, 5, 7):
        sets.append(GroundSet.from_iterable(AmbientSpec.prime_field(p), range(p)))
    f11 = AmbientSpec.prime_field(11)
    sets += [GroundSet.from_iterable(f11, rng.sample(range(11), rng.randint(2, 9)))
             for _ in range(6)]
    sets += _plane_lines(5, rng, 3)
    plane5 = [(a, b) for a in range(5) for b in range(5)]
    sets += [GroundSet.from_iterable(AmbientSpec.plane(5), rng.sample(plane5, 10))
             for _ in range(3)]
    sets += [integer_set(rng.sample(range(-30, 31), rng.randint(2, 10))) for _ in range(8)]
    for c in (2**61, 2**62, 2**63 - 3):
        sets.append(integer_set([-c + i for i in range(3)] + [c - i for i in range(3)]
                                + [-1, 0, 1]))
        sets.append(integer_set(range(c - 5, c + 3)))
    # moduli whose steps x + d leave int64 (N > 2^62, plane p > 2^31)
    for N in (2**62 + 2, 2**63 + 2, 2**64):
        h = N // 2
        sets.append(GroundSet.from_iterable(AmbientSpec.mod(N),
                                            [0, 1, 2, h - 1, h, h + 1, N - 2, N - 1]))
    p = 2**31 + 11
    sets.append(GroundSet.from_iterable(AmbientSpec.plane(p),
                                        [(0, 0), (0, 1), (1, 1), (p - 1, p - 1),
                                         (p - 1, 0), (p // 2, 3), (p // 2 + 1, 4)]))
    return sets


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_energy_prime_matches_oracle_on_chain_corpus(k):
    for A in _energy_prime_corpus():
        assert energy_prime_k(A, k) == oracle_energy_prime(A, k), (A.ambient, A.elements, k)


def test_energy_prime_whole_plane():
    amb = AmbientSpec.plane(5)
    A = GroundSet.from_iterable(amb, [(a, b) for a in range(5) for b in range(5)])
    for k in (1, 2):
        assert energy_prime_k(A, k) == oracle_energy_prime(A, k)


def test_energy_prime_int64_edge_switches_to_python_ints():
    # int64 codes are admitted only while |x| < 2^61, so x + d stays inside int64
    c = 2**61 - 1
    inside = integer_set([-c, -c + 1, c - 1, c])
    outside = integer_set([-c - 1, -c, c - 1, c])
    assert counting._chain_codes(inside.ambient, inside.elements).dtype == np.int64
    assert counting._chain_codes(outside.ambient, outside.elements).dtype == object
    for A in (inside, outside):
        assert energy_prime_k(A, 2) == oracle_energy_prime(A, 2) == 8


def test_max_disjoint_pairs_against_brute_force():
    """Paths over the integers, cycles in Z/N, F_p and the plane, and
    2-cycles (d = -d in Z/8, Z/16 and the plane over F_2)."""
    rng = random.Random(43)
    cases = [(integer_set(rng.sample(range(-12, 13), rng.randint(1, 12))), None)
             for _ in range(10)]
    for n in (6, 8, 9, 16):
        cases += [(A, None) for A in _cosets(AmbientSpec.mod(n), n)]
    cases.append((GroundSet.from_iterable(AmbientSpec.prime_field(7), range(7)), None))
    cases.append((GroundSet.from_iterable(AmbientSpec.plane(2),
                                          [(0, 0), (0, 1), (1, 0), (1, 1)]), None))
    cases += [(A, None) for A in _plane_lines(3, rng, 2)]
    for A, _ in cases:
        amb = A.ambient
        for d in difference_histogram(A).values():
            if d in (0, (0, 0)):
                continue
            want = oracle_max_disjoint_pairs(amb.kind, amb.modulus, A.elements, d)
            assert max_disjoint_pairs(A.members, amb, d) == want, (amb, A.elements, d)
    z8 = GroundSet.from_iterable(AmbientSpec.mod(8), range(8))
    assert max_disjoint_pairs(z8.members, z8.ambient, 4) == 4  # four 2-cycles
    assert max_disjoint_pairs(z8.members, z8.ambient, 2) == 4  # two 4-cycles
    assert max_disjoint_pairs(z8.members, z8.ambient, 0) == 0


def test_batched_counts_match_single_lookups():
    """`counts`: present and absent values, values an int64 code array
    cannot hold, non-values (bools and floats count 0 at every size),
    plane values given as lists."""
    rng = random.Random(47)
    big = integer_set(rng.sample(range(-10**6, 10**6), 120))
    probes = [0, 1, -1, 2**70, -2**70, Fraction(4, 2), Fraction(1, 2), True, 1.0] + [
        a - b for a, b in zip(big, reversed(big.elements))]
    for A in (big, integer_set(big.elements[:40])):
        h = rep_histogram(A, A, "difference")
        pure, _ = oracle_histogram(A, A, "difference")
        batch = h.counts(probes)
        assert batch.tolist() == [h.count(v) for v in probes]
        assert batch.tolist()[9:] == [pure.get(v, 0) for v in probes[9:]]
    for n in (20, 120):  # bools and floats are not values at any size
        h = rep_histogram(integer_range(0, n), integer_range(0, n), "difference")
        assert h.counts([1, True, 1.0]).tolist() == [n - 1, 0, 0]
    amb = AmbientSpec.plane(101)
    P = GroundSet.from_iterable(amb, [(rng.randrange(101), rng.randrange(101))
                                      for _ in range(120)])
    h = rep_histogram(P, P, "difference")
    assert code_dtype(amb, "difference", P.elements) == np.int64
    probes = [[0, 0], (0, 0), (1, 2), (0, 101), (101, 0), [-1, 3], 5] + [
        ((a[0] - b[0]) % 101, (a[1] - b[1]) % 101) for a, b in zip(P, reversed(P.elements))]
    assert h.counts(probes).tolist() == [h.count(v) for v in probes]
    assert h.counts(probes).tolist()[2:6] == [h.count((1, 2)), 0, 0, 0]
    assert h.counts([]).tolist() == []


def test_int_queries_match_mixed_queries():
    """Queries that are all ints are coded in one array; each answer equals
    the one it gets in a mixed query, which codes value by value, and
    bools, floats and Fractions alone keep their answers."""
    rng = random.Random(48)
    big_n = 2**63 + 2
    hists = [
        rep_histogram(integer_set(rng.sample(range(-10**6, 10**6), 60)),
                      integer_set(rng.sample(range(-10**6, 10**6), 50)), "sum"),
        difference_histogram(integer_range(0, 20)),
        difference_histogram(integer_set([-2**62, 2**62] + list(range(30)))),  # Python ints
        difference_histogram(GroundSet.from_iterable(AmbientSpec.mod(64), rng.sample(range(64), 20))),
        rep_histogram(GroundSet.from_iterable(AmbientSpec.prime_field(13), range(1, 13)),
                      GroundSet.from_iterable(AmbientSpec.prime_field(13), range(1, 13)), "ratio"),
        difference_histogram(GroundSet.from_iterable(AmbientSpec.mod(big_n),
                                                     [0, 1, 5, big_n - 1, big_n // 2])),
    ]
    for h in hists:
        table = dict(h.items())
        ints = list(table)[::3] + [-1, 0, 1, 2, 13, 64, 2**62, -2**63, 2**63 - 1, 2**63,
                                   big_n - 1, big_n, 2**70, -2**70]
        mixed = ints + [Fraction(1, 2)]
        assert h.counts(ints).tolist() == h.counts(mixed).tolist()[:-1]
        assert h.counts(ints).tolist() == [table.get(v, 0) for v in ints]
        assert [h.count(v) for v in ints] == [table.get(v, 0) for v in ints]
        for v in (True, False, 1.0, 0.0):
            assert h.counts([v]).tolist() == [0], v
        assert h.count(Fraction(2, 1)) == h.count(2)


def test_intersection_size_examples():
    A = integer_range(0, 5)
    assert intersection_size(A, [1, 2]) == 3
    assert intersection_size(A, []) == 5
    assert intersection_size(integer_set([0, 1]), [10]) == 0


def test_intersection_size_matches_oracle():
    for A, shift_tuples in membership_corpus():
        kind, m = A.ambient.kind, A.ambient.modulus
        for shifts in [()] + shift_tuples:
            want = sum(all(oracle_compose(kind, m, "difference", x, s) in A.elements
                           for s in shifts) for x in A)
            assert intersection_size(A, shifts) == want, (A.ambient, shifts)


def test_common_energy_examples():
    A = integer_set([0, 1])
    assert common_energy(A, A) == 6
    B = integer_set([4, 7, 9])
    assert common_energy(integer_set([0]), B) == len(B)
    T = integer_set([0, 1, 3])
    assert common_energy(T, T) == energy_k(T, 2).value == 15


def test_common_energy_is_quadruple_count():
    rng = random.Random(23)
    for _ in range(8):
        A = integer_set(rng.sample(range(15), rng.randint(1, 5)))
        B = integer_set(rng.sample(range(15), rng.randint(1, 5)))
        brute = sum(1 for a1 in A for a2 in A for b1 in B for b2 in B
                    if a1 + b1 == a2 + b2)
        assert common_energy(A, B) == brute


def test_popular_level_set_examples():
    A = integer_set([0, 1, 2, 3])
    assert popular_level_set(A, 2).elements == (-1, 0, 1)
    assert popular_level_set(A, 2, include_zero=False).elements == (-1, 1)
    assert len(popular_level_set(A, 4)) == 0


def test_dyadic_best_level_examples():
    A = integer_set([0, 1, 2, 3])
    delta, P = dyadic_best_level(A, 1)
    assert delta == 2 and P.elements == (-1, 0, 1)
    S = integer_set([0, 1, 3, 7])
    delta, P = dyadic_best_level(S, 1)
    assert 0 in P.members  # the zero-difference class dominates a Sidon set
    assert delta == 2 and P.elements == (0,)
    single = integer_set([42])
    assert dyadic_best_level(single, 3) == (1, integer_set([0]))


def test_dyadic_pigeonhole_invariant():
    rng = random.Random(29)
    sets = [integer_range(0, n) for n in (2, 3, 7, 16, 33)]
    sets += [integer_set(rng.sample(range(500), rng.randint(2, 40))) for _ in range(20)]
    for A in sets:
        hist = difference_histogram(A)
        for l in (1, 2, 3):
            delta, P = dyadic_best_level(A, l)
            score = delta ** (l + 1) * len(P)
            e_next = hist.energy(l + 1)
            slots = math.floor(math.log2(len(A))) + 1
            assert score * 2 ** (l + 1) * slots >= e_next


def test_monotonicity_and_log_convexity():
    rng = random.Random(31)
    for _ in range(20):
        A = integer_set(rng.sample(range(100), rng.randint(2, 12)))
        values = {k: energy_k(A, k).value for k in (1, 2, 3, 4)}
        for k in (1, 2, 3):
            assert values[k + 1] <= len(A) * values[k]
        for k in (2, 3):
            assert values[k] ** 2 <= values[k - 1] * values[k + 1]


def test_e2_equals_sum_variant():
    rng = random.Random(37)
    for _ in range(20):
        A = integer_set(rng.sample(range(-50, 50), rng.randint(1, 12)))
        assert energy_k(A, 2, "difference").value == energy_k(A, 2, "sum").value


def test_affine_invariance():
    rng = random.Random(41)
    for _ in range(10):
        A = integer_set(rng.sample(range(100), rng.randint(2, 10)))
        s = rng.choice([-3, -1, 2, 5])
        t = rng.randint(-20, 20)
        B = affine_image(A, s, t)
        for k in (2, 3):
            assert energy_k(A, k).value == energy_k(B, k).value
        ha = sorted(difference_histogram(A).count_multiset().items())
        hb = sorted(difference_histogram(B).count_multiset().items())
        assert ha == hb


@settings(max_examples=60, deadline=None)
@given(st.sets(st.integers(min_value=0, max_value=12), min_size=1, max_size=13))
def test_field_histogram_total(elems):
    A = GroundSet.from_iterable(AmbientSpec.prime_field(13), elems)
    h = difference_histogram(A)
    assert sum(c for _, c in h.iter_items()) == len(A) ** 2
    assert h.count(0) == len(A)


def test_int64_edge_stays_exact():
    # 2^62 - (-2^62) = 2^63 leaves int64; such sets must take the exact path
    A = integer_set([-2**62, 2**62] + list(range(100)))
    assert energy_k(A, 2, "difference").value == 667510
    assert energy_k(A, 2, "sum").value == 667510
    assert code_dtype(A.ambient, "difference", A.elements) == object
    assert code_dtype(A.ambient, "sum", [2**62 - 1, -(2**62 - 1)]) == np.int64
    edge = integer_set([-3_037_000_499, 3_037_000_499] + list(range(100)))
    assert code_dtype(edge.ambient, "product", edge.elements) == np.int64
    assert code_dtype(edge.ambient, "product", [3_037_000_500]) == object
    assert energy_k(edge, 2, "product").value == oracle_energy_grouped(edge, 2, "product")


class _BackendSpy:
    """Stands in for numpy and for `sort_codes` inside `counting`, and for
    the builtin `sorted` inside `codes`, and records which counting routine
    a histogram used: "bincount", "in-place sort" for numpy's sort of int64
    codes in place, or "sort" for the list sort of Python-int codes.  A
    histogram built by convolution uses none of them and is recorded as
    "convolution"."""

    def __init__(self, sort_codes):
        self.used = []
        self._sort_codes = sort_codes

    def sorted(self, values):
        self.used.append("sort")
        return sorted(values)

    def sort_codes(self, flat):
        out = self._sort_codes(flat)
        if out is flat:
            self.used.append("in-place sort")
        return out

    def __getattr__(self, name):
        fn = getattr(np, name)
        if name != "bincount":
            return fn

        def recorded(*args, **kwargs):
            self.used.append(name)
            return fn(*args, **kwargs)
        return recorded


def _spied_histogram(monkeypatch, A, B, mode, skip_noninvertible=False):
    """(counting routines used, histogram)."""
    spy = _BackendSpy(counting.sort_codes)
    monkeypatch.setattr(counting, "np", spy)
    monkeypatch.setattr(codes, "sorted", spy.sorted, raising=False)
    monkeypatch.setattr(counting, "sort_codes", spy.sort_codes)
    hist = rep_histogram(A, B, mode, skip_noninvertible)
    monkeypatch.undo()
    if hist.path == CONVOLUTION:
        spy.used.append("convolution")
    return spy.used, hist


def _with_ends(rng, lo, hi, n):
    return [lo, hi] + rng.sample(range(lo + 1, hi), n - 2)


def _check_against_oracle(hist, A, B, mode):
    """Counts, value order, pair tallies and max_count, ties included,
    against `oracle_histogram`."""
    want, skipped = oracle_histogram(A, B, mode)
    assert hist.to_counts_dict() == want, (A, mode)
    assert hist.items() == sorted(want.items()), (A, mode)
    assert (hist.total_pairs, hist.skipped_pairs) == (len(A) * len(B) - skipped, skipped)
    values = sorted(want)
    for exclude in ((), tuple(values[:1]), tuple(values[1:]), tuple(values)):
        assert hist.max_count(exclude) == oracle_max_count(want, exclude), (A, mode, exclude)


def test_histogram_backends_agree(monkeypatch):
    rng = random.Random(43)
    mod = AmbientSpec.mod(2**6)
    big_n = 2**63 + 2
    big_p = 2**31 + 11
    f13 = AmbientSpec.prime_field(13)
    cases = [
        # negative integers: dense (bincount) and spread (in-place sort)
        (integer_set(rng.sample(range(-400, -100), 60)), None, "difference", "bincount"),
        (integer_set(rng.sample(range(-400, -100), 60)), None, "sum", "bincount"),
        (integer_set(rng.sample(range(-10**9, 0), 60)), None, "difference", "in-place sort"),
        # difference span (maxA - minA) + (maxB - minB) + 1 equal to the
        # 90 * 92 = 8280 pairs, then one more
        (integer_set(_with_ends(rng, 0, 4139, 90)), integer_set(_with_ends(rng, 0, 4140, 92)),
         "difference", "bincount"),
        (integer_set(_with_ends(rng, 0, 4139, 90)), integer_set(_with_ends(rng, 0, 4141, 92)),
         "difference", "in-place sort"),
        # Z/2^6 with its 2-torsion element 32, dense (convolution) and
        # spread over the whole group (bincount), and a sparse set in Z/2^20
        (GroundSet.from_iterable(mod, [0, 32] + rng.sample(range(1, 32), 10)), None,
         "difference", "convolution"),
        (GroundSet.from_iterable(mod, [0, 32, 63] + rng.sample(range(1, 32), 9)), None,
         "difference", "bincount"),
        (GroundSet.from_iterable(mod, [0, 32] + rng.sample(range(33, 64), 10)), None,
         "sum", "bincount"),
        (GroundSet.from_iterable(AmbientSpec.mod(2**20), [0, 2**19] + rng.sample(range(1, 2**19), 10)),
         None, "difference", "in-place sort"),
        # the plane over F_2 (whole plane) and F_3
        (GroundSet.from_iterable(AmbientSpec.plane(2), [(0, 0), (0, 1), (1, 0), (1, 1)]), None,
         "difference", "bincount"),
        (GroundSet.from_iterable(AmbientSpec.plane(3), [(0, 0), (2, 2)]), None, "sum",
         "in-place sort"),
        (GroundSet.from_iterable(AmbientSpec.plane(3), [(x, y) for x in range(3) for y in range(2)]),
         None, "difference", "bincount"),
        # Python-int codes: the int64 edge, products at +-3_037_000_500,
        # Z/N with N = 2^63 + 2, and the plane over F_(2^31 + 11)
        (integer_set([-2**62, 2**62] + list(range(100))), None, "difference", "sort"),
        (integer_set([-2**62, 2**62] + list(range(100))), None, "sum", "sort"),
        (integer_set([-3_037_000_500, 3_037_000_500] + list(range(-5, 20))), None, "product",
         "sort"),
        (GroundSet.from_iterable(AmbientSpec.mod(big_n), [0, 1, 2, big_n // 2, big_n - 2,
                                                          big_n - 1]), None, "difference",
         "sort"),
        (GroundSet.from_iterable(AmbientSpec.mod(big_n), [0, 1, 2, big_n // 2, big_n - 2,
                                                          big_n - 1]), None, "sum", "sort"),
        (GroundSet.from_iterable(AmbientSpec.plane(big_p), [(0, 0), (0, 1), (1, 1), (big_p - 1, 0),
                                                            (big_p - 1, big_p - 1)]), None,
         "difference", "sort"),
        # ratios over the integers, below and above 2^31, and over F_13
        # (with 0 only in A: no pair is skipped)
        (integer_set(range(-12, 30)), integer_set(range(1, 25)), "ratio", "in-place sort"),
        (integer_set([-2**40, -3, -1, 1, 2, 6, 2**31, 2**31 + 1, 3 * 2**33]), None, "ratio",
         "sort"),
        (GroundSet.from_iterable(f13, range(13)), GroundSet.from_iterable(f13, range(1, 13)),
         "ratio", "bincount"),
    ]
    for A, B, mode, backend in cases:
        B = A if B is None else B
        used, hist = _spied_histogram(monkeypatch, A, B, mode)
        assert used == [backend], (A, mode)
        _check_against_oracle(hist, A, B, mode)
    # 0 in B: ratio pairs with b = 0 raise unless skipped
    A, B = GroundSet.from_iterable(f13, [0, 2, 5, 7]), GroundSet.from_iterable(f13, [0, 3, 5])
    Z = integer_set([-4, 0, 3, 2**35])
    for X, Y in ((A, B), (Z, Z)):
        with pytest.raises(DivisionByZero):
            rep_histogram(X, Y, "ratio")
        _check_against_oracle(rep_histogram(X, Y, "ratio", skip_noninvertible=True), X, Y,
                              "ratio")


def test_half_pair_histograms_match_oracle():
    """Sets above the cut with themselves compose each unordered pair once
    and rebuild the ordered-pair histogram; the oracle composes every
    ordered pair."""
    rng = random.Random(61)
    z16 = AmbientSpec.mod(2**16)
    big_n = 2**63 + 2
    f1009 = AmbientSpec.prime_field(1009)
    halves = rng.sample(range(1, 2**15), 260)
    cases = [
        (integer_set(rng.sample(range(-10**12, 10**12), 520)), ("product",)),
        (integer_set([-2**62, 2**62] + rng.sample(range(-10**6, 10**6), 518)),
         ("difference", "sum")),
        (integer_set([-3_037_000_500, 3_037_000_500] + rng.sample(range(-10**6, 10**6), 518)),
         ("product",)),
        # the 2-torsion element 2^15 (d = -d), and a, a + 2^15 with 2a = 2(a + 2^15)
        (GroundSet.from_iterable(z16, [0, 2**15] + rng.sample(range(1, 2**15), 518)),
         ("difference",)),
        (GroundSet.from_iterable(z16, halves + [a + 2**15 for a in halves]), ("sum",)),
        # differences in groups larger than the half pairs take the ordered
        # path: Z/2^40 with its 2-torsion element, a sparse plane
        (GroundSet.from_iterable(AmbientSpec.mod(2**40), [0, 2**39]
                                 + rng.sample(range(1, 2**39), 518)), ("difference",)),
        (GroundSet.from_iterable(AmbientSpec.plane(1009), rng.sample(
            [(x, y) for x in range(1009) for y in range(0, 1009, 97)], 520)), ("difference",)),
        (GroundSet.from_iterable(f1009, [0] + rng.sample(range(1, 1009), 519)), ("product",)),
        (GroundSet.from_iterable(AmbientSpec.plane(23), [(x, y) for x in range(23)
                                                         for y in range(23)]),
         ("difference", "sum")),
        (GroundSet.from_iterable(AmbientSpec.mod(big_n), [0, 1, big_n // 2, big_n - 1]
                                 + [rng.randrange(big_n) for _ in range(516)]),
         ("difference", "sum")),
        # either side of the cut
        (integer_set(rng.sample(range(10**6), 512)), ("difference",)),
        (integer_set(rng.sample(range(10**6), 513)), ("difference", "sum")),
    ]
    for A, modes in cases:
        for mode in modes:
            hist = rep_histogram(A, A, mode)
            want, _ = oracle_histogram(A, A, mode)
            assert hist.to_counts_dict() == want, (A.ambient, mode)
            assert hist.items() == sorted(want.items()), (A.ambient, mode)
            assert (hist.total_pairs, hist.skipped_pairs) == (len(A) ** 2, 0)
            top = oracle_max_count(want)
            assert hist.max_count() == top, (A.ambient, mode)
            exclude = frozenset(top[:1])  # the runner-up
            assert hist.max_count(exclude) == oracle_max_count(want, exclude), (A.ambient, mode)


def test_half_pairs_counted_once(monkeypatch):
    """At |A| = 600 the counting routine receives n(n-1)/2 difference codes
    and n(n+1)/2 sum and product codes, composed from the upper triangle
    and never from every ordered pair, except for the sums and differences
    of the interval [0, 600), which are convolved and compose no pair; a
    difference in a group larger than the half pairs composes every
    ordered pair."""
    n = 600
    composed = []
    real_triangle, real_pairs = counting._triangle_codes, counting.pair_codes

    def triangle(*args, **kwargs):
        out = real_triangle(*args, **kwargs)
        composed.append(("half", out.size))
        return out

    def ordered(*args, **kwargs):
        out = real_pairs(*args, **kwargs)
        composed.append(("ordered", out[0].size))
        return out

    monkeypatch.setattr(counting, "_triangle_codes", triangle)
    monkeypatch.setattr(counting, "pair_codes", ordered)
    rng = random.Random(62)
    z16 = GroundSet.from_iterable(AmbientSpec.mod(2**16), rng.sample(range(2**16), n))
    interval = integer_range(0, n)
    for A in (integer_set(rng.sample(range(10**9), n)), interval, z16):
        for mode, pairs in (("difference", n * (n - 1) // 2), ("sum", n * (n + 1) // 2),
                            ("product", n * (n + 1) // 2)):
            if mode not in A.ambient.modes:
                continue
            composed.clear()
            hist = rep_histogram(A, A, mode)
            if A is interval and mode != "product":
                assert (composed, hist.path) == ([], CONVOLUTION), mode
            else:
                assert (composed, hist.path) == ([("half", pairs)], HALF_PAIRS), (A.ambient, mode)
            assert hist.total_pairs == n * n
    composed.clear()
    z40 = GroundSet.from_iterable(AmbientSpec.mod(2**40), rng.sample(range(2**40), n))
    hist = rep_histogram(z40, z40, "difference")
    assert (hist.total_pairs, hist.path) == (n * n, ORDERED_PAIRS)
    assert composed == [("ordered", n * n)]


def _pair_path_histogram(A, B, mode):
    """The histogram of A o B with convolution switched off."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(counting, "_CONV_RATIO", 0)
        return rep_histogram(A, B, mode)


def _same_arrays(hist, want):
    codes, counts = hist.arrays
    assert codes.dtype == want.arrays[0].dtype
    assert codes.tolist() == want.arrays[0].tolist()
    assert counts.dtype == want.arrays[1].dtype
    assert counts.tolist() == want.arrays[1].tolist()
    assert (hist.total_pairs, hist.skipped_pairs) == (want.total_pairs, want.skipped_pairs)


def test_convolution_histograms_match_oracle():
    """Sums and differences on either side of the switch (span product at
    most _CONV_RATIO times the pairs, then above it) against the oracle."""
    ratio = counting._CONV_RATIO
    rng = random.Random(71)
    z32, f31 = AmbientSpec.mod(32), AmbientSpec.prime_field(31)

    def window(amb, lo, span, n):
        return GroundSet.from_iterable(amb, [lo, lo + span - 1]
                                       + rng.sample(range(lo + 1, lo + span - 1), n - 2))

    cases = [
        # integers with negatives: 40 elements with spans 160 and 161
        (window(INTEGERS, -100, 160, 40), None, CONVOLUTION),
        (window(INTEGERS, -100, 161, 40), None, ORDERED_PAIRS),
        # A != B with unequal spans: 30 * 20 * 16 = 9600 = 120 * 80
        (window(INTEGERS, -50, 120, 30), window(INTEGERS, 7, 80, 20), CONVOLUTION),
        (window(INTEGERS, -50, 121, 30), window(INTEGERS, 7, 80, 20), ORDERED_PAIRS),
        # one-element operands
        (integer_set([-7]), integer_set([-7]), CONVOLUTION),
        (integer_set([3]), window(INTEGERS, -20, 16 * ratio, 16), CONVOLUTION),
        (window(INTEGERS, -20, 16 * ratio + 1, 16), integer_set([3]), ORDERED_PAIRS),
        # Z/2^5 with its 2-torsion element 16, folded mod 32 on the
        # convolution side; 8 residues spanning 32 compose pairs
        (GroundSet.from_iterable(z32, [0, 16, 1, 5, 9, 13, 15, 31]), None, CONVOLUTION),
        (GroundSet.from_iterable(z32, [0, 16, 31]), None, ORDERED_PAIRS),
        (GroundSet.from_iterable(z32, [16, 20, 28, 30, 31]),
         GroundSet.from_iterable(z32, [0, 1, 2, 16]), CONVOLUTION),
        # F_31 with 0 in A
        (GroundSet.from_iterable(f31, [0, 3, 4, 10, 11, 19, 29, 30]), None, CONVOLUTION),
        (GroundSet.from_iterable(f31, [0, 30]), GroundSet.from_iterable(f31, [0, 15, 30]),
         ORDERED_PAIRS),
        (GroundSet.from_iterable(f31, [0, 2, 5]), GroundSet.from_iterable(f31, [26, 28, 30]),
         CONVOLUTION),
    ]
    for A, B, path in cases:
        B = A if B is None else B
        for mode in ("difference", "sum"):
            hist = rep_histogram(A, B, mode)
            assert hist.path == path, (A, B, mode)
            _check_against_oracle(hist, A, B, mode)


INTEGERS = AmbientSpec.integers()


def test_convolution_past_the_int64_proof():
    """Short runs of integers near +-2^62 and +-2^63 and residues of
    Z/(2^63 + 2) are convolved into Python-int codes, the same codes and
    dtypes as the pair path gives."""
    big_n = 2**63 + 2
    cases = [
        (integer_set(range(2**62 - 40, 2**62 + 3)), None),
        (integer_set(range(-2**62 - 5, -2**62 + 30)), integer_set(range(2**62 - 3, 2**62 + 9))),
        (integer_set([2**63 - 1, 2**63 - 4, 2**63 - 2]), integer_set([-2**63 + 1, -2**63 + 3])),
        (GroundSet.from_iterable(AmbientSpec.mod(big_n), [big_n - 5, big_n - 3, big_n - 2, big_n - 1]),
         None),
    ]
    for A, B in cases:
        B = A if B is None else B
        for mode in ("difference", "sum"):
            hist = rep_histogram(A, B, mode)
            assert hist.path == CONVOLUTION
            assert hist.arrays[0].dtype == object
            _same_arrays(hist, _pair_path_histogram(A, B, mode))
            _check_against_oracle(hist, A, B, mode)


def test_convolution_switch_workloads():
    """[1, 4096] convolves; 4096 random points of [0, 16384) and 3000
    residues of Z/2^16 compose pairs."""
    rng = random.Random(72)
    interval = integer_range(1, 4097)
    spread = integer_set(rng.sample(range(16384), 4096))
    z16 = GroundSet.from_iterable(AmbientSpec.mod(2**16), rng.sample(range(2**16), 3000))
    for A, path in ((interval, CONVOLUTION), (spread, HALF_PAIRS), (z16, HALF_PAIRS)):
        for mode in ("difference", "sum"):
            assert rep_histogram(A, A, mode).path == path, (len(A), mode)


@st.composite
def _dense_operands(draw):
    """Two sets of one ambient, each holding at least half of a window of
    at most 40 consecutive integers or residues (not wrapping round the
    modulus), so that their sums and differences are convolved."""
    kind = draw(st.sampled_from(["integers", "mod", "field"]))
    if kind == "integers":
        amb, lo_min, lo_max = INTEGERS, -2**63 + 1, 2**63 - 41
    else:
        modulus = draw(st.sampled_from([41, 64, 101]) if kind == "mod"
                       else st.sampled_from([41, 43, 47]))
        amb = AmbientSpec.mod(modulus) if kind == "mod" else AmbientSpec.prime_field(modulus)
        lo_min, lo_max = 0, modulus - 40
    near = st.sampled_from([lo_min, lo_max, -2**62 - 20, 2**62 - 20, 0]).filter(
        lambda lo: lo_min <= lo <= lo_max)
    sets = []
    for _ in range(2):
        lo = draw(st.integers(lo_min, lo_max) | near)
        mask = draw(st.lists(st.booleans(), min_size=1, max_size=40))
        sets.append(GroundSet.from_iterable(
            amb, [lo + i for i, keep in enumerate(mask) if keep or i % 2 == 0]))
    return sets


@settings(max_examples=100, deadline=None)
@given(_dense_operands(), st.booleans(), st.sampled_from(["difference", "sum"]))
def test_convolution_matches_pair_path(operands, with_itself, mode):
    A, B = operands
    B = A if with_itself else B
    hist = rep_histogram(A, B, mode)
    assert hist.path == CONVOLUTION
    _same_arrays(hist, _pair_path_histogram(A, B, mode))


def test_max_count_exclusions_match_oracle():
    A = integer_set([0, 1, 2, 3])  # r(0) = 4, r(+-1) = 3, r(+-2) = 2, r(+-3) = 1
    hist = rep_histogram(A, A, "difference")
    want, _ = oracle_histogram(A, A, "difference")
    everything = sorted(want)
    for exclude in ((), (0,), (0, -1), (0, -1, 1), (0, 5), (Fraction(1, 2),),
                    tuple(everything[1:]), tuple(everything)):
        assert hist.max_count(exclude) == oracle_max_count(want, exclude), exclude
    assert hist.max_count((0,)) == (-1, 3)
    assert hist.max_count(everything) is None
    assert hist.count(0) == 4  # the exclusion left the counts untouched
    P = GroundSet.from_iterable(AmbientSpec.plane(3), [(0, 0), (0, 1), (1, 0)])
    hist = rep_histogram(P, P, "difference")
    want, _ = oracle_histogram(P, P, "difference")
    for exclude in ((), ((0, 0),), ((0, 0), (0, 1)), tuple(sorted(want))):
        assert hist.max_count(exclude) == oracle_max_count(want, exclude), exclude


def test_plane_exclusions_accept_lists():
    # a plane value given as a list is excluded like the tuple it stands for
    P = GroundSet.from_iterable(AmbientSpec.plane(3), [(0, 0), (0, 1), (1, 0), (2, 2)])
    hist = rep_histogram(P, P, "difference")
    want, _ = oracle_histogram(P, P, "difference")
    for as_list, as_tuple in ((([0, 0],), ((0, 0),)), (([0, 0], [0, 1]), ((0, 0), (0, 1)))):
        assert hist.max_count(as_list) == hist.max_count(as_tuple) \
            == oracle_max_count(want, as_tuple)
        assert hist.count_multiset(as_list) == hist.count_multiset(as_tuple)
        assert hist.energy(2, as_list) == hist.energy(2, as_tuple) \
            == sum(c * c for v, c in want.items() if v not in as_tuple)
    assert hist.count_multiset(([0, 0],)) != hist.count_multiset()
    assert hist.energy(2, ([0, 0],)) == hist.energy(2) - 16  # r(0, 0) = 4


def test_repeated_exclusions_count_once():
    # a value listed twice, or as a tuple and as a list, is excluded once
    A = integer_range(0, 120)
    hist = rep_histogram(A, A, "difference")
    assert hist.energy(2, (0, 0)) == hist.energy(2, (0,)) == hist.energy(2) - 120**2
    assert hist.count_multiset((0, 0)) == hist.count_multiset((0,))
    assert hist.max_count((0, 0)) == hist.max_count((0,)) == (-1, 119)
    rng = random.Random(53)
    cells = [(x, y) for x in range(101) for y in range(101)]
    P = GroundSet.from_iterable(AmbientSpec.plane(101), rng.sample(cells, 100))
    hist = rep_histogram(P, P, "difference")
    assert hist.energy(2, ([0, 0], (0, 0))) == hist.energy(2) - 100**2
    assert hist.count_multiset(([0, 0], (0, 0))) == hist.count_multiset(((0, 0),))


def test_histogram_reuse_is_call_scoped():
    A = integer_range(0, 120)
    assert rep_histogram(A, A, "difference") is not rep_histogram(A, A, "difference")

    @reuses_histograms
    def twice(B):
        first = rep_histogram(A, A, "difference")
        again = difference_histogram(integer_range(0, 120))  # equal, not identical
        other = rep_histogram(A, B, "difference")
        inner = reuses_histograms(lambda: rep_histogram(A, B, "difference"))()
        return first, again, other, inner

    first, again, other, inner = twice(integer_range(5, 50))
    assert first is again
    assert other is not first and inner is other  # the nested call joined the scope
    assert counting._REUSE_SLOT.get() is None  # nothing held after the call
    assert twice(A)[0] is not first

    @reuses_histograms
    def alternate(B, C):
        ab, ac = rep_histogram(A, B, "difference"), rep_histogram(A, C, "difference")
        hits = [rep_histogram(A, B, "difference") is ab, rep_histogram(A, C, "difference") is ac,
                rep_histogram(A, B, "difference") is ab]
        third = rep_histogram(B, C, "difference")  # evicts A - C, the least recently used
        return hits, [rep_histogram(A, B, "difference") is ab,
                      rep_histogram(B, C, "difference") is third,
                      rep_histogram(A, C, "difference") is ac]

    hits, after = alternate(integer_range(5, 50), integer_range(0, 7))
    assert hits == [True, True, True]
    assert after == [True, True, False]


def test_count_of_counts_is_built_once(monkeypatch):
    """count_multiset with exclusions, before and after a plain energy on the
    same histogram, matches the oracle, and np.bincount of the counts runs
    once for the histogram."""
    bincount = np.bincount
    for S, _ in membership_corpus():
        zero = S.ambient.identity("difference")
        hist = difference_histogram(S)
        want, _ = oracle_histogram(S, S, "difference")
        exclude = [zero, *sorted(want, key=lambda v: (-want[v], str(v)))[:2]]
        kept = [c for v, c in want.items() if v not in exclude]
        want_multiset = {c: kept.count(c) for c in set(kept)}
        calls = []
        monkeypatch.setattr(np, "bincount", lambda x, *args, **kwargs: (
            calls.append(x is hist.arrays[1]), bincount(x, *args, **kwargs))[1])
        assert hist.count_multiset(exclude) == want_multiset
        for k in (2, 3):
            assert hist.energy(k) == sum(c**k for c in want.values())
        assert hist.count_multiset(exclude) == want_multiset
        assert hist.energy(2, exclude) == sum(c * c for c in kept)
        assert calls == [True]
        monkeypatch.undo()
