import random

import pytest

from conftest import (
    bfamily_shift_oracle_violation,
    cayley_rectangle_found,
    oracle_compose,
    oracle_extract,
    oracle_fits,
    oracle_histogram,
    oracle_sid_k_max,
)
from sidonkit import (
    AmbientSpec,
    BFamilyParams,
    CapExceeded,
    GroundSet,
    dense_core_extract,
    extract_random,
    integer_range,
    integer_set,
    set_compose,
    sid_k_exact,
    sid_k_greedy,
    verify_bfamily,
    verify_multiplicity,
)
from sidonkit.sidon import MAX_TRIALS, ViolationWitness, _mirrored, _progression_start


def test_verify_multiplicity_examples():
    assert verify_multiplicity(integer_set([0, 1, 3]), 1) is None
    w = verify_multiplicity(integer_range(0, 5), 3)
    assert w is not None and w.count == 4
    assert abs(w.value) == 1  # most popular nonzero difference
    assert w.verify_against(integer_range(0, 5))
    assert verify_multiplicity(integer_set([99]), 1) is None


def test_verify_multiplicity_modes():
    # sums exempt nothing: {0,2,4} has 0+4 = 2+2 = 4+0
    S = integer_set([0, 2, 4])
    w = verify_multiplicity(S, 2, "sum")
    assert w is not None and w.value == 4 and w.count == 3
    # products exempt the identity 1: histogram of {1,2,4} is {1:1,2:2,4:3,8:2,16:1}
    P = integer_set([1, 2, 4])
    w2 = verify_multiplicity(P, 2, "product")
    assert w2 is not None and w2.value == 4 and w2.count == 3
    assert verify_multiplicity(P, 3, "product") is None
    # {2, 4} over F_7 puts multiplicity 2 on the identity only (2*4 = 4*2 = 1)
    Q = GroundSet.from_iterable(AmbientSpec.prime_field(7), [2, 4])
    assert verify_multiplicity(Q, 1, "product") is None
    w3 = verify_multiplicity(Q, 1, "product", exempt_identity=False)
    assert w3 is not None and w3.value == 1 and w3.count == 2
    assert verify_multiplicity(P, 2, "difference") is None


def test_verify_bfamily_examples():
    w = verify_bfamily(integer_range(0, 5), BFamilyParams(3, 2))
    assert w is not None
    assert w.verify_against(integer_range(0, 5))
    assert len(w.shifts) == 2 and len(w.elements) == 3
    assert verify_bfamily(integer_set([0, 1, 3]), BFamilyParams(2, 1)) is None
    with pytest.raises(CapExceeded):
        verify_bfamily(integer_range(0, 30), BFamilyParams(2, 1), cap=10)


def test_intersection_witness_needs_k_distinct_elements():
    # |S ^ (S+1)| = 1, so no witness with k = 3 can hold; repeating the one
    # common element must not make one
    S = integer_set([0, 1, 3, 7, 12, 20])
    assert verify_bfamily(S, BFamilyParams(3, 1)) is None
    repeated = ViolationWitness(kind="intersection", shifts=(1,), elements=(1, 1, 1), k=3)
    assert not repeated.verify_against(S)
    assert ViolationWitness(kind="intersection", shifts=(1,), elements=(1,), k=1).verify_against(S)


def test_bfamily_matches_multiplicity_for_k2():
    rng = random.Random(101)
    for _ in range(60):
        S = integer_set(rng.sample(range(40), rng.randint(1, 10)))
        for g in (1, 2, 3):
            mult = verify_multiplicity(S, g)
            fam = verify_bfamily(S, BFamilyParams(2, g))
            assert (mult is None) == (fam is None)


def test_bfamily_matches_shift_oracle():
    rng = random.Random(103)
    for _ in range(40):
        S = integer_set(rng.sample(range(20), rng.randint(2, 8)))
        for (k, g) in ((2, 1), (2, 2), (3, 2)):
            fam = verify_bfamily(S, BFamilyParams(k, g))
            assert (fam is not None) == bfamily_shift_oracle_violation(S, k, g)


def test_bfamily_matches_cayley_search():
    rng = random.Random(107)
    for _ in range(25):
        N = rng.choice([6, 9, 12, 17, 24])
        amb = AmbientSpec.mod(N)
        S = GroundSet.from_iterable(amb, rng.sample(range(N), rng.randint(2, min(N, 9))))
        for (k, g) in ((2, 1), (2, 2), (3, 2)):
            fam = verify_bfamily(S, BFamilyParams(k, g))
            assert (fam is not None) == cayley_rectangle_found(S, k, g)


def test_sid_k_exact_examples():
    A = integer_set([1, 2, 3, 4, 5])
    size1, wit1 = sid_k_exact(A, 1)
    assert size1 == 3
    assert verify_multiplicity(wit1, 1) is None
    size2, wit2 = sid_k_exact(A, 2)
    assert size2 == 4
    assert verify_multiplicity(wit2, 2) is None
    rng = random.Random(109)
    for _ in range(10):
        B = integer_set(rng.sample(range(60), rng.randint(2, 8)))
        assert sid_k_exact(B, len(B) - 1)[0] == len(B)
    with pytest.raises(CapExceeded):
        sid_k_exact(integer_range(0, 50), 1)


def test_sid_k_monotone():
    rng = random.Random(113)
    for _ in range(8):
        elems = rng.sample(range(30), 9)
        A = integer_set(elems[:6])
        A_sup = integer_set(elems)
        for k in (1, 2):
            assert sid_k_exact(A, k)[0] <= sid_k_exact(A, k + 1)[0]
            assert sid_k_exact(A, k)[0] <= sid_k_exact(A_sup, k)[0]


def test_sid_k_greedy_contract():
    assert sid_k_greedy(integer_set([0, 1, 3]), 1, seed=None) == integer_set([0, 1, 3])
    rng = random.Random(127)
    for seed in range(12):
        A = integer_range(0, 10)
        out = sid_k_greedy(A, 1, seed=seed)
        assert verify_multiplicity(out, 1) is None
        assert out.members <= A.members
    for _ in range(10):
        B = integer_set(rng.sample(range(25), rng.randint(2, 12)))
        exact = sid_k_exact(B, 1)[0]
        assert len(sid_k_greedy(B, 1, seed=3)) <= exact


def test_greedy_is_maximal():
    rng = random.Random(131)
    for seed in range(6):
        A = integer_set(rng.sample(range(40), 14))
        out = sid_k_greedy(A, 2, seed=seed)
        # no rejected element can be added back
        for a in A:
            if a in out.members:
                continue
            assert verify_multiplicity(integer_set(out.elements + (a,)), 2) is not None


def _forced_top_corpus():
    """(A, modes, progression start, mirrored) for sets that reach each
    forced-top branch of `sid_k_exact`, and for sets where nothing is
    forced."""
    plane5 = [(0, 0)] + [(j, (1 + 2 * j) % 5) for j in range(5)]  # head, then step (1, 2)
    A = integer_set([0, 1, 3, 7])
    return [
        (GroundSet.from_iterable(AmbientSpec.mod(11), [8, 10, 1, 3]), ("difference", "sum"),
         2, True),
        (GroundSet.from_iterable(AmbientSpec.mod(8), [5, 7, 1, 3]), ("difference", "sum"),
         0, True),
        (GroundSet.from_iterable(AmbientSpec.mod(12), range(12)), ("difference", "sum"), 0, True),
        (GroundSet.from_iterable(AmbientSpec.plane(5), plane5), ("difference", "sum"), 1, False),
        (GroundSet.from_iterable(AmbientSpec.plane(3), [(0, 0), (0, 2), (1, 0), (2, 1)]),
         ("difference", "sum"), 1, False),
        (GroundSet.from_iterable(AmbientSpec.prime_field(13), [0, 2, 5, 8, 9, 10, 11, 12]),
         ("difference", "sum"), 3, False),
        (GroundSet.from_iterable(AmbientSpec.prime_field(11), range(11)), ("sum",), 0, True),
        (integer_set([-9, -4, 0, 3, 6, 9, 12, 15, 18]), ("difference", "sum"), 2, False),
        (set_compose(A, A, "difference"), ("difference", "sum"), 11, True),
        (integer_set([0, 1, 3, 7, 9, 10]), ("difference", "sum"), 4, True),
        (integer_set([0, 1, 3, 6, 9, 19, 21, 22]), ("difference", "sum"), 6, False),
        (integer_range(1, 12), ("product",), 11, False),
        (GroundSet.from_iterable(AmbientSpec.prime_field(13), range(1, 13)), ("product",),
         12, False),
    ]


def _oracle_corpus():
    """(A, modes) pairs over all four ambients, with the 2-torsion of Z/8,
    Z/16 and the plane over F_2 (where every nonzero x has x = -x), and
    the forced-top corpus."""
    rng = random.Random(2002)
    out = []
    for _ in range(4):
        elems = rng.sample(range(-15, 40), rng.randint(9, 12))
        out.append((integer_set(elems), ("difference", "sum", "product")))
        out.append((integer_set([x for x in elems if x]), ("ratio",)))
    out.append((GroundSet.from_iterable(AmbientSpec.mod(8), range(8)), ("difference", "sum")))
    for _ in range(2):
        out.append((GroundSet.from_iterable(AmbientSpec.mod(16), rng.sample(range(16), 12)),
                    ("difference", "sum")))
    F11, F13 = AmbientSpec.prime_field(11), AmbientSpec.prime_field(13)
    out.append((GroundSet.from_iterable(F11, range(11)), ("difference", "sum", "product")))
    out.append((GroundSet.from_iterable(F11, range(1, 11)), ("ratio",)))
    out.append((GroundSet.from_iterable(F13, rng.sample(range(13), 12)),
                ("difference", "sum", "product")))
    out.append((GroundSet.from_iterable(F13, rng.sample(range(1, 13), 11)), ("ratio",)))
    for p in (2, 3):
        plane = [(x, y) for x in range(p) for y in range(p)]
        out.append((GroundSet.from_iterable(AmbientSpec.plane(p), plane), ("difference", "sum")))
    return out + [(A, modes) for A, modes, _, _ in _forced_top_corpus()]


@pytest.mark.parametrize("k", (1, 2, 3))
def test_sid_k_exact_matches_subset_oracle(k):
    for A, modes in _oracle_corpus():
        amb = A.ambient
        for mode in modes:
            size, witness = sid_k_exact(A, k, mode)
            assert size == oracle_sid_k_max(amb.kind, amb.modulus, mode, A.elements, k), \
                (A, mode, k)
            assert len(witness) == size and witness.members <= A.members
            assert oracle_fits(amb.kind, amb.modulus, mode, witness.elements, k)
            greedy = sid_k_greedy(A, k, mode, seed=k)
            assert len(greedy) <= size
            assert oracle_fits(amb.kind, amb.modulus, mode, greedy.elements, k)


# OEIS A003022: length of the shortest Golomb ruler with m = 1, 2, ... marks
GOLOMB_LENGTHS = (0, 1, 3, 6, 11, 17, 25)


def test_sid_k_exact_golomb_rulers():
    for L in range(26):
        expected = max(m for m, G in enumerate(GOLOMB_LENGTHS, 1) if G <= L)
        if L <= 11:  # the table's small entries, re-derived by enumeration
            assert oracle_sid_k_max("integers", None, "difference", range(L + 1), 1) == expected
        assert sid_k_exact(integer_range(0, L + 1), 1)[0] == expected, L


def test_forced_top_conditions():
    Z = AmbientSpec.integers()
    assert _progression_start(Z, "difference", [0, 1, 2, 3]) == 0
    assert _progression_start(Z, "sum", [-9, -4, 0, 3, 6, 9]) == 2
    assert _progression_start(Z, "difference", [0, 1, 3, 7]) == 2
    for elems in ([], [5], [1, 7]):  # n <= 2: every suffix is a progression
        assert _progression_start(Z, "difference", elems) == 0
        assert _mirrored(Z, "sum", elems)
    # the step is taken in the group: this plane line wraps round in y
    assert _progression_start(AmbientSpec.plane(3), "difference", [(0, 2), (1, 0), (2, 1)]) == 0
    assert not _mirrored(Z, "difference", [0, 1, 3, 7])
    for mode in ("product", "ratio"):  # neither map keeps a product profile
        assert _progression_start(Z, mode, [1, 2, 3, 4]) == 4
        assert _progression_start(Z, mode, [1, 2]) == 2
        assert not _mirrored(Z, mode, [1, 2, 3, 4])
    for A, modes, start, mirrored in _forced_top_corpus():
        for mode in modes:
            elems = list(A.elements)
            assert _progression_start(A.ambient, mode, elems) == start, (A, mode)
            assert _mirrored(A.ambient, mode, elems) == mirrored, (A, mode)


def _pinned_d():
    A = integer_set([16, 20, 24, 26, 32, 47, 51, 52])  # third set of the diffset test
    return set_compose(A, A, "difference")


# Witnesses of the search before the forced top: the forced search meets
# the same subsets in the same order, so it must return these unchanged.
PINNED_WITNESSES = [
    (lambda: integer_range(0, 30), 1, [4, 5, 8, 14, 22, 27, 29]),
    (lambda: integer_range(0, 30), 2, [0, 1, 2, 6, 11, 14, 18, 21, 27, 29]),
    (lambda: GroundSet.from_iterable(AmbientSpec.mod(31), range(31)), 1,
     [13, 14, 17, 23, 25, 30]),
    (_pinned_d, 1, [-26, -25, -21, -6, -4, 8, 19, 26, 32, 35]),
]


@pytest.mark.parametrize("case", range(len(PINNED_WITNESSES)))
def test_sid_k_exact_pinned_witnesses(case):
    make, k, want = PINNED_WITNESSES[case]
    size, witness = sid_k_exact(make(), k, cap=120)
    assert (size, list(witness.elements)) == (len(want), want)


def test_ratio_mode_counts_ordered_pairs():
    # a/b and b/a are different values, and 1 = a/a is the exempt identity
    A = integer_set([1, 2, 3, 4, 6, 8, 12])
    for k, expected in ((1, 4), (2, 5), (3, 6)):
        assert oracle_sid_k_max("integers", None, "ratio", A.elements, k) == expected
        size, witness = sid_k_exact(A, k, "ratio")
        assert size == expected
        assert verify_multiplicity(witness, k, "ratio") is None
        greedy = sid_k_greedy(A, k, "ratio", seed=None)
        assert verify_multiplicity(greedy, k, "ratio") is None
        assert len(greedy) <= expected


def test_extract_random_sidon_passthrough():
    A = integer_set([0, 1, 3])
    res = extract_random(A, 2, "difference", seed=1, trials=5)
    assert res.subset == A and res.verified
    assert verify_multiplicity(res.subset, 3) is None


def test_extract_random_difference_contract():
    A = integer_range(0, 256)
    res = extract_random(A, 2, "difference", seed=5, trials=10)
    assert res.verified and res.subset.members <= A.members
    assert verify_multiplicity(res.subset, res.bound) is None
    assert res.bound == 3
    assert len(res.trial_sizes) == 10
    assert len(res.subset) == max(res.trial_sizes)


def test_extract_random_sum_and_product_contract():
    A = integer_range(0, 256)
    res = extract_random(A, 2, "sum", seed=5, trials=10)
    assert res.bound == 2
    assert verify_multiplicity(res.subset, 2, "sum") is None
    B = integer_range(1, 200)
    resp = extract_random(B, 3, "product", seed=5, trials=10)
    assert resp.bound == 4
    assert verify_multiplicity(resp.subset, 4, "product", exempt_identity=False) is None


def test_extract_random_deterministic():
    A = integer_range(0, 512)
    r1 = extract_random(A, 2, "difference", seed=9, trials=8)
    r2 = extract_random(A, 2, "difference", seed=9, trials=8)
    assert r1.subset == r2.subset and r1.trial_sizes == r2.trial_sizes
    r3 = extract_random(A, 2, "difference", seed=10, trials=8)
    assert r3.trial_sizes != r1.trial_sizes


def test_extract_random_caps():
    with pytest.raises(CapExceeded):
        extract_random(integer_range(0, 64), 2, trials=MAX_TRIALS + 1)
    # the bound 798 holds for the whole set, so no sampling rate is needed
    A = integer_range(1, 257)
    res = extract_random(A, 400, "product")
    assert res.subset == A and res.q == 1.0 and res.trials == 0
    with pytest.raises(CapExceeded):  # E_150 > 2^1024, beyond the float range of q
        extract_random(integer_range(1, 1025), 150, "difference")


def test_dense_core_examples():
    ap = integer_range(0, 16)
    core, rep = dense_core_extract(ap, 1)
    assert len(core) > 0 and rep["floor_holds"]
    mixed = integer_set(list(range(4)) + [100, 200, 400])
    core2, rep2 = dense_core_extract(mixed, 1)
    assert {0, 1, 2, 3} <= core2.members
    assert rep2["energy_core"] * 16 >= rep2["energy_input"]
    single = integer_set([7])
    core3, rep3 = dense_core_extract(single, 2)
    assert core3 == single and rep3["floor_holds"]


def test_dense_core_floor_random():
    rng = random.Random(137)
    for _ in range(20):
        A = integer_set(rng.sample(range(120), rng.randint(2, 25)))
        for g in (1, 2):
            core, rep = dense_core_extract(A, g)
            assert len(core) >= 1
            assert rep["energy_core"] * 4 ** ((g + 1) ** 2) >= rep["energy_input"]


def test_dense_core_matches_oracle():
    rng = random.Random(211)
    planes = [(x, y) for x in range(7) for y in range(7)]
    sets = [integer_set(rng.sample(range(-50, 150), 30)),
            integer_set([-2**62, 2**62 - 1] + rng.sample(range(100), 20)),  # Python-int codes
            GroundSet.from_iterable(AmbientSpec.mod(64), rng.sample(range(64), 25)),
            GroundSet.from_iterable(AmbientSpec.prime_field(61), rng.sample(range(61), 25)),
            GroundSet.from_iterable(AmbientSpec.plane(7), rng.sample(planes, 20))]
    for A in sets:
        kind, modulus = A.ambient.kind, A.ambient.modulus
        r, _ = oracle_histogram(A, A, "difference")
        for g in (1, 2, 3):
            e_in = sum(c ** (g + 1) for c in r.values())
            want = [a for a in A if 2 * len(A) * sum(
                r[oracle_compose(kind, modulus, "difference", x, a)] ** g for x in A) >= e_in]
            core, rep = dense_core_extract(A, g)
            assert (list(core.elements), rep["energy_input"]) == (want, e_in), (A, g)


def test_field_extraction():
    amb = AmbientSpec.prime_field(101)
    A = GroundSet.from_iterable(amb, range(60))
    res = extract_random(A, 2, "difference", seed=3, trials=10)
    assert res.verified
    assert verify_multiplicity(res.subset, 3) is None


def test_plane_verifiers_agree():
    from sidonkit import hyperbola_family
    rng = random.Random(139)
    amb = AmbientSpec.plane(5)
    for _ in range(15):
        pts = {(rng.randrange(5), rng.randrange(5)) for _ in range(rng.randint(2, 9))}
        S = GroundSet.from_iterable(amb, pts)
        for g in (1, 2, 3):
            mult = verify_multiplicity(S, g)
            fam = verify_bfamily(S, BFamilyParams(2, g))
            assert (mult is None) == (fam is None)
    A = hyperbola_family(13, 2, t=3).output
    m = verify_multiplicity(A, 7)
    fam = verify_bfamily(A, BFamilyParams(2, 7))
    assert (m is None) == (fam is None)


def test_extract_random_matches_repair_oracle():
    # 10-16 seeded elements keep the oracle's literal energy enumeration fast
    planes = [(x, y) for x in range(11) for y in range(11)]
    cases = [(AmbientSpec.integers(), range(-40, 200), ("difference", "sum", "product")),
             (AmbientSpec.mod(120), range(120), ("difference", "sum")),
             (AmbientSpec.prime_field(101), range(101), ("difference", "sum", "product")),
             (AmbientSpec.plane(11), planes, ("difference", "sum"))]
    deletions = dict.fromkeys(("difference", "sum", "product"), 0)
    for amb, pool, modes in cases:
        for mode in modes:
            for seed in range(5):
                rng = random.Random(f"{amb.kind}:{mode}:{seed}")
                A = GroundSet.from_iterable(amb, rng.sample(list(pool), rng.randint(10, 16)))
                got = extract_random(A, 2, mode, seed=seed, trials=20)
                want = oracle_extract(A, 2, mode, seed, 20)
                assert (list(got.subset.elements), list(got.trial_sizes), got.best_trial,
                        got.deletions) == (want["subset"], want["trial_sizes"],
                                           want["best_trial"], want["deletions"]), (A, mode, seed)
                deletions[mode] += got.deletions
    assert all(n > 0 for n in deletions.values()), deletions
