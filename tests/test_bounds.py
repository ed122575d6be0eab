import math
import random
from fractions import Fraction

import pytest

from sidonkit import (
    AmbientSpec,
    GroundSet,
    PreconditionFailed,
    bfamily_size_upper,
    co_sidon_check,
    diffset_bounds,
    heritability_slice,
    integer_range,
    integer_set,
    plunnecke_audit,
    sidon_slice_audit,
    sumset_sidon_upper,
)
from sidonkit.bounds import integer_kth_root, root_upper, sqrt_upper


def test_integer_kth_root():
    rng = random.Random(3)
    for _ in range(200):
        x = rng.randrange(0, 10**12)
        r = rng.randint(1, 6)
        root = integer_kth_root(x, r)
        assert root**r <= x < (root + 1) ** r


def test_root_upper_is_upper_and_tight():
    for x in (2, 3, 10, 200, 10**8):
        for r in (2, 3, 4):
            up = root_upper(x, r)
            assert float(up) >= x ** (1 / r) - 1e-9
            assert up**r >= x
            assert float(up) - x ** (1 / r) < 1e-5
    assert sqrt_upper(4) == 2
    assert sqrt_upper(Fraction(1, 4)) == Fraction(1, 2)


def test_sumset_sidon_upper_example():
    B = integer_set([0, 1])
    C = integer_set([0, 2, 4])
    A = integer_range(0, 6)
    rep = sumset_sidon_upper(B, C, 1, sigma=1, A=A)
    # min(3 sqrt 2 + 2, 2 sqrt 3 + 3) = 6.2426...
    assert abs(float(rep.bound) - (3 * math.sqrt(2) + 2)) < 1e-5
    assert rep.measured == 3
    assert rep.verdict == "holds"


def test_sumset_sidon_upper_symmetry_and_singleton():
    rng = random.Random(7)
    for _ in range(10):
        B = integer_set(rng.sample(range(30), rng.randint(1, 6)))
        C = integer_set(rng.sample(range(30), rng.randint(1, 6)))
        k = rng.randint(1, 3)
        assert sumset_sidon_upper(B, C, k).bound == sumset_sidon_upper(C, B, k).bound
    single = integer_set([0])
    C = integer_set([0, 3, 9, 11])
    rep = sumset_sidon_upper(single, C, 2, A=C)
    assert rep.measured is not None and rep.measured <= rep.bound
    assert rep.verdict == "holds"


def test_sumset_sidon_sigma_precondition():
    B = integer_set([0, 1])
    C = integer_set([0, 2])
    A = integer_set([0, 1, 2, 3])
    with pytest.raises(PreconditionFailed) as err:
        sumset_sidon_upper(B, C, 1, sigma=2, A=A)
    assert err.value.witness is not None


def test_sumset_k_near_size_sanity():
    rng = random.Random(11)
    for _ in range(15):
        B = integer_set(rng.sample(range(20), rng.randint(1, 4)))
        C = integer_set(rng.sample(range(20), rng.randint(1, 4)))
        from sidonkit import set_compose
        A = set_compose(B, C, "sum")
        rep = sumset_sidon_upper(B, C, max(1, len(A) - 1), A=A)
        assert rep.verdict == "holds"


def test_diffset_bounds_examples():
    rep = diffset_bounds(integer_set([0, 1, 3]), 1)
    assert rep.details["D_size"] == 7
    assert rep.details["diff_fact_min"] >= 3
    assert rep.details["sum_fact_min"] >= 3
    assert rep.verdict == "holds"
    trivial = diffset_bounds(integer_set([0]), 1)
    assert trivial.verdict == "holds"


def test_diffset_facts_random():
    rng = random.Random(13)
    for _ in range(25):
        A = integer_set(rng.sample(range(60), rng.randint(1, 8)))
        rep = diffset_bounds(A, rng.randint(1, 3))
        assert rep.details["facts_hold"]


def test_diffset_measured_within_bound():
    rng = random.Random(17)
    measured_any = False
    for _ in range(6):
        A = integer_set(rng.sample(range(60), 8))
        rep = diffset_bounds(A, 1, exact_cap=120)
        if rep.measured is not None:
            measured_any = True
            assert rep.measured <= rep.bound
        assert rep.verdict == "holds"
    assert measured_any


def test_bfamily_size_upper_values():
    fg = bfamily_size_upper(100, 2, 2, "finite-group")
    assert abs(float(fg.bound) - (math.sqrt(200) + 1)) < 1e-5
    seg = bfamily_size_upper(100, 2, 2, "segment")
    assert abs(float(seg.bound) - (math.sqrt(200) + 200**0.25 + 1)) < 1e-4
    classical = bfamily_size_upper(10**4, 2, 1, "segment")
    assert abs(float(classical.bound) - 111) < 1e-4
    general = bfamily_size_upper(100, 3, 2, "finite-group")
    expected = (3 * 100**2) ** (1 / 3) + 3
    assert float(general.bound) >= expected - 1e-9
    assert float(general.bound) - expected < 1e-4


def test_co_sidon_examples():
    assert co_sidon_check(integer_set([0, 1]), integer_set([0, 2]))
    assert not co_sidon_check(integer_set([0, 1]), integer_set([0, 1]))
    assert co_sidon_check(integer_set([5]), integer_set([0, 1, 2]))


HAND_SET = [0, 1, 3, 7, 8, 12]


def test_sidon_slice_audit_hand_set():
    S = integer_set(HAND_SET)
    rep = sidon_slice_audit(S)
    assert rep.verdict == "holds"
    assert rep.details["slices_checked"] > 0
    # the two slices from the examples
    s1 = [y for y in HAND_SET if y - 1 in HAND_SET]
    s4 = [y for y in HAND_SET if y - 4 in HAND_SET]
    assert s1 == [1, 8] and s4 == [7, 12]


def test_sidon_slice_audit_preconditions():
    with pytest.raises(PreconditionFailed):
        sidon_slice_audit(integer_range(0, 6))  # r(1) = 5 > 2
    amb = AmbientSpec.mod(8)
    S = GroundSet.from_iterable(amb, [0, 1, 3])
    with pytest.raises(PreconditionFailed):
        sidon_slice_audit(S)  # even modulus has 2-torsion


def test_heritability_general():
    S = integer_set(HAND_SET)
    X1 = integer_set([0, 1])
    X2 = integer_set([0, 3])
    rep = heritability_slice(S, [X1, X2], 2, 2)
    assert rep.verdict == "holds"
    assert rep.details["tuples_checked"] >= 0


def test_heritability_preconditions():
    S = integer_set(HAND_SET)
    with pytest.raises(PreconditionFailed):
        heritability_slice(S, [integer_set([0, 1])], 2, 2)  # l < 2
    with pytest.raises(PreconditionFailed):
        heritability_slice(S, [integer_set([0]), integer_set([1])], 2, 2)  # sizes too small
    with pytest.raises(PreconditionFailed):
        heritability_slice(S, [integer_set([0, 1]), integer_set([0, 1])], 2, 2)  # not co-Sidon
    with pytest.raises(PreconditionFailed):
        heritability_slice(integer_range(0, 9), [integer_set([0, 1]), integer_set([0, 3])], 2, 2)
    with pytest.raises(PreconditionFailed, match="nonempty"):
        heritability_slice(S, [integer_set([]), integer_set([0, 1, 3, 7, 12])], 2, 2)


def test_plunnecke_examples():
    rep = plunnecke_audit(integer_set([0, 1]), 2, 1)
    assert rep.measured == 4
    assert rep.bound == Fraction(27, 4)  # (3/2)^3 * 2
    assert rep.verdict == "holds"
    ap = integer_range(0, 10)
    rep2 = plunnecke_audit(ap, 1, 1)
    assert rep2.measured == 19 and rep2.verdict == "holds"
    rep3 = plunnecke_audit(integer_set([0, 1, 5]), 1, 0)
    assert rep3.measured == 3  # |A| itself
    assert rep3.verdict == "holds"


def test_plunnecke_random_always_holds():
    rng = random.Random(19)
    for _ in range(20):
        A = integer_set(rng.sample(range(40), rng.randint(1, 7)))
        n, m = rng.randint(0, 2), rng.randint(0, 2)
        if n + m == 0:
            n = 1
        assert plunnecke_audit(A, n, m).verdict == "holds"


def test_sidon_slice_audit_exhaustive_small():
    rng = random.Random(23)
    found = 0
    for _ in range(40):
        S = integer_set(rng.sample(range(30), rng.randint(2, 7)))
        from sidonkit import verify_multiplicity
        if verify_multiplicity(S, 2) is None:
            rep = sidon_slice_audit(S)
            assert rep.verdict == "holds"
            found += 1
    assert found > 5
