from fractions import Fraction

import pytest

from sidonkit import (
    AmbientSpec,
    DivisionByZero,
    NonCanonicalElement,
    OverflowBudgetExceeded,
    UnsupportedMode,
    compose,
    compose_value,
    is_prime,
)
from sidonkit.ambient import ELEMENT_MAX, canonical_element


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 101, 2**31 - 1}
    for p in primes:
        assert is_prime(p)
    for n in (0, 1, 4, 9, 15, 91, 561, 2**31):
        assert not is_prime(n)


def test_ambient_validation():
    AmbientSpec.integers()
    AmbientSpec.mod(2)
    AmbientSpec.prime_field(13)
    AmbientSpec.plane(5)
    with pytest.raises(NonCanonicalElement):
        AmbientSpec.mod(1)
    with pytest.raises(NonCanonicalElement):
        AmbientSpec.prime_field(12)
    with pytest.raises(NonCanonicalElement):
        AmbientSpec("no-such-kind")


def test_moduli_below_2_64_only():
    psi12 = 318665857834031151167461  # = 399165290221 * 798330580441
    for make in (AmbientSpec.prime_field, AmbientSpec.plane):
        with pytest.raises(NonCanonicalElement):
            make(psi12)
        for p in (2**64 - 59, 2**61 - 1):
            assert make(p).modulus == p


def test_mode_inventory():
    assert "product" in AmbientSpec.integers().modes
    assert "ratio" in AmbientSpec.prime_field(13).modes
    assert AmbientSpec.mod(10).modes == ("difference", "sum")
    assert AmbientSpec.plane(5).modes == ("difference", "sum")


def test_compose_integers():
    amb = AmbientSpec.integers()
    assert compose(amb, "difference", 7, 3) == 4
    assert compose(amb, "sum", 7, 3) == 10
    assert compose(amb, "product", 7, 3) == 21
    assert compose_value(amb, "ratio", 1, 2) == Fraction(1, 2)
    assert compose_value(amb, "ratio", -4, -2) == 2
    with pytest.raises(DivisionByZero):
        compose_value(amb, "ratio", 1, 0)
    with pytest.raises(NonCanonicalElement):
        compose(amb, "ratio", 1, 2)  # fractional results are not elements


def test_compose_prime_field():
    amb = AmbientSpec.prime_field(13)
    assert compose(amb, "product", 5, 8) == 1  # 40 = 3*13 + 1
    assert compose(amb, "difference", 3, 7) == 9
    assert compose(amb, "ratio", 1, 2) == 7  # 2 * 7 = 14 = 1 mod 13
    with pytest.raises(DivisionByZero):
        compose(amb, "ratio", 1, 0)


def test_compose_plane():
    amb = AmbientSpec.plane(5)
    assert compose(amb, "sum", (4, 3), (2, 4)) == (1, 2)
    assert compose(amb, "difference", (0, 0), (2, 4)) == (3, 1)
    with pytest.raises(UnsupportedMode):
        compose(amb, "product", (1, 1), (2, 2))


def test_element_budget():
    amb = AmbientSpec.integers()
    big = ELEMENT_MAX
    canonical_element(amb, big)
    with pytest.raises(OverflowBudgetExceeded):
        canonical_element(amb, big + 1)
    with pytest.raises(OverflowBudgetExceeded):
        compose(amb, "sum", big, big)
    with pytest.raises(OverflowBudgetExceeded):
        compose(amb, "product", 2**40, 2**40)
    # the same product is fine as a histogram value (double width)
    assert compose_value(amb, "product", 2**40, 2**40) == 2**80


def test_canonical_rejects():
    with pytest.raises(NonCanonicalElement):
        canonical_element(AmbientSpec.prime_field(13), 13)
    with pytest.raises(NonCanonicalElement):
        canonical_element(AmbientSpec.prime_field(13), -1)
    with pytest.raises(NonCanonicalElement):
        canonical_element(AmbientSpec.integers(), True)
    with pytest.raises(NonCanonicalElement):
        canonical_element(AmbientSpec.plane(5), (1, 5))
    assert canonical_element(AmbientSpec.plane(5), [1, 4]) == (1, 4)
