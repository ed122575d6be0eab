"""Ambient group arithmetic and canonical elements.

Four ambients are supported: the integers, the integers mod N, the prime
field F_p, and the additive coordinate plane F_p x F_p.  Difference and sum
are defined everywhere; product and ratio only over the integers and F_p.

Exactness contract: set elements are signed 64-bit integers (residues /
coordinate pairs for the modular kinds); composed *values* may use double
width (128 bits), which covers any product of two canonical elements.
Inputs whose compositions exceed these budgets are rejected with
OverflowBudgetExceeded, never approximated.  Ratio values over the integers
are reduced sign-normalized fractions and never become set elements.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    DivisionByZero,
    NonCanonicalElement,
    OverflowBudgetExceeded,
    UnsupportedMode,
)

INTEGERS = "integers"
MOD_N = "integers-mod-N"
PRIME_FIELD = "prime-field"
PLANE = "prime-square-plane"

KINDS = (INTEGERS, MOD_N, PRIME_FIELD, PLANE)

DIFFERENCE = "difference"
SUM = "sum"
PRODUCT = "product"
RATIO = "ratio"

ALL_MODES = (DIFFERENCE, SUM, PRODUCT, RATIO)

ELEMENT_MAX = 2**63 - 1       # |element| budget (signed 64-bit)
VALUE_MAX = 2**127 - 1        # |composed value| budget (double width)

_MODES_BY_KIND = {
    INTEGERS: (DIFFERENCE, SUM, PRODUCT, RATIO),
    PRIME_FIELD: (DIFFERENCE, SUM, PRODUCT, RATIO),
    MOD_N: (DIFFERENCE, SUM),
    PLANE: (DIFFERENCE, SUM),
}

# Miller-Rabin witnesses: no composite below psi_12 = 318665857834031151167461
# is a strong pseudoprime to all of them (Sorenson and Webster); psi_12 is.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MODULUS_LIMIT = 2**64  # prime-field and plane moduli, far below psi_12


def is_prime(n: int) -> bool:
    """Primality test, proven exact for n < psi_12 = 318665857834031151167461;
    above that a strong pseudoprime to all twelve witnesses, such as psi_12,
    is reported prime."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class AmbientSpec:
    """Declared ambient group plus its composition inventory."""

    kind: str
    modulus: int | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise NonCanonicalElement(f"unknown ambient kind {self.kind!r}")
        if self.kind == INTEGERS:
            if self.modulus is not None:
                raise NonCanonicalElement("integers ambient takes no modulus")
        elif self.kind == MOD_N:
            if not isinstance(self.modulus, int) or self.modulus < 2:
                raise NonCanonicalElement("modulus N must be an integer >= 2")
        else:
            if (not isinstance(self.modulus, int) or self.modulus >= _MODULUS_LIMIT
                    or not is_prime(self.modulus)):
                raise NonCanonicalElement(
                    f"{self.kind} requires a prime modulus below 2^64, got {self.modulus!r}"
                )

    @property
    def modes(self) -> tuple[str, ...]:
        return _MODES_BY_KIND[self.kind]

    @property
    def is_plane(self) -> bool:
        return self.kind == PLANE

    def identity(self, mode: str):
        """Exempt value of a composition mode: 0 for differences, 1 for
        product and ratio.  Sums have no exempt value."""
        if mode == DIFFERENCE:
            return (0, 0) if self.is_plane else 0
        if mode in (PRODUCT, RATIO):
            return 1
        return None

    def to_dict(self) -> dict:
        d = {"kind": self.kind}
        if self.kind == MOD_N:
            d["N"] = self.modulus
        elif self.kind in (PRIME_FIELD, PLANE):
            d["p"] = self.modulus
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "AmbientSpec":
        if not isinstance(d, dict):
            raise NonCanonicalElement(f"ambient must be a JSON object, got {d!r}")
        kind = d.get("kind")
        if kind == INTEGERS:
            return cls(INTEGERS)
        if kind == MOD_N:
            return cls(MOD_N, d.get("N"))
        if kind in (PRIME_FIELD, PLANE):
            return cls(kind, d.get("p"))
        raise NonCanonicalElement(f"unknown ambient kind {kind!r}")

    @classmethod
    def integers(cls) -> "AmbientSpec":
        return cls(INTEGERS)

    @classmethod
    def mod(cls, n: int) -> "AmbientSpec":
        return cls(MOD_N, n)

    @classmethod
    def prime_field(cls, p: int) -> "AmbientSpec":
        return cls(PRIME_FIELD, p)

    @classmethod
    def plane(cls, p: int) -> "AmbientSpec":
        return cls(PLANE, p)


def canonical_element(ambient: AmbientSpec, x):
    """Validate and return x in canonical form for the ambient, or raise."""
    if ambient.kind == INTEGERS:
        if isinstance(x, bool) or not isinstance(x, int):
            raise NonCanonicalElement(f"integer element expected, got {x!r}")
        if abs(x) > ELEMENT_MAX:
            raise OverflowBudgetExceeded(f"element {x} exceeds the 64-bit budget")
        return x
    if ambient.kind in (MOD_N, PRIME_FIELD):
        if isinstance(x, bool) or not isinstance(x, int):
            raise NonCanonicalElement(f"residue element expected, got {x!r}")
        if not 0 <= x < ambient.modulus:
            raise NonCanonicalElement(
                f"element {x} outside [0, {ambient.modulus}) for {ambient.kind}"
            )
        return x
    # plane
    if (
        not isinstance(x, (tuple, list))
        or len(x) != 2
        or any(isinstance(c, bool) or not isinstance(c, int) for c in x)
    ):
        raise NonCanonicalElement(f"coordinate pair expected, got {x!r}")
    a, b = x
    p = ambient.modulus
    if not (0 <= a < p and 0 <= b < p):
        raise NonCanonicalElement(f"pair {x!r} outside [0, {p})^2")
    return (a, b)


def _check_mode(ambient: AmbientSpec, mode: str) -> None:
    if mode not in ALL_MODES:
        raise UnsupportedMode(f"unknown composition mode {mode!r}")
    if mode not in ambient.modes:
        raise UnsupportedMode(f"mode {mode!r} undefined for {ambient.kind}")


def compose_value(ambient: AmbientSpec, mode: str, x, y):
    """Compose two canonical elements into a *value* (histogram key).

    Values get the double-width budget; over the integers a ratio value is
    a reduced sign-normalized Fraction.
    """
    _check_mode(ambient, mode)
    if ambient.kind == INTEGERS:
        if mode == DIFFERENCE:
            return x - y
        if mode == SUM:
            return x + y
        if mode == PRODUCT:
            v = x * y
            if abs(v) > VALUE_MAX:  # unreachable for canonical inputs
                raise OverflowBudgetExceeded(f"product {x}*{y} exceeds the value budget")
            return v
        if y == 0:
            raise DivisionByZero(f"ratio {x}/0")
        return Fraction(x, y)
    if ambient.kind in (MOD_N, PRIME_FIELD):
        m = ambient.modulus
        if mode == DIFFERENCE:
            return (x - y) % m
        if mode == SUM:
            return (x + y) % m
        if mode == PRODUCT:
            return x * y % m
        if y % m == 0:
            raise DivisionByZero(f"ratio {x}/{y} mod {m}: divisor not invertible")
        return x * pow(y, -1, m) % m
    p = ambient.modulus
    if mode == DIFFERENCE:
        return ((x[0] - y[0]) % p, (x[1] - y[1]) % p)
    return ((x[0] + y[0]) % p, (x[1] + y[1]) % p)


def compose(ambient: AmbientSpec, mode: str, x, y):
    """Compose two elements into an *element*, canonical for the ambient.

    Differs from compose_value only over the integers, where the result
    must itself fit the element budget, and for ratios, where a fractional
    result is rejected as a set element.
    """
    x = canonical_element(ambient, x)
    y = canonical_element(ambient, y)
    v = compose_value(ambient, mode, x, y)
    if ambient.kind == INTEGERS:
        if isinstance(v, Fraction):
            if v.denominator != 1:
                raise NonCanonicalElement(
                    f"ratio {x}/{y} is not an integer; fractions are histogram "
                    "values, never set elements"
                )
            v = int(v)
        if abs(v) > ELEMENT_MAX:
            raise OverflowBudgetExceeded(
                f"{mode} of {x} and {y} exceeds the 64-bit element budget"
            )
    return v


def negate(ambient: AmbientSpec, x):
    """Additive inverse of a canonical element."""
    if ambient.kind == INTEGERS:
        return -x
    if ambient.kind in (MOD_N, PRIME_FIELD):
        return (-x) % ambient.modulus
    p = ambient.modulus
    return ((-x[0]) % p, (-x[1]) % p)
