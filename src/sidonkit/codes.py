"""The array format of every set computation: one integer code per
element or composed value.

A scalar element or value is coded as itself and a plane pair (x, y) over
F_p as x * p + y, so code order is canonical order.  A ratio a/b over the
integers, reduced to num/den with den > 0, is coded num * S + den, with
S = 2^31 in int64 arrays and S = 2^64 otherwise; these codes are not in
value order (see `value_order`).

A code array is int64 when `code_dtype` proves that no composition it
takes part in can leave int64, and holds Python ints (dtype=object)
otherwise, so every code is exact.  numpy runs the same operations on
both; the object arrays are much slower and serve only inputs beyond the
proof.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .ambient import DIFFERENCE, INTEGERS, PLANE, PRODUCT, RATIO, SUM, AmbientSpec
from .errors import DivisionByZero

# Exclusive bound on |operand| of an int64 product: 3_037_000_500^2 > 2^63 - 1,
# while 3_037_000_499^2 < 2^63 - 1.
_MUL_BOUND = 3_037_000_500
_RATIO_BOUND = 2**31  # |num| < 2^31 and 0 < den < 2^31, so num * 2^31 + den fits


def code_dtype(amb: AmbientSpec, mode: str, *pools, terms: int = 2):
    """np.int64 when every composition in `mode` of `terms` operands drawn
    from `pools`, reduction included, provably stays inside int64, and
    object otherwise.  The proof: each integer operand of a sum or
    difference of t terms has |x| < 2^63 / 2^ceil(log2 t) (2^62 for two,
    2^61 for three), of a product |x| < 3_037_000_500, and of a ratio
    |x| < 2^31; residues meet the same bound through the modulus, as they
    are at most modulus - 1; plane codes fit when p <= 2^31."""
    if amb.kind == PLANE:
        fits = amb.modulus <= 2**31
    else:
        if mode == RATIO and amb.kind == INTEGERS:
            bound = _RATIO_BOUND
        elif mode in (PRODUCT, RATIO):
            bound = _MUL_BOUND
        else:
            bound = 2**63 >> (terms - 1).bit_length()
        if amb.kind == INTEGERS:
            fits = all(-bound < min(pool) and max(pool) < bound for pool in pools if pool)
        else:
            fits = amb.modulus <= bound
    return np.int64 if fits else object


def element_codes(amb: AmbientSpec, elements, dtype) -> np.ndarray:
    """Codes of canonical elements (or of difference, sum and product
    values, which have the same form) as an array of `dtype`."""
    if amb.kind == PLANE:
        p = amb.modulus
        elements = [x * p + y for x, y in elements]
    return np.array(elements, dtype=dtype)


def _ratio_shift(dtype) -> int:
    return _RATIO_BOUND if dtype == np.int64 else 2**64


def combine_codes(amb: AmbientSpec, mode: str, x, y) -> np.ndarray:
    """Codes of x o y under numpy broadcasting, as one fresh array: the one
    group law on codes.  x and y are code arrays or single codes of one
    dtype, not both single; in ratio mode y is an array holding no zero.
    Every pair is `combine_codes(amb, mode, a[:, None], b)`, -a is
    `combine_codes(amb, DIFFERENCE, 0, a)` and the diagonal a o a is
    `combine_codes(amb, mode, a, a)`."""
    if amb.kind == PLANE:
        p = amb.modulus
        op = np.subtract if mode == DIFFERENCE else np.add
        out = op(x // p, y // p)
        out %= p
        low = op(x % p, y % p)
        low %= p
        out *= p
        out += low
        return out
    if mode == RATIO and amb.kind == INTEGERS:
        g = np.gcd(x, y)
        num = x // g
        den = y // g
        del g
        sign = np.where(den < 0, -1, 1)
        num *= sign
        den *= sign
        num *= _ratio_shift(num.dtype)
        num += den
        return num
    if mode == RATIO:  # over F_p: multiply by the inverses of y
        y = np.array([pow(c, -1, amb.modulus) for c in y.tolist()], dtype=y.dtype)
        mode = PRODUCT
    out = {DIFFERENCE: np.subtract, SUM: np.add, PRODUCT: np.multiply}[mode](x, y)
    if amb.kind != INTEGERS:
        out %= amb.modulus
    return out


def compose_codes(amb: AmbientSpec, mode: str, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Codes of x o y for every code x in `a` and y in `b`, row by row, as
    one fresh flat array.  In ratio mode `b` holds no zero."""
    return combine_codes(amb, mode, a[:, None], b).ravel()


def pair_codes(amb: AmbientSpec, mode: str, left, right,
               skip_noninvertible: bool = False) -> tuple[np.ndarray, int]:
    """Codes of a o b for every canonical a in `left` and b in `right`, row
    by row, and the number of ratio pairs skipped because b = 0 has no
    inverse; such pairs raise DivisionByZero unless skipping is allowed."""
    skipped = 0
    if mode == RATIO:
        divisors = tuple(b for b in right if b != 0)
        skipped = len(left) * (len(right) - len(divisors))
        if skipped and not skip_noninvertible:
            raise DivisionByZero(f"ratio by 0 in {amb.kind}")
        right = divisors
    dtype = code_dtype(amb, mode, left, right)
    return compose_codes(amb, mode, element_codes(amb, left, dtype),
                         element_codes(amb, right, dtype)), skipped


def decode(amb: AmbientSpec, mode: str, codes: np.ndarray) -> list:
    """The values that `codes` stand for, in the same order."""
    if amb.kind == PLANE:
        p = amb.modulus
        return list(zip((codes // p).tolist(), (codes % p).tolist()))
    if mode == RATIO and amb.kind == INTEGERS:
        shift = _ratio_shift(codes.dtype)
        return [Fraction(n, d) for n, d in zip((codes // shift).tolist(),
                                               (codes % shift).tolist())]
    return codes.tolist()


def value_order(amb: AmbientSpec, mode: str, codes: np.ndarray) -> np.ndarray | None:
    """Positions of `codes` in increasing value order, or None when that
    is their own order.  Integer ratios are ordered by the exact key
    floor(num * S^2 / den), which differs for any two values whose
    denominators are below S, as they differ by more than 1 / S^2."""
    if not (mode == RATIO and amb.kind == INTEGERS):
        return None
    shift = _ratio_shift(codes.dtype)
    keys = [c // shift * shift * shift // (c % shift) for c in codes.tolist()]
    return np.array(sorted(range(len(keys)), key=keys.__getitem__), dtype=np.int64)


def sort_codes(flat: np.ndarray) -> np.ndarray:
    """The codes of `flat` in increasing order.  int64 codes are sorted in
    place, so no second array of their size is made; Python-int codes are
    sorted as a list, several times faster than numpy's sort of an object
    array."""
    if flat.dtype == object:
        return np.array(sorted(flat.tolist()), dtype=object)
    flat.sort()
    return flat


def run_starts(flat: np.ndarray) -> np.ndarray:
    """Mask of the positions of sorted codes where a run of equal codes
    starts."""
    new = np.ones(flat.size, dtype=bool)
    np.not_equal(flat[1:], flat[:-1], out=new[1:])
    return new


def unique_codes(flat: np.ndarray) -> np.ndarray:
    """The distinct codes of a fresh array, in increasing order; the array
    is consumed.  A sort and its runs: numpy 2.4's hashing `np.unique`
    took 0.63 s on 10^6 int64 codes, against 0.024 s."""
    flat = sort_codes(flat)
    return flat[run_starts(flat)]


def find_codes(codes: np.ndarray, query: np.ndarray) -> np.ndarray:
    """The position of each code of `query` in the increasing `codes`, or -1
    where it is absent: every membership test of a composed value."""
    pos = np.searchsorted(codes, query)
    found = pos < codes.size
    found[found] = codes[pos[found]] == query[found]
    pos[~found] = -1
    return pos


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _value_code(amb: AmbientSpec, mode: str, v, shift: int):
    """The code of a value given in any form a caller may use, or None when
    it is not a canonical value of `mode`: a plane pair may come as a list,
    an integer as a Fraction with denominator 1, and an integer ratio as an
    int; bools and floats are never values."""
    if amb.kind == PLANE:
        p = amb.modulus
        if (isinstance(v, (tuple, list)) and len(v) == 2
                and all(_is_int(c) and 0 <= c < p for c in v)):
            return v[0] * p + v[1]
        return None
    if mode == RATIO and amb.kind == INTEGERS:
        if not (_is_int(v) or isinstance(v, Fraction)) or v.denominator >= shift:
            return None
        return v.numerator * shift + v.denominator
    if isinstance(v, Fraction) and v.denominator == 1:
        v = v.numerator
    if not _is_int(v) or (amb.kind != INTEGERS and not 0 <= v < amb.modulus):
        return None
    return v


def value_codes(amb: AmbientSpec, mode: str, values, dtype) -> tuple[np.ndarray, np.ndarray]:
    """Codes of arbitrary query values in the format of a `mode` code array
    of `dtype`, and a mask of the values that array could hold; the others
    (see `_value_code`, and codes beyond int64 for an int64 array) get
    code 0 and False.  Scalar values that are all ints within int64 are
    coded as themselves in one array, with the residue range checked on
    the whole array; any other query goes value by value."""
    values = list(values)
    if (amb.kind != PLANE and not (mode == RATIO and amb.kind == INTEGERS)
            and all(type(v) is int for v in values)):
        try:
            codes = np.array(values, dtype=np.int64)
        except OverflowError:
            pass
        else:
            held = np.ones(codes.size, dtype=bool) if amb.kind == INTEGERS \
                else (codes >= 0) & (codes < amb.modulus)
            codes[~held] = 0
            return codes.astype(dtype, copy=False), held
    shift = _ratio_shift(dtype)
    raw = [_value_code(amb, mode, v, shift) for v in values]
    if dtype == np.int64:
        raw = [c if c is not None and -2**63 <= c < 2**63 else None for c in raw]
    held = np.array([c is not None for c in raw], dtype=bool)
    return np.array([0 if c is None else c for c in raw], dtype=dtype), held
