"""Closed-form size bounds and structural audits.

Every bound is evaluated conservatively: square roots and rational powers
are replaced by exact rational upper bounds (granularity 1e-6), so a
rounding artifact can never manufacture a violation.  Verdicts compare
exact integers against those rationals.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .ambient import (
    DIFFERENCE,
    INTEGERS,
    MOD_N,
    PRIME_FIELD,
    SUM,
    compose_value,
)
from .codes import decode, pair_codes, unique_codes
from .counting import difference_histogram, rep_histogram
from .errors import CapExceeded, PreconditionFailed
from .groundset import GroundSet, set_compose, translate_intersection
from .sidon import BFamilyParams, sid_k_exact, verify_bfamily, verify_multiplicity

TUPLE_CAP = 2_000_000    # offset tuples heritability_slice may enumerate
SUMSET_CAP = 2_000_000   # elements an iterated sumset of plunnecke_audit may hold


@dataclass(frozen=True)
class BoundReport:
    name: str
    inputs: dict
    bound: Fraction
    measured: int | None = None
    verdict: str = "not-compared"
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "inputs": self.inputs,
            "bound": str(self.bound),
            "bound_float": float(self.bound),
            "measured": self.measured,
            "verdict": self.verdict,
            "details": self.details,
        }


def integer_kth_root(x: int, r: int) -> int:
    """floor(x ** (1/r)) for nonnegative integers, exactly."""
    if x < 0 or r < 1:
        raise ValueError("nonnegative radicand and positive index required")
    if x in (0, 1) or r == 1:
        return x
    guess = 1 << -(-x.bit_length() // r)
    while True:
        nxt = ((r - 1) * guess + x // guess ** (r - 1)) // r
        if nxt >= guess:
            break
        guess = nxt
    return guess


_SCALE = 10**6


def root_upper(x, r: int) -> Fraction:
    """Rational upper bound on x^(1/r) within 1e-6, never below the truth."""
    q = Fraction(x)
    scaled = q.numerator * q.denominator ** (r - 1) * _SCALE**r
    u = integer_kth_root(scaled, r)
    if u**r == scaled:
        return Fraction(u, q.denominator * _SCALE)
    return Fraction(u + 1, q.denominator * _SCALE)


def sqrt_upper(x) -> Fraction:
    return root_upper(x, 2)


# ---------------------------------------------------------------------------
# Sidon subsets of sumsets

def sumset_sidon_upper(B: GroundSet, C: GroundSet, k: int, sigma: int = 1,
                       A: GroundSet | None = None, exact_cap: int = 22) -> BoundReport:
    """Upper bound sigma^-1 * min(|C| sqrt(k|B|) + |B|, |B| sqrt(k|C|) + |C|)
    on the bounded-multiplicity subset size of any A with r_{B+C} >= sigma
    on A.  With A supplied, the sigma hypothesis is verified exactly and,
    within the search cap, the bound is compared against the exact optimum.
    """
    if sigma < 1:
        raise ValueError("sigma must be >= 1")
    if k < 1:
        raise ValueError("k must be >= 1")
    nb, nc = len(B), len(C)
    branch_bc = nc * sqrt_upper(k * nb) + nb
    branch_cb = nb * sqrt_upper(k * nc) + nc
    bound = min(branch_bc, branch_cb) / sigma
    details = {
        "branch_bc": float(branch_bc / sigma),
        "branch_cb": float(branch_cb / sigma),
        "sigma": sigma,
    }
    measured = None
    verdict = "not-compared"
    if A is not None:
        counts = rep_histogram(B, C, SUM).counts(A.elements).tolist()
        for a, c in zip(A, counts):
            if c < sigma:
                raise PreconditionFailed(f"r_(B+C)({a!r}) = {c} < sigma = {sigma}", witness=a)
        details["sigma_hypothesis"] = "verified"
        if len(A) <= exact_cap:
            measured, _ = sid_k_exact(A, k, DIFFERENCE, cap=exact_cap)
            verdict = "holds" if measured <= bound else "violated"
    return BoundReport("sumset-sidon-upper",
                       {"B_size": nb, "C_size": nc, "k": k, "sigma": sigma},
                       bound, measured, verdict, details)


def diffset_bounds(A: GroundSet, k: int, exact_cap: int = 0) -> BoundReport:
    """Bounds on bounded-multiplicity subsets of D = A-A and S = A+A.

    Evaluates the sqrt(k)|A|^(3/2)-type cover bound and the sigma-version
    with sigma = |A| (using B = C = D for D, and B = D, C = S for S), and
    verifies the supporting facts r_{D-D}(d) >= |A| for every d in D and
    r_{D+S}(s) >= |A| for every s in S, exactly.
    """
    if len(A) < 1:
        raise ValueError("A must be nonempty")
    if k < 1:
        raise ValueError("k must be >= 1")
    n = len(A)
    D = set_compose(A, A, DIFFERENCE)
    S = set_compose(A, A, SUM)
    hdd = rep_histogram(D, D, DIFFERENCE)
    hds = rep_histogram(D, S, SUM)
    diff_fact = int(hdd.counts(D.elements).min())
    sum_fact = int(hds.counts(S.elements).min())
    cover = sumset_sidon_upper(A, A, k).bound
    sigma_d = sumset_sidon_upper(D, D, k, sigma=n).bound
    sigma_s = sumset_sidon_upper(D, S, k, sigma=n).bound
    details = {
        "D_size": len(D),
        "S_size": len(S),
        "diff_fact_min": diff_fact,
        "sum_fact_min": sum_fact,
        "facts_hold": diff_fact >= n and sum_fact >= n,
        "bound_cover": float(cover),
        "bound_sigma_diffset": float(sigma_d),
        "bound_sigma_sumset": float(sigma_s),
    }
    measured = None
    verdict = "holds" if details["facts_hold"] else "violated"
    if exact_cap and len(D) <= exact_cap:
        measured, _ = sid_k_exact(D, k, DIFFERENCE, cap=exact_cap)
        if measured > min(cover, sigma_d):
            verdict = "violated"
        details["measured_diffset"] = measured
    return BoundReport("diffset-sidon-upper", {"A_size": n, "k": k},
                       min(cover, sigma_d), measured, verdict, details)


def bfamily_size_upper(N: int, k: int, g: int, setting: str) -> BoundReport:
    """Size bound for a set with all g-fold shift intersections below k,
    inside a group of order N or inside the segment [0, N-1]."""
    if N < 2:
        raise ValueError("N must be >= 2")
    BFamilyParams(k, g)  # validates (k, g)
    if setting not in ("finite-group", "segment"):
        raise ValueError("setting must be 'finite-group' or 'segment'")
    pairs = math.comb(g + 1, 2)
    if k == 2:
        if setting == "finite-group":
            bound = sqrt_upper(g * N) + 1
            formula = "sqrt(gN) + 1"
        else:
            bound = sqrt_upper(g * N) + root_upper(g * N, 4) + 1
            formula = "sqrt(gN) + (gN)^(1/4) + 1"
    else:
        main = root_upper(k * N**g, g + 1)
        if setting == "finite-group":
            bound = main + pairs
            formula = "(k N^g)^(1/(g+1)) + C(g+1,2)"
        else:
            second = root_upper(pairs ** (g + 1) * k**g * N ** (g * g), (g + 1) ** 2)
            bound = main + second + 1
            formula = "(k N^g)^(1/(g+1)) + (C(g+1,2)^(g+1) k^g N^(g^2))^(1/(g+1)^2) + 1"
    return BoundReport("bfamily-size-upper",
                       {"N": N, "k": k, "g": g, "setting": setting},
                       bound, details={"formula": formula})


def co_sidon_check(X: GroundSet, Y: GroundSet) -> bool:
    """True iff every sum x + y is distinct, i.e. |X + Y| = |X||Y|."""
    return len(set_compose(X, Y, SUM)) == len(X) * len(Y)


# ---------------------------------------------------------------------------
# Heritability

def heritability_slice(S: GroundSet, shift_sets: list[GroundSet], k: int, g: int) -> BoundReport:
    """Exhaustively verifies that the slice sets S_{X_i} = ^_{x in X_i}(S+x)
    keep all their own shifted intersections below k, for every tuple of
    pairwise-distinct nonzero offsets within the finite support window.

    Hypotheses checked first: every X_i nonempty, S in the (k, g) family,
    sum of |X_i| at least g + C(l,2) + 1, and every pair (X_i, X_j) a
    co-Sidon pair.
    """
    l = len(shift_sets)
    if l < 2:
        raise PreconditionFailed("need at least two shift sets")
    if not all(shift_sets):
        raise PreconditionFailed("every shift set X_i must be nonempty")
    if verify_bfamily(S, BFamilyParams(k, g)) is not None:
        raise PreconditionFailed(f"S is not in the ({k}, {g}) intersection family")
    total = sum(len(X) for X in shift_sets)
    need = g + math.comb(l, 2) + 1
    if total < need:
        raise PreconditionFailed(f"sum of |X_i| = {total} < g + C(l,2) + 1 = {need}")
    for i in range(l):
        for j in range(i + 1, l):
            if not co_sidon_check(shift_sets[i], shift_sets[j]):
                raise PreconditionFailed(f"(X_{i + 1}, X_{j + 1}) is not a co-Sidon pair")
    amb = S.ambient
    slices = [translate_intersection(S, X.elements) for X in shift_sets]
    base = slices[0]
    offset_ranges = []
    for T in slices[1:]:
        opts = unique_codes(pair_codes(amb, DIFFERENCE, base.elements, T.elements)[0])
        offset_ranges.append(decode(amb, DIFFERENCE, opts[opts != 0]))  # code 0 is zero
    count = 1
    for opts in offset_ranges:
        count *= max(1, len(opts))
    if count > TUPLE_CAP:
        raise CapExceeded(f"{count} offset tuples exceed the cap {TUPLE_CAP}")
    violations = []
    checked = 0
    for combo in itertools.product(*offset_ranges):
        if len(set(combo)) < len(combo):
            continue  # the offsets must be pairwise distinct
        checked += 1
        common = [y for y in base
                  if all(compose_value(amb, DIFFERENCE, y, z) in slices[i + 1].members
                         for i, z in enumerate(combo))]
        if len(common) >= k:
            violations.append({"offsets": list(combo), "common_size": len(common)})
    verdict = "holds" if not violations else "violated"
    measured = max(v["common_size"] for v in violations) if violations else None
    return BoundReport("heritability-slices",
                       {"k": k, "g": g, "shift_sizes": [len(X) for X in shift_sets]},
                       Fraction(k), measured, verdict,
                       {"tuples_checked": checked,
                        "slice_sizes": [len(T) for T in slices],
                        "violations": violations[:10]})


def _has_two_torsion(S: GroundSet) -> bool:
    amb = S.ambient
    if amb.kind == INTEGERS:
        return False
    if amb.kind in (MOD_N, PRIME_FIELD):
        return amb.modulus % 2 == 0
    return amb.modulus == 2  # plane over F_2


def sidon_slice_audit(S: GroundSet) -> BoundReport:
    """For a set with all nonzero difference multiplicities <= 2 in an
    ambient without 2-torsion, every slice S ^ (S+w), w != 0, must be a
    Sidon set; verified exhaustively over the difference support."""
    if verify_multiplicity(S, 2, DIFFERENCE) is not None:
        raise PreconditionFailed("S has a nonzero difference with multiplicity > 2")
    if _has_two_torsion(S):
        raise PreconditionFailed("ambient has elements of order two")
    amb = S.ambient
    zero = amb.identity(DIFFERENCE)
    hist = difference_histogram(S)
    violations = []
    slices = 0
    max_slice = 0
    for w in hist.values():
        if w == zero:
            continue
        slice_w = translate_intersection(S, (zero, w))
        slices += 1
        max_slice = max(max_slice, len(slice_w))
        if verify_multiplicity(slice_w, 1, DIFFERENCE) is not None:
            violations.append(w)
    verdict = "holds" if not violations else "violated"
    return BoundReport("sidon-slices", {"S_size": len(S)}, Fraction(1),
                       None, verdict,
                       {"slices_checked": slices, "max_slice_size": max_slice,
                        "violating_shifts": violations[:10]})


# ---------------------------------------------------------------------------
# Iterated-sumset growth audit

def plunnecke_audit(A: GroundSet, n: int, m: int) -> BoundReport:
    """Checks |nA - mA| <= (|A+A|/|A|)^(n+m) |A| exactly.  The inequality
    is a theorem for abelian groups, so a 'violated' verdict flags an
    implementation bug, not a mathematical discovery."""
    if n < 0 or m < 0 or n + m < 1:
        raise ValueError("need n, m >= 0 with n + m >= 1")
    if len(A) == 0:
        raise ValueError("A must be nonempty")
    amb = A.ambient
    zero = amb.identity(DIFFERENCE)
    identity_set = GroundSet.from_iterable(amb, [zero])

    def iterate(times: int) -> GroundSet:
        acc = identity_set
        for _ in range(times):
            acc = set_compose(acc, A, SUM)
            if len(acc) > SUMSET_CAP:
                raise CapExceeded(f"iterated sumset exceeds {SUMSET_CAP} elements")
        return acc

    left = set_compose(iterate(n), iterate(m), DIFFERENCE)
    doubling = Fraction(len(set_compose(A, A, SUM)), len(A))
    rhs = doubling ** (n + m) * len(A)
    verdict = "holds" if len(left) <= rhs else "violated"
    return BoundReport("iterated-sumset-growth", {"A_size": len(A), "n": n, "m": m},
                       rhs, len(left), verdict,
                       {"doubling": float(doubling), "lhs": len(left)})
