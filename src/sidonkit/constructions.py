"""Explicit extremal set constructions with measured statistics.

Each builder returns a ConstructionReport carrying the output set, the
claimed property in plain words, and statistics that are recomputable
from the serialized output alone.  A construction whose measured behavior
deviates from the headline claim on a known fringe (the short-range
multiplicities of the dilated-base family) is flagged anomalous rather
than failed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from .ambient import (
    DIFFERENCE,
    ELEMENT_MAX,
    PRODUCT,
    RATIO,
    SUM,
    AmbientSpec,
    is_prime,
)
from .bounds import bfamily_size_upper, sqrt_upper, sumset_sidon_upper
from .counting import difference_histogram, rep_histogram
from .errors import BadOrder, BadShift, OverflowBudgetExceeded, UnsupportedMode
from .groundset import GroundSet, affine_image, integer_set, set_compose
from .sidon import verify_multiplicity


@dataclass(frozen=True)
class ConstructionReport:
    name: str
    parameters: dict
    output: GroundSet
    claim: str
    stats: dict
    status: str                      # "pass" | "anomalous" | "fail"
    extra_sets: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "parameters": self.parameters,
            "claim": self.claim,
            "stats": _jsonable_stats(self.stats),
            "status": self.status,
            "output_size": len(self.output),
            "output": self.output.to_dict(),
            "extra_sets": {k: v.to_dict() for k, v in self.extra_sets.items()},
        }


def _jsonable_stats(stats: dict) -> dict:
    out = {}
    for k, v in stats.items():
        if isinstance(v, Fraction):
            out[k] = {"exact": str(v), "float": float(v)}
        elif isinstance(v, tuple):
            out[k] = list(v)
        else:
            out[k] = v
    return out


# Greedy-minimal Sidon prefix used when no quadratic-residue base fits.
_SMALL_SIDON = (0, 1, 3, 7, 12, 20, 30, 44, 65, 80, 96, 122,
                147, 181, 203, 251, 289, 360, 400, 474)


def _largest_base_prime(N: int) -> int | None:
    import math
    p = math.isqrt(N // 2)
    while p >= 3:
        if is_prime(p) and 2 * p * p <= N:
            return p
        p -= 1
    return None


def sidon_base(N: int) -> GroundSet:
    """A Sidon set inside [0, N]: the quadratic-residue construction
    {2 p i + (i^2 mod p) : 0 <= i < p} for the largest prime p with
    2 p^2 <= N, falling back to a hardcoded greedy prefix for small N."""
    if N < 4:
        raise ValueError("N must be >= 4")
    p = _largest_base_prime(N)
    if p is None:
        elems = [x for x in _SMALL_SIDON if x <= N][:4]
        return integer_set(elems, label=f"sidon-base(N={N})")
    elems = [2 * p * i + (i * i) % p for i in range(p)]
    return integer_set(elems, label=f"sidon-base(N={N}, p={p})")


def linstrom_like(g: int, N: int, base: GroundSet | None = None) -> ConstructionReport:
    """S = g*A + {0..g-1} for a Sidon base A in [0, (N-g)/g].

    Away from the short range (|x| >= g) every difference multiplicity is
    at most g; inside |x| < g the aligned copies of A overlap and the
    multiplicity jumps to about |A|(g - |x|), which the report flags as
    anomalous instead of failing."""
    if g < 1:
        raise ValueError("g must be >= 1")
    if N < 4 * g:
        raise ValueError("need N >= 4g")
    base_supplied = base is not None
    if base is None:
        base = sidon_base((N - g) // g)
    if base.ambient.kind != "integers":
        raise UnsupportedMode("dilated-base construction runs over the integers")
    offsets = integer_set(range(g))
    S = set_compose(affine_image(base, g, 0), offsets, SUM)
    hist = difference_histogram(S)
    overall = hist.max_count(exclude_values=(0,))
    overall_max = overall[1] if overall else 0
    far_max = 0
    for v, c in hist.iter_items():
        if abs(v) >= g and c > far_max:
            far_max = c
    stats = {
        "base_size": len(base),
        "size": len(S),
        "size_equals_g_base": len(S) == g * len(base),
        "max_multiplicity_overall": overall_max,
        "max_multiplicity_far": far_max,
        "far_bound_holds": far_max <= g,
        "segment_bound": bfamily_size_upper(N, 2, g, "segment").bound,
    }
    if not stats["size_equals_g_base"] or not stats["far_bound_holds"]:
        status = "fail"
    elif overall_max > g:
        status = "anomalous"
    else:
        status = "pass"
    claim = (f"differences with |x| >= {g} have multiplicity <= {g}; "
             f"short-range multiplicities are reported, not asserted")
    return ConstructionReport(
        "linstrom-like", {"g": g, "N": N, "base_supplied": base_supplied},
        S.with_label(f"linstrom-like(g={g}, N={N})"), claim, stats, status,
        extra_sets={"base": base})


def geometric_sumproduct_example(base: int, n: int, k: int = 1) -> ConstructionReport:
    """A = G + H*G for the geometric progression G = {1, base, ..., base^n}
    and the spread family H = {base^(i(n+1)) : 1 <= i <= n}.  All sums are
    distinct, so |A| = n (n+1)^2, while A is multiplicatively covered by
    G * (1 + H * Gbar) with Gbar running over exponents -n..n; both the
    additive and the multiplicative bounded-multiplicity subset bounds are
    therefore of order |A|^(2/3)."""
    if base < 2 or n < 1:
        raise ValueError("need base >= 2 and n >= 1")
    if base ** (n * (n + 1) + n) > ELEMENT_MAX:
        raise OverflowBudgetExceeded("base^(n(n+1)+n) exceeds the element budget")
    gamma = integer_set((base**j for j in range(n + 1)), label="gamma")
    H = integer_set((base ** (i * (n + 1)) for i in range(1, n + 1)), label="H")
    C = set_compose(H, gamma, PRODUCT)
    A = set_compose(gamma, C, SUM).with_label(f"geometric(base={base}, n={n})")
    gbar = [Fraction(base) ** j for j in range(-n, n + 1)]
    hgbar = sorted({int(h * f) for h in H for f in gbar})  # exponents are >= 1
    cover_right = integer_set((1 + v for v in hgbar), label="1+H*gbar")
    cover = set_compose(gamma, cover_right, PRODUCT)
    cover_holds = A.members <= cover.members
    ratio_hist = rep_histogram(A, A, RATIO)
    ratio_max = ratio_hist.max_count(exclude_values=(1,))
    add_bound = sumset_sidon_upper(gamma, C, k)
    mult_bound = sumset_sidon_upper(gamma, cover_right, k)
    expected = n * (n + 1) ** 2
    stats = {
        "size": len(A),
        "expected_size": expected,
        "size_exact": len(A) == expected,
        "gamma_size_cubed": (n + 1) ** 3,  # the asymptotic |gamma|^3 figure
        "gamma_size": len(gamma),
        "H_size": len(H),
        "C_size": len(C),
        "cover_holds": cover_holds,
        "cover_factor_size": len(cover_right),
        "k": k,
        "additive_subset_bound": add_bound.bound,
        "multiplicative_subset_bound": mult_bound.bound,
        "max_ratio_multiplicity": ratio_max[1] if ratio_max else 0,
    }
    status = "pass" if stats["size_exact"] and cover_holds else "fail"
    claim = (f"|A| = n(n+1)^2 exactly and A is covered multiplicatively, so "
             f"bounded-multiplicity subsets have size O(|A|^(2/3))")
    return ConstructionReport(
        "geometric-sumproduct", {"base": base, "n": n, "k": k}, A, claim, stats, status,
        extra_sets={"gamma": gamma, "H": H, "C": C, "cover_factor": cover_right})


def hyperbola_family(p: int, k: int, t: int | None = None) -> ConstructionReport:
    """Union of the k parabolas {(x, x^2/u)} over u in the progression
    t + {1..k} inside F_p x F_p.  The parabolas meet pairwise only at the
    origin, so the union has exactly kp - k + 1 points, and for a good
    shift t the nonzero difference multiplicities stay near k^2.

    With t None every admissible shift is scanned and the minimizer (ties
    to the smallest t) is returned."""
    amb = AmbientSpec.plane(p)
    if not 1 <= k < p:
        raise ValueError("need 1 <= k < p")

    def parabolas(shift: int) -> list[set]:
        us = [(shift + j) % p for j in range(1, k + 1)]
        if any(u == 0 for u in us):
            raise BadShift(f"shift {shift} makes some u = 0 mod {p}")
        invs = [pow(u, -1, p) for u in us]
        return [{(x, x * x * inv % p) for x in range(p)} for inv in invs]

    def union_and_max_mult(curves: list[set]) -> tuple[GroundSet, int]:
        S = GroundSet.from_iterable(amb, (pt for curve in curves for pt in curve))
        worst = difference_histogram(S).max_count(exclude_values=((0, 0),))
        return S, worst[1] if worst else 0

    searched = t is None
    if searched:
        best = None
        for cand in range(p):
            if any((cand + j) % p == 0 for j in range(1, k + 1)):
                continue
            curves = parabolas(cand)
            S, m = union_and_max_mult(curves)
            if best is None or m < best[1]:
                best = (cand, m, curves, S)
        t, m, curves, A = best
    else:
        curves = parabolas(t)
        A, m = union_and_max_mult(curves)
    pairwise_ok = all(curves[i] & curves[j] == {(0, 0)}
                      for i in range(k) for j in range(i + 1, k))
    threshold = k * k + 5 * k * sqrt_upper(k)
    stats = {
        "size": len(A),
        "expected_size": k * p - k + 1,
        "size_exact": len(A) == k * p - k + 1,
        "pairwise_intersections_trivial": pairwise_ok,
        "max_multiplicity": m,
        "threshold": threshold,
        "within_threshold": m <= threshold,
        "t": t,
        "searched": searched,
    }
    status = "pass" if stats["size_exact"] and pairwise_ok and m <= threshold else "fail"
    claim = "k parabolas meeting only at the origin: kp-k+1 points with nonzero difference multiplicities near k^2"
    return ConstructionReport(
        "hyperbola-family", {"p": p, "k": k, "t": t, "searched": searched},
        A.with_label(f"hyperbola(p={p}, k={k}, t={t})"), claim, stats, status)


def _factor(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _primitive_root(p: int) -> int:
    qs = _factor(p - 1)
    for g in range(2, p):
        if all(pow(g, (p - 1) // q, p) != 1 for q in qs):
            return g
    raise BadOrder(f"no primitive root found for {p}")  # unreachable for primes


def fp_mult_example(p: int, gamma_order: int, seed: int = 0, k: int = 1) -> ConstructionReport:
    """A = G + H*G in F_p for the multiplicative subgroup G of the given
    order and |G| seeded random coset representatives H.  As sets,
    G + H*G = G * (1 + G*H), which is checked elementwise, and bounded-
    multiplicity subsets of A have size at most about 2 sqrt(k) |G|^2."""
    amb = AmbientSpec.prime_field(p)
    d = gamma_order
    if d < 1 or (p - 1) % d != 0:
        raise BadOrder(f"gamma_order {d} does not divide p - 1 = {p - 1}")
    if d * d > p - 1:
        raise BadOrder(f"gamma_order^2 = {d * d} exceeds p - 1; too few cosets")
    g0 = _primitive_root(p)
    gen = pow(g0, (p - 1) // d, p)
    gamma_elems = sorted({pow(gen, i, p) for i in range(d)})
    gamma = GroundSet.from_iterable(amb, gamma_elems, label="gamma")
    rng = random.Random(f"fpmult:{seed}")
    pool = list(range(1, p))
    rng.shuffle(pool)
    reps = []
    seen_cosets = set()
    for x in pool:
        coset = min(x * g % p for g in gamma_elems)
        if coset not in seen_cosets:
            seen_cosets.add(coset)
            reps.append(x)
            if len(reps) == d:
                break
    H = GroundSet.from_iterable(amb, reps, label="H")
    HG = set_compose(H, gamma, PRODUCT)
    A = set_compose(gamma, HG, SUM).with_label(f"fpmult(p={p}, order={d}, seed={seed})")
    one_plus = GroundSet.from_iterable(
        amb, ((1 + v) % p for v in set_compose(gamma, H, PRODUCT)))
    identity_rhs = set_compose(gamma, one_plus, PRODUCT)
    identity_holds = A.members == identity_rhs.members
    bound = 2 * sqrt_upper(k) * d * d
    exact_min = sumset_sidon_upper(gamma, HG, k)
    stats = {
        "gamma_size": len(gamma),
        "H_size": len(H),
        "HG_size": len(HG),
        "HG_direct": len(HG) == d * d,
        "size": len(A),
        "identity_holds": identity_holds,
        "k": k,
        "bound_2sqrtk_gamma_sq": bound,
        "bound_min_formula": exact_min.bound,
    }
    status = "pass" if identity_holds and stats["HG_direct"] else "fail"
    claim = "subgroup sum-product example: G + H*G factors as G(1 + GH)"
    return ConstructionReport(
        "fp-mult", {"p": p, "gamma_order": d, "seed": seed, "k": k},
        A, claim, stats, status, extra_sets={"gamma": gamma, "H": H, "HG": HG})


def reverify(report: ConstructionReport) -> ConstructionReport:
    """Recompute a report's verifiable statistics from its output set;
    used by the audit harness to confirm idempotence."""
    S = report.output
    hist = difference_histogram(S)
    zero = S.ambient.identity(DIFFERENCE)
    worst = hist.max_count(exclude_values=(zero,))
    stats = dict(report.stats)
    stats["recheck_size"] = len(S)
    stats["recheck_max_multiplicity"] = worst[1] if worst else 0
    stats["recheck_is_sidon"] = verify_multiplicity(S, 1, DIFFERENCE) is None
    return ConstructionReport(report.name, report.parameters, S, report.claim,
                              stats, report.status, report.extra_sets)
