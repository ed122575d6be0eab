"""Sidon-type verification and subset extraction.

Covers multiplicity verification (r_{S-S}(x) <= g off the identity), the
k-fold intersection family |S ^ (S+x_1) ^ ... ^ (S+x_g)| < k, exact and
greedy maximum-subset search under a multiplicity budget, the seeded
random extraction with certified bounds 3k-3 (differences) / 2k-2 (sums
and products), and the dense-core refinement that preserves a guaranteed
fraction of the (g+1)-energy.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass

from .ambient import (
    DIFFERENCE,
    INTEGERS,
    PRODUCT,
    SUM,
    AmbientSpec,
    compose_value,
    negate,
    value_sort_key,
)
from .counting import (
    difference_histogram,
    energy_k,
    max_disjoint_pairs,
    rep_histogram,
    reuses_histograms,
)
from .errors import CapExceeded, UnsupportedMode, VerificationFailed
from .groundset import GroundSet


@dataclass(frozen=True)
class BFamilyParams:
    """Intersection threshold k >= 2 and shift count g >= 1; (2, 1) is the
    classical Sidon case."""

    k: int
    g: int

    def __post_init__(self):
        if self.k < 2:
            raise ValueError("k must be >= 2")
        if self.g < 1:
            raise ValueError("g must be >= 1")


@dataclass(frozen=True)
class ViolationWitness:
    """Either a single over-popular value (multiplicity form) or g distinct
    nonzero shifts with k common elements (intersection form); re-checking
    against the set reproduces the violation."""

    kind: str                    # "multiplicity" | "intersection"
    mode: str = DIFFERENCE
    value: object = None         # multiplicity form
    count: int | None = None
    bound: int | None = None
    shifts: tuple = ()           # intersection form
    elements: tuple = ()
    k: int | None = None

    def verify_against(self, S: GroundSet) -> bool:
        if self.kind == "multiplicity":
            hist = rep_histogram(S, S, self.mode)
            return hist.count(self.value) == self.count and self.count > self.bound
        amb = S.ambient
        zero = amb.identity(DIFFERENCE)
        if len(set(self.shifts)) != len(self.shifts) or zero in self.shifts:
            return False
        if len(self.elements) < self.k:
            return False
        for w in self.elements:
            if w not in S.members:
                return False
            for x in self.shifts:
                if compose_value(amb, DIFFERENCE, w, x) not in S.members:
                    return False
        return True

    def to_dict(self) -> dict:
        d = {"kind": self.kind, "mode": self.mode}
        if self.kind == "multiplicity":
            d.update({"value": _jsonable(self.value), "count": self.count, "bound": self.bound})
        else:
            d.update({
                "shifts": [_jsonable(x) for x in self.shifts],
                "elements": [_jsonable(x) for x in self.elements],
                "k": self.k,
            })
        return d


def _jsonable(v):
    return list(v) if isinstance(v, tuple) else v


def verify_multiplicity(S: GroundSet, g: int, mode: str = DIFFERENCE,
                        exempt_identity: bool = True):
    """None iff every non-identity value has multiplicity <= g; otherwise a
    witness carrying the maximal count.  The identity (0 for differences,
    1 for product/ratio) is exempt unless the flag is cleared; sums exempt
    nothing."""
    if g < 1:
        raise ValueError("g must be >= 1")
    hist = rep_histogram(S, S, mode)
    exclude = ()
    if exempt_identity:
        ident = S.ambient.identity(mode)
        if ident is not None:
            exclude = (ident,)
    worst = hist.max_count(exclude_values=exclude)
    if worst is None or worst[1] <= g:
        return None
    return ViolationWitness(kind="multiplicity", mode=mode,
                            value=worst[0], count=worst[1], bound=g)


def verify_bfamily(S: GroundSet, params: BFamilyParams, cap: int = 2_000_000):
    """None iff |S ^ (S+x_1) ^ ... ^ (S+x_g)| < k for all distinct nonzero
    shifts.

    Enumerates k-subsets Y of S and the translate sets T(Y) = {t : Y+t in S};
    |T(Y)| >= g+1 yields g distinct nonzero shifts whose intersection
    contains a translate of Y, and conversely any violation arises this way.
    """
    k, g = params.k, params.g
    if len(S) < k:
        return None
    import math as _math
    if _math.comb(len(S), k) > cap:
        raise CapExceeded(f"C({len(S)}, {k}) exceeds the enumeration cap {cap}")
    amb = S.ambient
    members = S.members
    for Y in itertools.combinations(S.elements, k):
        translates = None
        for y in Y:
            shifts_y = {compose_value(amb, DIFFERENCE, s, y) for s in members}
            translates = shifts_y if translates is None else translates & shifts_y
            if len(translates) <= g:
                break
        if translates is not None and len(translates) >= g + 1:
            zero = amb.identity(DIFFERENCE)
            others = sorted((t for t in translates if t != zero),
                            key=value_sort_key)[:g]
            shifts = tuple(negate(amb, t) for t in others)
            return ViolationWitness(kind="intersection", mode=DIFFERENCE,
                                    shifts=shifts, elements=Y, k=k)
    return None


_sort_key = value_sort_key


# ---------------------------------------------------------------------------
# Multiplicity bookkeeping shared by search and extraction

def _insertion_deltas(amb: AmbientSpec, mode: str, a, chosen) -> dict:
    """Value -> count increase caused by inserting a next to `chosen`."""
    delta: dict = {}
    if mode == DIFFERENCE:
        for b in chosen:
            for v in (compose_value(amb, DIFFERENCE, a, b),
                      compose_value(amb, DIFFERENCE, b, a)):
                delta[v] = delta.get(v, 0) + 1
    else:
        for b in chosen:
            v = compose_value(amb, mode, a, b)
            delta[v] = delta.get(v, 0) + 2
        v = compose_value(amb, mode, a, a)
        delta[v] = delta.get(v, 0) + 1
        if mode == PRODUCT:
            delta.pop(1, None)  # multiplicative identity is exempt
    return delta


def sid_k_greedy(A: GroundSet, k: int, mode: str = DIFFERENCE,
                 seed: int | None = 0) -> GroundSet:
    """Maximal-by-inclusion subset with every non-identity multiplicity
    <= k, built by one randomized-order insertion pass (canonical order
    when seed is None)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    order = list(A.elements)
    if seed is not None:
        random.Random(seed).shuffle(order)
    amb = A.ambient
    chosen: list = []
    counts: dict = {}
    for a in order:
        delta = _insertion_deltas(amb, mode, a, chosen)
        if all(counts.get(v, 0) + dv <= k for v, dv in delta.items()):
            for v, dv in delta.items():
                counts[v] = counts.get(v, 0) + dv
            chosen.append(a)
    return GroundSet.from_iterable(amb, chosen)


def _pair_capacity(span: int, k: int) -> int:
    """Unordered-pair capacity of an integer window of the given span under
    a per-difference budget k: sum over x = 1..span of min(k, span+1-x),
    by double counting (difference x fits at most span+1-x times)."""
    if span <= 0:
        return 0
    if span < k:
        return span * (span + 1) // 2
    return k * (span - k + 1) + k * (k - 1) // 2


def _capacity_room(c: int, remaining_budget: int) -> int:
    """Largest t with C(t,2) + c*t <= remaining_budget."""
    if remaining_budget < 0:
        return 0
    b = 2 * c - 1
    t = (math.isqrt(b * b + 8 * remaining_budget) - b) // 2
    while t * (t - 1) // 2 + c * t > remaining_budget:
        t -= 1
    return t


def _sid_exact_integer_difference(A: GroundSet, k: int,
                                  warm: list) -> tuple[int, list]:
    """Branch and bound specialized to integer sets in difference mode:
    positive-difference counts live in a flat array, and a window-capacity
    bound (chosen pairs + cross pairs + future pairs cannot exceed the
    double-counting capacity of the remaining span) prunes suffixes.

    When the candidate set is mirror-symmetric, reflection preserves
    feasibility and size, so the search may assume min + max <= lo + hi of
    the whole set, which caps the window once the first element is fixed.
    The jitted kernel and the pure fallback traverse in the same order and
    return identical witnesses.
    """
    import bisect

    elems = list(A.elements)
    n = len(elems)
    lo0, hi0 = elems[0], elems[-1]
    member_set = set(elems)
    symmetric = all(lo0 + hi0 - x in member_set for x in elems)
    kernel = _jitted_search_kernel()
    if kernel is not None:
        import numpy as np
        arr = np.fromiter(elems, dtype=np.int64, count=n)
        best_size, best_arr = kernel(arr, k, symmetric, len(warm))
        if best_size <= len(warm):
            return len(warm), list(warm)
        return int(best_size), [int(x) for x in best_arr[:best_size]]
    counts = [0] * (hi0 - lo0 + 1)
    best = [len(warm), list(warm)]
    chosen: list = []

    def dfs(i: int, limit: int, eff_last: int) -> None:
        if i >= limit:
            return
        c = len(chosen)
        lo = chosen[0] if chosen else elems[i]
        budget = _pair_capacity(eff_last - lo, k) - c * (c - 1) // 2
        room = _capacity_room(c, budget)
        if limit - i < room:
            room = limit - i
        if c + room <= best[0]:
            return
        a = elems[i]
        ok = True
        for b in chosen:
            if counts[a - b] >= k:
                ok = False
                break
        if ok:
            if c == 0 and symmetric:
                new_limit = bisect.bisect_right(elems, lo0 + hi0 - a)
                new_eff_last = elems[new_limit - 1] if new_limit else a
            else:
                new_limit, new_eff_last = limit, eff_last
            for b in chosen:
                counts[a - b] += 1
            chosen.append(a)
            if len(chosen) > best[0]:
                best[0] = len(chosen)
                best[1] = list(chosen)
            dfs(i + 1, new_limit, new_eff_last)
            chosen.pop()
            for b in chosen:
                counts[a - b] -= 1
        dfs(i + 1, limit, eff_last)

    dfs(0, n, hi0)
    return best[0], best[1]


_JIT_KERNEL = None
_JIT_TRIED = False


def _jitted_search_kernel():
    """Compile (once) the stack-based search kernel; None when numba is
    unavailable, in which case the pure traversal runs instead."""
    global _JIT_KERNEL, _JIT_TRIED
    if _JIT_TRIED:
        return _JIT_KERNEL
    _JIT_TRIED = True
    try:
        import numpy as np
        from numba import njit
    except ImportError:
        return None

    @njit(cache=True)
    def kernel(elems, k, symmetric, warm_size):
        n = elems.shape[0]
        lo0 = elems[0]
        hi0 = elems[n - 1]
        counts = np.zeros(hi0 - lo0 + 1, dtype=np.int64)
        chosen = np.zeros(n + 1, dtype=np.int64)
        best = warm_size
        best_set = np.zeros(n + 1, dtype=np.int64)
        depth = 2 * n + 8
        stack_i = np.zeros(depth, dtype=np.int64)
        stack_limit = np.zeros(depth, dtype=np.int64)
        stack_last = np.zeros(depth, dtype=np.int64)
        stack_phase = np.zeros(depth, dtype=np.int64)
        stack_a = np.zeros(depth, dtype=np.int64)
        top = 0
        stack_i[0] = 0
        stack_limit[0] = n
        stack_last[0] = hi0
        stack_phase[0] = 0
        c = 0
        while top >= 0:
            i = stack_i[top]
            limit = stack_limit[top]
            eff_last = stack_last[top]
            phase = stack_phase[top]
            if phase == 1:
                a = stack_a[top]
                c -= 1
                for j in range(c):
                    counts[a - chosen[j]] -= 1
                stack_phase[top] = 2
                top += 1
                stack_i[top] = i + 1
                stack_limit[top] = limit
                stack_last[top] = eff_last
                stack_phase[top] = 0
                continue
            if phase == 2:
                top -= 1
                continue
            if i >= limit or c + (limit - i) <= best:
                top -= 1
                continue
            lo = chosen[0] if c > 0 else elems[i]
            span = eff_last - lo
            if span < k:
                capacity = span * (span + 1) // 2
            else:
                capacity = k * (span - k + 1) + k * (k - 1) // 2
            budget = capacity - c * (c - 1) // 2
            if budget < 0:
                top -= 1
                continue
            b2 = 2 * c - 1
            t = (np.int64(np.sqrt(float(b2 * b2 + 8 * budget))) - b2) // 2 + 2
            while t * (t - 1) // 2 + c * t > budget:
                t -= 1
            while (t + 1) * t // 2 + c * (t + 1) <= budget:
                t += 1
            room = t if t < limit - i else limit - i
            if c + room <= best:
                top -= 1
                continue
            a = elems[i]
            ok = True
            for j in range(c):
                if counts[a - chosen[j]] >= k:
                    ok = False
                    break
            if ok:
                new_limit = limit
                new_last = eff_last
                if c == 0 and symmetric:
                    capv = lo0 + hi0 - a
                    nl = 0
                    for j in range(n):
                        if elems[j] <= capv:
                            nl = j + 1
                        else:
                            break
                    new_limit = nl
                    if nl > 0:
                        new_last = elems[nl - 1]
                for j in range(c):
                    counts[a - chosen[j]] += 1
                chosen[c] = a
                c += 1
                if c > best:
                    best = c
                    for j in range(c):
                        best_set[j] = chosen[j]
                stack_phase[top] = 1
                stack_a[top] = a
                top += 1
                stack_i[top] = i + 1
                stack_limit[top] = new_limit
                stack_last[top] = new_last
                stack_phase[top] = 0
            else:
                stack_phase[top] = 2
                top += 1
                stack_i[top] = i + 1
                stack_limit[top] = limit
                stack_last[top] = eff_last
                stack_phase[top] = 0
        return best, best_set

    _JIT_KERNEL = kernel
    return _JIT_KERNEL


def sid_k_exact(A: GroundSet, k: int, mode: str = DIFFERENCE,
                cap: int = 40) -> tuple[int, GroundSet]:
    """Exact maximum subset size under the multiplicity budget, plus one
    witness, by depth-first branch and bound over the canonical inclusion
    order.  Pruning: the multiplicity budget, the remaining-candidates
    cutoff, and (integer difference mode) an elementary double-counting
    capacity bound on the remaining window; warm-started from the
    deterministic greedy pass."""
    if len(A) > cap:
        raise CapExceeded(f"|A| = {len(A)} exceeds the search cap {cap}")
    if k < 1:
        raise ValueError("k must be >= 1")
    amb = A.ambient
    elems = list(A.elements)
    n = len(elems)
    warm = sid_k_greedy(A, k, mode, seed=None)
    best = [len(warm), list(warm.elements)]
    # flat difference-count arrays only pay off on moderate spans
    if (n and mode == DIFFERENCE and amb.kind == INTEGERS
            and elems[-1] - elems[0] < 10**7):
        size, members = _sid_exact_integer_difference(A, k, best[1])
        return size, GroundSet.from_iterable(amb, members)
    chosen: list = []
    counts: dict = {}

    def dfs(i: int) -> None:
        if len(chosen) + (n - i) <= best[0]:
            return
        a = elems[i]
        delta = _insertion_deltas(amb, mode, a, chosen)
        if all(counts.get(v, 0) + dv <= k for v, dv in delta.items()):
            for v, dv in delta.items():
                counts[v] = counts.get(v, 0) + dv
            chosen.append(a)
            if len(chosen) > best[0]:
                best[0] = len(chosen)
                best[1] = list(chosen)
            if i + 1 < n:
                dfs(i + 1)
            chosen.pop()
            for v, dv in delta.items():
                counts[v] -= dv
                if counts[v] == 0:
                    del counts[v]
        if i + 1 < n:
            dfs(i + 1)

    if n:
        dfs(0)
    return best[0], GroundSet.from_iterable(amb, best[1])


# ---------------------------------------------------------------------------
# Random extraction

@dataclass(frozen=True)
class ExtractionResult:
    subset: GroundSet
    mode: str
    k: int
    bound: int
    q: float
    seed: int
    trials: int
    deletions: int
    verified: bool
    trial_sizes: tuple = ()
    best_trial: int | None = None
    energy: int | None = None

    def to_dict(self) -> dict:
        return {
            "subset": self.subset.to_dict(),
            "subset_size": len(self.subset),
            "mode": self.mode,
            "k": self.k,
            "bound": self.bound,
            "q": self.q,
            "seed": self.seed,
            "trials": self.trials,
            "deletions": self.deletions,
            "verified": self.verified,
            "trial_sizes": list(self.trial_sizes),
            "best_trial": self.best_trial,
            "energy": self.energy,
        }


def certified_bound(k: int, mode: str) -> int:
    """3k-3 for differences (a pair can meet three equal-difference
    equations), 2k-2 for sums and products (two equations)."""
    return 3 * k - 3 if mode == DIFFERENCE else 2 * k - 2


def bound_holds(S: GroundSet, mode: str, bound: int) -> bool:
    """Does S meet an extraction's certified bound?  The identity is exempt
    for differences only."""
    return verify_multiplicity(S, bound, mode,
                               exempt_identity=(mode == DIFFERENCE)) is None


def sampling_rate(size: int, energy: int, k: int) -> float:
    """Inclusion probability q = min(1, (|A| / 2E)^{1/(2k-1)})."""
    return min(1.0, (size / (2.0 * energy)) ** (1.0 / (2 * k - 1)))


@reuses_histograms
def extract_random(A: GroundSet, k: int, mode: str = DIFFERENCE,
                   seed: int = 0, trials: int = 20) -> ExtractionResult:
    """Seeded random extraction of a subset B with certified multiplicity
    bound 3k-3 (difference) or 2k-2 (sum / product).

    Per trial: include each element independently with probability
    q = min(1, (|A| / 2E)^{1/(2k-1)}), E the k-energy in the given mode;
    then, while some non-identity value admits k pairwise-disjoint
    representing pairs (chain matching for differences; the {x, z-x} /
    {x, z/x} pair families for sums and products, counting the degenerate
    middle pair so the final bound is unconditional), delete the most
    entangled participant.  The largest verified survivor across trials is
    returned; an input already satisfying the bound is returned whole.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    if mode not in (DIFFERENCE, SUM, PRODUCT):
        raise UnsupportedMode(f"extraction mode must be difference/sum/product, got {mode!r}")
    amb = A.ambient
    bound = certified_bound(k, mode)
    if len(A) <= 1:
        return ExtractionResult(A, mode, k, bound, 1.0, seed, 0, 0, True)
    energy = energy_k(A, k, mode).value
    q = sampling_rate(len(A), energy, k)
    if bound_holds(A, mode, bound):
        return ExtractionResult(A, mode, k, bound, 1.0, seed, 0, 0, True, energy=energy)

    best_members: tuple = ()
    best_trial = None
    best_deletions = 0
    sizes = []
    for t in range(trials):
        rng = random.Random(f"{seed}:{t}")
        sample = [a for a in A.elements if rng.random() < q]
        members, deletions = _repair(sample, amb, mode, k)
        if not bound_holds(GroundSet.from_iterable(amb, members), mode, bound):
            raise VerificationFailed(
                f"repair loop left a value above {bound} in mode {mode}; this is a bug"
            )
        sizes.append(len(members))
        if best_trial is None or len(members) > len(best_members):
            best_members = tuple(members)
            best_trial = t
            best_deletions = deletions
    subset = GroundSet.from_iterable(amb, best_members)
    return ExtractionResult(subset, mode, k, bound, q, seed, trials,
                            best_deletions, True, tuple(sizes), best_trial,
                            energy=energy)


def _repair(sample: list, amb: AmbientSpec, mode: str, k: int) -> tuple[list, int]:
    """Delete elements until no value admits k pairwise-disjoint pairs."""
    members = sorted(sample, key=_sort_key)
    member_set = set(members)
    S = GroundSet.from_iterable(amb, members)
    counts = rep_histogram(S, S, mode).to_counts_dict()
    selfcount: dict = {}
    if mode == DIFFERENCE:
        counts.pop(amb.identity(DIFFERENCE), None)  # the self-pair diagonal
    else:
        for a in members:
            v = compose_value(amb, mode, a, a)
            selfcount[v] = selfcount.get(v, 0) + 1

    def disjoint_pairs(v) -> int:
        if mode == DIFFERENCE:
            if counts.get(v, 0) < k:
                return 0
            return max_disjoint_pairs(frozenset(member_set), amb, v)
        return (counts.get(v, 0) + selfcount.get(v, 0)) // 2

    deletions = 0
    while True:
        offender = None
        for v, c in counts.items():
            if mode == DIFFERENCE and c < k:
                continue
            if disjoint_pairs(v) >= k:
                if offender is None or c > counts[offender] or (
                    c == counts[offender] and _sort_key(v) < _sort_key(offender)
                ):
                    offender = v
        if offender is None:
            break
        target = _most_entangled(member_set, amb, mode, offender)
        _remove(target, member_set, amb, mode, counts, selfcount)
        members.remove(target)
        deletions += 1
    return members, deletions


def _most_entangled(member_set: set, amb: AmbientSpec, mode: str, v):
    """Participant of v's pair family lying in the most pairs, ties by
    canonical order."""
    best = None
    best_part = -1
    for x in member_set:
        if mode == DIFFERENCE:
            part = 0
            if compose_value(amb, SUM, x, v) in member_set:
                part += 1
            if compose_value(amb, SUM, x, negate(amb, v)) in member_set:
                part += 1
        else:
            part = 1 if _partner(amb, mode, v, x, member_set) else 0
        if part > best_part or (part == best_part and _sort_key(x) < _sort_key(best)):
            if part > 0:
                best = x
                best_part = part
    return best


def _partner(amb: AmbientSpec, mode: str, v, x, member_set) -> bool:
    """Does x belong to a representing pair of value v?"""
    if mode == SUM:
        y = compose_value(amb, DIFFERENCE, v, x)
        return y in member_set
    # product: need y in members with x*y = v
    if amb.kind == INTEGERS:
        if x == 0:
            return v == 0
        if v % x != 0:
            return False
        return v // x in member_set
    p = amb.modulus
    if x % p == 0:
        return v == 0
    return v * pow(x, -1, p) % p in member_set


def _remove(e, member_set: set, amb: AmbientSpec, mode: str,
            counts: dict, selfcount: dict) -> None:
    member_set.discard(e)
    for b in member_set:
        if mode == DIFFERENCE:
            for v in (compose_value(amb, DIFFERENCE, e, b),
                      compose_value(amb, DIFFERENCE, b, e)):
                counts[v] -= 1
                if counts[v] == 0:
                    del counts[v]
        else:
            v = compose_value(amb, mode, e, b)
            counts[v] -= 2
            if counts[v] == 0:
                del counts[v]
    if mode != DIFFERENCE:
        v = compose_value(amb, mode, e, e)
        counts[v] -= 1
        if counts[v] == 0:
            del counts[v]
        selfcount[v] -= 1
        if selfcount[v] == 0:
            del selfcount[v]


# ---------------------------------------------------------------------------
# Dense core

def dense_core_extract(A: GroundSet, g: int) -> tuple[GroundSet, dict]:
    """Core A_* = {a : sum_x r^g(x-a) >= E_{g+1}(A) / (2|A|)}, with the
    unconditional floor E_{g+1}(A_*) >= 4^{-(g+1)^2} E_{g+1}(A) checked in
    exact integer arithmetic."""
    if g < 1:
        raise ValueError("g must be >= 1")
    if len(A) == 0:
        raise ValueError("dense core of the empty set is undefined")
    amb = A.ambient
    hist = difference_histogram(A)
    e_in = hist.energy(g + 1)
    n = len(A)
    core = []
    masses = {}
    for a in A:
        m = 0
        for x in A:
            m += hist.count(compose_value(amb, DIFFERENCE, x, a)) ** g
        masses[a] = m
        if 2 * n * m >= e_in:
            core.append(a)
    core_set = GroundSet.from_iterable(amb, core)
    e_core = difference_histogram(core_set).energy(g + 1) if core else 0
    floor = 4 ** ((g + 1) ** 2)
    report = {
        "g": g,
        "input_size": n,
        "core_size": len(core_set),
        "energy_order": g + 1,
        "energy_input": e_in,
        "energy_core": e_core,
        "ratio": (e_core / e_in) if e_in else None,
        "floor_denominator": floor,
        "floor_holds": e_core * floor >= e_in,
        "mass_threshold": f"{e_in}/{2 * n}",
    }
    return core_set, report
