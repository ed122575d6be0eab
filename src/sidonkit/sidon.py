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

import numpy as np

from .ambient import (
    DIFFERENCE,
    INTEGERS,
    PRODUCT,
    RATIO,
    SUM,
    AmbientSpec,
    compose_value,
    negate,
)
from .codes import combine_codes, compose_codes, decode, element_codes
from .counting import (
    _chain_codes,
    _disjoint_pairs,
    difference_histogram,
    energy_k,
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
    nonzero shifts with k distinct common elements (intersection form);
    re-checking against the set reproduces the violation."""

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
        if len(set(self.elements)) < self.k:
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
    if math.comb(len(S), k) > cap:
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
            others = sorted(t for t in translates if t != zero)[:g]
            shifts = tuple(negate(amb, t) for t in others)
            return ViolationWitness(kind="intersection", mode=DIFFERENCE,
                                    shifts=shifts, elements=Y, k=k)
    return None


# ---------------------------------------------------------------------------
# Multiplicity budget shared by the greedy pass and the exact search

class _Budget:
    """Room left under the budget k for every value class of a growing
    subset `chosen` of `elems` (indices into it).

    r(v) counts ordered pairs, so inserting elems[j] next to each chosen s
    adds r(j o s) and r(s o j), plus r(j o j).  Every value gets a small
    integer id from `row`.  In difference and ratio mode v and its inverse
    share one id, since r(v) = r(v^-1): a pair then adds 1 to its class,
    and a self-inverse class (x = -x, or the ratio -1) gets room k // 2.
    In sum and product mode j o s = s o j, so a pair adds 2.  The self pair
    adds 1, and the mode's identity has a slot that never binds.
    """

    def __init__(self, amb: AmbientSpec, mode: str, elems: list, k: int):
        self.amb, self.mode, self.elems, self.k = amb, mode, elems, k
        self.step = 1 if mode in (DIFFERENCE, RATIO) else 2
        self.ids: dict = {}
        self.room: list[int] = []
        self.chosen: list[int] = []
        ident = amb.identity(mode)
        if ident is not None:
            self.ids[ident] = 0
            self.room.append(2 * len(elems) ** 2 + 1)  # never reaches 0

    def row(self, j: int, among) -> dict:
        """s -> id of elems[j] o elems[s] for s in `among`."""
        amb, mode, elems, ids = self.amb, self.mode, self.elems, self.ids
        a = elems[j]
        out = {}
        for s in among:
            v = compose_value(amb, mode, a, elems[s])
            i = ids.get(v)
            if i is None:
                w = v if self.step == 2 else compose_value(amb, mode, elems[s], a)
                i = ids[v] = ids[w] = len(self.room)
                self.room.append(self.k // 2 if v == w and self.step == 1 else self.k)
            out[s] = i
        return out

    def insert(self, j: int, row) -> bool:
        """Add j to `chosen` when every class keeps room >= 0; otherwise
        leave the state as it was.  `row[s]` is the id of j o s, for s = j
        and every chosen s.  Increments are applied one at a time, since
        several of them may hit one id."""
        room, step, chosen = self.room, self.step, self.chosen
        v = row[j]
        if room[v] == 0:
            return False
        room[v] -= 1
        for s in reversed(chosen):  # a clash with the latest is likeliest
            v = row[s]
            r = room[v] - step
            if r < 0:
                for t in reversed(chosen):
                    if t == s:
                        break
                    room[row[t]] += step
                room[row[j]] += 1
                return False
            room[v] = r
        chosen.append(j)
        return True

    def pop(self, row) -> None:
        """Undo the last insertion; `row` is the one it was made with."""
        room, step, chosen = self.room, self.step, self.chosen
        j = chosen.pop()
        for s in chosen:
            room[row[s]] += step
        room[row[j]] += 1


def _greedy(budget: _Budget, order) -> list[int]:
    """Insert the indices of `order` one by one, keeping each that fits."""
    chosen = budget.chosen
    for j in order:
        budget.insert(j, budget.row(j, chosen + [j]))
    return chosen


def sid_k_greedy(A: GroundSet, k: int, mode: str = DIFFERENCE,
                 seed: int | None = 0) -> GroundSet:
    """Maximal-by-inclusion subset with every non-identity multiplicity
    <= k, built by one randomized-order insertion pass (canonical order
    when seed is None)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    elems = list(A.elements)
    order = list(range(len(elems)))
    if seed is not None:
        random.Random(seed).shuffle(order)
    chosen = _greedy(_Budget(A.ambient, mode, elems, k), order)
    return GroundSet.from_iterable(A.ambient, [elems[j] for j in chosen])


def _progression_start(amb: AmbientSpec, mode: str, elems: list) -> int:
    """Smallest i such that elems[i:] steps by one constant difference d
    in the group, elems[j+1] = elems[j] + d, in difference and sum mode;
    len(elems) in product and ratio mode, where a translation does not
    keep the profile."""
    n = len(elems)
    if mode not in (DIFFERENCE, SUM):
        return n
    i = max(n - 2, 0)
    while i and (compose_value(amb, DIFFERENCE, elems[i], elems[i - 1])
                 == compose_value(amb, DIFFERENCE, elems[-1], elems[-2])):
        i -= 1
    return i


def _mirrored(amb: AmbientSpec, mode: str, elems: list) -> bool:
    """Is elems[j] + elems[n-1-j] one constant m for every j, in difference
    and sum mode?  Then x -> m - x maps the elements onto themselves in
    reverse order."""
    if mode not in (DIFFERENCE, SUM):
        return False
    n = len(elems)
    return len({compose_value(amb, SUM, elems[j], elems[n - 1 - j]) for j in range(n)}) <= 1


def sid_k_exact(A: GroundSet, k: int, mode: str = DIFFERENCE,
                cap: int = 40) -> tuple[int, GroundSet]:
    """Exact maximum subset size under the multiplicity budget, plus one
    witness, by Russian-doll search (Verfaillie-Lemaitre-Schiex 1996;
    Ostergard 2002's maximum-clique scheme).

    Bounded multiplicity is hereditary, so with elems in canonical order
    the maximum c[i] over the suffix elems[i:] bounds every completion
    drawn from it.  The suffixes are solved from the back: c[i] is c[i+1]
    or c[i+1] + 1, so the search for c[i] only asks for a subset of size
    c[i+1] + 1 that contains elems[i], prunes a branch whose next
    candidate j has |chosen| + c[j] <= c[i+1], and stops at the first such
    subset.  Every ordered pair of A is composed once up front, so the
    search itself only moves integer counters.  The canonical-order greedy
    pass is the warm start: when its part inside a suffix already has
    c[i+1] + 1 elements, that suffix is not searched.

    In difference and sum mode a translation x -> x + d and a reflection
    x -> m - x keep the multiset of multiplicities (sums move to
    v + 2d or 2m - v, differences to v or -v, and r(v) = r(-v)), so an
    image of a subset fits exactly when the subset does.  Two such maps
    force the top element elems[n-1] into the search for c[i]:
    - translation: when elems[i:] is a progression with step d, a subset
      S of elems[i:n-1] has S + d inside elems[i+1:], so |S| <= c[i+1];
    - reflection, at i = 0 only: when elems[j] + elems[n-1-j] = m for
      every j (every D = A - A and every interval), a subset that misses
      elems[n-1] has its mirror inside elems[1:].
    The search for c[i] then starts from {elems[i], elems[n-1]}, draws
    from elems[i+1:n-1] and prunes with |chosen| - 1 + c[j] <= c[i+1], as
    c[j] may count the top.  Every subset it is after holds the top, so
    it meets them in the same order, and maxima and witnesses do not
    change.  Neither map keeps a product or ratio profile, so those
    modes search as before."""
    if len(A) > cap:
        raise CapExceeded(f"|A| = {len(A)} exceeds the search cap {cap}")
    if k < 1:
        raise ValueError("k must be >= 1")
    elems = list(A.elements)
    n = len(elems)
    warm = _greedy(_Budget(A.ambient, mode, elems, k), range(n))
    budget = _Budget(A.ambient, mode, elems, k)
    rows = [list(budget.row(j, range(n)).values()) for j in range(n)]
    insert, pop, chosen = budget.insert, budget.pop, budget.chosen
    progression = _progression_start(A.ambient, mode, elems)
    mirrored = _mirrored(A.ambient, mode, elems)
    c = [0] * (n + 1)
    best: list[int] = []

    def extend(start: int, target: int, top: int) -> bool:
        """Grow `chosen` from elems[start:n - top] to target + 1 elements;
        top is 1 when `chosen` already holds elems[n-1]."""
        size = len(chosen)
        if size > target:
            best[:] = chosen
            return True
        for j in range(start, n - top):
            if size - top + c[j] <= target:
                return False
            row = rows[j]
            if insert(j, row):
                found = extend(j + 1, target, top)
                pop(row)
                if found:
                    return True
        return False

    for i in range(n - 1, -1, -1):
        tail = [j for j in warm if j >= i]
        if len(tail) > c[i + 1]:
            best[:] = tail
            c[i] = len(tail)
            continue
        insert(i, rows[i])
        top = int(i < n - 1 and (i >= progression or (i == 0 and mirrored)))
        if top and not insert(n - 1, rows[n - 1]):
            c[i] = c[i + 1]
        else:
            c[i] = c[i + 1] + extend(i + 1, c[i + 1], top)
            if top:
                pop(rows[n - 1])
        pop(rows[i])
    return c[0], GroundSet.from_iterable(A.ambient, [elems[j] for j in best])


# ---------------------------------------------------------------------------
# Random extraction

# Largest trial count `extract_random` admits: each trial samples A and
# runs the repair loop, so the work grows with the count.
MAX_TRIALS = 1000


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
    """Inclusion probability q = min(1, (|A| / 2E)^{1/(2k-1)}), in floats;
    an E beyond the float range raises `CapExceeded`."""
    try:
        return min(1.0, (size / (2.0 * energy)) ** (1.0 / (2 * k - 1)))
    except OverflowError:
        raise CapExceeded(f"E_{k} has {energy.bit_length()} bits, beyond the float "
                          f"range of the sampling rate") from None


@reuses_histograms
def extract_random(A: GroundSet, k: int, mode: str = DIFFERENCE,
                   seed: int = 0, trials: int = 20) -> ExtractionResult:
    """Seeded random extraction of a subset B with certified multiplicity
    bound 3k-3 (difference) or 2k-2 (sum / product).

    Trial t keeps each element independently with probability
    q = min(1, (|A| / 2E)^{1/(2k-1)}), E the k-energy in the given mode,
    drawing from random.Random(f"{seed}:{t}").  Then, while some value
    admits k pairwise-disjoint representing pairs (chain matching for
    differences, the identity exempt; the {x, z-x} / {x, z/x} pair
    families for sums and products, counting the degenerate middle pair
    so the final bound is unconditional), the offender with the most
    ordered pairs, ties to the smallest value, loses its most entangled
    participant, ties to the smallest element.  This repair runs on the
    sample's histogram arrays (see `_repair`).  The first largest verified
    survivor across trials is returned; an input already satisfying the
    bound is returned whole.  More than `MAX_TRIALS` trials, or an E
    beyond the float range of q, raise `CapExceeded`.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    if mode not in (DIFFERENCE, SUM, PRODUCT):
        raise UnsupportedMode(f"extraction mode must be difference/sum/product, got {mode!r}")
    if trials > MAX_TRIALS:
        raise CapExceeded(f"trials = {trials} exceeds {MAX_TRIALS}")
    amb = A.ambient
    bound = certified_bound(k, mode)
    if len(A) <= 1:
        return ExtractionResult(A, mode, k, bound, 1.0, seed, 0, 0, True)
    energy = energy_k(A, k, mode).value
    if bound_holds(A, mode, bound):
        return ExtractionResult(A, mode, k, bound, 1.0, seed, 0, 0, True, energy=energy)
    q = sampling_rate(len(A), energy, k)

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
    """Delete elements until no value admits k pairwise-disjoint pairs.
    `sample` is in canonical order, as drawn from A.elements.

    The state is the sample's histogram as arrays: the value codes, the
    counts r(v), kept current as elements go, and in sum and product mode
    the self-pair counts s(v) = #{x : x o x = v}.  The offender is, in sum
    and product mode, the value with the largest r among those with
    (r + s) // 2 >= k; in difference mode, the first value in (-r, value)
    order with r >= k whose chains hold k disjoint pairs, the remaining
    elements being encoded for the chains once per deletion.  Ties go to the
    smallest value, as code order is value order.  A deletion composes the
    deleted element with the remaining ones and subtracts their pairs."""
    members = list(sample)
    member_set = set(members)
    S = GroundSet.from_iterable(amb, members)
    codes, counts = rep_histogram(S, S, mode).arrays
    counts = counts.copy()
    mcodes = element_codes(amb, members, codes.dtype)
    if mode == DIFFERENCE:
        counts[codes == 0] = 0  # the identity, code 0, is the self-pair diagonal
    else:
        diags = combine_codes(amb, mode, mcodes, mcodes)  # the codes of x o x
        selfs = np.zeros_like(counts)
        np.add.at(selfs, np.searchsorted(codes, diags), 1)
    deletions = 0
    while True:
        # a difference has at most r disjoint pairs, a sum or product (r + s) // 2
        live = np.flatnonzero((counts if mode == DIFFERENCE else (counts + selfs) // 2) >= k)
        live = live[np.argsort(-counts[live], kind="stable")]  # (-r, value) order
        chain = _chain_codes(amb, members) if mode == DIFFERENCE and live.size else None
        offender = next((v for v in decode(amb, mode, codes[live])
                         if mode != DIFFERENCE or _disjoint_pairs(chain, amb, v) >= k), None)
        if offender is None:
            break
        target = _most_entangled(member_set, amb, mode, offender)
        j = members.index(target)
        del members[j]
        member_set.discard(target)
        e = mcodes[j]
        mcodes = np.delete(mcodes, j)
        gone = combine_codes(amb, mode, e, mcodes)  # the pairs (e, b)
        if mode == DIFFERENCE:  # and (b, e)
            gone = np.concatenate((gone, combine_codes(amb, mode, mcodes, e)))
        else:  # and (b, e) with b o e = e o b, and (e, e)
            diag = diags[j]
            diags = np.delete(diags, j)
            selfs[np.searchsorted(codes, diag)] -= 1
            gone = np.concatenate((gone, gone, [diag]))
        np.subtract.at(counts, np.searchsorted(codes, gone), 1)
        deletions += 1
    return members, deletions


def _most_entangled(member_set: set, amb: AmbientSpec, mode: str, v):
    """Participant of v's pair family lying in the most pairs, ties by
    canonical order."""
    minus = negate(amb, v) if mode == DIFFERENCE else None

    def pairs(x) -> int:
        if mode == DIFFERENCE:  # {x, x + v} and {x - v, x}
            return ((compose_value(amb, SUM, x, v) in member_set)
                    + (compose_value(amb, SUM, x, minus) in member_set))
        if mode == SUM:
            return compose_value(amb, DIFFERENCE, v, x) in member_set
        if x == 0:  # product: 0 * y = 0 for every y
            return v == 0
        if amb.kind == INTEGERS:
            return v % x == 0 and v // x in member_set
        return v * pow(x, -1, amb.modulus) % amb.modulus in member_set
    return min(member_set, key=lambda x: (-pairs(x), x))


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
    codes, counts = hist.arrays
    elems = element_codes(amb, A.elements, codes.dtype)
    # row x, column a: r(x - a), found by one searchsorted as every x - a occurs
    counts = counts[np.searchsorted(codes, compose_codes(amb, DIFFERENCE, elems, elems))]
    # mass(a) = sum_x r(x - a)^g <= n^(g+1): int64 when that fits, else Python ints
    if n ** (g + 1) >= 2**63:
        counts = counts.astype(object)
    masses = (counts.reshape(n, n) ** g).sum(axis=0).tolist()
    core = [a for a, m in zip(A, masses) if 2 * n * m >= e_in]
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
