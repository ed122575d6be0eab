"""Energy-gap decomposition with self-verifying certificates, the popular
shift set, the heuristic rigid-structure extractor, and the end-to-end
additive-vs-multiplicative extraction pipeline.

Certificates store only recomputable facts: exact energies, exact
threshold comparisons (rational exponents cleared by cross-multiplied
integer powers), and explicit sets.  Heuristic quantities (everything
downstream of the popularity-graph clustering) are labelled measured and
carry no guarantee beyond recomputability and translate disjointness.

Verification re-runs the producer: a certificate is derived again with
its own delta and eps, a pipeline report with its own parameters (the
seeded extraction trials included), and every field must match.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .ambient import (
    DIFFERENCE,
    INTEGERS,
    PRIME_FIELD,
    PRODUCT,
    SUM,
    AmbientSpec,
    canonical_element,
    compose_value,
)
from .bounds import integer_kth_root
from .codes import (code_dtype, combine_codes, compose_codes, decode, element_codes, find_codes,
                    pair_codes)
from .counting import (
    difference_histogram,
    dyadic_best_level,
    kappa_of,
    rep_histogram,
    reuses_histograms,
)
from .errors import (
    AmbientMismatch,
    CapExceeded,
    EmptyCore,
    NonCanonicalElement,
    PreconditionFailed,
    SidonkitError,
    UnsupportedMode,
)
from .groundset import GroundSet
from .sidon import ExtractionResult, _jsonable, bound_holds, extract_random

FORMAT_VERSION = 1

# Largest denominator of delta or eps that `energy_gap_decompose` admits.
# The exact threshold test raises E_l to the power of delta's denominator,
# M = ceil(|A|^(eps/2)) takes a root of that degree for eps, and the loop
# runs up to ceil(2/eps) + 2 orders, so the work grows with both.  At this
# bound, deriving and verifying a certificate for [1, 4096] takes 0.7-0.9 s
# on a 2-CPU VM (1.5-2 s at twice the bound).
MAX_DENOMINATOR = 2**16

# Largest l_max that `sum_product_pipeline` admits: the kappa table holds
# one multiplicative energy per order up to l_max, each a sum of powers
# of that order.
MAX_ORDER = 64

SMALL_ENERGY = "small-energy"
POPULAR_CORE = "popular-core"
RIGID_STRUCTURE = "rigid-structure"

ADDITIVE_BRANCH = "additive-small-energy"
MULTIPLICATIVE_BRANCH = "multiplicative-after-structure"


def as_fraction(x) -> Fraction:
    """Exact parameter normalization; floats are read as their shortest
    decimal form (0.25 -> 1/4).  A string may not use exponent notation:
    `Fraction` would expand an exponent such as 1e-999999999 in full, which
    takes hours, before any bound on the parameter could be checked."""
    if isinstance(x, float):
        return Fraction(repr(x))
    if isinstance(x, str) and "e" in x.lower():
        raise ValueError(f"exponent notation is not accepted: {x!r}")
    return Fraction(x)


def ceil_power(n: int, expo: Fraction) -> int:
    """ceil(n ** expo) for n >= 1 and a nonnegative rational exponent."""
    num, den = expo.numerator, expo.denominator
    x = n**num
    r = integer_kth_root(x, den)
    return r if r**den == x else r + 1


def power_at_most(value: int, base: int, expo: Fraction) -> bool:
    """Exact test value <= base ** expo via cross-multiplied integer powers."""
    num, den = expo.numerator, expo.denominator
    return value**den <= base**num


def _elements_list(elements) -> list:
    return [_jsonable(x) for x in elements]


def _as_elements(ambient: AmbientSpec, raw) -> tuple:
    return tuple(canonical_element(ambient, x) for x in raw)


@dataclass(frozen=True)
class StructureCertificate:
    variant: str
    parameters: dict
    trace: tuple
    small: dict | None = None
    core: dict | None = None
    rigid: dict | None = None

    def to_json_dict(self) -> dict:
        d = {
            "format_version": FORMAT_VERSION,
            "kind": "structure-certificate",
            "variant": self.variant,
            "parameters": dict(self.parameters),
            "trace": [dict(step) for step in self.trace],
        }
        for name, payload in (("small", self.small), ("core", self.core),
                              ("rigid", self.rigid)):
            if payload is not None:
                d[name] = dict(payload)
        return d

    @classmethod
    def from_json_dict(cls, d: dict) -> "StructureCertificate":
        if d.get("kind") != "structure-certificate":
            raise ValueError("not a structure certificate")
        if d.get("format_version") != FORMAT_VERSION:
            raise ValueError(f"unsupported certificate format {d.get('format_version')!r}")
        try:
            return cls(
                variant=d["variant"],
                parameters=dict(d["parameters"]),
                trace=tuple(dict(s) for s in d.get("trace", [])),
                small=dict(d["small"]) if d.get("small") else None,
                core=dict(d["core"]) if d.get("core") else None,
                rigid=dict(d["rigid"]) if d.get("rigid") else None,
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed structure certificate: {exc!r}") from None


def _masses(A: GroundSet, P: GroundSet) -> dict:
    """mass(a) = |A  intersect  (P + a)| = r_{A-P}(a) for every a in A."""
    counts = rep_histogram(A, P, DIFFERENCE).counts(A.elements)
    return dict(zip(A.elements, counts.tolist()))


@reuses_histograms
def energy_gap_decompose(A: GroundSet, delta, eps) -> StructureCertificate:
    """Iterate l = 2, 3, ...: stop with a small-energy certificate as soon
    as E_l <= |A|^(l+delta) exactly; otherwise, when one extra factor of
    |A|/M is gained (M E_{l+1} >= |A| E_l, M = ceil(|A|^(eps/2))), take the
    best dyadic difference band P, threshold the translate masses at half
    their average, and return the popular core.  The loop is capped at
    ceil(2/eps) + 2 steps, after which the small-energy comparison is
    provable; the certificate stores the evaluated comparison either way.
    E_l is computed only up to the order after the one where the loop
    stops.  A delta or eps whose denominator exceeds `MAX_DENOMINATOR`
    raises `CapExceeded`.
    """
    delta = as_fraction(delta)
    eps = as_fraction(eps)
    if not (0 < delta <= 1 and 0 < eps <= 1):
        raise PreconditionFailed("delta and eps must lie in (0, 1]")
    if eps > delta:
        raise PreconditionFailed("eps must not exceed delta")
    if max(delta.denominator, eps.denominator) > MAX_DENOMINATOR:
        raise CapExceeded(f"delta = {delta} or eps = {eps} has a denominator above "
                          f"{MAX_DENOMINATOR}")
    n = len(A)
    if n < 4:
        raise PreconditionFailed("decomposition needs |A| >= 4")
    M = ceil_power(n, eps / 2)
    l_max = math.ceil(Fraction(2) / eps) + 2
    energy = difference_histogram(A).energy
    parameters = {
        "delta": str(delta),
        "eps": str(eps),
        "M": M,
        "l_max": l_max,
        "set_size": n,
    }
    trace = []
    e_next = energy(2)
    for l in range(2, l_max + 1):
        e_l, e_next = e_next, energy(l + 1)
        if power_at_most(e_l, n, l + delta):
            trace.append(_trace_step(l, e_l, e_next, n, fired=False, small=True))
            return StructureCertificate(
                SMALL_ENERGY, parameters, tuple(trace),
                small={"k": l, "energy": e_l, "below_threshold": True,
                       "kappa": kappa_of(e_l, n, l)})
        fired = M * e_next >= n * e_l
        trace.append(_trace_step(l, e_l, e_next, n, fired=fired, small=False))
        if fired:
            return StructureCertificate(
                POPULAR_CORE, parameters, tuple(trace),
                core=_build_core(A, l, M))
    return StructureCertificate(
        SMALL_ENERGY, parameters, tuple(trace),
        small={"k": l_max, "energy": e_l,
               "below_threshold": power_at_most(e_l, n, l_max + delta),
               "kappa": kappa_of(e_l, n, l_max)})


def _trace_step(l: int, e_l: int, e_next: int, n: int, fired: bool, small: bool) -> dict:
    return {"l": l, "energy": e_l, "energy_next": e_next,
            "kappa": kappa_of(e_l, n, l), "fired": fired, "small": small}


def _build_core(A: GroundSet, l: int, M: int) -> dict:
    n = len(A)
    delta_class, P = dyadic_best_level(A, l)
    masses = _masses(A, P)
    mass_total = sum(masses.values())
    core = [a for a in A if 2 * n * masses[a] >= mass_total]
    core_mass = sum(masses[a] for a in core)
    return {
        "l": l,
        "delta_class": delta_class,
        "band": _elements_list(P.elements),
        "theta": str(Fraction(mass_total, 2 * n)),
        "core": _elements_list(core),
        "mass_total": mass_total,
        "core_mass": core_mass,
        "min_core_mass": min(masses[a] for a in core),
    }


def popular_symmetry_set(A: GroundSet, theta: int) -> GroundSet:
    """Nonzero shifts t with |A  intersect  (A+t)| >= theta."""
    if theta < 1:
        raise ValueError("theta must be >= 1")
    hist = difference_histogram(A)
    zero = A.ambient.identity(DIFFERENCE)
    return GroundSet.from_iterable(
        A.ambient, (v for v in hist.values_with_count_at_least(theta) if v != zero))


# ---------------------------------------------------------------------------
# Rigid structure

def _popularity_edges(P: GroundSet, M: int) -> np.ndarray:
    """Codes of the difference values v != 0 with 4 M^2 r_{P-P}(v) >= |P|,
    in increasing order."""
    codes, counts = difference_histogram(P).arrays
    threshold = -(-len(P) // (4 * M * M))  # smallest integer count passing 4 M^2 c >= |P|
    return codes[(counts >= threshold) & (codes != 0)]  # code 0 is the zero difference


def _max_degree_vertex(P: GroundSet, good: np.ndarray):
    """Vertex of the popularity graph with the most neighbors; ties go to
    the smallest element (elements are scanned in canonical order).  `good`
    holds the codes of the popular differences, none of them zero, so no
    vertex counts itself."""
    amb = P.ambient
    dtype = code_dtype(amb, DIFFERENCE, P.elements)
    codes = element_codes(amb, P.elements, dtype)
    good_codes = good.astype(dtype, copy=False)
    degs = np.zeros(codes.size, dtype=np.int64)
    chunk = max(1, 2**22 // codes.size)
    for i in range(0, codes.size, chunk):
        d = compose_codes(amb, DIFFERENCE, codes[i:i + chunk], codes)
        degs[i:i + chunk] = np.isin(d, good_codes).reshape(-1, codes.size).sum(axis=1)
    idx = int(np.argmax(degs))  # first maximum = smallest element
    return P.elements[idx], int(degs[idx])


def _greedy_disjoint_translates(W, H: GroundSet) -> list:
    """Scan W in canonical order, keeping z whenever H+z avoids every
    translate already kept.  H+w meets H+z exactly when w - z lies in
    H - H, so each kept z marks the later elements it blocks with one
    lookup of their differences to z in the codes of H - H."""
    amb = H.ambient
    dtype = code_dtype(amb, DIFFERENCE, H.elements, W)
    diffs = difference_histogram(H).arrays[0].astype(dtype, copy=False)
    w = element_codes(amb, W, dtype)
    free = np.ones(w.size, dtype=bool)
    Z = []
    for i, z in enumerate(W):
        if free[i]:
            Z.append(z)
            d = combine_codes(amb, DIFFERENCE, w[i + 1:], w[i])
            free[i + 1:] &= find_codes(diffs, d) < 0
    return Z


def rigid_structure(A: GroundSet, delta, eps,
                    certificate: StructureCertificate | None = None) -> StructureCertificate:
    """Popularity-graph clustering of the dyadic band: H is the closed
    neighborhood of a maximum-degree vertex, Z a greedy maximal family of
    disjoint translates of H drawn from the heavy-mass elements W.  All
    resulting statistics are measured, and translate disjointness is the
    one hard guarantee; a small-energy certificate passes through
    unchanged."""
    cert = certificate if certificate is not None else energy_gap_decompose(A, delta, eps)
    if cert.variant == SMALL_ENERGY:
        return cert
    amb = A.ambient
    P = GroundSet.from_iterable(amb, cert.core["band"])
    if len(P) < 2:
        raise EmptyCore("dyadic band has fewer than 2 elements")
    M = cert.parameters["M"]
    n = len(A)
    good = _popularity_edges(P, M)
    center, _ = _max_degree_vertex(P, good)
    near = find_codes(good, pair_codes(amb, DIFFERENCE, (center,), P.elements)[0]) >= 0
    H = GroundSet.from_iterable(amb, [center, *itertools.compress(P.elements, near.tolist())])
    masses = _masses(A, H)
    mass_total = sum(masses.values())
    W = [a for a in A if 2 * n * masses[a] >= mass_total]
    Z = _greedy_disjoint_translates(W, H)
    covered_mass = sum(masses[z] for z in Z)
    doubling = Fraction(rep_histogram(H, H, SUM).support_size, len(H))
    rigid = {
        "edge_threshold": str(Fraction(len(P), 4 * M * M)),
        "center": _jsonable(center),
        "H": _elements_list(H.elements),
        "Z": _elements_list(Z),
        "W_size": len(W),
        "theta_H": str(Fraction(mass_total, 2 * n)),
        "mass_total_H": mass_total,
        "doubling": str(doubling),
        "zh_product": len(Z) * len(H),
        "covered_mass": covered_mass,
    }
    return StructureCertificate(RIGID_STRUCTURE, cert.parameters, cert.trace,
                                core=cert.core, rigid=rigid)


def rigid_core_set(A: GroundSet, cert: StructureCertificate) -> GroundSet:
    """(H directly-summed-with Z)  intersect  A, the union of the disjoint
    translate intersections A ^ (H+z)."""
    amb = A.ambient
    H = _as_elements(amb, cert.rigid["H"])
    Z = _as_elements(amb, cert.rigid["Z"])
    translates = set(decode(amb, SUM, pair_codes(amb, SUM, H, Z)[0]))
    return A.restrict(translates.__contains__)


# ---------------------------------------------------------------------------
# Pipeline

@dataclass(frozen=True)
class PipelineReport:
    branch: str
    certificate: StructureCertificate | None
    subset: GroundSet
    extraction: ExtractionResult | None
    core_set: GroundSet | None = None
    zero_removed: bool = False
    kappa_table: dict = field(default_factory=dict)
    chosen_l: int | None = None
    sqrt_target: int = 0
    degenerate: bool = False
    parameters: dict = field(default_factory=dict)

    @property
    def verified(self) -> bool:
        return self.extraction.verified if self.extraction else True

    @property
    def meets_sqrt_target(self) -> bool:
        return len(self.subset) >= self.sqrt_target

    def to_json_dict(self) -> dict:
        return {
            "format_version": FORMAT_VERSION,
            "kind": "pipeline-report",
            "branch": self.branch,
            "parameters": dict(self.parameters),
            "certificate": self.certificate.to_json_dict() if self.certificate else None,
            "core_set": self.core_set.to_dict() if self.core_set else None,
            "zero_removed": self.zero_removed,
            "kappa_table": {str(l): v for l, v in self.kappa_table.items()},
            "chosen_l": self.chosen_l,
            "extraction": self.extraction.to_dict() if self.extraction else None,
            "subset": self.subset.to_dict(),
            "subset_size": len(self.subset),
            "sqrt_target": self.sqrt_target,
            "meets_sqrt_target": self.meets_sqrt_target,
            "verified": self.verified,
            "degenerate": self.degenerate,
        }


@reuses_histograms
def sum_product_pipeline(A: GroundSet, eps=Fraction(1, 16), seed: int = 0,
                         trials: int = 20, core_variant: str = "rigid",
                         l_max: int = 6) -> PipelineReport:
    """Either the additive energy collapses at some order k, in which case
    the difference-mode extraction already yields a large verified subset,
    or the set carries a popular rigid structure; then the multiplicative
    energy of the structured core is measured at orders 2..l_max and the
    product-mode extraction runs at the order with the smallest
    multiplicative kappa.  The delta parameter is fixed at 1/4.

    The multiplicative core is (H + Z) ^ A for a rigid certificate and
    the heavy-mass core otherwise, with zero removed.  An l_max above
    `MAX_ORDER` raises `CapExceeded`.
    """
    amb = A.ambient
    if amb.kind not in (INTEGERS, PRIME_FIELD):
        raise UnsupportedMode("pipeline runs over the integers or a prime field")
    if core_variant not in ("rigid", "popular"):
        raise ValueError("core_variant must be 'rigid' or 'popular'")
    if amb.kind == PRIME_FIELD and len(A) ** 2 >= amb.modulus:
        raise PreconditionFailed("prime-field pipeline requires |A| < sqrt(p)")
    if l_max > MAX_ORDER:
        raise CapExceeded(f"l_max = {l_max} exceeds {MAX_ORDER}")
    eps = as_fraction(eps)
    params = {"delta": "1/4", "eps": str(eps), "seed": seed, "trials": trials,
              "core_variant": core_variant, "l_max": l_max}
    target = ceil_power(len(A), Fraction(1, 2))
    if len(A) < 4:
        return PipelineReport("degenerate", None, A, None, sqrt_target=target,
                              degenerate=True, parameters=params)
    cert = energy_gap_decompose(A, Fraction(1, 4), eps)
    if cert.variant == SMALL_ENERGY:
        k = cert.small["k"]
        ext = extract_random(A, k, DIFFERENCE, seed=seed, trials=trials)
        return PipelineReport(ADDITIVE_BRANCH, cert, ext.subset, ext,
                              sqrt_target=target, parameters=params)
    if core_variant == "rigid":
        try:
            cert = rigid_structure(A, Fraction(1, 4), eps, certificate=cert)
        except EmptyCore:
            pass  # degenerate one-element band: keep the heavy-mass core
    if cert.variant == RIGID_STRUCTURE:
        core = rigid_core_set(A, cert)
    else:
        core = GroundSet.from_iterable(amb, cert.core["core"])
    zero = amb.identity(DIFFERENCE)
    zero_removed = zero in core.members
    if zero_removed:
        core = core.restrict(lambda x: x != zero)
    if len(core) < 2:
        return PipelineReport(MULTIPLICATIVE_BRANCH, cert, core, None, core_set=core,
                              zero_removed=zero_removed, sqrt_target=target,
                              degenerate=True, parameters=params)
    if l_max < 2:
        raise ValueError("l_max below 2 leaves no multiplicative order")
    energy = rep_histogram(core, core, PRODUCT).energy
    kappa_table = {l: kappa_of(energy(l), len(core), l) for l in range(2, l_max + 1)}
    del energy  # hold no histogram the extraction's trials may evict from the reuse slot
    chosen_l = min(kappa_table, key=lambda l: (kappa_table[l], l))  # ties to the smaller
    ext = extract_random(core, chosen_l, PRODUCT, seed=seed, trials=trials)
    return PipelineReport(MULTIPLICATIVE_BRANCH, cert, ext.subset, ext,
                          core_set=core, zero_removed=zero_removed,
                          kappa_table=kappa_table, chosen_l=chosen_l,
                          sqrt_target=target, parameters=params)


# ---------------------------------------------------------------------------
# Verification

def _mismatches(expected: dict, stored, prefix: str = "") -> list[str]:
    """Name each key of `expected` whose stored value differs, such as
    `variant`; a missing key reads as None.  Where both sides hold a dict,
    name its differing keys instead, such as `core.mass_total`, including
    the keys `expected` lacks."""
    stored = stored if isinstance(stored, dict) else {}
    issues = []
    for key, want in expected.items():
        got = stored.get(key)
        if got == want:
            continue
        if isinstance(want, dict) and isinstance(got, dict):
            issues += _mismatches(want, got, f"{prefix}{key}.")
            issues += [f"{prefix}{key}.{k} is not derived" for k in got if k not in want]
        else:
            issues.append(f"{prefix}{key} does not recompute")
    return issues


def _certificate_guarantees(amb: AmbientSpec, cert: dict) -> list[str]:
    """The stated guarantees of a serialized certificate, checked by code
    far simpler than its derivation: the core holds at least half of the
    translate mass, and the translates H + z are pairwise disjoint."""
    issues = []
    core, rigid = cert.get("core"), cert.get("rigid")
    if core is not None and 2 * core["core_mass"] < core["mass_total"]:
        issues.append("half-mass property fails")
    if rigid is not None:
        H = _as_elements(amb, rigid["H"])
        covered: set = set()
        for z in _as_elements(amb, rigid["Z"]):
            translate = {compose_value(amb, SUM, h, z) for h in H}
            if not covered.isdisjoint(translate):
                issues.append("translates of H are not pairwise disjoint")
                break
            covered |= translate
    return issues


@reuses_histograms
def verify_certificate(A: GroundSet, cert: StructureCertificate) -> list[str]:
    """A certificate is valid only when it matches, field for field, the
    certificate derived from A with its own delta and eps.  Returns the
    mismatches, one for each differing key one level deep; an empty list
    means the certificate verifies.

    The derivation is the producer itself (`energy_gap_decompose`, then
    `rigid_structure` for a rigid certificate).  The stated guarantees are
    then checked by `_certificate_guarantees`.  Unreadable parameters, and
    parameters or sets the producer refuses, come back as mismatches.
    """
    try:
        delta = as_fraction(cert.parameters["delta"])
        eps = as_fraction(cert.parameters["eps"])
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        return [f"unreadable parameters: {exc!r}"]
    try:
        derived = energy_gap_decompose(A, delta, eps)
        if cert.variant == RIGID_STRUCTURE:
            derived = rigid_structure(A, delta, eps, certificate=derived)
    except (PreconditionFailed, EmptyCore, CapExceeded) as exc:
        return [f"no certificate derives from A and these parameters: {exc}"]
    # a payload the derivation leaves out must be absent from the certificate
    expected = {"small": None, "core": None, "rigid": None, **derived.to_json_dict()}
    stored = cert.to_json_dict()
    return _mismatches(expected, stored) or _certificate_guarantees(A.ambient, stored)


@reuses_histograms
def verify_pipeline_report(A: GroundSet, report_dict: dict) -> list[str]:
    """A pipeline report is valid only when it matches, field for field,
    the report `sum_product_pipeline` derives from A with the report's own
    parameters, the seeded extraction trials included.  Returns the
    mismatches, each naming its key in full, such as
    `certificate.core.mass_total` or `extraction.deletions`; an empty list
    means the report verifies.

    The stated guarantees are then checked directly: the subset lies in A
    and meets the extraction's certified bound, and the embedded
    certificate passes `_certificate_guarantees`.  An unreadable subset or
    parameters, and parameters or sets the producer refuses, come back as
    mismatches.
    """
    subset_dict = report_dict.get("subset")
    if subset_dict is None:
        return ["missing subset"]
    try:
        subset = _read_subset(A.ambient, subset_dict)
    except (KeyError, TypeError, SidonkitError) as exc:
        return [f"unreadable subset: {exc!r}"]
    issues: list[str] = []
    if not subset.members <= A.members:
        issues.append("subset is not contained in A")
    params = report_dict.get("parameters")
    try:
        eps = as_fraction(params["eps"])
        seed, trials = params["seed"], params["trials"]
        core_variant, l_max = params["core_variant"], params["l_max"]
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        return issues + [f"unreadable parameters: {exc!r}"]
    if not (all(isinstance(x, int) for x in (seed, trials, l_max))
            and core_variant in ("rigid", "popular")):
        return issues + ["parameters out of range"]
    try:
        derived = sum_product_pipeline(A, eps, seed, trials, core_variant, l_max)
    except (PreconditionFailed, CapExceeded, UnsupportedMode, ValueError) as exc:
        return issues + [f"no report derives from A and these parameters: {exc}"]
    issues += _mismatches(derived.to_json_dict(), report_dict)
    if issues:
        return issues
    ext = derived.extraction
    if ext is not None and not bound_holds(subset, ext.mode, ext.bound):
        issues.append("subset fails its certified bound")
    if derived.certificate is not None:
        issues += _certificate_guarantees(A.ambient, report_dict["certificate"])
    return issues


def _read_subset(amb: AmbientSpec, subset_dict) -> GroundSet:
    """The serialized subset as a GroundSet of A's ambient; raises unless
    it names that ambient and lists canonical elements in canonical order,
    each once."""
    if not isinstance(subset_dict["ambient"], dict):
        raise TypeError(f"subset ambient must be an object, got {subset_dict['ambient']!r}")
    if AmbientSpec.from_dict(subset_dict["ambient"]) != amb:
        raise AmbientMismatch(f"subset ambient {subset_dict['ambient']!r} is not {amb}")
    raw = subset_dict["elements"]
    if not isinstance(raw, list):
        raise TypeError(f"subset elements must be a list, got {raw!r}")
    subset = GroundSet.from_iterable(amb, raw)
    if _elements_list(subset.elements) != raw:
        raise NonCanonicalElement("subset elements are not sorted, distinct and canonical")
    return subset
