import json
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from conftest import membership_corpus, oracle_compose
from sidonkit import (
    AmbientSpec,
    CapExceeded,
    GroundSet,
    PreconditionFailed,
    StructureCertificate,
    energy_gap_decompose,
    energy_k,
    integer_range,
    integer_set,
    popular_symmetry_set,
    rigid_core_set,
    rigid_structure,
    sidon_base,
    sum_product_pipeline,
    verify_certificate,
    verify_multiplicity,
    verify_pipeline_report,
)
from sidonkit import counting
from sidonkit.counting import kappa_of
from sidonkit.structure import (
    MAX_DENOMINATOR,
    MAX_ORDER,
    RIGID_STRUCTURE,
    _greedy_disjoint_translates,
    _max_degree_vertex,
    ceil_power,
    power_at_most,
)


def test_exact_power_helpers():
    assert ceil_power(64, Fraction(1, 8)) == 2  # 64^(1/8) = 1.68...
    assert ceil_power(64, Fraction(1, 2)) == 8
    assert ceil_power(100, Fraction(3, 2)) == 1000
    assert power_at_most(1000, 10, Fraction(3))
    assert power_at_most(1000, 10, Fraction(7, 2))
    assert not power_at_most(1001, 10, Fraction(3))


def test_decompose_random_set_small_energy():
    rng = random.Random(1)
    A = integer_set(rng.sample(range(10**6), 64))
    cert = energy_gap_decompose(A, Fraction(1, 2), Fraction(1, 4))
    assert cert.variant == "small-energy"
    assert cert.small["k"] == 2
    assert cert.small["below_threshold"]
    assert cert.small["energy"] == energy_k(A, 2).value
    assert power_at_most(cert.small["energy"], 64, Fraction(5, 2))
    assert verify_certificate(A, cert) == []


def test_decompose_progression_popular_core():
    A = integer_range(0, 64)
    cert = energy_gap_decompose(A, Fraction(1, 2), Fraction(1, 4))
    assert cert.variant == "popular-core"
    assert cert.core["core"]  # nonempty
    assert 2 * cert.core["core_mass"] >= cert.core["mass_total"]
    assert verify_certificate(A, cert) == []


def test_decompose_minimal_input_and_trace():
    A = integer_set([0, 1, 2, 3])
    cert = energy_gap_decompose(A, Fraction(1, 2), Fraction(1, 2))
    l_max = math.ceil(2 / Fraction(1, 2)) + 2
    assert len(cert.trace) <= l_max - 1
    assert verify_certificate(A, cert) == []
    with pytest.raises(PreconditionFailed):
        energy_gap_decompose(integer_set([0, 1, 2]), Fraction(1, 2), Fraction(1, 2))
    with pytest.raises(PreconditionFailed):
        energy_gap_decompose(A, Fraction(1, 4), Fraction(1, 2))  # eps > delta


def test_decompose_terminates_within_loop_bound():
    rng = random.Random(3)
    for eps in (Fraction(1, 2), Fraction(1, 4), Fraction(1, 16)):
        l_max = math.ceil(2 / eps) + 2
        for _ in range(5):
            A = integer_set(rng.sample(range(4000), rng.randint(4, 60)))
            cert = energy_gap_decompose(A, max(eps, Fraction(1, 4)), eps)
            assert len(cert.trace) <= l_max - 1
            if cert.variant == "small-energy":
                assert cert.small["k"] <= l_max
                assert cert.small["below_threshold"]


def test_popular_symmetry_set_examples():
    A = integer_range(0, 10)
    assert popular_symmetry_set(A, 8).elements == (-2, -1, 1, 2)
    assert len(popular_symmetry_set(A, 11)) == 0
    S = integer_set([0, 1, 3, 7])
    assert len(popular_symmetry_set(S, 2)) == 0


def test_rigid_structure_progression():
    A = integer_range(0, 64)
    cert = rigid_structure(A, Fraction(1, 2), Fraction(1, 4))
    assert cert.variant == "rigid-structure"
    H = cert.rigid["H"]
    assert len(H) >= 2
    doubling = Fraction(cert.rigid["doubling"])
    assert doubling < 4
    core = rigid_core_set(A, cert)
    assert len(core) == cert.rigid["covered_mass"]
    assert len(core) >= len(A) // 2
    assert verify_certificate(A, cert) == []


def test_rigid_passthrough_small_energy():
    S = sidon_base(2100)
    assert len(S) >= 30
    cert = rigid_structure(S, Fraction(1, 2), Fraction(1, 4))
    assert cert.variant == "small-energy"
    assert verify_certificate(S, cert) == []


def test_rigid_disjointness_verified():
    rng = random.Random(7)
    for _ in range(6):
        A = integer_set(sorted(rng.sample(range(300), 80)))
        cert = rigid_structure(A, Fraction(1, 4), Fraction(1, 8))
        if cert.variant != "rigid-structure":
            continue
        H = cert.rigid["H"]
        seen = set()
        for z in cert.rigid["Z"]:
            translate = {h + z for h in H}
            assert not (seen & translate)
            seen |= translate


def test_certificate_json_round_trip():
    A = integer_range(0, 64)
    cert = rigid_structure(A, Fraction(1, 2), Fraction(1, 4))
    blob = json.dumps(cert.to_json_dict(), sort_keys=True)
    back = StructureCertificate.from_json_dict(json.loads(blob))
    assert verify_certificate(A, back) == []
    assert back.to_json_dict() == cert.to_json_dict()


def test_certificate_tampering_detected():
    A = integer_range(0, 64)
    cert = energy_gap_decompose(A, Fraction(1, 2), Fraction(1, 4))
    d = cert.to_json_dict()
    d["core"]["mass_total"] += 1
    tampered = StructureCertificate.from_json_dict(d)
    assert verify_certificate(A, tampered) != []
    d2 = cert.to_json_dict()
    d2["core"]["core"] = d2["core"]["core"][:-1]
    assert verify_certificate(A, StructureCertificate.from_json_dict(d2)) != []
    d3 = cert.to_json_dict()
    d3["trace"][0]["energy"] += 2
    assert verify_certificate(A, StructureCertificate.from_json_dict(d3)) != []
    rigid = rigid_structure(A, Fraction(1, 2), Fraction(1, 4))
    d4 = rigid.to_json_dict()
    d4["rigid"]["covered_mass"] -= 1
    assert verify_certificate(A, StructureCertificate.from_json_dict(d4)) != []


def _two_step_set():
    """Three spread translates of a Sidon set: with delta = eps = 1/8 the
    decomposition passes l = 2 and fires at l = 3."""
    B = [0, 1, 4, 9, 23, 45, 87, 133, 210, 301, 412, 555]
    return integer_set(b + 10**4 * i for b in B for i in range(3))


def _certificates():
    """(A, certificate JSON) for a bare small-energy, a two-step
    popular-core and a rigid certificate."""
    rng = random.Random(1)
    spread = integer_set(rng.sample(range(10**6), 64))
    two_step = _two_step_set()
    interval = integer_range(0, 64)
    return {
        "small": (spread, energy_gap_decompose(spread, Fraction(1, 2), Fraction(1, 4))),
        "core": (two_step, energy_gap_decompose(two_step, Fraction(1, 8), Fraction(1, 8))),
        "rigid": (interval, rigid_structure(interval, Fraction(1, 2), Fraction(1, 4))),
    }


def _leaf_tampers(node, path=()):
    """(path, new value) for every leaf of a JSON tree, one at a time:
    numbers grow, flags flip, strings and element lists change."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _leaf_tampers(value, path + (key,))
    elif isinstance(node, list) and node and isinstance(node[0], dict):
        for i, value in enumerate(node):
            yield from _leaf_tampers(value, path + (i,))
    elif isinstance(node, bool):
        yield path, not node
    elif isinstance(node, (int, float)):
        yield path, node * 2 + 1
    elif isinstance(node, str):
        yield path, node + "0"
    elif isinstance(node, list):
        yield path, node[:-1] if node else [0]
    else:
        yield path, 0


def _tampered(d, path, value):
    copy = json.loads(json.dumps(d))
    target = copy
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return copy


def test_certificate_every_leaf_tamper_detected():
    for name, (A, cert) in _certificates().items():
        d = cert.to_json_dict()
        assert verify_certificate(A, StructureCertificate.from_json_dict(d)) == [], name
        leaves = list(_leaf_tampers(d))
        assert len(leaves) >= 10, name
        for path, value in leaves:
            copy = _tampered(d, path, value)
            assert copy != d, (name, path)
            if path in (("format_version",), ("kind",)):
                with pytest.raises(ValueError):
                    StructureCertificate.from_json_dict(copy)
                continue
            issues = verify_certificate(A, StructureCertificate.from_json_dict(copy))
            assert isinstance(issues, list) and issues, (name, path)


def test_certificate_structural_tampers_detected():
    certs = _certificates()
    A_core, core = certs["core"]
    assert core.variant == "popular-core" and len(core.trace) == 2
    A_small = integer_set(random.Random(1).sample(range(10**6), 64))
    small = energy_gap_decompose(A_small, Fraction(1, 4), Fraction(1, 16))
    assert small.variant == "small-energy" and small.small["k"] == 2
    assert small.parameters["l_max"] == 34

    cases = [(A_core, core, lambda d: d.update(trace=d["trace"][1:])),
             (A_core, core, lambda d: d.update(trace=[]))]
    for A, cert in certs.values():
        cases += [(A, cert, lambda d: d["parameters"].update(delta="0")),
                  (A, cert, lambda d: d["parameters"].update(eps="0")),
                  (A, cert, lambda d: d["trace"][0].update(l=99)),
                  (A, cert, lambda d: d["trace"][0].pop("kappa"))]
    n = len(A_small)
    for k in range(3, 35):  # move small.k, with that order's fields filled in
        e_k = energy_k(A_small, k).value
        fields = {"k": k, "energy": e_k, "kappa": kappa_of(e_k, n, k),
                  "below_threshold": power_at_most(e_k, n, k + Fraction(1, 4))}
        cases.append((A_small, small, lambda d, fields=fields: d["small"].update(fields)))
    for i, (A, cert, tamper) in enumerate(cases):
        d = cert.to_json_dict()
        tamper(d)
        assert d != cert.to_json_dict(), i
        issues = verify_certificate(A, StructureCertificate.from_json_dict(d))
        assert isinstance(issues, list) and issues, i


def test_pipeline_degenerate():
    rep = sum_product_pipeline(integer_set([1]), seed=0)
    assert rep.degenerate and rep.subset.elements == (1,)
    assert verify_pipeline_report(integer_set([1]), rep.to_json_dict()) == []


def test_pipeline_additive_branch_powers_of_two():
    A = integer_set([2**i for i in range(40)])
    rep = sum_product_pipeline(A, seed=4)
    assert rep.branch == "additive-small-energy"
    assert len(rep.subset) >= 0.9 * len(A)
    assert rep.verified
    assert verify_pipeline_report(A, rep.to_json_dict()) == []


def test_pipeline_multiplicative_branch_small():
    A = integer_range(1, 257)
    rep = sum_product_pipeline(A, seed=4, trials=8)
    assert rep.branch == "multiplicative-after-structure"
    assert rep.chosen_l in rep.kappa_table
    assert rep.verified
    assert verify_multiplicity(rep.subset, rep.extraction.bound, "product",
                               exempt_identity=False) is None
    assert verify_pipeline_report(A, rep.to_json_dict()) == []


def test_pipeline_report_tampering_detected():
    A = integer_range(1, 257)
    report = json.loads(json.dumps(sum_product_pipeline(A, seed=3).to_json_dict()))
    assert verify_pipeline_report(A, report) == []
    ext = report["extraction"]
    assert ext["trials"] == 20 and ext["q"] < 1  # the trials ran
    sizes = ext["trial_sizes"]
    # another seed's subset, valid for its own report and of the same size
    other = sum_product_pipeline(A, seed=11).to_json_dict()["subset"]
    assert other != report["subset"] and len(other["elements"]) == report["subset_size"]
    low = next(i for i, size in enumerate(sizes) if size < max(sizes))

    def drop_last(d):
        return dict(d, elements=d["elements"][:-1])

    tampers = {
        "parameters.delta": lambda r: r["parameters"].update(delta="1/2"),
        "parameters.eps": lambda r: r["parameters"].update(eps="1/8"),
        "parameters.seed": lambda r: r["parameters"].update(seed=4),
        "parameters.trials": lambda r: r["parameters"].update(trials=19),
        "parameters.core_variant": lambda r: r["parameters"].update(core_variant="popular"),
        "parameters.l_max": lambda r: r["parameters"].update(l_max=5),
        "degenerate": lambda r: r.update(degenerate=True),
        "zero_removed": lambda r: r.update(zero_removed=True),
        "core_set": lambda r: r.update(core_set=drop_last(r["core_set"])),
        "kappa_table": lambda r: r["kappa_table"].update({"3": r["kappa_table"]["3"] + 1e-9}),
        "chosen_l": lambda r: r.update(chosen_l=r["chosen_l"] - 1),
        "extraction.k": lambda r: r["extraction"].update(k=r["extraction"]["k"] - 1),
        "extraction.energy": lambda r: r["extraction"].update(energy=r["extraction"]["energy"] + 1),
        "extraction.q": lambda r: r["extraction"].update(q=r["extraction"]["q"] * 1.01),
        "extraction.trial_sizes length": lambda r: r["extraction"].update(
            trial_sizes=sizes + [0]),
        "extraction.trial_sizes earlier max": lambda r: r["extraction"].update(
            trial_sizes=[max(sizes)] + sizes[1:]),
        "extraction.best_trial": lambda r: r["extraction"].update(
            best_trial=r["extraction"]["best_trial"] + 1),
        "subset of another seed": lambda r: (r.update(subset=other),
                                             r["extraction"].update(subset=other)),
        "extraction.deletions": lambda r: r["extraction"].update(
            deletions=r["extraction"]["deletions"] + 1),
        "extraction.trial_sizes non-maximal entry": lambda r: r["extraction"].update(
            trial_sizes=sizes[:low] + [sizes[low] - 1] + sizes[low + 1:]),
    }
    for name, tamper in tampers.items():
        copy = json.loads(json.dumps(report))
        tamper(copy)
        assert copy != report, name
        assert verify_pipeline_report(A, copy) != [], name


# Malformed `subset` payloads of a pipeline report; each must come back as
# a mismatch, never raise.
MALFORMED_SUBSETS = {
    "no ambient": {"elements": [1]},
    "a bare list": [1],
    "a string": "1,2",
    "ambient not an object": {"ambient": "integers", "elements": [1]},
    "unknown ambient kind": {"ambient": {"kind": "reals"}, "elements": [1]},
    "ambient without modulus": {"ambient": {"kind": "integers-mod-N"}, "elements": [1]},
    "another ambient": {"ambient": {"kind": "prime-field", "p": 257}, "elements": [1]},
    "no elements": {"ambient": {"kind": "integers"}},
    "elements not a list": {"ambient": {"kind": "integers"}, "elements": 1},
    "float element": {"ambient": {"kind": "integers"}, "elements": [1.0]},
    "string element": {"ambient": {"kind": "integers"}, "elements": ["1"]},
    "bool element": {"ambient": {"kind": "integers"}, "elements": [True]},
    "nested element": {"ambient": {"kind": "integers"}, "elements": [[1]]},
    "element beyond 64 bits": {"ambient": {"kind": "integers"}, "elements": [2**70]},
    "unsorted elements": {"ambient": {"kind": "integers"}, "elements": [2, 1]},
    "repeated element": {"ambient": {"kind": "integers"}, "elements": [1, 1]},
}


def test_pipeline_report_malformed_subset_reported():
    A = integer_range(1, 129)
    report = json.loads(json.dumps(sum_product_pipeline(A, seed=7).to_json_dict()))
    assert verify_pipeline_report(A, report) == []
    for name, subset in MALFORMED_SUBSETS.items():
        issues = verify_pipeline_report(A, dict(report, subset=subset))
        assert issues and issues[0].startswith("unreadable subset"), name


def test_parameter_denominators_capped():
    A = integer_range(0, 64)
    for eps in (Fraction(1, 2), Fraction(1, 4), Fraction(1, 8), Fraction(1, 16)):
        energy_gap_decompose(A, Fraction(1, 2), eps)
    energy_gap_decompose(A, Fraction(MAX_DENOMINATOR - 1, MAX_DENOMINATOR),
                         Fraction(1, MAX_DENOMINATOR))
    with pytest.raises(CapExceeded):
        energy_gap_decompose(A, Fraction(1, 2), Fraction(1, MAX_DENOMINATOR + 1))
    with pytest.raises(CapExceeded):
        energy_gap_decompose(A, Fraction(MAX_DENOMINATOR, MAX_DENOMINATOR + 1), Fraction(1, 4))
    with pytest.raises(CapExceeded):
        sum_product_pipeline(integer_range(1, 65), eps=Fraction(1, 10**9))
    rep = sum_product_pipeline(integer_range(1, 65), seed=1, trials=2, l_max=MAX_ORDER)
    assert max(rep.kappa_table) == MAX_ORDER
    with pytest.raises(CapExceeded):
        sum_product_pipeline(integer_range(1, 65), l_max=MAX_ORDER + 1)


def test_huge_delta_denominator_refused_quickly():
    """A certificate tampered to delta = (10^9 - 1)/10^9 would ask for E_l
    to the power 10^9, and a pipeline report tampered to unbounded
    parameters would run for minutes; each is refused as a mismatch
    instead."""
    A = integer_range(0, 64)
    cert = energy_gap_decompose(A, Fraction(1, 2), Fraction(1, 4)).to_json_dict()
    cert["parameters"]["delta"] = str(Fraction(10**9 - 1, 10**9))
    start = time.perf_counter()
    issues = verify_certificate(A, StructureCertificate.from_json_dict(cert))
    assert issues and "denominator" in issues[0]
    cert["parameters"]["delta"] = "1e-999999999"  # Fraction would expand 10^999999999
    issues = verify_certificate(A, StructureCertificate.from_json_dict(cert))
    assert issues and "exponent notation" in issues[0]
    assert time.perf_counter() - start < 1.0
    report = json.loads(json.dumps(sum_product_pipeline(integer_range(1, 129),
                                                        seed=7).to_json_dict()))
    # 10^7 extraction trials or l_max = 10^5 would re-derive for minutes
    for key, value in (("trials", 10**7), ("l_max", 10**5)):
        copy = json.loads(json.dumps(report))
        copy["parameters"][key] = value
        start = time.perf_counter()
        issues = verify_pipeline_report(integer_range(1, 129), copy)
        assert issues and "exceeds" in issues[0], key
        assert time.perf_counter() - start < 1.0, key
    report["certificate"]["parameters"]["eps"] = str(Fraction(1, 10**9))
    report["parameters"]["eps"] = str(Fraction(1, 10**9))
    start = time.perf_counter()
    assert verify_pipeline_report(integer_range(1, 129), report) != []
    assert time.perf_counter() - start < 1.0


def test_pipeline_popular_core_variant():
    A = integer_range(1, 257)
    rep = sum_product_pipeline(A, seed=4, trials=8, core_variant="popular")
    assert rep.branch == "multiplicative-after-structure"
    assert rep.verified
    assert verify_pipeline_report(A, rep.to_json_dict()) == []


def test_pipeline_prime_field_guard():
    amb = AmbientSpec.prime_field(101)
    A = GroundSet.from_iterable(amb, range(20))
    with pytest.raises(PreconditionFailed):
        sum_product_pipeline(A, seed=0)  # 20^2 >= 101
    small = GroundSet.from_iterable(amb, [3, 7, 31, 50, 77, 92, 13, 44, 61, 25])
    rep = sum_product_pipeline(small, seed=0, trials=5)
    assert rep.verified


def test_pipeline_zero_removed():
    A = integer_range(0, 128)
    rep = sum_product_pipeline(A, seed=2, trials=5)
    if rep.branch == "multiplicative-after-structure":
        assert rep.zero_removed
        assert 0 not in rep.core_set.members


def test_pipeline_deterministic():
    A = integer_range(1, 300)
    r1 = sum_product_pipeline(A, seed=11, trials=5)
    r2 = sum_product_pipeline(A, seed=11, trials=5)
    assert r1.to_json_dict() == r2.to_json_dict()


def test_decompose_on_plane_sets():
    from sidonkit import hyperbola_family
    A = hyperbola_family(13, 2, t=3).output
    cert = energy_gap_decompose(A, Fraction(1, 2), Fraction(1, 4))
    assert verify_certificate(A, cert) == []
    blob = json.loads(json.dumps(cert.to_json_dict()))
    assert verify_certificate(A, StructureCertificate.from_json_dict(blob)) == []


def test_max_degree_vertex_int64_edge():
    # 2^62 - (-2^62) = 2^63 leaves int64, so this band is coded with Python ints
    P = integer_set([-2**62, 2**62] + list(range(62)))
    assert _max_degree_vertex(P, np.array([2**63], dtype=object)) == (2**62, 1)


def test_rigid_core_set_matches_oracle():
    """A ^ (H + Z) against the explicit Python set, with H and Z in their
    serialized form (plane pairs as lists)."""
    for A, shift_tuples in membership_corpus():
        kind, m = A.ambient.kind, A.ambient.modulus
        H = [list(h) if isinstance(h, tuple) else h for h in A.elements[::2]]
        for Z in shift_tuples:
            Z = [list(z) if isinstance(z, tuple) else z for z in Z]
            cert = StructureCertificate(RIGID_STRUCTURE, {}, (), rigid={"H": H, "Z": Z})
            want = {oracle_compose(kind, m, "sum", h, z) for h in H for z in Z}
            core = rigid_core_set(A, cert)
            assert list(core.elements) == sorted(want & set(A.elements)), (A.ambient, Z)
            assert GroundSet(A.ambient, core.elements) == core


def _oracle_greedy_translates(amb: AmbientSpec, W, H) -> list:
    """Keep z of W, scanned in canonical order, when the explicit set H + z
    avoids every translate kept so far."""
    kept, covered = [], set()
    for z in W:
        translate = {oracle_compose(amb.kind, amb.modulus, "sum", h, z) for h in H}
        if covered.isdisjoint(translate):
            kept.append(z)
            covered |= translate
    return kept


def test_greedy_disjoint_translates_against_brute_force():
    rng = random.Random(71)
    cases = [(AmbientSpec.integers(), range(-300, 300), 60),
             (AmbientSpec.mod(40), range(40), 30),  # translates wrap around N
             (AmbientSpec.prime_field(61), range(61), 40),
             (AmbientSpec.plane(7), [(x, y) for x in range(7) for y in range(7)], 30)]
    for amb, pool, size in cases:
        for _ in range(8):
            H = GroundSet.from_iterable(amb, rng.sample(list(pool), rng.randint(1, 6)))
            W = sorted(rng.sample(list(pool), size))
            want = _oracle_greedy_translates(amb, W, H.elements)
            assert _greedy_disjoint_translates(W, H) == want, (amb, H, W)
    # differences up to 2^63 leave int64, so these codes are Python ints
    H = integer_set([0, 1, 2**62])
    W = [-2**62, -1, 0, 1, 2**62 - 1, 2**62]
    assert _greedy_disjoint_translates(W, H) == _oracle_greedy_translates(
        H.ambient, W, H.elements) == [-2**62, 1, 2**62 - 1]


def _ap_union_set(seed: int) -> GroundSet:
    """Two to four progressions of seeded starts, steps and lengths, plus
    seeded noise, all below 10^6."""
    rng = random.Random(seed)
    parts = []
    for _ in range(rng.randint(2, 4)):
        start, step = rng.randrange(10**6), rng.choice([1, 2, 3, 5, 7, 13, 100])
        parts += [start + step * i for i in range(rng.randint(20, 200))]
    return integer_set(parts + rng.sample(range(10**6), rng.randint(0, 100)))


def test_rigid_translates_match_brute_force_when_h_is_not_the_band():
    A = _ap_union_set(44)
    cert = rigid_structure(A, Fraction(1, 4), Fraction(1, 16))
    H = cert.rigid["H"]
    assert len(H) < len(cert.core["band"])  # H is a proper part of P
    members = A.members
    masses = {a: sum(a + h in members for h in H) for a in A}  # |A ^ (H + a)|
    total = sum(masses.values())
    W = [a for a in A if 2 * len(A) * masses[a] >= total]
    assert len(W) == cert.rigid["W_size"]
    assert cert.rigid["Z"] == _oracle_greedy_translates(A.ambient, W, H)
    assert len(cert.rigid["Z"]) >= 2


def test_verify_rigid_certificate_builds_each_histogram_once(monkeypatch):
    real = counting._build_histogram
    built = []

    def spy(A, B, mode, *rest):
        built.append((A.elements, B.elements, mode))
        return real(A, B, mode, *rest)

    monkeypatch.setattr(counting, "_build_histogram", spy)
    # P - P composes every ordered pair at |P| = 255, and each unordered
    # pair once at |P| = 1023
    for A, half_pairs in ((integer_range(1, 257), False), (integer_range(1, 1025), True)):
        cert = rigid_structure(A, Fraction(1, 4), Fraction(1, 16))
        band = tuple(cert.core["band"])
        assert cert.rigid["H"] == cert.core["band"]  # H = P
        assert (len(band) > counting._HALF_CUT) == half_pairs
        built.clear()
        assert verify_certificate(A, cert) == []
        assert built.count((A.elements, band, "difference")) == 1  # A - P
        assert built.count((band, band, "difference")) == 1  # P - P
        assert len(built) == len(set(built))
