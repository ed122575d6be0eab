import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import membership_corpus, oracle_compose
from sidonkit import (
    AmbientMismatch,
    AmbientSpec,
    DuplicateElement,
    GroundSet,
    MalformedInput,
    NonCanonicalElement,
    OverflowBudgetExceeded,
    SidonkitError,
    UnsupportedMode,
    affine_image,
    co_sidon_check,
    integer_range,
    integer_set,
    parse_set,
    serialize_set,
    set_compose,
    shift_set,
)
from sidonkit.codes import (code_dtype, combine_codes, decode, element_codes, find_codes,
                            unique_codes)
from sidonkit.groundset import translate_intersection


def test_set_compose_examples():
    assert set_compose(integer_set([0, 1]), integer_set([0, 2]), "sum").elements == (0, 1, 2, 3)
    A = integer_set([0, 1, 3])
    assert set_compose(A, A, "difference").elements == (-3, -2, -1, 0, 1, 2, 3)
    G = integer_set([1, 2, 4])
    assert set_compose(G, G, "product").elements == (1, 2, 4, 8, 16)


def test_set_compose_identities():
    A = integer_set([3, 5, 9])
    assert set_compose(A, integer_set([0]), "sum") == A
    assert affine_image(A, 1, 0) == A


def test_set_compose_ambient_mismatch():
    with pytest.raises(AmbientMismatch):
        set_compose(integer_set([1]), GroundSet.from_iterable(AmbientSpec.mod(5), [1]), "sum")


def test_set_compose_ratio():
    F = AmbientSpec.prime_field(7)
    A = GroundSet.from_iterable(F, [1, 2, 3])
    B = GroundSet.from_iterable(F, [0, 2])
    from sidonkit import DivisionByZero
    with pytest.raises(DivisionByZero):
        set_compose(A, B, "ratio")
    ok = set_compose(A, B, "ratio", skip_noninvertible=True)
    assert ok.elements == (1, 4, 5)  # {1,2,3} / {2} mod 7
    with pytest.raises(UnsupportedMode):
        set_compose(integer_set([1, 2]), integer_set([1, 2]), "ratio")


def test_unique_codes_is_sorted_set():
    rng = random.Random(71)
    small = [rng.randrange(-50, 50) for _ in range(400)]
    big = small + [2**62 * rng.choice((-3, 3)) + x for x in small[:40]]
    for values, dtype in ((small, np.int64), (big, object), ([], np.int64), ([], object)):
        got = unique_codes(np.array(values, dtype=dtype))
        assert got.dtype == dtype and got.tolist() == sorted(set(values))
    A = integer_set(rng.sample(range(-10**6, 10**6), 300))
    assert list(set_compose(A, A, "sum").elements) == sorted({a + b for a in A for b in A})
    A = integer_set([2**62 + x for x in rng.sample(range(10**6), 60)] + [0, 1, 2])
    assert list(set_compose(A, A, "difference").elements) == sorted({a - b for a in A for b in A})


def test_set_compose_matches_oracle():
    """Every mode each ambient admits (integer ratios aside), with int64
    codes and with Python-int codes (|x| >= 2^62 or 3_037_000_500, Z/N
    with N = 2^63 + 2, the plane over F_(2^31 + 11)); an integer set whose
    composition leaves the element budget raises."""
    big_n, big_p = 2**63 + 2, 2**31 + 11
    sets = [
        integer_set([-7, -3, 0, 1, 2, 5, 9]),
        integer_set([-2**62 + 1, 2**62 - 1, 0, 1, 5]),
        integer_set([2**62, -2**62 + 9, 0, 3]),
        integer_set([-3_037_000_500, 3_037_000_500, -1, 0, 2]),
        GroundSet.from_iterable(AmbientSpec.mod(12), [0, 3, 4, 6, 11]),
        GroundSet.from_iterable(AmbientSpec.mod(big_n), [0, 1, big_n // 2, big_n - 1]),
        GroundSet.from_iterable(AmbientSpec.prime_field(13), [0, 1, 3, 9, 12]),
        GroundSet.from_iterable(AmbientSpec.plane(5), [(0, 0), (1, 3), (4, 4)]),
        GroundSet.from_iterable(AmbientSpec.plane(big_p), [(0, 1), (big_p - 1, 0), (3, 3)]),
    ]
    for A in sets:
        amb = A.ambient
        B = A.restrict(lambda x: x != 0)
        for mode in amb.modes:
            if mode == "ratio" and amb.kind == "integers":
                continue
            want = sorted({oracle_compose(amb.kind, amb.modulus, mode, a, b)
                           for a in A for b in B})
            if amb.kind == "integers" and max(map(abs, want)) > 2**63 - 1:
                with pytest.raises(OverflowBudgetExceeded):
                    set_compose(A, B, mode)
            else:
                assert list(set_compose(A, B, mode).elements) == want, (amb, mode)
    with pytest.raises(UnsupportedMode):
        set_compose(sets[4], sets[4], "product")


def test_affine_image_examples():
    A = integer_set([0, 1, 3])
    assert affine_image(A, 2, 0).elements == (0, 2, 6)
    assert affine_image(A, 1, 5).elements == (5, 6, 8)
    assert affine_image(A, 2, 1).elements == (1, 3, 7)
    with pytest.raises(NonCanonicalElement):
        affine_image(A, 0, 1)
    with pytest.raises(UnsupportedMode):
        affine_image(GroundSet.from_iterable(AmbientSpec.plane(5), [(1, 2)]), 2, 0)


def test_shift_set_plane():
    P = AmbientSpec.plane(5)
    A = GroundSet.from_iterable(P, [(0, 0), (1, 2)])
    assert shift_set(A, (4, 4)).elements == ((0, 1), (4, 4))


def test_parse_json_example():
    A = parse_set('{"ambient": {"kind": "integers"}, "elements": [3, 1, 0]}', dedupe=True)
    assert A.elements == (0, 1, 3)
    with pytest.raises(NonCanonicalElement):
        parse_set('{"ambient": {"kind": "prime-field", "p": 13}, "elements": [13]}')


def test_parse_duplicates():
    text = '{"ambient": {"kind": "integers"}, "elements": [1, 1]}'
    with pytest.raises(DuplicateElement):
        parse_set(text)
    with pytest.warns(UserWarning, match="duplicate"):
        assert parse_set(text, dedupe=True).elements == (1,)


def test_parse_text_format():
    A = parse_set("# ambient: integers\n# label: demo\n3\n1\n0\n")
    assert A.elements == (0, 1, 3)
    assert A.label == "demo"
    B = parse_set("# ambient: prime-square-plane p=5\n0,0\n4,3\n")
    assert B.elements == ((0, 0), (4, 3))
    with pytest.raises(MalformedInput):
        parse_set("3\n1\n")  # header missing
    with pytest.raises(MalformedInput) as err:
        parse_set("# ambient: integers\nx\n")
    assert err.value.line == 2
    with pytest.raises(MalformedInput):
        parse_set("{not json")
    with pytest.raises(MalformedInput):
        parse_set("")


def test_round_trip_both_formats():
    sets = [
        integer_set([-5, 0, 7], label="ints"),
        GroundSet.from_iterable(AmbientSpec.mod(12), [0, 3, 11]),
        GroundSet.from_iterable(AmbientSpec.prime_field(13), [0, 1, 12]),
        GroundSet.from_iterable(AmbientSpec.plane(5), [(0, 0), (4, 3)], label="pl"),
    ]
    for A in sets:
        for fmt in ("json", "text"):
            B = parse_set(serialize_set(A, fmt))
            assert B == A
            assert B.label == A.label


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(min_value=-(2**62), max_value=2**62), min_size=0, max_size=30),
       st.sampled_from(["json", "text"]))
def test_round_trip_random_integers(elems, fmt):
    A = integer_set(elems)
    assert parse_set(serialize_set(A, fmt)) == A


@settings(max_examples=60, deadline=None)
@given(st.sets(st.integers(min_value=0, max_value=12), max_size=13),
       st.sets(st.integers(min_value=0, max_value=12), max_size=13))
def test_sumset_cardinality_bounds(xs, ys):
    F = AmbientSpec.prime_field(13)
    X = GroundSet.from_iterable(F, xs)
    Y = GroundSet.from_iterable(F, ys)
    if not xs or not ys:
        return
    S = set_compose(X, Y, "sum")
    assert max(len(X), len(Y)) <= len(S) <= len(X) * len(Y)
    assert (len(S) == len(X) * len(Y)) == co_sidon_check(X, Y)


def test_sorted_distinct_enforced():
    with pytest.raises(NonCanonicalElement):
        GroundSet(AmbientSpec.integers(), (3, 1))
    with pytest.raises(NonCanonicalElement):
        GroundSet(AmbientSpec.integers(), (1, 1))


def test_plane_pairs_as_lists_rejected():
    # the constructor takes canonical elements only; from_iterable converts
    plane = AmbientSpec.plane(3)
    for elements in (([0, 1],), ([0, 1], [1, 2]), ((0, 1), [1, 2])):
        with pytest.raises(NonCanonicalElement):
            GroundSet(plane, elements)
    assert GroundSet.from_iterable(plane, [[1, 2], [0, 1]]).elements == ((0, 1), (1, 2))
    with pytest.raises(NonCanonicalElement):
        GroundSet(plane, ((1, 0), (0, 2)))


def test_from_iterable_equals_checked_construction():
    # from_iterable skips the constructor's checks; what it returns passes them
    cases = [(AmbientSpec.integers(), [5, -3, 5, 2**63 - 1, -(2**63 - 1)]),
             (AmbientSpec.mod(12), [11, 0, 11, 5]),
             (AmbientSpec.prime_field(13), [12, 0]),
             (AmbientSpec.plane(3), [[2, 0], (1, 2), [1, 2]]),
             (AmbientSpec.integers(), [])]
    for amb, raw in cases:
        G = GroundSet.from_iterable(amb, raw, label="g")
        checked = GroundSet(amb, G.elements, "g")
        assert G == checked and hash(G) == hash(checked) and G.label == "g"
        assert G.members == checked.members and list(G) == list(checked.elements)
    with pytest.raises(NonCanonicalElement):  # canonicalising still checks each element
        GroundSet.from_iterable(AmbientSpec.mod(12), [3, 12])


def test_label_with_a_line_break_is_not_written_as_text():
    # written raw after '# label:', the rest of the label would parse as lines
    for label in ("x\n5", "a\n# ambient: integers-mod-N N=3", "a\r\nb", "a\n", "a\u2028b"):
        A = integer_set([1, 2], label=label)
        with pytest.raises(SidonkitError):
            serialize_set(A, "text")
        B = parse_set(serialize_set(A, "json"))
        assert B == A and B.label == label
    A = parse_set('{"ambient": {"kind": "integers"}, "elements": [1, 2], "label": "x\\n5"}')
    with pytest.raises(SidonkitError):
        serialize_set(A, "text")
    assert parse_set(serialize_set(A.with_label("x 5"), "text")).label == "x 5"


def test_json_label_must_be_a_string():
    for label in ("5", '{"a": 1}', "[1]", "true"):
        with pytest.raises(MalformedInput, match="label"):
            parse_set('{"ambient": {"kind": "integers"}, "elements": [1, 2], '
                      f'"label": {label}}}')
    A = parse_set('{"ambient": {"kind": "integers"}, "elements": [1], "label": null}')
    assert A.label is None


def test_parse_set_equals_checked_construction():
    # parse_set canonicalises each element once and skips the constructor's checks
    cases = [('{"ambient": {"kind": "integers"}, "elements": [5, %d, -3, %d]}'
              % (2**63 - 1, -(2**63 - 1)), None),
             ("# ambient: integers-mod-N N=12\n11\n0\n5\n11\n", "dup"),
             ('{"ambient": {"kind": "prime-field", "p": 13}, "elements": [12, 0, 7]}', None),
             ("# ambient: prime-square-plane p=3\n2,0\n1,2\n0,2\n", None)]
    for text, dup in cases:
        if dup:
            with pytest.warns(UserWarning, match="duplicate"):
                A = parse_set(text, dedupe=True)
        else:
            A = parse_set(text)
        checked = GroundSet(A.ambient, A.elements, A.label)
        assert A == checked and hash(A) == hash(checked) and A.members == checked.members
        assert list(A.elements) == sorted(set(A.elements))


def test_serialize_is_json():
    A = integer_range(0, 4)
    obj = json.loads(serialize_set(A))
    assert obj["elements"] == [0, 1, 2, 3]


# ---------------------------------------------------------------------------
# Membership through codes, against explicit Python sets

def test_find_codes_matches_list_index():
    big = 2**63 - 1
    queries = [-big, -2**62, -8, -7, 0, 1, 3, 9, 10, 2**62, big]
    for haystack in ([], [-7, 0, 3, 9], [-big, -2**62, 0, 2**62, big]):
        for dtype in (np.int64, object):
            pos = find_codes(np.array(haystack, dtype=dtype), np.array(queries, dtype=dtype))
            assert pos.tolist() == [haystack.index(q) if q in haystack else -1 for q in queries]


def _oracle_translates(S: GroundSet, shifts) -> list:
    """The y = s + x_0 with y - x in S for every x of `shifts`."""
    kind, m = S.ambient.kind, S.ambient.modulus
    members = set(S.elements)
    return sorted(y for y in {oracle_compose(kind, m, "sum", s, shifts[0]) for s in members}
                  if all(oracle_compose(kind, m, "difference", y, x) in members for x in shifts))


def test_translate_intersection_matches_oracle():
    nonempty = overflows = 0
    for S, shift_tuples in membership_corpus():
        for shifts in shift_tuples:
            want = _oracle_translates(S, shifts)
            if S.ambient.kind == "integers" and max(map(abs, want), default=0) > 2**63 - 1:
                with pytest.raises(OverflowBudgetExceeded):  # a survivor beyond the budget
                    translate_intersection(S, shifts)
                overflows += 1
                continue
            got = translate_intersection(S, shifts)
            assert list(got.elements) == want, (S.ambient, shifts)
            assert GroundSet(S.ambient, got.elements) == got
            nonempty += len(got) > 0
    assert nonempty >= 20 and overflows
    big_set = membership_corpus()[1][0]
    assert code_dtype(big_set.ambient, "sum", big_set.elements, terms=3) is object


def test_trusted_paths_pass_the_checks():
    """restrict, with_label and set_compose build their sets unchecked; each
    result equals the checked construction and the explicit Python set."""
    for S, _ in membership_corpus():
        amb = S.ambient
        keep = set(S.elements[::2])
        R = S.restrict(keep.__contains__)
        assert list(R.elements) == sorted(keep) and GroundSet(amb, R.elements) == R
        L = S.with_label("x")
        assert L.elements == S.elements and L.label == "x"
        assert GroundSet(amb, L.elements, "x") == L
        for mode in ("difference", "sum"):
            want = sorted({oracle_compose(amb.kind, amb.modulus, mode, a, b) for a in S for b in R})
            if amb.kind == "integers" and max(map(abs, want)) > 2**63 - 1:
                continue  # beyond the element budget: test_set_compose_matches_oracle
            C = set_compose(S, R, mode)
            assert list(C.elements) == want and GroundSet(amb, C.elements) == C


# ---------------------------------------------------------------------------
# The group law on codes, against `oracle_compose`

def _codes_of(S: GroundSet, mode: str, elements) -> np.ndarray:
    return element_codes(S.ambient, elements, code_dtype(S.ambient, mode, S.elements))


def test_combine_codes_matches_oracle():
    """Every shape combine_codes takes, in every mode of every ambient of
    the membership corpus: all pairs, equal arrays, an array against one
    code, one code against an array, the negation and the diagonal."""
    dtypes = set()
    for S, _ in membership_corpus():
        amb = S.ambient
        kind, m = amb.kind, amb.modulus
        for mode in amb.modes:
            a = _codes_of(S, mode, S.elements)
            right = [y for y in S.elements if mode != "ratio" or y != 0]
            b = _codes_of(S, mode, right)
            dtypes.add(a.dtype)

            def values(codes):
                return decode(amb, mode, np.asarray(codes).ravel())

            def want(pairs):
                return [oracle_compose(kind, m, mode, x, y) for x, y in pairs]

            assert values(combine_codes(amb, mode, a[:, None], b)) == \
                want((x, y) for x in S.elements for y in right)
            assert values(combine_codes(amb, mode, a[:b.size], b[::-1])) == \
                want(zip(S.elements, right[::-1]))
            for i, y in enumerate(right if mode != "ratio" else ()):  # ratio: y an array
                assert values(combine_codes(amb, mode, a, b[i])) == \
                    want((x, y) for x in S.elements)
            for i, x in enumerate(S.elements):
                assert values(combine_codes(amb, mode, a[i], b)) == want((x, y) for y in right)
            if mode != "ratio":
                assert values(combine_codes(amb, mode, a, a)) == want(zip(S, S))
        zero = amb.identity("difference")
        d = _codes_of(S, "difference", S.elements)
        assert decode(amb, "difference", combine_codes(amb, "difference", 0, d)) == \
            [oracle_compose(kind, m, "difference", zero, x) for x in S.elements]
    assert dtypes == {np.dtype(np.int64), np.dtype(object)}
