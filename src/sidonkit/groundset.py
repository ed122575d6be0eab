"""Canonical finite sets in a declared ambient, with parsing/serialization.

A GroundSet stores strictly sorted distinct canonical elements and is
immutable; every operation returns a new set.  Two on-disk formats round
trip: a JSON object {"ambient": {...}, "elements": [...]} and a plain-text
format with a `# ambient: ...` header and one element per line.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field
from functools import cached_property

from .ambient import (
    DIFFERENCE,
    ELEMENT_MAX,
    INTEGERS,
    MOD_N,
    PLANE,
    PRIME_FIELD,
    RATIO,
    SUM,
    AmbientSpec,
    canonical_element,
    compose,
)
from .codes import (code_dtype, combine_codes, decode, element_codes, find_codes, pair_codes,
                    unique_codes)
from .errors import (
    AmbientMismatch,
    DuplicateElement,
    MalformedInput,
    NonCanonicalElement,
    OverflowBudgetExceeded,
    UnsupportedMode,
)


@dataclass(frozen=True)
class GroundSet:
    ambient: AmbientSpec
    elements: tuple = ()
    label: str | None = field(default=None, compare=False)

    def __post_init__(self):
        elems = self.elements
        for x in elems:
            if canonical_element(self.ambient, x) != x:
                raise NonCanonicalElement(f"element {x!r} is not in canonical form")
        if any(y <= x for x, y in zip(elems, elems[1:])):
            raise NonCanonicalElement("elements must be strictly sorted and distinct")

    @classmethod
    def _trusted(cls, ambient: AmbientSpec, elements: tuple,
                 label: str | None = None) -> "GroundSet":
        """A set of elements that are already canonical, strictly sorted and
        distinct, built without `__post_init__`'s checks."""
        out = cls.__new__(cls)
        out.__dict__.update(ambient=ambient, elements=elements, label=label)
        return out

    @classmethod
    def from_iterable(cls, ambient: AmbientSpec, it, label: str | None = None) -> "GroundSet":
        """Canonicalize, dedupe, and sort an arbitrary iterable of elements."""
        canon = {canonical_element(ambient, x) for x in it}
        return cls._trusted(ambient, tuple(sorted(canon)), label)

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, x) -> bool:
        return x in self.members

    @cached_property
    def members(self) -> frozenset:
        return frozenset(self.elements)

    def with_label(self, label: str | None) -> "GroundSet":
        return GroundSet._trusted(self.ambient, self.elements, label)

    def restrict(self, predicate) -> "GroundSet":
        return GroundSet._trusted(self.ambient,
                                  tuple(x for x in self.elements if predicate(x)))

    def to_dict(self) -> dict:
        d = {"ambient": self.ambient.to_dict(),
             "elements": [list(x) if isinstance(x, tuple) else x for x in self.elements]}
        if self.label is not None:
            d["label"] = self.label
        return d


def integer_set(it, label: str | None = None) -> GroundSet:
    return GroundSet.from_iterable(AmbientSpec.integers(), it, label)


def integer_range(start: int, stop: int, label: str | None = None) -> GroundSet:
    """The integers start <= x < stop as a GroundSet (half-open, like range)."""
    return integer_set(range(start, stop), label)


def _require_same_ambient(a: GroundSet, b: GroundSet) -> None:
    if a.ambient != b.ambient:
        raise AmbientMismatch(f"{a.ambient} vs {b.ambient}")


def set_compose(A: GroundSet, B: GroundSet, mode: str,
                skip_noninvertible: bool = False) -> GroundSet:
    """Elementwise composition set {a o b}, deduplicated and sorted.

    Ratio mode requires every composed value to be an element of the
    ambient, so it is available over F_p (with b = 0 pairs skipped only
    when the flag permits) but not over the integers, where ratios are
    fractions and live in histograms instead.
    """
    _require_same_ambient(A, B)
    amb = A.ambient
    if mode not in amb.modes:
        raise UnsupportedMode(f"mode {mode!r} undefined for {amb.kind}")
    if mode == RATIO and amb.kind == INTEGERS:
        raise UnsupportedMode(
            "set-level ratio over the integers would produce fractional "
            "elements; use rep_histogram for exact ratio statistics"
        )
    flat, _ = pair_codes(amb, mode, A.elements, B.elements, skip_noninvertible)
    out = tuple(decode(amb, mode, unique_codes(flat)))
    if amb.kind == INTEGERS and out and max(-out[0], out[-1]) > ELEMENT_MAX:
        raise OverflowBudgetExceeded(f"{mode} of elements exceeds the 64-bit element budget")
    return GroundSet._trusted(amb, out)


def translate_intersection(S: GroundSet, shifts) -> GroundSet:
    """The intersection of S + x over the canonical elements x of `shifts`
    (nonempty): y = s + x_0 is kept when every y - x is found in S's codes,
    which are int64 wherever s + x_0 - x provably fits.  A kept integer
    beyond the element budget raises OverflowBudgetExceeded."""
    amb = S.ambient
    dtype = code_dtype(amb, SUM, S.elements, shifts, terms=3)
    codes = element_codes(amb, S.elements, dtype)
    x = element_codes(amb, shifts, dtype)
    y = combine_codes(amb, SUM, codes, x[0])
    for i in range(1, x.size):
        y = y[find_codes(codes, combine_codes(amb, DIFFERENCE, y, x[i])) >= 0]
    return GroundSet.from_iterable(amb, decode(amb, SUM, y))


def affine_image(A: GroundSet, scale, shift) -> GroundSet:
    """{scale*a + shift}; bijective whenever scale is invertible."""
    amb = A.ambient
    if amb.kind == PLANE:
        raise UnsupportedMode("affine images are defined for scalar ambients only")
    scale = canonical_element(amb, scale)
    shift = canonical_element(amb, shift)
    if scale == 0:
        raise NonCanonicalElement("scale must be nonzero")
    if amb.kind == INTEGERS:
        out = []
        for a in A:
            v = scale * a + shift
            if abs(v) > 2**63 - 1:
                raise OverflowBudgetExceeded(f"affine image {scale}*{a}+{shift} overflows")
            out.append(v)
    else:
        m = amb.modulus
        out = [(scale * a + shift) % m for a in A]
    return GroundSet.from_iterable(amb, out)


def shift_set(A: GroundSet, t) -> GroundSet:
    """Translate A by t (any ambient, including the plane)."""
    amb = A.ambient
    t = canonical_element(amb, t)
    return GroundSet.from_iterable(amb, (compose(amb, "sum", a, t) for a in A))


# ---------------------------------------------------------------------------
# Parsing / serialization

_TEXT_HEADER = "# ambient:"


def _parse_ambient_header(line: str, lineno: int) -> AmbientSpec:
    body = line[len(_TEXT_HEADER):].strip()
    parts = body.split()
    if not parts:
        raise MalformedInput("empty ambient header", line=lineno)
    kind = parts[0]
    params = {}
    for tok in parts[1:]:
        if "=" not in tok:
            raise MalformedInput(f"bad ambient parameter {tok!r}", line=lineno)
        key, val = tok.split("=", 1)
        try:
            params[key] = int(val)
        except ValueError:
            raise MalformedInput(f"non-integer ambient parameter {tok!r}", line=lineno)
    try:
        if kind == INTEGERS:
            return AmbientSpec.integers()
        if kind == MOD_N:
            return AmbientSpec.mod(params["N"])
        if kind in (PRIME_FIELD, PLANE):
            return AmbientSpec(kind, params["p"])
    except KeyError as exc:
        raise MalformedInput(f"ambient {kind!r} missing parameter {exc}", line=lineno)
    raise MalformedInput(f"unknown ambient kind {kind!r}", line=lineno)


def _parse_text(text: str, dedupe: bool) -> GroundSet:
    ambient = None
    label = None
    raw = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith(_TEXT_HEADER):
            ambient = _parse_ambient_header(stripped, lineno)
            continue
        if stripped.startswith("# label:"):
            label = stripped[len("# label:"):].strip()
            continue
        if stripped.startswith("#"):
            continue
        if ambient is None:
            raise MalformedInput("element before '# ambient:' header", line=lineno)
        if ambient.kind == PLANE:
            pieces = stripped.split(",")
            if len(pieces) != 2:
                raise MalformedInput("expected 'x,y' pair", line=lineno)
            try:
                elem = (int(pieces[0]), int(pieces[1]))
            except ValueError:
                raise MalformedInput(f"non-integer coordinate in {stripped!r}", line=lineno)
        else:
            try:
                elem = int(stripped)
            except ValueError:
                raise MalformedInput(f"non-integer element {stripped!r}", line=lineno)
        raw.append((lineno, elem))
    if ambient is None:
        raise MalformedInput("missing '# ambient:' header", line=1)
    return _finish_parse(ambient, raw, label, dedupe)


def _finish_parse(ambient: AmbientSpec, raw, label, dedupe: bool) -> GroundSet:
    seen = set()
    elems = []
    dropped = 0
    for lineno, elem in raw:
        elem = canonical_element(ambient, elem)
        if elem in seen:
            if not dedupe:
                raise DuplicateElement(
                    f"duplicate element {elem!r}"
                    + (f" at line {lineno}" if lineno is not None else "")
                )
            dropped += 1
            continue
        seen.add(elem)
        elems.append(elem)
    if dropped:
        warnings.warn(f"dropped {dropped} duplicate element(s)", stacklevel=2)
    return GroundSet._trusted(ambient, tuple(sorted(elems)), label)


def parse_set(text: str, dedupe: bool = False) -> GroundSet:
    """Parse either on-disk format; duplicates error unless dedupe is set."""
    stripped = text.lstrip()
    if not stripped:
        raise MalformedInput("empty input", line=1)
    if not stripped.startswith("{"):
        return _parse_text(text, dedupe)
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedInput(f"invalid JSON: {exc.msg}", line=exc.lineno, position=exc.colno)
    if not isinstance(obj, dict) or "ambient" not in obj or "elements" not in obj:
        raise MalformedInput("JSON set needs 'ambient' and 'elements' keys")
    ambient = AmbientSpec.from_dict(obj["ambient"])
    if not isinstance(obj["elements"], list):
        raise MalformedInput("'elements' must be a list")
    raw = [(None, elem) for elem in obj["elements"]]
    label = obj.get("label")
    if label is not None and not isinstance(label, str):
        raise MalformedInput("'label' must be a string")
    return _finish_parse(ambient, raw, label, dedupe)


def serialize_set(A: GroundSet, fmt: str = "json") -> str:
    """Canonical text for A; parse(serialize(A)) == A in either format."""
    if fmt == "json":
        return json.dumps(A.to_dict(), sort_keys=True, separators=(", ", ": ")) + "\n"
    if fmt != "text":
        raise UnsupportedMode(f"unknown serialization format {fmt!r}")
    amb = A.ambient
    header = amb.kind
    if amb.kind == MOD_N:
        header += f" N={amb.modulus}"
    elif amb.kind in (PRIME_FIELD, PLANE):
        header += f" p={amb.modulus}"
    lines = [f"{_TEXT_HEADER} {header}"]
    if A.label is not None:
        if "".join(A.label.splitlines()) != A.label:
            raise MalformedInput(f"label {A.label!r} holds a line break, which the text "
                                 "format cannot write")
        lines.append(f"# label: {A.label}")
    for x in A:
        lines.append(f"{x[0]},{x[1]}" if isinstance(x, tuple) else str(x))
    return "\n".join(lines) + "\n"
