"""Census of the irreducible modules of the fixed-point algebra.

Labels: the two vacuum sectors, one label per negation orbit of
non-self-paired dual cosets, a signed pair per nonzero self-paired
coset, and a signed pair per central character of the twisted finite
group.  Each label carries its lowest weight, top-level dimension and
contragredient; the block dimensions of the associated finite
semisimple algebra are recovered from the same data.

Twisted sectors are parameterized by characters of the radical of the
mod-2 bilinear form.  A character is an integer index: bit i is set iff
it is -1 on radical basis vector i, which is the i of the label T[i].
Every character shares one top-level dimension 2^((d - r2)/2)
(twisted_dimension).  This is the unique assignment making the twisted
block a 2^d-dimensional sum of matrix algebras and reduces to the
familiar one-dimensional picture when every pairing is even.

Every lowest weight lies on the series grid 1/series_denominator(L);
weight_num gives it as an integer numerator over that grid.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from enum import IntEnum
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .lattice import (
    CosetElement,
    EvenLattice,
    _canonical,
    coset_two_torsion,
    coset_is_trivial,
    delta_set,
    dual_orbits,
    mod_two_data,
    norm2_vectors,
    zero_coset,
)


class LabelKind(IntEnum):
    VAC_PLUS = 0
    VAC_MINUS = 1
    UNTWISTED = 2
    COSET = 3
    TWISTED = 4


@dataclass(frozen=True)
class ModuleLabel:
    kind: LabelKind
    coset: CosetElement | None = None
    sign: int | None = None  # +-1 for COSET / TWISTED
    char: int | None = None  # central character index, TWISTED only

    def sort_key(self):
        if self.kind in (LabelKind.VAC_PLUS, LabelKind.VAC_MINUS):
            return (int(self.kind),)
        if self.kind == LabelKind.UNTWISTED:
            return (int(self.kind), *self.coset.sort_key())
        if self.kind == LabelKind.COSET:
            return (int(self.kind), *self.coset.sort_key(), 0 if self.sign == 1 else 1)
        return (int(self.kind), self.char, 0 if self.sign == 1 else 1)

    def __str__(self) -> str:
        return format_label(self)


VAC_PLUS = ModuleLabel(LabelKind.VAC_PLUS)
VAC_MINUS = ModuleLabel(LabelKind.VAC_MINUS)
_VACUUM_SIGNS = {LabelKind.VAC_PLUS: 1, LabelKind.VAC_MINUS: -1}  # V+- carry no sign field


def twisted_label(char: int, sign: int) -> ModuleLabel:
    return ModuleLabel(LabelKind.TWISTED, char=char, sign=sign)


@lru_cache(maxsize=None)
def twisted_pair(char: int) -> tuple[ModuleLabel, ModuleLabel]:
    """T[char]+ and T[char]-, built once per character index."""
    return twisted_label(char, +1), twisted_label(char, -1)


def coset_labels(L: EvenLattice, c: CosetElement) -> tuple[ModuleLabel, ...]:
    """The labels a dual coset gives: V+ and V- for the zero coset, the
    signed pair (+ first) of a self-paired coset, else its orbit label,
    which stores the lesser rep of c and -c."""
    if coset_is_trivial(c):
        return (VAC_PLUS, VAC_MINUS)
    if coset_two_torsion(L, c):
        return (ModuleLabel(LabelKind.COSET, coset=c, sign=+1),
                ModuleLabel(LabelKind.COSET, coset=c, sign=-1))
    return (ModuleLabel(LabelKind.UNTWISTED, coset=_canonical(L, c.den, c.nums, (1, -1))),)


def label_sign(m: ModuleLabel) -> int | None:
    """+1 for V+, -1 for V-, the sign of any other signed label; None for an orbit label."""
    return _VACUUM_SIGNS.get(m.kind, m.sign)


def label_coset(L: EvenLattice, m: ModuleLabel) -> CosetElement | None:
    """The label's dual coset: the zero coset for V+-, None for a twisted label."""
    if m.kind in (LabelKind.VAC_PLUS, LabelKind.VAC_MINUS):
        return zero_coset(L)
    return m.coset


def central_characters(L: EvenLattice) -> range:
    """All central character indices: bit i set iff the character is -1 on
    radical basis vector i (chi(kappa) = -1 is implicit)."""
    return range(1 << mod_two_data(L).r2)


def twisted_dimension(L: EvenLattice) -> int:
    """The top-level dimension 2^((d - r2)/2) that every central character shares."""
    return 1 << ((L.rank - mod_two_data(L).r2) // 2)


def shift_character(L: EvenLattice, chi: int, lam: CosetElement) -> int:
    """Twist by a dual coset: flip bit i where (r_i, lam), an integer, is odd."""
    flips = (L.pairing(r, lam.nums) // lam.den % 2 for r in mod_two_data(L).radical_basis)
    return chi ^ sum(f << i for i, f in enumerate(flips))


def prime_character(L: EvenLattice, chi: int) -> int:
    """Contragredient twist: flip bit i where (r_i, r_i)/2 is odd."""
    m = mod_two_data(L)
    return chi ^ sum(m.q(r) << i for i, r in enumerate(m.radical_basis))


def character_values(L: EvenLattice, chi: int, vectors) -> tuple[int, ...]:
    """chi at each integer vector, +-1, on a lattice whose mod-2 form vanishes.

    The radical is then all of L/2L on the standard basis, so chi(v) is
    -1 iff chi has an odd number of set bits at the odd coordinates of v.
    """
    if mod_two_data(L).radical_basis != _standard_basis(L.rank):
        raise AssertionError("character values need a vanishing mod-2 form")
    return tuple(-1 if (chi & sum((c % 2) << i for i, c in enumerate(v))).bit_count() % 2 else 1
                 for v in vectors)


@lru_cache(maxsize=None)
def _standard_basis(d: int) -> tuple[tuple[int, ...], ...]:
    """The rows of the d x d identity, built once per rank."""
    return tuple(tuple(int(i == j) for j in range(d)) for i in range(d))


@lru_cache(maxsize=None)
def classify_modules(L: EvenLattice) -> tuple[ModuleLabel, ...]:
    """Complete duplicate-free list of irreducible-module labels, canonically ordered."""
    labels = []
    for c, self_paired in dual_orbits(L):
        # c is already the smaller rep of its orbit
        labels += coset_labels(L, c) if self_paired else [ModuleLabel(LabelKind.UNTWISTED, coset=c)]
    labels += (twisted_label(chi, s) for chi in central_characters(L) for s in (1, -1))
    return tuple(sorted(labels, key=ModuleLabel.sort_key))


def module_count(L: EvenLattice) -> int:
    """len(classify_modules(L)) in closed form: (det + 7 * 2^r2) / 2.

    The 2^r2 cosets with 2 lam in L (the radical of the mod-2 form) give
    two labels each (V+- for the zero coset, else a signed pair), the
    other det - 2^r2 one label per +- pair, and the 2^r2 central
    characters two twisted labels each."""
    return (L.det + 7 * (1 << mod_two_data(L).r2)) // 2


def series_denominator(L: EvenLattice) -> int:
    """Exponent grid for the lattice: lcm(16, 2*det) holds every weight offset."""
    return 16 * (2 * L.det) // gcd(16, 2 * L.det)


def weight_num(L: EvenLattice, m: ModuleLabel) -> int:
    """The lowest weight's numerator over series_denominator(L): a coset's
    least norm norm_num / det halved, d/16 for T+ and (d + 8)/16 for T-."""
    n = series_denominator(L)
    if m.kind == LabelKind.VAC_PLUS:
        return 0
    if m.kind == LabelKind.VAC_MINUS:
        return n
    if m.kind in (LabelKind.UNTWISTED, LabelKind.COSET):
        return m.coset.norm_num * (n // (2 * m.coset.den))
    return (L.rank if m.sign == 1 else L.rank + 8) * (n // 16)


def top_level_dimension(L: EvenLattice, m: ModuleLabel) -> int:
    """Dimension of the lowest-weight space."""
    if m.kind == LabelKind.VAC_PLUS:
        return 1
    if m.kind == LabelKind.VAC_MINUS:
        return L.rank + len(norm2_vectors(L)) // 2
    if m.kind == LabelKind.UNTWISTED:
        return len(delta_set(L, m.coset))
    if m.kind == LabelKind.COSET:
        # the involution a -> -2*lam - a on the delta set is fixed-point free
        # for lam outside the lattice, so each sign receives half
        return len(delta_set(L, m.coset)) // 2
    return twisted_dimension(L) * (1 if m.sign == 1 else L.rank)


def contragredient(L: EvenLattice, m: ModuleLabel) -> ModuleLabel:
    """Dual module label; an involution on the census."""
    if m.kind in (LabelKind.VAC_PLUS, LabelKind.VAC_MINUS, LabelKind.UNTWISTED):
        return m
    if m.kind == LabelKind.COSET:
        doubled, rem = divmod(2 * m.coset.norm_num, m.coset.den)
        if rem:
            raise AssertionError("self-paired coset must have half-integral norm")
        if doubled % 2 == 0:
            return m
        return replace(m, sign=-m.sign)
    return twisted_label(prime_character(L, m.char), m.sign)


# ---------------------------------------------------------------------------
# stable label grammar: V+ | V- | U[...] | C[...]+- | T[i]+-
# ---------------------------------------------------------------------------

def format_label(m: ModuleLabel) -> str:
    if m.kind == LabelKind.VAC_PLUS:
        return "V+"
    if m.kind == LabelKind.VAC_MINUS:
        return "V-"
    if m.kind == LabelKind.UNTWISTED:
        return f"U[{format_coset(m.coset)}]"
    if m.kind == LabelKind.COSET:
        return f"C[{format_coset(m.coset)}]{_sign_str(m.sign)}"
    return f"T[{m.char}]{_sign_str(m.sign)}"


def format_coords(coords) -> str:
    """Exact coordinates joined by commas, as labels, notes and sign-oracle keys write them."""
    return ",".join(str(c) for c in coords)


def format_ratio(p: int, q: int) -> str:
    """str(Fraction(p, q)) for q > 0, reduced straight from the integers."""
    g = gcd(p, q)
    return str(p // g) if g == q else f"{p // g}/{q // g}"


def format_coset(c: CosetElement) -> str:
    """format_coords of the coset's rep, each coordinate a format_ratio."""
    return ",".join([format_ratio(x, c.den) for x in c.nums])


def parse_label(L: EvenLattice, text: str) -> ModuleLabel:
    """Parse a label string; accepts VacPlus/VacMinus as spelled-out aliases."""
    text = text.strip()
    text = _ALIASES.get(text, text)
    if text == "V+":
        return VAC_PLUS
    if text == "V-":
        return VAC_MINUS
    kind = text[:1]
    close = text.find("]")
    if kind in ("U", "C", "T") and text[1:2] == "[" and close < 0:
        raise ValueError(f"label {text!r} lacks its closing ']'")
    if kind in ("U", "C") and text[1:2] == "[":
        try:
            coords = [_read_ratio(p) for p in text[2:close].split(",")]
            if len(coords) != L.rank:
                raise ValueError(f"has {len(coords)} coordinates, lattice rank is {L.rank}")
            # the numerators over the least common denominator D, as _scaled makes them
            D = lcm(*(q for _, q in coords))
            c = _canonical(L, D, [p * (D // q) for p, q in coords],  # checks G v integral
                           (1, -1) if kind == "U" else (1,))
        except ValueError as e:
            raise ValueError(f"label {text!r}: {e}")
        if kind == "U":
            if text[close + 1:]:
                raise ValueError(f"label {text!r}: untwisted labels carry no sign")
            if coset_two_torsion(L, c):
                raise ValueError(f"label {text!r}: coset is self-paired; use a signed C label")
            return ModuleLabel(LabelKind.UNTWISTED, coset=c)
        sign = _parse_sign(text)
        if not coset_two_torsion(L, c) or coset_is_trivial(c):
            raise ValueError(f"label {text!r}: C labels require a nonzero self-paired coset")
        return ModuleLabel(LabelKind.COSET, coset=c, sign=sign)
    if kind == "T" and text[1:2] == "[":
        digits, chars = text[2:close], central_characters(L)
        if not _DIGITS.fullmatch(digits):
            raise ValueError(f"label {text!r}: character index {digits!r:.60} is not ASCII digits")
        index = digits.lstrip("0") or "0"
        # lengths first: int() refuses more digits than Python converts
        if len(index) > len(str(len(chars))) or int(index) >= len(chars):
            raise ValueError(f"label {text!r}: character index {index:.60} out of range (have {len(chars)})")
        return twisted_label(int(index), _parse_sign(text))
    raise ValueError(f"unrecognized module label {text!r}")


_ALIASES = {"VacPlus": "V+", "VacMinus": "V-"}
_DIGITS = re.compile(r"[0-9]+")
_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def read_rational(text: str) -> Fraction:
    """An optionally signed integer or p/q over ASCII digits, as a Fraction.

    ValueError naming the text for any other form, a zero denominator or
    a part past Python's int-to-str digit limit.  Fraction() alone would
    also take an exponent, whose 10^exp can take seconds to build.  The
    parts its one pattern matched are read as ints, and the text no further.
    """
    return Fraction(*_read_ratio(text))


def _read_ratio(text: str) -> tuple[int, int]:
    """read_rational's value as integers (p, q) in lowest terms, q > 0, with its messages."""
    if not (match := _RATIONAL.fullmatch(text)):
        raise ValueError(f"{text!r:.60} is not an integer or p/q")
    p, q = match.groups()
    try:
        p, q = int(p), int(q or 1)
    except ValueError:
        raise ValueError(f"{text!r:.60} has too many digits")
    if not q:
        raise ValueError(f"{text!r:.60} has a zero denominator")
    g = gcd(p, q)
    return p // g, q // g


def _parse_sign(text: str) -> int:
    """The sign suffix after the label's closing ']'."""
    suffix = text[text.find("]") + 1:]
    if suffix not in ("+", "-"):
        raise ValueError(f"label {text!r}: expected sign suffix + or -, got {suffix!r}")
    return 1 if suffix == "+" else -1


def _sign_str(sign: int) -> str:
    return "+" if sign == 1 else "-"

