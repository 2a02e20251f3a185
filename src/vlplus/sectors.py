"""Census of the irreducible modules of the fixed-point algebra.

Labels: the two vacuum sectors, one label per negation orbit of
non-self-paired dual cosets, a signed pair per nonzero self-paired
coset, and a signed pair per central character of the twisted finite
group.  Each label carries its lowest weight, top-level dimension and
contragredient; the block dimensions of the associated finite
semisimple algebra are recovered from the same data.

Twisted sectors are parameterized by characters of the radical of the
mod-2 bilinear form (values on a fixed radical basis), with a common
top-level dimension 2^((d - r2)/2).  This is the unique assignment
making the twisted block a 2^d-dimensional sum of matrix algebras and
reduces to the familiar one-dimensional picture when every pairing is
even.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from enum import IntEnum
from fractions import Fraction
from functools import lru_cache
from math import gcd, prod

from .lattice import (
    CosetElement,
    EvenLattice,
    coset_element,
    coset_two_torsion,
    coset_is_trivial,
    delta_set,
    dual_orbits,
    mod_two_data,
    norm2_vectors,
    orbit_element,
    zero_coset,
)


class LabelKind(IntEnum):
    VAC_PLUS = 0
    VAC_MINUS = 1
    UNTWISTED = 2
    COSET = 3
    TWISTED = 4


@dataclass(frozen=True)
class CentralCharacter:
    """Sign character on the radical basis of the mod-2 form; chi(kappa) = -1 implicit."""

    values: tuple[int, ...]  # +-1 per radical basis vector
    dim_t: int

    @property
    def index(self) -> int:
        idx = 0
        for i, v in enumerate(self.values):
            if v == -1:
                idx |= 1 << i
        return idx


@dataclass(frozen=True)
class ModuleLabel:
    kind: LabelKind
    coset: CosetElement | None = None
    sign: int | None = None  # +-1 for COSET / TWISTED
    char: CentralCharacter | None = None

    def sort_key(self):
        if self.kind in (LabelKind.VAC_PLUS, LabelKind.VAC_MINUS):
            return (int(self.kind),)
        if self.kind == LabelKind.UNTWISTED:
            return (int(self.kind), *self.coset.sort_key())
        if self.kind == LabelKind.COSET:
            return (int(self.kind), *self.coset.sort_key(), 0 if self.sign == 1 else 1)
        return (int(self.kind), self.char.index, 0 if self.sign == 1 else 1)

    def __str__(self) -> str:
        return format_label(self)


VAC_PLUS = ModuleLabel(LabelKind.VAC_PLUS)
VAC_MINUS = ModuleLabel(LabelKind.VAC_MINUS)


def twisted_label(char: CentralCharacter, sign: int) -> ModuleLabel:
    return ModuleLabel(LabelKind.TWISTED, char=char, sign=sign)


def coset_labels(L: EvenLattice, c: CosetElement) -> tuple[ModuleLabel, ...]:
    """The labels a dual coset gives: V+ and V- for the zero coset, the
    signed pair (+ first) of a self-paired coset, else its orbit label,
    which stores the lesser rep of c and -c."""
    if coset_is_trivial(c):
        return (VAC_PLUS, VAC_MINUS)
    if coset_two_torsion(L, c):
        return (ModuleLabel(LabelKind.COSET, coset=c, sign=+1),
                ModuleLabel(LabelKind.COSET, coset=c, sign=-1))
    return (ModuleLabel(LabelKind.UNTWISTED, coset=orbit_element(L, c.rep)),)


def label_sign(m: ModuleLabel) -> int | None:
    """+1 for V+, -1 for V-, the sign of any other signed label; None for an orbit label."""
    if m.kind == LabelKind.VAC_PLUS:
        return 1
    if m.kind == LabelKind.VAC_MINUS:
        return -1
    return m.sign


def label_coset(L: EvenLattice, m: ModuleLabel) -> CosetElement | None:
    """The label's dual coset: the zero coset for V+-, None for a twisted label."""
    if m.kind in (LabelKind.VAC_PLUS, LabelKind.VAC_MINUS):
        return zero_coset(L)
    return m.coset


@lru_cache(maxsize=None)
def central_characters(L: EvenLattice) -> tuple[CentralCharacter, ...]:
    """All central characters, ordered by their sign-bit index."""
    m = mod_two_data(L)
    dim_t = 1 << ((L.rank - m.r2) // 2)
    chars = []
    for idx in range(1 << m.r2):
        values = tuple(-1 if (idx >> i) & 1 else 1 for i in range(m.r2))
        chars.append(CentralCharacter(values=values, dim_t=dim_t))
    return tuple(chars)


def shift_character(L: EvenLattice, chi: CentralCharacter, lam: CosetElement) -> CentralCharacter:
    """Twist by a dual coset: multiply each value by (-1)^(r_i, lam), an integer."""
    m = mod_two_data(L)
    new_vals = tuple(v * (-1 if L.pairing(r, lam.nums) // lam.den % 2 else 1)
                     for r, v in zip(m.radical_basis, chi.values))
    return CentralCharacter(values=new_vals, dim_t=chi.dim_t)


def prime_character(L: EvenLattice, chi: CentralCharacter) -> CentralCharacter:
    """Contragredient twist: multiply each value by (-1)^((r_i, r_i)/2)."""
    m = mod_two_data(L)
    new_vals = tuple(
        v * (-1 if m.q(r) else 1) for r, v in zip(m.radical_basis, chi.values)
    )
    return CentralCharacter(values=new_vals, dim_t=chi.dim_t)


def character_values(L: EvenLattice, chi: CentralCharacter, vectors) -> tuple[int, ...]:
    """chi at each integer vector, on a lattice whose mod-2 form vanishes.

    The radical is then all of L/2L on the standard basis, so chi(v) is
    the product of chi's values over the odd coordinates of v.
    """
    d = L.rank
    if mod_two_data(L).radical_basis != tuple(tuple(int(i == j) for j in range(d)) for i in range(d)):
        raise AssertionError("character values need a vanishing mod-2 form")
    return tuple(prod(x for x, c in zip(chi.values, v) if c % 2) for v in vectors)


@lru_cache(maxsize=None)
def classify_modules(L: EvenLattice) -> tuple[ModuleLabel, ...]:
    """Complete duplicate-free list of irreducible-module labels, canonically ordered."""
    labels = []
    for c, self_paired in dual_orbits(L):
        # c is already the smaller rep of its orbit
        labels += coset_labels(L, c) if self_paired else [ModuleLabel(LabelKind.UNTWISTED, coset=c)]
    labels += (twisted_label(chi, s) for chi in central_characters(L) for s in (1, -1))
    return tuple(sorted(labels, key=ModuleLabel.sort_key))


def lowest_weight(L: EvenLattice, m: ModuleLabel) -> Fraction:
    """Exact lowest conformal weight of the labelled module."""
    if m.kind == LabelKind.VAC_PLUS:
        return Fraction(0)
    if m.kind == LabelKind.VAC_MINUS:
        return Fraction(1)
    if m.kind in (LabelKind.UNTWISTED, LabelKind.COSET):
        return Fraction(m.coset.norm_num, 2 * m.coset.den)
    d = L.rank
    if m.sign == 1:
        return Fraction(d, 16)
    return Fraction(d + 8, 16)


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
    if m.sign == 1:
        return m.char.dim_t
    return L.rank * m.char.dim_t


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
    return f"T[{m.char.index}]{_sign_str(m.sign)}"


def format_coords(coords) -> str:
    """Exact coordinates joined by commas, as labels, notes and sign-oracle keys write them."""
    return ",".join(str(c) for c in coords)


def format_coset(c: CosetElement) -> str:
    """format_coords of the coset's rep, each p/q reduced straight from the numerators."""
    den = c.den
    return ",".join([str(x // g) if (g := gcd(x, den)) == den else f"{x // g}/{den // g}"
                     for x in c.nums])


def parse_label(L: EvenLattice, text: str) -> ModuleLabel:
    """Parse a label string; accepts VacPlus/VacMinus as spelled-out aliases."""
    text = text.strip()
    aliases = {"VacPlus": "V+", "VacMinus": "V-"}
    text = aliases.get(text, text)
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
            coords = tuple(read_rational(p) for p in text[2:close].split(","))
            if len(coords) != L.rank:
                raise ValueError(f"has {len(coords)} coordinates, lattice rank is {L.rank}")
            c = (orbit_element if kind == "U" else coset_element)(L, coords)  # checks G v integral
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
        if not re.fullmatch(r"[0-9]+", digits):
            raise ValueError(f"label {text!r}: character index {digits!r:.60} is not ASCII digits")
        index = digits.lstrip("0") or "0"
        # lengths first: int() refuses more digits than Python converts
        if len(index) > len(str(len(chars))) or int(index) >= len(chars):
            raise ValueError(f"label {text!r}: character index {index:.60} out of range (have {len(chars)})")
        return twisted_label(chars[int(index)], _parse_sign(text))
    raise ValueError(f"unrecognized module label {text!r}")


def read_rational(text: str) -> Fraction:
    """An optionally signed integer or p/q over ASCII digits, as a Fraction.

    ValueError naming the text for any other form, a zero denominator or
    a part past Python's int-to-str digit limit.  Fraction() alone would
    also take an exponent, whose 10^exp can take seconds to build.
    """
    if not re.fullmatch(r"[+-]?[0-9]+(/[0-9]+)?", text):
        raise ValueError(f"{text!r:.60} is not an integer or p/q")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"{text!r:.60} has a zero denominator")
    except ValueError:
        raise ValueError(f"{text!r:.60} has too many digits")


def _parse_sign(text: str) -> int:
    """The sign suffix after the label's closing ']'."""
    suffix = text[text.find("]") + 1:]
    if suffix not in ("+", "-"):
        raise ValueError(f"label {text!r}: expected sign suffix + or -, got {suffix!r}")
    return 1 if suffix == "+" else -1


def _sign_str(sign: int) -> str:
    return "+" if sign == 1 else "-"

