"""Decompositions over smaller fixed-point subalgebras.

Two routes: over the tensor product of the rank-one subalgebras of an
orthogonal base (diagonal Gram only), and over the fixed-point algebra
of a full-rank sublattice.  An orthogonal branching is a structure: the
rank-one labels each factor offers (frame_choices, on any index-one
orthogonal frame), plus a parity, the parent's sign, that a part's
signs must multiply to.  Its parts, one label per factor, are that
product expanded under the parity (every factor but the last free, the
last's sign forced), which is what the CLI names; its character stays
in factored form, with the products of leading factor sums cached across
branchings.  A
sublattice branching walks the classes of (lambda + L)/L' in integers,
one walk per +- pair (lattice.py owns that Smith-form arithmetic, and
sublattice_orbit_count the part count), into one cached table of
classes and their labels per coset and square-root branch that V+- and
both signs of a C label share (_class_table).
Its parts are labels over the sublattice, and its character is the
coset_character_halves of all of them, V+- included: the parts' thetas
summed in integers under one Euler product of the sublattice; a part
whose coset's least norm reaches twice the order adds no theta there
and is not walked.  Every route writes its character as (a + s b) / 2
(_character_halves), and every decomposition is verified by one exact
character identity, 2 ch = a + s b against the parent's character in one
pass on its grid, which is the normative check: for a nonzero
self-paired coset the two signed modules have equal characters, so the
sign chosen for such a part is metadata: computed from the involution
coefficient on the canonical lowest-weight vector, it flips with the
square-root branch (root_branch) of the involution's lift.

Twisted parents over a sublattice branch into one abstract block
carrying only sign and multiplicity; the census of the finer twisted
characters is not pinned down by the branching data, but the dimension
bookkeeping (and hence the character identity) is.

label_row is what certify reads of a label over either route's
subalgebra: its contragredient and its constituents' key, parity and
part count, with no branching and no census; label_rows caches it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from itertools import product
from math import prod
from typing import Callable, NamedTuple

from .lattice import (
    CosetElement,
    EvenLattice,
    NotOrthogonalBase,
    Sublattice,
    _canonical,
    _rational,
    coset_two_torsion,
    epsilon_cocycle,
    integral_coords,
    orthogonal_sublattice,
    sublattice,
    sublattice_classes,
    sublattice_orbit_count,
    validate_even_lattice,
)
from .qseries import QSeries, character, character_label, coset_character_halves
from .sectors import (
    LabelKind,
    ModuleLabel,
    character_values,
    contragredient,
    coset_labels,
    format_coset,
    label_coset,
    label_sign,
    twisted_dimension,
    twisted_label,
    twisted_pair,
)


@dataclass(frozen=True)
class TwistedBlockPart:
    """Abstract twisted summands: only sign and total multiplicity are known."""

    sign: int
    multiplicity: int


# a label over the sublattice, one label per orthogonal factor, or a twisted block
BranchPart = ModuleLabel | tuple[ModuleLabel, ...] | TwistedBlockPart


@dataclass(frozen=True)
class BranchList:
    """A decomposition of parent over a sublattice or over orthogonal factors.

    An orthogonal branching is given by choices (the labels factor i
    offers) and the parent's sign; parts is derived from them here, as
    the combinations whose signs multiply to the parent's (all of them
    for an orbit parent), in product order, so it is never passed
    alongside choices (parity_product builds them).  Any
    other branching is over a sublattice, and its parts are untwisted
    labels or a single twisted block: the two shapes branch_sublattice
    makes, and the two that _character_halves computes.
    """

    parent_lattice: EvenLattice
    parent: ModuleLabel
    parts: tuple[BranchPart, ...] = ()
    sublattice: EvenLattice | None = None
    factors: tuple[EvenLattice, ...] | None = None
    notes: tuple[str, ...] = ()
    choices: tuple[tuple[ModuleLabel, ...], ...] | None = None

    def __post_init__(self):
        if self.choices is not None:
            if self.parts:
                raise ValueError("an orthogonal branching derives its parts from its choices")
            if self.factors is None or len(self.factors) != len(self.choices):
                raise ValueError("an orthogonal branching needs one factor per choice")
            object.__setattr__(self, "parts", tuple(parity_product(self.choices, label_sign(self.parent))))
        elif self.sublattice is None:
            raise ValueError("a branching without choices needs a sublattice")
        elif not (all(isinstance(p, ModuleLabel) and p.kind != LabelKind.TWISTED for p in self.parts)
                  or len(self.parts) == 1 and isinstance(self.parts[0], TwistedBlockPart)):
            raise ValueError("a sublattice branching's parts are untwisted labels or one twisted block")


def parity_product(choices, sign: int | None) -> list[tuple[ModuleLabel, ...]]:
    """The tuples of product(*choices), in its order, whose labels' signs
    multiply to sign; all of them for sign None.  Built under the
    constraint, not filtered: every factor but the last is free, and the
    last gives each prefix only its labels of the sign that completes the
    prefix's sign product to sign."""
    if sign is None:
        return list(product(*choices))
    last = {1: [], -1: []}
    for lab in choices[-1]:
        last[label_sign(lab)].append((lab,))
    signs = [map(label_sign, c) for c in choices[:-1]]
    heads = zip(product(*choices[:-1]), map(prod, product(*signs)))
    return [head + x for head, t in heads for x in last[sign * t]]


# ---------------------------------------------------------------------------
# orthogonal base route
# ---------------------------------------------------------------------------

def branch_orthogonal(L: EvenLattice, m: ModuleLabel) -> BranchList:
    """Decompose over the tensor product of the rank-one fixed-point algebras.

    Requires a diagonal Gram matrix; the choices are frame_choices on the
    identity frame.  A part picks one label per factor, with signs
    multiplying to the parent's sign; an orbit parent has no constraint.
    """
    if not L.is_diagonal():
        raise NotOrthogonalBase("orthogonal branching needs a diagonal Gram matrix")
    return BranchList(parent_lattice=L, parent=m, factors=_factors(L),
                      choices=frame_choices(orthogonal_sublattice(L), m))


def frame_choices(S: Sublattice, m: ModuleLabel) -> tuple[tuple[ModuleLabel, ...], ...]:
    """The rank-one labels each factor of an index-one orthogonal frame offers m.

    Factor i is the rank-one lattice of the frame's i-th norm.  It offers
    the signed pair of a trivial or self-paired frame coordinate of m's
    coset, or of the factor character a twisted m takes on frame vector
    i, else the orbit label of the coordinate.
    """
    if m.kind == LabelKind.TWISTED:
        # an orthogonal frame of index one forces the mod-2 form to vanish;
        # a rank-one factor's character is 1 where m's is -1 on its vector
        chars = (int(v == -1) for v in character_values(S.parent, m.char, S.basis))
        return tuple(map(twisted_pair, chars))
    lam = label_coset(S.parent, m)
    den = lam.den * S.smith[-1]
    return tuple(_coordinate_labels(factor, x % den, den)
                 for factor, x in zip(_factors(S.lattice), S.sub_nums(lam.nums)))


@lru_cache(maxsize=None)
def _factors(frame: EvenLattice) -> tuple[EvenLattice, ...]:
    """The rank-one lattices of a diagonal Gram's norms."""
    return tuple(validate_even_lattice([[row[i]]]) for i, row in enumerate(frame.gram))


@lru_cache(maxsize=None)
def _coordinate_labels(factor: EvenLattice, x: int, den: int) -> tuple[ModuleLabel, ...]:
    """The labels the coset of x / den gives on a rank-one factor."""
    return coset_labels(factor, _canonical(factor, den, (x,), (1,)))


class LabelRow(NamedTuple):
    """label_row's facts: the contragredient, and the key, parity and part
    count of the label's constituents over a subalgebra."""

    dual: ModuleLabel
    key: tuple[tuple[ModuleLabel, ...], ...] | CosetElement | None
    parity: int | None
    parts: int


def subalgebra_route(S: Sublattice) -> str:
    """"orthogonal" (a tensor product of rank-one algebras) iff S has index
    one, else "sublattice": at index one the fixed points of S are the
    algebra itself, and above it S is no orthogonal frame of the parent."""
    return "orthogonal" if S.index == 1 else "sublattice"


def label_row(S: Sublattice, m: ModuleLabel) -> LabelRow:
    """m's row over the fixed points of S, read off S and m alone (no census).

    Orthogonal route: the key is frame_choices(S, m), the parity m's sign
    (None for an orbit label, and for a coset label on a non-diagonal
    parent, whose rebased sign is set by convention), and the parts those
    parity_product expands: 2 to the number of factors offering two
    labels, halved by a parity.  Sublattice route: the key is m's coset
    (None for a twisted label), with no parity, and the parts those
    branch_sublattice gives: the sublattice_orbit_count of the coset, or
    one twisted block.
    """
    L = S.parent
    dual = contragredient(L, m)
    if subalgebra_route(S) == "sublattice":
        c = label_coset(L, m)
        return LabelRow(dual, c, None, 1 if c is None else sublattice_orbit_count(S, c))
    key = frame_choices(S, m)
    parity = None if m.kind == LabelKind.COSET and not L.is_diagonal() else label_sign(m)
    return LabelRow(dual, key, parity, 2 ** (sum(len(c) == 2 for c in key) - (parity is not None)))


@lru_cache(maxsize=None)
def label_rows(S: Sublattice) -> Callable[[ModuleLabel], LabelRow]:
    """label_row over S, cached per label: a caller hashes S once, then
    reads rows by label alone, and each (S, label) row is made once."""
    return lru_cache(maxsize=None)(partial(label_row, S))


# ---------------------------------------------------------------------------
# sublattice route
# ---------------------------------------------------------------------------

def _root_unit(eps_value: int, branch: int, is_zero: bool) -> int:
    """Square root of a cocycle value as a power of i (0..3); identity at zero."""
    return 0 if is_zero else (eps_value == -1) + 2 * (branch == -1)


@lru_cache(maxsize=None)
def _class_table(S: Sublattice, lam: CosetElement, root_branch: int
                 ) -> tuple[tuple[CosetElement, tuple[ModuleLabel, ...], int | None], ...]:
    """(c, labels, ratio) per class of sublattice_classes(S, lam), in its order.

    labels are the labels the class gives over the sublattice: the orbit
    label of a paired class, the signed pair (+ first) of a self-paired
    one, made once here rather than per branching.  ratio is None for a
    paired class; for a self-paired one it is the
    ratio of the parent and local involution coefficients on the
    canonical vector c, as a power of i (0..3) under root_branch.  It
    depends on the coset and the class, not on a label's sign, so V+- (and
    the two signs of a C label) share one table, one class walk and one
    set of cocycle calls; what the parent contributes (2 lam and its root
    unit) is computed once."""
    L, sub = S.parent, S.lattice
    if coset_two_torsion(L, lam):
        two_lam = integral_coords([2 * x for x in lam.nums], lam.den)
        zero = not any(two_lam)
        unit_l = _root_unit(epsilon_cocycle(L, two_lam, two_lam), root_branch, zero)
    rows = []
    for c, self_paired in sublattice_classes(S, lam):
        if not self_paired:
            # c is already the smaller rep of the orbit {x, -x}
            rows.append((c, (ModuleLabel(LabelKind.UNTWISTED, coset=c),), None))
            continue
        # involution coefficient of the parent module on the canonical
        # vector of the class, divided by the local one
        unit_g = unit_l
        if not zero:
            # c.den = index^2 lam.den
            x = integral_coords([a - S.index ** 2 * b for a, b in zip(S.lift(c.nums), lam.nums)],
                                c.den)
            unit_g += 2 * (epsilon_cocycle(L, x, two_lam) == -1)
        two_mu = integral_coords([2 * x for x in c.nums], c.den)
        ratio = (unit_g - _root_unit(epsilon_cocycle(sub, two_mu, two_mu), root_branch,
                                     not any(two_mu))) % 4
        rows.append((c, coset_labels(sub, c), ratio))
    return tuple(rows)


def branch_sublattice(
    L: EvenLattice,
    basis: tuple[tuple[int, ...], ...],
    m: ModuleLabel,
    root_branch: int = 1,
) -> BranchList:
    """Decompose over the fixed-point algebra of a full-rank sublattice.

    Self-paired classes contribute a single signed module whose sign is
    the parent sign times the ratio of the parent and local involution
    coefficients on the canonical lowest-weight vector; when that ratio
    is imaginary the positive label is reported and flagged in notes.
    root_branch (+1 or -1) picks the square root of eps(2 lambda, 2
    lambda) in those coefficients; only these C signs depend on it.
    Paired classes contribute one orbit module per pair; twisted parents
    contribute placeholder blocks.  Parts and notes follow the sort_key
    of the class representative.  The classes, their labels and their
    ratios are one cached table per (sublattice, coset, root_branch)
    (_class_table), so only the label's sign is read per call.
    """
    S = sublattice(L, tuple(map(tuple, basis)))
    sub = S.lattice
    if m.kind == LabelKind.TWISTED:
        mult, rem = divmod(twisted_dimension(L), twisted_dimension(sub))
        if rem:
            raise AssertionError("twisted dimensions must refine")
        return BranchList(parent_lattice=L, parent=m, sublattice=sub,
                          parts=(TwistedBlockPart(sign=m.sign, multiplicity=mult),))
    sign = label_sign(m)
    notes: list[str] = []
    parts: list[BranchPart] = []
    for c, labels, ratio in _class_table(S, label_coset(L, m), root_branch):
        if ratio is None:
            parts.append(labels[0])
            continue
        if sign is None:
            raise AssertionError("orbit parent cannot meet a self-paired class")
        if ratio % 2:
            notes.append(f"imaginary involution ratio on class [{format_coset(c)}]; reported +")
        sigma = sign if ratio % 2 or ratio == 0 else -sign
        parts.append(labels[sigma == -1])
    return BranchList(parent_lattice=L, parent=m, parts=tuple(parts), sublattice=sub,
                      notes=tuple(notes))


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _factor_product(factors: tuple[EvenLattice, ...], choices: tuple[tuple[ModuleLabel, ...], ...],
                    order: int | Fraction, signed: bool) -> QSeries:
    """prod_i sum_l ch(l) over factor i's choices, each term times sign(l) if signed.

    V+ and V-, or the two signs of a self-paired coset, share their choices
    and so this cached product.  A twisted label's character depends on its
    lattice and sign alone, not on its central character (character_label),
    so the product is taken with each twisted label read as T[0] of its
    sign, which keeps the signs a signed sum reads: the twisted branchings of
    all central characters then share one product (_prefix_product)."""
    twisted = LabelKind.TWISTED
    return _prefix_product(factors, tuple(tuple(character_label(lab) if lab.kind == twisted else lab
                                                for lab in choice) for choice in choices),
                           order, signed)


@lru_cache(maxsize=None)
def _prefix_product(factors: tuple[EvenLattice, ...], choices: tuple[tuple[ModuleLabel, ...], ...],
                    order: int | Fraction, signed: bool) -> QSeries:
    """_factor_product of these choices, cached per prefix of the factors:
    each prefix product is the shorter prefix's times one factor sum."""
    s = _factor_sum(factors[-1], choices[-1], order, signed)
    if len(choices) == 1:
        return s
    return _prefix_product(factors[:-1], choices[:-1], order, signed) * s


@lru_cache(maxsize=None)
def _factor_sum(factor: EvenLattice, choice: tuple[ModuleLabel, ...], order: int | Fraction,
                signed: bool) -> QSeries:
    """sum_l ch(l) over one factor's choice, each term times sign(l) if signed."""
    s = None
    for lab in choice:
        ch = character(factor, lab, order)
        if signed and label_sign(lab) == -1:
            ch = ch.scaled(-1)
        s = ch if s is None else s + ch
    return s


def _character_halves(bl: BranchList, order: int | Fraction) -> tuple[QSeries, QSeries, int]:
    """(a, b, s) with the character of bl's parts (a + s b) / 2.

    An orthogonal branching is in factored form, with A_i = sum ch(l) and
    B_i = sum sign(l) ch(l) over factor i's choices: (prod_i A_i, prod_i
    B_i, s) for a parent of sign s, as a combination of sign product t
    counts (1 + s t) / 2 times, and (prod_i A_i, prod_i A_i, 1) for an
    orbit parent.  A sublattice branching of an untwisted parent is the
    coset_character_halves of its labels, V+- included, with s = 1; a
    twisted parent's single block is (x, x, 1), x its multiplicity times
    the character of T[0] of that sign over the sublattice.
    """
    if bl.choices is not None:
        a = _factor_product(bl.factors, bl.choices, order, False)
        sign = label_sign(bl.parent)
        if sign is None:
            return a, a, 1
        # A_i - B_i is twice the sum over factor i's minus labels, so the
        # two products agree mod 2
        return a, _factor_product(bl.factors, bl.choices, order, True), sign
    if bl.parts and isinstance(bl.parts[0], TwistedBlockPart):
        block = bl.parts[0]
        x = character(bl.sublattice, twisted_label(0, block.sign), order).scaled(block.multiplicity)
        return x, x, 1
    return (*coset_character_halves(bl.sublattice, bl.parts, order), 1)


def verify_branch(bl: BranchList, order) -> bool:
    """Exact character identity: parent equals the sum of the parts.

    Checked as 2 ch = a + s b for the (a, b, s) of _character_halves, term
    by term in one pass on the parent's grid (QSeries.is_half_sum), with
    no sum or half built, on every route."""
    order = _rational(order)
    return character(bl.parent_lattice, bl.parent, order).is_half_sum(*_character_halves(bl, order))
