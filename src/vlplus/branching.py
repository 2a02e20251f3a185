"""Decompositions over smaller fixed-point subalgebras.

Two routes: over the tensor product of the rank-one subalgebras of an
orthogonal base (diagonal Gram only), and over the fixed-point algebra
of a full-rank sublattice.  An orthogonal branching picks one rank-one
label per factor; where factors offer signed pairs, a signed parent
keeps the parts whose signs multiply to its own.  Every
decomposition is verified by an exact character identity, which is the
normative check: for a nonzero self-paired coset the two signed modules
have equal characters, so the sign chosen for such a part is reported
as convention-dependent metadata, computed from the involution
coefficient on the canonical lowest-weight vector.

Twisted parents over a sublattice branch into abstract placeholders
carrying only sign and multiplicity; the census of the finer twisted
characters is not pinned down by the branching data, but the dimension
bookkeeping (and hence the character identity) is.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import prod

from .intmat import identity
from .lattice import (
    Convention,
    CosetElement,
    EvenLattice,
    NotOrthogonalBase,
    Sublattice,
    coset_element,
    coset_pair,
    coset_reps_mod_sublattice,
    coset_two_torsion,
    epsilon_cocycle,
    residue,
    sublattice,
    validate_even_lattice,
)
from .qseries import QSeries, character, series_denominator
from .sectors import (
    LabelKind,
    ModuleLabel,
    central_characters,
    character_values,
    coset_labels,
    label_coset,
    label_sign,
    orbit_label,
    twisted_label,
)


@dataclass(frozen=True)
class SubmodulePart:
    """One irreducible over the sublattice fixed-point algebra."""

    label: ModuleLabel


@dataclass(frozen=True)
class TensorPart:
    """One tensor product of rank-one labels over the orthogonal factors."""

    labels: tuple[ModuleLabel, ...]


@dataclass(frozen=True)
class TwistedBlockPart:
    """Abstract twisted summands: only sign and total multiplicity are known."""

    sign: int
    multiplicity: int


BranchPart = SubmodulePart | TensorPart | TwistedBlockPart


@dataclass(frozen=True)
class BranchList:
    parent_lattice: EvenLattice
    parent: ModuleLabel
    route: str  # "orthogonal" | "sublattice"
    parts: tuple[BranchPart, ...]
    sublattice: EvenLattice | None = None
    factors: tuple[EvenLattice, ...] | None = None
    notes: tuple[str, ...] = ()


# ---------------------------------------------------------------------------
# orthogonal base route
# ---------------------------------------------------------------------------

def branch_orthogonal(L: EvenLattice, m: ModuleLabel) -> BranchList:
    """Decompose over the tensor product of the rank-one fixed-point algebras.

    Requires a diagonal Gram matrix.  Each factor offers one or two
    labels: the signed pair of a trivial or self-paired coordinate coset
    or of a coordinate twisted character, else the orbit label of the
    coordinate coset.  A part picks one label per factor, with signs
    multiplying to the parent's sign; an orbit parent has no constraint.
    """
    if not L.is_diagonal():
        raise NotOrthogonalBase("orthogonal branching needs a diagonal Gram matrix")
    d = L.rank
    factors = tuple(validate_even_lattice([[L.gram[i][i]]]) for i in range(d))
    if m.kind == LabelKind.TWISTED:
        values = character_values(L, m.char, identity(d))
        chars = (central_characters(f)[0 if v == 1 else 1] for f, v in zip(factors, values))
        choices = [(twisted_label(c, +1), twisted_label(c, -1)) for c in chars]
    else:
        rep = label_coset(L, m).rep
        choices = [coset_labels(f, coset_element(f, (x,))) for f, x in zip(factors, rep)]
    sign = label_sign(m)
    parts = tuple(
        TensorPart(combo) for combo in product(*choices)
        if sign is None or prod(map(label_sign, combo)) == sign
    )
    return BranchList(parent_lattice=L, parent=m, route="orthogonal", parts=parts, factors=factors)


# ---------------------------------------------------------------------------
# sublattice route
# ---------------------------------------------------------------------------

def _root_unit(eps_value: int, branch: int, is_zero: bool) -> int:
    """Square root of a cocycle value as a power of i (0..3); identity at zero."""
    if is_zero:
        return 0
    if eps_value == 1:
        return 0 if branch == 1 else 2
    return 1 if branch == 1 else 3


def branch_sublattice(
    L: EvenLattice,
    basis: tuple[tuple[int, ...], ...],
    m: ModuleLabel,
    convention: Convention = Convention(),
) -> BranchList:
    """Decompose over the fixed-point algebra of a full-rank sublattice.

    Self-paired classes contribute a single signed module whose sign is
    the parent sign times the ratio of the parent and local involution
    coefficients on the canonical lowest-weight vector; when that ratio
    is imaginary the positive label is reported and flagged in notes.
    Paired classes contribute one orbit module per pair; twisted parents
    contribute placeholder blocks.
    """
    S = sublattice(L, tuple(map(tuple, basis)))
    sub = S.lattice
    gammas = coset_reps_mod_sublattice(L, S.basis)
    eps_l = epsilon_cocycle(L, convention)
    eps_1 = epsilon_cocycle(sub, convention)
    notes: list[str] = []

    def exact_int(x) -> int:
        f = Fraction(x)
        if f.denominator != 1:
            raise AssertionError(f"expected an integer coordinate, got {f}")
        return f.numerator

    def local_unit(c: CosetElement) -> int:
        two_mu = tuple(exact_int(2 * x) for x in c.rep)
        return _root_unit(eps_1(two_mu, two_mu), convention.root_branch, not any(two_mu))

    def signed_part(parent_sign: int, lam: CosetElement, c: CosetElement) -> SubmodulePart:
        # involution coefficient of the parent module on the canonical
        # vector of the class, divided by the local one
        two_lam = tuple(exact_int(2 * x) for x in lam.rep)
        zero = not any(two_lam)
        unit_g = _root_unit(eps_l(two_lam, two_lam), convention.root_branch, zero)
        if not zero:
            x_vec = tuple(exact_int(a - b) for a, b in zip(S.to_parent(c.rep), lam.rep))
            if eps_l(x_vec, two_lam) == -1:
                unit_g = (unit_g + 2) % 4
        ratio = (unit_g - local_unit(c)) % 4
        if ratio % 2 == 1:
            notes.append(f"imaginary involution ratio on class {c.rep}; reported +")
            sigma = parent_sign
        else:
            sigma = parent_sign * (1 if ratio == 0 else -1)
        return SubmodulePart(coset_labels(sub, c)[sigma == -1])

    parts: list[BranchPart] = []
    if m.kind == LabelKind.TWISTED:
        sub_dim_t = central_characters(sub)[0].dim_t
        mult, rem = divmod(m.char.dim_t, sub_dim_t)
        if rem:
            raise AssertionError("twisted dimensions must refine")
        parts.append(TwistedBlockPart(sign=m.sign, multiplicity=mult))
    else:
        sign, lam = label_sign(m), label_coset(L, m)
        seen = set()
        for g in gammas:
            x = S.to_sub(tuple(a + b for a, b in zip(g, lam.rep)))
            if residue(x, -1) in seen:
                continue  # a self-paired parent meets the class of -x too
            c, neg = coset_pair(sub, x)
            if not coset_two_torsion(sub, c):
                seen.add(residue(x))
                parts.append(SubmodulePart(orbit_label(c, neg)))
            elif sign is None:
                raise AssertionError("orbit parent cannot meet a self-paired class")
            else:
                parts.append(signed_part(sign, lam, c))
    return BranchList(
        parent_lattice=L,
        parent=m,
        route="sublattice",
        parts=tuple(parts),
        sublattice=sub,
        notes=tuple(notes),
    )


def sublattice_part_count(S: Sublattice, m: ModuleLabel) -> int:
    """Number of parts branch_sublattice gives for m, from the Smith form.

    An orbit parent has one per class of its coset mod the sublattice (N =
    index); otherwise negation pairs the N classes of lambda + L and fixes
    2^(#even d_i) of them iff U 2lambda is even in every slot of even d_i."""
    if m.kind == LabelKind.TWISTED:
        return 1
    if m.kind == LabelKind.UNTWISTED:
        return S.index
    two_lam = [int(2 * x) for x in label_coset(S.parent, m).rep]
    image = (sum(u * x for u, x in zip(row, two_lam)) for row in S.smith_u)
    solvable = all(d % 2 or y % 2 == 0 for d, y in zip(S.smith, image))
    return (S.index + solvable * 2 ** sum(d % 2 == 0 for d in S.smith)) // 2


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

def part_character(bl: BranchList, p: BranchPart, order: Fraction) -> QSeries:
    order = Fraction(order)
    if isinstance(p, SubmodulePart):
        return character(bl.sublattice, p.label, order)
    if isinstance(p, TensorPart):
        out = None
        for lat1, lab in zip(bl.factors, p.labels):
            ch = character(lat1, lab, order)
            out = ch if out is None else out * ch
        return out
    chi0 = central_characters(bl.sublattice)[0]
    single = character(bl.sublattice, twisted_label(chi0, p.sign), order)
    return single.scaled(p.multiplicity)


def verify_branch(bl: BranchList, order) -> bool:
    """Exact character identity: parent equals the sum of the parts."""
    order = Fraction(order)
    parent = character(bl.parent_lattice, bl.parent, order)
    denom = series_denominator(bl.parent_lattice)
    total = QSeries.zero(denom, order)
    for p in bl.parts:
        total = total + part_character(bl, p, order)
    common = min(parent.order, total.order)
    return parent.truncate(common) == total.truncate(common)
