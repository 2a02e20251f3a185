"""Fusion-dimension queries.

Answers are Zero, One or Unknown; every fusion dimension here is 0 or
1, and Unknown only ever arises from the two sign refinements (the
pairing sign on self-paired coset pairs and the twisted-sector sign)
that live behind a pluggable oracle.  Without an oracle those queries
stay Unknown; an oracle can only refine Unknown, never flip a decided
answer.

Argument order: fusion_dim(L, m1, m2, m3) is the dimension of the space
of intertwiners taking m1 x m2 into m3.  The first argument must be of
untwisted type; the complete rank-one table with a vacuum first
argument is available separately as rank1_fusion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .lattice import CosetElement, EvenLattice
from .sectors import (
    LabelKind,
    ModuleLabel,
    label_coset,
    label_sign,
    shift_character,
)


@dataclass(frozen=True)
class FusionAnswer:
    value: str  # "zero" | "one" | "unknown"
    reason: str = ""

    def __bool__(self) -> bool:
        raise TypeError("FusionAnswer is three-valued; compare explicitly")


ZERO = FusionAnswer("zero")
ONE = FusionAnswer("one")


def unknown(reason: str) -> FusionAnswer:
    return FusionAnswer("unknown", reason)


@dataclass(frozen=True)
class SignOracle:
    """Optional refinement data for the two sign-dependent fusion rows.

    pi(lam, two_mu) resolves the coset-pair sign; c(chi, lam), with chi a
    central character index, the twisted-pair sign.  Either callable may
    be None, and a callable may itself return None to decline a
    particular query; both cases leave the query Unknown.
    """

    pi: Optional[Callable[[tuple, tuple], int | None]] = None
    c: Optional[Callable[[int, tuple], int | None]] = None


NO_ORACLE = SignOracle()


class UnsupportedRow(ValueError):
    pass


class UnsupportedFirstArgument(ValueError):
    pass


def admissible_triple(
    L: EvenLattice, lam: CosetElement, mu: CosetElement, nu: CosetElement
) -> bool:
    """True iff some sign combination of the three cosets (numerators over det) lands in the lattice."""
    D = lam.den
    mus = (mu.nums, tuple(-x for x in mu.nums))
    nus = (nu.nums, tuple(-x for x in nu.nums))
    return any(all((a + b + c) % D == 0 for a, b, c in zip(lam.nums, m, n))
               for m in mus for n in nus)


def tensor_fusion(answers) -> FusionAnswer:
    """Factorwise fusion for a tensor product: zero absorbs, unknown propagates."""
    result = ONE
    for a in answers:
        if a.value == "zero":
            return ZERO
        if a.value == "unknown":
            result = a
    return result


# ---------------------------------------------------------------------------
# complete rank-one table (vacuum rows)
# ---------------------------------------------------------------------------

def rank1_fusion(k: int, w1: ModuleLabel, w2: ModuleLabel, w3: ModuleLabel) -> FusionAnswer:
    """Fusion dimension for the rank-one lattice with norm 2k, vacuum first slot.

    The first row is the unit law; the minus row is the exhaustive
    involution pairing: vacuum signs swap, half-coset signs swap,
    twisted signs swap within a fixed character, and each strictly
    intermediate coset pairs with itself.
    """
    if k < 1:
        raise ValueError("rank-one lattice needs a positive norm 2k")
    if w1.kind == LabelKind.VAC_PLUS:
        return ONE if w2 == w3 else ZERO
    if w1.kind != LabelKind.VAC_MINUS:
        raise UnsupportedRow(
            "only the vacuum rows of the rank-one table are completely specified"
        )
    if w2.kind == LabelKind.VAC_PLUS and w3.kind == LabelKind.VAC_MINUS:
        return ONE
    if w2.kind == LabelKind.VAC_MINUS and w3.kind == LabelKind.VAC_PLUS:
        return ONE
    if w2.kind == LabelKind.COSET and w3.kind == LabelKind.COSET:
        return ONE if (w2.coset == w3.coset and w2.sign != w3.sign) else ZERO
    if w2.kind == LabelKind.TWISTED and w3.kind == LabelKind.TWISTED:
        return ONE if (w2.char == w3.char and w2.sign != w3.sign) else ZERO
    if w2.kind == LabelKind.UNTWISTED and w3.kind == LabelKind.UNTWISTED:
        return ONE if w2 == w3 else ZERO
    return ZERO


# ---------------------------------------------------------------------------
# general lattice, untwisted first slot
# ---------------------------------------------------------------------------

def fusion_dim(
    L: EvenLattice,
    m1: ModuleLabel,
    m2: ModuleLabel,
    m3: ModuleLabel,
    oracle: SignOracle = NO_ORACLE,
) -> FusionAnswer:
    """Dimension of the intertwiner space taking m1 x m2 into m3.

    Implements the untwisted-first-slot case analysis: the unit law for
    the plus vacuum, the admissible-triple gate for untwisted targets,
    character-shift matching for twisted pairs, and oracle-resolved sign
    refinements.  A twisted first argument is outside the supported
    rows; queries with exactly one twisted module among the second and
    third are always Zero.
    """
    if m1.kind == LabelKind.TWISTED:
        raise UnsupportedFirstArgument(
            "fusion with a twisted first argument is not among the supported rows"
        )
    if m1.kind == LabelKind.VAC_PLUS:
        return ONE if m2 == m3 else ZERO

    t2 = m2.kind == LabelKind.TWISTED
    t3 = m3.kind == LabelKind.TWISTED
    if t2 != t3:
        return ZERO

    lam = label_coset(L, m1)

    if t2 and t3:
        if m3.char != shift_character(L, m2.char, lam):
            return ZERO
        if m1.kind == LabelKind.UNTWISTED:
            return ONE
        c = oracle.c(m2.char, lam.rep) if oracle.c is not None else None
        return _sign_row(c, label_sign(m1), m2.sign == m3.sign,
                         "twisted-pair sign requires the c oracle")

    mu = label_coset(L, m2)
    nu = label_coset(L, m3)
    if not admissible_triple(L, lam, mu, nu):
        return ZERO
    # with an orbit first slot, m2 and m3 are never both self-paired (2 lam
    # would lie in L); with a self-paired one, 2 mu lies in L iff 2 nu does.
    # So only an all-self-paired triple reaches the sign rows
    if m1.kind == LabelKind.UNTWISTED or m2.kind == LabelKind.UNTWISTED:
        return ONE
    two_mu = tuple(2 * x for x in mu.rep)
    p = oracle.pi(lam.rep, two_mu) if oracle.pi is not None else None
    same = label_sign(m2) == label_sign(m3)
    return _sign_row(p, label_sign(m1), same, "coset-pair sign requires the pi oracle")


def _sign_row(sign: int | None, s1: int, same: bool, reason: str) -> FusionAnswer:
    """Unknown (reason) without an oracle sign; One iff m2, m3 share a sign just when sign is s1."""
    if sign is None:
        return unknown(reason)
    return ONE if same == (sign == s1) else ZERO
