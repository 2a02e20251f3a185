"""Exact truncated q-series and the graded dimensions they carry.

A series lives on the exponent grid (1/D)Z with a truncation order and
integer coefficients: each is a theta count, an inverse Euler product or
a graded dimension.  Exponents are never negative here, which keeps
truncation exact: every stored coefficient of a sum or product is the
true coefficient.

Characters are graded dimensions in true conformal weights, without any
central-charge prefactor, so direct sums add and tensor products
multiply as literal series identities.  Every untwisted character is
(w theta phi^(-d) + t psi^(-d)) / 2, from the theta of the label's coset,
the plain and the sign-alternating inverse Euler products and the (w, t)
that THETA_PSI gives the label's kind; psi^(-d) is the finite product
over odd n of (1 - q^n)^d (Euler).  The one division is halved(), which
refuses an odd coefficient; each caller says why its sum is even.  A
twisted character divides nothing: it keeps the terms of one inverse
product at the integer or at the half-integer exponents.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import lru_cache

from .lattice import CosetElement, EvenLattice, coset_norm_counts
from .sectors import LabelKind, ModuleLabel, label_coset, series_denominator, twisted_dimension


class QSeries:
    """Truncated series with integer coefficients on the grid (1/denom)Z.

    Immutable by convention: arithmetic returns new instances and the
    internal table is never handed out.  Exponent e carries coefficient
    nums[e * denom]; no zero is stored and all stored exponents are < order.
    halved() is the only division, and it refuses an odd coefficient.
    """

    __slots__ = ("denom", "order_key", "nums")

    def __init__(self, denom: int, order_key: int, nums: dict[int, int]):
        self.denom = denom
        self.order_key = order_key
        self.nums = nums

    # -- construction -------------------------------------------------------

    @staticmethod
    def zero(denom: int, order: Fraction) -> "QSeries":
        return QSeries(denom, _key(order, denom), {})

    # -- views --------------------------------------------------------------

    @property
    def order(self) -> Fraction:
        return Fraction(self.order_key, self.denom)

    def terms(self) -> dict[Fraction, int]:
        return {Fraction(k, self.denom): v for k, v in sorted(self.nums.items())}

    def __eq__(self, other) -> bool:
        # no constructor stores a zero, so on one grid equal series store equal integers
        if not isinstance(other, QSeries):
            return NotImplemented
        a, b = _align(self, other)
        return a.order_key == b.order_key and a.nums == b.nums

    def __hash__(self):
        # grid-free, as equality aligns grids
        return hash((self.order, frozenset((Fraction(k, self.denom), v) for k, v in self.nums.items())))

    def __repr__(self) -> str:
        parts = [f"{c}*q^{e}" for e, c in list(self.terms().items())[:6]]
        if len(self.nums) > 6:
            parts.append("...")
        body = " + ".join(parts) if parts else "0"
        return f"QSeries({body}; order {self.order})"

    # -- arithmetic ---------------------------------------------------------

    def rescale(self, denom: int) -> "QSeries":
        if denom == self.denom:
            return self
        if denom % self.denom:
            raise ValueError("new grid must refine the old one")
        f = denom // self.denom
        return QSeries(denom, self.order_key * f, {k * f: v for k, v in self.nums.items()})

    def __add__(self, other: "QSeries") -> "QSeries":
        a, b = _align(self, other)
        order_key = min(a.order_key, b.order_key)
        nums = {k: v for k, v in a.nums.items() if k < order_key}
        for k, v in b.nums.items():
            if k < order_key:
                nums[k] = nums.get(k, 0) + v
        return QSeries(a.denom, order_key, {k: v for k, v in nums.items() if v})

    def scaled(self, c: int) -> "QSeries":
        c = operator.index(c)
        return QSeries(self.denom, self.order_key, {k: v * c for k, v in self.nums.items()} if c else {})

    def halved(self) -> "QSeries":
        """The series over 2.  Each caller halves a sum of two series that
        agree mod 2, so an odd coefficient is a bug: AssertionError."""
        for k, v in self.nums.items():
            if v % 2:
                raise AssertionError(f"odd coefficient {v} of q^{Fraction(k, self.denom)} cannot be halved")
        return QSeries(self.denom, self.order_key, {k: v // 2 for k, v in self.nums.items()})

    def __mul__(self, other: "QSeries") -> "QSeries":
        a, b = _align(self, other)
        if a.nums and min(a.nums) < 0 or b.nums and min(b.nums) < 0:
            raise ValueError("truncated products require nonnegative exponents")
        order_key = min(a.order_key, b.order_key)
        nums: dict[int, int] = {}
        bi = sorted((k, v) for k, v in b.nums.items() if k < order_key)
        for k1, v1 in a.nums.items():
            if k1 >= order_key:
                continue
            lim = order_key - k1
            for k2, v2 in bi:
                if k2 >= lim:
                    break
                nums[k1 + k2] = nums.get(k1 + k2, 0) + v1 * v2
        return QSeries(a.denom, order_key, {k: v for k, v in nums.items() if v})

    def shifted(self, e) -> "QSeries":
        """Multiply by q^e; the truncation order moves with the terms."""
        e = Fraction(e)
        k = e * self.denom
        if k.denominator != 1:
            denom = self.denom * k.denominator
            return self.rescale(denom).shifted(e)
        k = int(k)
        return QSeries(self.denom, self.order_key + k, {kk + k: v for kk, v in self.nums.items()})


def _key(order, denom: int) -> int:
    k = Fraction(order) * denom
    if k.denominator != 1:
        raise ValueError(f"order {order} is not on the grid 1/{denom}")
    return int(k)


def _align(a: QSeries, b: QSeries) -> tuple[QSeries, QSeries]:
    if a.denom == b.denom:
        return a, b
    denom = a.denom * b.denom // math.gcd(a.denom, b.denom)
    return a.rescale(denom), b.rescale(denom)


# ---------------------------------------------------------------------------
# Euler-type inverse products
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def euler_product_inv(
    d: int,
    order: Fraction,
    denom: int,
    alternating: bool = False,
    half_integer: bool = False,
) -> QSeries:
    """Inverse product over n >= 1 of (1 -+ q^e)^d with e = n or n - 1/2.

    alternating=False gives (1 - q^e)^(-d); alternating=True gives
    (1 + q^e)^(-d).  Integer coefficients live in one dense list on the
    factors' grid (step 1, or 1/2 for half_integer); each factor
    (1 - s q^e)^(-1) is one in-place pass c[k] += s c[k - e], k
    ascending, applied d times per factor.  The alternating product at
    integer exponents is the finite one of Euler's identity,
    prod (1 + q^n)^(-1) = prod over odd n of (1 - q^n): d passes
    c[k] -= c[k - e], k descending, per odd e.  No program path takes
    alternating and half_integer together (a twisted character keeps terms
    of the plain half-integer product); that product stays as the
    two-product reference of tests/test_qseries.py and test_branching.py.
    """
    if d < 0:
        raise ValueError("exponent must be nonnegative")
    order = Fraction(order)
    order_key = _key(order, denom)
    unit = 2 if half_integer else 1
    size = max(0, math.ceil(unit * order))
    if d and half_integer and size > 1 and denom % 2:
        raise ValueError(f"exponent 1/2 is not on the grid 1/{denom}")
    c = [1] + [0] * (size - 1) if size else []
    if alternating and not half_integer:
        for e in range(1, size, 2):
            for _ in range(d):
                for k in range(size - 1, e - 1, -1):
                    c[k] -= c[k - e]
    else:
        sign = -1 if alternating else 1
        for e in range(1, size, unit):
            for _ in range(d):
                for k in range(e, size):
                    c[k] += sign * c[k - e]
    return QSeries(denom, order_key, {k * denom // unit: v for k, v in enumerate(c) if v})


# ---------------------------------------------------------------------------
# theta series and characters
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def theta_coset(L: EvenLattice, lam: CosetElement, order: Fraction) -> QSeries:
    """Sum of q^((v,v)/2) over coset vectors with (v,v)/2 strictly below order.

    A count of norm S / scale sits at grid key S * denom / (2 * scale).  The
    counts stop at the last grid point below the order, norm 2 (order_key -
    1) / denom, so the shell at the order itself is never counted.  The
    counts are walked or taken through an orthogonal frame as products of
    rank-one sums, by coset_norm_counts' rule; a diagonal Gram is its own
    frame, of index one, and is never walked.  A coset whose least norm
    lam.norm_num / lam.den reaches 2 * order is zero, uncounted."""
    order = Fraction(order)
    denom = series_denominator(L)
    order_key = _key(order, denom)
    nums: dict[int, int] = {}
    if 2 * order * lam.den > lam.norm_num:
        scale, counts = coset_norm_counts(L, lam, Fraction(2 * (order_key - 1), denom))
        for S, n in counts.items():
            k, r = divmod(S * denom, 2 * scale)
            if r:
                raise ValueError(f"exponent {Fraction(S, 2 * scale)} is not on the grid 1/{denom}")
            nums[k] = n
    return QSeries(denom, order_key, nums)


# ch(m) = (w theta phi^(-d) + t psi^(-d)) / 2 over the theta of m's coset: the
# (w, t) of each untwisted kind, the only data on how its character is built
THETA_PSI = {LabelKind.VAC_PLUS: (1, 1), LabelKind.VAC_MINUS: (1, -1),
             LabelKind.UNTWISTED: (2, 0), LabelKind.COSET: (1, 0)}


@lru_cache(maxsize=None)
def character(L: EvenLattice, m: ModuleLabel, order: Fraction) -> QSeries:
    """Graded dimension of the labelled irreducible, exact to the given order.

    Untwisted labels: coset_character_sum of the label alone, so V+- are
    (theta_L phi^(-d) +- psi^(-d))/2 with phi^(-d) and psi^(-d) the plain
    and sign-alternating inverse Euler products.  A twisted sector T+- is
    dim(T) q^(d/16) (h(q^(1/2)) +- h(-q^(1/2))) / 2 with h the inverse
    product over the half-integer exponents: the terms of h at integer
    exponents for T+, at half-integer ones for T-, with no division.
    """
    order = Fraction(order)
    if m.kind in THETA_PSI:
        return coset_character_sum(L, (m,), order)
    # twisted: build at a shifted order so the final truncation is exact
    denom = series_denominator(L)
    d = L.rank
    shift = Fraction(d, 16)
    inner = order - shift
    if inner <= 0:
        return QSeries.zero(denom, order)
    h = euler_product_inv(d, inner, denom, half_integer=True)
    # h(-q^(1/2)) flips the sign of h's q^(j/2) term for odd j: the half-sum
    # keeps even j, the half-difference odd j
    parity = 0 if m.sign > 0 else denom // 2
    dim = twisted_dimension(L)
    kept = {k: v * dim for k, v in h.nums.items() if k % denom == parity}
    return QSeries(denom, h.order_key, kept).shifted(shift)


def coset_character_sum(L: EvenLattice, labels, order) -> QSeries:
    """Sum of character(L, m, order) over untwisted labels m, V+- included.

    By linearity (sum_m w_m theta_m phi^(-d) + (sum_m t_m) psi^(-d)) / 2
    with (w, t) from THETA_PSI and theta_m the theta of label_coset: the
    thetas, integer counts, are summed in integers and each Euler product
    is taken once for the whole sum.  A label whose coset's least norm
    reaches 2 * order adds no theta and its coset is not counted."""
    order = Fraction(order)
    denom = series_denominator(L)
    cut = 2 * order * L.det  # a coset of L has least norm norm_num / det
    twice: dict[int, int] = {}
    psi_weight = 0
    for m in labels:
        w, t = THETA_PSI[m.kind]
        psi_weight += t
        lam = label_coset(L, m)
        if lam.norm_num >= cut:
            continue
        for k, n in theta_coset(L, lam, order).nums.items():
            twice[k] = twice.get(k, 0) + w * n
    total = QSeries(denom, _key(order, denom), twice) * euler_product_inv(L.rank, order, denom)
    if psi_weight:
        total = total + euler_product_inv(L.rank, order, denom, alternating=True).scaled(psi_weight)
    # even term by term: phi^(-d) = psi^(-d) mod 2; v -> -v pairs the vectors of
    # a coset but for 0 in L, so theta_L = 1 and a C coset's theta = 0 mod 2; w_U = 2
    return total.halved()
