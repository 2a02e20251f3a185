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
that THETA_PSI gives the label's kind; a sum of them is kept as its two
halves (coset_character_halves), so that a check can compare it with
is_half_sum, which decides self == (a + s b) / 2 in one pass with no
sum or half built.  The one division is halved(), which refuses an odd
coefficient; each caller says why its sum is even.  A twisted character
divides nothing: it keeps the terms of one inverse product at the
integer or at the half-integer exponents.  Two series compare equal
when they store the same integers on their common grid.

Each inverse Euler product is the d-th power of a quotient of P(t) =
prod (1 - t^n), t = q or q^(1/2): partition numbers from Euler's
pentagonal recurrence times P's few pentagonal terms.  Every product of
coefficient lists, series products included, is one big-integer
multiplication (Kronecker substitution, _convolve), exact because it is
integer arithmetic with a digit wide enough for every coefficient.  The
theta of a lattice of det 1 is a modular form: powers of E4 and of Delta
= q P(q)^24, from the same pentagonal series, with coefficients solved
from its first d // 24 shell counts.  An order is read once at each
entry point (_rational: an int when it is integral, else one Fraction),
so an integral order keys the caches below as an int, whose hash is C
code; below that, grid keys, the theta cutoff and shifts compare
numerators and denominators.
"""

from __future__ import annotations

import math
import operator
import struct
from collections.abc import Sequence
from fractions import Fraction
from functools import lru_cache
from itertools import compress, repeat

from .lattice import CosetElement, EvenLattice, _rational, coset_norm_counts, zero_coset
from .sectors import (
    LabelKind,
    ModuleLabel,
    label_coset,
    series_denominator,
    twisted_dimension,
    twisted_pair,
)


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
    def zero(denom: int, order: int | Fraction) -> "QSeries":
        return QSeries(denom, _key(order, denom), {})

    # -- views --------------------------------------------------------------

    @property
    def order(self) -> Fraction:
        return Fraction(self.order_key, self.denom)

    def keyed_terms(self) -> list[tuple[int, int]]:
        """(key, coefficient) in exponent order: the term q^(key / denom), no Fraction built."""
        return sorted(self.nums.items())

    def terms(self) -> dict[Fraction, int]:
        """{exponent: coefficient} in exponent order, each exponent a Fraction."""
        return {_exponent(k, self.denom): v for k, v in self.keyed_terms()}

    def __eq__(self, other) -> bool:
        if not isinstance(other, QSeries):
            return NotImplemented
        # no constructor stores a zero, so on one grid equal series store equal integers
        a, b = _align(self, other)
        return a.order_key == b.order_key and a.nums == b.nums

    def is_half_sum(self, a: "QSeries", b: "QSeries", sign: int) -> bool:
        """self == (a + sign b) / 2, decided in one pass over the keys of a
        and b, each combined coefficient compared with twice self's at its
        key on self's grid: no sum, half or rescaled copy is built.  An odd
        combined coefficient is a mismatch, as twice self's is even."""
        a, b = _align(a, b)
        fs, fa = _refinements(self.denom, a.denom)
        if self.order_key * fs != a.order_key * fa or a.order_key != b.order_key:
            return False
        an, bn, get = a.nums, b.nums, self.nums.get
        matched = 0
        for k in an.keys() | bn.keys():
            v = an.get(k, 0) + sign * bn.get(k, 0)
            if v:
                ks, r = divmod(k * fa, fs)
                if r or 2 * get(ks, 0) != v:
                    return False
                matched += 1
        return matched == len(self.nums)

    def __hash__(self):
        # grid-free, as equality aligns grids
        return hash((self.order, frozenset((_exponent(k, self.denom), v) for k, v in self.nums.items())))

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
        """One _convolve of both operands packed on the common stride of
        their keys, or, when the finer operand fills only some of the
        residue classes mod the coarser one's stride that it could, one per
        class present packed on that stride, so no row pads the coarser."""
        a, b = _align(self, other)
        order_key = min(a.order_key, b.order_key)
        an, bn = a.nums, b.nums
        a0, b0 = min(an, default=order_key), min(bn, default=order_key)
        if a0 < 0 or b0 < 0:
            raise ValueError("truncated products require nonnegative exponents")
        if not (an and bn):
            return QSeries(a.denom, order_key, {})
        ga, gb = math.gcd(*[k - a0 for k in an]), math.gcd(*[k - b0 for k in bn])
        if ga > gb:
            an, a0, bn, b0, ga, gb = bn, b0, an, a0, gb, ga
        g = math.gcd(ga, gb) or 1
        classes = [an]
        if gb > g:
            residues: dict[int, dict[int, int]] = {}
            for k, v in an.items():
                residues.setdefault(k % gb, {})[k] = v
            if len(residues) < gb // g:
                classes, g = list(residues.values()), gb
        nums: dict[int, int] = {}
        row = _dense(bn, b0, g, -((a0 + b0 - order_key) // g))
        for cls in classes:
            k0 = min(cls, default=order_key)
            n = -((k0 + b0 - order_key) // g)  # the product's slots k0 + b0 + g i < order_key
            c = _convolve(_dense(cls, k0, g, n), row, n)
            nums.update(compress(zip(range(k0 + b0, order_key, g), c), c))
        return QSeries(a.denom, order_key, nums)

    def shifted(self, e) -> "QSeries":
        """Multiply by q^e, on the grid lcm(denom, e's denominator); the order moves with the terms."""
        e = _rational(e)
        k, r = divmod(e.numerator * self.denom, e.denominator)
        if r:
            return self.rescale(math.lcm(self.denom, e.denominator)).shifted(e)
        return QSeries(self.denom, self.order_key + k, {kk + k: v for kk, v in self.nums.items()})


_exponent = lru_cache(maxsize=None)(Fraction)  # key / denom, built once per grid point


def _key(order, denom: int) -> int:
    """The grid key order * denom, in integers from the order's numerator and denominator."""
    p, q = _rational(order).as_integer_ratio()
    k, r = divmod(p * denom, q)
    if r:
        raise ValueError(f"order {order} is not on the grid 1/{denom}")
    return k


def _dense(nums: dict[int, int], base: int, step: int, size: int) -> list[int]:
    """The coefficients of nums at the keys base + step i, i < size (none if size <= 0)."""
    stop = min(base + step * size, max(nums, default=base) + 1)
    return list(map(nums.get, range(base, stop, step), repeat(0)))


def _refinements(da: int, db: int) -> tuple[int, int]:
    """(D // da, D // db) for D = lcm(da, db): the factors taking keys on
    grids 1/da and 1/db to their common grid."""
    g = math.gcd(da, db)
    return db // g, da // g


def _align(a: QSeries, b: QSeries) -> tuple[QSeries, QSeries]:
    if a.denom == b.denom:
        return a, b
    denom = a.denom * b.denom // math.gcd(a.denom, b.denom)
    return a.rescale(denom), b.rescale(denom)


# ---------------------------------------------------------------------------
# Euler-type inverse products
# ---------------------------------------------------------------------------

# each product of euler_product_inv at d = 1 as a quotient of P(t) = prod
# (1 - t^n), n >= 1, on its grid t = q (integer exponents) or t = q^(1/2):
# (s, e) is the factor P(t^s)^e.  prod (1 + t^n) = P(t^2) / P(t), and the
# factors over odd n are P(t) / P(t^2)
_QUOTIENTS = {
    (False, False): ((1, -1),),                # 1 / P(q)
    (True, False): ((1, 1), (2, -1)),          # P(q) / P(q^2)
    (False, True): ((2, 1), (1, -1)),          # P(t^2) / P(t)
    (True, True): ((1, 1), (4, 1), (2, -2)),   # P(t) P(t^4) / P(t^2)^2
}

_PARTITIONS = (1,)  # p(0), p(1), ...: replaced by a longer tuple on demand


def _partition_numbers(size: int) -> tuple[int, ...]:
    """p(0), ..., p(size - 1), the coefficients of 1 / P(t), by Euler's
    pentagonal recurrence p(m) = sum over k >= 1 of (-1)^(k+1) (p(m - g_k)
    + p(m - g_k - k)), g_k = k (3k - 1) / 2, a term whose index is negative
    left out: O(size^1.5) additions, made once per interpreter for the
    largest size asked."""
    global _PARTITIONS
    if size > len(_PARTITIONS):
        p = list(_PARTITIONS)
        for m in range(len(p), size):
            total, k, g = 0, 1, 1
            while g <= m:
                t = p[m - g] + p[m - g - k] if g + k <= m else p[m - g]
                total += t if k % 2 else -t
                k += 1
                g += 3 * k - 2  # g_k - g_(k-1)
            p.append(total)
        _PARTITIONS = tuple(p)  # one rebinding: a reader never sees a partial table
    return _PARTITIONS[:size]


def _pentagonal(size: int, step: int) -> list[int]:
    """P(t^step) to size terms: (-1)^k at t^(step k (3k -+ 1) / 2), k >= 0
    (Euler's pentagonal number theorem), so about 2 sqrt(2 size / 3) terms."""
    c = [0] * size
    k = 0
    while step * k * (3 * k - 1) // 2 < size:
        for e in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
            if step * e < size:
                c[step * e] = -1 if k % 2 else 1
        k += 1
    return c


def _factor(size: int, step: int, power: int) -> list[int]:
    """P(t^step) to size terms for a positive power, else 1 / P(t^step)."""
    if power > 0:
        return _pentagonal(size, step)
    c = [0] * size
    c[::step] = _partition_numbers(len(c[::step]))
    return c


@lru_cache(maxsize=None)
def _euler_row(size: int, alternating: bool, half_integer: bool) -> tuple[int, ...]:
    """euler_product_inv at d = 1 to size terms on its grid, from _QUOTIENTS."""
    row = [1]
    for step, power in _QUOTIENTS[alternating, half_integer]:
        factor = _factor(size, step, power)
        for _ in range(abs(power)):
            row = _convolve(row, factor, size)
    return tuple(row)


def _convolve(a: Sequence[int], b: Sequence[int], size: int) -> list[int]:
    """The product of two integer polynomials, coefficient lists from the
    constant term up, truncated to min(size, len(a) + len(b) - 1) terms.

    Kronecker substitution: each list is evaluated at B = 2^(8w), with w
    bytes enough for any product coefficient and its sign: |sum a_i b_j|
    < 2^bits, bits = bit lengths of max|a|, max|b| and min(len(a),
    len(b)), and 8w - 1 >= bits (w is 1, 2, 4 or 8 below 64 bits, which
    struct packs).  A list's two's-complement digits c mod B, each top
    bit flipped by XOR with the bias (n digits of h = B/2), are c + h;
    taking off the bias leaves sum c_k B^k.  One big-integer product holds
    every product coefficient r_k as sum r_k B^k; adding the bias makes
    its low n digits r_k + h in [0, B), with no carry between them, and
    the XOR turns them back into r_k mod B, read as signed digits.  All
    of it is integer arithmetic, so the result is exact.  A one-term
    operand is a scalar and skips the packing.
    """
    square = a is b
    a, b = a[:size], b[:size]
    if not a or not b:
        return []
    if len(b) == 1:
        a, b = b, a
    if len(a) == 1:
        return [a[0] * v for v in b]
    n = min(size, len(a) + len(b) - 1)
    bits = (max(map(abs, a)).bit_length() + max(map(abs, b)).bit_length()
            + min(len(a), len(b)).bit_length())
    w = bits // 8 + 1 if bits > 63 else 1 << (bits // 8).bit_length()
    bias = int.from_bytes((bytes(w - 1) + b"\x80") * n, "little")
    x = _pack(a, w, bias)
    z = x * x if square else x * _pack(b, w, bias)
    raw = (((z + bias) ^ bias) & ((1 << (8 * w * n)) - 1)).to_bytes(w * n, "little")
    if w in _FORMATS:
        return list(struct.unpack(f"<{n}{_FORMATS[w]}", raw))
    return [int.from_bytes(raw[i:i + w], "little", signed=True) for i in range(0, w * n, w)]


_FORMATS = {1: "b", 2: "h", 4: "i", 8: "q"}  # struct's little-endian signed w-byte digits


def _pack(c: Sequence[int], w: int, bias: int) -> int:
    """sum c_k 2^(8wk) for |c_k| < 2^(8w - 1); bias has at least len(c) digits."""
    raw = (struct.pack(f"<{len(c)}{_FORMATS[w]}", *c) if w in _FORMATS
           else b"".join([v.to_bytes(w, "little", signed=True) for v in c]))
    return (int.from_bytes(raw, "little") ^ bias) - bias


def _power(row: Sequence[int], d: int, size: int) -> list[int]:
    """row^d to size terms by binary powering: at most 2 log2(d) + 1 products."""
    result = [1][:size]
    while d:
        if d & 1:
            result = _convolve(result, row, size)
        d >>= 1
        if d:
            row = _convolve(row, row, size)
    return result


@lru_cache(maxsize=None)
def euler_product_inv(
    d: int,
    order: int | Fraction,
    denom: int,
    alternating: bool = False,
    half_integer: bool = False,
) -> QSeries:
    """Inverse product over n >= 1 of (1 -+ q^e)^d with e = n or n - 1/2.

    alternating=False gives (1 - q^e)^(-d); alternating=True gives
    (1 + q^e)^(-d).  On the factors' grid t (q, or q^(1/2) for
    half_integer) each product is, at d = 1, a quotient of P(t) = prod
    (1 - t^n) (_QUOTIENTS):

        plain                      1 / P(q)
        alternating                P(q) / P(q^2)
        half-integer               P(t^2) / P(t)
        alternating half-integer   P(t) P(t^4) / P(t^2)^2

    1 / P is the partition numbers, from the pentagonal recurrence, and P
    itself has only the signs at the pentagonal numbers, so the d = 1
    series is a few products, cached per size.  Its d-th power is taken by
    binary powering, each product one big-integer multiplication
    (_convolve, Kronecker substitution): about 2 log2(d) of them in place
    of d passes per factor.  Every step is integer arithmetic, so the
    coefficients are exact.  No program path takes alternating and
    half_integer together (a twisted character keeps terms of the plain
    half-integer product); that product stays as the two-product reference
    of tests/test_qseries.py and test_branching.py.
    """
    if d < 0:
        raise ValueError("exponent must be nonnegative")
    order_key = _key(order, denom)
    unit = 2 if half_integer else 1
    size = max(0, -(-unit * order_key // denom))  # ceil(unit * order)
    if d and half_integer and size > 1 and denom % 2:
        raise ValueError(f"exponent 1/2 is not on the grid 1/{denom}")
    c = _power(_euler_row(size, alternating, half_integer), d, size)
    return QSeries(denom, order_key, {k * denom // unit: v for k, v in enumerate(c) if v})


def _eisenstein4(size: int) -> list[int]:
    """E4 = 1 + 240 sum sigma_3(n) q^n to size terms, sigma_3 by a divisor sieve."""
    row = [0] * size
    for m in range(1, size):
        cube = 240 * m ** 3
        for n in range(m, size, m):
            row[n] += cube
    return [1] + row[1:] if size else []


def _unimodular_theta(L: EvenLattice, size: int) -> list[int]:
    """theta_L to size integer exponents for det(L) = 1, so 8 | d.

    theta_L is a modular form of weight d/2 for SL2(Z), and the forms
    E4^(d/8 - 3j) Delta^j, j <= d/24, are a basis of that space (Serre, A
    Course in Arithmetic, VII.3), Delta = q P(q)^24.  Delta^j starts at
    q^j with coefficient 1, so the c_j of theta_L = sum_j c_j E4^(d/8 - 3j)
    Delta^j follow one by one from the shell counts N_j = #{v: (v, v) =
    2j}: c_j is N_j less the q^j coefficient of the forms before it.  Only
    c_j with j < size reach the result, so N_1 .. N_J, J = min(d // 24,
    size - 1), are counted in one coset_norm_counts call to norm 2J, made
    only when J > 0: E8 and E8 + E8 count nothing."""
    d = L.rank
    top = min(d // 24, size - 1)
    shells = [1] + [0] * top
    if top > 0:
        scale, counts = coset_norm_counts(L, zero_coset(L), (2 * top, 1))
        for S, n in counts.items():
            shells[S // (2 * scale)] = n
    e4, p24 = _eisenstein4(size), _power(_pentagonal(size, 1), 24, size)
    theta = [0] * size
    for j in range(top + 1):
        c, n = shells[j] - theta[j], size - j
        form = _convolve(_power(e4, d // 8 - 3 * j, n), _power(p24, j, n), n)
        for k, v in enumerate(form, j):
            theta[k] += c * v
    return theta


# ---------------------------------------------------------------------------
# theta series and characters
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def theta_coset(L: EvenLattice, lam: CosetElement, order: int | Fraction) -> QSeries:
    """Sum of q^((v,v)/2) over coset vectors with (v,v)/2 strictly below order.

    For det(L) = 1, whose only coset is L, theta_L is a modular form, sum_j
    c_j E4^(d/8 - 3j) Delta^j, built in integers (_unimodular_theta): below
    rank 24 nothing is counted and no frame is searched, and from rank 24
    on the shells of norm 2 .. 2 (d // 24) are counted, once.  Every other
    lattice counts its coset's norms.
    A count of norm S / scale sits at grid key S * denom / (2 * scale).  The
    counts stop at the last grid point below the order, norm 2 (order_key -
    1) / denom, passed as that pair of integers, so the shell at the order
    itself is never counted.  The counts are walked or taken through an
    orthogonal frame as products of rank-one sums, by coset_norm_counts'
    rule; a diagonal Gram is its own frame, of index one, and is never
    walked.  A coset whose least norm
    lam.norm_num / lam.den reaches 2 * order is zero, uncounted."""
    denom = series_denominator(L)
    order_key = _key(order, denom)
    if L.det == 1:
        theta = _unimodular_theta(L, max(0, -(-order_key // denom)))
        return QSeries(denom, order_key, {n * denom: v for n, v in enumerate(theta) if v})
    nums: dict[int, int] = {}
    if 2 * order_key * lam.den > lam.norm_num * denom:
        scale, counts = coset_norm_counts(L, lam, (2 * (order_key - 1), denom))
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
def character(L: EvenLattice, m: ModuleLabel, order: int | Fraction) -> QSeries:
    """Graded dimension of the labelled irreducible, exact to the given order.

    Untwisted labels: coset_character_sum of the label alone, so V+- are
    (theta_L phi^(-d) +- psi^(-d))/2 with phi^(-d) and psi^(-d) the plain
    and sign-alternating inverse Euler products.  A twisted sector T+- is
    dim(T) q^(d/16) (h(q^(1/2)) +- h(-q^(1/2))) / 2 with h the inverse
    product over the half-integer exponents: the terms of h at integer
    exponents for T+, at half-integer ones for T-, with no division.
    Neither formula reads a C label's sign or a twisted label's central
    character, so C- and T[i] return the cached series of character_label.
    """
    order = _rational(order)
    same = character_label(m)
    if same is not m:
        return character(L, same, order)
    if m.kind in THETA_PSI:
        return coset_character_sum(L, (m,), order)
    # twisted: build at a shifted order so the final truncation is exact
    denom = series_denominator(L)
    d = L.rank
    shift = Fraction(d, 16)
    inner = _rational(order - shift)
    if inner <= 0:
        return QSeries.zero(denom, order)
    h = euler_product_inv(d, inner, denom, half_integer=True)
    # h(-q^(1/2)) flips the sign of h's q^(j/2) term for odd j: the half-sum
    # keeps even j, the half-difference odd j
    parity = 0 if m.sign > 0 else denom // 2
    dim = twisted_dimension(L)
    kept = {k: v * dim for k, v in h.nums.items() if k % denom == parity}
    return QSeries(denom, h.order_key, kept).shifted(shift)


def character_label(m: ModuleLabel) -> ModuleLabel:
    """The label whose character equals m's by its formula (character): C+
    for either sign of a self-paired coset, T[0] for a twisted label of
    the same sign, m itself for V+-, U and C+."""
    if m.kind == LabelKind.COSET:
        return m if m.sign == 1 else ModuleLabel(LabelKind.COSET, coset=m.coset, sign=1)
    if m.kind == LabelKind.TWISTED:
        return m if m.char == 0 else twisted_pair(0)[m.sign == -1]
    return m


def coset_character_halves(L: EvenLattice, labels, order) -> tuple[QSeries, QSeries]:
    """(a, b) with the sum of character(L, m, order) over untwisted labels m,
    V+- included, equal to (a + b) / 2.

    By linearity a = sum_m w_m theta_m phi^(-d) and b = (sum_m t_m)
    psi^(-d), with (w, t) from THETA_PSI and theta_m the theta of
    label_coset: the thetas, integer counts, are summed in integers and
    each Euler product is taken once for the whole sum.  A label whose
    coset's least norm reaches 2 * order adds no theta and its coset is not
    counted."""
    order = _rational(order)
    denom = series_denominator(L)
    twice: dict[int, int] = {}
    psi_weight = 0
    for m in labels:
        w, t = THETA_PSI[m.kind]
        psi_weight += t
        for k, n in theta_coset(L, label_coset(L, m), order).nums.items():
            twice[k] = twice.get(k, 0) + w * n
    order_key = _key(order, denom)
    # the alternating product only where some label reads it
    psi = (euler_product_inv(L.rank, order, denom, alternating=True).scaled(psi_weight)
           if psi_weight else QSeries(denom, order_key, {}))
    return QSeries(denom, order_key, twice) * euler_product_inv(L.rank, order, denom), psi


def coset_character_sum(L: EvenLattice, labels, order) -> QSeries:
    """Sum of character(L, m, order) over untwisted labels m: coset_character_halves halved."""
    a, b = coset_character_halves(L, labels, order)
    # even term by term: phi^(-d) = psi^(-d) mod 2; v -> -v pairs the vectors of
    # a coset but for 0 in L, so theta_L = 1 and a C coset's theta = 0 mod 2; w_U = 2
    return (a + b).halved()
