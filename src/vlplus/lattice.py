"""Exact geometry of positive definite even lattices, in integers.

A lattice is its integer Gram matrix in a fixed basis; lattice vectors are
integer coordinate tuples, a dual coset is its canonical rep's integer
numerators over det (CosetElement).  Below the public functions every step
is in integers, the LDL^T split one fraction-free pass (intmat.ldl);
Fraction appears only where vectors enter or leave (_scaled, the rep and
min_norm views, the discriminant generators).  Short vectors are
enumerated by one Fincke-Pohst walk (_walk) over a coset's numerators,
counting a class closed under v -> -v from half its tree; one walk of a
minimal shell gives a +- orbit's rep (_least with signs (1, -1)), and every
shell comes from _coset_shell.  One class walker, driven by a Smith form,
enumerates L°/L, L modulo a full-rank sublattice L', and the classes
(lam + L)/L' of a sublattice branching, one walk per +- pair and one cached
table per (sublattice, coset), which every label on the coset reads
(sublattice_classes).  Norm counts (theta series) go through a frame where one
pays: mutually orthogonal vectors spanning a sublattice of small index N,
found once per lattice by the same walk under a node budget (_frame), so
a coset is N classes, each a product of rank-one cosets; coset_norm_counts
states the rule that picks this route or the walk.  A lattice of det 1 is
asked for no counts below rank 24, and for its norms up to 2 (d // 24)
from rank 24 on: its theta is a modular form (qseries.theta_coset).  The
same frame is the orthogonal sublattice every other caller reads
(orthogonal_sublattice), with the Gram-Schmidt basis only where the
search gives up.  A diagonal Gram is its own frame, of index one, and is
never walked: its minimal shell is the product of per-coordinate
choices (_diagonal), kept unexpanded (_TieProduct), and its least
vector is read off in closed form:
each tied coordinate at +D/2, and for a +- orbit the sign that makes the
first untied nonzero coordinate positive.  A sublattice
is one cached Sublattice value (basis, Gram, index, Smith form and
transforms, which change coordinates both ways: sub_nums and lift).  Only
this module does Smith-form arithmetic, v -> U v only in
Sublattice.smith_class, and sublattice_orbit_count counts a sublattice
branching's classes in closed form.  The 2-cocycle and the mod-2 bilinear
data are here too.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product

from . import intmat

Coords = tuple[int, ...]
DualCoords = tuple[Fraction, ...]


class LatticeError(ValueError):
    """Base class for validation failures; message names the violated invariant."""


class NotSymmetric(LatticeError):
    pass


class NotEven(LatticeError):
    def __init__(self, index: int):
        super().__init__(f"diagonal entry at index {index} is odd")
        self.index = index


class NotPositiveDefinite(LatticeError):
    def __init__(self, index: int):
        super().__init__(f"leading principal minor {index} is not positive")
        self.index = index


class BoundNegative(LatticeError):
    pass


class NotFullRank(LatticeError):
    pass


class NotOrthogonalBase(LatticeError):
    pass


class QuotientTooLarge(LatticeError):
    limit = 10**6  # the most classes of L°/L or L/L' that are enumerated one by one


@dataclass(frozen=True)
class EvenLattice:
    """Validated positive definite even lattice; the single source of geometry."""

    gram: tuple[tuple[int, ...], ...]
    det: int

    @property
    def rank(self) -> int:
        return len(self.gram)

    def pairing(self, a, b) -> Fraction | int:
        """Bilinear form of two coordinate vectors (integer or rational)."""
        g = self.gram
        return sum(a[i] * g[i][j] * b[j] for i in range(len(g)) for j in range(len(g)))

    def norm(self, v) -> Fraction | int:
        return self.pairing(v, v)

    def is_diagonal(self) -> bool:
        return _diagonal(self.gram) is not None


@dataclass(frozen=True)
class CosetElement:
    """Canonical representative of a coset of the lattice inside its dual.

    The rep nums / den, over the lattice's determinant den, attains the
    least norm norm_num / den; among equal-norm vectors the representative is
    the one whose coordinate tuple is smallest under the key
    (|c|, sign) per coordinate, nonnegative entries preferred.  This
    tie-break is a convention fixed for reproducibility only.  rep and
    min_norm are exact views for printing and for callers outside.
    """

    den: int
    nums: Coords
    norm_num: int

    def sort_key(self):
        return (self.norm_num, _coords_key(self.nums))

    @property
    def rep(self) -> DualCoords:
        return tuple(Fraction(x, self.den) for x in self.nums)

    @property
    def min_norm(self) -> Fraction:
        return Fraction(self.norm_num, self.den)


@dataclass(frozen=True)
class DiscriminantGroup:
    invariant_factors: tuple[int, ...]
    generators: tuple[DualCoords, ...]
    order: int


@dataclass(frozen=True)
class ModTwoData:
    """Mod-2 reduction of the form: bilinear matrix, its radical, quadratic form."""

    bilinear: tuple[tuple[int, ...], ...]
    radical_basis: tuple[Coords, ...]
    r2: int
    _gram: tuple[tuple[int, ...], ...]

    def q(self, v: Coords) -> int:
        """(v,v)/2 mod 2, well defined on the vector modulo 2L."""
        g = self._gram
        n = sum(v[i] * g[i][j] * v[j] for i in range(len(g)) for j in range(len(g)))
        return (n // 2) & 1


def _coords_key(v: Coords) -> Coords:
    # minimal-norm ties break toward small absolute coordinates, nonnegative first
    return tuple([2 * abs(c) + (c < 0) for c in v])


def validate_even_lattice(gram) -> EvenLattice:
    """Validate a Gram matrix and cache its determinant.

    Raises LatticeError unless gram is a list of rows, NotSymmetric, NotEven
    (1-based index of the odd diagonal entry) or NotPositiveDefinite
    (1-based index of the first non-positive leading minor); and
    LatticeError for a determinant with more digits than Python turns into
    a string (sys.get_int_max_str_digits(), 4300 by default), which no
    report or message could then print.
    """
    if not isinstance(gram, (list, tuple)) or not all(isinstance(r, (list, tuple)) for r in gram):
        raise LatticeError("gram matrix must be a list of rows")
    rows = [list(r) for r in gram]
    d = len(rows)
    if d == 0 or any(len(r) != d for r in rows):
        raise NotSymmetric("gram matrix is not square")
    for r in rows:
        for x in r:
            if not isinstance(x, int) or isinstance(x, bool):
                raise NotSymmetric("gram entries must be integers")
    for i in range(d):
        for j in range(i + 1, d):
            if rows[i][j] != rows[j][i]:
                raise NotSymmetric(f"gram[{i}][{j}] != gram[{j}][{i}]")
    for i in range(d):
        if rows[i][i] % 2 != 0:
            raise NotEven(i + 1)
    gram = tuple(map(tuple, rows))
    minors = _ldl_pass(gram)[0]
    for i, m in enumerate(minors):
        if m <= 0:
            raise NotPositiveDefinite(i + 1)
    digits = sys.get_int_max_str_digits()
    # 10**digits > 2**(3 * digits), so a shorter determinant needs no power built
    if digits and minors[-1].bit_length() > 3 * digits and minors[-1] >= 10**digits:
        raise LatticeError(f"the determinant has more than {digits} digits")
    return EvenLattice(gram=gram, det=minors[-1])


# ---------------------------------------------------------------------------
# short vector enumeration
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _ldl_pass(gram: tuple[tuple[int, ...], ...]) -> tuple[list[int], list[list[int]]]:
    """intmat.ldl(gram), run once per Gram: validate_even_lattice reads its
    leading minors and _ldl_cached its pivot rows (neither writes to them)."""
    return intmat.ldl(gram)


@lru_cache(maxsize=None)
def _ldl_cached(gram: tuple[tuple[int, ...], ...]):
    """Integer LDL^T split of a positive definite Gram matrix: (M, A, P, C) with

        M * q(x) = sum_i A[i] * (P[i] * x_i + sum_{j>i} C[i][j] * x_j) ** 2,

    all entries integers and M, A[i], P[i] positive: (P[i], C[i]) is pivot row
    i of intmat.ldl over its gcd g[i], weight i is minors[i] / (minors[i-1]
    P[i]^2) = g[i]^2 / (minors[i-1] minors[i]), M their least common denominator.
    """
    minors, rows = _ldl_pass(gram)
    g = [math.gcd(*row) for row in rows]
    den = [a * b for a, b in zip([1] + minors, minors)]  # weight i is g[i]^2 / den[i]
    M = math.lcm(*(d // math.gcd(h * h, d) for h, d in zip(g, den)))
    A = tuple(M * h * h // d for h, d in zip(g, den))
    P = tuple(m // h for m, h in zip(minors, g))
    C = tuple((0,) * (i + 1) + tuple(x // h for x in row[1:]) for i, (row, h) in enumerate(zip(rows, g)))
    return M, A, P, C


@lru_cache(maxsize=None)
def _diagonal(gram: tuple[tuple[int, ...], ...]) -> tuple[int, ...] | None:
    """The diagonal of a diagonal Gram matrix, None for any other: decided once per Gram.

    A diagonal Gram's LDL^T split is itself (M = 1, A its diagonal), so its
    cosets are counted and canonicalized coordinatewise, with no walk."""
    n = len(gram)
    if any(gram[i][j] for i in range(n) for j in range(n) if i != j):
        return None
    return tuple(gram[i][i] for i in range(n))


def _rational(x) -> int | Fraction:
    """x as an exact rational: an int when it is integral, else a Fraction
    (x itself when it is one, so an entry builds at most one).  An int's
    hash is C code and a Fraction's Python code, so an integral order keys
    the caches below the entry points as an int."""
    if type(x) is int:
        return x
    if not isinstance(x, Fraction):
        x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def _scaled(lam) -> tuple[int, list[int]]:
    """(D, nums) with lam = nums / D and D the least common denominator."""
    lam = list(map(_rational, lam))
    D = math.lcm(*(x.denominator for x in lam))
    return D, [x.numerator * (D // x.denominator) for x in lam]


def _budget(bound, scale: int) -> int:
    """Largest integer S with S / scale <= bound, for a nonnegative bound: a
    rational, or a pair (num, den) of integers, den > 0, read as num / den
    with no Fraction built."""
    if isinstance(bound, tuple):
        num, den = bound
    else:
        bound = _rational(bound)
        num, den = bound.numerator, bound.denominator
    if num < 0:
        raise BoundNegative("enumeration bound must be nonnegative")
    return scale * num // den


class _OutOfNodes(Exception):
    """A walk's node budget ran out."""


def _walk(gram, D: int, nums: list[int], budget: int, mode: str, nodes: list[int] | None = None):
    """Fincke-Pohst over the integer vectors w = nums (mod D), in integers only.

    A leaf is w with S = M * q(w) <= budget, so w / D lies in the coset
    nums / D + L with norm S / (M * D^2).  mode "vectors" returns every
    leaf as (S, w) unsorted, "counts" returns {S: leaf count}, "pairs"
    returns one (S, w) of each +- pair of nonzero leaves, unsorted, and
    "minimum" returns (S, shell), the least S and every leaf at it; it
    lowers the budget to the best S found, so only the minimal shell is
    walked.  In "counts" and "pairs" a class closed under negation (2 nums
    = 0 mod D) is walked over x >= 0 at each level where every coordinate
    above is 0; a subtree under x > 0 stands for its negation too, counts
    twice and gives the leaves whose last nonzero coordinate is positive.
    With nodes, each level charges its hi - lo candidates to nodes[0] and
    the walk raises _OutOfNodes once that is negative.
    """
    _, A, P, C = _ldl_cached(gram)
    d = len(gram)
    w = [0] * d
    out: list = []
    counts: dict[int, int] = {}
    shell: list = []
    a0, p0 = A[0], P[0]

    def rec(i: int, used: int, budget: int, k: int) -> int:
        # k weighs each leaf; 0 while every coordinate above i is 0 in a closed class
        rem = budget - used
        if rem < 0:
            return budget
        r = math.isqrt(rem // A[i])
        p = P[i]
        if k:
            ci = C[i]
            s = 0
            for j in range(i + 1, d):
                s += ci[j] * w[j]
            lo = -((r + s) // p)
            lo += (nums[i] - lo) % D
        else:
            s, lo = 0, nums[i] % D
        hi = (r - s) // p + 1
        if nodes is not None:
            nodes[0] -= hi - lo
            if nodes[0] < 0:
                raise _OutOfNodes
        if not k:
            k = 2
            if lo == 0:
                # x = 0 is its own negation: keep halving below it
                w[i] = 0
                if i:
                    rec(i - 1, used, budget, 0)
                elif mode == "counts":
                    counts[used] = counts.get(used, 0) + 1
                lo = D
        if i:
            a = A[i]
            for x in range(lo, hi, D):
                w[i] = x
                y = p * x + s
                budget = rec(i - 1, used + a * y * y, budget, k)
            return budget
        tail = tuple(w[1:])
        if mode == "counts":
            for x in range(lo, hi, D):
                y = p0 * x + s
                S = used + a0 * y * y
                counts[S] = counts.get(S, 0) + k
        elif mode != "minimum":
            for x in range(lo, hi, D):
                y = p0 * x + s
                out.append((used + a0 * y * y, (x,) + tail))
        else:
            for x in range(lo, hi, D):
                y = p0 * x + s
                S = used + a0 * y * y
                if S <= budget:
                    if S < budget or not shell:
                        shell.clear()
                        budget = S
                    shell.append((x,) + tail)
        return budget

    closed = mode in ("counts", "pairs") and all(2 * x % D == 0 for x in nums)
    budget = rec(d - 1, 0, budget, 0 if closed else 1)
    if mode == "counts":
        return counts
    if mode == "minimum":
        return budget, shell
    return out


def enumerate_coset_with_norms(
    L: EvenLattice, lam: DualCoords, bound: Fraction
) -> list[tuple[DualCoords, Fraction]]:
    """All v in lam + L with (v,v) <= bound, with norms, sorted by (norm, key)."""
    D, nums = _scaled(lam)
    scale = _ldl_cached(L.gram)[0] * D * D
    leaves = _walk(L.gram, D, nums, _budget(bound, scale), "vectors")
    # v = w / D with D > 0, so the integer key orders exactly as (norm, key) of v
    leaves.sort(key=lambda p: (p[0], _coords_key(p[1])))
    coord = {x: Fraction(x, D) for x in {x for _, w in leaves for x in w}}
    norm = {S: Fraction(S, scale) for S in {S for S, _ in leaves}}
    return [(tuple(map(coord.__getitem__, w)), norm[S]) for S, w in leaves]


def _coset_shell(gram, D: int, nums) -> tuple[int, list[Coords] | _TieProduct]:
    """(S, shell): the least S of the walk over nums (mod D) and every leaf at it.

    Every canonicalization reads its shell here.  The minimal shell of
    -nums (mod D) is the negated shell, so one walk canonicalizes a class
    and its negation.  A diagonal Gram is not walked: each coordinate is
    least on its own, at the centred numerator, where -D/2 ties with D/2,
    and the shell is the product of those choices, kept unexpanded
    (_TieProduct): _least reads it in closed form, and iterating it
    expands it (delta_set)."""
    # center the coordinates in [-1/2, 1/2) so the initial norm bound is small
    start = [x - D * ((2 * x + D) // (2 * D)) for x in nums]
    diag = _diagonal(gram)
    if diag is not None:
        return sum(g * x * x for g, x in zip(diag, start)), _TieProduct(start, D)
    n = len(gram)
    budget = _ldl_cached(gram)[0] * sum(start[i] * gram[i][j] * start[j]
                                        for i in range(n) for j in range(n))
    return _walk(gram, D, start, budget, "minimum")


class _TieProduct:
    """The minimal shell of a coset nums / D + L of a diagonal Gram, unexpanded.

    start holds the centred numerators, in [-D/2, D/2); a coordinate at
    -D/2 ties with D/2, so t ties make a shell of 2^t vectors, the product
    of the per-coordinate choices.  Iterating yields that product."""

    __slots__ = ("start", "D")

    def __init__(self, start: list[int], D: int):
        self.start, self.D = start, D

    def __iter__(self):
        return product(*((x, -x) if 2 * x == -self.D else (x,) for x in self.start))

    def __len__(self) -> int:
        return 2 ** sum(2 * x == -self.D for x in self.start)


def _least(shell, signs=(1,)) -> Coords:
    """The least under the key of the shell vectors times each of signs.

    A diagonal Gram's shell (_TieProduct) is never expanded: times a sign,
    a tied coordinate is least at +D/2 and any other is the sign times its
    numerator.  Two signs give vectors that differ only off the ties, so
    the first nonzero coordinate there decides: the sign making it positive."""
    if isinstance(shell, _TieProduct):
        D, s = shell.D, signs[0]
        if len(signs) > 1:
            s = next((1 if x > 0 else -1 for x in shell.start if x and 2 * x != -D), 1)
        return tuple([-x if 2 * x == -D else s * x for x in shell.start])
    return min((tuple([s * x for x in w]) for w in shell for s in signs), key=_coords_key)


def _element(L: EvenLattice, E: int, S: int, w: Coords) -> CosetElement:
    """The coset element of the leaf w / E, of norm S / (M E^2), over the denominator det."""
    det = L.det
    return CosetElement(det, tuple(x * det // E for x in w), S * det // (_ldl_cached(L.gram)[0] * E * E))


def integral_coords(nums, den: int) -> Coords:
    """nums / den for a vector that must lie in the lattice; AssertionError otherwise."""
    if any(x % den for x in nums):
        raise AssertionError(f"{list(nums)} / {den} is not a lattice vector")
    return tuple(x // den for x in nums)


def _canonical(L: EvenLattice, D: int, nums, signs) -> CosetElement:
    """The element of the coset nums / D + L at the least shell vector times signs;
    ValueError unless nums / D is a dual vector."""
    if any(sum(map(operator.mul, row, nums)) % D for row in L.gram):
        raise ValueError("coordinates are not a dual vector (G v is not integral)")
    S, shell = _coset_shell(L.gram, D, nums)
    return _element(L, D, S, _least(shell, signs))


def coset_element(L: EvenLattice, v: DualCoords) -> CosetElement:
    """Canonicalize a dual vector to its coset representative; ValueError for any other vector."""
    return _canonical(L, *_scaled(v), (1,))


def orbit_element(L: EvenLattice, v: DualCoords) -> CosetElement:
    """The lesser, under sort_key, of the canonical reps of v + L and -v + L: one walk."""
    return _canonical(L, *_scaled(v), (1, -1))


@lru_cache(maxsize=None)
def zero_coset(L: EvenLattice) -> CosetElement:
    return CosetElement(L.det, (0,) * L.rank, 0)


def coset_is_trivial(c: CosetElement) -> bool:
    return not any(c.nums)


def coset_two_torsion(L: EvenLattice, c: CosetElement) -> bool:
    """True iff twice the coset lies in the lattice."""
    return all(2 * x % c.den == 0 for x in c.nums)


@lru_cache(maxsize=None)
def discriminant_group(L: EvenLattice) -> DiscriminantGroup:
    """Dual-quotient structure from the Smith form u G v = diag(d) of the Gram
    matrix: G^-1 u^-1 = v diag(d)^-1, so generator i is column i of v over d_i."""
    d, _, v = intmat.snf([list(r) for r in L.gram])
    if math.prod(d) != L.det:
        raise AssertionError("discriminant order must equal det(gram)")
    keep = [i for i, f in enumerate(d) if f != 1]
    gens = tuple(tuple(Fraction(row[i], d[i]) for row in v) for i in keep)
    return DiscriminantGroup(invariant_factors=tuple(d[i] for i in keep), generators=gens,
                             order=L.det)


def _class_steps(smith, v, shift, den: int):
    """(c, nums) per class x = v diag(smith)^-1 (shift / den + c), c in prod Z/smith_i.

    nums are x's integer numerators over den * smith[-1]; c lists only the
    coordinates of smith_i > 1, as the others are 0."""
    order = math.prod(smith)
    if order > QuotientTooLarge.limit:
        raise QuotientTooLarge(f"the quotient has {order} classes; at most "
                               f"{QuotientTooLarge.limit} can be enumerated")
    top = smith[-1]
    base = [top // f * t for t, f in zip(shift, smith)]
    nums = [sum(map(operator.mul, row, base)) for row in v]
    # nums = v (base + step c), kept up to date as c advances: each coordinate
    # that changes adds its change times column i of v diag(step)
    steps = [(top // f * den, i) for i, f in enumerate(smith) if f > 1]
    cols = [[row[i] * s for row in v] for s, i in steps]
    prev = (0,) * len(steps)
    for c in product(*(range(f) for f in smith if f > 1)):
        for ci, pi, col in zip(c, prev, cols):
            if ci != pi:
                nums = [x + (ci - pi) * y for x, y in zip(nums, col)]
        prev = c
        yield c, nums


def _class_walks(gram, smith, v, shift, den: int):
    """Walk one class of each +- pair of _class_steps.

    Yields (self_paired, S, shell): x walked in gram over E = den *
    smith[-1], and the least S of the walk with every leaf at it.  The
    classes are closed under negation iff 2 shift / den is integral; then
    -x is the class c' = -c - 2 shift / den (mod smith), whose shell is the
    negated one, and the later of c and c' is not walked.  x is
    self-paired iff c' = c."""
    E = den * smith[-1]
    closed = all(2 * t % den == 0 for t in shift)
    twice = [(2 * t // den, f) for t, f in zip(shift, smith) if f > 1]
    neg = None
    for c, nums in _class_steps(smith, v, shift, den):
        if closed:
            neg = tuple((-t - ci) % f for (t, f), ci in zip(twice, c))
            if neg < c:
                continue  # came with the walk of its negation, the earlier class
        yield (neg == c, *_coset_shell(gram, E, nums))


def _orbits(L: EvenLattice, smith, v, shift, den: int) -> list[tuple[CosetElement, bool]]:
    """(c, self_paired) per class pair of _class_walks in L, sorted by sort_key: c
    is the canonical rep of the lesser of x and -x (of x when self-paired), from one shell."""
    E = den * smith[-1]
    out = [(_element(L, E, S, _least(shell, (1, -1))), self_paired)
           for self_paired, S, shell in _class_walks(L.gram, smith, v, shift, den)]
    out.sort(key=lambda r: r[0].sort_key())
    return out


def _class_minima(gram, smith, v, lift=tuple) -> list[tuple[int, tuple]]:
    """[(S, lift(w))] over the classes of prod Z/smith_i: zero first, then by (S, key).

    Class c is x = v diag(smith)^-1 c, walked in gram as its integer
    numerators over D = smith[-1]; w / D attains the minimal norm S / (M D^2).
    One walk serves c and -c, whose minimal shells are negatives."""
    D = smith[-1]
    out = []
    for self_paired, S, shell in _class_walks(gram, smith, v, [0] * len(smith), 1):
        out.append((S, _least(shell)))
        if not self_paired:
            out.append((S, _least(shell, (-1,))))
    if len({tuple(y % D for y in w) for _, w in out}) != math.prod(smith):
        raise AssertionError("duplicate class generated from the Smith form")
    out = sorted(((S, lift(w)) for S, w in out), key=lambda p: (p[0], _coords_key(p[1])))
    if out[0][0] != 0:
        raise AssertionError("zero class missing")
    return out


@lru_cache(maxsize=None)
def dual_orbits(L: EvenLattice) -> tuple[tuple[CosetElement, bool], ...]:
    """(c, self_paired) per +- orbit of L°/L, c its rep: the zero coset first, then by sort_key."""
    d, _, v = intmat.snf([list(r) for r in L.gram])
    return tuple(_orbits(L, d, v, [0] * len(d), 1))


@lru_cache(maxsize=None)
def minimal_coset_reps(L: EvenLattice) -> tuple[CosetElement, ...]:
    """One canonical CosetElement per element of the discriminant group.

    The zero coset comes first; the rest are sorted by (min_norm, key).
    """
    d, _, v = intmat.snf([list(r) for r in L.gram])
    return tuple(_element(L, d[-1], S, w) for S, w in _class_minima(L.gram, d, v))


def norm2_vectors(L: EvenLattice) -> tuple[Coords, ...]:
    """All lattice vectors of norm exactly 2 (the root set), possibly empty, sorted by key."""
    two = 2 * _ldl_cached(L.gram)[0]
    leaves = _walk(L.gram, 1, [0] * L.rank, two, "vectors")
    return tuple(sorted((w for S, w in leaves if S == two), key=_coords_key))


def delta_set(L: EvenLattice, lam: CosetElement) -> tuple[Coords, ...]:
    """Lattice shifts preserving the minimal coset norm: {a : |lam+a|^2 = |lam|^2}."""
    _, shell = _coset_shell(L.gram, lam.den, lam.nums)
    return tuple(sorted(tuple((x - y) // lam.den for x, y in zip(w, lam.nums)) for w in shell))


@dataclass(frozen=True)
class Sublattice:
    """A full-rank sublattice with its change of basis.

    basis holds the generators as rows B in the parent's coordinates;
    lattice is the sublattice in that basis (Gram B G B^T), index is
    |det B|.  With U B^T V = diag(smith) the Smith form, a parent vector v
    lies in the class U v mod smith and B^-1 = U^T diag(smith)^-1 V^T; a
    vector x in sublattice coordinates is x B in parent coordinates.
    """

    parent: EvenLattice
    basis: tuple[Coords, ...]
    lattice: EvenLattice
    index: int
    smith: tuple[int, ...]
    smith_u: tuple[Coords, ...]
    smith_v: tuple[Coords, ...]

    def smith_class(self, nums) -> list[int]:
        """U nums; for a lattice vector, U nums mod smith is its class modulo the sublattice."""
        return [sum(map(operator.mul, nums, row)) for row in self.smith_u]

    def lift(self, nums) -> list[int]:
        """nums B: sublattice numerators to parent ones over the same denominator."""
        return [sum(map(operator.mul, nums, col)) for col in zip(*self.basis)]

    def sub_nums(self, nums) -> list[int]:
        """nums B^-1 smith[-1]: parent numerators to sublattice ones over smith[-1] times as much."""
        top = self.smith[-1]
        y = [top // f * t for f, t in zip(self.smith, self.smith_class(nums))]
        return [sum(map(operator.mul, y, row)) for row in self.smith_v]


@lru_cache(maxsize=None)
def sublattice(L: EvenLattice, basis: tuple[Coords, ...]) -> Sublattice:
    """The sublattice spanned by the rows of basis; raises NotFullRank."""
    rows = [list(b) for b in basis]
    if len(rows) != L.rank or any(len(r) != L.rank for r in rows):
        raise NotFullRank("sublattice basis must have full rank")
    try:
        sub = validate_even_lattice(intmat.mat_mul(intmat.mat_mul(rows, L.gram), list(zip(*rows))))
    except NotPositiveDefinite:  # B G B^T is positive semidefinite, singular iff B is
        raise NotFullRank("sublattice basis must have full rank")
    except LatticeError as e:  # only a determinant too long to print: L is valid
        raise LatticeError(f"sublattice: {e}")
    smith, u, v = intmat.snf([list(c) for c in zip(*rows)])
    index = math.prod(smith)  # |det B|
    if sub.det != index * index * L.det:
        raise AssertionError("sublattice determinant must be index^2 * det")
    return Sublattice(parent=L, basis=basis, lattice=sub, index=index, smith=tuple(smith),
                      smith_u=tuple(map(tuple, u)), smith_v=tuple(map(tuple, v)))


def orthogonal_sublattice(L: EvenLattice) -> Sublattice:
    """Full-rank pairwise-orthogonal sublattice: the frame _frame finds, else
    (no frame within its bounds) the Gram-Schmidt basis; both are cached."""
    return _frame(L) or _gram_schmidt(L)


@lru_cache(maxsize=None)
def _gram_schmidt(L: EvenLattice) -> Sublattice:
    """The Gram-Schmidt basis, scaled, as a full-rank pairwise-orthogonal sublattice.

    With G = C^T diag(d) C (C unit upper triangular), Gram-Schmidt vector
    i is column i of C^-1, scaled by the least positive integer clearing
    its denominators, so the sublattice Gram is diagonal.  Row k of C is
    (P[k] e_k + C[k]) / P[k] in _ldl_cached's integer split, so the column
    times P[0]...P[i-1] is integral: back substitution runs in integers,
    and a gcd gives the scaling.  A diagonal input gives the identity basis.
    """
    _, _, P, C = _ldl_cached(L.gram)
    basis: list[Coords] = []
    for i in range(L.rank):
        y = [0] * L.rank
        y[i] = math.prod(P[:i])
        for k in range(i - 1, -1, -1):
            y[k] = -sum(C[k][j] * y[j] for j in range(k + 1, i + 1)) // P[k]
        g = math.gcd(*y)
        basis.append(tuple(v // g for v in y))
    return sublattice(L, tuple(basis))


# ---------------------------------------------------------------------------
# theta counts through an orthogonal frame
# ---------------------------------------------------------------------------

FRAME_NODES = 1 << 12  # the most enumeration steps one frame search takes
FRAME_SEARCH = 1 << 16  # B^d det above which coset_norm_counts searches for a frame
FRAME_RATIO = 1 << 4  # a frame of index N is used when FRAME_RATIO N^2 <= B^d // det


def _kernel(rows, n: int) -> list[list[int]]:
    """A basis, as rows, of the integer vectors x with r . x = 0 for every r in rows.

    Per row, Euclid's steps on the basis vectors' values r . x (unimodular,
    so the span is kept) leave one nonzero value, and its vector is dropped."""
    basis = intmat.identity(n)
    for r in rows:
        vals = [sum(map(operator.mul, r, x)) for x in basis]
        while sum(map(bool, vals)) > 1:
            i = min((j for j, t in enumerate(vals) if t), key=lambda j: abs(vals[j]))
            for j, t in enumerate(vals):
                if t and j != i:
                    q = t // vals[i]
                    basis[j] = [a - q * b for a, b in zip(basis[j], basis[i])]
                    vals[j] -= q * vals[i]
        basis = [x for x, t in zip(basis, vals) if not t]
    return basis


@lru_cache(maxsize=None)
def _frame(L: EvenLattice) -> Sublattice | None:
    """A frame of L: d mutually orthogonal lattice vectors, as a Sublattice; None
    when the search takes more than FRAME_NODES enumeration steps or the
    frame has more than QuotientTooLarge.limit classes.

    A diagonal Gram's frame is _gram_schmidt(L), of index 1.  Otherwise
    each walk is _walk's "pairs" mode, all charged to one nodes budget of
    FRAME_NODES.  One of each +- pair of nonzero vectors of norm at most
    the least diagonal entry is taken in (norm, key) order, each kept if
    it is orthogonal to all kept so far; then, while fewer than d are
    kept, the shortest vector of their orthogonal complement (the integer
    kernel of the kept vectors times G, walked in its own Gram) is kept.
    E8 gets 8 roots (index 16), D4 4 roots (index 2), E6 4 roots and norms
    4 and 12 (index 16)."""
    d, G = L.rank, L.gram
    if _diagonal(G) is not None:
        return _gram_schmidt(L)
    nodes = [FRAME_NODES]
    kept: list[Coords] = []
    forms: list[list[int]] = []  # G f per kept f: f . x is the pairing (f, x)

    def keep(f: Coords) -> None:
        kept.append(f)
        forms.append([sum(map(operator.mul, row, f)) for row in G])

    def short(gram, least: int) -> list[tuple[int, Coords]]:
        # one of each +- pair of nonzero vectors of norm <= least, by (S, key)
        leaves = _walk(gram, 1, [0] * len(gram), _ldl_cached(gram)[0] * least, "pairs", nodes)
        return sorted(leaves, key=lambda p: (p[0], _coords_key(p[1])))

    try:
        for _, f in short(G, min(r[i] for i, r in enumerate(G))):
            if len(kept) == d:
                break
            if not any(sum(map(operator.mul, g, f)) for g in forms):
                keep(f)
        while len(kept) < d:
            K = _kernel(forms, d)
            GK = [[sum(map(operator.mul, row, y)) for row in G] for y in K]
            sub = tuple(tuple(sum(map(operator.mul, x, gy)) for x in K) for gy in GK)
            y = short(sub, min(r[i] for i, r in enumerate(sub)))[0][1]
            keep(tuple(sum(c * x[j] for c, x in zip(y, K)) for j in range(d)))
    except _OutOfNodes:
        return None
    F = sublattice(L, tuple(kept))
    return F if F.index <= QuotientTooLarge.limit else None


@lru_cache(maxsize=None)
def _rank_one_row(n: int, x: int, E: int, cap: int) -> dict[int, int]:
    """{n w^2: count} over w = x (mod E) with n w^2 <= cap: one rank-one coset's norms."""
    r = math.isqrt(cap // n)
    row: dict[int, int] = {}
    for w in range(x - E * ((x + r) // E), r + 1, E):  # w = x (mod E), |w| <= r
        row[n * w * w] = row.get(n * w * w, 0) + 1
    return row


@lru_cache(maxsize=None)
def _rank_one_product(key: tuple[tuple[int, int], ...], E: int, cap: int) -> dict[int, int]:
    """{T: count} of T = sum_b n_b w_b^2 <= cap over w_b = x_b (mod E), for (n_b, x_b)
    in key: the cached product of key's prefix times the row of its last factor.
    Rows and products are shared by every caller, so none is ever written to."""
    row = _rank_one_row(*key[-1], E, cap)
    if len(key) == 1:
        return row
    out: dict[int, int] = {}
    for s1, n1 in _rank_one_product(key[:-1], E, cap).items():
        for s2, n2 in row.items():
            if s1 + s2 <= cap:
                out[s1 + s2] = out.get(s1 + s2, 0) + n1 * n2
    return out


def _frame_counts(F: Sublattice, lam: CosetElement, bound) -> tuple[int, dict[int, int]]:
    """(scale, counts) as in coset_norm_counts, summed over the classes of (lam + L)/F.

    A class's vectors, in F's coordinates, are w / E with w_b = x_b (mod E),
    E = lam.den * smith[-1], of norm T / E^2 for T = sum_b n_b w_b^2: a
    product of rank-one cosets, keyed by the sorted (n_b, x_b up to sign),
    so a class and its negation share one product: cached rank-one rows on
    the cached product of the key's prefix (_rank_one_product), shared by
    cosets and lattices of equal frame norms.  mult times it is added to
    this call's own total.  The scale is E^2.  A frame of index one has one
    class, lam itself in F's coordinates."""
    E = lam.den * F.smith[-1]
    norms = _diagonal(F.lattice.gram)
    classes: dict[tuple, int] = {}
    for _, nums in _class_steps(F.smith, F.smith_v, F.smith_class(lam.nums), lam.den):
        key = tuple(sorted((n, min(x % E, -x % E)) for n, x in zip(norms, nums)))
        classes[key] = classes.get(key, 0) + 1
    cap = _budget(bound, E * E)
    total: dict[int, int] = {}
    for key, mult in classes.items():
        for T, n in _rank_one_product(key, E, cap).items():
            total[T] = total.get(T, 0) + mult * n
    return E * E, total


def coset_norm_counts(L: EvenLattice, lam: CosetElement, bound) -> tuple[int, dict[int, int]]:
    """(scale, {S: number of v in the coset lam with norm S / scale}), over norms <= bound.

    The bound is a rational, or a pair (num, den) of integers for num /
    den, as theta_coset passes its cutoff (_budget); BoundNegative if it is
    negative.  The counts are keyed by integer numerators over one positive scale, so
    no norm is built as a Fraction.  They are walked (_walk, scale M
    lam.den^2 with M of the integer LDL^T split) or counted through a frame
    (_frame_counts), by a fixed rule; both give the same counts.  A
    diagonal Gram is its own frame, of index one, and always takes it.
    For any other Gram, with B = floor(bound) + 1, B^d // det estimates
    the square of a coset's vector count under the bound, and B^d det the
    square of all det cosets' count.  A frame is searched for (once per
    lattice) when B^d det > FRAME_SEARCH, and taken when found with index
    N and FRAME_RATIO N^2 <= B^d // det: N class steps against a walk.
    Both constants are measured crossovers (fastest of 7 runs over every
    coset, 2 shared vCPUs).  Of every pair 2^8..2^22 by 2^1..2^9, they give
    the least total over E8, E6, D4, A4, A3, A2, det 36 and det 7 at 37
    orders (25.7 ms; 102 walked), and within 1% of the least over those
    and 30 random Grams of rank 2-6 at orders 2-24 (968 ms against 960;
    1,439 walked).  Searching: E8 at order 2, B^d det = 2^16, walks in
    0.98 ms against a 0.99 ms search plus 0.15 ms through the frame; D4 at
    order 6 (82,944) in 0.60 against 0.25 plus 0.19.  Taking: a rank 3
    Gram of det 270 and N = 4 at order 12 (B^d // det = 3.2 N^2) walks in
    8.1 ms against 14.8 through the frame; one of rank 5, det 78 and N =
    72 at order 12 (20 N^2) in 155 against 141.  theta_coset does not
    call this on a det-1 lattice below rank 24, and from rank 24 on calls it
    once, to norm 2 (d // 24): a unimodular theta is a modular form, built
    from those shells alone."""
    if L.is_diagonal():
        return _frame_counts(_frame(L), lam, bound)
    B = _budget(bound, 1) + 1
    if B ** L.rank * L.det > FRAME_SEARCH:
        F = _frame(L)
        if F is not None and FRAME_RATIO * F.index ** 2 <= B ** L.rank // L.det:
            return _frame_counts(F, lam, bound)
    scale = _ldl_cached(L.gram)[0] * lam.den * lam.den
    return scale, _walk(L.gram, lam.den, lam.nums, _budget(bound, scale), "counts")


@lru_cache(maxsize=None)
def coset_reps_mod_sublattice(
    L: EvenLattice, basis: tuple[Coords, ...]
) -> tuple[Coords, ...]:
    """Canonical representatives of the lattice modulo a full-rank sublattice.

    Zero first, the rest sorted by (norm, key); each has minimal norm in its
    class.  Class c of U v mod smith is V diag(smith)^-1 c = B^-T U^-1 c in
    sublattice coordinates, walked there and mapped back as w B / D.
    """
    S = sublattice(L, basis)
    return tuple(v for _, v in _class_minima(S.lattice.gram, S.smith, S.smith_v,
                                             lambda w: integral_coords(S.lift(w), S.smith[-1])))


@lru_cache(maxsize=None)
def sublattice_classes(S: Sublattice, lam: CosetElement) -> tuple[tuple[CosetElement, bool], ...]:
    """The classes of (lam + L) modulo the sublattice, up to negation, in its coordinates.

    One (c, self_paired) per class x, with x and -x counted once where both
    are classes (2 lam in L), sorted by sort_key: c is the orbit rep of
    {x + L', -x + L'}.  A parent vector lam + g with U g = c (mod smith) is
    x = V diag(smith)^-1 (U lam + c) in sublattice coordinates, so the
    classes are walked in integers, one walk per pair.  The table is
    cached per (sublattice, coset): every label on the coset (V+- on the
    zero coset, both signs of a C label) reads one walk of its classes."""
    return tuple(_orbits(S.lattice, S.smith, S.smith_v, S.smith_class(lam.nums), lam.den))


def sublattice_orbit_count(S: Sublattice, lam: CosetElement) -> int:
    """len(sublattice_classes(S, lam)) in closed form, from the Smith class of lam.

    The index-many classes of lam + L stay unpaired unless 2 lam lies in L;
    then negation pairs them and fixes 2^(#even smith_i) of them if U 2lam
    is even in every slot of even smith_i, and none otherwise."""
    D, y = lam.den, S.smith_class(lam.nums)
    if any(2 * t % D for t in y):
        return S.index
    fixed = all(f % 2 or 2 * t // D % 2 == 0 for f, t in zip(S.smith, y))
    return (S.index + fixed * 2 ** sum(f % 2 == 0 for f in S.smith)) // 2


def epsilon_cocycle(L: EvenLattice, a: Coords, b: Coords) -> int:
    """The sign cocycle (-1)^(sum_{i>j} a_i G_ij b_j), bimultiplicative.

    As G_ii is even, eps(a,b) eps(b,a) = (-1)^(a,b).  The other triangle's
    cocycle is eps times (-1)^(a,b), the coboundary of (-1)^((a,a)/2); the
    two agree on the pairs of even pairing, the only ones branching reads."""
    g = L.gram
    return -1 if sum(a[i] * g[i][j] * b[j] for i in range(L.rank) for j in range(i)) % 2 else 1


@lru_cache(maxsize=None)
def mod_two_data(L: EvenLattice) -> ModTwoData:
    """Mod-2 bilinear matrix, its radical and the quadratic form (v,v)/2 mod 2."""
    d = L.rank
    b = tuple(tuple(L.gram[i][j] & 1 for j in range(d)) for i in range(d))
    radical = tuple(intmat.gf2_nullspace([list(r) for r in b]))
    return ModTwoData(bilinear=b, radical_basis=radical, r2=len(radical), _gram=L.gram)
