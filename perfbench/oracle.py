"""Exact computations the benchmark checks the program's outputs against.

Nothing here imports vlplus.  Every value is derived from the Gram matrix
with integer or Fraction arithmetic, by formulas or closed forms that do
not share code with the program: Bareiss determinants, elimination over
GF(2), closed-form theta series, Euler products expanded by their
defining recurrence, and a direct enumeration of the classes of a
lattice modulo its Gram-Schmidt sublattice.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

# roots (vectors of norm 2) of the named root lattices
ROOT_COUNTS = {"A1": 2, "A2": 6, "D4": 24, "E6": 72, "E8": 240}


# ---------------------------------------------------------------------------
# integer linear algebra
# ---------------------------------------------------------------------------

def det(gram) -> int:
    """Determinant by fraction-free Bareiss elimination."""
    m = [list(r) for r in gram]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def is_positive_definite(gram) -> bool:
    return all(det([r[:k] for r in gram[:k]]) > 0 for k in range(1, len(gram) + 1))


def rank_mod2(gram) -> int:
    rows = [sum((x & 1) << j for j, x in enumerate(r)) for r in gram]
    rank = 0
    for bit in range(len(gram)):
        pivot = next((i for i in range(rank, len(rows)) if rows[i] >> bit & 1), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i] >> bit & 1:
                rows[i] ^= rows[rank]
        rank += 1
    return rank


def r2(gram) -> int:
    """Dimension of the radical of the Gram matrix reduced mod 2."""
    return len(gram) - rank_mod2(gram)


def label_count(gram) -> int:
    """Number of irreducible modules: (det + 7 * 2^r2) / 2."""
    total = det(gram) + 7 * 2 ** r2(gram)
    if total % 2:
        raise ArithmeticError("label count formula gave an odd total")
    return total // 2


def twisted_dim(gram) -> int:
    """Top-level dimension of every twisted module: 2^((d - r2)/2)."""
    return 2 ** ((len(gram) - r2(gram)) // 2)


def pairing(gram, a, b):
    n = len(gram)
    return sum(a[i] * gram[i][j] * b[j] for i in range(n) for j in range(n))


# ---------------------------------------------------------------------------
# seeded lattices
# ---------------------------------------------------------------------------

def small_even_grams(max_det: int = 16) -> list[list[list[int]]]:
    """Every even positive definite Gram matrix of rank 2 to 4 with
    nondecreasing diagonal entries in {2, 4}, off-diagonal entries in
    {-1, 0, 1} and determinant at most max_det, in a fixed order.

    A finite family: all 936 members certify Rational, the slowest in
    about 0.2 s, so a draw from it cannot blow up a run.
    """
    out = []
    for rank in (2, 3, 4):
        slots = list(itertools.combinations(range(rank), 2))
        for diag in itertools.combinations_with_replacement((2, 4), rank):
            for off in itertools.product((-1, 0, 1), repeat=len(slots)):
                g = [[0] * rank for _ in range(rank)]
                for i, x in enumerate(diag):
                    g[i][i] = x
                for (i, j), x in zip(slots, off):
                    g[i][j] = g[j][i] = x
                if is_positive_definite(g) and det(g) <= max_det:
                    out.append(g)
    return out


# ---------------------------------------------------------------------------
# series: dicts {Fraction exponent: Fraction coefficient}, zero terms dropped
# ---------------------------------------------------------------------------

def _clean(s: dict) -> dict:
    return {e: c for e, c in s.items() if c != 0}


def add(a: dict, b: dict, sign: int = 1) -> dict:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + sign * c
    return _clean(out)


def euler_inv(d: int, order: Fraction, alternating: bool, half: bool,
              shift: Fraction = Fraction(0), scale: int = 1) -> dict:
    """scale * q^shift * prod over n >= 1 of (1 -+ q^e)^(-d), e = n or n - 1/2.

    Computed in half-unit exponents by dividing 1 by each factor d times
    (c[k] += s * c[k - a]); terms with exponent >= order are dropped.
    """
    limit = math.ceil((order - shift) * 2)  # half-units below order - shift
    if limit <= 0:
        return {}
    c = [0] * limit
    c[0] = 1
    s = -1 if alternating else 1
    for n in itertools.count(1):
        a = 2 * n - 1 if half else 2 * n
        if a >= limit:
            break
        for _ in range(d):
            for k in range(a, limit):
                c[k] += s * c[k - a]
    return _clean({shift + Fraction(k, 2): scale * x for k, x in enumerate(c)})


def mul_integer(a: list[int], b: list[int]) -> list[int]:
    n = min(len(a), len(b))
    out = [0] * n
    for i, x in enumerate(a[:n]):
        if x:
            for j in range(n - i):
                out[i + j] += x * b[j]
    return out


def theta_rank1(k: int, n: int) -> list[int]:
    """Theta series of the rank-one lattice of norm 2k: sum of q^(k m^2)."""
    c = [0] * n
    m = 0
    while k * m * m < n:
        c[k * m * m] += 1 if m == 0 else 2
        m += 1
    return c


def _divisors(n: int):
    return (t for t in range(1, n + 1) if n % t == 0)


def theta_closed(form, order: int) -> dict:
    """Theta series sum of q^((v,v)/2) from a closed form, exponents < order.

    form is ("A2",), ("D4",), ("E8",) or ("diag", (k1, ..., kd)) for an
    orthogonal sum of rank-one lattices of norms 2*k_i.
    """
    name = form[0]
    if name == "diag":
        c = [1] + [0] * (order - 1)
        for k in form[1]:
            c = mul_integer(c, theta_rank1(k, order))
    elif name in ("A2", "D4", "E8"):
        c = [1] + [0] * (order - 1)
        for n in range(1, order):
            if name == "A2":
                c[n] = 6 * sum((0, 1, -1)[t % 3] for t in _divisors(n))
            elif name == "D4":
                c[n] = 24 * sum(t for t in _divisors(n) if t % 2)
            else:
                c[n] = 240 * sum(t ** 3 for t in _divisors(n))
    else:
        raise ValueError(f"no closed form for {name}")
    return _clean({Fraction(n): Fraction(x) for n, x in enumerate(c)})


# ---------------------------------------------------------------------------
# labels and branchings
# ---------------------------------------------------------------------------

def parse_label(text: str):
    """(kind, coords, sign) of a label V+ V- U[..] C[..]+- T[i]+-."""
    if text in ("V+", "V-"):
        return text[0], None, text[1]
    close = text.index("]")
    inner = text[2:close]
    sign = text[close + 1:] or None
    if text[0] == "T":
        return "T", int(inner), sign
    return text[0], tuple(Fraction(x) for x in inner.split(",")), sign


def gram_schmidt_sublattice(gram):
    """Basis-order Gram-Schmidt vectors, each scaled to a primitive integer vector."""
    d = len(gram)
    basis_q = []
    for i in range(d):
        v = [Fraction(int(i == j)) for j in range(d)]
        for p in basis_q:
            mu = Fraction(pairing(gram, v, p)) / pairing(gram, p, p)
            v = [x - mu * y for x, y in zip(v, p)]
        basis_q.append(v)
    out = []
    for v in basis_q:
        m = math.lcm(*(x.denominator for x in v))
        ints = [int(x * m) for x in v]
        g = math.gcd(*ints)
        out.append(tuple(x // g for x in ints))
    return out


def _sub_coords(gram, basis, v):
    """Coordinates of v in the orthogonal basis, reduced mod 1."""
    return tuple(
        (Fraction(pairing(gram, v, b)) / pairing(gram, b, b)) % 1 for b in basis
    )


def classes_mod_sublattice(gram, basis) -> set:
    """The group L / L1 as reduced coordinate tuples, by closure under the basis."""
    d = len(gram)
    gens = [_sub_coords(gram, basis, [int(i == j) for j in range(d)]) for i in range(d)]
    seen = {tuple(Fraction(0) for _ in range(d))}
    frontier = list(seen)
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = tuple((a + b) % 1 for a, b in zip(x, g))
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


def sublattice_part_count(gram, label: str) -> int:
    """Irreducible constituents of a module over the Gram-Schmidt sublattice.

    The parent coset lam + L splits into the classes lam + g, g in L/L1.
    A twisted parent is one block of multiplicity 2^((d - r2)/2).  An
    orbit parent (2 lam not in L) gives one constituent per class.  A
    vacuum or self-paired parent gives one per negation orbit of classes:
    (N + s) / 2, where s counts the classes with 2 (lam + g) in L1.
    """
    kind, coords, _ = parse_label(label)
    if kind == "T":
        return twisted_dim(gram)
    basis = gram_schmidt_sublattice(gram)
    classes = classes_mod_sublattice(gram, basis)
    d = len(gram)
    index_sq = math.prod(pairing(gram, b, b) for b in basis) // det(gram)
    if math.isqrt(index_sq) ** 2 != index_sq or len(classes) != math.isqrt(index_sq):
        raise ArithmeticError("class count differs from the sublattice index")
    lam = _sub_coords(gram, basis, coords) if coords else (Fraction(0),) * d
    if kind == "U":
        return len(classes)
    s = sum(1 for g in classes if all((2 * (a + b)) % 1 == 0 for a, b in zip(lam, g)))
    return (len(classes) + s) // 2


def orthogonal_part_count(gram, label: str) -> int:
    """Constituents over the rank-one factors of a diagonal lattice.

    Vacuum, self-paired and twisted parents spread over the sign vectors
    of one parity: 2^(d-1).  An orbit parent is one product in which each
    self-paired or trivial coordinate coset splits in two.
    """
    kind, coords, _ = parse_label(label)
    d = len(gram)
    if kind == "U":
        return 2 ** sum(1 for c in coords if (2 * c).denominator == 1)
    return 2 ** (d - 1)
