import importlib.util
import io
import random
from fractions import Fraction
from functools import cache
from pathlib import Path

import pytest
from hypothesis import assume, strategies as st

from vlplus import intmat
from vlplus.certify import verify_stream
from vlplus.lattice import CosetElement, EvenLattice, coset_element, norm2_vectors, validate_even_lattice
from vlplus.qseries import QSeries, _key
from vlplus.sectors import series_denominator, weight_num

A1 = [[2]]
A1_4 = [[4]]
A1_6 = [[6]]
A2 = [[2, 1], [1, 2]]
D22 = [[2, 0], [0, 2]]
D24 = [[2, 0], [0, 4]]
D224 = [[2, 0, 0], [0, 2, 0], [0, 0, 4]]
A3 = [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]
ODD7 = [[2, 1], [1, 4]]  # det 7, no self-paired cosets beyond 0
E6 = [[2, -1, 0, 0, 0, 0], [-1, 2, -1, 0, 0, 0], [0, -1, 2, -1, 0, -1],
      [0, 0, -1, 2, -1, 0], [0, 0, 0, -1, 2, 0], [0, 0, -1, 0, 0, 2]]
E8 = [[2, -1, 0, 0, 0, 0, 0, 0], [-1, 2, -1, 0, 0, 0, 0, 0], [0, -1, 2, -1, 0, 0, 0, -1],
      [0, 0, -1, 2, -1, 0, 0, 0], [0, 0, 0, -1, 2, -1, 0, 0], [0, 0, 0, 0, -1, 2, -1, 0],
      [0, 0, 0, 0, 0, -1, 2, 0], [0, 0, -1, 0, 0, 0, 0, 2]]

# rank <= 3, det <= 16 suite used by the census-wide tests
TEST_GRAMS = [
    A1,
    A1_4,
    A1_6,
    A2,
    D22,
    D24,
    ODD7,
    [[2, 0, 0], [0, 2, 0], [0, 0, 2]],
    D224,
    A3,
]

# certify-ladder rungs that TEST_GRAMS lacks: A4, D4, E6, det 36, A1^5, diag(2,4,6)
LADDER_GRAMS = [
    [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -1, 2]],
    [[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]],
    [[2, -1, 0, 0, 0, 0], [-1, 2, -1, 0, 0, 0], [0, -1, 2, -1, 0, -1],
     [0, 0, -1, 2, -1, 0], [0, 0, 0, -1, 2, 0], [0, 0, -1, 0, 0, 2]],
    [[2, -1, 0, -1], [-1, 4, 0, -1], [0, 0, 6, 0], [-1, -1, 0, 2]],
    [[2 * (i == j) for j in range(5)] for i in range(5)],
    [[2, 0, 0], [0, 4, 0], [0, 0, 6]],
]

CERT_GRAMS = [A1, A1_4, D22, D24, A2, D224]


def _skewed_e8():
    rng = random.Random(3)
    u = intmat.identity(8)
    for _ in range(10):
        i, j = rng.sample(range(8), 2)
        q = rng.randint(-9, 9)
        u[i] = [x + q * y for x, y in zip(u[i], u[j])]
    return intmat.mat_mul(intmat.mat_mul(u, E8), [list(c) for c in zip(*u)])


# E8 in a basis whose norm-2 vectors lie deep in the walk (entries up to
# 9.2e6): the frame search gives up, so its orthogonal sublattice is the
# Gram-Schmidt fallback
SKEWED_E8 = _skewed_e8()


def _unimodular(gram, roots: int):
    """gram, asserted even, of det 1 and with the given number of norm-2 vectors."""
    L = validate_even_lattice(gram)
    assert L.det == 1 and len(norm2_vectors(L)) == roots
    return gram


def _gram(basis, scale: int):
    """The Gram (b, b') / scale of integer basis rows b."""
    return [[sum(x * y for x, y in zip(a, b)) // scale for b in basis] for a in basis]


def _niemeier_a1_24():
    # Construction A on the Golay code [I | J - A], A the icosahedron's
    # adjacency (vertex 0, upper ring 1-5, lower ring 6-10, vertex 11): rows
    # (e_i, (J - A)_i) and 2 e_j, j >= 12, over sqrt 2
    adjacent = set()
    for k in range(5):
        u, u1, w, w1 = 1 + k, 1 + (k + 1) % 5, 6 + k, 6 + (k + 1) % 5
        adjacent |= {(0, u), (u, u1), (w, w1), (u, w), (u, w1), (w, 11)}
    adjacent |= {(b, a) for a, b in adjacent}
    basis = [[int(i == j) for j in range(12)] + [int((i, j) not in adjacent) for j in range(12)]
             for i in range(12)]
    basis += [[2 * (j == 12 + i) for j in range(24)] for i in range(12)]
    return _gram(basis, 2)


def _d16_plus():
    # D16 plus the glue (1/2)^16, rows doubled: the glue in place of the
    # root e1 - e2, whose coefficient in the glue over D16's simple roots is 1/2
    basis = [[1] * 16] + [[2 * (j == i) - 2 * (j == i + 1) for j in range(16)] for i in range(1, 15)]
    basis += [[2 * (j >= 14) for j in range(16)]]
    return _gram(basis, 4)


# even unimodular lattices of rank 16 and 24, whose thetas are modular forms
E8_E8 = _unimodular([row + [0] * 8 for row in E8] + [[0] * 8 + row for row in E8], 480)
D16_PLUS = _unimodular(_d16_plus(), 480)
N_A1_24 = _unimodular(_niemeier_a1_24(), 48)  # the Niemeier lattice with root system A1^24


@cache
def small_even_grams() -> list:
    """The benchmark's fixed family of 936 rank 2-4 Grams (perfbench/oracle.py)."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "oracle.py"
    spec = importlib.util.spec_from_file_location("perfbench_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.small_even_grams()


def lat(gram) -> EvenLattice:
    return validate_even_lattice(gram)


def lowest_weight(L, m):
    """A label's exact lowest conformal weight, as a Fraction."""
    return Fraction(weight_num(L, m), series_denominator(L))


def verify_text(L: EvenLattice, text: str) -> tuple[list[str], str | None]:
    """verify_stream over the text of a certificate file."""
    return verify_stream(L, io.StringIO(text))


@st.composite
def even_grams(draw):
    """Even positive definite Gram matrices of rank <= 3 and det <= 16."""
    d = draw(st.integers(1, 3))
    gram = [[0] * d for _ in range(d)]
    for i in range(d):
        gram[i][i] = 2 * draw(st.integers(1, 4))
        for j in range(i):
            gram[i][j] = gram[j][i] = draw(st.integers(-3, 3))
    minors = intmat.leading_minors(gram)
    assume(all(m > 0 for m in minors) and minors[-1] <= 16)
    return gram


@pytest.fixture(scope="session")
def a1():
    return lat(A1)


@pytest.fixture(scope="session")
def a2():
    return lat(A2)


@pytest.fixture(scope="session")
def d24():
    return lat(D24)


@pytest.fixture(scope="session")
def d224():
    return lat(D224)


def coset_neg(L: EvenLattice, c: CosetElement) -> CosetElement:
    """Oracle: the canonical representative of -c, from a walk of its own."""
    return coset_element(L, tuple(-x for x in c.rep))


def fraction_to_sub(basis, v):
    """Oracle: v B^-1, parent coordinates to sublattice ones, over Fractions."""
    inverse = intmat.rational_inverse([list(b) for b in basis])
    return tuple(sum(a * b for a, b in zip(v, col)) for col in zip(*inverse))


def fraction_to_parent(basis, x):
    """Oracle: x B, sublattice coordinates to parent ones."""
    return tuple(sum(a * b for a, b in zip(x, col)) for col in zip(*basis))


def frac(s) -> Fraction:
    return Fraction(s)


def box_enumerate(gram, lam, bound):
    """Brute-force oracle: scan integer boxes until a whole shell exceeds bound.

    Independent of the Fincke-Pohst path; positive definiteness makes the
    shell minimum grow, so two consecutive empty shells are a safe stop.
    """
    d = len(gram)
    lam = [Fraction(x) for x in lam]
    bound = Fraction(bound)

    def norm(v):
        return sum(v[i] * gram[i][j] * v[j] for i in range(d) for j in range(d))

    found = []
    radius = 0
    empty_shells = 0
    while empty_shells < 2:
        shell_hit = False
        for x in _box(d, radius):
            if radius > 0 and max(abs(c) for c in x) < radius:
                continue  # interior already scanned
            v = tuple(lam[i] + x[i] for i in range(d))
            if norm(v) <= bound:
                found.append(v)
                shell_hit = True
        empty_shells = 0 if shell_hit else empty_shells + 1
        radius += 1
    return sorted(found, key=lambda v: (norm(v), tuple((abs(c), 0 if c >= 0 else 1) for c in v)))


def _box(d, radius):
    if d == 0:
        yield ()
        return
    for x in range(-radius, radius + 1):
        for rest in _box(d - 1, radius):
            yield (x,) + rest


def from_terms(denom: int, order, terms) -> QSeries:
    """The series sum c q^e over terms {e: c} on the grid 1/denom, truncated at order.

    ValueError for an exponent or order off the grid, or a coefficient that
    is not an integer; zero coefficients are not stored."""
    order_key = _key(order, denom)
    nums: dict[int, int] = {}
    for e, c in terms.items():
        e, c = Fraction(e), Fraction(c)
        if c.denominator != 1:
            raise ValueError(f"coefficient {c} of q^{e} is not an integer")
        if c == 0:
            continue
        k = e * denom
        if k.denominator != 1:
            raise ValueError(f"exponent {e} is not on the grid 1/{denom}")
        if k < order_key:
            nums[int(k)] = int(c)
    return QSeries(denom, order_key, nums)


def truncate(s: QSeries, order) -> QSeries:
    """s without its terms at or above order, which must not exceed s.order."""
    key = _key(order, s.denom)
    if key > s.order_key:
        raise ValueError("cannot extend a truncated series")
    return QSeries(s.denom, key, {k: v for k, v in s.nums.items() if k < key})
