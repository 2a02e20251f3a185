import math
import operator
import random
import sys
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from conftest import (A1, A2, A3, D24, D224, E6, E8, LADDER_GRAMS, N_A1_24, SKEWED_E8, TEST_GRAMS,
                      box_enumerate, coset_neg, even_grams, fraction_to_parent, fraction_to_sub,
                      lat, small_even_grams)
from vlplus import intmat
from vlplus.lattice import (
    LatticeError,
    NotEven,
    NotFullRank,
    QuotientTooLarge,
    NotPositiveDefinite,
    NotSymmetric,
    BoundNegative,
    CosetElement,
    _budget,
    _class_minima,
    _coords_key,
    _coset_shell,
    _diagonal,
    _frame,
    _frame_counts,
    _gram_schmidt,
    _least,
    _OutOfNodes,
    _ldl_cached,
    _scaled,
    _walk,
    coset_element,
    coset_norm_counts,
    coset_reps_mod_sublattice,
    coset_two_torsion,
    delta_set,
    discriminant_group,
    enumerate_coset_with_norms,
    epsilon_cocycle,
    minimal_coset_reps,
    mod_two_data,
    norm2_vectors,
    orbit_element,
    orthogonal_sublattice,
    sublattice,
    sublattice_classes,
    sublattice_orbit_count,
    validate_even_lattice,
    zero_coset,
)
from vlplus.qseries import theta_coset
from vlplus.sectors import LabelKind, classify_modules, series_denominator

F = Fraction


def enumerate_coset_vectors(L, lam, bound):
    """All v in lam + L with (v,v) <= bound, each exactly once, sorted."""
    return [v for v, _ in enumerate_coset_with_norms(L, lam, Fraction(bound))]


def is_dual_vector(L, v) -> bool:
    """True iff v pairs integrally with every basis vector of L."""
    return all(L.pairing(e, v).denominator == 1 for e in intmat.identity(L.rank))


def mod_two_bilinear(L, v, w) -> int:
    """(v, w) mod 2 for integer coordinate vectors."""
    return L.pairing(v, w) & 1


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_validate_a1():
    L = validate_even_lattice(A1)
    assert L.rank == 1 and L.det == 2


def test_validate_a2():
    L = validate_even_lattice(A2)
    assert L.rank == 2 and L.det == 3


def test_validate_rejects_odd_diagonal():
    with pytest.raises(NotEven) as e:
        validate_even_lattice([[2, 1], [1, 1]])
    assert e.value.index == 2


def test_validate_rejects_asymmetric():
    with pytest.raises(NotSymmetric):
        validate_even_lattice([[2, 1], [0, 2]])


def test_validate_rejects_indefinite():
    with pytest.raises(NotPositiveDefinite) as e:
        validate_even_lattice([[2, 3], [3, 2]])
    assert e.value.index == 2
    with pytest.raises(NotPositiveDefinite) as e:
        validate_even_lattice([[-2, 0], [0, 2]])
    assert e.value.index == 1


def test_validate_rejects_non_integer_entries():
    with pytest.raises(NotSymmetric):
        validate_even_lattice([[2.0]])


def test_validate_refuses_a_determinant_at_the_digit_limit():
    # the least refused determinant is 10**limit; the largest even one below it passes
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        with pytest.raises(LatticeError, match="the determinant has more than 640 digits"):
            validate_even_lattice([[10**640]])
        assert validate_even_lattice([[10**640 - 2]]).det == 10**640 - 2
    finally:
        sys.set_int_max_str_digits(limit)


# ---------------------------------------------------------------------------
# Smith normal form machinery
# ---------------------------------------------------------------------------

def smith_diagonal(m):
    """d from intmat.snf(m), after checking u*m*v = diag(d), u and v
    unimodular and the divisibility chain, which together pin d."""
    n = len(m)
    d, u, v = intmat.snf(m)
    assert abs(intmat.det_int(u)) == 1
    assert abs(intmat.det_int(v)) == 1
    prod = intmat.mat_mul(intmat.mat_mul(u, m), v)
    for i in range(n):
        for j in range(n):
            assert prod[i][j] == (d[i] if i == j else 0)
    for i in range(n - 1):
        assert d[i] > 0 and d[i + 1] % d[i] == 0
    return d


def test_snf_reconstruction_random():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(1, 8)
        bound = rng.choice((5, 10**6))
        while True:
            m = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)]
            if intmat.det_int(m) != 0:
                break
        smith_diagonal(m)


@pytest.mark.parametrize("m,d", [
    # diagonal already, but the chain needs the divisibility step
    ([[2, 0], [0, 3]], [1, 6]),
    ([[4, 0, 0], [0, 6, 0], [0, 0, 10]], [2, 2, 60]),
    ([[-3]], [3]),
])
def test_snf_divisibility_chain(m, d):
    assert smith_diagonal(m) == d


@pytest.mark.parametrize("m", [[[0]], [[1, 2], [2, 4]], [[2, 0, 0], [0, 0, 0], [0, 0, 3]]])
def test_snf_singular_raises(m):
    with pytest.raises(ZeroDivisionError):
        intmat.snf(m)


@pytest.mark.parametrize(
    "gram,factors",
    [
        (A1, (2,)),
        (A2, (3,)),
        (D24, (2, 4)),
        (D224, (2, 2, 4)),
    ],
)
def test_discriminant_groups(gram, factors):
    L = lat(gram)
    dg = discriminant_group(L)
    assert dg.invariant_factors == factors
    assert dg.order == L.det
    # each generator has the advertised order: d_i * g_i lands in the lattice
    for f, g in zip(dg.invariant_factors, dg.generators):
        assert all((f * x).denominator == 1 for x in g)
        assert is_dual_vector(L, g)


def test_discriminant_order_equals_det_everywhere():
    for gram in TEST_GRAMS:
        L = lat(gram)
        assert discriminant_group(L).order == L.det


# ---------------------------------------------------------------------------
# enumeration against the box oracle
# ---------------------------------------------------------------------------

def test_enumerate_a1_examples():
    L = lat(A1)
    assert enumerate_coset_vectors(L, (F(0),), 2) == [
        (F(0),),
        (F(1),),
        (F(-1),),
    ]
    assert enumerate_coset_vectors(L, (F(1, 2),), F(1, 2)) == [
        (F(1, 2),),
        (F(-1, 2),),
    ]


def test_enumerate_a2_root_count():
    L = lat(A2)
    vecs = enumerate_coset_vectors(L, (F(0), F(0)), 2)
    assert len(vecs) == 7  # origin plus six roots


def test_enumerate_rejects_negative_bound():
    with pytest.raises(BoundNegative):
        enumerate_coset_vectors(lat(A1), (F(0),), -1)


def test_enumerate_matches_box_oracle():
    cases = []
    for gram in TEST_GRAMS:
        L = lat(gram)
        if L.rank > 3 or L.det > 16:
            continue
        reps = minimal_coset_reps(L)
        for rep in (reps[0], reps[-1]):
            for bound in (F(0), F(3), F(10)):
                cases.append((gram, rep.rep, bound))
    for gram, lam, bound in cases:
        L = lat(gram)
        ours = enumerate_coset_vectors(L, lam, bound)
        oracle = box_enumerate(gram, lam, bound)
        assert ours == oracle, (gram, lam, bound)


def test_enumeration_norms_are_exact():
    L = lat(D224)
    for v, n in enumerate_coset_with_norms(L, (F(1, 2), F(0), F(1, 4)), 5):
        assert L.norm(v) == n


@st.composite
def shifted_cosets(draw):
    """(L, rep, a): an even positive definite lattice of rank <= 3 and
    det <= 16, a canonical coset representative, and a lattice vector."""
    L = lat(draw(even_grams()))
    reps = minimal_coset_reps(L)
    rep = reps[draw(st.integers(0, len(reps) - 1))].rep
    a = tuple(draw(st.integers(-3, 3)) for _ in range(L.rank))
    return L, rep, a


GENERATED = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@GENERATED
@given(shifted_cosets(), st.sampled_from([F(0), F(7, 3), F(4), F(13, 2)]))
def test_enumerate_shifted_coset_matches_box_oracle(case, bound):
    L, rep, a = case
    shifted = tuple(x + y for x, y in zip(rep, a))
    # same coset, so the same sorted vectors; the oracle scans from the short rep
    assert enumerate_coset_vectors(L, shifted, bound) == box_enumerate(L.gram, rep, bound)


def full_walk_counts(L, lam, bound):
    """Oracle: {norm: count} from every vector of the walk, none paired with its negation."""
    counts = {}
    for _, n in enumerate_coset_with_norms(L, lam, bound):
        counts[n] = counts.get(n, 0) + 1
    return counts


def norm_counts(L, lam, bound):
    """coset_norm_counts of the coset of lam with its integer keys S read as norms S / scale."""
    scale, counts = coset_norm_counts(L, coset_element(L, lam), bound)
    return {F(S, scale): n for S, n in counts.items()}


@GENERATED
@given(shifted_cosets(), st.sampled_from([F(1, 2), F(5, 4), F(5, 2)]))
def test_norm_counts_and_theta_match_enumeration(case, order):
    L, rep, a = case
    shifted = tuple(x + y for x, y in zip(rep, a))
    counts = full_walk_counts(L, shifted, 2 * order)
    assert norm_counts(L, shifted, 2 * order) == counts
    # term by term: each count sits at exponent norm / 2, none at or above the order
    theta = theta_coset(L, coset_element(L, shifted), order)
    assert theta.terms() == {n / 2: c for n, c in counts.items() if n < 2 * order}


@GENERATED
@given(shifted_cosets())
def test_coset_element_is_first_of_full_enumeration(case):
    L, rep, a = case
    shifted = tuple(x + y for x, y in zip(rep, a))
    first, norm = enumerate_coset_with_norms(L, shifted, L.norm(shifted))[0]
    c, again = coset_element(L, shifted), coset_element(L, rep)
    # one integer form per coset: numerators over det(L), equal from any rep
    assert (c.den, c.nums, c.norm_num) == (again.den, again.nums, again.norm_num)
    assert c == again and hash(c) == hash(again) and c.den == L.det
    assert c.rep == first and c.min_norm == norm


def test_coset_element_rejects_a_non_dual_vector():
    # (1/3, 0) is over A2's determinant 3 but not dual: G v = (2/3, 1/3)
    for canonical in (coset_element, orbit_element):
        with pytest.raises(ValueError, match="not a dual vector"):
            canonical(lat(A2), (F(1, 3), F(0)))




def class_minima_one_walk_each(gram, smith, v):
    """Oracle: _class_minima with a walk of its own for every class."""
    D = smith[-1]
    out = []
    for c in product(*(range(f) for f in smith)):
        x = [ci * (D // f) for ci, f in zip(c, smith)]
        S, shell = _coset_shell(gram, D, [sum(a * b for a, b in zip(row, x)) for row in v])
        out.append((S, min(shell, key=_coords_key)))
    return sorted(out, key=lambda p: (p[0], _coords_key(p[1])))


@GENERATED
@given(even_grams(), st.sampled_from([F(0), F(7, 3), F(4), F(13, 2)]))
def test_negation_halves_walks_without_changing_results(gram, bound):
    # the counts of a class closed under negation come from half its tree and
    # one shell serves c and -c; both must agree with walks that ignore v -> -v
    L = lat(gram)
    reps = minimal_coset_reps(L)
    assert any(coset_two_torsion(L, c) for c in reps)  # the zero class at least
    shift = tuple(range(1, L.rank + 1))
    for c in reps:
        shifted = tuple(x + a for x, a in zip(c.rep, shift))
        for lam in (c.rep, shifted):
            assert norm_counts(L, lam, bound) == full_walk_counts(L, lam, bound)
        assert coset_element(L, shifted) == c
        assert orbit_element(L, shifted) == min(c, coset_neg(L, c), key=CosetElement.sort_key)
    orbits = {m.coset for m in classify_modules(L) if m.kind == LabelKind.UNTWISTED}
    assert orbits == {min(c, coset_neg(L, c), key=CosetElement.sort_key)
                      for c in reps if not coset_two_torsion(L, c)}
    d, _, v = intmat.snf([list(r) for r in gram])
    assert _class_minima(L.gram, d, v) == class_minima_one_walk_each(L.gram, d, v)
    S = orthogonal_sublattice(L)
    assert (_class_minima(S.lattice.gram, S.smith, S.smith_v)
            == class_minima_one_walk_each(S.lattice.gram, S.smith, S.smith_v))


# ---------------------------------------------------------------------------
# diagonal Grams: closed forms against the walker
# ---------------------------------------------------------------------------

@st.composite
def diagonal_cosets(draw):
    """(gram, lam): a diagonal Gram of rank 1..5 with even entries 2..20 and
    a dual-space vector over a denominator up to 12; a coordinate drawn as
    an odd multiple of D/2 sits exactly halfway between two numerators."""
    d = draw(st.integers(1, 5))
    gram = [[2 * draw(st.integers(1, 10)) * (i == j) for j in range(d)] for i in range(d)]
    D = draw(st.integers(1, 12))
    nums = []
    for _ in range(d):
        if D % 2 == 0 and draw(st.booleans()):
            nums.append((2 * draw(st.integers(-2, 1)) + 1) * D // 2)
        else:
            nums.append(draw(st.integers(-2 * D, 2 * D)))
    return gram, tuple(F(x, D) for x in nums)


@GENERATED
@given(diagonal_cosets(), st.sampled_from([F(0), F(1, 3), F(2), F(9, 2), F(8)]))
def test_diagonal_closed_forms_match_the_walker(case, bound):
    gram, lam = case
    L = lat(gram)
    D, nums = _scaled(lam)
    if is_dual_vector(L, lam):  # coset_norm_counts counts a coset of L in its dual
        c = coset_element(L, lam)
        scale, counts = coset_norm_counts(L, c, bound)
        assert scale == c.den * c.den  # a diagonal Gram's split has M = 1
        assert counts == _walk(L.gram, c.den, c.nums, _budget(bound, scale), "counts")
    S, shell = _coset_shell(L.gram, D, nums)
    start = [x - D * ((2 * x + D) // (2 * D)) for x in nums]
    budget = sum(g[i] * x * x for i, (g, x) in enumerate(zip(L.gram, start)))
    walked_S, walked = _walk(L.gram, D, start, budget, "minimum")
    assert S == walked_S and sorted(shell) == sorted(walked) and len(set(shell)) == len(shell)


@GENERATED
@given(diagonal_cosets())
@example(([[2]], (F(-1, 2),)))
@example(([[2, 0, 0], [0, 4, 0], [0, 0, 6]], (F(-1, 2), F(1, 2), F(3, 2))))
@example(([[4, 0, 0, 0], [0, 4, 0, 0], [0, 0, 20, 0], [0, 0, 0, 2]],
          (F(-1, 2), F(5, 2), F(-3, 2), F(1, 2))))
def test_diagonal_least_is_closed_form_without_the_tie_product(case):
    # _least of a diagonal shell is the least over the expanded product of
    # its ties times each sign, and is found without iterating that product;
    # the examples put every coordinate at -D/2 (2^d ties) after centring
    gram, lam = case
    D, nums = _scaled(lam)
    _, shell = _coset_shell(lat(gram).gram, D, nums)
    expanded = list(shell)
    assert len(expanded) == len(shell)
    for signs in ((1,), (-1,), (1, -1)):
        expected = min((tuple(s * x for x in w) for w in expanded for s in signs), key=_coords_key)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(type(shell), "__iter__", lambda self: pytest.fail("tie product iterated"))
            assert _least(shell, signs) == expected, (gram, lam, signs)


def test_diagonal_shells_at_exact_halves():
    # +-1/2 tie in every halved coordinate: 2 and 2^2 least vectors
    S, shell = _coset_shell(lat(A1).gram, 2, [1])
    assert S == 2 and sorted(shell) == [(-1,), (1,)]
    S, shell = _coset_shell(lat([[2, 0, 0], [0, 2, 0], [0, 0, 2]]).gram, 2, [1, 1, 0])
    assert S == 4 and sorted(shell) == [(-1, -1, 0), (-1, 1, 0), (1, -1, 0), (1, 1, 0)]


def test_theta_counts_stop_below_the_order(monkeypatch):
    # the cutoff theta_coset passes at order 4 on E8's grid 1/16, the last
    # grid point below the order, keeps norms 0, 2, 4, 6: 1 + 240 + 2160 +
    # 6720 vectors; the 17,520 of norm 8 sit at the order and are never
    # counted.  E8's theta is modular and counts nothing, so the counts are
    # asked for directly; D4's theta_coset passes its own cutoff
    from vlplus import qseries

    L = lat(E8)
    denom = series_denominator(L)
    bound = (2 * (4 * denom - 1), denom)
    scale, counts = coset_norm_counts(L, zero_coset(L), bound)
    assert F(*bound) < 8 and sum(counts.values()) == 9121
    assert {F(S, scale): n for S, n in counts.items()} == {0: 1, 2: 240, 4: 2160, 6: 6720}
    seen = []

    def spy(L, lam, bound):
        scale, counts = coset_norm_counts(L, lam, bound)
        seen.append((bound, sum(counts.values())))
        return scale, counts

    monkeypatch.setattr(qseries, "coset_norm_counts", spy)
    L = lat(LADDER_GRAMS[1])
    theta = qseries.theta_coset.__wrapped__(L, zero_coset(L), F(2))
    assert theta.terms() == {F(0): 1, F(1): 24}
    [(bound, vectors)] = seen  # the cutoff as the integer pair (num, den)
    assert F(*bound) < 4 and vectors == 25


# ---------------------------------------------------------------------------
# the integer LDL^T split and the leading minors
# ---------------------------------------------------------------------------

def block_minors(m):
    """Oracle: det_int of each leading block, up to and including the first that is not positive."""
    out = []
    for k in range(len(m)):
        out.append(intmat.det_int([row[:k + 1] for row in m[:k + 1]]))
        if out[-1] <= 0:
            break
    return out


def assert_split_is_exact(gram, seed):
    """leading_minors against det_int, and M q(x) = sum_i A_i (P_i x_i + sum_{j>i} C_ij x_j)^2
    at random integer x, with M, P_i, A_i positive and each (P_i, C_i) primitive."""
    minors = block_minors(gram)
    assert intmat.leading_minors(gram)[:len(minors)] == minors
    d = len(gram)
    M, A, P, C = _ldl_cached(tuple(map(tuple, gram)))
    assert M > 0 and min(A) > 0 and min(P) > 0
    assert all(math.gcd(p, *c) == 1 for p, c in zip(P, C))
    assert all(C[i][j] == 0 for i in range(d) for j in range(i + 1))
    rng = random.Random(seed)
    for _ in range(20):
        x = [rng.randint(-9, 9) for _ in range(d)]
        q = sum(x[i] * gram[i][j] * x[j] for i in range(d) for j in range(d))
        assert M * q == sum(a * (p * xi + sum(map(operator.mul, c, x))) ** 2
                            for a, p, xi, c in zip(A, P, x, C)), (gram, x)


@pytest.mark.parametrize("gram", TEST_GRAMS + LADDER_GRAMS + [E8])
def test_ldl_split_is_exact(gram):
    assert_split_is_exact(gram, len(gram))


@GENERATED
@given(even_grams())
def test_ldl_split_is_exact_on_generated_grams(gram):
    assert_split_is_exact(gram, len(gram))


def test_each_gram_is_eliminated_once(monkeypatch):
    # validation and the integer split share one LDL^T pass per Gram: certify
    # on diag(2,4,6,8) eliminates the Gram once, where validation, the identity
    # basis's sublattice() and _ldl_cached each eliminated it in turn
    import vlplus.lattice as lattice
    from vlplus.certify import certify

    calls = []
    real = intmat.ldl

    def counted(gram):
        calls.append(tuple(map(tuple, gram)))
        return real(gram)

    monkeypatch.setattr(intmat, "ldl", counted)
    for fn in vars(lattice).values():
        if hasattr(fn, "cache_clear"):
            fn.cache_clear()
    L = validate_even_lattice([[2, 0, 0, 0], [0, 4, 0, 0], [0, 0, 6, 0], [0, 0, 0, 8]])
    certify(L).dumps()
    assert calls.count(L.gram) == 1
    assert len(calls) == len(set(calls)), calls


def test_leading_minors_of_matrices_that_are_not_positive_definite():
    # symmetric with an even diagonal, so a rejection is NotPositiveDefinite at
    # the first leading block whose determinant is not positive
    rng = random.Random(11)
    rejected = 0
    for _ in range(400):
        d = rng.randint(1, 5)
        m = [[0] * d for _ in range(d)]
        for i in range(d):
            m[i][i] = 2 * rng.randint(-2, 4)
            for j in range(i):
                m[i][j] = m[j][i] = rng.randint(-6, 6)
        minors = block_minors(m)
        assert intmat.leading_minors(m)[:len(minors)] == minors, m
        if minors[-1] > 0:
            assert validate_even_lattice(m).det == minors[-1]
            continue
        rejected += 1
        with pytest.raises(NotPositiveDefinite) as e:
            validate_even_lattice(m)
        assert e.value.index == len(minors), m
    assert rejected > 200


# ---------------------------------------------------------------------------
# theta counts through an orthogonal frame against the walker
# ---------------------------------------------------------------------------

def frame_and_walk_counts(L, lam, bound):
    """({norm: count} through L's frame, {norm: count} walked) for the coset lam."""
    scale, counts = _frame_counts(_frame(L), lam, bound)
    walk_scale = _ldl_cached(L.gram)[0] * lam.den * lam.den
    walked = _walk(L.gram, lam.den, lam.nums, _budget(bound, walk_scale), "counts")
    return ({F(S, scale): n for S, n in counts.items()},
            {F(S, walk_scale): n for S, n in walked.items()})


def assert_frame_counts_match_the_walker(L, bounds):
    frame = _frame(L)
    assert frame is not None
    shift = tuple(range(1, L.rank + 1))
    for c in minimal_coset_reps(L):
        # the classes are stepped from any rep of the coset, not only the canonical one
        moved = CosetElement(c.den, tuple(x + c.den * a for x, a in zip(c.nums, shift)), c.norm_num)
        for lam in (c, moved):
            for bound in bounds:
                by_frame, walked = frame_and_walk_counts(L, lam, bound)
                assert by_frame == walked, (L.gram, lam, bound)


FRAME_BOUNDS = [F(0), F(2), F(7, 3), F(6), F(13, 2), F(12)]


@pytest.mark.parametrize("gram", TEST_GRAMS + LADDER_GRAMS + [E8])
def test_frame_counts_match_the_walker(gram):
    assert_frame_counts_match_the_walker(lat(gram), FRAME_BOUNDS)


@GENERATED
@given(even_grams(), st.sampled_from([F(0), F(7, 3), F(4), F(13, 2), F(16)]))
def test_frame_counts_match_the_walker_on_generated_grams(gram, bound):
    assert_frame_counts_match_the_walker(lat(gram), [bound])


def diagonal(*norms):
    return [[n * (i == j) for j in range(len(norms))] for i, n in enumerate(norms)]


# lattices whose frames share norms: A1^4 and A1^5, diag(2,4,6) and
# diag(2,4,6,8), E8 and its frame A1^8
SHARED_FRAME_NORMS = [(diagonal(2, 2, 2, 2), diagonal(2, 2, 2, 2, 2)),
                      (diagonal(2, 4, 6), diagonal(2, 4, 6, 8)),
                      (E8, diagonal(*[2] * 8))]


@pytest.mark.parametrize("grams", SHARED_FRAME_NORMS + [g[::-1] for g in SHARED_FRAME_NORMS])
def test_frame_counts_with_warm_caches_match_the_walker(grams):
    # the rank-one rows and prefix products are cached across cosets and
    # lattices; every count read from a warm cache is the walk's, and a
    # caller that clears the counts it was handed changes no later count
    from vlplus import lattice

    lattice._rank_one_row.cache_clear()
    lattice._rank_one_product.cache_clear()
    for gram in grams:
        L = lat(gram)
        for lam in minimal_coset_reps(L):
            for bound in (F(4), F(13, 2)):
                for _ in range(2):
                    by_frame, walked = frame_and_walk_counts(L, lam, bound)
                    assert by_frame == walked, (gram, lam, bound)
                    _frame_counts(_frame(L), lam, bound)[1].clear()
    assert lattice._rank_one_product.cache_info().hits > 0


@pytest.mark.parametrize("gram", TEST_GRAMS + LADDER_GRAMS + [E8])
def test_frames_are_orthogonal_of_full_rank(gram):
    L = lat(gram)
    frame = _frame(L)
    basis = frame.basis
    assert all(L.pairing(a, b) == 0 for i, a in enumerate(basis) for b in basis[:i])
    assert abs(intmat.det_int([list(b) for b in basis])) == frame.index > 0
    assert frame.index ** 2 * L.det == math.prod(L.norm(b) for b in basis)
    assert frame.lattice.is_diagonal()
    assert (frame.index == 1) == L.is_diagonal()


def test_frames_of_the_root_lattices():
    # E8 > A1^8 and D4 > A1^4 from roots alone; E6 needs its complement's norms 4 and 12
    for gram, index, norms in ((E8, 16, [2] * 8), (LADDER_GRAMS[1], 2, [2] * 4),
                               (E6, 16, [2, 2, 2, 2, 4, 12])):
        frame = _frame(lat(gram))
        assert frame.index == index
        assert sorted(_diagonal(frame.lattice.gram)) == norms


def test_frame_search_gives_up_within_its_node_bound(monkeypatch):
    # E8 in a basis whose norm-2 vectors lie deep in the walk: the search
    # stops after FRAME_NODES steps
    from vlplus import lattice

    assert _frame(lat(SKEWED_E8)) is None
    # E8 with too few steps for its roots: no frame, so the same counts are
    # walked and the orthogonal sublattice is Gram-Schmidt; orthogonal_sublattice
    # keeps no cache of its own, so clearing _frame's is enough either way
    L = lat(E8)
    scale, counts = coset_norm_counts(L, zero_coset(L), F(8))
    with monkeypatch.context() as patched:
        patched.setattr(lattice, "FRAME_NODES", 100)
        lattice._frame.cache_clear()
        try:
            assert lattice._frame(L) is None
            assert orthogonal_sublattice(L) == _gram_schmidt(L)
            walk_scale, walked = coset_norm_counts(L, zero_coset(L), F(8))
        finally:
            lattice._frame.cache_clear()
    assert orthogonal_sublattice(L) == _frame(L) != _gram_schmidt(L)
    assert walk_scale == _ldl_cached(L.gram)[0] != scale
    assert ({F(S, walk_scale): n for S, n in walked.items()}
            == {F(S, scale): n for S, n in counts.items()})


@pytest.mark.parametrize("gram, least", [
    (E8, 373), (E6, 105), (LADDER_GRAMS[1], 27), (LADDER_GRAMS[0], 32), (LADDER_GRAMS[3], 19),
    (A2, 8), (A3, 15), ([[6, -1, 0], [-1, 6, -1], [0, -1, 2]], 11)])
def test_frame_search_needs_its_pinned_node_budget(monkeypatch, gram, least):
    # the least FRAME_NODES at which each frame is found: one node fewer
    # gives up, so every level's charge to the budget is pinned
    from vlplus import lattice

    L = lat(gram)
    frame = _frame(L)
    with monkeypatch.context() as patched:
        try:
            for nodes, found in ((least - 1, None), (least, frame)):
                patched.setattr(lattice, "FRAME_NODES", nodes)
                lattice._frame.cache_clear()
                assert lattice._frame(L) == found, (gram, nodes)
        finally:
            lattice._frame.cache_clear()


def test_orthogonal_sublattice_is_the_frame_else_gram_schmidt():
    # the searched frame wherever it is found, Gram-Schmidt where the search gives up
    for gram in TEST_GRAMS + LADDER_GRAMS + [E8]:
        L = lat(gram)
        assert orthogonal_sublattice(L) == _frame(L), gram
    L = lat(SKEWED_E8)
    assert _frame(L) is None and orthogonal_sublattice(L) == _gram_schmidt(L)


def test_orthogonal_sublattice_index_is_at_most_gram_schmidt():
    # never a larger index than Gram-Schmidt's, and far smaller off the diagonal
    for gram in small_even_grams() + TEST_GRAMS + LADDER_GRAMS + [E8]:
        L = lat(gram)
        assert orthogonal_sublattice(L).index <= _gram_schmidt(L).index, gram
    for gram, frame, gram_schmidt in ((E8, 16, 40320), (E6, 16, 240), (LADDER_GRAMS[3], 2, 14)):
        L = lat(gram)
        assert (orthogonal_sublattice(L).index, _gram_schmidt(L).index) == (frame, gram_schmidt)


def test_theta_route_follows_the_documented_rule(monkeypatch):
    # det 1 is modular: E8 at order 4 counts nothing and searches no frame,
    # and N(A1^24) at order 4 counts N_1 in one walk to norm 2 after a frame
    # search that gives up.  D4 at order 12 counts through its frame; A3 at
    # order 12 (B^d det = 24^3 * 4) and E6 at order 2 are walked and never ask
    # for a frame; a det-270 Gram at order 12 finds one of index 4, too large
    # for B^d // det = 51, and walks; A1^4 is its own frame of index one.
    # E8's index-16 frame counts its norms when they are asked for directly
    from vlplus import lattice, qseries

    seen, bounds = [], []
    frame, frame_counts, walk = lattice._frame, lattice._frame_counts, lattice._walk
    counts = qseries.coset_norm_counts
    monkeypatch.setattr(lattice, "_frame", lambda L: seen.append("_frame") or frame(L))
    monkeypatch.setattr(lattice, "_frame_counts",
                        lambda fr, lam, bound: seen.append(("frame", fr.index)) or frame_counts(fr, lam, bound))
    # the frame search walks too; only the walks that count norms are the route
    monkeypatch.setattr(lattice, "_walk",
                        lambda *args: args[4] == "counts" and seen.append("walk") or walk(*args))
    monkeypatch.setattr(qseries, "coset_norm_counts", lambda *args: bounds.append(args[2]) or counts(*args))
    for gram, order, route in ((E8, 4, []), (N_A1_24, 4, ["_frame", "walk"]),
                               (LADDER_GRAMS[1], 12, ["_frame", ("frame", 2)]),
                               (A3, 12, ["walk"]), (E6, 2, ["walk"]),
                               ([[6, -3, 0], [-3, 6, -3], [0, -3, 12]], 12, ["_frame", "walk"]),
                               ([[2 * (i == j) for j in range(4)] for i in range(4)], 12,
                                ["_frame", ("frame", 1)])):
        seen.clear()
        bounds.clear()
        L = lat(gram)
        qseries.theta_coset.__wrapped__(L, zero_coset(L), F(order))
        assert seen == route, (gram, order)
        if L.det == 1:
            assert bounds == ([(2, 1)] if L.rank >= 24 else []), (gram, order)
    seen.clear()
    L = lat(E8)
    coset_norm_counts(L, zero_coset(L), (126, 16))  # theta_coset's cutoff at order 4
    assert seen == ["_frame", ("frame", 16)]


# ---------------------------------------------------------------------------
# canonical coset representatives
# ---------------------------------------------------------------------------

def test_minimal_reps_a1():
    L = lat(A1)
    reps = minimal_coset_reps(L)
    assert len(reps) == 2
    assert reps[0].rep == (F(0),) and reps[0].min_norm == 0
    assert reps[1].rep == (F(1, 2),) and reps[1].min_norm == F(1, 2)


def test_minimal_reps_a2():
    L = lat(A2)
    reps = minimal_coset_reps(L)
    assert len(reps) == 3
    assert reps[0].min_norm == 0
    assert reps[1].min_norm == F(2, 3) and reps[2].min_norm == F(2, 3)


def test_minimal_reps_attain_minimum_and_canonicalize_idempotently():
    for gram in TEST_GRAMS:
        L = lat(gram)
        for rep in minimal_coset_reps(L):
            assert L.norm(rep.rep) == rep.min_norm
            again = coset_element(L, rep.rep)
            assert again == rep
            # the representative really is minimal: nothing shorter in the coset
            shorter = [
                v
                for v, n in enumerate_coset_with_norms(L, rep.rep, rep.min_norm)
                if n < rep.min_norm
            ]
            assert shorter == []


def test_two_torsion_detection():
    L = lat(D24)
    reps = minimal_coset_reps(L)
    torsion = sorted(c.min_norm for c in reps if coset_two_torsion(L, c))
    free = sorted(c.min_norm for c in reps if not coset_two_torsion(L, c))
    assert torsion == [0, F(1, 2), F(1), F(3, 2)]
    assert free == [F(1, 4), F(1, 4), F(3, 4), F(3, 4)]


# ---------------------------------------------------------------------------
# norm-2 roots and delta sets
# ---------------------------------------------------------------------------

def test_norm2_vectors():
    assert len(norm2_vectors(lat(A1))) == 2
    assert len(norm2_vectors(lat(A2))) == 6
    assert norm2_vectors(lat(A1_4 := [[4]])) == ()


def test_norm2_closed_under_negation():
    for gram in TEST_GRAMS:
        vecs = set(norm2_vectors(lat(gram)))
        assert {tuple(-x for x in v) for v in vecs} == vecs


def test_delta_set_a1():
    L = lat(A1)
    half = coset_element(L, (F(1, 2),))
    assert delta_set(L, half) == ((-1,), (0,))


def test_delta_set_a2_size():
    L = lat(A2)
    lam = minimal_coset_reps(L)[1]
    assert len(delta_set(L, lam)) == 3


def test_delta_set_zero_is_origin_only():
    for gram in TEST_GRAMS:
        L = lat(gram)
        zero = minimal_coset_reps(L)[0]
        assert delta_set(L, zero) == (tuple(0 for _ in range(L.rank)),)


def test_delta_set_negation_symmetry():
    # for 2*lam in L the map a -> -2*lam - a permutes the delta set
    for gram in TEST_GRAMS:
        L = lat(gram)
        for c in minimal_coset_reps(L):
            if not coset_two_torsion(L, c):
                continue
            ds = set(delta_set(L, c))
            two_lam = tuple(int(2 * x) for x in c.rep)
            mapped = {tuple(-t - a for t, a in zip(two_lam, alpha)) for alpha in ds}
            assert mapped == ds


# ---------------------------------------------------------------------------
# orthogonal sublattices and quotients
# ---------------------------------------------------------------------------

def test_orthogonal_sublattice_diagonal_fixed_point():
    L = lat(D24)
    S = orthogonal_sublattice(L)
    assert S.basis == ((1, 0), (0, 1))
    assert S.lattice.gram == ((2, 0), (0, 4))
    assert S.index == 1


def test_orthogonal_sublattice_a2():
    L = lat(A2)
    S = _gram_schmidt(L)
    assert S.lattice.gram == ((2, 0), (0, 6))
    assert S.index == 2
    assert S.basis[1] in ((-1, 2), (1, -2))  # beta_2 = +-(2a_2 - a_1)


def test_orthogonal_sublattice_identities():
    for gram in TEST_GRAMS:
        L = lat(gram)
        S = orthogonal_sublattice(L)
        basis, gram1, index = S.basis, S.lattice.gram, S.index
        d = L.rank
        for i in range(d):
            for j in range(d):
                expected = gram1[i][j] if i == j else 0
                assert L.pairing(basis[i], basis[j]) == expected
            assert gram1[i][i] > 0 and gram1[i][i] % 2 == 0
        det1 = 1
        for i in range(d):
            det1 *= gram1[i][i]
        assert index * index * L.det == det1


def gram_schmidt_oracle(L):
    """Oracle: rational Gram-Schmidt on the standard basis, pairing by
    pairing, each vector scaled by the least positive integer clearing
    its denominators."""
    d = L.rank
    basis_q, basis = [], []
    for i in range(d):
        vec = [F(int(i == j)) for j in range(d)]
        for prev in basis_q:
            mu = F(L.pairing(vec, prev)) / F(L.pairing(prev, prev))
            vec = [x - mu * y for x, y in zip(vec, prev)]
        basis_q.append(vec)
        m = math.lcm(*(x.denominator for x in vec))
        basis.append(tuple(int(x * m) for x in vec))
    return tuple(basis)


@st.composite
def unimodular_conjugates(draw):
    """U G U^T for G from even_grams and U a product of row additions
    with multipliers up to 9, so entries grow past 100."""
    gram = draw(even_grams())
    d = len(gram)
    u = intmat.identity(d)
    for _ in range(draw(st.integers(0, 6)) if d > 1 else 0):
        i, j = draw(st.sampled_from([(i, j) for i in range(d) for j in range(d) if i != j]))
        q = draw(st.integers(-9, 9))
        u[i] = [x + q * y for x, y in zip(u[i], u[j])]
    return intmat.mat_mul(intmat.mat_mul(u, gram), [list(c) for c in zip(*u)])


@pytest.mark.parametrize("gram", TEST_GRAMS + [[[8, -14], [-14, 26]],
                                                [[6, -1, 0], [-1, 6, -1], [0, -1, 2]]])
def test_orthogonal_sublattice_is_the_gram_schmidt_oracle(gram):
    L = lat(gram)
    assert _gram_schmidt(L).basis == gram_schmidt_oracle(L)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(unimodular_conjugates())
def test_orthogonal_sublattice_is_the_gram_schmidt_oracle_on_generated_grams(gram):
    L = lat(gram)
    assert _gram_schmidt(L).basis == gram_schmidt_oracle(L)


def test_unimodular_conjugates_pass_100():
    # the generated property reaches Grams with entries past 100
    seen = []

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(unimodular_conjugates())
    def collect(gram):
        seen.append(max(abs(x) for row in gram for x in row))

    collect()
    assert max(seen) > 100


def short_vectors_oracle(gram, budget: int, nodes: list[int]):
    """Oracle: a Fincke-Pohst walk of its own for the frame search: one of
    each +- pair of nonzero w with S = M q(w) <= budget, the one whose last
    nonzero coordinate is positive, sorted by (S, key), every level
    charging its hi - lo candidates to nodes[0]; None once that runs out."""
    _, A, P, C = _ldl_cached(gram)
    w = [0] * len(gram)
    out = []

    def rec(i, used, free):
        # free: every coordinate above i is 0, so x < 0 would repeat a negation
        r = math.isqrt((budget - used) // A[i])
        s = sum(map(operator.mul, C[i], w))  # C[i][j] = 0 for j <= i
        lo, hi = 0 if free else -((r + s) // P[i]), (r - s) // P[i] + 1
        nodes[0] -= hi - lo
        if nodes[0] < 0:
            return False
        for x in range(lo, hi):
            w[i] = x
            y = P[i] * x + s
            if i:
                if not rec(i - 1, used + A[i] * y * y, free and not x):
                    return False
            elif x or not free:
                out.append((used + A[0] * y * y, tuple(w)))
        return True

    if not rec(len(gram) - 1, 0, True):
        return None
    return sorted(out, key=lambda p: (p[0], _coords_key(p[1])))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.one_of(even_grams(), unimodular_conjugates(), st.sampled_from([E8, E6, SKEWED_E8])))
def test_pairs_walk_is_the_short_vector_oracle(gram):
    # _walk's "pairs" mode under a node budget finds the same leaves as the
    # oracle, or gives up where it does, having charged the same nodes
    G = lat(gram).gram
    d, M = len(G), _ldl_cached(G)[0]
    for bound in (0, 2, 4, min(G[i][i] for i in range(d)), 7):
        for budget in (1, 2, 5, 17, 100, 4096):
            walked, oracle = [budget], [budget]
            want = short_vectors_oracle(G, M * bound, oracle)
            try:
                got = sorted(_walk(G, 1, [0] * d, M * bound, "pairs", walked),
                             key=lambda p: (p[0], _coords_key(p[1])))
            except _OutOfNodes:
                got = None
            assert got == want and walked == oracle, (gram, bound, budget)


def test_coset_reps_mod_sublattice_a2():
    L = lat(A2)
    S = _gram_schmidt(L)
    reps = coset_reps_mod_sublattice(L, S.basis)
    assert len(reps) == S.index == 2
    assert reps == ((0, 0), (0, 1))  # zero first, then the second simple root
    assert L.norm(reps[1]) == 2


def test_coset_reps_trivial_and_doubled():
    L = lat(D24)
    full = tuple(tuple(int(i == j) for j in range(2)) for i in range(2))
    assert coset_reps_mod_sublattice(L, full) == ((0, 0),)
    doubled = ((2, 0), (0, 2))
    reps = coset_reps_mod_sublattice(L, doubled)
    assert len(reps) == 4
    assert reps[0] == (0, 0)
    d22 = lat([[2, 0], [0, 2]])
    assert len(coset_reps_mod_sublattice(d22, doubled)) == 4


@GENERATED
@given(shifted_cosets(), st.booleans())
def test_sublattice_change_of_basis(case, doubled):
    L, rep, a = case
    d = L.rank
    if doubled:
        S = sublattice(L, tuple(tuple(2 * (i == j) for j in range(d)) for i in range(d)))
    else:
        S = orthogonal_sublattice(L)
    top = S.smith[-1]
    for v in (a, tuple(x + y for x, y in zip(rep, a))):
        _, nums = _scaled(v)
        assert S.lift(S.sub_nums(nums)) == [top * x for x in nums]
    for i, b in enumerate(S.basis):
        assert S.sub_nums(b) == [top * (i == j) for j in range(d)]
        for j, c in enumerate(S.basis):
            assert S.lattice.gram[i][j] == L.pairing(b, c)
    assert S.index == abs(intmat.det_int([list(b) for b in S.basis]))
    assert S.lattice.det == S.index ** 2 * L.det
    assert len(coset_reps_mod_sublattice(L, S.basis)) == S.index


def test_coset_reps_rejects_singular_basis():
    L = lat(D24)
    with pytest.raises(NotFullRank):
        coset_reps_mod_sublattice(L, ((1, 0), (2, 0)))


# ---------------------------------------------------------------------------
# Smith-form class enumeration against the Fraction change of basis
# ---------------------------------------------------------------------------

def fraction_discriminant_group(L):
    """(factors, generators) from G^-1 times the columns of u^-1, over Fractions."""
    gram = [list(r) for r in L.gram]
    d, u, _ = intmat.snf(gram)
    ginv, uinv = intmat.rational_inverse(gram), intmat.rational_inverse(u)
    n = L.rank
    keep = [i for i in range(n) if d[i] != 1]
    gens = tuple(tuple(sum(ginv[r][s] * uinv[s][i] for s in range(n)) for r in range(n))
                 for i in keep)
    return tuple(d[i] for i in keep), gens


def fraction_minimal_coset_reps(L):
    """Generator sums over the invariant factors, each canonicalized by coset_element."""
    factors, gens = fraction_discriminant_group(L)
    reps = [coset_element(L, tuple(sum((c * g[i] for c, g in zip(combo, gens)), F(0))
                                   for i in range(L.rank)))
            for combo in product(*(range(f) for f in factors))]
    return tuple(sorted(reps, key=CosetElement.sort_key))


def fraction_reps_mod_sublattice(L, basis):
    """u^-1 of the Smith form of B^T over Fractions, then B^-1, canonicalize, x B."""
    S = sublattice(L, basis)
    uinv = intmat.rational_inverse([list(r) for r in S.smith_u])
    d = L.rank
    out = []
    for combo in product(*(range(f) for f in S.smith)):
        vec = [sum(uinv[r][i] * combo[i] for i in range(d)) for r in range(d)]
        assert all(x.denominator == 1 for x in vec)
        elem = coset_element(S.lattice, fraction_to_sub(basis, vec))
        out.append((elem.min_norm, tuple(int(x) for x in fraction_to_parent(basis, elem.rep))))
    out.sort(key=lambda p: (p[0], tuple((abs(c), c < 0) for c in p[1])))
    return tuple(v for _, v in out)


def assert_matches_fraction_paths(L, basis, vectors=()):
    dg = discriminant_group(L)
    assert (dg.invariant_factors, dg.generators) == fraction_discriminant_group(L)
    assert minimal_coset_reps(L) == fraction_minimal_coset_reps(L)
    assert coset_reps_mod_sublattice(L, basis) == fraction_reps_mod_sublattice(L, basis)
    S = sublattice(L, basis)
    assert S.smith[-1] % S.smith[0] == 0 and len(S.smith_v) == L.rank
    for v in vectors:
        D, nums = _scaled(v)
        x = tuple(F(y, D * S.smith[-1]) for y in S.sub_nums(nums))
        assert x == fraction_to_sub(basis, v)
        E, x_nums = _scaled(x)
        assert tuple(F(y, E) for y in S.lift(x_nums)) == fraction_to_parent(basis, x) == tuple(v)


@st.composite
def grams_with_bases(draw):
    """(L, basis, vectors): an even_grams lattice, a full-rank sublattice basis
    (orthogonal, doubled standard or drawn with |det| <= 12) and dual vectors."""
    L = lat(draw(even_grams()))
    d = L.rank
    kind = draw(st.sampled_from(["orthogonal", "doubled", "drawn"]))
    if kind == "orthogonal":
        basis = orthogonal_sublattice(L).basis
    elif kind == "doubled":
        basis = tuple(tuple(2 * (i == j) for j in range(d)) for i in range(d))
    else:
        basis = tuple(tuple(draw(st.integers(-3, 3)) for _ in range(d)) for _ in range(d))
        assume(0 < abs(intmat.det_int([list(b) for b in basis])) <= 12)
    reps = minimal_coset_reps(L)
    vectors = [tuple(x + draw(st.integers(-2, 2)) for x in reps[draw(st.integers(0, len(reps) - 1))].rep)
               for _ in range(3)]
    return L, basis, vectors


@GENERATED
@given(grams_with_bases())
def test_smith_enumerators_match_fraction_paths(case):
    L, basis, vectors = case
    assert_matches_fraction_paths(L, basis, vectors + [tuple(basis[0])])


def assert_orbit_counts_are_class_counts(L, basis):
    """sublattice_orbit_count is len(sublattice_classes) on every coset of L
    (0, self-paired and orbit cosets), at its rep and at a shifted copy."""
    S = sublattice(L, basis)
    shift = tuple((-1) ** i * (i + 1) for i in range(L.rank))
    for c in minimal_coset_reps(L):
        for lam in (c, coset_element(L, tuple(x + y for x, y in zip(c.rep, shift)))):
            assert sublattice_orbit_count(S, lam) == len(sublattice_classes(S, lam)), (basis, lam)


@GENERATED
@given(grams_with_bases())
def test_orbit_count_is_the_number_of_classes(case):
    L, basis, _ = case
    assert_orbit_counts_are_class_counts(L, basis)


def test_orbit_count_is_the_number_of_classes_e6():
    L = lat(E6)
    S = _gram_schmidt(L)
    assert S.index == 240
    assert_orbit_counts_are_class_counts(L, S.basis)


# bases whose Smith transform V is not symmetric, so V and V^T give different classes
@pytest.mark.parametrize("gram,basis", [
    (A2, ((-2, 1), (3, 3))),
    ([[2, -1, 0], [-1, 2, -1], [0, -1, 2]], ((-3, 0, 2), (-2, 0, 2), (-3, 1, -2))),
    ([[2, 1], [1, 4]], ((2, -1), (2, 2))),
])
def test_smith_enumerators_match_fraction_paths_skew_bases(gram, basis):
    L = lat(gram)
    S = sublattice(L, basis)
    assert S.smith_v != tuple(zip(*S.smith_v))
    assert_matches_fraction_paths(L, basis, [c.rep for c in minimal_coset_reps(L)])


def test_smith_enumerators_match_fraction_paths_e6():
    L = lat(E6)
    S = _gram_schmidt(L)
    assert S.index == 240
    assert_matches_fraction_paths(L, S.basis, [c.rep for c in minimal_coset_reps(L)])


def test_oversized_quotients_raise_a_named_error():
    with pytest.raises(QuotientTooLarge, match=str(QuotientTooLarge.limit)):
        minimal_coset_reps(lat([[2 * (QuotientTooLarge.limit + 1)]]))
    with pytest.raises(QuotientTooLarge, match="classes"):
        coset_reps_mod_sublattice(lat(A2), ((QuotientTooLarge.limit + 1, 0), (0, 1)))


# ---------------------------------------------------------------------------
# cocycle and mod-2 data
# ---------------------------------------------------------------------------

def test_epsilon_a2_basis_values():
    L = lat(A2)
    assert epsilon_cocycle(L, (0, 1), (1, 0)) == -1  # eps(a2, a1) carries the sign
    assert epsilon_cocycle(L, (1, 0), (0, 1)) == 1


def table_cocycle(L, lower):
    """A sign table's cocycle: -1 on the basis pairs (i, j) of odd G_ij
    with i > j (or i < j if lower), extended bimultiplicatively."""
    d = L.rank
    odd = [(i, j) for i in range(d) for j in range(d)
           if L.gram[i][j] % 2 and (i < j if lower else i > j)]
    return lambda a, b: -1 if sum(a[i] * b[j] for i, j in odd) % 2 else 1


def test_epsilon_is_the_upper_table_and_the_lower_differs_on_odd_pairs():
    # the bilinear parity is the table cocycle signed below the diagonal;
    # the table signed above it agrees exactly where (a, b) is even
    rng = random.Random(11)
    for gram in TEST_GRAMS:
        L = lat(gram)
        upper, lower = table_cocycle(L, False), table_cocycle(L, True)
        odd_seen = False
        for _ in range(100):
            a = tuple(rng.randint(-4, 4) for _ in range(L.rank))
            b = tuple(rng.randint(-4, 4) for _ in range(L.rank))
            eps = epsilon_cocycle(L, a, b)
            parity = -1 if L.pairing(a, b) % 2 else 1
            assert eps == upper(a, b)
            assert lower(a, b) == eps * parity
            odd_seen |= parity == -1
        assert odd_seen or mod_two_data(L).r2 == L.rank, gram


def test_epsilon_skew_relation_random_pairs():
    rng = random.Random(11)
    for gram in TEST_GRAMS:
        L = lat(gram)
        for _ in range(100):
            a = tuple(rng.randint(-4, 4) for _ in range(L.rank))
            b = tuple(rng.randint(-4, 4) for _ in range(L.rank))
            lhs = epsilon_cocycle(L, a, b) * epsilon_cocycle(L, b, a)
            rhs = -1 if L.pairing(a, b) % 2 else 1
            assert lhs == rhs


def test_epsilon_bimultiplicative():
    rng = random.Random(13)
    L = lat(A2)
    for _ in range(50):
        a, a2, b = (
            tuple(rng.randint(-3, 3) for _ in range(2)) for _ in range(3)
        )
        asum = tuple(x + y for x, y in zip(a, a2))
        assert epsilon_cocycle(L, asum, b) == epsilon_cocycle(L, a, b) * epsilon_cocycle(L, a2, b)
        assert epsilon_cocycle(L, b, asum) == epsilon_cocycle(L, b, a) * epsilon_cocycle(L, b, a2)


def test_epsilon_diagonal_lattice_trivial():
    L = lat(D24)
    assert all(epsilon_cocycle(L, a, b) == 1
               for a in product(range(-2, 3), repeat=2) for b in product(range(-2, 3), repeat=2))


def test_mod_two_data():
    assert mod_two_data(lat(A1)).r2 == 1
    assert mod_two_data(lat(A2)).r2 == 0
    assert mod_two_data(lat(D24)).r2 == 2
    m = mod_two_data(lat(D24))
    assert all(all(x == 0 for x in row) for row in m.bilinear)
    assert m.radical_basis == ((1, 0), (0, 1))


def test_mod_two_quadratic_refines_bilinear():
    rng = random.Random(17)
    for gram in TEST_GRAMS:
        L = lat(gram)
        m = mod_two_data(L)
        assert (L.rank - m.r2) % 2 == 0
        for _ in range(40):
            a = tuple(rng.randint(-3, 3) for _ in range(L.rank))
            b = tuple(rng.randint(-3, 3) for _ in range(L.rank))
            s = tuple(x + y for x, y in zip(a, b))
            assert m.q(s) == (m.q(a) + m.q(b) + mod_two_bilinear(L, a, b)) % 2
        for r in m.radical_basis:
            for _ in range(10):
                a = tuple(rng.randint(-3, 3) for _ in range(L.rank))
                assert mod_two_bilinear(L, r, a) == 0
