import math
import operator
import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import (A1, A2, D16_PLUS, D24, E6, E8, E8_E8, LADDER_GRAMS, N_A1_24, TEST_GRAMS, even_grams,
                      from_terms, lat, lowest_weight, truncate)
from vlplus.intmat import rational_inverse
from vlplus import qseries
from vlplus.branching import branch_sublattice
from vlplus.lattice import (_frame_counts, _gram_schmidt, coset_element, coset_norm_counts, minimal_coset_reps,
                            norm2_vectors, sublattice, validate_even_lattice, zero_coset)
from vlplus.qseries import (
    QSeries,
    _convolve,
    character,
    coset_character_halves,
    coset_character_sum,
    euler_product_inv,
    series_denominator,
    theta_coset,
)
from vlplus.sectors import (
    LabelKind,
    VAC_MINUS,
    VAC_PLUS,
    classify_modules,
    parse_label,
    top_level_dimension,
    twisted_dimension,
)

F = Fraction


# ---------------------------------------------------------------------------
# independent state-count oracle
# ---------------------------------------------------------------------------

def multipartition_counts(n: Fraction, sizes: list[Fraction], colors: int):
    """(count, signed count) of multisets of colored parts summing to n.

    Explicit multiplicity enumeration; the sign is (-1)^(number of parts).
    Deliberately avoids any product-expansion shortcut.
    """
    items = [s for s in sizes for _ in range(colors)]

    def rec(i: int, rem: Fraction, parts: int):
        if rem == 0:
            return (1, (-1) ** parts)
        if i >= len(items) or not items[i:] or min(items[i:]) > rem:
            return (0, 0)
        total = 0
        signed = 0
        m = 0
        while m * items[i] <= rem:
            t, s = rec(i + 1, rem - m * items[i], parts + m)
            total += t
            signed += s
            m += 1
        return (total, signed)

    return rec(0, Fraction(n), 0)


def state_count_dimension(gram, label, weight: Fraction) -> int:
    """Dimension of the weight space of a labelled module, by brute enumeration."""
    L = lat(gram)
    d = L.rank
    weight = Fraction(weight)
    int_sizes = [Fraction(k) for k in range(1, int(weight) + 1)]
    if label.kind in (LabelKind.VAC_PLUS, LabelKind.VAC_MINUS):
        total = 0
        signed = 0
        from conftest import box_enumerate

        for v in box_enumerate(gram, [0] * d, 2 * weight):
            rest = weight - Fraction(L.norm(v)) / 2
            if rest.denominator != 1 or rest < 0:
                continue
            t, s = multipartition_counts(rest, int_sizes, d)
            total += t
            if all(x == 0 for x in v):
                signed += s
        sign = 1 if label.kind == LabelKind.VAC_PLUS else -1
        twice = total + sign * signed
        assert twice % 2 == 0
        return twice // 2
    if label.kind in (LabelKind.UNTWISTED, LabelKind.COSET):
        from conftest import box_enumerate

        total = 0
        for v in box_enumerate(gram, label.coset.rep, 2 * weight):
            rest = weight - Fraction(L.norm(v)) / 2
            if rest.denominator != 1 or rest < 0:
                continue
            t, _ = multipartition_counts(rest, int_sizes, d)
            total += t
        if label.kind == LabelKind.UNTWISTED:
            return total
        assert total % 2 == 0  # no theta-fixed vectors off the lattice
        return total // 2
    # twisted: parts are half-odd integers, offset d/16
    n = weight - Fraction(d, 16)
    if n < 0 or (2 * n).denominator != 1:
        return 0
    half_sizes = [Fraction(2 * k - 1, 2) for k in range(1, int(n) + 2)]
    t, s = multipartition_counts(n, half_sizes, d)
    sign = 1 if label.sign == 1 else -1
    twice = t + sign * s
    assert twice % 2 == 0
    return twisted_dimension(L) * (twice // 2)


# ---------------------------------------------------------------------------
# series arithmetic
# ---------------------------------------------------------------------------

def random_series(rng, denom, order_key):
    terms = {}
    for _ in range(rng.randint(0, 8)):
        k = rng.randint(0, order_key - 1)
        terms[F(k, denom)] = rng.randint(-5, 5)
    return from_terms(denom, F(order_key, denom), terms)


def test_series_ring_axioms_random():
    rng = random.Random(23)
    for _ in range(60):
        denom = rng.choice([1, 2, 16])
        order_key = rng.randint(1, 24)
        a = random_series(rng, denom, order_key)
        b = random_series(rng, denom, order_key)
        c = random_series(rng, denom, order_key)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a


def test_is_half_sum_is_the_halved_sum():
    # the one-pass check against the sum, its half and a comparison on a
    # common grid: ch on a grid that refines the operands', as a parent's
    # character refines its factors' grid
    rng = random.Random(11)
    for _ in range(120):
        denom, order_key = rng.choice([1, 2, 16]), rng.randint(1, 24)
        a = random_series(rng, denom, order_key)
        b = a + random_series(rng, denom, order_key).scaled(2)  # a + s b is even
        sign = rng.choice([1, -1])
        half = (a + b.scaled(sign)).halved()
        ch = half.rescale(half.denom * rng.choice([1, 2, 3]))
        assert ch.is_half_sum(a, b, sign)
        assert ch.is_half_sum(b, a, sign) == (sign == 1 or not half.nums)  # (b - a) / 2 = -half
        k = F(rng.randint(0, order_key - 1), denom)
        assert not (ch + from_terms(denom, ch.order, {k: 1})).is_half_sum(a, b, sign)
        assert not truncate(ch, ch.order - F(1, ch.denom)).is_half_sum(a, b, sign)
        odd = a + from_terms(denom, a.order, {k: 1})  # odd at k: no series is half of it
        assert not ch.is_half_sum(odd, b, sign) and not half.is_half_sum(odd, b, sign)


def test_series_equality_is_grid_free_and_exact():
    # equality compares integers on a common grid: a rescale is the same
    # series, one coefficient or the order apart is not, and equal series hash equal
    rng = random.Random(5)
    for _ in range(40):
        a = random_series(rng, rng.choice([1, 2, 3]), rng.randint(1, 12))
        f = rng.choice([2, 3, 16])
        assert a.rescale(a.denom * f) == a and hash(a.rescale(a.denom * f)) == hash(a)
        assert a.scaled(2).halved() == a
        k = F(rng.randint(0, a.order_key - 1), a.denom)
        bumped = a + from_terms(a.denom, a.order, {k: 1})
        assert bumped != a and bumped.rescale(bumped.denom * f) != a
        if a.order_key > 1:
            assert truncate(a, a.order - F(1, a.denom)) != truncate(a, a.order)
    assert QSeries.zero(2, F(1)) == QSeries.zero(4, F(1)) != QSeries.zero(4, F(3, 4))


def test_series_no_zero_coefficients_stored():
    a = from_terms(2, F(3), {F(1): F(1), F(2): F(0)})
    assert a.terms() == {F(1): F(1)}
    b = a + a.scaled(-1)
    assert b.terms() == {} and b == QSeries.zero(2, F(3))


def test_series_mixed_grid_operations():
    a = from_terms(2, F(2), {F(1, 2): F(1)})
    b = from_terms(16, F(2), {F(1, 16): 3})
    s = a + b
    assert s.terms() == {F(1, 16): 3, F(1, 2): 1}
    p = a * b
    assert p.terms() == {F(9, 16): 3}


def test_series_truncation_orders():
    a = from_terms(1, F(5), {F(0): F(1), F(4): F(2)})
    b = from_terms(1, F(2), {F(0): F(1)})
    assert (a * b).order == 2
    assert (a + b).order == 2
    assert truncate(a, F(2)).terms() == {F(0): F(1)}


def test_series_terms_beyond_order_are_dropped():
    a = from_terms(1, F(3), {F(0): F(1), F(3): F(5), F(7): F(1)})
    assert a.terms() == {F(0): F(1)}


def test_series_fractional_shift_refines_grid():
    a = from_terms(1, F(2), {F(0): F(1), F(1): F(3)})
    s = a.shifted(F(3, 16))
    assert s.denom % 16 == 0
    assert s.terms() == {F(3, 16): F(1), F(19, 16): F(3)}
    assert s.order == F(2) + F(3, 16)


def test_series_off_grid_inputs_rejected():
    import pytest

    with pytest.raises(ValueError):
        from_terms(2, F(1), {F(1, 3): F(1)})
    with pytest.raises(ValueError):
        from_terms(2, F(1, 3), {})


def test_series_cancellation_stores_no_zero():
    # (1 + q)(1 - q) = 1 - q^2 and (1 + q) + (1 - q) = 2: the cancelled q^1 is not kept
    a = from_terms(2, F(3), {F(0): 1, F(1): 1})
    b = from_terms(2, F(3), {F(0): 1, F(1): -1})
    assert (a * b).nums == {0: 1, 4: -1}
    assert (a + b).nums == {0: 2}


def test_halved_refuses_an_odd_coefficient():
    import pytest

    a = from_terms(2, F(3), {F(0): 2, F(1, 2): -4, F(2): 3})
    with pytest.raises(AssertionError, match="odd coefficient 3 of q\\^2"):
        a.halved()
    assert a.scaled(2).halved() == a
    assert (a + from_terms(2, F(3), {F(2): 1})).halved().terms() == {F(0): 1, F(1, 2): -2, F(2): 2}
    with pytest.raises(ValueError, match="coefficient 1/2 of q\\^1 is not an integer"):
        from_terms(2, F(3), {F(1): F(1, 2)})


# ---------------------------------------------------------------------------
# Euler products against explicit expansion
# ---------------------------------------------------------------------------

def test_euler_product_partition_numbers():
    s = euler_product_inv(1, F(4), 1)
    assert s.terms() == {F(0): F(1), F(1): F(1), F(2): F(2), F(3): F(3)}


def test_euler_product_alternating_matches_explicit_expansion():
    # oracle: coefficient of q^n is the signed count of multipartitions
    s = euler_product_inv(1, F(6), 1, alternating=True)
    for n in range(6):
        _, signed = multipartition_counts(F(n), [F(k) for k in range(1, n + 1)], 1)
        assert s.terms().get(F(n), 0) == signed
    # frozen values from the expansion: 1 - q + 0q^2 - q^3 + q^4 - q^5
    assert s.terms() == {F(0): F(1), F(1): F(-1), F(3): F(-1), F(4): F(1), F(5): F(-1)}


def test_euler_product_multicolor_matches_oracle():
    for d in (2, 3):
        s = euler_product_inv(d, F(5), 1)
        for n in range(5):
            total, _ = multipartition_counts(F(n), [F(k) for k in range(1, n + 1)], d)
            assert s.terms().get(F(n), 0) == total


def test_euler_product_half_integer_matches_oracle():
    for d, alt in ((1, False), (2, False), (1, True), (2, True)):
        s = euler_product_inv(d, F(4), 2, alternating=alt, half_integer=True)
        sizes = [F(2 * k - 1, 2) for k in range(1, 9)]
        for twice_n in range(8):
            n = F(twice_n, 2)
            total, signed = multipartition_counts(n, sizes, d)
            assert s.terms().get(n, 0) == (signed if alt else total)


def test_euler_product_degree_zero():
    assert euler_product_inv(0, F(5), 1).terms() == {F(0): F(1)}


def factorwise_euler_product_inv(d, order, denom, alternating=False, half_integer=False):
    """Oracle: one series product per factor, each factor expanded through
    (1 - s q^e)^(-d) = sum_m binom(m+d-1, d-1) s^m q^(m e)."""
    if d < 0:
        raise ValueError("exponent must be nonnegative")
    order = F(order)
    result = from_terms(denom, order, {F(0): F(1)})
    if d == 0:
        return result
    sign = -1 if alternating else 1
    n = 1
    while True:
        e = F(2 * n - 1, 2) if half_integer else F(n)
        if e >= order:
            break
        terms = {F(0): F(1)}
        m = 1
        while m * e < order:
            terms[m * e] = F(math.comb(m + d - 1, d - 1) * sign**m)
            m += 1
        result = result * from_terms(denom, order, terms)
        n += 1
    return result


def fields_or_error(f, *args):
    try:
        s = f(*args)
    except ValueError:
        return ValueError
    return s.denom, s.order_key, s.nums


GRIDS = (1, 2, 3, 16, 48, 240)


@st.composite
def euler_cases(draw):
    """(d, order, denom, alternating, half_integer); the order runs from -1
    to 60, on the series grid 1/denom mostly and on another grid at times."""
    denom = draw(st.sampled_from(GRIDS))
    g = draw(st.sampled_from((denom,) * 6 + GRIDS))
    order = F(draw(st.integers(-g, 60 * g)), g)
    return draw(st.integers(0, 8)), order, denom, draw(st.booleans()), draw(st.booleans())


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(euler_cases())
@example((2, F(5, 2), 1, False, False))   # fractional order on the integer grid
@example((1, F(3), 3, False, True))       # half-integer exponents on an odd grid
@example((0, F(3), 3, True, True))        # no factors, so no half-integer exponent
@example((1, F(1, 3), 3, False, True))    # below the first factor q^(1/2)
@example((3, F(7, 16), 48, True, False))  # off the grid: ValueError
@example((2, F(-1), 16, True, True))
@example((-1, F(3), 1, False, False))   # negative degree: ValueError
def test_euler_product_matches_factorwise_expansion(args):
    assert fields_or_error(euler_product_inv.__wrapped__, *args) \
        == fields_or_error(factorwise_euler_product_inv, *args)


def test_psi_product_matches_factorwise_expansion_to_order_30():
    # psi^(-d) is the finite product over odd n of Euler's identity; the
    # factorwise oracle expands every (1 + q^n)^(-d), n < 30
    for d in range(9):
        oracle = factorwise_euler_product_inv(d, F(30), 1, alternating=True)
        for order in range(31):
            assert euler_product_inv.__wrapped__(d, F(order), 1, alternating=True) \
                == truncate(oracle, F(order)), (d, order)
            assert fields_or_error(euler_product_inv.__wrapped__, d, F(order), 16, True, False) \
                == fields_or_error(factorwise_euler_product_inv, d, F(order), 16, True, False)


@pytest.mark.parametrize("d", [16, 24])
def test_euler_products_at_large_rank_match_factorwise_expansion(d):
    # the ranks of E8 + E8 and of the Leech-type lattices: every row on the
    # integer grid, the twisted character's and the two sublattice checks'
    for alternating in (False, True):
        for half_integer in (False, True):
            for denom in (1, 2, 48):
                args = (alternating, half_integer)
                if half_integer and denom % 2:
                    assert fields_or_error(euler_product_inv.__wrapped__, d, F(30), denom, *args) \
                        == fields_or_error(factorwise_euler_product_inv, d, F(30), denom, *args) \
                        == ValueError
                    continue
                oracle = factorwise_euler_product_inv(d, F(30), denom, *args)
                step = F(1, 2) if denom % 2 == 0 else F(1)
                for k in range(int(30 / step) + 1):
                    assert euler_product_inv.__wrapped__(d, k * step, denom, *args) \
                        == truncate(oracle, k * step), (d, denom, args, k * step)


def distinct_partition_counts(n):
    """q(0..n-1): partitions into distinct parts, one part size at a time."""
    q = [1] + [0] * (n - 1)
    for part in range(1, n):
        for m in range(n - 1, part - 1, -1):
            q[m] += q[m - part]
    return q


def test_half_integer_product_counts_distinct_partitions():
    # prod over odd m of (1 - t^m)^(-1), t = q^(1/2), counts partitions into
    # odd parts, which Euler's bijection makes partitions into distinct parts
    q = distinct_partition_counts(201)
    assert q[100] == 444793
    terms = euler_product_inv(1, F(201, 2), 2, half_integer=True).terms()
    assert [terms.get(F(m, 2), 0) for m in range(201)] == q


def partition_numbers(n):
    """p(0..n-1) from Euler's pentagonal-number recurrence."""
    p = [1]
    for m in range(1, n):
        total, k = 0, 1
        while k * (3 * k - 1) // 2 <= m:
            sign = 1 if k % 2 else -1
            total += sign * p[m - k * (3 * k - 1) // 2]
            if k * (3 * k + 1) // 2 <= m:
                total += sign * p[m - k * (3 * k + 1) // 2]
            k += 1
        p.append(total)
    return p


def test_euler_product_partition_numbers_to_order_200():
    p = partition_numbers(200)
    assert (p[100], p[199]) == (190569292, 3646072432125)
    terms = euler_product_inv(1, F(200), 1).terms()
    assert [terms.get(n, 0) for n in range(200)] == p


def test_euler_product_inverts_the_pentagonal_series():
    # prod (1 - q^n) = sum over all integers k of (-1)^k q^(k(3k-1)/2)
    pentagonal = {}
    for k in range(-12, 13):
        e = k * (3 * k - 1) // 2
        if e < 200:
            pentagonal[F(e)] = F((-1) ** k)
    product = euler_product_inv(1, F(200), 48) * from_terms(48, F(200), pentagonal)
    assert product.terms() == {F(0): F(1)} and product.order == 200


def schoolbook(a, b, size):
    """The product of two coefficient lists, truncated as _convolve truncates."""
    n = min(size, len(a) + len(b) - 1) if a and b else 0
    return [sum(a[i] * b[k - i] for i in range(len(a)) if 0 <= k - i < len(b)) for k in range(n)]


# small, wide, and at the edge of a byte: w bytes hold products up to 2^(8w - 1)
coefficients = (st.integers(-3, 3) | st.integers(-(2**80), 2**80)
                | st.sampled_from([s * (2**k - 1) for k in (7, 8, 31, 63, 64) for s in (1, -1)]))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(coefficients, max_size=14), st.lists(coefficients, max_size=14), st.integers(0, 30))
@example([], [1, 2], 5)                          # an empty operand
@example([1, 2], [], 0)
@example([-7], [1, -2, 3], 5)                    # one-term operands
@example([3, 4, 5], [2], 2)
@example([0, 0, 0], [1, 2, 3], 5)                # all zero
@example([0], [0, 0], 4)
@example([1, 2, 3, 4, 5], [6, 7, 8, 9], 2)       # size shorter than either operand
@example([2**64 + 1, -(2**70), 2**64], [2**65, 3, -(2**64)], 6)  # past 2^64
@example([1, 1], [1, -1], 3)                     # (1 + t)(1 - t): a zero coefficient
@example([1, -1, 1], [-1, -2, -3], 5)            # negative coefficients
@example([2**63, -(2**63)], [2**63, 2**63], 3)   # product coefficients of 2^126, 0, -2^126
@example([2**63 - 1] * 3, [2**63 - 1] * 3, 5)     # three products of 126 bits in one coefficient
def test_convolve_is_the_schoolbook_truncated_product(a, b, size):
    assert _convolve(a, b, size) == schoolbook(a, b, size)
    assert _convolve(a, a, size) == schoolbook(a, a, size)


def pairwise_product(a, b):
    """a * b term by term: every pair of terms whose exponents sum below the
    lesser order, on the common grid, with no zero stored."""
    denom = math.lcm(a.denom, b.denom)
    a, b = a.rescale(denom), b.rescale(denom)
    if a.nums and min(a.nums) < 0 or b.nums and min(b.nums) < 0:
        raise ValueError("truncated products require nonnegative exponents")
    order_key = min(a.order_key, b.order_key)
    nums = {}
    bi = sorted((k, v) for k, v in b.nums.items() if k < order_key)
    for k1, v1 in a.nums.items():
        if k1 >= order_key:
            continue
        lim = order_key - k1
        for k2, v2 in bi:
            if k2 >= lim:
                break
            nums[k1 + k2] = nums.get(k1 + k2, 0) + v1 * v2
    return QSeries(denom, order_key, {k: v for k, v in nums.items() if v})


# grids with common factors and coprime pairs (3 and 16, 5 and 48, 7 and 96)
PRODUCT_GRIDS = (1, 2, 3, 5, 7, 16, 48, 96)


@st.composite
def product_operands(draw):
    """A series on one of PRODUCT_GRIDS: a sparse support anywhere below the
    order, or a dense run on some stride from a shifted first key; the
    order's last key is drawn often, so products reach the order exactly."""
    denom = draw(st.sampled_from(PRODUCT_GRIDS))
    order_key = draw(st.integers(0, 160))
    if order_key and draw(st.booleans()):
        keys = draw(st.lists(st.integers(0, order_key - 1) | st.just(order_key - 1), max_size=8))
    else:
        stride = draw(st.sampled_from((1, 2, 3, denom, 2 * denom)))
        start = draw(st.integers(0, max(order_key - 1, 0)))
        keys = range(start, order_key, stride)[:draw(st.integers(0, 40))]
    nums = {k: draw(coefficients) for k in keys}
    return QSeries(denom, order_key, {k: v for k, v in nums.items() if v})


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(product_operands(), product_operands())
@example(QSeries(1, 5, {}), QSeries(3, 6, {0: 1, 7: 2}))                  # an empty operand
@example(QSeries(16, 32, {5: -3}), QSeries(3, 6, {0: 1, 2: 2, 4: 5}))     # one term
@example(QSeries(2, 4, {3: 2**70}), QSeries(2, 4, {0: 2**65 + 1, 1: -(2**64)}))  # past 2^64
@example(QSeries(1, 6, {0: 1, 3: 1, 5: 1}), QSeries(1, 6, {1: 1, 2: 1, 3: 1}))  # sums at 6 dropped
@example(QSeries(48, 96, {0: 1, 48: 1}), QSeries(48, 96, {0: 1, 48: -1}))       # cancels at q^1
@example(QSeries(7, 21, {1: 2, 8: 1}), QSeries(96, 288, {0: 1, 96: 2, 192: 1}))  # coprime grids
@example(QSeries(1, 5, {-1: 1}), QSeries(1, 5, {0: 1}))                  # negative exponent
@example(QSeries(2, 3, {0: 1}), QSeries(16, 20, {-4: 1}))
@example(QSeries(1, 4, {}), QSeries(1, 4, {-2: 1}))
def test_series_product_is_the_pairwise_product(a, b):
    # the same grid, order and stored integers, or a ValueError from both
    assert fields_or_error(operator.mul, a, b) == fields_or_error(pairwise_product, a, b)
    assert fields_or_error(operator.mul, b, a) == fields_or_error(pairwise_product, a, b)


def packed_lengths(monkeypatch):
    """Record the length of every list that _convolve packs."""
    lengths = []
    convolve = qseries._convolve

    def recording(a, b, size):
        lengths.extend((len(a[:size]), len(b[:size])))
        return convolve(a, b, size)

    monkeypatch.setattr(qseries, "_convolve", recording)
    return lengths


def test_sparse_products_on_a_fine_grid_pack_no_dense_rows(monkeypatch):
    # keys {0, 5, 691195} x {0, 345600} below 691200 on the grid 1/345600:
    # one stride for both would be 5, and rows of 138,240 and 69,121 slots
    a = QSeries(345600, 691200, {0: 1, 5: 2, 691195: 3})
    b = QSeries(345600, 691200, {0: 4, 345600: 5})
    lengths = packed_lengths(monkeypatch)
    assert a * b == pairwise_product(a, b)
    assert b * a == pairwise_product(a, b)
    assert lengths and max(lengths) <= len(a.nums) + len(b.nums)


def test_operands_filling_every_residue_class_pack_once(monkeypatch):
    # 2 terms on the stride 288 times 12 on the stride 48, below 576: the
    # finer operand fills all six classes mod 288, so both pack on 48 at once
    a = QSeries(48, 576, {0: 3, 288: -1})
    b = QSeries(48, 576, {48 * i: i + 1 for i in range(12)})
    lengths = packed_lengths(monkeypatch)
    assert a * b == pairwise_product(a, b)
    assert sorted(lengths) == [7, 12]


def test_e6_index_240_character_sum_packs_no_dense_rows(monkeypatch):
    # the Gram-Schmidt sublattice of E6 has index 240 and the series grid
    # 1/345600; its summed theta and Euler product meet in one product
    L = lat(E6)
    bl = branch_sublattice(L, _gram_schmidt(L).basis, VAC_PLUS)
    order = F(4)
    expected = coset_character_sum(bl.sublattice, bl.parts, order)  # warms every cache
    a, b = coset_character_halves(bl.sublattice, bl.parts, order)
    assert (a + b).halved() == expected
    operands, multiply = [], QSeries.__mul__

    def recording(a, b):
        operands.append(len(a.nums) + len(b.nums))
        return multiply(a, b)

    monkeypatch.setattr(QSeries, "__mul__", recording)
    lengths = packed_lengths(monkeypatch)
    assert coset_character_sum(bl.sublattice, bl.parts, order) == expected
    assert operands and lengths and max(lengths) <= max(operands)


# ---------------------------------------------------------------------------
# theta series
# ---------------------------------------------------------------------------

def test_theta_a1_examples():
    L = lat(A1)
    th = theta_coset(L, zero_coset(L), F(3))
    assert th.terms() == {F(0): F(1), F(1): F(2)}
    half = coset_element(L, (F(1, 2),))
    th_half = theta_coset(L, half, F(2))
    assert th_half.terms() == {F(1, 4): F(2)}


def test_theta_negation_symmetry():
    for gram in (A2, D24):
        L = lat(gram)
        for c in minimal_coset_reps(L):
            neg = coset_element(L, tuple(-x for x in c.rep))
            assert theta_coset(L, c, F(6)) == theta_coset(L, neg, F(6))


def test_theta_multiplicativity_orthogonal_sum():
    La, Lb = lat(A1), lat([[4]])
    Lsum = lat([[2, 0], [0, 4]])
    order = F(8)
    tha = theta_coset(La, zero_coset(La), order)
    thb = theta_coset(Lb, zero_coset(Lb), order)
    assert tha * thb == theta_coset(Lsum, zero_coset(Lsum), order)


def test_theta_cosets_sum_to_dual_theta():
    # the rescaled dual is an even lattice; its theta, with exponents
    # divided back, must equal the sum over all coset thetas
    for gram in (A1, A2, D24):
        L = lat(gram)
        denom = series_denominator(L)
        order = F(3)
        total = QSeries.zero(denom, order)
        for c in minimal_coset_reps(L):
            total = total + theta_coset(L, c, order)
        ginv = rational_inverse([list(r) for r in gram])
        scale = 2 * L.det
        dual_gram = [[int(scale * x) for x in row] for row in ginv]
        E = validate_even_lattice(dual_gram)
        from vlplus.lattice import enumerate_coset_with_norms

        dual_terms = {}
        for _, n in enumerate_coset_with_norms(
            E, tuple(F(0) for _ in range(L.rank)), 2 * scale * order
        ):
            e = F(n, 2 * scale)
            if e < order:
                dual_terms[e] = dual_terms.get(e, F(0)) + 1
        assert total.terms() == dual_terms


# closed forms of theta series, computed here with integers only

def sigma(n: int, k: int = 1) -> int:
    return sum(e ** k for e in range(1, n + 1) if n % e == 0)


def e4_coefficients(order: int) -> list[int]:
    """E4 = 1 + 240 sum sigma_3(n) q^n below q^order (Serre, A Course in Arithmetic, ch. VII)."""
    return [1] + [240 * sigma(n, 3) for n in range(1, order)]


def test_theta_e8_is_the_eisenstein_series_e4():
    L = lat(E8)
    theta = theta_coset(L, zero_coset(L), F(30))
    assert theta.terms() == {F(n): c for n, c in enumerate(e4_coefficients(30))}


def root_frame(L):
    """The frame of mutually orthogonal roots picked greedily from norm2_vectors."""
    kept = []
    for r in norm2_vectors(L):
        if not any(L.pairing(r, f) for f in kept):
            kept.append(r)
    return sublattice(L, tuple(kept))


def counted_theta(L, order: int, frame=None) -> dict:
    """{n: #{v: (v, v) = 2n}} below q^order from norm counts: coset_norm_counts,
    or _frame_counts through frame."""
    lam, bound = zero_coset(L), 2 * order - 2
    scale, counts = coset_norm_counts(L, lam, bound) if frame is None else _frame_counts(frame, lam, bound)
    return {F(S, 2 * scale): n for S, n in counts.items()}


@pytest.mark.parametrize("name", ["E8", "E8+E8", "D16+", "N(A1^24)"])
def test_unimodular_theta_is_the_counted_theta(name):
    # det 1 takes the modular route, sum_j c_j E4^(d/8 - 3j) Delta^j, which
    # counts nothing below rank 24; the counted route is coset_norm_counts
    # (E8, E8 + E8 and D16+ through their searched frames, each well under
    # 10 s at order 50), except on N(A1^24), whose frame search gives up and
    # whose walk reaches only order 3 in 10 s: it is counted through its
    # frame of 24 orthogonal roots (index 4096) instead
    gram = {"E8": E8, "E8+E8": E8_E8, "D16+": D16_PLUS, "N(A1^24)": N_A1_24}[name]
    L = lat(gram)
    frame = root_frame(L) if name == "N(A1^24)" else None
    assert frame is None or frame.index == 4096
    assert theta_coset.__wrapped__(L, zero_coset(L), 50).terms() == counted_theta(L, 50, frame)


def test_unimodular_theta_reads_the_root_count(monkeypatch):
    # one root too many in N_1 changes c_1, so the rank-24 theta leaves the
    # counted one from q^1 on
    counts = qseries.coset_norm_counts

    def one_more_root(L, lam, bound):
        scale, c = counts(L, lam, bound)
        return scale, c | {2 * scale: c[2 * scale] + 1}

    monkeypatch.setattr(qseries, "coset_norm_counts", one_more_root)
    L = lat(N_A1_24)
    want = counted_theta(L, 4, root_frame(L))
    got = theta_coset.__wrapped__(L, zero_coset(L), 4).terms()
    assert got != want and got[F(0)] == want[F(0)] and got[F(1)] == want[F(1)] + 1


def test_theta_d4_counts_24_sigma_of_the_odd_part():
    # r_D4(2n) = 24 sigma(m) for n = 2^a m with m odd: 24 roots, 24 vectors of norm 4, 96 of norm 6
    L = lat(LADDER_GRAMS[1])
    theta = theta_coset(L, zero_coset(L), F(40))
    want = {F(0): 1} | {F(n): 24 * sigma(n // (n & -n)) for n in range(1, 40)}
    assert theta.terms() == want


def test_e8_vacuum_characters_sum_to_e4_over_phi8():
    # ch V+ + ch V- = theta_E8 phi^-8, phi^-8 = prod (1 - q^n)^-8 expanded here
    order = 30
    phi = [1] + [0] * (order - 1)
    for n in range(1, order):
        for _ in range(8):
            for k in range(n, order):
                phi[k] += phi[k - n]
    theta = e4_coefficients(order)
    want = {F(k): sum(theta[i] * phi[k - i] for i in range(k + 1)) for k in range(order)}
    L = lat(E8)
    total = character(L, VAC_PLUS, F(order)) + character(L, VAC_MINUS, F(order))
    assert total.terms() == want


def euler_product(d, order):
    """prod (1 - q^n)^d below q^order, in integers: d passes per factor."""
    c = [1] + [0] * (order - 1)
    for n in range(1, order):
        for _ in range(d):
            for k in range(order - 1, n - 1, -1):
                c[k] -= c[k - n]
    return c


def series_product(a, b, order):
    return [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(order)]


@pytest.mark.parametrize("copies, twisted, order", [(1, "T[0]-", 30), (2, "T[0]+", 8)],
                         ids=["E8", "E8+E8"])
def test_z2_orbifold_of_a_unimodular_lattice_is_its_lattice_algebra(copies, twisted, order):
    # V+ + T, T the twisted sector of integer weights, is the lattice algebra
    # of an even unimodular lattice of rank d = 8 or 16 (E8, or D16+ for
    # E8 + E8), whose theta is the weight-d/2 modular form E4^copies: the
    # character times prod (1 - q^n)^d is E4^copies.  The test builds no
    # inverse Euler product, so the twisted character's is checked against
    # a closed form
    d = 8 * copies
    gram = [[E8[i % 8][j % 8] if i // 8 == j // 8 else 0 for j in range(d)] for i in range(d)]
    L = lat(gram)
    total = character(L, VAC_PLUS, F(order)) + character(L, parse_label(L, twisted), F(order))
    terms = total.terms()
    assert set(terms) <= {F(n) for n in range(order)}
    ch = [terms.get(F(n), 0) for n in range(order)]
    want = e4_coefficients(order)
    for _ in range(copies - 1):
        want = series_product(want, e4_coefficients(order), order)
    assert series_product(ch, euler_product(d, order), order) == want


# ---------------------------------------------------------------------------
# characters
# ---------------------------------------------------------------------------

def test_character_vacuum_a1():
    L = lat(A1)
    ch = character(L, VAC_PLUS, F(3))
    assert ch.terms() == {F(0): F(1), F(1): F(1), F(2): F(2)}


def test_character_twisted_leading_exponent():
    L = lat(A1)
    labels = [m for m in classify_modules(L) if m.kind == LabelKind.TWISTED]
    minus = [m for m in labels if m.sign == -1][0]
    e, c = min(character(L, minus, F(2)).terms().items())
    assert e == F(9, 16) and c == 1


def test_character_untwisted_leading_is_delta_size():
    L = lat(D24)
    for m in classify_modules(L):
        if m.kind != LabelKind.UNTWISTED:
            continue
        e, c = min(character(L, m, F(4)).terms().items())
        from vlplus.lattice import delta_set

        assert c == len(delta_set(L, m.coset))


def test_characters_match_state_count_oracle():
    cases = [
        (A1, F(4)),
        (A2, F(3)),
    ]
    for gram, order in cases:
        L = lat(gram)
        for m in classify_modules(L):
            ch = character(L, m, order)
            w0 = lowest_weight(L, m)
            w = w0
            while w < order:
                assert ch.terms().get(w, 0) == state_count_dimension(gram, m, w), (gram, str(m), w)
                w += F(1, 2) if m.kind == LabelKind.TWISTED else F(1, 4)


def full_lattice_character(L, order):
    """Graded dimension of the whole untwisted algebra: theta_L / phi^d."""
    denom = series_denominator(L)
    return theta_coset(L, zero_coset(L), order) * euler_product_inv(L.rank, order, denom)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(even_grams())
@example(A1)
@example(A2)
@example(D24)
def test_vacuum_characters_sum_to_full_algebra(gram):
    # every untwisted character against a right side built here from theta
    # series and Euler products: V+ + V- = theta_L phi^-d, V+ - V- = psi^-d,
    # C[lam]+ = C[lam]- with sum theta_lam phi^-d, U[lam] = theta_lam phi^-d
    L = lat(gram)
    order = F(8)
    denom = series_denominator(L)
    phi_inv = euler_product_inv(L.rank, order, denom)
    plus, minus = character(L, VAC_PLUS, order), character(L, VAC_MINUS, order)
    assert plus + minus == full_lattice_character(L, order)
    assert plus + minus.scaled(-1) == euler_product_inv(L.rank, order, denom, alternating=True)
    for m in classify_modules(L):
        full = theta_coset(L, m.coset, order) * phi_inv if m.coset else None
        if m.kind == LabelKind.COSET and m.sign == 1:
            partner = character(L, replace(m, sign=-1), order)
            assert character(L, m, order) == partner
            assert character(L, m, order) + partner == full
        elif m.kind == LabelKind.UNTWISTED:
            assert character(L, m, order) == full


def test_character_extension_stability():
    L = lat(A2)
    for m in classify_modules(L):
        small = character(L, m, F(5))
        large = character(L, m, F(9))
        assert truncate(large, F(5)) == small


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(even_grams())
@example(A1)
@example(A2)
@example(D24)
def test_every_character_has_integer_coefficients(gram):
    # characters are graded dimensions: each halving inside character() is exact
    L = lat(gram)
    for m in classify_modules(L):
        ch = character(L, m, F(6))
        assert all(type(c) is int for c in ch.terms().values()), (gram, str(m))


def test_integral_order_shares_one_cache_entry():
    # an integral order keys the cache as an int; a Fraction of the same
    # value, equal and of equal hash, finds the entry the int made
    L = lat([[2, 0], [0, 10]])
    info = character.cache_info()
    first = character(L, VAC_PLUS, 12)
    made = character.cache_info()
    assert made.misses == info.misses + 1 and made.currsize == info.currsize + 1
    assert character(L, VAC_PLUS, F(12)) is first
    found = character.cache_info()
    assert found.hits == made.hits + 1 and found.currsize == made.currsize


def test_zhu_dictionary_leading_data():
    for gram in TEST_GRAMS:
        L = lat(gram)
        for m in classify_modules(L):
            e, c = min(character(L, m, F(3)).terms().items())
            assert e == lowest_weight(L, m)
            assert c == top_level_dimension(L, m)


@pytest.mark.parametrize("order", [F(3), F(12)])
def test_twisted_characters_match_the_two_product_form(order):
    # T+- = dim(T) q^(d/16) (h + -h_alt) / 2 from the plain and the
    # alternating half-integer products, which character() never builds
    for gram in TEST_GRAMS:
        L = lat(gram)
        d, denom = L.rank, series_denominator(L)
        inner = order - F(d, 16)
        h = euler_product_inv(d, inner, denom, half_integer=True)
        h_alt = euler_product_inv(d, inner, denom, alternating=True, half_integer=True)
        twisted = [m for m in classify_modules(L) if m.kind == LabelKind.TWISTED]
        assert twisted, gram
        for m in twisted:
            want = (h + h_alt.scaled(m.sign)).halved().scaled(twisted_dimension(L)).shifted(F(d, 16))
            assert character(L, m, order) == want, (gram, str(m))


def test_twisted_two_factor_split_identity():
    # half-integer sector of a split rank: plus part = (+x+) + (-x-),
    # minus part = (+x-) + (-x+), including the weight offset
    d1, d2 = 1, 2
    order = F(6)
    denom = 16

    def m_pm(d, sign):
        a = euler_product_inv(d, order, denom, half_integer=True)
        b = euler_product_inv(d, order, denom, alternating=True, half_integer=True)
        return (a + b.scaled(sign)).halved().shifted(F(d, 16))

    for sign in (1, -1):
        whole = m_pm(d1 + d2, sign)
        split = m_pm(d1, 1) * m_pm(d2, sign) + m_pm(d1, -1) * m_pm(d2, -sign)
        common = min(whole.order, split.order)
        assert truncate(whole, common) == truncate(split, common)


# ---------------------------------------------------------------------------
# the order in integers against the Fraction forms it replaced
# ---------------------------------------------------------------------------

def fraction_key(order, denom):
    """The grid key as Fraction arithmetic: Fraction(order) * denom, a
    ValueError off the grid."""
    k = Fraction(order) * denom
    if k.denominator != 1:
        raise ValueError(f"order {order} is not on the grid 1/{denom}")
    return int(k)


def fraction_shifted(s, e):
    """s.shifted(e) as Fraction arithmetic: e * denom, refining the grid by
    its denominator when that is not 1."""
    e = Fraction(e)
    k = e * s.denom
    if k.denominator != 1:
        return fraction_shifted(s.rescale(s.denom * k.denominator), e)
    k = int(k)
    return QSeries(s.denom, s.order_key + k, {kk + k: v for kk, v in s.nums.items()})


def value_or_message(f, *args):
    try:
        return f(*args)
    except ValueError as e:
        return str(e)


# grids of the series and of their rank-one factors, coprime pairs among them
KEY_GRIDS = (1, 2, 3, 5, 7, 16, 48, 96, 240, 345600)


@st.composite
def grid_orders(draw):
    """(order, denom): an int or a Fraction order on a grid 1/g that
    divides 1/denom often, and on another grid at times."""
    denom = draw(st.sampled_from(KEY_GRIDS))
    g = draw(st.sampled_from((1, denom, denom, 2 * denom) + KEY_GRIDS))
    order = F(draw(st.integers(-10**6, 10**6) | st.integers(-(10**40), 10**40)), g)
    return (int(order) if order.denominator == 1 and draw(st.booleans()) else order), denom


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(grid_orders())
@example((12, 48))             # an int order
@example((F(12), 48))          # the same as a Fraction
@example((F(49, 48), 48))      # one grid step past an integer
@example((F(1, 3), 16))        # off the grid: ValueError
@example((F(-7, 2), 2))        # negative, on the grid
@example((F(5, 96), 48))       # half a grid step: ValueError
@example((0, 1))
def test_key_is_the_fraction_product(case):
    order, denom = case
    assert value_or_message(qseries._key, order, denom) == value_or_message(fraction_key, order, denom)


SHIFTS = (st.integers(-40, 40)
          | st.builds(F, st.integers(-400, 400), st.sampled_from((1, 2, 3, 5, 7, 16, 48, 96))))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(product_operands(), SHIFTS)
@example(QSeries(3, 6, {0: 1, 2: 5}), F(0))             # by zero
@example(QSeries(3, 6, {0: 1, 2: 5}), 0)
@example(QSeries(48, 96, {0: 1, 48: -2}), F(-1))        # negative, on the grid
@example(QSeries(3, 6, {0: 1, 2: 5}), F(1, 2))          # half-integer on a coprime grid: to 1/6
@example(QSeries(7, 21, {3: 1, 8: 2}), F(-5, 2))        # negative half-integer: to 1/14
@example(QSeries(16, 32, {0: 1}), F(-1, 3))             # to 1/48
@example(QSeries(5, 10, {}), F(1, 2))                   # an empty series moves its order too
def test_shifted_is_the_fraction_shift(s, e):
    assert fields_or_error(QSeries.shifted, s, e) == fields_or_error(fraction_shifted, s, e)


@pytest.mark.parametrize("gram", TEST_GRAMS + LADDER_GRAMS[:2])
def test_theta_cutoff_at_exactly_twice_the_order(monkeypatch, gram):
    # a coset whose least norm is exactly 2 * order is zero, and its counts
    # are never asked for; one grid step higher its least shell leads
    L = lat(gram)
    denom = series_denominator(L)
    counted = []
    counts = qseries.coset_norm_counts
    monkeypatch.setattr(qseries, "coset_norm_counts", lambda *args: counted.append(args) or counts(*args))
    for c in minimal_coset_reps(L):
        order = F(c.norm_num, 2 * c.den)
        if not order:
            continue
        assert not 2 * order * c.den > c.norm_num  # the cutoff as Fraction arithmetic
        for o in (order, int(order)) if order.denominator == 1 else (order,):
            assert theta_coset.__wrapped__(L, c, o).nums == {} and counted == [], (gram, c, o)
        above = theta_coset.__wrapped__(L, c, order + F(1, denom))
        assert len(counted) == 1 and min(above.terms()) == order, (gram, c)
        counted.clear()
