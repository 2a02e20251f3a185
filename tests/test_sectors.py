import math
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import (A1, A2, D24, D224, E8, LADDER_GRAMS, TEST_GRAMS, coset_neg, even_grams, lat,
                      lowest_weight, small_even_grams)
from vlplus import intmat
from vlplus.certify import _Context, weight_gap_rule
from vlplus.lattice import (coset_element, coset_is_trivial, coset_two_torsion, minimal_coset_reps,
                            mod_two_data, orbit_element)
from vlplus.sectors import (
    LabelKind,
    ModuleLabel,
    VAC_MINUS,
    VAC_PLUS,
    central_characters,
    classify_modules,
    contragredient,
    coset_labels,
    format_label,
    label_coset,
    label_sign,
    module_count,
    parse_label,
    prime_character,
    read_rational,
    series_denominator,
    shift_character,
    top_level_dimension,
    twisted_label,
    weight_num,
)

F = Fraction


@pytest.mark.parametrize("gram", TEST_GRAMS + LADDER_GRAMS + [
    E8, [[6, -1, 0], [-1, 6, -1], [0, -1, 2]]])
def test_orbit_labels_from_integers_match_orbit_element(gram):
    # coset_labels reads an orbit label off the coset's integer numerators;
    # orbit_element reaches the same rep from the Fraction coordinates
    L = lat(gram)
    orbits = 0
    for c in minimal_coset_reps(L):
        if coset_is_trivial(c) or coset_two_torsion(L, c):
            continue
        (m,) = coset_labels(L, c)
        assert m.kind == LabelKind.UNTWISTED and m.coset == orbit_element(L, c.rep), (gram, c)
        orbits += 1
    assert orbits == sum(m.kind == LabelKind.UNTWISTED for m in classify_modules(L)) * 2


def census_by_hand(gram):
    """Independent census: count labels from first principles.

    Orbits and torsion are recomputed with the box oracle and raw GF(2)
    rank, not with the library's enumeration path.
    """
    d = len(gram)
    L = lat(gram)
    det = L.det
    # nonzero cosets, via the discriminant group but classified by hand
    reps = minimal_coset_reps(L)
    two_torsion = 0
    orbit_pairs = 0
    for c in reps:
        if all(x == 0 for x in c.rep):
            continue
        if all((2 * x).denominator == 1 for x in c.rep):
            two_torsion += 1
        else:
            orbit_pairs += 1
    assert orbit_pairs % 2 == 0
    # GF(2) rank by hand
    b = [[gram[i][j] % 2 for j in range(d)] for i in range(d)]
    rank = 0
    rows = [row[:] for row in b]
    for col in range(d):
        piv = next((r for r in range(rank, d) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for r in range(d):
            if r != rank and rows[r][col]:
                rows[r] = [(x + y) % 2 for x, y in zip(rows[r], rows[rank])]
        rank += 1
    r2 = d - rank
    return 2 + orbit_pairs // 2 + 2 * two_torsion + 2 * (1 << r2)


@pytest.mark.parametrize(
    "gram,count",
    [(A1, 8), (A2, 5), (D24, 18)],
)
def test_census_counts(gram, count):
    assert len(classify_modules(lat(gram))) == count
    assert census_by_hand(gram) == count


def test_census_matches_hand_count_everywhere():
    for gram in TEST_GRAMS:
        assert len(classify_modules(lat(gram))) == census_by_hand(gram)


def test_module_count_is_the_census_size():
    # (det + 7 * 2^r2) / 2 on the benchmark's small family and every test lattice
    for gram in small_even_grams() + TEST_GRAMS + LADDER_GRAMS:
        L = lat(gram)
        assert module_count(L) == len(classify_modules(L)), gram


def test_labels_unique_and_sorted():
    for gram in TEST_GRAMS:
        labels = classify_modules(lat(gram))
        assert len(set(labels)) == len(labels)
        keys = [m.sort_key() for m in labels]
        assert keys == sorted(keys)


def test_label_grammar_roundtrip():
    for gram in TEST_GRAMS:
        L = lat(gram)
        for m in classify_modules(L):
            assert parse_label(L, format_label(m)) == m


def test_label_aliases_and_errors():
    L = lat(A1)
    assert parse_label(L, "VacPlus") == VAC_PLUS
    assert parse_label(L, "VacMinus") == VAC_MINUS
    with pytest.raises(ValueError):
        parse_label(L, "U[1/2]")  # self-paired: must be C
    with pytest.raises(ValueError):
        parse_label(L, "C[0]+")  # trivial coset is the vacuum
    with pytest.raises(ValueError):
        parse_label(L, "T[5]+")
    with pytest.raises(ValueError):
        parse_label(L, "X[1]")
    with pytest.raises(ValueError):
        parse_label(L, "T[0]")  # twisted labels need a sign
    with pytest.raises(ValueError):
        parse_label(L, "C[1/2,0]+")  # wrong rank
    with pytest.raises(ValueError):
        parse_label(L, "U[1/2]-")  # orbit labels carry no sign


def test_parse_label_canonicalizes_representatives():
    L = lat(A2)
    # any representative of the orbit parses to the canonical label
    assert parse_label(L, "U[-1/3,-1/3]") == parse_label(L, "U[1/3,1/3]")
    assert parse_label(L, "U[2/3,-1/3]") == parse_label(L, "U[1/3,1/3]")


# ---------------------------------------------------------------------------
# lowest weights (exact table)
# ---------------------------------------------------------------------------

def test_lowest_weights_a1():
    L = lat(A1)
    half = coset_element(L, (F(1, 2),))
    assert lowest_weight(L, VAC_PLUS) == 0
    assert lowest_weight(L, VAC_MINUS) == 1
    assert lowest_weight(L, coset_labels(L, half)[0]) == F(1, 4)
    chi = central_characters(L)[0]
    assert lowest_weight(L, twisted_label(chi, +1)) == F(1, 16)
    assert lowest_weight(L, twisted_label(chi, -1)) == F(9, 16)


def test_twisted_weights_rank_1_to_3():
    for gram in TEST_GRAMS:
        L = lat(gram)
        d = L.rank
        for m in classify_modules(L):
            if m.kind != LabelKind.TWISTED:
                continue
            expected = F(d, 16) if m.sign == 1 else F(d + 8, 16)
            assert lowest_weight(L, m) == expected


def test_coset_weights_are_half_min_norm():
    for gram in TEST_GRAMS:
        L = lat(gram)
        for m in classify_modules(L):
            if m.kind in (LabelKind.UNTWISTED, LabelKind.COSET):
                assert lowest_weight(L, m) == m.coset.min_norm / 2


# ---------------------------------------------------------------------------
# top-level dimensions
# ---------------------------------------------------------------------------

def test_top_dimensions_examples():
    L1, L2 = lat(A1), lat(A2)
    assert top_level_dimension(L1, VAC_MINUS) == 2
    assert top_level_dimension(L2, VAC_MINUS) == 5
    chi = central_characters(L2)[0]
    assert top_level_dimension(L2, twisted_label(chi, -1)) == 4


def test_top_dimension_coset_split_is_even():
    for gram in TEST_GRAMS:
        L = lat(gram)
        for m in classify_modules(L):
            if m.kind == LabelKind.COSET:
                from vlplus.lattice import delta_set

                assert len(delta_set(L, m.coset)) % 2 == 0


# ---------------------------------------------------------------------------
# contragredients
# ---------------------------------------------------------------------------

def test_contragredient_examples():
    L = lat(A1)
    half = coset_element(L, (F(1, 2),))
    plus, minus = coset_labels(L, half)
    assert contragredient(L, plus) == minus
    assert contragredient(L, VAC_MINUS) == VAC_MINUS

    L24 = lat(D24)
    c = coset_element(L24, (F(0), F(1, 2)))
    lab = coset_labels(L24, c)[0]
    assert contragredient(L24, lab) == lab  # 2*(l,l) = 2 is even


def test_contragredient_is_involution_preserving_weight():
    for gram in TEST_GRAMS:
        L = lat(gram)
        labels = classify_modules(L)
        for m in labels:
            dual = contragredient(L, m)
            assert dual in labels
            assert contragredient(L, dual) == m
            assert lowest_weight(L, dual) == lowest_weight(L, m)
            assert top_level_dimension(L, dual) == top_level_dimension(L, m)


def test_twisted_contragredient_shifts_by_quadratic_form():
    for gram in TEST_GRAMS:
        L = lat(gram)
        m2 = mod_two_data(L)
        for chi in central_characters(L):
            primed = prime_character(L, chi)
            for i, r in enumerate(m2.radical_basis):
                assert (primed >> i & 1) == (chi >> i & 1) ^ m2.q(r)


def test_character_shift_is_involution():
    for gram in (A1, D24, D224):
        L = lat(gram)
        for c in minimal_coset_reps(L):
            for chi in central_characters(L):
                twice = shift_character(L, shift_character(L, chi, c), c)
                assert twice == chi


# ---------------------------------------------------------------------------
# block dimensions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ZhuBlockReport:
    dim_au: int
    dim_at: int
    dim_ah: int
    total_semisimple_dim: int


def zhu_block_report(L) -> ZhuBlockReport:
    """Block dimensions of the finite semisimple algebra attached to the census."""
    d = L.rank
    dim_au = top_level_dimension(L, VAC_MINUS) ** 2
    dim_at = d * d * (1 << d)
    dim_ah = 1 << d
    total = sum(top_level_dimension(L, m) ** 2 for m in classify_modules(L))
    return ZhuBlockReport(dim_au, dim_at, dim_ah, total)


@pytest.mark.parametrize(
    "gram,expected",
    [
        (A1, (4, 2, 2, 11)),
        (A2, (25, 16, 4, 55)),
    ],
)
def test_zhu_block_examples(gram, expected):
    r = zhu_block_report(lat(gram))
    assert (r.dim_au, r.dim_at, r.dim_ah, r.total_semisimple_dim) == expected


def test_zhu_block_identities():
    for gram in TEST_GRAMS:
        L = lat(gram)
        d = L.rank
        r = zhu_block_report(L)
        labels = classify_modules(L)
        tw_plus = sum(
            top_level_dimension(L, m) ** 2
            for m in labels
            if m.kind == LabelKind.TWISTED and m.sign == 1
        )
        tw_minus = sum(
            top_level_dimension(L, m) ** 2
            for m in labels
            if m.kind == LabelKind.TWISTED and m.sign == -1
        )
        assert tw_plus == (1 << d) == r.dim_ah
        assert tw_minus == d * d * (1 << d) == r.dim_at
        assert r.dim_au == top_level_dimension(L, VAC_MINUS) ** 2
        assert r.total_semisimple_dim == sum(
            top_level_dimension(L, m) ** 2 for m in labels
        )


def test_label_count_identity():
    for gram in TEST_GRAMS:
        L = lat(gram)
        labels = classify_modules(L)
        untw = sum(1 for m in labels if m.kind == LabelKind.UNTWISTED)
        cos = sum(1 for m in labels if m.kind == LabelKind.COSET)
        tw = sum(1 for m in labels if m.kind == LabelKind.TWISTED)
        r2 = mod_two_data(L).r2
        assert tw == 2 * (1 << r2)
        assert len(labels) == 2 + untw + cos + tw


# ---------------------------------------------------------------------------
# generated lattices: the label helpers and the label grammar
# ---------------------------------------------------------------------------

GENERATED = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@GENERATED
@given(even_grams())
def test_coset_labels_and_twisted_pairs_are_the_census(gram):
    L = lat(gram)
    labels = set()
    for c in minimal_coset_reps(L):
        from_coset = coset_labels(L, c)
        labels.update(from_coset)
        # a signed pair, + first, or one orbit label without a sign
        signs = [label_sign(m) for m in from_coset]
        assert signs == ([None] if len(from_coset) == 1 else [1, -1])
        for m in from_coset:
            assert label_coset(L, m) in (c, coset_neg(L, c))
    labels.update(twisted_label(chi, s) for chi in central_characters(L) for s in (1, -1))
    assert sorted(labels, key=ModuleLabel.sort_key) == list(classify_modules(L))


@GENERATED
@given(even_grams())
def test_every_census_label_parses_back(gram):
    L = lat(gram)
    for m in classify_modules(L):
        assert parse_label(L, format_label(m)) == m


@GENERATED
@given(even_grams(), st.data())
def test_coordinates_parse_iff_they_form_a_dual_vector(gram, data):
    L = lat(gram)
    d = L.rank
    # G^-1 w is dual for integer w; a nudge p/q mostly leaves the dual lattice
    inv = intmat.rational_inverse(gram)
    w = [data.draw(st.integers(-3, 3)) for _ in range(d)]
    nudge = [F(data.draw(st.integers(0, 1)), data.draw(st.integers(1, 7))) for _ in range(d)]
    v = [sum(inv[i][j] * w[j] for j in range(d)) + nudge[i] for i in range(d)]
    dual = all(sum(gram[i][j] * v[j] for j in range(d)).denominator == 1 for i in range(d))
    text = ",".join(str(x) for x in v)
    accepted = []
    for label in (f"U[{text}]", f"C[{text}]+"):
        try:
            parse_label(L, label)
        except ValueError as e:
            assert dual or "not a dual vector" in str(e)
        else:
            accepted.append(label)
    # a dual vector outside L names exactly one of an orbit or a self-paired coset
    assert len(accepted) == (dual and any(x.denominator != 1 for x in v))


def check_integer_label_data(gram):
    """Oracle for the integer forms of a lattice's label data.

    A lowest weight is a Fraction from the label alone: the coset's least
    norm halved, 0 and 1 for V+-, d/16 and (d+8)/16 for T+-; weight_num
    is it times the grid lcm(16, 2 det).  WeightGap applies iff two of
    these differ by zero or a non-integer, and writes them as str does.
    A character is its +-1 values on the radical basis, and its shift by
    lam and its contragredient multiply value i by (-1)^(r_i, lam) and
    (-1)^((r_i, r_i)/2)."""
    L = lat(gram)
    d, grid = L.rank, math.lcm(16, 2 * L.det)
    assert series_denominator(L) == grid
    weights = {}
    for m in classify_modules(L):
        if m.kind == LabelKind.TWISTED:
            w = F(d if m.sign == 1 else d + 8, 16)
        elif m.kind in (LabelKind.VAC_PLUS, LabelKind.VAC_MINUS):
            w = F(m.kind == LabelKind.VAC_MINUS)
        else:
            w = m.coset.min_norm / 2
        assert weight_num(L, m) == w * grid, (gram, str(m))
        weights[m] = w
    ctx = _Context(L)
    for m1, w1 in weights.items():
        for m2, w2 in weights.items():
            gap = w1 - w2
            j = weight_gap_rule(ctx, m1, m2)
            assert (j is not None) == (gap == 0 or gap.denominator != 1), (gram, str(m1), str(m2))
            if j is not None:
                assert dict(j.detail) == {"gap": str(gap), "weights": f"{w1},{w2}"}

    radical = mod_two_data(L).radical_basis

    def pairing(u, v):
        return sum(u[i] * gram[i][j] * v[j] for i in range(d) for j in range(d))

    def index(values):
        return sum(1 << i for i, v in enumerate(values) if v == -1)

    for chi in central_characters(L):
        values = [-1 if chi >> i & 1 else 1 for i in range(len(radical))]
        primed = [v * (-1) ** (pairing(r, r) // 2) for r, v in zip(radical, values)]
        assert prime_character(L, chi) == index(primed), (gram, chi)
        for lam in minimal_coset_reps(L):
            shifted = [v * (-1) ** int(pairing(r, lam.rep)) for r, v in zip(radical, values)]
            assert shift_character(L, chi, lam) == index(shifted), (gram, chi, lam.rep)


@pytest.mark.parametrize("gram", TEST_GRAMS + LADDER_GRAMS)
def test_integer_label_data_on_fixed_grams(gram):
    check_integer_label_data(gram)


@GENERATED
@given(even_grams())
def test_integer_label_data_on_generated_grams(gram):
    check_integer_label_data(gram)


# ---------------------------------------------------------------------------
# modular data: the census against the Gauss sum, exactly in Z[zeta_N]
# ---------------------------------------------------------------------------

def poly_divmod(p, m):
    """(quotient, remainder) of p by the monic m, integer coefficients, constant term first."""
    p, k = list(p), len(m) - 1
    q = [0] * max(len(p) - k, 0)
    for i in range(len(p) - 1, k - 1, -1):
        c = q[i - k] = p[i]
        for j, x in enumerate(m):
            p[i - k + j] -= c * x
    return q, p[:k]


@lru_cache(maxsize=None)
def cyclotomic(n):
    """Phi_n in integers: x^n - 1 divided by Phi_d for every proper divisor d of n."""
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly, rest = poly_divmod(poly, cyclotomic(d))
            assert not any(rest)
    return tuple(poly)


def census_dimensions(L):
    """[(q^2, weight numerator over N)] per label: q = 1 for V+- and C+-, 2 for U,
    and q^2 = |L°/L| / 2^r2 for T+-."""
    squares = {LabelKind.VAC_PLUS: 1, LabelKind.VAC_MINUS: 1, LabelKind.COSET: 1,
               LabelKind.UNTWISTED: 4, LabelKind.TWISTED: L.det // 2 ** mod_two_data(L).r2}
    return [(squares[m.kind], weight_num(L, m)) for m in classify_modules(L)]


def modular_data_holds(L, census):
    """sum q^2 = 4 |L°/L| and (sum q^2 e(h))^2 = 4 |L°/L| i^d in Z[zeta_N], N the series grid.

    e(h) is zeta_N to the weight numerator; the sums are kept modulo x^N - 1
    and the difference is reduced modulo Phi_N.  T+ and T- differ by 1/2 in
    weight, so their terms cancel in pairs."""
    N, det = series_denominator(L), L.det
    gauss = [0] * N
    for q2, w in census:
        gauss[w % N] += q2
    square = [0] * N
    for a, x in enumerate(gauss):
        for b, y in enumerate(gauss):
            if x and y:
                square[(a + b) % N] += x * y
    square[L.rank * N // 4 % N] -= 4 * det
    return sum(q2 for q2, _ in census) == 4 * det and not any(poly_divmod(square, cyclotomic(N))[1])


@pytest.mark.parametrize("gram", TEST_GRAMS + LADDER_GRAMS + [E8])
def test_census_satisfies_the_modular_data(gram):
    L = lat(gram)
    census = census_dimensions(L)
    assert modular_data_holds(L, census)
    # one U weight moved by 1/N breaks the Gauss sum
    orbits = [i for i, m in enumerate(classify_modules(L)) if m.kind == LabelKind.UNTWISTED]
    if orbits:
        q2, w = census[orbits[0]]
        assert not modular_data_holds(L, census[:orbits[0]] + [(q2, w + 1)] + census[orbits[0] + 1:])


@GENERATED
@given(even_grams())
def test_census_satisfies_the_modular_data_on_generated_grams(gram):
    assert modular_data_holds(lat(gram), census_dimensions(lat(gram)))


# ---------------------------------------------------------------------------
# read_rational against Fraction(text), the parse it replaced
# ---------------------------------------------------------------------------

def fraction_rational(text):
    """read_rational as Fraction(text) behind the same pattern and messages."""
    if not re.fullmatch(r"[+-]?[0-9]+(/[0-9]+)?", text):
        raise ValueError(f"{text!r:.60} is not an integer or p/q")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"{text!r:.60} has a zero denominator")
    except ValueError:
        raise ValueError(f"{text!r:.60} has too many digits")


def rational_or_message(text):
    try:
        value = read_rational(text)
    except ValueError as e:
        return str(e)
    assert type(value) is Fraction
    return value


LIMIT = sys.get_int_max_str_digits() or 4300  # 0 would mean no limit
DIGITS = (st.text("0123456789", min_size=1, max_size=12)
          | st.builds(lambda zeros, digits: "0" * zeros + digits, st.integers(1, 6),
                      st.text("0123456789", min_size=1, max_size=6))
          | st.sampled_from(["0", "000", "1" * LIMIT, "1" * (LIMIT + 1), "0" * (LIMIT + 1)]))


@st.composite
def rational_texts(draw):
    """Every form the pattern accepts, a sign, leading zeros, unreduced and
    zero denominators, parts at and past the digit limit, and other text."""
    text = draw(st.sampled_from(["", "+", "-"])) + draw(DIGITS)
    if draw(st.booleans()):
        text += "/" + draw(DIGITS)
    suffix = draw(st.sampled_from(["e3", " ", ".5", "/"]))
    return draw(st.just(text) | st.just(text + suffix) | st.text(max_size=10))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(rational_texts())
@example("-007/014")                            # leading zeros, unreduced
@example("+6/4")
@example("-0/5")
@example("3/0")                                 # zero denominators
@example("-0/000")
@example("1" * (LIMIT + 1) + "/0")              # too many digits before a zero denominator
@example("-" + "1" * (LIMIT + 1))
@example("7/" + "2" * (LIMIT + 1))
@example("1" * LIMIT + "/" + "3" * LIMIT)       # at the limit
@example("1e5")
@example("1_000")                               # Fraction() takes underscores, the pattern does not
@example("\uff11")                             # a non-ASCII digit one
def test_read_rational_is_fraction_of_the_text(text):
    try:
        want = fraction_rational(text)
    except ValueError as e:
        want = str(e)
    assert rational_or_message(text) == want
