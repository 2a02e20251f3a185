import random
from fractions import Fraction
from itertools import permutations, product

import pytest
from hypothesis import given, settings

from conftest import A1, A2, D22, D24, even_grams, lat
from vlplus.lattice import coset_element, minimal_coset_reps
from vlplus.fusion import (
    ONE,
    ZERO,
    SignOracle,
    UnsupportedFirstArgument,
    UnsupportedRow,
    admissible_triple,
    fusion_dim,
    rank1_fusion,
    tensor_fusion,
    unknown,
)
from vlplus.sectors import (
    LabelKind,
    VAC_MINUS,
    VAC_PLUS,
    classify_modules,
    label_coset,
    shift_character,
)

F = Fraction

DET12_GRAMS = [
    [[2]],
    [[4]],
    [[6]],
    [[8]],
    [[10]],
    [[12]],
    [[2, 0], [0, 2]],
    [[2, 0], [0, 4]],
    [[2, 1], [1, 2]],
    [[2, 0], [0, 6]],
    [[2, 0, 0], [0, 2, 0], [0, 0, 2]],
]


def brute_admissible(gram, lam, mu, nu) -> bool:
    for p, q, r in product((1, -1), repeat=3):
        vec = [p * a + q * b + r * c for a, b, c in zip(lam, mu, nu)]
        if all(Fraction(x).denominator == 1 for x in vec):
            return True
    return False


def test_admissible_matches_brute_force_everywhere():
    for gram in DET12_GRAMS:
        L = lat(gram)
        reps = minimal_coset_reps(L)
        for a, b, c in product(reps, repeat=3):
            assert admissible_triple(L, a, b, c) == brute_admissible(
                gram, a.rep, b.rep, c.rep
            ), (gram, a.rep, b.rep, c.rep)


def test_admissible_examples():
    L = lat(A2)
    reps = minimal_coset_reps(L)
    zero, lam1 = reps[0], reps[1]
    assert admissible_triple(L, lam1, lam1, lam1)  # 3*lam lands in the lattice
    assert not admissible_triple(L, lam1, zero, zero)
    assert admissible_triple(L, zero, zero, zero)


def test_admissible_invariances():
    rng = random.Random(31)
    for gram in (A2, D24):
        L = lat(gram)
        reps = minimal_coset_reps(L)
        for _ in range(30):
            triple = [rng.choice(reps) for _ in range(3)]
            base = admissible_triple(L, *triple)
            for perm in permutations(triple):
                assert admissible_triple(L, *perm) == base
            for i in range(3):
                flipped = list(triple)
                flipped[i] = coset_element(L, tuple(-x for x in flipped[i].rep))
                assert admissible_triple(L, *flipped) == base


# ---------------------------------------------------------------------------
# rank-one table
# ---------------------------------------------------------------------------

def rank1_expected_nonzero(k):
    """Transcription of the complete rank-one vacuum rows."""
    L = lat([[2 * k]])
    labels = classify_modules(L)
    by_kind = {}
    for m in labels:
        by_kind.setdefault(m.kind, []).append(m)
    vac_plus_row = {(m, m) for m in labels}
    minus_pairs = set()
    minus_pairs.add((VAC_PLUS, VAC_MINUS))
    minus_pairs.add((VAC_MINUS, VAC_PLUS))
    for c_plus in by_kind.get(LabelKind.COSET, []):
        for c_other in by_kind.get(LabelKind.COSET, []):
            if c_plus.coset == c_other.coset and c_plus.sign != c_other.sign:
                minus_pairs.add((c_plus, c_other))
    for t_a in by_kind.get(LabelKind.TWISTED, []):
        for t_b in by_kind.get(LabelKind.TWISTED, []):
            if t_a.char == t_b.char and t_a.sign != t_b.sign:
                minus_pairs.add((t_a, t_b))
    for u in by_kind.get(LabelKind.UNTWISTED, []):
        minus_pairs.add((u, u))
    return L, labels, vac_plus_row, minus_pairs


@pytest.mark.parametrize("k", [1, 2, 3])
def test_rank1_table_is_the_transcribed_involution_list(k):
    L, labels, plus_row, minus_pairs = rank1_expected_nonzero(k)
    for w2 in labels:
        for w3 in labels:
            got_plus = rank1_fusion(k, VAC_PLUS, w2, w3)
            assert got_plus == (ONE if (w2, w3) in plus_row else ZERO)
            got_minus = rank1_fusion(k, VAC_MINUS, w2, w3)
            assert got_minus == (ONE if (w2, w3) in minus_pairs else ZERO)
            assert got_plus.value != "unknown" and got_minus.value != "unknown"


def test_rank1_specific_entries():
    L1 = lat([[2]])
    half = coset_element(L1, (F(1, 2),))
    assert rank1_fusion(1, VAC_MINUS, VAC_PLUS, VAC_MINUS) == ONE
    assert rank1_fusion(1, VAC_MINUS, VAC_PLUS, VAC_PLUS) == ZERO
    L2 = lat([[4]])
    u = [m for m in classify_modules(L2) if m.kind == LabelKind.UNTWISTED][0]
    assert rank1_fusion(2, VAC_PLUS, u, u) == ONE


def test_rank1_rejects_nonvacuum_rows():
    L = lat([[2]])
    half = coset_element(L, (F(1, 2),))
    from vlplus.sectors import coset_labels

    with pytest.raises(UnsupportedRow):
        rank1_fusion(1, coset_labels(L, half)[0], VAC_PLUS, VAC_PLUS)


# ---------------------------------------------------------------------------
# general fusion with untwisted first slot
# ---------------------------------------------------------------------------

def labels_by_kind(L):
    out = {}
    for m in classify_modules(L):
        out.setdefault(m.kind, []).append(m)
    return out


def test_fusion_unit_law():
    for gram in (A1, A2, D24):
        L = lat(gram)
        labels = classify_modules(L)
        for m2 in labels:
            for m3 in labels:
                expected = ONE if m2 == m3 else ZERO
                assert fusion_dim(L, VAC_PLUS, m2, m3) == expected


def test_fusion_rejects_twisted_first_argument():
    L = lat(A1)
    t = labels_by_kind(L)[LabelKind.TWISTED][0]
    with pytest.raises(UnsupportedFirstArgument):
        fusion_dim(L, t, VAC_PLUS, VAC_PLUS)


def test_fusion_single_twisted_is_zero():
    for gram in (A1, A2):
        L = lat(gram)
        kinds = labels_by_kind(L)
        untw_first = [VAC_PLUS, VAC_MINUS] + kinds.get(LabelKind.UNTWISTED, []) + kinds.get(
            LabelKind.COSET, []
        )
        others = [m for ms in kinds.values() for m in ms]
        for m1 in untw_first:
            if m1 == VAC_PLUS:
                continue
            for m2 in others:
                for m3 in others:
                    if (m2.kind == LabelKind.TWISTED) != (m3.kind == LabelKind.TWISTED):
                        ans = fusion_dim(L, m1, m2, m3)
                        assert ans == ZERO


def test_fusion_untwisted_triple_gate():
    L = lat(A2)
    kinds = labels_by_kind(L)
    u = kinds[LabelKind.UNTWISTED][0]
    # (lam, lam, lam) is admissible for the order-3 group
    assert fusion_dim(L, u, u, u) == ONE
    # (lam, 0, 0) is not admissible
    assert fusion_dim(L, u, VAC_PLUS, VAC_PLUS) == ZERO
    assert fusion_dim(L, u, VAC_MINUS, VAC_PLUS) == ZERO


def test_fusion_untwisted_rows_examples():
    L = lat(D24)
    kinds = labels_by_kind(L)
    u1, u2 = kinds[LabelKind.UNTWISTED][:2]
    # fully untwisted triples follow admissibility exactly
    for m2 in kinds[LabelKind.UNTWISTED]:
        for m3 in kinds[LabelKind.UNTWISTED]:
            expected = (
                ONE
                if admissible_triple(L, u1.coset, m2.coset, m3.coset)
                else ZERO
            )
            assert fusion_dim(L, u1, m2, m3) == expected
    # mixed orbit/self-paired with orbit first slot: admissibility decides
    for m2 in kinds[LabelKind.COSET]:
        for m3 in kinds[LabelKind.UNTWISTED]:
            expected = (
                ONE
                if admissible_triple(L, u1.coset, m2.coset, m3.coset)
                else ZERO
            )
            assert fusion_dim(L, u1, m2, m3) == expected
            assert fusion_dim(L, u1, m3, m2) == expected


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(even_grams())
def test_self_paired_first_slot_never_mixes_orbit_and_self_paired(gram):
    """lam + mu + nu in L with 2 lam in L gives 2 mu in L iff 2 nu in L, so
    an admissible triple with a self-paired first slot has m2 and m3 both
    orbit labels or neither (the fusion row that reads only m2)."""
    L = lat(gram)
    untwisted = [m for m in classify_modules(L) if m.kind != LabelKind.TWISTED]
    for m1 in untwisted:
        if m1.kind == LabelKind.UNTWISTED:
            continue
        for m2, m3 in product(untwisted, repeat=2):
            if admissible_triple(L, label_coset(L, m1), label_coset(L, m2), label_coset(L, m3)):
                assert (m2.kind == LabelKind.UNTWISTED) == (m3.kind == LabelKind.UNTWISTED), (
                    gram, m1, m2, m3)


def test_fusion_vacuum_second_slot_requires_orbit_match():
    L = lat(D24)
    kinds = labels_by_kind(L)
    for u in kinds[LabelKind.UNTWISTED]:
        for v in kinds[LabelKind.UNTWISTED]:
            got = fusion_dim(L, u, VAC_PLUS, v)
            assert got == (ONE if u == v else ZERO)


def test_fusion_twisted_pairs_shift_gate():
    for gram in (A1, D24):
        L = lat(gram)
        kinds = labels_by_kind(L)
        tw = kinds[LabelKind.TWISTED]
        for m1 in kinds.get(LabelKind.UNTWISTED, []):
            lam = m1.coset
            for t2 in tw:
                for t3 in tw:
                    got = fusion_dim(L, m1, t2, t3)
                    if t3.char == shift_character(L, t2.char, lam):
                        assert got == ONE
                    else:
                        assert got == ZERO


def test_fusion_twisted_pair_with_coset_first_slot_needs_oracle():
    L = lat(A1)
    kinds = labels_by_kind(L)
    c_plus = [m for m in kinds[LabelKind.COSET] if m.sign == 1][0]
    t_plus = [m for m in kinds[LabelKind.TWISTED] if m.sign == 1][0]
    lam = c_plus.coset
    shifted_char = shift_character(L, t_plus.char, lam)
    target = [m for m in kinds[LabelKind.TWISTED] if m.char == shifted_char and m.sign == 1][0]
    ans = fusion_dim(L, c_plus, t_plus, target)
    assert ans.value == "unknown"
    # supplying the oracle decides the sign both ways
    yes = fusion_dim(L, c_plus, t_plus, target, SignOracle(c=lambda chi, l: 1))
    no = fusion_dim(L, c_plus, t_plus, target, SignOracle(c=lambda chi, l: -1))
    assert yes == ONE and no == ZERO


def test_fusion_coset_pairs_need_pi_oracle():
    L = lat(D22)
    kinds = labels_by_kind(L)
    c = kinds[LabelKind.COSET]
    m1 = c[0]
    same = [m for m in c if m.coset == m1.coset]
    plus = [m for m in same if m.sign == 1][0]
    minus = [m for m in same if m.sign == -1][0]
    # admissible triple (lam, lam, 0): sign refinement is oracle territory
    ans = fusion_dim(L, plus, plus, VAC_PLUS)
    assert ans.value == "unknown"
    decided = fusion_dim(L, plus, plus, VAC_PLUS, SignOracle(pi=lambda l, m: 1))
    assert decided == ONE
    flipped = fusion_dim(L, plus, minus, VAC_PLUS, SignOracle(pi=lambda l, m: 1))
    assert flipped == ZERO


def test_oracle_only_refines_unknown():
    # decided answers are stable under any oracle
    oracle = SignOracle(pi=lambda l, m: -1, c=lambda chi, l: -1)
    for gram in (A1, A2, D24):
        L = lat(gram)
        labels = classify_modules(L)
        untw_first = [m for m in labels if m.kind != LabelKind.TWISTED]
        for m1 in untw_first:
            for m2 in labels:
                for m3 in labels:
                    bare = fusion_dim(L, m1, m2, m3)
                    if bare.value != "unknown":
                        assert fusion_dim(L, m1, m2, m3, oracle) == bare


def test_tensor_fusion_combinators():
    u = unknown("x")
    assert tensor_fusion([ONE, ONE]) == ONE
    assert tensor_fusion([ONE, ZERO, ONE]) == ZERO
    assert tensor_fusion([ONE, u]).value == "unknown"
    assert tensor_fusion([ZERO, u]) == ZERO
    assert tensor_fusion([]) == ONE
