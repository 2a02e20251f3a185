import hashlib
from dataclasses import replace
from fractions import Fraction
from functools import reduce
from itertools import product
from math import prod
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (A2, A3, D22, D24, D224, LADDER_GRAMS, TEST_GRAMS, coset_neg, even_grams,
                      fraction_to_parent, fraction_to_sub, lat, lowest_weight, small_even_grams, truncate)
from vlplus.lattice import (
    CosetElement,
    NotOrthogonalBase,
    QuotientTooLarge,
    _gram_schmidt,
    coset_element,
    coset_reps_mod_sublattice,
    coset_two_torsion,
    enumerate_coset_with_norms,
    epsilon_cocycle,
    orthogonal_sublattice,
    sublattice,
    sublattice_orbit_count,
    validate_even_lattice,
    zero_coset,
)
from vlplus.branching import (
    BranchList,
    TwistedBlockPart,
    _character_halves,
    _root_unit,
    branch_orthogonal,
    branch_sublattice,
    label_row,
    parity_product,
    verify_branch,
)
from vlplus.qseries import QSeries, character, euler_product_inv, series_denominator
from vlplus.sectors import (
    LabelKind,
    ModuleLabel,
    VAC_MINUS,
    VAC_PLUS,
    central_characters,
    classify_modules,
    coset_labels,
    format_label,
    label_coset,
    label_sign,
    twisted_dimension,
    twisted_label,
)

F = Fraction


def part_character(bl: BranchList, p, order) -> QSeries:
    """Oracle: one part's character, the term that branch_character sums in bulk."""
    order = Fraction(order)
    if isinstance(p, tuple):
        return reduce(mul, (character(f, lab, order) for f, lab in zip(bl.factors, p)))
    if isinstance(p, TwistedBlockPart):
        chi0 = central_characters(bl.sublattice)[0]
        return character(bl.sublattice, twisted_label(chi0, p.sign), order).scaled(p.multiplicity)
    return character(bl.sublattice, p, order)


def branch_character(bl: BranchList, order) -> QSeries:
    """The character of the sum of bl's parts, (a + s b) / 2 over verify_branch's split."""
    a, b, s = _character_halves(bl, order)
    return (a + b.scaled(s)).halved()


def tensor_signs(part: tuple[ModuleLabel, ...]):
    out = []
    for lab in part:
        if lab.kind in (LabelKind.VAC_PLUS, LabelKind.UNTWISTED):
            out.append(1 if lab.kind == LabelKind.VAC_PLUS else 0)
        elif lab.kind == LabelKind.VAC_MINUS:
            out.append(-1)
        elif lab.kind in (LabelKind.COSET, LabelKind.TWISTED):
            out.append(lab.sign)
    return out


# ---------------------------------------------------------------------------
# orthogonal route
# ---------------------------------------------------------------------------

def test_orthogonal_requires_diagonal():
    with pytest.raises(NotOrthogonalBase):
        branch_orthogonal(lat(A2), VAC_PLUS)


def test_orthogonal_vacuum_parts_d22():
    L = lat(D22)
    plus = branch_orthogonal(L, VAC_PLUS)
    minus = branch_orthogonal(L, VAC_MINUS)
    assert set(plus.parts) == {
        (VAC_PLUS, VAC_PLUS),
        (VAC_MINUS, VAC_MINUS),
    }
    assert set(minus.parts) == {
        (VAC_PLUS, VAC_MINUS),
        (VAC_MINUS, VAC_PLUS),
    }


def test_orthogonal_orbit_parent_splits_trivial_factors():
    L = lat(D24)
    u = [
        m
        for m in classify_modules(L)
        if m.kind == LabelKind.UNTWISTED and m.coset.rep[0] == 0
    ][0]
    bl = branch_orthogonal(L, u)
    assert len(bl.parts) == 2
    kinds = {tuple(l.kind for l in p) for p in bl.parts}
    assert kinds == {
        (LabelKind.VAC_PLUS, LabelKind.UNTWISTED),
        (LabelKind.VAC_MINUS, LabelKind.UNTWISTED),
    }


def test_orthogonal_sign_vector_census():
    # the plus and minus parents together use every sign vector exactly once
    for gram in (D22, D24, D224):
        L = lat(gram)
        d = L.rank
        for pair in (
            (VAC_PLUS, VAC_MINUS),
            *[
                coset_labels(L, m.coset)
                for m in classify_modules(L)
                if m.kind == LabelKind.COSET and m.sign == 1
            ],
        ):
            seen = []
            for parent in pair:
                for p in branch_orthogonal(L, parent).parts:
                    seen.append(tuple(tensor_signs(p)))
            assert len(seen) == 2 ** d
            assert len(set(seen)) == 2 ** d


def test_orthogonal_twisted_characters_factor():
    L = lat(D224)
    tw = [m for m in classify_modules(L) if m.kind == LabelKind.TWISTED]
    for m in tw[:4]:
        bl = branch_orthogonal(L, m)
        for p in bl.parts:
            assert all(l.kind == LabelKind.TWISTED for l in p)
            bits = tuple(l.char for l in p)
            assert bits == tuple(m.char >> i & 1 for i in range(L.rank))


@pytest.mark.parametrize("gram,order", [(D22, F(15)), (D24, F(15))])
def test_orthogonal_branchings_verify_rank2(gram, order):
    L = lat(gram)
    for m in classify_modules(L):
        bl = branch_orthogonal(L, m)
        assert verify_branch(bl, order), str(m)


def test_orthogonal_branchings_verify_rank3():
    L = lat(D224)
    for m in classify_modules(L):
        bl = branch_orthogonal(L, m)
        assert verify_branch(bl, F(15)), str(m)


def test_orthogonal_branchings_verify_deeper_rank2():
    L = lat(D22)
    for m in classify_modules(L):
        assert verify_branch(branch_orthogonal(L, m), F(20)), str(m)


def test_corrupted_branch_fails_verification():
    L = lat(D22)
    bl = branch_orthogonal(L, VAC_PLUS)
    corrupted = BranchList(
        parent_lattice=bl.parent_lattice,
        parent=bl.parent,
        factors=bl.factors,
        choices=(bl.choices[0][:-1],) + bl.choices[1:],  # drop a label from one factor
    )
    assert not verify_branch(corrupted, F(10))
    # V+ and V- share their choices, so the wrong parent is a C label
    wrong = next(m for m in classify_modules(L) if m.kind == LabelKind.COSET and m.sign == 1)
    swapped = BranchList(
        parent_lattice=bl.parent_lattice,
        parent=wrong,
        factors=bl.factors,
        choices=bl.choices,
    )
    assert not verify_branch(swapped, F(10))
    sub = branch_sublattice(L, ((2, 0), (0, 2)), VAC_PLUS)
    assert verify_branch(sub, F(10))
    assert not verify_branch(replace(sub, parts=sub.parts[:-1]), F(10))  # drop a summand


# ---------------------------------------------------------------------------
# the character check on broken branchings
# ---------------------------------------------------------------------------

CHECK_ORDER = 3  # above every lowest weight of these rungs' labels (at most 13/16 + 1)
DIAGONAL_RUNGS = [g for g in TEST_GRAMS + LADDER_GRAMS if lat(g).is_diagonal()]
GRAM_SCHMIDT_RUNGS = [A3, LADDER_GRAMS[0], LADDER_GRAMS[1]]  # A3, A4, D4


def summed_check(bl: BranchList, order) -> bool:
    """Oracle: the parent's character against the sum of part_character over bl's parts."""
    expanded = QSeries.zero(series_denominator(bl.parent_lattice), order)
    for p in bl.parts:
        expanded = expanded + part_character(bl, p, order)
    return character(bl.parent_lattice, bl.parent, order) == expanded


def other_sign(lab):
    """lab's partner of the other sign where their characters differ (V+-, T+-), else None:
    the two signs of a C label share one character."""
    if lab.kind in (LabelKind.VAC_PLUS, LabelKind.VAC_MINUS):
        return VAC_MINUS if lab.kind == LabelKind.VAC_PLUS else VAC_PLUS
    if lab.kind == LabelKind.TWISTED:
        return twisted_label(lab.char, -lab.sign)
    return None


def broken_branchings(bl: BranchList) -> list[tuple[str, BranchList]]:
    """bl with one part dropped, duplicated or sign-flipped, where it has such a part.

    An orthogonal branching's parts follow from its choices, so it is broken in
    one factor's choice, at a label of its first part: the label dropped (from
    a factor offering two), offered twice, or replaced by its partner of the
    other sign.  A sublattice branching loses or repeats its lowest part (one
    below the order), flips the sign of a V+- part or of its twisted block, or
    adds one to the block's multiplicity."""
    broken = []
    if bl.choices is not None:
        first = bl.parts[0]

        def with_choice(i, old, new):
            choice = list(bl.choices[i])
            choice[choice.index(old):choice.index(old) + 1] = new
            return replace(bl, parts=(), choices=bl.choices[:i] + (tuple(choice),) + bl.choices[i + 1:])

        dropped = next((i for i, choice in enumerate(bl.choices) if len(choice) > 1), None)
        if dropped is not None:
            broken.append(("dropped", with_choice(dropped, first[dropped], [])))
        broken.append(("duplicated", with_choice(0, first[0], [first[0]] * 2)))
        flip = next((i for i, lab in enumerate(first) if other_sign(lab)), None)
        if flip is not None:
            broken.append(("sign-flipped", with_choice(flip, first[flip], [other_sign(first[flip])])))
        return broken
    if isinstance(bl.parts[0], TwistedBlockPart):
        block = bl.parts[0]
        return [("dropped", replace(bl, parts=())),
                ("duplicated", replace(bl, parts=(replace(block, multiplicity=block.multiplicity + 1),))),
                ("sign-flipped", replace(bl, parts=(replace(block, sign=-block.sign),)))]
    low = min(range(len(bl.parts)), key=lambda i: lowest_weight(bl.sublattice, bl.parts[i]))
    broken += [("dropped", replace(bl, parts=bl.parts[:low] + bl.parts[low + 1:])),
               ("duplicated", replace(bl, parts=bl.parts + bl.parts[low:low + 1]))]
    flip = next((i for i, p in enumerate(bl.parts) if other_sign(p)), None)
    if flip is not None:
        parts = bl.parts[:flip] + (other_sign(bl.parts[flip]),) + bl.parts[flip + 1:]
        broken.append(("sign-flipped", replace(bl, parts=parts)))
    return broken


@pytest.mark.parametrize("route, gram", [("orthogonal", g) for g in DIAGONAL_RUNGS]
                         + [("gram-schmidt", g) for g in GRAM_SCHMIDT_RUNGS])
def test_check_refuses_broken_branchings_as_the_summed_check_does(route, gram):
    # the orthogonal check is one pass over the factored form, and the
    # sublattice check one pass on two grids: each agrees with the summed
    # check on every label and every broken branching.  A dropped or repeated
    # part below the order always changes the character; a flipped sign need
    # not (V+ x V- and V- x V+ of D22 have one character), but on each rung
    # some flip does
    L = lat(gram)
    refused = set()
    for m in classify_modules(L):
        if route == "orthogonal":
            bl = branch_orthogonal(L, m)
        else:
            bl = branch_sublattice(L, _gram_schmidt(L).basis, m)
        assert verify_branch(bl, CHECK_ORDER) and summed_check(bl, CHECK_ORDER), format_label(m)
        for kind, broken in broken_branchings(bl):
            ok = verify_branch(broken, CHECK_ORDER)
            assert ok == summed_check(broken, CHECK_ORDER), (format_label(m), kind)
            assert not ok or kind == "sign-flipped", (format_label(m), kind)
            if not ok:
                refused.add(kind)
    assert refused == {"dropped", "duplicated", "sign-flipped"}


def test_every_route_is_checked_by_one_half_sum(monkeypatch):
    # a signed and an orbit parent over the orthogonal base, an untwisted and
    # a twisted parent over a sublattice: each check is one is_half_sum, with
    # no half taken and no two series compared (after a first call has built
    # the parent's character, which halves its own sum)
    a3, diag = lat(A3), lat([[2, 0, 0], [0, 4, 0], [0, 0, 6]])
    orbit = next(m for m in classify_modules(diag) if label_sign(m) is None)
    basis = _gram_schmidt(a3).basis
    rungs = [branch_orthogonal(diag, VAC_PLUS), branch_orthogonal(diag, orbit),
             branch_sublattice(a3, basis, VAC_PLUS), branch_sublattice(a3, basis, twisted_label(0, 1))]
    assert isinstance(rungs[-1].parts[0], TwistedBlockPart)
    calls = []

    def spy(name):
        method = getattr(QSeries, name)

        def counted(*args):
            calls.append(name)
            return method(*args)
        return counted

    for bl in rungs:
        assert verify_branch(bl, CHECK_ORDER), format_label(bl.parent)
    for name in ("is_half_sum", "halved", "__eq__"):
        monkeypatch.setattr(QSeries, name, spy(name))
    for bl in rungs:
        calls.clear()
        assert verify_branch(bl, CHECK_ORDER) and calls == ["is_half_sum"], (format_label(bl.parent), calls)


# ---------------------------------------------------------------------------
# sublattice route
# ---------------------------------------------------------------------------

def a2_sublattice():
    L = lat(A2)
    S = orthogonal_sublattice(L)
    assert S.index == 2
    return L, S.basis


def test_corrupted_sublattice_branch_fails_verification():
    # D24 over 2L at order 2: parts of weight 0 (V+), 1 (C[1/2,0]+), 2 and 3
    L = lat(D24)
    order = F(2)
    bl = branch_sublattice(L, ((2, 0), (0, 2)), VAC_PLUS)
    weights = [lowest_weight(bl.sublattice, p) for p in bl.parts]
    assert weights == [0, 1, 2, 3] and verify_branch(bl, order)
    below = bl.parts[1]
    assert not verify_branch(replace(bl, parts=bl.parts[:1] + bl.parts[2:]), order)
    assert not verify_branch(replace(bl, parts=bl.parts + (below,)), order)
    assert not verify_branch(replace(bl, parent=VAC_MINUS), order)
    # truncation: a part whose lowest weight reaches the order adds nothing below it,
    # so dropping it, or adding another, leaves the identity exact to that order
    assert verify_branch(replace(bl, parts=bl.parts[:-1]), order)
    assert verify_branch(replace(bl, parts=bl.parts + (bl.parts[2],)), order)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(even_grams())
def test_factored_sublattice_sum_equals_expanded_sum(gram):
    # the thetas summed under one Euler product, parts at or above the order
    # passed over, give the sum of the per-part characters
    L = lat(gram)
    d = L.rank
    order = F(1)
    doubled = tuple(tuple(2 * (i == j) for j in range(d)) for i in range(d))
    for basis in (orthogonal_sublattice(L).basis, doubled):
        for m in classify_modules(L):
            bl = branch_sublattice(L, basis, m)
            expanded = QSeries.zero(series_denominator(L), order)
            for p in bl.parts:
                expanded = expanded + part_character(bl, p, order)
            assert branch_character(bl, order) == expanded, (gram, basis, str(m))
    # over 2L every nonzero class of L / 2L has norm >= 2: weight at or above 1
    bl = branch_sublattice(L, doubled, VAC_PLUS)
    assert any(lowest_weight(bl.sublattice, p) >= order for p in bl.parts)


def test_sublattice_vacuum_parts_a2():
    L, basis = a2_sublattice()
    bl = branch_sublattice(L, basis, VAC_PLUS)
    assert len(bl.parts) == 2
    kinds = sorted(p.kind for p in bl.parts)
    assert kinds[0] in (LabelKind.VAC_PLUS,)
    assert kinds[1] == LabelKind.COSET
    assert verify_branch(bl, F(12))


def test_sublattice_vacuum_signs_complementary_a2():
    # the two parents pick opposite signs on the nonzero class
    L, basis = a2_sublattice()
    plus = branch_sublattice(L, basis, VAC_PLUS)
    minus = branch_sublattice(L, basis, VAC_MINUS)

    def coset_sign(bl):
        for p in bl.parts:
            if p.kind == LabelKind.COSET:
                return p.sign
        raise AssertionError

    assert coset_sign(plus) == -coset_sign(minus)
    zero_kinds = {
        p.kind for bl in (plus, minus) for p in bl.parts if p.kind != LabelKind.COSET
    }
    assert zero_kinds == {LabelKind.VAC_PLUS, LabelKind.VAC_MINUS}


def test_sublattice_orbit_parent_a2():
    L, basis = a2_sublattice()
    u = [m for m in classify_modules(L) if m.kind == LabelKind.UNTWISTED][0]
    bl = branch_sublattice(L, basis, u)
    assert len(bl.parts) == 2
    assert all(p.kind == LabelKind.UNTWISTED for p in bl.parts)
    assert verify_branch(bl, F(12))


def test_sublattice_twisted_placeholders_a2():
    L, basis = a2_sublattice()
    tw = [m for m in classify_modules(L) if m.kind == LabelKind.TWISTED]
    for m in tw:
        bl = branch_sublattice(L, basis, m)
        assert len(bl.parts) == 1
        p = bl.parts[0]
        assert isinstance(p, TwistedBlockPart)
        assert p.sign == m.sign and p.multiplicity == 2
        assert verify_branch(bl, F(12))


def test_all_a2_branchings_verify():
    L, basis = a2_sublattice()
    for m in classify_modules(L):
        assert verify_branch(branch_sublattice(L, basis, m), F(12)), str(m)


def test_all_d24_branchings_verify_over_doubled_sublattice():
    L = lat(D24)
    doubled = ((2, 0), (0, 2))
    for m in classify_modules(L):
        bl = branch_sublattice(L, doubled, m)
        assert verify_branch(bl, F(12)), str(m)


def test_sublattice_rejects_degenerate_basis():
    from vlplus.lattice import NotFullRank

    L = lat(D24)
    with pytest.raises(NotFullRank):
        branch_sublattice(L, ((1, 0), (2, 0)), VAC_PLUS)
    with pytest.raises(NotFullRank):
        branch_sublattice(L, ((1, 0),), VAC_PLUS)


def test_sublattice_trivial_branching_is_identity():
    L = lat(D24)
    full = ((1, 0), (0, 1))
    for m in classify_modules(L):
        bl = branch_sublattice(L, full, m)
        if m.kind == LabelKind.TWISTED:
            assert bl.parts == (TwistedBlockPart(sign=m.sign, multiplicity=1),)
        else:
            assert bl.parts == (m,)


def test_sublattice_part_census_matches_quotient():
    # paired classes counted once: parts biject with the class census
    L, basis = a2_sublattice()
    from vlplus.lattice import coset_reps_mod_sublattice

    n_classes = len(coset_reps_mod_sublattice(L, basis))
    for m in classify_modules(L):
        if m.kind == LabelKind.TWISTED:
            continue
        bl = branch_sublattice(L, basis, m)
        total = 0
        for p in bl.parts:
            if p.kind in (LabelKind.UNTWISTED,):
                is_orbit_pair = (
                    m.kind != LabelKind.UNTWISTED
                )  # orbit parents list every class singly
                total += 2 if is_orbit_pair else 1
            else:
                total += 1
        assert total == n_classes


@st.composite
def sublattice_bases(draw):
    """(L, B): a generated lattice and a full-rank basis B of a sublattice,
    orthogonal, doubled, or T U with T lower triangular (diagonal 1..3)
    and U upper unitriangular, so |det B| <= 27."""
    L = lat(draw(even_grams()))
    d = L.rank
    kind = draw(st.sampled_from(("orthogonal", "doubled", "random")))
    if kind == "orthogonal":
        return L, orthogonal_sublattice(L).basis
    if kind == "doubled":
        return L, tuple(tuple(2 * (i == j) for j in range(d)) for i in range(d))
    small = st.integers(-2, 2)
    t = [[draw(st.integers(1, 3)) if i == j else draw(small) if j < i else 0
          for j in range(d)] for i in range(d)]
    u = [[1 if i == j else draw(small) if j > i else 0 for j in range(d)] for i in range(d)]
    return L, tuple(tuple(sum(t[i][k] * u[k][j] for k in range(d)) for j in range(d))
                    for i in range(d))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(sublattice_bases())
def test_sublattice_part_count_and_constituent_classes(case):
    # the closed-form orbit count is the branching's length (one block for a
    # twisted parent), and every untwisted constituent lifts to +- the
    # parent's coset mod L
    L, basis = case
    S = sublattice(L, basis)
    zero = (0,) * L.rank
    for m in classify_modules(L):
        bl = branch_sublattice(L, basis, m)
        if m.kind == LabelKind.TWISTED:
            assert len(bl.parts) == 1, str(m)
            continue
        assert sublattice_orbit_count(S, label_coset(L, m)) == len(bl.parts), str(m)
        lam = zero if m.coset is None else m.coset.rep
        for p in bl.parts:
            mu = zero if p.coset is None else fraction_to_parent(basis, p.coset.rep)
            assert any(all((x - s * y).denominator == 1 for x, y in zip(mu, lam))
                       for s in (1, -1)), (str(m), str(p))


def residue(v, sign=1):
    """sign * v modulo integer vectors: equal for two vectors iff they lie in one coset of Z^d."""
    return tuple((sign * x.numerator % x.denominator, x.denominator) for x in v)


def oracle_branch_sublattice(L, basis, m, root_branch=1):
    """Oracle: (parts, notes) from the Fraction path.

    Lifts every class rep of L/L' by lambda, takes it to sublattice
    coordinates with fraction_to_sub and canonicalizes it and its negation with a
    walk each, skipping a class whose negation was met; it shares no class
    walk with sublattice_classes."""
    S = sublattice(L, basis)
    sub = S.lattice
    if m.kind == LabelKind.TWISTED:
        mult = twisted_dimension(L) // twisted_dimension(sub)
        return [TwistedBlockPart(sign=m.sign, multiplicity=mult)], []
    sign, lam = label_sign(m), label_coset(L, m)
    two_lam = tuple(int(2 * x) for x in lam.rep)
    parts, notes, seen = [], [], set()
    for g in coset_reps_mod_sublattice(L, S.basis):
        x = fraction_to_sub(basis, tuple(a + b for a, b in zip(g, lam.rep)))
        if residue(x, -1) in seen:
            continue
        c = coset_element(sub, x)
        if not coset_two_torsion(sub, c):
            seen.add(residue(x))
            rep = min(c, coset_neg(sub, c), key=CosetElement.sort_key)
            parts.append(ModuleLabel(LabelKind.UNTWISTED, coset=rep))
            continue
        zero = not any(two_lam)
        unit_g = _root_unit(epsilon_cocycle(L, two_lam, two_lam), root_branch, zero)
        if not zero:
            x_vec = tuple(int(a - b) for a, b in zip(fraction_to_parent(basis, c.rep), lam.rep))
            if epsilon_cocycle(L, x_vec, two_lam) == -1:
                unit_g = (unit_g + 2) % 4
        two_mu = tuple(int(2 * x) for x in c.rep)
        ratio = (unit_g - _root_unit(epsilon_cocycle(sub, two_mu, two_mu), root_branch,
                                     not any(two_mu))) % 4
        if ratio % 2:
            notes.append(f"imaginary involution ratio on class [{','.join(map(str, c.rep))}]; reported +")
        sigma = sign if ratio % 2 or ratio == 0 else -sign
        parts.append(coset_labels(sub, c)[sigma == -1])
    return parts, notes


def parts_multiset(parts):
    return sorted(map(repr, parts))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(even_grams(), st.sampled_from((1, -1)))
def test_sublattice_branching_matches_fraction_oracle(gram, root_branch):
    # the integer class walk gives the parts and notes of the Fraction path,
    # over the orthogonal sublattice and the doubled basis, in the sort_key order
    L = lat(gram)
    d = L.rank
    for basis in (orthogonal_sublattice(L).basis,
                  tuple(tuple(2 * (i == j) for j in range(d)) for i in range(d))):
        for m in classify_modules(L):
            bl = branch_sublattice(L, basis, m, root_branch)
            parts, notes = oracle_branch_sublattice(L, basis, m, root_branch)
            assert parts_multiset(bl.parts) == parts_multiset(parts), (gram, str(m))
            assert set(bl.notes) == set(notes) and len(bl.notes) == len(notes), (gram, str(m))
            if m.kind != LabelKind.TWISTED:
                reps = [p.coset or zero_coset(bl.sublattice) for p in bl.parts]
                assert reps == sorted(reps, key=CosetElement.sort_key)


CONVENTION_DIGEST = "ff7d422d30b1508b52c2cdf31f75691d4cb66cdf275b72a93f9a81507bdab047"


def test_sublattice_branchings_are_pinned_under_every_convention():
    # one sha256 over (gram, label, basis, cocycle mode, root branch, parts,
    # notes) for every label of TEST_GRAMS and the ladder rungs, over the
    # Gram-Schmidt and the doubled bases.  The pin was taken when a cocycle
    # mode ("upper" or "lower" triangle) was an input; each entry is now
    # computed from the root branch alone, so the pin holding shows that no
    # output depended on the mode
    conventions = [(mode, branch) for mode in ("upper", "lower") for branch in (1, -1)]
    digest = hashlib.sha256()
    count = 0
    for gram in TEST_GRAMS + LADDER_GRAMS:
        L = lat(gram)
        doubled = tuple(tuple(2 * (i == j) for j in range(L.rank)) for i in range(L.rank))
        for basis in (_gram_schmidt(L).basis, doubled):
            for m in classify_modules(L):
                for mode, branch in conventions:
                    bl = branch_sublattice(L, basis, m, branch)
                    digest.update(repr((gram, format_label(m), basis, mode, branch,
                                        list(map(str, bl.parts)), bl.notes)).encode())
                    count += 1
    assert count == 3112
    assert digest.hexdigest() == CONVENTION_DIGEST


@pytest.mark.parametrize("gram", [A3, LADDER_GRAMS[1]], ids=["A3", "D4"])
def test_labels_on_one_coset_share_one_class_table(monkeypatch, gram):
    # V+ and V-, and the two signs of a C label, sit on one coset: after the
    # first label the second walks no class of its own, and its parts and
    # notes are those it gets with the class caches cleared before it
    from vlplus import branching, lattice

    calls = []
    original = lattice._coset_shell
    monkeypatch.setattr(lattice, "_coset_shell", lambda *args: calls.append(args) or original(*args))

    def cleared():
        lattice.sublattice_classes.cache_clear()
        branching._class_table.cache_clear()

    L = lat(gram)
    basis = _gram_schmidt(L).basis
    pairs = [(VAC_PLUS, VAC_MINUS)] + [(m, replace(m, sign=-1)) for m in classify_modules(L)
                                       if m.kind == LabelKind.COSET and m.sign == 1]
    assert len(pairs) > 1
    for first, second in pairs:
        cleared()
        calls.clear()
        branch_sublattice(L, basis, first)
        alone = len(calls)
        shared = branch_sublattice(L, basis, second)
        assert alone > 0 and len(calls) == alone, (gram, str(first))
        cleared()
        fresh = branch_sublattice(L, basis, second)
        assert (shared.parts, shared.notes) == (fresh.parts, fresh.notes), (gram, str(second))


def test_twisted_parent_is_not_refused_over_a_large_index():
    # a twisted parent branches from dimensions alone, with no class walk
    L = lat(D22)
    big = QuotientTooLarge.limit + 1
    for m in classify_modules(L):
        if m.kind == LabelKind.TWISTED:
            bl = branch_sublattice(L, ((big, 0), (0, 1)), m)
            assert bl.parts == (TwistedBlockPart(sign=m.sign, multiplicity=1),)
        else:
            with pytest.raises(QuotientTooLarge):
                branch_sublattice(L, ((big, 0), (0, 1)), m)


@st.composite
def diagonal_grams(draw):
    """Diagonal even Grams of rank 1 to 4, entries 2, 4 or 6."""
    d = draw(st.integers(1, 4))
    norms = [draw(st.sampled_from((2, 4, 6))) for _ in range(d)]
    return [[norms[i] * (i == j) for j in range(d)] for i in range(d)]


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(diagonal_grams())
def test_factored_orthogonal_sum_equals_expanded_sum(gram):
    # the factored character that verify_branch reads is the sum over parts
    L = lat(gram)
    order = F(3)
    for m in classify_modules(L):
        bl = branch_orthogonal(L, m)
        expanded = QSeries.zero(series_denominator(L), order)
        for p in bl.parts:
            expanded = expanded + part_character(bl, p, order)
        assert branch_character(bl, order) == expanded, (gram, str(m))


def test_orthogonal_parts_are_derived_from_choices():
    L = lat(D224)
    bl = branch_orthogonal(L, VAC_PLUS)
    assert len(bl.choices) == 3 and len(bl.parts) == 4
    with pytest.raises(ValueError):
        BranchList(parent_lattice=L, parent=VAC_PLUS, parts=bl.parts, factors=bl.factors,
                   choices=bl.choices)


def per_combination_parts(bl: BranchList):
    """Oracle: the combinations of bl's choices whose label signs multiply to
    the parent's, each combination's signs read and multiplied on its own."""
    sign = label_sign(bl.parent)
    return tuple(combo for combo in product(*bl.choices)
                 if sign is None or prod(map(label_sign, combo)) == sign)


@pytest.mark.parametrize("gram", [g for g in TEST_GRAMS + LADDER_GRAMS if lat(g).is_diagonal()])
def test_orthogonal_parts_are_the_per_combination_sign_filter(gram):
    L = lat(gram)
    for m in classify_modules(L):
        bl = branch_orthogonal(L, m)
        assert bl.parts == per_combination_parts(bl), (gram, format_label(m))
        if label_sign(m) is not None and len(bl.choices) > 1:
            assert len(bl.parts) < prod(map(len, bl.choices)), (gram, format_label(m))


# ---------------------------------------------------------------------------
# label rows
# ---------------------------------------------------------------------------

def assert_rows_are_the_branchings(gram):
    """Every label's row over the orthogonal sublattice counts the parts of
    the branching it stands for."""
    L = lat(gram)
    S = orthogonal_sublattice(L)
    for m in classify_modules(L):
        row = label_row(S, m)
        if S.index == 1:
            assert row.parts == len(parity_product(row.key, row.parity)), (gram, str(m))
        else:
            assert row.parts == len(branch_sublattice(L, S.basis, m).parts), (gram, str(m))


@pytest.mark.parametrize("gram", TEST_GRAMS + LADDER_GRAMS)
def test_label_rows_are_the_branchings_they_stand_for(gram):
    assert_rows_are_the_branchings(gram)


def test_label_rows_are_the_branchings_on_the_benchmark_family():
    for gram in small_even_grams():
        assert_rows_are_the_branchings(gram)


def test_label_row_takes_no_census(monkeypatch):
    # one row is read off the sublattice and the label alone
    import sys

    def refused(L):
        raise AssertionError("census taken")

    for name, module in list(sys.modules.items()):
        if name.startswith("vlplus") and hasattr(module, "classify_modules"):
            monkeypatch.setattr(module, "classify_modules", refused)
    L = lat([[2, 1], [1, 2000000]])
    S = orthogonal_sublattice(L)
    assert S.index == 2
    tw = twisted_label(0, 1)
    assert [label_row(S, m) for m in (VAC_MINUS, VAC_PLUS, tw)] == [
        (VAC_MINUS, zero_coset(L), None, 2), (VAC_PLUS, zero_coset(L), None, 2), (tw, None, None, 1)]


def test_branch_list_refuses_shapes_that_no_route_makes():
    # choices need one factor each; without choices a branching is over a
    # sublattice, and its parts are untwisted labels or one twisted block
    L = lat(D22)
    tw = next(m for m in classify_modules(L) if m.kind == LabelKind.TWISTED)
    block = TwistedBlockPart(sign=1, multiplicity=1)
    tensor = branch_orthogonal(L, VAC_PLUS)
    for factors in (None, tensor.factors[:1]):
        with pytest.raises(ValueError, match="one factor per choice"):
            BranchList(parent_lattice=L, parent=VAC_PLUS, factors=factors, choices=tensor.choices)
    with pytest.raises(ValueError, match="needs a sublattice"):
        BranchList(parent_lattice=L, parent=VAC_PLUS, parts=tensor.parts, factors=tensor.factors)
    for parts in (tensor.parts, (VAC_PLUS, block), (block, block), (tw,)):
        with pytest.raises(ValueError, match="untwisted labels or one twisted block"):
            BranchList(parent_lattice=L, parent=VAC_PLUS, parts=parts, sublattice=L)
    for parts in ((VAC_PLUS,), (block,), ()):
        BranchList(parent_lattice=L, parent=VAC_PLUS, parts=parts, sublattice=L)


def test_two_stage_consistency_character_level():
    # sublattice then orthogonal equals direct orthogonal, at character level
    L = lat(D24)
    doubled = ((2, 0), (0, 2))
    sub_basis = doubled
    order = F(10)
    for m in classify_modules(L)[:6]:
        bl1 = branch_sublattice(L, sub_basis, m)
        direct = character(L, m, order)
        staged = None
        for p in bl1.parts:
            if isinstance(p, ModuleLabel):
                bl2 = branch_orthogonal(bl1.sublattice, p)
                assert verify_branch(bl2, order)
            contrib = part_character(bl1, p, order)
            staged = contrib if staged is None else staged + contrib
        assert staged == direct


def test_part_weights_dominate_parent():
    L, basis = a2_sublattice()
    for m in classify_modules(L):
        if m.kind == LabelKind.TWISTED:
            continue
        bl = branch_sublattice(L, basis, m)
        parent_w = lowest_weight(L, m)
        part_ws = [lowest_weight(bl.sublattice, p) for p in bl.parts]
        assert all(w >= parent_w for w in part_ws)
        assert parent_w in part_ws


def test_sign_metadata_flips_with_root_branch_but_verification_stands():
    L, basis = a2_sublattice()
    a = branch_sublattice(L, basis, VAC_PLUS, root_branch=1)
    b = branch_sublattice(L, basis, VAC_PLUS, root_branch=-1)

    def signs(bl):
        return [p.sign for p in bl.parts if p.kind == LabelKind.COSET]

    assert signs(a) == [-s for s in signs(b)]
    assert verify_branch(a, F(8)) and verify_branch(b, F(8))


# ---------------------------------------------------------------------------
# rank-one free-field assembly
# ---------------------------------------------------------------------------

def rank1_m1_branch(k: int, m, order) -> QSeries:
    """Character assembled from the rank-one free-field module list.

    Vacuum signs: invariant/anti-invariant free-field pieces plus one
    full momentum module per positive multiple of the generator; coset
    labels: half of the coset momenta; twisted labels: the half-integer
    modes.  Must reproduce the direct character.
    """
    order = Fraction(order)
    L = validate_even_lattice([[2 * k]])
    denom = series_denominator(L)
    phi_inv = euler_product_inv(1, order, denom)
    if m.kind in (LabelKind.VAC_PLUS, LabelKind.VAC_MINUS):
        psi_inv = euler_product_inv(1, order, denom, alternating=True)
        sign = 1 if m.kind == LabelKind.VAC_PLUS else -1
        total = (phi_inv + psi_inv.scaled(sign)).halved()
        mm = 1
        while Fraction(k) * mm * mm < order:
            total = total + truncate(phi_inv.shifted(Fraction(k) * mm * mm), order)
            mm += 1
        return total
    if m.kind == LabelKind.UNTWISTED:
        total = QSeries.zero(denom, order)
        for _, n in enumerate_coset_with_norms(L, m.coset.rep, 2 * order):
            e = Fraction(n) / 2
            if e < order:
                total = total + truncate(phi_inv.shifted(e), order)
        return total
    if m.kind == LabelKind.COSET:
        total = QSeries.zero(denom, order)
        mm = 0
        while True:
            e = Fraction(k) * (Fraction(1, 2) + mm) ** 2
            if e >= order:
                break
            total = total + truncate(phi_inv.shifted(e), order)
            mm += 1
        return total
    inner = order - Fraction(1, 16)
    if inner <= 0:
        return QSeries.zero(denom, order)
    h_minus = euler_product_inv(1, inner, denom, half_integer=True)
    h_plus = euler_product_inv(1, inner, denom, alternating=True, half_integer=True)
    sign = 1 if m.sign == 1 else -1
    return (h_minus + h_plus.scaled(sign)).halved().shifted(Fraction(1, 16))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_rank1_free_field_assembly_matches_characters(k):
    L = lat([[2 * k]])
    for m in classify_modules(L):
        assembled = rank1_m1_branch(k, m, F(10))
        direct = character(L, m, F(10))
        assert assembled == direct, str(m)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(even_grams())
def test_verify_branch_holds_on_generated_grams(gram):
    # both routes on every label: the orthogonal sublattice for every draw,
    # the orthogonal base where the Gram is diagonal
    L = lat(gram)
    basis = orthogonal_sublattice(L).basis
    for m in classify_modules(L):
        assert verify_branch(branch_sublattice(L, basis, m), F(4)), (gram, str(m))
        if L.is_diagonal():
            assert verify_branch(branch_orthogonal(L, m), F(4)), (gram, str(m))
