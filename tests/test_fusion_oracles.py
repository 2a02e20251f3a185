"""Brute-force oracles for the two FusionObstruction routes.

The rule decides both routes by comparing the two labels' keys and
parities from a per-label table: rank-one choices and signs on the
orthogonal route, cosets with part counts from a Smith form on the
sublattice route.  The oracles here expand
every branching into its list of parts and test every (V+, m2, m1)
triple directly, with rank1_fusion and tensor_fusion, or
admissible_triple.  The rule's justification must match the oracle's on
every ordered pair, counts included.
"""

from functools import lru_cache
from math import prod

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import fraction_to_sub, lat
from vlplus.branching import (
    TwistedBlockPart,
    branch_orthogonal,
    branch_sublattice,
)
from vlplus.certify import (
    _Context,
    fusion_obstruction_rule,
    vacuum_rule,
    weight_gap_rule,
)
from vlplus.fusion import ZERO, admissible_triple, rank1_fusion, tensor_fusion
from vlplus.lattice import coset_element, zero_coset
from vlplus.sectors import (
    LabelKind,
    ModuleLabel,
    VAC_PLUS,
    character_values,
    coset_labels,
    twisted_label,
)


@lru_cache(maxsize=4096)
def orthogonal_parts(ctx, m):
    """Expanded tensor parts; on a rebase, both sign lists of a coset."""
    if ctx.L.is_diagonal():
        return branch_orthogonal(ctx.L, m).parts
    rebased = ctx.sub.lattice
    if m.kind in (LabelKind.VAC_PLUS, LabelKind.VAC_MINUS):
        targets = [m]
    elif m.kind == LabelKind.TWISTED:
        values = character_values(ctx.L, m.char, ctx.sub.basis)
        chi = sum(1 << i for i, v in enumerate(values) if v == -1)
        targets = [twisted_label(chi, m.sign)]
    else:
        moved = coset_element(rebased, fraction_to_sub(ctx.sub.basis, m.coset.rep))
        targets = coset_labels(rebased, moved)
    return tuple(p for t in targets for p in branch_orthogonal(rebased, t).parts)


def orthogonal_oracle(ctx, m1, m2):
    if ctx.sub.index != 1:
        return None
    ks = [ctx.sub.lattice.gram[i][i] // 2 for i in range(ctx.L.rank)]
    parts_v, parts2, parts1 = (orthogonal_parts(ctx, m) for m in (VAC_PLUS, m2, m1))
    total = 0
    for n in parts_v:
        for n2 in parts2:
            for n1 in parts1:
                total += 1
                answers = [
                    rank1_fusion(k, a, b, c)
                    for k, a, b, c in zip(ks, n, n2, n1)
                ]
                if tensor_fusion(answers) != ZERO:
                    return None
    return {"route": "orthogonal", "triples": str(total)}


@lru_cache(maxsize=4096)
def sublattice_parts(ctx, m):
    return branch_sublattice(ctx.L, ctx.sub.basis, m).parts


def part_is_twisted(p) -> bool:
    """A sublattice part is twisted iff it is a placeholder block or a twisted label."""
    return isinstance(p, TwistedBlockPart) or p.kind == LabelKind.TWISTED


def part_coset(sub, p):
    if p.kind in (LabelKind.VAC_PLUS, LabelKind.VAC_MINUS):
        return zero_coset(sub)
    return p.coset


def sublattice_oracle(ctx, m1, m2):
    if ctx.sub.index == 1:
        return None
    sub = ctx.sub.lattice
    parts_v, parts2, parts1 = (sublattice_parts(ctx, m) for m in (VAC_PLUS, m2, m1))
    total = zero_parity = zero_adm = 0
    for n in parts_v:
        assert isinstance(n, ModuleLabel) and not part_is_twisted(n)
        for n2 in parts2:
            for n1 in parts1:
                total += 1
                t1, t2 = part_is_twisted(n1), part_is_twisted(n2)
                if t1 != t2:
                    zero_parity += 1
                    continue
                if t1:
                    return None
                if admissible_triple(sub, part_coset(sub, n), part_coset(sub, n2),
                                     part_coset(sub, n1)):
                    return None
                zero_adm += 1
    return {"route": "sublattice", "triples": str(total),
            "zero_by_parity": str(zero_parity), "zero_by_admissibility": str(zero_adm)}


ORACLES = {"orthogonal": orthogonal_oracle, "sublattice": sublattice_oracle}


def reached_or_twisted(ctx, m1, m2):
    """Pairs the chain hands to FusionObstruction, or with a twisted side."""
    if LabelKind.TWISTED in (m1.kind, m2.kind):
        return True
    return all(rule(ctx, a, b) is None
               for a, b in ((m1, m2), (ctx.rows(m2).dual, ctx.rows(m1).dual))
               for rule in (weight_gap_rule, vacuum_rule))


def assert_routes_match_oracles(gram, pairs=lambda ctx, m1, m2: True):
    """Both routes against their oracles on the chosen ordered pairs; returns hits."""
    ctx = _Context(lat(gram))
    applied = {"orthogonal": 0, "sublattice": 0}
    for route, oracle in ORACLES.items():
        for m1 in ctx.labels:
            for m2 in ctx.labels:
                if not pairs(ctx, m1, m2):
                    continue
                j = fusion_obstruction_rule(ctx, m1, m2, route)
                want = oracle(ctx, m1, m2)
                got = None if j is None else {
                    k: v for k, v in j.detail if k != "subalgebra"
                }
                assert got == want, (gram, route, str(m1), str(m2))
                applied[route] += want is not None
    return applied


@pytest.mark.parametrize(
    "gram,routes",
    [
        ([[2, 0, 0], [0, 2, 0], [0, 0, 2]], {"orthogonal"}),
        ([[2, 0], [0, 6]], {"orthogonal"}),
        ([[2, 0, 0], [0, 4, 0], [0, 0, 6]], {"orthogonal"}),
        ([[4, 2], [2, 8]], {"sublattice"}),
        ([[2, -2], [-2, 8]], {"orthogonal"}),
    ],
    ids=["A1^3", "diag26", "diag246", "gram4228", "skew"],
)
def test_fusion_routes_match_brute_force_oracles(gram, routes):
    applied = assert_routes_match_oracles(gram)
    assert {r for r, n in applied.items() if n} == routes


def test_sublattice_route_matches_oracle_on_det36():
    # index 14: the oracle costs about 0.2 s per pair the rule decides,
    # so it runs on the pairs that reach the rule, plus every pair with a
    # twisted side (parity zeros and the two-twisted stand-down)
    gram = [[2, -1, 0, -1], [-1, 4, 0, -1], [0, 0, 6, 0], [-1, -1, 0, 2]]
    applied = assert_routes_match_oracles(gram, reached_or_twisted)
    assert applied == {"orthogonal": 0, "sublattice": 396}


def test_transported_coset_counts_both_sign_lists():
    # on the skew presentation of diag(2,6) a self-paired coset has two
    # rank-one parts per sign; the rule counts both sign lists
    ctx = _Context(lat([[2, -2], [-2, 8]]))
    m = next(m for m in ctx.labels if m.kind == LabelKind.COSET)
    j = fusion_obstruction_rule(ctx, m, VAC_PLUS, "orthogonal")
    assert dict(j.detail)["triples"] == "16"


@st.composite
def diagonal_grams(draw):
    d = draw(st.integers(1, 3))
    norms = [2 * draw(st.integers(1, 3)) for _ in range(d)]
    assume(prod(norms) <= 16)
    return [[norms[i] if i == j else 0 for j in range(d)] for i in range(d)]


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(diagonal_grams())
def test_orthogonal_route_matches_oracle_on_generated_diagonals(gram):
    assert_routes_match_oracles(gram)


@st.composite
def skew_orthogonal_grams(draw):
    """U D U^T for a diagonal D of norms 2-6 and a lower unitriangular U
    with entries in -2..2: the rows of U are an orthogonal basis of the
    lattice, so its orthogonal sublattice (the searched frame, or
    Gram-Schmidt on the rows of U) has index one."""
    d = draw(st.integers(2, 3))
    norms = [2 * draw(st.integers(1, 3)) for _ in range(d)]
    assume(prod(norms) <= 16)
    u = [[1 if i == j else draw(st.integers(-2, 2)) if j < i else 0 for j in range(d)]
         for i in range(d)]
    gram = [[sum(u[i][k] * norms[k] * u[j][k] for k in range(d)) for j in range(d)]
            for i in range(d)]
    assume(any(gram[i][j] for i in range(d) for j in range(d) if i != j))
    return gram


@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(skew_orthogonal_grams())
def test_orthogonal_route_matches_oracle_on_generated_skew_presentations(gram):
    assert _Context(lat(gram)).sub.index == 1
    assert_routes_match_oracles(gram)
