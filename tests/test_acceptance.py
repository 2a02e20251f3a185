"""Acceptance suite: one test per criterion, exact tolerances, timed budgets.

Each test prints a single PASS line on success (visible with -s or in
the captured output); any failure is a hard assert.  All comparisons
are exact rational equality; there are no tolerance knobs anywhere.
"""

import inspect
import time
from dataclasses import replace
from fractions import Fraction
from itertools import product

import pytest

from conftest import A1, A2, D22, D24, D224, CERT_GRAMS, TEST_GRAMS, box_enumerate, lat, lowest_weight
from test_lattice import enumerate_coset_vectors
from vlplus.branching import branch_orthogonal, branch_sublattice, verify_branch
from vlplus.certify import (
    ALL_RULES,
    VERDICT_INCOMPLETE,
    VERDICT_RATIONAL,
    certify,
    verify_certificate,
)
from vlplus.fusion import ONE, ZERO, admissible_triple, rank1_fusion
from vlplus.lattice import (
    minimal_coset_reps,
    orthogonal_sublattice,
)
from vlplus.qseries import character
from vlplus.sectors import (
    LabelKind,
    ModuleLabel,
    VAC_MINUS,
    VAC_PLUS,
    classify_modules,
    format_label,
    top_level_dimension,
)

F = Fraction


def _clear_caches():
    from vlplus import lattice as _lat, qseries as _qs, sectors as _sec

    for fn in (
        _lat.discriminant_group,
        _lat.minimal_coset_reps,
        _lat.mod_two_data,
        _lat._ldl_cached,
        _qs.euler_product_inv,
        _qs.theta_coset,
        _qs.character,
        _sec.classify_modules,
    ):
        fn.cache_clear()


def report(n, text):
    print(f"ACCEPTANCE {n}: PASS - {text}")


# 1 -------------------------------------------------------------------------

def test_acceptance_1_module_census():
    _clear_caches()
    expected = {tuple(map(tuple, A1)): 8, tuple(map(tuple, A2)): 5, tuple(map(tuple, D24)): 18}
    for gram, count in ((A1, 8), (A2, 5), (D24, 18)):
        t0 = time.perf_counter()
        labels = classify_modules(lat(gram))
        elapsed = time.perf_counter() - t0
        assert len(labels) == count, gram
        assert elapsed < 1.0, f"census of {gram} took {elapsed:.3f}s"
    report(1, "module census 8 / 5 / 18, each under one second")


# 2 -------------------------------------------------------------------------

def test_acceptance_2_lowest_weight_table():
    for gram in TEST_GRAMS:
        L = lat(gram)
        d = L.rank
        assert 1 <= d <= 3 and L.det <= 16
        for m in classify_modules(L):
            w = lowest_weight(L, m)
            if m.kind == LabelKind.VAC_PLUS:
                assert w == 0
            elif m.kind == LabelKind.VAC_MINUS:
                assert w == 1
            elif m.kind == LabelKind.TWISTED:
                assert w == (F(d, 16) if m.sign == 1 else F(d + 8, 16))
            else:
                # independent minimum over the coset via the box oracle
                vecs = box_enumerate(gram, m.coset.rep, L.norm(m.coset.rep))
                true_min = min(F(L.norm(v)) for v in vecs)
                assert w == true_min / 2
    report(2, "lowest weights match the table exactly on every census label")


# 3 -------------------------------------------------------------------------

def test_acceptance_3_zhu_dictionary():
    order = F(12)
    for gram in TEST_GRAMS:
        L = lat(gram)
        for m in classify_modules(L):
            terms = character(L, m, order).terms()
            assert terms, (gram, str(m))
            e, c = min(terms.items())
            assert e == lowest_weight(L, m), (gram, str(m))
            assert c == top_level_dimension(L, m), (gram, str(m))
    report(3, "character leading data equals (lowest weight, top dimension) at order 12")


# 4 -------------------------------------------------------------------------

def independent_top_dimension(gram, m) -> int:
    """Top-level dimensions recomputed from box enumeration only."""
    L = lat(gram)
    d = L.rank
    if m.kind == LabelKind.VAC_PLUS:
        return 1
    if m.kind == LabelKind.VAC_MINUS:
        roots = [v for v in box_enumerate(gram, [0] * d, 2) if L.norm(v) == 2]
        return d + len(roots) // 2
    if m.kind in (LabelKind.UNTWISTED, LabelKind.COSET):
        vecs = box_enumerate(gram, m.coset.rep, m.coset.min_norm)
        delta = [v for v in vecs if L.norm(v) == m.coset.min_norm]
        return len(delta) if m.kind == LabelKind.UNTWISTED else len(delta) // 2
    # twisted: 2^((d-r2)/2) with the GF(2) rank computed by hand
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
    assert rank % 2 == 0  # alternating form: even rank
    dim_t = 1 << (rank // 2)
    return dim_t if m.sign == 1 else d * dim_t


def test_acceptance_4_block_bookkeeping():
    for gram in TEST_GRAMS:
        L = lat(gram)
        d = L.rank
        labels = classify_modules(L)
        tops = {m: independent_top_dimension(gram, m) for m in labels}
        for m, t in tops.items():
            assert t == top_level_dimension(L, m)
        tw_plus = sum(t * t for m, t in tops.items() if m.kind == LabelKind.TWISTED and m.sign == 1)
        tw_minus = sum(t * t for m, t in tops.items() if m.kind == LabelKind.TWISTED and m.sign == -1)
        assert tw_plus == 1 << d
        assert tw_minus == d * d * (1 << d)
        assert tops[VAC_MINUS] ** 2 == top_level_dimension(L, VAC_MINUS) ** 2
    total_a1 = sum(independent_top_dimension(A1, m) ** 2 for m in classify_modules(lat(A1)))
    total_a2 = sum(independent_top_dimension(A2, m) ** 2 for m in classify_modules(lat(A2)))
    assert total_a1 == 11 and total_a2 == 55
    report(4, "block dimensions and the totals 11 / 55 confirmed by independent census")


# 5 -------------------------------------------------------------------------

def test_acceptance_5_branching_identities():
    t0 = time.perf_counter()
    case_kinds = set()

    def case_of(m):
        if m.kind in (LabelKind.VAC_PLUS, LabelKind.VAC_MINUS):
            return str(m.kind)
        if m.kind == LabelKind.UNTWISTED:
            return "untw"
        if m.kind == LabelKind.COSET:
            return f"coset{m.sign}"
        return f"twisted{m.sign}"

    for gram in (D22, D24, D224):
        L = lat(gram)
        for m in classify_modules(L):
            bl = branch_orthogonal(L, m)
            assert verify_branch(bl, F(15)), (gram, str(m))
            case_kinds.add(("orth", case_of(m)))
    assert len({c for r, c in case_kinds if r == "orth"}) == 7

    sub_cases = set()
    L = lat(A2)
    S = orthogonal_sublattice(L)
    basis, gram1 = S.basis, S.lattice.gram
    assert tuple(gram1[i][i] for i in range(2)) == (2, 6)
    for m in classify_modules(L):
        bl = branch_sublattice(L, basis, m)
        assert verify_branch(bl, F(12)), str(m)
        sub_cases.add(case_of(m))
    L = lat(D24)
    doubled = ((2, 0), (0, 2))
    for m in classify_modules(L):
        bl = branch_sublattice(L, doubled, m)
        assert verify_branch(bl, F(12)), str(m)
        sub_cases.add(case_of(m))
    assert len(sub_cases) == 7
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"branching identities took {elapsed:.1f}s"
    report(5, f"all seven cases verified on both routes in {elapsed:.1f}s")


# 6 -------------------------------------------------------------------------

DET12_GRAMS = [
    [[2]], [[4]], [[6]], [[8]], [[10]], [[12]],
    [[2, 0], [0, 2]], [[2, 0], [0, 4]], [[2, 1], [1, 2]], [[2, 0], [0, 6]],
    [[2, 0, 0], [0, 2, 0], [0, 0, 2]],
]


def test_acceptance_6_brute_force_oracles():
    for gram in DET12_GRAMS:
        L = lat(gram)
        assert L.det <= 12
        reps = minimal_coset_reps(L)
        for a, b, c in product(reps, repeat=3):
            brute = any(
                all(
                    Fraction(p * x + q * y + r * z).denominator == 1
                    for x, y, z in zip(a.rep, b.rep, c.rep)
                )
                for p, q, r in product((1, -1), repeat=3)
            )
            assert admissible_triple(L, a, b, c) == brute
    for gram in (A1, A2, D224):
        L = lat(gram)
        for rep in minimal_coset_reps(L):
            for bound in (F(0), F(10)):
                ours = enumerate_coset_vectors(L, rep.rep, bound)
                assert ours == box_enumerate(gram, rep.rep, bound)
    report(6, "admissibility matches the 8-sign scan; enumeration matches the box scan")


# 7 -------------------------------------------------------------------------

def transcribed_minus_row(k):
    """Hard-coded nonzero pairs of the minus-vacuum row, by label string."""
    pairs = [("V+", "V-"), ("V-", "V+"),
             ("C[1/2]+", "C[1/2]-"), ("C[1/2]-", "C[1/2]+"),
             ("T[0]+", "T[0]-"), ("T[0]-", "T[0]+"),
             ("T[1]+", "T[1]-"), ("T[1]-", "T[1]+")]
    if k == 2:
        pairs.append(("U[1/4]", "U[1/4]"))
    if k == 3:
        pairs.append(("U[1/6]", "U[1/6]"))
        pairs.append(("U[1/3]", "U[1/3]"))
    return set(pairs)


def test_acceptance_7_rank1_fusion_table():
    for k in (1, 2, 3):
        L = lat([[2 * k]])
        labels = classify_modules(L)
        assert len(labels) == k + 7
        minus_row = transcribed_minus_row(k)
        for w2 in labels:
            for w3 in labels:
                s2, s3 = format_label(w2), format_label(w3)
                plus = rank1_fusion(k, VAC_PLUS, w2, w3)
                assert plus == (ONE if s2 == s3 else ZERO), (k, s2, s3)
                minus = rank1_fusion(k, VAC_MINUS, w2, w3)
                assert minus == (ONE if (s2, s3) in minus_row else ZERO), (k, s2, s3)
    report(7, "rank-one vacuum rows reproduce the transcribed table for k = 1, 2, 3")


# 8 -------------------------------------------------------------------------

def test_acceptance_8_rationality_certificates():
    t0 = time.perf_counter()
    for gram in CERT_GRAMS:
        L = lat(gram)
        cert = certify(L)
        assert cert.verdict == VERDICT_RATIONAL, gram
        assert not cert.unknown, gram
        assert verify_certificate(L, cert.to_json()) == [], gram
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"certificates took {elapsed:.1f}s"
    # negative control: each rule kind is load-bearing on some test lattice
    for rule in ALL_RULES:
        broken = False
        for gram in CERT_GRAMS:
            cert = certify(lat(gram), disabled=frozenset({rule}))
            if cert.verdict == VERDICT_INCOMPLETE and cert.unknown:
                broken = True
                break
        assert broken, f"deleting {rule} leaves every test lattice covered"
    report(8, f"six certificates Rational and re-verified in {elapsed:.1f}s; "
              "every rule deletion breaks coverage somewhere")


# 9 -------------------------------------------------------------------------

def test_acceptance_9_convention_independence():
    # the square-root branch of the involution's lift, the one convention
    # left, acts only where signs are computed: a sublattice branching's
    # C signs.  certify reads none.
    assert {"convention", "root_branch"}.isdisjoint(inspect.signature(certify).parameters)
    with pytest.raises(TypeError):
        certify(lat(A2), -1)

    def sign_blind(part):
        if isinstance(part, ModuleLabel) and part.kind == LabelKind.COSET:
            return replace(part, sign=None)
        return part

    branchings = flipped = 0
    for gram in CERT_GRAMS:
        L = lat(gram)
        basis = orthogonal_sublattice(L).basis
        for m in classify_modules(L):
            bls = [branch_sublattice(L, basis, m, branch) for branch in (1, -1)]
            branchings += len(bls)
            for bl in bls:
                assert verify_branch(bl, F(4)), (gram, str(m), bl.parts)
                assert bl.notes == bls[0].notes, (gram, str(m))
                assert list(map(sign_blind, bl.parts)) == list(map(sign_blind, bls[0].parts)), (
                    gram, str(m))
            flipped += len({bl.parts for bl in bls}) > 1
    assert flipped, "no root branch moved a C sign, so the check above shows nothing"
    report(9, f"{branchings} sublattice branchings under both root branches verify with equal "
              f"notes and equal parts up to C signs ({flipped} labels flip one); certify "
              "takes no convention")
