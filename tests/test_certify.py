import hashlib
import json
import random
import re
import sys
from collections import Counter, defaultdict
from fractions import Fraction
from functools import lru_cache

import pytest

from itertools import combinations, zip_longest

from hypothesis import given, settings

from conftest import (A1, A2, D24, D224, CERT_GRAMS, E6, E8, LADDER_GRAMS, SKEWED_E8, TEST_GRAMS,
                      even_grams, fraction_to_sub, lat, small_even_grams, verify_text)
from vlplus.branching import branch_sublattice, label_rows
from vlplus.fusion import admissible_triple
from vlplus.lattice import _gram_schmidt, coset_element, orthogonal_sublattice, zero_coset
from vlplus.certify import (
    ALL_RULES,
    CITATIONS,
    RULE_DUALITY,
    RULE_FUSION,
    RULE_VACUUM,
    RULE_WEIGHT_GAP,
    VERDICT_INCOMPLETE,
    VERDICT_RATIONAL,
    ExtCertificate,
    ExtJustification,
    _Context,
    certify,
    duality_rule,
    fusion_obstruction_rule,
    load_certificate,
    verify_certificate,
    weight_gap_rule,
    vacuum_rule,
)
from vlplus.sectors import (
    LabelKind,
    VAC_MINUS,
    VAC_PLUS,
    character_values,
    classify_modules,
    coset_labels,
    format_label,
    label_coset,
    label_sign,
)

F = Fraction
DET36 = [[2, -1, 0, -1], [-1, 4, 0, -1], [0, 0, 6, 0], [-1, -1, 0, 2]]


def rule_of(cert, a, b):
    for m1, m2, j in cert.pairs:
        if (m1, m2) == (a, b):
            return j
    raise KeyError((a, b))


# ---------------------------------------------------------------------------
# full certificates
# ---------------------------------------------------------------------------

def test_certify_a1_complete():
    L = lat(A1)
    cert = certify(L)
    assert cert.verdict == VERDICT_RATIONAL
    assert len(cert.pairs) == 64 and not cert.unknown
    assert verify_certificate(L, cert.to_json()) == []


def test_certify_e8_index_16_sublattice_route(tmp_path):
    # two pairs reach FusionObstruction over E8's frame A1^8 of index 16 (the
    # Gram-Schmidt sublattice has index 40320); the route reads the labels
    # and a Smith form, so this certifies and re-verifies in well under a second
    from vlplus.cli import EXIT_OK, main

    L = lat(E8)
    cert = certify(L)
    assert cert.verdict == VERDICT_RATIONAL
    assert len(cert.pairs) == 16 and not cert.unknown
    assert Counter(cert.rule_map().values()) == {
        "WeightGap": 12, "Vacuum": 1, "Duality(Vacuum)": 1,
        "FusionObstruction[sublattice]": 2,
    }
    for pair in (("V+", "T[0]-"), ("T[0]-", "V+")):
        assert dict(rule_of(cert, *pair).detail)["triples"] == "256"
    assert verify_certificate(L, cert.to_json()) == []
    gram, cert_path = tmp_path / "e8.json", tmp_path / "e8.cert"
    gram.write_text(json.dumps({"gram": E8}))
    cert_path.write_text(cert.dumps())
    assert main(["certify", "--gram", str(gram), "--verify", str(cert_path)]) == EXIT_OK


def test_certify_a2_complete():
    L = lat(A2)
    cert = certify(L)
    assert cert.verdict == VERDICT_RATIONAL
    assert len(cert.pairs) == 25 and not cert.unknown
    assert verify_certificate(L, cert.to_json()) == []


def test_certify_all_target_lattices_rational():
    for gram in CERT_GRAMS:
        L = lat(gram)
        cert = certify(L)
        assert cert.verdict == VERDICT_RATIONAL, gram
        assert not cert.unknown
        assert verify_certificate(L, cert.to_json()) == [], gram


def test_certify_deterministic():
    L = lat(A1)
    assert certify(L).dumps() == certify(L).dumps()


# ---------------------------------------------------------------------------
# which rule fires where
# ---------------------------------------------------------------------------

def test_weight_gap_covers_the_stated_pair_classes():
    for gram in CERT_GRAMS:
        L = lat(gram)
        cert = certify(L)
        labels = classify_modules(L)
        for m in labels:
            s = format_label(m)
            assert rule_of(cert, s, s).rule == RULE_WEIGHT_GAP
        for m in labels:
            if m.kind == LabelKind.COSET and m.sign == 1:
                a = format_label(m)
                b = format_label(coset_labels(L, m.coset)[1])
                assert rule_of(cert, a, b).rule == RULE_WEIGHT_GAP
        for m in labels:
            for n in labels:
                if m.kind == n.kind == LabelKind.TWISTED:
                    j = rule_of(cert, format_label(m), format_label(n))
                    assert j.rule == RULE_WEIGHT_GAP


def test_vacuum_pair_rules():
    L = lat(A2)
    cert = certify(L)
    j = rule_of(cert, "V-", "V+")
    assert j.rule == RULE_VACUUM
    j2 = rule_of(cert, "V+", "V-")
    assert j2.rule == RULE_DUALITY
    assert j2.inner is not None and j2.inner.rule == RULE_VACUUM
    assert dict(j2.detail)["dual_pair"] == "V-,V+"


def test_weight_one_coset_needs_fusion_route():
    # the norm-2 self-paired coset on the rank-3 lattice has lowest
    # weight 1, an integer gap against the plus vacuum
    L = lat(D224)
    c = coset_element(L, (F(1, 2), F(1, 2), F(1, 2)))
    assert c.min_norm == 2
    cert = certify(L)
    for sign in "+-":
        j = rule_of(cert, "V+", f"C[1/2,1/2,1/2]{sign}")
        assert j.rule == RULE_FUSION
        assert dict(j.detail)["route"] == "orthogonal"
        j2 = rule_of(cert, f"C[1/2,1/2,1/2]{sign}", "V+")
        assert j2.rule == RULE_FUSION
    assert cert.verdict == VERDICT_RATIONAL


def test_certificates_record_deciding_counts():
    L = lat(D224)
    cert = certify(L)
    j = rule_of(cert, "V+", "C[1/2,1/2,1/2]+")
    detail = dict(j.detail)
    assert int(detail["triples"]) > 0


def test_orthogonal_route_transports_across_a_unimodular_rebase():
    # [[2,-2],[-2,8]] is diag(2,6) in a skew basis: the orthogonal
    # sublattice has index one, so the rank-one route must run on the
    # rebased presentation; its weight-one coset pairs need it
    L = lat([[2, -2], [-2, 8]])
    cert = certify(L)
    assert cert.verdict == VERDICT_RATIONAL
    j = rule_of(cert, "V+", "C[0,1/2]+")
    assert j.rule == RULE_FUSION and dict(j.detail)["route"] == "orthogonal"
    assert verify_certificate(L, cert.to_json()) == []
    # the rule-name census agrees with the diagonal presentation
    from collections import Counter

    diag = certify(lat([[2, 0], [0, 6]]))
    assert Counter(cert.rule_map().values()) == Counter(diag.rule_map().values())
    assert len(cert.labels) == len(diag.labels)


def test_rebased_twisted_transport_matches_intrinsic_fusion():
    # character-shift fusion answers are intrinsic, so the transported
    # queries on the rebased presentation must reproduce the skew ones
    from vlplus.fusion import fusion_dim
    from vlplus.lattice import coset_element
    from vlplus.sectors import (
        central_characters, character_values, coset_labels, twisted_label)
    from vlplus.certify import _Context

    skew = lat([[2, -2], [-2, 8]])
    ctx = _Context(skew)
    assert ctx.sub.index == 1
    rebased, basis = ctx.sub.lattice, ctx.sub.basis

    def move_coset(rep):
        return coset_element(rebased, fraction_to_sub(basis, rep))

    def move_char(chi):
        values = character_values(skew, chi, basis)
        return sum(1 << i for i, v in enumerate(values) if v == -1)

    u_skew = [m for m in classify_modules(skew) if m.kind == LabelKind.UNTWISTED]
    compared = 0
    for m in u_skew:
        (m_new,) = coset_labels(rebased, move_coset(m.coset.rep))
        for chi in central_characters(skew):
            for chj in central_characters(skew):
                for s2 in (1, -1):
                    for s3 in (1, -1):
                        a = fusion_dim(skew, m, twisted_label(chi, s2), twisted_label(chj, s3))
                        b = fusion_dim(
                            rebased,
                            m_new,
                            twisted_label(move_char(chi), s2),
                            twisted_label(move_char(chj), s3),
                        )
                        assert a == b, (str(m), chi, chj, s2, s3)
                        compared += 1
    assert compared > 0


def test_seeded_random_lattices_certify_rational():
    import random

    rng = random.Random(99)
    checked = 0
    seen = set()
    while checked < 12:
        d = rng.randint(1, 3)
        g = [[0] * d for _ in range(d)]
        for i in range(d):
            g[i][i] = 2 * rng.randint(1, 3)
            for j in range(i + 1, d):
                g[i][j] = g[j][i] = rng.randint(-1, 2)
        key = tuple(map(tuple, g))
        if key in seen:
            continue
        seen.add(key)
        from vlplus.lattice import LatticeError

        try:
            L = lat(g)
        except LatticeError:
            continue
        if L.det > 20:
            continue
        checked += 1
        cert = certify(L)
        assert cert.verdict == VERDICT_RATIONAL, (g, list(cert.unknown)[:4])
        assert verify_certificate(L, cert.to_json()) == [], g
        assert_written_bytes_pass_the_record_check(L)


def test_sublattice_route_fires_in_chain_on_nondiagonal_lattice():
    # a non-diagonal lattice with a weight-one self-paired coset: its
    # vacuum pairs fall to the sublattice obstruction (orthogonal route
    # is unavailable, the weight gap is a nonzero integer)
    L = lat([[4, 2], [2, 8]])
    cert = certify(L)
    assert cert.verdict == VERDICT_RATIONAL
    j = rule_of(cert, "V+", "C[0,1/2]+")
    assert j.rule == RULE_FUSION and dict(j.detail)["route"] == "sublattice"
    sub_pairs = [p for p, r in cert.rule_map().items() if r == "FusionObstruction[sublattice]"]
    assert len(sub_pairs) == 12
    assert verify_certificate(L, cert.to_json()) == []


def test_index_210_gram_schmidt_lattice_certifies(monkeypatch):
    # Gram-Schmidt sublattice of norms 6, 210, 2240 (the lattice's frame has
    # index 6): its sublattice-route pairs must be decided from class sets,
    # not 210-part triple loops
    monkeypatch.setattr(sys.modules["vlplus.certify"], "orthogonal_sublattice", _gram_schmidt)
    L = lat([[6, -1, 0], [-1, 6, -1], [0, -1, 2]])
    cert = certify(L)
    assert cert.verdict == VERDICT_RATIONAL
    assert verify_certificate(L, cert.to_json()) == []


def test_skewed_e8_certifies_over_the_gram_schmidt_fallback():
    # the frame search gives up on this basis, so the subalgebra is Gram-Schmidt
    L = lat(SKEWED_E8)
    assert orthogonal_sublattice(L) == _gram_schmidt(L) == _Context(L).sub
    cert = certify(L)
    assert cert.verdict == VERDICT_RATIONAL
    assert verify_certificate(L, cert.to_json()) == []


# ---------------------------------------------------------------------------
# the frame against the Gram-Schmidt sublattice
# ---------------------------------------------------------------------------

def gram_schmidt_certify(L):
    """certify(L) with _Context reading the Gram-Schmidt sublattice, not the frame."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sys.modules["vlplus.certify"], "orthogonal_sublattice", _gram_schmidt)
        return certify(L)


def rule_counts(cert):
    """Pairs per rule path with the route names dropped, and the unknown pairs."""
    paths = Counter(re.sub(r"\[\w+\]", "", path) for path in cert.rule_map().values())
    return cert.verdict, paths, cert.unknown


def assert_frame_and_gram_schmidt_agree(gram):
    L = lat(gram)
    by_frame, by_gram_schmidt = certify(L), gram_schmidt_certify(L)
    assert rule_counts(by_frame) == rule_counts(by_gram_schmidt), gram
    return Counter(by_frame.rule_map().values()), Counter(by_gram_schmidt.rule_map().values())


@pytest.mark.parametrize("gram", TEST_GRAMS + LADDER_GRAMS + [
    E8, SKEWED_E8, [[6, -1, 0], [-1, 6, -1], [0, -1, 2]]])
def test_frame_and_gram_schmidt_certify_alike(gram):
    # the verdict and the pairs per rule do not depend on which orthogonal
    # sublattice _Context reads
    assert_frame_and_gram_schmidt_agree(gram)


def test_frame_and_gram_schmidt_certify_alike_on_the_benchmark_family():
    for gram in small_even_grams():
        assert_frame_and_gram_schmidt_agree(gram)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(even_grams())
def test_frame_and_gram_schmidt_certify_alike_on_generated_grams(gram):
    # diagonal entries up to 8 and off-diagonal ones up to 3, outside that family
    assert_frame_and_gram_schmidt_agree(gram)


def test_skew_diag26_takes_the_orthogonal_route_over_its_frame():
    # diag(2,6) typed as [[8,-14],[-14,26]]: its frame has index one, its
    # Gram-Schmidt sublattice does not, so the same 4 pairs change route
    by_frame, by_gram_schmidt = assert_frame_and_gram_schmidt_agree([[8, -14], [-14, 26]])
    assert (by_frame["FusionObstruction[orthogonal]"]
            == by_gram_schmidt["FusionObstruction[sublattice]"] == 4)
    assert "FusionObstruction[sublattice]" not in by_frame
    assert "FusionObstruction[orthogonal]" not in by_gram_schmidt


# ---------------------------------------------------------------------------
# rule-level behaviour
# ---------------------------------------------------------------------------

def test_sublattice_route_rule_level_a2():
    L = lat(A2)
    ctx = _Context(L)
    labels = classify_modules(L)
    tw = [m for m in labels if m.kind == LabelKind.TWISTED][0]
    u = [m for m in labels if m.kind == LabelKind.UNTWISTED][0]
    # twisted against untwisted: every triple has exactly one twisted side
    j = fusion_obstruction_rule(ctx, tw, u, "sublattice")
    assert j is not None
    d = dict(j.detail)
    assert d["zero_by_parity"] == d["triples"]
    # orbit against vacuum: admissibility never holds
    j2 = fusion_obstruction_rule(ctx, u, VAC_PLUS, "sublattice")
    assert j2 is not None
    d2 = dict(j2.detail)
    assert d2["zero_by_admissibility"] == d2["triples"]
    # vacuum pair: the triple (0,0,0)-style classes are admissible
    assert fusion_obstruction_rule(ctx, VAC_MINUS, VAC_PLUS, "sublattice") is None
    # orthogonal route refuses non-diagonal lattices
    assert fusion_obstruction_rule(ctx, tw, u, "orthogonal") is None


def test_sublattice_route_blocked_at_index_one():
    L = lat(D24)
    ctx = _Context(L)
    labels = classify_modules(L)
    tw = [m for m in labels if m.kind == LabelKind.TWISTED][0]
    u = [m for m in labels if m.kind == LabelKind.UNTWISTED][0]
    assert ctx.sub.index == 1
    assert fusion_obstruction_rule(ctx, tw, u, "sublattice") is None
    assert fusion_obstruction_rule(ctx, tw, u, "orthogonal") is not None


def frame_oracle(L, S, m):
    """Oracle: (families, parity, parts) of m over an index-one frame, in integers.

    A factor of norm n = 2k holds the frame coordinate x of m's coset as
    c = n x mod n, up to sign min(c, n - c); a twisted m holds its
    character values on the frame vectors instead.  A factor offers both
    signs at c = 0 or k, and every factor of a twisted m does."""
    norms = [row[i] for i, row in enumerate(S.lattice.gram)]
    sign = label_sign(m)
    if m.kind == LabelKind.TWISTED:
        families, signed = character_values(L, m.char, S.basis), L.rank
    else:
        coords = [int(v * n) % n
                  for v, n in zip(fraction_to_sub(S.basis, label_coset(L, m).rep), norms)]
        families = tuple(min(c, n - c) for c, n in zip(coords, norms))
        signed = sum(2 * c % n == 0 for c, n in zip(families, norms))
        if m.kind == LabelKind.COSET and not L.is_diagonal():
            sign = None
    parity = None if sign is None else int(sign == -1)
    return (m.kind == LabelKind.TWISTED, families), parity, 2 ** (signed - (parity is not None))


@lru_cache(maxsize=None)
def branch_part_count(L, basis, m) -> int:
    return len(branch_sublattice(L, basis, m).parts)


def fusion_oracle(L, m1, m2, route):
    """Oracle: the FusionObstruction justification as JSON, decided per pair.

    Sublattice route: the admissible-triple gate on the cosets (0,
    lambda2, lambda1), with part counts from branch_sublattice itself.
    Orthogonal route: the integer rank-one families of frame_oracle."""
    S = orthogonal_sublattice(L)
    norms = ",".join(str(row[i]) for i, row in enumerate(S.lattice.gram))
    if route == "sublattice":
        t1, t2 = m1.kind == LabelKind.TWISTED, m2.kind == LabelKind.TWISTED
        if S.index == 1 or t1 and t2:
            return None
        if t1 == t2 and admissible_triple(L, zero_coset(L), label_coset(L, m2), label_coset(L, m1)):
            return None
        total = 1
        for m in (VAC_PLUS, m2, m1):
            total *= branch_part_count(L, S.basis, m)
        detail = (("route", route), ("subalgebra", f"fixed points over sublattice of norms [{norms}]"),
                  ("triples", str(total)), ("zero_by_parity", str(total if t1 != t2 else 0)),
                  ("zero_by_admissibility", str(0 if t1 != t2 else total)))
    else:
        if S.index != 1:
            return None
        (f2, p2, n2), (f1, p1, n1) = frame_oracle(L, S, m2), frame_oracle(L, S, m1)
        if f2 == f1 and (p2 is None or p1 is None or p2 == p1):
            return None
        detail = (("route", route), ("subalgebra", f"tensor of rank-one fixed points, norms [{norms}]"),
                  ("triples", str(frame_oracle(L, S, VAC_PLUS)[2] * n2 * n1)))
    return ExtJustification(RULE_FUSION, CITATIONS[RULE_FUSION], detail).to_json()


def assert_fusion_rule_is_the_oracle(gram):
    L = lat(gram)
    ctx = _Context(L)
    for m1 in ctx.labels:
        for m2 in ctx.labels:
            for route in ("sublattice", "orthogonal"):
                j = fusion_obstruction_rule(ctx, m1, m2, route)
                got = None if j is None else j.to_json()
                assert got == fusion_oracle(L, m1, m2, route), (gram, route, str(m1), str(m2))


@pytest.mark.parametrize("gram", [DET36, [[2, 0], [0, 6]], [[2, -2], [-2, 8]], E6],
                         ids=["det36", "diag26", "skew", "E6"])
def test_fusion_rule_matches_per_pair_decisions_on_fixed_grams(gram):
    assert_fusion_rule_is_the_oracle(gram)


@settings(max_examples=25, derandomize=True, database=None, deadline=None)
@given(even_grams())
def test_fusion_rule_matches_per_pair_decisions_on_generated_grams(gram):
    assert_fusion_rule_is_the_oracle(gram)


def test_weight_gap_rule_direct():
    L = lat(A1)
    ctx = _Context(L)
    assert weight_gap_rule(ctx, VAC_PLUS, VAC_PLUS) is not None  # gap zero applies
    assert weight_gap_rule(ctx, VAC_PLUS, VAC_MINUS) is None  # gap -1
    assert vacuum_rule(ctx, VAC_MINUS, VAC_PLUS) is not None
    assert vacuum_rule(ctx, VAC_PLUS, VAC_MINUS) is None


# ---------------------------------------------------------------------------
# negative controls: each rule kind is load-bearing somewhere
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "rule,gram",
    [
        (RULE_WEIGHT_GAP, A1),
        (RULE_VACUUM, A2),
        (RULE_DUALITY, A2),
        (RULE_FUSION, D224),
    ],
)
def test_deleting_a_rule_breaks_some_lattice(rule, gram):
    L = lat(gram)
    cert = certify(L, disabled=frozenset({rule}))
    assert cert.verdict == VERDICT_INCOMPLETE
    assert cert.unknown


def test_deleted_rule_reports_the_expected_pairs():
    cert = certify(lat(A2), disabled=frozenset({RULE_VACUUM}))
    assert ("V-", "V+") in cert.unknown
    cert2 = certify(lat(A2), disabled=frozenset({RULE_DUALITY}))
    assert ("V+", "V-") in cert2.unknown
    cert3 = certify(lat(D224), disabled=frozenset({RULE_FUSION}))
    assert ("V+", "C[1/2,1/2,1/2]+") in cert3.unknown


# ---------------------------------------------------------------------------
# re-verification catches tampering
# ---------------------------------------------------------------------------

def test_verify_rejects_tampered_certificates(tmp_path, capsys):
    L = lat(A1)
    cert = certify(L)
    data = json.loads(cert.dumps())

    tampered = json.loads(json.dumps(data))
    tampered["pairs"][0]["justification"]["detail"]["gap"] = "17"
    assert verify_certificate(L, tampered)

    tampered = json.loads(json.dumps(data))
    dropped = tampered["pairs"].pop()
    assert any("missing" in p for p in verify_certificate(L, tampered))

    tampered = json.loads(json.dumps(data))
    tampered["verdict"] = VERDICT_INCOMPLETE
    assert any("verdict" in p for p in verify_certificate(L, tampered))

    tampered = json.loads(json.dumps(data))
    for entry in tampered["pairs"]:
        if entry["m1"] == "V-" and entry["m2"] == "V+":
            entry["justification"] = {"rule": RULE_WEIGHT_GAP, "citation": "", "detail": {"gap": "1"}}
    assert any("does not apply" in p or "differs" in p for p in verify_certificate(L, tampered))

    # malformed entries and perturbed details: problems, never an exception
    L = lat([[2, 0], [0, 6]])
    good = certify(L).to_json()
    assert verify_certificate(L, good) == []
    rules = [p["justification"]["rule"] for p in good["pairs"]]
    gap_at, vacuum_at = rules.index(RULE_WEIGHT_GAP), rules.index(RULE_VACUUM)
    fusion_at, duality_at = rules.index(RULE_FUSION), rules.index(RULE_DUALITY)

    def mutant(change):
        cert = json.loads(json.dumps(good))
        change(cert)
        return cert

    def detail(cert, i):
        return cert["pairs"][i]["justification"]["detail"]

    cases = {
        "unknown label": mutant(lambda c: c["pairs"][0].update(m1="U[9/7,0]")),
        "list m1": mutant(lambda c: c["pairs"][0].update(m1=["V+"])),
        "integer m2": mutant(lambda c: c["pairs"][0].update(m2=3)),
        "pair not an object": mutant(lambda c: c["pairs"].append(5)),
        "bogus route": mutant(lambda c: detail(c, fusion_at).update(route="bogus")),
        "pairs not a list": mutant(lambda c: c.update(pairs=7)),
        "unknown not pairs": mutant(lambda c: c.update(unknown=[5])),
        "perturbed weights": mutant(lambda c: detail(c, gap_at).update(weights="17,17")),
        "perturbed subalgebra": mutant(lambda c: detail(c, vacuum_at).update(subalgebra="A1")),
        "perturbed inner": mutant(
            lambda c: c["pairs"][duality_at]["justification"]["inner"]["detail"].clear()),
        "extra field": mutant(lambda c: c["pairs"][fusion_at]["justification"].update(note="")),
        "a list": [good],
        "a string": "certificate",
        "null": None,
    }
    for name, bad in cases.items():
        assert verify_certificate(L, bad), name
    missing = mutant(lambda c: c["pairs"][0].pop("justification"))
    assert any("missing" in p for p in verify_certificate(L, missing))
    for name in ("perturbed weights", "perturbed subalgebra", "perturbed inner"):
        assert any("differs" in p for p in verify_certificate(L, cases[name])), name

    # WeightGap records are checked against the weight table: each mutant
    # gets the problem line a re-run of weight_gap_rule gives
    gap_json = good["pairs"][gap_at]["justification"]
    split_at = next(i for i, p in enumerate(good["pairs"])
                    if p["justification"]["rule"] == RULE_WEIGHT_GAP
                    and len(set(p["justification"]["detail"]["weights"].split(","))) == 2)

    def names(i):
        return f"({good['pairs'][i]['m1']}, {good['pairs'][i]['m2']})"

    def justification(i, change):
        return mutant(lambda c: change(c["pairs"][i]["justification"]))

    def swap_weights(j):
        j["detail"]["weights"] = ",".join(reversed(j["detail"]["weights"].split(",")))

    gap_cases = {
        "gap on vacuum": (mutant(lambda c: c["pairs"][vacuum_at].update(justification=gap_json)),
                          f"pair {names(vacuum_at)}: recorded rule 'WeightGap' does not apply"),
        "gap on fusion": (mutant(lambda c: c["pairs"][fusion_at].update(justification=gap_json)),
                          f"pair {names(fusion_at)}: recorded rule 'WeightGap' does not apply"),
        "swapped weights": (justification(split_at, swap_weights),
                            f"pair {names(split_at)}: recorded justification differs"),
        "null inner": (justification(gap_at, lambda j: j.update(inner=None)),
                       f"pair {names(gap_at)}: recorded justification differs"),
        "citation off by one": (
            justification(gap_at, lambda j: j.update(citation=j["citation"][:-1] + "!")),
            f"pair {names(gap_at)}: recorded justification differs"),
        "justification a list": (
            mutant(lambda c: c["pairs"][gap_at].update(justification=[gap_json])),
            f"pair {names(gap_at)}: justification missing"),
    }
    for name, (bad, problem) in gap_cases.items():
        assert verify_certificate(L, bad) == [problem], name

    # the top-level keys are exactly the format's, and the metadata holds
    # the series denominator, the fixed rule order and a known convention
    keys = "top-level keys or format are not those of vlplus-certificate-v1"
    not_object = "metadata is not a JSON object"
    header_cases = {
        "denominator": (mutant(lambda c: c["metadata"].update(denominator="999")),
                        ["metadata denominator is not 48"]),
        "rule order": (mutant(lambda c: c["metadata"].update(rule_order="bogus")),
                       [f"metadata rule_order is not {good['metadata']['rule_order']}"]),
        "cocycle": (mutant(lambda c: c["metadata"].update(cocycle_mode="sideways")),
                    ["metadata cocycle_mode is not upper or lower"]),
        "metadata a list": (mutant(lambda c: c.update(metadata=[])), [not_object]),
        "metadata removed": (mutant(lambda c: c.pop("metadata")), [keys, not_object]),
        "extra key": (mutant(lambda c: c.update(extra=1)), [keys]),
    }
    from vlplus.cli import EXIT_INCOMPLETE, EXIT_OK, main

    gram_path = tmp_path / "gram.json"
    gram_path.write_text(json.dumps({"gram": [[2, 0], [0, 6]]}))
    cert_path = tmp_path / "bad.cert"
    for name, (bad, problems) in header_cases.items():
        assert verify_certificate(L, bad) == problems, name
        cert_path.write_text(json.dumps(bad))
        assert main(["certify", "--gram", str(gram_path), "--verify", str(cert_path)]) \
            == EXIT_INCOMPLETE, name
        assert capsys.readouterr().out == "".join(f"problem\t{p}\n" for p in problems), name
    # older writers could record the other convention values; such a file still verifies
    lower = mutant(lambda c: c["metadata"].update(cocycle_mode="lower", root_branch="-1"))
    assert verify_certificate(L, lower) == []
    cert_path.write_text(json.dumps(lower))
    assert main(["certify", "--gram", str(gram_path), "--verify", str(cert_path)]) == EXIT_OK
    assert capsys.readouterr().out == "certificate verified\n"

    # a pair may be counted once only, in pairs or in unknown, and every
    # unknown entry names two labels; the verdict is made to match
    def incomplete(change):
        return mutant(lambda c: (change(c), c.update(verdict=VERDICT_INCOMPLETE)))

    def unknown_twice(c):
        p = c["pairs"].pop(gap_at)
        c["unknown"] += [[p["m1"], p["m2"]]] * 2

    counted = {
        "justified and unknown": (
            incomplete(lambda c: c["unknown"].append([c["pairs"][gap_at][k] for k in ("m1", "m2")])),
            f"pair {names(gap_at)} is both justified and unknown"),
        "unknown twice": (incomplete(unknown_twice), f"duplicate unknown pair {names(gap_at)}"),
        "unknown names one label": (
            incomplete(lambda c: c["unknown"].append(["V+"])),
            "unknown[0] does not name two labels of the lattice"),
    }
    for name, (bad, problem) in counted.items():
        assert problem in verify_certificate(L, bad), name
        cert_path.write_text(json.dumps(bad))
        assert main(["certify", "--gram", str(gram_path), "--verify", str(cert_path)]) \
            == EXIT_INCOMPLETE, name
        assert f"problem\t{problem}\n" in capsys.readouterr().out, name
    for entry in (["V+", "V+", "V+"], ["V+", "U[9/7,0]"], ["V+", 3], "V+"):
        bad = incomplete(lambda c: c["unknown"].append(entry))
        assert "unknown[0] does not name two labels of the lattice" in verify_certificate(L, bad)


@pytest.mark.parametrize("gram", [[[2, 0], [0, 6]], [[2, -2], [-2, 8]], DET36],
                         ids=["diag26", "skew", "det36"])
def test_verify_rejects_orthogonal_route_mutants(tmp_path, capsys, gram):
    # FusionObstruction records of the live route, orthogonal on the first
    # two lattices and sublattice on det36
    from vlplus.cli import EXIT_INCOMPLETE, main

    L = lat(gram)
    good = certify(L).to_json()
    ctx = _Context(L)
    by_name = dict(zip(ctx.names, ctx.labels))
    at = next(i for i, p in enumerate(good["pairs"])
              if p["justification"]["detail"].get("route") == ctx.route)
    record = good["pairs"][at]["justification"]
    other = {"orthogonal": "sublattice", "sublattice": "orthogonal"}[ctx.route]

    def key(i, side):
        return ctx.rows(by_name[good["pairs"][i][side]])[1:3]

    # a pair whose labels have equal keys and parities, two distinct
    # labels where the lattice has such a pair
    same = [i for i in range(len(good["pairs"])) if key(i, "m1") == key(i, "m2")]
    to = max(same, key=lambda i: good["pairs"][i]["m1"] != good["pairs"][i]["m2"])

    def names(i):
        return f"({good['pairs'][i]['m1']}, {good['pairs'][i]['m2']})"

    def mutant(i, change):
        cert = json.loads(json.dumps(good))
        change(cert["pairs"][i])
        return cert

    def more(field):
        def change(p):
            p["justification"]["detail"][field] += "1"
        return change

    cases = {
        "perturbed triples": (mutant(at, more("triples")),
                              f"pair {names(at)}: recorded justification differs"),
        "route flipped": (
            mutant(at, lambda p: p["justification"]["detail"].update(route=other)),
            f"pair {names(at)}: recorded rule 'FusionObstruction' does not apply"),
        "moved to equal keys": (
            mutant(to, lambda p: p.update(justification=record)),
            f"pair {names(to)}: recorded rule 'FusionObstruction' does not apply"),
    }
    if ctx.route == "sublattice":
        # two twisted labels are both keyed None: the route stands down
        twisted = next(i for i, p in enumerate(good["pairs"]) if p["m1"] != p["m2"]
                       and by_name[p["m1"]].kind == by_name[p["m2"]].kind == LabelKind.TWISTED)
        cases["perturbed zero_by_parity"] = (
            mutant(at, more("zero_by_parity")), f"pair {names(at)}: recorded justification differs")
        cases["moved to two twisted labels"] = (
            mutant(twisted, lambda p: p.update(justification=record)),
            f"pair {names(twisted)}: recorded rule 'FusionObstruction' does not apply")
    gram_path = tmp_path / "gram.json"
    gram_path.write_text(json.dumps({"gram": gram}))
    cert_path = tmp_path / "bad.cert"
    for name, (bad, problem) in cases.items():
        assert verify_certificate(L, bad) == [problem], name
        cert_path.write_text(json.dumps(bad))
        assert main(["certify", "--gram", str(gram_path), "--verify", str(cert_path)]) \
            == EXIT_INCOMPLETE, name
        assert capsys.readouterr().out == f"problem\t{problem}\n", name


# m1, m2 or unknown values that name no label: none of them may be
# looked up (hashed); Unhashable stands for a number that cannot be
class Unhashable(int):
    def __hash__(self):
        raise AssertionError("the verifier hashed a value that is not a label name")


HOSTILE_VALUES = {"list": ["V+"], "object": {"V+": "V+"}, "number": 3, "null": None, "true": True}


@pytest.mark.parametrize("value", HOSTILE_VALUES, ids=list(HOSTILE_VALUES))
def test_verify_answers_hostile_label_values_with_problems(tmp_path, capsys, value):
    from vlplus.cli import EXIT_INCOMPLETE, main

    L = lat(DIAG26)
    good = certify(L).to_json()
    hostile = HOSTILE_VALUES[value]

    def mutant(change):
        cert = json.loads(json.dumps(good))
        change(cert)
        return cert

    def unknown(entry):
        return mutant(lambda c: c.update(unknown=[entry], verdict=VERDICT_INCOMPLETE))

    not_pair = "pairs[0] does not name two labels of the lattice"
    not_unknown = "unknown[0] does not name two labels of the lattice"
    cases = {
        "m1": (mutant(lambda c: c["pairs"][0].update(m1=hostile)), not_pair),
        "m2": (mutant(lambda c: c["pairs"][0].update(m2=hostile)), not_pair),
        "unknown entry": (unknown(hostile), not_unknown),
        "unknown first": (unknown([hostile, "V+"]), not_unknown),
        "unknown second": (unknown(["V+", hostile]), not_unknown),
    }
    gram_path = tmp_path / "gram.json"
    gram_path.write_text(json.dumps({"gram": DIAG26}))
    cert_path = tmp_path / "hostile.cert"
    for name, (bad, problem) in cases.items():
        assert problem in verify_certificate(L, bad), name
        cert_path.write_text(json.dumps(bad))
        code = main(["certify", "--gram", str(gram_path), "--verify", str(cert_path)])
        out, err = capsys.readouterr()
        assert (code, err) == (EXIT_INCOMPLETE, ""), name
        lines = out.splitlines()
        assert f"problem\t{problem}" in lines, name
        assert all(line.startswith("problem\t") for line in lines), name
    if value == "number":
        number = Unhashable(3)
        for bad, problem in (
                (mutant(lambda c: c["pairs"][0].update(m1=number)), not_pair),
                (mutant(lambda c: c["pairs"][0].update(m2=number)), not_pair),
                (unknown(number), not_unknown), (unknown(["V+", number]), not_unknown)):
            assert problem in verify_certificate(L, bad)


def assert_written_bytes_pass_the_record_check(L):
    """verify_text accepts certify's own text unparsed; that is sound only
    because the per-record check accepts the text parsed."""
    text = certify(L).dumps()
    assert verify_certificate(L, json.loads(text)) == [], L.gram
    assert verify_text(L, text) == ([], json.loads(text)["verdict"]), L.gram


@pytest.mark.parametrize("gram", CERT_GRAMS + LADDER_GRAMS)
def test_written_bytes_pass_the_record_check(gram):
    assert_written_bytes_pass_the_record_check(lat(gram))


def test_verify_text_checks_other_text_as_verify_certificate_does():
    # a file other than certify's bytes gets the per-record check's problems,
    # and one that is not a certificate a ValueError
    L = lat(DIAG26)
    good = certify(L).to_json()
    assert verify_text(L, json.dumps(good)) == ([], good["verdict"])
    bad = json.loads(json.dumps(good))
    bad["pairs"][0]["justification"]["detail"]["gap"] += "0"
    problems, verdict = verify_text(L, json.dumps(bad))
    assert problems == verify_certificate(L, bad) != [] and verdict is None
    for text in ("{}", "[" * 100000, certify(L).dumps()[:-2]):
        with pytest.raises(ValueError):
            verify_text(L, text)


def assert_verify_text_is_the_record_check(L, text):
    """verify_text gives what verify_certificate gives on the parsed text,
    with the recorded verdict where there is no problem, or ValueError
    where the text does not parse as a certificate."""
    try:
        cert = load_certificate(text)
    except ValueError:
        with pytest.raises(ValueError):
            verify_text(L, text)
        return
    problems = verify_certificate(L, cert)
    assert verify_text(L, text) == (problems, None if problems else cert["verdict"]), L.gram


def assert_chunk_compare_is_byte_equality(L):
    # verify_text compares the file chunk by chunk; a file cut at a chunk
    # boundary, one with bytes after the end, and one whose verdict alone
    # differs are each answered as the per-record check answers them
    chunks = list(certify(L).chunks())
    text = "".join(chunks)
    for cut in sorted({1, len(chunks) // 2, len(chunks) - 1}):
        assert_verify_text_is_the_record_check(L, "".join(chunks[:cut]))
    for trailing in ("\n", " ", "x", "{}"):
        assert_verify_text_is_the_record_check(L, text + trailing)
    verdict = json.loads(text)["verdict"]
    other = VERDICT_INCOMPLETE if verdict == VERDICT_RATIONAL else VERDICT_RATIONAL
    head, tail = text.rsplit(f'"verdict": "{verdict}"', 1)
    flipped = f'{head}"verdict": "{other}"{tail}'
    assert_verify_text_is_the_record_check(L, flipped)
    assert verify_text(L, flipped) == (["verdict inconsistent with the unknown list"], None)


@pytest.mark.parametrize("gram", CERT_GRAMS + LADDER_GRAMS + [[[2, 0], [0, 6]]])
def test_chunk_compare_on_fixed_grams(gram):
    assert_chunk_compare_is_byte_equality(lat(gram))


@settings(max_examples=10, derandomize=True, database=None, deadline=None)
@given(even_grams())
def test_chunk_compare_on_generated_grams(gram):
    assert_chunk_compare_is_byte_equality(lat(gram))


def test_load_certificate_roundtrip(tmp_path):
    cert = certify(lat(A1))
    path = tmp_path / "cert.json"
    path.write_text(cert.dumps())
    loaded = load_certificate(path.read_text())
    assert loaded["verdict"] == VERDICT_RATIONAL
    for text in ("{}", "[]", "7", "[" * 100000):
        with pytest.raises(ValueError):
            load_certificate(text)


def test_duality_never_nests():
    for gram in CERT_GRAMS:
        cert = certify(lat(gram))
        for _, _, j in cert.pairs:
            if j.rule == RULE_DUALITY:
                assert j.inner is not None
                assert j.inner.rule != RULE_DUALITY


# ---------------------------------------------------------------------------
# the rule chain on generated lattices, under every set of disabled rules
# ---------------------------------------------------------------------------

def fixed_order(disabled):
    """The enabled steps of rule_order as (step, rule), built here from the rules."""
    base = [r for name, r in ((RULE_WEIGHT_GAP, weight_gap_rule), (RULE_VACUUM, vacuum_rule))
            if name not in disabled]
    routes = [lambda ctx, a, b, route=route: fusion_obstruction_rule(ctx, a, b, route=route)
              for route in ("sublattice", "orthogonal")]
    steps = [
        ("WeightGap", {RULE_WEIGHT_GAP}, weight_gap_rule),
        ("Vacuum", {RULE_VACUUM}, vacuum_rule),
        ("Duality[base]", {RULE_DUALITY}, lambda ctx, a, b: duality_rule(ctx, a, b, base)),
        ("FusionObstruction[sublattice]", {RULE_FUSION}, routes[0]),
        ("FusionObstruction[orthogonal]", {RULE_FUSION}, routes[1]),
        ("Duality[FusionObstruction]", {RULE_DUALITY, RULE_FUSION},
         lambda ctx, a, b: duality_rule(ctx, a, b, routes)),
    ]
    return [(step, rule) for step, needs, rule in steps if not needs & disabled]


def step_of(path: str) -> str:
    if path.startswith("Duality(FusionObstruction"):
        return "Duality[FusionObstruction]"
    if path.startswith("Duality("):
        return "Duality[base]"
    return path


@settings(max_examples=15, derandomize=True, database=None, deadline=None)
@given(even_grams())
def test_rule_chain_respects_disabled_rules_and_order(gram):
    L = lat(gram)
    ctx = _Context(L)
    by_name = {format_label(m): m for m in ctx.labels}
    for size in range(len(ALL_RULES) + 1):
        for off in combinations(ALL_RULES, size):
            disabled = frozenset(off)
            cert = certify(L, disabled=disabled)
            order = fixed_order(disabled)
            steps = [step for step, _ in order]
            for (a, b), path in cert.rule_map().items():
                assert disabled.isdisjoint(re.findall(r"[A-Za-z]+", path)), (path, off)
                at = steps.index(step_of(path))
                m1, m2 = by_name[a], by_name[b]
                for step, applies in order[:at]:
                    assert applies(ctx, m1, m2) is None, (gram, off, a, b, step)
            for a, b in cert.unknown:
                m1, m2 = by_name[a], by_name[b]
                for step, applies in order:
                    assert applies(ctx, m1, m2) is None, (gram, off, a, b, step)
            assert verify_certificate(L, cert.to_json()) == [], (gram, off)


@settings(max_examples=25, derandomize=True, database=None, deadline=None)
@given(even_grams())
def test_contragredient_pair_decides_weight_gap_and_fusion_alike(gram):
    # so Duality over either rule never decides a pair first, and the chain omits it
    L = lat(gram)
    ctx = _Context(L)
    rules = (weight_gap_rule, lambda c, a, b: fusion_obstruction_rule(c, a, b, route=ctx.route))
    for m1 in ctx.labels:
        for m2 in ctx.labels:
            d1, d2 = ctx.rows(m2).dual, ctx.rows(m1).dual
            for rule in rules:
                assert (rule(ctx, m1, m2) is None) == (rule(ctx, d1, d2) is None), (gram, m1, m2)


# ---------------------------------------------------------------------------
# dumps() and the WeightGap table against their references
# ---------------------------------------------------------------------------

def assert_dumps_is_the_reference(L):
    variants = [frozenset(), frozenset(ALL_RULES)] + [frozenset({rule}) for rule in ALL_RULES]
    weight_ids = _Context(L).weight_ids
    for disabled in variants:
        cert = certify(L, disabled=disabled)
        if disabled == frozenset(ALL_RULES):
            assert not cert.pairs and len(cert.unknown) == len(cert.labels) ** 2
        reference = json.dumps(cert.to_json(), sort_keys=True, indent=2) + "\n"
        assert first_difference(cert.dumps(), reference) is None, (L.gram, sorted(disabled))
        assert first_difference("".join(cert.chunks()), reference) is None, (
            L.gram, sorted(disabled))
        # a row of WeightGap entries alone is the one row object of its weight id
        gap_rows = defaultdict(set)
        for w, row in zip(weight_ids, cert.rows):
            if all(j is not None and j.rule == RULE_WEIGHT_GAP for j in row):
                gap_rows[w].add(id(row))
        assert all(len(ids) == 1 for ids in gap_rows.values()), (L.gram, sorted(disabled))
        # equal justifications are one object, so dumps() encodes each value once
        justifications = [j for _, _, j in cert.pairs]
        assert len(set(map(id, justifications))) == len(set(justifications)), (
            L.gram, sorted(disabled))


def first_difference(text, reference):
    """None if equal, else (line, text's, reference's): pytest's own diff of
    two multi-megabyte strings takes minutes."""
    if text == reference:
        return None
    lines = zip_longest(text.split("\n"), reference.split("\n"))
    return next((n, a, b) for n, (a, b) in enumerate(lines) if a != b)


def assert_gap_table_is_the_rule(L):
    ctx = _Context(L)
    for m1, w1 in zip(ctx.labels, ctx.weight_ids):
        for m2, w2 in zip(ctx.labels, ctx.weight_ids):
            entry, want = ctx.gaps[w1][w2], weight_gap_rule(ctx, m1, m2)
            if want is None:
                assert entry is None and ctx.gap_json[w1][w2] is None, (L.gram, m1, m2)
            else:
                assert entry.to_json() == want.to_json() == ctx.gap_json[w1][w2], (L.gram, m1, m2)


@pytest.mark.parametrize("gram", TEST_GRAMS + LADDER_GRAMS)
def test_dumps_and_gap_table_on_fixed_grams(gram):
    L = lat(gram)
    assert_dumps_is_the_reference(L)
    assert_gap_table_is_the_rule(L)


@settings(max_examples=15, derandomize=True, database=None, deadline=None)
@given(even_grams())
def test_dumps_and_gap_table_on_generated_grams(gram):
    L = lat(gram)
    assert_dumps_is_the_reference(L)
    assert_gap_table_is_the_rule(L)


def test_hand_built_certificate_escapes_as_the_stdlib():
    # a WeightGap front is a template filled with its two quoted strings;
    # labels and ratios that a lattice gives never need escaping, so these
    # strings hold a quote, a backslash, control characters and non-ASCII text
    odd = ['q"uote', "back\\slash", "ctrl\x01\x1f\n", "non-ASCII \xe9 ✓ \U0001d53d"]

    def gap(a, b):
        return ExtJustification(RULE_WEIGHT_GAP, CITATIONS[RULE_WEIGHT_GAP],
                                (("gap", a), ("weights", b)))

    vacuum = ExtJustification(RULE_VACUUM, CITATIONS[RULE_VACUUM], (("subalgebra", odd[3]),))
    # WeightGap records not of the shape weight_gap_rule builds are encoded
    reordered = ExtJustification(RULE_WEIGHT_GAP, CITATIONS[RULE_WEIGHT_GAP],
                                 (("weights", odd[0]), ("gap", odd[1])))
    nested = ExtJustification(RULE_DUALITY, CITATIONS[RULE_DUALITY], (("dual_pair", odd[2]),),
                              inner=gap(odd[1], odd[2]))
    shared = (gap(odd[0], odd[1]), gap(odd[2], odd[3]), None, vacuum)
    rows = (shared, shared, (reordered, None, gap(odd[3], odd[0]), nested), (None,) * 4)
    cert = ExtCertificate(
        gram=((2,),),
        labels=tuple(odd),
        rows=rows,
        unknown=tuple((odd[i], odd[k]) for i, row in enumerate(rows)
                      for k, j in enumerate(row) if j is None),
        verdict=VERDICT_INCOMPLETE,
        metadata=(("note", odd[2]),),
    )
    reference = json.dumps(cert.to_json(), sort_keys=True, indent=2) + "\n"
    assert all(s in reference for s in (r'q\"uote', r"k\\s", r"\u0001", r"\ud835\udd3d"))
    assert "".join(cert.chunks()) == cert.dumps() == reference
    assert len(cert.pairs) == 9


# ---------------------------------------------------------------------------
# the per-label tables are built on demand
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("gram", [LADDER_GRAMS[4], DET36], ids=["A1^5", "det36"])
def test_label_tables_are_built_for_open_pairs_only(monkeypatch, gram):
    # certify computes a label's row only where WeightGap leaves one of its
    # pairs open, and verify_certificate only for the labels of records of
    # another rule; each row once, as label_rows caches it
    import sys

    module = sys.modules["vlplus.branching"]
    made = []
    real_contragredient = module.contragredient

    def counted_contragredient(L, m):  # label_row calls it once per row it computes
        made.append(m)
        return real_contragredient(L, m)

    monkeypatch.setattr(module, "contragredient", counted_contragredient)
    L = lat(gram)
    by_name = dict(zip(map(format_label, classify_modules(L)), classify_modules(L)))
    label_rows.cache_clear()
    cert = certify(L)
    open_labels = {by_name[name] for a, b, j in cert.pairs if j.rule != RULE_WEIGHT_GAP
                   for name in (a, b)}
    assert cert.verdict == VERDICT_RATIONAL and len(open_labels) < len(by_name)
    assert made and set(made) <= open_labels and len(made) == len(set(made)), gram
    data = json.loads(cert.dumps())
    made.clear()
    label_rows.cache_clear()
    assert verify_certificate(L, data) == []
    assert made and set(made) <= open_labels and len(made) == len(set(made)), gram


# ---------------------------------------------------------------------------
# pinned certificate bytes
# ---------------------------------------------------------------------------

DIAG26 = [[2, 0], [0, 6]]

# sha256 of certify(L, disabled=...).dumps() in format v1: a change that
# moves these bytes is a format change and updates them on purpose
PINNED_DIGESTS = {
    "A2": ([[2, -1], [-1, 2]], (),
           "284da2d9f3c0976816a2eea7a400a57efce663b1f484ee2999ed2bafa7f30928"),
    "A2 as [[2,1],[1,2]]": (A2, (),
                            "f058e2535524b946ebe166dd32876678bf4d9f5764057e889ac1672175d9c56f"),
    "D4": (LADDER_GRAMS[1], (),
           "82143dcf97bcc4d381253823a0c00f6c41174ac32dc2e37ce1f6732e7bd6d88f"),
    "E6": (E6, (), "b5fd3966cdbec6cc2088c5fd36805ffddc6fdfd354fe5ceaea1e601a3f127818"),
    "det36": (DET36, (), "899172e749915c19bd332261b32f7a554a9b7fbf50a64216e427f80173d286e3"),
    "diag(2,6)": (DIAG26, (), "04d6959a02ca769aa4a63d9cf7b120306738b3dfb783bcffd55e691e9b37f33e"),
    "skew diag(2,6)": ([[2, -2], [-2, 8]], (),
                       "d173c6afeda14c1e7563b62e30684bfdf5fbafb1e203a08c8dcd83db3b8afce7"),
    "A1^5": (LADDER_GRAMS[4], (),
             "f361ee82eab70ce67e52bd16bb0a237a69b4c89643fbb8ea66511c47e11f4373"),
    "diag(2,6) without WeightGap": (
        DIAG26, (RULE_WEIGHT_GAP,),
        "0e213e00e4162fe9c7d6d52c4fa3680728249915aa44682d86dbcdf0f73861d8"),
    "diag(2,6) without FusionObstruction": (
        DIAG26, (RULE_FUSION,),
        "a39d67a47670502d3f514e05f327e2964daa6819fb1f5fcbac91701f9d8191d4"),
}


@pytest.mark.parametrize("name", PINNED_DIGESTS)
def test_certificate_bytes_are_pinned(name):
    gram, disabled, digest = PINNED_DIGESTS[name]
    text = certify(lat(gram), disabled=frozenset(disabled)).dumps()
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# frame coordinates are integers from the Gram to the certificate bytes
INTEGER_FRAME_DIGESTS = {
    "diag(2,4,6,8)": ([[2, 0, 0, 0], [0, 4, 0, 0], [0, 0, 6, 0], [0, 0, 0, 8]],
                      "1e8a7fa9ddf11ee5ac6ae90004bc742cb2d18e6847f98c92ebde57a8df0406f1"),
    "A1^5": (LADDER_GRAMS[4], PINNED_DIGESTS["A1^5"][2]),
    "skew diag(2,6)": ([[2, -2], [-2, 8]], PINNED_DIGESTS["skew diag(2,6)"][2]),
    "E8": (E8, "aec4cb8800b645a3a4adce9cec05ab5c5dc86d9bc4c7cc55fafadb1c085ad7df"),
}


@pytest.mark.parametrize("name", INTEGER_FRAME_DIGESTS)
def test_certify_never_scales_a_fraction_vector(monkeypatch, name):
    """Certify enters the coset layer through integer numerators only:
    lattice._scaled, the entry of vectors given as fractions, is never
    called, and the certificate keeps its bytes."""
    from vlplus import branching, lattice, sectors

    for module in (lattice, sectors, branching):
        for fn in vars(module).values():
            if hasattr(fn, "cache_clear"):
                fn.cache_clear()
    calls = []
    real = lattice._scaled

    def counted(v):
        calls.append(v)
        return real(v)

    monkeypatch.setattr(lattice, "_scaled", counted)
    gram, digest = INTEGER_FRAME_DIGESTS[name]
    text = certify(lat(gram)).dumps()
    assert calls == []
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# ---------------------------------------------------------------------------
# the verifier against every kind of record mutant
# ---------------------------------------------------------------------------

RECORD_KINDS = ("drop", "duplicate", "swap", "rename m1", "rename m2", "rule")
MUTATION_KINDS = RECORD_KINDS + ("detail",)  # "detail": a 0 appended to one detail value
# A2, then both FusionObstruction routes: orthogonal on diag(2,6), sublattice on det36
SWEEP_GRAMS = {"A2": A2, "diag26": DIAG26, "det36": DET36}
SWEEP_SAMPLE = 20  # mutants per kind and lattice; the whole product is 11,572 (about 70 s)


def detail_paths(j, depth=0):
    """(depth, key) of every detail value of a justification, inner ones included."""
    paths = [(depth, key) for key in j["detail"]]
    return paths + (detail_paths(j["inner"], depth + 1) if "inner" in j else [])


def record_mutations(cert):
    """(kind, record index, detail path) of every record mutant that can
    never be valid; a swap of equal labels, equal to the original, is left out."""
    for i, record in enumerate(cert["pairs"]):
        for kind in RECORD_KINDS:
            if kind != "swap" or record["m1"] != record["m2"]:
                yield kind, i, None
        for path in detail_paths(record["justification"]):
            yield "detail", i, path


def mutate_record(cert, kind, i, path):
    """Apply one mutation of record_mutations to cert, in place."""
    pairs = cert["pairs"]
    record = pairs[i]
    if kind == "drop":
        del pairs[i]
    elif kind == "duplicate":
        pairs.insert(i, record)
    elif kind == "swap":
        record["m1"], record["m2"] = record["m2"], record["m1"]
    elif kind in ("rename m1", "rename m2"):
        record[kind[-2:]] = "X[0]"
    elif kind == "rule":
        record["justification"]["rule"] = "NoSuchRule"
    else:
        depth, key = path
        j = record["justification"]
        for _ in range(depth):
            j = j["inner"]
        j["detail"][key] += "0"


@pytest.mark.parametrize("name", SWEEP_GRAMS)
def test_verifier_rejects_a_sample_of_every_record_mutant(tmp_path, capsys, name):
    # a derandomized sample of every kind; the first of each kind also goes
    # through the CLI, which must exit 3 with problem lines only
    from vlplus.cli import EXIT_INCOMPLETE, main

    gram = SWEEP_GRAMS[name]
    L = lat(gram)
    text = certify(L).dumps()
    original = json.loads(text)
    by_kind = defaultdict(list)
    for mutation in record_mutations(original):
        by_kind[mutation[0]].append(mutation)
    assert set(by_kind) == set(MUTATION_KINDS), name
    gram_path = tmp_path / "gram.json"
    gram_path.write_text(json.dumps({"gram": gram}))
    cert_path = tmp_path / "mutant.cert"
    rng = random.Random(name)
    for kind in MUTATION_KINDS:
        sample = rng.sample(by_kind[kind], min(SWEEP_SAMPLE, len(by_kind[kind])))
        for n, (_, i, path) in enumerate(sample):
            cert = json.loads(text)
            mutate_record(cert, kind, i, path)
            assert cert != original, (name, kind, i, path)
            assert verify_certificate(L, cert), (name, kind, i, path)
            if n == 0:
                cert_path.write_text(json.dumps(cert))
                code = main(["certify", "--gram", str(gram_path), "--verify", str(cert_path)])
                out, err = capsys.readouterr()
                assert (code, err) == (EXIT_INCOMPLETE, ""), (name, kind, err)
                lines = out.splitlines()
                assert lines and all(line.startswith("problem\t") for line in lines), (name, kind)
