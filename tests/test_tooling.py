"""The perfbench tracer names functions of the package; keep them resolvable."""

import importlib
import importlib.util
from pathlib import Path

from conftest import verify_text

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    for modname, attr, layer, kind in load_spans().TRACED:
        target = importlib.import_module(modname)
        for part in attr.split("."):
            assert hasattr(target, part), f"{modname}.{attr} ({layer}) is gone"
            target = getattr(target, part)
        assert callable(target), f"{modname}.{attr} is not callable"
        if kind == "lru":
            assert hasattr(target, "cache_info"), f"{modname}.{attr} is traced as lru, uncached"


def test_tracer_sees_weight_gap_calls(monkeypatch):
    # the tracer counts WeightGap by rebinding the module global
    # weight_gap_rule; certify must reach the rule through that name
    from vlplus.lattice import validate_even_lattice

    module = importlib.import_module("vlplus.certify")  # the package attribute is the function
    L = validate_even_lattice([[2, 0], [0, 6]])
    reference = module.certify(L).dumps()
    calls = []
    original = module.weight_gap_rule

    def counting(*args, **kwargs):
        calls.append(args[1:])
        return original(*args, **kwargs)

    monkeypatch.setattr(module, "weight_gap_rule", counting)
    assert module.certify(L).dumps() == reference
    assert calls


def test_euler_products_make_no_series_products(monkeypatch):
    # the tracer's qseries.mul layer times QSeries.__mul__; building an
    # Euler product must not go through it, so mul_calls counts only the
    # products of characters
    from fractions import Fraction

    from vlplus.qseries import QSeries, euler_product_inv

    calls = []
    original = QSeries.__mul__

    def counting(self, other):
        calls.append(1)
        return original(self, other)

    monkeypatch.setattr(QSeries, "__mul__", counting)
    assert euler_product_inv.__wrapped__(2, Fraction(200), 48).terms()[1] == 2
    assert calls == []


def test_certify_neither_branches_nor_walks_rank_one_fusion(monkeypatch):
    # the tracer's branching.orthogonal, fusion.rank1 and fusion.admissible
    # layers count these calls; both FusionObstruction routes decide from
    # per-label constituents, so certify must make none, whichever
    # module's binding it would use
    import sys

    from vlplus.lattice import validate_even_lattice

    module = importlib.import_module("vlplus.certify")
    calls = []
    for name in ("branch_orthogonal", "rank1_fusion", "admissible_triple"):
        for modname, mod in list(sys.modules.items()):
            if modname.startswith("vlplus") and hasattr(mod, name):
                original = getattr(mod, name)

                def counting(*args, _name=name, _original=original, **kwargs):
                    calls.append(_name)
                    return _original(*args, **kwargs)

                monkeypatch.setattr(mod, name, counting)
    det36 = [[2, -1, 0, -1], [-1, 4, 0, -1], [0, 0, 6, 0], [-1, -1, 0, 2]]
    for gram, route in (([[2, 0, 0, 0], [0, 2, 0, 0], [0, 0, 2, 0], [0, 0, 0, 2]], "orthogonal"),
                        ([[2, -2], [-2, 8]], "orthogonal"), (det36, "sublattice")):
        cert = module.certify(validate_even_lattice(gram))
        assert f"FusionObstruction[{route}]" in cert.rule_map().values()
    assert calls == []


def test_census_and_branching_walk_once_per_negation_pair(monkeypatch):
    # the shell of -c is the negated shell of c: the census walks one class
    # of each +- pair and the branching one class of each orbit
    from conftest import A3, E6, lat
    from vlplus import lattice
    from vlplus.branching import _class_table, branch_sublattice
    from vlplus.lattice import (_gram_schmidt, coset_reps_mod_sublattice, coset_two_torsion,
                                dual_orbits, minimal_coset_reps, sublattice_classes)
    from vlplus.sectors import VAC_PLUS, classify_modules

    # every class canonicalization goes through lattice._coset_shell: a walk,
    # or the closed form of a diagonal Gram such as the Gram-Schmidt sublattice's
    calls = []
    original = lattice._coset_shell

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(lattice, "_coset_shell", counting)
    for cached in (dual_orbits, classify_modules, coset_reps_mod_sublattice, sublattice_classes,
                   _class_table):
        cached.cache_clear()
    L = lat(E6)
    classify_modules(L)
    walks = len(calls)
    reps = minimal_coset_reps(L)  # walked after the count
    pairs = (len(reps) + sum(coset_two_torsion(L, c) for c in reps)) // 2
    assert pairs == 2 and walks <= pairs

    L = lat(A3)
    S = _gram_schmidt(L)
    calls.clear()
    classes = coset_reps_mod_sublattice(L, S.basis)
    self_paired = sum(all(2 * y % S.smith[-1] == 0 for y in S.sub_nums(g)) for g in classes)
    assert len(calls) <= (len(classes) + self_paired) // 2
    calls.clear()
    bl = branch_sublattice(L, S.basis, VAC_PLUS)
    assert len(bl.parts) < len(classes) and len(calls) <= len(bl.parts)


def test_sublattice_check_walks_parts_below_the_order_and_multiplies_once(monkeypatch):
    # the tracer's qseries.mul layer and the norm counts see the character
    # check: one theta count for the parent and for each part whose least
    # norm is below twice the order, and every part's theta summed under
    # one product with the sublattice's Euler product; the V+- parts now
    # share one walk of the sublattice's zero coset inside that product
    from fractions import Fraction

    from conftest import E6, lat
    from vlplus import qseries
    from vlplus.branching import branch_sublattice, verify_branch
    from vlplus.lattice import orthogonal_sublattice
    from vlplus.qseries import QSeries, euler_product_inv, series_denominator, theta_coset
    from vlplus.sectors import LabelKind, VAC_PLUS

    L = lat(E6)
    order = Fraction(2)
    bl = branch_sublattice(L, orthogonal_sublattice(L).basis, VAC_PLUS)
    sub = bl.sublattice
    vacuum = [p for p in bl.parts if p.kind in (LabelKind.VAC_PLUS, LabelKind.VAC_MINUS)]
    below = sum(p.coset is None or p.coset.min_norm < 2 * order for p in bl.parts)
    assert vacuum and below < len(bl.parts)
    phi_inv = euler_product_inv(sub.rank, order, series_denominator(sub))
    theta_coset.cache_clear()

    walks, products = [], []
    walk, mul = qseries.coset_norm_counts, QSeries.__mul__

    def counting_walk(*args):
        walks.append(args)
        return walk(*args)

    def counting_mul(self, other):
        products.append(self is phi_inv or other is phi_inv)
        return mul(self, other)

    monkeypatch.setattr(qseries, "coset_norm_counts", counting_walk)
    monkeypatch.setattr(QSeries, "__mul__", counting_mul)
    assert verify_branch(bl, order)
    assert len(walks) <= 1 + below
    assert sum(products) <= 1


def test_verify_of_another_layout_encodes_no_justification(monkeypatch):
    # verify_text compares the file chunk by chunk as it derives them: a
    # file in another layout (every tampered file of certify-ladder is
    # unindented json.dumps) differs in the head chunk, so no row is encoded
    import json

    from vlplus.lattice import validate_even_lattice

    module = importlib.import_module("vlplus.certify")
    L = validate_even_lattice([[2, 0], [0, 6]])
    good = module.certify(L).to_json()
    drawn = []
    chunks = module.ExtCertificate.chunks

    def counted(self):
        for chunk in chunks(self):
            drawn.append(chunk)
            yield chunk

    monkeypatch.setattr(module.ExtCertificate, "chunks", counted)
    assert verify_text(L, json.dumps(good)) == ([], good["verdict"])
    assert len(drawn) == 1 and '"justification"' not in drawn[0]


def test_certify_encodes_each_other_justification_once_and_no_weight_gap(monkeypatch):
    # a WeightGap record's front is one template filled with its two quoted
    # strings, never _encode; a justification of another rule goes through
    # _encode once, however many pairs share it
    import json

    from vlplus.lattice import validate_even_lattice

    module = importlib.import_module("vlplus.certify")
    L = validate_even_lattice([[2, 0, 0], [0, 4, 0], [0, 0, 6]])
    reference = module.certify(L).dumps()
    encoded = []  # (value, newline) of each justification _encode is given
    encode = module._encode

    def counted(value, newline):
        if isinstance(value, dict) and "rule" in value:
            encoded.append((value, newline))
        return encode(value, newline)

    monkeypatch.setattr(module, "_encode", counted)
    cert = module.certify(L)
    assert cert.dumps() == reference
    assert all(value["rule"] != module.RULE_WEIGHT_GAP for value, _ in encoded)
    # a record's justification sits at the indent of a record; an inner one deeper
    records = [json.dumps(value, sort_keys=True) for value, newline in encoded
               if newline == "\n      "]
    others = {json.dumps(j.to_json(), sort_keys=True) for _, _, j in cert.pairs
              if j.rule != module.RULE_WEIGHT_GAP}
    assert len(records) == len(set(records)) and set(records) == others and others
