"""The workloads: their inputs, their ops and the checks on each output.

An Op is the unit that gets a time: the sum of its calls' times, with
the median taken over a run's rounds.  A Call is one child forked from
a process that has imported vlplus and run nothing, so every cache
starts empty.  Its steps are program operations (the unit of
``attempted`` and ``failed``), run in order in that child; then its
check compares the outputs with values computed apart from the program
(see oracle.py) and returns a list of problems.

The parent process never calls into vlplus: inputs that need the
program (the certificate to tamper with, the module census to
decompose) are made in forked children too.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import sys
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import oracle

A2 = [[2, -1], [-1, 2]]
A3 = [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]
A4 = [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -1, 2]]
D4 = [[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]]
E6 = [[2, -1, 0, 0, 0, 0], [-1, 2, -1, 0, 0, 0], [0, -1, 2, -1, 0, -1],
      [0, 0, -1, 2, -1, 0], [0, 0, 0, -1, 2, 0], [0, 0, -1, 0, 0, 2]]
E8 = [[2, -1, 0, 0, 0, 0, 0, 0], [-1, 2, -1, 0, 0, 0, 0, 0], [0, -1, 2, -1, 0, 0, 0, -1],
      [0, 0, -1, 2, -1, 0, 0, 0], [0, 0, 0, -1, 2, -1, 0, 0], [0, 0, 0, 0, -1, 2, -1, 0],
      [0, 0, 0, 0, 0, -1, 2, 0], [0, 0, -1, 0, 0, 0, 0, 2]]
DET7 = [[2, 1], [1, 4]]
DET36 = [[2, -1, 0, -1], [-1, 4, 0, -1], [0, 0, 6, 0], [-1, -1, 0, 2]]


def diagonal(*norms):
    return [[n if i == j else 0 for j in range(len(norms))] for i, n in enumerate(norms)]


A1_4 = diagonal(2, 2, 2, 2)
A1_5 = diagonal(2, 2, 2, 2, 2)
DIAG246 = diagonal(2, 4, 6)
TAMPER_BASE = diagonal(2, 6)

# nominal seconds per round on 2 shared vCPUs; a run makes
# max(2, seconds // nominal) rounds, so the count never depends on timing
ROUND_SECONDS = {"certify-ladder": 24, "series": 13, "decompose": 13}
SEEDED_DRAWS = 3
E8_BUDGET_S = 2.0


@dataclass
class Call:
    name: str
    steps: list[Callable[[], object]]
    check: Callable[[list], dict]  # results (None where a step raised) -> report
    timeout: float | None = None


@dataclass
class Op:
    name: str
    kind: str  # "certify", "verify" or "compute"
    calls: list[Call]


@dataclass
class Plan:
    ops: list[Op]
    probe: Call | None = None  # attempted once per run, never timed
    info: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# running the program in process
# ---------------------------------------------------------------------------

def cli(argv: list[str]) -> tuple[int, str]:
    """vlplus.cli.main with stdout and stderr captured: (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = sys.modules["vlplus.cli"].main(argv)
    return code, out.getvalue()


def _write_gram(workdir: str, name: str, gram) -> str:
    path = os.path.join(workdir, name.replace("^", "_").replace(" ", "") + ".json")
    with open(path, "w") as fh:
        json.dump({"gram": gram}, fh)
    return path


def _report(problems: list[str], **extra) -> dict:
    return {"problems": problems, **extra}


# ---------------------------------------------------------------------------
# certify-ladder
# ---------------------------------------------------------------------------

def metric_path(rule_path: str) -> str:
    """certify.pairs.<path>: brackets and parentheses written as '-'."""
    out = rule_path
    for ch in "[]()":
        out = out.replace(ch, "-")
    while "--" in out:
        out = out.replace("--", "-")
    return "certify.pairs." + out.strip("-")


def _rule_path(j: dict) -> str:
    inner = j.get("inner")
    if inner is None:
        route = j.get("detail", {}).get("route")
        return f"{j['rule']}[{route}]" if route else j["rule"]
    return f"{j['rule']}({_rule_path(inner)})"


def _triples(j: dict) -> int:
    n = int(j.get("detail", {}).get("triples", 0))
    return n + (_triples(j["inner"]) if j.get("inner") else 0)


def check_certificate(gram, text: str) -> tuple[list[str], dict]:
    """A Rational certificate holding each ordered pair of labels exactly once."""
    problems = []
    cert = json.loads(text)
    labels = cert["labels"]
    n = oracle.label_count(gram)
    if len(labels) != n or len(set(labels)) != n:
        problems.append(f"{len(labels)} labels, expected {n} distinct")
    if cert["verdict"] != "Rational" or cert["unknown"]:
        problems.append(f"verdict {cert['verdict']} with {len(cert['unknown'])} unknown pairs")
    if cert["gram"] != [list(r) for r in gram]:
        problems.append("certificate holds another Gram matrix")
    pairs = [(p["m1"], p["m2"]) for p in cert["pairs"]]
    if len(pairs) != n * n or set(pairs) != {(a, b) for a in labels for b in labels}:
        problems.append("pairs do not hold each ordered pair exactly once")
    counts = Counter(metric_path(_rule_path(p["justification"])) for p in cert["pairs"])
    counts["certify.triples"] = sum(_triples(p["justification"]) for p in cert["pairs"])
    return problems, dict(counts)


def certify_call(name: str, gram, gram_path: str, cert_path: str, timeout=None) -> Call:
    def step():
        return cli(["certify", "--gram", gram_path, "--out", cert_path])

    def check(results):
        if results[0] is None:
            return _report([])
        code, out = results[0]
        n = oracle.label_count(gram)
        problems = []
        if code != 0 or out != f"verdict\tRational\tpairs\t{n * n}\tunknown\t0\n":
            problems.append(f"exit {code}, output {out!r}")
        with open(cert_path, "rb") as fh:
            data = fh.read()
        more, counts = check_certificate(gram, data.decode())
        return _report(problems + more, digest=hashlib.sha256(data).hexdigest(), counts=counts)

    return Call(f"certify {name}", [step], check, timeout)


def verify_call(name: str, gram_path: str, cert_path: str, tampered: bool) -> Call:
    def step():
        return cli(["certify", "--gram", gram_path, "--verify", cert_path])

    def check(results):
        if results[0] is None:
            return _report([])
        code, out = results[0]
        lines = out.splitlines()
        if tampered:
            ok = code == 3 and lines and all(l.startswith("problem\t") for l in lines)
        else:
            ok = code == 0 and out == "certificate verified\n"
        return _report([] if ok else [f"exit {code}, output {out[:200]!r}"])

    return Call(f"verify {name}", [step], check)


def tampered_certificates(text: str) -> dict[str, str]:
    """Mutations of a good certificate, as JSON text; every one must be rejected.

    The first five come back today as exit 3 with problem lines.  The last
    four raise inside verify_certificate (KeyError, KeyError, ValueError,
    TypeError) and count as failed until the verifier handles every input.
    """
    good = json.loads(text)
    pairs = good["pairs"]
    stranger = "U[9/7" + ",0" * (len(good["gram"]) - 1) + "]"
    gap_at = next(i for i, p in enumerate(pairs)
                  if p["justification"]["rule"] == "WeightGap")
    fusion_at = next(i for i, p in enumerate(pairs)
                     if p["justification"]["rule"] == "FusionObstruction")
    out = {}

    def mutant(name, fn):
        cert = json.loads(text)
        fn(cert)
        out[name] = json.dumps(cert)

    mutant("dropped-pair", lambda c: c["pairs"].pop(gap_at))
    mutant("duplicated-pair", lambda c: c["pairs"].append(pairs[gap_at]))
    mutant("flipped-rule", lambda c: c["pairs"][gap_at]["justification"].update(rule="Vacuum"))
    mutant("perturbed-gap", lambda c: c["pairs"][gap_at]["justification"]["detail"].update(
        gap=str(Fraction(pairs[gap_at]["justification"]["detail"]["gap"]) + 1)))
    mutant("flipped-verdict", lambda c: c.update(verdict="Incomplete"))
    mutant("unknown-label", lambda c: c["pairs"][0].update(m1=stranger))
    mutant("missing-justification", lambda c: c["pairs"][0].pop("justification"))
    mutant("bogus-route", lambda c: c["pairs"][fusion_at]["justification"]["detail"].update(
        route="bogus"))
    mutant("pairs-not-a-list", lambda c: c.update(pairs=7))
    return out


def seeded_grams(seed: int) -> list:
    family = oracle.small_even_grams()
    return random.Random(seed).sample(family, SEEDED_DRAWS)


def certify_ladder(seed: int, workdir: str, fork) -> Plan:
    small = [("A2", A2), ("A3", A3), ("A4", A4), ("D4", D4), ("det7", DET7),
             ("A1^4", A1_4), ("diag246", DIAG246)]
    small += [(f"seeded{i}", g) for i, g in enumerate(seeded_grams(seed), 1)]
    large = [("E6", E6), ("det36", DET36), ("A1^5", A1_5)]
    paths = {}
    for name, gram in small + large + [("E8", E8)]:
        gram_path = _write_gram(workdir, name, gram)
        paths[name] = (gram_path, gram_path[:-len(".json")] + ".cert")

    # the certificate to tamper with is made in a child, so this process
    # stays free of program state; diag(2,6) is the smallest lattice found
    # whose certificate has orthogonal-route pairs
    base_gram = _write_gram(workdir, "diag26", TAMPER_BASE)
    source = fork(lambda: cli(["certify", "--gram", base_gram])[1])
    tampered = []
    for mname, text in tampered_certificates(source).items():
        path = os.path.join(workdir, f"tampered-{mname}.cert")
        with open(path, "w") as fh:
            fh.write(text)
        tampered.append(verify_call(f"diag26 {mname}", base_gram, path, tampered=True))

    def certify(name, gram):
        return certify_call(name, gram, *paths[name])

    def verify(name):
        return verify_call(name, *paths[name], tampered=False)

    # each rung's verify follows its certify, so certify_s and verify_s
    # sample the same stretches of a run
    ops = [Op("certify small+seeded", "certify", [certify(n, g) for n, g in small]),
           Op("verify small+seeded+tampered", "verify",
              [verify(n) for n, _ in small] + tampered)]
    for n, g in large:
        ops += [Op(f"certify {n}", "certify", [certify(n, g)]),
                Op(f"verify {n}", "verify", [verify(n)])]
    probe = certify_call("E8", E8, *paths["E8"], timeout=E8_BUDGET_S)
    return Plan(ops, probe, {"seeded_grams": [g for n, g in small if n.startswith("seeded")]})


# ---------------------------------------------------------------------------
# series
# ---------------------------------------------------------------------------

def check_characters(gram, order: int, chars: dict, theta_form, roots: int) -> list[str]:
    """Identities every character table must satisfy, from closed forms."""
    problems = []
    d = len(gram)
    order = Fraction(order)
    n = oracle.label_count(gram)
    if len(chars) != n:
        problems.append(f"{len(chars)} labels, expected {n}")
    vp, vm = chars["V+"], chars["V-"]
    if oracle.add(vp, vm, -1) != oracle.euler_inv(d, order, alternating=True, half=False):
        problems.append("V+ - V- differs from prod (1+q^n)^-d")
    if theta_form is not None:
        phi = oracle.euler_inv(d, order, alternating=False, half=False)
        theta = oracle.theta_closed(theta_form, int(order))
        want = {}
        for e1, c1 in theta.items():
            for e2, c2 in phi.items():
                if e1 + e2 < order:
                    want[e1 + e2] = want.get(e1 + e2, 0) + c1 * c2
        if oracle.add(vp, vm) != oracle.add(want, {}):
            problems.append("V+ + V- differs from theta_L * prod (1-q^n)^-d")
    if vm.get(Fraction(1), 0) != d + roots // 2:
        problems.append(f"q^1 coefficient of V- is {vm.get(Fraction(1))}, expected {d + roots // 2}")
    shift, dim_t = Fraction(d, 16), oracle.twisted_dim(gram)
    for label, ch in chars.items():
        if label.startswith("T[") and label.endswith("+"):
            other = chars[label[:-1] + "-"]
            for sign, alternating in ((1, False), (-1, True)):
                want = oracle.euler_inv(d, order, alternating, True, shift, dim_t)
                if oracle.add(ch, other, sign) != want:
                    problems.append(f"{label} {'+-'[sign < 0]} its partner differs")
        if label.startswith("C[") and label.endswith("+") and ch != chars[label[:-1] + "-"]:
            problems.append(f"{label} and its partner have different characters")
    return problems


def series_call(name: str, gram, order: int, theta_form, roots: int) -> Call:
    def step():
        vlplus = sys.modules["vlplus"]
        L = vlplus.validate_even_lattice(gram)
        return {
            vlplus.format_label(m): vlplus.character(L, m, Fraction(order)).terms()
            for m in vlplus.classify_modules(L)
        }

    def check(results):
        if results[0] is None:
            return _report([])
        return _report(check_characters(gram, order, results[0], theta_form, roots))

    return Call(f"characters {name}@{order}", [step], check)


def series_ops() -> list[Op]:
    """Every character of one lattice per call: no certify or fusion code runs."""
    roots = oracle.ROOT_COUNTS
    return [
        Op("E8@4", "compute", [series_call("E8", E8, 4, ("E8",), roots["E8"])]),
        Op("E6@6", "compute", [series_call("E6", E6, 6, None, roots["E6"])]),
        Op("A2@200 + A1^4@12 + D4@12", "compute", [
            series_call("A2", A2, 200, ("A2",), roots["A2"]),
            series_call("A1^4", A1_4, 12, ("diag", (1, 1, 1, 1)), 4 * roots["A1"]),
            series_call("D4", D4, 12, ("D4",), roots["D4"]),
        ]),
    ]


# ---------------------------------------------------------------------------
# decompose
# ---------------------------------------------------------------------------

def check_decomposition(out: str, order: int, expected_parts: int) -> list[str]:
    lines = out.splitlines()
    if lines[-1] != f"verified\ttrue\torder\t{order}":
        return [f"last line {lines[-1]!r}"]
    total = 0
    for line in lines[1:-1]:
        if line.startswith("# note"):
            continue
        part, mult = line.rsplit("\t", 1)
        block = int(part.rsplit("x", 1)[1]) if part.startswith("twisted-block") else 1
        total += int(mult) * block
    if total != expected_parts:
        return [f"{total} parts, expected {expected_parts}"]
    return []


def decompose_call(name: str, gram, gram_path: str, labels: list[str], route: str,
                   order: int) -> Call:
    """Every listed module of one lattice, one `vlplus decompose` each, in one child.

    route "sublattice" passes the Gram-Schmidt sublattice as an explicit
    basis: the same sublattice `auto` picks today, fixed so that the
    expected part counts hold if `auto` later picks another frame.
    """
    if route == "sublattice":
        basis = json.dumps([list(b) for b in oracle.gram_schmidt_sublattice(gram)])
        where, count = basis, oracle.sublattice_part_count
    else:
        where, count = "orthogonal-base", oracle.orthogonal_part_count

    def step_for(label):
        return lambda: cli(["decompose", "--gram", gram_path, "--module", label,
                            "--sublattice", where, "--order", str(order)])

    def check(results):
        problems = []
        for label, res in zip(labels, results):
            if res is None:
                continue
            code, out = res
            found = check_decomposition(out, order, count(gram, label))
            if code != 0 or found:
                problems.append(f"{label}: exit {code} {found}")
        return _report(problems)

    return Call(f"decompose {name}", [step_for(l) for l in labels], check)


def decompose_ops(workdir: str, fork) -> list[Op]:
    """Branchings and their character checks: no certify rule runs."""
    rungs = [("A3", A3, "sublattice"), ("A4", A4, "sublattice"), ("D4", D4, "sublattice"),
             ("A1^4", A1_4, "orthogonal"), ("diag246", DIAG246, "orthogonal")]
    paths = {name: _write_gram(workdir, name, gram) for name, gram, _ in rungs}
    paths["E6"] = _write_gram(workdir, "E6", E6)

    def census():
        vlplus = sys.modules["vlplus"]
        return {name: [vlplus.format_label(m) for m in
                       vlplus.classify_modules(vlplus.validate_even_lattice(gram))]
                for name, gram, _ in rungs}

    labels = fork(census)
    for name, gram, _ in rungs:
        if len(labels[name]) != oracle.label_count(gram):
            raise RuntimeError(f"census of {name} has {len(labels[name])} labels")

    def call(name, gram, route, order=12, only=None):
        return decompose_call(name, gram, paths[name], only or labels[name], route, order)

    return [
        Op("sublattice A3 + A4", "compute", [call("A3", A3, "sublattice"),
                                             call("A4", A4, "sublattice")]),
        Op("sublattice D4", "compute", [call("D4", D4, "sublattice")]),
        Op("sublattice E6 V+@2", "compute", [call("E6", E6, "sublattice", 2, ["V+"])]),
        Op("orthogonal A1^4 + diag246", "compute", [call("A1^4", A1_4, "orthogonal"),
                                                    call("diag246", DIAG246, "orthogonal")]),
    ]


def series(seed: int, workdir: str, fork) -> Plan:
    return Plan(series_ops())


def decompose(seed: int, workdir: str, fork) -> Plan:
    return Plan(decompose_ops(workdir, fork))


WORKLOADS = {"certify-ladder": certify_ladder, "series": series, "decompose": decompose}
