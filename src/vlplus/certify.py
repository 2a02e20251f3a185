"""Per-pair vanishing certificates for extensions between irreducibles.

For every ordered pair (m1, m2) of irreducible labels the certifier
searches a fixed rule chain for a reason that every extension of m2 by
m1 splits, and records the first rule that applies:

  WeightGap          lowest-weight difference is not a nonzero integer
  Vacuum             the pair (minus vacuum, plus vacuum): a singular
                     vector generates a complemented algebra copy
  Duality            a base rule applies to the contragredient pair
  FusionObstruction  every intertwiner type over a proper rational
                     fixed-point subalgebra vanishes: the two labels'
                     constituent keys differ, or their parities do
                     (subalgebra_route makes one route live per lattice)

A rule is recorded only when its hypothesis is decided exactly; an
Unknown never counts as vanishing.  If no rule applies the pair is
reported in the unknown list and the verdict is Incomplete, so the
procedure is falsifiable by construction.

No rule reads the 2-cocycle normalization or the square-root branch
that lift the involution: the algebra and its modules do not depend on
them, so neither is an input.  The v1 metadata still records the
defaults (cocycle_mode "upper", root_branch "1"), and verification
also accepts "lower" and "-1", which older writers could record.

This module keeps the census, the per-weight WeightGap table and the v1
writer; what the other rules read of a label is its row over the
orthogonal sublattice from label_rows (branching.py), made only for
labels of pairs WeightGap leaves open.

A certificate holds one row of justifications per label.  The labels of
one lowest weight whose row WeightGap decides alone share that row, and
only the pairs WeightGap leaves open walk the rest of the chain.  Its
text is written a row at a time (ExtCertificate.chunks), never as one
string, at string-formatting cost: each distinct lowest weight's text is
formatted once per lattice, a WeightGap record's front is one template
filled with its quoted gap and weights strings, and only a record of
another rule is encoded, once per distinct justification.  A certificate
file is verified by re-deriving it (verify_stream) and comparing each
chunk with the file's next characters as it is read, never holding its
text: a file whose text is what certify writes for the lattice is
verified by that equality alone, and any other file, where the
comparison stops at the first chunk that differs, is read whole, parsed
and re-checked record by record (verify_certificate).  A v1 certificate
lists all n^2 ordered pairs of the n labels, so certify and
verify_stream refuse a lattice whose census size (module_count) makes
more than TooManyPairs.limit pairs, before taking the census.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import islice
from typing import NamedTuple

from .branching import label_rows, subalgebra_route
from .lattice import EvenLattice, LatticeError, orthogonal_sublattice
from .sectors import (
    LabelKind,
    ModuleLabel,
    VAC_PLUS,
    classify_modules,
    format_label,
    format_ratio,
    module_count,
    series_denominator,
    weight_num,
)

RULE_WEIGHT_GAP = "WeightGap"
RULE_VACUUM = "Vacuum"
RULE_DUALITY = "Duality"
RULE_FUSION = "FusionObstruction"
ALL_RULES = (RULE_WEIGHT_GAP, RULE_VACUUM, RULE_DUALITY, RULE_FUSION)
ROUTES = ("sublattice", "orthogonal")

VERDICT_RATIONAL = "Rational"
VERDICT_INCOMPLETE = "Incomplete"

CERT_FORMAT = "vlplus-certificate-v1"
CERT_KEYS = frozenset(("format", "gram", "labels", "verdict", "pairs", "unknown", "metadata"))
RULE_ORDER = ("WeightGap,Vacuum,Duality[base],FusionObstruction[sublattice],"
              "FusionObstruction[orthogonal],Duality[FusionObstruction]")

CITATIONS = {
    RULE_WEIGHT_GAP: (
        "the lowest weights differ by a non-integer or by zero, and the "
        "finite semisimple top-level algebra splits any extension between "
        "such weights"
    ),
    RULE_VACUUM: (
        "a vector killed by both the translation and scaling operators "
        "generates a complemented copy of the whole algebra inside any "
        "extension; the comparison subalgebra shares the conformal vector"
    ),
    RULE_DUALITY: (
        "extensions split exactly when they split for the contragredient "
        "pair in the opposite order"
    ),
    RULE_FUSION: (
        "every intertwiner type from the algebra and the second module "
        "into the first vanishes over a rational fixed-point subalgebra "
        "with the same conformal vector, so any extension is a module map"
    ),
}


class TooManyPairs(LatticeError):
    """A census with more ordered pairs than a v1 certificate is built for.

    Through the CLI, A1^8's 1,048,576 pairs take about 0.9-1.3 s and
    21 MB of peak RSS to certify and write a row at a time (413 MB), and
    0.7-1.0 s and 23 MB to verify, comparing the file as it is read (a
    file that differs is read whole): ten fresh processes of each on 2
    shared vCPUs, peak RSS from os.wait4.  The limit, twice that count,
    keeps a file under about 1 GB.
    """

    limit = 1 << 21

    def __init__(self, n: int):
        super().__init__(f"{n * n} ordered pairs of {n} labels are more than the "
                         f"{self.limit} a certificate holds")


class ExtJustification(NamedTuple):
    """One pair's reason: a tuple, so it compares equal to a plain tuple
    of the same fields, and hashes in C."""

    rule: str
    citation: str
    detail: tuple[tuple[str, str], ...] = ()
    inner: "ExtJustification | None" = None

    def to_json(self) -> dict:
        out = {"rule": self.rule, "citation": self.citation,
               "detail": {k: v for k, v in self.detail}}
        if self.inner is not None:
            out["inner"] = self.inner.to_json()
        return out


@dataclass(frozen=True)
class ExtCertificate:
    """rows[i][k] justifies the pair (labels[i], labels[k]), or is None
    where that pair is in unknown; labels whose rows certify builds equal
    share one tuple."""

    gram: tuple[tuple[int, ...], ...]
    labels: tuple[str, ...]
    rows: tuple[tuple[ExtJustification | None, ...], ...]
    unknown: tuple[tuple[str, str], ...]
    verdict: str
    metadata: tuple[tuple[str, str], ...] = ()

    @cached_property
    def pairs(self) -> tuple[tuple[str, str, ExtJustification], ...]:
        """(m1, m2, justification) of each justified pair, row by row."""
        return tuple((a, b, j) for a, row in zip(self.labels, self.rows)
                     for b, j in zip(self.labels, row) if j is not None)

    def to_json(self) -> dict:
        return {
            "format": CERT_FORMAT,
            "gram": [list(r) for r in self.gram],
            "labels": list(self.labels),
            "verdict": self.verdict,
            "pairs": [
                {"m1": a, "m2": b, "justification": j.to_json()} for a, b, j in self.pairs
            ],
            "unknown": [list(p) for p in self.unknown],
            "metadata": {k: v for k, v in self.metadata},
        }

    def dumps(self) -> str:
        """json.dumps(self.to_json(), sort_keys=True, indent=2) and a final
        newline, byte for byte: the chunks joined."""
        return "".join(self.chunks())

    def chunks(self):
        """dumps() in pieces: the text before the first pair record, the
        records of each row that has one, and the rest.

        Sorted keys put "pairs" between "metadata" and "unknown".  A record
        is a front (its justification at the depth of a record), its
        quoted m1 and a tail (its quoted m2).  Each distinct
        justification's front is built once (_front: a WeightGap one fills
        the _GAP_FRONT template, any other is encoded), and so are the
        pieces between the m1s of a row that several labels share, kept
        until its last label's text is made; a row's text is its pieces
        joined by its label's quoted name.
        """
        justified = len(self.unknown) < len(self.labels) ** 2
        yield ("{" + _members((("format", CERT_FORMAT), ("gram", [list(r) for r in self.gram]),
                               ("labels", list(self.labels)), ("metadata", dict(self.metadata))))
               + ',\n  "pairs": ' + ("[\n" if justified else "[],"))
        quoted = [_quote(a) for a in self.labels]
        tails = [',\n      "m2": ' + q + "\n    }" for q in quoted]
        fronts: dict[int, str] = {}  # id(j) -> front of j
        uses: dict[int, int] = {}  # id(row) -> its labels left to write
        for row in self.rows:
            uses[id(row)] = uses.get(id(row), 0) + 1
        pieces = {}  # id(row) -> the pieces of a row that labels left to write share
        separator = ""
        for q, row in zip(quoted, self.rows):
            cut = pieces.pop(id(row), None)
            if cut is None:
                cut = _row_pieces(row, fronts, tails)
            uses[id(row)] -= 1
            if uses[id(row)]:
                pieces[id(row)] = cut
            if cut:
                # the separator joins the first piece, not the row's text
                yield q.join([separator + cut[0], *cut[1:]])
                separator = ",\n"
        yield (("\n  ]," if justified else "")
               + _members((("unknown", [list(p) for p in self.unknown]), ("verdict", self.verdict)))
               + "\n}\n")

    def rule_map(self) -> dict[tuple[str, str], str]:
        """Pair-to-rule-name view: the rule path each justified pair records."""
        return {(a, b): _rule_path(j) for a, b, j in self.pairs}


_quote = json.encoder.encode_basestring_ascii


def _row_pieces(row, fronts: dict[int, str], tails: list[str]) -> list[str]:
    """A row's records cut at each quoted m1: the first front, each tail
    with the next front, and the last tail ([] for a row of no record)."""
    cols = [k for k, j in enumerate(row) if j is not None]
    if not cols:
        return []
    texts = [fronts.get(id(row[k])) or _front(fronts, row[k]) for k in cols]
    return texts[:1] + [tails[k] + ",\n" + t for k, t in zip(cols, texts[1:])] + [tails[cols[-1]]]


def _front(fronts: dict[int, str], j: ExtJustification) -> str:
    """The text of a record of j up to its quoted m1, cached in fronts by
    id(j).  A WeightGap justification of the shape weight_gap_rule builds
    (its citation, gap and weights keys in that order, no inner) is
    _GAP_FRONT's three pieces around its two strings, each through _quote;
    any other justification is encoded."""
    rule, citation, detail, inner = j
    if (rule == RULE_WEIGHT_GAP and citation == _GAP_CITATION and inner is None
            and len(detail) == 2 and detail[0][0] == "gap" and detail[1][0] == "weights"):
        head, middle, tail = _GAP_FRONT
        text = head + _quote(detail[0][1]) + middle + _quote(detail[1][1]) + tail
    else:
        text = _RECORD_HEAD + _encode(j.to_json(), "\n      ") + _RECORD_M1
    fronts[id(j)] = text
    return text


def _members(items) -> str:
    """The members (key, value) of a top-level object as json.dumps(...,
    sort_keys=True, indent=2) writes them, comma-separated, each after a
    line break."""
    return ",".join("\n  " + _quote(k) + ": " + _encode(v, "\n  ") for k, v in items)


def _encode(value, newline: str) -> str:
    """json.dumps(value, sort_keys=True, indent=2) for strings, integers,
    lists and string-keyed objects, each line break written as newline
    (a line break and the enclosing indent)."""
    if isinstance(value, str):
        return _quote(value)
    if type(value) is int:
        return repr(value)
    if not value or not isinstance(value, (dict, list)):
        return json.dumps(value)
    inner = newline + "  "
    if isinstance(value, dict):
        items = [f"{_quote(k)}: {_encode(v, inner)}" for k, v in sorted(value.items())]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    return "[" + inner + ("," + inner).join([_encode(v, inner) for v in value]) + newline + "]"


_RECORD_HEAD, _RECORD_M1 = '    {\n      "justification": ', ',\n      "m1": '
_GAP_CITATION = CITATIONS[RULE_WEIGHT_GAP]
# the front of every WeightGap record, cut where its quoted gap and weights
# strings go: _encode of a justification that holds a placeholder for each
_GAP_FRONT = (_RECORD_HEAD + _encode(ExtJustification(
    RULE_WEIGHT_GAP, _GAP_CITATION, (("gap", "\0"), ("weights", "\0"))).to_json(), "\n      ")
    + _RECORD_M1).split(_quote("\0"))


def _rule_path(j: ExtJustification) -> str:
    if j.inner is None:
        detail = dict(j.detail)
        route = detail.get("route")
        return f"{j.rule}[{route}]" if route else j.rule
    return f"{j.rule}({_rule_path(j.inner)})"


class _Context:
    """Shared per-lattice data for the rule chain: labels and their
    names, each distinct lowest weight's numerator and text, the WeightGap
    table over weight ids, the sublattice sub with its route, and rows,
    label_rows(sub), which the other rules read.  Raises TooManyPairs, from
    module_count before the census, for more than its limit of pairs."""

    def __init__(self, L: EvenLattice):
        self.L = L
        n = module_count(L)
        if n * n > TooManyPairs.limit:
            raise TooManyPairs(n)
        self.labels = classify_modules(L)
        self.names = [format_label(m) for m in self.labels]
        # weights[m] is (weight id, numerator over the series grid, its
        # format_ratio text) of label m's lowest weight, each made once per
        # distinct weight; weight_ids[i] is the weight id of labels[i], and
        # weight_reps[w] the first label of weight id w
        self.grid = series_denominator(L)
        seen: dict[int, tuple[int, int, str]] = {}  # numerator -> weights entry
        self.weights: dict[ModuleLabel, tuple[int, int, str]] = {}
        self.weight_reps: list[ModuleLabel] = []
        self.weight_ids = []
        for m in self.labels:
            k = weight_num(L, m)
            if k not in seen:
                seen[k] = (len(self.weight_reps), k, format_ratio(k, self.grid))
                self.weight_reps.append(m)
            self.weights[m] = seen[k]
            self.weight_ids.append(seen[k][0])
        self.sub = orthogonal_sublattice(L)
        self.sub_norms = ",".join(str(row[i]) for i, row in enumerate(self.sub.lattice.gram))
        self.route = subalgebra_route(self.sub)
        self.rows = label_rows(self.sub)

    @cached_property
    def gaps(self) -> list[list[ExtJustification | None]]:
        """gaps[w1][w2] is weight_gap_rule on labels of weight ids w1, w2.

        The rule reads only the two lowest weights, so the table decides
        every pair of labels: weight_gap_rule is called once per pair of
        weights, on representative labels, and the label pairs of two
        weights share its one object.
        """
        return [[weight_gap_rule(self, a, b) for b in self.weight_reps] for a in self.weight_reps]

    @cached_property
    def gap_json(self) -> list[list[dict | None]]:
        """to_json() of each gaps entry, for comparing recorded WeightGap
        pairs: dicts of the entries' own strings."""
        return [[None if j is None else j.to_json() for j in row] for row in self.gaps]


def weight_gap_rule(ctx: _Context, m1: ModuleLabel, m2: ModuleLabel):
    """Applies iff the lowest weights, numerators k1, k2 over the series
    grid, differ by zero or by a non-integer.  The numerators and the
    weights' texts are the labels' ctx.weights entries; only the gap is
    formatted per call, once per pair of weights through ctx.gaps."""
    (_, k1, t1), (_, k2, t2) = ctx.weights[m1], ctx.weights[m2]
    if k1 != k2 and (k1 - k2) % ctx.grid == 0:
        return None
    return ExtJustification(RULE_WEIGHT_GAP, _GAP_CITATION,
                            (("gap", format_ratio(k1 - k2, ctx.grid)), ("weights", t1 + "," + t2)))


def vacuum_rule(ctx: _Context, m1: ModuleLabel, m2: ModuleLabel):
    if m1.kind != LabelKind.VAC_MINUS or m2.kind != LabelKind.VAC_PLUS:
        return None
    return ExtJustification(
        rule=RULE_VACUUM,
        citation=CITATIONS[RULE_VACUUM],
        detail=(("subalgebra", f"orthogonal sublattice of norms [{ctx.sub_norms}]"),),
    )


def fusion_obstruction_rule(ctx: _Context, m1: ModuleLabel, m2: ModuleLabel, route: str):
    """Obstruction rule: every subalgebra intertwiner type must be Zero.

    Only the lattice's live route applies, and each label's key, parity
    and part count are its ctx.rows row.  On either route some triple
    (V+ part, m2 part, m1 part) is nonzero iff the two labels have equal
    keys and, where both have one, equal parities; so the rule applies
    iff the keys differ or both parities are set and differ.
    Sublattice route (a proper sublattice L'): the constituents of a
    label with coset lambda (0 for V+-) lift to +-lambda mod L and those
    of V+ meet every class of L mod L', so some triple is admissible iff
    lambda2 = +-lambda1 mod L, i.e. the cosets are equal; one twisted
    side makes every triple Zero by parity, and two twisted labels, both
    keyed None, cannot be compared.  Orthogonal route: a triple is
    nonzero iff every factor's rank-one vacuum row is.  There V+ is the
    identity and V- a simple current flipping the sign, so a factor's
    step is nonzero iff m2 and m1 offer the same labels there, and the
    V+ sign bit of the step is the sum of theirs on a signed factor and
    free on an orbit factor.  With every factor signed the reachable
    parities are exactly a = b + c mod 2, and V+'s parity 0 forces equal
    signs; an orbit factor makes every parity reachable (and leaves both
    labels unsigned).  Any triple that is not decidably Zero makes the
    rule inapplicable; it is never unsound.
    """
    if route != ctx.route:
        return None
    (_, k2, p2, n2), (_, k1, p1, n1) = ctx.rows(m2), ctx.rows(m1)
    if k2 == k1 and (p2 is None or p1 is None or p2 == p1):
        return None
    triples = str(ctx.rows(VAC_PLUS).parts * n2 * n1)
    if route == "orthogonal":
        detail = (
            ("route", route),
            ("subalgebra", f"tensor of rank-one fixed points, norms [{ctx.sub_norms}]"),
            ("triples", triples),
        )
    else:
        by_parity = (k1 is None) != (k2 is None)  # exactly one side is twisted
        detail = (
            ("route", route),
            ("subalgebra", f"fixed points over sublattice of norms [{ctx.sub_norms}]"),
            ("triples", triples),
            ("zero_by_parity", triples if by_parity else "0"),
            ("zero_by_admissibility", "0" if by_parity else triples),
        )
    return ExtJustification(rule=RULE_FUSION, citation=CITATIONS[RULE_FUSION], detail=detail)


def duality_rule(ctx: _Context, m1: ModuleLabel, m2: ModuleLabel, base_rules):
    d1, d2 = ctx.rows(m2).dual, ctx.rows(m1).dual
    for fn in base_rules:
        inner = fn(ctx, d1, d2)
        if inner is not None:
            return ExtJustification(
                rule=RULE_DUALITY,
                citation=CITATIONS[RULE_DUALITY],
                detail=(("dual_pair", f"{format_label(d1)},{format_label(d2)}"),),
                inner=inner,
            )
    return None


def _chain(disabled: frozenset, route: str) -> list:
    """The enabled rules that can decide a pair WeightGap leaves open, in
    rule_order, each called as rule(ctx, m1, m2): Vacuum, Duality over
    Vacuum, and FusionObstruction on the live route (no other can apply).

    A contragredient keeps its label's lowest weight and FusionObstruction
    key and parity, and the rules' conditions are symmetric in the pair,
    so Duality over WeightGap or FusionObstruction applies to a pair only
    where the rule itself already does; neither is in the chain.  Built
    per call, not at import: a tracer that rebinds the module's rule
    names (perfbench/spans.py) then sees every rule call.
    """
    chain = []
    if RULE_VACUUM not in disabled:
        chain.append(vacuum_rule)
        if RULE_DUALITY not in disabled:
            chain.append(partial(duality_rule, base_rules=[vacuum_rule]))
    if RULE_FUSION not in disabled:
        chain.append(partial(fusion_obstruction_rule, route=route))
    return chain


def certify(L: EvenLattice, *, disabled: frozenset = frozenset()) -> ExtCertificate:
    """Certificate over all ordered pairs of irreducible labels.

    Deterministic: identical Gram matrices yield byte-identical output.
    Each pair is justified by the first rule of the chain that applies.
    Raises TooManyPairs for a census of more than its limit of pairs.
    """
    return _certify(_Context(L), disabled)


def _certify(ctx: _Context, disabled: frozenset = frozenset()) -> ExtCertificate:
    """certify over a context that the caller has built."""
    L = ctx.L
    chain = _chain(disabled, ctx.route)
    # WeightGap heads rule_order; the per-weight table stands in for it
    n = len(ctx.weight_reps)
    gaps = [[None] * n] * n if RULE_WEIGHT_GAP in disabled else ctx.gaps
    # per weight id: its row of table entries, and the columns that row leaves open
    gap_rows = [tuple(map(gap_row.__getitem__, ctx.weight_ids)) for gap_row in gaps]
    open_cols = [[k for k, j in enumerate(row) if j is None] for row in gap_rows]
    rows = []
    unknown = []
    # equal chain justifications share the first object, and then equal rows,
    # keyed by their entries' ids, do too: chunks() builds each once
    shared: dict[ExtJustification, ExtJustification] = {}
    shared_rows: dict[tuple[int, ...], tuple] = {}
    for m1, w1, a in zip(ctx.labels, ctx.weight_ids, ctx.names):
        row = gap_rows[w1]
        if open_cols[w1]:
            row = list(row)
            for k in open_cols[w1]:
                j = next(filter(None, (rule(ctx, m1, ctx.labels[k]) for rule in chain)), None)
                if j is None:
                    unknown.append((a, ctx.names[k]))
                else:
                    row[k] = shared.setdefault(j, j)
            row = shared_rows.setdefault(tuple(map(id, row)), tuple(row))
        rows.append(row)
    verdict = VERDICT_RATIONAL if not unknown else VERDICT_INCOMPLETE
    metadata = (
        ("denominator", str(ctx.grid)),
        ("cocycle_mode", "upper"),
        ("root_branch", "1"),
        ("rule_order", RULE_ORDER),
    )
    return ExtCertificate(
        gram=L.gram,
        labels=tuple(ctx.names),
        rows=tuple(rows),
        unknown=tuple(unknown),
        verdict=verdict,
        metadata=metadata,
    )


# ---------------------------------------------------------------------------
# certificate re-verification
# ---------------------------------------------------------------------------

def verify_stream(L: EvenLattice, fh) -> tuple[list[str], str | None]:
    """Verify a certificate file read from fh: verify_certificate's
    problems, found by re-deriving the file before parsing any of it, and
    the verdict of a file that has none (None when there are problems).

    The re-derived certificate's chunks() are compared, as they are made,
    with as many characters read from fh, and the comparison stops at the
    first chunk that differs: a file in another layout stops at the head,
    before any row is encoded.  fh is read forward only, never whole
    while the chunks match, and never seeked, so a pipe serves.  If the
    file is certify(L).dumps(), every chunk matches and one more read
    finds its end; there are no problems, and the verdict is the
    re-derived certificate's.  Every record certify writes is, by
    construction, the value its rule (and route) returns for that pair,
    which is what the per-record check recomputes and compares; each pair
    is written once, justified or unknown; the verdict is the one its
    unknown list gives; and the metadata holds the defaults.  So
    verify_certificate returns [] on the parsed text, and equality is as
    strong a check as the per-record one.  Any other file (a disabled
    rule, "lower" or "-1" metadata, another layout, any tampering) has its
    text rebuilt from the chunks that matched, the characters that did
    not and the rest of fh, and is parsed and checked record by record
    over the context the re-derivation built; a file without problems has
    the verdict it records, which the check found consistent with its
    unknown list.  ValueError if the file is not a certificate file (or
    does not decode); TooManyPairs for a census too large to certify.
    """
    ctx = _Context(L)
    derived = _certify(ctx)
    matched = 0
    for chunk in derived.chunks():
        read = fh.read(len(chunk))
        if read != chunk:
            break
        matched += 1
    else:
        read = fh.read(1)
        if not read:
            return [], derived.verdict
    cert = load_certificate("".join(islice(derived.chunks(), matched)) + read + fh.read())
    problems = verify_certificate(L, cert, ctx=ctx)
    return problems, None if problems else cert["verdict"]


def verify_certificate(L: EvenLattice, cert, *, ctx: _Context | None = None) -> list[str]:
    """Re-check every recorded justification from scratch.

    Returns a list of problems; an empty list means the certificate
    re-verifies.  Any JSON value is answered with problems, never an
    exception.  Each pair's recorded rule is re-evaluated (not the whole
    chain) and the recorded justification must equal the recomputed one
    in full; coverage of the ordered-pair square is checked, and the
    verdict is recomputed.  The top-level keys must be exactly those of
    the format, and the metadata must hold the lattice's series
    denominator, the fixed rule order and a known convention.  ctx, a
    _Context of L, saves building another.  A certificate file goes
    through verify_stream, which calls this only for a file that differs
    from what certify writes.
    """
    if not isinstance(cert, dict):
        return ["certificate is not a JSON object"]
    ctx = ctx or _Context(L)
    if cert.get("labels") != ctx.names:
        return ["label census does not match the lattice"]
    if cert.get("gram") != [list(r) for r in L.gram]:
        return ["gram matrix mismatch"]
    pairs, unknown = cert.get("pairs", []), cert.get("unknown", [])
    if not isinstance(pairs, list) or not isinstance(unknown, list):
        return ["pairs and unknown must be lists"]
    index = {a: i for i, a in enumerate(ctx.names)}
    n = len(index)
    problems = _header_problems(L, cert)
    justified = set()  # i1 * n + i2 of each pair counted
    for i, entry in enumerate(pairs):
        a, b = (entry.get("m1"), entry.get("m2")) if isinstance(entry, dict) else (None, None)
        i1, i2 = _label_indices(index, a, b)
        if i1 is None or i2 is None:
            problems.append(f"pairs[{i}] does not name two labels of the lattice")
            continue
        if i1 * n + i2 in justified:
            problems.append(f"duplicate pair ({a}, {b})")
            continue
        justified.add(i1 * n + i2)
        j = entry.get("justification")
        if not isinstance(j, dict):
            problems.append(f"pair ({a}, {b}): justification missing")
            continue
        # a WeightGap record is one lookup in the table over weight ids
        if j.get("rule") == RULE_WEIGHT_GAP:
            fresh = ctx.gap_json[ctx.weight_ids[i1]][ctx.weight_ids[i2]]
        else:
            fresh = _rerun(ctx, ctx.labels[i1], ctx.labels[i2], j)
            fresh = None if fresh is None else fresh.to_json()
        if fresh is None:
            problems.append(f"pair ({a}, {b}): recorded rule {j.get('rule')!r:.60} does not apply")
        elif fresh != j:
            problems.append(f"pair ({a}, {b}): recorded justification differs")
    unresolved = set()
    for i, pair in enumerate(unknown):
        a, b = pair if isinstance(pair, list) and len(pair) == 2 else (None, None)
        i1, i2 = _label_indices(index, a, b)
        if i1 is None or i2 is None:
            problems.append(f"unknown[{i}] does not name two labels of the lattice")
            continue
        key = i1 * n + i2
        if key in justified:
            problems.append(f"pair ({a}, {b}) is both justified and unknown")
        elif key in unresolved:
            problems.append(f"duplicate unknown pair ({a}, {b})")
        else:
            unresolved.add(key)
    # every counted pair names two labels and is counted once
    missing = n * n - len(justified) - len(unresolved)
    if missing:
        problems.append(f"{missing} ordered pairs missing")
    verdict = VERDICT_RATIONAL if not unknown else VERDICT_INCOMPLETE
    if cert.get("verdict") != verdict:
        problems.append("verdict inconsistent with the unknown list")
    return problems


def _header_problems(L: EvenLattice, cert: dict) -> list[str]:
    """Problems with the format, the top-level keys and the metadata."""
    problems = []
    if cert.get("format") != CERT_FORMAT or cert.keys() != CERT_KEYS:
        problems.append(f"top-level keys or format are not those of {CERT_FORMAT}")
    meta = cert.get("metadata")
    if not isinstance(meta, dict):
        return problems + ["metadata is not a JSON object"]
    allowed = {
        "denominator": (str(series_denominator(L)),),
        "cocycle_mode": ("upper", "lower"),
        "root_branch": ("1", "-1"),
        "rule_order": (RULE_ORDER,),
    }
    if meta.keys() != allowed.keys():
        problems.append("metadata keys are not " + ", ".join(allowed))
    for key, values in allowed.items():
        if meta.get(key) not in values:
            problems.append(f"metadata {key} is not {' or '.join(values)}")
    return problems


def _label_indices(index: dict[str, int], a, b) -> tuple[int | None, int | None]:
    """The label indices of two names, None for a value that names no
    label; a value that is not a string is never looked up, so never hashed."""
    if isinstance(a, str) and isinstance(b, str):
        return index.get(a), index.get(b)
    return None, None


def _rerun(ctx: _Context, m1: ModuleLabel, m2: ModuleLabel, j: dict):
    """The justification the rule (and route) named in j gives for the pair, or None."""
    rule, detail, inner = j.get("rule"), j.get("detail"), j.get("inner")
    if rule == RULE_WEIGHT_GAP:
        return weight_gap_rule(ctx, m1, m2)
    if rule == RULE_VACUUM:
        return vacuum_rule(ctx, m1, m2)
    if rule == RULE_FUSION and isinstance(detail, dict) and detail.get("route") in ROUTES:
        return fusion_obstruction_rule(ctx, m1, m2, route=detail["route"])
    if rule == RULE_DUALITY and isinstance(inner, dict) and inner.get("rule") != RULE_DUALITY:
        return duality_rule(ctx, m1, m2, [partial(_rerun, j=inner)])
    return None


def load_certificate(text: str) -> dict:
    """Parse a certificate file; ValueError if it is not one."""
    try:
        cert = json.loads(text)
    except RecursionError:
        raise ValueError("certificate nests too deeply")
    if not isinstance(cert, dict) or cert.get("format") != CERT_FORMAT:
        raise ValueError("not a certificate file")
    return cert
