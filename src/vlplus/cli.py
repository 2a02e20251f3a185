"""Command-line front end.

Subcommands: analyze, modules, char, fusion, decompose, certify.  The
Gram matrix comes from a JSON file {"gram": [[...], ...]} with integer
entries; rationals in all outputs are exact "p/q" strings in lowest
terms.  Exit codes: 0 success, 2 validation or input error (an input
too large to certify, or one that runs out of memory), 3 an incomplete
certificate (or a failed certificate re-check).

A flag takes its value as --flag value or --flag=value, and may be
shortened to a unique prefix (--mod V+).  Given twice, a flag keeps its
last value, except --disable-rule, which keeps every one.  A value led
by a dash is read only if it is a number (--jobs -1) or written after
"=".  -h or --help, alone or after a command, prints the usage read off
the flag table; a malformed command line exits 2 with the usage.

decompose --sublattice auto over an index-one frame (any diagonal Gram,
[[8,-14],[-14,26]]) branches over the algebra itself: diag(2,4,6) V+
prints "V+ 1" alone, and orthogonal-base gives the tensor branching.

Defaults (stable): truncation order 12, tsv output.  The environment
variables VLPLUS_ORDER and VLPLUS_FORMAT override them.  certify runs
in one process; --jobs and VLPLUS_JOBS are still validated, for
compatibility only, and change nothing.
"""

from __future__ import annotations

import json
import os
import sys
from fractions import Fraction
from functools import lru_cache
from itertools import islice
from types import SimpleNamespace

from .branching import (
    TwistedBlockPart,
    branch_orthogonal,
    branch_sublattice,
    verify_branch,
)
from .certify import ALL_RULES, VERDICT_RATIONAL, certify, verify_stream
from .fusion import SignOracle, fusion_dim
from .lattice import (
    LatticeError,
    discriminant_group,
    mod_two_data,
    norm2_vectors,
    orthogonal_sublattice,
    validate_even_lattice,
)
from .qseries import character
from .sectors import (
    _read_ratio,
    classify_modules,
    contragredient,
    format_coords,
    format_label,
    format_ratio,
    module_count,
    parse_label,
    series_denominator,
    top_level_dimension,
    weight_num,
)

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_INCOMPLETE = 3
FORMATS = ("tsv", "json")
# a series to order N keeps dense lists of about N coefficients, each product
# one big-integer multiply: A2's V+ at 10^4 takes about 3.5 s (2 shared vCPUs),
# nearly all Karatsuba inside the Euler powers; a larger order is refused
MAX_ORDER = 10**4


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_INVALID):
        super().__init__(message)
        self.code = code


def _load_gram(path: str):
    """The lattice of a gram file, read on every call; its text is parsed and
    validated once (_lattice_of_text), so calls in one process that read
    the same file share the lattice."""
    try:
        with open(path) as fh:
            L = _lattice_of_text(fh.read())
    except FileNotFoundError:
        raise CliError(f"gram file not found: {path}")
    except OSError as e:
        raise CliError(f"cannot read gram file {path}: {e}")
    except (ValueError, RecursionError) as e:  # bad JSON or UTF-8, or nested too deep
        raise CliError(f"malformed JSON in {path}: {e}")
    if L is None:
        raise CliError(f'{path}: expected an object with a "gram" key')
    return L


def _unique_keys(pairs) -> dict:
    """A JSON object's pairs as a dict; CliError for a key given twice,
    which json.loads would otherwise read as its last value."""
    data = {}
    for key, value in pairs:
        if key in data:
            raise CliError(f'gram file key "{key}" is given twice')
        data[key] = value
    return data


@lru_cache(maxsize=16)
def _lattice_of_text(text: str):
    """The validated lattice a gram file's text holds, None without a "gram"
    key; bad JSON raises ValueError or RecursionError, and a key given
    twice, a top-level key other than "gram" or an invalid Gram CliError
    (not a ValueError, so never read as bad JSON)."""
    data = json.loads(text, object_pairs_hook=_unique_keys)
    if not isinstance(data, dict):
        return None
    for key in data:
        if key != "gram":
            raise CliError(f'unknown gram file key "{key}": the file holds "gram" alone')
    if "gram" not in data:
        return None
    try:
        return validate_even_lattice(data["gram"])
    except LatticeError as e:
        raise CliError(f"invalid lattice: {e}")


def _load_oracle(path: str | None) -> SignOracle:
    if path is None:
        return SignOracle()
    try:
        with open(path) as fh:
            table = json.load(fh)
    except (OSError, ValueError, RecursionError) as e:
        raise CliError(f"cannot read oracle table {path}: {e}")
    if not isinstance(table, dict):
        raise CliError(f"oracle table {path}: expected a JSON object")
    pi_table, c_table = table.get("pi", {}), table.get("c", {})
    for key, signs in (("pi", pi_table), ("c", c_table)):
        if not isinstance(signs, dict):
            raise CliError(f'oracle table {path}: "{key}" must be a JSON object')
        for entry, sign in signs.items():
            if type(sign) is not int or sign not in (1, -1):  # bool is a subclass of int
                raise CliError(f'oracle table {path}: "{key}" entry "{entry}" is not 1 or -1')

    def pi(lam, two_mu):
        return pi_table.get(format_coords(lam) + "|" + format_coords(two_mu))

    def c(chi, lam):
        return c_table.get(f"{chi}|" + format_coords(lam))

    return SignOracle(pi=pi if pi_table else None, c=c if c_table else None)


def _emit_rows(rows, header, fmt, out):
    if fmt == "json":
        json.dump([dict(zip(header, r)) for r in rows], out, indent=2, sort_keys=True)
        out.write("\n")
    else:
        out.write("\t".join(header) + "\n")
        for r in rows:
            out.write("\t".join(str(x) for x in r) + "\n")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_analyze(L, args, out):
    dg = discriminant_group(L)
    m2 = mod_two_data(L)
    orth = orthogonal_sublattice(L)
    report = {
        "rank": L.rank,
        "det": L.det,
        "discriminant_group": " x ".join(f"Z/{f}" for f in dg.invariant_factors) or "trivial",
        "norm2_count": len(norm2_vectors(L)),
        "r2": m2.r2,
        "orthogonal_sublattice_norms": [orth.lattice.gram[i][i] for i in range(L.rank)],
        "orthogonal_sublattice_index": orth.index,
        "module_count": module_count(L),
        "series_denominator": series_denominator(L),
    }
    if args.format == "json":
        json.dump(report, out, indent=2, sort_keys=True)
        out.write("\n")
    else:
        for k, v in report.items():
            out.write(f"{k}\t{v}\n")
    return EXIT_OK


def cmd_modules(L, args, out):
    grid = series_denominator(L)
    rows = [(format_label(m), format_ratio(weight_num(L, m), grid), top_level_dimension(L, m),
             format_label(contragredient(L, m))) for m in classify_modules(L)]
    _emit_rows(rows, ("label", "lowest_weight", "top_dim", "contragredient"), args.format, out)
    return EXIT_OK


def _parse_order(text) -> int | Fraction:
    """The order as read_rational reads it (from its integers, _read_ratio),
    an int when it is integral."""
    try:
        p, q = _read_ratio(text)
    except ValueError as e:
        raise CliError(f"order must be a rational number: {e}")
    order = p if q == 1 else Fraction(p, q)
    if order < 1:
        raise CliError("order must be at least 1")
    if order > MAX_ORDER:
        raise CliError(f"order must be at most {MAX_ORDER}, got {order}")
    return order


def _check_grids(order: int | Fraction, lattices) -> None:
    """Exit 2 unless the order lies on the series grid 1/n of every lattice: its denominator divides n."""
    for M in lattices:
        n = series_denominator(M)
        if n % order.denominator:
            raise CliError(f"order {order} is not on the grid 1/{n} of the characters")


def cmd_char(L, args, out):
    try:
        m = parse_label(L, args.module)
    except ValueError as e:
        raise CliError(str(e))
    order = _parse_order(args.order)
    _check_grids(order, [L])
    ch = character(L, m, order)
    # each exponent is its integer key over the grid, printed as str(Fraction) prints it
    out.write("".join([f"{format_ratio(k, ch.denom)}\t{c}\n" for k, c in ch.keyed_terms()]))
    return EXIT_OK


def cmd_fusion(L, args, out):
    oracle = _load_oracle(args.oracle)
    if args.batch and args.triple:
        raise CliError("fusion takes --triple or --batch, not both")
    if args.batch:
        try:
            with open(args.batch) as fh:
                triples = json.load(fh)
        except (OSError, ValueError, RecursionError) as e:
            raise CliError(f"cannot read batch file: {e}")
        if not isinstance(triples, list):
            raise CliError("batch file must hold a JSON list of label triples")
    elif args.triple:
        triples = [args.triple]
    else:
        raise CliError("fusion needs --triple M1 M2 M3 or --batch FILE")
    rows = []
    for i, t in enumerate(triples):
        if not (isinstance(t, list) and len(t) == 3 and all(isinstance(s, str) for s in t)):
            raise CliError(f"batch entry {i} is not a triple of label strings: {json.dumps(t):.60}")
        try:
            m1, m2, m3 = (parse_label(L, s) for s in t)
            ans = fusion_dim(L, m1, m2, m3, oracle)
        except ValueError as e:
            raise CliError(f"batch entry {i}: {e}" if args.batch else str(e))
        value = ans.value if ans.value != "unknown" else f"unknown ({ans.reason})"
        rows.append((t[0], t[1], t[2], value))
    _emit_rows(rows, ("m1", "m2", "m3", "fusion"), args.format, out)
    return EXIT_OK


def cmd_decompose(L, args, out):
    try:
        m = parse_label(L, args.module)
    except ValueError as e:
        raise CliError(str(e))
    order = _parse_order(args.order)
    if args.sublattice == "orthogonal-base":
        bl = branch_orthogonal(L, m)
    else:
        if args.sublattice == "auto":
            basis = orthogonal_sublattice(L).basis
        else:
            try:
                basis = _parse_basis(json.loads(args.sublattice), L.rank)
            except (ValueError, RecursionError) as e:  # not JSON, nested too deep, or too many digits
                raise CliError(f"--sublattice takes auto, orthogonal-base, or a JSON basis ({e})")
        bl = branch_sublattice(L, basis, m)
    _check_grids(order, [M for M in (L, bl.sublattice, *(bl.factors or ())) if M is not None])
    counts = {}
    for text in map(_part_str, bl.parts):
        counts[text] = counts.get(text, 0) + 1
    ok = verify_branch(bl, order)
    rows = sorted(counts.items())
    if args.format == "json":
        report = {"notes": list(bl.notes), "order": str(order), "verified": ok,
                  "parts": [{"multiplicity": n, "part": p} for p, n in rows]}
        out.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
    else:
        out.write("".join(["part\tmultiplicity\n", *[f"{p}\t{n}\n" for p, n in rows],
                           *[f"# note: {note}\n" for note in bl.notes],
                           f"verified\t{str(ok).lower()}\torder\t{order}\n"]))
    return EXIT_OK if ok else EXIT_INVALID


def _parse_basis(data, rank: int) -> tuple[tuple[int, ...], ...]:
    """A JSON sublattice basis: a list of rank-length rows of integers."""
    if not isinstance(data, list):
        raise CliError("--sublattice basis must be a JSON list of rows")
    for i, row in enumerate(data):
        if not isinstance(row, list) or len(row) != rank:
            raise CliError(f"--sublattice row {i} must be a list of {rank} integers")
        for j, x in enumerate(row):
            if not isinstance(x, int) or isinstance(x, bool):
                raise CliError(f"--sublattice entry [{i}][{j}] is {json.dumps(x)}, not an integer")
    return tuple(tuple(row) for row in data)


def _part_str(p) -> str:
    if isinstance(p, tuple):  # one label per orthogonal factor
        return " (x) ".join(map(_label_name, p))
    if isinstance(p, TwistedBlockPart):
        sign = "+" if p.sign == 1 else "-"
        return f"twisted-block[{sign}]x{p.multiplicity}"
    return _label_name(p)


# format_label made once per label: a decomposition names the same factor or
# sublattice labels across its parts and across calls
_label_name = lru_cache(maxsize=None)(format_label)


def cmd_certify(L, args, out):
    if args.verify:
        given = [flag for flag, v in (("--out", args.out), ("--disable-rule", args.disable_rule)) if v]
        if given:
            raise CliError(f"--verify re-checks a certificate file and takes no {' or '.join(given)}")
        try:
            with open(args.verify) as fh:
                problems, verdict = verify_stream(L, fh)
        except LatticeError:  # a census too large to certify: not about the file
            raise
        except (OSError, ValueError) as e:
            raise CliError(f"cannot load certificate: {e}")
        if problems:
            for p in problems:
                out.write(f"problem\t{p}\n")
            return EXIT_INCOMPLETE
        if verdict != VERDICT_RATIONAL:
            # a consistent file of an Incomplete verdict exits as certify did on it
            out.write(f"certificate verified\tverdict\t{verdict}\n")
            return EXIT_INCOMPLETE
        out.write("certificate verified\n")
        return EXIT_OK
    cert = certify(L, disabled=frozenset(args.disable_rule or []))
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.writelines(cert.chunks())
        except OSError as e:
            raise CliError(f"cannot write certificate to {args.out}: {e.strerror or e}")
        justified = len(cert.labels) ** 2 - len(cert.unknown)
        out.write(f"verdict\t{cert.verdict}\tpairs\t{justified}\tunknown\t{len(cert.unknown)}\n")
    else:
        out.writelines(cert.chunks())
    return EXIT_OK if cert.verdict == VERDICT_RATIONAL else EXIT_INCOMPLETE


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

def _output_format(text: str) -> str:
    if text not in FORMATS:
        raise ValueError(f"format must be tsv or json, got {text!r}")
    return text


def _jobs(text: str) -> int:
    if not (text.isdigit() and int(text) >= 1):
        raise ValueError(f"jobs must be a positive integer, got {text!r}")
    return int(text)


# flag: (value count, required, repeats, choices); choices that are a
# function read the value instead, raising ValueError on a bad one
FLAGS = {
    "--gram": (1, True, False, None),
    "--format": (1, False, False, _output_format),
    "--order": (1, False, False, None),
    "--module": (1, True, False, None),
    "--triple": (3, False, False, None),
    "--batch": (1, False, False, None),
    "--oracle": (1, False, False, None),
    "--sublattice": (1, False, False, None),
    "--out": (1, False, False, None),
    "--verify": (1, False, False, None),
    "--jobs": (1, False, False, _jobs),
    "--disable-rule": (1, False, True, ALL_RULES),
}
# flag: (environment variable or None, default text) for a flag not given
DEFAULTS = {
    "--order": ("VLPLUS_ORDER", "12"),
    "--format": ("VLPLUS_FORMAT", "tsv"),
    "--jobs": ("VLPLUS_JOBS", "1"),
    "--sublattice": (None, "auto"),
}
COMMANDS = {  # command: (handler, help line, flags)
    "analyze": (cmd_analyze, "lattice report", ("--gram", "--format")),
    "modules": (cmd_modules, "irreducible-module table", ("--gram", "--format")),
    "char": (cmd_char, "graded dimension of one module", ("--gram", "--order", "--module")),
    "fusion": (cmd_fusion, "fusion-dimension queries",
               ("--gram", "--format", "--triple", "--batch", "--oracle")),
    "decompose": (cmd_decompose, "branch one module over a subalgebra",
                  ("--gram", "--format", "--order", "--module", "--sublattice")),
    "certify": (cmd_certify, "vanishing certificate for all ordered pairs",
                ("--gram", "--out", "--verify", "--jobs", "--disable-rule")),
}


def _exit(command, error=None):
    """Print the help and exit 0, or the usage and an error and exit 2."""
    if command is None:
        usage = f"usage: vlplus [-h] {{{','.join(COMMANDS)}}} ..."
        about = (__doc__ or "") + "\ncommands:\n" + "\n".join(
            f"  {name:<10} {line}" for name, (_, line, _) in COMMANDS.items())
    else:
        usage, about = f"usage: vlplus {command} [-h]", COMMANDS[command][1]
        for flag in COMMANDS[command][2]:
            count, required, _, choices = FLAGS[flag]
            value = "{" + ",".join(choices) + "}" if isinstance(choices, tuple) else flag[2:].upper()
            usage += f" {flag}{f' {value}' * count}" if required else f" [{flag}{f' {value}' * count}]"
    if error is None:
        print(usage, about, sep="\n\n")
        raise SystemExit(EXIT_OK)
    prog = f"vlplus {command}" if command else "vlplus"
    print(usage, f"{prog}: error: {error}", sep="\n", file=sys.stderr)
    raise SystemExit(EXIT_INVALID)


def _flag(token, names):
    """The name that a token gives whole or by a unique prefix, and its =value."""
    name, eq, value = token.partition("=")
    if name not in names:
        found = [n for n in names if name[:2] == "--" and len(name) > 2 and n.startswith(name)]
        name = found[0] if len(found) == 1 else None
    return name, (value if eq else None)


def _read(choices, text):
    if callable(choices):
        return choices(text)
    if choices is not None and text not in choices:
        raise ValueError(f"invalid choice: {text!r} (choose from {', '.join(map(repr, choices))})")
    return text


def _parse(argv):
    """The handler and flag values of a command line; exits 2 on a malformed
    one.  A flag not given takes its default, from VLPLUS_ORDER, VLPLUS_FORMAT
    or VLPLUS_JOBS where set, and the default is checked as a value is."""
    command = argv[0] if argv else _exit(None, "the following arguments are required: command")
    if _flag(command, ("-h", "--help"))[0]:
        _exit(None)
    if command not in COMMANDS:
        _exit(None, f"argument command: invalid choice: {command!r} "
                    f"(choose from {', '.join(map(repr, COMMANDS))})")
    handler, _, flags = COMMANDS[command]
    names, stray, tokens, texts = (*flags, "-h", "--help"), [], iter(argv[1:]), {}
    for token in tokens:
        flag, value = _flag(token, names)
        if flag in ("-h", "--help"):
            _exit(command)
        if flag is None:
            stray.append(token)
            continue
        count, _, repeats, _ = FLAGS[flag]
        values = [value] if value is not None else list(islice(tokens, count))
        # a value is led by a dash only as a negative number, as argparse
        # reads one, so that command lines keep their meaning (--jobs -1)
        if len(values) < count or value is None and not all(
                v[:1] != "-" or v == "-" or v[1:].replace(".", "", 1).isdecimal() for v in values):
            _exit(command, f"argument {flag}: expected "
                           f"{'one argument' if count == 1 else f'{count} arguments'}")
        texts[flag] = texts.get(flag, []) + values if repeats else values
    # a flag the command takes and the line does not give: its default text
    for flag, (variable, default) in DEFAULTS.items():
        if flag in flags and flag not in texts:
            texts[flag] = [os.environ.get(variable, default) if variable else default]
    args, missing = SimpleNamespace(), [flag for flag in flags if FLAGS[flag][1] and flag not in texts]
    for flag in flags:
        count, _, repeats, choices = FLAGS[flag]
        try:
            values = [_read(choices, text) for text in texts.get(flag, ())]
        except ValueError as e:
            _exit(command, f"argument {flag}: {e}")
        setattr(args, flag[2:].replace("-", "_"), values[0] if values and count == 1 and not repeats
                else values or None)
    if missing:
        _exit(command, f"the following arguments are required: {', '.join(missing)}")
    if stray:
        _exit(command, f"unrecognized arguments: {' '.join(stray)}")
    return handler, args


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    handler, args = _parse(argv)
    try:
        return handler(_load_gram(args.gram), args, sys.stdout)
    except (CliError, LatticeError) as e:  # a lattice error is an input error
        print(f"error: {e}", file=sys.stderr)
        return getattr(e, "code", EXIT_INVALID)
    except MemoryError:  # a backstop: the known limits refuse before they allocate
        print(f"error: vlplus {argv[0]} ran out of memory", file=sys.stderr)
        return EXIT_INVALID
    except BrokenPipeError:
        return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
