import contextlib
import copy
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import A1, A1_4, A2, D24, E8, LADDER_GRAMS, TEST_GRAMS, even_grams
from test_certify import PINNED_DIGESTS
from vlplus.certify import certify
from vlplus.cli import EXIT_INCOMPLETE, EXIT_INVALID, EXIT_OK, CliError, _check_grids, main
from vlplus.lattice import validate_even_lattice
from vlplus.sectors import classify_modules, format_label, series_denominator


def write_gram(tmp_path, gram, name="gram.json"):
    path = tmp_path / name
    path.write_text(json.dumps({"gram": gram}))
    return str(path)


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_a2(tmp_path, capsys):
    gram = write_gram(tmp_path, A2)
    code, out, _ = run_cli(capsys, ["analyze", "--gram", gram])
    assert code == EXIT_OK
    lines = dict(l.split("\t") for l in out.strip().splitlines())
    assert lines["det"] == "3"
    assert lines["discriminant_group"] == "Z/3"
    assert lines["norm2_count"] == "6"
    assert lines["r2"] == "0"
    assert lines["orthogonal_sublattice_norms"] == "[2, 6]"


def test_analyze_reports_the_frame(tmp_path, capsys):
    # E8's orthogonal sublattice is its frame A1^8, not the index-40320 Gram-Schmidt basis
    code, out, _ = run_cli(capsys, ["analyze", "--gram", write_gram(tmp_path, E8),
                                    "--format", "json"])
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["orthogonal_sublattice_norms"] == [2] * 8
    assert report["orthogonal_sublattice_index"] == 16


def test_analyze_json_format(tmp_path, capsys):
    gram = write_gram(tmp_path, A1)
    code, out, _ = run_cli(capsys, ["analyze", "--gram", gram, "--format", "json"])
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["det"] == 2 and data["module_count"] == 8


def test_analyze_takes_no_census_within_one_gigabyte(tmp_path):
    # det 3,999,999 is past the quotient limit, so a census would exit 2;
    # module_count is its closed-form size, and the rest of the report is
    # as cheap, so analyze exits 0 well inside 1 s in a child limited to
    # 1 GB of address space
    import resource

    def one_gigabyte():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    gram = write_gram(tmp_path, [[2, 1], [1, 2000000]])
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    start = time.monotonic()
    run = subprocess.run([sys.executable, "-m", "vlplus.cli", "analyze", "--gram", gram],
                         env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
                         timeout=60, preexec_fn=one_gigabyte)
    assert time.monotonic() - start < 1
    assert (run.returncode, run.stderr) == (EXIT_OK, "")
    lines = dict(line.split("\t") for line in run.stdout.splitlines())
    assert (lines["det"], lines["module_count"]) == ("3999999", "2000003")


@pytest.mark.parametrize("version", [(3, 10), (3, 12), (3, 13)], ids=["3.10", "3.12", "3.13"])
def test_other_interpreters_print_the_same_bytes(tmp_path, version):
    # requires-python is >=3.10.7: python3.10, python3.12 and python3.13,
    # where one found on PATH runs and is at least 3.10.7, print what this
    # interpreter prints for E8's V+ (its modular theta) and A2's certificate
    python = shutil.which("python%d.%d" % version)
    probe = "import sys; sys.exit(sys.version_info[:2] != %r or sys.version_info < (3, 10, 7))" % (version,)
    if python is None or subprocess.run([python, "-c", probe], capture_output=True, timeout=60).returncode:
        pytest.skip("no python%d.%d that runs is on PATH" % version)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    e8, a2 = write_gram(tmp_path, E8, "e8.json"), write_gram(tmp_path, A2, "a2.json")
    for argv in (["char", "--gram", e8, "--module", "V+", "--order", "30"], ["certify", "--gram", a2]):
        runs = [subprocess.run([exe, "-m", "vlplus.cli", *argv], env={**os.environ, "PYTHONPATH": src},
                               capture_output=True, timeout=60) for exe in (sys.executable, python)]
        assert runs[0].returncode == runs[1].returncode == EXIT_OK, runs[1].stderr
        assert runs[0].stdout == runs[1].stdout and runs[0].stdout, argv


def test_modules_table(tmp_path, capsys):
    gram = write_gram(tmp_path, A1)
    code, out, _ = run_cli(capsys, ["modules", "--gram", gram])
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "label\tlowest_weight\ttop_dim\tcontragredient"
    assert len(lines) == 9
    body = {l.split("\t")[0]: l.split("\t") for l in lines[1:]}
    assert body["V+"][1:] == ["0", "1", "V+"]
    assert body["C[1/2]+"][1:] == ["1/4", "1", "C[1/2]-"]


def test_char_output(tmp_path, capsys):
    gram = write_gram(tmp_path, A1)
    code, out, _ = run_cli(
        capsys, ["char", "--gram", gram, "--module", "V+", "--order", "3"]
    )
    assert code == EXIT_OK
    assert out.splitlines() == ["0\t1", "1\t1", "2\t2"]


def test_char_accepts_alias_and_fractional_order(tmp_path, capsys):
    gram = write_gram(tmp_path, A1)
    code, out, _ = run_cli(
        capsys, ["char", "--gram", gram, "--module", "VacPlus", "--order", "5/2"]
    )
    assert code == EXIT_OK
    assert out.splitlines() == ["0\t1", "1\t1", "2\t2"]


def test_fusion_single_and_batch(tmp_path, capsys):
    gram = write_gram(tmp_path, A2)
    code, out, _ = run_cli(
        capsys,
        ["fusion", "--gram", gram, "--triple", "V+", "U[-1/3,-1/3]", "U[-1/3,-1/3]"],
    )
    assert code == EXIT_OK
    assert out.strip().splitlines()[-1].endswith("one")

    batch = tmp_path / "batch.json"
    batch.write_text(
        json.dumps(
            [
                ["U[-1/3,-1/3]", "U[-1/3,-1/3]", "U[-1/3,-1/3]"],
                ["U[-1/3,-1/3]", "V+", "V+"],
            ]
        )
    )
    code, out, _ = run_cli(
        capsys, ["fusion", "--gram", gram, "--batch", str(batch), "--format", "json"]
    )
    assert code == EXIT_OK
    rows = json.loads(out)
    assert [r["fusion"] for r in rows] == ["one", "zero"]


def test_fusion_oracle_table(tmp_path, capsys):
    gram = write_gram(tmp_path, A1)
    # without the oracle: unknown; with it: decided
    triple = ["C[1/2]+", "C[1/2]+", "V+"]
    code, out, _ = run_cli(capsys, ["fusion", "--gram", gram, "--triple", *triple])
    assert code == EXIT_OK and "unknown" in out
    oracle = tmp_path / "oracle.json"
    oracle.write_text(json.dumps({"pi": {"1/2|1": 1}}))
    code, out, _ = run_cli(
        capsys, ["fusion", "--gram", gram, "--triple", *triple, "--oracle", str(oracle)]
    )
    assert code == EXIT_OK
    assert out.strip().splitlines()[-1].endswith("one")


def test_decompose_auto_and_orthogonal(tmp_path, capsys):
    gram = write_gram(tmp_path, A2)
    code, out, _ = run_cli(
        capsys,
        ["decompose", "--gram", gram, "--module", "V+", "--order", "8"],
    )
    assert code == EXIT_OK
    assert "verified\ttrue" in out

    gram24 = write_gram(tmp_path, D24, "d24.json")
    code, out, _ = run_cli(
        capsys,
        [
            "decompose",
            "--gram",
            gram24,
            "--module",
            "V-",
            "--order",
            "8",
            "--sublattice",
            "orthogonal-base",
        ],
    )
    assert code == EXIT_OK
    assert "V+ (x) V-" in out and "verified\ttrue" in out


def test_decompose_explicit_basis(tmp_path, capsys):
    gram = write_gram(tmp_path, D24)
    code, out, _ = run_cli(
        capsys,
        [
            "decompose",
            "--gram",
            gram,
            "--module",
            "V+",
            "--order",
            "6",
            "--sublattice",
            "[[2,0],[0,2]]",
        ],
    )
    assert code == EXIT_OK
    assert "verified\ttrue" in out


# a C parent over an index-2 sublattice whose self-paired classes both
# have an imaginary involution ratio
A2_RANK3 = [[2, -1, -1], [-1, 2, -1], [-1, -1, 4]]
NOTED = ["decompose", "--module", "C[1/2,1/2,1/2]+", "--sublattice", "[[1,0,0],[1,2,0],[1,1,1]]",
         "--order", "2"]


def test_decompose_notes_name_the_class_in_label_coordinates(tmp_path, capsys):
    gram = write_gram(tmp_path, A2_RANK3)
    code, out, _ = run_cli(capsys, [NOTED[0], "--gram", gram, *NOTED[1:]])
    assert code == EXIT_OK
    assert out == (
        "part\tmultiplicity\n"
        "C[0,0,1/2]+\t1\n"
        "C[1/2,1/2,1/2]+\t1\n"
        "# note: imaginary involution ratio on class [0,0,1/2]; reported +\n"
        "# note: imaginary involution ratio on class [1/2,1/2,1/2]; reported +\n"
        "verified\ttrue\torder\t2\n"
    )


@pytest.mark.parametrize("gram,argv,report", [
    (A2_RANK3, NOTED[1:], {
        "notes": ["imaginary involution ratio on class [0,0,1/2]; reported +",
                  "imaginary involution ratio on class [1/2,1/2,1/2]; reported +"],
        "order": "2",
        "parts": [{"multiplicity": 1, "part": "C[0,0,1/2]+"},
                  {"multiplicity": 1, "part": "C[1/2,1/2,1/2]+"}],
        "verified": True,
    }),
    (D24, ["--module", "V-", "--sublattice", "orthogonal-base", "--order", "5/2"], {
        "notes": [],
        "order": "5/2",
        "parts": [{"multiplicity": 1, "part": "V+ (x) V-"},
                  {"multiplicity": 1, "part": "V- (x) V+"}],
        "verified": True,
    }),
])
def test_decompose_json_is_one_object(tmp_path, capsys, gram, argv, report):
    path = write_gram(tmp_path, gram)
    code, out, _ = run_cli(capsys, ["decompose", "--gram", path, "--format", "json", *argv])
    assert code == EXIT_OK
    assert json.loads(out) == report
    assert out == json.dumps(report, indent=2, sort_keys=True) + "\n"


DECOMPOSE_DIGEST = "e5c727bc08c63694254dc75fa418e7692eda4b430805235ee33a34f54f885611"


def test_decompose_stdout_is_pinned_on_every_label(tmp_path, capsys):
    """Every label of TEST_GRAMS over auto, 2I and (diagonal Grams) the
    orthogonal base, tsv and json, at order 2: one digest of all stdout."""
    digest, runs = hashlib.sha256(), 0
    for gram in TEST_GRAMS:
        L = validate_even_lattice(gram)
        path = write_gram(tmp_path, gram)
        two_i = json.dumps([[2 * (i == j) for j in range(L.rank)] for i in range(L.rank)])
        routes = ["auto", two_i] + ["orthogonal-base"] * L.is_diagonal()
        for name in map(format_label, classify_modules(L)):
            for route in routes:
                for fmt in ("tsv", "json"):
                    argv = ["decompose", "--gram", path, "--module", name, "--sublattice", route,
                            "--format", fmt, "--order", "2"]
                    code, out, err = run_cli(capsys, argv)
                    assert code == EXIT_OK and err == "", (gram, argv[4:])
                    digest.update(f"{gram}\t{name}\t{route}\t{fmt}\n{out}".encode())
                    runs += 1
    assert runs == 858
    assert digest.hexdigest() == DECOMPOSE_DIGEST


LADDER_DECOMPOSE_DIGEST = "4d2f59abdd251be593b096c959cba5769db2caf73195c7709c9b770ebad1bc1a"
E8_DECOMPOSE_DIGEST = "6126afb9fab77f744c521889e4a50129536b363310bec9fcf7fbb17a30070323"


def test_decompose_stdout_is_pinned_on_the_ladder_and_e8(tmp_path, capsys):
    """Every label of the certify-ladder rungs over auto at order 2: one
    digest of exit codes and stdout; and E8 V+ over auto at order 1, whose
    16 parts cover the index-16 frame A1^8."""
    digest, runs = hashlib.sha256(), 0
    for gram in LADDER_GRAMS:
        path = write_gram(tmp_path, gram)
        for name in map(format_label, classify_modules(validate_even_lattice(gram))):
            code, out, _ = run_cli(capsys, ["decompose", "--gram", path, "--module", name,
                                            "--sublattice", "auto", "--order", "2"])
            digest.update(f"{gram}\t{name}\t{code}\n{out}".encode())
            runs += 1
    assert runs == 239
    assert digest.hexdigest() == LADDER_DECOMPOSE_DIGEST
    code, out, err = run_cli(capsys, ["decompose", "--gram", write_gram(tmp_path, E8), "--module",
                                      "V+", "--sublattice", "auto", "--order", "1"])
    assert code == EXIT_OK and err == ""
    assert len(out.encode()) == 503
    assert hashlib.sha256(out.encode()).hexdigest() == E8_DECOMPOSE_DIGEST


CHAR_DIGEST = "901f63a09035e50d3cc211387f9e525eacd7875838166758c3caf0ce8ae70fe0"


def test_char_stdout_is_pinned_on_every_label(tmp_path, capsys):
    """Every label of TEST_GRAMS and the certify-ladder rungs at orders 1, 3
    and 12, of A2 at order 200 and of E8 at orders 1, 3 and 6: one digest of
    all stdout."""
    cases = [(gram, order) for gram in TEST_GRAMS + LADDER_GRAMS for order in ("1", "3", "12")]
    cases += [(A2, "200")] + [(E8, order) for order in ("1", "3", "6")]
    digest, runs = hashlib.sha256(), 0
    for gram, order in cases:
        path = write_gram(tmp_path, gram)
        for name in map(format_label, classify_modules(validate_even_lattice(gram))):
            code, out, err = run_cli(capsys, ["char", "--gram", path, "--module", name,
                                              "--order", order])
            assert code == EXIT_OK and err == "", (gram, name, order)
            digest.update(f"{gram}\t{name}\t{order}\n{out}".encode())
            runs += 1
    assert runs == 1184
    assert digest.hexdigest() == CHAR_DIGEST


MODULES_DIGEST = "b278dd8da78e0f7e88ac30d49f1797308ba4561197320637f19bef46fe74ea33"


def test_modules_stdout_is_pinned(tmp_path, capsys):
    """The module table (lowest weights, top dimensions, contragredients)
    of TEST_GRAMS, the certify-ladder rungs and E8, tsv and json: one
    digest of all stdout."""
    digest, runs = hashlib.sha256(), 0
    for gram in TEST_GRAMS + LADDER_GRAMS + [E8]:
        path = write_gram(tmp_path, gram)
        for fmt in ("tsv", "json"):
            code, out, err = run_cli(capsys, ["modules", "--gram", path, "--format", fmt])
            assert code == EXIT_OK and err == "", (gram, fmt)
            digest.update(f"{gram}\t{fmt}\n{out}".encode())
            runs += 1
    assert runs == 34
    assert digest.hexdigest() == MODULES_DIGEST


FUSION_DIGEST = "caa9b2305019575ff6bfa67699c7298f7ef1ea2192799c307361d91c100c2a9e"
D4 = LADDER_GRAMS[1]


def test_fusion_batch_stdout_is_pinned(tmp_path, capsys):
    """Every triple with an untwisted first label on A1, D4 and diag(2,6),
    in one --batch each, then again with an oracle table that answers
    every twisted-pair sign query: one digest of all stdout, and the
    counts of One and Unknown answers without the oracle."""
    digest, counts, asked = hashlib.sha256(), [], []
    for gram in (A1, D4, [[2, 0], [0, 6]]):
        path = write_gram(tmp_path, gram)
        names = list(map(format_label, classify_modules(validate_even_lattice(gram))))
        triples = [[a, b, c] for a in names if not a.startswith("T") for b in names for c in names]
        batch = tmp_path / "batch.json"
        batch.write_text(json.dumps(triples))
        code, out, err = run_cli(capsys, ["fusion", "--gram", path, "--batch", str(batch)])
        assert code == EXIT_OK and err == ""
        answers = [line.split("\t")[3] for line in out.splitlines()[1:]]
        counts.append((len(answers), answers.count("one"),
                       sum(a.startswith("unknown") for a in answers)))
        asked.append(out.count("c oracle"))
        digest.update(f"{gram}\n{out}".encode())
        # c(chi, lam) is asked with a signed first label's coset (V- gives
        # 0) and a twisted second label's character index
        cosets = {"V-": ",".join("0" * len(gram))}
        cosets.update((a, a[2:a.index("]")]) for a in names if a.startswith("C"))
        chars = sorted({b[2:b.index("]")] for b in names if b.startswith("T")}, key=int)
        table = {"c": {f"{i}|{x}": (-1) ** (int(i) + len(x))
                       for i in chars for x in cosets.values()}}
        oracle = tmp_path / "oracle.json"
        oracle.write_text(json.dumps(table))
        code, out, err = run_cli(capsys, ["fusion", "--gram", path, "--batch", str(batch),
                                          "--oracle", str(oracle)])
        assert code == EXIT_OK and err == ""
        assert "c oracle" not in out
        digest.update(f"{gram}\toracle\n{out}".encode())
    assert counts == [(256, 8, 48), (2048, 16, 224), (4800, 192, 224)]
    assert asked == [24, 112, 112]
    assert digest.hexdigest() == FUSION_DIGEST


def test_certify_roundtrip(tmp_path, capsys):
    gram = write_gram(tmp_path, A1)
    cert_path = tmp_path / "cert.json"
    code, out, _ = run_cli(
        capsys, ["certify", "--gram", gram, "--out", str(cert_path)]
    )
    assert code == EXIT_OK
    assert "verdict\tRational" in out
    code, out, _ = run_cli(
        capsys, ["certify", "--gram", gram, "--verify", str(cert_path)]
    )
    assert code == EXIT_OK
    assert "certificate verified" in out


@pytest.mark.parametrize("name", PINNED_DIGESTS)
def test_certify_writes_and_prints_the_dumps_text(tmp_path, capsys, name):
    # --out and stdout are written a row at a time; both hold dumps() byte
    # for byte, and the pair count is the justified pairs'
    gram, disabled, _ = PINNED_DIGESTS[name]
    cert = certify(validate_even_lattice(gram), disabled=frozenset(disabled))
    flags = [flag for rule in disabled for flag in ("--disable-rule", rule)]
    gram_path, path = write_gram(tmp_path, gram), tmp_path / "cert.json"
    code = EXIT_OK if cert.verdict == "Rational" else EXIT_INCOMPLETE
    assert run_cli(capsys, ["certify", "--gram", gram_path, "--out", str(path)] + flags) == (
        code, f"verdict\t{cert.verdict}\tpairs\t{len(cert.pairs)}\tunknown\t{len(cert.unknown)}\n",
        "")
    assert path.read_bytes() == cert.dumps().encode()
    assert run_cli(capsys, ["certify", "--gram", gram_path] + flags) == (code, cert.dumps(), "")


def test_certify_incomplete_exit_code(tmp_path, capsys):
    gram = write_gram(tmp_path, A1)
    code, out, _ = run_cli(
        capsys,
        ["certify", "--gram", gram, "--disable-rule", "WeightGap"],
    )
    assert code == EXIT_INCOMPLETE
    data = json.loads(out)
    assert data["verdict"] == "Incomplete"


def test_certify_verify_rejects_wrong_lattice(tmp_path, capsys):
    gram1 = write_gram(tmp_path, A1)
    cert_path = tmp_path / "cert.json"
    run_cli(capsys, ["certify", "--gram", gram1, "--out", str(cert_path)])
    gram2 = write_gram(tmp_path, A2, "a2.json")
    code, out, _ = run_cli(
        capsys, ["certify", "--gram", gram2, "--verify", str(cert_path)]
    )
    assert code == EXIT_INCOMPLETE
    assert "problem" in out


@pytest.mark.parametrize(
    "flags, named",
    [
        (["--out", "written.json"], "--out"),
        (["--disable-rule", "WeightGap"], "--disable-rule"),
        (["--disable-rule", "Vacuum", "--out", "written.json"], "--out or --disable-rule"),
    ],
)
def test_certify_verify_refuses_out_and_disable_rule(tmp_path, capsys, flags, named):
    # --verify only reads a file: a flag that would write one or change the
    # rule chain is a conflict, not something to ignore
    gram = write_gram(tmp_path, [[2, 0], [0, 6]])
    cert_path = tmp_path / "cert.json"
    assert run_cli(capsys, ["certify", "--gram", gram, "--out", str(cert_path)])[0] == EXIT_OK
    written = tmp_path / "written.json"
    flags = [str(written) if f == "written.json" else f for f in flags]
    code, out, err = run_cli(capsys, ["certify", "--gram", gram, "--verify", str(cert_path)] + flags)
    assert (code, out) == (EXIT_INVALID, "")
    assert err == f"error: --verify re-checks a certificate file and takes no {named}\n"
    assert not written.exists()


@pytest.mark.parametrize("flags", [["--cocycle", "lower"], ["--root-branch", "-1"]])
def test_certify_has_no_convention_flags(tmp_path, capsys, flags):
    # no certify rule reads a convention, so certify takes none
    gram = write_gram(tmp_path, A2)
    with pytest.raises(SystemExit) as e:
        main(["certify", "--gram", gram] + flags)
    assert e.value.code == EXIT_INVALID
    assert "unrecognized arguments: " + " ".join(flags) in capsys.readouterr().err


def run_parsed(capsys, argv):
    """Exit code, stdout and stderr of main, whether it returns or exits."""
    try:
        code = main(argv)
    except SystemExit as e:
        code = e.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


COMMANDS = ("analyze", "modules", "char", "fusion", "decompose", "certify")


@pytest.mark.parametrize("argv, code, expected", [
    (["analyze", "--gram", "GRAM", "--bogus"], EXIT_INVALID, "unrecognized arguments: --bogus"),
    (["analyze"], EXIT_INVALID, "required: --gram"),
    (["char", "--gram", "GRAM"], EXIT_INVALID, "required: --module"),
    (["char", "--gram", "GRAM", "--module"], EXIT_INVALID, "argument --module"),
    (["fusion", "--gram", "GRAM", "--triple", "V+", "V+"], EXIT_INVALID, "argument --triple"),
    (["certify", "--gram", "GRAM", "--disable-rule", "Bogus"], EXIT_INVALID,
     "invalid choice: 'Bogus'"),
    ([], EXIT_INVALID, "required: command"),
    (["frob"], EXIT_INVALID, "invalid choice: 'frob'"),
    (["--help"], EXIT_OK, COMMANDS),
    (["certify", "--help"], EXIT_OK, ("--gram", "--out", "--verify", "--jobs", "--disable-rule")),
    # a list is the command line whose exit code, stdout and stderr it must equal
    (["modules", "--gram", "GRAM", "--format=json"], EXIT_OK,
     ["modules", "--gram", "GRAM", "--format", "json"]),
    (["char", "--gram", "GRAM", "--module=V-", "--order", "2"], EXIT_OK,
     ["char", "--gram", "GRAM", "--module", "V-", "--order", "2"]),
    (["decompose", "--gram", "GRAM", "--mod", "V+", "--order", "2"], EXIT_OK,
     ["decompose", "--gram", "GRAM", "--module", "V+", "--order", "2"]),
])
def test_command_line_parsing(tmp_path, capsys, argv, code, expected):
    # a rejected command line exits 2 naming the flag or token, with the
    # message on stderr; --help prints to stdout and exits 0
    gram = write_gram(tmp_path, A2)
    got = run_parsed(capsys, [gram if a == "GRAM" else a for a in argv])
    assert got[0] == code, got
    if isinstance(expected, list):
        assert got == run_parsed(capsys, [gram if a == "GRAM" else a for a in expected])
    else:
        stream = got[1] if code == EXIT_OK else got[2]
        for fragment in (expected,) if isinstance(expected, str) else expected:
            assert fragment in stream, (fragment, stream)


def test_a_command_loads_no_argument_parser(tmp_path):
    # the command line is read from the flag table: running a command
    # imports neither argparse nor the gettext and locale it would pull in
    gram = write_gram(tmp_path, A2)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = ("import contextlib, io, sys\n"
            "from vlplus.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert main(['modules', '--gram', {gram!r}]) == 0\n"
            "print(sorted(m for m in ('argparse', 'gettext', 'locale') if m in sys.modules))\n")
    env = {**os.environ, "PYTHONPATH": src}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "[]\n"


def test_fusion_refuses_triple_with_batch(tmp_path, capsys):
    gram = write_gram(tmp_path, A1)
    batch = tmp_path / "batch.json"
    batch.write_text(json.dumps([["V+", "V+", "V+"]]))
    code, out, err = run_cli(capsys, ["fusion", "--gram", gram, "--triple", "V+", "V+", "V+",
                                      "--batch", str(batch)])
    assert (code, out) == (EXIT_INVALID, "")
    assert err == "error: fusion takes --triple or --batch, not both\n"


# ---------------------------------------------------------------------------
# error paths with exact exit codes
# ---------------------------------------------------------------------------

def test_missing_gram_file(capsys):
    code, _, err = run_cli(capsys, ["analyze", "--gram", "/nonexistent.json"])
    assert code == EXIT_INVALID and "not found" in err


def test_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli(capsys, ["analyze", "--gram", str(bad)])
    assert code == EXIT_INVALID and "malformed JSON" in err


@pytest.mark.parametrize("text, key", [
    ('{"gram": [[2, 1], [1, 2]], "gram": [[2]]}', 'key "gram" is given twice'),
    ('{"gram": [[2, 1], [1, 2]], "name": "A2"}', 'unknown gram file key "name"'),
    ('{"name": "A2"}', 'unknown gram file key "name"'),
    ('{"gram": [[2, 1], [1, {"x": 1, "x": 2}]]}', 'key "x" is given twice'),
], ids=["duplicate", "unknown", "unknown-alone", "nested-duplicate"])
def test_gram_file_refuses_duplicated_and_unknown_keys(tmp_path, capsys, text, key):
    # json.loads keeps a repeated key's last value, so A2 then [[2]] would be
    # analyzed as A1; an extra key would be ignored: each exits 2 with one line
    path = tmp_path / "gram.json"
    path.write_text(text)
    code, out, err = run_cli(capsys, ["analyze", "--gram", str(path)])
    assert (code, out) == (EXIT_INVALID, "")
    assert err.startswith("error: ") and key in err and err.count("\n") == 1


def test_invalid_lattice_reports_invariant(tmp_path, capsys):
    bad = tmp_path / "odd.json"
    bad.write_text(json.dumps({"gram": [[2, 1], [1, 1]]}))
    code, _, err = run_cli(capsys, ["analyze", "--gram", str(bad)])
    assert code == EXIT_INVALID and "diagonal entry at index 2" in err


@pytest.mark.parametrize("gram", [5, [5], [None]])
def test_gram_rows_that_are_not_lists_exit_two(tmp_path, capsys, gram):
    path = write_gram(tmp_path, gram)
    code, out, err = run_cli(capsys, ["analyze", "--gram", path])
    assert code == EXIT_INVALID and out == ""
    assert err == "error: invalid lattice: gram matrix must be a list of rows\n"


def test_unknown_label_rejected(tmp_path, capsys):
    gram = write_gram(tmp_path, A1)
    code, _, err = run_cli(capsys, ["char", "--gram", gram, "--module", "Q[1]"])
    assert code == EXIT_INVALID and "unrecognized" in err


def test_unclosed_label_rejected(tmp_path, capsys):
    gram = write_gram(tmp_path, A2)
    code, _, err = run_cli(capsys, ["char", "--gram", gram, "--module", "U[1/3"])
    assert code == EXIT_INVALID and "closing ']'" in err


def test_decompose_rejects_non_integer_basis_entry(tmp_path, capsys):
    gram = write_gram(tmp_path, A2)
    for basis, named in (('[[1,"a"],[0,2]]', 'entry [0][1] is "a"'),
                         ("[[1,true],[0,2]]", "entry [0][1] is true"),
                         ("[[1],[0,2]]", "row 0"),
                         ("7", "JSON list")):
        code, _, err = run_cli(
            capsys, ["decompose", "--gram", gram, "--module", "V+", "--sublattice", basis]
        )
        assert code == EXIT_INVALID and named in err, basis


def test_decompose_deeply_nested_basis_exits_two(tmp_path, capsys):
    gram = write_gram(tmp_path, A2)
    code, out, err = run_cli(
        capsys, ["decompose", "--gram", gram, "--module", "V+", "--sublattice", "[" * 100000])
    assert code == EXIT_INVALID and out == ""
    assert err.startswith("error: --sublattice takes auto, orthogonal-base, or a JSON basis")


HUGE_DET = [[99999999999999999999999999999998]]
HUGE_COUNT = (HUGE_DET[0][0] + 7 * 2) // 2  # module_count: r2 = 1
# determinants past Python's int-to-str digit limit (4300 by default): the
# first has 4401 digits, the second is the sublattice's, index^2 * det
TOO_LONG_DET = [[2 * 10**2200, 0], [0, 2 * 10**2200]]
TOO_LONG = f"the determinant has more than {sys.get_int_max_str_digits()} digits"


# each command past its own bound on the discriminant group: modules
# enumerates at most 10^6 classes, certify holds at most 2^21 ordered pairs
# of labels, and analyze, which takes no census, needs only a determinant
# it can print
@pytest.mark.parametrize("command,gram,error", [
    ("analyze", TOO_LONG_DET, f"invalid lattice: {TOO_LONG}"),
    ("modules", HUGE_DET,
     f"the quotient has {HUGE_DET[0][0]} classes; at most 1000000 can be enumerated"),
    ("certify", HUGE_DET, f"{HUGE_COUNT ** 2} ordered pairs of {HUGE_COUNT} labels are more "
                          "than the 2097152 a certificate holds"),
], ids=["analyze", "modules", "certify"])
def test_oversized_discriminant_group_exits_two(tmp_path, capsys, command, gram, error):
    code, out, err = run_cli(capsys, [command, "--gram", write_gram(tmp_path, gram)])
    assert (code, out, err) == (EXIT_INVALID, "", f"error: {error}\n")


def test_analyze_counts_an_oversized_discriminant_group(tmp_path, capsys):
    # analyze reads the census size from module_count and walks no class
    code, out, err = run_cli(capsys, ["analyze", "--gram", write_gram(tmp_path, HUGE_DET)])
    assert (code, err) == (EXIT_OK, "") and f"module_count\t{HUGE_COUNT}\n" in out


def test_oversized_sublattice_quotient_exits_two(tmp_path, capsys):
    gram = write_gram(tmp_path, [[2, 0], [0, 2]])
    code, out, err = run_cli(capsys, ["decompose", "--gram", gram, "--module", "V+", "--order", "1",
                                      "--sublattice", "[[100000000000000000000000,0],[0,1]]"])
    assert code == EXIT_INVALID and out == ""
    assert "100000000000000000000000 classes; at most 1000000" in err


@pytest.mark.parametrize("command", ["analyze", "modules"])
def test_determinant_too_long_to_print_exits_two(tmp_path, capsys, command):
    gram = write_gram(tmp_path, TOO_LONG_DET)
    code, out, err = run_cli(capsys, [command, "--gram", gram])
    assert code == EXIT_INVALID and out == ""
    assert err == f"error: invalid lattice: {TOO_LONG}\n"


def test_sublattice_determinant_too_long_to_print_exits_two(tmp_path, capsys):
    gram = write_gram(tmp_path, A2)
    basis = json.dumps([[10**2200, 0], [0, 10**2200]])
    code, out, err = run_cli(capsys, ["decompose", "--gram", gram, "--module", "V+",
                                      "--sublattice", basis])
    assert code == EXIT_INVALID and out == ""
    assert err == f"error: sublattice: {TOO_LONG}\n"


def test_sublattice_entry_too_long_to_read_exits_two(tmp_path, capsys):
    gram = write_gram(tmp_path, A2)
    basis = f"[[{'9' * 5000},0],[0,1]]"
    code, out, err = run_cli(capsys, ["decompose", "--gram", gram, "--module", "V+",
                                      "--sublattice", basis])
    assert code == EXIT_INVALID and out == ""
    assert err.startswith("error: --sublattice takes auto, orthogonal-base, or a JSON basis")


@pytest.mark.parametrize("order,message", [
    # Fraction() reads an exponent, and builds its 10^exp before any check
    ("1e1000000", "'1e1000000' is not an integer or p/q"),
    ("2.5", "'2.5' is not an integer or p/q"),
    ("3/0", "'3/0' has a zero denominator"),
    ("9" * 5000, f"{'9' * 5000!r:.60} has too many digits"),
])
def test_order_outside_the_number_grammar_exits_two(tmp_path, capsys, order, message):
    gram = write_gram(tmp_path, A2)
    code, out, err = run_cli(capsys, ["char", "--gram", gram, "--module", "V+", "--order", order])
    assert code == EXIT_INVALID and out == ""
    assert err == f"error: order must be a rational number: {message}\n"


def test_order_variable_outside_the_grammar_exits_two(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("VLPLUS_ORDER", "1e5000")
    gram = write_gram(tmp_path, A2)
    code, out, err = run_cli(capsys, ["char", "--gram", gram, "--module", "V+"])
    assert code == EXIT_INVALID and out == ""
    assert err == "error: order must be a rational number: '1e5000' is not an integer or p/q\n"


def test_certify_out_to_a_directory_exits_two(tmp_path, capsys):
    gram = write_gram(tmp_path, A1)
    code, out, err = run_cli(capsys, ["certify", "--gram", gram, "--out", str(tmp_path)])
    assert code == EXIT_INVALID and out == ""
    assert err.startswith(f"error: cannot write certificate to {tmp_path}")


# [[2,1],[1,2000]] has 2,003 labels: 4,012,009 ordered pairs, past the limit
PAIR_LIMIT_GRAM = [[2, 1], [1, 2000]]


def test_certify_refuses_past_the_pair_limit_within_one_gigabyte(tmp_path):
    # certify and --verify's re-derivation refuse from the census's size,
    # before building a pair: in a child limited to 1 GB of address space, exit 2
    # with one line naming the pair count, well inside 5 s
    import resource

    def one_gigabyte():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    gram = write_gram(tmp_path, PAIR_LIMIT_GRAM)
    cert = tmp_path / "any.cert"
    cert.write_text("{}")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": src}
    for extra in ([], ["--out", str(tmp_path / "unwritten.cert")], ["--verify", str(cert)]):
        start = time.monotonic()
        run = subprocess.run([sys.executable, "-m", "vlplus.cli", "certify", "--gram", gram, *extra],
                             env=env, capture_output=True, text=True, timeout=60,
                             preexec_fn=one_gigabyte)
        assert time.monotonic() - start < 5, extra
        assert (run.returncode, run.stdout) == (EXIT_INVALID, ""), (extra, run.stderr)
        assert run.stderr == ("error: 4012009 ordered pairs of 2003 labels are more than "
                              "the 2097152 a certificate holds\n"), extra
    assert not (tmp_path / "unwritten.cert").exists()


def test_the_pair_limit_admits_a1_8_and_the_ladder():
    from vlplus.certify import TooManyPairs

    a1_8 = [[2 * (i == j) for j in range(8)] for i in range(8)]
    counts = [len(classify_modules(validate_even_lattice(g))) ** 2 for g in [a1_8] + LADDER_GRAMS]
    assert counts[0] == 1048576
    assert max(counts) <= TooManyPairs.limit < 4012009


def test_running_out_of_memory_exits_two_with_one_line(tmp_path, capsys, monkeypatch):
    # a backstop behind the limits that refuse known-large inputs
    def exhausted(L, **kwargs):
        raise MemoryError

    monkeypatch.setattr(sys.modules["vlplus.cli"], "certify", exhausted)
    code, out, err = run_cli(capsys, ["certify", "--gram", write_gram(tmp_path, A1)])
    assert (code, out, err) == (EXIT_INVALID, "", "error: vlplus certify ran out of memory\n")


def test_verify_parses_no_json_for_a_certificate_certify_wrote(tmp_path, capsys, monkeypatch):
    # the file is verified by writing the certificate again and comparing
    def refuse(text):
        raise AssertionError("a certificate that certify wrote was parsed")

    for module in ("vlplus.certify", "vlplus.cli"):
        monkeypatch.setattr(sys.modules[module], "load_certificate", refuse, raising=False)
    gram = write_gram(tmp_path, LADDER_GRAMS[4])  # A1^5: 16,384 pairs
    cert = tmp_path / "cert.json"
    assert run_cli(capsys, ["certify", "--gram", gram, "--out", str(cert)])[0] == EXIT_OK
    assert run_cli(capsys, ["certify", "--gram", gram, "--verify", str(cert)]) \
        == (EXIT_OK, "certificate verified\n", "")


DET36 = [[2, -1, 0, -1], [-1, 4, 0, -1], [0, 0, 6, 0], [-1, -1, 0, 2]]


@pytest.mark.parametrize("gram", [A1_4, DET36], ids=["A1_4", "det36"])
def test_verify_checks_other_bytes_record_by_record(tmp_path, capsys, monkeypatch, gram):
    # a re-indented copy and a certificate written with Vacuum disabled are
    # not certify's bytes: each is parsed and checked record by record, over
    # the one context the re-derivation built, and verifies
    module = sys.modules["vlplus.certify"]
    checked, contexts = [], []
    real_check, real_init = module.verify_certificate, module._Context.__init__

    def counted_check(L, cert, **kwargs):
        checked.append(kwargs.get("ctx"))
        return real_check(L, cert, **kwargs)

    def counted_init(self, L):
        contexts.append(self)
        real_init(self, L)

    monkeypatch.setattr(module, "verify_certificate", counted_check)
    monkeypatch.setattr(module._Context, "__init__", counted_init)
    gram_path = write_gram(tmp_path, gram)
    written, reindented, vacuum = (tmp_path / f"{n}.cert" for n in ("written", "reindented", "vacuum"))
    assert run_cli(capsys, ["certify", "--gram", gram_path, "--out", str(written)])[0] == EXIT_OK
    reindented.write_text(json.dumps(json.loads(written.read_text()), indent=1))
    # det36 leaves pairs unknown without Vacuum: an Incomplete certificate verifies
    # too, and exits 3 with its verdict named, as certify did on writing it
    run_cli(capsys, ["certify", "--gram", gram_path, "--disable-rule", "Vacuum", "--out", str(vacuum)])
    assert vacuum.read_text() != written.read_text()
    verified = (EXIT_OK, "certificate verified\n", "")
    incomplete = (EXIT_INCOMPLETE, "certificate verified\tverdict\tIncomplete\n", "")
    for path, expected in ((reindented, verified), (vacuum, incomplete if gram == DET36 else verified)):
        checked.clear()
        contexts.clear()
        assert run_cli(capsys, ["certify", "--gram", gram_path, "--verify", str(path)]) \
            == expected, path.name
        assert len(contexts) == 1 and checked == contexts, path.name


@pytest.mark.parametrize("rule", ["WeightGap", "Vacuum", "Duality", "FusionObstruction"])
@pytest.mark.parametrize("gram", [A1_4, DET36], ids=["A1_4", "det36"])
def test_verify_exits_as_certify_did_on_the_file(tmp_path, capsys, gram, rule):
    # a file certify wrote with a rule disabled verifies; --verify exits with
    # certify's code and names the verdict when it is not Rational
    gram_path = write_gram(tmp_path, gram)
    cert = tmp_path / "cert.json"
    code, out, _ = run_cli(capsys, ["certify", "--gram", gram_path, "--disable-rule", rule,
                                    "--out", str(cert)])
    verdict = out.split("\t")[1]
    line = "certificate verified\n" if verdict == "Rational" else f"certificate verified\tverdict\t{verdict}\n"
    assert run_cli(capsys, ["certify", "--gram", gram_path, "--verify", str(cert)]) == (code, line, "")
    assert (code == EXIT_OK) == (verdict == "Rational")


def test_verify_names_an_incomplete_verdict_of_certify_bytes_unparsed(tmp_path, capsys, monkeypatch):
    # with Vacuum out of every chain, det36's own bytes are Incomplete: they
    # are verified by equality, with no JSON parsed, and exit 3 as certify did
    module = sys.modules["vlplus.certify"]
    real_chain = module._chain
    monkeypatch.setattr(module, "_chain", lambda disabled, route: real_chain(disabled | {"Vacuum"}, route))

    def refuse(text):
        raise AssertionError("a certificate that certify wrote was parsed")

    monkeypatch.setattr(module, "load_certificate", refuse)
    gram_path = write_gram(tmp_path, DET36)
    cert = tmp_path / "cert.json"
    code, out, _ = run_cli(capsys, ["certify", "--gram", gram_path, "--out", str(cert)])
    assert (code, out.split("\t")[1]) == (EXIT_INCOMPLETE, "Incomplete")
    assert run_cli(capsys, ["certify", "--gram", gram_path, "--verify", str(cert)]) \
        == (EXIT_INCOMPLETE, "certificate verified\tverdict\tIncomplete\n", "")


# runs argv and prints its exit code and peak RSS in KiB; a child's
# ru_maxrss counts the RSS of the process it was started from, so commands
# are measured from this bare interpreter, which is smaller than any of them
PEAK_RSS = """import os, sys
pid = os.posix_spawn(sys.argv[1], sys.argv[1:], os.environ)
_, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def test_verify_peaks_within_eight_megabytes_of_writing(tmp_path):
    # --verify compares the file with the re-derived chunks as it reads it,
    # never holding the file's text: on A1^6 (a 25 MB file) it peaks near
    # certify --out's 18 MB, where reading the text whole peaked at 65 MB
    gram = write_gram(tmp_path, [[2 * (i == j) for j in range(6)] for i in range(6)])
    cert = str(tmp_path / "cert.json")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    peaks = []
    for flag in ("--out", "--verify"):
        run = subprocess.run([sys.executable, "-c", PEAK_RSS, sys.executable, "-m", "vlplus.cli",
                              "certify", "--gram", gram, flag, cert],
                             env={**os.environ, "PYTHONPATH": src}, capture_output=True,
                             text=True, timeout=60)
        code, peak = map(int, run.stdout.split()[-2:])
        assert code == EXIT_OK, (flag, run.stdout, run.stderr)
        peaks.append(peak)
    assert peaks[1] <= peaks[0] + 8 * 1024, peaks


def test_verify_reads_a_pipe_as_it_reads_a_path(tmp_path, capsys):
    # --verify never seeks: each file piped to /dev/stdin gets the exit code
    # and stdout it gets by path, on the equal-bytes path, the per-record
    # path, a problem and a file cut mid-row that does not parse
    diag26 = [[2, 0], [0, 6]]
    chunks = list(certify(validate_even_lattice(diag26)).chunks())
    text = "".join(chunks)
    perturbed = json.loads(text)
    j = next(p["justification"] for p in perturbed["pairs"]
             if p["justification"]["rule"] == "WeightGap")
    j["detail"]["gap"] += "0"
    files = {"written": (text, EXIT_OK),
             "reindented": (json.dumps(json.loads(text), indent=1), EXIT_OK),
             "perturbed": (json.dumps(perturbed, sort_keys=True, indent=2), EXIT_INCOMPLETE),
             "cut": (chunks[0] + chunks[1][:len(chunks[1]) // 2], EXIT_INVALID)}
    gram = write_gram(tmp_path, diag26)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    for name, (content, code) in files.items():
        path = tmp_path / f"{name}.cert"
        path.write_text(content)
        by_path = run_cli(capsys, ["certify", "--gram", gram, "--verify", str(path)])
        piped = subprocess.run([sys.executable, "-m", "vlplus.cli", "certify", "--gram", gram,
                                "--verify", "/dev/stdin"], input=content, capture_output=True,
                               text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60)
        assert by_path[0] == code, name
        assert (piped.returncode, piped.stdout) == by_path[:2], name


def test_verify_reads_the_file_as_text(tmp_path, capsys, monkeypatch):
    # the file is opened in text mode: a CRLF copy of certify's bytes reads
    # as certify's text and verifies by equality, with no JSON parsed, and a
    # byte that does not decode, inside a row, is a file that cannot be loaded
    def refuse(text):
        raise AssertionError("a certificate that certify wrote was parsed")

    monkeypatch.setattr(sys.modules["vlplus.certify"], "load_certificate", refuse)
    gram = [[2 * (i == j) for j in range(4)] for i in range(4)]
    chunks = list(certify(validate_even_lattice(gram)).chunks())
    gram_path, cert = write_gram(tmp_path, gram), tmp_path / "cert.json"
    data = "".join(chunks).encode()
    cert.write_bytes(data.replace(b"\n", b"\r\n"))
    assert run_cli(capsys, ["certify", "--gram", gram_path, "--verify", str(cert)]) \
        == (EXIT_OK, "certificate verified\n", "")
    inside = len(chunks[0]) + len(chunks[1]) // 2
    cert.write_bytes(data[:inside] + b"\xff" + data[inside + 1:])
    code, out, err = run_cli(capsys, ["certify", "--gram", gram_path, "--verify", str(cert)])
    assert (code, out) == (EXIT_INVALID, "")
    assert err.startswith("error: cannot load certificate: ") and "0xff" in err, err


# the sign entry an A1 query reads from each table, and that query
ORACLE_QUERIES = {"pi": ("1/2|1", ["C[1/2]+", "C[1/2]+", "V+"]),
                  "c": ("0|1/2", ["C[1/2]+", "T[0]+", "T[0]-"])}


def test_fusion_rejects_malformed_oracle_table(tmp_path, capsys):
    gram = write_gram(tmp_path, A1)
    oracle = tmp_path / "oracle.json"
    for table, named in (({"pi": [1]}, '"pi"'), ({"c": 3}, '"c"'), ([1], "JSON object")):
        oracle.write_text(json.dumps(table))
        code, _, err = run_cli(
            capsys,
            ["fusion", "--gram", gram, "--triple", "V+", "V+", "V+", "--oracle", str(oracle)],
        )
        assert code == EXIT_INVALID and named in err, table


@pytest.mark.parametrize("table", ["pi", "c"])
def test_fusion_rejects_oracle_signs_other_than_one_or_minus_one(tmp_path, capsys, table):
    # each of these used to be read silently as a sign or as a missing entry
    gram = write_gram(tmp_path, A1)
    oracle = tmp_path / "oracle.json"
    key, triple = ORACLE_QUERIES[table]
    for sign in (0, 2, -2, 1.0, "yes", [1], None, True, False):
        oracle.write_text(json.dumps({table: {key: sign}}))
        code, out, err = run_cli(
            capsys, ["fusion", "--gram", gram, "--triple", *triple, "--oracle", str(oracle)])
        assert code == EXIT_INVALID and out == "", sign
        assert err == f'error: oracle table {oracle}: "{table}" entry "{key}" is not 1 or -1\n'


def test_fusion_requires_input(tmp_path, capsys):
    gram = write_gram(tmp_path, A1)
    code, _, err = run_cli(capsys, ["fusion", "--gram", gram])
    assert code == EXIT_INVALID


def test_order_must_be_at_least_one(tmp_path, capsys):
    gram = write_gram(tmp_path, A1)
    code, _, err = run_cli(capsys, ["char", "--gram", gram, "--module", "V+", "--order", "1/2"])
    assert code == EXIT_INVALID and "at least 1" in err
    code, _, err = run_cli(capsys, ["char", "--gram", gram, "--module", "V+", "--order", "x"])
    assert code == EXIT_INVALID and "rational" in err


@pytest.mark.parametrize("command", ["char", "decompose"])
def test_huge_order_is_refused_before_any_series(tmp_path, capsys, command):
    # an order of 10^13 once ended in a MemoryError from the Euler product
    gram = write_gram(tmp_path, [[2, 0], [0, 6]])
    code, out, err = run_cli(capsys, [command, "--gram", gram, "--module", "V+",
                                      "--order", "10000000000000"])
    assert code == EXIT_INVALID and out == ""
    assert err == "error: order must be at most 10000, got 10000000000000\n"


@pytest.mark.parametrize("gram,argv,grid", [
    (A1, ["char", "--module", "V+", "--order", "4/3"], 16),
    (A2, ["char", "--module", "T[0]+", "--order", "7/5"], 48),
    (A2, ["decompose", "--module", "V+", "--order", "10/7"], 48),
    # on the parent's grid 1/48, off the rank-one factor A1's grid 1/16
    ([[2, 0], [0, 6]],
     ["decompose", "--module", "V+", "--sublattice", "orthogonal-base", "--order", "4/3"], 16),
])
def test_order_off_a_series_grid_exits_two(tmp_path, capsys, gram, argv, grid):
    path = write_gram(tmp_path, gram)
    code, out, err = run_cli(capsys, argv[:1] + ["--gram", path] + argv[1:])
    assert code == EXIT_INVALID and out == ""
    order = argv[-1]
    assert err == f"error: order {order} is not on the grid 1/{grid} of the characters\n"


def test_orders_on_every_grid_still_run(tmp_path, capsys):
    a2 = write_gram(tmp_path, A2)
    code, out, _ = run_cli(capsys, ["decompose", "--gram", a2, "--module", "V+",
                                    "--sublattice", "[[2,-1],[0,3]]", "--order", "49/48"])
    assert code == EXIT_OK
    assert out.splitlines() == ["part\tmultiplicity", "C[1/2,1/2]+\t1", "U[0,1/3]\t1",
                                "U[1/2,1/6]\t1", "V+\t1", "verified\ttrue\torder\t49/48"]


def fraction_check_grids(order, lattices):
    """_check_grids as Fraction arithmetic: order * n must be an integer."""
    for M in lattices:
        n = series_denominator(M)
        if (order * n).denominator != 1:
            raise CliError(f"order {order} is not on the grid 1/{n} of the characters")


def grid_verdict(check, order, lattices):
    try:
        check(order, lattices)
    except CliError as e:
        return str(e)
    return None


# grids 1/16 (A1, E8), 1/48 (A2, diag(2,6)), 1/32 (A1^4) and 1/96 (diag(2,4,6))
GRID_LATTICES = [validate_even_lattice(g) for g in (
    A1, A2, [[2, 0], [0, 6]], [[2 * (i == j) for j in range(4)] for i in range(4)], E8,
    [[2, 0, 0], [0, 4, 0], [0, 0, 6]])]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 10**4 * 192), st.sampled_from((1, 2, 3, 5, 7, 16, 32, 48, 64, 96, 192, 10**4)),
       st.lists(st.sampled_from(GRID_LATTICES), min_size=1, max_size=3))
@example(4, 3, GRID_LATTICES[:1])             # 4/3 off A1's grid 1/16: the first lattice's message
@example(10, 7, GRID_LATTICES[1:2])
@example(4, 3, GRID_LATTICES[2:0:-1] + GRID_LATTICES[:1])
@example(49, 48, GRID_LATTICES[1:3])          # on 1/48 for both
@example(49, 48, GRID_LATTICES[1:4])          # off A1^4's grid 1/32
def test_check_grids_is_the_fraction_check(num, den, lattices):
    order = Fraction(num, den)
    assert grid_verdict(_check_grids, order, lattices) == grid_verdict(fraction_check_grids, order, lattices)


def test_env_var_defaults(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("VLPLUS_ORDER", "2")
    gram = write_gram(tmp_path, A1)
    code, out, _ = run_cli(capsys, ["char", "--gram", gram, "--module", "V+"])
    assert code == EXIT_OK
    assert out.splitlines() == ["0\t1", "1\t1"]


@pytest.mark.parametrize(
    "env,argv,message",
    [
        ({"VLPLUS_JOBS": "two"}, ["certify"], "--jobs: jobs must be a positive integer, got 'two'"),
        ({"VLPLUS_JOBS": "0"}, ["certify"], "--jobs: jobs must be a positive integer, got '0'"),
        ({}, ["certify", "--jobs", "-1"], "--jobs: jobs must be a positive integer, got '-1'"),
        ({"VLPLUS_FORMAT": "xml"}, ["analyze"], "--format: format must be tsv or json, got 'xml'"),
        ({}, ["modules", "--format", "xml"], "--format: format must be tsv or json, got 'xml'"),
    ],
)
def test_malformed_jobs_and_format_exit_two(tmp_path, capsys, monkeypatch, env, argv, message):
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    gram = write_gram(tmp_path, A1)
    with pytest.raises(SystemExit) as e:
        main(argv + ["--gram", gram])
    assert e.value.code == EXIT_INVALID
    assert message in capsys.readouterr().err


def test_jobs_accepted_and_certificate_bytes_unchanged(tmp_path, capsys, monkeypatch):
    gram = write_gram(tmp_path, A2)
    outputs = []
    for env, flags in (({}, ["--jobs", "1"]), ({}, ["--jobs", "2"]), ({"VLPLUS_JOBS": "2"}, [])):
        with monkeypatch.context() as m:
            for key, value in env.items():
                m.setenv(key, value)
            path = tmp_path / f"cert{len(outputs)}.json"
            code, out, _ = run_cli(capsys, ["certify", "--gram", gram, "--out", str(path)] + flags)
        assert code == EXIT_OK
        outputs.append((out, path.read_bytes()))
    assert outputs[0] == outputs[1] == outputs[2]


def test_jobs_variable_only_concerns_certify(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("VLPLUS_JOBS", "two")
    gram = write_gram(tmp_path, A1)
    code, out, _ = run_cli(capsys, ["analyze", "--gram", gram])
    assert code == EXIT_OK and "det\t2" in out


# ---------------------------------------------------------------------------
# labels off the dual lattice, malformed batch entries, environment changes
# ---------------------------------------------------------------------------

A2_NEG = [[2, -1], [-1, 2]]  # census V+-, U[1/3,-1/3], T[0]+-
DET36 = [[2, -1, 0, -1], [-1, 4, 0, -1], [0, 0, 6, 0], [-1, -1, 0, 2]]  # sublattice route


@pytest.mark.parametrize("label,named", [
    ("C[1/2,0]+", "not a dual vector"),
    ("U[1/5,0]", "not a dual vector"),
    ("U[1/2,1/2]", "not a dual vector"),
    ("U[1/0,0]", "zero denominator"),
    # numbers outside the grammar (integer or p/q) of README's File formats
    ("U[1e10000000,0]", "'1e10000000' is not an integer or p/q"),
    ("C[1e-10000000,0]+", "'1e-10000000' is not an integer or p/q"),
    ("U[0.5,0]", "'0.5' is not an integer or p/q"),
    ("U[1/3, 1/3]", "' 1/3' is not an integer or p/q"),
    # a character index is a run of ASCII digits, below the character count
    ("T[0_0]+", "'0_0' is not ASCII digits"),
    ("T[ \u0660]+", "' \u0660' is not ASCII digits"),
    ("T[ 0 ]+", "' 0 ' is not ASCII digits"),
    ("T[-0]+", "'-0' is not ASCII digits"),
    ("T[x]+", "'x' is not ASCII digits"),
    ("T[1]+", "character index 1 out of range (have 1)"),
    ("T[" + "9" * 5000 + "]+", "out of range (have 1)"),
    ("T[0]", "expected sign suffix + or -, got ''"),
    # well-formed dual coordinates that no label of that kind takes
    ("U[1/3,-1/3]+", "untwisted labels carry no sign"),
    ("U[0,0]", "coset is self-paired; use a signed C label"),
    ("C[0,0]+", "C labels require a nonzero self-paired coset"),
    ("C[1/3,-1/3]+", "C labels require a nonzero self-paired coset"),
    ("U[1/3]", "has 1 coordinates, lattice rank is 2"),
])
@pytest.mark.parametrize("command", ["char", "decompose"])
def test_label_off_the_dual_lattice_exits_two(tmp_path, capsys, label, named, command):
    gram = write_gram(tmp_path, A2_NEG)
    code, out, err = run_cli(capsys, [command, "--gram", gram, "--module", label, "--order", "2"])
    assert code == EXIT_INVALID and out == ""
    assert err.startswith(f"error: label {label!r}") and named in err


@pytest.mark.parametrize("batch,entry", [
    ([5], "0 is not a triple of label strings: 5"),
    ([[1, 2, 3]], "0 is not a triple of label strings: [1, 2, 3]"),
    ([["V+", "V+", None]], '0 is not a triple of label strings: ["V+", "V+", null]'),
    ([["V+", "V+", "V+"], ["V+", "V+"]], '1 is not a triple of label strings: ["V+", "V+"]'),
    (["V+-"], '0 is not a triple of label strings: "V+-"'),
    ([{"m1": "V+"}], '0 is not a triple of label strings: {"m1": "V+"}'),
])
def test_malformed_batch_entry_exits_two(tmp_path, capsys, batch, entry):
    gram = write_gram(tmp_path, A1)
    path = tmp_path / "batch.json"
    path.write_text(json.dumps(batch))
    code, out, err = run_cli(capsys, ["fusion", "--gram", gram, "--batch", str(path)])
    assert code == EXIT_INVALID and out == ""
    assert err == f"error: batch entry {entry}\n"


@pytest.mark.parametrize("bad,message", [
    (["T[0]+", "V+", "T[0]+"], "fusion with a twisted first argument is not among the supported rows"),
    (["V+", "Q", "V+"], "unrecognized module label 'Q'"),
])
def test_batch_entry_errors_name_the_entry(tmp_path, capsys, bad, message):
    gram = write_gram(tmp_path, [[2, 0], [0, 6]])
    path = tmp_path / "batch.json"
    path.write_text(json.dumps([["V+", "V+", "V+"], bad]))
    code, out, err = run_cli(capsys, ["fusion", "--gram", gram, "--batch", str(path)])
    assert code == EXIT_INVALID and out == ""
    assert err == f"error: batch entry 1: {message}\n"
    # a single --triple has no entry to name
    code, out, err = run_cli(capsys, ["fusion", "--gram", gram, "--triple", *bad])
    assert code == EXIT_INVALID and err == f"error: {message}\n"


@pytest.mark.parametrize("text", ["\xff\xfe[", "[" * 100000])
def test_unreadable_json_files_exit_two(tmp_path, capsys, text):
    gram = write_gram(tmp_path, A1)
    path = tmp_path / "bad.json"
    path.write_bytes(text.encode("latin-1"))
    for argv in (["analyze", "--gram", str(path)],
                 ["fusion", "--gram", gram, "--batch", str(path)],
                 ["fusion", "--gram", gram, "--triple", "V+", "V+", "V+", "--oracle", str(path)]):
        code, out, err = run_cli(capsys, argv)
        assert code == EXIT_INVALID and out == "" and err.startswith("error: "), argv


def test_env_order_change_between_calls_takes_effect(tmp_path, capsys, monkeypatch):
    gram = write_gram(tmp_path, A1)
    outs = []
    for order in ("2", "3", "2", "2"):
        monkeypatch.setenv("VLPLUS_ORDER", order)
        code, out, _ = run_cli(capsys, ["char", "--gram", gram, "--module", "V+"])
        assert code == EXIT_OK
        outs.append(out.splitlines())
    assert outs == [["0\t1", "1\t1"], ["0\t1", "1\t1", "2\t2"], ["0\t1", "1\t1"], ["0\t1", "1\t1"]]


# ---------------------------------------------------------------------------
# fuzz: random labels and batch files exit 0 or 2, never with a traceback
# ---------------------------------------------------------------------------

LABELISH = st.text(alphabet="UCTV[]+-/,.e0123456789 ", max_size=14)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-5, 5) | st.floats(allow_nan=False) | LABELISH,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(LABELISH, inner, max_size=2),
    max_leaves=12,
)


def label_texts(rank: int):
    """Label-shaped strings: U/C with about rank p/q coordinates (q may be 0), or T[i]."""
    coord = st.builds("{}/{}".format, st.integers(-4, 4), st.integers(0, 6))
    coords = st.lists(coord, min_size=max(rank - 1, 1), max_size=rank + 1).map(",".join)
    return st.one_of(
        st.builds("{}[{}]{}".format, st.sampled_from("UC"), coords, st.sampled_from(["", "+", "-", "+-"])),
        st.builds("T[{}]{}".format, st.integers(-1, 9), st.sampled_from(["", "+", "-"])),
    )


def run_isolated(argv) -> tuple[int, str]:
    """Exit code and stderr of one in-process call; any other exception propagates."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
    return code, err.getvalue()


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(even_grams(), st.data())
def test_cli_fuzz_labels_and_batches_exit_zero_or_two(gram, data):
    names = [format_label(m) for m in classify_modules(validate_even_lattice(gram))]
    labels = st.sampled_from(names) | label_texts(len(gram))
    label = data.draw(labels | LABELISH | st.text(max_size=10))
    batch = data.draw(JSON_VALUES | st.lists(st.lists(labels, min_size=3, max_size=3), max_size=4))
    with tempfile.TemporaryDirectory() as tmp:
        gram_path = os.path.join(tmp, "gram.json")
        batch_path = os.path.join(tmp, "batch.json")
        with open(gram_path, "w") as fh:
            json.dump({"gram": gram}, fh)
        with open(batch_path, "w") as fh:
            json.dump(batch, fh)
        for argv in (["char", "--gram", gram_path, f"--module={label}", "--order", "2"],
                     ["decompose", "--gram", gram_path, f"--module={label}", "--order", "1"],
                     ["fusion", "--gram", gram_path, "--batch", batch_path]):
            code, err = run_isolated(argv)
            assert code in (EXIT_OK, EXIT_INVALID), (argv, err)
            assert "Traceback" not in err
            if code == EXIT_INVALID:
                assert err.startswith(("error: ", "usage: ")), err


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(JSON_VALUES, JSON_VALUES, st.sampled_from(sorted(ORACLE_QUERIES)))
def test_cli_fuzz_gram_values_and_oracle_tables_exit_zero_or_two(gram, value, table):
    # any JSON value as the "gram" value, and as a sign-oracle table, its pi
    # or c part, or the entry an A1 query reads: exit 0, or 2 with a message
    key, triple = ORACLE_QUERIES[table]
    with tempfile.TemporaryDirectory() as tmp:
        paths = [os.path.join(tmp, f"{i}.json") for i in range(5)]
        contents = [{"gram": gram}, {"gram": A1}, value, {table: value}, {table: {key: value}}]
        for path, content in zip(paths, contents):
            with open(path, "w") as fh:
                json.dump(content, fh)
        argvs = [["analyze", "--gram", paths[0]]]
        argvs += [["fusion", "--gram", paths[1], "--triple", *triple, "--oracle", path]
                  for path in paths[2:]]
        for argv in argvs:
            code, err = run_isolated(argv)
            assert code in (EXIT_OK, EXIT_INVALID), (argv, err)
            assert "Traceback" not in err
            if code == EXIT_INVALID:
                assert err.startswith("error: "), err


@pytest.fixture(scope="module")
def certificates(tmp_path_factory):
    """Gram file and parsed certificate of diag(2,6) (orthogonal route) and det 36 (sublattice route)."""
    out = {}
    for name, gram in (("diag26", [[2, 0], [0, 6]]), ("det36", DET36)):
        tmp = tmp_path_factory.mktemp(name)
        gram_path, cert_path = write_gram(tmp, gram), str(tmp / "cert.json")
        assert run_isolated(["certify", "--gram", gram_path, "--out", cert_path])[0] == EXIT_OK
        with open(cert_path) as fh:
            out[name] = gram_path, json.load(fh)
    return out


def mutate(data, doc):
    """doc with one key dropped, or one value replaced by a JSON draw, at a drawn path."""
    doc = copy.deepcopy(doc)
    parent, key, node = None, None, doc
    while isinstance(node, (dict, list)) and node and (parent is None or data.draw(st.booleans())):
        key = data.draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
        parent, node = node, node[key]
    if data.draw(st.booleans()):
        del parent[key]
    else:
        parent[key] = data.draw(JSON_VALUES)
    return doc


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(["diag26", "det36"]), st.data())
def test_cli_fuzz_certificate_files_exit_zero_two_or_three(certificates, name, data):
    # one key dropped or one value replaced: exit 2 or 3 with no traceback,
    # and 0 (verified) only for a mutant equal to the original
    gram_path, original = certificates[name]
    mutant = mutate(data, original)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "mutant.json")
        with open(path, "w") as fh:
            json.dump(mutant, fh)
        code, err = run_isolated(["certify", "--gram", gram_path, "--verify", path])
    assert code in (EXIT_OK, EXIT_INVALID, EXIT_INCOMPLETE), err
    assert "Traceback" not in err
    if code == EXIT_OK:
        assert json.dumps(mutant, sort_keys=True) == json.dumps(original, sort_keys=True)
