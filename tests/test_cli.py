"""Command line surface: exit codes, output shapes, JSON determinism."""

import glob
import json
import sys
from fractions import Fraction

import pytest
from click.testing import CliRunner

import bihom.dsl

from bihom.algebra import BiHomAssociativeAlgebra
from bihom.cli import main
from bihom.cohomology import cohomology, cohomology_report, cohomology_spaces
from bihom.derivations import (
    BiDegree,
    GeneralizedSpec,
    derivation_space,
    generalized_derivation_space,
    generalized_triple_space,
    quasi_derivation_space,
)
from bihom.dsl import DeformationBlock, build_block, parse_path


def run(*args):
    return CliRunner().invoke(main, list(args))


DIALGEBRA_FILES = sorted(
    p for p in glob.glob("corpus/*.dlg") if p != "corpus/ex43.dlg"
)


def test_verify_corpus_passes():
    for path in DIALGEBRA_FILES:
        r = run("verify", path)
        assert r.exit_code == 0, (path, r.output)
        assert "axioms: OK (6/6)" in r.output
        assert r.output.rstrip().endswith("result: PASS")


def test_verify_single_block():
    r = run("verify", "corpus/deform_alg2_2.dlg", "--name", "Alg2_2")
    assert r.exit_code == 0
    assert "Alg2_2: axioms: OK (6/6)" in r.output
    r = run("verify", "corpus/deform_alg2_2.dlg", "--name", "Nope")
    assert r.exit_code == 2
    assert "no block named" in r.output


def test_verify_refuses_an_empty_block_name():
    r = run("verify", "corpus/deform_alg2_2.dlg", "--name", "")
    assert r.exit_code == 2
    assert r.stdout == ""
    assert "no block named '' in the file" in r.stderr


def test_verify_ambiguous_example_fails():
    r = run("verify", "corpus/ex43.dlg")
    assert r.exit_code == 1
    assert "Ex43_readingA: axioms: FAIL (0/2)" in r.output
    assert "first violation twist_commute at (e2)" in r.output
    assert r.output.rstrip().endswith("result: FAIL")


def test_error_fixtures_exit_2_with_locations():
    cases = {
        "tests/fixtures/lexical.dlg": "lexical error at line 4, column 22: unexpected character '@'",
        "tests/fixtures/unknown_basis.dlg": "semantic error at line 4, column 3: unknown basis name 'e3'",
        "tests/fixtures/conflicting.dlg": "semantic error at line 7, column 3: conflicting entry for mul(e1, e2)",
    }
    for path, message in cases.items():
        r = run("verify", path)
        assert r.exit_code == 2, path
        assert message in r.output, path


@pytest.mark.parametrize(
    "data, where",
    [(b"\xff\xfedialgebra X {\n", "line 1, column 1: invalid UTF-8 byte 0xff"),
     (b"dialgebra X {\n  dim 1;\n  basis \xe9;\n}\n", "line 3, column 9: invalid UTF-8 byte 0xe9")],
    ids=["line1", "line3"],
)
def test_non_utf8_file_exits_2_with_location(tmp_path, data, where):
    path = tmp_path / "bad.dlg"
    path.write_bytes(data)
    r = run("verify", str(path))
    assert r.exit_code == 2
    assert r.stderr == f"error: {path}: lexical error at {where}\n"


def test_oversized_dimension_exits_2_at_the_dim_token(tmp_path):
    """A well-formed block of dim 5000 with one entry is refused at its dim
    token, before any table is built: 5000^3 cells is over the limit."""
    names = " ".join(f"b{i}" for i in range(5000))
    path = tmp_path / "big.dlg"
    path.write_text(f"dialgebra Big {{\n  dim 5000;\n  basis {names};\n  dashv(b0, b0) = b0;\n"
                    "  phi(b0) = b0;\n  psi(b0) = b0;\n}\n", encoding="utf-8")
    r = run("verify", str(path), "--name", "Big")
    assert r.exit_code == 2
    assert r.stderr == (f"error: {path}: semantic error at line 2, column 7: dim 5000 needs "
                        "125000000000 product table cells, over the limit of 1000000\n")


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(), reason="no digit limit")
def test_an_over_long_number_exits_2_with_location(tmp_path, monkeypatch):
    """A dim of 5000 nines is refused by the lexer at its token, exit 2,
    and no number token is converted on the way."""

    def refuse(*args):
        raise AssertionError("a number token was converted")

    monkeypatch.setattr(bihom.dsl, "int", refuse, raising=False)
    monkeypatch.setattr(bihom.dsl, "Fraction", refuse)
    path = tmp_path / "long.dlg"
    path.write_text(f"dialgebra Long {{\n  dim {'9' * 5000};\n  basis e;\n}}\n", encoding="utf-8")
    r = run("verify", str(path))
    assert r.exit_code == 2
    assert r.stderr == (f"error: {path}: lexical error at line 2, column 7: number of 5000 digits, "
                        f"over the interpreter's limit of {sys.get_int_max_str_digits()}\n")


def test_derive_prints_dimension_and_basis():
    r = run("derive", "corpus/alg3_3.dlg", "--name", "Alg3_3", "--k", "1", "--l", "1")
    assert r.exit_code == 0
    assert "dim Der = 2" in r.output
    assert "basis 1 (D):" in r.output

    r = run(
        "derive", "corpus/alg3_3.dlg", "--name", "Alg3_3",
        "--k", "1", "--l", "1", "--json",
    )
    assert r.exit_code == 0
    doc = json.loads(r.output)
    assert doc["command"] == "derive"
    assert doc["dim"] == 2
    assert doc["variant"] == "plain"


def test_derive_quasi_and_triple_variants():
    r = run("derive", "corpus/alg2_2.dlg", "--name", "Alg2_2",
            "--k", "1", "--l", "1", "--quasi", "--json")
    assert r.exit_code == 0
    doc = json.loads(r.output)
    assert doc["variant"] == "quasi"
    assert doc["dim"] == 3
    r = run("derive", "corpus/alg2_1.dlg", "--name", "Alg2_1",
            "--k", "0", "--l", "0", "--triple", "--json")
    assert r.exit_code == 0
    assert json.loads(r.output)["variant"] == "generalized_triple"


def test_derive_generalized_scales():
    r = run("derive", "corpus/alg2_2.dlg", "--name", "Alg2_2",
            "--k", "1", "--l", "1", "--alpha", "1", "--beta", "1", "--gamma", "1",
            "--json")
    assert r.exit_code == 0
    doc = json.loads(r.output)
    assert doc["variant"] == "generalized"
    base = run("derive", "corpus/alg2_2.dlg", "--name", "Alg2_2",
               "--k", "1", "--l", "1", "--json")
    assert doc["dim"] == json.loads(base.output)["dim"]


def test_derive_command_agrees_with_the_library():
    """Every corpus algebra block at (1, 1), in all four variants: the CLI
    reports the library space's dimension, projections and basis."""
    spec = GeneralizedSpec(2, -1, Fraction(3, 2))
    variants = (
        ((), derivation_space),
        (("--quasi",), quasi_derivation_space),
        (("--triple",), generalized_triple_space),
        (("--alpha", "2", "--beta", "-1", "--gamma", "3/2"),
         lambda A, deg: generalized_derivation_space(A, deg, spec)),
    )
    deg = BiDegree(1, 1)
    checked = 0
    for path in sorted(glob.glob("corpus/*.dlg")):
        df = parse_path(path)
        for block in df.blocks:
            if isinstance(block, DeformationBlock):
                continue
            A = build_block(df, block.name)
            if isinstance(A, BiHomAssociativeAlgebra):
                A = A.as_dialgebra()
            for flags, solver in variants:
                r = run("derive", path, "--name", block.name, "--k", "1", "--l", "1",
                        *flags, "--json")
                assert r.exit_code == 0, (path, block.name, flags, r.output)
                doc = json.loads(r.output)
                space = solver(A, deg)
                labels = list(doc["projection_dims"])
                assert labels == ["D", "D'", "D''"][: space.components]
                assert doc["dim"] == space.dim, (block.name, flags)
                assert list(doc["projection_dims"].values()) == [
                    space.projection(c).dim for c in range(space.components)
                ]
                assert doc["basis"] == [
                    {lab: [[str(M[i, j]) for j in range(A.dim)] for i in range(A.dim)]
                     for lab, M in zip(labels, mats)}
                    for mats in space.basis_matrices()
                ]
                checked += 1
    assert checked >= 4 * 10


def test_classify_summary_line():
    r = run("classify")
    assert r.exit_code == 0
    assert r.output.rstrip().endswith("cells: 27, agree: 16, differ: 11")
    assert "[DIFFERS]" in r.output and "[ok]" in r.output


def test_classify_refuses_unknown_bind_names():
    r = run("classify", "--bind", "a=2,zz=3")
    assert r.exit_code == 2
    assert r.stdout == ""
    assert "unknown parameter 'zz'; known: a, b, c, d, f" in r.stderr


def test_classify_refuses_a_repeated_bind_name():
    r = run("classify", "--bind", "a=1,a=2")
    assert r.exit_code == 2
    assert r.stdout == ""
    assert "--bind names parameter 'a' more than once" in r.stderr


def test_classify_json_is_deterministic():
    a = run("classify", "--json")
    b = run("classify", "--json")
    assert a.exit_code == b.exit_code == 0
    assert a.output == b.output
    doc = json.loads(a.output)
    assert doc["summary"] == {"cells": 27, "agree": 16, "differ": 11}


def test_cohomology_dialgebra_dimensions():
    r = run("cohomology", "corpus/alg2_2.dlg", "--name", "Alg2_2", "--degree", "2")
    assert r.exit_code == 0
    assert "complex: dialg" in r.output
    assert "compatible dim = 8" in r.output
    assert "cocycle dim = 6" in r.output
    assert "coboundary dim = 2" in r.output
    assert "cohomology dim = 4" in r.output


def test_cohomology_reference_checklist():
    r = run("cohomology", "corpus/ex43.dlg", "--name", "Ex43_readingA", "--degree", "2")
    assert r.exit_code == 0
    assert "cohomology dim = undefined (coboundaries escape cocycles)" in r.output
    for pat in ("(e1, e3)", "(e2, e3)", "(e3, e3)"):
        assert f"reference pattern {pat} -> e3: in Z^2: no" in r.output

    r3 = run("cohomology", "corpus/ex43.dlg", "--name", "Ex43_readingB", "--degree", "3")
    assert r3.exit_code == 0
    assert "ambiguous pattern (e3, e3, e1): excluded (listed 3 times)" in r3.output
    assert r3.output.count("reference pattern") == 9


def test_cohomology_command_agrees_with_the_library():
    """Every corpus algebra block, degrees 1-3: the CLI reports the same
    dimensions as cohomology_spaces and cohomology().  Where coboundaries
    escape the cocycles the library raises and the CLI reports the
    quotient as undefined; the Ex43 readings do so in degrees 2 and 3."""
    escaping = set()
    for path in sorted(glob.glob("corpus/*.dlg")):
        df = parse_path(path)
        for block in df.blocks:
            if isinstance(block, DeformationBlock):
                continue
            X = build_block(df, block.name)
            for n in (1, 2, 3):
                r = run("cohomology", path, "--name", block.name, "--degree", str(n), "--json")
                assert r.exit_code == 0, (path, block.name, n)
                doc = json.loads(r.output)
                C, Z, B = cohomology_spaces(X, n)
                assert (doc["compatible_dim"], doc["cocycle_dim"], doc["coboundary_dim"]) == (
                    C.dim, Z.dim, B.dim
                ), (block.name, n)
                if doc["coboundaries_contained"]:
                    assert doc["cohomology_dim"] == cohomology(X, n).cohomology_dim
                else:
                    assert doc["cohomology_dim"] is None
                    with pytest.raises(ArithmeticError, match="^coboundaries escape cocycles"):
                        cohomology(X, n)
                    escaping.add((block.name, n))
    assert escaping == {(f"Ex43_reading{r}", n) for r in "AB" for n in (2, 3)}


def test_cohomology_bad_degree():
    r = run("cohomology", "corpus/alg2_2.dlg", "--name", "Alg2_2", "--degree", "0")
    assert r.exit_code == 2
    assert "--degree must be at least 1" in r.output


_EQUAL_PRODUCTS = """dialgebra E {
  dim 2;
  basis e1 e2;
  dashv(e2, e2) = e1;
  vdash(e2, e2) = e1;
  phi(e2) = e1;
  psi(e2) = e1;
}

algebra N {
  dim 2;
  basis e1 e2;
  mul(e2, e2) = e1;
  phi(e2) = e1;
  psi(e2) = e1;
}
"""


def _cohomology_json(path, name, degree, *flags):
    r = run("cohomology", str(path), "--name", name, "--degree", str(degree), *flags, "--json")
    assert r.exit_code == 0, r.output
    return json.loads(r.output)


def test_cohomology_complex_hoch_reads_equal_products_as_the_algebra(tmp_path):
    """--complex hoch on a dialgebra whose two products are equal reports
    the one-product complex of that product: the same answer as the
    algebra block of that product and as the library on it, and not the
    tree complex's."""
    path = tmp_path / "equal.dlg"
    path.write_text(_EQUAL_PRODUCTS)
    N = build_block(parse_path(path), "N")
    for n in (1, 2, 3):
        doc = _cohomology_json(path, "E", n, "--complex", "hoch")
        assert doc["complex"] == "hoch"
        assert {**doc, "name": "N"} == _cohomology_json(path, "N", n)
        rep = cohomology_report(N, n)
        assert (doc["compatible_dim"], doc["cocycle_dim"], doc["coboundary_dim"], doc["cohomology_dim"]) == (
            rep.compatible_dim, rep.cocycle_dim, rep.coboundary_dim, rep.cohomology_dim), n
    hoch, dialg = _cohomology_json(path, "E", 2, "--complex", "hoch"), _cohomology_json(path, "E", 2)
    assert dialg["complex"] == "dialg" and dialg["compatible_dim"] != hoch["compatible_dim"]


def test_cohomology_complex_hoch_refuses_unequal_products():
    r = run("cohomology", "corpus/alg2_2.dlg", "--name", "Alg2_2", "--degree", "2", "--complex", "hoch")
    assert r.exit_code == 2
    assert "error: the one-product complex needs both products equal" in r.output


def test_cohomology_complex_dialg_reads_an_algebra_as_its_dialgebra():
    """--complex dialg on an algebra block reports the tree complex of
    as_dialgebra(), which is not the one-product complex the block gets by
    default."""
    X = build_block(parse_path("corpus/ex43.dlg"), "Ex43_readingA")
    for n in (1, 2, 3):
        doc = _cohomology_json("corpus/ex43.dlg", "Ex43_readingA", n, "--complex", "dialg")
        assert doc["complex"] == "dialg"
        rep = cohomology_report(X.as_dialgebra(), n)
        assert (doc["compatible_dim"], doc["cocycle_dim"], doc["coboundary_dim"], doc["coboundaries_contained"]) == (
            rep.compatible_dim, rep.cocycle_dim, rep.coboundary_dim, rep.contained), n
        assert doc["cohomology_dim"] == rep.cohomology_dim, n
    assert _cohomology_json("corpus/ex43.dlg", "Ex43_readingA", 2)["compatible_dim"] != cohomology_report(
        X.as_dialgebra(), 2).compatible_dim


def test_operad_check_pass_and_fail():
    r = run("operad-check", "corpus/alg2_2.dlg", "--name", "Alg2_2")
    assert r.exit_code == 0
    assert "brace square: 0" in r.output
    assert r.output.count("law ") == 5

    r = run("operad-check", "corpus/ex43.dlg", "--name", "Ex43_readingA")
    assert r.exit_code == 1
    assert "brace square: nonzero" in r.output
    assert "law left_left (tree 0): nonzero at (e1, e2, e2)" in r.output


def test_deform_check_orders():
    r = run("deform", "corpus/deform_alg2_2.dlg", "--name", "D1", "--check-order", "2")
    assert r.exit_code == 0
    assert "order 1: OK" in r.output and "order 2: OK" in r.output
    # beyond the stored order the family is padded with zero terms
    r3 = run("deform", "corpus/deform_alg2_2.dlg", "--name", "D1", "--check-order", "3")
    assert r3.exit_code == 0
    assert "order 3: OK" in r3.output

    r = run("deform", "corpus/deform_alg2_2.dlg", "--name", "Alg2_2",
            "--check-order", "1")
    assert r.exit_code == 2
    assert "not a deformation" in r.output


def test_deform_reports_failing_order():
    r = run("deform", "tests/fixtures/deform_bad.dlg", "--name", "Dbad", "--check-order", "1")
    assert r.exit_code == 1
    assert "order 1: FAIL" in r.output
    assert r.output.rstrip().endswith("result: FAIL")


def test_trivialize_corpus_deformation():
    r = run("trivialize", "corpus/deform_alg2_2.dlg", "--name", "D1", "--order", "2")
    assert r.exit_code == 0
    assert "trivial: yes" in r.output
    assert "psi_1:" in r.output and "[-1/2, 0]" in r.output
    assert "psi_2:" in r.output and "[-11/4, -3/2]" in r.output

    j = run("trivialize", "corpus/deform_alg2_2.dlg", "--name", "D1",
            "--order", "2", "--json")
    doc = json.loads(j.output)
    assert doc["trivial"] is True
    assert doc["witness"][0] == [["-1/2", "0"], ["0", "0"]]


def test_trivialize_reports_obstruction():
    # first-order term is a cocycle outside the coboundaries
    r = run("trivialize", "tests/fixtures/trivialize_stuck.dlg", "--name", "Dstuck",
            "--order", "1")
    assert r.exit_code == 1
    assert "trivial: no" in r.output
    assert "obstructed at order: 1" in r.output
    assert "obstruction closed: yes" in r.output
    assert "obstruction dashv (e1, e2) -> e1" in r.output


def test_json_outputs_parse_everywhere():
    checks = (
        ("verify", "corpus/alg3_1.dlg", "--json"),
        ("cohomology", "corpus/alg2_2.dlg", "--name", "Alg2_2", "--degree", "1", "--json"),
        ("operad-check", "corpus/alg3_5.dlg", "--name", "Alg3_5", "--json"),
        ("deform", "corpus/deform_alg2_2.dlg", "--name", "D1", "--check-order", "2", "--json"),
    )
    for args in checks:
        r1, r2 = run(*args), run(*args)
        assert r1.exit_code == 0, args
        assert r1.output == r2.output
        json.loads(r1.output)


@pytest.mark.parametrize("golden", ["tests/fixtures/cli_pinned.json", "perfbench/cli_golden.json"])
def test_reports_replay_byte_for_byte(golden):
    """Recorded stdout and exit code of every command in text and --json.
    cli_pinned.json holds the failure and variant paths; the benchmark's
    goldens are only read here."""
    with open(golden, encoding="utf-8") as fh:
        commands = json.load(fh)["commands"]
    for name, variants in commands.items():
        for variant, want in variants.items():
            r = run(*want["argv"])
            assert (r.exit_code, r.stdout) == (want["exit"], want["stdout"]), (name, variant)


def test_composition_commands_replay_the_pinned_fixtures():
    """operad-check on every algebra block in corpus/, and deform and
    trivialize on the corpus deformation at orders 0-2, then all three at
    order 2 on deform_rational.dlg (non-integral binding and terms), then
    trivialize obstructed on trivialize_stuck.dlg and trivialize at order
    4 on deform_rational.dlg, two orders past its terms, then derive in
    all four variants on alg3_1_rational.dlg and on Ex43 reading A, whose
    phi and psi differ, and verify on both files, then deform (failing at
    order 2, with a residual over 81 whose numerator passes 2^140),
    trivialize and operad-check on deform_bigint.dlg, whose binding and
    terms have denominators 7 and 9 and numerators past 2^70, then deform
    and trivialize (obstructed, the obstruction closed) at order 1 on
    deform_witness_d.dlg, a first-order deformation of the witness D: exit
    code and stdout, text and --json, against tests/fixtures/compositions, whose
    commands.txt lines read "fixture-name exit-code cli-arguments"."""
    pinned = "tests/fixtures/compositions"
    with open(f"{pinned}/commands.txt", encoding="utf-8") as fh:
        commands = [line.split() for line in fh if line.strip()]
    assert len(commands) == 35
    for name, code, *args in commands:
        for ext, flag in (("txt", []), ("json", ["--json"])):
            r = run(*args, *flag)
            with open(f"{pinned}/{name}.{ext}", encoding="utf-8") as fh:
                assert (r.exit_code, r.stdout) == (int(code), fh.read()), (name, ext)
