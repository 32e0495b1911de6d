"""Definition-file parsing, printing, and realization."""

import glob
import sys
from fractions import Fraction

import pytest

import bihom.dsl

from bihom.algebra import (
    BiHomAssociativeAlgebra,
    BiHomDialgebra,
    _table_refusal,
    assoc_readings,
    catalog,
    table_from_entries,
)
from bihom.deformation import TruncatedDeformation
from bihom.dsl import DslError, build_all, build_block, parse, parse_path, print_definition


CORPUS = sorted(glob.glob("corpus/*.dlg"))


def test_corpus_is_present():
    assert len(CORPUS) == 11


def test_corpus_round_trips_byte_stable():
    """The canonical printer reproduces every shipped file exactly."""
    for path in CORPUS:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        df = parse(text)
        assert print_definition(df) == text, path
        assert parse(print_definition(df)) == df, path


def test_oversized_tables_are_refused_before_allocation():
    """The library gets the CLI's text as a ValueError; a dim too long to
    cube in print is named by its power.  Nothing here is allocated."""
    with pytest.raises(ValueError, match=r"^dim 5000 needs 125000000000 product table cells, over the limit of 1000000$"):
        table_from_entries(5000, {(1, 1): {1: 1}})
    with pytest.raises(ValueError, match=r"needs 1(0){1999}\^3 product table cells"):
        table_from_entries(10**1999, {})
    with pytest.raises(DslError, match=r"line 1, column 21: dim 101 needs 1030301 product table cells"):
        parse("dialgebra Big { dim 101; basis " + " ".join(f"b{i}" for i in range(101)) + "; }")
    assert _table_refusal(100) is None  # the largest dim admitted, checked without building its table


def test_print_is_idempotent_on_noncanonical_input():
    text = "dialgebra   X{dim 2;basis e1 e2;dashv(e1,e1)=2*e1+e2;phi(e1)=e1;psi(e1)=e1;}"
    once = print_definition(parse(text))
    assert print_definition(parse(once)) == once
    assert "dashv(e1, e1) = 2*e1 + e2;" in once


def same_dialgebra(A, B):
    return (
        A.dim == B.dim
        and A.dashv == B.dashv
        and A.vdash == B.vdash
        and A.phi == B.phi
        and A.psi == B.psi
    )


def test_corpus_dialgebras_match_catalog_builds():
    entries = catalog()
    for path in CORPUS:
        df = parse_path(path)
        for block in df.blocks:
            if getattr(block, "kind", None) != "dialgebra":
                continue
            built = build_block(df, block.name)
            assert isinstance(built, BiHomDialgebra)
            ref = entries[block.name].build(**{p: v for p, v in block.params})
            assert same_dialgebra(built, ref), block.name


def test_corpus_readings_match_builtin_pair():
    df = parse_path("corpus/ex43.dlg")
    readings = assoc_readings()
    pairs = {"Ex43_readingA": "Assoc3_A", "Ex43_readingB": "Assoc3_B"}
    for block_name, builtin in pairs.items():
        built = build_block(df, block_name)
        assert isinstance(built, BiHomAssociativeAlgebra)
        ref = readings[builtin]
        assert built.mul == ref.mul
        assert built.phi == ref.phi and built.psi == ref.psi


def test_lexical_error_fixture():
    with pytest.raises(DslError) as exc:
        parse_path("tests/fixtures/lexical.dlg")
    e = exc.value
    assert (e.kind, e.line, e.col) == ("lexical", 4, 22)
    assert str(e) == "lexical error at line 4, column 22: unexpected character '@'"


def _refuse_conversion(*args):
    raise AssertionError("a number token was converted")


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(), reason="no digit limit")
@pytest.mark.parametrize("token", ["9" * 5000, "-1/" + "7" * 4301], ids=["dim", "denominator"])
def test_an_over_long_number_is_a_located_lexical_error(monkeypatch, token):
    """A number token longer than the interpreter's integer digit limit is
    refused by the lexer, with its place, before int() or Fraction() reads it."""
    monkeypatch.setattr(bihom.dsl, "int", _refuse_conversion, raising=False)
    monkeypatch.setattr(bihom.dsl, "Fraction", _refuse_conversion)
    limit = sys.get_int_max_str_digits()
    with pytest.raises(DslError) as exc:
        parse(f"dialgebra X {{\n  dim {token};\n  basis e;\n}}\n")
    e = exc.value
    digits = max(len(part) for part in token.lstrip("-").split("/"))
    assert (e.kind, e.line, e.col) == ("lexical", 2, 7)
    assert e.detail == f"number of {digits} digits, over the interpreter's limit of {limit}"


def test_a_number_at_the_digit_limit_still_reads():
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300
    text = f"dialgebra X {{\n  dim 1;\n  basis e;\n  param a = -{'7' * limit}/{'3' * limit};\n" \
           "  dashv(e, e) = a*e;\n  phi(e) = e;\n  psi(e) = e;\n}\n"
    assert build_block(parse(text), "X").dashv[0][0] == (Fraction(-7, 3),)


def test_unknown_basis_fixture():
    with pytest.raises(DslError) as exc:
        parse_path("tests/fixtures/unknown_basis.dlg")
    e = exc.value
    assert (e.kind, e.line, e.col) == ("semantic", 4, 3)
    assert str(e) == "semantic error at line 4, column 3: unknown basis name 'e3'"


def test_conflicting_entry_fixture():
    with pytest.raises(DslError) as exc:
        parse_path("tests/fixtures/conflicting.dlg")
    e = exc.value
    assert (e.kind, e.line) == ("semantic", 7)
    assert str(e).endswith("conflicting entry for mul(e1, e2)")


@pytest.mark.parametrize(
    "data, where",
    [
        (b"\xff\xfedialgebra X {\n", (1, 1, "0xff")),
        (b"dialgebra X {\r\n  dim 1;\r\n  basis e\xc3\xa9 \xe9;\r\n}\r\n", (3, 12, "0xe9")),
    ],
    ids=["line1", "line3"],
)
def test_non_utf8_byte_is_a_located_lexical_error(tmp_path, data, where):
    path = tmp_path / "bad.dlg"
    path.write_bytes(data)
    with pytest.raises(DslError) as exc:
        parse_path(path)
    line, col, byte = where
    e = exc.value
    assert (e.kind, e.line, e.col) == ("lexical", line, col)
    assert str(e) == f"lexical error at line {line}, column {col}: invalid UTF-8 byte {byte}"


@pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
def test_crlf_and_cr_files_read_as_lf(tmp_path, newline):
    path = tmp_path / "x.dlg"
    for source in ("corpus/deform_alg2_2.dlg", "tests/fixtures/lexical.dlg"):
        with open(source, encoding="utf-8") as fh:
            text = fh.read()
        path.write_bytes(text.replace("\n", newline).encode("utf-8"))
        try:
            want = parse(text)
        except DslError as e:
            with pytest.raises(DslError) as exc:
                parse_path(path)
            assert str(exc.value) == str(e)
        else:
            assert parse_path(path) == want


def test_syntax_error_reports_location():
    with pytest.raises(DslError) as exc:
        parse("dialgebra X {\n  dim 2\n  basis e1 e2;\n}")
    assert exc.value.kind == "syntax"
    assert exc.value.line == 3


def test_identical_repeated_entry_is_tolerated():
    text = (
        "dialgebra X {\n  dim 2;\n  basis e1 e2;\n"
        "  dashv(e1, e2) = e1;\n  dashv(e1, e2) = e1;\n}\n"
    )
    df = parse(text)
    block = df.blocks[0]
    assert len(block.entries) == 1
    # differing right side with the same key is a conflict
    with pytest.raises(DslError, match="conflicting entry"):
        parse(text.replace("dashv(e1, e2) = e1;\n}", "dashv(e1, e2) = e2;\n}"))


def test_unbound_parameter_rejected():
    with pytest.raises(DslError, match="unbound parameter 'b'"):
        parse("dialgebra X {\n  dim 1;\n  basis e1;\n  dashv(e1, e1) = b*e1;\n}")


def test_parameters_resolve_with_declared_defaults():
    text = (
        "dialgebra X {\n  dim 2;\n  basis e1 e2;\n  param a = -3/2;\n"
        "  dashv(e2, e2) = a*e1 + a*e2;\n}\n"
    )
    A = build_block(parse(text), "X")
    assert A.dashv[1][1] == (Fraction(-3, 2), Fraction(-3, 2))


def test_cancelling_terms_build_to_zero():
    text = (
        "dialgebra X {\n  dim 2;\n  basis e1 e2;\n"
        "  dashv(e1, e1) = e1 + -1*e1;\n}\n"
    )
    A = build_block(parse(text), "X")
    assert A.dashv[0][0] == (0, 0)


def test_block_kind_restricts_entry_ops():
    with pytest.raises(DslError, match="'mul' not allowed in 'dialgebra'"):
        parse("dialgebra X {\n  dim 1;\n  basis e1;\n  mul(e1, e1) = e1;\n}")
    with pytest.raises(DslError, match="'dashv' not allowed in 'algebra'"):
        parse("algebra X {\n  dim 1;\n  basis e1;\n  dashv(e1, e1) = e1;\n}")


def test_deformation_term_order_bounds():
    head = (
        "dialgebra B {\n  dim 2;\n  basis e1 e2;\n  phi(e2) = e1;\n  psi(e2) = e1;\n}\n\n"
    )
    with pytest.raises(DslError, match="term order 3 outside 1..2"):
        parse(head + "deformation D of B {\n  order 2;\n  term 3 dashv(e2, e2) = e1;\n}")
    with pytest.raises(DslError, match="unknown base"):
        parse("deformation D of Nope {\n  order 1;\n}")


_DEFORMATION_BASE = (
    "dialgebra B {\n  dim 2;\n  basis e1 e2;\n  phi(e2) = e1;\n  psi(e2) = e1;\n}\n\n"
    "deformation D of B {\n  order 2;\n  term 1 dashv(e2, e2) = e1;\n"
)


def test_deformation_conflicting_repeat_is_located():
    """A repeated deformation entry with a different right side fails at
    the repeat, with the algebra block's message."""
    with pytest.raises(DslError) as exc:
        parse(_DEFORMATION_BASE + "  term 1 dashv(e2, e2) = e2;\n}\n")
    e = exc.value
    assert (e.kind, e.line, e.col) == ("semantic", 11, 10)
    assert str(e) == "semantic error at line 11, column 10: conflicting entry for dashv(e2, e2)"


def test_deformation_identical_repeat_is_kept_once():
    df = parse(_DEFORMATION_BASE + "  term 1 dashv(e2, e2) = e1;\n}\n")
    (idx, entry), = df.block("D").terms
    assert idx == 1 and entry.render() == "dashv(e2, e2) = e1;"
    assert entry.line == 10


def test_deformation_entry_at_two_term_orders_is_accepted():
    df = parse(_DEFORMATION_BASE + "  term 2 dashv(e2, e2) = e1;\n}\n")
    assert [(i, e.render()) for i, e in df.block("D").terms] == [
        (1, "dashv(e2, e2) = e1;"),
        (2, "dashv(e2, e2) = e1;"),
    ]
    d = build_block(df, "D")
    assert isinstance(d, TruncatedDeformation)


def test_duplicate_block_names_rejected():
    text = "dialgebra X {\n  dim 1;\n  basis e1;\n}\n\ndialgebra X {\n  dim 1;\n  basis e1;\n}"
    with pytest.raises(DslError, match="duplicate block name"):
        parse(text)


def test_build_all_realizes_every_block():
    df = parse_path("corpus/deform_alg2_2.dlg")
    objs = build_all(df)
    assert set(objs) == {"Alg2_2", "D1"}
    assert isinstance(objs["Alg2_2"], BiHomDialgebra)
    assert isinstance(objs["D1"], TruncatedDeformation)
    assert objs["D1"].order == 2
    assert objs["D1"].term(1).value(0, (1, 1)) == (Fraction(1, 2), 0)
    assert objs["D1"].term(2).value(1, (1, 1)) == (-3, 0)


def test_comments_and_whitespace_are_ignored():
    text = (
        "# leading remark\n"
        "dialgebra X { # trailing\n  dim 1;\n  basis e1;\n  # inner\n  dashv(e1, e1) = e1;\n}\n"
    )
    A = build_block(parse(text), "X")
    assert A.dashv[0][0] == (1,)


@pytest.mark.parametrize("text, message", [
    ("dialgebra A", "line 1, column 12: expected '{', found end of input"),
    ("dialgebra A ;", "line 1, column 13: expected '{', found ';'"),
    ("dialgebra", "line 1, column 10: expected block name, found end of input"),
    ("dialgebra 3", "line 1, column 11: expected block name, found '3'"),
    ("dialgebra A {", "line 1, column 14: expected 'dim', found end of input"),
    ("dialgebra A { basis", "line 1, column 15: expected 'dim', found 'basis'"),
    ("dialgebra A { dim", "line 1, column 18: expected dimension, found end of input"),
    ("dialgebra A { dim 1/2", "line 1, column 19: expected dimension, found '1/2'"),
    ("dialgebra A { dim 1; basis e1; param a =", "line 1, column 41: expected rational, found end of input"),
    ("dialgebra A { dim 1; basis e1; param a = x", "line 1, column 42: expected rational, found 'x'"),
])
def test_expected_token_messages_name_what_was_found(text, message):
    """A punctuation mark, a name, a keyword, an integer and a rational, each
    missing at the end of input and each met by another token."""
    with pytest.raises(DslError) as exc:
        parse(text)
    assert str(exc.value) == f"syntax error at {message}"


_TWO = "dialgebra A {\n  dim 2;\n  basis e1 e2;\n"
_ONE = "dialgebra A {\n  dim 1;\n  basis e1;\n}\n"


@pytest.mark.parametrize("text, kind, line, col, message", [
    ("dialgebra A {\n  dim 2;\n  basis e1 e1;\n}", "semantic", 3, 12, "duplicate basis name 'e1'"),
    ("dialgebra A {\n  dim 3;\n  basis e1 e2;\n}", "semantic", 2, 7, "dim 3 does not match 2 basis name(s)"),
    (_TWO + "  param a = 1;\n  param a = 2;\n}", "semantic", 5, 9, "duplicate parameter 'a'"),
    (_TWO + "  param e2 = 1;\n}", "semantic", 4, 9, "parameter 'e2' shadows a basis name"),
    ("algebra B {\n  dim 1;\n  basis e1;\n}\ndeformation D of B {\n  order 1;\n}",
     "semantic", 5, 18, "deformation base 'B' is not a dialgebra"),
    (_ONE + "deformation D of A {\n  order -1;\n}", "semantic", 6, 9, "order must be nonnegative"),
    (_ONE + "deformation D of A {\n  order 1;\n  term 1 phi(e1) = e1;\n}",
     "semantic", 7, 10, "entry 'phi' not allowed in deformation block"),
    ("# a remark\nalgebras A {}", "syntax", 2, 1, "expected 'dialgebra', 'algebra' or 'deformation', found 'algebras'"),
    ("dialgebra A {\n  dim 1;\n  basis ;\n}", "syntax", 3, 9, "expected at least one basis name"),
    (_TWO + "  dashv(e1, e2) = ;\n}", "syntax", 4, 19, "expected term"),
    (_TWO + "  dash(e1, e2) = e1;\n}", "syntax", 4, 3, "expected one of dashv/vdash/mul/phi/psi, found 'dash'"),
    (_TWO + "  dashv(e1, e2) = 2*e3;\n}", "semantic", 4, 3, "unknown basis name 'e3'"),
], ids=["duplicate-basis", "dim-count", "duplicate-param", "param-shadows-basis", "base-not-dialgebra",
        "negative-order", "non-product-term", "block-keyword", "no-basis", "expected-term",
        "entry-keyword", "unknown-term-basis"])
def test_each_refusal_is_located(text, kind, line, col, message):
    """Each refusal of the parser names its kind, the line and column of the
    token at fault and what is wrong there."""
    with pytest.raises(DslError) as exc:
        parse(text)
    e = exc.value
    assert (e.kind, e.line, e.col, e.detail) == (kind, line, col, message)
    assert str(e) == f"{kind} error at line {line}, column {col}: {message}"


def test_an_explicit_zero_entry_round_trips():
    """`= 0;` parses to an entry with no terms, which prints back as `= 0;`,
    and builds a zero product cell next to a nonzero one."""
    text = "dialgebra Z {\n  dim 2;\n  basis e1 e2;\n  dashv(e1, e2) = 0;\n  vdash(e2, e2) = e1;\n}\n"
    df = parse(text)
    assert df.block("Z").entries[0].terms == ()
    assert print_definition(df) == text
    assert parse(print_definition(df)) == df
    A = build_block(df, "Z")
    assert not any(any(cell) for line in A.dashv for cell in line)
    assert A.vdash[1][1] == (1, 0)
