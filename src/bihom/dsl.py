"""Reader, checker and printer for algebra definition files.

The format is line oriented and declarative::

    # comment
    dialgebra Alg2_2 {
      dim 2;
      basis e1 e2;
      param a = 1;
      dashv(e1, e2) = a*e1;
      phi(e2) = e1;
      psi(e2) = e1;
    }

    algebra M { dim 1; basis u; mul(u, u) = u; }

    deformation D of Alg2_2 {
      order 1;
      term 1 dashv(e2, e2) = e1;
    }

Unlisted products and twist images default to zero.  Coefficients are
rationals ("3", "-1/2") or declared parameter names; a parameter
coefficient must be written with "*".  `print_definition` emits a
canonical form: parsing its output again gives an equal DefinitionFile,
and printing is idempotent byte for byte.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction

from bihom.algebra import (
    BiHomAssociativeAlgebra,
    BiHomDialgebra,
    _table_refusal,
    map_from_entries,
    table_from_entries,
)
from bihom.trees import PRODUCT_FOR_TREE

__all__ = [
    "DslError",
    "Term",
    "Entry",
    "AlgebraBlock",
    "DeformationBlock",
    "DefinitionFile",
    "parse",
    "parse_path",
    "print_definition",
    "build_block",
    "build_all",
]


class DslError(Exception):
    """Lexical, syntax or semantic problem, with a source location."""

    def __init__(self, kind: str, message: str, line: int, col: int):
        self.kind = kind
        self.detail = message
        self.line = line
        self.col = col
        super().__init__(f"{kind} error at line {line}, column {col}: {message}")


# -- tokens --------------------------------------------------------------------

_TOKEN = re.compile(
    r"""(?P<ws>[ \t\r\n]+)
      | (?P<comment>\#[^\n]*)
      | (?P<zero>-?\d+/0+(?!\d))  # a rational over a zero denominator, refused
      | (?P<rational>-?\d+(?:/\d+)?)
      | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<punct>[{}(),;=*+])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Tok:
    kind: str  # "rational" | "name" | "punct" | "eof"
    text: str
    line: int
    col: int


def _lex(text: str) -> list[_Tok]:
    toks: list[_Tok] = []
    line, col = 1, 1
    pos = 0
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # digits int() reads; 0: no limit
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise DslError("lexical", f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        chunk = m.group()
        if kind == "zero":
            raise DslError("lexical", f"zero denominator in {chunk}", line, col)
        if kind == "rational" and limit and (longest := max(map(len, chunk.lstrip("-").split("/")))) > limit:
            raise DslError("lexical", f"number of {longest} digits, over the interpreter's limit of {limit}", line, col)
        if kind not in ("ws", "comment"):
            toks.append(_Tok(kind, chunk, line, col))
        nl = chunk.count("\n")
        if nl:
            line += nl
            col = len(chunk) - chunk.rfind("\n")
        else:
            col += len(chunk)
        pos = m.end()
    toks.append(_Tok("eof", "", line, col))
    return toks


# -- syntax tree ---------------------------------------------------------------


@dataclass(frozen=True)
class Term:
    """One summand of a linear combination: coeff is a Fraction or a
    parameter name."""

    coeff: object
    basis: str

    def render(self) -> str:
        if isinstance(self.coeff, str):
            return f"{self.coeff}*{self.basis}"
        if self.coeff == 1:
            return self.basis
        return f"{self.coeff}*{self.basis}"


@dataclass(frozen=True)
class Entry:
    op: str  # dashv | vdash | mul | phi | psi
    args: tuple[str, ...]
    terms: tuple[Term, ...]  # empty means literal 0
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)

    def key(self) -> tuple[str, tuple[str, ...]]:
        return (self.op, self.args)

    def render(self) -> str:
        head = f"{self.op}({', '.join(self.args)})"
        body = " + ".join(t.render() for t in self.terms) if self.terms else "0"
        return f"{head} = {body};"


@dataclass(frozen=True)
class AlgebraBlock:
    kind: str  # "dialgebra" | "algebra"
    name: str
    dim: int
    basis: tuple[str, ...]
    params: tuple[tuple[str, Fraction], ...]
    entries: tuple[Entry, ...]


@dataclass(frozen=True)
class DeformationBlock:
    kind: str  # always "deformation"
    name: str
    base: str
    order: int
    terms: tuple[tuple[int, Entry], ...]


@dataclass(frozen=True)
class DefinitionFile:
    blocks: tuple[object, ...]

    def block(self, name: str):
        for b in self.blocks:
            if b.name == name:
                return b
        raise KeyError(name)


# -- parser --------------------------------------------------------------------

_PRODUCT_OPS = ("dashv", "vdash", "mul")
_TWIST_OPS = ("phi", "psi")


class _Parser:
    def __init__(self, text: str):
        self.toks = _lex(text)
        self.i = 0

    def peek(self) -> _Tok:
        return self.toks[self.i]

    def next(self) -> _Tok:
        t = self.toks[self.i]
        self.i += 1
        return t

    def fail(self, message: str, tok: _Tok | None = None):
        tok = tok or self.peek()
        raise DslError("syntax", message, tok.line, tok.col)

    def semantic(self, message: str, tok: _Tok):
        raise DslError("semantic", message, tok.line, tok.col)

    def expected(self, what: str):
        """Fail at the next token, naming what was expected and what was found."""
        t = self.peek()
        self.fail(f"expected {what}, found {'end of input' if t.kind == 'eof' else repr(t.text)}")

    def expect_punct(self, ch: str) -> _Tok:
        t = self.peek()
        if t.kind != "punct" or t.text != ch:
            self.expected(repr(ch))
        return self.next()

    def expect_name(self, what: str = "name") -> _Tok:
        t = self.peek()
        if t.kind != "name":
            self.expected(what)
        return self.next()

    def expect_keyword(self, word: str) -> _Tok:
        t = self.peek()
        if t.kind != "name" or t.text != word:
            self.expected(repr(word))
        return self.next()

    def expect_int(self, what: str) -> tuple[int, _Tok]:
        t = self.peek()
        if t.kind != "rational" or "/" in t.text:
            self.expected(what)
        return int(t.text), self.next()

    def expect_rational(self) -> Fraction:
        t = self.peek()
        if t.kind != "rational":
            self.expected("rational")
        self.next()
        return Fraction(t.text)

    # entry := op "(" NAME ["," NAME] ")" "=" lincomb ";"
    def parse_entry(self) -> Entry:
        head = self.expect_name("entry keyword")
        if head.text not in _PRODUCT_OPS + _TWIST_OPS:
            self.fail(f"expected one of dashv/vdash/mul/phi/psi, found {head.text!r}", head)
        self.expect_punct("(")
        a = self.expect_name("basis name")
        args = [a.text]
        if head.text in _PRODUCT_OPS:
            self.expect_punct(",")
            b = self.expect_name("basis name")
            args.append(b.text)
        self.expect_punct(")")
        self.expect_punct("=")
        terms = self.parse_lincomb()
        self.expect_punct(";")
        return Entry(head.text, tuple(args), tuple(terms), head.line, head.col)

    # lincomb := term ("+" term)* | "0" ; term := coeff "*"? NAME | NAME
    def parse_lincomb(self) -> list[Term]:
        first = self.peek()
        if first.kind == "rational" and Fraction(first.text) == 0:
            nxt = self.toks[self.i + 1]
            if nxt.kind == "punct" and nxt.text == ";":
                self.next()
                return []
        terms = [self.parse_term()]
        while True:
            t = self.peek()
            if t.kind == "punct" and t.text == "+":
                self.next()
                terms.append(self.parse_term())
            else:
                return terms

    def parse_term(self) -> Term:
        t = self.peek()
        if t.kind == "rational":
            self.next()
            coeff: object = Fraction(t.text)
            if self.peek().kind == "punct" and self.peek().text == "*":
                self.next()
            name = self.expect_name("basis name")
            return Term(coeff, name.text)
        if t.kind == "name":
            self.next()
            if self.peek().kind == "punct" and self.peek().text == "*":
                self.next()
                name = self.expect_name("basis name")
                return Term(t.text, name.text)  # parameter coefficient
            return Term(Fraction(1), t.text)
        self.fail("expected term", t)

    def parse_algebra_block(self, kind: str) -> AlgebraBlock:
        name = self.expect_name("block name")
        self.expect_punct("{")
        self.expect_keyword("dim")
        dim, dim_tok = self.expect_int("dimension")
        if refusal := _table_refusal(dim):
            self.semantic(refusal, dim_tok)
        self.expect_punct(";")
        basis_kw = self.expect_keyword("basis")
        basis: list[str] = []
        seen: dict[str, _Tok] = {}
        while self.peek().kind == "name":
            # stop if the name opens a param/entry production
            nxt = self.toks[self.i + 1]
            if nxt.kind == "punct" and nxt.text in ("(", "="):
                break
            if self.peek().text == "param":
                break
            t = self.next()
            if t.text in seen:
                self.semantic(f"duplicate basis name {t.text!r}", t)
            seen[t.text] = t
            basis.append(t.text)
        if not basis:
            self.fail("expected at least one basis name")
        self.expect_punct(";")
        if dim != len(basis):
            self.semantic(
                f"dim {dim} does not match {len(basis)} basis name(s)", dim_tok
            )
        params: list[tuple[str, Fraction]] = []
        pseen: set[str] = set()
        while self.peek().kind == "name" and self.peek().text == "param":
            self.next()
            p = self.expect_name("parameter name")
            if p.text in pseen:
                self.semantic(f"duplicate parameter {p.text!r}", p)
            if p.text in seen:
                self.semantic(f"parameter {p.text!r} shadows a basis name", p)
            pseen.add(p.text)
            self.expect_punct("=")
            val = self.expect_rational()
            self.expect_punct(";")
            params.append((p.text, val))
        entries: list[Entry] = []
        table: dict[tuple[str, tuple[str, ...]], Entry] = {}
        allowed = ("mul",) if kind == "algebra" else ("dashv", "vdash")
        while not (self.peek().kind == "punct" and self.peek().text == "}"):
            e = self.parse_entry()
            self._check_entry_names(e, set(basis), pseen)
            if e.op in _PRODUCT_OPS and e.op not in allowed:
                raise DslError(
                    "semantic",
                    f"entry {e.op!r} not allowed in {kind!r} block",
                    e.line,
                    e.col,
                )
            if self.first_entry(table, e.key(), e):
                entries.append(e)
        self.expect_punct("}")
        return AlgebraBlock(kind, name.text, dim, tuple(basis), tuple(params), tuple(entries))

    def first_entry(self, table: dict, key: tuple, e: Entry) -> bool:
        """Record e under key; False for an identical repeat, which is kept
        once, and a located error for a repeat with a different right side."""
        prev = table.setdefault(key, e)
        if prev.terms != e.terms:
            raise DslError("semantic", f"conflicting entry for {e.op}({', '.join(e.args)})", e.line, e.col)
        return prev is e

    def _check_entry_names(self, e: Entry, basis: set[str], params: set[str]):
        for a in e.args:
            if a not in basis:
                raise DslError("semantic", f"unknown basis name {a!r}", e.line, e.col)
        for t in e.terms:
            if t.basis not in basis:
                raise DslError("semantic", f"unknown basis name {t.basis!r}", e.line, e.col)
            if isinstance(t.coeff, str) and t.coeff not in params:
                raise DslError("semantic", f"unbound parameter {t.coeff!r}", e.line, e.col)

    def parse_deformation_block(self, blocks: list) -> DeformationBlock:
        name = self.expect_name("block name")
        self.expect_keyword("of")
        base = self.expect_name("base name")
        found = None
        for b in blocks:
            if b.name == base.text:
                found = b
                break
        if found is None:
            self.semantic(f"unknown base {base.text!r}", base)
        if not (isinstance(found, AlgebraBlock) and found.kind == "dialgebra"):
            self.semantic(f"deformation base {base.text!r} is not a dialgebra", base)
        self.expect_punct("{")
        self.expect_keyword("order")
        order, order_tok = self.expect_int("order")
        self.expect_punct(";")
        if order < 0:
            self.semantic("order must be nonnegative", order_tok)
        basis = set(found.basis)
        params = {p for p, _ in found.params}
        terms: list[tuple[int, Entry]] = []
        table: dict[tuple[int, str, tuple[str, ...]], Entry] = {}
        while self.peek().kind == "name" and self.peek().text == "term":
            self.next()
            idx, idx_tok = self.expect_int("term order")
            if not 1 <= idx <= order:
                self.semantic(
                    f"term order {idx} outside 1..{order}", idx_tok
                )
            e = self.parse_entry()
            if e.op not in ("dashv", "vdash"):
                raise DslError(
                    "semantic",
                    f"entry {e.op!r} not allowed in deformation block",
                    e.line,
                    e.col,
                )
            self._check_entry_names(e, basis, params)
            if self.first_entry(table, (idx, e.op, e.args), e):
                terms.append((idx, e))
        self.expect_punct("}")
        return DeformationBlock("deformation", name.text, base.text, order, tuple(terms))

    def parse_file(self) -> DefinitionFile:
        blocks: list = []
        names: dict[str, _Tok] = {}
        while self.peek().kind != "eof":
            head = self.expect_name("block keyword")
            if head.text == "dialgebra":
                blk = self.parse_algebra_block("dialgebra")
            elif head.text == "algebra":
                blk = self.parse_algebra_block("algebra")
            elif head.text == "deformation":
                blk = self.parse_deformation_block(blocks)
            else:
                self.fail(
                    f"expected 'dialgebra', 'algebra' or 'deformation', found {head.text!r}",
                    head,
                )
            if blk.name in names:
                self.semantic(f"duplicate block name {blk.name!r}", head)
            names[blk.name] = head
            blocks.append(blk)
        return DefinitionFile(tuple(blocks))


def parse(text: str) -> DefinitionFile:
    return _Parser(text).parse_file()


def _universal_newlines(text: str) -> str:
    # what text-mode open() does: CRLF and a lone CR both become LF
    return text.replace("\r\n", "\n").replace("\r", "\n")


def parse_path(path) -> DefinitionFile:
    """Parse a UTF-8 file; a byte that is not UTF-8 is a lexical error
    located like any other."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        head = _universal_newlines(data[: e.start].decode("utf-8"))
        line, col = head.count("\n") + 1, len(head) - head.rfind("\n")
        raise DslError("lexical", f"invalid UTF-8 byte 0x{data[e.start]:02x}", line, col) from None
    return parse(_universal_newlines(text))


# -- printer -------------------------------------------------------------------


def print_definition(df: DefinitionFile) -> str:
    chunks: list[str] = []
    for b in df.blocks:
        if isinstance(b, AlgebraBlock):
            lines = [f"{b.kind} {b.name} {{", f"  dim {b.dim};", f"  basis {' '.join(b.basis)};"]
            for p, v in b.params:
                lines.append(f"  param {p} = {v};")
            for e in b.entries:
                lines.append(f"  {e.render()}")
            lines.append("}")
        else:
            lines = [f"deformation {b.name} of {b.base} {{", f"  order {b.order};"]
            for idx, e in b.terms:
                lines.append(f"  term {idx} {e.render()}")
            lines.append("}")
        chunks.append("\n".join(lines))
    return "\n\n".join(chunks) + "\n" if chunks else ""


# -- realization ---------------------------------------------------------------


def _resolve(terms: tuple[Term, ...], params: dict[str, Fraction], index: dict[str, int]) -> dict[int, Fraction]:
    out: dict[int, Fraction] = {}
    for t in terms:
        c = params[t.coeff] if isinstance(t.coeff, str) else t.coeff
        k = index[t.basis] + 1
        out[k] = out.get(k, Fraction(0)) + c
    return {k: v for k, v in out.items() if v}


def build_block(df: DefinitionFile, name: str):
    """Realize one named block as an algebra object or a deformation."""
    b = df.block(name)
    if isinstance(b, DeformationBlock):
        base = build_block(df, b.base)
        base_params = dict(df.block(b.base).params)
        return _build_deformation(b, base, base_params)
    params = dict(b.params)
    index = {nm: i for i, nm in enumerate(b.basis)}
    tables: dict[str, dict] = {op: {} for op in _PRODUCT_OPS}
    twists: dict[str, dict] = {op: {} for op in _TWIST_OPS}
    for e in b.entries:
        vec = _resolve(e.terms, params, index)
        if e.op in _PRODUCT_OPS:
            i, j = (index[a] + 1 for a in e.args)
            tables[e.op][(i, j)] = vec
        else:
            twists[e.op][index[e.args[0]] + 1] = vec
    phi = map_from_entries(b.dim, twists["phi"])
    psi = map_from_entries(b.dim, twists["psi"])
    if b.kind == "algebra":
        return BiHomAssociativeAlgebra(
            b.dim, table_from_entries(b.dim, tables["mul"]), phi, psi,
            basis=b.basis, name=b.name,
        )
    return BiHomDialgebra(
        b.dim,
        table_from_entries(b.dim, tables["dashv"]),
        table_from_entries(b.dim, tables["vdash"]),
        phi,
        psi,
        basis=b.basis,
        name=b.name,
    )


def _build_deformation(
    b: DeformationBlock, base: BiHomDialgebra, params: dict[str, Fraction]
) -> TruncatedDeformation:
    from bihom.cochains import TreeCochain
    from bihom.deformation import TruncatedDeformation
    index = {nm: i for i, nm in enumerate(base.basis)}
    data: list[dict] = [dict() for _ in range(b.order)]
    for idx, e in b.terms:
        vals = _resolve(e.terms, params, index)
        vec = tuple(
            vals.get(k + 1, Fraction(0)) for k in range(base.dim)
        )
        i, j = (index[a] for a in e.args)
        data[idx - 1][(PRODUCT_FOR_TREE.index(e.op), (i, j))] = vec
    terms = tuple(TreeCochain(2, base.dim, d) for d in data)
    return TruncatedDeformation(base, terms)


def build_all(df: DefinitionFile) -> dict[str, object]:
    return {b.name: build_block(df, b.name) for b in df.blocks}
