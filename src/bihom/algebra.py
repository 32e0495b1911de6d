"""Structures with two products twisted by a pair of commuting maps.

A dialgebra here is a finite-dimensional vector space over Q with two
bilinear products (written ``dashv`` for x -| y and ``vdash`` for
x |- y), together with two linear endomorphisms phi and psi.  The five
compatibility laws between the products, each twisted by phi on the
left and psi on the right, are checked by `check_dialgebra`; the
one-product specialisation lives in `BiHomAssociativeAlgebra`.

Everything is exact: vectors are tuples of Fraction, products are dense
structure-constant tables, frozen as tuples all the way down, and maps
are `Mat`.  Checks never raise on a broken structure; they return an
`AxiomReport` listing each violated law with the basis indices and the
residual vector, so callers can verify, report, or deliberately work with
non-examples.

Each structure builds its sparse structure-constant form once, at
construction: `cells[op][i][j]` is the nonzero (k, c) pairs of e_i op e_j
in ascending k, and `twist_cols` the nonzero pairs of each column of phi
and of psi.  Every consumer reads that form: the checks here, the Leibniz
rows, and the coboundary, compatibility and operad modules; forms read again
and again are built on first use into the structure's memo (`_derived`).
`apply_table` and `law_residual` stay as the dense reference forms.

Every check writes its identity once, as a residual on basis indices, and
hands it to one enumerator, `_violations`, which yields a witness for each
basis tuple with a nonzero residual in lexicographic order; a report lists
its laws in the order the check names them.  Twists meet products in one
table, `_twisted_products`: (L e_a) o (R e_b) for maps L and R given by
their sparse columns, read by the law checks, the Leibniz rows and, on
integers, the coboundary block tables.  A law check takes e_p o psi(e_k)
and phi(e_i) o e_q from it per outer product, so a law residual at
(i, j, k) is a short sum over the nonzero cells of the two inner products,
equal entry for entry to `law_residual` on basis vectors.  The one-product
check is the one-law case of the dialgebra check: with both products equal
the five laws coincide, so it reads the single law `bihom_assoc` as
`left_left` on `as_dialgebra()`.

The twisted Leibniz rule is written once too, as one table (`_slot_terms`)
of the terms of g(e_a o e_b), g e_a o W e_b and W e_a o g e_b for given maps
g, which `_wired` turns into rows, a block and a weight per slot: the
derivation solvers read it over the maps commuting with the twists, on
integers, `leibniz_rows` over the elementary maps, as rows over the entries
of the unknown maps, and `_leibniz` over the one map it checks.  The twist
rows M f(b) - f(M b) of a cochain f are written once (`_compat_rows`): the
complex's compatibility rows and, at degree 1, the commutation rows.  For
the complex, a one-entry row is never built: past a prefix the twist kills,
each one-entry line of M forces a range of columns to zero, added to a set
the caller passes in, whose kernel takes them as unit pivots by column.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import chain, product
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from bihom.scalars import Mat, ZERO, ONE, _scaled, q
from bihom.trees import DASHV, VDASH

Vec = tuple[Fraction, ...]
Table = tuple[tuple[Vec, ...], ...]
Row = dict[int, Fraction]
Sparse = tuple[tuple[int, Fraction], ...]
Cells = tuple[tuple[Sparse, ...], ...]


def zero_vec(dim: int) -> Vec:
    return (ZERO,) * dim

def basis_vec(dim: int, i: int) -> Vec:
    return tuple(ONE if j == i else ZERO for j in range(dim))

def vec_add(u: Vec, v: Vec) -> Vec:
    return tuple(a + b for a, b in zip(u, v))

def vec_sub(u: Vec, v: Vec) -> Vec:
    return tuple(a - b for a, b in zip(u, v))

def is_zero_vec(v: Vec) -> bool:
    return not any(v)


MAX_TABLE_CELLS = 10**6  # dim^3 cells of one dense product table, so dim <= 100


def _table_refusal(dim: int) -> str | None:
    """Why a product table of this dim is refused before anything is allocated, or None."""
    if dim**3 <= MAX_TABLE_CELLS:
        return None
    cells = dim**3 if dim < 10**9 else f"{dim}^3"  # a very long dim is not cubed in print
    return f"dim {dim} needs {cells} product table cells, over the limit of {MAX_TABLE_CELLS}"


def table_from_entries(dim: int, entries: Mapping[tuple[int, int], Mapping[int, object]]) -> Table:
    """Dense product table from 1-based sparse entries.

    entries[(i, j)][k] = coefficient of e_k in e_i * e_j; everything
    unlisted is zero.
    """
    if refusal := _table_refusal(dim):
        raise ValueError(refusal)
    grid = [[list(zero_vec(dim)) for _ in range(dim)] for _ in range(dim)]
    for (i, j), vec in entries.items():
        if not (1 <= i <= dim and 1 <= j <= dim):
            raise ValueError(f"basis index out of range in entry ({i},{j})")
        for k, c in vec.items():
            if not 1 <= k <= dim:
                raise ValueError(f"target index {k} out of range in entry ({i},{j})")
            grid[i - 1][j - 1][k - 1] = q(c)
    return tuple(tuple(tuple(row) for row in plane) for plane in grid)


def zero_table(dim: int) -> Table:
    return table_from_entries(dim, {})


def apply_table(table: Table, x: Vec, y: Vec) -> Vec:
    dim = len(x)
    out = [ZERO] * dim
    for i, xi in enumerate(x):
        if not xi:
            continue
        for j, yj in enumerate(y):
            if not yj:
                continue
            cell = table[i][j]
            f = xi * yj
            for k, c in enumerate(cell):
                if c:
                    out[k] += f * c
    return tuple(out)


def map_from_entries(dim: int, entries: Mapping[int, Mapping[int, object]]) -> Mat:
    """Dense matrix from 1-based sparse columns: entries[j][k] = <e_k, M e_j>."""
    cols = [[ZERO] * dim for _ in range(dim)]
    for j, img in entries.items():
        if not 1 <= j <= dim:
            raise ValueError(f"basis index {j} out of range")
        for k, c in img.items():
            if not 1 <= k <= dim:
                raise ValueError(f"target index {k} out of range")
            cols[j - 1][k - 1] = q(c)
    return Mat(dim, dim, [cols[j][k] for k in range(dim) for j in range(dim)])


@dataclass(frozen=True)
class Violation:
    """One failed law instance: which law, at which basis tuple, defect."""

    law: str
    at: tuple[int, ...]
    residual: Vec

    def describe(self, basis: Sequence[str]) -> str:
        args = ",".join(basis[i] for i in self.at)
        res = ", ".join(str(c) for c in self.residual)
        return f"{self.law} at ({args}): residual ({res})"


@dataclass(frozen=True)
class AxiomReport:
    ok: bool
    violations: tuple[Violation, ...]

    @staticmethod
    def from_violations(violations: Iterable[Violation]) -> AxiomReport:
        vs = tuple(violations)
        return AxiomReport(ok=not vs, violations=vs)

    def laws_violated(self) -> tuple[str, ...]:
        seen: list[str] = []
        for v in self.violations:
            if v.law not in seen:
                seen.append(v.law)
        return tuple(seen)


def _checked_basis(dim: int, tables, maps, basis: Sequence[str] | None) -> tuple[str, ...]:
    """The basis labels (e1, e2, ... by default), once they, the tables and the maps fit dim."""
    basis = tuple(f"e{i+1}" for i in range(dim)) if basis is None else tuple(basis)
    if len(basis) != dim:
        raise ValueError("basis length mismatch")
    for table in tables:
        if len(table) != dim or any(len(row) != dim or any(len(cell) != dim for cell in row) for row in table):
            raise ValueError("product table shape mismatch")
    if any(M.shape != (dim, dim) for M in maps):
        raise ValueError("twist map shape mismatch")
    return basis


def _frozen_table(name: str, table: Table) -> Table:
    """The table itself when it is tuples all the way down with every entry
    a Fraction, else a tuple copy with each entry through `q`, so no source
    list stays behind the structure; an inexact entry raises TypeError
    naming its cell."""
    if type(table) is tuple and all(
        type(row) is tuple and all(type(cell) is tuple and all(type(c) is Fraction for c in cell) for cell in row)
        for row in table
    ):
        return table

    def exact(c, i, j, k):
        try:
            return q(c)
        except TypeError as exc:
            raise TypeError(f"{name} table, cell ({i}, {j}, {k}): {exc}") from None

    return tuple(
        tuple(tuple(exact(c, i, j, k) for k, c in enumerate(cell)) for j, cell in enumerate(row))
        for i, row in enumerate(table)
    )


def _sparse(v: Sequence[Fraction]) -> Sparse:
    return tuple((k, c) for k, c in enumerate(v) if c)


def _freeze(X, dim: int, tables: Mapping[str, Table], phi: Mat, psi: Mat, basis, name: str) -> None:
    """Set X's fields once: the dense tables, frozen, the sparse form every
    consumer reads (`cells[op][i][j]` the nonzero (k, c) of e_i op e_j, and
    `twist_cols` those of each column of phi and of psi) and an empty memo."""
    basis = _checked_basis(dim, tables.values(), (phi, psi), basis)
    tables = {op: _frozen_table(op, t) for op, t in tables.items()}
    fields = {
        "dim": dim, "basis": basis, **tables, "phi": phi, "psi": psi, "name": name,
        "cells": MappingProxyType({op: tuple(tuple(map(_sparse, row)) for row in t) for op, t in tables.items()}),
        "twist_cols": tuple(tuple(_sparse(M.col(a)) for a in range(dim)) for M in (phi, psi)), "_memo": {},
    }
    for attr, value in fields.items():
        object.__setattr__(X, attr, value)


def _derived(X, key: str, build: Callable):
    """X's derived form `key`: build(X) on first use, then kept in X's memo."""
    return X._memo[key] if key in X._memo else X._memo.setdefault(key, build(X))


class BiHomDialgebra:
    """Two products and two twist maps on Q^dim; laws are not enforced here."""

    __slots__ = ("dim", "basis", "dashv", "vdash", "phi", "psi", "name", "cells", "twist_cols", "_memo")

    def __init__(
        self,
        dim: int,
        dashv: Table,
        vdash: Table,
        phi: Mat,
        psi: Mat,
        basis: Sequence[str] | None = None,
        name: str = "",
    ):
        _freeze(self, dim, {DASHV: dashv, VDASH: vdash}, phi, psi, basis, name)

    def __setattr__(self, name, value):
        raise AttributeError("BiHomDialgebra is immutable")

    def table(self, op: str) -> Table:
        if op == DASHV:
            return self.dashv
        if op == VDASH:
            return self.vdash
        raise ValueError(f"unknown product {op!r}")

    def op(self, op: str) -> Callable[[Vec, Vec], Vec]:
        table = self.table(op)
        return lambda x, y: apply_table(table, x, y)

    def twist_power(self, k: int, l: int) -> Mat:
        """phi^k psi^l as one matrix; the two maps are used commuting."""
        return self.phi.power(k) @ self.psi.power(l) if k and l else self.psi.power(l) if l else self.phi.power(k)

    def e(self, i: int) -> Vec:
        return basis_vec(self.dim, i)

    def __repr__(self) -> str:
        tag = f" {self.name}" if self.name else ""
        return f"BiHomDialgebra(dim={self.dim}{tag})"


class BiHomAssociativeAlgebra:
    """One product with the twisted associativity law (x y) psi(z) = phi(x) (y z)."""

    __slots__ = ("dim", "basis", "mul", "phi", "psi", "name", "cells", "twist_cols", "_memo")

    def __init__(
        self,
        dim: int,
        mul: Table,
        phi: Mat,
        psi: Mat,
        basis: Sequence[str] | None = None,
        name: str = "",
    ):
        _freeze(self, dim, {"mul": mul}, phi, psi, basis, name)

    def __setattr__(self, name, value):
        raise AttributeError("BiHomAssociativeAlgebra is immutable")

    def product(self, x: Vec, y: Vec) -> Vec:
        return apply_table(self.mul, x, y)

    def e(self, i: int) -> Vec:
        return basis_vec(self.dim, i)

    def as_dialgebra(self, name: str = "") -> BiHomDialgebra:
        """Same product on both sides; the five laws collapse to one."""
        return BiHomDialgebra(
            self.dim, self.mul, self.mul, self.phi, self.psi,
            basis=self.basis, name=name or self.name,
        )

    def __repr__(self) -> str:
        tag = f" {self.name}" if self.name else ""
        return f"BiHomAssociativeAlgebra(dim={self.dim}{tag})"


# law name -> ((outer_lhs, inner_lhs), (outer_rhs, inner_rhs)); LHS is always
# (x inner y) outer psi(z), RHS is phi(x) outer (y inner z)
DIALGEBRA_LAWS: dict[str, tuple[tuple[str, str], tuple[str, str]]] = {
    "left_left": ((DASHV, DASHV), (DASHV, DASHV)),
    "left_right": ((DASHV, DASHV), (DASHV, VDASH)),
    "middle": ((DASHV, VDASH), (VDASH, DASHV)),
    "right_left": ((VDASH, DASHV), (VDASH, VDASH)),
    "right_right": ((VDASH, VDASH), (VDASH, VDASH)),
}

# Law carried by each tree of an arity-3 tree cochain, in trees(3) order.
LAW_FOR_TREE = ("left_left", "left_right", "middle", "right_left", "right_right")


def law_residual(A: BiHomDialgebra, law: str, x: Vec, y: Vec, z: Vec) -> Vec:
    """(x inner_l y) outer_l psi(z) - phi(x) outer_r (y inner_r z)."""
    (outer_l, inner_l), (outer_r, inner_r) = DIALGEBRA_LAWS[law]
    lhs = apply_table(A.table(outer_l), apply_table(A.table(inner_l), x, y), A.psi.apply(z))
    rhs = apply_table(A.table(outer_r), A.phi.apply(x), apply_table(A.table(inner_r), y, z))
    return vec_sub(lhs, rhs)


def _violations(
    law: str, arity: int, dim: int, residual: Callable[..., Vec]
) -> Iterator[Violation]:
    """Violation(law, t, residual(*t)) for each basis index tuple t, in
    lexicographic order, whose residual is nonzero."""
    for t in product(range(dim), repeat=arity):
        r = residual(*t)
        if not is_zero_vec(r):
            yield Violation(law, t, r)


def _combine(n: int, terms: Iterable[tuple[Fraction, Sparse]], zero=ZERO) -> list[Fraction]:
    """Sum of c * v over (c, v) in terms, each v sparse, as a dense list of length n, from `zero`."""
    acc = [zero] * n
    for c, v in terms:
        for k, x in v:
            acc[k] += c * x
    return acc


def _twisted_products(cells: Cells, left=None, right=None, zero=ZERO) -> Cells:
    """[a][b] -> the nonzero (k, c) of (L e_a) o (R e_b), summed from `zero`: o
    given by its cells, L and R by their sparse columns, None for the identity."""
    m, ix = len(cells), range(len(cells))
    if right is not None:  # e_a o R e_b, then L e_a o R e_b = sum_s l_s (e_s o R e_b)
        cells = [[_sparse(_combine(m, ((r, cells[a][u]) for u, r in right[b]), zero)) for b in ix] for a in ix]
    if left is not None:
        cells = [[_sparse(_combine(m, ((l, cells[s][b]) for s, l in left[a]), zero)) for b in ix] for a in ix]
    return cells


def _integer_form(X, orders: Sequence = ()) -> tuple[int, list[dict], list[list]]:
    """(D, orders, twists): X's cells, or each of `orders`, and X's twist
    columns, all times D, the lcm of every denominator in them."""
    m, orders = X.dim, orders or [X.cells]
    D, ints = _scaled([c for cells in orders for t in cells.values() for r in t for c in r] + [*chain(*X.twist_cols)])
    orders = [{op: [[next(ints) for _ in range(m)] for _ in range(m)] for op in cells} for cells in orders]
    return D, orders, [[next(ints) for _ in range(m)] for _ in range(2)]


def _law_residuals(A: BiHomDialgebra, orders: Sequence = (), n: int = 0) -> dict[str, Callable[[int, int, int], Vec]]:
    """law -> ((i, j, k) -> law_residual(A, law, e_i, e_j, e_k)), read from
    A's sparse form; with `orders`, cells per order, the order-n residual over
    outer order i and inner n - i.  All cells and twist columns are scaled by
    one D, R[p][k] = e_p o psi(e_k) and L[i][q] = -(phi(e_i) o e_q) tabulated
    once per order and outer product on integers, and each output coordinate
    is one Fraction over D^3, a term being three scaled entries."""
    m, (D, orders, (phi, psi)) = A.dim, _integer_form(A, orders)
    den, zero, neg_phi = D**3, zero_vec(m), [tuple((s, -d) for s, d in col) for col in phi]
    tables = [(
        {op: _twisted_products(orders[i][op], None, psi, 0) for op in orders[i]},
        {op: _twisted_products(orders[i][op], neg_phi, None, 0) for op in orders[i]},
        orders[n - i],
    ) for i in range(n + 1)]

    def residual(law: str) -> Callable[[int, int, int], Vec]:
        (outer_l, inner_l), (outer_r, inner_r) = DIALGEBRA_LAWS[law]
        parts = [(right[outer_l], left[outer_r], inner[inner_l], inner[inner_r]) for right, left, inner in tables]
        return lambda i, j, k: tuple(Fraction(s, den) if s else ZERO for s in acc) if any(acc := _combine(m, chain(
            ((c, R[p][k]) for R, _, il, _ in parts for p, c in il[i][j]),
            ((c, L[i][qq]) for _, L, _, ir in parts for qq, c in ir[j][k]),
        ), 0)) else zero

    return {law: residual(law) for law in DIALGEBRA_LAWS}


def _respects(f: Mat, ca: Cells, cb: Cells) -> Callable[[int, int], Vec]:
    """(i, j) -> f(e_i o e_j) - f(e_i) o' f(e_j), o read from the cells ca
    and o' from cb, summed over their nonzero cells and f's columns."""
    fc = [_sparse(f.col(a)) for a in range(f.cols)]
    return lambda i, j: tuple(_combine(f.rows, chain(
        ((c, fc[k]) for k, c in ca[i][j]),
        ((-a * b, cb[s][u]) for s, a in fc[i] for u, b in fc[j]),
    )))


def _slot_terms(products: Sequence[Cells], wc: Sequence[Sparse], maps: Sequence) -> list[list[tuple]]:
    """The twisted Leibniz rule, written once: per product o, given by its
    cells, basis pair (a, b) and output coordinate k, in that order, the
    terms (slot, i, value) of the k-th coordinates of g_i(e_a o e_b),
    g_i e_a o W e_b and W e_a o g_i e_b, slots 0, 1 and 2, summed over the
    nonzero entries of the cells, of g_i and of the twisted products
    e_s o W e_b and W e_a o e_u.  W and each map g_i are given by their
    sparse columns, on integers or Fractions alike."""
    n = len(wc)
    terms: list[list[tuple]] = [[] for _ in range(len(products) * n**3)]
    for o, cells in enumerate(products):
        wx, xw = _twisted_products(cells, wc, None, 0), _twisted_products(cells, None, wc, 0)
        for i, g in enumerate(maps):
            for a, b in product(range(n), repeat=2):
                at = ((o * n + a) * n + b) * n
                for p, c in cells[a][b]:
                    for k, v in g[p]:
                        terms[at + k].append((0, i, c * v))
                for s, v in g[a]:  # g e_a o W e_b, over e_s o W e_b
                    for k, c in xw[s][b]:
                        terms[at + k].append((1, i, v * c))
                for u, v in g[b]:  # W e_a o g e_b, over W e_a o e_u
                    for k, c in wx[a][u]:
                        terms[at + k].append((2, i, v * c))
    return terms


def _wired(terms: Iterable[list[tuple]], wiring: Sequence[tuple[int, object]]) -> list[dict]:
    """One sparse row per row of slot terms, empty rows kept: a term (slot,
    i, value) adds weight * value at column offset + i, (offset, weight) =
    wiring[slot]; entries that cancel stay, as zeros."""
    rows = []
    for row_terms in terms:
        row: dict = {}
        for s, i, v in row_terms:
            off, w = wiring[s]
            if w:
                row[off + i] = row.get(off + i, 0) + w * v
        rows.append(row)
    return rows


def leibniz_rows(
    products: Sequence[Cells],
    W: Mat,
    blocks: tuple[int, int, int] = (0, 0, 0),
    weights: tuple[Fraction, Fraction, Fraction] = (ONE, ONE, ONE),
) -> list[Row]:
    """alpha D_lhs(x o y) - beta (W x o D_right y) - gamma (D_left x o W y) = 0.

    `blocks` is (lhs, left, right) and `weights` is (alpha, beta, gamma);
    each D is an n x n block of the unknowns, stacked row-major.  One row
    per product o, given by its cells, basis pair (e_a, e_b) and output
    coordinate k, in that order: the slot terms of the elementary maps
    e_b -> e_k, the unknown at k n + b, wired to their blocks.
    """
    n, (alpha, beta, gamma) = W.rows, weights
    units = [[((k, ONE),) if c == b else () for c in range(n)] for k in range(n) for b in range(n)]
    wiring = [(block * n * n, w) for block, w in zip(blocks, (alpha, -gamma, -beta))]  # slots 0, 1 and 2
    rows = _wired(_slot_terms(products, [_sparse(W.col(a)) for a in range(n)], units), wiring)
    return [{c: v for c, v in row.items() if v} for row in rows]


def _leibniz(D: Mat, W: Mat, cells: Cells) -> Callable[[int, int], Vec]:
    """(a, b) -> D(e_a o e_b) - W(e_a) o D(e_b) - D(e_a) o W(e_b), from the
    slot terms of the one map D."""
    n = D.rows
    terms = _slot_terms((cells,), [_sparse(W.col(a)) for a in range(n)], [[_sparse(D.col(b)) for b in range(n)]])
    res = [row.get(0, ZERO) for row in _wired(terms, ((0, 1), (0, -1), (0, -1)))]
    return lambda a, b: tuple(res[(a * n + b) * n : (a * n + b + 1) * n])


def _compat_rows(twists: Sequence[Sequence[Sparse]], degree: int, D: int = 1, zeros: set[int] | None = None) -> list[dict[int, int]]:
    """Rows of D^degree (M f(b) - f(M b)) over one tree's coordinates for each twist M,
    given by the nonzero (k, c) of the columns of D M: integer rows when D M is integral.
    f(M b) is expanded slot by slot, from a stack of prefixes: a prefix of b extends its
    parent's expansion by one column of M, and every b past a prefix M kills has the
    nonzero lines of M f(b) as its rows, with no expansion at all.  Given a set `zeros`,
    a one-entry row is not built: a one-entry line of M forces the columns b m + j of
    every b past a killed prefix to zero, and they join `zeros` as one range, and a
    one-entry row at full depth adds its column."""
    rows: list[dict[int, int]] = []
    for cols in twists:
        m = len(cols)
        lines = [[(j, D ** (degree - 1) * c) for j, col in enumerate(cols) for i, c in col if i == k] for k in range(m)]
        killed = [line for line in lines if line and (zeros is None or len(line) > 1)]
        single = [line[0][0] for line in lines if len(line) == 1] if zeros is not None else []
        stack = [(0, 0, [(0, 1)])]  # (rank r of a prefix, its length, M of it expanded as (argument rank, coefficient))
        while stack:
            r, depth, terms = stack.pop()
            if not terms:
                span = m ** (degree - depth)
                rows.extend([{b * m + j: c for j, c in line} for b in range(r * span, (r + 1) * span) for line in killed])
                for j in single:
                    zeros.update(range(r * span * m + j, (r + 1) * span * m, m))
            elif depth < degree:
                stack.extend((r * m + x, depth + 1, [(a * m + i, c * v) for a, c in terms for i, v in col])
                             for x, col in reversed(list(enumerate(cols))))
            else:
                for k, line in enumerate(lines):  # M f(b)_k - f(M b)_k
                    row = {r * m + j: c for j, c in line}
                    for a, c in terms:
                        row[a * m + k] = row.get(a * m + k, 0) - c
                    if len(row := {key: v for key, v in row.items() if v}) == 1 and zeros is not None:
                        zeros.update(row)
                    elif row:
                        rows.append(row)
    return rows


def _check_laws(A: BiHomDialgebra, laws: Mapping[str, str]) -> AxiomReport:
    """Twist commutation, then each named law read as the dialgebra law it
    maps to, over all basis triples."""
    residuals = _law_residuals(A)
    violations = list(_violations("twist_commute", 1, A.dim, (A.phi @ A.psi - A.psi @ A.phi).col))
    for law, shape in laws.items():
        violations += _violations(law, 3, A.dim, residuals[shape])
    return AxiomReport.from_violations(violations)


def check_dialgebra(A: BiHomDialgebra) -> AxiomReport:
    """Twist commutation plus the five product laws over all basis triples."""
    return _check_laws(A, {law: law for law in DIALGEBRA_LAWS})


def check_bihom_associative(A: BiHomAssociativeAlgebra) -> AxiomReport:
    """Twist commutation plus (x y) psi(z) = phi(x) (y z): the one law the
    five collapse to when both products are the same."""
    return _check_laws(A.as_dialgebra(), {"bihom_assoc": "left_left"})


def is_multiplicative(A: BiHomDialgebra) -> AxiomReport:
    """Do phi and psi respect both products, entry by entry?"""
    violations: list[Violation] = []
    for mname, m in (("phi", A.phi), ("psi", A.psi)):
        for op in (DASHV, VDASH):
            violations += _violations(f"{mname}_{op}", 2, A.dim, _respects(m, A.cells[op], A.cells[op]))
    return AxiomReport.from_violations(violations)


def is_regular(A: BiHomDialgebra) -> bool:
    """Both twist maps invertible."""
    return A.phi.inverse() is not None and A.psi.inverse() is not None


def is_morphism(f: Mat, A: BiHomDialgebra, B: BiHomDialgebra) -> AxiomReport:
    """Is f: A -> B compatible with twists and both products?"""
    if f.shape != (B.dim, A.dim):
        raise ValueError("morphism shape mismatch")
    violations: list[Violation] = []
    for mname, mA, mB in (("phi", A.phi, B.phi), ("psi", A.psi, B.psi)):
        violations += _violations(f"{mname}_intertwine", 1, A.dim, (mB @ f - f @ mA).col)
    for op in (DASHV, VDASH):
        violations += _violations(op, 2, A.dim, _respects(f, A.cells[op], B.cells[op]))
    return AxiomReport.from_violations(violations)


def from_differential_algebra(
    A: BiHomAssociativeAlgebra, d: Mat, check: bool = True
) -> BiHomDialgebra:
    """Split one twisted-associative product into two along a square-zero derivation.

    The products are x -| y = phi(x) d(y) and x |- y = d(x) psi(y).  For
    the five laws to hold, d must square to zero, satisfy the Leibniz
    rule for the product, commute with both twist maps, and the twist
    maps must be idempotent.  With check=True those preconditions are
    validated first and a ValueError names the first failure.
    """
    if d.shape != (A.dim, A.dim):
        raise ValueError("derivation shape mismatch")
    if check:
        if not (d @ d).is_zero():
            raise ValueError("d does not square to zero")
        for mname, m in (("phi", A.phi), ("psi", A.psi)):
            if not (d @ m - m @ d).is_zero():
                raise ValueError(f"d does not commute with {mname}")
            if not (m @ m - m).is_zero():
                raise ValueError(f"{mname} is not idempotent")
        bad = next(_violations("leibniz", 2, A.dim, _leibniz(d, Mat.identity(A.dim), A.cells["mul"])), None)
        if bad is not None:
            raise ValueError(f"Leibniz rule fails at basis pair {bad.at}")
    ix = range(A.dim)
    dashv = tuple(tuple(A.product(A.phi.col(i), d.col(j)) for j in ix) for i in ix)
    vdash = tuple(tuple(A.product(d.col(i), A.psi.col(j)) for j in ix) for i in ix)
    return BiHomDialgebra(A.dim, dashv, vdash, A.phi, A.psi, basis=A.basis)


# -- worked families -----------------------------------------------------------


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    dim: int
    params: tuple[str, ...]
    description: str
    build: Callable[..., BiHomDialgebra]


def _entry(name, dim, params, description, builder) -> CatalogEntry:
    def build(**kwargs) -> BiHomDialgebra:
        missing = [p for p in params if p not in kwargs]
        if missing:
            raise ValueError(f"{name}: missing parameter(s) {', '.join(missing)}")
        extra = [p for p in kwargs if p not in params]
        if extra:
            raise ValueError(f"{name}: unknown parameter(s) {', '.join(extra)}")
        vals = {p: q(kwargs[p]) for p in params}
        return builder(**vals)

    return CatalogEntry(name, dim, tuple(params), description, build)


def _dialgebra_2dim(dashv_entries, vdash_entries, name) -> BiHomDialgebra:
    phi = map_from_entries(2, {2: {1: 1}})
    psi = map_from_entries(2, {2: {1: 1}})
    return BiHomDialgebra(
        2,
        table_from_entries(2, dashv_entries),
        table_from_entries(2, vdash_entries),
        phi,
        psi,
        name=name,
    )


def _dialgebra_3dim(dashv_entries, vdash_entries, b, name) -> BiHomDialgebra:
    phi = map_from_entries(3, {2: {1: 1}})
    psi = map_from_entries(3, {2: {1: 1}, 3: {3: b}})
    return BiHomDialgebra(
        3,
        table_from_entries(3, dashv_entries),
        table_from_entries(3, vdash_entries),
        phi,
        psi,
        name=name,
    )


def _ones(pairs) -> dict:
    return {p: {1: 1} for p in pairs}


def catalog() -> dict[str, CatalogEntry]:
    """The parametric 2- and 3-dimensional families, products unlisted are zero.

    Families are returned as written down, without validation; run
    `check_dialgebra` on a built instance to test a parameter choice.  The
    entries are built once per process; each call returns a fresh dict.
    """
    return {e.name: e for e in _catalog_entries()}


@cache
def _catalog_entries() -> tuple[CatalogEntry, ...]:
    return (
        _entry(
            "Alg2_1", 2, ("a", "b", "c", "d", "f"),
            "dim 2: e1-|e2=a e1, e2-|e1=b e1, e1|-e2=c e1, e2|-e1=d e1, e2|-e2=f e1",
            lambda a, b, c, d, f: _dialgebra_2dim(
                {(1, 2): {1: a}, (2, 1): {1: b}},
                {(1, 2): {1: c}, (2, 1): {1: d}, (2, 2): {1: f}},
                "Alg2_1",
            ),
        ),
        _entry(
            "Alg2_2", 2, ("a",),
            "dim 2: e1-|e2=a e1, e2-|e1=a e1, e2-|e2=e1, e1|-e2=e1, e2|-e1=e1",
            lambda a: _dialgebra_2dim(
                {(1, 2): {1: a}, (2, 1): {1: a}, (2, 2): {1: 1}},
                {(1, 2): {1: 1}, (2, 1): {1: 1}},
                "Alg2_2",
            ),
        ),
        _entry(
            "Alg2_3", 2, ("a", "b", "c", "d"),
            "dim 2: e1-|e2=a e1, e1|-e2=b e1, e2|-e1=c e1, e2|-e2=d e1",
            lambda a, b, c, d: _dialgebra_2dim(
                {(1, 2): {1: a}},
                {(1, 2): {1: b}, (2, 1): {1: c}, (2, 2): {1: d}},
                "Alg2_3",
            ),
        ),
        _entry(
            "Alg2_4", 2, ("a", "b", "c", "d"),
            "dim 2: e1-|e2=e1, e2-|e1=e1, e2-|e2=a e1, e1|-e2=b e1, e2|-e1=c e1, e2|-e2=d e1",
            lambda a, b, c, d: _dialgebra_2dim(
                {(1, 2): {1: 1}, (2, 1): {1: 1}, (2, 2): {1: a}},
                {(1, 2): {1: b}, (2, 1): {1: c}, (2, 2): {1: d}},
                "Alg2_4",
            ),
        ),
        _entry(
            "Alg3_1", 3, ("a", "b", "c", "d", "f"),
            "dim 3: e1-|e2=e1, e2-|e1=e1, e2-|e2=a e1, e2-|e3=b e1, e3-|e2=c e1, "
            "e2|-e1=e1, e2|-e2=d e1, e3|-e2=f e1; psi(e3)=b e3",
            lambda a, b, c, d, f: _dialgebra_3dim(
                {(1, 2): {1: 1}, (2, 1): {1: 1}, (2, 2): {1: a},
                 (2, 3): {1: b}, (3, 2): {1: c}},
                {(2, 1): {1: 1}, (2, 2): {1: d}, (3, 2): {1: f}},
                b, "Alg3_1",
            ),
        ),
        _entry(
            "Alg3_2", 3, ("b",),
            "dim 3: nine products equal to e1; psi(e3)=b e3",
            lambda b: _dialgebra_3dim(
                _ones([(1, 2), (2, 1), (2, 2), (2, 3), (3, 2)]),
                _ones([(1, 2), (2, 1), (2, 2), (3, 2)]),
                b, "Alg3_2",
            ),
        ),
        _entry(
            "Alg3_3", 3, ("b",),
            "dim 3: nine products equal to e1; psi(e3)=b e3",
            lambda b: _dialgebra_3dim(
                _ones([(1, 2), (2, 1), (2, 2), (2, 3), (3, 2)]),
                _ones([(1, 2), (2, 2), (2, 3), (3, 2)]),
                b, "Alg3_3",
            ),
        ),
        _entry(
            "Alg3_4", 3, ("b",),
            "dim 3: nine products equal to e1; psi(e3)=b e3",
            lambda b: _dialgebra_3dim(
                _ones([(1, 2), (2, 1), (2, 2), (2, 3)]),
                _ones([(1, 2), (2, 1), (2, 2), (2, 3), (3, 2)]),
                b, "Alg3_4",
            ),
        ),
        _entry(
            "Alg3_5", 3, ("b",),
            "dim 3: eight products equal to e1; psi(e3)=b e3",
            lambda b: _dialgebra_3dim(
                _ones([(1, 2), (2, 1), (2, 2), (2, 3)]),
                _ones([(1, 2), (2, 1), (2, 3), (3, 2)]),
                b, "Alg3_5",
            ),
        ),
    )


def assoc_readings() -> dict[str, BiHomAssociativeAlgebra]:
    """Two readings of a 3-dim one-product example whose source lists
    e1*e2 twice with different values; A takes e1*e2=e1, B takes e1*e2=e2."""
    phi = map_from_entries(3, {2: {2: 1}})
    psi = map_from_entries(3, {1: {1: 1}, 2: {1: 1, 2: -1}})
    common = {(2, 1): {2: 1}, (2, 2): {2: 1}, (3, 2): {3: 1}, (3, 3): {3: 1}}
    out = {}
    for tag, e12 in (("Assoc3_A", {1: 1}), ("Assoc3_B", {2: 1})):
        mul = dict(common)
        mul[(1, 2)] = e12
        out[tag] = BiHomAssociativeAlgebra(
            3, table_from_entries(3, mul), phi, psi, name=tag
        )
    return out
