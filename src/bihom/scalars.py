"""Exact rational scalars, dense matrices, and exact sparse linear algebra.

Everything downstream (axiom checks, derivation solvers, cochain
complexes) reduces to rank / nullspace / solve over the rationals, so
this module is the arithmetic substrate for the whole package.  The
scalar type is `fractions.Fraction`, which already maintains the
invariants we need (positive denominator, reduced form).

Elimination takes one-entry rows first, as unit pivots; the rest is
fraction-free, scaled to integers and combined by cross-multiplication
with a gcd renormalisation after every step, which bounds intermediate
growth on the systems that arise here (tens of thousands of sparse rows).
Subspaces are stored sparsely, in canonical reduced row echelon form:
unit pivots, rows ordered by pivot column, each row kept as its nonzero
(column, value) pairs.  Equal subspaces therefore have identical
representations and reports built from them are deterministic; dense
vectors are built only when a caller asks for them.  Kernels come out
of one elimination already in that canonical form (see
`nullspace_rows`), so they are never densified or eliminated twice;
the span of sparse rows (`span_rows`) takes one elimination as well.
A one-entry row is read as its pivot column alone, and an eliminator keeps
such a unit pivot by its column only: it is never scaled, reduced or
back-substituted, and a free column that no longer pivot row touches gives
the kernel's unit vector at that column directly.  A kernel may also be
handed a set of forced-zero columns, filled a range at a time, which it
takes as unit pivots as they stand (`_kernel`).  Rows already on integers
skip the clearing of denominators.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import filterfalse
from math import gcd, lcm
from typing import Iterable, Sequence


def q(x) -> Fraction:
    """Coerce ints, strings like '2/3', and Fractions to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise TypeError("bool is not a scalar")
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise TypeError(f"not an exact scalar: {x!r}")


ZERO = Fraction(0)
ONE = Fraction(1)


def _over_lcm(pairs):
    """(D, [(key, v * D)]): D the lcm of the values' denominators, each v * D a tuple of ints."""
    pairs = [(a, [c.as_integer_ratio() for c in v]) for a, v in pairs]
    D = lcm(*{d for _, v in pairs for _, d in v})
    return D, [(a, tuple([x * (D // d) for x, d in v])) for a, v in pairs]


def _scaled(vectors):
    """(D, the vectors times D, one by one): sparse vectors on integers, D the lcm of their denominators."""
    D, [(_, flat)] = _over_lcm([((), [c for v in vectors for _, c in v])])
    values = iter(flat)
    return D, (tuple([(k, next(values)) for k, _ in v]) for v in vectors)


class Mat:
    """Immutable dense matrix over Fraction, row-major storage."""

    __slots__ = ("rows", "cols", "_e")

    def __init__(self, rows: int, cols: int, entries: Iterable):
        ent = tuple(q(x) for x in entries)
        if len(ent) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(ent)}")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "_e", ent)

    def __setattr__(self, name, value):
        raise AttributeError("Mat is immutable")

    @staticmethod
    def from_rows(rows: Sequence[Sequence]) -> Mat:
        r = len(rows)
        c = len(rows[0]) if r else 0
        if any(len(row) != c for row in rows):
            raise ValueError("ragged rows")
        return Mat(r, c, [x for row in rows for x in row])

    @staticmethod
    def zeros(rows: int, cols: int) -> Mat:
        return Mat(rows, cols, [ZERO] * (rows * cols))

    @staticmethod
    def identity(n: int) -> Mat:
        return Mat(n, n, [ONE if i == j else ZERO for i in range(n) for j in range(n)])

    @staticmethod
    def column(vec: Sequence) -> Mat:
        vec = list(vec)
        return Mat(len(vec), 1, vec)

    def __getitem__(self, ij) -> Fraction:
        i, j = ij
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(ij)
        return self._e[i * self.cols + j]

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self._e[i * self.cols : (i + 1) * self.cols]

    def col(self, j: int) -> tuple[Fraction, ...]:
        return self._e[j :: self.cols]

    def entries(self) -> tuple[Fraction, ...]:
        return self._e

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Mat)
            and self.rows == other.rows
            and self.cols == other.cols
            and self._e == other._e
        )

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self._e))

    def __add__(self, other: Mat) -> Mat:
        self._shape_check(other)
        return Mat(self.rows, self.cols, [a + b for a, b in zip(self._e, other._e)])

    def __sub__(self, other: Mat) -> Mat:
        self._shape_check(other)
        return Mat(self.rows, self.cols, [a - b for a, b in zip(self._e, other._e)])

    def __neg__(self) -> Mat:
        return Mat(self.rows, self.cols, [-a for a in self._e])

    def scale(self, c) -> Mat:
        c = q(c)
        return Mat(self.rows, self.cols, [c * a for a in self._e])

    def __matmul__(self, other: Mat) -> Mat:
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        n, m, p = self.rows, self.cols, other.cols
        out = [ZERO] * (n * p)
        for i in range(n):
            base = i * m
            for k in range(m):
                a = self._e[base + k]
                if a:
                    ob = k * p
                    for j in range(p):
                        b = other._e[ob + j]
                        if b:
                            out[i * p + j] += a * b
        return Mat(n, p, out)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def transpose(self) -> Mat:
        return Mat(
            self.cols,
            self.rows,
            [self._e[i * self.cols + j] for j in range(self.cols) for i in range(self.rows)],
        )

    def is_zero(self) -> bool:
        return all(x == 0 for x in self._e)

    def is_square(self) -> bool:
        return self.rows == self.cols

    def det(self) -> Fraction:
        if not self.is_square():
            raise ValueError("det of non-square matrix")
        # expansion via fraction-free elimination on a working copy
        n = self.rows
        a = [list(self.row(i)) for i in range(n)]
        det = ONE
        for col in range(n):
            piv = next((r for r in range(col, n) if a[r][col]), None)
            if piv is None:
                return ZERO
            if piv != col:
                a[col], a[piv] = a[piv], a[col]
                det = -det
            det *= a[col][col]
            inv = ONE / a[col][col]
            for r in range(col + 1, n):
                f = a[r][col] * inv
                if f:
                    a[r] = [x - f * y for x, y in zip(a[r], a[col])]
        return det

    def inverse(self) -> Mat | None:
        """Exact inverse, or None when singular: the reduced rows of [M | I]
        are [I | M^-1] exactly when no pivot falls past column n - 1."""
        if not self.is_square():
            raise ValueError("inverse of non-square matrix")
        n, elim = self.rows, _Eliminator()
        elim.add_many({**{j: v for j, v in enumerate(self.row(i)) if v}, n + i: ONE} for i in range(n))
        cols, rows = elim.rref()
        if cols and cols[-1] >= n:
            return None
        return Mat(n, n, [row.get(n + j, ZERO) for row in rows for j in range(n)])

    def power(self, k: int) -> Mat:
        """Matrix power; negative k uses the exact inverse."""
        if not self.is_square():
            raise ValueError("power of non-square matrix")
        base = self
        if k < 0:
            inv = self.inverse()
            if inv is None:
                raise ValueError("negative power of singular matrix")
            base, k = inv, -k
        out = None if k else Mat.identity(self.rows)
        while k:
            if k & 1:
                out = base if out is None else out @ base
            k >>= 1
            if k:  # square only while higher bits remain
                base = base @ base
        return out

    def apply(self, vec: Sequence[Fraction]) -> tuple[Fraction, ...]:
        """Apply to a coordinate vector (tuple in, tuple out)."""
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        out = []
        for i in range(self.rows):
            base = i * self.cols
            s = ZERO
            for j, x in enumerate(vec):
                if x:
                    s += self._e[base + j] * x
            out.append(s)
        return tuple(out)

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in self.row(i)) for i in range(self.rows))
        return f"Mat[{body}]"

    def _shape_check(self, other: Mat) -> None:
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} vs {other.shape}")


# -- sparse elimination, singleton pivots first --------------------------------
#
# A row with one nonzero entry, as given or once the unit columns found so
# far are stripped from it, is a unit pivot, kept by its column alone and
# never integerised: a one-entry row in the row space is always a reduced
# echelon row, so pivots, rank and reduced rows are unchanged (structured
# Gaussian elimination).  The other rows are dicts {column: int} after
# clearing denominators, each reduced against the pivot rows by
# cross-multiplication (r := p_lead*r - r_lead*p) and a gcd renormalisation,
# so entries stay integral and bounded; no such row holds a unit column.
# Back substitution then gives unit pivots over Fraction.


def _integerize(row: dict[int, Fraction]) -> dict[int, int]:
    """A row with no zero entry on integers, over its content, leading entry
    positive; only a row that holds a Fraction has denominators to clear."""
    if any(type(v) is Fraction for v in row.values()):
        den = lcm(*[v.denominator for v in row.values()])
        row = {c: v.numerator * (den // v.denominator) for c, v in row.items()}
    g = gcd(*row.values())
    if row[min(row)] < 0:
        g = -g
    return row if g == 1 else {c: v // g for c, v in row.items()}


def _peel(rows: Iterable[dict], units: set[int]) -> list[dict]:
    """The rows stripped of the unit columns and of zero entries, until no
    stripped row has one entry left; such a row's column joins `units`.  A
    row with nothing to strip is kept as it is, never copied."""
    found = -1
    while found != len(units):
        found, kept = len(units), []
        for row in rows:
            if len(row) < 2 or not all(row.values()) or not units.isdisjoint(row):
                row = {c: v for c, v in row.items() if v and c not in units}
                if len(row) == 1:
                    units.update(row)
                    continue
            if row:
                kept.append(row)
        rows = kept
    return rows


def _reduce_against(row: dict[int, int], pivots: dict[int, dict[int, int]]) -> dict[int, int]:
    while row:
        hit = None
        for c in row:
            if c in pivots and (hit is None or c < hit):
                hit = c
        if hit is None:
            return row
        piv = pivots[hit]
        a = piv[hit]
        b = row[hit]
        new = {}
        for c, v in row.items():
            new[c] = a * v
        for c, v in piv.items():
            nv = new.get(c, 0) - b * v
            if nv:
                new[c] = nv
            elif c in new:
                del new[c]
        g = 0
        for v in new.values():
            g = gcd(g, abs(v))
        if g > 1:
            new = {c: v // g for c, v in new.items()}
        row = new
    return row


class _Eliminator:
    """Sparse elimination; collects rows, and on first read its pivots: the
    unit pivots by their column alone (`units`), with no row kept for them,
    and the other pivot rows, on integers, by pivot column (`by_pivot`).
    Callers read `pivots`, the set of every pivot column, and `rank`.  A
    kernel's forced-zero columns, which arrive as ranges, are unit pivots
    of the same kind, kept in a set of columns (`_kernel`)."""

    def __init__(self) -> None:
        self.units: set[int] = set()
        self._rows: list[dict[int, Fraction]] = []
        self._by_pivot: dict[int, dict[int, int]] | None = None

    def add(self, row: dict[int, Fraction]) -> None:
        self._by_pivot = None
        if len(row) != 1:
            self._rows.append(row)
        elif any(row.values()):
            self.units.update(row)

    def add_many(self, rows: Iterable[dict[int, Fraction]]) -> None:
        for row in rows:
            self.add(row)

    @property
    def by_pivot(self) -> dict[int, dict[int, int]]:
        if self._by_pivot is None:
            self._by_pivot = {}
            for row in _peel(self._rows, self.units):
                if r := _reduce_against(_integerize(row), self._by_pivot):
                    self._by_pivot[min(r)] = r
        return self._by_pivot

    @property
    def pivots(self) -> set[int]:
        rows = self.by_pivot  # the peel may add units
        return self.units | rows.keys()

    @property
    def rank(self) -> int:
        rows = self.by_pivot
        return len(self.units) + len(rows)

    def reduced(self) -> dict[int, dict[int, Fraction]]:
        """The fully reduced unit-pivot rows of the pivots past the units, by column.

        A unit pivot is its own reduced row, and no other pivot row holds its
        column, so only these rows are back-substituted, from the last pivot
        up.  A finished row is zero in every other pivot column, so a row is
        cleared by subtracting once each finished row whose pivot column it
        holds, scaled by the entry it held there on entry.
        """
        pivots = self.by_pivot
        done: dict[int, dict[int, Fraction]] = {}
        for c in sorted(pivots, reverse=True):
            piv = pivots[c]
            row = {cc: Fraction(v, piv[c]) for cc, v in piv.items()}
            for cc, f in [(cc, row[cc]) for cc in piv if cc in done]:
                for k, v in done[cc].items():
                    nv = row.get(k, ZERO) - f * v
                    if nv:
                        row[k] = nv
                    else:
                        del row[k]
            done[c] = row
        return done

    def rref(self) -> tuple[tuple[int, ...], list[dict[int, Fraction]]]:
        """Pivot columns (ascending) and fully reduced unit-pivot rows."""
        cols, done = sorted(self.pivots), self.reduced()
        return tuple(cols), [done[c] if c in done else {c: ONE} for c in cols]


def _checked(rows: Iterable[dict[int, Fraction]], limit: int) -> Iterable[dict[int, Fraction]]:
    """The rows, refusing any column outside [0, limit)."""
    for i, row in enumerate(rows):
        for c in row:
            if not 0 <= c < limit:
                raise ValueError(f"row {i}: column {c} outside [0, {limit})")
        yield row


def _rows_of_mat(M: Mat) -> list[dict[int, Fraction]]:
    out = []
    for i in range(M.rows):
        row = {j: v for j, v in enumerate(M.row(i)) if v}
        if row:
            out.append(row)
    return out


class Subspace:
    """Subspace of K^d in canonical reduced-echelon form, stored sparsely.

    The basis is the set of rows of the reduced row echelon form (unit
    pivots, ordered by pivot column).  Each row is a tuple of its nonzero
    (column, value) pairs in column order, so its first pair is the pivot
    (column, 1).  Canonical form means two equal subspaces compare equal
    structurally.  `basis_rows()` is a dense view, built on each call.
    """

    __slots__ = ("ambient_dim", "_rows", "_by_pivot")

    def __init__(self, ambient_dim: int, vectors: Iterable[Sequence[Fraction]] = ()):
        elim = _Eliminator()
        for v in vectors:
            v = list(v)
            if len(v) != ambient_dim:
                raise ValueError("vector length mismatch")
            elim.add({j: q(x) for j, x in enumerate(v) if x})
        self._fill(ambient_dim, elim.rref()[1])

    def _fill(self, ambient_dim: int, rows: Iterable[dict[int, Fraction] | tuple]) -> None:
        rows = tuple(r if type(r) is tuple else tuple(sorted(r.items())) for r in rows)
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "_rows", rows)
        object.__setattr__(self, "_by_pivot", {r[0][0]: r for r in rows})

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    @staticmethod
    def _from_rref(ambient_dim: int, rows: Iterable[dict[int, Fraction] | tuple]) -> Subspace:
        """Wrap unit-pivot reduced rows, in pivot order, with no elimination;
        a row is a dict or a tuple of (column, value) pairs in column order."""
        s = Subspace.__new__(Subspace)
        s._fill(ambient_dim, rows)
        return s

    @property
    def dim(self) -> int:
        return len(self._rows)

    def basis_rows(self) -> tuple[tuple[Fraction, ...], ...]:
        out = []
        for r in self._rows:
            v = [ZERO] * self.ambient_dim
            for j, x in r:
                v[j] = x
            out.append(tuple(v))
        return tuple(out)

    def sparse_rows(self) -> tuple[tuple[tuple[int, Fraction], ...], ...]:
        """Canonical basis rows as (column, value) pairs in column order."""
        return self._rows

    def residual(self, entries: Iterable[tuple[int, Fraction]]) -> dict[int, Fraction]:
        """Nonzero entries of a sparse vector minus its projection on the basis.

        A basis row is zero in every other pivot column, so the projection
        takes each pivot coordinate of the vector as it is given.
        """
        v = dict(entries)
        for c, f in [(c, f) for c, f in v.items() if c in self._by_pivot]:
            for j, x in self._by_pivot[c]:
                nv = v.get(j, ZERO) - f * x
                if nv:
                    v[j] = nv
                else:
                    del v[j]
        return v

    def reduce(self, vec: Sequence[Fraction]) -> tuple[Fraction, ...]:
        """Residual of vec after subtracting its projection on the basis."""
        out = [ZERO] * self.ambient_dim
        for j, x in self.residual(self._entries(vec)).items():
            out[j] = x
        return tuple(out)

    def contains(self, vec: Sequence[Fraction] | Mat) -> bool:
        if isinstance(vec, Mat):
            if vec.cols != 1:
                raise ValueError("expected a column vector")
            vec = vec.col(0)
        return not self.residual(self._entries(vec))

    def contains_space(self, other: Subspace) -> bool:
        if other.ambient_dim != self.ambient_dim:
            raise ValueError("vector length mismatch")
        return all(not self.residual(r) for r in other._rows)

    def _entries(self, vec: Sequence[Fraction]) -> list[tuple[int, Fraction]]:
        v = [q(x) for x in vec]
        if len(v) != self.ambient_dim:
            raise ValueError("vector length mismatch")
        return [(j, x) for j, x in enumerate(v) if x]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self._rows == other._rows
        )

    def __hash__(self) -> int:
        return hash((self.ambient_dim, self._rows))

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"


def rank(M: Mat) -> int:
    elim = _Eliminator()
    elim.add_many(_rows_of_mat(M))
    return elim.rank


def rank_rows(rows: Iterable[dict[int, Fraction]]) -> int:
    elim = _Eliminator()
    elim.add_many(rows)
    return elim.rank


def nullspace(M: Mat) -> Subspace:
    return nullspace_rows(_rows_of_mat(M), M.cols)


def nullspace_rows(rows: Iterable[dict[int, Fraction]], ncols: int) -> Subspace:
    """Kernel of the linear system given by sparse rows over ncols unknowns,
    in canonical form; see `_kernel`, which also takes the forced-zero
    columns of a compatible kernel as ranges and keeps unit pivots by
    column, with no row built for them."""
    free, wide = _kernel(rows, ncols)
    return Subspace._from_rref(ncols, [wide[f] if f in wide else ((f, ONE),) for f in free])


def _kernel(rows: Iterable[dict[int, Fraction]], ncols: int, zeros: set[int] | None = None) -> tuple[list[int], dict]:
    """The kernel's free columns, ascending, and its rows that are not unit
    rows, as (column, value) pairs by free column: the canonical basis is one
    row per free column f, that row if there is one, else ((f, 1),).

    `zeros` is a set of columns forced to zero, as unit rows would force
    them, filled by its caller a range at a time (`bihom.algebra._compat_rows`);
    it is taken over, not copied, as the unit pivots, kept by column: the
    columns of one-entry rows join it, then the other pivot columns.  The
    unit pivots are never reversed and never enter the
    elimination: the other rows, stripped of them, are eliminated with the
    columns reversed (j -> ncols-1-j), so in the original order each
    reduced row ends at its pivot column.  The standard kernel vector of a
    free column f is then e_f minus entries in pivot columns right of f:
    its leading entry is the unit at f, and no other kernel vector touches
    f.  That basis already is the canonical reduced echelon form of the
    kernel; it is read off the reduced rows in one transposing pass, and a
    free column none of them touches is a unit row.
    """
    last, units = ncols - 1, set() if zeros is None else zeros
    if units and not (min(units) >= 0 and max(units) <= last):
        raise ValueError(f"a forced-zero column is outside [0, {ncols})")
    elim = _Eliminator()
    elim.add_many({last - c: v for c, v in row.items()} for row in _peel(_checked(rows, ncols), units))
    kernel: dict[int, dict[int, Fraction]] = {}
    for rc, row in elim.reduced().items():
        pc = last - rc
        for c, v in row.items():
            if c != rc:
                kernel.setdefault(last - c, {last - c: ONE})[pc] = -v
    units.update(last - c for c in elim.by_pivot)
    return list(filterfalse(units.__contains__, range(ncols))), {f: tuple(sorted(row.items())) for f, row in kernel.items()}


def span_rows(rows: Iterable[dict[int, Fraction]], ncols: int) -> Subspace:
    """`Subspace(ncols, vectors)` for sparse rows: one elimination, canonical form."""
    elim = _Eliminator()
    elim.add_many(_checked(rows, ncols))
    return Subspace._from_rref(ncols, elim.rref()[1])


def solve(M: Mat, b: Mat) -> Mat | None:
    """Some exact solution of Mx = b, or None when inconsistent."""
    if b.rows != M.rows or b.cols != 1:
        raise ValueError("rhs shape mismatch")
    rows = []
    for i in range(M.rows):
        row = {j: v for j, v in enumerate(M.row(i)) if v}
        rhs = b[i, 0]
        if rhs:
            row[M.cols] = rhs
        if row:
            rows.append(row)
    return solve_rows(rows, M.cols)


def solve_rows(rows: Iterable[dict[int, Fraction]], ncols: int) -> Mat | None:
    """Solve a sparse system where column `ncols` holds the right side."""
    elim = _Eliminator()
    elim.add_many(_checked(rows, ncols + 1))
    pivcols, rref = elim.rref()
    if ncols in pivcols:
        return None
    x = [ZERO] * ncols
    for pc, row in zip(pivcols, rref):
        # free variables are 0, so the particular solution reads off the rhs
        x[pc] = row.get(ncols, ZERO)
    return Mat.column(x)
