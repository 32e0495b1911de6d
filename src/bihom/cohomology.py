"""The cochain complex of a BiHom dialgebra, and its one-product case.

For a `BiHomDialgebra` a degree-n cochain is a multilinear map
Y_n x A^n -> A, where Y_n are the planar binary trees of the degree.  The
one-product (Hochschild-style) complex of a `BiHomAssociativeAlgebra` is
the same complex over a single tree: its cochains are maps A^n -> A, every
face of the tree is the tree itself and every block uses the one product.
The coboundary has three blocks: multiply the first argument in from the
left (twisted by phi^(n-1)), contract neighbouring arguments with signs
(-1)^i while twisting earlier arguments by phi and later ones by psi, and
multiply the last argument in from the right (twisted by psi^(n-1)).  The
i-th block replaces the tree by its i-th face, and every product is the
one selected by the leaf orientation of the ambient tree; the last leaf's
rule mirrors the first's (`bihom.trees`), so delta is (-1)^(n+1) [pi, -],
Z^1 the derivations and Z^2 the first-order deformations, as for
associative dialgebras (Majumdar and Mukherjee).

Cochains are also required to intertwine the twist maps
(phi f = f phi^(x n) and likewise for psi); the *_compatible_space
functions return that subspace and the cocycle/coboundary/cohomology
functions work inside it.  Degree-1 coboundaries are taken to be zero,
so H^1 is the space of compatible 1-cocycles; there are no cochains
below degree 1.

Everything is exact and coordinatised in the flat layout of
`bihom.cochains`, which owns the cochain types.  Inside a complex the
currency is the integer: the structure's sparse form (`cells` per
product, `twist_cols` per twist, built once with the structure) is
scaled once by D, the lcm of every denominator in it, and a `Fraction`
appears only at the output: delta f, the ambient delta rows and the
canonical bases of C^n, Z^n and B^n.

The coboundary is written once, as block tables (`_coboundary_blocks`).
Block i of delta f on a tree y reads f on face i of y through the
product of leaf i of y, and depends on y in no other way, so delta^n is
one table per (block, product) over the local coordinates of one tree,
built from `_twisted_products` once per structure and degree, kept with
the scaled form in the structure's memo (`algebra._derived`) for every
call on it until `restricted` releases them; no K_n or answer is kept
there.  An entry is a product of n scaled cells and twist columns, so
every table is integral over D^n, as the compatibility rows are over
D^degree.  No table is read densely; `apply_table` and `law_residual` in
`bihom.algebra` are the dense references.  One walk reads the tables,
restricting each distinct row to integer vectors on one tree's local
coordinates and sorting the local output rows into classes that read one
restriction under every (block, product); one push takes a (tree, vector)
through the classes to every output tree whose block reads that face.
delta f is the walk over f's values, over one denominator, pushed tree by
tree; `*_coboundary_rows` is the walk over unit vectors.  The term-by-term
evaluation in `tests/oracles.py` is the independent reference.

The spaces are computed in compatible coordinates.  No twist condition
mixes trees, so C^n is one kernel K_n over the m^(n+1) coordinates of a
tree, repeated per tree, and its canonical basis G is the shifted copies
of K_n's.  Its rows, the twist rows of `bihom.algebra`, expand f(M b)
slot by slot, each argument extending its prefix's expansion by one
twist column; past a prefix M kills, M's one-entry lines force ranges of
columns to zero, which the kernel takes as unit pivots by column, with no
row built.  K_n is kept by position (`kernel_form`): its pivot columns,
ascending, and its few rows that are not unit rows.  Once per degree,
`restricted` walks K_n times the lcm of its denominators, a factor no
rank, pivot, kernel, span or containment sees.  A row no table holds, or
one every key restricts to zero, is in no class, so nothing is sized by
all m^(n+2) local rows; a unit row of K_n is read at its column, by
position, and only its other rows are scaled value by value.  On an
output tree, a class's restrictions, offset by face, give a row of
delta^n . G, of rank r_n: dim Z^n = dim C^n - r_n and dim B^n = r_(n-1).
Its one-entry rows come first, found from the classes without building a
row; the columns none covers are pushed, and read by output coordinate
they give the rows restricted to those columns, each once, shortest
first.  With a unit row per covered column they span delta^n . G, as a
row differs from its restriction only on covered columns; r_n, Z^n, B^n
and containment all read them.  B^n is spanned by
delta of the rows of G_(n-1) at their pivot columns, and lies in Z^n
exactly when each image lies in C^n, tree by tree, and is killed by the
rows.  The canonical Z^n is G . ker of the rows: G's rows have unit
pivots no other row touches, so reduced rows lift to reduced rows.
Nothing is eliminated over all of a degree's coordinates; the references
in `tests/oracles.py` keep that route and every row of delta^n . G.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iproduct
from typing import Callable, NamedTuple, Sequence

from bihom.algebra import (
    BiHomAssociativeAlgebra,
    BiHomDialgebra,
    _combine,
    _compat_rows,
    _derived,
    _integer_form,
    _sparse,
    _twisted_products,
    check_bihom_associative,
    is_multiplicative,
)
from bihom.cochains import (HochschildCochain, TreeCochain, _args_rank, _check_kind, _Cochain, _decode,
                             hochschild_cochain_dim, random_compatible_cochain, tree_cochain_dim)
from bihom.scalars import ONE, ZERO, Subspace, _Eliminator, _kernel, _over_lcm, _scaled, nullspace_rows, span_rows
from bihom.trees import face_layout


# -- the coboundary as block tables, and its ambient rows -----------------------


def _expand(supports: Sequence[list], m: int, coef):
    """(rank * m, coef * coefficient) of each argument tuple the supports expand to."""
    terms = []
    for combo in iproduct(*supports):
        c, a = coef, 0
        for ci, x in combo:
            c *= x
            a = a * m + ci
        terms.append((a * m, c))
    return tuple(terms)


def _coboundary_blocks(cx: _Complex, n: int) -> dict[tuple[int, str], dict[int, tuple]]:
    """delta^n times D^n as tree-independent block tables, on integers.

    Entry (i, p) is block i of the coboundary taken with product p: its
    nonzero rows as (column, value) pairs, keyed by local output coordinate
    of a degree-(n+1) tree (arguments b row-major, then the output k), each
    over the local coordinates of the degree-n tree it reads (arguments,
    then output).  The rows of a tree y are the sum over i of block (i,
    orientation i of y), shifted to face i of y.  An entry is a product of
    n of the complex's scaled cells and twist columns; the expansions of
    P e_j and Q e_j (P = (D phi)^(n-1), Q likewise) through each product
    are tabulated once.  Only argument tuples that give a nonzero row are
    visited, in ascending order.
    """
    m, (phi_sup, psi_sup) = cx.X.dim, cx.twists
    P, Q = ([((x, 1),) for x in range(m)] for _ in range(2))
    for _ in range(n - 1):
        P, Q = ([_sparse(_combine(m, ((c, M[j]) for j, c in v), 0)) for v in V] for V, M in ((P, phi_sup), (Q, psi_sup)))
    phi_live = [x for x in range(m) if phi_sup[x]]
    psi_live = [x for x in range(m) if psi_sup[x]]
    last_sign = -1 if (n + 1) % 2 else 1
    signs = [-1 if i % 2 else 1 for i in range(n + 1)]
    size = m**n

    def outer(expansions, first):
        # the first or last block: rows (b, k) of f on the other n arguments
        # (rank s) with argument x multiplied in
        rows: dict[int, list[tuple[int, int]]] = {}
        live = [x for x in range(m) if expansions[x]]
        pairs = iproduct(live, range(size)) if first else ((x, s) for s in range(size) for x in live)
        for x, s in pairs:
            r = x * size + s if first else s * m + x
            for j, col in expansions[x]:
                for k, c in col:
                    rows.setdefault(r * m + k, []).append((s * m + j, c))  # (x, s, j) gives each entry once
        return {r: tuple(row) for r, row in rows.items()}

    tables: dict[tuple[int, str], dict[int, tuple]] = {}
    for name, cells in cx.cells.items():
        # the nonzero columns [P e_x o e_j] and, signed, [e_j o Q e_x], as (j, column)
        pe, eq = (_twisted_products(cells, *M, 0) if n > 1 else cells for M in ((P, None), (None, Q)))
        left = [[(j, col) for j, col in enumerate(pe[x]) if col] for x in range(m)]
        right = [[(j, [(k, last_sign * c) for k, c in eq[j][x]]) for j in range(m) if eq[j][x]] for x in range(m)]
        live_cells = [(x, y, cell) for x, line in enumerate(cells) for y, cell in enumerate(line) if cell]
        tables[0, name] = outer(left, True)
        for i in range(1, n + 1):
            rows = {}
            spans = iproduct(iproduct(phi_live, repeat=i - 1), live_cells, iproduct(psi_live, repeat=n - i))
            for pre, (x, y, cell), suf in spans:
                vecs = [phi_sup[z] for z in pre] + [cell] + [psi_sup[z] for z in suf]
                rows[_args_rank(pre + (x, y) + suf, m)] = _expand(vecs, m, signs[i])  # distinct combos give distinct tuples
            tables[i, name] = rows
        tables[n + 1, name] = outer(right, False)
    return tables


def _by_column(vectors) -> dict[int, list[tuple[int, int]]]:
    """Sparse vectors given as (id, (column, value) pairs), read by column:
    the (id, value) pairs at each column some vector holds."""
    by_col: dict[int, list[tuple[int, int]]] = {}
    for a, vec in vectors:
        for j, v in vec:
            by_col.setdefault(j, []).append((a, v))
    return by_col


def dialg_coboundary_rows(A: BiHomDialgebra, n: int) -> list[dict[int, Fraction]]:
    """delta^n as linear functionals: one sparse row per output coordinate.

    Row r for output coordinate (y, b, k) satisfies
    (delta f)(y; b)_k = sum_in r[in] * f_flat[in].
    """
    return _complex_of(A, TreeCochain).delta_rows(n)


def hoch_coboundary_rows(A: BiHomAssociativeAlgebra, n: int) -> list[dict[int, Fraction]]:
    """Same row construction for the one-product complex."""
    return _complex_of(A, HochschildCochain).delta_rows(n)


def dialg_coboundary(A: BiHomDialgebra, f: TreeCochain) -> TreeCochain:
    """delta f in the tree complex; output degree is f.degree + 1."""
    _check_kind("dialg_coboundary", A, f, BiHomDialgebra, TreeCochain)
    return _complex_of(A, TreeCochain).apply_delta(f)


def hoch_coboundary(A: BiHomAssociativeAlgebra, f: HochschildCochain) -> HochschildCochain:
    """delta f in the one-product complex; output degree is f.degree + 1."""
    _check_kind("hoch_coboundary", A, f, BiHomAssociativeAlgebra, HochschildCochain)
    return _complex_of(A, HochschildCochain).apply_delta(f)


# -- one complex: compatible cochains, cocycles, coboundaries, cohomology -------


class _Restrictions(NamedTuple):
    """The block tables of delta^n restricted to a set of vectors, by row class; see `_Complex._walk`."""
    keys: tuple  # (block, product) of each table, in table order
    row_class: dict  # local output row -> its class, ascending, only rows some key restricts to nonzero
    classes: list  # per class, its restriction id under each key, numbered by first row; never all zero
    images: list  # the distinct restrictions by id, id 0 the zero row
    kernel: tuple | None = None  # in `restricted`'s record: (d, K_n's pivot columns, d K_n's other rows by position)


class _Complex:
    """The cochain complex of one structure, degree by degree, in
    compatible coordinates.

    The tree complex of a dialgebra indexes degree-n cochains by the trees
    of Y_n; the one-product complex of an algebra is its one-tree case.
    `cells`, `twists` (the sparse form times D) and delta's block tables live
    in the structure's memo; `restricted` releases the tables it reads.  K_n,
    the restrictions and the singleton pass are built once per degree, shared
    by every space asked of the complex, and die with it."""

    def __init__(self, X: BiHomDialgebra | BiHomAssociativeAlgebra, cochain: type[_Cochain]):
        structure = BiHomDialgebra if cochain is TreeCochain else BiHomAssociativeAlgebra
        if not isinstance(X, structure):
            raise TypeError(f"the {cochain.__name__} complex needs a {structure.__name__}, got a {type(X).__name__}")
        self.X, self.cochain = X, cochain
        self.D, (self.cells,), self.twists = _derived(X, "integer_form", _integer_form)
        self._blocks: dict[int, dict[tuple[int, str], dict[int, tuple]]] = _derived(X, "blocks", lambda X: {})
        self._kernel: dict[int, tuple[list[int], dict[int, tuple]]] = {}
        self._restricted: dict[int, _Restrictions] = {}
        self._singletons: dict[int, tuple[list[dict], _Eliminator]] = {}

    def cochain_dim(self, n: int) -> int:
        """Length of a flattened degree-n cochain; there are no 0-cochains."""
        if n < 1:
            raise ValueError("degree must be >= 1")
        return (tree_cochain_dim if self.cochain is TreeCochain else hochschild_cochain_dim)(n, self.X.dim)

    def layout(self, n: int) -> Sequence[tuple[Sequence[int], Sequence[str]]]:
        """Per output tree of delta^n: the face and the product of each block."""
        if self.cochain is TreeCochain:
            return face_layout(n + 1)
        return (((0,) * (n + 2), ("mul",) * (n + 2)),)

    def blocks(self, n: int) -> dict[tuple[int, str], dict[int, tuple]]:
        """The block tables of delta^n times D^n, built once per structure and degree."""
        return self._blocks[n] if n in self._blocks else self._blocks.setdefault(n, _coboundary_blocks(self, n))

    def delta_rows(self, n: int) -> list[dict[int, Fraction]]:
        """Ambient delta^n rows, one per output coordinate: the walk over one
        tree's unit vectors, then the push of every (tree, coordinate), read
        by column; each entry is divided by D^n once."""
        size, den = self.X.dim ** (n + 1), self.D**n  # one input tree
        ntrees = self.cochain_dim(n) // size  # refuses n < 1
        rec = self._walk(n, lambda j: ((j, 1),))
        rows: list[dict[int, Fraction]] = [{} for _ in range(self.cochain_dim(n + 1))]
        for (t, j), col in self._push(n, rec, list(iproduct(range(ntrees), range(size)))).items():
            for r, v in col.items():
                rows[r][t * size + j] = Fraction(v, den)
        return rows

    def apply_delta(self, f: _Cochain) -> _Cochain:
        """delta f: the walk over f's values on each tree, scaled to integers
        over d D^n, d the lcm of f's denominators, then the push of each tree
        f lives on to the output trees reading it, summed and divided once
        per output coordinate."""
        n, m = f.degree, self.X.dim
        d, scaled = _over_lcm(((t, args), val) for t, group in enumerate(f.groups) for args, val in group)
        den = d * self.D**n
        local: dict[int, list[tuple[int, int]]] = {}  # per tree f lives on: its nonzero local coordinates
        for (t, args), val in scaled:
            a = _args_rank(args, m) * m
            local.setdefault(t, []).extend((a + k, v) for k, v in enumerate(val) if v)
        acc: dict[int, int] = {}
        for img in self._push(n, self._walk(n, _by_column(local.items()).get), [(t, t) for t in local]).values():
            for r, v in img.items():
                acc[r] = acc[r] + v if r in acc else v
        data: dict = {}
        arg_tuples = list(iproduct(range(m), repeat=n + 1))
        for r in sorted(acc):
            yb, k = divmod(r, m)
            y, b = divmod(yb, len(arg_tuples))
            key = (y, arg_tuples[b]) if self.cochain._tree_keyed else arg_tuples[b]
            data.setdefault(key, [ZERO] * m)[k] = Fraction(acc[r], den) if acc[r] else ZERO
        return self.cochain._trusted(n + 1, m, {key: tuple(val) for key, val in data.items()})

    def kernel_form(self, n: int) -> tuple[list[int], dict[int, tuple]]:
        """K_n by position, once per degree: its pivot columns, ascending, one per
        row, and its rows that are not unit rows, by position; equal twists give
        rows once.  Forced-zero columns arrive from the twist rows as ranges, and
        a unit row is its pivot column alone, so no row is built for it."""
        if n not in self._kernel:
            zeros: set[int] = set()
            rows = _compat_rows(self.twists[:1] if self.X.phi == self.X.psi else self.twists, n, self.D, zeros)
            free, wide = _kernel(rows, self.X.dim ** (n + 1), zeros)
            self._kernel[n] = free, {bisect_left(free, f): row for f, row in wide.items()}
        return self._kernel[n]

    def _walk(self, n: int, column: Callable) -> _Restrictions:
        """The only reader of delta^n's block tables: each distinct row
        restricted to integer vectors, given by column (column(j) is the
        (vector id, value) pairs at local column j, or empty), maps a vector id
        to the row's value on it times D^n.  Only rows some table holds are
        visited, and only those reading a nonzero restriction under some key
        are kept in a class."""
        by_row: tuple[dict, dict] = ({}, {})  # outer and contraction rows -> (k, id) of their nonzero restrictions
        by_image: dict[tuple, int] = {(): 0}
        images: list[dict[int, int]] = [{}]
        tables = self.blocks(n)
        live: dict[int, list[int]] = {}  # each local output row with a nonzero restriction -> its id under each key
        for s, (key, table) in enumerate(tables.items()):
            w = self.X.dim if 0 < key[0] <= n else 1
            for r, row in table.items():
                if (rids := by_row[w > 1].get(row)) is None:
                    rids = by_row[w > 1][row] = []
                    for k in range(w):
                        img: dict[int, int] = {}
                        for j, x in row:
                            for a, v in column(j + k) or ():
                                img[a] = img[a] + x * v if a in img else x * v
                        img = {a: v for a, v in img.items() if v}
                        if rid := by_image.setdefault(tuple(sorted(img.items())), len(images)):
                            rids.append((k, rid))
                        if rid == len(images):
                            images.append(img)
                for k, rid in rids:
                    live.setdefault(r * w + k, [0] * len(tables))[s] = rid
        index: dict[tuple[int, ...], int] = {}
        row_class = {r: index.setdefault(tuple(ids), len(index)) for r, ids in sorted(live.items())}
        return _Restrictions(tuple(tables), row_class, list(index), images)

    def restricted(self, n: int) -> _Restrictions:
        """The walk over d K_n, d the lcm of K_n's denominators, once per
        degree, kept with (d, K_n's pivot columns, d K_n's other rows by
        position).  A unit row is read at its column, by position, as d: it
        is never built or scaled.  The block tables read are released."""
        if n not in self._restricted:
            free, wide = self.kernel_form(n)
            d, scaled = _scaled(list(wide.values()))
            wide = dict(zip(wide, scaled))
            by_col = _by_column(wide.items())

            def column(j: int):
                if j in by_col:
                    return by_col[j]
                a = bisect_left(free, j)
                return ((a, d),) if a < len(free) and free[a] == j else ()

            self._restricted[n] = self._walk(n, column)._replace(kernel=(d, free, wide))
            del self._blocks[n]
        return self._restricted[n]

    def compatible_space(self, n: int) -> Subspace:
        """C^n: the shifted copies of K_n, one per tree, already canonical."""
        dim, size, (free, wide) = self.cochain_dim(n), self.X.dim ** (n + 1), self.kernel_form(n)
        return Subspace._from_rref(dim, [{c + t * size: v for c, v in wide.get(a) or ((f, ONE),)}
                                         for t in range(self.cochain._ntrees(n)) for a, f in enumerate(free)])

    def singletons(self, n: int) -> tuple[list[dict[int, int]], _Eliminator]:
        """The singleton pass over delta^n . G, once per degree.  A class whose
        live restrictions sit in one block gives, on every output tree, a
        one-entry row at that block's face wherever its restriction has one
        entry, covering that column with no row built.  Returns a unit row per
        covered column, then the distinct rows of delta^n . G restricted to the
        other columns, read by output coordinate off the push of those columns,
        shortest first, and their elimination: on integers, they span
        delta^n . G and the pivots are its pivot columns."""
        if n not in self._singletons:
            dK, rec = len(self.kernel_form(n)[0]), self.restricted(n)
            single, support = ({key: set() for key in rec.keys} for _ in range(2))
            for cls in rec.classes:
                live = [(key, rec.images[rid]) for key, rid in zip(rec.keys, cls) if rid]
                one_block = len({i for (i, _), _ in live}) == 1
                for key, img in live:
                    support[key].update(img)
                    if one_block and len(img) == 1:
                        single[key].update(img)
            reads = {(f * dK, key) for faces, ors in self.layout(n) for f, key in zip(faces, enumerate(ors))}
            covered = {off + a for off, key in reads for a in single[key]}
            uncovered = {off + a for off, key in reads for a in support[key]} - covered
            by_out: dict[int, dict[int, int]] = {}
            pushed = self._push(n, rec, [divmod(c, dK) for c in sorted(uncovered)])
            for t, a in list(pushed):  # each column and row is popped once read, so no two copies are whole
                for r, v in pushed.pop((t, a)).items():
                    by_out.setdefault(r, {})[t * dK + a] = v  # ascending columns, so row[0] is leftmost
            distinct = {tuple(by_out.pop(r).items()): None for r in list(by_out)}
            rows = [{c: 1} for c in sorted(covered)]
            rows += [dict(row) for row in sorted(distinct, key=lambda row: (len(row), row[0][0]))]
            elim = _Eliminator()
            elim.add_many(rows)
            self._singletons[n] = rows, elim
        return self._singletons[n]

    def cocycles(self, n: int) -> Subspace:
        """Z^n = G . ker(delta^n . G), from the rows of `singletons`, lifted
        row by row; see the module notes."""
        dim, (free, wide) = self.cochain_dim(n), self.kernel_form(n)
        dK, size = len(free), self.X.dim ** (n + 1)
        w = nullspace_rows(self.singletons(n)[0], self.cochain._ntrees(n) * dK)
        lifted = []
        for wrow in w.sparse_rows():
            acc: dict[int, Fraction] = {}
            for c, x in wrow:
                t, a = divmod(c, dK)
                for j, v in wide.get(a) or ((free[a], ONE),):
                    key = t * size + j
                    acc[key] = acc[key] + x * v if key in acc else x * v
            lifted.append({j: v for j, v in acc.items() if v})
        return Subspace._from_rref(dim, lifted)

    def images(self, n: int) -> list[dict[int, int]]:
        """A basis of B^n: delta of the rows of G_(n-1) at the pivot columns
        of delta^(n-1) . G_(n-1), which row operations keep independent and
        spanning, each pushed from the class record of degree n - 1."""
        if n == 1:
            return []
        dK, rec = len(self.kernel_form(n - 1)[0]), self.restricted(n - 1)
        picked = [divmod(c, dK) for c in sorted(self.singletons(n - 1)[1].pivots)]
        return list(self._push(n - 1, rec, picked).values())

    def _push(self, n: int, rec: _Restrictions, picked: Sequence[tuple[int, int]]) -> dict[tuple[int, int], dict[int, int]]:
        """Each picked (tree t, vector a) of a degree-n record pushed through
        the row classes to every output tree whose block reads face t, as
        delta^n's nonzero output coordinates; blocks reading one face add up.
        Over `restricted`'s record a push is a column of delta^n . G.  The one
        assembly of delta's output trees: delta f, the delta rows, the rows of
        `singletons` and the images of B^n; an empty pick reads nothing."""
        if not picked:
            return {}
        size, wanted, by_tree = self.X.dim ** (n + 2), {a for _, a in picked}, {}
        for t, a in picked:
            by_tree.setdefault(t, []).append(a)
        kept = [[(a, v) for a, v in img.items() if a in wanted] for img in rec.images]
        pushed = {key: {a: {} for a in wanted} for key in rec.keys}
        sinks = [[(pushed[key][a], v) for key, rid in zip(rec.keys, cls) for a, v in kept[rid]] for cls in rec.classes]
        for r, c in rec.row_class.items():
            for sink, v in sinks[c]:
                sink[r] = v
        out: dict[tuple[int, int], dict[int, int]] = {ta: {} for ta in picked}
        for y, (faces, ors) in enumerate(self.layout(n)):
            for i, (t, p) in enumerate(zip(faces, ors)):
                for a in by_tree.get(t, ()):
                    img = out[t, a]
                    for r, v in pushed[i, p][a].items():
                        r += y * size
                        img[r] = img[r] + v if r in img else v
        return {ta: {r: v for r, v in img.items() if v} for ta, img in out.items()}

    def coboundaries(self, n: int) -> Subspace:
        """B^n, the canonical form of `images`; the zero space at n = 1."""
        dim = self.cochain_dim(n)  # refuses n < 1 before any image
        return span_rows(self.images(n), dim)

    def cocycle_test(self, n: int) -> Callable[[dict], bool]:
        """The membership test of Z^n.  It takes a degree-n cochain by its
        nonzero ambient coordinates, at any common scale: it is a cocycle
        when it lies in K_n's span on every tree, and its G-coordinates, read
        at K_n's pivots, found by position, are killed by the rows of
        `singletons`."""
        (d, free, wide), size = self.restricted(n).kernel, self.X.dim ** (n + 1)
        by_col = _by_column((i, row.items()) for i, row in enumerate(self.singletons(n)[0]))

        def killed(img: dict) -> bool:
            local: dict[int, dict] = {}
            for c, v in img.items():
                local.setdefault(c // size, {})[c % size] = v
            acc: dict = {}
            for t, x in local.items():
                res = {j: d * w for j, w in x.items()}  # d x less x's pivot entries times the rows of d K_n
                for j, w in x.items():
                    if (a := bisect_left(free, j)) < len(free) and free[a] == j:
                        for c, v in wide.get(a) or ((j, d),):
                            res[c] = res.get(c, 0) - w * v
                        for i, v in by_col.get(t * len(free) + a, ()):
                            acc[i] = acc[i] + w * v if i in acc else w * v
                if any(res.values()):
                    return False
            return not any(acc.values())

        return killed

    def report(self, n: int) -> CohomologyReport:
        """Dimensions from ranks, r_k the rank of delta^k . G_k: dim C^n is
        |Y_n| dim K_n, dim Z^n = dim C^n - r_n and dim B^n = r_(n-1).  B^n
        lies in Z^n when `cocycle_test` accepts each of its basis images."""
        self.cochain_dim(n)  # refuses n < 1 before any kernel work
        killed, B = self.cocycle_test(n), self.images(n)
        contained = all(map(killed, B))
        dim_z = (dim_c := self.cochain._ntrees(n) * len(self.kernel_form(n)[0])) - self.singletons(n)[1].rank
        return CohomologyReport(n, dim_c, dim_z, len(B), dim_z - len(B) if contained else None, contained)


def dialg_compatible_space(A: BiHomDialgebra, n: int) -> Subspace:
    """Tree cochains commuting with both twist maps, as flattened vectors."""
    return _complex_of(A, TreeCochain).compatible_space(n)


def hoch_compatible_space(A: BiHomAssociativeAlgebra, n: int) -> Subspace:
    return _complex_of(A, HochschildCochain).compatible_space(n)


def dialg_cocycles(A: BiHomDialgebra, n: int) -> Subspace:
    """Compatible cochains killed by delta^n."""
    return _complex_of(A, TreeCochain).cocycles(n)


def hoch_cocycles(A: BiHomAssociativeAlgebra, n: int) -> Subspace:
    return _complex_of(A, HochschildCochain).cocycles(n)


def dialg_coboundaries(A: BiHomDialgebra, n: int) -> Subspace:
    """delta of the compatible degree-(n-1) space; zero space at n = 1."""
    return _complex_of(A, TreeCochain).coboundaries(n)


def hoch_coboundaries(A: BiHomAssociativeAlgebra, n: int) -> Subspace:
    return _complex_of(A, HochschildCochain).coboundaries(n)


def _complex_of(X: BiHomDialgebra | BiHomAssociativeAlgebra, cochain: type[_Cochain] | None = None) -> _Complex:
    """X's complex over `cochain`, by default the tree or one-product complex."""
    if cochain is None and not isinstance(X, (BiHomDialgebra, BiHomAssociativeAlgebra)):
        raise TypeError(f"expected an algebra or dialgebra, got {type(X).__name__}")
    return _Complex(X, cochain or (TreeCochain if isinstance(X, BiHomDialgebra) else HochschildCochain))


def cohomology_spaces(X: BiHomDialgebra | BiHomAssociativeAlgebra, n: int) -> tuple[Subspace, Subspace, Subspace]:
    """(C^n, Z^n, B^n): compatible cochains, cocycles and coboundaries.

    The complex is the tree complex for a dialgebra and the one-product
    complex for an algebra.  C^n and Z^n share one set of compatibility rows.
    """
    cx = _complex_of(X)
    return cx.compatible_space(n), cx.cocycles(n), cx.coboundaries(n)


@dataclass(frozen=True)
class CohomologyReport:
    degree: int
    compatible_dim: int
    cocycle_dim: int
    coboundary_dim: int
    cohomology_dim: int | None
    contained: bool = True


def cohomology_report(X: BiHomDialgebra | BiHomAssociativeAlgebra, n: int) -> CohomologyReport:
    """The dimensions of C^n, Z^n, B^n and Z^n / B^n, from ranks.  Where
    B^n escapes Z^n, `contained` is False and cohomology_dim is None."""
    return _complex_of(X).report(n)


class CoboundaryEscape(ArithmeticError):
    """B^n escapes Z^n at (`tree`, basis indices `args`, `output`), `tree` None
    in the one-product complex.  The class attribute `args` lets the instance's
    own shadow the exception's, so the message keeps its slot."""

    args: tuple[int, ...] = ()

    def __init__(self, message: str, degree: int, tree: int | None, args: tuple[int, ...], output: int, residual: Fraction):
        super().__init__(message)
        self.degree, self.tree, self.args, self.output, self.residual = degree, tree, args, output, residual


def cohomology(X: BiHomDialgebra | BiHomAssociativeAlgebra, n: int) -> CohomologyReport:
    """Z^n, B^n and their difference, inside the twist-compatible subcomplex.

    B^1 is taken to be zero (there are no 0-cochains).  Raises
    `CoboundaryEscape`, an ArithmeticError, if the coboundary space escapes
    the cocycle space, which would mean the complex is broken for this
    algebra.
    """
    cx = _complex_of(X)
    rep = cx.report(n)
    if not rep.contained:
        Z, B = cx.cocycles(n), cx.coboundaries(n)
        i, res = next((i, res) for i, r in enumerate(B.sparse_rows()) if (res := Z.residual(r)))
        coord = min(res)
        t, args, k = _decode(coord, n, X.dim)
        tree = t if isinstance(X, BiHomDialgebra) else None
        raise CoboundaryEscape(
            f"coboundaries escape cocycles in degree {n}: coboundary basis row {i} "
            f"has residual {res[coord]} at {'' if tree is None else f'tree {t}, '}args "
            f"({', '.join(X.basis[a] for a in args)}), output {X.basis[k]}", n, tree, args, k, res[coord])
    return rep


def hoch_delta_squared_is_zero(A: BiHomAssociativeAlgebra, n: int, trials: int, seed: int = 0) -> bool:
    """delta(delta f) == 0 for `trials` random compatible degree-n cochains.

    The vanishing is a theorem only when the one-product axioms hold and
    the twist maps are multiplicative, so both are preconditions.
    """
    rep = check_bihom_associative(A)
    if not rep.ok:
        raise ValueError(f"axioms fail, first witness: {rep.violations[0].describe(A.basis)}")
    if not is_multiplicative(A.as_dialgebra()).ok:
        raise ValueError("twist maps are not multiplicative for the product")
    rng = random.Random(seed)
    space = hoch_compatible_space(A, n)
    for _ in range(trials):
        f = random_compatible_cochain(space, rng, n, A.dim, tree_indexed=False)
        if not hoch_coboundary(A, hoch_coboundary(A, f)).is_zero():
            return False
    return True
