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
one selected by the leaf orientation of the ambient tree.

Cochains are also required to intertwine the twist maps
(phi f = f phi^(x n) and likewise for psi); the *_compatible_space
functions return that subspace and the cocycle/coboundary/cohomology
functions work inside it.  Degree-1 coboundaries are taken to be zero,
so H^1 is the space of compatible 1-cocycles; there are no cochains
below degree 1.

Everything is exact and coordinatised: a degree-n cochain over a
dim-m algebra flattens to a vector of length |Y_n| * m^n * m (tree
index outer, then the argument multi-index row-major, then the output
coordinate; |Y_n| is 1 in the one-product complex).

The coboundary is written once, as block tables (`_coboundary_blocks`).
Block i of delta f on a tree y reads f on face i of y through the
product of leaf i of y, and depends on y in no other way, so delta^n is
one table per (block, product) over the local coordinates of one tree,
built once per degree.  The ambient rows of a tree are its blocks
shifted to their faces and summed; `dialg_coboundary`/`hoch_coboundary`
apply those rows to one cochain.  The term-by-term evaluation of the
formula is kept in `tests/oracles.py` as the independent reference.

The spaces are computed in compatible coordinates.  No twist condition
mixes trees, so C^n is one kernel K_n over the m^(n+1) coordinates of a
tree, repeated per tree, and its canonical basis G is the shifted copies
of K_n's.  Each distinct block row is restricted to K_n once; combined
through the face offsets these give delta^n . G, whose distinct rows are
few, and Z^n = G . ker(delta^n . G).  That basis is already canonical:
row c of G has a unit at its pivot and every other row of G is zero
there, so G^T w takes the value w_c at that pivot and leads at the pivot
of w's leading index; reduced echelon rows of ker(delta^n . G) thus map
to reduced echelon rows.  B^n pushes K_(n-1) through the block tables of
delta^(n-1).  Nothing is eliminated over all of a degree's coordinates;
`tests/oracles.py` keeps that route as the reference.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iproduct
from typing import Mapping, Sequence

from bihom.algebra import (
    BiHomAssociativeAlgebra,
    BiHomDialgebra,
    Table,
    Vec,
    check_bihom_associative,
    is_multiplicative,
    is_zero_vec,
    vec_add,
    zero_vec,
)
from bihom.scalars import Mat, ONE, ZERO, Subspace, _Eliminator, nullspace_rows, q
from bihom.trees import DASHV, VDASH, Tree, face_layout, tree_index, trees


def _args_rank(args: Sequence[int], dim: int) -> int:
    r = 0
    for a in args:
        r = r * dim + a
    return r


class _Cochain:
    """Shared body of both cochain kinds: an immutable degree-n multilinear
    map, stored sparsely as {key: value vector} with zero values dropped.

    A `TreeCochain` is keyed by (tree index, args); a `HochschildCochain`
    is the one-tree case and is keyed by args alone.
    """

    __slots__ = ("degree", "dim", "data")
    _tree_keyed = False

    def __init__(self, degree: int, dim: int, data: Mapping | None = None):
        if degree < 1:
            raise ValueError("degree must be >= 1")
        tree_keyed = self._tree_keyed
        ntrees = self._ntrees(degree)
        clean: dict = {}
        for key, val in (data or {}).items():
            if tree_keyed:
                t, args = key
                if not 0 <= t < ntrees:
                    raise ValueError(f"tree index {t} out of range for degree {degree}")
                args = tuple(args)
                key = (t, args)
            else:
                key = args = tuple(key)
            if len(args) != degree or any(not 0 <= a < dim for a in args):
                raise ValueError(f"bad argument tuple {args}")
            v = tuple(q(c) for c in val)
            if len(v) != dim:
                raise ValueError("value length mismatch")
            if not is_zero_vec(v):
                clean[key] = v
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "data", clean)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def _ntrees(cls, degree: int) -> int:
        return len(trees(degree)) if cls._tree_keyed else 1

    @classmethod
    def zero(cls, degree: int, dim: int) -> _Cochain:
        return cls(degree, dim, {})

    def __add__(self, other: _Cochain) -> _Cochain:
        if self.degree != other.degree or self.dim != other.dim:
            raise ValueError("cochain shape mismatch")
        data = dict(self.data)
        for key, val in other.data.items():
            data[key] = vec_add(data.get(key, zero_vec(self.dim)), val)
        return type(self)(self.degree, self.dim, data)

    def __sub__(self, other: _Cochain) -> _Cochain:
        return self + other.scale(-1)

    def __neg__(self) -> _Cochain:
        return self.scale(-1)

    def scale(self, c) -> _Cochain:
        c = q(c)
        return type(self)(
            self.degree, self.dim,
            {key: tuple(c * v for v in val) for key, val in self.data.items()},
        )

    def is_zero(self) -> bool:
        return not self.data

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, type(self))
            and self.degree == other.degree
            and self.dim == other.dim
            and self.data == other.data
        )

    def flatten(self) -> tuple[Fraction, ...]:
        """Coordinates: tree index outer, then args row-major, then output."""
        n, m = self.degree, self.dim
        size = m**n
        out = [ZERO] * (self._ntrees(n) * size * m)
        for key, val in self.data.items():
            t, args = key if self._tree_keyed else (0, key)
            base = (t * size + _args_rank(args, m)) * m
            for k, v in enumerate(val):
                out[base + k] = v
        return tuple(out)

    @classmethod
    def unflatten(cls, degree: int, dim: int, coords: Sequence[Fraction]) -> _Cochain:
        ntrees = cls._ntrees(degree)
        if len(coords) != ntrees * dim**degree * dim:
            raise ValueError("coordinate length mismatch")
        data = {}
        for t in range(ntrees):
            for args in iproduct(range(dim), repeat=degree):
                base = (t * dim**degree + _args_rank(args, dim)) * dim
                val = tuple(q(c) for c in coords[base : base + dim])
                if not is_zero_vec(val):
                    data[(t, args) if cls._tree_keyed else args] = val
        return cls(degree, dim, data)

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(degree={self.degree}, dim={self.dim}, "
            f"support={len(self.data)})"
        )


class TreeCochain(_Cochain):
    """Degree-n multilinear map Y_n x A^n -> A, keyed by (tree index, args)."""

    __slots__ = ()
    _tree_keyed = True

    def value(self, t: int, args: tuple[int, ...]) -> Vec:
        return self.data.get((t, tuple(args)), zero_vec(self.dim))

    def eval(self, tree: Tree | int, vecs: Sequence[Vec]) -> Vec:
        """Multilinear extension; iterates over the cochain's support."""
        t = tree_index(tree) if isinstance(tree, Tree) else tree
        if len(vecs) != self.degree:
            raise ValueError("argument count mismatch")
        out = [ZERO] * self.dim
        for (ti, args), val in self.data.items():
            if ti != t:
                continue
            coef = ONE
            for pos, a in enumerate(args):
                c = vecs[pos][a]
                if not c:
                    coef = ZERO
                    break
                coef *= c
            if coef:
                for k, v in enumerate(val):
                    if v:
                        out[k] += coef * v
        return tuple(out)


class HochschildCochain(_Cochain):
    """Degree-n multilinear map A^n -> A for the one-product complex, keyed by args."""

    __slots__ = ()

    def value(self, args: tuple[int, ...]) -> Vec:
        return self.data.get(tuple(args), zero_vec(self.dim))

    def eval(self, vecs: Sequence[Vec]) -> Vec:
        if len(vecs) != self.degree:
            raise ValueError("argument count mismatch")
        out = [ZERO] * self.dim
        for args, val in self.data.items():
            coef = ONE
            for pos, a in enumerate(args):
                c = vecs[pos][a]
                if not c:
                    coef = ZERO
                    break
                coef *= c
            if coef:
                for k, v in enumerate(val):
                    if v:
                        out[k] += coef * v
        return tuple(out)


def tree_cochain_dim(degree: int, dim: int) -> int:
    return len(trees(degree)) * dim**degree * dim


def hochschild_cochain_dim(degree: int, dim: int) -> int:
    return dim**degree * dim


# -- coboundaries as sparse rows over flattened coordinates --------------------


def _expand_product(
    table: Table, u: Vec, m: int
) -> list[tuple[int, tuple[Fraction, ...]]]:
    """Coefficients of [u * e_j]_k as (j, column-of-k) pairs; on the
    transposed table, those of [e_j * u]_k."""
    out = []
    for j in range(m):
        col = [ZERO] * m
        hit = False
        for p, up in enumerate(u):
            if up:
                cell = table[p][j]
                for k, c in enumerate(cell):
                    if c:
                        col[k] += up * c
                        hit = True
        if hit:
            out.append((j, tuple(col)))
    return out


def _support(v: Vec) -> list[tuple[int, Fraction]]:
    return [(i, c) for i, c in enumerate(v) if c]


def _coboundary_blocks(
    phi: Mat,
    psi: Mat,
    products: Mapping[str, Table],
    n: int,
) -> dict[tuple[int, str], dict[int, dict[int, Fraction]]]:
    """delta^n as tree-independent block tables.

    Entry (i, p) is block i of the coboundary taken with product p: its
    nonzero rows, keyed by local output coordinate of a degree-(n+1) tree
    (arguments b row-major, then the output k), each over the local
    coordinates of the degree-n tree it reads (arguments, then output).
    The rows of a tree y are the sum over i of block (i, orientation i
    of y), shifted to face i of y.  Everything that depends only on a
    basis index or a product (twist column supports, product cells, the
    expansions of P e_j and Q e_j through each product) is tabulated once.
    """
    m = phi.rows
    P = phi.power(n - 1)
    Q = psi.power(n - 1)
    basis = [tuple(ONE if s == j else ZERO for s in range(m)) for j in range(m)]
    phi_sup = [_support(phi.col(j)) for j in range(m)]
    psi_sup = [_support(psi.col(j)) for j in range(m)]
    last_sign = -1 if (n + 1) % 2 else 1
    signs = [q(-1 if i % 2 else 1) for i in range(n + 1)]
    arg_tuples = list(iproduct(range(m), repeat=n + 1))

    def outer(expansions, args_of):
        # the first or last block: rows (b, k) of f(args_of(b)) multiplied in
        rows: dict[int, dict[int, Fraction]] = {}
        for r, b in enumerate(arg_tuples):
            base = _args_rank(args_of(b), m) * m
            for j, col in expansions(b):
                for k, c in col:
                    rows.setdefault(r * m + k, {})[base + j] = c
        return rows

    tables: dict[tuple[int, str], dict[int, dict[int, Fraction]]] = {}
    for name, table in products.items():
        cells = [[_support(cell) for cell in line] for line in table]
        left = [
            [(j, _support(col)) for j, col in _expand_product(table, P.apply(e), m)]
            for e in basis
        ]
        transposed = list(zip(*table))
        right = [
            [
                (j, [(k, last_sign * c) for k, c in _support(col)])
                for j, col in _expand_product(transposed, Q.apply(e), m)
            ]
            for e in basis
        ]
        tables[0, name] = outer(lambda b: left[b[0]], lambda b: b[1:])
        for i in range(1, n + 1):
            rows = {}
            for r, b in enumerate(arg_tuples):
                cell = cells[b[i - 1]][b[i]]
                if not cell:
                    continue
                vecs = [phi_sup[x] for x in b[: i - 1]]
                vecs.append(cell)
                vecs += [psi_sup[x] for x in b[i + 1 :]]
                # distinct combos give distinct argument tuples
                terms = []
                for combo in iproduct(*vecs):
                    coef = signs[i]
                    a = 0
                    for ci, c in combo:
                        coef *= c
                        a = a * m + ci
                    terms.append((a * m, coef))
                if terms:
                    for k in range(m):
                        rows[r * m + k] = {a + k: c for a, c in terms}
            tables[i, name] = rows
        tables[n + 1, name] = outer(lambda b: right[b[n]], lambda b: b[:-1])
    return tables


def _assemble(
    blocks: Mapping[tuple[int, str], Mapping[int, dict[int, Fraction]]],
    layout: Sequence[tuple[Sequence[int], Sequence[str]]],
    m: int,
    n: int,
) -> list[dict[int, Fraction]]:
    """Ambient delta^n rows, output tree by output tree: each block shifted
    by face * m^(n+1), the length of one input tree, and summed."""
    size = m ** (n + 1)
    rows: list[dict[int, Fraction]] = []
    for faces, ors in layout:
        tree_rows: list[dict[int, Fraction]] = [{} for _ in range(size * m)]
        for i, (f, p) in enumerate(zip(faces, ors)):
            off = f * size
            for r, row in blocks[i, p].items():
                target = tree_rows[r]
                for c, v in row.items():
                    key = c + off
                    target[key] = target[key] + v if key in target else v
        rows += [{key: v for key, v in row.items() if v} for row in tree_rows]
    return rows


def dialg_coboundary_rows(
    A: BiHomDialgebra, n: int
) -> list[dict[int, Fraction]]:
    """delta^n as linear functionals: one sparse row per output coordinate.

    Row r for output coordinate (y, b, k) satisfies
    (delta f)(y; b)_k = sum_in r[in] * f_flat[in].
    """
    return _Complex(A, TreeCochain).delta_rows(n)


def hoch_coboundary_rows(
    A: BiHomAssociativeAlgebra, n: int
) -> list[dict[int, Fraction]]:
    """Same row construction for the one-product complex."""
    return _Complex(A, HochschildCochain).delta_rows(n)


def _apply_delta(rows: list[dict[int, Fraction]], f: _Cochain) -> _Cochain:
    """delta f from the delta^n rows: one dot product per output coordinate."""
    x = f.flatten()
    coords = [sum((c * x[j] for j, c in row.items() if x[j]), ZERO) for row in rows]
    return type(f).unflatten(f.degree + 1, f.dim, coords)


def _check_kind(fn: str, X, f, structure: type, cochain: type[_Cochain]) -> None:
    if not (isinstance(X, structure) and isinstance(f, cochain)):
        raise TypeError(
            f"{fn} expects a {cochain.__name__} on a {structure.__name__}, "
            f"got a {type(f).__name__} on a {type(X).__name__}"
        )
    if f.dim != X.dim:
        raise ValueError("cochain dimension mismatch")


def dialg_coboundary(A: BiHomDialgebra, f: TreeCochain) -> TreeCochain:
    """delta f in the tree complex; output degree is f.degree + 1."""
    _check_kind("dialg_coboundary", A, f, BiHomDialgebra, TreeCochain)
    return _apply_delta(dialg_coboundary_rows(A, f.degree), f)


def hoch_coboundary(A: BiHomAssociativeAlgebra, f: HochschildCochain) -> HochschildCochain:
    """delta f in the one-product complex; output degree is f.degree + 1."""
    _check_kind("hoch_coboundary", A, f, BiHomAssociativeAlgebra, HochschildCochain)
    return _apply_delta(hoch_coboundary_rows(A, f.degree), f)


# -- twist compatibility --------------------------------------------------------


def _compat_rows(maps: Sequence[Mat], dim: int, degree: int) -> list[dict[int, Fraction]]:
    """Rows of M f(b) = f(M b) for each twist M, over one tree's coordinates."""
    m = dim
    rows: list[dict[int, Fraction]] = []
    for M in maps:
        cols = [_support(M.col(c)) for c in range(m)]
        lines = [_support(M.row(k)) for k in range(m)]
        for r, b in enumerate(iproduct(range(m), repeat=degree)):
            base = r * m
            # f(M b): the argument tuples M b expands to, with coefficients
            terms = []
            for combo in iproduct(*[cols[x] for x in b]):
                coef = ONE
                a = 0
                for ci, c in combo:
                    coef *= c
                    a = a * m + ci
                terms.append((a * m, coef))
            for k in range(m):
                # M f(b)_k - f(M b)_k
                row = {base + j: c for j, c in lines[k]}
                for a, coef in terms:
                    row[a + k] = row.get(a + k, ZERO) - coef
                row = {key: v for key, v in row.items() if v}
                if row:
                    rows.append(row)
    return rows


# -- one complex: compatible cochains, cocycles, coboundaries, cohomology -------


class _Complex:
    """The cochain complex of one structure, degree by degree, in
    compatible coordinates.

    The tree complex of a dialgebra indexes degree-n cochains by the trees
    of Y_n; the one-product complex of an algebra is its one-tree case.
    The compatible block K_n of one tree and the block tables of delta^n
    restricted to it are built once per degree and shared by every space
    asked of the complex.
    """

    def __init__(self, X: BiHomDialgebra | BiHomAssociativeAlgebra, cochain: type[_Cochain]):
        self.X = X
        self.cochain = cochain
        if cochain is TreeCochain:
            self.products = {op: X.table(op) for op in (DASHV, VDASH)}
        else:
            self.products = {"mul": X.mul}
        self._kernel: dict[int, tuple[tuple[tuple[int, Fraction], ...], ...]] = {}
        self._restricted: dict[int, tuple[dict[tuple[int, str], list[int]], list[dict]]] = {}

    def cochain_dim(self, n: int) -> int:
        """Length of a flattened degree-n cochain; there are no 0-cochains."""
        if n < 1:
            raise ValueError("degree must be >= 1")
        return self.cochain._ntrees(n) * self.X.dim ** (n + 1)

    def layout(self, n: int) -> Sequence[tuple[Sequence[int], Sequence[str]]]:
        """Per output tree of delta^n: the face and the product of each block."""
        if self.cochain is TreeCochain:
            return face_layout(n + 1)
        return (((0,) * (n + 2), ("mul",) * (n + 2)),)

    def delta_rows(self, n: int) -> list[dict[int, Fraction]]:
        self.cochain_dim(n)
        blocks = _coboundary_blocks(self.X.phi, self.X.psi, self.products, n)
        return _assemble(blocks, self.layout(n), self.X.dim, n)

    def kernel(self, n: int) -> tuple[tuple[tuple[int, Fraction], ...], ...]:
        """K_n: the canonical basis of one tree's compatible cochains, over
        its m^(n+1) local coordinates.  No compatibility row mixes trees."""
        if n not in self._kernel:
            X = self.X
            rows = _compat_rows((X.phi, X.psi), X.dim, n)
            self._kernel[n] = nullspace_rows(rows, X.dim ** (n + 1)).sparse_rows()
        return self._kernel[n]

    def restricted(self, n: int) -> tuple[dict[tuple[int, str], list[int]], list[dict]]:
        """The block tables of delta^n composed with K_n.

        Returns, per (block, product), the id of each local output row's
        restriction, and the distinct restrictions by id: a restriction
        maps row a of K_n to the row's value on it.  Id 0 is the zero row.
        """
        if n not in self._restricted:
            by_col: dict[int, list[tuple[int, Fraction]]] = {}
            for a, krow in enumerate(self.kernel(n)):
                for j, v in krow:
                    by_col.setdefault(j, []).append((a, v))
            by_row: dict[tuple, int] = {}
            by_image: dict[tuple, int] = {(): 0}
            images: list[dict[int, Fraction]] = [{}]
            ids: dict[tuple[int, str], list[int]] = {}
            blocks = _coboundary_blocks(self.X.phi, self.X.psi, self.products, n)
            for key, table in blocks.items():
                col = ids[key] = [0] * self.X.dim ** (n + 2)
                for r, row in table.items():
                    rk = tuple(row.items())
                    if rk not in by_row:
                        img: dict[int, Fraction] = {}
                        for j, x in row.items():
                            for a, v in by_col.get(j, ()):
                                img[a] = img[a] + x * v if a in img else x * v
                        img = {a: v for a, v in img.items() if v}
                        rid = by_image.setdefault(tuple(sorted(img.items())), len(images))
                        if rid == len(images):
                            images.append(img)
                        by_row[rk] = rid
                    col[r] = by_row[rk]
            self._restricted[n] = ids, images
        return self._restricted[n]

    def compatible_space(self, n: int) -> Subspace:
        """C^n: the shifted copies of K_n, one per tree, already canonical."""
        dim = self.cochain_dim(n)
        size = self.X.dim ** (n + 1)
        K = self.kernel(n)
        return Subspace._from_rref(dim, [
            {c + t * size: v for c, v in row}
            for t in range(self.cochain._ntrees(n))
            for row in K
        ])

    def cocycles(self, n: int) -> Subspace:
        """Z^n = G . ker(delta^n . G), G the canonical basis of C^n.

        delta^n . G is solved over the coordinates t * dim K_n + a of row
        a of K_n on tree t.  Output coordinates that read the same
        restrictions give the same row on every tree, so each tree
        combines one row per class of them, and only distinct rows are
        kept.  G's value at the pivot of its row c is that row's
        coefficient, so the canonical kernel lifts to canonical rows.
        """
        dim = self.cochain_dim(n)
        K = self.kernel(n)
        dK, size = len(K), self.X.dim ** (n + 1)
        ids, images = self.restricted(n)
        classes = dict.fromkeys(zip(*ids.values()))
        pos = {key: s for s, key in enumerate(ids)}
        seen: set[tuple] = set()
        rows: dict[tuple[tuple[int, Fraction], ...], None] = {}
        for faces, ors in self.layout(n):
            sel = [(pos[i, p], f * dK) for i, (f, p) in enumerate(zip(faces, ors))]
            for cls in classes:
                parts = tuple((off, cls[s]) for s, off in sel if cls[s])
                if parts in seen:
                    continue
                seen.add(parts)
                row: dict[int, Fraction] = {}
                for off, rid in parts:
                    for a, v in images[rid].items():
                        row[a + off] = row[a + off] + v if a + off in row else v
                key = tuple(sorted((c, v) for c, v in row.items() if v))
                if key:
                    rows[key] = None
        w = nullspace_rows([dict(row) for row in rows], self.cochain._ntrees(n) * dK)
        lifted = []
        for wrow in w.sparse_rows():
            acc: dict[int, Fraction] = {}
            for c, x in wrow:
                t, a = divmod(c, dK)
                for j, v in K[a]:
                    key = t * size + j
                    acc[key] = acc[key] + x * v if key in acc else x * v
            lifted.append({j: v for j, v in acc.items() if v})
        return Subspace._from_rref(dim, lifted)

    def coboundaries(self, n: int) -> Subspace:
        """B^n = delta(C^(n-1)): the restricted block tables of delta^(n-1)
        give each row of K_(n-1) pushed through each block; its image on a
        tree of G_(n-1) is those pushes shifted to every output tree whose
        block reads that tree."""
        out_dim = self.cochain_dim(n)
        if n == 1:
            return Subspace(out_dim, [])
        ids, images = self.restricted(n - 1)
        dK = len(self.kernel(n - 1))
        size = self.X.dim ** (n + 1)
        pushed = {}
        for key, col in ids.items():
            per_row: list[dict[int, Fraction]] = [{} for _ in range(dK)]
            for r, rid in enumerate(col):
                for a, v in images[rid].items():
                    per_row[a][r] = v
            pushed[key] = per_row
        reads: dict[int, list[tuple[int, list[dict[int, Fraction]]]]] = {}
        for y, (faces, ors) in enumerate(self.layout(n - 1)):
            for i, (f, p) in enumerate(zip(faces, ors)):
                reads.setdefault(f, []).append((y * size, pushed[i, p]))
        elim = _Eliminator()
        for t in range(self.cochain._ntrees(n - 1)):
            for a in range(dK):
                img: dict[int, Fraction] = {}
                for off, per_row in reads.get(t, ()):
                    for r, v in per_row[a].items():
                        img[off + r] = img[off + r] + v if off + r in img else v
                elim.add(img)
        return Subspace._from_rref(out_dim, elim.rref()[1])


def dialg_compatible_space(A: BiHomDialgebra, n: int) -> Subspace:
    """Tree cochains commuting with both twist maps, as flattened vectors."""
    return _Complex(A, TreeCochain).compatible_space(n)


def hoch_compatible_space(A: BiHomAssociativeAlgebra, n: int) -> Subspace:
    return _Complex(A, HochschildCochain).compatible_space(n)


def dialg_cocycles(A: BiHomDialgebra, n: int) -> Subspace:
    """Compatible cochains killed by delta^n."""
    return _Complex(A, TreeCochain).cocycles(n)


def hoch_cocycles(A: BiHomAssociativeAlgebra, n: int) -> Subspace:
    return _Complex(A, HochschildCochain).cocycles(n)


def dialg_coboundaries(A: BiHomDialgebra, n: int) -> Subspace:
    """delta of the compatible degree-(n-1) space; zero space at n = 1."""
    return _Complex(A, TreeCochain).coboundaries(n)


def hoch_coboundaries(A: BiHomAssociativeAlgebra, n: int) -> Subspace:
    return _Complex(A, HochschildCochain).coboundaries(n)


def cohomology_spaces(
    X: BiHomDialgebra | BiHomAssociativeAlgebra, n: int
) -> tuple[Subspace, Subspace, Subspace]:
    """(C^n, Z^n, B^n): compatible cochains, cocycles and coboundaries.

    The complex is the tree complex for a dialgebra and the one-product
    complex for an algebra.  C^n and Z^n share one set of compatibility rows.
    """
    if isinstance(X, BiHomDialgebra):
        cx = _Complex(X, TreeCochain)
    elif isinstance(X, BiHomAssociativeAlgebra):
        cx = _Complex(X, HochschildCochain)
    else:
        raise TypeError(f"expected an algebra or dialgebra, got {type(X).__name__}")
    return cx.compatible_space(n), cx.cocycles(n), cx.coboundaries(n)


@dataclass(frozen=True)
class CohomologyReport:
    degree: int
    compatible_dim: int
    cocycle_dim: int
    coboundary_dim: int
    cohomology_dim: int


def cohomology(X: BiHomDialgebra | BiHomAssociativeAlgebra, n: int) -> CohomologyReport:
    """Z^n, B^n and their difference, inside the twist-compatible subcomplex.

    B^1 is taken to be zero (there are no 0-cochains).  Raises
    ArithmeticError if the coboundary space escapes the cocycle space,
    which would mean the complex is broken for this algebra.
    """
    C, Z, B = cohomology_spaces(X, n)
    if not Z.contains_space(B):
        i, res = next((i, res) for i, r in enumerate(B.sparse_rows()) if (res := Z.residual(r)))
        coord = min(res)
        t, args, k = _decode(coord, n, X.dim)
        where = f"tree {t}, " if isinstance(X, BiHomDialgebra) else ""
        raise ArithmeticError(
            f"coboundaries escape cocycles in degree {n}: coboundary basis row {i} "
            f"has residual {res[coord]} at {where}args "
            f"({', '.join(X.basis[a] for a in args)}), output {X.basis[k]}"
        )
    return CohomologyReport(
        degree=n,
        compatible_dim=C.dim,
        cocycle_dim=Z.dim,
        coboundary_dim=B.dim,
        cohomology_dim=Z.dim - B.dim,
    )


def _decode(coord: int, n: int, m: int) -> tuple[int, tuple[int, ...], int]:
    """(tree, args, output) of a flattened degree-n cochain coordinate."""
    rest, k = divmod(coord, m)
    t, r = divmod(rest, m**n)
    args = []
    for _ in range(n):
        r, a = divmod(r, m)
        args.append(a)
    return t, tuple(reversed(args)), k


def random_compatible_cochain(
    space: Subspace, rng: random.Random, degree: int, dim: int, tree_indexed: bool
) -> TreeCochain | HochschildCochain:
    """Random integer combination of a compatible-space basis."""
    coords = [ZERO] * space.ambient_dim
    for row in space.sparse_rows():
        c = q(rng.randint(-9, 9))
        if c:
            for j, x in row:
                coords[j] += c * x
    return (TreeCochain if tree_indexed else HochschildCochain).unflatten(degree, dim, coords)


def hoch_delta_squared_is_zero(
    A: BiHomAssociativeAlgebra, n: int, trials: int, seed: int = 0
) -> bool:
    """delta(delta f) == 0 for `trials` random compatible degree-n cochains.

    The vanishing is a theorem only when the one-product axioms hold and
    the twist maps are multiplicative, so both are preconditions.
    """
    rep = check_bihom_associative(A)
    if not rep.ok:
        raise ValueError(
            f"axioms fail, first witness: {rep.violations[0].describe(A.basis)}"
        )
    if not is_multiplicative(A.as_dialgebra()):
        raise ValueError("twist maps are not multiplicative for the product")
    rng = random.Random(seed)
    space = hoch_compatible_space(A, n)
    for _ in range(trials):
        f = random_compatible_cochain(space, rng, n, A.dim, tree_indexed=False)
        if not hoch_coboundary(A, hoch_coboundary(A, f)).is_zero():
            return False
    return True
