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
built once per degree.  `dialg_coboundary`/`hoch_coboundary` apply the
block tables face by face to a cochain's support, grouped by tree; only
`*_coboundary_rows` assembles ambient rows.  The term-by-term evaluation
of the formula is kept in `tests/oracles.py` as the independent reference.

The spaces are computed in compatible coordinates.  No twist condition
mixes trees, so C^n is one kernel K_n over the m^(n+1) coordinates of a
tree, repeated per tree, and its canonical basis G is the shifted copies
of K_n's.  Each distinct block row is restricted to K_n once; combined
through the face offsets these give delta^n . G, whose distinct rows are
few.  With r_n its rank, the report takes dim Z^n = dim C^n - r_n and
dim B^n = r_(n-1) and builds no basis of Z^n.  B^n is spanned by delta
of the rows of G_(n-1) at the pivot columns of delta^(n-1) . G_(n-1), and
lies in Z^n exactly when each of those images lies in C^n, tree by tree,
and is killed by delta^n . G.  The canonical Z^n is G . ker(delta^n . G):
G's rows have unit pivots no other row touches, so reduced rows lift to
reduced rows.  Nothing is eliminated over all of a degree's coordinates;
`tests/oracles.py` keeps that route as the reference.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iproduct
from typing import Callable, Mapping, Sequence

from bihom.algebra import (
    BiHomAssociativeAlgebra,
    BiHomDialgebra,
    Table,
    Vec,
    apply_table,
    check_bihom_associative,
    is_multiplicative,
    is_zero_vec,
    vec_add,
    zero_vec,
)
from bihom.scalars import Mat, ONE, ZERO, Subspace, _Eliminator, nullspace_rows, q, rank_rows
from bihom.trees import DASHV, VDASH, Tree, face_layout, tree_index, trees


def _args_rank(args: Sequence[int], dim: int) -> int:
    r = 0
    for a in args:
        r = r * dim + a
    return r


def _contract(entries, vecs: Sequence[Vec], dim: int) -> Vec:
    """sum of prod_pos vecs[pos][args[pos]] * value over (args, value) entries."""
    out = [ZERO] * dim
    for args, val in entries:
        coef = ONE
        for pos, a in enumerate(args):
            c = vecs[pos][a]
            if not c:
                break
            coef *= c
        else:
            for k, v in enumerate(val):
                if v:
                    out[k] += coef * v
    return tuple(out)


class _Cochain:
    """Shared body of both cochain kinds: an immutable degree-n multilinear
    map, stored sparsely as {key: value vector} with zero values dropped.

    A `TreeCochain` is keyed by (tree index, args); a `HochschildCochain`
    is the one-tree case and is keyed by args alone.  The support is also
    kept grouped by tree: `groups[t]` lists tree t's (args, value) pairs
    in `data`'s order, so evaluating on a tree reads only its entries.
    """

    __slots__ = ("degree", "dim", "data", "groups")
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
        groups: list[list] = [[] for _ in range(ntrees)]  # not a tuple: CPython keeps freed short tuples
        for key, v in clean.items():
            t, args = key if tree_keyed else (0, key)
            groups[t].append((args, v))
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "data", clean)
        object.__setattr__(self, "groups", groups)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def _ntrees(cls, degree: int) -> int:
        return len(trees(degree)) if cls._tree_keyed else 1

    def _entries(self, t: int, args: Sequence, bad) -> list:
        """Tree t's entries, once t, the argument count and every argument pass; bad(x) names a fault."""
        if not 0 <= t < len(self.groups):
            raise ValueError(f"tree index {t} out of range 0..{len(self.groups) - 1} for degree {self.degree}")
        if len(args) != self.degree:
            raise ValueError(f"argument count mismatch: {len(args)} arguments for degree {self.degree}")
        for pos, x in enumerate(args):
            if bad(x):
                raise ValueError(f"argument {pos} {bad(x)}")
        return self.groups[t]

    def value(self, t: int, args: Sequence[int]) -> Vec:
        """f(e_args) on tree t; the one-product cochain takes args alone."""
        args = tuple(args)
        self._entries(t, args, lambda a: not 0 <= a < self.dim and f"is {a}, out of range 0..{self.dim - 1}")
        return self.data.get((t, args) if self._tree_keyed else args, zero_vec(self.dim))

    def _eval(self, t: int, vecs: Sequence[Vec]) -> Vec:
        """Multilinear extension on tree t, over that tree's entries only."""
        bad = lambda v: len(v) != self.dim and f"has length {len(v)}, not {self.dim}"  # noqa: E731
        return _contract(self._entries(t, vecs, bad), vecs, self.dim)

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

    def eval(self, tree: Tree | int, vecs: Sequence[Vec]) -> Vec:
        """Multilinear extension on one tree, given as a Tree or its index."""
        if isinstance(tree, Tree):
            if tree.n_internal != self.degree:
                raise ValueError(f"tree has {tree.n_internal} internal nodes, degree is {self.degree}")
            tree = tree_index(tree)
        return self._eval(tree, vecs)


class HochschildCochain(_Cochain):
    """Degree-n multilinear map A^n -> A for the one-product complex, keyed by args."""

    __slots__ = ()

    def value(self, args: tuple[int, ...]) -> Vec:
        return super().value(0, args)

    def eval(self, vecs: Sequence[Vec]) -> Vec:
        return self._eval(0, vecs)


def tree_cochain_dim(degree: int, dim: int) -> int:
    return len(trees(degree)) * dim**degree * dim


def hochschild_cochain_dim(degree: int, dim: int) -> int:
    return dim**degree * dim


# -- the coboundary as block tables, and its ambient rows -----------------------


def _expand_product(table: Table, u: Vec, m: int) -> list[tuple[int, Vec]]:
    """Nonzero columns [u * e_j] as (j, column) pairs; on the transposed
    table, those of [e_j * u]."""
    cols = [(j, [ZERO] * m) for j in range(m)]
    for p, up in enumerate(u):
        for j, col in cols if up else ():
            for k, c in enumerate(table[p][j]):
                if c:
                    col[k] += up * c
    return [(j, tuple(col)) for j, col in cols if any(col)]


def _support(v: Vec) -> list[tuple[int, Fraction]]:
    return [(i, c) for i, c in enumerate(v) if c]


def _expand(supports: Sequence[list], m: int, coef: Fraction) -> list[tuple[int, Fraction]]:
    """(rank * m, coef * coefficient) of each argument tuple the supports expand to."""
    terms = []
    for combo in iproduct(*supports):
        c, a = coef, 0
        for ci, x in combo:
            c *= x
            a = a * m + ci
        terms.append((a * m, c))
    return terms


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
    Only argument tuples that give a nonzero row are visited, in ascending order.
    """
    m = phi.rows
    P = phi.power(n - 1)
    Q = psi.power(n - 1)
    phi_sup = [_support(phi.col(j)) for j in range(m)]
    psi_sup = [_support(psi.col(j)) for j in range(m)]
    phi_live = [x for x in range(m) if phi_sup[x]]
    psi_live = [x for x in range(m) if psi_sup[x]]
    last_sign = -1 if (n + 1) % 2 else 1
    signs = [q(-1 if i % 2 else 1) for i in range(n + 1)]
    size = m**n

    def outer(expansions, first):
        # the first or last block: rows (b, k) of f on the other n arguments
        # (rank s) with argument x multiplied in
        rows: dict[int, dict[int, Fraction]] = {}
        live = [x for x in range(m) if expansions[x]]
        pairs = iproduct(live, range(size)) if first else ((x, s) for s in range(size) for x in live)
        for x, s in pairs:
            r = x * size + s if first else s * m + x
            for j, col in expansions[x]:
                for k, c in col:
                    rows.setdefault(r * m + k, {})[s * m + j] = c
        return rows

    tables: dict[tuple[int, str], dict[int, dict[int, Fraction]]] = {}
    for name, table in products.items():
        cells = [[_support(cell) for cell in line] for line in table]
        left = [
            [(j, _support(col)) for j, col in _expand_product(table, P.col(x), m)]
            for x in range(m)
        ]
        transposed = list(zip(*table))
        right = [
            [
                (j, [(k, last_sign * c) for k, c in _support(col)])
                for j, col in _expand_product(transposed, Q.col(x), m)
            ]
            for x in range(m)
        ]
        live_cells = [(x, y, cell) for x, line in enumerate(cells) for y, cell in enumerate(line) if cell]
        tables[0, name] = outer(left, True)
        for i in range(1, n + 1):
            rows = {}
            spans = iproduct(iproduct(phi_live, repeat=i - 1), live_cells, iproduct(psi_live, repeat=n - i))
            for pre, (x, y, cell), suf in spans:
                vecs = [phi_sup[z] for z in pre] + [cell] + [psi_sup[z] for z in suf]
                terms = _expand(vecs, m, signs[i])  # distinct combos give distinct tuples
                r = _args_rank(pre + (x, y) + suf, m)
                for k in range(m):
                    rows[r * m + k] = {a + k: c for a, c in terms}
            tables[i, name] = rows
        tables[n + 1, name] = outer(right, False)
    return tables


def dialg_coboundary_rows(A: BiHomDialgebra, n: int) -> list[dict[int, Fraction]]:
    """delta^n as linear functionals: one sparse row per output coordinate.

    Row r for output coordinate (y, b, k) satisfies
    (delta f)(y; b)_k = sum_in r[in] * f_flat[in].
    """
    return _Complex(A, TreeCochain).delta_rows(n)


def hoch_coboundary_rows(A: BiHomAssociativeAlgebra, n: int) -> list[dict[int, Fraction]]:
    """Same row construction for the one-product complex."""
    return _Complex(A, HochschildCochain).delta_rows(n)


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
    return _Complex(A, TreeCochain).apply_delta(f)


def hoch_coboundary(A: BiHomAssociativeAlgebra, f: HochschildCochain) -> HochschildCochain:
    """delta f in the one-product complex; output degree is f.degree + 1."""
    _check_kind("hoch_coboundary", A, f, BiHomAssociativeAlgebra, HochschildCochain)
    return _Complex(A, HochschildCochain).apply_delta(f)


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
            terms = _expand([cols[x] for x in b], m, ONE)
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
        self._cocycle_test: dict[int, tuple[list[dict], Callable[[dict[int, Fraction]], bool]]] = {}

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
        """Ambient delta^n rows, output tree by output tree: each block
        shifted by face * m^(n+1), the length of one input tree, and summed."""
        size = self.cochain_dim(n) // self.cochain._ntrees(n)  # one input tree
        blocks = _coboundary_blocks(self.X.phi, self.X.psi, self.products, n)
        rows: list[dict[int, Fraction]] = []
        for faces, ors in self.layout(n):
            tree_rows: list[dict[int, Fraction]] = [{} for _ in range(size * self.X.dim)]
            for i, (f, p) in enumerate(zip(faces, ors)):
                off = f * size
                for r, row in blocks[i, p].items():
                    target = tree_rows[r]
                    for c, v in row.items():
                        key = c + off
                        target[key] = target[key] + v if key in target else v
            rows += [{key: v for key, v in row.items() if v} for row in tree_rows]
        return rows

    def apply_delta(self, f: _Cochain) -> _Cochain:
        """delta f from the block tables, face by face: on output tree y,
        block i taken with y's product i reads f's entries on face i of y.
        Each block's image of one tree of f is computed once."""
        n, m = f.degree, self.X.dim
        blocks = _coboundary_blocks(self.X.phi, self.X.psi, self.products, n)
        local = [
            {_args_rank(args, m) * m + k: v for args, val in group for k, v in enumerate(val) if v}
            for group in f.groups
        ]
        arg_tuples = list(iproduct(range(m), repeat=n + 1))
        data: dict = {}
        images: dict[tuple[int, str, int], list[tuple[int, Fraction]]] = {}
        for y, (faces, ors) in enumerate(self.layout(n)):
            acc: dict[int, Fraction] = {}
            for i, (t, p) in enumerate(zip(faces, ors)):
                if (i, p, t) not in images:
                    x = local[t]
                    dots = ((r, sum(c * x[j] for j, c in row.items() if j in x)) for r, row in blocks[i, p].items())
                    images[i, p, t] = [(r, s) for r, s in dots if s] if x else []
                for r, s in images[i, p, t]:
                    acc[r] = acc[r] + s if r in acc else s
            for r in sorted(acc):
                b, k = divmod(r, m)
                key = (y, arg_tuples[b]) if self.cochain._tree_keyed else arg_tuples[b]
                data.setdefault(key, [ZERO] * m)[k] = acc[r]
        return self.cochain(n + 1, m, data)

    def kernel(self, n: int) -> tuple[tuple[tuple[int, Fraction], ...], ...]:
        """K_n: the canonical basis of one tree's compatible cochains, over
        its m^(n+1) local coordinates.  No compatibility row mixes trees,
        and equal twists give their rows once."""
        if n not in self._kernel:
            X = self.X
            rows = _compat_rows((X.phi,) if X.phi == X.psi else (X.phi, X.psi), X.dim, n)
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

    def delta_g(self, n: int) -> list[dict[int, Fraction]]:
        """The distinct nonzero rows of delta^n . G, G the canonical basis of
        C^n, over the coordinates t * dim K_n + a of row a of K_n on tree t.
        Output coordinates that read the same restrictions give the same row
        on every tree, so each tree combines one row per class of them."""
        dK = len(self.kernel(n))
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
        return [dict(row) for row in rows]

    def cocycles(self, n: int) -> Subspace:
        """Z^n = G . ker(delta^n . G), lifted row by row; see the module notes."""
        dim, K = self.cochain_dim(n), self.kernel(n)
        dK, size = len(K), self.X.dim ** (n + 1)
        w = nullspace_rows(self.delta_g(n), self.cochain._ntrees(n) * dK)
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

    def images(self, n: int) -> list[dict[int, Fraction]]:
        """A basis of B^n: delta of the rows of G_(n-1) at the pivot columns
        of delta^(n-1) . G_(n-1), which row operations keep independent and
        spanning.  Row a of K_(n-1) on tree t is pushed through the restricted
        block tables and shifted to every output tree whose block reads t."""
        if n == 1:
            return []
        elim = _Eliminator()
        elim.add_many(self.delta_g(n - 1))
        ids, images = self.restricted(n - 1)
        dK, size = len(self.kernel(n - 1)), self.X.dim ** (n + 1)
        picked = [divmod(c, dK) for c in sorted(elim.pivots)]
        wanted = {a for _, a in picked}
        kept = [[(a, v) for a, v in img.items() if a in wanted] for img in images]
        pushed = {key: {a: {} for a in wanted} for key in ids}
        for key, col in ids.items():
            for r, rid in enumerate(col):
                for a, v in kept[rid]:
                    pushed[key][a][r] = v
        out: dict[tuple[int, int], dict[int, Fraction]] = {ta: {} for ta in picked}
        for y, (faces, ors) in enumerate(self.layout(n - 1)):
            for i, (t, p) in enumerate(zip(faces, ors)):
                for a, per_row in pushed[i, p].items():
                    img = out.get((t, a))
                    for r, v in per_row.items() if img is not None else ():
                        r += y * size
                        img[r] = img[r] + v if r in img else v
        return [{c: v for c, v in img.items() if v} for img in out.values()]

    def coboundaries(self, n: int) -> Subspace:
        """B^n, the canonical form of `images`; the zero space at n = 1."""
        dim = self.cochain_dim(n)
        elim = _Eliminator()
        elim.add_many(self.images(n))
        return Subspace._from_rref(dim, elim.rref()[1])

    def cocycle_test(self, n: int) -> tuple[list[dict], Callable[[dict[int, Fraction]], bool]]:
        """delta^n . G, and the membership test of Z^n built on it, once per
        degree.  The test takes a degree-n cochain by its nonzero ambient
        coordinates: it is a cocycle when it lies in K_n's span on every
        tree and its G-coordinates, read at K_n's pivots, are killed by
        delta^n . G."""
        if n in self._cocycle_test:
            return self._cocycle_test[n]
        K, size, rows = self.kernel(n), self.X.dim ** (n + 1), self.delta_g(n)
        span, at = Subspace._from_rref(size, map(dict, K)), {row[0][0]: a for a, row in enumerate(K)}
        by_col: dict[int, list[tuple[int, Fraction]]] = {}
        for i, row in enumerate(rows):
            for c, v in row.items():
                by_col.setdefault(c, []).append((i, v))

        def killed(img: dict[int, Fraction]) -> bool:
            local: dict[int, dict[int, Fraction]] = {}
            for c, v in img.items():
                local.setdefault(c // size, {})[c % size] = v
            acc: dict[int, Fraction] = {}
            for t, x in local.items():
                if span.residual(x.items()):
                    return False
                for j, w in x.items():
                    for i, v in by_col.get(t * len(K) + at[j], ()) if j in at else ():
                        acc[i] = acc[i] + w * v if i in acc else w * v
            return not any(acc.values())

        self._cocycle_test[n] = rows, killed
        return rows, killed

    def report(self, n: int) -> CohomologyReport:
        """Dimensions from ranks, r_k the rank of delta^k . G_k: dim C^n is
        |Y_n| dim K_n, dim Z^n = dim C^n - r_n and dim B^n = r_(n-1).  B^n
        lies in Z^n when `cocycle_test` accepts each of its basis images."""
        self.cochain_dim(n)  # refuses n < 1 before any kernel work
        rows, killed = self.cocycle_test(n)
        B = self.images(n)
        contained = all(map(killed, B))
        dim_z = (dim_c := self.cochain._ntrees(n) * len(self.kernel(n))) - rank_rows(rows)
        return CohomologyReport(n, dim_c, dim_z, len(B), dim_z - len(B) if contained else None, contained)


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


def _complex_of(X: BiHomDialgebra | BiHomAssociativeAlgebra) -> _Complex:
    if isinstance(X, BiHomDialgebra):
        return _Complex(X, TreeCochain)
    if isinstance(X, BiHomAssociativeAlgebra):
        return _Complex(X, HochschildCochain)
    raise TypeError(f"expected an algebra or dialgebra, got {type(X).__name__}")


def cohomology_spaces(
    X: BiHomDialgebra | BiHomAssociativeAlgebra, n: int
) -> tuple[Subspace, Subspace, Subspace]:
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


def cohomology(X: BiHomDialgebra | BiHomAssociativeAlgebra, n: int) -> CohomologyReport:
    """Z^n, B^n and their difference, inside the twist-compatible subcomplex.

    B^1 is taken to be zero (there are no 0-cochains).  Raises
    ArithmeticError if the coboundary space escapes the cocycle space,
    which would mean the complex is broken for this algebra.
    """
    rep = cohomology_report(X, n)
    if not rep.contained:
        _, Z, B = cohomology_spaces(X, n)
        i, res = next((i, res) for i, r in enumerate(B.sparse_rows()) if (res := Z.residual(r)))
        coord = min(res)
        t, args, k = _decode(coord, n, X.dim)
        where = f"tree {t}, " if isinstance(X, BiHomDialgebra) else ""
        raise ArithmeticError(
            f"coboundaries escape cocycles in degree {n}: coboundary basis row {i} "
            f"has residual {res[coord]} at {where}args "
            f"({', '.join(X.basis[a] for a in args)}), output {X.basis[k]}"
        )
    return rep


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
    if not is_multiplicative(A.as_dialgebra()).ok:
        raise ValueError("twist maps are not multiplicative for the product")
    rng = random.Random(seed)
    space = hoch_compatible_space(A, n)
    for _ in range(trials):
        f = random_compatible_cochain(space, rng, n, A.dim, tree_indexed=False)
        if not hoch_coboundary(A, hoch_coboundary(A, f)).is_zero():
            return False
    return True
