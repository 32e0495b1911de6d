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
coordinate; |Y_n| is 1 in the one-product complex).  The coboundary is
realised only as sparse rows over those coordinates: the spaces hand
them to the sparse eliminator, and `dialg_coboundary`/`hoch_coboundary`
apply them to one cochain.  The term-by-term evaluation of the formula
is kept in `tests/oracles.py` as the independent reference.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iproduct
from typing import Iterable, Mapping, Sequence

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
from bihom.trees import DASHV, VDASH, Tree, face, orientations, tree_index, trees


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


def _coboundary_rows(
    phi: Mat,
    psi: Mat,
    products: Mapping[str, Table],
    n: int,
    layout: Iterable[tuple[Sequence[int], Sequence[str]]],
) -> list[dict[int, Fraction]]:
    """delta^n rows for both complexes.

    `layout` gives, per output tree in tree order, the face index and the
    product name of each of the n + 2 blocks; the one-product complex is
    one tree whose faces are all tree 0.  Everything that depends only on
    a basis index or a product (twist column supports, product cells, the
    expansions of P e_j and Q e_j through each product) is tabulated once.
    """
    m = phi.rows
    size = m**n
    P = phi.power(n - 1)
    Q = psi.power(n - 1)
    basis = [tuple(ONE if s == j else ZERO for s in range(m)) for j in range(m)]
    phi_sup = [_support(phi.col(j)) for j in range(m)]
    psi_sup = [_support(psi.col(j)) for j in range(m)]
    last_sign = -1 if (n + 1) % 2 else 1
    cells, left, right = {}, {}, {}
    for name, table in products.items():
        cells[name] = [[_support(cell) for cell in line] for line in table]
        left[name] = [
            [(j, _support(col)) for j, col in _expand_product(table, P.apply(e), m)]
            for e in basis
        ]
        transposed = list(zip(*table))
        right[name] = [
            [
                (j, [(k, last_sign * c) for k, c in _support(col)])
                for j, col in _expand_product(transposed, Q.apply(e), m)
            ]
            for e in basis
        ]
    signs = [q(-1 if i % 2 else 1) for i in range(n + 1)]

    rows: list[dict[int, Fraction]] = []
    for face_idx, ors in layout:
        for b in iproduct(range(m), repeat=n + 1):
            out_rows: list[dict[int, Fraction]] = [dict() for _ in range(m)]

            base = (face_idx[0] * size + _args_rank(b[1:], m)) * m
            for j, col in left[ors[0]][b[0]]:
                key = base + j
                for k, c in col:
                    out_rows[k][key] = out_rows[k].get(key, ZERO) + c

            for i in range(1, n + 1):
                vecs = [phi_sup[b[s]] for s in range(i - 1)]
                vecs.append(cells[ors[i]][b[i - 1]][b[i]])
                vecs += [psi_sup[b[s]] for s in range(i + 1, n + 1)]
                tbase = face_idx[i] * size
                for combo in iproduct(*vecs):
                    coef = signs[i]
                    r = 0
                    for ci, c in combo:
                        coef *= c
                        r = r * m + ci
                    base = (tbase + r) * m
                    for k in range(m):
                        key = base + k
                        out_rows[k][key] = out_rows[k].get(key, ZERO) + coef

            base = (face_idx[n + 1] * size + _args_rank(b[:-1], m)) * m
            for j, col in right[ors[n + 1]][b[n]]:
                key = base + j
                for k, c in col:
                    out_rows[k][key] = out_rows[k].get(key, ZERO) + c

            for k in range(m):
                rows.append({key: v for key, v in out_rows[k].items() if v})
    return rows


def dialg_coboundary_rows(
    A: BiHomDialgebra, n: int
) -> list[dict[int, Fraction]]:
    """delta^n as linear functionals: one sparse row per output coordinate.

    Row r for output coordinate (y, b, k) satisfies
    (delta f)(y; b)_k = sum_in r[in] * f_flat[in].
    """
    layout = [
        ([tree_index(face(y, i)) for i in range(n + 2)], orientations(y))
        for y in trees(n + 1)
    ]
    products = {op: A.table(op) for op in (DASHV, VDASH)}
    return _coboundary_rows(A.phi, A.psi, products, n, layout)


def hoch_coboundary_rows(
    A: BiHomAssociativeAlgebra, n: int
) -> list[dict[int, Fraction]]:
    """Same row construction for the one-product complex."""
    layout = [([0] * (n + 2), ["mul"] * (n + 2))]
    return _coboundary_rows(A.phi, A.psi, {"mul": A.mul}, n, layout)


def _apply_delta(rows: list[dict[int, Fraction]], f: _Cochain) -> _Cochain:
    """delta f from the delta^n rows: one dot product per output coordinate."""
    x = f.flatten()
    coords = [sum((c * x[j] for j, c in row.items() if x[j]), ZERO) for row in rows]
    return type(f).unflatten(f.degree + 1, f.dim, coords)


def dialg_coboundary(A: BiHomDialgebra, f: TreeCochain) -> TreeCochain:
    """delta f in the tree complex; output degree is f.degree + 1."""
    if f.dim != A.dim:
        raise ValueError("cochain dimension mismatch")
    return _apply_delta(dialg_coboundary_rows(A, f.degree), f)


def hoch_coboundary(A: BiHomAssociativeAlgebra, f: HochschildCochain) -> HochschildCochain:
    """delta f in the one-product complex; output degree is f.degree + 1."""
    if f.dim != A.dim:
        raise ValueError("cochain dimension mismatch")
    return _apply_delta(hoch_coboundary_rows(A, f.degree), f)


# -- twist compatibility --------------------------------------------------------


def _compat_rows(
    maps: Sequence[Mat], dim: int, degree: int, ntrees: int
) -> list[dict[int, Fraction]]:
    m = dim
    rows: list[dict[int, Fraction]] = []
    size = m**degree
    for M in maps:
        cols = [ _support(tuple(M[r, c] for r in range(m))) for c in range(m) ]
        for t in range(ntrees):
            for b in iproduct(range(m), repeat=degree):
                for k in range(m):
                    row: dict[int, Fraction] = {}
                    # phi(f(t; b))_k
                    for j in range(m):
                        c = M[k, j]
                        if c:
                            key = (t * size + _args_rank(b, m)) * m + j
                            row[key] = row.get(key, ZERO) + c
                    # - f(t; phi b)_k
                    for combo in iproduct(*[cols[bi] for bi in b]):
                        coef = ONE
                        for _, c in combo:
                            coef *= c
                        args = tuple(ci for ci, _ in combo)
                        key = (t * size + _args_rank(args, m)) * m + k
                        row[key] = row.get(key, ZERO) - coef
                    if any(v for v in row.values()):
                        rows.append({kk: v for kk, v in row.items() if v})
    return rows


# -- one complex: compatible cochains, cocycles, coboundaries, cohomology -------


class _Complex:
    """The cochain complex of one structure, degree by degree.

    The tree complex of a dialgebra indexes degree-n cochains by the trees
    of Y_n; the one-product complex of an algebra is its one-tree case.
    Compatibility rows are built once per degree and shared by every space
    asked of the same description.
    """

    def __init__(self, X: BiHomDialgebra | BiHomAssociativeAlgebra, cochain: type[_Cochain]):
        self.X = X
        self.cochain = cochain
        self._compat: dict[int, list[dict[int, Fraction]]] = {}

    def cochain_dim(self, n: int) -> int:
        """Length of a flattened degree-n cochain; there are no 0-cochains."""
        if n < 1:
            raise ValueError("degree must be >= 1")
        return self.cochain._ntrees(n) * self.X.dim ** (n + 1)

    def compat_rows(self, n: int) -> list[dict[int, Fraction]]:
        if n not in self._compat:
            X = self.X
            self._compat[n] = _compat_rows((X.phi, X.psi), X.dim, n, self.cochain._ntrees(n))
        return self._compat[n]

    def delta_rows(self, n: int) -> list[dict[int, Fraction]]:
        rows = dialg_coboundary_rows if self.cochain is TreeCochain else hoch_coboundary_rows
        return rows(self.X, n)

    def compatible_space(self, n: int) -> Subspace:
        dim = self.cochain_dim(n)
        return nullspace_rows(self.compat_rows(n), dim)

    def cocycles(self, n: int) -> Subspace:
        dim = self.cochain_dim(n)
        return nullspace_rows(self.compat_rows(n) + self.delta_rows(n), dim)

    def coboundaries(self, n: int) -> Subspace:
        out_dim = self.cochain_dim(n)
        if n == 1:
            return Subspace(out_dim, [])
        return _image_space(self.compatible_space(n - 1), self.delta_rows(n - 1), out_dim)


def _image_space(
    space: Subspace,
    delta_rows: list[dict[int, Fraction]],
    out_dim: int,
) -> Subspace:
    """delta(space), with the delta rows indexed once by input coordinate."""
    by_input: dict[int, list[tuple[int, Fraction]]] = {}
    for out_idx, row in enumerate(delta_rows):
        for in_idx, c in row.items():
            by_input.setdefault(in_idx, []).append((out_idx, c))
    elim = _Eliminator()
    for g in space.sparse_rows():
        img: dict[int, Fraction] = {}
        for in_idx, gi in g:
            for out_idx, c in by_input.get(in_idx, ()):
                img[out_idx] = img.get(out_idx, ZERO) + c * gi
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
