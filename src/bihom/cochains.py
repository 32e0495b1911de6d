"""Cochains: the multilinear maps the complex, the operad and deformations share.

A degree-n cochain of a `BiHomDialgebra` is a multilinear map Y_n x A^n
-> A, Y_n the planar binary trees of the degree (`TreeCochain`); in the
one-product complex of a `BiHomAssociativeAlgebra` it is a map A^n -> A,
the one-tree case (`HochschildCochain`).  The coboundary of
`bihom.cohomology` acts on them, `bihom.operad` composes them, and the
terms of a `bihom.deformation` are arity-2 ones.

Every value is exact.  A degree-n cochain over a dim-m algebra flattens
to a vector of length |Y_n| * m^n * m: tree index outer, then the
argument multi-index row-major (`_args_rank`), then the output
coordinate; |Y_n| is 1 in the one-product complex.  `_decode` reads a
flat coordinate back.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Mapping, Sequence

from bihom.algebra import Vec, vec_add, zero_vec
from bihom.scalars import ONE, ZERO, Subspace, q
from bihom.trees import Tree, tree_index, trees


def _args_rank(args: Sequence[int], dim: int) -> int:
    r = 0
    for a in args:
        r = r * dim + a
    return r


def _decode(coord: int, n: int, m: int) -> tuple[int, tuple[int, ...], int]:
    """(tree, args, output) of a flattened degree-n cochain coordinate."""
    rest, k = divmod(coord, m)
    t, r = divmod(rest, m**n)
    return t, tuple(r // m**i % m for i in reversed(range(n))), k


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


def _by_tree(data: Mapping, degree: int):
    """Data keyed by (tree, args) of degree n, as each tree of Y_n's (args, value) pairs in data's order."""
    groups = [[] for _ in range(len(trees(degree)))]  # a list, not a tuple: CPython keeps freed short tuples
    for (t, args), v in data.items():
        groups[t].append((args, v))
    return groups


class _Cochain:
    """Shared body of both cochain kinds: an immutable degree-n multilinear
    map, stored sparsely as {key: value vector} with zero values dropped.

    A `TreeCochain` is keyed by (tree index, args); a `HochschildCochain`
    is the one-tree case and is keyed by args alone.  The support is also
    kept grouped by tree: `groups[t]` lists tree t's (args, value) pairs
    in `data`'s order, so evaluating on a tree reads only its entries.
    The constructor checks every key and value; `_trusted` checks nothing,
    and only builds what compositions, delta f and the residuals compute.
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
            clean[key] = v
        self._fill(degree, dim, clean)

    @classmethod
    def _trusted(cls, degree: int, dim: int, data: dict) -> _Cochain:
        """From well-formed tuple keys and tuples of Fractions, unchecked."""
        self = object.__new__(cls)
        self._fill(degree, dim, data)
        return self

    def _fill(self, degree: int, dim: int, data: dict) -> None:
        clean = {key: v for key, v in data.items() if any(v)}
        groups = _by_tree(clean, degree) if self._tree_keyed else [list(clean.items())]
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
        if type(other) is not type(self):
            raise TypeError(f"cannot add a {type(other).__name__} to a {type(self).__name__}")
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
        if len(coords) != cls._ntrees(degree) * dim**degree * dim:
            raise ValueError("coordinate length mismatch")
        data = {}
        for c, x in enumerate(coords):
            if x:
                t, args, k = _decode(c, degree, dim)
                data.setdefault((t, args) if cls._tree_keyed else args, [ZERO] * dim)[k] = x
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


def _check_kind(fn: str, X, f, structure: type, cochain: type[_Cochain]) -> None:
    if not (isinstance(X, structure) and isinstance(f, cochain)):
        raise TypeError(
            f"{fn} expects a {cochain.__name__} on a {structure.__name__}, "
            f"got a {type(f).__name__} on a {type(X).__name__}"
        )
    if f.dim != X.dim:
        raise ValueError("cochain dimension mismatch")


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
