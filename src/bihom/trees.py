"""Planar binary trees, face maps, and leaf-interval retractions.

Trees index the components of the dialgebra cochain complex: a cochain
of degree n carries one multilinear map per tree with n leaves, and the
coboundary mixes neighbouring degrees through face maps (delete a leaf,
contract its parent edge) and products chosen by leaf orientation.

Conventions fixed here and relied on everywhere else:

* ``trees(n)`` enumerates by left-subtree size ascending, recursively,
  so ``trees(2) == [graft(LEAF, trees(1)[0]), graft(trees(1)[0], LEAF)]``.
* Leaves are numbered left to right starting at 0; a tree with n
  internal nodes has n + 1 leaves.
* ``orientations(t)`` assigns each leaf one of the two products:
  leaf 0 takes "dashv" exactly when the root's left child is a leaf,
  the last leaf takes "vdash" exactly when the root's right child is a
  leaf, and an interior leaf takes "dashv" exactly when it is the left
  child of its parent.  The boundary rules mirror each other so that
  delta f(x, y) on (.,(.,.)) is x -| f(y) - f(x -| y) + f(x) -| y, the
  derivation rule of -|, and delta is the bracket with pi.
"""

from __future__ import annotations

from functools import lru_cache

DASHV = "dashv"  # x -| y
VDASH = "vdash"  # x |- y
PRODUCT_FOR_TREE = (DASHV, VDASH)  # product carried by each tree of an arity-2 cochain, in trees(2) order


class Tree:
    """Immutable planar binary tree; leaves are the LEAF singleton."""

    __slots__ = ("left", "right", "n_leaves", "_hash")

    def __init__(self, left: Tree | None, right: Tree | None):
        if (left is None) != (right is None):
            raise ValueError("a node needs both children")
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)
        if left is None:
            object.__setattr__(self, "n_leaves", 1)
        else:
            object.__setattr__(self, "n_leaves", left.n_leaves + right.n_leaves)
        object.__setattr__(
            self,
            "_hash",
            hash((None, None)) if left is None else hash((left._hash, right._hash)),
        )

    def __setattr__(self, name, value):
        raise AttributeError("Tree is immutable")

    @property
    def is_leaf(self) -> bool:
        return self.left is None

    @property
    def n_internal(self) -> int:
        return self.n_leaves - 1

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, Tree):
            return NotImplemented
        if self.is_leaf or other.is_leaf:
            return self.is_leaf and other.is_leaf
        return self.left == other.left and self.right == other.right

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Tree({to_paren(self)!r})"


LEAF = Tree(None, None)


def graft(left: Tree, right: Tree) -> Tree:
    """Join two trees under a new root."""
    return Tree(left, right)


@lru_cache(maxsize=None)
def trees(n: int) -> tuple[Tree, ...]:
    """All planar binary trees with n internal nodes, in the fixed order."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return (LEAF,)
    out: list[Tree] = []
    for k in range(n):
        for l in trees(k):
            for r in trees(n - 1 - k):
                out.append(graft(l, r))
    return tuple(out)


@lru_cache(maxsize=None)
def _index_table(n: int) -> dict[Tree, int]:
    return {t: i for i, t in enumerate(trees(n))}


def tree_index(t: Tree) -> int:
    """Position of t inside trees(t.n_internal), read from one cached
    table per degree."""
    return _index_table(t.n_internal)[t]


@lru_cache(maxsize=None)
def face_layout(n: int) -> tuple[tuple[tuple[int, ...], tuple[str, ...]], ...]:
    """Per tree of trees(n), in order: the positions in trees(n - 1) of its
    n + 1 faces (face i deletes leaf i), and its leaf orientations."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return tuple(
        (tuple(tree_index(face(y, i)) for i in range(n + 1)), orientations(y))
        for y in trees(n)
    )


@lru_cache(maxsize=None)
def retraction_layout(parts: tuple[int, ...], filled: tuple[bool, ...]) -> tuple[tuple[int, tuple[int | None, ...]], ...]:
    """Per tree y of trees(sum(parts)): the index of R0 y, and of R_(j+1) y per slot j filled, else None."""
    return tuple(
        (tree_index(r0(y, parts)), tuple(tree_index(ri(y, parts, j + 1)) if f else None for j, f in enumerate(filled)))
        for y in trees(sum(parts))
    )


def to_paren(t: Tree) -> str:
    """Serialise as nested parens with '.' leaves, e.g. '(.,(.,.))'."""
    if t.is_leaf:
        return "."
    return f"({to_paren(t.left)},{to_paren(t.right)})"


def from_paren(s: str) -> Tree:
    """Inverse of to_paren; raises ValueError on malformed input."""
    pos = 0

    def parse() -> Tree:
        nonlocal pos
        if pos >= len(s):
            raise ValueError("unexpected end of tree string")
        if s[pos] == ".":
            pos += 1
            return LEAF
        if s[pos] != "(":
            raise ValueError(f"expected '.' or '(' at position {pos}")
        pos += 1
        left = parse()
        if pos >= len(s) or s[pos] != ",":
            raise ValueError(f"expected ',' at position {pos}")
        pos += 1
        right = parse()
        if pos >= len(s) or s[pos] != ")":
            raise ValueError(f"expected ')' at position {pos}")
        pos += 1
        return graft(left, right)

    t = parse()
    if pos != len(s):
        raise ValueError(f"trailing input at position {pos}")
    return t


def orientations(t: Tree) -> tuple[str, ...]:
    """Product choice per leaf, one of DASHV / VDASH.

    The two boundary leaves look at the root's children, by mirror rules
    that make delta the bracket with pi (see the module notes); the
    interior leaves look at which side of their parent they hang from.
    """
    if t.is_leaf:
        raise ValueError("a bare leaf carries no product")
    m = t.n_leaves
    out = [""] * m

    def walk(u: Tree, offset: int) -> None:
        if u.is_leaf:
            return
        lsize = u.left.n_leaves
        if u.left.is_leaf:
            out[offset] = DASHV
        if u.right.is_leaf:
            out[offset + lsize] = VDASH
        walk(u.left, offset)
        walk(u.right, offset + lsize)

    walk(t, 0)
    out[0] = DASHV if t.left.is_leaf else VDASH
    out[m - 1] = VDASH if t.right.is_leaf else DASHV
    return tuple(out)


def face(t: Tree, i: int) -> Tree:
    """Delete leaf i and contract its parent node."""
    if t.is_leaf:
        raise ValueError("cannot delete the only leaf")
    if not 0 <= i < t.n_leaves:
        raise IndexError(i)
    lsize = t.left.n_leaves
    if i < lsize:
        if t.left.is_leaf:
            return t.right
        return graft(face(t.left, i), t.right)
    if t.right.is_leaf:
        return t.left
    return graft(t.left, face(t.right, i - lsize))


def keep_leaves(t: Tree, kept) -> Tree:
    """Retract t onto a subset of its leaves.

    Deletions happen at the original indices in descending order, so
    lower indices never shift underneath later deletions.
    """
    kept = set(kept)
    if not kept <= set(range(t.n_leaves)):
        raise ValueError("kept leaves out of range")
    if not kept:
        raise ValueError("must keep at least one leaf")
    for i in sorted(set(range(t.n_leaves)) - kept, reverse=True):
        t = face(t, i)
    return t


def _prefix_sums(parts: tuple[int, ...]) -> list[int]:
    sums = [0]
    for p in parts:
        sums.append(sums[-1] + p)
    return sums


def r0(t: Tree, parts) -> Tree:
    """Outer retraction: keep the block boundary leaves 0, n1, n1+n2, ..."""
    parts = tuple(parts)
    if any(p < 1 for p in parts):
        raise ValueError("parts must be positive")
    sums = _prefix_sums(parts)
    if sums[-1] != t.n_internal:
        raise ValueError(f"parts sum {sums[-1]} != tree degree {t.n_internal}")
    return keep_leaves(t, sums)


def ri(t: Tree, parts, i: int) -> Tree:
    """Inner retraction i (1-based): keep the leaves of block i only."""
    parts = tuple(parts)
    if any(p < 1 for p in parts):
        raise ValueError("parts must be positive")
    if not 1 <= i <= len(parts):
        raise IndexError(i)
    sums = _prefix_sums(parts)
    if sums[-1] != t.n_internal:
        raise ValueError(f"parts sum {sums[-1]} != tree degree {t.n_internal}")
    return keep_leaves(t, range(sums[i - 1], sums[i] + 1))
