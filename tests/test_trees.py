"""Planar-tree combinatorics: enumeration, face maps, retractions.

The retraction identities are checked exhaustively on the small grid
(k <= 2, all parts <= 2) because every later module leans on them.
"""

import gc
from itertools import product

import pytest

from bihom.trees import (
    DASHV,
    LEAF,
    PRODUCT_FOR_TREE,
    VDASH,
    face,
    face_layout,
    from_paren,
    graft,
    keep_leaves,
    orientations,
    r0,
    retraction_layout,
    ri,
    to_paren,
    tree_index,
    trees,
)


def test_census():
    assert [len(trees(n)) for n in range(6)] == [1, 1, 2, 5, 14, 42]


def test_catalan_recurrence():
    for n in range(1, 9):
        expected = sum(len(trees(p)) * len(trees(n - 1 - p)) for p in range(n))
        assert len(trees(n)) == expected


def test_enumeration_order_is_left_subtree_first():
    assert trees(2) == (graft(LEAF, trees(1)[0]), graft(trees(1)[0], LEAF))
    assert [to_paren(t) for t in trees(2)] == ["(.,(.,.))", "((.,.),.)"]


def test_graft_decomposition_is_unique():
    for n in range(1, 7):
        seen = {}
        for t in trees(n):
            assert not t.is_leaf
            key = (t.left, t.right)
            assert key not in seen
            seen[key] = t
            assert graft(t.left, t.right) == t
        # the decompositions exhaust the product of smaller families
        assert len(seen) == sum(
            len(trees(p)) * len(trees(n - 1 - p)) for p in range(n)
        )


def test_paren_round_trip():
    for n in range(7):
        for t in trees(n):
            assert from_paren(to_paren(t)) == t


def test_paren_rejects_malformed():
    for s in ["", "(", "(.)", "(.,.", "(.,.))", "..", "(.,.)x"]:
        with pytest.raises(ValueError):
            from_paren(s)


def test_tree_index_round_trip():
    """The cached table also finds trees that are equal to, but not the
    same objects as, the enumerated ones: rebuilt from their parens, or
    made by a face map (checked against a linear search)."""
    for n in range(8):
        family = trees(n)
        for i, t in enumerate(family):
            assert tree_index(t) == i
            rebuilt = from_paren(to_paren(t))
            assert rebuilt is not t or n == 0
            assert tree_index(rebuilt) == i
        if n < 7:
            for y in trees(n + 1):
                for i in range(n + 2):
                    f = face(y, i)
                    assert tree_index(f) == next(j for j, u in enumerate(family) if u == f)


def test_face_layout_lists_faces_and_orientations():
    for n in range(1, 7):
        assert face_layout(n) == tuple(
            (tuple(tree_index(face(y, i)) for i in range(n + 1)), orientations(y))
            for y in trees(n)
        )
    with pytest.raises(ValueError):
        face_layout(0)


def test_retraction_layout_lists_outer_and_filled_inner_retractions():
    """Every composition of N <= 6 into parts, with every mask of filled
    slots, against the retractions taken on the Tree objects."""
    for N in range(1, 7):
        for cuts in product((False, True), repeat=N - 1):
            parts, run = [], 1
            for cut in cuts:
                if cut:
                    parts.append(run)
                    run = 0
                run += 1
            parts = tuple(parts + [run])
            want = [
                (tree_index(r0(y, parts)), [tree_index(ri(y, parts, j + 1)) for j in range(len(parts))])
                for y in trees(N)
            ]
            for filled in product((False, True), repeat=len(parts)):
                assert retraction_layout(parts, filled) == tuple(
                    (outer, tuple(t if f else None for t, f in zip(inners, filled))) for outer, inners in want
                ), (parts, filled)


def test_face_reduces_leaf_count():
    for n in range(1, 6):
        for t in trees(n):
            for i in range(t.n_leaves):
                assert face(t, i).n_internal == n - 1


def test_simplicial_relation_exhaustive():
    # d_i d_j = d_{j-1} d_i for i < j, trees up to 6 leaves
    for n in range(2, 6):
        for t in trees(n):
            for j in range(1, t.n_leaves):
                for i in range(j):
                    assert face(face(t, j), i) == face(face(t, i), j - 1)


def test_face_on_single_node():
    t = trees(1)[0]
    assert face(t, 0) == LEAF
    assert face(t, 1) == LEAF
    with pytest.raises(ValueError):
        face(LEAF, 0)
    with pytest.raises(IndexError):
        face(t, 2)


def test_orientations_known_small_cases():
    # frozen convention; the operad anchor test depends on these values, and
    # on three leaves the outer leaves take the middle product, so delta of a
    # 1-cochain is the derivation rule of that product
    t = trees(1)[0]
    assert orientations(t) == (DASHV, VDASH)
    right_comb, left_comb = trees(2)
    assert orientations(right_comb) == (DASHV, DASHV, DASHV)
    assert orientations(left_comb) == (VDASH, VDASH, VDASH)


def _hanging_sides(t, side=None):
    """Per leaf, DASHV where it is a left child and VDASH where a right one."""
    return (side,) if t.is_leaf else _hanging_sides(t.left, DASHV) + _hanging_sides(t.right, VDASH)


def test_orientations_boundary_rule():
    """The boundary leaves follow the root's children, and every interior
    leaf the side of its parent it hangs from."""
    for n in range(1, 7):
        for t in trees(n):
            ori = orientations(t)
            assert len(ori) == t.n_leaves
            assert ori[0] == (DASHV if t.left.is_leaf else VDASH)
            assert ori[-1] == (VDASH if t.right.is_leaf else DASHV)  # the mirror of leaf 0's rule
            assert ori[1:-1] == _hanging_sides(t)[1:-1]


def test_orientations_leave_no_garbage_cycle():
    """`orientations` walks the tree from a stack, not from a closure that
    calls itself, so with the collector off, a call on each tree of
    trees(6) leaves nothing for `gc.collect()` to free."""
    shapes = trees(6)
    gc.collect()
    gc.disable()
    try:
        for t in shapes:
            orientations(t)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_keep_leaves_identity_and_errors():
    for t in trees(3):
        assert keep_leaves(t, range(t.n_leaves)) == t
    with pytest.raises(ValueError):
        keep_leaves(trees(2)[0], [])
    with pytest.raises(ValueError):
        keep_leaves(trees(2)[0], [0, 9])


def _prefix(parts):
    out = [0]
    for p in parts:
        out.append(out[-1] + p)
    return out


def test_outer_retraction_with_unit_parts_is_identity():
    for k in range(1, 5):
        for t in trees(k):
            assert r0(t, (1,) * k) == t


def test_retraction_degrees():
    for parts in [(2, 1), (1, 2), (2, 2), (3, 1)]:
        n = sum(parts)
        for t in trees(n):
            assert r0(t, parts).n_internal == len(parts)
            for i in range(1, len(parts) + 1):
                assert ri(t, parts, i).n_internal == parts[i - 1]


def test_retraction_argument_errors():
    t = trees(3)[0]
    with pytest.raises(ValueError):
        r0(t, (2, 2))
    with pytest.raises(ValueError):
        r0(t, (3, 0))
    with pytest.raises(IndexError):
        ri(t, (2, 1), 3)


def test_pre_operadic_identities_small_grid():
    """The four composition laws for the retraction family, exhaustively
    for k <= 2 and all parts in {1, 2}."""
    for k in (1, 2):
        for nv in product((1, 2), repeat=k):
            N = sum(nv)
            pn = _prefix(nv)
            for mv in product((1, 2), repeat=N):
                grouped = tuple(sum(mv[pn[i] : pn[i + 1]]) for i in range(k))
                for y in trees(sum(mv)):
                    outer = r0(y, mv)
                    assert r0(outer, nv) == r0(y, grouped)
                    for i in range(1, k + 1):
                        block = mv[pn[i - 1] : pn[i]]
                        mid = ri(y, grouped, i)
                        assert ri(outer, nv, i) == r0(mid, block)
                        for j in range(1, nv[i - 1] + 1):
                            assert ri(y, mv, pn[i - 1] + j) == ri(mid, block, j)


def test_product_for_tree_is_the_second_leaf_orientation():
    """Tree t of an arity-2 cochain carries the product its middle leaf
    takes, the rule `operad.pi_element` reads."""
    assert PRODUCT_FOR_TREE == tuple(orientations(y)[1] for y in trees(2)) == (DASHV, VDASH)
