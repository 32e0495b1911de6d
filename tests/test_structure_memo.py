"""The memo of a structure: the integer form, delta's block tables and the
triviality rows are built once per structure and read by every call on it;
no K_n, restriction, singleton pass or answer is kept there."""

import gc
import random
from fractions import Fraction
from types import BuiltinFunctionType, FunctionType, ModuleType

import bihom.cohomology
import bihom.deformation
from bihom.algebra import BiHomAssociativeAlgebra, catalog, map_from_entries, table_from_entries
from bihom.cohomology import (
    _Complex,
    _Restrictions,
    cohomology,
    dialg_coboundary,
    dialg_coboundary_rows,
    dialg_compatible_space,
    hoch_coboundary,
    hoch_compatible_space,
    random_compatible_cochain,
    tree_cochain_dim,
)
from bihom.deformation import (
    EquivalenceTransformation,
    TruncatedDeformation,
    base_change_pullback,
    base_change_pushforward,
    solve_triviality,
    zero_deformation,
)
from bihom.dsl import build_block, parse_path
from bihom.scalars import Mat, _Eliminator

import oracles


def nil2():
    twist = map_from_entries(2, {2: {1: 1}})
    return BiHomAssociativeAlgebra(2, table_from_entries(2, {(2, 2): {1: 1}}), twist, twist, name="nil2")


def alg3_1():
    return catalog()["Alg3_1"].build(a=Fraction(2, 3), b=2, c=Fraction(-1, 5), d=1, f=3)


def corpus_d1():
    return build_block(parse_path("corpus/deform_alg2_2.dlg"), "D1")


def kinds(X):
    """(delta, the oracle's delta, the compatible space, tree-indexed) for X's complex."""
    if isinstance(X, BiHomAssociativeAlgebra):
        return hoch_coboundary, oracles.hoch_coboundary, hoch_compatible_space, False
    return dialg_coboundary, oracles.dialg_coboundary, dialg_compatible_space, True


def cochains(X, degrees, count, seed):
    _, _, space, tree_indexed = kinds(X)
    rng = random.Random(seed)
    return {n: [random_compatible_cochain(space(X, n), rng, n, X.dim, tree_indexed) for _ in range(count)]
            for n in degrees}


def count_block_builds(monkeypatch) -> list:
    built = []
    original = bihom.cohomology._coboundary_blocks

    def counting(cx, n):
        built.append(n)
        return original(cx, n)

    monkeypatch.setattr(bihom.cohomology, "_coboundary_blocks", counting)
    return built


def tables(X) -> list:
    """The degrees whose block tables X's memo holds."""
    return sorted(X._memo["blocks"])


def test_delta_builds_each_degree_tables_once_per_structure(monkeypatch):
    """delta and delta-squared of several cochains, call after call, and the
    ambient rows build each degree's tables once per structure; an equal
    structure built again is another object, with its own memo."""
    built = count_block_builds(monkeypatch)
    for make in (alg3_1, nil2):
        X = make()
        delta, oracle, _, _ = kinds(X)
        for n, fs in cochains(X, (1, 2), 3, seed=5).items():
            for f in fs:
                assert delta(X, f) == oracle(X, f), (X, n)
                assert delta(X, delta(X, f)).degree == n + 2
        assert sorted(built) == [1, 2, 3] and tables(X) == [1, 2, 3], X
        built.clear()
    X = alg3_1()
    rows = dialg_coboundary_rows(X, 2)
    for f in cochains(X, (2,), 2, seed=6)[2]:
        dialg_coboundary(X, f)
    assert built == [2] and len(rows) == tree_cochain_dim(3, X.dim)


def test_triviality_builds_the_leibniz_rows_once_per_base(monkeypatch):
    """Every order of every `solve_triviality` call on one base reads the
    same Leibniz rows, built once; another base builds its own."""
    built = []
    original = bihom.deformation.leibniz_rows

    def counting(*args):
        built.append(args[1].rows)
        return original(*args)

    monkeypatch.setattr(bihom.deformation, "leibniz_rows", counting)
    d1 = corpus_d1()
    A = d1.base
    psit = EquivalenceTransformation((Mat.identity(2), A.phi.scale(3)))
    assert solve_triviality(d1, 4).trivial
    assert solve_triviality(base_change_pushforward(zero_deformation(A), psit), 3).trivial
    assert solve_triviality(d1, 2).trivial
    assert built == [2]
    assert solve_triviality(TruncatedDeformation(alg3_1()), 2).trivial
    assert built == [2, 3]


def reachable(root) -> dict:
    """Every object reachable from root through its references, by id, not
    entering classes, modules or functions."""
    seen, todo = {}, [root]
    while todo:
        x = todo.pop()
        if id(x) not in seen and not isinstance(x, (type, ModuleType, FunctionType, BuiltinFunctionType)):
            seen[id(x)] = x
            todo += gc.get_referents(x)
    return seen


def test_cohomology_leaves_no_per_degree_record_on_the_structure(monkeypatch):
    """After `cohomology(X, n)` the complex's K_n, restrictions and singleton
    passes cannot be reached from X, no `_Complex`, `_Restrictions` or
    `_Eliminator` can, and the memo holds no table of the degrees read."""
    complexes = []
    original = bihom.cohomology._complex_of

    def recording(*args):
        complexes.append(cx := original(*args))
        return cx

    monkeypatch.setattr(bihom.cohomology, "_complex_of", recording)
    for X in (alg3_1(), nil2()):
        complexes.clear()
        cohomology(X, 3)
        (cx,) = complexes
        kept = [*cx._kernel.values(), *cx._restricted.values(), *cx._singletons.values()]
        assert len(kept) == 6 and tables(X) == []
        found = reachable(X)
        assert id(X._memo["blocks"]) in found
        assert not any(id(x) in found for x in kept), X
        assert not any(isinstance(x, (_Complex, _Restrictions, _Eliminator)) for x in found.values()), X


def test_delta_through_the_memo_matches_the_oracle_after_release_and_other_degrees():
    """delta read through the memo equals the term-by-term delta once a
    cohomology call has released the degree's tables and rebuilt them, and
    while the memo holds the tables of other degrees."""
    for X in (alg3_1(), nil2(), catalog()["Alg2_2"].build(a=Fraction(-3, 2))):
        delta, oracle, _, _ = kinds(X)
        fs = cochains(X, (1, 2, 3), 2, seed=9)
        cohomology(X, 2)  # builds and releases degrees 1 and 2
        assert tables(X) == []
        for f in fs[2]:
            assert delta(X, f) == oracle(X, f), X
        for n in (3, 1):
            delta(X, fs[n][0])
        assert tables(X) == [1, 2, 3]
        cohomology(X, 3)  # releases 2 and 3 again, leaving 1
        assert tables(X) == [1]
        for n, group in fs.items():
            for f in group:
                assert delta(X, f) == oracle(X, f), (X, n)
        assert tables(X) == [1, 2, 3]


def test_derived_structures_have_their_own_memo():
    """`as_dialgebra()` and `base_change_pullback` build new structures,
    each with an empty memo of its own, whatever the source's holds."""
    A = nil2()
    f = cochains(A, (2,), 1, seed=2)[2][0]
    hoch_coboundary(A, f)
    D = A.as_dialgebra()
    assert D._memo == {} and tables(A) == [2]
    g = cochains(D, (2,), 1, seed=3)[2][0]
    assert dialg_coboundary(D, g) == oracles.dialg_coboundary(D, g)
    assert tables(D) == [2] and D._memo["blocks"] is not A._memo["blocks"]
    assert hoch_coboundary(A, f) == oracles.hoch_coboundary(A, f)

    d1 = corpus_d1()
    solve_triviality(d1, 2)
    pulled = base_change_pullback(d1, Mat.from_rows([[1, 1], [0, 2]]))
    assert pulled.base._memo == {} and "triviality" in d1.base._memo
    assert solve_triviality(pulled, 2) == oracles.solve_triviality(pulled, 2)
    assert pulled.base._memo["triviality"] is not d1.base._memo["triviality"]
