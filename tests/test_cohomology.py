"""Both cochain complexes: compatibility, coboundaries, delta-squared,
and the cross-check between the tree-indexed and one-product sides."""

import random
from fractions import Fraction

import pytest

import bihom.cohomology
from bihom.algebra import (
    BiHomAssociativeAlgebra,
    BiHomDialgebra,
    catalog,
    map_from_entries,
    table_from_entries,
)
from bihom.cohomology import (
    HochschildCochain,
    TreeCochain,
    cohomology,
    cohomology_spaces,
    dialg_coboundaries,
    dialg_coboundary,
    dialg_coboundary_rows,
    dialg_cocycles,
    dialg_compatible_space,
    hoch_coboundaries,
    hoch_coboundary,
    hoch_coboundary_rows,
    hoch_cocycles,
    hoch_compatible_space,
    hoch_delta_squared_is_zero,
    hochschild_cochain_dim,
    random_compatible_cochain,
    tree_cochain_dim,
)
from bihom.scalars import Mat, Subspace, nullspace_rows
from bihom.trees import trees

import oracles


def nil2():
    twist = map_from_entries(2, {2: {1: 1}})
    return BiHomAssociativeAlgebra(
        2, table_from_entries(2, {(2, 2): {1: 1}}), twist, twist, name="nil2"
    )


def sheared():
    """A one-product algebra whose twist is not diagonal."""
    shear = Mat.from_rows([[2, 1], [0, 1]])
    return BiHomAssociativeAlgebra(
        2, table_from_entries(2, {(1, 2): {2: 2}, (2, 2): {2: 2}}), shear, shear
    )


def broken():
    """A one-product algebra that violates the twisted associativity law."""
    phi = map_from_entries(3, {2: {2: 1}})
    psi = map_from_entries(3, {1: {1: 1}, 2: {1: 1, 2: -1}})
    mul = table_from_entries(
        3,
        {(1, 2): {1: 1}, (2, 1): {2: 1}, (2, 2): {2: 1}, (3, 2): {3: 1}, (3, 3): {3: 1}},
    )
    return BiHomAssociativeAlgebra(3, mul, phi, psi)


def random_table(rng, dim=2):
    """A product table with sparse random integer entries."""
    return tuple(
        tuple(
            tuple(Fraction(rng.randint(-2, 2) * rng.randint(0, 1)) for _ in range(dim))
            for _ in range(dim)
        )
        for _ in range(dim)
    )


def rand_bindings(entry, rng, count=3):
    out = []
    for _ in range(count):
        out.append(
            {p: Fraction(rng.randint(1, 5), rng.randint(1, 2)) for p in entry.params}
        )
    return out


def test_cochain_dim_formulas():
    assert tree_cochain_dim(2, 2) == len(trees(2)) * 4 * 2
    assert tree_cochain_dim(3, 3) == 5 * 27 * 3
    assert hochschild_cochain_dim(2, 3) == 27
    assert hochschild_cochain_dim(1, 2) == 4


def keyed(cls, t, args):
    """A data key of `cls`: (tree, args) for tree cochains, args alone otherwise."""
    return (t, args) if cls is TreeCochain else args


BOTH_KINDS = pytest.mark.parametrize("cls", [TreeCochain, HochschildCochain])


@BOTH_KINDS
def test_cochain_flatten_round_trip(cls):
    t = 1 if cls is TreeCochain else 0
    f = cls(2, 2, {keyed(cls, 0, (1, 1)): (1, 0), keyed(cls, t, (0, 1)): (0, Fraction(-1, 2))})
    flat = f.flatten()
    assert len(flat) == (tree_cochain_dim if cls is TreeCochain else hochschild_cochain_dim)(2, 2)
    # tree outer, then args row-major, then the output coordinate
    assert flat[(0 * 4 + 3) * 2] == 1 and flat[(t * 4 + 1) * 2 + 1] == Fraction(-1, 2)
    assert cls.unflatten(2, 2, flat) == f
    assert f + f == f.scale(2) and -f == f.scale(-1)
    assert (f - f).is_zero() and f - f == cls.zero(2, 2)


@BOTH_KINDS
def test_cochain_validation(cls):
    with pytest.raises(ValueError, match="^degree must be >= 1$"):
        cls(0, 2)
    if cls is TreeCochain:
        with pytest.raises(ValueError, match="tree index 5 out of range"):
            cls(2, 2, {(5, (0, 0)): (1, 0)})
    with pytest.raises(ValueError, match="bad argument tuple"):
        cls(2, 2, {keyed(cls, 0, (0, 0, 0)): (1, 0)})
    with pytest.raises(ValueError, match="bad argument tuple"):
        cls(2, 2, {keyed(cls, 0, (0, 2)): (1, 0)})
    with pytest.raises(ValueError, match="value length mismatch"):
        cls(1, 2, {keyed(cls, 0, (0,)): (1, 0, 0)})
    with pytest.raises(ValueError, match="coordinate length mismatch"):
        cls.unflatten(2, 2, (0,) * 3)
    with pytest.raises(ValueError, match="cochain shape mismatch"):
        cls.zero(1, 2) + cls.zero(2, 2)
    with pytest.raises(AttributeError, match=f"^{cls.__name__} is immutable$"):
        cls.zero(1, 2).degree = 2
    other = HochschildCochain if cls is TreeCochain else TreeCochain
    assert cls(1, 2, {keyed(cls, 0, (0,)): (1, 0)}) != other(1, 2, {keyed(other, 0, (0,)): (1, 0)})


@BOTH_KINDS
def test_eval_extends_value_multilinearly(cls):
    f = cls(2, 2, {keyed(cls, 0, (0, 1)): (1, 1), keyed(cls, 0, (1, 1)): (2, 0)})
    x = (Fraction(2), Fraction(3))
    y = (Fraction(0), Fraction(5))
    tree = (0,) if cls is TreeCochain else ()
    # 2*5*f(e1,e2) + 3*5*f(e2,e2)
    assert f.eval(*tree, [x, y]) == (Fraction(40), Fraction(10))
    assert f.value(*tree, (0, 1)) == (1, 1) and f.value(*tree, (0, 0)) == (0, 0)
    if cls is TreeCochain:
        assert f.eval(1, [x, y]) == (0, 0)


def test_dialg_delta_squared_vanishes_across_catalog():
    """delta(delta f) = 0 on random compatible cochains, degrees 1 -> 3."""
    rng = random.Random(101)
    for name, entry in catalog().items():
        for binding in rand_bindings(entry, rng):
            A = entry.build(**binding)
            for n in (1, 2):
                space = dialg_compatible_space(A, n)
                for _ in range(3):
                    f = random_compatible_cochain(space, rng, n, A.dim, tree_indexed=True)
                    assert dialg_coboundary(A, dialg_coboundary(A, f)).is_zero(), (
                        name,
                        binding,
                        n,
                    )


def test_hoch_delta_squared_vanishes():
    assert hoch_delta_squared_is_zero(nil2(), 1, trials=10)
    assert hoch_delta_squared_is_zero(nil2(), 2, trials=10)


def test_hoch_delta_squared_needs_valid_axioms():
    broken = BiHomAssociativeAlgebra(
        3,
        table_from_entries(3, {(1, 2): {1: 1}, (2, 1): {2: 1}}),
        map_from_entries(3, {2: {2: 1}}),
        map_from_entries(3, {1: {1: 1}, 2: {1: 1, 2: -1}}),
    )
    with pytest.raises(ValueError):
        hoch_delta_squared_is_zero(broken, 2, trials=1)


def test_perturbed_product_breaks_the_complex():
    """Negative control: an axiom-violating product must leak through
    delta-squared for some compatible cochain."""
    twist = map_from_entries(2, {2: {1: 1}})
    A = BiHomAssociativeAlgebra(
        2, table_from_entries(2, {(2, 2): {1: 1}, (1, 1): {2: 1}}), twist, twist
    )
    rng = random.Random(7)
    space = hoch_compatible_space(A, 2)
    found = False
    for _ in range(20):
        f = random_compatible_cochain(space, rng, 2, 2, tree_indexed=False)
        if not hoch_coboundary(A, hoch_coboundary(A, f)).is_zero():
            found = True
            break
    assert found


def test_coboundary_preserves_compatibility():
    rng = random.Random(33)
    A = catalog()["Alg2_2"].build(a=1)
    for n in (1, 2):
        space = dialg_compatible_space(A, n)
        target = dialg_compatible_space(A, n + 1)
        for _ in range(4):
            f = random_compatible_cochain(space, rng, n, A.dim, tree_indexed=True)
            assert target.contains(dialg_coboundary(A, f).flatten())
    N = nil2()
    for n in (1, 2):
        space = hoch_compatible_space(N, n)
        target = hoch_compatible_space(N, n + 1)
        for _ in range(4):
            f = random_compatible_cochain(space, rng, n, 2, tree_indexed=False)
            assert target.contains(hoch_coboundary(N, f).flatten())


def test_coboundary_is_linear():
    rng = random.Random(44)
    A = catalog()["Alg3_4"].build(b=2)
    space = dialg_compatible_space(A, 2)
    for _ in range(5):
        f = random_compatible_cochain(space, rng, 2, 3, tree_indexed=True)
        g = random_compatible_cochain(space, rng, 2, 3, tree_indexed=True)
        c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        lhs = dialg_coboundary(A, f + g.scale(c))
        rhs = dialg_coboundary(A, f) + dialg_coboundary(A, g).scale(c)
        assert lhs == rhs


def test_coboundaries_inside_cocycles():
    A = catalog()["Alg2_3"].build(a=1, b=2, c=1, d=1)
    for n in (1, 2):
        Z = dialg_cocycles(A, n)
        B = dialg_coboundaries(A, n)
        assert Z.contains_space(B)
    N = nil2()
    for n in (1, 2):
        assert hoch_cocycles(N, n).contains_space(hoch_coboundaries(N, n))


def test_degree_one_has_no_coboundaries():
    A = catalog()["Alg2_2"].build(a=1)
    assert dialg_coboundaries(A, 1).dim == 0
    assert hoch_coboundaries(nil2(), 1).dim == 0


def test_report_dims_for_2dim_family():
    A = catalog()["Alg2_2"].build(a=1)
    rep = cohomology(A, 2)
    assert (rep.compatible_dim, rep.cocycle_dim, rep.coboundary_dim) == (8, 6, 2)
    assert rep.cohomology_dim == 4
    # independent rank check on the compatible-space system: the space is
    # cut out inside the full cochain space by the twist conditions
    full = tree_cochain_dim(2, 2)
    Zs = dialg_cocycles(A, 2)
    assert Zs.dim <= rep.compatible_dim <= full


def test_report_dims_for_nilpotent_algebra():
    rep = cohomology(nil2(), 2)
    assert (rep.compatible_dim, rep.cocycle_dim, rep.coboundary_dim) == (4, 4, 1)
    assert rep.cohomology_dim == 3


def identity_twists():
    return BiHomAssociativeAlgebra(2, table_from_entries(2, {}), Mat.identity(2), Mat.identity(2))


@pytest.mark.parametrize("n", [0, -1])
def test_degree_below_one_is_refused(n):
    """There are no cochains below degree 1: every space function, the
    delta rows and cohomology refuse the degree, with one message, for
    both complexes."""
    shared = (cohomology_spaces, cohomology)
    dialg = (dialg_compatible_space, dialg_cocycles, dialg_coboundaries, dialg_coboundary_rows)
    hoch = (hoch_compatible_space, hoch_cocycles, hoch_coboundaries, hoch_coboundary_rows)
    cases = [
        (catalog()["Alg2_2"].build(a=1), dialg + shared),
        (identity_twists().as_dialgebra(), dialg + shared),
        (identity_twists(), hoch + shared),
        (nil2(), hoch + shared),
    ]
    for X, fns in cases:
        for fn in fns:
            with pytest.raises(ValueError, match="^degree must be >= 1$"):
                fn(X, n)


def test_cohomology_spaces_match_the_space_functions():
    """The shared path gives the same canonical spaces as the per-complex
    functions, and refuses anything that is not an algebra or dialgebra."""
    for X, fns in (
        (catalog()["Alg3_3"].build(b=1), (dialg_compatible_space, dialg_cocycles, dialg_coboundaries)),
        (nil2(), (hoch_compatible_space, hoch_cocycles, hoch_coboundaries)),
    ):
        for n in (1, 2, 3):
            assert cohomology_spaces(X, n) == tuple(fn(X, n) for fn in fns)
    with pytest.raises(TypeError, match="^expected an algebra or dialgebra, got Mat$"):
        cohomology_spaces(Mat.identity(2), 2)


def test_identity_twists_make_every_map_compatible():
    A = identity_twists()
    assert hoch_compatible_space(A, 2).dim == hochschild_cochain_dim(2, 2)


def test_cohomology_raises_when_complex_is_broken():
    """On an axiom-violating algebra the coboundaries can escape the
    cocycle space; the quotient is refused rather than reported."""
    A = broken()
    with pytest.raises(ArithmeticError):
        cohomology(A, 2)


def test_broken_complex_error_names_the_escaping_coordinate():
    A = broken()
    with pytest.raises(
        ArithmeticError,
        match=r"^coboundaries escape cocycles in degree 2: coboundary basis row 0 "
        r"has residual 1 at args \(e1, e2\), output e1$",
    ):
        cohomology(A, 2)
    # the named coordinate, (args (0, 1), output 0), is 3 in flattened order
    residual = hoch_cocycles(A, 2).reduce(hoch_coboundaries(A, 2).basis_rows()[0])
    assert residual[3] == 1 and not any(residual[:3])


def test_rank_nullity_across_the_complex():
    """dim B^n = dim C^(n-1) - dim Z^(n-1): delta restricted to C^(n-1)
    has kernel Z^(n-1) and image B^n, each computed by its own route."""
    algebras = [
        entry.build(**{p: 1 for p in entry.params}) for entry in catalog().values()
    ]
    for n in (2, 3):
        for A in algebras:
            assert dialg_coboundaries(A, n).dim == (
                dialg_compatible_space(A, n - 1).dim - dialg_cocycles(A, n - 1).dim
            ), (A.name, n)
        N = nil2()
        assert hoch_coboundaries(N, n).dim == (
            hoch_compatible_space(N, n - 1).dim - hoch_cocycles(N, n - 1).dim
        ), n


def test_coboundary_space_holds_directly_evaluated_coboundaries():
    """B^n, built from the delta rows, contains delta f evaluated by the
    direct coboundary for random compatible f.  For two one-product
    algebras the evaluated images of a whole basis span it exactly; the
    second has a non-diagonal twist, so its compatible bases carry
    entries other than 1."""
    rng = random.Random(61)
    for entry in catalog().values():
        A = entry.build(**{p: 1 for p in entry.params})
        for n in (2, 3):
            space = dialg_compatible_space(A, n - 1)
            f = random_compatible_cochain(space, rng, n - 1, A.dim, tree_indexed=True)
            assert dialg_coboundaries(A, n).contains(oracles.dialg_coboundary(A, f).flatten())
    for N in (nil2(), sheared()):
        for n in (2, 3):
            space = hoch_compatible_space(N, n - 1)
            images = [
                oracles.hoch_coboundary(N, HochschildCochain.unflatten(n - 1, 2, row)).flatten()
                for row in space.basis_rows()
            ]
            assert hoch_coboundaries(N, n) == Subspace(hochschild_cochain_dim(n, 2), images)


def test_coboundary_matches_independent_four_term_evaluator():
    """The degree-2 coboundary agrees entry by entry with a separately
    written expansion of the four-term formula."""
    rng = random.Random(9)
    for A in (nil2(),):
        space = hoch_compatible_space(A, 2)
        for _ in range(5):
            f = random_compatible_cochain(space, rng, 2, A.dim, tree_indexed=False)
            fvals = {args: val for args, val in f.data.items()}
            expected = oracles.hoch_delta2(A, fvals)
            got = hoch_coboundary(A, f)
            assert {k: tuple(v) for k, v in got.data.items()} == expected


def random_cochain(cls, rng, degree, dim, support=6):
    """A cochain on `support` random keys, not required to commute with
    the twists."""
    ntrees = len(trees(degree)) if cls is TreeCochain else 1
    data = {
        keyed(cls, rng.randrange(ntrees), tuple(rng.randrange(dim) for _ in range(degree))):
        tuple(rng.randint(-3, 3) for _ in range(dim))
        for _ in range(support)
    }
    return cls(degree, dim, data)


def test_coboundary_rows_agree_with_direct_evaluation():
    """delta f applied through the delta rows equals the term-by-term
    oracle entry for entry, on arbitrary and on compatible cochains."""
    rng = random.Random(71)
    for name, entry in catalog().items():
        for i, binding in enumerate(rand_bindings(entry, rng, count=2)):
            A = entry.build(**binding)
            for n in (1, 2, 3):
                space = dialg_compatible_space(A, n)
                kinds = (
                    random_cochain(TreeCochain, rng, n, A.dim),
                    random_compatible_cochain(space, rng, n, A.dim, tree_indexed=True),
                )
                # the oracle is slow at degree 3 (it evaluates every term on
                # every basis tuple), so there each binding checks one kind
                for f in kinds if n < 3 else kinds[i : i + 1]:
                    assert dialg_coboundary(A, f) == oracles.dialg_coboundary(A, f), (
                        name, binding, n,
                    )
    for N in (nil2(), sheared()):
        for n in (1, 2, 3, 4):
            space = hoch_compatible_space(N, n)
            for f in (
                random_cochain(HochschildCochain, rng, n, 2),
                random_compatible_cochain(space, rng, n, 2, tree_indexed=False),
            ):
                assert hoch_coboundary(N, f) == oracles.hoch_coboundary(N, f), (N.name, n)


def test_coboundary_refuses_a_cochain_of_another_dimension():
    A = catalog()["Alg2_2"].build(a=1)
    with pytest.raises(ValueError, match="^cochain dimension mismatch$"):
        dialg_coboundary(A, TreeCochain.zero(1, 3))
    with pytest.raises(ValueError, match="^cochain dimension mismatch$"):
        hoch_coboundary(nil2(), HochschildCochain.zero(1, 3))


def test_dialg_coboundary_refuses_the_other_kind():
    """The kind is checked before the dimension, so a one-product cochain
    of another dimension is refused for its kind."""
    A = catalog()["Alg2_2"].build(a=1)
    expected = "^dialg_coboundary expects a TreeCochain on a BiHomDialgebra, got a "
    for f in (HochschildCochain.zero(2, 2), HochschildCochain.zero(1, 3)):
        with pytest.raises(TypeError, match=expected + "HochschildCochain on a BiHomDialgebra$"):
            dialg_coboundary(A, f)
    with pytest.raises(TypeError, match=expected + "TreeCochain on a BiHomAssociativeAlgebra$"):
        dialg_coboundary(nil2(), TreeCochain.zero(1, 2))


def test_hoch_coboundary_refuses_the_other_kind():
    N = nil2()
    expected = "^hoch_coboundary expects a HochschildCochain on a BiHomAssociativeAlgebra, got a "
    for f in (TreeCochain.zero(2, 2), TreeCochain.zero(1, 3)):
        with pytest.raises(TypeError, match=expected + "TreeCochain on a BiHomAssociativeAlgebra$"):
            hoch_coboundary(N, f)
    with pytest.raises(TypeError, match=expected + "HochschildCochain on a BiHomDialgebra$"):
        hoch_coboundary(N.as_dialgebra(), HochschildCochain.zero(1, 2))


def test_spaces_agree_with_the_ambient_oracle():
    """C^n, Z^n and B^n from compatible coordinates equal, row for row,
    the spaces eliminated over every coordinate of every tree."""
    rng = random.Random(83)
    cases = []
    for entry in catalog().values():
        for binding in ({p: 1 for p in entry.params}, rand_bindings(entry, rng, count=1)[0]):
            cases += [(entry.build(**binding), n) for n in (1, 2, 3)]
    cases += [(catalog()[name].build(**{p: 1 for p in catalog()[name].params}), 4)
              for name in ("Alg3_3", "Alg2_2")]
    cases += [(nil2(), n) for n in range(1, 9)]
    for X in (sheared(), broken()):
        cases += [(Y, n) for Y in (X, X.as_dialgebra()) for n in (1, 2, 3, 4)]
    # random tables obey no law, so no delta row is redundant by accident
    for twist in (Mat.identity(2), Mat.from_rows([[1, 1], [0, 1]])):
        X = BiHomDialgebra(2, random_table(rng), random_table(rng), twist, twist)
        cases += [(X, n) for n in (1, 2, 3)]
    for X, n in cases:
        got = cohomology_spaces(X, n)
        want = oracles.ambient_cohomology_spaces(X, n)
        assert [S.sparse_rows() for S in got] == [S.sparse_rows() for S in want], (X, n)


def test_cohomology_never_eliminates_in_ambient_coordinates(monkeypatch):
    """Structural guard: no kernel is taken over all of C^n's or C^(n-1)'s
    ambient coordinates; only one tree's block and delta . G are solved."""
    widths = []

    def recording(rows, ncols):
        widths.append(ncols)
        return nullspace_rows(rows, ncols)

    monkeypatch.setattr(bihom.cohomology, "nullspace_rows", recording)
    A = catalog()["Alg3_3"].build(b=1)
    cohomology(A, 4)
    assert widths
    assert not {tree_cochain_dim(4, A.dim), tree_cochain_dim(3, A.dim)} & set(widths), widths


def test_tree_and_hoch_coboundaries_agree_when_products_coincide():
    """For a dialgebra with both products equal and a cochain constant
    across the trees of its degree, the tree-indexed coboundary takes the
    one-product value on every tree."""
    N = nil2()
    D = N.as_dialgebra()
    rng = random.Random(55)
    for n in (1, 2):
        space = hoch_compatible_space(N, n)
        for _ in range(4):
            f = random_compatible_cochain(space, rng, n, 2, tree_indexed=False)
            const = TreeCochain(
                n,
                2,
                {
                    (t, args): val
                    for t in range(len(trees(n)))
                    for args, val in f.data.items()
                },
            )
            lifted = oracles.dialg_coboundary(D, const)
            plain = oracles.hoch_coboundary(N, f)
            for t in range(len(trees(n + 1))):
                for args, val in plain.data.items():
                    assert lifted.value(t, args) == val
                for (tt, args), val in lifted.data.items():
                    if tt == t:
                        assert plain.value(args) == val
