"""Both cochain complexes: compatibility, coboundaries, delta-squared,
and the cross-check between the tree-indexed and one-product sides."""

import random
import sys
from fractions import Fraction

import pytest

import bihom.cohomology
from bihom.algebra import (
    BiHomAssociativeAlgebra,
    BiHomDialgebra,
    assoc_readings,
    catalog,
    check_dialgebra,
    is_multiplicative,
    map_from_entries,
    table_from_entries,
)
from bihom.cohomology import (
    CoboundaryEscape,
    HochschildCochain,
    TreeCochain,
    _Complex,
    _complex_of,
    cohomology,
    cohomology_report,
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
from bihom.dsl import build_block, parse_path
from bihom.scalars import Mat, Subspace, _kernel, nullspace_rows
from bihom.trees import trees

import oracles
from test_algebra import _perturbed_alg2_2
from test_coboundary_identities import witness


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


def test_the_two_cochain_kinds_do_not_add():
    """A sum or difference of a tree cochain and a one-product cochain is a
    TypeError naming both kinds, not an error from inside the addition."""
    f = TreeCochain(1, 2, {(0, (0,)): (1, 0)})
    g = HochschildCochain(1, 2, {(0,): (0, 1)})
    for x, y in ((f, g), (g, f)):
        for op in (lambda a, b: a + b, lambda a, b: a - b):
            with pytest.raises(TypeError, match=f"^cannot add a {type(y).__name__} to a {type(x).__name__}$"):
                op(x, y)
    with pytest.raises(ValueError, match="cochain shape mismatch"):
        f - TreeCochain.zero(1, 3)


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


def test_eval_refuses_a_tree_index_out_of_range():
    f = TreeCochain(2, 2, {(0, (0, 1)): (1, 1)})
    x = (Fraction(1), Fraction(0))
    for t in (7, 2, -1):
        with pytest.raises(ValueError, match=f"^tree index {t} out of range 0..1 for degree 2$"):
            f.eval(t, [x, x])
    with pytest.raises(ValueError, match="^tree has 3 internal nodes, degree is 2$"):
        f.eval(trees(3)[0], [x, x])


@BOTH_KINDS
def test_eval_refuses_argument_vectors_of_the_wrong_length(cls):
    f = cls(2, 2, {keyed(cls, 0, (0, 1)): (1, 1)})
    tree = (0,) if cls is TreeCochain else ()
    x = (Fraction(1), Fraction(1))
    for bad in ((Fraction(1),), (Fraction(1), Fraction(1), Fraction(1))):
        with pytest.raises(ValueError, match=f"^argument 1 has length {len(bad)}, not 2$"):
            f.eval(*tree, [x, bad])
        with pytest.raises(ValueError, match=f"^argument 0 has length {len(bad)}, not 2$"):
            f.eval(*tree, [bad, x])
    with pytest.raises(ValueError, match="^argument count mismatch: 3 arguments for degree 2$"):
        f.eval(*tree, [x, x, x])


@BOTH_KINDS
def test_value_refuses_an_args_tuple_of_the_wrong_arity(cls):
    f = cls(2, 2, {keyed(cls, 0, (0, 1)): (1, 1)})
    tree = (0,) if cls is TreeCochain else ()
    for args in ((0,), (0, 1, 1), ()):
        with pytest.raises(ValueError, match=f"^argument count mismatch: {len(args)} arguments for degree 2$"):
            f.value(*tree, args)


@BOTH_KINDS
def test_value_refuses_an_argument_index_out_of_range(cls):
    f = cls(2, 2, {keyed(cls, 0, (0, 1)): (1, 1)})
    tree = (0,) if cls is TreeCochain else ()
    with pytest.raises(ValueError, match="^argument 1 is 2, out of range 0..1$"):
        f.value(*tree, (0, 2))
    with pytest.raises(ValueError, match="^argument 0 is -1, out of range 0..1$"):
        f.value(*tree, (-1, 0))
    if cls is TreeCochain:
        with pytest.raises(ValueError, match="^tree index 2 out of range 0..1 for degree 2$"):
            f.value(2, (0, 1))


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


def test_a_complex_builds_each_degree_block_tables_once(monkeypatch):
    """delta^n's block tables are built once per structure and degree for
    rows and evaluations, in the structure's memo: every complex of one
    structure reads them, so `hoch_delta_squared_is_zero` builds each degree
    once over all its trials, and `dialg_coboundary` reuses the tables that
    `delta_rows` built.  The restrictions release the tables they read, so a
    report leaves none."""
    built = []
    original = bihom.cohomology._coboundary_blocks

    def counting(X, n):
        built.append(n)
        return original(X, n)

    monkeypatch.setattr(bihom.cohomology, "_coboundary_blocks", counting)
    assert hoch_delta_squared_is_zero(nil2(), 2, trials=6)
    assert sorted(built) == [2, 3]
    built.clear()
    A = catalog()["Alg2_2"].build(a=1)
    cx = _Complex(A, TreeCochain)
    f = random_compatible_cochain(cx.compatible_space(2), random.Random(3), 2, A.dim, tree_indexed=True)
    cx.report(2)
    rows = cx.delta_rows(2)
    for _ in range(3):
        assert cx.apply_delta(f) == dialg_coboundary(A, f)
    assert len(rows) == tree_cochain_dim(3, A.dim)
    assert sorted(built) == [1, 2, 2]  # the report's two degrees, then one build for the rows and every delta f
    assert list(cx._blocks) == [2] and cx._blocks is A._memo["blocks"]


def test_hoch_delta_squared_needs_valid_axioms():
    broken = BiHomAssociativeAlgebra(
        3,
        table_from_entries(3, {(1, 2): {1: 1}, (2, 1): {2: 1}}),
        map_from_entries(3, {2: {2: 1}}),
        map_from_entries(3, {1: {1: 1}, 2: {1: 1, 2: -1}}),
    )
    with pytest.raises(ValueError):
        hoch_delta_squared_is_zero(broken, 2, trials=1)


def test_hoch_delta_squared_needs_multiplicative_twists():
    """e e = e with phi = psi = 2: the one law holds, (e e) 2e = 2e (e e),
    but phi(e e) = 2e is not phi(e) phi(e) = 4e."""
    two = Mat.from_rows([[2]])
    A = BiHomAssociativeAlgebra(1, table_from_entries(1, {(1, 1): {1: 1}}), two, two)
    with pytest.raises(ValueError, match="not multiplicative"):
        hoch_delta_squared_is_zero(A, 1, trials=1)


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


def perturbed_assoc():
    """Assoc3_A with e1 e1 = e2: the product that acceptance 5 perturbs."""
    base = assoc_readings()["Assoc3_A"]
    mul = {
        (i + 1, j + 1): {k + 1: c for k, c in enumerate(base.mul[i][j]) if c}
        for i in range(3)
        for j in range(3)
    }
    mul[(1, 1)] = {2: 1}
    return BiHomAssociativeAlgebra(3, table_from_entries(3, mul), base.phi, base.psi)


def test_exact_containment_is_an_exact_delta_squared_check():
    """The exact counterpart of the random check: the report's containment
    flag says that delta^n . delta^(n-1) vanishes on all of C^(n-1), with
    every image of C^(n-1) compatible.  It holds on the catalog in degrees
    2-4, at unit and at non-unit bindings, on the one-product Nil2 in degrees
    2-7, and on the witnesses D and Y, the structures that leave columns
    uncovered, in degrees 2-4; on the perturbed product it fails in degree
    3, where delta-squared is nonzero on a basis row of C^2 and on a random
    compatible cochain."""
    for entry in catalog().values():
        for binding in ({p: 1 for p in entry.params}, {p: Fraction(-2 - i, 3) for i, p in enumerate(entry.params)}):
            A = entry.build(**binding)
            assert all(cohomology_report(A, n).contained for n in (2, 3, 4)), (A.name, binding)
    assert all(cohomology_report(nil2(), n).contained for n in range(2, 8))
    for name in ("D", "Y"):
        X = witness(name)
        assert check_dialgebra(X).ok and is_multiplicative(X).ok, name
        assert all(cohomology_report(X, n).contained for n in (2, 3, 4)), name
    P = perturbed_assoc()
    assert not cohomology_report(P, 3).contained
    space = hoch_compatible_space(P, 2)
    squares = [
        hoch_coboundary(P, hoch_coboundary(P, HochschildCochain.unflatten(2, 3, row)))
        for row in space.basis_rows()
    ]
    assert not all(sq.is_zero() for sq in squares)
    rng = random.Random(15)
    assert any(
        not hoch_coboundary(P, hoch_coboundary(P, random_compatible_cochain(space, rng, 2, 3, False))).is_zero()
        for _ in range(20)
    )


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
    functions, and refuses anything that is not an algebra or dialgebra;
    each per-complex function refuses the other kind of structure."""
    cases = (
        (catalog()["Alg3_3"].build(b=1), (dialg_compatible_space, dialg_cocycles, dialg_coboundaries)),
        (nil2(), (hoch_compatible_space, hoch_cocycles, hoch_coboundaries)),
    )
    for X, fns in cases:
        for n in (1, 2, 3):
            assert cohomology_spaces(X, n) == tuple(fn(X, n) for fn in fns)
    for (X, _), (Y, fns) in zip(cases, cases[::-1]):
        for fn in fns:
            with pytest.raises(TypeError, match=f"complex needs a {type(Y).__name__}, got a {type(X).__name__}$"):
                fn(X, 2)
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


def assert_coboundary_matches_oracle(X, f, label):
    """delta f from the library equals the term-by-term oracle entry for
    entry and in key order; the ambient delta rows, applied to f's
    coordinates, give the same coordinates."""
    if isinstance(f, TreeCochain):
        got, want = dialg_coboundary(X, f), oracles.dialg_coboundary(X, f)
        rows = dialg_coboundary_rows(X, f.degree)
    else:
        got, want = hoch_coboundary(X, f), oracles.hoch_coboundary(X, f)
        rows = hoch_coboundary_rows(X, f.degree)
    assert got == want and list(got.data) == list(want.data), label
    x = f.flatten()
    assert tuple(sum((c * x[j] for j, c in row.items()), Fraction(0)) for row in rows) == want.flatten(), label


def test_coboundary_rows_agree_with_direct_evaluation():
    """delta f applied from the block tables equals the term-by-term
    oracle entry for entry, on arbitrary and on compatible cochains; so
    do the ambient delta rows, applied to the flattened cochain."""
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
                    assert_coboundary_matches_oracle(A, f, (name, binding, n))
    for N in (nil2(), sheared()):
        for n in (1, 2, 3, 4):
            space = hoch_compatible_space(N, n)
            for f in (
                random_cochain(HochschildCochain, rng, n, 2),
                random_compatible_cochain(space, rng, n, 2, tree_indexed=False),
            ):
                assert_coboundary_matches_oracle(N, f, (N.name, n))


def test_coboundary_matches_the_oracle_on_one_tree_and_on_zero():
    """A cochain supported on a single tree (each tree in turn) and the
    zero cochain, in both complexes."""
    rng = random.Random(72)
    for A in (catalog()["Alg3_3"].build(b=1), catalog()["Alg2_4"].build(**{p: 1 for p in catalog()["Alg2_4"].params})):
        for n in (1, 2, 3):
            assert_coboundary_matches_oracle(A, TreeCochain.zero(n, A.dim), (A.name, n, "zero"))
            for t in range(len(trees(n))):
                f = TreeCochain(n, A.dim, {
                    (t, tuple(rng.randrange(A.dim) for _ in range(n))): tuple(rng.randint(-3, 3) for _ in range(A.dim))
                    for _ in range(4)
                })
                assert set(key[0] for key in f.data) <= {t}
                assert_coboundary_matches_oracle(A, f, (A.name, n, t))
    for n in (1, 2, 3, 4):
        assert_coboundary_matches_oracle(nil2(), HochschildCochain.zero(n, 2), ("nil2", n, "zero"))


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
    """C^n, Z^n and B^n from compatible coordinates, B^n pushed from the
    pivot columns, equal row for row the spaces eliminated over every
    coordinate of every tree.  The rank report gives their dimensions,
    and its containment flag is the oracle's B^n inside its Z^n."""
    rng = random.Random(83)
    cases = []
    for entry in catalog().values():
        cases += [(entry.build(**{p: 1 for p in entry.params}), n) for n in (1, 2, 3, 4)]
        cases += [(entry.build(**rand_bindings(entry, rng, count=1)[0]), n) for n in (1, 2, 3)]
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
        rep = cohomology_report(X, n)
        C, Z, B = want
        assert (rep.compatible_dim, rep.cocycle_dim, rep.coboundary_dim) == (C.dim, Z.dim, B.dim), (X, n)
        assert rep.contained == Z.contains_space(B), (X, n)
        assert rep.cohomology_dim == (Z.dim - B.dim if rep.contained else None), (X, n)


def test_rank_of_delta_g_matches_a_modular_rank():
    """r_n = dim C^n - dim Z^n is the rank of delta^n . G, G the canonical
    basis of C^n; here that product is formed from the ambient delta rows
    and ranked modulo a prime by the oracle.  It is also dim B^(n+1)."""
    for entry in catalog().values():
        A = entry.build(**{p: 1 for p in entry.params})
        for n in (1, 2, 3):
            G = dialg_compatible_space(A, n).sparse_rows()
            at: dict[int, list] = {}
            for g, row in enumerate(G):
                for j, v in row:
                    at.setdefault(j, []).append((g, v))
            product = set()
            for drow in dialg_coboundary_rows(A, n):
                acc: dict[int, Fraction] = {}
                for j, c in drow.items():
                    for g, v in at.get(j, ()):
                        acc[g] = acc.get(g, 0) + c * v
                product.add(tuple(sorted((g, v) for g, v in acc.items() if v)))
            dense = [[row.get(g, 0) for g in range(len(G))] for row in map(dict, sorted(product))]
            rep = cohomology_report(A, n)
            r = oracles.rank_mod(dense, oracles.PRIMES[n])
            assert r == rep.compatible_dim - rep.cocycle_dim, (A.name, n)
            assert r == cohomology_report(A, n + 1).coboundary_dim, (A.name, n)


def certificate_cases():
    """(structure, degrees) for the singleton pass against every row of
    delta . G: the catalog at four bindings, ten random-table dialgebras,
    the perturbed Alg2_2, nil2, both Ex43 readings in both complexes and the
    witnesses D and Y, which leave many columns uncovered."""
    rng = random.Random(91)
    cases = []
    for entry in catalog().values():
        for binding in [{p: 1 for p in entry.params}] + rand_bindings(entry, rng):
            cases.append((entry.build(**binding), range(1, 7)))
    for k in range(10):
        twist = Mat.identity(2) if k % 2 else Mat.from_rows([[1, 1], [0, 1]])
        cases.append((BiHomDialgebra(2, random_table(rng), random_table(rng), twist, twist), range(1, 4)))
    cases += [(_perturbed_alg2_2(), range(1, 6)), (nil2(), range(1, 9))]
    for reading in ("Ex43_readingA", "Ex43_readingB"):
        X = build_block(parse_path("corpus/ex43.dlg"), reading)
        cases += [(X, range(1, 6)), (X.as_dialgebra(), range(1, 4))]
    return cases + [(witness(name), range(1, 5)) for name in ("D", "Y")]


def test_singleton_pass_matches_every_row_of_delta_g():
    """r_n, dim B^n, the containment flag, the canonical B^n and, up to
    degree 4, the canonical Z^n read off the singleton pass equal those of
    the full delta^n . G route in `tests/oracles.py`, and so do the pivot
    columns the pass picks."""
    for X, degrees in certificate_cases():
        cx = _complex_of(X)
        for n, (pivots, picked, contained, B, Z) in zip(degrees, oracles.delta_g_routes(cx, degrees)):
            rep = cx.report(n)
            _, elim = cx.singletons(n)
            assert tuple(sorted(elim.pivots)) == pivots, (X, n)
            assert rep.compatible_dim - rep.cocycle_dim == len(elim.pivots) == len(pivots), (X, n)
            assert rep.coboundary_dim == len(picked) == B.dim, (X, n)
            assert rep.contained == contained, (X, n)
            assert cx.coboundaries(n) == B, (X, n)
            assert Z is None or cx.cocycles(n) == Z, (X, n)


def test_cocycle_test_agrees_with_the_canonical_cocycles():
    """The membership test built on the singleton pass accepts a compatible
    cochain exactly when Z^n, built by the oracle from every row of
    delta^n . G, holds it: each basis cochain of C^n, covered column or not,
    and the sums of neighbouring pairs of them."""
    rng = random.Random(17)
    for X, degrees in certificate_cases()[::4]:
        cx = _complex_of(X)
        low = [k for k in degrees if k <= 3]
        for n, (*_, Z) in zip(low, oracles.delta_g_routes(cx, low)):
            killed = cx.cocycle_test(n)
            rows = [dict(r) for r in cx.compatible_space(n).sparse_rows()]
            pairs = [{c: row.get(c, 0) + other.get(c, 0) for c in row.keys() | other.keys()}
                     for row, other in zip(rows, rows[1:] + rows[:1])]
            for x in rng.sample(rows + pairs, min(60, len(rows + pairs))):
                x = {c: v for c, v in x.items() if v}
                assert killed(x) == (not Z.residual(sorted(x.items()))), (X, n)


def test_report_builds_no_full_delta_g_on_the_catalog(monkeypatch):
    """Guard: neither the report nor the cocycles build a row of delta^n . G
    past the unit rows.  On the catalog in degrees 2-6 the one-entry rows
    found from the classes cover every column a row reaches, so the singleton
    pass pushes no column and every row it returns is a unit row; degree 1,
    which the report in degree 2 reads, pushes only the columns left
    uncovered."""
    push = _Complex._push

    def refusing(self, n, rec, picked):
        if n >= 2 and picked and sys._getframe(1).f_code.co_name == "singletons":
            raise AssertionError(f"the singleton pass pushed {len(picked)} columns of delta^{n} . G")
        return push(self, n, rec, picked)

    monkeypatch.setattr(_Complex, "_push", refusing)
    rng = random.Random(23)
    for entry in catalog().values():
        for binding in [{p: 1 for p in entry.params}] + rand_bindings(entry, rng, count=2):
            A = entry.build(**binding)
            cx = _complex_of(A)
            for n in range(2, 7):
                assert cohomology_report(A, n).contained, (A.name, n)
                assert all(len(row) == 1 for row in cx.singletons(n)[0]), (A.name, n)
            for n in range(2, 6):
                assert cx.cocycles(n) == cohomology_spaces(A, n)[1], (A.name, n)


def test_escape_witness_carries_its_coordinate():
    """The ArithmeticError that `cohomology` raises names the escaping
    coordinate in fields as well as in its message."""
    for X, tree in ((broken(), None), (broken().as_dialgebra(), 0)):
        with pytest.raises(CoboundaryEscape) as info:
            cohomology(X, 2)
        e = info.value
        assert isinstance(e, ArithmeticError)
        assert (e.degree, e.tree, e.args, e.output, e.residual) == (2, tree, (0, 1), 0, 1)
        assert str(e).endswith("has residual 1 at " + ("" if tree is None else "tree 0, ") + "args (e1, e2), output e1")
        _, Z, B = cohomology_spaces(X, 2)
        residual = Z.residual(B.sparse_rows()[0])
        assert residual[min(residual)] == e.residual


def test_cohomology_never_eliminates_in_ambient_coordinates(monkeypatch):
    """Structural guard: no kernel is taken over all of C^n's or C^(n-1)'s
    ambient coordinates; only one tree's block and delta . G are solved.
    Every kernel the module takes goes through `nullspace_rows` or, for
    K_n with its forced-zero columns, `_kernel`; both are recorded."""
    widths = []

    def recording(solve):
        def solver(rows, ncols, *zeros):
            widths.append(ncols)
            return solve(rows, ncols, *zeros)
        return solver

    monkeypatch.setattr(bihom.cohomology, "nullspace_rows", recording(nullspace_rows))
    monkeypatch.setattr(bihom.cohomology, "_kernel", recording(_kernel))
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
