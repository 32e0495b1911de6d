import random
from fractions import Fraction

import pytest

from bihom.algebra import (
    BiHomDialgebra,
    assoc_readings,
    catalog,
    check_bihom_associative,
    check_dialgebra,
    from_differential_algebra,
    is_morphism,
    is_multiplicative,
    is_regular,
    law_residual,
    map_from_entries,
    table_from_entries,
    vec_sub,
)
from bihom.scalars import Mat
from bihom.trees import DASHV, VDASH


def rand_q(rng, nonzero=False):
    num = rng.randint(-6, 6)
    while nonzero and num == 0:
        num = rng.randint(-6, 6)
    return Fraction(num, rng.randint(1, 4))


def test_catalog_census():
    cat = catalog()
    assert len(cat) == 9
    assert {e.dim for e in cat.values()} == {2, 3}
    assert cat["Alg2_1"].params == ("a", "b", "c", "d", "f")
    assert cat["Alg2_2"].params == ("a",)
    assert cat["Alg3_1"].params == ("a", "b", "c", "d", "f")
    for name in ("Alg3_2", "Alg3_3", "Alg3_4", "Alg3_5"):
        assert cat[name].params == ("b",)


def test_catalog_axioms_hold_at_random_bindings():
    """Every family satisfies twist commutation and all five laws for
    arbitrary rational parameter values."""
    rng = random.Random(20240817)
    for name, entry in catalog().items():
        for _ in range(5):
            binding = {p: rand_q(rng, nonzero=True) for p in entry.params}
            A = entry.build(**binding)
            rep = check_dialgebra(A)
            assert rep.ok, f"{name} at {binding}: {rep.laws_violated()}"


def test_catalog_twists_are_multiplicative_but_singular():
    rng = random.Random(3)
    for name, entry in catalog().items():
        binding = {p: rand_q(rng, nonzero=True) for p in entry.params}
        A = entry.build(**binding)
        assert is_multiplicative(A).ok, name
        assert not is_regular(A), name


def test_build_rejects_bad_parameters():
    entry = catalog()["Alg2_2"]
    with pytest.raises(ValueError):
        entry.build()
    with pytest.raises(ValueError):
        entry.build(a=1, z=2)


def _perturbed_alg2_2():
    # break right_right by an extra e2 |- e2 component on the vdash side
    A = catalog()["Alg2_2"].build(a=1)
    vdash = table_from_entries(
        2, {(1, 2): {1: 1}, (2, 1): {1: 1}, (2, 2): {2: 1}}
    )
    return BiHomDialgebra(2, A.dashv, vdash, A.phi, A.psi, name="broken")


def test_check_dialgebra_reports_violations():
    rep = check_dialgebra(_perturbed_alg2_2())
    assert not rep.ok
    assert rep.laws_violated()
    v = rep.violations[0]
    assert v.describe(("e1", "e2"))


def test_law_residual_is_trilinear():
    """Residual on arbitrary vectors must equal its basis expansion;
    checked on an invalid algebra so the residuals are nonzero."""
    A = _perturbed_alg2_2()
    rng = random.Random(11)
    laws = ("left_left", "left_right", "middle", "right_left", "right_right")
    for _ in range(10):
        law = laws[rng.randrange(5)]
        x = tuple(rand_q(rng) for _ in range(2))
        y = tuple(rand_q(rng) for _ in range(2))
        z = tuple(rand_q(rng) for _ in range(2))
        direct = law_residual(A, law, x, y, z)
        expanded = (Fraction(0),) * 2
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    c = x[i] * y[j] * z[k]
                    if c:
                        r = law_residual(A, law, A.e(i), A.e(j), A.e(k))
                        expanded = tuple(e + c * v for e, v in zip(expanded, r))
        assert direct == expanded


def test_twist_commutation_is_checked():
    phi = map_from_entries(2, {1: {1: 1}, 2: {1: 1}})
    psi = map_from_entries(2, {1: {2: 1}, 2: {2: 1}})
    A = BiHomDialgebra(2, table_from_entries(2, {}), table_from_entries(2, {}), phi, psi)
    rep = check_dialgebra(A)
    assert "twist_commute" in rep.laws_violated()


def test_one_product_readings_fail_axioms():
    """Both readings of the ambiguous 3-dim one-product example violate
    the axioms; the twist maps do not even commute."""
    for name, A in assoc_readings().items():
        rep = check_bihom_associative(A)
        assert not rep.ok, name
        assert "twist_commute" in rep.laws_violated()
        assert "bihom_assoc" in rep.laws_violated()


def _upper_triangular():
    # basis E11, E12, E22 of 2x2 upper triangular matrices
    from bihom.algebra import BiHomAssociativeAlgebra

    mul = table_from_entries(
        3,
        {
            (1, 1): {1: 1},
            (1, 2): {2: 1},
            (2, 3): {2: 1},
            (3, 3): {3: 1},
        },
    )
    ident = Mat.identity(3)
    return BiHomAssociativeAlgebra(
        3, mul, ident, ident, basis=("E11", "E12", "E22"), name="ut2"
    )


def test_from_differential_algebra_produces_valid_dialgebra():
    A = _upper_triangular()
    assert check_bihom_associative(A).ok
    for beta in (1, -2, Fraction(3, 2)):
        # ad(beta E12): square-zero derivation of the triangular algebra
        d = Mat.from_rows([[0, 0, 0], [-beta, 0, beta], [0, 0, 0]])
        D = from_differential_algebra(A, d)
        assert check_dialgebra(D).ok
        # products are genuinely nonzero
        assert any(
            any(D.dashv[i][j]) or any(D.vdash[i][j])
            for i in range(3)
            for j in range(3)
        )


def test_from_differential_algebra_validates_preconditions():
    A = _upper_triangular()
    not_square_zero = Mat.from_rows([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    with pytest.raises(ValueError, match="square"):
        from_differential_algebra(A, not_square_zero)
    not_leibniz = Mat.from_rows([[0, 0, 0], [1, 0, 0], [0, 0, 0]])
    assert (not_leibniz @ not_leibniz).is_zero()
    with pytest.raises(ValueError, match="Leibniz"):
        from_differential_algebra(A, not_leibniz)
    # unchecked build goes through even with bad data
    D = from_differential_algebra(A, not_square_zero, check=False)
    assert isinstance(D, BiHomDialgebra)


def test_ad_maps():
    from bihom.derivations import ad

    A = catalog()["Alg2_2"].build(a=2)
    assert ad(A, A.e(0)).is_zero()
    inner = ad(A, A.e(1))
    # ad(e2)(e2) = e2 -| psi(e2) - phi(e2) |- e2 = (a - 1) e1
    assert inner.col(1) == (Fraction(1), Fraction(0))
    assert inner.col(0) == (Fraction(0), Fraction(0))
    A1 = catalog()["Alg2_2"].build(a=1)
    assert ad(A1, A1.e(1)).is_zero()


def test_is_morphism_identity_and_failure():
    A = catalog()["Alg2_3"].build(a=1, b=2, c=3, d=4)
    assert is_morphism(Mat.identity(2), A, A).ok
    rep = is_morphism(Mat.from_rows([[1, 1], [0, 1]]), A, A)
    assert not rep.ok


def test_table_entry_validation():
    with pytest.raises(ValueError):
        table_from_entries(2, {(0, 1): {1: 1}})
    with pytest.raises(ValueError):
        table_from_entries(2, {(1, 1): {3: 1}})
    with pytest.raises(ValueError):
        map_from_entries(2, {3: {1: 1}})


def test_dialgebra_value_semantics():
    A = catalog()["Alg2_2"].build(a=1)
    with pytest.raises(AttributeError):
        A.dim = 5
    with pytest.raises(ValueError):
        A.table("mul")
    assert A.op(DASHV)(A.e(1), A.e(1)) == (Fraction(1), Fraction(0))
    assert A.op(VDASH)(A.e(1), A.e(1)) == (Fraction(0), Fraction(0))


def test_residual_describe_names_basis():
    A = _perturbed_alg2_2()
    rep = check_dialgebra(A)
    text = rep.violations[0].describe(A.basis)
    assert "e" in text and "residual" in text


def test_table_entries_must_be_exact():
    """A float or bool entry is refused with the table and the cell named;
    ints and strings are read through `q`, Fraction tables are kept as given."""
    from bihom.algebra import BiHomAssociativeAlgebra, zero_table

    ident = Mat.identity(2)
    half = (((0.5, 0), (0, 0)), ((0, 0), (0, 1)))
    with pytest.raises(TypeError, match=r"dashv table, cell \(0, 0, 0\)"):
        BiHomDialgebra(2, half, zero_table(2), ident, ident)
    flag = (((0, 0), (0, 0)), ((0, True), (0, 0)))
    with pytest.raises(TypeError, match=r"vdash table, cell \(1, 0, 1\)"):
        BiHomDialgebra(2, zero_table(2), flag, ident, ident)
    with pytest.raises(TypeError, match=r"mul table, cell \(0, 0, 0\)"):
        BiHomAssociativeAlgebra(2, half, ident, ident)
    ints = (((1, 0), (0, 0)), ((0, 0), ("1/2", 1)))
    A = BiHomDialgebra(2, ints, ints, ident, ident)
    assert A.dashv == table_from_entries(2, {(1, 1): {1: 1}, (2, 2): {1: Fraction(1, 2), 2: 1}})
    assert all(type(c) is Fraction for row in A.vdash for cell in row for c in cell)
    exact = zero_table(2)
    assert BiHomDialgebra(2, exact, exact, ident, ident).dashv is exact


def test_tables_given_as_lists_are_frozen():
    """A table passed as nested lists is copied into tuples, so assigning
    into the source lists afterwards changes neither the structure's tables
    nor its law checks."""
    A0 = catalog()["Alg2_2"].build(a=1)
    dashv, vdash = ([[list(cell) for cell in row] for row in t] for t in (A0.dashv, A0.vdash))
    A = BiHomDialgebra(2, dashv, vdash, A0.phi, A0.psi)
    assert check_dialgebra(A).ok
    vdash[1][1][1] = Fraction(1)  # the right_right break of `_perturbed_alg2_2`
    dashv[0] = [[Fraction(1), Fraction(0)]] * 2
    assert check_dialgebra(A).ok
    assert (A.dashv, A.vdash) == (A0.dashv, A0.vdash)
    assert not check_dialgebra(BiHomDialgebra(2, dashv, vdash, A0.phi, A0.psi)).ok

    T = _upper_triangular()
    mul = [[list(cell) for cell in row] for row in T.mul]
    B = type(T)(3, mul, T.phi, T.psi)
    assert check_bihom_associative(B).ok and check_dialgebra(B.as_dialgebra()).ok
    mul[0][0][1] = Fraction(1)
    mul[2] = [[Fraction(1)] * 3] * 3
    assert check_bihom_associative(B).ok and check_dialgebra(B.as_dialgebra()).ok
    assert B.mul == T.mul
    assert not check_bihom_associative(type(T)(3, mul, T.phi, T.psi)).ok
