"""Derivation solvers: re-substitution, closure, embeddings, and the
reconciliation against the reference classification tables."""

import functools
import random
from fractions import Fraction

import pytest

from bihom.algebra import BiHomDialgebra, apply_table, catalog, table_from_entries, zero_table
from bihom.derivations import (
    BiDegree,
    Derivation,
    GeneralizedSpec,
    classify,
    commutator,
    conjugate,
    derivation_report,
    derivation_space,
    generalized_derivation_space,
    generalized_triple_space,
    quasi_derivation_space,
    quasi_partner,
    reference_family_dim3,
)
from bihom.scalars import Mat, Subspace

import oracles

DEGREES = (BiDegree(0, 0), BiDegree(1, 0), BiDegree(0, 1), BiDegree(1, 1))


def rand_q(rng):
    return Fraction(rng.randint(-5, 5), rng.randint(1, 3))


def bindings_for(entry, rng, count=3):
    out = []
    for _ in range(count):
        b = {}
        for p in entry.params:
            v = rand_q(rng)
            while v == 0:
                v = rand_q(rng)
            b[p] = v
        out.append(b)
    return out


def test_resubstitution_across_catalog():
    """Every basis element of every solved space satisfies the defining
    identities exactly."""
    rng = random.Random(5)
    for name, entry in catalog().items():
        for binding in bindings_for(entry, rng):
            A = entry.build(**binding)
            for deg in DEGREES:
                space = derivation_space(A, deg)
                for (D,) in space.basis_matrices():
                    rep = derivation_report(A, D, deg)
                    assert rep.ok, (name, binding, deg, rep.laws_violated())


def upper_triangular():
    """2x2 upper triangular matrices on e11, e12, e22, both products the
    matrix product, identity twists: a non-commutative dialgebra, so the
    left and right slots of the Leibniz law differ."""
    table = table_from_entries(3, {(1, 1): {1: 1}, (1, 2): {2: 1}, (2, 3): {2: 1}, (3, 3): {3: 1}})
    return BiHomDialgebra(3, table, table, Mat.identity(3), Mat.identity(3), name="upper")


def test_every_variant_satisfies_its_identity():
    """Each basis tuple of each variant, re-substituted into its own law:
    every map commutes with phi and psi, and for both products
    alpha L(x o y) = beta (W x o R y) + gamma (P x o W y), with L, P, R
    the maps the variant puts on the left-hand side, in the left slot
    and in the right slot."""
    rng = random.Random(10)
    unit = (1, 1, 1)
    variants = [
        (derivation_space, unit, lambda D: (D, D, D)),
        (quasi_derivation_space, unit, lambda D, D1: (D1, D, D)),
        (generalized_triple_space, unit, lambda D, D1, D2: (D2, D, D1)),
    ]
    for spec in (GeneralizedSpec(2, -1, Fraction(3, 2)), GeneralizedSpec(1, 1, 0)):
        variants.append((functools.partial(generalized_derivation_space, spec=spec),
                         (spec.alpha, spec.beta, spec.gamma), lambda D: (D, D, D)))
    algebras = [e.build(**bindings_for(e, rng, count=1)[0]) for e in catalog().values()]
    checked = [0] * len(variants)
    for A in algebras + [upper_triangular()]:
        n = A.dim
        for deg in (BiDegree(0, 0), BiDegree(1, 1)):
            W = A.twist_power(deg.k, deg.l)
            for v, (solver, (alpha, beta, gamma), slots) in enumerate(variants):
                for mats in solver(A, deg).basis_matrices():
                    for M in mats:
                        assert M @ A.phi == A.phi @ M and M @ A.psi == A.psi @ M
                    L, P, R = slots(*mats)
                    for op in ("dashv", "vdash"):
                        table = A.table(op)
                        for a in range(n):
                            for b in range(n):
                                x, y = A.e(a), A.e(b)
                                lhs = L.apply(apply_table(table, x, y))
                                right = apply_table(table, W.apply(x), R.apply(y))
                                left = apply_table(table, P.apply(x), W.apply(y))
                                for k in range(n):
                                    assert alpha * lhs[k] == beta * right[k] + gamma * left[k], (
                                        A.name, deg, v, op, a, b
                                    )
                    checked[v] += 1
    assert all(checked), checked


def test_solution_spaces_are_linear():
    rng = random.Random(6)
    for name in ("Alg2_1", "Alg3_2"):
        entry = catalog()[name]
        binding = bindings_for(entry, rng, count=1)[0]
        A = entry.build(**binding)
        space = derivation_space(A, BiDegree(1, 1))
        rows = space.solutions.basis_rows()
        if not rows:
            continue
        for _ in range(5):
            combo = [Fraction(0)] * len(rows[0])
            for row in rows:
                c = rand_q(rng)
                combo = [x + c * y for x, y in zip(combo, row)]
            assert space.solutions.contains(combo)
            (D,) = space.matrices(combo)
            assert derivation_report(A, D, BiDegree(1, 1)).ok


def test_system_nullity_against_independent_solver():
    rng = random.Random(7)
    cells = [
        ("Alg2_2", {"a": 1}, BiDegree(1, 1)),
        ("Alg3_3", {"b": 1}, BiDegree(1, 1)),
        ("Alg3_1", {"a": 1, "b": 2, "c": 3, "d": 1, "f": 2}, BiDegree(0, 0)),
    ]
    for name, binding, deg in cells:
        A = catalog()[name].build(**binding)
        weighted = functools.partial(
            generalized_derivation_space, spec=GeneralizedSpec(2, -1, Fraction(3, 2))
        )
        solvers = (derivation_space, weighted, quasi_derivation_space, generalized_triple_space)
        for solver in solvers:
            space = solver(A, deg)
            assert space.dim == oracles.nullspace_dim(
                space.system, seed=rng.randint(0, 2**30)
            )


def test_commutator_closure():
    """[D1, D2] of two (1,1)-derivations is a (2,2)-derivation, and the
    mixed-degree version adds bidegrees."""
    for name, entry in catalog().items():
        A = entry.build(**{p: 1 for p in entry.params})
        deg = BiDegree(1, 1)
        basis = [D for (D,) in derivation_space(A, deg).basis_matrices()]
        target = derivation_space(A, BiDegree(2, 2))
        for D1 in basis:
            for D2 in basis:
                C = commutator(Derivation(D1, deg), Derivation(D2, deg))
                assert C.bidegree == BiDegree(2, 2)
                assert target.contains(C.matrix), name
    A = catalog()["Alg2_2"].build(a=1)
    d10 = derivation_space(A, BiDegree(1, 0))
    d01 = derivation_space(A, BiDegree(0, 1))
    t11 = derivation_space(A, BiDegree(1, 1))
    for (D1,) in d10.basis_matrices():
        for (D2,) in d01.basis_matrices():
            C = commutator(Derivation(D1, BiDegree(1, 0)), Derivation(D2, BiDegree(0, 1)))
            assert t11.contains(C.matrix)


def test_commutator_requires_matching_dimension():
    with pytest.raises(ValueError):
        commutator(
            Derivation(Mat.identity(2), BiDegree(0, 0)),
            Derivation(Mat.identity(3), BiDegree(0, 0)),
        )


def test_generalized_with_unit_weights_is_plain():
    rng = random.Random(8)
    spec = GeneralizedSpec(1, 1, 1)
    for name, entry in catalog().items():
        binding = bindings_for(entry, rng, count=1)[0]
        A = entry.build(**binding)
        for deg in (BiDegree(0, 0), BiDegree(1, 1)):
            plain = derivation_space(A, deg)
            gen = generalized_derivation_space(A, deg, spec)
            assert gen.solutions == plain.solutions


def test_plain_derivations_embed_into_quasi():
    for name, entry in catalog().items():
        A = entry.build(**{p: 1 for p in entry.params})
        for deg in (BiDegree(0, 0), BiDegree(1, 1)):
            quasi = quasi_derivation_space(A, deg)
            for (D,) in derivation_space(A, deg).basis_matrices():
                assert quasi.contains(D, D), name


def test_plain_derivations_embed_into_triples():
    """(D, D, D) always solves the triple system.  (D, D, 2D) additionally
    needs D to vanish on all products, which holds for the catalog bases
    at degree (1, 1); it is asserted only there."""
    deg = BiDegree(1, 1)
    for name, entry in catalog().items():
        A = entry.build(**{p: 1 for p in entry.params})
        triple = generalized_triple_space(A, deg)
        for (D,) in derivation_space(A, deg).basis_matrices():
            assert triple.contains(D, D, D), name
            assert triple.contains(D, D, D.scale(2)), name


def test_quasi_partner_solves_for_the_second_map():
    A = catalog()["Alg2_2"].build(a=1)
    deg = BiDegree(1, 1)
    quasi = quasi_derivation_space(A, deg)
    for (D,) in derivation_space(A, deg).basis_matrices():
        got = quasi_partner(A, deg, D)
        assert got is not None
        part, hom = got
        assert quasi.contains(D, part)
        zero = Mat.zeros(2, 2)
        for row in hom.basis_rows():
            assert quasi.contains(zero, Mat(2, 2, list(row)))


def test_quasi_partner_refuses_an_invalid_map():
    """E11 breaks all four laws on Alg2_2 at (1, 1), and no D' makes
    (E11, D') a quasi-derivation, so there is no partner."""
    A = catalog()["Alg2_2"].build(a=1)
    deg = BiDegree(1, 1)
    e11 = Mat.from_rows([[1, 0], [0, 0]])
    assert set(derivation_report(A, e11, deg).laws_violated()) == {
        "commute_phi", "commute_psi", "leibniz_dashv", "leibniz_vdash"
    }
    assert not quasi_derivation_space(A, deg).projection(0).contains(e11.entries())
    assert quasi_partner(A, deg, e11) is None
    with pytest.raises(ValueError):
        quasi_partner(A, deg, Mat.identity(3))


def test_quasi_partner_exists_exactly_on_the_quasi_projection():
    """A partner exists iff D is the first map of some quasi pair; when it
    exists, it and its homogeneous space solve the quasi system."""
    rng = random.Random(9)
    for name, binding in (("Alg2_2", {"a": 1}), ("Alg2_3", {"a": 1, "b": 1, "c": 2, "d": 1}),
                          ("Alg3_3", {"b": 1})):
        A = catalog()[name].build(**binding)
        n = A.dim
        for deg in (BiDegree(0, 0), BiDegree(1, 1)):
            quasi = quasi_derivation_space(A, deg)
            first = quasi.projection(0)
            candidates = [Mat(n, n, [int(k == c) for k in range(n * n)]) for c in range(n * n)]
            candidates += [D for D, _ in quasi.basis_matrices()]
            candidates += [Mat(n, n, [rng.randint(-2, 2) for _ in range(n * n)]) for _ in range(5)]
            found = 0
            for D in candidates:
                got = quasi_partner(A, deg, D)
                assert (got is not None) == first.contains(D.entries()), (name, deg, D)
                if got is None:
                    continue
                found += 1
                part, hom = got
                assert quasi.contains(D, part)
                for row in hom.basis_rows():
                    assert quasi.contains(Mat.zeros(n, n), Mat(n, n, list(row)))
            assert found, (name, deg)


def test_known_basis_for_dim3_family():
    A = catalog()["Alg3_3"].build(b=1)
    space = derivation_space(A, BiDegree(1, 1))
    assert space.dim == 2
    mats = [D for (D,) in space.basis_matrices()]
    e12 = Mat.from_rows([[0, 1, 0], [0, 0, 0], [0, 0, 0]])
    e33 = Mat.from_rows([[0, 0, 0], [0, 0, 0], [0, 0, 1]])
    assert mats == [e12, e33]


def test_quasi_dims_for_2dim_family():
    A = catalog()["Alg2_2"].build(a=1)
    space = quasi_derivation_space(A, BiDegree(1, 1))
    assert space.solutions.dim == 3
    assert space.projection(0).dim == 2
    assert space.projection(1).dim == 1


def test_triple_dim_at_degree_zero():
    A = catalog()["Alg2_1"].build(a=1, b=1, c=1, d=1, f=1)
    space = generalized_triple_space(A, BiDegree(0, 0))
    assert space.solutions.dim == 4


def test_quoted_dim3_solution_family_fails_resubstitution():
    """The quoted parametric family for the first 3-dim algebra does not
    satisfy the identities at (1,2,3,1,2); the exact violation set per
    generator is frozen here."""
    A = catalog()["Alg3_1"].build(a=1, b=2, c=3, d=1, f=2)
    g012 = reference_family_dim3(1, 2, 3, 1, 2)
    expected = [
        {"commute_phi", "commute_psi", "leibniz_dashv", "leibniz_vdash"},
        {"commute_phi", "commute_psi"},
        {"commute_psi"},
    ]
    for g, laws in zip(g012, expected):
        rep = derivation_report(A, g, BiDegree(1, 1))
        assert set(rep.laws_violated()) == laws


def test_reference_family_rejects_zero_denominator():
    with pytest.raises(ValueError):
        reference_family_dim3(1, 1, 1, 1, 0)


def test_conjugate_by_identity_and_scalars():
    A = catalog()["Alg2_2"].build(a=1)
    deg = BiDegree(1, 1)
    (D,) = derivation_space(A, deg).basis_matrices()[0]
    assert conjugate(Mat.identity(2), D, A) == D
    # scalar maps are morphisms only when the products vanish
    Z = BiHomDialgebra(2, zero_table(2), zero_table(2), Mat.identity(2), Mat.identity(2))
    M = Mat.from_rows([[1, 2], [0, 1]])
    assert conjugate(Mat.identity(2).scale(2), M, Z) == M
    with pytest.raises(ValueError):
        conjugate(Mat.identity(2).scale(2), D, A)


def test_negative_bidegree_requires_regular_twists():
    A = catalog()["Alg2_2"].build(a=1)
    with pytest.raises(ValueError):
        derivation_space(A, BiDegree(-1, 0))
    R = BiHomDialgebra(2, zero_table(2), zero_table(2),
                       Mat.from_rows([[2, 0], [0, 1]]), Mat.identity(2))
    # maps commuting with diag(2, 1) are the diagonal ones
    space = derivation_space(R, BiDegree(-1, -1))
    assert space.dim == 2


def test_classification_snapshot_at_unit_binding():
    """Computed dimensions vs the reference table, frozen.  The solver is
    the ground truth; reference values are annotations."""
    names = sorted(catalog())
    bindings = [{p: 1 for p in catalog()[n].params} for n in names]
    rep = classify(names, bindings, [BiDegree(1, 1)])
    assert len(rep.cells) == 27
    assert sum(1 for c in rep.cells if c.agrees) == 16
    assert sum(1 for c in rep.cells if c.agrees is False) == 11
    by_key = {(c.algebra, c.variant): c for c in rep.cells}
    for name in ("Alg2_1", "Alg2_3"):
        cell = by_key[(name, "plain")]
        assert cell.computed == (1,) and cell.reference == (2,)
    for name in ("Alg2_2", "Alg2_4"):
        cell = by_key[(name, "plain")]
        assert cell.computed == (1,) and cell.agrees
    for name in ("Alg3_1", "Alg3_2", "Alg3_3", "Alg3_4", "Alg3_5"):
        assert by_key[(name, "plain")].computed == (2,)
        assert by_key[(name, "plain")].agrees
        assert by_key[(name, "quasi")].computed == (3, 2)
        assert by_key[(name, "quasi")].agrees
        cell = by_key[(name, "generalized_triple")]
        assert cell.computed == (3, 3, 2) and cell.reference == (3, 6, 4)
    for name in ("Alg2_1", "Alg2_2", "Alg2_3", "Alg2_4"):
        assert by_key[(name, "quasi")].computed == (2, 1)
        cell = by_key[(name, "generalized_triple")]
        assert cell.computed == (2, 2, 1) and cell.reference == (2, 2, 3)
    lines = rep.lines()
    assert len(lines) == 27
    assert any("DIFFERS" in line for line in lines)


def test_shape_containment_flags_at_unit_binding():
    names = sorted(catalog())
    bindings = [{p: 1 for p in catalog()[n].params} for n in names]
    rep = classify(names, bindings, [BiDegree(1, 1)])
    for c in rep.cells:
        if c.variant == "plain" and c.algebra.startswith("Alg2"):
            assert c.shape_contained == (False,)
        if c.variant == "plain" and c.algebra.startswith("Alg3"):
            assert c.shape_contained == (True,)
        if c.variant == "quasi" and c.algebra.startswith("Alg2"):
            assert c.shape_contained == (True, False)
        if c.variant == "quasi" and c.algebra.startswith("Alg3"):
            assert c.shape_contained == (True, True)
        if c.variant == "generalized_triple":
            assert c.shape_contained == (True, False, True)


@pytest.mark.parametrize("variant", ["generalized", "derivation"])
def test_classify_refuses_a_variant_it_cannot_solve(variant):
    with pytest.raises(ValueError, match=f"variant '{variant}'"):
        classify(["Alg2_2"], [{"a": 1}], [BiDegree(1, 1)], variants=("plain", variant))


def test_classify_refuses_names_and_bindings_of_different_lengths():
    with pytest.raises(ValueError, match="2 names, 1 bindings"):
        classify(["Alg2_2", "Alg2_1"], [{"a": 1}], [BiDegree(1, 1)])


def _solve_every_variant(A, deg):
    spec = GeneralizedSpec(2, Fraction(-1, 3), 5)
    return (
        derivation_space(A, deg),
        generalized_derivation_space(A, deg, spec),
        quasi_derivation_space(A, deg),
        generalized_triple_space(A, deg),
    )


def test_solves_classify_and_projections_stay_sparse(monkeypatch):
    """No solve, classification or projection builds a dense matrix or
    eliminates dense vectors; only reading `system` densifies."""
    def refuse(*args, **kwargs):
        raise AssertionError("dense route taken")

    monkeypatch.setattr(Mat, "from_rows", staticmethod(refuse))
    monkeypatch.setattr(Subspace, "__init__", refuse)
    names = sorted(catalog())
    bindings = [{p: 1 for p in catalog()[n].params} for n in names]
    assert len(classify(names, bindings, [BiDegree(1, 1)]).cells) == 27
    for name, binding in zip(names, bindings):
        A = catalog()[name].build(**binding)
        for space in _solve_every_variant(A, BiDegree(1, 1)):
            assert all(space.projection(c).dim >= 0 for c in range(space.components))
    with pytest.raises(AssertionError, match="dense route"):
        space.system


def test_projection_matches_the_dense_route():
    """Each projection equals the span of the dense slices of the basis,
    eliminated from scratch by `Subspace`."""
    rng = random.Random(17)
    cases = 0
    for name, entry in sorted(catalog().items()):
        for binding in [{p: 1 for p in entry.params}] + bindings_for(entry, rng, count=1):
            A = entry.build(**binding)
            nn = A.dim * A.dim
            for deg in (BiDegree(0, 0), BiDegree(1, 1), BiDegree(0, 1), BiDegree(2, 0)):
                for space in _solve_every_variant(A, deg):
                    rows = space.solutions.basis_rows()
                    for c in range(space.components):
                        dense = Subspace(nn, [row[c * nn : (c + 1) * nn] for row in rows])
                        assert space.projection(c) == dense, (name, binding, deg, space.variant, c)
                        cases += 1
    assert cases == 9 * 2 * 4 * 7


def test_system_is_the_dense_form_of_the_sparse_rows():
    A = catalog()["Alg3_1"].build(a=1, b=2, c=3, d=1, f=2)
    for space in _solve_every_variant(A, BiDegree(1, 1)):
        M = space.system
        assert M.shape == (len(space.rows), space.solutions.ambient_dim)
        for i, row in enumerate(space.rows):
            assert [c for c, _ in row] == sorted(c for c, _ in row)
            assert M.row(i) == tuple(dict(row).get(j, 0) for j in range(M.cols))
        hash(space)  # the rows are tuples, so the frozen space stays hashable


def test_leibniz_rows_are_written_once():
    import bihom.algebra
    import bihom.derivations

    assert bihom.derivations.leibniz_rows is bihom.algebra.leibniz_rows
