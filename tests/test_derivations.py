"""Derivation solvers: re-substitution, closure, embeddings, and the
reconciliation against the reference classification tables."""

import functools
import random
from fractions import Fraction
from itertools import product

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


def test_rows_and_system_leave_out_the_rows_whose_entries_all_cancel():
    """On Alg3_1 at all-2/3 bindings, bidegree (1,1), 30 of the plain
    system's 66 assembled rows and 30 of the triple system's 90 cancel to
    nothing.  `rows` and the dense `system` leave them out, and the
    solutions are those of every assembled row; where every row cancels,
    `system` is still 0 x (number of unknowns)."""
    from bihom.derivations import _system_rows
    from bihom.scalars import nullspace_rows

    entry = catalog()["Alg3_1"]
    A = entry.build(**{p: Fraction(2, 3) for p in entry.params})
    for variant, solve, assembled in (("plain", derivation_space, 66), ("generalized_triple", generalized_triple_space, 90)):
        space = solve(A, BiDegree(1, 1))
        rows, ncols = _system_rows(A, BiDegree(1, 1), variant)
        assert len(rows) == assembled and sum(not r for r in rows) == 30, variant
        assert len(space.rows) == assembled - 30 and all(space.rows), variant
        assert space.system.shape == (len(space.rows), ncols), variant
        assert space.solutions == nullspace_rows(rows, ncols), variant
    untwisted_zero = BiHomDialgebra(2, zero_table(2), zero_table(2), Mat.identity(2), Mat.identity(2))
    space = derivation_space(untwisted_zero, BiDegree(1, 1))  # every row cancels
    assert space.rows == () and space.system.shape == (0, 4) and space.dim == 4


def test_every_leibniz_consumer_reads_the_one_slot_table(monkeypatch):
    """The twisted Leibniz rule is tabulated by one function, `_slot_terms`.
    With it wrapped, each consumer reads it, over the maps it is written
    for: the four solvers over K's basis maps, once per solve, and
    `classify` once per bidegree, not once per variant; `rows`,
    `quasi_partner` and the triviality solve over the n^2 elementary maps,
    the last once per base; `derivation_report` and
    `from_differential_algebra` over the one map they check, once per
    product."""
    import bihom.algebra
    import bihom.derivations
    from bihom.algebra import from_differential_algebra
    from bihom.deformation import TruncatedDeformation, solve_triviality
    from bihom.derivations import _commuting
    from test_algebra import _upper_triangular

    original, calls = bihom.algebra._slot_terms, []

    def counting(products, wc, maps):
        calls.append(len(maps))
        return original(products, wc, maps)

    monkeypatch.setattr(bihom.algebra, "_slot_terms", counting)
    monkeypatch.setattr(bihom.derivations, "_slot_terms", counting)

    def reads(call):
        calls.clear()
        call()
        return list(calls)

    A, deg = catalog()["Alg3_1"].build(a=1, b=2, c=3, d=1, f=2), BiDegree(1, 1)
    dim_k = len(_commuting(A)[0])
    spec = GeneralizedSpec(2, -1, Fraction(3, 2))
    for solve in (derivation_space, quasi_derivation_space, generalized_triple_space,
                  lambda A, deg: generalized_derivation_space(A, deg, spec)):
        assert reads(lambda: solve(A, deg)) == [dim_k]
    bindings = [{p: 1 for p in catalog()["Alg3_1"].params}]
    assert len(reads(lambda: classify(["Alg3_1"], bindings, [BiDegree(0, 0), deg]))) == 2
    space = derivation_space(A, deg)
    assert reads(lambda: space.rows) == [9] and reads(lambda: space.system) == []
    assert reads(lambda: quasi_partner(A, deg, Mat.identity(3))) == [9]
    assert reads(lambda: derivation_report(A, Mat.identity(3), deg)) == [1, 1]
    d = Mat.from_rows([[0, 0, 0], [-1, 0, 1], [0, 0, 0]])
    assert reads(lambda: from_differential_algebra(_upper_triangular(), d)) == [1]
    flat = TruncatedDeformation(A)
    assert reads(lambda: [solve_triviality(flat, 3), solve_triviality(flat, 2)]) == [9]
    assert reads(lambda: solve_triviality(TruncatedDeformation(catalog()["Alg2_2"].build(a=2)), 2)) == [4]


def _canonical_sign(row):
    """A nonzero row as its sorted items, negated when its first value is negative."""
    items = sorted(row.items())
    return tuple((c, -v) for c, v in items) if items[0][1] < 0 else tuple(items)


def test_commutation_rows_are_the_degree_one_twist_rows():
    """The commutation rows come from the twist rows of a degree-1 cochain;
    against the entry-by-entry D M - M D reference, with the same Leibniz
    rows after them, the nonzero rows agree as a multiset up to sign and
    every solution space is the same.  The Leibniz rows are the dense
    reference's, written from the definition."""
    from bihom.derivations import _VARIANTS
    from bihom.scalars import nullspace_rows

    rng = random.Random(2402)
    spec = GeneralizedSpec(2, -1, Fraction(3, 2))
    solvers = {
        "plain": derivation_space,
        "generalized": lambda A, deg: generalized_derivation_space(A, deg, spec),
        "quasi": quasi_derivation_space,
        "generalized_triple": generalized_triple_space,
    }
    cases = 0
    for name, entry in sorted(catalog().items()):
        for binding in [{p: 1 for p in entry.params}] + bindings_for(entry, rng, count=2):
            A = entry.build(**binding)
            for deg in (BiDegree(0, 0), BiDegree(1, 1), BiDegree(2, 1)):
                for variant, solve in solvers.items():
                    space = solve(A, deg)
                    components, *blocks = _VARIANTS[variant]
                    weights = (spec.alpha, spec.beta, spec.gamma) if variant == "generalized" else (1, 1, 1)
                    reference = oracles.commutation_rows(A, components) + oracles.leibniz_rows(
                        A, A.twist_power(deg.k, deg.l), blocks, tuple(map(Fraction, weights)))
                    got = sorted(_canonical_sign(dict(r)) for r in space.rows if r)
                    assert got == sorted(_canonical_sign(r) for r in reference if r), (name, binding, deg, variant)
                    assert space.solutions == nullspace_rows(reference, components * A.dim**2), (name, deg, variant)
                    cases += 1
    assert cases == 9 * 3 * 3 * 4


def test_solvers_read_no_dense_twist_entry(monkeypatch):
    """The four solvers assemble every row from the sparse form: with
    `Mat.__getitem__` refusing, each still answers, and as before."""
    spec = GeneralizedSpec(1, 2, -1)
    solvers = (derivation_space, quasi_derivation_space, generalized_triple_space,
               lambda A, deg: generalized_derivation_space(A, deg, spec))
    structures = [entry.build(**{p: 2 for p in entry.params}) for _, entry in sorted(catalog().items())]
    want = [solve(A, BiDegree(1, 1)).solutions for A in structures for solve in solvers]

    def refuse(self, ij):
        raise AssertionError("dense twist entry read")

    monkeypatch.setattr(Mat, "__getitem__", refuse)
    assert [solve(A, BiDegree(1, 1)).solutions for A in structures for solve in solvers] == want


def _row_route_cases():
    """(structure, bidegree) pairs for the cross-check of the two solve routes:
    every catalog family at the unit binding and two non-integral ones at
    four bidegrees, the witnesses D and Y (invertible twists) at three
    negative bidegrees, and Ex43 reading A, whose phi and psi differ."""
    from pathlib import Path

    from bihom.dsl import build_block, parse_path

    rng = random.Random(3303)
    cases = []
    for _, entry in sorted(catalog().items()):
        bindings = [{p: 1 for p in entry.params}] + [
            {p: Fraction(rng.choice((-7, -5, -1, 1, 5, 7)), rng.choice((2, 3, 4))) for p in entry.params} for _ in range(2)]
        for binding in bindings:
            A = entry.build(**binding)
            cases += [(A, BiDegree(k, l)) for k, l in ((0, 0), (1, 1), (2, 1), (0, 3))]
    fixtures = Path(__file__).parent / "fixtures" / "deep_degrees"
    for name in ("D", "Y"):
        A = build_block(parse_path(fixtures / f"witness_{name.lower()}.dlg"), name)
        cases += [(A, BiDegree(k, l)) for k, l in ((-1, 0), (-2, -1), (-1, 2))]
    ex43 = build_block(parse_path(Path(__file__).parent.parent / "corpus" / "ex43.dlg"), "Ex43_readingA").as_dialgebra()
    assert ex43.phi != ex43.psi
    cases += [(ex43, BiDegree(k, l)) for k, l in ((0, 0), (1, 1), (2, 1))]
    return cases


ROW_ROUTE_SPECS = (GeneralizedSpec(0, 1, -1), GeneralizedSpec(1, 0, 0), GeneralizedSpec(2, -1, Fraction(3, 2)))


def test_commuting_coordinates_match_the_row_route():
    """The solve in commuting coordinates gives exactly the canonical kernel
    of the full system of commutation and Leibniz rows, for every variant
    and, for the weighted one, three specs including zero weights."""
    from bihom.derivations import _system_rows
    from bihom.scalars import nullspace_rows

    cases = 0
    for A, deg in _row_route_cases():
        spaces = [(s, None) for s in (derivation_space(A, deg), quasi_derivation_space(A, deg),
                                      generalized_triple_space(A, deg))]
        spaces += [(generalized_derivation_space(A, deg, spec), spec) for spec in ROW_ROUTE_SPECS]
        for space, spec in spaces:
            want = nullspace_rows(*_system_rows(A, deg, space.variant, spec))
            assert space.solutions == want, (A, deg, space.variant, spec)
            cases += 1
    assert cases == (9 * 3 * 4 + 2 * 3 + 3) * 6


def test_leibniz_rows_match_the_dense_reference_row_for_row():
    """`leibniz_rows`, the slot terms of the elementary maps wired to their
    blocks, equals the reference written from the definition row for row:
    one row per product, basis pair and output coordinate, empty rows in
    the same positions and every value a Fraction, for each variant's
    wiring at each spec's weights, on every row-route case."""
    from bihom.algebra import leibniz_rows
    from bihom.derivations import _VARIANTS

    cases = 0
    for A, deg in _row_route_cases():
        W = A.twist_power(deg.k, deg.l)
        for (_, *blocks), spec in product(_VARIANTS.values(), ROW_ROUTE_SPECS):
            weights = (spec.alpha, spec.beta, spec.gamma)
            got = leibniz_rows(tuple(A.cells.values()), W, tuple(blocks), weights)
            assert got == oracles.leibniz_rows(A, W, blocks, weights), (A, deg, blocks, spec)
            assert all(type(v) is Fraction for row in got for v in row.values())
            cases += 1
    assert cases == (9 * 3 * 4 + 2 * 3 + 3) * 4 * 3


def test_a_space_is_built_with_its_structure():
    """A space always carries the structure and spec it was solved for, so
    it compares, hashes and reads its rows; there is no structure-less
    default to leave `rows` nothing to read."""
    from bihom.derivations import DerivationSpace

    with pytest.raises(TypeError):
        DerivationSpace("plain", BiDegree(0, 0), Subspace(4), 2)
    A = catalog()["Alg2_2"].build(a=2)
    space = derivation_space(A, BiDegree(0, 0))
    twin = DerivationSpace(space.variant, space.bidegree, space.solutions, space.algebra_dim, None, A)
    assert twin == space and hash(twin) == hash(space)
    assert twin.rows == space.rows and twin.system == space.system


def test_a_solve_reads_no_leibniz_row(monkeypatch):
    """With the Leibniz rows and the full system refusing, the four solvers
    and `classify` answer exactly as before; once restored, `rows` and
    `system` read as the row route's and the space stays hashable."""
    import bihom.derivations
    from bihom.derivations import _system_rows

    spec = GeneralizedSpec(2, -1, Fraction(3, 2))
    solvers = (derivation_space, quasi_derivation_space, generalized_triple_space,
               lambda A, deg: generalized_derivation_space(A, deg, spec))
    names = sorted(catalog())
    bindings = [{p: Fraction(2, 3) for p in catalog()[n].params} for n in names]
    structures = [catalog()[n].build(**b) for n, b in zip(names, bindings)]
    degrees = (BiDegree(1, 1), BiDegree(2, 0))
    want = [solve(A, deg).solutions for A in structures for deg in degrees for solve in solvers]
    want_report = classify(names, bindings, list(degrees)).lines()

    def refuse(*args, **kwargs):
        raise AssertionError("row route taken")

    with monkeypatch.context() as patched:
        patched.setattr(bihom.derivations, "leibniz_rows", refuse)
        patched.setattr(bihom.derivations, "_system_rows", refuse)
        spaces = [solve(A, deg) for A in structures for deg in degrees for solve in solvers]
        assert [s.solutions for s in spaces] == want
        assert classify(names, bindings, list(degrees)).lines() == want_report
    for space in spaces:
        A, deg = space.structure, space.bidegree
        rows, ncols = _system_rows(A, deg, space.variant, space.spec)
        assert space.rows == tuple(tuple(sorted(r.items())) for r in rows if r)
        assert space.system.shape == (len(space.rows), ncols)
        assert space.system.row(0) == tuple(dict(space.rows[0]).get(j, 0) for j in range(ncols))
        hash(space)
    assert spaces[0] == derivation_space(structures[0], degrees[0]) and spaces[0] != spaces[1]
