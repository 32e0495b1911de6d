"""Truncated deformations, equivalence transport, triviality solving."""

import random
from fractions import Fraction

import pytest

from bihom.algebra import (
    BiHomDialgebra,
    basis_vec,
    catalog,
    is_morphism,
    leibniz_rows,
    table_from_entries,
)
from bihom.cohomology import (
    HochschildCochain,
    TreeCochain,
    dialg_coboundaries,
    dialg_cocycles,
    dialg_compatible_space,
    random_compatible_cochain,
)
from bihom.deformation import (
    EquivalenceTransformation,
    LAW_FOR_TREE,
    TruncatedDeformation,
    base_change_pullback,
    base_change_pushforward,
    check_equivalence,
    deformation_residual,
    displayed_family_residuals,
    identity_transformation,
    infinitesimal,
    is_deformation_up_to,
    operadic_residual,
    solve_triviality,
    zero_deformation,
)
from bihom.dsl import build_block, parse, parse_path
from bihom.operad import pi_element
from bihom.scalars import Mat

import oracles


def alg22():
    return catalog()["Alg2_2"].build(a=1)


def corpus_d1():
    with open("corpus/deform_alg2_2.dlg") as fh:
        df = parse(fh.read())
    return build_block(df, "D1")


def cocycle_basis(A, n=2):
    return [
        TreeCochain.unflatten(n, A.dim, row)
        for row in dialg_cocycles(A, n).basis_rows()
    ]


def test_zero_deformation_is_valid_at_every_order():
    for name in ("Alg2_2", "Alg3_4"):
        entry = catalog()[name]
        A = entry.build(**{p: 1 for p in entry.params})
        for order in (0, 1, 3):
            defm = zero_deformation(A, order)
            assert defm.order == order
            assert is_deformation_up_to(defm, order).ok
            for n in range(order + 1):
                # order 0 is the base structure's own residual
                assert deformation_residual(defm, n).is_zero()


def test_residual_routes_agree():
    """Direct law-coefficient expansion vs the operad's circle product,
    on a valid deformation and on a broken one."""
    d1 = corpus_d1()
    A = d1.base
    C = dialg_compatible_space(A, 2)
    bad_term = next(
        TreeCochain.unflatten(2, 2, row)
        for row in C.basis_rows()
        if not dialg_cocycles(A, 2).contains(row)
    )
    broken = TruncatedDeformation(A, [bad_term])
    for defm in (d1, broken):
        for n in range(defm.order + 1):
            assert deformation_residual(defm, n) == operadic_residual(defm, n)


def test_residuals_match_the_references_in_data_and_key_order():
    """deformation_residual against the law-by-law evaluation and
    operadic_residual against its chain of additions, at orders 0-2, on
    the catalog at two bindings, with compatible terms and with arbitrary
    ones (sparse, so many products vanish)."""
    rng = random.Random(93)
    for name, entry in catalog().items():
        for binding in ({p: 1 for p in entry.params}, {p: Fraction(rng.randint(1, 5), 2) for p in entry.params}):
            A = entry.build(**binding)
            C = dialg_compatible_space(A, 2)
            compatible = [random_compatible_cochain(C, rng, 2, A.dim, tree_indexed=True) for _ in range(2)]
            arbitrary = [
                TreeCochain(2, A.dim, {
                    (rng.randrange(2), (rng.randrange(A.dim), rng.randrange(A.dim))):
                    tuple(rng.randint(-3, 3) for _ in range(A.dim))
                    for _ in range(3)
                })
                for _ in range(2)
            ]
            for defm in (TruncatedDeformation(A, compatible), TruncatedDeformation(A, arbitrary, require_compatible=False)):
                for n in range(3):
                    for got, want in (
                        (deformation_residual(defm, n), oracles.deformation_residual(defm, n)),
                        (operadic_residual(defm, n), oracles.operadic_residual(defm, n)),
                    ):
                        assert list(got.data.items()) == list(want.data.items()), (name, binding, n)


def test_order_zero_residual_detects_axioms():
    A = alg22()
    assert deformation_residual(zero_deformation(A), 0).is_zero()
    vdash = table_from_entries(2, {(1, 2): {1: 1}, (2, 1): {1: 1}, (2, 2): {2: 1}})
    bad = BiHomDialgebra(2, A.dashv, vdash, A.phi, A.psi)
    assert not deformation_residual(zero_deformation(bad), 0).is_zero()


def test_cocycle_term_gives_first_order_deformation():
    A = alg22()
    for z in cocycle_basis(A):
        defm = TruncatedDeformation(A, [z])
        assert infinitesimal(defm) == z
        assert deformation_residual(defm, 1).is_zero()
        assert is_deformation_up_to(defm, 1).ok


def test_non_cocycle_term_fails_at_order_one():
    A = alg22()
    Z = dialg_cocycles(A, 2)
    bad = next(
        TreeCochain.unflatten(2, 2, row)
        for row in dialg_compatible_space(A, 2).basis_rows()
        if not Z.contains(row)
    )
    chk = is_deformation_up_to(TruncatedDeformation(A, [bad]), 1)
    assert not chk.ok
    assert chk.failed_order == 1
    assert chk.witness.law in LAW_FOR_TREE
    assert any(chk.witness.residual)


def test_displayed_residuals_partition_the_full_one():
    d1 = corpus_d1()
    bad = TruncatedDeformation(
        d1.base, [cocycle_basis(d1.base)[0].scale(Fraction(3, 2))]
    )
    for defm, n in ((d1, 2), (bad, 1)):
        full = deformation_residual(defm, n)
        per_law = displayed_family_residuals(defm, n)
        assert set(per_law) == set(LAW_FOR_TREE)
        merged = {}
        for law, coch in per_law.items():
            t = LAW_FOR_TREE.index(law)
            for (tt, args), v in coch.data.items():
                assert tt == t
                merged[(tt, args)] = v
        assert merged == dict(full.data)


def test_residual_order_bounds_and_extension():
    d1 = corpus_d1()
    with pytest.raises(ValueError):
        deformation_residual(d1, 3)
    ext = d1.extended(4)
    assert ext.order == 4
    assert ext.term(3).is_zero() and ext.term(4).is_zero()
    assert ext.term(1) == d1.term(1)
    assert deformation_residual(ext, 3) == operadic_residual(ext, 3)
    with pytest.raises(ValueError):
        d1.extended(1)


def test_term_accessors_and_validation():
    A = alg22()
    d1 = corpus_d1()
    assert d1.term(0) == pi_element(d1.base)
    with pytest.raises(ValueError):
        d1.term(5)
    e2 = basis_vec(2, 1)
    assert d1.product(7, 0, e2, e2) == (0, 0)
    with pytest.raises(ValueError, match="arity-2"):
        TruncatedDeformation(A, [TreeCochain.zero(3, 2)])
    with pytest.raises(ValueError, match="does not intertwine"):
        TruncatedDeformation(
            A, [TreeCochain(2, 2, {(0, (0, 0)): (Fraction(0), Fraction(1))})]
        )
    loose = TruncatedDeformation(
        A,
        [TreeCochain(2, 2, {(0, (0, 0)): (Fraction(0), Fraction(1))})],
        require_compatible=False,
    )
    assert loose.order == 1
    with pytest.raises(AttributeError):
        loose.terms = ()


def test_base_change_pullback_preserves_validity():
    d1 = corpus_d1()
    same = base_change_pullback(d1, Mat.identity(2))
    assert same.term(1) == d1.term(1) and same.term(2) == d1.term(2)
    assert (same.base.phi - d1.base.phi).is_zero()

    # 2*id rescales every product linearly
    scaled = base_change_pullback(d1, Mat.identity(2).scale(2))
    e2 = basis_vec(2, 1)
    assert scaled.product(0, 0, e2, e2) == tuple(
        2 * c for c in d1.product(0, 0, e2, e2)
    )
    assert is_deformation_up_to(scaled, 2).ok

    for S in (Mat.from_rows([[1, 1], [0, 1]]), Mat.from_rows([[2, 1], [1, 1]])):
        pulled = base_change_pullback(d1, S)
        assert is_deformation_up_to(pulled, 2).ok

    with pytest.raises(ValueError, match="singular"):
        base_change_pullback(d1, Mat.from_rows([[1, 1], [1, 1]]))


def test_transformation_inverse_is_inverse():
    rng = random.Random(41)
    for _ in range(5):
        maps = [Mat.identity(3)] + [
            Mat.from_rows(
                [[Fraction(rng.randint(-2, 2)) for _ in range(3)] for _ in range(3)]
            )
            for _ in range(2)
        ]
        psit = EquivalenceTransformation(tuple(maps))
        chis = psit.inverse_maps(4)
        for n in range(5):
            acc = Mat.zeros(3, 3)
            for i in range(n + 1):
                acc = acc + psit.map(i) @ chis[n - i]
            assert acc == (Mat.identity(3) if n == 0 else Mat.zeros(3, 3))
        inv = psit.truncated_inverse(4)
        assert inv.truncated_inverse(2).map(1) == psit.map(1)
    with pytest.raises(ValueError, match="identity"):
        EquivalenceTransformation((Mat.zeros(2, 2),))


def test_pushforward_of_zero_deformation():
    """Transport by a twist-commuting psi_t gives a valid deformation
    equivalent to zero, and the triviality solver recovers a witness."""
    rng = random.Random(42)
    for name in ("Alg2_2", "Alg2_4"):
        entry = catalog()[name]
        A = entry.build(**{p: 1 for p in entry.params})
        for _ in range(5):
            a, b = Fraction(rng.randint(1, 3)), Fraction(rng.randint(-2, 2))
            psi1 = Mat.identity(A.dim).scale(a) + A.phi.scale(b)
            psit = EquivalenceTransformation((Mat.identity(A.dim), psi1))
            pushed = base_change_pushforward(zero_deformation(A), psit)
            assert is_deformation_up_to(pushed, pushed.order).ok
            assert check_equivalence(
                zero_deformation(A, 1), pushed, psit, 1
            ).ok
            res = solve_triviality(pushed, pushed.order)
            assert res.trivial
            assert check_equivalence(
                pushed,
                zero_deformation(A, res.witness.order),
                res.witness,
                pushed.order,
            ).ok


def test_pushforward_requires_twist_compatibility():
    A = alg22()
    bad = EquivalenceTransformation(
        (Mat.identity(2), Mat.from_rows([[0, 0], [1, 0]]))
    )
    with pytest.raises(ValueError, match="does not intertwine"):
        base_change_pushforward(zero_deformation(A), bad)
    loose = base_change_pushforward(zero_deformation(A), bad, require_compatible=False)
    assert loose.order == 1


def test_corpus_deformation_is_trivial():
    d1 = corpus_d1()
    assert is_deformation_up_to(d1, 2).ok
    res = solve_triviality(d1, 2)
    assert res.trivial and res.obstruction is None
    assert res.witness.map(1) == Mat.from_rows([[Fraction(-1, 2), 0], [0, 0]])
    assert res.witness.map(2) == Mat.from_rows(
        [[Fraction(-11, 4), Fraction(-3, 2)], [0, 0]]
    )
    zero2 = zero_deformation(d1.base, 2)
    assert check_equivalence(d1, zero2, res.witness, 2).ok
    assert check_equivalence(zero2, d1, res.witness.truncated_inverse(), 2).ok


def test_obstruction_reporting():
    A = alg22()
    Z = dialg_cocycles(A, 2)
    B = dialg_coboundaries(A, 2)
    stuck = next(
        TreeCochain.unflatten(2, 2, row)
        for row in Z.basis_rows()
        if not B.contains(row)
    )
    res = solve_triviality(TruncatedDeformation(A, [stuck]), 1)
    assert not res.trivial
    assert res.obstructed_order == 1
    assert res.obstruction == stuck
    assert res.obstruction_closed is True

    unclosed = next(
        TreeCochain.unflatten(2, 2, row)
        for row in dialg_compatible_space(A, 2).basis_rows()
        if not Z.contains(row)
    )
    res2 = solve_triviality(TruncatedDeformation(A, [unclosed]), 1)
    assert res2.obstructed_order == 1
    assert res2.obstruction_closed is False


def triviality_cases():
    """(label, deformation, N): on every catalog family at two bindings, a
    trivial deformation pushed forward from zero, one whose first term is a
    cocycle outside B^2 and one whose first term is compatible but not
    closed, where there are such, and rational terms that need not
    intertwine the twists; then the corpus deformation and the stuck one."""
    rng = random.Random(17)
    for name, entry in sorted(catalog().items()):
        for binding in (1, Fraction(2, 3)):
            A = entry.build(**{p: binding for p in entry.params})
            m, Z, B = A.dim, dialg_cocycles(A, 2), dialg_coboundaries(A, 2)
            psi1 = Mat.identity(m).scale(2) + A.phi.scale(Fraction(-1, 3))
            yield name, base_change_pushforward(zero_deformation(A), EquivalenceTransformation((Mat.identity(m), psi1))), 3
            for kept, rows in ((B, Z), (Z, dialg_compatible_space(A, 2))):
                row = next((r for r in rows.basis_rows() if not kept.contains(r)), None)
                if row is not None:
                    yield name, TruncatedDeformation(A, [TreeCochain.unflatten(2, m, row)]), 2
            terms = [TreeCochain(2, m, {(rng.randrange(2), (rng.randrange(m), rng.randrange(m))):
                                        tuple(Fraction(rng.randint(-4, 4), 3) for _ in range(m))}) for _ in range(2)]
            yield name, TruncatedDeformation(A, terms, require_compatible=False), 2
    yield "corpus D1", corpus_d1(), 3
    yield "Dstuck", build_block(parse_path("tests/fixtures/trivialize_stuck.dlg"), "Dstuck"), 2


def test_triviality_matches_the_positional_dense_solve():
    """Dropping the empty Leibniz rows changes no `TrivialityResult`: the
    witness maps, the obstructed order, the obstruction and its closed flag
    equal those of the dense solve that pairs every equation, empty ones
    included, with K_n's coordinates by position."""
    kinds = set()
    for label, d, N in triviality_cases():
        got = solve_triviality(d, N)
        assert got == oracles.solve_triviality(d, N), label
        kinds.add(got.obstruction_closed)
    assert kinds == {None, True, False}


def test_k_nonzero_on_an_empty_leibniz_row_is_infeasible():
    """A first term nonzero at one coordinate only, one whose Leibniz
    equation cancels (21 of the 54 on Alg3_1 at all-1 bindings), puts K_1 on
    an empty row: the solve is obstructed at order 1 with that term as the
    obstruction, as the dense solve finds, on every catalog family."""
    seen = 0
    for name, entry in sorted(catalog().items()):
        A = entry.build(**{p: 1 for p in entry.params})
        m, rows = A.dim, leibniz_rows(tuple(A.cells.values()), Mat.identity(A.dim))
        for c in (c for c, row in enumerate(rows) if not row):
            t, rest = divmod(c, m ** 3)
            (a, b), k = divmod(rest // m, m), rest % m
            term = TreeCochain(2, m, {(t, (a, b)): tuple(Fraction(int(i == k)) for i in range(m))})
            res = solve_triviality(TruncatedDeformation(A, [term], require_compatible=False), 1)
            assert res.obstructed_order == 1 and res.obstruction == term, (name, c)
            assert res == oracles.solve_triviality(TruncatedDeformation(A, [term], require_compatible=False), 1)
            seen += 1
    assert seen


def test_first_order_transport_relation():
    """x -|'_1 y = x -|_1 y + psi_1(x -|_0 y) - psi_1(x) -|_0 y
    - x -|_0 psi_1(y), and likewise for |-; flipping the sign of the
    psi_1(x *_0 y) term breaks the equivalence."""
    A = alg22()
    z = cocycle_basis(A)[0]
    defm1 = TruncatedDeformation(A, [z])
    psi1 = Mat.identity(2).scale(2) + A.phi
    psit = EquivalenceTransformation((Mat.identity(2), psi1))

    def transported(sign):
        data = {}
        for t in (0, 1):
            for a in range(2):
                for b in range(2):
                    ea, eb = basis_vec(2, a), basis_vec(2, b)
                    base = defm1.product(0, t, ea, eb)
                    v = tuple(
                        z.eval(t, [ea, eb])[k]
                        + sign * psi1.apply(base)[k]
                        - defm1.product(0, t, psi1.apply(ea), eb)[k]
                        - defm1.product(0, t, ea, psi1.apply(eb))[k]
                        for k in range(2)
                    )
                    if any(v):
                        data[(t, (a, b))] = v
        return TruncatedDeformation(A, [TreeCochain(2, 2, data)])

    good = check_equivalence(defm1, transported(+1), psit, 1)
    assert good.ok
    assert good.twist_intertwining == ((1, "phi", True), (1, "psi", True))
    assert not check_equivalence(defm1, transported(-1), psit, 1).ok


def test_equivalence_reflexive_and_twist_mismatch():
    d1 = corpus_d1()
    assert check_equivalence(d1, d1, identity_transformation(2), 2).ok
    A = d1.base
    other = BiHomDialgebra(2, A.dashv, A.vdash, Mat.identity(2), Mat.identity(2))
    bad = check_equivalence(
        zero_deformation(A), zero_deformation(other), identity_transformation(2), 0
    )
    assert not bad.ok
    assert bad.witness == ("twist_mismatch",)


# -- refusals at the door ---------------------------------------------------------


def test_non_tree_cochain_term_is_refused_by_class():
    A = alg22()
    hoch = HochschildCochain(2, 2, {(0, 0): (Fraction(1), Fraction(0))})
    for strict in (True, False):
        with pytest.raises(TypeError, match="HochschildCochain"):
            TruncatedDeformation(A, [hoch], require_compatible=strict)


def test_transformation_maps_must_share_psi0_shape():
    with pytest.raises(ValueError, match="psi_1"):
        EquivalenceTransformation((Mat.identity(2), Mat.identity(3)))
    with pytest.raises(ValueError, match="psi_2"):
        EquivalenceTransformation((Mat.identity(2), Mat.zeros(2, 2), Mat.zeros(2, 3)))


def test_pullback_refuses_a_matrix_of_the_wrong_shape():
    d1 = corpus_d1()
    for S in (Mat.identity(3), Mat.from_rows([[1, 0, 0], [0, 1, 0]])):
        with pytest.raises(ValueError, match="must be 2x2"):
            base_change_pullback(d1, S)


# -- direction of the transport coefficient ---------------------------------------


def random_families(seed):
    """Every catalog family with a random binding and a random compatible
    order-2 deformation over it."""
    rng = random.Random(seed)
    for name, entry in sorted(catalog().items()):
        A = entry.build(**{p: rng.randint(1, 3) for p in entry.params})
        rows = dialg_compatible_space(A, 2).basis_rows()

        def term():
            coords = [Fraction(0)] * len(rows[0])
            for row in rows:
                c = rng.randint(-2, 2)
                coords = [x + c * y for x, y in zip(coords, row)]
            return TreeCochain.unflatten(2, A.dim, coords)

        yield rng, name, TruncatedDeformation(A, [term(), term()])


def random_matrix(rng, m):
    return Mat(m, m, [Fraction(rng.randint(-2, 2)) for _ in range(m * m)])


def test_pullback_makes_s_a_morphism_onto_the_source():
    """S is a morphism from the pulled-back base to the original one, and
    S pi'_i(e_a, e_b) = pi_i(S e_a, S e_b) at every order i."""
    seen = set()
    for rng, name, d in random_families(91):
        m = d.base.dim
        S = random_matrix(rng, m)
        while S.inverse() is None:
            S = random_matrix(rng, m)
        pulled = base_change_pullback(d, S)
        assert is_morphism(S, pulled.base, d.base).ok, name
        for i in range(d.order + 1):
            for t in (0, 1):
                for a in range(m):
                    for b in range(m):
                        ea, eb = basis_vec(m, a), basis_vec(m, b)
                        assert S.apply(pulled.product(i, t, ea, eb)) == d.product(
                            i, t, S.apply(ea), S.apply(eb)
                        ), (name, i, t, a, b)
        seen.add(name)
    assert len(seen) == 9


def test_pushforward_is_equivalent_along_its_own_transformation():
    """psi_t carries d onto its pushforward at every order, and a psi_1
    moved by the identity, never a derivation of a nonzero product, fails
    at order 1."""
    seen = set()
    for rng, name, d in random_families(92):
        m = d.base.dim
        psit = EquivalenceTransformation(
            (Mat.identity(m), random_matrix(rng, m), random_matrix(rng, m))
        )
        pushed = base_change_pushforward(d, psit, require_compatible=False)
        assert pushed.order == 4
        assert check_equivalence(d, pushed, psit, pushed.order).ok, name
        moved = EquivalenceTransformation(
            (Mat.identity(m), psit.map(1) + Mat.identity(m), psit.map(2))
        )
        bad = check_equivalence(d, pushed, moved, pushed.order)
        assert not bad.ok and bad.witness[0] == 1, name
        seen.add(name)
    assert len(seen) == 9


def test_order_two_pushforward_of_the_base_is_solved_trivial():
    """At order 2, K_2 carries the cross term psi_1(x) o psi_1(y); the
    solved witness must carry the pushforward back onto the base."""
    rng = random.Random(93)
    for name, entry in sorted(catalog().items()):
        A = entry.build(**{p: rng.randint(1, 3) for p in entry.params})
        one = Mat.identity(A.dim)
        psit = EquivalenceTransformation((
            one,
            one.scale(rng.randint(1, 2)) + A.phi.scale(rng.randint(-2, 2)),
            one.scale(rng.randint(-2, 2)) + A.phi.scale(rng.randint(-2, 2)),
        ))
        pushed = base_change_pushforward(zero_deformation(A), psit, require_compatible=False)
        res = solve_triviality(pushed, 2)
        assert res.trivial, name
        assert check_equivalence(pushed, zero_deformation(A, 2), res.witness, 2).ok, name


# -- transports read the order tables ---------------------------------------------


def random_rational_cases(seed):
    """Every catalog family at a binding with denominators 3 and 7, with an
    order 0-3 deformation whose rational terms need not intertwine the
    twists, a series of 1-4 rational maps and its psi_t (psi_0 = id)."""
    rng = random.Random(seed)

    def q():
        return Fraction(rng.randint(-4, 4), rng.choice((1, 3, 7)))

    for name, entry in sorted(catalog().items()):
        A = entry.build(**{p: Fraction(rng.randint(1, 9), rng.choice((3, 7))) for p in entry.params})
        m = A.dim
        for order in range(4):
            terms = [
                TreeCochain(2, m, {
                    (rng.randrange(2), (rng.randrange(m), rng.randrange(m))): tuple(q() for _ in range(m))
                    for _ in range(rng.randint(0, 4))
                })
                for _ in range(order)
            ]
            maps = [Mat(m, m, [q() if rng.random() < 0.6 else Fraction(0) for _ in range(m * m)])
                    for _ in range(rng.randint(1, 4))]
            psit = EquivalenceTransformation((Mat.identity(m), *maps[1:]))
            yield name, TruncatedDeformation(A, terms, require_compatible=False), maps, psit


def outcome(call):
    try:
        return "answered", call()
    except ValueError as exc:
        return "refused", str(exc)


def test_transport_matches_the_dense_reference(monkeypatch):
    """`_transport` against the quadruple loop over `product`, item for item
    with the key order and `Fraction` values; pushforward, pullback,
    equivalence and triviality against the same calls on that loop."""
    from bihom import deformation

    def deformation_items(d):
        return d.base.cells, [list(f.data.items()) for f in d.terms]

    def triviality(d, N):
        res = solve_triviality(d, N)
        return res, None if res.obstruction is None else list(res.obstruction.data.items())

    seen = set()
    for name, d, maps, psit in random_rational_cases(23):
        m = d.base.dim
        for n in range(5):
            for outer, inner in ((maps, maps[::-1]), (psit.maps, psit.inverse_maps(n)), (maps[:1], maps)):
                got = deformation._transport(d, outer, inner, n)
                assert list(got.items()) == list(oracles.transport(d, outer, inner, n).items()), (name, n)
                assert all(type(c) is Fraction for v in got.values() for c in v), (name, n)
        S = maps[0] + Mat.identity(m)
        N = d.order + psit.order

        def calls():
            pushed = base_change_pushforward(d, psit, require_compatible=False)
            moved = EquivalenceTransformation((Mat.identity(m), *maps[:1]))
            return (
                deformation_items(pushed),
                outcome(lambda: deformation_items(base_change_pullback(d, S))),
                outcome(lambda: deformation_items(base_change_pushforward(d, psit))),
                check_equivalence(d, pushed, psit, N),
                check_equivalence(d, pushed, moved, N),
                triviality(d, min(N, 4)),
                triviality(pushed, min(N, 4)),
            )

        got = calls()
        with monkeypatch.context() as mp:
            mp.setattr(deformation, "_transport", oracles.transport)
            want = calls()
        assert got == want, name
        seen.add(name)
    assert len(seen) == 9


def test_deformation_kernels_never_read_the_dense_products(monkeypatch):
    """Once the deformations are built, triviality, equivalence and the
    unchecked pushforward answer with `product`, `apply_table` and
    `TreeCochain.eval` all refusing to run."""
    from bihom import deformation

    d1 = corpus_d1()
    cases = [(name, d, psit) for name, d, _, psit in random_rational_cases(29)]
    cases.append(("corpus D1", d1, EquivalenceTransformation((Mat.identity(2), random_matrix(random.Random(1), 2)))))

    def refuse(*args, **kwargs):
        raise AssertionError("a deformation kernel read the dense products")

    monkeypatch.setattr(TruncatedDeformation, "product", refuse)
    monkeypatch.setattr(deformation, "apply_table", refuse)
    monkeypatch.setattr(TreeCochain, "eval", refuse)
    for name, d, psit in cases:
        pushed = base_change_pushforward(d, psit, require_compatible=False)
        assert pushed.order == d.order + psit.order, name
        assert check_equivalence(d, pushed, psit, pushed.order).ok, name
        solve_triviality(d, 2)
    assert solve_triviality(d1, 2).trivial


def test_deformation_indices_are_range_checked():
    """A negative order or a tree other than 0 and 1 is refused, not read
    from the end of a sequence; orders past the deformation read zero."""
    d1 = corpus_d1()
    e2 = basis_vec(2, 1)
    for i in (-1, -3):
        with pytest.raises(ValueError, match=f"order {i} out of range"):
            d1.product(i, 0, e2, e2)
    for i, tree in ((0, 7), (1, 5), (4, 2), (0, -1)):
        with pytest.raises(ValueError, match=f"tree {tree} out of range"):
            d1.product(i, tree, e2, e2)
    assert d1.product(4, 1, e2, e2) == (0, 0)
    psit = EquivalenceTransformation((Mat.identity(2), Mat.identity(2)))
    with pytest.raises(ValueError, match="order -1 out of range"):
        psit.map(-1)
    assert psit.map(5) == Mat.zeros(2, 2)


def test_negative_orders_are_refused():
    """Every entry point that takes an order refuses a negative one, as the
    residual does, instead of answering over an empty range of orders."""
    d1 = corpus_d1()
    psit = EquivalenceTransformation((Mat.identity(2), Mat.identity(2)))
    calls = [
        (-1, lambda: solve_triviality(d1, -1)),
        (-3, lambda: is_deformation_up_to(d1, -3)),
        (-1, lambda: check_equivalence(d1, d1, identity_transformation(2), N=-1)),
        (-2, lambda: zero_deformation(d1.base, -2)),
        (-1, lambda: psit.inverse_maps(-1)),
        (-3, lambda: psit.truncated_inverse(-3)),
    ]
    for n, call in calls:
        with pytest.raises(ValueError, match=rf"^order {n} out of range 0\.\.$"):
            call()
    assert solve_triviality(d1, 0).trivial
    assert is_deformation_up_to(d1, 0).ok
    assert check_equivalence(d1, d1, identity_transformation(2), N=0).ok
    assert zero_deformation(d1.base, 0).order == 0
    assert psit.inverse_maps(0) == [Mat.identity(2)]
