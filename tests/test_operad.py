"""Operad structure on tree-indexed cochains.

The anchor test ties the orientation convention to the five axiom
residuals: {pi}{pi} evaluated per tree must literally equal the law
residual attached to that tree.  Everything downstream (coboundary
signs, deformation residuals) leans on this.
"""

import random
from fractions import Fraction

import pytest

from bihom.algebra import (
    BiHomAssociativeAlgebra,
    BiHomDialgebra,
    catalog,
    check_dialgebra,
    law_residual,
    table_from_entries,
)
from bihom.cohomology import HochschildCochain, TreeCochain, dialg_compatible_space, random_compatible_cochain
from bihom.deformation import LAW_FOR_TREE
from bihom.operad import (
    bracket,
    brace_pi_single,
    braces,
    circle,
    dot,
    gamma,
    gamma_direct,
    identity_element,
    partial_composition,
    pi_element,
)
from bihom.trees import trees

import oracles


def perturbed():
    A0 = catalog()["Alg2_2"].build(a=1)
    vdash = table_from_entries(2, {(1, 2): {1: 1}, (2, 1): {1: 1}, (2, 2): {2: 1}})
    return BiHomDialgebra(2, A0.dashv, vdash, A0.phi, A0.psi, name="perturbed")


def test_brace_square_vanishes_on_valid_catalog():
    for name, entry in catalog().items():
        A = entry.build(**{p: 1 for p in entry.params})
        assert check_dialgebra(A).ok
        assert brace_pi_single(A, pi_element(A)).is_zero(), name


def test_brace_square_equals_law_residuals_per_tree():
    """Five-case anchor: on any structure, valid or not, the square's
    value on tree t at a basis triple is the t-th law's residual."""
    for A in (catalog()["Alg2_4"].build(a=2, b=1, c=3, d=1), perturbed()):
        sq = circle(A, pi_element(A), pi_element(A))
        assert sq == brace_pi_single(A, pi_element(A))
        for t, law in enumerate(LAW_FOR_TREE):
            for i in range(A.dim):
                for j in range(A.dim):
                    for k in range(A.dim):
                        want = law_residual(A, law, A.e(i), A.e(j), A.e(k))
                        assert sq.value(t, (i, j, k)) == want


def test_brace_square_support_names_the_broken_laws():
    A = perturbed()
    rep = check_dialgebra(A)
    broken = {law for law in rep.laws_violated() if law != "twist_commute"}
    sq = brace_pi_single(A, pi_element(A))
    support = {LAW_FOR_TREE[t] for (t, _args) in sq.data}
    assert support == broken


def test_perturbation_iff_square_vanishes():
    """50 random structure-constant perturbations: {pi}{pi} = 0 exactly
    when the five laws hold (twists never touched)."""
    rng = random.Random(2024)
    A0 = catalog()["Alg2_2"].build(a=1)
    zeros = 0
    for _ in range(50):
        dashv_entries = {(1, 2): {1: 1}, (2, 1): {1: 1}, (2, 2): {1: 1}}
        vdash_entries = {(1, 2): {1: 1}, (2, 1): {1: 1}}
        table = rng.choice((dashv_entries, vdash_entries))
        i, j = rng.randint(1, 2), rng.randint(1, 2)
        k = rng.randint(1, 2)
        c = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        cell = dict(table.get((i, j), {}))
        cell[k] = cell.get(k, 0) + c
        table[(i, j)] = cell
        A = BiHomDialgebra(
            2,
            table_from_entries(2, dashv_entries),
            table_from_entries(2, vdash_entries),
            A0.phi,
            A0.psi,
        )
        ok = check_dialgebra(A).ok
        square_zero = brace_pi_single(A, pi_element(A)).is_zero()
        assert ok == square_zero
        zeros += square_zero
    # the sweep must actually exercise both outcomes
    assert 0 < zeros < 50


def test_identity_laws_of_partial_composition():
    A = catalog()["Alg2_2"].build(a=1)
    pi = pi_element(A)
    ident = identity_element(2)
    assert partial_composition(A, ident, 1, pi) == pi
    for i in (1, 2):
        assert partial_composition(A, pi, i, ident) == pi
    with pytest.raises(ValueError):
        partial_composition(A, pi, 3, ident)


def test_circle_with_identity_multiplies_by_arity():
    # literal formula: every slot contributes one unsigned copy
    A = catalog()["Alg2_2"].build(a=1)
    pi = pi_element(A)
    ident = identity_element(2)
    assert circle(A, pi, ident) == pi.scale(2)
    assert circle(A, ident, pi) == pi


def test_gamma_identities():
    A = catalog()["Alg2_3"].build(a=1, b=1, c=2, d=1)
    pi = pi_element(A)
    ident = identity_element(2)
    assert gamma(A, pi, [ident, ident]) == pi
    assert gamma(A, ident, [pi]) == pi
    with pytest.raises(ValueError):
        gamma(A, pi, [ident])


def test_gamma_direct_agrees_on_compatible_factors():
    # Alg3_3 has phi != psi, so there the twists' placement shows
    rng = random.Random(77)
    for A in (catalog()["Alg2_2"].build(a=1), catalog()["Alg3_3"].build(b=1)):
        m = A.dim
        c1 = dialg_compatible_space(A, 1)
        c2 = dialg_compatible_space(A, 2)
        for _ in range(4):
            f = random_compatible_cochain(c2, rng, 2, m, tree_indexed=True)
            g = random_compatible_cochain(c1, rng, 1, m, tree_indexed=True)
            h = random_compatible_cochain(c2, rng, 2, m, tree_indexed=True)
            assert gamma_direct(A, f, [g, h]) == gamma(A, f, [g, h])
            assert gamma_direct(A, f, [h, g]) == gamma(A, f, [h, g])


def test_bracket_graded_antisymmetry():
    rng = random.Random(78)
    A = catalog()["Alg2_2"].build(a=1)
    c1 = dialg_compatible_space(A, 1)
    c2 = dialg_compatible_space(A, 2)
    pick = {1: c1, 2: c2}
    for m, n in ((1, 1), (1, 2), (2, 2)):
        for _ in range(3):
            f = random_compatible_cochain(pick[m], rng, m, 2, tree_indexed=True)
            g = random_compatible_cochain(pick[n], rng, n, 2, tree_indexed=True)
            sign = (-1) ** ((m - 1) * (n - 1))
            lhs = bracket(A, f, g)
            rhs = bracket(A, g, f).scale(-sign)
            assert lhs == rhs


def test_bracket_of_pi_with_itself():
    # arity 2 with itself: [pi, pi] = 2 (pi o pi), zero iff the laws hold
    for A in (catalog()["Alg2_2"].build(a=1), perturbed()):
        pi = pi_element(A)
        assert bracket(A, pi, pi) == circle(A, pi, pi).scale(2)
    assert bracket(perturbed(), pi_element(perturbed()), pi_element(perturbed())).data


def test_braces_identity_slots():
    A = catalog()["Alg2_2"].build(a=1)
    pi = pi_element(A)
    ident = identity_element(2)
    assert braces(A, pi, [ident, ident]) == pi
    assert braces(A, pi, []) == pi
    with pytest.raises(ValueError):
        braces(A, ident, [pi, pi])


def test_dot_of_identities_is_minus_pi():
    A = catalog()["Alg2_2"].build(a=1)
    ident = identity_element(2)
    assert dot(A, ident, ident) == pi_element(A).scale(-1)


def test_dot_preserves_compatibility():
    rng = random.Random(79)
    A = catalog()["Alg2_2"].build(a=1)
    c1 = dialg_compatible_space(A, 1)
    c2 = dialg_compatible_space(A, 2)
    target = dialg_compatible_space(A, 3)
    for _ in range(3):
        f = random_compatible_cochain(c1, rng, 1, 2, tree_indexed=True)
        g = random_compatible_cochain(c2, rng, 2, 2, tree_indexed=True)
        assert target.contains(dot(A, f, g).flatten())
        assert target.contains(dot(A, g, f).flatten())
    z = dot(A, f, random_compatible_cochain(c2, rng, 2, 2, tree_indexed=True).scale(0))
    assert z.is_zero()


def test_compositions_refuse_a_cochain_of_another_dimension():
    A = catalog()["Alg2_2"].build(a=1)
    pi = pi_element(A)
    wide = identity_element(3)
    for call in (
        lambda: partial_composition(A, pi, 1, wide),
        lambda: partial_composition(A, wide, 1, pi),
        lambda: gamma_direct(A, pi, [pi, wide]),
        lambda: gamma_direct(A, wide, [pi]),
        lambda: dot(A, pi, wide),
        lambda: dot(A, wide, pi),
    ):
        with pytest.raises(ValueError, match="cochain dimension mismatch"):
            call()


def random_tree_cochain(rng, degree, dim, support=6, tree=None):
    """A cochain on `support` random keys, not required to commute with
    the twists; on one tree only when `tree` is given."""
    ntrees = len(trees(degree))
    return TreeCochain(degree, dim, {
        (rng.randrange(ntrees) if tree is None else tree, tuple(rng.randrange(dim) for _ in range(degree))):
        tuple(rng.randint(-3, 3) for _ in range(dim))
        for _ in range(support)
    })


def composition_cases(A, f1, f2, f3, g2):
    """Each composition entry point on cochains of degrees 1-3; f1, f2
    and f3 have those degrees and g2 is a second degree-2 cochain."""
    return {
        "partial_composition": [(A, f2, 1, f1), (A, f1, 1, f3)],
        "gamma": [(A, f2, [g2, f1])],
        "gamma_direct": [(A, f2, [g2, f1])],
        "braces": [(A, f2, [f1, g2]), (A, f2, [])],
        "circle": [(A, f3, f1)],
        "bracket": [(A, f2, g2)],
        "dot": [(A, f1, f2)],
    }


KIND = "expects a TreeCochain on a BiHomDialgebra, got a"


def test_compositions_refuse_a_one_product_cochain_of_degree_two():
    """circle, bracket, braces and brace_pi_single on a degree-2
    HochschildCochain raise TypeError at the boundary, not IndexError."""
    A, f = catalog()["Alg2_2"].build(a=1), TreeCochain(2, 2, {(0, (0, 1)): (1, 0)})
    h = HochschildCochain(2, 2, {(0, 1): (1, 0)})
    for name, call in (("circle", lambda: circle(A, h, h)), ("bracket", lambda: bracket(A, f, h)),
                       ("braces", lambda: braces(A, f, [h])), ("brace_pi_single", lambda: brace_pi_single(A, h))):
        with pytest.raises(TypeError, match=f"^{name} {KIND} HochschildCochain on a BiHomDialgebra$"):
            call()


def test_dot_and_gamma_direct_refuse_a_one_product_cochain_of_degree_one():
    """A degree-1 HochschildCochain was accepted and read as a tree cochain."""
    A, f = catalog()["Alg2_2"].build(a=1), TreeCochain(2, 2, {(0, (0, 1)): (1, 0)})
    h = HochschildCochain(1, 2, {(0,): (1, 0)})
    for name, call in (("dot", lambda: dot(A, h, f)), ("gamma_direct", lambda: gamma_direct(A, f, [h, h]))):
        with pytest.raises(TypeError, match=f"^{name} {KIND} HochschildCochain on a BiHomDialgebra$"):
            call()


def test_circle_refuses_a_one_product_algebra():
    A = catalog()["Alg2_2"].build(a=1)
    B, f = BiHomAssociativeAlgebra(2, A.dashv, A.phi, A.psi), TreeCochain(2, 2, {(0, (0, 1)): (1, 0)})
    with pytest.raises(TypeError, match=f"^circle {KIND} TreeCochain on a BiHomAssociativeAlgebra$"):
        circle(B, f, f)


def test_braces_with_no_factors_checks_the_cochain_dimension():
    """braces(A, f, []) returns f itself, after the same check as any other call."""
    A = catalog()["Alg2_2"].build(a=1)
    with pytest.raises(ValueError, match="cochain dimension mismatch"):
        braces(A, identity_element(3), [])
    f = pi_element(A)
    assert braces(A, f, []) is f


def assert_matches_reference(monkeypatch, cases, label):
    """Every call's output equals the same call with `_compose` replaced
    by the eval-based reference loop (through `oracles.compose_form`, which
    takes and returns `_compose`'s integer form), in data and in key order."""
    import bihom.operad

    for name, calls in cases.items():
        fn = getattr(bihom.operad, name)
        for args in calls:
            got = fn(*args)
            with monkeypatch.context() as patched:
                patched.setattr(bihom.operad, "_compose", oracles.compose_form)
                want = fn(*args)
            assert (got.degree, got.dim) == (want.degree, want.dim), (label, name)
            assert list(got.data.items()) == list(want.data.items()), (label, name)


def test_compositions_match_the_reference_on_catalog_cochains(monkeypatch):
    """Compatible catalog cochains of degrees 1-3, at two bindings."""
    rng = random.Random(88)
    for name, entry in catalog().items():
        for binding in ({p: 1 for p in entry.params}, {p: Fraction(rng.randint(1, 5), 2) for p in entry.params}):
            A = entry.build(**binding)
            f1, f2, f3 = (
                random_compatible_cochain(dialg_compatible_space(A, n), rng, n, A.dim, tree_indexed=True)
                for n in (1, 2, 3)
            )
            g2 = random_compatible_cochain(dialg_compatible_space(A, 2), rng, 2, A.dim, tree_indexed=True)
            assert_matches_reference(monkeypatch, composition_cases(A, f1, f2, f3, g2), (name, binding))


def test_compositions_match_the_reference_where_gamma_and_gamma_direct_differ(monkeypatch):
    """Cochains that do not intertwine the twists: there gamma and
    gamma_direct differ, and each must still match the reference."""
    rng = random.Random(89)
    A = catalog()["Alg3_3"].build(b=1)
    f1, f2, f3, g2 = (random_tree_cochain(rng, n, 3) for n in (1, 2, 3, 2))
    assert gamma(A, f2, [g2, f1]) != gamma_direct(A, f2, [g2, f1])
    assert_matches_reference(monkeypatch, composition_cases(A, f1, f2, f3, g2), "twisted")


def test_compositions_match_the_reference_on_special_elements(monkeypatch):
    """The zero cochain, the identity, pi, and cochains on a single tree."""
    rng = random.Random(90)
    A = catalog()["Alg3_1"].build(**{p: 1 for p in catalog()["Alg3_1"].params})
    m = A.dim
    zero1, zero2, zero3 = (TreeCochain.zero(n, m) for n in (1, 2, 3))
    ident, pi = identity_element(m), pi_element(A)
    one2, one3 = random_tree_cochain(rng, 2, m, tree=1), random_tree_cochain(rng, 3, m, tree=3)
    for label, (f1, f2, f3, g2) in {
        "zero": (zero1, zero2, zero3, zero2),
        "zero factors": (zero1, pi, zero3, zero2),
        "identity and pi": (ident, pi, one3, pi),
        "single tree": (ident, one2, one3, one2),
    }.items():
        assert_matches_reference(monkeypatch, composition_cases(A, f1, f2, f3, g2), label)


def assert_matches_chain(calls, label):
    """Each (library, reference) pair of calls gives the same data in the same key order."""
    for name, got, want in calls:
        got, want = got(), want()
        assert (got.degree, got.dim) == (want.degree, want.dim), (label, name)
        assert list(got.data.items()) == list(want.data.items()), (label, name)


def signed_sum_calls(A, f1, f2, f3, g2):
    """braces, circle and bracket against the chains in `oracles`, with
    one to three factors."""
    calls = []
    for f, gs in ((f2, [f1]), (f2, [g2]), (f3, [f1, g2]), (f2, [g2, f1]), (f3, [f2, f1, f1])):
        calls.append(("braces", lambda f=f, gs=gs: braces(A, f, gs), lambda f=f, gs=gs: oracles.braces(A, f, gs)))
    for f, g in ((f2, g2), (f3, f1), (f2, f3), (f1, f1)):
        calls.append(("circle", lambda f=f, g=g: circle(A, f, g), lambda f=f, g=g: oracles.braces(A, f, [g])))
        calls.append(("bracket", lambda f=f, g=g: bracket(A, f, g), lambda f=f, g=g: oracles.bracket(A, f, g)))
    return calls


def test_signed_sums_match_the_chain_reference_on_catalog_cochains():
    """Compatible and arbitrary cochains of degrees 1-3, at two bindings."""
    rng = random.Random(92)
    for name, entry in catalog().items():
        for binding in ({p: 1 for p in entry.params}, {p: Fraction(rng.randint(1, 5), 2) for p in entry.params}):
            A = entry.build(**binding)
            compatible = [
                random_compatible_cochain(dialg_compatible_space(A, n), rng, n, A.dim, tree_indexed=True)
                for n in (1, 2, 3, 2)
            ]
            arbitrary = [random_tree_cochain(rng, n, A.dim) for n in (1, 2, 3, 2)]
            for label, cochains in (("compatible", compatible), ("arbitrary", arbitrary)):
                assert_matches_chain(signed_sum_calls(A, *cochains), (name, binding, label))


def test_signed_sum_keeps_the_chain_order_where_a_key_cancels_and_reappears():
    """f o g with g = diag(1, -1) and f of degree 3: the term of slot i is
    f(y; b) times g's entry at b_i, so at b = (0, 1, 0) the first two of
    the three terms cancel and the third brings the key back, now after
    the key at (1, 1, 1)."""
    A = catalog()["Alg2_2"].build(a=1)
    f = TreeCochain(3, 2, {(0, (0, 1, 0)): (1, 0), (0, (1, 1, 1)): (0, 1)})
    g = TreeCochain(1, 2, {(0, (0,)): (1, 0), (0, (1,)): (0, -1)})
    got = circle(A, f, g)
    assert list(got.data.items()) == [((0, (1, 1, 1)), (0, -3)), ((0, (0, 1, 0)), (1, 0))]
    assert list(got.data.items()) == list(oracles.braces(A, f, [g]).data.items())
    assert list(bracket(A, f, g).data.items()) == list(oracles.bracket(A, f, g).data.items())
