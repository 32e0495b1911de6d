"""The composition and residual kernels on hard rationals, and the route
that builds computed cochains without re-checking them.

`operad._compose` accumulates on integers over one denominator per operand
and divides once per output coordinate; `deformation_residual` reads the
products from the terms' values.  Both must give exactly the values, the
key order and the `Fraction` type of the references in `tests/oracles.py`,
whatever the denominators and however large the numerators.
"""

import random
from fractions import Fraction

import pytest

import bihom.operad
from bihom.algebra import catalog
from bihom.cohomology import HochschildCochain, TreeCochain, _Cochain, dialg_coboundary
from bihom.deformation import TruncatedDeformation, deformation_residual, operadic_residual
from bihom.operad import bracket, braces, circle, dot, gamma, gamma_direct, partial_composition, pi_element
from bihom.trees import trees

import oracles

BIG = 2**70
# the values a cochain draws from: small odd denominators, zero, and numerators of 2^70 and more
VALUES = (Fraction(5, 11), Fraction(-13, 6), Fraction(0), Fraction(BIG + 3, 7), Fraction(-(2**72), 9), Fraction(1))


def hard_cochain(rng, degree, dim, support=5):
    ntrees = len(trees(degree))
    return TreeCochain(degree, dim, {
        (rng.randrange(ntrees), tuple(rng.randrange(dim) for _ in range(degree))):
        tuple(rng.choice(VALUES) for _ in range(dim))
        for _ in range(support)
    })


def structures(rng):
    """Each catalog family at two bindings with denominators 3, 7 and 9."""
    for name, entry in catalog().items():
        for den in ((3, 7), (9, 7)):
            yield name, entry.build(**{p: Fraction(rng.choice((-5, -2, 1, 4, 11)), den[i % 2])
                                       for i, p in enumerate(entry.params)})


def calls(A, f1, f2, f3, g2):
    """(name, library call, reference call) for each kernel entry point."""
    defm = TruncatedDeformation(A, [f2, g2], require_compatible=False)
    return [
        ("partial_composition", lambda: partial_composition(A, f2, 1, f1), lambda: partial_composition(A, f2, 1, f1)),
        ("partial_composition", lambda: partial_composition(A, f1, 1, f3), lambda: partial_composition(A, f1, 1, f3)),
        ("gamma", lambda: gamma(A, f2, [g2, f1]), lambda: gamma(A, f2, [g2, f1])),
        ("gamma_direct", lambda: gamma_direct(A, f2, [g2, f1]), lambda: gamma_direct(A, f2, [g2, f1])),
        ("dot", lambda: dot(A, f1, f2), lambda: dot(A, f1, f2)),
        ("braces", lambda: braces(A, f3, [f1, g2]), lambda: oracles.braces(A, f3, [f1, g2])),
        ("circle", lambda: circle(A, f3, f2), lambda: oracles.braces(A, f3, [f2])),
        ("bracket", lambda: bracket(A, f2, g2), lambda: oracles.bracket(A, f2, g2)),
        ("deformation_residual", lambda: deformation_residual(defm, 2), lambda: oracles.deformation_residual(defm, 2)),
        ("operadic_residual", lambda: operadic_residual(defm, 2), lambda: oracles.operadic_residual(defm, 2)),
    ]


def assert_exact(monkeypatch, cases, label):
    """Library output against the reference, with every composition in the
    reference run through the eval-based loop `oracles.compose`."""
    for name, got, want in cases:
        got = got()
        with monkeypatch.context() as patched:
            patched.setattr(bihom.operad, "_compose", oracles.compose)
            want = want()
        assert (got.degree, got.dim) == (want.degree, want.dim), (label, name)
        assert list(got.data.items()) == list(want.data.items()), (label, name)
        assert all(type(v) is Fraction for val in got.data.values() for v in val), (label, name)


def test_kernels_match_the_references_on_hard_rationals(monkeypatch):
    rng = random.Random(2024)
    for name, A in structures(rng):
        f1, f2, f3, g2 = (hard_cochain(rng, n, A.dim) for n in (1, 2, 3, 2))
        assert_exact(monkeypatch, calls(A, f1, f2, f3, g2), name)


def test_a_slot_whose_contributions_cancel_drops_its_key(monkeypatch):
    """g(e1) = (c, -c) with c = 2^70/7 and f equal on (e1, e1) and (e2, e1):
    f(g(e1), e1) = c f(e1, e1) - c f(e2, e1) = 0 on both trees, so the
    integer sums cancel and the key goes, as in the reference."""
    A = catalog()["Alg2_2"].build(a=Fraction(2, 3))
    v, c = (Fraction(5, 11), Fraction(-13, 6)), Fraction(BIG, 7)
    f = TreeCochain(2, 2, {(t, args): v for t in (0, 1) for args in ((0, 0), (1, 0))})
    g = TreeCochain(1, 2, {(0, (0,)): (c, -c), (0, (1,)): (Fraction(1, 9), Fraction(0))})
    got = partial_composition(A, f, 1, g)
    assert (0, (0, 0)) not in got.data and (1, (0, 0)) not in got.data
    assert got.data[(0, (1, 0))] == (Fraction(5, 99), Fraction(-13, 54))
    assert_exact(monkeypatch, [("partial_composition", lambda: got, lambda: partial_composition(A, f, 1, g))],
                 "cancel")


def _refuse(*args, **kwargs):
    raise AssertionError("a computed cochain went through the public constructor")


def test_computed_cochains_skip_the_public_constructor(monkeypatch):
    """With `_Cochain.__init__` refusing, every kernel still answers, and
    each answer is what the public constructor makes of its own data."""
    rng = random.Random(7)
    A = catalog()["Alg3_1"].build(a=Fraction(1, 3), b=Fraction(-2, 7), c=Fraction(4, 9), d=1, f=Fraction(5, 3))
    f1, f2, f3, g2 = (hard_cochain(rng, n, A.dim) for n in (1, 2, 3, 2))
    defm = TruncatedDeformation(A, [f2, g2], require_compatible=False)
    pi = pi_element(A)
    kernels = [
        lambda: partial_composition(A, f2, 2, f3), lambda: gamma(A, f2, [g2, f1]),
        lambda: gamma_direct(A, f2, [g2, f1]), lambda: braces(A, f3, [f1, g2]), lambda: circle(A, pi, pi),
        lambda: bracket(A, f2, g2), lambda: dot(A, f1, f2), lambda: deformation_residual(defm, 2),
        lambda: operadic_residual(defm, 1), lambda: dialg_coboundary(A, f2),
    ]
    with monkeypatch.context() as patched:
        patched.setattr(_Cochain, "__init__", _refuse)
        results = [k() for k in kernels]
    for r in results:
        rebuilt = type(r)(r.degree, r.dim, dict(r.data))
        assert r == rebuilt and r.groups == rebuilt.groups
        assert list(r.data) == list(rebuilt.data)
        assert all(any(val) for val in r.data.values())


@pytest.mark.parametrize("cochain, data, error", [
    (TreeCochain, {(5, (0, 0)): (1, 0)}, ValueError),  # tree index
    (TreeCochain, {(0, (0, 2)): (1, 0)}, ValueError),  # argument out of range
    (TreeCochain, {(0, (0,)): (1, 0)}, ValueError),  # argument count
    (TreeCochain, {(0, (0, 1)): (1, 0, 0)}, ValueError),  # value length
    (TreeCochain, {(0, (0, 1)): (1.5, 0)}, TypeError),  # float
    (HochschildCochain, {(0, 1): (True, 0)}, TypeError),  # bool
])
def test_the_public_constructors_still_refuse(cochain, data, error):
    with pytest.raises(error):
        cochain(2, 2, data)
