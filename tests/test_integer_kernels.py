"""The composition and residual kernels and the cochain complex on hard
rationals, and the route that builds computed cochains without re-checking
them.

Each operad entry point scales its inputs once to an integer form, one
denominator per tree, composes and sums on integers (`operad._compose`,
`operad._signed_sum`) and builds one cochain at the end;
`deformation_residual` reads the products from the terms' values over one
denominator.  The cochain complex scales the structure
once by the lcm of its denominators and builds delta's block tables, the
compatibility rows and the restrictions on integers.  All must give exactly
the values, the key order and the `Fraction` type of the references in
`tests/oracles.py`, whatever the denominators and however large the
numerators.
"""

import gc
import random
from fractions import Fraction
from math import lcm
from pathlib import Path

import pytest

import bihom.cohomology
import bihom.operad
from bihom.algebra import BiHomAssociativeAlgebra, BiHomDialgebra, catalog, map_from_entries, table_from_entries
from bihom.cohomology import (
    HochschildCochain,
    TreeCochain,
    _Cochain,
    _Complex,
    _complex_of,
    cohomology_report,
    cohomology_spaces,
    dialg_coboundary,
    dialg_coboundary_rows,
    hoch_coboundary,
    hoch_coboundary_rows,
)
from bihom.deformation import TruncatedDeformation, deformation_residual, operadic_residual
from bihom.dsl import build_block, parse_path
from bihom.operad import bracket, braces, circle, dot, gamma, gamma_direct, partial_composition, pi_element
from bihom.scalars import _Eliminator, nullspace_rows
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
    reference run through the eval-based loop `oracles.compose`, put in
    `_compose`'s place by the integer-form shim `oracles.compose_form`."""
    for name, got, want in cases:
        got = got()
        with monkeypatch.context() as patched:
            patched.setattr(bihom.operad, "_compose", oracles.compose_form)
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


def test_each_call_builds_one_cochain_and_scales_each_input_once(monkeypatch):
    """Inside bracket, braces, gamma and operadic_residual no intermediate
    goes through Fractions: one TreeCochain is built per call, and
    `_over_lcm` runs once per distinct input, each cochain (and pi for the
    residual) and each twist read, here phi and psi."""
    rng = random.Random(11)
    A = catalog()["Alg3_1"].build(a=Fraction(1, 3), b=1, c=Fraction(BIG + 1, 7), d=Fraction(4, 9), f=2)
    f, g = hard_cochain(rng, 2, A.dim), hard_cochain(rng, 2, A.dim)
    defm = TruncatedDeformation(A, [f, g], require_compatible=False)
    counts = dict.fromkeys(("_trusted", "_over_lcm"), 0)
    trusted, over_lcm = TreeCochain._trusted.__func__, bihom.operad._over_lcm

    def counting_trusted(cls, *args):
        counts["_trusted"] += 1
        return trusted(cls, *args)

    def counting_over_lcm(pairs):
        counts["_over_lcm"] += 1
        return over_lcm(pairs)

    monkeypatch.setattr(TreeCochain, "_trusted", classmethod(counting_trusted))
    monkeypatch.setattr(bihom.operad, "_over_lcm", counting_over_lcm)
    for name, call, inputs in (
        ("bracket", lambda: bracket(A, f, g), 4),  # f, g, phi, psi
        ("braces", lambda: braces(A, f, [g, f]), 4),
        ("gamma", lambda: gamma(A, f, [g, f]), 4),
        ("operadic_residual", lambda: operadic_residual(defm, 2), 5),  # pi, pi_1, pi_2, phi, psi
    ):
        counts.update(_trusted=0, _over_lcm=0)
        assert not call().is_zero(), name
        assert counts == {"_trusted": 1, "_over_lcm": inputs}, name


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


# -- the cochain complex on hard rationals --------------------------------------

# product entries over 3 and 7, twist entries over 9, numerators of 2^70 and more
PRODUCT_VALUES = (Fraction(BIG + 1, 3), Fraction(-(BIG + 5), 7), Fraction(2**71 + 3, 7), Fraction(-4, 3))
TWIST_VALUES = (Fraction(BIG + 7, 9), Fraction(-(2**71), 9), Fraction(5, 9))


def hard_table(rng, dim):
    return table_from_entries(dim, {(i, j): {rng.randrange(1, dim + 1): rng.choice(PRODUCT_VALUES)}
                                    for i in range(1, dim + 1) for j in range(1, dim + 1) if rng.random() < 0.5})


def hard_structures():
    """The catalog families with parameters of 2^70 and more over 3, 7 and 9,
    where only the 3-dimensional families' b reaches a twist; then random
    tables over 3 and 7 under twists over 9, as a dialgebra and as a
    one-product algebra, in dimensions 2 and 3, whose spaces are neither
    zero nor everything."""
    rng = random.Random(1)
    for name, entry in catalog().items():
        yield name, entry.build(**{p: Fraction((-1) ** i * (BIG + 11 * i + 1), (3, 7, 9)[i % 3])
                                   for i, p in enumerate(entry.params)})
    for dim in (2, 3):
        phi = map_from_entries(dim, {2: {1: TWIST_VALUES[0]}})
        psi = map_from_entries(dim, {2: {1: TWIST_VALUES[1]}, **({3: {3: TWIST_VALUES[2]}} if dim == 3 else {})})
        yield f"random{dim}", BiHomDialgebra(dim, hard_table(rng, dim), hard_table(rng, dim), phi, psi)
        yield f"random{dim}/mul", BiHomAssociativeAlgebra(dim, hard_table(rng, dim), phi, psi)


def hard_cochain_of(rng, X, degree):
    if isinstance(X, BiHomDialgebra):
        return hard_cochain(rng, degree, X.dim)
    return HochschildCochain(degree, X.dim, {
        tuple(rng.randrange(X.dim) for _ in range(degree)): tuple(rng.choice(VALUES) for _ in range(X.dim))
        for _ in range(5)})


def test_compositions_and_residuals_match_the_references_on_hard_structures(monkeypatch):
    """bracket, braces with two factors, and both residuals at order 2, on
    the dialgebras whose products and twists have numerators of 2^70 and
    more over 3, 7 and 9: the catalog families and the random tables."""
    rng = random.Random(2026)
    for name, X in hard_structures():
        if isinstance(X, BiHomDialgebra):
            f1, f2, f3, g2 = (hard_cochain(rng, n, X.dim) for n in (1, 2, 3, 2))
            defm = TruncatedDeformation(X, [f2, g2], require_compatible=False)
            assert_exact(monkeypatch, [
                ("bracket", lambda: bracket(X, f2, g2), lambda: oracles.bracket(X, f2, g2)),
                ("bracket", lambda: bracket(X, f3, f1), lambda: oracles.bracket(X, f3, f1)),
                ("braces", lambda: braces(X, f3, [g2, f1]), lambda: oracles.braces(X, f3, [g2, f1])),
                ("deformation_residual", lambda: deformation_residual(defm, 2), lambda: oracles.deformation_residual(defm, 2)),
                ("operadic_residual", lambda: operadic_residual(defm, 2), lambda: oracles.operadic_residual(defm, 2)),
            ], name)


def test_delta_reads_the_contraction_blocks_by_argument_on_random_tables():
    """On the random tables, as dialgebras and as one-product algebras, and
    on the witnesses D and Y, whose invertible twists keep the outer blocks
    live at every degree: `apply_delta` gives delta f as the term-by-term
    oracle does for n <= 3, and n <= 4 on the witnesses, and delta delta f
    for n <= 3; `delta_rows` is, column by column, delta of each unit
    cochain for n <= 2."""
    rng = random.Random(2027)
    cases = [(name, X, 3) for name, X in hard_structures() if name.startswith("random")]
    cases += [(name, witness(name), 4) for name in ("D", "Y")]
    for name, X, top in cases:
        cx, ref = _complex_of(X), oracles.dialg_coboundary if isinstance(X, BiHomDialgebra) else oracles.hoch_coboundary
        for n in range(1, top + 1):
            f = hard_cochain_of(rng, X, n)
            df = cx.apply_delta(f)
            assert list(df.data.items()) == list(ref(X, f).data.items()), (name, n)
            if n <= 3:
                assert list(cx.apply_delta(df).data.items()) == list(ref(X, df).data.items()), (name, n)
            if n <= 2:
                rows, size = cx.delta_rows(n), cx.cochain_dim(n)
                for c in range(size):
                    unit = cx.cochain.unflatten(n, X.dim, [int(i == c) for i in range(size)])
                    assert [row.get(c, 0) for row in rows] == list(ref(X, unit).flatten()), (name, n, c)


def fractions_only(rows):
    return all(type(v) is Fraction for row in rows for _, v in (row.items() if isinstance(row, dict) else row))


def test_the_complex_matches_the_ambient_oracle_on_hard_rationals():
    """C, Z, B and the report against the spaces eliminated over every
    coordinate, delta f against its term-by-term evaluation, and the delta
    rows applied to f against the same, for n <= 3."""
    rng = random.Random(2025)
    for name, X in hard_structures():
        dialg = isinstance(X, BiHomDialgebra)
        delta, delta_rows, ref = ((dialg_coboundary, dialg_coboundary_rows, oracles.dialg_coboundary) if dialg
                                  else (hoch_coboundary, hoch_coboundary_rows, oracles.hoch_coboundary))
        for n in (1, 2, 3):
            got, want = cohomology_spaces(X, n), oracles.ambient_cohomology_spaces(X, n)
            assert [S.sparse_rows() for S in got] == [S.sparse_rows() for S in want], (name, n)
            assert all(fractions_only(S.sparse_rows()) for S in got), (name, n)
            rep, (C, Z, B) = cohomology_report(X, n), want
            assert (rep.compatible_dim, rep.cocycle_dim, rep.coboundary_dim) == (C.dim, Z.dim, B.dim), (name, n)
            assert rep.contained == Z.contains_space(B), (name, n)
            f = hard_cochain_of(rng, X, n)
            df, expected = delta(X, f), ref(X, f)
            assert list(df.data.items()) == list(expected.data.items()), (name, n)
            assert all(type(v) is Fraction for val in df.data.values() for v in val), (name, n)
            rows, flat = delta_rows(X, n), f.flatten()
            assert [sum((v * flat[c] for c, v in row.items()), Fraction(0)) for row in rows] == list(expected.flatten()), (name, n)
            assert fractions_only(rows), (name, n)


def test_the_singleton_pass_matches_every_row_of_delta_g_on_hard_rationals():
    """Ranks, pivots, containment, B and Z from the integer restrictions
    equal those of every row of delta . G, for n <= 5."""
    for name, X in hard_structures():
        cx, degrees = _complex_of(X), range(1, 6)
        for n, (pivots, picked, contained, B, Z) in zip(degrees, oracles.delta_g_routes(cx, degrees)):
            rep = cx.report(n)
            assert tuple(sorted(cx.singletons(n)[1].pivots)) == pivots, (name, n)
            assert rep.compatible_dim - rep.cocycle_dim == len(pivots), (name, n)
            assert rep.coboundary_dim == len(picked) == B.dim and rep.contained == contained, (name, n)
            assert cx.coboundaries(n) == B and fractions_only(cx.coboundaries(n).sparse_rows()), (name, n)
            assert Z is None or cx.cocycles(n) == Z and fractions_only(cx.cocycles(n).sparse_rows()), (name, n)


def _unhashable(self):
    raise AssertionError("a Fraction was hashed")


def test_restrictions_are_interned_by_integer_content(monkeypatch):
    """With `Fraction.__hash__` refusing, `_Complex.restricted` still builds
    the kernels, the block tables and the restrictions of a catalog algebra
    at a rational binding, and gives what it gives unpatched."""
    A = catalog()["Alg3_1"].build(a=Fraction(7, 5), b=Fraction(-5, 9), c=Fraction(BIG + 1, 3), d=2, f=Fraction(1, 2))
    want = [_Complex(A, TreeCochain).restricted(n) for n in (1, 2, 3)]
    cx = _Complex(A, TreeCochain)
    with monkeypatch.context() as patched:
        patched.setattr(Fraction, "__hash__", _unhashable)
        got = [cx.restricted(n) for n in (1, 2, 3)]
    assert got == want
    assert len(want[2].images) > 1  # more than one distinct restriction


def nil2(c, t=1):
    twist = map_from_entries(2, {2: {1: t}})
    return BiHomAssociativeAlgebra(2, table_from_entries(2, {(2, 2): {1: c}}), twist, twist, name="nil2")


def witness(name):
    """Witness D or Y of tests/fixtures/deep_degrees: complexes whose
    singleton pass leaves columns uncovered."""
    return build_block(parse_path(Path(__file__).parent / "fixtures" / "deep_degrees" / f"witness_{name.lower()}.dlg"), name)


def _by_col(K):
    """K's entries by column: {j: [(a, K[a][j]), ...]}."""
    by_col = {}
    for a, krow in enumerate(K):
        for j, v in krow:
            by_col.setdefault(j, []).append((a, v))
    return by_col


def _record_rows(kernel):
    """The rows of d K_n that `restricted`'s record (d, pivot columns, other
    rows by position) stands for: a position it holds no row for is the unit
    row ((f, d),) at its pivot column f."""
    d, free, wide = kernel
    assert all(len(row) > 1 for row in wide.values())  # no row is held for a unit row
    return [wide[a] if a in wide else ((f, d),) for a, f in enumerate(free)]


def _restriction(row, by_col, k, scale):
    """A block row, its columns shifted by k, on each row a of K, given by
    column as by_col[j] = [(a, K[a][j]), ...]: {a: scale (row . K[a])}."""
    img = {}
    for j, x in row:
        for a, v in by_col.get(j + k, ()):
            img[a] = img.get(a, 0) + scale * x * v
    return {a: v for a, v in img.items() if v}


def _id_columns(obj, size, depth=4):
    """The lists and tuples of `size` ints reachable from obj's containers."""
    if depth < 0 or not isinstance(obj, (list, tuple, dict)):
        return []
    found = [obj] if isinstance(obj, (list, tuple)) and len(obj) == size and all(type(x) is int for x in obj) else []
    for x in obj.values() if isinstance(obj, dict) else obj:
        found += _id_columns(x, size, depth - 1)
    return found


def test_the_class_record_expands_to_every_block_rows_restriction():
    """For every (block, product) key s and local output row r,
    images[classes[row_class[r]][s]] is that block row's restriction to
    K_n, computed here from `_coboundary_blocks` and K_n in Fractions, a
    row the record does not hold reads the zero restriction under every
    key, no class is all zero, and the record's K_n is d K_n; no list or
    tuple of m^(n+2) ints is reachable from the complex, so nothing is
    sized by every local output row.  On the nine families at two
    bindings, hard-rational Alg3_1, nil2, the witnesses D and Y, and Ex43
    reading A in both complexes, for n <= 4."""
    rng = random.Random(31)
    cases = [X for _, X in structures(rng)]
    cases += [catalog()["Alg3_1"].build(a=Fraction(7, 5), b=Fraction(-5, 9), c=Fraction(BIG + 1, 3), d=2, f=Fraction(1, 2)),
              nil2(Fraction(2, 3)), witness("D"), witness("Y")]
    ex43 = build_block(parse_path(Path(__file__).parent.parent / "corpus" / "ex43.dlg"), "Ex43_readingA")
    cases += [ex43, ex43.as_dialgebra()]  # K_n has denominators 2 and 4 here
    for X in cases:
        cx, m = _complex_of(X), X.dim
        for n in range(1, 5):
            blocks, K = bihom.cohomology._coboundary_blocks(cx, n), oracles.kernel_rows(cx, n)
            d = lcm(*(v.denominator for krow in K for _, v in krow))  # the tables are D^n delta^n, restrictions D^n d
            by_col = _by_col(K)
            rec = cx.restricted(n)
            assert rec.keys == tuple(blocks) and set(rec.row_class) <= set(range(m ** (n + 2))), (X.name, n)
            assert rec.kernel[0] == d, (X.name, n)
            assert _record_rows(rec.kernel) == [tuple((j, d * v) for j, v in krow) for krow in K], (X.name, n)
            for s, (key, table) in enumerate(blocks.items()):
                w = m if 0 < key[0] <= n else 1  # a contraction row stands for m rows, one per output k
                for r in range(m ** (n + 2)):
                    want = _restriction(table.get(r // w, ()), by_col, r % w, d)
                    got = rec.images[rec.classes[rec.row_class[r]][s]] if r in rec.row_class else {}
                    assert got == want, (X.name, n, key, r)
            assert all(len(cls) == len(rec.keys) and any(cls) for cls in rec.classes), (X.name, n)
            assert not _id_columns(vars(cx), m ** (n + 2)), (X.name, n)


@pytest.mark.parametrize("t", [1, Fraction(2, 3)])
def test_the_class_record_holds_live_rows_and_reads_unit_rows_unscaled(monkeypatch, t):
    """nil2 (c = 2/3, twist e2 -> t e1) at n = 10: the record holds no row
    that no block table of `_coboundary_blocks` holds, and each row a table
    holds reads its restriction under every key; the record holds K_n's
    unit rows by pivot column alone, and they stand for ((f, d),), d = 3^9
    at t = 2/3; and `restricted` calls `Fraction.as_integer_ratio` no more
    often than K_n's non-unit rows have entries, so a unit row is never
    scaled value by value."""
    cx, n, m = _Complex(nil2(Fraction(2, 3), t), HochschildCochain), 10, 2
    blocks, K = bihom.cohomology._coboundary_blocks(cx, n), oracles.kernel_rows(cx, n)
    ratios = []
    ratio = Fraction.as_integer_ratio
    monkeypatch.setattr(Fraction, "as_integer_ratio", lambda self: ratios.append(self) or ratio(self))
    rec = cx.restricted(n)
    monkeypatch.undo()
    assert len(ratios) <= sum(len(krow) for krow in K if len(krow) > 1) < len(K)
    d = lcm(*(v.denominator for krow in K for _, v in krow))
    assert rec.kernel[0] == d == (1 if t == 1 else 3**9)
    units = [a for a, krow in enumerate(K) if len(krow) == 1]
    assert not set(units) & set(rec.kernel[2]) and [rec.kernel[1][a] for a in units] == [K[a][0][0] for a in units]
    assert [_record_rows(rec.kernel)[a] for a in units] == [((K[a][0][0], d),) for a in units]
    widths = [m if 0 < i <= n else 1 for i, _ in blocks]
    live = {r * w + k for w, table in zip(widths, blocks.values()) for r in table for k in range(w)}
    assert rec.row_class and set(rec.row_class) <= live and len(live) < m ** (n + 2)
    by_col = _by_col(K)
    for s, (w, table) in enumerate(zip(widths, blocks.values())):
        for r in live:
            want = _restriction(table.get(r // w, ()), by_col, r % w, d)
            got = rec.images[rec.classes[rec.row_class[r]][s]] if r in rec.row_class else {}
            assert got == want, (t, s, r)


def test_images_skip_the_block_walk_when_no_pivot_is_picked(monkeypatch):
    """On nil2, r_(n-1) = 0 at odd n, so B^n has no image and `images(n)`
    returns [] without walking the block tables of the faces; at even n it
    walks them and finds the one image."""
    cx = _Complex(nil2(Fraction(2, 3)), HochschildCochain)
    want = [cx.images(n) for n in range(3, 8)]  # builds and keeps every kernel and restriction read
    walks = []
    layout = _Complex.layout
    monkeypatch.setattr(_Complex, "layout", lambda self, n: walks.append(n) or layout(self, n))
    assert [cx.images(n) for n in range(3, 8)] == want
    assert [len(b) for b in want] == [0, 1, 0, 1, 0]
    assert walks == [3, 5]


def test_the_compatible_kernel_matches_its_definition():
    """K_n, from the compatibility rows expanded slot by slot, equals the
    kernel of the rows written from the definition in `tests/oracles.py`,
    row for row, and the forced-zero columns the expansion adds as ranges
    are exactly the columns of the definition's one-entry rows, none of
    which it builds; its dimension is their modular-checked nullity where
    that is cheap.  The nine families at all-1 and at hard bindings for
    n <= 3, nil2 at c = 1 and c = 2/3 for n <= 10, both Ex43 readings
    (phi != psi, and psi has a two-entry line, so rows are eliminated past
    the forced zeros) for n <= 4, and the witnesses D and Y for n <= 3."""
    ones = [(name, entry.build(**{p: 1 for p in entry.params})) for name, entry in catalog().items()]
    cases = [(name, X, n) for name, X in ones + list(hard_structures()) for n in (1, 2, 3)]
    cases += [(f"nil2 {c}", nil2(c), n) for c in (1, Fraction(2, 3)) for n in range(1, 11)]
    corpus = parse_path(Path(__file__).parent.parent / "corpus" / "ex43.dlg")
    cases += [(name, build_block(corpus, name), n) for name in ("Ex43_readingA", "Ex43_readingB") for n in range(1, 5)]
    cases += [(name, witness(name), n) for name in ("D", "Y") for n in (1, 2, 3)]
    for name, X, n in cases:
        cx, size, rows = _complex_of(X), X.dim ** (n + 1), oracles.compat_rows(X, n)
        zeros: set[int] = set()
        built = bihom.cohomology._compat_rows(cx.twists[:1] if X.phi == X.psi else cx.twists, n, cx.D, zeros)
        assert zeros == {c for row in rows if len(row) == 1 for c in row}, (name, n)
        assert all(len(row) > 1 for row in built), (name, n)
        K = oracles.kernel_rows(cx, n)
        assert K == nullspace_rows(rows, size).sparse_rows() and fractions_only(K), (name, n)
        if size <= 2**7:
            assert len(K) == oracles.checked_nullity([[r.get(j, 0) for j in range(size)] for r in rows], size), (name, n)


def test_the_twist_rows_leave_no_garbage_cycle():
    """`_compat_rows` walks the prefixes from a stack, not from a closure
    that calls itself, so with the collector off, nil2's K_10 leaves nothing
    for `gc.collect()` to free."""
    X = nil2(1)
    _complex_of(X).kernel_form(1)  # the structure's memo is built before the count
    gc.collect()
    gc.disable()
    try:
        _complex_of(X).kernel_form(10)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_the_compatible_kernel_builds_no_row_per_unit(monkeypatch):
    """Structural guard, by count: a report on nil2 at degree 12 reads
    K_11 and K_12, over 2^12 and 2^13 coordinates that are almost all
    forced zero, yet `_compat_rows` returns at most one row dict per
    kernel, and no eliminator holds a pivot row for a unit column."""
    returned, elims = [], []
    compat, init = bihom.cohomology._compat_rows, _Eliminator.__init__
    monkeypatch.setattr(bihom.cohomology, "_compat_rows", lambda *args: returned.append(rows := compat(*args)) or rows)
    monkeypatch.setattr(_Eliminator, "__init__", lambda self: elims.append(self) or init(self))
    rep = _complex_of(nil2(1)).report(12)
    assert (rep.compatible_dim, rep.cohomology_dim) == (4096, 4095)
    assert len(returned) == 2 and all(len(rows) <= 1 for rows in returned)
    for elim in elims:
        elim.rank  # the pivots are found on first read
        held = [v for v in vars(elim).values() if isinstance(v, dict)]
        assert not any(isinstance(row, dict) and len(row) == 1 for v in held for row in v.values())


def test_each_kernel_is_scaled_once_per_degree(monkeypatch):
    """A nil2 report at degree 10 reads K_9 and K_10 on integers; each is
    scaled at most once, however many phases read it.  The structure's own
    scaling, when the complex is built, is not counted."""
    calls = []

    def counting(vectors):
        calls.append(vectors := list(vectors))
        return scaled(vectors)

    scaled = bihom.cohomology._scaled
    monkeypatch.setattr(bihom.cohomology, "_scaled", counting)
    cx = _Complex(nil2(1), HochschildCochain)
    cx.report(10)
    monkeypatch.undo()
    for n in (9, 10):
        K = list(oracles.kernel_rows(cx, n))
        assert sum(vectors == K for vectors in calls) <= 1, n
