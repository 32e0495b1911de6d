"""The law checks against their dense routes.

`check_dialgebra`, `check_bihom_associative`, `is_multiplicative` and
`is_morphism` read every residual from the structure's sparse form, built
once at construction.  Each residual must equal two independent routes: `law_residual` on
basis vectors (dense `apply_table` and `Mat.apply`), and the order-0
coefficient of the zero deformation, `deformation_residual`, on the tree
that carries the law.  `_respects` must equal f(e_i o e_j) - f(e_i) o' f(e_j)
computed densely, for square and non-square f.  With the dense routes
patched to raise, the checks must give the same reports.
"""

import random
from fractions import Fraction
from itertools import product

import pytest

import bihom.algebra as algebra
from bihom.algebra import (
    DIALGEBRA_LAWS,
    LAW_FOR_TREE,
    AxiomReport,
    BiHomAssociativeAlgebra,
    _law_residuals,
    _respects,
    _violations,
    apply_table,
    assoc_readings,
    catalog,
    check_bihom_associative,
    check_dialgebra,
    is_morphism,
    is_multiplicative,
    law_residual,
    vec_sub,
    zero_vec,
)
from bihom.deformation import deformation_residual, zero_deformation
from bihom.scalars import Mat
from bihom.trees import DASHV, VDASH

from test_algebra import _perturbed_alg2_2
from test_check_witnesses import _random_dialgebra, _random_map


def _bindings(entry, rng):
    """All ones, two seeded rational sets, and one with the first parameter 0."""
    def rand():
        return Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    ps = entry.params
    return [
        {p: 1 for p in ps},
        {p: rand() for p in ps},
        {p: rand() for p in ps},
        {p: 0 if n == 0 else rand() for n, p in enumerate(ps)},
    ]


def _structures():
    rng = random.Random(1496)
    out = [entry.build(**b) for entry in catalog().values() for b in _bindings(entry, rng)]
    out.append(_perturbed_alg2_2())
    out += [_random_dialgebra(seed) for seed in range(10)]
    out += [A.as_dialgebra() for A in assoc_readings().values()]
    return out


def test_law_residuals_match_law_residual_and_the_zero_deformation():
    triples = nonzero = 0
    for A in _structures():
        e = [A.e(i) for i in range(A.dim)]
        tabulated = _law_residuals(A)
        order0 = deformation_residual(zero_deformation(A), 0).data
        for law in DIALGEBRA_LAWS:
            t = LAW_FOR_TREE.index(law)
            for i, j, k in product(range(A.dim), repeat=3):
                got = tabulated[law](i, j, k)
                assert got == law_residual(A, law, e[i], e[j], e[k]), (A.name, law, (i, j, k))
                assert got == order0.get((t, (i, j, k)), zero_vec(A.dim)), (A.name, law, (i, j, k))
                assert all(type(c) is Fraction for c in got)
                triples += 1
                nonzero += any(got)
    assert triples == 4430
    assert nonzero == 95


def _dense_report(A, laws):
    """A law check with every residual read through `law_residual`."""
    e = [A.e(i) for i in range(A.dim)]
    violations = list(_violations("twist_commute", 1, A.dim, (A.phi @ A.psi - A.psi @ A.phi).col))
    for law, shape in laws.items():
        violations += _violations(law, 3, A.dim, lambda i, j, k: law_residual(A, shape, e[i], e[j], e[k]))
    return AxiomReport.from_violations(violations)


def test_check_reports_match_the_dense_route():
    for A in _structures():
        assert check_dialgebra(A) == _dense_report(A, {law: law for law in DIALGEBRA_LAWS}), A.name
        one = BiHomAssociativeAlgebra(A.dim, A.vdash, A.phi, A.psi)
        assert check_bihom_associative(one) == _dense_report(one.as_dialgebra(), {"bihom_assoc": "left_left"})


def test_respects_matches_the_dense_route():
    structures = _structures()
    cases = 0
    for n, (A, B) in enumerate(zip(structures, structures[1:] + structures[:1])):
        for f, target in ((_random_map(3000 + n, A.dim), A), (_random_map(4000 + n, B.dim, A.dim), B)):
            for op_a, op_b in product((DASHV, VDASH), repeat=2):
                ta, tb = A.table(op_a), target.table(op_b)
                got = _respects(f, A.cells[op_a], target.cells[op_b])
                for i, j in product(range(A.dim), repeat=2):
                    want = vec_sub(f.apply(ta[i][j]), apply_table(tb, f.col(i), f.col(j)))
                    assert got(i, j) == want, (A.name, target.name, op_a, op_b, (i, j))
                    cases += 1
    assert cases == 4 * sum(2 * A.dim ** 2 for A in structures)


def _raise(*args, **kwargs):
    raise AssertionError("a law check took a dense route")


def test_checks_never_take_the_dense_routes(monkeypatch):
    structures = _structures()
    pairs = list(zip(structures, structures[1:] + structures[:1]))
    maps = [(_random_map(5000 + n, A.dim), _random_map(6000 + n, B.dim, A.dim)) for n, (A, B) in enumerate(pairs)]

    def reports():
        out = []
        for (A, B), (f, g) in zip(pairs, maps):
            out += [check_dialgebra(A), is_multiplicative(A), is_morphism(f, A, A), is_morphism(g, A, B),
                    check_bihom_associative(BiHomAssociativeAlgebra(A.dim, A.dashv, A.phi, A.psi))]
        return out

    want = reports()
    assert not all(r.ok for r in want)
    monkeypatch.setattr(algebra, "apply_table", _raise)
    monkeypatch.setattr(algebra, "law_residual", _raise)
    monkeypatch.setattr(Mat, "apply", _raise)
    with pytest.raises(AssertionError, match="dense route"):
        algebra.law_residual(structures[0], "middle", *([structures[0].e(0)] * 3))
    assert reports() == want
