"""The sparse structure-constant form each structure builds once.

`A.cells[op][i][j]` must be the nonzero (k, c) pairs of the dense cell
`A.table(op)[i][j]` (or `A.mul[i][j]`), in ascending k, and
`A.twist_cols` the nonzero (k, c) pairs of each column of phi and of psi,
on every kind of structure the library builds.  The consumers read only
that form: with `apply_table` patched to raise in every module that binds
it, the derivation solvers, both coboundaries, `pi_element` and the
cohomology report give the same answers.
"""

import importlib
import pkgutil
import random
from fractions import Fraction
from itertools import product

import bihom
from bihom.algebra import (
    BiHomDialgebra,
    _twisted_products,
    apply_table,
    assoc_readings,
    catalog,
    from_differential_algebra,
)
from bihom.cohomology import HochschildCochain, TreeCochain, _Complex, cohomology_report, dialg_coboundary, hoch_coboundary
from bihom.deformation import base_change_pullback, zero_deformation
from bihom.derivations import (
    BiDegree,
    GeneralizedSpec,
    derivation_space,
    generalized_derivation_space,
    generalized_triple_space,
    quasi_derivation_space,
)
from bihom.operad import pi_element
from bihom.scalars import Mat
from bihom.trees import trees

from test_algebra import _upper_triangular
from test_law_routes import _bindings, _structures


def _support(v):
    return tuple((k, c) for k, c in enumerate(v) if c)


def _all_structures():
    """The law-route structures (the catalog at four bindings, the perturbed
    Alg2_2, ten random-table dialgebras, both readings as dialgebras), both
    readings themselves, a split differential algebra and a pulled-back base."""
    out = _structures() + list(assoc_readings().values())
    out.append(from_differential_algebra(_upper_triangular(), Mat.from_rows([[0, 0, 0], [-1, 0, 1], [0, 0, 0]])))
    A = catalog()["Alg3_1"].build(a=1, b=2, c=-1, d=3, f=1)
    S = Mat.from_rows([[1, 1, 0], [0, 1, 2], [1, 0, 1]])
    out.append(base_change_pullback(zero_deformation(A), S).base)
    return out


def test_sparse_form_matches_the_dense_tables():
    kinds = set()
    for A in _all_structures():
        ops = ("dashv", "vdash") if isinstance(A, BiHomDialgebra) else ("mul",)
        assert tuple(A.cells) == ops, A.name
        for op in ops:
            table = getattr(A, op)
            for i, j in product(range(A.dim), repeat=2):
                assert A.cells[op][i][j] == _support(table[i][j]), (A.name, op, i, j)
        for M, cols in zip((A.phi, A.psi), A.twist_cols):
            assert cols == tuple(_support(M.col(a)) for a in range(A.dim)), A.name
        kinds.add(type(A).__name__)
    assert kinds == {"BiHomDialgebra", "BiHomAssociativeAlgebra"}


def _random_map(rng, m):
    """An m x m map with rational entries over denominators 3 and 7, about half of them zero."""
    return Mat(m, m, [Fraction(rng.randint(-4, 4), rng.choice((3, 7))) if rng.random() < 0.5 else 0
                      for _ in range(m * m)])


def test_twisted_products_equal_the_dense_products():
    """`_twisted_products` gives (L e_a) o (R e_b) as `apply_table` does,
    twisted on the left, on the right and on both sides, on Fractions, and
    on integers from 0 when the cells and columns are integers."""
    rng = random.Random(2424)
    cases = 0
    for entry in catalog().values():
        for binding in _bindings(entry, rng)[:3]:
            A = entry.build(**binding)
            m, one = A.dim, Mat.identity(A.dim)
            L, R = _random_map(rng, m), _random_map(rng, m)
            lc, rc = ([_support(M.col(a)) for a in range(m)] for M in (L, R))
            for op, cells in A.cells.items():
                for left, right, Ld, Rd in ((lc, None, L, one), (None, rc, one, R), (lc, rc, L, R)):
                    got = _twisted_products(cells, left, right)
                    for a, b in product(range(m), repeat=2):
                        assert got[a][b] == _support(apply_table(A.table(op), Ld.col(a), Rd.col(b))), (A.name, op)
                        cases += 1
            # the complex's integer form: cells and twist columns times the lcm of their denominators
            cx = _Complex(A, TreeCochain)
            (phi, psi), ints = cx.twists, cx.cells
            for op, cells in ints.items():
                table = [[[0] * m for _ in range(m)] for _ in range(m)]
                for a, b in product(range(m), repeat=2):
                    for k, c in cells[a][b]:
                        table[a][b][k] = c
                dense = [[[0] * m for _ in range(m)] for _ in (phi, psi)]
                for M, cols in zip(dense, (phi, psi)):
                    for a, col in enumerate(cols):
                        for k, c in col:
                            M[a][k] = c
                got = _twisted_products(cells, phi, psi, 0)
                for a, b in product(range(m), repeat=2):
                    assert all(type(c) is int for _, c in got[a][b])
                    assert got[a][b] == _support(apply_table(table, dense[0][a], dense[1][b])), (A.name, op)
                    cases += 1
    assert cases == 3 * 2 * 4 * (4 * 2**2 + 5 * 3**2)  # bindings, products, four tables, families by m^2


def test_twist_rows_are_written_once():
    import bihom.algebra
    import bihom.cohomology
    import bihom.derivations

    assert bihom.cohomology._compat_rows is bihom.derivations._compat_rows is bihom.algebra._compat_rows


def _random_cochain(cls, rng, degree, dim):
    data = {}
    for t in range(len(trees(degree)) if cls is TreeCochain else 1):
        for args in product(range(dim), repeat=degree):
            if rng.random() < 0.4:
                data[(t, args) if cls is TreeCochain else args] = [rng.randint(-2, 2) for _ in range(dim)]
    return cls(degree, dim, data)


def _raise(*args, **kwargs):
    raise AssertionError("a sparse route called apply_table")


def test_sparse_routes_never_call_apply_table(monkeypatch):
    rng = random.Random(1616)
    dialgebras = [entry.build(**b) for entry in catalog().values() for b in _bindings(entry, rng)[:2]]
    readings = list(assoc_readings().values())
    dialgebras += [A.as_dialgebra() for A in readings]
    cochains = [(A, _random_cochain(TreeCochain, rng, n, A.dim)) for A in dialgebras for n in (1, 2)]
    cochains += [(A, _random_cochain(HochschildCochain, rng, n, A.dim)) for A in readings for n in (1, 2)]
    spec = GeneralizedSpec(1, 2, -1)

    def answers():
        out = []
        for A in dialgebras:
            for deg in (BiDegree(0, 0), BiDegree(1, 1)):
                spaces = (derivation_space(A, deg), generalized_derivation_space(A, deg, spec),
                          quasi_derivation_space(A, deg), generalized_triple_space(A, deg))
                out += [(s.rows, s.solutions) for s in spaces]
            out.append(pi_element(A))
        for A, f in cochains:
            out.append(dialg_coboundary(A, f) if isinstance(f, TreeCochain) else hoch_coboundary(A, f))
        out += [cohomology_report(X, n) for X in dialgebras + readings for n in (1, 2, 3)]
        return out

    want = answers()
    patched = 0
    for info in pkgutil.iter_modules(bihom.__path__):
        module = importlib.import_module(f"bihom.{info.name}")
        if hasattr(module, "apply_table"):
            monkeypatch.setattr(module, "apply_table", _raise)
            patched += 1
    assert patched >= 3
    assert answers() == want
