import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bihom.algebra import catalog
from bihom.scalars import (
    Mat,
    Subspace,
    _Eliminator,
    nullspace,
    nullspace_rows,
    rank,
    rank_rows,
    solve,
    solve_rows,
    span_rows,
)

import oracles

rationals = st.fractions(
    min_value=-9, max_value=9, max_denominator=4
)


@st.composite
def matrices(draw, max_rows=5, max_cols=5):
    r = draw(st.integers(1, max_rows))
    c = draw(st.integers(1, max_cols))
    ents = draw(st.lists(rationals, min_size=r * c, max_size=r * c))
    return Mat(r, c, ents)


@st.composite
def sparse_systems(draw, max_rows=8, max_cols=12):
    """Sparse rows over ncols unknowns, each with a few fractional entries."""
    ncols = draw(st.integers(1, max_cols))
    rows = draw(
        st.lists(
            st.dictionaries(st.integers(0, ncols - 1), rationals, max_size=4),
            max_size=max_rows,
        )
    )
    return rows, ncols


@given(matrices())
@settings(max_examples=60, deadline=None)
def test_rank_nullity(M):
    assert rank(M) + nullspace(M).dim == M.cols


@given(matrices())
@settings(max_examples=60, deadline=None)
def test_nullspace_vectors_are_exact_kernel_elements(M):
    ns = nullspace(M)
    for v in ns.basis_rows():
        assert all(x == 0 for x in M.apply(v))


@given(matrices(), st.integers(0, 2**30))
@settings(max_examples=40, deadline=None)
def test_rank_matches_independent_elimination(M, seed):
    rows = oracles.mat_rows(M)
    assert rank(M) == oracles.checked_rank(rows, seed=seed)


def test_rank_modular_consistency_on_fixed_matrices():
    fixed = [
        Mat.from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 9]]),
        Mat.from_rows([[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 4), Fraction(1, 6)]]),
        Mat.zeros(3, 4),
        Mat.identity(5),
    ]
    for M in fixed:
        rows = oracles.mat_rows(M)
        r = rank(M)
        for p in oracles.PRIMES[:3]:
            assert oracles.rank_mod(rows, p) == r


@given(matrices(max_rows=4, max_cols=4), st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_nullspace_is_canonical_under_row_operations(M, rng):
    """Row-equivalent matrices must produce the identical Subspace object."""
    rows = [list(M.row(i)) for i in range(M.rows)]
    for _ in range(6):
        i = rng.randrange(M.rows)
        j = rng.randrange(M.rows)
        c = Fraction(rng.randint(-3, 3))
        if i == j:
            if c not in (0, 1):
                rows[i] = [c * x for x in rows[i]]
        else:
            rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
    M2 = Mat.from_rows(rows)
    assert nullspace(M) == nullspace(M2)


@given(st.lists(st.lists(rationals, min_size=3, max_size=3), min_size=1, max_size=4))
@settings(max_examples=40, deadline=None)
def test_subspace_ignores_spanning_set_presentation(vecs):
    direct = Subspace(3, vecs)
    doubled = Subspace(3, [[2 * x for x in v] for v in vecs] + vecs)
    assert direct == doubled
    assert direct.dim == doubled.dim


def test_subspace_membership():
    S = Subspace(3, [[1, 0, 1], [0, 1, 1]])
    assert S.contains([1, 1, 2])
    assert S.contains([2, -1, 1])
    assert not S.contains([0, 0, 1])
    assert S.contains_space(Subspace(3, [[1, -1, 0]]))
    assert not S.contains_space(Subspace(3, [[1, 0, 0]]))
    with pytest.raises(ValueError):
        S.contains_space(Subspace(4, [[1, 0, 0, 0]]))


@given(matrices(max_rows=4, max_cols=4), st.lists(rationals, min_size=4, max_size=4))
@settings(max_examples=40, deadline=None)
def test_solve_agrees_with_dense_oracle(M, xs):
    b = Mat.column(M.apply(tuple(xs[: M.cols]) + (Fraction(0),) * max(0, M.cols - len(xs))))
    x = solve(M, b)
    assert x is not None
    assert Mat.column(M.apply(x.col(0))) == b
    ox = oracles.solve_dense(oracles.mat_rows(M), b.col(0))
    assert ox is not None
    assert list(M.apply(tuple(ox))) == list(b.col(0))


def test_solve_reports_inconsistency():
    M = Mat.from_rows([[1, 1], [1, 1]])
    b = Mat.column([1, 2])
    assert solve(M, b) is None
    assert oracles.solve_dense([[1, 1], [1, 1]], [1, 2]) is None


@given(matrices(max_rows=4, max_cols=4))
@settings(max_examples=30, deadline=None)
def test_transpose_involution_and_rank(M):
    assert M.transpose().transpose() == M
    assert rank(M) == rank(M.transpose())


def test_matrix_inverse_and_power():
    M = Mat.from_rows([[2, 1], [1, 1]])
    inv = M.inverse()
    assert inv is not None
    assert M @ inv == Mat.identity(2)
    assert M.power(3) == M @ M @ M
    assert M.power(-2) == inv @ inv
    assert Mat.from_rows([[1, 2], [2, 4]]).inverse() is None


def test_power_is_the_repeated_product_on_every_catalog_twist():
    """power(k) equals k factors for k = 0..6, and k factors of the inverse
    for k = -3..-1 where there is one.  The catalog twists are all singular,
    so each one plus the identity stands in for an invertible twist."""
    twists = []
    for entry in catalog().values():
        A = entry.build(**{p: 1 for p in entry.params})
        twists += [A.phi, A.psi, Mat.identity(A.dim) + A.phi, Mat.identity(A.dim) + A.psi]
    invertible = 0
    for M in twists:
        prod = Mat.identity(M.rows)
        for k in range(7):
            assert M.power(k) == prod, k
            prod = prod @ M
        inv = M.inverse()
        if inv is None:
            with pytest.raises(ValueError, match="negative power of singular matrix"):
                M.power(-1)
            continue
        invertible += 1
        prod = Mat.identity(M.rows)
        for k in range(1, 4):
            prod = prod @ inv
            assert M.power(-k) == prod, -k
    assert invertible == len(twists) // 2
    for k in (-1, 0, 1, 2):
        with pytest.raises(ValueError, match="power of non-square matrix"):
            Mat(2, 3, range(6)).power(k)


def test_det_matches_rank_deficiency():
    rng = random.Random(7)
    for _ in range(25):
        M = Mat(3, 3, [Fraction(rng.randint(-4, 4)) for _ in range(9)])
        assert (M.det() == 0) == (rank(M) < 3)


def test_fraction_entries_survive_elimination():
    # denominators must not leak approximation anywhere
    M = Mat.from_rows(
        [
            [Fraction(1, 3), Fraction(2, 7), Fraction(5, 11)],
            [Fraction(3, 13), Fraction(1, 17), Fraction(7, 19)],
        ]
    )
    ns = nullspace(M)
    assert ns.dim == 1
    v = ns.basis_rows()[0]
    assert all(isinstance(x, Fraction) for x in v)
    assert all(x == 0 for x in M.apply(v))


def test_mat_shape_errors():
    with pytest.raises(ValueError):
        Mat(2, 2, [1, 2, 3])
    with pytest.raises(ValueError):
        Mat.from_rows([[1, 2], [3]])
    with pytest.raises(ValueError):
        Mat.identity(2) @ Mat.identity(3)


@given(sparse_systems())
@settings(max_examples=80, deadline=None)
def test_sparse_kernel_is_canonical_echelon_form(system):
    rows, ncols = system
    ns = nullspace_rows(rows, ncols)
    assert ns == Subspace(ncols, ns.basis_rows())
    dense = [list(v) for v in ns.basis_rows()]
    assert dense == oracles.rref(dense)[0]
    system_rows = [[r.get(j, 0) for j in range(ncols)] for r in rows]
    assert ns.dim == oracles.checked_nullity(system_rows, ncols)


def test_eliminator_rref_matches_oracle_with_fill_in():
    # every row meets the dense first row, so reduction fills in columns
    # the rows did not hold, and back-substitution must clear them again
    rows = [
        {0: 1, 1: 1, 2: 1, 3: 1, 4: 1, 5: 1},
        {0: 2, 5: Fraction(1, 3)},
        {0: 3, 4: -1},
        {1: Fraction(1, 2), 3: 5},
        {2: 7, 3: 1, 4: 1},
    ]
    dense = [[r.get(j, 0) for j in range(6)] for r in rows]
    elim = _Eliminator()
    elim.add_many(rows)
    pivcols, rref = elim.rref()
    expected, oracle_pivots = oracles.rref(dense)
    assert list(pivcols) == oracle_pivots
    assert [[r.get(j, 0) for j in range(6)] for r in rref] == expected[: len(oracle_pivots)]


@st.composite
def singleton_heavy_systems(draw, max_cols=8):
    """Sparse rows, most of them one-entry: a one-entry row, maybe
    zero-valued; a duplicate one-entry row; a one-entry row after a
    multi-entry row with the same leading column; a chain of two-entry
    rows that become one-entry only as the unit at its end is peeled; and
    a general row, maybe with zero-valued entries."""
    ncols = draw(st.integers(2, max_cols))
    col = st.integers(0, ncols - 1)
    rows: list[dict[int, Fraction]] = []
    for kind in draw(st.lists(st.sampled_from(["unit", "duplicate", "late", "chain", "general"]), max_size=8)):
        if kind == "unit":
            rows.append({draw(col): draw(rationals)})
        elif kind == "duplicate":
            c = draw(col)
            rows += [{c: draw(rationals)}, {c: draw(rationals)}]
        elif kind == "late":
            multi = draw(st.dictionaries(col, rationals, min_size=2, max_size=4))
            rows += [multi, {min(multi): draw(rationals)}]
        elif kind == "chain":
            cs = draw(st.lists(col, min_size=2, max_size=4, unique=True))
            rows += [{a: draw(rationals), b: draw(rationals)} for a, b in zip(cs, cs[1:])]
            rows.append({cs[-1]: draw(rationals)})
        else:
            rows.append(draw(st.dictionaries(col, rationals, max_size=4)))
    return rows, ncols


@given(singleton_heavy_systems())
@settings(max_examples=150, deadline=None)
def test_singleton_pivots_match_the_oracle(system):
    """Unit pivots first leave every answer as the textbook row reduction
    gives it, with rows fed one by one or all at once."""
    rows, ncols = system
    dense = [[r.get(j, 0) for j in range(ncols)] for r in rows]
    reduced, pivots = oracles.rref(dense)
    reduced = reduced[: len(pivots)]
    one_by_one, at_once = _Eliminator(), _Eliminator()
    for row in rows:
        one_by_one.add(row)
    at_once.add_many(iter(rows))
    for elim in (one_by_one, at_once):
        pivcols, rref = elim.rref()
        assert list(pivcols) == sorted(elim.pivots) == pivots
        assert elim.rank == len(pivots)
        assert [[r.get(j, 0) for j in range(ncols)] for r in rref] == reduced
    assert rank_rows(rows) == len(pivots)
    assert [list(v) for v in span_rows(rows, ncols).basis_rows()] == reduced
    kernel = [list(v) for v in nullspace_rows(rows, ncols).basis_rows()]
    assert len(kernel) == ncols - len(pivots)
    assert kernel == oracles.rref(kernel)[0]
    assert all(sum(r.get(j, 0) * v[j] for j in range(ncols)) == 0 for r in rows for v in kernel)
    # the last column as the right-hand side
    want = oracles.solve_dense([d[:-1] for d in dense], [d[-1] for d in dense]) if rows else [0] * (ncols - 1)
    got = solve_rows(rows, ncols - 1)
    assert (None if got is None else list(got.col(0))) == want


def test_out_of_range_columns_are_refused():
    with pytest.raises(ValueError, match=r"row 0: column 5 outside \[0, 3\)"):
        nullspace_rows([{0: 1, 5: 1}], 3)
    with pytest.raises(ValueError, match=r"row 1: column -1 outside"):
        nullspace_rows([{1: 1}, {0: 1, -1: 1}], 3)
    # the right-hand side may use column ncols, nothing beyond it
    assert solve_rows([{0: 1, 2: 4}], 2) == Mat.column([4, 0])
    with pytest.raises(ValueError, match=r"row 0: column 3 outside \[0, 3\)"):
        solve_rows([{0: 1, 3: 1}], 2)
    with pytest.raises(ValueError, match=r"row 0: column -2 outside"):
        solve_rows([{-2: 1}], 2)


# -- unit-dominated systems ------------------------------------------------------

UNIT_VALUES = (1, -1, 3, Fraction(1, 3), Fraction(-5, 2), Fraction(7, 4))


def unit_dominated_system(rng, ncols, nrows):
    """Seeded sparse rows over ncols unknowns, most of them one-entry: a
    one-entry row, sometimes zero-valued; a two-entry row; a general row,
    sometimes with explicit zero entries."""
    rows = []
    for _ in range(nrows):
        kind = rng.random()
        if kind < 0.7:
            rows.append({rng.randrange(ncols): 0 if rng.random() < 0.05 else rng.choice(UNIT_VALUES)})
        elif kind < 0.85:
            a, b = rng.sample(range(ncols), 2)
            rows.append({a: rng.choice(UNIT_VALUES), b: rng.choice(UNIT_VALUES)})
        else:
            cols = rng.sample(range(ncols), rng.randint(2, min(5, ncols)))
            rows.append({c: 0 if rng.random() < 0.2 else rng.choice(UNIT_VALUES) for c in cols})
    return rows


UNIT_EDGE_CASES = [
    ("zero-valued one-entry rows", [{2: 0}, {0: Fraction(0)}, {1: 1, 2: 1}], 4),
    ("repeated unit columns", [{1: 3}, {1: Fraction(-1, 2)}, {1: 1}, {0: 2, 1: 1, 3: 1}], 4),
    ("explicit zero entries", [{0: 1, 1: 0, 2: 0}, {1: 0, 3: 2}, {2: 1, 3: 0, 4: Fraction(2, 3)}], 5),
    ("one entry once units are stripped", [{0: 1, 1: 2}, {1: 2, 2: 5, 3: 1}, {1: 5}, {2: Fraction(1, 2)}], 5),
    ("all units", [{c: Fraction(c + 1, 2)} for c in (4, 0, 2, 5)], 6),
    ("no rows", [], 5),
    ("no columns", [], 0),
]


def dense_kernel(dense, ncols):
    """The kernel's standard basis from the oracle's reduced echelon form."""
    reduced, pivots = oracles.rref(dense)
    out = []
    for f in (f for f in range(ncols) if f not in pivots):
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for row, p in zip(reduced, pivots):
            v[p] = -row[f]
        out.append(v)
    return out


def unit_dominated_cases():
    rng = random.Random(5)
    yield from UNIT_EDGE_CASES
    for i in range(60):
        ncols = rng.randint(2, 14)
        yield f"random {i}", unit_dominated_system(rng, ncols, rng.randint(0, 2 * ncols)), ncols


@pytest.mark.parametrize("label, rows, ncols", list(unit_dominated_cases()))
def test_unit_dominated_systems_match_the_dense_route(label, rows, ncols):
    """Kernel, span and rank of rows that are mostly one-entry equal the
    dense route, row for row and as Fractions."""
    dense = [[r.get(j, 0) for j in range(ncols)] for r in rows]
    kernel, span = nullspace_rows(rows, ncols), span_rows(rows, ncols)
    assert kernel._rows == Subspace(ncols, dense_kernel(dense, ncols))._rows, label
    assert span._rows == Subspace(ncols, dense)._rows, label
    assert rank_rows(rows) == oracles.rank(dense) == span.dim == ncols - kernel.dim, label
    assert all(type(v) is Fraction for S in (kernel, span) for row in S._rows for _, v in row), label
    assert [list(v) for v in span.basis_rows()] == oracles.rref(dense)[0][: span.dim], label


def test_one_entry_rows_out_of_range_are_refused():
    for rows, ncols, message in [
        ([{0: 1}, {7: 2}], 3, r"row 1: column 7 outside \[0, 3\)"),
        ([{1: 1, 2: 1}, {-1: 0}], 3, r"row 1: column -1 outside \[0, 3\)"),
        ([{0: 1}], 0, r"row 0: column 0 outside \[0, 0\)"),
    ]:
        for solver in (nullspace_rows, span_rows):
            with pytest.raises(ValueError, match=message):
                solver(rows, ncols)
