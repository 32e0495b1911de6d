"""Identities that tie the cochain complex to the rest of the library.

The product at the last leaf of delta's trees is fixed by `bihom.trees`;
`tests/oracles.py` reads the same `orientations`, so the term-by-term
oracle cannot decide that rule.  These identities can, each from a module
that reads no leaf orientation:

* Z^1 is the compatible (0,0)-derivations, f(e_b) = D e_b
  (`bihom.derivations`);
* Z^2 is the first-order deformations, the compatible 2-cochains whose
  order-1 `deformation_residual` vanishes (`bihom.deformation`);
* delta f = (-1)^(n+1) [pi, f] for every compatible basis cochain
  (`bihom.operad`);
* on the untwisted witness D, a first-order deformation is trivial at
  order 1 exactly when it lies in B^2, and every obstruction is closed.

The witnesses D and Y (tests/fixtures/deep_degrees) have nonzero Z^1; on
the catalog Z^1 is zero, so the first identity is vacuous there.
"""

from fractions import Fraction
from pathlib import Path

import pytest

from bihom.algebra import catalog
from bihom.cohomology import (
    TreeCochain,
    dialg_coboundaries,
    dialg_coboundary,
    dialg_cocycles,
    dialg_compatible_space,
)
from bihom.deformation import TruncatedDeformation, deformation_residual, solve_triviality
from bihom.derivations import BiDegree, derivation_space
from bihom.dsl import build_block, parse_path
from bihom.operad import bracket, pi_element
from bihom.scalars import nullspace_rows, span_rows


def witness(name):
    return build_block(parse_path(Path(__file__).parent / "fixtures" / "deep_degrees" / f"witness_{name.lower()}.dlg"), name)


def combination(coeffs, cochains):
    """sum_i c_i f_i over (i, c_i) pairs, as flattened coordinates {j: value}."""
    acc = {}
    for i, c in coeffs:
        for j, v in enumerate(cochains[i].flatten()):
            if v:
                acc[j] = acc.get(j, 0) + c * v
    return acc


def first_order_deformations(A):
    """The compatible 2-cochains pi_1 whose order-1 residual vanishes: the
    residual is linear in pi_1, so this is a kernel over C^2's basis."""
    C2 = dialg_compatible_space(A, 2)
    basis = [TreeCochain.unflatten(2, A.dim, row) for row in C2.basis_rows()]
    residuals = [deformation_residual(TruncatedDeformation(A, [g]), 1).flatten() for g in basis]
    system = [{i: r[c] for i, r in enumerate(residuals) if r[c]} for c in range(len(residuals[0]))]
    kernel = nullspace_rows(system, len(basis))
    return span_rows([combination(row, basis) for row in kernel.sparse_rows()], C2.ambient_dim)


@pytest.mark.parametrize("name, dim", [("D", 3), ("Y", 1)])
def test_one_cocycles_are_the_compatible_derivations(name, dim):
    A = witness(name)
    derivations = derivation_space(A, BiDegree(0, 0)).basis_matrices()
    cochains = [TreeCochain(1, A.dim, {(0, (b,)): M.col(b) for b in range(A.dim)}) for (M,) in derivations]
    Z1 = dialg_cocycles(A, 1)
    assert Z1.dim == len(derivations) == dim
    assert span_rows([dict(enumerate(f.flatten())) for f in cochains], Z1.ambient_dim) == Z1


def test_two_cocycles_are_the_first_order_deformations():
    A = witness("D")
    deformations = first_order_deformations(A)
    assert deformations.dim == 11
    assert dialg_cocycles(A, 2) == deformations


def bracket_cases():
    yield "D", witness("D")
    yield "Y", witness("Y")
    for name, entry in catalog().items():
        yield name, entry.build(**{p: Fraction(2, 3) for p in entry.params})


@pytest.mark.parametrize("n", [1, 2])
def test_delta_is_the_bracket_with_pi(n):
    """delta f = (-1)^(n+1) [pi, f] on every compatible basis cochain of D,
    Y and the nine families at all parameters 2/3."""
    sign = (-1) ** (n + 1)
    for name, A in bracket_cases():
        pi = pi_element(A)
        for row in dialg_compatible_space(A, n).basis_rows():
            f = TreeCochain.unflatten(n, A.dim, row)
            assert dialg_coboundary(A, f) == bracket(A, pi, f).scale(sign), (name, n, f.data)


@pytest.mark.parametrize("g", [{(0, (0,)): (1, 0, 0)}, {(0, (2,)): (0, 0, 1)}, {(0, (0,)): (0, 0, 1)}])
def test_a_coboundary_is_a_trivial_deformation(g):
    """On D, pi_1 = delta g lies in B^2 and is trivial at order 1."""
    A = witness("D")
    pi1 = dialg_coboundary(A, TreeCochain(1, A.dim, g))
    assert not pi1.is_zero() and dialg_coboundaries(A, 2).contains(pi1.flatten())
    assert solve_triviality(TruncatedDeformation(A, [pi1]), 1).trivial


def test_order_one_triviality_is_membership_of_b2():
    """On the untwisted D, every 1-cochain is compatible, so each basis
    first-order deformation is trivial at order 1 exactly when it lies in
    B^2; where it is not, its obstruction is reported closed."""
    A = witness("D")
    B2 = dialg_coboundaries(A, 2)
    for row in first_order_deformations(A).basis_rows():
        res = solve_triviality(TruncatedDeformation(A, [TreeCochain.unflatten(2, A.dim, row)]), 1)
        assert res.trivial == B2.contains(row), row
        assert res.trivial or res.obstruction_closed, row
