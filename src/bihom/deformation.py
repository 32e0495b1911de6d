"""Truncated one-parameter deformations of the two products.

A deformation is a polynomial family x -|_t y = sum_i t^i (x -|_i y),
x |-_t y = sum_i t^i (x |-_i y) with the order-0 terms equal to the
base products and the twist maps left alone.  Each higher term is an
arity-2 tree cochain whose tree t carries the term of the product
`trees.PRODUCT_FOR_TREE[t]`, as in `operad.pi_element`.

Validity at order n means the order-n coefficient of every one of the
five structure laws vanishes.  `deformation_residual` assembles those
five maps into one arity-3 tree cochain, one tree per law: the law
residuals of `bihom.algebra` summed over the order pairs.
`operadic_residual` computes sum_{i+j=n} pi_i o pi_j through the operad
module instead; the two agree identically (the circle product's two
summands expand to the two sides of the laws).

Equivalences are truncated automorphism families psi_t = id + t psi_1 +
... acting by psi_t(x *_t y) = psi_t(x) *'_t psi_t(y).  Every transport
reads that identity order by order through one coefficient, the order-n
term of outer_t(inner_t(e_a) *_t inner_t(e_b)) (`_transport`):
- pushforward term n: outer psi_t, inner psi_t^{-1};
- pullback order i: outer S^{-1}, inner S, order 0 giving the new base;
- equivalence at order n: (psi_t, id) on the source against (id, psi_t)
  on the target;
- triviality at order n: the same two sides with psi_t cut below n and
  the target the undeformed base.  The unknown psi_n then solves a
  linear system whose right side is their difference; when the system
  is infeasible that difference is the obstruction, returned as an
  arity-2 cochain.

The residual and every transport read the products one way, from the
sparse order tables of `_order_cells`.  The dense `product` is the tests'
reference; only `_compatible`, the check on terms a caller passes in,
evaluates cochains through `TreeCochain.eval`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iproduct
from typing import Sequence

from bihom.algebra import (
    BiHomDialgebra,
    LAW_FOR_TREE,
    Vec,
    Violation,
    _combine,
    _derived,
    _law_residuals,
    _sparse,
    apply_table,
    leibniz_rows,
    vec_sub,
    zero_vec,
)
from bihom.cohomology import TreeCochain, dialg_coboundary
from bihom.operad import circle_square, pi_element
from bihom.scalars import Mat, solve_rows
from bihom.trees import DASHV, PRODUCT_FOR_TREE, VDASH, trees


def _checked_order(n: int) -> int:
    """n itself once it is an order, 0 or more; a negative n raises ValueError."""
    if n < 0:
        raise ValueError(f"order {n} out of range 0..")
    return n


def _compatible(base: BiHomDialgebra, f: TreeCochain) -> tuple[int, tuple[int, ...]] | None:
    """First (tree, args) where f fails to intertwine phi or psi, else None."""
    m = base.dim
    for M in (base.phi, base.psi):
        cols = [M.col(a) for a in range(m)]
        for t in range(len(trees(f.degree))):
            for args in iproduct(range(m), repeat=f.degree):
                if M.apply(f.value(t, args)) != f.eval(t, [cols[a] for a in args]):
                    return (t, args)
    return None


class TruncatedDeformation:
    """Base structure plus arity-2 terms pi_1 .. pi_N; pi_0 is the base."""

    __slots__ = ("base", "terms")

    def __init__(
        self,
        base: BiHomDialgebra,
        terms: Sequence[TreeCochain] = (),
        require_compatible: bool = True,
    ):
        terms = tuple(terms)
        for i, f in enumerate(terms, start=1):
            if not isinstance(f, TreeCochain):
                raise TypeError(f"term {i} must be a TreeCochain, not {type(f).__name__}")
            if f.degree != 2 or f.dim != base.dim:
                raise ValueError(f"term {i} must be an arity-2 cochain over the base")
            if require_compatible:
                bad = _compatible(base, f)
                if bad is not None:
                    raise ValueError(
                        f"term {i} does not intertwine the twists at {bad}"
                    )
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "terms", terms)

    def __setattr__(self, name, value):
        raise AttributeError("TruncatedDeformation is immutable")

    @property
    def order(self) -> int:
        return len(self.terms)

    def term(self, i: int) -> TreeCochain:
        """pi_i as a cochain; pi_0 packages the base products."""
        if i == 0:
            return pi_element(self.base)
        if not 1 <= i <= self.order:
            raise ValueError(f"term index {i} out of range")
        return self.terms[i - 1]

    def product(self, i: int, tree: int, x: Vec, y: Vec) -> Vec:
        """Order-i term of the product carried by the tree index, read densely."""
        _checked_order(i)
        if tree not in range(len(PRODUCT_FOR_TREE)):
            raise ValueError(f"tree {tree} out of range 0..{len(PRODUCT_FOR_TREE) - 1}")
        if i == 0:
            return apply_table(self.base.table(PRODUCT_FOR_TREE[tree]), x, y)
        if i > self.order:
            return zero_vec(self.base.dim)
        return self.terms[i - 1].eval(tree, [x, y])

    def extended(self, N: int) -> TruncatedDeformation:
        """Same data padded with zero terms up to order N."""
        if N < self.order:
            raise ValueError("cannot truncate below the current order")
        pad = tuple(
            TreeCochain.zero(2, self.base.dim) for _ in range(N - self.order)
        )
        return TruncatedDeformation(self.base, self.terms + pad)

    def __repr__(self) -> str:
        return f"TruncatedDeformation(base={self.base.name!r}, order={self.order})"


def zero_deformation(base: BiHomDialgebra, order: int = 0) -> TruncatedDeformation:
    return TruncatedDeformation(base, [TreeCochain.zero(2, base.dim) for _ in range(_checked_order(order))])


# -- order-n residuals ------------------------------------------------------------


def _order_cells(defm: TruncatedDeformation, n: int) -> list:
    """{product: cells} for orders 0..min(n, order), in the `cells` form of
    `bihom.algebra`: the base's at order 0, pi_i's values per tree at order i."""
    m = defm.base.dim
    return [defm.base.cells] + [{op: [[_sparse(f.data.get((t, (a, b)), ())) for b in range(m)] for a in range(m)]
                                 for t, op in enumerate(PRODUCT_FOR_TREE)} for f in defm.terms[:n]]


def deformation_residual(defm: TruncatedDeformation, n: int) -> TreeCochain:
    """Order-n coefficient of all five laws, one tree per law.

    Value on tree y at (a, b, c) is
    sum_{i+j=n} (e_a innerL_j e_b) outerL_i psi(e_c)
               - phi(e_a) outerR_i (e_b innerR_j e_c)
    for the law attached to y, the order-i products on basis pairs read
    from the base's cells (i = 0) or pi_i's values.  Order 0 recovers the
    base residuals.
    """
    if not 0 <= n <= defm.order:
        raise ValueError(f"order {n} out of range 0..{defm.order}")
    base, m, cells = defm.base, defm.base.dim, _order_cells(defm, n)
    residuals = _law_residuals(base, cells, n)
    return TreeCochain._trusted(3, m, {
        (t, abc): residuals[law](*abc) for t, law in enumerate(LAW_FOR_TREE) for abc in iproduct(range(m), repeat=3)})


def operadic_residual(defm: TruncatedDeformation, n: int) -> TreeCochain:
    """sum_{i+j=n} pi_i o pi_j through the operad's circle product."""
    if not 0 <= n <= defm.order:
        raise ValueError(f"order {n} out of range 0..{defm.order}")
    return circle_square(defm.base, defm.terms, n)


def displayed_family_residuals(defm: TruncatedDeformation, n: int) -> dict[str, TreeCochain]:
    """The residual split per law, keyed by law name, for reporting."""
    full = deformation_residual(defm, n)
    return {
        law: TreeCochain(3, full.dim, {(t, args): v for args, v in full.groups[t]})
        for t, law in enumerate(LAW_FOR_TREE)
    }


@dataclass(frozen=True)
class DeformationCheck:
    ok: bool
    failed_order: int | None
    witness: Violation | None


def is_deformation_up_to(defm: TruncatedDeformation, N: int) -> DeformationCheck:
    """Residuals vanish for every order 1..N; first failure wins."""
    for n in range(1, _checked_order(N) + 1):
        res = deformation_residual(defm, n)
        if not res.is_zero():
            (t, args), val = min(res.data.items())
            return DeformationCheck(
                ok=False,
                failed_order=n,
                witness=Violation(LAW_FOR_TREE[t], args, val),
            )
    return DeformationCheck(ok=True, failed_order=None, witness=None)


def infinitesimal(defm: TruncatedDeformation) -> TreeCochain:
    """pi_1, the candidate cocycle."""
    if defm.order < 1:
        raise ValueError("deformation has no first-order term")
    return defm.terms[0]


# -- transport and base change ---------------------------------------------------


def _transport(
    defm: TruncatedDeformation, outer: Sequence[Mat], inner: Sequence[Mat], n: int
) -> dict[tuple[int, tuple[int, ...]], Vec]:
    """Order-n coefficient of outer_t(inner_t(e_a) *_t inner_t(e_b)),
    sum_{i+j+k+l=n} outer_i(inner_j e_a *_l inner_k e_b), for both
    products and every basis pair, keyed (tree, (a, b)) with zeros left
    out.  A series lists the maps by order and is zero past its end."""
    m, cells = defm.base.dim, _order_cells(defm, n)
    outs, ins = ([[_sparse(M.col(a)) for a in range(m)] for M in series[: n + 1]] for series in (outer, inner))
    orders = [(i, l, j, k) for i, l, j in iproduct(range(len(outs)), range(len(cells)), range(len(ins)))
              for k in (n - i - l - j,) if 0 <= k < len(ins)]
    data = {}
    for t, op in enumerate(PRODUCT_FOR_TREE):
        for a, b in iproduct(range(m), repeat=2):
            acc = _combine(m, ((u * v * c, outs[i][s]) for i, l, j, k in orders for p, u in ins[j][a]
                               for q, v in ins[k][b] for s, c in cells[l][op][p][q]))
            if any(acc):
                data[(t, (a, b))] = tuple(acc)
    return data


def _difference(p: dict, q: dict, m: int) -> TreeCochain:
    """p - q as an arity-2 cochain whose data runs in (tree, a, b) order."""
    zero = zero_vec(m)
    return TreeCochain._trusted(
        2, m, {k: vec_sub(p.get(k, zero), q.get(k, zero)) for k in sorted(p.keys() | q.keys())}
    )


def base_change_pullback(defm: TruncatedDeformation, S: Mat) -> TruncatedDeformation:
    """Conjugate everything by an invertible S: products become
    S^{-1}(S x *_i S y), twists S^{-1} phi S and S^{-1} psi S."""
    base = defm.base
    m = base.dim
    if S.shape != (m, m):
        raise ValueError(f"base change matrix must be {m}x{m}, got {S.shape[0]}x{S.shape[1]}")
    inv = S.inverse()
    if inv is None:
        raise ValueError("base change matrix is singular")
    cells = _transport(defm, [inv], [S], 0)
    zero = zero_vec(m)
    tables = {op: tuple(tuple(cells.get((t, (a, b)), zero) for b in range(m)) for a in range(m))
              for t, op in enumerate(PRODUCT_FOR_TREE)}
    new_base = BiHomDialgebra(
        m, tables[DASHV], tables[VDASH], inv @ base.phi @ S, inv @ base.psi @ S,
        basis=base.basis, name=f"{base.name}:pullback",
    )
    terms = [TreeCochain(2, m, _transport(defm, [inv], [S], i)) for i in range(1, defm.order + 1)]
    return TruncatedDeformation(new_base, terms)


@dataclass(frozen=True)
class EquivalenceTransformation:
    """psi_t = psi_0 + t psi_1 + ... with psi_0 the identity."""

    maps: tuple[Mat, ...]

    def __post_init__(self):
        if not self.maps:
            raise ValueError("need at least psi_0")
        dim = self.maps[0].shape[0]
        if self.maps[0] != Mat.identity(dim):
            raise ValueError("psi_0 must be the identity")
        for i, M in enumerate(self.maps):
            if M.shape != (dim, dim):
                raise ValueError(f"psi_{i} has shape {M.shape}, psi_0 has {(dim, dim)}")
        object.__setattr__(self, "maps", tuple(self.maps))

    @property
    def order(self) -> int:
        return len(self.maps) - 1

    @property
    def dim(self) -> int:
        return self.maps[0].shape[0]

    def map(self, i: int) -> Mat:
        if _checked_order(i) <= self.order:
            return self.maps[i]
        return Mat.zeros(self.dim, self.dim)

    def inverse_maps(self, upto: int) -> list[Mat]:
        """chi_0..chi_upto with sum_{i+j=n} psi_i chi_j = [n == 0] id."""
        m = self.dim
        chis = [Mat.identity(m)]
        for n in range(1, _checked_order(upto) + 1):
            acc = Mat.zeros(m, m)
            for i in range(1, n + 1):
                acc = acc + self.map(i) @ chis[n - i]
            chis.append(-acc)
        return chis

    def truncated_inverse(self, upto: int | None = None) -> EquivalenceTransformation:
        upto = self.order if upto is None else upto
        return EquivalenceTransformation(tuple(self.inverse_maps(upto)))


def identity_transformation(dim: int) -> EquivalenceTransformation:
    return EquivalenceTransformation((Mat.identity(dim),))


def base_change_pushforward(
    defm: TruncatedDeformation,
    psit: EquivalenceTransformation,
    require_compatible: bool = True,
) -> TruncatedDeformation:
    """Transport the products along psi_t:  x *'_t y = psi_t(psi_t^{-1}x *_t psi_t^{-1}y).

    The twist maps are kept fixed, so a psi_t whose maps do not commute
    with phi and psi can push a valid deformation out of the class; the
    constructor's compatibility check will say so.
    """
    m = defm.base.dim
    if psit.dim != m:
        raise ValueError("dimension mismatch")
    N_out = defm.order + psit.order
    chis = psit.inverse_maps(N_out)
    terms = [TreeCochain(2, m, _transport(defm, psit.maps, chis, n)) for n in range(1, N_out + 1)]
    return TruncatedDeformation(defm.base, terms, require_compatible)


# -- equivalence and triviality ----------------------------------------------------


@dataclass(frozen=True)
class EquivalenceCheck:
    ok: bool
    witness: tuple | None
    twist_intertwining: tuple[tuple[int, str, bool], ...]


def check_equivalence(
    defm1: TruncatedDeformation,
    defm2: TruncatedDeformation,
    psit: EquivalenceTransformation,
    N: int,
) -> EquivalenceCheck:
    """Order-by-order product identities
    sum_{i+j=n} psi_i(x *_j y) = sum_{i+j+k=n} psi_i(x) *'_j psi_k(y)
    for both products and 0 <= n <= N, on all basis pairs; the witness
    is the first failing (n, product, (a, b), lhs - rhs).

    Whether each psi_n commutes with the structure twists is reported
    alongside, not folded into the verdict.
    """
    m = defm1.base.dim
    if defm2.base.dim != m or psit.dim != m:
        raise ValueError("dimension mismatch")
    _checked_order(N)
    diagnostics = []
    for i in range(1, psit.order + 1):
        for name, M in (("phi", defm1.base.phi), ("psi", defm1.base.psi)):
            diagnostics.append((i, name, (psit.map(i) @ M - M @ psit.map(i)).is_zero()))
    diagnostics = tuple(diagnostics)
    if defm1.base.phi != defm2.base.phi or defm1.base.psi != defm2.base.psi:
        return EquivalenceCheck(False, ("twist_mismatch",), diagnostics)
    one = [Mat.identity(m)]
    for n in range(N + 1):
        diff = _difference(
            _transport(defm1, psit.maps, one, n), _transport(defm2, one, psit.maps, n), m
        )
        if not diff.is_zero():
            (t, ab), val = next(iter(diff.data.items()))
            return EquivalenceCheck(False, (n, PRODUCT_FOR_TREE[t], ab, val), diagnostics)
    return EquivalenceCheck(True, None, diagnostics)


@dataclass(frozen=True)
class TrivialityResult:
    witness: EquivalenceTransformation | None
    obstructed_order: int | None
    obstruction: TreeCochain | None
    obstruction_closed: bool | None

    @property
    def trivial(self) -> bool:
        return self.witness is not None


def solve_triviality(defm: TruncatedDeformation, N: int) -> TrivialityResult:
    """Order-by-order linear solve for psi_t turning defm into its base.

    At order n the unknown psi_n satisfies, for both products o,
    psi_n(x o y) - psi_n(x) o y - x o psi_n(y) = -K_n(x, y) with
    K_n(x, y) = sum_{0<=i<n} psi_i(x o_{n-i} y)
              - sum_{0<i<n} psi_i(x) o psi_{n-i}(y),
    the two transport coefficients with psi_t cut below n.  The left side
    is the Leibniz system of a derivation with W = id, the same rows at
    every order, kept in the base's memo by coordinate, empty ones dropped:
    K_n at an empty row is an infeasible row.  On infeasibility K_n is the
    obstruction, returned with whether it is closed for the coboundary.
    """
    base, m = defm.base, defm.base.dim
    one, flat = [Mat.identity(m)], zero_deformation(base)
    psis: list[Mat] = list(one)
    lhs = _derived(base, "triviality", lambda X: {
        c: row for c, row in enumerate(leibniz_rows(tuple(X.cells.values()), Mat.identity(X.dim))) if row})
    for n in range(1, _checked_order(N) + 1):
        K = _difference(_transport(defm, psis, one, n), _transport(flat, one, psis, n), m)
        k = dict(_sparse(K.flatten()))
        rows = [{**row, m * m: -k[c]} if c in k else row for c, row in lhs.items()]
        sol = solve_rows(rows + [{m * m: -v} for c, v in k.items() if c not in lhs], m * m)
        if sol is None:
            return TrivialityResult(None, n, K, dialg_coboundary(base, K).is_zero())
        psis.append(Mat(m, m, list(sol.entries())))
    return TrivialityResult(EquivalenceTransformation(tuple(psis)), None, None, None)
