"""Truncated one-parameter deformations of the two products.

A deformation is a polynomial family x -|_t y = sum_i t^i (x -|_i y),
x |-_t y = sum_i t^i (x |-_i y) with the order-0 terms equal to the
base products and the twist maps left alone.  Each higher term is an
arity-2 tree cochain: its value on the tree with index 0 is the -|
term, on index 1 the |- term, matching `operad.pi_element`.

Validity at order n means the order-n coefficient of every one of the
five structure laws vanishes.  `deformation_residual` assembles those
five coefficient maps into one arity-3 tree cochain, one tree per law;
`operadic_residual` computes sum_{i+j=n} pi_i o pi_j through the operad
module instead.  The two agree identically (the circle product's two
summands expand to exactly the left and right sides of the laws), and
the test suite keeps both routes.

Equivalences are truncated automorphism families psi_t = id + t psi_1 +
... acting by psi_t(x *_t y) = psi_t(x) *'_t psi_t(y).  Triviality at
order n is a linear system in psi_n whose right side is built from the
lower-order maps; when the system is infeasible the moved-over right
side is the obstruction, returned as an arity-2 cochain.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iproduct
from typing import Callable, Sequence

from bihom.algebra import (
    BiHomDialgebra,
    DIALGEBRA_LAWS,
    Vec,
    Violation,
    apply_table,
    basis_vec,
    is_zero_vec,
    table_from_entries,
    vec_add,
    vec_sub,
    zero_vec,
)
from bihom.cohomology import TreeCochain, dialg_coboundary
from bihom.derivations import leibniz_rows
from bihom.operad import circle, pi_element
from bihom.scalars import Mat, solve_rows
from bihom.trees import DASHV, VDASH, trees

# Tree indices of the two product slots in an arity-2 cochain.
TREE_DASHV = 0
TREE_VDASH = 1

# Law carried by each tree of an arity-3 cochain, in trees(3) order.
LAW_FOR_TREE = ("left_left", "left_right", "middle", "right_left", "right_right")

_OP_TREE = {DASHV: TREE_DASHV, VDASH: TREE_VDASH}


def _compatible(base: BiHomDialgebra, f: TreeCochain) -> tuple[int, tuple[int, ...]] | None:
    """First (tree, args) where f fails to intertwine phi or psi, else None."""
    m = base.dim
    for M in (base.phi, base.psi):
        for t in range(len(trees(f.degree))):
            for args in iproduct(range(m), repeat=f.degree):
                lhs = M.apply(f.value(t, args))
                rhs = f.eval(t, [M.apply(basis_vec(m, a)) for a in args])
                if lhs != rhs:
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
        """Order-i term of the product selected by tree index (0: -|, 1: |-)."""
        if i == 0:
            op = DASHV if tree == TREE_DASHV else VDASH
            return apply_table(self.base.table(op), x, y)
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
    return TruncatedDeformation(
        base, [TreeCochain.zero(2, base.dim) for _ in range(order)]
    )


# -- order-n residuals ------------------------------------------------------------


def deformation_residual(defm: TruncatedDeformation, n: int) -> TreeCochain:
    """Order-n coefficient of all five laws, one tree per law.

    Value on tree y at (a, b, c) is
    sum_{i+j=n} (e_a innerL_j e_b) outerL_i psi(e_c)
               - phi(e_a) outerR_i (e_b innerR_j e_c)
    for the law attached to y.  Order 0 recovers the base residuals.
    """
    if not 0 <= n <= defm.order:
        raise ValueError(f"order {n} out of range 0..{defm.order}")
    base = defm.base
    m = base.dim
    data: dict[tuple[int, tuple[int, ...]], Vec] = {}
    for t, law in enumerate(LAW_FOR_TREE):
        (outer_l, inner_l), (outer_r, inner_r) = DIALGEBRA_LAWS[law]
        tl_out, tl_in = _OP_TREE[outer_l], _OP_TREE[inner_l]
        tr_out, tr_in = _OP_TREE[outer_r], _OP_TREE[inner_r]
        for a, b, c in iproduct(range(m), repeat=3):
            ea, eb, ec = basis_vec(m, a), basis_vec(m, b), basis_vec(m, c)
            pc, pa = base.psi.apply(ec), base.phi.apply(ea)
            acc = zero_vec(m)
            for i in range(n + 1):
                j = n - i
                lhs = defm.product(i, tl_out, defm.product(j, tl_in, ea, eb), pc)
                rhs = defm.product(i, tr_out, pa, defm.product(j, tr_in, eb, ec))
                acc = vec_add(acc, vec_sub(lhs, rhs))
            if not is_zero_vec(acc):
                data[(t, (a, b, c))] = acc
    return TreeCochain(3, m, data)


def operadic_residual(defm: TruncatedDeformation, n: int) -> TreeCochain:
    """sum_{i+j=n} pi_i o pi_j through the operad's circle product."""
    if not 0 <= n <= defm.order:
        raise ValueError(f"order {n} out of range 0..{defm.order}")
    total = TreeCochain.zero(3, defm.base.dim)
    for i in range(n + 1):
        total = total + circle(defm.base, defm.term(i), defm.term(n - i))
    return total


def displayed_family_residuals(
    defm: TruncatedDeformation, n: int
) -> dict[str, TreeCochain]:
    """The residual split per law, keyed by law name, for reporting."""
    full = deformation_residual(defm, n)
    out = {}
    for t, law in enumerate(LAW_FOR_TREE):
        data = {k: v for k, v in full.data.items() if k[0] == t}
        out[law] = TreeCochain(3, defm.base.dim, data)
    return out


@dataclass(frozen=True)
class DeformationCheck:
    ok: bool
    failed_order: int | None
    witness: Violation | None


def is_deformation_up_to(defm: TruncatedDeformation, N: int) -> DeformationCheck:
    """Residuals vanish for every order 1..N; first failure wins."""
    for n in range(1, N + 1):
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


# -- base change ------------------------------------------------------------------


def _table_from_bilinear(m: int, fn: Callable[[Vec, Vec], Vec]):
    entries: dict[tuple[int, int], dict[int, Fraction]] = {}
    for a in range(m):
        for b in range(m):
            v = fn(basis_vec(m, a), basis_vec(m, b))
            cell = {k + 1: c for k, c in enumerate(v) if c}
            if cell:
                entries[(a + 1, b + 1)] = cell
    return table_from_entries(m, entries)


def base_change_pullback(defm: TruncatedDeformation, S: Mat) -> TruncatedDeformation:
    """Conjugate everything by an invertible S: products become
    S^{-1}(S x *_i S y), twists S^{-1} phi S and S^{-1} psi S."""
    inv = S.inverse()
    if inv is None:
        raise ValueError("base change matrix is singular")
    base = defm.base
    m = base.dim
    new_base = BiHomDialgebra(
        dim=m,
        basis=base.basis,
        dashv=_table_from_bilinear(
            m, lambda x, y: inv.apply(apply_table(base.dashv, S.apply(x), S.apply(y)))
        ),
        vdash=_table_from_bilinear(
            m, lambda x, y: inv.apply(apply_table(base.vdash, S.apply(x), S.apply(y)))
        ),
        phi=inv @ base.phi @ S,
        psi=inv @ base.psi @ S,
        name=f"{base.name}:pullback",
    )
    new_terms = []
    for f in defm.terms:
        data = {}
        for t in (TREE_DASHV, TREE_VDASH):
            for a in range(m):
                for b in range(m):
                    v = inv.apply(
                        f.eval(t, [S.apply(basis_vec(m, a)), S.apply(basis_vec(m, b))])
                    )
                    if not is_zero_vec(v):
                        data[(t, (a, b))] = v
        new_terms.append(TreeCochain(2, m, data))
    return TruncatedDeformation(new_base, new_terms)


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
        object.__setattr__(self, "maps", tuple(self.maps))

    @property
    def order(self) -> int:
        return len(self.maps) - 1

    @property
    def dim(self) -> int:
        return self.maps[0].shape[0]

    def map(self, i: int) -> Mat:
        if i <= self.order:
            return self.maps[i]
        return Mat.zeros(self.dim, self.dim)

    def inverse_maps(self, upto: int) -> list[Mat]:
        """chi_0..chi_upto with sum_{i+j=n} psi_i chi_j = [n == 0] id."""
        m = self.dim
        chis = [Mat.identity(m)]
        for n in range(1, upto + 1):
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
    if psit.dim != defm.base.dim:
        raise ValueError("dimension mismatch")
    m = defm.base.dim
    N_out = defm.order + psit.order
    chis = psit.inverse_maps(N_out)

    def chi(i: int) -> Mat:
        return chis[i] if i < len(chis) else Mat.zeros(m, m)

    new_terms = []
    for n in range(1, N_out + 1):
        data = {}
        for t in (TREE_DASHV, TREE_VDASH):
            for a in range(m):
                for b in range(m):
                    acc = zero_vec(m)
                    for i in range(n + 1):
                        for j in range(n - i + 1):
                            for k in range(n - i - j + 1):
                                l = n - i - j - k
                                inner = defm.product(
                                    l,
                                    t,
                                    chi(j).apply(basis_vec(m, a)),
                                    chi(k).apply(basis_vec(m, b)),
                                )
                                acc = vec_add(acc, psit.map(i).apply(inner))
                    if not is_zero_vec(acc):
                        data[(t, (a, b))] = acc
        new_terms.append(TreeCochain(2, m, data))
    return TruncatedDeformation(defm.base, new_terms, require_compatible)


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
    for both products and 0 <= n <= N, on all basis pairs.

    Whether each psi_n commutes with the structure twists is reported
    alongside, not folded into the verdict.
    """
    m = defm1.base.dim
    if defm2.base.dim != m or psit.dim != m:
        raise ValueError("dimension mismatch")
    diagnostics = []
    for i in range(1, psit.order + 1):
        for name, M in (("phi", defm1.base.phi), ("psi", defm1.base.psi)):
            diagnostics.append((i, name, (psit.map(i) @ M - M @ psit.map(i)).is_zero()))
    diagnostics = tuple(diagnostics)
    if not (defm1.base.phi - defm2.base.phi).is_zero() or not (
        defm1.base.psi - defm2.base.psi
    ).is_zero():
        return EquivalenceCheck(False, ("twist_mismatch",), diagnostics)
    for n in range(N + 1):
        for t, opname in ((TREE_DASHV, "dashv"), (TREE_VDASH, "vdash")):
            for a in range(m):
                for b in range(m):
                    ea, eb = basis_vec(m, a), basis_vec(m, b)
                    lhs = zero_vec(m)
                    for i in range(n + 1):
                        lhs = vec_add(
                            lhs, psit.map(i).apply(defm1.product(n - i, t, ea, eb))
                        )
                    rhs = zero_vec(m)
                    for i in range(n + 1):
                        for j in range(n - i + 1):
                            k = n - i - j
                            rhs = vec_add(
                                rhs,
                                defm2.product(
                                    j, t, psit.map(i).apply(ea), psit.map(k).apply(eb)
                                ),
                            )
                    if lhs != rhs:
                        return EquivalenceCheck(
                            False,
                            (n, opname, (a, b), vec_sub(lhs, rhs)),
                            diagnostics,
                        )
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
    everything built from the already-solved lower orders.  The left side
    is the Leibniz system of a derivation with W = id, the same rows at
    every order.  On infeasibility K_n is returned as the obstruction
    along with whether it is closed for the coboundary.
    """
    base = defm.base
    m = base.dim
    psis: list[Mat] = [Mat.identity(m)]
    lhs = leibniz_rows(base, Mat.identity(m), (0, 0, 0))
    for n in range(1, N + 1):
        ks: list[Fraction] = []
        kdata: dict[tuple[int, tuple[int, ...]], Vec] = {}
        for t, op in ((TREE_DASHV, DASHV), (TREE_VDASH, VDASH)):
            table = base.table(op)
            for a in range(m):
                for b in range(m):
                    ea, eb = basis_vec(m, a), basis_vec(m, b)
                    K = zero_vec(m)
                    for i in range(n):
                        K = vec_add(K, psis[i].apply(defm.product(n - i, t, ea, eb)))
                    for i in range(1, n):
                        K = vec_sub(
                            K,
                            apply_table(
                                table, psis[i].apply(ea), psis[n - i].apply(eb)
                            ),
                        )
                    if not is_zero_vec(K):
                        kdata[(t, (a, b))] = K
                    ks.extend(K)
        rows = [{**row, m * m: -k} if k else row for row, k in zip(lhs, ks)]
        sol = solve_rows(rows, m * m)
        if sol is None:
            K_cochain = TreeCochain(2, m, kdata)
            closed = dialg_coboundary(base, K_cochain).is_zero()
            return TrivialityResult(None, n, K_cochain, closed)
        psis.append(Mat(m, m, list(sol.entries())))
    return TrivialityResult(
        EquivalenceTransformation(tuple(psis)), None, None, None
    )
