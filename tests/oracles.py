"""Independent references for cross-checking library output.

Deliberately naive: textbook row reduction over Fraction lists, plus
integer elimination modulo large primes, sharing no code with the
package's Mat/Subspace implementation.  The coboundary is also written
out here term by term through `TreeCochain.eval`, independent of the
sparse delta rows that the library applies.  The cochain spaces are
also built here the direct way, in ambient coordinates, as the reference
for the library's compatible-coordinate route; that reference does use
the package's sparse eliminator, so it checks the construction, not the
elimination.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product as iproduct
from math import lcm

from bihom.algebra import (
    BiHomAssociativeAlgebra,
    BiHomDialgebra,
    Vec,
    apply_table,
    is_zero_vec,
)
from bihom.cohomology import (
    HochschildCochain,
    TreeCochain,
    _compat_rows,
    dialg_coboundary_rows,
    hoch_coboundary_rows,
)
from bihom.scalars import ONE, ZERO, Subspace, _Eliminator, nullspace_rows
from bihom.trees import face, orientations, tree_index, trees

# the ten smallest primes above 10**6
PRIMES = (
    1000003, 1000033, 1000037, 1000039, 1000081,
    1000099, 1000117, 1000121, 1000133, 1000151,
)


def _as_rows(rows) -> list[list[Fraction]]:
    return [[Fraction(x) for x in row] for row in rows]


def rref(rows) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form and pivot columns, no pivoting tricks."""
    m = _as_rows(rows)
    if not m:
        return [], []
    ncols = len(m[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(m)):
            if m[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = m[r][c]
        m[r] = [x / inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def rank(rows) -> int:
    return len(rref(rows)[1])


def rank_mod(rows, p: int) -> int:
    """Rank of the matrix reduced modulo p, denominators cleared per row."""
    m = []
    for row in _as_rows(rows):
        scale = lcm(*(x.denominator for x in row)) if row else 1
        m.append([(x.numerator * (scale // x.denominator)) % p for x in row])
    r = 0
    ncols = len(m[0]) if m else 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(m)):
            if m[i][c] % p:
                pivot = i
                break
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = pow(m[r][c], p - 2, p)
        m[r] = [(x * inv) % p for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [(a - f * b) % p for a, b in zip(m[i], m[r])]
        r += 1
        if r == len(m):
            break
    return r


def checked_rank(rows, seed: int = 0) -> int:
    """Fraction rank, cross-checked modulo 3 random primes above 10**6."""
    rows = _as_rows(rows)
    r = rank(rows)
    if rows:
        rng = random.Random(seed)
        for p in rng.sample(PRIMES, 3):
            rm = rank_mod(rows, p)
            if rm != r:
                raise AssertionError(f"rank mod {p} is {rm}, exact rank is {r}")
    return r


def checked_nullity(rows, ncols: int, seed: int = 0) -> int:
    rows = _as_rows(rows)
    if not rows:
        return ncols
    if any(len(row) != ncols for row in rows):
        raise ValueError("row length mismatch")
    return ncols - checked_rank(rows, seed=seed)


def mat_rows(M) -> list[list[Fraction]]:
    """Pull a package Mat apart into plain lists for the oracle."""
    r, c = M.shape
    return [[M[i, j] for j in range(c)] for i in range(r)]


def nullspace_dim(M, seed: int = 0) -> int:
    rows = mat_rows(M)
    return checked_nullity(rows, M.shape[1], seed=seed)


def solve_dense(rows, rhs) -> list[Fraction] | None:
    """One solution of A x = b by elimination on the augmented matrix,
    free variables set to zero; None when inconsistent."""
    rows = _as_rows(rows)
    b = [Fraction(x) for x in rhs]
    if len(rows) != len(b):
        raise ValueError("rhs length mismatch")
    ncols = len(rows[0]) if rows else 0
    aug = [row + [bi] for row, bi in zip(rows, b)]
    red, pivots = rref(aug)
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for r, c in enumerate(pivots):
        x[c] = red[r][ncols]
    return x


def hoch_delta2(A, fvals: dict[tuple[int, int], tuple]) -> dict[tuple[int, int, int], tuple]:
    """Three-argument coboundary of a 2-cochain, straight from the
    four-term display: mu(phi x, f(y,z)) - f(mu(x,y), psi z)
    + f(phi x, mu(y,z)) - mu(f(x,y), psi z).  Written out with plain
    loops, independent of the package's cochain machinery."""
    n = A.dim

    def mul(x, y):
        out = [Fraction(0)] * n
        for i in range(n):
            if not x[i]:
                continue
            for j in range(n):
                if not y[j]:
                    continue
                for k in range(n):
                    out[k] += x[i] * y[j] * A.mul[i][j][k]
        return tuple(out)

    def app(M, v):
        return tuple(sum(M[i, j] * v[j] for j in range(n)) for i in range(n))

    def f(x, y):
        out = [Fraction(0)] * n
        for (i, j), val in fvals.items():
            c = x[i] * y[j]
            if c:
                for k in range(n):
                    out[k] += c * val[k]
        return tuple(out)

    def basis(i):
        return tuple(Fraction(1) if j == i else Fraction(0) for j in range(n))

    out = {}
    for a in range(n):
        for b_ in range(n):
            for c in range(n):
                x, y, z = basis(a), basis(b_), basis(c)
                term = [Fraction(0)] * n
                for k, v in enumerate(mul(app(A.phi, x), f(y, z))):
                    term[k] += v
                for k, v in enumerate(f(mul(x, y), app(A.psi, z))):
                    term[k] -= v
                for k, v in enumerate(f(app(A.phi, x), mul(y, z))):
                    term[k] += v
                for k, v in enumerate(mul(f(x, y), app(A.psi, z))):
                    term[k] -= v
                if any(term):
                    out[(a, b_, c)] = tuple(term)
    return out


# -- the coboundary, evaluated directly ----------------------------------------


def dialg_coboundary(A: BiHomDialgebra, f: TreeCochain) -> TreeCochain:
    """delta f in the tree complex; output degree is f.degree + 1."""
    if f.dim != A.dim:
        raise ValueError("cochain dimension mismatch")
    n, m = f.degree, A.dim
    P = A.phi.power(n - 1)
    Q = A.psi.power(n - 1)
    data: dict[tuple[int, tuple[int, ...]], Vec] = {}
    for yi, y in enumerate(trees(n + 1)):
        ors = orientations(y)
        face_idx = [tree_index(face(y, i)) for i in range(n + 2)]
        for b in iproduct(range(m), repeat=n + 1):
            es = [tuple(ONE if s == bi else ZERO for s in range(m)) for bi in b]
            acc = list(
                apply_table(
                    A.table(ors[0]), P.apply(es[0]), f.eval(face_idx[0], es[1:])
                )
            )
            for i in range(1, n + 1):
                args = (
                    [A.phi.apply(v) for v in es[: i - 1]]
                    + [apply_table(A.table(ors[i]), es[i - 1], es[i])]
                    + [A.psi.apply(v) for v in es[i + 1 :]]
                )
                term = f.eval(face_idx[i], args)
                sign = -1 if i % 2 else 1
                for k, v in enumerate(term):
                    acc[k] += sign * v
            last = apply_table(
                A.table(ors[n + 1]), f.eval(face_idx[n + 1], es[:-1]), Q.apply(es[-1])
            )
            sign = -1 if (n + 1) % 2 else 1
            for k, v in enumerate(last):
                acc[k] += sign * v
            val = tuple(acc)
            if not is_zero_vec(val):
                data[(yi, b)] = val
    return TreeCochain(n + 1, m, data)


def hoch_coboundary(A: BiHomAssociativeAlgebra, f: HochschildCochain) -> HochschildCochain:
    """delta f in the one-product complex; output degree is f.degree + 1."""
    if f.dim != A.dim:
        raise ValueError("cochain dimension mismatch")
    n, m = f.degree, A.dim
    P = A.phi.power(n - 1)
    Q = A.psi.power(n - 1)
    data: dict[tuple[int, ...], Vec] = {}
    for b in iproduct(range(m), repeat=n + 1):
        es = [tuple(ONE if s == bi else ZERO for s in range(m)) for bi in b]
        acc = list(A.product(P.apply(es[0]), f.eval(es[1:])))
        for i in range(1, n + 1):
            args = (
                [A.phi.apply(v) for v in es[: i - 1]]
                + [A.product(es[i - 1], es[i])]
                + [A.psi.apply(v) for v in es[i + 1 :]]
            )
            term = f.eval(args)
            sign = -1 if i % 2 else 1
            for k, v in enumerate(term):
                acc[k] += sign * v
        last = A.product(f.eval(es[:-1]), Q.apply(es[-1]))
        sign = -1 if (n + 1) % 2 else 1
        for k, v in enumerate(last):
            acc[k] += sign * v
        val = tuple(acc)
        if not is_zero_vec(val):
            data[b] = val
    return HochschildCochain(n + 1, m, data)


# -- the cochain spaces, eliminated in ambient coordinates ---------------------


def ambient_cohomology_spaces(X, n: int) -> tuple[Subspace, Subspace, Subspace]:
    """(C^n, Z^n, B^n) the direct way, over every coordinate of every tree.

    C^n is the kernel of the compatibility rows of all trees, Z^n the
    kernel of those rows together with the delta^n rows, and B^n the span
    of the delta^(n-1) images of the basis of the ambient C^(n-1).
    """
    if isinstance(X, BiHomDialgebra):
        cochain, delta_rows = TreeCochain, dialg_coboundary_rows
    else:
        cochain, delta_rows = HochschildCochain, hoch_coboundary_rows
    m = X.dim

    def compat(k):
        size = m ** (k + 1)
        one_tree = _compat_rows((X.phi, X.psi), m, k)
        rows = [
            {c + t * size: v for c, v in row.items()}
            for t in range(cochain._ntrees(k))
            for row in one_tree
        ]
        return rows, cochain._ntrees(k) * size

    rows, dim = compat(n)
    C = nullspace_rows(rows, dim)
    Z = nullspace_rows(rows + delta_rows(X, n), dim)
    if n == 1:
        return C, Z, Subspace(dim, [])
    prev = nullspace_rows(*compat(n - 1))
    by_input: dict[int, list[tuple[int, Fraction]]] = {}
    for out_idx, row in enumerate(delta_rows(X, n - 1)):
        for in_idx, c in row.items():
            by_input.setdefault(in_idx, []).append((out_idx, c))
    elim = _Eliminator()
    for g in prev.sparse_rows():
        img: dict[int, Fraction] = {}
        for in_idx, gi in g:
            for out_idx, c in by_input.get(in_idx, ()):
                img[out_idx] = img.get(out_idx, ZERO) + c * gi
        elim.add(img)
    return C, Z, Subspace._from_rref(dim, elim.rref()[1])
