"""Independent references for cross-checking library output.

Deliberately naive: textbook row reduction over Fraction lists, plus
integer elimination modulo large primes, sharing no code with the
package's Mat/Subspace implementation.  The coboundary is also written
out here term by term through `TreeCochain.eval`, independent of the
block tables that the library applies, and so is the operad's
composition rule, evaluated on every tree and basis tuple where the
library contracts over the factors' supports.  The signed sums of the
braces, the bracket and the operadic residual are kept as the chains of
cochain additions and subtractions the library replaced by one
accumulator, and the deformation residual is evaluated law by law and
order by order through `apply_table` and `eval`; so is the transport
coefficient, one `TruncatedDeformation.product` per order quadruple,
and the triviality solve, every Leibniz equation written densely from its
definition, empty ones included, paired with K_n's coordinates by position.
The twisted Leibniz rows are written from their definition too, entry by
entry of the unknown maps through `apply_table` and `Mat.apply`, where the
library tabulates the slot terms of elementary maps.
The twist compatibility rows are written from their definition,
M f(b) - f(M b), one argument tuple at a time through `Mat.apply`, and
their degree-1 case the way the derivation solvers once wrote it, as
D M - M D entry by entry.  The
cochain spaces are also built here the direct way, in ambient
coordinates, as the reference for the library's compatible-coordinate
route; that reference does use the package's sparse eliminator, so it
checks the construction, not the elimination.  So does the full
delta^n . G route, kept as the reference for the singleton pass that
reads ranks, image pivots, containment and the cocycles off the classes
of restricted block rows.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, product as iproduct
from math import lcm

from bihom.algebra import (
    DIALGEBRA_LAWS,
    LAW_FOR_TREE,
    BiHomAssociativeAlgebra,
    BiHomDialgebra,
    Vec,
    apply_table,
    is_zero_vec,
    vec_add,
    vec_sub,
    zero_vec,
)
from bihom.cohomology import (
    HochschildCochain,
    TreeCochain,
    dialg_coboundary_rows,
    hoch_coboundary_rows,
)
from bihom.deformation import EquivalenceTransformation, TrivialityResult, zero_deformation
from bihom.scalars import ONE, ZERO, Mat, Subspace, _Eliminator, nullspace_rows
from bihom.operad import _scale, partial_composition
from bihom.trees import DASHV, PRODUCT_FOR_TREE, face, orientations, r0, ri, tree_index, trees

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


def _columns(M, m: int) -> list[Vec]:
    return [M.col(j) for j in range(m)]


def dialg_coboundary(A: BiHomDialgebra, f: TreeCochain) -> TreeCochain:
    """delta f in the tree complex; output degree is f.degree + 1.

    The twist columns and the products of two basis vectors are looked up
    in tables made once per call; f is evaluated term by term."""
    if f.dim != A.dim:
        raise ValueError("cochain dimension mismatch")
    n, m = f.degree, A.dim
    P = _columns(A.phi.power(n - 1), m)
    Q = _columns(A.psi.power(n - 1), m)
    phi, psi = _columns(A.phi, m), _columns(A.psi, m)
    es = [tuple(ONE if s == j else ZERO for s in range(m)) for j in range(m)]
    data: dict[tuple[int, tuple[int, ...]], Vec] = {}
    for yi, y in enumerate(trees(n + 1)):
        tables = [A.table(o) for o in orientations(y)]
        face_idx = [tree_index(face(y, i)) for i in range(n + 2)]
        for b in iproduct(range(m), repeat=n + 1):
            acc = list(
                apply_table(tables[0], P[b[0]], f.eval(face_idx[0], [es[x] for x in b[1:]]))
            )
            for i in range(1, n + 1):
                args = (
                    [phi[x] for x in b[: i - 1]]
                    + [tables[i][b[i - 1]][b[i]]]
                    + [psi[x] for x in b[i + 1 :]]
                )
                term = f.eval(face_idx[i], args)
                sign = -1 if i % 2 else 1
                for k, v in enumerate(term):
                    acc[k] += sign * v
            last = apply_table(
                tables[n + 1], f.eval(face_idx[n + 1], [es[x] for x in b[:-1]]), Q[b[-1]]
            )
            sign = -1 if (n + 1) % 2 else 1
            for k, v in enumerate(last):
                acc[k] += sign * v
            val = tuple(acc)
            if not is_zero_vec(val):
                data[(yi, b)] = val
    return TreeCochain(n + 1, m, data)


def hoch_coboundary(A: BiHomAssociativeAlgebra, f: HochschildCochain) -> HochschildCochain:
    """delta f in the one-product complex; output degree is f.degree + 1,
    with the same tables as `dialg_coboundary`."""
    if f.dim != A.dim:
        raise ValueError("cochain dimension mismatch")
    n, m = f.degree, A.dim
    P = _columns(A.phi.power(n - 1), m)
    Q = _columns(A.psi.power(n - 1), m)
    phi, psi = _columns(A.phi, m), _columns(A.psi, m)
    es = [tuple(ONE if s == j else ZERO for s in range(m)) for j in range(m)]
    data: dict[tuple[int, ...], Vec] = {}
    for b in iproduct(range(m), repeat=n + 1):
        acc = list(apply_table(A.mul, P[b[0]], f.eval([es[x] for x in b[1:]])))
        for i in range(1, n + 1):
            args = (
                [phi[x] for x in b[: i - 1]]
                + [A.mul[b[i - 1]][b[i]]]
                + [psi[x] for x in b[i + 1 :]]
            )
            term = f.eval(args)
            sign = -1 if i % 2 else 1
            for k, v in enumerate(term):
                acc[k] += sign * v
        last = apply_table(A.mul, f.eval([es[x] for x in b[:-1]]), Q[b[-1]])
        sign = -1 if (n + 1) % 2 else 1
        for k, v in enumerate(last):
            acc[k] += sign * v
        val = tuple(acc)
        if not is_zero_vec(val):
            data[b] = val
    return HochschildCochain(n + 1, m, data)


# -- compositions, evaluated on every basis tuple -----------------------------


def compose(A: BiHomDialgebra, f: TreeCochain, factors, sign: int = 1) -> TreeCochain:
    """The composition loop `bihom.operad._compose` replaced by a
    contraction, kept as its reference: f on the outer retraction R0 y,
    with factor j's output twisted by T_j, evaluated through `eval` on
    every tree and every basis tuple.

    `factors` holds one (g_j, T_j) per slot of f.  g_j is a cochain
    evaluated on its inner retraction, or None for a pass-through basis
    argument; T_j is a Mat, or None for no twist.
    """
    dim = A.dim
    if f.dim != dim or any(g is not None and g.dim != dim for g, _ in factors):
        raise ValueError("cochain dimension mismatch")
    parts = tuple(1 if g is None else g.degree for g, _ in factors)
    N = sum(parts)
    starts = [sum(parts[:j]) for j in range(len(parts))]
    basis = [tuple(ONE if s == k else ZERO for s in range(dim)) for k in range(dim)]
    # a pass-through argument is a fixed column of its twist
    passed = [
        (basis if T is None else [T.apply(e) for e in basis]) if g is None else None
        for g, T in factors
    ]
    data = {}
    for yi, y in enumerate(trees(N)):
        # retractions located once per tree, so eval gets indices, not trees to look up
        outer = tree_index(r0(y, parts))
        inners = [
            None if g is None else tree_index(ri(y, parts, j + 1)) for j, (g, _) in enumerate(factors)
        ]
        for b in iproduct(range(dim), repeat=N):
            args: list[Vec] = []
            for j, (g, T) in enumerate(factors):
                if g is None:
                    args.append(passed[j][b[starts[j]]])
                    continue
                v = g.eval(inners[j], [basis[x] for x in b[starts[j] : starts[j] + parts[j]]])
                args.append(v if T is None else T.apply(v))
            val = f.eval(outer, args)
            if not is_zero_vec(val):
                data[(yi, b)] = val if sign == 1 else tuple(sign * v for v in val)
    return TreeCochain(N, dim, data)


def compose_form(call, f, factors, sign: int = 1):
    """`compose` in the integer form that `bihom.operad._compose` takes and
    returns, so a test can put it in `_compose`'s place: each form (degree,
    one denominator per tree, data on ints) and each scaled twist (d, rows
    of d T) is turned back into Fractions, `compose` evaluates the rule, and
    its answer is scaled again by the operad's own boundary, `_scale`."""
    def cochain(form):
        degree, dens, data = form
        return TreeCochain(degree, call.A.dim, {key: tuple(Fraction(x, dens[key[0]]) for x in v) for key, v in data.items()})

    def twist(T):
        return None if T is None else Mat.from_rows([[Fraction(x, T[0]) for x in row] for _, row in T[1]])

    out = compose(call.A, cochain(f), [(None if g is None else cochain(g), twist(T)) for g, T in factors], sign)
    return _scale(out.degree, out.data)


# -- signed sums as chains of cochain additions, and the residual law by law ---


def braces(A: BiHomDialgebra, f: TreeCochain, gs) -> TreeCochain:
    """`bihom.operad.braces` as a chain: each slot choice's term added to
    or subtracted from a running total, a new cochain at every step."""
    gs = list(gs)
    if not gs:
        return f
    k, arities = len(gs), [g.degree for g in gs]
    total = TreeCochain.zero(f.degree + sum(arities) - k, f.dim)
    for slots in combinations(range(1, f.degree + 1), k):
        e = sum((arities[j] - 1) * ((s - 1) + sum(a - 1 for a in arities[:j])) for j, s in enumerate(slots))
        term = f
        for j in range(k - 1, -1, -1):
            term = partial_composition(A, term, slots[j], gs[j])
        total = total + term if e % 2 == 0 else total - term
    return total


def bracket(A: BiHomDialgebra, f: TreeCochain, g: TreeCochain) -> TreeCochain:
    """[f, g] = f o g - (-1)^((m-1)(n-1)) g o f, through the chain `braces`."""
    fg, gf = braces(A, f, [g]), braces(A, g, [f])
    return fg - gf if ((f.degree - 1) * (g.degree - 1)) % 2 == 0 else fg + gf


def operadic_residual(defm, n: int) -> TreeCochain:
    """sum_{i+j=n} pi_i o pi_j, one addition per order."""
    total = TreeCochain.zero(3, defm.base.dim)
    for i in range(n + 1):
        total = total + braces(defm.base, defm.term(i), [defm.term(n - i)])
    return total


def deformation_residual(defm, n: int) -> TreeCochain:
    """The order-n coefficient of the five laws, law by law and order by
    order on basis vectors: on the tree of a law at (a, b, c), the sum over
    i + j = n of (e_a inner_j e_b) outer_i psi(e_c) - phi(e_a) outer_i
    (e_b inner_j e_c), the order-0 products through `apply_table` and the
    order-i ones through pi_i's `eval` on tree 0 (-|) or 1 (|-)."""
    A, m = defm.base, defm.base.dim
    basis = [tuple(ONE if s == k else ZERO for s in range(m)) for k in range(m)]

    def product(i: int, op: str, x: Vec, y: Vec) -> Vec:
        if i == 0:
            return apply_table(A.table(op), x, y)
        if i > defm.order:
            return (ZERO,) * m
        return defm.terms[i - 1].eval(0 if op == DASHV else 1, [x, y])

    data = {}
    for t, law in enumerate(LAW_FOR_TREE):
        (outer_l, inner_l), (outer_r, inner_r) = DIALGEBRA_LAWS[law]
        for a, b, c in iproduct(range(m), repeat=3):
            x, y, z = basis[a], basis[b], basis[c]
            acc = [ZERO] * m
            for i in range(n + 1):
                lhs = product(i, outer_l, product(n - i, inner_l, x, y), A.psi.apply(z))
                rhs = product(i, outer_r, A.phi.apply(x), product(n - i, inner_r, y, z))
                acc = [s + u - v for s, u, v in zip(acc, lhs, rhs)]
            if any(acc):
                data[(t, (a, b, c))] = tuple(acc)
    return TreeCochain(3, m, data)


def transport(defm, outer, inner, n: int) -> dict:
    """sum_{i+j+k+l=n} outer_i(inner_j e_a *_l inner_k e_b) for both
    products and every basis pair, keyed (tree, (a, b)) with zeros left
    out: one dense `defm.product` per product, basis pair and order
    quadruple, each series zero past its end."""
    m = defm.base.dim
    data = {}
    for t in (0, 1):
        for a in range(m):
            for b in range(m):
                acc = zero_vec(m)
                for i, out in enumerate(outer[: n + 1]):
                    s = zero_vec(m)
                    for l in range(min(n - i, defm.order) + 1):
                        for j, inn in enumerate(inner[: n - i - l + 1]):
                            k = n - i - l - j
                            if k < len(inner):
                                s = vec_add(s, defm.product(l, t, inn.col(a), inner[k].col(b)))
                    acc = vec_add(acc, out.apply(s))
                if not is_zero_vec(acc):
                    data[(t, (a, b))] = acc
    return data


def solve_triviality(defm, N: int) -> TrivialityResult:
    """The order-by-order triviality solve: for each product o, basis pair
    (a, b) and output k, the equation psi_n(e_a o e_b)_k - (e_a o psi_n e_b)_k
    - (psi_n e_a o e_b)_k = -K_n(e_a, e_b)_k over the entries of psi_n, row
    by row, with `transport` for K_n and `solve_dense` for the system; an
    equation whose coefficients all cancel is kept, so a nonzero K_n there
    makes the system inconsistent."""
    A, m = defm.base, defm.base.dim
    lhs = []
    for op in PRODUCT_FOR_TREE:
        T = A.table(op)
        for a, b, k in iproduct(range(m), repeat=3):
            row = [ZERO] * (m * m)  # the entry of psi_n at (s, u) is coordinate s m + u
            for u in range(m):
                row[k * m + u] += T[a][b][u]
                row[u * m + b] -= T[a][u][k]
                row[u * m + a] -= T[u][b][k]
            lhs.append(row)
    one, zero = [Mat.identity(m)], zero_vec(m)
    psis = list(one)
    for n in range(1, N + 1):
        p, q = transport(defm, psis, one, n), transport(zero_deformation(A), one, psis, n)
        K = TreeCochain(2, m, {key: vec_sub(p.get(key, zero), q.get(key, zero)) for key in p.keys() | q.keys()})
        x = solve_dense(lhs, [-c for c in K.flatten()])
        if x is None:
            return TrivialityResult(None, n, K, dialg_coboundary(A, K).is_zero())
        psis.append(Mat(m, m, x))
    return TrivialityResult(EquivalenceTransformation(tuple(psis)), None, None, None)


# -- the cochain spaces, eliminated in ambient coordinates ---------------------


def compat_rows(X, n: int) -> list[dict[int, Fraction]]:
    """The rows of M f(b) - f(M b) = 0 over one tree's m^(n+1) coordinates
    (arguments row-major, then the output), for M = phi, then M = psi.

    Per argument tuple b and output k: f(b)_j enters (M f(b))_k with
    (M e_j)_k, and M b = (M e_(b_1)) x ... x (M e_(b_n)), so f(a)_k enters
    f(M b)_k with prod_i (M e_(b_i))_(a_i), for every tuple a."""
    m = X.dim
    unit = [tuple(ONE if i == j else ZERO for i in range(m)) for j in range(m)]
    rows = []
    for M in (X.phi, X.psi):
        columns = [M.apply(e) for e in unit]
        for b in iproduct(range(m), repeat=n):
            # M b, one argument at a time, expanded over the tuples a it reaches
            factors = [M.apply(unit[x]) for x in b]
            Mb = {}
            for a in iproduct(*[[y for y in range(m) if v[y]] for v in factors]):
                coef = ONE
                for v, y in zip(factors, a):
                    coef *= v[y]
                Mb[_rank(a, m)] = coef
            for k in range(m):
                row = {_rank(b, m) * m + j: columns[j][k] for j in range(m) if columns[j][k]}
                for r, coef in Mb.items():
                    row[r * m + k] = row.get(r * m + k, ZERO) - coef
                if row := {c: v for c, v in row.items() if v}:
                    rows.append(row)
    return rows


def commutation_rows(A, components: int) -> list[dict[int, Fraction]]:
    """D M - M D = 0 for M = phi, psi and each of `components` n x n unknown
    maps stacked row-major, entry (i, j) by entry through `Mat.__getitem__`:
    one row per block, twist and entry, in that order, empty rows kept."""
    n = A.dim
    rows = []
    for block, M in iproduct(range(components), (A.phi, A.psi)):
        off = block * n * n
        for i, j in iproduct(range(n), repeat=2):
            row = {}
            for s in range(n):
                c = M[s, j]
                if c:
                    key = off + i * n + s
                    row[key] = row.get(key, ZERO) + c
                c = M[i, s]
                if c:
                    key = off + s * n + j
                    row[key] = row.get(key, ZERO) - c
            rows.append({k: v for k, v in row.items() if v})
    return rows


def leibniz_rows(A, W, blocks=(0, 0, 0), weights=(ONE, ONE, ONE)) -> list[dict[int, Fraction]]:
    """alpha D_lhs(x o y) - beta (W x o D_right y) - gamma (D_left x o W y) = 0
    over n x n unknown maps stacked row-major, `blocks` = (lhs, left, right),
    written from the definition: D = sum of D[s][u] e_s e_u^T, so D(v)_k is
    sum_u D[k][u] v_u and D(e_b) is sum_s D[s][b] e_s.  The products go
    through `apply_table` and W through `Mat.apply`, on basis vectors; one
    row per product (-| then |-), basis pair (a, b) and output k, in that
    order, empty rows kept."""
    n = A.dim
    lhs, left, right = (block * n * n for block in blocks)
    alpha, beta, gamma = weights
    unit = [tuple(ONE if i == j else ZERO for i in range(n)) for j in range(n)]
    rows = []
    for T in (A.dashv, A.vdash):
        for a, b in iproduct(range(n), repeat=2):
            xy, wa, wb = apply_table(T, unit[a], unit[b]), W.apply(unit[a]), W.apply(unit[b])
            wx = [apply_table(T, wa, e) for e in unit]  # W e_a o e_s
            xw = [apply_table(T, e, wb) for e in unit]  # e_s o W e_b
            for k in range(n):
                row = {}
                terms = [(lhs + k * n + u, alpha, xy[u]) for u in range(n)]
                terms += [(right + s * n + b, -beta, wx[s][k]) for s in range(n)]
                terms += [(left + s * n + a, -gamma, xw[s][k]) for s in range(n)]
                for col, w, v in terms:
                    if v:
                        row[col] = row.get(col, ZERO) + w * v
                rows.append({col: v for col, v in row.items() if v})
    return rows


def _rank(args, m: int) -> int:
    r = 0
    for a in args:
        r = r * m + a
    return r


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
        one_tree = compat_rows(X, k)
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


# -- rank, image pivots and containment from every row of delta . G ----------


def delta_g_routes(cx, degrees):
    """Per degree n of ascending `degrees`: the pivot columns of
    delta^n . G and of delta^(n-1) . G, containment, B^n and, for n <= 4,
    Z^n (None above), from every row of delta . G, G the canonical basis of
    the compatible space, on the library's complex `cx` (its kernels and
    restricted block tables are shared with the route under test).

    The rows are built on every output tree.  The pivots come from
    eliminating all rows together.  B^n is spanned by the coboundaries,
    evaluated through `apply_delta`, of the basis cochains at the pivot
    columns of delta^(n-1) . G, and lies in Z^n when each image lies in
    K_n's span on every tree and every row of delta^n . G kills its
    G-coordinates.  Z^n is the span of G . ker(delta^n . G), put in
    canonical form by a fresh elimination.
    """
    rows: dict[int, list] = {}
    pivots: dict[int, tuple[int, ...]] = {0: ()}  # no cochains below degree 1
    for n in degrees:
        for k in (n - 1, n):
            if k not in pivots:
                elim = _Eliminator()
                rows[k] = delta_g_rows(cx, k)
                elim.add_many(rows[k])
                pivots[k] = tuple(sorted(elim.pivots))
        images = _basis_images(cx, n - 1, pivots[n - 1])
        elim = _Eliminator()
        elim.add_many(images)
        B = Subspace._from_rref(cx.cochain_dim(n), elim.rref()[1])
        Z = _cocycles_of(cx, n, rows[n]) if n <= 4 else None
        yield pivots[n], pivots[n - 1], _all_killed(cx, n, rows[n], images), B, Z


def kernel_rows(cx, n: int) -> tuple:
    """K_n as rows of (column, value) pairs, one per pivot column, ascending:
    `kernel_form`'s rows that are not unit rows, and a unit row at each other
    pivot column."""
    free, wide = cx.kernel_form(n)
    return tuple(wide.get(a) or ((f, ONE),) for a, f in enumerate(free))


def delta_g_rows(cx, k: int) -> list[dict[int, int]]:
    """The distinct nonzero rows of delta^k . G on every output tree, over
    the columns t * dim K_k + a of row a of K_k on tree t, on integers as
    `cx`'s restrictions are, written from the class record alone: the row of
    a class on an output tree is, over the tree's blocks, the restriction of
    the class under that block's (block, product), offset by its face."""
    dK, rec = len(cx.kernel_form(k)[0]), cx.restricted(k)
    at = {key: s for s, key in enumerate(rec.keys)}
    rows = set()
    for faces, ors in cx.layout(k):
        for cls in rec.classes:
            row: dict[int, int] = {}
            for i, (t, p) in enumerate(zip(faces, ors)):
                for a, v in rec.images[cls[at[i, p]]].items():
                    row[t * dK + a] = row.get(t * dK + a, 0) + v
            rows.add(tuple(sorted((c, v) for c, v in row.items() if v)))
    return [dict(row) for row in sorted(rows) if row]


def _cocycles_of(cx, n: int, rows) -> Subspace:
    """The span of G . ker(rows), rows over G's coordinates."""
    G = cx.compatible_space(n).sparse_rows()
    lifted = []
    for w in nullspace_rows(rows, len(G)).sparse_rows():
        acc: dict[int, Fraction] = {}
        for g, x in w:
            for j, v in G[g]:
                acc[j] = acc.get(j, ZERO) + x * v
        lifted.append({j: v for j, v in acc.items() if v})
    elim = _Eliminator()
    elim.add_many(lifted)
    return Subspace._from_rref(cx.cochain_dim(n), elim.rref()[1])


def _basis_images(cx, k: int, picked) -> list[dict[int, Fraction]]:
    """delta of the basis cochains of degree k at the columns `picked` of
    delta^k . G, as sparse degree-(k+1) coordinates.  delta of a cochain on
    input tree t lives on the output trees that read t, so cochains whose
    readers are disjoint share one `apply_delta`."""
    m, size, K = cx.X.dim, cx.X.dim ** (k + 2), kernel_rows(cx, k) if k else ()
    dK, readers = len(K), {}
    for y, (faces, _) in enumerate(cx.layout(k) if k else ()):
        for t in faces:
            readers.setdefault(t, set()).add(y)
    batches: list[tuple[set[int], list[tuple[int, int]]]] = []
    for c in picked:
        t, a = divmod(c, dK)
        batch = next((b for b in batches if not b[0] & readers[t]), None)
        if batch is None:
            batches.append(batch := (set(), []))
        batch[0].update(readers[t])
        batch[1].append((t, a))
    images = []
    for _, members in batches:
        data: dict = {}
        for t, a in members:
            for j, v in K[a]:
                r, out = divmod(j, m)
                args = []
                for _ in range(k):
                    r, x = divmod(r, m)
                    args.append(x)
                key = tuple(reversed(args))
                data.setdefault((t, key) if cx.cochain is TreeCochain else key, [ZERO] * m)[out] = v
        by_tree: dict[int, dict[int, Fraction]] = {}
        for key, val in cx.apply_delta(cx.cochain(k, m, data)).data.items():
            y, args = key if cx.cochain is TreeCochain else (0, key)
            base = y * size + sum(x * m ** (k - i) for i, x in enumerate(args)) * m
            by_tree.setdefault(y, {}).update((base + i, v) for i, v in enumerate(val) if v)
        for t, _ in members:
            images.append({c: v for y in readers[t] for c, v in by_tree.get(y, {}).items()})
    return images


def _all_killed(cx, n: int, rows, images) -> bool:
    """Each image lies in K_n's span on every tree, and its G-coordinates,
    read at K_n's pivots, are killed by every row."""
    K, size = kernel_rows(cx, n), cx.X.dim ** (n + 1)
    span = Subspace._from_rref(size, map(dict, K))
    at = {row[0][0]: a for a, row in enumerate(K)}
    by_col: dict[int, list[tuple[int, Fraction]]] = {}
    for i, row in enumerate(rows):
        for c, v in row.items():
            by_col.setdefault(c, []).append((i, v))
    for image in images:
        local: dict[int, dict[int, Fraction]] = {}
        for c, v in image.items():
            local.setdefault(c // size, {})[c % size] = v
        if any(span.residual(x.items()) for x in local.values()):
            return False
        acc: dict[int, Fraction] = {}
        for t, x in local.items():
            for j, w in x.items():
                for i, v in by_col.get(t * len(K) + at[j], ()) if j in at else ():
                    acc[i] = acc.get(i, ZERO) + w * v
        if any(acc.values()):
            return False
    return True
