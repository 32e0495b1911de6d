"""Partial compositions, total composition, braces, and the Lie bracket.

The objects being composed are the tree cochains of `bihom.cohomology`:
an arity-n element is a multilinear map Y_n x A^n -> A.  Composition
pushes the tree through the two retraction maps of `bihom.trees` (the
outer retraction keeps one leaf per block, the inner one keeps one
block) and twists pass-through arguments by powers of phi and psi, left
arguments getting phi and right arguments psi.

Every composition is one rule, f(R0 y; T_1 g_1(R_1 y; ...), ...,
T_k g_k(R_k y; ...)), evaluated as a contraction on integers: f's entries
on each tree, and slot j's entries on R_j y (twisted once by T_j, or T_j's
columns for a pass-through slot), are scaled to integers over one
denominator per operand; f's entries on R0 y are contracted slot by slot,
each prefix of slot entries keeping the f entries its running coefficient
leaves nonzero, and each output coordinate is one Fraction over the
product of the denominators.  R0 y and R_j y come from one table per shape
(`trees.retraction_layout`); trees with equal retractions share one
contraction.  `partial_composition` twists the pass-through arguments,
`gamma_direct` each factor's output, and `dot` inserts two twisted factors
into the products' element.  `braces` and `bracket` add their signed terms
into one dict (`_signed_sum`), in the key order of the chain of additions.

`gamma` composes by iterating partial compositions from the rightmost
slot inward, so it differs from `gamma_direct` in where the twists act.
The two agree when the inserted factors intertwine the twist maps (the
compatible cochains of the cohomology module); on arbitrary cochains
they can differ, which is why both are exposed.

The arity-2 element attached to a dialgebra by `pi_element` packages
both products: on the tree whose first leaf hangs off the root it
multiplies with x -| y, on the other one with x |- y.  Its self-bracket
expands to the five structure laws, one per tree with four leaves.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from operator import mul

from bihom.algebra import BiHomDialgebra, Vec, _combine, basis_vec
from bihom.cohomology import TreeCochain
from bihom.scalars import ZERO, _over_lcm
from bihom.trees import orientations, retraction_layout, trees


def identity_element(dim: int) -> TreeCochain:
    """Arity-1 identity: returns its argument on the unique tree."""
    return TreeCochain._trusted(1, dim, {(0, (i,)): basis_vec(dim, i) for i in range(dim)})


def pi_element(A: BiHomDialgebra) -> TreeCochain:
    """The dialgebra's products as an arity-2 element, routed by tree shape."""
    data = {}
    for t, y in enumerate(trees(2)):
        op = orientations(y)[1]
        table = A.table(op)
        for i, line in enumerate(A.cells[op]):
            for j, cell in enumerate(line):
                if cell:
                    data[(t, (i, j))] = table[i][j]
    return TreeCochain._trusted(2, A.dim, data)


def _compose(A: BiHomDialgebra, f: TreeCochain, factors, sign: int = 1) -> TreeCochain:
    """f on the outer retraction R0 y, with factor j's output twisted by T_j.

    `factors` holds one (g_j, T_j) per slot of f: g_j a cochain read on
    its inner retraction, or None for a pass-through basis argument, and
    T_j a Mat, or None for no twist.
    """
    dim = A.dim
    if f.dim != dim or any(g is not None and g.dim != dim for g, _ in factors):
        raise ValueError("cochain dimension mismatch")
    parts = tuple(1 if g is None else g.degree for g, _ in factors)
    fs = [(D, [(args, [(k, x) for k, x in enumerate(v) if x]) for args, v in vals]) for D, vals in map(_over_lcm, f.groups)]
    twists = [None if T is None else _over_lcm((k, T.row(k)) for k in range(dim)) for _, T in factors]
    slots: dict[tuple[int, int | None], tuple[int, list[tuple[tuple[int, ...], tuple[int, ...]]]]] = {}
    sums: dict[tuple, list[tuple[tuple[int, ...], Vec]]] = {}
    data = {}
    for yi, key in enumerate(retraction_layout(parts, tuple(g is not None for g, _ in factors))):
        if key not in sums:
            sums[key] = out = []
            outer, inners = key
            D, entries = fs[outer]
            # each prefix of slot entries keeps the entries of f its running coefficient leaves nonzero
            live = [((), [(args, val, sign) for args, val in entries])]
            for j, t in enumerate(inners if entries else ()):
                if (j, t) not in slots:
                    # slot j's nonzero values in argument order over one denominator, each twisted once
                    g = factors[j][0]
                    d, pairs = _over_lcm([((x,), basis_vec(dim, x)) for x in range(dim)] if g is None else sorted(g.groups[t]))
                    if twists[j]:
                        dT, rows = twists[j]
                        d, pairs = d * dT, [(a, tuple(sum(map(mul, r, v)) for _, r in rows)) for a, v in pairs]
                    slots[j, t] = d, [(a, v) for a, v in pairs if any(v)]
                d, pairs = slots[j, t]
                D *= d
                live = [(b + a, nxt) for b, cur in live for a, v in pairs
                        if (nxt := [(args, val, c * x) for args, val, c in cur if (x := v[args[j]])])]
            for b, cur in live:
                if any(acc := _combine(dim, ((c, val) for _, val, c in cur), 0)):
                    out.append((b, tuple(Fraction(s, D) if s else ZERO for s in acc)))
        for b, val in sums[key]:
            data[(yi, b)] = val
    return TreeCochain._trusted(sum(parts), dim, data)


def partial_composition(A: BiHomDialgebra, f: TreeCochain, i: int, g: TreeCochain) -> TreeCochain:
    """Partial composition f o_i g, slot i counted from 1: g fills slot i
    untwisted, arguments left of it get phi^(n-1), right of it psi^(n-1)."""
    m, n = f.degree, g.degree
    if not 1 <= i <= m:
        raise ValueError(f"slot {i} out of range for arity {m}")
    P, Q = A.phi.power(n - 1), A.psi.power(n - 1)
    return _compose(A, f, [(None, P)] * (i - 1) + [(g, None)] + [(None, Q)] * (m - i))


def gamma(A: BiHomDialgebra, f: TreeCochain, gs) -> TreeCochain:
    """Total composition via iterated o_i, rightmost slot first."""
    gs = list(gs)
    if len(gs) != f.degree:
        raise ValueError("need one factor per slot")
    h = f
    for j in range(len(gs), 0, -1):
        h = partial_composition(A, h, j, gs[j - 1])
    return h


def gamma_direct(A: BiHomDialgebra, f: TreeCochain, gs) -> TreeCochain:
    """One-shot total composition, twisting each factor's output.

    Factor j's output is twisted by phi^(sum of (n_u - 1) for u > j)
    composed with psi^(sum for u < j).  Agrees with `gamma` on factors
    that intertwine phi and psi.
    """
    gs = list(gs)
    if len(gs) != f.degree:
        raise ValueError("need one factor per slot")
    extra = [g.degree - 1 for g in gs]
    return _compose(A, f, [
        (g, A.phi.power(sum(extra[j + 1 :])) @ A.psi.power(sum(extra[:j])))
        for j, g in enumerate(gs)
    ])


def braces(A: BiHomDialgebra, f: TreeCochain, gs) -> TreeCochain:
    """Brace insertion {f}{g_1, ..., g_k}: sum over ordered slot choices.

    Each summand plugs g_j into slot s_j of f (s_1 < ... < s_k) and
    carries the sign (-1)^e with
    e = sum_j (n_j - 1) * ((s_j - 1) + sum_{u<j} (n_u - 1)).
    """
    gs = list(gs)
    m = f.degree
    k = len(gs)
    if k == 0:
        return f
    if k > m:
        raise ValueError("more factors than slots")
    arities = [g.degree for g in gs]

    def terms():
        for slots in combinations(range(1, m + 1), k):
            e = sum((n - 1) * (s - 1 + sum(arities[:j]) - j) for j, (n, s) in enumerate(zip(arities, slots)))
            term = f
            for j in range(k - 1, -1, -1):
                term = partial_composition(A, term, slots[j], gs[j])
            yield (-1 if e % 2 else 1), term

    return _signed_sum(m + sum(arities) - k, f.dim, terms())


def _signed_sum(degree: int, dim: int, terms) -> TreeCochain:
    """sum of sign * term over (sign, term) pairs in one dict, keys in the order
    of the chain of + and -: a key that cancels leaves, and comes back last."""
    acc: dict = {}
    for sign, term in terms:
        for key, val in term.data.items():
            if key not in acc:
                acc[key] = val if sign == 1 else tuple(-v for v in val)
            elif any(v := tuple(a + b if sign == 1 else a - b for a, b in zip(acc[key], val))):
                acc[key] = v
            else:
                del acc[key]
    return TreeCochain._trusted(degree, dim, acc)


def circle(A: BiHomDialgebra, f: TreeCochain, g: TreeCochain) -> TreeCochain:
    """f o g = sum_i (-1)^((i-1)(n-1)) f o_i g."""
    return braces(A, f, [g])


def bracket(A: BiHomDialgebra, f: TreeCochain, g: TreeCochain) -> TreeCochain:
    """Graded commutator [f, g] = f o g - (-1)^((m-1)(n-1)) g o f."""
    m, n = f.degree, g.degree
    sign = 1 if ((m - 1) * (n - 1)) % 2 else -1
    return _signed_sum(m + n - 1, f.dim, [(1, circle(A, f, g)), (sign, circle(A, g, f))])


def brace_pi_single(A: BiHomDialgebra, f: TreeCochain) -> TreeCochain:
    """{pi}{f}: one factor into either slot of pi, signed sum."""
    return braces(A, pi_element(A), [f])


def dot(A: BiHomDialgebra, f: TreeCochain, g: TreeCochain) -> TreeCochain:
    """Cup-style product of arities m, n giving arity m + n.

    (f.g)(y; a_1..a_{m+n}) =
    (-1)^(mn) pi(R0 y; phi^(n-1) f(R1 y; a_1..a_m), psi^(m-1) g(R2 y; ...)).
    Evaluated literally; note id.id comes out as -pi under this sign.
    """
    m, n = f.degree, g.degree
    sign = -1 if (m * n) % 2 else 1
    return _compose(A, pi_element(A), [(f, A.phi.power(n - 1)), (g, A.psi.power(m - 1))], sign)
