"""Partial compositions, total composition, braces, and the Lie bracket.

The objects being composed are the tree cochains of `bihom.cochains`:
an arity-n element is a multilinear map Y_n x A^n -> A.  Composition
pushes the tree through the two retraction maps of `bihom.trees` (the
outer retraction keeps one leaf per block, the inner one keeps one
block) and twists pass-through arguments by powers of phi and psi, left
arguments getting phi and right arguments psi.

Each entry point runs on integers from input to answer.  Its boundary,
`_Call`, checks each input (a `TreeCochain` on a `BiHomDialgebra` of its
dimension) and scales it once, by the lcm of its denominators
(`scalars._over_lcm`), to a private integer form: data keyed as in
`TreeCochain`, int tuples, one denominator per tree.  Each twist phi^k
psi^l read is scaled once too.  The answer is one `TreeCochain`, each
coordinate one `Fraction`; between the two no `Fraction` is made.
Every composition is one rule, f(R0 y; T_1 g_1(R_1 y; ...), ...,
T_k g_k(R_k y; ...)), contracted by `_compose`: f's entries on R0 y meet
slot j's on R_j y (twisted once by T_j, or T_j's columns for a
pass-through slot) slot by slot, each prefix of slot entries keeping the f
entries its running coefficient leaves nonzero.  Output tree y is over the
product of the denominators it read, and a chain of compositions (`gamma`,
a term of `braces`) passes that form on as it is.  R0 y and R_j y come
from one table per shape (`trees.retraction_layout`); trees with equal
retractions share one contraction.  `braces`, `bracket` and
`circle_square` add their signed terms into one dict (`_signed_sum`) over
the lcm, per tree, of the terms' denominators, in the key order of the
chain of additions.

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
from math import lcm
from operator import add, mul

from bihom.algebra import BiHomDialgebra, _combine, basis_vec
from bihom.cochains import TreeCochain, _by_tree, _check_kind
from bihom.scalars import ZERO, _over_lcm
from bihom.trees import PRODUCT_FOR_TREE, retraction_layout, trees


def identity_element(dim: int) -> TreeCochain:
    """Arity-1 identity: returns its argument on the unique tree."""
    return TreeCochain._trusted(1, dim, {(0, (i,)): basis_vec(dim, i) for i in range(dim)})


def _pi_data(A: BiHomDialgebra) -> dict:
    """e_i op e_j at (t, (i, j)) for each nonzero cell, op the product tree t carries."""
    return {(t, (i, j)): A.table(op)[i][j] for t, op in enumerate(PRODUCT_FOR_TREE)
            for i, line in enumerate(A.cells[op]) for j, cell in enumerate(line) if cell}


def pi_element(A: BiHomDialgebra) -> TreeCochain:
    """The dialgebra's products as an arity-2 element, routed by tree shape."""
    return TreeCochain._trusted(2, A.dim, _pi_data(A))


def _scale(degree: int, data: dict) -> tuple[int, list[int], dict]:
    """The integer form of Fraction data: (degree, one denominator per tree,
    here the lcm of all of data's, data on ints)."""
    D, pairs = _over_lcm(data.items())
    return degree, [D] * len(trees(degree)), dict(pairs)


class _Call:
    """An entry point's boundary: each input cochain checked and scaled once,
    each twist phi^k psi^l as (d, rows of d phi^k psi^l), None if identity."""

    def __init__(self, fn: str, A: BiHomDialgebra):
        self.fn, self.A, self.memo = fn, A, {}

    def form(self, f: TreeCochain) -> tuple:
        if id(f) not in self.memo:
            _check_kind(self.fn, self.A, f, BiHomDialgebra, TreeCochain)
            self.memo[id(f)] = _scale(f.degree, f.data)
        return self.memo[id(f)]

    def twist(self, k: int, l: int):
        if (k or l) and (k, l) not in self.memo:
            T = self.A.twist_power(k, l)
            self.memo[k, l] = _over_lcm((r, T.row(r)) for r in range(T.rows))
        return self.memo.get((k, l))

    def cochain(self, form: tuple) -> TreeCochain:
        degree, dens, data = form
        return TreeCochain._trusted(degree, self.A.dim, {
            key: tuple(Fraction(x, dens[key[0]]) if x else ZERO for x in v) for key, v in data.items()})


def _compose(call: _Call, f: tuple, factors, sign: int = 1) -> tuple:
    """f on the outer retraction R0 y, with factor j's output twisted by T_j.
    `factors` holds one (g_j, T_j) per slot of f: g_j an integer form read on
    its inner retraction, or None for a pass-through basis argument, and T_j
    a scaled twist, or None for none."""
    dim, parts = call.A.dim, tuple(1 if g is None else g[0] for g, _ in factors)
    fs = [(D, [(args, [(k, x) for k, x in enumerate(v) if x]) for args, v in group])
          for D, group in zip(f[1], _by_tree(f[2], f[0]))]
    gs = [None if g is None else (g[1], _by_tree(g[2], g[0])) for g, _ in factors]
    units = [((x,), tuple(int(k == x) for k in range(dim))) for x in range(dim)]
    slots, sums, dens, data = {}, {}, [], {}  # (slot, tree) and retraction key -> (denominator, entries)
    for yi, key in enumerate(retraction_layout(parts, tuple(g is not None for g, _ in factors))):
        if key not in sums:
            outer, inners = key
            D, entries = fs[outer]
            # each prefix of slot entries keeps the entries of f its running coefficient leaves nonzero
            live = [((), [(args, val, sign) for args, val in entries])]
            for j, t in enumerate(inners if entries else ()):
                if (j, t) not in slots:
                    # slot j's nonzero values in argument order over one denominator, each twisted once
                    d, pairs = (1, units) if gs[j] is None else (gs[j][0][t], sorted(gs[j][1][t]))
                    if factors[j][1]:
                        dT, rows = factors[j][1]
                        d, pairs = d * dT, [(a, tuple(sum(map(mul, r, v)) for _, r in rows)) for a, v in pairs]
                    slots[j, t] = d, [(a, v) for a, v in pairs if any(v)]
                d, pairs = slots[j, t]
                D *= d
                live = [(b + a, nxt) for b, cur in live for a, v in pairs
                        if (nxt := [(args, val, c * x) for args, val, c in cur if (x := v[args[j]])])]
            out = [(b, tuple(acc)) for b, cur in live if any(acc := _combine(dim, ((c, val) for _, val, c in cur), 0))]
            sums[key] = D, out
        dens.append(sums[key][0])
        data.update(((yi, b), val) for b, val in sums[key][1])
    return sum(parts), dens, data


def _partial(call: _Call, f: tuple, i: int, g: tuple) -> tuple:
    if not 1 <= i <= f[0]:
        raise ValueError(f"slot {i} out of range for arity {f[0]}")
    P, Q = call.twist(g[0] - 1, 0), call.twist(0, g[0] - 1)
    return _compose(call, f, [(None, P)] * (i - 1) + [(g, None)] + [(None, Q)] * (f[0] - i))


def partial_composition(A: BiHomDialgebra, f: TreeCochain, i: int, g: TreeCochain) -> TreeCochain:
    """Partial composition f o_i g, slot i counted from 1: g fills slot i
    untwisted, arguments left of it get phi^(n-1), right of it psi^(n-1)."""
    call = _Call("partial_composition", A)
    return call.cochain(_partial(call, call.form(f), i, call.form(g)))


def gamma(A: BiHomDialgebra, f: TreeCochain, gs) -> TreeCochain:
    """Total composition via iterated o_i, rightmost slot first."""
    h, Gs = (call := _Call("gamma", A)).form(f), [call.form(g) for g in gs]
    if len(Gs) != h[0]:
        raise ValueError("need one factor per slot")
    for j in range(len(Gs), 0, -1):
        h = _partial(call, h, j, Gs[j - 1])
    return call.cochain(h)


def gamma_direct(A: BiHomDialgebra, f: TreeCochain, gs) -> TreeCochain:
    """One-shot total composition, twisting each factor's output.

    Factor j's output is twisted by phi^(sum of (n_u - 1) for u > j)
    composed with psi^(sum for u < j).  Agrees with `gamma` on factors
    that intertwine phi and psi.
    """
    F, Gs = (call := _Call("gamma_direct", A)).form(f), [call.form(g) for g in gs]
    if len(Gs) != F[0]:
        raise ValueError("need one factor per slot")
    extra = [g[0] - 1 for g in Gs]
    return call.cochain(_compose(call, F, [
        (g, call.twist(sum(extra[j + 1 :]), sum(extra[:j]))) for j, g in enumerate(Gs)]))


def _braces(call: _Call, f: tuple, gs: list[tuple]) -> tuple:
    """{f}{g_1, ..., g_k} on integer forms, k >= 1."""
    m, k = f[0], len(gs)
    if k > m:
        raise ValueError("more factors than slots")
    arities, terms = [g[0] for g in gs], []
    for slots in combinations(range(1, m + 1), k):
        e = sum((n - 1) * (s - 1 + sum(arities[:j]) - j) for j, (n, s) in enumerate(zip(arities, slots)))
        term = f
        for j in range(k - 1, -1, -1):
            term = _partial(call, term, slots[j], gs[j])
        terms.append((-1 if e % 2 else 1, term))
    return _signed_sum(m + sum(arities) - k, terms)


def braces(A: BiHomDialgebra, f: TreeCochain, gs) -> TreeCochain:
    """Brace insertion {f}{g_1, ..., g_k}: sum over ordered slot choices.

    Each summand plugs g_j into slot s_j of f (s_1 < ... < s_k) and
    carries the sign (-1)^e with
    e = sum_j (n_j - 1) * ((s_j - 1) + sum_{u<j} (n_u - 1)).
    """
    F, Gs = (call := _Call("braces", A)).form(f), [call.form(g) for g in gs]
    return call.cochain(_braces(call, F, Gs)) if Gs else f


def _signed_sum(degree: int, terms: list[tuple[int, tuple]]) -> tuple:
    """sum of sign * term over (sign, integer form) pairs in one dict, per tree
    over the lcm of the terms' denominators, keys in the order of the chain
    of + and -: a key that cancels leaves, and comes back last."""
    dens, acc = [lcm(*(d[t] for _, (_, d, _) in terms)) for t in range(len(trees(degree)))], {}
    for sign, (_, d, data) in terms:
        scale = [sign * (L // x) for L, x in zip(dens, d)]
        for key, val in data.items():
            val = val if (s := scale[key[0]]) == 1 else tuple(s * x for x in val)
            if key not in acc:
                acc[key] = val
            elif any(v := tuple(map(add, acc[key], val))):
                acc[key] = v
            else:
                del acc[key]
    return degree, dens, acc


def circle(A: BiHomDialgebra, f: TreeCochain, g: TreeCochain) -> TreeCochain:
    """f o g = sum_i (-1)^((i-1)(n-1)) f o_i g."""
    call = _Call("circle", A)
    return call.cochain(_braces(call, call.form(f), [call.form(g)]))


def bracket(A: BiHomDialgebra, f: TreeCochain, g: TreeCochain) -> TreeCochain:
    """Graded commutator [f, g] = f o g - (-1)^((m-1)(n-1)) g o f."""
    F, G = (call := _Call("bracket", A)).form(f), call.form(g)
    sign = 1 if ((F[0] - 1) * (G[0] - 1)) % 2 else -1
    return call.cochain(_signed_sum(F[0] + G[0] - 1, [(1, _braces(call, F, [G])), (sign, _braces(call, G, [F]))]))


def brace_pi_single(A: BiHomDialgebra, f: TreeCochain) -> TreeCochain:
    """{pi}{f}: one factor into either slot of pi, signed sum."""
    F = (call := _Call("brace_pi_single", A)).form(f)  # checked before A's products are read
    return call.cochain(_braces(call, _scale(2, _pi_data(A)), [F]))


def circle_square(A: BiHomDialgebra, terms, n: int) -> TreeCochain:
    """The order-n coefficient of pi_t o pi_t, pi_t = pi + t pi_1 + t^2 pi_2
    + ... with pi_i = terms[i - 1]: sum_{i+j=n} pi_i o pi_j."""
    call = _Call("circle_square", A)
    if len(pis := [call.form(f) for f in terms[:n]]) < n:
        raise ValueError(f"order {n} needs {n} terms, got {len(pis)}")
    pis.insert(0, _scale(2, _pi_data(A)))
    return call.cochain(_signed_sum(3, [(1, _braces(call, pis[i], [pis[n - i]])) for i in range(n + 1)]))


def dot(A: BiHomDialgebra, f: TreeCochain, g: TreeCochain) -> TreeCochain:
    """Cup-style product of arities m, n giving arity m + n.

    (f.g)(y; a_1..a_{m+n}) =
    (-1)^(mn) pi(R0 y; phi^(n-1) f(R1 y; a_1..a_m), psi^(m-1) g(R2 y; ...)).
    Evaluated literally; note id.id comes out as -pi under this sign.
    """
    F, G = (call := _Call("dot", A)).form(f), call.form(g)
    twisted = [(F, call.twist(G[0] - 1, 0)), (G, call.twist(0, F[0] - 1))]
    return call.cochain(_compose(call, _scale(2, _pi_data(A)), twisted, -1 if (F[0] * G[0]) % 2 else 1))
