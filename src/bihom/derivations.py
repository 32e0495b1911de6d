"""Linear solvers for the derivation variants of a twisted dialgebra.

Every variant is a finite homogeneous linear system over the matrix
entries of the unknown maps, made of two kinds of rows:

* commutation rows, D phi = phi D and D psi = psi D, the twist rows of
  `bihom.algebra` for a degree-1 cochain;
* twisted Leibniz rows, for each product o and basis pair (e_a, e_b):
  alpha D(e_a o e_b) = beta (W e_a o D e_b) + gamma (D e_a o W e_b),
  with W = phi^k psi^l for the chosen bidegree (k, l).  Every reader
  takes them from one table, `bihom.algebra._slot_terms`, over the
  structure's sparse form (`A.cells`); `apply_table` stays the dense
  reference, used here only by `ad`.

The variants differ only in which unknown sits in which slot and in the
weights, so one table, `_VARIANTS`, wires them all: the plain variant has
one unknown map and alpha = beta = gamma = 1, the weighted one keeps
(alpha, beta, gamma) free, the quasi variant solves for a pair (D, D')
with D' on the left side, and the triple variant for (D, D', D'') with
D'' on the left, D' in the right slot and D in the left slot.  Unknowns
are stacked row-major, D first, then D', then D'', so the canonical
basis of the solution space is reproducible.

A variant is solved in commuting coordinates, as the complex solves
Z^n = G . ker.  K, the maps commuting with phi and psi, is the kernel of
the commutation rows, built once per structure into its memo; every
unknown map is a combination of K's canonical basis maps g.  The slot
table of the g is read on integers, from the structure's integer form,
W's columns scaled once and K scaled by one lcm (`classify` shares it
across its variants), and a variant's rows over (component, g) are the
table wired to its blocks and weights.  Their kernel lifts through K row
by row: K's rows have unit pivots no other row touches, so reduced rows
lift to reduced rows and the space is canonical with no second
elimination.  The full system in the coordinates of the maps,
`DerivationSpace.rows` and its dense `system`, is assembled only when
read, from the same table over the elementary maps (`leibniz_rows`);
`quasi_partner` is the quasi system with D fixed, its block moved to the
right-hand side, `derivation_report` reads the table over the one map it
checks, and a `projection` eliminates sparse rows once.

The module also carries the dimension and zero-pattern tables from the
reference classification of the catalog algebras.  Computed spaces are
the ground truth; `classify` places the table values next to them and
flags agreement per cell instead of asserting it, because some printed
table rows are internally inconsistent (a one-parameter matrix shape
annotated with dimension two, for instance).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import islice
from math import lcm
from typing import Mapping, Sequence

from bihom.algebra import (
    AxiomReport,
    BiHomDialgebra,
    Row,
    Vec,
    Violation,
    _compat_rows,
    _derived,
    _integer_form,
    _leibniz,
    _slot_terms,
    _sparse,
    _violations,
    _wired,
    apply_table,
    basis_vec,
    catalog,
    is_morphism,
    is_regular,
    leibniz_rows,
    vec_sub,
)
from bihom.scalars import Mat, ONE, ZERO, Subspace, _kernel, _scaled, nullspace_rows, q, solve_rows, span_rows


@dataclass(frozen=True)
class BiDegree:
    """Twist exponents (k, l); W = phi^k psi^l."""

    k: int
    l: int


@dataclass(frozen=True)
class GeneralizedSpec:
    """Weights (alpha, beta, gamma) on the three Leibniz terms."""

    alpha: Fraction
    beta: Fraction
    gamma: Fraction

    def __post_init__(self):
        object.__setattr__(self, "alpha", q(self.alpha))
        object.__setattr__(self, "beta", q(self.beta))
        object.__setattr__(self, "gamma", q(self.gamma))


@dataclass(frozen=True)
class Derivation:
    """A solved map together with the bidegree it was solved at."""

    matrix: Mat
    bidegree: BiDegree


@dataclass(frozen=True, eq=False)
class DerivationSpace:
    """Solution space of one variant at one bidegree of `structure`.

    `solutions` lives over the stacked unknown vector.  `rows` is the
    system's nonempty rows in assembly order, each its nonzero (column,
    value) pairs by column, kept so the space can be re-checked or handed
    to an independent solver; `system` is them as a dense matrix.  Both are
    assembled on first read; the solve never builds them.
    """

    variant: str
    bidegree: BiDegree
    solutions: Subspace
    algebra_dim: int
    spec: GeneralizedSpec | None
    structure: BiHomDialgebra = field(repr=False)

    def _key(self) -> tuple:
        return self.variant, self.bidegree, self.solutions, self.algebra_dim, self.spec

    def __eq__(self, other) -> bool:
        return isinstance(other, DerivationSpace) and self._key() == other._key() and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self._key())

    @cached_property
    def rows(self) -> tuple[tuple[tuple[int, Fraction], ...], ...]:
        rows, _ = _system_rows(self.structure, self.bidegree, self.variant, self.spec)
        return tuple(tuple(sorted(r.items())) for r in rows if r)

    @property
    def system(self) -> Mat:
        ncols = self.solutions.ambient_dim
        dense = [[r.get(j, ZERO) for j in range(ncols)] for r in map(dict, self.rows)]
        return Mat.from_rows(dense) if dense else Mat.zeros(0, ncols)

    @property
    def components(self) -> int:
        return _VARIANTS[self.variant][0]

    @property
    def dim(self) -> int:
        return self.solutions.dim

    def matrices(self, coords: Sequence[Fraction]) -> tuple[Mat, ...]:
        """Split one stacked coordinate row into component matrices."""
        n = self.algebra_dim
        if len(coords) != self.components * n * n:
            raise ValueError("coordinate length mismatch")
        return tuple(Mat(n, n, coords[c * n * n : (c + 1) * n * n]) for c in range(self.components))

    def basis_matrices(self) -> tuple[tuple[Mat, ...], ...]:
        return tuple(self.matrices(row) for row in self.solutions.basis_rows())

    def projection(self, component: int) -> Subspace:
        """Span of the `component`-th block of every solution."""
        n = self.algebra_dim
        if not 0 <= component < self.components:
            raise ValueError(f"component {component} out of range")
        lo, hi = component * n * n, (component + 1) * n * n
        return span_rows(
            ({c - lo: v for c, v in row if lo <= c < hi} for row in self.solutions.sparse_rows()),
            n * n,
        )

    def contains(self, *mats: Mat) -> bool:
        """Membership of a stacked tuple of maps, one Mat per component."""
        if len(mats) != self.components:
            raise ValueError("need one matrix per component")
        return self.solutions.contains([x for M in mats for x in M.entries()])


# -- row assembly ---------------------------------------------------------------

# variant -> (components, lhs block, left-slot block, right-slot block) of
# alpha D_lhs(x o y) = beta (W x o D_right y) + gamma (D_left x o W y).
_VARIANTS = {
    "plain": (1, 0, 0, 0),
    "generalized": (1, 0, 0, 0),
    "quasi": (2, 1, 0, 0),
    "generalized_triple": (3, 2, 0, 1),
}


def _twist(A: BiHomDialgebra, deg: BiDegree) -> Mat:
    if (deg.k < 0 or deg.l < 0) and not is_regular(A):
        raise ValueError(f"negative bidegree ({deg.k},{deg.l}) needs invertible twists")
    return A.twist_power(deg.k, deg.l)


def _system_rows(
    A: BiHomDialgebra, deg: BiDegree, variant: str, spec: GeneralizedSpec | None = None
) -> tuple[list[Row], int]:
    """The variant's full rows in the entries of the maps and its number of
    unknowns, read by `DerivationSpace.rows` and `quasi_partner`; the four
    solvers and `classify` never build them.

    First M D - D M = 0 for every block and M = phi, psi, then the
    Leibniz rows, with unit weights unless a spec is given.
    """
    components, *blocks = _VARIANTS[variant]
    weights = (ONE, ONE, ONE) if spec is None else (spec.alpha, spec.beta, spec.gamma)
    n = A.dim
    compat = _compat_rows(A.twist_cols, 1)  # coordinate b n + k is D[k][b], at k n + b in a block
    rows: list[Row] = [{block * n * n + c % n * n + c // n: v for c, v in row.items()}
                       for block in range(components) for row in compat]
    rows += leibniz_rows(tuple(A.cells.values()), _twist(A, deg), tuple(blocks), weights)
    return rows, components * n * n


def _commuting(A: BiHomDialgebra) -> tuple[list, list]:
    """K, the maps commuting with phi and psi: its canonical basis rows over
    the entries k n + b, and each basis map's nonzero (k, c) by column b,
    all scaled by one lcm.  The commutation rows are the degree-1 twist rows
    of A's integer twist columns, once when phi = psi; a one-entry row
    forces its column to zero."""
    n, (D, _, twists) = A.dim, _derived(A, "integer_form", _integer_form)
    zeros: set[int] = set()
    rows = _compat_rows(twists[:1] if A.phi == A.psi else twists, 1, D, zeros)
    move = lambda c: c % n * n + c // n  # noqa: E731 - f(b)_k, at b n + k, is D[k][b], at k n + b
    free, wide = _kernel([{move(c): v for c, v in row.items()} for row in rows], n * n, set(map(move, zeros)))
    K = [wide[f] if f in wide else ((f, ONE),) for f in free]
    maps = [[[] for _ in range(n)] for _ in K]
    for g, row in zip(maps, _scaled(K)[1]):
        for c, v in row:
            g[c % n].append((c // n, v))
    return K, maps


def _slot_images(A: BiHomDialgebra, deg: BiDegree) -> tuple[int, list]:
    """(d, terms): the Leibniz slot terms (`bihom.algebra._slot_terms`) of
    K's basis maps g_i, on integers, from A's integer form, W's columns and
    K each scaled by one lcm; slots 1 and 2 carry the factor d of W's
    scaling, slot 0 does not."""
    W, (_, (cells,), _) = _twist(A, deg), _derived(A, "integer_form", _integer_form)
    d, wc = _scaled([_sparse(W.col(a)) for a in range(A.dim)])
    return d, _slot_terms(tuple(cells.values()), list(wc), _derived(A, "commuting", _commuting)[1])


def _space(
    A: BiHomDialgebra, deg: BiDegree, variant: str, spec: GeneralizedSpec | None = None,
    images: tuple[int, list] | None = None,
) -> DerivationSpace:
    """The variant's kernel over (component, basis map of K), from the slot
    images wired as its table entry says, lifted through K row by row."""
    components, *blocks = _VARIANTS[variant]
    K, nn = _derived(A, "commuting", _commuting)[0], A.dim * A.dim
    d, terms = images or _slot_images(A, deg)
    alpha, beta, gamma = (ONE, ONE, ONE) if spec is None else (spec.alpha, spec.beta, spec.gamma)
    weights = (d * alpha, -gamma, -beta)  # on slots 0, 1 and 2
    m = lcm(*(w.denominator for w in weights))
    rows = _wired(terms, [(block * len(K), (w * m).numerator) for block, w in zip(blocks, weights)])
    lifted = []
    for wrow in nullspace_rows(filter(None, rows), components * len(K)).sparse_rows():
        acc: dict[int, Fraction] = {}
        for col, x in wrow:
            c, i = divmod(col, len(K))
            for j, v in K[i]:
                acc[c * nn + j] = acc.get(c * nn + j, ZERO) + x * v
        lifted.append({j: v for j, v in acc.items() if v})
    return DerivationSpace(variant, deg, Subspace._from_rref(components * nn, lifted), A.dim, spec, A)


def derivation_space(A: BiHomDialgebra, deg: BiDegree) -> DerivationSpace:
    """Maps D with D phi = phi D, D psi = psi D and the twisted Leibniz
    rule D(x o y) = W(x) o D(y) + D(x) o W(y) for both products."""
    return _space(A, deg, "plain")


def generalized_derivation_space(
    A: BiHomDialgebra, deg: BiDegree, spec: GeneralizedSpec
) -> DerivationSpace:
    """Same system with weights: alpha D(x o y) = beta (Wx o Dy) + gamma (Dx o Wy)."""
    return _space(A, deg, "generalized", spec)


def quasi_derivation_space(A: BiHomDialgebra, deg: BiDegree) -> DerivationSpace:
    """Pairs (D, D') with D'(x o y) = W(x) o D(y) + D(x) o W(y), both
    commuting with phi and psi.  Stacked D, D'."""
    return _space(A, deg, "quasi")


def generalized_triple_space(A: BiHomDialgebra, deg: BiDegree) -> DerivationSpace:
    """Triples (D, D', D'') with D''(x o y) = W(x) o D'(y) + D(x) o W(y),
    all three commuting with phi and psi.  Stacked D, D', D''."""
    return _space(A, deg, "generalized_triple")


def quasi_partner(
    A: BiHomDialgebra, deg: BiDegree, D: Mat
) -> tuple[Mat, Subspace] | None:
    """Solve the quasi system for D' with D fixed: D's block moves to the
    right-hand side.

    Returns (particular D', homogeneous space for D') or None when the
    system is infeasible, which includes every D that does not commute
    with phi and psi.
    """
    n = A.dim
    if D.shape != (n, n):
        raise ValueError(f"D must be {n}x{n}")
    rows, _ = _system_rows(A, deg, "quasi")
    nn, d = n * n, D.entries()
    hom_rows, rhs_rows = [], []
    for row in rows:
        hom: Row = {}
        rhs = ZERO
        for col, v in row.items():
            if col < nn:
                rhs -= v * d[col]
            else:
                hom[col - nn] = v
        hom_rows.append(hom)
        rhs_rows.append({**hom, nn: rhs} if rhs else hom)
    part = solve_rows(rhs_rows, nn)
    if part is None:
        return None
    return Mat(n, n, list(part.entries())), nullspace_rows(hom_rows, nn)


# -- single-map checks ----------------------------------------------------------


def derivation_report(A: BiHomDialgebra, D: Mat, deg: BiDegree) -> AxiomReport:
    """Which defining identities the map D satisfies at this bidegree."""
    W = _twist(A, deg)
    violations: list[Violation] = []
    for law, M in (("commute_phi", A.phi), ("commute_psi", A.psi)):
        violations += islice(_violations(law, 1, A.dim, (D @ M - M @ D).col), 1)
    for op, cells in A.cells.items():
        violations += _violations(f"leibniz_{op}", 2, A.dim, _leibniz(D, W, cells))
    return AxiomReport.from_violations(violations)


def ad(A: BiHomDialgebra, a: Vec) -> Mat:
    """Inner map x -> x -| psi(a) - phi(a) |- x.

    Requires phi(a) = psi(a); the returned map satisfies the -| Leibniz
    identity at bidegree (0, 0).  Whether it also satisfies the |- one
    or commutes with the twists depends on the algebra, so callers that
    need those check `derivation_report`.
    """
    pa, qa = A.phi.apply(a), A.psi.apply(a)
    if pa != qa:
        raise ValueError(f"phi(a) != psi(a): {pa} vs {qa}")
    n = A.dim
    cols = []
    for j in range(n):
        ej = basis_vec(n, j)
        v = vec_sub(
            apply_table(A.dashv, ej, qa),
            apply_table(A.vdash, pa, ej),
        )
        cols.append(v)
    return Mat(n, n, [cols[j][k] for k in range(n) for j in range(n)])


def commutator(D1: Derivation, D2: Derivation) -> Derivation:
    """[D1, D2] with bidegrees added."""
    if D1.matrix.shape != D2.matrix.shape:
        raise ValueError("dimension mismatch")
    return Derivation(
        matrix=D1.matrix @ D2.matrix - D2.matrix @ D1.matrix,
        bidegree=BiDegree(
            D1.bidegree.k + D2.bidegree.k, D1.bidegree.l + D2.bidegree.l
        ),
    )


def conjugate(
    sigma: Mat,
    D: Mat,
    source: BiHomDialgebra,
    target: BiHomDialgebra | None = None,
) -> Mat:
    """Transport D along an isomorphism sigma: source -> target.

    sigma must be invertible and a structure morphism; then sigma D
    sigma^{-1} is a derivation of the target whenever D is one of the
    source.
    """
    target = target if target is not None else source
    inv = sigma.inverse()
    if inv is None:
        raise ValueError("sigma is singular")
    rep = is_morphism(sigma, source, target)
    if not rep.ok:
        raise ValueError(
            f"sigma is not a morphism: {rep.violations[0].describe(source.basis)}"
        )
    return sigma @ D @ inv


# -- reference tables and the classification runner ------------------------------

# Dimension columns of the reference classification, keyed by catalog
# name.  plain: (dim Der,); quasi: (dim D, dim D'); generalized_triple:
# (dim D, dim D', dim D'').
REFERENCE_DIMS: dict[str, dict[str, tuple[int, ...]]] = {
    "Alg2_1": {"plain": (2,), "quasi": (2, 1), "generalized_triple": (2, 2, 3)},
    "Alg2_2": {"plain": (1,), "quasi": (2, 1), "generalized_triple": (2, 2, 3)},
    "Alg2_3": {"plain": (2,), "quasi": (2, 1), "generalized_triple": (2, 2, 3)},
    "Alg2_4": {"plain": (1,), "quasi": (2, 1), "generalized_triple": (2, 2, 3)},
    "Alg3_1": {"plain": (2,), "quasi": (3, 2), "generalized_triple": (3, 6, 4)},
    "Alg3_2": {"plain": (2,), "quasi": (3, 2), "generalized_triple": (3, 6, 4)},
    "Alg3_3": {"plain": (2,), "quasi": (3, 2), "generalized_triple": (3, 6, 4)},
    "Alg3_4": {"plain": (2,), "quasi": (3, 2), "generalized_triple": (3, 6, 4)},
    "Alg3_5": {"plain": (2,), "quasi": (3, 2), "generalized_triple": (3, 6, 4)},
}

# Zero patterns of the printed matrix shapes: positions (row, col),
# 0-based, that may be nonzero; one frozenset per component.
REFERENCE_SHAPES: dict[tuple[int, str], tuple[frozenset, ...]] = {
    (2, "plain"): (frozenset({(1, 1)}),),
    (2, "quasi"): (
        frozenset({(0, 0), (0, 1), (1, 1)}),
        frozenset({(1, 1)}),
    ),
    (2, "generalized_triple"): (
        frozenset({(0, 0), (0, 1), (1, 1)}),
        frozenset({(0, 1), (1, 1)}),
        frozenset({(0, 0), (0, 1), (1, 1)}),
    ),
    (3, "plain"): (frozenset({(0, 1), (2, 2)}),),
    (3, "quasi"): (
        frozenset({(0, 0), (0, 1), (1, 1), (2, 2)}),
        frozenset({(0, 1), (2, 2)}),
    ),
    (3, "generalized_triple"): (
        frozenset({(0, 0), (0, 1), (1, 1), (2, 2)}),
        frozenset({(0, 1), (0, 2), (1, 1), (1, 2), (2, 1), (2, 2)}),
        frozenset({(0, 0), (0, 1), (1, 1), (2, 2)}),
    ),
}


def shape_pattern_contained(space: Subspace, pattern: frozenset, n: int) -> bool:
    """Every map in the space vanishes outside the pattern's support."""
    return all(divmod(c, n) in pattern for row in space.sparse_rows() for c, _ in row)


def reference_family_dim3(a, b, c, d, f) -> tuple[Mat, Mat, Mat]:
    """Generators of the parametric map family quoted alongside the
    first 3-dim catalog algebra, one per free parameter (d12, d22, d23):

        D e1 = -((a f - c d) / f) d12 (e2 + e3)
        D e2 = d22 e2 + d23 e3
        D e3 = -(d / f) (d22 e2 + d23 e3)

    Requires f != 0.  The family is quoted for re-substitution checks,
    not assumed correct.
    """
    a, b, c, d, f = q(a), q(b), q(c), q(d), q(f)
    if f == 0:
        raise ValueError("family needs f != 0")
    lam = (a * f - c * d) / f
    mu = d / f
    g_d12 = Mat.from_rows([[ZERO] * 3, [-lam, ZERO, ZERO], [-lam, ZERO, ZERO]])
    g_d22 = Mat.from_rows([[ZERO] * 3, [ZERO, ONE, ZERO], [ZERO, ZERO, -mu]])
    g_d23 = Mat.from_rows([[ZERO] * 3, [ZERO, ZERO, ZERO], [ZERO, ONE, -mu]])
    # columns act on basis vectors: col j of g is D(e_j)
    return g_d12, g_d22, g_d23


@dataclass(frozen=True)
class ClassificationCell:
    algebra: str
    binding: tuple[tuple[str, Fraction], ...]
    degree: BiDegree
    variant: str
    computed: tuple[int, ...]
    reference: tuple[int, ...] | None
    agrees: bool | None
    shape_contained: tuple[bool, ...] | None


@dataclass(frozen=True)
class ClassificationReport:
    cells: tuple[ClassificationCell, ...]

    def lines(self) -> list[str]:
        out = []
        for c in self.cells:
            binding = ",".join(f"{k}={v}" for k, v in c.binding)
            comp = "/".join(str(d) for d in c.computed)
            ref = "/".join(str(d) for d in c.reference) if c.reference else "-"
            mark = "-" if c.agrees is None else ("ok" if c.agrees else "DIFFERS")
            shapes = (
                ""
                if c.shape_contained is None
                else " shapes=" + "/".join("yes" if s else "no" for s in c.shape_contained)
            )
            out.append(
                f"{c.algebra}[{binding}] deg=({c.degree.k},{c.degree.l}) "
                f"{c.variant}: computed {comp}, reference {ref} [{mark}]{shapes}"
            )
        return out


_CLASSIFIED = ("plain", "quasi", "generalized_triple")


def classify(
    names: Sequence[str],
    bindings: Sequence[Mapping[str, object]],
    degrees: Sequence[BiDegree],
    variants: Sequence[str] = _CLASSIFIED,
) -> ClassificationReport:
    """Solve every requested cell, names[i] bound by bindings[i], and annotate
    with reference values.  Computed dimensions come from the exact solvers;
    reference numbers are the printed table values, for comparison only.
    """
    if len(names) != len(bindings):
        raise ValueError(f"classify needs one binding per name: {len(names)} names, {len(bindings)} bindings")
    for variant in variants:
        if variant not in _CLASSIFIED:
            why = "needs weights" if variant == "generalized" else "is unknown"
            raise ValueError(f"variant {variant!r} {why}; classify solves {', '.join(_CLASSIFIED)}")
    cat = catalog()
    cells = []
    for name, binding in zip(names, bindings):
        if name not in cat:
            raise KeyError(f"unknown catalog algebra {name!r}")
        A = cat[name].build(**binding)
        bound = tuple(sorted((k, q(v)) for k, v in binding.items()))
        for deg in degrees:
            images = _slot_images(A, deg)
            for variant in variants:
                space = _space(A, deg, variant, images=images)
                projections = [space.projection(c) for c in range(space.components)]
                computed = tuple(P.dim for P in projections)
                reference = REFERENCE_DIMS.get(name, {}).get(variant)
                shapes = REFERENCE_SHAPES.get((A.dim, variant))
                contained = None
                if shapes is not None:
                    contained = tuple(
                        shape_pattern_contained(P, shapes[c], A.dim)
                        for c, P in enumerate(projections)
                    )
                cells.append(
                    ClassificationCell(
                        algebra=name,
                        binding=bound,
                        degree=deg,
                        variant=variant,
                        computed=computed,
                        reference=reference,
                        agrees=None if reference is None else computed == reference,
                        shape_contained=contained,
                    )
                )
    return ClassificationReport(cells=tuple(cells))
