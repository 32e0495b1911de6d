"""Linear solvers for the derivation variants of a twisted dialgebra.

Every variant is a finite homogeneous linear system over the matrix
entries of the unknown maps, assembled from two kinds of rows:

* commutation rows, D phi = phi D and D psi = psi D;
* twisted Leibniz rows (`bihom.algebra.leibniz_rows`), for each product
  o and basis pair (e_a, e_b):
  alpha D(e_a o e_b) = beta (W e_a o D e_b) + gamma (D e_a o W e_b),
  with W = phi^k psi^l for the chosen bidegree (k, l).

The variants differ only in which unknown sits in which slot and in the
weights, so one assembler builds them all from a table: the plain variant
has one unknown map and alpha = beta = gamma = 1, the weighted one keeps
(alpha, beta, gamma) free, the quasi variant solves for a pair (D, D')
with D' on the left side, and the triple variant for (D, D', D'') with
D'' on the left, D' in the right slot and D in the left slot.  Unknowns
are stacked row-major, D first, then D', then D'', so the canonical basis
of the solution space is reproducible.  `quasi_partner` is the quasi
system with D fixed, its block moved to the right-hand side.  Systems
stay in the sparse form the solver eliminates: a dense `system` matrix is
built only when read, and a `projection` eliminates sparse rows once.

The module also carries the dimension and zero-pattern tables from the
reference classification of the catalog algebras.  Computed spaces are
the ground truth; `classify` places the table values next to them and
flags agreement per cell instead of asserting it, because some printed
table rows are internally inconsistent (a one-parameter matrix shape
annotated with dimension two, for instance).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice, product
from typing import Mapping, Sequence

from bihom.algebra import (
    AxiomReport,
    BiHomDialgebra,
    Row,
    Vec,
    Violation,
    _leibniz,
    _violations,
    apply_table,
    basis_vec,
    catalog,
    is_morphism,
    is_regular,
    leibniz_rows,
    vec_sub,
)
from bihom.scalars import Mat, ONE, ZERO, Subspace, nullspace_rows, q, solve_rows, span_rows


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


@dataclass(frozen=True)
class DerivationSpace:
    """Solution space of one variant at one bidegree.

    `solutions` lives over the stacked unknown vector.  `rows` is the
    eliminated system in assembly order, each row its nonzero (column,
    value) pairs by column, kept so the space can be re-checked or handed
    to an independent solver; `system` is the same rows as a dense matrix.
    """

    variant: str
    bidegree: BiDegree
    rows: tuple[tuple[tuple[int, Fraction], ...], ...]
    solutions: Subspace
    algebra_dim: int
    spec: GeneralizedSpec | None = None

    @property
    def system(self) -> Mat:
        ncols = self.solutions.ambient_dim
        return Mat.from_rows([[r.get(j, ZERO) for j in range(ncols)] for r in map(dict, self.rows)])

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
    """The variant's rows and its number of unknowns.

    First D M - M D = 0 for every block and M = phi, psi, then the
    Leibniz rows, with unit weights unless a spec is given.
    """
    components, *blocks = _VARIANTS[variant]
    weights = (ONE, ONE, ONE) if spec is None else (spec.alpha, spec.beta, spec.gamma)
    n = A.dim
    rows: list[Row] = []
    for block, M in product(range(components), (A.phi, A.psi)):
        off = block * n * n
        for i, j in product(range(n), repeat=2):
            row: Row = {}
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
    rows += leibniz_rows((A.dashv, A.vdash), _twist(A, deg), tuple(blocks), weights)
    return rows, components * n * n


def _space(
    A: BiHomDialgebra, deg: BiDegree, variant: str, spec: GeneralizedSpec | None = None
) -> DerivationSpace:
    rows, ncols = _system_rows(A, deg, variant, spec)
    return DerivationSpace(
        variant=variant,
        bidegree=deg,
        rows=tuple(tuple(sorted(r.items())) for r in rows),
        solutions=nullspace_rows(rows, ncols),
        algebra_dim=A.dim,
        spec=spec,
    )


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
    for op in ("dashv", "vdash"):
        violations += _violations(f"leibniz_{op}", 2, A.dim, _leibniz(D, W, A.table(op)))
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
            for variant in variants:
                space = _space(A, deg, variant)
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
