"""Workload definitions shared by the benchmark and the table generator.

Every library query is named by a key string.  `library_query` turns a
key into a callable over the public `bihom` API, so the
benchmark and `make_expected.py` run exactly the same code per key.
A run's seed only chooses keys (and their order) from the finite pools
stored in `expected.json`; the expected answer of every key that a seed
can choose is in the same file.

Calls go through module attributes (`api.cohomology.cohomology(...)`)
at call time, never through names bound at import, so the wrappers
that `tracing.py` installs on the modules see every call.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

HERE = Path(__file__).resolve().parent
EXPECTED_PATH = HERE / "expected.json"
GOLDEN_PATH = HERE / "cli_golden.json"

WORKLOADS = ("catalog_small", "complex_large", "cochain_eval", "cli_session")

FAMILIES_2 = ("Alg2_1", "Alg2_2", "Alg2_3", "Alg2_4")
FAMILIES_3 = ("Alg3_1", "Alg3_2", "Alg3_3", "Alg3_4", "Alg3_5")
FAMILIES = FAMILIES_2 + FAMILIES_3

# Pool sizes: how many bindings per family a seed may pick from, per use.
CATALOG_BINDINGS = 4
EVAL_BINDINGS = 2
NIL2_VALUES = 4

# complex_large: Alg3_3 and Alg3_1 at degree 4 in every round, one
# seeded 2-dim family at degree 5, nil2 at degrees 9 and 10.
LARGE_FIXED_3 = ("Alg3_3", "Alg3_1")

# Tail percentile per workload: fixed so a faster program cannot move
# the reported percentile.  Each is the highest percentile with at least
# ten samples beyond it in a run at the generating commit; every run
# records the count beyond it and warns when it is under ten.
# complex_large runs five queries in a run, too few for any such
# percentile, so its tail is p50 and repeats latency_p50_ms.
TAIL_PERCENTILE = {
    "catalog_small": 95,
    "complex_large": 50,
    "cochain_eval": 90,
    "cli_session": 80,
}


# Set-up runs these before timing starts, whatever the seed.  The
# complex_large round's own queries take seconds each, so its warm-up
# runs the same code paths at degree 3.
WARM_UP = {
    "catalog_small": ["axioms|Alg2_2|0", "plain|Alg2_2|0|1|1", "classify|Alg2_2|0",
                      "cohomology|Alg2_2|0|2", "hoch_cohomology|0|2"],
    "complex_large": ["cohomology|Alg3_3|0|3", "hoch_cohomology|0|3"],
    "cochain_eval": ["delta2|Alg2_2|0|2", "circle|Alg2_2|0|0|0", "residual|Alg2_2|0|0",
                     "pipi|alg2_2.dlg:Alg2_2"],
}


@dataclass
class Query:
    key: str
    call: Callable[[], object]
    normalize: Callable[[object], object]


def load_json(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def frac_map(binding: dict) -> dict:
    return {k: Fraction(v) for k, v in binding.items()}


def import_api() -> SimpleNamespace:
    """The library modules the workloads call, imported now."""
    import bihom.algebra
    import bihom.cohomology
    import bihom.deformation
    import bihom.derivations
    import bihom.dsl
    import bihom.operad
    import bihom.scalars
    import bihom.trees

    return SimpleNamespace(
        algebra=bihom.algebra,
        cohomology=bihom.cohomology,
        deformation=bihom.deformation,
        derivations=bihom.derivations,
        dsl=bihom.dsl,
        operad=bihom.operad,
        scalars=bihom.scalars,
        trees=bihom.trees,
    )


# -- normalised answers -------------------------------------------------------


def cochain_digest(f) -> str:
    """Degree, support size and a hash of the sorted nonzero values."""
    h = hashlib.sha256()
    for key, val in sorted(f.data.items()):
        h.update(repr((key, [str(v) for v in val])).encode())
    return f"{f.degree}:{len(f.data)}:{h.hexdigest()[:20]}"


def _dims(rep) -> list:
    return [rep.compatible_dim, rep.cocycle_dim, rep.coboundary_dim, rep.cohomology_dim]


def _identity(x):
    return x


def _space_dim(s) -> int:
    return s.dim


def _is_zero(f) -> bool:
    return f.is_zero()


def _classify_norm(report) -> list:
    return [[c.variant, list(c.computed), c.agrees] for c in report.cells]


def _triviality_norm(res) -> list:
    return [res.trivial, res.obstructed_order, res.obstruction_closed]


def _derivation_norm(space) -> list:
    return [space.dim] + [space.projection(c).dim for c in range(space.components)]


# -- inputs --------------------------------------------------------------------


class Inputs:
    """Structures and cochains built from the pools, memoised per key."""

    def __init__(self, api: SimpleNamespace, table: dict):
        self.api = api
        self.pools = table["pools"]
        self._cache: dict = {}

    def binding(self, family: str, b: int) -> dict:
        return frac_map(self.pools["bindings"][family][b])

    def build(self, family: str, b: int):
        """A fresh catalog instance; catalog_small times this per query."""
        return self.api.algebra.catalog()[family].build(**self.binding(family, b))

    def algebra(self, family: str, b: int):
        key = ("alg", family, b)
        if key not in self._cache:
            self._cache[key] = self.build(family, b)
        return self._cache[key]

    def nil2(self, c: int):
        key = ("nil2", c)
        if key not in self._cache:
            al = self.api.algebra
            twist = al.map_from_entries(2, {2: {1: 1}})
            value = Fraction(self.pools["nil2_c"][c])
            self._cache[key] = al.BiHomAssociativeAlgebra(
                2, al.table_from_entries(2, {(2, 2): {1: value}}), twist, twist,
                name="nil2",
            )
        return self._cache[key]

    def cochain(self, family: str, b: int, n: int, i: int):
        key = ("cochain", family, b, n, i)
        if key not in self._cache:
            raw = self.pools["cochains"][f"{family}#{b}"][str(n)][i]
            dim = 2 if family in FAMILIES_2 else 3
            data = {(t, tuple(args)): tuple(Fraction(v) for v in val) for t, args, val in raw}
            self._cache[key] = self.api.cohomology.TreeCochain(n, dim, data)
        return self._cache[key]

    def hoch_cochain(self, c: int, n: int):
        key = ("hoch", c, n)
        if key not in self._cache:
            raw = self.pools["hoch_cochains"][str(c)][str(n)]
            data = {tuple(args): tuple(Fraction(v) for v in val) for args, val in raw}
            self._cache[key] = self.api.cohomology.HochschildCochain(n, 2, data)
        return self._cache[key]

    def deformation(self, family: str, b: int, swap: int):
        key = ("defm", family, b, swap)
        if key not in self._cache:
            f, g = self.cochain(family, b, 2, swap), self.cochain(family, b, 2, 1 - swap)
            self._cache[key] = self.api.deformation.TruncatedDeformation(
                self.algebra(family, b), [f, g]
            )
        return self._cache[key]

    def corpus_algebra(self, name: str):
        key = ("corpus", name)
        if key not in self._cache:
            dsl = self.api.dsl
            path, block = name.split(":")
            X = dsl.build_block(dsl.parse_path(HERE.parent / "corpus" / path), block)
            if isinstance(X, self.api.algebra.BiHomAssociativeAlgebra):
                X = X.as_dialgebra()
            self._cache[key] = X
        return self._cache[key]


# -- keys and their calls --------------------------------------------------------


def library_query(key: str, inp: Inputs) -> Query:
    """The callable and answer normaliser behind one query key."""
    api = inp.api
    parts = key.split("|")
    kind = parts[0]
    if kind in ("axioms", "plain", "generalized", "quasi", "triple", "classify",
                "compatible", "cocycles", "coboundaries", "cohomology"):
        family, b = parts[1], int(parts[2])
        build = lambda: inp.build(family, b)  # noqa: E731 - built inside the timed query
        al, der, coh = api.algebra, api.derivations, api.cohomology
        if kind == "axioms":
            def call():
                A = build()
                return [al.check_dialgebra(A).ok, al.is_multiplicative(A).ok]
            return Query(key, call, _identity)
        if kind in ("plain", "generalized", "quasi", "triple"):
            deg = der.BiDegree(int(parts[3]), int(parts[4]))
            if kind == "plain":
                call = lambda: der.derivation_space(build(), deg)  # noqa: E731
            elif kind == "quasi":
                call = lambda: der.quasi_derivation_space(build(), deg)  # noqa: E731
            elif kind == "triple":
                call = lambda: der.generalized_triple_space(build(), deg)  # noqa: E731
            else:
                spec = der.GeneralizedSpec(*(Fraction(x) for x in inp.pools["specs"][int(parts[5])]))
                call = lambda: der.generalized_derivation_space(build(), deg, spec)  # noqa: E731
            return Query(key, call, _derivation_norm)
        if kind == "classify":
            binding = inp.binding(family, b)
            call = lambda: der.classify([family], [binding], [der.BiDegree(1, 1)])  # noqa: E731
            return Query(key, call, _classify_norm)
        n = int(parts[3])
        if kind == "cohomology":
            return Query(key, lambda: coh.cohomology(build(), n), _dims)
        fn = {"compatible": "dialg_compatible_space", "cocycles": "dialg_cocycles",
              "coboundaries": "dialg_coboundaries"}[kind]
        return Query(key, lambda: getattr(coh, fn)(build(), n), _space_dim)
    if kind.startswith("hoch_"):
        # hoch_<what>|c|n on the benchmark's nil2 family
        c, n = int(parts[1]), int(parts[2])
        coh = api.cohomology
        X = inp.nil2(c)
        what = kind[len("hoch_"):]
        if what == "cohomology":
            return Query(key, lambda: coh.cohomology(X, n), _dims)
        if what == "delta2":
            f = inp.hoch_cochain(c, n)
            return Query(key, lambda: coh.hoch_coboundary(X, coh.hoch_coboundary(X, f)), _is_zero)
        fn = {"compatible": "hoch_compatible_space", "cocycles": "hoch_cocycles",
              "coboundaries": "hoch_coboundaries"}[what]
        return Query(key, lambda: getattr(coh, fn)(X, n), _space_dim)
    if kind == "large":
        family, b, n = parts[1], int(parts[2]), int(parts[3])
        A = inp.algebra(family, b)
        return Query(key, lambda: api.cohomology.cohomology(A, n), _dims)
    if kind == "delta2":
        family, b, n = parts[1], int(parts[2]), int(parts[3])
        A, f = inp.algebra(family, b), inp.cochain(family, b, n, 0)
        coh = api.cohomology
        return Query(key, lambda: coh.dialg_coboundary(A, coh.dialg_coboundary(A, f)), _is_zero)
    if kind in ("circle", "bracket", "dot", "gamma", "gamma_direct", "braces"):
        # <op>|family|b|swap|k: f = deg-2 cochain `swap`, g = the other
        # deg-2 cochain, h = deg-3 cochain k
        family, b, swap, k = parts[1], int(parts[2]), int(parts[3]), int(parts[4])
        A = inp.algebra(family, b)
        f = inp.cochain(family, b, 2, swap)
        g = inp.cochain(family, b, 2, 1 - swap)
        h = inp.cochain(family, b, 3, k)
        op = api.operad
        call = {
            "circle": lambda: op.circle(A, f, h),
            "bracket": lambda: op.bracket(A, f, g),
            "dot": lambda: op.dot(A, f, g),
            "gamma": lambda: op.gamma(A, f, [g, f]),
            "gamma_direct": lambda: op.gamma_direct(A, f, [g, f]),
            "braces": lambda: op.braces(A, f, [g, f]),
        }[kind]
        return Query(key, call, cochain_digest)
    if kind in ("residual", "operadic", "trivialize"):
        family, b, swap = parts[1], int(parts[2]), int(parts[3])
        D = inp.deformation(family, b, swap)
        dm = api.deformation
        if kind == "residual":
            return Query(key, lambda: dm.deformation_residual(D, 2), cochain_digest)
        if kind == "operadic":
            return Query(key, lambda: dm.operadic_residual(D, 2), cochain_digest)
        return Query(key, lambda: dm.solve_triviality(D, 2), _triviality_norm)
    if kind == "pipi":
        X = inp.corpus_algebra(parts[1])
        op = api.operad
        return Query(key, lambda: op.circle(X, op.pi_element(X), op.pi_element(X)), cochain_digest)
    raise KeyError(f"unknown query kind in {key!r}")


# -- the keys a workload can run ---------------------------------------------------


def catalog_keys(family: str, b: int, kl: tuple[int, int], spec: int) -> list[str]:
    k, l = kl
    return [
        f"axioms|{family}|{b}",
        f"plain|{family}|{b}|{k}|{l}",
        f"generalized|{family}|{b}|{k}|{l}|{spec}",
        f"quasi|{family}|{b}|{k}|{l}",
        f"triple|{family}|{b}|{k}|{l}",
        f"classify|{family}|{b}",
        f"cohomology|{family}|{b}|1",
        f"cohomology|{family}|{b}|2",
        f"cohomology|{family}|{b}|3",
        f"compatible|{family}|{b}|3",
        f"cocycles|{family}|{b}|3",
        f"coboundaries|{family}|{b}|3",
    ]


def nil2_catalog_keys(c: int) -> list[str]:
    return [f"hoch_cohomology|{c}|{n}" for n in (1, 2, 3)] + [
        f"hoch_compatible|{c}|3", f"hoch_cocycles|{c}|3", f"hoch_coboundaries|{c}|3",
    ]


def eval_keys(family: str, b: int, swap: int, k: int) -> list[str]:
    out = [f"delta2|{family}|{b}|1", f"delta2|{family}|{b}|2"]
    for op in ("circle", "bracket", "dot", "gamma", "gamma_direct", "braces"):
        out.append(f"{op}|{family}|{b}|{swap}|{k}")
    for op in ("residual", "operadic", "trivialize"):
        out.append(f"{op}|{family}|{b}|{swap}")
    return out


def large_keys(two_dim: str, b3: tuple[int, int], b2: int, c: int) -> list[str]:
    return [
        f"large|{LARGE_FIXED_3[0]}|{b3[0]}|4",
        f"large|{LARGE_FIXED_3[1]}|{b3[1]}|4",
        f"large|{two_dim}|{b2}|5",
        f"hoch_cohomology|{c}|9",
        f"hoch_cohomology|{c}|10",
    ]


def round_keys(workload: str, seed: int, pools: dict) -> list[str]:
    """The seeded query list of one round of a library workload."""
    rng = random.Random(f"{workload}:{seed}")
    keys: list[str] = []
    # Every round covers every binding in the pool, so the seed moves the
    # mix of bidegrees, weights, cochain roles and order but not the
    # amount of work in a round.
    if workload == "catalog_small":
        for family in FAMILIES:
            for b in range(CATALOG_BINDINGS):
                keys += catalog_keys(
                    family, b, tuple(rng.choice(pools["bidegrees"])),
                    rng.randrange(len(pools["specs"])),
                )
        for c in range(NIL2_VALUES):
            keys += nil2_catalog_keys(c)
    elif workload == "complex_large":
        keys = large_keys(
            rng.choice(FAMILIES_2),
            (rng.randrange(CATALOG_BINDINGS), rng.randrange(CATALOG_BINDINGS)),
            rng.randrange(CATALOG_BINDINGS),
            rng.randrange(NIL2_VALUES),
        )
    elif workload == "cochain_eval":
        for family in FAMILIES:
            for b in range(EVAL_BINDINGS):
                keys += eval_keys(family, b, rng.randrange(2), rng.randrange(2))
        for c in range(EVAL_BINDINGS):
            keys += [f"hoch_delta2|{c}|1", f"hoch_delta2|{c}|2"]
        keys += [f"pipi|{name}" for name in pools["corpus_blocks"]]
    else:
        raise KeyError(workload)
    rng.shuffle(keys)
    return keys


def all_library_keys(pools: dict) -> list[str]:
    """Every key any seed can choose, for the expected-answer table."""
    keys: list[str] = []
    for family in FAMILIES:
        for b in range(CATALOG_BINDINGS):
            for kl in pools["bidegrees"]:
                for spec in range(len(pools["specs"])):
                    keys += catalog_keys(family, b, tuple(kl), spec)
    for c in range(NIL2_VALUES):
        keys += nil2_catalog_keys(c)
    for b in range(CATALOG_BINDINGS):
        for family in FAMILIES_2:
            keys += large_keys(family, (b, b), b, b % NIL2_VALUES)
    keys += [f"hoch_cohomology|{c}|{n}" for c in range(NIL2_VALUES) for n in (9, 10)]
    for family in FAMILIES:
        for b in range(EVAL_BINDINGS):
            for swap in (0, 1):
                for k in (0, 1):
                    keys += eval_keys(family, b, swap, k)
    for c in range(EVAL_BINDINGS):
        keys += [f"hoch_delta2|{c}|1", f"hoch_delta2|{c}|2"]
    keys += [f"pipi|{name}" for name in pools["corpus_blocks"]]
    return sorted(set(keys))


# -- the CLI session --------------------------------------------------------------


def cli_round(seed: int, golden: dict) -> list[dict]:
    """One round of CLI commands: each command once, text or --json by seed."""
    rng = random.Random(f"cli_session:{seed}")
    out = []
    for name in sorted(golden["commands"]):
        variant = "json" if rng.random() < 0.5 else "text"
        out.append(golden["commands"][name][variant] | {"name": f"{name}/{variant}"})
    rng.shuffle(out)
    return out
