"""Regenerate the benchmark's input pools, expected answers and CLI goldens.

Run from the repository root, at the commit whose answers the benchmark
should hold every later commit to:

    python3 perfbench/make_expected.py

Each cohomology and derivation dimension is confirmed once here, not in
the timed loop.  Small systems go through `tests/oracles.py`
(`checked_nullity`: dense Fraction elimination plus three primes);
systems too large for dense elimination in Python go through the sparse
modular rank below at two of the oracle's primes, which shares no code
with `bihom.scalars`.  The table records which route confirmed each key.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))
sys.path.insert(0, str(ROOT / "perfbench"))

import oracles  # noqa: E402
import workloads as W  # noqa: E402

POOL_SEED = 230701496
# dense oracle only below this many matrix entries (rows x columns)
DENSE_LIMIT = 30_000

CLI_COMMANDS = {
    "verify": ["verify", "corpus/alg2_2.dlg"],
    "derive": ["derive", "corpus/alg3_3.dlg", "--name", "Alg3_3", "--k", "1", "--l", "1"],
    "derive_quasi": ["derive", "corpus/alg2_2.dlg", "--name", "Alg2_2", "--k", "1", "--l", "1", "--quasi"],
    "classify": ["classify"],
    "cohomology": ["cohomology", "corpus/alg2_2.dlg", "--name", "Alg2_2", "--degree", "2"],
    "operad_check": ["operad-check", "corpus/alg2_2.dlg", "--name", "Alg2_2"],
    "deform": ["deform", "corpus/deform_alg2_2.dlg", "--name", "D1", "--check-order", "2"],
    "trivialize": ["trivialize", "corpus/deform_alg2_2.dlg", "--name", "D1", "--order", "2"],
    "cohomology_ex43a": ["cohomology", "corpus/ex43.dlg", "--name", "Ex43_readingA", "--degree", "2"],
    "cohomology_ex43b": ["cohomology", "corpus/ex43.dlg", "--name", "Ex43_readingB", "--degree", "2"],
}


def _rational(rng: random.Random) -> str:
    return str(Fraction(rng.choice([-5, -3, -2, -1, 1, 2, 3, 4, 7]), rng.choice([1, 2, 3, 5])))


def _cochain_rows(f) -> list:
    return [[t, list(args), [str(v) for v in val]] for (t, args), val in sorted(f.data.items())]


def make_pools(api) -> dict:
    rng = random.Random(POOL_SEED)
    cat = api.algebra.catalog()
    bindings = {}
    for family in W.FAMILIES:
        params = cat[family].params
        # binding 0 is the catalog default used by the CLI and ROADMAP tables
        rows = [{p: "1" for p in params}]
        while len(rows) < W.CATALOG_BINDINGS:
            rows.append({p: _rational(rng) for p in params})
        bindings[family] = rows
    pools = {
        "bindings": bindings,
        "nil2_c": ["1"] + [_rational(rng) for _ in range(W.NIL2_VALUES - 1)],
        "bidegrees": [[0, 0], [1, 0], [0, 1], [1, 1], [2, 1], [1, 2]],
        "specs": [["1", "1", "1"], ["2", "1", "1"], ["1", "1/2", "-1"]],
    }
    coh = api.cohomology
    cochains = {}
    for family in W.FAMILIES:
        for b in range(W.EVAL_BINDINGS):
            A = api.algebra.catalog()[family].build(**W.frac_map(bindings[family][b]))
            per_degree = {}
            for n, count in ((1, 1), (2, 2), (3, 2)):
                space = coh.dialg_compatible_space(A, n)
                crng = random.Random(f"{family}#{b}#{n}")
                per_degree[str(n)] = [
                    _cochain_rows(coh.random_compatible_cochain(space, crng, n, A.dim, True))
                    for _ in range(count)
                ]
            cochains[f"{family}#{b}"] = per_degree
    pools["cochains"] = cochains
    inp = W.Inputs(api, {"pools": pools})
    hoch = {}
    for c in range(W.EVAL_BINDINGS):
        X = inp.nil2(c)
        hoch[str(c)] = {}
        for n in (1, 2):
            crng = random.Random(f"nil2#{c}#{n}")
            f = coh.random_compatible_cochain(coh.hoch_compatible_space(X, n), crng, n, 2, False)
            hoch[str(c)][str(n)] = [[list(args), [str(v) for v in val]] for args, val in sorted(f.data.items())]
    pools["hoch_cochains"] = hoch
    blocks = []
    for path in sorted((ROOT / "corpus").glob("*.dlg")):
        df = api.dsl.parse_path(path)
        for block in df.blocks:
            if isinstance(block, api.dsl.AlgebraBlock):
                blocks.append(f"{path.name}:{block.name}")
    pools["corpus_blocks"] = blocks
    return pools


# -- independent confirmation of dimensions ----------------------------------------


def rank_mod_sparse(rows, p: int) -> int:
    """Rank modulo p by sparse elimination with unit pivots."""
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        r = {}
        for c, v in row.items():
            x = Fraction(v)
            x = x.numerator * pow(x.denominator, -1, p) % p
            if x:
                r[c] = x
        while r:
            c = min(r)
            piv = pivots.get(c)
            if piv is None:
                inv = pow(r[c], -1, p)
                pivots[c] = {cc: vv * inv % p for cc, vv in r.items()}
                break
            f = r[c]
            for cc, vv in piv.items():
                nv = (r.get(cc, 0) - f * vv) % p
                if nv:
                    r[cc] = nv
                else:
                    r.pop(cc, None)
    return len(pivots)


def confirmed_nullity(rows, ncols: int) -> tuple[int, str]:
    rows = [r for r in rows if r]
    if len(rows) * ncols <= DENSE_LIMIT:
        dense = [[r.get(j, Fraction(0)) for j in range(ncols)] for r in rows]
        return oracles.checked_nullity(dense, ncols), "oracles.checked_nullity"
    ranks = {rank_mod_sparse(rows, p) for p in oracles.PRIMES[:2]}
    if len(ranks) != 1:
        raise AssertionError(f"modular ranks disagree: {ranks}")
    return ncols - ranks.pop(), "sparse rank mod p"


def cohomology_oracle(api, X, n: int) -> tuple[list, str]:
    """[C, Z, B, H] from rank-nullity on the library's row systems."""
    coh = api.cohomology
    tree = isinstance(X, api.algebra.BiHomDialgebra)

    def systems(k):
        ntrees = len(api.trees.trees(k)) if tree else 1
        compat = coh._compat_rows((X.phi, X.psi), X.dim, k, ntrees)
        delta = coh.dialg_coboundary_rows(X, k) if tree else coh.hoch_coboundary_rows(X, k)
        ncols = coh.tree_cochain_dim(k, X.dim) if tree else coh.hochschild_cochain_dim(k, X.dim)
        C, how1 = confirmed_nullity(compat, ncols)
        Z, how2 = confirmed_nullity(compat + delta, ncols)
        return C, Z, {how1, how2}

    C, Z, how = systems(n)
    B = 0
    if n > 1:
        Cp, Zp, how_p = systems(n - 1)
        B = Cp - Zp
        how |= how_p
    return [C, Z, B, Z - B], " + ".join(sorted(how))


def confirm(api, key: str, answer, inp) -> str | None:
    """Check one answer by an independent route; return the route name."""
    parts = key.split("|")
    kind = parts[0]
    if kind in ("cohomology", "compatible", "cocycles", "coboundaries", "large") or (
        kind.startswith("hoch_") and kind != "hoch_delta2"
    ):
        if kind.startswith("hoch_"):
            X, n = inp.nil2(int(parts[1])), int(parts[2])
        else:
            X, n = inp.algebra(parts[1], int(parts[2])), int(parts[3])
        dims, how = cohomology_oracle(api, X, n)
        what = kind.replace("hoch_", "")
        want = {"compatible": dims[0], "cocycles": dims[1], "coboundaries": dims[2]}.get(what, dims)
        if want != answer:
            raise AssertionError(f"{key}: library {answer}, oracle {want}")
        return how
    if kind in ("plain", "generalized", "quasi", "triple"):
        space = W.library_query(key, inp).call()
        rows = oracles.mat_rows(space.system)
        ncols = space.system.shape[1]
        dim = oracles.checked_nullity(rows, ncols)
        n2 = space.algebra_dim ** 2
        proj = [
            oracles.checked_rank([list(r[c * n2:(c + 1) * n2]) for r in space.solutions.basis_rows()])
            if space.dim else 0
            for c in range(space.components)
        ]
        if [dim] + proj != answer:
            raise AssertionError(f"{key}: library {answer}, oracle {[dim] + proj}")
        return "oracles.checked_nullity"
    return None


def make_answers(api, pools: dict) -> tuple[dict, dict]:
    inp = W.Inputs(api, {"pools": pools})
    answers, routes = {}, {}
    keys = W.all_library_keys(pools)
    t0 = time.perf_counter()
    for i, key in enumerate(keys):
        q = W.library_query(key, inp)
        answers[key] = q.normalize(q.call())
        route = confirm(api, key, answers[key], inp)
        if route:
            routes[key] = route
        if i % 200 == 0 or key.startswith("large"):
            print(f"[{time.perf_counter() - t0:7.1f}s] {i + 1}/{len(keys)} {key}", file=sys.stderr, flush=True)
    # cross-checks between keys that answer the same question two ways
    for key, val in answers.items():
        parts = key.split("|")
        if parts[0] == "gamma_direct" and val != answers["gamma|" + key.split("|", 1)[1]]:
            raise AssertionError(f"gamma and gamma_direct differ at {key}")
        if parts[0] == "operadic" and val != answers["residual|" + key.split("|", 1)[1]]:
            raise AssertionError(f"residual routes differ at {key}")
        if parts[0] in ("delta2", "hoch_delta2") and val is not True:
            raise AssertionError(f"delta squared is not zero at {key}")
        if parts[0] == "classify":
            family, b = parts[1], parts[2]
            for variant, computed, _ in val:
                short = {"plain": "plain", "quasi": "quasi", "generalized_triple": "triple"}[variant]
                if answers[f"{short}|{family}|{b}|1|1"][1:] != computed:
                    raise AssertionError(f"classify disagrees with {short} at {key}")
    return answers, routes


# -- CLI goldens ---------------------------------------------------------------------


def make_golden() -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    commands = {}
    for name, argv in CLI_COMMANDS.items():
        commands[name] = {}
        for variant, extra in (("text", []), ("json", ["--json"])):
            full = argv + extra
            proc = subprocess.run(
                [sys.executable, "-m", "bihom.cli", *full],
                cwd=ROOT, env=env, capture_output=True, timeout=120,
            )
            commands[name][variant] = {
                "argv": full,
                "exit": proc.returncode,
                "stdout": proc.stdout.decode("utf-8"),
            }
    return {"commands": commands}


def git_head() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
        return out.stdout.strip() or "unknown"
    except OSError:
        return "unknown"


def write_json(path: Path, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main() -> None:
    commit = git_head()
    golden = make_golden()
    golden["generated_at_commit"] = commit
    write_json(W.GOLDEN_PATH, golden)
    api = W.import_api()
    pools = make_pools(api)
    answers, routes = make_answers(api, pools)
    write_json(W.EXPECTED_PATH, {
        "generated_at_commit": commit,
        "pools": pools,
        "answers": answers,
        "confirmed_by": routes,
    })


if __name__ == "__main__":
    main()
