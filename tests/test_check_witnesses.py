"""The full witness lists of the law checks, pinned.

For fixed seeded inputs, `tests/fixtures/check_witnesses.json` holds every
report of `check_dialgebra`, `check_bihom_associative`, `is_multiplicative`,
`is_morphism` and `derivation_report`: `ok` and each violation's law, basis
tuple and residual, in order.  The inputs are the perturbed Alg2_2 of
`test_algebra`, both readings of the 3-dim one-product example, ten random
sparse-table dialgebras, and seeded maps: f from each dialgebra to itself
and to the next one, D at bidegrees (0, 0) and (1, 1).

Running this file as a script prints the fixture for the code on the path:

    PYTHONPATH=src python tests/test_check_witnesses.py > tests/fixtures/check_witnesses.json
"""

import json
import random
import sys
from pathlib import Path

from bihom.algebra import (
    BiHomAssociativeAlgebra,
    BiHomDialgebra,
    assoc_readings,
    check_bihom_associative,
    check_dialgebra,
    is_morphism,
    is_multiplicative,
    map_from_entries,
    table_from_entries,
)
from bihom.derivations import BiDegree, derivation_report
from bihom.scalars import Mat

from test_algebra import _perturbed_alg2_2

FIXTURE = Path(__file__).resolve().parent / "fixtures" / "check_witnesses.json"


def _entries(rng, keys, dim):
    """1-based entries: each key gets one random image with probability 1/3."""
    return {k: {rng.randint(1, dim): rng.choice((-2, -1, 1, 2))} for k in keys if rng.random() < 1 / 3}


def _random_dialgebra(seed):
    rng = random.Random(seed)
    dim = rng.choice((2, 3))
    basis = range(1, dim + 1)
    pairs = [(i, j) for i in basis for j in basis]
    phi = map_from_entries(dim, _entries(rng, basis, dim))
    # every other seed twists by phi on both sides, so the twists commute
    psi = phi if seed % 2 else map_from_entries(dim, _entries(rng, basis, dim))
    return BiHomDialgebra(
        dim,
        table_from_entries(dim, _entries(rng, pairs, dim)),
        table_from_entries(dim, _entries(rng, pairs, dim)),
        phi,
        psi,
        name=f"random{seed}",
    )


def _random_map(seed, rows, cols=None):
    rng = random.Random(seed)
    cols = rows if cols is None else cols
    return Mat(rows, cols, [rng.choice((0, 0, 1, -1, 2)) for _ in range(rows * cols)])


def reports():
    """(check, input, report) for every pinned case, in a fixed order."""
    dialgebras = [_perturbed_alg2_2()]
    one_product = []
    for name, A in assoc_readings().items():
        dialgebras.append(A.as_dialgebra())
        one_product.append(A)
    for seed in range(10):
        A = _random_dialgebra(seed)
        dialgebras.append(A)
        one_product.append(BiHomAssociativeAlgebra(A.dim, A.dashv, A.phi, A.psi, name=A.name))
    out = []
    for A, B in zip(dialgebras, dialgebras[1:] + dialgebras[:1]):
        out.append(("check_dialgebra", A.name, check_dialgebra(A)))
        out.append(("is_multiplicative", A.name, is_multiplicative(A)))
        f = _random_map(1000 + len(out), A.dim)
        out.append(("is_morphism", A.name, is_morphism(f, A, A)))
        f = _random_map(1000 + len(out), B.dim, A.dim)
        out.append(("is_morphism", f"{A.name}->{B.name}", is_morphism(f, A, B)))
        for deg in (BiDegree(0, 0), BiDegree(1, 1)):
            D = _random_map(2000 + len(out), A.dim)
            out.append((f"derivation_report({deg.k},{deg.l})", A.name, derivation_report(A, D, deg)))
    for A in one_product:
        out.append(("check_bihom_associative", A.name, check_bihom_associative(A)))
    return out


def as_json(cases):
    return [
        {
            "check": check,
            "input": name,
            "ok": rep.ok,
            "violations": [[v.law, list(v.at), [str(c) for c in v.residual]] for v in rep.violations],
        }
        for check, name, rep in cases
    ]


def test_witness_lists_match_the_pinned_fixture():
    with open(FIXTURE, encoding="utf-8") as fh:
        pinned = json.load(fh)
    got = as_json(reports())
    assert [(c["check"], c["input"]) for c in got] == [(c["check"], c["input"]) for c in pinned]
    for have, want in zip(got, pinned):
        assert have == want, (want["check"], want["input"])
    assert sum(len(c["violations"]) for c in pinned) > 0
    assert {c["ok"] for c in pinned} == {True, False}


if __name__ == "__main__":
    cases = as_json(reports())
    sys.stdout.write("[\n" + ",\n".join(json.dumps(c) for c in cases) + "\n]\n")
