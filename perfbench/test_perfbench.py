"""Checks on the benchmark itself; run from the repository root with

    python3 -m pytest -q perfbench/test_perfbench.py

They start the benchmark the way BENCHMARK.json's command does and take
about three minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())

# counters that do not depend on the machine: equal on every run of a seed
EXACT = (
    "cohomology.cochain_evals", "cohomology.eval_useful_ratio", "cohomology.unknowns",
    "cohomology.delta_row_count", "cohomology.delta_nnz", "scalars.rows_in",
    "scalars.rank_total", "scalars.useful_row_ratio", "scalars.max_coeff_bits",
    "scalars.dense_entries", "derivations.solves", "derivations.unknowns",
    "trees.tree_index_calls", "trees.retraction_calls", "operad.output_entries",
    "cli.output_bytes",
)


def bench(cwd: Path, workload: str, seed: int, seconds: int, trace: int):
    return subprocess.run(
        [sys.executable, *BENCH["command"][1:], "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_counters_repeat_exactly_on_the_same_seed():
    for workload, busy in (("catalog_small", "cohomology.unknowns"),
                           ("cochain_eval", "cohomology.cochain_evals")):
        a, b = (result_of(bench(ROOT, workload, 7, 1, 1)) for _ in range(2))
        assert a["correct"] and b["correct"]
        for name in EXACT:
            assert a["metrics"][name] == b["metrics"][name], (workload, name)
        assert a["metrics"][busy]["value"] > 0


def test_result_lines_name_every_declared_metric():
    untraced = result_of(bench(ROOT, "cli_session", 3, 2, 0))
    assert set(untraced) == {"correct", "attempted", "failed", "metrics"}
    assert set(untraced["metrics"]) == {m["name"] for m in BENCH["end_to_end"]}
    for m in BENCH["end_to_end"]:
        assert untraced["metrics"][m["name"]]["unit"] == m["unit"]
        assert untraced["metrics"][m["name"]]["value"] > 0
    traced = result_of(bench(ROOT, "cli_session", 3, 2, 1))
    assert set(traced["metrics"]) == {m["name"] for m in BENCH["per_layer"]}
    for m in BENCH["per_layer"]:
        assert traced["metrics"][m["name"]]["unit"] == m["unit"]
    assert traced["metrics"]["cli.output_bytes"]["value"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for rel in BENCH["paths"]:
        shutil.copytree(ROOT / rel, tmp_path / rel, ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(tmp_path, "catalog_small", 1, 1, 0)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_a_wrong_answer_is_counted(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for rel in [*BENCH["paths"], "src", "corpus"]:
        shutil.copytree(ROOT / rel, tmp_path / rel, ignore=shutil.ignore_patterns("__pycache__"))
    table_path = tmp_path / "perfbench" / "expected.json"
    table = json.loads(table_path.read_text())
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads as W

    key = W.round_keys("catalog_small", 1, table["pools"])[0]
    table["answers"][key] = "not the answer"
    table_path.write_text(json.dumps(table))
    result = result_of(bench(tmp_path, "catalog_small", 1, 1, 0))
    assert result["correct"] is False
    assert result["failed"] >= 1


@pytest.mark.parametrize("workload", ["catalog_small", "complex_large", "cochain_eval"])
def test_seed_changes_the_inputs(workload):
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads as W

    pools = W.load_json(W.EXPECTED_PATH)["pools"]
    assert W.round_keys(workload, 1, pools) == W.round_keys(workload, 1, pools)
    assert W.round_keys(workload, 1, pools) != W.round_keys(workload, 2, pools)
    answers = W.load_json(W.EXPECTED_PATH)["answers"]
    for seed in range(20):
        assert all(k in answers for k in W.round_keys(workload, seed, pools))
