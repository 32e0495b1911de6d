"""Each CLI command, run as a fresh process, loads only the library
modules it calls.

`tests/test_cli.py` runs every command inside the test process, where
other tests have already imported every `bihom` module, so a missing
function-local import passes there and breaks only in a real CLI process.
Here each command runs in a new interpreter, as `python -m bihom.cli`
does, with `PYTHONPATH=src`.  The test pins its exit code and stdout
bytes, and the sorted `bihom.*` modules loaded when it ends.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from bihom.cli import main

ROOT = Path(__file__).resolve().parent.parent

# runs bihom.cli as __main__, then writes the loaded bihom modules to stderr
PROBE = """
import json, runpy, sys
sys.argv[0] = "bihom"
try:
    runpy.run_module("bihom.cli", run_name="__main__", alter_sys=True)
finally:
    sys.stdout.flush()
    sys.stderr.write("\\n" + json.dumps(sorted(m for m in sys.modules if m.startswith("bihom."))))
"""

BASE = ["algebra", "scalars", "trees"]
DEFORMATION = BASE + ["cochains", "deformation", "dsl", "operad"]  # the complex loads only for an obstruction

# (pinned command in tests/fixtures/cli_pinned.json, or None, argv, modules)
CASES = {
    "verify": ("verify_ex43", ["verify", "corpus/ex43.dlg"], BASE + ["dsl"]),
    "verify_deformation": (None, ["verify", "corpus/deform_alg2_2.dlg"], DEFORMATION),
    "classify": ("classify_bind", ["classify", "--bind", "a=2"], BASE + ["derivations"]),
    "derive": (
        "derive_triple",
        ["derive", "corpus/alg3_3.dlg", "--name", "Alg3_3", "--k", "1", "--l", "1", "--triple"],
        BASE + ["derivations", "dsl"],
    ),
    "cohomology": (
        "cohomology_ex43b_degree3",
        ["cohomology", "corpus/ex43.dlg", "--name", "Ex43_readingB", "--degree", "3"],
        BASE + ["cochains", "cohomology", "dsl"],
    ),
    "operad-check": (
        "operad_check_ex43a",
        ["operad-check", "corpus/ex43.dlg", "--name", "Ex43_readingA"],
        BASE + ["cochains", "dsl", "operad"],
    ),
    "deform": (
        "deform_failing",
        ["deform", "tests/fixtures/deform_bad.dlg", "--name", "Dbad", "--check-order", "1"],
        DEFORMATION,
    ),
    "trivialize": (
        "trivialize_obstructed",
        ["trivialize", "tests/fixtures/trivialize_stuck.dlg", "--name", "Dstuck", "--order", "1"],
        DEFORMATION + ["cohomology"],
    ),
}


def pinned(name: str) -> dict:
    with open(ROOT / "tests" / "fixtures" / "cli_pinned.json", encoding="utf-8") as fh:
        return json.load(fh)["commands"][name]["text"]


@pytest.mark.parametrize("case", list(CASES))
def test_fresh_process_loads_only_its_modules(case):
    fixture, argv, modules = CASES[case]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, *argv], cwd=ROOT, env=env, capture_output=True, timeout=120
    )
    if fixture is not None:
        want = pinned(fixture)
        assert want["argv"] == argv
        code, stdout = want["exit"], want["stdout"].encode("utf-8")
    else:
        r = CliRunner().invoke(main, argv)
        code, stdout = r.exit_code, r.stdout_bytes
    assert (proc.returncode, proc.stdout) == (code, stdout), proc.stderr.decode()
    loaded = json.loads(proc.stderr.decode().splitlines()[-1])
    assert loaded == sorted(f"bihom.{m}" for m in modules)
