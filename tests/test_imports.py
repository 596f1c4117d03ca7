"""Importing a layer loads that layer and the layers below it, and each CLI
subcommand loads only the layers it runs.  Every case runs in a fresh
interpreter and reads its sys.modules."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import otmlab

ROOT = Path(__file__).resolve().parent.parent

# the layers above the machine: the assembler, codes, logic and the verifier
ABOVE_MACHINE = {"asm", "codes", "formulas", "logic", "relations", "reductions", "cli"}
VERIFIER = {"relations", "reductions", "formulas", "logic"}

# runs `python -m otmlab ARGV...` in process, then prints what it loaded
RUN_MAIN = """
import json, runpy, sys
sys.argv = ["otmlab", *sys.argv[1:]]
try:
    runpy.run_module("otmlab", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
print(json.dumps([code, sorted(sys.modules)]))
"""


def _fresh(code, *argv):
    """The exit code and the otmlab layers loaded by `python -c code argv...`;
    code prints [exit code, sorted(sys.modules)] as its last line."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", code, *argv], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    status, modules = json.loads(done.stdout.splitlines()[-1])
    return status, {m.removeprefix("otmlab.") for m in modules if m.startswith("otmlab.")}


def _imported(module):
    code = f"import json, sys, {module}\nprint(json.dumps([0, sorted(sys.modules)]))"
    return _fresh(code)[1]


@pytest.mark.parametrize("layer", ["ordinals", "tapes", "hfsets", "machine"])
def test_a_layer_loads_nothing_above_the_machine(layer):
    loaded = _imported(f"otmlab.{layer}")
    assert layer in loaded
    assert loaded & ABOVE_MACHINE == set()


def test_importing_the_cli_loads_no_verifier():
    loaded = _imported("otmlab.cli")
    assert {"cli", "machine", "hfsets"} <= loaded
    assert loaded & (VERIFIER | {"asm", "codes"}) == set()


@pytest.mark.parametrize(
    "argv, runs",
    [
        (["run", "demos/right_sweep.otm", "--budget", "2000,2"], {"asm", "codes", "tapes"}),
        (["encode", "{{},{{}}}"], {"codes"}),
        (["decode", '{"bound": "2", "pairs": ["1"]}'], {"codes"}),
        (["list-universe", "rank:2"], {"hfsets"}),
    ],
    ids=["run", "encode", "decode", "list-universe"],
)
def test_a_subcommand_without_logic_loads_no_verifier(argv, runs):
    status, loaded = _fresh(RUN_MAIN, *argv)
    assert status == 0
    assert runs <= loaded
    assert loaded & VERIFIER == set()


def test_the_verifier_loads_relations_and_formulas_but_not_logic():
    # `check` imports reductions; the principles' matrices are formulas that
    # only tests evaluate
    loaded = _imported("otmlab.reductions")
    assert {"reductions", "relations", "formulas"} <= loaded
    assert "logic" not in loaded


def test_eval_loads_the_logic_it_runs():
    # the control: the probe sees a lazily imported layer
    status, loaded = _fresh(RUN_MAIN, "eval", "x in y", "--env", "x={}", "--env", "y={{}}")
    assert status == 0
    assert {"formulas", "logic"} <= loaded
    assert loaded & {"relations", "reductions"} == set()


def test_every_export_resolves_to_its_module():
    code = """
import importlib, json, sys
import otmlab
for name in otmlab.__all__:
    value = {}
    exec(f"from otmlab import {name}", value)
    home = importlib.import_module(f"otmlab.{otmlab._EXPORTS[name]}")
    assert value[name] is getattr(home, name), name
print(json.dumps([0, sorted(sys.modules)]))
"""
    _, loaded = _fresh(code)
    assert {"reductions", "relations", "logic", "asm"} <= loaded


def test_the_package_lists_its_39_exports_and_no_other_name():
    assert len(otmlab.__all__) == len(set(otmlab.__all__)) == 39
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        otmlab.nope  # noqa: B018
    with pytest.raises(ImportError):
        from otmlab import nope  # noqa: F401


def test_every_export_is_taken_from_the_package_by_a_test_or_demo():
    # an export nothing imports from the package belongs in its module only
    taken = set()
    for path in [*ROOT.joinpath("tests").rglob("*.py"), *ROOT.joinpath("demos").rglob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module == "otmlab" and not node.level:
                taken.update(alias.name for alias in node.names)
    assert sorted(set(otmlab.__all__) - taken) == []
