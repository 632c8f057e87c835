"""Which package modules a CLI call runs, each case in a fresh interpreter.

Importing cqrelay.cli registers coding, lemmas, regions and typicality
lazily; a call runs only the ones its command needs.  A module has run when
its type in sys.modules is plain ModuleType: reading the type, unlike reading
an attribute, does not itself run a lazy module.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from cqrelay import cli

SRC = pathlib.Path(cli.__file__).parents[1]
ENV = {**os.environ, "PYTHONPATH": str(SRC)}
LAZY = ("coding", "lemmas", "regions", "typicality")

# prints the lazy modules that have run, after the body
CHILD = """
import json, sys, types
import cqrelay.cli as cli
{body}
print(json.dumps(sorted(n for n in {lazy!r} if type(sys.modules["cqrelay." + n]) is types.ModuleType)))
"""


def ran(body: str, argv=(), cwd=None) -> list:
    code = CHILD.format(body=body, lazy=LAZY)
    run = subprocess.run(
        [sys.executable, "-c", code, *argv], capture_output=True, text=True, env=ENV, cwd=cwd, check=True
    )
    return json.loads(run.stdout)


@pytest.fixture
def inputs(tmp_path):
    for family, name in (("product-broadcast", "bc.json"), ("adder-mac", "mac.json"), ("orthogonal", "cq.json")):
        assert cli.main(["generate", family, "--out", str(tmp_path / name)]) == 0
    (tmp_path / "sim.json").write_text(json.dumps({"n": 2, "M1": 2, "M2": 2, "seed": 1}))
    return tmp_path


@pytest.mark.parametrize(
    "argv, want",
    [
        ([], []),
        (["region", "bidirectional", "--mac-channel", "mac.json", "--bc-channel", "bc.json"], ["regions"]),
        (["verify", "all", "--trials", "2", "--n", "2", "--alpha", "1"], ["lemmas", "typicality"]),
        (["simulate", "--config", "sim.json", "--bc-channel", "bc.json"], ["coding", "typicality"]),
        (["chi", "--channel", "cq.json"], []),
        (["generate", "overlap-pair"], []),
    ],
    ids=["import", "region", "verify", "simulate", "chi", "generate"],
)
def test_a_call_runs_only_its_commands_modules(inputs, argv, want):
    body = "assert cli.main(sys.argv[1:] + ['--out', 'out.txt']) == 0" if argv else ""
    assert ran(body, argv, cwd=inputs) == want


def test_vars_runs_a_lazy_module():
    # the benchmark's tracer reads each layer with vars() before main runs
    assert ran("vars(sys.modules['cqrelay.regions'])") == ["regions"]


def test_each_lazy_module_is_bound_on_the_package_without_running():
    # monkeypatch.setattr("cqrelay.typicality.<name>", ...) resolves the
    # module as an attribute of the package, as a normal import binds it
    body = "import cqrelay\nassert all(getattr(cqrelay, n) is sys.modules['cqrelay.' + n] for n in {!r})".format(LAZY)
    assert ran(body) == []


@pytest.mark.parametrize("command", [[], ["chi"], ["region"], ["verify"], ["simulate"], ["generate"]], ids=repr)
def test_help_exits_zero_with_a_usage_line(command):
    run = subprocess.run(
        [sys.executable, "-m", "cqrelay.cli", *command, "--help"], capture_output=True, text=True, env=ENV
    )
    assert run.returncode == 0
    assert run.stdout.startswith("usage: cqrelay")
    assert run.stderr == ""
