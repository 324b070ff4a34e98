"""The package has one import path per name: each name is imported from its
defining module, importing one module loads only what it uses, and each CLI
command loads only the modules it runs."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import opertau

SRC = str(Path(opertau.__file__).resolve().parents[1])
MIURA_N2 = str(Path(__file__).parent / "data" / "miura_n2.json")


def fresh(code):
    """Run ``code`` in a new interpreter on this source tree; its JSON output."""
    env = {**os.environ, "PYTHONPATH": SRC}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out)


def test_hecke_loads_only_its_dependencies():
    loaded = fresh(
        "import json, sys, opertau.hecke; "
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'opertau')))"
    )
    assert loaded == [
        "opertau", "opertau.errors", "opertau.hecke", "opertau.linalg", "opertau.series",
    ]


def test_package_reexports_nothing():
    public = fresh(
        "import json, types, opertau; "
        "print(json.dumps([n for n, v in vars(opertau).items() "
        "if not n.startswith('_') and not isinstance(v, types.ModuleType)]))"
    )
    assert public == []


# every command loads the CLI, its error types and psido (the --depth default)
CLI = {"cli", "errors", "psido", "series"}
GRASS = {"grass", "linalg", "schur", "fock", "times"}
KRICHEVER = {"krichever", "jsonio", "dmodule", "oper", *GRASS}

# a minimal valid run of each subcommand and the modules it loads beyond CLI
COMMANDS = {
    "root": (["root", "--n", "2", "d^2 + t"], {"jsonio", "parser"}),
    "miura": (["miura", MIURA_N2], {"jsonio", "oper"}),
    "kdv-flow": (["kdv-flow", "--n", "2", "--r", "3"], {"jsonio", "kdv", "oper"}),
    "kdv-conserved": (["kdv-conserved", "--n", "2", "--s", "1"], {"jsonio", "kdv", "oper"}),
    "tau": (["--degree", "4", "tau", "--frame", "{frame}"], {"jsonio", *GRASS}),
    "hirota-check": (["hirota-check", "--tau", "{tau}"], {"jsonio", *GRASS}),
    "toda-tau": (["--degree", "2", "toda-tau", "--pairs", "{pairs}"],
                 {"jsonio", "toda", "fock", "times"}),
    "hecke-verify": (["hecke-verify", "--n", "2", "--N", "2", "--zrange", "1"],
                     {"hecke", "linalg"}),
    "bc-curve": (["bc-curve", "--p", "{p}", "--q", "{q}", "--bound", "6"],
                 {"parser", *KRICHEVER}),
    "krichever": (["--window=-4,4", "krichever", "--oper", "{oper}"], KRICHEVER),
    "main-check": (["--window=-4,4", "--degree", "2", "main-check", "--miura", MIURA_N2],
                   KRICHEVER),
}

# modules a command must not load, named apart so that a widened pin shows
NEVER = {
    "hecke-verify": {"jsonio", "grass", "times", "schur", "fock", "oper", "kdv",
                     "krichever", "dmodule", "toda", "parser"},
    "kdv-flow": {"grass", "times", "krichever", "hecke"},
}


def inputs(tmp_path):
    """One small valid input file per placeholder of COMMANDS."""
    files = {
        "frame": {"window": [-2, 2], "columns": [{"0": ["1", "1"]}, {"1": ["1", "1"]}]},
        "tau": {"bound": 4, "terms": [{"exps": {}, "coef": ["1", "1"]}]},
        "pairs": [["1", "2", "3"]],
        "oper": {"n": 2, "q": [{"pole": 8, "order": 8, "coeffs": []},  # d^2 + t
                               {"pole": 1, "order": 8, "coeffs": [["-1", "1"]] + [["0", "1"]] * 6}]},
        "p": "d^2",
        "q": "d^3",
    }
    paths = {}
    for name, content in files.items():
        path = tmp_path / name
        path.write_text(content if isinstance(content, str) else json.dumps(content))
        paths[name] = str(path)
    return paths


def test_every_subcommand_is_pinned():
    from opertau.cli import _parser
    sub = next(a for a in _parser()._actions if a.dest == "command")
    assert set(sub.choices) == set(COMMANDS)


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_each_command_loads_only_what_it_runs(command, tmp_path):
    argv, modules = COMMANDS[command]
    argv = [a.format(**inputs(tmp_path)) for a in argv]
    code, loaded = fresh(
        "import contextlib, io, json, sys\n"
        "from opertau.cli import run\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = run({argv!r})\n"
        "print(json.dumps([code, sorted(m for m in sys.modules if m.split('.')[0] == 'opertau')]))"
    )
    assert code == 0
    assert loaded == sorted({"opertau"} | {f"opertau.{m}" for m in CLI | modules})
    assert not {f"opertau.{m}" for m in NEVER.get(command, ())} & set(loaded)
