"""What each CLI process imports, and the lazily loaded package names.

That each public name resolves to its module's object is checked in
test_cli.test_public_names_resolve.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import knapdep
from knapdep.cli import main

# Runs ``knapdep.cli`` as ``python -m`` does, then writes the names of the
# loaded modules to stderr as its last line.
MODULES_AFTER_CLI = """
import runpy, sys
try:
    runpy.run_module("knapdep.cli", run_name="__main__", alter_sys=True)
except SystemExit:
    pass
sys.stderr.write("\\n" + " ".join(sorted(sys.modules)) + "\\n")
"""

POOL = {"concurrent.futures", "multiprocessing"}


def loaded_by(*argv, flags=(), stdin=None):
    # Under -S the package is found through PYTHONPATH alone.
    env = dict(os.environ, PYTHONPATH=str(Path(knapdep.__file__).parents[1]))
    result = subprocess.run(
        [sys.executable, *flags, "-c", MODULES_AFTER_CLI, *argv],
        input=stdin,
        capture_output=True,
        text=True,
        env=env,
    )
    assert result.returncode == 0, result.stderr
    return set(result.stderr.splitlines()[-1].split())


@pytest.fixture(scope="module")
def suite(tmp_path_factory):
    directory = tmp_path_factory.mktemp("suite")
    for seed in (1, 2):
        path = directory / f"i{seed}.json"
        assert main(["gen", "--n", "6", "--k", "2", "--seed", str(seed),
                     "--out", str(path)]) == 0
    return directory


# Every command that reads or writes an instance loads core, and with it
# threshold and jsontext.  The CLI runs as __main__, so it is not among
# the knapdep modules.
CORE = {"core", "threshold", "jsontext"}


@pytest.mark.parametrize("argv, layers, excluded", [
    (["--help"], set(), POOL | {"csv"}),
    (["run", "--no-such-flag"], set(), POOL | {"csv"}),
    (["gen", "--n", "3"], CORE | {"instances"}, POOL | {"csv"}),
    (["validate", "--input", "{doc}"], CORE | {"stream"}, POOL | {"csv"}),
    (["run", "--input", "{doc}"], CORE | {"stream", "engine"}, POOL | {"csv"}),
    (["opt", "--input", "{doc}"], CORE | {"oracle"}, POOL | {"csv"}),
    (["bench", "--input", "{suite}", "--jobs", "1"], CORE | {"engine", "oracle", "bench"}, POOL),
], ids=["help", "usage-error", "gen", "validate", "run", "opt", "serial-bench"])
def test_each_command_loads_only_its_layers(suite, argv, layers, excluded):
    loaded = loaded_by(*(a.format(doc=suite / "i1.json", suite=suite) for a in argv))
    ours = {m for m in loaded if m.split(".")[0] == "knapdep"}
    assert ours == {"knapdep"} | {f"knapdep.{m}" for m in layers}
    assert not loaded & excluded


@pytest.mark.parametrize("command", ["validate", "run"])
def test_only_a_piped_input_loads_the_spill(suite, command):
    # Input that cannot seek is copied to a temporary file; a file named by
    # --input is read as it is.  Site start-up may import tempfile itself,
    # so both run with -S.  (shutil is loaded either way: argparse's help
    # formatter asks it for the terminal width.)
    document = suite / "i1.json"
    assert "tempfile" not in loaded_by(command, "--input", str(document), flags=["-S"])
    assert "tempfile" in loaded_by(command, flags=["-S"], stdin=document.read_text())


def test_package_import_loads_on_first_access():
    script = (
        "import json, sys, knapdep\n"
        "before = sorted(m for m in sys.modules if m.startswith('knapdep.'))\n"
        "knapdep.BenchConfig\n"
        "after = sorted(m for m in sys.modules if m.startswith('knapdep.'))\n"
        "print(json.dumps([before, after]))\n"
    )
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    before, after = json.loads(result.stdout)
    assert before == []
    assert "knapdep.bench" in after and "knapdep.cli" not in after


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from knapdep import *", namespace)
    for name in knapdep.__all__:
        assert namespace[name] is getattr(knapdep, name), name


def test_dir_lists_every_public_name():
    assert set(knapdep.__all__) <= set(dir(knapdep))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        knapdep.no_such_name
    assert not hasattr(knapdep, "no_such_name")
