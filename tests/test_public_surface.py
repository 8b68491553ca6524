import ast
import glob
import importlib
import os
import pkgutil
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import wikicomm

from fakes import MINIWIKI, seed_workdir, write_config

MODULES = ["wikicomm"] + [
    f"wikicomm.{info.name}" for info in pkgutil.iter_modules(wikicomm.__path__)
]


@pytest.mark.parametrize("module_name", MODULES)
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in getattr(module, "__all__", []) if not hasattr(module, name)]
    assert missing == []


SOURCES = sorted(Path(wikicomm.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_sources_parse_as_the_declared_python_floor(path):
    # pyproject.toml declares requires-python >= 3.10, so no module may use
    # later grammar (``except*``, PEP 695 ``type`` statements, ...). Parsing
    # checks the grammar only: a call to a library function or a module that
    # exists only in Python 3.11 or later still passes here, and is caught by
    # test_offline_run_writes_the_goldens_under_every_other_cpython.
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


def other_cpythons() -> list[str]:
    """Every CPython 3.10 or later on this host but the one running the tests.

    Interpreters are looked for as ``python3.N`` on ``PATH`` and as
    ``*/bin/python3`` next to ``sys.base_prefix`` (pyenv's layout, one
    directory per version). Only those that answer a version probe count: a
    pyenv shim of a version that is not selected exits non-zero. Each
    executable counts once.
    """
    candidates = [shutil.which(f"python3.{minor}") for minor in range(10, 20)]
    candidates += sorted(glob.glob(os.path.join(os.path.dirname(sys.base_prefix), "*/bin/python3")))
    probe = (
        "import os, sys; print(sys.implementation.name, sys.version_info >= (3, 10), "
        "os.path.realpath(sys.executable))"
    )
    found = {os.path.realpath(sys.executable): None}
    for candidate in filter(None, candidates):
        try:
            result = subprocess.run(
                [candidate, "-c", probe], capture_output=True, text=True, timeout=60
            )
        except (OSError, subprocess.TimeoutExpired):
            continue
        if result.returncode == 0:
            name, recent, executable = result.stdout.rstrip("\n").split(" ", 2)
            if name == "cpython" and recent == "True":
                found.setdefault(executable, candidate)
    return [python for python in found.values() if python is not None]


def test_offline_run_writes_the_goldens_under_every_other_cpython(tmp_path):
    # The grammar check above cannot see a library call that exists only in
    # later versions; a run under each interpreter can. The offline run needs
    # no third-party package.
    interpreters = other_cpythons()
    if not interpreters:
        pytest.skip("no other CPython 3.10 or later on this host")
    golden = MINIWIKI / "golden"
    env = dict(os.environ, PYTHONPATH=str(Path(wikicomm.__file__).parents[1]))
    for i, python in enumerate(interpreters):
        work = tmp_path / str(i)
        work.mkdir()
        config = write_config(work)
        seed_workdir(work / "out")
        result = subprocess.run(
            [python, "-m", "wikicomm.cli", "--config", str(config), "--offline", "run"],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert result.returncode == 0, (python, result.stderr)
        for path in sorted(p for p in golden.rglob("*") if p.is_file()):
            rel = path.relative_to(golden)
            assert (work / "out" / rel).read_bytes() == path.read_bytes(), (python, str(rel))


def test_floor_check_rejects_later_grammar():
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))


def test_declared_dependencies_match_the_imports():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    pyproject = tomllib.loads((Path(__file__).parents[1] / "pyproject.toml").read_text())
    declared = {re.match(r"[\w.-]+", spec).group() for spec in pyproject["project"]["dependencies"]}
    # Every import statement counts, function-local ones too.
    imported = set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    assert imported - set(sys.stdlib_module_names) - {"wikicomm"} == declared == {"requests"}
