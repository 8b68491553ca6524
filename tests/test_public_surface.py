import ast
import importlib
import pkgutil
import re
import sys
from pathlib import Path

import pytest

import wikicomm

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
    # exists only in Python 3.11 or later still passes here.
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


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
