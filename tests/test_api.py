"""The package's public surface: every exported name exists, once, and modules share no private names."""

import ast
from pathlib import Path

import sloccsim

PACKAGE = Path(sloccsim.__file__).resolve().parent


def test_every_exported_name_resolves():
    missing = [name for name in sloccsim.__all__ if not hasattr(sloccsim, name)]
    assert missing == []


def test_every_exported_name_is_listed_once():
    repeated = sorted({name for name in sloccsim.__all__ if sloccsim.__all__.count(name) > 1})
    assert repeated == []


def test_no_module_imports_a_private_name_from_a_sibling():
    private = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("sloccsim")):
                private += [f"{path.name}: {alias.name}" for alias in node.names if alias.name.startswith("_")]
    assert private == []
