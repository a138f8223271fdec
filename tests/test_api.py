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


# Each input rule's bound as source text: the seed's, the shots', the row limit's and the sampling modes.
RULE_LITERALS = {"2 ** 64", "2 ** 63", "2 ** 32", "('multinomial', 'poisson')"}
# Constants that only a rule's check compares against.
RULE_CONSTANTS = {"NORM_ATOL", "ROW_LIMIT"}


def _rule_bound(node):
    """The input-rule bound that ``node`` writes out, or None."""
    if isinstance(node, (ast.BinOp, ast.Tuple)) and ast.unparse(node) in RULE_LITERALS:
        return ast.unparse(node)
    if isinstance(node, ast.Compare):
        named = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)} & RULE_CONSTANTS
        return f"{min(named)} comparison" if named else None
    return None


def test_each_input_rule_bound_is_written_in_one_module():
    # a rule with one site has one literal and one message: its owner checks, and resolve calls the owner
    modules = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (bound := _rule_bound(node)) is not None:
                modules.setdefault(bound, set()).add(path.name)
    assert set(modules) == RULE_LITERALS | {f"{name} comparison" for name in RULE_CONSTANTS}
    assert {bound: sorted(names) for bound, names in modules.items() if len(names) > 1} == {}
