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


# Calls that can lay values out over a grid's rows, and the lists that make one a grid layout.
LAYOUT_CALLS = {"np.repeat", "np.tile", "np.multiply.outer", "itertools.product", "divmod"}
GRID_LISTS = {"beta_list", "phi_list"}


def _mentions_grid_list(node):
    return any(
        (isinstance(n, ast.Attribute) and n.attr in GRID_LISTS) or (isinstance(n, ast.Name) and n.id in GRID_LISTS)
        for n in ast.walk(node)
    )


def _grid_layouts(source):
    """(top-level function, layout) for each place in ``source`` that writes a grid's row order.

    A layout is a call of ``LAYOUT_CALLS`` over beta_list or phi_list, or a
    comprehension whose nested loops run over both lists.
    """
    found = []
    for top in ast.parse(source).body:
        name = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and ast.unparse(node.func) in LAYOUT_CALLS:
                if any(_mentions_grid_list(arg) for arg in node.args):
                    found.append((name, ast.unparse(node.func)))
            elif isinstance(node, (ast.ListComp, ast.GeneratorExp)) and len(node.generators) > 1:
                if sum(_mentions_grid_list(loop.iter) for loop in node.generators) > 1:
                    found.append((name, "nested comprehension"))
    return found


def test_the_grid_row_order_is_written_only_in_the_grid_helper():
    layouts = {
        (path.name, name, call)
        for path in sorted(PACKAGE.glob("*.py"))
        for name, call in _grid_layouts(path.read_text(encoding="utf-8"))
    }
    assert layouts == {("sweeps.py", "_on_grid", "np.repeat"), ("sweeps.py", "_on_grid", "np.tile")}


def test_the_grid_layout_guard_finds_each_form_of_a_second_row_order():
    source = """
def runner(cfg, exc, sines, cosines):
    grid = itertools.product(cfg.beta_list, cfg.phi_list)
    betas = [beta for beta in cfg.beta_list for _ in cfg.phi_list]
    beta_index, phi_index = divmod(exc.row, len(cfg.phi_list))
    return np.repeat(sines, len(cfg.phi_list)), np.tile(cosines, len(cfg.beta_list))
"""
    assert sorted(call for _, call in _grid_layouts(source)) == [
        "divmod", "itertools.product", "nested comprehension", "np.repeat", "np.tile"
    ]


# Where a source may compare a shape for equality: the one shape rule, and the tally readers,
# which read Python-int rows past 2**63 that an array would round to float.
SHAPE_RULE_SITES = {
    ("states.py", "stack_of"),
    ("measurement.py", "read_tallies"),
    ("measurement.py", "estimate_phase"),
}


def _reads_a_shape(node):
    return any(
        (isinstance(n, ast.Attribute) and n.attr in ("shape", "ndim"))
        or (isinstance(n, ast.Call) and ast.unparse(n.func) == "np.ndim")
        for n in ast.walk(node)
    )


def _shape_equalities(source):
    """(top-level function, comparison) for each ``==`` or ``!=`` in ``source`` that reads a shape.

    A shape is read through ``.shape``, ``.ndim`` or ``np.ndim(...)``; an order
    comparison, such as ``i < entropy.shape[1]``, is no shape rule.
    """
    found = []
    for top in ast.parse(source).body:
        name = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            if isinstance(node, ast.Compare) and any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
                if _reads_a_shape(node):
                    found.append((name, ast.unparse(node)))
    return found


def test_shapes_are_compared_only_by_the_shape_rule_and_the_tally_readers():
    sites = {
        (path.name, name)
        for path in sorted(PACKAGE.glob("*.py"))
        for name, _ in _shape_equalities(path.read_text(encoding="utf-8"))
    }
    assert sites == SHAPE_RULE_SITES


def test_the_shape_guard_finds_each_form_of_a_hand_written_shape_check():
    source = """
def stage(probs, tables, kets, entropy, i):
    if probs.ndim != 2 or probs.shape[1] != 4:
        raise ValueError
    if np.ndim(tables) == 3 and tables.shape[1:] != (9, 4):
        raise ValueError
    if len(kets.shape) == 2 and i < entropy.shape[1]:
        return kets
"""
    assert [comparison for _, comparison in _shape_equalities(source)] == [
        "probs.ndim != 2", "probs.shape[1] != 4", "np.ndim(tables) == 3", "tables.shape[1:] != (9, 4)",
        "len(kets.shape) == 2",
    ]
