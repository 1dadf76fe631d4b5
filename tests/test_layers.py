"""The import boundary between production and the independent routes.

Production keeps one algorithm per quantity; the second routes that check
it (the bit-word abacus, the diagram scans, rim-hook walks, lattice points)
live in `oracles` and `abacus`, and only `verify` and the tests reach them.
The graph is read from the package-relative imports of the source, so no
module is imported to check it.
"""
import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "tcores"
PRODUCTION = ("partitions", "corequotient", "counting", "distribution", "hookstats",
              "sampling", "cli")
ORACLE_MODULES = {"oracles", "abacus"}
# the verification suite runs the oracles by design; the CLI only dispatches to it
SKIPPED_EDGES = {("cli", "verify")}
MOVED_TO_ORACLES = ("_require_cell", "arm_length", "leg_length", "hook_length",
                    "rim_hook_cells", "remove_rim_hook")


def _tree(module: str) -> ast.Module:
    return ast.parse((PACKAGE / f"{module}.py").read_text(), filename=f"{module}.py")


def _imports(module: str) -> set[str]:
    """The sibling modules that `module` imports with `from . import m` or
    `from .m import name`, wherever the import statement sits."""
    found = set()
    for node in ast.walk(_tree(module)):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:
                found.update(alias.name for alias in node.names)
            else:
                found.add(node.module.split(".")[0])
    return found


def _reachable(start: str) -> set[str]:
    seen, stack = set(), [start]
    while stack:
        module = stack.pop()
        for target in _imports(module):
            if (module, target) not in SKIPPED_EDGES and target not in seen:
                seen.add(target)
                stack.append(target)
    return seen


def test_every_module_named_here_exists():
    names = {path.stem for path in PACKAGE.glob("*.py")}
    assert set(PRODUCTION) | ORACLE_MODULES | {"verify", "__init__"} <= names


@pytest.mark.parametrize("module", PRODUCTION)
def test_production_reaches_no_oracle_route(module):
    assert _reachable(module) & ORACLE_MODULES == set()


def test_the_package_imports_no_oracle_route():
    assert _imports("__init__") & ORACLE_MODULES == set()
    assert _reachable("__init__") & ORACLE_MODULES == set()


def test_partitions_keeps_no_diagram_scan():
    body = _tree("partitions").body
    defined = {node.name for node in body if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert defined.isdisjoint(MOVED_TO_ORACLES)
    shape = next(node for node in body
                 if isinstance(node, ast.ClassDef) and node.name == "PartitionShape")
    assert "contains" not in {node.name for node in shape.body
                              if isinstance(node, ast.FunctionDef)}
