"""Every name a ``semap`` module imports is used in that module.

No linter runs on ``src/``, so this reads each module's syntax tree.  The
package ``__init__`` is exempt: its imports are the public re-exports, and
``semap.__all__`` must name exactly those.
"""

import ast
from pathlib import Path

import pytest

import semap

MODULES = sorted(p for p in Path(semap.__file__).parent.glob("*.py") if p.name != "__init__.py")


def imported_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported_names(tree) - used) == []


def test_all_names_exactly_the_package_imports():
    tree = ast.parse(Path(semap.__file__).read_text())
    assert len(semap.__all__) == len(set(semap.__all__))
    assert set(semap.__all__) == imported_names(tree)
