"""Every name a ``semap`` module imports is used in that module.

No linter runs on ``src/``, so this reads each module's syntax tree.  The
package ``__init__`` is exempt: its imports are the public re-exports, and
``semap.__all__`` must name exactly those.  Every function among them has a
caller outside the library's own tests: the CLI, a demo, the acceptance
tests or the benchmark.
"""

import ast
import inspect
from pathlib import Path

import pytest

import semap

PACKAGE = Path(semap.__file__).parent
ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
CALLERS = [PACKAGE / "cli.py", ROOT / "tests" / "test_acceptance.py",
           *sorted((ROOT / "demos").glob("*.py")), *sorted((ROOT / "bench").glob("*.py"))]


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


def semap_names(tree: ast.Module) -> set[str]:
    """Names imported from ``semap`` or one of its modules, or read as ``semap.<name>``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("semap")):
            names.update(a.name for a in node.names)
        elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "semap":
            names.add(node.attr)
    return names


def test_every_exported_function_has_a_caller():
    assert all(p.is_file() for p in CALLERS) and len(CALLERS) > 4
    used = set().union(*(semap_names(ast.parse(p.read_text())) for p in CALLERS))
    functions = {name for name in semap.__all__ if inspect.isfunction(getattr(semap, name))}
    assert sorted(functions - used) == []
