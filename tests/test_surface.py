"""The public surface is what the package and its demos actually reach.

Both checks read the source with ``ast``; nothing is imported or run.

* Every name a module lists in ``__all__`` must be referenced from
  ``src/phi4lab`` or ``demos``: by a name, an attribute or a
  ``from ... import``.  Its own ``def``/``class`` (body included), the
  assignment that defines it and the ``__all__`` list do not count, and
  neither do docstrings or comments.  A name only the tests call is dead
  weight: promote it into a command, a check or a demo, or delete it.
* Every module-level import of ``src/phi4lab`` and ``demos`` is used, so a
  deletion cannot leave an import behind (no linter is assumed).
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "phi4lab").glob("*.py"))
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _exported(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return [elt.value for elt in node.value.elts]
    return []


def _references(node: ast.AST) -> set[str]:
    """Names read below ``node``: loaded names, attributes and imported names."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            out.update(alias.name for alias in sub.names)
    return out


def _file_references(tree: ast.Module) -> set[str]:
    """References of a whole file, leaving out each definition's use of itself."""
    out = set()
    for stmt in tree.body:
        refs = _references(stmt)
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            refs.discard(stmt.name)
        out |= refs
    return out


def _unreferenced(package, demos) -> dict[str, list[str]]:
    trees = {path: _tree(path) for path in package + demos}
    refs = set().union(*(_file_references(tree) for tree in trees.values()))
    missing = {}
    for path in package:
        names = [n for n in _exported(trees[path]) if n not in refs]
        if names:
            missing[path.stem] = names
    return missing


def test_every_exported_name_is_reached_outside_the_tests():
    assert _unreferenced(PACKAGE, DEMOS) == {}


def test_the_check_sees_a_name_only_the_tests_use(tmp_path):
    # an exported helper that nothing in the package or the demos calls
    mod = tmp_path / "orphan.py"
    mod.write_text(
        '__all__ = ["used", "orphan"]\n\n'
        "def used():\n    return 1\n\n"
        "def orphan():\n"
        '    """Calls used() and would call orphan() again."""\n'
        "    return used() + orphan()\n"
    )
    assert _unreferenced([mod], []) == {"orphan": ["orphan"]}


def _bound_imports(tree: ast.Module) -> list[tuple[int, str]]:
    out = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                out.append((node.lineno, alias.asname or alias.name.split(".")[0]))
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out.append((node.lineno, alias.asname or alias.name))
    return out


@pytest.mark.parametrize("path", PACKAGE + DEMOS, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_module_level_import_is_used(path):
    tree = _tree(path)
    loaded = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
    }
    unused = [f"line {line}: {name}" for line, name in _bound_imports(tree) if name not in loaded]
    assert unused == []
