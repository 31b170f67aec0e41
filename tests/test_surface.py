"""The public surface is what the package and its demos actually reach.

Both checks read the source with ``ast``; nothing is imported or run.

* Every name a module lists in ``__all__`` must be referenced from
  ``src/phi4lab`` or ``demos``: by a name, an attribute or a
  ``from ... import``.  Its own ``def``/``class`` (body included), the
  assignment that defines it and the ``__all__`` list do not count, and
  neither do docstrings or comments.  A name only the tests call is dead
  weight: promote it into a command, a check or a demo, or delete it.
* The same holds for every public method (or property) of a class in
  ``src/phi4lab``: its name must be read somewhere outside its own body.
  The check is by name, so a method shares the fate of any attribute
  spelled the same way.
* Every attribute a class of ``src/phi4lab`` stores on ``self`` is read as an
  attribute (``obj.name``) somewhere in ``src/phi4lab`` or ``demos``.  The
  check is by name, like the method check; an augmented assignment such as
  ``self.j += 1`` stores, and does not count as a read.
* Every module-level import of ``src/phi4lab`` and ``demos`` is used, so a
  deletion cannot leave an import behind (no linter is assumed).
* No public function or constructor of ``src/phi4lab`` takes ``noise``
  together with a value the noise realization already fixes (``grid``,
  ``timegrid``, ``cutoff``, ``seed`` or ``replica``): a path is named by its
  noise alone, so there is no second copy of those values to disagree with.
* No public function or constructor of ``src/phi4lab`` takes a ``kernel`` or
  a ``partition``: the step kernel and the dyadic partition are looked up
  from what fixes them.  ``cli.check_partition_unity`` is the one exception,
  so that its test can inject a faulty partition.
* No public function or constructor of ``src/phi4lab`` takes ``workers``,
  ``processes``, ``threads`` or ``jobs``: the replica loop runs on one
  process per CPU the process may use, and outputs do not depend on that
  count, so there is nothing for a caller to set.
* Every package ``src/phi4lab`` imports from outside the standard library is
  a runtime dependency in ``pyproject.toml``, and every runtime dependency is
  imported.  Test oracles (scipy, jsonschema) belong to the ``test`` extra.
"""

import ast
import re
import sys
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


_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _own_references(node: ast.AST) -> set[str]:
    """References below ``node``, leaving out each definition's use of itself.

    A class is read member by member, so a method calling itself does not
    count as a use of that method.
    """
    if isinstance(node, ast.ClassDef):
        parts = node.bases + node.keywords + node.decorator_list + node.body
        refs = set().union(*(_own_references(part) for part in parts))
    else:
        refs = _references(node)
    if isinstance(node, _DEFS):
        refs.discard(node.name)
    return refs


def _file_references(tree: ast.Module) -> set[str]:
    """References of a whole file, leaving out each definition's use of itself."""
    return set().union(*(_own_references(stmt) for stmt in tree.body))


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


# Reached from the tests only, on purpose.  equal_modulo_timing is the
# certificate that two runs produced the same outputs, which the CLI tests and
# output comparisons use; coeff looks a mode up by its signed frequency through
# the conjugate half, the oracle the transform and product tests compare against.
_TEST_ONLY_METHODS = {"RunManifest.equal_modulo_timing", "SpectralField.coeff"}


def _public_methods(tree: ast.Module) -> list[str]:
    return [
        f"{cls.name}.{item.name}"
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for item in cls.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not item.name.startswith("_")
    ]


def _unreferenced_methods(package, demos, exempt=frozenset()) -> dict[str, list[str]]:
    trees = {path: _tree(path) for path in package + demos}
    refs = set().union(*(_file_references(tree) for tree in trees.values()))
    missing = {}
    for path in package:
        names = [m for m in _public_methods(trees[path])
                 if m.split(".")[1] not in refs and m not in exempt]
        if names:
            missing[path.stem] = names
    return missing


def test_every_public_method_is_reached_outside_the_tests():
    assert _unreferenced_methods(PACKAGE, DEMOS, _TEST_ONLY_METHODS) == {}


def test_the_check_sees_a_method_only_the_tests_use(tmp_path):
    mod = tmp_path / "orphan.py"
    mod.write_text(
        "class Path:\n"
        "    def step(self):\n        return self.step() + self._helper()\n\n"
        "    def _helper(self):\n        return 0\n\n"
        "    def used(self):\n        return 1\n\n"
        "def run(p):\n    return p.used()\n"
    )
    assert _unreferenced_methods([mod], []) == {"orphan": ["Path.step"]}
    assert _unreferenced_methods([mod], [], {"Path.step"}) == {}


def _stored_on_self(tree: ast.Module) -> list[str]:
    """``Class.name`` for every attribute the methods of a class store on ``self``."""
    out = []
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef):
            names = {node.attr for node in ast.walk(cls)
                     if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                     and isinstance(node.value, ast.Name) and node.value.id == "self"}
            out += [f"{cls.name}.{name}" for name in sorted(names)]
    return out


def _attribute_reads(tree: ast.Module) -> set[str]:
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def _unread_attributes(package, demos) -> dict[str, list[str]]:
    trees = {path: _tree(path) for path in package + demos}
    reads = set().union(*(_attribute_reads(tree) for tree in trees.values()))
    missing = {}
    for path in package:
        names = [a for a in _stored_on_self(trees[path]) if a.split(".")[1] not in reads]
        if names:
            missing[path.stem] = names
    return missing


def test_every_stored_attribute_is_read():
    assert _unread_attributes(PACKAGE, DEMOS) == {}


def test_the_check_sees_an_attribute_nothing_reads(tmp_path):
    mod = tmp_path / "stored.py"
    mod.write_text(
        "class Path:\n"
        "    def __init__(self, grid):\n"
        "        self.grid = grid\n        self.meta = {}\n        self.j = 0\n\n"
        "    def step(self):\n        self.j += 1\n\n"
        "def size(path):\n    return path.grid.N\n"
    )
    assert _unread_attributes([mod], []) == {"stored": ["Path.j", "Path.meta"]}


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


# what a NoiseRealization fixes, and so no caller of a noise-taking API repeats
_NOISE_FIXES = ("grid", "timegrid", "cutoff", "seed", "replica")


def _params(fn: ast.FunctionDef) -> set[str]:
    args = fn.args
    params = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
    for extra in (args.vararg, args.kwarg):
        if extra is not None:
            params.add(extra.arg)
    return params


def _takes_loose_noise(fn: ast.FunctionDef) -> bool:
    params = _params(fn)
    return "noise" in params and not params.isdisjoint(_NOISE_FIXES)


def _public_apis_where(package, takes) -> dict[str, list[str]]:
    """Public functions, and classes by their constructor, whose signature ``takes``."""
    found = {}
    for path in package:
        names = []
        for node in _tree(path).body:
            if isinstance(node, ast.ClassDef):
                fns = [item for item in node.body
                       if isinstance(item, ast.FunctionDef) and item.name == "__init__"]
            elif isinstance(node, ast.FunctionDef):
                fns = [node]
            else:
                continue
            if not node.name.startswith("_") and any(map(takes, fns)):
                names.append(node.name)
        if names:
            found[path.stem] = names
    return found


def _loose_noise_parameters(package) -> dict[str, list[str]]:
    """Public functions and constructors taking ``noise`` beside a value it fixes."""
    return _public_apis_where(package, _takes_loose_noise)


def test_no_public_api_takes_noise_beside_what_it_fixes():
    assert _loose_noise_parameters(PACKAGE) == {}


def test_the_check_sees_noise_beside_a_loose_parameter(tmp_path):
    mod = tmp_path / "loose.py"
    mod.write_text(
        "class Stepper:\n"
        "    def __init__(self, grid, coeffs, *, noise=None):\n        pass\n\n"
        "    def rebuild(self, noise, seed):\n        pass\n\n"
        "class Walker:\n"
        "    def __init__(self, noise, coeffs):\n        pass\n\n"
        "class _Private:\n"
        "    def __init__(self, noise, replica):\n        pass\n\n"
        "def run(noise, coeffs, cutoff):\n    pass\n\n"
        "def walk(noise, coeffs, record_every=1):\n    pass\n\n"
        "def _helper(noise, timegrid):\n    pass\n"
    )
    assert _loose_noise_parameters([mod]) == {"loose": ["Stepper", "run"]}


# what the package looks up from what fixes it: the step kernel from the grid,
# time grid and damping (noise.step_kernel), the dyadic partition from the grid
# (paley.default_partition); a passed copy could disagree with its key
_LOOKED_UP = ("kernel", "partition")
# the unity check takes a partition so that its test can hand it a faulty one
_TAKES_A_PARTITION = {"cli": ["check_partition_unity"]}


def _takes_looked_up(fn: ast.FunctionDef) -> bool:
    return not _params(fn).isdisjoint(_LOOKED_UP)


def test_no_public_api_takes_a_kernel_or_a_partition():
    assert _public_apis_where(PACKAGE, _takes_looked_up) == _TAKES_A_PARTITION


def test_the_check_sees_a_kernel_or_a_partition_parameter(tmp_path):
    mod = tmp_path / "passed.py"
    mod.write_text(
        "class Path:\n"
        "    def __init__(self, noise, coeffs, kernel=None):\n        pass\n\n"
        "class Walker:\n"
        "    def __init__(self, noise, coeffs):\n        pass\n\n"
        "def norm(spec, alpha, *, partition=None):\n    pass\n\n"
        "def blocks(spec, out=None):\n    pass\n\n"
        "def _helper(spec, partition):\n    pass\n"
    )
    assert _public_apis_where([mod], _takes_looked_up) == {"passed": ["Path", "norm"]}


# the replica loop sizes itself from the CPU affinity (noise.replica_workers)
_POOL_SIZES = ("workers", "processes", "threads", "jobs")


def _takes_a_pool_size(fn: ast.FunctionDef) -> bool:
    return not _params(fn).isdisjoint(_POOL_SIZES)


def test_no_public_api_takes_a_pool_size():
    assert _public_apis_where(PACKAGE, _takes_a_pool_size) == {}


def test_the_check_sees_a_pool_size_parameter(tmp_path):
    mod = tmp_path / "pooled.py"
    mod.write_text(
        "class Loop:\n"
        "    def __init__(self, statistic, *, processes=1):\n        pass\n\n"
        "def estimate(statistic, replicas, workers=None):\n    pass\n\n"
        "def sweep(cfg, **jobs):\n    pass\n\n"
        "def run(cfg, threads):\n    pass\n\n"
        "def replica_workers(replicas):\n    pass\n\n"
        "def _helper(statistic, workers):\n    pass\n"
    )
    assert _public_apis_where([mod], _takes_a_pool_size) == {
        "pooled": ["Loop", "estimate", "sweep", "run"]}


def _third_party_imports(package) -> set[str]:
    """Top-level names of the absolute imports outside the standard library."""
    names = set()
    for path in package:
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"phi4lab"}


def test_runtime_dependencies_are_what_the_package_imports():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        listed = tomllib.load(fh)["project"]["dependencies"]
    names = {re.match(r"[A-Za-z0-9_.-]+", dep).group().lower().replace("-", "_")
             for dep in listed}
    assert _third_party_imports(PACKAGE) == names


def test_the_check_sees_a_third_party_import(tmp_path):
    mod = tmp_path / "checked.py"
    mod.write_text(
        "import json\nimport numpy.linalg as la\nfrom . import grids\n"
        "from phi4lab.noise import replicate\n\n"
        "def check(doc):\n    from jsonschema import validate\n    return validate(doc, {})\n"
    )
    assert _third_party_imports([mod]) == {"numpy", "jsonschema"}
