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
  from what fixes them.
* No public function or constructor of ``src/phi4lab`` takes ``workers``,
  ``processes``, ``threads`` or ``jobs``: the replica loop runs on one
  process per CPU the process may use, and outputs do not depend on that
  count, so there is nothing for a caller to set.
* Every package ``src/phi4lab`` imports from outside the standard library is
  a runtime dependency in ``pyproject.toml``, and every runtime dependency is
  imported.  Test oracles (scipy, jsonschema) belong to the ``test`` extra.
* Only ``cli`` and ``config`` import ``csv`` or ``json``: ``cli`` renders
  every output file and ``config`` reads configs and writes manifests, while
  the other modules compute.
* Every Fourier transform of ``src/phi4lab`` goes through the pair
  ``grids._to_points`` / ``grids._to_spectrum``: no code outside those two
  functions refers to ``np.fft`` or ``numpy.fft``, or imports from it.
* ``src/phi4lab`` starts no thread: no module refers to ``threading.Thread``
  or another thread starter of the standard library, or imports one.
  ``noise.replicate`` forks its workers, and a fork copies only the calling
  thread; a span recorder that keeps one span stack per process stays sound.
* Only ``grids`` reads ``k2``: no other module of ``src/phi4lab`` reads the
  attribute ``k2`` or the name ``_k2_array``.  ``grids._shells`` groups the
  modes into ``|w|^2`` shells once, and every radial quantity reads that table.
* Only ``coeffs`` and ``noise.StepKernel`` call ``.degree()``: the kernel's
  step rows are the one place that tells constant damping apart, and every
  other variance reads them.
* No comment or docstring of ``src/phi4lab`` gives a duration (a number
  followed by ``s``, ``ms``, ``µs``, ``us`` or ``ns``): a timing belongs in a
  ``BENCH_*.json`` file, beside the hardware and the method that produced it.
"""

import ast
import io
import re
import sys
import tokenize
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
# StepKernel.variance gathers the in-step variance onto the spectrum, which the
# package reads per shell; perfbench/spans.py wraps it by name, so a traced run
# needs it.
_TEST_ONLY_METHODS = {"RunManifest.equal_modulo_timing", "SpectralField.coeff",
                      "StepKernel.variance"}


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


def _takes_looked_up(fn: ast.FunctionDef) -> bool:
    return not _params(fn).isdisjoint(_LOOKED_UP)


def test_no_public_api_takes_a_kernel_or_a_partition():
    assert _public_apis_where(PACKAGE, _takes_looked_up) == {}


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


def _absolute_imports(path: Path) -> set[str]:
    """Top-level names of a module's absolute imports, at any depth."""
    names = set()
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def _third_party_imports(package) -> set[str]:
    """Top-level names of the absolute imports outside the standard library."""
    names = set().union(*(_absolute_imports(path) for path in package))
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


# the modules that read or write files; the others compute
_FILE_MODULES = ("cli", "config")
_FILE_FORMATS = {"csv", "json"}


def _file_formats_outside_the_file_modules(package) -> dict[str, list[str]]:
    found = {}
    for path in package:
        formats = sorted(_absolute_imports(path) & _FILE_FORMATS)
        if formats and path.stem not in _FILE_MODULES:
            found[path.stem] = formats
    return found


def test_only_cli_and_config_import_a_file_format():
    assert _file_formats_outside_the_file_modules(PACKAGE) == {}


def test_the_check_sees_a_file_format_outside_cli_and_config(tmp_path):
    (tmp_path / "cli.py").write_text("import csv\nimport json\n")
    (tmp_path / "grids.py").write_text("import numpy as np\nfrom . import json_tools\n")
    (tmp_path / "stats.py").write_text(
        "import math\nfrom json import dumps\n\n"
        "def save(rows, path):\n    import csv\n    return csv, dumps\n"
    )
    package = sorted(tmp_path.glob("*.py"))
    assert _file_formats_outside_the_file_modules(package) == {"stats": ["csv", "json"]}


# the transform pair of grids, the only functions that call numpy's FFT
_TRANSFORM_PAIR = ("_to_points", "_to_spectrum")


def _is_numpy_fft(node: ast.AST) -> bool:
    """``np.fft`` or ``numpy.fft``, or an import of it."""
    if isinstance(node, ast.Attribute):
        return (node.attr == "fft" and isinstance(node.value, ast.Name)
                and node.value.id in ("np", "numpy"))
    if isinstance(node, ast.Import):
        return any(alias.name.startswith("numpy.fft") for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        module = node.module or ""
        return module.startswith("numpy.fft") or (
            module == "numpy" and any(alias.name == "fft" for alias in node.names))
    return False


def _fft_outside_the_pair(package) -> dict[str, list[int]]:
    """Lines, per module, that refer to numpy's FFT outside the transform pair."""
    found = {}
    for path in package:
        lines, todo = set(), [_tree(path)]
        while todo:
            node = todo.pop()
            if isinstance(node, ast.FunctionDef) and node.name in _TRANSFORM_PAIR:
                continue
            if _is_numpy_fft(node):
                lines.add(node.lineno)
            todo.extend(ast.iter_child_nodes(node))
        if lines:
            found[path.stem] = sorted(lines)
    return found


def test_every_transform_goes_through_the_pair():
    assert _fft_outside_the_pair(PACKAGE) == {}


def test_the_check_sees_a_transform_outside_the_pair(tmp_path):
    mod = tmp_path / "planted.py"
    mod.write_text(
        "import numpy as np\nimport numpy\nfrom numpy import fft\n"
        "from numpy.fft import rfft\n\n"
        "def _to_points(a):\n    return np.fft.irfftn(a)\n\n"
        "def _to_spectrum(p):\n    return numpy.fft.rfftn(p)\n\n"
        "def block(a):\n"
        '    """Says np.fft.ifft in prose only."""\n'
        "    return np.fft.ifft(a)\n\n"
        "class Stack:\n"
        "    def values(self, a):\n        return numpy.fft.irfft(np.asarray(a))\n"
    )
    assert _fft_outside_the_pair([mod]) == {"planted": [3, 4, 14, 18]}


# what starts a thread, by the standard-library module that defines it
_THREAD_STARTERS = {
    "threading": {"Thread", "Timer"},
    "_thread": {"start_new_thread", "start_new"},
    "concurrent.futures": {"ThreadPoolExecutor"},
    "multiprocessing.pool": {"ThreadPool"},
}


def _dotted(node: ast.AST) -> str | None:
    """``a.b.c`` for a chain of attributes on a name, else ``None``."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return ".".join([node.id] + parts[::-1])


def _thread_starters(package) -> dict[str, list[int]]:
    """Lines, per module, that refer to a thread starter or import one."""
    found = {}
    for path in package:
        tree, lines = _tree(path), set()
        aliases = {}  # local name -> what it is bound to
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        aliases[alias.asname] = alias.name
            elif isinstance(node, ast.ImportFrom) and node.module:
                # ``from concurrent import futures`` binds a module too
                for alias in node.names:
                    aliases[alias.asname or alias.name] = f"{node.module}.{alias.name}"
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                if any(alias.name in _THREAD_STARTERS.get(node.module or "", ())
                       for alias in node.names):
                    lines.add(node.lineno)
            elif isinstance(node, ast.Attribute):
                name = _dotted(node)
                if name is None:
                    continue
                head, _, rest = name.partition(".")
                module, _, attr = f"{aliases.get(head, head)}.{rest}".rpartition(".")
                if attr in _THREAD_STARTERS.get(module, ()):
                    lines.add(node.lineno)
        if lines:
            found[path.stem] = sorted(lines)
    return found


def test_the_package_starts_no_thread():
    assert _thread_starters(PACKAGE) == {}


def test_the_check_sees_a_thread_starter(tmp_path):
    mod = tmp_path / "planted.py"
    mod.write_text(
        "import threading\nimport threading as th\nimport concurrent.futures\n"
        "from threading import Thread, active_count\nfrom _thread import start_new_thread\n\n"
        "def split(first, second):\n"
        '    """Says threading.Thread in prose only."""\n'
        "    helper = threading.Thread(target=first)\n"
        "    return helper, th.Timer(1.0, second), threading.active_count()\n\n"
        "def pool():\n"
        "    return concurrent.futures.ThreadPoolExecutor(2)\n"
    )
    (tmp_path / "quiet.py").write_text(
        "import threading\n\ndef alone():\n    return threading.active_count() == 1\n"
    )
    package = sorted(tmp_path.glob("*.py"))
    assert _thread_starters(package) == {"planted": [4, 5, 9, 10, 13]}


# one way to start a thread per case, and the lines that the check reports
_PLANTED_STARTERS = {
    "attribute": ("import threading\n\nhelper = threading.Thread(target=print)\n", [3]),
    "timer": ("import threading\n\ntimer = threading.Timer(1.0, print)\n", [3]),
    "aliased-module": ("import threading as th\n\nhelper = th.Thread(target=print)\n", [3]),
    "from-import": ("from threading import Thread\n", [1]),
    "from-import-renamed": ("from threading import Thread as Helper\n", [1]),
    "low-level": ("import _thread\n\n_thread.start_new_thread(print, ())\n", [3]),
    "low-level-from-import": ("from _thread import start_new\n", [1]),
    "executor": ("import concurrent.futures\n\npool = concurrent.futures.ThreadPoolExecutor(2)\n",
                 [3]),
    "executor-submodule": ("from concurrent import futures\n\npool = futures.ThreadPoolExecutor(2)\n",
                           [3]),
    "thread-pool": ("import multiprocessing.pool as mpp\n\npool = mpp.ThreadPool(2)\n", [3]),
    "thread-pool-from-import": ("from multiprocessing.pool import ThreadPool\n", [1]),
}

# code that names threads or pools but starts no thread
_QUIET_SOURCES = {
    "active-count": "import threading\n\nalone = threading.active_count() == 1\n",
    "guards": "from threading import Event, Lock, current_thread\n",
    "prose": '"""Starts no threading.Thread: a fork copies only the calling thread."""\n',
    "other-module": "import worker\n\nhelper = worker.Thread(target=print)\n",
    "process-pool": "import multiprocessing.pool\n\npool = multiprocessing.pool.Pool(2)\n",
}


@pytest.mark.parametrize(
    "source, lines", [pytest.param(*case, id=name) for name, case in _PLANTED_STARTERS.items()]
)
def test_the_check_sees_each_way_to_start_a_thread(tmp_path, source, lines):
    mod = tmp_path / "planted.py"
    mod.write_text(source)
    assert _thread_starters([mod]) == {"planted": lines}


@pytest.mark.parametrize("source", [pytest.param(s, id=name) for name, s in _QUIET_SOURCES.items()])
def test_the_check_passes_code_that_starts_no_thread(tmp_path, source):
    mod = tmp_path / "quiet.py"
    mod.write_text(source)
    assert _thread_starters([mod]) == {}


# grids builds the |w|^2 shell table (grids._shells) from k2; every other
# module reads the table, so the modes are grouped into shells in one place
_K2_OWNER = "grids"


def _k2_reads(package) -> dict[str, list[int]]:
    """Lines, per module other than ``grids``, that read ``.k2`` or ``_k2_array``."""
    found = {}
    for path in package:
        if path.stem == _K2_OWNER:
            continue
        lines = set()
        for node in ast.walk(_tree(path)):
            if (isinstance(node, ast.Attribute) and node.attr == "k2") or (
                    isinstance(node, ast.Name) and node.id == "_k2_array"):
                lines.add(node.lineno)
            elif isinstance(node, ast.ImportFrom):
                if any(alias.name == "_k2_array" for alias in node.names):
                    lines.add(node.lineno)
        if lines:
            found[path.stem] = sorted(lines)
    return found


def test_only_grids_reads_k2():
    assert _k2_reads(PACKAGE) == {}


def test_the_check_sees_a_k2_read_outside_grids(tmp_path):
    (tmp_path / "grids.py").write_text(
        "def _k2_array(N, dim):\n    return 0\n\n"
        "def _shells(N, dim):\n    return _k2_array(N, dim)\n\n"
        "def symbol(grid):\n    return grid.k2\n"
    )
    (tmp_path / "planted.py").write_text(
        "from .grids import _k2_array, _shells\n\n"
        "def radii(grid):\n"
        '    """Says grid.k2 in prose only."""\n'
        "    return grid.k2 ** 0.5\n\n"
        "def levels(grid):\n    return _k2_array(grid.N, grid.dim)\n"
    )
    (tmp_path / "quiet.py").write_text(
        "from .grids import _shells\n\n"
        "def step(rhs, x):\n    k2 = rhs(x)\n    return k2, _shells(8, 2)\n"
    )
    package = sorted(tmp_path.glob("*.py"))
    assert _k2_reads(package) == {"planted": [1, 5, 8]}


# coeffs validates a(t) and f2 by their degrees; noise.StepKernel tells
# constant damping apart for its step rows, which every other variance reads
_DEGREE_READERS = {"coeffs": None, "noise": "StepKernel"}


def _degree_calls(package) -> dict[str, list[int]]:
    """Lines, per module, that call ``.degree()`` outside ``coeffs`` and ``noise.StepKernel``."""
    found = {}
    for path in package:
        if path.stem in _DEGREE_READERS and _DEGREE_READERS[path.stem] is None:
            continue
        owner = _DEGREE_READERS.get(path.stem)
        tops = [node for node in _tree(path).body
                if not (isinstance(node, ast.ClassDef) and node.name == owner)]
        lines = {node.lineno for top in tops for node in ast.walk(top)
                 if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                 and node.func.attr == "degree"}
        if lines:
            found[path.stem] = sorted(lines)
    return found


def test_only_coeffs_and_the_step_kernel_call_degree():
    assert _degree_calls(PACKAGE) == {}


def test_the_check_sees_a_degree_call_outside_the_step_kernel(tmp_path):
    (tmp_path / "coeffs.py").write_text(
        "def check(p):\n    return p.degree() >= 2\n"
    )
    (tmp_path / "noise.py").write_text(
        "class StepKernel:\n"
        "    def __init__(self, a):\n        self._const = a.degree() == 0\n\n"
        "def curve(a, t):\n"
        '    """Says a.degree() in prose only."""\n'
        "    return t if a.degree() == 0 else 2 * t\n\n"
        "class Other:\n"
        "    def rows(self, a):\n        return a.degree()\n"
    )
    (tmp_path / "solvers.py").write_text(
        "def step(coeffs, x):\n    if coeffs.a.degree() == 0:\n        return x\n    return -x\n"
    )
    (tmp_path / "quiet.py").write_text(
        "def recentre(b, degree=6):\n    return min(degree, len(b))\n"
    )
    package = sorted(tmp_path.glob("*.py"))
    assert _degree_calls(package) == {"noise": [7, 11], "solvers": [2]}


# a duration in prose: a number, then s, ms, µs, us or ns; timings belong in
# the BENCH_*.json files, where the hardware and the method are recorded
_DURATION = re.compile(r"(?<![\w.])\d+(?:\.\d+)?\s?(?:s|ms|µs|us|ns)\b")


def _durations_in_prose(package) -> dict[str, list[int]]:
    """Lines, per module, whose comment or docstring gives a duration."""
    found = {}
    for path in package:
        source = path.read_text()
        docstrings = {node.body[0].lineno for node in ast.walk(ast.parse(source))
                      if isinstance(node, (ast.Module,) + _DEFS) and node.body
                      and isinstance(node.body[0], ast.Expr)
                      and isinstance(node.body[0].value, ast.Constant)
                      and isinstance(node.body[0].value.value, str)}
        lines = set()
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            if tok.type == tokenize.COMMENT or (
                    tok.type == tokenize.STRING and tok.start[0] in docstrings):
                for offset, text in enumerate(tok.string.splitlines()):
                    if _DURATION.search(text):
                        lines.add(tok.start[0] + offset)
        if lines:
            found[path.stem] = sorted(lines)
    return found


def test_no_comment_or_docstring_gives_a_duration():
    assert _durations_in_prose(PACKAGE) == {}


def test_the_check_sees_a_duration_in_prose(tmp_path):
    mod = tmp_path / "timed.py"
    mod.write_text(
        '"""A module that took 2 s to import."""\n\n'
        "# the sum takes about 48 s at\n"
        "# 32 ns a point\n"
        "BUDGET = 768  # MiB, a contract: 48 KiB a block, at most 4e-18 of 2 steps\n\n"
        "def step(x):\n"
        '    """One step.\n\n'
        "    Costs 1.4 ms a call, 3µs a mode or 0.5 us a point; runs 4 steps.\n"
        '    """\n'
        '    label = "took 9 s"\n'
        "    return x, label, steps_per_s(2)\n"
    )
    assert _durations_in_prose([mod]) == {"timed": [1, 3, 4, 10]}
