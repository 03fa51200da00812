"""Every public name the package lists is importable and has a caller, as
has every public method and property of the classes it lists; every module
uses what it imports, the disc and grid models store their arrays instead of
converting on every .array access, and importing the package loads no scipy:
the three scipy names are shims that import on their first call."""

import ast
import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np

import isolab
from isolab import contspace, holodisc, make_builtin_gauge

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = ("quadrature", "gauges", "metric", "recovery", "holodisc", "contspace")


def test_every_module_all_resolves():
    names = [m.name for m in pkgutil.iter_modules(isolab.__path__) if m.name != "__main__"]
    assert "holodisc" in names and "cli" in names
    for name in names:
        module = importlib.import_module(f"isolab.{name}")
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert not missing, f"isolab.{name}.__all__ lists undefined {missing}"


def test_package_exports_the_library_modules_all():
    concatenated = [
        n for name in LIBRARY for n in importlib.import_module(f"isolab.{name}").__all__
    ]
    assert isolab.__all__ == concatenated
    assert len(set(concatenated)) == len(concatenated)
    missing = [n for n in isolab.__all__ if not hasattr(isolab, n)]
    assert not missing, f"isolab.__all__ lists undefined {missing}"


def _read_names(source: str) -> set:
    """Names a source reads (loads of a name or an attribute), leaving out
    reads inside a def or class of the same name, at any depth."""
    read = set()

    def visit(node, owners):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            owners = owners | {node.name}
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
            name = node.id if isinstance(node, ast.Name) else node.attr
            if name not in owners:
                read.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, owners)

    visit(ast.parse(source), frozenset())
    return read


def _uncalled(public: list, sources: list) -> list:
    """Public names that none of the sources reads outside its own definition."""
    read = set().union(*(_read_names(s) for s in sources))
    return sorted(n for n in public if n not in read)


def test_uncalled_guard_sees_a_leftover():
    sources = ["def f():\n    return f\n\n\ndef g():\n    return h\n\n\nh = 1\n"]
    assert _uncalled(["f", "g", "h"], sources) == ["f", "g"]
    assert _uncalled(["f", "g"], [*sources, "from m import f, g\n\ng(f)\n"]) == []


def _public_members(module) -> dict:
    """Class.member -> member, for the public methods and properties of the
    classes a module lists, inherited ones included (builtins left out)."""
    members = {}
    for name in getattr(module, "__all__", []):
        cls = getattr(module, name)
        if not isinstance(cls, type):
            continue
        for klass in cls.__mro__:
            if klass.__module__ == "builtins":
                continue
            for attr, value in vars(klass).items():
                routine = isinstance(value, (property, classmethod, staticmethod))
                if not attr.startswith("_") and (routine or inspect.isfunction(value)):
                    members[f"{name}.{attr}"] = attr
    return members


def test_uncalled_guard_sees_a_leftover_member():
    class Base:
        def shared(self):
            pass

    class Listed(Base, RuntimeError):
        size = 3  # a field default, not a member

        def used(self):
            pass

        def unused(self):
            pass

        @property
        def prop(self):
            pass

        @classmethod
        def build(cls):
            pass

        def _private(self):
            pass

        def __len__(self):
            return 0

    module = types.SimpleNamespace(__all__=["Listed", "helper"], Listed=Listed, helper=len)
    members = _public_members(module)
    assert sorted(members) == [f"Listed.{m}" for m in ("build", "prop", "shared", "unused", "used")]
    sources = [
        "class Listed:\n    def unused(self):\n        return self.unused()\n",
        "def caller(x):\n    return x.used(), x.build(), x.prop, x.shared()\n",
    ]
    assert _uncalled(set(members.values()), sources) == ["unused"]


def _caller_sources() -> list:
    files = [
        *Path(isolab.__path__[0]).glob("*.py"),
        *(ROOT / "demos").glob("*.py"),
        *(ROOT / "perfbench").rglob("*.py"),
        ROOT / "tests" / "test_acceptance.py",
    ]
    return [f.read_text() for f in files]


def test_every_public_name_has_a_caller():
    sources = _caller_sources()
    names = [m.name for m in pkgutil.iter_modules(isolab.__path__) if m.name != "__main__"]
    for name in names:
        public = getattr(importlib.import_module(f"isolab.{name}"), "__all__", [])
        uncalled = _uncalled(public, sources)
        assert not uncalled, f"isolab.{name} lists {uncalled} but nothing outside tests calls them"


def test_every_public_member_has_a_caller():
    sources = _caller_sources()
    for name in LIBRARY:
        members = _public_members(importlib.import_module(f"isolab.{name}"))
        uncalled = set(_uncalled(set(members.values()), sources))
        leftover = sorted(q for q, attr in members.items() if attr in uncalled)
        assert not leftover, f"isolab.{name} has {leftover} but nothing outside tests calls them"


def _unused_imports(source: str) -> list:
    """Names a module imports but neither uses nor lists in its __all__."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    listed = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            listed = set(ast.literal_eval(node.value))
    return sorted(name for name in imported if name not in used | listed)


def test_unused_import_guard_sees_a_leftover():
    assert _unused_imports("import io\nimport json\n\njson.dumps(1)\n") == ["io"]
    assert _unused_imports("from .a import b\n\n__all__ = ['b']\n") == []


def test_no_unused_imports():
    names = [m.name for m in pkgutil.iter_modules(isolab.__path__) if m.name != "__init__"]
    for name in names:
        source = Path(isolab.__path__[0], f"{name}.py").read_text()
        unused = _unused_imports(source)
        assert not unused, f"isolab.{name} imports {unused} without using them"


def _array_is_stored(obj) -> bool:
    """obj.array is one read-only ndarray, the same object on every access."""
    a = obj.array
    return isinstance(a, np.ndarray) and not a.flags.writeable and obj.array is a


def test_stored_array_guard_sees_a_conversion():
    class Converting:
        coefficients = (1.0, 2.0)

        @property
        def array(self):
            a = np.asarray(self.coefficients)
            a.setflags(write=False)
            return a

    class Writable:
        array = np.ones(2)

    assert not _array_is_stored(Converting())
    assert not _array_is_stored(Writable())


def test_models_return_their_stored_array():
    grid = contspace.IntervalGrid.build(contspace.Exhaustion1D.default(), 64)
    disc = contspace.DiscGrid.build(contspace.ExhaustionDisc.default(), 8, 16)
    models = (
        holodisc.TaylorFunction((1.0, 2.0j, 0.0)),
        holodisc.operator_matrix(holodisc.RotationOperator(1j, -1.0), 4),
        holodisc.MatrixOperator([[1.0, 2.0], [3.0, 4.0]]),
        grid,
        contspace.GridFunction.coordinate(grid),
        contspace.GridFunction.coordinate(disc),
    )
    for model in models:
        assert _array_is_stored(model), type(model).__name__


def _scipy_after(*argvs) -> tuple:
    """(exit codes, loaded scipy modules) of a fresh interpreter that imports
    isolab and then runs cli.main on each argv."""
    code = (
        "import contextlib, io, json, sys\n"
        "import isolab\n"
        "from isolab import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [cli.main(list(argv)) for argv in {argvs!r}]\n"
        "print(json.dumps([codes, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')]))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, cwd=ROOT
    )
    assert proc.returncode == 0, proc.stderr
    codes, loaded = json.loads(proc.stdout)
    return codes, loaded


def test_import_loads_no_scipy():
    assert _scipy_after() == ([], [])


def test_scipy_free_subcommands_load_no_scipy():
    argvs = (["theta-check"], ["hol-characterize"], ["cu-iso-test"])
    assert _scipy_after(*argvs) == ([0, 0, 0], [])


def test_recover_measure_loads_scipy_through_the_shim():
    codes, loaded = _scipy_after(["recover-measure"])
    assert codes == [0]
    assert "scipy.optimize" in loaded


def test_exp_mellin_shim_matches_scipy_gamma():
    from scipy.special import gamma

    rng = np.random.default_rng(11)
    z = rng.uniform(-20, 20, 256) + 1j * rng.uniform(-0.9, 0.9, 256)
    assert np.array_equal(make_builtin_gauge("exp").mellin(z), gamma(1 - 1j * z))


def test_kdtree_shim_matches_scipy():
    from scipy.spatial import cKDTree

    rng = np.random.default_rng(12)
    pts = rng.random((2000, 2))
    q = rng.random((500, 2))
    ours = contspace.cKDTree(pts)
    theirs = cKDTree(pts, balanced_tree=False, compact_nodes=False)
    for a, b in zip(ours.query(q, k=1), theirs.query(q, k=1)):
        assert np.array_equal(a, b)
    pairs = ours.query_pairs(0.02, output_type="ndarray")
    assert pairs.shape[0] > 0
    assert np.array_equal(pairs, theirs.query_pairs(0.02, output_type="ndarray"))
